"""Real isomorphism classes of coverings through normalized polynomial models.

Every real covering of the sphere with a fully ramified point over infinity
is modeled by a real polynomial, and real isomorphism (precomposition with
a real affine map) reduces each class to normalized representatives:

* odd degree: exactly one normalized representative, trivial automorphisms;
* even degree, positive leading coefficient: one or two normalized
  representatives related by z -> -z; a single representative means the
  polynomial is even and has an automorphism group of order 2;
* even degree, negative leading coefficient: the classes are indexed by the
  normalized representatives of -P, which solve the reversed spec (profiles
  reversed, values negated and reversed).

The signed class count weights each class by sign / |automorphisms| and, by
the main identity this package verifies, equals the plain signed count of
normalized real polynomials.

Both counts come from the same real solutions, read from a ``RealsProvider``
(by default the solver's, one solve per spec).  ``s_number`` turns a spec
and a provider into the signed polynomial count, and ``real_hurwitz`` into
the class count; ``real_hurwitz`` alone decides the parity-odd shortcut;
``_assemble_classes`` alone pairs an even-degree spec with its reversed
spec; ``reflection_partners`` alone pairs P with P(-z).
``theorem_check`` alone decides the theorem HR = s (and the half-sum for
even degree) from one provider, so each side is solved once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .errors import CoveringAssemblyError, SignMismatch
from .partitions import BranchSpec, floor_sum_parity
from .realsigns import RealPolynomial, signed_sum
from .polysolve import SolutionSet, classify_real, grid_key, match_index, solve_all

POSITIVE = "positive"
NEGATIVE = "negative"

# the real normalized polynomials of a spec, from a complete solution set
RealsProvider = Callable[[BranchSpec], Sequence[RealPolynomial]]


@dataclass(frozen=True)
class CoveringClass:
    """A real isomorphism class, held through its normalized representatives."""

    side: str  # positive or negative leading coefficient
    representatives: tuple[RealPolynomial, ...]
    aut_order: int
    class_sign: int
    weight: Fraction

    def as_json_dict(self) -> dict:
        return {
            "side": self.side,
            "reps": [list(p.coefficients) for p in self.representatives],
            "aut": self.aut_order,
            "sign": self.class_sign,
            "weight": str(self.weight),
        }


def reflection_partners(reals: Sequence[RealPolynomial], tol: float) -> list[int | None]:
    """For each real, the first row whose coefficients match its z -> -z mirror, or None."""
    table = np.array([p.coefficients for p in reals], dtype=float)
    mirrors = np.array([p.reflected().coefficients for p in reals], dtype=float)
    return match_index(table, mirrors, tol) if reals else []


def _orbit_classes(
    reals: Sequence[RealPolynomial], side: str, config: RunConfig
) -> list[tuple[str, tuple[RealPolynomial, ...], int]]:
    """Group real solutions into orbits of the z -> -z involution.

    A two-element orbit is a class with two representatives and trivial
    automorphisms; a fixed point (even polynomial) is a class with one
    representative and automorphism order 2.  Every polynomial must find its
    partner inside the set and the partner map must be an involution;
    anything else means the set is not actually complete and is reported as
    an assembly error.
    """
    partners = reflection_partners(reals, config.tol_dedup)
    classes = []
    for i, j in enumerate(partners):
        if j is None:
            raise CoveringAssemblyError(
                "a real solution has no z -> -z partner in the complete set"
            )
        if partners[j] != i:
            raise CoveringAssemblyError("the z -> -z partner map is not an involution")
        if j == i:
            classes.append((side, (reals[i],), 2))
        elif i < j:
            reps = tuple(sorted((reals[i], reals[j]), key=lambda p: grid_key(p.coefficients)))
            classes.append((side, reps, 1))
    return classes


def class_sign(representatives: Sequence[RealPolynomial], d: int, parity: int) -> int:
    """Sign of a covering class from its representative signs.

    Odd degree and the even-degree parity-even branch take the common
    representative sign (the two representatives must agree there, a
    disagreement is reported as SignMismatch).  In the parity-odd branch the
    averaged sign is returned: 0 for two-representative classes, the plain
    sign for classes with automorphism order 2.  That branch is diagnostic
    only since the signed count is 0 by definition there.
    """
    signs = [p.sign for p in representatives]
    if d % 2 == 1:
        return signs[0]
    if parity == 0:
        if len(signs) == 2 and signs[0] != signs[1]:
            raise SignMismatch(
                "the two representatives of a parity-even class disagree in sign"
            )
        return signs[0]
    avg = Fraction(sum(signs), len(signs))
    assert avg.denominator == 1
    return int(avg)


def _solved_reals(config: RunConfig) -> RealsProvider:
    """Real solutions of each spec from the solver; one provider solves a spec once.

    Each solve is handed the sets this provider solved before, so the
    reversed spec of an even degree is mapped from the spec, not solved.
    """
    solved: dict[BranchSpec, SolutionSet] = {}

    @functools.cache
    def reals(spec: BranchSpec) -> list[RealPolynomial]:
        solved[spec] = solve_all(spec, config, known=tuple(solved.values()))
        return classify_real(solved[spec], config)

    return reals


def _assemble_classes(
    spec: BranchSpec, reals: RealsProvider, config: RunConfig
) -> list[CoveringClass]:
    """Classes of the spec; for even degree the reversed spec gives the negative side."""
    d = spec.d
    parity = floor_sum_parity(spec.profiles)
    reals_pos = reals(spec)
    if d % 2 == 1:
        raw = [(POSITIVE, (p,), 1) for p in reals_pos]
    else:
        reals_neg = reals(spec.reversed_spec())
        raw = _orbit_classes(reals_pos, POSITIVE, config)
        raw.extend(_orbit_classes(reals_neg, NEGATIVE, config))
    classes = []
    for side, reps, aut in raw:
        sgn = class_sign(reps, d, parity)
        classes.append(
            CoveringClass(
                side=side,
                representatives=reps,
                aut_order=aut,
                class_sign=sgn,
                weight=Fraction(sgn, aut),
            )
        )
    classes.sort(key=lambda c: (c.side, grid_key(c.representatives[0].coefficients)))
    return classes


@dataclass(frozen=True)
class RealHurwitzResult:
    """Signed class count with its provenance."""

    spec: BranchSpec
    value: Fraction
    parity_odd_branch: bool
    classes: tuple[CoveringClass, ...] | None

    @property
    def is_integral(self) -> bool:
        return self.value.denominator == 1

    def as_json_dict(self) -> dict:
        out = {
            "spec": self.spec.as_json_dict(),
            "HR": str(self.value),
            "integral": self.is_integral,
        }
        if self.parity_odd_branch:
            out["reason"] = "parity-odd branch"
        if self.classes is not None:
            out["classes"] = [c.as_json_dict() for c in self.classes]
        return out


def real_hurwitz(
    spec: BranchSpec, config: RunConfig | None = None, reals: RealsProvider | None = None
) -> RealHurwitzResult:
    """Signed count of real covering classes, weighted by 1/|automorphisms|.

    The real solutions of each side are read from ``reals``, by default the
    solver's.  For even degree with odd floor-sum parity the value is 0 by
    definition and no solving happens; set ``force_class_diagnostics`` in
    the config to build the classes anyway and verify that the averaged
    signs cancel.
    """
    config = config or RunConfig()
    reals = reals or _solved_reals(config)
    if spec.is_identity:
        return RealHurwitzResult(spec, Fraction(1), False, None)
    parity_odd = spec.d % 2 == 0 and floor_sum_parity(spec.profiles) == 1
    if parity_odd and not config.force_class_diagnostics:
        return RealHurwitzResult(spec, Fraction(0), True, None)
    classes = _assemble_classes(spec, reals, config)
    total = sum((c.weight for c in classes), Fraction(0))
    if parity_odd:
        # diagnostic pass: averaged signs must cancel exactly
        if total != 0:
            raise SignMismatch(
                f"averaged class signs sum to {total} in the parity-odd branch"
            )
        return RealHurwitzResult(spec, Fraction(0), True, tuple(classes))
    return RealHurwitzResult(spec, total, False, tuple(classes))


def s_number(
    spec: BranchSpec, config: RunConfig | None = None, reals: RealsProvider | None = None
) -> int:
    """Sum of signs over all real normalized polynomials with the given branch data.

    The real solutions are read from ``reals``, by default the solver's,
    whose complete solution set is certified against the exact
    factorization count.  The degree-1 identity covering has the one
    identity polynomial, so it counts 1.
    """
    config = config or RunConfig()
    reals = reals or _solved_reals(config)
    return signed_sum(reals(spec), config)


@dataclass(frozen=True)
class TheoremReport:
    """Comparison of the class route and the polynomial route for one spec."""

    spec: BranchSpec
    hr: Fraction
    s: int
    s_reversed: int | None
    hr_equals_s: bool
    hr_integral: bool
    half_sum_ok: bool | None
    classes: tuple[CoveringClass, ...] | None

    @property
    def passed(self) -> bool:
        checks = [self.hr_equals_s, self.hr_integral]
        if self.half_sum_ok is not None:
            checks.append(self.half_sum_ok)
        return all(checks)


def theorem_check(
    spec: BranchSpec, config: RunConfig | None = None, reals: RealsProvider | None = None
) -> TheoremReport:
    """Verify that the signed class count equals the signed polynomial count.

    For even degree the identity HR = (s + s_reversed) / 2 is checked as
    well; failures land in the report rather than raising.  The real
    solutions are read from ``reals``, by default the solver's, so the spec
    and its reversed spec are each solved at most once for all three numbers.
    """
    config = config or RunConfig()
    reals = reals or _solved_reals(config)
    hr_result = real_hurwitz(spec, config, reals)
    s = s_number(spec, config, reals)
    s_reversed = None
    half_sum_ok = None
    if spec.d % 2 == 0:
        s_reversed = s_number(spec.reversed_spec(), config, reals)
        half_sum_ok = hr_result.value == Fraction(s + s_reversed, 2)
    return TheoremReport(
        spec=spec,
        hr=hr_result.value,
        s=s,
        s_reversed=s_reversed,
        hr_equals_s=hr_result.value == s,
        hr_integral=hr_result.is_integral,
        half_sum_ok=half_sum_ok,
        classes=hr_result.classes,
    )
