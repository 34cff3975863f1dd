"""Sweep driver: check every property on every admissible spec up to a bound.

For each multiset of nontrivial profiles with d <= dmax and k <= kmax the
sweep certifies solver completeness, the closure symmetries of the complex
solution set, the sign and parity laws of the real solutions, the equality
of the signed class count with the signed polynomial count, and the
invariance of both under profile reordering and branch value motion.

An ``InfraLimit`` (budget exhaustion, scale, ambiguous tolerances) marks a
record FAILED-INFRA, which is kept distinct from a genuine property violation.

One ``coverings.SolvedReals`` provider serves the whole sweep: it solves
each spec once and carries each spec's solution set over from the first
solved spec with the same profile multiset, mapped when its branch data is
an affine image and tracked otherwise, instead of solving it afresh.  So
starts are drawn once per swept multiset of two or more branches, and the
order and position invariance checks test the tracker against the closed
forms.  The theorem and the z -> -z pairing are decided in ``coverings``
alone: the sweep passes the provider to ``theorem_check``, ``s_number`` and
``real_hurwitz`` and its real solutions to ``reflection_partners``, and
keeps no memo of its own; a moved spec that repeats (equal profiles
reorder to the same spec) is checked once.  The number R of real solutions
whose parity is checked is the length of ``classify_real``'s list, the
reals s sums over.  Each closure check is one ``match_index`` call per
symmetry on the ``normal_coefficients`` rows; the conjugation check reads
``conjugation_partners``, the map that decides realness.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import RunConfig
from .coverings import SolvedReals, real_hurwitz, reflection_partners, s_number, theorem_check
from .errors import InfraLimit, PropertyFailure, ScaleExceeded, ValidationError
from .factorizations import count_factorizations
from .partitions import (
    BranchSpec,
    Partition,
    floor_sum_parity,
    o_count,
    partitions_of,
    validate_branch_spec,
)
from .polysolve import (
    _MAX_SOLVER_DEGREE, SolutionSet, conjugation_partners, match_index, normal_coefficients,
    residual_bound, rotate_coefficients,
)
# bound though verify calls neither: bench/selftest.py requires this module to hold them
from .polysolve import classify_real, solve_all  # noqa: F401
from .realsigns import disorders_by_branch, ordered_pairs_by_branch

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


def enumerate_sweep_specs(dmax: int, kmax: int) -> list[tuple[Partition, ...]]:
    """All admissible profile multisets (canonical order) with d <= dmax, k <= kmax."""
    out = []
    for d in range(2, dmax + 1):
        pool = partitions_of(d, include_trivial=False)
        for k in range(1, min(kmax, d - 1) + 1):
            for combo in itertools.combinations_with_replacement(pool, k):
                if sum(lam.length for lam in combo) == (k - 1) * d + 1:
                    out.append(tuple(sorted(combo, key=lambda p: p.parts, reverse=True)))
    return out


@dataclass
class SpecRecord:
    """All checks for one spec; ``properties`` maps check name to PASS/FAIL/SKIP."""

    spec: BranchSpec
    N: int
    H: Fraction
    s: int | None = None
    s_reversed: int | None = None
    hr: Fraction | None = None
    properties: dict[str, str] = field(default_factory=dict)
    diagnostics: dict[str, object] = field(default_factory=dict)
    status: str = PASS
    error: str | None = None

    def record(self, name: str, ok: bool | None):
        if ok is None:
            self.properties[name] = SKIP
        else:
            self.properties[name] = PASS if ok else FAIL
            if not ok:
                self.status = FAIL

    def as_json_dict(self) -> dict:
        out = {
            "spec": self.spec.as_json_dict(),
            "key": self.spec.canonical_key(),
            "N": self.N,
            "H": str(self.H),
            "status": self.status,
            "properties": dict(sorted(self.properties.items())),
        }
        if self.s is not None:
            out["s"] = self.s
        if self.s_reversed is not None:
            out["s_reversed"] = self.s_reversed
        if self.hr is not None:
            out["HR"] = str(self.hr)
        if self.error:
            out["error"] = self.error
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


@dataclass
class VerifyReport:
    records: list[SpecRecord]
    dmax: int
    kmax: int

    @property
    def passed(self) -> bool:
        return all(r.status == PASS for r in self.records)

    def summary(self) -> dict:
        return {
            "total": len(self.records),
            "passed": sum(1 for r in self.records if r.status == PASS),
            "failed": sum(1 for r in self.records if r.status == FAIL),
            "infra": sum(1 for r in self.records if r.status == "FAILED-INFRA"),
        }

    def as_json_dict(self) -> dict:
        return {
            "dmax": self.dmax,
            "kmax": self.kmax,
            "summary": self.summary(),
            "records": [r.as_json_dict() for r in self.records],
        }


def _spec_rng(config: RunConfig, profiles: tuple[Partition, ...]) -> np.random.Generator:
    key = "|".join(str(p) for p in profiles)
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng([config.seed, int.from_bytes(digest[:8], "big")])


def _value_configs(config: RunConfig, profiles: tuple[Partition, ...]) -> list[tuple[float, ...]]:
    """Three deterministic branch-value layouts: unit grid, random-spaced, shifted."""
    k = len(profiles)
    base = tuple(float(i) for i in range(1, k + 1))
    rng = _spec_rng(config, profiles)
    random_spaced = []
    prev = round(float(rng.uniform(-4.0, -2.0)), 4)
    for _ in range(k):
        prev = round(prev + 0.5 + float(rng.uniform(0.0, 2.0)), 4)
        random_spaced.append(prev)
    shifted = tuple(round(-2.5 + 1.75 * i, 4) for i in range(k))
    return [base, tuple(random_spaced), shifted]


def _closure_checks(record: SpecRecord, solset: SolutionSet, solved: SolvedReals):
    """Residual, conjugation and rotation checks, then the parity of R.

    Each closure is one ``match_index`` call per symmetry, on the normal
    coefficients.  R is the number of ``classify_real``'s reals, the ones s
    sums over.
    """
    spec, d, tol = record.spec, record.spec.d, solved.config.tol_dedup
    coeffs = normal_coefficients(spec.values, solset.coefficients)
    bound = residual_bound(spec, solved.config)
    record.record("residuals_ok", (solset.residuals < bound).all())
    record.record("conjugation_closure", None not in conjugation_partners(solset, tol))
    # rotations[t][i]: the solution that rotating solution i by t gives
    rotations = [match_index(coeffs, rotate_coefficients(coeffs, d, t), tol) for t in range(d)]
    rot_ok = all(None not in mates for mates in rotations)
    record.record("rotation_closure", rot_ok)
    orbits_ok = all(d % len(set(orbit)) == 0 for orbit in zip(*rotations))
    record.record("rotation_orbits_divide_d", rot_ok and orbits_ok)
    record.record("real_count_parity", len(solved(spec)) % 2 == record.N % 2)


def _branch_parities(poly) -> list[bool]:
    """Per branch: whether t_i + ord_i has the parity of floor(o(lambda_i) / 2)."""
    return [
        (t + o) % 2 == (o_count(lam) // 2) % 2
        for t, o, lam in zip(
            disorders_by_branch(poly), ordered_pairs_by_branch(poly), poly.profiles
        )
    ]


def _parity_law_checks(record: SpecRecord, solved: SolvedReals):
    """Even-degree sign laws for the real solutions on both leading-coefficient sides."""
    spec = record.spec
    parity = floor_sum_parity(spec.profiles)
    per_branch_ok = True
    reflection_ok = True
    orbit_sign_ok = True
    for side_spec in (spec, spec.reversed_spec()):
        reals = solved(side_spec)
        for poly, hit in zip(reals, reflection_partners(reals, solved.config.tol_dedup)):
            if not all(_branch_parities(poly)):
                per_branch_ok = False
            if poly.reflected().t != poly.ord_count:
                reflection_ok = False
            if hit is None:
                reflection_ok = False
                continue
            partner = reals[hit]
            if partner.t != poly.ord_count:
                reflection_ok = False
            expected = poly.sign if parity == 0 else -poly.sign
            if partner is not poly and partner.sign != expected:
                orbit_sign_ok = False
    record.record("per_branch_parity", per_branch_ok)
    record.record("reflection_identity", reflection_ok)
    record.record("orbit_sign_law", orbit_sign_ok)


def _odd_degree_parity_diagnostic(record: SpecRecord, solved: SolvedReals):
    """The even-degree per-branch parity law, measured (not gated) for odd degree."""
    holds = [ok for poly in solved(record.spec) for ok in _branch_parities(poly)]
    record.diagnostics["odd_d_per_branch_parity"] = {"holds": sum(holds), "of": len(holds)}


def check_spec(profiles: tuple[Partition, ...], solved: SolvedReals) -> SpecRecord:
    """Run every applicable check for one profile multiset, under the provider's config."""
    config = solved.config
    spec = validate_branch_spec(profiles)
    d = spec.d
    parity = floor_sum_parity(spec.profiles)
    parity_odd = d % 2 == 0 and parity == 1
    count = count_factorizations(spec.profiles)
    record = SpecRecord(spec=spec, N=count.N, H=count.H)
    try:
        solset = solved.solset(spec)
        record.record("certificate_complete", solset.certificate == "COMPLETE" and len(solset) == count.N)
        _closure_checks(record, solset, solved)

        record.s = s_number(spec, config, solved)
        try:
            report = theorem_check(spec, config, solved)
        except PropertyFailure as exc:
            report = None
            record.error = str(exc)
        record.record("class_assembly", report is not None)
        record.record("theorem_hr_eq_s", report is not None and report.hr_equals_s)
        record.record("hr_integral", report is not None and report.hr_integral)
        if report is not None:
            record.hr = report.hr
            record.s_reversed = report.s_reversed
            record.record("half_sum", report.half_sum_ok)

        if d % 2 == 0:
            _parity_law_checks(record, solved)
            record.record("parity_vanishing", (record.s == 0 and record.hr == 0) if parity_odd else None)
        else:
            record.record("parity_vanishing", None)
            _odd_degree_parity_diagnostic(record, solved)

        # profile reorderings and branch-value motions must leave s and HR alone
        moved = {
            "order": [spec.permuted(list(perm)) for perm in itertools.permutations(range(spec.k))],
            "position": [
                validate_branch_spec(spec.profiles, values)
                for values in _value_configs(config, spec.profiles)
            ],
        }
        for kind, specs in moved.items():
            # equal profiles reorder to the same spec; each distinct one is checked once
            specs = list(dict.fromkeys(specs))
            # lists, not generators: every moved spec is solved, so a solver
            # failure on any of them marks the record FAILED-INFRA; the spec
            # itself is among them, and its HR is the report's
            s_ok = all([s_number(m, config, solved) == record.s for m in specs])
            # a moved spec's class count that raises fails the check, not the sweep
            try:
                hr_ok = report is not None and all(
                    [m == spec or real_hurwitz(m, config, solved).value == record.hr for m in specs]
                )
            except PropertyFailure as exc:
                hr_ok = False
                record.error = str(exc)
            record.record(f"{kind}_invariance_s", s_ok)
            record.record(f"{kind}_invariance_hr", hr_ok)

        if report is not None and not parity_odd:
            aut_ok = True
            for cls in report.classes:
                if d % 2 == 1:
                    if cls.aut_order != 1 or len(cls.representatives) != 1:
                        aut_ok = False
                else:
                    single = len(cls.representatives) == 1
                    if (cls.aut_order == 2) != single:
                        aut_ok = False
                    if single:
                        rep = cls.representatives[0]
                        odd_coeffs = [
                            c
                            for j, c in zip(range(2, d + 1), rep.coefficients)
                            if (d - j) % 2 == 1
                        ]
                        if any(abs(c) > config.tol_dedup for c in odd_coeffs):
                            aut_ok = False
            record.record("aut_consistency", aut_ok)
        else:
            record.record("aut_consistency", None)
    except InfraLimit as exc:
        record.status = "FAILED-INFRA"
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_sweep(dmax: int, kmax: int, config: RunConfig | None = None) -> VerifyReport:
    """Check every admissible spec with d <= dmax and k <= kmax.

    A dmax above the solver's degree bound raises ScaleExceeded before any
    spec is listed: the listing grows as p(d)^3, and no spec above the bound
    can be solved.
    """
    if dmax < 2 or kmax < 1:
        raise ValidationError(
            f"no spec to check: need dmax >= 2 and kmax >= 1, got dmax={dmax}, kmax={kmax}"
        )
    if dmax > _MAX_SOLVER_DEGREE:
        raise ScaleExceeded(f"dmax {dmax} exceeds the solver bound {_MAX_SOLVER_DEGREE}")
    specs = enumerate_sweep_specs(dmax, kmax)
    solved = SolvedReals(config or RunConfig())
    records = [check_spec(profiles, solved) for profiles in specs]
    records.sort(key=lambda r: r.spec.canonical_key())
    return VerifyReport(records, dmax, kmax)
