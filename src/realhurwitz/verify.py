"""Sweep driver: check every property on every admissible spec up to a bound.

For each multiset of nontrivial profiles with d <= dmax and k <= kmax the
sweep certifies solver completeness, the closure symmetries of the complex
solution set, the sign and parity laws of the real solutions, the equality
of the signed class count with the signed polynomial count, and the
invariance of both under profile reordering and branch value motion.

Solver failures (budget exhaustion, ambiguous tolerances) mark a record
FAILED-INFRA, which is kept distinct from a genuine property violation.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import RunConfig
from .coverings import _assemble_classes
from .errors import (
    AmbiguousRealness,
    CoveringAssemblyError,
    DegenerateConfiguration,
    IncompleteEnumeration,
    OvercountDetected,
    ScaleExceeded,
    SignMismatch,
)
from .factorizations import count_factorizations
from .partitions import (
    BranchSpec,
    Partition,
    floor_sum_parity,
    o_count,
    partitions_of,
    validate_branch_spec,
)
from .polysolve import classify_real, match_index, rotate_coefficients, solve_all
from .realsigns import disorders_by_branch, ordered_pairs_by_branch

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

_INFRA_ERRORS = (
    IncompleteEnumeration,
    AmbiguousRealness,
    OvercountDetected,
    DegenerateConfiguration,
    ScaleExceeded,
)


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


class Workspace:
    """Memoizes solve and classification results across a sweep."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._solsets: dict[BranchSpec, object] = {}
        self._reals: dict[BranchSpec, list] = {}

    def solset(self, spec: BranchSpec):
        if spec not in self._solsets:
            self._solsets[spec] = solve_all(spec, self.config)
        return self._solsets[spec]

    def reals(self, spec: BranchSpec):
        if spec not in self._reals:
            self._reals[spec] = classify_real(self.solset(spec), self.config)
        return self._reals[spec]

    def signed_count(self, spec: BranchSpec) -> int:
        reals = self.reals(spec)
        total = sum(p.sign for p in reals)
        if self.config.debug_corrupt_signs and reals:
            total -= 2 * reals[0].sign
        return total

    def hurwitz_value(self, spec: BranchSpec) -> Fraction:
        """Signed class count through explicit class assembly."""
        if spec.d % 2 == 0 and floor_sum_parity(spec.profiles) == 1:
            return Fraction(0)
        reals_neg = self.reals(spec.reversed_spec()) if spec.d % 2 == 0 else None
        classes = _assemble_classes(spec, self.reals(spec), reals_neg, self.config)
        return sum((c.weight for c in classes), Fraction(0))


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

    @property
    def any_infra(self) -> bool:
        return any(r.status == "FAILED-INFRA" for r in self.records)

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


def _closure_checks(record: SpecRecord, solset, config: RunConfig):
    spec = record.spec
    d = spec.d
    coeffs = np.array(
        [s.coefficients for s in solset.solutions], dtype=complex
    ).reshape(len(solset.solutions), d - 1)

    def find(vec: np.ndarray) -> int | None:
        return match_index(coeffs, vec, config.tol_dedup)

    record.record("residuals_ok", all(s.residual < config.tol_residual for s in solset.solutions))

    conj_ok = True
    n_real = 0
    for idx, vec in enumerate(coeffs):
        mate = find(np.conj(vec))
        if mate is None:
            conj_ok = False
            break
        if mate == idx:
            n_real += 1
    record.record("conjugation_closure", conj_ok)
    record.record("real_count_parity", conj_ok and n_real % 2 == record.N % 2)

    rot_ok = True
    orbit_sizes_ok = True
    for vec in coeffs:
        orbit = set()
        for t in range(d):
            mate = find(rotate_coefficients(vec, d, t))
            if mate is None:
                rot_ok = False
                break
            orbit.add(mate)
        if not rot_ok:
            break
        if d % len(orbit) != 0:
            orbit_sizes_ok = False
    record.record("rotation_closure", rot_ok)
    record.record("rotation_orbits_divide_d", rot_ok and orbit_sizes_ok)


def _parity_law_checks(record: SpecRecord, ws: Workspace):
    """Even-degree sign laws for the real solutions on both leading-coefficient sides."""
    spec = record.spec
    d = spec.d
    parity = floor_sum_parity(spec.profiles)
    sides = [spec]
    if d % 2 == 0:
        sides.append(spec.reversed_spec())

    per_branch_ok = True
    reflection_ok = True
    orbit_sign_ok = True
    for side_spec in sides:
        reals = ws.reals(side_spec)
        floors = [o_count(lam) // 2 for lam in side_spec.profiles]
        for poly in reals:
            t_b = disorders_by_branch(poly)
            o_b = ordered_pairs_by_branch(poly)
            for ti, oi, fl in zip(t_b, o_b, floors):
                if (ti + oi) % 2 != fl % 2:
                    per_branch_ok = False
            mirrored = poly.reflected()
            if mirrored.t != poly.ord_count:
                reflection_ok = False
            partner = None
            for cand in reals:
                diff = [abs(a - b) for a, b in zip(cand.coefficients, mirrored.coefficients)]
                scale = 1.0 + max((abs(c) for c in cand.coefficients), default=0.0)
                if not diff or max(diff) <= ws.config.tol_dedup * scale:
                    partner = cand
                    break
            if partner is None:
                reflection_ok = False
                continue
            if partner.t != poly.ord_count:
                reflection_ok = False
            expected = poly.sign if parity == 0 else -poly.sign
            if partner is not poly and partner.sign != expected:
                orbit_sign_ok = False
    record.record("per_branch_parity", per_branch_ok)
    record.record("reflection_identity", reflection_ok)
    record.record("orbit_sign_law", orbit_sign_ok)


def _odd_degree_parity_diagnostic(record: SpecRecord, ws: Workspace):
    """The even-degree per-branch parity law, measured (not gated) for odd degree."""
    spec = record.spec
    floors = [o_count(lam) // 2 for lam in spec.profiles]
    holds = 0
    total = 0
    for poly in ws.reals(spec):
        t_b = disorders_by_branch(poly)
        o_b = ordered_pairs_by_branch(poly)
        for ti, oi, fl in zip(t_b, o_b, floors):
            total += 1
            if (ti + oi) % 2 == fl % 2:
                holds += 1
    record.diagnostics["odd_d_per_branch_parity"] = {"holds": holds, "of": total}


def check_spec(profiles: tuple[Partition, ...], config: RunConfig, ws: Workspace | None = None) -> SpecRecord:
    """Run every applicable check for one profile multiset."""
    ws = ws or Workspace(config)
    spec = validate_branch_spec(profiles)
    d = spec.d
    parity = floor_sum_parity(spec.profiles)
    parity_odd = d % 2 == 0 and parity == 1
    count = count_factorizations(spec.profiles)
    record = SpecRecord(spec=spec, N=count.N, H=count.H)
    try:
        solset = ws.solset(spec)
        record.record("certificate_complete", solset.certificate == "COMPLETE" and len(solset) == count.N)
        _closure_checks(record, solset, config)

        record.s = ws.signed_count(spec)
        try:
            record.hr = ws.hurwitz_value(spec)
            hr_assembled = True
        except (SignMismatch, CoveringAssemblyError) as exc:
            record.hr = None
            record.error = str(exc)
            hr_assembled = False
        record.record("class_assembly", hr_assembled)
        if hr_assembled:
            record.record("theorem_hr_eq_s", record.hr == record.s)
            record.record("hr_integral", record.hr.denominator == 1)
        else:
            record.record("theorem_hr_eq_s", False)
            record.record("hr_integral", False)

        if d % 2 == 0:
            record.s_reversed = ws.signed_count(spec.reversed_spec())
            if hr_assembled:
                record.record("half_sum", record.hr == Fraction(record.s + record.s_reversed, 2))
            _parity_law_checks(record, ws)
            if parity_odd:
                record.record("parity_vanishing", record.s == 0 and record.hr == 0)
            else:
                record.record("parity_vanishing", None)
        else:
            record.record("half_sum", None)
            record.record("parity_vanishing", None)
            _odd_degree_parity_diagnostic(record, ws)

        perms = sorted(set(itertools.permutations(range(spec.k))))
        order_s_ok = True
        order_hr_ok = True
        for perm in perms:
            pspec = spec.permuted(list(perm))
            if ws.signed_count(pspec) != record.s:
                order_s_ok = False
            if hr_assembled and ws.hurwitz_value(pspec) != record.hr:
                order_hr_ok = False
        record.record("order_invariance_s", order_s_ok)
        record.record("order_invariance_hr", order_hr_ok if hr_assembled else False)

        position_s_ok = True
        position_hr_ok = True
        for values in _value_configs(config, spec.profiles):
            vspec = validate_branch_spec(spec.profiles, values)
            if ws.signed_count(vspec) != record.s:
                position_s_ok = False
            if hr_assembled and ws.hurwitz_value(vspec) != record.hr:
                position_hr_ok = False
        record.record("position_invariance_s", position_s_ok)
        record.record("position_invariance_hr", position_hr_ok if hr_assembled else False)

        if hr_assembled and not parity_odd:
            reals_neg = ws.reals(spec.reversed_spec()) if d % 2 == 0 else None
            classes = _assemble_classes(spec, ws.reals(spec), reals_neg, config)
            aut_ok = True
            for cls in classes:
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
    except _INFRA_ERRORS as exc:
        record.status = "FAILED-INFRA"
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_sweep(dmax: int, kmax: int, config: RunConfig | None = None) -> VerifyReport:
    """Check every admissible spec with d <= dmax and k <= kmax."""
    config = config or RunConfig()
    ws = Workspace(config)
    records = [
        check_spec(profiles, config, ws) for profiles in enumerate_sweep_specs(dmax, kmax)
    ]
    records.sort(key=lambda r: r.spec.canonical_key())
    return VerifyReport(records, dmax, kmax)
