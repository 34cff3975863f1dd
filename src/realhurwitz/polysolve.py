"""Complete enumeration of normalized complex polynomials with prescribed branch data.

The unknowns are the preimage roots: one complex unknown per part of each
profile, (k-1)d + 1 in total.  Writing Q_i(z) for the monic product of
(z - root)^order over branch i, the equations state that Q_i + w_i is the
same polynomial for every i (d coefficient equations per extra branch) and
that the z^{d-1} coefficient vanishes (one normalization equation), giving
a square polynomial system.  Multiplicities are built into the
parametrization, so a validated solution has exact ramification profiles as
long as the roots within one branch stay separated.

Completeness is certified against the exact factorization count: the solver
keeps drawing seeded random starts for damped Newton until the deduplicated
solution count reaches that target, harvesting the conjugation and
root-of-unity symmetry orbits of every solution found along the way.

Most random starts never reach a solution, so Newton retires a row early
by two rules.  Escape: every root of every solution has modulus at most
root_bound(spec) = 4 (1 + max|w_i|)^(1/d) (the preimage of the disk holding
all critical values is a continuum of capacity max|w_i|^(1/d), so of
diameter at most 4 max|w_i|^(1/d), and it holds 0 in its convex hull since
a_1 = 0), so a row that steps beyond three times that bound is dropped.
Stall: a row whose residual has not halved over the last 30 iterations is
dropped.  Neither rule touches the other rows; on every start measured, no
row that Newton run to the iteration cap converges was dropped (converged
paths stay within 2.2 times the bound).

A Newton iteration is a fixed handful of numpy calls.  The residual is one
gather of the roots, by the plan ``build_system`` stores, and one call of
the in-place product kernel ``_batch_products``; the Jacobian is one more
call for all n derivative polynomials.  The line search evaluates the full
step of every row in one call and every shorter length 2^-1 ... 2^-11 of
the rows it fails in one more; a row takes its first passing length, as
sequential halving would, since its residual depends on it alone.

Real solutions are re-polished by the same Newton loop, ``_newton_batch``,
in real coordinates u: pairing each non-real root with its conjugate gives
x = B u for a fixed complex basis B, and the loop runs on Re F(B u) with
Jacobian Re(J(B u) B).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import (
    AmbiguousRealness,
    DegenerateConfiguration,
    IncompleteEnumeration,
    OvercountDetected,
    ScaleExceeded,
    ValidationError,
)
from .factorizations import count_factorizations
from .partitions import BranchSpec
from .realsigns import RealPolynomial

_DEGENERACY_LIMIT = 25
# random starts drawn per Newton batch; part of what a seed reproduces
_CHUNK_SIZE = 64
# highest degree solve_all accepts: the desk-scale bound
_MAX_SOLVER_DEGREE = 6


@dataclass(frozen=True)
class SystemSpec:
    """Square polynomial system for one BranchSpec.

    ``slots`` lists the unknowns in deterministic order: branch by branch,
    parts in non-increasing order within each branch.  The other fields are
    the kernel's gather plan.
    """

    spec: BranchSpec
    slots: tuple[tuple[int, int], ...]  # (branch index, multiplicity)
    branch_ranges: tuple[tuple[int, int], ...]  # slot index range per branch
    # (k, d) each branch's slots repeated by multiplicity; (n, d - 1) per
    # slot its branch's row less one copy of it; (n,) -m_j; (n,) branch - 1
    root_index: np.ndarray = field(compare=False, repr=False)
    deriv_index: np.ndarray = field(compare=False, repr=False)
    deriv_factor: np.ndarray = field(compare=False, repr=False)
    slot_block: np.ndarray = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.slots)

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def k(self) -> int:
        return self.spec.k


def build_system(spec: BranchSpec) -> SystemSpec:
    """Lay out unknowns, equation blocks and the kernel's gather plan for the branch data."""
    if spec.is_identity:
        raise ValidationError("the degree-1 identity covering has no system to solve")
    slots = []
    ranges = []
    for i, lam in enumerate(spec.profiles):
        start = len(slots)
        for m in lam.parts:
            slots.append((i, m))
        ranges.append((start, len(slots)))
    rows = [[j for j in range(*r) for _ in range(slots[j][1])] for r in ranges]
    dropped = [list(rows[b]) for b, _ in slots]
    for j, row in enumerate(dropped):
        row.remove(j)
    sys_spec = SystemSpec(
        spec,
        tuple(slots),
        tuple(ranges),
        root_index=np.array(rows),
        deriv_index=np.array(dropped),
        deriv_factor=np.array([-m for _, m in slots], dtype=complex),
        slot_block=np.array([b - 1 for b, _ in slots]),
    )
    assert sys_spec.n == (spec.k - 1) * spec.d + 1
    return sys_spec


def _batch_products(roots: np.ndarray) -> np.ndarray:
    """Monic coefficients (..., m + 1), highest degree first, of prod_j (z - roots[..., j]).

    The factors are multiplied in their given order, in place: m numpy steps
    for any batch shape.
    """
    out = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    out[..., 0] = 1.0
    for s in range(roots.shape[-1]):
        out[..., 1 : s + 2] -= roots[..., s, None] * out[..., : s + 1]
    return out


def _assemble_residual(system: SystemSpec, qs: np.ndarray) -> np.ndarray:
    """Equation values from the branch polynomials qs (batch, k, d + 1).

    a_1 of Q_0, then Q_i - Q_0 + w_i - w_0 for every i >= 1, as one block.
    """
    out = np.empty((qs.shape[0], system.n), dtype=complex)
    out[:, 0] = qs[:, 0, 1]
    blocks = out[:, 1:].reshape(qs.shape[0], system.k - 1, system.d)
    np.subtract(qs[:, 1:, 1:], qs[:, :1, 1:], out=blocks)
    blocks[:, :, -1] += np.subtract(system.spec.values[1:], system.spec.values[0])
    return out


def residual_batch(system: SystemSpec, points: np.ndarray) -> np.ndarray:
    """Equation values for a batch of points, shape (batch, n)."""
    return _assemble_residual(system, _batch_products(points[:, system.root_index]))


def residual_and_jacobian_batch(system: SystemSpec, points: np.ndarray):
    """Equation values and exact analytic Jacobians, shapes (batch, n) and (batch, n, n).

    Column j holds d/d(root_j) of its branch's product, -m_j (z - root_j)^(m_j - 1)
    times the other factors, in block i - 1 of its branch i (branch 0: negated, in all).
    """
    batch, n, end0 = points.shape[0], system.n, system.branch_ranges[0][1]
    dq = system.deriv_factor[:, None] * _batch_products(points[:, system.deriv_index])
    jac = np.zeros((batch, n, n), dtype=complex)
    jac[:, 0, :end0] = dq[:, :end0, 0]
    blocks = jac[:, 1:].reshape(batch, system.k - 1, system.d, n)
    blocks[..., :end0] = -dq[:, None, :end0].swapaxes(2, 3)
    blocks[:, system.slot_block[end0:], :, np.arange(end0, n)] = dq[:, end0:].swapaxes(0, 1)
    return _assemble_residual(system, _batch_products(points[:, system.root_index])), jac


def residual(system: SystemSpec, x) -> np.ndarray:
    """Equation values at the point x (complex vector of length n)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (system.n,):
        raise ValidationError(f"point has shape {x.shape}, expected ({system.n},)")
    return residual_batch(system, x[None, :])[0]


def canonical_coefficients(system: SystemSpec, x) -> np.ndarray:
    """Coefficient vector (a_2, ..., a_d) of the polynomial modeled by x."""
    x = np.asarray(x, dtype=complex)
    full = _batch_products(x[system.root_index[0]])
    full[-1] += system.spec.values[0]
    return full[2:]


def rotate_point(x: np.ndarray, d: int, t: int) -> np.ndarray:
    """Preimage roots of P(zeta z) where zeta = exp(2 pi i t / d)."""
    return x * np.exp(-2j * np.pi * t / d)


def rotate_coefficients(coeffs: np.ndarray, d: int, t: int) -> np.ndarray:
    """Coefficient action matching rotate_point: a_j -> zeta^{-j} a_j."""
    j = np.arange(2, d + 1)
    return coeffs * np.exp(-2j * np.pi * t * j / d)


_MAX_HALVINGS = 12
# the line search's step lengths 1, 1/2, ..., 2^-11, tried in order
_STEP_LENGTHS = 0.5 ** np.arange(_MAX_HALVINGS)
# Newton iteration cap, and the damped step below which a row stops
_NEWTON_MAX_ITER = 200
_NEWTON_STEP_TOL = 1e-13
# a row is retired once max|x| exceeds this multiple of root_bound(spec);
# measured converged paths stay within 2.2x of the bound and end within 0.42x
_ESCAPE_FACTOR = 3.0
# every _STALL_WINDOW iterations a row must have cut its residual by _STALL_FACTOR
_STALL_WINDOW = 30
_STALL_FACTOR = 0.5


def root_bound(spec: BranchSpec) -> float:
    """A priori bound 4 (1 + max|w_i|)^(1/d) on |root| over every solution.

    With R = max|w_i|, every critical value lies among the w_i (Riemann-Hurwitz
    leaves no other), so K = P^{-1}({|w| <= R}) is a continuum; its
    logarithmic capacity is R^(1/d), hence diam K <= 4 R^(1/d).  Since
    a_1 = 0, the roots of every fibre P - w average to 0, so 0 lies in the
    convex hull of K and |z| <= diam K on K.  Every preimage root of a
    solution lies in K; the 1 + R keeps the bound positive.
    """
    return 4.0 * (1.0 + max(abs(w) for w in spec.values)) ** (1.0 / spec.d)


def _solve_linear_batch(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched linear solves; rows with a singular Jacobian are flagged instead of raised."""
    ok = np.ones(jac.shape[0], dtype=bool)
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        for i in range(jac.shape[0]):
            try:
                out[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def _newton_batch(
    system: SystemSpec, starts: np.ndarray, config: RunConfig, basis: np.ndarray | None = None
):
    """Damped Newton on a batch of starts; results depend on each row alone.

    Rows are complex points x or, given a basis B from ``_real_structure``,
    real coordinates u of x = B u with residual Re F(B u) and Jacobian
    Re(J(B u) B); the escape rule then bounds max|u|, which is at most max|x|.

    Returns (points, converged_mask).  A row fails when its Jacobian is
    singular, when step halving cannot decrease the residual, when it
    escapes (an accepted step leaves max|x| above _ESCAPE_FACTOR times
    root_bound, where no solution lies), when it stalls (its residual has
    not fallen by _STALL_FACTOR over the last _STALL_WINDOW iterations), or
    when the iteration cap is hit.  Retiring a row early changes no other
    row.
    """
    if basis is None:
        points = np.array(starts, dtype=complex)
        values, evaluate = residual_batch, residual_and_jacobian_batch
    else:
        points = np.array(starts, dtype=float)

        # x = B u as one (1, n) matmul per row, so no row depends on the others
        def values(system, u):
            return residual_batch(system, (u[:, None] @ basis.T)[:, 0]).real

        def evaluate(system, u):
            f, jac = residual_and_jacobian_batch(system, (u[:, None] @ basis.T)[:, 0])
            return f.real, (jac @ basis).real

    batch = points.shape[0]
    escape = _ESCAPE_FACTOR * root_bound(system.spec)
    status = np.zeros(batch, dtype=np.int8)  # 0 active, 1 converged, -1 failed
    fnorm = np.max(np.abs(values(system, points)), axis=1)
    bad = ~np.isfinite(fnorm)
    status[bad] = -1
    status[fnorm < 1e-14] = 1
    checkpoint = fnorm.copy()
    for it in range(1, _NEWTON_MAX_ITER + 1):
        active = np.where(status == 0)[0]
        if active.size == 0:
            break
        f, jac = evaluate(system, points[active])
        delta, solvable = _solve_linear_batch(jac, -f)
        status[active[~solvable]] = -1
        active = active[solvable]
        delta = delta[solvable]
        if active.size == 0:
            continue
        step = np.max(np.abs(delta), axis=1)
        finite = np.isfinite(step)
        status[active[~finite]] = -1
        active, delta, step = active[finite], delta[finite], step[finite]
        # line search: the full step of every row, then every shorter length
        # of the rows it fails; a row keeps its first passing length
        t = np.zeros(active.size)  # 0 until a length passes
        trial, fn = points[active], fnorm[active]
        for lengths in (_STEP_LENGTHS[:1], _STEP_LENGTHS[1:]):
            rows = np.flatnonzero(t == 0)
            if rows.size == 0:
                break
            trials = points[active[rows], None] + lengths[:, None] * delta[rows, None]
            fns = np.max(np.abs(values(system, trials.reshape(-1, points.shape[1]))), axis=1)
            fns = fns.reshape(rows.size, lengths.size)
            good = np.isfinite(fns) & (
                (fns <= (1.0 - 0.5 * lengths) * fnorm[active[rows], None]) | (fns < 1e-14)
            )
            first = np.argmax(good, axis=1)
            hit = good[np.arange(rows.size), first]
            took, first = rows[hit], first[hit]
            trial[took], fn[took], t[took] = trials[hit, first], fns[hit, first], lengths[first]
        accepted = t > 0
        status[active[~accepted]] = -1
        points[active[accepted]] = trial[accepted]
        fnorm[active[accepted]] = fn[accepted]
        active, t, step = active[accepted], t[accepted], step[accepted]
        small = (t * step < _NEWTON_STEP_TOL) | (fnorm[active] < 1e-14)
        done = active[small]
        status[done] = np.where(fnorm[done] <= config.tol_residual, 1, -1)
        live = active[~small]
        status[live[np.max(np.abs(points[live]), axis=1) > escape]] = -1
        if it % _STALL_WINDOW == 0:
            live = np.where(status == 0)[0]
            status[live[fnorm[live] > _STALL_FACTOR * checkpoint[live]]] = -1
            checkpoint[live] = fnorm[live]
    return points, status == 1


@dataclass(frozen=True)
class Solution:
    """One normalized complex polynomial with its per-branch root assignment."""

    coefficients: tuple[complex, ...]
    roots: tuple[tuple[tuple[complex, int], ...], ...]
    residual: float
    point: tuple[complex, ...]

    def as_json_dict(self) -> dict:
        return {
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "roots": [
                [[[r.real, r.imag], m] for r, m in branch] for branch in self.roots
            ],
            "residual": self.residual,
        }


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated solutions plus the completeness certificate."""

    spec: BranchSpec
    solutions: tuple[Solution, ...]
    target: int
    certificate: str  # "COMPLETE" or "INCOMPLETE"
    starts_used: int
    seed: int

    def __len__(self) -> int:
        return len(self.solutions)

    def as_json_dict(self) -> dict:
        return {
            "spec": self.spec.as_json_dict(),
            "target": self.target,
            "certificate": self.certificate,
            "found": len(self.solutions),
            "starts_used": self.starts_used,
            "seed": self.seed,
            "solutions": [s.as_json_dict() for s in self.solutions],
        }


def _well_separated(system: SystemSpec, x: np.ndarray, tol_cluster: float) -> bool:
    """True when no two preimage roots of one branch lie within tol_cluster of each other."""
    for start, end in system.branch_ranges:
        roots = x[start:end]
        for a in range(len(roots)):
            for b in range(a + 1, len(roots)):
                if abs(roots[a] - roots[b]) <= tol_cluster:
                    return False
    return True


def match_index(table: np.ndarray, vec: np.ndarray, tol: float) -> int | None:
    """First row i of table with max|vec - table[i]| <= tol (1 + max|table[i]|), or None.

    The scale is taken from the known row, not from the query; an empty row
    matches anything.
    """
    gap = np.max(np.abs(table - vec), axis=1, initial=0.0)
    scale = 1.0 + np.max(np.abs(table), axis=1, initial=0.0)
    hits = np.flatnonzero(gap <= tol * scale)
    return int(hits[0]) if hits.size else None


def _solution(system: SystemSpec, x: np.ndarray, coeffs: np.ndarray, res: float) -> Solution:
    """The Solution record of a validated point x, its roots grouped by branch."""
    roots = tuple(
        tuple((complex(r), m) for r, m in zip(x[start:end], lam.parts))
        for (start, end), lam in zip(system.branch_ranges, system.spec.profiles)
    )
    return Solution(
        coefficients=tuple(complex(c) for c in coeffs),
        roots=roots,
        residual=res,
        point=tuple(complex(v) for v in x),
    )


class _Collector:
    """The one acceptance path: validates, deduplicates and symmetry-expands points."""

    def __init__(self, system: SystemSpec, target: int, config: RunConfig):
        self.system = system
        self.target = target
        self.config = config
        self.points: list[np.ndarray] = []
        self.coeffs = np.empty((0, system.d - 1), dtype=complex)  # one row per point
        self.residuals: list[float] = []
        self.collapse_counts: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.points)

    @property
    def complete(self) -> bool:
        return len(self.points) >= self.target

    def accept(self, cand: np.ndarray) -> np.ndarray | None:
        """Keep cand as a new solution and return its coefficients, else None.

        Every solution, solved or reloaded, passes here: residual within
        tol_residual, each branch's roots more than tol_cluster apart (repeated
        collapses raise DegenerateConfiguration), coefficients new up to
        tol_dedup.  A new solution beyond the target raises OvercountDetected.
        """
        res = float(np.max(np.abs(residual(self.system, cand))))
        if not (res <= self.config.tol_residual):
            return None
        if not _well_separated(self.system, cand, self.config.tol_cluster):
            key = tuple(np.round(canonical_coefficients(self.system, cand), 6).tolist())
            self.collapse_counts[key] = self.collapse_counts.get(key, 0) + 1
            if self.collapse_counts[key] >= _DEGENERACY_LIMIT:
                raise DegenerateConfiguration(
                    "converged points persistently collapse preimage roots; "
                    "the branch values look non-generic for these profiles"
                )
            return None
        coeffs = canonical_coefficients(self.system, cand)
        if match_index(self.coeffs, coeffs, self.config.tol_dedup) is not None:
            return None
        self.points.append(cand)
        self.coeffs = np.vstack((self.coeffs, coeffs))
        self.residuals.append(res)
        if len(self.points) > self.target:
            raise OvercountDetected(len(self.points), self.target)
        return coeffs

    def offer(self, x: np.ndarray):
        """Accept a converged point; if it is new, harvest its symmetry orbit once.

        The orbit of x under z -> zeta z and conjugation (dihedral, order 2d)
        is {rot_t(x), conj(rot_t(x))}: its 2d - 1 mates are polished in one
        batch and accepted in order, and a mate whose polish fails is left to
        the multistart.  Mates are accepted after the target too, so a new
        solution beyond it surfaces as OvercountDetected, never dropped.
        """
        if self.accept(x) is None:
            return
        d = self.system.d
        mates = [
            np.conj(mate) if conj else mate
            for mate in (rotate_point(x, d, t) for t in range(d))
            for conj in (False, True)
        ][1:]
        polished, ok = _newton_batch(self.system, np.array(mates), self.config)
        for mate in polished[ok]:
            self.accept(mate)

    def build_set(self, starts_used: int, certificate: str) -> SolutionSet:
        order = sorted(
            range(len(self.points)),
            key=lambda i: tuple((c.real, c.imag) for c in self.coeffs[i]),
        )
        sols = [
            _solution(self.system, self.points[i], self.coeffs[i], self.residuals[i])
            for i in order
        ]
        return SolutionSet(
            spec=self.system.spec,
            solutions=tuple(sols),
            target=self.target,
            certificate=certificate,
            starts_used=starts_used,
            seed=self.config.seed,
        )


def spec_hash(spec: BranchSpec) -> str:
    payload = json.dumps(spec.as_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def save_cache(path: str, solset: SolutionSet, config: RunConfig):
    """Write one header line plus one line per solution (line-delimited JSON).

    Raises ValidationError when the path cannot be written.
    """
    digest = spec_hash(solset.spec)
    header = {
        "kind": "header",
        "spec": solset.spec.as_json_dict(),
        "spec_hash": digest,
        "target": solset.target,
        "tol_residual": config.tol_residual,
        "tol_dedup": config.tol_dedup,
        "tol_cluster": config.tol_cluster,
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sol in solset.solutions:
                record = {
                    "kind": "solution",
                    "spec_hash": digest,
                    "point": [[v.real, v.imag] for v in sol.point],
                    "coefficients": [[c.real, c.imag] for c in sol.coefficients],
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write cache file {path}: {exc}") from exc


def load_cache(path: str, spec: BranchSpec, target: int, config: RunConfig) -> SolutionSet | None:
    """Reload a complete cached solution set if it matches spec, target and tolerances.

    Nothing stored is trusted: each point must have the system's shape and
    pass ``_Collector.accept``, the acceptance check every solved point
    passes (residual, root separation, dedup), and its stored coefficients
    must be its canonical coefficients within tol_dedup.  A file that fails
    any check, or cannot be parsed, is a miss.  A path that names a
    directory or lies in a missing directory raises ValidationError, before
    any solve is spent.
    """
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"cache path {path} is a directory or lies in a missing directory")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read cache file {path}: {exc}") from exc
    tolerances = ("tol_residual", "tol_dedup", "tol_cluster")
    try:
        header, *rest = [json.loads(line) for line in text.splitlines() if line.strip()]
        records = [r for r in rest if r["kind"] == "solution"]
        if not (
            header["kind"] == "header"
            and header["spec_hash"] == spec_hash(spec)
            and header["target"] == target == len(records)
            and all(header[key] == getattr(config, key) for key in tolerances)
        ):
            return None
        points = [np.array([complex(re, im) for re, im in r["point"]]) for r in records]
        stored = [np.array([complex(re, im) for re, im in r["coefficients"]]) for r in records]
    except (KeyError, TypeError, ValueError):
        return None
    system = build_system(spec)
    collector = _Collector(system, target, config)
    for x, kept in zip(points, stored):
        if x.shape != (system.n,) or kept.shape != (system.d - 1,):
            return None
        coeffs = collector.accept(x)
        if coeffs is None or match_index(coeffs[None, :], kept, config.tol_dedup) != 0:
            return None
    return collector.build_set(0, "COMPLETE")


def solve_all(
    spec: BranchSpec,
    config: RunConfig | None = None,
    *,
    target: int | None = None,
    cache_path: str | None = None,
) -> SolutionSet:
    """Find every normalized complex polynomial for the spec, with a certificate.

    Starts are drawn from a seeded complex Gaussian with scale
    (1 + max|w_i|)^(1/d), a quarter of root_bound; converged points are
    validated for residual and root separation, canonicalized to coefficient
    vectors and deduplicated.
    The run stops as soon as the count matches the factorization target.

    Raises IncompleteEnumeration (carrying the partial set) when the start
    budget runs out first and OvercountDetected if dedup ever exceeds the
    target.
    """
    config = config or RunConfig()
    if spec.is_identity:
        sol = Solution(coefficients=(), roots=(), residual=0.0, point=())
        return SolutionSet(spec, (sol,), 1, "COMPLETE", 0, config.seed)
    if spec.d > _MAX_SOLVER_DEGREE:
        raise ScaleExceeded(f"degree {spec.d} exceeds the solver bound {_MAX_SOLVER_DEGREE}")
    if target is None:
        target = count_factorizations(spec.profiles).N
    cache_path = cache_path or config.cache
    if cache_path:
        cached = load_cache(cache_path, spec, target, config)
        if cached is not None:
            return cached
    system = build_system(spec)
    collector = _Collector(system, target, config)
    if target == 0:
        return collector.build_set(0, "COMPLETE")
    rng = np.random.default_rng(config.seed)
    scale = root_bound(spec) / 4.0
    starts_used = 0
    while starts_used < config.start_budget and not collector.complete:
        m = min(_CHUNK_SIZE, config.start_budget - starts_used)
        starts = rng.standard_normal((m, system.n)) + 1j * rng.standard_normal(
            (m, system.n)
        )
        starts *= scale / math.sqrt(2.0)
        starts_used += m
        # the whole chunk is processed even after the target is reached, so
        # an extra distinct solution cannot slip away unnoticed
        points, ok = _newton_batch(system, starts, config)
        for point in points[ok]:
            collector.offer(point)
    if not collector.complete:
        partial = collector.build_set(starts_used, "INCOMPLETE")
        raise IncompleteEnumeration(len(collector), target, partial)
    solset = collector.build_set(starts_used, "COMPLETE")
    if cache_path:
        save_cache(cache_path, solset, config)
    return solset


# --- real classification ----------------------------------------------------


def _real_structure(system: SystemSpec, point: np.ndarray, config: RunConfig):
    """Real coordinates u of a nearly-real point, x = B u: the basis B, a real-root mask and u0.

    A root within tol_cluster/2 of the real axis is real and takes one
    coordinate (column entry 1).  Any other root is paired with the nearest
    later root of the same branch and multiplicity near its conjugate; the
    pair a +- ib takes the two coordinates (a, b), columns (1, 1) and (i, -i).
    u0 holds the real part of each real root and of the first root of each
    pair, and that root's imaginary part.
    """
    n = system.n
    basis = np.zeros((n, n), dtype=complex)
    real_mask = np.zeros(n, dtype=bool)
    u0 = np.zeros(n)
    col = 0
    for start, end in system.branch_ranges:
        for j in range(start, end):
            if basis[j].any():
                continue
            basis[j, col] = 1.0
            u0[col] = point[j].real
            if abs(point[j].imag) < config.tol_cluster / 2.0:
                real_mask[j] = True
                col += 1
                continue
            mates = [
                m
                for m in range(j + 1, end)
                if not basis[m].any() and system.slots[m][1] == system.slots[j][1]
            ]
            dists = [abs(point[m] - np.conj(point[j])) for m in mates]
            if not mates or min(dists) > config.tol_cluster:
                raise AmbiguousRealness(
                    "a non-real preimage root has no conjugate partner within "
                    "tolerance; rerun with tighter tolerances"
                )
            mate = mates[int(np.argmin(dists))]
            basis[mate, col] = 1.0
            basis[j, col + 1], basis[mate, col + 1] = 1j, -1j
            u0[col + 1] = point[j].imag
            col += 2
    return basis, real_mask, u0


def _build_real_polynomial(
    system: SystemSpec, x: np.ndarray, real_mask: np.ndarray, config: RunConfig
) -> RealPolynomial:
    """The real polynomial at the polished point x = B u, with its preimage data."""
    spec = system.spec
    if not _well_separated(system, x, config.tol_cluster):
        raise DegenerateConfiguration(
            "real polish collapsed two preimage roots of one branch value"
        )
    preimages = []
    nonreal = []
    for start, end in system.branch_ranges:
        roots = [(x[j].real, system.slots[j][1], real_mask[j]) for j in range(start, end)]
        preimages.append(tuple(sorted((float(r), m) for r, m, real in roots if real)))
        nonreal.append(tuple(sorted((m for _, m, real in roots if not real), reverse=True)))
    f = residual_batch(system, x[None, :])[0].real
    if abs(f[0]) > config.tol_residual:
        raise AmbiguousRealness("normalization coefficient did not vanish after real polish")
    return RealPolynomial(
        d=spec.d,
        coefficients=tuple(float(c) for c in canonical_coefficients(system, x).real),
        profiles=spec.profiles,
        values=spec.values,
        real_preimages=tuple(preimages),
        nonreal_orders=tuple(nonreal),
        residual=float(np.max(np.abs(f))),
    )


def classify_real(solset: SolutionSet, config: RunConfig | None = None) -> list[RealPolynomial]:
    """Extract the real polynomials from a complete complex solution set.

    A solution counts as real when every coefficient has imaginary part
    below the realness tolerance; it is then re-polished by ``_newton_batch``
    in real coordinates u (one per real root, the real and imaginary part
    per conjugate pair) of x = B u.
    Solutions within a factor 10 of the threshold raise AmbiguousRealness
    instead of being classified either way, as do a non-real root without
    a conjugate partner, a failed polish and an a_1 that does not vanish;
    roots that collapse under the polish raise DegenerateConfiguration.
    """
    config = config or RunConfig()
    if solset.certificate != "COMPLETE":
        raise ValidationError("real classification requires a COMPLETE certificate")
    if solset.spec.is_identity:
        return [
            RealPolynomial(
                d=1,
                coefficients=(),
                profiles=(),
                values=(),
                real_preimages=(),
                nonreal_orders=(),
            )
        ]
    system = build_system(solset.spec)
    reals = []
    for sol in solset.solutions:
        coeffs = np.array(sol.coefficients, dtype=complex)
        imag = float(np.max(np.abs(coeffs.imag))) if coeffs.size else 0.0
        if imag >= config.tol_real:
            if imag <= 10.0 * config.tol_real:
                raise AmbiguousRealness(
                    f"solution with max imaginary part {imag:.3e} sits within 10x of "
                    f"the realness tolerance {config.tol_real:.1e}"
                )
            continue
        point = np.array(sol.point, dtype=complex)
        basis, real_mask, u0 = _real_structure(system, point, config)
        u, ok = _newton_batch(system, u0[None, :], config, basis)
        if not ok[0]:
            raise AmbiguousRealness("real-restricted polish failed to converge")
        reals.append(_build_real_polynomial(system, basis @ u[0], real_mask, config))
    reals.sort(key=lambda p: p.coefficients)
    return reals
