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
root-of-unity symmetry orbits of every solution found along the way.  When
the spec's (profile, value) pairs are their own reversal under
w -> w_0 + w_last - w at rounding level, as for every two-branch spec with
equal profiles and every palindromic profile list at evenly spaced values,
the reversal P -> w_0 + w_last - P(z / c), c^d = -1, which
``_affine_map(spec, spec, reverse=True)`` finds, is one more symmetry.  It
is harvested too for three or more branches, decided once a multistart
hands over its first new solution; for two branches it keeps every
solution within its dihedral orbit and adds nothing.
``_Collector.offer_all`` takes each Newton hand-over of converged rows as one
table and the orbit mates of its new solutions, exact and so unpolished, as
another.  The first time the count reaches the target, a Krawczyk test
(``_krawczyk_certified``, two product calls) tries to prove that the accepted
points lie near that many distinct true solutions with the exact profiles; if
it does, no other solution exists and the rest of the chunk is skipped.  If it
does not, it is not tried again and the chunk runs to its end, so a duplicate
that dedup missed still raises OvercountDetected.

Most chunks end at their first converged row, so a chunk's rows are not
advanced in lockstep.  Each row counts its own iterations, read by the
stall window and the cap, so it takes the same iterates and ends the same
way in any order of advance.  After three iterations of every row, only
the eight rows of smallest residual advance, for up to ten more (or until
one converges without a proof), and then every row still active does.  The
rows of a chunk therefore end exactly as in one batch, and the chunk
completes exactly when it would; rows reach the acceptance in the order
they end, lead rows first.

Acceptance (``_Collector.accept``) takes a table of candidate rows and
their residual norms, the way ``match_index`` takes a table of queries: a
Newton hand-over is one table, the 2d - 1 orbit mates of its new solutions
(4d - 1 with the reversal) another, and the carried points of a known set,
exact images, a third.  The residual filter, the root separation check, the
coefficients and the match against the accepted set are one call each for
the table; the rows are then decided in order, each against the accepted
set and the rows of the table kept before it (compared _CHUNK_SIZE rows at
a time), so a table keeps exactly the rows, and raises at the same row,
that its rows accepted one by one would.  Coefficients are compared in the
affine normal form (``normal_coefficients``), where the branch values run
from 0 to 1, so moving or scaling every value changes no dedup,
conjugation, z -> -z or rotation match.

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
gather of the roots, by the system's gather plan, and one call of the
in-place product kernel ``_batch_products``, with the batch as the
trailing, contiguous axis.  The plan depends only on the ordered profiles,
so it is built once per profile tuple in a process and shared read-only by
every system with those profiles; ``build_system`` adds only the spec's
value gaps.  The Jacobian's one product call, for all n derivative
polynomials, also yields the residual: the derivative product of a
branch's last slot is the first d - 1 factors of that branch's product, so
one more factor completes it.  The line search evaluates all 12 lengths
1, 2^-1, ..., 2^-11 of every row in one call; a row takes its first passing
length, as sequential halving would, since its residual depends on it alone.
Between those three calls an iteration makes a few index updates, those
for failed or ended rows only when there are such rows.

A solved set (``SolutionSet``) is three read-only arrays with one row per
solution, sorted by ``grid_key`` of the coefficients: ``coefficients``
(N, d - 1), ``solutions`` (N, n), the preimage roots in ``build_system``
slot order, and ``residuals`` (N,).  Carrying, real classification and
verify's closure checks index these arrays; only the JSON form splits a row
into per-branch (root, multiplicity) lists.

Real solutions are read off the conjugation pairing and projected, not
re-solved.  A solution is real when ``conjugation_partners`` pairs it with
itself; under the count = N certificate a non-real P cannot (dedup would
have merged P and conj(P)), and a real P must (else conj(P) is an extra
solution).  ``_real_polynomials`` takes a set's real rows as one table: it
pairs every row's roots by the same rule in one masked argmin, projects
each row onto its exactly conjugation-fixed point (a self-paired root keeps
its real part and a pair becomes r, conj(r)), and reads F and the
coefficients off one product call.  A row fails on an unpaired root, on
roots that collapse under the projection, or on a residual above
``residual_bound``, and the first failing row raises.

A spec whose profile multiset was solved before is carried over, not
solved, by one loop, ``_carried_points``.  If its branch data is an affine
image of the solved one's, within F's rounding floor, it is mapped
(``_affine_map``): if the (profile, value) pairs of B are those of A under
w -> a w + b (a != 0), then P -> a P(z / c) + b with c^d = a maps A's
normalized solutions one to one onto B's, each preimage root r going to
c r in the block of its branch.  Since values increase in both specs,
a > 0 keeps the branch order and a < 0 reverses it, so only those two
orders are tried; the reversed spec, every k <= 2 reordering and layout,
and equally spaced k = 3 layouts are such images.
Any other layout or order is tracked (``_track``): the branch values move
from the solved spec's to the new one's along a path on which they stay
distinct, so by Riemann existence each of the N solutions moves along a
path of its own, and a predictor-corrector follows all of them in one
batch.  The map is the loop's exact case, kept because it costs a fraction
of a tracked carry.  A one-branch spec's one solution, the point 0 of
P = z^d + w, comes from the same loop.  ``solve_all(spec, known=...)``
accepts the carried points as exact images, unpolished, like the orbit
mates; a point off the solution set fails the residual filter, and the
multistart fills whatever they miss, so the certificate still counts N
accepted solutions.  The CLI's ``--cache`` file is a ``solve`` result read
back as such a known set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable

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
from .partitions import BranchSpec, Partition
from .realsigns import RealPolynomial

_DEGENERACY_LIMIT = 25
# random starts drawn per Newton batch, part of what a seed reproduces; also
# the rows per block of accept's dedup comparison and of _krawczyk_certified
_CHUNK_SIZE = 64
# highest degree solve_all accepts: the desk-scale bound
_MAX_SOLVER_DEGREE = 6


@dataclass(frozen=True)
class SystemSpec:
    """Square polynomial system for one BranchSpec.

    ``slots`` lists the unknowns in deterministic order: branch by branch,
    parts in non-increasing order within each branch.  Every field but
    ``spec`` and ``value_gaps`` belongs to the kernel's gather plan, which
    depends only on the ordered profiles: ``_system_plan`` builds it once
    per profile tuple, and every system with those profiles shares it
    read-only.
    """

    spec: BranchSpec
    value_gaps: np.ndarray = field(compare=False, repr=False)  # (k - 1,) w_i - w_0 for i >= 1
    slots: tuple[tuple[int, int], ...]  # (branch index, multiplicity)
    branch_ranges: tuple[tuple[int, int], ...]  # slot index range per branch
    # (d, k) column b lists branch b's slots repeated by multiplicity;
    # (d - 1, n) column j is its branch's column less one copy of slot j, so
    # a branch's last slot keeps the first d - 1 factors; (n,) -m_j;
    # (k,) each branch's last slot; the slots past branch 0 and, for each,
    # its branch - 1, the Jacobian block its column fills; two (pairs,)
    # index arrays, every a < b of one branch; (2, n) each slot's sort keys
    # -m_j and branch; (n, n) True where two slots differ in branch or
    # multiplicity
    root_index: np.ndarray = field(compare=False, repr=False)
    deriv_index: np.ndarray = field(compare=False, repr=False)
    deriv_factor: np.ndarray = field(compare=False, repr=False)
    last_slots: np.ndarray = field(compare=False, repr=False)
    free_columns: np.ndarray = field(compare=False, repr=False)
    slot_block: np.ndarray = field(compare=False, repr=False)
    same_branch: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)
    slot_keys: np.ndarray = field(compare=False, repr=False)
    slot_mismatch: np.ndarray = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.slots)

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def k(self) -> int:
        return self.spec.k


@functools.lru_cache(maxsize=256)
def _system_plan(profiles: tuple[Partition, ...]) -> MappingProxyType:
    """The ``SystemSpec`` fields that depend only on the ordered profiles, every array read-only."""
    slots = []
    ranges = []
    for i, lam in enumerate(profiles):
        start = len(slots)
        for m in lam.parts:
            slots.append((i, m))
        ranges.append((start, len(slots)))
    rows = [[j for j in range(*r) for _ in range(slots[j][1])] for r in ranges]
    dropped = [list(rows[b]) for b, _ in slots]
    for j, row in enumerate(dropped):
        row.remove(j)
    branch, mult = np.array(slots).T
    end0 = ranges[0][1]
    same_branch = np.nonzero(np.triu(branch[:, None] == branch, 1))
    arrays = dict(
        root_index=np.array(rows).T,
        deriv_index=np.array(dropped).T,
        deriv_factor=(-mult).astype(complex),
        last_slots=np.array([end - 1 for _, end in ranges]),
        free_columns=np.arange(end0, len(slots)),
        slot_block=branch[end0:] - 1,
        slot_keys=np.stack((-mult, branch)),
        slot_mismatch=(branch[:, None] != branch) | (mult[:, None] != mult),
    )
    for array in (*arrays.values(), *same_branch):
        array.setflags(write=False)
    plan = dict(arrays, same_branch=same_branch, slots=tuple(slots), branch_ranges=tuple(ranges))
    return MappingProxyType(plan)


def build_system(spec: BranchSpec) -> SystemSpec:
    """The system of the branch data: its own value gaps and the plan of its ordered profiles.

    The plan is built on the first call for a profile tuple and shared,
    read-only, by every later system with those profiles in that order.
    """
    if spec.is_identity:
        raise ValidationError("the degree-1 identity covering has no system to solve")
    gaps = np.subtract(spec.values[1:], spec.values[0])
    sys_spec = SystemSpec(spec, gaps, **_system_plan(spec.profiles))
    assert sys_spec.n == (spec.k - 1) * spec.d + 1
    return sys_spec


def _batch_products(roots: np.ndarray) -> np.ndarray:
    """Monic coefficients (m + 1, ...), highest degree first, of prod_j (z - roots[j, ...]).

    The factor axis leads and the batch axes trail, so every step works on
    contiguous rows.  The factors are multiplied in their given order, in
    place: m pairs of numpy calls for any batch shape.
    """
    out = np.zeros((roots.shape[0] + 1,) + roots.shape[1:], dtype=complex)
    tmp = np.empty_like(roots)
    out[0] = 1.0
    for s in range(roots.shape[0]):
        np.multiply(roots[s], out[: s + 1], out=tmp[: s + 1])
        out[1 : s + 2] -= tmp[: s + 1]
    return out


def _assemble_residual(system: SystemSpec, qs: np.ndarray) -> np.ndarray:
    """Equation values (batch, n) from the branch polynomials qs (d + 1, k, batch).

    a_1 of Q_0, then Q_i - Q_0 + w_i - w_0 for every i >= 1, as one block,
    written batch-last and returned as its transposed view.
    """
    out = np.empty((system.n, qs.shape[2]), dtype=complex)
    out[0] = qs[1, 0]
    blocks = out[1:].reshape(system.k - 1, system.d, qs.shape[2])
    np.subtract(qs[1:, 1:].swapaxes(0, 1), qs[1:, :1].swapaxes(0, 1), out=blocks)
    blocks[:, -1] += system.value_gaps[:, None]
    return out.T


def residual_batch(system: SystemSpec, points: np.ndarray) -> np.ndarray:
    """Equation values for a batch of points, shape (batch, n)."""
    return _assemble_residual(system, _batch_products(points.T[system.root_index]))


def _products(system: SystemSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch products qs (d + 1, k, batch) and derivative polynomials dq (batch, n, d).

    dq[:, j] is d/d(root_j) of its branch's product, -m_j (z - root_j)^(m_j - 1)
    times the other factors.  Each branch's product is its last slot's
    derivative product times one more factor, the same steps
    ``residual_batch`` takes.
    """
    roots = points.T
    prods = _batch_products(roots[system.deriv_index])  # (d, n, batch)
    last = system.last_slots
    qs = np.zeros((system.d + 1, system.k, points.shape[0]), dtype=complex)
    qs[:-1] = prods[:, last]
    qs[1:] -= roots[last] * qs[:-1]
    return qs, system.deriv_factor[:, None] * prods.transpose(2, 1, 0)


def _assemble_jacobian(system: SystemSpec, dq: np.ndarray) -> np.ndarray:
    """Jacobians (batch, n, n): column j holds dq[:, j] in block i - 1 of its branch i.

    A branch-0 column holds it negated in every block, and its leading
    coefficient -m_j in row 0, the normalization equation.
    """
    batch, n, end0 = dq.shape[0], system.n, system.branch_ranges[0][1]
    jac = np.zeros((batch, n, n), dtype=dq.dtype)
    jac[:, 0, :end0] = dq[:, :end0, 0]
    blocks = jac[:, 1:].reshape(batch, system.k - 1, system.d, n)
    blocks[..., :end0] = -dq[:, None, :end0].swapaxes(2, 3)
    blocks[:, system.slot_block, :, system.free_columns] = dq[:, end0:].swapaxes(0, 1)
    return jac


def residual_and_jacobian_batch(system: SystemSpec, points: np.ndarray):
    """Equation values and exact analytic Jacobians, shapes (batch, n) and (batch, n, n)."""
    qs, dq = _products(system, points)
    return _assemble_residual(system, qs), _assemble_jacobian(system, dq)


def residual(system: SystemSpec, x) -> np.ndarray:
    """Equation values at the point x (complex vector of length n)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (system.n,):
        raise ValidationError(f"point has shape {x.shape}, expected ({system.n},)")
    return residual_batch(system, x[None, :])[0]


def canonical_coefficients(system: SystemSpec, x) -> np.ndarray:
    """Coefficients (a_2, ..., a_d) of the polynomial modeled by x, or by each row of a batch."""
    full = _batch_products(np.asarray(x, dtype=complex).T[system.root_index[:, 0]])
    full[-1] += system.spec.values[0]
    return full[2:].T


def rotate_coefficients(coeffs: np.ndarray, d: int, t: int) -> np.ndarray:
    """Coefficients of P(zeta z), zeta = exp(2 pi i t / d): a_j -> zeta^{-j} a_j.

    Its roots are P's times zeta^-1, the rotation ``_Collector.offer_all`` applies."""
    j = np.arange(2, d + 1)
    return coeffs * np.exp(-2j * np.pi * t * j / d)


# the line search's step lengths 1, 1/2, ..., 2^-11, tried in order
_STEP_LENGTHS = 0.5 ** np.arange(12)
# a length t passes when it scales max|F| by at most 1 - t/2; one row per t
_ARMIJO = (1.0 - 0.5 * _STEP_LENGTHS)[:, None]
# Newton iteration cap, and the damped step below which a row stops
_NEWTON_MAX_ITER = 200
_NEWTON_STEP_TOL = 1e-13
# a row is retired once max|x| exceeds this multiple of root_bound(spec);
# measured converged paths stay within 2.2x of the bound and end within 0.42x
_ESCAPE_FACTOR = 3.0
# every _STALL_WINDOW iterations a row must have cut its residual by _STALL_FACTOR
_STALL_WINDOW = 30
_STALL_FACTOR = 0.5
# every row advances _LEAD_AFTER iterations, then only the _LEAD_ROWS active
# rows of smallest max|F|, up to _LEAD_ITERATIONS more.
# Jacobian rows and median ms per pass of the benchmark's six solve specs
# (40 draws at seed 0, one core of a 2-core Xeon VM, numpy 2.4; with no
# lead, 3,075 rows and 28.6 ms):
#   (after, rows, iterations)   (3, 8, 10)  (3, 4, 10)  (2, 8, 12)  (4, 8, 10)
#   Jacobian rows                    1,626       1,683       1,485       1,796
#   ms                                22.0        23.2        22.7        23.1
_LEAD_AFTER = 3
_LEAD_ROWS = 8
_LEAD_ITERATIONS = 10


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
    system: SystemSpec,
    starts: np.ndarray,
    config: RunConfig,
    stop: Callable[[np.ndarray, np.ndarray], bool],
):
    """Damped Newton on a batch of complex starts; results depend on each row alone.

    Returns (points, converged_mask, residual_norms), the norms max|F| at
    the returned points.  A row converges when its damped step falls below
    _NEWTON_STEP_TOL, its residual below 1e-14, or no step length passes the
    line search, each with its residual within ``residual_bound``: a row that
    no length improves sits at its rounding floor, which for large branch
    values can lie above 1e-14.  A row fails on those same three ends with a
    larger residual, when its Jacobian is singular, when it escapes (an
    accepted step leaves max|x| above _ESCAPE_FACTOR times root_bound, where
    no solution lies), when it stalls (its residual has not fallen by
    _STALL_FACTOR over its last _STALL_WINDOW iterations), or when it hits
    the iteration cap.  Retiring a row early changes no other row.

    Each row counts its own iterations, and the stall window and the cap
    read that count, so the rows may be advanced in any order and each
    still takes the iterates, and ends where and how, it would alone.
    Every row advances _LEAD_AFTER iterations, then only the lead, the
    _LEAD_ROWS active rows of smallest max|F|, up to _LEAD_ITERATIONS more
    or until a lead row converges without ``stop`` ending the batch, then
    every row still active together.  The row that converges first is
    mostly among the lead, so a batch that ``stop`` ends at its first
    converged row advances few of its hopeless rows.

    ``stop`` receives the points and residual norms of the rows that end
    converged in one iteration, in the order they end, lead rows first;
    rows converged at the initial check come first.  Once it returns True
    the batch ends, and the rows still active are reported as not
    converged.  A ``stop`` that never returns True changes no output.
    """
    points = np.array(starts, dtype=complex)
    batch = points.shape[0]
    escape = _ESCAPE_FACTOR * root_bound(system.spec)
    bound = residual_bound(system.spec, config)
    status = np.zeros(batch, dtype=np.int8)  # 0 active, 1 converged, -1 failed
    iters = np.zeros(batch, dtype=np.int64)
    fnorm = np.abs(residual_batch(system, points)).max(axis=1)
    status[~np.isfinite(fnorm)] = -1
    status[fnorm < 1e-14] = 1
    checkpoint = fnorm.copy()

    def stopped(rows: np.ndarray) -> bool:
        return rows.size > 0 and stop(points[rows], fnorm[rows])

    def advance(active: np.ndarray) -> bool:
        """One iteration of the active rows; True once ``stop`` ends the batch."""
        iters[active] += 1
        x = points[active]
        f, jac = residual_and_jacobian_batch(system, x)
        delta, solvable = _solve_linear_batch(jac, -f)
        step = np.abs(delta).max(axis=1)
        usable = solvable & np.isfinite(step)
        if not usable.all():
            status[active[~usable]] = -1
            active, x, delta, step = active[usable], x[usable], delta[usable], step[usable]
            if active.size == 0:
                return False
        # line search: every length of every row in one call, one block per
        # length; a row keeps its first passing length.  Its norm is finite,
        # so a NaN or inf trial norm fails both tests.
        trials = x + _STEP_LENGTHS[:, None, None] * delta
        fns = np.abs(residual_batch(system, trials.reshape(-1, system.n))).max(axis=1)
        fns = fns.reshape(_STEP_LENGTHS.size, active.size)
        good = (fns <= _ARMIJO * fnorm[active]) | (fns < 1e-14)
        first = good.argmax(axis=0)
        moved = good.any(axis=0)
        rows, pick = active[moved], first[moved]
        points[rows] = trials[pick, moved]
        fnorm[rows] = fns[pick, moved]
        # a row that no length moves sits at its rounding floor and ends there
        small = ~moved | (_STEP_LENGTHS[first] * step < _NEWTON_STEP_TOL) | (fnorm[active] < 1e-14)
        live = active
        if small.any():
            done = active[small]
            status[done] = np.where(fnorm[done] <= bound, 1, -1)
            if stopped(done[status[done] == 1]):
                return True
            live = active[~small]
        status[live[np.abs(points[live]).max(axis=1) > escape]] = -1
        due = live[(iters[live] % _STALL_WINDOW == 0) & (status[live] == 0)]
        if due.size:
            status[due[fnorm[due] > _STALL_FACTOR * checkpoint[due]]] = -1
            checkpoint[due] = fnorm[due]
        return False

    def run(rows: np.ndarray, iterations: int, lead_phase: bool = False) -> bool:
        """Advance the active ones of rows up to iterations times; True once stopped.

        The lead phase also ends once a lead row has converged: ``stop`` did
        not end the batch there, so the rows outside the lead are needed.
        """
        for _ in range(iterations):
            if lead_phase and (status[rows] == 1).any():
                return False
            rows = rows[(status[rows] == 0) & (iters[rows] < _NEWTON_MAX_ITER)]
            if rows.size == 0:
                return False
            if advance(rows):
                return True
        return False

    every = np.arange(batch)
    if not (stopped(np.flatnonzero(status == 1)) or run(every, _LEAD_AFTER)):
        active = np.flatnonzero(status == 0)
        lead = np.sort(active[np.argsort(fnorm[active], kind="stable")[:_LEAD_ROWS]])
        if not run(lead, _LEAD_ITERATIONS, lead_phase=True):
            run(every, _NEWTON_MAX_ITER)
    return points, status == 1, fnorm


# a box's radius is this multiple of the bound on its point's correction |Y F(x^)|
_BOX_FACTOR = 16.0


def _rounding_bound(spec: BranchSpec) -> float:
    """gamma_m = m u / (1 - m u) with u = 2^-53 and m = 8 (n + d): the certifier's rounding bound.

    A complex addition errs by at most u and a complex multiplication by at
    most sqrt(2) gamma_2 < gamma_3, relative (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6).  The product
    kernel's at most d steps of one multiplication and one subtraction leave
    each coefficient within gamma_4d times the same coefficient computed at
    |r|; the residual adds three roundings, and a product with an n-row
    matrix n + 3.  Every other quantity is a sum or product of at most 2n
    nonnegative terms.  gamma_8(n+d) bounds each chain of these, and its
    product with any other, so the computed F(x^), J(x^) and coefficients
    are widened by this bound times their values at |x^| and |w|, and every
    comparison by a factor 1 + gamma.
    """
    m = 8 * (spec.k * spec.d + 1)  # n + d, with n = (k - 1) d + 1 unknowns
    return m * 2.0**-53 / (1.0 - m * 2.0**-53)


def residual_bound(spec: BranchSpec, config: RunConfig) -> float:
    """The largest max|F| a solution may keep: max(tol_residual, gamma (1 + max|w_i|)).

    gamma is ``_rounding_bound``: F's rounding floor grows with the branch
    values, so at large ones no point gets within tol_residual alone.  For
    |w_i| <= 10 at d <= 6 the floor is below 1e-12.
    """
    floor = _rounding_bound(spec) * (1.0 + max(abs(w) for w in spec.values))
    return max(config.tol_residual, floor)


def _stacked_products(system: SystemSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_products``' qs (d + 1, k, 2m) and the Jacobians (2m, n, n) at the rows [x; -|x|]."""
    qs, dq = _products(system, np.concatenate((x, -np.abs(x) + 0j)))
    return qs, _assemble_jacobian(system, dq)


def _point_enclosure(system: SystemSpec, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, radius) at x: the exact F(x^) lies within radius of the computed F.

    qs is ``_stacked_products``' at x; its second half holds the coefficients at |r|."""
    m = qs.shape[2] // 2
    abs_q = qs[..., m:].real
    f_abs = np.empty((system.n, m))
    f_abs[0] = abs_q[1, 0]
    blocks = f_abs[1:].reshape(system.k - 1, system.d, m)
    np.add(abs_q[1:, 1:].swapaxes(0, 1), abs_q[1:, :1].swapaxes(0, 1), out=blocks)
    blocks[:, -1] += np.add(np.abs(system.spec.values[1:]), abs(system.spec.values[0]))[:, None]
    f_rad = _rounding_bound(system.spec) * f_abs.T
    return _assemble_residual(system, qs[..., :m]), f_rad


def _box_enclosure(system: SystemSpec, x: np.ndarray, rho: np.ndarray, qs, jacs):
    """(J radius, coefficients, coefficient radius) over the polydiscs of radius rho (batch, 1).

    Moving each root r by at most rho moves a coefficient of prod(z - r)
    by at most that coefficient of prod(z + |r| + rho) minus that of
    prod(z + |r|) (qs and jacs, ``_stacked_products`` at x), so J(x) for x
    in the box lies within the radius of the computed J(x^), and the
    coefficients (a_2, ..., a_d) of x within theirs of the computed ones at
    x^, read off qs, whose steps are those of ``canonical_coefficients``;
    both radii include the rounding of those computed values.
    """
    m = len(x)
    gamma = _rounding_bound(system.spec)
    hi_q, hi_dq = _products(system, -(np.abs(x) + rho) + 0j)
    hi_j, lo_j = np.abs(_assemble_jacobian(system, hi_dq)), np.abs(jacs[m:])
    coeffs = qs[2:, 0, :m].copy()
    coeffs[-1] += system.spec.values[0]
    hi_c, lo_c = hi_q[2:, 0].real.T, qs[2:, 0, m:].real.T
    c_rad = hi_c - lo_c + 3.0 * gamma * (hi_c + lo_c + abs(system.spec.values[0]))
    return hi_j - lo_j + 2.0 * gamma * (hi_j + lo_j), coeffs.T, c_rad


def _krawczyk_certified(system: SystemSpec, points: np.ndarray, tol: float) -> bool:
    """True when the points provably lie near len(points) distinct solutions.

    Each point x^ gets the polydisc X of radius rho about it, with Y the
    computed inverse of J(x^): rho is _BOX_FACTOR times the bound on the
    Newton correction |Y F(x^)|, at least 2^-52 (1 + max|x^|), and must not
    exceed tol (1 + max|x^|), so a point far from its zero fails.  With the
    enclosures of ``_point_enclosure`` and ``_box_enclosure``, three facts
    are proved for every point:

    - One zero in X (the Krawczyk test K(X) in int X): over X, x - Y F(x)
      moves at most |Y F(x^)| + |I - Y J(X)| rho from x^, componentwise.
      When every component is below rho, that map sends X into itself and
      contracts in the max norm, so it has one fixed point, and Y is
      nonsingular: F has exactly one zero in X.
    - The exact profile: within each branch the roots of x^ are more than
      2 rho apart, so the roots of the zero are distinct.
    - Distinct polynomials: the coefficient discs of any two points are
      disjoint in some coefficient, so the zeros are distinct polynomials,
      not two orderings of the roots of one.

    Points are taken _CHUNK_SIZE at a time, so memory stays that of a
    Newton batch.  A chunk makes two product calls and two Jacobian
    assemblies, at [x; -|x|] and at -(|x| + rho).
    """
    points = np.asarray(points, dtype=complex)
    gamma = _rounding_bound(system.spec)
    pair_a, pair_b = system.same_branch
    eye = np.eye(system.n)
    coeffs, c_rads = [], []
    for lo in range(0, len(points), _CHUNK_SIZE):
        x = points[lo : lo + _CHUNK_SIZE]
        qs, jacs = _stacked_products(system, x)
        jac = jacs[: len(x)]
        f, f_rad = _point_enclosure(system, qs)
        try:
            y = np.linalg.inv(jac)
        except np.linalg.LinAlgError:
            return False
        ay = np.abs(y)
        beta = (ay @ (np.abs(f) + f_rad)[..., None])[..., 0]  # bounds |Y F(x^)|
        scale = 1.0 + np.abs(x).max(axis=1, keepdims=True)
        rho = np.maximum(_BOX_FACTOR * beta.max(axis=1, keepdims=True), 2.0**-52 * scale)
        if (rho > tol * scale).any():
            return False
        j_rad, c, c_rad = _box_enclosure(system, x, rho, qs, jacs)
        spread = np.abs(eye - y @ jac) + gamma * (eye + ay @ np.abs(jac)) + ay @ j_rad
        inside = (1.0 + gamma) * (beta + rho * spread.sum(axis=2)) < rho
        apart = np.abs(x[:, pair_a] - x[:, pair_b]) > 2.0 * (1.0 + gamma) * rho
        if not (inside.all() and apart.all()):
            return False
        coeffs.append(c)
        c_rads.append(c_rad)
    coeffs, c_rads = np.concatenate(coeffs), np.concatenate(c_rads)
    for lo in range(0, len(coeffs), _CHUNK_SIZE):
        rows = slice(lo, lo + _CHUNK_SIZE)
        gap = np.abs(coeffs[rows, None] - coeffs)
        disjoint = np.any(gap > (1.0 + gamma) * (c_rads[rows, None] + c_rads), axis=2)
        disjoint[np.arange(len(gap)), np.arange(lo, lo + len(gap))] = True
        if not disjoint.all():
            return False
    return True


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """Deduplicated solutions, one row per solution, plus the completeness certificate.

    ``coefficients`` (N, d - 1) holds each polynomial's (a_2, ..., a_d),
    ``solutions`` (N, n) its preimage roots in ``build_system`` slot order
    (branch by branch, parts non-increasing within a branch) and
    ``residuals`` (N,) the max|F| it was accepted with.  The identity
    covering's one solution is a row of width 0 in both complex arrays.  The
    arrays are read-only, so a set may be shared; two sets are compared by
    their arrays, not by ``==``.
    """

    spec: BranchSpec
    coefficients: np.ndarray
    solutions: np.ndarray
    residuals: np.ndarray
    target: int
    certificate: str  # "COMPLETE" or "INCOMPLETE"
    starts_used: int
    seed: int

    def __post_init__(self):
        for array in (self.coefficients, self.solutions, self.residuals):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.solutions)

    def as_json_dict(self) -> dict:
        """The set as JSON; each point is split into its branches' (root, multiplicity) lists."""
        def pairs(z: np.ndarray) -> list:
            return np.stack((z.real, z.imag), axis=-1).tolist()

        solutions = []
        for coeffs, point, res in zip(
            pairs(self.coefficients), pairs(self.solutions), self.residuals.tolist()
        ):
            roots, start = [], 0
            for lam in self.spec.profiles:
                roots.append([[z, m] for z, m in zip(point[start:], lam.parts)])
                start += lam.length
            solutions.append({"coefficients": coeffs, "roots": roots, "residual": res})
        return {
            "spec": self.spec.as_json_dict(),
            "target": self.target,
            "certificate": self.certificate,
            "found": len(self),
            "starts_used": self.starts_used,
            "seed": self.seed,
            "solutions": solutions,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> SolutionSet:
        """The set ``as_json_dict`` wrote; each point is its branches' roots in order.

        Raises ValidationError when the spec is not canonical, a solution's
        root multiplicities are not the profiles or a number is not finite
        (``json.load`` reads Infinity and NaN); malformed data raises
        KeyError, TypeError or ValueError.
        """
        raw = data["spec"]
        spec = BranchSpec(
            tuple(Partition(parts) for parts in raw["profiles"]), raw["values"], raw["d"]
        )
        sols = data["solutions"]
        parts = [list(lam.parts) for lam in spec.profiles]
        if any([[m for _, m in branch] for branch in sol["roots"]] != parts for sol in sols):
            raise ValidationError("solution root multiplicities differ from the profiles")

        def complex_rows(rows: list, width: int) -> np.ndarray:
            # (re, im) float pairs viewed as complex keep every bit, -0.0 included
            return np.array(rows, dtype=float).reshape(len(rows), width, 2).view(complex)[..., 0]

        arrays = (
            complex_rows([sol["coefficients"] for sol in sols], spec.d - 1),
            complex_rows(
                [[z for branch in sol["roots"] for z, _ in branch] for sol in sols],
                sum(map(len, parts)),
            ),
            np.array([float(sol["residual"]) for sol in sols]),
        )
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValidationError("solution coefficients, roots and residuals must be finite")
        return cls(
            spec, *arrays, data["target"], data["certificate"], data["starts_used"], data["seed"]
        )


def _well_separated(system: SystemSpec, x: np.ndarray, tol_cluster: float):
    """Per row of x (or for the point x): no two roots of one branch lie within tol_cluster."""
    pair_a, pair_b = system.same_branch
    return ~(np.abs(x[..., pair_a] - x[..., pair_b]) <= tol_cluster).any(axis=-1)


def _near(table: np.ndarray, queries: np.ndarray, tol: float) -> np.ndarray:
    """The (queries, table rows) mask of ``match_index``'s rule, scaled by the table row."""
    gap = np.abs(queries[:, None] - table).max(axis=2, initial=0.0)
    return gap <= tol * (1.0 + np.abs(table).max(axis=1, initial=0.0))


def match_index(table: np.ndarray, queries: np.ndarray, tol: float) -> list[int | None]:
    """Per query row q, the first row i with max|q - table[i]| <= tol (1 + max|table[i]|), or None.

    The scale is taken from the known row, not from the query; an empty row
    matches anything and an empty table nothing.  A symmetry check passes
    all its images in one call; a single point is a one-row query table.
    """
    near = _near(table, queries, tol)
    if not near.shape[1]:
        return [None] * len(near)
    hits = near.any(axis=1).tolist()
    return [i if hit else None for i, hit in zip(near.argmax(axis=1).tolist(), hits)]


@functools.lru_cache(maxsize=256)
def _normal_rows(values: tuple[float, ...], d: int) -> tuple[np.ndarray, np.ndarray]:
    """``normal_coefficients``' shift row (0, ..., 0, w_0) and scale row a^(-j/d), j = 2..d."""
    shift = np.zeros(d - 1)
    shift[-1:] = values[:1]
    a = values[-1] - values[0] if len(values) > 1 else 1.0
    return shift, a ** (-np.arange(2, d + 1) / d)


def normal_coefficients(values: tuple[float, ...], coeffs: np.ndarray) -> np.ndarray:
    """Rows of (a_2, ..., a_d) for branch values w, taken to the affine normal form.

    The normal form of P is (P(a^(1/d) z) - w_0) / a with a = w_last - w_0,
    whose branch values run from 0 to 1, so a_j goes to
    (a_j - [j = d] w_0) / a^(j/d).  Moving or scaling every value leaves it
    alone, so tolerance comparisons of coefficients (dedup, the conjugation,
    z -> -z and rotation partners) are made on it and stay scale-free.  A
    one-value spec takes a = 1.  The rows are cached per spec, so a call is
    one subtract and one multiply.
    """
    shift, scale = _normal_rows(values, coeffs.shape[-1] + 1)
    return (coeffs - shift) * scale


def grid_key(values) -> tuple[tuple[float, float], ...]:
    """Sort key of complex values rounded to 9 decimals, far below tol_dedup.

    Rounding noise in the last bits cannot reorder two values that differ on
    this grid, such as the equal real parts of a conjugate pair.
    """
    return tuple((round(v.real, 9), round(v.imag, 9)) for v in values)


class _Collector:
    """The one acceptance path: validates, deduplicates and symmetry-expands tables of points."""

    def __init__(self, system: SystemSpec, target: int, config: RunConfig):
        self.system = system
        self.target = target
        self.config = config
        self.tol_residual = residual_bound(system.spec, config)
        # one row per accepted point, in acceptance order
        self.points = np.empty((0, system.n), dtype=complex)
        self.coeffs = np.empty((0, system.d - 1), dtype=complex)
        self.normal = np.empty((0, system.d - 1), dtype=complex)  # their normal_coefficients
        self.residuals = np.empty(0)
        self.collapse_counts: dict[tuple, int] = {}
        self.proven: bool | None = None  # the one certification, once the target is reached

    @functools.cached_property
    def reversal(self) -> tuple[complex, np.ndarray] | None:
        """The spec's ``_affine_map`` onto itself in reversed order when harvested, else None.

        Only the multistart offers rows, so a carried solve never decides
        it; profiles that are no palindrome refuse it with no numpy call.
        A two-branch spec's reversal keeps every solution of a degree the
        solver takes (2,1|2,1, 3,1,1|3,1,1 and 2,2,1|2,2,1) within its
        dihedral orbit, so it is not harvested there.
        """
        spec = self.system.spec
        return _affine_map(spec, spec, reverse=True) if spec.k > 2 else None

    def __len__(self) -> int:
        return len(self.points)

    @property
    def complete(self) -> bool:
        return len(self.points) >= self.target

    def accept(self, cands: np.ndarray, norms) -> np.ndarray:
        """Keep the new solutions among the rows of cands (m, n), of residual norms (m,).

        Every solution, solved or carried, passes here, a table at a time.
        A row is kept when its residual is within ``residual_bound``, each
        branch's roots are more than tol_cluster apart (repeated collapses
        raise DegenerateConfiguration) and its ``normal_coefficients`` are
        new up to tol_dedup, against the accepted set and the rows kept
        before it; a new solution beyond the target raises
        OvercountDetected.  The accepted arrays grow once, by the rows kept
        up to a raising one.  Returns the mask of rows kept.
        """
        system, config = self.system, self.config
        norms = np.asarray(norms, dtype=float)
        rows = np.flatnonzero(norms <= self.tol_residual)
        x = cands[rows]
        collapsed = ~_well_separated(system, x, config.tol_cluster)
        coeffs = canonical_coefficients(system, x)
        # the accepted set's normal coefficients, then the table's; taken
        # marks the rows accepted so far
        table = np.concatenate((self.normal, normal_coefficients(system.spec.values, coeffs)))
        start = found = len(self.coeffs)
        taken = np.arange(len(table)) < start
        error = None
        for r, collapse in enumerate(collapsed.tolist()):
            i = r % _CHUNK_SIZE
            if i == 0:
                near = _near(table, table[start + r : start + r + _CHUNK_SIZE], config.tol_dedup)
                dup = near[:, taken].any(axis=1)
            if collapse:
                key = tuple(np.round(table[start + r], 6).tolist())
                self.collapse_counts[key] = self.collapse_counts.get(key, 0) + 1
                if self.collapse_counts[key] >= _DEGENERACY_LIMIT:
                    error = DegenerateConfiguration(
                        "converged points persistently collapse preimage roots; "
                        "the branch values look non-generic for these profiles"
                    )
                    break
            elif not dup[i]:
                taken[start + r] = True
                dup |= near[:, start + r]
                found += 1
                if found > self.target:
                    error = OvercountDetected(found, self.target)
                    break
        new = rows[taken[start:]]
        if new.size:
            self.points = np.concatenate((self.points, cands[new]))
            self.coeffs = np.concatenate((self.coeffs, coeffs[taken[start:]]))
            self.normal = table[taken]
            self.residuals = np.concatenate((self.residuals, norms[new]))
        if error is not None:
            raise error
        kept = np.zeros(len(norms), dtype=bool)
        kept[new] = True
        return kept

    def offer_all(self, points: np.ndarray, norms: np.ndarray) -> bool:
        """Accept a hand-over of converged points, then their new ones' orbits; True once proven.

        The orbit of x under z -> zeta z and conjugation (dihedral, order
        2d) is {rot_t(x), conj(rot_t(x))}, with rot_t(x) = x zeta^(-t) the
        roots of P(zeta^t z).  Rotation multiplies each equation row by a
        unit and conjugation conjugates it (the values are real), so the
        2d - 1 mates are exact.  When ``reversal`` is harvested, the images
        c y[columns] of those 2d points join them, 4d - 1 mates in all,
        exact by the same affine map that carries a reversed spec.  The
        hand-over is one ``accept`` table; the mates of the rows it kept,
        built in one broadcast and scored by one ``residual_batch`` call,
        are a second, taken after the target too, so a new solution beyond
        it raises OvercountDetected.  The first time the count reaches the
        target, ``_krawczyk_certified`` runs once on the accepted points: if
        it proves them, no other solution exists and the caller may stop; if
        not, it never runs again.
        """
        new = points[self.accept(points, norms)]
        if len(new):
            d, n = self.system.d, self.system.n
            rotated = new[:, None] * np.exp(-2j * np.pi * np.arange(d) / d)[:, None]
            mates = np.stack((rotated, rotated.conj()), axis=2).reshape(len(new), 2 * d, n)
            if self.reversal is not None:
                c, columns = self.reversal
                mates = np.concatenate((mates, c * mates[..., columns]), axis=1)
            mates = mates[:, 1:].reshape(-1, n)
            self.accept(mates, np.abs(residual_batch(self.system, mates)).max(axis=1))
        if self.complete and self.proven is None:
            self.proven = _krawczyk_certified(self.system, self.points, self.config.tol_dedup)
        return bool(self.proven)

    def build_set(self, starts_used: int, certificate: str) -> SolutionSet:
        """The accepted solutions in canonical order, with the certificate.

        Solutions are listed by ``grid_key`` of their coefficients, and the
        roots of equal multiplicity within a branch by ``grid_key`` of the
        roots, so the set does not depend on the order in which they were
        found nor on which of a solution's equivalent root orderings was.
        Each order takes one np.round and one np.lexsort; round on a numpy
        scalar is np.round, so the keys are ``grid_key``'s.
        """
        system = self.system
        grid = np.round(self.coeffs, 9)
        keys = np.stack((grid.real, grid.imag), axis=2).reshape(len(grid), 2 * system.d - 2)
        order = np.lexsort(keys.T[::-1])
        points = self.points[order]
        grid = np.round(points, 9)
        slot_keys = (np.broadcast_to(key, grid.shape) for key in system.slot_keys)
        columns = np.lexsort((grid.imag, grid.real, *slot_keys), axis=1)
        return SolutionSet(
            spec=system.spec,
            coefficients=self.coeffs[order],
            solutions=np.take_along_axis(points, columns, axis=1),
            residuals=self.residuals[order],
            target=self.target,
            certificate=certificate,
            starts_used=starts_used,
            seed=self.config.seed,
        )


def _block_columns(profiles: tuple[Partition, ...], order: Iterable[int]) -> np.ndarray:
    """The slot columns that move branch order[j]'s root block to place j."""
    bounds = np.cumsum([0] + [lam.length for lam in profiles])
    return np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in order])


# path tracking in the branch values: the first step, its growth factor and
# cap, the step below which a path is dropped, and the Newton corrections
# per step with the size the last of them must reach
_TRACK_STEP = 0.05
_TRACK_GROWTH = 1.6
_TRACK_MAX_STEP = 0.25
_TRACK_MIN_STEP = 1e-4
_TRACK_CORRECTIONS = 3
_TRACK_TOL = 1e-9


def _track(system: SystemSpec, points: np.ndarray, u) -> tuple[np.ndarray, np.ndarray]:
    """Carry solutions at branch values u to the system's, t; returns (points, arrived mask).

    The values follow w(s) = (1 - s) u + s t + i s (1 - s) h for s from 0
    to 1.  When u and t list the branches in the same order, h = 0: every
    w(s) is then ordered the same way, so the values stay distinct and the
    fibre keeps exactly N distinct solutions all along the path (Riemann
    existence), the real ones staying real.  Otherwise h has distinct
    entries, so w_i(s) != w_j(s) for 0 < s < 1 and the same holds.

    Each w_i enters F linearly, in row i d (i >= 1) with w_0 subtracted, so
    dF/ds is known in closed form and F(x; w) is the spec's residual with
    those rows corrected.  Every path takes an Euler step x' = -J^-1 dF/ds,
    then _TRACK_CORRECTIONS Newton corrections at the new s; the step is
    accepted when the corrections contract and the last is below
    _TRACK_TOL (1 + max|x|).  The step grows by _TRACK_GROWTH up to
    _TRACK_MAX_STEP after an accepted step and halves after a rejected one.
    A path is dropped on a singular Jacobian or a step below _TRACK_MIN_STEP;
    all paths advance in one batch.
    """
    x = np.array(points, dtype=complex)
    u, t = np.asarray(u, dtype=float), np.asarray(system.spec.values, dtype=float)
    rows = system.d * np.arange(1, system.k)
    h = np.zeros(system.k)
    if not np.array_equal(np.argsort(u), np.argsort(t)):
        # of the scales tried on d <= 6 reorders (1/4, 1/2 and 1 times the
        # spread of the values), half took the fewest steps
        h = 0.5 * (np.ptp(u) + np.ptp(t)) * np.arange(system.k)

    def differences(w: np.ndarray) -> np.ndarray:
        return w[:, 1:] - w[:, :1]

    def equations(y: np.ndarray, s: np.ndarray):
        w = (1.0 - s)[:, None] * u + s[:, None] * t + 1j * (s * (1.0 - s))[:, None] * h
        f, jac = residual_and_jacobian_batch(system, y)
        f[:, rows] += differences(w - t)
        return f, jac

    def tangents(jac: np.ndarray, s: np.ndarray):
        rate = np.zeros((len(s), system.n), dtype=complex)
        rate[:, rows] = -differences(t - u + 1j * (1.0 - 2.0 * s)[:, None] * h)
        return _solve_linear_batch(jac, rate)

    s = np.zeros(len(x))
    step = np.full(len(x), _TRACK_STEP)
    tangent, live = tangents(residual_and_jacobian_batch(system, x)[1], s)
    while True:
        active = np.flatnonzero(live & (s < 1.0))
        if active.size == 0:
            break
        s0 = s[active]
        s1 = np.where(step[active] >= 1.0 - s0, 1.0, s0 + step[active])
        y = x[active] + (s1 - s0)[:, None] * tangent[active]
        ok = np.ones(active.size, dtype=bool)
        sizes = []
        for _ in range(_TRACK_CORRECTIONS):
            f, jac = equations(y, s1)
            delta, solvable = _solve_linear_batch(jac, -f)
            ok &= solvable
            y = y + delta
            sizes.append(np.max(np.abs(delta), axis=1))
        sizes = np.array(sizes)
        small = sizes < _TRACK_TOL * (1.0 + np.max(np.abs(y), axis=1))
        contract = np.all((sizes[1:] < sizes[:-1]) | small[1:], axis=0)
        accepted = ok & np.isfinite(sizes).all(axis=0) & contract & small[-1]
        done, failed = active[accepted], active[~accepted]
        x[done], s[done] = y[accepted], s1[accepted]
        step[done] = np.minimum(_TRACK_GROWTH * step[done], _TRACK_MAX_STEP)
        # the next predictor's tangent, from the last correction's Jacobian
        tangent[done], solvable = tangents(jac[accepted], s1[accepted])
        step[failed] /= 2.0
        live[active[~ok]] = False
        live[done[~solvable]] = False
        live[failed[step[failed] < _TRACK_MIN_STEP]] = False
    return x, live


def _branch_order(source: BranchSpec, spec: BranchSpec) -> list[int] | None:
    """Source branch order[j] for each spec branch j, or None when the profile multisets differ.

    The two specs have the same number of branches.  Each spec branch takes
    the first unused source branch with its profile.
    """
    unused = list(range(source.k))
    order = []
    for lam in spec.profiles:
        i = next((i for i in unused if source.profiles[i] == lam), None)
        if i is None:
            return None
        unused.remove(i)
        order.append(i)
    return order


def _affine_map(
    source: BranchSpec, spec: BranchSpec, reverse: bool
) -> tuple[complex, np.ndarray] | None:
    """(c, columns) when w -> a w + b takes source's (profile, value) pairs to spec's; else None.

    Both value lists increase, so such a map keeps the branch order (a > 0)
    or, when reverse is set, reverses it (a < 0).  The profiles are compared
    in that order first, with no numpy call.  Then, with u source's values
    in that order and t the spec's, the end values fix a, and the spec is
    the image when a (u - u_0) + t_0 matches t by ``match_index`` within
    F's rounding floor, ``_rounding_bound``: the images are then solutions
    as exactly as Newton leaves them, and a layout only near an image is no
    image.  P -> a P(z / c) + b, c^d = a, maps source's solutions one to
    one onto spec's: a root r of P - w goes to c r, a root of the same order
    of a P(z / c) + b - (a w + b), and its block moves to its branch's new
    place, so a point x goes to c x[:, columns] (``_block_columns``).
    """
    step = -1 if reverse else 1
    if source.profiles[::step] != spec.profiles:
        return None
    u, t = np.array(source.values[::step]), np.array(spec.values)
    a = (t[-1] - t[0]) / (u[-1] - u[0])
    if match_index(t[None, :], (a * (u - u[0]) + t[0])[None, :], _rounding_bound(spec)) != [0]:
        return None
    return complex(a) ** (1.0 / spec.d), _block_columns(source.profiles, range(spec.k)[::step])


def _carried_points(known: tuple[SolutionSet, ...], system: SystemSpec) -> np.ndarray | None:
    """Known solutions carried to the spec: mapped when an affine image, else tracked.

    A one-branch spec's one solution is the point 0 of z^d + w.  Otherwise
    every COMPLETE known set with the spec's d and k is mapped when
    ``_affine_map`` finds the spec its image in the same branch order or,
    failing that, in the reversed one.  Failing every image, the first set
    with the spec's profile multiset is tracked (``_track``) from its
    values, in its ``_branch_order``, to the spec's, and the arrived points
    are returned.  None when no known set qualifies.
    """
    spec = system.spec
    if spec.k == 1:
        return np.zeros((1, 1), dtype=complex)
    first = None
    for source in known:
        if (source.spec.d, source.spec.k) != (spec.d, spec.k) or source.certificate != "COMPLETE":
            continue
        for reverse in (False, True):
            image = _affine_map(source.spec, spec, reverse)
            if image is not None:
                c, columns = image
                return c * source.solutions[:, columns]
        if first is None and (order := _branch_order(source.spec, spec)) is not None:
            first = source, order
    if first is None:
        return None
    source, order = first
    points = source.solutions[:, _block_columns(source.spec.profiles, order)]
    tracked, arrived = _track(system, points, np.array(source.spec.values)[order])
    return tracked[arrived]


def solve_all(
    spec: BranchSpec,
    config: RunConfig | None = None,
    *,
    known: Iterable[SolutionSet] = (),
) -> SolutionSet:
    """Find every normalized complex polynomial for the spec, with a certificate.

    Starts are drawn from a seeded complex Gaussian with scale
    (1 + max|w_i|)^(1/d), a quarter of root_bound; converged points are
    validated for residual and root separation, canonicalized to coefficient
    vectors and deduplicated.
    The run stops after the chunk in which the count matches the
    factorization target, and within that chunk as soon as the accepted
    points are proven distinct true solutions (``_Collector.offer_all``).
    ``_carried_points`` carries the solution sets in ``known`` over: the
    first COMPLETE one whose spec maps onto this spec by an affine change of
    value (``_affine_map``) is mapped; failing that, the first COMPLETE one
    with the same d, k and profile multiset is tracked to this spec's values
    and order; a one-branch spec takes its one solution, the point 0.  The
    carried points are exact images: they are scored by one
    ``residual_batch`` call and accepted as they are, with no Newton
    iteration, and the multistart runs only for the solutions they miss
    (``starts_used`` is 0 when they reach the target).  Only a multistart
    decides, once (``_Collector.reversal``, ``_affine_map`` in reversed
    order), whether the reversal joins the harvested symmetries.

    Raises IncompleteEnumeration (carrying the partial set) when the start
    budget runs out first and OvercountDetected if dedup ever exceeds the
    target.
    """
    config = config or RunConfig()
    if spec.is_identity:
        empty = np.empty((1, 0), dtype=complex)
        return SolutionSet(spec, empty, empty, np.zeros(1), 1, "COMPLETE", 0, config.seed)
    if spec.d > _MAX_SOLVER_DEGREE:
        raise ScaleExceeded(f"degree {spec.d} exceeds the solver bound {_MAX_SOLVER_DEGREE}")
    target = count_factorizations(spec.profiles).N
    system = build_system(spec)
    collector = _Collector(system, target, config)
    carried = _carried_points(tuple(known), system)
    if carried is not None:
        collector.accept(carried, np.abs(residual_batch(system, carried)).max(axis=1))
    starts_used = 0
    if not collector.complete:
        rng = np.random.default_rng(config.seed)
        scale = root_bound(spec) / 4.0
        while starts_used < config.start_budget and not collector.complete:
            m = min(_CHUNK_SIZE, config.start_budget - starts_used)
            starts = rng.standard_normal((m, system.n)) + 1j * rng.standard_normal(
                (m, system.n)
            )
            starts *= scale / math.sqrt(2.0)
            starts_used += m
            # the chunk ends early only once its N accepted points are proven
            # N distinct solutions; otherwise every converged row is offered,
            # so an extra distinct solution cannot slip away unnoticed
            _newton_batch(system, starts, config, stop=collector.offer_all)
    if not collector.complete:
        partial = collector.build_set(starts_used, "INCOMPLETE")
        raise IncompleteEnumeration(len(collector), target, partial)
    return collector.build_set(starts_used, "COMPLETE")


# --- real classification ----------------------------------------------------


def _real_polynomials(
    system: SystemSpec, points: np.ndarray, config: RunConfig
) -> list[RealPolynomial]:
    """The real polynomials at nearly-real points (R, n), each projected to be conjugation-fixed.

    Each root pairs with the root of its branch and multiplicity nearest its
    conjugate, itself included, in one masked argmin over the (R, n, n) gaps.
    A self-paired root keeps its real part (imaginary part exactly 0) and for
    a pair j < m root m becomes conj(x[j]).  One product call serves every
    point: it gives F, as ``residual_batch`` does, and branch 0's product,
    whose a_2..a_d with w_0 added to a_d are ``canonical_coefficients``.

    The first failing row raises: AmbiguousRealness for a pairing that is not
    an involution or a pair farther apart than tol_cluster,
    DegenerateConfiguration for roots that collapse under the projection,
    and AmbiguousRealness for a residual max|Re F| above ``residual_bound``,
    in that order within a row.
    """
    spec = system.spec
    x = np.array(points, dtype=complex)
    rows, cols = np.arange(len(x))[:, None], np.arange(system.n)
    # gap[r, j, m] = |x[r, m] - conj(x[r, j])|, infinite across slot kinds
    gap = np.where(system.slot_mismatch, np.inf, np.abs(x[:, None, :] - x[:, :, None].conj()))
    partner = gap.argmin(axis=2)
    unpaired = (
        (partner[rows, partner] != cols) | (gap.min(axis=2) > config.tol_cluster)
    ).any(axis=1)
    fixed = partner == cols
    x[fixed] = x[fixed].real
    second = partner < cols
    x[second] = x[rows, partner][second].conj()
    collapsed = ~_well_separated(system, x, config.tol_cluster)
    qs = _batch_products(x.T[system.root_index])
    # F is real at a conjugation-fixed point up to rounding, so its real part
    # is the real polynomial's residual, the bound a real Newton step enforces
    f = np.max(np.abs(_assemble_residual(system, qs).real), axis=1)
    bound = residual_bound(spec, config)
    failed = unpaired | collapsed | (f > bound)
    if failed.any():
        i = int(failed.argmax())
        if unpaired[i]:
            raise AmbiguousRealness(
                "a preimage root has no conjugate partner within tolerance; "
                "rerun with tighter tolerances"
            )
        if collapsed[i]:
            raise DegenerateConfiguration(
                "real projection collapsed two preimage roots of one branch value"
            )
        raise AmbiguousRealness(
            f"the conjugation-fixed point has residual {f[i]:.3e} above the bound {bound:.1e}"
        )
    coefficients = qs[2:, 0]
    coefficients[-1] += spec.values[0]
    reals = []
    for point, coeffs, res in zip(x.tolist(), coefficients.real.T.tolist(), f.tolist()):
        preimages = []
        nonreal = []
        for start, end in system.branch_ranges:
            roots = [(point[j], system.slots[j][1]) for j in range(start, end)]
            preimages.append(tuple(sorted((r.real, m) for r, m in roots if r.imag == 0)))
            nonreal.append(tuple(sorted((m for r, m in roots if r.imag != 0), reverse=True)))
        reals.append(
            RealPolynomial(
                d=spec.d,
                coefficients=tuple(coeffs),
                profiles=spec.profiles,
                values=spec.values,
                real_preimages=tuple(preimages),
                nonreal_orders=tuple(nonreal),
                residual=res,
            )
        )
    return reals


def conjugation_partners(solset: SolutionSet, tol: float) -> list[int | None]:
    """Per solution, the solution its conjugate matches in the normal form, or None.

    One ``match_index`` call on the ``normal_coefficients`` rows.
    """
    normal = normal_coefficients(solset.spec.values, solset.coefficients)
    return match_index(normal, normal.conj(), tol)


def classify_real(solset: SolutionSet, config: RunConfig | None = None) -> list[RealPolynomial]:
    """Extract the real polynomials from a complete complex solution set.

    A solution is real when it is its own ``conjugation_partners`` entry
    under tol_dedup.  The real solutions up to the first one whose pairing is
    not an involution go to ``_real_polynomials`` in one table, which
    projects each onto its exactly conjugation-fixed point, so no Newton step
    runs, and raises at the first failing row; failing none, a broken pairing
    raises AmbiguousRealness.  The first failing solution thus raises, as if
    each were checked in turn.
    """
    config = config or RunConfig()
    if solset.certificate != "COMPLETE":
        raise ValidationError("real classification requires a COMPLETE certificate")
    if solset.spec.is_identity:
        return [RealPolynomial(1, (), (), (), (), ())]  # P(z) = z, with no branch data
    partners = conjugation_partners(solset, config.tol_dedup)
    broken = next((i for i, j in enumerate(partners) if j is not None and partners[j] != i), None)
    real = [i for i, j in enumerate(partners[:broken]) if i == j]
    reals = _real_polynomials(build_system(solset.spec), solset.solutions[real], config)
    if broken is not None:
        j = partners[broken]
        raise AmbiguousRealness(
            f"the conjugation pairing is not an involution: solution {broken} "
            f"pairs with {j}, which pairs with {partners[j]}"
        )
    reals.sort(key=lambda p: grid_key(p.coefficients))
    return reals
