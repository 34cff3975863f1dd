"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: raw product enumeration over conjugacy classes
listed one permutation at a time, without pruning, numpy
root finding on coefficient polynomials, finite differences, closed form
solution families eliminated by hand, and the system kernel rebuilt one
linear factor, one derivative and one Jacobian column at a time.
``run_cli_in_process`` captures what one CLI command prints and returns.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from typing import Iterator

import numpy as np

from realhurwitz import Partition, RealPolynomial, ValidationError
from realhurwitz.cli import main
from realhurwitz.factorizations import Perm, compose, full_cycle
from realhurwitz.polysolve import (
    _NEWTON_MAX_ITER,
    _NEWTON_STEP_TOL,
    residual,
    residual_and_jacobian_batch,
    residual_batch,
)


def class_size(d: int, lam: Partition) -> int:
    """Size of the conjugacy class of cycle type lam in the symmetric group on d symbols."""
    if lam.d != d:
        raise ValidationError(f"{lam} does not partition {d}")
    z = 1
    for value, mult in lam.multiplicities().items():
        z *= value**mult * math.factorial(mult)
    return math.factorial(d) // z


def enumerate_class(d: int, lam: Partition) -> Iterator[Perm]:
    """Yield every permutation of cycle type lam exactly once, deterministically.

    Cycles are anchored at the smallest symbol not yet placed, so each
    permutation arises from exactly one sequence of choices.
    """
    if lam.d != d:
        raise ValidationError(f"{lam} does not partition {d}")

    def rec(elements: tuple[int, ...], lengths: tuple[int, ...]) -> Iterator[dict]:
        if not elements:
            yield {}
            return
        anchor = elements[0]
        others = elements[1:]
        seen_lengths = set()
        for idx, length in enumerate(lengths):
            if length in seen_lengths:
                continue
            seen_lengths.add(length)
            rest_lengths = lengths[:idx] + lengths[idx + 1 :]
            for tail in itertools.permutations(others, length - 1):
                used = set(tail)
                remaining = tuple(x for x in others if x not in used)
                for sub in rec(remaining, rest_lengths):
                    mapping = dict(sub)
                    cyc = (anchor,) + tail
                    for a, b in zip(cyc, cyc[1:] + (anchor,)):
                        mapping[a] = b
                    yield mapping

    for mapping in rec(tuple(range(d)), lam.parts):
        yield tuple(mapping[i] for i in range(d))


def brute_count(profiles, d, base_cycle=None):
    """Exhaustive factorization count over raw permutation tuples, no pruning.

    Enumerates the full cartesian product of all k conjugacy classes and
    checks each complete product against the fixed cycle.  Only usable for
    small d.
    """
    alpha = full_cycle(d) if base_cycle is None else tuple(base_cycle)
    classes = [list(enumerate_class(d, lam)) for lam in profiles]
    count = 0
    for tup in itertools.product(*classes):
        prod = tup[0]
        for sigma in tup[1:]:
            prod = compose(prod, sigma)
        if prod == alpha:
            count += 1
    return count


def plain_newton(system, starts, config, max_halvings=12):
    """Damped Newton run to the iteration cap with no early retirement.

    The reference for _newton_batch: the same step, line search and stopping
    test, but a row only leaves the loop by converging, by a singular
    Jacobian or non-finite step, by a failed line search, or at the cap.
    Returns (points, converged_mask, residual_norms), the norms max|F| at
    the returned points.
    """
    points = np.array(starts, dtype=complex)
    status = np.zeros(points.shape[0], dtype=np.int8)  # 0 active, 1 converged, -1 failed
    fnorm = np.max(np.abs(residual_batch(system, points)), axis=1)
    status[~np.isfinite(fnorm)] = -1
    status[fnorm < 1e-14] = 1
    for _ in range(_NEWTON_MAX_ITER):
        active = np.where(status == 0)[0]
        if active.size == 0:
            break
        f, jac = residual_and_jacobian_batch(system, points[active])
        delta = np.zeros_like(f)
        solvable = np.ones(active.size, dtype=bool)
        for i in range(active.size):
            try:
                delta[i] = np.linalg.solve(jac[i : i + 1], -f[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                solvable[i] = False
        step = np.max(np.abs(delta), axis=1)
        usable = solvable & np.isfinite(step)
        status[active[~usable]] = -1
        active, delta, step = active[usable], delta[usable], step[usable]
        t = np.ones(active.size)
        pending = np.ones(active.size, dtype=bool)
        for _ in range(max_halvings):
            rows = np.where(pending)[0]
            if rows.size == 0:
                break
            trial = points[active[rows]] + t[rows, None] * delta[rows]
            fn = np.max(np.abs(residual_batch(system, trial)), axis=1)
            good = np.isfinite(fn) & (
                (fn <= (1.0 - 0.5 * t[rows]) * fnorm[active[rows]]) | (fn < 1e-14)
            )
            points[active[rows[good]]] = trial[good]
            fnorm[active[rows[good]]] = fn[good]
            pending[rows[good]] = False
            t[rows[~good]] *= 0.5
        status[active[pending]] = -1
        keep = ~pending
        active, t, step = active[keep], t[keep], step[keep]
        done = active[(t * step < _NEWTON_STEP_TOL) | (fnorm[active] < 1e-14)]
        status[done] = np.where(fnorm[done] <= config.tol_residual, 1, -1)
    return points, status == 1, fnorm


def _mul_linear(coeffs, roots):
    """Batched multiply of polynomials (rows of coeffs) by (z - root)."""
    batch, width = coeffs.shape
    out = np.zeros((batch, width + 1), dtype=complex)
    out[:, :-1] = coeffs
    out[:, 1:] -= roots[:, None] * coeffs
    return out


def _branch_poly(roots, mults):
    """Monic coefficients of prod (z - root_j)^mult_j per row, one factor at a time."""
    c = np.ones((roots.shape[0], 1), dtype=complex)
    for j, m in enumerate(mults):
        for _ in range(m):
            c = _mul_linear(c, roots[:, j])
    return c


def _branch_polys(system, points):
    return [
        _branch_poly(points[:, start:end], list(lam.parts))
        for (start, end), lam in zip(system.branch_ranges, system.spec.profiles)
    ]


def _assemble(system, qs):
    d = system.d
    values = system.spec.values
    out = np.empty((qs[0].shape[0], system.n), dtype=complex)
    out[:, 0] = qs[0][:, 1]
    for i in range(1, system.k):
        block = qs[i][:, 1:] - qs[0][:, 1:]
        block[:, -1] += values[i] - values[0]
        out[:, 1 + (i - 1) * d : 1 + i * d] = block
    return out


def kernel_residual(system, points):
    """Reference residual_batch: each branch product rebuilt factor by factor."""
    return _assemble(system, _branch_polys(system, points))


def kernel_residual_and_jacobian(system, points):
    """Reference residual_and_jacobian_batch: one rebuilt product per derivative,
    scattered into the Jacobian column by column.
    """
    d = system.d
    jac = np.zeros((points.shape[0], system.n, system.n), dtype=complex)
    for col, (branch, m) in enumerate(system.slots):
        start, end = system.branch_ranges[branch]
        mults = [m2 - (start + j2 == col) for j2, (_, m2) in enumerate(system.slots[start:end])]
        dq = -m * _branch_poly(points[:, start:end], mults)
        if branch == 0:
            jac[:, 0, col] = dq[:, 0]
            for i in range(1, system.k):
                jac[:, 1 + (i - 1) * d : 1 + i * d, col] = -dq
        else:
            jac[:, 1 + (branch - 1) * d : 1 + branch * d, col] = dq
    return kernel_residual(system, points), jac


def kernel_canonical(system, x):
    """Reference canonical_coefficients: branch 0's product, shifted by w_0."""
    start, end = system.branch_ranges[0]
    x = np.asarray(x, dtype=complex)
    full = _branch_poly(x[None, start:end], list(system.spec.profiles[0].parts))[0]
    full[-1] += system.spec.values[0]
    return full[2:]


def kernel_real_projection(system, x):
    """Reference real projection of one point, root by root.

    Each root pairs with the first root of its slot kind (branch and
    multiplicity) nearest its conjugate; a self-paired root keeps its real
    part and of a pair j < m root m becomes conj(x[j]).
    """
    x = np.asarray(x, dtype=complex)
    out = x.copy()
    for i, kind in enumerate(system.slots):
        same = [j for j, other in enumerate(system.slots) if other == kind]
        j = min(same, key=lambda j: abs(x[j] - x[i].conjugate()))
        if j == i:
            out[i] = x[i].real
        elif j < i:
            out[i] = x[j].conjugate()
    return out


def fd_jacobian(system, x, h=1e-6):
    """Central-difference Jacobian; valid since the equations are holomorphic."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    jac = np.zeros((n, n), dtype=complex)
    for j in range(n):
        bump = np.zeros(n, dtype=complex)
        bump[j] = h
        jac[:, j] = (residual(system, x + bump) - residual(system, x - bump)) / (2 * h)
    return jac


def preimages_from_coefficients(full_coeffs, w, tol=1e-5):
    """Real preimages of w with multiplicities, recovered by numpy root finding.

    Clusters the roots of P - w (coefficients highest degree first) that sit
    within tol of each other, then keeps the clusters whose center is real.
    """
    shifted = np.array(full_coeffs, dtype=complex)
    shifted[-1] -= w
    roots = sorted(np.roots(shifted), key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    clusters: list[list[complex]] = []
    for r in roots:
        for cluster in clusters:
            if abs(r - cluster[0]) < tol:
                cluster.append(r)
                break
        else:
            clusters.append([r])
    out = []
    for cluster in clusters:
        center = sum(cluster) / len(cluster)
        if abs(center.imag) < tol:
            out.append((center.real, len(cluster)))
    out.sort(key=lambda xr: xr[0])
    return out


def real_polynomial_from_factored(d, coefficients, branch_data, values, profiles):
    """Build a RealPolynomial directly from known factored data (test construction)."""
    return RealPolynomial(
        d=d,
        coefficients=tuple(coefficients),
        profiles=tuple(profiles),
        values=tuple(values),
        real_preimages=tuple(tuple(seq) for seq, _ in branch_data),
        nonreal_orders=tuple(tuple(extra) for _, extra in branch_data),
    )


def cubic_solution_coefficients(w1, w2):
    """All (p, q) with z^3 + p z + q having branch values w1, w2 over profiles (2,1).

    Eliminating by hand: critical points +-c with p = -3 c^2, the two
    critical values are q -+ 2 c^3, so q = (w1 + w2) / 2 and 4 c^3 = w2 - w1.
    """
    q = (w1 + w2) / 2.0
    base = (w2 - w1) / 4.0
    out = []
    for k in range(3):
        c = abs(base) ** (1.0 / 3.0) * np.exp(2j * np.pi * k / 3.0)
        if base < 0:
            c = -c
        out.append((-3.0 * c * c, complex(q)))
    return out


def quartic_double_solutions(w_single, w_double):
    """Solutions (z^2 + v)^2 + w_double for profiles (2,1,1) at w_single, (2,2) at w_double.

    v^2 = w_single - w_double; expanding gives coefficients (2v, 0, v^2 + w_double).
    """
    v2 = complex(w_single - w_double)
    out = []
    for v in (np.sqrt(v2), -np.sqrt(v2)):
        out.append((2.0 * v, 0.0 * v, v * v + w_double))
    return out


def quartic_cusp_solutions(w_triple, w_simple):
    """Solutions (z - a)^3 (z + 3a) + w_triple for profiles (3,1) at w_triple, (2,1,1) at w_simple.

    The free critical point sits at -2a with value w_triple - 27 a^4, so
    27 a^4 = w_triple - w_simple; expansion gives (-6a^2, 8a^3, w_triple - 3a^4).
    """
    a4 = complex(w_triple - w_simple) / 27.0
    a0 = a4 ** 0.25
    out = []
    for k in range(4):
        a = a0 * np.exp(2j * np.pi * k / 4.0)
        out.append((-6.0 * a * a, 8.0 * a**3, w_triple - 3.0 * a**4))
    return out


def match_coefficient_sets(found, expected, tol=1e-8):
    """Each expected coefficient vector matches exactly one found vector, and back."""
    found = [np.asarray(f, dtype=complex) for f in found]
    expected = [np.asarray(e, dtype=complex) for e in expected]
    if len(found) != len(expected):
        return False
    used = set()
    for e in expected:
        hit = None
        for i, f in enumerate(found):
            if i in used:
                continue
            if np.max(np.abs(f - e)) < tol:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def run_cli_in_process(argv):
    """Exit code, stderr and ``result`` block of ``realhurwitz.cli.main(argv)``.

    ``result`` is None when the command prints no payload (an error exit).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    return {
        "argv": list(argv),
        "exit": code,
        "stderr": err.getvalue(),
        "result": json.loads(text)["result"] if text else None,
    }
