import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from realhurwitz import (
    AmbiguousRealness,
    DegenerateConfiguration,
    IncompleteEnumeration,
    OvercountDetected,
    Partition,
    ValidationError,
    build_system,
    classify_real,
    count_factorizations,
    parse_profiles,
    residual,
    solve_all,
    validate_branch_spec,
)
from realhurwitz import polysolve
from realhurwitz.cli import _solve_cached, main
from realhurwitz.polysolve import (
    SolutionSet,
    _newton_batch,
    _real_polynomials,
    _rounding_bound,
    _solve_linear_batch,
    canonical_coefficients,
    residual_and_jacobian_batch,
    residual_batch,
    match_index,
    normal_coefficients,
    residual_bound,
    root_bound,
    rotate_coefficients,
)
from realhurwitz.verify import enumerate_sweep_specs

from helpers import (
    cubic_solution_coefficients,
    fd_jacobian,
    kernel_canonical,
    kernel_real_projection,
    kernel_residual,
    kernel_residual_and_jacobian,
    match_coefficient_sets,
    quartic_cusp_solutions,
    plain_newton,
    quartic_double_solutions,
)

CUBIC = validate_branch_spec(parse_profiles("2,1|2,1"), (-2, 2))
QUARTIC_DOUBLE = validate_branch_spec(parse_profiles("2,1,1|2,2"), (2, 1))
QUARTIC_CUSP = validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1))
# the two-branch d=5 and d=6 specs of the benchmark's solve workload
SOLVE_SPECS = (
    "4,1|2,1,1,1",
    "3,2|2,1,1,1",
    "3,1,1|3,1,1",
    "5,1|2,1,1,1,1",
    "4,1,1|3,1,1,1",
    "3,2,1|3,1,1,1",
)


def never_stop(points, norms):
    """A Newton ``stop`` that never ends the batch, so it changes no output."""
    return False


def lockstep_newton(system, starts, cfg):
    """``_newton_batch`` with a lead of the whole chunk, so every active row advances together."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polysolve, "_LEAD_ROWS", polysolve._CHUNK_SIZE)
        return _newton_batch(system, starts, cfg, never_stop)


def test_build_system_shapes():
    assert build_system(CUBIC).n == 4
    assert build_system(validate_branch_spec([Partition([4])], (5,))).n == 1
    assert build_system(QUARTIC_DOUBLE).n == 5


# the SystemSpec fields _system_plan builds once per ordered profile tuple
PLAN_FIELDS = (
    "slots",
    "branch_ranges",
    "root_index",
    "deriv_index",
    "deriv_factor",
    "last_slots",
    "free_columns",
    "slot_block",
    "same_branch",
    "slot_keys",
    "slot_mismatch",
)


def _plan_arrays(system):
    """Every array of the system's plan, the two same_branch index arrays apart."""
    arrays = [getattr(system, name) for name in PLAN_FIELDS[2:] if name != "same_branch"]
    return arrays + list(system.same_branch)


def test_plan_is_shared_read_only_by_one_profile_tuple():
    # two layouts of one profile tuple share every plan field, and only the
    # value gaps are their own; the same profiles in another order are
    # another plan
    profiles = parse_profiles("3,2,1|3,1,1,1")
    a = build_system(validate_branch_spec(profiles, (1, 2)))
    b = build_system(validate_branch_spec(profiles, (-5, 7)))
    assert all(getattr(a, name) is getattr(b, name) for name in PLAN_FIELDS)
    assert a.value_gaps.tolist() == [1.0] and b.value_gaps.tolist() == [12.0]
    for array in _plan_arrays(a):
        assert array.size and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array
    other = build_system(validate_branch_spec(profiles[::-1], (1, 2)))
    assert other.slots != a.slots
    assert all(getattr(other, name) is not getattr(a, name) for name in PLAN_FIELDS)


def _plan_from_scratch(profiles):
    """The plan fields of ``PLAN_FIELDS``, laid out slot by slot in plain loops."""
    slots = [(i, m) for i, lam in enumerate(profiles) for m in lam.parts]
    n, d = len(slots), profiles[0].d
    ranges, start = [], 0
    for lam in profiles:
        ranges.append((start, start + lam.length))
        start += lam.length
    end0 = ranges[0][1]

    def column(branch, drop=None):
        lo, hi = ranges[branch]
        return [s for s in range(lo, hi) for _ in range(slots[s][1] - (s == drop))]

    def ints(rows):
        return np.array(rows, dtype=np.intp)

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if slots[a][0] == slots[b][0]]
    return {
        "slots": tuple(slots),
        "branch_ranges": tuple(ranges),
        "root_index": ints([column(b) for b in range(len(profiles))]).T,
        "deriv_index": ints([column(slots[j][0], drop=j) for j in range(n)]).reshape(n, d - 1).T,
        "deriv_factor": np.array([-m for _, m in slots], dtype=complex),
        "last_slots": ints([hi - 1 for _, hi in ranges]),
        "free_columns": ints(list(range(end0, n))),
        "slot_block": ints([slots[j][0] - 1 for j in range(end0, n)]),
        "same_branch": (ints([a for a, _ in pairs]), ints([b for _, b in pairs])),
        "slot_keys": ints([[-m for _, m in slots], [b for b, _ in slots]]),
        "slot_mismatch": np.array([[sa != sb for sb in slots] for sa in slots]),
    }


@pytest.mark.parametrize(
    "text",
    ["4", "3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1", "2,2,1,1|2,1,1,1,1|2,1,1,1,1|2,1,1,1,1"],
)
def test_plan_matches_a_layout_built_from_scratch(text):
    profiles = parse_profiles(text)
    system = build_system(validate_branch_spec(profiles))
    for name, want in _plan_from_scratch(profiles).items():
        got = getattr(system, name)
        if isinstance(want, np.ndarray):
            got, want = (got,), (want,)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype and g.shape == w.shape, name
                assert np.array_equal(g, w), name
            else:
                assert g == w, name


def test_cold_and_warm_plans_solve_and_classify_alike(cfg):
    specs = [
        validate_branch_spec(parse_profiles(text))
        for text in ("3,2,1|3,1,1,1", "4,1|2,1,1,1", "2,1,1|2,1,1|2,1,1")
    ]
    polysolve._system_plan.cache_clear()
    runs = []
    for _ in range(2):
        sets = [solve_all(spec, cfg) for spec in specs]
        runs.append((sets, [classify_real(solset, cfg) for solset in sets]))
        # the first pass builds one plan per profile tuple, the second none
        assert polysolve._system_plan.cache_info().misses == len(specs)
    (cold_sets, cold_reals), (warm_sets, warm_reals) = runs
    assert all(_same_set(a, b) for a, b in zip(cold_sets, warm_sets))
    assert cold_reals == warm_reals and sum(map(len, cold_reals)) > 0


def test_residual_vanishes_at_exact_solution():
    # z^3 - 3z: over -2 the roots are 1 (double) and -2; over 2 they are -1 (double) and 2
    system = build_system(CUBIC)
    point = np.array([1.0, -2.0, -1.0, 2.0], dtype=complex)
    assert np.max(np.abs(residual(system, point))) < 1e-10
    coeffs = canonical_coefficients(system, point)
    assert np.allclose(coeffs, [-3.0, 0.0], atol=1e-12)


def test_jacobian_matches_finite_differences(cfg):
    rng = np.random.default_rng(7)
    for spec in (CUBIC, QUARTIC_DOUBLE, QUARTIC_CUSP):
        system = build_system(spec)
        for _ in range(20):
            x = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
            _, (jac,) = residual_and_jacobian_batch(system, x[None])
            approx = fd_jacobian(system, x, h=1e-6)
            rel = np.abs(jac - approx) / (1.0 + np.abs(jac))
            assert np.max(rel) < 1e-6


def test_degenerate_point_evaluates_finitely():
    system = build_system(CUBIC)
    point = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)  # all roots collapsed
    (f,), (jac,) = residual_and_jacobian_batch(system, point[None])
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(jac))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_set(a, b):
    """Equal spec and metadata, and bit-equal coefficient, point and residual arrays."""
    meta = ("spec", "target", "certificate", "starts_used", "seed")
    arrays = ("coefficients", "solutions", "residuals")
    return all(getattr(a, f) == getattr(b, f) for f in meta) and all(
        _same_bits(getattr(a, f), getattr(b, f)) for f in arrays
    )


def test_kernel_matches_factor_by_factor_reference(cfg):
    # the gathered product kernel repeats the reference's floating-point
    # operations in the same order, so every value agrees bit for bit
    specs = [validate_branch_spec(p) for p in enumerate_sweep_specs(4, 3)]
    specs += [validate_branch_spec(parse_profiles(text)) for text in SOLVE_SPECS]
    # a last slot of multiplicity 3, and four branches at d=6
    specs += [
        validate_branch_spec(parse_profiles(text))
        for text in ("3,3|2,1,1,1,1", "2,2,1,1|2,1,1,1,1|2,1,1,1,1|2,1,1,1,1")
    ]
    rng = np.random.default_rng(2024)
    for spec in specs:
        system = build_system(spec)
        # one point, one chunk of starts, and the line search's 12 lengths of a chunk
        for rows in (1, 64, 12 * 64):
            shape = (rows, system.n)
            points = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            points *= root_bound(spec) / 4.0
            f, jac = residual_and_jacobian_batch(system, points)
            ref_f, ref_jac = kernel_residual_and_jacobian(system, points)
            assert np.array_equal(f, ref_f) and _same_bits(f, ref_f)
            assert np.array_equal(jac, ref_jac) and _same_bits(jac, ref_jac)
            values = residual_batch(system, points)
            assert np.array_equal(values, ref_f) and _same_bits(values, ref_f)
            for x in points[:4]:
                coeffs, ref = canonical_coefficients(system, x), kernel_canonical(system, x)
                assert np.array_equal(coeffs, ref) and _same_bits(coeffs, ref)

    # conjugation-fixed points: each branch of 3,1,1|3,1,1 has one real root
    # and a conjugate pair
    system = build_system(validate_branch_spec(parse_profiles("3,1,1|3,1,1")))
    u = rng.standard_normal((64, system.n))
    pairs = u[:, [1, 4]] + 1j * u[:, [2, 5]]
    x = np.stack(
        (u[:, 0], pairs[:, 0], pairs[:, 0].conj(), u[:, 3], pairs[:, 1], pairs[:, 1].conj()),
        axis=1,
    )
    f, jac = residual_and_jacobian_batch(system, x)
    ref_f, ref_jac = kernel_residual_and_jacobian(system, x)
    assert _same_bits(f, ref_f) and _same_bits(jac, ref_jac)
    assert _same_bits(residual_batch(system, x), kernel_residual(system, x))


def test_cubic_solutions_match_closed_form(cfg):
    solset = solve_all(CUBIC, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 3
    assert np.all(solset.residuals < cfg.tol_residual)
    expected = cubic_solution_coefficients(-2.0, 2.0)
    assert match_coefficient_sets(solset.coefficients, expected, tol=1e-8)


def test_quartic_double_solutions_match_closed_form(cfg):
    solset = solve_all(QUARTIC_DOUBLE, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 2
    # attachment: (2,1,1) at 2, (2,2) at 1, so v^2 = 2 - 1
    expected = quartic_double_solutions(2.0, 1.0)
    assert match_coefficient_sets(solset.coefficients, expected, tol=1e-8)


def test_quartic_cusp_solutions_match_closed_form(cfg):
    solset = solve_all(QUARTIC_CUSP, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 4
    expected = quartic_cusp_solutions(28.0, 1.0)
    assert match_coefficient_sets(solset.coefficients, expected, tol=1e-8)


def test_root_assignments_have_declared_profiles(cfg):
    # each point's roots, split into branches as the JSON does, carry the
    # declared profiles, and each row's coefficients are those of its point
    solset = solve_all(QUARTIC_CUSP, cfg)
    system = build_system(QUARTIC_CUSP)
    assert solset.solutions.shape == (len(solset), system.n)
    for sol in solset.as_json_dict()["solutions"]:
        for branch, lam in zip(sol["roots"], QUARTIC_CUSP.profiles):
            assert sorted((m for _, m in branch), reverse=True) == list(lam.parts)
    for coeffs, point in zip(solset.coefficients, solset.solutions):
        assert np.allclose(canonical_coefficients(system, point), coeffs, rtol=0, atol=1e-12)


def test_classify_real_counts(cfg, monkeypatch):
    reals = classify_real(solve_all(CUBIC, cfg), cfg)
    assert len(reals) == 1
    assert np.allclose(reals[0].coefficients, (-3.0, 0.0), atol=1e-8)

    reals = classify_real(solve_all(QUARTIC_DOUBLE, cfg), cfg)
    assert len(reals) == 2

    swapped = validate_branch_spec(parse_profiles("2,1,1|2,2"), (1, 2))
    reals = classify_real(solve_all(swapped, cfg), cfg)
    assert reals == []

    # the real solutions are projected, not polished: classification builds
    # no Jacobian
    jacobians = []
    original = polysolve.residual_and_jacobian_batch

    def counting(system, points):
        jacobians.append(points.shape[0])
        return original(system, points)

    # a literal oracle: every solution is real to rounding or far from real,
    # and classify_real returns exactly the first kind
    for profiles in enumerate_sweep_specs(5, 3):
        spec = validate_branch_spec(profiles)
        for side in (spec, spec.reversed_spec()):
            solset = solve_all(side, cfg)
            table = solset.coefficients
            imag = np.max(np.abs(table.imag), axis=1)
            nearly_real = imag < 1e-12
            assert np.all(nearly_real | (imag > 1e-2))
            with monkeypatch.context() as patch:
                patch.setattr(polysolve, "residual_and_jacobian_batch", counting)
                reals = classify_real(solset, cfg)
            rows = [
                match_index(table.real, np.array([poly.coefficients]), cfg.tol_dedup)[0]
                for poly in reals
            ]
            assert sorted(rows) == list(np.flatnonzero(nearly_real))
            assert all(poly.residual <= cfg.tol_residual for poly in reals)
    assert jacobians == []


def _real_row(solset, coefficients):
    """The index of the solution with the given coefficients."""
    return next(
        i for i, c in enumerate(solset.coefficients) if np.allclose(c, coefficients, atol=1e-8)
    )


def _planted(solset, rows, **arrays):
    """solset cut down to the given rows, with any array replaced after the cut."""
    fields = {
        name: arrays.get(name, getattr(solset, name)[rows])
        for name in ("coefficients", "solutions", "residuals")
    }
    return dataclasses.replace(solset, **fields)


def _recorded(results, original):
    """original, with each result appended to results."""

    def wrapper(*args):
        results.append(original(*args))
        return results[-1]

    return wrapper


def _projected(system, points, cfg):
    """The real polynomials at points and the projected points (R, n) of their one product call."""
    gathered = []
    original = polysolve._batch_products

    def recording(roots):
        gathered.append(roots)
        return original(roots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polysolve, "_batch_products", recording)
        reals = _real_polynomials(system, points, cfg)
    (roots,) = gathered
    # roots is (d, k, R), branch b's column its slots repeated by multiplicity
    branches = [b for b, _ in system.slots]
    first = [list(system.root_index[:, b]).index(j) for j, b in enumerate(branches)]
    return reals, roots[first, branches].T


def test_real_points_are_conjugation_fixed(cfg):
    # the projected point of every real solution is exactly closed under
    # conjugation, branch by branch and multiplicity by multiplicity, and
    # its real roots have imaginary part exactly 0, bit for bit as the
    # root-by-root reference projects it
    projected = paired = 0
    specs = [validate_branch_spec(profiles) for profiles in enumerate_sweep_specs(5, 3)]
    for spec in specs + [spec.reversed_spec() for spec in specs]:
        system = build_system(spec)
        solset = solve_all(spec, cfg)
        points = solset.solutions[np.max(np.abs(solset.coefficients.imag), axis=1) <= 1e-2]
        _, xs = _projected(system, points, cfg)
        for point, x in zip(points, xs):
            assert np.array_equal(x, kernel_real_projection(system, point))
            for start, end in system.branch_ranges:
                for m in set(system.slots[j][1] for j in range(start, end)):
                    roots = x[start:end][[system.slots[j][1] == m for j in range(start, end)]]
                    assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))
            assert np.all(x[np.abs(point.imag) < 1e-9].imag == 0.0)
            assert np.max(np.abs(x - point)) < 1e-8
            assert np.max(np.abs(residual(system, x))) <= cfg.tol_residual
            projected += 1
            paired += int(np.any(x.imag != 0.0))
    assert projected > 30 and paired > 10


def test_classify_real_rejects_unpaired_root(cfg):
    # real coefficients, but one root of a conjugate pair moved away from its
    # mate, or the real root moved 10 tol_cluster off the axis
    solset = solve_all(QUARTIC_DOUBLE, cfg)
    row = _real_row(solset, (2.0, 0.0, 2.0))
    sol = solset.solutions[row]
    real = int(np.argmin(np.abs(sol.imag)))
    assert abs(sol[real].imag) < 1e-12 and abs(sol[-1].imag) > 1.0
    for j, shift in ((-1, 0.1), (real, 10j * cfg.tol_cluster)):
        point = sol.copy()
        point[j] += shift
        broken = _planted(solset, [row], solutions=point[None])
        with pytest.raises(AmbiguousRealness, match="no conjugate partner"):
            classify_real(broken, cfg)


@pytest.mark.parametrize(
    "order, error, message",
    [
        ((0, 1), AmbiguousRealness, "no conjugate partner"),
        ((1, 0), DegenerateConfiguration, "collapsed"),
    ],
)
def test_classify_real_raises_at_the_first_failing_row_of_any_kind(cfg, order, error, message):
    # row A has an unpaired root, row B two collapsed roots: the first of
    # them in the set raises, whatever its kind
    solset = solve_all(validate_branch_spec(parse_profiles("2,2|2,1,1")), cfg)
    a = _real_row(solset, (2.0, 0.0, 2.0))  # the real double root 0 over the second value
    b = _real_row(solset, (-2.0, 0.0, 2.0))  # the roots 0, -sqrt(2), sqrt(2) over it
    unpaired = solset.solutions[a].copy()
    assert abs(unpaired[2].imag) < 1e-12 and abs(unpaired[0].imag) > 0.5
    unpaired[2] += 10j * cfg.tol_cluster
    collapsed = solset.solutions[b].copy()
    collapsed[3] = collapsed[2]  # a simple root meets the double root
    rows = [a, b]
    solutions = np.array([unpaired, collapsed])[list(order)]
    planted = _planted(solset, [rows[i] for i in order], solutions=solutions)
    with pytest.raises(error, match=message):
        classify_real(planted, cfg)


def _projected_real(cfg):
    system = build_system(CUBIC)
    solset = solve_all(CUBIC, cfg)
    point = solset.solutions[_real_row(solset, (-3.0, 0.0))]  # z^3 - 3z
    (poly,), (x,) = _projected(system, point[None], cfg)
    return system, poly, x


def test_build_real_polynomial_rejects_collapsed_projection(cfg):
    system, poly, x = _projected_real(cfg)
    assert poly.coefficients == pytest.approx((-3.0, 0.0))
    assert np.all(x.imag == 0.0)  # every root of z^3 - 3z over -2 and 2 is real
    assert poly.nonreal_orders == ((), ())
    assert [m for branch in poly.real_preimages for _, m in branch] == [1, 2, 2, 1]
    x[1] = x[0]  # the double and the simple root over the first value meet
    with pytest.raises(DegenerateConfiguration, match="collapsed"):
        _real_polynomials(system, x[None], cfg)


def test_build_real_polynomial_rejects_residual_above_bound(cfg):
    system, _, x = _projected_real(cfg)
    x[0] += 1e-9  # still real and separated, but max|Re F| is 4e-9, 40 times the bound
    with pytest.raises(AmbiguousRealness, match="above the bound"):
        _real_polynomials(system, x[None], cfg)


@pytest.mark.parametrize("text", ["4,1,1|3,1,1,1", "2,1,1|2,1,1|2,1,1", "2,2|2,1,1"])
def test_real_polynomials_take_one_product_call(cfg, monkeypatch, text):
    # F and the coefficients come from one product call, equal bit for bit
    # to residual_batch's and canonical_coefficients', for the real points
    # of a solved set and for an empty real set
    spec = validate_branch_spec(parse_profiles(text))
    system, solset = build_system(spec), solve_all(spec, cfg)
    partners = polysolve.conjugation_partners(solset, cfg.tol_dedup)
    real = [i for i, j in enumerate(partners) if i == j]
    assert real
    for points in (solset.solutions[real], solset.solutions[real][:0]):
        products, residuals = [], []
        _, projected = _projected(system, points, cfg)
        with monkeypatch.context() as patch:
            for name, results in (("_batch_products", products), ("_assemble_residual", residuals)):
                patch.setattr(polysolve, name, _recorded(results, getattr(polysolve, name)))
            reals = _real_polynomials(system, points, cfg)
        assert len(products) == 1 and len(reals) == len(points)
        f = residual_batch(system, projected)
        assert residuals[0].shape == f.shape and residuals[0].tobytes() == f.tobytes()
        coeffs = np.array([p.coefficients for p in reals]).reshape(len(points), spec.d - 1)
        assert coeffs.tobytes() == canonical_coefficients(system, projected).real.tobytes()
        res = np.array([p.residual for p in reals])
        assert res.tobytes() == np.max(np.abs(f.real), axis=1).tobytes()


def test_residual_bound_is_tol_residual_at_small_values(cfg):
    # the sweep's and the benchmark's layouts keep |w| near 10 or below,
    # where the rounding floor lies far below tol_residual
    for profiles in enumerate_sweep_specs(6, 5):
        spec = validate_branch_spec(profiles, tuple(10.0 - i for i in range(len(profiles))))
        assert residual_bound(spec, cfg) == cfg.tol_residual
    # at large values the bound is the floor gamma (1 + max|w|)
    large = validate_branch_spec(CUBIC.profiles, (-1e6, 1e6))
    assert residual_bound(large, cfg) == _rounding_bound(large) * (1.0 + 1e6) > cfg.tol_residual


def test_solve_linear_batch_flags_only_the_singular_row():
    rng = np.random.default_rng(3)
    jac = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    jac[1, :, 0] = 0.0  # the middle Jacobian is singular
    rhs = rng.standard_normal((3, 4)) + 0j
    out, ok = _solve_linear_batch(jac, rhs)
    assert ok.tolist() == [True, False, True]
    for i in (0, 2):
        assert np.array_equal(out[i], np.linalg.solve(jac[i], rhs[i]))
    assert np.all(out[1] == 0.0)


def test_classify_real_preimage_data(cfg):
    reals = classify_real(solve_all(QUARTIC_DOUBLE, cfg), cfg)
    # canonical attachment: (2,2) at w=1, (2,1,1) at w=2
    even = next(p for p in reals if p.coefficients[0] > 0)  # (z^2+1)^2 + 1
    assert even.real_preimages[0] == ()  # +-i, no real preimage of 1
    assert even.nonreal_orders[0] == (2, 2)
    ((x, r),) = even.real_preimages[1]
    assert r == 2 and abs(x) < 1e-8

    odd = next(p for p in reals if p.coefficients[0] < 0)  # (z^2-1)^2 + 1
    seq = odd.real_preimages[0]
    assert [m for _, m in seq] == [2, 2]
    assert seq[0][0] == pytest.approx(-1.0, abs=1e-8)
    assert seq[1][0] == pytest.approx(1.0, abs=1e-8)
    assert [m for _, m in odd.real_preimages[1]] == [1, 2, 1]


def test_conjugation_and_rotation_closure(cfg):
    for spec in (CUBIC, QUARTIC_DOUBLE, QUARTIC_CUSP):
        solset = solve_all(spec, cfg)
        vectors = solset.coefficients

        def find(vec):
            for known in vectors:
                if np.max(np.abs(known - vec)) <= cfg.tol_dedup * (1 + np.max(np.abs(known))):
                    return True
            return False

        n_real = 0
        for vec in vectors:
            assert find(np.conj(vec))
            if np.max(np.abs(np.conj(vec) - vec)) <= cfg.tol_dedup:
                n_real += 1
            for t in range(spec.d):
                assert find(rotate_coefficients(vec, spec.d, t))
        assert n_real % 2 == len(vectors) % 2


def test_match_index_matches_loop_scan():
    def loop_scan(table, vec, tol):
        for idx, known in enumerate(table):
            scale = 1.0 + float(np.max(np.abs(known))) if known.size else 1.0
            if known.size == 0 or float(np.max(np.abs(vec - known))) <= tol * scale:
                return idx
        return None

    rng = np.random.default_rng(2)
    table = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    table[7] *= 100.0  # the scale comes from the known row, not the query
    for bump in (0.0, 0.9e-6, 0.9e-4, 1.1e-4, 1.0):
        queries = table + bump  # the whole bumped table is one batch of queries
        expected = [loop_scan(table, vec, 1e-6) for vec in queries]
        assert match_index(table, queries, 1e-6) == expected
        if bump == 0.0:
            assert expected == list(range(40))
    # the first matching row wins
    assert match_index(np.vstack((table, table)), table[[5, 0]], 1e-6) == [5, 0]
    assert match_index(table[:0], table[:2], 1e-6) == [None, None]
    assert match_index(np.empty((2, 0), dtype=complex), np.empty((3, 0)), 1e-6) == [0, 0, 0]
    # an empty query table gets an empty list, whatever the table
    assert match_index(table, table[:0], 1e-6) == []
    assert match_index(table[:0], table[:0], 1e-6) == []
    assert match_index(np.empty((2, 0), dtype=complex), np.empty((0, 0)), 1e-6) == []


def test_determinism_same_seed(cfg):
    first = solve_all(QUARTIC_CUSP, cfg)
    second = solve_all(QUARTIC_CUSP, cfg)
    assert _same_set(first, second)


def test_output_order_does_not_depend_on_the_representative(cfg):
    # the same solutions accepted in reverse order, each with its equal-multiplicity
    # roots listed in reverse, give the same records in the same order
    spec = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"))
    system = build_system(spec)
    solset = solve_all(spec, cfg)
    branch, order = np.array(system.slots).T
    relabel = np.lexsort((-np.arange(system.n), -order, branch))
    assert not np.array_equal(relabel, np.arange(system.n))
    collector = polysolve._Collector(system, solset.target, cfg)
    points = solset.solutions[::-1][:, relabel]
    assert collector.accept(points, np.max(np.abs(residual_batch(system, points)), axis=1)).all()
    again = collector.build_set(solset.starts_used, "COMPLETE")
    assert np.allclose(again.coefficients, solset.coefficients, rtol=0, atol=1e-12)
    assert np.allclose(again.solutions, solset.solutions, rtol=0, atol=1e-12)


def test_solutions_lie_in_the_root_ball(cfg):
    # the theorem behind the escape rule: |root| <= 4 max|w_i|^(1/d)
    quintic = validate_branch_spec(parse_profiles("4,1|2,1,1,1"), (-1.3, 2.1))
    sextic = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"), (-0.7, 0.4))
    for spec in (CUBIC, QUARTIC_DOUBLE, QUARTIC_CUSP, quintic, sextic):
        bound = 4.0 * max(abs(w) for w in spec.values) ** (1.0 / spec.d)
        assert np.abs(solve_all(spec, cfg).solutions).max() <= bound


@pytest.mark.parametrize("text", ["3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"])
def test_each_orbit_is_harvested_once(cfg, monkeypatch, text):
    # the dihedral orbit {rot_t(x), conj(rot_t(x))} of a new solution, and
    # for the reflection-symmetric 2,1,1|2,1,1|2,1,1 its reversal images
    # too, is taken exactly: no Newton runs inside offer_all, and a
    # hand-over makes one accept call on its rows, then, when it kept k of
    # them, one residual call and one accept call on their (2d - 1) k mates,
    # (4d - 1) k with the reversal; accepted mates start no harvest of their own
    spec = validate_branch_spec(parse_profiles(text))
    d = spec.d
    reversal = polysolve._affine_map(spec, spec, reverse=True)
    assert (reversal is not None) == (text == "2,1,1|2,1,1|2,1,1")
    newton_calls = []
    handovers = []  # per offer_all call: its accept (rows, kept) and residual rows
    original_newton = polysolve._newton_batch
    original_residual = polysolve.residual_batch
    original_accept = polysolve._Collector.accept
    original_offer_all = polysolve._Collector.offer_all

    def newton(system, starts, *args, **kwargs):
        if handovers and handovers[-1]["open"]:
            newton_calls.append(starts.shape[0])
        return original_newton(system, starts, *args, **kwargs)

    def residuals(system, points):
        if handovers and handovers[-1]["open"]:
            handovers[-1]["residual"].append(points.shape[0])
        return original_residual(system, points)

    def accept(self, cands, norms):
        kept = original_accept(self, cands, norms)
        if handovers and handovers[-1]["open"]:
            handovers[-1]["accept"].append((len(cands), int(kept.sum())))
        return kept

    def offer_all(self, points, norms):
        handovers.append({"open": True, "accept": [], "residual": []})
        try:
            return original_offer_all(self, points, norms)
        finally:
            handovers[-1]["open"] = False

    monkeypatch.setattr(polysolve, "_newton_batch", newton)
    monkeypatch.setattr(polysolve, "residual_batch", residuals)
    monkeypatch.setattr(polysolve._Collector, "accept", accept)
    monkeypatch.setattr(polysolve._Collector, "offer_all", offer_all)
    solset = solve_all(spec, cfg)
    coeffs = solset.coefficients
    bases = [coeffs]  # each solution's coefficients and, with the reversal, its image's
    if reversal is not None:
        c, columns = reversal
        images = c * solset.solutions[:, columns]
        bases.append(canonical_coefficients(build_system(spec), images))
    orbit = [None] * len(coeffs)
    orbits = 0
    for i in range(len(coeffs)):
        if orbit[i] is not None:
            continue
        for base in bases:
            for t in range(d):
                rotated = rotate_coefficients(base[i], d, t)
                for mate in (rotated, np.conj(rotated)):
                    (j,) = match_index(coeffs, mate[None], cfg.tol_dedup)
                    assert j is not None  # a complete set is closed under the group
                    orbit[j] = orbits
        orbits += 1
    assert solset.certificate == "COMPLETE"
    assert orbits < len(coeffs)
    assert newton_calls == []
    harvests = 0
    for handover in handovers:
        (_, kept), *mates = handover["accept"]
        mate_rows = [(2 * d * len(bases) - 1) * kept] if kept else []
        assert [rows for rows, _ in mates] == handover["residual"] == mate_rows
        harvests += kept
    assert orbits <= harvests < len(coeffs)


@pytest.mark.parametrize(
    "text", ["2,1|2,1", "2,1,1|2,1,1|2,1,1", "2,1,1,1|2,1,1,1|2,1,1,1|2,1,1,1"]
)
def test_reversal_maps_the_solution_set_onto_itself(cfg, text):
    # the reversal P -> w_0 + w_last - P(z / c), c^d = -1, takes a point x to
    # c x with its branch blocks reversed; every image solves the spec within
    # residual_bound, and the images are the set's solutions, each once
    spec = validate_branch_spec(parse_profiles(text))
    system = build_system(spec)
    solset = solve_all(spec, cfg)
    c, columns = polysolve._affine_map(spec, spec, reverse=True)
    assert abs(c**spec.d + 1.0) < 1e-12
    images = c * solset.solutions[:, columns]
    assert np.abs(residual_batch(system, images)).max() <= residual_bound(spec, cfg)
    normal = normal_coefficients(spec.values, solset.coefficients)
    queries = normal_coefficients(spec.values, canonical_coefficients(system, images))
    assert sorted(match_index(normal, queries, cfg.tol_dedup)) == list(range(len(solset)))


@pytest.mark.parametrize("text", ["2,1|2,1", "3,1,1|3,1,1", "2,2,1|2,2,1"])
def test_two_branch_reversal_stays_in_dihedral_orbits(cfg, text):
    # these are the equal-profile two-branch specs of a degree the solver
    # takes; the reversal image of each solution is a rotation or conjugate
    # of it, so its mates would all be duplicates, and none are harvested
    spec = validate_branch_spec(parse_profiles(text))
    system = build_system(spec)
    solset = solve_all(spec, cfg)
    c, columns = polysolve._affine_map(spec, spec, reverse=True)
    images = canonical_coefficients(system, c * solset.solutions[:, columns])
    for coeffs, image in zip(solset.coefficients, images):
        orbit = [rotate_coefficients(coeffs, spec.d, t) for t in range(spec.d)]
        orbit += [np.conj(rotated) for rotated in orbit]
        assert match_index(np.array(orbit), image[None], cfg.tol_dedup) != [None]
    assert polysolve._Collector(system, len(solset), cfg).reversal is None


def _calls(monkeypatch, name) -> list:
    """The arguments of every call of polysolve's function name from now on."""
    calls = []
    original = getattr(polysolve, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polysolve, name, spy)
    return calls


@pytest.mark.parametrize(
    "text, values",
    [
        ("3,1|2,1,1", None),
        ("2,1,1|2,1,1|2,1,1", (1, 2, 3.5)),
        ("2,1,1|2,1,1|2,1,1", (1, 2, 3 + 1e-9)),
        ("2,1,1|2,1,1|2,1,1", (1, 2, 3 + 1e-12)),
    ],
)
def test_asymmetric_spec_gets_no_reversal_mates(cfg, monkeypatch, text, values):
    # 3,1|2,1,1 is no palindrome, so the reversal is refused before any
    # value is compared.  The layouts of 2,1,1|2,1,1|2,1,1 compare their
    # values once and do not reflect onto themselves within F's rounding
    # floor; at 3 + 1e-12 the images would still pass the residual bound,
    # unpolished and 1e-12 off.  Every hand-over is harvested with the
    # dihedral mates alone, and the multistart certifies the whole set
    spec = validate_branch_spec(parse_profiles(text), values)
    compared = _calls(monkeypatch, "match_index")  # one per value comparison
    assert polysolve._Collector(build_system(spec), 0, cfg).reversal is None
    assert len(compared) == (values is not None)
    solset = solve_all(spec, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == solset.target


def _accepted(system, target, cfg, before, table, norms, row_by_row):
    """Collector state after accepting before, then table in one call or one row at a time.

    Returns the accepted arrays' bytes, the collapse counts, the kept mask
    and, when a row raised, its error type (and its row, row by row)."""
    collector = polysolve._Collector(system, target, cfg)
    collector.accept(*before)
    kept, raised = [], None
    try:
        if row_by_row:
            for row, norm in zip(table, norms):
                kept += collector.accept(row[None], [norm]).tolist()
        else:
            kept = collector.accept(table, norms).tolist()
    except (OvercountDetected, DegenerateConfiguration) as exc:
        raised = (type(exc), len(kept)) if row_by_row else type(exc)
    arrays = (collector.points, collector.coeffs, collector.residuals)
    return [a.tobytes() for a in arrays], dict(collector.collapse_counts), kept, raised


def test_table_accept_matches_row_by_row(cfg):
    # a table accepted in one call keeps, rejects, counts collapses and
    # raises exactly as its rows accepted one at a time; the first table
    # spans two 64-row chunks, with duplicates of rows kept in either
    spec = validate_branch_spec(parse_profiles("2,1,1|2,1,1|2,1,1"))
    system = build_system(spec)
    solset = solve_all(spec, cfg)
    sols, res, target = solset.solutions, solset.residuals, solset.target
    assert target == 16 and system.slots[1] == system.slots[2] == (0, 1)
    swapped = sols[:, [0, 2, 1, *range(3, system.n)]]  # the same polynomials
    collapsed = sols.copy()
    collapsed[:, 2] = collapsed[:, 1]
    bound = residual_bound(spec, cfg)
    rows = (
        [(sols[i], res[i]) for i in range(3, 10)]  # rows 0-6: new
        + [(swapped[3], res[3])]  # a duplicate of table row 0
        + [(sols[1], res[1])]  # a duplicate of an accepted row
        + [(sols[10], 2.0 * bound)]  # residual above the bound
        + [(collapsed[11], 0.0)]  # collapsed roots
        + [(sols[i % 15], res[i % 15]) for i in range(60)]  # rows 11-70: 10-14 new
        + [(sols[15], res[15]), (swapped[15], res[15]), (collapsed[15], 0.0)]
    )
    table, norms = np.array([x for x, _ in rows]), np.array([r for _, r in rows])
    before = (sols[:3], res[:3])
    one_call = _accepted(system, target, cfg, before, table, norms, False)
    assert one_call == _accepted(system, target, cfg, before, table, norms, True)
    arrays, counts, kept, raised = one_call
    assert np.flatnonzero(kept).tolist() == [*range(7), *range(21, 26), 71]
    assert raised is None and list(counts.values()) == [1, 1]
    points = np.vstack((sols[:3], table[kept]))
    assert arrays[:2] == [points.tobytes(), canonical_coefficients(system, points).tobytes()]
    # the 25th collapse of one polynomial, and the first new solution past
    # the target, raise at the same row, with the rows before it kept.  So
    # does the 25th repeat of a collapsed 3,1,1|3,1,1 point at values 0 and
    # 1e9, each with 1e-13 relative noise: collapses are counted by their
    # normal coefficients, which the noise leaves on one 6-decimal key
    degenerate = [collapsed[11]] * 24 + [sols[3], collapsed[11], sols[4]]
    overcount = [sols[3], swapped[3], sols[4], sols[5]]
    small = validate_branch_spec(parse_profiles("3,1,1|3,1,1"))
    far = build_system(validate_branch_spec(small.profiles, (0.0, 1e9)))
    point = polysolve._carried_points((solve_all(small, cfg),), far)[0]
    point[2] = point[1]
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((30, far.n)) + 1j * rng.standard_normal((30, far.n))
    noisy = point * (1.0 + 1e-13 * noise)
    for system, before, table, target, error, row in (
        (system, before, degenerate, target, DegenerateConfiguration, 25),
        (system, before, overcount, 4, OvercountDetected, 2),
        (far, (noisy[:0], np.zeros(0)), noisy, 5, DegenerateConfiguration, 24),
    ):
        table, norms = np.array(table), np.zeros(len(table))
        one_call = _accepted(system, target, cfg, before, table, norms, False)
        row_by_row = _accepted(system, target, cfg, before, table, norms, True)
        assert one_call[3] == error and row_by_row[3] == (error, row)
        assert one_call[:2] == row_by_row[:2]


def _offer_row_by_row(collector, table, norms):
    """The reference of offer_all: accept each row, then, when it is new, its 2d - 1 mates."""
    system = collector.system
    d = system.d
    for x, norm in zip(table, norms):
        if collector.accept(x[None], [norm])[0]:
            rotated = np.array([x * np.exp(-2j * np.pi * t / d) for t in range(d)])
            mates = np.stack((rotated, rotated.conj()), axis=1).reshape(2 * d, -1)[1:]
            collector.accept(mates, np.max(np.abs(residual_batch(system, mates)), axis=1))


@pytest.mark.parametrize("tol_cluster", [None, 1e3])
def test_offer_all_matches_a_row_by_row_reference(cfg, tol_cluster):
    # offer_all takes a hand-over as one table and the new rows' mates as
    # another; the collector ends with the solutions, collapse counts and
    # completeness of the rows and their mates accepted one row at a time.
    # The table holds a rotation mate and a conjugate mate of an earlier
    # row, a match of an accepted row, a swapped-root duplicate and
    # collapsed rows; with tol_cluster 1e3 every row counts as collapsed.
    # Solutions 0, 5 and 9 lie in three different orbits.
    spec = validate_branch_spec(parse_profiles("2,1,1|2,1,1|2,1,1"))
    system = build_system(spec)
    d = spec.d
    solset = solve_all(spec, cfg)
    sols = solset.solutions
    swapped = sols[:, [0, 2, 1, *range(3, system.n)]]  # the same polynomials
    collapsed = sols.copy()
    collapsed[:, 2] = collapsed[:, 1]
    rotated = sols[5] * np.exp(-2j * np.pi / d)
    table = np.vstack(
        (sols[5], sols[9], rotated, sols[0].conj(), sols[5].conj(), swapped[9], collapsed[:2], sols)
    )
    norms = np.max(np.abs(residual_batch(system, table)), axis=1)
    norms[6:8] = 0.0
    states = []
    for reference in (False, True):
        collector = polysolve._Collector(system, solset.target, cfg)
        _offer_row_by_row(collector, sols[:1], solset.residuals[:1])
        orbit = len(collector)
        if tol_cluster is not None:
            collector.config = cfg.replace(tol_cluster=tol_cluster)
        if reference:
            _offer_row_by_row(collector, table, norms)
        else:
            collector.offer_all(table, norms)
        normal = normal_coefficients(spec.values, collector.coeffs)
        states.append((normal, dict(collector.collapse_counts), collector.complete))
    (normal, counts, complete), (ref_normal, ref_counts, ref_complete) = states
    assert len(normal) == len(ref_normal)
    assert sorted(match_index(ref_normal, normal, cfg.tol_dedup)) == list(range(len(normal)))
    assert counts == ref_counts and complete == ref_complete
    if tol_cluster is None:
        assert complete and sum(counts.values()) == 2
    else:
        assert len(normal) == orbit and sum(counts.values()) == len(table)


def test_known_set_listed_twice_is_accepted_once(cfg, monkeypatch):
    # every carried row is accepted as it is in one table call; the
    # second copy of each row is a duplicate, and no start is drawn
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"))
    known = solve_all(spec, cfg)
    twice = _planted(known, np.tile(np.arange(len(known)), 2))
    kept = []
    original = polysolve._Collector.accept

    def accept(self, cands, norms):
        kept.append(original(self, cands, norms))
        return kept[-1]

    monkeypatch.setattr(polysolve._Collector, "accept", accept)
    once = solve_all(spec.reversed_spec(), cfg, known=(known,))
    mask = [True] * len(known)
    assert [m.tolist() for m in kept] == [mask]
    kept.clear()
    doubled = solve_all(spec.reversed_spec(), cfg, known=(twice,))
    assert [m.tolist() for m in kept] == [mask + [False] * len(known)]
    assert doubled.starts_used == 0 and _same_set(doubled, once)


def test_carried_row_off_the_solution_set_is_refilled(cfg, monkeypatch):
    # carried points are accepted as they are, with no polish, so nothing in
    # a known set is trusted: a root moved by 1e-6 puts its row's residual
    # above the bound, accept drops that row alone, and the multistart
    # finds the solution it missed
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"))
    known = solve_all(spec, cfg)
    moved = known.solutions.copy()
    moved[0, -1] += 1e-6
    system = build_system(spec)
    assert np.abs(residual_batch(system, moved[:1])).max() > residual_bound(spec, cfg)
    kept = []
    original = polysolve._Collector.accept

    def accept(self, cands, norms):
        kept.append(original(self, cands, norms))
        return kept[-1]

    monkeypatch.setattr(polysolve._Collector, "accept", accept)
    solset = solve_all(spec, cfg, known=(_planted(known, slice(None), solutions=moved),))
    assert kept[0].tolist() == [False] + [True] * (len(known) - 1)
    assert solset.starts_used > 0
    _assert_same_set(solset, known, cfg)


def test_escaping_start_is_retired_after_one_jacobian(cfg, monkeypatch):
    system = build_system(CUBIC)
    calls = []
    original = polysolve.residual_and_jacobian_batch

    def counting(system, points):
        calls.append(points.shape[0])
        return original(system, points)

    monkeypatch.setattr(polysolve, "residual_and_jacobian_batch", counting)
    far = 100.0 * root_bound(CUBIC) * np.exp(2j * np.pi * np.arange(system.n) / system.n)
    _, ok, _ = _newton_batch(system, far[None, :], cfg, never_stop)
    assert not ok[0] and len(calls) <= 1

    exact = np.array([1.0, -2.0, -1.0, 2.0], dtype=complex)
    points, ok, _ = _newton_batch(system, (exact + 1e-3 * (1 + 1j))[None, :], cfg, never_stop)
    assert ok[0] and np.max(np.abs(points[0] - exact)) < 1e-9


@pytest.mark.parametrize(
    "text, values, seed",
    [
        ("3,1|2,1,1", (28, 1), 3),
        ("4,1|2,1,1,1", (-1.3, 2.1), 5),
        ("2,1,1|2,1,1|2,1,1", None, 11),
        ("5,1|2,1,1,1,1", None, 13),
    ],
)
def test_newton_retirement_matches_plain_newton(cfg, text, values, seed):
    # early retirement drops only rows that plain Newton also fails on, and
    # leaves every converged row, and its residual norm, bit for bit where
    # plain Newton puts it
    spec = validate_branch_spec(parse_profiles(text), values)
    system = build_system(spec)
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((64, system.n)) + 1j * rng.standard_normal((64, system.n))
    starts *= root_bound(spec) / 4.0 / np.sqrt(2.0)
    points, ok, norms = _newton_batch(system, starts, cfg, never_stop)
    ref_points, ref_ok, ref_norms = plain_newton(system, starts, cfg)
    assert ref_ok.any()
    assert np.array_equal(ok, ref_ok)
    assert points[ok].tobytes() == ref_points[ref_ok].tobytes()
    assert norms[ok].tobytes() == ref_norms[ref_ok].tobytes()


def test_line_search_makes_one_residual_call_per_iteration(cfg, monkeypatch):
    # one call for the initial residuals, then per iteration one for every
    # length of every row
    spec = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"))
    system = build_system(spec)
    rng = np.random.default_rng(5)
    starts = rng.standard_normal((64, system.n)) + 1j * rng.standard_normal((64, system.n))
    starts *= root_bound(spec) / 4.0 / np.sqrt(2.0)
    calls = {"residual": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(system, points):
            calls[name] += 1
            return fn(system, points)

        return wrapper

    monkeypatch.setattr(polysolve, "residual_batch", counted("residual", residual_batch))
    monkeypatch.setattr(
        polysolve,
        "residual_and_jacobian_batch",
        counted("jacobian", residual_and_jacobian_batch),
    )
    _, ok, _ = _newton_batch(system, starts, cfg, never_stop)
    assert ok.any() and calls["jacobian"] > 0
    assert calls["residual"] <= 1 + calls["jacobian"]


def test_jacobian_call_makes_one_product_call(monkeypatch):
    # the branch products behind F come from the derivative products
    calls = []
    original = polysolve._batch_products

    def counting(roots):
        calls.append(roots.shape)
        return original(roots)

    monkeypatch.setattr(polysolve, "_batch_products", counting)
    for text in ("3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"):
        system = build_system(validate_branch_spec(parse_profiles(text)))
        x = np.random.default_rng(3).standard_normal((8, system.n)) + 0j
        calls.clear()
        residual_and_jacobian_batch(system, x)
        assert calls == [(system.d - 1, system.n, 8)]


@pytest.mark.parametrize("text", ["3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"])
def test_plan_pairs_and_batches_match_the_per_point_forms(text):
    # the stored same-branch pairs decide separation as the pairwise loop
    # does, and a batch's coefficients are each row's, bit for bit
    system = build_system(validate_branch_spec(parse_profiles(text)))
    x = np.random.default_rng(5).standard_normal((6, system.n)) + 0j
    start, end = system.branch_ranges[-1]
    x[1, end - 1] = x[1, end - 2] + 1e-3
    x[2, start] = x[2, start + 1] + 1e-2j
    x[3, end - 1] = np.nan
    for row in x:
        for tol in (1e-4, 1e-3, 1e-2, 1.0):
            looped = not any(
                abs(row[a] - row[b]) <= tol
                for lo, hi in system.branch_ranges
                for a in range(lo, hi)
                for b in range(a + 1, hi)
            )
            assert polysolve._well_separated(system, row, tol) == looped
    rows = np.array([canonical_coefficients(system, row) for row in x])
    assert np.array_equal(canonical_coefficients(system, x), rows, equal_nan=True)


def test_incomplete_enumeration_raises(cfg):
    tiny = cfg.replace(start_budget=1)
    with pytest.raises(IncompleteEnumeration) as err:
        solve_all(validate_branch_spec(parse_profiles("2,1,1|2,1,1|2,1,1")), tiny)
    assert err.value.target == 16
    assert err.value.partial.certificate == "INCOMPLETE"


def test_overcount_detected_with_misconfigured_tolerances(cfg):
    # sloppy convergence plus a dedup tolerance far below the resulting
    # scatter makes one mathematical solution count several times
    broken = cfg.replace(tol_dedup=1e-15, tol_residual=1e-2)
    with pytest.raises(OvercountDetected):
        solve_all(CUBIC, broken)


def test_ambiguous_realness_raises(cfg):
    # a planted near-copy R + eta of the real solution R pairs with R, while R
    # pairs with itself: the conjugation pairing is not an involution
    solset = solve_all(CUBIC, cfg)
    row = _real_row(solset, (-3.0, 0.0))  # z^3 - 3z
    real = solset.coefficients[row]
    eta = 0.6 * cfg.tol_dedup * (1.0 + np.max(np.abs(real)))
    planted = _planted(solset, [row, row], coefficients=np.array([real, real + eta]))
    with pytest.raises(AmbiguousRealness, match="not an involution"):
        classify_real(planted, cfg)


@pytest.mark.parametrize(
    "order, message", [((0, 1, 2), "above the bound"), ((1, 2, 0), "not an involution")]
)
def test_classify_real_raises_at_the_first_failing_solution(cfg, order, message):
    # a real solution whose residual exceeds the bound, and a near-copy that
    # breaks the conjugation pairing: whichever comes first raises
    solset = solve_all(CUBIC, cfg)
    row = _real_row(solset, (-3.0, 0.0))  # z^3 - 3z
    real = solset.coefficients[row]
    eta = 0.6 * cfg.tol_dedup * (1.0 + np.max(np.abs(real)))
    moved = solset.solutions[row].copy()
    moved[0] += 1e-9  # still real and separated, but max|Re F| is 40 times the bound
    coefficients = np.array([real, real, real + eta])[list(order)]
    solutions = np.array([moved, solset.solutions[row], solset.solutions[row]])[list(order)]
    planted = _planted(solset, [row] * 3, coefficients=coefficients, solutions=solutions)
    with pytest.raises(AmbiguousRealness, match=message):
        classify_real(planted, cfg)


def test_degenerate_configuration_raises(cfg):
    # a cluster tolerance wider than the actual root separations makes every
    # converged point look collapsed; the persistence counter must trip
    coarse = cfg.replace(tol_cluster=10.0)
    with pytest.raises(DegenerateConfiguration):
        solve_all(CUBIC, coarse)


def test_identity_spec_solution(cfg):
    spec = validate_branch_spec([Partition([1])])
    solset = solve_all(spec, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 1
    reals = classify_real(solset, cfg)
    assert len(reals) == 1 and reals[0].sign == 1


@pytest.mark.parametrize(
    "spec",
    [
        validate_branch_spec([Partition([1])]),
        CUBIC,
        validate_branch_spec(parse_profiles("3,2,1|3,1,1,1")),
    ],
    ids=["identity", "cubic", "d6"],
)
def test_solution_set_json_roundtrip(cfg, spec):
    solset = solve_all(spec, cfg)
    data = json.loads(json.dumps(solset.as_json_dict()))
    assert _same_set(SolutionSet.from_json_dict(data), solset)


@pytest.mark.parametrize("source", ["solved", "json", "identity", "planted"])
def test_solution_set_arrays_are_read_only(cfg, source):
    solset = solve_all(CUBIC, cfg)
    if source == "json":
        solset = SolutionSet.from_json_dict(json.loads(json.dumps(solset.as_json_dict())))
    elif source == "identity":
        solset = solve_all(validate_branch_spec([Partition([1])]), cfg)
    elif source == "planted":
        solset = _planted(solset, [0], solutions=np.zeros((1, 4), dtype=complex))
    n = len(solset)
    d, width = solset.spec.d, 0 if solset.spec.is_identity else build_system(solset.spec).n
    assert solset.coefficients.shape == (n, d - 1) and solset.coefficients.dtype == complex
    assert solset.solutions.shape == (n, width) and solset.solutions.dtype == complex
    assert solset.residuals.shape == (n,) and solset.residuals.dtype == float
    for array in (solset.coefficients, solset.solutions, solset.residuals):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_solution_set_json_rejects_foreign_multiplicities(cfg):
    data = solve_all(CUBIC, cfg).as_json_dict()
    data["solutions"][0]["roots"][1].reverse()  # (1, 2) in a (2, 1) branch
    with pytest.raises(ValidationError, match="multiplicities"):
        SolutionSet.from_json_dict(data)


def _assert_same_set(got, want, cfg):
    assert got.certificate == "COMPLETE" and len(got) == got.target == want.target
    assert match_coefficient_sets(got.coefficients, want.coefficients, tol=cfg.tol_dedup)


def test_cache_roundtrip(tmp_path, cfg):
    path = str(tmp_path / "cubic.json")
    first = _solve_cached(CUBIC, cfg, path)
    assert first.starts_used > 0
    # the second run carries the stored set and draws no start
    again = _solve_cached(CUBIC, cfg, path)
    assert again.starts_used == 0
    _assert_same_set(again, first, cfg)
    assert _same_set(_solve_cached(CUBIC, cfg, path), again)


def _rewrite_cache(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_tampered_cache_is_resolved(tmp_path, cfg):
    path = str(tmp_path / "cubic.json")
    fresh = _solve_cached(CUBIC, cfg, path)

    def move_point(data):
        # a root of the last branch, far off the solution set
        data["solutions"][0]["roots"][-1][-1][0][0] += 0.5

    _rewrite_cache(path, move_point)
    again = _solve_cached(CUBIC, cfg, path)
    _assert_same_set(again, fresh, cfg)


def _shift_coefficient(data):
    # stored coefficients are not read: each point's own are recomputed
    data["solutions"][1]["coefficients"][0][0] += 0.5


def _duplicate_point(data):
    data["solutions"][1] = data["solutions"][0]


def _widen_cluster_tolerance(data):
    pass  # the run's tol_cluster below is wider than every stored root gap


def _drop_point_entry(data):
    data["solutions"][1]["roots"][1].pop()  # a point of the wrong shape


@pytest.mark.parametrize(
    "edit", [_shift_coefficient, _duplicate_point, _widen_cluster_tolerance, _drop_point_entry]
)
def test_cache_revalidates_points(tmp_path, cfg, edit):
    # every stored point is accepted under the run's tolerances, unpolished,
    # and the multistart fills what the file misses
    path = str(tmp_path / "cubic.json")
    fresh = _solve_cached(CUBIC, cfg, path)
    _rewrite_cache(path, edit)
    if edit is _widen_cluster_tolerance:
        with pytest.raises(DegenerateConfiguration):
            _solve_cached(CUBIC, cfg.replace(tol_cluster=10.0), path)
        return
    again = _solve_cached(CUBIC, cfg, path)
    _assert_same_set(again, fresh, cfg)
    assert (again.starts_used == 0) == (edit is _shift_coefficient)


@pytest.mark.parametrize("garbage", ["", "{not json", "[1, 2]", '{"spec": 3}', "null"])
def test_garbage_cache_is_a_miss(tmp_path, cfg, garbage):
    path = tmp_path / "cubic.json"
    path.write_text(garbage)
    solset = _solve_cached(CUBIC, cfg, str(path))
    assert solset.starts_used > 0
    assert json.loads(path.read_text()) == solset.as_json_dict()


def _infinite_value(data):
    data["spec"]["values"][1] = math.inf


def _infinite_root(data):
    data["solutions"][0]["roots"][0][0][0][0] = math.inf


@pytest.mark.parametrize("edit", [_infinite_value, _infinite_root])
def test_non_finite_cache_is_a_miss(tmp_path, cfg, edit):
    # json writes and reads Infinity; such a file is rejected before any carry
    path = str(tmp_path / "cubic.json")
    _solve_cached(CUBIC, cfg, path)
    _rewrite_cache(path, edit)
    with open(path) as fh:
        data = json.load(fh)
    with pytest.raises(ValidationError, match="finite"):
        SolutionSet.from_json_dict(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solset = _solve_cached(CUBIC, cfg, path)
    assert solset.certificate == "COMPLETE" and solset.starts_used > 0


def test_cache_of_another_layout_or_order_is_carried(tmp_path, cfg):
    path = str(tmp_path / "set.json")
    source = validate_branch_spec(parse_profiles("2,2,1|2,1,1,1|2,1,1,1"))
    _solve_cached(source, cfg, path)
    for spec in (
        validate_branch_spec(source.profiles, (-5.0, 0.1, 0.2)),
        source.permuted([1, 0, 2]),
    ):
        carried = _solve_cached(spec, cfg, path)
        assert carried.starts_used == 0
        _assert_same_set(carried, solve_all(spec, cfg), cfg)


def test_cache_file_is_the_solve_result(tmp_path, capsys, cfg):
    path = tmp_path / "cubic.json"
    assert main(["solve", "--profiles", "2,1|2,1", "--values=-2,2", "--cache", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert json.loads(path.read_text()) == result


def test_solution_count_matches_factorizations(cfg):
    # the completeness certificate lines up with the independent exact count
    for text, values in (
        ("2,1|2,1", (-2, 2)),
        ("2,1,1|2,2", (2, 1)),
        ("3,1|2,1,1", (28, 1)),
    ):
        spec = validate_branch_spec(parse_profiles(text), values)
        n = count_factorizations(spec.profiles).N
        solset = solve_all(spec, cfg)
        assert len(solset) == n == solset.target


def _affine_cases():
    d4 = validate_branch_spec(parse_profiles("3,1|2,1,1"))
    d5 = validate_branch_spec(parse_profiles("4,1|2,1,1,1"))
    d6 = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"))
    simple = parse_profiles("2,1,1|2,1,1|2,1,1")
    mixed = validate_branch_spec(parse_profiles("2,2,1|2,1,1,1|2,1,1,1"))
    return {
        "reversed d=4": (d4, d4.reversed_spec()),
        "reversed d=6": (d6, d6.reversed_spec()),
        # w -> 3 - w at d = 5: an odd degree with a complex c, c^5 = -1
        "swapped k=2": (d5, d5.permuted([1, 0])),
        "moved k=2": (d4, validate_branch_spec(d4.profiles, (-1.3, 2.7))),
        "shifted k=3": (
            validate_branch_spec(simple),
            validate_branch_spec(simple, (-2.5, -0.75, 1.0)),
        ),
        # equal profiles: both branch orders fit them, but only the reversed one maps the values
        "reversed k=3": (
            validate_branch_spec(simple, (1.0, 2.0, 4.0)),
            validate_branch_spec(simple, (1.0, 2.0, 4.0)).reversed_spec(),
        ),
        # unequal profiles: only the reversed branch order fits them
        "reversed mixed k=3": (mixed, mixed.reversed_spec()),
    }


@pytest.mark.parametrize("case", sorted(_affine_cases()))
def test_affine_image_is_mapped_not_solved(cfg, monkeypatch, case):
    source, spec = _affine_cases()[case]
    known = solve_all(source, cfg)
    tracks = _calls(monkeypatch, "_track")
    # the closed-form images solve the spec as they are
    images = polysolve._carried_points((known,), build_system(spec))
    assert images.shape == (len(known), build_system(spec).n)
    assert np.max(np.abs(residual_batch(build_system(spec), images))) < 1e-9
    mapped = solve_all(spec, cfg, known=(known,))
    assert mapped.certificate == "COMPLETE" and mapped.starts_used == 0
    assert len(mapped) == mapped.target == count_factorizations(spec.profiles).N
    fresh = solve_all(spec, cfg)
    assert fresh.starts_used > 0
    assert match_coefficient_sets(mapped.coefficients, fresh.coefficients, tol=cfg.tol_dedup)
    assert tracks == []


def _tracked_cases():
    simple = validate_branch_spec(parse_profiles("2,1,1|2,1,1|2,1,1"))
    mixed = validate_branch_spec(parse_profiles("2,2,1|2,1,1,1|2,1,1,1"))
    return {
        # a layout segment: the branch order is kept, so the path is real
        "layout d=4": (simple, validate_branch_spec(simple.profiles, (1.0, 2.0, 4.0))),
        "layout d=5": (mixed, validate_branch_spec(mixed.profiles, (-5.0, 0.1, 0.2))),
        # near the source's own layout, but no affine image at rounding level
        "near layout d=4": (simple, validate_branch_spec(simple.profiles, (1.0, 2.0, 3 + 1e-9))),
        # one order swap: the first two values cross through the upper half plane
        "swap d=5": (mixed, mixed.permuted([1, 0, 2])),
    }


_TRACKED_COMPARISONS = {"layout d=4": 2, "layout d=5": 1, "near layout d=4": 2, "swap d=5": 0}


@pytest.mark.parametrize("case", sorted(_tracked_cases()))
def test_non_affine_image_is_tracked_not_solved(cfg, monkeypatch, case):
    source, spec = _tracked_cases()[case]
    known = solve_all(source, cfg)
    tracks = _calls(monkeypatch, "_track")
    compared = _calls(monkeypatch, "match_index")
    polysolve._carried_points((known,), build_system(spec))
    assert len(tracks) == 1
    # the values are compared only in a branch order, the same or the
    # reversed, that fits the profiles; "swap d=5" fits neither
    assert len(compared) == _TRACKED_COMPARISONS[case]
    tracked = solve_all(spec, cfg, known=(known,))
    assert tracked.certificate == "COMPLETE" and tracked.starts_used == 0
    assert len(tracked) == tracked.target == count_factorizations(spec.profiles).N
    fresh = solve_all(spec, cfg)
    assert fresh.starts_used > 0
    assert match_coefficient_sets(tracked.coefficients, fresh.coefficients, tol=cfg.tol_dedup)
    assert len(classify_real(tracked, cfg)) == len(classify_real(fresh, cfg))


def test_track_carries_every_path_to_a_solution(cfg):
    source, spec = _tracked_cases()["swap d=5"]
    known = solve_all(source, cfg)
    system = build_system(spec)
    # the spec's branch 0 is the source's branch 1 and vice versa
    order = [1, 0, 2]
    points = known.solutions[:, polysolve._block_columns(source.profiles, order)]
    tracked, arrived = polysolve._track(system, points, np.array(source.values)[order])
    assert arrived.all()
    assert np.max(np.abs(residual_batch(system, tracked))) < 1e-8


def test_tracked_set_missing_a_solution_is_filled_by_the_multistart(cfg):
    source, spec = _tracked_cases()["swap d=5"]
    known = solve_all(source, cfg)
    short = _planted(known, slice(1, None))
    solset = solve_all(spec, cfg, known=(short,))
    assert solset.certificate == "COMPLETE" and solset.starts_used > 0
    assert len(solset) == solset.target


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_one_branch_spec_is_solved_in_closed_form(cfg, d):
    # P = z^d + w has the one preimage root 0 over w
    spec = validate_branch_spec((Partition((d,)),), (1.5,))
    solset = solve_all(spec, cfg)
    assert solset.certificate == "COMPLETE" and solset.starts_used == 0
    assert len(solset) == solset.target == 1
    assert _same_bits(solset.solutions, np.zeros((1, 1), dtype=complex))
    assert _same_bits(solset.residuals, np.zeros(1))


def test_known_set_missing_a_solution_is_filled_by_the_multistart(cfg):
    source = validate_branch_spec(parse_profiles("3,1|2,1,1"))
    known = solve_all(source, cfg)
    short = _planted(known, slice(1, None))
    solset = solve_all(source.reversed_spec(), cfg, known=(short,))
    assert solset.certificate == "COMPLETE" and solset.starts_used > 0
    assert len(solset) == solset.target


def test_incomplete_known_set_is_not_used(cfg):
    source = validate_branch_spec(parse_profiles("3,1|2,1,1"))
    known = dataclasses.replace(solve_all(source, cfg), certificate="INCOMPLETE")
    solset = solve_all(source.reversed_spec(), cfg, known=(known,))
    assert solset.certificate == "COMPLETE" and solset.starts_used > 0


def test_solve_without_cache_makes_no_single_row_residual_call(cfg, monkeypatch):
    # Newton returns the residual norm of every point it hands to acceptance
    calls = []
    original = polysolve.residual

    def counting(system, x):
        calls.append(len(x))
        return original(system, x)

    monkeypatch.setattr(polysolve, "residual", counting)
    spec = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"))
    known = solve_all(spec, cfg)
    mapped = solve_all(spec.reversed_spec(), cfg, known=(known,))
    assert mapped.starts_used == 0 and calls == []
    system = build_system(spec)
    for point, res in zip(known.solutions, known.residuals):
        assert res <= cfg.tol_residual
        assert np.max(np.abs(original(system, point))) <= cfg.tol_residual


# --- Krawczyk certification and the early stop --------------------------------

CERTIFIED_SPECS = SOLVE_SPECS + ("2,1,1|2,1,1|2,1,1",)


def _solved_points(cfg, text):
    spec = validate_branch_spec(parse_profiles(text))
    solset = solve_all(spec, cfg)
    return build_system(spec), np.array(solset.solutions)


def test_symmetric_spec_certifies_in_one_chunk(cfg):
    # the 16 solutions fall into dihedral orbits of sizes 4, 8 and 4, and the
    # reversal swaps the two 4-orbits, so a first chunk that finds one of
    # them has found both
    spec = validate_branch_spec(parse_profiles("2,1,1|2,1,1|2,1,1"))
    used = [solve_all(spec, cfg.replace(seed=seed)).starts_used for seed in range(40)]
    assert used == [polysolve._CHUNK_SIZE] * 40


@pytest.mark.parametrize("text", CERTIFIED_SPECS)
def test_reversal_harvest_never_costs_starts(cfg, monkeypatch, text):
    spec = validate_branch_spec(parse_profiles(text))
    seeds = range(10)
    harvested = [solve_all(spec, cfg.replace(seed=seed)).starts_used for seed in seeds]
    monkeypatch.setattr(polysolve._Collector, "reversal", None)
    plain = [solve_all(spec, cfg.replace(seed=seed)).starts_used for seed in seeds]
    assert all(h <= p for h, p in zip(harvested, plain))
    assert (sum(harvested) < sum(plain)) == (text == "2,1,1|2,1,1|2,1,1")


@pytest.mark.parametrize("text", CERTIFIED_SPECS)
def test_every_solution_certifies(cfg, text):
    system, points = _solved_points(cfg, text)
    assert polysolve._krawczyk_certified(system, points, cfg.tol_dedup)


@pytest.mark.parametrize("text", ["3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"])
def test_certification_fails_for_false_solution_sets(cfg, text):
    system, points = _solved_points(cfg, text)
    # two equal-multiplicity roots of the last branch, swapped: the same polynomial
    start, end = system.branch_ranges[-1]
    swapped = points[0].copy()
    swapped[[end - 2, end - 1]] = swapped[[end - 1, end - 2]]
    moved = points.copy()
    moved[0] += 1e-4 * np.exp(2j * np.pi * np.arange(system.n) / system.n)
    for bad in (np.vstack((points, points[:1] + 1e-9)), np.vstack((points, swapped)), moved):
        assert not polysolve._krawczyk_certified(system, bad, cfg.tol_dedup)


def test_certification_makes_two_product_calls(cfg, monkeypatch):
    # one call at the stacked rows [x; -|x|] and one at -(|x| + rho), and
    # one Jacobian assembly for each
    calls = {"_products": [], "_assemble_jacobian": []}

    def counting(name):
        original = getattr(polysolve, name)

        def wrapper(system, arg):
            calls[name].append(arg.shape[0])
            return original(system, arg)

        return wrapper

    for text in ("3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"):
        system, points = _solved_points(cfg, text)
        assert len(points) <= polysolve._CHUNK_SIZE
        with monkeypatch.context() as patch:
            for name in calls:
                calls[name].clear()
                patch.setattr(polysolve, name, counting(name))
            assert polysolve._krawczyk_certified(system, points, cfg.tol_dedup)
        m = len(points)
        assert calls == {"_products": [2 * m, m], "_assemble_jacobian": [2 * m, m]}


@pytest.mark.parametrize("text", ["3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1", "5,1|2,1,1,1,1"])
def test_certified_coefficient_centres_are_canonical_coefficients(cfg, text):
    # the centres read off the point products are canonical_coefficients'
    # values bit for bit, at solutions and at far-off points
    system, points = _solved_points(cfg, text)
    rng = np.random.default_rng(4)
    far = 3.0 * (rng.standard_normal(points.shape) + 1j * rng.standard_normal(points.shape))
    for x in (points, far):
        qs, jacs = polysolve._stacked_products(system, x)
        rho = np.full((len(x), 1), 1e-6)
        _, centres, _ = polysolve._box_enclosure(system, x, rho, qs, jacs)
        want = canonical_coefficients(system, x)
        assert centres.shape == want.shape and centres.tobytes() == want.tobytes()


def test_box_too_small_for_its_zero_fails(cfg, monkeypatch):
    # a point 1e-5 from its zero, in a box far smaller than that: its roots
    # and coefficients stay apart and the box is within tol, so only the
    # Krawczyk inclusion can reject it
    system, points = _solved_points(cfg, "3,2,1|3,1,1,1")
    points[0] += 1e-5 * np.exp(2j * np.pi * np.arange(system.n) / system.n)
    monkeypatch.setattr(polysolve, "_BOX_FACTOR", 1e-3)
    assert not polysolve._krawczyk_certified(system, points, cfg.tol_dedup)


def _iv_poly(iv, roots):
    """Interval coefficients, highest degree first, of prod (z - r)^m over (r, m) pairs."""
    coeffs = [iv.mpc(1)]
    for r, m in roots:
        for _ in range(m):
            coeffs = [a - r * b for a, b in zip(coeffs + [iv.mpc(0)], [iv.mpc(0)] + coeffs)]
    return coeffs


def _iv_system(iv, system, x):
    """F(x), J(x) and the coefficients (a_2, ..., a_d) in interval arithmetic, by definition."""
    n, d, k = system.n, system.d, system.k
    w = [iv.mpc(v) for v in system.spec.values]
    r = [iv.mpc(complex(v).real, complex(v).imag) for v in x]
    branches = [[(r[j], system.slots[j][1]) for j in range(*rng)] for rng in system.branch_ranges]
    qs = [_iv_poly(iv, roots) for roots in branches]
    f = [qs[0][1]]
    for i in range(1, k):
        block = [qs[i][t] - qs[0][t] for t in range(1, d + 1)]
        block[-1] += w[i] - w[0]
        f += block
    jac = [[iv.mpc(0)] * n for _ in range(n)]
    for j, (b, m) in enumerate(system.slots):
        others = [(r[l], mult) for l, (c, mult) in enumerate(system.slots) if c == b and l != j]
        dq = [-m * c for c in _iv_poly(iv, others + [(r[j], m - 1)])]
        if b == 0:
            jac[0][j] = dq[0]
        for i in range(1, k):
            for t in range(d):
                if b in (0, i):
                    jac[1 + (i - 1) * d + t][j] = -dq[t] if b == 0 else dq[t]
    coeffs = qs[0][2:]
    coeffs[-1] += w[0]
    return f, jac, coeffs


def _disc_holds(mp, centre, radius, value):
    """Every corner of the complex interval value lies within radius of centre."""
    c = complex(centre)
    return all(
        mp.sqrt((mp.mpf(re.a) - c.real) ** 2 + (mp.mpf(im.a) - c.imag) ** 2) <= radius
        for re in (value.real.a, value.real.b)
        for im in (value.imag.a, value.imag.b)
    )


@pytest.mark.parametrize("box", ["solution", "wide"])
def test_enclosures_hold_interval_evaluations(cfg, box):
    mpmath = pytest.importorskip("mpmath")
    iv, mp = mpmath.iv, mpmath.mp
    iv.dps = mp.dps = 40
    spec = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"))
    system = build_system(spec)
    rng = np.random.default_rng(8)
    if box == "solution":
        centre, rho = solve_all(spec, cfg).solutions[3], 1e-7
    else:
        centre = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
        rho = 0.05
    x = centre[None, :]
    qs, jacs = polysolve._stacked_products(system, x)
    f, f_rad = polysolve._point_enclosure(system, qs)
    jac = jacs[:1]
    j_rad, coeffs, c_rad = polysolve._box_enclosure(system, x, np.array([[rho]]), qs, jacs)
    exact_f, _, _ = _iv_system(iv, system, centre)
    for i in range(system.n):
        assert _disc_holds(mp, f[0, i], f_rad[0, i], exact_f[i])
    # points of the polydisc: on its boundary with random phases, and moved
    # radially outward, where the coefficient bound is tightest
    samples = [centre + 0.999 * rho * np.exp(2j * np.pi * rng.random(system.n)) for _ in range(3)]
    samples.append(centre + 0.999 * rho * centre / np.abs(centre))
    for sample in samples:
        _, exact_jac, exact_coeffs = _iv_system(iv, system, sample)
        for i in range(system.n):
            for j in range(system.n):
                assert _disc_holds(mp, jac[0, i, j], j_rad[0, i, j], exact_jac[i][j])
        for t in range(system.d - 1):
            assert _disc_holds(mp, coeffs[0, t], c_rad[0, t], exact_coeffs[t])


@pytest.mark.parametrize("text", ["3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"])
@pytest.mark.parametrize("seed", range(5))
def test_early_stop_keeps_the_full_chunk_result(cfg, monkeypatch, text, seed):
    spec = validate_branch_spec(parse_profiles(text))
    config = cfg.replace(seed=seed)
    early = solve_all(spec, config)
    monkeypatch.setattr(polysolve, "_krawczyk_certified", lambda *args: False)
    full = solve_all(spec, config)
    assert early.certificate == full.certificate == "COMPLETE"
    assert early.starts_used == full.starts_used
    assert match_coefficient_sets(early.coefficients, full.coefficients, tol=cfg.tol_dedup)


def test_early_stop_saves_newton_rows(cfg, monkeypatch):
    rows = []
    original = polysolve.residual_and_jacobian_batch

    def counting(system, points):
        rows.append(points.shape[0])
        return original(system, points)

    monkeypatch.setattr(polysolve, "residual_and_jacobian_batch", counting)
    specs = [validate_branch_spec(parse_profiles(text)) for text in CERTIFIED_SPECS]
    for spec in specs:
        solve_all(spec, cfg)
    early = sum(rows)
    rows.clear()
    monkeypatch.setattr(polysolve, "_krawczyk_certified", lambda *args: False)
    for spec in specs:
        solve_all(spec, cfg)
    assert 2 * early < sum(rows)


def test_newton_stop_sees_rows_in_convergence_order(cfg):
    spec = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"))
    system = build_system(spec)
    rng = np.random.default_rng(5)
    starts = rng.standard_normal((64, system.n)) + 1j * rng.standard_normal((64, system.n))
    starts *= root_bound(spec) / 4.0 / np.sqrt(2.0)
    starts[7] = solve_all(spec, cfg).solutions[0]  # converged at the initial check
    points, ok, norms = lockstep_newton(system, starts, cfg)
    seen = []

    def record(pts, nrm):
        seen.append((pts.copy(), nrm.copy()))
        return False

    again, again_ok, _ = _newton_batch(system, starts, cfg, stop=record)
    assert np.array_equal(again_ok, ok) and np.array_equal(again[ok], points[ok])
    assert np.array_equal(seen[0][0], starts[7:8])
    got = np.concatenate([pts for pts, _ in seen])
    assert sorted(map(tuple, got)) == sorted(map(tuple, points[ok]))
    assert len(seen) > 2

    # ending after the second group reports only the first two groups converged
    calls = []
    _, stopped_ok, _ = _newton_batch(
        system, starts, cfg, stop=lambda pts, nrm: calls.append(len(pts)) or len(calls) == 2
    )
    assert calls == [len(seen[0][0]), len(seen[1][0])]
    assert stopped_ok.sum() == sum(calls) < ok.sum()


@pytest.mark.parametrize(
    "text", ["4,1|2,1,1,1", "5,1|2,1,1,1,1", "3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"]
)
@pytest.mark.parametrize("seed", range(5))
def test_newton_stop_changes_no_row(cfg, text, seed):
    # the lead rows run ahead, but every row counts its own iterations for
    # the stall window and the cap, so each row, failed ones included, ends
    # bit for bit where it ends when every row advances in lockstep, and
    # every converged row is handed over once
    spec = validate_branch_spec(parse_profiles(text))
    system = build_system(spec)
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((64, system.n)) + 1j * rng.standard_normal((64, system.n))
    starts *= root_bound(spec) / 4.0 / np.sqrt(2.0)
    points, ok, norms = lockstep_newton(system, starts, cfg)
    seen = []
    again = _newton_batch(system, starts, cfg, stop=lambda pts, nrm: seen.append(pts) or False)
    assert all(np.array_equal(a, b) for a, b in zip(again, (points, ok, norms)))
    handed = np.concatenate(seen)
    assert len(handed) == ok.sum()
    assert sorted(map(tuple, handed)) == sorted(map(tuple, points[ok]))


def test_lead_rows_save_newton_rows(cfg, monkeypatch):
    # a lead of a whole chunk advances every row together, as with no lead;
    # the six specs end in their first chunk, on a lead row, and pass under
    # half the rows, while 2,1,1|2,1,1|2,1,1 at values 1, 2, 3.5, where the
    # reversal is no symmetry, runs its first chunk to its end and pays at
    # most the lead's iterations more per chunk
    rows = []
    original = polysolve.residual_and_jacobian_batch
    specs = [validate_branch_spec(parse_profiles(text)) for text in SOLVE_SPECS]
    specs.append(validate_branch_spec(parse_profiles("2,1,1|2,1,1|2,1,1"), (1.0, 2.0, 3.5)))

    def counting(system, points):
        rows.append(points.shape[0])
        return original(system, points)

    def solve_rows(spec):
        rows.clear()
        solset = solve_all(spec, cfg)
        return sum(rows), solset.starts_used // polysolve._CHUNK_SIZE

    monkeypatch.setattr(polysolve, "residual_and_jacobian_batch", counting)
    lead = [solve_rows(spec) for spec in specs]
    monkeypatch.setattr(polysolve, "_LEAD_ROWS", polysolve._CHUNK_SIZE)
    full = [solve_rows(spec) for spec in specs]
    assert [chunks for _, chunks in lead] == [chunks for _, chunks in full] == [1] * 6 + [2]
    assert sum(r for r, _ in lead[:6]) <= 0.5 * sum(r for r, _ in full[:6])
    extra = polysolve._LEAD_ROWS * polysolve._LEAD_ITERATIONS
    assert lead[6][0] <= full[6][0] + 2 * extra


@pytest.mark.parametrize("text, scale", [("3,2,1|3,1,1,1", 1000.0), ("2,1,1|2,1,1|2,1,1", 100.0)])
def test_newton_converges_at_its_rounding_floor(cfg, text, scale):
    # at large branch values F cannot be computed below about 1e-13, so no
    # step length passes the line search; a row whose residual is already
    # within tol_residual there is converged, and every scaled point is kept
    spec = validate_branch_spec(parse_profiles(text))
    known = solve_all(spec, cfg)
    big = validate_branch_spec(spec.profiles, [scale * w for w in spec.values])
    system = build_system(big)
    starts = polysolve._carried_points((known,), system)
    points, ok, norms = _newton_batch(system, starts, cfg, never_stop)
    assert ok.all() and np.max(norms) <= cfg.tol_residual
    assert solve_all(big, cfg, known=(known,)).starts_used == 0


def test_translated_values_keep_every_solution(cfg):
    # moving every branch value by b shifts only a_d by b; the dedup tolerance
    # then grows to about tol_dedup * 1e9 and swallows the spread in a_2
    near = validate_branch_spec(parse_profiles("2,1|2,1"), (0.0, 1e3))
    known = solve_all(near, cfg)
    assert len(known) == 3
    far = validate_branch_spec(near.profiles, (1e9, 1e9 + 1e3))
    solset = solve_all(far, cfg.replace(start_budget=64), known=(known,))
    assert solset.certificate == "COMPLETE" and len(solset) == 3


def test_normal_coefficients_do_not_see_an_affine_motion_of_the_values(cfg):
    # w -> a w + b maps each solution P to a P(z / c) + b, c^d = a, whose
    # normal form is P's; the raw coefficients differ by up to 1e9
    spec = validate_branch_spec(parse_profiles("3,1|2,1,1"), (-1.0, 2.0))
    moved = validate_branch_spec(spec.profiles, (1e9, 1e9 + 3e3))
    near = solve_all(spec, cfg)
    far = solve_all(moved, cfg, known=(near,))
    assert far.starts_used == 0
    queries = normal_coefficients(moved.values, far.coefficients)
    mates = match_index(normal_coefficients(spec.values, near.coefficients), queries, 1e-9)
    assert sorted(mates) == list(range(len(near)))
