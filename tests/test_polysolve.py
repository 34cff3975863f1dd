import dataclasses
import json

import numpy as np
import pytest

from realhurwitz import (
    AmbiguousRealness,
    IncompleteEnumeration,
    OvercountDetected,
    Partition,
    build_system,
    classify_real,
    count_factorizations,
    parse_profiles,
    residual,
    solve_all,
    validate_branch_spec,
)
from realhurwitz import polysolve
from realhurwitz.polysolve import (
    _newton_batch,
    _real_structure,
    canonical_coefficients,
    residual_and_jacobian_batch,
    residual_batch,
    load_cache,
    match_index,
    root_bound,
    rotate_coefficients,
    spec_hash,
)
from realhurwitz.verify import enumerate_sweep_specs

from helpers import (
    cubic_solution_coefficients,
    fd_jacobian,
    kernel_canonical,
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


def test_build_system_shapes():
    assert build_system(CUBIC).n == 4
    assert build_system(validate_branch_spec([Partition([4])], (5,))).n == 1
    assert build_system(QUARTIC_DOUBLE).n == 5


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


def test_kernel_matches_factor_by_factor_reference(cfg):
    # the gathered product kernel repeats the reference's floating-point
    # operations in the same order, so every value agrees bit for bit
    specs = [validate_branch_spec(p) for p in enumerate_sweep_specs(4, 3)]
    specs += [validate_branch_spec(parse_profiles(text)) for text in SOLVE_SPECS]
    rng = np.random.default_rng(2024)
    for spec in specs:
        system = build_system(spec)
        for rows in (1, 64):
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

    # real coordinates: each branch of 3,1,1|3,1,1 has one real root and a conjugate pair
    system = build_system(validate_branch_spec(parse_profiles("3,1,1|3,1,1")))
    point = np.array([0.3, 1 + 0.5j, 1 - 0.5j, -0.2, -1 + 2j, -1 - 2j])
    basis, _, _ = _real_structure(system, point, cfg)
    x = rng.standard_normal((64, system.n)) @ basis.T
    f, jac = residual_and_jacobian_batch(system, x)
    ref_f, ref_jac = kernel_residual_and_jacobian(system, x)
    assert _same_bits(f, ref_f) and _same_bits(jac, ref_jac)
    assert _same_bits(residual_batch(system, x), kernel_residual(system, x))


def test_cubic_solutions_match_closed_form(cfg):
    solset = solve_all(CUBIC, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 3
    assert all(s.residual < cfg.tol_residual for s in solset.solutions)
    expected = cubic_solution_coefficients(-2.0, 2.0)
    assert match_coefficient_sets(
        [s.coefficients for s in solset.solutions], expected, tol=1e-8
    )


def test_quartic_double_solutions_match_closed_form(cfg):
    solset = solve_all(QUARTIC_DOUBLE, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 2
    # attachment: (2,1,1) at 2, (2,2) at 1, so v^2 = 2 - 1
    expected = quartic_double_solutions(2.0, 1.0)
    assert match_coefficient_sets(
        [s.coefficients for s in solset.solutions], expected, tol=1e-8
    )


def test_quartic_cusp_solutions_match_closed_form(cfg):
    solset = solve_all(QUARTIC_CUSP, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 4
    expected = quartic_cusp_solutions(28.0, 1.0)
    assert match_coefficient_sets(
        [s.coefficients for s in solset.solutions], expected, tol=1e-8
    )


def test_root_assignments_have_declared_profiles(cfg):
    solset = solve_all(QUARTIC_CUSP, cfg)
    for sol in solset.solutions:
        for branch, lam in zip(sol.roots, QUARTIC_CUSP.profiles):
            assert sorted((m for _, m in branch), reverse=True) == list(lam.parts)


def test_classify_real_counts(cfg, monkeypatch):
    reals = classify_real(solve_all(CUBIC, cfg), cfg)
    assert len(reals) == 1
    assert np.allclose(reals[0].coefficients, (-3.0, 0.0), atol=1e-8)

    reals = classify_real(solve_all(QUARTIC_DOUBLE, cfg), cfg)
    assert len(reals) == 2

    swapped = validate_branch_spec(parse_profiles("2,1,1|2,2"), (1, 2))
    reals = classify_real(solve_all(swapped, cfg), cfg)
    assert reals == []

    # the real polish keeps every real solution where the complex solve put
    # it; those arrive converged, so the polish builds no Jacobian
    jacobians = []
    original = polysolve.residual_and_jacobian_batch

    def counting(system, points):
        jacobians.append(points.shape[0])
        return original(system, points)

    for profiles in enumerate_sweep_specs(4, 3):
        spec = validate_branch_spec(profiles)
        for side in (spec, spec.reversed_spec()):
            solset = solve_all(side, cfg)
            table = np.array([s.coefficients for s in solset.solutions])
            nearly_real = np.max(np.abs(table.imag), axis=1) < cfg.tol_real
            with monkeypatch.context() as patch:
                patch.setattr(polysolve, "residual_and_jacobian_batch", counting)
                reals = classify_real(solset, cfg)
            assert len(reals) == int(nearly_real.sum())
            for poly in reals:
                assert poly.residual <= cfg.tol_residual
                vec = np.array(poly.coefficients)
                assert match_index(table.real, vec, cfg.tol_dedup) is not None
    assert jacobians == []


def _real_solution(solset, coefficients):
    return next(
        s for s in solset.solutions if np.allclose(s.coefficients, coefficients, atol=1e-8)
    )


@pytest.mark.parametrize(
    "spec, coefficients",
    [
        (QUARTIC_DOUBLE, (2.0, 0.0, 2.0)),  # (z^2+1)^2 + 1: conjugate pairs in both branches
        (CUBIC, (-3.0, 0.0)),  # z^3 - 3z: every preimage root real
    ],
)
def test_real_jacobian_matches_finite_differences(cfg, spec, coefficients):
    # the real polish runs Newton on Re F(B u) with Jacobian Re(J(B u) B)
    system = build_system(spec)
    sol = _real_solution(solve_all(spec, cfg), coefficients)
    basis, real_mask, u0 = _real_structure(system, np.array(sol.point), cfg)
    assert real_mask.all() == (spec is CUBIC)
    rng = np.random.default_rng(5)
    h = 1e-6
    for u in (u0, u0 + 0.1 * rng.standard_normal(system.n)):
        (f,), (jac,) = residual_and_jacobian_batch(system, (basis @ u)[None])
        jac_b = jac @ basis
        # F(B u) and its u-derivative are real for real u
        assert np.max(np.abs(f.imag)) < 1e-12 and np.max(np.abs(jac_b.imag)) < 1e-12
        approx = np.empty((system.n, system.n))
        for k in range(system.n):
            bump = np.zeros(system.n)
            bump[k] = h
            plus = residual(system, basis @ (u + bump)).real
            minus = residual(system, basis @ (u - bump)).real
            approx[:, k] = (plus - minus) / (2 * h)
        assert np.max(np.abs(jac_b.real - approx) / (1.0 + np.abs(approx))) < 1e-6
    # solutions arrive polished, so only a perturbed start makes the real Newton step
    start = u0 + 1e-3 * rng.standard_normal(system.n)
    u, ok = _newton_batch(system, start[None, :], cfg, basis)
    assert ok[0] and np.max(np.abs(u[0] - u0)) < 1e-9


def test_classify_real_rejects_unpaired_root(cfg):
    # real coefficients, but one root of a conjugate pair moved away from its mate
    solset = solve_all(QUARTIC_DOUBLE, cfg)
    sol = _real_solution(solset, (2.0, 0.0, 2.0))
    point = np.array(sol.point)
    point[-1] += 0.1
    broken = dataclasses.replace(sol, point=tuple(point))
    with pytest.raises(AmbiguousRealness, match="no conjugate partner"):
        classify_real(dataclasses.replace(solset, solutions=(broken,)), cfg)


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
        vectors = [np.array(s.coefficients) for s in solset.solutions]

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
    for row in (0, 7, 39):
        for bump in (0.0, 0.9e-6, 0.9e-4, 1.1e-4, 1.0):
            vec = table[row] + bump
            assert match_index(table, vec, 1e-6) == loop_scan(table, vec, 1e-6)
    assert match_index(table[:0], table[0], 1e-6) is None
    assert match_index(np.empty((2, 0), dtype=complex), np.empty(0), 1e-6) == 0


def test_determinism_same_seed(cfg):
    first = solve_all(QUARTIC_CUSP, cfg)
    second = solve_all(QUARTIC_CUSP, cfg)
    assert first == second


def test_solutions_lie_in_the_root_ball(cfg):
    # the theorem behind the escape rule: |root| <= 4 max|w_i|^(1/d)
    quintic = validate_branch_spec(parse_profiles("4,1|2,1,1,1"), (-1.3, 2.1))
    sextic = validate_branch_spec(parse_profiles("3,2,1|3,1,1,1"), (-0.7, 0.4))
    for spec in (CUBIC, QUARTIC_DOUBLE, QUARTIC_CUSP, quintic, sextic):
        bound = 4.0 * max(abs(w) for w in spec.values) ** (1.0 / spec.d)
        for sol in solve_all(spec, cfg).solutions:
            assert max(abs(v) for v in sol.point) <= bound


@pytest.mark.parametrize("text", ["3,2,1|3,1,1,1", "2,1,1|2,1,1|2,1,1"])
def test_each_orbit_is_harvested_once(cfg, monkeypatch, text):
    # the dihedral orbit {rot_t(x), conj(rot_t(x))} of a new solution is polished
    # in one batch of its 2d - 1 mates; accepted mates start no harvest of their own
    spec = validate_branch_spec(parse_profiles(text))
    d = spec.d
    batches = []
    inside_offer = []
    original_newton = polysolve._newton_batch
    original_offer = polysolve._Collector.offer

    def newton(system, starts, *args, **kwargs):
        if inside_offer:
            batches.append(starts.shape[0])
        return original_newton(system, starts, *args, **kwargs)

    def offer(self, x):
        inside_offer.append(True)
        try:
            return original_offer(self, x)
        finally:
            inside_offer.pop()

    monkeypatch.setattr(polysolve, "_newton_batch", newton)
    monkeypatch.setattr(polysolve._Collector, "offer", offer)
    solset = solve_all(spec, cfg)
    coeffs = np.array([sol.coefficients for sol in solset.solutions])
    orbit = [None] * len(coeffs)
    orbits = 0
    for i in range(len(coeffs)):
        if orbit[i] is not None:
            continue
        for t in range(d):
            rotated = rotate_coefficients(coeffs[i], d, t)
            for mate in (rotated, np.conj(rotated)):
                j = match_index(coeffs, mate, cfg.tol_dedup)
                assert j is not None  # a complete set is closed under the group
                orbit[j] = orbits
        orbits += 1
    assert solset.certificate == "COMPLETE"
    assert orbits < len(coeffs)
    assert batches == [2 * d - 1] * orbits


def test_escaping_start_is_retired_after_one_jacobian(cfg, monkeypatch):
    system = build_system(CUBIC)
    calls = []
    original = polysolve.residual_and_jacobian_batch

    def counting(system, points):
        calls.append(points.shape[0])
        return original(system, points)

    monkeypatch.setattr(polysolve, "residual_and_jacobian_batch", counting)
    far = 100.0 * root_bound(CUBIC) * np.exp(2j * np.pi * np.arange(system.n) / system.n)
    _, ok = _newton_batch(system, far[None, :], cfg)
    assert not ok[0] and len(calls) <= 1

    exact = np.array([1.0, -2.0, -1.0, 2.0], dtype=complex)
    points, ok = _newton_batch(system, (exact + 1e-3 * (1 + 1j))[None, :], cfg)
    assert ok[0] and np.max(np.abs(points[0] - exact)) < 1e-9


@pytest.mark.parametrize(
    "text, values, seed",
    [("3,1|2,1,1", (28, 1), 3), ("4,1|2,1,1,1", (-1.3, 2.1), 5), ("2,1,1|2,1,1|2,1,1", None, 11)],
)
def test_newton_retirement_matches_plain_newton(cfg, text, values, seed):
    # early retirement drops only rows that plain Newton also fails on, and
    # leaves every converged row bit for bit where plain Newton puts it
    spec = validate_branch_spec(parse_profiles(text), values)
    system = build_system(spec)
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((64, system.n)) + 1j * rng.standard_normal((64, system.n))
    starts *= root_bound(spec) / 4.0 / np.sqrt(2.0)
    points, ok = _newton_batch(system, starts, cfg)
    ref_points, ref_ok = plain_newton(system, starts, cfg)
    assert ref_ok.any()
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(points[ok], ref_points[ref_ok])


def test_line_search_makes_at_most_two_residual_calls_per_iteration(cfg, monkeypatch):
    # one call for the initial residuals, then per iteration one for the full
    # step and at most one for every shorter length of the rows it failed
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
    _, ok = _newton_batch(system, starts, cfg)
    assert ok.any() and calls["jacobian"] > 0
    assert calls["residual"] <= 1 + 2 * calls["jacobian"]


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
    # the non-real cubic solutions have imaginary parts ~2.6, inside 10x of 0.3
    awkward = cfg.replace(tol_real=0.3)
    with pytest.raises(AmbiguousRealness):
        classify_real(solve_all(CUBIC, cfg), awkward)


def test_degenerate_configuration_raises(cfg):
    # a cluster tolerance wider than the actual root separations makes every
    # converged point look collapsed; the persistence counter must trip
    from realhurwitz import DegenerateConfiguration

    coarse = cfg.replace(tol_cluster=10.0)
    with pytest.raises(DegenerateConfiguration):
        solve_all(CUBIC, coarse)


def test_identity_spec_solution(cfg):
    spec = validate_branch_spec([Partition([1])])
    solset = solve_all(spec, cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == 1
    reals = classify_real(solset, cfg)
    assert len(reals) == 1 and reals[0].sign == 1


def test_target_zero_is_complete(cfg):
    solset = solve_all(CUBIC, cfg, target=0)
    assert solset.certificate == "COMPLETE" and len(solset) == 0


def test_cache_roundtrip(tmp_path, cfg):
    path = str(tmp_path / "cubic.jsonl")
    first = solve_all(CUBIC, cfg, cache_path=path)
    reloaded = load_cache(path, CUBIC, first.target, cfg)
    assert reloaded is not None
    assert reloaded.solutions == first.solutions
    # solve_all should reuse the cache rather than resolving
    again = solve_all(CUBIC, cfg, cache_path=path)
    assert again.starts_used == 0
    assert again.solutions == first.solutions

    def add_retired_fields(lines):
        # records once also carried the roots and residual of each solution
        for line, sol in zip(lines[1:], first.solutions):
            line.update(sol.as_json_dict())

    _rewrite_cache(path, add_retired_fields)
    assert load_cache(path, CUBIC, first.target, cfg).solutions == first.solutions


def _rewrite_cache(path, edit):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    edit(lines)
    with open(path, "w") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


def test_tampered_cache_is_resolved(tmp_path, cfg):
    path = str(tmp_path / "cubic.jsonl")
    fresh = solve_all(CUBIC, cfg, cache_path=path)

    def shift_point(lines):
        # a root of the last branch: the coefficients, read off branch 0, still match
        lines[1]["point"][-1][0] += 0.5

    _rewrite_cache(path, shift_point)
    assert load_cache(path, CUBIC, fresh.target, cfg) is None
    again = solve_all(CUBIC, cfg, cache_path=path)
    assert again.starts_used > 0
    assert again.solutions == fresh.solutions
    assert load_cache(path, CUBIC, fresh.target, cfg).solutions == fresh.solutions


def _shift_coefficient(lines):
    lines[2]["coefficients"][0][0] += 0.5


def _duplicate_point(lines):
    lines[2] = dict(lines[1])


def _widen_cluster_tolerance(lines):
    lines[0]["tol_cluster"] = 10.0  # every stored point now collapses its roots


def _drop_point_entry(lines):
    lines[1]["point"].pop()  # a point of the wrong shape is a miss, not an exception


@pytest.mark.parametrize(
    "edit", [_shift_coefficient, _duplicate_point, _widen_cluster_tolerance, _drop_point_entry]
)
def test_cache_revalidates_points(tmp_path, cfg, edit):
    path = str(tmp_path / "cubic.jsonl")
    solset = solve_all(CUBIC, cfg, cache_path=path)
    _rewrite_cache(path, edit)
    loaded_cfg = cfg.replace(tol_cluster=10.0) if edit is _widen_cluster_tolerance else cfg
    assert load_cache(path, CUBIC, solset.target, loaded_cfg) is None


def test_cache_rejects_mismatched_tolerances(tmp_path, cfg):
    path = str(tmp_path / "cubic.jsonl")
    solset = solve_all(CUBIC, cfg, cache_path=path)
    other = cfg.replace(tol_dedup=1e-7)
    assert load_cache(path, CUBIC, solset.target, other) is None


def test_cache_file_is_line_delimited_json(tmp_path, cfg):
    path = str(tmp_path / "cubic.jsonl")
    solve_all(CUBIC, cfg, cache_path=path)
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0]["kind"] == "header"
    assert lines[0]["spec_hash"] == spec_hash(CUBIC)
    assert len([l for l in lines if l["kind"] == "solution"]) == 3
    for record in lines[1:]:
        assert set(record) == {"kind", "spec_hash", "point", "coefficients"}


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
