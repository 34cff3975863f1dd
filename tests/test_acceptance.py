"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by.  The d <= 4 verification sweep is computed once per session and
shared by the criteria that consume it.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from realhurwitz import (
    IncompleteEnumeration,
    Partition,
    build_system,
    classify_real,
    count_factorizations,
    h_value,
    basis_fit,
    parse_partition,
    parse_profiles,
    series_table,
    solve_all,
    validate_branch_spec,
)
from realhurwitz.cli import main as cli_main
from realhurwitz.polysolve import residual_and_jacobian_batch
from realhurwitz.verify import enumerate_sweep_specs

from helpers import brute_count, fd_jacobian, match_coefficient_sets

RUN_STRETCH = os.environ.get("REALHURWITZ_STRETCH") == "1"
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _report(number: int, title: str, checks: list[tuple[str, bool]]):
    failed = [name for name, ok in checks if not ok]
    verdict = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"ACCEPTANCE {number} [{title}]: {verdict}")
    assert not failed, f"criterion {number} failed checks: {failed}"


def _all_d4_specs():
    return [validate_branch_spec(profiles) for profiles in enumerate_sweep_specs(4, 3)]


def test_criterion_1_factorization_counts():
    checks = []
    cases = [
        (parse_profiles("2,1|2,1"), 3),
        (parse_profiles("2,1,1|2,2"), 2),
        (parse_profiles("3,1|2,1,1"), 4),
    ]
    for d in (3, 4, 5, 8):
        simple = Partition([2] + [1] * (d - 2))
        cases.append(((simple,) * (d - 1), d ** (d - 2)))
    for profiles, expected in cases:
        d = profiles[0].d
        start = time.monotonic()
        got = count_factorizations(profiles).N
        elapsed = time.monotonic() - start
        label = "|".join(str(p) for p in profiles)
        checks.append((f"N({label})=={expected}", got == expected))
        checks.append((f"time({label})<1s", elapsed < 1.0))
        if d <= 4:
            checks.append((f"oracle({label})", brute_count(profiles, d) == expected))
    _report(1, "factorization counts", checks)


def test_criterion_2_solver_completeness(session_cfg):
    checks = []
    for spec in _all_d4_specs():
        target = count_factorizations(spec.profiles).N
        start = time.monotonic()
        solset = solve_all(spec, session_cfg)
        elapsed = time.monotonic() - start
        key = spec.canonical_key()
        checks.append((f"complete[{key}]", solset.certificate == "COMPLETE" and len(solset) == target))
        checks.append((f"time[{key}]<60s", elapsed < 60.0))
        checks.append((f"residuals[{key}]", bool(np.all(solset.residuals < 1e-10))))
        vectors = solset.coefficients

        def find(vec):
            for known in vectors:
                scale = 1.0 + np.max(np.abs(known)) if known.size else 1.0
                if known.size == 0 or np.max(np.abs(known - vec)) <= 1e-6 * scale:
                    return True
            return False

        n_real = 0
        conj_ok = True
        rot_ok = True
        for vec in vectors:
            if not find(np.conj(vec)):
                conj_ok = False
            if np.max(np.abs(vec.imag), initial=0.0) < 1e-8:
                n_real += 1
            for t in range(1, spec.d):
                phase = np.exp(-2j * np.pi * t * np.arange(2, spec.d + 1) / spec.d)
                if not find(vec * phase):
                    rot_ok = False
        checks.append((f"conjugation[{key}]", conj_ok))
        checks.append((f"rotation[{key}]", rot_ok))
        checks.append((f"real_parity[{key}]", n_real % 2 == target % 2))
    _report(2, "solver completeness d<=4", checks)


def test_criterion_3_closed_form_reals(session_cfg):
    checks = []
    cubic = validate_branch_spec(parse_profiles("2,1|2,1"), (-2, 2))
    reals = classify_real(solve_all(cubic, session_cfg), session_cfg)
    checks.append(("cubic one real", len(reals) == 1))
    poly = reals[0]
    checks.append(
        ("cubic coefficients", max(abs(c - e) for c, e in zip(poly.coefficients, (-3.0, 0.0))) < 1e-8)
    )
    checks.append(("cubic t", poly.t == 1))
    checks.append(("cubic sign", poly.sign == -1))
    checks.append(("cubic s", sum(p.sign for p in reals) == -1))

    quartic = validate_branch_spec(parse_profiles("2,1,1|2,2"), (2, 1))
    reals = classify_real(solve_all(quartic, session_cfg), session_cfg)
    checks.append(("biquadratic both reals", len(reals) == 2))
    checks.append(
        (
            "biquadratic coefficients",
            match_coefficient_sets(
                [p.coefficients for p in reals],
                [(2.0, 0.0, 2.0), (-2.0, 0.0, 2.0)],
                tol=1e-8,
            ),
        )
    )
    checks.append(("biquadratic signs", sorted(p.sign for p in reals) == [-1, 1]))
    checks.append(("biquadratic s", sum(p.sign for p in reals) == 0))

    swapped = validate_branch_spec(parse_profiles("2,1,1|2,2"), (1, 2))
    reals_swapped = classify_real(solve_all(swapped, session_cfg), session_cfg)
    checks.append(("swapped attachment no reals", len(reals_swapped) == 0))
    checks.append(("order invariance of s", sum(p.sign for p in reals_swapped) == 0))

    cusp = validate_branch_spec(parse_profiles("3,1|2,1,1"), (28, 1))
    reals = classify_real(solve_all(cusp, session_cfg), session_cfg)
    checks.append(("cusp two reals", len(reals) == 2))
    checks.append(
        (
            "cusp coefficients",
            match_coefficient_sets(
                [p.coefficients for p in reals],
                [(-6.0, 8.0, 25.0), (-6.0, -8.0, 25.0)],
                tol=1e-8,
            ),
        )
    )
    checks.append(("cusp opposite signs", sorted(p.sign for p in reals) == [-1, 1]))
    _report(3, "closed-form real counts and signs", checks)


def test_criterion_4_theorem_sweep(sweep_report):
    report, seconds = sweep_report
    checks = [("sweep within 10 minutes", seconds < 600.0)]
    for rec in report.records:
        key = rec.spec.canonical_key()
        checks.append((f"complete[{key}]", rec.properties.get("certificate_complete") == "PASS"))
        checks.append((f"HR==s[{key}]", rec.properties.get("theorem_hr_eq_s") == "PASS"))
        if rec.spec.d % 2 == 0:
            checks.append((f"half-sum[{key}]", rec.properties.get("half_sum") == "PASS"))
        checks.append((f"no-infra[{key}]", rec.status != "FAILED-INFRA"))
    checks.append(("both parities of d present", {r.spec.d % 2 for r in report.records} == {0, 1}))
    _report(4, "theorem sweep d<=4 k<=3", checks)


def test_criterion_5_parity_laws(sweep_report):
    report, _ = sweep_report
    checks = []
    for rec in report.records:
        key = rec.spec.canonical_key()
        if rec.spec.d % 2 == 0:
            checks.append((f"orbit signs[{key}]", rec.properties.get("orbit_sign_law") == "PASS"))
            checks.append(
                (f"branch parity[{key}]", rec.properties.get("per_branch_parity") == "PASS")
            )
            checks.append(
                (f"reflection[{key}]", rec.properties.get("reflection_identity") == "PASS")
            )
            if rec.properties.get("parity_vanishing") != "SKIP":
                checks.append(
                    (f"vanishing[{key}]", rec.properties.get("parity_vanishing") == "PASS")
                )
    checks.append(
        (
            "at least one parity-odd spec swept",
            any(
                r.properties.get("parity_vanishing") == "PASS"
                for r in report.records
            ),
        )
    )
    _report(5, "parity laws (even degree)", checks)


def test_criterion_6_invariance(sweep_report):
    report, _ = sweep_report
    checks = []
    for rec in report.records:
        key = rec.spec.canonical_key()
        checks.append((f"s order[{key}]", rec.properties.get("order_invariance_s") == "PASS"))
        checks.append((f"HR order[{key}]", rec.properties.get("order_invariance_hr") == "PASS"))
        checks.append(
            (f"s position[{key}]", rec.properties.get("position_invariance_s") == "PASS")
        )
        checks.append(
            (f"HR position[{key}]", rec.properties.get("position_invariance_hr") == "PASS")
        )
    _report(6, "invariance under reorder and value motion", checks)


def test_criterion_7_numerics_hygiene(session_cfg, capsys):
    checks = []
    rng = np.random.default_rng(2024)
    for spec in _all_d4_specs():
        system = build_system(spec)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
            _, (jac,) = residual_and_jacobian_batch(system, x[None])
            approx = fd_jacobian(system, x, h=1e-6)
            worst = max(worst, float(np.max(np.abs(jac - approx) / (1.0 + np.abs(jac)))))
        checks.append((f"jacobian[{spec.canonical_key()}]<1e-6", worst < 1e-6))

    args = ["s-number", "--profiles", "2,1,1|2,2", "--values", "2,1", "--seed", "5"]
    cli_main(list(args))
    first = capsys.readouterr().out
    cli_main(list(args))
    second = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-m", "realhurwitz.cli", *args]
    processes = [
        subprocess.run(command, env=env, capture_output=True, check=True).stdout
        for _ in range(2)
    ]
    checks.append(("bit-identical across runs", first == second))
    checks.append(("bit-identical across two processes", processes[0] == processes[1]))
    checks.append(("output is json", json.loads(first)["result"]["s"] == 0))
    _report(7, "numerics hygiene", checks)


def test_criterion_8_series(session_cfg):
    checks = []
    lam = parse_partition("1")
    table = series_table(lam, 2, session_cfg)
    checks.append(("h(0)=1", table.entries[0] == 1))
    checks.append(("h(1)=1", table.entries[1] == 1))
    checks.append(("h(2)=-1", table.entries[2] == -1))
    checks.append(
        ("entries integral", all(isinstance(v, int) for v in table.entries.values()))
    )

    # parity short-circuit against the forced full computation
    diag = session_cfg.replace(force_class_diagnostics=True)
    lam31 = parse_partition("3,1")
    checks.append(
        ("short-circuit agrees", h_value(lam31, 0, session_cfg) == h_value(lam31, 0, diag) == 0)
    )

    fit = basis_fit(table, "odd", 0)
    checks.append(("fit residual exactly 0", fit.residual == 0))
    checks.append(("fit is determined", not fit.structural_only))
    under = basis_fit(series_table(lam, 3, session_cfg), "even", 1)
    checks.append(("underdetermined fit flagged", under.structural_only))
    _report(8, "series values and generating structure", checks)


@pytest.mark.skipif(not RUN_STRETCH, reason="stretch scale; set REALHURWITZ_STRETCH=1")
def test_criterion_8_stretch_degree_5(session_cfg):
    from realhurwitz import one_part_spec, s_number, theorem_check

    extended = session_cfg.replace(start_budget=40000)
    value = h_value(parse_partition("1"), 4, extended)
    assert isinstance(value, int)
    spec = one_part_spec(parse_partition("4,1"), 0)  # ((4,1),(2,1,1,1)), d=5
    report = theorem_check(spec, extended)
    assert report.passed
    assert s_number(spec, extended) == report.s
    print(
        f"ACCEPTANCE 8-stretch [degree 5 specs]: PASS "
        f"(h_(1)(4) = {value}, h_(4,1)(0) = {report.s})"
    )


@pytest.mark.skipif(not RUN_STRETCH, reason="stretch scale; set REALHURWITZ_STRETCH=1")
@pytest.mark.xfail(
    strict=True,
    raises=IncompleteEnumeration,
    reason="the default start budget stops at 318 of 324 solutions (ROADMAP item 1)",
)
def test_stretch_d6_n324_certifies_at_default_budget(session_cfg):
    spec = validate_branch_spec(parse_profiles("2,2,1,1|2,1,1,1,1|2,1,1,1,1|2,1,1,1,1"))
    assert session_cfg.seed == 0
    solset = solve_all(spec, session_cfg)
    assert solset.certificate == "COMPLETE" and len(solset) == solset.target == 324
