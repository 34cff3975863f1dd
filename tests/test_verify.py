import gc
import itertools
import json
import weakref

import pytest

from realhurwitz import (
    Partition,
    ScaleExceeded,
    SignMismatch,
    ValidationError,
    parse_profiles,
    real_hurwitz,
    run_sweep,
    s_number,
    theorem_check,
    validate_branch_spec,
)
from realhurwitz import coverings, verify
from realhurwitz.cli import EXIT_INFRA, EXIT_OK, EXIT_PROPERTY, main
from realhurwitz.coverings import SolvedReals
from realhurwitz.verify import check_spec, enumerate_sweep_specs


def test_enumerate_sweep_specs_d4():
    specs = enumerate_sweep_specs(4, 3)
    keys = {"|".join(str(p) for p in profiles) for profiles in specs}
    assert keys == {
        "2",
        "3",
        "2,1|2,1",
        "4",
        "3,1|2,1,1",
        "2,2|2,1,1",
        "2,1,1|2,1,1|2,1,1",
    }
    for profiles in specs:
        d = profiles[0].d
        k = len(profiles)
        assert sum(p.length for p in profiles) == (k - 1) * d + 1
        assert all(not p.is_trivial for p in profiles)


def test_enumerate_sweep_specs_respects_kmax():
    assert all(len(p) <= 2 for p in enumerate_sweep_specs(4, 2))


def test_budget_exhaustion_marks_infra(cfg):
    tiny = cfg.replace(start_budget=1)
    record = check_spec(
        (Partition([2, 1, 1]), Partition([2, 1, 1]), Partition([2, 1, 1])), SolvedReals(tiny)
    )
    assert record.status == "FAILED-INFRA"
    assert "IncompleteEnumeration" in record.error


def test_small_sweep_report_shape(cfg):
    report = run_sweep(3, 2, cfg)
    assert report.passed
    assert report.summary() == {"total": 3, "passed": 3, "failed": 0, "infra": 0}
    keys = [r.spec.canonical_key() for r in report.records]
    assert keys == sorted(keys)
    payload = report.as_json_dict()
    assert payload["summary"]["total"] == 3
    for rec in payload["records"]:
        assert set(rec) >= {"spec", "key", "N", "H", "status", "properties"}


def test_odd_degree_parity_diagnostic_reported(cfg):
    record = check_spec((Partition([2, 1]), Partition([2, 1])), SolvedReals(cfg))
    assert record.status == "PASS"
    diag = record.diagnostics["odd_d_per_branch_parity"]
    assert diag["of"] == 2  # one real cubic, two branch values
    assert 0 <= diag["holds"] <= diag["of"]


def test_real_count_parity_counts_classify_real(cfg, monkeypatch):
    # R is the number of reals s sums over; one real fewer breaks R = N mod 2
    spec = validate_branch_spec(parse_profiles("2,1|2,1"))
    original = coverings.classify_real

    def dropping(solset, config):
        reals = original(solset, config)
        return reals[1:] if solset.spec == spec else reals

    monkeypatch.setattr(coverings, "classify_real", dropping)
    record = check_spec(spec.profiles, SolvedReals(cfg))
    assert record.properties["real_count_parity"] == "FAIL"
    assert record.properties["conjugation_closure"] == "PASS"


def test_corrupt_signs_negative_control(cfg):
    bad = cfg.replace(debug_corrupt_signs=True)
    for text in ("2,1|2,1", "2,2|2,1,1"):
        record = check_spec(parse_profiles(text), SolvedReals(bad))
        assert record.status == "FAIL"
        assert record.properties["theorem_hr_eq_s"] == "FAIL"
        assert not theorem_check(validate_branch_spec(parse_profiles(text)), bad).passed


def test_corrupt_signs_reach_the_identity_covering(cfg, tmp_path, capsys):
    # the degree-1 identity has one real polynomial, so its corrupted count is -1
    bad = cfg.replace(debug_corrupt_signs=True)
    spec = validate_branch_spec([Partition([1])])
    assert s_number(spec, bad) == -1
    report = theorem_check(spec, bad)
    assert report.s == -1 and report.hr == 1 and not report.passed
    config_path = tmp_path / "dbg.json"
    config_path.write_text(json.dumps({"debug_corrupt_signs": True}))
    assert main(["s-number", "--profiles", "1", "--config", str(config_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["s"] == -1


def test_sweep_solves_each_spec_once(cfg, solves):
    assert run_sweep(4, 2, cfg).passed
    assert len(solves) == len(set(solves))


def test_sweep_assembles_each_spec_classes_once(cfg, monkeypatch):
    # the spec's own HR comes from its theorem report, not from a second assembly
    assembled = []
    original = coverings._assemble_classes

    def counting(spec, *args):
        assembled.append(spec)
        return original(spec, *args)

    monkeypatch.setattr(coverings, "_assemble_classes", counting)
    assert run_sweep(4, 3, cfg).passed
    assert len(assembled) == len(set(assembled)) == 19


def test_check_spec_assembles_each_moved_spec_once(cfg, monkeypatch):
    # two equal profiles list every reordering twice; each distinct moved
    # spec is still assembled once, the spec itself by its theorem check
    assembled = []
    original = coverings._assemble_classes

    def counting(spec, *args):
        assembled.append(spec)
        return original(spec, *args)

    monkeypatch.setattr(coverings, "_assemble_classes", counting)
    spec = validate_branch_spec(parse_profiles("2,2,1|2,1,1,1|2,1,1,1"))
    assert check_spec(spec.profiles, SolvedReals(cfg)).status == "PASS"
    orders = {spec.permuted(list(perm)) for perm in itertools.permutations(range(3))}
    layouts = {
        validate_branch_spec(spec.profiles, values)
        for values in verify._value_configs(cfg, spec.profiles)
    }
    assert len(orders) == 3 and spec in orders & layouts
    assert len(assembled) == len(set(assembled))
    assert set(assembled) == orders | layouts


@pytest.mark.parametrize("dmax,kmax", [(1, 2), (0, 3), (4, 0)])
def test_empty_sweep_rejected(cfg, dmax, kmax):
    with pytest.raises(ValidationError):
        run_sweep(dmax, kmax, cfg)


@pytest.mark.parametrize("dmax", [7, 25])
def test_sweep_above_the_solver_bound_is_refused_before_listing(cfg, monkeypatch, dmax):
    # the listing grows as p(d)^3 and every spec above the bound is
    # FAILED-INFRA, so the sweep raises before it lists one; the CLI exits 3
    def listing(*args):
        raise AssertionError("enumerate_sweep_specs ran")

    monkeypatch.setattr(verify, "enumerate_sweep_specs", listing)
    with pytest.raises(ScaleExceeded):
        run_sweep(dmax, 3, cfg)
    assert main(["verify", "--dmax", str(dmax), "--kmax", "3"]) == EXIT_INFRA
    with pytest.raises(ValidationError):
        run_sweep(dmax, 0, cfg)


def test_sweep_draws_starts_only_for_the_swept_specs_with_two_or_more_branches(cfg, monkeypatch):
    # a one-branch spec is solved in closed form, and every other solve is
    # mapped or tracked from its swept spec: the reversed specs, every order
    # and every layout
    drawn = []
    original = coverings.solve_all

    def recording(spec, *args, **kwargs):
        solset = original(spec, *args, **kwargs)
        drawn.append(solset.starts_used > 0)
        return solset

    monkeypatch.setattr(coverings, "solve_all", recording)
    assert run_sweep(4, 3, cfg).passed
    assert len(drawn) == 37
    assert sum(drawn) == sum(len(p) >= 2 for p in enumerate_sweep_specs(4, 3)) == 4


def test_dropped_provider_is_freed_without_the_cycle_collector(cfg):
    spec = validate_branch_spec(parse_profiles("2,1|2,1"))
    gc.disable()
    try:
        solved = SolvedReals(cfg)
        assert real_hurwitz(spec, cfg, solved).value == s_number(spec, cfg, solved)
        ref = weakref.ref(solved)
        del solved
        assert ref() is None
    finally:
        gc.enable()


def test_property_failure_on_a_moved_spec_fails_its_record(cfg, monkeypatch, capsys):
    # the class count of every moved spec raises; the sweep records it and goes on
    def failing(spec, *args):
        raise SignMismatch(f"class count of {spec.canonical_key()} at {spec.values}")

    monkeypatch.setattr(verify, "real_hurwitz", failing)
    report = run_sweep(3, 2, cfg)
    assert report.summary() == {"total": 3, "passed": 0, "failed": 3, "infra": 0}
    for record in report.records:
        assert record.properties["position_invariance_hr"] == "FAIL"
        assert record.properties["position_invariance_s"] == "PASS"
        assert record.error.startswith("class count of ")
    assert main(["verify", "--dmax", "3", "--kmax", "2"]) == EXIT_PROPERTY
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["summary"]["failed"] == 3
