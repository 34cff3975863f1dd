import json

import pytest

from realhurwitz import (
    Partition,
    ValidationError,
    parse_profiles,
    run_sweep,
    s_number,
    theorem_check,
    validate_branch_spec,
)
from realhurwitz import coverings
from realhurwitz.cli import EXIT_OK, main
from realhurwitz.verify import Workspace, check_spec, enumerate_sweep_specs


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
        (Partition([2, 1, 1]), Partition([2, 1, 1]), Partition([2, 1, 1])),
        tiny,
        Workspace(tiny),
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
    record = check_spec((Partition([2, 1]), Partition([2, 1])), cfg, Workspace(cfg))
    assert record.status == "PASS"
    diag = record.diagnostics["odd_d_per_branch_parity"]
    assert diag["of"] == 2  # one real cubic, two branch values
    assert 0 <= diag["holds"] <= diag["of"]


def test_corrupt_signs_negative_control(cfg):
    bad = cfg.replace(debug_corrupt_signs=True)
    for text in ("2,1|2,1", "2,2|2,1,1"):
        record = check_spec(parse_profiles(text), bad, Workspace(bad))
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


@pytest.mark.parametrize("dmax,kmax", [(1, 2), (0, 3), (4, 0)])
def test_empty_sweep_rejected(cfg, dmax, kmax):
    with pytest.raises(ValidationError):
        run_sweep(dmax, kmax, cfg)
