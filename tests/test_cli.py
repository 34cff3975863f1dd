import dataclasses
import json
import math

import pytest

from realhurwitz import RunConfig, count_factorizations, parse_profiles
from realhurwitz.cli import (
    EXIT_INFRA,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_VALIDATION,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_hurwitz_command(capsys):
    payload = run_json(capsys, "hurwitz", "--profiles", "2,1|2,1")
    assert payload["command"] == "hurwitz"
    assert payload["result"]["N"] == 3
    assert payload["result"]["H"] == "1"
    assert payload["config"]["seed"] == 0

    payload = run_json(capsys, "hurwitz", "--profiles", "2,1,1|2,2")
    assert payload["result"]["N"] == 2
    assert payload["result"]["H"] == "1/2"

    payload = run_json(capsys, "hurwitz", "--profiles", "4")
    assert payload["result"]["N"] == 1
    assert payload["result"]["H"] == "1/4"

    # --budget is the multistart start budget for every subcommand
    payload = run_json(capsys, "hurwitz", "--profiles", "2,1|2,1", "--budget", "7")
    assert payload["config"]["start_budget"] == 7


def test_solve_command(capsys):
    payload = run_json(capsys, "solve", "--profiles", "2,1|2,1", "--values=-2,2")
    result = payload["result"]
    assert result["certificate"] == "COMPLETE"
    assert result["found"] == result["target"] == 3
    assert len(result["solutions"]) == 3


def test_s_number_command(capsys):
    payload = run_json(capsys, "s-number", "--profiles", "2,1|2,1", "--values=-2,2")
    result = payload["result"]
    assert result["s"] == -1
    (poly,) = result["real_polynomials"]
    assert poly["sign"] == -1 and poly["t"] == 1 and poly["ord"] == 1
    assert poly["coefficients"] == pytest.approx([-3.0, 0.0], abs=1e-8)


def test_real_hurwitz_command(capsys):
    payload = run_json(capsys, "real-hurwitz", "--profiles", "2,1|2,1", "--values=-2,2")
    assert payload["result"]["HR"] == "-1"

    payload = run_json(capsys, "real-hurwitz", "--profiles", "3,1|2,1,1")
    assert payload["result"]["HR"] == "0"
    assert payload["result"]["reason"] == "parity-odd branch"
    assert "classes" not in payload["result"]  # short-circuited

    payload = run_json(
        capsys, "real-hurwitz", "--profiles", "3,1|2,1,1", "--diagnostics"
    )
    assert payload["result"]["HR"] == "0"
    assert len(payload["result"]["classes"]) >= 1


def test_series_command(capsys):
    payload = run_json(capsys, "series", "--lambda", "1", "--mmax", "2", "--fit", "0")
    rows = payload["result"]["entries"]
    assert [r["h"] for r in rows] == [1, 1, -1]
    fit = payload["result"]["fit"]["odd"]
    assert fit["residual"] == "0"


def test_series_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--lambda", "1", "--mmax", "2", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,h,degree,degree_parity"
    assert lines[1] == "0,1,1,odd"
    assert lines[3] == "2,-1,3,odd"


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--profiles", "2,1|2,1", "--format", "text"
    )
    assert code == EXIT_OK
    assert "N: 3" in out


def test_verify_command_small(capsys):
    payload = run_json(capsys, "verify", "--dmax", "3", "--kmax", "2")
    summary = payload["result"]["summary"]
    assert summary["total"] == 3
    assert summary["passed"] == 3


def test_verify_csv_format(capsys):
    records = run_json(capsys, "verify", "--dmax", "3", "--kmax", "2")["result"]["records"]
    code, out, _ = run_cli(capsys, "verify", "--dmax", "3", "--kmax", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "key,status,N,s,HR"
    assert lines[1:] == [
        f'"{r["key"]}",{r["status"]},{r["N"]},{r["s"]},{r["HR"]}' for r in records
    ]
    assert '"d3:2,1|2,1@1.0,2.0",PASS,3,-1,-1' in lines


def test_verify_negative_control(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--dmax", "3", "--kmax", "2", "--debug-corrupt-signs"
    )
    assert code == EXIT_PROPERTY
    payload = json.loads(out)
    assert payload["result"]["summary"]["failed"] >= 1


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "hurwitz", "--profiles", "2,2|2,2")
    assert code == EXIT_VALIDATION
    assert "error" in err


def test_nonpositive_degree_bounds_rejected(capsys):
    code, _, err = run_cli(capsys, "series", "--lambda", "1", "--mmax", "2", "--max-degree", "0")
    assert code == EXIT_VALIDATION
    assert "max_degree" in err


def test_infra_error_exit_code(capsys, monkeypatch):
    from realhurwitz import polysolve

    code, _, err = run_cli(
        capsys, "solve", "--profiles", "2,1,1|2,1,1|2,1,1", "--budget", "1"
    )
    assert code == EXIT_INFRA
    assert "IncompleteEnumeration" in err
    # degree 7 is beyond the solver's scale guard: refused before any Newton step
    newton = []
    monkeypatch.setattr(polysolve, "_newton_batch", lambda *args, **kwargs: newton.append(args))
    code, out, err = run_cli(capsys, "solve", "--profiles", "7")
    assert code == EXIT_INFRA
    assert out == "" and "ScaleExceeded" in err
    assert newton == []


def test_determinism_across_runs(capsys):
    args = ("s-number", "--profiles", "3,1|2,1,1", "--values", "28,1", "--seed", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_seed_recorded_in_output(capsys):
    payload = run_json(capsys, "solve", "--profiles", "2,1|2,1", "--seed", "42")
    assert payload["config"]["seed"] == 42
    assert payload["result"]["seed"] == 42


def test_cache_flag_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    first = run_json(
        capsys, "solve", "--profiles", "2,1|2,1", "--values=-2,2", "--cache", cache
    )
    again = run_json(
        capsys, "solve", "--profiles", "2,1|2,1", "--values=-2,2", "--cache", cache
    )
    assert again["result"]["solutions"] == first["result"]["solutions"]
    assert again["result"]["starts_used"] == 0


def test_s_number_cache_hits_on_second_run(tmp_path, capsys, monkeypatch):
    from realhurwitz import polysolve

    # the second run accepts the N stored points as they are and draws no
    # start chunk, so it runs no Newton batch; nor does the real
    # classification
    newton = polysolve._newton_batch
    rows = []

    def spy(system, starts, config, stop):
        rows.append(len(starts))
        return newton(system, starts, config, stop)

    monkeypatch.setattr(polysolve, "_newton_batch", spy)
    cache = str(tmp_path / "c.json")
    args = ("s-number", "--profiles", "2,1|2,1", "--values=-2,2", "--cache", cache)
    first = run_json(capsys, *args)
    assert 64 in rows
    rows.clear()
    again = run_json(capsys, *args)
    assert again["result"] == first["result"]
    assert rows == []


def test_s_number_at_large_values(capsys):
    # the real solution is projected, so no real-coordinate polish can fail
    payload = run_json(capsys, "s-number", "--profiles", "2,1|2,1", "--values=-100,100")
    assert payload["result"]["s"] == -1


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (("s-number", "--profiles", "2,1|2,1", "--values=-1e6,1e6"), "s", -1),
        (("solve", "--profiles", "3,2,1|3,1,1,1", "--values=-1e7,1e7"), "found", 12),
        (("s-number", "--profiles", "2,2|2,1,1", "--values=-1e9,1e9"), "s", 0),
        (("s-number", "--profiles", "2,2|2,1,1", "--values=-1e9,1e9"), "R", 2),
        (("s-number", "--profiles", "4,1|2,1,1,1", "--values=-1e9,1e9"), "s", -1),
        (("s-number", "--profiles", "4,1|2,1,1,1", "--values=-1e10,1e10"), "s", -1),
    ],
)
def test_large_values_accept_residuals_at_the_rounding_floor(capsys, argv, key, expected):
    # F cannot be computed below gamma (1 + max|w|) here, far above tol_residual;
    # an incomplete solve would exit 3
    result = run_json(capsys, *argv)["result"]
    if argv[0] == "s-number":
        # non-real solutions pair off under conjugation, so R has the parity of N
        result["R"] = len(result["real_polynomials"])
        assert result["R"] % 2 == count_factorizations(parse_profiles(argv[2])).N % 2
    assert result[key] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--dmax", "3", "--kmax", "2"),
        ("real-hurwitz", "--profiles", "2,1|2,1"),
        ("series", "--lambda", "1", "--mmax", "2"),
    ],
)
def test_cache_rejected_on_multi_spec_commands(tmp_path, capsys, monkeypatch, argv):
    # these commands solve more than one spec, so a one-spec cache file
    # would be overwritten on every solve and never hit
    from realhurwitz import polysolve

    newton = []
    monkeypatch.setattr(polysolve, "_newton_batch", lambda *a, **kw: newton.append(a))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache", str(tmp_path / "c.jsonl")])
    assert exc.value.code == EXIT_VALIDATION
    assert "--cache" in capsys.readouterr().err
    assert newton == []


@pytest.mark.parametrize(
    "command, where",
    [("solve", "missing directory"), ("s-number", "directory")],
)
def test_bad_cache_path_rejected(tmp_path, capsys, monkeypatch, command, where):
    from realhurwitz import polysolve

    cache = tmp_path / "missing" / "x.jsonl" if where == "missing directory" else tmp_path
    newton = []
    monkeypatch.setattr(polysolve, "_newton_batch", lambda *args, **kwargs: newton.append(args))
    code, out, err = run_cli(capsys, command, "--profiles", "2,1|2,1", "--cache", str(cache))
    assert code == EXIT_VALIDATION
    assert out == "" and str(cache) in err
    assert newton == []  # rejected before any Newton batch ran


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 99}))
    payload = run_json(
        capsys, "hurwitz", "--profiles", "2,1|2,1", "--config", str(config_path)
    )
    assert payload["config"]["seed"] == 99

    monkeypatch.setenv("REALHURWITZ_CONFIG", str(config_path))
    payload = run_json(capsys, "hurwitz", "--profiles", "2,1|2,1")
    assert payload["config"]["seed"] == 99
    # explicit flags still win over the config file
    payload = run_json(capsys, "hurwitz", "--profiles", "2,1|2,1", "--seed", "3")
    assert payload["config"]["seed"] == 3


def test_bad_config_file_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"no_such_key": 1}))
    code, _, err = run_cli(
        capsys, "hurwitz", "--profiles", "2,1|2,1", "--config", str(config_path)
    )
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "values, field",
    [
        ({"start_budget": "10"}, "start_budget"),
        ({"tol_dedup": None}, "tol_dedup"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"newton_max_iter": True}, "newton_max_iter"),
        ({"harvest_symmetries": False}, "harvest_symmetries"),
        ({"verbosity": 1}, "verbosity"),
        ({"chunk_size": 64}, "chunk_size"),
        ({"workers": 2}, "workers"),
        ({"newton_step_tol": 1e-3}, "newton_step_tol"),
        ({"max_solver_degree": 7}, "max_solver_degree"),
        ({"tol_dedup": math.inf}, "tol_dedup"),
        ({"tol_real": 1e-8}, "tol_real"),
        ({"cache": "x.jsonl"}, "cache"),
    ],
)
def test_bad_config_values_rejected(tmp_path, capsys, values, field):
    # a dict is written to a config file; a list is passed as flags
    if isinstance(values, dict):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(values))
        values = ["--config", str(config_path)]
    code, out, err = run_cli(capsys, "solve", "--profiles", "2,1|2,1", *values)
    assert code == EXIT_VALIDATION
    assert field in err and out == ""


def test_retired_tol_real_flag_rejected(capsys):
    # realness is read off the conjugation pairing under tol_dedup
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--profiles", "2,1|2,1", "--tol-real", "1e-8"])
    assert exc.value.code == EXIT_VALIDATION
    assert "--tol-real" in capsys.readouterr().err


def test_config_block_records_result_changing_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dmax", "3", "--kmax", "2", "--debug-corrupt-signs")
    assert code == EXIT_PROPERTY
    config = json.loads(out)["config"]
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(config) == fields - {"output_format"}
    assert config["debug_corrupt_signs"] is True
    assert config["force_class_diagnostics"] is False

    payload = run_json(capsys, "real-hurwitz", "--profiles", "3,1|2,1,1", "--diagnostics")
    assert payload["config"]["force_class_diagnostics"] is True
    assert payload["config"]["debug_corrupt_signs"] is False


def test_unreadable_config_file_rejected(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{seed: 1")
    for path in (broken, tmp_path / "missing.json"):
        code, _, err = run_cli(capsys, "hurwitz", "--profiles", "2,1|2,1", "--config", str(path))
        assert code == EXIT_VALIDATION
        assert str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--profiles", "2,1|2,1", "--seed", "-1"),
        ("verify", "--dmax", "1", "--kmax", "2"),
        ("verify", "--dmax", "3", "--kmax", "0"),
        ("series", "--lambda", "1", "--mmax", "-1"),
        ("s-number", "--profiles", "2,1|2,1", "--values="),
        ("series", "--lambda", "1", "--mmax", "2", "--fit", "-1"),
    ],
)
def test_bad_arguments_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert out == "" and err.startswith("error: ")
