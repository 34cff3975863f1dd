"""Fast self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Runs every workload at toy size (solve: d=4 simple; sweep: d <= 3; routes:
d=3; count: d=5), untraced and traced, in child processes as the benchmark
driver does.  It checks that each run is correct and emits exactly the
metrics BENCHMARK.json names, with their units; that two traced processes at
one seed agree on the exact counters; that each run's record carries the raw
``wall_s``, ``cpu_s`` and ``fail_ratio``; that the tracer wraps every binding
callers read; and that ``polysolve.solutions`` equals the sum of N over the
specs solved in a pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# bindings a caller reads at the current layout of the package
REQUIRED_BINDINGS = {
    "polysolve.solve_all": {"polysolve", "coverings", "verify", "cli", "realhurwitz"},
    "polysolve.classify_real": {"polysolve", "coverings", "verify", "cli", "realhurwitz"},
    "factorizations.count_factorizations": {"factorizations", "polysolve", "verify", "realhurwitz"},
    "polysolve.residual_batch": {"polysolve"},
    "polysolve.residual_and_jacobian_batch": {"polysolve"},
    "polysolve.residual": {"polysolve"},
    "polysolve.canonical_coefficients": {"polysolve"},
}


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    record = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}-toy.json").read_text())
    for key in ("wall_s", "cpu_s", "fail_ratio", "host_probe_s"):
        assert isinstance(record[key], float), (workload, key, record.get(key))
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_emitted(result: dict, wanted: list[dict], label: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (label, result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    assert got == want, (label, sorted(set(got) ^ set(want)), got, want)


def _check_in_process():
    """Bindings and solutions = sum of N, from one traced toy pass per workload."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import realhurwitz as rh
    import realhurwitz.cli  # noqa: F401
    from tracing import Tracer
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        inputs = workload.build(rh, 3, 0, True)
        tracer = Tracer()
        tracer.install()
        try:
            outputs = workload.run(rh, inputs)
        finally:
            tracer.uninstall()
        assert not workload.check(inputs, outputs)[1], name
        for func, modules in REQUIRED_BINDINGS.items():
            assert modules <= set(tracer.bindings[func]), (func, tracer.bindings[func])
        solved = [s[5][3][0] for s in tracer.spans if tracer.names[s[1]] == "polysolve.solve_all"]
        total_n = sum(rh.count_factorizations(spec.profiles).N for spec in solved if not spec.is_identity)
        total_n += sum(1 for spec in solved if spec.is_identity)
        metrics = tracer.layer_metrics(0)
        assert metrics["polysolve.solutions"] == total_n, (name, metrics["polysolve.solutions"], total_n)
        print(f"ok   in-process {name}: {len(solved)} solves, solutions = sum N = {total_n}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    from tracing import EXACT  # noqa: E402  (HERE is on sys.path as the script's directory)

    for workload in (w["name"] for w in bench["workloads"]):
        _check_emitted(_run(workload, 0), bench["end_to_end"], f"{workload} trace 0")
        first, second = _run(workload, 1), _run(workload, 1)
        _check_emitted(first, bench["per_layer"], f"{workload} trace 1")
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, (workload, name, a, b)
        print(f"ok   {workload}: metrics and units as declared, exact counters repeat")
    _check_in_process()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
