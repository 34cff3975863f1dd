"""Benchmark of realhurwitz: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload solve --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 28

Run from the repository root; the package is imported from ``src/``.  One
run measures one workload for ``--seconds`` seconds in a single process and
prints, as the last line of standard output, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time to import realhurwitz
  and build the first pass's inputs;
* ``wall_ref_s`` and ``cpu_ref_s``: mean wall time and user+sys CPU time
  (children included) of one pass, rescaled to a host of reference speed;
  passes run back to back on fresh draws from ``(seed, pass index)`` until
  the time is up;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The rescaling exists because a shared host changes speed: the same
count_factorizations pass took from 1.1 s to 1.8 s in runs minutes apart.
Before each pass and after the last, the run times a fixed pure-Python loop
(the host probe); the scale is ``REF_PROBE_S`` over the run's mean probe
time.  The raw figures, ``wall_s`` and ``cpu_s`` (medians over passes), the
probe mean and ``fail_ratio`` (failed over attempted items, 0 on a correct
run and so carried by ``failed`` and ``attempted``) are printed on standard
error and written to the run's record.

``--trace 1`` repeats the first pass's inputs: one untraced pass, then traced
passes (at least two) with wrappers from ``bench/tracing.py`` around each
layer's functions.  It reports the per-layer metrics: counts of the first
traced pass, medians of the times, and ``trace.overhead_s``, traced minus
untraced wall time of a pass.  The exact counters must agree between traced
passes, or the run is marked incorrect.

Each run writes its facts (machine, versions, BLAS threads, load, drawn
inputs, per-pass figures and host speed) to ``bench/out/``; traced runs also write their
spans there.  ``--all`` runs every workload untraced and traced in child
processes and prints one table.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
HOST_PROBES = 5  # host probe samples before each pass and after the last one
# the host probe's time on an uncontended host of the reference machine; the
# *_ref_s metrics are pass times rescaled to a host running at that speed
REF_PROBE_S = 0.004
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("solve", "sweep", "routes", "count")


def _prepare_environment():
    """Run with no config file and at most nproc BLAS threads; before numpy loads."""
    os.environ.pop("REALHURWITZ_CONFIG", None)
    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() else nproc)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _import():
    import realhurwitz
    import realhurwitz.cli  # noqa: F401  (the sweep calls realhurwitz.cli.main)

    from workloads import WORKLOADS

    return realhurwitz, WORKLOADS


def _cpu() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _host_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs this process now."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return time.perf_counter() - start


def _clear_class_cache(rh) -> str:
    """Start every pass with the factorization class cache empty, as a new process does."""
    cache = getattr(rh.factorizations, "_class_inverses", None)
    if cache is None or not hasattr(cache, "cache_clear"):
        return "absent"
    cache.cache_clear()
    return "cold"


def _facts(args) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def _probe(args) -> float:
    """Setup time in a fresh process: import realhurwitz and build pass 0's inputs."""
    rh, workloads = _import()
    workloads[args.workload].build(rh, args.seed, 0, args.toy)
    return time.perf_counter() - _T0


def _setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _measure(args) -> dict:
    facts = _facts(args)
    facts["load_before"] = os.getloadavg()
    rh, workloads = _import()
    facts["workers"] = rh.RunConfig().workers
    workload = workloads[args.workload]
    tracer = None
    if args.trace:
        from tracing import EXACT, Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    passes, failures, layers_by_pass, host_probes = [], [], {}, []
    attempted = failed = 0
    fixed = workload.build(rh, args.seed, 0, args.toy) if tracer else None
    index = 0
    while True:
        inputs = fixed if tracer else workload.build(rh, args.seed, index, args.toy)
        facts["class_inverses_cache"] = _clear_class_cache(rh)
        traced = tracer is not None and index > 0
        probes = [_host_probe() for _ in range(HOST_PROBES)]
        host_probes += probes
        if traced:
            tracer.run = index
            tracer.install()
        wall0, cpu0 = time.perf_counter(), _cpu()
        try:
            outputs = workload.run(rh, inputs)
        finally:
            wall1, cpu1 = time.perf_counter(), _cpu()
            if traced:
                tracer.uninstall()
        n, bad = workload.check(inputs, outputs)
        attempted += n
        failed += min(len(bad), n)
        failures += bad
        passes.append({
            "wall_s": wall1 - wall0,
            "cpu_s": cpu1 - cpu0,
            "traced": traced,
            "host_probe_s": statistics.fmean(probes),
            "inputs": workload.describe(inputs),
        })
        if traced:
            layers_by_pass[index] = tracer.layer_metrics(index)
        index += 1
        longest = max(p["wall_s"] for p in passes)
        enough = len(passes) >= (3 if tracer else 1)
        if enough and time.perf_counter() + longest > deadline:
            break
    host_probes += [_host_probe() for _ in range(HOST_PROBES)]
    # after the passes, so that starting these processes cannot slow the first pass
    setup = [] if tracer else _setup_samples(args)
    facts["load_after"] = os.getloadavg()
    facts["bindings"] = tracer.bindings if tracer else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    host_scale = REF_PROBE_S / statistics.fmean(host_probes)
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "host_probe_s": statistics.fmean(host_probes),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_ref_s": (statistics.fmean(p["wall_s"] for p in passes) * host_scale, "s"),
            "cpu_ref_s": (statistics.fmean(p["cpu_s"] for p in passes) * host_scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics, mismatch = _layer_metrics(passes, layers_by_pass, EXACT)
        if mismatch:
            failures.append(f"exact counters differ between traced passes: {mismatch}")
            failed = max(failed, 1)
    correct = failed == 0 and not failures
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        **raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": setup,
        "passes": passes,
        "failures": failures[:50],
        "facts": facts,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer:
        tracer.write(str(OUT / f"{stem}-spans.csv.gz"))
    return record


def _layer_metrics(passes, layers_by_pass, exact):
    """Counts from the first traced pass, medians of the times, and the tracing overhead."""
    runs = sorted(layers_by_pass)
    first = layers_by_pass[runs[0]]
    mismatch = {
        name: [layers_by_pass[r][name] for r in runs]
        for name in exact
        if any(layers_by_pass[r][name] != first[name] for r in runs)
    }
    metrics = {}
    for name, value in first.items():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        if unit == "s":
            value = statistics.median(layers_by_pass[r][name] for r in runs)
        elif isinstance(value, float):
            unit = "ratio"
        metrics[name] = (value, unit)
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, mismatch


def _run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; one table."""
    records = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            cmd += ["--toy"] if args.toy else []
            subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
            stem = f"{name}-seed{args.seed}-trace{trace}{'-toy' if args.toy else ''}"
            records[name, trace] = json.loads((OUT / f"{stem}.json").read_text())
    head = ("workload", "setup_s", "wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "peak_rss_mb",
            "fail_ratio", "traced_wall_s", "trace_overhead_s")
    print(" ".join(f"{h:>14}" for h in head))
    ok = True
    for name in WORKLOAD_NAMES:
        plain, traced = records[name, 0], records[name, 1]
        ok = ok and plain["correct"] and traced["correct"]
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        t = {k: v["value"] for k, v in traced["metrics"].items()}
        cells = [m["setup_s"], plain["wall_s"], plain["cpu_s"], m["wall_ref_s"], m["cpu_ref_s"],
                 m["peak_rss_mb"], plain["fail_ratio"], t["trace.traced_wall_s"], t["trace.overhead_s"]]
        print(f"{name:>14} " + " ".join(f"{c:>14.4f}" for c in cells))
    print(f"records, per-layer metrics and spans: {OUT}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "realhurwitz" / "__init__.py").is_file():
        print(f"error: no realhurwitz sources under {SRC}", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        parser.error("one of --workload or --all is required")
    _prepare_environment()
    if args.all:
        return _run_all(args)
    if args.probe:
        print(repr(_probe(args)))
        return 0
    record = _measure(args)
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "fail_ratio", "wall_s", "cpu_s")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}), file=sys.stderr)
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
