"""The benchmark's workloads: inputs drawn from a seed, one pass, and its checks.

A pass calls realhurwitz's public API on every item of the workload once.
Each pass draws its own inputs from ``(seed, pass index)``: how many starts a
solve needs before it certifies depends strongly on where the seeded starts
and the branch values fall (one d=5 simple solve took 13 s at one seed and
26 s at another), so a run measures many independent draws rather than one.
The program only ever sees the drawn specs, values and ``RunConfig``.

Every item is checked against a reference value after the timed call.  An
item fails on a typed ``HurwitzError``, a non-COMPLETE certificate, a count
that differs from its target, or any value that differs from its reference;
a wrong answer is a failure, never a fast run.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _values(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    """k distinct real branch values in [-k, k], at least 0.5 apart."""
    while True:
        values = np.round(np.sort(rng.uniform(-k, k, size=k)), 3)
        if k == 1 or np.min(np.diff(values)) >= 0.5:
            return tuple(float(v) for v in values)


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _call(rh, fn):
    """Run one item; a typed library error is returned as the item's outcome."""
    try:
        return fn()
    except rh.HurwitzError as exc:
        return exc


def _error(out) -> str | None:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    return None


def _key(profiles) -> str:
    return "|".join(",".join(str(p) for p in lam.parts) for lam in profiles)


class Solve:
    """solve_all on two-branch specs of degree 5 and 6, where Newton dominates.

    Each of these certifies within one chunk of 64 starts at every seed
    tried, so the cost of a pass barely depends on the draw.  Specs with
    larger N (d=5 simple, N=125; (4,1,1) plus two simple at d=6, N=36) need
    from one to twenty chunks depending on the draw, which no run of this
    length averages out.
    """

    name = "solve"
    # (profiles, N): N is the exact factorization count the certificate must reach
    SPECS = (
        ("4,1|2,1,1,1", 5),
        ("3,2|2,1,1,1", 5),
        ("3,1,1|3,1,1", 5),
        ("5,1|2,1,1,1,1", 6),
        ("4,1,1|3,1,1,1", 6),
        ("3,2,1|3,1,1,1", 12),
    )
    TOY = (("2,1,1|2,1,1|2,1,1", 16),)

    def build(self, rh, seed: int, pass_index: int, toy: bool):
        rng = _rng(seed, pass_index)
        inputs = []
        for text, n in self.TOY if toy else self.SPECS:
            profiles = rh.parse_profiles(text)
            spec = rh.validate_branch_spec(profiles, _values(rng, len(profiles)))
            inputs.append((spec, rh.RunConfig(seed=_config_seed(rng)), n))
        return inputs

    def describe(self, inputs):
        return [
            {"spec": spec.canonical_key(), "config_seed": cfg.seed} for spec, cfg, _ in inputs
        ]

    def run(self, rh, inputs):
        return [_call(rh, lambda: rh.solve_all(spec, cfg)) for spec, cfg, _ in inputs]

    def check(self, inputs, outputs) -> tuple[int, list[str]]:
        failures = []
        for (spec, _, n), out in zip(inputs, outputs):
            err = _error(out)
            if err is None and (out.certificate != "COMPLETE" or out.target != n or len(out) != n):
                err = f"certificate {out.certificate}, found {len(out)}, target {out.target}, N {n}"
            if err:
                failures.append(f"{spec.canonical_key()}: {err}")
        return len(inputs), failures


class Sweep:
    """The CLI's property sweep ``verify --dmax 4 --kmax 3`` run in-process."""

    name = "sweep"
    DMAX, TOY_DMAX, KMAX = 4, 3, 3

    def build(self, rh, seed: int, pass_index: int, toy: bool):
        dmax = self.TOY_DMAX if toy else self.DMAX
        sweep_seed = _config_seed(_rng(seed, pass_index))
        argv = ["verify", "--dmax", str(dmax), "--kmax", str(self.KMAX), "--seed", str(sweep_seed)]
        return argv, REFERENCE["sweep"][str(dmax)]

    def describe(self, inputs):
        return {"argv": inputs[0]}

    def run(self, rh, inputs):
        argv, _ = inputs
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rh.cli.main(argv)
        return code, out.getvalue()

    def check(self, inputs, outputs) -> tuple[int, list[str]]:
        _, reference = inputs
        code, text = outputs
        if code != 0:
            return len(reference), [f"verify exited with {code}"] * len(reference)
        result = json.loads(text)["result"]
        failures = []
        seen = set()
        for rec in result["records"]:
            key = rec["key"].split("@")[0]
            seen.add(key)
            ref = reference.get(key)
            got = {"N": rec["N"], "s": rec.get("s"), "HR": rec.get("HR"), "s_reversed": rec.get("s_reversed")}
            if rec["status"] != "PASS" or got != ref:
                failures.append(f"{key}: {rec['status']} {got} != {ref}")
        failures += [f"{key}: missing" for key in sorted(set(reference) - seen)]
        want = {"total": len(reference), "passed": len(reference), "failed": 0, "infra": 0}
        if result["summary"] != want and not failures:
            failures.append(f"summary {result['summary']} != {want}")
        return len(reference), failures


class Routes:
    """Library routes that share no memo: theorem checks and a one-part table with its fit.

    Each even-degree theorem check solves its spec and the reversed spec
    twice (once for the class count, once for the signed count), so a shared
    solve context would halve its solves.  The d=4 simple check and the m=3
    table row are left out: each needs 64 or 128 starts depending on the
    draw, which moved whole passes by a quarter.
    """

    name = "routes"
    # (profiles, s, start budget): s is the signed real count, an invariant of the profiles
    CHECKS = (
        ("2,2|2,1,1", 0, None),
        ("3,2,1|3,1,1,1", 0, None),
        ("4,1|2,1,1,1", -1, 40000),
    )
    TOY_CHECKS = (("2,1|2,1", -1, None),)
    TABLE = ("1", 2, {0: 1, 1: 1, 2: -1})

    def build(self, rh, seed: int, pass_index: int, toy: bool):
        rng = _rng(seed, pass_index)
        config = rh.RunConfig(seed=_config_seed(rng))
        checks = []
        for text, s, budget in self.TOY_CHECKS if toy else self.CHECKS:
            profiles = rh.parse_profiles(text)
            spec = rh.validate_branch_spec(profiles, _values(rng, len(profiles)))
            cfg = config if budget is None else config.replace(start_budget=budget)
            checks.append((spec, cfg, s))
        lam, m_max, entries = self.TABLE
        return checks, (rh.parse_partition(lam), m_max, entries, config)

    def describe(self, inputs):
        checks, table = inputs
        return {
            "theorem_checks": [spec.canonical_key() for spec, _, _ in checks],
            "config_seed": table[3].seed,
        }

    def run(self, rh, inputs):
        checks, (lam, m_max, _, config) = inputs
        outputs = [_call(rh, lambda: rh.theorem_check(spec, cfg)) for spec, cfg, _ in checks]

        def table_and_fit():
            table = rh.series_table(lam, m_max, config)
            return table, rh.basis_fit(table, "odd", 0)

        outputs.append(_call(rh, table_and_fit))
        return outputs

    def check(self, inputs, outputs) -> tuple[int, list[str]]:
        checks, (_, _, entries, _) = inputs
        failures = []
        for (spec, _, s), out in zip(checks, outputs):
            err = _error(out)
            if err is None and not (out.passed and out.s == s):
                err = f"passed={out.passed}, s={out.s}, expected s={s}"
            if err:
                failures.append(f"{spec.canonical_key()}: {err}")
        out = outputs[-1]
        err = _error(out)
        if err is None:
            table, fit = out
            if table.entries != entries or fit.residual != 0:
                err = f"entries {table.entries}, fit residual {fit.residual}"
        if err:
            failures.append(f"series table: {err}")
        return len(outputs), failures


class Count:
    """count_factorizations on every admissible profile tuple of one degree."""

    name = "count"
    DEGREE, TOY_DEGREE = 7, 5

    def build(self, rh, seed: int, pass_index: int, toy: bool):
        # the seed orders the tuples and the profiles within each tuple; the
        # count and its DFS visits do not depend on either order
        rng = _rng(seed, pass_index)
        reference = REFERENCE["count"][str(self.TOY_DEGREE if toy else self.DEGREE)]
        inputs = []
        for key in sorted(reference):
            profiles = [rh.parse_partition(p) for p in key.split("|")]
            order = rng.permutation(len(profiles))
            inputs.append((tuple(profiles[i] for i in order), reference[key]))
        order = rng.permutation(len(inputs))
        return [inputs[i] for i in order]

    def describe(self, inputs):
        return {"tuples": len(inputs), "first": _key(inputs[0][0])}

    def run(self, rh, inputs):
        return [_call(rh, lambda: rh.count_factorizations(profiles)) for profiles, _ in inputs]

    def check(self, inputs, outputs) -> tuple[int, list[str]]:
        failures = []
        for (profiles, n), out in zip(inputs, outputs):
            err = _error(out)
            if err is None and out.N != n:
                err = f"N={out.N}, expected {n}"
            if err:
                failures.append(f"{_key(profiles)}: {err}")
        return len(inputs), failures


WORKLOADS = {w.name: w for w in (Solve(), Sweep(), Routes(), Count())}
