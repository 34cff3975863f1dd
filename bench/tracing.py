"""Span tracing of realhurwitz's layers, installed from outside the package.

Each traced function is wrapped once and the wrapper is bound in place of
the original at every module attribute of the package that holds it.  That
covers the module that defines it, every ``from .x import f`` copy, the
package namespace, and the call-time imports (``realsigns.s_number`` and
``cli._cmd_hurwitz`` read ``polysolve`` and ``factorizations`` attributes
when they run).  A binding that is missed would silently drop calls, so
``install`` records every binding it replaced and ``uninstall`` restores
exactly those.

Every call records one span ``(run, name, start_ns, end_ns, parent, info)``
into an in-memory list; ``info`` is a count taken at the boundary (rows of a
batch, DFS visits, starts and solutions of a solve).  Spans are aggregated
and written out only after the timed passes.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict


def _rows(args, kwargs, result):
    return int(args[1].shape[0])


def _visited(args, kwargs, result):
    return int(result.visited)


def _solve_info(args, kwargs, result):
    key = (args[0], kwargs.get("target"))
    return (int(result.starts_used), len(result.solutions), int(result.target), key)


def _length(args, kwargs, result):
    return len(result)


# (layer, function, info taken from the call) in layer order
TRACED = (
    ("factorizations", "count_factorizations", _visited),
    ("polysolve", "solve_all", _solve_info),
    ("polysolve", "classify_real", _length),
    ("polysolve", "residual_and_jacobian_batch", _rows),
    ("polysolve", "residual_batch", _rows),
    ("polysolve", "residual", None),
    ("polysolve", "canonical_coefficients", None),
    ("realsigns", "s_number", None),
    ("coverings", "theorem_check", None),
    ("coverings", "real_hurwitz", None),
    ("coverings", "covering_classes", None),
    ("coverings", "_assemble_classes", None),
    ("series", "series_table", None),
    ("series", "h_value", None),
    ("series", "basis_fit", None),
    ("verify", "run_sweep", None),
    ("verify", "check_spec", None),
    ("cli", "main", None),
)

PACKAGE = "realhurwitz"


class Tracer:
    """Wraps the functions in TRACED and keeps their spans in memory."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self.names: list[str] = []
        self.layers: dict[str, str] = {}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, info):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (tracer.run, name_id, start, end, parent, extra)

        return traced

    def install(self):
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, func, info in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(module, func, None) if module is not None else None
            if original is None:
                continue
            qualified = f"{layer}.{func}"
            self.names.append(qualified)
            self.layers[qualified] = layer
            wrapper = self._wrap(len(self.names) - 1, original, info)
            found = []
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._replaced.append((m, attr, original))
                        found.append(m.__name__.removeprefix(PACKAGE).lstrip(".") or PACKAGE)
            self.bindings[qualified] = sorted(found)

    def uninstall(self):
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def write(self, path: str):
        """Write the spans as gzip'd CSV: run,name,start_ns,end_ns,parent,info."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run,name,start_ns,end_ns,parent,info\n")
            for run, name_id, start, end, parent, extra in self.spans:
                if isinstance(extra, tuple):
                    extra = ";".join(str(v) for v in extra[:3])
                fh.write(f"{run},{self.names[name_id]},{start},{end},{parent},{'' if extra is None else extra}\n")

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Per-layer counts and times of one traced pass (see BENCHMARK.json)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == run]
        child_ns: dict[int, int] = defaultdict(int)
        for _, (_, _, start, end, parent, _) in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        name = self.names
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        layer_own: dict[str, int] = defaultdict(int)
        point_eval_ns = 0
        res_calls = res_rows = res_ns = 0
        jac_rows = visited = starts = solutions = reals = 0
        solve_keys = set()
        for sid, (_, name_id, start, end, parent, extra) in spans:
            fname = name[name_id]
            dur = end - start
            self_ns = dur - child_ns[sid]
            calls[fname] += 1
            total[fname] += dur
            own[fname] += self_ns
            layer_own[self.layers[fname]] += self_ns
            if fname == "polysolve.residual":
                point_eval_ns += dur
            elif fname == "polysolve.residual_batch":
                if parent < 0 or name[self.spans[parent][1]] != "polysolve.residual":
                    res_calls += 1
                    res_rows += extra or 0
                    res_ns += dur
            elif fname == "polysolve.residual_and_jacobian_batch":
                jac_rows += extra or 0
            elif fname == "factorizations.count_factorizations" and extra is not None:
                visited += extra
            elif fname == "polysolve.solve_all" and extra is not None:
                starts += extra[0]
                solutions += extra[1]
                solve_keys.add(extra[3])
            elif fname == "polysolve.classify_real" and extra is not None:
                reals += extra

        def s(ns):
            return ns / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        jac_calls = calls["polysolve.residual_and_jacobian_batch"]
        jac_ns = total["polysolve.residual_and_jacobian_batch"]
        canon_ns = total["polysolve.canonical_coefficients"]
        solve_calls = calls["polysolve.solve_all"]
        # solve_all's own span minus its direct children is what is left of the
        # solver once residuals, Jacobians, point checks and canonical forms are
        # taken out: bookkeeping, linear solves, dedup scans and harvest
        other_ns = own["polysolve.solve_all"]
        solve_self_ns = other_ns + jac_ns + res_ns + point_eval_ns + canon_ns
        return {
            "factorizations.calls": calls["factorizations.count_factorizations"],
            "factorizations.visited": visited,
            "factorizations.s": s(layer_own["factorizations"]),
            "polysolve.solve_calls": solve_calls,
            "polysolve.solve_distinct": len(solve_keys),
            "polysolve.solve_repeat": ratio(solve_calls, len(solve_keys)),
            "polysolve.starts": starts,
            "polysolve.solutions": solutions,
            "polysolve.starts_per_solution": ratio(starts, solutions),
            "polysolve.jac_calls": jac_calls,
            "polysolve.jac_rows": jac_rows,
            "polysolve.jac_rows_per_call": ratio(jac_rows, jac_calls),
            "polysolve.jac_s": s(jac_ns),
            "polysolve.res_calls": res_calls,
            "polysolve.res_rows": res_rows,
            "polysolve.res_s": s(res_ns),
            "polysolve.newton_rows_per_solution": ratio(jac_rows, solutions),
            "polysolve.point_evals": calls["polysolve.residual"],
            "polysolve.canon_calls": calls["polysolve.canonical_coefficients"],
            "polysolve.solve_self_s": s(solve_self_ns),
            "polysolve.other_s": s(other_ns),
            "polysolve.classify_calls": calls["polysolve.classify_real"],
            "polysolve.classify_s": s(total["polysolve.classify_real"]),
            "polysolve.reals": reals,
            "realsigns.s_number_calls": calls["realsigns.s_number"],
            "realsigns.self_s": s(layer_own["realsigns"]),
            "coverings.theorem_calls": calls["coverings.theorem_check"],
            "coverings.self_s": s(layer_own["coverings"]),
            "series.fit_calls": calls["series.basis_fit"],
            "series.fit_s": s(total["series.basis_fit"]),
            "verify.specs": calls["verify.check_spec"],
            "verify.self_s": s(layer_own["verify"]),
            "cli.self_s": s(layer_own["cli"]),
            "trace.spans": len(spans),
        }


# counters that must repeat bit for bit at one seed
EXACT = (
    "factorizations.visited",
    "polysolve.starts",
    "polysolve.solutions",
    "polysolve.jac_rows",
    "polysolve.res_rows",
)
