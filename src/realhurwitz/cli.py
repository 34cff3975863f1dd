"""Command-line surface.

Subcommands: hurwitz, solve, s-number, real-hurwitz, verify, series.
JSON is the canonical output format; text and csv renderings are derived
from the same payload.  Every artifact embeds the active configuration.

Exit codes: 0 success, 2 validation error, 3 infrastructure limit
(budgets, scale, tolerance trouble), 4 property or consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import RunConfig, load_config
from .coverings import real_hurwitz
from .errors import InfraLimit, PropertyFailure, ValidationError
from .factorizations import count_factorizations
from .partitions import parse_partition, parse_profiles, parse_values, validate_branch_spec
from .polysolve import SolutionSet, classify_real, solve_all
from .realsigns import signed_sum
from .series import basis_fit, series_table
from .verify import run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFRA = 3
EXIT_PROPERTY = 4


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--budget", dest="start_budget", type=int, default=None,
                        help="multistart start budget")
    parser.add_argument("--tol-residual", type=float, default=None)
    parser.add_argument("--tol-dedup", type=float, default=None)
    parser.add_argument("--tol-cluster", type=float, default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file (default: $REALHURWITZ_CONFIG)")
    parser.add_argument("--format", dest="output_format", choices=("json", "text", "csv"),
                        default=None, help="output format (default json)")


# the one-spec commands only: a command that solves many specs would
# overwrite the one-spec file on every solve
_CACHE_HELP = "JSON file of a solved set, carried as a known set and rewritten"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realhurwitz",
        description="Signed counts of real polynomial branched coverings, "
        "with certified complex solution sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", help="exact complex count (Goulden-Jackson closed form)")
    p.add_argument("--profiles", required=True, help='pipe-separated partitions, e.g. "2,1|2,1"')
    _add_common(p)

    p = sub.add_parser("solve", help="all normalized complex polynomials for a spec")
    p.add_argument("--profiles", required=True)
    p.add_argument("--values", default=None,
                   help='branch values (default 1..k); write --values=-2,2 for a leading minus')
    p.add_argument("--cache", default=None, help=_CACHE_HELP)
    _add_common(p)

    p = sub.add_parser("s-number", help="signed count of real normalized polynomials")
    p.add_argument("--profiles", required=True)
    p.add_argument("--values", default=None)
    p.add_argument("--cache", default=None, help=_CACHE_HELP)
    _add_common(p)

    p = sub.add_parser("real-hurwitz", help="signed count of real covering classes")
    p.add_argument("--profiles", required=True)
    p.add_argument("--values", default=None)
    p.add_argument("--diagnostics", dest="force_class_diagnostics",
                   action="store_const", const=True, default=None,
                   help="build classes even in the parity-odd branch")
    _add_common(p)

    p = sub.add_parser("verify", help="property sweep over all specs up to bounds")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--debug-corrupt-signs", action="store_const", const=True, default=None,
                   help="negative control: corrupt one sign and expect failures")
    _add_common(p)

    p = sub.add_parser("series", help="one-part value table and basis fit")
    p.add_argument("--lambda", dest="lam", required=True, help='partition, e.g. "3,1"')
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--fit", type=int, default=None, help="basis degree bound for the fit")
    p.add_argument("--max-degree", type=int, default=None, help="table degree bound")
    _add_common(p)

    return parser


def _config_from_args(args) -> RunConfig:
    # each flag's dest is its field name; a flag left unset (None) keeps the file's value
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return load_config(args.config, **overrides)


def _spec_from_args(args):
    profiles = parse_profiles(args.profiles)
    values = parse_values(args.values) if args.values is not None else None
    return validate_branch_spec(profiles, values)


def _emit(payload: dict, config: RunConfig):
    fmt = config.output_format
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "text":
        for line in _render_text(payload):
            print(line)
    else:
        for line in _render_csv(payload):
            print(line)


def _render_text(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_render_text(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _render_csv(payload: dict) -> list[str]:
    result = payload.get("result", {})
    if "entries" in result:
        lines = ["m,h,degree,degree_parity"]
        for row in result["entries"]:
            lines.append(f"{row['m']},{row['h']},{row['degree']},{row['degree_parity']}")
        return lines
    if "records" in result:
        lines = ["key,status,N,s,HR"]
        for rec in result["records"]:
            lines.append(
                f"\"{rec['key']}\",{rec['status']},{rec['N']},{rec.get('s', '')},{rec.get('HR', '')}"
            )
        return lines
    return [json.dumps(payload, sort_keys=True)]


def _payload(command: str, config: RunConfig, result: dict) -> dict:
    return {"command": command, "config": config.as_json_dict(), "result": result}


def _cmd_hurwitz(args, config: RunConfig) -> int:
    profiles = parse_profiles(args.profiles)
    count = count_factorizations(profiles)
    _emit(_payload("hurwitz", config, count.as_json_dict()), config)
    return EXIT_OK


def _solve_cached(spec, config: RunConfig, path: str | None) -> SolutionSet:
    """solve_all, carrying the solved set stored at path, which then holds this one.

    The file holds a ``solve`` result block.  Nothing in it is trusted: its
    points are carried and accepted as exact images, with no polish, so a
    row off the solution set fails the residual filter, a set of the same
    profile multiset at another layout or order serves too, and the
    multistart fills whatever it misses.  An unreadable or malformed file is
    a miss.  A path that names a directory or lies in a missing directory
    raises ValidationError before any solve.
    """
    if path is None:
        return solve_all(spec, config)
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"cache path {path} is a directory or lies in a missing directory")
    try:
        with open(path, encoding="utf-8") as fh:
            known = (SolutionSet.from_json_dict(json.load(fh)),)
    except (OSError, KeyError, TypeError, ValueError):
        known = ()
    solset = solve_all(spec, config, known=known)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(solset.as_json_dict(), fh, sort_keys=True)
    except OSError as exc:
        raise ValidationError(f"cannot write cache file {path}: {exc}") from exc
    return solset


def _cmd_solve(args, config: RunConfig) -> int:
    spec = _spec_from_args(args)
    solset = _solve_cached(spec, config, args.cache)
    _emit(_payload("solve", config, solset.as_json_dict()), config)
    return EXIT_OK


def _cmd_s_number(args, config: RunConfig) -> int:
    spec = _spec_from_args(args)
    solset = _solve_cached(spec, config, args.cache)
    reals = classify_real(solset, config)
    result = {
        "spec": spec.as_json_dict(),
        "s": signed_sum(reals, config),
        "real_polynomials": [p.as_json_dict() for p in reals],
    }
    _emit(_payload("s-number", config, result), config)
    return EXIT_OK


def _cmd_real_hurwitz(args, config: RunConfig) -> int:
    spec = _spec_from_args(args)
    result = real_hurwitz(spec, config)
    _emit(_payload("real-hurwitz", config, result.as_json_dict()), config)
    return EXIT_OK


def _cmd_verify(args, config: RunConfig) -> int:
    report = run_sweep(args.dmax, args.kmax, config)
    _emit(_payload("verify", config, report.as_json_dict()), config)
    if not report.passed:
        return EXIT_PROPERTY if any(r.status == "FAIL" for r in report.records) else EXIT_INFRA
    return EXIT_OK


def _cmd_series(args, config: RunConfig) -> int:
    lam = parse_partition(args.lam)
    table = series_table(lam, args.mmax, config)
    result = table.as_json_dict()
    if args.fit is not None:
        fits = {}
        for parity in ("even", "odd"):
            if len(table.parity_entries(parity)) >= 2:
                fits[parity] = basis_fit(table, parity, args.fit).as_json_dict()
        result["fit"] = fits
    _emit(_payload("series", config, result), config)
    return EXIT_OK


_COMMANDS = {
    "hurwitz": _cmd_hurwitz,
    "solve": _cmd_solve,
    "s-number": _cmd_s_number,
    "real-hurwitz": _cmd_real_hurwitz,
    "verify": _cmd_verify,
    "series": _cmd_series,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](args, config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfraLimit as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except PropertyFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    raise SystemExit(main())
