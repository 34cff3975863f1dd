"""Rewrite the stored reference outputs of the CLI.

Run from the repository root:

    PYTHONPATH=src python tests/reference/regen.py

Each command in ``COMMANDS`` runs in-process through ``realhurwitz.cli.main``
with no config file, and its exit code, stderr and ``result`` block are
written to ``<name>.json`` beside this script.  ``tests/test_reference.py``
runs the same commands and compares.  Regenerate only when an output is
meant to change, and say in CHANGES.md which output changed and why.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

COMMANDS = {
    "verify-d4-k3": ["verify", "--dmax", "4", "--kmax", "3"],
    "verify-d4-k3-corrupt": ["verify", "--dmax", "4", "--kmax", "3", "--debug-corrupt-signs"],
    "verify-d5-k2": ["verify", "--dmax", "5", "--kmax", "2"],
    "solve-321-3111": ["solve", "--profiles", "3,2,1|3,1,1,1"],
    "solve-411-3111": ["solve", "--profiles", "4,1,1|3,1,1,1"],
    "solve-211-211-211": ["solve", "--profiles", "2,1,1|2,1,1|2,1,1"],
    "s-number-321-3111": ["s-number", "--profiles", "3,2,1|3,1,1,1"],
    "real-hurwitz-321-3111": ["real-hurwitz", "--profiles", "3,2,1|3,1,1,1"],
    "real-hurwitz-211-211-211": ["real-hurwitz", "--profiles", "2,1,1|2,1,1|2,1,1"],
    "real-hurwitz-31-211-diagnostics": ["real-hurwitz", "--profiles", "3,1|2,1,1", "--diagnostics"],
    "real-hurwitz-1": ["real-hurwitz", "--profiles", "1"],
    "s-number-1": ["s-number", "--profiles", "1"],
    "series-1-m3-fit1": ["series", "--lambda", "1", "--mmax", "3", "--fit", "1"],
    "solve-7": ["solve", "--profiles", "7"],
}


def main():
    os.environ.pop("REALHURWITZ_CONFIG", None)
    sys.path.insert(0, str(HERE.parent))
    from helpers import run_cli_in_process

    for name, argv in COMMANDS.items():
        record = run_cli_in_process(argv)
        (HERE / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{name}: exit {record['exit']}")


if __name__ == "__main__":
    main()
