"""Run configuration: tolerances, budgets, seeds, output options."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

from .errors import ValidationError

CONFIG_ENV_VAR = "REALHURWITZ_CONFIG"

# accepted value types by field annotation (a string under postponed
# evaluation); bool passes only where listed, although Python counts it as an int
_FIELD_KINDS = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


@dataclass
class RunConfig:
    """Knobs shared by the solver, the counters and the CLI.

    Every output artifact embeds a copy of the active configuration so a run
    can be reproduced exactly.  Each field must hold a value of its annotated
    type; every number but ``seed`` must be positive, and ``seed`` nonnegative;
    every float must be finite.
    """

    tol_residual: float = 1e-10
    tol_dedup: float = 1e-6
    tol_cluster: float = 1e-5
    start_budget: int = 4000
    seed: int = 0
    output_format: str = "json"
    max_degree: int = 5
    force_class_diagnostics: bool = False
    debug_corrupt_signs: bool = False

    # not a field, so nothing can set it; bench/run.py records it in its run facts
    workers = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = _FIELD_KINDS[f.type]
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")
            if f.name == "seed":
                if value < 0:
                    raise ValidationError("seed must be nonnegative")
            elif f.type in ("int", "float") and not value > 0:
                raise ValidationError(f"{f.name} must be positive")
            if f.type == "float" and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value!r}")
        if self.output_format not in ("json", "text", "csv"):
            raise ValidationError(f"unknown output format {self.output_format!r}")

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)

    def as_json_dict(self) -> dict:
        """Reproducibility block embedded in every output artifact.

        It holds every field that can change a result: all but the output
        format.  The solver's iteration cap, step tolerance and degree bound
        are constants of ``polysolve``, the same for every run.
        """
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "output_format"
        }


def load_config(path: str | None = None, **overrides) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus keyword overrides.

    When no path is given, the file named by $REALHURWITZ_CONFIG is used if
    present. Unknown keys in the file are rejected.
    """
    values: dict = {}
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        for key in data:
            if key not in known:
                raise ValidationError(f"unknown config key {key!r} in {path}")
        values.update(data)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
