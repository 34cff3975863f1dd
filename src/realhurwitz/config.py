"""Run configuration: tolerances, budgets, seeds, output options."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from .errors import ValidationError

CONFIG_ENV_VAR = "REALHURWITZ_CONFIG"


@dataclass
class RunConfig:
    """Knobs shared by the solver, the counters and the CLI.

    Every output artifact embeds a copy of the active configuration so a run
    can be reproduced exactly.
    """

    tol_residual: float = 1e-10
    tol_dedup: float = 1e-6
    tol_real: float = 1e-8
    tol_cluster: float = 1e-5
    newton_max_iter: int = 200
    newton_step_tol: float = 1e-13
    start_budget: int = 4000
    seed: int = 0
    workers: int = 1
    cache: str | None = None
    output_format: str = "json"
    verbosity: int = 0
    max_degree: int = 5
    max_solver_degree: int = 6
    harvest_symmetries: bool = True
    chunk_size: int = 64
    force_class_diagnostics: bool = False
    debug_corrupt_signs: bool = False

    def __post_init__(self):
        for name in ("tol_residual", "tol_dedup", "tol_real", "tol_cluster", "newton_step_tol"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in (
            "newton_max_iter",
            "start_budget",
            "workers",
            "chunk_size",
            "max_degree",
            "max_solver_degree",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.output_format not in ("json", "text", "csv"):
            raise ValidationError(f"unknown output format {self.output_format!r}")

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)

    def as_json_dict(self) -> dict:
        """Reproducibility block embedded in every output artifact.

        The worker count is deliberately absent: results are required to be
        identical for any worker count, including byte-for-byte output.
        """
        return {
            "seed": self.seed,
            "start_budget": self.start_budget,
            "newton_max_iter": self.newton_max_iter,
            "newton_step_tol": self.newton_step_tol,
            "tol_residual": self.tol_residual,
            "tol_dedup": self.tol_dedup,
            "tol_real": self.tol_real,
            "tol_cluster": self.tol_cluster,
            "max_degree": self.max_degree,
            "harvest_symmetries": self.harvest_symmetries,
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
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        for key in data:
            if key not in known:
                raise ValidationError(f"unknown config key {key!r} in {path}")
        values.update(data)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
