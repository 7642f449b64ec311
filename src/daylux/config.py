"""Simulation configuration: defaults, `key = value` files, source specs.

Precedence is command-line flag over config-file key over built-in default.
Config files are plain text, one `key = value` per line, `#` comments and
blank lines ignored; keys use the field names below (snake_case).

The LUT and daylight sources are compact spec strings:

  lut:      synthetic[:e_max=180,shape=1.3,knots=32] | csv:PATH
  daylight: constant:LEVEL | step:LEVEL0,LEVEL1,K_SWITCH | ramp:LEVEL0,LEVEL1
            | fast[:base=40,amplitude=60,step_prob=0.05,max_jump=50] | csv:PATH

Generated daylight trajectories take their length from `steps`; a CSV
trajectory brings its own length and overrides `steps` for the run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from . import plant
from .signals import D8BV_MAX, ERROR_SCALINGS

# Repo-pinned seeds: the out-of-the-box run is the fast-daylight acceptance
# scenario, so these are part of the package's reproducibility contract.
DEFAULT_SEED_CONTROLLER = 2
DEFAULT_SEED_INVERSE = 2
DEFAULT_SEED_DAYLIGHT = 2

DEFAULT_STEPS = 2000
DEFAULT_E_DESIRED = 100
DEFAULT_GAMMA = 0.15
DEFAULT_WARMUP = 200


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class SimConfig:
    steps: int = DEFAULT_STEPS
    e_desired: int = DEFAULT_E_DESIRED
    gamma_controller: float = DEFAULT_GAMMA
    gamma_inverse: float = DEFAULT_GAMMA
    seed_controller: int = DEFAULT_SEED_CONTROLLER
    seed_inverse: int = DEFAULT_SEED_INVERSE
    seed_daylight: int = DEFAULT_SEED_DAYLIGHT
    lut_source: str = "synthetic"
    daylight_source: str = "fast"
    warmup: int = DEFAULT_WARMUP
    error_scaling: str = "independent"
    inverse_target_lag: int = 0
    plant_delay: int = 1
    use_bias: bool = True
    out_dir: str = "out"

    def validate(self) -> None:
        """Raise ConfigError on any out-of-contract field."""
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.e_desired <= D8BV_MAX:
            raise ConfigError(f"e_desired must be in [0, 255], got {self.e_desired}")
        for key in ("gamma_controller", "gamma_inverse"):
            gamma = getattr(self, key)
            if not (math.isfinite(gamma) and gamma > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {gamma}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.error_scaling not in ERROR_SCALINGS:
            raise ConfigError(
                f"error_scaling must be one of {ERROR_SCALINGS}, got {self.error_scaling!r}"
            )
        if self.inverse_target_lag not in (0, 1):
            raise ConfigError(f"inverse_target_lag must be 0 or 1, got {self.inverse_target_lag}")
        if self.plant_delay not in (0, 1):
            raise ConfigError(f"plant_delay must be 0 or 1, got {self.plant_delay}")
        for key, spec in (("lut", self.lut_source), ("daylight", self.daylight_source)):
            try:
                kind, params = parse_lut_spec(spec) if key == "lut" else parse_daylight_spec(spec)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            if kind == "csv" and not os.path.isfile(params["path"]):
                raise ConfigError(f"{key}: file not found: {params['path']}")


def parse_lut_spec(spec: str):
    """Split a LUT source spec into (kind, params)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "synthetic":
        params = _parse_kv(rest, {"e_max": int, "shape": float, "knots": int})
        return "synthetic", params
    if kind == "csv":
        if not rest:
            raise ValueError("csv source needs a path, e.g. csv:table.csv")
        return "csv", {"path": rest}
    raise ValueError(f"unknown LUT source {kind!r} (expected synthetic or csv)")


def parse_daylight_spec(spec: str):
    """Split a daylight source spec into (kind, params)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "constant":
        if not rest:
            raise ValueError("constant needs a level, e.g. constant:30")
        return "constant", {"level": _to_int(rest, "level")}
    if kind == "step":
        parts = [p.strip() for p in rest.split(",")] if rest else []
        if len(parts) != 3:
            raise ValueError("step needs three values, e.g. step:0,100,50")
        return "step", {
            "level0": _to_int(parts[0], "level0"),
            "level1": _to_int(parts[1], "level1"),
            "k_switch": _to_int(parts[2], "k_switch"),
        }
    if kind == "ramp":
        parts = [p.strip() for p in rest.split(",")] if rest else []
        if len(parts) != 2:
            raise ValueError("ramp needs two values, e.g. ramp:0,100")
        return "ramp", {"level0": _to_int(parts[0], "level0"), "level1": _to_int(parts[1], "level1")}
    if kind == "fast":
        params = _parse_kv(
            rest, {"base": int, "amplitude": int, "step_prob": float, "max_jump": int}
        )
        return "fast", params
    if kind == "csv":
        if not rest:
            raise ValueError("csv source needs a path, e.g. csv:daylight.csv")
        return "csv", {"path": rest}
    raise ValueError(
        f"unknown daylight source {kind!r} (expected constant, step, ramp, fast or csv)"
    )


def build_lut(cfg: SimConfig) -> plant.ProcessLut:
    kind, params = parse_lut_spec(cfg.lut_source)
    if kind == "csv":
        return plant.load_lut_csv(params["path"])
    return plant.synth_default_lut(
        e_max=params.get("e_max", plant.DEFAULT_LUT_E_MAX),
        gamma_shape=params.get("shape", plant.DEFAULT_LUT_SHAPE),
        knot_count=params.get("knots", plant.DEFAULT_LUT_KNOTS),
    )


def build_daylight(cfg: SimConfig) -> plant.DaylightTrajectory:
    kind, params = parse_daylight_spec(cfg.daylight_source)
    if kind == "csv":
        return plant.load_daylight_csv(params["path"])
    return plant.gen_daylight(kind, cfg.steps, seed=cfg.seed_daylight, **params)


def load_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; returns raw strings keyed by name."""
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: expected key = value at line {lineno}: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"{path}: empty key at line {lineno}")
            settings[key] = value
    return settings


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def apply_settings(cfg: SimConfig, settings: dict[str, str], origin: str) -> None:
    """Apply raw string settings onto cfg, with per-key type checking."""
    for key, value in settings.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        ftype = _FIELD_TYPES[key]
        try:
            if ftype == "bool":
                parsed = _BOOL_WORDS[value.strip().lower()]
            elif ftype == "int":
                parsed = int(value)
            elif ftype == "float":
                parsed = float(value)
            else:
                parsed = value
        except (KeyError, ValueError):
            raise ConfigError(
                f"{origin}: bad value for {key!r}: {value!r} (expected {ftype})"
            ) from None
        setattr(cfg, key, parsed)


def _parse_kv(rest: str, schema: dict[str, type]) -> dict:
    params: dict = {}
    if not rest:
        return params
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in schema:
            raise ValueError(f"unknown parameter {key!r} (expected one of {sorted(schema)})")
        try:
            params[key] = schema[key](value.strip())
        except ValueError:
            raise ValueError(f"bad value for {key!r}: {value!r}") from None
    return params


def _to_int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
