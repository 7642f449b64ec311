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

import io
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
        for key, type_name in _FIELD_TYPES.items():
            value = getattr(self, key)
            if not _has_type(key, value, type_name):
                article = "an" if type_name == "int" else "a"
                raise ConfigError(
                    f"{key} must be {article} {type_name}, got {type(value).__name__}"
                )
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


# Parameters of the synthetic table, typed as `synthetic:` spec keys or as
# `daylux lut generate` flags.
SYNTHETIC_LUT_SCHEMA = {"e_max": "int", "shape": "float", "knots": "int"}


def parse_lut_spec(spec: str):
    """Split a LUT source spec into (kind, params)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "synthetic":
        return "synthetic", _parse_kv(rest, kind, SYNTHETIC_LUT_SCHEMA)
    if kind == "csv":
        if not rest:
            raise ValueError("csv source needs a path, e.g. csv:table.csv")
        return "csv", {"path": rest}
    raise ValueError(f"unknown LUT source {kind!r} (expected synthetic or csv)")


def parse_daylight_spec(spec: str):
    """Split a daylight source spec into (kind, params)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind in plant.DAYLIGHT_PARAMS:
        schema = plant.DAYLIGHT_PARAMS[kind]
        if kind == "fast":
            return kind, _parse_kv(rest, kind, schema)
        parts = rest.split(",") if rest else []
        if len(parts) != len(schema):
            plural = "s" if len(schema) > 1 else ""
            raise ValueError(f"{kind} needs {len(schema)} value{plural}: {kind}:{','.join(schema)}")
        return kind, {n: convert(n, p.strip(), schema, kind) for n, p in zip(schema, parts)}
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
    try:
        return synthetic_lut(params)
    except ValueError as exc:
        raise ConfigError(f"lut: {kind}: {exc}") from exc


def synthetic_lut(params: dict) -> plant.ProcessLut:
    """The synthetic table for converted SYNTHETIC_LUT_SCHEMA values; absent keys default."""
    return plant.synth_default_lut(
        e_max=params.get("e_max", plant.DEFAULT_LUT_E_MAX),
        gamma_shape=params.get("shape", plant.DEFAULT_LUT_SHAPE),
        knot_count=params.get("knots", plant.DEFAULT_LUT_KNOTS),
    )


def build_daylight(cfg: SimConfig) -> plant.DaylightTrajectory:
    kind, params = parse_daylight_spec(cfg.daylight_source)
    if kind == "csv":
        return plant.load_daylight_csv(params["path"])
    try:
        return plant.gen_daylight(kind, cfg.steps, seed=cfg.seed_daylight, **params)
    except ValueError as exc:
        raise ConfigError(f"daylight: {kind}: {exc}") from exc


def load_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; returns raw strings keyed by name."""
    settings: dict[str, str] = {}
    lines = io.StringIO(plant.read_text(path, ConfigError), newline=None)
    for lineno, raw in enumerate(lines, start=1):
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


def _has_type(key: str, value, type_name: str) -> bool:
    """Whether a SimConfig value has its field's type.

    bool is an int subclass but counts as neither int nor float, int counts
    as float, and out_dir may be any path object.
    """
    if type_name == "bool":
        return type(value) is bool
    if type(value) is bool:
        return False
    if type_name == "int":
        return type(value) is int
    if type_name == "float":
        return isinstance(value, (int, float))
    return isinstance(value, str) or (key == "out_dir" and isinstance(value, os.PathLike))


def convert(key: str, value: str, schema: dict[str, str], origin: str):
    """Turn one typed-in string into the int, float, bool or str `schema` names.

    Simulate flags, config-file keys and source-spec parameters all pass
    through here, so a bad value reads the same wherever it was typed.
    str values are returned unchanged.
    """
    if key not in schema:
        raise ConfigError(f"{origin}: unknown key {key!r} (expected one of {sorted(schema)})")
    type_name = schema[key]
    try:
        if type_name == "bool":
            return _BOOL_WORDS[value.strip().lower()]
        if type_name == "int":
            return int(value)
        if type_name == "float":
            return float(value)
        return value
    except (KeyError, ValueError):
        raise ConfigError(
            f"{origin}: bad value for {key!r}: {value!r} (expected {type_name})"
        ) from None


def apply_settings(cfg: SimConfig, settings: dict[str, str], origin: str) -> None:
    """Apply raw string settings onto cfg, converted by the field types."""
    for key, value in settings.items():
        setattr(cfg, key, convert(key, value, _FIELD_TYPES, origin))


def _parse_kv(rest: str, origin: str, schema: dict[str, str]) -> dict:
    params: dict = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        params[key] = convert(key, value.strip(), schema, origin)
    return params
