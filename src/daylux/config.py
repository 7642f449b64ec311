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

import errno
import math
import os
import stat
import sys

from . import plant
from .signals import D8BV_MAX, ERROR_SCALINGS, check_type


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# SimConfig's fields in order, one (name, type name, default, help) row each.
# The `simulate` flags and their help, the config-file keys and validate's
# type checks all read this table; `--help` appends allowed values and default.
FIELDS = (
    ("steps", "int", 2000, "run length for generated daylight"),
    ("e_desired", "int", 100, "setpoint illuminance, 0..255"),
    ("gamma_controller", "float", 0.15, "controller learning rate"),
    ("gamma_inverse", "float", 0.15, "inverse-model learning rate"),
    # Repo-pinned seeds: the out-of-the-box run is the fast-daylight acceptance
    # scenario, so these are part of the package's reproducibility contract.
    ("seed_controller", "int", 2, "controller weight-init seed"),
    ("seed_inverse", "int", 2, "inverse-model weight-init seed"),
    ("seed_daylight", "int", 2, "daylight trajectory seed"),
    ("lut_source", "str", "synthetic",
     "plant table: synthetic[:e_max=..,shape=..,knots=..] or csv:PATH"),
    ("daylight_source", "str", "fast",
     "disturbance: constant:L | step:L0,L1,K | ramp:L0,L1 | fast[:k=v,..] | csv:PATH"),
    ("warmup", "int", 200, "steps excluded from band metrics"),
    ("error_scaling", "str", "independent", "eps/deps normalization"),
    ("inverse_target_lag", "int", 0, "inverse-model target is U(k-lag), lag"),
    ("plant_delay", "int", 1, "steps between command and measured response"),
    ("use_bias", "bool", True, "train both nets without bias terms"),
    ("out_dir", "str", "out", "artifact directory"),
)
_FIELD_TYPES = {name: type_name for name, type_name, _, _ in FIELDS}
SEED_MAX = 2**64 - 1


class SimConfig:
    """One run's settings: a keyword per FIELDS row, the row's default if omitted."""

    def __init__(self, **values) -> None:
        unknown = values.keys() - _FIELD_TYPES.keys()
        if unknown:
            raise TypeError(f"SimConfig got unexpected keyword argument(s): {sorted(unknown)}")
        for name, _, default, _ in FIELDS:
            setattr(self, name, values.get(name, default))

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is SimConfig else NotImplemented

    def __repr__(self) -> str:
        settings = ", ".join(f"{name}={getattr(self, name)!r}" for name, *_ in FIELDS)
        return f"SimConfig({settings})"

    def validate(self) -> None:
        """Raise ConfigError on any out-of-contract field or source-spec value, CSV rows aside."""
        for key, type_name in _FIELD_TYPES.items():
            value = getattr(self, key)
            if key == "out_dir" and isinstance(value, os.PathLike):
                continue  # any path object names a directory
            try:
                check_type(value, key, type_name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        # Past sys.maxsize no sequence can hold the run; say so before allocating.
        if self.steps > sys.maxsize:
            raise ConfigError(f"steps must be <= {sys.maxsize}, got {self.steps}")
        if not 0 <= self.e_desired <= D8BV_MAX:
            raise ConfigError(f"e_desired must be in [0, 255], got {self.e_desired}")
        for key in ("gamma_controller", "gamma_inverse"):
            gamma = getattr(self, key)
            if not (math.isfinite(gamma) and gamma > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {gamma}")
        # SplitMix64 rejects these seeds as well; this check names the key.
        for key in ("seed_controller", "seed_inverse", "seed_daylight"):
            seed = getattr(self, key)
            if not 0 <= seed <= SEED_MAX:
                raise ConfigError(f"{key} must be in [0, {SEED_MAX}], got {seed}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        for key, allowed in ALLOWED.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"{key} must be {' or '.join(map(str, allowed))}, got {value!r}")
        if self.out_dir == "":
            raise ConfigError("out_dir must not be empty")
        out_dir = os.fspath(self.out_dir)
        if "\0" in os.fsdecode(out_dir):  # no file name holds one
            raise ConfigError(f"out_dir must not contain a NUL character, got {out_dir!r}")
        # The run makes out_dir and any missing parents: what exists must be a
        # directory, and each name still to be made must fit its file system.
        path, mode, missing = nearest_existing(out_dir)
        if path and not stat.S_ISDIR(mode):
            raise ConfigError(f"out_dir is not a directory: {path}")
        if any(len(os.fsencode(n)) > os.pathconf(path or ".", "PC_NAME_MAX") for n in missing):
            raise ConfigError(f"out_dir: {os.strerror(errno.ENAMETOOLONG)}: {out_dir!r}")
        for key in SOURCES:  # one sample and the cached table check every value
            kind, params = checked_source(key, getattr(self, f"{key}_source"))
            if kind != "csv":
                generated_source(key, kind, params, 1, self.seed_daylight)


# The generated kinds of each source spec, with their parameter schemas; every
# spec may also be `csv:PATH`.
SOURCES = {
    "lut": {"synthetic": {"e_max": "int", "shape": "float", "knots": "int"}},
    "daylight": plant.DAYLIGHT_PARAMS,
}
# synth_default_lut's keyword for each `synthetic:` spec key.
LUT_KEYWORDS = {"e_max": "e_max", "shape": "gamma_shape", "knots": "knot_count"}
# Kinds whose parameters all have defaults and are given as key=value; the
# other kinds take every parameter, by position.
KEYWORD_KINDS = ("synthetic", "fast")


def parse_source(key: str, spec: str):
    """Split a `lut` or `daylight` source spec into (kind, params)."""
    kinds = SOURCES[key]
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "csv":
        if not rest:
            raise ValueError(f"csv source needs a path, e.g. csv:{key}.csv")
        return "csv", {"path": rest}
    if kind not in kinds:
        raise ValueError(f"unknown {key} source {kind!r} (expected {', '.join(kinds)} or csv)")
    schema = kinds[kind]
    if kind in KEYWORD_KINDS:
        return kind, _parse_kv(rest, kind, schema)
    parts = rest.split(",") if rest else []
    if len(parts) != len(schema):
        plural = "s" if len(schema) > 1 else ""
        raise ValueError(f"{kind} needs {len(schema)} value{plural}: {kind}:{','.join(schema)}")
    return kind, {n: convert(n, p.strip(), schema, kind) for n, p in zip(schema, parts)}


def checked_source(key: str, spec: str):
    """parse_source, with the key before every message and a csv path that names a file."""
    try:
        kind, params = parse_source(key, spec)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if kind == "csv":
        check_file(key, params["path"])
    return kind, params


def check_file(key: str, path) -> None:
    """Raise a ConfigError for key unless path names a regular file."""
    if not stat.S_ISREG(mode := file_mode(key, path)):
        problem = "not a file" if mode else "file not found"
        raise ConfigError(f"{key}: {problem}: {path!r}")


def file_mode(key: str, path) -> int:
    """os.stat(path).st_mode, or 0 if nothing is there; any other failure is a ConfigError for key.

    isfile and exists say False on every error, so they cannot tell a missing
    path from one that cannot be looked up (a name too long, no permission).
    """
    try:
        return os.stat(path).st_mode
    except (FileNotFoundError, NotADirectoryError, ValueError):  # ValueError: a NUL in path
        return 0
    except OSError as exc:
        raise ConfigError(f"{key}: {exc.strerror}: {path!r}") from None


def nearest_existing(out_dir):
    """Walk out_dir up to its first existing path ("" if none): (path, st_mode, names below it)."""
    path, mode, missing = out_dir, 0, []
    while path and not (mode := file_mode("out_dir", path)):
        missing.append(os.path.basename(path))
        path = os.path.dirname(path)
    return path, mode, missing


def build_lut(cfg: SimConfig) -> plant.ProcessLut:
    kind, params = checked_source("lut", cfg.lut_source)
    if kind == "csv":
        return plant.load_lut_csv(params["path"])
    return generated_source("lut", kind, params, cfg.steps, cfg.seed_daylight)


def build_daylight(cfg: SimConfig) -> plant.DaylightTrajectory:
    kind, params = checked_source("daylight", cfg.daylight_source)
    if kind == "csv":
        return plant.load_daylight_csv(params["path"])
    return generated_source("daylight", kind, params, cfg.steps, cfg.seed_daylight)


def generated_source(key: str, kind: str, params: dict, length: int, seed: int):
    """The table or `length`-sample trajectory a generated spec names, or a ConfigError."""
    try:
        if key == "lut":
            return plant.synth_default_lut(**{LUT_KEYWORDS[k]: v for k, v in params.items()})
        return plant.gen_daylight(kind, length, seed, **params)
    except ValueError as exc:
        raise ConfigError(f"{key}: {kind}: {exc}") from exc


def load_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; returns raw strings keyed by name."""
    check_file("config", path)
    settings: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in plant.read_lines(path, ConfigError):
        if "=" not in line:
            raise ConfigError(f"{path}: expected key = value at line {lineno}: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}: empty key at line {lineno}")
        if key in settings:
            raise ConfigError(f"{path}: {key!r} set twice, at lines {line_of[key]} and {lineno}")
        settings[key] = value
        line_of[key] = lineno
    return settings


# The fields limited to a fixed set of values, enforced by validate and listed by `--help`.
ALLOWED = {
    "error_scaling": ERROR_SCALINGS,
    "inverse_target_lag": (0, 1),
    "plant_delay": (0, 1),
}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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
        if key in params:
            raise ValueError(f"{origin}: {key!r} set twice")
        params[key] = convert(key, value.strip(), schema, origin)
    return params
