"""Conversions between 8-bit engineering units and the network's [-1, 1] scale.

All loop signals (illuminance, control voltage, daylight) live on an 8-bit
integer grid 0..255.  The calibration is 100 units == 500 lx on the
illuminance channels and 127 units == 5 V on the control channel.  Networks
see these values mapped affinely onto [-1, 1]; network outputs are limited to
[-1, 1] and mapped back onto the 8-bit grid.

Error signals are wider than one channel: eps = E_desired - E_measured spans
[-255, 255] and its first difference deps spans [-510, 510].  Two scaling
conventions are provided; "independent" divides each by its own full span,
"shared255" divides both by 255 (saturating deps first).  The scalings take
eps and deps as loop_step derives them from checked 8-bit signals, so they
check neither; SimConfig.validate is the one check of the scaling's name.
"""

from __future__ import annotations

from math import ceil, floor

D8BV_MAX = 255
EPS_SPAN = 255
DEPS_SPAN = 510

ERROR_SCALINGS = ("independent", "shared255")


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero (2.5 -> 3, -2.5 -> -3).

    Python's built-in round() ties to even, which would make the 8-bit grid
    mapping non-uniform, so the rule is pinned here.
    """
    return floor(x + 0.5) if x >= 0.0 else ceil(x - 0.5)


def check_d8bv(value: int, name: str = "value") -> int:
    """Validate an 8-bit signal: exactly an int (no bool or other subclass) in [0, 255]."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if 0 <= value <= 255:  # literal bounds and no taken jump: 22 calls per step
        return value
    raise ValueError(f"{name} must be in [0, 255], got {value}")


_ACCEPTS = {"float": (int, float), "bool": bool, "str": str}


def check_type(value, name: str, type_name: str):
    """Return value if it is of type_name ("int", "float", "bool" or "str"), else raise naming it.

    "int" takes exactly an int and "float" an int or a float; a bool is only
    a "bool".  check_d8bv tests `type(v) is not int` inline instead,
    because it runs 22 times per step.
    """
    if type(value) is bool:
        ok = type_name == "bool"
    elif type_name == "int":
        ok = type(value) is int
    else:
        ok = isinstance(value, _ACCEPTS[type_name])
    if not ok:
        article = "an" if type_name == "int" else "a"
        raise ValueError(f"{name} must be {article} {type_name}, got {type(value).__name__}")
    return value


def scale_to_unit(value: int) -> float:
    """Map an 8-bit value onto [-1, 1]: v/127.5 - 1 (0 -> -1, 255 -> +1)."""
    check_d8bv(value)
    return value / 127.5 - 1.0


def unit_to_d8bv(u: float) -> int:
    """Map a unit-scale value back to the 8-bit grid.

    The input is saturated to [-1, 1] first (the actuator limit), then
    quantised with round-half-away-from-zero.  0.0 -> 128.
    """
    if u < -1.0:
        u = -1.0
    elif u > 1.0:
        u = 1.0
    return round_half_away((u + 1.0) * 127.5)


def scale_error(eps: int) -> float:
    """Scale a regulation error from [-255, 255] to the unit interval.

    Both error scalings divide eps by 255, so this takes no scaling.
    """
    return eps / EPS_SPAN


def scale_delta_error(deps: int, scaling: str) -> float:
    """Scale an error first-difference from [-510, 510] to the unit interval.

    Under "shared255" the difference saturates at +-255 and shares the error
    channel's divisor, so a one-step swing across the whole range maps to the
    same magnitude as a full-range error; any other scaling is "independent".
    """
    if scaling == "shared255":
        return max(-255, min(255, deps)) / 255
    return deps / DEPS_SPAN


def clamp8_sum(a: int, b: int) -> int:
    """Sum of two 8-bit signals, saturating at 255 (sensor ceiling)."""
    check_d8bv(a, "a")
    check_d8bv(b, "b")
    return min(a + b, D8BV_MAX)
