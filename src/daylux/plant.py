"""Look-up-table plant, daylight disturbance trajectories, and their CSV I/O.

The lamps-plus-ballast chain is modelled as a static monotone table mapping
the 8-bit command U to electric illuminance; the room adds daylight on top
and the sensor saturates at 255.  A table of measured points (taken with the
lamps as the only light source) is exactly this object, which is why the
plant is a table and not a differential equation.

Daylight is an arbitrary per-step sequence.  Generators cover the cases the
simulator needs out of the box: constant, a single step, a linear ramp, and
a seeded "fast changes" walk (piecewise ramps with occasional jumps).  Any
other profile can be supplied as a CSV file.
"""

from __future__ import annotations

import codecs
import functools
import math
from collections import deque
from itertools import repeat

from .rng import SplitMix64
from .signals import D8BV_MAX, check_d8bv, check_type, round_half_away

# The parameters of each generated daylight kind and their types.  The
# constant, step and ramp specs give their values by position, in this order.
DAYLIGHT_PARAMS = {
    "constant": {"level": "int"},
    "step": {"level0": "int", "level1": "int", "k_switch": "int"},
    "ramp": {"level0": "int", "level1": "int"},
    "fast": {"base": "int", "amplitude": "int", "step_prob": "float", "max_jump": "int"},
}


class TableFormatError(ValueError):
    """A CSV file failed validation; the message names the offending line."""


class ProcessLut:
    """Monotone command-to-illuminance table; not to be changed once built.

    `table` holds the answer for each of the 256 commands, computed once from
    the knots.  Between knots it interpolates linearly, in exact integers,
    and rounds half away from zero; outside the knot range it extends with
    the endpoint value.
    """

    def __init__(self, knots: tuple[tuple[int, int], ...]) -> None:
        knots = tuple(map(tuple, knots))  # the caller's lists may change later
        if len(knots) < 2:
            raise ValueError(f"a LUT needs at least 2 knots, got {len(knots)}")
        # check_d8bv only words a failure: a run's count of its calls must not
        # depend on whether its table came from synth_default_lut's cache.
        for u, e in knots:
            if not (type(u) is type(e) is int and 0 <= u <= D8BV_MAX and 0 <= e <= D8BV_MAX):
                check_d8bv(u, "LUT knot u")
                check_d8bv(e, "LUT knot e")
        table = [knots[0][1]] * knots[0][0]
        for (u0, e0), (u1, e1) in zip(knots, knots[1:]):
            if u1 <= u0:
                raise ValueError(f"LUT knot u values must be strictly increasing (u={u1})")
            if e1 < e0:
                raise ValueError(f"LUT knot e values must be non-decreasing (e={e1} after {e0})")
            # e0 + k*(e1-e0)/du rounded half up, which is half away from zero as e >= 0
            du = u1 - u0
            de2, du2 = 2 * (e1 - e0), 2 * du
            table += [e0 + (k * de2 + du) // du2 for k in range(du)]
        table += [knots[-1][1]] * (D8BV_MAX + 1 - knots[-1][0])
        self.knots = knots
        self.table = tuple(table)


def lut_eval(lut: ProcessLut, u: int) -> int:
    """Electric illuminance for command u (piecewise-linear, rounded)."""
    return lut.table[check_d8bv(u, "u")]


def lut_inverse(lut: ProcessLut, e_target: int) -> int:
    """Brute-force inverse: the smallest u whose output is nearest e_target.

    Deliberately exhaustive over all 256 commands; this is the oracle other
    components (and the `lut inspect` command) are judged against.
    """
    check_d8bv(e_target, "e_target")
    errors = [abs(e - e_target) for e in lut.table]
    return errors.index(min(errors))


def synth_default_lut(
    e_max: int = 180, gamma_shape: float = 1.3, knot_count: int = 32
) -> ProcessLut:
    """Power-law stand-in table: e(u) = round(e_max * (u/255)**gamma_shape).

    Knots sit on an even u grid covering [0, 255], so e(0)=0 and e(255)=e_max.
    e_max must leave headroom above the usual 100 setpoint.  Each argument set
    is built once per process: the same arguments return the same table
    object, shared by every caller, which must not change it.
    """
    if not 120 <= check_type(e_max, "e_max", "int") <= 255:
        raise ValueError(f"e_max must be in [120, 255], got {e_max}")
    if not (math.isfinite(check_type(gamma_shape, "shape", "float")) and gamma_shape > 0):
        raise ValueError(f"shape must be finite and > 0, got {gamma_shape}")
    # Over 256 knots cannot be strictly increasing on the 8-bit u grid.
    if not 8 <= check_type(knot_count, "knots", "int") <= D8BV_MAX + 1:
        raise ValueError(f"knots must be in [8, 256], got {knot_count}")
    return _synth_lut(e_max, gamma_shape, knot_count)


# Called with checked values only, so a bad argument gets its own message, not
# an unhashable-key error.  An int shape and its float share a table, as ** would.
@functools.lru_cache(maxsize=16)
def _synth_lut(e_max: int, gamma_shape: float, knot_count: int) -> ProcessLut:
    knots = []
    for i in range(knot_count):
        u = round_half_away(i * D8BV_MAX / (knot_count - 1))
        e = round_half_away(e_max * (u / D8BV_MAX) ** gamma_shape)
        knots.append((u, e))
    return ProcessLut(knots)


class DaylightTrajectory:
    """Per-step daylight illuminance."""

    def __init__(self, samples: tuple[int, ...]) -> None:
        samples = tuple(samples)  # the caller's list may change later; a tuple is not copied
        try:  # one check_d8bv call per sample, driven from C
            deque(map(check_d8bv, samples, repeat("daylight sample")), maxlen=0)
            self.samples = samples
            return
        except ValueError:
            pass
        # Only a failure names the step (formatting it for every sample cost
        # milliseconds), and outside the handler, so no context chains.
        for k, s in enumerate(samples):
            check_d8bv(s, f"daylight sample at k={k}")


def gen_daylight(kind: str, length: int, seed: int, **params) -> DaylightTrajectory:
    """Build a daylight trajectory of `length` samples.

    Kinds and their parameters:
      constant: level
      step:     level0, level1, k_switch
      ramp:     level0, level1
      fast:     base, amplitude, step_prob, max_jump  (seeded)

    constant, step and ramp need every parameter; fast has a default for each.
    """
    if check_type(length, "trajectory length", "int") < 1:
        raise ValueError(f"trajectory length must be >= 1, got {length}")
    if check_type(kind, "kind", "str") not in DAYLIGHT_PARAMS:
        raise ValueError(f"unknown daylight kind {kind!r} (expected {', '.join(DAYLIGHT_PARAMS)})")
    extras = sorted(set(params) - DAYLIGHT_PARAMS[kind].keys())
    if extras:
        raise ValueError(f"unexpected parameter(s) for daylight kind {kind!r}: {', '.join(extras)}")
    if kind == "fast":
        return _gen_fast_changes(length, seed, **params)
    missing = [name for name in DAYLIGHT_PARAMS[kind] if name not in params]
    if missing:
        raise ValueError(f"missing parameter(s) for daylight kind {kind!r}: {', '.join(missing)}")
    if kind == "constant":
        level = check_d8bv(params["level"], "level")
        return DaylightTrajectory((level,) * length)
    c0 = check_d8bv(params["level0"], "level0")
    c1 = check_d8bv(params["level1"], "level1")
    if kind == "step":
        k_switch = check_type(params["k_switch"], "k_switch", "int")
        if k_switch < 0:
            raise ValueError(f"k_switch must be >= 0, got {k_switch}")
        samples = tuple(c0 if k < k_switch else c1 for k in range(length))
        return DaylightTrajectory(samples)
    span = max(length - 1, 1)  # one sample is c0
    samples = tuple(round_half_away(c0 + (c1 - c0) * k / span) for k in range(length))
    return DaylightTrajectory(samples)


def _gen_fast_changes(
    length: int,
    seed: int,
    base: int = 40,
    amplitude: int = 60,
    step_prob: float = 0.05,
    max_jump: int = 50,
) -> DaylightTrajectory:
    """Seeded walk of piecewise ramps with occasional jumps.

    sample[0] = base.  Each later step draws r in [0,1): with r < step_prob
    the level jumps by uniform(-max_jump, +max_jump) and a fresh drift slope
    is drawn from uniform(-s, +s) with s = amplitude*step_prob/6 (0.5 per
    step at the defaults); otherwise the level advances by the current
    slope.  Levels are confined to [max(0, base-amplitude),
    min(255, base+amplitude)].  Draw budget: one u64 on drift steps, three
    on jump steps, plus one for the initial slope.
    """
    base = check_d8bv(base, "base")
    for name, value in (("amplitude", amplitude), ("max_jump", max_jump)):
        if check_d8bv(value, name) < 1:
            raise ValueError(f"{name} must be in [1, 255], got {value}")
    if not 0.0 <= check_type(step_prob, "step_prob", "float") <= 1.0:
        raise ValueError(f"step_prob must be in [0, 1], got {step_prob}")
    lo = max(0, base - amplitude)
    hi = min(D8BV_MAX, base + amplitude)
    draw = SplitMix64(seed).randoms().__next__  # random(); uniform(a, b) is a + (b - a) * draw()
    slope_span = amplitude * step_prob / 6.0
    slope = -slope_span + 2 * slope_span * draw()
    level = float(base)
    samples = [base]
    append = samples.append
    for _ in range(1, length):
        if draw() < step_prob:
            level += -max_jump + 2 * max_jump * draw()
            slope = -slope_span + 2 * slope_span * draw()
        else:
            level += slope
        if level < lo:
            level = float(lo)
        elif level > hi:
            level = float(hi)
        append(math.floor(level + 0.5))  # round_half_away, as level >= lo >= 0
    return DaylightTrajectory(samples)


def load_lut_csv(path) -> ProcessLut:
    """Read a `u,e` table; validation failures name the 1-based line."""
    knots = []
    prev_u = prev_e = -1
    for lineno, u, e in _read_int_rows(path, ("u", "e")):
        if not 0 <= u <= D8BV_MAX:
            raise TableFormatError(f"{path}: u out of [0, 255] at line {lineno}")
        if not 0 <= e <= D8BV_MAX:
            raise TableFormatError(f"{path}: e out of [0, 255] at line {lineno}")
        if u <= prev_u:
            raise TableFormatError(f"{path}: non-increasing u at line {lineno}")
        if e < prev_e:
            raise TableFormatError(f"{path}: decreasing e ({e} after {prev_e}) at line {lineno}")
        prev_u, prev_e = u, e
        knots.append((u, e))
    try:
        return ProcessLut(knots)
    except ValueError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


def save_lut_csv(lut: ProcessLut, path) -> None:
    _write_int_rows(path, ("u", "e"), lut.knots)


def load_daylight_csv(path) -> DaylightTrajectory:
    """Read a `k,e` trajectory; k must run 0,1,2,... without gaps."""
    samples = []
    for lineno, k, e in _read_int_rows(path, ("k", "e")):
        if k != len(samples):
            raise TableFormatError(
                f"{path}: k must be consecutive from 0, expected {len(samples)} at line {lineno}"
            )
        samples.append(e)
    try:  # k counts from 0, so the trajectory's message names the row by its k
        return DaylightTrajectory(samples)
    except ValueError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


def save_daylight_csv(traj: DaylightTrajectory, path) -> None:
    _write_int_rows(path, ("k", "e"), enumerate(traj.samples))


def read_lines(path, error: type[ValueError]):
    """Yield (line number, stripped text) for each line that is not blank or a `#` comment.

    Every input file reads through here.  A newline, a carriage return and
    the pair of them each end a line.  The file must be UTF-8: a bad byte
    raises `error` naming its line.
    """
    with open(path, "rb") as fh:
        # Excel's "CSV UTF-8" starts with a byte-order mark.  Cutting it from
        # the bytes, not in the decoder, keeps a decode error's offset an index
        # into data.
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), exc.start  # the text before it
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if bad is not None:
        raise error(f"{path}: invalid UTF-8 byte 0x{data[bad]:02x} at line {len(lines)}")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_int_rows(path, header: tuple[str, str]):
    """Yield (line number, a, b) for the rows of a two-column integer table.

    The first line read must be `header`; every later one is two bare
    integer cells.
    """
    lines = read_lines(path, TableFormatError)
    for lineno, line in lines:
        if tuple(c.strip().lower() for c in line.split(",")) != header:
            raise TableFormatError(f"{path}: expected header {','.join(header)!r} at line {lineno}")
        break
    else:
        raise TableFormatError(f"{path}: empty file, expected header {','.join(header)!r}")
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != 2:
            raise TableFormatError(f"{path}: expected 2 cells at line {lineno}")
        values = []
        for name, cell in zip(header, cells):
            try:
                values.append(int(cell))
            except ValueError:  # also a cell past int()'s digit limit
                raise TableFormatError(
                    f"{path}: column {name!r} must be an integer, "
                    f"got {cell.strip()[:32]!r} at line {lineno}"
                ) from None
        yield lineno, *values


def _write_int_rows(path, header: tuple[str, str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a, b in rows:
            fh.write(f"{a},{b}\n")
