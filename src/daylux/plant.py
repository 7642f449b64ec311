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
import csv
import io
import math

from .rng import SplitMix64
from .signals import D8BV_MAX, check_d8bv, check_type, round_half_away

DEFAULT_LUT_E_MAX = 180
DEFAULT_LUT_SHAPE = 1.3
DEFAULT_LUT_KNOTS = 32

FAST_BASE = 40
FAST_AMPLITUDE = 60
FAST_STEP_PROB = 0.05
FAST_MAX_JUMP = 50

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
    the endpoint value.  Equality, hash and repr see only the knots.
    """

    def __init__(self, knots: tuple[tuple[int, int], ...]) -> None:
        if len(knots) < 2:
            raise ValueError(f"a LUT needs at least 2 knots, got {len(knots)}")
        for u, e in knots:
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

    def __eq__(self, other):
        return self.knots == other.knots if type(other) is ProcessLut else NotImplemented

    def __hash__(self) -> int:
        return hash(self.knots)

    def __repr__(self) -> str:
        return f"ProcessLut(knots={self.knots!r})"


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
    e_max: int = DEFAULT_LUT_E_MAX,
    gamma_shape: float = DEFAULT_LUT_SHAPE,
    knot_count: int = DEFAULT_LUT_KNOTS,
) -> ProcessLut:
    """Power-law stand-in table: e(u) = round(e_max * (u/255)**gamma_shape).

    Knots sit on an even u grid covering [0, 255], so e(0)=0 and e(255)=e_max.
    e_max must leave headroom above the usual 100 setpoint.
    """
    if not 120 <= check_type(e_max, "e_max", "int") <= 255:
        raise ValueError(f"e_max must be in [120, 255], got {e_max}")
    if not (math.isfinite(check_type(gamma_shape, "shape", "float")) and gamma_shape > 0):
        raise ValueError(f"shape must be finite and > 0, got {gamma_shape}")
    # Over 256 knots cannot be strictly increasing on the 8-bit u grid.
    if not 8 <= check_type(knot_count, "knots", "int") <= D8BV_MAX + 1:
        raise ValueError(f"knots must be in [8, 256], got {knot_count}")
    knots = []
    for i in range(knot_count):
        u = round_half_away(i * D8BV_MAX / (knot_count - 1))
        e = round_half_away(e_max * (u / D8BV_MAX) ** gamma_shape)
        knots.append((u, e))
    return ProcessLut(tuple(knots))


class DaylightTrajectory:
    """Per-step daylight illuminance."""

    def __init__(self, samples: tuple[int, ...]) -> None:
        for k, s in enumerate(samples):
            try:
                check_d8bv(s, "daylight sample")
            except ValueError as exc:
                # the step goes into the name only on failure: formatting it
                # for every sample cost milliseconds on long trajectories
                msg = str(exc).replace("daylight sample", f"daylight sample at k={k}", 1)
                raise ValueError(msg) from None
        self.samples = samples


def gen_daylight(kind: str, length: int, seed: int = 0, **params) -> DaylightTrajectory:
    """Build a daylight trajectory of `length` samples.

    Kinds and their parameters:
      constant: level
      step:     level0, level1, k_switch
      ramp:     level0, level1
      fast:     base, amplitude, step_prob, max_jump  (seeded)
    """
    if check_type(length, "trajectory length", "int") < 1:
        raise ValueError(f"trajectory length must be >= 1, got {length}")
    if kind not in DAYLIGHT_PARAMS:
        raise ValueError(f"unknown daylight kind {kind!r} (expected constant, step, ramp or fast)")
    extras = sorted(set(params) - DAYLIGHT_PARAMS[kind].keys())
    if extras:
        raise ValueError(f"unexpected parameter(s) for daylight kind {kind!r}: {', '.join(extras)}")
    if kind == "constant":
        level = check_d8bv(params.get("level", 30), "level")
        return DaylightTrajectory((level,) * length)
    if kind == "fast":
        return _gen_fast_changes(length, seed, **params)
    c0 = check_d8bv(params.get("level0", 0), "level0")
    c1 = check_d8bv(params.get("level1", 100), "level1")
    if kind == "step":
        k_switch = check_type(params.get("k_switch", length // 2), "k_switch", "int")
        if k_switch < 0:
            raise ValueError(f"k_switch must be >= 0, got {k_switch}")
        samples = tuple(c0 if k < k_switch else c1 for k in range(length))
        return DaylightTrajectory(samples)
    if length == 1:
        return DaylightTrajectory((c0,))
    samples = tuple(
        round_half_away(c0 + (c1 - c0) * k / (length - 1)) for k in range(length)
    )
    return DaylightTrajectory(samples)


def _gen_fast_changes(
    length: int,
    seed: int,
    base: int = FAST_BASE,
    amplitude: int = FAST_AMPLITUDE,
    step_prob: float = FAST_STEP_PROB,
    max_jump: int = FAST_MAX_JUMP,
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
    rng = SplitMix64(seed)
    slope_span = amplitude * step_prob / 6.0
    slope = rng.uniform(-slope_span, slope_span)
    level = float(base)
    samples = [base]
    for _ in range(1, length):
        if rng.random() < step_prob:
            level += rng.uniform(-max_jump, max_jump)
            slope = rng.uniform(-slope_span, slope_span)
        else:
            level += slope
        if level < lo:
            level = float(lo)
        elif level > hi:
            level = float(hi)
        samples.append(round_half_away(level))
    return DaylightTrajectory(tuple(samples))


def load_lut_csv(path) -> ProcessLut:
    """Read a `u,e` table; validation failures name the 1-based line."""
    rows = _read_csv_rows(path, header=("u", "e"))
    knots = []
    prev_u = prev_e = -1
    for lineno, cells in rows:
        u = _int_cell(path, lineno, cells, 0, "u")
        e = _int_cell(path, lineno, cells, 1, "e")
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
        return ProcessLut(tuple(knots))
    except ValueError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


def save_lut_csv(lut: ProcessLut, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("u,e\n")
        for u, e in lut.knots:
            fh.write(f"{u},{e}\n")


def load_daylight_csv(path) -> DaylightTrajectory:
    """Read a `k,e` trajectory; k must run 0,1,2,... without gaps."""
    rows = _read_csv_rows(path, header=("k", "e"))
    samples = []
    expect_k = 0
    for lineno, cells in rows:
        k = _int_cell(path, lineno, cells, 0, "k")
        e = _int_cell(path, lineno, cells, 1, "e")
        if k != expect_k:
            raise TableFormatError(
                f"{path}: k must be consecutive from 0, expected {expect_k} at line {lineno}"
            )
        if not 0 <= e <= D8BV_MAX:
            raise TableFormatError(f"{path}: e out of [0, 255] at line {lineno}")
        samples.append(e)
        expect_k += 1
    return DaylightTrajectory(tuple(samples))


def save_daylight_csv(traj: DaylightTrajectory, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,e\n")
        for k, e in enumerate(traj.samples):
            fh.write(f"{k},{e}\n")


def read_text(path, error: type[ValueError]) -> str:
    """The whole file decoded as UTF-8; a bad byte raises `error` naming its line."""
    with open(path, "rb") as fh:
        # Excel's "CSV UTF-8" starts with a byte-order mark.  Cutting it from
        # the bytes, not in the decoder, keeps a decode error's offset an index
        # into data.
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as the parsers do: \r and \r\n end a line too.
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        line = before.count("\n") + 1
        raise error(f"{path}: invalid UTF-8 byte 0x{data[exc.start]:02x} at line {line}") from None


def _read_csv_rows(path, header: tuple[str, ...]):
    """Return (lineno, cells) for data rows; enforce the exact header."""
    out = []
    reader = csv.reader(io.StringIO(read_text(path, TableFormatError), newline=""))
    header_seen = False
    try:
        for cells in reader:
            lineno = reader.line_num  # physical, also after a multi-line quoted field
            if not cells or (cells[0].lstrip().startswith("#")):
                continue
            cells = [c.strip() for c in cells]
            if not header_seen:
                if tuple(c.lower() for c in cells) != header:
                    raise TableFormatError(
                        f"{path}: expected header {','.join(header)!r} at line {lineno}"
                    )
                header_seen = True
                continue
            out.append((lineno, cells))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise TableFormatError(f"{path}: {exc} at line {reader.line_num}") from None
    if not header_seen:
        raise TableFormatError(f"{path}: empty file, expected header {','.join(header)!r}")
    return out


def _int_cell(path, lineno: int, cells: list[str], idx: int, name: str) -> int:
    if len(cells) <= idx:
        raise TableFormatError(f"{path}: missing column {name!r} at line {lineno}")
    try:
        return int(cells[idx])
    except ValueError:
        raise TableFormatError(
            f"{path}: column {name!r} must be an integer at line {lineno}, got {cells[idx]!r}"
        ) from None

