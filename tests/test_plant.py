"""Tests for the LUT plant, daylight generators, and their CSV formats."""

import codecs
import hashlib
import math
import re
from fractions import Fraction

import pytest

from daylux import plant
from daylux.config import ConfigError, SimConfig, load_config_file
from daylux.loop import run_simulation
from daylux.plant import (
    DaylightTrajectory,
    ProcessLut,
    TableFormatError,
    gen_daylight,
    load_daylight_csv,
    load_lut_csv,
    lut_eval,
    lut_inverse,
    save_daylight_csv,
    save_lut_csv,
    synth_default_lut,
)
from daylux.rng import SplitMix64
from daylux.signals import check_d8bv, round_half_away


def test_default_lut_shape():
    lut = synth_default_lut()
    assert len(lut.knots) == 32
    assert lut.knots[0] == (0, 0)
    assert lut.knots[-1] == (255, 180)
    es = [e for _, e in lut.knots]
    assert all(a <= b for a, b in zip(es, es[1:]))


def test_default_lut_frozen_points():
    lut = synth_default_lut()
    assert lut_eval(lut, 162) == 100
    assert lut_inverse(lut, 40) == 80
    assert lut_inverse(lut, 80) == 136
    assert lut_inverse(lut, 100) == 162
    assert lut_inverse(lut, 140) == 210


def test_lut_eval_interpolates_and_rounds():
    lut = ProcessLut(((0, 0), (10, 20)))
    assert lut_eval(lut, 5) == 10
    lut = ProcessLut(((0, 0), (3, 1)))
    assert lut_eval(lut, 1) == 0  # 0.333 rounds down
    assert lut_eval(lut, 2) == 1  # 0.667 rounds up


def test_lut_eval_constant_extension():
    lut = ProcessLut(((10, 50), (20, 60)))
    assert lut_eval(lut, 0) == 50
    assert lut_eval(lut, 10) == 50
    assert lut_eval(lut, 20) == 60
    assert lut_eval(lut, 255) == 60


def test_lut_eval_monotone_everywhere():
    lut = synth_default_lut()
    values = [lut_eval(lut, u) for u in range(256)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_lut_inverse_ties_pick_smallest_u():
    flat = ProcessLut(((0, 100), (255, 100)))
    assert lut_inverse(flat, 100) == 0
    assert lut_inverse(flat, 0) == 0


def test_lut_inverse_round_trip_property():
    lut = synth_default_lut()
    for e in range(0, 181, 5):
        u = lut_inverse(lut, e)
        assert abs(lut_eval(lut, u) - e) <= 1  # rounding grid only


def test_process_lut_validation():
    with pytest.raises(ValueError):
        ProcessLut(((0, 0),))
    with pytest.raises(ValueError):
        ProcessLut(((5, 0), (5, 10)))  # u not strictly increasing
    with pytest.raises(ValueError):
        ProcessLut(((0, 10), (10, 5)))  # e decreasing
    for knots, message in [
        (((0, 0), (300, 10)), "LUT knot u must be in [0, 255], got 300"),
        (((0, -1), (255, 255)), "LUT knot e must be in [0, 255], got -1"),
        (((0, 0), (255, True)), "LUT knot e must be an int, got bool"),
        (((0.0, 0), (255, 255)), "LUT knot u must be an int, got float"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProcessLut(knots)


def test_synth_lut_validation():
    with pytest.raises(ValueError):
        synth_default_lut(e_max=100)
    with pytest.raises(ValueError):
        synth_default_lut(gamma_shape=0.0)
    for shape in (math.nan, math.inf):  # inf would zero every knot below u=255
        with pytest.raises(ValueError, match=f"^shape must be finite and > 0, got {shape}$"):
            synth_default_lut(gamma_shape=shape)
    # 257 knots would fail ProcessLut's increasing-u check too; the bound names itself
    for count in (4, 7, 257):
        with pytest.raises(ValueError, match=rf"^knots must be in \[8, 256\], got {count}$"):
            synth_default_lut(knot_count=count)
    assert len(synth_default_lut(knot_count=8).knots) == 8
    assert synth_default_lut(e_max=255).knots[-1] == (255, 255)
    with pytest.raises(ValueError, match=r"^e_max must be in \[120, 255\], got 256$"):
        synth_default_lut(e_max=256)  # not ProcessLut's message for a knot past 255
    assert [u for u, _ in synth_default_lut(knot_count=256).knots] == list(range(256))
    with pytest.raises(ValueError, match=r"knots must be in \[8, 256\], got 10000000000"):
        synth_default_lut(knot_count=10**10)  # rejected before any knot is built


@pytest.mark.parametrize("kwargs, message", [
    ({"e_max": 150.7}, "e_max must be an int, got float"),  # not truncated to 150
    ({"e_max": 150.0}, "e_max must be an int, got float"),
    ({"e_max": True}, "e_max must be an int, got bool"),
    ({"knot_count": 8.5}, "knots must be an int, got float"),
    ({"knot_count": 16.0}, "knots must be an int, got float"),
    ({"knot_count": True}, "knots must be an int, got bool"),
    ({"gamma_shape": True}, "shape must be a float, got bool"),
    ({"gamma_shape": "1.3"}, "shape must be a float, got str"),
])
def test_synth_lut_takes_ints_where_ints_belong(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        synth_default_lut(**kwargs)


def test_synth_lut_takes_an_int_shape_as_a_float():
    assert synth_default_lut(gamma_shape=2).knots == synth_default_lut(gamma_shape=2.0).knots


def test_synth_lut_builds_each_argument_set_once():
    lut = synth_default_lut()
    assert synth_default_lut(180, 1.3, 32) is lut
    assert synth_default_lut(e_max=181) is not lut
    assert synth_default_lut(e_max=181) is synth_default_lut(e_max=181)
    knots, table = lut.knots, lut.table
    records, _ = run_simulation(SimConfig(steps=300))  # the run uses this very table
    assert len(records) == 300
    assert synth_default_lut() is lut and lut.knots == knots and lut.table == table
    # a bad argument raises its own message, not an unhashable-key error, also once cached
    for kwargs, message in [
        ({"e_max": [180]}, "e_max must be an int, got list"),
        ({"e_max": True}, "e_max must be an int, got bool"),
        ({"e_max": 150.7}, "e_max must be an int, got float"),
        ({"gamma_shape": math.nan}, "shape must be finite and > 0, got nan"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synth_default_lut(**kwargs)
        assert synth_default_lut() is lut


def test_a_valid_table_costs_no_check_d8bv_call_cached_or_not(monkeypatch):
    # so a traced run counts the same check_d8bv calls whether its table was cached
    calls = []
    monkeypatch.setattr(plant, "check_d8bv", lambda *a: calls.append(a) or check_d8bv(*a))
    plant._synth_lut.cache_clear()
    for _ in range(2):
        synth_default_lut(e_max=200, knot_count=64)
    ProcessLut(((0, 0), (255, 255)))
    assert calls == []


def test_gen_constant():
    traj = gen_daylight("constant", 4, seed=0, level=30)
    assert traj.samples == (30, 30, 30, 30)


def test_gen_step():
    traj = gen_daylight("step", 4, seed=0, level0=0, level1=100, k_switch=2)
    assert traj.samples == (0, 0, 100, 100)
    traj = gen_daylight("step", 3, seed=0, level0=0, level1=100, k_switch=0)
    assert traj.samples == (100, 100, 100)


def test_gen_ramp():
    traj = gen_daylight("ramp", 5, seed=0, level0=0, level1=100)
    assert traj.samples == (0, 25, 50, 75, 100)
    assert gen_daylight("ramp", 2, seed=0, level0=0, level1=100).samples == (0, 100)
    assert gen_daylight("ramp", 1, seed=0, level0=7, level1=200).samples == (7,)


def test_gen_fast_frozen_prefix():
    traj = gen_daylight("fast", 12, seed=2)
    assert traj.samples == (40, 40, 40, 40, 40, 40, 41, 41, 41, 41, 41, 41)


def test_gen_fast_deterministic_and_seed_sensitive():
    a = gen_daylight("fast", 500, seed=9)
    b = gen_daylight("fast", 500, seed=9)
    c = gen_daylight("fast", 500, seed=10)
    assert a.samples == b.samples
    assert a.samples != c.samples


def test_gen_fast_stays_in_amplitude_window():
    traj = gen_daylight("fast", 5000, seed=1, base=40, amplitude=60)
    lo, hi = max(0, 40 - 60), min(255, 40 + 60)
    assert all(lo <= s <= hi for s in traj.samples)
    assert traj.samples[0] == 40


def test_gen_fast_actually_jumps():
    traj = gen_daylight("fast", 2000, seed=3)
    diffs = [abs(b - a) for a, b in zip(traj.samples, traj.samples[1:])]
    assert max(diffs) > 5  # at 5% jump probability, 2000 steps must jump


def reference_fast_walk(length, seed, base, amplitude, step_prob, max_jump):
    """gen_daylight("fast")'s walk with one scalar SplitMix64 call per draw.

    The specification the block-drawn walk must meet sample for sample; the
    parameters are taken as already checked.
    """
    lo = max(0, base - amplitude)
    hi = min(255, base + amplitude)
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
    return tuple(samples)


def fast_walk_cases():
    """(length, seed, base, amplitude, step_prob, max_jump) rows: edges, then fuzzed."""
    # A walk draws once per drift step and three times per jump step, so with
    # step_prob 0 a length of 256 ends a 256-draw block exactly and 257 starts
    # the next; step_prob 1 crosses a block boundary mid-jump.
    cases = [(1, 2, 40, 60, 0.05, 50), (2, 2, 40, 60, 0.05, 50)]
    for length in (255, 256, 257, 511, 512, 513):
        for step_prob in (0, 0.0, 1, 1.0, 0.05):
            cases.append((length, 2**64 - 1, 40, 60, step_prob, 50))
        cases += [(length, 0, 0, 1, 0.3, 1), (length, 7, 255, 255, 0.5, 255)]
    pick = SplitMix64(0x5EED)
    for _ in range(60):
        seed = (0, 2**64 - 1, pick.next_u64())[pick.next_u64() % 3]
        step_prob = (0, 1, 0.0, 1.0, pick.random(), pick.random() * 0.1)[pick.next_u64() % 6]
        length = (1 + pick.next_u64() % 3000, 255 + pick.next_u64() % 3, 511 + pick.next_u64() % 3)
        cases.append((
            length[pick.next_u64() % 3],
            seed,
            pick.next_u64() % 256,
            1 + pick.next_u64() % 255,
            step_prob,
            1 + pick.next_u64() % 255,
        ))
    return cases


@pytest.mark.parametrize("case", fast_walk_cases())
def test_gen_fast_equals_the_scalar_reference_walk(case):
    length, seed, *values = case
    params = dict(zip(("base", "amplitude", "step_prob", "max_jump"), values))
    traj = gen_daylight("fast", length, seed=seed, **params)
    assert traj.samples == reference_fast_walk(length, seed, **params)


# SHA-256 of the samples, as bytes, of two 20000-step fast walks: the loop's
# trajectory digests read only the first 2000 steps of a walk.
LONG_WALK_DIGESTS = [
    pytest.param(
        2, {}, "ce1b4becac98538da6c3dfda16132a807ee337176a91efa9d387f9308495aa92", id="default"
    ),
    pytest.param(
        5,
        {"base": 90, "amplitude": 80},
        "b918d80b225ae5d139b80973235ed7060b28589ce1369e9a62ef1698bab8bf92",
        id="base90_amplitude80",
    ),
]


@pytest.mark.parametrize("seed,params,digest", LONG_WALK_DIGESTS)
def test_long_fast_walk_digest_is_frozen(seed, params, digest):
    samples = gen_daylight("fast", 20000, seed=seed, **params).samples
    assert hashlib.sha256(bytes(samples)).hexdigest() == digest


def test_gen_daylight_validation():
    with pytest.raises(ValueError):
        gen_daylight("constant", 0, seed=0, level=30)
    with pytest.raises(ValueError):
        gen_daylight("sinus", 10, seed=0)
    with pytest.raises(ValueError) as err:
        gen_daylight("csv", 10, seed=0)  # only load_daylight_csv builds csv daylight
    assert "'csv'" in str(err.value)
    assert "csv" not in str(err.value).split("expected", 1)[1]
    with pytest.raises(ValueError):
        gen_daylight("constant", 10, seed=0, level=300)
    with pytest.raises(ValueError):
        gen_daylight("constant", 10, seed=0, level=30, extra=1)
    with pytest.raises(ValueError):
        gen_daylight("fast", 10, seed=0, step_prob=1.5)
    with pytest.raises(ValueError):
        gen_daylight("fast", 10, seed=0, amplitude=0)
    with pytest.raises(ValueError, match=r"^k_switch must be >= 0, got -1$"):
        gen_daylight("step", 10, seed=0, level0=0, level1=100, k_switch=-1)
    # constant, step and ramp have no default values: a missing one is named
    with pytest.raises(ValueError, match=r"^missing parameter\(s\) .* 'step': k_switch$"):
        gen_daylight("step", 10, seed=0, level0=0, level1=100)
    with pytest.raises(ValueError, match=r"^unexpected parameter\(s\) .* 'fast': foo$"):
        gen_daylight("fast", 10, seed=0, foo=1)  # a ValueError naming it, not a TypeError
    valid = {"constant": {"level": 30}, "step": {"level0": 0, "level1": 100, "k_switch": 1},
             "ramp": {"level0": 0, "level1": 100}, "fast": {}}
    for kind, key in (("constant", "level"), ("step", "level0"), ("step", "k_switch"),
                      ("ramp", "level1"), ("fast", "base"), ("fast", "amplitude"),
                      ("fast", "max_jump")):
        with pytest.raises(ValueError, match=rf"^{key} must be an int, got float$"):
            gen_daylight(kind, 3, seed=0, **{**valid[kind], key: 30.9})  # not truncated to 30
    for key in ("base", "amplitude", "max_jump", "level"):
        kind = "constant" if key == "level" else "fast"
        with pytest.raises(ValueError, match=rf"^{key} must be an int, got bool$"):
            gen_daylight(kind, 3, seed=0, **{key: True})
    for value, name in ((True, "bool"), ("0.5", "str")):
        with pytest.raises(ValueError, match=rf"^step_prob must be a float, got {name}$"):
            gen_daylight("fast", 5, seed=0, step_prob=value)
    # not a 1-sample trajectory (bool) or a raw TypeError (float)
    for kind, length in (("constant", True), ("ramp", True), ("constant", 2.0), ("fast", 3.0)):
        name = type(length).__name__
        with pytest.raises(ValueError, match=f"^trajectory length must be an int, got {name}$"):
            gen_daylight(kind, length, seed=0)
    one = gen_daylight("fast", 50, seed=0, step_prob=1).samples
    assert one == gen_daylight("fast", 50, seed=0, step_prob=1.0).samples


@pytest.mark.parametrize("kind, name", [(["fast"], "list"), (None, "NoneType"), (1, "int")])
def test_gen_daylight_rejects_a_kind_that_is_not_a_str(kind, name):
    # an unhashable kind would otherwise end in a raw TypeError from the lookup
    with pytest.raises(ValueError, match=rf"^kind must be a str, got {name}$"):
        gen_daylight(kind, 5, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 2, 1.5, True])
def test_gen_daylight_rejects_a_seed_outside_64_bits_or_not_an_int(seed):
    # -1 would walk like 2**64 - 1, and 2**64 + 2 like 2
    with pytest.raises(ValueError, match=rf"^seed must be an int in \[0, {2**64 - 1}\], got "):
        gen_daylight("fast", 50, seed=seed)


def test_daylight_trajectory_validates_samples():
    with pytest.raises(ValueError, match=r"^daylight sample at k=1 must be in \[0, 255\], got 500$"):
        DaylightTrajectory((0, 500))
    with pytest.raises(ValueError, match=r"^daylight sample at k=2 must be an int, got float$"):
        DaylightTrajectory((0, 1, 2.0, 300))
    with pytest.raises(ValueError, match=r"^daylight sample at k=0 must be an int, got bool$"):
        DaylightTrajectory((True, 1, 2))
    with pytest.raises(ValueError, match=r"^daylight sample at k=3 must be in \[0, 255\], got -1$"):
        DaylightTrajectory((0, 1, 2, -1))
    assert DaylightTrajectory(()).samples == ()


def test_lut_csv_round_trip(tmp_path):
    lut = synth_default_lut()
    path = tmp_path / "lut.csv"
    save_lut_csv(lut, path)
    assert path.read_text().startswith("u,e\n0,0\n")
    assert load_lut_csv(path).knots == lut.knots


def test_lut_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,e\n5,10\n3,20\n")
    with pytest.raises(TableFormatError) as err:
        load_lut_csv(path)
    assert "line 3" in str(err.value) and "bad.csv" in str(err.value)

    path.write_text("u,e\n0,0\n100,90\n200,80\n255,180\n")
    with pytest.raises(TableFormatError) as err:
        load_lut_csv(path)
    assert str(err.value) == f"{path}: decreasing e (80 after 90) at line 4"

    path.write_text("u,e\n0,0\n100,90\n100,95\n255,180\n")  # a repeated command
    with pytest.raises(TableFormatError) as err:
        load_lut_csv(path)
    assert str(err.value) == f"{path}: non-increasing u at line 4"

    path.write_text("u,volts\n0,0\n")
    with pytest.raises(TableFormatError) as err:
        load_lut_csv(path)
    assert "header" in str(err.value)

    path.write_text("u,e\n0,abc\n")
    with pytest.raises(TableFormatError) as err:
        load_lut_csv(path)
    assert "integer" in str(err.value)


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_lut_csv, "u,e\n0,0\n255,180,x\n"),
        (load_lut_csv, "u,e\n0,0\n255\n"),
        (load_lut_csv, "u,e\n0,0\n255,180,\n"),
        (load_daylight_csv, "k,e\n0,5\n1,6,99\n"),
        (load_daylight_csv, "k,e\n0,5\n1\n"),
    ],
    ids=["lut-3-cells", "lut-1-cell", "lut-trailing-comma", "daylight-3-cells", "daylight-1-cell"],
)
def test_csv_rows_need_exactly_the_header_cells(tmp_path, loader, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(TableFormatError) as err:
        loader(path)
    assert str(err.value) == f"{path}: expected 2 cells at line 3"


def test_lut_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "lut.csv"
    path.write_text("# measured 2026-08-01\nu,e\n\n0,0\n# mid\n255,180\n")
    assert load_lut_csv(path).knots == ((0, 0), (255, 180))


def test_daylight_csv_round_trip(tmp_path):
    traj = gen_daylight("fast", 50, seed=4)
    path = tmp_path / "day.csv"
    save_daylight_csv(traj, path)
    back = load_daylight_csv(path)
    assert back.samples == traj.samples


def test_daylight_csv_requires_consecutive_k(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text("k,e\n0,10\n2,20\n")
    with pytest.raises(TableFormatError) as err:
        load_daylight_csv(path)
    assert "expected 1 at line 3" in str(err.value)


def test_oversized_csv_field_is_a_table_format_error(tmp_path):
    # csv.reader refuses fields over csv.field_size_limit() (131072 chars)
    # with csv.Error, which is not a ValueError.
    big = "1" * 200_000
    for loader, header in ((load_daylight_csv, "k,e"), (load_lut_csv, "u,e")):
        p = tmp_path / f"{header[0]}.csv"
        p.write_text(f"{header}\n0,{big}\n")
        with pytest.raises(TableFormatError) as err:
            loader(p)
        assert str(err.value).startswith(f"{p}: ")
        assert str(err.value).endswith(" at line 2")


def test_csv_line_numbers_count_physical_lines(tmp_path):
    p = tmp_path / "day.csv"
    p.write_text("k,e\n\n0,30\n1,x\n")  # the skipped blank line 2 still counts
    with pytest.raises(TableFormatError) as err:
        load_daylight_csv(p)
    assert str(err.value) == f"{p}: column 'e' must be an integer, got 'x' at line 4"


# The one line rule holds for each file a user hands in: its reader, the
# lines of a good file and what the reader makes of them.
READERS = {
    "lut": (lambda p: load_lut_csv(p).knots, ["u,e", "0,0", "255,180"], ((0, 0), (255, 180))),
    "daylight": (lambda p: load_daylight_csv(p).samples, ["k,e", "0,30", "1,31"], (30, 31)),
    "config": (load_config_file, ["steps = 5", "warmup = 1"], {"steps": "5", "warmup": "1"}),
}


@pytest.mark.parametrize("name", list(READERS))
def test_whitespace_only_and_indented_comment_lines_are_skipped(tmp_path, name):
    reader, lines, expected = READERS[name]
    p = tmp_path / "input"
    p.write_text("\n".join([lines[0], " \t ", *lines[1:], "   # indented comment", ""]))
    assert reader(p) == expected


@pytest.mark.parametrize("name", list(READERS))
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_numbers_count_every_line_ending_alike(tmp_path, name, ending):
    reader, lines, _ = READERS[name]
    p = tmp_path / "input"
    # a blank line and a comment before the second good line, then a bad line 5
    p.write_bytes(ending.join([lines[0], "", "# note", lines[1], "x x", ""]).encode())
    with pytest.raises((TableFormatError, ConfigError), match=" at line 5"):
        reader(p)


@pytest.mark.parametrize("loader, text, message", [
    (load_lut_csv, 'u,e\n"0",0\n255,180\n', "column 'u' must be an integer, got '\"0\"' at line 2"),
    (load_daylight_csv, 'k,e\n0,"30"\n', "column 'e' must be an integer, got '\"30\"' at line 2"),
    (load_daylight_csv, 'k,e\n0,30\n1,"31\n"\n', "column 'e' must be an integer, got '\"31' at line 3"),
    (load_lut_csv, 'u,e\n0,0\n"9","x"\n', "column 'u' must be an integer, got '\"9\"' at line 3"),
], ids=["lut", "daylight", "daylight-spanning-lines", "lut-two-bad-cells"])
def test_a_quoted_cell_is_rejected_naming_column_and_line(tmp_path, loader, text, message):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(TableFormatError) as err:
        loader(p)
    assert str(err.value) == f"{p}: {message}"


def test_a_long_non_integer_cell_is_echoed_cut_to_32_characters(tmp_path):
    p = tmp_path / "day.csv"
    p.write_text("k,e\n0," + "x" * 200_000 + "\n")
    with pytest.raises(TableFormatError) as err:
        load_daylight_csv(p)
    assert str(err.value) == f"{p}: column 'e' must be an integer, got '{'x' * 32}' at line 2"


def test_non_utf8_csv_is_a_table_format_error(tmp_path):
    for loader, header in ((load_daylight_csv, "k,e"), (load_lut_csv, "u,e")):
        for bom in (b"", codecs.BOM_UTF8):  # the line count ignores a byte-order mark
            p = tmp_path / f"{header[0]}.csv"
            p.write_bytes(bom + f"{header}\r\n0,0\r\n1,\xff\n".encode("latin-1"))
            with pytest.raises(TableFormatError) as err:
                loader(p)
            assert str(err.value) == f"{p}: invalid UTF-8 byte 0xff at line 3"


def test_daylight_csv_header_only_is_empty(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text("k,e\n")
    assert load_daylight_csv(path).samples == ()


def test_daylight_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text("")
    with pytest.raises(TableFormatError):
        load_daylight_csv(path)


def test_process_lut_table_holds_each_commands_int():
    a = synth_default_lut()
    assert type(a.table) is tuple and len(a.table) == 256
    assert all(type(e) is int for e in a.table)
    assert a.table == tuple(lut_eval(a, u) for u in range(256))
    # a knot on the line changes no command's answer, but it is another table
    line = ProcessLut(((0, 0), (255, 255)))
    knotted = ProcessLut(((0, 0), (100, 100), (255, 255)))
    assert line.table == knotted.table and line.knots != knotted.knots


def test_a_lut_and_a_trajectory_keep_the_values_they_checked(tmp_path):
    pairs = [[0, 0], [100, 90], [255, 180]]
    lut = ProcessLut(pairs)
    built = ProcessLut(((0, 0), (100, 90), (255, 180)))
    assert lut.knots == built.knots
    pairs[1][1] = 200  # would make the knots decreasing
    pairs.append([256, 0])  # a knot past the 8-bit grid
    assert lut.knots == built.knots and lut.table == built.table
    save_lut_csv(lut, tmp_path / "lut.csv")
    assert (tmp_path / "lut.csv").read_text() == "u,e\n0,0\n100,90\n255,180\n"
    samples = [1, 2, 3]
    traj = DaylightTrajectory(samples)
    samples[0] = 300
    samples.append(4)
    assert traj.samples == (1, 2, 3)
    save_daylight_csv(traj, tmp_path / "day.csv")
    assert (tmp_path / "day.csv").read_text() == "k,e\n0,1\n1,2\n2,3\n"


def _interpolate_exactly(knots, u):
    """Piecewise-linear value at u in exact rationals, rounded half away from zero."""
    if u <= knots[0][0]:
        return knots[0][1]
    for (u0, e0), (u1, e1) in zip(knots, knots[1:]):
        if u <= u1:
            e = e0 + Fraction(u - u0, u1 - u0) * (e1 - e0)
            return int(e + Fraction(1, 2))  # e >= 0, so int() floors
    return knots[-1][1]


def _random_knot_sets(count, seed):
    """Seeded monotone knot tuples with flat runs, mostly ending short of 0 and 255."""
    rng = SplitMix64(seed)
    for _ in range(count):
        us = set()
        while len(us) < 2 + rng.next_u64() % 10:
            us.add(rng.next_u64() % 256)
        e = rng.next_u64() % 60
        knots = []
        for u in sorted(us):
            knots.append((u, e))
            if rng.next_u64() % 4:  # else the next segment is flat
                e = min(255, e + rng.next_u64() % 80)
        yield tuple(knots)


def _tested_tables(tmp_path):
    path = tmp_path / "lut.csv"
    # a flat run, a tie (u=201 -> 181.5) and ends short of 0 and 255
    path.write_text("u,e\n5,2\n12,3\n37,50\n100,50\n101,51\n200,180\n250,255\n")
    # u=7 -> 31.5, which rounds half away to 32
    yield from (synth_default_lut(), load_lut_csv(path), ProcessLut(((0, 0), (10, 45))))
    yield from (ProcessLut(knots) for knots in _random_knot_sets(60, seed=15))


def test_lut_eval_matches_exact_interpolation_on_every_command(tmp_path):
    for lut in _tested_tables(tmp_path):
        for u in range(256):
            assert lut_eval(lut, u) == _interpolate_exactly(lut.knots, u), (lut, u)


def test_lut_inverse_is_the_first_nearest_command_of_the_exact_table(tmp_path):
    for lut in _tested_tables(tmp_path):
        exact = [_interpolate_exactly(lut.knots, u) for u in range(256)]
        for e in range(256):
            # min() keeps the first of equal keys: the smallest u
            assert lut_inverse(lut, e) == min(range(256), key=lambda u: abs(exact[u] - e)), (lut, e)


def test_a_utf8_byte_order_mark_is_not_part_of_the_text(tmp_path):
    lut = tmp_path / "lut.csv"
    lut.write_bytes(codecs.BOM_UTF8 + b"u,e\r\n0,0\r\n255,180\r\n")
    assert load_lut_csv(lut).knots == ((0, 0), (255, 180))
    day = tmp_path / "day.csv"
    day.write_bytes(codecs.BOM_UTF8 + b"k,e\n0,30\n1,31\n")
    assert load_daylight_csv(day).samples == (30, 31)
    # only one mark is cut: a second one is text, and no header
    lut.write_bytes(codecs.BOM_UTF8 * 2 + b"u,e\n0,0\n255,180\n")
    with pytest.raises(TableFormatError, match="expected header 'u,e' at line 1$"):
        load_lut_csv(lut)
