"""Tests for 8-bit signal scaling, quantization, and clamped addition."""

from enum import IntEnum

import pytest

from daylux.signals import (
    D8BV_MAX,
    check_d8bv,
    check_type,
    clamp8_sum,
    round_half_away,
    scale_delta_error,
    scale_error,
    scale_to_unit,
    unit_to_d8bv,
)


def test_round_half_away_ties():
    # ties round away from zero, not to even
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(-0.5) == -1
    assert round_half_away(-1.5) == -2
    assert round_half_away(-2.5) == -3


def test_round_half_away_plain():
    assert round_half_away(2.4) == 2
    assert round_half_away(2.6) == 3
    assert round_half_away(-2.4) == -2
    assert round_half_away(0.0) == 0


def test_scale_to_unit_endpoints():
    assert scale_to_unit(0) == -1.0
    assert scale_to_unit(255) == 1.0
    assert scale_to_unit(128) == 128 / 127.5 - 1.0


def test_unit_to_d8bv_endpoints_and_midpoint():
    assert unit_to_d8bv(-1.0) == 0
    assert unit_to_d8bv(1.0) == 255
    assert unit_to_d8bv(0.0) == 128  # (0+1)*127.5 = 127.5, half away -> 128


def test_unit_to_d8bv_saturates():
    assert unit_to_d8bv(1.7) == 255
    assert unit_to_d8bv(-3.0) == 0


def test_quantization_round_trip_exhaustive():
    for v in range(256):
        assert unit_to_d8bv(scale_to_unit(v)) == v


def test_scale_error_values():
    assert scale_error(0) == 0.0
    assert scale_error(255) == 1.0
    assert scale_error(-255) == -1.0
    assert scale_error(60) == 60 / 255


def test_scale_error_rejects_out_of_range():
    with pytest.raises(ValueError):
        scale_error(256)
    with pytest.raises(ValueError):
        scale_error(-256)


def test_scale_delta_error_independent():
    assert scale_delta_error(510, "independent") == 1.0
    assert scale_delta_error(-510, "independent") == -1.0
    assert scale_delta_error(51, "independent") == 51 / 510


def test_scale_delta_error_shared255():
    # shared255 clamps to +-255 then divides by 255
    assert scale_delta_error(510, "shared255") == 1.0
    assert scale_delta_error(-400, "shared255") == -1.0
    assert scale_delta_error(51, "shared255") == 51 / 255


def test_scale_delta_error_rejects_out_of_range():
    with pytest.raises(ValueError):
        scale_delta_error(511, "independent")
    with pytest.raises(ValueError):
        scale_delta_error(-511, "shared255")


def test_scale_delta_error_rejects_unknown_scaling():
    message = r"^error scaling must be one of \('independent', 'shared255'\), got 'percent'$"
    with pytest.raises(ValueError, match=message):
        scale_delta_error(0, "percent")


def test_clamp8_sum():
    assert clamp8_sum(100, 40) == 140
    assert clamp8_sum(200, 100) == 255
    assert clamp8_sum(0, 0) == 0
    assert clamp8_sum(255, 255) == 255


def test_check_d8bv_accepts_range():
    for v in (0, 1, 254, D8BV_MAX):
        assert check_d8bv(v) == v


def test_check_d8bv_rejects_bad_values():
    for bad in (-1, 256, 1000):
        with pytest.raises(ValueError):
            check_d8bv(bad)
    with pytest.raises(ValueError):
        check_d8bv(True)  # bool is not a signal value
    with pytest.raises(ValueError):
        check_d8bv(1.5)


class Level(IntEnum):
    FIVE = 5


def test_check_d8bv_verdicts_and_messages():
    with pytest.raises(ValueError, match=r"^value must be an int, got Level$"):
        check_d8bv(Level.FIVE)  # an int subclass is rejected like bool
    with pytest.raises(ValueError, match=r"^flag must be an int, got bool$"):
        check_d8bv(True, "flag")
    with pytest.raises(ValueError, match=r"^value must be an int, got float$"):
        check_d8bv(3.0)
    with pytest.raises(ValueError, match=r"^u must be in \[0, 255\], got -1$"):
        check_d8bv(-1, "u")
    with pytest.raises(ValueError, match=r"^value must be in \[0, 255\], got 256$"):
        check_d8bv(256)


def test_check_type_verdicts_and_messages():
    # the one typing rule: a bool is only a bool, an int is also a float
    accepted = {
        "int": (0, -3, 2**70),
        "float": (0, 1.5, float("nan")),
        "bool": (True, False),
        "str": ("", "x"),
    }
    rejected = {
        "int": (True, 1.0, Level.FIVE, "1"),
        "float": (True, "1.0", None),
        "bool": (1, 0, "true", None),
        "str": (True, 3, b"x", None),
    }
    for type_name, values in accepted.items():
        for value in values:
            assert check_type(value, "x", type_name) is value
    for type_name, values in rejected.items():
        article = "an" if type_name == "int" else "a"
        for value in values:
            message = f"^x must be {article} {type_name}, got {type(value).__name__}$"
            with pytest.raises(ValueError, match=message):
                check_type(value, "x", type_name)


@pytest.mark.parametrize("name, span, scale", [
    ("eps", 255, scale_error),
    ("deps", 510, lambda d: scale_delta_error(d, "independent")),
    ("deps", 510, lambda d: scale_delta_error(d, "shared255")),
], ids=["eps", "deps-independent", "deps-shared255"])
def test_error_scalings_reject_non_ints_and_out_of_range(name, span, scale):
    for bad in (True, 1.0, Level.FIVE):
        with pytest.raises(ValueError, match=rf"^{name} must be an int, got {type(bad).__name__}$"):
            scale(bad)
    for bad in (span + 1, -span - 1):
        message = rf"^{name} must be in \[-{span}, {span}\], got {bad}$"
        with pytest.raises(ValueError, match=message):
            scale(bad)
