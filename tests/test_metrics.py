"""Tests for steady-state band statistics."""

import pytest

from daylux.loop import StepRecord
from daylux.metrics import (
    NARROW_BAND,
    PERCEPTION_BAND,
    WIDE_BAND,
    band_report,
    extreme_rarity,
)
from daylux.report import summary_text


def rec(k, eps, e_measured=100):
    """Record with only the fields the metrics read set meaningfully."""
    return StepRecord(
        k=k,
        e_desired=100,
        e_daylight=0,
        e_electric=e_measured,
        e_measured=e_measured,
        eps=eps,
        deps=0,
        u=128,
        u_im=128,
        loss_inverse=0.0,
        loss_controller=0.0,
    )


def test_band_constants():
    assert WIDE_BAND == (-11, 9)
    assert NARROW_BAND == (-5, 5)
    assert PERCEPTION_BAND == (93, 107)


def test_perfect_run_scores_ones():
    recs = [rec(k, 0) for k in range(100)]
    rep = band_report(recs, 0)
    assert rep.n_steady == 100 and rep.valid
    assert rep.frac_in_wide == 1.0
    assert rep.frac_in_narrow == 1.0
    assert rep.frac_meas_in_perception == 1.0
    assert rep.rms_eps == 0.0
    assert (rep.eps_min, rep.eps_max) == (0, 0)


def test_band_edges_are_inclusive():
    inside = [rec(k, e) for k, e in enumerate((-11, 9, -5, 5))]
    rep = band_report(inside, 0)
    assert rep.frac_in_wide == 1.0
    assert rep.frac_in_narrow == 0.5  # only -5 and 5 make the narrow band

    outside = [rec(k, e) for k, e in enumerate((-12, 10))]
    rep = band_report(outside, 0)
    assert rep.frac_in_wide == 0.0
    assert rep.frac_in_narrow == 0.0


def test_perception_band_edges():
    recs = [rec(k, 0, e_measured=m) for k, m in enumerate((92, 93, 107, 108))]
    rep = band_report(recs, 0)
    assert rep.frac_meas_in_perception == 0.5


def test_constant_offset_run():
    recs = [rec(k, 10) for k in range(50)]
    rep = band_report(recs, 0)
    assert rep.frac_in_wide == 0.0  # 10 is just past the +9 edge
    assert rep.frac_in_narrow == 0.0
    assert rep.rms_eps == 10.0


def test_alternating_extremes_of_narrow_band():
    recs = [rec(k, 5 if k % 2 == 0 else -5) for k in range(40)]
    rep = band_report(recs, 0)
    assert rep.frac_in_narrow == 1.0
    assert rep.rms_eps == 5.0
    assert (rep.eps_min, rep.eps_max) == (-5, 5)


def test_warmup_cut_drops_transient():
    recs = [rec(k, 200 if k < 10 else 0) for k in range(30)]
    rep = band_report(recs, 10)
    assert rep.n_steady == 20
    assert rep.frac_in_wide == 1.0
    assert band_report(recs, 0).frac_in_wide == pytest.approx(20 / 30)


def test_empty_steady_window_is_flagged():
    recs = [rec(k, 0) for k in range(5)]
    rep = band_report(recs, 100)
    assert rep.n_steady == 0
    assert not rep.valid
    assert rep.frac_in_wide == 0.0 and rep.rms_eps == 0.0
    assert band_report([], 0).valid is False


def test_negative_warmup_rejected():
    with pytest.raises(ValueError):
        band_report([], -1)
    with pytest.raises(ValueError):
        extreme_rarity([], -1)


@pytest.mark.parametrize("warmup", [True, 2.5, "2"])
def test_warmup_must_be_an_int(warmup):
    with pytest.raises(ValueError, match="^warmup_steps must be an int, got "):
        band_report([rec(0, 0)], warmup)


def test_one_pass_over_a_generator_equals_the_list():
    recs = [rec(k, (k % 25) - 12, e_measured=88 + k % 24) for k in range(60)]
    assert band_report((r for r in recs), 20) == band_report(recs, 20)


def test_n_steps_counts_warmup_records_too():
    recs = [rec(k, 0) for k in range(30)]
    assert band_report(recs, 10).n_steps == 30
    assert band_report(recs, 100).n_steps == 30  # nothing steady, every record counted
    assert band_report([], 0).n_steps == 0


def test_record_order_does_not_matter():
    recs = [rec(k, (-1) ** k * (k % 13)) for k in range(60)]
    rep_fwd = band_report(recs, 20)
    rep_rev = band_report(list(reversed(recs)), 20)
    assert rep_fwd == rep_rev


def test_extreme_rarity_counts_the_shell():
    # -8 sits inside the wide band but outside the narrow one
    recs = [rec(k, -8) for k in range(10)]
    assert extreme_rarity(recs, 0) == 1.0
    recs = [rec(k, 0) for k in range(10)]
    assert extreme_rarity(recs, 0) == 0.0
    recs = [rec(k, -20) for k in range(10)]  # fully outside both bands
    assert extreme_rarity(recs, 0) == 0.0
    assert extreme_rarity([], 5) == 0.0


def test_shell_plus_narrow_equals_wide():
    recs = [rec(k, (k % 25) - 12) for k in range(200)]
    rep = band_report(recs, 0)
    shell = extreme_rarity(recs, 0)
    assert rep.frac_in_narrow + shell == pytest.approx(rep.frac_in_wide)


def test_kv_block_format():
    recs = [rec(k, 0) for k in range(10)]
    block = summary_text(band_report(recs, 2)).split("\n\n")[1]
    assert block.splitlines() == [
        "warmup_steps=2",
        "n_steady=8",
        "eps_min=0",
        "eps_max=0",
        "frac_in_wide=1",
        "frac_in_narrow=1",
        "frac_meas_in_perception=1",
        "rms_eps=0",
        "valid=1",
        "extreme_shell_frac=0",
    ]
    nothing_steady = summary_text(band_report(recs, 20)).split("\n\n")[1]
    assert nothing_steady.splitlines()[-3:] == ["rms_eps=0", "valid=0", "extreme_shell_frac=0"]
