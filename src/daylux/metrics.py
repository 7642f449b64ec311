"""Steady-state error-band statistics for a simulated run.

The regulation quality of a run is summarised by how the control error eps
sits inside two closed bands once transients have died out: a wide band
[-11, 9] that the error should essentially never leave, and a narrow band
[-5, 5] that should hold the majority of steps.  A third counter watches the
measured illuminance itself against [93, 107], the window around the 100
setpoint within which variation is imperceptible to an occupant.

"Steady state" is a fixed configurable warm-up cut, not a detection
heuristic, so two runs of the same config always agree on what was counted.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from .signals import check_type

WIDE_BAND = (-11, 9)
NARROW_BAND = (-5, 5)
PERCEPTION_BAND = (93, 107)


def band_report(records, warmup_steps: int) -> SimpleNamespace:
    """Statistics of a run, in one pass over any iterable of records.

    n_steps counts every record, n_steady those with k >= warmup_steps, and
    the band statistics cover only the latter.  frac_in_shell is the share in
    the wide band but outside the narrow one.  When nothing survives the cut
    the report carries n_steady=0, zero fractions and valid=False rather than
    raising; a saturated or truncated run still gets an honest summary.
    vars() of a report lists its fields in the order they are given below.
    """
    check_type(warmup_steps, "warmup_steps", "int")
    if warmup_steps < 0:
        raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
    n_steps = n = n_wide = n_narrow = n_percep = 0
    sq = 0.0
    eps_min = eps_max = 0  # the first steady record replaces both
    for n_steps, r in enumerate(records, 1):
        if r.k < warmup_steps:
            continue
        e = r.eps
        if not n or e < eps_min:
            eps_min = e
        if not n or e > eps_max:
            eps_max = e
        n += 1
        if WIDE_BAND[0] <= e <= WIDE_BAND[1]:  # the narrow band lies inside it
            n_wide += 1
            if NARROW_BAND[0] <= e <= NARROW_BAND[1]:
                n_narrow += 1
        if PERCEPTION_BAND[0] <= r.e_measured <= PERCEPTION_BAND[1]:
            n_percep += 1
        sq += e * e  # in record order, so rms_eps is the same float on every run
    d = n or 1  # no steady record: every count is 0, so every fraction is 0.0
    return SimpleNamespace(
        warmup_steps=warmup_steps, n_steps=n_steps, n_steady=n, eps_min=eps_min,
        eps_max=eps_max, frac_in_wide=n_wide / d, frac_in_narrow=n_narrow / d,
        frac_in_shell=(n_wide - n_narrow) / d, frac_meas_in_perception=n_percep / d,
        rms_eps=math.sqrt(sq / d), valid=n > 0,
    )


def extreme_rarity(records, warmup_steps: int) -> float:
    """Fraction of steady steps with eps inside [-11, 9] but outside [-5, 5].

    Measures how often the error visits the outer shell of the wide band;
    small values mean the extremes of the reported interval are met rarely.
    """
    return band_report(records, warmup_steps).frac_in_shell
