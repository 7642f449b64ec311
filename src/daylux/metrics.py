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

from .signals import check_type

WIDE_BAND = (-11, 9)
NARROW_BAND = (-5, 5)
PERCEPTION_BAND = (93, 107)


class BandReport:
    """The statistics of one run; see band_report.

    n_steps counts every record, n_steady those past the warm-up cut.
    frac_in_shell is the share in the wide band but outside the narrow one.
    """

    def __init__(self, warmup_steps: int, n_steps: int, n_steady: int, eps_min: int,
                 eps_max: int, frac_in_wide: float, frac_in_narrow: float, frac_in_shell: float,
                 frac_meas_in_perception: float, rms_eps: float) -> None:
        self.warmup_steps = warmup_steps
        self.n_steps = n_steps
        self.n_steady = n_steady
        self.eps_min = eps_min
        self.eps_max = eps_max
        self.frac_in_wide = frac_in_wide
        self.frac_in_narrow = frac_in_narrow
        self.frac_in_shell = frac_in_shell
        self.frac_meas_in_perception = frac_meas_in_perception
        self.rms_eps = rms_eps
        self.valid = n_steady > 0

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is BandReport else NotImplemented


def band_report(records, warmup_steps: int) -> BandReport:
    """Statistics of a run, in one pass over any iterable of records.

    The band statistics cover records with k >= warmup_steps.  When nothing
    survives the cut the report carries n_steady=0, zero fractions and
    valid=False rather than raising; a saturated or truncated run still gets
    an honest summary.
    """
    check_type(warmup_steps, "warmup_steps", "int")
    if warmup_steps < 0:
        raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
    n_steps = n = n_wide = n_narrow = n_shell = n_percep = 0
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
            else:
                n_shell += 1
        if PERCEPTION_BAND[0] <= r.e_measured <= PERCEPTION_BAND[1]:
            n_percep += 1
        sq += e * e  # in record order, so rms_eps is the same float on every run
    d = n or 1  # no steady record: every count is 0, so every fraction is 0.0
    return BandReport(warmup_steps, n_steps, n, eps_min, eps_max, n_wide / d, n_narrow / d,
                      n_shell / d, n_percep / d, math.sqrt(sq / d))


def extreme_rarity(records, warmup_steps: int) -> float:
    """Fraction of steady steps with eps inside [-11, 9] but outside [-5, 5].

    Measures how often the error visits the outer shell of the wide band;
    small values mean the extremes of the reported interval are met rarely.
    """
    return band_report(records, warmup_steps).frac_in_shell
