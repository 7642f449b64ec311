"""daylux: a desk-scale simulator of an adaptive neural lighting control loop.

A 2-3-1 neural controller regulates working-plane illuminance against a
time-varying daylight disturbance, trained online against the output of a
3-3-1 inverse model that is itself identified online from the loop's own
measurements.  The plant is a monotone look-up table, all signals live on an
8-bit grid, and every run is reproducible bit for bit from its seeds.
"""

from .config import ConfigError, SimConfig
from .loop import (
    DivergenceError,
    LoopState,
    StepRecord,
    controller_action,
    inverse_action,
    loop_step,
    run_loop,
    run_simulation,
    train_controller,
    train_inverse,
)
from .metrics import BandReport, band_report, extreme_rarity
from .plant import (
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
from .rng import SplitMix64
from .signals import (
    check_d8bv,
    clamp8_sum,
    round_half_away,
    scale_delta_error,
    scale_error,
    scale_to_unit,
    unit_to_d8bv,
)
from .tinynet import (
    TinyNet,
    backprop_gradients,
    forward,
    init_network,
    numeric_gradient,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "BandReport",
    "ConfigError",
    "DaylightTrajectory",
    "DivergenceError",
    "LoopState",
    "ProcessLut",
    "SimConfig",
    "SplitMix64",
    "StepRecord",
    "TableFormatError",
    "TinyNet",
    "backprop_gradients",
    "band_report",
    "check_d8bv",
    "clamp8_sum",
    "controller_action",
    "extreme_rarity",
    "forward",
    "gen_daylight",
    "init_network",
    "inverse_action",
    "load_daylight_csv",
    "load_lut_csv",
    "loop_step",
    "lut_eval",
    "lut_inverse",
    "numeric_gradient",
    "round_half_away",
    "run_loop",
    "run_simulation",
    "save_daylight_csv",
    "save_lut_csv",
    "scale_delta_error",
    "scale_error",
    "scale_to_unit",
    "synth_default_lut",
    "train_controller",
    "train_inverse",
    "train_step",
    "unit_to_d8bv",
]
