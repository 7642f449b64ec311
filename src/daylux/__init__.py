"""daylux: a desk-scale simulator of an adaptive neural lighting control loop.

A 2-3-1 neural controller regulates working-plane illuminance against a
time-varying daylight disturbance, trained online against the output of a
3-3-1 inverse model that is itself identified online from the loop's own
measurements.  The plant is a monotone look-up table, all signals live on an
8-bit grid, and every run is reproducible bit for bit from its seeds.

The package namespace holds what a run needs: the config, the simulation,
the table and trajectory generators and writers, and the errors they raise.
Everything else is imported from its module, e.g. `daylux.plant.lut_eval`.
"""

from .config import ConfigError, SimConfig
from .loop import DivergenceError, run_simulation
from .plant import (
    TableFormatError,
    gen_daylight,
    save_daylight_csv,
    save_lut_csv,
    synth_default_lut,
)

__version__ = "0.1.0"
