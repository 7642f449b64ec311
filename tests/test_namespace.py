"""The package namespace binds the run's entry points and nothing else."""

import types

import daylux
from daylux import config, loop, plant

ENTRY_POINTS = {
    "SimConfig": config,
    "ConfigError": config,
    "run_simulation": loop,
    "DivergenceError": loop,
    "gen_daylight": plant,
    "synth_default_lut": plant,
    "save_lut_csv": plant,
    "save_daylight_csv": plant,
    "TableFormatError": plant,
}
# What bench/run.py reads from the package itself rather than from a module.
BENCHMARK_READS = (
    "SimConfig",
    "run_simulation",
    "gen_daylight",
    "synth_default_lut",
    "save_lut_csv",
    "save_daylight_csv",
    "__version__",
)


def test_package_binds_only_the_entry_points():
    bound = {
        name for name, value in vars(daylux).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(ENTRY_POINTS)
    for name, module in ENTRY_POINTS.items():
        assert getattr(daylux, name) is getattr(module, name), name
    assert not hasattr(daylux, "__all__")
    assert [name for name in BENCHMARK_READS if not hasattr(daylux, name)] == []
