"""Tests for configuration defaults, spec strings, and key=value files."""

import codecs
import os
import sys

import pytest

from daylux.cli import main
from daylux.config import (
    KEYWORD_KINDS,
    ConfigError,
    SimConfig,
    apply_settings,
    build_daylight,
    build_lut,
    load_config_file,
    parse_source,
)
from daylux.plant import DAYLIGHT_PARAMS
from daylux.report import ARTIFACT_NAMES


def test_default_config_is_valid():
    cfg = SimConfig()
    cfg.validate()
    assert cfg.steps == 2000
    assert cfg.e_desired == 100
    assert cfg.gamma_controller == cfg.gamma_inverse == 0.15
    assert cfg.warmup == 200
    assert cfg.daylight_source == "fast"
    assert cfg.lut_source == "synthetic"


def test_validate_rejects_out_of_contract_fields():
    for field, value in (
        ("steps", 0),
        ("steps", 99999999999999999999999),  # past sys.maxsize: no sequence can hold it
        ("e_desired", 256),
        ("gamma_controller", 0.0),
        ("gamma_inverse", -0.1),
        ("gamma_controller", float("inf")),
        ("gamma_inverse", float("inf")),
        ("gamma_inverse", float("nan")),
        ("warmup", -1),
        ("error_scaling", "percent"),
        ("inverse_target_lag", 2),
        ("plant_delay", 3),
        ("plant_delay", -1),
        ("daylight_source", "sinus:1"),
        ("lut_source", "poly:2"),
        ("use_bias", "no"),  # a truthy string would run with biases on
        ("use_bias", 0),
        ("steps", 2.5),
        ("steps", "3"),
        ("steps", True),
        ("seed_daylight", 1.5),
        ("seed_controller", None),
        # SplitMix64 takes seeds modulo 2**64, so these would alias in-range ones
        ("seed_daylight", -1),
        ("seed_controller", 2**64),
        ("seed_inverse", 2**64 + 2),
        ("e_desired", 100.0),
        ("warmup", False),
        ("gamma_controller", True),
        ("gamma_inverse", "0.1"),
        ("error_scaling", b"independent"),
        ("daylight_source", None),
        ("lut_source", 3),
        ("out_dir", 3),
        ("out_dir", ""),
        ("out_dir", __file__),  # an existing file, not a directory
        ("out_dir", os.path.join(__file__, "sub")),  # below an existing file
        ("out_dir", os.path.join(__file__, "a", "b", "")),
    ):
        cfg = SimConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        named = str(err.value).split()[0].rstrip(":")
        assert named in (field, field.removesuffix("_source")), (field, value, str(err.value))
    # the value at each inclusive bound passes
    for field, value in (("steps", sys.maxsize), ("e_desired", 255), ("warmup", 0)):
        cfg = SimConfig()
        setattr(cfg, field, value)
        cfg.validate()


def test_validate_type_errors_name_the_key_and_both_types():
    for field, value, message in (
        ("steps", 2.5, "steps must be an int, got float"),
        ("warmup", False, "warmup must be an int, got bool"),
        ("gamma_inverse", "0.1", "gamma_inverse must be a float, got str"),
        ("gamma_controller", True, "gamma_controller must be a float, got bool"),
        ("use_bias", 0, "use_bias must be a bool, got int"),
        ("lut_source", 3, "lut_source must be a str, got int"),
        ("out_dir", b"out", "out_dir must be a str, got bytes"),
    ):
        cfg = SimConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value) == message


def test_validate_accepts_both_ends_of_the_seed_range():
    SimConfig(seed_controller=0, seed_inverse=2**64 - 1, seed_daylight=0).validate()
    with pytest.raises(ConfigError) as err:
        SimConfig(seed_daylight=-1).validate()
    assert str(err.value) == "seed_daylight must be in [0, 18446744073709551615], got -1"


def test_validate_accepts_int_gammas_and_path_out_dirs(tmp_path, capsys):
    SimConfig(gamma_controller=1, gamma_inverse=0.5, out_dir=tmp_path / "run").validate()
    longest = tmp_path / "m" / ("a" * os.pathconf(tmp_path, "PC_NAME_MAX"))
    for out_dir in (tmp_path / "a" / "b", f"{tmp_path}/a/b/", "a/b", longest):  # made by the run
        SimConfig(out_dir=out_dir).validate()
    # a name of exactly the limit runs and writes the whole set
    argv = ["simulate", "--steps", "5", "--daylight", "constant:30", "--out-dir", str(longest)]
    assert main(argv) == 0
    assert sorted(os.listdir(longest)) == sorted(ARTIFACT_NAMES)
    capsys.readouterr()


def test_validate_checks_csv_paths_exist(tmp_path):
    cfg = SimConfig(lut_source=f"csv:{tmp_path}/absent.csv")
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "file not found" in str(err.value)
    for key in ("lut", "daylight"):
        cfg = SimConfig(**{f"{key}_source": f"csv:{tmp_path}"})
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value) == f"{key}: not a file: {str(tmp_path)!r}"


def test_validate_rejects_an_out_dir_it_cannot_look_up(tmp_path, monkeypatch):
    # isdir and exists say False for a name too long, as for a missing one, so
    # such an out_dir passed and the run failed only when writing its artifacts
    monkeypatch.chdir(tmp_path)
    too_long = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
    for out_dir in (too_long, os.path.join(too_long, "sub"), tmp_path / too_long):
        with pytest.raises(ConfigError) as err:
            SimConfig(out_dir=out_dir).validate()
        path = os.fspath(out_dir)
        assert str(err.value) == f"out_dir: File name too long: {path!r}"
    assert os.listdir(tmp_path) == []


def test_parse_source_reads_each_kind():
    for key, spec, parsed in (
        ("lut", "synthetic", ("synthetic", {})),
        ("lut", "synthetic:e_max=150,shape=2.0,knots=16",
         ("synthetic", {"e_max": 150, "shape": 2.0, "knots": 16})),
        ("lut", "csv:tables/a.csv", ("csv", {"path": "tables/a.csv"})),
        ("daylight", "constant:30", ("constant", {"level": 30})),
        ("daylight", "step:0,100,50", ("step", {"level0": 0, "level1": 100, "k_switch": 50})),
        ("daylight", "ramp:10,200", ("ramp", {"level0": 10, "level1": 200})),
        ("daylight", "fast", ("fast", {})),
        ("daylight", "fast:base=50,step_prob=0.1", ("fast", {"base": 50, "step_prob": 0.1})),
        ("daylight", "csv:day.csv", ("csv", {"path": "day.csv"})),
    ):
        assert parse_source(key, spec) == parsed, (key, spec)


def test_parse_source_rejects_bad_specs():
    for key, spec, message in (
        ("lut", "csv:", "csv source needs a path, e.g. csv:lut.csv"),
        ("lut", "poly:3", "unknown lut source 'poly' (expected synthetic or csv)"),
        ("lut", "synthetic:knots=abc", "synthetic: bad value for 'knots': 'abc' (expected int)"),
        ("lut", "synthetic:knots=8,knots=64", "synthetic: 'knots' set twice"),
        ("daylight", "constant", "constant needs 1 value: constant:level"),
        ("daylight", "constant:1,2", "constant needs 1 value: constant:level"),
        ("daylight", "step:1,2", "step needs 3 values: step:level0,level1,k_switch"),
        ("daylight", "step:1,2,3,4", "step needs 3 values: step:level0,level1,k_switch"),
        ("daylight", "ramp:5", "ramp needs 2 values: ramp:level0,level1"),
        ("daylight", "ramp:0,x", "ramp: bad value for 'level1': 'x' (expected int)"),
        ("daylight", "wave:3",
         "unknown daylight source 'wave' (expected constant, step, ramp, fast or csv)"),
        ("daylight", "csv:", "csv source needs a path, e.g. csv:daylight.csv"),
        ("daylight", "fast:base=4.5", "fast: bad value for 'base': '4.5' (expected int)"),
        ("daylight", "fast:speed=2", "fast: unknown key 'speed' (expected one of "
                                     "['amplitude', 'base', 'max_jump', 'step_prob'])"),
        ("daylight", "fast:base=1,gust=2", "fast: unknown key 'gust' (expected one of "
                                           "['amplitude', 'base', 'max_jump', 'step_prob'])"),
        ("daylight", "fast:base=10,base=90", "fast: 'base' set twice"),
    ):
        with pytest.raises(ValueError) as err:
            parse_source(key, spec)
        assert str(err.value) == message, (key, spec)


def test_positional_daylight_specs_follow_the_plant_parameter_order():
    for kind, schema in DAYLIGHT_PARAMS.items():
        if kind in KEYWORD_KINDS:  # given as key=value, not by position
            continue
        _, params = parse_source("daylight", f"{kind}:" + ",".join(["7"] * len(schema)))
        assert list(params) == list(schema)
        with pytest.raises(ValueError) as err:
            parse_source("daylight", f"{kind}:" + ",".join(["7"] * (len(schema) + 1)))
        assert str(err.value).endswith(f": {kind}:{','.join(schema)}")


def test_build_lut_passes_parameters():
    cfg = SimConfig(lut_source="synthetic:e_max=200,knots=9")
    lut = build_lut(cfg)
    assert len(lut.knots) == 9
    assert lut.knots[-1] == (255, 200)


def test_build_daylight_generated_length_follows_steps():
    cfg = SimConfig(steps=77, daylight_source="constant:30")
    assert len(build_daylight(cfg).samples) == 77
    cfg = SimConfig(steps=50, daylight_source="fast")
    assert len(build_daylight(cfg).samples) == 50


def test_build_daylight_csv_brings_its_own_length(tmp_path):
    path = tmp_path / "day.csv"
    path.write_text("k,e\n0,10\n1,11\n2,12\n")
    cfg = SimConfig(steps=9999, daylight_source=f"csv:{path}")
    assert build_daylight(cfg).samples == (10, 11, 12)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "steps = 500\n"
        "daylight_source = constant:25\n"
        "use_bias = false\n"
    )
    expected = {
        "steps": "500",
        "daylight_source": "constant:25",
        "use_bias": "false",
    }
    assert load_config_file(path) == expected
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())  # as Excel saves "UTF-8"
    assert load_config_file(path) == expected


def test_load_config_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps 500\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(path)
    assert "line 1" in str(err.value)
    path.write_text("= 5\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_load_config_file_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = 5\n# again\nwarmup = 1\nsteps = 7\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(path)
    assert str(err.value) == f"{path}: 'steps' set twice, at lines 1 and 4"


def test_non_utf8_config_file_names_path_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    for bom in (b"", codecs.BOM_UTF8):  # the line count ignores a byte-order mark
        path.write_bytes(bom + b"# caf\xc3\xa9\nsteps = 5\nwarmup = \xff\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(path)
        assert str(err.value) == f"{path}: invalid UTF-8 byte 0xff at line 3"


def test_apply_settings_types_and_errors():
    cfg = SimConfig()
    apply_settings(
        cfg,
        {"steps": "321", "gamma_inverse": "0.2", "use_bias": "no", "out_dir": "run7"},
        origin="test",
    )
    assert cfg.steps == 321
    assert cfg.gamma_inverse == 0.2
    assert cfg.use_bias is False
    assert cfg.out_dir == "run7"

    with pytest.raises(ConfigError) as err:
        apply_settings(cfg, {"stepz": "1"}, origin="test")
    assert str(err.value).startswith("test: unknown key 'stepz' (expected one of [")
    assert "'steps'" in str(err.value)
    with pytest.raises(ConfigError) as err:
        apply_settings(cfg, {"steps": "many"}, origin="test")
    assert str(err.value) == "test: bad value for 'steps': 'many' (expected int)"
    with pytest.raises(ConfigError) as err:
        apply_settings(cfg, {"use_bias": "maybe"}, origin="test")
    assert str(err.value) == "test: bad value for 'use_bias': 'maybe' (expected bool)"
    apply_settings(cfg, {"out_dir": " run 8 "}, origin="test")
    assert cfg.out_dir == " run 8 "  # str values pass through unchanged
