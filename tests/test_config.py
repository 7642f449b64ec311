"""Tests for configuration defaults, spec strings, and key=value files."""

import pytest

from daylux.config import (
    ConfigError,
    SimConfig,
    apply_settings,
    build_daylight,
    build_lut,
    load_config_file,
    parse_daylight_spec,
    parse_lut_spec,
)
from daylux.plant import DAYLIGHT_PARAMS


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
        ("e_desired", 100.0),
        ("warmup", False),
        ("gamma_controller", True),
        ("gamma_inverse", "0.1"),
        ("error_scaling", b"independent"),
        ("daylight_source", None),
        ("lut_source", 3),
        ("out_dir", 3),
    ):
        cfg = SimConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        named = str(err.value).split()[0].rstrip(":")
        assert named in (field, field.removesuffix("_source")), (field, value, str(err.value))


def test_validate_accepts_int_gammas_and_path_out_dirs(tmp_path):
    SimConfig(gamma_controller=1, gamma_inverse=0.5, out_dir=tmp_path / "run").validate()


def test_validate_checks_csv_paths_exist(tmp_path):
    cfg = SimConfig(lut_source=f"csv:{tmp_path}/absent.csv")
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert "file not found" in str(err.value)


def test_parse_lut_spec():
    assert parse_lut_spec("synthetic") == ("synthetic", {})
    assert parse_lut_spec("synthetic:e_max=150,shape=2.0,knots=16") == (
        "synthetic", {"e_max": 150, "shape": 2.0, "knots": 16}
    )
    assert parse_lut_spec("csv:tables/a.csv") == ("csv", {"path": "tables/a.csv"})
    with pytest.raises(ValueError):
        parse_lut_spec("csv:")
    with pytest.raises(ValueError):
        parse_lut_spec("poly:3")
    with pytest.raises(ValueError):
        parse_lut_spec("synthetic:knots=abc")


def test_parse_daylight_spec():
    assert parse_daylight_spec("constant:30") == ("constant", {"level": 30})
    assert parse_daylight_spec("step:0,100,50") == (
        "step", {"level0": 0, "level1": 100, "k_switch": 50}
    )
    assert parse_daylight_spec("ramp:10,200") == ("ramp", {"level0": 10, "level1": 200})
    assert parse_daylight_spec("fast") == ("fast", {})
    assert parse_daylight_spec("fast:base=50,step_prob=0.1") == (
        "fast", {"base": 50, "step_prob": 0.1}
    )
    assert parse_daylight_spec("csv:day.csv") == ("csv", {"path": "day.csv"})
    for bad in ("constant", "step:1,2", "ramp:5", "wave:3", "csv:", "fast:speed=2"):
        with pytest.raises(ValueError):
            parse_daylight_spec(bad)
    for bad, message in (
        ("constant:1,2", "constant needs 1 value: constant:level"),
        ("step:1,2,3,4", "step needs 3 values: step:level0,level1,k_switch"),
        ("ramp:0,x", "ramp: bad value for 'level1': 'x' (expected int)"),
        ("fast:base=4.5", "fast: bad value for 'base': '4.5' (expected int)"),
        ("fast:base=1,gust=2", "fast: unknown key 'gust' (expected one of "
                               "['amplitude', 'base', 'max_jump', 'step_prob'])"),
    ):
        with pytest.raises(ValueError) as err:
            parse_daylight_spec(bad)
        assert str(err.value) == message


def test_positional_daylight_specs_follow_the_plant_parameter_order():
    for kind, schema in DAYLIGHT_PARAMS.items():
        if kind == "fast":  # given as key=value, not by position
            continue
        _, params = parse_daylight_spec(f"{kind}:" + ",".join(["7"] * len(schema)))
        assert list(params) == list(schema)
        with pytest.raises(ValueError) as err:
            parse_daylight_spec(f"{kind}:" + ",".join(["7"] * (len(schema) + 1)))
        assert str(err.value).endswith(f": {kind}:{','.join(schema)}")


def test_build_lut_passes_parameters():
    cfg = SimConfig(lut_source="synthetic:e_max=200,knots=9")
    lut = build_lut(cfg)
    assert len(lut.knots) == 9
    assert lut.knots[-1] == (255, 200)


def test_build_daylight_generated_length_follows_steps():
    cfg = SimConfig(steps=77, daylight_source="constant:30")
    assert len(build_daylight(cfg)) == 77
    cfg = SimConfig(steps=50, daylight_source="fast")
    assert len(build_daylight(cfg)) == 50


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
    assert load_config_file(path) == {
        "steps": "500",
        "daylight_source": "constant:25",
        "use_bias": "false",
    }


def test_load_config_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps 500\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(path)
    assert "line 1" in str(err.value)
    path.write_text("= 5\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_non_utf8_config_file_names_path_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"# caf\xc3\xa9\nsteps = 5\nwarmup = \xff\n")
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
