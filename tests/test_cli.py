"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import errno
import os
import re
import resource
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import daylux
import daylux.cli as cli_mod
from daylux.cli import build_parser, main, parse_config
from daylux.config import FIELDS, ConfigError, SimConfig, apply_settings
from daylux.plant import (
    gen_daylight, load_lut_csv, save_daylight_csv, save_lut_csv, synth_default_lut,
)
from daylux.loop import run_simulation
from daylux.report import ARTIFACT_NAMES, TRAJECTORY_HEADER, write_run_artifacts


def contents(out):
    """Each file name in out with its bytes; a directory maps to None."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


def run_simulate(tmp_path, *extra, steps=40):
    out = tmp_path / "out"
    code = main(["simulate", "--steps", str(steps), "--daylight", "constant:30",
                 "--out-dir", str(out), *extra])
    return code, out


def test_simulate_writes_artifacts(tmp_path, capsys):
    code, out = run_simulate(tmp_path)
    assert code == 0
    stdout = capsys.readouterr().out
    names = (
        "trajectory.csv",
        "panel_illuminance.csv", "panel_error.csv", "panel_command.csv",
        "panel_illuminance.svg", "panel_error.svg", "panel_command.svg",
        "summary.txt",
    )
    wrote = [f"wrote {out}/{name}" for name in names]
    wrote[0] += " (40 rows)"
    assert stdout.splitlines()[:8] == wrote  # one line per artifact, in order
    assert "steps: 40 total" in stdout
    assert stdout.encode().endswith((out / "summary.txt").read_bytes())
    for name in names:
        assert (out / name).is_file()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 41


def test_a_warmup_past_the_run_still_counts_every_step(tmp_path, capsys):
    code, out = run_simulate(tmp_path, "--warmup", "300", steps=150)
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out}/trajectory.csv (150 rows)" in stdout
    assert "steps: 150 total, 0 steady (warmup 300)" in stdout


def test_bare_flags_imply_simulate(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["--steps", "5", "--daylight", "constant:30", "--out-dir", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").is_file()


def test_reruns_are_byte_identical(tmp_path):
    _, out_a = run_simulate(tmp_path / "a")
    _, out_b = run_simulate(tmp_path / "b")
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sim settings\n"
        "steps = 70\n"
        "e_desired = 90\n"
        "daylight_source = constant:30\n"
        f"out_dir = {tmp_path / 'out'}\n"
    )
    code = main(["simulate", "--config", str(cfg), "--steps", "25"])
    assert code == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 25  # flag beat the file
    assert all(r.split(",")[1] == "90" for r in rows)  # file beat the default


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stepz = 70\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert f"error: {cfg}: unknown key 'stepz' (expected one of [" in capsys.readouterr().err


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps 70\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_validation_errors_exit_1(tmp_path, capsys):
    assert main(["simulate", "--steps", "0"]) == 1
    assert "steps" in capsys.readouterr().err
    assert main(["simulate", "--e-desired", "300"]) == 1
    capsys.readouterr()
    assert main(["simulate", "--gamma-inverse", "inf"]) == 1
    assert "gamma_inverse" in capsys.readouterr().err
    assert main(["simulate", "--daylight", "sinus:1"]) == 1
    assert main(["simulate", "--lut", "csv:/does/not/exist.csv"]) == 1
    assert main(["simulate", "--steps", "abc"]) == 1
    err = capsys.readouterr().err
    assert "error: command line: bad value for 'steps': 'abc' (expected int)" in err
    assert main(["simulate", "--inverse-target-lag", "2"]) == 1
    assert "error: inverse_target_lag must be 0 or 1, got 2" in capsys.readouterr().err
    assert main(["bogus"]) == 1


def test_diverging_run_exits_1_with_one_error_line(tmp_path, capsys):
    code, out = run_simulate(tmp_path, "--gamma-controller", "50", steps=200)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: controller diverged at step k=69: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()  # artifacts of the completed steps are not written


def test_missing_table_on_inspect_exits_1(tmp_path, capsys):
    absent = tmp_path / "absent.csv"
    assert main(["lut", "inspect", "--lut", f"csv:{absent}"]) == 1
    assert capsys.readouterr() == ("", f"error: lut: file not found: {str(absent)!r}\n")


@pytest.mark.parametrize("name, problem", [("nope.cfg", "file not found"), ("cfgdir", "not a file")])
def test_a_config_path_that_names_no_file_exits_1_naming_it(tmp_path, capsys, name, problem):
    # The lookup rule of a csv: source: nothing read, nothing written, exit 1.
    (tmp_path / "cfgdir").mkdir()
    config = str(tmp_path / name)
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == ("", f"error: config: {problem}: {config!r}\n")
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    with_code = main(["--help"])
    out = capsys.readouterr().out
    assert "{simulate,lut}" in out  # the only two commands
    assert "\n\nCommand-line front end.\n\n" in out  # the description line
    assert with_code == 0


def test_gradcheck_is_not_a_command(capsys):
    assert main(["gradcheck"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument command: invalid choice: 'gradcheck' ")
    assert err.count("\n") == 1


def test_lut_generate_then_inspect(tmp_path, capsys):
    out = tmp_path / "tbl.csv"
    umask = os.umask(0o022)
    try:
        assert main(["lut", "generate", "--out", str(out), "--lut", "synthetic:knots=16"]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o644  # created 0o666, less the umask
    assert f"wrote {out} (16 knots)" in capsys.readouterr().out
    assert len(load_lut_csv(out).knots) == 16

    assert main(["lut", "inspect", "--lut", f"csv:{out}", "--query-e", "100"]) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"table: csv:{out}\n")
    assert "monotone: yes" in text
    assert re.search(r"u\*\(100\) = \d+  \(lut_eval -> \d+\)", text)


def test_lut_inspect_synthetic_default(capsys):
    assert main(["lut", "inspect", "--query-e", "100"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("table: synthetic\n")
    assert "u*(100) = 162" in text  # brute-force inverse of the default table


def test_lut_generate_rejects_bad_params(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["lut", "generate", "--out", str(out), "--lut", "synthetic:e_max=10"]) == 1
    assert capsys.readouterr() == (
        "", "error: lut: synthetic: e_max must be in [120, 255], got 10\n"
    )
    assert not out.exists()


def test_lut_inspect_rejects_an_out_of_range_query_before_printing(capsys):
    assert main(["lut", "inspect", "--query-e", "300"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: query_e must be in [0, 255], got 300\n"


@pytest.mark.parametrize("argv, key, value, type_name", [
    ("lut inspect --query-e", "query_e", "x", "int"),
])
def test_typed_subcommand_flags_go_through_the_config_converter(
    tmp_path, capsys, argv, key, value, type_name
):
    assert main(argv.split() + [value]) == 1
    want = f"bad value for {key!r}: {value!r} (expected {type_name})"
    assert capsys.readouterr() == ("", f"error: command line: {want}\n")


def test_daylight_csv_length_sets_run_length(tmp_path, capsys):
    day = tmp_path / "day.csv"
    day.write_text("k,e\n" + "".join(f"{k},{30 + k}\n" for k in range(10)))
    out = tmp_path / "out"
    code = main(["simulate", "--steps", "5000", "--daylight", f"csv:{day}",
                 "--out-dir", str(out)])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 10  # the file, not --steps, decides
    assert [int(r.split(",")[2]) for r in rows] == [30 + k for k in range(10)]


def test_no_bias_flag_accepted(tmp_path):
    code, out = run_simulate(tmp_path, "--no-bias")
    assert code == 0
    assert (out / "trajectory.csv").is_file()


def test_error_scaling_flag(tmp_path):
    code, _ = run_simulate(tmp_path, "--error-scaling", "shared255")
    assert code == 0
    assert main(["simulate", "--error-scaling", "percent"]) == 1


def test_every_config_field_has_a_simulate_flag(tmp_path):
    day = tmp_path / "day.csv"
    day.write_text("k,e\n0,30\n")
    ns = build_parser().parse_args([
        "simulate", "--steps", "7", "--e-desired", "90",
        "--gamma-controller", "0.2", "--gamma-inverse", "0.3",
        "--seed-controller", "3", "--seed-inverse", "4", "--seed-daylight", "5",
        "--lut", "synthetic:e_max=200", "--daylight", f"csv:{day}",
        "--warmup", "10", "--error-scaling", "shared255",
        "--inverse-target-lag", "1", "--plant-delay", "0", "--no-bias",
        "--out-dir", str(tmp_path / "o"),
    ])
    cfg = parse_config(ns)
    assert [key for key, _, default, _ in FIELDS if getattr(cfg, key) == default] == []
    assert len(FIELDS) == 15


def test_omitted_flags_keep_every_config_file_value(tmp_path):
    want = SimConfig(
        steps=7, e_desired=90, gamma_controller=0.2, gamma_inverse=0.3,
        seed_controller=3, seed_inverse=4, seed_daylight=5,
        lut_source="synthetic:e_max=200", daylight_source="constant:9", warmup=10,
        error_scaling="shared255", inverse_target_lag=1, plant_delay=0, use_bias=False,
        out_dir=str(tmp_path / "o"),
    )
    assert [key for key, _, default, _ in FIELDS if getattr(want, key) == default] == []
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("".join(f"{key} = {getattr(want, key)}\n" for key, *_ in FIELDS))
    assert parse_config(build_parser().parse_args(["simulate", "--config", str(cfg_file)])) == want


def test_simulate_flags_come_from_the_config_fields():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices["simulate"]._actions
    for key, type_name, default, help_text in FIELDS:
        (action,) = [a for a in actions if a.dest == key]
        assert action.default is None  # an omitted flag leaves the config-file value
        assert action.help.startswith(help_text), action.help
        if key == "use_bias":
            assert action.option_strings == ["--no-bias"] and action.const == "false"
            continue
        suffix = f" (default {default})"
        assert action.help.endswith(suffix), action.help
        if key not in ("error_scaling", "inverse_target_lag", "plant_delay"):
            continue
        # The values the help lists are exactly the ones validate accepts.
        listed = action.help.split(": ")[-1].removesuffix(suffix).split(" or ")
        for value in listed:
            cfg = SimConfig()
            apply_settings(cfg, {key: value}, "test")
            cfg.validate()
        cfg = SimConfig()
        apply_settings(cfg, {key: "9" if type_name == "int" else "x"}, "test")
        with pytest.raises(ConfigError, match=rf"^{key} must be {' or '.join(listed)}, got "):
            cfg.validate()


def test_the_lut_commands_take_simulates_lut_flag():
    def commands(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    top = commands(build_parser())
    (want,) = [a for a in top["simulate"]._actions if a.dest == "lut_source"]
    for name, sub in commands(top["lut"]).items():
        (flag,) = [a for a in sub._actions if a.option_strings == ["--lut"]]
        assert (flag.help, flag.metavar, flag.default) == (want.help, want.metavar, "synthetic"), name
    assert want.help.endswith(" (default synthetic)")


@pytest.mark.parametrize("argv", [
    "lut inspect --lut csv:{lut}", "simulate --lut csv:{lut} --out-dir {out}",
])
def test_decreasing_lut_csv_exits_1_naming_the_line(tmp_path, capsys, argv):
    lut = tmp_path / "dec.csv"
    lut.write_text("u,e\n0,0\n100,90\n200,80\n255,180\n")
    assert main([a.format(lut=lut, out=tmp_path / "o") for a in argv.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {lut}: decreasing e (80 after 90) at line 4\n")


@pytest.mark.parametrize("header, argv", [
    ("k,e", "simulate --daylight csv:{big} --out-dir {out}"),
    ("u,e", "simulate --lut csv:{big} --out-dir {out}"),
    ("u,e", "lut inspect --lut csv:{big}"),
])
def test_oversized_csv_field_exits_1_with_one_error_line(tmp_path, capsys, header, argv):
    big = tmp_path / "big.csv"
    big.write_text(f"{header}\n0," + "1" * 200_000 + "\n")  # over csv.field_size_limit()
    assert main([a.format(big=big, out=tmp_path / "o") for a in argv.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {big}: ") and err.endswith(" at line 2\n")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("spec, message", [
    ("synthetic:e_max=50", "lut: synthetic: e_max must be in [120, 255], got 50"),
    ("synthetic:shape=-1", "lut: synthetic: shape must be finite and > 0, got -1.0"),
    ("synthetic:shape=nan", "lut: synthetic: shape must be finite and > 0, got nan"),
    ("synthetic:shape=inf", "lut: synthetic: shape must be finite and > 0, got inf"),
    ("synthetic:knots=4", "lut: synthetic: knots must be in [8, 256], got 4"),
    ("synthetic:knots=x", "lut: synthetic: bad value for 'knots': 'x' (expected int)"),
    ("csv:", "lut: csv source needs a path, e.g. csv:lut.csv"),
])
def test_every_command_reports_a_bad_lut_spec_alike(tmp_path, monkeypatch, capsys, spec, message):
    # The message names the spec key, never synth_default_lut's keyword for it.
    assert "gamma_shape" not in message and "knot_count" not in message
    monkeypatch.chdir(tmp_path)
    for argv in ("simulate --steps 5 --out-dir o", "lut generate --out t.csv", "lut inspect"):
        assert main(argv.split() + ["--lut", spec]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, spec, message", [
    ("--daylight", "constant:300", "daylight: constant: level must be in [0, 255], got 300"),
    ("--daylight", "fast:amplitude=0", "daylight: fast: amplitude must be in [1, 255], got 0"),
    ("--daylight", "step:0,100,-3", "daylight: step: k_switch must be >= 0, got -3"),
    ("--daylight", "ramp:0,999", "daylight: ramp: level1 must be in [0, 255], got 999"),
    ("--lut", "synthetic:e_max=50", "lut: synthetic: e_max must be in [120, 255], got 50"),
    ("--daylight", "csv:{day}", "{day}: daylight sample at k=1 must be in [0, 255], got 256"),
])
def test_spec_range_errors_name_their_source(tmp_path, capsys, flag, spec, message):
    day = tmp_path / "day.csv"
    day.write_text("# a comment shifts the lines, not k\nk,e\n0,30\n1,256\n")
    spec, message = spec.format(day=day), message.format(day=day)
    out = tmp_path / "o"
    assert main(["simulate", "--steps", "5", flag, spec, "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
    assert main(["simulate", "--steps", "5", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    earlier = contents(out)
    assert main(["simulate", "--steps", "5", flag, spec, "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert contents(out) == earlier


@pytest.mark.parametrize("argv, message", [
    ("simulate --steps 5 --steps 7 --daylight constant:30 --out-dir {out}",
     "argument --steps: given twice"),
    ("lut generate --lut synthetic:knots=8 --out {out} --lut synthetic:knots=16",
     "argument --lut: given twice"),
    ("lut generate --out {out} --lut synthetic --out {out}", "argument --out: given twice"),
    ("simulate --steps 5 --daylight fast:base=10,base=90 --out-dir {out}",
     "daylight: fast: 'base' set twice"),
])
def test_a_repeated_flag_or_spec_key_exits_1_naming_it(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main([a.format(out=out) for a in argv.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    ("simulate --config= --steps 3 --daylight constant:30 --out-dir {out}", "--config"),
    ("lut generate --out=", "--out"),
])
def test_an_empty_path_argument_exits_1_naming_it(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    assert main([a.format(out=tmp_path / "o") for a in argv.split()]) == 1
    assert capsys.readouterr() == ("", f"error: argument {name}: must not be empty\n")
    assert list(tmp_path.iterdir()) == []


# A bad value for every field that takes one on the command line, as typed
# after its flag and as a config-file key.  out_dir's one bad string is the
# empty one; the only other is the path of an existing file, which has a test
# of its own below.
BAD_VALUES = [(key, "x") for key, type_name, _, _ in FIELDS if type_name in ("int", "float")] + [
    ("out_dir", ""),
    ("error_scaling", "percent"),
    ("lut_source", "poly:2"),
    ("daylight_source", "sinus:1"),
]
FLAGS = {"lut_source": "--lut", "daylight_source": "--daylight"}


@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_flags_and_config_keys_reject_a_value_alike(tmp_path, capsys, key, value):
    flag = FLAGS.get(key, "--" + key.replace("_", "-"))
    assert main(["simulate", flag, value]) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    from_file = capsys.readouterr().err
    for err in (from_flag, from_file):
        assert err.startswith("error: ") and err.count("\n") == 1
    assert from_flag.replace("command line: ", "") == from_file.replace(f"{cfg}: ", "")
    assert key.removesuffix("_source") in from_flag


def test_an_out_dir_naming_a_file_exits_1_before_the_run(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: pytest.fail("the run started"))
    assert main(["simulate", "--steps", "5", "--out-dir", str(taken)]) == 1
    assert capsys.readouterr() == ("", f"error: out_dir is not a directory: {taken}\n")
    assert taken.read_text() == "kept\n"


def test_an_out_dir_below_a_file_exits_1_before_the_run(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: pytest.fail("the run started"))
    for below in (taken / "sub", taken / "a" / "b"):
        assert main(["simulate", "--steps", "5", "--out-dir", str(below)]) == 1
        assert capsys.readouterr() == ("", f"error: out_dir is not a directory: {taken}\n")
    assert taken.read_text() == "kept\n"


def test_an_out_dir_holding_a_nul_exits_1_before_the_run(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 30\nout_dir = a\0b\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: pytest.fail("the run started"))
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == (
        "", "error: out_dir must not contain a NUL character, got 'a\\x00b'\n"
    )
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_an_out_dir_too_long_to_look_up_exits_1_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: pytest.fail("the run started"))
    too_long = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
    assert main(["simulate", "--steps", "30", "--out-dir", too_long]) == 1
    assert capsys.readouterr() == ("", f"error: out_dir: File name too long: {too_long!r}\n")
    assert os.listdir(tmp_path) == []


def test_an_out_dir_name_too_long_below_a_missing_dir_exits_1_before_the_run(
    tmp_path, monkeypatch, capsys
):
    # stat of x/<long>/b fails on the missing x first, so the walk alone
    # cannot see the long name; the names to be made are checked against
    # the existing ancestor's limit
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: pytest.fail("the run started"))
    out_dir = f"x/{'a' * (os.pathconf(tmp_path, 'PC_NAME_MAX') + 1)}/b"
    assert main(["simulate", "--steps", "30", "--out-dir", out_dir]) == 1
    assert capsys.readouterr() == ("", f"error: out_dir: File name too long: {out_dir!r}\n")
    assert not os.path.exists("x")


@pytest.mark.parametrize("argv", [["lut", "inspect", "--lut"], ["simulate", "--daylight"]])
def test_a_csv_path_too_long_to_look_up_names_the_reason(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: pytest.fail("the run started"))
    too_long = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
    assert main([*argv, f"csv:{too_long}"]) == 1
    key = "lut" if argv[0] == "lut" else "daylight"
    assert capsys.readouterr() == ("", f"error: {key}: File name too long: {too_long!r}\n")
    assert os.listdir(tmp_path) == []


def test_a_csv_path_is_quoted_in_its_message(tmp_path, monkeypatch, capsys):
    # a NUL from a config file must not reach stderr as a raw byte
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lut_source = csv:a\0b\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", "error: lut: file not found: 'a\\x00b'\n")
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_steps_past_sys_maxsize_exit_1_before_the_run(capsys):
    argv = ["simulate", "--steps", "99999999999999999999999", "--daylight", "constant:30"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: steps must be <= {sys.maxsize}, got 99999999999999999999999\n"
    )


def test_a_run_too_large_for_memory_exits_1_with_one_error_line(capsys):
    # The constant trajectory's tuple repeat fails at once, before allocating.
    argv = ["simulate", "--steps", "1000000000000000", "--daylight", "constant:30"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_an_interrupt_exits_130_with_one_error_line(tmp_path, monkeypatch, capsys):
    out = tmp_path / "d"
    assert main(["simulate", "--steps", "50", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    earlier = contents(out)

    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "run_simulation", interrupted)
    try:
        code = main(["simulate", "--steps", "50", "--out-dir", str(out)])
    except KeyboardInterrupt:  # escaping, it would end the whole test session
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert contents(out) == earlier


def test_an_interrupt_in_the_loop_names_its_step(tmp_path, monkeypatch, capsys):
    real_step = daylux.loop.loop_step

    def step(state, *args):
        if state.k == 3:
            raise KeyboardInterrupt
        return real_step(state, *args)

    monkeypatch.setattr(daylux.loop, "loop_step", step)
    try:
        code = main(["simulate", "--steps", "50", "--out-dir", str(tmp_path / "d")])
    except KeyboardInterrupt:  # escaping, it would end the whole test session
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted at step k=3\n")
    assert not (tmp_path / "d").exists()


def test_an_interrupt_while_writing_leaves_no_artifact(tmp_path, monkeypatch, capsys):
    def interrupted(records, out_dir):
        raise KeyboardInterrupt

    # the trajectory and the panel CSVs are written before the SVGs
    monkeypatch.setattr(daylux.report, "write_panel_svgs", interrupted)
    out = tmp_path / "d"
    try:
        code = main(["simulate", "--steps", "50", "--out-dir", str(out)])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert not out.exists()  # no artifact, nor the directory the run made


def _main_in_a_child(*argv, file_size_limit):
    """Run main(argv) in a child process whose files cannot grow past the limit.

    Past it, write raises EFBIG (Python ignores SIGXFSZ), as a full disk
    raises ENOSPC.
    """
    script = "import sys; from daylux.cli import main; sys.exit(main())"
    env = {**os.environ, "PYTHONPATH": str(Path(daylux.__file__).parent.parent)}
    limit = (file_size_limit, file_size_limit)
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, limit),
    )


def test_a_write_that_fails_leaves_no_artifact(tmp_path):
    out = tmp_path / "d"
    out.mkdir()
    (out / "notes.txt").write_text("not an artifact\n")
    child = _main_in_a_child("simulate", "--out-dir", out, file_size_limit=60_000)
    assert child.returncode == 2
    assert child.stderr.decode().startswith(f"io error: [Errno {errno.EFBIG}] ")
    assert os.listdir(out) == ["notes.txt"]
    # no directory of out_dir is made, and an empty one that was there stays;
    # n1 is a directory of n1/../n2 too
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "kept" / "new" / "a" / "b", tmp_path / "kept" / "n1" / ".." / "n2"):
        child = _main_in_a_child("simulate", "--out-dir", out, file_size_limit=60_000)
        assert child.returncode == 2
        assert child.stderr.decode().startswith(f"io error: [Errno {errno.EFBIG}] ")
        assert sorted(os.listdir(tmp_path)) == ["d", "kept"]
        assert os.listdir(tmp_path / "kept") == []


def _failing_writes(monkeypatch, n, exc, modules=(daylux.report, daylux.svgplot)):
    """Make the n-th open, write or rename of an artifact write raise exc.

    The writers look open up in their module's globals, so open is replaced
    in `modules`: report and svgplot write a run's artifacts, and plant every
    table.  Returns the list of calls made, one entry each.
    """
    calls = []

    def tick(name):
        calls.append(name)
        if len(calls) == n:
            raise exc

    class File:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            tick("write")
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

    def failing_open(*args, **kwargs):
        tick("open")
        return File(open(*args, **kwargs))

    def failing_replace(src, dst, replace=os.replace):
        tick("rename")
        replace(src, dst)

    for module in modules:
        monkeypatch.setattr(module, "open", failing_open, raising=False)
    monkeypatch.setattr(daylux.report.os, "replace", failing_replace)
    return calls


def test_a_write_that_fails_at_any_call_leaves_no_artifact(tmp_path, monkeypatch, capsys):
    out = tmp_path / "new" / "d"
    argv = ["simulate", "--steps", "30", "--daylight", "constant:30", "--out-dir", str(out)]
    ran = cli_mod.run_simulation(parse_config(build_parser().parse_args(argv)))
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: ran)  # the writes are under test
    with monkeypatch.context() as patch:
        calls = _failing_writes(patch, 0, None)
        assert main(argv) == 0
    assert calls.count("rename") == len(ARTIFACT_NAMES) and calls[-1] == "rename"
    shutil.rmtree(tmp_path / "new")
    for exc, code in ((OSError(errno.ENOSPC, "No space left on device"), 2),
                      (KeyboardInterrupt(), 130)):
        for n, call in enumerate(calls, 1):
            with monkeypatch.context() as patch:
                _failing_writes(patch, n, exc)
                assert main(argv) == code, (n, call)
            # no artifact and no staging directory; out_dir and its parent
            # new/ are made only for a complete set, and a failed rename
            # removes them again
            assert os.listdir(tmp_path) == [], (n, exc)
    capsys.readouterr()


def test_a_failed_rename_leaves_a_made_directory_that_something_else_filled(
    tmp_path, monkeypatch,
):
    cfg = SimConfig(steps=30, daylight_source="constant:30")
    records, _ = run_simulation(cfg)
    out = tmp_path / "new" / "d"

    def fill_then_fail(src, dst):
        (tmp_path / "new" / "other.txt").write_text("not ours\n")
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(daylux.report.os, "replace", fill_then_fail)
    with pytest.raises(OSError):
        write_run_artifacts(records, cfg.warmup, out)
    # d/ was empty and goes; new/ holds another file and stays, with it
    assert os.listdir(tmp_path) == ["new"]
    assert os.listdir(tmp_path / "new") == ["other.txt"]


def test_a_new_set_removes_staging_directories_only(tmp_path):
    cfg = SimConfig(steps=30, daylight_source="constant:30")
    records, _ = run_simulation(cfg)
    out, elsewhere = tmp_path / "d", tmp_path / "elsewhere"
    (out / ".daylux-killed").mkdir(parents=True)
    (out / ".daylux-killed" / "trajectory.csv").write_text("k\n")
    (out / ".daylux-file").write_text("a file\n")
    elsewhere.mkdir()
    (elsewhere / "keep.txt").write_text("kept\n")
    (out / ".daylux-link").symlink_to(elsewhere, target_is_directory=True)
    (tmp_path / ".daylux-beside").mkdir()  # in out_dir's parent: not out_dir's, so it stays
    write_run_artifacts(records, cfg.warmup, out)
    assert sorted(os.listdir(out)) == sorted([*ARTIFACT_NAMES, ".daylux-file", ".daylux-link"])
    assert (out / ".daylux-link").is_symlink()
    assert os.listdir(elsewhere) == ["keep.txt"]
    assert sorted(os.listdir(tmp_path)) == [".daylux-beside", "d", "elsewhere"]


def test_a_write_that_fails_over_an_earlier_set_keeps_it_or_leaves_no_artifact(
    tmp_path, monkeypatch, capsys,
):
    out = tmp_path / "d"
    argv = ["simulate", "--steps", "30", "--daylight", "constant:30", "--out-dir", str(out)]
    cfg = parse_config(build_parser().parse_args(argv))
    ran = cli_mod.run_simulation(cfg)
    earlier_records, _ = run_simulation(SimConfig(steps=20, daylight_source="constant:30"))
    monkeypatch.setattr(cli_mod, "run_simulation", lambda cfg: ran)  # the writes are under test
    with monkeypatch.context() as patch:
        calls = _failing_writes(patch, 0, None)
        assert main(argv) == 0
    capsys.readouterr()
    for exc, code in ((OSError(errno.ENOSPC, "No space left on device"), 2),
                      (KeyboardInterrupt(), 130)):
        for n, call in enumerate(calls, 1):
            for via_cli in (True, False):  # daylux simulate, and the Python API alone
                shutil.rmtree(out)
                write_run_artifacts(earlier_records, cfg.warmup, out)
                (out / "notes.txt").write_text("not an artifact\n")
                earlier = contents(out)
                with monkeypatch.context() as patch:
                    _failing_writes(patch, n, exc)
                    if via_cli:
                        assert main(argv) == code, (n, call)
                    else:
                        with pytest.raises(type(exc)):
                            write_run_artifacts(ran[0], cfg.warmup, out)
                # before the renames the earlier set stays whole; a failed
                # rename leaves no artifact name, so no set mixes two runs
                after = contents(out)
                assert after == ({"notes.txt": earlier["notes.txt"]} if call == "rename"
                                 else earlier), (n, exc, via_cli)
    capsys.readouterr()


_CRASH_AT_RENAME = """
import os, sys
from daylux.config import SimConfig
from daylux.loop import run_simulation
from daylux.report import write_run_artifacts

nth, out = int(sys.argv[1]), sys.argv[2]
cfg = SimConfig(steps=30, daylight_source="constant:30")
records, _ = run_simulation(cfg)
renames, replace = [], os.replace

def crash_at_nth(src, dst):
    renames.append(dst)
    if len(renames) == nth:
        os._exit(137)  # as a SIGKILL would: no clean-up runs
    replace(src, dst)

os.replace = crash_at_nth
write_run_artifacts(records, cfg.warmup, out)
"""


@pytest.mark.parametrize("nth", [1, 3, len(ARTIFACT_NAMES)])
def test_a_process_killed_while_renaming_leaves_no_summary(tmp_path, nth):
    out, new = tmp_path / "d", tmp_path / "new"
    for steps, path in ((20, out), (30, new)):  # an earlier set, and the one the child writes
        cfg = SimConfig(steps=steps, daylight_source="constant:30")
        write_run_artifacts(run_simulation(cfg)[0], cfg.warmup, path)
    earlier, written = contents(out), contents(new)
    env = {**os.environ, "PYTHONPATH": str(Path(daylux.__file__).parent.parent)}
    child = subprocess.run([sys.executable, "-c", _CRASH_AT_RENAME, str(nth), str(out)],
                           capture_output=True, env=env, timeout=120)
    assert child.returncode == 137, child.stderr.decode()
    (staging,) = set(os.listdir(out)) - set(ARTIFACT_NAMES)
    assert staging.startswith(".daylux-")
    shutil.rmtree(out / staging)
    # summary.txt, renamed last, is gone: the set reads as unfinished; each
    # name before the cut holds the new run's bytes, each after it the earlier run's
    left = contents(out)
    assert sorted(left) == sorted(ARTIFACT_NAMES[:-1])
    for i, name in enumerate(ARTIFACT_NAMES[:-1], 1):
        assert earlier[name] != written[name]
        assert left[name] == (written if i < nth else earlier)[name], name


_CRASH_AT_WRITE = """
import os, sys
import daylux.report, daylux.svgplot
from daylux.cli import main

name, nth = sys.argv[1], int(sys.argv[2])

class File:
    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes == nth and os.path.basename(self.fh.name) == name:
            self.fh.flush()
            os._exit(137)  # as a SIGKILL would: no clean-up runs
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

daylux.report.open = daylux.svgplot.open = lambda *args, **kwargs: File(open(*args, **kwargs))
sys.exit(main(sys.argv[3:]))
"""


@pytest.mark.parametrize("name, nth", [
    ("trajectory.csv", 20), ("panel_command.svg", 3), ("summary.txt", 1),
])
def test_a_process_killed_while_writing_leaves_no_cut_artifact(tmp_path, capsys, name, nth):
    out = tmp_path / "d"
    assert main(["simulate", "--steps", "20", "--out-dir", str(out)]) == 0  # an earlier set
    capsys.readouterr()
    earlier = contents(out)
    env = {**os.environ, "PYTHONPATH": str(Path(daylux.__file__).parent.parent)}
    child = subprocess.run(
        [sys.executable, "-c", _CRASH_AT_WRITE, name, str(nth),
         "simulate", "--steps", "30", "--out-dir", str(out)],
        capture_output=True, env=env, timeout=120,
    )
    assert child.returncode == 137, child.stderr.decode()
    # the cut file stays in the staging directory, at no artifact name, and
    # the earlier set stays whole beside it
    (staging,) = set(os.listdir(out)) - set(earlier)
    assert staging.startswith(".daylux-") and name in os.listdir(out / staging)
    assert {k: v for k, v in contents(out).items() if k != staging} == earlier
    # the next run into out_dir removes the killed run's staging directory
    argv = ["simulate", "--steps", "30", "--out-dir"]
    assert main([*argv, str(out)]) == 0 and main([*argv, str(tmp_path / "whole")]) == 0
    capsys.readouterr()
    assert not [n for n in os.listdir(out) if n.startswith(".daylux-")]
    assert contents(out) == contents(tmp_path / "whole")


def test_a_lut_write_that_fails_leaves_no_table(tmp_path):
    # 1,024 bytes hold 164 whole knots of 256, which would load as a valid table
    out = tmp_path / "big.csv"
    out.write_text("u,e\n0,0\n255,255\n")  # an earlier table, replaced or gone
    argv = ("lut", "generate", "--lut", "synthetic:knots=256", "--out", out)
    child = _main_in_a_child(*argv, file_size_limit=1024)
    assert child.returncode == 2
    assert child.stderr.decode() == f"io error: [Errno {errno.EFBIG}] File too large\n"
    assert os.listdir(tmp_path) == []
    assert _main_in_a_child(*argv, file_size_limit=4096).returncode == 0
    assert len(load_lut_csv(out).knots) == 256


def test_a_table_write_that_fails_in_the_python_api_leaves_no_table(tmp_path, monkeypatch):
    # save_lut_csv and save_daylight_csv write through the writer behind lut generate --out
    path, other = tmp_path / "t.csv", tmp_path / "other.csv"
    for save, table in ((save_lut_csv, synth_default_lut()),
                        (save_daylight_csv, gen_daylight("fast", 40, seed=0))):
        with monkeypatch.context() as patch:
            calls = _failing_writes(patch, 0, None, modules=(daylux.plant,))
            save(table, path)
        assert calls == ["open"] + ["write"] * len(path.read_text().splitlines())
        for exc in (OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()):
            for n in range(2, len(calls) + 1):  # each write: the header, then each row
                for linked in (False, True):
                    path.write_text("u,e\n0,0\n255,255\n")  # an earlier table
                    if linked:
                        os.link(path, other)
                    with monkeypatch.context() as patch, pytest.raises(type(exc)):
                        _failing_writes(patch, n, exc, modules=(daylux.plant,))
                        save(table, path)
                    assert os.listdir(tmp_path) == (["other.csv"] if linked else []), (n, exc)
                    if linked:  # no cut table under any name
                        assert other.read_text() == "", (n, exc)
                        other.unlink()


def test_a_lut_out_path_that_is_no_regular_file_is_written_in_place(tmp_path, capsys):
    assert main(["lut", "generate", "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    table = tmp_path / "t.csv"
    table.write_text("u,e\n0,0\n255,255\n")
    link, other = tmp_path / "link.csv", tmp_path / "other.csv"
    link.symlink_to(table)
    os.link(table, other)
    assert main(["lut", "generate", "--out", str(link)]) == 0
    assert link.is_symlink() and os.path.samefile(table, other)
    assert len(load_lut_csv(other).knots) == 32
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()))
    reader.start()
    assert main(["lut", "generate", "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert read == [table.read_text()] and stat.S_ISFIFO(os.lstat(fifo).st_mode)
    capsys.readouterr()
    # a write that fails through a link leaves the link and no cut table under any name
    argv = ("lut", "generate", "--lut", "synthetic:knots=256", "--out", link)
    child = _main_in_a_child(*argv, file_size_limit=1024)
    assert child.returncode == 2
    assert link.is_symlink() and table.read_text() == other.read_text() == ""


def test_a_lut_out_path_that_is_a_directory_exits_2_and_stays(tmp_path, capsys):
    out = tmp_path / "d"
    (out / "inner").mkdir(parents=True)
    assert main(["lut", "generate", "--out", str(out)]) == 2
    message = f"io error: [Errno {errno.EISDIR}] Is a directory: {str(out)!r}\n"
    assert capsys.readouterr() == ("", message)
    assert os.listdir(out) == ["inner"]


PANELS = ("command", "error", "illuminance")
ARTIFACTS = sorted(f"panel_{p}.{ext}" for p in PANELS for ext in ("csv", "svg"))
ARTIFACTS += ["summary.txt", "trajectory.csv"]


def test_a_failed_run_keeps_an_earlier_set_whole(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["simulate", "--steps", "50", "--out-dir", str(out)]) == 0
    assert sorted(os.listdir(out)) == ARTIFACTS
    (out / "notes.txt").write_text("not an artifact\n")
    earlier = contents(out)
    assert main(["simulate", "--steps", "200", "--gamma-controller", "50", "--out-dir", str(out)]) == 1
    assert "diverged at step k=69" in capsys.readouterr().err
    assert contents(out) == earlier


@pytest.mark.parametrize("name", [ARTIFACT_NAMES[0], ARTIFACT_NAMES[-1]])
def test_a_directory_at_an_artifact_name_exits_2_and_stays(tmp_path, capsys, name):
    out = tmp_path / "d"
    assert main(["simulate", "--steps", "20", "--out-dir", str(out)]) == 0
    (out / "notes.txt").write_text("not an artifact\n")
    (out / name).unlink()
    (out / name / "inner").mkdir(parents=True)
    earlier = contents(out)
    capsys.readouterr()
    assert main(["simulate", "--steps", "30", "--out-dir", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("io error: ") and stderr.endswith(f"'{out / name}'\n")
    assert os.listdir(out / name) == ["inner"]
    if name == "summary.txt":  # its removal, before the first rename, fails: nothing changes
        assert contents(out) == earlier
    else:  # its rename fails: every other artifact name goes
        assert sorted(os.listdir(out)) == ["notes.txt", name]


def test_a_dangling_link_at_an_artifact_name_is_replaced_by_the_file(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    (out / "summary.txt").symlink_to(Path("..") / "outside_summary.txt")
    assert main(["simulate", "--steps", "30", "--out-dir", str(out)]) == 0
    assert not (out / "summary.txt").is_symlink()
    assert (out / "summary.txt").is_file()
    assert not (tmp_path / "outside_summary.txt").exists()
    assert sorted(os.listdir(out)) == ARTIFACTS


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    "lut inspect",
    "simulate --steps 5 --daylight constant:30 --out-dir {out}",
], ids=["lut-inspect", "simulate"])
def test_a_closed_stdout_exits_0_with_nothing_on_stderr(tmp_path, argv, unbuffered):
    # As in `daylux lut inspect | head -1`, the reader is gone before the
    # output arrives: at a print when stdout is unbuffered, at the final
    # flush when it is buffered.
    out = tmp_path / "o"
    script = "import sys; from daylux.cli import main; sys.exit(main())"
    env = {**os.environ, "PYTHONPATH": str(Path(daylux.__file__).parent.parent),
           "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen(
        [sys.executable, "-c", script, *argv.format(out=out).split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
    assert err == b""
    if argv.startswith("simulate"):
        assert sorted(os.listdir(out)) == ARTIFACTS


@pytest.mark.parametrize("name, argv", [
    ("run.cfg", "simulate --config {bad}"),
    ("day.csv", "simulate --daylight csv:{bad} --out-dir {out}"),
    ("lut.csv", "simulate --lut csv:{bad} --out-dir {out}"),
    ("lut.csv", "lut inspect --lut csv:{bad}"),
])
def test_non_utf8_input_exits_1_with_one_error_line(tmp_path, capsys, name, argv):
    bad = tmp_path / name
    head = {"run.cfg": "steps = 5", "day.csv": "k,e", "lut.csv": "u,e"}[name]
    bad.write_bytes(head.encode() + b"\n# \xff\n")
    assert main([a.format(bad=bad, out=tmp_path / "o") for a in argv.split()]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: invalid UTF-8 byte 0xff at line 2\n"
