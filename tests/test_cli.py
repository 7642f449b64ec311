"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import daylux
import daylux.cli as cli_mod
from daylux.cli import build_parser, main, parse_config
from daylux.config import FIELDS, ConfigError, SimConfig, apply_settings
from daylux.plant import load_lut_csv
from daylux.report import TRAJECTORY_HEADER


def run_simulate(tmp_path, *extra, steps=40):
    out = tmp_path / "out"
    code = main(["simulate", "--steps", str(steps), "--daylight", "constant:30",
                 "--out-dir", str(out), *extra])
    return code, out


def test_simulate_writes_artifacts(tmp_path, capsys):
    code, out = run_simulate(tmp_path)
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out}/trajectory.csv (40 rows)" in stdout
    assert "steps: 40 total" in stdout
    assert stdout.encode().endswith((out / "summary.txt").read_bytes())
    for name in (
        "trajectory.csv", "summary.txt",
        "panel_illuminance.csv", "panel_error.csv", "panel_command.csv",
        "panel_illuminance.svg", "panel_error.svg", "panel_command.svg",
    ):
        assert (out / name).is_file()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 41


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


def test_missing_table_on_inspect_exits_2(tmp_path, capsys):
    assert main(["lut", "inspect", str(tmp_path / "absent.csv")]) == 2
    assert "io error" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with_code = main(["--help"])
    assert "{simulate,lut}" in capsys.readouterr().out  # the only two commands
    assert with_code == 0


def test_gradcheck_is_not_a_command(capsys):
    assert main(["gradcheck"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument command: invalid choice: 'gradcheck' ")
    assert err.count("\n") == 1


def test_lut_generate_then_inspect(tmp_path, capsys):
    out = tmp_path / "tbl.csv"
    assert main(["lut", "generate", "--out", str(out), "--knots", "16"]) == 0
    assert f"wrote {out} (16 knots)" in capsys.readouterr().out
    assert len(load_lut_csv(out).knots) == 16

    assert main(["lut", "inspect", str(out), "--query-e", "100"]) == 0
    text = capsys.readouterr().out
    assert "monotone: yes" in text
    assert re.search(r"u\*\(100\) = \d+  \(lut_eval -> \d+\)", text)


def test_lut_inspect_synthetic_default(capsys):
    assert main(["lut", "inspect", "--query-e", "100"]) == 0
    text = capsys.readouterr().out
    assert "synthetic defaults" in text
    assert "u*(100) = 162" in text  # brute-force inverse of the default table


def test_lut_generate_rejects_bad_params(tmp_path, capsys):
    assert main(["lut", "generate", "--out", str(tmp_path / "t.csv"), "--e-max", "10"]) == 1


def test_lut_inspect_rejects_an_out_of_range_query_before_printing(capsys):
    assert main(["lut", "inspect", "--query-e", "300"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: query_e must be in [0, 255], got 300\n"


@pytest.mark.parametrize("argv, key, value, type_name", [
    ("lut generate --out {out} --e-max", "e_max", "1.5", "int"),
    ("lut generate --out {out} --shape", "shape", "steep", "float"),
    ("lut generate --out {out} --knots", "knots", "x", "int"),
    ("lut inspect --query-e", "query_e", "x", "int"),
])
def test_typed_subcommand_flags_go_through_the_config_converter(
    tmp_path, capsys, argv, key, value, type_name
):
    out = tmp_path / "t.csv"
    assert main([a.format(out=out) for a in argv.split()] + [value]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    want = f"bad value for {key!r}: {value!r} (expected {type_name})"
    assert err == f"error: command line: {want}\n"
    if argv.startswith("lut generate"):  # the same key typed in a LUT spec
        assert main(["simulate", "--lut", f"synthetic:{key}={value}"]) == 1
        assert capsys.readouterr().err == f"error: lut: synthetic: {want}\n"


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


@pytest.mark.parametrize("argv", ["lut inspect {lut}", "simulate --lut csv:{lut} --out-dir {out}"])
def test_decreasing_lut_csv_exits_1_naming_the_line(tmp_path, capsys, argv):
    lut = tmp_path / "dec.csv"
    lut.write_text("u,e\n0,0\n100,90\n200,80\n255,180\n")
    assert main([a.format(lut=lut, out=tmp_path / "o") for a in argv.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {lut}: decreasing e (80 after 90) at line 4\n")


@pytest.mark.parametrize("header, argv", [
    ("k,e", "simulate --daylight csv:{big} --out-dir {out}"),
    ("u,e", "simulate --lut csv:{big} --out-dir {out}"),
    ("u,e", "lut inspect {big}"),
])
def test_oversized_csv_field_exits_1_with_one_error_line(tmp_path, capsys, header, argv):
    big = tmp_path / "big.csv"
    big.write_text(f"{header}\n0," + "1" * 200_000 + "\n")  # over csv.field_size_limit()
    assert main([a.format(big=big, out=tmp_path / "o") for a in argv.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {big}: ") and err.endswith(" at line 2\n")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("key, value, internal", [
    ("shape", "-1", "gamma_shape"),
    ("shape", "nan", "gamma_shape"),
    ("shape", "inf", "gamma_shape"),
    ("knots", "4", "knot_count"),
])
def test_lut_parameter_errors_name_the_typed_key(tmp_path, capsys, key, value, internal):
    assert main(["lut", "generate", "--out", str(tmp_path / "t.csv"), f"--{key}", value]) == 1
    assert main(["simulate", "--steps", "5", "--lut", f"synthetic:{key}={value}",
                 "--out-dir", str(tmp_path / "o")]) == 1
    generate_err, simulate_err = capsys.readouterr().err.splitlines()
    assert generate_err.startswith(f"error: {key} must be")
    assert simulate_err.startswith(f"error: lut: synthetic: {key} must be")
    assert internal not in generate_err + simulate_err


@pytest.mark.parametrize("flag, spec, message", [
    ("--daylight", "constant:300", "daylight: constant: level must be in [0, 255], got 300"),
    ("--daylight", "fast:amplitude=0", "daylight: fast: amplitude must be in [1, 255], got 0"),
    ("--daylight", "step:0,100,-3", "daylight: step: k_switch must be >= 0, got -3"),
    ("--daylight", "ramp:0,999", "daylight: ramp: level1 must be in [0, 255], got 999"),
    ("--lut", "synthetic:e_max=50", "lut: synthetic: e_max must be in [120, 255], got 50"),
])
def test_spec_range_errors_name_their_source(tmp_path, capsys, flag, spec, message):
    out = tmp_path / "o"
    assert main(["simulate", "--steps", "5", flag, spec, "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ("simulate --steps 5 --steps 7 --daylight constant:30 --out-dir {out}",
     "argument --steps: given twice"),
    ("lut generate --knots 8 --out {out} --knots 16", "argument --knots: given twice"),
    ("lut generate --out {out} --knots 8 --out {out}", "argument --out: given twice"),
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
    ("lut inspect", "path"),
])
def test_an_empty_path_argument_exits_1_naming_it(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    args = [a.format(out=tmp_path / "o") for a in argv.split()]
    assert main(args + [""] if name == "path" else args) == 1
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


PANELS = ("command", "error", "illuminance")
ARTIFACTS = sorted(f"panel_{p}.{ext}" for p in PANELS for ext in ("csv", "svg"))
ARTIFACTS += ["summary.txt", "trajectory.csv"]


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
    ("lut.csv", "lut inspect {bad}"),
])
def test_non_utf8_input_exits_1_with_one_error_line(tmp_path, capsys, name, argv):
    bad = tmp_path / name
    head = {"run.cfg": "steps = 5", "day.csv": "k,e", "lut.csv": "u,e"}[name]
    bad.write_bytes(head.encode() + b"\n# \xff\n")
    assert main([a.format(bad=bad, out=tmp_path / "o") for a in argv.split()]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: invalid UTF-8 byte 0xff at line 2\n"
