"""Tests for the artifact writers: CSV formats, summary text, SVG output."""

import hashlib

import pytest

from daylux.config import SimConfig
from daylux.loop import StepRecord, run_simulation
from daylux.metrics import band_report
from daylux.report import (
    TRAJECTORY_HEADER,
    format_real,
    summary_text,
    write_panel_csvs,
    write_panel_svgs,
    write_run_artifacts,
    write_trajectory_csv,
)


def sample_records(n=40):
    recs, _ = run_simulation(SimConfig(steps=n, daylight_source="constant:30"))
    return recs


def test_format_real():
    assert format_real(0.0) == "0"
    assert format_real(-0.0) == "0"  # no negative zero in artifacts
    assert format_real(0.1) == "0.1"
    assert format_real(1e-9) == "1e-09"
    assert format_real(7.689350249903828e-06) == "7.68935025e-06"


def test_trajectory_csv_layout(tmp_path):
    rec = StepRecord(
        k=0, e_desired=100, e_daylight=40, e_electric=0, e_measured=40,
        eps=60, deps=60, u=128, u_im=128,
        loss_inverse=7.689350249903828e-06, loss_controller=0.0,
    )
    path = tmp_path / "t.csv"
    write_trajectory_csv([rec], path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert lines[1] == "0,100,40,0,40,60,60,128,128,7.68935025e-06,0"


def test_step_record_fields_follow_the_trajectory_columns():
    # write_trajectory_csv names fields and loop_step fills them by position,
    # and the panel writers read each column's field by this pairing, so the
    # two orders must agree column for column
    columns = [c.lower() for c in TRAJECTORY_HEADER.split(",")]
    assert list(StepRecord.__slots__) == columns


def test_panel_csv_headers(tmp_path):
    paths = write_panel_csvs(sample_records(5), tmp_path)
    heads = {}
    for p in map(str, paths):
        with open(p) as fh:
            heads[p.rsplit("/", 1)[-1]] = fh.readline().strip()
    assert heads["panel_illuminance.csv"] == "k,E_desired,E_daylight,E_electric,E_measured"
    assert heads["panel_error.csv"] == "k,eps,deps"
    assert heads["panel_command.csv"] == "k,U,U_IM"


@pytest.mark.parametrize("overrides", [{}, {"plant_delay": 0}], ids=["default", "plant_delay0"])
def test_panel_csvs_are_the_trajectory_projected_onto_their_columns(overrides, tmp_path):
    recs, _ = run_simulation(SimConfig(**overrides))
    write_trajectory_csv(recs, tmp_path / "trajectory.csv")
    rows = [line.split(",") for line in (tmp_path / "trajectory.csv").read_text().splitlines()]
    paths = write_panel_csvs(recs, tmp_path)
    assert [str(p).rsplit("/", 1)[-1] for p in paths] == [
        "panel_illuminance.csv", "panel_error.csv", "panel_command.csv",
    ]
    for p in paths:
        with open(p, "rb") as fh:
            body = fh.read()
        header = body.split(b"\n", 1)[0].decode().split(",")
        assert header[0] == "k" and len(header) > 1
        idx = [rows[0].index(column) for column in header]
        want = "".join(",".join(row[i] for i in idx) + "\n" for row in rows)
        assert body == want.encode()


def test_summary_text_structure():
    recs = sample_records(300)
    rep = band_report(recs, 200)
    text = summary_text(recs, rep)
    assert text.startswith("steps: 300 total, 100 steady (warmup 200)")
    assert "eps in wide band [-11, 9]:" in text
    assert "eps in narrow band [-5, 5]:" in text
    assert "E_measured in perception band [93, 107]:" in text
    assert "frac_in_wide=" in text  # machine block rides below the prose
    assert "extreme_shell_frac=" in text


def test_write_run_artifacts_creates_everything(tmp_path):
    out = tmp_path / "nested" / "run"
    arts = write_run_artifacts(sample_records(20), 5, out)
    assert sorted(arts) == ["panels", "report", "summary", "summary_text", "svgs", "trajectory"]
    with open(arts["summary"], encoding="utf-8") as fh:
        assert fh.read() == arts["summary_text"]
    for p in [arts["trajectory"], arts["summary"], *arts["panels"], *arts["svgs"]]:
        assert str(p).startswith(str(out))
        with open(p, "rb") as fh:
            assert fh.read(1)  # exists and non-empty
    assert arts["report"].n_steady == 15


def test_artifacts_are_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_run_artifacts(sample_records(60), 10, a)
    write_run_artifacts(sample_records(60), 10, b)
    for name in (
        "trajectory.csv", "summary.txt",
        "panel_illuminance.csv", "panel_error.csv", "panel_command.csv",
        "panel_illuminance.svg", "panel_error.svg", "panel_command.svg",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_svg_files_are_wellformed_charts(tmp_path):
    arts = write_run_artifacts(sample_records(30), 0, tmp_path)
    for p in arts["svgs"]:
        with open(p) as fh:
            body = fh.read()
        assert body.startswith("<svg ") or body.startswith("<?xml")
        assert "<polyline" in body and body.rstrip().endswith("</svg>")


SVG_DIGESTS = [
    pytest.param(
        {},
        {
            "panel_illuminance.svg": "48b080d5d0acb0fa0d343889e9aab6d3c2676c06cc54e1c5d80e6b469a3975cb",
            "panel_error.svg": "601ba2e72e628fc46b96fa38a2b91ed2c536d565e6bcfca757ec4c105b71b0f3",
            "panel_command.svg": "dcf662e604210794ed8e7b22b54b3d59e16c7c2bc1f7c2ce5cea3baf2ab80aba",
        },
        id="default",
    ),
    pytest.param(  # one point per series: the x axis falls back to [0, 1]
        {"steps": 1},
        {
            "panel_illuminance.svg": "71dccc55cf711e55425d169c5c8edc235372fe4b65fa36a45b9fef5c46373d6a",
            "panel_error.svg": "4e30d04c82d2890090c59464593938ccacfd98fe6516b50f1859eb576bb5d823",
            "panel_command.svg": "b3306731f62e684724f741dab1cc39bbd3dcb0e46482fe31210438857f7681fd",
        },
        id="steps1",
    ),
]


@pytest.mark.parametrize("overrides,digests", SVG_DIGESTS)
def test_panel_svg_digests_are_frozen(overrides, digests, tmp_path):
    recs, _ = run_simulation(SimConfig(**overrides))
    paths = write_panel_svgs(recs, tmp_path)
    got = {}
    for p in map(str, paths):
        with open(p, "rb") as fh:
            got[p.rsplit("/", 1)[-1]] = hashlib.sha256(fh.read()).hexdigest()
    assert got == digests
