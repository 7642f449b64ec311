"""Run artifacts: trajectory CSV, per-panel plot data, and the summary file.

Every writer here is a pure function of the record stream, with pinned
numeric formatting (integers bare, reals at 9 significant digits), so a
repeated run reproduces each artifact byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from operator import attrgetter

from .config import nearest_existing
from .loop import StepRecord
from .metrics import NARROW_BAND, PERCEPTION_BAND, WIDE_BAND, band_report
from .svgplot import polyline_chart

TRAJECTORY_HEADER = (
    "k,E_desired,E_daylight,E_electric,E_measured,eps,deps,U,U_IM,"
    "loss_inverse,loss_controller"
)

# Each trajectory column's StepRecord field; tests tie the two orders together.
_FIELD_OF = dict(zip(TRAJECTORY_HEADER.split(","), StepRecord.__slots__))

# One row per panel: file stem, chart title, y label, the CSV columns after k
# (in trajectory order) and the charted series (in chart order).
PANELS = (
    ("illuminance", "Illuminance (8-bit units)", "lx_d8bv",
     ("E_desired", "E_daylight", "E_electric", "E_measured"),
     ("E_desired", "E_measured", "E_electric", "E_daylight")),
    ("error", "Control error", "lx_d8bv", ("eps", "deps"), ("eps",)),
    ("command", "Command", "V_d8bv", ("U", "U_IM"), ("U", "U_IM")),
)

# Every file write_run_artifacts writes into out_dir, in `daylux simulate`'s print order.
ARTIFACT_NAMES = (
    "trajectory.csv",
    *(f"panel_{stem}.{ext}" for ext in ("csv", "svg") for stem, *_ in PANELS),
    "summary.txt",
)

# Each panel CSV's row getter: k, then the panel's columns.  Built once: a
# getter built per call raised the sweep benchmark's peak RSS by about 0.2 MB.
_CSV_CELLS = {
    stem: attrgetter(*(_FIELD_OF[c] for c in ("k", *columns))) for stem, _, _, columns, _ in PANELS
}

# The band_report fields of summary.txt's key=value block, in file order.
SUMMARY_KEYS = (
    "warmup_steps", "n_steady", "eps_min", "eps_max", "frac_in_wide", "frac_in_narrow",
    "frac_meas_in_perception", "rms_eps", "valid",
)


def format_real(x: float) -> str:
    s = f"{x:.9g}"
    return "0" if s == "-0" else s


def write_trajectory_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.k},{r.e_desired},{r.e_daylight},{r.e_electric},{r.e_measured},"
                f"{r.eps},{r.deps},{r.u},{r.u_im},"
                f"{format_real(r.loss_inverse)},{format_real(r.loss_controller)}\n"
            )


def write_panel_csvs(records, out_dir) -> None:
    """One plot-data file per panel: k and the panel's trajectory columns."""
    for stem, _, _, columns, _ in PANELS:
        p = os.path.join(out_dir, f"panel_{stem}.csv")
        line = ",".join(["%s"] * (len(columns) + 1)) + "\n"
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(("k", *columns)) + "\n")
            for row in map(_CSV_CELLS[stem], records):
                fh.write(line % row)


def write_panel_svgs(records, out_dir) -> None:
    for stem, title, y_label, _, series in PANELS:
        charted = [(name, list(map(attrgetter(_FIELD_OF[name]), records))) for name in series]
        polyline_chart(os.path.join(out_dir, f"panel_{stem}.svg"), title, charted, y_label)


def summary_text(report) -> str:
    """Human-readable digest followed by the machine-readable block."""
    shell = report.frac_in_shell
    lines = [
        f"steps: {report.n_steps} total, {report.n_steady} steady (warmup {report.warmup_steps})",
    ]
    if report.valid:
        lines += [
            f"eps range: [{report.eps_min}, {report.eps_max}]",
            f"eps in wide band [{WIDE_BAND[0]}, {WIDE_BAND[1]}]: "
            f"{100.0 * report.frac_in_wide:.1f}%",
            f"eps in narrow band [{NARROW_BAND[0]}, {NARROW_BAND[1]}]: "
            f"{100.0 * report.frac_in_narrow:.1f}%",
            f"eps in wide-band shell (outside narrow): {100.0 * shell:.1f}%",
            f"E_measured in perception band [{PERCEPTION_BAND[0]}, {PERCEPTION_BAND[1]}]: "
            f"{100.0 * report.frac_meas_in_perception:.1f}%",
            f"rms eps: {format_real(report.rms_eps)}",
        ]
    else:
        lines.append("no steady-state steps after warmup; band statistics not meaningful")
    lines.append("")
    for key in SUMMARY_KEYS:
        value = getattr(report, key)  # ints bare, reals via format_real, valid as 1 or 0
        lines.append(f"{key}={format_real(value) if isinstance(value, float) else int(value)}")
    lines.append(f"extreme_shell_frac={format_real(shell)}")
    return "\n".join(lines) + "\n"


def write_run_artifacts(records, warmup_steps: int, out_dir):
    """Write every artifact of a run (ARTIFACT_NAMES) to out_dir; returns report and summary.

    Only a whole set makes out_dir and is renamed into place from a staging
    directory, so not even a killed process leaves a cut file at an artifact
    name, and a failure before the renames leaves out_dir as it was.  An
    earlier set loses its summary.txt before the first rename and the new one
    is renamed last, so a set without summary.txt is unfinished.  A killed
    run's staging directory in an existing out_dir goes first, and a failed
    rename also removes each directory makedirs made that is still empty.
    """
    report = band_report(records, warmup_steps)  # first, so a bad warmup writes no file
    parent, _, missing = nearest_existing(out_dir)  # staged there, renames stay on one file system
    if not missing:  # leftovers a killed run staged here; one that cannot go stays
        with contextlib.suppress(OSError), os.scandir(out_dir) as entries:
            for entry in entries:
                if entry.name.startswith(".daylux-") and entry.is_dir(follow_symlinks=False):
                    shutil.rmtree(entry.path, ignore_errors=True)
    with tempfile.TemporaryDirectory(prefix=".daylux-", dir=parent or os.curdir) as staging:
        write_trajectory_csv(records, os.path.join(staging, "trajectory.csv"))
        write_panel_csvs(records, staging)
        write_panel_svgs(records, staging)
        text = summary_text(report)
        with open(os.path.join(staging, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        paths = [os.path.join(out_dir, name) for name in ARTIFACT_NAMES]
        with contextlib.suppress(FileNotFoundError):  # a file or a link goes; a directory raises
            os.remove(paths[-1])
        try:
            os.makedirs(out_dir, exist_ok=True)
            for name, path in zip(ARTIFACT_NAMES, paths):
                os.replace(os.path.join(staging, name), path)
        except BaseException:  # a mixed set is worse than none: every artifact name goes
            for path in paths:
                with contextlib.suppress(OSError):  # absent, or a directory, which stays
                    os.remove(path)
            path = out_dir
            for _ in missing:  # each directory makedirs made, innermost first
                with contextlib.suppress(OSError):  # one that something else filled stays
                    os.rmdir(path)
                path = os.path.dirname(path)
            raise
    return report, text
