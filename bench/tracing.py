"""Spans and call counts around daylux's public functions, from outside the package.

The package is never edited for measurement.  Instead each public function is
replaced, for the length of a traced operation, in every daylux module that
holds it, so the wrapper sits exactly where its caller looks the name up
(`loop.py` does `from .tinynet import forward`, so the wrapper has to go into
`daylux.loop` as well as `daylux.tinynet`).

Timed functions record one span each: name, start, end, parent span and
operation id, kept in flat arrays in memory and written out at the end.  The tiny
per-step helpers in `signals` are only counted: timing each of their ~30
calls per step would dominate what is being measured.
"""

from __future__ import annotations

import sys
import time
from array import array

# Public functions that get a span, keyed by the module that defines them.
TIMED = {
    "tinynet": ("forward", "train_step", "backprop_gradients", "init_network"),
    "loop": (
        "run_simulation",
        "loop_step",
        "controller_action",
        "inverse_action",
        "train_inverse",
        "train_controller",
    ),
    "plant": ("lut_eval", "load_lut_csv", "load_daylight_csv", "gen_daylight"),
    "config": ("build_lut", "build_daylight"),
    "cli": ("main", "parse_config"),
    "report": (
        "write_run_artifacts",
        "write_trajectory_csv",
        "write_panel_csvs",
        "write_panel_svgs",
        "summary_text",
    ),
    "svgplot": ("polyline_chart",),
    "metrics": ("band_report", "extreme_rarity"),
}
# Hot helpers called dozens of times per step: counted, not timed.
COUNTED = {"signals": ("check_d8bv", "scale_to_unit", "unit_to_d8bv", "clamp8_sum")}
# Methods looked up on their class: (module, class, method).
TIMED_METHODS = (("config", "SimConfig", "validate"),)


def _rows(args, result):
    return len(args[0])


def _points(args, result):
    return sum(len(values) for _, values in args[2])


def _steps(args, result):
    return len(result[0])


# Units of work per call, for the per-row / per-point / per-step metrics.
SIZERS = {
    "report.write_trajectory_csv": _rows,
    "report.write_panel_csvs": _rows,
    "report.write_panel_svgs": _rows,
    "svgplot.polyline_chart": _points,
    "loop.run_simulation": _steps,
}

ROOT_SPAN = "bench.op"  # one per operation, parent of everything it calls


def clock() -> float:
    """System-wide monotonic seconds, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image (VmHWM), in MiB.

    Unlike getrusage's ru_maxrss, VmHWM starts afresh at exec, so a child
    does not inherit the peak of the process that started it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def daylux_modules() -> dict:
    """Loaded daylux modules by short name ("loop", "cli", ...; "daylux" for the package)."""
    return {
        name.partition(".")[2] or name: mod
        for name, mod in list(sys.modules.items())
        if name == "daylux" or name.startswith("daylux.")
    }


def arm_first_step(loop_mod, marks: list) -> callable:
    """Append the clock time of the next `loop_step` call to marks.

    The hook replaces itself with the original on its first call, so the
    loop runs unwrapped after that.  Returns a function that disarms it.
    """
    original = loop_mod.loop_step

    def first_step(*args, **kwargs):
        marks.append(clock())
        loop_mod.loop_step = original
        return original(*args, **kwargs)

    loop_mod.loop_step = first_step

    def disarm():
        loop_mod.loop_step = original

    return disarm


class Tracer:
    """Span and count recorder for the daylux modules loaded in this process."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self._name_ids = {ROOT_SPAN: 0}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_size: dict[int, int] = {}
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self._op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(i)
        return i

    def _timed(self, name: str, fn):
        name_id = self._name_id(name)
        sizer = SIZERS.get(name)
        open_span, stack = self._open, self._stack
        starts, ends, sizes = self.span_start, self.span_end, self.span_size

        def timed(*args, **kwargs):
            i = open_span(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if sizer is not None:
                sizes[i] = sizer(args, result)
            return result

        return timed

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict) -> None:
        """Wrap every target in every loaded daylux module that binds it.

        `modules` maps short names ("loop", "cli", ...) to loaded module
        objects; targets of modules that are not loaded are skipped.
        """
        holders = list(modules.values())
        for kinds, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for home, funcs in kinds.items():
                if home not in modules:
                    continue
                for func in funcs:
                    original = getattr(modules[home], func)
                    wrapper = make(f"{home}.{func}", original)
                    for mod in holders:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._saved.append((mod, attr, value))
                                setattr(mod, attr, wrapper)
        for home, cls_name, method in TIMED_METHODS:
            cls = getattr(modules[home], cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._timed(f"{home}.{method}", original))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, value = self._saved.pop()
            setattr(holder, attr, value)

    def run(self, op_id: int, fn, *args):
        """Call fn under a root span for operation op_id, with wrappers installed."""
        self._op = op_id
        i = self._open(0)
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self.span_end[i] = clock()
            self.span_start[i] = t0
            self._stack.pop()
            self._op = -1

    def dump(self) -> dict:
        """Spans and counts as plain lists, for another process to merge."""
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "size": sorted(self.span_size.items()),
            "counts": self.counts,
        }

    def merge(self, data: dict, op_id: int) -> None:
        """Append spans dumped by another process as operation op_id."""
        offset = len(self.span_name)
        ids = [self._name_id(n) for n in data["names"]]
        self.span_name.extend(ids[n] for n in data["name"])
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.span_op.extend(op_id for _ in data["name"])
        self.span_start.extend(data["start"])
        self.span_end.extend(data["end"])
        for i, size in data["size"]:
            self.span_size[i + offset] = size
        for name, n in data["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path, op_id: int) -> None:
        """Write the spans of one operation, one CSV line each.

        A traced 20000-step run holds about 280k spans; writing every
        traced operation would mean over 100 MB per run for no new shape.
        """
        names, sizes = self.names, self.span_size
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("op,span,parent,name,start,end,size\n")
            fh.writelines(
                f"{op},{i},{parent},{names[n]},{start!r},{end!r},{sizes.get(i, '')}\n"
                for i, (op, parent, n, start, end) in enumerate(
                    zip(self.span_op, self.span_parent, self.span_name,
                        self.span_start, self.span_end)
                )
                if op == op_id
            )

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, units of work.

        Self time is a span's duration minus the durations of its direct
        children, which run strictly inside it on this single thread.
        """
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0} for name in self.names}
        names = self.names
        for i in range(n):
            row = out[names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        for i, size in self.span_size.items():
            out[names[self.span_name[i]]]["size"] += size
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            out[name]["calls"] = calls
        return out
