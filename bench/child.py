"""Run one `daylux` CLI command in this fresh interpreter, as `python -m daylux.cli` would.

Usage: python child.py PROBE_JSON TRACE(0|1) ARG...

Besides running `daylux.cli.main(ARG...)`, it records when the first loop
step starts, how long `run_simulation` took and the process's peak memory,
and writes them to PROBE_JSON.  With TRACE=1 it also wraps the package's
public functions and adds the spans to PROBE_JSON.  `daylux` must be
importable (PYTHONPATH pointing at the package's source).
"""

import json
import sys


def main() -> int:
    probe_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

    import daylux.cli
    from tracing import Tracer, arm_first_step, clock, daylux_modules, peak_rss_mb

    marks: list[float] = []
    sims: list[tuple[float, int]] = []
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(daylux_modules())
    arm_first_step(daylux.loop, marks)
    run_simulation = daylux.cli.run_simulation

    def timed_simulation(cfg):
        t0 = clock()
        out = run_simulation(cfg)
        sims.append((clock() - t0, len(out[0])))
        return out

    daylux.cli.run_simulation = timed_simulation
    cli_main = daylux.cli.main
    code = tracer.run(0, cli_main, argv) if tracer else cli_main(argv)
    probe = {
        "first_step": marks[0] if marks else None,
        "sims": sims,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        tracer.uninstall()
        probe["trace"] = tracer.dump()
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump(probe, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
