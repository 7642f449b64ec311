"""Self-test of the benchmark; run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Each workload runs its shortest form (the reference operation plus the
minimum of timed operations), so the whole file takes well under a minute.
"""

import copy
import json
import os

import pytest

import run
from tracing import Tracer

EXPECTED_PER_STEP = {
    "tinynet.forward": 4,
    "tinynet.train_step": 2,
    "signals.check_d8bv": 22,
    "plant.lut_eval": 1,
}
EXPECTED_VALIDATE_PER_RUN = {"cli_default": 2, "sim_long": 1, "sweep": 1}


@pytest.fixture(scope="module")
def references():
    with open(run.REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _metric_units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def _tamper(digests: dict) -> None:
    """Replace the first digest in a (possibly nested) digest dict."""
    key = next(iter(digests))
    if isinstance(digests[key], dict):
        _tamper(digests[key])
    else:
        digests[key] = "0" * 64


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tampered_reference_fails_every_operation(workload, references):
    tampered = copy.deepcopy(references)
    _tamper(tampered[workload])
    result = run.run(workload, run.PINNED_SEED, 0, False, tampered)
    assert result.failed == result.attempted >= 1 + run.MIN_OPS
    assert not result.correct
    assert _metric_units(result.metrics) == run.END_TO_END


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat_and_outputs_match_references(workload, references):
    w = run.WORKLOADS[workload](run.load_package())
    inputs = w.inputs(run.PINNED_SEED)
    calls = []
    for _ in range(2):
        tracer = Tracer()
        op = w.op(inputs, tracer, 1)
        assert op.error is None
        assert op.digest == references[workload]  # tracing leaves outputs byte-identical
        calls.append({name: row["calls"] for name, row in tracer.totals().items()})
    assert calls[0] == calls[1]
    steps = calls[0]["loop.loop_step"]
    for name, per_step in EXPECTED_PER_STEP.items():
        assert round(calls[0][name] / steps) == per_step, name
    runs = calls[0]["loop.run_simulation"]
    assert calls[0]["config.validate"] == EXPECTED_VALIDATE_PER_RUN[workload] * runs


def test_held_out_traced_run_reports_every_per_layer_metric():
    result = run.run("cli_default", 5, 0, True)
    assert result.correct, result.lines
    assert _metric_units(result.metrics) == run.PER_LAYER
    assert result.metrics["trace.overhead_s"][0] > 0
    assert any(line.startswith("digest: ") and "held-out" in line for line in result.lines)
