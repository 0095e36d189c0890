"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

import json
import re
from collections import defaultdict

import numpy as np
import pytest

import run
from lqbench.env import ROOT
from lqbench.layers import KERNELS, layer_metrics
from lqbench.payload import FILES_KEY, deviation, load_reference, read_payload
from lqbench.spans import Span, SpanRecorder, self_times, totals_by_trace
from lqbench.workloads import WORKLOADS
from liouq import studies

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((run.BENCH / "layer_map.json").read_text())


def _span(sid, start, end, parent=None, trace=0, name="x"):
    return Span(sid, name, start, end, parent, trace)


def test_self_time_subtracts_children_only():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),  # grandchild: not subtracted from 0
        _span(3, 6.0, 7.5, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.5)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_spans_with_parent_ids():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
        with recorder.span("inner"):
            pass
    recorder.trace = 1
    with recorder.span("outer"):
        pass
    by_id = {s.id: s for s in recorder.spans}
    assert by_id[inner].parent == outer
    assert by_id[outer].parent is None
    totals = totals_by_trace(recorder.spans)
    assert totals[0]["inner"]["calls"] == 2
    assert totals[0]["outer"]["s"] == 5.0
    assert totals[0]["outer"]["self_s"] == 3.0
    assert totals[1]["outer"]["calls"] == 1


def test_patched_wraps_and_restores_module_attributes():
    import types

    module = types.ModuleType("fake")
    module.double = lambda x: 2 * x
    original = module.double
    recorder = SpanRecorder()
    with recorder.patched([(module, "double"), (module, "absent")]):
        assert module.double(3) == 6
    assert module.double is original
    assert [s.name for s in recorder.spans] == [f"{__name__.rsplit('.', 1)[-1]}.<lambda>"]


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name


def test_declared_per_layer_metrics_are_the_measured_ones():
    measured = set(layer_metrics(defaultdict(dict), 10, True, 1, dict.fromkeys(KERNELS, 1.0)))
    measured |= {"trace.overhead_s", "correctness.max_abs_dev"}
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert measured == declared
    assert set(LAYER_MAP["metrics"]) == declared


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for entry in LAYER_MAP["metrics"].values():
        for workloads in entry["moves"].values():
            assert set(workloads) <= set(WORKLOADS)
        assert set(entry["no_change"]) <= set(WORKLOADS)


@pytest.fixture
def void_outputs(tmp_path):
    report, curves = studies.run_void_study(0.5, trials=1000, seed=3)
    studies.emit_outputs(report, curves, tmp_path)
    return tmp_path


def test_payload_matches_itself(void_outputs):
    payload = read_payload(void_outputs)
    dev, failures = deviation(payload, payload)
    assert dev == 0.0 and failures == []


def test_perturbation_beyond_tolerance_fails(void_outputs):
    reference = read_payload(void_outputs)
    key = "void.csv:empirical"
    reference[key] = reference[key] + 1e-9
    dev, failures = deviation(read_payload(void_outputs), reference)
    assert dev == pytest.approx(1e-9, rel=1e-3)
    assert len(failures) == 1 and key in failures[0]


def test_rounding_level_perturbation_passes(void_outputs):
    reference = read_payload(void_outputs)
    reference["void.csv:empirical"] = reference["void.csv:empirical"] + 1e-13
    assert deviation(read_payload(void_outputs), reference)[1] == []


def test_missing_file_fails(void_outputs):
    reference = read_payload(void_outputs)
    reference[FILES_KEY] = np.append(reference[FILES_KEY], "state_gone.csv")
    assert deviation(read_payload(void_outputs), reference)[1]


def test_runner_counts_a_perturbed_payload_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    workload = WORKLOADS["void-mc"]
    seed, reference = load_reference(run.BENCH, workload.name, 0, workload.seeded)

    runner = run.Runner(workload, seed, reference)
    assert runner.run() is not None
    assert (runner.attempted, runner.failed) == (1, 0)

    perturbed = dict(reference)
    perturbed["void.csv:empirical"] = reference["void.csv:empirical"] * (1 + 1e-6)
    runner = run.Runner(workload, seed, perturbed)
    runner.run()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.max_dev > 1e-10


def test_describe_reports_tail_percentile_only_with_enough_samples():
    assert "needs >= 20 samples" in run.describe("x", [1.0] * 19, "s")
    assert "p50" in run.describe("x", list(map(float, range(20))), "s")
    assert "p90" in run.describe("x", list(map(float, range(100))), "s")
