"""Self-test of the end-to-end benchmark, at ``--quick`` scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Tier-1 (``testpaths = tests``) does not collect this file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import span_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _bench(tmp_path, *args, env=None):
    """Run ``run.py --quick``; return (process, last-line result, record)."""
    record_path = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick",
         "--json", str(record_path), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900, env=env,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    return proc, result, record


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    # Knobs a CI job may export must not reach the measured ops.
    env = dict(os.environ, REPRO_REPLAY="independent", REPRO_ANALYSIS="batch")
    return _bench(tmp_path_factory.mktemp("traced"), "--trace", "1", env=env)


def _printed(stdout):
    """``{workload: {metric: unit}}`` from the human-readable lines."""
    sections, current = {}, None
    for line in stdout.splitlines():
        if not line.startswith(" ") and ": n_ops=" in line:
            current = sections.setdefault(line.split(":", 1)[0], {})
        elif current is not None and line.startswith("  "):
            fields = line.split()
            if len(fields) == 3:
                current[fields[0]] = fields[2]
    return sections


def test_every_listed_metric_is_emitted_with_its_unit(traced):
    proc, result, record = traced
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    printed = _printed(proc.stdout)
    assert sorted(printed) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert printed[workload][metric["name"]] == metric["unit"]
        for metric in SPEC["per_layer"]:
            emitted = result["metrics"][f"{workload}:{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
        run = record["runs"][0][workload]
        assert set(run["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(value > 0 for value in run["end_to_end"].values())


def test_unattributed_time_is_at_most_a_tenth_of_each_traced_op(traced):
    _proc, _result, record = traced
    for workload in WORKLOADS:
        layers = record["runs"][0][workload]["per_layer"]
        assert 0.0 <= layers["unattributed_s"] <= 0.1 * layers["traced_op_s"]


def test_ops_run_with_the_default_knobs(traced):
    _proc, _result, record = traced
    knobs = record["environment"]["knobs"]
    assert knobs["replay"] == "fused"
    assert knobs["analysis"] == "incremental"
    assert record["environment"]["nproc"] >= 1


def test_a_wrong_reference_digest_counts_as_a_failure(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["digests"]["trace-sweep --quick"] = "0" * 64
    injected = tmp_path / "reference.json"
    injected.write_text(json.dumps(reference))
    proc, result, record = _bench(
        tmp_path, "--workload", "trace-sweep", "--check",
        "--reference", str(injected),
    )
    assert proc.returncode != 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "digest" in record["runs"][0]["trace-sweep"]["errors"][0]


def _span(name, start, end, *children, **attributes):
    return SimpleNamespace(
        name=name, wall_start=start, wall_end=end,
        children=list(children), attributes=attributes,
    )


def test_self_time_folds_overlapping_children_by_interval_union():
    # Two adopted worker chunks ran side by side under one sweep, and a
    # third overhangs the sweep's end: summed child durations would give
    # 10 - (4 + 4 + 4) = -2 s of self time.
    sweep = _span(
        "executor.sweep", 0.0, 10.0,
        _span("executor.chunk", 1.0, 5.0),
        _span("executor.chunk", 2.0, 6.0),
        _span("executor.chunk", 8.0, 12.0),
    )
    assert span_layers.covered([(1.0, 5.0), (2.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    assert span_layers.self_time(sweep) == 3.0
    assert span_layers.layer_self_times([sweep]) == {"executor": 3.0 + 4 + 4 + 4}


def test_unmapped_spans_inherit_their_parents_layer():
    root = _span(
        "campaign.run", 0.0, 4.0,
        _span("some.new.span", 1.0, 3.0, _span("trace.fused", 1.5, 2.5)),
    )
    assert span_layers.layer_self_times([root]) == {"campaign": 2.0 + 1.0, "fused": 1.0}
    # Time outside every mapped span is what unattributed_s reports.
    stray = _span("some.root", 5.0, 6.0, _span("pca.fit", 5.0, 5.5))
    intervals = span_layers.mapped_intervals([root, stray])
    assert sorted(intervals) == [(0.0, 4.0), (5.0, 5.5)]
    assert span_layers.covered(intervals, 0.0, 6.0) == 4.5
