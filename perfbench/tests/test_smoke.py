"""Smoke tests of the benchmark itself at a tiny request count.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    # orbifold is runnable by name but not among the gated workloads
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_runs_are_repeatable_and_correct(workload):
    a = run.run_workload(workload, SEED, 0, trace=False, smoke=True, reference=None)
    b = run.run_workload(workload, SEED, 0, trace=False, smoke=True, reference=None)
    assert a["failed"] == b["failed"] == 0
    assert a["error_rate"] == 0
    assert a["request_sha256"] == b["request_sha256"]
    assert a["output_sha256"] == b["output_sha256"]
    assert list(a["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in a["metrics"].values())


def _bindings():
    """Every binding a tracer patches, with its current value."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return [(owner, key, original) for owner, key, original in tracer.patched_targets()]
    finally:
        tracer.uninstall()


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_restores(workload):
    bindings = _bindings()
    assert len(bindings) > len(tracing.SPANS)
    assert all(_current(owner, key) is original for owner, key, original in bindings)
    record = run.run_workload(workload, SEED, 0, trace=True, smoke=True, reference=None)
    assert record["failed"] == 0
    assert list(record["metrics"]) == list(tracing.PER_LAYER_UNITS)
    assert all(_current(owner, key) is original for owner, key, original in bindings)


def test_group_mul_is_restored():
    from tatek.groups import cyclic_group, perm_mul

    with tracing.Tracer() as tracer:
        G = cyclic_group(3)
        assert G.mul is not perm_mul
        G.mul(G.identity, G.identity)
        assert tracer.counts["groups.mul_calls"] >= 1
    assert G.mul is perm_mul
