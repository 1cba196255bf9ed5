"""Smoke test of the benchmark itself (not in tier-1 ``testpaths``):

    python3 -m pytest benchmarks/e2e/test_smoke.py -q

Every workload, run for three rounds, must emit every metric that
``BENCHMARK.json`` names, with its unit; virtual seconds and counts must
repeat for one seed and move for another; unknown names must fail loudly.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
EXACT_UNITS = ("count", "bytes", "virtual_s")
RECOVERY = tuple(f"runtime.{k}" for k in (
    "reexecuted_chunks", "rank_losses", "lineage_replays", "replayed_bytes",
    "reshipped_bytes", "recovery_added_v", "checkpoints", "restores"))


def run(workload: str, seed: int, trace: int, check: bool = True):
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--rounds", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if check:
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_emits_every_named_metric(workload, trace):
    result = run(workload, 7, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace:
        trace_file = HERE / "_out" / f"{workload}.trace.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert {"run", "round", "op", "call"} <= {e["name"] for e in events}
        m = result["metrics"]
        if workload == "faulted_sim":
            assert m["runtime.rank_losses"]["value"] == 4  # one per op
        else:
            assert all(m[k]["value"] == 0 for k in RECOVERY)
        if workload == "service_repeat":
            assert m["service.plan_recompiles"]["value"] == 0
            assert m["data.input_bytes"]["value"] == 0


def exact(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in EXACT_UNITS and k != "host.rounds"}


def test_counts_repeat_for_a_seed_and_move_with_it():
    for trace in (0, 1):
        a, b, other = (run("dense_sim", s, trace) for s in (7, 7, 8))
        assert exact(a) == exact(b)
        assert exact(a) != exact(other)


def test_unknown_workload_fails():
    proc = run("no_such_workload", 7, 0, check=False)
    assert proc.returncode != 0
    assert "no_such_workload" in proc.stderr


def test_unknown_and_missing_metric_names_fail():
    sys.path.insert(0, str(HERE))
    try:
        from run import labelled
    finally:
        sys.path.remove(str(HERE))
    spec = {"round_norm_p50": {"unit": "ratio"}}
    assert labelled({"round_norm_p50": 2}, spec) == {
        "round_norm_p50": {"value": 2.0, "unit": "ratio"}}
    with pytest.raises(KeyError, match="measured but not named"):
        labelled({"round_norm_p50": 2, "typo_p50": 1}, spec)
    with pytest.raises(KeyError, match="not measured"):
        labelled({}, spec)
