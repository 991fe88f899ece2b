"""Tests of the benchmark itself, at smoke size, through its own command.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Exact counts that must repeat from run to run at a fixed seed.
REPEATABLE = (
    "core.ann.query_rows_per_node",
    "core.ann.mask_keep_ratio",
    "graph.sampling.sampled_edges",
    "test_dsp",
    "test_deo",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def smoke(workload: str, trace: int, seed: int = 0, *extra: str) -> dict:
    done = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke", *extra,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_follows_its_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_repeats_counts(workload):
    first = smoke(workload, trace=1)
    assert first["correct"] and first["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    second = smoke(workload, trace=1)
    for name in REPEATABLE:
        assert second["metrics"][name] == first["metrics"][name], name
    stem = ROOT / ".perfbench" / "traces" / f"{workload}-smoke-seed0"
    events = json.loads(stem.with_suffix(".trace.json").read_text())["traceEvents"]
    assert events and {"name", "ph", "ts", "dur", "args"} <= set(events[0])


def test_flipped_counterfactual_side_is_counted_as_a_failure():
    result = smoke("fairwos_ann_serve", 0, 0, "--inject", "flip_cf_side")
    assert not result["correct"]
    assert result["failed"] == 1


def test_fails_without_the_library():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )
        done = bench(
            "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
            "--trace", "0", cwd=bare,
        )
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
