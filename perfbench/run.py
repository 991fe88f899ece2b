"""The repository benchmark: one command per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2_fullbatch --seed 0 --seconds 10 --trace 0

Runs the workload in a fresh child process (``workload.py``) with BLAS and
OpenMP pinned to one thread and no sampler workers, prints every metric by
name with its unit and sample count, and ends with one JSON line::

    {"correct": true, "attempted": 440, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` (plus
the child's peak RSS, measured here); ``--trace 1`` reports its per-layer
metrics from a separate traced run and writes the spans to
``.perfbench/traces/`` as JSON and as Chrome trace events.  ``--smoke``
runs the small test size and ``--inject flip_cf_side`` corrupts one served
counterfactual; both exist for the benchmark's own tests.

Exits non-zero without printing a result if the child fails, overruns or
reports a metric set that does not match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table2_fullbatch", "fairwos_ann_serve")
# The whole command must end within 180 s; leave room to report.
CHILD_TIMEOUT_S = 170
# One thread everywhere: on 2 cores, multithreaded BLAS burned twice the
# CPU of a full-batch fit for no wall-time gain and made timings depend on
# whatever else the machine was running.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject", choices=("none", "flip_cf_side"), default="none")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_child(args) -> tuple[dict, float]:
    """Run the workload child; returns its result and its peak RSS in MiB."""
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--inject", args.inject,
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    # ru_maxrss is in KiB on Linux; this process waited for one child only.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return json.loads(completed.stdout.strip().splitlines()[-1]), peak_rss_mib


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        result, peak_rss_mib = run_child(args)
    except subprocess.TimeoutExpired:
        print(f"error: workload overran {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: workload exited with code {exc.returncode}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB", "n": 1}

    wanted = {m["name"]: m["unit"] for m in declared}
    problems = [
        f"{name}: {'missing' if name not in metrics else 'unit ' + metrics[name]['unit']}"
        for name, unit in wanted.items()
        if name not in metrics or metrics[name]["unit"] != unit
    ]
    problems += [f"{name}: not declared" for name in metrics if name not in wanted]
    if problems:
        print("error: metrics do not match BENCHMARK.json: " + "; ".join(problems), file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in wanted:
        m = metrics[name]
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<9} n={m['n']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
