"""Benchmark of the LBA monitoring pipeline, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload replay_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes a separate traced run and reports per-layer metrics.
Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("replay_mix", "live_paper", "gateway_tenants")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: separate traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def load_workload(name: str):
    """Import the workload module (and through it the program under test)."""
    sys.path.insert(0, str(ROOT / "src"))
    if name == "replay_mix":
        from replay_mix import ReplayMix
        return ReplayMix
    if name == "live_paper":
        from live_paper import LivePaper
        return LivePaper
    from gateway_tenants import GatewayTenants
    return GatewayTenants


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload_cls = load_workload(args.workload)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = workload_cls(args.seed, workdir)
        if args.trace:
            metrics = run.per_layer()
            metrics.update(run.clock.metrics())
            metrics.update(run.outcome.failure_metrics())
            if args.workload != "gateway_tenants":
                # A layer this workload does not run reads 0 (README.md).
                for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
                    metrics.setdefault(entry["name"], (0, entry["unit"]))
        else:
            metrics = run.end_to_end(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome = run.outcome
    side = {**run.side, **run.clock.metrics(), **outcome.failure_metrics()}
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in side.items():
            print(f"  ({name:41s} {value:>16.6g} {unit})")
    for problem in outcome.problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
