"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-rw --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload traced and prints the per-layer metrics
(a metric whose layer the workload does not exercise reads 0).  The
last line of standard output is the result object; the line before it
is a fuller report with provenance, per-kind operation counts and the
workload-specific figures.  Progress goes to standard error.

The exit code is 0 only when every answer matched its oracle.

``serve-sharded`` runs by name but is not listed in ``BENCHMARK.json``:
its figures do not repeat from run to run on a small shared host (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("serve-rw", "serve-sharded", "batch-select", "mr-join")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path) as handle:
        return json.load(handle)


def import_program() -> None:
    """Make the checkout's ``src/repro`` importable, or fail."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program to measure ({source / 'repro'} is "
            "missing); run from a full checkout"
        )
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(source))
    # The native kernel's compiled library is cached inside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")


def run_workload(args: argparse.Namespace, work_dir: Path):
    from perfbench import batch, mrjoin, serve
    from perfbench.common import Result

    result = Result(args.workload)
    traced = bool(args.trace)
    if args.workload == "serve-rw":
        serve.run(serve.SERVE_RW, args.seed, args.seconds, traced,
                  work_dir, result)
    elif args.workload == "serve-sharded":
        serve.run(serve.SERVE_SHARDED, args.seed, args.seconds, traced,
                  work_dir, result)
    elif args.workload == "batch-select":
        batch.run(args.seed, args.seconds, traced, work_dir, result)
    else:
        mrjoin.run(mrjoin.MR_JOIN, args.seed, args.seconds, traced,
                   work_dir, result)
    return result


def select_metrics(spec: dict, result, traced: bool) -> dict:
    """The metrics of ``BENCHMARK.json`` for this mode, by name."""
    from perfbench.common import BenchError

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in result.metrics:
            value, got_unit = result.metrics[name]
            if got_unit != unit:
                raise BenchError(f"{name}: unit {got_unit}, spec {unit}")
        elif traced:
            value = 0.0  # the workload does not exercise this layer
        else:
            raise BenchError(f"{result.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    spec = load_spec()
    import_program()
    from perfbench.common import (
        OracleMismatch,
        host_probe_ms,
        log,
        provenance,
    )

    work_dir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    probe_before = host_probe_ms()
    try:
        try:
            result = run_workload(args, work_dir)
        except OracleMismatch as mismatch:
            log(f"perfbench: WRONG ANSWER: {mismatch}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                              "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = select_metrics(spec, result, bool(args.trace))
    result.notes["host_probe_ms"] = [probe_before, host_probe_ms()]
    report = {
        "workload": args.workload,
        "provenance": provenance(ROOT, args.seed),
        "attempted": result.attempted,
        "failed": result.failed,
        "notes": result.notes,
        "wall_s": time.perf_counter() - started,
        "metrics": {name: value for name, (value, _) in
                    sorted(result.metrics.items())},
    }
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": sum(result.attempted.values()),
        "failed": sum(result.failed.values()),
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
