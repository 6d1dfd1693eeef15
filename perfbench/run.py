"""Run the repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload point_zipf --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The program is imported from ``src/`` of the checkout; nothing is built
or installed.  Each run prints its metrics as a table, then the full
result record (``record: {...}``), and last one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics.  The exit code is 0 only if
every answer was right and every check passed.  Files the durable
workload writes live under ``.perfbench_tmp/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _print_table(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['provenance']['seed']}  "
          f"trace={int(record['provenance']['trace'])}  "
          f"attempted={record['attempted']}  failed={record['failed']}  "
          f"correct={record['correct']}")
    for name, metric in record["metrics"].items():
        extra = ""
        if "percentile" in metric:
            extra = (f"  (n={metric['samples']}, "
                     f"beyond p{metric['percentile']:g}: {metric['beyond']})")
        if "moves" in metric:
            extra = f"  -> {metric['moves']}"
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']:11s}{extra}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import CONTRACT_METRICS, WORKLOADS, run

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        records = [run(name, args.seed, args.seconds, bool(args.trace), ROOT, scratch)
                   for name in names]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is still using it
    for record in records:
        _print_table(record)
        print("record: " + json.dumps(record, sort_keys=True))
    correct = all(record["correct"] for record in records)
    summary = {
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
    }
    if len(records) == 1:
        metrics = records[0]["metrics"]
        if not args.trace:
            metrics = {name: metrics[name] for name in CONTRACT_METRICS}
        summary["metrics"] = {name: {"value": m["value"], "unit": m["unit"]}
                              for name, m in metrics.items()}
    else:
        summary["metrics"] = {
            f"{record['workload']}.{name}": {"value": m["value"], "unit": m["unit"]}
            for record in records for name, m in record["metrics"].items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
