"""excursim benchmark entry point.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced replay (spans are written to
``perfbench/traces/``).  ``--workload all`` runs every workload, each in a
fresh process.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without a
result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper-tables", "large-m-smooth", "large-m-rough")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="excursim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"   {line}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:32s} {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "excursim", "__init__.py")):
        print(f"error: excursim source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # pin the BLAS/OpenMP pools before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from bench import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          trace_dir=os.path.join(HERE, "traces"))
    for line in result.lines:
        print(line)
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
