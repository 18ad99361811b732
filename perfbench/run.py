"""Benchmark of the prsadjust CLI; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a prsadjust checkout. The last line of standard
output is the JSON result; the run's full record goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from spawner import Spawner

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the prsadjust CLI")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prsadjust" / "cli.py").is_file():
        print(f"error: {SRC / 'prsadjust'} not found; run from a prsadjust checkout", file=sys.stderr)
        return 2
    # The launcher starts before numpy loads, so it stays small (spawner.py).
    with Spawner() as spawner:
        sys.path.insert(0, str(SRC))
        import bench

        if args.workload not in bench.workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        workload = bench.workloads.WORKLOADS[args.workload]
        bench.report(spawner, workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
