"""cloudadl benchmark: `sim`, `check` and `fmt` ops through cloudadl.cli.main.

    python3 perfbench/run.py --workload stream|sessions|bigmodel \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` directory. The benchmark generates the workload's `.arc`/`.scn`
inputs from the seed, then drives a closed loop: one client, one thread,
each op starting when the previous one has ended. Ops of different kinds
are interleaved so that host drift during a run hits them alike.

--trace 0 measures the end-to-end metrics; --trace 1 rebinds the calls
into each layer to record spans (see tracer.py) and reports per-layer
metrics instead. Every op is checked (see checks.py); the last line of
stdout is one JSON object with the result.

HELD_OUT_SEED is kept for confirming a claimed gain: tune on other seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORKLOADS = ("bigmodel", "sessions", "stream")

HELD_OUT_SEED = 9_104_557


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cloudadl" / "cli.py").is_file():
        print(f"cloudadl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import runner

    workdir = runner.WORK / f"inputs-{os.getpid()}"
    try:
        bench = runner.Bench(args.workload, args.seed, bool(args.trace), workdir)
        run = runner.traced if args.trace else runner.measure
        metrics, notes = run(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    judge = bench.judge
    print(f"workload {args.workload}, seed {args.seed}: {json.dumps(bench.full.meta)}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit:9s} n={count}")
    fail_rate = judge.failed / judge.attempted if judge.attempted else 1.0
    print(f"  {'fail_rate':28s} {fail_rate:14.6f} share     {judge.failed} of {judge.attempted} ops")
    for note in notes:
        print(f"  {note}")
    for problem in judge.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = judge.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit, _n) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
