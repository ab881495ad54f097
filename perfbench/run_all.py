"""Run every workload, each in its own process, and print its metrics.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Prints one line per workload and metric (name, value, unit) and the
failed fraction of each workload; exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact_eval", "seesaw", "compress", "wire")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload} failed_frac {result['failed'] / result['attempted']:.6g}")
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
