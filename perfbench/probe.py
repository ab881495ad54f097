"""Run-once probe of the one-run baselines quoted in ROADMAP.md.

    python3 perfbench/probe.py [--out perfbench/BENCH_baseline.json]

Times, once each and in one process, the three long jobs the benchmark
workloads leave out because they are too slow to repeat:

* ``value(two_of_n_ms(3))`` (306,612 nontrivial pairs at d=64);
* ``syncgames seesaw`` on Magic Square, dim 4, 20 restarts, 200 iterations;
* ``syncgames transform --transform introspect --lift honest`` on
  ``consistency`` with l=2.

It gates nothing.  The result is written beside the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from time import perf_counter

import env


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(env.ROOT / "perfbench" / "BENCH_baseline.json"))
    args = parser.parse_args(argv)
    sg = env.load_syncgames()
    sz, cli = sg.serialize, sg.cli
    workdir = env.ROOT / ".perfbench_tmp" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = {}

    def timed(name, fn, **info):
        start = perf_counter()
        out = fn()
        results[name] = {"seconds": perf_counter() - start, **info}
        print(name, json.dumps(results[name]), flush=True)
        return out

    try:
        game, honest = sg.two_of_n_ms(3)
        report = timed("value two_of_n_ms(3)", lambda: sg.value(game, honest), dim=honest.dim)
        results["value two_of_n_ms(3)"].update(pairs=len(report.per_pair), value=report.value)

        ms = workdir / "magic_square.json"
        ms.write_text(sz.dumps({"builtin": {"kind": "magic_square"}}))
        best = workdir / "best.json"
        argv = ["seesaw", "--game", str(ms), "--dim", "4", "--restarts", "20", "--iters", "200",
                "--seed", "1", "--out", str(best)]
        code = timed("cli seesaw magic_square dim=4 restarts=20", lambda: cli.run(argv),
                     argv=argv[:1] + argv[3:-2])
        results["cli seesaw magic_square dim=4 restarts=20"].update(
            exit_code=code, value=json.loads(best.read_text())["value"] if code == 0 else None)

        base = workdir / "consistency_2.json"
        base.write_text(sz.dumps({"builtin": {"kind": "consistency", "l": 2}}))
        lift = workdir / "lift.json"
        argv = ["transform", "--transform", "introspect", "--base", str(base),
                "--out", str(workdir / "intro.json"), "--lift", "honest", "--lift-out", str(lift)]
        code = timed("cli transform introspect --lift consistency l=2", lambda: cli.run(argv),
                     argv=["transform", "--transform", "introspect", "--lift", "honest"])
        results["cli transform introspect --lift consistency l=2"].update(
            exit_code=code, lift_bytes=lift.stat().st_size if code == 0 else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    doc = {"kind": "one-run baseline probe (not gating)", "environment": env.environment(),
           "results": results}
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
