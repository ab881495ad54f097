"""Recompute reference.json, the digests the benchmark checks outputs against.

Run from the repository root:  python3 perfbench/make_reference.py

The digests pin outputs that must stay bit-identical: exact-value and
residual reports of every pooled perturbation seed, and the game
documents, evaluation report, DIMACS formula and NCPO text written by the
wire workload.  Regenerate only when an output is meant to change.
"""

from __future__ import annotations

import json
import shutil

import env


def main() -> None:
    sg = env.load_syncgames()
    import workloads as wl

    ref = {"exact_eval": {"value": {}, "residuals": {}}, "wire": {}}
    for name, (game, honest) in wl.exact_eval_games(sg).items():
        values = ref["exact_eval"]["value"][name] = {}
        for seed in wl.PERTURB_SEEDS:
            strategy = wl.perturbed(sg, game, honest, seed)
            values[str(seed)] = wl.report_digest(sg, sg.value(game, strategy))
            if name in wl.RESIDUALS:
                residuals = ref["exact_eval"]["residuals"].setdefault(name, {})
                report = wl.RESIDUALS[name](sg, strategy)
                residuals[str(seed)] = wl.residuals_digest(sg, report)
            print(name, seed, flush=True)

    workdir = env.ROOT / ".perfbench_tmp" / "reference"
    try:
        workload = wl.setup_wire(sg, 0, workdir, {"wire": {}})
        for job in workload.jobs:
            if job.run() != 0:
                raise SystemExit(f"wire job {job.name} failed")
        for name in wl.WIRE_DIGEST_FILES:
            ref["wire"][name] = wl.file_digest(workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = env.ROOT / "perfbench" / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
