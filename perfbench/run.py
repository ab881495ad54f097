"""syncgames benchmark: one workload per process, run as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs the workload's fixed, seed-generated job list back to
back (a pass), and repeats passes while the next one is expected to end
within S seconds of job time; there is always at least one pass.  Set-up
(building games, strategies, transforms, lifts and input files) runs at
least three times and until it has taken a second, and its median is
``setup_s``.  Every job's output is checked after its pass, outside the
timed region; a job that raises or fails its check counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``wall_s`` and ``cpu_s`` (process user+sys CPU)
of one pass, as medians over passes; ``job_p50_s`` and ``job_tail_s``,
the median of the job latencies and the one with ten jobs beyond it,
where each job's latency is its median over passes; ``peak_rss_mb``; and
``ok_frac`` (jobs passing their check over jobs attempted).

The machine's speed drifts by up to 1.6x within seconds, with the load
of other tenants, so every time in these metrics is speed-normalised
(``speed.py``): a fixed pure-Python loop is timed between jobs and
set-ups and every half second during them, and each duration is scaled
by ``speed.CAL_REF_S`` over the median loop time during and around it.
The unscaled times and the loop times are printed on the ``workload``
line.

With ``--trace 1`` the workload runs one untraced pass, then installs the
layer spans of ``tracing``, sets up again and runs one traced pass; the
last line holds the per-layer metrics of the traced set-up and pass, the
tracing overhead (traced minus untraced pass wall time) and the share of
traced time no layer span covers.

BLAS runs one thread and SYNCGAMES_THREADS is removed, so the library
runs its serial path on one core.  Scratch files live under
.perfbench_tmp in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter, process_time

import env
import speed

TAIL_JOBS_BEYOND = 10
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0
MAX_SETUPS = 1000


@dataclass
class Pass:
    latencies: list  # speed-normalised seconds per job
    cpus: list  # speed-normalised process CPU seconds per job
    raw_latencies: list
    raw_cpus: list
    failed: int

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_latencies)


def timed(probe, fn):
    """Run ``fn``; return its result or exception, wall and CPU seconds, and span.

    Time the probe's timer handler spent inside the call is left out.
    """
    handler_s, handler_cpu_s = probe.handler_s, probe.handler_cpu_s
    cpu0, start = process_time(), perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a failing job is counted, the loop goes on
        out, err = None, exc
    end = perf_counter()
    wall = end - start - (probe.handler_s - handler_s)
    cpu = process_time() - cpu0 - (probe.handler_cpu_s - handler_cpu_s)
    return out, err, wall, cpu, (start, end)


def run_pass(workload, pass_index: int, probe, tracer=None) -> Pass:
    workload.prepare(pass_index)
    gc.collect()  # start each pass from a collected heap
    outputs, latencies, cpus, spans = [], [], [], []
    probe.sample()
    for job in workload.jobs:
        if tracer is not None:
            tracer.active = True
        out, err, wall, cpu, span = timed(probe, job.run)
        if tracer is not None:
            tracer.active = False
        probe.sample()
        outputs.append((out, err))
        latencies.append(wall)
        cpus.append(cpu)
        spans.append(span)
    factors = [probe.factor(*span) for span in spans]
    failed = 0
    for job, (out, err) in zip(workload.jobs, outputs):
        if err is None:
            try:
                job.check(out)
                continue
            except Exception as exc:  # any wrong output counts as a failure
                err = exc
        failed += 1
        print(f"FAILED {job.name}: {err!r}", file=sys.stderr)
    return Pass([t * f for t, f in zip(latencies, factors)], [t * f for t, f in zip(cpus, factors)],
                latencies, cpus, failed)


def tail_index(n: int) -> int:
    """Index into sorted latencies with TAIL_JOBS_BEYOND jobs beyond it."""
    return max(0, n - TAIL_JOBS_BEYOND - 1)


def setup_times(setup, probe):
    """Run ``setup`` repeatedly; return its normalised and raw durations and the last workload.

    Set-up runs at least MIN_SETUPS times and until MIN_SETUP_SECONDS
    have passed, speed samples included.
    """
    times, spans, workload = [], [], None
    probe.sample()
    t0 = perf_counter()
    while len(times) < MIN_SETUPS or (perf_counter() - t0 < MIN_SETUP_SECONDS
                                      and len(times) < MAX_SETUPS):
        workload = None  # free the previous set-up before building the next
        gc.collect()
        workload, err, wall, _, span = timed(probe, setup)
        if err is not None:
            raise err
        probe.sample()
        times.append(wall)
        spans.append(span)
    normalised = [t * probe.factor(*span) for t, span in zip(times, spans)]
    return normalised, times, workload


def timed_run(setup, seconds: float):
    with speed.SpeedProbe() as probe:
        setups, raw_setups, workload = setup_times(setup, probe)
        passes = []
        while True:
            passes.append(run_pass(workload, len(passes), probe))
            # normalised walls, so a run does the same number of passes
            # whatever the machine's speed
            walls = [p.wall for p in passes]
            if sum(walls) + statistics.median(walls) > seconds:
                break
    n_jobs = len(workload.jobs)
    idx = tail_index(n_jobs)
    # each job's latency is its median over passes, so one slow pass
    # moves no order statistic
    per_job = [statistics.median(p.latencies[j] for p in passes) for j in range(n_jobs)]
    latencies = sorted(per_job)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (latencies[idx], "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = n_jobs * len(passes)
    failed = sum(p.failed for p in passes)
    metrics["ok_frac"] = ((attempted - failed) / attempted, "fraction")
    raw_per_job = sorted(statistics.median(p.raw_latencies[j] for p in passes)
                         for j in range(n_jobs))
    notes = {
        "passes": len(passes),
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "raw_pass_walls_s": [round(p.raw_wall, 4) for p in passes],
        "raw_pass_cpus_s": [round(sum(p.raw_cpus), 4) for p in passes],
        "raw_setup_s": statistics.median(raw_setups),
        "raw_job_p50_s": statistics.median(raw_per_job),
        "raw_job_tail_s": raw_per_job[idx],
        "cal_s": probe.summary(),
        "jobs_per_pass": n_jobs,
        "setups": len(setups),
        "job_tail_percentile": round(100 * (idx + 1) / n_jobs, 1),
        "job_tail_jobs_beyond": n_jobs - idx - 1,
        "failed_frac": failed / attempted,
        "job_latencies_s": {f"{j} {job.name}": round(t, 4)
                            for j, (job, t) in enumerate(zip(workload.jobs, per_job))},
    }
    return metrics, attempted, failed, notes


def traced_run(setup):
    import tracing

    probe = speed.SpeedProbe()  # samples between jobs only: no timer under tracing
    untraced = run_pass(setup(), 0, probe)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        start = perf_counter()
        workload = setup()
        traced_setup = perf_counter() - start
        tracer.active = False
        traced = run_pass(workload, 0, probe, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    traced_time = traced_setup + traced.raw_wall
    metrics["trace.overhead_s"] = (traced.raw_wall - untraced.raw_wall, "s")
    metrics["trace.uncovered_frac"] = (1 - tracer.covered / traced_time, "fraction")
    attempted = 2 * len(workload.jobs)
    failed = untraced.failed + traced.failed
    notes = {
        "untraced_wall_s": untraced.raw_wall,
        "traced_wall_s": traced.raw_wall,
        "traced_setup_s": traced_setup,
        "spans_by_self_s": {
            name: {"calls": calls, "incl_s": round(incl, 6), "self_s": round(self_s, 6)}
            for name, (calls, incl, self_s) in sorted(
                tracer.stats.items(), key=lambda kv: -kv[1][2])
        },
        "counts": tracer.counts,
    }
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sg = env.load_syncgames()  # before numpy is imported anywhere
    import workloads

    if args.workload not in workloads.SETUPS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.SETUPS)}")
    with open(env.ROOT / "perfbench" / "reference.json") as fh:
        reference = json.load(fh)
    workdir = env.ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"

    def setup():
        return workloads.SETUPS[args.workload](sg, args.seed, workdir, reference)

    try:
        if args.trace:
            metrics, attempted, failed, notes = traced_run(setup)
        else:
            metrics, attempted, failed, notes = timed_run(setup, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("environment " + json.dumps(env.environment(args.seed)))
    print(f"workload {args.workload} " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
