"""The four benchmark workloads: seed-generated job lists and output checks.

Each ``setup_*`` builds one workload's games, strategies, transforms,
lifts and input files from the workload seed and returns a ``Workload``:
a fixed list of jobs, each a call into the library plus a check of its
output.  The seed generates every random input (perturbation and
conjugation seeds, see-saw seeds, sample seeds, clause queries, engaged
rows); the library only receives the generated inputs.

Jobs look library names up through ``sg`` (the package) or its layer
modules at call time, so spans that ``tracing`` installs are seen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import engaged

# Perturbation seeds are drawn from this pool so that every drawn
# perturbation has reference digests in reference.json.
PERTURB_SEEDS = tuple(range(101, 117))
PERTURB_MAGNITUDE = 0.05
ORACULARIZABLE_MAX_PAIRS = 2000
HONEST_TOL = 1e-12

# see-saw jobs run a fixed number of sweeps (the early stop is disabled by
# a negative improvement tolerance), so every seed costs the same work;
# short jobs keep the list long enough for a tail percentile
SEESAW_SWEEPS = 6
SEESAW_JOBS_PER_DIM = 23
CLASSICAL_JOBS = 4
MS_CLASSICAL_VALUE = 223 / 225

AR_T, GC_T = 4, 8
# sampled and engaged-rows jobs per reduced game and strategy
COMPRESS_JOBS_PER_KIND = 6
# Sample counts that make the sampled jobs of both transforms cost alike,
# and engaged-row budgets that put the answer-reduced row jobs below them
# and the gapless ones above: the median job latency then falls inside
# the sampled group, whose work does not depend on the seed, and the
# tail inside the gapless row jobs.
COMPRESS_SAMPLES = {"answer_reduce": 50_000, "gapless_compress": 38_000}
# lift work per engaged-rows job, in rows plus tableau runs (see draw_rows)
ENGAGED_BUDGET = {"answer_reduce": 60, "gapless_compress": 2000}
BUDGET_SLACK = 8
ENGAGED_TOL = 1e-9

CNF_T, CNF_R = 64, 2
# A clause query takes milliseconds, so each clause job is a batch of
# them.  The clause batches hold the median job latency of the pass and
# the slightly slower ncpo jobs its tail, each inside a group of like jobs.
CLAUSE_JOBS = 30
CLAUSE_BATCH = 28
NCPO_JOBS = 14
SAMPLE_COUNT = 100_000


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises on a wrong output


@dataclass
class Workload:
    jobs: list
    # called before each pass, outside the timed region
    prepare: Callable[[int], None] = field(default=lambda pass_index: None)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    return digest(path.read_bytes())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# -- exact_eval --------------------------------------------------------------


def exact_eval_games(sg) -> dict:
    """name -> (game, honest strategy) for the exact-evaluation jobs."""
    base, base_honest = sg.consistency_game(2)
    return {
        "two_of_2_ms": sg.two_of_n_ms(2),
        "question_sampling_2": sg.question_sampling(2),
        "introspect_consistency_2": (
            sg.introspect(base),
            sg.lift_introspection(base, base_honest),
        ),
    }


def perturbed(sg, game, strategy, seed: int):
    return sg.perturb_strategy(strategy, PERTURB_MAGNITUDE, seed, list(game.questions))


def report_digest(sg, report) -> str:
    return digest(sg.serialize.dumps(sg.serialize.report_to_doc(report)))


def residuals_digest(sg, report) -> str:
    return digest(sg.serialize.dumps(sg.serialize.residuals_to_doc(report)))


RESIDUALS = {
    "two_of_2_ms": lambda sg, s: sg.two_of_n_residuals(s, 2),
    "question_sampling_2": lambda sg, s: sg.qs_residuals(s, 2),
}


def setup_exact_eval(sg, seed: int, workdir: Path, reference: dict) -> Workload:
    rng = np.random.default_rng([seed, 1])
    games = exact_eval_games(sg)
    picks = {name: int(rng.choice(PERTURB_SEEDS)) for name in games}
    perturbations = {
        name: perturbed(sg, game, honest, picks[name]) for name, (game, honest) in games.items()
    }
    ref = reference["exact_eval"]

    def check_honest(report):
        expect(abs(report.value - 1.0) <= HONEST_TOL, f"honest value {report.value!r} != 1")
        report.check_consistency()

    def check_report(name, report):
        report.check_consistency()
        want = ref["value"][name][str(picks[name])]
        expect(report_digest(sg, report) == want, "perturbed report differs from reference")

    def check_honest_residuals(report):
        expect(report.max_residual <= 1e-9, f"honest residual {report.max_residual!r}")
        expect(abs(report.value_deficit) <= HONEST_TOL, f"honest deficit {report.value_deficit!r}")

    def check_residuals(name, report):
        want = ref["residuals"][name][str(picks[name])]
        expect(residuals_digest(sg, report) == want, "residual report differs from reference")

    def check_oracularizable(result):
        ok, worst = result
        expect(ok, f"honest strategy not oracularizable (worst {worst!r})")

    jobs = []
    for name, (game, honest) in games.items():
        jobs.append(Job(f"value {name} honest", lambda g=game, s=honest: sg.value(g, s), check_honest))
    for name, (game, _) in games.items():
        jobs.append(Job(
            f"value {name} perturbed seed={picks[name]}",
            lambda g=game, s=perturbations[name]: sg.value(g, s),
            lambda r, n=name: check_report(n, r),
        ))
    for name, audit in RESIDUALS.items():
        honest = games[name][1]
        jobs.append(Job(f"residuals {name} honest", lambda a=audit, s=honest: a(sg, s),
                        check_honest_residuals))
        jobs.append(Job(
            f"residuals {name} perturbed seed={picks[name]}",
            lambda a=audit, s=perturbations[name]: a(sg, s),
            lambda r, n=name: check_residuals(n, r),
        ))
    game, honest = games["two_of_2_ms"]
    jobs.append(Job(
        "is_oracularizable two_of_2_ms honest",
        lambda: sg.is_oracularizable(game, honest, max_pairs=ORACULARIZABLE_MAX_PAIRS),
        check_oracularizable,
    ))
    return Workload(jobs)


# -- seesaw ------------------------------------------------------------------


def setup_seesaw(sg, seed: int, workdir: Path, reference: dict) -> Workload:
    rng = np.random.default_rng([seed, 2])
    game, _ = sg.magic_square()

    def check_seesaw(cfg, result):
        strategy, best, trace = result
        values = [v for _, _, v in trace]
        expect(len(values) == cfg.max_iters + 1, f"{len(values) - 1} sweeps, not {cfg.max_iters}")
        expect(all(b >= a - 1e-12 for a, b in zip(values, values[1:])), "trace not monotone")
        expect(abs(best - values[-1]) <= 1e-10, "best value is not the last trace value")
        expect(best <= 1 + 1e-12, f"value {best!r} above 1")
        if cfg.dim == 3:
            expect(best < 1 - 1e-6, f"dim-3 value {best!r} reached 1")
        strategy.validate()

    def check_classical(result):
        val, _ = result
        expect(val == MS_CLASSICAL_VALUE, f"classical value {val!r} != 223/225")

    jobs = []
    for k in range(2 * SEESAW_JOBS_PER_DIM):
        cfg = sg.SeesawConfig(
            dim=4 if k % 2 == 0 else 3,
            restarts=1,
            max_iters=SEESAW_SWEEPS,
            seed=int(rng.integers(0, 2**31)),
            improvement_tol=-1.0,
        )
        jobs.append(Job(
            f"seesaw dim={cfg.dim} seed={cfg.seed}",
            lambda c=cfg: sg.seesaw(game, c),
            lambda r, c=cfg: check_seesaw(c, r),
        ))
    for _ in range(CLASSICAL_JOBS):
        jobs.append(Job("classical_value magic_square", lambda: sg.classical_value(game),
                        check_classical))
    return Workload(jobs)


# -- compress ----------------------------------------------------------------


def haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def proof_runs(game, g) -> int:
    """Tableau runs a lift makes for oracle question ``g``: one per answer pair."""
    base = game.ar_context.game
    if not base.nontrivial(g[1], g[2]):
        return 1
    return len(base.answers(g[1])) * len(base.answers(g[2]))


def draw_rows(game, budget: int, rng, pairs, seen=None) -> list:
    """Engaged rows whose lift work adds up to ``budget``.

    A row costs one plus the tableau runs of each oracle pair it is first
    to use.  Proof-table sizes range over three orders of magnitude, so a
    fixed row count would make the work depend on the seed; rows that
    would overrun the budget are skipped instead, until less than
    BUDGET_SLACK is left.  ``seen`` holds the oracle pairs of earlier row
    sets run on the same lift before these rows; it is updated.
    """
    rows, spent = [], 0
    seen = set() if seen is None else seen
    for row in engaged.iter_engaged_rows(game, rng, pairs):
        new = {q[0] for q in row[1:] if q[0][0] == "ora"} - seen
        cost = 1 + sum(proof_runs(game, g) for g in new)
        if spent + cost > budget:
            continue
        rows.append(row)
        seen.update(new)
        spent += cost
        if budget - spent < BUDGET_SLACK:
            return rows


class ReducedGame:
    """A reduced game with the lifts of several strategies.

    ``rebuild`` builds the game and its lifts again with the library's own
    transform, so every pass starts with empty proof-table and lift caches
    and does the same work.
    """

    def __init__(self, sg, base, strategies: dict, transform: str):
        self.sg, self.base, self.strategies, self.transform = sg, base, strategies, transform
        self.rebuild()

    def rebuild(self):
        sg, base = self.sg, self.base
        self.game = self.lifts = None  # free the old caches before building anew
        if self.transform == "answer_reduce":
            self.game = game = sg.answer_reduce(base, AR_T)
            self.lifts = {name: sg.lift_answer_reduce(base, s, AR_T, reduced=game)
                          for name, s in self.strategies.items()}
        else:
            self.game = game = sg.gapless_compress(base, GC_T)
            self.lifts = {name: sg.lift_gapless_compress(base, s, GC_T, compressed=game)
                          for name, s in self.strategies.items()}


class EngagedRowsJob:
    """Exact win probabilities of one lift on a fixed set of engaged rows."""

    def __init__(self, sg, reduced: ReducedGame, strategy: str, rows, perfect: bool):
        self.sg, self.reduced, self.strategy = sg, reduced, strategy
        self.rows, self.perfect = rows, perfect

    def run(self):
        ev = self.sg.games.StrategyEvaluator(
            self.reduced.game, self.reduced.lifts[self.strategy], self.sg.algebra.DEFAULT_TOL)
        return [ev.win_probability(q1, q2) for _, q1, q2 in self.rows]

    def check(self, wins):
        expect(len(wins) == len(self.rows), "missing rows")
        for (family, q1, q2), p in zip(self.rows, wins):
            expect(-ENGAGED_TOL <= p <= 1 + ENGAGED_TOL, f"{family} row {q1}, {q2}: {p!r}")
            if self.perfect or family == "diagonal":
                expect(p >= 1 - ENGAGED_TOL, f"{family} row {q1}, {q2} lost: {p!r}")


def setup_compress(sg, seed: int, workdir: Path, reference: dict) -> Workload:
    rng = np.random.default_rng([seed, 3])

    def check_estimate(result):
        est, err = result
        expect(0.0 <= est <= 1.0 and err >= 0.0, f"estimate {est!r} +- {err!r}")

    jobs, reduced_games = [], []
    for base_name, make in (("consistency_2", sg.consistency_game),
                            ("forbidden_pair_2", sg.forbidden_pair_game)):
        base, honest = make(2)
        strategies = {
            "honest": honest,
            "conjugated": honest.conjugated(haar_unitary(honest.dim, rng)),
        }
        for transform in ("answer_reduce", "gapless_compress"):
            reduced = ReducedGame(sg, base, strategies, transform)
            reduced_games.append(reduced)
            game = reduced.game
            pairs = engaged.base_pairs(game)
            for name in strategies:
                label = f"{base_name}.{transform} {name}"
                seen = set()  # oracle pairs of this lift reached by earlier jobs
                for _ in range(COMPRESS_JOBS_PER_KIND):
                    sample_seed = int(rng.integers(0, 2**31))
                    jobs.append(Job(
                        f"sampled_value {label} seed={sample_seed}",
                        lambda r=reduced, n=name, k=sample_seed, m=COMPRESS_SAMPLES[transform]:
                            sg.sampled_value(r.game, r.lifts[n], m, k),
                        check_estimate,
                    ))
                    rows = draw_rows(game, ENGAGED_BUDGET[transform], rng, pairs, seen)
                    rows_job = EngagedRowsJob(sg, reduced, name, rows,
                                              perfect=base_name == "consistency_2")
                    jobs.append(Job(f"engaged rows {label} ({len(rows)})", rows_job.run,
                                    rows_job.check))

    def prepare(pass_index):
        if pass_index:
            for reduced in reduced_games:
                reduced.rebuild()

    return Workload(jobs, prepare)


# -- wire ----------------------------------------------------------------------

WIRE_DIGEST_FILES = ("two_of_2_ms.json", "two_of_2_ms.report.json", "oracularized.json",
                     "introspected.json", "formula.cnf", "magic_square.ncpo")


def _clause_lines(text: str) -> set:
    if text.strip() == "null":
        return set()
    return {tuple(int(v) for v in line.split()) for line in text.splitlines() if line.strip()}


def _dimacs_clauses_within(path: Path, triples) -> dict:
    """triple -> set of the formula's clauses over variables of that triple."""
    wanted = {v for t in triples for v in t}
    by_min_var: dict = {}  # clauses over wanted variables, by smallest variable
    with open(path) as fh:
        next(fh)  # header
        for line in fh:
            lits = tuple(int(v) for v in line.split()[:-1])
            vars_ = frozenset(abs(v) for v in lits)
            if vars_ <= wanted:
                by_min_var.setdefault(min(vars_), []).append((vars_, lits))
    return {
        t: {lits for v in set(t) for vars_, lits in by_min_var.get(v, ()) if vars_ <= set(t)}
        for t in triples
    }


def setup_wire(sg, seed: int, workdir: Path, reference: dict) -> Workload:
    rng = np.random.default_rng([seed, 4])
    sz, cli = sg.serialize, sg.cli
    workdir.mkdir(parents=True, exist_ok=True)
    d = workdir

    def path(name):
        return str(d / name)

    machine = sg.equality_machine()
    (d / "magic_square.json").write_text(sz.dumps({"builtin": {"kind": "magic_square"}}))
    (d / "trivial_2.json").write_text(sz.dumps({"builtin": {"kind": "trivial", "l": 2}}))
    (d / "machine.json").write_text(sz.dumps(sz.machine_to_doc(machine)))
    num_vars = sg.cooklevin.TableauLayout(machine, CNF_T, CNF_R).num_vars
    triples = []
    for k in range(CLAUSE_JOBS * CLAUSE_BATCH):
        if k % 2 == 0:  # a window of neighbouring variables usually holds clauses
            v = int(rng.integers(1, num_vars - 1))
            triples.append((v, v + 1, v + 2))
        else:
            triples.append(tuple(int(v) for v in rng.integers(1, num_vars + 1, size=3)))
    sample_seed = int(rng.integers(0, 2**31))
    ref = reference["wire"]
    expected_clauses: dict = {}

    def ok_and_digest(*names):
        def check(code):
            expect(code == 0, f"exit code {code}")
            for name in names:
                expect(file_digest(d / name) == ref[name], f"{name} differs from reference")
        return check

    def check_eval_report(code):
        ok_and_digest("two_of_2_ms.report.json")(code)
        val = json.loads((d / "two_of_2_ms.report.json").read_text())["value"]
        expect(abs(val - 1.0) <= HONEST_TOL, f"honest value {val!r}")

    def check_lift(game_file, lift_file, min_value):
        # reload and evaluate rather than compare bytes, so another lift
        # format that evaluates the same still passes
        def check(code):
            ok_and_digest(game_file)(code)
            out = path("lift_check.json")
            code = cli.run(["eval", "--game", path(game_file), "--strategy", path(lift_file),
                            "--out", out])
            expect(code == 0, f"eval of {lift_file} exit code {code}")
            val = json.loads(Path(out).read_text())["value"]
            expect(min_value <= val <= 1 + HONEST_TOL, f"{lift_file} value {val!r}")
        return check

    def check_formula(code):
        ok_and_digest("formula.cnf")(code)
        expected_clauses.clear()
        expected_clauses.update(_dimacs_clauses_within(d / "formula.cnf", triples))

    def check_clauses(batch, codes):
        for k, code in zip(batch, codes, strict=True):
            expect(code == 0, f"exit code {code}")
            got = _clause_lines((d / f"clause_{k}.txt").read_text())
            expect(got == expected_clauses.get(triples[k]), f"clauses over {triples[k]} differ")

    def check_sample(code):
        expect(code == 0, f"exit code {code}")
        doc = json.loads((d / "sample.json").read_text())
        expect(doc["estimate"] == 1.0 and doc["stderr"] == 0.0, f"honest estimate {doc!r}")

    machine_args = ["--machine", path("machine.json"), "--T", str(CNF_T), "--R", str(CNF_R)]
    heavy = [
        # compile first: its check indexes the formula for the clause checks
        (["cooklevin", "compile", *machine_args, "--out", path("formula.cnf")], check_formula),
        (["game", "show", "--builtin", "two_of_n_ms", "--n", "2", "--out", path("two_of_2_ms.json"),
          "--strategy-out", path("two_of_2_ms.strategy.json")],
         ok_and_digest("two_of_2_ms.json")),
        (["eval", "--game", path("two_of_2_ms.json"), "--strategy", path("two_of_2_ms.strategy.json"),
          "--out", path("two_of_2_ms.report.json")],
         check_eval_report),
        (["transform", "--transform", "oracularize", "--base", path("magic_square.json"),
          "--out", path("oracularized.json"), "--lift", "honest",
          "--lift-out", path("oracularized.lift.json")],
         check_lift("oracularized.json", "oracularized.lift.json", 1 - HONEST_TOL)),
        (["transform", "--transform", "introspect", "--base", path("trivial_2.json"),
          "--out", path("introspected.json"), "--lift", "honest",
          "--lift-out", path("introspected.lift.json")],
         check_lift("introspected.json", "introspected.lift.json", 1 - HONEST_TOL)),
        (["eval", "--game", path("magic_square.json"), "--strategy", "honest",
          "--sample", str(SAMPLE_COUNT), "--seed", str(sample_seed), "--out", path("sample.json")],
         check_sample),
    ]

    def command_job(argv, check):
        name = " ".join(x for x in argv if not x.startswith("--") and "/" not in x)
        return Job(name, lambda: cli.run(argv), check)

    def clause_argv(k):
        i, j, l = triples[k]
        return ["cooklevin", "clause", *machine_args, "--i", str(i), "--j", str(j),
                "--k", str(l), "--out", path(f"clause_{k}.txt")]

    def clause_job(batch):
        argvs = [clause_argv(k) for k in batch]
        return Job(f"cooklevin clause x{len(batch)} from #{batch[0]}",
                   lambda: [cli.run(argv) for argv in argvs],
                   lambda codes: check_clauses(batch, codes))

    heavy_jobs = [command_job(argv, check) for argv, check in heavy]
    clause_jobs = [clause_job(range(k, k + CLAUSE_BATCH))
                   for k in range(0, len(triples), CLAUSE_BATCH)]
    ncpo_jobs = [command_job(["ncpo", "--game", path("magic_square.json"),
                              "--out", path("magic_square.ncpo")],
                             ok_and_digest("magic_square.ncpo"))
                 for _ in range(NCPO_JOBS)]
    # The median and tail latencies come from the short jobs; spreading
    # them between the long ones makes them sample the whole pass, so a
    # drift in machine speed during the pass moves them less.
    light = [j for pair in itertools.zip_longest(clause_jobs, ncpo_jobs) for j in pair if j]
    jobs = []
    for k, job in enumerate(heavy_jobs):
        jobs.append(job)
        jobs += light[k * len(light) // len(heavy_jobs):(k + 1) * len(light) // len(heavy_jobs)]
    return Workload(jobs)


SETUPS = {
    "exact_eval": setup_exact_eval,
    "seesaw": setup_seesaw,
    "compress": setup_compress,
    "wire": setup_wire,
}
