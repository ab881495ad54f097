"""Acceptance gate: every headline guarantee at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import itertools
import time

import numpy as np
import pytest

from syncgames.algebra import (
    Measurement,
    bitstrings,
    closeness,
    data_process,
    inconsistency,
    paste,
    projectivize,
    set_tau_norm,
)
from syncgames.builtins import (
    consistency_game,
    forbidden_pair_game,
    magic_square,
    question_sampling,
    trivial_game,
    two_of_n_ms,
)
from syncgames.cooklevin import (
    always_accept_machine,
    always_reject_machine,
    backtrack_models,
    check_assignment,
    clause_access,
    compile_cnf,
    equality_machine,
    witness_to_assignment,
    TableauLayout,
)
from syncgames.games import StrategyEvaluator, sampled_value, value
from syncgames.optimize import SeesawConfig, classical_value, perturb_strategy, seesaw
from syncgames.rigidity import (
    dimension_certificate,
    ms_pair_family,
    ms_residuals,
    qs_residuals,
    two_of_n_pair_family,
    two_of_n_residuals,
)
from syncgames.transform import (
    answer_reduce,
    gapless_compress,
    introspect,
    lift_answer_reduce,
    lift_gapless_compress,
    lift_introspection,
)

from helpers import (
    enumerate_models,
    random_contraction_set,
    random_operator_set,
    random_povm,
    random_projective,
    rng_for,
)


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number:2d}: {text}")


def test_criterion_01_honest_values():
    start = time.time()
    for name, (game, strategy) in {
        "magic_square": magic_square(),
        "two_of_2_ms": two_of_n_ms(2),
        "two_of_3_ms": two_of_n_ms(3),
        "question_sampling_2": question_sampling(2),
    }.items():
        val = value(game, strategy).value
        assert abs(val - 1.0) <= 1e-10, f"{name} honest value {val}"
    report(1, f"four honest strategies evaluate to 1 within 1e-10 ({time.time()-start:.0f}s)")


def test_criterion_02_honest_qs_statistics():
    n = 2
    _, strategy = question_sampling(n)
    d = strategy.dim
    for fam in ("S", "E"):
        ma = strategy.measurement(f"{fam}_A")
        mb = strategy.measurement(f"{fam}_B")
        for x in ma.labels:
            for side in (ma, mb):
                tau = np.trace(side.element(x)).real / d
                assert abs(tau - 2.0**-n) <= 1e-10
            for y in mb.labels:
                tau = np.trace(ma.element(x) @ mb.element(y)).real / d
                assert abs(tau - 2.0 ** (-2 * n)) <= 1e-10
    report(2, "honest QS traces equal 2^-n and 2^-2n within 1e-10")


def test_criterion_03_rigidity_residuals():
    ms_game, ms_honest = magic_square()
    assert ms_residuals(ms_honest).max_residual <= 1e-10
    _, two_honest = two_of_n_ms(2)
    assert two_of_n_residuals(two_honest, 2).max_residual <= 1e-10
    _, qs_honest = question_sampling(2)
    assert qs_residuals(qs_honest, 2).max_residual <= 1e-10

    bound_constant = 32 * 15
    checked = 0
    for k, magnitude in enumerate(np.linspace(4e-4, 1.5e-2, 50)):
        perturbed = perturb_strategy(ms_honest, float(magnitude), 1000 + k, list(ms_game.questions))
        audit = ms_residuals(perturbed)
        eps = audit.value_deficit
        assert 0 <= eps <= 1e-4, f"deficit {eps} outside the quantified range"
        assert audit.max_residual <= bound_constant * np.sqrt(eps)
        assert audit.max_residual > 0
        checked += 1
    assert checked == 50
    report(3, "honest residuals <= 1e-10; 50 perturbed audits within 480*sqrt(eps)")


def test_criterion_04_dimension_certificates():
    _, ms_honest = magic_square()
    n, eps = dimension_certificate(ms_pair_family(ms_honest))
    assert n == 2 and 2**n == ms_honest.dim and eps <= 1e-10
    _, qs_honest = question_sampling(2)
    n, eps = dimension_certificate(two_of_n_pair_family(qs_honest, 2))
    assert n == 4 and 2**n == qs_honest.dim and eps <= 1e-10
    report(4, "certificates give 2^2 = 4 and 2^4 = 16 at residual <= 1e-10")


def test_criterion_05_introspection_completeness():
    start = time.time()
    transcript_rows = {("I", "I_A"), ("I_A", "I"), ("I", "I_B"), ("I_B", "I")}
    for name, (game, strategy) in {
        "trivial": trivial_game(2),
        "consistency": consistency_game(2),
        "forbidden_pair": forbidden_pair_game(2),
    }.items():
        base_value = value(game, strategy).value
        intro = introspect(game)
        lifted = lift_introspection(game, strategy)
        audit = value(intro, lifted)
        assert audit.value >= base_value - 1e-12, name
        lossy = {p for p, v in audit.per_pair.items() if v < 1 - 1e-10}
        assert lossy <= transcript_rows, f"{name}: deficits off the transcript rows"
        for pair in lossy:
            assert audit.per_pair[pair] == pytest.approx(base_value, abs=1e-10)
    report(5, f"introspection lifts dominate base values, deficits confined ({time.time()-start:.0f}s)")


def test_criterion_06_answer_reduction_completeness():
    start = time.time()
    T = 4
    for name, (game, strategy) in {
        "consistency": consistency_game(2),
        "forbidden_pair": forbidden_pair_game(2),
    }.items():
        base_value = value(game, strategy).value
        reduced = answer_reduce(game, T)
        lifted = lift_answer_reduce(game, strategy, T, reduced=reduced)
        est, err = sampled_value(reduced, lifted, 100_000, seed=60)
        assert est + 3 * err + 1e-12 >= 0.5 + 0.5 * base_value, name
        # measured engaged mass: the uniform samples essentially never hit
        # the proof-consistency rows, so the estimate sits at 1 - gamma(1-v)
        rng = np.random.default_rng(61)
        nq = len(reduced.questions)
        hits = 0
        draws = 20_000
        for _ in range(draws):
            q1 = reduced.questions[int(rng.integers(0, nq))]
            q2 = reduced.questions[int(rng.integers(0, nq))]
            if q1 != q2 and reduced.nontrivial(q1, q2):
                hits += 1
        gamma = hits / draws
        assert abs(est - (1 - gamma * (1 - base_value))) <= 3 * err + 3e-3, name
    report(6, f"answer reduction holds 1/2 + value/2 within 3 sigma at 1e5 samples ({time.time()-start:.0f}s)")


def test_criterion_07_gapless_compression_completeness():
    start = time.time()
    game, strategy = consistency_game(2)
    assert value(game, strategy).value == pytest.approx(1.0, abs=1e-12)
    T = 8
    compressed = gapless_compress(game, T)
    lifted = lift_gapless_compress(game, strategy, T, compressed=compressed)
    est, err = sampled_value(compressed, lifted, 100_000, seed=70)
    assert est + 3 * err >= 1.0 - 1e-12
    # drive the proof-query rows directly: engaged pairs must all win
    intro = compressed.ar_context.game
    ctx = compressed.ar_context
    ev = StrategyEvaluator(compressed, lifted)
    rng = rng_for("accept7", 0)
    intro_pairs = [p for p in intro.nontrivial_pairs() if p[0] != p[1]]
    for _ in range(25):
        q, r = intro_pairs[int(rng.integers(0, len(intro_pairs)))]
        i = int(rng.integers(1, ctx.L + 1))
        jkl = (i, int(rng.integers(1, ctx.L + 1)), int(rng.integers(1, ctx.L + 1)))
        win = ev.win_probability((("ora", q, r), i), (("ora", q, r), jkl))
        assert win == pytest.approx(1.0, abs=1e-10)
    report(7, f"compressed perfect game stays perfect, engaged rows all win ({time.time()-start:.0f}s)")


def test_criterion_08_cook_levin_suite():
    start = time.time()
    # compile / clause_access set equality on three tiny machines
    for machine, T, R in (
        (always_accept_machine(), 1, 1),
        (always_reject_machine(), 1, 2),
        (equality_machine(), 2, 2),
    ):
        cnf = compile_cnf(machine, T, R)
        assert cnf.num_vars <= 130
        union = set()
        for i, j, k in itertools.combinations_with_replacement(
            range(1, cnf.num_vars + 1), 3
        ):
            found = clause_access(machine, T, R, i, j, k)
            if found:
                union.update(found)
        assert union == set(cnf.clauses)

    # witness round trip
    eq = equality_machine()
    cnf_eq = compile_cnf(eq, 3, 2)
    for w in ((0, 0), (1, 1)):
        assignment = witness_to_assignment(eq, 3, w)
        assert check_assignment(cnf_eq, assignment) == (True, None)

    # uniqueness of the satisfying extension per accepting witness,
    # exhaustively at L <= 24
    tiny = compile_cnf(always_accept_machine(), 1, 1)
    assert tiny.num_vars <= 24
    models = enumerate_models(tiny, cap=24)
    per_witness = {}
    for a in models:
        per_witness.setdefault(a.bits[0], []).append(a)
    assert set(per_witness) == {0, 1}
    assert all(len(group) == 1 for group in per_witness.values())
    # the same uniqueness via complete backtracking on a larger instance
    models = backtrack_models(compile_cnf(eq, 3, 2))
    assert sorted(a.bits[:2] for a in models) == [(0, 0), (1, 1)]

    # clause_access wall time trend under a doubling-T sweep
    rng = np.random.default_rng(80)
    times = {}
    sizes = {}
    for T in (8, 16, 32, 64):
        layout = TableauLayout(eq, T, 2)
        sizes[T] = layout.num_vars
        queries = [
            tuple(int(v) for v in rng.integers(1, layout.num_vars + 1, size=3))
            for _ in range(80)
        ]
        t0 = time.perf_counter()
        for i, j, k in queries:
            clause_access(eq, T, 2, i, j, k)
        times[T] = (time.perf_counter() - t0) / len(queries)
    assert sizes[64] >= 8 * sizes[8]
    assert times[64] <= 6 * times[8] + 1e-3
    report(8, f"tableau suite: equivalence, round trips, uniqueness, polylog trend ({time.time()-start:.0f}s)")


def test_criterion_09_lemma_inequality_suite():
    start = time.time()
    count = 1000
    slack = 1e-12

    def draws(tag):
        rng = rng_for("accept9", tag)
        for _ in range(count):
            dim = int(rng.integers(2, 9))
            outcomes = int(rng.integers(2, 9))
            yield dim, outcomes, rng

    for dim, outcomes, rng in draws(0):  # triangle inequality for sets
        m = random_operator_set(dim, outcomes, rng)
        n = random_operator_set(dim, outcomes, rng)
        assert closeness(m, n) <= set_tau_norm(m) + set_tau_norm(n) + slack
    for dim, outcomes, rng in draws(1):  # Cauchy-Schwarz for operator sets
        m = random_operator_set(dim, outcomes, rng)
        n = random_operator_set(dim, outcomes, rng)
        lhs = (
            abs(sum(np.trace(a @ b) / dim for a, b in zip(m.elements, n.elements)))
            ** 2
        )
        assert lhs <= set_tau_norm(m) ** 2 * set_tau_norm(n) ** 2 + slack
    for dim, outcomes, rng in draws(2):  # data processing for consistency
        m = random_povm(dim, outcomes, rng)
        n = random_povm(dim, outcomes, rng)
        before = inconsistency(m, n)
        f = {a: a % 2 for a in m.labels}
        assert inconsistency(data_process(m, f), data_process(n, f)) <= before + slack
    for dim, outcomes, rng in draws(3):  # consistency to closeness
        m = random_povm(dim, outcomes, rng)
        n = random_povm(dim, outcomes, rng)
        assert closeness(m, n) <= np.sqrt(2 * inconsistency(m, n)) + slack
    for dim, outcomes, rng in draws(4):  # closeness to consistency
        m = random_projective(dim, outcomes, rng)
        n = random_povm(dim, outcomes, rng)
        assert inconsistency(m, n) <= closeness(m, n) + slack
    for dim, outcomes, rng in draws(5):  # similar probabilities
        m = random_povm(dim, outcomes, rng)
        n = random_povm(dim, outcomes, rng)
        lhs = sum(
            abs(np.trace(a - b).real / dim) for a, b in zip(m.elements, n.elements)
        )
        assert lhs <= 2 * inconsistency(m, n) + slack
    for dim, outcomes, rng in draws(6):  # multiplication by contraction sets
        m = random_operator_set(dim, outcomes, rng)
        n = random_operator_set(dim, outcomes, rng)
        r = random_contraction_set(dim, 3, rng)
        labels = tuple((b, a) for b in r.labels for a in m.labels)
        rm = Measurement(labels, [rb @ ma for rb in r.elements for ma in m.elements], "general")
        rn = Measurement(labels, [rb @ na for rb in r.elements for na in n.elements], "general")
        assert closeness(rm, rn) <= closeness(m, n) + slack
    report(9, f"distance lemmas hold on 1000 random instances each ({time.time()-start:.0f}s)")


def test_criterion_10_pasting_and_projectivization():
    rng = rng_for("accept10", 0)
    # exactly commuting inputs: joint marginals reproduce the inputs
    eye = np.eye(2)
    a = random_projective(2, 2, rng)
    b = random_projective(2, 2, rng)
    m1 = Measurement((0, 1), [np.kron(e, eye) for e in a.elements], "projective")
    m2 = Measurement((0, 1), [np.kron(eye, e) for e in b.elements], "projective")
    joint = paste([m1, m2])
    for i, m in enumerate((m1, m2)):
        marginal = data_process(joint, lambda ab, i=i: ab[i])
        assert closeness(marginal, m) <= 1e-10

    # projectivize is a fixed point on projective input
    p = random_projective(6, 3, rng)
    assert closeness(projectivize(p), p) <= 1e-10

    # vanishing-error trends under perturbation sweeps
    errors = []
    base = random_projective(6, 3, rng)
    for epsilon in (0.2, 0.1, 0.05, 0.01):
        povm = Measurement(
            base.labels,
            [(1 - epsilon) * e + epsilon * np.eye(6) / 3 for e in base.elements],
            "povm",
        )
        errors.append(closeness(projectivize(povm), povm))
    assert errors == sorted(errors, reverse=True) and errors[-1] < errors[0] / 3

    paste_errors = []
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    xx = np.kron(x, x)
    for epsilon in (0.3, 0.1, 0.03, 0.01):
        u = np.cos(epsilon) * np.eye(4) + 1j * np.sin(epsilon) * xx
        rotated = Measurement(
            (0, 1),
            [u @ e @ u.conj().T for e in m2.elements],
            "projective",
        )
        joint = paste([m1, rotated])
        paste_errors.append(
            max(
                closeness(data_process(joint, lambda ab: ab[0]), m1),
                closeness(data_process(joint, lambda ab: ab[1]), rotated),
            )
        )
    assert paste_errors == sorted(paste_errors, reverse=True)
    assert paste_errors[-1] < 0.1 * paste_errors[0]
    report(10, "pasting marginals exact when commuting; rounding errors vanish in sweeps")


def test_criterion_11_optimization():
    start = time.time()
    game, _ = magic_square()
    cfg = SeesawConfig(dim=4, restarts=20, max_iters=200, seed=1)
    _, best, _ = seesaw(game, cfg)
    assert best >= 1 - 1e-4

    val, assignment = classical_value(game)
    assert val < 1
    # independent oracle: enumerate variable bits, optimize each equation
    # over its satisfying assignments (dominance: unsatisfying answers lose
    # every incidence check, and equations decouple given the variables)
    from syncgames.builtins import MS_EQUATIONS

    best_wins = -1
    for bits in itertools.product((0, 1), repeat=9):
        f = dict(zip([f"s{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)], bits))
        wins = 15 + 174
        for eq, vs in MS_EQUATIONS.items():
            parity = 1 if eq == "c3" else 0
            wins += max(
                sum(2 for v, bit in zip(vs, a) if f[v] == bit)
                for a in itertools.product((0, 1), repeat=3)
                if sum(a) % 2 == parity
            )
        best_wins = max(best_wins, wins)
    assert val == best_wins / 225
    report(11, f"seesaw reaches 1 - 1e-4 at dim 4; classical optimum matches oracle exactly ({time.time()-start:.0f}s)")
