"""Game model, exact/sampled evaluation, builtin constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames.algebra import Measurement, Tolerance, bitstrings, closeness
from syncgames.builtins import (
    MS_EQUATIONS,
    MS_QUESTIONS,
    consistency_game,
    forbidden_pair_game,
    magic_square,
    question_sampling,
    trivial_game,
    two_of_n_ms,
)
from syncgames.games import (
    is_oracularizable,
    sampled_value,
    table_game,
    tensor_extend,
    value,
    Game,
    SynchronousStrategy,
)
from syncgames.optimize import haar_unitary, perturb_strategy

from helpers import assert_synchronous, rebuilt_game, recording, rng_for


def deterministic_strategy(game, assignment):
    """Dimension-1 strategy answering assignment[x] on question x."""
    table = {}
    for x in game.questions:
        labels = game.answers(x)
        elements = [
            np.ones((1, 1), dtype=complex) if a == assignment[x] else np.zeros((1, 1), dtype=complex)
            for a in labels
        ]
        table[x] = Measurement(labels, elements, kind="projective")
    return SynchronousStrategy(1, table)


def mixed_strategy(game, strategy, questions, weight):
    """strategy with each listed question measured by the POVM
    (1 - weight) M_a + weight I / k, which is not projective for weight > 0."""
    table = {x: strategy.measurement(x) for x in game.questions}
    eye = np.eye(strategy.dim, dtype=complex)
    for x in questions:
        m = table[x]
        k = len(m.elements)
        table[x] = Measurement(
            m.labels, [(1 - weight) * e + weight * eye / k for e in m.elements], kind="povm"
        )
    return SynchronousStrategy(strategy.dim, table)


class TestMagicSquare:
    def test_counts(self):
        game, strategy = magic_square()
        assert game.question_count() == 15
        assert strategy.dim == 4
        pairs = list(game.nontrivial_pairs())
        # 15 diagonal plus 6 equations x 3 variables x 2 orientations
        assert len(pairs) == 15 + 36

    def test_honest_value_one(self):
        game, strategy = magic_square()
        report = value(game, strategy)
        assert report.value == pytest.approx(1.0, abs=1e-10)
        report.check_consistency()

    def test_honest_is_synchronous_and_oracularizable(self):
        game, strategy = magic_square()
        assert_synchronous(game)
        ok, worst = is_oracularizable(game, strategy)
        assert ok and worst < 1e-12

    def test_all_zeros_against_enumeration_oracle(self):
        game, _ = magic_square()
        assignment = {v: 0 for v in MS_QUESTIONS if v.startswith("s")}
        assignment.update({e: (0, 0, 0) for e in MS_EQUATIONS})
        strategy = deterministic_strategy(game, assignment)
        # independent oracle: plain double loop over the 225 question pairs
        wins = 0
        for x in game.questions:
            for y in game.questions:
                wins += bool(game.decide(x, y, assignment[x], assignment[y]))
        expected = wins / 225
        assert expected == pytest.approx(219 / 225, abs=1e-15)
        report = value(game, strategy)
        assert report.value == pytest.approx(expected, abs=1e-12)

    def test_mask_hook_matches_decide_loop(self):
        game, _ = magic_square()
        for x in game.questions:
            for y in game.questions:
                mask = game.accept_mask(x, y)
                loop = np.array(
                    [[game.decide(x, y, a, b) for b in game.answers(y)] for a in game.answers(x)]
                )
                assert np.array_equal(mask, loop), (x, y)
                assert not mask.flags.writeable  # cached and shared

    def test_missing_measurement_rejected(self):
        game, strategy = magic_square()
        partial = SynchronousStrategy(
            4, {x: strategy.measurement(x) for x in list(game.questions)[:-1]}
        )
        with pytest.raises(KeyError):
            value(game, partial)


class TestSampledValue:
    def test_perfect_strategy_degenerate(self):
        game, strategy = magic_square()
        est, err = sampled_value(game, strategy, 2000, seed=3)
        assert est == 1.0 and err == 0.0

    def test_matches_exact_within_three_sigma(self):
        game, honest = magic_square()
        assignment = {v: 0 for v in MS_QUESTIONS if v.startswith("s")}
        assignment.update({e: (0, 0, 0) for e in MS_EQUATIONS})
        for strategy in (deterministic_strategy(game, assignment), perturb_strategy(honest, 0.3, 7)):
            exact = value(game, strategy).value
            est, err = sampled_value(game, strategy, 100_000, seed=11)
            assert exact < 1.0 and abs(est - exact) <= 3 * err

    def test_non_projective_strategy_rejected(self):
        game, honest = magic_square()
        strategy = mixed_strategy(game, honest, ["s11"], 1.0)
        for evaluate in (value, lambda g, s: sampled_value(g, s, 20_000, seed=1)):
            with pytest.raises(ValueError, match="not projective"):
                evaluate(game, strategy)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(
        magnitude=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**16),
        mixed=st.lists(st.sampled_from(MS_QUESTIONS), max_size=3, unique=True),
        weight=st.sampled_from([1e-13, 0.01, 0.5, 1.0]),
    )
    def test_raises_exactly_when_value_raises(self, magnitude, seed, mixed, weight):
        game, honest = magic_square()
        strategy = mixed_strategy(game, perturb_strategy(honest, magnitude, seed), mixed, weight)
        outcomes = []
        for evaluate in (value, lambda g, s: sampled_value(g, s, 5000, seed)):
            try:
                evaluate(game, strategy)
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_deterministic_given_seed(self):
        game, strategy = magic_square()
        a = sampled_value(game, strategy, 500, seed=5)
        b = sampled_value(game, strategy, 500, seed=5)
        assert a == b

    def test_maybe_nontrivial_hook_bit_identical(self):
        """An exact or a looser maybe_nontrivial table, diagonal included,
        leaves estimates and engaged draws as on the per-sample path."""
        game, honest = magic_square()
        qs = list(game.questions)
        exact = np.array([[game.nontrivial(x, y) for y in qs] for x in qs])
        assert exact.diagonal().all() and not exact.all()
        loose = exact | (rng_for("msloose").random(exact.shape) < 0.3)
        assignment = {v: 0 for v in MS_QUESTIONS if v.startswith("s")}
        assignment.update({e: (0, 0, 0) for e in MS_EQUATIONS})
        lossy = (perturb_strategy(honest, 0.3, 7), deterministic_strategy(game, assignment))
        for strategy in (honest, *lossy):
            for seed in (1, 2, 3):
                ref = rebuilt_game(game)
                expected = sampled_value(ref, strategy, 3000, seed)
                assert strategy is honest or expected[0] < 1.0
                for table in (exact, loose):
                    hooked = rebuilt_game(game, lambda xi, yi, t=table: t[xi, yi])
                    assert sampled_value(hooked, strategy, 3000, seed) == expected
                    assert hooked.engaged == ref.engaged


BUILTINS = {
    "trivial_2": lambda: trivial_game(2),
    "consistency_2": lambda: consistency_game(2),
    "forbidden_pair_2": lambda: forbidden_pair_game(2),
    "two_of_2_ms": lambda: two_of_n_ms(2),
}


class TestSynchronicity:
    """Game answers the diagonal itself, so every game is synchronous."""

    def test_magic_square(self):
        game, _ = magic_square()
        assert_synchronous(game)

    def test_question_sampling(self):
        game, _ = question_sampling(2)
        assert_synchronous(game)

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin(self, name):
        assert_synchronous(BUILTINS[name]()[0])

    def test_pair_rule_never_sees_the_diagonal(self):
        calls = []
        # every answer pair wins, also on the diagonal, were it asked
        game = recording(
            Game("lax", ["x", "y"], lambda x: (0, 1), lambda x, y: np.ones((2, 2), dtype=bool)),
            calls,
        )
        assert_synchronous(game)
        assert not game.decide("x", "x", 0, 1) and game.decide("x", "y", 0, 1)
        assert list(game.nontrivial_pairs()) == [(q, r) for q in "xy" for r in "xy"]
        assert calls and all(x != y for x, y in calls)


class TestOracularizability:
    def test_dim_one_always(self):
        game, strategy = trivial_game(2)
        ok, worst = is_oracularizable(game, strategy)
        assert ok and worst == 0.0

    def test_broken_magic_square(self):
        game, strategy = magic_square()
        rng = rng_for("orac", 0)
        u = haar_unitary(4, rng)
        table = {x: strategy.measurement(x) for x in game.questions}
        m = table["s22"]
        table["s22"] = Measurement(
            m.labels, [u @ e @ u.conj().T for e in m.elements], kind="projective"
        )
        tweaked = SynchronousStrategy(4, table)
        ok, worst = is_oracularizable(game, tweaked)
        assert not ok and worst > 1e-3


class TestTwoOfN:
    def test_question_count(self):
        game, _ = two_of_n_ms(2)
        assert game.question_count() == 2 * 15**2

    def test_honest_value(self):
        game, strategy = two_of_n_ms(2)
        assert value(game, strategy).value == pytest.approx(1.0, abs=1e-10)

    def test_honest_dim(self):
        _, s3 = two_of_n_ms(3)
        assert s3.dim == 64

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            two_of_n_ms(1)

    def test_nontrivial_pairs_match_predicate(self):
        game, _ = two_of_n_ms(2)
        from_iter = set(game.nontrivial_pairs())
        qs = list(game.questions)
        rng = rng_for("2ofn", 1)
        for _ in range(3000):
            q = qs[int(rng.integers(0, len(qs)))]
            r = qs[int(rng.integers(0, len(qs)))]
            assert ((q, r) in from_iter) == game.nontrivial(q, r)

    def test_oracularizable_sampled(self):
        game, strategy = two_of_n_ms(2)
        ok, worst = is_oracularizable(game, strategy, max_pairs=400)
        assert ok and worst < 1e-12

    def test_two_of_three_invariants_sampled(self):
        game, strategy = two_of_n_ms(3)
        assert_synchronous(game, 120)
        ok, worst = is_oracularizable(game, strategy, max_pairs=120)
        assert ok and worst < 1e-12

    def test_pair_iterators_duplicate_free(self):
        for game in (magic_square()[0], two_of_n_ms(2)[0], question_sampling(2)[0]):
            pairs = list(game.nontrivial_pairs())
            assert len(pairs) == len(set(pairs)), game.name

    def test_decider_symmetry_sampled(self):
        rng = rng_for("symm", 0)
        for game in (magic_square()[0], two_of_n_ms(2)[0], question_sampling(2)[0]):
            qs = list(game.questions)
            for _ in range(500):
                x = qs[int(rng.integers(0, len(qs)))]
                y = qs[int(rng.integers(0, len(qs)))]
                answers_x = game.answers(x)
                answers_y = game.answers(y)
                a = answers_x[int(rng.integers(0, len(answers_x)))]
                b = answers_y[int(rng.integers(0, len(answers_y)))]
                assert game.decide(x, y, a, b) == game.decide(y, x, b, a), game.name
                assert game.nontrivial(x, y) == game.nontrivial(y, x), game.name
                mask = game.accept_mask(x, y)
                assert np.array_equal(game.accept_mask(y, x), mask.T), game.name


class TestQuestionSampling:
    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            question_sampling(3)

    def test_honest_value(self):
        game, strategy = question_sampling(2)
        assert value(game, strategy).value == pytest.approx(1.0, abs=1e-10)

    def test_sampling_traces(self):
        _, strategy = question_sampling(2)
        sa = strategy.measurement("S_A")
        sb = strategy.measurement("S_B")
        for x in sa.labels:
            tau = np.trace(sa.element(x)).real / 16
            assert tau == pytest.approx(2.0**-2, abs=1e-10)
            for y in sb.labels:
                tau = np.trace(sa.element(x) @ sb.element(y)).real / 16
                assert tau == pytest.approx(2.0**-4, abs=1e-10)

    def test_honest_sampling_projector_shape(self):
        # with the Pauli-grid inner strategy, S_A projects the first two
        # qubits onto |y>, so each projector is rank 4
        _, strategy = question_sampling(2)
        sa = strategy.measurement("S_A")
        for y in sa.labels:
            idx = 8 * y[0] + 4 * y[1]
            expect = np.zeros((16, 16), dtype=complex)
            expect[idx : idx + 4, idx : idx + 4] = np.eye(4)
            assert np.allclose(sa.element(y), expect, atol=1e-12)

    def test_oracularizable_sampled(self):
        game, strategy = question_sampling(2)
        ok, worst = is_oracularizable(game, strategy, max_pairs=400)
        assert ok and worst < 1e-12

    def test_n4_honest_statistics_spot(self):
        # at n = 4 only the statistics are desk-checkable (dim 256)
        _, strategy = question_sampling(4)
        assert strategy.dim == 2 ** (2 * 4)
        sa = strategy.measurement("S_A")
        eb = strategy.measurement("E_B")
        d = strategy.dim
        for x in sa.labels:
            assert np.trace(sa.element(x)).real / d == pytest.approx(2.0**-4, abs=1e-10)
        for x in sa.labels[:3]:
            for y in eb.labels[:3]:
                a, b = sa.element(x), eb.element(y)
                # opposite-side sampling and erasure measurements commute
                assert np.abs(a @ b - b @ a).max() < 1e-10


class TestTensorExtend:
    def test_trivial_factor_preserves(self):
        game, strategy = magic_square()
        _, unit = trivial_game(2)
        one = SynchronousStrategy(
            1, {"u": Measurement(("only",), [np.eye(1, dtype=complex)], "projective")}
        )
        combined = tensor_extend(strategy, one, lambda q: (q, "u"))
        assert combined.dim == 4
        for x in game.questions:
            m = combined.measurement(x)
            base = strategy.measurement(x)
            for (a, _), lab in zip(m.labels, base.labels):
                assert a == lab
            for e1, e2 in zip(m.elements, base.elements):
                assert np.allclose(e1, e2)

    def test_two_copies_give_two_of_two(self):
        game2, honest2 = two_of_n_ms(2)
        _, ms = magic_square()

        def combine(q):
            i, j, x, y = q
            if i == 1:
                return (x, y, lambda a, b: (a, b))
            return (y, x, lambda a, b: (b, a))

        built = tensor_extend(ms, ms, combine)
        assert built.dim == 16
        for q in list(game2.questions)[::37]:
            ma = built.measurement(q)
            mb = honest2.measurement(q)
            assert sorted(ma.labels) == sorted(mb.labels)
            aligned = Measurement(
                mb.labels, [ma.element(lab) for lab in mb.labels], kind="projective"
            )
            assert closeness(aligned, mb) < 1e-12

    def test_dims_multiply(self):
        _, a = magic_square()
        _, b = two_of_n_ms(2)
        combined = tensor_extend(a, b, lambda q: (q[0], q[1]))
        assert combined.dim == 64


class TestValueInvariants:
    def test_unitary_conjugation_invariance(self):
        game, strategy = magic_square()
        rng = rng_for("conj", 0)
        u = haar_unitary(4, rng)
        rotated = strategy.conjugated(u)
        v1 = value(game, strategy).value
        v2 = value(game, rotated).value
        assert abs(v1 - v2) < 1e-10

    def test_averaging_bound(self):
        game, _ = magic_square()
        assignment = {v: 0 for v in MS_QUESTIONS if v.startswith("s")}
        assignment.update({e: (0, 0, 0) for e in MS_EQUATIONS})
        strategy = deterministic_strategy(game, assignment)
        report = value(game, strategy)
        n2 = report.question_count**2
        for prob in report.per_pair.values():
            assert prob >= 1 - n2 * (1 - report.value) - 1e-12

    def test_report_consistency(self):
        game, strategy = question_sampling(2)
        report = value(game, strategy)
        report.check_consistency()
        assert 0 <= report.value <= 1
        assert report.trivial_mass == pytest.approx(
            1 - len(report.per_pair) / report.question_count**2, abs=1e-12
        )


class TestTableGame:
    def test_round_trip_semantics(self):
        game = table_game(
            "pair",
            ["x", "y"],
            {"x": (0, 1), "y": (0, 1)},
            [("x", "y")],
            {("x", "y"): [(0, 0), (1, 1)]},
        )
        assert_synchronous(game)
        assert game.nontrivial("x", "y") and game.nontrivial("y", "x")
        assert game.decide("x", "y", 0, 0)
        assert not game.decide("x", "y", 0, 1)
        assert game.decide("y", "x", 1, 1)

    @pytest.mark.parametrize(
        "listed, accept",
        [([("x", "x")], {}),
         ([("x", "y")], {("x", "y"): [(0, 0)], ("x", "x"): [(0, 1), (1, 0)]})],
        ids=["nontrivial_pairs", "accept"],
    )
    def test_diagonal_entries_refused(self, listed, accept):
        # the diagonal always accepts exactly a = b; a listed entry there
        # would otherwise be dropped without a word
        with pytest.raises(ValueError, match=r"diagonal pair \('x', 'x'\)"):
            table_game("diag", ["x", "y"], {"x": (0, 1), "y": (0, 1)}, listed, accept)

    def test_trivial_and_forbidden_builtins(self):
        gt, st = trivial_game(2)
        assert value(gt, st).value == 1.0
        gc, sc = consistency_game(2)
        assert value(gc, sc).value == pytest.approx(1.0, abs=1e-12)
        gf, sf = forbidden_pair_game(2)
        assert value(gf, sf).value == pytest.approx(1 - 2 / 16, abs=1e-12)
