"""Game model, exact/sampled evaluation, builtin constructions."""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames.algebra import Measurement, bitstrings
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
    value,
    Game,
    StrategyEvaluator,
    SynchronousStrategy,
)
from syncgames.optimize import haar_unitary, perturb_strategy
from syncgames.transform import (
    INTRO_SPECIALS,
    introspect,
    lift_introspection,
    lift_oracularize,
    oracularize,
)

import syncgames.builtins as builtins
import syncgames.games as games
from helpers import (
    assert_synchronous,
    clash_game,
    element_digests,
    per_copy_strategy,
    rebuilt_game,
    recording,
    reference_conjugated,
    reference_kron_elements,
    reference_perturbed,
    reference_worst_commutator,
    rng_for,
    slot_mask,
    two_of_n_reference_mask,
)


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
        assert len(game.questions) == 15
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
        for strategy in (deterministic_strategy(game, assignment), perturb_strategy(honest, 0.3, 7, list(game.questions))):
            exact = value(game, strategy).value
            est, err = sampled_value(game, strategy, 100_000, seed=11)
            assert exact < 1.0 and abs(est - exact) <= 3 * err

    def test_non_projective_strategy_rejected(self):
        game, honest = magic_square()
        strategy = mixed_strategy(game, honest, ["s11"], 1.0)
        for evaluate in (value, lambda g, s: sampled_value(g, s, 20_000, seed=1)):
            with pytest.raises(ValueError, match="not projective"):
                evaluate(game, strategy)

    @pytest.mark.parametrize("alter", ["repeat", "scale"])
    def test_elements_not_summing_to_identity_refused(self, alter):
        """Both families give sum_k (k+1) M_k integer eigenvalues in 1..8:
        r1's answer-0 projector repeated at its zero answer 1 reads as
        answer 2, and its answer 3 scaled by 1.5 reads as answer 5."""
        game, honest = magic_square()
        elements = list(honest.measurement("r1").elements)
        if alter == "repeat":
            elements[1] = elements[0]
        else:
            elements[3] = 1.5 * elements[3]
        bad = Measurement(honest.measurement("r1").labels, elements, kind="projective")
        table = {x: bad if x == "r1" else honest.measurement(x) for x in game.questions}
        for evaluate in (value, lambda g, s: sampled_value(g, s, 2000, seed=1)):
            with pytest.raises(ValueError, match="does not sum to the identity"):
                evaluate(game, SynchronousStrategy(4, table))

    @pytest.mark.parametrize("lazy", [False, True])
    def test_wrong_dimension_refused_with_its_question(self, lazy):
        game, honest = magic_square()
        small = Measurement((0, 1), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], kind="projective")
        table = {x: small if x == "s11" else honest.measurement(x) for x in game.questions}
        for evaluate in (value, lambda g, s: sampled_value(g, s, 2000, seed=1)):
            with pytest.raises(ValueError, match="measurement for 's11' has dim 2, strategy dim 4"):
                evaluate(game, SynchronousStrategy(4, table.__getitem__ if lazy else table))

    def test_lazy_builder_runs_on_every_call(self):
        _, honest = magic_square()
        built = []
        strategy = SynchronousStrategy(4, lambda q: built.append(q) or honest.measurement(q))
        for _ in range(3):
            assert strategy.measurement("s11") is honest.measurement("s11")
        assert built == ["s11"] * 3

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(
        magnitude=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**16),
        mixed=st.lists(st.sampled_from(MS_QUESTIONS), max_size=3, unique=True),
        weight=st.sampled_from([1e-13, 0.01, 0.5, 1.0]),
    )
    def test_raises_exactly_when_value_raises(self, magnitude, seed, mixed, weight):
        game, honest = magic_square()
        strategy = mixed_strategy(game, perturb_strategy(honest, magnitude, seed, list(game.questions)), mixed, weight)
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
        lossy = (perturb_strategy(honest, 0.3, 7, list(game.questions)), deterministic_strategy(game, assignment))
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
    def test_no_pairs_refused(self):
        """max_pairs=0 would check nothing and report a clash strategy as
        oracularizable."""
        game, strategy = clash_game()
        assert not is_oracularizable(game, strategy)[0]
        with pytest.raises(ValueError, match="^max_pairs must be at least 1, got 0$"):
            is_oracularizable(game, strategy, max_pairs=0)

    @pytest.mark.parametrize("max_pairs", [1, 2, 7, 400, None])
    def test_diagonals_never_examined(self, monkeypatch, max_pairs):
        """A diagonal commutes with itself; a subsample of max_pairs holds
        that many off-diagonal pairs, or all of them."""
        game, strategy = magic_square()
        seen = []
        worst = games.StrategyEvaluator.worst_commutator
        monkeypatch.setattr(games.StrategyEvaluator, "worst_commutator",
                            lambda ev, x, y: seen.append((x, y)) or worst(ev, x, y))
        assert is_oracularizable(game, strategy, max_pairs=max_pairs)[0]
        off = [(x, y) for x, y in game.nontrivial_pairs() if x != y]
        assert all(x != y for x, y in seen) and len(set(seen)) == len(seen)
        assert len(seen) == (len(off) if max_pairs is None else min(max_pairs, len(off)))

    def test_dim_one_always(self):
        game, strategy = trivial_game(2)
        ok, worst = is_oracularizable(game, strategy)
        assert ok and worst == 0.0

    @pytest.mark.parametrize("make", [two_of_n_ms, question_sampling])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_worst_commutator_matches_per_answer_loop(self, make, perturbed):
        """The stacked residual has the bits of one answer of y at a time,
        on 400 evenly spaced off-diagonal pairs."""
        game, strategy = make(2)
        if perturbed:
            strategy = perturb_strategy(strategy, 0.05, 7, list(game.questions))
        ev = StrategyEvaluator(game, strategy)
        off = [(x, y) for x, y in game.nontrivial_pairs() if x != y]
        worst = []
        for x, y in off[:: len(off) // 400][:400]:
            worst.append(ev.worst_commutator(x, y))
            assert worst[-1] == reference_worst_commutator(ev, x, y), (x, y)
        assert max(worst) > 1e-2 if perturbed else max(worst) < 1e-12

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
        assert len(game.questions) == 2 * 15**2

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
        # exhaustive over the 202,500 ordered pairs at n = 2
        game, _ = two_of_n_ms(2)
        pairs = list(game.nontrivial_pairs())
        assert len(pairs) == len(set(pairs)) == 10404
        qs = list(game.questions)
        assert set(pairs) == {(q, r) for q in qs for r in qs if game.rule(q, r) is not None}

    def test_nontrivial_pair_order_pinned(self):
        # the order value() scores pairs in; sha256 of the list at n = 3
        pairs = list(two_of_n_ms(3)[0].nontrivial_pairs())
        assert len(pairs) == 306612
        digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
        assert digest == "94d19b194da213f0383a62caf5197e38e9d9535342f1ef8704c34015a4daa5f8"

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

    @pytest.mark.parametrize("name", ["question_sampling_2", "consistency_2.intro"])
    def test_composite_masks_transposed_and_read_only(self, name):
        """Every nontrivial pair's mirror has the transposed mask, and a
        special question's edge masks are tabulated read-only at build."""
        game = question_sampling(2)[0] if name == "question_sampling_2" else introspect(consistency_game(2)[0])
        edges = 0
        for x, y in game.nontrivial_pairs():
            mask = game.rule(x, y)
            assert np.array_equal(game.rule(y, x), mask.T), (x, y)
            if x != y and (isinstance(x, str) or isinstance(y, str)):
                assert not mask.flags.writeable and game.rule(x, y) is mask, (x, y)
                edges += 1
        assert edges == {"question_sampling_2": 240, "consistency_2.intro": 264}[name]


class TestTwoOfNMasks:
    """The 2-of-n product masks are built once per key (shared slots'
    Magic Square pairs and answer-set sizes) and shared read-only."""

    @staticmethod
    def check_against_reference(rule, pairs):
        for q, r in pairs:
            mask, expected = rule(q, r), two_of_n_reference_mask(q, r)
            if expected is None:
                assert mask is None, (q, r)
            else:
                assert mask.dtype == bool and np.array_equal(mask, expected), (q, r)

    @staticmethod
    def check_table():
        assert all(not mask.flags.writeable for mask in builtins._TWO_OF_N_MASKS.values())
        assert len(builtins._TWO_OF_N_MASKS) <= 16 * 51 + 2 * 51**2

    def test_every_nontrivial_pair_matches_the_reference(self):
        intro = introspect(consistency_game(2)[0])
        for game in (two_of_n_ms(2)[0], question_sampling(2)[0], intro):
            pairs = [
                (q, r) for q, r in game.nontrivial_pairs()
                if q != r and len(q) == 4 and len(r) == 4
            ]
            assert pairs, game.name
            self.check_against_reference(game.rule, pairs)
        self.check_table()

    def test_random_pairs_of_two_of_three(self):
        game, _ = two_of_n_ms(3)
        qs = game.questions
        picks = rng_for("two_of_n_masks", 3).integers(0, len(qs), size=(100_000, 2))
        self.check_against_reference(game.rule, ((qs[i], qs[j]) for i, j in picks))
        self.check_table()

    def test_table_bounded_and_trivial_pairs_store_nothing(self):
        # three copies reach every slot layout, so no larger n adds a key
        game, _ = two_of_n_ms(3)
        for q, r in game.nontrivial_pairs():
            game.rule(q, r)
        self.check_table()
        before = len(builtins._TWO_OF_N_MASKS)
        for q, r in [
            ((1, 2, "r1", "s11"), (3, 1, "c1", "s22")),  # no nontrivial shared pair
            ((1, 2, "r1", "s11"), (3, 2, "s12", "r2")),  # s11 and r2 share no variable
            ((1, 2, "s11", "s12"), (1, 3, "s21", "c3")),  # two distinct variables
            ((1, 2, "r1", "s11"), (2, 1, "c2", "r1")),  # one of two shared pairs trivial
        ]:
            assert game.rule(q, r) is None and game.rule(r, q) is None
        assert len(builtins._TWO_OF_N_MASKS) == before

    def test_one_mask_serves_a_key_on_any_copies(self):
        (g2, _), (g3, _) = two_of_n_ms(2), two_of_n_ms(3)
        mask = g2.rule((1, 2, "r1", "s11"), (1, 2, "s11", "c1"))
        assert g3.rule((2, 3, "r1", "s11"), (2, 3, "s11", "c1")) is mask
        assert g3.rule((3, 1, "r1", "s11"), (3, 1, "s11", "c1")) is mask
        # the free copies' questions count only through their answer-set sizes
        mask = g3.rule((1, 2, "r1", "s12"), (1, 3, "s11", "s13"))
        assert g3.rule((1, 3, "r1", "s22"), (1, 2, "s11", "s33")) is mask
        assert g3.rule((1, 2, "r1", "c1"), (1, 3, "s11", "s13")).shape == (64, 4) != mask.shape
        assert not mask.flags.writeable


class TestQuestionSampling:
    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            question_sampling(3)

    def test_honest_value(self):
        game, strategy = question_sampling(2)
        assert value(game, strategy).value == pytest.approx(1.0, abs=1e-10)

    def test_builds_no_two_of_n_game(self, monkeypatch):
        import syncgames.builtins as builtins

        def refuse(n):
            raise AssertionError("question_sampling built a 2-of-n game")

        monkeypatch.setattr(builtins, "two_of_n_ms", refuse)
        game, strategy = question_sampling(2)
        q = game.questions[0]
        assert strategy.measurement(q).labels == game.answers(q)

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
        "listed, accept, field",
        [([("x", "x")], {}, "nontrivial_pairs"),
         ([("x", "y")], {("x", "y"): [(0, 0)], ("x", "x"): [(0, 1), (1, 0)]}, "accept")],
        ids=["nontrivial_pairs", "accept"],
    )
    def test_diagonal_entries_refused(self, listed, accept, field):
        # the diagonal always accepts exactly a = b; a listed entry there
        # would otherwise be dropped without a word
        with pytest.raises(ValueError, match=rf"table field '{field}' lists the diagonal pair \('x', 'x'\)"):
            table_game("diag", ["x", "y"], {"x": (0, 1), "y": (0, 1)}, listed, accept)

    XY = {"x": (0, 1), "y": (0, 1)}

    @pytest.mark.parametrize(
        "answers, listed, accept, message",
        [
            ({"x": (0, 1)}, [], {}, r"table field 'answers' has no list for question 'y'"),
            (XY, [("x", "z")], {("x", "z"): [(0, 0)]},
             r"table field 'nontrivial_pairs' pair \('x', 'z'\) names a question not in 'questions'"),
            (XY, [("x", "y")], {("x", "y"): [(0, 0)], ("z", "y"): [(0, 0)]},
             r"table field 'accept' pair \('z', 'y'\) names a question not in 'questions'"),
            (XY, [("x", "y")], {},
             r"table field 'accept' has no entry for nontrivial pair \('x', 'y'\)"),
            # this loaded as a trivial pair that always wins
            (XY, [], {("x", "y"): [(0, 0), (1, 1)]},
             r"^table field 'accept' pair \('x', 'y'\) is not in 'nontrivial_pairs'$"),
        ],
        ids=["no_answer_list", "unknown_pair_question", "unknown_accept_question",
             "no_accept_set", "unlisted_accept_pair"],
    )
    def test_malformed_tables_refused(self, answers, listed, accept, message):
        with pytest.raises(ValueError, match=message):
            table_game("bad", ["x", "y"], answers, listed, accept)

    def test_accept_sets_that_are_not_mirrors_refused(self):
        # this table loaded with rule(y, x) != rule(x, y).T, which the
        # see-saw's coefficients and every builtin and transform assume
        accept = {("x", "y"): [(0, 0), (1, 1)], ("y", "x"): [(0, 1), (1, 0)]}
        with pytest.raises(ValueError, match=r"^table field 'accept' pair \('y', 'x'\) is not the mirror of \('x', 'y'\)$"):
            table_game("t", ["x", "y", "z"], {**self.XY, "z": (0, 1)}, [("x", "y")], accept)
        mirrored = {("x", "y"): [(0, 1)], ("y", "x"): [(1, 0)]}
        game = table_game("t", ["x", "y"], self.XY, [("x", "y")], mirrored)
        assert np.array_equal(game.rule("y", "x"), game.rule("x", "y").T)

    def test_accept_set_given_for_the_reversed_pair(self):
        game = table_game("rev", ["x", "y"], self.XY, [("x", "y")], {("y", "x"): [(0, 1)]})
        assert game.accept_mask("x", "y").tolist() == [[False, False], [True, False]]

    def test_trivial_and_forbidden_builtins(self):
        gt, st = trivial_game(2)
        assert value(gt, st).value == 1.0
        gc, sc = consistency_game(2)
        assert value(gc, sc).value == pytest.approx(1.0, abs=1e-12)
        gf, sf = forbidden_pair_game(2)
        assert value(gf, sf).value == pytest.approx(1 - 2 / 16, abs=1e-12)


@functools.cache
def factored(name):
    """(game, honest strategy with Kronecker factors) of each factored builder."""
    if name == "consistency_2.intro":
        base, honest = consistency_game(2)
        return introspect(base), lift_introspection(base, honest)
    return {"two_of_2_ms": two_of_n_ms, "question_sampling_2": question_sampling}[name](2)


FACTORED = ("two_of_2_ms", "question_sampling_2", "consistency_2.intro")
DENSE_REFUSALS = (
    "measurement is not projective within tolerance",
    "measurement is not a complete projective family",
    "measurement does not sum to the identity",
)


def dense_only(strategy):
    """The same measurements without factors: every form from one eigh."""
    return SynchronousStrategy(strategy.dim, strategy.measurement)


class TestFactoredStrategies:
    """Honest strategies over tensor copies name their measurements'
    Kronecker parts; evaluation builds eigenbases from the parts alone."""

    @pytest.mark.parametrize("name", FACTORED)
    def test_parts_multiply_to_the_dense_measurement(self, name):
        game, strategy = factored(name)
        qs = list(game.questions)
        picks = rng_for("factors", name).choice(len(qs), size=30, replace=False)
        checked = 0
        for q in [qs[int(i)] for i in picks] + qs[-11:]:
            spec = strategy.factors(q)
            if spec is None:  # the introspection specials stay dense
                assert q in INTRO_SPECIALS
                continue
            parts, index = spec
            m = strategy.measurement(q)
            assert m.labels == tuple(index) == game.answers(q)
            for row, element in zip(index.values(), m.elements):
                product = functools.reduce(np.kron, [p.element(a) for p, a in zip(parts, row)])
                assert np.array_equal(product, element), (q, row)
            # np.array_equal ignores signed zeros: the bytes must match too
            reference = reference_kron_elements(parts, index)
            assert element_digests(m.elements) == element_digests(reference), q
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("name", FACTORED)
    def test_factored_forms_match_dense_forms(self, name):
        game, strategy = factored(name)
        fac = StrategyEvaluator(game, strategy)
        dense = StrategyEvaluator(game, dense_only(strategy))
        rng = rng_for("factored-forms", name)
        pairs = list(game.nontrivial_pairs())
        picked = [pairs[int(i)] for i in rng.choice(len(pairs), size=40, replace=False)]
        if name.endswith(".intro"):  # Question Sampling questions against specials
            qs = list(game.questions)[: -len(INTRO_SPECIALS)]
            for s in INTRO_SPECIALS:
                q = qs[int(rng.integers(len(qs)))]
                picked += [(q, s), (s, q), ("S_A", s), (s, "E_B")]
        for x, y in picked:
            assert np.abs(fac.cross_gram(x, y) - dense.cross_gram(x, y)).max() <= 1e-12
            assert abs(fac.worst_commutator(x, y) - dense.worst_commutator(x, y)) <= 1e-12

    CORRUPTIONS = ("scale", "perturb", "zero", "rotate", "relabel", "duplicate_row", "swap_rows")

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(FACTORED),
        pick=st.integers(0, 10**6),
        corruption=st.sampled_from(CORRUPTIONS),
        seed=st.integers(0, 2**16),
    )
    def test_corrupted_factors_refused_as_dense(self, name, pick, corruption, seed):
        """A corrupted part or index row is refused by exact evaluation
        exactly when its dense product is, with one of the dense texts."""
        game, honest = factored(name)
        rng = np.random.default_rng(seed)
        if name != "two_of_2_ms" and pick % 3 == 0:  # a sampling or erasure question
            target = ("S_A", "S_B", "E_A", "E_B")[pick % 4]
        else:
            pool = [q for q in game.questions if q not in INTRO_SPECIALS]
            target = pool[pick % len(pool)]
        parts, index = honest.factors(target)
        parts, index = list(parts), dict(index)
        labels = list(index)
        k = int(rng.integers(len(parts)))
        part = parts[k]
        elements = list(part.elements)
        j = int(rng.integers(len(elements)))
        if corruption == "scale":
            # (k + 1) * 1.1234 is an integer for no outcome index k below
            # 4999, so the scaled range gets no integer eigenvalue
            elements[j] = 1.1234 * elements[j]
        elif corruption == "perturb":
            h = rng.normal(size=elements[j].shape) + 1j * rng.normal(size=elements[j].shape)
            elements[j] = elements[j] + 0.05 * (h + h.conj().T)
        elif corruption == "zero":
            elements[j] = np.zeros_like(elements[j])
        elif corruption == "rotate":
            u = haar_unitary(part.dim, rng)
            elements = [u @ e @ u.conj().T for e in elements]
        a, b = rng.choice(len(labels), size=2, replace=False)
        if corruption == "relabel":
            index = {("?" if lab == labels[a] else lab): row for lab, row in index.items()}
        elif corruption == "duplicate_row":
            index[labels[a]] = index[labels[b]]
        elif corruption == "swap_rows":
            index[labels[a]], index[labels[b]] = index[labels[b]], index[labels[a]]
        parts[k] = Measurement(part.labels, elements, kind="projective")

        def factors(q):
            return (parts, index) if q == target else honest.factors(q)

        corrupted = SynchronousStrategy(honest.dim, honest.measurement, factors=factors)
        # exact evaluation over the first pairs that ask the target question
        near = [p for p in game.nontrivial_pairs() if target in p][:8]
        around = Game(game.name, game.questions, game.answers, game.rule,
                      nontrivial_pairs=lambda: iter(near))
        outcomes = []
        for strategy in (corrupted, dense_only(corrupted)):
            try:
                value(around, strategy)
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        fac, dense = outcomes
        assert (fac is None) == (dense is None), outcomes
        if corruption == "relabel":
            assert fac == dense and "do not match game answers" in fac
        else:
            assert fac in (None,) + DENSE_REFUSALS, outcomes
        if corruption == "perturb":
            assert fac is not None

    def test_row_naming_no_outcome_of_its_part(self):
        game, honest = two_of_n_ms(2)
        q = game.questions[0]
        parts, index = honest.factors(q)
        label = next(iter(index))
        index = {**index, label: ("?", index[label][1])}

        def factors(x):
            return (parts, index) if x == q else honest.factors(x)

        strategy = SynchronousStrategy(honest.dim, honest.measurement, factors=factors)
        with pytest.raises(ValueError, match="not a complete projective family"):
            StrategyEvaluator(game, strategy).form(q)

    def test_parts_of_wrong_dimension(self):
        game, honest = two_of_n_ms(2)
        q = game.questions[0]
        strategy = SynchronousStrategy(honest.dim * 2, honest.measurement, factors=honest.factors)
        with pytest.raises(ValueError, match="has dim 16, strategy dim 32"):
            StrategyEvaluator(game, strategy).form(q)

    def test_parts_diagonalized_once_per_evaluator(self, monkeypatch):
        game, strategy = question_sampling(2)
        built = []
        monkeypatch.setattr(strategy, "_builder", lambda q: built.append(q))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
        assert value(game, strategy).value == pytest.approx(1.0, abs=1e-12)
        # 15 Magic Square measurements, the C^4 identity and two sampling parts
        assert built == [] and calls == [(4, 4)] * 18


def _oracularized_magic_square():
    base, honest = magic_square()
    return oracularize(base), lift_oracularize(base, honest)


STACKED = {
    **BUILTINS,
    "magic_square": magic_square,
    "magic_square.orac": _oracularized_magic_square,
    **{name: functools.partial(factored, name) for name in FACTORED},
}


def assert_zero_elements_positive(elements) -> int:
    """Every exactly zero element is +0 throughout; returns their count."""
    zeros = [e for e in elements if not e.any()]
    assert all(not np.signbit(e.view(float)).any() for e in zeros)
    return len(zeros)


class TestDenseBytes:
    """perturb_strategy and conjugated conjugate a question's nonzero
    elements as one stack; every element keeps the bytes of the
    per-element path, signed zeros included, and a zero one stays +0."""

    @pytest.mark.parametrize("name", FACTORED)
    def test_perturbed_elements_keep_their_bytes(self, name):
        game, honest = factored(name)
        qs = list(game.questions)
        out = perturb_strategy(honest, 0.05, 7, qs)
        reference = reference_perturbed(honest, 0.05, 7, qs)
        zeros = 0
        for x in qs:
            elements = out.measurement(x).elements
            assert element_digests(elements) == element_digests(reference[x]), x
            zeros += assert_zero_elements_positive(elements)
        assert zeros > 5000  # the product answers no copy's rule admits

    @pytest.mark.parametrize("name", ["consistency_2", "consistency_2.intro"])
    def test_conjugated_elements_keep_their_bytes(self, name):
        if name == "consistency_2":
            game, strategy = consistency_game(2)
        else:
            game, lift = factored(name)
            strategy = SynchronousStrategy(lift.dim, {x: lift.measurement(x) for x in game.questions})
        u = haar_unitary(strategy.dim, rng_for("conjugated-bytes", name))
        out = strategy.conjugated(u)
        for x in game.questions:
            elements = out.measurement(x).elements
            reference = reference_conjugated(strategy.measurement(x).elements, u)
            assert element_digests(elements) == element_digests(reference), x
            assert_zero_elements_positive(elements)


class TestStackedEvaluation:
    """win_probabilities scores the pairs of one answer shape as stacks;
    every probability keeps the bits of the one-pair win_probability, or
    of copy_win where that answers."""

    @pytest.mark.parametrize("kind", ["honest", "perturbed", "conjugated"])
    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_same_bits_as_one_pair_at_a_time(self, name, kind):
        game, strategy = STACKED[name]()
        if kind != "honest":
            strategy = perturb_strategy(strategy, 0.05, 7, list(game.questions))
        if kind == "conjugated":
            strategy = strategy.conjugated(haar_unitary(strategy.dim, rng_for("stacked", name)))
        pairs = list(game.nontrivial_pairs())
        one = StrategyEvaluator(game, strategy)
        per_copy = [one.copy_win(x, y) for x, y in pairs]
        expected = [one.win_probability(*pair) if p is None else p for pair, p in zip(pairs, per_copy)]
        assert StrategyEvaluator(game, strategy).win_probabilities(pairs) == expected
        if kind != "honest":  # dense strategies keep the one-pair bits throughout
            assert per_copy == [None] * len(pairs)

    def test_classes_longer_than_one_stack(self):
        game, strategy = factored("two_of_2_ms")
        shapes = [(len(game.answers(x)), len(game.answers(y))) for x, y in game.nontrivial_pairs()]
        stack = games._STACK_BYTES // (16 * strategy.dim**2)
        assert 1 < stack < shapes.count((16, 4)) and stack < shapes.count((4, 16))

    @pytest.mark.parametrize("first", ["wrong_dim", "mixed"])
    def test_refusal_is_the_first_met_in_pair_order(self, first):
        """Two faulty questions: value refuses with the text of the one
        the one-pair loop reaches first."""
        game, honest = magic_square()
        pairs = list(game.nontrivial_pairs())
        order = list(dict.fromkeys(q for pair in pairs for q in pair))
        early, late = order[3], order[-3]
        wrong_dim, mixed = (early, late) if first == "wrong_dim" else (late, early)
        mixed_in = mixed_strategy(game, honest, [mixed], 0.5)
        table = {x: mixed_in.measurement(x) for x in game.questions}
        table[wrong_dim] = Measurement((0, 1), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], kind="projective")
        strategy = SynchronousStrategy(4, table.__getitem__)
        ev = StrategyEvaluator(game, strategy)
        with pytest.raises(ValueError) as one:
            [ev.win_probability(x, y) for x, y in pairs]
        with pytest.raises(ValueError) as stacked:
            value(game, strategy)
        assert str(stacked.value) == str(one.value)
        if first == "wrong_dim":
            assert str(one.value) == f"measurement for {wrong_dim!r} has dim 2, strategy dim 4"
        else:
            assert str(one.value) == "measurement is not projective within tolerance"


class TestPerCopyEvaluation:
    """value scores a pair with slots whose questions are copy layouts as
    the product of its shared copies' Magic Square win probabilities."""

    @pytest.mark.parametrize("name", FACTORED)
    def test_copy_masks_multiply_to_the_rule(self, name):
        game, _ = factored(name)
        slotted = 0
        for x, y in game.nontrivial_pairs():
            if game.slots(x, y) is None:  # sampling, erasure and introspection questions
                assert isinstance(x, str) or isinstance(y, str), (x, y)
                continue
            assert np.array_equal(slot_mask(game, x, y), game.rule(x, y)), (x, y)
            slotted += 1
        assert slotted == 10404

    @pytest.mark.parametrize("name", FACTORED)
    def test_honest_pairs_agree_with_win_probability(self, name):
        game, strategy = factored(name)
        report = value(game, strategy)
        ev = StrategyEvaluator(game, strategy)
        per_copy = 0
        for (x, y), p in report.per_pair.items():
            assert abs(p - ev.win_probability(x, y)) <= 1e-15, (x, y)
            if game.slots(x, y) is not None:
                assert ev.copy_win(x, y) == p and abs(p - 1.0) <= 1e-14, (x, y)
                per_copy += 1
        assert per_copy == 10404

    def test_seeded_pairs_of_two_of_three(self):
        """At d=64 the dense reference itself sits up to 2.2e-15 from 1 on
        these pairs, and up to 1.3e-15 from the per-copy value."""
        game, strategy = two_of_n_ms(3)
        report = value(game, strategy)
        pairs = list(report.per_pair)
        ev = StrategyEvaluator(game, strategy)
        for i in rng_for("per-copy", 3).choice(len(pairs), size=20000, replace=False):
            x, y = pairs[int(i)]
            p = report.per_pair[(x, y)]
            assert abs(p - ev.win_probability(x, y)) <= 4e-15 and abs(p - 1.0) <= 1e-14, (x, y)

    @settings(derandomize=True, database=None, max_examples=8, deadline=None)
    @given(magnitude=st.floats(0.0, 0.3), seed=st.integers(0, 2**16))
    def test_per_copy_perturbations_match_hidden_factors(self, magnitude, seed):
        """Each copy carries its own perturbed Magic Square parts; hiding
        the factors sends every pair through the dense path."""
        game, _ = two_of_n_ms(2)
        strategy = per_copy_strategy(2, magnitude, seed)
        ev = StrategyEvaluator(game, strategy)
        assert all(ev.copy_win(x, y) is not None for x, y in game.nontrivial_pairs())
        fac, dense = value(game, strategy), value(game, dense_only(strategy))
        assert abs(fac.value - dense.value) <= 1e-14
        assert max(abs(p - dense.per_pair[pair]) for pair, p in fac.per_pair.items()) <= 1e-14

    def test_component_on_the_wrong_copy_takes_the_dense_path(self):
        game, honest = two_of_n_ms(2)
        q = (1, 2, "r1", "s12")
        parts, index = honest.factors(q)
        swapped = [parts[1], parts[0]], {a: row[::-1] for a, row in index.items()}

        def factors(x):
            return swapped if x == q else honest.factors(x)

        strategy = SynchronousStrategy(honest.dim, None, factors=factors)
        ev = StrategyEvaluator(game, strategy)
        assert ev.layout(q) is not None  # a copy layout still, on copies 1 and 0
        report = value(game, strategy)
        # against itself q keeps the per-copy path: both sides share its copies
        asked = [pair for pair in report.per_pair if q in pair and pair != (q, q)]
        assert asked and all(ev.copy_win(x, y) is None for x, y in asked)
        assert [report.per_pair[pair] for pair in asked] == [ev.win_probability(x, y) for x, y in asked]
        for pair in ((q, q), next(pair for pair in report.per_pair if q not in pair)):
            assert ev.copy_win(*pair) == report.per_pair[pair]
        assert report.value < 1 and abs(report.value - value(game, dense_only(strategy)).value) <= 1e-14

    @pytest.mark.parametrize("first", ["wrong_dim", "non_projective"])
    def test_refusal_is_the_first_met_in_pair_order(self, first):
        """A dense question of the wrong dimension and a copy layout with a
        non-projective part: value refuses with the text of the one the
        one-pair loop reaches first."""
        game, honest = two_of_n_ms(2)
        pairs = list(game.nontrivial_pairs())
        order = list(dict.fromkeys(q for pair in pairs for q in pair))
        early, late = order[3], order[-3]
        wrong_dim, non_projective = (early, late) if first == "wrong_dim" else (late, early)
        parts, index = honest.factors(non_projective)
        parts[1] = Measurement(parts[1].labels, [1.1234 * e for e in parts[1].elements], kind="projective")

        def factors(x):
            if x == wrong_dim:
                return None
            return (parts, index) if x == non_projective else honest.factors(x)

        def build(x):
            eye, zero = np.eye(2), np.zeros((2, 2))
            return Measurement(game.answers(x), [eye] + [zero] * (len(game.answers(x)) - 1), kind="projective")

        strategy = SynchronousStrategy(honest.dim, build, factors=factors)
        ev = StrategyEvaluator(game, strategy)
        with pytest.raises(ValueError) as one:
            [ev.win_probability(x, y) for x, y in pairs]
        with pytest.raises(ValueError) as per_copy:
            value(game, strategy)
        assert str(per_copy.value) == str(one.value)
        if first == "wrong_dim":
            assert str(one.value) == f"measurement for {wrong_dim!r} has dim 2, strategy dim 16"
        else:
            assert str(one.value) == "measurement is not projective within tolerance"
