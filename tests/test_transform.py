"""Oracularization, introspection, answer reduction, gapless compression."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from syncgames.builtins import (
    consistency_game,
    forbidden_pair_game,
    magic_square,
    trivial_game,
)
from syncgames.cooklevin import compile_cnf, simulate, tableau_assignment
from syncgames.games import (
    Game,
    StrategyEvaluator,
    SynchronousStrategy,
    index_answer_bits,
    is_oracularizable,
    sampled_value,
    table_game,
    value,
)
from syncgames.algebra import DEFAULT_TOL, Measurement, bitstrings
from syncgames.optimize import haar_unitary, perturb_strategy
from syncgames.transform import (
    BudgetError,
    IndexMaps,
    INTRO_SPECIALS,
    answer_reduce,
    gapless_compress,
    introspect,
    lift_answer_reduce,
    lift_gapless_compress,
    lift_introspection,
    lift_oracularize,
    oracularize,
    synthesize_tm_decider,
)

from helpers import (
    assert_synchronous,
    engaged_rows,
    question_index,
    rebuilt_game,
    recording,
    rng_for,
)


@functools.cache
def reduced_games() -> dict:
    """The answer-reduced games whose engaged-row masks are pinned."""
    return {
        "consistency_2.ans": answer_reduce(consistency_game(2)[0], 4),
        "forbidden_pair_2.ans": answer_reduce(forbidden_pair_game(2)[0], 4),
        "consistency_2.intro.ans": gapless_compress(consistency_game(2)[0], 8),
    }


@functools.cache
def reduced_rows(name: str) -> list:
    return engaged_rows(reduced_games()[name], 60, rng_for("armask", name))


# sha256 of the concatenated np.packbits(accept_mask(q1, q2)) over
# reduced_rows(name)
PINNED_MASKS = {
    "consistency_2.ans": "8ab23b105490bbc65ec805559ed574ae748c114984e077d18e7406979d0ad2a0",
    "forbidden_pair_2.ans": "d1f8985f6ce1ec5e7de092d067fbd3c2eb79a573a408d5ca08da207b61872591",
    "consistency_2.intro.ans": "e501025893efe009411fedae9a33afaf9d6d78c9c237d287f960683c7c0eac8e",
}


# sha256 of the float64 StrategyEvaluator.win_probability values over
# reduced_rows(name), for the honest lift ("honest") and for the lift of the
# honest strategy conjugated by haar_unitary(dim, rng_for("arwin", name))
# ("conjugated")
PINNED_WINS = {
    ("consistency_2.ans", "honest"): "41e09ab16161976ef905e3c39d7c6542759631afa4fff8d624fa0f56be7cf958",
    ("consistency_2.ans", "conjugated"): "1282b836d619e71054b11578f5201251d80c42ea41677d2514d9494bd842a432",
    ("consistency_2.intro.ans", "honest"): "34891537aec9f6bb17bce1af6034fba0f640345c34dca565f6fd3cb12b9462b5",
    ("consistency_2.intro.ans", "conjugated"): "34891537aec9f6bb17bce1af6034fba0f640345c34dca565f6fd3cb12b9462b5",
    ("forbidden_pair_2.ans", "honest"): "41e09ab16161976ef905e3c39d7c6542759631afa4fff8d624fa0f56be7cf958",
    ("forbidden_pair_2.ans", "conjugated"): "41e09ab16161976ef905e3c39d7c6542759631afa4fff8d624fa0f56be7cf958",
}


def reduced_lift(name: str, strategy):
    """Honest lift of a base strategy onto reduced_games()[name]."""
    game = reduced_games()[name]
    if hasattr(game, "intro_game"):
        return lift_gapless_compress(consistency_game(2)[0], strategy, 8, compressed=game)
    ctx = game.ar_context
    return lift_answer_reduce(ctx.game, strategy, ctx.T, reduced=game)


def clash_game():
    """Game on {0,1}^2 whose off-diagonal pairs are all nontrivial, with a
    strategy measuring anticommuting bases: never oracularizable."""
    questions = bitstrings(2)
    game = Game(
        "clash",
        list(questions),
        lambda x: (0, 1),
        # every off-diagonal pair nontrivial and winning: commuting required
        lambda x, y: np.ones((2, 2), dtype=bool),
    )
    zb = Measurement((0, 1), [np.diag([1.0, 0j]), np.diag([0j, 1.0])], "projective")
    xb = Measurement(
        (0, 1),
        [np.full((2, 2), 0.5, dtype=complex), np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)],
        "projective",
    )
    table = {q: (zb if q[0] == 0 else xb) for q in questions}
    return game, SynchronousStrategy(2, table)


def index_pairs(game, rng, count: int) -> np.ndarray:
    """Question index pairs of an answer-reduced game: uniform ones, then
    ones whose sides both ask a single proof index, then ones whose sides
    both ask an index pair or triple; in the last two, every other pair
    shares its game question."""
    qs = game.questions
    n_proof, L = qs.n_proof, game.ar_context.L
    n_game = len(qs) // n_proof
    out = [rng.integers(0, len(qs), size=(count, 2))]
    for lo, hi in ((0, L), (L, n_proof)):
        g = rng.integers(0, n_game, size=(count, 2))
        g[::2, 1] = g[::2, 0]
        out.append(g * n_proof + rng.integers(lo, hi, size=(count, 2)))
    return np.concatenate(out)


def single_question_game():
    return table_game("single", ["q"], {"q": (0, 1)}, [], {})


class TestOracularize:
    def test_single_question_count(self):
        game = oracularize(single_question_game())
        assert game.question_count() == 2  # q and (q, q)

    def test_magic_square_count(self):
        base, _ = magic_square()
        game = oracularize(base)
        assert game.question_count() == 15 + 225

    def test_honest_lift_value_one(self):
        base, strategy = magic_square()
        game = oracularize(base)
        lifted = lift_oracularize(base, strategy)
        report = value(game, lifted)
        assert report.value == pytest.approx(1.0, abs=1e-10)

    def test_lift_rejects_non_oracularizable(self):
        base, strategy = magic_square()
        with pytest.raises(ValueError, match="not oracularizable"):
            lift_oracularize(base, perturb_strategy(strategy, 0.1, 5))

    def test_output_synchronous(self):
        base, _ = magic_square()
        game = oracularize(base)
        assert_synchronous(game)


class TestIntrospect:
    def test_question_count(self):
        base, _ = trivial_game(2)
        game = introspect(base)
        # |QS_2| + 7 special questions
        assert game.question_count() == (2 * 15 * 15 + 4) + 7

    def test_special_adjacency_matches_figure(self):
        base, _ = trivial_game(2)
        game = introspect(base)
        # independent oracle: the twelve-edge adjacency over the special
        # and sampling/erasure questions
        expected = {
            frozenset(e)
            for e in [
                ("I", "I_A"),
                ("I", "I_B"),
                ("I_A", "I_A.S_B"),
                ("I_A", "S_A"),
                ("I_A", "I_A.E_B"),
                ("I_B", "I_B.S_A"),
                ("I_B", "S_B"),
                ("I_B", "I_B.E_A"),
                ("I_A.E_B", "E_B"),
                ("I_B.E_A", "E_A"),
                ("I_A.S_B", "S_B"),
                ("I_B.S_A", "S_A"),
            ]
        }
        nodes = list(INTRO_SPECIALS) + ["S_A", "S_B", "E_A", "E_B"]
        got = set()
        for q in nodes:
            for r in nodes:
                if q != r and game.nontrivial(q, r):
                    got.add(frozenset((q, r)))
        assert got == expected
        for q in nodes:
            assert game.nontrivial(q, q)

    def test_requires_bitstring_questions(self):
        with pytest.raises(ValueError):
            introspect(single_question_game())

    def test_trivial_base_lift_value_one(self):
        base, strategy = trivial_game(2)
        game = introspect(base)
        lifted = lift_introspection(base, strategy)
        assert value(game, lifted).value == pytest.approx(1.0, abs=1e-10)

    def test_output_synchronous(self):
        base, _ = trivial_game(2)
        game = introspect(base)
        assert_synchronous(game)

    def test_decider_symmetry_sampled(self):
        base, _ = forbidden_pair_game(2)
        reduced = answer_reduce(base, 4)
        rng = rng_for("trsymm", 0)

        def check(game, x, y):
            ax = game.answers(x)
            ay = game.answers(y)
            a = ax[int(rng.integers(0, len(ax)))]
            b = ay[int(rng.integers(0, len(ay)))]
            assert game.decide(x, y, a, b) == game.decide(y, x, b, a)
            assert game.nontrivial(x, y) == game.nontrivial(y, x)
            assert np.array_equal(game.accept_mask(y, x), game.accept_mask(x, y).T)

        for game in (introspect(base), oracularize(base), reduced):
            qs = game.questions
            n = len(qs)
            for _ in range(400):
                x = qs[int(rng.integers(0, n))]
                y = qs[int(rng.integers(0, n))]
                check(game, x, y)
        # engaged rows of the reduced games, which uniform draws miss
        for name, game in reduced_games().items():
            for x, y in reduced_rows(name):
                check(game, x, y)

    def test_pair_iterator_agrees_with_predicate(self):
        base, _ = forbidden_pair_game(2)
        for game in (introspect(base), oracularize(base)):
            pairs = set(game.nontrivial_pairs())
            assert len(pairs) == len(list(game.nontrivial_pairs()))
            qs = list(game.questions)
            rng = rng_for("pairiter", game.name)
            for _ in range(4000):
                q = qs[int(rng.integers(0, len(qs)))]
                r = qs[int(rng.integers(0, len(qs)))]
                assert ((q, r) in pairs) == game.nontrivial(q, r)
            for q, r in list(pairs)[::97]:
                assert game.nontrivial(q, r)


class TestLiftIntrospection:
    def test_value_one_consistency_base(self):
        base, strategy = consistency_game(2)
        game = introspect(base)
        lifted = lift_introspection(base, strategy)
        assert lifted.dim == 2 ** (2 * 2) * 2
        assert value(game, lifted).value == pytest.approx(1.0, abs=1e-10)

    def test_deficit_only_on_transcript_rows(self):
        base, strategy = forbidden_pair_game(2)
        base_value = value(base, strategy).value
        game = introspect(base)
        lifted = lift_introspection(base, strategy)
        report = value(game, lifted)
        assert report.value >= base_value - 1e-12
        lossy = {pair for pair, p in report.per_pair.items() if p < 1 - 1e-10}
        assert lossy == {("I", "I_A"), ("I_A", "I"), ("I", "I_B"), ("I_B", "I")}
        for pair in lossy:
            assert report.per_pair[pair] == pytest.approx(base_value, abs=1e-10)
        # derived identity: only the four transcript rows lose mass
        n = game.question_count()
        expected = 1 - 4 * (1 - base_value) / n**2
        assert report.value == pytest.approx(expected, abs=1e-12)

    def test_lift_is_oracularizable_sampled(self):
        base, strategy = consistency_game(2)
        game = introspect(base)
        lifted = lift_introspection(base, strategy)
        ok, worst = is_oracularizable(game, lifted, max_pairs=150)
        assert ok, f"worst commutator {worst}"

    def test_rejects_non_oracularizable(self):
        with pytest.raises(ValueError, match="not oracularizable"):
            lift_introspection(*clash_game())

    def test_refuses_a_base_that_introspect_refuses(self):
        """Three of the four 2-bit strings: both refuse with one message,
        before any measurement is built."""
        three = bitstrings(2)[:3]
        base = table_game("three", three, {x: (0, 1) for x in three}, [], {})
        strategy = SynchronousStrategy(1, {})
        with pytest.raises(ValueError) as refused:
            introspect(base)
        with pytest.raises(ValueError) as lift_refused:
            lift_introspection(base, strategy)
        assert str(lift_refused.value) == str(refused.value)
        assert "{0,1}^l" in str(refused.value)

    # sha256 over the seven special questions, then 20 seeded Question
    # Sampling questions, of "q|labels" and the complex128 bytes of each
    # element of the honest lift's measurement
    LIFT_DIGESTS = {
        "consistency": "917ad935051cf2009a2ea6605b2917a9a42fb9b9cd5a9a86471ed1012ef2f670",
        "forbidden_pair": "32b0e72959283b91e162fe86367f457f54757fa5863a5f8948020b3281c1b820",
    }

    @pytest.mark.parametrize(
        "name, make", [("consistency", consistency_game), ("forbidden_pair", forbidden_pair_game)]
    )
    def test_honest_lift_pinned(self, name, make):
        base, strategy = make(2)
        lifted = lift_introspection(base, strategy)
        qs = list(introspect(base).questions)[: -len(INTRO_SPECIALS)]
        picks = rng_for("introlift", name).integers(0, len(qs), size=20)
        digest = hashlib.sha256()
        for q in list(INTRO_SPECIALS) + [qs[int(i)] for i in picks]:
            m = lifted.measurement(q)
            digest.update(f"{q!r}|{m.labels!r}\n".encode())
            for e in m.elements:
                digest.update(np.ascontiguousarray(e, dtype=complex).tobytes())
        assert digest.hexdigest() == self.LIFT_DIGESTS[name]


class TestSynthesizedDeciders:
    def test_projection_semantics(self):
        game, _ = forbidden_pair_game(2)
        decider = synthesize_tm_decider(game)
        T = 4
        for x, y in game.nontrivial_pairs():
            if x == y:
                continue
            machine = decider.machine_for(x, y)
            _, encode = index_answer_bits(len(game.answers(x)))
            for k, a in enumerate(game.answers(x)):
                bits = list(encode(k))
                witness = bits + [0] * (2 * T - len(bits))
                outcome, _ = simulate(machine, witness, T)
                expected = any(game.decide(x, y, a, b) for b in game.answers(y))
                assert (outcome == "accept") == expected

    def test_state_count_uniform(self):
        game, _ = consistency_game(2)
        decider = synthesize_tm_decider(game)
        sizes = set()
        for x, y in game.nontrivial_pairs():
            sizes.add(len(decider.machine_for(x, y).states))
        sizes.add(len(decider.machine_for((0, 0), (0, 0)).states))
        assert len(sizes) == 1

    # sha256 of the state count, then "x|y|machine_for(x, y).encode()" per
    # nontrivial pair in enumeration order (computed before machines with
    # the same projection were shared)
    DECIDER_DIGESTS = {
        "consistency": "3fdaa7e1a4237d024002fa1ea10f67cad628d06b617dd6c9594c208e3be74c51",
        "forbidden_pair": "7ae584ea0e9a41f02a4266279375ca6df0b5082c368d6e84ddcccbe090be4ef5",
    }

    @pytest.mark.parametrize(
        "name, make", [("consistency", consistency_game), ("forbidden_pair", forbidden_pair_game)]
    )
    def test_introspection_deciders_pinned(self, name, make):
        game = introspect(make(2)[0])
        decider = synthesize_tm_decider(game)
        digest = hashlib.sha256(f"{decider.state_count}\n".encode())
        encoded = {}
        for x, y in game.nontrivial_pairs():
            machine = decider.machine_for(x, y)
            if id(machine) not in encoded:
                encoded[id(machine)] = machine.encode()
            digest.update(f"{x!r}|{y!r}|{encoded[id(machine)]}\n".encode())
        assert digest.hexdigest() == self.DECIDER_DIGESTS[name]

    DECIDER_GAMES = {
        "consistency": lambda: consistency_game(2)[0],
        "forbidden_pair": lambda: forbidden_pair_game(2)[0],
        "consistency.intro": lambda: introspect(consistency_game(2)[0]),
        "forbidden_pair.intro": lambda: introspect(forbidden_pair_game(2)[0]),
        "magic_square.orac": lambda: oracularize(magic_square()[0]),
    }

    @pytest.mark.parametrize("name", sorted(DECIDER_GAMES))
    def test_deciders_halt_within_answer_width(self, name):
        """Every decider halts within the width of the answer it reads, on
        every input of that width, so an answer width within T bounds its
        run by T and answer_reduce needs no runtime check."""
        game = self.DECIDER_GAMES[name]()
        decider = synthesize_tm_decider(game)
        machines = {}
        for x, y in game.nontrivial_pairs():
            width, _ = index_answer_bits(len(game.answers(x)))
            machine = decider.machine_for(x, y)
            machines[(id(machine), width)] = (machine, width)
        assert len(machines) > 1
        for machine, width in machines.values():
            if width == 0:
                continue
            for bits in itertools.product((0, 1), repeat=width):
                for padding in ((0,) * width, (1,) * width):
                    outcome, _ = simulate(machine, bits + padding, width)
                    assert outcome != "timeout", (machine.states, bits)


class TestSynchronicity:
    """Transformed games are synchronous by construction: Game.rule answers
    every diagonal pair itself, so no pair rule sees one."""

    # name -> (build, questions drawn, or None for all of them)
    TRANSFORMED = {
        "magic_square.orac": (lambda: oracularize(magic_square()[0]), None),
        "consistency.orac": (lambda: oracularize(consistency_game(2)[0]), None),
        "consistency.intro": (lambda: introspect(consistency_game(2)[0]), None),
        "forbidden_pair.intro": (lambda: introspect(forbidden_pair_game(2)[0]), None),
        "consistency.ans": (lambda: reduced_games()["consistency_2.ans"], 200),
        "forbidden_pair.ans": (lambda: reduced_games()["forbidden_pair_2.ans"], 200),
        "consistency.intro.ans": (lambda: reduced_games()["consistency_2.intro.ans"], 200),
    }

    @pytest.mark.parametrize("name", sorted(TRANSFORMED))
    def test_diagonal_is_read_only_identity(self, name):
        make, count = self.TRANSFORMED[name]
        assert_synchronous(make(), count)

    def test_pair_rules_never_see_the_diagonal(self):
        calls = []
        base = recording(consistency_game(2)[0], calls)
        ms, ms_honest = magic_square()
        recording(ms, calls)
        # transforms read base masks through Game.rule, the diagonal included
        orac = recording(oracularize(ms), calls)
        assert value(orac, lift_oracularize(ms, ms_honest)).value == pytest.approx(1.0)
        intro = recording(introspect(base), calls)
        for x, y in intro.nontrivial_pairs():
            intro.accept_mask(x, y)
        for reduced in (answer_reduce(base, 4), gapless_compress(base, 8)):
            recording(reduced, calls)
            assert_synchronous(reduced, 100)
            rows = engaged_rows(reduced, 20, rng_for("diagonal-calls", reduced.name))
            for q1, q2 in rows + [(q1, q1) for q1, _ in rows]:
                reduced.accept_mask(q1, q2)
        assert len(calls) > 1000
        assert all(x != y for x, y in calls)


class TestAnswerReduce:
    def test_answer_alphabet(self):
        game, _ = trivial_game(2)
        reduced = answer_reduce(game, 3)
        sizes = set()
        labels = set()
        qs = reduced.questions
        rng = rng_for("alpha", 0)
        for idx in rng.integers(0, len(qs), size=200):
            answers = reduced.answers(qs[int(idx)])
            sizes.add(len(answers))
            labels.update(answers)
        # single bits, pairs and triples: 2 + 4 + 8 = 14 labels overall
        assert sizes <= {2, 4, 8}
        assert len(labels) <= 14

    def test_index_maps(self):
        maps = IndexMaps(5)
        assert [maps.eta(i) for i in range(1, 6)] == [1, 2, 3, 4, 5]
        assert [maps.lam(i) for i in range(1, 6)] == [6, 7, 8, 9, 10]
        assert maps.eta_inv(3) == 3 and maps.eta_inv(7) is None
        assert maps.lam_inv(7) == 2 and maps.lam_inv(3) is None
        with pytest.raises(ValueError):
            maps.eta(6)

    def test_row2_wiring_against_compiled_formula(self):
        game, strategy = forbidden_pair_game(2)
        T = 4
        reduced = answer_reduce(game, T)
        ctx = reduced.ar_context
        rng = rng_for("row2", 0)
        compiled = {}
        for _ in range(120):
            pairs = [p for p in game.nontrivial_pairs() if p[0] != p[1]]
            x, y = pairs[int(rng.integers(0, len(pairs)))]
            i = int(rng.integers(1, ctx.L + 1))
            jkl = tuple(
                int(v) for v in (i, rng.integers(1, ctx.L + 1), rng.integers(1, ctx.L + 1))
            )
            q1 = (("ora", x, y), i)
            q2 = (("ora", x, y), jkl)
            assert reduced.nontrivial(q1, q2)
            if (x, y) not in compiled:
                compiled[(x, y)] = compile_cnf(ctx.decider.machine_for(x, y), T, 2 * T)
            cnf = compiled[(x, y)]
            for a1 in reduced.answers(q1):
                for a2 in reduced.answers(q2):
                    # independent oracle: clauses filtered from the full
                    # compiled formula, plus the bit-consistency condition
                    assign = {}
                    consistent = True
                    for var, bit in zip(jkl, a2):
                        if assign.setdefault(var, bit) != bit:
                            consistent = False
                    expected = consistent and assign.get(i) == a1
                    if expected:
                        for clause in cnf.clauses:
                            vs = {abs(l) for l in clause}
                            if vs <= set(jkl):
                                if not any(
                                    (assign[abs(l)] == 1) == (l > 0) for l in clause
                                ):
                                    expected = False
                                    break
                    assert reduced.decide(q1, q2, a1, a2) == expected

    def test_unmatched_index_is_trivial(self):
        game, _ = forbidden_pair_game(2)
        reduced = answer_reduce(game, 4)
        ctx = reduced.ar_context
        x, y = next(p for p in game.nontrivial_pairs() if p[0] != p[1])
        q1 = (("ora", x, y), 1)
        q2 = (("ora", x, y), (2, 3, 4))
        assert not reduced.nontrivial(q1, q2)
        for a1 in reduced.answers(q1):
            for a2 in reduced.answers(q2):
                assert reduced.decide(q1, q2, a1, a2)

    @pytest.mark.parametrize("name", sorted(PINNED_MASKS))
    def test_engaged_masks_pinned(self, name):
        game = reduced_games()[name]
        digest = hashlib.sha256()
        for q1, q2 in reduced_rows(name):
            assert game.nontrivial(q1, q2)
            digest.update(np.packbits(game.accept_mask(q1, q2)).tobytes())
        assert digest.hexdigest() == PINNED_MASKS[name]

    def test_budget_guard(self):
        game, strategy = trivial_game(2)
        reduced = answer_reduce(game, 3)
        lifted = lift_answer_reduce(game, strategy, 3, reduced=reduced)
        with pytest.raises(BudgetError):
            value(reduced, lifted)

    def test_time_attestation_failure(self):
        # an 8-bit answer encoding cannot fit a T=2 budget
        game, _ = consistency_game(2)
        big = table_game(
            "wide",
            ["q", "r"],
            {"q": tuple(range(256)), "r": tuple(range(256))},
            [("q", "r")],
            {("q", "r"): [(a, a) for a in range(256)]},
        )
        with pytest.raises(ValueError, match="above the budget T=2"):
            answer_reduce(big, 2)

    def test_budget_boundary(self):
        """T must cover the widest encoded answer, and nothing more."""
        wide = table_game(
            "five",
            ["q", "r"],
            {"q": tuple(range(5)), "r": (0, 1)},  # 5 answers need 3 bits
            [("q", "r")],
            {("q", "r"): [(a, a % 2) for a in range(5)]},
        )
        reduced = answer_reduce(wide, 3)
        assert reduced.ar_context.padded_codes("q")[4] == (1, 0, 0)
        with pytest.raises(ValueError, match=r"answers of 'q' need 3 bits, above the budget T=2"):
            answer_reduce(wide, 2)

    def test_sampled_synchronous(self):
        game, _ = consistency_game(2)
        reduced = answer_reduce(game, 4)
        assert_synchronous(reduced, 60)

    @pytest.mark.parametrize("name", sorted(PINNED_MASKS))
    def test_maybe_nontrivial_contract(self, name):
        """The index-level hook is True on every engaged row, in both
        argument orders, False only where the rule returns None, and False
        on nearly every uniform draw, which is what it is for."""
        game = reduced_games()[name]
        qs = game.questions
        rows = reduced_rows(name)
        idx = np.array([[question_index(game, q) for q in row] for row in rows])
        for row, (i, j) in zip(rows, idx):
            assert (qs[int(i)], qs[int(j)]) == row
        assert game.maybe_nontrivial(idx[:, 0], idx[:, 1]).all()
        assert game.maybe_nontrivial(idx[:, 1], idx[:, 0]).all()

        pairs = index_pairs(game, rng_for("armaybe", name), 10_000)
        keep = game.maybe_nontrivial(pairs[:, 0], pairs[:, 1])
        assert (~keep[:10_000]).mean() > 0.99
        for i, j in pairs[~keep]:
            assert game.rule(qs[int(i)], qs[int(j)]) is None

    @pytest.mark.parametrize("name", sorted(PINNED_MASKS))
    def test_hook_estimates_bit_identical(self, name):
        """The sampler gives the same estimate, and engages the same draws,
        with the hook as on the game rebuilt without it."""
        game = reduced_games()[name]
        make = consistency_game if name.startswith("consistency") else forbidden_pair_game
        honest = make(2)[1]
        u = haar_unitary(honest.dim, rng_for("arconj", name))
        for strategy in (honest, honest.conjugated(u)):
            lifted = reduced_lift(name, strategy)
            for seed in (1, 2, 3):
                ref = rebuilt_game(game)
                hooked = rebuilt_game(game, game.maybe_nontrivial)
                expected = sampled_value(ref, lifted, 20_000, seed)
                assert sampled_value(hooked, lifted, 20_000, seed) == expected
                assert sampled_value(game, lifted, 20_000, seed) == expected
                assert hooked.engaged == ref.engaged


class TestProofRuns:
    """Proof tables read runs from one dict per context, keyed on the
    decider machine and the encoded answer pair."""

    @staticmethod
    def check_fresh(ctx, pairs):
        """Every entry of the pairs' proof tables equals a fresh run."""
        game = ctx.game
        for x, y in pairs:
            mach = ctx.decider.machine_for(x, y)
            table = ctx.proof_table(x, y)
            if game.nontrivial(x, y):
                assert list(table) == list(itertools.product(game.answers(x), game.answers(y)))
            else:
                assert list(table) == [(game.answers(x)[0], game.answers(y)[0])]
            for (a, b), run in table.items():
                outcome, assignment = tableau_assignment(mach, ctx.T, ctx.witness(x, y, a, b))
                assert run == (outcome, assignment.bits)

    @pytest.mark.parametrize("make", [consistency_game, forbidden_pair_game])
    def test_entries_are_fresh_runs(self, make):
        game = make(2)[0]
        ctx = answer_reduce(game, 4).ar_context
        self.check_fresh(ctx, itertools.product(game.questions, repeat=2))

    def test_compressed_entries_are_fresh_runs(self):
        """Seeded nontrivial and uniform pairs of the introspection game."""
        ctx = gapless_compress(consistency_game(2)[0], 8).ar_context
        intro = ctx.game
        questions = ctx.base_questions
        nontrivial = [p for p in intro.nontrivial_pairs() if p[0] != p[1]]
        rng = rng_for("arruns", 0)
        pairs = [nontrivial[int(k)] for k in rng.integers(0, len(nontrivial), size=12)]
        pairs += [
            (questions[int(i)], questions[int(j)])
            for i, j in rng.integers(0, len(questions), size=(12, 2))
        ]
        self.check_fresh(ctx, pairs)

    def test_shared_machine_shares_run_objects(self):
        """Pairs with the same machine and encoded answers hold the same run
        object; distinct (machine, witness) keys hold distinct runs."""
        game = forbidden_pair_game(2)[0]
        ctx = answer_reduce(game, 4).ar_context
        by_key, repeats = {}, 0
        for x, y in itertools.product(game.questions, repeat=2):
            mach = ctx.decider.machine_for(x, y)
            for (a, b), run in ctx.proof_table(x, y).items():
                key = (id(mach), ctx.witness(x, y, a, b))
                repeats += key in by_key
                assert by_key.setdefault(key, run) is run
        assert repeats > 0  # some key is met by more than one pair
        assert len({id(run) for run in by_key.values()}) == len(by_key)
        assert len(ctx._runs) == len(by_key)

    def test_new_build_starts_cold(self):
        game, strategy = consistency_game(2)
        for build in (lambda: answer_reduce(game, 4), lambda: gapless_compress(game, 8)):
            used = build()
            ctx = used.ar_context
            x, y = next(p for p in ctx.game.nontrivial_pairs() if p[0] != p[1])
            ctx.proof_table(x, y)
            assert ctx._runs
            fresh = build()
            assert fresh.ar_context._runs == {}
            assert len(fresh.ar_context._pi) == 0


class TestLiftAnswerReduce:
    @pytest.mark.parametrize("name, kind", sorted(PINNED_WINS))
    def test_engaged_win_probabilities_pinned(self, name, kind):
        make = consistency_game if name.startswith("consistency") else forbidden_pair_game
        strategy = make(2)[1]
        if kind == "conjugated":
            strategy = strategy.conjugated(haar_unitary(strategy.dim, rng_for("arwin", name)))
        ev = StrategyEvaluator(reduced_games()[name], reduced_lift(name, strategy), DEFAULT_TOL)
        wins = np.array(
            [ev.win_probability(q1, q2) for q1, q2 in reduced_rows(name)], dtype=np.float64
        )
        assert hashlib.sha256(wins.tobytes()).hexdigest() == PINNED_WINS[(name, kind)]

    def test_rejects_non_oracularizable(self):
        with pytest.raises(ValueError, match="not oracularizable"):
            lift_answer_reduce(*clash_game(), 4)

    def test_trivial_base_perfect(self):
        game, strategy = trivial_game(2)
        reduced = answer_reduce(game, 3)
        lifted = lift_answer_reduce(game, strategy, 3, reduced=reduced)
        est, err = sampled_value(reduced, lifted, 20_000, seed=2)
        assert est == 1.0 and err == 0.0

    def test_value_one_base_within_three_sigma(self):
        game, strategy = consistency_game(2)
        reduced = answer_reduce(game, 4)
        lifted = lift_answer_reduce(game, strategy, 4, reduced=reduced)
        est, err = sampled_value(reduced, lifted, 50_000, seed=3)
        assert est + 3 * err >= 1.0 - 1e-12

    def test_completeness_bound_lossy_base(self):
        game, strategy = forbidden_pair_game(2)
        base_value = value(game, strategy).value
        reduced = answer_reduce(game, 4)
        lifted = lift_answer_reduce(game, strategy, 4, reduced=reduced)
        est, err = sampled_value(reduced, lifted, 50_000, seed=4)
        assert est + 3 * err >= 0.5 + 0.5 * base_value

    def test_engaged_rows_against_independent_oracle(self):
        """Conditional win rates on engaged row-2 pairs match a
        from-scratch recomputation via the compiled formula."""
        game, strategy = forbidden_pair_game(2)
        T = 4
        reduced = answer_reduce(game, T)
        ctx = reduced.ar_context
        lifted = lift_answer_reduce(game, strategy, T, reduced=reduced)
        ev = StrategyEvaluator(reduced, lifted, DEFAULT_TOL)
        rng = rng_for("engaged", 1)
        pairs = [p for p in game.nontrivial_pairs() if p[0] != p[1]]
        compiled = {}
        checked_losses = 0
        for _ in range(250):
            x, y = pairs[int(rng.integers(0, len(pairs)))]
            i = int(rng.integers(1, ctx.L + 1))
            jkl = (i, int(rng.integers(1, ctx.L + 1)), int(rng.integers(1, ctx.L + 1)))
            q1 = (("ora", x, y), i)
            q2 = (("ora", x, y), jkl)
            win = ev.win_probability(q1, q2)
            # oracle: the base strategy is deterministic dimension-1, so the
            # players hold the designated/unique (a, b) and the win is a
            # plain clause check over the compiled formula
            if game.nontrivial(x, y):
                a = next(
                    lab
                    for lab in game.answers(x)
                    if abs(lifted_meas_weight(strategy, x, lab)) > 0.5
                )
                b = next(
                    lab
                    for lab in game.answers(y)
                    if abs(lifted_meas_weight(strategy, y, lab)) > 0.5
                )
            else:
                a, b = game.answers(x)[0], game.answers(y)[0]
            if (x, y) not in compiled:
                compiled[(x, y)] = compile_cnf(ctx.decider.machine_for(x, y), T, 2 * T)
            cnf = compiled[(x, y)]
            _, proof = ctx.proof_table(x, y)[(a, b)]
            expected = 1.0
            for clause in cnf.clauses:
                vs = {abs(l) for l in clause}
                if vs <= set(jkl):
                    if not any((proof[abs(l) - 1] == 1) == (l > 0) for l in clause):
                        expected = 0.0
                        break
            if expected == 0.0:
                checked_losses += 1
            assert win == pytest.approx(expected, abs=1e-10)
        assert checked_losses >= 1  # the sweep must exercise a violated clause

    def test_lift_commutes_on_sampled_nontrivial_pairs(self):
        game, strategy = consistency_game(2)
        reduced = answer_reduce(game, 4)
        ctx = reduced.ar_context
        lifted = lift_answer_reduce(game, strategy, 4, reduced=reduced)
        ev = StrategyEvaluator(reduced, lifted, DEFAULT_TOL)
        rng = rng_for("arcomm", 0)
        pairs = [p for p in game.nontrivial_pairs() if p[0] != p[1]]
        for _ in range(60):
            x, y = pairs[int(rng.integers(0, len(pairs)))]
            i = int(rng.integers(1, ctx.L + 1))
            jkl = (i, int(rng.integers(1, ctx.L + 1)), int(rng.integers(1, ctx.L + 1)))
            pair_q = (("ora", x, y), i), (("ora", x, y), jkl)
            assert ev.worst_commutator(*pair_q) < 1e-10
            iso = (("iso", x), (min(i, 4), min(i, 4)))
            assert ev.worst_commutator(pair_q[0], iso) < 1e-10


def lifted_meas_weight(strategy, x, label):
    m = strategy.measurement(x)
    return float(np.trace(m.element(label)).real / strategy.dim)


class TestGaplessCompress:
    def test_compressed_alphabet_and_synchronicity(self):
        game, _ = consistency_game(2)
        compressed = gapless_compress(game, 8)
        labels = set()
        qs = compressed.questions
        rng = rng_for("gap", 0)
        for idx in rng.integers(0, len(qs), size=120):
            labels.update(compressed.answers(qs[int(idx)]))
        assert len(labels) <= 14
        assert_synchronous(compressed, 40)

    def test_rejects_non_oracularizable(self):
        with pytest.raises(ValueError, match="not oracularizable"):
            lift_gapless_compress(*clash_game(), 8)

    def test_value_one_base_compresses_to_one(self):
        game, strategy = consistency_game(2)
        compressed = gapless_compress(game, 8)
        lifted = lift_gapless_compress(game, strategy, 8, compressed=compressed)
        est, err = sampled_value(compressed, lifted, 20_000, seed=5)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_engaged_pairs_all_win_for_perfect_base(self):
        game, strategy = consistency_game(2)
        compressed = gapless_compress(game, 8)
        intro = compressed.intro_game
        ctx = compressed.ar_context
        lifted = lift_gapless_compress(game, strategy, 8, compressed=compressed)
        ev = StrategyEvaluator(compressed, lifted, DEFAULT_TOL)
        rng = rng_for("gap", 1)
        intro_pairs = [p for p in intro.nontrivial_pairs() if p[0] != p[1]]
        for _ in range(40):
            q, r = intro_pairs[int(rng.integers(0, len(intro_pairs)))]
            i = int(rng.integers(1, ctx.L + 1))
            jkl = (i, int(rng.integers(1, ctx.L + 1)), int(rng.integers(1, ctx.L + 1)))
            q1 = ((("ora", q, r), i))
            q2 = ((("ora", q, r), jkl))
            win = ev.win_probability((q1), (q2))
            assert win == pytest.approx(1.0, abs=1e-10)
