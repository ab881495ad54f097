"""See-saw search, classical oracle, strategy perturbation."""

import itertools

import numpy as np
import pytest

from syncgames import games
from syncgames.algebra import closeness
from syncgames.builtins import MS_EQUATIONS, MS_QUESTIONS, consistency_game, magic_square
from syncgames.games import table_game, value
from syncgames.optimize import (
    SeesawConfig,
    _as_strategy,
    _coefficients,
    _frame_score,
    _greedy_update,
    _local_objective,
    _mask_table,
    _pairwise_polish,
    _random_frames,
    _update,
    classical_value,
    haar_unitary,
    perturb_strategy,
    seesaw,
)

from helpers import (
    greedy_start,
    random_hermitian,
    random_projective,
    reference_polish,
    rng_for,
)


class TestSeesaw:
    def test_single_question_game(self):
        game = table_game("single", ["q"], {"q": (0, 1)}, [], {})
        cfg = SeesawConfig(dim=3, restarts=2, max_iters=5, seed=0)
        _, val, _ = seesaw(game, cfg)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_monotone_within_restart(self):
        game, _ = magic_square()
        cfg = SeesawConfig(dim=4, restarts=3, max_iters=40, seed=5)
        _, _, trace = seesaw(game, cfg)
        per_restart = {}
        for r, it, v in trace:
            per_restart.setdefault(r, []).append(v)
        for vs in per_restart.values():
            for a, b in zip(vs, vs[1:]):
                assert b >= a - 1e-10

    def test_dim2_strictly_below_one(self):
        game, _ = magic_square()
        cfg = SeesawConfig(dim=2, restarts=8, max_iters=80, seed=7)
        _, val, _ = seesaw(game, cfg)
        assert val < 1 - 1e-3

    def test_returned_value_matches_strategy(self):
        game, _ = magic_square()
        cfg = SeesawConfig(dim=4, restarts=2, max_iters=30, seed=3)
        strategy, val, _ = seesaw(game, cfg)
        assert value(game, strategy).value == pytest.approx(val, abs=1e-10)


class TestSeesawCost:
    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigh_calls_bounded(self, monkeypatch, dim, seed):
        """One sweep on Magic Square stays within 200 eigh calls (at most
        183 measured): empty answer pairs cost none, frames need none for
        a pair's joint support, and the exact value runs once."""
        eigh = np.linalg.eigh
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        game, _ = magic_square()
        seesaw(game, SeesawConfig(dim, restarts=1, max_iters=1, seed=seed))
        assert len(calls) <= 200

    @pytest.mark.parametrize("max_iters", [1, 10])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_one_exact_evaluation_per_call(self, monkeypatch, max_iters, restarts):
        """Sweeps are scored from the frames, so the only eigenbasis forms
        are those of the one exact value of the returned strategy."""
        init = games._EigenForm.__init__
        builds = []

        def counted(form, *args):
            builds.append(1)
            init(form, *args)

        monkeypatch.setattr(games._EigenForm, "__init__", counted)
        game, _ = magic_square()
        seesaw(game, SeesawConfig(4, restarts=restarts, max_iters=max_iters, seed=1))
        assert len(builds) == len(game.questions)


def small_table_game():
    return table_game(
        "toy",
        ["x", "y", "z"],
        {"x": (0, 1, 2), "y": (0, 1), "z": (0, 1, 2, 3)},
        [("x", "y"), ("y", "z"), ("x", "z")],
        {
            ("x", "y"): [(0, 1), (1, 0), (2, 1)],
            ("y", "z"): [(0, 0), (1, 3), (1, 2)],
            ("x", "z"): [(0, 0), (1, 1), (2, 2), (2, 3)],
        },
    )


class TestFrameScore:
    @pytest.mark.parametrize(
        "build, dim",
        [(magic_square, 2), (magic_square, 3), (magic_square, 4),
         (lambda: consistency_game(2), 3), (lambda: (small_table_game(), None), 3)],
        ids=["magic_square-2", "magic_square-3", "magic_square-4", "consistency_2-3", "table-3"],
    )
    def test_matches_exact_value(self, build, dim):
        """The score from the frames of random measurements, and of the
        binary and greedy updates made from their coefficients, is the
        exact value."""
        game, _ = build()
        questions = list(game.questions)
        table = _mask_table(game, questions)
        rng = rng_for("frame_score", game.name, dim)
        frames = {x: _random_frames(len(game.answers(x)), dim, rng) for x in questions}
        meas = {x: np.array([f @ f.conj().T for f in fs]) for x, fs in frames.items()}

        def check():
            exact = value(game, _as_strategy(game, meas, dim)).value
            assert abs(_frame_score(frames, table, dim) - exact) <= 1e-12

        check()
        for x in questions:
            meas[x], frames[x] = _update(_coefficients(game, x, meas, table))
            check()


def per_pair_coefficients(game, x, measurements, questions):
    """C^x_a from game.rule, one question pair at a time."""
    labels = game.answers(x)
    dim = next(iter(measurements.values()))[0].shape[0]
    coeff = [np.zeros((dim, dim), dtype=complex) for _ in labels]
    scale = 2.0 / len(questions) ** 2
    for y in questions:
        if y == x:
            continue
        mask = game.rule(x, y)
        if mask is None:
            continue
        stacked = np.tensordot(mask.astype(float), np.stack(measurements[y]), axes=(1, 0))
        for ia in range(len(labels)):
            coeff[ia] += scale * stacked[ia]
    return [(c + c.conj().T) / 2 for c in coeff]


class TestCoefficients:
    @pytest.mark.parametrize(
        "build, dim", [(magic_square, 4), (lambda: consistency_game(2), 3)],
        ids=["magic_square", "consistency_2"],
    )
    def test_mask_table_matches_per_pair_rule(self, build, dim):
        game, _ = build()
        questions = list(game.questions)
        rng = rng_for("coefficients", game.name)
        meas = {
            x: list(random_projective(dim, len(game.answers(x)), rng).elements)
            for x in questions
        }
        table = _mask_table(game, questions)
        for x in questions:
            got = _coefficients(game, x, meas, table)
            want = per_pair_coefficients(game, x, meas, questions)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), x


POLISH_CASES = [(d, k) for d in (2, 3, 4, 5) for k in (3, 4, 8)]


def polish_draws(d, k, count=25):
    rng = rng_for("polish", d, k)
    for _ in range(count):
        yield [random_hermitian(d, rng) for _ in range(k)]


class TestFramePolish:
    @pytest.mark.parametrize("d, k", POLISH_CASES)
    def test_projective_and_no_worse_than_start(self, d, k):
        eye = np.eye(d)
        for coeff in polish_draws(d, k):
            out = _greedy_update(coeff)
            for i, p in enumerate(out):
                assert np.abs(p @ p - p).max() <= 1e-10
                for q in out[i + 1 :]:
                    assert np.abs(p @ q).max() <= 1e-10
            assert np.abs(sum(out) - eye).max() <= 1e-10
            start = _local_objective(greedy_start(coeff), coeff)
            assert _local_objective(out, coeff) >= start - 1e-12

    @pytest.mark.parametrize("d, k", POLISH_CASES)
    def test_agrees_with_dense_reference(self, d, k):
        compared = 0
        for coeff in polish_draws(d, k):
            want, margin = reference_polish(greedy_start(coeff), coeff)
            if margin <= 1e-8:
                continue  # roundoff may decide a near-tie either way
            compared += 1
            for g, w in zip(_greedy_update(coeff), want):
                assert np.abs(g - w).max() <= 1e-9
        assert compared >= 20

    @pytest.mark.parametrize("scalar", [1.0, 1e-12, 0.0, -0.0, -1e-12, -1.0])
    def test_one_column_sign_test_matches_eigh(self, scalar):
        """A one-column joint support is split by the sign of b^H (C_i - C_j) b,
        giving the projector an eigh of that 1x1 matrix gives."""
        rng = rng_for("sign_test", str(scalar))
        d = 3
        b = haar_unitary(d, rng)[:, :1]
        c1 = random_hermitian(d, rng)
        c0 = c1 + scalar * (b @ b.conj().T)
        diff = b.conj().T @ (c0 - c1) @ b
        dw, dv = np.linalg.eigh((diff + diff.conj().T) / 2)
        keep = b @ dv[:, dw >= 0]
        want = [keep @ keep.conj().T, (b @ b.conj().T) - keep @ keep.conj().T]
        for start in ([b, b[:, :0]], [b[:, :0], b]):
            frames = _pairwise_polish(start, [c0, c1])
            got = [f @ f.conj().T for f in frames]
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestOneColumnTies:
    def test_near_tie_split_matches_eigh(self):
        """C_i = (A + B) + D and C_j = A + (B + D) are equal up to roundoff.
        The one-column split still follows eigh of the compressed
        difference b^H (C_i - C_j) b, whose sign the Rayleigh quotients
        b^H C_i b and b^H C_j b often get the other way."""
        disagreements = 0
        for k in range(40):
            rng = rng_for("near_tie", k)
            b = haar_unitary(3, rng)[:, :1]
            a, bb, c = (random_hermitian(3, rng) for _ in range(3))
            coeff = [(a + bb) + c, a + (bb + c)]
            diff = b.conj().T @ (coeff[0] - coeff[1]) @ b
            dw, dv = np.linalg.eigh((diff + diff.conj().T) / 2)
            keep = b @ dv[:, dw >= 0]
            q = [(b.conj().T @ cc @ b)[0, 0].real for cc in coeff]
            disagreements += (q[0] - q[1] >= 0) != (dw[0] >= 0)
            for start in ([b, b[:, :0]], [b[:, :0], b]):
                frames = _pairwise_polish(start, coeff)
                assert np.array_equal(frames[0] @ frames[0].conj().T, keep @ keep.conj().T)
        assert disagreements > 0


class TestBinaryUpdateOptimality:
    def test_against_rotation_sweep(self):
        # dimension-2 oracle: rank-1 projector family over a fine grid of
        # Bloch angles, plus the rank-0 and rank-2 endpoints
        rng = rng_for("binup", 0)
        for trial in range(10):
            c0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            c0 = c0 + c0.conj().T
            c1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            c1 = c1 + c1.conj().T
            updated, _ = _update([c0, c1])
            achieved = np.trace(updated[0] @ c0).real + np.trace(updated[1] @ c1).real
            eye = np.eye(2)
            best = max(
                np.trace(eye @ c0).real,  # rank 2 on answer 0
                np.trace(eye @ c1).real,  # rank 0 on answer 0
            )
            # the 181 x 181 grid of Bloch vectors v, scored as one array:
            # tr(p c0) + tr((I - p) c1) with p = v v^dagger
            theta, phi = np.meshgrid(
                np.linspace(0, np.pi, 181), np.linspace(0, 2 * np.pi, 181), indexing="ij"
            )
            v = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
            p = v[..., :, None] * v[..., None, :].conj()
            score = (
                np.einsum("...ij,ji->...", p, c0).real
                + np.einsum("...ij,ji->...", eye - p, c1).real
            )
            best = max(best, score.max())
            assert achieved >= best - 1e-6


class TestClassicalValue:
    def test_trivial_game(self):
        game = table_game("single", ["q"], {"q": (0,)}, [], {})
        val, assignment = classical_value(game)
        assert val == 1.0
        assert assignment == {"q": 0}

    def test_magic_square_below_one(self):
        game, _ = magic_square()
        val, _ = classical_value(game)
        assert val < 1

    def test_magic_square_matches_reduced_enumeration_oracle(self):
        """Independent oracle: enumerate the 2^9 variable assignments and
        optimize each equation over its four satisfying assignments.

        Dominance argument: an equation answer affects only the incidence
        pairs with its own three variables (all other pairs are trivial or
        diagonal), and an unsatisfying answer loses all of them, so some
        satisfying answer is always at least as good; given fixed variable
        bits the equations decouple, so per-equation maximization over
        satisfying answers is exact.
        """
        game, _ = magic_square()
        variables = [q for q in MS_QUESTIONS if q.startswith("s")]
        best_wins = -1
        for bits in itertools.product((0, 1), repeat=9):
            f = dict(zip(variables, bits))
            wins = 15 + (225 - 15 - 36)  # diagonal plus trivial pairs
            for eq, vs in MS_EQUATIONS.items():
                parity = 1 if eq == "c3" else 0
                best_eq = max(
                    sum(2 for v, bit in zip(vs, a) if f[v] == bit)
                    for a in itertools.product((0, 1), repeat=3)
                    if sum(a) % 2 == parity
                )
                wins += best_eq
            best_wins = max(best_wins, wins)
        oracle = best_wins / 225
        val, assignment = classical_value(game)
        assert val == oracle
        # the reported assignment actually attains the value
        wins = sum(
            bool(game.decide(x, y, assignment[x], assignment[y]))
            for x in game.questions
            for y in game.questions
        )
        assert wins / 225 == val

    def test_reports_first_optimal_assignment(self):
        """Branch and bound in lexicographic answer order: the first optimum
        on Magic Square sets every variable to 0 and gives c3, the one odd
        equation, the answer (0, 0, 1)."""
        game, _ = magic_square()
        _, assignment = classical_value(game)
        want = {q: 0 for q in MS_QUESTIONS if q.startswith("s")}
        want.update({eq: (0, 0, 0) for eq in MS_EQUATIONS}, c3=(0, 0, 1))
        assert assignment == want

    def test_matches_brute_force_on_small_game(self):
        game = table_game(
            "toy",
            ["x", "y", "z"],
            {"x": (0, 1), "y": (0, 1), "z": (0, 1)},
            [("x", "y"), ("y", "z")],
            {("x", "y"): [(0, 1), (1, 0)], ("y", "z"): [(0, 0)]},
        )
        val, _ = classical_value(game)
        best = -1
        for bits in itertools.product((0, 1), repeat=3):
            f = dict(zip(["x", "y", "z"], bits))
            wins = sum(
                bool(game.decide(a, b, f[a], f[b]))
                for a in game.questions
                for b in game.questions
            )
            best = max(best, wins)
        assert val == best / 9

    def test_cap_enforced(self):
        game, _ = magic_square()
        with pytest.raises(ValueError):
            classical_value(game, cap=10)


class TestPerturbStrategy:
    def test_zero_magnitude_identity(self):
        game, strategy = magic_square()
        out = perturb_strategy(strategy, 0.0, 1, list(game.questions))
        for q in game.questions:
            assert closeness(out.measurement(q), strategy.measurement(q)) == 0.0

    def test_small_perturbation_keeps_value_high(self):
        game, strategy = magic_square()
        out = perturb_strategy(strategy, 1e-3, 2, list(game.questions))
        assert value(game, out).value >= 1 - 1e-4

    def test_deficit_monotone_in_magnitude(self):
        game, strategy = magic_square()
        deficits = []
        for magnitude in (1e-1, 1e-2, 1e-3, 1e-4):
            out = perturb_strategy(strategy, magnitude, 3, list(game.questions))
            deficits.append(1 - value(game, out).value)
        assert deficits == sorted(deficits, reverse=True)

    def test_projectivity_preserved(self):
        game, strategy = magic_square()
        out = perturb_strategy(strategy, 0.3, 4, list(game.questions))
        out.validate()
        for x in game.questions:  # projective within 1e-10, tighter than DEFAULT_TOL
            m = out.measurement(x)
            assert np.abs(m.sum() - np.eye(m.dim)).max() <= 1e-10
            for e in m.elements:
                assert np.abs(e - e.conj().T).max() <= 1e-10
                assert np.abs(e @ e - e).max() <= 1e-10

    def test_negative_magnitude_rejected(self):
        game, strategy = magic_square()
        with pytest.raises(ValueError):
            perturb_strategy(strategy, -1.0, 0, list(game.questions))
