"""Rigidity residual audits and dimension certificates."""

import numpy as np
import pytest

from syncgames.algebra import Measurement, tau_norm
from syncgames.builtins import magic_square, question_sampling, two_of_n_ms
from syncgames.games import SynchronousStrategy, value
from syncgames.optimize import haar_unitary, perturb_strategy
from syncgames.rigidity import (
    ObservablePairFamily,
    dimension_certificate,
    extract_projection,
    ms_pair_family,
    ms_residuals,
    qs_residuals,
    two_of_n_pair_family,
    two_of_n_residuals,
)

from helpers import rng_for

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestMagicSquareResiduals:
    def test_honest_all_zero(self):
        _, strategy = magic_square()
        report = ms_residuals(strategy)
        assert report.max_residual <= 1e-10
        assert report.value_deficit <= 1e-10
        assert len(report.relations) == 6 + 18 + 18

    def test_equal_observables_anticommutator(self):
        # replacing both s11 and s22 with the Z (x) 1 basis makes the
        # anticommutator residual ||2 * identity||_tau = 2
        game, strategy = magic_square()
        table = {x: strategy.measurement(x) for x in game.questions}
        eye = np.eye(4, dtype=complex)
        zbasis = Measurement(
            (0, 1), [(eye + np.kron(Z, np.eye(2))) / 2, (eye - np.kron(Z, np.eye(2))) / 2],
            kind="projective",
        )
        table["s11"] = zbasis
        table["s22"] = zbasis
        tweaked = SynchronousStrategy(4, table)
        report = ms_residuals(tweaked)
        assert report.relations["R3.anticomm.11_22"] == pytest.approx(2.0, abs=1e-12)

    def test_wrong_dimension_refused_when_built(self):
        game, strategy = magic_square()
        table = {x: strategy.measurement(x) for x in game.questions}
        table["s22"] = Measurement(
            (0, 1), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], kind="projective"
        )
        for audit in (ms_residuals, ms_pair_family):
            with pytest.raises(ValueError, match="measurement for 's22' has dim 2, strategy dim 4"):
                audit(SynchronousStrategy(4, table))

    def test_perturbed_within_explicit_bound(self):
        game, strategy = magic_square()
        for k, magnitude in enumerate((3e-4, 1e-3, 3e-3)):
            perturbed = perturb_strategy(strategy, magnitude, 100 + k, list(game.questions))
            report = ms_residuals(perturbed)
            eps = report.value_deficit
            assert eps <= 1e-4
            assert report.max_residual <= 32 * 15 * np.sqrt(max(eps, 0.0))
            assert report.max_residual > 0

    def test_residuals_invariant_under_conjugation(self):
        game, strategy = magic_square()
        perturbed = perturb_strategy(strategy, 1e-2, 9, list(game.questions))
        base = ms_residuals(perturbed)
        u = haar_unitary(4, rng_for("rigconj", 0))
        rotated = perturbed.conjugated(u)
        other = ms_residuals(rotated)
        for key, val in base.relations.items():
            assert other.relations[key] == pytest.approx(val, abs=1e-10)


class TestTwoOfNResiduals:
    def test_honest_zero_and_family_size(self):
        _, strategy = two_of_n_ms(2)
        report = two_of_n_residuals(strategy, 2)
        assert report.max_residual <= 1e-10
        family = two_of_n_pair_family(strategy, 2)
        assert len(family.pairs) == 4

    def test_perturbation_sweep_trend(self):
        game, strategy = two_of_n_ms(2)
        questions = list(game.questions)
        residuals = []
        for magnitude in (3e-2, 1e-2, 3e-3, 1e-3):
            perturbed = perturb_strategy(strategy, magnitude, seed=4, questions=questions)
            residuals.append(two_of_n_residuals(perturbed, 2).max_residual)
        assert residuals == sorted(residuals, reverse=True)
        assert residuals[-1] < 0.1 * residuals[0]


class TestQuestionSamplingResiduals:
    def test_honest_zero(self):
        _, strategy = question_sampling(2)
        report = qs_residuals(strategy, 2)
        assert report.max_residual <= 1e-10
        assert report.value_deficit <= 1e-10

    def test_item3_identity_shift(self):
        _, strategy = question_sampling(2)
        report = qs_residuals(strategy, 2)
        for key, val in report.relations.items():
            if key.startswith("QS.item3") and "u=00" in key:
                assert val <= 1e-12

    def test_item4_sweep_trend(self):
        game, strategy = question_sampling(2)
        questions = list(game.questions)
        worst4 = []
        for magnitude in (3e-2, 1e-2, 3e-3):
            perturbed = perturb_strategy(strategy, magnitude, seed=6, questions=questions)
            report = qs_residuals(perturbed, 2)
            worst4.append(
                max(v for k, v in report.relations.items() if k.startswith("QS.item4"))
            )
        assert worst4 == sorted(worst4, reverse=True)


class TestDimensionCertificate:
    def test_magic_square_family(self):
        _, strategy = magic_square()
        n, eps = dimension_certificate(ms_pair_family(strategy))
        assert (n, 2**n) == (2, strategy.dim)
        assert eps <= 1e-10

    def test_single_pauli_pair(self):
        family = ObservablePairFamily([(Z, X)])
        n, eps = dimension_certificate(family)
        assert n == 1 and eps <= 1e-14

    def test_question_sampling_family(self):
        _, strategy = question_sampling(2)
        family = two_of_n_pair_family(strategy, 2)
        n, eps = dimension_certificate(family)
        assert (n, 2**n) == (4, strategy.dim)
        assert eps <= 1e-10

    def test_non_unitary_rejected(self):
        family = ObservablePairFamily([(Z / 2, X)])
        with pytest.raises(ValueError):
            dimension_certificate(family)


class TestExtractProjection:
    def test_honest(self):
        _, strategy = question_sampling(2)
        pi, trace = extract_projection(strategy, 2)
        assert trace == pytest.approx(1 / 16, abs=1e-10)
        assert tau_norm(pi @ pi - pi) <= 1e-10

    def test_identity_sampling_measurements(self):
        # degenerate strategy answering 0^n deterministically: projection is 1
        dim = 4
        labels = ((0, 0), (0, 1), (1, 0), (1, 1))
        eye = np.eye(dim, dtype=complex)
        zero = np.zeros((dim, dim), dtype=complex)
        det = Measurement(labels, [eye, zero, zero, zero], kind="projective")
        strategy = SynchronousStrategy(dim, {"S_A": det, "S_B": det})
        pi, trace = extract_projection(strategy, 2)
        assert np.allclose(pi, eye, atol=1e-10)
        assert trace == pytest.approx(1.0, abs=1e-12)

    def test_perturbation_sweep(self):
        game, strategy = question_sampling(2)
        questions = list(game.questions)
        gaps = []
        for magnitude in (1e-1, 3e-2, 1e-2):
            perturbed = perturb_strategy(strategy, magnitude, seed=8, questions=questions)
            pi, _ = extract_projection(perturbed, 2)
            sa = perturbed.measurement("S_A").element((0, 0))
            sb = perturbed.measurement("S_B").element((0, 0))
            gaps.append(tau_norm(pi - sa @ sb))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.2 * gaps[0]
