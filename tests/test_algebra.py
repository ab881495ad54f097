"""Measurement algebra: distances, processing, rounding, pasting."""

import numpy as np
import pytest

from syncgames.algebra import (
    Measurement,
    binary_to_observable,
    bitstrings,
    closeness,
    data_process,
    fourier_observables,
    inconsistency,
    paste,
    projectivize,
    set_tau_norm,
    tau_norm,
)
from syncgames.builtins import question_sampling

from helpers import random_contraction_set, random_operator_set, random_povm, random_projective, rng_for

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTauNorm:
    def test_identity_dim4(self):
        assert tau_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        assert tau_norm(np.zeros((3, 3))) == 0.0

    def test_pauli_z_tensor_eye(self):
        # oracle: direct trace of (Z (x) 1)^2 = 1, so sqrt(tr/4) = 1
        op = np.kron(Z, np.eye(2))
        direct = np.sqrt(np.trace(op.conj().T @ op).real / 4)
        assert direct == pytest.approx(1.0, abs=1e-14)
        assert tau_norm(op) == pytest.approx(direct, abs=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tau_norm(np.zeros((2, 3)))


class TestCloseness:
    def test_self_distance(self):
        m = random_povm(4, 3, rng_for("close", 0))
        assert closeness(m, m) == 0.0

    def test_swapped_identities(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        m = Measurement((0, 1), [eye, zero], kind="povm")
        n = Measurement((0, 1), [zero, eye], kind="povm")
        assert closeness(m, n) == pytest.approx(np.sqrt(2), abs=1e-14)

    def test_matches_elementwise_oracle(self):
        rng = rng_for("close", 1)
        m = random_projective(4, 3, rng)
        n = random_projective(4, 3, rng)
        # independent oracle: explicit entrywise sum of squared differences
        acc = 0.0
        for a, b in zip(m.elements, n.elements):
            diff = a - b
            acc += sum(abs(diff[i, j]) ** 2 for i in range(4) for j in range(4)) / 4
        assert closeness(m, n) == pytest.approx(np.sqrt(acc), abs=1e-12)

    def test_label_mismatch_rejected(self):
        m = random_povm(2, 2, rng_for("close", 2))
        n = Measurement(("x", "y"), list(m.elements), kind="povm")
        with pytest.raises(ValueError):
            closeness(m, n)


class TestInconsistency:
    def test_projective_self_consistency(self):
        p = random_projective(6, 3, rng_for("inc", 0))
        assert inconsistency(p, p) == 0.0

    def test_swapped_identities(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        m = Measurement((0, 1), [eye, zero], kind="povm")
        n = Measurement((0, 1), [zero, eye], kind="povm")
        assert inconsistency(m, n) == pytest.approx(1.0, abs=1e-14)

    def test_consistency_to_closeness_bound(self):
        rng = rng_for("inc", 1)
        for _ in range(50):
            m = random_povm(4, 3, rng)
            n = random_povm(4, 3, rng)
            assert closeness(m, n) <= np.sqrt(2 * inconsistency(m, n)) + 1e-12


class TestDataProcess:
    def test_identity_map(self):
        m = random_povm(4, 3, rng_for("dp", 0))
        out = data_process(m, {0: 0, 1: 1, 2: 2})
        assert out.labels == m.labels
        for a, b in zip(out.elements, m.elements):
            assert np.allclose(a, b)

    def test_constant_map_gives_identity(self):
        m = random_povm(5, 4, rng_for("dp", 1))
        out = data_process(m, lambda a: "all")
        assert out.labels == ("all",)
        assert np.allclose(out.elements[0], np.eye(5), atol=1e-10)

    def test_bit_extraction_matches_explicit_sum(self):
        rng = rng_for("dp", 2)
        m = random_projective(8, 4, rng)
        two_bit = Measurement(tuple(bitstrings(2)), list(m.elements), kind="projective")
        for bit in (0, 1):
            out = data_process(two_bit, lambda a, bit=bit: a[bit])
            # independent oracle: explicit summation per marginal value
            for val in (0, 1):
                expect = sum(
                    e
                    for lab, e in zip(two_bit.labels, two_bit.elements)
                    if lab[bit] == val
                )
                assert np.allclose(out.element(val), expect, atol=1e-13)

    def test_partial_map_rejected(self):
        m = random_povm(2, 2, rng_for("dp", 3))
        with pytest.raises(ValueError):
            data_process(m, {0: "x"})

    def test_povm_kind_preserved(self):
        m = random_povm(4, 4, rng_for("dp", 4))
        out = data_process(m, lambda a: a % 2)
        out.validate()
        assert out.kind == "povm"


class TestBinaryToObservable:
    def test_identity_pair(self):
        m = Measurement((0, 1), [np.eye(2), np.zeros((2, 2))], kind="projective")
        assert np.allclose(binary_to_observable(m), np.eye(2))

    def test_standard_basis_is_pauli_z(self):
        m = Measurement(
            (0, 1), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], kind="projective"
        )
        assert np.allclose(binary_to_observable(m), Z)

    def test_hadamard_basis_is_pauli_x(self):
        plus = np.array([[1, 1], [1, 1]], dtype=complex) / 2
        minus = np.array([[1, -1], [-1, 1]], dtype=complex) / 2
        m = Measurement((0, 1), [plus, minus], kind="projective")
        assert np.allclose(binary_to_observable(m), X, atol=1e-14)

    def test_incomplete_rejected(self):
        m = Measurement((0, 1), [np.eye(2) / 2, np.eye(2) / 4], kind="projective")
        with pytest.raises(ValueError):
            binary_to_observable(m)


class TestFourierObservables:
    def test_u_zero_is_identity(self):
        m = random_projective(8, 8, rng_for("four", 0))
        m = Measurement(tuple(bitstrings(3)), list(m.elements), kind="projective")
        obs = fourier_observables(m)
        assert np.allclose(obs[(0, 0, 0)], np.eye(8))

    def test_single_bit_standard_basis(self):
        m = Measurement(
            ((0,), (1,)), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], kind="projective"
        )
        obs = fourier_observables(m)
        assert np.allclose(obs[(1,)], Z)

    def test_honest_sampling_measurement(self):
        _, strategy = question_sampling(2)
        obs = fourier_observables(strategy.measurement("S_A"))
        values = list(obs.values())
        for o in values:
            # a Hermitian unitary within 1e-10, tighter than is_observable's DEFAULT_TOL
            assert np.abs(o - o.conj().T).max() <= 1e-10
            assert np.abs(o @ o - np.eye(len(o))).max() <= 1e-10
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert tau_norm(a @ b - b @ a) < 1e-12

    def test_wrong_outcome_set_rejected(self):
        m = random_projective(4, 3, rng_for("four", 1))
        with pytest.raises(ValueError):
            fourier_observables(m)


class TestProjectivize:
    def test_fixed_point(self):
        m = random_projective(6, 3, rng_for("proj", 0))
        out = projectivize(m)
        assert closeness(out, m) < 1e-12

    def test_idempotent(self):
        m = random_povm(5, 3, rng_for("proj", 1))
        once = projectivize(m)
        twice = projectivize(once)
        assert closeness(once, twice) < 1e-12

    def test_hand_rounding(self):
        # {0.9 P, 1 - 0.9 P}: eigenvalue 0.9 rounds up, so the output is {P, 1-P}
        v = np.array([[1.0], [0.0]], dtype=complex)
        p = v @ v.conj().T
        m = Measurement((0, 1), [0.9 * p, np.eye(2) - 0.9 * p], kind="povm")
        out = projectivize(m)
        assert np.allclose(out.element(0), p, atol=1e-12)
        assert np.allclose(out.element(1), np.eye(2) - p, atol=1e-12)

    def test_honest_qs_product_trace(self):
        _, strategy = question_sampling(2)
        zero = (0, 0)
        sa = strategy.measurement("S_A").element(zero)
        sb = strategy.measurement("S_B").element(zero)
        m = sa @ sb @ sa
        povm = Measurement((0, 1), [m, np.eye(16) - m], kind="povm")
        out = projectivize(povm)
        tau = np.trace(out.element(0)).real / 16
        assert tau == pytest.approx(2.0 ** (-4), abs=1e-10)

    def test_rejects_non_povm(self):
        bad = Measurement((0, 1), [np.eye(2), np.eye(2)], kind="povm")
        with pytest.raises(ValueError):
            projectivize(bad)

    def test_error_shrinks_with_defect(self):
        # rounding error trends to zero as the POVM approaches projectivity
        rng = rng_for("proj", 2)
        base = random_projective(6, 3, rng)
        errors = []
        for eps in (0.2, 0.1, 0.05, 0.01):
            mix = [
                (1 - eps) * e + eps * np.eye(6) / 3 for e in base.elements
            ]
            povm = Measurement(base.labels, mix, kind="povm")
            errors.append(closeness(projectivize(povm), povm))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < errors[0] / 3


class TestPaste:
    def test_single_input_returned(self):
        m = random_projective(4, 2, rng_for("paste", 0))
        assert paste([m]) is m

    def test_exactly_commuting_pair(self):
        std = Measurement(
            (0, 1), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], kind="projective"
        )
        flipped = Measurement(
            (0, 1), [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])], kind="projective"
        )
        joint = paste([std, flipped])
        assert joint.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        for i, m in enumerate((std, flipped)):
            marg = data_process(joint, lambda ab, i=i: ab[i])
            assert closeness(marg, m) < 1e-10

    def test_commuting_tensor_pair_marginals(self):
        rng = rng_for("paste", 1)
        a = random_projective(2, 2, rng)
        b = random_projective(2, 2, rng)
        eye = np.eye(2)
        m1 = Measurement((0, 1), [np.kron(e, eye) for e in a.elements], "projective")
        m2 = Measurement((0, 1), [np.kron(eye, e) for e in b.elements], "projective")
        joint = paste([m1, m2])
        for i, m in enumerate((m1, m2)):
            marg = data_process(joint, lambda ab, i=i: ab[i])
            assert closeness(marg, m) < 1e-10

    def test_perturbation_sweep_marginals_vanish(self):
        # marginal error trends to zero as the inputs approach commuting;
        # the perturbing rotation exp(i eps X@X) couples the two factors
        eye = np.eye(2)
        base1 = Measurement(
            (0, 1),
            [np.kron(np.diag([1.0, 0.0]), eye), np.kron(np.diag([0.0, 1.0]), eye)],
            "projective",
        )
        xx = np.kron(X, X)
        errs = []
        for eps in (0.3, 0.1, 0.03, 0.01):
            u = np.cos(eps) * np.eye(4) + 1j * np.sin(eps) * xx
            rotated = Measurement(
                (0, 1),
                [
                    u @ np.kron(eye, np.diag([1.0, 0.0])) @ u.conj().T,
                    u @ np.kron(eye, np.diag([0.0, 1.0])) @ u.conj().T,
                ],
                "projective",
            )
            commutator = max(
                tau_norm(a @ b - b @ a)
                for a in base1.elements
                for b in rotated.elements
            )
            assert commutator > eps / 10  # the pair genuinely fails to commute
            joint = paste([base1, rotated])
            err = max(
                closeness(data_process(joint, lambda ab: ab[0]), base1),
                closeness(data_process(joint, lambda ab: ab[1]), rotated),
            )
            errs.append(err)
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.1 * errs[0]

    def test_mismatch_rejected(self):
        a = random_projective(2, 2, rng_for("paste", 2))
        b = random_projective(4, 2, rng_for("paste", 3))
        with pytest.raises(ValueError):
            paste([a, b])


class TestDistanceLemmas:
    """Inequalities between the distance measures on random instances."""

    COUNT = 200  # the acceptance suite runs the full 1000-instance sweep

    def _instances(self, tag):
        rng = rng_for("lemmas", tag)
        for k in range(self.COUNT):
            dim = int(rng.integers(2, 9))
            outcomes = int(rng.integers(2, 9))
            yield dim, outcomes, rng

    def test_triangle_inequality_for_sets(self):
        for dim, outcomes, rng in self._instances(0):
            m = random_operator_set(dim, outcomes, rng)
            n = random_operator_set(dim, outcomes, rng)
            assert closeness(m, n) <= set_tau_norm(m) + set_tau_norm(n) + 1e-12

    def test_cauchy_schwarz_for_sets(self):
        for dim, outcomes, rng in self._instances(1):
            m = random_operator_set(dim, outcomes, rng)
            n = random_operator_set(dim, outcomes, rng)
            lhs = abs(
                sum(
                    np.trace(a @ b) / dim
                    for a, b in zip(m.elements, n.elements)
                )
            ) ** 2
            assert lhs <= set_tau_norm(m) ** 2 * set_tau_norm(n) ** 2 + 1e-12

    def test_data_processing_never_increases_inconsistency(self):
        for dim, outcomes, rng in self._instances(2):
            m = random_povm(dim, outcomes, rng)
            n = random_povm(dim, outcomes, rng)
            before = inconsistency(m, n)
            f = {a: a % 2 for a in m.labels}
            after = inconsistency(data_process(m, f), data_process(n, f))
            assert after <= before + 1e-12

    def test_consistency_to_closeness(self):
        for dim, outcomes, rng in self._instances(3):
            m = random_povm(dim, outcomes, rng)
            n = random_povm(dim, outcomes, rng)
            assert closeness(m, n) <= np.sqrt(2 * inconsistency(m, n)) + 1e-12

    def test_closeness_to_consistency(self):
        for dim, outcomes, rng in self._instances(4):
            m = random_projective(dim, outcomes, rng)
            n = random_povm(dim, outcomes, rng)
            assert inconsistency(m, n) <= closeness(m, n) + 1e-12

    def test_consistency_implies_similar_probabilities(self):
        for dim, outcomes, rng in self._instances(5):
            m = random_povm(dim, outcomes, rng)
            n = random_povm(dim, outcomes, rng)
            lhs = sum(
                abs(np.trace(a - b).real / dim)
                for a, b in zip(m.elements, n.elements)
            )
            assert lhs <= 2 * inconsistency(m, n) + 1e-12

    def test_multiplying_by_contraction_set(self):
        for dim, outcomes, rng in self._instances(6):
            m = random_operator_set(dim, outcomes, rng)
            n = random_operator_set(dim, outcomes, rng)
            r = random_contraction_set(dim, 3, rng)
            before = closeness(m, n)
            labels = tuple(
                (b, a) for b in r.labels for a in m.labels
            )
            rm = Measurement(
                labels,
                [rb @ ma for rb in r.elements for ma in m.elements],
                kind="general",
            )
            rn = Measurement(
                labels,
                [rb @ na for rb in r.elements for na in n.elements],
                kind="general",
            )
            assert closeness(rm, rn) <= before + 1e-12
