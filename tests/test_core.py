import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as qd
from qdarwin import errors
from qdarwin.zoo import horodecki_p_tilde

from conftest import random_state


def bell_state():
    layout = qd.std_layout(2, [2])
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return qd.validate_density_matrix(np.outer(psi, psi.conj()), layout)


class TestValidation:
    def test_maximally_mixed_qubit(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        rho = qd.validate_density_matrix(np.eye(2) / 2, layout)
        assert rho.dim == 2

    def test_trace_not_one(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        with pytest.raises(errors.TraceNotOne):
            qd.validate_density_matrix(np.diag([0.5, 0.4]), layout)

    def test_bell_projector_is_valid(self):
        assert bell_state().layout.labels == ("S", "E1")

    def test_not_hermitian(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(errors.NotHermitian):
            qd.validate_density_matrix(m, layout)

    def test_not_positive_reports_most_negative_eigenvalue(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(errors.NotPositive) as exc:
            qd.validate_density_matrix(m, layout)
        assert exc.value.most_negative == pytest.approx(-0.2, abs=1e-12)

    def test_dimension_mismatch(self):
        layout = qd.std_layout(2, [2])
        with pytest.raises(errors.DimensionMismatch):
            qd.validate_density_matrix(np.eye(2) / 2, layout)

    def test_nan_rejected(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        m = np.diag([np.nan, 1.0]).astype(complex)
        with pytest.raises(errors.DimensionMismatch):
            qd.validate_density_matrix(m, layout)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        reduced = qd.partial_trace(bell_state(), ["S"])
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        a = qd.validate_density_matrix(
            np.diag([0.3, 0.7]), qd.SubsystemLayout.of(("A", 2), system="A"))
        b = qd.validate_density_matrix(
            np.diag([0.6, 0.4]), qd.SubsystemLayout.of(("B", 2), system=None))
        joint = qd.tensor([a, b])
        assert np.allclose(qd.partial_trace(joint, ["A"]).matrix, a.matrix, atol=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
    def test_horodecki_system_marginal(self, p):
        rho = qd.make_horodecki(p)
        pt = horodecki_p_tilde(p)
        reduced = qd.partial_trace(rho, ["S"])
        assert np.allclose(reduced.matrix, np.diag([pt, 1 - pt]), atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(errors.UnknownLabel):
            qd.partial_trace(bell_state(), ["X"])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_trace_of_tensor_recovers_factor(self, seed):
        rng = np.random.default_rng(seed)
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = qd.make_random_density(seed, qd.SubsystemLayout.of(("A", da), system="A"))
        b = qd.make_random_density(seed + 1,
                                   qd.SubsystemLayout.of(("B", db), system=None))
        joint = qd.tensor([a, b])
        assert np.allclose(qd.partial_trace(joint, ["A"]).matrix, a.matrix, atol=1e-10)
        assert np.allclose(qd.partial_trace(joint, ["B"]).matrix, b.matrix, atol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sequential_equals_joint_trace_out(self, seed):
        rho = random_state(seed, qd.std_layout(2, [2, 2]))
        step = qd.partial_trace(qd.partial_trace(rho, ["S", "E2"]), ["S"])
        joint = qd.partial_trace(rho, ["S"])
        assert np.allclose(step.matrix, joint.matrix, atol=1e-10)
        assert step.matrix.trace() == pytest.approx(1.0, abs=1e-9)


class TestTensor:
    def test_mixed_qubits(self):
        mm = qd.validate_density_matrix(
            np.eye(2) / 2, qd.SubsystemLayout.of(("A", 2), system="A"))
        mm2 = qd.validate_density_matrix(
            np.eye(2) / 2, qd.SubsystemLayout.of(("B", 2), system=None))
        assert np.allclose(qd.tensor([mm, mm2]).matrix, np.eye(4) / 4)

    def test_basis_projectors(self):
        zero = qd.validate_density_matrix(
            np.diag([1.0, 0.0]), qd.SubsystemLayout.of(("A", 2), system="A"))
        one = qd.validate_density_matrix(
            np.diag([0.0, 1.0]), qd.SubsystemLayout.of(("B", 2), system=None))
        out = qd.tensor([zero, one]).matrix
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)

    def test_diagonal_kronecker_values(self):
        # oracle: direct Kronecker-product arithmetic
        a = qd.validate_density_matrix(
            np.diag([0.3, 0.7]), qd.SubsystemLayout.of(("A", 2), system="A"))
        b = qd.validate_density_matrix(
            np.diag([0.6, 0.4]), qd.SubsystemLayout.of(("B", 2), system=None))
        assert np.allclose(qd.tensor([a, b]).matrix,
                           np.diag([0.18, 0.12, 0.42, 0.28]), atol=1e-15)

    def test_duplicate_label(self):
        a = qd.validate_density_matrix(
            np.eye(2) / 2, qd.SubsystemLayout.of(("A", 2), system="A"))
        b = qd.validate_density_matrix(
            np.eye(2) / 2, qd.SubsystemLayout.of(("A", 2), system=None))
        with pytest.raises(errors.DuplicateLabel):
            qd.tensor([a, b])


class TestEigHermitian:
    def test_diagonal(self):
        w, v = qd.eig_hermitian(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(w, [0.75, 0.25])

    def test_pauli_x_mixture(self):
        m = (np.eye(2) + np.array([[0, 1], [1, 0]])) / 2
        w, v = qd.eig_hermitian(m.astype(complex))
        assert np.allclose(w, [1.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(v[:, 0]), [1, 1] / np.sqrt(2), atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = m + m.conj().T
        w, v = qd.eig_hermitian(m)
        assert np.linalg.norm(m - (v * w) @ v.conj().T) <= 1e-10
        assert np.all(np.diff(w) <= 1e-12)

    def test_not_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            qd.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_degenerate_identity_gives_computational_basis(self):
        w, v = qd.eig_hermitian(np.eye(4, dtype=complex) / 4)
        assert np.allclose(v, np.eye(4), atol=1e-12)

    def test_deterministic_on_repeated_calls(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = m + m.conj().T
        w1, v1 = qd.eig_hermitian(m)
        w2, v2 = qd.eig_hermitian(m.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 64))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_up_to_dim_64(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (m + m.conj().T) / 2
        w, v = qd.eig_hermitian(m)
        assert np.linalg.norm(m - (v * w) @ v.conj().T) <= 1e-10 * max(1.0, np.abs(w).max())


class TestMeasureSubsystem:
    def test_product_state_deterministic_outcome(self):
        zero = qd.validate_density_matrix(
            np.diag([1.0, 0.0]), qd.SubsystemLayout.of(("S", 2), system="S"))
        env = qd.validate_density_matrix(
            np.diag([0.4, 0.6]), qd.SubsystemLayout.of(("E1", 2), system=None))
        rho = qd.tensor([zero, env])
        probs, conds = qd.branch_decomposition(
            rho, "S", qd.ProjectiveMeasurement.computational("S", 2))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert conds[1] is None
        assert np.allclose(conds[0], env.matrix, atol=1e-12)

    def test_bell_measurement(self):
        probs, conds = qd.branch_decomposition(
            bell_state(), "S", qd.ProjectiveMeasurement.computational("S", 2))
        assert list(probs) == pytest.approx([0.5, 0.5])
        assert np.allclose(conds[0], np.diag([1.0, 0.0]))
        assert np.allclose(conds[1], np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("p", [0.25, 0.7])
    def test_horodecki_conditionals(self, p):
        ens = qd.pointer_ensemble(qd.make_horodecki(p), "S", ["E1"])
        pt = horodecki_p_tilde(p)
        assert ens.probabilities[0] == pytest.approx(pt, abs=1e-12)
        expected0 = np.diag([p * p, (1 - p) ** 2]) / pt
        assert np.allclose(ens.conditionals[0], expected0, atol=1e-12)
        assert np.allclose(ens.conditionals[1], np.eye(2) / 2, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_normalize_and_states_validate(self, seed):
        rho = random_state(seed)
        probs, conds = qd.branch_decomposition(
            rho, "S", qd.ProjectiveMeasurement.computational("S", rho.layout.dim_of("S")))
        rest = rho.layout.subset(rho.layout.environment_labels)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        for cond in conds:
            if cond is not None:
                qd.validate_density_matrix(cond, rest)

    def test_basis_dimension_must_match_factor(self):
        with pytest.raises(errors.DimensionMismatch):
            qd.branch_decomposition(qd.make_horodecki(0.3), "S",
                                    qd.ProjectiveMeasurement.computational("S", 3))


class TestDephase:
    def test_diagonal_state_unchanged(self):
        rho = qd.make_ghz_reduced(2)
        meas = qd.ProjectiveMeasurement.computational("S", 2)
        assert np.allclose(qd.dephase_subsystem(rho, meas).matrix, rho.matrix,
                           atol=1e-12)

    def test_bell_dephasing(self):
        out = qd.dephase_subsystem(
            bell_state(), qd.ProjectiveMeasurement.computational("S", 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(out.matrix, expected, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_trace_preserving(self, seed):
        rho = random_state(seed)
        meas = qd.ProjectiveMeasurement.computational("S", rho.layout.dim_of("S"))
        once = qd.dephase_subsystem(rho, meas)
        twice = qd.dephase_subsystem(once, meas)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-12)
        assert once.matrix.trace().real == pytest.approx(1.0, abs=1e-9)

    def test_dephase_in_nonpointer_basis_changes_state(self):
        rho = qd.make_ghz_reduced(1)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        meas = qd.ProjectiveMeasurement.from_vectors("S", had)
        out = qd.dephase_subsystem(rho, meas)
        assert not np.allclose(out.matrix, rho.matrix, atol=1e-6)


class TestMeasurementValidation:
    def test_from_vectors_rejects_non_orthonormal(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(errors.NotOrthonormal):
            qd.ProjectiveMeasurement.from_vectors("S", bad)

    def test_unknown_subsystem(self):
        with pytest.raises(errors.UnknownLabel):
            qd.branch_decomposition(bell_state(), "Q",
                                    qd.ProjectiveMeasurement.computational("Q", 2))


class TestStateFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rho = qd.make_horodecki(1 / 3)
        path = tmp_path / "state.json"
        qd.save_state(rho, str(path))
        back = qd.load_state(str(path))
        assert np.array_equal(back.matrix, rho.matrix)
        assert back.layout == rho.layout

    def test_format_shape(self):
        rho = qd.make_ghz_reduced(1)
        buf = io.StringIO()
        qd.save_state(rho, buf)
        payload = json.loads(buf.getvalue())
        assert payload["layout"][0] == {"label": "S", "dim": 2, "role": "system"}
        assert payload["layout"][1]["role"] == "environment"
        assert payload["matrix"][0][0] == [0.5, 0.0]

    def test_load_rejects_invalid(self, tmp_path):
        rho = qd.make_ghz_reduced(1)
        payload = rho.to_dict()
        payload["matrix"][0][0] = [0.9, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(errors.TraceNotOne):
            qd.load_state(str(path))
