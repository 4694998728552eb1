"""Reductions read from a state's factor rho = V V^dagger agree with dense ones.

Every partial trace and every pointer-ensemble value is compared with the
dense einsum reduction of ``oracles.partial_trace`` on the state's matrix.
"""

import itertools

import numpy as np
import pytest

import qdarwin as qd
from qdarwin import errors
from qdarwin.core import reduced_spectrum
from qdarwin.zoo import haar_random_unitary

import oracles

TOL = 1e-10


def system_in_middle():
    layout = qd.SubsystemLayout.of(("E1", 2), ("S", 3), ("E2", 2), system="S")
    return qd.make_random_density(11, layout, rank=2)


def ghz_system_last():
    """Reduced GHZ on three qubits with the system factor last."""
    layout = qd.SubsystemLayout.of(("E1", 2), ("E2", 2), ("S", 2), system="S")
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = m[7, 7] = 0.5
    return qd.validate_density_matrix(m, layout)


def negative_eigenvalue_state():
    """Valid state with one eigenvalue -1e-10, inside the positivity tolerance."""
    u = haar_random_unitary(np.random.default_rng(5), 8)
    w = np.array([(1 + 1e-10) / 7] * 7 + [-1e-10])
    return qd.validate_density_matrix((u * w) @ u.conj().T, qd.std_layout(2, [2, 2]))


def positive_part(m):
    w, u = np.linalg.eigh(m)
    return (u * np.clip(w, 0.0, None)) @ u.conj().T


STATES = {
    "full-rank": lambda: qd.make_random_density(3, qd.std_layout(2, [2, 3])),
    "rank-2": lambda: qd.make_random_density(4, qd.std_layout(2, [2, 2, 2]), rank=2),
    "cq": lambda: qd.make_cq_state(3, [0.3, 0.7], 0.4, 2),
    "sbs": lambda: qd.make_random_broadcast_state(2, 2, 2, 3),
    "horodecki": lambda: qd.make_horodecki(0.3),
    "ghz-1": lambda: qd.make_ghz_reduced(1),
    "ghz-4": lambda: qd.make_ghz_reduced(4),
    "ghz-8": lambda: qd.make_ghz_reduced(8),
    "haar-6": lambda: qd.make_haar_pure(7, qd.std_layout(2, [2] * 6)).to_density(),
    "system-in-middle": system_in_middle,
    "ghz-system-last": ghz_system_last,
    "negative-eigenvalue": negative_eigenvalue_state,
}


def subsets(labels, limit=40):
    """Every nonempty subset of up to five labels; of more, the first ``limit``
    subsets of size 1, 2 and n - 1 (the largest reductions)."""
    n = len(labels)
    if n <= 5:
        return [c for k in range(1, n + 1) for c in itertools.combinations(labels, k)]
    return [c for k in (1, 2, n - 1) for c in itertools.combinations(labels, k)][:limit]


@pytest.mark.parametrize("name", list(STATES))
def test_partial_trace_matches_dense_oracle(name):
    rho = STATES[name]()
    labels, dims = rho.layout.labels, rho.layout.dims
    for keep in subsets(labels):
        got = qd.partial_trace(rho, keep).matrix
        want = oracles.partial_trace(rho.matrix, dims, [labels.index(l) for l in keep])
        assert np.max(np.abs(got - want)) <= TOL, keep


@pytest.mark.parametrize("name", list(STATES))
def test_ensemble_values_match_dense_oracle(name):
    """On the negative-eigenvalue state the oracle reads the positive part, which
    is the state the factor holds: every dense reduction keeps the -1e-10
    component, and entropies respond to it by about 1e-10 log2(1 / lambda) for
    small reduced eigenvalues lambda, beyond the tolerance."""
    rho = STATES[name]()
    m = positive_part(rho.matrix) if name == "negative-eigenvalue" else rho.matrix
    labels, dims = rho.layout.labels, rho.layout.dims
    system = rho.layout.system
    s = labels.index(system)
    for frag in subsets(rho.layout.environment_labels, limit=12):
        ens = qd.pointer_ensemble(rho, system, frag)
        f = [labels.index(l) for l in frag]
        joint = oracles.partial_trace(m, dims, [s, *f])
        h_s = oracles.entropy(oracles.partial_trace(m, dims, [s]))
        h_f = oracles.entropy(oracles.partial_trace(m, dims, f))
        h_sf = oracles.entropy(joint)
        chi = oracles.holevo_in_basis(joint, dims[s], ens.basis.basis.T)
        mi = h_s + h_f - h_sf
        got = (ens.h_s, ens.h_f, ens.h_sf, ens.mutual_information, ens.holevo, ens.discord)
        want = (h_s, h_f, h_sf, mi, chi, mi - chi)
        assert np.max(np.abs(np.subtract(got, want))) <= TOL, frag


class TestFactor:
    def test_validation_cuts_the_rank(self):
        rho = qd.make_random_density(4, qd.std_layout(2, [2, 2]), rank=2)
        assert rho.factor.shape == (8, 2)
        assert np.allclose(rho.factor @ rho.factor.conj().T, rho.matrix, atol=1e-14)
        assert negative_eigenvalue_state().factor.shape == (8, 7)

    def test_constructors_hand_over_their_factor(self):
        assert qd.make_ghz_reduced(5).factor.shape == (64, 2)
        psi = qd.make_haar_pure(1, qd.std_layout(2, [2, 2]))
        assert psi.to_density().factor.shape == (8, 1)

    def test_unvalidated_state_factors_on_first_use(self):
        a = qd.make_random_density(1, qd.SubsystemLayout.of(("S", 2), system="S"))
        b = qd.make_random_density(2, qd.SubsystemLayout.of(("E1", 3), system=None))
        rho = qd.tensor([a, b])
        assert "factor" not in vars(rho)
        assert np.allclose(rho.factor @ rho.factor.conj().T, rho.matrix, atol=1e-14)
        assert rho.factor is rho.factor

    def test_validate_factor_rejects_bad_factors(self):
        layout = qd.std_layout(2, [2])
        with pytest.raises(errors.DimensionMismatch):
            qd.validate_factor(np.ones((3, 1)) / np.sqrt(3), layout)
        with pytest.raises(errors.DimensionMismatch):
            qd.validate_factor(np.array([[np.nan], [1.0], [0.0], [0.0]]), layout)
        with pytest.raises(errors.TraceNotOne):
            qd.validate_factor(np.ones((4, 1)) / 2 * 1.1, layout)

    def test_spectra_are_memoized_per_label_subset(self):
        rho = qd.make_random_density(2, qd.std_layout(2, [2, 2]))
        first = reduced_spectrum(rho, ["E1", "S"])
        assert reduced_spectrum(rho, ["S", "E1"]) is first
        assert qd.mutual_information(rho, ["S"], ["E1"]) == pytest.approx(
            qd.mutual_information(rho, ["E1"], ["S"]), abs=1e-15)
