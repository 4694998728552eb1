import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as qd
from qdarwin import errors, measures
from qdarwin.measures import (_probe_stacks, _refined_eigenbasis, classical_mutual_information,
                              common_eigenbasis)
from qdarwin.zoo import haar_random_unitary, horodecki_holevo_closed_form

import oracles
from conftest import live_conditionals, pure_ghz, random_state


def bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return qd.validate_density_matrix(np.outer(psi, psi.conj()), qd.std_layout(2, [2]))


def cq_zero_plus():
    """1/2 |0><0| x |0><0| + 1/2 |1><1| x |+><+| on S, E1."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = 0.5 * np.diag([1.0, 0.0])
    m[2:, 2:] = 0.5 * np.outer(plus, plus.conj())
    return qd.validate_density_matrix(m, qd.std_layout(2, [2]))


class TestEntropy:
    def test_pure_state_zero(self):
        assert qd.von_neumann_entropy(bell_state()) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_maximally_mixed(self, d):
        layout = qd.SubsystemLayout.of(("S", d), system="S")
        rho = qd.validate_density_matrix(np.eye(d) / d, layout)
        assert qd.von_neumann_entropy(rho) == pytest.approx(np.log2(d), abs=1e-12)

    def test_two_level_value(self):
        # oracle: -sum p log2 p evaluated directly
        expected = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        rho = qd.validate_density_matrix(np.diag([0.25, 0.75]), layout)
        assert qd.von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.811278, abs=5e-7)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_additive_on_products(self, seed):
        a = qd.make_random_density(seed, qd.SubsystemLayout.of(("A", 3), system="A"))
        b = qd.make_random_density(seed + 1,
                                   qd.SubsystemLayout.of(("B", 4), system=None))
        joint = qd.tensor([a, b])
        assert qd.von_neumann_entropy(joint) == pytest.approx(
            qd.von_neumann_entropy(a) + qd.von_neumann_entropy(b), abs=1e-9)


class TestMutualInformation:
    def test_product_state(self):
        a = qd.make_random_density(5, qd.SubsystemLayout.of(("S", 2), system="S"))
        b = qd.make_random_density(6, qd.SubsystemLayout.of(("E1", 3), system=None))
        assert qd.mutual_information(qd.tensor([a, b]), ["S"], ["E1"]) == \
            pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self):
        assert qd.mutual_information(bell_state(), ["S"], ["E1"]) == \
            pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("p", np.linspace(0.05, 0.95, 7))
    def test_horodecki_equals_system_entropy(self, p):
        rho = qd.make_horodecki(p)
        h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
        assert qd.mutual_information(rho, ["S"], ["E1"]) == pytest.approx(h_s, abs=1e-9)

    def test_overlapping_parts(self):
        with pytest.raises(errors.OverlappingParts):
            qd.mutual_information(bell_state(), ["S"], ["S"])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_monotone_under_fragment_growth(self, seed):
        rho = random_state(seed, qd.std_layout(2, [2, 2]))
        small = qd.mutual_information(rho, ["S"], ["E1"])
        big = qd.mutual_information(rho, ["S"], ["E1", "E2"])
        assert small <= big + 1e-9


class TestConditionalMutualInformation:
    def test_three_way_product(self):
        parts = [qd.make_random_density(i, qd.SubsystemLayout.of((lab, 2), system=None))
                 for i, lab in enumerate(["S", "E1", "E2"])]
        joint = qd.tensor(parts)
        assert qd.conditional_mutual_information(joint, ["E1"], ["E2"], ["S"]) == \
            pytest.approx(0.0, abs=1e-9)

    def test_broadcast_state_conditionally_product(self):
        rho = qd.make_random_broadcast_state(9, 2, 2, 4)
        assert qd.conditional_mutual_information(rho, ["E1"], ["E2"], ["S"]) == \
            pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("p1", [0.3, 0.5])
    def test_correlated_branches_one_bit(self, p1):
        rho = qd.make_correlated_branches(2, p1)
        assert qd.conditional_mutual_information(rho, ["E1"], ["E2"], ["S"]) == \
            pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rho = random_state(seed, qd.std_layout(2, [2, 2]))
        assert qd.conditional_mutual_information(rho, ["E1"], ["E2"], ["S"]) >= -1e-9


def trace_distance(a, b):
    return 0.5 * oracles.trace_norm(a.matrix - b.matrix)


class TestTraceDistance:
    def test_identical(self):
        rho = qd.make_horodecki(0.3)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        a = qd.validate_density_matrix(np.diag([1.0, 0.0]), layout)
        b = qd.validate_density_matrix(np.diag([0.0, 1.0]), layout)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_pair(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        a = qd.validate_density_matrix(np.diag([0.7, 0.3]), layout)
        b = qd.validate_density_matrix(np.diag([0.5, 0.5]), layout)
        assert trace_distance(a, b) == pytest.approx(0.2, abs=1e-12)


class TestFidelity:
    def test_equal_pure(self):
        rho = bell_state()
        assert qd.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_supports(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        a = qd.validate_density_matrix(np.diag([1.0, 0.0]), layout)
        b = qd.validate_density_matrix(np.diag([0.0, 1.0]), layout)
        assert qd.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [16, 64])
    def test_orthogonal_pure_states_in_a_large_space(self, dim):
        # |a><a| formed in floating point has eigenvalues of about 1e-17 besides
        # the 1; they must not enter the fidelity
        u = haar_random_unitary(np.random.default_rng(dim), dim)
        layout = qd.SubsystemLayout.of(("S", dim), system="S")
        a, b = (qd.validate_density_matrix(np.outer(u[:, k], u[:, k].conj()), layout)
                for k in (0, 1))
        assert qd.fidelity(a, b) <= 1e-12
        assert qd.fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus(self):
        layout = qd.SubsystemLayout.of(("S", 2), system="S")
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        a = qd.validate_density_matrix(np.diag([1.0, 0.0]), layout)
        b = qd.validate_density_matrix(np.outer(plus, plus.conj()), layout)
        assert qd.fidelity(a, b) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_reduced_states_with_wide_factors(self):
        # a one-qubit reduction of a full-rank 2 x [2]^6 state has a 2 x 8192
        # factor; the fidelity reads it as a 2 x 2 one
        rho = qd.make_random_density(3, qd.std_layout(2, [2] * 6))
        a, b = qd.partial_trace(rho, ["E1"]), qd.partial_trace(rho, ["E2"])
        assert a.factor.shape == (2, 8192)
        assert abs(qd.fidelity(a, b) - oracles.fidelity(a.matrix, b.matrix)) <= 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_fuchs_van_de_graaf(self, seed):
        layout = qd.SubsystemLayout.of(("S", 3), system="S")
        a = qd.make_random_density(seed, layout)
        b = qd.make_random_density(seed + 77, layout)
        t = trace_distance(a, b)
        f = qd.fidelity(a, b)
        assert 1 - f <= t + 1e-9
        assert t <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9


class TestHolevo:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ghz_single_subenvironment(self, n):
        rho = qd.make_ghz_reduced(n)
        value = qd.holevo_quantity(rho, "S", ["E1"]).value
        # oracle: computational-basis evaluation, optimal by orthogonality of
        # the branch states; cross-checked against a fine independent grid
        assert value == pytest.approx(1.0, abs=1e-9)
        if n == 1:
            grid = oracles.holevo_grid_max(rho.matrix)
            assert value == pytest.approx(grid, abs=1e-6)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_horodecki_boundary(self, p):
        rho = qd.make_horodecki(p)
        assert qd.holevo_quantity(rho, "S", ["E1"]).value == \
            pytest.approx(0.0, abs=1e-9)

    def test_horodecki_quarter_closed_form(self):
        rho = qd.make_horodecki(0.25)
        value = qd.holevo_quantity(rho, "S", ["E1"]).value
        assert value == pytest.approx(horodecki_holevo_closed_form(0.25), abs=1e-9)
        assert value == pytest.approx(0.14316, abs=5e-6)

    def test_bounded_by_fragment_entropy(self):
        for seed in range(8):
            rho = random_state(seed)
            frag = list(rho.layout.environment_labels)
            chi = qd.holevo_quantity(rho, "S", frag).value
            h_f = qd.von_neumann_entropy(qd.partial_trace(rho, frag))
            assert -1e-9 <= chi <= h_f + 1e-9

    def test_pointer_basis_is_system_eigenbasis(self):
        rho = qd.make_horodecki(0.3)
        mv = qd.holevo_quantity(rho, "S", ["E1"])
        rho_s = qd.partial_trace(rho, ["S"]).matrix
        b = mv.basis.basis
        off = b.conj().T @ rho_s @ b - np.diag(np.diag(b.conj().T @ rho_s @ b))
        assert np.linalg.norm(off) < 1e-10


class TestDiscord:
    def test_orthogonal_classical_quantum_is_zero(self):
        rho = qd.make_cq_state(3, [0.4, 0.6], 0.0)
        assert qd.discord(rho, "S", ["E1"]).value == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_one_bit(self):
        rho = bell_state()
        d = qd.discord(rho, "S", ["E1"]).value
        assert d == pytest.approx(1.0, abs=1e-9)
        # oracle: I - chi with chi maximized over a fine independent grid
        grid = oracles.holevo_grid_max(rho.matrix)
        assert qd.mutual_information(rho, ["S"], ["E1"]) - grid == \
            pytest.approx(d, abs=1e-6)

    def test_horodecki_quarter(self):
        rho = qd.make_horodecki(0.25)
        h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
        expected = h_s - horodecki_holevo_closed_form(0.25)
        d = qd.discord(rho, "S", ["E1"]).value
        assert d == pytest.approx(expected, abs=1e-9)
        assert d == pytest.approx(0.81128, abs=5e-6)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_complementarity_identity(self, seed):
        rho = random_state(seed)
        frag = list(rho.layout.environment_labels)
        mi = qd.mutual_information(rho, ["S"], frag)
        chi = qd.holevo_quantity(rho, "S", frag).value
        d = qd.discord(rho, "S", frag).value
        assert mi == pytest.approx(chi + d, abs=1e-6)


COMPLEMENT_FIELDS = ("probabilities", "h_f", "h_sf", "h_f_given_s", "holevo",
                     "mutual_information", "discord")


class TestComplement:
    @given(system_dim=st.sampled_from([2, 3]),
           env_dims=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5),
           seed=st.integers(0, 10_000), ghz=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_kernel_on_the_rest_of_a_pure_environment(
            self, system_dim, env_dims, seed, ghz, data):
        """On a rank-1 state the ensemble of E minus F, read from F's by swapping H(F)
        and H(SF), is the one the kernel builds for it, degenerate rho_S included."""
        rho = (pure_ghz(system_dim, env_dims) if ghz else
               qd.make_random_density(seed, qd.std_layout(system_dim, env_dims), rank=1))
        env = rho.layout.environment_labels
        chosen = data.draw(st.sets(st.sampled_from(env), min_size=1, max_size=len(env) - 1))
        frag = tuple(l for l in env if l in chosen)
        rest = tuple(l for l in env if l not in chosen)
        basis = qd.pointer_basis(rho, "S")
        got = qd.pointer_ensemble(rho, "S", frag, basis).complement(rest)
        want = qd.pointer_ensemble(rho, "S", rest, basis)
        assert got.fragment == want.fragment == rest
        for field in COMPLEMENT_FIELDS:
            diff = np.subtract(getattr(got, field), getattr(want, field))
            assert np.max(np.abs(diff)) <= 1e-12, field


class TestAccessibleInformation:
    def test_broadcast_state_exact(self):
        rho = qd.make_random_broadcast_state(4, 2, 2, 4)
        acc = qd.accessible_information_bounds(rho, "S", ["E1", "E2"])
        h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
        assert acc.exact
        assert acc.lower == pytest.approx(acc.upper, abs=1e-9)
        assert acc.upper == pytest.approx(h_s, abs=1e-9)

    def test_product_state_zero(self):
        a = qd.make_random_density(1, qd.SubsystemLayout.of(("S", 2), system="S"))
        b = qd.make_random_density(2, qd.SubsystemLayout.of(("E1", 2), system=None))
        acc = qd.accessible_information_bounds(qd.tensor([a, b]), "S", ["E1"])
        assert acc.exact
        assert acc.lower == pytest.approx(0.0, abs=1e-9)
        assert acc.upper == pytest.approx(0.0, abs=1e-9)

    def test_zero_plus_ensemble(self):
        rho = cq_zero_plus()
        acc = qd.accessible_information_bounds(rho, "S", ["E1"])
        assert not acc.exact
        # frozen from the independent fragment-measurement grid oracle; this
        # ensemble's optimum coincides with one minus the binary entropy of
        # the Helstrom error for two equiprobable pure states at overlap 1/sqrt2
        pe = 0.5 * (1 - np.sqrt(1 - 0.5))
        expected = 1.0 - oracles.shannon([pe, 1 - pe])
        assert expected == pytest.approx(0.3991239633, abs=1e-9)
        assert acc.lower == pytest.approx(expected, abs=1e-6)
        jain_floor = 1.0 - 2 * 0.5 * (1 / np.sqrt(2))
        assert acc.lower >= jain_floor - 1e-9
        assert acc.lower <= acc.upper + 1e-6

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_ordering_on_random_states(self, seed):
        rho = random_state(seed, qd.std_layout(2, [2]))
        acc = qd.accessible_information_bounds(rho, "S", ["E1"])
        assert acc.lower <= acc.upper + 1e-6

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_qubit_fidelity_floor(self, seed):
        # chain: chi >= I_acc lower >= H({p}) - 2 sqrt(p1 p2) B(rho_1, rho_2)
        rho = random_state(seed, qd.std_layout(2, [2]))
        ens = qd.pointer_ensemble(rho, "S", ["E1"])
        probs, conds = live_conditionals(ens)
        if len(conds) < 2:
            return
        (p1, p2), (r1, r2) = probs, conds
        floor = (qd.entropy_bits([p1, p2])
                 - 2 * np.sqrt(p1 * p2) * qd.fidelity(r1, r2))
        acc = qd.accessible_information_bounds(rho, "S", ["E1"])
        assert ens.holevo >= acc.lower - 1e-6
        assert acc.lower >= floor - 1e-6


    def test_restarts_stopped_by_the_cap_are_counted(self):
        # a rank-deficient fragment puts the optimum on the boundary J_na = 0,
        # where the ascent's gradient never falls below its floor
        capped = qd.accessible_information_bounds(
            qd.make_random_density(3000, qd.std_layout(2, [4]), rank=2), "S", ["E1"])
        assert capped.lower_optimized
        assert 0 < capped.capped <= capped.restarts
        full = qd.accessible_information_bounds(
            qd.make_random_density(0, qd.std_layout(2, [2])), "S", ["E1"])
        assert full.lower_optimized
        assert full.capped == 0


class TestHelpers:
    def test_common_eigenbasis_diagonalizes_commuting_family(self):
        from qdarwin.zoo import haar_random_unitary
        u = haar_random_unitary(np.random.default_rng(8), 4)
        d1 = u @ np.diag([0.1, 0.1, 0.5, 0.3]) @ u.conj().T
        d2 = u @ np.diag([0.25, 0.5, 0.25, 0.0]) @ u.conj().T
        basis = common_eigenbasis([np.stack([d1, d2])])
        for m in (d1, d2):
            t = basis.conj().T @ m @ basis
            assert np.linalg.norm(t - np.diag(np.diag(t))) < 1e-9

    def test_probe_rows_that_cannot_split_a_cluster_are_skipped(self):
        # I/2 x |0...0>: only fragment row 0 has probes; the other 255 rows are zero
        n = 8
        factor = np.zeros((2 ** (n + 1), 2), dtype=complex)
        factor[0, 0] = factor[2 ** n, 1] = np.sqrt(0.5)
        rho = qd.validate_factor(factor, qd.std_layout(2, [2] * n))
        assert len(list(_probe_stacks(rho, "S", rho.layout.environment_labels))) == 1
        assert np.allclose(qd.pointer_basis(rho, "S").basis, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("make", [
        *(lambda n=n: qd.make_ghz_reduced(n) for n in (2, 3, 5, 8)),
        *(lambda s=s: qd.make_cq_state(s, [1 / 3] * 3, 0.2 * (s % 5)) for s in range(8)),
        *(lambda s=s: qd.make_cq_state(s, [0.25] * 4, 0.3, n_subenvs=2) for s in range(4)),
        *(lambda s=s: qd.make_cq_state(s, [0.5, 0.5], 0.0, n_subenvs=3) for s in range(4)),
    ])
    def test_pointer_basis_matches_the_unfiltered_probes(self, make):
        # skipped probes cannot split a cluster, so the basis is the one every probe gives
        rho = make()
        rho_s = qd.partial_trace(rho, ["S"]).matrix
        want = _refined_eigenbasis(rho_s, oracles.pointer_probes(rho.factor, len(rho_s)))
        assert np.allclose(qd.pointer_basis(rho, "S").basis, want, rtol=0.0, atol=1e-14)

    def test_pointer_basis_reads_only_probes_that_can_split(self, monkeypatch):
        # GHZ N = 10: rows 0 and 1023 carry the probes, and the first splits rho_S = I/2
        read = []

        def counted(stacks, _inner=measures.common_eigenbasis):
            def reading():
                for stack in stacks:
                    read.append(len(stack))
                    yield stack
            return _inner(reading())

        monkeypatch.setattr(measures, "common_eigenbasis", counted)
        w = qd.verify_equivalence(qd.make_ghz_reduced(10), "S")
        assert w.consistent and w.sbs.pointer_degenerate
        assert 0 < sum(read) <= 16

    def test_degenerate_cluster_that_nothing_splits_keeps_the_computational_basis(self):
        assert np.allclose(_refined_eigenbasis(np.eye(4, dtype=complex) / 4, []), np.eye(4),
                           atol=1e-12)
        # I/4 x rho_E: every probe is a multiple of the identity on S
        env = qd.validate_density_matrix(
            np.diag([0.4, 0.6]), qd.SubsystemLayout.of(("E1", 2), system=None))
        rho = qd.tensor([qd.validate_density_matrix(
            np.eye(4) / 4, qd.SubsystemLayout.of(("S", 4), system="S")), env])
        assert np.allclose(qd.pointer_basis(rho, "S").basis, np.eye(4), atol=1e-12)

    def test_unoptimized_lower_bound_of_the_trine_is_covariant(self):
        """The trine cq state sum_i |i><i| x |phi_i><phi_i| / 3 has rho_F = I/2: the
        bracket refines that cluster against the conditionals, so it measures in the
        eigenbasis of one trine projector, 1 - (2/3) h(1/4) bits, in any frame of E1."""
        f = np.zeros((3, 2, 3), dtype=complex)
        for i in range(3):
            f[i, :, i] = [np.cos(2 * np.pi * i / 3), np.sin(2 * np.pi * i / 3)]
        h = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        for seed in range(5):
            u = haar_random_unitary(np.random.default_rng(seed), 2) if seed else np.eye(2)
            v = np.einsum("ab,sbc->sac", u, f).reshape(6, 3) / np.sqrt(3)
            acc = qd.verify_equivalence(qd.validate_factor(v, qd.std_layout(3, [2])), "S").sqd.acc
            assert not acc.exact and not acc.lower_optimized
            assert acc.lower == pytest.approx(1.0 - 2.0 / 3.0 * h, abs=1e-12)

    def test_classical_mi_perfectly_distinguishable(self):
        probs = np.array([0.5, 0.5])
        conds = [np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)]
        assert classical_mutual_information(probs, conds, np.eye(2, dtype=complex)) \
            == pytest.approx(1.0, abs=1e-12)
