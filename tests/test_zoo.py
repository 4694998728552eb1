import numpy as np
import pytest

import qdarwin as qd
from qdarwin import errors
from qdarwin.zoo import (
    SbsSpec,
    haar_random_unitary,
    horodecki_holevo_closed_form,
    horodecki_p_tilde,
    make_theorem_case,
    perturb_state,
)

import oracles
from conftest import live_conditionals


class TestBroadcastSpec:
    def good_spec(self):
        return SbsSpec(
            probabilities=(0.5, 0.5),
            subenv_dims=(2, 2),
            supports=(((0,), (0,)), ((1,), (1,))),
            spectra=(((1.0,), (1.0,)), ((1.0,), (1.0,))),
        )

    def test_two_branch_projectors_give_ghz(self):
        rho = qd.make_broadcast_state(self.good_spec())
        assert np.allclose(rho.matrix, qd.make_ghz_reduced(2).matrix, atol=1e-12)

    def test_qutrit_mixed_conditionals_detected(self):
        spec = SbsSpec(
            probabilities=(0.2, 0.3, 0.5),
            subenv_dims=(3, 4),
            supports=(((0,), (0, 1)), ((1,), (2,)), ((2,), (3,))),
            spectra=(((1.0,), (0.25, 0.75)), ((1.0,), (1.0,)), ((1.0,), (1.0,))),
        )
        rho = qd.make_broadcast_state(spec)
        assert qd.detect_broadcast_structure(rho, "S").holds

    def test_overlapping_supports_rejected(self):
        with pytest.raises(errors.OverlappingParts):
            SbsSpec(
                probabilities=(0.5, 0.5),
                subenv_dims=(2,),
                supports=(((0,),), ((0,),)),
                spectra=(((1.0,),), ((1.0,),)),
            )

    def test_support_outside_dimension(self):
        with pytest.raises(errors.DimensionOutOfRange):
            SbsSpec(
                probabilities=(0.5, 0.5),
                subenv_dims=(2,),
                supports=(((0,),), ((2,),)),
                spectra=(((1.0,),), ((1.0,),)),
            )


class TestRandomBroadcast:
    def test_round_trip_and_determinism(self):
        a = qd.make_random_broadcast_state(1, 2, 3, 4)
        b = qd.make_random_broadcast_state(1, 2, 3, 4)
        assert np.array_equal(a.matrix, b.matrix)
        assert qd.detect_broadcast_structure(a, "S").holds

    def test_different_seed_different_state(self):
        a = qd.make_random_broadcast_state(1, 2, 3, 4)
        c = qd.make_random_broadcast_state(2, 2, 3, 4)
        assert a.layout != c.layout or not np.allclose(a.matrix, c.matrix)
        assert qd.detect_broadcast_structure(c, "S").holds

    def test_branch_probabilities_recovered(self):
        rho = qd.make_random_broadcast_state(5, 3, 2, 5)
        v = qd.detect_broadcast_structure(rho, "S")
        marg = np.sort(np.diag(qd.partial_trace(rho, ["S"]).matrix).real)[::-1]
        assert np.allclose(sorted(v.branch_probabilities, reverse=True), marg,
                           atol=1e-9)

    def test_dimension_too_small(self):
        with pytest.raises(errors.DimensionOutOfRange):
            qd.make_random_broadcast_state(0, n_branches=3, n_subenvs=2, max_dim=2)


class TestGhz:
    def test_structure(self):
        rho = qd.make_ghz_reduced(1)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho.matrix, expected)
        assert qd.holevo_quantity(rho, "S", ["E1"]).value == pytest.approx(1.0, abs=1e-9)

    def test_five_subenvironments_plateau(self):
        rho = qd.make_ghz_reduced(5)
        h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
        assert h_s == pytest.approx(1.0, abs=1e-12)
        for frag in (["E1"], ["E2", "E4"], ["E1", "E2", "E3", "E4", "E5"]):
            v = qd.check_strong_darwinism(rho, "S", frag)
            assert v.holds

    def test_system_marginal(self):
        rho = qd.make_ghz_reduced(4)
        assert np.allclose(qd.partial_trace(rho, ["S"]).matrix, np.eye(2) / 2)

    def test_size_cap(self):
        """N = 16 is the largest GHZ state under ``MAX_STATE_DIM``; N = 70 stops at
        the layout, before its 2^71 x 2 factor is allocated."""
        assert qd.make_ghz_reduced(16).dim == qd.zoo.MAX_STATE_DIM
        with pytest.raises(errors.DimensionOutOfRange):
            qd.make_ghz_reduced(70)


def test_std_layout_caps_the_total_dimension():
    """Every constructor of a state that grows with its subenvironment count takes
    its layout from ``std_layout`` before it allocates."""
    assert qd.std_layout(2, [2] * 16).total_dim == qd.zoo.MAX_STATE_DIM
    for system_dim, env_dims in [(2, [2] * 17), (2, [4] * 9), (3, [4] * 70)]:
        with pytest.raises(errors.DimensionOutOfRange):
            qd.std_layout(system_dim, env_dims)


class TestHorodecki:
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_boundary_is_pure_branch(self, p):
        rho = qd.make_horodecki(p)
        assert qd.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)
        env = qd.partial_trace(rho, ["E1"]).matrix
        assert np.allclose(env, np.diag([p, 1 - p]), atol=1e-12)

    def test_marginals_on_grid(self):
        for p in np.linspace(0.01, 0.99, 99):
            rho = qd.make_horodecki(p)
            pt = horodecki_p_tilde(p)
            assert np.allclose(qd.partial_trace(rho, ["S"]).matrix,
                               np.diag([pt, 1 - pt]), atol=1e-9)
            assert np.allclose(qd.partial_trace(rho, ["E1"]).matrix,
                               np.diag([p, 1 - p]), atol=1e-9)
            assert qd.von_neumann_entropy(rho) == pytest.approx(
                oracles.shannon([p, 1 - p]), abs=1e-9)

    def test_environment_entropy_value(self):
        rho = qd.make_horodecki(0.25)
        h_e = qd.von_neumann_entropy(qd.partial_trace(rho, ["E1"]))
        assert h_e == pytest.approx(0.811278, abs=5e-7)

    def test_closed_form_against_independent_construction(self):
        for p in (0.1, 0.25, 0.6):
            mine = qd.make_horodecki(p).matrix
            assert np.allclose(mine, oracles.horodecki_matrix(p), atol=1e-12)
            direct = oracles.holevo_in_basis(mine, 2, [np.array([1, 0 + 0j]),
                                                       np.array([0, 1 + 0j])])
            assert direct == pytest.approx(horodecki_holevo_closed_form(p), abs=1e-12)


class TestAppendixBFamilies:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p1", [0.3, 0.5])
    def test_correlated_branch_posts(self, n, p1):
        rho = qd.make_correlated_branches(n, p1)
        full = qd.detect_broadcast_structure(rho, "S")
        assert not full.holds and full.bipartite_only
        for k in range(n):
            pair = qd.partial_trace(rho, ["S", f"E{k+1}"])
            assert qd.detect_broadcast_structure(pair, "S").holds
            assert qd.check_strong_darwinism(pair, "S").holds
        assert not qd.check_strong_independence(rho, "S").holds

    def test_entangled_branch_rank(self):
        rho = qd.make_entangled_branches(2, 0.5)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert (evals > 1e-12).sum() == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_entangled_branch_pair_marginals_match_correlated(self, n):
        a = qd.make_entangled_branches(n, 0.4)
        b = qd.make_correlated_branches(n, 0.4)
        for k in range(n):
            pa = qd.partial_trace(a, ["S", f"E{k+1}"])
            pb = qd.partial_trace(b, ["S", f"E{k+1}"])
            assert np.allclose(pa.matrix, pb.matrix, atol=1e-12)
            assert qd.detect_broadcast_structure(pa, "S").holds


class TestHaar:
    def test_unit_norm_and_determinism(self):
        layout = qd.std_layout(2, [2, 2])
        a = qd.make_haar_pure(7, layout)
        b = qd.make_haar_pure(7, layout)
        assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = qd.make_haar_pure(8, layout)
        assert not np.allclose(a.amplitudes, c.amplitudes)

    def test_dimension_cap(self):
        layout = qd.std_layout(2, [2] * 7)
        with pytest.raises(errors.DimensionOutOfRange):
            qd.make_haar_pure(1, layout)

    def test_marginal_purity_statistics(self):
        # Monte-Carlo oracle for the mean marginal purity of a 2x2 bipartite
        # Haar state; the analytic ensemble mean is (m + n)/(m n + 1) = 0.8
        layout = qd.std_layout(2, [2])
        purities = []
        for seed in range(1000):
            rho = qd.make_haar_pure(seed, layout).to_density()
            marg = qd.partial_trace(rho, ["S"]).matrix
            purities.append(float(np.trace(marg @ marg).real))
        assert np.mean(purities) == pytest.approx(0.8, abs=0.02)

    def test_haar_unitary_is_unitary(self):
        u = haar_random_unitary(np.random.default_rng(0), 6)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)


class TestCqFamily:
    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 1.0])
    def test_neighbor_fidelity_matches_knob(self, overlap):
        rho = qd.make_cq_state(3, [0.4, 0.6], overlap)
        conds = live_conditionals(qd.pointer_ensemble(rho, "S", ["E1"]))[1]
        assert len(conds) == 2
        assert qd.fidelity(conds[0], conds[1]) == pytest.approx(overlap, abs=1e-12)

    def test_three_branch_fan_has_uniform_overlap(self):
        rho = qd.make_cq_state(5, [0.2, 0.3, 0.5], 0.4)
        conds = live_conditionals(qd.pointer_ensemble(rho, "S", ["E1"]))[1]
        for i in range(3):
            for j in range(i + 1, 3):
                assert qd.fidelity(conds[i], conds[j]) == pytest.approx(0.4, abs=1e-9)

    def test_full_overlap_kills_information(self):
        rho = qd.make_cq_state(1, [0.5, 0.5], 1.0)
        assert qd.holevo_quantity(rho, "S", ["E1"]).value == pytest.approx(0, abs=1e-9)
        assert qd.mutual_information(rho, ["S"], ["E1"]) == pytest.approx(0, abs=1e-9)

    def test_multi_subenvironment_variant_is_conditionally_product(self):
        rho = qd.make_cq_state(4, [0.3, 0.7], 0.5, n_subenvs=2)
        assert qd.conditional_mutual_information(rho, ["E1"], ["E2"], ["S"]) == \
            pytest.approx(0.0, abs=1e-9)

    def test_pinned_regression_deficit_at_half_overlap(self):
        # value pinned by first computation (seed 2, p = (0.4, 0.6))
        rho = qd.make_cq_state(2, [0.4, 0.6], 0.5)
        assert qd.objectivity_deficit(rho, "S") == pytest.approx(
            0.0945474173548997, abs=1e-9)


class TestPerturbAndSuite:
    def test_perturbed_state_valid_and_close(self):
        base = qd.make_random_broadcast_state(1, 2, 2, 3)
        noisy = perturb_state(base, 1e-2, seed=4)
        assert 0.5 * oracles.trace_norm(base.matrix - noisy.matrix) < 0.05
        assert not np.allclose(base.matrix, noisy.matrix)

    def test_theorem_case_deterministic(self):
        fam_a, a = make_theorem_case(3, 11)
        fam_b, b = make_theorem_case(3, 11)
        assert fam_a == fam_b
        assert np.array_equal(a.matrix, b.matrix)

    def test_suite_family_mix_and_caps(self):
        seen = set()
        for idx, family, rho in qd.zoo.theorem_suite(1, 12, dims_cap=32):
            seen.add(family)
            assert rho.dim <= 32
        assert seen == {"sbs", "perturbed-sbs", "cq", "haar"}

    @pytest.mark.parametrize("cap", [9, 16, 32])
    def test_every_family_respects_the_cap(self, cap):
        for seed in (0, 1):
            for idx, family, rho in qd.zoo.theorem_suite(seed, 200, dims_cap=cap):
                assert rho.dim <= cap, (seed, idx, family, rho.dim)

    @pytest.mark.parametrize("cap", [1, 8])
    def test_cap_below_smallest_broadcast_case_raises(self, cap):
        # a 3-branch broadcast state has dim >= 9 and a 2-branch one dim >= 4
        with pytest.raises(errors.DimensionOutOfRange):
            list(qd.zoo.theorem_suite(1, 40, dims_cap=cap))


def _dense(terms, dims):
    """sum of w |v><v| over (w, v) pairs, checked against the layout's dimension."""
    out = sum(w * np.outer(v, v.conj()) for w, v in terms)
    assert out.shape == (int(np.prod(dims)),) * 2
    return out


class TestDenseAssembly:
    """Every factor-built constructor equals a dense Kronecker assembly of the
    same state, drawn from the same seed in the same order (the Horodecki
    family is checked against ``oracles.horodecki_matrix`` above)."""

    @staticmethod
    def assemble_broadcast(spec, rotations):
        n = len(spec.probabilities)
        out = 0
        for i, p in enumerate(spec.probabilities):
            branch = np.diag(np.eye(n)[i]).astype(complex)
            for u, dim, sup, weights in zip(rotations, spec.subenv_dims, spec.supports[i],
                                            spec.spectra[i]):
                cond = np.zeros((dim, dim), dtype=complex)
                cond[list(sup), list(sup)] = weights
                branch = np.kron(branch, u @ cond @ u.conj().T)
            out = out + p * branch
        return out

    def test_broadcast_state(self):
        spec = SbsSpec((0.2, 0.3, 0.5), (3, 4),
                       (((0,), (0, 1)), ((1,), (2,)), ((2,), (3,))),
                       (((1.0,), (0.25, 0.75)), ((1.0,), (1.0,)), ((1.0,), (1.0,))))
        want = self.assemble_broadcast(spec, [np.eye(3), np.eye(4)])
        assert np.allclose(qd.make_broadcast_state(spec).matrix, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("seed,n_branches,n_subenvs,max_dim",
                             [(1, 2, 2, 4), (5, 3, 2, 4), (9, 2, 3, 3)])
    def test_random_broadcast_state(self, seed, n_branches, n_subenvs, max_dim):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(n_branches, max_dim + 1)) for _ in range(n_subenvs)]
        cuts = np.sort(rng.uniform(0.0, 1.0, size=n_branches - 1))
        probs = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        supports = [[np.array_split(np.arange(d), n_branches)[i] for d in dims]
                    for i in range(n_branches)]
        spectra = []
        for i in range(n_branches):
            row = []
            for sup in supports[i]:
                c = np.sort(rng.uniform(0.0, 1.0, size=len(sup) - 1))
                row.append(np.diff(np.concatenate(([0.0], c, [1.0]))))
            spectra.append(row)
        rotations = []
        for k, d in enumerate(dims):
            u = np.eye(d, dtype=complex)
            for i in range(n_branches):
                if len(supports[i][k]) > 1:
                    u[np.ix_(supports[i][k], supports[i][k])] = haar_random_unitary(
                        rng, len(supports[i][k]))
            rotations.append(u)
        spec = SbsSpec(tuple(probs), tuple(dims),
                       tuple(tuple(tuple(int(j) for j in s) for s in row) for row in supports),
                       tuple(tuple(tuple(w) for w in row) for row in spectra))
        want = self.assemble_broadcast(spec, rotations)
        got = qd.make_random_broadcast_state(seed, n_branches, n_subenvs, max_dim)
        assert np.allclose(got.matrix, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_appendix_b_families(self, n):
        def post(i, j):
            ket = np.eye(2)[i]
            for _ in range(n):
                ket = np.kron(ket, np.eye(4)[j])
            return ket
        dims = [2] + [4] * n
        p1 = 0.3
        b1 = _dense([(p / 2, post(i, j)) for i, p in enumerate((p1, 1 - p1))
                     for j in (2 * i, 2 * i + 1)], dims)
        b2 = _dense([(p, (post(i, 2 * i) + post(i, 2 * i + 1)) / np.sqrt(2))
                     for i, p in enumerate((p1, 1 - p1))], dims)
        assert np.allclose(qd.make_correlated_branches(n, p1).matrix, b1, atol=1e-12, rtol=0)
        assert np.allclose(qd.make_entangled_branches(n, p1).matrix, b2, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("probs,overlap,n_subenvs",
                             [([0.3, 0.7], 0.4, 2), ([0.2, 0.3, 0.5], 0.6, 1)])
    def test_cq_state(self, probs, overlap, n_subenvs):
        k = len(probs)
        sub_dim = 2 if k == 2 else k + 1
        rng = np.random.default_rng(4)
        if k == 2:
            a = np.arccos(overlap)
            kets = [np.eye(2)[0], np.cos(a) * np.eye(2)[0] + np.sin(a) * np.eye(2)[1]]
        else:
            b = np.arcsin(np.sqrt(overlap))
            kets = [np.cos(b) * np.eye(sub_dim)[i] + np.sin(b) * np.eye(sub_dim)[k]
                    for i in range(k)]
        u_sys = haar_random_unitary(rng, k)
        u_frag = [haar_random_unitary(rng, sub_dim) for _ in range(n_subenvs)]
        terms = []
        for i, p in enumerate(probs):
            vec = u_sys[:, i]
            for u in u_frag:
                vec = np.kron(vec, u @ kets[i])
            terms.append((p, vec))
        want = _dense(terms, [k] + [sub_dim] * n_subenvs)
        got = qd.make_cq_state(4, probs, overlap, n_subenvs)
        assert np.allclose(got.matrix, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("rank", [None, 2])
    def test_random_density(self, rank):
        layout = qd.std_layout(2, [3, 2])
        r = 12 if rank is None else rank
        rng = np.random.default_rng(6)
        g = rng.standard_normal((12, r)) + 1j * rng.standard_normal((12, r))
        want = g @ g.conj().T
        want /= want.trace().real
        got = qd.make_random_density(6, layout, rank)
        assert got.factor.shape == (12, r)
        assert np.allclose(got.matrix, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("strength", [1e-2, 1e-9])
    def test_perturb_state(self, strength):
        base = qd.make_random_broadcast_state(2, 2, 2, 3)
        rng = np.random.default_rng(8)
        d = base.dim
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = h + h.conj().T
        h *= strength / np.linalg.norm(h)
        w, v = np.linalg.eigh(base.matrix + h)
        w = np.clip(w, 0.0, None)
        want = (v * (w / w.sum())) @ v.conj().T
        assert np.allclose(perturb_state(base, strength, 8).matrix, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_perturb_state_at_zero_keeps_eta_at_rounding(self, seed):
        # at strength 0 the null space of a broadcast state is all rounding
        # eigenvalues; kept as factor columns of norm ~1e-9 they would enter the
        # fidelities of eta.  The pointer is rotated so that null vectors mix branches.
        base = qd.make_random_broadcast_state(seed, 2, 2, 3)
        u = np.kron(haar_random_unitary(np.random.default_rng(seed), 2), np.eye(base.dim // 2))
        rho = qd.validate_density_matrix(u @ base.matrix @ u.conj().T, base.layout)
        noisy = perturb_state(rho, 0.0, seed)
        assert noisy.factor.shape == rho.factor.shape
        assert qd.broadcast_distance_bound(noisy, "S") < 1e-12

