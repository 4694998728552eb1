import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as qd
from qdarwin import errors
from qdarwin.zoo import horodecki_holevo_closed_form, theorem_suite

import oracles
from conftest import random_state


def bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return qd.validate_density_matrix(np.outer(psi, psi.conj()), qd.std_layout(2, [2]))


def cq_zero_plus():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = 0.5 * np.diag([1.0, 0.0])
    m[2:, 2:] = 0.5 * np.outer(plus, plus.conj())
    return qd.validate_density_matrix(m, qd.std_layout(2, [2]))


class TestStrongDarwinism:
    def test_ghz_holds(self):
        rho = qd.make_ghz_reduced(3)
        v = qd.check_strong_darwinism(rho, "S", ["E1"])
        assert v.holds
        assert v.mutual_info == pytest.approx(1.0, abs=1e-9)
        assert v.holevo == pytest.approx(1.0, abs=1e-9)
        assert v.system_entropy == pytest.approx(1.0, abs=1e-9)

    def test_horodecki_fails_with_reference_values(self):
        rho = qd.make_horodecki(0.25)
        v = qd.check_strong_darwinism(rho, "S", ["E1"])
        assert not v.holds
        assert v.mutual_info == pytest.approx(v.system_entropy, abs=1e-9)
        assert v.system_entropy == pytest.approx(0.95443, abs=5e-6)
        assert v.holevo == pytest.approx(0.14316, abs=5e-6)

    def test_pure_product_trivially_holds(self):
        layout = qd.std_layout(2, [2])
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        rho = qd.validate_density_matrix(m, layout)
        v = qd.check_strong_darwinism(rho, "S", ["E1"])
        assert v.holds and v.trivial
        assert v.system_entropy == 0.0 and v.holevo == 0.0

    def test_subfragment_condition_enforced(self):
        rho = qd.make_ghz_reduced(3)
        v = qd.check_strong_darwinism(rho, "S", ["E1", "E2", "E3"],
                                      subfragments=[["E1"], ["E2"], ["E3"]])
        assert v.holds
        assert len(v.per_subfragment) == 3
        assert all(sf.holds for sf in v.per_subfragment)

    def test_overlapping_subfragments_rejected(self):
        rho = qd.make_ghz_reduced(3)
        with pytest.raises(errors.OverlappingSubfragments):
            qd.check_strong_darwinism(rho, "S", ["E1", "E2"],
                                      subfragments=[["E1"], ["E1", "E2"]])

    def test_exactness_certificate_when_ensemble_commutes(self):
        rho = qd.make_horodecki(0.25)
        v = qd.check_strong_darwinism(rho, "S", ["E1"])
        assert v.acc is not None and v.acc.exact
        assert v.acc.lower == pytest.approx(v.acc.upper, abs=1e-9)

    def test_interval_when_ensemble_does_not_commute(self):
        v = qd.check_strong_darwinism(cq_zero_plus(), "S", ["E1"])
        assert v.acc is not None and not v.acc.exact
        assert v.acc.lower <= v.acc.upper + 1e-6


class TestBroadcastDetector:
    def test_constructed_broadcast_state_detected(self):
        for seed in (0, 1, 2):
            rho = qd.make_random_broadcast_state(seed, 2, 3, 4)
            v = qd.detect_broadcast_structure(rho, "S")
            assert v.holds and not v.bipartite_only
            assert v.max_offdiagonal_block_norm <= 1e-12
            assert v.max_pairwise_overlap <= 1e-12
            assert v.max_conditional_cmi <= 1e-9

    def test_correlated_branches_bipartite_only(self):
        rho = qd.make_correlated_branches(2, 0.5)
        v = qd.detect_broadcast_structure(rho, "S")
        assert not v.holds
        assert v.bipartite_holds and v.bipartite_only
        assert v.max_conditional_cmi == pytest.approx(1.0, abs=1e-9)

    def test_bell_state_rejected(self):
        v = qd.detect_broadcast_structure(bell_state(), "S")
        assert not v.holds and not v.bipartite_holds
        assert v.max_offdiagonal_block_norm == pytest.approx(0.5, abs=1e-9)

    def test_branch_probabilities_recovered(self):
        rho = qd.make_cq_state(5, [0.3, 0.7], 0.0)
        v = qd.detect_broadcast_structure(rho, "S")
        assert v.holds
        assert sorted(v.branch_probabilities, reverse=True) == \
            pytest.approx([0.7, 0.3], abs=1e-9)

    def test_degenerate_pointer_recovered_by_probes(self):
        # equal branch probabilities in a Haar-rotated frame: the system
        # marginal alone cannot fix the basis, the fragment probes can
        rho = qd.make_cq_state(11, [0.5, 0.5], 0.0)
        v = qd.detect_broadcast_structure(rho, "S")
        assert v.pointer_degenerate
        assert v.holds

    def test_verdict_always_returned(self):
        rho = random_state(17)
        v = qd.detect_broadcast_structure(rho, "S")
        assert isinstance(v.holds, bool)


class TestStrongIndependence:
    def test_broadcast_state_holds(self):
        rho = qd.make_random_broadcast_state(3, 2, 3, 4)
        v = qd.check_strong_independence(rho, "S")
        assert v.holds
        assert v.worst_cmi == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("p1", [0.3, 0.5])
    def test_correlated_branches_fail_at_one_bit(self, p1):
        rho = qd.make_correlated_branches(3, p1)
        v = qd.check_strong_independence(rho, "S")
        assert not v.holds
        assert v.worst_cmi == pytest.approx(1.0, abs=1e-9)

    def test_entangled_branches_fail(self):
        # oracle: direct entropy computation; for two subenvironments each
        # branch is a maximally entangled pure pair, so the conditional mutual
        # information doubles to 2 bits; a third traced-out subenvironment
        # decoheres the pair back to 1 bit
        v2 = qd.check_strong_independence(qd.make_entangled_branches(2, 0.5), "S")
        assert not v2.holds
        assert v2.worst_cmi == pytest.approx(2.0, abs=1e-9)
        v3 = qd.check_strong_independence(qd.make_entangled_branches(3, 0.5), "S")
        assert not v3.holds
        assert v3.worst_cmi == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_subenvironments(self):
        with pytest.raises(errors.NeedTwoSubenvironments):
            qd.check_strong_independence(qd.make_horodecki(0.3), "S")


class TestEquivalence:
    def test_broadcast_family_consistent(self):
        for seed in range(5):
            rho = qd.make_random_broadcast_state(seed, 2, 2, 4)
            w = qd.verify_equivalence(rho, "S")
            assert w.sbs.holds and w.sqd.holds and w.independence.holds
            assert w.consistent

    def test_correlated_branches_case(self):
        rho = qd.make_correlated_branches(2, 0.4)
        w = qd.verify_equivalence(rho, "S")
        assert w.sqd.holds            # system objectivity
        assert w.sbs.bipartite_only   # but only bipartite broadcast structure
        assert not w.sbs.holds
        assert not w.independence.holds
        assert w.consistent

    def test_horodecki_case(self):
        w = qd.verify_equivalence(qd.make_horodecki(0.25), "S")
        assert not w.sqd.holds and not w.sbs.holds
        assert w.independence is None
        assert w.consistent

    def test_small_randomized_batch_consistent(self):
        for _, family, rho in theorem_suite(seed=7, n_cases=40):
            w = qd.verify_equivalence(rho, "S")
            assert w.consistent or w.borderline, family

    def test_tiny_perturbation_is_borderline(self):
        base = qd.make_random_broadcast_state(2, 2, 2, 3)
        from qdarwin.zoo import perturb_state
        rho = perturb_state(base, 1e-9, seed=0)
        w = qd.verify_equivalence(rho, "S")
        assert w.borderline

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degenerate_pointer_splits_chi_and_broadcast_bases(self, seed):
        # rho_S = I/2: chi is read in the canonical eigenbasis, the broadcast
        # detector in the probe-refined one, so the verdicts disagree and only
        # the pointer-gap flag keeps the case from counting as a failure
        rho = qd.make_cq_state(seed, [0.5, 0.5], 0.0, n_subenvs=2)
        w = qd.verify_equivalence(rho, "S")
        assert w.sbs.holds and not w.sqd.holds
        assert w.borderline
        assert any(r.startswith("pointer-basis eigenvalue gap")
                   for r in w.borderline_reasons)

    def test_product_stage_is_strong_independence(self):
        checked = 0
        for _, family, rho in theorem_suite(seed=1, n_cases=40):
            if len(rho.layout.environment_labels) < 2:
                continue
            w = qd.verify_equivalence(rho, "S")
            sbs = qd.detect_broadcast_structure(rho, "S")
            si = qd.check_strong_independence(rho, "S")
            for product in (w.sbs, sbs):
                assert product.max_conditional_cmi == w.independence.worst_cmi, family
                assert product.product_ok == w.independence.holds, family
            assert si == w.independence, family
            checked += 1
        assert checked >= 10


class TestObjectivityDeficit:
    def test_broadcast_state_zero(self):
        rho = qd.make_random_broadcast_state(6, 2, 2, 4)
        assert qd.objectivity_deficit(rho, "S") == pytest.approx(0.0, abs=1e-6)

    def test_horodecki_reference_value(self):
        rho = qd.make_horodecki(0.25)
        h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
        chi = horodecki_holevo_closed_form(0.25)
        expected = (h_s - chi + (h_s - chi)) / (2 * h_s)
        m = qd.objectivity_deficit(rho, "S", ["E1"])
        assert m == pytest.approx(expected, abs=1e-9)
        assert m == pytest.approx(0.85001, abs=5e-6)

    def test_bell_state_half(self):
        assert qd.objectivity_deficit(bell_state(), "S", ["E1"]) == \
            pytest.approx(0.5, abs=1e-9)

    def test_degenerate_entropy_raises(self):
        layout = qd.std_layout(2, [2])
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        rho = qd.validate_density_matrix(m, layout)
        with pytest.raises(errors.DegenerateSystemEntropy):
            qd.objectivity_deficit(rho, "S", ["E1"])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_clamped_to_unit_interval(self, seed):
        rho = random_state(seed)
        try:
            m = qd.objectivity_deficit(rho, "S")
        except errors.DegenerateSystemEntropy:
            return
        assert 0.0 <= m <= 1.0


class TestDistanceBound:
    def test_broadcast_state_zero(self):
        rho = qd.make_random_broadcast_state(8, 2, 2, 4)
        assert qd.broadcast_distance_bound(rho, "S") == pytest.approx(0.0, abs=1e-9)

    def test_overlapping_conditionals_value(self):
        # dephasing changes nothing; the only contribution is the ordered-pair
        # fidelity sum 2 * (1/2) * |<0|+>| = sqrt(1/2)
        eta = qd.broadcast_distance_bound(cq_zero_plus(), "S")
        assert eta == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_nonnegative_on_random_states(self):
        for seed in range(10):
            rho = random_state(seed)
            assert qd.broadcast_distance_bound(rho, "S") >= 0.0

    def test_bound_holds_at_variational_basis(self):
        # cross-check: the two-qubit chain eta >= D - chi + H({p}) also holds
        # when both sides are evaluated at the basis that truly maximizes chi,
        # found here by an independent grid + simplex search
        rng = np.random.default_rng(99)
        checked = 0
        for seed in range(60):
            rho = random_state(seed, qd.std_layout(2, [2]),
                               rank=int(rng.integers(1, 5)))
            h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
            if h_s < 1e-6:
                continue
            chi_opt = oracles.holevo_grid_max(rho.matrix, n_theta=25, n_phi=25)
            mi = qd.mutual_information(rho, ["S"], ["E1"])
            # eta at the variational basis
            from scipy.optimize import minimize
            res = minimize(
                lambda x: -oracles.holevo_in_basis(rho.matrix, 2,
                                                   oracles.qubit_pair(x[0], x[1])),
                (np.pi / 3, 0.7), method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-13})
            kets = oracles.qubit_pair(*res.x)
            basis = qd.ProjectiveMeasurement.from_vectors(
                "S", np.stack(kets, axis=1))
            chi_at = oracles.holevo_in_basis(rho.matrix, 2, kets)
            if chi_at < chi_opt - 1e-7:
                continue  # local refinement missed the global basin
            eta = qd.broadcast_distance_bound(rho, "S", ["E1"], pointer=basis)
            probs = [float(np.real(k.conj() @ qd.partial_trace(rho, ["S"]).matrix @ k))
                     for k in kets]
            rhs = (mi - chi_at) - chi_at + qd.entropy_bits(probs)
            assert eta >= rhs - 1e-6
            checked += 1
        assert checked >= 30


class TestRedundancy:
    def test_ghz_five_subenvironments(self):
        rho = qd.make_ghz_reduced(5)
        rep = qd.redundancy(rho, "S", 0.01)
        assert rep.r_delta == 5
        assert rep.f_delta_min == pytest.approx(1 / 5)
        assert all(len(w) == 1 for w in rep.witness_fragments)
        # oracle: every one of the 31 fragment subsets qualifies, each single
        # subenvironment carries chi = 1 = H(S)
        assert rep.scan_curve[0].mean_holevo == pytest.approx(1.0, abs=1e-9)

    def test_ghz_ten_subenvironments(self):
        # dim 2048: every fragment's entropies come from Gram matrices of at
        # most 64 x 64, read from the rank-2 factor
        rep = qd.redundancy(qd.make_ghz_reduced(10), "S", 0.01)
        assert rep.r_delta == 10
        assert len(rep.scan_curve) == 10
        for pt in rep.scan_curve:
            assert pt.mean_holevo == pytest.approx(1.0, abs=1e-6)

    def test_product_state_no_redundancy(self):
        parts = [qd.make_random_density(1, qd.SubsystemLayout.of(("S", 2), system="S"))]
        for k in range(3):
            parts.append(qd.make_random_density(
                k + 2, qd.SubsystemLayout.of((f"E{k+1}", 2), system=None)))
        rho = qd.tensor(parts)
        rep = qd.redundancy(rho, "S", 0.1)
        assert rep.r_delta == 0
        assert rep.f_delta_min == 0.0
        assert rep.scan_curve[0].mean_holevo == pytest.approx(0.0, abs=1e-9)

    def test_greedy_matches_exhaustive_on_broadcast_states(self):
        for seed in (0, 3, 5):
            rho = qd.make_random_broadcast_state(seed, 2, 3, 3)
            exh = qd.redundancy(rho, "S", 0.05, strategy="exhaustive")
            gre = qd.redundancy(rho, "S", 0.05, strategy="greedy")
            assert exh.r_delta == gre.r_delta == 3

    def test_packing_bound(self):
        for seed in range(6):
            rho = random_state(seed, qd.std_layout(2, [2, 2]))
            rep = qd.redundancy(rho, "S", 0.2)
            if rep.f_delta_min > 0:
                assert rep.r_delta <= math.floor(1 / rep.f_delta_min)

    def test_greedy_never_beats_exhaustive(self):
        for seed in range(6):
            rho = random_state(seed, qd.std_layout(2, [2, 2]))
            exh = qd.redundancy(rho, "S", 0.3, strategy="exhaustive")
            gre = qd.redundancy(rho, "S", 0.3, strategy="greedy")
            assert gre.r_delta <= exh.r_delta

    def test_delta_out_of_range(self):
        with pytest.raises(errors.DeltaOutOfRange):
            qd.redundancy(qd.make_ghz_reduced(2), "S", 1.5)

    def test_discord_bound_records(self):
        rho = qd.make_ghz_reduced(3)
        rep = qd.redundancy(rho, "S", 0.1)
        # broadcast-type state: every qualifying fragment has discord 0
        assert rep.discord_bound_failures == ()


class TestCorollaryOne:
    @pytest.mark.parametrize("overlap", [0.0, 0.3, 0.7])
    def test_bipartite_broadcast_iff_strong_darwinism(self, overlap):
        for seed in range(5):
            rho = qd.make_cq_state(seed, [0.35, 0.65], overlap)
            sbs = qd.detect_broadcast_structure(rho, "S")
            sqd = qd.check_strong_darwinism(rho, "S")
            assert sbs.bipartite_holds == sqd.holds == (overlap == 0.0)

    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    def test_deficit_zero_iff_bipartite_broadcast(self, overlap):
        rho = qd.make_cq_state(2, [0.4, 0.6], overlap)
        m = qd.objectivity_deficit(rho, "S")
        if overlap == 0.0:
            assert m <= 1e-6
        else:
            assert m > 1e-4


class TestReportAndAnalyze:
    def test_report_serializes(self):
        import json
        rho = qd.make_horodecki(0.25)
        rep = qd.analyze(rho, "S", ["E1"], seed=3)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["strong_darwinism"]["holds"] is False
        assert payload["m_sqd"] == pytest.approx(0.85001, abs=5e-6)
        assert payload["seed"] == 3
        assert payload["optimizer"]["theta_points"] == 64
        assert payload["tolerances"]["equality_bits"] == 1e-6

    def test_degenerate_deficit_reported_as_none(self):
        layout = qd.std_layout(2, [2])
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        rho = qd.validate_density_matrix(m, layout)
        rep = qd.analyze(rho, "S")
        assert rep.m_sqd is None
        assert rep.m_sqd_undefined_reason
