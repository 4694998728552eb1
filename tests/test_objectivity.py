import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as qd
from qdarwin import errors, measures, objectivity
from qdarwin.cli import main
from qdarwin.zoo import horodecki_holevo_closed_form, theorem_suite

import oracles
from conftest import pure_ghz, random_state


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
        with pytest.raises(errors.OverlappingParts):
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

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [1 / 3] * 3])
    def test_refined_pointer_does_not_depend_on_rounding(self, probs):
        # inside a degenerate cluster of rho_S the pointer columns are ordered by
        # the probes that split it, not by rounding: a 1e-14 Hermitian
        # perturbation of the state leaves the reported basis in place
        for seed in range(5):
            rho = qd.make_cq_state(seed, probs, 0.0, n_subenvs=2)
            noise = np.random.default_rng(seed).standard_normal(rho.matrix.shape) * 1e-14
            nudged = qd.validate_density_matrix(rho.matrix + noise + noise.T, rho.layout)
            a = qd.detect_broadcast_structure(rho, "S").pointer.basis
            b = qd.detect_broadcast_structure(nudged, "S").pointer.basis
            assert np.max(np.abs(a - b)) <= 1e-9, seed

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

    @pytest.mark.parametrize("eps,categories,kinds", [
        (1e-9, {"pass": 80, "borderline": 20}, {"broadcast-structure": 20, "conditional": 16}),
        (1e-7, {"pass": 75, "borderline": 25},
         {"strong-darwinism": 25, "broadcast-structure": 23}),
    ], ids=["eps-1e-9", "eps-1e-7"])
    def test_borderline_reasons_on_a_perturbed_batch(self, eps, categories, kinds):
        """The first 100 seed-0 cases at a small perturbation: which verdicts sit
        within the borderline band.  At 1e-9 the worst CMI is flagged as a
        broadcast-structure row and again as the independence row; at 1e-7 the
        equality gaps reach the strong-Darwinism band.  Counts measured with
        numpy 2.4."""
        found_categories, found_kinds = Counter(), Counter()
        for _, _, rho in theorem_suite(0, 100, 32, eps):
            w = qd.verify_equivalence(rho, "S")
            found_categories["borderline" if w.borderline
                             else "pass" if w.consistent else "fail"] += 1
            found_kinds.update(reason.split()[0] for reason in w.borderline_reasons)
        assert found_categories == categories
        assert found_kinds == kinds

    def test_borderline_band_is_closed_on_both_sides_of_the_tolerance(self):
        rows = ((1e-12, 1e-8), (1e-7, 1e-8), (1e-9, 1e-8))
        assert objectivity._near(rows) == (1e-7, 1e-8)
        assert objectivity._near(rows[2:]) == (1e-9, 1e-8)
        assert objectivity._near(((0.99e-9, 1e-8), (1.01e-7, 1e-8))) is None
        assert objectivity._within(rows[::2]) and not objectivity._within(rows)
        assert objectivity._within(())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degenerate_pointer_is_one_basis(self, seed):
        # rho_S = I/2: strong Darwinism and the broadcast detector read the one
        # probe-refined pointer basis, so both hold; the pointer-gap flag is
        # still raised as a hint
        rho = qd.make_cq_state(seed, [0.5, 0.5], 0.0, n_subenvs=2)
        w = qd.verify_equivalence(rho, "S")
        assert w.sbs.holds and w.sqd.holds and w.independence.holds
        assert w.consistent
        assert all(sf.holds for sf in w.sqd.per_subfragment)
        assert w.borderline
        assert any(r.startswith("pointer-basis eigenvalue gap")
                   for r in w.borderline_reasons)

    def test_default_fragment_excludes_the_chosen_system(self):
        # E1 as the system: the default fragment is S, E2, E3
        w = qd.verify_equivalence(qd.make_ghz_reduced(3), "E1")
        assert w.sqd.holds and w.sbs.holds and w.consistent
        assert [sf.labels for sf in w.sqd.per_subfragment] == [("S",), ("E2",), ("E3",)]
        assert qd.analyze(qd.make_ghz_reduced(3), "E2").fragment == ("S", "E1", "E3")
        layout = qd.SubsystemLayout(("A", "B"), (2, 2), None)
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = qd.validate_density_matrix(np.outer(psi, psi.conj()), layout)
        assert qd.objectivity_deficit(rho, "A") == pytest.approx(0.5, abs=1e-9)

    def test_whole_ghz_fragment_in_bounded_memory(self):
        """The R = 1 bracket of GHZ N = 8 reads its 256-dimensional fragment through
        the accessible-information kernel in blocks of V = rho U: with the whole d^3
        projector array at once, the peak was 265 MiB."""
        rho = qd.make_ghz_reduced(8)
        tracemalloc.start()
        try:
            witness = qd.verify_equivalence(rho, "S")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness.consistent and witness.sbs.holds and witness.sqd.holds
        assert witness.sqd.acc.exact
        assert witness.sqd.acc.lower == pytest.approx(1.0, abs=1e-12)
        assert peak < 64 * 2 ** 20

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


class TestOneRotationPerEnsemble:
    """An ensemble rotates the state once for its branch factors, which the bracket and
    every overlap of the detector read; appendix-c reads M from the ensemble it built."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("_rotated", "pointer_ensembles"):
            def counted(*args, _name=name, _inner=getattr(measures, name), **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(measures, name, counted)
        monkeypatch.setattr(objectivity, "pointer_ensembles", measures.pointer_ensembles)
        return counts

    def test_verify_equivalence_rotates_twice(self, calls):
        # one kernel call for the fragment and its subfragments, and its branch factors
        qd.verify_equivalence(qd.make_random_broadcast_state(0, 2, 3, 3), "S")
        assert calls["_rotated"] == 2
        assert calls["pointer_ensembles"] == 1

    def test_analyze_with_subfragments_makes_one_kernel_call(self, calls):
        rho = qd.make_random_broadcast_state(0, 2, 3, 3)
        qd.analyze(rho, "S", subfragments=[["E1"], ["E2"]])
        assert calls["pointer_ensembles"] == 1
        assert calls["_rotated"] == 2

    def test_check_strong_darwinism_with_subfragments_makes_one_kernel_call(self, calls):
        rho = qd.make_random_broadcast_state(0, 2, 3, 3)
        v = qd.check_strong_darwinism(rho, "S", subfragments=[["E1"], ["E2", "E3"]])
        assert len(v.per_subfragment) == 2
        assert calls["pointer_ensembles"] == 1

    def test_subfragment_labels_keep_the_callers_order(self):
        rho = qd.make_random_broadcast_state(0, 2, 3, 3)
        v = qd.check_strong_darwinism(rho, "S", subfragments=[["E3", "E1"], ["E2"]])
        assert [sf.labels for sf in v.per_subfragment] == [("E3", "E1"), ("E2",)]
        assert v.to_dict()["per_subfragment"][0]["labels"] == ["E3", "E1"]

    def test_analyze_rotates_twice(self, calls):
        qd.analyze(qd.make_random_density(23, qd.std_layout(2, [2, 2])), "S")
        assert calls["_rotated"] == 2

    def test_appendix_c_builds_one_ensemble_per_grid_point(self, calls, tmp_path):
        assert main(["appendix-c", "--grid-points", "3",
                     "--out-csv", str(tmp_path / "c.csv")]) == 0
        assert calls["pointer_ensembles"] == 3


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


DEGENERATE_BROADCAST = {
    "cq-halves": lambda: qd.make_cq_state(0, [0.5, 0.5], 0.0),
    "cq-thirds": lambda: qd.make_cq_state(1, [1 / 3] * 3, 0.0),
    "horodecki-half": lambda: qd.make_horodecki(0.5),
    "ghz-3": lambda: qd.make_ghz_reduced(3),
}


@pytest.mark.parametrize("make", list(DEGENERATE_BROADCAST.values()),
                         ids=list(DEGENERATE_BROADCAST))
def test_deficit_and_bound_vanish_at_a_degenerate_pointer(make):
    # bipartite broadcast states with rho_S proportional to a projector: M and eta
    # read the refined pointer basis, where both are 0
    rho = make()
    assert qd.objectivity_deficit(rho, "S") == pytest.approx(0.0, abs=1e-9)
    assert qd.broadcast_distance_bound(rho, "S") <= 1e-9


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
            basis = qd.ProjectiveMeasurement("S", np.stack(kets, axis=1))
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

    def test_uninformative_environment_no_redundancy(self):
        # rho_S = I/2 next to |0...0>: no probe splits the cluster, so the pointer
        # basis stays the computational one and no fragment carries information
        env = np.zeros(64)
        env[0] = 1.0
        layout = qd.SubsystemLayout.of(("S", 2), *((f"E{k}", 2) for k in range(1, 7)))
        rho = qd.validate_density_matrix(np.kron(np.eye(2) / 2, np.diag(env)), layout)
        assert np.array_equal(qd.pointer_basis(rho, "S").basis, np.eye(2))
        rep = qd.redundancy(rho, "S", 0.1)
        assert rep.r_delta == 0
        assert rep.pointer_entropy == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("strategy", ["greedy", "exhaustive"])
    def test_search_stops_when_the_whole_environment_does_not_qualify(
            self, monkeypatch, strategy):
        """chi only grows with the fragment, so on S x E with twelve
        subenvironments the search reads the whole environment and stops: the
        kernel sees at most that fragment, which also gives H(S^Pi), and the
        curve's one sample per size, where a search by size would read all 4095."""
        s = qd.make_random_density(1, qd.SubsystemLayout.of(("S", 2), system="S"))
        env = qd.make_random_density(
            2, qd.SubsystemLayout.of(*((f"E{k}", 2) for k in range(1, 13)), system=None),
            rank=1)
        rho = qd.tensor([s, env])
        seen = []
        kernel = objectivity.pointer_ensembles

        def spy(state, system, fragments, basis):
            seen.extend(fragments)
            return kernel(state, system, fragments, basis)

        monkeypatch.setattr(objectivity, "pointer_ensembles", spy)
        rep = qd.redundancy(rho, "S", 0.1, strategy=strategy, scan_samples=1)
        assert rep.r_delta == 0 and rep.witness_fragments == ()
        assert len(seen) <= 1 + 12

    @pytest.mark.parametrize("name,delta", [("haar", 0.5), ("ghz-rank-2", 0.01)])
    def test_pure_states_send_one_fragment_of_each_pair(self, monkeypatch, name, delta):
        """On a Haar N = 6 state the kernel reads the whole environment and one
        fragment of each of the 31 pairs (F, E minus F); the rank-2 reduced GHZ
        has no complements, so every one of its 63 curve fragments goes in."""
        rho = (qd.make_haar_pure(2, qd.std_layout(2, [2] * 6)).to_density()
               if name == "haar" else qd.make_ghz_reduced(6))
        seen = []
        kernel = objectivity.pointer_ensembles

        def spy(state, system, fragments, basis):
            seen.extend(map(tuple, fragments))
            return kernel(state, system, fragments, basis)

        monkeypatch.setattr(objectivity, "pointer_ensembles", spy)
        qd.redundancy(rho, "S", delta, strategy="exhaustive")
        env = rho.layout.environment_labels
        every = {f for k in range(1, 7) for f in itertools.combinations(env, k)}
        assert len(seen) == len(set(seen)) == (32 if name == "haar" else 63)
        assert set(seen) <= every
        complements = {tuple(l for l in env if l not in f) for f in seen} - {()}
        assert complements | set(seen) == every
        assert set(seen) == every or name == "haar"

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
    @pytest.mark.parametrize("name,delta", [
        ("haar-2x[2]*5", 0.4), ("rank-1 3x[2,3,2]", 0.3), ("ghz-3x[3,2,3,3]", 0.05),
        ("rank-2 [2]*3x2x[2]*3", 0.5)])
    def test_scans_match_a_per_fragment_oracle(self, strategy, name, delta):
        """A scan, which reads half its fragments as complements on a pure state, reports
        what direct pointer_ensemble calls, one per fragment at the scan's basis, give.
        The mixed state (a 128 x 2 factor, like the benchmark's GHZ file) has its system
        in the middle; the oracle hands each fragment over in reverse label order, and
        gets it and both memo keys back in layout order."""
        rho = {"haar-2x[2]*5": lambda: qd.make_haar_pure(
                   4, qd.std_layout(2, [2] * 5)).to_density(),
               "rank-1 3x[2,3,2]": lambda: qd.make_random_density(
                   7, qd.std_layout(3, [2, 3, 2]), rank=1),
               "ghz-3x[3,2,3,3]": lambda: pure_ghz(3, [3, 2, 3, 3]),
               "rank-2 [2]*3x2x[2]*3": lambda: qd.make_random_density(5, qd.SubsystemLayout.of(
                   *[(f"E{k}", 2) for k in (1, 2, 3)], ("S", 2),
                   *[(f"E{k}", 2) for k in (4, 5, 6)], system="S"), rank=2)}[name]()
        rep = qd.redundancy(rho, "S", delta, strategy=strategy)
        env = rho.layout.environment_labels
        basis = qd.pointer_basis(rho, "S")
        fresh = qd.DensityMatrix(rho.factor, rho.layout)
        ens = {f: qd.pointer_ensemble(fresh, "S", f[::-1], basis)
               for k in range(1, len(env) + 1) for f in itertools.combinations(env, k)}
        assert all(e.fragment == f for f, e in ens.items())
        labels = rho.layout.labels
        assert set(fresh._spectra) == {*ens} | {
            tuple(l for l in labels if l == "S" or l in f) for f in ens}
        h_pointer = qd.entropy_bits(ens[env].probabilities)
        threshold = (1.0 - delta) * h_pointer - qd.DEFAULT_OPT.eps_opt
        for k, pt in enumerate(rep.scan_curve, start=1):
            layer = [e for f, e in ens.items() if len(f) == k]
            assert pt.n_samples == len(layer)
            for got, field in ((pt.mean_holevo, "holevo"), (pt.mean_discord, "discord"),
                               (pt.mean_mutual_info, "mutual_information")):
                assert abs(got - np.mean([getattr(e, field) for e in layer])) <= 1e-12
        found, remaining = [], list(env)
        for k in range(1, len(env) + 1):
            if not remaining or ens[tuple(remaining)].holevo < threshold:
                continue
            for f in itertools.combinations(remaining, k):
                if (set(f) <= set(remaining) and ens[f].holevo >= threshold
                        and not any(set(m) <= set(f) for m in found)):
                    found.append(f)
                    if strategy == "greedy":
                        remaining = [l for l in remaining if l not in f]
        witnesses = (objectivity._max_disjoint_packing(found) if strategy == "exhaustive"
                     else found)
        assert found, "the oracle finds no qualifying fragment"
        assert rep.witness_fragments == tuple(witnesses)
        assert rep.r_delta == len(witnesses)
        assert rep.f_delta_min == len(found[0]) / len(env)
        assert abs(rep.pointer_entropy - h_pointer) <= 1e-12

    @pytest.mark.parametrize("samples", [0, -1])
    def test_scan_samples_below_one_are_invalid(self, samples):
        with pytest.raises(errors.InvalidConfig, match="scan_samples"):
            qd.redundancy(qd.make_ghz_reduced(3), "S", 0.1, scan_samples=samples)

    def test_unknown_strategy_is_invalid(self):
        with pytest.raises(errors.InvalidConfig, match="unknown strategy") as info:
            qd.redundancy(qd.make_ghz_reduced(3), "S", 0.1, strategy="random")
        assert isinstance(info.value, ValueError)

    def test_stacks_bound_the_memory_of_a_scan(self):
        """A layer of GHZ N = 8 fragments is split in stacks of at most
        ``STACK_BYTES`` of factors: one unbounded stack peaks near 3.3 MiB."""
        qd.redundancy(qd.make_ghz_reduced(3), "S", 0.01, strategy="exhaustive")
        rho = qd.make_ghz_reduced(8)
        tracemalloc.start()
        try:
            qd.redundancy(rho, "S", 0.01, strategy="exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

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
