"""The equivalence check respects four symmetries of the theorem.

A local unitary on one environment factor, padding one environment factor
with a dimension that holds no support, any permutation of the factors (the
system's included), and a unitary U on the system map broadcast states to
broadcast states and keep every entropy, overlap and norm the diagnostics
read.  So ``verify_equivalence`` must give the same verdicts, category and
kinds of borderline reason, and move each value by rounding only: at most
``VALUE_TOL_PER_DIM`` times the state's dimension.  Under U the pointer basis
rotates with the state: each pointer projector P_i becomes U P_i U^dagger.

The families are the zoo's, the rank-deficient layouts whose optimized
brackets stop at boundary optima, and states whose rho_F or rho_S is
degenerate (cq with two or three equal weights, Horodecki at p = 1/2), where a
basis chosen inside a degenerate cluster could depend on coordinates.  The
three-branch cq state has non-commuting conditionals and a degenerate rho_F, so
its unoptimized accessible-information bound reads a refined cluster of rho_F.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as qd
from qdarwin.zoo import haar_random_unitary

# 64 machine epsilons per dimension; the largest move seen on these families
# was about 3e-15 per dimension
VALUE_TOL_PER_DIM = 64 * np.finfo(float).eps
# largest entry of a pointer projector's move under a system unitary; about 2e-13
# was the largest seen on these families
PROJECTOR_TOL = 1e-9

FAMILIES = {
    "broadcast": lambda s: qd.make_random_broadcast_state(s, 2 + s % 2, 2, 3),
    "cq": lambda s: qd.make_cq_state(s, [0.3, 0.7], 0.4, 2),
    "ghz": lambda s: qd.make_ghz_reduced(1 + s % 4),
    "horodecki": lambda s: qd.make_horodecki(0.1 + 0.8 * (s % 7) / 6),
    "correlated-branches": lambda s: qd.make_correlated_branches(2 + s % 2, 0.4),
    "entangled-branches": lambda s: qd.make_entangled_branches(2 + s % 2, 0.4),
    "haar": lambda s: qd.make_haar_pure(s, qd.std_layout(2, [2, 2, 2])).to_density(),
    "random": lambda s: qd.make_random_density(s, qd.std_layout(2, [2, 3])),
    "rank-3-2x[2,3,2]": lambda s: qd.make_random_density(s, qd.std_layout(2, [2, 3, 2]), 3),
    "rank-2-2x[4]": lambda s: qd.make_random_density(s, qd.std_layout(2, [4]), 2),
    "rank-2-2x[2,2]": lambda s: qd.make_random_density(s, qd.std_layout(2, [2, 2]), 2),
    "rank-2-2x[3]": lambda s: qd.make_random_density(s, qd.std_layout(2, [3]), 2),
    "rank-1-2x[2]": lambda s: qd.make_random_density(s, qd.std_layout(2, [2]), 1),
    "cq-equal-weights": lambda s: qd.make_cq_state(s, [0.5, 0.5], 0.1 * (s % 11), 1 + s % 2),
    "cq-three-equal-weights": lambda s: qd.make_cq_state(s, [1 / 3] * 3, 0.1 * (s % 11),
                                                          1 + s % 2),
    "horodecki-half": lambda s: qd.make_horodecki(0.5),
}

states = st.builds(lambda make, seed: make(seed), st.sampled_from(list(FAMILIES.values())),
                   st.integers(0, 1000))


def local_unitary(rho, label, seed):
    """(1 x ... x U x ... x 1) rho (...)^dagger, U Haar-random on ``label``."""
    dims, k = rho.layout.dims, rho.layout.index_of(label)
    u = haar_random_unitary(np.random.default_rng(seed), dims[k])
    v = np.moveaxis(np.tensordot(u, rho.factor.reshape(*dims, -1), axes=(1, k)), 0, k)
    return qd.validate_factor(v.reshape(rho.dim, -1), rho.layout)


def pad(rho, label):
    """rho with one more dimension on ``label``, which holds no support."""
    dims, k = list(rho.layout.dims), rho.layout.index_of(label)
    v = rho.factor.reshape(*dims, -1)
    widths = [(0, 0)] * v.ndim
    widths[k] = (0, 1)
    dims[k] += 1
    layout = qd.SubsystemLayout(rho.layout.labels, tuple(dims), rho.layout.system)
    return qd.validate_factor(np.pad(v, widths).reshape(-1, v.shape[-1]), layout)


def permute(rho, order):
    """rho with its factors in the order ``order``, a permutation of their positions."""
    dims = rho.layout.dims
    v = rho.factor.reshape(*dims, -1).transpose(*order, len(dims)).reshape(rho.dim, -1)
    layout = qd.SubsystemLayout(tuple(rho.layout.labels[k] for k in order),
                                tuple(dims[k] for k in order), rho.layout.system)
    return qd.validate_factor(v, layout)


def projectors(basis):
    """The rank-1 projectors |b_i><b_i| of a pointer basis, in its order."""
    return np.einsum("ai,bi->iab", basis.basis, basis.basis.conj())


def outcome(rho):
    """The verdicts of ``verify_equivalence`` and its values by name."""
    w = qd.verify_equivalence(rho, rho.layout.system)
    sqd, sbs, ind = w.sqd, w.sbs, w.independence
    verdicts = {
        "category": "borderline" if w.borderline else "pass" if w.consistent else "fail",
        "consistent": w.consistent,
        "reasons": [r.split()[0] for r in w.borderline_reasons],
        "sqd": sqd.holds, "subfragments": {sf.labels: sf.holds for sf in sqd.per_subfragment},
        "exact": None if sqd.acc is None else sqd.acc.exact,
        "sbs": sbs.holds, "bipartite": sbs.bipartite_holds, "cq_form": sbs.cq_form_ok,
        "distinguishable": sbs.distinguishable_per_subenv, "product": sbs.product_ok,
        "independence": None if ind is None else ind.holds,
    }
    values = {"I": sqd.mutual_info, "chi": sqd.holevo, "H(S)": sqd.system_entropy,
              "discord": sqd.discord, "offdiag": sbs.max_offdiagonal_block_norm,
              "overlap": sbs.max_pairwise_overlap,
              "whole_overlap": sbs.max_whole_fragment_overlap,
              "cmi": sbs.max_conditional_cmi}
    if sqd.acc is not None:
        values.update(acc_lower=sqd.acc.lower, acc_upper=sqd.acc.upper)
    for sf in sqd.per_subfragment:
        values.update({f"I{sf.labels}": sf.mutual_info, f"chi{sf.labels}": sf.holevo})
    values.update({f"p{i}": p for i, p in enumerate(sbs.branch_probabilities)})
    return verdicts, values


def assert_same_outcome(rho, other):
    verdicts, values = outcome(rho)
    other_verdicts, other_values = outcome(other)
    assert other_verdicts == verdicts
    tol = VALUE_TOL_PER_DIM * max(rho.dim, other.dim)
    moved = {k: abs(values[k] - other_values[k]) for k in values}
    assert max(moved.values()) <= tol, (moved, tol)


@given(rho=states, pick=st.integers(0, 100), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_local_unitary_on_one_environment_factor(rho, pick, seed):
    env = rho.layout.environment_labels
    assert_same_outcome(rho, local_unitary(rho, env[pick % len(env)], seed))


@given(rho=states, pick=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_padding_one_environment_factor(rho, pick):
    env = rho.layout.environment_labels
    assert_same_outcome(rho, pad(rho, env[pick % len(env)]))


@given(rho=states, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_permutation_of_the_factors(rho, seed):
    order = np.random.default_rng(seed).permutation(len(rho.layout.labels))
    assert_same_outcome(rho, permute(rho, order))


@given(rho=states, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_unitary_on_the_system(rho, seed):
    system = rho.layout.system
    u = haar_random_unitary(np.random.default_rng(seed), rho.layout.dim_of(system))
    rotated = local_unitary(rho, system, seed)
    assert_same_outcome(rho, rotated)
    # a product rho_S x rho_E (cq with overlap 1) prefers no basis inside a degenerate
    # cluster of rho_S: a unitary there leaves the state as it is
    if qd.mutual_information(rho, [system], rho.layout.environment_labels) > 1e-9:
        want = u @ projectors(qd.pointer_basis(rho, system)) @ u.conj().T
        got = projectors(qd.pointer_basis(rotated, system))
        assert np.max(np.abs(got - want)) <= PROJECTOR_TOL
