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
    # the three shapes of PointerEnsemble.range_factors (see RANGE_SHAPES)
    **{f"rank-{r}-2x[2,3,2]": (lambda r=r: qd.make_random_density(
        20 + r, qd.std_layout(2, [2, 3, 2]), rank=r)) for r in (1, 2, 3)},
    "ghz-6": lambda: qd.make_ghz_reduced(6),
    "full-rank-2x[2,2]": lambda: qd.make_random_density(23, qd.std_layout(2, [2, 2])),
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


@pytest.mark.parametrize("name", list(STATES))
def test_block_split_matches_dense_oracle(name):
    """The broadcast detector's block norms and overlaps at its own pointer, and
    eta at the canonical pointer, read from the pointer blocks W_i W_j^dagger,
    agree with a dense split of the (system, environment) reduction."""
    rho = STATES[name]()
    m = positive_part(rho.matrix) if name == "negative-eigenvalue" else rho.matrix
    labels, dims = rho.layout.labels, rho.layout.dims
    system = rho.layout.system
    joint = oracles.partial_trace(
        m, dims, [labels.index(l) for l in (system, *rho.layout.environment_labels)])
    d_s = rho.layout.dim_of(system)

    sbs = qd.detect_broadcast_structure(rho, system)
    want = oracles.block_split(joint, d_s, sbs.pointer.basis.T)
    assert abs(sbs.max_offdiagonal_block_norm - want["offdiag"]) <= TOL
    assert abs(sbs.max_whole_fragment_overlap - want["overlap"]) <= TOL
    env_dims = [rho.layout.dim_of(l) for l in rho.layout.environment_labels]
    assert abs(sbs.max_pairwise_overlap - oracles.subenvironment_overlap(
        joint, [d_s, *env_dims], sbs.pointer.basis.T)) <= TOL

    want = oracles.block_split(joint, d_s, qd.pointer_basis(rho, system).basis.T)
    assert abs(qd.broadcast_distance_bound(rho, system)
               - (want["trace_norm"] + want["fidelity_sum"])) <= TOL


@pytest.mark.parametrize("name", list(STATES))
def test_pointer_ensemble_is_the_kernel_at_pointer_basis(name):
    """pointer_ensemble(rho, s, f) is pointer_ensembles(rho, s, [f], pointer_basis(rho, s, f))
    to the bit, and pointer_basis(rho, s) refines against every other factor."""
    rho = STATES[name]()
    system = rho.layout.system
    env = rho.layout.environment_labels
    assert np.array_equal(qd.pointer_basis(rho, system).basis,
                          qd.pointer_basis(rho, system, env).basis)
    for frag in subsets(env, limit=12):
        got = qd.pointer_ensemble(rho, system, frag)
        [want] = qd.measures.pointer_ensembles(rho, system, [frag],
                                               qd.pointer_basis(rho, system, frag))
        assert got.state is want.state
        assert (got.system, got.fragment) == (want.system, want.fragment)
        for field in ("eigenvalues", "probabilities", "h_s", "h_f", "h_sf", "h_f_given_s",
                      "branch_factors", "range_factors"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (frag, field)
        assert np.array_equal(got.basis.basis, want.basis.basis), frag


@pytest.mark.parametrize("make", [lambda: qd.make_ghz_reduced(10),
                                  lambda: qd.make_random_density(3, qd.std_layout(2, [2] * 6))],
                         ids=["ghz-10", "full-rank-2x[2]^6"])
def test_fragment_bound_matches_dense_oracle(make):
    """eta on one-qubit fragments, where each branch factor carries every traced
    index in its columns (2 x 4096 for the full-rank state)."""
    rho = make()
    dims = rho.layout.dims
    for frag in ("E1", "E4"):
        kets = qd.pointer_ensemble(rho, "S", [frag]).basis.basis.T
        joint = oracles.partial_trace(rho.matrix, dims, [0, rho.layout.labels.index(frag)])
        want = oracles.block_split(joint, 2, kets)
        assert abs(qd.broadcast_distance_bound(rho, "S", [frag])
                   - (want["trace_norm"] + want["fidelity_sum"])) <= TOL, frag


# (state, fragment, shape) with B = range_factors of shape (d_s, k, m) for W with c columns:
# "tall" has d_f > d_s c, so k = d_s c < d_f; "wide" has c > d_s d_f, so k = d_f and m < c;
# "square" is neither, k = d_f and m = c.
RANGE_SHAPES = {
    **{f"rank-{r}-2x[2,3,2]": (STATES[f"rank-{r}-2x[2,3,2]"], None, "tall") for r in (1, 2, 3)},
    "ghz-6": (STATES["ghz-6"], None, "tall"),
    "full-rank-2x[2]^5-E1": (lambda: qd.make_random_density(24, qd.std_layout(2, [2] * 5)),
                             ["E1"], "wide"),
    "full-rank-2x[2,2]": (STATES["full-rank-2x[2,2]"], None, "square"),
}


@pytest.mark.parametrize("name", list(RANGE_SHAPES))
def test_range_factors_match_dense_oracle(name):
    """Every diagnostic read from the range factor, on each of its three shapes,
    against a dense split of the (system, fragment) reduction: the off-diagonal
    norm and both overlaps at the detector's pointer, eta and the bracket without
    the optimizer at the canonical one."""
    make, fragment, shape = RANGE_SHAPES[name]
    rho = make()
    labels, dims = rho.layout.labels, rho.layout.dims
    frag = list(rho.layout.environment_labels) if fragment is None else fragment
    keep = [0, *(labels.index(l) for l in frag)]
    joint = oracles.partial_trace(rho.matrix, dims, keep)
    ens = qd.pointer_ensemble(rho, "S", frag)
    (d_s, d_f, c), (_, k, m) = ens.branch_factors.shape, ens.range_factors.shape
    assert {"tall": k == d_s * c < d_f, "wide": k == d_f and m < c,
            "square": k == d_f and m == c}[shape]

    sbs = qd.detect_broadcast_structure(rho, "S", frag)
    kets = sbs.pointer.basis.T
    want = oracles.block_split(joint, d_s, kets)
    assert abs(sbs.max_offdiagonal_block_norm - want["offdiag"]) <= 1e-12
    assert abs(sbs.max_whole_fragment_overlap - want["overlap"]) <= 1e-12
    assert abs(sbs.max_pairwise_overlap
               - oracles.subenvironment_overlap(joint, [dims[i] for i in keep], kets)) <= 1e-12

    kets = ens.basis.basis.T
    want = oracles.block_split(joint, d_s, kets)
    assert abs(qd.broadcast_distance_bound(rho, "S", frag)
               - (want["trace_norm"] + want["fidelity_sum"])) <= 1e-12
    acc = qd.accessible_information_bounds(rho, "S", frag, optimize_lower=False)
    assert np.max(np.abs(np.subtract((acc.lower, acc.upper),
                                     oracles.accessible_bracket(joint, d_s, kets)))) <= 1e-12


def zero_branch_state():
    """A qutrit system whose rho_S has rank 2: one pointer branch has probability 0."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
    v[8:] = 0.0
    return qd.validate_factor(v / np.linalg.norm(v), qd.std_layout(3, [2, 2]))


KERNEL_STATES = {
    # single subenvironments of dims 2, 3, 2, 4 fall in three groups, pairs in four
    "dims-2x[2,3,2,4]": lambda: qd.make_random_density(
        5, qd.std_layout(2, [2, 3, 2, 4]), rank=2),
    "rank-3": lambda: qd.make_random_density(6, qd.std_layout(3, [2, 2, 2]), rank=3),
    "ghz-10": lambda: qd.make_ghz_reduced(10),
    "degenerate-rho-s": lambda: qd.make_cq_state(3, [0.5, 0.5], 0.4, 3),
    "zero-branch": zero_branch_state,
    "system-in-middle": system_in_middle,
    # c = 16 / d_f columns: d_f = 2 takes the rho_SF side of the Gram, d_f = 4 too but
    # inside the band d_f <= c < d_s d_f, and d_f = 8 the rho_F side (see gram_side)
    "system-last": lambda: qd.make_random_density(
        9, qd.SubsystemLayout.of(("E1", 2), ("E2", 2), ("E3", 2), ("S", 3), system="S"), rank=2),
}


@pytest.mark.parametrize("name", list(KERNEL_STATES))
def test_stacked_kernel_matches_dense_oracle(name):
    """Every fragment of one pointer_ensembles call, mixed sizes and dimensions
    together, against a dense split of its own (system, fragment) reduction."""
    rho = KERNEL_STATES[name]()
    m = rho.matrix
    labels, dims = rho.layout.labels, rho.layout.dims
    system = rho.layout.system
    s = labels.index(system)
    env = rho.layout.environment_labels
    if name == "ghz-10":
        # 64 KiB per factor: each size layer spans several stacks
        assert qd.measures.STACK_BYTES // rho.factor.nbytes < len(env)
        frags = [c for k in (1, 2) for c in itertools.combinations(env, k)]
    else:
        frags = subsets(env)
    basis = qd.pointer_basis(rho, system)
    ensembles = qd.measures.pointer_ensembles(rho, system, frags, basis)
    h_s = oracles.entropy(oracles.partial_trace(m, dims, [s]))
    for frag, ens in zip(frags, ensembles):
        f = [labels.index(l) for l in frag]
        joint = oracles.partial_trace(m, dims, [s, *f])
        branches = oracles.pointer_branches(joint, dims[s], basis.basis.T)
        h_f = oracles.entropy(oracles.partial_trace(m, dims, f))
        h_sf = oracles.entropy(joint)
        h_cond = sum(p * oracles.entropy(b / p) for p, b in branches if p > 1e-12)
        got = (*ens.probabilities, ens.h_f, ens.h_sf, ens.h_f_given_s, ens.holevo,
               ens.mutual_information)
        want = (*(p for p, _ in branches), h_f, h_sf, h_cond, h_f - h_cond,
                h_s + h_f - h_sf)
        assert ens.fragment == frag
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, frag
    if name == "zero-branch":
        assert min(ensembles[0].probabilities) < 1e-20


def gram_side(rho, fragment):
    """Which side of the kernel's Gram product a fragment takes: "sf" when d_f <= c,
    "band" when moreover c < d_s d_f, "f" when d_f > c."""
    d_s = rho.layout.dim_of(rho.layout.system)
    d_f = int(np.prod([rho.layout.dim_of(l) for l in fragment]))
    c = rho.factor.size // (d_s * d_f)
    return "f" if d_f > c else "band" if c < d_s * d_f else "sf"


def test_system_last_state_takes_every_gram_side():
    rho = KERNEL_STATES["system-last"]()
    assert rho.layout.labels[-1] == rho.layout.system
    sides = {len(f): gram_side(rho, f) for f in subsets(rho.layout.environment_labels)}
    assert sides == {1: "sf", 2: "band", 3: "f"}


@pytest.mark.parametrize("name", ["system-last", "dims-2x[2,3,2,4]", "ghz-10"])
def test_kernel_writes_its_spectra_to_the_memo(name):
    """After one pointer_ensembles call the state's memo holds each fragment's (S, F)
    and F spectra, so reduced_spectrum (strong independence's H(S E_j)) reads the
    kernel's spectra without a Gram of its own, and they give the ensemble's entropies."""
    rho = KERNEL_STATES[name]()
    system, env = rho.layout.system, rho.layout.environment_labels
    frags = [c for k in (1, 2, len(env)) for c in itertools.combinations(env, k)]
    assert {gram_side(rho, f) for f in frags} >= {"sf", "f"}
    keys = [(rho.layout.require((system, *f)), f) for f in frags]
    assert not any(key in rho._spectra for pair in keys for key in pair)
    ensembles = qd.measures.pointer_ensembles(rho, system, frags, qd.pointer_basis(rho, system))
    for (key_sf, key_f), ens in zip(keys, ensembles):
        for key, h in ((key_sf, ens.h_sf), (key_f, ens.h_f)):
            memo = rho._spectra[key]
            assert reduced_spectrum(rho, key) is memo
            assert qd.measures._spectrum_entropy(memo) == pytest.approx(h, abs=1e-14)
    assert set(rho._spectra) == {key for pair in keys for key in pair}


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

    def test_tensor_is_the_kronecker_product_of_factors(self):
        a = qd.make_random_density(1, qd.SubsystemLayout.of(("S", 2), system="S"), rank=1)
        b = qd.make_random_density(2, qd.SubsystemLayout.of(("E1", 3), system=None))
        rho = qd.tensor([a, b])
        assert rho.factor.shape == (6, 3)
        assert "matrix" not in vars(rho)
        assert np.allclose(rho.matrix, np.kron(a.matrix, b.matrix), atol=1e-14)
        assert rho.matrix is rho.matrix

    def test_factor_built_states_never_form_their_matrix(self):
        ghz = qd.make_ghz_reduced(10)
        qd.redundancy(ghz, "S", 0.1, scan_samples=3)
        assert "matrix" not in vars(ghz)
        for rho in (qd.make_random_broadcast_state(3, 2, 2, 3),
                    qd.make_cq_state(3, [0.3, 0.7], 0.4, 2)):
            qd.verify_equivalence(rho, "S")
            assert "matrix" not in vars(rho)

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
