"""Constructors for worked-example states and seeded random families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    RANK_EPS,
    TOL_TRACE,
    DensityMatrix,
    PureState,
    SubsystemLayout,
    validate_factor,
    validate_pure_state,
)
from .errors import DimensionOutOfRange, InvalidLayout, OverlappingParts
from .measures import entropy_bits

MAX_HAAR_DIM = 128
MAX_STATE_DIM = 2 ** 17  # largest total dimension of a std_layout: GHZ N = 16


def std_layout(system_dim: int, env_dims: Sequence[int]) -> SubsystemLayout:
    """Layout with system 'S' first, then subenvironments 'E1'..'EN', of total
    dimension at most ``MAX_STATE_DIM``: each constructor takes it before it allocates."""
    factors = [("S", system_dim)] + [(f"E{k + 1}", d) for k, d in enumerate(env_dims)]
    layout = SubsystemLayout.of(*factors, system="S")
    if layout.total_dim > MAX_STATE_DIM:
        raise DimensionOutOfRange(f"total dimension {layout.total_dim} exceeds {MAX_STATE_DIM}")
    return layout


def _basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def haar_random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed
    so the triangular factor's diagonal is real and positive."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class SbsSpec:
    """Recipe for a broadcast-structure state: branch probabilities plus, per
    branch and subenvironment, a spectrum on a disjoint support index set."""

    probabilities: tuple[float, ...]
    subenv_dims: tuple[int, ...]
    supports: tuple[tuple[tuple[int, ...], ...], ...]   # [branch][subenv] -> indices
    spectra: tuple[tuple[tuple[float, ...], ...], ...]  # [branch][subenv] -> weights

    def __post_init__(self):
        n_branches = len(self.probabilities)
        if abs(sum(self.probabilities) - 1.0) > TOL_TRACE or min(self.probabilities) <= 0:
            raise InvalidLayout("branch probabilities must be positive and sum to 1")
        if len(self.supports) != n_branches or len(self.spectra) != n_branches:
            raise InvalidLayout("need one support/spectrum row per branch")
        for k, dim in enumerate(self.subenv_dims):
            used: set[int] = set()
            for i in range(n_branches):
                sup = self.supports[i][k]
                spec = self.spectra[i][k]
                if len(sup) != len(spec) or not sup:
                    raise InvalidLayout("support and spectrum sizes must match and be nonempty")
                if abs(sum(spec) - 1.0) > TOL_TRACE or min(spec) < 0:
                    raise InvalidLayout("each conditional spectrum must be a distribution")
                if any(j < 0 or j >= dim for j in sup):
                    raise DimensionOutOfRange(
                        f"support index outside subenvironment dimension {dim}")
                if used & set(sup):
                    raise OverlappingParts(
                        f"branch supports overlap on subenvironment {k + 1}")
                used |= set(sup)

    @classmethod
    def from_dict(cls, payload: dict) -> "SbsSpec":
        dims, sups = payload["subenv_dims"], payload["supports"]
        if any(type(j) is not int for j in [*dims, *(j for r in sups for s in r for j in s)]):
            raise InvalidLayout("subenv_dims and support indices must be JSON integers")
        return cls(
            tuple(float(p) for p in payload["probabilities"]),
            tuple(dims),
            tuple(tuple(tuple(sup) for sup in row) for row in sups),
            tuple(tuple(tuple(float(x) for x in spec) for spec in row)
                  for row in payload["spectra"]),
        )


def make_broadcast_state(spec: SbsSpec) -> DensityMatrix:
    """Assemble sum_i p_i |i><i| (x) rho_i^E1 (x) ... from a spec."""
    return _broadcast_factor(spec, [np.eye(d) for d in spec.subenv_dims])


def _broadcast_factor(spec: SbsSpec, rotations: Sequence[np.ndarray]) -> DensityMatrix:
    """The broadcast state of ``spec`` with subenvironment k rotated by
    ``rotations[k]``: branch i has the factor sqrt(p_i) |i> (x) u_1 C_i1 (x) ...,
    where C_ik holds sqrt(w_j) |j> for the support j and weight w_j of rho_i^Ek."""
    n_branches = len(spec.probabilities)
    layout = std_layout(n_branches, spec.subenv_dims)
    branches = []
    for i, p in enumerate(spec.probabilities):
        branch = math.sqrt(p) * _basis_ket(n_branches, i)[:, None]
        for u, dim, sup, weights in zip(rotations, spec.subenv_dims, spec.supports[i],
                                        spec.spectra[i]):
            c = np.zeros((dim, len(sup)))
            c[list(sup), range(len(sup))] = np.sqrt(weights)
            branch = np.kron(branch, u @ c)
        branches.append(branch)
    return validate_factor(np.hstack(branches), layout)


def _simplex_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """Flat-simplex sample via sorted uniform spacings."""
    cuts = np.sort(rng.uniform(0.0, 1.0, size=n - 1))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))


def make_random_broadcast_state(seed: int, n_branches: int, n_subenvs: int,
                                max_dim: int) -> DensityMatrix:
    """Seeded random broadcast-structure state; supports assigned greedily by
    index, spectra drawn from flat simplices, conditionals rotated within their
    own support subspaces (which preserves the structure)."""
    if max_dim < n_branches:
        raise DimensionOutOfRange(
            f"subenvironment dimension cap {max_dim} below branch count {n_branches}")
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(n_branches, max_dim + 1)) for _ in range(n_subenvs)]
    probs = _simplex_sample(rng, n_branches)
    # branch i holds indices [cuts[i], cuts[i + 1]) of each subenvironment, the
    # first dim % n_branches branches one index more than the others
    cuts = [[i * (dim // n_branches) + min(i, dim % n_branches) for i in range(n_branches + 1)]
            for dim in dims]
    supports = [tuple(tuple(range(c[i], c[i + 1])) for c in cuts) for i in range(n_branches)]
    spectra = [tuple(tuple(_simplex_sample(rng, len(sup))) for sup in row) for row in supports]
    spec = SbsSpec(tuple(float(p) for p in probs), tuple(dims),
                   tuple(supports), tuple(spectra))
    # rotate each conditional inside its support subspace
    rotations = []
    for k, dim in enumerate(dims):
        u = np.eye(dim, dtype=complex)
        for i in range(n_branches):
            sup = list(spec.supports[i][k])
            if len(sup) > 1:
                u[np.ix_(sup, sup)] = haar_random_unitary(rng, len(sup))
        rotations.append(u)
    return _broadcast_factor(spec, rotations)


def make_ghz_reduced(n_subenvs: int) -> DensityMatrix:
    """Even mixture of the all-zero and all-one projectors on 1 + N qubits."""
    if n_subenvs < 1:
        raise DimensionOutOfRange("need at least one subenvironment")
    layout = std_layout(2, [2] * n_subenvs)
    # |0.5 + 0.5j|^2 is exactly 0.5 (sqrt(0.5)^2 rounds up), so the matrix holds 0.5
    factor = np.zeros((layout.total_dim, 2), dtype=complex)
    factor[0, 0] = factor[-1, 1] = 0.5 + 0.5j
    return validate_factor(factor, layout)


def make_horodecki(p: float) -> DensityMatrix:
    """Two-qubit mixture p P(a|00> + b|11>) + (1-p) P(a|10> + b|01>) with
    a = sqrt(p), b = sqrt(1-p): traditional Darwinism holds, yet the fragment
    carries almost none of it as pointer-basis classical information."""
    if not 0.0 <= p <= 1.0:
        raise InvalidLayout(f"p must lie in [0, 1], got {p}")
    a, b = math.sqrt(p), math.sqrt(1.0 - p)
    psi1 = np.zeros(4, dtype=complex)
    psi1[0], psi1[3] = a, b
    psi2 = np.zeros(4, dtype=complex)
    psi2[2], psi2[1] = a, b
    return validate_factor(np.stack([a * psi1, b * psi2], axis=1), std_layout(2, [2]))


def horodecki_p_tilde(p: float) -> float:
    return p * p + (1.0 - p) ** 2


def horodecki_holevo_closed_form(p: float) -> float:
    """Pointer-basis Holevo information of the two-qubit counterexample family."""
    pt = horodecki_p_tilde(p)
    return (entropy_bits([p, 1.0 - p])
            - pt * entropy_bits([p * p / pt, (1.0 - p) ** 2 / pt])
            - (1.0 - pt))


def _appendix_b_layout(n_subenvs: int, p1: float) -> SubsystemLayout:
    if n_subenvs < 2:
        raise DimensionOutOfRange("need at least two subenvironments")
    if not 0.0 < p1 < 1.0:
        raise InvalidLayout(f"p1 must lie in (0, 1), got {p1}")
    return std_layout(2, [4] * n_subenvs)


def _post_ket(i: int, j: int, n_subenvs: int) -> np.ndarray:
    """|i> (x) |j>^(x)N on a qubit system and N dim-4 subenvironments."""
    ket = _basis_ket(2, i)
    for _ in range(n_subenvs):
        ket = np.kron(ket, _basis_ket(4, j))
    return ket


def make_correlated_branches(n_subenvs: int, p1: float = 0.5) -> DensityMatrix:
    """Qubit system with dim-4 subenvironments whose branch states are perfectly
    correlated classical mixtures: every reduced system-subenvironment pair has
    broadcast structure, the joint state does not."""
    layout = _appendix_b_layout(n_subenvs, p1)
    factor = [math.sqrt(p / 2.0) * _post_ket(i, j, n_subenvs)
              for i, p in enumerate((p1, 1.0 - p1)) for j in (2 * i, 2 * i + 1)]
    return validate_factor(np.stack(factor, axis=1), layout)


def make_entangled_branches(n_subenvs: int, p1: float = 0.5) -> DensityMatrix:
    """Like :func:`make_correlated_branches` but each branch is a pure entangled
    superposition across the subenvironments."""
    layout = _appendix_b_layout(n_subenvs, p1)
    factor = [math.sqrt(p / 2.0) * (_post_ket(i, 2 * i, n_subenvs)
                                    + _post_ket(i, 2 * i + 1, n_subenvs))
              for i, p in enumerate((p1, 1.0 - p1))]
    return validate_factor(np.stack(factor, axis=1), layout)


def make_haar_pure(seed: int, layout: SubsystemLayout) -> PureState:
    """Haar-random pure state: seeded Ginibre matrix, orthonormalized columns
    with the triangular factor's diagonal made real-positive, applied to the
    first basis vector."""
    dim = layout.total_dim
    if dim > MAX_HAAR_DIM:
        raise DimensionOutOfRange(f"total dimension {dim} exceeds {MAX_HAAR_DIM}")
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(rng, dim)
    return validate_pure_state(u[:, 0], layout)


def make_cq_state(seed: int, p_list: Sequence[float], conditional_overlap: float,
                  n_subenvs: int = 1) -> DensityMatrix:
    """Classical-quantum state with pure conditionals of controlled overlap.

    Neighboring conditionals have fidelity ``conditional_overlap`` exactly: two
    branches rotate within one two-dimensional plane by arccos(overlap); three
    or more rotate each base vector toward a shared auxiliary axis (so every
    pair has the same fidelity).  Zero overlap reproduces broadcast structure;
    overlap one makes all conditionals identical.  The system and fragment
    frames are Haar-rotated from the seed.  Probabilities with exact ties make
    the pointer basis ambiguous; keep them distinct for detector round-trips.
    """
    if not 0.0 <= conditional_overlap <= 1.0:
        raise InvalidLayout(f"overlap must lie in [0, 1], got {conditional_overlap}")
    probs = [float(p) for p in p_list]
    if abs(sum(probs) - 1.0) > TOL_TRACE or min(probs) <= 0:
        raise InvalidLayout("p_list must be positive and sum to 1")
    k = len(probs)
    if k < 2 or n_subenvs < 1:
        raise DimensionOutOfRange("need at least two branches and one subenvironment")
    sub_dim = 2 if k == 2 else k + 1
    rng = np.random.default_rng(seed)
    if k == 2:
        alpha = math.acos(conditional_overlap)
        kets = [_basis_ket(sub_dim, 0),
                math.cos(alpha) * _basis_ket(sub_dim, 0)
                + math.sin(alpha) * _basis_ket(sub_dim, 1)]
    else:
        beta = math.asin(math.sqrt(conditional_overlap))
        shared = _basis_ket(sub_dim, k)
        kets = [math.cos(beta) * _basis_ket(sub_dim, i) + math.sin(beta) * shared
                for i in range(k)]
    layout = std_layout(k, [sub_dim] * n_subenvs)
    u_sys = haar_random_unitary(rng, k)
    u_frag = [haar_random_unitary(rng, sub_dim) for _ in range(n_subenvs)]
    factor = []
    for i, p in enumerate(probs):
        vec = math.sqrt(p) * u_sys[:, i]
        for u in u_frag:
            vec = np.kron(vec, u @ kets[i])
        factor.append(vec)
    return validate_factor(np.stack(factor, axis=1), layout)


def make_random_density(seed: int, layout: SubsystemLayout,
                        rank: int | None = None) -> DensityMatrix:
    """Seeded random density matrix with the factor G / |G|_F of a complex
    Ginibre matrix G."""
    dim = layout.total_dim
    rank = dim if rank is None else max(1, min(rank, dim))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return validate_factor(g / np.linalg.norm(g), layout)


def perturb_state(rho: DensityMatrix, strength: float, seed: int) -> DensityMatrix:
    """Add seeded Hermitian noise of the given Frobenius strength, then project
    back onto valid states (drop eigenvalues at or below the rank cut
    d * RANK_EPS * lambda_max of validation, renormalize)."""
    rng = np.random.default_rng(seed)
    d = rho.dim
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    h *= strength / np.linalg.norm(h)
    w, v = np.linalg.eigh(rho.matrix + h)
    keep = w > d * RANK_EPS * w[-1]
    return validate_factor(v[:, keep] * np.sqrt(w[keep] / w[keep].sum()), rho.layout)


FAMILIES = ("sbs", "perturbed-sbs", "cq", "haar")


def make_theorem_case(seed: int, index: int, dims_cap: int = 32,
                      perturbation: float = 1e-2) -> tuple[str, DensityMatrix]:
    """Deterministic case ``index`` of the theorem-verification family mix.

    Every case fits ``dims_cap``: broadcast and cq cases drop subenvironments,
    and haar cases draw only from the environments that fit.  Raises
    :class:`DimensionOutOfRange` when a family's smallest case does not fit.
    """
    if dims_cap < 4:
        raise DimensionOutOfRange(f"dims cap {dims_cap} is below 4, the smallest case dimension")
    family = FAMILIES[index % len(FAMILIES)]
    rng = np.random.default_rng([seed, index])
    sub_seed = int(rng.integers(0, 2 ** 31))
    if family in ("sbs", "perturbed-sbs"):
        n_branches = int(rng.integers(2, 4))
        n_subenvs = int(rng.integers(1, 4))
        max_dim = n_branches
        while n_branches * (max_dim + 1) ** n_subenvs <= dims_cap and max_dim < 4:
            max_dim += 1
        rho = make_random_broadcast_state(sub_seed, n_branches, n_subenvs, max_dim)
        while rho.dim > dims_cap:
            if n_subenvs == 1:
                raise DimensionOutOfRange(
                    f"dims cap {dims_cap} is below the dimension {rho.dim} of a "
                    f"{n_branches}-branch broadcast state with one subenvironment")
            n_subenvs -= 1
            rho = make_random_broadcast_state(sub_seed, n_branches, n_subenvs, max_dim)
        if family == "perturbed-sbs":
            rho = perturb_state(rho, perturbation, sub_seed + 1)
        return family, rho
    if family == "cq":
        p1 = float(rng.uniform(0.2, 0.45))
        overlap = float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]))
        # two branches on n qubit subenvironments: dimension 2^(n + 1)
        n_subenvs = min(int(rng.integers(1, 3)), dims_cap.bit_length() - 2)
        return family, make_cq_state(sub_seed, [p1, 1.0 - p1], overlap, n_subenvs)
    env_options = [env for env in ([2], [2, 2], [2, 2, 2], [2, 2, 2, 2], [4, 2], [4])
                   if 2 * math.prod(env) <= dims_cap]
    env = list(env_options[int(rng.integers(0, len(env_options)))])
    return family, make_haar_pure(sub_seed, std_layout(2, env)).to_density()


def theorem_suite(seed: int, n_cases: int, dims_cap: int = 32,
                  perturbation: float = 1e-2) -> Iterator[tuple[int, str, DensityMatrix]]:
    """Yield (index, family, state) for the randomized equivalence batch."""
    for index in range(n_cases):
        yield index, *make_theorem_case(seed, index, dims_cap, perturbation)
