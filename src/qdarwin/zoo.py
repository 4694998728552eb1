"""Constructors for worked-example states and seeded random families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    TOL_TRACE,
    DensityMatrix,
    PureState,
    SubsystemLayout,
    validate_density_matrix,
    validate_factor,
    validate_pure_state,
)
from .errors import (
    DimensionTooLarge,
    DimensionTooSmall,
    InvalidLayout,
    OverlappingSupports,
)
from .measures import entropy_bits

MAX_HAAR_DIM = 128


def std_layout(system_dim: int, env_dims: Sequence[int]) -> SubsystemLayout:
    """Layout with system 'S' first, then subenvironments 'E1'..'EN'."""
    factors = [("S", system_dim)] + [(f"E{k + 1}", d) for k, d in enumerate(env_dims)]
    return SubsystemLayout.of(*factors, system="S")


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
                    raise DimensionTooSmall(
                        f"support index outside subenvironment dimension {dim}")
                if used & set(sup):
                    raise OverlappingSupports(
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
    n_branches = len(spec.probabilities)
    layout = std_layout(n_branches, spec.subenv_dims)
    total = layout.total_dim
    out = np.zeros((total, total), dtype=complex)
    for i, p in enumerate(spec.probabilities):
        branch = np.outer(_basis_ket(n_branches, i), _basis_ket(n_branches, i).conj())
        for k, dim in enumerate(spec.subenv_dims):
            cond = np.zeros((dim, dim), dtype=complex)
            for j, w in zip(spec.supports[i][k], spec.spectra[i][k]):
                cond[j, j] = w
            branch = np.kron(branch, cond)
        out += p * branch
    return validate_density_matrix(out, layout)


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
        raise DimensionTooSmall(
            f"subenvironment dimension cap {max_dim} below branch count {n_branches}")
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(n_branches, max_dim + 1)) for _ in range(n_subenvs)]
    probs = _simplex_sample(rng, n_branches)
    supports = []
    spectra = []
    for i in range(n_branches):
        sup_row = []
        spec_row = []
        for k, dim in enumerate(dims):
            base = dim // n_branches
            extra = dim % n_branches
            start = i * base + min(i, extra)
            size = base + (1 if i < extra else 0)
            sup = tuple(range(start, start + size))
            sup_row.append(sup)
            spec_row.append(tuple(_simplex_sample(rng, len(sup))))
        supports.append(tuple(sup_row))
        spectra.append(tuple(spec_row))
    spec = SbsSpec(tuple(float(p) for p in probs), tuple(dims),
                   tuple(supports), tuple(spectra))
    rho = make_broadcast_state(spec)
    # rotate each conditional inside its support subspace
    layout = rho.layout
    matrix = rho.matrix.copy()
    for k, dim in enumerate(dims):
        u = np.eye(dim, dtype=complex)
        for i in range(n_branches):
            sup = list(spec.supports[i][k])
            if len(sup) > 1:
                u[np.ix_(sup, sup)] = haar_random_unitary(rng, len(sup))
        full = np.eye(1, dtype=complex)
        for lab, d in zip(layout.labels, layout.dims):
            full = np.kron(full, u if lab == f"E{k + 1}" else np.eye(d, dtype=complex))
        matrix = full @ matrix @ full.conj().T
    return validate_density_matrix(matrix, layout)


def make_ghz_reduced(n_subenvs: int) -> DensityMatrix:
    """Even mixture of the all-zero and all-one projectors on 1 + N qubits."""
    if n_subenvs < 1:
        raise DimensionTooSmall("need at least one subenvironment")
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
    rho = p * np.outer(psi1, psi1.conj()) + (1.0 - p) * np.outer(psi2, psi2.conj())
    return validate_density_matrix(rho, std_layout(2, [2]))


def horodecki_p_tilde(p: float) -> float:
    return p * p + (1.0 - p) ** 2


def horodecki_holevo_closed_form(p: float) -> float:
    """Pointer-basis Holevo information of the two-qubit counterexample family."""
    pt = horodecki_p_tilde(p)
    return (entropy_bits([p, 1.0 - p])
            - pt * entropy_bits([p * p / pt, (1.0 - p) ** 2 / pt])
            - (1.0 - pt))


def make_correlated_branches(n_subenvs: int, p1: float = 0.5) -> DensityMatrix:
    """Qubit system with dim-4 subenvironments whose branch states are perfectly
    correlated classical mixtures: every reduced system-subenvironment pair has
    broadcast structure, the joint state does not."""
    if n_subenvs < 2:
        raise DimensionTooSmall("need at least two subenvironments")
    if not 0.0 < p1 < 1.0:
        raise InvalidLayout(f"p1 must lie in (0, 1), got {p1}")
    layout = std_layout(2, [4] * n_subenvs)
    dims = layout.dims
    out = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for i, p in enumerate((p1, 1.0 - p1)):
        for j in (2 * i, 2 * i + 1):
            ket = _basis_ket(2, i)
            for _ in range(n_subenvs):
                ket = np.kron(ket, _basis_ket(4, j))
            out += (p / 2.0) * np.outer(ket, ket.conj())
    return validate_density_matrix(out, layout)


def make_entangled_branches(n_subenvs: int, p1: float = 0.5) -> DensityMatrix:
    """Like :func:`make_correlated_branches` but each branch is a pure entangled
    superposition across the subenvironments."""
    if n_subenvs < 2:
        raise DimensionTooSmall("need at least two subenvironments")
    if not 0.0 < p1 < 1.0:
        raise InvalidLayout(f"p1 must lie in (0, 1), got {p1}")
    layout = std_layout(2, [4] * n_subenvs)
    out = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for i, p in enumerate((p1, 1.0 - p1)):
        branch = np.zeros(layout.total_dim, dtype=complex)
        for j in (2 * i, 2 * i + 1):
            ket = _basis_ket(2, i)
            for _ in range(n_subenvs):
                ket = np.kron(ket, _basis_ket(4, j))
            branch += ket
        branch /= np.linalg.norm(branch)
        out += p * np.outer(branch, branch.conj())
    return validate_density_matrix(out, layout)


def make_haar_pure(seed: int, layout: SubsystemLayout) -> PureState:
    """Haar-random pure state: seeded Ginibre matrix, orthonormalized columns
    with the triangular factor's diagonal made real-positive, applied to the
    first basis vector."""
    dim = layout.total_dim
    if dim > MAX_HAAR_DIM:
        raise DimensionTooLarge(f"total dimension {dim} exceeds {MAX_HAAR_DIM}")
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
    if k < 2:
        raise DimensionTooSmall("need at least two branches")
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
    out = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for i, p in enumerate(probs):
        vec = u_sys @ _basis_ket(k, i)
        for u in u_frag:
            vec = np.kron(vec, u @ kets[i])
        out += p * np.outer(vec, vec.conj())
    return validate_density_matrix(out, layout)


def make_random_density(seed: int, layout: SubsystemLayout,
                        rank: int | None = None) -> DensityMatrix:
    """Seeded random density matrix from a complex Ginibre factor G G^dagger."""
    dim = layout.total_dim
    rank = dim if rank is None else max(1, min(rank, dim))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return validate_density_matrix(rho, layout)


def perturb_state(rho: DensityMatrix, strength: float, seed: int) -> DensityMatrix:
    """Add seeded Hermitian noise of the given Frobenius strength, then project
    back onto valid states (clip negative eigenvalues, renormalize)."""
    rng = np.random.default_rng(seed)
    d = rho.dim
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    h *= strength / np.linalg.norm(h)
    noisy = rho.matrix + h
    w, v = np.linalg.eigh(noisy)
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    return validate_density_matrix((v * w) @ v.conj().T, rho.layout)


FAMILIES = ("sbs", "perturbed-sbs", "cq", "haar")


def make_theorem_case(seed: int, index: int, dims_cap: int = 32,
                      perturbation: float = 1e-2) -> tuple[str, DensityMatrix]:
    """Deterministic case ``index`` of the theorem-verification family mix.

    Every case fits ``dims_cap``: broadcast and cq cases drop subenvironments,
    and haar cases draw only from the environments that fit.  Raises
    :class:`DimensionTooSmall` when a family's smallest case does not fit.
    """
    if dims_cap < 4:
        raise DimensionTooSmall(f"dims cap {dims_cap} is below 4, the smallest case dimension")
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
                raise DimensionTooSmall(
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
    layout = std_layout(2, env)
    psi = make_haar_pure(sub_seed, layout)
    return family, psi.to_density()


def theorem_suite(seed: int, n_cases: int, dims_cap: int = 32,
                  perturbation: float = 1e-2) -> Iterator[tuple[int, str, DensityMatrix]]:
    """Yield (index, family, state) for the randomized equivalence batch."""
    for index in range(n_cases):
        family, rho = make_theorem_case(seed, index, dims_cap, perturbation)
        yield index, family, rho
