"""Entropic and geometric measures on system-fragment states, all in bits.

Strong Darwinism and broadcast structure are statements about one object, the
pointer ensemble {p_i, rho_F|i} of a system S and a fragment F.
:func:`pointer_ensemble` builds it from a single (S, F) reduction; I(S:F),
the Holevo quantity chi, the discord and the accessible-information bracket
are read from the :class:`PointerEnsemble`.  Two rules choose its basis:

* chi, I, discord, the deficit ``M``, the distance bound ``eta`` and the
  redundancy use the canonical eigenbasis of rho_S (``basis=None``);
* the broadcast detector, only when rho_S is degenerate, passes a basis
  refined against fragment probe operators on the same reduction.

The rules differ where rho_S is degenerate: for the two-qubit counterexample
family at p = 0.5, a point of the closed-form regression grid, the refined
basis gives chi = 1 bit where the canonical basis and the closed form give 0.
Measurement optimization happens on the fragment side, in the
accessible-information lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityMatrix,
    ProjectiveMeasurement,
    Tolerances,
    eig_hermitian,
    factor_first,
    partial_trace,
)
from .errors import DimensionMismatch, OverlappingParts
from .optimize import (
    DEFAULT_OPT,
    EPS_NUM,
    EPS_OPT,
    OptimizerConfig,
    maximize_over_bases,
)

TAU_COMM = 1e-9


@dataclass(frozen=True)
class MeasureValue:
    """Scalar measure in bits plus the pointer basis it was evaluated at."""

    value: float
    basis: ProjectiveMeasurement | None


@dataclass(frozen=True)
class AccessibleInfoBounds:
    """Bracket for the accessible information; exact when the ensemble commutes."""

    lower: float
    upper: float
    exact: bool
    lower_optimized: bool
    restarts: int = 0
    gap: float = 0.0


def entropy_bits(probs: Iterable[float]) -> float:
    """Shannon entropy of a probability vector, with 0 log 0 = 0."""
    p = np.asarray(list(probs), dtype=float)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Entropy -tr(rho log2 rho); eigenvalues within the PSD band clamp to [0, 1]."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return entropy_bits(np.clip(np.linalg.eigvalsh(m), 0.0, 1.0))


def _entropy_of_labels(rho: DensityMatrix, labels: Sequence[str]) -> float:
    return von_neumann_entropy(partial_trace(rho, labels))


def _disjoint(*parts: Sequence[str]) -> None:
    seen: set[str] = set()
    for part in parts:
        s = set(part)
        if s & seen:
            raise OverlappingParts(f"label sets overlap: {sorted(s & seen)}")
        seen |= s


def mutual_information(rho: DensityMatrix, part_a: Sequence[str],
                       part_b: Sequence[str]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) on the reduction to the union of A and B."""
    a = rho.layout.require(part_a)
    b = rho.layout.require(part_b)
    _disjoint(a, b)
    joint = partial_trace(rho, a + b)
    return (_entropy_of_labels(joint, a) + _entropy_of_labels(joint, b)
            - von_neumann_entropy(joint))


def conditional_mutual_information(rho: DensityMatrix, part_a: Sequence[str],
                                   part_b: Sequence[str],
                                   cond: Sequence[str]) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(C) - H(ABC); tiny negatives clamp to 0."""
    a = rho.layout.require(part_a)
    b = rho.layout.require(part_b)
    c = tuple(rho.layout.require(cond)) if list(cond) else ()
    _disjoint(a, b, c)
    joint = partial_trace(rho, a + b + c)
    h_ac = _entropy_of_labels(joint, a + c)
    h_bc = _entropy_of_labels(joint, b + c)
    h_c = _entropy_of_labels(joint, c) if c else 0.0
    value = h_ac + h_bc - h_c - von_neumann_entropy(joint)
    if -EPS_NUM <= value < 0.0:
        return 0.0
    return value


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference, via eigenvalues of (a - b)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return 0.5 * trace_norm(a.matrix - b.matrix)


def trace_norm(matrix: np.ndarray) -> float:
    m = np.asarray(matrix, dtype=complex)
    if np.allclose(m, m.conj().T, atol=1e-12):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _sqrtm_psd(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """Square-root fidelity ||sqrt(a) sqrt(b)||_1, in [0, 1]."""
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shapes differ: {ma.shape} vs {mb.shape}")
    s = np.linalg.svd(_sqrtm_psd(ma) @ _sqrtm_psd(mb), compute_uv=False)
    return float(min(s.sum(), 1.0))


def pointer_basis(rho: DensityMatrix, system: str,
                  tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """Canonical eigenbasis of the reduced system state."""
    _, vecs = eig_hermitian(partial_trace(rho, [system]).matrix, tol)
    return ProjectiveMeasurement(system, vecs)


def branch_decomposition(rho: DensityMatrix, system: str,
                         basis: ProjectiveMeasurement,
                         tol: Tolerances = DEFAULT_TOL
                         ) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Probabilities of measuring ``system`` in ``basis``, and the normalized
    conditional states of the remaining factors in layout order.

    Outcomes with probability below ``tol.prob`` have conditional None.
    """
    d_s = rho.layout.dim_of(system)
    if basis.basis.shape[0] != d_s:
        raise DimensionMismatch(
            f"measurement dimension {basis.basis.shape[0]} != factor dimension {d_s}")
    t, _ = factor_first(rho, system)
    kets = basis.basis
    probs = np.empty(kets.shape[1])
    conds: list[np.ndarray | None] = []
    for a in range(kets.shape[1]):
        ket = kets[:, a]
        block = np.einsum("i,ijkl,k->jl", ket.conj(), t, ket)
        p = max(float(block.trace().real), 0.0)
        probs[a] = p
        conds.append(block / p if p > tol.prob else None)
    return probs, conds


@dataclass(frozen=True)
class PointerEnsemble:
    """Pointer ensemble {p_i, rho_F|i} of one (system, fragment) reduction.

    ``eigenvalues`` are those of rho_S in descending order; ``conditionals[i]``
    is None for a branch with probability below ``Tolerances.prob``.
    Entropies are in bits; ``h_f_given_s`` is sum_i p_i H(rho_F|i).
    """

    system: str
    fragment: tuple[str, ...]
    joint: DensityMatrix
    rho_s: np.ndarray
    eigenvalues: np.ndarray
    basis: ProjectiveMeasurement
    probabilities: np.ndarray
    conditionals: tuple[np.ndarray | None, ...]
    rho_f: np.ndarray
    h_s: float
    h_f: float
    h_sf: float
    h_f_given_s: float

    @property
    def mutual_information(self) -> float:
        """I(S:F) = H(S) + H(F) - H(SF)."""
        return self.h_s + self.h_f - self.h_sf

    @property
    def holevo(self) -> float:
        """chi = H(F) - sum_i p_i H(rho_F|i); rounding negatives clamp to 0."""
        value = self.h_f - self.h_f_given_s
        return 0.0 if -EPS_NUM <= value < 0.0 else value

    @property
    def discord(self) -> float:
        """I(S:F) - chi at this basis, unclamped."""
        return self.mutual_information - self.holevo

    @property
    def gap(self) -> float:
        """Smallest gap between eigenvalues of rho_S (inf for a single one)."""
        w = self.eigenvalues
        return float(np.min(w[:-1] - w[1:])) if w.size > 1 else float("inf")

    def live(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Probabilities and conditionals of the branches that occur."""
        kept = [(p, c) for p, c in zip(self.probabilities, self.conditionals)
                if c is not None]
        return np.array([p for p, _ in kept]), [c for _, c in kept]

    def accessible_information(self, opt: OptimizerConfig,
                               optimize_lower: bool) -> AccessibleInfoBounds:
        """Bracket the accessible information of this ensemble.

        Upper bound is the Holevo quantity.  When the conditional states
        commute pairwise (Frobenius norm below ``TAU_COMM``) the
        common-eigenbasis measurement achieves it and the bracket is exact.
        Otherwise the lower bound is the best classical mutual information over
        projective fragment measurements (the eigenbasis of rho_F when
        ``optimize_lower`` is off, e.g. inside large batch runs).
        """
        chi = self.holevo
        ps, cs = self.live()
        if not cs:
            return AccessibleInfoBounds(0.0, chi, True, False)
        commuting = all(
            float(np.linalg.norm(ci @ cj - cj @ ci)) < TAU_COMM
            for i, ci in enumerate(cs) for cj in cs[i + 1:])
        if commuting:
            lower = classical_mutual_information(ps, cs, common_eigenbasis(cs))
            return AccessibleInfoBounds(lower, chi, True, False)
        if not optimize_lower:
            _, vecs = eig_hermitian(self.rho_f)
            lower = classical_mutual_information(ps, cs, vecs)
            return AccessibleInfoBounds(lower, chi, False, False)
        stack = np.stack(cs)
        result = maximize_over_bases(
            lambda basis: classical_mutual_information(ps, cs, basis),
            cs[0].shape[0], opt,
            batch_objective=lambda bases: _classical_mi_batch(ps, stack, bases))
        lower = min(result.value, chi + opt.eps_opt)
        return AccessibleInfoBounds(lower, chi, False, True, result.restarts, result.gap)


def pointer_ensemble(rho: DensityMatrix, system: str, fragment: Sequence[str],
                     basis: ProjectiveMeasurement | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> PointerEnsemble:
    """Reduce rho to (system, fragment) once and split it into pointer branches.

    ``basis`` defaults to the canonical eigenbasis of rho_S; the broadcast
    detector passes its refined basis when rho_S is degenerate.
    """
    frag = rho.layout.require(fragment)
    if system in frag:
        raise OverlappingParts(f"fragment contains the system label {system!r}")
    joint = partial_trace(rho, (system, *frag))
    rho_s = partial_trace(joint, [system]).matrix
    w, vecs = eig_hermitian(rho_s, tol)
    if basis is None:
        basis = ProjectiveMeasurement(system, vecs)
    probs, conds = branch_decomposition(joint, system, basis, tol)
    rho_f = partial_trace(joint, frag).matrix
    h_f_given_s = sum(float(p) * von_neumann_entropy(c)
                      for p, c in zip(probs, conds) if c is not None)
    return PointerEnsemble(system, frag, joint, rho_s, w, basis, probs, tuple(conds),
                           rho_f, von_neumann_entropy(rho_s), von_neumann_entropy(rho_f),
                           von_neumann_entropy(joint), float(h_f_given_s))


def holevo_quantity(rho: DensityMatrix, system: str, fragment: Sequence[str],
                    tol: Tolerances = DEFAULT_TOL) -> MeasureValue:
    """Classical information about the pointer observable carried by the fragment.

    Evaluates H(rho_F) - sum_a p_a H(rho_F|a) for the pointer-basis ensemble.
    """
    ens = pointer_ensemble(rho, system, fragment, tol=tol)
    return MeasureValue(ens.holevo, ens.basis)


def discord(rho: DensityMatrix, system: str, fragment: Sequence[str],
            tol: Tolerances = DEFAULT_TOL) -> MeasureValue:
    """Quantum correlations I(S:F) - chi at the shared pointer basis; negatives
    within ``EPS_OPT`` clamp to 0."""
    ens = pointer_ensemble(rho, system, fragment, tol=tol)
    value = ens.discord
    return MeasureValue(0.0 if -EPS_OPT <= value < 0.0 else value, ens.basis)


def classical_mutual_information(probs: np.ndarray, conds: Sequence[np.ndarray],
                                 basis: np.ndarray) -> float:
    """Classical I(outcome : measurement result) for a fragment measurement basis."""
    born = np.einsum("ja,njk,ka->na", basis.conj(), np.stack(conds), basis).real
    joint = probs[:, None] * np.clip(born, 0.0, None)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 1e-15
    ratio = joint[mask] / np.outer(pa, pb)[mask]
    return float((joint[mask] * np.log2(ratio)).sum())


def _classical_mi_batch(probs: np.ndarray, cond_stack: np.ndarray,
                        bases: np.ndarray) -> np.ndarray:
    """Classical mutual information for a (G, d, d) stack of measurement bases."""
    born = np.einsum("gja,njk,gka->gna", bases.conj(), cond_stack, bases).real
    joint = probs[None, :, None] * np.clip(born, 0.0, None)
    pa = joint.sum(axis=2, keepdims=True)
    pb = joint.sum(axis=1, keepdims=True)
    denom = pa * pb
    mask = joint > 1e-15
    ratio = np.where(mask, joint / np.where(mask, denom, 1.0), 1.0)
    return (np.where(mask, joint * np.log2(ratio), 0.0)).sum(axis=(1, 2))


def common_eigenbasis(mats: Sequence[np.ndarray], gap: float = 1e-9) -> np.ndarray:
    """Simultaneous eigenbasis of (near-)commuting Hermitian matrices.

    Diagonalizes the first matrix, then refines each degenerate cluster with the
    projections of the remaining matrices.  Deterministic given the input order.
    """
    dim = mats[0].shape[0]
    basis = np.eye(dim, dtype=complex)
    clusters = [list(range(dim))]
    for m in mats:
        new_clusters: list[list[int]] = []
        for cluster in clusters:
            if len(cluster) == 1:
                new_clusters.append(cluster)
                continue
            sub = basis[:, cluster]
            proj = sub.conj().T @ m @ sub
            w, v = np.linalg.eigh((proj + proj.conj().T) / 2.0)
            basis[:, cluster] = sub @ v
            start = 0
            while start < len(cluster):
                stop = start + 1
                while stop < len(cluster) and w[stop] - w[stop - 1] < gap:
                    stop += 1
                new_clusters.append(cluster[start:stop])
                start = stop
        clusters = new_clusters
    return basis


def accessible_information_bounds(rho: DensityMatrix, system: str,
                                  fragment: Sequence[str],
                                  opt: OptimizerConfig = DEFAULT_OPT,
                                  tol: Tolerances = DEFAULT_TOL,
                                  optimize_lower: bool = True) -> AccessibleInfoBounds:
    """Accessible-information bracket of the canonical pointer ensemble; see
    :meth:`PointerEnsemble.accessible_information`."""
    return pointer_ensemble(rho, system, fragment, tol=tol).accessible_information(
        opt, optimize_lower)
