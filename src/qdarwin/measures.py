"""Entropic and geometric measures on system-fragment states, all in bits.

Strong Darwinism and broadcast structure are statements about one object, the
pointer ensemble {p_i, rho_F|i} of a system S and a fragment F.
:func:`pointer_ensemble` builds it from the factor W of the (S, F) reduction
(:func:`qdarwin.core.reduced_factor`): the branch factors W_i = (<i| x 1) W
give p_i = |W_i|_F^2 and the spectra of the conditionals, and H(F) and H(SF)
come from the state's memoized reduced spectra, so no matrix larger than a
Gram matrix is formed.  The dense joint state, conditionals and rho_F are
formed only when read.  I(S:F), the Holevo quantity chi, the discord and the
accessible-information bracket are read from the :class:`PointerEnsemble`.
Two rules choose its basis:

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
from functools import cached_property, partial
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEGENERACY_GAP,
    EPS_NUM,
    EPS_OPT,
    HERM_EXACT,
    TAU_COMM,
    TOL_PROB,
    DensityMatrix,
    ProjectiveMeasurement,
    eig_hermitian,
    gram_spectrum,
    partial_trace,
    reduced_factor,
    reduced_spectrum,
    validate_factor,
)
from .errors import DimensionMismatch, OverlappingParts
from .optimize import DEFAULT_OPT, OptimizerConfig, maximize_over_bases


@dataclass(frozen=True)
class MeasureValue:
    """Scalar measure in bits plus the pointer basis it was evaluated at."""

    value: float
    basis: ProjectiveMeasurement | None


@dataclass(frozen=True)
class AccessibleInfoBounds:
    """Bracket for the accessible information, exact when the ensemble commutes; an
    optimized lower bound adds the restarts, iterations, best-minus-second gap and
    the number of restarts stopped by the iteration cap."""

    lower: float
    upper: float
    exact: bool
    lower_optimized: bool
    restarts: int = 0
    gap: float = 0.0
    iterations: int = 0
    capped: int = 0


def entropy_bits(probs: Iterable[float]) -> float:
    """Shannon entropy of a probability vector, with 0 log 0 = 0."""
    p = np.asarray(list(probs), dtype=float)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(p)).sum())


def _spectrum_entropy(w: np.ndarray) -> float:
    """Entropy of a spectrum; eigenvalues within the PSD band clamp to [0, 1]."""
    return entropy_bits(np.clip(w, 0.0, 1.0))


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Entropy -tr(rho log2 rho); eigenvalues within the PSD band clamp to [0, 1]."""
    if isinstance(rho, DensityMatrix):
        return _entropy_of_labels(rho, rho.layout.labels)
    return _spectrum_entropy(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def _entropy_of_labels(rho: DensityMatrix, labels: Sequence[str]) -> float:
    return _spectrum_entropy(reduced_spectrum(rho, labels))


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
    return (_entropy_of_labels(rho, a) + _entropy_of_labels(rho, b)
            - _entropy_of_labels(rho, a + b))


def conditional_mutual_information(rho: DensityMatrix, part_a: Sequence[str],
                                   part_b: Sequence[str],
                                   cond: Sequence[str]) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(C) - H(ABC); tiny negatives clamp to 0."""
    a = rho.layout.require(part_a)
    b = rho.layout.require(part_b)
    c = tuple(rho.layout.require(cond)) if list(cond) else ()
    _disjoint(a, b, c)
    h_ac = _entropy_of_labels(rho, a + c)
    h_bc = _entropy_of_labels(rho, b + c)
    h_c = _entropy_of_labels(rho, c) if c else 0.0
    value = h_ac + h_bc - h_c - _entropy_of_labels(rho, a + b + c)
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
    if np.allclose(m, m.conj().T, atol=HERM_EXACT):
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


def pointer_basis(rho: DensityMatrix, system: str) -> ProjectiveMeasurement:
    """Canonical eigenbasis of the reduced system state."""
    _, vecs = eig_hermitian(partial_trace(rho, [system]).matrix)
    return ProjectiveMeasurement(system, vecs)


def _branch_factors(w: np.ndarray, d_s: int, basis: ProjectiveMeasurement
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Branch factors W_i = (<i| x 1) W of a system-first reduced factor W, as an
    (outcomes, d_rest, columns) stack, and the probabilities p_i = |W_i|_F^2."""
    kets = basis.basis
    if kets.shape[0] != d_s:
        raise DimensionMismatch(
            f"measurement dimension {kets.shape[0]} != factor dimension {d_s}")
    branches = np.tensordot(kets.conj(), w.reshape(d_s, -1, w.shape[1]), axes=(0, 0))
    return branches, np.einsum("ijk,ijk->i", branches.conj(), branches).real


def branch_decomposition(rho: DensityMatrix, system: str,
                         basis: ProjectiveMeasurement
                         ) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Probabilities of measuring ``system`` in ``basis``, and the normalized
    conditional states of the remaining factors in layout order.

    Outcomes with probability below ``TOL_PROB`` have conditional None.
    """
    d_s = rho.layout.dim_of(system)
    rest = tuple(l for l in rho.layout.labels if l != system)
    branches, probs = _branch_factors(reduced_factor(rho, (system, *rest)), d_s, basis)
    return probs, [b @ b.conj().T / p if p > TOL_PROB else None
                   for b, p in zip(branches, probs)]


@dataclass(frozen=True)
class PointerEnsemble:
    """Pointer ensemble {p_i, rho_F|i} of one (system, fragment) reduction of ``state``.

    ``eigenvalues`` are those of rho_S in descending order.  ``branch_factors[i]``
    is W_i = (<i| x 1) W for the factor W of the (S, F) reduction, so
    p_i rho_F|i = W_i W_i^dagger.  Entropies are in bits; ``h_f_given_s`` is
    sum_i p_i H(rho_F|i).  The dense ``joint``, ``conditionals`` (None for a
    branch with probability below ``TOL_PROB``) and ``rho_f`` are formed on
    first read.
    """

    system: str
    fragment: tuple[str, ...]
    state: DensityMatrix
    rho_s: np.ndarray
    eigenvalues: np.ndarray
    basis: ProjectiveMeasurement
    probabilities: np.ndarray
    branch_factors: np.ndarray
    h_s: float
    h_f: float
    h_sf: float
    h_f_given_s: float

    @cached_property
    def joint(self) -> DensityMatrix:
        """Reduction of ``state`` to the system and the fragment."""
        return partial_trace(self.state, (self.system, *self.fragment))

    @cached_property
    def conditional_states(self) -> tuple[DensityMatrix | None, ...]:
        """rho_F|i as states on the fragment, each with its factor W_i / sqrt(p_i)."""
        layout = self.state.layout.subset(self.fragment, system=None)
        return tuple(validate_factor(b / np.sqrt(p), layout) if p > TOL_PROB else None
                     for b, p in zip(self.branch_factors, self.probabilities))

    @cached_property
    def conditionals(self) -> tuple[np.ndarray | None, ...]:
        return tuple(None if c is None else c.matrix for c in self.conditional_states)

    @cached_property
    def rho_f(self) -> np.ndarray:
        return partial_trace(self.state, self.fragment).matrix

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
        if all(np.linalg.norm(ci @ cj - cj @ ci) < TAU_COMM for ci, cj in combinations(cs, 2)):
            lower = classical_mutual_information(ps, cs, common_eigenbasis(cs))
            return AccessibleInfoBounds(lower, chi, True, False)
        if not optimize_lower:
            _, vecs = eig_hermitian(self.rho_f)
            lower = classical_mutual_information(ps, cs, vecs)
            return AccessibleInfoBounds(lower, chi, False, False)
        result = maximize_over_bases(partial(_classical_mi, ps, np.stack(cs)), len(cs[0]), opt)
        return AccessibleInfoBounds(min(result.value, chi + opt.eps_opt), chi, False, True,
                                    result.restarts, result.gap, result.iterations,
                                    result.capped)


def pointer_ensemble(rho: DensityMatrix, system: str, fragment: Sequence[str],
                     basis: ProjectiveMeasurement | None = None) -> PointerEnsemble:
    """Split the (system, fragment) reduction's factor into pointer branches.

    ``basis`` defaults to the canonical eigenbasis of rho_S; the broadcast
    detector passes its refined basis when rho_S is degenerate.
    """
    frag = rho.layout.require(fragment)
    if system in frag:
        raise OverlappingParts(f"fragment contains the system label {system!r}")
    d_s = rho.layout.dim_of(system)
    w = reduced_factor(rho, (system, *frag))
    w_s = w.reshape(d_s, -1)
    rho_s = w_s @ w_s.conj().T
    eigenvalues, vecs = eig_hermitian(rho_s)
    if basis is None:
        basis = ProjectiveMeasurement(system, vecs)
    branches, probs = _branch_factors(w, d_s, basis)
    h_f_given_s = sum(float(p) * _spectrum_entropy(gram_spectrum(b) / p)
                      for b, p in zip(branches, probs) if p > TOL_PROB)
    return PointerEnsemble(system, frag, rho, rho_s, eigenvalues, basis, probs, branches,
                           _spectrum_entropy(eigenvalues), _entropy_of_labels(rho, frag),
                           _entropy_of_labels(rho, (system, *frag)), float(h_f_given_s))


def holevo_quantity(rho: DensityMatrix, system: str,
                    fragment: Sequence[str]) -> MeasureValue:
    """Classical information about the pointer observable carried by the fragment.

    Evaluates H(rho_F) - sum_a p_a H(rho_F|a) for the pointer-basis ensemble.
    """
    ens = pointer_ensemble(rho, system, fragment)
    return MeasureValue(ens.holevo, ens.basis)


def discord(rho: DensityMatrix, system: str, fragment: Sequence[str]) -> MeasureValue:
    """Quantum correlations I(S:F) - chi at the shared pointer basis; negatives
    within ``EPS_OPT`` clamp to 0."""
    ens = pointer_ensemble(rho, system, fragment)
    value = ens.discord
    return MeasureValue(0.0 if -EPS_OPT <= value < 0.0 else value, ens.basis)


def classical_mutual_information(probs: np.ndarray, conds: Sequence[np.ndarray],
                                 basis: np.ndarray) -> float:
    """Classical I(outcome : measurement result) for a fragment measurement basis."""
    return float(_classical_mi_terms(probs, np.stack(conds), basis[None])[0][0])


def _classical_mi_terms(probs: np.ndarray, cond_stack: np.ndarray, bases: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Classical mutual information, in bits, for each basis of a (R, d, d) stack, and
    the log2(J_na / P_n Q_a) it sums, in order, over J_na = p_n <u_a|rho_n|u_a> > 1e-15."""
    born = np.einsum("rja,njk,rka->rna", bases.conj(), cond_stack, bases).real
    joint = probs[:, None] * np.clip(born, 0.0, None)
    mask = joint > 1e-15
    marginals = joint.sum(axis=2, keepdims=True) * joint.sum(axis=1, keepdims=True)
    log_ratio = np.log2(np.divide(joint, marginals, out=np.ones_like(joint), where=mask))
    terms, kept = (joint * log_ratio)[mask], mask.sum(axis=(1, 2))
    if np.all(kept == kept[0]):
        return terms.reshape(len(bases), -1).sum(axis=1), log_ratio
    return np.array([t.sum() for t in np.split(terms, np.cumsum(kept)[:-1])]), log_ratio


def _classical_mi(probs: np.ndarray, cond_stack: np.ndarray, bases: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Classical mutual information and its gradient dI/d(conj U), whose column a is
    sum_n p_n log2(J_na / P_n Q_a) rho_n u_a up to a term U(d) projects out."""
    values, log_ratio = _classical_mi_terms(probs, cond_stack, bases)
    rho_u = np.tensordot(cond_stack, bases, axes=(2, 1))    # rho_n u_a as [n, j, r, a]
    return values, np.einsum("njra,rna->rja", rho_u, probs[:, None] * log_ratio)


def common_eigenbasis(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Simultaneous eigenbasis of (near-)commuting Hermitian matrices.

    Diagonalizes the first matrix, then refines each degenerate cluster with the
    projections of the remaining matrices; eigenvalues closer than
    ``DEGENERACY_GAP`` stay one cluster.  Deterministic given the input order.
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
                while stop < len(cluster) and w[stop] - w[stop - 1] < DEGENERACY_GAP:
                    stop += 1
                new_clusters.append(cluster[start:stop])
                start = stop
        clusters = new_clusters
    return basis


def accessible_information_bounds(rho: DensityMatrix, system: str,
                                  fragment: Sequence[str],
                                  opt: OptimizerConfig = DEFAULT_OPT,
                                  optimize_lower: bool = True) -> AccessibleInfoBounds:
    """Accessible-information bracket of the canonical pointer ensemble; see
    :meth:`PointerEnsemble.accessible_information`."""
    return pointer_ensemble(rho, system, fragment).accessible_information(
        opt, optimize_lower)
