"""Entropic and geometric measures on system-fragment states, all in bits.

Strong Darwinism and broadcast structure are statements about one object, the
pointer ensemble {p_i, rho_F|i} of a system S and a fragment F.  One kernel,
:func:`pointer_ensembles`, builds it for many fragments at one pointer basis.  A call
rotates the state's factor once; a fragment costs one check of its labels and one
transpose of that rotation into its stack, the branch factors W_i = (<i| x 1) W of
its (S, F) factor W with c columns.  Fragments of one dimension share stacks of at
most ``STACK_BYTES``, each with one Gram product of size d_s min(d_f, c) and two
batched spectra: the Gram's, of rho_SF (d_f <= c) or rho_F, and those of its d_s
diagonal blocks p_i rho_F|i and their sum, the other (both go to the state's memo).
The other diagnostics read one ensemble's branches, formed once from one rotation:
in the range of rho_F, B_i = Q^dagger W_i with at most min(d_f, d_s c) rows, the
pointer blocks B_i B_j^dagger, the fidelities of B_i^dagger B_j and the conditionals
(``PointerEnsemble.conditionals``), which the overlaps and the accessible-information
bracket share.  Only the subenvironment overlaps, whose branches are the rows (S, E_k)
of each W_i, and the optimized lower bound read all d_f dimensions.

One rule chooses the basis, :func:`pointer_basis` (rho, system, fragment=None): the
canonical eigenbasis of rho_S, any degenerate cluster refined against the probes of
the fragment, by default every other factor; :func:`pointer_ensemble` is the kernel
at that basis.  Inside a cluster every basis gives the same H(S^Pi), so every
measure and verdict reads the one observable the fragment records.  Measurement
optimization happens on the fragment side, in the accessible-information lower
bound (:func:`_classical_mi`, which reads a stack of bases from one product
V = rho U per block of bases).
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DEGENERACY_GAP,
    EPS_NUM,
    EPS_OPT,
    TAU_COMM,
    TOL_PROB,
    DensityMatrix,
    ProjectiveMeasurement,
    canonical_phases,
    eig_hermitian,
    _factor_rows,
    partial_trace,
    reduced_factor,
    reduced_spectrum,
)
from .errors import DegenerateSystemEntropy, DimensionMismatch, OverlappingParts
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

    def to_dict(self) -> dict:
        return {"lower_bits": self.lower, "upper_bits": self.upper, "exact": self.exact,
                "lower_optimized": self.lower_optimized, "restarts": self.restarts,
                "iterations": self.iterations, "gap_bits": self.gap, "capped": self.capped}


def entropy_bits(probs: Iterable[float]) -> float:
    """Shannon entropy of a probability vector, with 0 log 0 = 0."""
    return float(_spectrum_entropy(np.asarray(list(probs), dtype=float)))


def _spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """Entropy of a spectrum, or of each spectrum along the last axis of a stack;
    eigenvalues within the PSD band clamp to [0, 1]."""
    p = np.clip(w, 0.0, 1.0)
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -tr(rho log2 rho); eigenvalues within the PSD band clamp to [0, 1]."""
    return _entropy_of_labels(rho, rho.layout.labels)


def _entropy_of_labels(rho: DensityMatrix, labels: Sequence[str]) -> float:
    return float(_spectrum_entropy(reduced_spectrum(rho, labels)))


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
    return 0.0 if -EPS_NUM <= value < 0.0 else value


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Square-root fidelity ||sqrt(a) sqrt(b)||_1, in [0, 1], read from the
    factors a = A A^dagger and b = B B^dagger as ||A^dagger B||_1."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    s = np.linalg.svd(_narrow(a.factor).conj().T @ _narrow(b.factor), compute_uv=False)
    return float(min(s.sum(), 1.0))


def _narrow(factor: np.ndarray) -> np.ndarray:
    """A factor of A A^dagger with at most d columns: a reduction's factor carries
    every traced index in its columns, and A A^dagger = R^T conj(R) for A^T = Q R."""
    if factor.shape[1] <= factor.shape[0]:
        return factor
    return np.linalg.qr(factor.T, mode="r").T


def _fragment(rho: DensityMatrix, system: str,
              fragment: Sequence[str] | None = None) -> tuple[str, ...]:
    """The fragment in layout order; every factor except ``system`` when None."""
    return rho.layout.require(
        [l for l in rho.layout.labels if l != system] if fragment is None else fragment)


def pointer_basis(rho: DensityMatrix, system: str,
                  fragment: Sequence[str] | None = None) -> ProjectiveMeasurement:
    """The pointer basis: the canonical eigenbasis of rho_S, its degenerate clusters
    refined against the probes of ``fragment`` (:func:`_probe_stacks`), by default
    every other factor, so that one observable serves every fragment of a scan."""
    frag = _fragment(rho, system, fragment)
    _disjoint([system], frag)
    rho_s = partial_trace(rho, [system]).matrix
    vecs = _refined_eigenbasis(rho_s, _probe_stacks(rho, system, frag))
    return ProjectiveMeasurement(system, vecs)


def _refined_eigenbasis(m: np.ndarray, probes: Iterable[np.ndarray]) -> np.ndarray:
    """The one rule for a basis inside a degenerate cluster: the canonical eigenbasis of
    ``m``, and when two eigenvalues are closer than ``DEGENERACY_GAP``, the common
    eigenbasis of -m, which orders the clusters by descending m, then of the (n, d, d)
    ``probes`` stacks, read only then and only until every cluster is one vector."""
    eigenvalues, vecs = eig_hermitian(m)
    if np.any(eigenvalues[:-1] - eigenvalues[1:] < DEGENERACY_GAP):
        vecs = canonical_phases(common_eigenbasis(chain([-m[None]], probes)))
    return vecs


def _probe_stacks(rho: DensityMatrix, system: str,
                  fragment: tuple[str, ...]) -> Iterator[np.ndarray]:
    """One stack per fragment row m: the Hermitian and anti-Hermitian parts of the probes
    (1 x <m|) rho_SF (1 x |k>) = A_m A_k^dagger, k >= m, A_m the (S, m) slice of the
    (S, F) factor, formed at the first read.  A row whose probes all have eigenvalue
    spread at most 4 |A_m|_F max_k |A_k|_F < ``DEGENERACY_GAP`` cannot split a cluster
    and is skipped."""
    d_s = rho.layout.dim_of(system)
    w = reduced_factor(rho, (system, *fragment))
    a = w.reshape(d_s, -1, w.shape[1]).transpose(1, 0, 2)  # A_m as [m, s, c]
    norms = np.linalg.norm(a, axis=(1, 2))
    tail = np.maximum.accumulate(norms[::-1])[::-1]  # max over k >= m of |A_k|_F
    for m in np.flatnonzero(4.0 * norms * tail >= DEGENERACY_GAP):
        t = np.einsum("sc,ktc->kst", a[m], a[m:].conj())
        t_dag = t.conj().transpose(0, 2, 1)
        yield np.stack([t + t_dag, 1j * (t - t_dag)], axis=1).reshape(-1, d_s, d_s)


def branch_decomposition(rho: DensityMatrix, system: str,
                         basis: ProjectiveMeasurement
                         ) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Probabilities of measuring ``system`` in ``basis``, and the normalized
    conditional states of the remaining factors in layout order.

    Outcomes with probability below ``TOL_PROB`` have conditional None.
    """
    ens = pointer_ensemble(rho, system, _fragment(rho, system), basis)
    conds = iter(_conditionals(ens.branch_factors, ens.probabilities))
    return ens.probabilities, [next(conds) if p > TOL_PROB else None for p in ens.probabilities]


def _conditionals(factors: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """rho_i = F_i F_i^dagger / p_i of each branch factor F_i with p_i above ``TOL_PROB``."""
    live = probs > TOL_PROB
    return np.stack([c @ c.conj().T for c in factors[live] / np.sqrt(probs[live])[:, None, None]])


@dataclass(frozen=True)
class PointerEnsemble:
    """Pointer ensemble {p_i, rho_F|i} of one (system, fragment) reduction of ``state``.

    ``eigenvalues`` are those of rho_S in descending order.  ``branch_factors[i]``
    is W_i = (<i| x 1) W for the factor W of the (S, F) reduction, so
    p_i rho_F|i = W_i W_i^dagger, and ``range_factors[i]`` is the same branch in the
    range of rho_F.  Entropies are in bits; ``h_f_given_s`` is sum_i p_i H(rho_F|i).
    Both factors and ``conditionals`` are formed on first read, so the ensembles of a
    scan hold no factor.
    """

    system: str
    fragment: tuple[str, ...]
    state: DensityMatrix
    eigenvalues: np.ndarray
    basis: ProjectiveMeasurement
    probabilities: np.ndarray
    h_s: float
    h_f: float
    h_sf: float
    h_f_given_s: float

    @cached_property
    def branch_factors(self) -> np.ndarray:
        layout = self.state.layout
        k = layout.index_of(self.system)
        w = _factor_rows(_rotated(self.state, k, self.basis),
                         (k, *map(layout.index_of, self.fragment)))
        return w.reshape(layout.dims[k], -1, w.shape[1])

    @cached_property
    def range_factors(self) -> np.ndarray:
        """B_i = Q^dagger W_i, (d_s, k, m), Q an isometry onto a space holding range(rho_F),
        k <= min(d_f, d_s c), m <= d_s k: W_i = Q B_i, so B_i B_j^dagger and B_i^dagger B_j
        have the singular values of W_i W_j^dagger and W_i^dagger W_j.  B is R of a tall
        [W_1 ... W_{d_s}] = Q R, else Q = 1 and W is cut to d_s d_f columns (:func:`_narrow`)."""
        w = self.branch_factors
        d_s, d_f, c = w.shape
        if d_f > d_s * c:
            r = np.linalg.qr(w.transpose(1, 0, 2).reshape(d_f, d_s * c), mode="r")
            return r.reshape(-1, d_s, c).transpose(1, 0, 2)
        return _narrow(w.reshape(d_s * d_f, c)).reshape(d_s, d_f, -1)

    @cached_property
    def conditionals(self) -> np.ndarray:
        """rho_F|i of the live branches (p_i > ``TOL_PROB``), in the range of rho_F."""
        return _conditionals(self.range_factors, self.probabilities)

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

    @property
    def deficit(self) -> float:
        """Normalized deficit (H(S) - chi + D) / 2H(S), clamped to [0, 1]: zero exactly on
        bipartite broadcast-structure states, undefined (raises) when H(S) vanishes."""
        if self.h_s <= TOL_PROB:
            raise DegenerateSystemEntropy(
                f"system entropy {self.h_s:.3e} is too small for a normalized deficit")
        value = (self.h_s - self.holevo + self.discord) / (2.0 * self.h_s)
        return float(min(max(value, 0.0), 1.0))

    def complement(self, fragment: tuple[str, ...]) -> PointerEnsemble:
        """The ensemble of ``fragment``, the rest of a pure state's environment: its
        branches' conditionals share this one's spectra, and H(F), H(SF) swap."""
        return replace(self, fragment=fragment, h_f=self.h_sf, h_sf=self.h_f)

    def accessible_information(self, opt: OptimizerConfig,
                               optimize_lower: bool) -> AccessibleInfoBounds:
        """Bracket the accessible information of this ensemble.

        Upper bound is the Holevo quantity.  When the conditional states
        commute pairwise (Frobenius norm below ``TAU_COMM``) the
        common-eigenbasis measurement achieves it and the bracket is exact.
        Otherwise the lower bound is the best classical mutual information over
        projective fragment measurements (when ``optimize_lower`` is off, e.g. inside
        large batch runs, the eigenbasis of rho_F with its degenerate clusters refined
        against the conditionals, :func:`_refined_eigenbasis`).  All but the optimized
        bound read the range of rho_F; a search on all of the fragment can find more.
        """
        chi = self.holevo
        ps = self.probabilities[self.probabilities > TOL_PROB]
        cs = self.conditionals
        if all(np.linalg.norm(ci @ cj - cj @ ci) < TAU_COMM for ci, cj in combinations(cs, 2)):
            lower = classical_mutual_information(ps, cs, common_eigenbasis([cs]))
            return AccessibleInfoBounds(lower, chi, True, False)
        if not optimize_lower:
            rho_f = sum(b @ b.conj().T for b in self.range_factors)
            lower = classical_mutual_information(ps, cs, _refined_eigenbasis(rho_f, [cs]))
            return AccessibleInfoBounds(lower, chi, False, False)
        cs = _conditionals(self.branch_factors, self.probabilities)
        result = maximize_over_bases(partial(_classical_mi, ps, cs), len(cs[0]), opt)
        return AccessibleInfoBounds(min(result.value, chi + opt.eps_opt), chi, False, True,
                                    result.restarts, result.gap, result.iterations,
                                    result.capped)


def pointer_ensemble(rho: DensityMatrix, system: str, fragment: Sequence[str],
                     basis: ProjectiveMeasurement | None = None) -> PointerEnsemble:
    """The :func:`pointer_ensembles` kernel on one fragment, at ``basis`` or by
    default at :func:`pointer_basis` against this fragment."""
    return pointer_ensembles(rho, system, [fragment],
                             basis or pointer_basis(rho, system, fragment))[0]


# Bytes of (S, F) factors, d r entries each, in one stack of :func:`pointer_ensembles`;
# a branch copy and one Gram product of at most d_s times as many entries come on top.
# Unbounded stacks took the fragment_scan benchmark's peak RSS from 41.9 to 44.4 MB.
STACK_BYTES = 128 * 1024


def pointer_ensembles(rho: DensityMatrix, system: str,
                      fragments: Sequence[Sequence[str]],
                      basis: ProjectiveMeasurement) -> list[PointerEnsemble]:
    """One :class:`PointerEnsemble` per fragment, in order, all at ``basis``: one rotation
    per call, then one batched Gram product per stack (see the module docstring)."""
    layout = rho.layout
    k_s, d_s = layout.index_of(system), layout.dim_of(system)
    if basis.basis.shape[0] != d_s:
        raise DimensionMismatch(
            f"measurement dimension {basis.basis.shape[0]} != factor dimension {d_s}")
    # each fragment is validated once; its axes give d_f, its rows and both memo keys
    groups: dict[int, list] = {}
    for k, fragment in enumerate(fragments):
        frag = layout.require(fragment)
        axes = list(map(layout.index_of, frag))
        if k_s in axes:
            raise OverlappingParts(f"label sets overlap: {[system]}")
        at = bisect(axes, k_s)
        groups.setdefault(math.prod(layout.dims[i] for i in axes), []).append(
            (k, frag, axes, (*frag[:at], system, *frag[at:])))
    rotated = _rotated(rho, k_s, basis)
    per_stack, out = max(1, STACK_BYTES // rho.factor.nbytes), {}
    for d_f, members in groups.items():
        c = rho.factor.size // (d_s * d_f)
        m = min(d_f, c)
        for chunk in (members[i:i + per_stack] for i in range(0, len(members), per_stack)):
            n = len(chunk)
            # rows (S, F): Y Y^dagger is rho_SF; rows (F, S): Y^dagger Y is [B_i^dagger B_j]
            y = np.empty((n, d_s * d_f, c), dtype=complex)
            for j, (_, _, axes, _) in enumerate(chunk):
                y[j] = _factor_rows(rotated, (k_s, *axes) if d_f <= c else (*axes, k_s))
            y = y if d_f <= c else y.reshape(n, d_f, d_s * c)
            y_dag = y.conj().swapaxes(1, 2)
            gram = (y @ y_dag if d_f <= c else y_dag @ y).reshape(n, d_s, m, d_s, m)
            if not out:  # rho_S, or its transpose, is a partial trace of any Gram
                eigenvalues = np.linalg.eigvalsh(np.einsum("ixjx->ij", gram[0]))[::-1]
                h_s = float(_spectrum_entropy(eigenvalues))
            blocks = np.einsum("nixiy->nixy", gram)  # p_i rho_F|i, or its c x c partner
            probs = np.einsum("nixx->ni", blocks).real
            live = probs > TOL_PROB
            # the conditionals' spectra and their sum's, then the Gram's: rho_F, rho_SF or reversed
            small = np.linalg.eigvalsh(np.concatenate([blocks, blocks.sum(axis=1)[:, None]], 1))
            spectra = (np.linalg.eigvalsh(gram.reshape(n, d_s * m, -1)), small[:, d_s])
            small[:, :d_s] /= np.where(live, probs, 1.0)[..., None]
            h = _spectrum_entropy(small)
            order = slice(None, None, 1 if d_f <= c else -1)  # to (rho_SF, rho_F)
            (h_sf, h_f), (sf, f) = (_spectrum_entropy(spectra[0]), h[:, d_s])[order], spectra[order]
            h_f_given_s = np.where(live, probs * h[:, :d_s], 0.0).sum(axis=1)
            for j, ((k, frag, _, key), *values) in enumerate(zip(
                    chunk, h_f.tolist(), h_sf.tolist(), h_f_given_s.tolist())):
                rho._spectra.setdefault(key, sf[j])  # the memo keeps a subset's first spectrum
                rho._spectra.setdefault(frag, f[j])
                out[k] = PointerEnsemble(system, frag, rho, eigenvalues, basis, probs[j], h_s,
                                         *values)
    return [out[k] for k in range(len(out))]


def _rotated(rho: DensityMatrix, k: int, basis: ProjectiveMeasurement) -> np.ndarray:
    """The state's factor in the pointer basis of axis ``k``, (U^dagger x 1) V, as (*dims, r)."""
    v = rho.factor.reshape(math.prod(rho.layout.dims[:k]), rho.layout.dims[k], -1)
    return (basis.basis.conj().T @ v).reshape(*rho.layout.dims, -1)


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
    return float(_classical_mi(probs, conds, basis[None], gradient=False)[0][0])


# Bytes of the product V = rho U of one block of bases in :func:`_classical_mi`, the
# largest of the block's temporaries; one basis is always a block.
MI_BLOCK_BYTES = 64 * 1024


def _classical_mi(probs: np.ndarray, cond_stack: np.ndarray, bases: np.ndarray,
                  gradient: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Classical mutual information, in bits, of each basis of a (R, d, d) stack, and its
    gradient dI/d(conj U) unless ``gradient`` is off, the same to the bit in any stack.  In
    blocks of ``MI_BLOCK_BYTES``, one product V_n = rho_n U, its kets ordered (outcome a,
    basis r) along the last axis, gives J_an = p_n Re <u_a|V_n e_a>; I sums J_an log2(J_an /
    P_n Q_a) over J_an > 1e-15, the log being 0 elsewhere, and column a of the gradient, up
    to a term U(d) projects out, is sum_n p_n log2(J_an / P_n Q_a) V_n e_a."""
    r, d = bases.shape[:2]
    rows = np.asarray(cond_stack, dtype=complex).reshape(-1, d)     # [(n, k), j]
    step = max(1, MI_BLOCK_BYTES // (16 * rows.size))
    values, grads = np.empty(r), (np.empty((r, d, d), dtype=complex) if gradient else None)
    for lo in range(0, r, step):
        _mi_block(probs, rows, bases[lo:lo + step], values[lo:lo + step],
                  None if grads is None else grads[lo:lo + step])
    return values, grads


def _mi_block(probs: np.ndarray, rows: np.ndarray, bases: np.ndarray, values: np.ndarray,
              grads: np.ndarray | None) -> None:
    """:func:`_classical_mi` on one block of m bases, written to ``values`` and ``grads``."""
    n, m, d = len(probs), len(bases), bases.shape[1]
    kets = bases.transpose(1, 2, 0).reshape(d, d * m)                 # [j, (a, r)]
    # the bases on the product's rows: each basis's entries are the same in any block
    v = np.ascontiguousarray((kets.T @ rows.T).T).reshape(n, d, d * m)  # [n, k, (a, r)]
    born = np.einsum("nkx,kx->nx", v, kets.conj()).real                # [n, (a, r)]
    if m == 1:  # two copies, or each sum over (n, a) below is a contiguous, pairwise one
        born = np.repeat(born, 2, axis=1)
    joint = (probs[:, None] * np.maximum(born, 0.0)).reshape(n, d, -1)
    marginals = joint.sum(axis=1)[:, None] * joint.sum(axis=0)
    log_ratio = np.log2(np.divide(joint, marginals, out=np.ones_like(joint), where=joint > 1e-15))
    values[:] = (joint * log_ratio).reshape(n * d, -1).sum(axis=0)[:m]
    if grads is not None:  # sum_n w_an V_n e_a, with V's columns weighted in place
        v *= (probs[:, None, None] * log_ratio)[..., :m].reshape(n, 1, -1)
        v.reshape(n, d, d, m).sum(axis=0, out=grads.transpose(1, 2, 0))


def common_eigenbasis(stacks: Iterable[np.ndarray]) -> np.ndarray:
    """Simultaneous eigenbasis of (near-)commuting Hermitian matrices, read from
    (n, d, d) stacks in order.  Each cluster, first the identity's, is rotated by
    the first matrix whose projection splits it (eigenvalues closer than
    ``DEGENERACY_GAP`` stay together); the parts go on from the next matrix.
    Reading stops once every cluster is one vector."""
    basis: np.ndarray | None = None
    open_clusters: list[list[int]] = []
    for stack in stacks:
        if basis is None:
            basis = np.eye(stack.shape[1], dtype=complex)
            open_clusters = [list(range(stack.shape[1]))]
        pending = [(cluster, 0) for cluster in open_clusters]
        open_clusters = []
        while pending:
            cluster, start = pending.pop()
            sub = basis[:, cluster]
            proj = sub.conj().T @ stack[start:] @ sub
            proj = (proj + proj.conj().transpose(0, 2, 1)) / 2.0
            splits = np.any(np.diff(np.linalg.eigvalsh(proj), axis=1) >= DEGENERACY_GAP,
                            axis=1)
            if not splits.any():
                open_clusters.append(cluster)
                continue
            j = int(np.argmax(splits))
            w, v = np.linalg.eigh(proj[j])
            basis[:, cluster] = sub @ v
            cuts = [0, *(np.flatnonzero(np.diff(w) >= DEGENERACY_GAP) + 1), len(cluster)]
            pending += [(cluster[lo:hi], start + j + 1)
                        for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo > 1]
        if not open_clusters:
            break
    return basis


def accessible_information_bounds(rho: DensityMatrix, system: str,
                                  fragment: Sequence[str],
                                  opt: OptimizerConfig = DEFAULT_OPT,
                                  optimize_lower: bool = True) -> AccessibleInfoBounds:
    """Accessible-information bracket of the canonical pointer ensemble; see
    :meth:`PointerEnsemble.accessible_information`."""
    return pointer_ensemble(rho, system, fragment).accessible_information(
        opt, optimize_lower)
