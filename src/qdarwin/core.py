"""Dense complex linear algebra over labeled tensor-product Hilbert spaces.

States carry a :class:`SubsystemLayout` naming each tensor factor.  The first
factor is the most significant Kronecker index, so ``layout.labels`` fixes a
bit-exact matrix ordering for files and tests.

Every reduction goes through one seam, a factor V of the state (rho = V
V^dagger, d x r): the reduction to labels K is the factor W = V with the kept
indices moved to its rows and the traced ones to its columns, and its
spectrum is that of the smaller of W W^dagger and W^dagger W
(:func:`reduced_factor`, :func:`reduced_spectrum`, :func:`partial_trace`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    InvalidLayout,
    NotHermitian,
    NotOrthonormal,
    NotPositive,
    TraceNotOne,
    UnknownLabel,
)

SYSTEM = "system"
ENVIRONMENT = "environment"


# Every threshold that decides a result, each written once; all are sized for
# double precision at dim <= 64.
TOL_HERM = 1e-9        # max |m - m^dagger| entry of a valid state or eigen-input
TOL_TRACE = 1e-9       # |tr rho - 1|, |norm - 1| and the sum-to-one of distributions
TOL_ORTH = 1e-9        # max entry of V^dagger V - 1 and V V^dagger - 1 of a basis
TOL_PSD = 1e-9         # most negative eigenvalue of a valid state
TOL_PROB = 1e-12       # branch probability, or H(S) in bits, treated as zero
DEGENERACY_GAP = 1e-9  # eigenvalues closer than this form one degenerate cluster
RANK_FLOOR = 1e-7      # Gram-Schmidt residual below which a projector column is dependent
HERM_EXACT = 1e-12     # trace norm takes the Hermitian eigenvalue path within this
TAU_COMM = 1e-9        # Frobenius norm of [rho_i, rho_j] below which conditionals commute
EPS_NUM = 1e-9         # negative chi or CMI from rounding clamps to 0; appendix-c --tol-num
EPS_OPT = 1e-6         # optimizer restart gap and strong-Darwinism equality, bits (--tol-opt)
GRAD_FLOOR = 1e-7      # norm of the Riemannian gradient at which an optimizer restart stops
TOL_OFFDIAG = 1e-8     # broadcast structure: norm of an off-diagonal pointer block
TOL_OVERLAP = 1e-8     # broadcast structure: overlap tr(rho_i rho_j) of two conditionals
TOL_CMI = 1e-8         # strong independence: I(E_j:E_k|S), bits
BORDERLINE_FACTOR = 10.0  # a diagnostic within this factor of its tolerance is borderline
RANK_EPS = float(np.finfo(float).eps)  # a factor keeps eigenvalues above d * RANK_EPS * lambda_max


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered tensor factors, each a (label, dim) pair, with one optional system."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    system: str | None

    def __post_init__(self):
        if len(self.labels) != len(self.dims) or not self.labels:
            raise InvalidLayout("layout needs one dim per label and at least one factor")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"duplicate labels in {self.labels}")
        if self.system is not None and self.system not in self.labels:
            raise InvalidLayout(f"system label {self.system!r} not among factors")
        for lab, d in zip(self.labels, self.dims):
            if d < 1 or (lab == self.system and d < 2):
                raise InvalidLayout(f"factor {lab!r} has invalid dimension {d}")

    @classmethod
    def of(cls, *factors: tuple[str, int],
           system: str | None = "auto") -> "SubsystemLayout":
        """Build a layout; ``system="auto"`` marks the first factor, None marks none."""
        labels = tuple(lab for lab, _ in factors)
        dims = tuple(int(d) for _, d in factors)
        if system == "auto":
            system = labels[0] if labels else None
        return cls(labels, dims, system)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def environment_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if l != self.system)

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in layout {self.labels}") from None

    def require(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Validate a nonempty, duplicate-free label subset; returns it in layout order."""
        wanted = list(labels)
        if not wanted:
            raise UnknownLabel("empty label set")
        chosen = set(wanted)
        if len(chosen) != len(wanted):
            raise DuplicateLabel(f"duplicate labels in {wanted}")
        for lab in wanted:
            self.index_of(lab)
        return tuple(l for l in self.labels if l in chosen)

    def subset(self, keep: Iterable[str], system: str | None = "auto") -> "SubsystemLayout":
        kept = self.require(keep)
        if system == "auto":
            system = self.system if self.system in kept else None
        dims = tuple(self.dim_of(l) for l in kept)
        return SubsystemLayout(kept, dims, system)

    def to_dict(self) -> list[dict]:
        return [{"label": l, "dim": d, "role": SYSTEM if l == self.system else ENVIRONMENT}
                for l, d in zip(self.labels, self.dims)]

    @classmethod
    def from_dict(cls, entries: Sequence[dict]) -> "SubsystemLayout":
        labels, dims, system = [], [], None
        for e in entries:
            try:
                label, dim = str(e["label"]), e["dim"]
            except (KeyError, TypeError):
                dim = None
            if type(dim) is not int:  # JSON integers only: no float, string or bool
                raise InvalidLayout(f"layout entry {e!r} needs a label and an integer dim")
            labels.append(label)
            dims.append(dim)
            if e.get("role", ENVIRONMENT) == SYSTEM:
                if system is not None:
                    raise InvalidLayout("more than one factor marked as system")
                system = str(e["label"])
        return cls(tuple(labels), tuple(dims), system)


def _check_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise DimensionMismatch("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator plus the layout naming its tensor factors.

    ``factor`` is a d x r matrix V with rho = V V^dagger, r the number of
    eigenvalues above ``d * RANK_EPS * lambda_max``.  Validation and the
    constructors that know V set it; any other state computes it once, on
    first use.
    """

    matrix: np.ndarray
    layout: SubsystemLayout

    @cached_property
    def factor(self) -> np.ndarray:
        return _psd_factor(self.matrix)[1]

    @cached_property
    def _spectra(self) -> dict[tuple[str, ...], np.ndarray]:
        return {}

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def tensor_view(self) -> np.ndarray:
        d = self.layout.dims
        return self.matrix.reshape(d + d)

    def to_dict(self) -> dict:
        return {
            "layout": self.layout.to_dict(),
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector with a subsystem layout."""

    amplitudes: np.ndarray
    layout: SubsystemLayout

    def to_density(self) -> DensityMatrix:
        return validate_factor(self.amplitudes[:, None], self.layout)


def validate_pure_state(amplitudes: np.ndarray, layout: SubsystemLayout) -> PureState:
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size != layout.total_dim:
        raise DimensionMismatch(
            f"vector length {v.size} does not match layout dimension {layout.total_dim}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > TOL_TRACE:
        raise TraceNotOne(f"state norm is {norm}, not 1")
    return PureState(_freeze(v), layout)


def _psd_factor(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue of the Hermitian part of ``m``, and the factor V = U sqrt(w)
    of its eigenpairs above ``d * RANK_EPS * lambda_max``."""
    w, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    keep = w > m.shape[0] * RANK_EPS * w[-1]
    return float(w[0]), _freeze(u[:, keep] * np.sqrt(w[keep]))


def _state(matrix: np.ndarray, layout: SubsystemLayout,
           factor: np.ndarray | None) -> DensityMatrix:
    rho = DensityMatrix(_freeze(matrix), layout)
    if factor is not None:
        rho.__dict__["factor"] = _freeze(factor)  # fills the cached property
    return rho


def validate_density_matrix(matrix: np.ndarray, layout: SubsystemLayout) -> DensityMatrix:
    """Check Hermiticity, positivity, and unit trace; eigenvalues are never mutated
    here.  The positivity check's eigendecomposition gives the state's factor."""
    m = _check_matrix(matrix)
    if m.shape[0] != layout.total_dim:
        raise DimensionMismatch(
            f"matrix dimension {m.shape[0]} does not match layout dimension {layout.total_dim}")
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if herm_err > TOL_HERM:
        raise NotHermitian(f"Hermiticity violation {herm_err:.3e} exceeds {TOL_HERM:.1e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TOL_TRACE:
        raise TraceNotOne(f"trace is {tr:.12g}, not 1")
    lo, factor = _psd_factor(m)
    if lo < -TOL_PSD:
        raise NotPositive(lo)
    return _state(m, layout, factor)


def validate_factor(factor: np.ndarray, layout: SubsystemLayout) -> DensityMatrix:
    """The state V V^dagger of a d x r factor V, positive by construction; checks
    the shape, finiteness and tr rho = |V|_F^2 = 1."""
    v = np.asarray(factor, dtype=complex)
    if v.ndim != 2 or v.shape[0] != layout.total_dim:
        raise DimensionMismatch(
            f"factor shape {v.shape} does not match layout dimension {layout.total_dim}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("factor contains non-finite entries")
    tr = float(np.vdot(v, v).real)
    if abs(tr - 1.0) > TOL_TRACE:
        raise TraceNotOne(f"trace is {tr:.12g}, not 1")
    return _state(v @ v.conj().T, layout, v)


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending-eigenvalue Hermitian eigendecomposition with deterministic output.

    Within each degenerate cluster (gap below ``DEGENERACY_GAP``) the returned
    eigenvectors are rebuilt by Gram-Schmidt over the cluster projector's
    columns in index order, so the basis depends only on the spanned subspace.
    Every vector's largest-magnitude component is made real and positive.
    """
    m = _check_matrix(matrix)
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if herm_err > TOL_HERM:
        raise NotHermitian(f"Hermiticity violation {herm_err:.3e} exceeds {TOL_HERM:.1e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    n = len(w)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[start] - w[stop] < DEGENERACY_GAP:
            stop += 1
        if stop - start > 1:
            v[:, start:stop] = _canonical_subspace_basis(v[:, start:stop])
        start = stop
    return w, canonical_phases(v)


def canonical_phases(vecs: np.ndarray) -> np.ndarray:
    """Scale each column, in place, so its largest-magnitude component is real
    and positive; returns ``vecs``."""
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        pivot = int(np.argmax(np.abs(col)))
        vecs[:, k] = col / (col[pivot] / abs(col[pivot]))
    return vecs


def _canonical_subspace_basis(vecs: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(vecs) determined by the subspace alone."""
    proj = vecs @ vecs.conj().T
    n, k = vecs.shape
    cols: list[np.ndarray] = []
    for j in range(n):
        c = proj[:, j].copy()
        for prev in cols:
            c -= prev * (prev.conj() @ c)
        norm = float(np.linalg.norm(c))
        if norm > RANK_FLOOR:
            cols.append(c / norm)
        if len(cols) == k:
            break
    if len(cols) != k:
        # fall back to the input basis; happens only for ill-conditioned projectors
        return vecs
    return np.stack(cols, axis=1)


def reduced_factor(rho: DensityMatrix, keep: Sequence[str]) -> np.ndarray:
    """Factor W of the reduction to ``keep``, rho_K = W W^dagger, with rows in the
    order of ``keep``: the factor's kept indices become rows, its traced indices
    and its own columns become columns (a transpose and a reshape)."""
    rho.layout.require(keep)
    dims = rho.layout.dims
    rows = [rho.layout.index_of(l) for l in keep]
    cols = [i for i in range(len(dims)) if i not in rows]
    v = rho.factor
    return (v.reshape(*dims, v.shape[1]).transpose(*rows, *cols, len(dims))
            .reshape(math.prod(dims[i] for i in rows), -1))


def gram_spectrum(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of W W^dagger, from the smaller of W W^dagger and W^dagger W
    (the two share their nonzero eigenvalues)."""
    return np.linalg.eigvalsh(w @ w.conj().T if w.shape[0] <= w.shape[1] else w.conj().T @ w)


def reduced_spectrum(rho: DensityMatrix, keep: Iterable[str]) -> np.ndarray:
    """Eigenvalues of the reduction to ``keep``, memoized per label subset on the state."""
    kept = rho.layout.require(keep)
    spectra = rho._spectra
    if kept not in spectra:
        spectra[kept] = gram_spectrum(reduced_factor(rho, kept))
    return spectra[kept]


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not named in ``keep``; kept factors stay in layout order.

    The reduction is W W^dagger of its :func:`reduced_factor`, which becomes the
    reduced state's factor when it has no more columns than rows.
    """
    kept = rho.layout.require(keep)
    if kept == rho.layout.labels:
        return rho
    w = reduced_factor(rho, kept)
    return _state(w @ w.conj().T, rho.layout.subset(kept),
                  w if w.shape[1] <= w.shape[0] else None)


def tensor(states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Kronecker product of states on disjoint label sets."""
    if not states:
        raise DimensionMismatch("tensor of zero states")
    labels: list[str] = []
    dims: list[int] = []
    system: str | None = None
    for s in states:
        for lab in s.layout.labels:
            if lab in labels:
                raise DuplicateLabel(f"label {lab!r} appears in more than one factor")
            labels.append(lab)
        dims.extend(s.layout.dims)
        if s.layout.system is not None:
            if system is not None:
                raise InvalidLayout("more than one factor marked as system")
            system = s.layout.system
    out = states[0].matrix
    for s in states[1:]:
        out = np.kron(out, s.matrix)
    layout = SubsystemLayout(tuple(labels), tuple(dims), system)
    return DensityMatrix(_freeze(out), layout)


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Orthonormal rank-1 measurement basis on one named subsystem.

    ``basis`` holds the basis kets as columns.
    """

    subsystem: str
    basis: np.ndarray

    @classmethod
    def from_vectors(cls, subsystem: str, vectors: np.ndarray) -> "ProjectiveMeasurement":
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatch(f"basis must be square, got {v.shape}")
        gram = v.conj().T @ v
        if float(np.max(np.abs(gram - np.eye(v.shape[0])))) > TOL_ORTH:
            raise NotOrthonormal("basis vectors are not orthonormal")
        if float(np.max(np.abs(v @ v.conj().T - np.eye(v.shape[0])))) > TOL_ORTH:
            raise NotOrthonormal("projectors do not sum to the identity")
        return cls(subsystem, _freeze(v))

    @classmethod
    def computational(cls, subsystem: str, dim: int) -> "ProjectiveMeasurement":
        return cls(subsystem, _freeze(np.eye(dim, dtype=complex)))

    @property
    def outcomes(self) -> int:
        return self.basis.shape[1]

    def to_dict(self) -> dict:
        return {
            "subsystem": self.subsystem,
            "basis": [[[z.real, z.imag] for z in row] for row in self.basis],
        }


def factor_first(rho: DensityMatrix, label: str
                 ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """View rho as a (d, d_rest, d, d_rest) array with factor ``label`` first.

    Also returns the map that takes an array of that shape back to a matrix in
    the layout's own factor order.
    """
    n = len(rho.layout.labels)
    idx = rho.layout.index_of(label)
    order = [idx] + [i for i in range(n) if i != idx]
    perm = order + [i + n for i in order]
    moved = tuple(rho.layout.dims[i] for i in order)
    d = moved[0]
    inverse = np.argsort(perm)

    def restore(t: np.ndarray) -> np.ndarray:
        return t.reshape(moved + moved).transpose(inverse).reshape(rho.dim, rho.dim)

    t = rho.tensor_view().transpose(perm).reshape(d, rho.dim // d, d, rho.dim // d)
    return t, restore


def dephase_subsystem(rho: DensityMatrix, meas: ProjectiveMeasurement) -> DensityMatrix:
    """Apply the measurement and discard results: rho -> sum_a P_a rho P_a."""
    d_meas = rho.layout.dim_of(meas.subsystem)
    if meas.basis.shape[0] != d_meas:
        raise DimensionMismatch(
            f"measurement dimension {meas.basis.shape[0]} != factor dimension {d_meas}")
    t, restore = factor_first(rho, meas.subsystem)
    out = np.zeros_like(t)
    for a in range(meas.outcomes):
        ket = meas.basis[:, a]
        block = np.einsum("i,ijkl,k->jl", ket.conj(), t, ket)
        out += np.einsum("i,jl,k->ijkl", ket, block, ket.conj())
    return DensityMatrix(_freeze(restore(out)), rho.layout)


def save_state(rho: DensityMatrix, path_or_file: str | IO[str]) -> None:
    """Write the JSON state format (full-precision floats via repr round-trip)."""
    payload = rho.to_dict()
    if hasattr(path_or_file, "write"):
        json.dump(payload, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load_state(path_or_file: str | IO[str]) -> DensityMatrix:
    """Read and validate a state from the JSON state format."""
    if hasattr(path_or_file, "read"):
        payload = json.load(path_or_file)
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("layout"), list):
        raise InvalidLayout("a state file holds an object with a 'layout' list")
    layout = SubsystemLayout.from_dict(payload["layout"])
    try:
        parts = np.array(payload.get("matrix"))
    except ValueError:  # ragged nesting
        parts = None
    # the parsed lists take several times the matrix's memory; free them before
    # validation's eigendecomposition allocates
    del payload
    if (parts is None or parts.dtype.kind not in "iuf" or parts.ndim != 3
            or parts.shape[0] != parts.shape[1] or parts.shape[2] != 2):
        raise DimensionMismatch("'matrix' must be a d x d array of [re, im] number pairs")
    matrix = parts[..., 0] + 1j * parts[..., 1]
    del parts
    return validate_density_matrix(matrix, layout)
