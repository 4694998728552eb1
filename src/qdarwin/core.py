"""States held as factors over labeled tensor-product Hilbert spaces.

A state is a factor V (d x r, rho = V V^dagger) plus a :class:`SubsystemLayout`
naming each tensor factor.  The first factor is the most significant Kronecker
index, so ``layout.labels`` fixes a bit-exact matrix ordering for files and
tests.  The d x d matrix is formed only when read.

Every reduction goes through one seam, the factor: the reduction to labels K
is the factor W = V with the kept indices moved to its rows and the traced
ones to its columns, and its spectrum is that of the smaller of W W^dagger and
W^dagger W (:func:`reduced_factor`, :func:`reduced_spectrum`,
:func:`partial_trace`).  The fragment diagnostics read products of branch
factors in the range of rho_F (:mod:`qdarwin.measures`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    InvalidLayout,
    NotHermitian,
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
TOL_PSD = 1e-9         # most negative eigenvalue of a valid state
TOL_PROB = 1e-12       # branch probability, or H(S) in bits, treated as zero
DEGENERACY_GAP = 1e-9  # eigenvalues closer than this form one degenerate cluster
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
        return math.prod(self.dims)

    @property
    def environment_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if l != self.system)

    @cached_property
    def _axes(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def index_of(self, label: str) -> int:
        try:
            return self._axes[label]
        except (KeyError, TypeError):
            raise UnknownLabel(f"label {label!r} not in layout {self.labels}") from None

    def require(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Validate a nonempty, duplicate-free label subset; returns it in layout order."""
        wanted = list(labels)
        if not wanted:
            raise UnknownLabel("empty label set")
        if len(set(wanted)) != len(wanted):
            raise DuplicateLabel(f"duplicate labels in {wanted}")
        return tuple(self.labels[i] for i in sorted(map(self.index_of, wanted)))

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


def _pairs(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] float pairs."""
    return np.stack([a.real, a.imag], -1).tolist()


def _from_pairs(data: object, key: str) -> np.ndarray:
    """The complex 2-D array of nested lists of [re, im] number pairs; JSON true
    and false, which numpy reads as 1 and 0 next to a float, are not numbers."""
    try:
        parts = np.array(data)
    except ValueError:  # ragged nesting
        parts = None
    if (parts is None or parts.dtype.kind not in "iuf" or parts.ndim != 3
            or parts.shape[2] != 2
            or bool in set(map(type, chain.from_iterable(chain.from_iterable(data))))):
        raise DimensionMismatch(f"{key!r} must be a 2-D array of [re, im] number pairs")
    return parts[..., 0] + 1j * parts[..., 1]


def _check_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise DimensionMismatch("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator rho = V V^dagger held as its d x r factor V, plus the
    layout naming its tensor factors.  ``matrix`` is formed on first read;
    :func:`validate_density_matrix` keeps its validated input as that matrix,
    and its factor U sqrt(w) keeps the eigenpairs above ``d * RANK_EPS * lambda_max``.
    """

    factor: np.ndarray
    layout: SubsystemLayout

    @cached_property
    def matrix(self) -> np.ndarray:
        return _freeze(self.factor @ self.factor.conj().T)

    @cached_property
    def _spectra(self) -> dict[tuple[str, ...], np.ndarray]:
        return {}

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def to_dict(self) -> dict:
        """The JSON state format: the factor when it has fewer columns than
        rows, otherwise the matrix."""
        d, r = self.factor.shape
        key, a = ("factor", self.factor) if r < d else ("matrix", self.matrix)
        return {"layout": self.layout.to_dict(), key: _pairs(a)}


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
    w, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    if w[0] < -TOL_PSD:
        raise NotPositive(float(w[0]))
    keep = w > m.shape[0] * RANK_EPS * w[-1]
    rho = DensityMatrix(_freeze(u[:, keep] * np.sqrt(w[keep])), layout)
    rho.__dict__["matrix"] = _freeze(m)  # fills the cached property
    return rho


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
    return DensityMatrix(_freeze(v), layout)


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending-eigenvalue Hermitian eigendecomposition, each vector's largest-magnitude
    component made real and positive.  Inside a degenerate cluster the vectors are LAPACK's;
    the pointer basis and the unoptimized accessible-information bound refine it."""
    m = _check_matrix(matrix)
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    if herm_err > TOL_HERM:
        raise NotHermitian(f"Hermiticity violation {herm_err:.3e} exceeds {TOL_HERM:.1e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w[::-1].copy(), canonical_phases(v[:, ::-1].copy())


def canonical_phases(vecs: np.ndarray) -> np.ndarray:
    """Scale each column, in place, so its largest-magnitude component is real
    and positive; returns ``vecs``."""
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        pivot = int(np.argmax(np.abs(col)))
        vecs[:, k] = col / (col[pivot] / abs(col[pivot]))
    return vecs


def reduced_factor(rho: DensityMatrix, keep: Sequence[str]) -> np.ndarray:
    """Factor W of the reduction to ``keep``, labels the caller has checked with
    :meth:`SubsystemLayout.require`, rho_K = W W^dagger, with rows in the order of
    ``keep``: the factor's kept indices become rows, its traced indices and its own
    columns become columns (a transpose and a reshape)."""
    rows = [rho.layout.index_of(l) for l in keep]
    return _factor_rows(rho.factor.reshape(*rho.layout.dims, -1), rows)


def _factor_rows(t: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """:func:`reduced_factor` on validated axes: a state's factor as a tensor ``t`` of
    shape (*dims, r), with the axes ``rows`` moved, in that order, to its rows."""
    cols = [i for i in range(t.ndim) if i not in rows]
    return t.transpose(*rows, *cols).reshape(math.prod(t.shape[i] for i in rows), -1)


def reduced_spectrum(rho: DensityMatrix, keep: Iterable[str]) -> np.ndarray:
    """Eigenvalues of the reduction to ``keep``, memoized per label subset on the state:
    those of the smaller of W W^dagger and W^dagger W for its factor W."""
    kept = rho.layout.require(keep)
    if kept not in rho._spectra:
        w = reduced_factor(rho, kept)
        rho._spectra[kept] = np.linalg.eigvalsh(w @ w.conj().T if w.shape[0] <= w.shape[1]
                                                else w.conj().T @ w)
    return rho._spectra[kept]


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not named in ``keep``; kept factors stay in layout
    order.  The reduced state's factor is the :func:`reduced_factor`."""
    layout = rho.layout.subset(keep)
    if layout.labels == rho.layout.labels:
        return rho
    return DensityMatrix(_freeze(reduced_factor(rho, layout.labels)), layout)


def tensor(states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Kronecker product of states on disjoint label sets, as the Kronecker
    product of their factors."""
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
    out = states[0].factor
    for s in states[1:]:
        out = np.kron(out, s.factor)
    return DensityMatrix(_freeze(out), SubsystemLayout(tuple(labels), tuple(dims), system))


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Orthonormal rank-1 measurement basis on one named subsystem.

    ``basis`` holds the basis kets as columns.
    """

    subsystem: str
    basis: np.ndarray

    @classmethod
    def computational(cls, subsystem: str, dim: int) -> "ProjectiveMeasurement":
        return cls(subsystem, _freeze(np.eye(dim, dtype=complex)))

    def to_dict(self) -> dict:
        return {
            "subsystem": self.subsystem,
            "basis": _pairs(self.basis),
        }


def save_state(rho: DensityMatrix, path_or_file: str | IO[str]) -> None:
    """Write the JSON state format: a ``"layout"`` list and either ``"factor"``
    (the d x r factor V, written when r < d) or ``"matrix"`` (the d x d matrix,
    written otherwise), each as nested [re, im] pairs of repr-exact floats."""
    payload = rho.to_dict()
    if hasattr(path_or_file, "write"):
        path_or_file.write(json.dumps(payload))
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))


def load_state(path_or_file: str | IO[str]) -> DensityMatrix:
    """Read a state from the JSON state format.  The file holds exactly one of
    ``"factor"``, checked by :func:`validate_factor`, and ``"matrix"``, checked
    by :func:`validate_density_matrix` and kept bit-exact as the state's matrix."""
    if hasattr(path_or_file, "read"):
        payload = json.load(path_or_file)
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("layout"), list):
        raise InvalidLayout("a state file holds an object with a 'layout' list")
    layout = SubsystemLayout.from_dict(payload["layout"])
    keys = [k for k in ("factor", "matrix") if k in payload]
    if len(keys) != 1:
        raise DimensionMismatch("a state file holds exactly one of 'factor' and 'matrix'")
    key = keys[0]
    # popped, so the parsed lists (several times the array's memory) are freed
    # before validation allocates
    a = _from_pairs(payload.pop(key), key)
    if key == "factor":
        return validate_factor(a, layout)
    return validate_density_matrix(a, layout)
