"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written against plain matrices with explicit
Kronecker projectors, separate from the library's tensor-index code paths.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize


def shannon(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def entropy(rho: np.ndarray) -> float:
    return shannon(np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0))


def bloch_ket(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0),
                     np.sin(theta / 2.0) * np.exp(1j * phi)])


def qubit_pair(theta: float, phi: float) -> list[np.ndarray]:
    k0 = bloch_ket(theta, phi)
    k1 = np.array([np.sin(theta / 2.0),
                   -np.cos(theta / 2.0) * np.exp(1j * phi)])
    return [k0, k1]


def holevo_in_basis(rho: np.ndarray, d_sys: int, kets) -> float:
    """chi of the ensemble produced by measuring the first factor in ``kets``."""
    d_frag = rho.shape[0] // d_sys
    rho_f = np.zeros((d_frag, d_frag), dtype=complex)
    branches = []
    for ket in kets:
        proj = np.kron(np.outer(ket, ket.conj()), np.eye(d_frag))
        block = proj @ rho @ proj
        # fragment part of the block
        sub = np.zeros((d_frag, d_frag), dtype=complex)
        for i in range(d_sys):
            sub += block[i * d_frag:(i + 1) * d_frag, i * d_frag:(i + 1) * d_frag]
        branches.append(sub)
        rho_f += sub
    val = entropy(rho_f)
    for sub in branches:
        p = float(sub.trace().real)
        if p > 1e-12:
            val -= p * entropy(sub / p)
    return val


def holevo_grid_max(rho: np.ndarray, d_sys: int = 2, n_theta: int = 49,
                    n_phi: int = 49, refine: bool = True) -> float:
    """Global maximum of chi over rank-1 projective qubit measurements."""
    assert d_sys == 2
    best, arg = -1.0, (0.0, 0.0)
    for t in np.linspace(0.0, np.pi, n_theta):
        for p in np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False):
            v = holevo_in_basis(rho, 2, qubit_pair(t, p))
            if v > best:
                best, arg = v, (t, p)
    if refine:
        res = minimize(lambda x: -holevo_in_basis(rho, 2, qubit_pair(x[0], x[1])),
                       arg, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600})
        best = max(best, -float(res.fun))
    return best


def classical_mi_grid_max(probs, conds, n_theta: int = 49, n_phi: int = 49) -> float:
    """Best classical mutual information over projective qubit fragment measurements."""

    def value(kets) -> float:
        joint = np.array([[p * float(np.real(k.conj() @ c @ k)) for k in kets]
                          for p, c in zip(probs, conds)])
        joint = np.clip(joint, 0.0, None)
        pa = joint.sum(axis=1, keepdims=True)
        pb = joint.sum(axis=0, keepdims=True)
        mask = joint > 1e-15
        return float((joint[mask] * np.log2(joint[mask] / (pa * pb)[mask])).sum())

    best, arg = -1.0, (0.0, 0.0)
    for t in np.linspace(0.0, np.pi, n_theta):
        for p in np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False):
            v = value(qubit_pair(t, p))
            if v > best:
                best, arg = v, (t, p)
    res = minimize(lambda x: -value(qubit_pair(x[0], x[1])), arg,
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600})
    return max(best, -float(res.fun))


def horodecki_matrix(p: float) -> np.ndarray:
    a, b = np.sqrt(p), np.sqrt(1.0 - p)
    psi1 = np.array([a, 0.0, 0.0, b], dtype=complex)
    psi2 = np.array([0.0, b, a, 0.0], dtype=complex)
    return p * np.outer(psi1, psi1.conj()) + (1.0 - p) * np.outer(psi2, psi2.conj())


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Reduction of ``rho`` to the factor positions ``keep``, in that order: one
    einsum that sums each traced row index against its column index."""
    n = len(dims)
    cols = [i if i not in keep else n + i for i in range(n)]
    d = int(np.prod([dims[i] for i in keep]))
    t = np.einsum(rho.reshape(tuple(dims) * 2), list(range(n)) + cols,
                  [*keep, *(n + i for i in keep)])
    return t.reshape(d, d)
