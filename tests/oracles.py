"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written against plain matrices with explicit
Kronecker projectors, separate from the library's tensor-index code paths.
"""

from __future__ import annotations

from itertools import combinations

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


def classical_mi_and_gradient(probs, conds, basis) -> tuple[float, np.ndarray]:
    """Classical mutual information of measuring the kets ``basis[:, a]`` on the
    ensemble {p_n, rho_n}, and its gradient dI/d(conj U), whose column a is
    sum_n p_n log2(J_an / P_n Q_a) rho_n u_a over J_an = p_n <u_a|rho_n|u_a> > 1e-15,
    both by explicit loops over outcomes and conditionals."""
    d = basis.shape[1]
    joint = np.zeros((len(probs), d))
    for n, (p, c) in enumerate(zip(probs, conds)):
        for a in range(d):
            u = basis[:, a]
            joint[n, a] = p * max(float(np.real(u.conj() @ c @ u)), 0.0)
    p_n, q_a = joint.sum(axis=1), joint.sum(axis=0)
    value, grad = 0.0, np.zeros(basis.shape, dtype=complex)
    for n, (p, c) in enumerate(zip(probs, conds)):
        for a in range(d):
            if joint[n, a] > 1e-15:
                log_ratio = np.log2(joint[n, a] / (p_n[n] * q_a[a]))
                value += joint[n, a] * log_ratio
                grad[:, a] += p * log_ratio * (c @ basis[:, a])
    return value, grad


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


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of |eigenvalues| of the Hermitian part; every caller passes a
    difference of Hermitian operators."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2.0)).sum())


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Square-root fidelity ||sqrt(a) sqrt(b)||_1, as the trace norm of A^dagger B
    for factors a = A A^dagger and b = B B^dagger that keep the eigenvalues above
    d * eps * lambda_max (those below are rounding)."""

    def factor(m):
        w, v = np.linalg.eigh(m)
        keep = w > m.shape[0] * np.finfo(float).eps * w[-1]
        return v[:, keep] * np.sqrt(w[keep])

    return float(np.linalg.svd(factor(a).conj().T @ factor(b), compute_uv=False).sum())


def pointer_branches(rho: np.ndarray, d_sys: int, kets) -> list:
    """(p_i, (<i| x 1) rho (|i> x 1)) for each ket of a system-first joint state,
    each block taken through an explicit Kronecker isometry."""
    d_frag = rho.shape[0] // d_sys
    out = []
    for k in kets:
        iso = np.kron(k.conj()[None, :], np.eye(d_frag))
        block = iso @ rho @ iso.conj().T
        out.append((float(block.trace().real), block))
    return out


def pointer_probes(factor: np.ndarray, d_sys: int):
    """Every fragment probe (1 x <m|) rho (1 x |k>) = A_m A_k^dagger, k >= m, of a
    system-first joint state rho = V V^dagger, A_m the (S, m) rows of its factor V, none
    skipped: one stack per row m of the probes' Hermitian and anti-Hermitian parts, in
    the order the pointer-basis rule reads them."""
    a = factor.reshape(d_sys, -1, factor.shape[1]).transpose(1, 0, 2)  # [m, s, c]
    for m in range(len(a)):
        probes = np.einsum("sc,ktc->kst", a[m], a[m:].conj())
        dag = probes.conj().transpose(0, 2, 1)
        yield np.stack([probes + dag, 1j * (probes - dag)], axis=1).reshape(-1, d_sys, d_sys)


def block_split(rho: np.ndarray, d_sys: int, kets) -> dict:
    """Pointer-block split of a system-first joint state at the pointer ``kets``.

    Each block <i|rho|j> is (<i| x 1) rho (|j> x 1) with an explicit Kronecker
    isometry, and the dephased state is sum_i P_i rho P_i with P_i = |i><i| x 1.
    Returns the largest off-diagonal block norm, the trace norm of rho minus its
    dephased self, the largest whole-fragment overlap tr(rho_i rho_j) of the
    normalized conditionals, and the fidelity sum 2 sqrt(p_i p_j) F(rho_i, rho_j)
    over pairs of branches with p > 1e-12.
    """
    d_frag = rho.shape[0] // d_sys
    isos = [np.kron(k.conj()[None, :], np.eye(d_frag)) for k in kets]
    projs = [np.kron(np.outer(k, k.conj()), np.eye(d_frag)) for k in kets]
    n = len(kets)
    offdiag = max(np.linalg.norm(isos[i] @ rho @ isos[j].conj().T)
                  for i in range(n) for j in range(i + 1, n))
    dephased = sum(p @ rho @ p for p in projs)
    branches = []
    for iso in isos:
        block = iso @ rho @ iso.conj().T
        p = float(block.trace().real)
        if p > 1e-12:
            branches.append((p, block / p))
    overlap, fid_sum = 0.0, 0.0
    for a in range(len(branches)):
        for b in range(a + 1, len(branches)):
            (pa, ca), (pb, cb) = branches[a], branches[b]
            overlap = max(overlap, abs(float(np.trace(ca @ cb).real)))
            fid_sum += 2.0 * np.sqrt(pa * pb) * fidelity(ca, cb)
    return {"offdiag": float(offdiag),
            "trace_norm": float(np.abs(np.linalg.eigvalsh(rho - dephased)).sum()),
            "overlap": overlap, "fidelity_sum": float(fid_sum)}


def subenvironment_overlap(rho: np.ndarray, dims, kets) -> float:
    """Largest tr(rho_i rho_j) over the subenvironments of a system-first state on
    factors ``dims`` and over pairs of its normalized conditionals with p > 1e-12,
    each reduced to one subenvironment by :func:`partial_trace`."""
    conds = [b / p for p, b in pointer_branches(rho, dims[0], kets) if p > 1e-12]
    best = 0.0
    for k in range(len(dims) - 1):
        reduced = [partial_trace(c, dims[1:], [k]) for c in conds]
        best = max([best] + [abs(float(np.trace(a @ b).real))
                             for a, b in combinations(reduced, 2)])
    return best


def accessible_bracket(rho: np.ndarray, d_sys: int, kets) -> tuple[float, float]:
    """(lower, upper) of the accessible-information bracket without the optimizer.
    The upper bound is chi.  Conditionals that commute (Frobenius norm of each
    commutator below 1e-9) share an eigenbasis, which attains chi; otherwise the
    lower bound is the classical mutual information of measuring in the
    eigenbasis of rho_F."""
    branches = [(p, b / p) for p, b in pointer_branches(rho, d_sys, kets) if p > 1e-12]
    chi = holevo_in_basis(rho, d_sys, kets)
    conds = [c for _, c in branches]
    if all(np.linalg.norm(a @ b - b @ a) < 1e-9 for a, b in combinations(conds, 2)):
        return chi, chi
    _, vecs = np.linalg.eigh(sum(p * c for p, c in branches))
    return classical_mi_and_gradient([p for p, _ in branches], conds, vecs)[0], chi


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # Re tr(a^dagger b), pairwise
    return np.einsum("rij,rij->r", a.conj(), b).real


def _direction(grads: np.ndarray, bases: np.ndarray) -> np.ndarray:  # G U^dagger - U G^dagger
    x = grads @ bases.conj().transpose(0, 2, 1)
    return x - x.conj().transpose(0, 2, 1)


def ascend(objective, bases: np.ndarray, values: np.ndarray, grads: np.ndarray,
           max_iter: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The batched Riemannian ascent as ``qdarwin.optimize._ascend`` first had it, with
    the Cayley step (1 - tA/2)^-1 (1 + tA/2) U as a product and a solve, and the
    Barzilai-Borwein inner products of s = tA and y = A_new - A as they read."""
    from qdarwin.core import GRAD_FLOOR
    from qdarwin.optimize import ARMIJO, MEMORY

    a = _direction(grads, bases)
    slope, step, eye = _inner(a, a), np.ones(len(bases)), np.eye(bases.shape[1])
    recent = np.tile(values, (MEMORY, 1))
    for iterations in range(max_iter + 1):
        # a gain below the rounding of F cannot pass the Armijo test
        live = (slope > GRAD_FLOOR ** 2) & (step * slope > np.spacing(np.abs(values) + 1.0))
        if iterations == max_iter or not live.any():
            capped = int(live.sum()) if iterations == max_iter else 0
            break
        idx = np.flatnonzero(live)
        part = slice(None) if len(idx) == len(live) else idx
        half = 0.5 * step[part, None, None] * a[part]
        trial = np.linalg.solve(eye - half, (eye + half) @ bases[part])
        trial_values, trial_grads = objective(trial)
        ok = trial_values >= recent[:, part].min(axis=0) + ARMIJO * step[part] * slope[part]
        step[idx[~ok]] *= 0.5
        took, moved = (slice(None), part) if ok.all() else (ok, idx[ok])
        a_new = _direction(trial_grads[took], trial[took])
        s, y = step[moved, None, None] * a[moved], a_new - a[moved]
        curve = -_inner(s, y)
        # Barzilai-Borwein steps, <s, s> / <s, -y> and <s, -y> / <y, y> in turn;
        # doubled where F did not curve down
        num, den = (_inner(s, s), curve) if iterations % 2 == 0 else (curve, _inner(y, y))
        step[moved] = np.where(curve > 0, num / np.where(curve > 0, den, 1.0), 2 * step[moved])
        bases[moved], values[moved], a[moved] = trial[took], trial_values[took], a_new
        slope[moved] = _inner(a_new, a_new)
        recent[iterations % MEMORY] = values
    return values, bases, iterations, capped
