"""Derivative-free search over rank-1 projective measurement bases.

Qubit subsystems use a Bloch-angle grid followed by Nelder-Mead refinement
from the best grid points; larger subsystems parameterize the basis unitary
by d^2 real generator entries and refine from seeded random starts.
Results are deterministic for a fixed config: restarts are reduced in index
order, so the outcome does not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .core import EPS_OPT
from .errors import OptimizerDidNotConverge


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the measurement-basis search; all exposed as CLI flags."""

    theta_points: int = 64
    phi_points: int = 32
    refine_starts: int = 5
    restarts: int = 20
    max_refine_iter: int = 300
    seed: int = 0
    eps_opt: float = EPS_OPT
    strict_convergence: bool = True


DEFAULT_OPT = OptimizerConfig()


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    basis: np.ndarray
    restarts: int
    gap: float


def qubit_basis(theta: float, phi: float) -> np.ndarray:
    """Orthonormal qubit basis (columns) from Bloch angles."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    return np.array([[c, s], [s * e, -c * e]], dtype=complex)


def unitary_from_params(x: np.ndarray, dim: int) -> np.ndarray:
    """Unitary from d^2 real parameters via the exponential of i * Hermitian(x),
    computed spectrally (eigh is much cheaper than a Pade exponential here)."""
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = x[:dim]
    iu = np.triu_indices(dim, 1)
    m = dim * (dim - 1) // 2
    h[iu] = x[dim:dim + m] + 1j * x[dim + m:dim + 2 * m]
    h = h + np.triu(h, 1).conj().T
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _finish(candidates: list[tuple[float, np.ndarray]], config: OptimizerConfig
            ) -> OptimizationResult:
    values = np.array([v for v, _ in candidates])
    order = np.argsort(-values, kind="stable")
    best = int(order[0])
    gap = 0.0 if len(candidates) < 2 else float(values[order[0]] - values[order[1]])
    if config.strict_convergence and gap > config.eps_opt:
        raise OptimizerDidNotConverge(gap, config.eps_opt)
    return OptimizationResult(float(values[best]), candidates[best][1],
                              len(candidates), gap)


def _refine_qubit(objective, start: tuple[float, float], config) -> tuple[float, np.ndarray]:
    res = minimize(lambda x: -objective(qubit_basis(x[0], x[1])), np.asarray(start),
                   method="Nelder-Mead",
                   options={"maxiter": config.max_refine_iter,
                            "xatol": 1e-9, "fatol": 1e-12})
    return -float(res.fun), qubit_basis(res.x[0], res.x[1])


def _maximize_qubit(objective, config: OptimizerConfig,
                    batch_objective=None) -> OptimizationResult:
    thetas = np.linspace(0.0, np.pi, config.theta_points)
    phis = np.linspace(0.0, 2.0 * np.pi, config.phi_points, endpoint=False)
    angles = [(float(t), float(p)) for t in thetas for p in phis]
    if batch_objective is not None:
        bases = np.stack([qubit_basis(t, p) for t, p in angles])
        values = np.asarray(batch_objective(bases), dtype=float)
        grid = list(zip(values.tolist(), angles))
    else:
        grid = [(float(objective(qubit_basis(t, p))), (t, p)) for t, p in angles]
    grid.sort(key=lambda item: -item[0])
    starts = [ang for _, ang in grid[:max(1, config.refine_starts)]]
    candidates = [_refine_qubit(objective, s, config) for s in starts]
    return _finish(candidates, config)


def _maximize_general(objective, dim: int, config: OptimizerConfig) -> OptimizationResult:
    rng = np.random.default_rng(config.seed)
    n_params = dim * dim
    starts = [np.zeros(n_params)]
    starts += [rng.normal(scale=1.0, size=n_params)
               for _ in range(max(0, config.restarts - 1))]
    neg = lambda x: -objective(unitary_from_params(x, dim))
    explored = []
    for x0 in starts:
        res = minimize(neg, x0, method="Nelder-Mead",
                       options={"maxiter": 25 * n_params,
                                "xatol": 1e-6, "fatol": 1e-9})
        explored.append((-float(res.fun), res.x))
    explored.sort(key=lambda item: -item[0])
    polish = {"maxiter": config.max_refine_iter * n_params,
              "xatol": 1e-10, "fatol": 1e-13}
    candidates = []
    for _, x0 in explored[:max(2, config.refine_starts)]:
        res = minimize(neg, x0, method="Nelder-Mead", options=polish)
        # restarting from the result re-inflates the simplex and polishes
        res = minimize(neg, res.x, method="Nelder-Mead", options=polish)
        candidates.append((-float(res.fun), unitary_from_params(res.x, dim)))
    return _finish(candidates, config)


def maximize_over_bases(objective: Callable[[np.ndarray], float], dim: int,
                        config: OptimizerConfig = DEFAULT_OPT,
                        batch_objective: Callable[[np.ndarray], np.ndarray] | None = None,
                        ) -> OptimizationResult:
    """Maximize ``objective(basis)`` over orthonormal bases (columns = kets).

    ``batch_objective``, when given, evaluates a whole (G, d, d) stack of
    bases at once; the qubit grid stage uses it to avoid a Python-level loop.
    Raises :class:`OptimizerDidNotConverge` when the two best restarts differ
    by more than ``config.eps_opt`` and strict convergence is enabled.
    """
    if dim == 2:
        return _maximize_qubit(objective, config, batch_objective)
    return _maximize_general(objective, dim, config)
