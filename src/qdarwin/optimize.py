"""Riemannian steepest ascent over measurement bases (columns = kets) on U(d).

All R restarts advance together as one (R, d, d) stack, with one objective
call (values and gradients G = dF/d(conj U)) per iteration.  A step follows
A = G U^dagger - U G^dagger, whose squared norm is the slope of F along
exp(tA) U, through the Cayley retraction (1 - tA/2)^-1 (1 + tA/2) U (Abrudan,
Eriksson & Koivunen, IEEE TSP 56, 1134 (2008)).  Each restart alternates the
two Barzilai-Borwein steps, halving one until F beats the lowest of the
restart's last ``MEMORY`` values by the Armijo margin (a nonmonotone rule),
and stops at |A| < ``GRAD_FLOOR``, at a step too small to change F, or after
``max_refine_iter`` iterations.  Qubits start from the best points of a
Bloch-angle grid, larger dimensions from the identity and seeded Haar unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EPS_OPT, GRAD_FLOOR
from .errors import OptimizerDidNotConverge

ARMIJO = 1e-4   # share of the first-order gain a step must realize
MEMORY = 10     # a step must beat the lowest of a restart's last MEMORY values


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
    iterations: int = 0
    capped: int = 0   # restarts still moving when the iteration cap stopped them


def qubit_basis(theta, phi) -> np.ndarray:
    """Orthonormal qubit basis (columns) from Bloch angles; arrays give a stack."""
    c, s = np.cos(np.divide(theta, 2.0)), np.sin(np.divide(theta, 2.0))
    e = np.exp(1j * np.asarray(phi))
    return np.stack([np.stack([c + 0j, s + 0j], -1), np.stack([s * e, -c * e], -1)], -2)


def _finish(candidates: list[tuple[float, np.ndarray]], config: OptimizerConfig,
            iterations: int = 0, capped: int = 0) -> OptimizationResult:
    values = np.array([v for v, _ in candidates])
    order = np.argsort(-values, kind="stable")
    best = int(order[0])
    gap = 0.0 if len(candidates) < 2 else float(values[order[0]] - values[order[1]])
    if config.strict_convergence and gap > config.eps_opt:
        raise OptimizerDidNotConverge(gap, config.eps_opt)
    return OptimizationResult(float(values[best]), candidates[best][1],
                              len(candidates), gap, iterations, capped)


def _starts(objective, dim: int, config: OptimizerConfig) -> np.ndarray:
    if dim == 2:
        thetas = np.linspace(0.0, np.pi, config.theta_points)
        phis = np.linspace(0.0, 2.0 * np.pi, config.phi_points, endpoint=False)
        grid = qubit_basis(*(a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij")))
        best = np.argsort(-objective(grid)[0], kind="stable")
        return grid[best[:max(1, config.refine_starts)]]
    rng = np.random.default_rng(config.seed)
    shape = (max(0, config.restarts - 1), dim, dim)
    q, r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    phases = np.diagonal(r, axis1=1, axis2=2)
    return np.concatenate([np.eye(dim)[None], q * (phases / np.abs(phases))[:, None, :]])


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # Re tr(a^dagger b), pairwise
    return np.einsum("rij,rij->r", a.conj(), b).real


def _direction(grads: np.ndarray, bases: np.ndarray) -> np.ndarray:  # G U^dagger - U G^dagger
    x = grads @ bases.conj().transpose(0, 2, 1)
    return x - x.conj().transpose(0, 2, 1)


def _ascend(objective, bases: np.ndarray, max_iter: int
            ) -> tuple[np.ndarray, np.ndarray, int, int]:
    values, grads = objective(bases)
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
        half = 0.5 * step[idx, None, None] * a[idx]
        trial = np.linalg.solve(eye - half, (eye + half) @ bases[idx])
        trial_values, trial_grads = objective(trial)
        ok = trial_values >= recent[:, idx].min(axis=0) + ARMIJO * step[idx] * slope[idx]
        step[idx[~ok]] *= 0.5
        moved = idx[ok]
        a_new = _direction(trial_grads[ok], trial[ok])
        s, y = step[moved, None, None] * a[moved], a_new - a[moved]
        curve = -_inner(s, y)
        # Barzilai-Borwein steps, <s, s> / <s, -y> and <s, -y> / <y, y> in turn;
        # doubled where F did not curve down
        num, den = (_inner(s, s), curve) if iterations % 2 == 0 else (curve, _inner(y, y))
        step[moved] = np.where(curve > 0, num / np.where(curve > 0, den, 1.0), 2 * step[moved])
        bases[moved], values[moved], a[moved] = trial[ok], trial_values[ok], a_new
        slope[moved] = _inner(a_new, a_new)
        recent[iterations % MEMORY] = values
    return values, bases, iterations, capped


def maximize_over_bases(objective: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                        dim: int, config: OptimizerConfig = DEFAULT_OPT) -> OptimizationResult:
    """Maximize a function of orthonormal bases (columns = kets).

    ``objective`` maps a (R, d, d) stack of bases to their values, shape (R,),
    and gradients dF/d(conj U), shape (R, d, d).  Deterministic for a fixed
    config; raises :class:`OptimizerDidNotConverge` when the two best restarts
    differ by more than ``config.eps_opt`` and strict convergence is enabled.
    """
    values, bases, iterations, capped = _ascend(objective, _starts(objective, dim, config),
                                                config.max_refine_iter)
    return _finish(list(zip(values.tolist(), bases)), config, iterations, capped)
