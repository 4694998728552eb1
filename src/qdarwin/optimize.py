"""Riemannian steepest ascent over measurement bases (columns = kets) on U(d).

All R restarts advance together as one (R, d, d) stack.  A step follows the direction
A = G U^dagger - U G^dagger, G = dF/d(conj U), whose squared norm is the slope of F along
exp(tA) U, through the Cayley retraction (1 - tA/2)^-1 (1 + tA/2) U = 2 (1 - tA/2)^-1 U - U
(Abrudan, Eriksson & Koivunen, IEEE TSP 56, 1134 (2008)).  Each restart alternates the two
Barzilai-Borwein steps, halving one until F beats the lowest of the restart's last
``MEMORY`` values by the Armijo margin (a nonmonotone rule), and stops at |A| <
``GRAD_FLOOR``, at a step too small to change F, or after ``max_refine_iter`` iterations.
One objective call (values and gradients) scores the starts; an iteration costs one batched
solve, one objective call, one product G U^dagger and elementwise work on (R,) vectors, and
gathers the stack only once a restart has stopped or a step was refused.  Qubits start from
the best points of a Bloch-angle grid, built once per process and size, with the values and
gradients of its one call; larger dimensions from the identity and seeded Haar unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import EPS_OPT, GRAD_FLOOR, _freeze
from .errors import InvalidConfig, OptimizerDidNotConverge

ARMIJO = 1e-4   # share of the first-order gain a step must realize
MEMORY = 10     # a step must beat the lowest of a restart's last MEMORY values


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the measurement-basis search.  CLI flags set all but refine_starts and
    strict_convergence: --grid, --restarts, --max-refine-iter, --seed and --tol-opt."""

    theta_points: int = 64
    phi_points: int = 32
    refine_starts: int = 5
    restarts: int = 20
    max_refine_iter: int = 300
    seed: int = 0
    eps_opt: float = EPS_OPT
    strict_convergence: bool = True

    def __post_init__(self):
        if not 0.0 < self.eps_opt < np.inf:
            raise InvalidConfig(f"eps_opt must be finite and > 0, got {self.eps_opt}")
        for name, low in (("theta_points", 2), ("phi_points", 2), ("restarts", 1),
                          ("max_refine_iter", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise InvalidConfig(f"{name} must be >= {low}, got {getattr(self, name)}")


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
    best, *rest = np.argsort(-values, kind="stable")
    gap = float(values[best] - values[rest[0]]) if rest else 0.0
    if config.strict_convergence and gap > config.eps_opt:
        raise OptimizerDidNotConverge(gap, config.eps_opt)
    return OptimizationResult(float(values[best]), candidates[best][1],
                              len(candidates), gap, iterations, capped)


@lru_cache(maxsize=4)  # a process sweeping --grid keeps its last few grids only
def _bloch_grid(theta_points: int, phi_points: int) -> np.ndarray:
    thetas = np.linspace(0.0, np.pi, theta_points)
    phis = np.linspace(0.0, 2.0 * np.pi, phi_points, endpoint=False)
    return _freeze(qubit_basis(*(a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))))


def _starts(objective, dim: int, config: OptimizerConfig) -> tuple[np.ndarray, ...]:
    """The ascent's starting bases, with the values and gradients the objective gave them."""
    if dim == 2:
        grid = _bloch_grid(config.theta_points, config.phi_points)
        values, grads = objective(grid)
        keys, k = -values, min(max(1, config.refine_starts), len(grid))
        near = np.flatnonzero(~(keys > np.partition(keys, k - 1)[k - 1]))  # with all ties
        best = near[np.argsort(keys[near], kind="stable")[:k]]
        return grid[best], values[best], grads[best]
    rng = np.random.default_rng(config.seed)
    shape = (max(0, config.restarts - 1), dim, dim)
    q, r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    phases = np.diagonal(r, axis1=1, axis2=2)
    bases = np.concatenate([np.eye(dim)[None], q * (phases / np.abs(phases))[:, None, :]])
    return bases, *objective(bases)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # Re tr(a^dagger b), pairwise
    return np.einsum("rij,rij->r", a.view(float), b.view(float))


def _direction(grads: np.ndarray, bases: np.ndarray) -> np.ndarray:  # G U^dagger - U G^dagger
    x = grads @ bases.conj().transpose(0, 2, 1)
    return x - x.conj().transpose(0, 2, 1)


def _ascend(objective, bases: np.ndarray, values: np.ndarray, grads: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    a = _direction(grads, bases)
    slope, step, eye = _inner(a, a), np.ones(len(bases)), np.eye(bases.shape[1])
    recent = np.tile(values, (MEMORY, 1))
    for iterations in range(max_iter + 1):
        # a gain below the rounding of F cannot pass the Armijo test
        live = (slope > GRAD_FLOOR ** 2) & (step * slope > np.spacing(np.abs(values) + 1.0))
        count = int(np.count_nonzero(live))
        if iterations == max_iter or not count:  # capped: restarts live at the cap
            return values, bases, iterations, count if iterations == max_iter else 0
        part = slice(None) if count == len(live) else np.flatnonzero(live)
        t, u, a_part = step[part], bases[part], a[part]
        trial = 2.0 * np.linalg.solve(eye - (0.5 * t)[:, None, None] * a_part, u) - u
        trial_values, trial_grads = objective(trial)
        ok = trial_values >= recent[:, part].min(axis=0) + ARMIJO * t * slope[part]
        if np.count_nonzero(ok) < len(ok):  # halve the refused steps, go on with the rest
            idx = np.arange(len(live))[part]
            step[idx[~ok]] *= 0.5
            part, t, a_part, trial, trial_values, trial_grads = (
                x[ok] for x in (idx, t, a_part, trial, trial_values, trial_grads))
        a_new = _direction(trial_grads, trial)
        # Barzilai-Borwein steps <s, s> / <s, -y> and <s, -y> / <y, y> in turn, for s = tA,
        # -y = A - A_new: t slope / curve and t curve / <y, y>; doubled where F did not curve down
        y = a_part - a_new
        curve = _inner(a_part, y)
        num, den = (slope[part], curve) if iterations % 2 == 0 else (curve, _inner(y, y))
        step[part] = t * np.where(curve > 0, num / np.where(curve > 0, den, 1.0), 2.0)
        bases[part], values[part], a[part] = trial, trial_values, a_new
        slope[part] = _inner(a_new, a_new)
        recent[iterations % MEMORY] = values


def maximize_over_bases(objective: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                        dim: int, config: OptimizerConfig = DEFAULT_OPT) -> OptimizationResult:
    """Maximize a function of orthonormal bases (columns = kets).

    ``objective`` maps a (R, d, d) stack of bases to their values, shape (R,),
    and gradients dF/d(conj U), shape (R, d, d).  Deterministic for a fixed
    config; raises :class:`OptimizerDidNotConverge` when the two best restarts
    differ by more than ``config.eps_opt`` and strict convergence is enabled.
    """
    values, bases, iterations, capped = _ascend(objective, *_starts(objective, dim, config),
                                                config.max_refine_iter)
    return _finish(list(zip(values.tolist(), bases)), config, iterations, capped)
