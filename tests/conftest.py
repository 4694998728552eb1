import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qdarwin import make_random_density, std_layout, validate_factor
from qdarwin.core import TOL_PROB


RANDOM_LAYOUTS = (
    std_layout(2, [2]),
    std_layout(2, [2, 2]),
    std_layout(2, [3]),
    std_layout(3, [2, 2]),
    std_layout(2, [4, 2]),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(seed: int, layout=None, rank=None):
    layout = layout if layout is not None else RANDOM_LAYOUTS[seed % len(RANDOM_LAYOUTS)]
    return make_random_density(seed, layout, rank)


def matrix_payload(rho):
    """State-file payload of ``rho`` holding its ``"matrix"``, whatever its rank,
    encoded element by element."""
    return {"layout": rho.layout.to_dict(),
            "matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix]}


def pure_ghz(system_dim: int, env_dims):
    """sum_k |k ... k> / sqrt(m) on S x ``env_dims``, m the smallest dimension, as a
    one-column factor: a rank-1 state whose rho_S is degenerate."""
    layout = std_layout(system_dim, env_dims)
    dims = (system_dim, *env_dims)
    m = min(dims)
    factor = np.zeros((layout.total_dim, 1), dtype=complex)
    for k in range(m):
        factor[np.ravel_multi_index([k] * len(dims), dims), 0] = 1.0 / np.sqrt(m)
    return validate_factor(factor, layout)


def live_conditionals(ens):
    """Probabilities and conditional states of the branches of a pointer ensemble
    with p_i above ``TOL_PROB``, each state built from its branch factor as
    W_i / sqrt(p_i)."""
    layout = ens.state.layout.subset(ens.fragment, system=None)
    kept = [(p, validate_factor(w / np.sqrt(p), layout))
            for p, w in zip(ens.probabilities, ens.branch_factors) if p > TOL_PROB]
    return np.array([p for p, _ in kept]), [c for _, c in kept]
