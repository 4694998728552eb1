import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qdarwin import make_random_density, std_layout


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
