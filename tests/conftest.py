import math

import numpy as np
import pytest

#: distances from an alcove wall swept by the wall-approach tests
WALL_EPS = tuple(10.0**-e for e in range(2, 13))


def _wall_point(n: int, wall: str, eps: float) -> np.ndarray:
    """Alcove point at distance eps from one wall: "top" (q_n = pi/2 - eps),
    "bottom" (q_1 = eps) or "gap" (q_2 - q_1 = eps); n is 2 or 3."""
    q = {2: [0.5, 1.0], 3: [0.3, 0.8, 1.2]}[n]
    if wall == "top":
        q[-1] = math.pi / 2 - eps
    elif wall == "bottom":
        q[0] = eps
    else:
        q[1] = q[0] + eps
    return np.array(q)


@pytest.fixture
def wall_points():
    """Function (n, wall) -> the points at every distance in WALL_EPS."""
    return lambda n, wall: [_wall_point(n, wall, eps) for eps in WALL_EPS]
