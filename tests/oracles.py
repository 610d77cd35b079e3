"""Reference helpers that only the tests use.

Each one states a definition directly (an involution as a sign matrix, the
gradation as a mask, the couplings inverted from the root multiplicities),
so the tests can check the package against it; the package never calls them.
"""

from fractions import Fraction

import numpy as np

from bcn_reduction.algebra import ANTIHERM_TOL, Scheme
from bcn_reduction.reduction import Couplings, MuParams


def involution_matrix(p: int, q: int) -> np.ndarray:
    """Return diag(1_p, -1_q), the unitary implementing the (p, q) involution.

    Parameters
    ----------
    p, q : int
        Block sizes with p >= q >= 0.  The result is its own inverse.
    """
    if not (p >= q >= 0):
        raise ValueError(f"need p >= q >= 0, got {(p, q)}")
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


def apply_involution(inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conjugate x by a diagonal sign matrix (which equals its own inverse)."""
    d = np.diagonal(inv)
    return d[:, None] * x * d[None, :]


def to_antiherm(x: np.ndarray, tol: float = ANTIHERM_TOL) -> np.ndarray:
    """Validate anti-Hermiticity of x within tol and return (x - x†)/2.

    The symmetrization guards against drift accumulated by composed
    operations; inputs further than tol from anti-Hermitian are rejected.
    """
    x = np.asarray(x, dtype=complex)
    defect = np.abs(x + x.conj().T).max() if x.size else 0.0
    scale = max(1.0, np.abs(x).max()) if x.size else 1.0
    if defect > tol * scale:
        raise ValueError(f"matrix is not anti-Hermitian (defect {defect:.3e})")
    return (x - x.conj().T) / 2


def random_antiherm(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random element of u(n) with entries of the given scale."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a - a.conj().T) / 2


def grade_project(scheme: Scheme, x: np.ndarray, block: str) -> np.ndarray:
    """Project onto one of the four joint eigenspaces of the two involutions.

    `block` is two characters from {+, -}; the first is the left sign, the
    second the right sign.  The four projections are mutually orthogonal for
    the trace form and sum to x.
    """
    if block not in ("++", "+-", "-+", "--"):
        raise ValueError(f"bad block {block!r}")
    x = np.asarray(x, dtype=complex)
    if x.shape != (scheme.N, scheme.N):
        raise ValueError(f"expected {scheme.N}x{scheme.N} matrix, got {x.shape}")
    sl, sr = scheme.left_signs(), scheme.right_signs()
    a = 1.0 if block[0] == "+" else -1.0
    b = 1.0 if block[1] == "+" else -1.0
    mask_l = (sl[:, None] * sl[None, :]) == a
    mask_r = (sr[:, None] * sr[None, :]) == b
    return np.where(mask_l & mask_r, x, 0.0)


def couplings_from_mu(mu: MuParams, constant: Fraction = Fraction(0)) -> Couplings:
    """Invert `reduction.mu_params`; a non-integer coupling raises ValueError."""
    c = mu.long - Fraction(1, 2)
    b = mu.short + c
    a = mu.pair - 1
    for name, val in (("a", a), ("b", b), ("c", c)):
        if val.denominator != 1:
            raise ValueError(f"coupling {name} is not an integer: {val}")
    return Couplings(int(a), int(b), int(c), constant)
