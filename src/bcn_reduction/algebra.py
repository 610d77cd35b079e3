"""Matrix algebra for u(N) under a commuting pair of block involutions.

Everything downstream is organized around a quadruple (m, n, r, s) of block
sizes with m >= r >= s >= n and m + n = r + s = N.  The quadruple fixes two
commuting conjugations of u(N): a "left" one by diag(1_r, -1_s) and a "right"
one by diag(1_m, -1_n).  Their joint eigenspaces give a Z2 x Z2 gradation of
u(N), and the partition N = n + (r-n) + (s-n) + n gives a 4x4 block layout
in which all the distinguished subspaces are block-sparse.

This module provides the schemes, the one trace form `inner_y` (and
`pair_inner`, its sum over a symmetry pair), pairs of algebra elements for
the two-sided symmetry, and the explicit radial torus (the flat section of
the group action) with its closed-form exponential.  The pair functions
(`check_pair`, `factor_split`, `inner_y`, `pair_inner`) take stacks:
components of shape (..., N, N), one element or a whole basis; the two
forms return the Gram matrix over the leading axes of their arguments.

All matrices are dense complex numpy arrays; N is at most 62 in the tagged
cases (rank n <= 30), where dense storage is simplest.  Every
function here is pure and all values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Anti-Hermiticity / block-structure tolerance used across the package.
ANTIHERM_TOL = 1e-12

_CASE_SHAPES = {
    "I": lambda n: (n, n, n, n),
    "II": lambda n: (n + 1, n, n + 1, n),
    "III": lambda n: (n + 2, n, n + 1, n + 1),
}


class AlcoveError(ValueError):
    """Raised when a radial point violates the required alcove constraints."""


@dataclass(frozen=True)
class Scheme:
    """Block-size quadruple (m, n, r, s) selecting one reduction scheme.

    Invariants: m >= r >= s >= n >= 0 and m + n = r + s = N >= 1.  The three
    distinguished families are

    * case I   : (m, r, s) = (n, n, n),         N = 2n
    * case II  : (m, r, s) = (n+1, n+1, n),     N = 2n+1
    * case III : (m, r, s) = (n+2, n+1, n+1),   N = 2n+2

    anything else is tagged "generic".
    """

    m: int
    n: int
    r: int
    s: int

    def __post_init__(self) -> None:
        m, n, r, s = self.m, self.n, self.r, self.s
        if not (m >= r >= s >= n >= 0):
            raise ValueError(f"need m >= r >= s >= n >= 0, got {(m, n, r, s)}")
        if m + n != r + s:
            raise ValueError(f"need m + n = r + s, got {(m, n, r, s)}")
        if m + n < 1:
            raise ValueError("N must be positive")

    @classmethod
    def of_case(cls, case: str, n: int) -> "Scheme":
        """Build the scheme for one of the tagged cases at rank n >= 1."""
        if case not in _CASE_SHAPES:
            raise ValueError(f"unknown case {case!r}")
        if n < 1:
            raise ValueError("rank n must be >= 1")
        m, nn, r, s = _CASE_SHAPES[case](n)
        return cls(m=m, n=nn, r=r, s=s)

    @property
    def N(self) -> int:
        return self.m + self.n

    @property
    def case_tag(self) -> str:
        for tag, shape in _CASE_SHAPES.items():
            if (self.m, self.n, self.r, self.s) == shape(self.n):
                return tag
        return "generic"

    @property
    def block_sizes(self) -> tuple[int, int, int, int]:
        """Sizes (n, r-n, s-n, n) of the 4x4 block partition; some may be 0."""
        return (self.n, self.r - self.n, self.s - self.n, self.n)

    def block_slices(self) -> tuple[slice, slice, slice, slice]:
        edges = np.cumsum((0,) + self.block_sizes)
        return tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))

    def left_signs(self) -> np.ndarray:
        """Diagonal of the left involution matrix diag(1_r, -1_s)."""
        return np.concatenate([np.ones(self.r), -np.ones(self.s)])

    def right_signs(self) -> np.ndarray:
        """Diagonal of the right involution matrix diag(1_m, -1_n)."""
        return np.concatenate([np.ones(self.m), -np.ones(self.n)])

    @property
    def dim_g(self) -> int:
        """Real dimension of the two-sided symmetry algebra."""
        return self.r**2 + self.s**2 + self.m**2 + self.n**2

    @property
    def dim_centralizer(self) -> int:
        """Real dimension of the section centralizer, n + (r-n)^2 + (s-n)^2."""
        return self.n + (self.r - self.n) ** 2 + (self.s - self.n) ** 2


def inner_y(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gram matrix of the positive-definite invariant form -tr(xz) on u(N).

    x and z are stacks (..., N, N); entry (i, j) is -Re tr(x_i z_j) over the
    leading axes of both, so the result has shape x.shape[:-2] +
    z.shape[:-2] (a float for two matrices).  It is one complex matrix
    product of the flattened stacks: tr(x z) is the sum of x * z^T.
    """
    x, z = np.asarray(x), np.asarray(z)
    flat = x.shape[-2] * x.shape[-1]
    gram = x.reshape(-1, flat) @ np.swapaxes(z, -2, -1).reshape(-1, flat).T
    return -gram.real.reshape(x.shape[:-2] + z.shape[:-2])[()]


@dataclass(frozen=True)
class AlgebraPair:
    """Element (left, right) of the two-sided symmetry algebra.

    `left` is fixed by the left involution (block-diagonal for the (r, s)
    split) and `right` by the right one (block-diagonal for (m, n)).
    """

    left: np.ndarray
    right: np.ndarray

    def __add__(self, other: "AlgebraPair") -> "AlgebraPair":
        return AlgebraPair(self.left + other.left, self.right + other.right)


def check_pair(scheme: Scheme, pair: AlgebraPair, tol: float = ANTIHERM_TOL) -> None:
    """Reject pairs whose components leak outside the fixed-point subalgebras.

    Components may be stacks (..., N, N); each element is judged on its own,
    against tol times its own largest entry (at least 1).
    """
    for mat, p, side in ((pair.left, scheme.r, "left"), (pair.right, scheme.m, "right")):
        mat = np.abs(np.asarray(mat))
        off = np.maximum(mat[..., :p, p:].max(axis=(-2, -1), initial=0.0),
                         mat[..., p:, :p].max(axis=(-2, -1), initial=0.0))
        bad = off > tol * mat.max(axis=(-2, -1), initial=1.0)
        if np.any(bad):
            raise ValueError(
                f"{side} component has off-block contamination {off[bad].max():.3e}"
            )


def factor_split(
    scheme: Scheme, pair: AlgebraPair
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a symmetry pair, or a stack of them, into its four unitary-factor
    blocks.

    Returns (x_l1, x_l2, x_r1, x_r2) where x_l1 is the leading r x r block of
    the left component, x_l2 the trailing s x s block, x_r1 the leading
    m x m block of the right component and x_r2 the trailing n x n block;
    components of shape (..., N, N) give blocks of shape (..., r, r) and so on.
    """
    check_pair(scheme, pair)
    r, m = scheme.r, scheme.m
    return (
        pair.left[..., :r, :r],
        pair.left[..., r:, r:],
        pair.right[..., :m, :m],
        pair.right[..., m:, m:],
    )


def pair_inner(p1: AlgebraPair, p2: AlgebraPair) -> np.ndarray:
    """Invariant form on the symmetry algebra: sum of the two trace forms.

    A Gram matrix over the leading axes, as in `inner_y`: pairs with
    components of shape (k, N, N) and (j, N, N) give the (k, j) matrix.
    """
    return inner_y(p1.left, p2.left) + inner_y(p1.right, p2.right)


def _angle_pairs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (q_l - q_k, q_k + q_l) over the pairs k < l of the last axis of
    q, shape (..., n); pairs in lexicographic order, as in np.triu_indices."""
    k, l = np.triu_indices(q.shape[-1], 1)
    return q[..., l] - q[..., k], q[..., k] + q[..., l]


def radial_embed(scheme: Scheme, pt) -> np.ndarray:
    """Antisymmetric generator of the radial torus for the given angles.

    The angles sit as +diag(q) in the (1, 4) block and -diag(q) in the
    (4, 1) block of the 4x4 partition; everything else is zero.
    """
    q = np.asarray(pt, dtype=float)
    if q.shape != (scheme.n,):
        raise ValueError(f"expected {scheme.n} angles, got {q.shape}")
    out = np.zeros((scheme.N, scheme.N), dtype=complex)
    b1, _, _, b4 = scheme.block_slices()
    out[b1, b4] = np.diag(q)
    out[b4, b1] = -np.diag(q)
    return out


def radial_exp(scheme: Scheme, pt) -> np.ndarray:
    """Closed-form exponential of `radial_embed`: a real orthogonal matrix.

    Blocks (1,1) and (4,4) carry diag(cos q), (1,4) carries diag(sin q),
    (4,1) carries -diag(sin q); the middle blocks are identities.  Closed
    alcove points (including the walls) are accepted.
    """
    q = np.asarray(pt, dtype=float)
    if q.shape != (scheme.n,):
        raise ValueError(f"expected {scheme.n} angles, got {q.shape}")
    out = np.eye(scheme.N, dtype=complex)
    b1, _, _, b4 = scheme.block_slices()
    out[b1, b1] = np.diag(np.cos(q))
    out[b4, b4] = np.diag(np.cos(q))
    out[b1, b4] = np.diag(np.sin(q))
    out[b4, b1] = -np.diag(np.sin(q))
    return out


def u_basis(p: int) -> list[np.ndarray]:
    """Orthonormal basis of u(p) for the form -tr(xz).

    Order: the diagonal generators i E_aa for a = 1..p, then for each pair
    a < b (lexicographic) the real rotation (E_ab - E_ba)/sqrt(2) followed by
    the imaginary reflection i(E_ab + E_ba)/sqrt(2).  Empty for p = 0.
    """
    out = []
    for a in range(p):
        e = np.zeros((p, p), dtype=complex)
        e[a, a] = 1j
        out.append(e)
    for a in range(p):
        for b in range(a + 1, p):
            e = np.zeros((p, p), dtype=complex)
            e[a, b], e[b, a] = 1.0, -1.0
            out.append(e / math.sqrt(2))
            e = np.zeros((p, p), dtype=complex)
            e[a, b], e[b, a] = 1j, 1j
            out.append(e / math.sqrt(2))
    return out


__all__ = ["ANTIHERM_TOL", "AlcoveError", "AlgebraPair", "Scheme", "check_pair",
           "factor_split", "inner_y", "pair_inner", "radial_embed", "radial_exp",
           "u_basis"]
