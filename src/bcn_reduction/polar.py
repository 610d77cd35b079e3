"""Orbit-direction basis, inertia operator, and radial density in log space.

For a scheme (m, n, r, s) the centralizer of the radial torus inside the
two-sided symmetry group has Lie algebra of dimension n + (r-n)^2 + (s-n)^2
(diagonally embedded).  Its orthogonal complement carries the inertia
operator J(q), whose eigenvalues produce the trigonometric potentials.  This
module constructs an explicit labeled orthonormal basis that diagonalizes
J(q) at every interior alcove point, evaluates J both from its definition
and from the closed-form eigenvalues, and provides the log of the product
density (at `nu_triple(scheme)`, the square root of the orbit volume), the
closed form `sutherland_rhs` of its Laplacian over itself, the "measure
factor" (half of that at the scheme's exponents), and one finite-difference
oracle for both, `log_laplacian_fd`, which works on log rho so that it
stays in double range at every rank.

Basis ordering is a public contract:

* families in the order hatL, V, W, Vt, Wt, Z0;
* within V and W the roots run over pairs (k, l), k < l, lexicographically,
  each contributing the difference root q_k - q_l before the sum root
  q_k + q_l; then the long roots 2 q_j for j ascending; then the short roots
  q_j for j ascending (present only when r > n);
* for each root the real flavor precedes the imaginary one, and within a
  flavor the degeneracy indices d (and (c, d) for Z0) ascend;
* hatL vectors follow the centralizer basis order: torus directions
  j = 1..n, then the u(r-n) block basis, then the u(s-n) block basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .algebra import (
    AlcoveError,
    AlgebraPair,
    Scheme,
    _angle_pairs,
    inner_y,
    pair_inner,
    radial_exp,
    u_basis,
)

SQ2 = math.sqrt(2.0)

FAMILIES = ("hatL", "V", "W", "Vt", "Wt", "Z0")

#: (coefficient of q_k, coefficient of q_l) of each root kind
_ROOT_COEFS = {"diff": (1.0, -1.0), "sum": (1.0, 1.0), "short": (1.0, 0.0),
               "long": (2.0, 0.0), "zero": (0.0, 0.0)}

#: inertia eigenvalue 2 f(sign * root(q)/2 + offset)^2 of each family, as
#: (sign, offset, f is cos); pi/4 - float(pi/4) is added where offset != 0
_FAMILY_FORMS = {"hatL": (1, 0.0, True), "V": (1, 0.0, False), "W": (1, 0.0, True),
                 "Vt": (-1, math.pi / 4, True), "Wt": (-1, math.pi / 4, False),
                 "Z0": (1, math.pi / 4, False)}
_PI4_TAIL = 3.061616997868383e-17

#: interior margin (radians) required by the finite-difference operators
WALL_MARGIN = 0.05


@dataclass(frozen=True)
class Root:
    """Linear functional of the radial angles attached to a basis vector.

    kind is one of "diff" (q_k - q_l), "sum" (q_k + q_l), "short" (q_j),
    "long" (2 q_j) or "zero"; indices are 1-based.
    """

    kind: str
    k: int = 0
    l: int = 0

    def coef(self, n: int) -> np.ndarray:
        """Coefficient vector c of the functional, root(q) = c @ q."""
        ck, cl = _ROOT_COEFS[self.kind]
        c = np.zeros(n)
        if ck:
            c[self.k - 1] = ck
        if cl:
            c[self.l - 1] = cl
        return c

    def at(self, q: np.ndarray) -> float:
        return self.coef(len(q)) @ q

    def __str__(self) -> str:
        names = {
            "diff": f"e{self.k}-e{self.l}",
            "sum": f"e{self.k}+e{self.l}",
            "short": f"e{self.k}",
            "long": f"2e{self.k}",
            "zero": "0",
        }
        return names[self.kind]


@dataclass(frozen=True)
class BasisLabel:
    """Identity of one orbit-direction basis vector."""

    family: str
    root: Root
    flavor: str = ""  # "r", "i", or "" when not applicable
    block: tuple[int, ...] = ()  # degeneracy indices, 1-based

    def __str__(self) -> str:
        parts = [self.family, str(self.root)]
        if self.flavor:
            parts.append(self.flavor)
        if self.block:
            parts.append(",".join(map(str, self.block)))
        return ":".join(parts)


class KPerpBasis:
    """Ordered orthonormal basis of the orbit directions for one scheme.

    Attributes
    ----------
    scheme : Scheme
    labels : tuple of BasisLabel
    left, right : ndarray, shape (dim, N, N)
        Stacked components of the basis pairs, in label order.
    half_roots : ndarray, shape (dim, n); offsets, tails, cos_mask : (dim,)
        The family table per label: eigenvalue i is 2 f(half_roots[i] @ q
        + offsets[i] + tails[i])^2, with f = cos where cos_mask[i], else sin.
    """

    def __init__(self, scheme: Scheme, labels, left, right):
        self.scheme = scheme
        self.labels = tuple(labels)
        self.left = np.asarray(left)
        self.right = np.asarray(right)
        sign, self.offsets, self.cos_mask = map(
            np.array, zip(*(_FAMILY_FORMS[lab.family] for lab in self.labels)))
        coefs = np.array([lab.root.coef(scheme.n) for lab in self.labels])
        self.half_roots = sign[:, None] * coefs / 2.0
        self.tails = np.where(self.offsets != 0.0, _PI4_TAIL, 0.0)
        for arr in (self.left, self.right, self.half_roots, self.offsets,
                    self.tails, self.cos_mask):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.labels)

    def pair(self, i: int) -> AlgebraPair:
        return AlgebraPair(self.left[i], self.right[i])

    def gram(self) -> np.ndarray:
        """Gram matrix under the symmetry-algebra form; identity if healthy."""
        stack = AlgebraPair(self.left, self.right)
        return pair_inner(stack, stack)

    def family_counts(self) -> dict[str, int]:
        counts = {f: 0 for f in FAMILIES}
        for lab in self.labels:
            counts[lab.family] += 1
        return counts


def _generators(scheme: Scheme, specs) -> np.ndarray:
    """Flavored generators of u(N) in the 4x4 block layout, one per
    (flavor, divisor, slots) spec, stacked as (len(specs), N, N).

    Each slot ((bx, x), (by, y), sign) names entry x of block bx and entry y
    of block by (0-based) and adds sign (E_xy - E_yx) for flavor "r" or
    sign i (E_xy + E_yx) for flavor "i"; a diagonal slot (x = y, flavor "i")
    is the single entry sign i.  Entries are written as sign or
    complex(0, sign), so every zero is +0, and the one division of each
    generator by its divisor is the only arithmetic.
    """
    out = np.zeros((len(specs), scheme.N, scheme.N), dtype=complex)
    start = np.cumsum((0,) + scheme.block_sizes)
    for mat, (flavor, _, slots) in zip(out, specs):
        for (bx, x), (by, y), sign in slots:
            a, b = start[bx] + x, start[by] + y
            if flavor == "r":
                mat[a, b], mat[b, a] = sign, -sign
            else:
                mat[a, b] = mat[b, a] = complex(0, sign)
    return out / np.array([divisor for _, divisor, _ in specs]).reshape(-1, 1, 1)


def build_m_basis(scheme: Scheme) -> np.ndarray:
    """Orthonormal basis of the centralizer Lie algebra inside u(N), stacked
    as a (dim_centralizer, N, N) array like `KPerpBasis.left`.

    Torus directions first: for j = 1..n the matrix with (i/sqrt 2) E_jj in
    both the first and the last diagonal block.  Then `u_basis(r-n)` in the
    second block and `u_basis(s-n)` in the third.  Every element commutes
    with the radial generators.
    """
    parts = [_generators(scheme, [("i", SQ2, [((0, j), (0, j), 1), ((3, j), (3, j), 1)])
                                  for j in range(scheme.n)])]
    for block in (1, 2):
        p, sl = scheme.block_sizes[block], scheme.block_slices()[block]
        parts.append(np.zeros((p * p, scheme.N, scheme.N), dtype=complex))
        parts[-1][:, sl, sl] = np.reshape(u_basis(p), (p * p, p, p))
    return np.concatenate(parts)


def build_kperp_basis(scheme: Scheme) -> KPerpBasis:
    """Construct the labeled orthonormal basis of the orbit directions.

    The basis diagonalizes the inertia operator at every interior alcove
    point; see the module docstring for the ordering contract.  V and W
    share the generators e of the (+,+) gradation block outside the
    centralizer; Vt and Wt pair those of the (+,-) block with their partners
    in the (-,+) block (t); Z0 holds the radially inert directions of the
    (-,+) block (z).  A row of e, t or z is the label fields (root, flavor,
    block) of one generator, then its `_generators` spec (and its
    partner's).
    """
    n, rn, sn = scheme.n, scheme.r - scheme.n, scheme.s - scheme.n
    pairs = product(combinations(range(n), 2), (("diff", 1), ("sum", -1)), "ri")
    e = [((Root(kind, k + 1, l + 1), f, ()), (f, 2, [((0, k), (0, l), 1), ((3, k), (3, l), sign)]))
         for (k, l), (kind, sign), f in pairs]
    e += [((Root("long", j + 1), "i", ()), ("i", SQ2, [((0, j), (0, j), 1), ((3, j), (3, j), -1)]))
          for j in range(n)]
    e += [((Root("short", j + 1), f, (d + 1,)), (f, SQ2, [((0, j), (1, d), 1)]))
          for j, f, d in product(range(n), "ri", range(rn))]
    t = [((Root("short", j + 1), f, (d + 1,)), (f, SQ2, [((2, d), (3, j), 1)]),
          (f, SQ2, [((2, d), (0, j), 1)])) for j, f, d in product(range(n), "ri", range(sn))]
    z = [((Root("zero"), f, (c + 1, d + 1)), (f, SQ2, [((1, c), (2, d), 1)]))
         for f, c, d in product("ri", range(rn), range(sn))]

    hat = build_m_basis(scheme)
    h = [((Root("zero"), "", (j,)),) for j in range(1, len(hat) + 1)]
    ge, gt, gf, gz = (_generators(scheme, [row[col] for row in rows])
                      for rows, col in ((e, 1), (t, 1), (t, 2), (z, 1)))
    # +-1.0 * x, a complex product, keeps zeros +0 where -x would flip them
    families = (("hatL", h, hat / SQ2, -hat / SQ2),
                ("V", e, ge / SQ2, 1.0 * ge / SQ2), ("W", e, ge / SQ2, -1.0 * ge / SQ2),
                ("Vt", t, gt / SQ2, 1.0 * gf / SQ2), ("Wt", t, gt / SQ2, -1.0 * gf / SQ2),
                ("Z0", z, np.zeros_like(gz), gz))
    labels = [BasisLabel(family, *row[0]) for family, rows, _, _ in families for row in rows]
    expected = scheme.dim_g - scheme.dim_centralizer
    if len(labels) != expected:
        raise AssertionError(
            f"basis size {len(labels)} != dim G - dim K = {expected}"
        )
    left, right = (np.concatenate([fam[i] for fam in families]) for i in (2, 3))
    return KPerpBasis(scheme, labels, left, right)


def inertia_matrix(scheme: Scheme, basis: KPerpBasis, pt) -> np.ndarray:
    """Inertia operator evaluated from its definition, as a matrix in basis order.

    J is the Gram matrix, under the trace form `inner_y`, of the tangent
    representatives u_i = right_i - g^-1 left_i g, where g is the
    closed-form radial exponential at the given point.
    """
    g = radial_exp(scheme, pt)
    u = basis.right - g.conj().T @ basis.left @ g
    return inner_y(u, u)


def inertia_eigenvalues(basis: KPerpBasis, pt) -> np.ndarray:
    """Closed-form inertia eigenvalues at q of shape (..., n), shape (..., dim).

    hatL -> 2 cos^2(0);  V at root a -> 2 sin^2(a/2);  W -> 2 cos^2(a/2);
    Vt at q_j -> 1 + sin q_j = 2 cos^2(pi/4 - q_j/2);
    Wt at q_j -> 1 - sin q_j = 2 sin^2(pi/4 - q_j/2);  Z0 -> 2 sin^2(pi/4).
    All are strictly positive on the open alcove.  The rounding tail of
    float(pi/4) is added after the offset, so pi/4 - q_j/2 keeps full
    relative precision as q_j -> pi/2 and Wt does not cancel.
    """
    x = (np.asarray(pt, dtype=float) @ basis.half_roots.T + basis.offsets) + basis.tails
    return 2.0 * np.where(basis.cos_mask, np.cos(x), np.sin(x)) ** 2


@dataclass(frozen=True)
class RootSeries:
    """A closed-form term as coefficients of the BC_n root functions:

        pair * sum_{k<l} [1/sin^2(q_k - q_l) + 1/sin^2(q_k + q_l)]
      + csc2 * sum_j 1/sin^2(q_j) + sec2 * sum_j 1/cos^2(q_j) + const.

    The long roots enter through 1/sin^2(2 q_j) = (1/sin^2 q_j + 1/cos^2 q_j)/4.
    """

    pair: float
    csc2: float
    sec2: float
    const: float

    def at(self, pt) -> np.ndarray:
        """Value at q of shape (..., n): one value per point."""
        q = np.asarray(pt, dtype=float)
        diff, tot = _angle_pairs(q)
        pairs = np.sum(1.0 / np.sin(diff) ** 2 + 1.0 / np.sin(tot) ** 2, axis=-1)
        return (self.pair * pairs
                + self.csc2 * np.sum(1.0 / np.sin(q) ** 2, axis=-1)
                + self.sec2 * np.sum(1.0 / np.cos(q) ** 2, axis=-1)
                + self.const)


def nu_triple(scheme: Scheme) -> tuple[float, float, float]:
    """Density exponents (1, r - s, s - n + 1/2) of the scheme."""
    return (1.0, float(scheme.r - scheme.s), scheme.s - scheme.n + 0.5)


def _check_alcove(q: np.ndarray) -> None:
    if not (np.all(q[..., 0] > 0.0) and np.all(q[..., -1] < math.pi / 2)
            and np.all(np.diff(q, axis=-1) > 0)):
        raise AlcoveError(f"angles {q.tolist()} are not interior alcove points")


def log_density(nu: float, nu1: float, nu2: float, pt) -> np.ndarray:
    """Log of the product-form density with exponents (nu, nu1, nu2), at q
    of shape (..., n): one value per point.

    Pair factors sin(q_l - q_k) sin(q_k + q_l) over k < l enter with power
    nu, the single-angle factors sin(q_j) with power nu1 and sin(2 q_j) with
    power nu2.  All bases are positive on the open alcove; evaluation
    elsewhere raises AlcoveError.  At nu_triple(scheme) the density is the
    square root of the orbit volume, normalized to the product form; its
    fourth power is proportional to det J with a q-independent ratio.  The
    density itself leaves double range at large n; its log does not.
    """
    q = np.asarray(pt, dtype=float)
    _check_alcove(q)
    diff, tot = _angle_pairs(q)
    return (nu * np.sum(np.log(np.sin(diff) * np.sin(tot)), axis=-1)
            + np.sum(nu1 * np.log(np.sin(q)) + nu2 * np.log(np.sin(2.0 * q)), axis=-1))


def measure_factor(scheme: Scheme) -> RootSeries:
    """Radial quantum correction term: half of `sutherland_rhs` at `nu_triple`.

    In the paper's form it is (m-n)(r-s)/2 * sum_j 1/sin^2(q_j)
      + (4(s-n)^2 - 1)/2 * sum_j 1/sin^2(2 q_j) - n (3 m^2 + n^2 - 1)/6,
    so pair = 0, sec2 = (4(s-n)^2 - 1)/8, csc2 = (m-n)(r-s)/2 + sec2 and
    const = -n (3 m^2 + n^2 - 1)/6.
    """
    full = sutherland_rhs(*nu_triple(scheme), scheme.n)
    return RootSeries(full.pair / 2, full.csc2 / 2, full.sec2 / 2, full.const / 2)


def interior_margin(q) -> np.ndarray:
    """Distance of q, shape (..., n), from the alcove walls (the two ends
    and all gaps): one value per point."""
    q = np.asarray(q, dtype=float)
    gaps = np.concatenate([q[..., :1], math.pi / 2 - q[..., -1:], np.diff(q, axis=-1)],
                          axis=-1)
    return np.min(gaps, axis=-1)


def log_laplacian_fd(nu: float, nu1: float, nu2: float, pt, h: float = 5e-4) -> np.ndarray:
    """Finite-difference oracle for `sutherland_rhs`: the Laplacian of the
    product density divided by it, at q of shape (..., n).

    With L = `log_density`, Delta rho / rho = sum_k [d_k^2 L + (d_k L)^2].
    Central differences of L on the (2n + 1, n) stencil (q, q + h e_k,
    q - h e_k) at steps h and h/2, Richardson-extrapolated, are fourth order
    in h.  Requires the point to sit at least WALL_MARGIN from every alcove
    wall so the stencil stays interior.
    """
    q = np.asarray(pt, dtype=float)
    if np.any(interior_margin(q) < WALL_MARGIN):
        raise AlcoveError(
            f"point within {WALL_MARGIN} of an alcove wall; move inward"
        )
    n = q.shape[-1]
    steps = np.array([[h], [h / 2]])
    offsets = steps[..., None] * np.concatenate([np.zeros((1, n)), np.eye(n), -np.eye(n)])
    logs = log_density(nu, nu1, nu2, q[..., None, None, :] + offsets)
    center, plus, minus = logs[..., :1], logs[..., 1:n + 1], logs[..., n + 1:]
    est = np.sum((plus - 2.0 * center + minus) / steps**2
                 + ((plus - minus) / (2.0 * steps)) ** 2, axis=-1)
    return (4.0 * est[..., 1] - est[..., 0]) / 3.0


def sutherland_rhs(nu: float, nu1: float, nu2: float, n: int) -> RootSeries:
    """Closed form for the log-Laplacian of the product density in rank n.

    This is the Sutherland-type differential identity: the sum of second
    derivatives of the product density divided by the density equals

        2 nu(nu-1) sum_{k<l} [1/sin^2(q_k - q_l) + 1/sin^2(q_k + q_l)]
      + nu1(nu1 + 2 nu2 - 1) sum_j 1/sin^2(q_j)
      + 4 nu2(nu2 - 1)       sum_j 1/sin^2(2 q_j)
      - n [ (nu1 + 2 nu2)^2 + 2 nu (nu1 + 2 nu2)(n - 1)
            + (2/3) nu^2 (n - 1)(2n - 1) ],

    so pair = 2 nu(nu-1), csc2 = nu1(nu1 + 2 nu2 - 1) + nu2(nu2 - 1),
    sec2 = nu2(nu2 - 1) and const is the bracketed term times -n.  The pair
    coefficient counts each unordered pair once; each pair factor
    contributes second derivatives through two angles.
    """
    ss = nu1 + 2.0 * nu2
    bracket = ss**2 + 2.0 * nu * ss * (n - 1) + (2.0 / 3.0) * nu**2 * (n - 1) * (2 * n - 1)
    return RootSeries(2.0 * nu * (nu - 1.0), nu1 * (ss - 1.0) + nu2 * (nu2 - 1.0),
                      nu2 * (nu2 - 1.0), -n * bracket)


def max_alcove_rank(margin: float = WALL_MARGIN) -> int:
    """Largest n for which n angles fit `margin` apart and `margin` from the
    alcove walls (30 at WALL_MARGIN)."""
    return math.floor((math.pi / 2 - 2 * margin) / margin) + 1


def sample_alcove(
    n: int, rng: np.random.Generator, margin: float = WALL_MARGIN
) -> np.ndarray:
    """Draw one interior alcove point with the given margin from all walls."""
    if n > max_alcove_rank(margin):
        raise ValueError(f"margin {margin} leaves no room for {n} angles")
    lo, hi = margin, math.pi / 2 - margin
    while True:
        q = np.sort(rng.uniform(lo, hi, size=n))
        if n == 1 or np.min(np.diff(q)) >= margin:
            return q


__all__ = [
    "BasisLabel",
    "FAMILIES",
    "KPerpBasis",
    "Root",
    "RootSeries",
    "WALL_MARGIN",
    "build_kperp_basis",
    "build_m_basis",
    "inertia_eigenvalues",
    "inertia_matrix",
    "interior_margin",
    "log_density",
    "log_laplacian_fd",
    "max_alcove_rank",
    "measure_factor",
    "nu_triple",
    "sample_alcove",
    "sutherland_rhs",
]
