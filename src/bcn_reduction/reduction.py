"""The three representation-ansatz cases and the reduced-Hamiltonian identity.

Each case attaches to its scheme a family of symmetry-group representations
built from one symmetric power on the largest unitary factor and determinant
powers on the rest.  For admissible parameter values the centralizer-fixed
subspace is one-dimensional, the spin contraction collapses to a scalar
potential, and the reduced radial operator must equal the trigonometric
BC_n Sutherland Hamiltonian up to an additive constant:

    measure_factor(scheme).at(q) - SpinContraction(scheme, raw).at(q)
        = bc_potential(couplings).at(q) + constant

pointwise on the alcove (the kinetic parts agree identically); the closed
forms are `RootSeries`.  This module hosts the parameter bookkeeping
(`CASES` maps each case to its free-parameter class, whose fields span the
grids and name the CLI flags and whose `to_raw` alone gives a1), closed-form
and brute-force admissibility, the spin contraction, the coupling maps, and
the end-to-end verification.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import TYPE_CHECKING, Iterator, Optional, Union

import numpy as np

from .algebra import AlgebraPair, Scheme, factor_split
from .fock import FockSpace, fock_space, gl_matrix
from .polar import (
    KPerpBasis,
    RootSeries,
    build_kperp_basis,
    build_m_basis,
    inertia_eigenvalues,
    measure_factor,
    sample_alcove,
)

if TYPE_CHECKING:
    from scipy import sparse

DEFAULT_SEED = 7

#: relative singular-value threshold for kernel detection
KERNEL_RTOL = 1e-9

#: refuse brute-force kernels beyond this representation dimension
BRUTE_FORCE_DIM_GUARD = 100_000


@dataclass(frozen=True)
class RawParams:
    """Bare representation labels: symmetric-power degree a1 plus the four
    determinant powers, one per unitary factor."""

    case: str
    a1: int
    k_l1: int
    k_l2: int
    k_r1: int
    k_r2: int

    def __post_init__(self) -> None:
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.a1 < 0:
            raise ValueError("a1 must be non-negative")

    @property
    def k_sum(self) -> int:
        return self.k_l1 + self.k_l2 + self.k_r1 + self.k_r2

    @property
    def ks(self) -> tuple[int, int, int, int]:
        """The determinant powers (k_l1, k_l2, k_r1, k_r2)."""
        return self.k_l1, self.k_l2, self.k_r1, self.k_r2


@dataclass(frozen=True)
class CaseIParams:
    """Free parameters of the N = 2n ansatz; the fourth determinant power is
    fixed by the zero-sum condition."""

    gamma: int
    k_l1: int
    k_l2: int
    k_r1: int
    case = "I"
    reason = "determinant powers must sum to zero"

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def to_raw(self, n: int) -> RawParams:
        return RawParams(
            "I",
            a1=self.gamma * n,
            k_l1=self.k_l1,
            k_l2=self.k_l2,
            k_r1=self.k_r1,
            k_r2=-(self.k_l1 + self.k_l2 + self.k_r1),
        )


@dataclass(frozen=True)
class CaseIIParams:
    """Free parameters of the N = 2n+1 ansatz (two occupation numbers and the
    two right determinant powers)."""

    gamma: int
    gamma_tilde: int
    k_r1: int
    k_r2: int
    case = "II"
    reason = "weight and central-character conditions"

    def __post_init__(self) -> None:
        if self.gamma < 0 or self.gamma_tilde < 0:
            raise ValueError("occupation parameters must be non-negative")

    def to_raw(self, n: int) -> RawParams:
        diff = self.gamma_tilde - self.gamma
        rem = diff % (n + 1)  # unique non-negative remainder
        quo = (diff - rem) // (n + 1)
        return RawParams(
            "II",
            a1=self.gamma * n + self.gamma_tilde,
            k_l1=quo - diff - self.k_r1,
            k_l2=diff - self.k_r2,
            k_r1=self.k_r1,
            k_r2=self.k_r2,
        )


@dataclass(frozen=True)
class CaseIIIParams:
    """Free parameters of the N = 2n+2 ansatz (three occupation numbers and
    one determinant power)."""

    gamma: int
    gamma_tilde: int
    gamma_hat: int
    k: int
    case = "III"
    reason = "weight and central-character conditions"

    def __post_init__(self) -> None:
        if min(self.gamma, self.gamma_tilde, self.gamma_hat) < 0:
            raise ValueError("occupation parameters must be non-negative")

    def to_raw(self, n: int) -> RawParams:
        a1 = self.gamma * n + self.gamma_tilde + self.gamma_hat
        rem = a1 % (n + 2)
        quo = (a1 - rem) // (n + 2)
        return RawParams(
            "III",
            a1=a1,
            k_l1=self.k,
            k_l2=self.gamma_tilde - self.gamma_hat + self.k,
            k_r1=quo - self.gamma_tilde - self.k,
            k_r2=self.gamma_hat - self.gamma - self.k,
        )


KKSParams = Union[CaseIParams, CaseIIParams, CaseIIIParams]

#: the free-parameter class of each case; `reason` says what fixes the rest
CASES = {p.case: p for p in (CaseIParams, CaseIIParams, CaseIIIParams)}


@dataclass(frozen=True)
class VKResult:
    """Dimension of the centralizer-fixed subspace plus the occupation
    states spanning it (reported when they align with basis states)."""

    dimension: int
    states: tuple[tuple[int, ...], ...] = ()
    reason: Optional[str] = None  # violated condition when dimension is 0


@dataclass(frozen=True)
class Couplings:
    """Sutherland couplings (a, b, c) and the additive constant."""

    a: int
    b: int
    c: int
    constant: Fraction


@dataclass(frozen=True)
class MuParams:
    """Root-multiplicity parameters: pair roots a+1, short roots b-c, long
    roots c+1/2."""

    pair: Fraction
    short: Fraction
    long: Fraction


def scheme_for(case: str, n: int) -> Scheme:
    return Scheme.of_case(case, n)


def to_raw(scheme: Scheme, params: "KKSParams | RawParams") -> RawParams:
    if isinstance(params, RawParams):
        raw = params
    else:
        raw = params.to_raw(scheme.n)
    if raw.case != scheme.case_tag:
        raise ValueError(f"params are case {raw.case}, scheme is {scheme.case_tag}")
    return raw


def rep_space(scheme: Scheme, raw: RawParams) -> FockSpace:
    return fock_space(scheme.m, raw.a1)


def brute_force_refusal(modes: int, a1: int) -> Optional[str]:
    """Why the brute-force kernels refuse the level-a1 Fock space on `modes`
    modes (its dimension is above BRUTE_FORCE_DIM_GUARD, or a1 + 1, the
    fock suite's top level, is above the int64 range of
    `FockSpace.occupations`), or None when they accept it."""
    if a1 >= 2**63 - 1:  # the int64 maximum
        return f"level {a1} reaches the int64 limit of the occupations"
    dim = math.comb(a1 + modes - 1, a1)
    if dim > BRUTE_FORCE_DIM_GUARD:
        return f"dimension {dim} above the brute-force guard {BRUTE_FORCE_DIM_GUARD}"
    return None


def _pair_action(
    scheme: Scheme, a1: int, pair: AlgebraPair
) -> tuple[np.ndarray, np.ndarray, "complex | np.ndarray"]:
    """rho'(pair) as (z, traces, shift): z is the traceless part of the large
    factor's block, traces the four factor traces, shift = (a1 mod m) *
    traces[slot] / m.  The oscillator modes are the m of the scheme; the large
    factor is the first left one when r = m (cases I, II) and the first right
    one otherwise (case III).  With determinant powers k, on an occupation state

        rho'(pair)|l> = sum_{i != j} z_ij sqrt(l_j (l_i + 1)) |l + e_i - e_j>
                        + (diag(z).l + k.traces + shift) |l>

    The pair may be a stack, components (..., N, N), such as a whole basis:
    then z has shape (..., m, m), traces (..., 4) and shift (...).
    """
    blocks = factor_split(scheme, pair)
    modes = scheme.m
    slot = 0 if scheme.r == modes else 2
    traces = np.stack([np.trace(b, axis1=-2, axis2=-1) for b in blocks], axis=-1)
    lead = traces[..., slot]
    z = blocks[slot] - (lead / modes)[..., None, None] * np.eye(modes)
    return z, traces, (a1 % modes) * lead / modes


def rho_prime_pair(
    scheme: Scheme, raw: RawParams, pair: AlgebraPair
) -> sparse.csr_matrix:
    """Derived representation of one pair on `rep_space`; oracle of `_pair_action`.

    The largest factor acts through the oscillator realization of its
    traceless part; all four factors contribute trace scalars weighted by
    their determinant powers, with the congruence label correcting the large
    factor.  Linear in the pair and anti-Hermitian on anti-Hermitian input.
    """
    from scipy import sparse
    raw = to_raw(scheme, raw)
    z, traces, shift = _pair_action(scheme, raw.a1, pair)
    space = rep_space(scheme, raw)
    scalar = np.dot(raw.ks, traces) + shift
    eye = sparse.identity(space.dim, dtype=complex, format="csr")
    return (gl_matrix(space, z) + scalar * eye).tocsr()


#: the closed-form admissibility conditions of each case, in the order
#: `_admissibility` tests them; a cell reports the first one it fails
_CONDITIONS = {
    "I": ("a1 must be a multiple of n", "determinant powers must sum to zero"),
    "II": ("a1 - (k_l2 + k_r2) must be divisible by n+1",
           "occupation numbers would be negative", "central-character balance fails"),
    "III": ("weight equation has no integer solution",
            "occupation numbers would be negative", "central-character balance fails"),
}


def _admissibility(
    case: str, n: int, a1: int, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form admissibility of every row of a (cells, 4) integer array of
    determinant powers (k_l1, k_l2, k_r1, k_r2) at fixed a1.

    Returns, per cell, the predicted fixed-subspace dimension (0 or 1), the
    occupation state (cells, modes) -- the unique fixed state where the
    dimension is 1 -- and the index in `_CONDITIONS[case]` of the first failed
    condition (-1 where none fails).  An object-dtype `ks` keeps the
    arithmetic exact for any Python int.
    """
    kl1, kl2, kr1, kr2 = ks.T
    if case == "I":
        gamma = np.full_like(kl1, a1 // n)
        occ = [gamma] * n
        conds = [gamma * n == a1, kl1 + kl2 + kr1 + kr2 == 0]
    elif case == "II":
        p = n + 1
        kap1, kap2 = kl1 + kr1, kl2 + kr2
        gamma = (a1 - kap2) // p
        gamma_t = gamma + kap2
        occ = [gamma] * n + [gamma_t]
        conds = [(a1 - kap2) % p == 0, (gamma >= 0) & (gamma_t >= 0),
                 a1 % p + p * kap1 + n * kap2 == 0]
    else:
        p = n + 2
        num = a1 + n * (kl1 + kr2) - kl2 + kl1
        gamma_h = num // p
        gamma = gamma_h - kl1 - kr2
        gamma_t = gamma_h + kl2 - kl1
        occ = [gamma] * n + [gamma_t, gamma_h]
        conds = [num % p == 0, (gamma >= 0) & (gamma_t >= 0) & (gamma_h >= 0),
                 a1 % p + p * kr1 + (n + 1) * (kl1 + kl2) + n * kr2 == 0]
    ok = np.array(conds, dtype=bool)
    admissible = ok.all(axis=0)
    failed = np.where(admissible, -1, np.argmin(ok, axis=0))
    return admissible.astype(np.int64), np.stack(occ, axis=1), failed


def vk_predicted(scheme: Scheme, raw: RawParams) -> VKResult:
    """Closed-form admissibility test, evaluated exactly over the integers.

    Returns the predicted fixed-subspace dimension (0 or 1) and, when 1, the
    unique occupation state; `reason` names the first violated condition
    otherwise.  This is `_admissibility` on a one-row object array.
    """
    raw = to_raw(scheme, raw)
    dim, occ, failed = _admissibility(raw.case, scheme.n, raw.a1,
                                      np.array([raw.ks], dtype=object))
    if dim[0]:
        return VKResult(1, (tuple(occ[0].tolist()),))
    return VKResult(0, reason=_CONDITIONS[raw.case][failed[0]])


def vk_bruteforce(scheme: Scheme, raw: RawParams, method: str = "columns") -> VKResult:
    """Fixed-subspace dimension by direct kernel computation.

    Stacks the derived-representation operators of a centralizer basis and
    counts singular values below KERNEL_RTOL times the largest one (floored
    at 1).  With method="columns" this is `_grid_nullity_batch` on a
    one-cell grid: the operators are diagonal in the occupation basis, so the
    singular values are column norms and memory stays linear in the
    dimension.  method="svd" is the independent oracle: a dense SVD of the
    stacked operators.
    """
    raw = to_raw(scheme, raw)
    refusal = brute_force_refusal(scheme.m, raw.a1)
    if refusal:
        raise ValueError(refusal)
    if method == "columns":
        kgrid = np.array([raw.ks], dtype=float)
        nullity, states = _grid_nullity_batch(scheme, raw.a1, kgrid)
        return VKResult(int(nullity[0]), states[0])
    if method != "svd":
        raise ValueError(f"unknown method {method!r}")

    space = rep_space(scheme, raw)
    stacked = np.vstack([rho_prime_pair(scheme, raw, AlgebraPair(lmat, lmat)).toarray()
                         for lmat in build_m_basis(scheme)])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    tol = KERNEL_RTOL * max(float(svals.max()), 1.0) if svals.size else 1.0
    rank = int(np.sum(svals > tol))
    states = []
    for row in vh[rank:]:
        i = int(np.argmax(np.abs(row)))
        if abs(abs(row[i]) - 1.0) <= 1e-9:
            states.append(space.states[i])
    return VKResult(space.dim - rank, tuple(sorted(states)))


class SpinContraction:
    """Spin term of one admissible representation, ready to evaluate.

    The inertia-weighted contraction over the orbit-direction basis
    collapses, for the diagonalizing basis, to

        sum_alpha <v, rho'(T_alpha)^2 v> / lambda_alpha(q)

    with v the unit vector spanning the fixed subspace.  The state-dependent
    weights are computed once; only the eigenvalues depend on q.  For v the
    occupation state l and (z, traces, shift) from `_pair_action`, the hops
    reach distinct states, so, with no Fock space built, the weight of T_alpha is

        -(sum_{i != j} |z_ij|^2 l_j (l_i + 1) + |diag(z).l + k.traces + shift|^2)

    One `_pair_action` call on the whole orbit-direction basis, as a stacked
    pair, gives every weight at once.
    """

    def __init__(self, scheme: Scheme, raw: RawParams):
        raw = to_raw(scheme, raw)
        vk = vk_predicted(scheme, raw)
        if vk.dimension != 1:
            raise ValueError(f"parameters are not admissible: {vk.reason}")
        self.scheme = scheme
        self.raw = raw
        self.state = vk.states[0]
        self.basis: KPerpBasis = build_kperp_basis(scheme)
        occ = np.array(self.state, dtype=float)
        z, traces, shift = _pair_action(
            scheme, raw.a1, AlgebraPair(self.basis.left, self.basis.right))
        on_diag = np.diagonal(z, axis1=-2, axis2=-1)
        hops = np.abs(z) ** 2 * (1.0 - np.eye(scheme.m))
        diag = on_diag @ occ + traces @ np.array(raw.ks, dtype=float) + shift
        # <v, op^2 v> = -|op v|^2 for anti-Hermitian op
        self.weights = -((occ + 1.0) @ hops @ occ + np.abs(diag) ** 2)

    def at(self, pt) -> np.ndarray:
        """Spin term at q of shape (..., n): one value per point."""
        return np.sum(self.weights / inertia_eigenvalues(self.basis, pt), axis=-1)


def case1_spin_closed(n: int, params: CaseIParams) -> RootSeries:
    """Closed form of the case-I spin term in rank n, with g = params.gamma:
    pair = -g(g+1), csc2 = -(k_l1 + k_r1)^2/2, sec2 = -(k_l2 + k_r1)^2/2 and
    const = -n (k_l1 + k_l2)^2/2."""
    g, kl1, kl2, kr1 = params.gamma, params.k_l1, params.k_l2, params.k_r1
    return RootSeries(-g * (g + 1), -0.5 * (kl1 + kr1) ** 2, -0.5 * (kl2 + kr1) ** 2,
                      -0.5 * n * (kl1 + kl2) ** 2)


def _coupling_columns(case: str, n: int, free) -> tuple:
    """Couplings a, b, c and 6 * constant of the free-parameter fields `free`
    (ints, or int columns over cells); the constant is a whole number of
    sixths.  With g = gamma, gt = gamma_tilde, gh = gamma_hat:

        I    a = g, b = |k_l1 + k_r1|, c = |k_l2 + k_r1|,
             constant = n (k_l1 + k_l2)^2/2 - n (2n-1)(2n+1)/6
        II   a = g, b = g + gt + 1, c = |gt - g + k_r1 - k_r2|,
             constant = n (k_r1 + k_r2)^2/2 + k_r1^2 - n (n+1)(2n+1)/3
        III  a = g, b = g + gt + 1, c = g + gh + 1,
             constant = -n (4n^2 + 12n + 11)/6 + n (2k + gt - gh)^2/2
                        + (gt + k)(gt + k + 1) + (gh - k)(gh - k + 1)
    """
    if case == "I":
        g, kl1, kl2, kr1 = free
        return (g, abs(kl1 + kr1), abs(kl2 + kr1),
                3 * n * (kl1 + kl2) ** 2 - n * (2 * n - 1) * (2 * n + 1))
    if case == "II":
        g, gt, kr1, kr2 = free
        return (g, g + gt + 1, abs(gt - g + kr1 - kr2),
                3 * n * (kr1 + kr2) ** 2 + 6 * kr1**2 - 2 * n * (n + 1) * (2 * n + 1))
    if case == "III":
        g, gt, gh, k = free
        return (g, g + gt + 1, g + gh + 1,
                -n * (4 * n**2 + 12 * n + 11) + 3 * n * (2 * k + gt - gh) ** 2
                + 6 * (gt + k) * (gt + k + 1) + 6 * (gh - k) * (gh - k + 1))
    raise ValueError(f"unknown case {case!r}")


def couplings(n: int, params: KKSParams) -> Couplings:
    """Sutherland couplings and additive constant of an admissible family."""
    a, b, c, sixths = _coupling_columns(params.case, n, vars(params).values())
    return Couplings(a, b, c, Fraction(sixths, 6))


def _free_fields(case: str, n: int, ks, occ) -> tuple:
    """Fields of the free parameters of an admissible label set, in class
    order, from its powers ks = (k_l1, k_l2, k_r1, k_r2) and its fixed
    occupation state occ; the entries are ints, or columns over cells."""
    if case == "I":
        return occ[0], ks[0], ks[1], ks[2]
    if case == "II":
        return occ[0], occ[n], ks[2], ks[3]
    return occ[0], occ[n], occ[n + 1], ks[0]


def params_from_raw(scheme: Scheme, raw: RawParams) -> KKSParams:
    """Recover the free parametrization of an admissible raw label set."""
    vk = vk_predicted(scheme, raw)
    if vk.dimension != 1:
        raise ValueError(f"parameters are not admissible: {vk.reason}")
    return CASES[raw.case](*_free_fields(raw.case, scheme.n, raw.ks, vk.states[0]))


def mu_params(coup: Couplings) -> MuParams:
    return MuParams(
        pair=Fraction(coup.a + 1),
        short=Fraction(coup.b - coup.c),
        long=coup.c + Fraction(1, 2),
    )


def bc_potential(coup: "Couplings | tuple[int, int, int]") -> RootSeries:
    """Trigonometric Sutherland potential with couplings (a, b, c).

    Pair terms a(a+1)/sin^2(q_k -+ q_l) over k < l, plus half of
    (b^2 - 1/4)/sin^2(q_j) and (c^2 - 1/4)/cos^2(q_j) per angle: pair =
    a(a+1), csc2 = (b^2 - 1/4)/2, sec2 = (c^2 - 1/4)/2 and const = 0.
    """
    if isinstance(coup, Couplings):
        a, b, c = coup.a, coup.b, coup.c
    else:
        a, b, c = coup
    return RootSeries(a * (a + 1), 0.5 * (b**2 - 0.25), 0.5 * (c**2 - 0.25), 0.0)


def max_or_nan(a: float, b: float) -> float:
    """max(a, b), but NaN when either is NaN (the builtin max(0.0, nan) is 0.0)."""
    return b if b != b or b > a else a


@dataclass(frozen=True)
class SampleResidual:
    q: tuple[float, ...]
    lhs: float  # measure factor minus spin term
    rhs: float  # potential plus constant
    rel_err: float


@dataclass(frozen=True)
class ReductionReport:
    scheme: Scheme
    raw: RawParams
    couplings: Couplings
    samples: tuple[SampleResidual, ...]
    tol: float
    seed: int

    @property
    def max_rel_err(self) -> float:
        return reduce(max_or_nan, (s.rel_err for s in self.samples))

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def verify_reduction(
    scheme: Scheme,
    params: "KKSParams | RawParams",
    samples: int = 20,
    tol: float = 1e-8,
    seed: int = DEFAULT_SEED,
) -> ReductionReport:
    """Check the reduced-Hamiltonian identity at seeded random alcove points.

    At every sample q the measure factor minus the spin term must equal the
    Sutherland potential plus the case constant; the kinetic parts agree
    identically and are not sampled.  Sample points keep a 0.05 margin from
    all alcove walls; they are drawn one at a time and evaluated as one
    (samples, n) batch.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    raw = to_raw(scheme, params)
    free = params_from_raw(scheme, raw)
    coup = couplings(scheme.n, free)
    contraction = SpinContraction(scheme, raw)
    rng = np.random.default_rng(seed)
    q = np.array([sample_alcove(scheme.n, rng) for _ in range(samples)])
    lhs = measure_factor(scheme).at(q) - contraction.at(q)
    rhs = bc_potential(coup).at(q) + float(coup.constant)
    rel = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    rows = map(SampleResidual, map(tuple, q.tolist()), lhs.tolist(), rhs.tolist(),
               rel.tolist())
    return ReductionReport(scheme, raw, coup, tuple(rows), tol, seed)


# ---------------------------------------------------------------------------
# grid enumeration


@dataclass(frozen=True)
class GridCell:
    raw: RawParams
    predicted: VKResult
    brute_dimension: Optional[int] = None
    brute_states: Optional[tuple[tuple[int, ...], ...]] = None
    couplings: Optional[Couplings] = None


@dataclass(frozen=True, eq=False)
class Grid(Sequence):
    """Every cell of one enumerated grid, as columns over the cells.

    Indexing or iterating builds a `GridCell` per cell on demand; the columns
    are what `enumerate` reports from.  Rows of `states` and `couplings` carry
    meaning only where `dimension` is 1 (the couplings are 0 elsewhere).
    """

    case: str
    n: int
    labels: np.ndarray  # (cells, 5): a1, k_l1, k_l2, k_r1, k_r2
    dimension: np.ndarray  # (cells,): predicted fixed-subspace dimension, 0 or 1
    states: np.ndarray  # (cells, modes): the fixed occupation state
    failed: np.ndarray  # (cells,): first failed condition (`_CONDITIONS`), or -1
    couplings: np.ndarray  # (cells, 4): a, b, c and 6 * constant
    brute_dimension: Optional[np.ndarray] = None  # (cells,) with brute=True
    brute_states: Optional[list[tuple[tuple[int, ...], ...]]] = None  # per cell

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> GridCell:
        i = range(len(self))[i]
        if self.dimension[i]:
            predicted = VKResult(1, (tuple(self.states[i].tolist()),))
            a, b, c, sixths = self.couplings[i].tolist()
            coup = Couplings(a, b, c, Fraction(sixths, 6))
        else:
            predicted = VKResult(0, reason=_CONDITIONS[self.case][self.failed[i]])
            coup = None
        brute = self.brute_dimension is not None
        return GridCell(RawParams(self.case, *self.labels[i].tolist()), predicted,
                        int(self.brute_dimension[i]) if brute else None,
                        self.brute_states[i] if brute else None, coup)


def _free_grid(case: str, gamma_max: int, k_bound: int) -> Iterator[KKSParams]:
    """Every free-parameter set of one case: a gamma* field runs over
    [0, gamma_max], any other field over [-k_bound, k_bound]."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    cls = CASES[case]
    ranges = [range(gamma_max + 1) if f.name.startswith("gamma")
              else range(-k_bound, k_bound + 1) for f in fields(cls)]
    return (cls(*values) for values in product(*ranges))


def _a1_width(case: str, gamma_max: int) -> int:
    """Width w of the intervals of a1 values that occupation fields in
    [0, gamma_max] reach.

    Every `to_raw` makes a1 n times the first gamma* field plus the others,
    so the reachable a1 are the union of the gamma_max + 1 intervals
    [g n, g n + w], g = 0 .. gamma_max, where w is gamma_max times the number
    of the other gamma* fields: 0, gamma_max and 2 gamma_max in cases I-III.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    return gamma_max * (sum(f.name.startswith("gamma") for f in fields(CASES[case])) - 1)


def _a1_values(case: str, n: int, gamma_max: int) -> list[int]:
    w = _a1_width(case, gamma_max)
    if w + 1 >= n:  # the intervals touch or overlap
        return list(range(gamma_max * n + w + 1))
    return [g * n + t for g in range(gamma_max + 1) for t in range(w + 1)]


def grid_size(case: str, n: int, gamma_max: int, k_bound: int) -> int:
    """Cells of the grid `enumerate_grid` spans, counted in closed form: the
    a1 values number gamma_max n + w + 1 when w + 1 >= n (`_a1_width`), else
    (gamma_max + 1)(w + 1), so none is listed."""
    w = _a1_width(case, gamma_max)
    a1s = gamma_max * n + w + 1 if w + 1 >= n else (gamma_max + 1) * (w + 1)
    return a1s * (2 * k_bound + 1) ** 4


#: largest (cells, states) block `_grid_nullity_batch` holds at once, in elements
_KERNEL_BLOCK = 1 << 20


def _grid_nullity_batch(
    scheme: Scheme, a1: int, kgrid: np.ndarray
) -> tuple[np.ndarray, list[tuple[tuple[int, ...], ...]]]:
    """Brute-force nullities for every determinant-power tuple at fixed a1.

    Builds the diagonals of the centralizer operators from one `_pair_action`
    call on the stacked centralizer basis (diagonal in the occupation basis
    for these cases, so the stacked operator has orthogonal columns and its
    singular values are the column norms), then sweeps the scalar offsets
    over the k-grid in blocks of at most _KERNEL_BLOCK (cell, state) pairs,
    adding the squared column norms one operator at a time, so memory does
    not grow with the grid.  Returns the nullity per cell and, per cell, the
    kernel states.
    """
    space = fock_space(scheme.m, a1)
    occ = space.occupations.astype(float)
    m_basis = build_m_basis(scheme)
    z, traces, shift = _pair_action(scheme, a1, AlgebraPair(m_basis, m_basis))
    if np.abs(z[:, ~np.eye(scheme.m, dtype=bool)]).max(initial=0.0) > 1e-13:
        raise AssertionError("centralizer basis is not diagonal; use method='svd'")
    w = np.diagonal(z, axis1=-2, axis2=-1)
    base = w.imag @ occ.T + shift.imag[:, None]  # (n_ops, dim)
    offsets = kgrid @ traces.imag.T  # (cells, n_ops)
    nullity = np.empty(len(kgrid), dtype=np.int64)
    states: list[tuple[tuple[int, ...], ...]] = [()] * len(kgrid)
    step = max(1, _KERNEL_BLOCK // space.dim)
    for start in range(0, len(kgrid), step):
        block = offsets[start:start + step]
        sq = np.zeros((len(block), space.dim))
        term = np.empty_like(sq)
        for op, row in enumerate(base):
            np.add(block[:, op, None], row, out=term)
            sq += np.square(term, out=term)
        svals = np.sqrt(sq, out=sq)  # per-state singular values
        tol = KERNEL_RTOL * np.maximum(svals.max(axis=1), 1.0)
        null_mask = svals <= tol[:, None]
        nullity[start:start + step] = null_mask.sum(axis=1)
        for cell, i in zip(*np.nonzero(null_mask)):
            states[start + cell] += (space.states[i],)
    return nullity, states


def enumerate_grid(
    case: str,
    n: int,
    gamma_max: int = 3,
    k_bound: int = 3,
    brute: bool = False,
) -> Grid:
    """Exhaust the raw parameter grid of one case, as integer arrays.

    a1 runs over the values reachable from occupation parameters up to
    gamma_max; each determinant power runs over [-k_bound, k_bound].  Cells
    are sorted by (a1, k_l1, k_l2, k_r1, k_r2).  `_admissibility` classifies
    every k-row at one a1 in one call, and the couplings of the admissible
    cells come from its occupations.  With brute=True every cell also
    carries the brute-force kernel dimension and states.  Negative bounds,
    and with brute=True a largest a1 that `brute_force_refusal` refuses,
    raise ValueError before any work.
    """
    for name, value in (("gamma_max", gamma_max), ("k_bound", k_bound)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    scheme = scheme_for(case, n)
    a1s = _a1_values(case, n, gamma_max)
    refusal = brute and brute_force_refusal(scheme.m, a1s[-1])
    if refusal:
        raise ValueError(refusal)
    kgrid = np.array(list(product(range(-k_bound, k_bound + 1), repeat=4)))
    columns = [_admissibility(case, n, a1, kgrid) for a1 in a1s]
    dimension, states, failed = (np.concatenate(col) for col in zip(*columns))
    labels = np.column_stack([np.repeat(a1s, len(kgrid)), np.tile(kgrid, (len(a1s), 1))])
    adm = dimension == 1
    coup = np.zeros((len(labels), 4), dtype=np.int64)
    free = _free_fields(case, n, labels[adm, 1:].T, states[adm].T)
    coup[adm] = np.column_stack(_coupling_columns(case, n, free))
    brute_dimension = brute_states = None
    if brute:
        batches = [_grid_nullity_batch(scheme, a1, kgrid) for a1 in a1s]
        brute_dimension = np.concatenate([nullity for nullity, _ in batches])
        brute_states = [cell for _, states in batches for cell in states]
    return Grid(case, n, labels, dimension, states, failed, coup,
                brute_dimension, brute_states)


def attainable_couplings(
    case: str, n: int, gamma_max: int = 3, k_bound: int = 3
) -> set[tuple[int, int, int]]:
    """Coupling triples realized by the free-parameter grid of one case."""
    coups = (couplings(n, p) for p in _free_grid(case, gamma_max, k_bound))
    return {(c.a, c.b, c.c) for c in coups}


__all__ = [
    "BRUTE_FORCE_DIM_GUARD",
    "CASES",
    "CaseIParams",
    "CaseIIParams",
    "CaseIIIParams",
    "Couplings",
    "DEFAULT_SEED",
    "Grid",
    "GridCell",
    "KKSParams",
    "MuParams",
    "RawParams",
    "ReductionReport",
    "SampleResidual",
    "SpinContraction",
    "attainable_couplings",
    "bc_potential",
    "brute_force_refusal",
    "case1_spin_closed",
    "couplings",
    "enumerate_grid",
    "grid_size",
    "max_or_nan",
    "mu_params",
    "params_from_raw",
    "rep_space",
    "rho_prime_pair",
    "scheme_for",
    "to_raw",
    "verify_reduction",
    "vk_bruteforce",
    "vk_predicted",
]
