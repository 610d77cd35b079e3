"""Bosonic oscillator realization of the symmetric-power representations.

The level-m subspace of an n-mode bosonic Fock space carries the u(n)
irreducible representation with highest weight m times the first fundamental
weight; every weight space is one-dimensional and is spanned by a single
occupation state.  Central characters, with the congruence label
mu = a1 mod n, are added by `reduction.rho_prime_pair`.  These operators are
the oracle for `reduction._pair_action`; scipy is imported only to build one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


def fock_states(modes: int, level: int) -> list[tuple[int, ...]]:
    """All occupation tuples with the given mode count and total, in
    ascending lexicographic order."""
    if modes < 1:
        raise ValueError("need at least one mode")
    if level < 0:
        raise ValueError("level must be non-negative")
    if modes == 1:  # combinations would first list range(level)
        return [(level,)]
    out = []
    for bars in combinations(range(level + modes - 1), modes - 1):
        edges = (-1,) + bars + (level + modes - 1,)
        out.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(modes)))
    return out


class FockSpace:
    """Fixed-level bosonic Fock space with an indexed occupation basis.

    Instances are immutable after construction and are safe to share.  Use
    `fock_space` to get cached instances.
    """

    def __init__(self, modes: int, level: int):
        self.modes = modes
        self.level = level
        self.states = tuple(fock_states(modes, level))
        self.index = {st: i for i, st in enumerate(self.states)}
        self.occupations = np.array(self.states, dtype=np.int64).reshape(
            len(self.states), modes
        )
        self.occupations.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:
        return f"FockSpace(modes={self.modes}, level={self.level}, dim={self.dim})"

    def state_vector(self, state: tuple[int, ...]) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[tuple(state)]] = 1.0
        return v


@lru_cache(maxsize=None)
def fock_space(modes: int, level: int) -> FockSpace:
    return FockSpace(modes, level)


def annihilation_op(space: FockSpace, mode: int) -> sparse.csr_matrix:
    """Mode annihilator as a map from `space` down one level.

    Matrix shape is (dim of level-1 space, dim of space); coefficients are
    sqrt(l_mode).  The level-0 source gives an empty-row matrix.
    """
    from scipy import sparse
    if not 0 <= mode < space.modes:
        raise ValueError(f"mode {mode} out of range")
    if space.level == 0:
        return sparse.csr_matrix((0, space.dim))
    target = fock_space(space.modes, space.level - 1)
    rows, cols, vals = [], [], []
    for j, st in enumerate(space.states):
        if st[mode] == 0:
            continue
        lowered = st[:mode] + (st[mode] - 1,) + st[mode + 1 :]
        rows.append(target.index[lowered])
        cols.append(j)
        vals.append(math.sqrt(st[mode]))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(target.dim, space.dim))


def creation_op(space: FockSpace, mode: int) -> sparse.csr_matrix:
    """Mode creator from `space` up one level; the adjoint of `annihilation_op`
    of the level above."""
    target = fock_space(space.modes, space.level + 1)
    return annihilation_op(target, mode).conj().T.tocsr()


def gl_action(space: FockSpace, i: int, j: int) -> sparse.csr_matrix:
    """Level-preserving operator b_i† b_j realizing the elementary matrix E_ij."""
    if not (0 <= i < space.modes and 0 <= j < space.modes):
        raise ValueError("mode index out of range")
    from scipy import sparse
    rows, cols, vals = [], [], []
    for col, st in enumerate(space.states):
        if st[j] == 0:
            continue
        if i == j:
            rows.append(col)
            cols.append(col)
            vals.append(float(st[j]))
            continue
        moved = list(st)
        moved[j] -= 1
        moved[i] += 1
        rows.append(space.index[tuple(moved)])
        cols.append(col)
        vals.append(math.sqrt(st[j] * (st[i] + 1)))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(space.dim, space.dim))


def gl_matrix(space: FockSpace, z: np.ndarray) -> sparse.csr_matrix:
    """Operator realizing an arbitrary complex matrix z through E_ij -> b_i† b_j."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (space.modes, space.modes):
        raise ValueError(f"expected {space.modes}x{space.modes} matrix")
    from scipy import sparse
    acc = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for i in range(space.modes):
        for j in range(space.modes):
            if z[i, j] != 0:
                acc = acc + z[i, j] * gl_action(space, i, j)
    return acc.tocsr()


__all__ = [
    "FockSpace",
    "annihilation_op",
    "creation_op",
    "fock_space",
    "fock_states",
    "gl_action",
    "gl_matrix",
]
