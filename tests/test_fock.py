import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bcn_reduction.fock import (
    annihilation_op,
    creation_op,
    fock_space,
    fock_states,
    gl_action,
    gl_matrix,
)


class TestStates:
    def test_lexicographic_order(self):
        assert fock_states(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_dimensions_binomial(self):
        for modes in range(1, 7):
            for level in range(0, 13):
                space = fock_space(modes, level)
                assert space.dim == math.comb(level + modes - 1, modes - 1)

    def test_single_mode(self):
        assert fock_states(1, 5) == [(5,)]
        assert fock_states(1, 10**18) == [(10**18,)]  # no range(level) is listed


class TestLadderOperators:
    def test_annihilation_coefficient(self):
        space = fock_space(2, 2)
        target = fock_space(2, 1)
        op = annihilation_op(space, 1)
        v = op @ space.state_vector((1, 1))
        want = target.state_vector((1, 0))
        assert np.allclose(v, want, atol=0)

    def test_creation_coefficient(self):
        space = fock_space(2, 1)
        target = fock_space(2, 2)
        v = creation_op(space, 0) @ space.state_vector((1, 0))
        want = math.sqrt(2) * target.state_vector((2, 0))
        assert np.allclose(v, want, atol=1e-15)

    def test_adjointness(self):
        space = fock_space(3, 2)
        up = fock_space(3, 3)
        for mode in range(3):
            c = creation_op(space, mode).toarray()
            a = annihilation_op(up, mode).toarray()
            assert np.abs(c - a.conj().T).max() == 0.0

    def test_commutator_identity_level2(self):
        space = fock_space(2, 2)
        up = fock_space(2, 3)
        down = fock_space(2, 1)
        comm = (
            annihilation_op(up, 0) @ creation_op(space, 0)
            - creation_op(down, 0) @ annihilation_op(space, 0)
        ).toarray()
        assert np.abs(comm - np.eye(3)).max() <= 1e-12

    @given(
        modes=st.integers(1, 4),
        level=st.integers(0, 5),
        i=st.integers(0, 3),
        j=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_canonical_commutators(self, modes, level, i, j):
        i, j = i % modes, j % modes
        space = fock_space(modes, level)
        up = fock_space(modes, level + 1)
        comm = annihilation_op(up, i) @ creation_op(space, j)
        if level > 0:
            down = fock_space(modes, level - 1)
            comm = comm - creation_op(down, j) @ annihilation_op(space, i)
        want = np.eye(space.dim) if i == j else np.zeros((space.dim, space.dim))
        assert np.abs(comm.toarray() - want).max() <= 1e-12


class TestGlAction:
    def test_number_operator_diagonal(self):
        space = fock_space(3, 4)
        op = gl_action(space, 0, 0).toarray()
        assert np.allclose(op, np.diag(space.occupations[:, 0]), atol=0)

    def test_transfer_example(self):
        space = fock_space(2, 2)
        v = gl_action(space, 0, 1) @ space.state_vector((1, 1))
        want = math.sqrt(2) * space.state_vector((2, 0))
        assert np.allclose(v, want, atol=1e-15)

    def test_level_preserved(self):
        space = fock_space(3, 5)
        occ = space.occupations
        for i in range(3):
            for j in range(3):
                op = gl_action(space, i, j).tocoo()
                for r, c in zip(op.row, op.col):
                    assert occ[r].sum() == occ[c].sum() == 5

    @given(data=st.data(), modes=st.integers(2, 4), level=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_lie_algebra_homomorphism(self, data, modes, level):
        idx = st.integers(0, modes - 1)
        i, j = data.draw(idx), data.draw(idx)
        k, l = data.draw(idx), data.draw(idx)
        space = fock_space(modes, level)
        eij, ekl = np.zeros((modes, modes)), np.zeros((modes, modes))
        eij[i, j] = 1.0
        ekl[k, l] = 1.0
        lhs = gl_matrix(space, eij @ ekl - ekl @ eij).toarray()
        a, b = gl_action(space, i, j).toarray(), gl_action(space, k, l).toarray()
        assert np.abs(lhs - (a @ b - b @ a)).max() <= 1e-12

    def test_exchange_product_eigenvalue(self):
        # b_k† b_l b_l† b_k on the constant occupation state multiplies it
        # by g(g+1), exactly over the integers
        for modes, g in [(2, 1), (2, 4), (3, 2), (4, 3)]:
            space = fock_space(modes, g * modes)
            v = space.state_vector((g,) * modes)
            for k in range(modes):
                for l in range(modes):
                    if k == l:
                        continue
                    w = gl_action(space, k, l) @ (gl_action(space, l, k) @ v)
                    assert np.abs(w - g * (g + 1) * v).max() <= 1e-12 * g * (g + 1)

    def test_highest_weight_annihilated(self):
        for modes in (2, 3, 4):
            for level in (1, 3, 6):
                space = fock_space(modes, level)
                top = space.state_vector((level,) + (0,) * (modes - 1))
                for i in range(modes - 1):
                    assert np.abs(gl_action(space, i, i + 1) @ top).max() == 0.0


class TestWeights:
    def test_all_weight_spaces_one_dimensional(self):
        # the number operators b_i† b_i read off each state's weight; the
        # weights are the occupations and no two states share one
        for modes in (2, 3, 4):
            space = fock_space(modes, 5)
            weights = np.column_stack(
                [gl_action(space, i, i).diagonal() for i in range(modes)]
            )
            assert np.array_equal(weights, space.occupations)
            assert len(np.unique(weights, axis=0)) == space.dim
