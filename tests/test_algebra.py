import math

import numpy as np
import pytest
from scipy.linalg import expm

from bcn_reduction.algebra import (
    AlgebraPair,
    Scheme,
    _angle_pairs,
    check_pair,
    factor_split,
    inner_y,
    pair_inner,
    radial_embed,
    radial_exp,
    u_basis,
)
from oracles import (
    apply_involution,
    grade_project,
    involution_matrix,
    random_antiherm,
    to_antiherm,
)

ALL_SCHEMES = [Scheme.of_case(c, n) for c in ("I", "II", "III") for n in (1, 2, 3)]
GENERIC = Scheme(m=5, n=2, r=4, s=3)


def real_rank(mats):
    """Real dimension of the span of complex matrices."""
    rows = [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
    return np.linalg.matrix_rank(np.array(rows), tol=1e-10)


class TestScheme:
    def test_case_shapes(self):
        assert Scheme.of_case("I", 2) == Scheme(2, 2, 2, 2)
        assert Scheme.of_case("II", 2) == Scheme(3, 2, 3, 2)
        assert Scheme.of_case("III", 2) == Scheme(4, 2, 3, 3)

    def test_case_tags(self):
        for case in ("I", "II", "III"):
            assert Scheme.of_case(case, 3).case_tag == case
        assert GENERIC.case_tag == "generic"

    def test_invalid(self):
        with pytest.raises(ValueError):
            Scheme(1, 2, 1, 2)  # m < n
        with pytest.raises(ValueError):
            Scheme(3, 1, 2, 1)  # m + n != r + s

    def test_block_sizes_sum(self):
        for s in ALL_SCHEMES + [GENERIC]:
            assert sum(s.block_sizes) == s.N


class TestInvolution:
    def test_small_matrix(self):
        assert np.array_equal(involution_matrix(1, 1), np.diag([1.0, -1.0]))

    def test_no_negative_block(self):
        assert np.array_equal(involution_matrix(3, 0), np.eye(3))

    def test_involutive_conjugation(self):
        rng = np.random.default_rng(0)
        inv = involution_matrix(2, 1)
        for _ in range(10):
            x = random_antiherm(3, rng)
            twice = apply_involution(inv, apply_involution(inv, x))
            assert np.array_equal(twice, x)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            involution_matrix(1, 2)

    def test_isometry_of_trace_form(self):
        rng = np.random.default_rng(1)
        inv = involution_matrix(3, 2)
        for _ in range(5):
            x, z = random_antiherm(5, rng), random_antiherm(5, rng)
            lhs = inner_y(apply_involution(inv, x), apply_involution(inv, z))
            assert abs(lhs - inner_y(x, z)) <= 1e-13 * max(1, abs(inner_y(x, z)))

    def test_left_right_conjugations_commute(self):
        rng = np.random.default_rng(2)
        for s in ALL_SCHEMES + [GENERIC]:
            il = involution_matrix(s.r, s.s)
            ir = involution_matrix(s.m, s.n)
            x = random_antiherm(s.N, rng)
            a = apply_involution(il, apply_involution(ir, x))
            b = apply_involution(ir, apply_involution(il, x))
            assert np.array_equal(a, b)


class TestGradeProject:
    def test_partition_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for s in ALL_SCHEMES + [GENERIC]:
            x = random_antiherm(s.N, rng)
            parts = {b: grade_project(s, x, b) for b in ("++", "+-", "-+", "--")}
            total = sum(parts.values())
            assert np.abs(total - x).max() <= 1e-15
            vals = list(parts.values())
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(inner_y(vals[i], vals[j])) <= 1e-13

    def test_idempotent_on_member(self):
        rng = np.random.default_rng(4)
        s = Scheme.of_case("III", 2)
        x = grade_project(s, random_antiherm(s.N, rng), "++")
        assert np.abs(grade_project(s, x, "++") - x).max() == 0.0
        for other in ("+-", "-+", "--"):
            assert np.abs(grade_project(s, x, other)).max() == 0.0

    def test_case1_lowest_block_real_dimension(self):
        # two free real parameters for a 1x1 complex corner block
        s = Scheme.of_case("I", 1)
        imgs = [grade_project(s, b, "--") for b in u_basis(2)]
        assert real_rank(imgs) == 2

    def test_generic_mixed_block_dimensions(self):
        s = GENERIC
        n, sn = s.n, s.s - s.n
        basis = []
        for small in u_basis(s.N):
            basis.append(small)
        assert real_rank([grade_project(s, b, "+-") for b in basis]) == 2 * n * sn
        assert real_rank([grade_project(s, b, "-+") for b in basis]) == 2 * s.r * sn


class TestInnerProducts:
    def test_radial_norm(self):
        s = Scheme.of_case("II", 3)
        q = np.array([0.2, 0.5, 1.1])
        bfq = radial_embed(s, q)
        assert inner_y(bfq, bfq) == pytest.approx(2 * np.sum(q**2), rel=1e-14)

    def test_positive_definite(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_antiherm(4, rng)
            if np.abs(x).max() > 0:
                assert inner_y(x, x) > 0

    def test_gradation_blocks_orthogonal(self):
        rng = np.random.default_rng(6)
        s = Scheme.of_case("III", 2)
        x, z = random_antiherm(s.N, rng), random_antiherm(s.N, rng)
        for b1 in ("++", "+-", "-+", "--"):
            for b2 in ("++", "+-", "-+", "--"):
                if b1 != b2:
                    val = inner_y(grade_project(s, x, b1), grade_project(s, z, b2))
                    assert abs(val) <= 1e-13

    def test_gram_matches_trace_loop(self):
        # -Re tr(x_i z_j) over the leading axes of both arguments, for
        # matrix x matrix, stack x matrix, matrix x stack and stack x stack
        rng = np.random.default_rng(11)
        stack = lambda *lead: (rng.standard_normal(lead + (3, 3))
                               + 1j * rng.standard_normal(lead + (3, 3)))
        x, z = stack(2, 4), stack(5)
        for a, b in ((x[0, 0], z[0]), (x, z[0]), (x[0, 0], z), (x, z)):
            want = np.array([[-np.trace(xi @ zj).real for zj in b.reshape(-1, 3, 3)]
                             for xi in a.reshape(-1, 3, 3)])
            got = inner_y(a, b)
            assert np.shape(got) == a.shape[:-2] + b.shape[:-2]
            assert np.allclose(np.reshape(got, want.shape), want, rtol=1e-13, atol=1e-13)
        assert isinstance(inner_y(x[0, 0], z[0]), float)

    def test_pair_inner_is_sum(self):
        rng = np.random.default_rng(7)
        s = Scheme.of_case("I", 2)
        xs = [random_antiherm(s.N, rng) for _ in range(4)]
        xs = [grade_project(s, x, "++") for x in xs]
        p1, p2 = AlgebraPair(xs[0], xs[1]), AlgebraPair(xs[2], xs[3])
        want = inner_y(xs[0], xs[2]) + inner_y(xs[1], xs[3])
        assert pair_inner(p1, p2) == pytest.approx(want, rel=1e-14, abs=1e-14)


class TestAntiHerm:
    def test_normalizes_small_drift(self):
        x = np.array([[1j, 1.0], [-1.0, 0.0]]) + 1e-14
        y = to_antiherm(x)
        assert np.abs(y + y.conj().T).max() == 0.0

    def test_rejects_hermitian(self):
        with pytest.raises(ValueError):
            to_antiherm(np.eye(2))


class TestFactorSplit:
    def test_identity_pair_case1(self):
        s = Scheme.of_case("I", 2)
        eye = 1j * np.eye(s.N)
        blocks = factor_split(s, AlgebraPair(eye, eye))
        for b in blocks:
            assert np.array_equal(b, 1j * np.eye(2))

    def test_case3_worked_split(self):
        s = Scheme.of_case("III", 1)
        d, w, wt = 0.3, 1.5, -0.7
        xi = 1j * np.diag([d, w, wt, d])
        _, _, xr1, xr2 = factor_split(s, AlgebraPair(xi, xi))
        assert np.allclose(xr1, 1j * np.diag([d, w, wt]), atol=0)
        assert np.allclose(xr2, 1j * np.array([[d]]), atol=0)

    def test_case3_left_split(self):
        s = Scheme.of_case("III", 1)
        d, w, wt = 0.3, 1.5, -0.7
        xi = 1j * np.diag([d, w, wt, d])
        xl1, xl2, _, _ = factor_split(s, AlgebraPair(xi, xi))
        assert np.allclose(xl1, 1j * np.diag([d, w]), atol=0)
        assert np.allclose(xl2, 1j * np.diag([wt, d]), atol=0)

    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        s = Scheme.of_case("II", 2)
        left = np.zeros((s.N, s.N), dtype=complex)
        left[: s.r, : s.r] = random_antiherm(s.r, rng)
        left[s.r :, s.r :] = random_antiherm(s.s, rng)
        right = np.zeros((s.N, s.N), dtype=complex)
        right[: s.m, : s.m] = random_antiherm(s.m, rng)
        right[s.m :, s.m :] = random_antiherm(s.n, rng)
        xl1, xl2, xr1, xr2 = factor_split(s, AlgebraPair(left, right))
        rebuilt_l = np.zeros_like(left)
        rebuilt_l[: s.r, : s.r], rebuilt_l[s.r :, s.r :] = xl1, xl2
        rebuilt_r = np.zeros_like(right)
        rebuilt_r[: s.m, : s.m], rebuilt_r[s.m :, s.m :] = xr1, xr2
        assert np.array_equal(rebuilt_l, left)
        assert np.array_equal(rebuilt_r, right)

    def test_rejects_contaminated_pair(self):
        s = Scheme.of_case("I", 1)
        bad = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # off-diagonal
        with pytest.raises(ValueError):
            factor_split(s, AlgebraPair(bad, np.zeros((2, 2), dtype=complex)))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_stack_rejects_one_leaking_element(self, side):
        from bcn_reduction.polar import build_kperp_basis

        s = Scheme.of_case("III", 2)
        basis = build_kperp_basis(s)
        left, right = basis.left.copy(), basis.right.copy()
        for call in (check_pair, factor_split):
            call(s, AlgebraPair(left, right))  # the whole basis is clean
        mat, p = (left, s.r) if side == "left" else (right, s.m)
        mat[7, 0, p] = 0.5
        for call in (check_pair, factor_split):
            with pytest.raises(ValueError, match=f"{side} component"):
                call(s, AlgebraPair(left, right))

    def test_stack_scale_is_per_element(self):
        # a leak of 1e-9 is within tolerance next to a 1e4 entry of its own
        # element, not next to one in another element of the stack
        s = Scheme.of_case("I", 1)
        leak = np.array([[0, 1e-9], [0, 0]], dtype=complex)
        big = np.diag([1e4j, 0])
        zero = np.zeros((2, 2, 2), dtype=complex)
        check_pair(s, AlgebraPair(np.stack([leak + big, big]), zero))
        for call in (check_pair, factor_split):
            with pytest.raises(ValueError, match="left component"):
                call(s, AlgebraPair(np.stack([leak, big]), zero))


class TestRadial:
    def test_rotation_block_at_pi_over_6(self):
        s = Scheme.of_case("I", 1)
        got = radial_exp(s, [math.pi / 6])
        c, si = math.cos(math.pi / 6), math.sin(math.pi / 6)
        assert np.allclose(got, [[c, si], [-si, c]], atol=1e-15)

    def test_zero_angles_identity(self):
        s = Scheme.of_case("III", 2)
        assert np.array_equal(radial_exp(s, [0.0, 0.0]), np.eye(s.N))

    def test_matches_generic_exponential(self):
        # scaling-and-squaring oracle for the closed form
        rng = np.random.default_rng(9)
        for s in ALL_SCHEMES:
            q = np.sort(rng.uniform(0.05, math.pi / 2 - 0.05, s.n))
            want = expm(radial_embed(s, q))
            assert np.abs(radial_exp(s, q) - want).max() <= 1e-12

    def test_unitary(self):
        s = Scheme.of_case("III", 3)
        q = [0.2, 0.6, 1.2]
        g = radial_exp(s, q)
        assert np.abs(g @ g.conj().T - np.eye(s.N)).max() <= 1e-12

    def test_embed_lives_in_lowest_block(self):
        s = Scheme.of_case("II", 2)
        bfq = radial_embed(s, [0.3, 0.8])
        assert np.abs(grade_project(s, bfq, "--") - bfq).max() == 0.0

    def test_angle_pairs_match_loop(self):
        # pairs k < l in lexicographic order, exactly, for a point and a batch
        rng = np.random.default_rng(10)
        for n in range(1, 6):
            qs = rng.uniform(0.0, math.pi / 2, size=(4, n))
            diff, tot = _angle_pairs(qs)
            for row, d, t in zip(qs, diff, tot):
                pairs = [(row[l] - row[k], row[k] + row[l])
                         for k in range(n) for l in range(k + 1, n)]
                assert list(zip(d, t)) == pairs
                assert list(zip(*_angle_pairs(row))) == pairs

