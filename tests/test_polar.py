import math

import mpmath
import numpy as np
import pytest

from bcn_reduction.algebra import (
    AlcoveError,
    AlgebraPair,
    Scheme,
    pair_inner,
    radial_embed,
    radial_exp,
)
from bcn_reduction.polar import (
    SQ2,
    build_kperp_basis,
    build_m_basis,
    inertia_eigenvalues,
    inertia_matrix,
    interior_margin,
    log_density,
    log_laplacian_fd,
    measure_factor,
    nu_triple,
    sample_alcove,
    sutherland_rhs,
)

ALL_SCHEMES = [Scheme.of_case(c, n) for c in ("I", "II", "III") for n in (1, 2, 3)]


def measure_factor_oracle(scheme, q, **kw):
    """The measure factor by finite differences: half the log-Laplacian
    oracle at the scheme's density exponents."""
    return 0.5 * log_laplacian_fd(*nu_triple(scheme), q, **kw)


def identity_rel_err(nus, q):
    """(lhs, rhs, rel_err) of the Sutherland-type identity at one point."""
    lhs = log_laplacian_fd(*nus, q)
    rhs = sutherland_rhs(*nus, len(q)).at(q)
    return lhs, rhs, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


class TestMBasis:
    @pytest.mark.parametrize(
        "case,n,count", [("I", 2, 2), ("III", 1, 3), ("II", 3, 4), ("III", 3, 5)]
    )
    def test_counts(self, case, n, count):
        s = Scheme.of_case(case, n)
        basis = build_m_basis(s)
        assert len(basis) == count == s.dim_centralizer

    def test_stacked_shape(self):
        for s in ALL_SCHEMES + [Scheme(5, 2, 4, 3), Scheme(3, 0, 2, 1)]:
            assert build_m_basis(s).shape == (s.dim_centralizer, s.N, s.N)

    def test_orthonormal(self):
        from bcn_reduction.algebra import inner_y

        for s in ALL_SCHEMES:
            basis = build_m_basis(s)
            gram = np.array([[inner_y(a, b) for b in basis] for a in basis])
            assert np.abs(gram - np.eye(len(basis))).max() <= 1e-13

    def test_commutes_with_radial(self):
        rng = np.random.default_rng(0)
        for s in ALL_SCHEMES:
            for _ in range(5):
                bfq = radial_embed(s, sample_alcove(s.n, rng))
                for lmat in build_m_basis(s):
                    assert np.abs(lmat @ bfq - bfq @ lmat).max() <= 1e-13


class TestKPerpBasis:
    def test_case1_n1_contents(self):
        basis = build_kperp_basis(Scheme.of_case("I", 1))
        assert [str(l) for l in basis.labels] == ["hatL:0:1", "V:2e1:i", "W:2e1:i"]

    def test_case2_n1_size(self):
        assert len(build_kperp_basis(Scheme.of_case("II", 1))) == 8

    def test_sizes_match_dimension_count(self):
        for s in ALL_SCHEMES:
            assert len(build_kperp_basis(s)) == s.dim_g - s.dim_centralizer

    def test_gram_identity(self):
        for s in ALL_SCHEMES:
            basis = build_kperp_basis(s)
            assert np.abs(basis.gram() - np.eye(len(basis))).max() <= 1e-12

    def test_family_counts(self):
        for s in ALL_SCHEMES:
            counts = build_kperp_basis(s).family_counts()
            n, r, sq = s.n, s.r, s.s
            assert counts["V"] == counts["W"] == n * (2 * r - 1)
            assert counts["Vt"] == counts["Wt"] == 2 * n * (sq - n)
            assert counts["Vt"] + counts["Z0"] == 2 * r * (sq - n)
            assert counts["hatL"] == s.dim_centralizer

    def test_orthogonal_to_diagonal_centralizer(self):
        for s in ALL_SCHEMES:
            basis = build_kperp_basis(s)
            for lmat in build_m_basis(s):
                diag = AlgebraPair(lmat, lmat)
                for i in range(len(basis)):
                    assert abs(pair_inner(diag, basis.pair(i))) <= 1e-12

    def test_root_system_dichotomy(self):
        # short roots appear exactly when the second block is nonempty
        for s in ALL_SCHEMES:
            kinds = {l.root.kind for l in build_kperp_basis(s).labels if l.family == "V"}
            if s.r == s.n:
                assert "short" not in kinds
            else:
                assert "short" in kinds

    def test_squared_radial_bracket_on_root_vectors(self):
        rng = np.random.default_rng(1)
        for s in ALL_SCHEMES:
            basis = build_kperp_basis(s)
            q = sample_alcove(s.n, rng)
            bfq = radial_embed(s, q)
            ad = lambda x: bfq @ x - x @ bfq
            for i, lab in enumerate(basis.labels):
                if lab.family == "V":
                    e = basis.left[i] * SQ2
                    resid = ad(ad(e)) + lab.root.at(q) ** 2 * e
                    assert np.abs(resid).max() <= 1e-12

    def test_radial_bracket_rotates_mixed_families(self):
        rng = np.random.default_rng(2)
        s = Scheme.of_case("III", 2)
        basis = build_kperp_basis(s)
        q = sample_alcove(s.n, rng)
        bfq = radial_embed(s, q)
        ad = lambda x: bfq @ x - x @ bfq
        for i, lab in enumerate(basis.labels):
            if lab.family == "Vt":
                e, f = basis.left[i] * SQ2, basis.right[i] * SQ2
                qj = lab.root.at(q)
                assert np.abs(ad(e) - qj * f).max() <= 1e-13
                assert np.abs(ad(f) + qj * e).max() <= 1e-13
            elif lab.family == "Z0":
                assert np.abs(ad(basis.right[i])).max() <= 1e-13


#: root functionals and the six eigenvalue closed forms, written from the
#: definitions for an oracle independent of the family table
_MP_ROOTS = {"diff": lambda q, k, l: q[k - 1] - q[l - 1],
             "sum": lambda q, k, l: q[k - 1] + q[l - 1],
             "short": lambda q, k, l: q[k - 1], "long": lambda q, k, l: 2 * q[k - 1],
             "zero": lambda q, k, l: 0}
_MP_FORMS = {"hatL": lambda a: 2, "V": lambda a: 2 * mpmath.sin(a / 2) ** 2,
             "W": lambda a: 2 * mpmath.cos(a / 2) ** 2, "Vt": lambda a: 1 + mpmath.sin(a),
             "Wt": lambda a: 1 - mpmath.sin(a), "Z0": lambda a: 1}


def _mpmath_rel_err(basis, q) -> float:
    """Largest relative error of inertia_eigenvalues against the closed forms
    evaluated in 40-digit arithmetic at the same (exactly converted) q."""
    lam = inertia_eigenvalues(basis, q)
    worst = 0.0
    with mpmath.workdps(40):
        qm = [mpmath.mpf(float(v)) for v in q]
        for x, lab in zip(lam.tolist(), basis.labels):
            root = lab.root
            ref = mpmath.mpf(_MP_FORMS[lab.family](_MP_ROOTS[root.kind](qm, root.k, root.l)))
            worst = max(worst, float(abs((x - ref) / ref)))
    return worst


class TestInertia:
    def test_case1_n1_worked_values(self):
        s = Scheme.of_case("I", 1)
        basis = build_kperp_basis(s)
        jmat = inertia_matrix(s, basis, [math.pi / 6])
        assert np.allclose(np.diag(jmat), [2.0, 0.5, 1.5], atol=1e-14)
        assert np.abs(jmat - np.diag(np.diag(jmat))).max() <= 1e-14

    def test_hat_block_is_two(self):
        rng = np.random.default_rng(3)
        s = Scheme.of_case("II", 2)
        basis = build_kperp_basis(s)
        jmat = inertia_matrix(s, basis, sample_alcove(2, rng))
        nhat = basis.family_counts()["hatL"]
        assert np.allclose(jmat[:nhat, :nhat], 2 * np.eye(nhat), atol=1e-13)

    def test_case3_n1_mixed_eigenvalues(self):
        s = Scheme.of_case("III", 1)
        basis = build_kperp_basis(s)
        q = [0.4]
        lam = inertia_eigenvalues(basis, q)
        by_family = {}
        for lab, v in zip(basis.labels, lam):
            by_family.setdefault(lab.family, set()).add(round(v, 12))
        assert by_family["Vt"] == {round(1 + math.sin(0.4), 12)}
        assert by_family["Wt"] == {round(1 - math.sin(0.4), 12)}
        assert by_family["Z0"] == {1.0}

    def test_pair_root_eigenvalues(self):
        s = Scheme.of_case("I", 2)
        basis = build_kperp_basis(s)
        q = np.array([0.3, 0.7])
        lam = inertia_eigenvalues(basis, q)
        vals = {
            (lab.family, str(lab.root)): v for lab, v in zip(basis.labels, lam)
        }
        assert vals[("V", "e1-e2")] == pytest.approx(2 * math.sin(0.2) ** 2, rel=1e-14)
        assert vals[("W", "e1-e2")] == pytest.approx(2 * math.cos(0.2) ** 2, rel=1e-14)

    @pytest.mark.parametrize("case,n", [(c, n) for c in ("I", "II", "III") for n in (1, 2, 3)])
    def test_eigenvalues_match_mpmath(self, case, n):
        basis = build_kperp_basis(Scheme.of_case(case, n))
        rng = np.random.default_rng(12)
        for _ in range(10):
            q = sample_alcove(n, rng)
            assert _mpmath_rel_err(basis, q) <= 5e-15, q

    @pytest.mark.parametrize("wall", ["top", "bottom", "gap"])
    @pytest.mark.parametrize("case,n", [(c, n) for c in ("I", "II", "III") for n in (2, 3)])
    def test_eigenvalues_match_mpmath_at_walls(self, case, n, wall, wall_points):
        basis = build_kperp_basis(Scheme.of_case(case, n))
        for q in wall_points(n, wall):
            assert _mpmath_rel_err(basis, q) <= 2e-15, q

    def test_diagonalization_all_schemes(self):
        rng = np.random.default_rng(4)
        for s in ALL_SCHEMES:
            basis = build_kperp_basis(s)
            for _ in range(3):
                q = sample_alcove(s.n, rng)
                jmat = inertia_matrix(s, basis, q)
                lam = inertia_eigenvalues(basis, q)
                assert np.abs(jmat - np.diag(lam)).max() <= 1e-12

    def test_matrix_matches_definition_loop(self):
        # J_ij = -Re tr(u_i u_j), u_i = right_i - g^-1 left_i g, one pair at a time
        rng = np.random.default_rng(12)
        for s in ALL_SCHEMES[:6]:
            basis = build_kperp_basis(s)
            q = sample_alcove(s.n, rng)
            g = radial_exp(s, q)
            u = [r - g.conj().T @ l @ g for l, r in zip(basis.left, basis.right)]
            want = np.array([[-np.trace(a @ b).real for b in u] for a in u])
            assert np.abs(inertia_matrix(s, basis, q) - want).max() <= 1e-14

    def test_determinant_oracle(self):
        rng = np.random.default_rng(5)
        for s in ALL_SCHEMES[:6]:
            basis = build_kperp_basis(s)
            q = sample_alcove(s.n, rng)
            det = np.linalg.det(inertia_matrix(s, basis, q))
            prod = np.prod(inertia_eigenvalues(basis, q))
            assert abs(det - prod) / abs(det) <= 1e-10

    def test_positive_definite_interior(self):
        rng = np.random.default_rng(6)
        s = Scheme.of_case("III", 3)
        basis = build_kperp_basis(s)
        for _ in range(5):
            q = sample_alcove(3, rng)
            assert np.all(inertia_eigenvalues(basis, q) > 0)
            np.linalg.cholesky(inertia_matrix(s, basis, q))  # must not raise


class TestDensity:
    def test_exponent_triples(self):
        assert nu_triple(Scheme.of_case("I", 2)) == (1.0, 0.0, 0.5)
        assert nu_triple(Scheme.of_case("II", 2)) == (1.0, 1.0, 0.5)
        assert nu_triple(Scheme.of_case("III", 2)) == (1.0, 0.0, 1.5)

    def test_case1_n1_closed_form(self):
        s = Scheme.of_case("I", 1)
        for q in (0.3, 0.7, math.pi / 4):
            assert log_density(*nu_triple(s), [q]) == pytest.approx(
                0.5 * math.log(math.sin(2 * q)), abs=1e-15
            )
        assert log_density(*nu_triple(s), [math.pi / 4]) == 0.0

    def test_case2_n1_closed_form(self):
        s = Scheme.of_case("II", 1)
        for q in (0.3, 1.1):
            want = math.log(math.sin(q)) + 0.5 * math.log(math.sin(2 * q))
            assert log_density(*nu_triple(s), [q]) == pytest.approx(want, abs=1e-15)

    def test_leading_axes(self):
        q = np.array([[[0.2, 0.9, 1.3]], [[0.4, 0.5, 1.5]]])
        got = log_density(0.7, 1.1, 0.4, q)
        assert got.shape == (2, 1)
        for i in range(2):
            assert got[i, 0] == log_density(0.7, 1.1, 0.4, q[i, 0])

    def test_large_rank_matches_high_precision(self):
        # the density itself is about 1e-505 here, below double range
        n = 30
        q = 0.051 + np.arange(n) * (math.pi / 2 - 0.102) / (n - 1)
        got = log_density(2.0, 2.0, 2.0, q)
        x = [mpmath.mpf(float(v)) for v in q]
        rho = mpmath.fprod(
            [(mpmath.sin(x[l] - x[k]) * mpmath.sin(x[k] + x[l])) ** 2
             for k in range(n) for l in range(k + 1, n)]
            + [(mpmath.sin(v) * mpmath.sin(2 * v)) ** 2 for v in x])
        assert math.exp(got) == 0.0
        assert got == pytest.approx(float(mpmath.log(rho)), rel=1e-13)

    def test_fourth_power_tracks_inertia_determinant(self):
        rng = np.random.default_rng(7)
        for s in ALL_SCHEMES[:6]:
            basis = build_kperp_basis(s)
            log_ratios = []
            for _ in range(10):
                q = sample_alcove(s.n, rng)
                sign, logdet = np.linalg.slogdet(inertia_matrix(s, basis, q))
                assert sign > 0
                log_ratios.append(4.0 * log_density(*nu_triple(s), q) - logdet)
            assert np.ptp(log_ratios) <= 1e-9

    def test_wall_rejection(self):
        nus = nu_triple(Scheme.of_case("I", 2))
        for q in ([0.5, 0.5], [0.0, 0.5], [0.6, 0.4], [0.3, math.pi / 2],
                  [[0.3, 0.5], [0.6, 0.4]]):  # one bad point in a batch
            with pytest.raises(AlcoveError):
                log_density(*nus, q)


class TestMeasureFactor:
    def test_case1_coefficient_specialization(self):
        # only the double-angle channel survives, with weight -1/2
        for n in (1, 2, 3):
            s = Scheme.of_case("I", n)
            q = np.linspace(0.3, 1.2, n)
            want = -0.5 * np.sum(1 / np.sin(2 * q) ** 2) - n * (4 * n**2 - 1) / 6
            assert measure_factor(s).at(q) == pytest.approx(want, rel=1e-14)

    def test_case2_n1_worked_value(self):
        s = Scheme.of_case("II", 1)
        assert measure_factor(s).at([math.pi / 4]) == pytest.approx(-1.5, rel=1e-14)

    def test_fd_oracle_worked_point(self):
        s = Scheme.of_case("I", 2)
        q = np.array([0.4, 1.0])
        closed = measure_factor(s).at(q)
        assert abs(closed - measure_factor_oracle(s, q)) / abs(closed) <= 1e-8

    def test_fd_oracle_all_schemes(self):
        rng = np.random.default_rng(8)
        for s in ALL_SCHEMES:
            for _ in range(3):
                q = sample_alcove(s.n, rng)
                closed = measure_factor(s).at(q)
                fd = measure_factor_oracle(s, q)
                assert abs(closed - fd) / max(1, abs(closed)) <= 1e-5

    def test_fd_oracle_leading_axes(self):
        rng = np.random.default_rng(15)
        s = Scheme.of_case("III", 3)
        q = np.array([sample_alcove(3, rng) for _ in range(4)])
        batch = measure_factor_oracle(s, q)
        assert batch.shape == (4,)
        for point, value in zip(q, batch):
            assert value == pytest.approx(measure_factor_oracle(s, point), rel=1e-12)

    def test_fd_fourth_order_convergence(self):
        # Richardson over h and h/2 cancels the h^2 term: halving h divides
        # the error by about 2^4
        s = Scheme.of_case("II", 2)
        q = np.array([0.5, 1.0])
        closed = measure_factor(s).at(q)
        e1 = abs(measure_factor_oracle(s, q, h=2e-2) - closed)
        e2 = abs(measure_factor_oracle(s, q, h=1e-2) - closed)
        assert 12.0 <= e1 / e2 <= 20.0

    def test_wall_guard(self):
        nus = nu_triple(Scheme.of_case("I", 2))
        with pytest.raises(AlcoveError):
            log_laplacian_fd(*nus, [0.01, 0.8])
        with pytest.raises(AlcoveError):
            log_laplacian_fd(*nus, [0.5, 0.52])
        with pytest.raises(AlcoveError):
            log_laplacian_fd(*nus, [[0.3, 0.8], [0.5, 0.52]])


class TestSutherlandIdentity:
    def test_case1_exponents_at_worked_point(self):
        lhs, rhs, rel = identity_rel_err((1.0, 0.0, 0.5), np.array([0.6]))
        assert rel <= 1e-5
        # halving gives the measure factor of the matching scheme
        s = Scheme.of_case("I", 1)
        assert 0.5 * rhs == pytest.approx(measure_factor(s).at([0.6]), rel=1e-12)
        want = -0.5 / math.sin(1.2) ** 2 - 0.5
        assert 0.5 * rhs == pytest.approx(want, rel=1e-12)

    def test_zero_exponents(self):
        lhs, rhs, rel = identity_rel_err((0.0, 0.0, 0.0), np.array([0.4, 0.9]))
        assert lhs == 0.0 and rhs == 0.0

    def test_random_exponents(self):
        rng = np.random.default_rng(9)
        for n in (1, 2):
            for _ in range(10):
                nus = rng.uniform(0.3, 2.0, 3)
                q = sample_alcove(n, rng)
                _, _, rel = identity_rel_err(nus, q)
                assert rel <= 1e-4

    @pytest.mark.parametrize("n", [24, 30])
    def test_large_rank_evenly_spaced(self, n):
        # the product density is subnormal or zero here; its log is not
        q = 0.051 + np.arange(n) * (math.pi / 2 - 0.102) / (n - 1)
        _, _, rel = identity_rel_err((2.0, 2.0, 2.0), q)
        assert rel <= 1e-4

    def test_scheme_exponents_match_measure_factor(self):
        # the paper's closed form of the measure factor, spelled out here so
        # that it checks the halved identity at the scheme's exponents
        rng = np.random.default_rng(10)
        for scheme in ALL_SCHEMES + TestGenericSchemes.GENERIC:
            m, n, r, s = scheme.m, scheme.n, scheme.r, scheme.s
            q = sample_alcove(n, rng)
            want = ((m - n) * (r - s) / 2 * np.sum(1 / np.sin(q) ** 2)
                    + (4 * (s - n) ** 2 - 1) / 2 * np.sum(1 / np.sin(2 * q) ** 2)
                    - n * (3 * m**2 + n**2 - 1) / 6)
            assert measure_factor(scheme).at(q) == pytest.approx(want, rel=1e-13)


class TestGenericSchemes:
    # the basis/inertia/density machinery is not tied to the three tagged
    # cases; degenerate and fat middle blocks go through the same code path
    GENERIC = [Scheme(5, 2, 4, 3), Scheme(6, 1, 4, 3), Scheme(7, 2, 5, 4)]

    def test_basis_and_diagonalization(self):
        rng = np.random.default_rng(13)
        for s in self.GENERIC:
            basis = build_kperp_basis(s)
            assert len(basis) == s.dim_g - s.dim_centralizer
            assert np.abs(basis.gram() - np.eye(len(basis))).max() <= 1e-12
            q = sample_alcove(s.n, rng)
            jmat = inertia_matrix(s, basis, q)
            lam = inertia_eigenvalues(basis, q)
            assert np.abs(jmat - np.diag(lam)).max() <= 1e-12

    def test_measure_factor_oracle(self):
        rng = np.random.default_rng(14)
        for s in self.GENERIC:
            q = sample_alcove(s.n, rng)
            closed = measure_factor(s).at(q)
            assert abs(closed - measure_factor_oracle(s, q)) / max(1, abs(closed)) <= 1e-5


class TestSampling:
    def test_margin(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(20):
                q = sample_alcove(n, rng)
                assert interior_margin(q) >= 0.05 - 1e-12

    def test_margin_too_large(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            sample_alcove(3, rng, margin=0.5)
