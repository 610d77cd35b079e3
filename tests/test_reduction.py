import math
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcn_reduction.algebra import AlgebraPair
from bcn_reduction.fock import fock_space
from bcn_reduction.polar import (
    build_kperp_basis,
    build_m_basis,
    measure_factor,
    sample_alcove,
)
from bcn_reduction import reduction
from bcn_reduction.reduction import (
    CASES,
    CaseIParams,
    CaseIIParams,
    CaseIIIParams,
    Couplings,
    RawParams,
    SpinContraction,
    VKResult,
    attainable_couplings,
    bc_potential,
    case1_spin_closed,
    couplings,
    enumerate_grid,
    mu_params,
    params_from_raw,
    rep_space,
    rho_prime_pair,
    scheme_for,
    verify_reduction,
    vk_bruteforce,
    vk_predicted,
)
from oracles import couplings_from_mu, random_antiherm


def scalar_vk_predicted(n: int, raw: RawParams) -> VKResult:
    """Closed-form admissibility of one cell, written as scalar formulas: the
    loop reference of the array kernel `reduction._admissibility`."""
    if raw.case == "I":
        if raw.a1 % n != 0:
            return VKResult(0, reason="a1 must be a multiple of n")
        if raw.k_sum != 0:
            return VKResult(0, reason="determinant powers must sum to zero")
        gamma = raw.a1 // n
        return VKResult(1, ((gamma,) * n,))
    if raw.case == "II":
        p = n + 1
        kap1 = raw.k_l1 + raw.k_r1
        kap2 = raw.k_l2 + raw.k_r2
        if (raw.a1 - kap2) % p != 0:
            return VKResult(0, reason="a1 - (k_l2 + k_r2) must be divisible by n+1")
        gamma = (raw.a1 - kap2) // p
        gamma_t = gamma + kap2
        if gamma < 0 or gamma_t < 0:
            return VKResult(0, reason="occupation numbers would be negative")
        if raw.a1 % p + p * kap1 + n * kap2 != 0:
            return VKResult(0, reason="central-character balance fails")
        return VKResult(1, ((gamma,) * n + (gamma_t,),))
    p = n + 2
    num = raw.a1 + n * (raw.k_l1 + raw.k_r2) - raw.k_l2 + raw.k_l1
    if num % p != 0:
        return VKResult(0, reason="weight equation has no integer solution")
    gamma_h = num // p
    gamma = gamma_h - raw.k_l1 - raw.k_r2
    gamma_t = gamma_h + raw.k_l2 - raw.k_l1
    if min(gamma, gamma_t, gamma_h) < 0:
        return VKResult(0, reason="occupation numbers would be negative")
    if raw.a1 % p + p * raw.k_r1 + (n + 1) * (raw.k_l1 + raw.k_l2) + n * raw.k_r2 != 0:
        return VKResult(0, reason="central-character balance fails")
    return VKResult(1, ((gamma,) * n + (gamma_t, gamma_h),))


class TestParamDerivations:
    def test_case1_zero_sum(self):
        raw = CaseIParams(1, 1, 0, 0).to_raw(2)
        assert raw.a1 == 2 and raw.k_r2 == -1
        assert raw.k_sum == 0

    def test_case2_worked_derivation(self):
        # n=2, occupations (1, 3): the two power sums are +2 and -2
        raw = CaseIIParams(1, 3, 0, 0).to_raw(2)
        assert raw.a1 == 5
        assert raw.k_l2 + raw.k_r2 == 2
        assert raw.k_l1 + raw.k_r1 == -2

    def test_case3_worked_derivation(self):
        raw = CaseIIIParams(1, 0, 2, 0).to_raw(1)
        assert raw == RawParams("III", 3, 0, -2, 1, 1)

    def test_derived_always_admissible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            g, gt, gh = (int(v) for v in rng.integers(0, 5, 3))
            ks = [int(v) for v in rng.integers(-4, 5, 4)]
            cases = [
                ("I", CaseIParams(g, *ks[:3])),
                ("II", CaseIIParams(g, gt, ks[0], ks[1])),
                ("III", CaseIIIParams(g, gt, gh, ks[0])),
            ]
            for case, params in cases:
                scheme = scheme_for(case, n)
                vk = vk_predicted(scheme, params.to_raw(n))
                assert vk.dimension == 1

    def test_expected_fixed_states(self):
        assert vk_predicted(
            scheme_for("I", 3), CaseIParams(2, 1, -1, 0).to_raw(3)
        ).states == ((2, 2, 2),)
        assert vk_predicted(
            scheme_for("II", 2), CaseIIParams(1, 3, 0, 0).to_raw(2)
        ).states == ((1, 1, 3),)
        assert vk_predicted(
            scheme_for("III", 2), CaseIIIParams(2, 0, 1, -1).to_raw(2)
        ).states == ((2, 2, 0, 1),)


class TestRhoPrime:
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_pair_action_is_per_element(self, case, n):
        # one call on a whole basis equals the calls on its elements exactly
        scheme = scheme_for(case, n)
        kperp, m_basis = build_kperp_basis(scheme), build_m_basis(scheme)
        a1 = 7  # a1 mod m is nonzero wherever m > 1, so the shift is exercised
        for left, right in ((kperp.left, kperp.right), (m_basis, m_basis)):
            z, traces, shift = reduction._pair_action(scheme, a1, AlgebraPair(left, right))
            assert z.shape == (len(left), scheme.m, scheme.m)
            assert traces.shape == (len(left), 4) and shift.shape == (len(left),)
            for i in range(len(left)):
                zi, ti, si = reduction._pair_action(scheme, a1,
                                                    AlgebraPair(left[i], right[i]))
                assert np.array_equal(z[i], zi)
                assert np.array_equal(traces[i], ti)
                assert shift[i] == si

    def test_central_pair_scalar(self):
        # pair of identities acts by i(mu + n * sum of powers); zero when admissible
        n = 2
        scheme = scheme_for("I", n)
        raw = CaseIParams(1, 1, 0, -1).to_raw(n)
        eye = 1j * np.eye(scheme.N)
        op = rho_prime_pair(scheme, raw, AlgebraPair(eye, eye)).toarray()
        assert np.abs(op).max() <= 1e-14

    def test_central_pair_scalar_inadmissible(self):
        n = 2
        scheme = scheme_for("I", n)
        raw = RawParams("I", 2, 1, 0, 0, 0)  # power sum 1
        eye = 1j * np.eye(scheme.N)
        op = rho_prime_pair(scheme, raw, AlgebraPair(eye, eye)).toarray()
        dim = rep_space(scheme, raw).dim
        assert np.abs(op - 1j * n * np.eye(dim)).max() <= 1e-14

    def test_hat_generators_act_by_left_power_sum(self):
        n = 2
        scheme = scheme_for("I", n)
        raw = CaseIParams(1, 2, -1, 0).to_raw(n)
        basis = build_kperp_basis(scheme)
        v = rep_space(scheme, raw).state_vector((1, 1))
        for i, lab in enumerate(basis.labels):
            if lab.family == "hatL":
                w = rho_prime_pair(scheme, raw, basis.pair(i)) @ v
                assert np.abs(w - 1j * (2 - 1) * v).max() <= 1e-13

    def test_long_root_squares_on_fixed_vector(self):
        n = 2
        scheme = scheme_for("I", n)
        params = CaseIParams(1, 2, -1, 1)
        raw = params.to_raw(n)
        basis = build_kperp_basis(scheme)
        v = rep_space(scheme, raw).state_vector((1, 1))
        for i, lab in enumerate(basis.labels):
            if lab.root.kind != "long":
                continue
            op = rho_prime_pair(scheme, raw, basis.pair(i))
            w = op @ (op @ v)
            if lab.family == "V":
                want = -((params.k_l1 + params.k_r1) ** 2)
            else:
                want = -((params.k_l2 + params.k_r1) ** 2)
            assert np.abs(w - want * v).max() <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        scheme = scheme_for("II", 2)
        raw = CaseIIParams(1, 0, 1, -1).to_raw(2)

        def random_pair():
            left = np.zeros((scheme.N, scheme.N), dtype=complex)
            left[: scheme.r, : scheme.r] = random_antiherm(scheme.r, rng)
            left[scheme.r :, scheme.r :] = random_antiherm(scheme.s, rng)
            right = np.zeros((scheme.N, scheme.N), dtype=complex)
            right[: scheme.m, : scheme.m] = random_antiherm(scheme.m, rng)
            right[scheme.m :, scheme.m :] = random_antiherm(scheme.n, rng)
            return AlgebraPair(left, right)

        for _ in range(5):
            p1, p2 = random_pair(), random_pair()
            lhs = rho_prime_pair(scheme, raw, p1 + p2).toarray()
            rhs = (
                rho_prime_pair(scheme, raw, p1) + rho_prime_pair(scheme, raw, p2)
            ).toarray()
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_anti_hermitian(self):
        scheme = scheme_for("III", 1)
        raw = CaseIIIParams(1, 0, 2, 0).to_raw(1)
        basis = build_kperp_basis(scheme)
        for i in range(len(basis)):
            op = rho_prime_pair(scheme, raw, basis.pair(i)).toarray()
            assert np.abs(op + op.conj().T).max() <= 1e-12

    def test_case_scheme_mismatch(self):
        scheme = scheme_for("I", 2)
        raw = CaseIIParams(1, 0, 0, 0).to_raw(2)
        with pytest.raises(ValueError):
            rho_prime_pair(scheme, raw, AlgebraPair(np.eye(5), np.eye(5)))


class TestArrayAdmissibility:
    def test_matches_scalar_reference_on_every_cell(self):
        # all cases, n = 1..4, a1 = 0..3 modes + 3, every k in [-3, 3]^4
        ks = np.array(list(product(range(-3, 4), repeat=4)))
        for case, n in product(CASES, range(1, 5)):
            conditions = reduction._CONDITIONS[case]
            for a1 in range(3 * scheme_for(case, n).m + 4):
                dim, occ, failed = reduction._admissibility(case, n, a1, ks)
                for i, row in enumerate(ks.tolist()):
                    want = scalar_vk_predicted(n, RawParams(case, a1, *row))
                    assert dim[i] == want.dimension
                    if want.dimension:
                        assert (tuple(occ[i].tolist()),) == want.states
                        assert failed[i] == -1
                    else:
                        assert conditions[failed[i]] == want.reason

    @given(
        case=st.sampled_from(sorted(CASES)),
        n=st.integers(1, 6),
        a1=st.integers(0, 10**30),
        ks=st.tuples(*[st.integers(-10**30, 10**30)] * 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_row_path_exact_for_large_ints(self, case, n, a1, ks):
        raw = RawParams(case, a1, *ks)
        assert vk_predicted(scheme_for(case, n), raw) == scalar_vk_predicted(n, raw)

    @given(data=st.data(), case=st.sampled_from(sorted(CASES)), n=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_free_parameters_round_trip_for_large_ints(self, data, case, n):
        cls = CASES[case]
        free = cls(*(data.draw(st.integers(0, 10**20) if f.name.startswith("gamma")
                               else st.integers(-10**20, 10**20)) for f in fields(cls)))
        assert params_from_raw(scheme_for(case, n), free.to_raw(n)) == free


class TestKernelComputation:
    def test_case1_worked(self):
        scheme = scheme_for("I", 2)
        raw = RawParams("I", 2, 1, 0, -1, 0)
        got = vk_bruteforce(scheme, raw)
        assert got.dimension == 1 and got.states == ((1, 1),)

    def test_case1_odd_level_empty(self):
        scheme = scheme_for("I", 2)
        raw = RawParams("I", 1, 1, 0, -1, 0)
        assert vk_bruteforce(scheme, raw).dimension == 0
        assert vk_predicted(scheme, raw).dimension == 0

    def test_case3_worked(self):
        scheme = scheme_for("III", 1)
        raw = RawParams("III", 3, 0, -2, 1, 1)
        got = vk_bruteforce(scheme, raw)
        assert got.dimension == 1 and got.states == ((1, 0, 2),)

    def test_svd_and_column_paths_agree(self):
        rng = np.random.default_rng(2)
        for case, n in [("I", 1), ("II", 1), ("III", 1), ("II", 2)]:
            scheme = scheme_for(case, n)
            for _ in range(20):
                a1 = int(rng.integers(0, 7))
                ks = [int(v) for v in rng.integers(-3, 4, 4)]
                raw = RawParams(case, a1, *ks)
                columns = vk_bruteforce(scheme, raw)
                svd = vk_bruteforce(scheme, raw, method="svd")
                assert columns.dimension == svd.dimension
                assert columns.states == svd.states

    def test_closed_form_matches_bruteforce_subgrid(self):
        for case, n in [("I", 1), ("II", 1), ("III", 1)]:
            scheme = scheme_for(case, n)
            for a1 in range(0, 5):
                for kl1, kr1 in product(range(-2, 3), repeat=2):
                    raw = RawParams(case, a1, kl1, 1, kr1, -1)
                    pred = vk_predicted(scheme, raw)
                    brute = vk_bruteforce(scheme, raw)
                    assert pred.dimension == brute.dimension
                    if pred.dimension:
                        assert pred.states == brute.states

    def test_case3_n5_closed_form_matches_bruteforce(self):
        # dimension C(18, 6) = 18,564; the kernel stays linear in it
        scheme = scheme_for("III", 5)
        raw = CaseIIIParams(2, 1, 1, 0).to_raw(5)
        assert raw.a1 == 12 and rep_space(scheme, raw).dim == 18_564
        pred = vk_predicted(scheme, raw)
        brute = vk_bruteforce(scheme, raw)
        assert pred.dimension == brute.dimension == 1
        assert pred.states == brute.states == ((2,) * 5 + (1, 1),)
        shifted = RawParams("III", 12, raw.k_l1 + 1, raw.k_l2, raw.k_r1, raw.k_r2)
        assert vk_bruteforce(scheme, shifted).dimension == 0
        assert vk_predicted(scheme, shifted).dimension == 0

    def test_dimension_guard(self):
        scheme = scheme_for("III", 2)
        with pytest.raises(ValueError):
            vk_bruteforce(scheme, RawParams("III", 4000, 0, 0, 0, 0))

    def test_level_guard_on_one_mode(self):
        # one mode gives a one-state space at any level; a level whose
        # successor leaves int64 is still refused
        top = int(np.iinfo(np.int64).max)
        assert reduction.brute_force_refusal(1, top - 1) is None
        assert "int64" in reduction.brute_force_refusal(1, top)
        assert "int64" in reduction.brute_force_refusal(1, 10**20)
        scheme = scheme_for("I", 1)
        assert scheme.m == 1
        with pytest.raises(ValueError, match="int64"):
            vk_bruteforce(scheme, RawParams("I", 10**20, 0, 0, 0, 0))

    @given(
        case=st.sampled_from(["I", "II", "III"]),
        n=st.integers(1, 2),
        a1=st.integers(0, 8),
        ks=st.tuples(*[st.integers(-5, 5)] * 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_bruteforce_random(self, case, n, a1, ks):
        scheme = scheme_for(case, n)
        raw = RawParams(case, a1, *ks)
        pred = vk_predicted(scheme, raw)
        brute = vk_bruteforce(scheme, raw)
        assert pred.dimension == brute.dimension
        assert pred.states == brute.states


class TestSpinTerm:
    def test_case2_worked_value(self):
        # forced by the end-to-end identity at the worked instance
        scheme = scheme_for("II", 1)
        params = CaseIIParams(0, 1, 0, 0)
        got = SpinContraction(scheme, params.to_raw(1)).at([math.pi / 4])
        assert got == pytest.approx(-4.0, rel=1e-9)

    def test_case1_matches_closed_formula(self):
        rng = np.random.default_rng(3)
        sets = [
            CaseIParams(1, 1, 0, 0),
            CaseIParams(2, -1, 2, 1),
            CaseIParams(0, 3, -2, 0),
            CaseIParams(3, 0, 0, -2),
            CaseIParams(1, -2, -1, 3),
        ]
        for params in sets:
            for n in (1, 2, 3):
                scheme = scheme_for("I", n)
                con = SpinContraction(scheme, params.to_raw(n))
                for _ in range(10):
                    q = sample_alcove(n, rng)
                    closed = case1_spin_closed(n, params).at(q)
                    assert abs(con.at(q) - closed) / max(1, abs(closed)) <= 1e-9

    def test_case3_trivial_representation_vanishes(self):
        scheme = scheme_for("III", 1)
        con = SpinContraction(scheme, CaseIIIParams(0, 0, 0, 0).to_raw(1))
        assert np.abs(con.weights).max() == 0.0

    @pytest.mark.parametrize(
        "case,n,params",
        [
            (case, n, params)
            for case, sets in (
                ("I", (CaseIParams(1, 1, 0, 0), CaseIParams(2, -1, 2, 1))),
                ("II", (CaseIIParams(0, 1, 0, 0), CaseIIParams(2, 1, -2, 3))),
                ("III", (CaseIIIParams(1, 0, 2, 0), CaseIIIParams(2, 1, 3, -1))),
            )
            for n in (1, 2, 3)
            for params in sets
        ],
    )
    def test_phase_invariance(self, case, n, params):
        # the contraction only sees |op v|^2, so any phase on the fixed
        # vector drops out; the sparse operators are the oracle for the
        # closed-form weights
        scheme = scheme_for(case, n)
        raw = params.to_raw(n)
        con = SpinContraction(scheme, raw)
        space = rep_space(scheme, raw)
        ops = [rho_prime_pair(scheme, raw, con.basis.pair(i))
               for i in range(len(con.basis))]
        for phase in (1j, np.exp(0.7j), np.exp(-2.1j)):
            v = phase * space.state_vector(con.state)
            weights = [-float(np.vdot(op @ v, op @ v).real) for op in ops]
            assert np.abs(np.array(weights) - con.weights).max() <= 1e-12

    def test_no_fock_space_built(self):
        # case III, n = 6, a1 = 14: the representation has C(21, 7) = 116,280
        # states, but the weights only need the occupation state
        scheme = scheme_for("III", 6)
        params = CaseIIIParams(2, 1, 1, 0)
        before = fock_space.cache_info()
        SpinContraction(scheme, params.to_raw(6))
        report = verify_reduction(scheme, params, samples=20, tol=1e-8)
        assert fock_space.cache_info() == before
        assert report.passed, report.max_rel_err

    def test_summands_real(self):
        scheme = scheme_for("II", 2)
        raw = CaseIIParams(2, 1, -2, 3).to_raw(2)
        con = SpinContraction(scheme, raw)
        space = rep_space(scheme, raw)
        v = space.state_vector(con.state)
        for i in range(len(con.basis)):
            op = rho_prime_pair(scheme, raw, con.basis.pair(i))
            val = np.vdot(v, op @ (op @ v))
            assert abs(val.imag) <= 1e-13

    def test_inadmissible_rejected(self):
        scheme = scheme_for("I", 2)
        with pytest.raises(ValueError, match="not admissible"):
            SpinContraction(scheme, RawParams("I", 2, 1, 0, 0, 0))


class TestCouplings:
    def test_case1_worked(self):
        c = couplings(1, CaseIParams(1, 1, 0, 0))
        assert (c.a, c.b, c.c) == (1, 1, 0)
        assert c.constant == 0

    def test_case2_worked(self):
        c = couplings(1, CaseIIParams(0, 1, 0, 0))
        assert (c.a, c.b, c.c) == (0, 2, 1)
        assert c.constant == -2

    def test_case3_zero_params(self):
        c = couplings(1, CaseIIIParams(0, 0, 0, 0))
        assert (c.a, c.b, c.c) == (0, 1, 1)
        assert c.constant == Fraction(-9, 2)

    def test_case3_worked(self):
        c = couplings(1, CaseIIIParams(1, 0, 2, 0))
        assert (c.a, c.b, c.c) == (1, 2, 4)

    def test_case2_bound(self):
        for g, gt in product(range(4), repeat=2):
            c = couplings(2, CaseIIParams(g, gt, 1, -1))
            assert c.b >= c.a + 1

    def test_case3_bounds(self):
        for g, gt, gh in product(range(3), repeat=3):
            c = couplings(2, CaseIIIParams(g, gt, gh, 1))
            assert c.b >= c.a + 1 and c.c >= c.a + 1

    def test_mu_round_trip(self):
        for a, b, c in product(range(4), repeat=3):
            coup = Couplings(a, b, c, Fraction(0))
            mu = mu_params(coup)
            back = couplings_from_mu(mu)
            assert (back.a, back.b, back.c) == (a, b, c)

    def test_case1_worked_mu(self):
        mu = mu_params(couplings(1, CaseIParams(1, 1, 0, 0)))
        assert (mu.pair, mu.short, mu.long) == (2, 1, Fraction(1, 2))

    def test_params_from_raw_round_trip(self):
        # every free-parameter set with gamma <= 2 and |k| <= 1
        gs, ks = range(3), range(-1, 2)
        sets = [CaseIParams(*v) for v in product(gs, ks, ks, ks)]
        sets += [CaseIIParams(*v) for v in product(gs, gs, ks, ks)]
        sets += [CaseIIIParams(*v) for v in product(gs, gs, gs, ks)]
        for n in (1, 2, 3):
            for params in sets:
                scheme = scheme_for(params.case, n)
                assert params_from_raw(scheme, params.to_raw(n)) == params


class TestPotential:
    def test_n1_worked_value(self):
        got = bc_potential((1, 1, 0)).at([math.pi / 4])
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_pair_terms_absent_for_n1(self):
        q = [0.7]
        for a in (0, 1, 5):
            assert bc_potential((a, 2, 1)).at(q) == bc_potential((0, 2, 1)).at(q)

    def test_cn_degeneration(self):
        # equal single-angle couplings merge into a pure double-angle channel
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            for _ in range(5):
                q = sample_alcove(n, rng)
                a, b = 2, 3
                merged = bc_potential((a, 0, 0)).at(q) - bc_potential((0, 0, 0)).at(q)
                merged += 2 * (b**2 - 0.25) * float(np.sum(1 / np.sin(2 * q) ** 2))
                full = bc_potential((a, b, b)).at(q)
                assert abs(full - merged) / max(1, abs(full)) <= 1e-12

    def test_batch_matches_term_loop(self):
        # reference: the potential summed term by term at each point; the
        # batch sums in another order, so allow a few units of rounding
        rng = np.random.default_rng(8)
        a, b, c = 2, 3, 1
        for n in (1, 2, 3, 4):
            qs = np.array([sample_alcove(n, rng) for _ in range(5)])
            for q, got in zip(qs, bc_potential((a, b, c)).at(qs)):
                want = sum(a * (a + 1) / math.sin(q[l] + s * q[k]) ** 2
                           for k in range(n) for l in range(k + 1, n) for s in (-1, 1))
                want += sum(0.5 * (b**2 - 0.25) / math.sin(x) ** 2
                            + 0.5 * (c**2 - 0.25) / math.cos(x) ** 2 for x in q)
                assert got == pytest.approx(want, rel=1e-14, abs=0)


#: one admissible set per case with every coupling nonzero
WALL_PARAMS = {"I": CaseIParams(1, 2, 0, 1), "II": CaseIIParams(1, 2, 1, 0),
               "III": CaseIIIParams(1, 0, 2, 0)}


class TestVerifyReduction:
    @pytest.mark.parametrize(
        "case,n,params,abc,const",
        [
            ("I", 1, CaseIParams(1, 1, 0, 0), (1, 1, 0), Fraction(0)),
            ("II", 1, CaseIIParams(0, 1, 0, 0), (0, 2, 1), Fraction(-2)),
            ("III", 1, CaseIIIParams(0, 0, 0, 0), (0, 1, 1), Fraction(-9, 2)),
            ("III", 2, CaseIIIParams(1, 1, 1, 0), None, None),
        ],
    )
    def test_worked_instances(self, case, n, params, abc, const):
        scheme = scheme_for(case, n)
        report = verify_reduction(scheme, params, samples=20, tol=1e-8)
        assert report.passed, report.max_rel_err
        if abc is not None:
            c = report.couplings
            assert (c.a, c.b, c.c) == abc and c.constant == const

    def test_deterministic_with_seed(self):
        scheme = scheme_for("II", 2)
        params = CaseIIParams(1, 2, 1, -1)
        r1 = verify_reduction(scheme, params, samples=5, seed=123)
        r2 = verify_reduction(scheme, params, samples=5, seed=123)
        assert r1.samples == r2.samples

    def test_raw_params_accepted(self):
        scheme = scheme_for("I", 2)
        raw = CaseIParams(1, 1, 0, 0).to_raw(2)
        report = verify_reduction(scheme, raw, samples=5)
        assert report.passed

    @pytest.mark.parametrize("wall", ["top", "bottom", "gap"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_wall_approach(self, case, n, wall, wall_points):
        # no eigenvalue or potential term may cancel near a wall: the residual
        # stays at machine precision down to 1e-12 from each wall
        scheme = scheme_for(case, n)
        params = WALL_PARAMS[case]
        con = SpinContraction(scheme, params.to_raw(n))
        coup = couplings(n, params)
        for q in wall_points(n, wall):
            lhs = measure_factor(scheme).at(q) - con.at(q)
            rhs = bc_potential(coup).at(q) + float(coup.constant)
            assert abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) <= 4e-15, q

    @pytest.mark.parametrize("case,n", [("I", 2), ("II", 2), ("III", 3)])
    def test_batch_matches_single_points(self, case, n):
        # the batch draws the same points as sample_alcove called in turn, and
        # each row equals the single-point evaluation
        scheme, params = scheme_for(case, n), WALL_PARAMS[case]
        report = verify_reduction(scheme, params, samples=50, seed=31)
        con = SpinContraction(scheme, params.to_raw(n))
        coup = couplings(n, params)
        rng = np.random.default_rng(31)
        for row in report.samples:
            q = sample_alcove(n, rng)
            assert row.q == tuple(q.tolist())
            lhs = measure_factor(scheme).at(q) - con.at(q)
            rhs = bc_potential(coup).at(q) + float(coup.constant)
            assert row.lhs == pytest.approx(lhs, rel=1e-15, abs=0)
            assert row.rhs == pytest.approx(rhs, rel=1e-15, abs=0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            verify_reduction(scheme_for("I", 1), CaseIParams(1, 1, 0, 0), samples=0)

    def test_nan_sample_fails(self):
        # a NaN after a finite sample must not be dropped by the maximum
        report = verify_reduction(scheme_for("I", 1), CaseIParams(1, 1, 0, 0),
                                  samples=2)
        bad = replace(report.samples[1], rel_err=math.nan)
        report = replace(report, samples=(report.samples[0], bad))
        assert math.isnan(report.max_rel_err)
        assert not report.passed


class TestEnumeration:
    def test_small_grid_consistency(self):
        cells = enumerate_grid("II", 1, gamma_max=1, k_bound=1, brute=True)
        assert len(cells) == 3 * 81
        for cell in cells:
            assert cell.predicted.dimension == cell.brute_dimension
            if cell.predicted.dimension:
                assert cell.predicted.states == cell.brute_states

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"k_bound": -1, "brute": True}, "k_bound"),
            ({"k_bound": -1}, "k_bound"),
            ({"gamma_max": -1}, "gamma_max"),
        ],
    )
    def test_negative_bounds_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            enumerate_grid("I", 1, **{"gamma_max": 1, "k_bound": 1, **kwargs})

    def test_brute_above_guard_rejected(self):
        # a1 up to 21 in 7 modes: the largest representation has 296,010 states
        with pytest.raises(ValueError, match="296010 above the brute-force guard"):
            enumerate_grid("III", 5, gamma_max=3, k_bound=0, brute=True)
        assert len(enumerate_grid("III", 5, gamma_max=3, k_bound=0)) == 22

    def test_kernel_blocks_leave_the_result_unchanged(self, monkeypatch):
        # 56 states at a1 = 5 in 4 modes: blocks of 3 cells split the 625 rows
        scheme = scheme_for("III", 2)
        kgrid = np.array(list(product(range(-2, 3), repeat=4)))
        nullity, states = reduction._grid_nullity_batch(scheme, 5, kgrid)
        assert nullity.sum() > 0
        monkeypatch.setattr(reduction, "_KERNEL_BLOCK", 200)
        blocked = reduction._grid_nullity_batch(scheme, 5, kgrid)
        assert np.array_equal(blocked[0], nullity) and blocked[1] == states

    def test_cells_built_from_columns(self):
        cells = enumerate_grid("III", 1, gamma_max=1, k_bound=1)
        scheme = scheme_for("III", 1)
        assert cells[-1] == cells[len(cells) - 1]
        for cell in cells:
            assert cell.predicted == vk_predicted(scheme, cell.raw)
            if cell.couplings is not None:
                assert cell.couplings == couplings(1, params_from_raw(scheme, cell.raw))

    def test_rows_sorted(self):
        cells = enumerate_grid("I", 1, gamma_max=1, k_bound=1)
        keys = [
            (c.raw.a1, c.raw.k_l1, c.raw.k_l2, c.raw.k_r1, c.raw.k_r2) for c in cells
        ]
        assert keys == sorted(keys)

    def test_a1_values_match_formulas(self):
        # a1 = n gamma, n gamma + gamma~ and n gamma + gamma~ + gamma^
        for n, gamma_max in product(range(1, 5), range(4)):
            gs = range(gamma_max + 1)
            want = {
                "I": {n * g for g in gs},
                "II": {n * g + gt for g in gs for gt in gs},
                "III": {n * g + gt + gh for g in gs for gt in gs for gh in gs},
            }
            for case, a1s in want.items():
                assert reduction._a1_values(case, n, gamma_max) == sorted(a1s)

    def test_unknown_case_rejected(self):
        for call in (reduction._a1_values, attainable_couplings):
            with pytest.raises(ValueError, match="unknown case"):
                call("IV", 1, 1)

    def test_attainable_box_small(self):
        box = set(product(range(3), repeat=3))
        att1 = attainable_couplings("I", 1, gamma_max=2, k_bound=2) & box
        assert att1 == box
        att2 = attainable_couplings("II", 1, gamma_max=2, k_bound=2) & box
        assert att2 == {t for t in box if t[1] >= t[0] + 1}
