"""Moment diagnostics, the coefficient classifier, and kernel families."""
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from chaoslimits import (
    BUILTIN_FAMILIES,
    KernelFamily,
    SymmetricKernel,
    beta_target,
    c_n,
    chaos_product,
    classifier,
    classifier_c0,
    classifier_delta,
    contract,
    derivative_slices,
    ec_roots,
    eval_multiple_integral,
    expect_product,
    gamma_fixed_family,
    gamma_kernel_gap,
    gamma_target,
    gaussian_clt_family,
    lemma_l2_combination,
    lemma_l11_gap,
    malliavin_inner,
    mc_twins,
    moment3,
    moment4,
    named_target,
    normal_target,
    prop24_gap,
    random_kernel,
    run_family_diagnostics,
    stein_residual_l2,
    stein_residual_l2_direct,
    student_target,
    target_from_density_grid,
    uniform_centered_target,
    wick_moment,
)

from oracles import (
    chaos_prop24_gap,
    gauss_hermite_expectation,
    level_residual,
    operator_gamma_gap,
    operator_residual,
)


# --- combinatorial constants -----------------------------------------------------------

def test_c_n_values():
    assert c_n(2) == 0.25
    assert math.isclose(c_n(4), 1.0 / 72.0, rel_tol=1e-15)
    assert math.isclose(c_n(6), math.factorial(3) ** 3 / math.factorial(6) ** 2,
                        rel_tol=1e-15)


def test_c_n_guards():
    with pytest.raises(ValueError):
        c_n(3)
    with pytest.raises(ValueError):
        c_n(0)


def test_moment4_half_contraction_weight():
    # the p = n/2 term's coefficient is (3/2) c_n^{-2} n!
    for n in (2, 4):
        p = n // 2
        coef = 3 * n * (
            math.factorial(p - 1) * math.comb(n - 1, p - 1) ** 2
            * math.factorial(p) * math.comb(n, p) ** 2
            * math.factorial(2 * n - 2 * p)
        )
        assert math.isclose(coef, 1.5 * c_n(n) ** -2 * math.factorial(n),
                            rel_tol=1e-12)
    # frozen: 48 at n = 2, 186624 at n = 4
    assert 3 * 2 * 1 * 1 * 1 * 4 * 2 == 48
    assert 3 * 4 * 1 * 9 * 2 * 36 * 24 == 186624


# --- third and fourth moments ------------------------------------------------------------

def test_moments_match_wick_sweep():
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.choice([2, 4]))
        d = int(rng.integers(2, 5))
        f = random_kernel(rng, d, n, nnz=5)
        assert math.isclose(moment3(f), wick_moment([f], [3]),
                            rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(moment4(f), wick_moment([f], [4]),
                            rel_tol=1e-10, abs_tol=1e-12)


def test_moments_odd_order_and_edge_cases():
    rng = np.random.default_rng(6)
    f = random_kernel(rng, 3, 3, nnz=4)
    assert moment3(f) == 0.0
    g = SymmetricKernel(1, 0, {(): 2.0})
    assert moment3(g) == 8.0
    assert moment4(g) == 16.0


def test_moment4_matches_quadrature_small():
    f = SymmetricKernel(2, 2, {(0, 0): 0.7, (0, 1): -0.3, (1, 1): 0.4})
    def F(x):
        x0, x1 = x[..., 0], x[..., 1]
        return 0.7 * (x0 * x0 - 1) + 2 * (-0.3) * x0 * x1 + 0.4 * (x1 * x1 - 1)
    want3 = gauss_hermite_expectation(lambda x: F(x) ** 3, 2, degree=9)
    want4 = gauss_hermite_expectation(lambda x: F(x) ** 4, 2, degree=9)
    assert math.isclose(moment3(f), want3, rel_tol=1e-10)
    assert math.isclose(moment4(f), want4, rel_tol=1e-10)


# --- classifier scalars -------------------------------------------------------------------

def test_classifier_scalars_zero_iff_alpha_zero():
    rng = np.random.default_rng(7)
    for _ in range(200):
        beta = float(rng.uniform(-2, 2))
        gamma = float(rng.uniform(0.1, 3))
        assert classifier_c0(0.0, beta, gamma) == 0.0
        assert classifier_delta(0.0, beta, gamma) == 0.0
        alpha = float(rng.uniform(-1.5, 0.6))
        if alpha == 0.0 or abs(beta) < 1e-12:
            continue
        assert classifier_delta(alpha, beta, gamma) != 0.0


def test_classifier_frozen_values():
    # uniform on (-1/2, 1/2): C0 = 1/10
    al, be, ga = uniform_centered_target().coeff.as_tuple()
    assert math.isclose(classifier_c0(al, be, ga), 0.1, rel_tol=1e-14)
    # student t(5): C0 = -10
    al, be, ga = student_target(5.0).coeff.as_tuple()
    assert math.isclose(classifier_c0(al, be, ga), -10.0, rel_tol=1e-14)


def test_classifier_scalar_guards():
    for bad in (1.0, 2.0, 2.0 / 3.0):
        with pytest.raises(ValueError):
            classifier_c0(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            classifier_delta(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            ec_roots(bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        ec_roots(0.5, 0.0, 1.0)


def test_ec_roots_solve_the_quadratic():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(300):
        alpha = float(rng.uniform(-1.5, 0.6))
        beta = float(rng.uniform(-2, 2))
        gamma = float(rng.uniform(0.1, 3))
        if alpha in (0.0,) or abs(beta) < 1e-6:
            continue
        disc, roots = ec_roots(alpha, beta, gamma)
        c0 = classifier_c0(alpha, beta, gamma)
        for c in roots:
            val = (3 * beta**2 * c * c - 12 * beta**2 / (1 - alpha) * c
                   - (8 * c0 - 12 * beta**2 / (1 - alpha)))
            assert abs(val) < 1e-8 * max(1.0, abs(8 * c0))
        # sign agreement with the reported Delta whenever EX^2 > 0
        if gamma / (2 - alpha) > 0:
            delta = classifier_delta(alpha, beta, gamma)
            assert (disc > 0) == (delta > 0) or (disc == delta == 0.0)
        checked += 1
    assert checked > 200


def test_ec_roots_gamma_coefficients_double_root():
    # (0, 2, 2) -- the Gamma(1, 1) coefficients -- give the double root c = 2
    disc, roots = ec_roots(0.0, 2.0, 2.0)
    assert abs(disc) < 1e-12
    assert len(roots) == 2
    assert math.isclose(roots[0], 2.0, rel_tol=1e-12)
    assert math.isclose(roots[1], 2.0, rel_tol=1e-12)


# --- classifier verdicts --------------------------------------------------------------------

def test_classifier_named_target_verdicts():
    cases = {
        ("normal", (("gamma", 1.0),)): "GaussianOnly",
        ("student", (("nu", 5.0),)): "GaussianOnly",
        ("uniform", ()): "GaussianOnly",
        ("beta", (("a", 2.0), ("b", 2.0))): "GaussianOnly",
        ("gamma", (("a", 2.0), ("lam", 1.0))): "GammaOnly",
        ("pareto", (("nu", 5.0),)): "OutsideHypotheses",
        ("f", (("a", 6.0), ("b", 10.0))): "OutsideHypotheses",
        ("inverse_gamma", (("delta", 3.0), ("lam", 5.0))): "OutsideHypotheses",
    }
    for (name, params), want in cases.items():
        t = named_target(name, **dict(params))
        al, be, ga = t.coeff.as_tuple()
        v = classifier(al, be, ga,
                       all_even_moments_finite=not math.isfinite(t.moment_bound))
        assert v.kind == want, (name, v)


def test_classifier_pareto3_alpha_excluded():
    # Pareto(3) has alpha = 1 exactly: excluded-parameter branch
    t = named_target("pareto", nu=3.0)
    al, be, ga = t.coeff.as_tuple()
    assert al == 1.0
    v = classifier(al, be, ga)
    assert v.kind == "OutsideHypotheses"
    assert "excluded" in v.reason


def test_classifier_gamma_branch_parameters():
    v = classifier(0.0, 2.0, 2.0)
    assert v.kind == "GammaOnly"
    lam, a = v.gamma_params
    assert math.isclose(lam, 1.0) and math.isclose(a, 1.0)
    # negative beta: reflected Gamma
    v = classifier(0.0, -2.0, 2.0)
    assert v.kind == "GammaOnly"
    assert "reflected" in v.reason
    assert v.gamma_params[0] == -1.0


def test_classifier_gaussian_branch_flags_heavy_tails():
    al, be, ga = student_target(5.0).coeff.as_tuple()
    v = classifier(al, be, ga, all_even_moments_finite=False)
    assert v.kind == "GaussianOnly"
    assert v.c0_sign_argument_applies is False
    v2 = classifier(0.0, 0.0, 1.0)
    assert v2.c0_sign_argument_applies is True


def test_classifier_inconsistent_branches():
    assert classifier(-1.0, 1.0, 1.0).kind == "Inconsistent"
    assert classifier(0.9, 1.0, 1.0).kind == "Inconsistent"
    # forced EX^2 <= 0
    assert classifier(0.0, 1.0, -1.0).kind == "Inconsistent"


def test_classifier_middle_band_is_outside():
    v = classifier(0.3, 1.0, 1.0)
    assert v.kind == "OutsideHypotheses"
    assert v.ec_discriminant < 0.0
    assert v.roots == ()


# --- L^2 residuals and gaps -----------------------------------------------------------------

def test_residual_routes_agree_random_sweep():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.choice([2, 3, 4]))
        d = int(rng.integers(2, 5))
        f = random_kernel(rng, d, n, nnz=4)
        coeff = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1, 1)),
                 float(rng.uniform(0.2, 2)))
        a = stein_residual_l2(f, coeff)
        b = stein_residual_l2_direct(f, coeff)
        assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=hst.integers(1, 4), d=hst.integers(1, 5), nnz=hst.integers(1, 8),
       seed=hst.integers(0, 2**32 - 1), alpha=hst.floats(-2.0, 2.0),
       beta=hst.floats(-2.0, 2.0), gamma=hst.floats(-2.0, 2.0))
def test_scalar_routes_match_chaos_oracles(n, d, nnz, seed, alpha, beta, gamma):
    f = random_kernel(np.random.default_rng(seed), d, n, nnz)
    coeff = (alpha, beta, gamma)
    res = stein_residual_l2(f, coeff)
    assert math.isclose(res, level_residual(f, coeff), rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(res, stein_residual_l2_direct(f, coeff),
                        rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(prop24_gap(f, coeff), chaos_prop24_gap(f, coeff),
                        rel_tol=1e-10, abs_tol=1e-12)


# 0, or a finite float m 2^e down to the smallest subnormals, so that
# products with the coefficient underflow to exact zeros
_COEFFICIENT = hst.one_of(
    hst.just(0.0), hst.sampled_from([5e-324, -5e-324, 1e-323]),
    hst.builds(math.ldexp, hst.floats(-1.0, 1.0), hst.integers(-1080, 10)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# found by random search: an entry whose product underflows moves in the sum
# order (beta f at level n; the s-only half; the half of g at level n)
@example(n=2, d=5, nnz=12, seed=1704, scale=1.0, alpha=3.6323197209907585e-33,
         beta=5e-324, gamma=0.0, lam=1.0)
@example(n=3, d=5, nnz=4, seed=639, scale=1.0, alpha=5e-324,
         beta=0.2706262083736526, gamma=2.931370764739681e-18, lam=1.0)
@example(n=2, d=2, nnz=10, seed=1889, scale=1.0, alpha=0.0, beta=5e-324,
         gamma=6.2171131009188235e-77, lam=1.0)
@given(n=hst.integers(1, 4), d=hst.integers(1, 6), nnz=hst.integers(1, 12),
       seed=hst.integers(0, 2**32 - 1), scale=hst.sampled_from([1.0, 1e-160]),
       alpha=_COEFFICIENT, beta=_COEFFICIENT, gamma=_COEFFICIENT,
       lam=hst.floats(0.01, 100.0))
def test_one_pass_levels_match_the_kernel_operator_form(
        n, d, nnz, seed, scale, alpha, beta, gamma, lam):
    # scale 1e-160 puts f ~x_r f among the subnormals, so products underflow
    # to exact zeros that the kernel operators drop
    f = random_kernel(np.random.default_rng(seed), d, n, nnz)
    f = SymmetricKernel(d, n, {idx: scale * v for idx, v in f.entries.items()})
    coeff = (alpha, beta, gamma)
    assert stein_residual_l2(f, coeff) == operator_residual(f, coeff)
    if n % 2 == 0:
        assert gamma_kernel_gap(f, lam) == operator_gamma_gap(f, lam)


def test_one_pass_levels_match_the_kernel_operator_form_at_fixed_points():
    # exact cancellation drops entries mid-chain: beta f + alpha 4 (f ~x_1 f)
    # is 0 at level 2 for f = e_0 (x) e_0 and beta = -4 alpha
    f = SymmetricKernel(1, 2, {(0, 0): 1.0})
    assert stein_residual_l2(f, (0.5, -2.0, 1.0)) == operator_residual(f, (0.5, -2.0, 1.0))
    # and at the Gamma fixed points, in the last step
    for k in (1, 2, 3, 5):
        for c in (0.25, 0.5, 1.0, 2.0, 0.3, 7.3):
            f = SymmetricKernel(k, 2, {(i, i): c for i in range(k)})
            target = gamma_target(k / 2.0, 1.0 / (2.0 * c))
            coeff = target.coeff.as_tuple()
            assert stein_residual_l2(f, coeff) == operator_residual(f, coeff)
            lam = target.params["lam"]
            assert gamma_kernel_gap(f, lam) == operator_gamma_gap(f, lam)


def test_stein_residual_is_a_sum_of_squares_at_gamma_fixed_points():
    # F = c sum_{i<k} (X_i^2 - 1) is centered Gamma(k/2, 1/(2c)).  Off the
    # dyadic grid the target's coefficients carry rounding, and the residual
    # must stay at that level without going negative, as a difference of
    # moments cancelling to noise would.
    for k in (1, 2, 3, 5):
        for c in np.linspace(0.1, 7.3, 50).tolist():
            f = SymmetricKernel(k, 2, {(i, i): c for i in range(k)})
            coeff = gamma_target(k / 2.0, 1.0 / (2.0 * c)).coeff.as_tuple()
            res = stein_residual_l2(f, coeff)
            assert 0.0 <= res <= 1e-20 * f.scaled_norm_sq() ** 2, (k, c, res)


def test_residual_mc_tracks_exact():
    rng = np.random.default_rng(10)
    f = random_kernel(rng, 3, 2, nnz=4)
    coeff = (0.0, 0.0, 2.0)
    exact = stein_residual_l2(f, coeff)
    est, se = mc_twins(f, coeff, 40000, seed=21)[0]
    assert se > 0
    assert abs(est - exact) < 5 * se


def test_prop24_gap_mc_tracks_exact():
    rng = np.random.default_rng(11)
    f = random_kernel(rng, 3, 2, nnz=4)
    coeff = (0.0, 1.0, 1.0)
    exact = prop24_gap(f, coeff)
    est, se = mc_twins(f, coeff, 40000, seed=22)[1]
    assert abs(est - exact) < 5 * se + 1e-12


def test_stein_discrepancy_l1_decreases_for_clt_family():
    fam = gaussian_clt_family()
    coeff = (0.0, 0.0, 2.0)
    small, _ = mc_twins(fam(2), coeff, 30000, seed=23)[2]
    large, _ = mc_twins(fam(32), coeff, 30000, seed=23)[2]
    assert large < small


def test_lemma_l2_combination_frozen_value():
    # F = x^2 - 1 against the pure-Gaussian coefficient (0, 0, 2):
    # E[F^4] - (3/2) * 2 * E[F^2] = 60 - 6 = 54
    f = SymmetricKernel(1, 2, {(0, 0): 1.0})
    assert math.isclose(lemma_l2_combination(f, (0.0, 0.0, 2.0)), 54.0,
                        rel_tol=1e-14)


# --- the Gaussian CLT family: exact 1/m laws ---------------------------------------------------

def test_gaussian_clt_family_exact_laws():
    fam = gaussian_clt_family()
    coeff = (0.0, 0.0, 2.0)
    for m in (1, 2, 4, 8, 16):
        f = fam(m)
        assert f.dim == m and f.order == 2
        assert math.isclose(f.scaled_norm_sq(), 1.0, rel_tol=1e-14)
        assert moment3(f) != 0.0 or m > 0  # third moment is 8/(2m)^{3/2} * m
        assert math.isclose(moment4(f), 3.0 + 12.0 / m, rel_tol=1e-13)
        half = contract(f, f, 1).symmetrized()
        assert math.isclose(half.norm_sq(), 1.0 / (4.0 * m), rel_tol=1e-13)
        assert math.isclose(stein_residual_l2(f, coeff), 2.0 / m, rel_tol=1e-12)
        assert math.isclose(prop24_gap(f, coeff), 2.0 / m, rel_tol=1e-12)


def test_gaussian_clt_family_guards():
    fam = gaussian_clt_family()
    with pytest.raises(ValueError):
        fam(0)


# --- the Gamma fixed point ----------------------------------------------------------------------

def test_gamma_fixed_family_is_a_fixed_point():
    for k in (1, 2, 3):
        f = gamma_fixed_family(k)(1)
        t = gamma_target(k / 2.0, 0.5)
        coeff = t.coeff.as_tuple()
        assert coeff == (0.0, 4.0, 4.0 * k)
        assert stein_residual_l2(f, coeff) == 0.0
        assert stein_residual_l2_direct(f, coeff) == 0.0
        assert lemma_l2_combination(f, coeff) == pytest.approx(0.0, abs=1e-10)
        assert gamma_kernel_gap(f, 0.5) == 0.0
        assert lemma_l11_gap(f, coeff) == 0.0
        assert math.isclose(moment3(f), 8.0 * k, rel_tol=1e-14)


def test_gamma_fixed_family_off_coefficients_not_zero():
    # the same kernel against Gamma(1, 1) coefficients is NOT a fixed point
    f = gamma_fixed_family(1)(1)
    res = stein_residual_l2(f, (0.0, 2.0, 2.0))
    assert math.isclose(res, 3.0, rel_tol=1e-12)
    assert lemma_l11_gap(f, (0.0, 2.0, 2.0)) == 0.5


def test_gamma_kernel_gap_nonzero_for_clt_member():
    f = gaussian_clt_family()(4)
    assert gamma_kernel_gap(f, 1.0) > 0.1


# --- the family report ----------------------------------------------------------------------------

def test_run_family_diagnostics_clt_report():
    report = run_family_diagnostics(
        gaussian_clt_family(), [2, 4, 8, 16], normal_target(1.0)
    )
    assert report.family == "gaussian_clt"
    assert report.order == 2
    assert report.target_name == "normal"
    assert report.coeff == (0.0, 0.0, 2.0)
    assert report.verdict.kind == "GaussianOnly"
    assert len(report.members) == 4
    for rec in report.members:
        assert set(rec) >= {"m", "dim", "ef2", "ef3", "ef4",
                            "contraction_norms", "stein_residual_l2_chaos",
                            "prop24_gap_chaos", "lemma_l2_combination",
                            "lemma_l11_gap"}
        assert "gamma_kernel_gap" not in rec  # no Gamma rate to match
    # halving laws: every tracked quantity drops by 2x per doubling of m
    for key in ("stein_residual_l2_chaos", "prop24_gap_chaos",
                "ef4_excess", "contraction_norm_sq_p1"):
        for r in report.trends[key]:
            assert math.isclose(r, 2.0, rel_tol=1e-10), (key, report.trends)


def test_run_family_diagnostics_gamma_report():
    t = gamma_target(0.5, 0.5)
    report = run_family_diagnostics(gamma_fixed_family(1), [1, 2], t)
    assert report.verdict.kind == "GammaOnly"
    for rec in report.members:
        assert rec["gamma_kernel_gap"] == 0.0
        assert rec["stein_residual_l2_chaos"] == 0.0


def test_run_family_diagnostics_mc_twins(monkeypatch):
    import chaoslimits.diagnostics as diag

    streams = []
    blocks = diag.iter_gaussian_chunks
    monkeypatch.setattr(diag, "iter_gaussian_chunks",
                        lambda *args: streams.append(args) or blocks(*args))
    fam, t = gaussian_clt_family(), normal_target(1.0)
    report = run_family_diagnostics(fam, [2, 4], t, mc_samples=20000, seed=31)
    # one draw stream per member, at the member's own seed
    assert [s[:3] for s in streams] == [(2, 20000, 31), (4, 20000, 31 + 1000003)]
    for j, (m, rec) in enumerate(zip([2, 4], report.members)):
        est, se = rec["stein_residual_l2_mc"]
        assert abs(est - rec["stein_residual_l2_chaos"]) < 5 * se
        # the record's three pairs are mc_twins at the member's own seed, bit for bit
        want = mc_twins(fam(m), t.coeff, 20000, 31 + 1000003 * j)
        assert (rec["stein_residual_l2_mc"], rec["prop24_gap_mc"],
                rec["stein_discrepancy_l1"]) == want


def test_pathwise_parts_reads_one_hermite_table(monkeypatch):
    import chaoslimits.chaos
    import chaoslimits.diagnostics as diag

    orders = []
    table = chaoslimits.chaos._hermite_monic_table

    def counting(max_order, x):
        orders.append(max_order)
        return table(max_order, x)

    monkeypatch.setattr(chaoslimits.chaos, "_hermite_monic_table", counting)
    f = gaussian_clt_family()(16)
    coeff = beta_target(2.0, 3.0).coeff
    got = mc_twins(f, coeff, 2000, 7)
    rows = diag._PathwiseParts(f, coeff).rows
    assert 1 < rows < 2000
    # one table per block of draws, never one per derivative slice
    assert orders == [2] * -(-2000 // rows)
    # the same triple, bit for bit, as when F and each slice built their own
    # table over the whole (2000, 16) draw
    pinned = ((1.576496887291598, 0.0486994711760848),
              (0.9989666100637394, 0.01531674712984922),
              (1.143351720765224, 0.011605568041340364))
    assert got == pinned
    # and whatever the block size: one point per block, or ragged blocks
    for budget in (1, 600):
        monkeypatch.setattr(chaoslimits.chaos, "_BLOCK_ELEMENTS", budget)
        assert mc_twins(f, coeff, 2000, 7) == pinned
    # the shared table gives each part exactly as the public evaluation does
    rng = np.random.default_rng(12)
    g = random_kernel(rng, 4, 3, 10)
    x = rng.standard_normal((50, 4))
    orders.clear()
    half_a, k = diag._PathwiseParts(g, (0.5, -1.0, 2.0))(x)
    assert orders == [3]
    v = eval_multiple_integral(g, x)
    assert np.array_equal(half_a, 0.5 * (0.5 * v * v - 1.0 * v + 2.0))
    df2 = np.zeros(len(x))
    for s in derivative_slices(g):
        df2 += eval_multiple_integral(s, x) ** 2
    assert np.array_equal(k, df2 * 9 / 3)


def test_mc_twins_memory_does_not_grow_with_the_draw():
    import tracemalloc

    f = gaussian_clt_family()(1024)
    tracemalloc.start()
    try:
        mc_twins(f, beta_target(2.0, 3.0).coeff, 20000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (20000, 1024) draw alone would be 164 MB
    assert peak < 32e6, peak


@pytest.mark.parametrize("samples", [1, 0, -5, 2.5, True])
def test_mc_twins_rejects_bad_sample_counts(samples):
    f = gaussian_clt_family()(2)
    with pytest.raises(ValueError, match="samples"):
        mc_twins(f, (0.0, 0.0, 2.0), samples, 1)


def test_run_family_diagnostics_clt_large_m():
    m = 4096
    (rec,) = run_family_diagnostics(
        gaussian_clt_family(), [m], normal_target(1.0)
    ).members
    assert math.isclose(rec["ef2"], 1.0, rel_tol=1e-13)
    assert math.isclose(rec["ef4"], 3.0 + 12.0 / m, rel_tol=1e-13)
    assert math.isclose(rec["contraction_norms"][1] ** 2, 1.0 / (4 * m),
                        rel_tol=1e-13)
    assert math.isclose(rec["stein_residual_l2_chaos"], 2.0 / m, rel_tol=1e-13)


def test_run_family_diagnostics_clt_against_beta_large_m():
    # alpha != 0 at scale: closed forms with EF^2 = 1, EF^3 = 2 sqrt(2/m),
    # EF^4 = 3 + 12/m and Var(n^{-1}||DF||^2) = 2/m
    m = 4096
    t0 = time.monotonic()
    (rec,) = run_family_diagnostics(
        gaussian_clt_family(), [m], beta_target(2.0, 3.0)
    ).members
    elapsed = time.monotonic() - t0
    alpha, beta, gamma = beta_target(2.0, 3.0).coeff.as_tuple()
    ef3, ef4, egamma2 = 2.0 * math.sqrt(2.0 / m), 3.0 + 12.0 / m, 1.0 + 2.0 / m
    ea2 = (alpha**2 * ef4 + 2.0 * alpha * beta * ef3
           + beta**2 + 2.0 * alpha * gamma + gamma**2)
    eagamma = alpha * ef4 / 3.0 + beta * ef3 / 2.0 + gamma
    assert math.isclose(rec["stein_residual_l2_chaos"],
                        0.25 * ea2 - eagamma + egamma2, rel_tol=1e-12)
    assert math.isclose(rec["prop24_gap_chaos"], abs(0.25 * ea2 - egamma2),
                        rel_tol=1e-12)
    assert elapsed < 10.0


def test_run_family_diagnostics_contracts_each_member_once_per_order(monkeypatch):
    import chaoslimits.chaos
    import chaoslimits.diagnostics

    calls = []
    original = chaoslimits.chaos.contract

    def counting(f, g, r):
        if f is g:
            calls.append((id(f), r))
        return original(f, g, r)

    monkeypatch.setattr(chaoslimits.chaos, "contract", counting)
    monkeypatch.setattr(chaoslimits.diagnostics, "contract", counting)
    # alpha != 0: the top level of F^2 comes from the r >= 1 weights, so the
    # m^2-entry f ~x_0 f is never formed
    target = named_target("beta", a=2.0, b=3.0)
    run_family_diagnostics(gaussian_clt_family(), [8], target)
    assert sorted(r for _, r in calls) == [1, 2]


def test_self_contraction_memo_stays_out_of_eq_and_repr():
    entries = {(0, 0): 0.5, (0, 1): -1.0, (1, 2): 0.25}
    used, fresh = SymmetricKernel(3, 2, entries), SymmetricKernel(3, 2, entries)
    h = used.self_contraction(1)
    assert used.self_contraction(1) is h
    assert used.norm_sq() == used.norm_sq() == 0.5**2 + 2 * 1.0 + 2 * 0.25**2
    assert used.inner(used) is used.norm_sq()
    assert used._norm_at(-3.0) == fresh._norm_at(-3.0) == 9.0 * used.norm_sq()
    third = moment3(used)
    assert moment3(used) == third == moment3(fresh)
    assert h == contract(fresh, fresh, 1).symmetrized()
    square, energy = chaos_product(used, used), malliavin_inner(used, used)
    assert used._squares == {0: square, 1: energy} and fresh._squares is None
    assert wick_moment([used], [4]) == expect_product(square, square)
    assert used == fresh and repr(used) == repr(fresh)
    assert [f.name for f in dataclasses.fields(used)] == ["dim", "order", "entries"]


def test_stein_residual_keeps_its_bits_after_other_targets():
    # levels outside 0 and n at alpha = 0 are read from the per-scale norm
    # memos of the contractions; a memo filled by another target's call must
    # give the bits of the kernel-operator form and of a fresh kernel
    targets = [normal_target(2.0), gamma_target(2.0, 0.5), beta_target(2.0, 3.0),
               uniform_centered_target()]
    rng = np.random.default_rng(97)
    for _ in range(6):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        f = random_kernel(rng, d, n, int(rng.integers(1, 8)))
        for order in itertools.permutations(range(len(targets))):
            used = SymmetricKernel(d, n, dict(f.entries))
            for i in order:
                coeff = targets[i].coeff.as_tuple()
                want = operator_residual(SymmetricKernel(d, n, dict(f.entries)), coeff)
                assert stein_residual_l2(used, coeff) == want
                assert stein_residual_l2(used, coeff) == want


def test_stein_residual_with_a_nan_beta_keeps_no_nan_norm():
    # a nan key never hits a dict, so it is not kept: repeated calls leave
    # the memos as one call does
    f = random_kernel(np.random.default_rng(3), 3, 3, 6)

    def memo_sizes():
        kernels = [f] + [f.self_contraction(r) for r in range(1, 4)]
        return [len(k._norms) for k in kernels]

    assert math.isnan(stein_residual_l2(f, (0.0, math.nan, 1.0)))
    once = memo_sizes()
    for _ in range(100):
        assert math.isnan(stein_residual_l2(f, (0.0, math.nan, 1.0)))
    assert memo_sizes() == once
    assert math.nan not in f._norms and len(f._norms) == 0


def test_gamma_fixed_family_builds_its_member_once():
    family = gamma_fixed_family(8)
    assert family(1) is family(4) is family(10**6)
    # built per family, not interned process-wide
    assert gamma_fixed_family(8)(1) is not family(1)
    assert gamma_fixed_family(8)(1) == family(1)


def test_gamma_fixed_sweep_contracts_each_order_once(monkeypatch):
    import chaoslimits.chaos
    import chaoslimits.diagnostics

    calls = []
    original = chaoslimits.chaos.contract

    def counting(f, g, r):
        if f is g:
            calls.append(r)
        return original(f, g, r)

    monkeypatch.setattr(chaoslimits.chaos, "contract", counting)
    monkeypatch.setattr(chaoslimits.diagnostics, "contract", counting)
    report = run_family_diagnostics(gamma_fixed_family(8), [1, 2, 3, 4],
                                    gamma_target(4.0, 0.5))
    assert sorted(calls) == [1, 2]
    assert len(report.members) == 4
    assert all(rec == dict(report.members[0], m=rec["m"]) for rec in report.members)


def test_run_family_diagnostics_sums_each_norm_once(monkeypatch):
    import chaoslimits.chaos

    kernels, inside, summed = {}, [], {}
    norm_sq, multiplicity = SymmetricKernel.norm_sq, chaoslimits.chaos.multiplicity

    def counting_norm_sq(self):
        kernels[id(self)] = self
        inside.append(id(self))
        try:
            return norm_sq(self)
        finally:
            inside.pop()

    def counting_multiplicity(idx):
        if inside:
            summed[inside[-1]] = summed.get(inside[-1], 0) + 1
        return multiplicity(idx)

    monkeypatch.setattr(SymmetricKernel, "norm_sq", counting_norm_sq)
    monkeypatch.setattr(chaoslimits.chaos, "multiplicity", counting_multiplicity)
    run_family_diagnostics(gaussian_clt_family(), [64], beta_target(2.0, 3.0))
    assert len(kernels) >= 2
    # the sum visits each entry of each kernel object once, however many calls
    assert {i: summed.get(i, 0) for i in kernels} == {
        i: len(k.entries) for i, k in kernels.items()}


def test_run_family_diagnostics_sums_each_half_inner_product_once(monkeypatch):
    # ef3, prop24_gap and lemma_l2_combination (each through moment3) and
    # lemma_l11_gap all read <f, f ~x_{n/2} f>; <f, f> is the norm memo
    pairs, members, inner = [], [], SymmetricKernel.inner

    def counting_inner(self, other):
        if other is not self:
            pairs.append((id(self), id(other)))
        return inner(self, other)

    def member(m):
        members.append(gaussian_clt_family()(m))
        return members[-1]

    monkeypatch.setattr(SymmetricKernel, "inner", counting_inner)
    report = run_family_diagnostics(KernelFamily("clt", 2, member), [16, 64],
                                    beta_target(2.0, 3.0))
    assert all("lemma_l11_gap" in rec for rec in report.members)
    assert sorted(pairs) == sorted((id(f), id(f.self_contraction(1))) for f in members)


def test_run_family_diagnostics_guards():
    with pytest.raises(ValueError, match="seed"):
        run_family_diagnostics(gaussian_clt_family(), [2], normal_target(1.0),
                               mc_samples=100)
    xs = np.linspace(0.1, 5.0, 50)
    custom = target_from_density_grid(xs, np.exp(-xs), (0.1, 5.0))
    with pytest.raises(ValueError, match="polynomial"):
        run_family_diagnostics(gaussian_clt_family(), [2], custom)


def test_builtin_families_registry():
    assert BUILTIN_FAMILIES["gaussian_clt"]()(3).dim == 3
    assert BUILTIN_FAMILIES["gamma_fixed"](2)(7).dim == 2
    assert BUILTIN_FAMILIES["gamma_fixed"]()(7).dim == 1
    for bad in (0, 4.0, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gamma_fixed_family(bad)
