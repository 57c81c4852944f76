"""Package-level acceptance gate.

Each test covers one release criterion end to end and prints a single
PASS/FAIL line with the measured worst case against its stated tolerance,
so a plain ``pytest -v`` run doubles as the sign-off report.
"""
import math
import time

import numpy as np

from chaoslimits import (
    ChaosVector,
    EmpiricalDistribution,
    SimConfig,
    SymmetricKernel,
    beta_target,
    c_n,
    classifier,
    classifier_c0,
    classifier_delta,
    contract,
    eval_multiple_integral,
    gamma_kernel_gap,
    gamma_target,
    gaussian_clt_family,
    ks_distance,
    lemma_l11_gap,
    malliavin_inner,
    moment3,
    moment4,
    named_target,
    normal_target,
    ou_inverse,
    chaos_product,
    poly_moments,
    prop24_gap,
    random_kernel,
    sample_gaussian,
    simulate,
    stein_dictionary_test,
    stein_residual_l2,
    stein_residual_l2_direct,
    stein_solution,
    stein_solution_residual,
    student_target,
    uniform_centered_target,
    wick_moment,
)
from oracles import mble_inner_product


def report(num, label, worst, tol, ok, unit="max |err|"):
    verdict = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num} [{verdict}] {label}: {unit} = {worst:.3g}"
          f" (tolerance {tol:g})")
    assert ok, f"criterion {num} failed: {worst!r} vs {tol!r}"


def rel_err(got, want):
    scale = max(abs(got), abs(want), 1e-30)
    return abs(got - want) / scale


def test_criterion_1_moments_match_wick_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(400):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 7))
        f = random_kernel(rng, d, n, nnz=int(rng.integers(1, 6)))
        worst = max(worst, rel_err(moment3(f), wick_moment([f], [3])))
        worst = max(worst, rel_err(moment4(f), wick_moment([f], [4])))
    elapsed = time.monotonic() - t0
    report(1, "third/fourth moments vs Wick enumeration on 400 kernels",
           worst, 1e-10, worst < 1e-10 and elapsed < 60.0,
           unit="max rel err")


def test_criterion_2_product_formula_pathwise():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        f = random_kernel(rng, d, int(rng.integers(1, 4)), nnz=3)
        g = random_kernel(rng, d, int(rng.integers(1, 4)), nnz=3)
        x = sample_gaussian(d, 1000, seed=int(rng.integers(1, 2**31)))
        prod = chaos_product(ChaosVector.from_kernel(f),
                             ChaosVector.from_kernel(g))
        lhs = eval_multiple_integral(prod, x)
        rhs = eval_multiple_integral(f, x) * eval_multiple_integral(g, x)
        scale = max(float(np.max(np.abs(rhs))), 1.0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    report(2, "product formula pathwise at 1000 points x 50 pairs",
           worst, 1e-10, worst < 1e-10, unit="max rel err")


def test_criterion_3_fourth_moment_theorem_rates():
    t0 = time.monotonic()
    fam = gaussian_clt_family()
    coeff = (0.0, 0.0, 2.0)
    ms = [4, 8, 16, 32]
    ratios = []
    for m in ms:
        f, g = fam(m), fam(2 * m)
        ratios.append((moment4(f) - 3.0) / (moment4(g) - 3.0))
        ratios.append(contract(f, f, 1).symmetrized().norm_sq()
                      / contract(g, g, 1).symmetrized().norm_sq())
        ratios.append(stein_residual_l2(f, coeff)
                      / stein_residual_l2(g, coeff))
    worst = max(abs(r - 2.0) for r in ratios)
    elapsed = time.monotonic() - t0
    report(3, "1/m decay ratios for fourth moment, contraction, residual",
           worst, 0.2, all(1.8 <= r <= 2.2 for r in ratios)
           and elapsed < 10.0, unit="max |ratio - 2|")


def test_criterion_4_gamma_fixed_point_exact():
    worst = 0.0
    for c, a_shape, lam in ((1.0, 0.5, 0.5), (2.0, 0.5, 0.25),
                            (0.5, 0.5, 1.0)):
        # F = c (W(h)^2 - 1) is the centered Gamma(1/2, 1/(2c)) fixed point
        f = SymmetricKernel(1, 2, {(0, 0): c})
        t = gamma_target(a_shape, lam)
        coeff = t.coeff.as_tuple()
        worst = max(worst, stein_residual_l2(f, coeff))
        worst = max(worst, stein_residual_l2_direct(f, coeff))
        worst = max(worst, gamma_kernel_gap(f, lam))
        worst = max(worst, lemma_l11_gap(f, coeff))
        # <D(-L)^{-1}F, DF> = 2cF + 2c^2 pathwise
        x = sample_gaussian(1, 1000, seed=401)
        bracket = malliavin_inner(ou_inverse(ChaosVector.from_kernel(f)),
                                  ChaosVector.from_kernel(f))
        lhs = eval_multiple_integral(bracket, x)
        rhs = mble_inner_product("quadratic", x[:, 0], c)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(4, "Gamma fixed point identities and the quadratic bracket",
           worst, 1e-12, worst < 1e-12)


def test_criterion_5_gamma_moment_closed_forms():
    rng = np.random.default_rng(105)
    worst = 0.0
    worst_q = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.3, 5.0))
        lam = float(rng.uniform(0.3, 4.0))
        t = gamma_target(a, lam)
        m2, m3, m4 = poly_moments(*t.coeff.as_tuple())
        worst = max(worst, rel_err(m2, a / lam**2))
        worst = max(worst, rel_err(m3, 2 * a / lam**3))
        worst = max(worst, rel_err(m4, 3 * a * (a + 2) / lam**4))
        # quadrature of the centered density agrees to 1e-6
        worst_q = max(worst_q, rel_err(m2, t.moment(2)),
                      rel_err(m3, t.moment(3)), rel_err(m4, t.moment(4)))
    report(5, "Gamma (EX^2, EX^3, EX^4) closed forms at 20 random (a, lam);"
           f" quadrature agreement {worst_q:.2g} (tol 1e-6)",
           worst, 1e-10, worst < 1e-10 and worst_q < 1e-6,
           unit="max rel err")


def test_criterion_6_classifier_sign_facts():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    count = 0
    while count < 1000:
        alpha = float(rng.uniform(-2.0, 1.5))
        if alpha in (1.0, 2.0, 2.0 / 3.0):
            continue
        beta = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(0.05, 3.0))
        c0 = classifier_c0(alpha, beta, gamma)
        delta = classifier_delta(alpha, beta, gamma)
        if alpha == 0.0:
            ok = ok and c0 == 0.0 and delta == 0.0
        else:
            ok = ok and c0 != 0.0 and delta != 0.0
        count += 1
    # alpha = 0 rows exactly
    for _ in range(50):
        beta = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(0.05, 3.0))
        ok = ok and classifier_c0(0.0, beta, gamma) == 0.0
        ok = ok and classifier_delta(0.0, beta, gamma) == 0.0
    # C0 > 0 for the bounded symmetric targets
    c0s = [classifier_c0(*uniform_centered_target().coeff.as_tuple())]
    for a in (0.5, 1.0, 2.0, 5.0):
        c0s.append(classifier_c0(*beta_target(a, a).coeff.as_tuple()))
    ok = ok and all(v > 0.0 for v in c0s)
    worst = min(c0s)
    # headline verdicts
    verdicts = {
        "normal": classifier(*normal_target(1.0).coeff.as_tuple()).kind,
        "gamma": classifier(*gamma_target(2.0, 1.0).coeff.as_tuple()).kind,
        "pareto3": classifier(*named_target("pareto", nu=3.0)
                              .coeff.as_tuple()).kind,
    }
    ok = ok and verdicts == {"normal": "GaussianOnly", "gamma": "GammaOnly",
                             "pareto3": "OutsideHypotheses"}
    report(6, "C0/Delta vanish iff alpha = 0; C0 > 0 bounded laws; verdicts",
           worst, 0.0, ok, unit="min C0 over bounded targets")


def test_criterion_7_stein_solutions():
    worst = 0.0
    for t in (normal_target(1.0), gamma_target(2.0, 1.0),
              beta_target(2.0, 3.0)):
        xs = t.interior_grid(200)
        for f in (lambda y: y, lambda y: y**2):
            res = stein_solution_residual(t, f, xs)
            worst = max(worst, float(np.max(np.abs(res))))
    # the normal linear case solves to the constant -1
    g = stein_solution(normal_target(1.0), lambda y: y)
    xs = np.linspace(-4.0, 4.0, 101)
    const_err = float(np.max(np.abs(g(xs) + 1.0)))
    report(7, "Stein solution residuals (normal/gamma/beta, f = x, x^2);"
           f" normal linear constant off by {const_err:.2g} (tol 1e-8)",
           worst, 1e-6, worst < 1e-6 and const_err < 1e-8)


def test_criterion_8_simulation_ergodicity():
    t0 = time.monotonic()
    cases = [
        (normal_target(1.0), 11),
        (uniform_centered_target(), 12),
        (gamma_target(2.0, 1.0), 13),
    ]
    worst_ks = 0.0
    worst_z = 0.0
    ok = True
    for target, seed in cases:
        cfg = SimConfig(dt=1e-3, burn_in=100_000, samples=100_000,
                        thinning=100, seed=seed)
        e = simulate(target, cfg)
        ks = ks_distance(e, target)
        results, dict_ok = stein_dictionary_test(e, target)
        worst_ks = max(worst_ks, ks)
        worst_z = max(worst_z, max(z for _, _, z in results.values()))
        ok = ok and ks < 0.03 and dict_ok and not e.clamping_flagged
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(8, f"ergodic sampling KS (3 targets, 1e5 samples, {elapsed:.0f}s;"
           f" worst dictionary z = {worst_z:.2f})",
           worst_ks, 0.03, ok, unit="max KS")


def test_criterion_9_energy_identity_gap_rate():
    fam = gaussian_clt_family()
    coeff = (0.0, 0.0, 2.0)
    ratios = []
    for m in (4, 8, 16, 32):
        ratios.append(prop24_gap(fam(m), coeff)
                      / prop24_gap(fam(2 * m), coeff))
    worst = max(abs(r - 2.0) for r in ratios)
    report(9, "energy identity gap 1/m decay (exact chaos arithmetic)",
           worst, 0.2, all(1.8 <= r <= 2.2 for r in ratios),
           unit="max |ratio - 2|")
