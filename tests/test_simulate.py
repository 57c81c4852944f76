"""Euler--Maruyama sampling, distances, and empirical Stein checks."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from chaoslimits import (
    DiffusionCoefficient,
    EmpiricalDistribution,
    SimConfig,
    TargetMeasure,
    beta_target,
    gamma_target,
    ks_distance,
    normal_target,
    simulate,
    stein_dictionary_test,
    stein_residual_empirical,
    target_from_density_grid,
    uniform_centered_target,
    wasserstein1_distance,
)
from chaoslimits.targets import _inset_bounds
from oracles import naive_em

FAST = SimConfig(dt=2e-3, burn_in=2_000, samples=2_000, thinning=5, seed=1)
# on beta(1/2, 1/2) this chain clamps 0.88% of its steps
BETA_CLAMPING = SimConfig(dt=2e-3, burn_in=500, samples=500, thinning=4, seed=9)


def test_simconfig_validation():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dt=0.0, seed=1)
    with pytest.raises(ValueError, match="burn_in"):
        SimConfig(burn_in=-1, seed=1)
    with pytest.raises(ValueError, match="samples"):
        SimConfig(samples=1, seed=1)
    with pytest.raises(ValueError, match="thinning"):
        SimConfig(thinning=0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        SimConfig()


@pytest.mark.parametrize("seed", [3.7, 3.0, True, "3"])
def test_simconfig_rejects_a_seed_that_is_not_an_integer(seed):
    # a float or bool seed used to be truncated to another chain's seed
    with pytest.raises(ValueError, match="seed must be an integer"):
        SimConfig(seed=seed)


def test_simconfig_keeps_integer_seeds():
    assert SimConfig(seed=np.int64(3)).seed == 3
    assert type(SimConfig(seed=np.uint32(7)).seed) is int


def test_empirical_distribution_sorts_and_counts():
    e = EmpiricalDistribution(np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(e.values, [1.0, 2.0, 3.0])
    assert e.count == 3
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.array([1.0]))
    # the count is read off the values, never given
    with pytest.raises(TypeError):
        EmpiricalDistribution(np.array([3.0, 1.0, 2.0]), count=99)
    with pytest.raises(AttributeError):
        e.count = 99


def test_simulate_is_deterministic():
    t = normal_target(1.0)
    a = simulate(t, FAST)
    b = simulate(t, FAST)
    assert np.array_equal(a.values, b.values)
    c = simulate(t, SimConfig(dt=2e-3, burn_in=2_000, samples=2_000,
                              thinning=5, seed=2))
    assert not np.array_equal(a.values, c.values)


def test_simulate_meta_echo():
    t = gamma_target(2.0, 1.0)
    e = simulate(t, FAST)
    assert e.meta["target"] == "gamma"
    assert e.meta["params"] == {"a": 2.0, "lam": 1.0}
    assert e.meta["dt"] == FAST.dt
    assert e.meta["seed"] == FAST.seed
    assert e.count == FAST.samples
    # the config fields in declaration order, and the seed as a plain int
    e = simulate(t, dataclasses.replace(FAST, seed=np.int64(3)))
    assert list(e.meta) == ["target", "params", "dt", "burn_in", "samples",
                            "thinning", "seed"]
    assert type(e.meta["seed"]) is int and e.meta["seed"] == 3


def test_simulate_respects_bounded_support():
    for t in (uniform_centered_target(), beta_target(0.5, 0.5)):
        e = simulate(t, FAST)
        l, u = t.support
        assert e.values.min() > l
        assert e.values.max() < u


def test_simulate_roughly_calibrated():
    # a short chain is biased but must still land in the right ballpark
    t = normal_target(1.0)
    e = simulate(t, SimConfig(dt=1e-3, burn_in=20_000, samples=20_000,
                              thinning=20, seed=7))
    assert abs(e.mean()) < 0.1
    assert abs(e.var() - 1.0) < 0.15
    assert ks_distance(e, t) < 0.05


def test_simulate_dt_halving_is_stable():
    # same physical burn-in/spacing at two step sizes: both calibrated
    t = gamma_target(2.0, 1.0)
    coarse = simulate(t, SimConfig(dt=2e-3, burn_in=5_000, samples=5_000,
                                   thinning=100, seed=3))
    fine = simulate(t, SimConfig(dt=1e-3, burn_in=10_000, samples=5_000,
                                 thinning=200, seed=3))
    assert ks_distance(coarse, t) < 0.1
    assert ks_distance(fine, t) < 0.1
    assert abs(coarse.mean() - fine.mean()) < 0.2


def test_simulate_overflow_raises():
    t = normal_target(1.0)
    with pytest.raises(RuntimeError) as overflow:
        simulate(t, SimConfig(dt=1e9, burn_in=10, samples=10, seed=1))
    assert str(overflow.value) == (
        "state overflow at step 2: dt too large for the coefficient's stiffness")


def test_simulate_nonpositive_coefficient_raises():
    # a(x) = 1 + x turns negative once the chain passes -1
    tilted = dataclasses.replace(normal_target(1.0),
                                 coeff=DiffusionCoefficient.polynomial(0.0, 1.0, 1.0))
    with pytest.raises(RuntimeError) as negative:
        simulate(tilted, SimConfig(dt=0.5, burn_in=100, samples=10, seed=1))
    assert str(negative.value) == (
        "diffusion coefficient -1.2482481315568688 <= 0 at x = -2.2482481315568688:"
        " dt too large for the coefficient's stiffness")


def test_clamp_fraction_reporting():
    # beta(1/2, 1/2) piles its mass at both ends, so a coarse chain clamps often
    e = simulate(beta_target(0.5, 0.5), BETA_CLAMPING)
    assert e.clamp_fraction > 0.0
    assert e.clamping_flagged
    calm = simulate(uniform_centered_target(), FAST)
    assert not calm.clamping_flagged


def test_simulate_numeric_coefficient_equals_reference_chain():
    # a 65-knot N(0, 1) grid target: a(x) reads the table per step, drift mean - x
    xs = np.linspace(-6.0, 6.0, 65)
    t = target_from_density_grid(xs, scipy.stats.norm.pdf(xs))
    assert t.coeff.kind == "numeric"
    cfg = SimConfig(dt=1e-3, burn_in=10, samples=4, thinning=5, seed=13)
    ref = naive_em(t, cfg)
    assert ref.size == cfg.samples
    assert np.array_equal(simulate(t, cfg).values, np.sort(ref))


def test_clamping_beta_chain_equals_reference_chain():
    # beta(1/2, 1/2) has beta = 0, so the chain's Horner form of a(x) rounds
    # like the reference's expanded one and the two chains agree bit for bit
    t = beta_target(0.5, 0.5)
    e = simulate(t, BETA_CLAMPING)
    assert np.array_equal(e.values, np.sort(naive_em(t, BETA_CLAMPING)))
    assert e.clamp_fraction == 0.0088


def test_chain_clamps_to_the_inset_support_of_a_and_the_stein_routines():
    # Gamma(1/2, 1/4) on (-2, inf): the chain's lower clamp is the point a(x)
    # is read at, 1e-8 of max(1, |l|) = 2 inside the end, not 1e-8 inside it
    t = gamma_target(0.5, 0.25)
    e = simulate(t, SimConfig(dt=1e-3, burn_in=2000, samples=2000, thinning=5, seed=4))
    assert e.clamp_fraction == 49 / 12000
    assert e.values[0] == _inset_bounds(t.support)[0] == -1.99999998


def test_simulate_starts_at_the_median_else_the_mean():
    # a hand-built Gamma(2, 1) moved to (5, inf) starts at its median, as a
    # named target does
    law = scipy.stats.gamma(2.0, loc=5.0)
    shifted = TargetMeasure(name="shifted_gamma", support=(5.0, np.inf),
                            density=law.pdf, cdf=law.cdf, ppf=law.ppf, mean=7.0,
                            coeff=DiffusionCoefficient.polynomial(0.0, 2.0, -10.0))
    named = gamma_target(2.0, 1.0)
    tiny = SimConfig(dt=1e-12, burn_in=0, samples=2, thinning=1, seed=3)
    for t, start in ((shifted, law.median()), (named, float(named.ppf(0.5)))):
        assert np.allclose(simulate(t, tiny).values, start, rtol=0.0, atol=1e-4)
    cfg = SimConfig(dt=1e-3, burn_in=100, samples=50, thinning=2, seed=3)
    ref = np.sort(naive_em(shifted, cfg))
    assert np.max(np.abs(simulate(shifted, cfg).values - ref)) <= 1e-11


def test_simulate_polynomial_coefficient_matches_reference_chain():
    # Horner in the chain against the expanded polynomial in the reference
    t = gamma_target(2.0, 1.0)
    cfg = SimConfig(dt=1e-3, burn_in=1_000, samples=100, thinning=10, seed=17)
    ref = np.sort(naive_em(t, cfg))
    assert np.max(np.abs(simulate(t, cfg).values - ref)) <= 1e-11


# --- distances ---------------------------------------------------------------------------

def test_ks_distance_exact_samples_dkw():
    t = gamma_target(2.0, 1.0)
    e = EmpiricalDistribution(t.sample_exact(4000, seed=11))
    # DKW 99% band
    assert ks_distance(e, t) < 1.63 / math.sqrt(4000)


def test_ks_distance_detects_wrong_target():
    t = gamma_target(2.0, 1.0)
    e = EmpiricalDistribution(t.sample_exact(4000, seed=11))
    assert ks_distance(e, normal_target(1.0)) > 0.1


def test_wasserstein_identical_and_shifted():
    x = np.random.default_rng(13).standard_normal(500)
    e = EmpiricalDistribution(x)
    assert wasserstein1_distance(e, e) == 0.0
    shifted = EmpiricalDistribution(x + 0.75)
    assert math.isclose(wasserstein1_distance(e, shifted), 0.75, rel_tol=1e-12)


def test_wasserstein_two_samples_same_law():
    t = normal_target(1.0)
    a = EmpiricalDistribution(t.sample_exact(4000, seed=1))
    b = EmpiricalDistribution(t.sample_exact(6000, seed=2))  # unequal counts ok
    assert wasserstein1_distance(a, b) < 0.05


# --- empirical Stein checks ------------------------------------------------------------------

def test_stein_residual_empirical_on_exact_samples():
    t = gamma_target(2.0, 1.0)
    e = EmpiricalDistribution(t.sample_exact(20_000, seed=17))
    for h, dh in ((lambda y: y, lambda y: np.ones_like(y)),
                  (np.sin, np.cos)):
        mean, se = stein_residual_empirical(e, t, h, dh)
        assert se > 0
        assert abs(mean) < 4 * se


def test_stein_residual_empirical_rejects_wrong_law():
    t = gamma_target(2.0, 1.0)
    wrong = normal_target(1.0)
    e = EmpiricalDistribution(t.sample_exact(20_000, seed=23))
    mean, se = stein_residual_empirical(e, wrong, lambda y: y,
                                        lambda y: np.ones_like(y))
    assert abs(mean) > 10 * se


def test_stein_dictionary_test_pass_and_fail():
    t = normal_target(1.0)
    e = EmpiricalDistribution(t.sample_exact(20_000, seed=29))
    results, ok = stein_dictionary_test(e, t)
    assert ok
    assert set(results) == {"x", "x^2", "x^3", "sin"}
    for mean, se, z in results.values():
        assert abs(z) < 5.0 and z == pytest.approx(abs(mean) / se)
    _, bad = stein_dictionary_test(e, gamma_target(2.0, 1.0))
    assert not bad
