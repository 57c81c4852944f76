"""Target measures: coefficient closed forms, moments, Stein solutions."""
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.polynomial import Polynomial

from chaoslimits import (
    NAMED_TARGETS,
    DiffusionCoefficient,
    TargetMeasure,
    beta_target,
    fdist_target,
    gamma_target,
    inverse_gamma_target,
    moment_table,
    named_target,
    normal_target,
    pareto_target,
    poly_moments,
    stein_identity_residual,
    stein_solution,
    stein_solution_residual,
    student_target,
    target_from_density_grid,
    uniform_centered_target,
)
from oracles import mble_inner_product, quad_coeff, quad_cdf, quad_mass, quad_mean

ALL_TARGETS = [
    normal_target(1.0),
    normal_target(2.5),
    student_target(5.0),
    student_target(3.5),
    pareto_target(3.0),
    pareto_target(4.5),
    gamma_target(2.0, 1.0),
    gamma_target(0.5, 0.5),
    inverse_gamma_target(3.0, 5.0),
    fdist_target(6.0, 10.0),
    uniform_centered_target(),
    beta_target(2.0, 3.0),
    beta_target(0.5, 0.5),
]


def coeff_by_quadrature(target, x):
    """a(x) from the defining partial integral, independent of the package."""
    l, u = target.support
    # int y p(y) dy over the nearer tail; both tails agree because EX = 0
    if target.cdf(x) <= 0.5:
        val, _ = scipy.integrate.quad(
            lambda y: -y * target.density(y), l, x, limit=400
        )
    else:
        val, _ = scipy.integrate.quad(
            lambda y: y * target.density(y), x, u, limit=400
        )
    return 2.0 * val / target.density(x)


@pytest.mark.parametrize("target", ALL_TARGETS,
                         ids=lambda t: f"{t.name}{t.params}")
def test_coefficient_matches_defining_integral(target):
    for q in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
        x = float(target.ppf(q))
        want = coeff_by_quadrature(target, x)
        got = float(target.coeff(x))
        assert math.isclose(got, want, rel_tol=1e-6), (q, got, want)


@pytest.mark.parametrize("target", ALL_TARGETS,
                         ids=lambda t: f"{t.name}{t.params}")
def test_named_targets_validate(target):
    target.validate()


@pytest.mark.parametrize("a, b", [(0.1, 0.1), (0.05, 2.0)])
def test_beta_with_singular_ends_validates(a, b):
    # a quantile of a law massed at a singular end can round to the end,
    # where a(x) = 0
    t = beta_target(a, b)
    l, u = t.support
    xs = t.interior_grid()
    assert np.all((l < xs) & (xs < u))
    assert t.validate()
    res = stein_solution_residual(t, Polynomial([0, 0, 1]), t.interior_grid(200))
    assert float(np.max(np.abs(res))) <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, params", [
    ("gamma", {"a": 0.05, "lam": 1.0}), ("gamma", {"a": 0.3, "lam": 1.0}),
    ("f", {"a": 0.1, "b": 20.0}), ("f", {"a": 0.68, "b": 20.4}),
    ("beta", {"a": 0.05, "b": 2.0}), ("beta", {"a": 2.0, "b": 0.05}),
    ("beta", {"a": 0.1, "b": 0.1}), ("beta", {"a": 2.0, "b": 3.0}),
], ids=lambda v: str(v))
def test_validate_integrates_against_the_power_at_a_singular_end(name, params):
    # quad without the end's weight missed the drift integral of gamma(0.05, 1)
    # by 0.019 and of F(0.1, 20) by 0.26, and warned on beta(0.05, 2)
    assert named_target(name, **params).validate()


# --- closed-form densities against scipy -----------------------------------------------

# each named target beside the scipy law of the same centered variable; the
# uniform target has no parameters, so it appears once
DENSITY_CASES = [
    (normal_target(1.0), scipy.stats.norm(scale=1.0)),
    (normal_target(2.5), scipy.stats.norm(scale=math.sqrt(2.5))),
    (student_target(5.0), scipy.stats.t(5.0)),
    (student_target(3.5), scipy.stats.t(3.5)),
    (pareto_target(3.0), scipy.stats.pareto(3.0, loc=-1.0 - 1.0 / 2.0)),
    (pareto_target(4.5), scipy.stats.pareto(4.5, loc=-1.0 - 1.0 / 3.5)),
    (gamma_target(2.0, 1.0), scipy.stats.gamma(2.0, scale=1.0, loc=-2.0)),
    (gamma_target(0.5, 0.5), scipy.stats.gamma(0.5, scale=2.0, loc=-1.0)),
    (inverse_gamma_target(3.0, 5.0),
     scipy.stats.invgamma(5.0, scale=3.0, loc=-3.0 / 4.0)),
    (inverse_gamma_target(0.7, 2.5),
     scipy.stats.invgamma(2.5, scale=0.7, loc=-0.7 / 1.5)),
    (fdist_target(6.0, 10.0), scipy.stats.f(6.0, 10.0, loc=-10.0 / 8.0)),
    (fdist_target(2.0, 7.0), scipy.stats.f(2.0, 7.0, loc=-7.0 / 5.0)),
    (uniform_centered_target(), scipy.stats.uniform(loc=-0.5)),
    (beta_target(2.0, 3.0), scipy.stats.beta(2.0, 3.0, loc=-2.0 / 5.0)),
    (beta_target(0.5, 0.5), scipy.stats.beta(0.5, 0.5, loc=-0.5)),
]
DENSITY_IDS = [f"{t.name}{t.params}" for t, _ in DENSITY_CASES]


@pytest.mark.parametrize("target, law", DENSITY_CASES, ids=DENSITY_IDS)
def test_density_matches_scipy_pdf(target, law):
    xs = law.ppf(np.linspace(0.0005, 0.9995, 2001))
    want = law.pdf(xs)
    got = target.density(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert float(np.max(np.abs(got - want) / want)) <= 1e-13
    floats = [target.density(float(x)) for x in xs]
    assert all(type(v) is float for v in floats)
    assert float(np.max(np.abs(np.array(floats) - want) / want)) <= 1e-13
    block = target.density(xs[:12].reshape(3, 4))
    assert block.shape == (3, 4)
    assert np.array_equal(block.ravel(), got[:12])


@pytest.mark.parametrize("target, law", DENSITY_CASES, ids=DENSITY_IDS)
def test_density_vanishes_outside_support_and_matches_at_endpoints(target, law):
    l, u = target.support
    outside = [v for v in (l - 1.0, u + 1.0) if math.isfinite(v)]
    outside += [-math.inf, math.inf]
    assert all(target.density(x) == 0.0 for x in outside)
    assert np.all(target.density(np.array(outside)) == 0.0)
    for edge in (e for e in (l, u) if math.isfinite(e)):
        want = float(law.pdf(edge))
        if math.isfinite(want):
            assert math.isclose(target.density(edge), want, rel_tol=1e-13)
            assert math.isclose(float(target.density(np.array([edge]))[0]), want,
                                rel_tol=1e-13)


@pytest.mark.parametrize("target, law", DENSITY_CASES, ids=DENSITY_IDS)
def test_scipy_calls_equal_the_frozen_law_bit_for_bit(target, law):
    # the named targets call scipy.special in scipy.stats' own operation
    # order and edge conventions, which must change no bit, not even a sign
    rng = np.random.default_rng(2)
    l, u = target.support
    assert target.support == tuple(float(e) for e in law.support())
    qs = np.concatenate([rng.uniform(size=400), [0.0, 1.0, -0.1, 1.1, np.nan, 0.5]])
    xs = np.concatenate([law.ppf(rng.uniform(size=400)),
                         [l, u, l - 1.0, u + 1.0, np.nan, -np.inf, np.inf]])
    for mine, ref, points in ((target.ppf, law.ppf, qs), (target.cdf, law.cdf, xs)):
        got, want = mine(points), ref(points)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for p in points[-7:].tolist():
            got, want = mine(p), ref(p)
            assert type(got) is type(want) and got.shape == want.shape == ()
            assert np.array_equal(got, want, equal_nan=True)
            assert np.signbit(got) == np.signbit(want)
    for edge in (e for e in target.support if math.isfinite(e)):
        assert target.density(edge) == float(law.pdf(edge))


def test_named_targets_make_no_scipy_stats_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy.stats distribution method was called")

    for name in ("cdf", "ppf", "pdf", "logpdf", "sf", "isf", "support", "freeze"):
        monkeypatch.setattr(scipy.stats.rv_continuous, name, refuse)
    for target in (normal_target(2.0), student_target(5.0), pareto_target(3.0),
                   gamma_target(2.0, 1.0), inverse_gamma_target(3.0, 5.0),
                   fdist_target(6.0, 10.0), uniform_centered_target(),
                   beta_target(2.0, 3.0)):
        xs = target.interior_grid(11)
        assert np.all(np.diff(target.cdf(xs)) > 0.0)
        assert np.allclose(target.ppf(target.cdf(xs)), xs, rtol=1e-8, atol=1e-10)
        assert target.sample_exact(5, seed=1).shape == (5,)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (2.0, 3.0), (0.3, 2.0)])
def test_beta_density_is_finite_beside_both_ends(a, b):
    # beside the upper end x + m rounds to 1, but the distance u - x is exact
    t = beta_target(a, b)
    l, u = t.support
    for x in (math.nextafter(l, math.inf), math.nextafter(u, -math.inf)):
        p = t.density(x)
        assert type(p) is float and math.isfinite(p) and p > 0.0
        assert math.isclose(p, float(t.density(np.array([x]))[0]), rel_tol=1e-13)


@pytest.mark.parametrize("target", ALL_TARGETS,
                         ids=lambda t: f"{t.name}{t.params}")
def test_polynomial_coeff_and_drift_on_a_float_equal_the_array_path(target):
    xs = target.ppf(np.linspace(0.001, 0.999, 101))
    a, b = target.coeff(xs), target.drift(xs)
    for i, x in enumerate(xs.tolist()):
        assert isinstance(target.coeff(x), float) and isinstance(target.drift(x), float)
        assert target.coeff(x) == a[i] and target.drift(x) == b[i]


def test_coefficient_examples():
    assert normal_target(1.0).coeff.as_tuple() == (0.0, 0.0, 2.0)
    al, be, ga = student_target(5.0).coeff.as_tuple()
    assert (al, be, ga) == (0.5, 0.0, 2.5)
    al, be, ga = gamma_target(2.0, 1.0).coeff.as_tuple()
    assert (al, be, ga) == (0.0, 2.0, 4.0)
    al, be, ga = uniform_centered_target().coeff.as_tuple()
    assert (al, be, ga) == (-1.0, 0.0, 0.25)
    # beta(a, b): alpha = -2/(a+b), beta = 2(b-a)/(a+b)^2, gamma = 2ab/(a+b)^3
    al, be, ga = beta_target(2.0, 3.0).coeff.as_tuple()
    assert math.isclose(al, -0.4)
    assert math.isclose(be, 2.0 / 25.0)
    assert math.isclose(ga, 12.0 / 125.0)


def test_parameter_guards():
    with pytest.raises(ValueError):
        student_target(2.0)  # needs nu > 2
    with pytest.raises(ValueError):
        pareto_target(1.5)
    with pytest.raises(ValueError):
        inverse_gamma_target(1.0, 2.0)  # lam > 2
    with pytest.raises(ValueError):
        fdist_target(3.0, 4.0)  # b > 4
    with pytest.raises(ValueError):
        normal_target(0.0)
    with pytest.raises(ValueError):
        gamma_target(-1.0, 1.0)


_VALID_PARAMS = {"normal": {"gamma": 1.0}, "student": {"nu": 5.0}, "pareto": {"nu": 3.0},
                 "gamma": {"a": 2.0, "lam": 1.0}, "inverse_gamma": {"delta": 3.0, "lam": 4.0},
                 "f": {"a": 6.0, "b": 10.0}, "uniform": {}, "beta": {"a": 2.0, "b": 3.0}}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_VALID_PARAMS))
def test_named_targets_reject_non_finite_parameters(name, value):
    # a nan passed every "x <= 0" guard and an inf passed as a large number;
    # the uniform target takes no parameter, so its case only builds
    ctor, wanted = NAMED_TARGETS[name]
    assert sorted(wanted) == sorted(_VALID_PARAMS[name])
    assert ctor(**_VALID_PARAMS[name]).name == name
    for key in wanted:
        with pytest.raises(ValueError, match=f"parameter {key} must be finite"):
            ctor(**{**_VALID_PARAMS[name], key: value})


def test_named_target_dispatch():
    t = named_target("student", nu=5.0)
    assert t.name == "student" and t.params == {"nu": 5.0}
    with pytest.raises(ValueError):
        named_target("student")  # missing nu
    with pytest.raises(ValueError):
        named_target("student", nu=5.0, a=1.0)  # extra
    with pytest.raises(ValueError):
        named_target("cauchy")


# --- moments -------------------------------------------------------------------------

def test_poly_moments_student5():
    m2, m3, m4 = poly_moments(0.5, 0.0, 2.5)
    assert math.isclose(m2, 5.0 / 3.0, rel_tol=1e-14)
    assert m3 == 0.0
    assert math.isclose(m4, 25.0, rel_tol=1e-14)


def test_poly_moments_match_quadrature():
    for target in (uniform_centered_target(), gamma_target(2.0, 1.0),
                   beta_target(2.0, 3.0), normal_target(1.5)):
        al, be, ga = target.coeff.as_tuple()
        m2, m3, m4 = poly_moments(al, be, ga)
        assert math.isclose(m2, target.moment(2), rel_tol=1e-7, abs_tol=1e-10)
        assert math.isclose(m3, target.moment(3), rel_tol=1e-7, abs_tol=1e-9)
        assert math.isclose(m4, target.moment(4), rel_tol=1e-7, abs_tol=1e-9)


def test_poly_moments_guards():
    with pytest.raises(ValueError):
        poly_moments(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        poly_moments(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        poly_moments(2.0 / 3.0, 0.0, 1.0)


def test_moment_table_uniform():
    # EX^2 = 1/12, EX^4 = 1/80, EX^6 = 1/448 for U(-1/2, 1/2)
    table = moment_table(-1.0, 0.0, 0.25, 6)
    assert math.isclose(table[0], 1.0)
    assert math.isclose(table[2], 1.0 / 12.0, rel_tol=1e-14)
    assert math.isclose(table[3], 0.0, abs_tol=1e-15)
    assert math.isclose(table[4], 1.0 / 80.0, rel_tol=1e-13)
    assert math.isclose(table[6], 1.0 / 448.0, rel_tol=1e-13)


# the parent implementation's ladder, which ``moment_table`` must keep bit for bit
# (the benchmark's moment answers and ``length_scale`` read it)
MOMENT_LADDERS = [
    (normal_target(1.0), [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0]),
    (normal_target(1.5), [1.0, 0.0, 1.5, 0.0, 6.75, 0.0, 50.625, 0.0, 531.5625]),
    (student_target(11.0), [1.0, 0.0, 1.2222222222222223, 0.0, 5.761904761904762, 0.0,
                            63.38095238095239, 0.0, 1626.7777777777785]),
    (pareto_target(9.0), [1.0, 0.0, 0.020089285714285716, 0.008370535714285714,
                          0.007972935267857143, 0.011143275669642856, 0.0250838143484933,
                          0.09876537322998044, 0.888888895511627]),
    (gamma_target(2.0, 1.0), [1.0, 0.0, 2.0, 4.0, 24.0, 128.0, 880.0, 6816.0, 60032.0]),
    (gamma_target(0.7, 2.3), [1.0, 0.0, 0.13232514177693763, 0.11506534067559795,
                              0.2026150564070312, 0.41327816121670347, 1.0324861155797163,
                              3.0215645883006124, 10.15243323969385]),
    (inverse_gamma_target(3.0, 10.0), [1.0, 0.0, 0.013888888888888888, 0.002645502645502645,
                                       0.001653439153439153, 0.0011169900058788944,
                                       0.0011604693317656277, 0.0017955124436605909,
                                       0.004640822664228009]),
    (fdist_target(6.0, 20.0), [1.0, 0.0, 0.617283950617284, 0.9798157946306095,
                               4.245868443399307, 22.741403628463523, 184.1354785519801,
                               2270.5562172784307, 47332.29274304072]),
    (uniform_centered_target(), [1.0, 0.0, 0.08333333333333333, 0.0, 0.0125, 0.0,
                                 0.002232142857142857, 0.0, 0.00043402777777777775]),
    (beta_target(2.0, 3.0), [1.0, 0.0, 0.04000000000000001, 0.0022857142857142863,
                             0.0037714285714285723, 0.0005790476190476193,
                             0.0005104761904761906, 0.00013149090909090916,
                             8.680727272727276e-05]),
    (beta_target(8.52, 0.32), [1.0, 0.0, 0.0035456016811145777, -0.0006068093241292417,
                               0.00017396425681569661, -5.686615589457942e-05,
                               2.124947235308873e-05, -8.771578074105873e-06,
                               3.9233137753830875e-06]),
]


@pytest.mark.parametrize("target, want", MOMENT_LADDERS,
                         ids=lambda v: f"{v.name}{v.params}" if hasattr(v, "name") else "")
def test_moment_table_is_bit_identical_to_the_parent_ladder(target, want):
    assert target.has_moment(8)
    assert moment_table(*target.coeff.as_tuple(), 8) == want
    assert poly_moments(*target.coeff.as_tuple()) == tuple(want[2:5])


def test_moment_table_breakdown_order():
    # alpha = 2/(r-1) kills the left side at order r
    with pytest.raises(ValueError, match="order 5"):
        moment_table(0.5, 0.0, 1.0, 5)
    assert moment_table(0.5, 0.0, 1.0, 4)[4] == 4.0
    assert moment_table(0.5, 0.0, 1.0, 0) == [1.0]


def test_student_moment_bound():
    t = student_target(5.0)
    assert t.has_moment(4)
    assert not t.has_moment(5)
    assert normal_target(1.0).has_moment(40)


# --- exact sampling and grids ---------------------------------------------------------

def test_sample_exact_deterministic_and_calibrated():
    t = gamma_target(2.0, 1.0)
    s1 = t.sample_exact(5000, seed=3)
    s2 = t.sample_exact(5000, seed=3)
    assert np.array_equal(s1, s2)
    # empirical CDF close to target CDF (DKW at 99%)
    xs = np.sort(s1)
    emp = np.arange(1, len(xs) + 1) / len(xs)
    assert float(np.max(np.abs(emp - t.cdf(xs)))) < 1.63 / math.sqrt(len(xs))


def test_interior_grid_stays_inside():
    for target in (uniform_centered_target(), beta_target(0.5, 0.5),
                   gamma_target(0.5, 0.5)):
        xs = target.interior_grid(101)
        l, u = target.support
        assert xs.min() > l and xs.max() < u
        assert np.all(np.diff(xs) > 0)


# --- stein solutions -------------------------------------------------------------------

def test_stein_solution_normal_linear_is_constant():
    t = normal_target(1.0)
    g = stein_solution(t, lambda y: y)
    xs = np.linspace(-3.0, 3.0, 25)
    assert np.max(np.abs(g(xs) + 1.0)) < 1e-8


def test_stein_solution_residual_small():
    for target in (normal_target(1.0), gamma_target(2.0, 1.0),
                   beta_target(2.0, 3.0), uniform_centered_target()):
        xs = target.interior_grid(60)
        for f in (lambda y: y, lambda y: y**2):
            res = stein_solution_residual(target, f, xs)
            assert float(np.max(np.abs(res))) < 1e-7, target.name


def test_stein_identity_residual_zero_under_target():
    t = gamma_target(2.0, 1.0)
    for h, dh in ((lambda y: y, lambda y: np.ones_like(y)),
                  (np.sin, np.cos),
                  (lambda y: y**2, lambda y: 2 * y)):
        assert abs(stein_identity_residual(t, h, dh)) < 1e-9


def test_stein_identity_residual_detects_mismatch():
    # uniform coefficients against the normal density: far from zero
    t = uniform_centered_target()
    wrong = normal_target(1.0)

    val = stein_identity_residual(wrong, lambda y: y, lambda y: np.ones_like(y))
    assert abs(val) < 1e-9  # sanity: matched pair is fine
    mixed = abs(
        stein_identity_residual(t, lambda y: y, lambda y: np.ones_like(y))
        - stein_identity_residual(wrong, lambda y: y, lambda y: np.ones_like(y))
    )
    assert mixed < 1e-8  # both are their own invariant laws
    # now evaluate uniform's statistic under normal samples via quadrature:
    # E[(1/2)a_unif(X) h'(X) + b(X) h(X)] under N(0,1) with h = x
    a = t.coeff
    val, _ = scipy.integrate.quad(
        lambda y: (0.5 * float(a(y)) - y * y)
        * math.exp(-y * y / 2) / math.sqrt(2 * math.pi),
        -0.5, 0.5,
    )
    tail = -2 * scipy.integrate.quad(
        lambda y: y * y * math.exp(-y * y / 2) / math.sqrt(2 * math.pi),
        0.5, np.inf,
    )[0]
    assert abs(val + tail) > 0.1


def test_stein_solution_raises_where_a_is_not_positive():
    # the N(0, 1) density with the uniform coefficient 1/4 - x^2 < 0 at x = 1
    norm = scipy.stats.norm()
    t = TargetMeasure(
        name="mismatch", support=(-math.inf, math.inf), density=norm.pdf,
        coeff=DiffusionCoefficient.polynomial(-1.0, 0.0, 0.25),
        cdf=norm.cdf, ppf=norm.ppf,
    )
    g = stein_solution(t, lambda y: y)
    assert math.isfinite(g(0.0))  # a(0) = 1/4 > 0
    with pytest.raises(ValueError, match="not positive"):
        g(1.0)


def test_drift_is_mean_minus_x():
    xs = np.array([-2.0, 0.5, 3.0])
    assert np.array_equal(normal_target(1.0).drift(xs), -xs)
    law = scipy.stats.norm(loc=1.5)
    t = TargetMeasure(name="shifted", support=(-math.inf, math.inf),
                      density=law.pdf, cdf=law.cdf, ppf=law.ppf,
                      coeff=DiffusionCoefficient.polynomial(0.0, 0.0, 2.0),
                      mean=1.5)
    assert np.array_equal(t.drift(xs), 1.5 - xs)
    assert t.validate()


def test_stein_solution_without_cdf_pivots_at_the_mean():
    # a hand-built Beta(2, 3) moved to (5, 10): the nearer tail must be chosen
    # around its median, not around 0, or the left end loses all digits
    law = scipy.stats.beta(2.0, 3.0, loc=5.0, scale=5.0)
    t = TargetMeasure(name="shifted_beta", support=(5.0, 10.0), density=law.pdf,
                      cdf=law.cdf, ppf=law.ppf,
                      coeff=DiffusionCoefficient.polynomial(-0.4, 6.0, -20.0),
                      mean=7.0)
    assert t.validate()
    xs = t.interior_grid(60)
    for f in (lambda y: y, lambda y: y**2):
        res = stein_solution_residual(t, f, xs)
        assert float(np.max(np.abs(res))) < 1e-6


def test_stein_solution_residual_on_half_infinite_support():
    # Gamma(2, 1) moved to (5, inf): the density vanishes at the one finite
    # end, so the stencil must stay strictly inside it
    law = scipy.stats.gamma(2.0, loc=5.0)
    t = TargetMeasure(name="shifted_gamma", support=(5.0, np.inf), density=law.pdf,
                      cdf=law.cdf, ppf=law.ppf,
                      coeff=DiffusionCoefficient.polynomial(0.0, 2.0, -10.0),
                      mean=7.0)
    xs = t.interior_grid(40)
    for f in (lambda y: y, lambda y: y**2):
        res = stein_solution_residual(t, f, xs)
        assert float(np.max(np.abs(res))) <= 1e-6


def test_stein_solution_mean_value_recorded():
    t = beta_target(2.0, 2.0)
    g = stein_solution(t, lambda y: y**2)
    assert math.isclose(g.mean_value, t.moment(2), rel_tol=1e-8)


# the eight named targets at the parameters of the CLI goldens
GOLDEN_TARGETS = [
    normal_target(1.0), student_target(7.0), pareto_target(5.0),
    gamma_target(2.0, 1.0), inverse_gamma_target(3.0, 4.0),
    fdist_target(6.0, 10.0), uniform_centered_target(), beta_target(2.0, 3.0),
]


def _counting_quad(monkeypatch):
    import chaoslimits.targets

    calls = []
    original = chaoslimits.targets.integrate.quad

    def counting(fn, lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return original(fn, lo, hi, *args, **kwargs)

    monkeypatch.setattr(chaoslimits.targets.integrate, "quad", counting)
    return calls


@pytest.mark.parametrize("target", GOLDEN_TARGETS, ids=lambda t: t.name)
def test_length_scale_reads_the_moment_ladder(target, monkeypatch):
    l, u = target.support
    if math.isfinite(l) and math.isfinite(u):
        want = u - l
    else:
        want = math.sqrt(target.moment(2))
    calls = _counting_quad(monkeypatch)
    assert math.isclose(target.length_scale(), want, rel_tol=1e-8)
    assert calls == []


def test_length_scale_raises_when_its_quadrature_fails():
    # a density that fails far out must not turn into a made-up scale
    def density(y):
        if np.any(np.abs(y) > 50.0):
            raise ValueError(f"density undefined at {y!r}")
        return np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)

    norm = scipy.stats.norm()
    t = TargetMeasure(name="raising", support=(-math.inf, math.inf), density=density,
                      cdf=norm.cdf, ppf=norm.ppf,
                      coeff=DiffusionCoefficient.numeric(lambda x: 2.0 + 0.0 * x))
    with pytest.raises(ValueError, match="density undefined"):
        t.length_scale()


@pytest.mark.parametrize("target", [fdist_target(6.0, 10.0), inverse_gamma_target(3.0, 4.0)],
                         ids=lambda t: t.name)
def test_stein_residual_has_no_spike_at_the_median(target):
    # the stencil around the median straddles the tail switch; differencing
    # a left-tail value against a right-tail one gave 1.2e-4 on F(6, 10)
    med = float(target.ppf(0.5))
    for x in (med, math.nextafter(med, -math.inf), math.nextafter(med, math.inf)):
        res = stein_solution_residual(target, np.sin, [x])
        assert abs(float(res[0])) <= 1e-7


@hst.composite
def _points_around(draw, support, reach):
    """Unsorted points on both sides of the support's middle, some repeated,
    some past the ends (clamped to the inset support)."""
    lo, hi = support
    pts = draw(hst.lists(hst.floats(lo - reach, hi + reach), min_size=2, max_size=24))
    repeats = draw(hst.lists(hst.sampled_from(pts), max_size=4))
    ends = draw(hst.lists(hst.sampled_from([lo - 1.0, lo, hi, hi + 1.0]), max_size=3))
    return np.array(draw(hst.permutations(pts + repeats + ends)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), kind=hst.sampled_from(["gauss", "gamma"]),
       knots=hst.integers(33, 200), scale=hst.floats(0.25, 4.0),
       shift=hst.floats(-50.0, 50.0), shape=hst.floats(1.5, 6.0))
def test_grid_coeff_array_path_equals_per_point_path(data, kind, knots, scale, shift,
                                                     shape):
    t = target_from_density_grid(*_shaped_grid(kind, knots, scale, shift, shape))
    xs = data.draw(_points_around(t.support, 0.1 * (t.support[1] - t.support[0])))
    got = t.coeff(xs)
    want = np.array([t.coeff(float(x)) for x in xs])
    assert got.shape == xs.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    block = t.coeff(xs[: len(xs) // 2 * 2].reshape(2, -1))
    assert np.array_equal(block.ravel(), got[: len(xs) // 2 * 2])


def test_array_path_names_the_first_non_positive_denominator():
    # the N(0, 1) density with the uniform coefficient 1/4 - x^2: a(x) p(x)
    # is not positive from |x| = 1/2 on
    norm = scipy.stats.norm()
    t = TargetMeasure(
        name="mismatch", support=(-math.inf, math.inf), density=norm.pdf,
        coeff=DiffusionCoefficient.polynomial(-1.0, 0.0, 0.25),
        cdf=norm.cdf, ppf=norm.ppf,
    )
    g = stein_solution(t, lambda y: y)
    xs = [0.1, -0.3, 0.75, -0.9, 0.2]
    with pytest.raises(ValueError) as per_point:
        [g(x) for x in xs]
    with pytest.raises(ValueError) as array:
        g(np.array(xs))
    assert str(array.value) == str(per_point.value)
    assert str(array.value).endswith("is not positive at x=0.75")


# --- closed-form Stein solutions for polynomial f ---------------------------------------

# Parameter ranges inside each named target's valid range.  The shapes keep
# the density bounded (beta and gamma shapes >= 1, F's a >= 2): beside a
# singular end the oracle's quotient 2 int (f - E f) p / (a p) loses digits
# to a(x) p(x) near a(x)'s root (8e-10 on beta(0.3, 2.3)), which the
# singular-end tests below bound on their own.  f keeps one moment to spare.
_NAMED_RANGES = {
    "normal": {"gamma": (0.2, 5.0)},
    "student": {"nu": (2.5, 30.0)},
    "pareto": {"nu": (2.5, 30.0)},
    "gamma": {"a": (1.0, 10.0), "lam": (0.3, 5.0)},
    "inverse_gamma": {"delta": (0.3, 5.0), "lam": (2.5, 30.0)},
    "f": {"a": (2.0, 20.0), "b": (4.5, 40.0)},
    "uniform": {},
    "beta": {"a": (1.0, 10.0), "b": (1.0, 10.0)},
}


@hst.composite
def _named_target_and_polynomial(draw):
    name = draw(hst.sampled_from(sorted(_NAMED_RANGES)))
    params = {k: draw(hst.floats(lo, hi)) for k, (lo, hi) in _NAMED_RANGES[name].items()}
    t = named_target(name, **params)
    degree = draw(hst.integers(1, 4).filter(lambda k: t.has_moment(k + 1)))
    coef = draw(hst.lists(hst.floats(-2.0, 2.0), min_size=degree + 1,
                          max_size=degree + 1).filter(lambda c: c[-1] != 0.0))
    return t, Polynomial(coef)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_named_target_and_polynomial())
def test_pearson_solution_matches_quad_route(case):
    # the same f as a lambda takes the table route, the tests' oracle; the
    # largest gap over these examples is 5.9e-13
    t, f = case
    g, oracle = stein_solution(t, f), stein_solution(t, lambda y: f(y))
    xs = t.interior_grid(7)
    want = oracle(xs)
    assert np.all(np.abs(g(xs) - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))
    assert abs(g.mean_value - oracle.mean_value) <= 1e-11 * max(1.0, abs(oracle.mean_value))


def test_pearson_solution_makes_no_quad_call(monkeypatch):
    calls = _counting_quad(monkeypatch)
    for name, params in (("normal", {"gamma": 1.0}), ("student", {"nu": 7.0}),
                         ("inverse_gamma", {"delta": 3.0, "lam": 4.0}),
                         ("beta", {"a": 2.0, "b": 3.0})):
        t = named_target(name, **params)
        for f in (Polynomial([0.0, 1.0]), Polynomial([0.5, 0.0, 1.0, -0.25])):
            stein_solution(t, f)
            res = stein_solution_residual(t, f, t.interior_grid(20))
            assert np.max(np.abs(res)) <= 1e-12
    assert calls == []
    stein_solution(normal_target(1.0), lambda y: y)  # the table route takes none
    assert calls == []
    normal_target(1.0).validate()  # validate's independent check does
    assert calls


def test_polynomial_past_the_moment_bound_takes_the_quad_route():
    # E|X|^3 is infinite for Student nu = 2.5: no closed form, and the
    # Polynomial takes the table exactly as the same f as a lambda does
    t, f = student_target(2.5), Polynomial([0.0, 0.0, 0.0, 1.0])
    assert not t.has_moment(f.degree())
    xs = t.interior_grid(7)
    g, ref = stein_solution(t, f), stein_solution(t, lambda y: f(y))
    assert not isinstance(g, Polynomial)
    assert np.array_equal(g(xs), ref(xs))
    assert g.mean_value == ref.mean_value


# the table against the closed form beside a singular end (p ~ d^-0.68 at
# beta's upper end, d^-0.66 at F's lower end) and in a tail near the moment
# bound (E|X|^2.5 = inf on F(2, 5))
@pytest.mark.parametrize("target, f", [
    (beta_target(8.52, 0.32), Polynomial([0.0, 1.0])),
    (fdist_target(0.68, 20.4), Polynomial([0.0, 1.0])),
], ids=["beta(8.52,0.32)", "f(0.68,20.4)"])
def test_stein_solution_matches_the_closed_form_beside_a_singular_end(target, f):
    # the first and last points lie in the Gauss-Jacobi end pieces
    g, table = stein_solution(target, f), stein_solution(target, lambda y: f(y))
    xs = target.interior_grid(7)
    want = g(xs)
    assert np.all(np.abs(table(xs) - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))
    assert abs(table.mean_value - g.mean_value) <= 1e-12


def test_stein_solution_matches_the_closed_form_in_a_heavy_tail():
    # x^2 on F(2, 5) from q = 0.9 to q = 1 - 1e-6, where each g reads a
    # slowly converging upper tail integral, on an array and point by point
    t, f = fdist_target(2.0, 5.0), Polynomial([0.0, 0.0, 1.0])
    g, table = stein_solution(t, f), stein_solution(t, lambda y: f(y))
    xs = t.ppf(1.0 - np.logspace(-1, -6, 11))
    want = g(xs)
    got = np.concatenate([table(xs), [table(float(x)) for x in xs]])
    assert np.all(np.abs(got - np.tile(want, 2)) <= 2e-12 * np.tile(np.abs(want), 2))
    assert abs(table.mean_value - g.mean_value) <= 1e-12 * g.mean_value


@pytest.mark.parametrize("target", GOLDEN_TARGETS, ids=lambda t: t.name)
def test_table_integrals_at_the_golden_parameters_raise_no_warning(target):
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        assert abs(stein_identity_residual(target, np.sin, np.cos)) <= 1e-9
        res = stein_solution_residual(target, np.sin, target.interior_grid(20))
        assert float(np.max(np.abs(res))) <= 1e-9
        assert math.isclose(target.moment(2), moment_table(*target.coeff.as_tuple(), 2)[2],
                            rel_tol=1e-12)


@pytest.mark.parametrize("target", [beta_target(8.52, 0.32), fdist_target(0.68, 20.4),
                                    fdist_target(2.0, 5.0)], ids=lambda t: str(t.params))
def test_table_integrals_beside_singular_ends_raise_no_warning(target):
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        if target.params == {"a": 2.0, "b": 5.0}:
            # a(x) cos(x) p(x) decays only as x^-1.5: the piece cap is reached with
            # the tail oscillation unresolved, and the table must say so
            with pytest.warns(scipy.integrate.IntegrationWarning, match="cap of 4096"):
                stein_identity_residual(target, np.sin, np.cos)
        else:
            assert math.isfinite(stein_identity_residual(target, np.sin, np.cos))
        res = stein_solution_residual(target, lambda y: y**2, target.interior_grid(20))
        assert np.all(np.isfinite(res))
        assert math.isclose(target.moment(2), moment_table(*target.coeff.as_tuple(), 2)[2],
                            rel_tol=1e-12)


# --- the exactly solvable inner products ------------------------------------------------

def test_mble_linear_and_quadratic():
    x = np.linspace(-2, 2, 9)
    assert np.allclose(mble_inner_product("linear", x, 0.7), 0.49)
    got = mble_inner_product("quadratic", x, 0.7)
    F = 0.7 * (x**2 - 1)
    assert np.allclose(got, 2 * 0.7 * F + 2 * 0.49)


def test_mble_exp_chi2_two_coordinates_closed_form():
    # for n = 2 the integral reduces to (2c/(1-2c)) F (F - 1)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((40, 2))
    for c in (-0.5, 0.25, 0.4):
        F = np.exp(c * np.sum(x**2, axis=-1))
        want = 2 * c / (1 - 2 * c) * F * (F - 1)
        got = mble_inner_product("exp_chi2", x, c, n=2)
        assert np.allclose(got, want, rtol=1e-12)


def test_mble_exp_chi2_half_negative_is_uniform_statistic():
    # c = -1/2, n = 2: F is U(0,1) and the bracket is F(1-F)/2
    rng = np.random.default_rng(19)
    x = rng.standard_normal((25, 2))
    F = np.exp(-0.5 * np.sum(x**2, axis=-1))
    got = mble_inner_product("exp_chi2", x, -0.5, n=2)
    assert np.allclose(got, 0.5 * F * (1 - F), rtol=1e-12)


def test_mble_lognormal_matches_quadrature():
    # independent reference: direct quadrature of the v-integral
    for c in (0.3, 0.8):
        x = np.array([0.2, -0.7, 1.1])
        F = np.exp(c * x)
        want = []
        for Fi in F:
            val, _ = scipy.integrate.quad(
                lambda v: Fi**v * math.exp(c * c * (1 - v * v) / 2), 0, 1
            )
            want.append(c * c * Fi * val)
        got = mble_inner_product("lognormal", x, c)
        assert np.allclose(got, want, rtol=1e-10)


def test_mble_guards():
    with pytest.raises(ValueError):
        mble_inner_product("exp_chi2", np.zeros(3), 0.7, n=3)  # c >= 1/2
    with pytest.raises(ValueError):
        mble_inner_product("exp_chi2", np.zeros((4, 3)), 0.2, n=2)  # bad axis
    with pytest.raises(ValueError):
        mble_inner_product("exp_chi2", np.zeros(3), 0.2)  # n missing
    with pytest.raises(ValueError):
        mble_inner_product("nosuch", np.zeros(3), 0.2)


# --- grid targets ------------------------------------------------------------------------

def test_target_from_density_grid_roundtrip():
    # tabulate a lognormal-ish density, rebuild, and check self-consistency
    xs = np.linspace(0.05, 12.0, 90)
    ps = np.exp(-((np.log(xs) - 0.2) ** 2) / 0.5) / xs
    t = target_from_density_grid(xs, ps, (0.05, 12.0))
    assert abs(t.moment(0) - 1.0) < 1e-6
    mean = t.moment(1)
    # drift recenters toward the mean
    assert abs(float(t.drift(mean))) < 1e-8
    # cdf/ppf inverse pair to rounding: the ppf is Newton-polished
    for q in (0.1, 0.5, 0.9):
        assert abs(float(t.cdf(t.ppf(q))) - q) < 1e-12
    # the numeric coefficient satisfies the defining integral
    x = float(t.ppf(0.35))
    l, u = t.support
    val, _ = scipy.integrate.quad(
        lambda y: (mean - y) * t.density(y), l, x, limit=400
    )
    assert math.isclose(float(t.coeff(x)), 2.0 * val / t.density(x),
                        rel_tol=1e-5)


def test_target_from_density_grid_rejects_bad_grids():
    xs = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        target_from_density_grid(xs, -np.ones_like(xs), (0.0, 1.0))
    with pytest.raises(ValueError):
        target_from_density_grid(xs[::-1], np.ones_like(xs), (0.0, 1.0))


def test_grid_density_float_path_equals_array_path():
    # the float path evaluates the log-PCHIP piece itself; it must agree with
    # PchipInterpolator on knots, midpoints and just inside both ends
    grids = [np.linspace(-8.0, 8.0, 129), np.linspace(0.05, 12.0, 90)]
    for xs, ps in ((grids[0], scipy.stats.norm.pdf(grids[0])),
                   (grids[1], np.exp(-((np.log(grids[1]) - 0.2) ** 2) / 0.5) / grids[1])):
        t = target_from_density_grid(xs, ps)
        lo, hi = t.support
        pts = np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]), [lo + 1e-12, hi - 1e-12]])
        arr = t.density(pts)
        floats = [t.density(float(x)) for x in pts]
        assert all(type(v) is float for v in floats)
        assert np.all(arr > 0.0)
        assert float(np.max(np.abs(np.array(floats) - arr) / arr)) <= 1e-15
        outside = [lo - 1.0, lo - 1e-12, hi + 1e-12, hi + 1.0]
        assert all(t.density(x) == 0.0 for x in outside)
        assert np.all(t.density(np.array(outside)) == 0.0)



def test_grid_copy_of_normal_passes_ks_against_its_cdf():
    xs = np.linspace(-8.0, 8.0, 129)
    t = target_from_density_grid(xs, scipy.stats.norm.pdf(xs))
    draws = np.random.default_rng(2718).standard_normal(20_000)
    ks = scipy.stats.kstest(draws, t.cdf).statistic
    assert ks <= 1.95 / math.sqrt(len(draws))
    for q in (0.01, 0.1, 0.5, 0.9, 0.99):
        assert abs(t.cdf(t.ppf(q)) - q) <= 1e-6


def _shaped_grid(kind, knots, scale, shift, shape):
    """(xs, ps): a Gaussian or Gamma(shape) density tabulated on knots."""
    if kind == "gauss":
        z = np.linspace(-8.0, 8.0, knots)
        ps = scipy.stats.norm.pdf(z)
    else:
        law = scipy.stats.gamma(shape)
        z = np.linspace(law.ppf(1e-7), law.ppf(1.0 - 1e-10), knots)
        ps = law.pdf(z)
    return shift + scale * z, ps / scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=hst.sampled_from(["gauss", "gamma"]), knots=hst.integers(33, 200),
       scale=hst.floats(0.25, 4.0), shift=hst.floats(-50.0, 50.0),
       shape=hst.floats(1.5, 6.0))
def test_grid_table_matches_quad_oracle(kind, knots, scale, shift, shape):
    # The oracle asks quad for max(1e-10, 1e-8 |I|) on each knot-to-knot
    # piece, where the density is smooth.  That rtol of 1e-8 bounds the
    # pointwise cdf (|I| <= 1) and, relative above 1, a(x).  The mass and
    # the mean are held to a tenth of it: on smooth pieces quad's error
    # estimate, which it drives below the tolerance, overstates its true
    # error by orders of magnitude.
    xs, ps = _shaped_grid(kind, knots, scale, shift, shape)
    t = target_from_density_grid(xs, ps)
    mean = quad_mean(t.density, xs)
    assert abs(t.moment(0) - quad_mass(t.density, xs)) <= 1e-9
    assert abs(t.mean - mean) <= 1e-9 * max(1.0, abs(mean))
    for x in t.ppf(np.linspace(0.02, 0.98, 9)).tolist():
        assert abs(t.cdf(x) - quad_cdf(t.density, xs, x)) <= 1e-8
        a = quad_coeff(t.density, xs, mean, x)
        assert abs(t.coeff(x) - a) <= 1e-8 * max(1.0, abs(a))
