"""Diffusion invariant measures on an interval and their Stein machinery.

A target here is a probability measure mu with density p on an interval
(l, u), realized as the invariant law of the one-dimensional diffusion

    dX_t = b(X_t) dt + sqrt(a(X_t)) dW_t,

with linear drift b(x) = m - x, m = E[X] (m = 0 for the centered named
targets; Pearson diffusions share this drift).  The diffusion coefficient
is recovered from the density by

    a(x) = 2 * int_l^x b(y) p(y) dy / p(x),                              (*)

which is a quadratic polynomial a(x) = alpha x^2 + beta x + gamma for the
classical families below (normal, Student, Pareto, Gamma, inverse Gamma,
Fisher F, centered uniform, Beta).  The second-order Stein operator of the
pair (a, b) is A h = (1/2) a h' + b h; ``stein_solution`` inverts it and
``stein_identity_residual`` integrates it against the target.

Densities are closed forms: every named target evaluates its log-density
with ``math`` on a Python float (and with numpy on an array), and a grid
target evaluates its log-PCHIP piece by piece on a float, so an adaptive
``quad`` pays about a microsecond per node.  The scipy distributions serve
the cdf, the ppf and exact sampling, and are the tests' reference density.

``poly_moments`` / ``moment_recursion`` give the closed moment ladder that a
quadratic coefficient forces on the target, and ``mble_inner_product``
evaluates <D(-L)^{-1}(F - EF), DF> in closed form for the four exactly
solvable functionals (linear, quadratic, lognormal and exp-of-chi-square
functionals of a Gaussian).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, interpolate, special, stats

__all__ = [
    "DiffusionCoefficient",
    "TargetMeasure",
    "normal_target",
    "student_target",
    "pareto_target",
    "gamma_target",
    "inverse_gamma_target",
    "fdist_target",
    "uniform_centered_target",
    "beta_target",
    "named_target",
    "target_from_density_grid",
    "coeff_from_density",
    "stein_solution",
    "stein_solution_residual",
    "stein_identity_residual",
    "poly_moments",
    "moment_recursion",
    "moment_table",
    "mble_inner_product",
    "NAMED_TARGETS",
]

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
_INSET_FRAC = 1e-8
_FD_STEP = 1e-5  # finite-difference step, as a fraction of the length scale


def _quad(fn, lo, hi):
    val, _ = integrate.quad(
        fn, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400
    )
    return val


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Diffusion coefficient a(x); polynomial (alpha, beta, gamma) or numeric."""

    kind: str
    alpha: float = None
    beta: float = None
    gamma: float = None
    evaluator: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "polynomial":
            if None in (self.alpha, self.beta, self.gamma):
                raise ValueError("polynomial coefficient needs (alpha, beta, gamma)")
        elif self.kind == "numeric":
            if self.evaluator is None:
                raise ValueError("numeric coefficient needs an evaluator")
        else:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")

    @staticmethod
    def polynomial(alpha, beta, gamma):
        return DiffusionCoefficient(
            "polynomial", float(alpha), float(beta), float(gamma)
        )

    @staticmethod
    def numeric(evaluator):
        return DiffusionCoefficient("numeric", evaluator=evaluator)

    def as_tuple(self):
        if self.kind != "polynomial":
            raise ValueError("coefficient has no closed-form (alpha, beta, gamma)")
        return (self.alpha, self.beta, self.gamma)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "polynomial":
            out = self.alpha * x * x + self.beta * x + self.gamma
        else:
            out = self.evaluator(x)
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TargetMeasure:
    """A density on (l, u) together with its diffusion pair (a, b).

    The drift is b(x) = mean - x by construction, ``mean`` being E[X] under
    this law.  ``moment_bound`` is the supremum of k with E|X|^k < inf
    (math.inf when all moments exist).  Nothing refuses a target with too few
    moments: the classifier reports ``c0_sign_argument_applies: false`` and
    the fourth-moment diagnostics still report their values.
    """

    name: str
    support: tuple
    density: object = field(repr=False)
    coeff: DiffusionCoefficient = field(repr=False)
    cdf: object = field(repr=False, default=None)
    ppf: object = field(repr=False, default=None)
    params: dict = field(default_factory=dict)
    moment_bound: float = math.inf
    mean: float = 0.0
    mean_shift: float = 0.0  # EX of the *uncentered* parent law, for reference

    def drift(self, x):
        return self.mean - np.asarray(x, dtype=float)

    def has_moment(self, k):
        return k < self.moment_bound

    def interior_grid(self, n=201):
        """Quantile-spaced interior points (falls back to linear spacing)."""
        qs = np.linspace(0.005, 0.995, n)
        if self.ppf is not None:
            return np.asarray(self.ppf(qs), dtype=float)
        l, u = self.support
        lo = l if math.isfinite(l) else -10.0
        hi = u if math.isfinite(u) else 10.0
        eps = 1e-6 * (hi - lo)
        return np.linspace(lo + eps, hi - eps, n)

    def length_scale(self):
        l, u = self.support
        if math.isfinite(l) and math.isfinite(u):
            return u - l
        try:
            m2 = self.moment(2)
        except Exception:
            m2 = 1.0
        return math.sqrt(max(m2, 1e-12))

    def moment(self, k):
        """E[X^k] by quadrature."""
        l, u = self.support
        return _quad(lambda y: y**k * self.density(y), l, u)

    def validate(self, tol=1e-8):
        """Check normalization, centered drift and positivity of a."""
        l, u = self.support
        mass = _quad(self.density, l, u)
        if abs(mass - 1.0) > tol:
            raise ValueError(f"density mass {mass!r} is not 1 within {tol}")
        bint = _quad(lambda y: self.drift(y) * self.density(y), l, u)
        if abs(bint) > tol:
            raise ValueError(f"drift does not integrate to 0: {bint!r}")
        grid = self.interior_grid()
        avals = self.coeff(grid)
        if np.any(avals <= 0.0):
            bad = grid[np.argmin(avals)]
            raise ValueError(f"diffusion coefficient is not positive at x={bad!r}")
        return True

    def sample_exact(self, count, seed):
        """Inverse-CDF sampling (independent draws, not the diffusion)."""
        if self.ppf is None:
            raise ValueError(f"target {self.name!r} has no quantile function")
        rng = np.random.default_rng([int(seed), 0x5EED])
        return np.asarray(self.ppf(rng.uniform(size=count)), dtype=float)


def _closed_form_density(logpdf, support, edges):
    """density(x) from a closed-form log-density on the open support.

    ``logpdf(y, ns)`` is written once against a namespace ``ns`` of math
    functions: a Python float inside the support takes ``math`` and returns
    a float with no array wrapping, an array takes numpy on its interior
    points.  ``edges`` are the density's values at the lower and upper
    endpoints; outside the support it is 0.
    """
    lo, hi = support
    p_lo, p_hi = edges

    def scalar(x):
        if lo < x < hi:
            return math.exp(logpdf(x, math))
        if x == lo:
            return p_lo
        if x == hi:
            return p_hi
        return math.nan if math.isnan(x) else 0.0

    def density(x):
        if isinstance(x, float):
            return scalar(x)
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return scalar(float(x))
        out = np.where(x == lo, p_lo, np.where(x == hi, p_hi, 0.0))
        inside = (lo < x) & (x < hi)
        out[inside] = np.exp(logpdf(x[inside], np))
        out[np.isnan(x)] = np.nan
        return out

    return density


def _target_from_frozen(name, dist, logpdf, coeff, params, moment_bound=math.inf,
                        mean_shift=0.0):
    """Named target: closed-form density, scipy's cdf, ppf and endpoint values."""
    lo, hi = (float(e) for e in dist.support())
    edges = tuple(float(dist.pdf(e)) if math.isfinite(e) else 0.0 for e in (lo, hi))
    return TargetMeasure(
        name=name,
        support=(lo, hi),
        density=_closed_form_density(logpdf, (lo, hi), edges),
        coeff=coeff,
        cdf=dist.cdf,
        ppf=dist.ppf,
        params=dict(params),
        moment_bound=moment_bound,
        mean_shift=mean_shift,
    )


def normal_target(gamma=1.0):
    """N(0, gamma): a(x) = 2*gamma."""
    g = float(gamma)
    if g <= 0:
        raise ValueError("normal target needs gamma > 0")
    s = math.sqrt(g)
    c = -math.log(s) - 0.5 * math.log(2.0 * math.pi)
    return _target_from_frozen(
        "normal", stats.norm(loc=0.0, scale=s),
        lambda x, ns: c - 0.5 * (x / s) ** 2,
        DiffusionCoefficient.polynomial(0.0, 0.0, 2.0 * g),
        {"gamma": g},
    )


def student_target(nu):
    """Student t(nu), nu > 2: a(x) = (2/(nu-1)) (x^2 + nu)."""
    nu = float(nu)
    if nu <= 2:
        raise ValueError("student target needs nu > 2 (finite variance)")
    al = 2.0 / (nu - 1.0)
    c = (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
         - 0.5 * (math.log(nu) + math.log(math.pi)))
    return _target_from_frozen(
        "student", stats.t(df=nu),
        lambda x, ns: c - 0.5 * (nu + 1.0) * ns.log1p(x * x / nu),
        DiffusionCoefficient.polynomial(al, 0.0, 2.0 * nu / (nu - 1.0)),
        {"nu": nu}, moment_bound=nu,
    )


def pareto_target(nu):
    """Centered Pareto: parent density nu (1+x)^(-nu-1) on (0, inf), nu > 2."""
    nu = float(nu)
    if nu <= 2:
        raise ValueError("pareto target needs nu > 2 (finite variance)")
    m = 1.0 / (nu - 1.0)
    c = 2.0 / (nu - 1.0)
    loc = -1.0 - m
    log_nu = math.log(nu)
    return _target_from_frozen(
        "pareto", stats.pareto(b=nu, loc=loc),
        lambda x, ns: log_nu - (nu + 1.0) * ns.log(x - loc),
        DiffusionCoefficient.polynomial(c, c * (1.0 + 2.0 * m), c * m * (1.0 + m)),
        {"nu": nu}, moment_bound=nu, mean_shift=m,
    )


def gamma_target(a, lam):
    """Centered Gamma(a, lam): a(x) = (2/lam) (x + a/lam)."""
    a, lam = float(a), float(lam)
    if a <= 0 or lam <= 0:
        raise ValueError("gamma target needs a > 0 and lam > 0")
    m = a / lam
    scale = 1.0 / lam
    c = -math.lgamma(a) - math.log(scale)

    def logpdf(x, ns):
        y = (x + m) / scale
        return (a - 1.0) * ns.log(y) - y + c

    return _target_from_frozen(
        "gamma", stats.gamma(a, scale=scale, loc=-m), logpdf,
        DiffusionCoefficient.polynomial(0.0, 2.0 / lam, 2.0 * a / lam**2),
        {"a": a, "lam": lam}, mean_shift=m,
    )


def inverse_gamma_target(delta, lam):
    """Centered inverse Gamma(delta, lam), lam > 2:
    a(x) = (2/(lam-1)) (x + delta/(lam-1))^2."""
    delta, lam = float(delta), float(lam)
    if delta <= 0 or lam <= 2:
        raise ValueError("inverse gamma target needs delta > 0 and lam > 2")
    m = delta / (lam - 1.0)
    c = 2.0 / (lam - 1.0)
    const = -math.lgamma(lam) - math.log(delta)

    def logpdf(x, ns):
        y = (x + m) / delta
        return -(lam + 1.0) * ns.log(y) - 1.0 / y + const

    return _target_from_frozen(
        "inverse_gamma", stats.invgamma(lam, scale=delta, loc=-m), logpdf,
        DiffusionCoefficient.polynomial(c, 2.0 * c * m, c * m * m),
        {"delta": delta, "lam": lam}, moment_bound=lam, mean_shift=m,
    )


def fdist_target(a, b):
    """Centered Fisher F(a, b), b > 4:
    a(x) = (4/(a(b-2))) (x + m) (b + a (x + m)),  m = b/(b-2)."""
    a, b = float(a), float(b)
    if a <= 0 or b <= 4:
        raise ValueError("f target needs a > 0 and b > 4 (finite variance)")
    m = b / (b - 2.0)
    k = 4.0 / (a * (b - 2.0))
    c = (0.5 * b * math.log(b) + 0.5 * a * math.log(a)
         - float(special.betaln(0.5 * a, 0.5 * b)))

    def logpdf(x, ns):
        y = x + m
        return (0.5 * a - 1.0) * ns.log(y) - 0.5 * (a + b) * ns.log(b + a * y) + c

    return _target_from_frozen(
        "f", stats.f(a, b, loc=-m), logpdf,
        DiffusionCoefficient.polynomial(
            k * a, k * (b + 2.0 * a * m), k * m * (b + a * m)
        ),
        {"a": a, "b": b}, moment_bound=b / 2.0, mean_shift=m,
    )


def uniform_centered_target():
    """Uniform on (-1/2, 1/2): a(x) = 1/4 - x^2."""
    return _target_from_frozen(
        "uniform", stats.uniform(loc=-0.5, scale=1.0), lambda x, ns: 0.0,
        DiffusionCoefficient.polynomial(-1.0, 0.0, 0.25), {},
        mean_shift=0.5,
    )


def beta_target(a, b):
    """Centered Beta(a, b) on (-a/(a+b), b/(a+b)):
    a(x) = (2/(a+b)) (x + a/(a+b)) (b/(a+b) - x)."""
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise ValueError("beta target needs a > 0 and b > 0")
    s = a + b
    m = a / s
    c = 2.0 / s
    lbeta = float(special.betaln(a, b))

    def logpdf(x, ns):
        y = x + m
        return (a - 1.0) * ns.log(y) + (b - 1.0) * ns.log1p(-y) - lbeta

    return _target_from_frozen(
        "beta", stats.beta(a, b, loc=-m), logpdf,
        DiffusionCoefficient.polynomial(-c, c * (b - a) / s, c * a * b / s**2),
        {"a": a, "b": b}, mean_shift=m,
    )


NAMED_TARGETS = {
    "normal": (normal_target, ("gamma",)),
    "student": (student_target, ("nu",)),
    "pareto": (pareto_target, ("nu",)),
    "gamma": (gamma_target, ("a", "lam")),
    "inverse_gamma": (inverse_gamma_target, ("delta", "lam")),
    "f": (fdist_target, ("a", "b")),
    "uniform": (uniform_centered_target, ()),
    "beta": (beta_target, ("a", "b")),
}


def named_target(name, **params):
    """Build one of the eight named targets from keyword parameters."""
    if name not in NAMED_TARGETS:
        raise ValueError(f"unknown target {name!r}; choose from {sorted(NAMED_TARGETS)}")
    ctor, wanted = NAMED_TARGETS[name]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing:
        raise ValueError(f"target {name!r} needs parameter(s) {missing}")
    if extra:
        raise ValueError(f"target {name!r} got unexpected parameter(s) {extra}")
    return ctor(**params)


def target_from_density_grid(xs, ps, support=None, name="custom"):
    """Target from a tabulated density, interpolated monotonically in log space.

    The grid must be strictly increasing with positive densities; the support
    defaults to the grid span and, if given, must agree with it.  The density
    is renormalized numerically; the drift is b(x) = mean - x so that (*)
    stays consistent for uncentered grids.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.ndim != 1 or xs.shape != ps.shape or len(xs) < 4:
        raise ValueError("density grid needs >= 4 matching (x, p) points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("density grid x values must be strictly increasing")
    if np.any(ps <= 0):
        raise ValueError("density grid values must be positive (log interpolation)")
    lo, hi = float(xs[0]), float(xs[-1])
    if support is not None:
        l, u = float(support[0]), float(support[1])
        if abs(l - lo) > 1e-12 * max(1.0, abs(lo)) or abs(u - hi) > 1e-12 * max(1.0, abs(hi)):
            raise ValueError("support must coincide with the density grid span")
    logp = interpolate.PchipInterpolator(xs, np.log(ps), extrapolate=False)
    breaks, pieces = logp.x.tolist(), logp.c.T.tolist()
    last = len(pieces) - 1

    def raw_density(x):
        if isinstance(x, float):
            if not lo <= x <= hi:
                return math.nan if math.isnan(x) else 0.0
            # the piece and the sum in PPoly's own order, so both paths agree
            i = min(bisect.bisect_right(breaks, x) - 1, last)
            c3, c2, c1, c0 = pieces[i]
            s = x - breaks[i]
            s2 = s * s
            return math.exp(c0 + c1 * s + c2 * s2 + c3 * (s2 * s))
        x = np.asarray(x, dtype=float)
        out = np.exp(logp(np.clip(x, lo, hi)))
        out = np.where((x < lo) | (x > hi), 0.0, out)
        return out if out.ndim else float(out)

    mass = _quad(raw_density, lo, hi)

    def density(x):
        return raw_density(x) / mass

    # cumulative distribution on a refined knot set, then monotone interp
    knots = np.unique(np.concatenate([xs, np.linspace(lo, hi, 257)]))
    cums = np.zeros(len(knots))
    for i in range(1, len(knots)):
        cums[i] = cums[i - 1] + _quad(density, knots[i - 1], knots[i])
    cums /= cums[-1]
    cums = np.maximum.accumulate(cums)
    cdf_interp = interpolate.PchipInterpolator(knots, cums, extrapolate=False)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(cdf_interp(np.clip(x, lo, hi)), dtype=float)
        out = np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, out))
        return out if out.ndim else float(out)

    keep = np.concatenate([[True], np.diff(cums) > 1e-15])
    ppf_interp = interpolate.PchipInterpolator(cums[keep], knots[keep],
                                               extrapolate=False)

    def ppf(q):
        q = np.clip(np.asarray(q, dtype=float), cums[keep][0], cums[keep][-1])
        out = np.asarray(ppf_interp(q), dtype=float)
        return out if out.ndim else float(out)

    mean = _quad(lambda y: y * density(y), lo, hi)
    coeff = coeff_from_density(density, (lo, hi), mean=mean, cdf=cdf)
    return TargetMeasure(
        name=name, support=(lo, hi), density=density, coeff=coeff, cdf=cdf,
        ppf=ppf, params={"grid_points": len(xs)}, mean=mean, mean_shift=mean,
    )


def _inset_bounds(support):
    """Support shrunk at each finite end by _INSET_FRAC of its length, or of
    max(1, |end|) when the other end is infinite."""
    l, u = support
    span = u - l

    def eps(end):
        return _INSET_FRAC * (span if math.isfinite(span) else max(1.0, abs(end)))

    return (l + eps(l) if math.isfinite(l) else -np.inf,
            u - eps(u) if math.isfinite(u) else np.inf)


def _tail_quotient(weight, den, support, left):
    """x -> 2 int_l^x weight / den(x), with x clamped to the inset support.

    ``weight`` integrates to 0 over the support, so the partial integral is
    taken from the nearer tail (``left(x)`` picks the lower one), which keeps
    the quotient conditioned far into either tail.  Accepts scalars or arrays.
    """
    l, u = float(support[0]), float(support[1])
    lo, hi = _inset_bounds((l, u))

    def one(x):
        x = min(max(float(x), lo), hi)
        num = _quad(weight, l, x) if left(x) else -_quad(weight, x, u)
        d = den(x)
        if d <= 0.0 or not np.isfinite(d):
            raise ValueError(f"denominator {d!r} is not positive at x={x!r}")
        return 2.0 * num / d

    def quotient(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return one(arr)
        return np.array([one(v) for v in arr.ravel()]).reshape(arr.shape)

    return quotient


def coeff_from_density(density, support, mean=0.0, cdf=None):
    """Numeric diffusion coefficient from (*): a(x) = 2 int_l^x b p / p(x).

    The drift is b(x) = mean - x.  The tail is chosen by ``cdf(x) <= 0.5``,
    or, without a cdf, by ``x <= mean``.
    """
    l, u = float(support[0]), float(support[1])
    if cdf is None:
        left = lambda x: x <= mean
    else:
        left = lambda x: cdf(x) <= 0.5
    bp = lambda y: (mean - y) * density(y)
    return DiffusionCoefficient.numeric(_tail_quotient(bp, density, (l, u), left))


def stein_solution(target, f):
    """Solve (1/2) a g' + b g = f - E[f] for g; returns a callable.

    g(x) = 2 (int_l^x (f - m_f) p) / (a(x) p(x)), evaluated from the nearer
    tail: the lower one up to the median (the mean without a ppf).  The
    solution is the one vanishing appropriately at both endpoints.
    Raises ValueError where a(x) p(x) is not positive.
    """
    l, u = target.support
    density = target.density
    m_f = _quad(lambda y: f(y) * density(y), l, u)
    pivot = float(target.ppf(0.5)) if target.ppf is not None else target.mean
    g = _tail_quotient(lambda y: (f(y) - m_f) * density(y),
                       lambda x: target.coeff(x) * density(x),
                       target.support, lambda x: x <= pivot)
    g.mean_value = m_f
    return g


def _derivative5(fn, x, h):
    """Five-point central difference."""
    return (-fn(x + 2 * h) + 8 * fn(x + h) - 8 * fn(x - h) + fn(x - 2 * h)) / (12 * h)


def _stein_operator(target, h, dh=None):
    """x -> (1/2) a(x) h'(x) + b(x) h(x), the Stein operator of the target.

    ``dh`` defaults to a five-point central difference with step
    _FD_STEP times the target's length scale.
    """
    if dh is None:
        step = _FD_STEP * target.length_scale()
        dh = lambda x: _derivative5(h, x, step)

    def op(x):
        return 0.5 * target.coeff(x) * dh(x) + target.drift(x) * h(x)

    return op


def stein_solution_residual(target, f, xs):
    """Residual (1/2) a g' + b g - (f - m_f) at points xs.

    g' is a five-point central difference with step _FD_STEP times the
    target's length scale; points are clamped so the stencil stays interior.
    """
    g = stein_solution(target, f)
    step = _FD_STEP * target.length_scale()
    op = _stein_operator(target, g, lambda x: _derivative5(g, x, step))
    lo, hi = _inset_bounds(target.support)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    xs = np.clip(xs, lo + 2 * step if math.isfinite(lo) else -np.inf,
                 hi - 2 * step if math.isfinite(hi) else np.inf)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        out[i] = op(x) - (f(x) - g.mean_value)
    return out


def stein_identity_residual(target, h, dh=None):
    """E[(1/2) a(X) h'(X) + b(X) h(X)] under the target, by quadrature.

    Zero (to quadrature accuracy) for every admissible h exactly when the
    target is the invariant law of the (a, b) diffusion.  ``dh`` defaults to
    a five-point central difference.
    """
    op = _stein_operator(target, h, dh)
    l, u = target.support
    return _quad(lambda y: op(y) * target.density(y), l, u)


# --- moments forced by a quadratic coefficient ------------------------------

def poly_moments(alpha, beta, gamma):
    """(EX^2, EX^3, EX^4) forced by a(x) = alpha x^2 + beta x + gamma.

    EX^2 = gamma / (2 - alpha)                                (alpha != 2)
    EX^3 = beta gamma / ((1 - alpha)(2 - alpha))              (alpha != 1, 2)
    EX^4 = 3 gamma (beta^2/(1-alpha) + gamma) / ((2-alpha)(2-3alpha))
                                                              (alpha != 1, 2, 2/3)
    """
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    if alpha == 2.0:
        raise ValueError("alpha = 2: the second-moment formula breaks")
    m2 = gamma / (2.0 - alpha)
    if alpha == 1.0:
        raise ValueError("alpha = 1: the third-moment formula breaks")
    m3 = beta * gamma / ((1.0 - alpha) * (2.0 - alpha))
    if alpha == 2.0 / 3.0:
        raise ValueError("alpha = 2/3: the fourth-moment formula breaks")
    m4 = 3.0 * gamma * (beta**2 / (1.0 - alpha) + gamma) / (
        (2.0 - alpha) * (2.0 - 3.0 * alpha)
    )
    return (m2, m3, m4)


def moment_recursion(alpha, beta, gamma, moments):
    """Next moment from the ladder the Stein identity forces:

        (1 - (r-1) alpha / 2) EX^r = ((r-1)/2) (beta EX^{r-1} + gamma EX^{r-2}).

    ``moments`` is [EX^0, EX^1, ..., EX^{r-1}]; returns EX^r.
    """
    r = len(moments)
    if r < 2:
        raise ValueError("need moments up to order r-2 >= 0, i.e. at least [1, EX]")
    lead = 1.0 - (r - 1) * alpha / 2.0
    if lead == 0.0:
        raise ValueError(
            f"alpha = 2/{r - 1}: the recursion breaks at order {r} "
            "(the leading coefficient vanishes)"
        )
    return (r - 1) / 2.0 * (beta * moments[-1] + gamma * moments[-2]) / lead


def moment_table(alpha, beta, gamma, max_order):
    """[EX^0 .. EX^max_order] for a centered target with quadratic coefficient."""
    moments = [1.0, 0.0]
    while len(moments) <= max_order:
        moments.append(moment_recursion(alpha, beta, gamma, moments))
    return moments[: max_order + 1]


# --- closed-form Malliavin brackets -----------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(200)
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS


def _gl01(values_fn):
    """Integrate a vectorized integrand over [0, 1] (Gauss-Legendre, 200 pts)."""
    return values_fn(_GL01_NODES) @ _GL01_WEIGHTS


def mble_inner_product(case, realization, c, n=None):
    """<D(-L)^{-1}(F - EF), DF> for the four exactly solvable functionals.

    case = "linear":    F = c W(h)                      -> c^2
    case = "quadratic": F = c (W(h)^2 - 1)              -> 2 c F + 2 c^2
    case = "lognormal": F = exp(c W(h))                 ->
           c^2 F int_0^1 F^v exp(c^2 (1 - v^2)/2) dv
    case = "exp_chi2":  F = exp(c sum_{k<=n} W(h_k)^2), c < 1/2 ->
           4 c F log F int_0^1 v F^{v^2/(1-2c(1-v^2))}
                                (1-2c(1-v^2))^{-(n/2+1)} dv

    ``realization`` holds the underlying standard normal coordinates: scalar
    or (N,) for the one-dimensional cases, (n,) or (N, n) for exp_chi2.
    """
    c = float(c)
    x = np.asarray(realization, dtype=float)
    if case == "linear":
        out = np.full(x.shape, c * c) if x.ndim else c * c
        return out
    if case == "quadratic":
        out = 2.0 * c * c * x * x
        return float(out) if out.ndim == 0 else out
    if case == "lognormal":
        if c == 0.0:
            return np.zeros(x.shape) if x.ndim else 0.0
        flat = np.atleast_1d(x)
        F = np.exp(c * flat)

        def integrand(v):
            # shape (N, V)
            return F[:, None] ** v[None, :] * np.exp(c * c * (1.0 - v**2) / 2.0)

        vals = c * c * F * (integrand(_GL01_NODES) @ _GL01_WEIGHTS)
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)
    if case == "exp_chi2":
        if n is None:
            raise ValueError("exp_chi2 needs the number of coordinates n")
        if not c < 0.5:
            raise ValueError("exp_chi2 needs c < 1/2")
        if c == 0.0:
            base = np.sum(np.atleast_2d(x) ** 2, axis=-1)
            return 0.0 if x.ndim <= 1 else np.zeros(base.shape)
        pts = np.atleast_2d(x)
        if pts.shape[-1] != n:
            raise ValueError(f"realization last axis must have length n={n}")
        s = np.sum(pts**2, axis=-1)
        F = np.exp(c * s)
        logF = c * s
        v = _GL01_NODES
        denom = 1.0 - 2.0 * c * (1.0 - v**2)  # > 0 for c < 1/2
        expo = v**2 / denom
        vals = (v * F[:, None] ** expo[None, :] * denom ** -(n / 2.0 + 1.0)
                ) @ _GL01_WEIGHTS
        vals = 4.0 * c * F * logF * vals
        return float(vals[0]) if x.ndim == 1 else vals
    raise ValueError(f"unknown case {case!r}")
