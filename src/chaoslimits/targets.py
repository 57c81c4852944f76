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
with ``math`` on a Python float (and with numpy on an array), and a
polynomial a(x) and the drift compute in floats on a float, so an adaptive
``quad`` node pays for float arithmetic rather than numpy wrapping.  The
cdf, the ppf (and so exact sampling) and the support come from
``scipy.special`` in scipy.stats' own operation order (``_law``), equal to
the frozen scipy law bit for bit without its generic wrapper; scipy.stats is
the tests' reference.  A grid target evaluates its log-PCHIP piece by piece
on a float, and every integral against it (mass, mean, cdf, a(x), Stein
solutions) reads one Gauss-Legendre table of its pieces instead of calling
``quad``.

A nearer-tail quotient (a numeric a(x), a quadrature Stein solution) takes
one tail call per side of its pivot on an array of points: one table call
on a grid target, and otherwise quads over the gaps between the sorted
points, each side integrated from its own end.

A polynomial f of degree k < ``moment_bound`` on a polynomial coefficient,
assumed Pearson ((a, b) is the density's own diffusion pair, as for every
named target), gets a polynomial Stein solution with no integral.

``poly_moments`` / ``moment_recursion`` give the closed moment ladder that a
quadratic coefficient forces on the target.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, interpolate, special

from .chaos import _check_int

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
    "NAMED_TARGETS",
]

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
_INSET_FRAC = 1e-8
_FD_STEP = 1e-5  # finite-difference step, as a fraction of the length scale
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # five-point offsets, in steps


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
        if type(x) is float and self.kind == "polynomial":
            # the array path's operations in its order, so the two agree bitwise
            return self.alpha * x * x + self.beta * x + self.gamma
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
    # a grid target's table route (``_LogPchipTable.cumulative``); None: quad
    _cumulative: object = field(default=None, repr=False, compare=False)

    def _tails(self, fn):
        """(x, left) -> int_l^x fn p if left, else -int_x^u fn p: from a grid
        target's table, or by adaptive quad of fn(y) * density(y)."""
        return (self._cumulative or _quad_cumulative(self.density, self.support))(fn)

    def _integral(self, fn):
        """int fn p over the support."""
        return self._tails(fn)(self.support[1], True)

    def drift(self, x):
        if type(x) is float:
            return self.mean - x
        return self.mean - np.asarray(x, dtype=float)

    def has_moment(self, k):
        return k < self.moment_bound

    def interior_grid(self, n=201):
        """Quantile-spaced interior points (falls back to linear spacing).

        Without a ppf, a lone infinite end is replaced by a point on its side
        of the mean, 5 max(1, |mean - finite end|) away; with both ends
        infinite the span is (-10, 10).
        """
        qs = np.linspace(0.005, 0.995, n)
        if self.ppf is not None:
            return np.asarray(self.ppf(qs), dtype=float)
        l, u = self.support
        if math.isfinite(l) != math.isfinite(u):
            reach = 5.0 * max(1.0, abs(self.mean - (l if math.isfinite(l) else u)))
            l, u = (l, self.mean + reach) if math.isfinite(l) else (self.mean - reach, u)
        lo = l if math.isfinite(l) else -10.0
        hi = u if math.isfinite(u) else 10.0
        eps = 1e-6 * (hi - lo)
        return np.linspace(lo + eps, hi - eps, n)

    def length_scale(self):
        """u - l on a bounded support, else sqrt(E X^2): read off the moment
        ladder for a centered polynomial (Pearson) coefficient, otherwise
        by quadrature."""
        l, u = self.support
        if math.isfinite(l) and math.isfinite(u):
            return u - l
        if self.coeff.kind == "polynomial" and self.mean == 0.0 and self.has_moment(2):
            m2 = moment_table(*self.coeff.as_tuple(), 2)[2]
        else:
            m2 = self.moment(2)
        return math.sqrt(max(m2, 1e-12))

    def moment(self, k):
        """E[X^k], by the grid's table or by quadrature."""
        return self._integral(lambda y: y**k)

    def validate(self, tol=1e-8):
        """Check normalization, centered drift and positivity of a."""
        mass = self._integral(lambda y: 1.0)
        if abs(mass - 1.0) > tol:
            raise ValueError(f"density mass {mass!r} is not 1 within {tol}")
        bint = self._integral(self.drift)
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
        rng = np.random.default_rng([_check_int("seed", seed), 0x5EED])
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


def _law(cdf01, ppf01, ends=(-math.inf, math.inf), loc=0.0, scale=1.0):
    """(support, cdf, ppf) of loc + scale Y, Y having the ``scipy.special``
    cdf ``cdf01`` and ppf ``ppf01`` on the interval ``ends``.

    Each step is scipy.stats' own, in its order and with its edge values (0
    below the support and 1 above it, the ends at q = 0 and 1, nan at nan and
    for q outside [0, 1]), so a value, and its type, equals the frozen scipy
    law's bit for bit, without the generic wrapper's cost.
    """
    a, b = ends
    support = (a * scale + loc, b * scale + loc)

    def cdf(x):
        y = (np.asarray(x, dtype=float) - loc) / scale
        out = np.zeros(y.shape)
        out[np.isnan(y)] = np.nan
        out[y >= b] = 1.0
        inside = (a < y) & (y < b)
        out[inside] = cdf01(y[inside])
        return out[()] if out.ndim == 0 else out

    def ppf(q):
        q = np.asarray(q, dtype=float)
        out = np.full(q.shape, np.nan)
        out[q == 0] = support[0]
        out[q == 1] = support[1]
        inside = (0 < q) & (q < 1)
        out[inside] = ppf01(q[inside]) * scale + loc
        return out[()] if out.ndim == 0 else out

    return support, cdf, ppf


def _end_density(power, at_power_zero):
    """A density's value at an end where it behaves as c d^power in the
    distance d to that end: inf, ``at_power_zero`` (= c) or 0."""
    return math.inf if power < 0 else at_power_zero if power == 0 else 0.0


def _named_target(name, law, logpdf, edges, coeff, params, moment_bound=math.inf,
                  mean_shift=0.0):
    """Named target: closed-form density with end values ``edges``, and the
    support, cdf and ppf of ``law`` (from ``_law``)."""
    support, cdf, ppf = law
    return TargetMeasure(
        name=name,
        support=support,
        density=_closed_form_density(logpdf, support, edges),
        coeff=coeff,
        cdf=cdf,
        ppf=ppf,
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
    return _named_target(
        "normal", _law(special.ndtr, special.ndtri, scale=s),
        lambda x, ns: c - 0.5 * (x / s) ** 2, (0.0, 0.0),
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
    return _named_target(
        "student",
        _law(lambda y: special.stdtr(nu, y), lambda q: special.stdtrit(nu, q)),
        lambda x, ns: c - 0.5 * (nu + 1.0) * ns.log1p(x * x / nu), (0.0, 0.0),
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
    return _named_target(
        "pareto",
        _law(lambda y: 1 - y ** (-nu), lambda q: pow(1 - q, -1.0 / nu),
             (1.0, math.inf), loc=loc),
        lambda x, ns: log_nu - (nu + 1.0) * ns.log(x - loc), (nu, 0.0),
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

    return _named_target(
        "gamma",
        _law(lambda y: special.gammainc(a, y), lambda q: special.gammaincinv(a, q),
             (0.0, math.inf), loc=-m, scale=scale),
        logpdf, (_end_density(a - 1.0, 1.0 / scale), 0.0),
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

    return _named_target(
        "inverse_gamma",
        _law(lambda y: special.gammaincc(lam, 1.0 / y),
             lambda q: 1.0 / special.gammainccinv(lam, q),
             (0.0, math.inf), loc=-m, scale=delta),
        logpdf, (0.0, 0.0),  # exp(-1/y) beats every power of y at 0
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

    return _named_target(
        "f",
        _law(lambda y: special.fdtr(a, b, y), lambda q: special.fdtri(a, b, q),
             (0.0, math.inf), loc=-m),
        logpdf, (_end_density(0.5 * a - 1.0, 1.0), 0.0),
        DiffusionCoefficient.polynomial(
            k * a, k * (b + 2.0 * a * m), k * m * (b + a * m)
        ),
        {"a": a, "b": b}, moment_bound=b / 2.0, mean_shift=m,
    )


def uniform_centered_target():
    """Uniform on (-1/2, 1/2): a(x) = 1/4 - x^2."""
    return _named_target(
        "uniform", _law(lambda y: y, lambda q: q, (0.0, 1.0), loc=-0.5),
        lambda x, ns: 0.0, (1.0, 1.0),
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
    hi = 1.0 - m  # the upper end, as scipy places it
    lbeta = float(special.betaln(a, b))

    def logpdf(x, ns):
        # each factor from the distance to its own end, exact beside that end
        return (a - 1.0) * ns.log(x + m) + (b - 1.0) * ns.log(hi - x) - lbeta

    return _named_target(
        "beta",
        _law(lambda y: special.betainc(a, b, y), lambda q: special.betaincinv(a, b, q),
             (0.0, 1.0), loc=-m),
        logpdf, (_end_density(a - 1.0, b), _end_density(b - 1.0, a)),
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


_GL_PIECE_NODES, _GL_PIECE_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_PIECE_T = 0.5 * (_GL_PIECE_NODES + 1.0)  # the nodes on [0, 1]
_GL_PIECE_W = 0.5 * _GL_PIECE_WEIGHTS


class _LogPchipTable:
    """Integrals of fn p for a density p = exp(log-PCHIP) / mass.

    20 Gauss-Legendre nodes on each piece of the interpolant, rescaled to a
    partial piece [x_k, x] or [x, x_{k+1}].  Inside one piece p is the
    exponential of a cubic, so the rule is exact to rounding for smooth fn.
    """

    def __init__(self, logp):
        self.logp = logp
        self.breaks, self.coefs = logp.x, logp.c  # PPoly order: c3, c2, c1, c0
        # Python lists serve one point at a time (a chain step, a Stein value)
        self._break_list, self._piece_list = logp.x.tolist(), logp.c.T.tolist()
        self.last = len(self.breaks) - 2
        self.mass = 1.0  # _rule divides by it: 1 while the raw mass is summed
        k = np.arange(self.last + 1)
        self.nodes, self.weights = self._rule(k, self.breaks[:-1], self.breaks[1:])
        self.mass = float(np.sum(self.weights))
        self.weights = self.weights / self.mass

    def density(self, x):
        """p(x); 0 outside the grid span."""
        lo, hi = self._break_list[0], self._break_list[-1]
        if isinstance(x, float):
            if not lo <= x <= hi:
                return math.nan if math.isnan(x) else 0.0
            # the piece and the sum in PPoly's own order, so both paths agree
            i = min(bisect.bisect_right(self._break_list, x) - 1, self.last)
            c3, c2, c1, c0 = self._piece_list[i]
            s = x - self._break_list[i]
            s2 = s * s
            return math.exp(c0 + c1 * s + c2 * s2 + c3 * (s2 * s)) / self.mass
        x = np.asarray(x, dtype=float)
        out = np.exp(self.logp(np.clip(x, lo, hi))) / self.mass
        out = np.where((x < lo) | (x > hi), 0.0, out)
        return out if out.ndim else float(out)

    def _rule(self, k, a, b):
        """Nodes and density-weighted weights of [a, b] inside piece k
        (an int k with float ends, or arrays of one shape)."""
        if isinstance(k, int):
            start, (c3, c2, c1, c0) = self._break_list[k], self._piece_list[k]
        else:
            a, b = a[..., None], b[..., None]
            start = self.breaks[k][..., None]
            c3, c2, c1, c0 = self.coefs[:, k, None]
        s = (a - start) + (b - a) * _GL_PIECE_T
        p = np.exp(c0 + s * (c1 + s * (c2 + s * c3)))
        return start + s, ((b - a) / self.mass) * (_GL_PIECE_W * p)

    def cumulative(self, fn):
        """(x, left) -> int_lo^x fn p if left, else -int_x^hi fn p.

        Per-piece integrals are summed from both ends, so a tail reads the
        cumulative sum of its own side plus one partial piece, with no
        cancellation.  ``fn`` is evaluated on arrays of nodes; x is a float
        or an array.
        """
        pieces = (fn(self.nodes) * self.weights).sum(axis=-1)
        left_sum = np.concatenate([[0.0], np.cumsum(pieces)])
        right_sum = np.concatenate([np.cumsum(pieces[::-1])[::-1], [0.0]])
        breaks, last = self._break_list, self.last

        def tail(x, left):
            if isinstance(x, float) or np.ndim(x) == 0:
                x = float(x)
                k = min(max(bisect.bisect_right(breaks, x) - 1, 0), last)
                ends = (breaks[k], x) if left else (x, breaks[k + 1])
            else:
                x = np.asarray(x, dtype=float)
                k = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, last)
                ends = (self.breaks[k], x) if left else (x, self.breaks[k + 1])
            y, w = self._rule(k, *ends)
            part = (fn(y) * w).sum(axis=-1)
            out = left_sum[k] + part if left else -(right_sum[k + 1] + part)
            return out if np.ndim(out) else float(out)

        return tail


def target_from_density_grid(xs, ps, support=None):
    """Target from a tabulated density, interpolated monotonically in log space.

    The grid must be strictly increasing with positive densities; the support
    defaults to the grid span and, if given, must agree with it.  The density
    is renormalized; the drift is b(x) = mean - x so that (*) stays
    consistent for uncentered grids.  The mass, the mean, the cdf, a(x), the
    moments and the Stein solutions all integrate on one Gauss-Legendre table
    of the log-PCHIP pieces (``_LogPchipTable``), with no adaptive quad.
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
    table = _LogPchipTable(
        interpolate.PchipInterpolator(xs, np.log(ps), extrapolate=False))
    density = table.density
    mass_below = table.cumulative(lambda y: 1.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.clip(mass_below(np.clip(x, lo, hi), True), 0.0, 1.0)
        out = np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, out))
        return out if out.ndim else float(out)

    # a monotone inverse of the exact cdf on a refined knot set, Newton-polished
    knots = np.unique(np.concatenate([xs, np.linspace(lo, hi, 257)]))
    cums = np.maximum.accumulate(cdf(knots))
    keep = np.concatenate([[True], np.diff(cums) > 1e-15])
    ppf_interp = interpolate.PchipInterpolator(cums[keep], knots[keep],
                                               extrapolate=False)

    def ppf(q):
        q = np.clip(np.asarray(q, dtype=float), cums[keep][0], cums[keep][-1])
        x = np.asarray(ppf_interp(q), dtype=float)
        err = cdf(x) - q
        for _ in range(2):  # a step is kept only where it lowers |cdf - q|
            step = np.clip(x - err / density(x), lo, hi)
            step_err = cdf(step) - q
            better = np.abs(step_err) < np.abs(err)
            x, err = np.where(better, step, x), np.where(better, step_err, err)
        return x if x.ndim else float(x)

    mean = table.cumulative(lambda y: y)(hi, True)
    median = ppf(0.5)
    coeff = DiffusionCoefficient.numeric(_tail_quotient(
        lambda y: mean - y, table.cumulative, density, (lo, hi),
        lambda x: x <= median))
    return TargetMeasure(
        name="custom", support=(lo, hi), density=density, coeff=coeff, cdf=cdf,
        ppf=ppf, params={"grid_points": len(xs)}, mean=mean, mean_shift=mean,
        _cumulative=table.cumulative,
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


def _quad_cumulative(density, support):
    """fn -> ((x, left) -> int_l^x fn p if left, else -int_x^u fn p), by
    adaptive quad of fn(y) * density(y).

    A scalar x is one quad from its end.  An array is sorted and integrated
    gap by gap from that end, so a cluster of points pays for one long
    integral plus short gaps; a repeated point reuses its value.  A gap
    starts afresh from the support's end when the previous point lies
    closer to that end than the gap is long: a density singular at the end
    is then nearly singular just past the gap, where quad's extrapolation
    misjudges it (3e-5 off on Beta(1/2, 1/2) beside the inset end).
    """
    l, u = support

    def cumulative(fn):
        weight = lambda y: fn(y) * density(y)

        def tail(x, left):
            if np.ndim(x) == 0:
                return _quad(weight, l, x) if left else -_quad(weight, x, u)
            x = np.asarray(x, dtype=float)
            flat = x.ravel()
            order = np.argsort(flat, kind="stable")
            out = np.empty_like(flat)
            edge = l if left else u
            total, end = 0.0, edge
            for i in (order if left else order[::-1]).tolist():
                y = float(flat[i])
                if abs(end - edge) < abs(y - end):
                    total, end = 0.0, edge
                if y != end:
                    total += _quad(weight, end, y) if left else _quad(weight, y, end)
                    end = y
                out[i] = total
            return (out if left else -out).reshape(x.shape)

        return tail

    return cumulative


def _tail_quotient(fn, cumulative, den, support, left):
    """x -> 2 int_l^x fn p / den(x), with x clamped to the inset support.

    ``cumulative(fn)`` gives the signed tail integrals of fn against the
    density (``_quad_cumulative`` or a grid's table).  fn p integrates to 0
    over the support, so the partial integral is taken from the nearer tail
    (``left(x)`` picks the lower one), which keeps the quotient conditioned
    far into either tail.  A scalar x takes one tail call; an array takes
    one ``den`` call and one tail call per side.  ``quotient.sided(x,
    centres)`` takes each point's side from its centre instead (``centres``
    broadcasts against x), so a difference stencil stays on one tail.
    """
    l, u = float(support[0]), float(support[1])
    lo, hi = _inset_bounds((l, u))
    tail = cumulative(fn)

    def one(x):
        x = min(max(float(x), lo), hi)
        num = tail(x, left(x))
        d = den(x)
        if d <= 0.0 or not np.isfinite(d):
            raise ValueError(f"denominator {float(d)!r} is not positive at x={x!r}")
        return 2.0 * num / d

    def sided(x, centres):
        x = np.clip(np.asarray(x, dtype=float), lo, hi)
        flat = x.ravel()
        d = np.broadcast_to(np.asarray(den(flat), dtype=float), flat.shape)
        bad = (d <= 0.0) | ~np.isfinite(d)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"denominator {float(d[i])!r} is not positive"
                             f" at x={float(flat[i])!r}")
        sides = np.broadcast_to(
            left(np.clip(np.asarray(centres, dtype=float), lo, hi)), x.shape).ravel()
        num = np.empty_like(flat)
        for side in (True, False):
            pick = sides == side
            if pick.any():
                num[pick] = tail(flat[pick], side)
        return (2.0 * num / d).reshape(x.shape)

    def quotient(x):
        return one(x) if np.ndim(x) == 0 else sided(x, x)

    quotient.sided = sided
    return quotient


def coeff_from_density(density, support, mean=0.0, cdf=None):
    """Numeric diffusion coefficient from (*): a(x) = 2 int_l^x b p / p(x).

    The drift is b(x) = mean - x.  The tail is chosen by ``cdf(x) <= 0.5``,
    or, without a cdf, by ``x <= mean``.  A scalar x is one adaptive quad;
    an array of points is integrated gap by gap from each side's end, and
    ``density`` and ``cdf`` are then called on arrays, so they must accept
    them.
    """
    l, u = float(support[0]), float(support[1])
    if cdf is None:
        left = lambda x: x <= mean
    else:
        left = lambda x: cdf(x) <= 0.5
    return DiffusionCoefficient.numeric(_tail_quotient(
        lambda y: mean - y, _quad_cumulative(density, (l, u)), density, (l, u), left))


def _pivot(target):
    """The target's median, or its mean when it has no ppf: where a Stein
    solution switches tails and where a chain starts."""
    return float(target.ppf(0.5)) if target.ppf is not None else target.mean


def stein_solution(target, f):
    """Solve (1/2) a g' + b g = f - E[f] for g; returns a callable.

    A ``numpy.polynomial.Polynomial`` f of degree k < ``moment_bound`` on a
    polynomial coefficient, assumed to belong to a Pearson target as every
    named target's does, gets the Polynomial g of degree k - 1 from
    ``_pearson_solution``, with no integral.  Otherwise
    g(x) = 2 (int_l^x (f - m_f) p) / (a(x) p(x)), evaluated from the nearer
    tail: the lower one up to the median (the mean without a ppf), and
    vanishing appropriately at both endpoints; ValueError where a(x) p(x)
    is not positive.  On a grid target f is evaluated on arrays of table
    nodes, so it must accept arrays.  E[f] is ``g.mean_value``.
    """
    if (isinstance(f, np.polynomial.Polynomial) and target.coeff.kind == "polynomial"
            and target.has_moment(f.degree())):
        return _pearson_solution(target, f)
    density = target.density
    m_f = target._integral(f)
    pivot = _pivot(target)
    g = _tail_quotient(lambda y: f(y) - m_f, target._tails,
                       lambda x: target.coeff(x) * density(x),
                       target.support, lambda x: x <= pivot)
    g.mean_value = m_f
    return g


def _pearson_solution(target, f):
    """g = sum_j c_j x^j solving (1/2) a g' + (m - x) g = f - E[f]: the
    x^(j+1) equation (j alpha/2 - 1) c_j + ((j+1) beta/2 + m) c_{j+1}
    + (j+2) gamma/2 c_{j+2} = f_{j+1} is solved from the top down (pivots
    nonzero while E|X|^k < inf; Forman & Sorensen 2008), and the x^0 one
    gives E[f] = f_0 - m c_0 - gamma/2 c_1."""
    alpha, beta, gamma = target.coeff.as_tuple()
    m = target.mean
    fc = f.convert().coef.tolist()
    k = len(fc) - 1
    c = [0.0] * (k + 2)
    for j in range(k - 1, -1, -1):
        c[j] = (fc[j + 1] - ((j + 1) * beta / 2 + m) * c[j + 1]
                - (j + 2) * gamma / 2 * c[j + 2]) / (j * alpha / 2 - 1)
    g = np.polynomial.Polynomial(c[:max(k, 1)])
    g.mean_value = fc[0] - m * c[0] - gamma / 2 * c[1]
    return g


def _derivative5(v, h):
    """Five-point central difference from the values v at x - 2h, x - h, x,
    x + h, x + 2h (the centre v[2] is not read)."""
    return (-v[4] + 8 * v[3] - 8 * v[1] + v[0]) / (12 * h)


def _stein_operator(target, h, dh=None):
    """x -> (1/2) a(x) h'(x) + b(x) h(x), the Stein operator of the target.

    ``dh`` defaults to a five-point central difference with step
    _FD_STEP times the target's length scale.
    """
    if dh is None:
        step = _FD_STEP * target.length_scale()
        dh = lambda x: _derivative5(
            (h(x - 2 * step), h(x - step), None, h(x + step), h(x + 2 * step)), step)

    def op(x):
        return 0.5 * target.coeff(x) * dh(x) + target.drift(x) * h(x)

    return op


def stein_solution_residual(target, f, xs):
    """Residual (1/2) a g' + b g - (f - m_f) at points xs.

    For a closed-form (Polynomial) g, g' is exact and no integral is taken.
    Otherwise g' is a five-point central difference with step _FD_STEP
    times the target's length scale, and g is evaluated once on the whole
    stencil, each centre's five points from the centre's own tail: a
    stencil straddling the pivot would difference two tails' quadrature
    errors.  Points are clamped to the inset support, less the stencil's
    reach.  f is evaluated on the array of points, so it must accept arrays.
    """
    g = stein_solution(target, f)
    lo, hi = _inset_bounds(target.support)  # an infinite end stays infinite
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if isinstance(g, np.polynomial.Polynomial):
        xs = np.clip(xs, lo, hi)
        gx, dg = g(xs), g.deriv()(xs)
    else:
        step = _FD_STEP * target.length_scale()
        xs = np.clip(xs, lo + 2 * step, hi - 2 * step)
        v = g.sided(xs + step * _STENCIL[:, None], xs)  # rows x - 2h, ..., x + 2h
        gx, dg = v[2], _derivative5(v, step)
    return 0.5 * target.coeff(xs) * dg + target.drift(xs) * gx - (f(xs) - g.mean_value)


def stein_identity_residual(target, h, dh=None):
    """E[(1/2) a(X) h'(X) + b(X) h(X)] under the target, by quadrature
    (on a grid target's table, with h and dh evaluated on node arrays).

    Zero (to quadrature accuracy) for every admissible h exactly when the
    target is the invariant law of the (a, b) diffusion.  ``dh`` defaults to
    a five-point central difference.
    """
    return target._integral(_stein_operator(target, h, dh))


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
