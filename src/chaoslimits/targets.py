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
with numpy.  The cdf, the ppf and the support come from ``scipy.special`` in
scipy.stats' own operation order (``_law``), equal to the frozen scipy law
bit for bit without its generic wrapper; scipy.stats is the tests'
reference.  Exact draws of a named target come from numpy's own exact
sampler of its law (``_law`` again); any other target draws by inverse cdf.
A grid target evaluates its log-PCHIP piece by piece on a float, as a chain
step does.  Every target has a cdf and a ppf.

Every integral against a target (moments, the grid's mass, mean, cdf and
a(x), Stein solutions, the Stein identity) reads one table of fixed pieces,
built on the first integral (``_PieceTable``, ``_target_table``): a grid's
knots, else quantile breaks from the ppf with Gauss-Legendre inside,
Gauss-Jacobi beside a finite end where the density behaves as d^e, and a
1/x substitution on an infinite end.  f is evaluated on arrays of nodes on
every target, and a piece where f p needs it (f oscillating in a wide tail
piece) is halved for that f.  Only ``validate`` calls adaptive ``quad``, as
a check independent of the table.

``named_target`` returns one target per law per process, keyed by the name
and the parameters as floats, so each law's table is built once however
many questions ask of it.  The interning keeps the last _INTERNED laws
asked for, so a parameter sweep holds no more tables than that; the
constructors (``normal_target``, ...) build a fresh target on every call.
A target's ``params`` are read-only, since callers of a law share them.

A nearer-tail quotient (a numeric a(x), a Stein solution) takes one tail
call on an array of points: the cumulative sum of the point's own side of
its pivot plus one partial piece.

A polynomial f of degree k < ``moment_bound`` on a polynomial coefficient,
assumed Pearson ((a, b) is the density's own diffusion pair, as for every
named target), gets a polynomial Stein solution with no integral.

``moment_table`` gives the moment ladder that a quadratic coefficient forces
on a centered target; ``poly_moments`` reads its second to fourth rungs.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
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
    "stein_solution",
    "stein_solution_residual",
    "stein_identity_residual",
    "poly_moments",
    "moment_table",
    "NAMED_TARGETS",
]

_INSET_FRAC = 1e-8
_VALIDATE_TOL = 1e-8  # validate's bound on |mass - 1| and |int b p|
_FD_STEP = 1e-5  # finite-difference step, as a fraction of the length scale
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # five-point offsets, in steps
_INTERNED = 32  # named laws kept by ``named_target``
# |y| past which y * y nears overflow; exp(-y^2 / 2) and the Student density
# (1 + y^2 / nu)^(-(nu + 1) / 2) underflow to 0 well before it
_FAR = 1e150


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


class _ReadOnlyParams(dict):
    """A target's parameters: a dict that refuses changes, since every
    caller of ``named_target`` for one law shares its target."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("target parameters are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # copy and pickle rebuild it from a plain dict
        return type(self), (dict(self),)


@dataclass(frozen=True)
class TargetMeasure:
    """A density on (l, u), its cdf and ppf, and its diffusion pair (a, b).

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
    cdf: object = field(repr=False)
    ppf: object = field(repr=False)
    params: dict = field(default_factory=dict)
    moment_bound: float = math.inf
    mean: float = 0.0
    mean_shift: float = 0.0  # EX of the *uncentered* parent law, for reference
    # e at each end where p behaves as c d^e in the distance d to a finite end
    _end_powers: tuple = field(default=(0.0, 0.0), repr=False, compare=False)
    # the integration table (``_PieceTable``), built on the first integral
    _table: object = field(default=None, repr=False, compare=False)
    # (rng, count) -> count exact draws; None draws by inverse cdf
    _draw: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "params", _ReadOnlyParams(self.params))

    def _integrals(self):
        if self._table is None:
            object.__setattr__(self, "_table", _target_table(self))
        return self._table

    def _integral(self, fn):
        """int fn p over the support."""
        return self._integrals().integral(fn)

    def drift(self, x):
        return self.mean - np.asarray(x, dtype=float)

    def has_moment(self, k):
        return k < self.moment_bound

    def interior_grid(self, n=201):
        """Quantiles 0.005 to 0.995, clamped to the inset support: a quantile
        of a law massed at a singular end can round to the end."""
        lo, hi = _inset_bounds(self.support)
        return np.clip(np.asarray(self.ppf(np.linspace(0.005, 0.995, n)), dtype=float),
                       lo, hi)

    def length_scale(self):
        """u - l on a bounded support, else sqrt(E X^2): read off the moment
        ladder for a centered polynomial (Pearson) coefficient, otherwise
        on the table."""
        l, u = self.support
        if math.isfinite(l) and math.isfinite(u):
            return u - l
        if self.coeff.kind == "polynomial" and self.mean == 0.0 and self.has_moment(2):
            m2 = moment_table(*self.coeff.as_tuple(), 2)[2]
        else:
            m2 = self.moment(2)
        return math.sqrt(max(m2, 1e-12))

    def moment(self, k):
        """E[X^k], on the target's table."""
        return self._integral(lambda y: y**k)

    def validate(self):
        """Check normalization and centered drift to _VALIDATE_TOL, and
        positivity of a on the interior grid.  A nan mass or drift fails.

        The mass and the drift are integrated twice: on the table every other
        integral reads, and by adaptive ``quad`` of the density, which does
        not read the table.  Beside an end where p behaves as c d^e, quad
        integrates p / d^e against the weight d^e (``weight="alg"``),
        evaluating it no nearer the end than the next float: over the whole
        of a finite support, else over the table's end piece.  On a finite
        support with no power at either end quad starts from the table's
        pieces, so a grid density's knots, where it is only once
        differentiable, are breaks.
        """
        (l, u), e, b = self.support, self._end_powers, self._integrals().breaks
        near = (math.nextafter(l, math.inf), math.nextafter(u, -math.inf))
        spans = [(l, u, e)]  # (start, stop, (e at start, e at stop))
        if any(e) and math.isinf(u - l):  # the finite end's piece, then the rest
            spans = ([(l, b[1], e), (b[1], u, (0.0, 0.0))] if e[0]
                     else [(l, b[-2], (0.0, 0.0)), (b[-2], u, e)])

        def integral(fn):
            total = 0.0
            for start, stop, (e0, e1) in spans:
                def integrand(y):
                    y = min(max(y, near[0]), near[1])
                    return fn(y) * self.density(y) / ((y - start) ** e0 * (stop - y) ** e1)

                if e0 or e1:
                    opts = {"weight": "alg", "wvar": (e0, e1), "limit": 400}
                else:
                    # an unweighted finite span is the whole support
                    points = b[1:-1] if math.isfinite(stop - start) else None
                    opts = {"points": points,
                            "limit": 400 + (0 if points is None else 2 * len(points))}
                total += integrate.quad(integrand, start, stop, epsabs=1e-10, epsrel=1e-8,
                                        **opts)[0]
            return total

        for what, fn, want in (("density mass", lambda y: 1.0, 1.0),
                               ("drift integral", self.drift, 0.0)):
            for route, value in (("by quad", integral(fn)),
                                 ("on the table", self._integral(fn))):
                if not abs(value - want) <= _VALIDATE_TOL:
                    raise ValueError(f"{what} {value!r} is not {want:g} within"
                                     f" {_VALIDATE_TOL} {route} (end powers e = {e})")
        grid = self.interior_grid()
        avals = self.coeff(grid)
        if np.any(avals <= 0.0):
            bad = grid[np.argmin(avals)]
            raise ValueError(f"diffusion coefficient is not positive at x={float(bad)!r}")
        return True

    def sample_exact(self, count, seed):
        """Independent draws from the target (not the diffusion): numpy's
        exact sampler of a named law, else the ppf of seeded uniforms."""
        rng = np.random.default_rng([_check_int("seed", seed), 0x5EED])
        if self._draw is not None:
            return self._draw(rng, count)
        return np.asarray(self.ppf(rng.uniform(size=count)), dtype=float)


def _closed_form_density(logpdf, support, edges, far=math.inf):
    """density(x) from a closed-form numpy log-density on the open support.

    ``logpdf`` is evaluated on the interior points with |x| < ``far``;
    ``edges`` are the density's values at the lower and upper endpoints;
    elsewhere it is 0: outside the support, and at |x| >= ``far``, where
    the density has underflowed to 0 and ``logpdf`` could overflow.  A
    scalar x gives a float.

    A float or an array strictly inside the support skips the masks.  Such a
    float is evaluated as a 1-element array, as the masked path does: numpy's
    0-d and scalar loops (``** 2`` among them) can differ from the array
    loops in the last bit.  ``logpdf`` may return a constant (the uniform's
    0.0), so its result is broadcast to x's shape.
    """
    lo, hi = support
    p_lo, p_hi = edges
    a, b = max(lo, -far), min(hi, far)  # where logpdf is read

    def density(x):
        if isinstance(x, float) and a < x < b:  # quad's calls
            return np.exp(logpdf(np.array([x]))).item()
        x = np.asarray(x, dtype=float)
        inside = (a < x) & (x < b)
        if x.ndim and inside.all():
            out = np.exp(logpdf(np.ascontiguousarray(x)))
            return out if out.shape == x.shape else np.full(x.shape, out)
        out = np.where(x == lo, p_lo, np.where(x == hi, p_hi, 0.0))
        out[inside] = np.exp(logpdf(x[inside]))
        out[np.isnan(x)] = np.nan
        return out if out.ndim else float(out)

    return density


def _law(cdf01, ppf01, draw01, ends=(-math.inf, math.inf), loc=0.0, scale=1.0):
    """(support, cdf, ppf, draw) of loc + scale Y, Y having the
    ``scipy.special`` cdf ``cdf01`` and ppf ``ppf01`` on the interval
    ``ends``, and ``draw01(rng, count)`` drawing Y exactly.

    Each step of cdf and ppf is scipy.stats' own, in its order and with its
    edge values (0 below the support and 1 above it, the ends at q = 0 and 1,
    nan at nan and for q outside [0, 1]), so a value, and its type, equals
    the frozen scipy law's bit for bit, without the generic wrapper's cost.
    ``draw(rng, count)`` maps the draws of Y as ppf maps ppf01, in place.
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

    def draw(rng, count):
        out = draw01(rng, count)
        out *= scale
        out += loc
        return out

    return support, cdf, ppf, draw


def _finite(**params):
    """The parameters as floats, each checked to be finite."""
    out = []
    for key, value in params.items():
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"target parameter {key} must be finite, got {v!r}")
        out.append(v)
    return out[0] if len(out) == 1 else out


def _named_target(name, law, logpdf, coeff, params, ends=((0.0, 0.0), (0.0, 0.0)),
                  moment_bound=math.inf, mean_shift=0.0, far=math.inf):
    """Named target: closed-form density and the support, cdf, ppf and exact
    draws of ``law`` (from ``_law``).  ``ends`` holds (e, c) for each end,
    where the density behaves as c d^e in the distance d to it: its value
    there is inf, c or 0, and the table integrates against d^e beside it.
    The density is 0 at |x| >= ``far`` (``_closed_form_density``)."""
    support, cdf, ppf, draw = law
    edges = tuple(math.inf if e < 0 else c if e == 0 else 0.0 for e, c in ends)
    return TargetMeasure(
        name=name,
        support=support,
        density=_closed_form_density(logpdf, support, edges, far),
        coeff=coeff,
        cdf=cdf,
        ppf=ppf,
        params=params,
        moment_bound=moment_bound,
        mean_shift=mean_shift,
        _end_powers=tuple(e for e, _ in ends),
        _draw=draw,
    )


def normal_target(gamma=1.0):
    """N(0, gamma): a(x) = 2*gamma."""
    g = _finite(gamma=gamma)
    if g <= 0:
        raise ValueError("normal target needs gamma > 0")
    s = math.sqrt(g)
    c = -math.log(s) - 0.5 * math.log(2.0 * math.pi)
    return _named_target(
        "normal", _law(special.ndtr, special.ndtri,
                       lambda rng, n: rng.standard_normal(n), scale=s),
        lambda x: c - 0.5 * (x / s) ** 2,
        DiffusionCoefficient.polynomial(0.0, 0.0, 2.0 * g),
        {"gamma": g}, far=_FAR * s,
    )


def student_target(nu):
    """Student t(nu), nu > 2: a(x) = (2/(nu-1)) (x^2 + nu)."""
    nu = _finite(nu=nu)
    if nu <= 2:
        raise ValueError("student target needs nu > 2 (finite variance)")
    al = 2.0 / (nu - 1.0)
    c = (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
         - 0.5 * (math.log(nu) + math.log(math.pi)))
    return _named_target(
        "student",
        _law(lambda y: special.stdtr(nu, y), lambda q: special.stdtrit(nu, q),
             lambda rng, n: rng.standard_t(nu, n)),
        lambda x: c - 0.5 * (nu + 1.0) * np.log1p(x * x / nu),
        DiffusionCoefficient.polynomial(al, 0.0, 2.0 * nu / (nu - 1.0)),
        {"nu": nu}, moment_bound=nu, far=_FAR,
    )


def pareto_target(nu):
    """Centered Pareto: parent density nu (1+x)^(-nu-1) on (0, inf), nu > 2."""
    nu = _finite(nu=nu)
    if nu <= 2:
        raise ValueError("pareto target needs nu > 2 (finite variance)")
    m = 1.0 / (nu - 1.0)
    c = 2.0 / (nu - 1.0)
    loc = -1.0 - m
    log_nu = math.log(nu)
    return _named_target(
        "pareto",
        _law(lambda y: 1 - y ** (-nu), lambda q: pow(1 - q, -1.0 / nu),
             lambda rng, n: 1.0 + rng.pareto(nu, n), (1.0, math.inf), loc=loc),
        lambda x: log_nu - (nu + 1.0) * np.log(x - loc),
        DiffusionCoefficient.polynomial(c, c * (1.0 + 2.0 * m), c * m * (1.0 + m)),
        {"nu": nu}, ((0.0, nu), (0.0, 0.0)), moment_bound=nu, mean_shift=m,
    )


def gamma_target(a, lam):
    """Centered Gamma(a, lam): a(x) = (2/lam) (x + a/lam)."""
    a, lam = _finite(a=a, lam=lam)
    if a <= 0 or lam <= 0:
        raise ValueError("gamma target needs a > 0 and lam > 0")
    m = a / lam
    scale = 1.0 / lam
    c = -math.lgamma(a) - math.log(scale)

    def logpdf(x):
        y = (x + m) / scale
        return (a - 1.0) * np.log(y) - y + c

    return _named_target(
        "gamma",
        _law(lambda y: special.gammainc(a, y), lambda q: special.gammaincinv(a, q),
             lambda rng, n: rng.standard_gamma(a, n), (0.0, math.inf),
             loc=-m, scale=scale),
        logpdf,
        DiffusionCoefficient.polynomial(0.0, 2.0 / lam, 2.0 * a / lam**2),
        {"a": a, "lam": lam}, ((a - 1.0, 1.0 / scale), (0.0, 0.0)), mean_shift=m,
    )


def inverse_gamma_target(delta, lam):
    """Centered inverse Gamma(delta, lam), lam > 2:
    a(x) = (2/(lam-1)) (x + delta/(lam-1))^2."""
    delta, lam = _finite(delta=delta, lam=lam)
    if delta <= 0 or lam <= 2:
        raise ValueError("inverse gamma target needs delta > 0 and lam > 2")
    m = delta / (lam - 1.0)
    c = 2.0 / (lam - 1.0)
    const = -math.lgamma(lam) - math.log(delta)

    def logpdf(x):
        y = (x + m) / delta
        return -(lam + 1.0) * np.log(y) - 1.0 / y + const

    # exp(-1/y) beats every power of y at 0: the density is 0 there, smoothly
    return _named_target(
        "inverse_gamma",
        _law(lambda y: special.gammaincc(lam, 1.0 / y),
             lambda q: 1.0 / special.gammainccinv(lam, q),
             lambda rng, n: 1.0 / rng.standard_gamma(lam, n),
             (0.0, math.inf), loc=-m, scale=delta),
        logpdf,
        DiffusionCoefficient.polynomial(c, 2.0 * c * m, c * m * m),
        {"delta": delta, "lam": lam}, moment_bound=lam, mean_shift=m,
    )


def fdist_target(a, b):
    """Centered Fisher F(a, b), b > 4:
    a(x) = (4/(a(b-2))) (x + m) (b + a (x + m)),  m = b/(b-2)."""
    a, b = _finite(a=a, b=b)
    if a <= 0 or b <= 4:
        raise ValueError("f target needs a > 0 and b > 4 (finite variance)")
    m = b / (b - 2.0)
    k = 4.0 / (a * (b - 2.0))
    c = (0.5 * b * math.log(b) + 0.5 * a * math.log(a)
         - float(special.betaln(0.5 * a, 0.5 * b)))

    def logpdf(x):
        y = x + m
        return (0.5 * a - 1.0) * np.log(y) - 0.5 * (a + b) * np.log(b + a * y) + c

    return _named_target(
        "f",
        _law(lambda y: special.fdtr(a, b, y), lambda q: special.fdtri(a, b, q),
             lambda rng, n: rng.f(a, b, n), (0.0, math.inf), loc=-m),
        logpdf,
        DiffusionCoefficient.polynomial(
            k * a, k * (b + 2.0 * a * m), k * m * (b + a * m)
        ),
        {"a": a, "b": b}, ((0.5 * a - 1.0, 1.0), (0.0, 0.0)),
        moment_bound=b / 2.0, mean_shift=m,
    )


def uniform_centered_target():
    """Uniform on (-1/2, 1/2): a(x) = 1/4 - x^2."""
    return _named_target(
        "uniform", _law(lambda y: y, lambda q: q, lambda rng, n: rng.uniform(size=n),
                        (0.0, 1.0), loc=-0.5),
        lambda x: 0.0,
        DiffusionCoefficient.polynomial(-1.0, 0.0, 0.25), {},
        ((0.0, 1.0), (0.0, 1.0)), mean_shift=0.5,
    )


def beta_target(a, b):
    """Centered Beta(a, b) on (-a/(a+b), b/(a+b)):
    a(x) = (2/(a+b)) (x + a/(a+b)) (b/(a+b) - x)."""
    a, b = _finite(a=a, b=b)
    if a <= 0 or b <= 0:
        raise ValueError("beta target needs a > 0 and b > 0")
    s = a + b
    m = a / s
    c = 2.0 / s
    hi = 1.0 - m  # the upper end, as scipy places it
    lbeta = float(special.betaln(a, b))

    def logpdf(x):
        # each factor from the distance to its own end, exact beside that end
        return (a - 1.0) * np.log(x + m) + (b - 1.0) * np.log(hi - x) - lbeta

    return _named_target(
        "beta",
        _law(lambda y: special.betainc(a, b, y), lambda q: special.betaincinv(a, b, q),
             lambda rng, n: rng.beta(a, b, n), (0.0, 1.0), loc=-m),
        logpdf,
        DiffusionCoefficient.polynomial(-c, c * (b - a) / s, c * a * b / s**2),
        {"a": a, "b": b}, ((a - 1.0, b), (b - 1.0, a)), mean_shift=m,
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
    """One of the eight named targets from keyword parameters.

    Equal laws share one target: the parameters are keyed as floats, so
    ``2``, ``2.0`` and ``np.float64(2)`` give the same object, and its table
    is built once.  The last _INTERNED laws asked for are kept; a rejected
    parameter raises on every call.
    """
    if name not in NAMED_TARGETS:
        raise ValueError(f"unknown target {name!r}; choose from {sorted(NAMED_TARGETS)}")
    wanted = NAMED_TARGETS[name][1]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing:
        raise ValueError(f"target {name!r} needs parameter(s) {missing}")
    if extra:
        raise ValueError(f"target {name!r} got unexpected parameter(s) {extra}")
    return _interned_target(name, tuple(float(params[p]) for p in wanted))


@functools.lru_cache(maxsize=_INTERNED)
def _interned_target(name, values):
    """The constructor's target at ``values``, in ``NAMED_TARGETS`` order."""
    return NAMED_TARGETS[name][0](*values)


_NODES = 20
_GL_X, _GL_WX = np.polynomial.legendre.leggauss(_NODES)
_GL_T, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_WX  # the rule on [0, 1]
# Legendre coefficients 16..19 of a piece's integrand, from its weighted values
_GL_TOP = np.polynomial.legendre.legvander(_GL_X, _NODES - 1)[:, -4:] * (
    np.arange(_NODES - 4, _NODES) + 0.5)
# a target's breaks as quantiles, the tail ones only beside an infinite end
_BREAK_Q = np.array([0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
_TAIL_Q = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-4])
# no break nearer a finite end than this part of its distance to the mean, so
# the end piece's nodes stay apart in floats beside a singular end
_END_PIECE = 1e-3
_GROWTH, _GROWTH_STEPS = 8.0, 20  # breaks into an infinite end, to 8^20 widths
# a piece is tested by halving while its top Legendre coefficients exceed
# _RESOLVED of its int |fn p| and _FLOOR of the support's, and is halved when
# that moves its integral by more than _SETTLE of its int |fn p|
_RESOLVED, _SETTLE, _FLOOR, _MAX_PIECES = 1e-8, 1e-13, 1e-15, 4096


@functools.lru_cache(maxsize=256)
def _jacobi_rule(power):
    """Nodes t on (0, 1) and weights W: int_0^1 t^power G dt = sum W G(t)."""
    x, w = special.roots_jacobi(_NODES, 0.0, power)
    return 0.5 * (x + 1.0), w * 0.5 ** (power + 1.0)


class _PieceTable:
    """Integrals of fn p on pieces of the support, breaks[k] to breaks[k + 1].

    Each piece has one 20-node rule, rescaled to any part of it:
    Gauss-Legendre inside; Gauss-Jacobi of weight d^e beside a finite end
    where p behaves as c d^e in the distance d to it (``powers``), always on
    a part reaching that end, with d^e divided out at each node's own
    rounded distance, so nodes closer to the end than floats resolve lose no
    digits; Gauss-Legendre in t, y = x + s (1/t - 1), on an infinite end, s
    the neighbouring piece's width.  ``piece_density(k, y)`` is p at nodes y
    inside piece k (of the first table, which ``_fitted`` refines);
    ``mass=None`` divides p by its summed mass.
    """

    def __init__(self, breaks, piece_density, powers=(0.0, 0.0), mass=1.0):
        self.breaks = b = np.asarray(breaks, dtype=float)
        self.piece_density = piece_density
        count = len(b) - 1
        self.parent = np.arange(count)  # each piece's index before any halving
        self.t, self.w = np.tile(_GL_T, (count, 1)), np.tile(_GL_W, (count, 1))
        self.side = np.zeros(count, dtype=int)  # -1/+1: parts reach the lower/upper end
        self.reach, self.power = np.zeros(count), np.zeros(count)  # infinite end's s, e
        for k, sign, power in ((0, -1, powers[0]), (count - 1, 1, powers[1])):
            if math.isinf(b[k + (sign > 0)]):
                self.t[k], self.w[k] = 1.0 / _GL_T - 1.0, _GL_W / _GL_T**2
                self.reach[k] = sign * (b[2] - b[1] if sign < 0 else b[k] - b[k - 1])
            elif power != 0.0:
                t, self.w[k] = _jacobi_rule(power)
                self.t[k], self.power[k] = (t if sign < 0 else 1.0 - t), power
            else:
                continue
            self.side[k] = sign
        self.mass = 1.0 if mass is None else mass
        self.nodes, self.weights = self._rule(
            np.arange(count), np.where(self.side > 0, b[:-1], b[1:]), self.side <= 0)
        if mass is None:
            self.mass = float(np.sum(self.weights))
            self.weights = self.weights / self.mass

    @functools.cached_property
    def lists(self):
        """Python lists to serve one point at a time (a chain step, a Stein
        value): breaks, side, reach, power and parent."""
        return [a.tolist() for a in (self.breaks, self.side, self.reach, self.power,
                                     self.parent)]

    def _rule(self, k, x, lower):
        """Nodes and p-weighted weights of the part of piece k below x if
        lower, else above it (arrays of one shape)."""
        origin = np.where(lower, self.breaks[k], x)
        h = np.where(lower, x, self.breaks[k + 1]) - origin
        origin = np.where(np.isinf(h), x, origin)
        h = np.where(np.isinf(h), self.reach[k], h)
        y = origin[..., None] + h[..., None] * self.t[k]
        w = (np.abs(h) / self.mass)[..., None] * (
            self.w[k] * self.piece_density(self.parent[k], y))
        e = self.power[k][..., None]
        if e.any():
            end = self.breaks[k + (self.side[k] > 0)][..., None]
            w = w * np.divide(np.abs(y - end), np.abs(h)[..., None],
                              out=np.ones_like(y), where=e != 0.0) ** -e
        return y, w

    def _fitted(self, fn):
        """(table, fn p at its nodes times the weights): this table with an
        inside piece halved, worst first, while its top Legendre coefficients
        exceed _RESOLVED of its int |fn p| and _FLOOR of the support's, and
        halving it moves its integral by more than _SETTLE of its int |fn p|;
        up to _MAX_PIECES pieces.  So an f that oscillates in a wide tail
        piece is resolved there, and a smooth f costs a Legendre transform.

        When the cap leaves pieces unsplit whose summed change exceeds
        _RESOLVED of the support's int |fn p|, an ``IntegrationWarning``
        names that left-over: it detects an unresolved f, but it is not a
        bound on the integral's error."""
        table, values = self, fn(self.nodes) * self.weights
        total = float(np.abs(values).sum())
        floor, left_over = _FLOOR * total, 0.0
        check = np.flatnonzero(self.side == 0)
        while len(table.side) < _MAX_PIECES:
            v, size = values[check], np.abs(values[check]).sum(axis=-1)
            keep = np.abs(v @ _GL_TOP).sum(axis=-1) > np.maximum(_RESOLVED * size, floor)
            check, v, size = check[keep], v[keep], size[keep]
            if not len(check):
                break
            mid = 0.5 * (table.breaks[check] + table.breaks[check + 1])
            halves = [table._rule(check, mid, lower) for lower in (True, False)]
            parts = [fn(y) * w for y, w in halves]
            change = np.abs(v.sum(axis=-1) - parts[0].sum(axis=-1) - parts[1].sum(axis=-1))
            bad = np.flatnonzero(change > np.maximum(_SETTLE * size, floor))
            order = np.argsort(-change[bad])
            pick = np.sort(bad[order[: _MAX_PIECES - len(table.side)]])
            left_over = float(change[bad[order[len(pick):]]].sum())
            if not len(pick):
                break
            # splice the halves in place of the picked pieces; they are checked next
            k = check[pick]
            reps = np.ones(len(table.side), dtype=int)
            reps[k] = 2
            idx = np.repeat(np.arange(len(reps)), reps)
            check = k + np.arange(len(k))
            table = table._spliced(idx, np.insert(table.breaks, k + 1, mid[pick]),
                                   check, [(y[pick], w[pick]) for y, w in halves])
            values = values[idx]
            values[check], values[check + 1] = parts[0][pick], parts[1][pick]
            check = np.sort(np.concatenate([check, check + 1]))
        if left_over > _RESOLVED * total:
            warnings.warn(f"the table reached its cap of {_MAX_PIECES} pieces with"
                          f" {left_over:.3g} of int |fn p| = {total:.3g} in pieces it"
                          " could not halve", integrate.IntegrationWarning, stacklevel=3)
        return table, values

    def _spliced(self, idx, breaks, lo, halves):
        """A table with piece idx[j] at row j and the given breaks, the rows
        lo and lo + 1 holding the (nodes, weights) of the halves."""
        new = object.__new__(_PieceTable)
        new.breaks, new.piece_density, new.mass = breaks, self.piece_density, self.mass
        for name in ("parent", "t", "w", "side", "reach", "power", "nodes", "weights"):
            setattr(new, name, getattr(self, name)[idx])
        (new.nodes[lo], new.weights[lo]), (new.nodes[lo + 1], new.weights[lo + 1]) = halves
        return new

    def integral(self, fn):
        """int fn p over the support; fn is evaluated on arrays of nodes."""
        return float(np.sum(self._fitted(fn)[1]))

    def cumulative(self, fn, centred=False):
        """(x, left) -> int_lo^x fn p if left, else -int_x^hi fn p.

        Per-piece integrals are summed from both ends, so a tail reads the
        cumulative sum of one side plus one partial piece, with no
        cancellation beyond an end piece's.  fn is evaluated on arrays of
        nodes; x is a float or an array, left a bool or one per point.  With
        ``centred`` the integrand is fn less E fn, kept as ``tail.mean``.
        """
        table, values = self._fitted(fn)
        mean = float(np.sum(values)) if centred else 0.0
        pieces = (values - mean * table.weights).sum(axis=-1)
        left_sum = np.concatenate([[0.0], np.cumsum(pieces)])
        right_sum = np.concatenate([np.cumsum(pieces[::-1])[::-1], [0.0]])

        def tail(x, left):
            if isinstance(x, float) or np.ndim(x) == 0:
                breaks, sides, reach, powers, parents = table.lists
                x = float(x)
                k = min(max(bisect.bisect_right(breaks, x) - 1, 0), len(sides) - 1)
                lower = left if sides[k] == 0 else sides[k] < 0
                origin, h = (breaks[k], x - breaks[k]) if lower else (x, breaks[k + 1] - x)
                if math.isinf(h):
                    origin, h = x, reach[k]
                y = origin + h * table.t[k]
                w = (abs(h) / table.mass) * (table.w[k] * table.piece_density(parents[k], y))
                if powers[k]:
                    w = w * (np.abs(y - breaks[k + (sides[k] > 0)]) / abs(h)) ** -powers[k]
                part = float(((fn(y) - mean) * w).sum())
                if left:
                    return float(left_sum[k] + part if lower else left_sum[k + 1] - part)
                return float(part - right_sum[k] if lower else -(right_sum[k + 1] + part))
            x = np.asarray(x, dtype=float)
            k = np.clip(np.searchsorted(table.breaks, x, side="right") - 1, 0,
                        len(table.side) - 1)
            lower = np.where(table.side[k] == 0, left, table.side[k] < 0)
            y, w = table._rule(k, x, lower)
            part = ((fn(y) - mean) * w).sum(axis=-1)
            return np.where(left, np.where(lower, left_sum[k] + part, left_sum[k + 1] - part),
                            np.where(lower, part - right_sum[k], -(right_sum[k + 1] + part)))

        tail.mean = mean
        return tail


def _target_table(target):
    """The table of a named or hand-built target.

    Breaks are quantiles from the ppf, continued into an infinite end by
    ``_far_breaks``.
    """
    l, u = target.support
    xs = np.asarray(target.ppf(np.concatenate([
        _TAIL_Q if math.isinf(l) else [], _BREAK_Q,
        1.0 - _TAIL_Q if math.isinf(u) else []])), dtype=float)
    near = [_END_PIECE * abs(target.mean - e) if math.isfinite(e) else 0.0 for e in (l, u)]
    xs = np.unique(xs[(xs > l + near[0]) & (xs < u - near[1])])
    centre = xs[len(xs) // 2]
    if math.isinf(l):
        xs = np.concatenate([_far_breaks(target, centre, xs[0])[::-1], xs])
    if math.isinf(u):
        xs = np.concatenate([xs, _far_breaks(target, centre, xs[-1])])
    return _PieceTable(np.concatenate([[l], xs, [u]]), lambda k, y: target.density(y),
                       target._end_powers)


def _far_breaks(target, centre, start):
    """Breaks past ``start``, their distances to ``centre`` doubled once
    (beside a light tail's last quantile) and then growing by the factor
    _GROWTH, up to the first where the density underflows to 0."""
    far = centre + (start - centre) * 2.0 * _GROWTH ** np.arange(_GROWTH_STEPS)
    stop = np.flatnonzero(np.asarray(target.density(far)) <= 0.0)
    return far[: stop[0] + 1] if len(stop) else far


def target_from_density_grid(xs, ps, support=None):
    """Target from a tabulated density, interpolated monotonically in log space.

    The grid must be strictly increasing with positive densities; the support
    defaults to the grid span and, if given, must agree with it.  The density
    is renormalized; the drift is b(x) = mean - x so that (*) stays
    consistent for uncentered grids.  The target's table has the knots as
    its breaks, where the density is the exponential of a cubic, so its
    Gauss-Legendre rule is exact to rounding for smooth fn; the mass, the
    mean, the cdf, a(x), the moments and the Stein solutions all read it.
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
        l, u = map(float, support)
        # written as not (<=) so that a nan end fails the check
        if not (abs(l - lo) <= 1e-12 * max(1.0, abs(lo))
                and abs(u - hi) <= 1e-12 * max(1.0, abs(hi))):
            raise ValueError("support must coincide with the density grid span")
    logp = interpolate.PchipInterpolator(xs, np.log(ps), extrapolate=False)
    knots, pieces, last = xs.tolist(), logp.c.T.tolist(), len(xs) - 2

    def piece_density(k, y):
        """exp of piece k's cubic (PPoly order: c3, c2, c1, c0) at y."""
        if isinstance(k, int):
            start, (c3, c2, c1, c0) = knots[k], pieces[k]
        else:
            start, (c3, c2, c1, c0) = xs[k][..., None], logp.c[:, k, None]
        s = y - start
        return np.exp(c0 + s * (c1 + s * (c2 + s * c3)))

    table = _PieceTable(xs, piece_density, mass=None)
    mass = table.mass

    def density(x):
        """p(x); 0 outside the grid span."""
        if isinstance(x, float):
            if not lo <= x <= hi:
                return math.nan if math.isnan(x) else 0.0
            # the log-cubic in PPoly's own order, equal to PPoly's bit for bit;
            # math.exp and np.exp can differ by 1 ulp, so the two paths can too
            i = min(bisect.bisect_right(knots, x) - 1, last)
            c3, c2, c1, c0 = pieces[i]
            s = x - knots[i]
            s2 = s * s
            return math.exp(c0 + c1 * s + c2 * s2 + c3 * (s2 * s)) / mass
        x = np.asarray(x, dtype=float)
        out = np.exp(logp(np.clip(x, lo, hi))) / mass
        out = np.where((x < lo) | (x > hi), 0.0, out)
        return out if out.ndim else float(out)

    mass_below = table.cumulative(lambda y: 1.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.clip(mass_below(np.clip(x, lo, hi), True), 0.0, 1.0)
        out = np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, out))
        return out if out.ndim else float(out)

    # a monotone inverse of the exact cdf on a refined knot set, Newton-polished
    grid = np.unique(np.concatenate([xs, np.linspace(lo, hi, 257)]))
    cums = np.maximum.accumulate(cdf(grid))
    keep = np.concatenate([[True], np.diff(cums) > 1e-15])
    ppf_interp = interpolate.PchipInterpolator(cums[keep], grid[keep],
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

    mean = table.integral(lambda y: y)
    median = ppf(0.5)
    coeff = DiffusionCoefficient.numeric(_tail_quotient(
        table.cumulative(lambda y: mean - y), density, (lo, hi),
        lambda x: x <= median))
    return TargetMeasure(
        name="custom", support=(lo, hi), density=density, coeff=coeff, cdf=cdf,
        ppf=ppf, params={"grid_points": len(xs)}, mean=mean, mean_shift=mean,
        _table=table,
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


def _tail_quotient(tail, den, support, left):
    """x -> 2 int_l^x fn p / den(x), with x clamped to the inset support.

    ``tail`` gives the signed tail integrals of fn against the density (a
    table's ``cumulative(fn)``).  fn p integrates to 0 over
    the support, so the partial integral is taken from the nearer tail
    (``left(x)`` picks the lower one), which keeps the quotient conditioned
    far into either tail.  A scalar x takes one tail call; an array takes
    one ``den`` call and one tail call.  ``quotient.sided(x,
    centres)`` takes each point's side from its centre instead (``centres``
    broadcasts against x), so a difference stencil stays on one tail; an
    array takes one tail call for both sides.
    """
    l, u = float(support[0]), float(support[1])
    lo, hi = _inset_bounds((l, u))

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
        return (2.0 * tail(flat, sides) / d).reshape(x.shape)

    def quotient(x):
        return one(x) if np.ndim(x) == 0 else sided(x, x)

    quotient.sided = sided
    return quotient


def stein_solution(target, f):
    """Solve (1/2) a g' + b g = f - E[f] for g; returns a callable.

    A ``numpy.polynomial.Polynomial`` f of degree k < ``moment_bound`` on a
    polynomial coefficient, assumed to belong to a Pearson target as every
    named target's does, gets the Polynomial g of degree k - 1 from
    ``_pearson_solution``, with no integral.  Otherwise
    g(x) = 2 (int_l^x (f - m_f) p) / (a(x) p(x)), evaluated from the nearer
    tail: the lower one up to the median, and vanishing appropriately at both endpoints; ValueError where a(x) p(x)
    is not positive.  f is evaluated on arrays of table nodes, so it must
    accept arrays.  E[f] is ``g.mean_value``.
    """
    if (isinstance(f, np.polynomial.Polynomial) and target.coeff.kind == "polynomial"
            and target.has_moment(f.degree())):
        return _pearson_solution(target, f)
    density = target.density
    tail = target._integrals().cumulative(f, centred=True)
    pivot = float(target.ppf(0.5))
    g = _tail_quotient(tail, lambda x: target.coeff(x) * density(x),
                       target.support, lambda x: x <= pivot)
    g.mean_value = tail.mean
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


def stein_identity_residual(target, h, dh):
    """E[(1/2) a(X) h'(X) + b(X) h(X)] under the target, on its table, with
    h and its derivative dh evaluated on node arrays.

    Zero (to quadrature accuracy) for every admissible h exactly when the
    target is the invariant law of the (a, b) diffusion.
    """
    return target._integral(
        lambda x: 0.5 * target.coeff(x) * dh(x) + target.drift(x) * h(x))


# --- moments forced by a quadratic coefficient ------------------------------

def poly_moments(alpha, beta, gamma):
    """(EX^2, EX^3, EX^4) forced by a(x) = alpha x^2 + beta x + gamma, read
    off ``moment_table``; ValueError at alpha = 2, 1 and 2/3."""
    return tuple(moment_table(alpha, beta, gamma, 4)[2:])


def moment_table(alpha, beta, gamma, max_order):
    """[EX^0 .. EX^max_order] for a centered target with quadratic coefficient,
    from the ladder the Stein identity forces:

        (1 - (r-1) alpha / 2) EX^r = ((r-1)/2) (beta EX^{r-1} + gamma EX^{r-2}).

    ValueError at alpha = 2/(r-1), where the leading coefficient vanishes.
    """
    moments = [1.0, 0.0]
    for r in range(2, max_order + 1):
        lead = 1.0 - (r - 1) * alpha / 2.0
        if lead == 0.0:
            raise ValueError(f"alpha = 2/{r - 1}: the moment ladder breaks at order {r}"
                             " (the leading coefficient vanishes)")
        moments.append((r - 1) / 2.0 * (beta * moments[-1] + gamma * moments[-2]) / lead)
    return moments[: max_order + 1]
