"""Euler-Maruyama sampling of dX = b(X) dt + sqrt(a(X)) dW and empirical checks.

The scheme is a single strictly-sequential chain with interior projection:
after every step the state is clamped into the inset support that a(x) and
the Stein routines read (``targets._inset_bounds``), so sqrt(a) is always
evaluated at a point where a > 0.  Noise is drawn in seeded chunks of
a fixed 65,536 steps (chunk c from ``default_rng([seed, c])``), which makes the
whole sample stream bit-reproducible for a given config and prefix-stable: the
first N draws never depend on how many more steps are run.

Empirical side: Kolmogorov distance against a target CDF, Wasserstein-1
between two sample sets, and the sample mean of the characterizing statistic
(1/2) a(Y) h'(Y) + b(Y) h(Y), which is centered exactly when Y follows the
target law.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.stats

from .chaos import _check_int, iter_gaussian_chunks
from .targets import _inset_bounds, _stein_operator

__all__ = [
    "SimConfig",
    "EmpiricalDistribution",
    "simulate",
    "ks_distance",
    "wasserstein1_distance",
    "stein_residual_empirical",
    "STEIN_DICTIONARY",
    "stein_dictionary_test",
]

_OVERFLOW = 1e15
_CLAMP_REPORT_THRESHOLD = 1e-3
_DICTIONARY_Z = 5.0


@dataclass(frozen=True)
class SimConfig:
    """Chain parameters; ``samples`` is the number of *kept* (thinned) draws."""

    dt: float = 1e-3
    burn_in: int = 100_000
    samples: int = 10_000
    thinning: int = 10
    seed: int = None

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        for name, least in (("burn_in", 0), ("samples", 2), ("thinning", 1),
                            ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), least))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample values plus a config echo and the clamping rate."""

    values: np.ndarray
    clamp_fraction: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size < 2:
            raise ValueError("an empirical distribution needs at least 2 samples")
        object.__setattr__(self, "values", v)

    @property
    def count(self):
        return int(self.values.size)

    @property
    def clamping_flagged(self):
        """True when more than 0.1% of steps hit the boundary projection."""
        return self.clamp_fraction > _CLAMP_REPORT_THRESHOLD

    def mean(self):
        return float(self.values.mean())

    def var(self):
        return float(self.values.var(ddof=1))


def simulate(target, cfg):
    """Run one Euler-Maruyama chain and return the thinned post-burn-in draws.

    The chain starts at the target median, projects into the inset support
    after every step, and raises on overflow (|X| > 1e15 or NaN) or on a
    non-positive diffusion coefficient -- both symptoms of a dt too large for
    the coefficient's stiffness.
    """
    lo, hi = _inset_bounds(target.support)
    coeff = target.coeff
    mean = target.mean

    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    x = min(max(float(target.ppf(0.5)), lo), hi)

    total = cfg.burn_in + cfg.samples * cfg.thinning
    out = np.empty(cfg.samples)
    kept = 0
    step = 0
    clamped = 0
    next_keep = cfg.burn_in + cfg.thinning
    sqrt = math.sqrt
    # inside [flo, fhi] a step needs neither the clamp nor the overflow check
    flo, fhi = max(lo, -_OVERFLOW), min(hi, _OVERFLOW)
    fast = coeff.kind == "polynomial"
    if fast:
        al, be, ga = coeff.as_tuple()

    for block in iter_gaussian_chunks(1, total, cfg.seed):
        for z in block.ravel().tolist():
            a = (al * x + be) * x + ga if fast else float(coeff(x))
            b = mean - x
            if a <= 0.0:
                raise RuntimeError(
                    f"diffusion coefficient {a!r} <= 0 at x = {x!r}:"
                    " dt too large for the coefficient's stiffness"
                )
            x = x + b * dt + sqrt(a) * sqrt_dt * z
            if not flo <= x <= fhi:  # a miss: clamp, or raise on overflow/NaN
                if not (x < lo or x > hi):
                    raise RuntimeError(
                        f"state overflow at step {step}:"
                        " dt too large for the coefficient's stiffness"
                    )
                x = lo if x < lo else hi
                clamped += 1
            step += 1
            if step == next_keep:
                out[kept] = x
                kept += 1
                next_keep += cfg.thinning

    return EmpiricalDistribution(
        out,
        clamp_fraction=clamped / total,
        meta={"target": target.name, "params": dict(target.params), **asdict(cfg)},
    )


def ks_distance(e, target):
    """sup_x |F_hat(x) - F(x)| evaluated at the sample points."""
    v = e.values
    n = e.count
    F = np.asarray(target.cdf(v), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def wasserstein1_distance(e, reference):
    """L1 distance between the two empirical quantile functions."""
    return float(scipy.stats.wasserstein_distance(e.values, reference.values))


def stein_residual_empirical(e, target, h, dh):
    """Sample mean and stderr of (1/2) a(Y) h'(Y) + b(Y) h(Y), dh being h'.

    The expectation vanishes exactly under the target law, so a mean several
    stderr away from 0 rejects the sample as target-distributed.
    """
    vals = np.asarray(_stein_operator(target, h, dh)(e.values), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return mean, stderr


STEIN_DICTIONARY = (
    ("x", lambda y: y, lambda y: np.ones_like(y)),
    ("x^2", lambda y: y**2, lambda y: 2.0 * y),
    ("x^3", lambda y: y**3, lambda y: 3.0 * y**2),
    ("sin", np.sin, np.cos),
)


def stein_dictionary_test(e, target):
    """Run the residual over the fixed dictionary; (results, all_pass).

    results maps the function name to (mean, stderr, z); the sample passes
    when every |z| is below 5.
    """
    results = {}
    ok = True
    for name, h, dh in STEIN_DICTIONARY:
        mean, stderr = stein_residual_empirical(e, target, h, dh)
        z = abs(mean) / stderr if stderr > 0 else math.inf
        results[name] = (mean, stderr, z)
        ok = ok and z < _DICTIONARY_Z
    return results, ok
