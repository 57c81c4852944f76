"""Fourth-moment diagnostics: can a chaos sequence reach a given target law?

For F = I_n(f) with E[F^2] -> EX^2, the quantities below control convergence
toward the invariant law of a diffusion with quadratic coefficient
a(x) = alpha x^2 + beta x + gamma:

- ``moment3`` / ``moment4``: exact E[F^3], E[F^4] from contraction norms;
- ``stein_residual_l2`` / ``prop24_gap``: E[(a(F)/2 - n^{-1}||DF||^2)^2] and
  the energy gap from E[F^2] and f ~x_r f, r >= 1 (cross-checked by direct
  chaos subtraction and by the Monte Carlo ``mc_twins``);
- ``lemma_l2_combination``: the exact moment combination
  E[F^4 - (3/2) a(F) F^2] whose limit isolates the constant C0;
- ``classifier``: the sign analysis of C0 and of the discriminant of the
  quadratic root equation, which sorts coefficient triples into
  Gaussian-only, Gamma-only, outside-hypotheses and inconsistent classes;
- ``gamma_kernel_gap`` / ``lemma_l11_gap``: the exact kernel fixed-point
  identities that characterize centered-Gamma limits at even order.

``run_family_diagnostics`` evaluates all of it along a kernel family
(built-ins: the CLT family f_m = (2m)^{-1/2} sum_i e_i^{x2} and the constant
Gamma family sum_{i<k} e_i^{x2}) and reports trend ratios over m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chaos import (
    ChaosVector,
    SymmetricKernel,
    chaos_product,
    contract,  # noqa: F401  (re-exported as chaoslimits.diagnostics.contract)
    _Gather,
    _add_into,
    _block_rows,
    _check_int,
    _counts,
    _norm_sq,
    _row_sum,
    _scaled,
    _table,
    expect_product,
    iter_gaussian_chunks,
    malliavin_inner,
)

__all__ = [
    "c_n",
    "moment3",
    "moment4",
    "classifier_c0",
    "classifier_delta",
    "ec_roots",
    "ClassifierVerdict",
    "classifier",
    "stein_residual_l2",
    "stein_residual_l2_direct",
    "mc_twins",
    "prop24_gap",
    "lemma_l2_combination",
    "gamma_kernel_gap",
    "lemma_l11_gap",
    "KernelFamily",
    "gaussian_clt_family",
    "gamma_fixed_family",
    "BUILTIN_FAMILIES",
    "DiagnosticsReport",
    "run_family_diagnostics",
]

_EXCLUDED_ALPHAS = (1.0, 2.0, 2.0 / 3.0)


def c_n(n):
    """c_n = (n/2)!^3 / n!^2 for even n (c_2 = 1/4, c_4 = 1/72)."""
    if n <= 0 or n % 2:
        raise ValueError("c_n is defined for even n >= 2")
    return math.factorial(n // 2) ** 3 / math.factorial(n) ** 2


def moment3(f):
    """E[I_n(f)^3]; zero for odd n, else (n!^3 / (n/2)!^3) <f, f ~x_{n/2} f>."""
    n = f.order
    if n == 0:
        return f.entries.get((), 0.0) ** 3
    if n % 2:
        return 0.0
    return math.factorial(n) ** 3 / math.factorial(n // 2) ** 3 * f._inner_half()


def _contraction_weights(f):
    """{r: (r!)^2 C(n,r)^4 (2n-2r)! ||f ~x_r f||^2} for r = 1..n-1: w_r is the
    chaos-isometric weight of level 2n-2r of F^2 (Nourdin & Peccati 2012, ch. 5)."""
    n = f.order
    return {r: (math.factorial(r) ** 2 * math.comb(n, r) ** 4
                * math.factorial(2 * n - 2 * r) * f.self_contraction(r).norm_sq())
            for r in range(1, n)}


def _weights_sum(f, start, factor):
    """start + sum_r factor(r) w_r (``_contraction_weights``), added left to
    right, as ``sum`` added floats before Python 3.12 (``chaos._norm_sq``)."""
    for r, w in _contraction_weights(f).items():
        start += factor(r) * w
    return start


def moment4(f):
    """E[I_n(f)^4] = 3 E[F^2]^2 + sum_r 3 (r/n) w_r."""
    n = f.order
    if n == 0:
        return f.entries.get((), 0.0) ** 4
    ef2 = f.scaled_norm_sq()
    return _weights_sum(f, 3.0 * ef2 * ef2, lambda r: 3.0 * r / n)


# --- classifier --------------------------------------------------------------

def classifier_c0(alpha, beta, gamma):
    """C0 = (3/2) alpha [ -4 gamma / ((2-alpha)(2-3alpha))
                          - 3 beta^2 / ((1-alpha)(2-3alpha)) ]."""
    _guard_alpha(alpha)
    return 1.5 * alpha * (
        -4.0 * gamma / ((2.0 - alpha) * (2.0 - 3.0 * alpha))
        - 3.0 * beta**2 / ((1.0 - alpha) * (2.0 - 3.0 * alpha))
    )


def classifier_delta(alpha, beta, gamma):
    """Delta = -144 (alpha/(2-3alpha)) [beta^2/(1-alpha)^2 + 2 gamma/(2-alpha)].

    Same sign as the literal discriminant of the root equation
    (``ec_roots``) whenever gamma/(2-alpha) > 0; zero exactly at alpha = 0.
    """
    _guard_alpha(alpha)
    return -144.0 * alpha / (2.0 - 3.0 * alpha) * (
        beta**2 / (1.0 - alpha) ** 2 + 2.0 * gamma / (2.0 - alpha)
    )


def _guard_alpha(alpha):
    if alpha in _EXCLUDED_ALPHAS:
        raise ValueError(f"alpha = {alpha!r} is an excluded coefficient value")


def ec_roots(alpha, beta, gamma):
    """Real roots c of 3 b^2 c^2 - (12 b^2/(1-a)) c - (8 C0 - 12 b^2/(1-a)) = 0.

    Returns (discriminant, roots tuple); roots is empty when the discriminant
    is negative, and the equation degenerates for beta = 0.
    """
    _guard_alpha(alpha)
    if beta == 0.0:
        raise ValueError("the root equation degenerates for beta = 0")
    c0 = classifier_c0(alpha, beta, gamma)
    qa = 3.0 * beta**2
    qb = -12.0 * beta**2 / (1.0 - alpha)
    qc = -(8.0 * c0 - 12.0 * beta**2 / (1.0 - alpha))
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return disc, ()
    root = math.sqrt(disc)
    return disc, tuple(sorted(((-qb - root) / (2 * qa), (-qb + root) / (2 * qa))))


@dataclass(frozen=True)
class ClassifierVerdict:
    """Outcome of the coefficient sign analysis.

    kind is one of GaussianOnly | GammaOnly | OutsideHypotheses | Inconsistent.
    For GammaOnly, ``gamma_params`` holds the matched (lam, a).  For
    GaussianOnly, ``c0_sign_argument_applies`` records whether the positivity
    argument for C0 is actually available (it needs all even moments of the
    target finite); the C0 formula value is reported either way.
    """

    kind: str
    reason: str
    alpha: float
    beta: float
    gamma: float
    c0: float = None
    delta: float = None
    ec_discriminant: float = None
    roots: tuple = ()
    gamma_params: tuple = None
    c0_sign_argument_applies: bool = None


def classifier(alpha, beta, gamma, all_even_moments_finite=True):
    """Sort a coefficient triple into the reachable-limit classes.

    - alpha in {1, 2, 2/3}: OutsideHypotheses (excluded parameters).
    - beta = 0: GaussianOnly -- within this class only the centered normal
      (alpha = 0) can be a chaos limit.
    - beta != 0, alpha = 0: GammaOnly with lam = 2/beta, a = gamma lam^2/2.
    - beta != 0, 0 < alpha < 2/3: OutsideHypotheses (the discriminant is
      negative; the root equation has no real solution and the sign analysis
      is silent).
    - beta != 0, alpha < 0 or alpha > 2/3: Inconsistent -- the discriminant is
      nonnegative and the real-root argument forces alpha = 0, contradiction:
      no chaos sequence converges to such a target.

    A non-finite coefficient raises ValueError.
    """
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    if not all(map(math.isfinite, (alpha, beta, gamma))):
        raise ValueError(f"classifier needs finite coefficients, got alpha={alpha!r},"
                         f" beta={beta!r}, gamma={gamma!r}")
    if alpha in _EXCLUDED_ALPHAS:
        return ClassifierVerdict(
            kind="OutsideHypotheses",
            reason=f"alpha = {alpha:g} is excluded (moment formulas degenerate)",
            alpha=alpha, beta=beta, gamma=gamma,
        )
    c0 = classifier_c0(alpha, beta, gamma)
    delta = classifier_delta(alpha, beta, gamma)
    ex2 = gamma / (2.0 - alpha)
    if ex2 <= 0.0:
        return ClassifierVerdict(
            kind="Inconsistent",
            reason=f"forced EX^2 = gamma/(2-alpha) = {ex2:g} <= 0: no probability law",
            alpha=alpha, beta=beta, gamma=gamma, c0=c0, delta=delta,
        )
    if beta == 0.0:
        applies = bool(all_even_moments_finite)
        note = "" if applies else (
            " (sign argument needs all even moments finite, which this target lacks;"
            " formula value reported anyway)"
        )
        return ClassifierVerdict(
            kind="GaussianOnly",
            reason="beta = 0: only the centered normal is reachable in this class"
                   + note,
            alpha=alpha, beta=beta, gamma=gamma, c0=c0, delta=delta,
            c0_sign_argument_applies=applies,
        )
    disc, roots = ec_roots(alpha, beta, gamma)
    if alpha == 0.0:
        lam = 2.0 / beta
        a = gamma * lam * lam / 2.0
        note = "" if beta > 0 else " (beta < 0: reflected Gamma, the law of -Y)"
        return ClassifierVerdict(
            kind="GammaOnly",
            reason=f"beta != 0, alpha = 0: centered Gamma(a={a:g}, lam={lam:g})"
                   + note,
            alpha=alpha, beta=beta, gamma=gamma, c0=c0, delta=delta,
            ec_discriminant=disc, roots=roots, gamma_params=(lam, a),
        )
    if 0.0 < alpha < 2.0 / 3.0:
        return ClassifierVerdict(
            kind="OutsideHypotheses",
            reason="alpha in (0, 2/3): discriminant < 0, no real root;"
                   " the sign analysis does not apply",
            alpha=alpha, beta=beta, gamma=gamma, c0=c0, delta=delta,
            ec_discriminant=disc, roots=roots,
        )
    return ClassifierVerdict(
        kind="Inconsistent",
        reason="alpha outside [0, 2/3] with beta != 0: real roots force"
               " alpha = 0, so no chaos sequence converges to this law",
        alpha=alpha, beta=beta, gamma=gamma, c0=c0, delta=delta,
        ec_discriminant=disc, roots=roots,
    )


# --- Stein residual in L^2 ----------------------------------------------------

def _as_coeff_tuple(coeff):
    """Accept a DiffusionCoefficient or a plain (alpha, beta, gamma) triple."""
    if hasattr(coeff, "as_tuple"):
        return coeff.as_tuple()
    alpha, beta, gamma = coeff
    return float(alpha), float(beta), float(gamma)


def stein_residual_l2(f, coeff):
    """E[(a(F)/2 - n^{-1} ||DF||^2)^2] as squared norms over chaos levels.

    Level k = 2n-2r < 2n is k! ||g_k/2 - n (r-1)! C(n-1,r-1)^2 f ~x_r f||^2 with
    g_k = alpha r! C(n,r)^2 f ~x_r f (+ beta f at k = n, + gamma at k = 0); odd n
    adds n! ||beta f||^2 / 4, and level 2n alpha^2/4 (2n)! ||f ~x_0 f||^2 =
    alpha^2/4 (2 E[F^2]^2 + sum (3r/n - 1) w_r).  Unlike the moment form, the
    sum cannot cancel below zero.  Each level takes the kernel operators'
    steps on entry dicts (``chaos._scaled``, ``chaos._add_into``) around the
    memoized f ~x_r f, so it has the bits of the kernel-operator form.  A
    level whose g is empty (alpha = 0, outside levels 0 and n) is the norm
    of -c f ~x_r f alone, with c fixed by (n, r) and not by the target, so
    it is read from the contraction's memo (``_norm_at``; see the README's
    design notes), as is the odd level's ||beta f||^2."""
    alpha, beta, gamma = _as_coeff_tuple(coeff)
    n = f.order
    if n == 0:
        raise ValueError("needs a kernel of order >= 1")
    total = 0.0
    for k in range(2 * n):
        if k % 2 == 0:
            r = n - k // 2
            s = f.self_contraction(r)
            g = {(): gamma} if k == 0 and gamma else {}
            if k == n and beta:
                _add_into(g, f.entries, beta)
            if alpha:
                _add_into(g, _scaled(s.entries, math.factorial(r) * math.comb(n, r) ** 2),
                          alpha)
            # 0.5 g - c s, with (-c) v the bits of -(c v)
            c = float(-n * math.factorial(r - 1) * math.comb(n - 1, r - 1) ** 2)
            level = (_norm_sq(_add_into(_scaled(g, 0.5), s.entries, c)) if g
                     else s._norm_at(c))
            total += math.factorial(k) * level
        elif k == n and beta:
            total += 0.25 * math.factorial(n) * f._norm_at(beta)
    if alpha:
        ef2 = f.scaled_norm_sq()
        total += 0.25 * alpha**2 * _weights_sum(f, 2.0 * ef2 * ef2,
                                                lambda r: 3.0 * r / n - 1.0)
    return total


def stein_residual_l2_direct(f, coeff):
    """Same quantity by direct chaos subtraction: R = a(F)/2 - n^{-1}<DF, DF>,
    with F^2 from the product formula, then E[R^2] by the isometry."""
    alpha, beta, gamma = _as_coeff_tuple(coeff)
    F = ChaosVector.from_kernel(f)
    aF = ChaosVector.constant(f.dim, gamma) + beta * F + alpha * chaos_product(F, F)
    R = 0.5 * aF - (1.0 / f.order) * malliavin_inner(f, f)
    return expect_product(R, R)


class _PathwiseParts:
    """x -> (a(F)(x)/2, n^{-1}||DF||^2(x)) on one block of points.

    F is a ``_Gather`` plan over f's entries.  ||DF||^2 = n^2 sum_i
    I_{n-1}(f(., i))^2 reads a second plan: one row per entry and distinct
    coordinate i of it (the slice f(., i) at the entry minus one i), built in
    O(nnz n) without forming the slices.  Its rows are grouped by rank within
    their slice, so each slice adds its terms in entry order, one rank at a
    time, and the squares are added in slice order: the same bits as
    evaluating ``derivative_slices`` one by one.  Both plans share one
    Hermite table per block, and ``rows`` keeps the block's arrays within the
    element budget of ``chaos._block_rows``.
    """

    def __init__(self, f, coeff):
        n = self.n = f.order
        if n == 0:
            raise ValueError("needs a kernel of order >= 1")
        self.coeff = _as_coeff_tuple(coeff)
        self.F = _Gather.of(f.entries.items(), f.dim)
        slices = {}
        for idx, v in f.entries.items():
            for i in _counts(idx):
                pos = idx.index(i)
                slices.setdefault(i, []).append((idx[:pos] + idx[pos + 1:], v))
        by_rank = {}  # rank r -> [(slice position, its r-th term)], ranks ascending
        for s, i in enumerate(sorted(slices)):
            for rank, term in enumerate(slices[i]):
                by_rank.setdefault(rank, []).append((s, term))
        self.slices = len(slices)
        self.DF = _Gather.of([t for group in by_rank.values() for _, t in group], f.dim)
        self.ranks, lo = [], 0
        for rank, group in by_rank.items():
            ids = np.array([s for s, _ in group], dtype=np.intp) if rank else slice(None)
            self.ranks.append((slice(lo, lo + len(group)), ids))
            lo += len(group)
        self.rows = _block_rows((n + 1) * f.dim, len(self.F.coef), len(self.DF.coef))

    def __call__(self, x):
        n = self.n
        alpha, beta, gamma = self.coeff
        table = _table(n, x)
        v = _row_sum(self.F.terms(table))
        aval = alpha * v * v + beta * v + gamma
        terms = self.DF.terms(table)
        sv = np.zeros((self.slices, x.shape[0]))
        for rows, ids in self.ranks:
            sv[ids] += terms[rows]
        df2 = _row_sum(sv * sv)
        df2 *= n * n
        return 0.5 * aval, df2 / n


def _mean_stderr(values):
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def mc_twins(f, coeff, samples, seed):
    """Monte Carlo twins of ``stein_residual_l2``, ``prop24_gap`` and the L^1
    discrepancy E|a(F)/2 - n^{-1}||DF||^2| (reported as-is, no constant
    asserted) from ``samples`` Gaussian points: three (value, stderr) pairs,
    the gap's stderr being that of the difference.

    The points are those of ``sample_gaussian(f.dim, samples, seed)``, drawn
    and evaluated in row blocks under a fixed element budget, so memory stays
    bounded in dim and samples: only a(F)/2 and n^{-1}||DF||^2 are kept per
    point.  ``samples`` must be an integer >= 2 (a stderr needs two draws).
    """
    samples = _check_int("samples", samples, 2)
    parts = _PathwiseParts(f, coeff)
    half_a, k = np.empty(samples), np.empty(samples)
    lo = 0
    for x in iter_gaussian_chunks(f.dim, samples, seed, parts.rows):
        hi = lo + x.shape[0]
        half_a[lo:hi], k[lo:hi] = parts(x)
        lo = hi
    gap, gap_stderr = _mean_stderr(half_a**2 - k**2)
    return (
        _mean_stderr((half_a - k) ** 2),
        (abs(gap), gap_stderr),
        _mean_stderr(np.abs(half_a - k)),
    )


def prop24_gap(f, coeff):
    """|(1/4) E[a(F)^2] - E[Gamma^2]|, Gamma = n^{-1}||DF||^2, from moments:
    E[Gamma^2] = E[F^2]^2 + Var Gamma with Var Gamma = sum (r/n)^2 w_r."""
    alpha, beta, gamma = _as_coeff_tuple(coeff)
    n, ef2 = f.order, f.scaled_norm_sq()
    ea2 = (alpha * alpha * moment4(f) + 2.0 * alpha * beta * moment3(f)
           + (beta * beta + 2.0 * alpha * gamma) * ef2 + gamma * gamma)
    return abs(0.25 * ea2 - _weights_sum(f, ef2 * ef2, lambda r: (r / n) ** 2))


def lemma_l2_combination(f, coeff):
    """E[F^4 - (3/2) a(F) F^2], exact: vanishes at the Gamma fixed point."""
    alpha, beta, gamma = _as_coeff_tuple(coeff)
    return ((1.0 - 1.5 * alpha) * moment4(f) - 1.5 * beta * moment3(f)
            - 1.5 * gamma * f.scaled_norm_sq())


def gamma_kernel_gap(f, lam):
    """|| (2/lam) c_n f - f ~x_{n/2} f ||: zero iff f is a Gamma fixed point."""
    n = f.order
    g = _add_into(_scaled(f.entries, (2.0 / lam) * c_n(n)),
                  f.self_contraction(n // 2).entries, -1.0)
    return math.sqrt(_norm_sq(g))


def lemma_l11_gap(f, coeff):
    """|<f, f ~x_{n/2} f> - (beta/(1-alpha)) c_n ||f||^2| for even order."""
    alpha, beta, _ = _as_coeff_tuple(coeff)
    if alpha == 1.0:
        raise ValueError("alpha = 1 is excluded")
    return abs(f._inner_half() - beta / (1.0 - alpha) * c_n(f.order) * f.norm_sq())


# --- kernel families and the report -------------------------------------------

@dataclass(frozen=True)
class KernelFamily:
    """A sequence of kernels indexed by an integer m >= 1, all of one fixed order."""

    name: str
    order: int
    member: object = field(repr=False)

    def __call__(self, m):
        k = self.member(_check_int("m", m, 1))
        if k.order != self.order:
            raise ValueError("family produced a kernel of the wrong order")
        return k


def gaussian_clt_family():
    """f_m = (2m)^{-1/2} sum_{i<m} e_i^{x2}: E[F_m^2] = 1, fourth moment 3 + 12/m."""
    def member(m):
        entries = {(i, i): 1.0 / math.sqrt(2.0 * m) for i in range(m)}
        return SymmetricKernel._trusted(m, 2, entries)

    return KernelFamily("gaussian_clt", 2, member)


def gamma_fixed_family(k=1):
    """f = sum_{i<k} e_i^{x2}, constant in m: F ~ centered Gamma(k/2, 1/2),
    for an integer k >= 1.  The kernel is built once, with the family, and
    is the member at every m, so its memos serve the whole sweep."""
    k = _check_int("k", k, 1)
    f = SymmetricKernel._trusted(k, 2, {(i, i): 1.0 for i in range(k)})
    return KernelFamily("gamma_fixed", 2, lambda m: f)


BUILTIN_FAMILIES = {
    "gaussian_clt": gaussian_clt_family,
    "gamma_fixed": gamma_fixed_family,
}


@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything ``run_family_diagnostics`` measured, plus trend ratios."""

    family: str
    order: int
    target_name: str
    target_params: dict
    coeff: tuple
    members: list
    verdict: ClassifierVerdict
    trends: dict


def _ratio_trend(values):
    out = []
    for a, b in zip(values, values[1:]):
        out.append(float("nan") if b == 0.0 else a / b)
    return out


def run_family_diagnostics(family, ms, target, mc_samples=0, seed=None):
    """Evaluate the full diagnostic battery for family members m in ms.

    ``target`` must carry a polynomial coefficient.  ``mc_samples`` is 0 or an
    integer >= 2 (a stderr needs two draws); when it is not 0 an integer seed is
    required and every chaos-route quantity gains a Monte Carlo twin (value,
    stderr) from ``mc_twins``.
    """
    coeff = target.coeff
    try:
        alpha, beta, gamma = coeff.as_tuple()
    except ValueError:
        raise ValueError(
            "family diagnostics need a target with a polynomial diffusion"
            " coefficient"
        ) from None
    if mc_samples:
        if _check_int("mc_samples", mc_samples) < 2:
            raise ValueError("mc_samples must be 0 or >= 2 (a stderr needs two draws),"
                             f" got {mc_samples!r}")
        seed = _check_int("seed", seed)
    lam_match = None
    if target.name == "gamma":
        lam_match = target.params["lam"]
    elif beta != 0.0:
        lam_match = 2.0 / beta  # the only rate a Gamma limit could have
    members = []
    for j, m in enumerate(ms):
        f = family(m)
        n = f.order
        ef2, ef3, ef4 = f.scaled_norm_sq(), moment3(f), moment4(f)
        rec = {
            "m": int(m),
            "dim": f.dim,
            "ef2": ef2,
            "ef3": ef3,
            "ef4": ef4,
            "contraction_norms": {
                p: math.sqrt(f.self_contraction(p).norm_sq()) for p in range(1, n)
            },
            "stein_residual_l2_chaos": stein_residual_l2(f, coeff),
            "prop24_gap_chaos": prop24_gap(f, coeff),
            "lemma_l2_combination": lemma_l2_combination(f, coeff),
        }
        if n % 2 == 0:
            if lam_match is not None:
                rec["gamma_kernel_gap"] = gamma_kernel_gap(f, lam_match)
            if alpha != 1.0:
                rec["lemma_l11_gap"] = lemma_l11_gap(f, coeff)
        if mc_samples:
            sub = seed + 1000003 * j
            (rec["stein_residual_l2_mc"], rec["prop24_gap_mc"],
             rec["stein_discrepancy_l1"]) = mc_twins(f, coeff, mc_samples, sub)
        members.append(rec)
    verdict = classifier(
        alpha, beta, gamma,
        all_even_moments_finite=not math.isfinite(target.moment_bound),
    )
    trends = {}
    if len(members) >= 2:
        for key in ("stein_residual_l2_chaos", "prop24_gap_chaos"):
            trends[key] = _ratio_trend([r[key] for r in members])
        trends["ef4_excess"] = _ratio_trend(
            [r["ef4"] - 3.0 * r["ef2"] ** 2 for r in members]
        )
        trends["contraction_norm_sq_p1"] = _ratio_trend(
            [r["contraction_norms"][1] ** 2 for r in members]
        ) if family.order >= 2 else []
    return DiagnosticsReport(
        family=family.name,
        order=family.order,
        target_name=target.name,
        target_params=dict(target.params),
        coeff=(alpha, beta, gamma),
        members=members,
        verdict=verdict,
        trends=trends,
    )
