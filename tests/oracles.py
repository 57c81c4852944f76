"""Independent reference implementations used to cross-check the package.

Everything here works on dense ndarrays, brute-force enumeration, adaptive
quadrature or closed forms, sharing no code with the sparse orbit
representation or the Gauss-Legendre grid table under test.  Three exceptions:
``eval_integral_ref`` reads the package's Hermite table; one section holds
the Stein residual and the energy gap in full chaos arithmetic (a(F)
expanded with the product formula), the references for the scalar routes in
``chaoslimits.diagnostics``, and the kernel-operator forms of the residual
and the Gamma kernel gap that their entry-dict routes must match bit for bit;
and the last section holds the product formula and <DF, DG> as sums of
kernels, which the package's in-place level sums must match entry for entry.
"""
import collections
import itertools
import math

import numpy as np
from scipy import integrate

from chaoslimits.chaos import (
    ChaosVector,
    SymmetricKernel,
    _hermite_monic_table,
    chaos_product,
    contract,
    expect_product,
    malliavin_inner,
)
from chaoslimits.diagnostics import _contraction_weights, c_n


def raw_to_dense(raw, dim, order):
    """Dense tensor from a {index tuple: value} mapping (not orbit-expanded)."""
    T = np.zeros((dim,) * order)
    for idx, v in raw.items():
        T[tuple(idx)] += v
    return T


def dense(kernel):
    """Dense tensor of a SymmetricKernel: each entry at every rearrangement
    of its index."""
    raw = {perm: v for idx, v in kernel.entries.items()
           for perm in set(itertools.permutations(idx))}
    return raw_to_dense(raw, kernel.dim, kernel.order)


def dense_sym(T):
    """Symmetrization: average over all axis permutations."""
    n = T.ndim
    S = np.zeros_like(T)
    for perm in itertools.permutations(range(n)):
        S += np.transpose(T, perm)
    return S / math.factorial(n)


def dense_contract(A, B, r):
    """Contraction of the last r axes of A against the last r of B."""
    if r == 0:
        return np.multiply.outer(A, B)
    axes = (list(range(A.ndim - r, A.ndim)), list(range(B.ndim - r, B.ndim)))
    return np.tensordot(A, B, axes=axes)


def dense_block(bk):
    """Dense tensor of a BlockKernel (symmetric in each argument group)."""
    T = np.zeros((bk.dim,) * (bk.left_order + bk.right_order))
    for (a, b), v in bk.blocks.items():
        for pa in set(itertools.permutations(a)):
            for pb in set(itertools.permutations(b)):
                T[pa + pb] = v
    return T


def multiplicity_ref(idx):
    """Orbit size by brute force: number of distinct rearrangements."""
    return len(set(itertools.permutations(idx)))


def gauss_hermite_expectation(fn, dim, degree=9):
    """E[fn(X)] for X ~ N(0, I_dim), exact for polynomials of degree < 2*degree.

    ``fn`` maps an (N, dim) array to (N,) values.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(degree)
    weights = weights / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([weights] * dim), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    return float(np.sum(w * fn(pts)))


# He_n(x)/n! coefficient rows (ascending powers), frozen from the
# probabilists' Hermite triangle
HERMITE_COEFFS = {
    0: [1.0],
    1: [0.0, 1.0],
    2: [-1 / 2, 0.0, 1 / 2],
    3: [0.0, -1 / 2, 0.0, 1 / 6],
    4: [1 / 8, 0.0, -1 / 4, 0.0, 1 / 24],
    5: [0.0, 1 / 8, 0.0, -1 / 12, 0.0, 1 / 120],
    6: [-1 / 48, 0.0, 1 / 16, 0.0, -1 / 48, 0.0, 1 / 720],
}


def hermite_ref(n, x):
    """Normalized Hermite polynomial from the frozen coefficient table."""
    return np.polynomial.polynomial.polyval(x, HERMITE_COEFFS[n])


def eval_integral_ref(F, x):
    """I(F) at the (N, dim) points x, one entry at a time.

    F is a SymmetricKernel or a ChaosVector.  Each entry's term
    v mult(idx) prod_i He_{k_i}(x_i) is multiplied up in ascending i and added
    to a running total from zero, level by level in ascending order: the
    per-entry loop that the gathered evaluator replaced.  He_k is read from
    the package's monic table, so this checks the gather, not the Hermite
    recurrence (``hermite_ref`` checks that).
    """
    levels = F.components if isinstance(F, ChaosVector) else {F.order: F}
    he = _hermite_monic_table(max(levels, default=0), x)
    total = np.zeros(x.shape[0])
    for _, kern in sorted(levels.items()):
        for idx, v in kern.entries.items():
            term = np.full(x.shape[0], v * multiplicity_ref(idx))
            for i, k in sorted(collections.Counter(idx).items()):
                term = term * he[k][:, i]
            total += term
    return total


def naive_contract(f, g, r):
    """Blocks of f (x)_r g by visiting every pair of entries.

    For each pair (a, b) of sorted indices and each multiset s of size r
    contained in both, adds f[a] g[b] r!/prod(counts of s)! to the block
    (a - s, b - s).  Pairs are taken in (f entry, g entry) order and, within
    a pair, s in increasing order of its count vector.
    """
    blocks = {}
    for a, va in f.entries.items():
        ca = collections.Counter(a)
        for b, vb in g.entries.items():
            cb = collections.Counter(b)
            common = sorted(set(ca) & set(cb))
            caps = [range(min(ca[i], cb[i]) + 1) for i in common]
            for takes in itertools.product(*caps):
                if sum(takes) != r:
                    continue
                arrangements = math.factorial(r)
                for t in takes:
                    arrangements //= math.factorial(t)
                ra, rb = collections.Counter(ca), collections.Counter(cb)
                for i, t in zip(common, takes):
                    ra[i] -= t
                    rb[i] -= t
                key = (tuple(sorted(ra.elements())), tuple(sorted(rb.elements())))
                blocks[key] = blocks.get(key, 0.0) + va * vb * arrangements
    return blocks


def naive_em(target, cfg):
    """Reference Euler-Maruyama chain: the kept draws in chain order.

    Calls ``target.coeff(x)`` and ``target.drift(x)`` generically at every
    step, on the start point (the median), noise stream, clamping and
    thinning of ``simulate``.  The chain is clamped into the support inset at
    each finite end by 1e-8 of its length, or of max(1, |end|) when the other
    end is infinite.
    """
    from chaoslimits.chaos import iter_gaussian_chunks

    l, u = target.support
    unit = u - l if math.isfinite(u - l) else None
    lo = l + 1e-8 * (unit or max(1.0, abs(l))) if math.isfinite(l) else -math.inf
    hi = u - 1e-8 * (unit or max(1.0, abs(u))) if math.isfinite(u) else math.inf
    x = min(max(float(target.ppf(0.5)), lo), hi)
    total = cfg.burn_in + cfg.samples * cfg.thinning
    noise = np.concatenate(list(iter_gaussian_chunks(1, total, cfg.seed)))
    kept = []
    for step, z in enumerate(noise.ravel().tolist(), start=1):
        a = float(target.coeff(x))
        b = float(target.drift(x))
        x = x + b * cfg.dt + math.sqrt(a) * math.sqrt(cfg.dt) * z
        x = min(max(x, lo), hi)
        if step > cfg.burn_in and (step - cfg.burn_in) % cfg.thinning == 0:
            kept.append(x)
    return np.array(kept)


def load_samples(path):
    """Read a sample dump of ``save_samples`` back: (values array, header dict)."""
    header = {}
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
            else:
                values.append(float(line))
    return np.asarray(values), header


def _quad_between_knots(fn, lo, hi, knots):
    """int_lo^hi fn by adaptive quad at the package's tolerances, broken at
    the grid knots inside (lo, hi) so that each piece is smooth."""
    inner = [k for k in knots if lo < k < hi]
    return integrate.quad(fn, lo, hi, points=inner or None,
                          epsabs=1e-10, epsrel=1e-8, limit=400)[0]


def quad_mass(density, knots):
    """int p over the span of a tabulated density."""
    return _quad_between_knots(density, knots[0], knots[-1], knots)


def quad_mean(density, knots):
    """int y p(y) dy over the span of a tabulated density."""
    return _quad_between_knots(lambda y: y * density(y), knots[0], knots[-1], knots)


def quad_cdf(density, knots, x):
    """int_lo^x p."""
    return _quad_between_knots(density, knots[0], x, knots)


def quad_coeff(density, knots, mean, x):
    """a(x) = 2 int_lo^x (mean - y) p(y) dy / p(x), from the nearer tail
    (the lower one up to the mean)."""
    bp = lambda y: (mean - y) * density(y)
    if x <= mean:
        num = _quad_between_knots(bp, knots[0], x, knots)
    else:
        num = -_quad_between_knots(bp, x, knots[-1], knots)
    return 2.0 * num / density(x)


# --- closed-form Malliavin brackets of exactly solvable functionals ----------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(200)
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS


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


# --- Stein residual and energy gap in full chaos arithmetic -----------------

def a_of_F(f, coeff):
    """Chaos expansion of a(F) = alpha F^2 + beta F + gamma for F = I_n(f)."""
    alpha, beta, gamma = (float(c) for c in coeff)
    F = ChaosVector.from_kernel(f)
    out = ChaosVector.constant(f.dim, gamma)
    if beta:
        out = out + beta * F
    if alpha:
        out = out + alpha * chaos_product(F, F)
    return out


def level_residual(f, coeff):
    """E[(a(F)/2 - n^{-1}||DF||^2)^2] by the level decomposition of a(F).

    The even levels k <= 2n-2 carry the cancellation against
    n (n-1-k/2)! C(n-1,k/2)^2 f ~x_{n-k/2} f; every other level contributes
    (1/4) E[I_k(g_k)^2].
    """
    aF = a_of_F(f, coeff)
    n = f.order
    total = 0.0
    for k in sorted(set(aF.components) | set(range(0, 2 * n - 1, 2))):
        gk = aF.level(k)
        if k % 2 == 0 and k <= 2 * n - 2:
            coefficient = (
                n * math.factorial(n - 1 - k // 2) * math.comb(n - 1, k // 2) ** 2
            )
            bracket = 0.5 * gk - coefficient * f.self_contraction(n - k // 2)
            total += math.factorial(k) * bracket.norm_sq()
        else:
            total += 0.25 * math.factorial(k) * gk.norm_sq()
    return total


def operator_residual(f, coeff):
    """The exact Stein residual's level sum with kernel operators: each even
    level k < 2n is k! ||0.5 g_k - coefficient f ~x_r f||^2 on
    ``SymmetricKernel`` objects, as ``stein_residual_l2`` formed it before its
    one-pass levels; the odd level n and the top level as there.  The one-pass
    route must give these bits."""
    alpha, beta, gamma = (float(c) for c in coeff)
    n = f.order
    total = 0.0
    for k in range(2 * n):
        if k % 2 == 0:
            r = n - k // 2
            s = f.self_contraction(r)
            g = SymmetricKernel(f.dim, k, {(): gamma} if k == 0 else {})
            if k == n and beta:
                g = g + beta * f
            if alpha:
                g = g + alpha * (math.factorial(r) * math.comb(n, r) ** 2 * s)
            coefficient = n * math.factorial(r - 1) * math.comb(n - 1, r - 1) ** 2
            total += math.factorial(k) * (0.5 * g - coefficient * s).norm_sq()
        elif k == n and beta:
            total += 0.25 * math.factorial(n) * (beta * f).norm_sq()
    if alpha:
        ef2 = f.scaled_norm_sq()
        top = 2.0 * ef2 * ef2  # left to right: from 3.12, ``sum`` is compensated
        for r, w in _contraction_weights(f).items():
            top += (3.0 * r / n - 1.0) * w
        total += 0.25 * alpha**2 * top
    return total


def operator_gamma_gap(f, lam):
    """|| (2/lam) c_n f - f ~x_{n/2} f || with kernel operators, as
    ``gamma_kernel_gap`` formed it before its one pass."""
    n = f.order
    return math.sqrt(((2.0 / lam) * c_n(n) * f - f.self_contraction(n // 2)).norm_sq())


def chaos_prop24_gap(f, coeff):
    """|(1/4) E[a(F)^2] - n^{-2} E[||DF||^4]| with both sides as chaos vectors."""
    aF = a_of_F(f, coeff)
    m = malliavin_inner(f, f)
    return abs(0.25 * expect_product(aF, aF) - expect_product(m, m) / f.order**2)


# --- the product formula and <DF, DG> with kernel operators ------------------

def _operator_levels(F, G, first, coefficient):
    """sum over level pairs (n, m) and r >= first of coefficient(n, m, r)
    (f_n ~x_r g_m) at level n + m - 2r, each term a ``SymmetricKernel``
    scaled with ``*`` and added to its level with ``+``."""
    F, G = (ChaosVector.from_kernel(V) if isinstance(V, SymmetricKernel) else V
            for V in (F, G))
    out = {}
    for n, fn in F.components.items():
        for m, gm in G.components.items():
            for r in range(first, min(n, m) + 1):
                s = fn.self_contraction(r) if fn is gm else contract(fn, gm, r).symmetrized()
                h = coefficient(n, m, r) * s
                lvl = n + m - 2 * r
                out[lvl] = out[lvl] + h if lvl in out else h
    return ChaosVector(F.dim, out)


def operator_product(F, G):
    """``chaos_product`` with kernel operators: the term r! C(n,r) C(m,r)
    (f ~x_r g) of each level pair added to its level as a kernel."""
    return _operator_levels(
        F, G, 0, lambda n, m, r: math.factorial(r) * math.comb(n, r) * math.comb(m, r))


def operator_malliavin_inner(F, G):
    """``malliavin_inner`` with kernel operators, in the coefficients of the
    slice expansion: n m (r-1)! C(n-1,r-1) C(m-1,r-1) (f ~x_r g), r >= 1."""
    return _operator_levels(
        F, G, 1, lambda n, m, r: (n * m * math.factorial(r - 1)
                                  * math.comb(n - 1, r - 1) * math.comb(m - 1, r - 1)))
