"""Independent reference implementations used to cross-check the package.

Everything here works on dense ndarrays or brute-force enumeration, sharing
no code with the sparse orbit representation under test.
"""
import collections
import itertools
import math

import numpy as np


def raw_to_dense(raw, dim, order):
    """Dense tensor from a {index tuple: value} mapping (not orbit-expanded)."""
    T = np.zeros((dim,) * order)
    for idx, v in raw.items():
        T[tuple(idx)] += v
    return T


def dense(kernel):
    """Dense tensor of a SymmetricKernel via its raw (orbit-expanded) form."""
    return raw_to_dense(kernel.to_raw(), kernel.dim, kernel.order)


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
    step, on the noise stream, clamping and thinning of ``simulate``.
    """
    from chaoslimits.chaos import iter_gaussian_chunks

    l, u = target.support
    eps = cfg.boundary_epsilon
    lo = l + eps if math.isfinite(l) else -math.inf
    hi = u - eps if math.isfinite(u) else math.inf
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
