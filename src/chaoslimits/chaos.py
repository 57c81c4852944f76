"""Finite-dimensional Wiener chaos: sparse symmetric kernels and their calculus.

The underlying Hilbert space is H = R^d with the standard basis e_0..e_{d-1},
carried by a Gaussian vector X = (X_0, ..., X_{d-1}) of i.i.d. standard normals
(the isonormal process restricted to d coordinates).  A symmetric kernel of
order n is an element of the symmetric tensor power H^{sym n}; we store it
sparsely as a map from the *sorted* multi-index (i_1 <= ... <= i_n) to the
common value on that orbit.  The squared norm in H^{tensor n} is then

    ||f||^2 = sum_idx  mult(idx) * f[idx]^2,

where mult(idx) = n! / prod_i (count of i in idx)! is the orbit size.

Hermite polynomials here carry the 1/n! normalization

    H_n(x) = ((-1)^n / n!) e^{x^2/2} (d/dx)^n e^{-x^2/2},

so that n! * H_n is the monic (probabilists') polynomial He_n and the multiple
integral of a basis product evaluates pathwise as

    I_n(sym(e_{j_1} x ... x e_{j_n}))(X) = prod_i He_{k_i}(X_i),

k_i being the number of times coordinate i appears among j_1..j_n.  Everything
else in the module (contractions, the product formula, Malliavin inner
products, the Wick moment oracle) is exact rational-coefficient arithmetic on
these sparse maps, done in floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "hermite",
    "multiplicity",
    "SymmetricKernel",
    "BlockKernel",
    "ChaosVector",
    "symmetrize",
    "contract",
    "chaos_product",
    "eval_multiple_integral",
    "malliavin_inner",
    "derivative_slices",
    "ou_inverse",
    "wick_moment",
    "expect_product",
    "sample_gaussian",
    "iter_gaussian_chunks",
    "random_kernel",
]


def hermite(n, x):
    """Hermite polynomial H_n(x) = He_n(x) / n!, leading coefficient 1/n!.

    Read off the monic table ``_hermite_monic_table`` (He_{k+1} = x He_k -
    k He_{k-1}) and divided by n!, so H_0 = 1, H_1 = x and (n+1) H_{n+1}(x)
    = x H_n(x) - H_{n-1}(x) hold to rounding.  n! must be a float (n <= 170),
    and H_n is inf where He_n(x) overflows.  Accepts scalars or arrays.
    """
    if not 0 <= n <= 170:
        raise ValueError("hermite order must be in 0..170 (n! must be a float)")
    h = _hermite_monic_table(n, x)[n] / math.factorial(n)
    return h if h.ndim else float(h)


def _hermite_monic_table(max_order, x):
    """He_k(x) = k! H_k(x) for k = 0..max_order, stacked along axis 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_order + 1,) + x.shape)
    out[0] = 1.0
    if max_order >= 1:
        out[1] = x
    for k in range(1, max_order):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


@functools.cache
def multiplicity(idx):
    """Orbit size of a multi-index: n! / prod(count of each value)!.
    Cached process-wide, so the index must be a tuple."""
    m = math.factorial(len(idx))
    for _, grp in itertools.groupby(idx):
        m //= math.factorial(sum(1 for _ in grp))
    return m


def _counts(idx):
    out = {}
    for i in idx:
        out[i] = out.get(i, 0) + 1
    return out


def _check_index(idx, order, dim):
    if len(idx) != order:
        raise ValueError(f"index {idx!r} has length {len(idx)}, expected {order}")
    if any(map(operator.gt, idx, idx[1:])):
        raise ValueError(f"index {idx!r} is not sorted")
    if idx and (idx[0] < 0 or idx[-1] >= dim):
        raise ValueError(f"index {idx!r} out of range for dim {dim}")


# --- entry-dict arithmetic ------------------------------------------------
# A kernel's entries map sorted indices to nonzero floats.  These three steps
# are the kernel operators on such dicts: each gives the values, and the entry
# order, of the operator it stands for, with no kernel built in between.

def _scaled(entries, c):
    """The entries of c f without its exact zeros, as ``c * f`` gives them."""
    c = float(c)
    return {idx: w for idx, v in entries.items() if (w := c * v) != 0.0}


def _add_into(acc, entries, c):
    """acc += c f in place, with the values and entry order of ``acc + c * f``
    on kernels: a term c v that is an exact zero is skipped, and a sum that
    is an exact zero (cancellation, underflow) is removed at once."""
    c = float(c)
    for idx, v in entries.items():
        if (w := c * v) != 0.0:
            if (s := acc.get(idx, 0.0) + w) != 0.0:
                acc[idx] = s
            else:
                del acc[idx]
    return acc


def _norm_sq(entries, c=1.0):
    """||c f||^2 = sum of mult(idx) (c v)^2 over the entries, a term whose c v
    is an exact zero skipped: ``_norm_sq(_scaled(f, c))`` with no dict built.
    Summed left to right from 0, as ``sum`` adds floats before Python 3.12
    (whose ``sum`` is compensated), so every version gives the same bits."""
    total = 0
    for idx, v in entries.items():
        if (w := c * v) != 0.0:
            total += multiplicity(idx) * w * w
    return total


@dataclass(frozen=True)
class SymmetricKernel:
    """Sparse symmetric tensor of given order over R^dim.

    ``entries`` maps each canonical (sorted) multi-index to the common value
    of the tensor on that orbit; indices missing from the map are zero.
    Treat instances as immutable: all operations return new kernels, and
    four memos assume that ``entries`` is never mutated: ``_norm_at`` keeps
    ||c f||^2 for each finite scale c (``norm_sq`` is c = 1, which
    ``f.inner(f)`` returns), ``self_contraction`` keeps each f ~x_p f,
    ``_inner_half`` keeps <f, f ~x_{n/2} f>, and once f is multiplied by
    itself, ``_squares`` keeps F F and <DF, DF> for F = I_n(f).  The memos
    are not dataclass fields, so ``==`` and ``repr`` do not see them.  The
    exact diagnostics read them, and a Stein level that holds only
    c f ~x_r f is the memoized norm of the memoized contraction at scale c.
    """

    dim: int
    order: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        dim, order = _check_int("dim", self.dim), _check_int("order", self.order)
        clean = {}
        for idx, val in self.entries.items():
            if type(idx) is not tuple or not all(type(i) is int for i in idx):
                idx = tuple(_check_int("index", i) for i in idx)
            _check_index(idx, order, dim)
            val = float(val)
            if val != 0.0:
                clean[idx] = val
        self._start_memos(dim, order, clean)

    def _start_memos(self, dim, order, entries):
        vars(self).update(dim=dim, order=order, entries=entries, _norms={},
                          _self_contractions={}, _half=None, _squares=None)

    @classmethod
    def _trusted(cls, dim, order, entries):
        """Kernel holding ``entries`` itself, with no check and no copy: a
        fresh dict the library made, canonical sorted int tuples in range
        mapped to nonzero floats, as ``_scaled`` and ``_add_into`` leave one."""
        k = object.__new__(cls)
        k._start_memos(dim, order, entries)
        return k

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero(dim, order):
        return SymmetricKernel(dim, order, {})

    @staticmethod
    def constant(dim, value):
        """Order-0 kernel holding a scalar."""
        return SymmetricKernel(dim, 0, {(): float(value)})

    # --- linear structure ----------------------------------------------
    def _like(self, entries):
        return SymmetricKernel._trusted(self.dim, self.order, entries)

    def __add__(self, other):
        if (other.dim, other.order) != (self.dim, self.order):
            raise ValueError("kernel shapes differ")
        out = dict(self.entries)
        _add_into(out, other.entries, 1.0)
        return self._like(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        return self._like(_scaled(self.entries, c))

    def __mul__(self, c):
        return self.__rmul__(c)

    # --- metric ----------------------------------------------------------
    def norm_sq(self):
        """||f||^2, summed on first use and kept on this kernel."""
        return self._norm_at(1.0)

    def _norm_at(self, c):
        """||c f||^2 as ``_norm_sq(entries, c)`` sums it, kept on this kernel
        for a finite c (a nan key never hits, so it is summed each time)."""
        norms = self._norms
        if c in norms:
            return norms[c]
        total = _norm_sq(self.entries, c)
        if math.isfinite(c):
            norms[c] = total
        return total

    def inner(self, other):
        """<f, g> in H^{tensor n} (both kernels symmetric), summed left to
        right from 0 as in ``_norm_sq``; <f, f> is the memoized ``norm_sq``,
        whose terms mult v v are the same."""
        if other is self:
            return self.norm_sq()
        if (other.dim, other.order) != (self.dim, self.order):
            raise ValueError("kernel shapes differ")
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        total = 0
        for idx, v in a.items():
            if idx in b:
                total += multiplicity(idx) * v * b[idx]
        return total

    def _inner_half(self):
        """<f, f ~x_{n/2} f>, summed on first use and kept on this kernel."""
        if self._half is None:
            object.__setattr__(
                self, "_half", self.inner(self.self_contraction(self.order // 2)))
        return self._half

    # --- structural helpers ----------------------------------------------
    def slice_kernel(self, i):
        """f(., i): fix one argument to basis coordinate i; order drops by 1."""
        if self.order == 0:
            raise ValueError("cannot slice an order-0 kernel")
        out = {}
        for idx, v in self.entries.items():
            if i in idx:
                pos = idx.index(i)
                out[idx[:pos] + idx[pos + 1:]] = v
        return SymmetricKernel._trusted(self.dim, self.order - 1, out)

    def scaled_norm_sq(self):
        """n! ||f||^2 = E[I_n(f)^2], the chaos-isometric squared norm."""
        return math.factorial(self.order) * self.norm_sq()

    def self_contraction(self, p):
        """f ~x_p f, computed on first use and kept on this kernel."""
        memo = self._self_contractions
        if p not in memo:
            memo[p] = contract(self, self, p).symmetrized()
        return memo[p]


def symmetrize(raw, dim, order):
    """Symmetrize a raw tensor given as {multi-index tuple: value}.

    The raw map is read literally: index tuples not present are zero (the
    orbit of a listed tuple is *not* implied).
    """
    out = {}
    for idx, v in raw.items():
        idx = tuple(_check_int("index", i) for i in idx)
        if len(idx) != order:
            raise ValueError(f"raw index {idx!r} has wrong length")
        key = tuple(sorted(idx))
        out[key] = out.get(key, 0.0) + float(v) / multiplicity(key)
    return SymmetricKernel(dim, order, out)


@dataclass(frozen=True)
class BlockKernel:
    """Contraction result f (x)_r g: symmetric in its first n-r and last m-r
    arguments separately, but not across the two blocks.  ``blocks`` maps a
    pair (sorted left index, sorted right index) to the value there."""

    dim: int
    left_order: int
    right_order: int
    blocks: dict = field(default_factory=dict)

    @property
    def order(self):
        return self.left_order + self.right_order

    def symmetrized(self):
        out = {}
        for (a, b), v in self.blocks.items():
            u = tuple(sorted(a + b))
            w = v * multiplicity(a) * multiplicity(b) / multiplicity(u)
            out[u] = out.get(u, 0.0) + w
        return SymmetricKernel._trusted(self.dim, self.order,
                                        {u: w for u, w in out.items() if w != 0.0})


@functools.cache
def _split_table(order, r):
    """(sub, rest) getters of each size-r position set of an order-n index.
    On a sorted index, each s = sub(index) not seen before is below all
    earlier ones, and rest(index) is the sorted index - s."""
    def getter(pos):  # the entries at ``pos`` as a tuple; a slice if contiguous
        if pos and pos[-1] - pos[0] >= len(pos):
            return operator.itemgetter(*pos)
        return operator.itemgetter(slice(pos[0], pos[-1] + 1) if pos else slice(0))

    pos = range(order)
    return tuple((getter(c), getter(tuple(p for p in pos if p not in c)))
                 for c in reversed(list(itertools.combinations(pos, r))))


def _probe(a, table, index):
    """(a - s, r!/prod(counts of s)!, bucket) for each distinct s of ``a``
    that hits the index, s descending; a - s is read only on a hit."""
    hits = {}
    for sub, rest in table:
        if (s := sub(a)) not in hits and (bucket := index.get(s)):
            hits[s] = (rest(a), multiplicity(s), bucket)
    return hits.values()


def contract(f, g, r):
    """r-fold contraction f (x)_r g, *not* symmetrized across blocks.

    (f (x)_r g)(x, y) = sum over s in [d]^r of f(x, s) g(y, s); returns a
    ``BlockKernel`` of order n + m - 2r.  Use ``.symmetrized()`` for the
    symmetric version f (x~)_r g.

    Computed as a hash join on the contracted sub-multiset s.  Each entry is
    split once per call, by itemgetters from the process-wide
    ``_split_table``, and a self-contraction shares one split between both
    sides.  Each entry a of f meets only the entries b of g indexed under one
    of its own s, adding f[a] g[b] r!/prod(counts of s)! to block
    (a - s, b - s); when f is not g, a - s is read only on a hit.  The cost
    is O(nnz_f C(n, r) + nnz_g C(m, r)) getter calls plus the matched terms,
    not nnz_f * nnz_g pair visits.  Each block sums its terms in f-entry
    order, and blocks appear in (f entry, g entry, s descending) order of
    their first term, as in a plain loop over all entry pairs.
    """
    if f.dim != g.dim:
        raise ValueError("kernel dims differ")
    if r < 0 or r > min(f.order, g.order):
        raise ValueError(f"contraction order r={r} out of range")
    table, index, shared = _split_table(g.order, r), {}, []
    for j, (b, vb) in enumerate(g.entries.items()):
        shared.append(hits := [])
        for sub, rest in table:
            bucket = index.setdefault(s := sub(b), [])
            if not bucket or bucket[-1][0] != j:  # else s is a repeat in b
                bucket.append((j, rest_b := rest(b), vb))
                if f is g:  # entry j of f probes with this same split
                    hits.append((rest_b, multiplicity(s), bucket))
    probes = shared if f is g else (
        _probe(a, _split_table(f.order, r), index) for a in f.entries)
    blocks = {}
    for va, hits in zip(f.entries.values(), probes):
        if len(hits) == 1:  # one bucket, already in g-entry order
            [(rest_a, w, bucket)] = hits
            for _, rest_b, vb in bucket:
                key = (rest_a, rest_b)
                blocks[key] = blocks.get(key, 0.0) + va * vb * w
            continue
        terms = [(j, rest_a, rest_b, vb, w) for rest_a, w, bucket in hits
                 for j, rest_b, vb in bucket]
        terms.sort(key=operator.itemgetter(0))  # stable: ties keep s descending
        for _, rest_a, rest_b, vb, w in terms:
            key = (rest_a, rest_b)
            blocks[key] = blocks.get(key, 0.0) + va * vb * w
    return BlockKernel(f.dim, f.order - r, g.order - r, blocks)


@dataclass(frozen=True)
class ChaosVector:
    """Finite sum F = sum_n I_n(f_n); ``components`` maps level n to kernel."""

    dim: int
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for n, k in self.components.items():
            n = _check_int("level", n)
            if k.dim != self.dim:
                raise ValueError("component dim mismatch")
            if k.order != n:
                raise ValueError(f"level {n} holds an order-{k.order} kernel")
            if k.entries:
                clean[n] = k
        object.__setattr__(self, "components", clean)

    @staticmethod
    def from_kernel(f):
        return ChaosVector(f.dim, {f.order: f})

    @staticmethod
    def constant(dim, c):
        return ChaosVector(dim, {0: SymmetricKernel.constant(dim, c)})

    def level(self, n):
        zero = SymmetricKernel.zero(self.dim, n)
        return self.components.get(n, zero)

    def expectation(self):
        return self.level(0).entries.get((), 0.0)

    def __add__(self, other):
        if other.dim != self.dim:
            raise ValueError("dims differ")
        out = dict(self.components)
        for n, k in other.components.items():
            out[n] = out[n] + k if n in out else k
        return ChaosVector(self.dim, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        return ChaosVector(self.dim, {n: c * k for n, k in self.components.items()})

    def __mul__(self, c):
        return self.__rmul__(c)


def eval_multiple_integral(f, x):
    """Evaluate I_n(f) (or a ChaosVector) pathwise at points x.

    x has shape (dim,) for one point or (N, dim) for a batch; returns a float
    or an (N,) array accordingly.  Every entry of every level is one row of a
    gather plan (``_Gather``), and the points are taken in row blocks under a
    fixed element budget, so memory stays bounded for any N.  Each point's
    value is the running sum over the entries in level order, the same bits
    as adding one entry at a time.
    """
    f = _vector(f)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != f.dim:
        raise ValueError(f"points have dim {pts.shape[1]}, kernel has dim {f.dim}")
    order = max(f.components, default=0)
    plan = _Gather.of(
        [e for _, kern in sorted(f.components.items()) for e in kern.entries.items()],
        f.dim)
    total = np.empty(pts.shape[0])
    rows = _block_rows((order + 1) * f.dim, len(plan.coef))
    for lo in range(0, pts.shape[0], rows):
        block = pts[lo:lo + rows]
        total[lo:lo + rows] = _row_sum(plan.terms(_table(order, block)))
    return float(total[0]) if single else total


# Elements the largest array of one evaluation block may hold.
_BLOCK_ELEMENTS = 1 << 16
# Below this many columns numpy runs short inner loops over a (P, rows) array.
_FEW_COLUMNS = 8


def _block_rows(*widths):
    """Points per block so that no (width, rows) array passes the budget.

    A block of a few points costs more per point than a block of one, so
    fewer than ``_FEW_COLUMNS`` become 1."""
    rows = _BLOCK_ELEMENTS // max(1, *widths)
    return rows if rows >= _FEW_COLUMNS else 1


def _table(order, x):
    """Monic Hermite table of a (rows, dim) block as ((order+1) dim, rows):
    row k dim + i holds He_k(x[:, i])."""
    return _hermite_monic_table(order, x.T).reshape(-1, x.shape[0])


def _row_sum(a):
    """Sum of a (P, rows) array's rows in row order, as ``total += row`` from
    zero.  numpy's sum adds row by row only while axis 0 is not the fast axis
    (one column gets pairwise summation), and slowly for few columns; there an
    accumulation keeps the order (+ 0.0 turns its -0.0 into the +0.0 that a
    sum from zero gives)."""
    if a.shape[1] >= _FEW_COLUMNS:
        return a.sum(axis=0)
    if not len(a):
        return np.zeros(a.shape[1])
    return np.add.accumulate(a, axis=0)[-1] + 0.0


@dataclass(frozen=True)
class _Gather:
    """Gather plan of a sum of basis integrals over one Hermite ``_table``.

    Row p stands for coef[p] * prod_i He_{k_i}(x_i): ``cols`` holds the table
    rows k_i dim + i in ascending i, padded with row 0 (He_0 = 1) to the
    largest count of distinct coordinates."""

    coef: np.ndarray
    cols: tuple

    @staticmethod
    def of(entries, dim):
        """Plan of (sorted index, value) pairs, in their order."""
        coef, cols = [], []
        for idx, v in entries:
            coef.append(v * multiplicity(idx))
            cols.append([k * dim + i for i, k in _counts(idx).items()])
        width = max(map(len, cols), default=0)
        cols = np.array([c + [0] * (width - len(c)) for c in cols],
                        dtype=np.intp).reshape(len(coef), width)
        return _Gather(np.array(coef, dtype=float), tuple(cols.T.copy()))

    def terms(self, table):
        """(P, rows) array of every row's term at the table's points, each
        multiplied up in the plan's order."""
        if not self.cols:
            return np.repeat(self.coef[:, None], table.shape[1], axis=1)
        out = self.coef[:, None] * table.take(self.cols[0], axis=0)
        for col in self.cols[1:]:
            out *= table.take(col, axis=0)
        return out


def _vector(F):
    """F as a ChaosVector: a SymmetricKernel becomes its one level."""
    return ChaosVector.from_kernel(F) if isinstance(F, SymmetricKernel) else F


def _product_levels(F, G, first):
    """Levels of sum r! C(n,r) C(m,r) I_{n+m-2r}(f_n ~x_r g_m) over the level
    pairs of F and G and r >= ``first`` (0 or 1), term r weighted by r**first.

    Each level's entries accumulate in place (``_add_into``) in (n, m, r)
    order, the values and order of adding the terms up as kernels.  f ~x_r g
    is read from f's memo when g is f itself.  ``_add_into`` leaves no exact
    zero, so each level dict becomes its kernel as it is, with no copy.
    When F and G are the one level of the same kernel object f, the vector
    is built once and kept on f (``f._squares[first]``): callers share it
    and must not mutate it.
    """
    F, G = _vector(F), _vector(G)
    if F.dim != G.dim:
        raise ValueError("dims differ")
    if len(F.components) == len(G.components) == 1:
        [f], [g] = F.components.values(), G.components.values()
        if f is g:
            if f._squares is None:
                object.__setattr__(f, "_squares", {})
            if first not in f._squares:
                f._squares[first] = _sum_levels(F, F, first)
            return f._squares[first]
    return _sum_levels(F, G, first)


def _sum_levels(F, G, first):
    """``_product_levels`` of two chaos vectors, computed afresh."""
    out = {}
    for n, fn in F.components.items():
        for m, gm in G.components.items():
            for r in range(first, min(n, m) + 1):
                h = fn.self_contraction(r) if fn is gm else contract(fn, gm, r).symmetrized()
                coef = r**first * math.factorial(r) * math.comb(n, r) * math.comb(m, r)
                _add_into(out.setdefault(n + m - 2 * r, {}), h.entries, coef)
    return ChaosVector(F.dim, {k: SymmetricKernel._trusted(F.dim, k, e)
                               for k, e in out.items()})


def chaos_product(F, G):
    """Product of two chaos vectors via the multiplication formula

    I_n(f) I_m(g) = sum_{r=0}^{n^m} r! C(n,r) C(m,r) I_{n+m-2r}(f (x)_r g).

    The square of one kernel's integral is kept on the kernel and shared
    by every caller, so it is not to be mutated.
    """
    return _product_levels(F, G, 0)


def expect_product(F, G):
    """E[F G] = sum_k k! <f_k, g_k> (orthogonality of the chaoses)."""
    total = 0.0
    for n, fn in F.components.items():
        gn = G.components.get(n)
        if gn is not None:
            total += math.factorial(n) * fn.inner(gn)
    return total


def derivative_slices(f):
    """Kernels of the Malliavin derivative: DF = n sum_i I_{n-1}(f(., i)) e_i."""
    return [f.slice_kernel(i) for i in range(f.dim)]


def malliavin_inner(F, G):
    """<DF, DG>_H as a ChaosVector.

    For pure levels, <D I_n(f), D I_m(g)> = n m sum_i I_{n-1}(f(.,i)) I_{m-1}(g(.,i));
    expanding each product with the multiplication formula and summing over i
    collapses the coordinate sum into contractions of the full kernels:

        n m sum_{r=1}^{min(n,m)} (r-1)! C(n-1,r-1) C(m-1,r-1) I_{n+m-2r}(f (x)_r g),

    the product formula's terms r >= 1 weighted by r, since
    n m (r-1)! C(n-1,r-1) C(m-1,r-1) = r r! C(n,r) C(m,r).  <DF, DF> of one
    kernel's integral is kept on the kernel and shared, as in ``chaos_product``.
    """
    return _product_levels(F, G, 1)


def ou_inverse(F):
    """(-L)^{-1} F for centered F: divide level k by k.  Errors on level 0."""
    F = _vector(F)
    if F.expectation() != 0.0:
        raise ValueError("ou_inverse requires a centered input (level 0 must vanish)")
    return ChaosVector(F.dim, {n: (1.0 / n) * k for n, k in F.components.items()})


def wick_moment(factors, powers):
    """E[prod_i F_i^{p_i}], exactly, via repeated chaos products.

    Splits the expanded factor list in half, multiplies each half with the
    product formula, and pairs the halves with the isometry (the level-0
    read-off of the full product, done one multiplication earlier).  When
    the right half is the same factor objects as the left, as for
    ``wick_moment([f], [4])``, the left product serves both.  Each power must
    be an integer >= 0, and there may be at most 12 chaos factors.
    """
    if len(powers) != len(factors):
        raise ValueError("factors and powers length mismatch")
    flat = []
    for f, p in zip(factors, powers):
        p = _check_int("power", p)
        if len(flat) + p > 12:
            raise ValueError("wick_moment limited to 12 chaos factors")
        flat.extend([_vector(f)] * p)
    if not flat:
        return 1.0

    half = (len(flat) + 1) // 2
    left, right = flat[:half], flat[half:]
    product = functools.reduce(chaos_product, left)
    if not right:
        return product.expectation()
    if len(left) == len(right) and all(a is b for a, b in zip(left, right)):
        return expect_product(product, product)
    return expect_product(product, functools.reduce(chaos_product, right))


# Points per seeded chunk of a Gaussian stream.
_CHUNK_ROWS = 65536


def iter_gaussian_chunks(dim, count, seed, rows=_CHUNK_ROWS):
    """Yield (k, dim) blocks of i.i.d. standard normals, k <= ``rows``.

    The stream is cut into chunks of a fixed 65,536 points, chunk c drawn
    from ``default_rng([seed, c])``, so it is reproducible and prefix-stable:
    the first N points never depend on how many more are requested.  Each
    chunk's generator draws its rows in blocks of ``rows``, and consecutive
    ``standard_normal`` calls give the numbers of one call, so the points do
    not depend on ``rows`` either, and no block straddles two chunks.
    """
    count, seed = _check_int("count", count), _check_int("seed", seed)
    rows = _check_int("rows", rows, 1)
    for c, start in enumerate(range(0, count, _CHUNK_ROWS)):
        rng = np.random.default_rng([seed, c])
        k = min(_CHUNK_ROWS, count - start)
        for lo in range(0, k, rows):
            yield rng.standard_normal((min(rows, k - lo), dim))


def _check_int(name, value, least=0):
    """``value`` as an int >= ``least``, or a ValueError naming ``name``.
    A plain int skips the ``numbers.Integral`` check (an ABC lookup)."""
    if type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def sample_gaussian(dim, count, seed):
    """(count, dim) array of i.i.d. standard normals; see iter_gaussian_chunks."""
    return np.concatenate([np.empty((0, dim)), *iter_gaussian_chunks(dim, count, seed)])


def random_kernel(rng, dim, order, nnz):
    """Random sparse symmetric kernel: nnz distinct orbits, values U(-1, 1)."""
    nnz = min(_check_int("nnz", nnz), math.comb(dim + order - 1, order))
    keys = set()
    while len(keys) < nnz:
        keys.add(tuple(sorted(int(i) for i in rng.integers(0, dim, size=order))))
    return SymmetricKernel(
        dim, order, {k: float(rng.uniform(-1.0, 1.0)) for k in sorted(keys)}
    )
