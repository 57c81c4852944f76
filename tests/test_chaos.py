"""Kernel algebra, multiple integrals and the Wick oracle vs dense references."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from chaoslimits import (
    BlockKernel,
    ChaosVector,
    SymmetricKernel,
    chaos_product,
    contract,
    derivative_slices,
    eval_multiple_integral,
    expect_product,
    gamma_fixed_family,
    gaussian_clt_family,
    hermite,
    iter_gaussian_chunks,
    malliavin_inner,
    moment4,
    multiplicity,
    ou_inverse,
    random_kernel,
    sample_gaussian,
    symmetrize,
    wick_moment,
)

from chaoslimits.chaos import _norm_sq, _scaled
from oracles import (
    dense,
    dense_block,
    dense_contract,
    dense_sym,
    eval_integral_ref,
    gauss_hermite_expectation,
    hermite_ref,
    multiplicity_ref,
    naive_contract,
    operator_malliavin_inner,
    operator_product,
    raw_to_dense,
)


def basis(dim, idx):
    """The symmetric tensor equal to 1 at every rearrangement of idx: for an
    orbit larger than one point, mult(idx) times ``symmetrize`` of one entry."""
    return SymmetricKernel(dim, len(idx), {tuple(sorted(idx)): 1.0})


def block_norm_sq(bk):
    """Unsymmetrized squared norm of a BlockKernel in H^{tensor (n+m-2r)}."""
    return sum(multiplicity(a) * multiplicity(b) * v * v
               for (a, b), v in bk.blocks.items())


# --- hermite --------------------------------------------------------------------

def test_hermite_low_orders():
    x = np.linspace(-3, 3, 31)
    assert np.allclose(hermite(0, x), 1.0)
    assert np.allclose(hermite(1, x), x)
    assert np.allclose(hermite(2, x), (x**2 - 1) / 2)
    assert np.allclose(hermite(3, x), (x**3 - 3 * x) / 6)


def test_hermite_point_values():
    # He_4(x)/4! = (x^4 - 6x^2 + 3)/24; at x = 1 that is -2/24
    assert math.isclose(hermite(4, 1.0), -1.0 / 12.0, rel_tol=1e-15)
    assert math.isclose(hermite(2, 2.0), 1.5, rel_tol=1e-15)


@pytest.mark.parametrize("n", range(7))
def test_hermite_matches_coefficient_table(n):
    x = np.linspace(-2.5, 2.5, 41)
    assert np.allclose(hermite(n, x), hermite_ref(n, x), atol=1e-13)


def test_hermite_three_term_recurrence():
    x = np.linspace(-4, 4, 17)
    for n in range(1, 10):
        lhs = (n + 1) * hermite(n + 1, x)
        rhs = x * hermite(n, x) - hermite(n - 1, x)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_hermite_scalar_and_array_shapes():
    assert np.isscalar(hermite(3, 0.5)) or np.ndim(hermite(3, 0.5)) == 0
    assert hermite(3, np.zeros((4, 5))).shape == (4, 5)


def test_hermite_order_outside_the_float_factorials_raises():
    # H_n = He_n / n! divides by n!, which no float holds past n = 170
    assert math.isfinite(hermite(170, 1.5))
    for n in (-1, 171):
        with pytest.raises(ValueError, match="0..170"):
            hermite(n, 1.5)


def test_hermite_orthonormality_under_gaussian():
    # E[H_n(X) H_m(X)] = delta_{nm} / n!
    for n in range(5):
        for m in range(5):
            val = gauss_hermite_expectation(
                lambda p: hermite(n, p[:, 0]) * hermite(m, p[:, 0]), 1, degree=12
            )
            want = 1.0 / math.factorial(n) if n == m else 0.0
            assert math.isclose(val, want, rel_tol=0, abs_tol=1e-12)


# --- multiplicity and kernel construction ------------------------------------------

def test_multiplicity_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        idx = tuple(sorted(rng.integers(0, 4, size=n).tolist()))
        assert multiplicity(idx) == multiplicity_ref(idx)


def test_kernel_rejects_bad_indices():
    with pytest.raises(ValueError):
        SymmetricKernel(3, 2, {(1, 0): 1.0})  # unsorted
    with pytest.raises(ValueError):
        SymmetricKernel(3, 2, {(0, 3): 1.0})  # out of range
    with pytest.raises(ValueError):
        SymmetricKernel(3, 2, {(0, 1, 2): 1.0})  # wrong length
    # plain int indices skip only the conversion; every other check still runs
    with pytest.raises(ValueError, match="index must be an integer"):
        SymmetricKernel(3, 1, {(True,): 1.0})
    with pytest.raises(ValueError, match="index must be an integer"):
        SymmetricKernel(3, 1, {(1.0,): 1.0})
    with pytest.raises(ValueError, match="out of range"):
        SymmetricKernel(3, 2, {(-1, 0): 1.0})
    for dim, order in ((3, 2.0), (2.5, 2), (True, 1), (3, True), (-1, 1), (3, -1)):
        with pytest.raises(ValueError, match="dim|order"):
            SymmetricKernel(dim, order, {})


def test_kernel_converts_numpy_int_indices_and_shape():
    k = SymmetricKernel(np.int64(3), np.int32(2), {(np.int64(0), np.int32(2)): 1.5})
    assert type(k.dim) is int and type(k.order) is int
    assert all(type(idx) is tuple and all(type(i) is int for i in idx)
               for idx in k.entries)
    assert k == SymmetricKernel(3, 2, {(0, 2): 1.5})


def test_chaos_vector_rejects_non_integer_levels():
    # a level key is checked as dims and orders are, not truncated by int()
    f = SymmetricKernel(3, 2, {(0, 1): 1.0})
    g = SymmetricKernel(3, 1, {(2,): 1.0})
    for components in ({2.7: f}, {2.0: f}, {True: g}, {"2": f}, {-2: f}):
        with pytest.raises(ValueError, match="level"):
            ChaosVector(3, components)
    V = ChaosVector(3, {np.int64(2): f, 1: g})
    assert list(V.components) == [2, 1] and all(type(n) is int for n in V.components)


def test_kernel_prunes_exact_zeros():
    k = SymmetricKernel(2, 2, {(0, 0): 0.0, (0, 1): 1.0})
    assert (0, 0) not in k.entries


def _assert_validated_form(k):
    """Entries are canonical sorted int tuples in range with nonzero floats,
    so the validating constructor rebuilds the same kernel."""
    for idx, v in k.entries.items():
        assert type(idx) is tuple and all(type(i) is int for i in idx)
        assert len(idx) == k.order and list(idx) == sorted(idx)
        assert all(0 <= i < k.dim for i in idx)
        assert type(v) is float and v != 0.0
    assert k == SymmetricKernel(k.dim, k.order, dict(k.entries))


def test_library_made_kernels_keep_the_constructor_invariants():
    # +, -, c*f, symmetrized, slice_kernel and self_contraction skip the index
    # checks, so their output must already be in the validated form
    rng = np.random.default_rng(57)
    for _ in range(20):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        f = random_kernel(rng, d, n, int(rng.integers(1, 12)))
        g = random_kernel(rng, d, n, int(rng.integers(1, 12)))
        made = [f + g, f - g, 2.5 * f, f * -0.75, *derivative_slices(f)]
        made += [contract(f, g, r).symmetrized() for r in range(n + 1)]
        made += [f.self_contraction(r) for r in range(n + 1)]
        for k in made:
            _assert_validated_form(k)
    # exact zeros are dropped: cancellation, a zero factor and underflow
    f = random_kernel(np.random.default_rng(58), 3, 2, 5)
    assert f.entries
    for k in (f - f, 0.0 * f, f * 0.0, 1e-300 * (1e-300 * f)):
        assert k.entries == {}
        _assert_validated_form(k)
    # a block kernel antisymmetric across its blocks symmetrizes to zero
    bk = BlockKernel(2, 1, 1, {((0,), (1,)): 1.5, ((1,), (0,)): -1.5})
    assert bk.symmetrized().entries == {}
    _assert_validated_form(bk.symmetrized())
    # a slice at a coordinate no entry uses is empty
    _assert_validated_form(SymmetricKernel(3, 2, {(0, 0): 1.0}).slice_kernel(2))


def test_family_members_equal_the_validating_constructor():
    # the built-in families make their members without index checks, so each
    # must equal, entry order included, the checked kernel of its formula
    clt = gaussian_clt_family()
    for m in (1, 2, 3, 17, 64, 300):
        k = clt(m)
        want = SymmetricKernel(m, 2, {(i, i): 1.0 / math.sqrt(2.0 * m) for i in range(m)})
        assert k == want and list(k.entries) == list(want.entries)
        _assert_validated_form(k)
    for size in (1, 8, 100):
        family = gamma_fixed_family(size)
        want = SymmetricKernel(size, 2, {(i, i): 1.0 for i in range(size)})
        for m in (1, 2, 5):
            k = family(m)
            assert k == want and list(k.entries) == list(want.entries)
            _assert_validated_form(k)


def test_basis_and_symmetrize_normalizations():
    # basis: coefficient 1 on every rearrangement -> norm^2 = orbit size
    b = basis(2, (0, 0, 1))
    assert b.entries == {(0, 0, 1): 1.0}
    assert math.isclose(b.norm_sq(), 3.0)
    # symmetrize of a single off-diagonal raw entry spreads 1 over the orbit
    s = symmetrize({(0, 0, 1): 1.0}, dim=2, order=3)
    assert math.isclose(s.entries[(0, 0, 1)], 1.0 / 3.0)
    assert math.isclose(s.norm_sq(), 1.0 / 3.0)
    # they coincide exactly when the orbit is a single point
    assert basis(2, (1, 1)).entries == \
        symmetrize({(1, 1): 1.0}, dim=2, order=2).entries


def test_symmetrize_matches_dense_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        raw = {}
        for _ in range(int(rng.integers(1, 6))):
            raw[tuple(rng.integers(0, d, size=n).tolist())] = float(rng.normal())
        got = symmetrize(raw, dim=d, order=n)
        want = dense_sym(raw_to_dense(raw, d, n))
        assert np.allclose(dense(got), want, atol=1e-13)


def test_kernel_algebra_matches_dense():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        a = random_kernel(rng, d, n, 4)
        b = random_kernel(rng, d, n, 4)
        c = float(rng.normal())
        assert np.allclose(dense(a + b), dense(a) + dense(b))
        assert np.allclose(dense(a - b), dense(a) - dense(b))
        assert np.allclose(dense(c * a), c * dense(a))
        assert math.isclose(a.norm_sq(), float(np.sum(dense(a) ** 2)),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(a.inner(b), float(np.sum(dense(a) * dense(b))),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_scaled_norm_is_second_moment():
    # E[I_n(f)^2] = n! ||f||^2, checked against Gaussian quadrature
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        f = random_kernel(rng, d, n, 3)
        if not f.entries:
            continue
        val = gauss_hermite_expectation(
            lambda p: eval_multiple_integral(f, p) ** 2, d, degree=8
        )
        assert math.isclose(val, f.scaled_norm_sq(), rel_tol=1e-10, abs_tol=1e-12)


# --- contraction ---------------------------------------------------------------------

def test_contract_matches_dense_sweep():
    rng = np.random.default_rng(41)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = random_kernel(rng, d, n, int(rng.integers(1, 5)))
        b = random_kernel(rng, d, m, int(rng.integers(1, 5)))
        r = int(rng.integers(0, min(n, m) + 1))
        got = contract(a, b, r)
        want = dense_contract(dense(a), dense(b), r)
        assert np.allclose(dense_block(got), want, atol=1e-12)
        assert np.allclose(dense(got.symmetrized()), dense_sym(want), atol=1e-12)
        assert math.isclose(block_norm_sq(got), float(np.sum(want**2)),
                            rel_tol=1e-11, abs_tol=1e-12)


def _join_cases():
    """(f, g) pairs for the exact-join test: random kernels of orders 0..6,
    and diagonal kernels (every index repeated, as in the CLT family)."""
    rng = np.random.default_rng(47)
    for trial in range(150):
        d = int(rng.integers(1, 9))
        f = random_kernel(rng, d, int(rng.integers(0, 5)), int(rng.integers(1, 41)))
        yield f, f if trial % 2 else random_kernel(
            rng, d, int(rng.integers(0, 5)), int(rng.integers(1, 41)))
    for trial in range(24):
        d = int(rng.integers(1, 5))
        f = random_kernel(rng, d, 5 + trial % 2, int(rng.integers(1, 25)))
        yield f, f if trial % 3 else random_kernel(
            rng, d, int(rng.integers(0, 7)), int(rng.integers(1, 25)))
    for m in (1, 2, 5, 64):
        for n in (2, 3, 4):
            f = SymmetricKernel(m, n, {(i,) * n: 1.0 / math.sqrt(2.0 * m)
                                       for i in range(m)})
            yield f, f
            yield f, SymmetricKernel(m, n, {(i,) * n: 1.0 + i for i in range(0, m, 2)})


def test_contract_blocks_equal_pairwise_loop_exactly():
    # The join must add the same terms in the same order as a loop over all
    # entry pairs: block values, block order and symmetrized entries are
    # compared with ==, not a tolerance.  A self-contraction shares one split
    # of the entries between both sides, so an equal copy of f, which takes
    # the two-sided path, must give the same blocks in the same order.
    for f, g in _join_cases():
        copy = SymmetricKernel(f.dim, f.order, dict(f.entries))
        assert copy == f and copy is not f
        for r in range(min(f.order, g.order) + 1):
            got = contract(f, g, r)
            want = naive_contract(f, g, r)
            assert got.blocks == want
            assert list(got.blocks) == list(want)
            sym = BlockKernel(f.dim, f.order - r, g.order - r, want).symmetrized()
            assert got.symmetrized().entries == sym.entries
            if g is f:
                two_sided = contract(f, copy, r).blocks
                assert two_sided == got.blocks
                assert list(two_sided) == list(got.blocks)


def test_contract_full_equals_inner():
    rng = np.random.default_rng(43)
    a = random_kernel(rng, 3, 2, 4)
    b = random_kernel(rng, 3, 2, 4)
    full = contract(a, b, 2)
    assert math.isclose(full.symmetrized().entries.get((), 0.0), a.inner(b),
                        rel_tol=1e-12, abs_tol=1e-15)


def test_contract_rejects_bad_r():
    a = basis(2, (0, 1))
    with pytest.raises(ValueError):
        contract(a, a, 3)
    with pytest.raises(ValueError):
        contract(a, a, -1)


@hst.composite
def _kernels(draw, dim, order, max_nnz=6):
    """Kernels of the given shape with up to max_nnz drawn orbits."""
    index = hst.lists(hst.integers(0, dim - 1), min_size=order,
                      max_size=order).map(lambda i: tuple(sorted(i)))
    values = hst.floats(-2.0, 2.0, allow_nan=False)
    return SymmetricKernel(dim, order, draw(hst.dictionaries(index, values,
                                                             max_size=max_nnz)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 3), n=hst.integers(0, 3),
       m=hst.integers(0, 3))
def test_contract_symmetrized_property(data, d, n, m):
    f = data.draw(_kernels(d, n))
    g = data.draw(_kernels(d, m))
    r = data.draw(hst.integers(0, min(n, m)))
    got = contract(f, g, r).symmetrized()
    want = BlockKernel(d, n - r, m - r, naive_contract(f, g, r)).symmetrized()
    assert got.entries == want.entries
    assert np.allclose(dense(got), dense_sym(dense_contract(dense(f), dense(g), r)),
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 3), n=hst.integers(1, 4))
def test_moment4_property(data, d, n):
    f = data.draw(_kernels(d, n))
    assert math.isclose(moment4(f), wick_moment([f], [4]),
                        rel_tol=1e-10, abs_tol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 3), n=hst.integers(0, 3),
       scale=hst.sampled_from([1.0, 1e-160]))
def test_inner_with_itself_is_the_norm_of_a_copy(data, d, n, scale):
    # f.inner(f) is the memoized norm_sq; at 1e-160 its terms underflow
    f = scale * data.draw(_kernels(d, n))
    copy = SymmetricKernel(d, n, dict(f.entries))
    got, want = f.inner(f), f.inner(copy)
    assert (got, type(got)) == (want, type(want))
    assert got is f.norm_sq()


# --- evaluation and the product formula -------------------------------------------

def test_eval_simple_polynomials():
    pts = np.array([[0.3, -1.2], [1.7, 0.4], [-0.5, 2.2]])
    assert np.allclose(
        eval_multiple_integral(basis(2, (0,)), pts), pts[:, 0]
    )
    assert np.allclose(
        eval_multiple_integral(basis(2, (0, 0)), pts),
        pts[:, 0] ** 2 - 1,
    )
    sym = symmetrize({(0, 0, 1): 1.0}, dim=2, order=3)
    assert np.allclose(
        eval_multiple_integral(sym, pts), (pts[:, 0] ** 2 - 1) * pts[:, 1]
    )
    # basis puts coefficient 1 on the whole orbit: 3x the symmetrized tensor
    assert np.allclose(
        eval_multiple_integral(basis(2, (0, 0, 1)), pts),
        3.0 * (pts[:, 0] ** 2 - 1) * pts[:, 1],
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 6),
       levels=hst.lists(hst.integers(0, 4), min_size=1, max_size=3, unique=True),
       points=hst.integers(1, 40), seed=hst.integers(0, 2**32 - 1),
       budget=hst.sampled_from([1, 400, 1 << 16]))
def test_eval_matches_per_entry_loop_bit_for_bit(data, d, levels, points, seed,
                                                 budget):
    import chaoslimits.chaos as chaos

    F = ChaosVector(d, {n: data.draw(_kernels(d, n, max_nnz=30)) for n in levels})
    if len(F.components) == 1:
        F = next(iter(F.components.values()))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((points, d))
    x[rng.random((points, d)) < 0.1] = 0.0  # He_odd(0) = 0: signed-zero terms
    want = eval_integral_ref(F, x)
    saved = chaos._BLOCK_ELEMENTS
    chaos._BLOCK_ELEMENTS = budget  # 1 evaluates one point per block
    try:
        got = eval_multiple_integral(F, x)
        one = eval_multiple_integral(F, x[0])
    finally:
        chaos._BLOCK_ELEMENTS = saved
    assert got.tobytes() == want.tobytes()
    assert np.float64(one).tobytes() == want[:1].tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (37, 1), (37, 3), (37, 12)])
def test_row_sum_adds_rows_in_order(shape):
    from chaoslimits.chaos import _row_sum

    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=(shape[0], 1))
    a[rng.random(shape) < 0.2] = -0.0
    want = np.zeros(shape[1])
    for row in a:
        want += row
    assert _row_sum(a).tobytes() == want.tobytes()


def test_eval_single_point_shape():
    f = basis(3, (0, 2))
    v = eval_multiple_integral(f, np.array([1.0, 2.0, 3.0]))
    assert np.ndim(v) == 0
    assert math.isclose(float(v), 2.0 * 1.0 * 3.0)


def test_product_formula_pathwise_sweep():
    rng = np.random.default_rng(51)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        a = random_kernel(rng, d, int(rng.integers(1, 4)), 3)
        b = random_kernel(rng, d, int(rng.integers(1, 4)), 3)
        if not a.entries or not b.entries:
            continue
        prod = chaos_product(ChaosVector.from_kernel(a), ChaosVector.from_kernel(b))
        x = sample_gaussian(d, 300, int(rng.integers(0, 2**31)))
        lhs = eval_multiple_integral(a, x) * eval_multiple_integral(b, x)
        rhs = eval_multiple_integral(prod, x)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert float(np.max(np.abs(lhs - rhs))) < 1e-10 * scale


def test_isometry_against_quadrature():
    rng = np.random.default_rng(53)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = random_kernel(rng, d, n, 3)
        b = random_kernel(rng, d, m, 3)
        want = gauss_hermite_expectation(
            lambda p: eval_multiple_integral(a, p) * eval_multiple_integral(b, p),
            d, degree=8,
        )
        got = math.factorial(n) * a.inner(b) if n == m else 0.0
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-11)


def test_chaos_vector_moments_against_quadrature():
    rng = np.random.default_rng(57)
    f = random_kernel(rng, 2, 2, 3)
    g = random_kernel(rng, 2, 1, 2)
    F = 0.7 * ChaosVector.from_kernel(f) + ChaosVector.from_kernel(g) \
        + ChaosVector.constant(2, 0.3)
    m2 = gauss_hermite_expectation(
        lambda p: eval_multiple_integral(F, p) ** 2, 2, degree=10
    )
    assert math.isclose(expect_product(F, F), m2, rel_tol=1e-11)
    assert math.isclose(F.expectation(), 0.3, rel_tol=1e-15)


# --- wick moments ---------------------------------------------------------------------

def test_wick_moment_frozen_small_cases():
    e = basis(1, (0, 0))  # I_2 = X^2 - 1
    assert math.isclose(wick_moment([e], [2]), 2.0)
    assert math.isclose(wick_moment([e], [3]), 8.0)
    assert math.isclose(wick_moment([e], [4]), 60.0)
    t = basis(1, (0, 0, 0))  # I_3 = X^3 - 3X
    assert math.isclose(wick_moment([t], [2]), 6.0)
    assert math.isclose(wick_moment([t], [4]), 3348.0)
    q = basis(1, (0, 0, 0, 0))
    assert math.isclose(wick_moment([q], [3]), 1728.0)


def test_wick_moment_against_quadrature():
    rng = np.random.default_rng(61)
    for _ in range(8):
        d = int(rng.integers(1, 3))
        a = random_kernel(rng, d, int(rng.integers(1, 4)), 2)
        b = random_kernel(rng, d, int(rng.integers(1, 3)), 2)
        if not a.entries or not b.entries:
            continue
        want = gauss_hermite_expectation(
            lambda p: eval_multiple_integral(a, p) ** 2
            * eval_multiple_integral(b, p),
            d, degree=10,
        )
        got = wick_moment([a, b], [2, 1])
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


def test_wick_moment_edge_cases():
    e = basis(1, (0, 0))
    assert wick_moment([e], [0]) == 1.0
    assert math.isclose(wick_moment([e], [1]), 0.0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        wick_moment([e], [13])
    with pytest.raises(ValueError):
        wick_moment([e], [2, 2])
    for power in (2.5, True, -1):
        with pytest.raises(ValueError, match="power"):
            wick_moment([e], [power])


def test_wick_moment_equal_halves_reuse_one_product():
    rng = np.random.default_rng(73)
    for _ in range(10):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        f = random_kernel(rng, d, n, int(rng.integers(1, 7)))
        g = random_kernel(rng, d, int(rng.integers(1, 4)), int(rng.integers(1, 7)))
        F, G = ChaosVector.from_kernel(f), ChaosVector.from_kernel(g)
        P = chaos_product(F, F)
        assert wick_moment([f], [4]) == expect_product(P, P)
        # distinct halves keep the two-fold product of each
        assert wick_moment([f, g], [2, 2]) == expect_product(P, chaos_product(G, G))


@hst.composite
def _integer_vectors(draw, dim, scale):
    """Chaos vectors with a level 0 and up to three more levels, each entry
    an integer times ``scale``: at scale 1 sums of terms cancel exactly, at
    1e-160 the contractions' products underflow."""
    levels = [0] + draw(hst.lists(hst.integers(1, 3), max_size=3, unique=True))
    vector = {}
    for n in levels:
        index = hst.sampled_from(list(itertools.combinations_with_replacement(range(dim), n)))
        terms = draw(hst.lists(hst.tuples(index, hst.integers(-3, 3)), max_size=5))
        vector[n] = SymmetricKernel(dim, n, {idx: scale * v for idx, v in terms})
    return ChaosVector(dim, vector)


def _levels(V):
    return [(n, list(k.entries.items())) for n, k in V.components.items()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 3), scale=hst.sampled_from([1.0, 1e-160]),
       same=hst.booleans())
def test_product_levels_match_the_kernel_operator_form(data, d, scale, same):
    # the in-place level sums must drop an entry the moment it cancels, as
    # adding kernels does, or a later term re-adds it in the wrong place
    F = data.draw(_integer_vectors(d, scale))
    G = F if same else data.draw(_integer_vectors(d, scale))
    assert _levels(chaos_product(F, G)) == _levels(operator_product(F, G))
    assert _levels(malliavin_inner(F, G)) == _levels(operator_malliavin_inner(F, G))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 3), scale=hst.sampled_from([1.0, 1e-160]))
def test_product_levels_equal_the_validating_constructors(data, d, scale):
    # the level dicts become the product's kernels as they are, with no copy
    F = data.draw(_integer_vectors(d, scale))
    for P in (chaos_product(F, F), malliavin_inner(F, F)):
        want = ChaosVector(d, {n: SymmetricKernel(d, n, dict(k.entries))
                               for n, k in P.components.items()})
        assert P == want and _levels(P) == _levels(want)
        for k in P.components.values():
            _assert_validated_form(k)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 3), n=hst.integers(1, 3),
       scale=hst.sampled_from([1.0, 1e-160]))
def test_memoized_square_equals_a_fresh_one(data, d, n, scale):
    # F F and <DF, DF> of one kernel are built once and shared; they must be
    # what a distinct equal copy builds afresh, level by level, entry by entry
    f = data.draw(_integer_vectors(d, scale)).level(n)
    assume(f.entries)  # a zero kernel is no level of a vector
    copy = SymmetricKernel(d, n, dict(f.entries))
    assert f == copy and f is not copy
    for product in (chaos_product, malliavin_inner):
        P = product(f, f)
        F = ChaosVector.from_kernel(f)
        assert product(F, F) is P and product(f, f) is P
        fresh = product(copy, copy)
        assert P == fresh and _levels(P) == _levels(fresh)
        assert _levels(P) == _levels(product(f, ChaosVector.from_kernel(copy)))
        want = ChaosVector(d, {k: SymmetricKernel(d, k, dict(h.entries))
                               for k, h in P.components.items()})
        assert P == want and _levels(P) == _levels(want)


def test_a_product_of_equal_distinct_kernels_is_not_kept():
    # the square memo is keyed by identity, never by ``==`` on the entries
    f = SymmetricKernel(2, 2, {(0, 0): 0.5, (0, 1): -1.0})
    g = SymmetricKernel(2, 2, dict(f.entries))
    for product in (chaos_product, malliavin_inner):
        assert product(f, g) is not product(f, g)
        assert product(f, g) == product(g, f)
    assert f._squares is None and g._squares is None
    # a vector with more than one level is not a kernel's square
    V = ChaosVector(2, {0: SymmetricKernel.constant(2, 1.0), 2: f})
    assert chaos_product(V, V) is not chaos_product(V, V)
    assert f._squares is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=hst.data(), d=hst.integers(1, 3), n=hst.integers(0, 3),
       scale=hst.sampled_from([1.0, 1e-160]))
def test_norm_memo_keeps_the_bits_at_every_scale(data, d, n, scale):
    # -0.0 shares 0.0's key, and both give the int 0 of an all-skipped sum;
    # at 1e-160 the squares underflow to 0.0, which are still summed
    f = data.draw(_integer_vectors(d, scale)).level(n)
    for c in (1.0, -3.0, 0.0, -0.0, 1e-160, 1.0, -0.0):
        got = f._norm_at(c)
        want = _norm_sq(_scaled(f.entries, c))
        assert got == want == (c * f).norm_sq()
        assert type(got) is type(want) is type((c * f).norm_sq())
        assert f._norm_at(c) is got
    assert f.norm_sq() is f._norm_at(1.0)
    assert len(f._norms) == 4


# --- malliavin operators ---------------------------------------------------------------

def test_malliavin_inner_matches_slice_route_pathwise():
    rng = np.random.default_rng(71)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        f = random_kernel(rng, d, n, 3)
        g = random_kernel(rng, d, m, 3)
        if not f.entries or not g.entries:
            continue
        K = malliavin_inner(f, g)
        x = sample_gaussian(d, 200, int(rng.integers(0, 2**31)))
        got = eval_multiple_integral(K, x)
        want = np.zeros(x.shape[0])
        for sf, sg in zip(derivative_slices(f), derivative_slices(g)):
            want += eval_multiple_integral(sf, x) * eval_multiple_integral(sg, x)
        want *= n * m
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) < 1e-10 * scale


def test_malliavin_energy_identity():
    # E<DF, DF> = sum_k k * k! ||f_k||^2; for a pure level, n * E[F^2]
    rng = np.random.default_rng(73)
    f = random_kernel(rng, 3, 3, 4)
    K = malliavin_inner(f, f)
    assert math.isclose(K.expectation(), 3.0 * f.scaled_norm_sq(), rel_tol=1e-12)


def test_ou_inverse_integration_by_parts():
    # E[F G] = E[<D(-L)^{-1}F, DG>] for centered F, G
    rng = np.random.default_rng(79)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        f = random_kernel(rng, d, int(rng.integers(1, 4)), 3)
        g = random_kernel(rng, d, int(rng.integers(1, 4)), 3)
        if not f.entries or not g.entries:
            continue
        F = ChaosVector.from_kernel(f)
        G = ChaosVector.from_kernel(g)
        lhs = expect_product(F, G)
        rhs = malliavin_inner(ou_inverse(F), G).expectation()
        assert math.isclose(lhs, rhs, rel_tol=1e-11, abs_tol=1e-12)


def test_ou_inverse_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        ou_inverse(ChaosVector.constant(2, 1.0))


# --- seeded sampling -----------------------------------------------------------------

# one full seeded chunk of 65,536 points plus 100 points of the next
_PAST_CHUNK = 65_536 + 100


def test_gaussian_chunks_prefix_stability():
    # the first N draws never depend on how many more are requested,
    # on either side of the boundary of the first seeded chunk
    full = sample_gaussian(1, _PAST_CHUNK, seed=5)
    for n in (150, 65_536, 65_537):
        assert np.array_equal(sample_gaussian(1, n, seed=5), full[:n])
    chunks = list(iter_gaussian_chunks(1, _PAST_CHUNK, seed=5))
    assert [c.shape for c in chunks] == [(65_536, 1), (100, 1)]
    # chunk c comes from its own generator default_rng([seed, c])
    second = np.random.default_rng([5, 1]).standard_normal((100, 1))
    assert np.array_equal(full[65_536:], second)


def test_gaussian_blocks_are_the_sample_bit_for_bit():
    want = sample_gaussian(1, _PAST_CHUNK, seed=5)
    for rows in (3, 1000, 65_536, 100_000):
        blocks = list(iter_gaussian_chunks(1, _PAST_CHUNK, 5, rows))
        sizes = [len(b) for b in blocks]
        assert max(sizes) <= rows
        assert np.array_equal(np.concatenate(blocks), want)
        # blocks never straddle the seeded chunks: one ends at the boundary
        assert 65_536 in np.cumsum(sizes)


@pytest.mark.parametrize("count", [-5, 2.0, 2.5, True, "3"])
def test_sample_gaussian_rejects_bad_counts(count):
    with pytest.raises(ValueError, match="count"):
        sample_gaussian(3, count, seed=1)


def test_sample_gaussian_is_deterministic():
    assert np.array_equal(sample_gaussian(3, 50, seed=9),
                          sample_gaussian(3, 50, seed=9))
    assert not np.array_equal(sample_gaussian(3, 50, seed=9),
                              sample_gaussian(3, 50, seed=10))


@pytest.mark.parametrize("nnz", [2.5, True, -3, "2", None])
def test_random_kernel_rejects_a_non_integer_nnz_before_drawing(nnz):
    rng = np.random.default_rng(83)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="nnz"):
        random_kernel(rng, 3, 2, nnz)
    assert rng.bit_generator.state == state


def test_random_kernel_draws_the_same_for_any_integer_nnz():
    want = random_kernel(np.random.default_rng(5), 3, 2, 2)
    assert len(want.entries) == 2
    got = random_kernel(np.random.default_rng(5), 3, 2, np.int64(2))
    assert list(got.entries.items()) == list(want.entries.items())
    # nnz beyond the number of orbits gets them all; nnz = 0 draws nothing
    assert len(random_kernel(np.random.default_rng(5), 3, 2, 100).entries) == 6
    assert random_kernel(np.random.default_rng(5), 3, 2, 0).entries == {}


def test_random_kernel_shape():
    rng = np.random.default_rng(83)
    k = random_kernel(rng, 4, 3, 5)
    assert k.dim == 4 and k.order == 3
    assert len(k.entries) <= 5
    for idx in k.entries:
        assert idx == tuple(sorted(idx))
        assert all(0 <= i < 4 for i in idx)
