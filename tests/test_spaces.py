import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normlab.coeffs import Coeffs
from normlab import convex
from normlab import spaces as sp

INF = math.inf

EXACT_SPACES = [
    sp.Lp(1.5), sp.Lp(2.0), sp.Lp(3.0), sp.Lp(INF), sp.L1(),
    sp.QSumLp(4.0, 2.0), sp.QSumLp(1.0, 2.0), sp.QSumLp(INF, 2.0),
    sp.DirectSumLp(2.0, ((2, 1.0), (3, 2.0), (2, INF))),
    sp.DirectSumLp(INF, ((2, 1.0), (3, 2.0), (2, INF))),
]


def space_id(space) -> str:
    """A test id: str(space), with l_1 named by its constructor, K (+)_q l_p
    by QSumLp's arguments, and a dsum by its p, blocks and tail, if any."""
    if space == sp.L1():
        return "L1()"
    if not isinstance(space, sp.DirectSumLp):
        return str(space)
    if space.is_qsum():
        return "QSumLp(q=%r, p=%r)" % (space.p, space.tail)
    tail = "" if space.tail is None else ", tail=%r" % (space.tail,)
    return "DirectSumLp(p=%r, blocks=%r%s)" % (space.p, space.blocks, tail)


def finite_dsum(space) -> bool:
    """A dsum with no tail: rows no wider than its blocks."""
    return isinstance(space, sp.DirectSumLp) and space.tail is None


def coeffs_strategy(max_index=12, max_mag=4.0):
    entry = st.tuples(
        st.integers(min_value=0, max_value=max_index),
        st.complex_numbers(min_magnitude=1e-6, max_magnitude=max_mag,
                           allow_nan=False, allow_infinity=False))
    return st.lists(entry, max_size=8).map(Coeffs.from_pairs)


# -- coeffs ------------------------------------------------------------------

def test_coeffs_pruning_and_support():
    assert Coeffs.zero().support() == frozenset()
    assert (Coeffs.basis(0) + 3.0 * Coeffs.basis(5)).support() == {0, 5}
    assert (Coeffs.basis(2) - Coeffs.basis(2)).support() == frozenset()


def test_coeffs_hash_ignores_dim_hint_and_negation_negates():
    assert hash(Coeffs({1: 2}, dim_hint=5)) == hash(Coeffs({1: 2}))
    assert len({Coeffs({1: 2}, dim_hint=5), Coeffs({1: 2})}) == 1
    assert -Coeffs({1: 2}) == Coeffs({1: -2})


def test_coeffs_json_round_trip():
    x = Coeffs({0: 1 + 2j, 7: -0.5})
    assert Coeffs.from_json_obj([[0, 1, 2], [7.0, -0.5, 0]]) == x
    assert Coeffs.from_json_obj(x.to_json_obj()) == x


@pytest.mark.parametrize("obj", [[[3, 1e-301, 0]],
                                 [[0, 1, 0], [2, 0, 5e-324]],
                                 [[1, 7e-301, 7e-301]]])
def test_coeffs_json_refuses_entries_it_would_prune(obj):
    # construction drops such an entry, so input that holds one was read as
    # a smaller vector with no error
    with pytest.raises(ValueError, match="modulus below 1e-300"):
        Coeffs.from_json_obj(obj)
    assert Coeffs.from_json_obj([[0, 1e-300, 0], [1, 0, 0]]) == \
        Coeffs({0: 1e-300})


@pytest.mark.parametrize("obj", [[[1.5, 1, 0]], [["1", 1, 0]]])
def test_coeffs_non_integral_index_rejected(obj):
    with pytest.raises(ValueError, match="index must be an integer"):
        Coeffs.from_json_obj(obj)


# -- norm values -------------------------------------------------------------

def test_norm_examples():
    assert sp.norm_eval(sp.Lp(2), Coeffs.basis(1) + Coeffs.basis(2)) == \
        pytest.approx(math.sqrt(2), abs=1e-12)
    assert sp.norm_eval(sp.QSumLp(INF, 2), Coeffs.basis(0)) == 1.0
    x = Coeffs({0: 1.0, 1: 0.5, 2: 0.25})
    assert sp.norm_eval(sp.C0(), x) == 1.0
    assert sp.norm_eval(sp.L1(), x) == pytest.approx(7 / 4, abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_lp_norm_survives_overflow():
    assert sp.norm_array(sp.Lp(2), np.array([1e308, 1e308])) == \
        pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)


def test_lp_norm_survives_underflow():
    assert sp.norm_array(sp.Lp(2), np.array([1e-200, 1e-200])) == \
        pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15, abs=0)
    assert sp.norm_array(sp.Lp(3), np.array([1e-120])) == \
        pytest.approx(1e-120, rel=1e-15, abs=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("q,arr,want", [
    (2.0, [1e200], 1e200),
    (2.0, [0.0, 1e200], 1e200),
    (2.0, [1e200, 1e200], math.sqrt(2) * 1e200),
    (800.0, [10.0], 10.0),
    (2.0, [1e-200], 1e-200),
    (2.0, [1e-200, 1e-200], math.sqrt(2) * 1e-200),
])
def test_qsum_norm_survives_overflow_and_underflow(q, arr, want):
    assert sp.norm_array(sp.QSumLp(q, 2.0), np.array(arr)) == \
        pytest.approx(want, rel=1e-15, abs=0)


def test_qsum_functional_subnormal_power_rescales():
    # nrm^(q-1) = 0.4^799 is subnormal; the head weight (alpha/nrm)^(q-1)
    # is taken from moduli scaled by the row's largest, so it is not
    # alpha^(q-1) / nrm^(q-1), which would come out 0
    q = 800.0
    arr = np.array([0.14085629 - 0.23595872j, -0.39135317 + 0.09318986j])
    f = sp.norming_functional_array(sp.QSumLp(q, 2.0), arr)
    alpha, nrm = abs(arr[0]), sp.norm_array(sp.QSumLp(q, 2.0), arr)
    assert f[0] == (alpha / nrm) ** (q - 1) * (np.conj(arr[0]) / alpha) != 0


def test_functional_of_subnormal_rows_is_finite_and_norming():
    # such rows are scaled by 2^600 first; they once gave NaN (division by
    # a subnormal norm) or, below 1e-200, the zero functional
    rows = np.array([[1e-320 + 1e-321j, 5e-321, 0, 0, 0, 0, 0],
                     [0, 3e-322, 0, 0, 1e-323j, 0, 2e-310],
                     [1e-250, 0, -1e-260, 0, 0, 1e-249j, 0]])
    for space in ROW_SPACES:
        _, funcs = sp.norming_functional_rows(space, rows)
        assert np.array_equal(funcs, sp.norming_functional_rows(
            space, rows * 2.0 ** 600)[1])
        for x, f in zip(rows * 2.0 ** 600, funcs):
            nx = sp.norm_array(space, x)
            assert np.sum(f * x) == pytest.approx(nx, rel=1e-12, abs=0)
            assert sp.norm_array(sp.dual_space(space), f) == \
                pytest.approx(1.0, rel=1e-12)
    assert np.all(np.isfinite(
        sp.norming_functional_array(sp.Lp(3), [1e-320 + 1e-321j, 5e-321])))


def test_direct_sum_functional_of_array_ending_inside_a_block():
    space = sp.DirectSumLp(2.0, ((2, 2.0), (3, 2.0)))
    x = np.array([1.0, 0.0, 1.0])
    f = sp.norming_functional_array(space, x)
    assert np.sum(f * x).real == pytest.approx(math.sqrt(2), rel=1e-15)


def test_norm_and_functional_raise_no_overflow_warning():
    # the row-wise rules rescale where a power overflows and keep numpy's
    # warnings to themselves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = np.array([1e308, 1e308])
        assert sp.norm_array(sp.Lp(2), big) == \
            pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
        f = sp.norming_functional_array(sp.Lp(3), big)
        assert np.allclose(f, 2 ** (-2 / 3))
        assert sp.norm_array(sp.QSumLp(2.0, 3.0), np.array([1e200, 1e200])) \
            == pytest.approx(1e200 * math.sqrt(2), rel=1e-15)


ROW_SPACES = EXACT_SPACES + [sp.Lp(1.001), sp.Lp(800.0), sp.QSumLp(800.0, 2.0),
                             sp.DirectSumLp(3.0, ((1, 1.0), (6, 1.5)))]


@pytest.mark.parametrize("space", ROW_SPACES, ids=space_id)
def test_rows_equal_one_row_calls_bitwise(space):
    # each row of a batch is reduced exactly as its one-row call, scales
    # from 1e-300 to 1e300 and all-zero rows included
    rng = np.random.default_rng(8)
    sizes = (1, 3, 7) if finite_dsum(space) else (1, 4, 9, 40)
    for n in sizes:
        X = rng.standard_normal((25, n)) + 1j * rng.standard_normal((25, n))
        X *= 10.0 ** rng.uniform(-300, 300, (25, 1))
        X[3] = 0
        X[5, : n // 2] = 0
        norms = sp.norm_rows(space, X)
        _, funcs = sp.norming_functional_rows(space, X)
        for x, nrm, f in zip(X, norms, funcs):
            assert nrm == sp.norm_array(space, x)
            assert np.array_equal(f, sp.norming_functional_array(space, x))


def edge_rows(rng, n, real=False):
    """30 rows of length n at scales from 1e-300 to 1e300, with a zero
    row, a half-zero row, rows below 1e-150 and subnormal entries."""
    X = rng.standard_normal((30, n))
    if not real:
        X = X + 1j * rng.standard_normal((30, n))
    X *= 10.0 ** rng.uniform(-300, 300, (30, 1))
    X[3] = 0
    X[5, : n // 2] = 0
    X[7:10] = X[7:10] / np.abs(X[7:10]).max() * [[1e-151], [1e-300],
                                                   [1e-310]]
    X[11, -1] = 1e-320
    X[12] = 5e-324
    return X


def reference_norm_rows(space, X):
    """The norms of the rows of X by an l_p rule of their own and a loop over
    a dsum's blocks: the second copy of the rule that norm_rows once kept
    beside the norming-functional rule."""
    def lp_norms(a, p):
        if p == 1:
            return a.sum(axis=-1)
        m = a.max(axis=-1, initial=0.0)
        if p == INF:
            return m
        u = a / (m if m.all() else np.where(m > 0, m, 1.0))[:, None]
        w = u ** (p - 1)
        return m * (w * u).sum(axis=-1) ** (1.0 / p)

    with np.errstate(all="ignore"):
        if isinstance(space, sp.Lp):
            return lp_norms(np.abs(X), space.p)
        vals = np.stack([lp_norms(np.abs(X[:, sl]), r)
                         for sl, r in space.slices(X.shape[-1])], axis=-1)
        return lp_norms(vals, space.p)


def special_rows(rng, n, real):
    """edge_rows with a fifth of the entries past its first 13 rows set to
    0, 5e-324, 1e-310, 1e300, +-inf or NaN (times 1, -1j or 1 + 1j when
    complex); three rows when n = 0."""
    if n == 0:
        return np.zeros((3, 0), dtype=float if real else complex)
    X = edge_rows(rng, n, real)
    pick = rng.random(X.shape) < 0.2
    pick[:13] = False
    vals = rng.choice([0.0, 5e-324, 1e-310, 1e300, INF, -INF, math.nan],
                      pick.sum())
    with np.errstate(invalid="ignore"):
        X[pick] = vals if real else vals * rng.choice([1, -1j, 1 + 1j],
                                                      pick.sum())
    return X


@pytest.mark.parametrize("space", ROW_SPACES, ids=space_id)
def test_functional_rows_return_norm_rows_bitwise(space):
    # norm_rows and the norms norming_functional_rows hands back are the
    # reference rule's bit for bit, inf and NaN included, at scales from
    # 1e-300 to 1e300, on zero rows, on rows below 1e-150 (which the
    # functional takes scaled by 2^600) with subnormal entries, and on rows
    # of width 0; on a row with finite entries and a nonzero norm, F pairs
    # with the row to its norm and has unit dual norm
    rng = np.random.default_rng(9)
    sizes = (0, 1, 3, 7) if finite_dsum(space) else (0, 1, 4, 9, 40)
    dual = sp.dual_space(space)
    for n in sizes:
        for real in (False, True):
            X = special_rows(rng, n, real)
            ref = reference_norm_rows(space, X)
            norms, funcs = sp.norming_functional_rows(space, X)
            assert norms.tobytes() == ref.tobytes()
            assert sp.norm_rows(space, X).tobytes() == ref.tobytes()
            finite = np.isfinite(X).all(axis=-1)
            assert np.all(np.isfinite(funcs[finite]))
            live = finite & (ref > 0)
            Y = X[live]
            Y[np.abs(Y).max(axis=-1, initial=0.0) < 1e-150] *= 2.0 ** 600
            pair = np.sum(funcs[live] * Y, axis=-1)
            assert np.allclose(pair / reference_norm_rows(space, Y), 1.0,
                               rtol=0, atol=1e-12)
            assert np.allclose(sp.norm_rows(dual, funcs[live]), 1.0,
                               rtol=0, atol=1e-12)


def test_qsum_functionals_are_norming_at_every_scale():
    # random q and p (and q = 1, inf, 800), widths 1 to 6 and the edge rows:
    # each functional pairs with x / ||x|| to 1 and has unit dual norm, and
    # a zero row gets f = 0; rows below 1e-150 are paired scaled by 2^600
    rng = np.random.default_rng(6)
    for q in [1.0, INF, 800.0, *rng.uniform(1.01, 12.0, 5)]:
        space = sp.QSumLp(q, float(rng.uniform(1.01, 12.0)))
        for n in range(1, 7):
            X = edge_rows(rng, n)
            norms, funcs = sp.norming_functional_rows(space, X)
            live = norms > 0
            assert not np.any(funcs[~live])
            Y = X[live]
            Y[np.abs(Y).max(axis=-1) < 1e-150] *= 2.0 ** 600
            pair = np.sum(funcs[live] * (Y / sp.norm_rows(space, Y)[:, None]),
                          axis=-1)
            assert np.allclose(pair, 1.0, rtol=0, atol=1e-13)
            assert np.allclose(sp.norm_rows(sp.dual_space(space), funcs[live]),
                               1.0, rtol=0, atol=1e-13)


def test_qsum_is_the_dsum_with_an_l_p_tail_bit_for_bit():
    # K (+)_q l_p on rows of width n was normed as the dsum with blocks
    # (1, l_1) and (n - 1, l_p); the tail must give the same bits, on its
    # dual too.  A one-coordinate block is now normed as l_1, so the
    # explicit rule's l_p block has size max(n - 1, 2): a width-2 row cuts
    # it to the one coordinate that the l_p rule took
    for q in (1.0, 1.5, 4.0, 800.0, INF):
        for p in (1.5, 2.0, 3.0):
            rng = np.random.default_rng(12)
            space = sp.QSumLp(q, p)
            assert isinstance(space, sp.DirectSumLp)
            for n in range(1, 41):
                explicit = sp.DirectSumLp(q, ((1, 1.0), (max(n - 1, 2), p)))
                pairs = ((space, explicit),
                         (sp.dual_space(space), sp.dual_space(explicit)))
                for X in (edge_rows(rng, n), edge_rows(rng, n, real=True)):
                    for tail, rule in pairs:
                        assert np.array_equal(sp.norm_rows(tail, X),
                                              sp.norm_rows(rule, X))
                        for a, b in zip(sp.norming_functional_rows(tail, X),
                                        sp.norming_functional_rows(rule, X)):
                            assert np.array_equal(a, b)


def test_c0_and_l1_are_lp_at_the_endpoints():
    assert sp.C0() == sp.Lp(INF) and sp.L1() == sp.Lp(1.0)
    assert sp.dual_space(sp.C0()) == sp.L1()
    assert sp.dual_space(sp.L1()) == sp.C0()
    # past p = 2^53 the conjugate exponent rounds to 1
    assert sp.dual_space(sp.Lp(1e308)) == sp.L1()
    for p in (0.5, 0.0, -INF, math.nan):
        with pytest.raises(ValueError, match="p >= 1"):
            sp.Lp(p)


def test_one_coordinate_blocks_take_the_l1_rule():
    space = sp.DirectSumLp(3.0, ((1, INF), (2, INF), (1, 2.0)), 1.5)
    assert space.blocks == ((1, 1.0), (2, INF), (1, 1.0))
    assert sp.dual_space(sp.QSumLp(4.0, 2.0)) == sp.QSumLp(4 / 3, 2.0)
    with pytest.raises(ValueError, match="block exponents"):
        sp.DirectSumLp(2.0, ((1, 0.5),))
    with pytest.raises(ValueError, match="tail exponent"):
        sp.DirectSumLp(2.0, ((1, 1.0),), 0.5)


def test_qsum_inf_functional_takes_the_head_on_a_tie():
    # head and tail both 1: the argmax of the outer l_inf picks the head
    f = sp.norming_functional_array(sp.QSumLp(INF, 2.0), [1.0, 0.6, 0.8])
    assert np.array_equal(f, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("space", ROW_SPACES + [sp.QSumLp(1.5, 3.0)],
                         ids=space_id)
def test_norm_scales_exactly_by_powers_of_two(space):
    # each rule scales a row by its largest modulus first, so ||2^k x|| is
    # 2^k ||x|| bit for bit at 1e-200 as at 1; a q-sum taking s^(1/q) of
    # s = 1e-300 was once 2.6e-14 off on [3e-200, 1e-200]
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))
    X *= 10.0 ** rng.uniform(-200, 100, (20, 1))
    X[0] = [3e-200, 1e-200, 0, 0, 0]
    assert np.array_equal(2.0 ** -664 * sp.norm_rows(space, 2.0 ** 664 * X),
                          sp.norm_rows(space, X))


@pytest.mark.parametrize("space", ROW_SPACES, ids=space_id)
def test_real_rows_follow_the_complex_rule(space):
    # a real array is taken in float64 and gets a real functional; its
    # norms are the complex rule's bit for bit, and on l_p, 1 < p < inf, so
    # is its functional; elsewhere a sign x/|x| is exactly +-1 in real
    # division where complex division may give 1 - 2^-53, so the functional
    # may move by 1 ulp; rows from 1e-300 to 1e300, zero rows, rows below
    # 1e-150 and subnormal rows
    rng = np.random.default_rng(10)
    sizes = (1, 3, 7) if finite_dsum(space) else (1, 4, 9, 40)
    for n in sizes:
        X = edge_rows(rng, n, real=True)
        norms, funcs = sp.norming_functional_rows(space, X)
        cnorms, cfuncs = sp.norming_functional_rows(space, X.astype(complex))
        assert funcs.dtype == float and cfuncs.dtype == complex
        assert not np.any(cfuncs.imag)
        assert np.array_equal(norms, cnorms)
        assert np.array_equal(norms, sp.norm_rows(space, X))
        if isinstance(space, sp.Lp) and 1 < space.p < INF:
            assert np.array_equal(funcs, cfuncs.real)
        else:
            assert np.all(np.abs(funcs - cfuncs.real)
                          <= np.spacing(np.abs(cfuncs.real)))
        if isinstance(space, sp.Lp) and space.p in (1, INF):
            assert set(np.unique(funcs)) <= {-1.0, 0.0, 1.0}
        if getattr(space, "tail", None) is not None and space.p in (1, INF):
            assert set(np.unique(funcs[:, 0])) <= {-1.0, 0.0, 1.0}


def test_integer_and_bool_rows_are_taken_as_float64():
    for X in (np.array([[3, -4], [0, 0]]), np.array([[True, False]])):
        norms, funcs = sp.norming_functional_rows(sp.Lp(3.0), X)
        assert funcs.dtype == norms.dtype == float
        assert np.array_equal(funcs, sp.norming_functional_rows(
            sp.Lp(3.0), X.astype(float))[1])


def test_direct_sum_support_check():
    space = sp.DirectSumLp(2.0, ((2, 2.0),))
    with pytest.raises(ValueError):
        sp.norm_eval(space, Coeffs.basis(5))
    row = np.array([[1.0, 1.0, 5.0]])
    for rule in (sp.norm_rows, sp.norming_functional_rows,
                 lambda s, X: sp.norming_functional_array(s, X[0])):
        with pytest.raises(ValueError, match="block partition"):
            rule(space, row)
    # a zero past the blocks is no support
    assert sp.norm_rows(space, [[3.0, 4.0, 0.0]])[0] == 5.0


def test_norm_eval_on_a_dsum_matches_the_dense_row():
    # norm_eval compacts each listed block to its support; the dense row is
    # the reference, and zeros inside a block regroup its pairwise sum, so
    # the two may differ in the last bits
    rng = np.random.default_rng(12)
    for space in ROW_SPACES:
        if not isinstance(space, sp.DirectSumLp):
            continue
        n = space.total_size() if finite_dsum(space) else 30
        for _ in range(100):
            arr = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            arr[rng.random(n) < 0.5] = 0
            assert sp.norm_eval(space, Coeffs.from_array(arr)) == \
                pytest.approx(sp.norm_array(space, arr),
                              rel=8 * np.finfo(float).eps)


@pytest.mark.parametrize("space", EXACT_SPACES, ids=space_id)
@settings(max_examples=40, deadline=None)
@given(x=coeffs_strategy(max_index=6), y=coeffs_strategy(max_index=6),
       lam=st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                              allow_infinity=False))
def test_norm_axioms(space, x, y, lam):
    nx = sp.norm_eval(space, x)
    assert nx >= 0
    if x.entries:
        assert nx > 0
    assert sp.norm_eval(space, lam * x) == pytest.approx(abs(lam) * nx,
                                                         abs=1e-12, rel=1e-12)
    assert sp.norm_eval(space, x + y) <= nx + sp.norm_eval(space, y) + 1e-12


# -- norming functionals -----------------------------------------------------

@pytest.mark.parametrize("space", [s for s in EXACT_SPACES], ids=space_id)
@settings(max_examples=40, deadline=None)
@given(x=coeffs_strategy(max_index=6), data=st.data())
def test_norming_functional_attains(space, x, data):
    if not x.entries:
        return
    # a dsum array may end inside a block, or at a block's end short of
    # the last block
    width = (data.draw(st.integers(x.dim_hint, space.total_size()))
             if finite_dsum(space) else 8)
    arr = x.to_array(width)
    f = sp.norming_functional_array(space, arr)
    nx = sp.norm_array(space, arr)
    assert np.real(np.sum(f * arr)) == pytest.approx(nx, rel=1e-10, abs=1e-10)
    assert abs(np.imag(np.sum(f * arr))) < 1e-10
    assert sp.norm_array(sp.dual_space(space), f) == pytest.approx(
        1.0, rel=1e-10)


def test_unknown_space_tag_and_renormed_dual_raise():
    with pytest.raises(ValueError, match="unknown space tag 'xx'"):
        sp.space_from_json_obj({"space": "xx"})
    with pytest.raises(TypeError, match="no computable dual"):
        sp.dual_space(sp.RenormedL2())


def test_dual_space_involution():
    def exps(s):
        if isinstance(s, sp.Lp):
            return (s.p,)
        if isinstance(s, sp.DirectSumLp):
            tail = () if s.tail is None else (s.tail,)
            return (s.p,) + tuple(r for _, r in s.blocks) + tail
        return ()

    for space in EXACT_SPACES:
        dd = sp.dual_space(sp.dual_space(space))
        assert type(dd) is type(space)
        assert exps(dd) == pytest.approx(exps(space), rel=1e-12)


# -- components and defects ---------------------------------------------------

def abg_components(x: Coeffs, p: float) -> tuple:
    """(alpha, beta, gamma) split of a QSum vector: |x_0|, |x_1|, tail l_p."""
    tail = np.array([v for i, v in x.entries.items() if i >= 2])
    return abs(x[0]), abs(x[1]), sp.norm_array(sp.Lp(p), tail)


def test_abg_components():
    c = 2.0 ** -0.25
    a, b, g = abg_components(c * (Coeffs.basis(0) + Coeffs.basis(3)), 2.0)
    assert (a, b, g) == pytest.approx((c, 0.0, c), abs=1e-14)
    assert abg_components(Coeffs.basis(1), 2.0) == (0.0, 1.0, 0.0)
    assert abg_components(Coeffs.basis(2) + Coeffs.basis(3), 2.0)[2] == \
        pytest.approx(math.sqrt(2), abs=1e-14)


def test_projection_idempotent_contractive():
    x = Coeffs({0: 1.0, 1: 2.0, 5: -1j})
    B = {0, 5}
    px = x.restrict(B)
    assert px.restrict(B) == px
    assert px == Coeffs({0: 1.0, 5: -1j})
    assert x.restrict(set()) == Coeffs.zero()
    for space in EXACT_SPACES[:5]:
        assert sp.norm_eval(space, px) <= sp.norm_eval(space, x) + 1e-12


def test_p_space_defect_disjoint_is_zero():
    x = Coeffs({0: 1.0, 1: 0.5})
    us = [Coeffs.basis(10), Coeffs.basis(11) + Coeffs.basis(12)]
    for p in (1.5, 2.0, 3.0):
        assert sp.p_space_defect(x, us, p, sp.Lp(p)) == [0.0, 0.0]
    space = sp.DirectSumLp(2.0, ((2, 2.0), (20, 2.0)))
    assert sp.p_space_defect(x, us, 2.0, space) == [0.0, 0.0]


def test_p_space_defect_zero_vector():
    assert sp.p_space_defect(Coeffs.zero(), [Coeffs.basis(1)], 2.0,
                             sp.Lp(2.0)) == [0.0]


# -- disjointify ---------------------------------------------------------------

def test_disjointify_already_disjoint():
    xs = [Coeffs.basis(n) for n in range(1, 6)]
    res = sp.disjointify(xs, [0.1] * 5)
    assert res.ok
    assert res.indices == (1, 2, 3, 4, 5)
    assert res.vectors == tuple(xs)


def test_disjointify_strips_leakage():
    xs = [Coeffs.basis(n) + (2.0 ** -n) * Coeffs.basis(0)
          for n in range(1, 30)]
    eps = [2.0 ** -k for k in range(1, 7)]
    res = sp.disjointify(xs, eps)
    assert res.ok
    supports = [v.support() for v in res.vectors]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not (supports[i] & supports[j])
    for k, (idx, u) in enumerate(zip(res.indices, res.vectors)):
        assert sp.norm_eval(sp.Lp(2), xs[idx - 1] - u) < eps[k]


def test_disjointify_constant_sequence_fails():
    xs = [Coeffs.basis(0)] * 8
    res = sp.disjointify(xs, [0.01] * 4)
    assert not res.ok
    assert res.failed_at == 2


# -- renormed l_2 --------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(x=coeffs_strategy(max_index=8, max_mag=2.0))
def test_renormed_equivalence_bounds(x):
    l2 = sp.norm_eval(sp.Lp(2), x)
    v, _ = convex.minkowski_norm(x, 12)
    assert v >= 2.0 ** -0.5 * l2 - 1e-6
    assert v <= 2.0 * l2 + 1e-6


def test_renormed_coincides_off_first_coords():
    u = Coeffs({4: 0.3, 5: 0.4, 0: 0.1})
    l2 = sp.norm_eval(sp.Lp(2), u)
    assert convex.minkowski_norm(u, 12)[0] == pytest.approx(l2, abs=1e-6)
    assert convex.minkowski_norm(Coeffs.basis(2) + Coeffs.basis(3), 12)[0] \
        == pytest.approx(1.0, abs=1e-6)


def test_renormed_norm_only_in_convex():
    with pytest.raises(TypeError):
        sp.norm_eval(sp.RenormedL2(), Coeffs.basis(2))


# -- serialization --------------------------------------------------------------

SPACE_JSON = [
    ('{"space":"lp","p":3}', sp.Lp(3.0)),
    ('{"space":"c0"}', sp.C0()),
    ('{"space":"l1"}', sp.L1()),
    ('{"space":"lp","p":1}', sp.Lp(1.0)),
    ('{"space":"lp","p":"inf"}', sp.Lp(INF)),
    ('{"space":"qsum","q":4,"p":2}', sp.QSumLp(4.0, 2.0)),
    ('{"space":"qsum","q":"inf","p":2}', sp.QSumLp(INF, 2.0)),
    ('{"space":"dsum","p":2,"blocks":[[2,1],[3,2],[2,"inf"]]}',
     sp.DirectSumLp(2.0, ((2, 1.0), (3, 2.0), (2, INF)))),
    ('{"space":"renorm"}', sp.RenormedL2(64)),
    ('{"space":"renorm","trunc":16}', sp.RenormedL2(16)),
]


def test_space_json_round_trip():
    """Every --space tag, written as literal JSON, parses to its space."""
    for text, space in SPACE_JSON:
        assert sp.space_from_json_obj(json.loads(text)) == space


@pytest.mark.parametrize("text", [
    '{"space":"dsum","p":2,"blocks":[[1.5,2]]}',
    '{"space":"renorm","trunc":2.7}',
])
def test_space_non_integral_size_rejected(text):
    with pytest.raises(ValueError, match="must be an integer"):
        sp.space_from_json_obj(json.loads(text))


def test_qseq_rule():
    qs = sp.QSeqParams()
    assert qs.q(1) == 0.625
    vals = qs.q_array(100)
    assert np.all(vals > 0.5) and np.all(vals < 2.0 ** -0.5)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        qs.q(0)
