import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normlab.coeffs import Coeffs
from normlab import convex
from normlab import spaces as sp

INF = math.inf

EXACT_SPACES = [
    sp.Lp(1.5), sp.Lp(2.0), sp.Lp(3.0), sp.Lp(INF),
    sp.C0(), sp.L1(),
    sp.QSumLp(4.0, 2.0), sp.QSumLp(1.0, 2.0), sp.QSumLp(INF, 2.0),
    sp.DirectSumLp(2.0, ((2, 1.0), (3, 2.0), (2, INF))),
    sp.DirectSumLp(INF, ((2, 1.0), (3, 2.0), (2, INF))),
]


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


def test_coeffs_json_round_trip():
    x = Coeffs({0: 1 + 2j, 7: -0.5})
    assert Coeffs.from_json_obj([[0, 1, 2], [7.0, -0.5, 0]]) == x
    assert Coeffs.from_json_obj(x.to_json_obj()) == x


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


def test_qsum_combine_unchanged_on_ordinary_pairs():
    # away from over- and underflow the direct formula is used bit for bit
    rng = np.random.default_rng(5)
    alphas, tails = 10.0 ** rng.uniform(-3, 3, (2, 20000))
    qs = rng.uniform(1.01, 12.0, 20000)
    for alpha, tail, q in zip(alphas, tails, qs):
        want = (alpha ** q + float(tail) ** q) ** (1.0 / q)
        assert sp.qsum_combine(alpha, float(tail), float(q)) == want


def test_direct_sum_support_check():
    space = sp.DirectSumLp(2.0, ((2, 2.0),))
    with pytest.raises(ValueError):
        sp.norm_eval(space, Coeffs.basis(5))


@pytest.mark.parametrize("space", EXACT_SPACES, ids=str)
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

@pytest.mark.parametrize("space", [s for s in EXACT_SPACES], ids=str)
@settings(max_examples=40, deadline=None)
@given(x=coeffs_strategy(max_index=6))
def test_norming_functional_attains(space, x):
    if not x.entries:
        return
    arr = x.to_array(8 if not isinstance(space, sp.DirectSumLp)
                     else space.total_size())
    f = sp.norming_functional_array(space, arr)
    nx = sp.norm_array(space, arr)
    assert np.real(np.sum(f * arr)) == pytest.approx(nx, rel=1e-10, abs=1e-10)
    assert abs(np.imag(np.sum(f * arr))) < 1e-10
    assert sp.norm_array(sp.dual_space(space), f) == pytest.approx(
        1.0, rel=1e-10)


def test_dual_space_involution():
    def exps(s):
        if isinstance(s, sp.Lp):
            return (s.p,)
        if isinstance(s, sp.QSumLp):
            return (s.q, s.p)
        if isinstance(s, sp.DirectSumLp):
            return (s.p,) + tuple(r for _, r in s.blocks)
        return ()

    for space in EXACT_SPACES:
        dd = sp.dual_space(sp.dual_space(space))
        if isinstance(space, (sp.C0, sp.L1)) or (isinstance(space, sp.Lp)
                                                 and space.p == INF):
            continue  # c0** is l_inf; only reflexive variants round-trip
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
    for space in EXACT_SPACES[:6]:
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
