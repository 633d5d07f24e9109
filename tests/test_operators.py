import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normlab.coeffs import Coeffs
from normlab import operators as op
from normlab import spaces as sp


def coeffs_strategy(max_index=12):
    entry = st.tuples(
        st.integers(min_value=0, max_value=max_index),
        st.complex_numbers(min_magnitude=1e-6, max_magnitude=4.0,
                           allow_nan=False, allow_infinity=False))
    return st.lists(entry, max_size=6).map(Coeffs.from_pairs)


SAMPLE_OPS = [
    op.Identity(),
    op.ScalarMul(1.5 - 0.5j),
    op.Diagonal("one_minus_2pow"),
    op.Diagonal("explicit", (1.0, 2.0, 3j)),
    op.RankOne(Coeffs.basis(1), Coeffs.basis(0)),
    op.Sum((op.Identity(), op.ScalarMul(2.0))),
    op.Compose((op.Diagonal("one_minus_2pow"), op.SimpleS(2.0, 4.0))),
    op.Matrix(((1, 2), (3, 4))),
    op.SimpleS(2.0, 4.0),
    op.SimpleR(2.0, 4.0),
    op.Tc0(),
    op.Tl1(),
]


# -- application ---------------------------------------------------------------

def test_tc0_formula_and_nilpotency():
    for n in range(1, 8):
        assert op.apply(op.Tc0(), Coeffs.basis(n)) == \
            Coeffs({0: 2.0 ** -n})
    x = Coeffs({1: 2.0, 3: -1j, 0: 5.0})
    assert op.apply(op.Tc0(), op.apply(op.Tc0(), x)) == Coeffs.zero()
    assert op.apply(op.Tl1(), op.apply(op.Tl1(), x)) == Coeffs.zero()


def test_tl1_formula():
    for n in range(1, 6):
        assert op.apply(op.Tl1(), Coeffs.basis(n)) == \
            Coeffs({0: 1.0 - 2.0 ** -n})


def test_simple_s_swap():
    assert op.apply(op.SimpleS(2, 4), Coeffs.basis(0) + Coeffs.basis(1)) == \
        Coeffs.basis(0) + Coeffs.basis(1)
    out = op.apply(op.SimpleS(2, 4), Coeffs.basis(2))
    assert out == Coeffs({2: 2.0 / 3.0})


def test_sex_formula():
    S = op.catalog_build("sex")
    u = Coeffs.basis(2) + Coeffs.basis(3)
    assert op.apply(S, u) == Coeffs.basis(1) + Coeffs.basis(2) + \
        Coeffs.basis(3)
    # (S - I)^2 = 0
    I = op.Identity()
    x = Coeffs({2: 1 + 1j, 5: -2.0})
    d = op.apply(S, x) - x
    dd = op.apply(S, d) - d
    assert dd == Coeffs.zero()


@settings(max_examples=30, deadline=None)
@given(x=coeffs_strategy())
def test_nilpotency_random(x):
    for T in (op.Tc0(), op.Tl1()):
        assert op.apply(T, op.apply(T, x)) == Coeffs.zero()


@settings(max_examples=30, deadline=None)
@given(x=coeffs_strategy())
def test_simple_inverse_identity(x):
    S, R = op.SimpleS(2.0, 4.0), op.SimpleR(2.0, 4.0)
    rs = op.apply(R, op.apply(S, x))
    sr = op.apply(S, op.apply(R, x))
    for y in (rs, sr):
        diff = y - x
        assert all(abs(v) < 1e-12 for v in diff.entries.values())


# -- truncation ----------------------------------------------------------------

def test_truncate_identity():
    assert np.array_equal(op.truncate_matrix(op.Identity(), 3), np.eye(3))


@pytest.mark.parametrize(
    "T", SAMPLE_OPS + [op.Transpose(op.Tl1()),
                       op.Compose((op.Tc0(), op.Diagonal("one_plus_inv")))],
    ids=lambda t: type(t).__name__)
def test_section_is_leading_block_of_wider_section(T):
    # callers slice smaller sections out of one wide one, so this is bitwise
    wide = op.truncate_matrix(T, 24)
    for n in (1, 2, 5, 16, 24):
        block = np.ascontiguousarray(wide[:n, :n])
        assert op.truncate_matrix(T, n).tobytes() == block.tobytes()


def test_truncate_tc0():
    M = op.truncate_matrix(op.Tc0(), 3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 1] = 0.5
    expect[0, 2] = 0.25
    assert np.allclose(M, expect, atol=0)


def test_truncate_simple_s():
    M = op.truncate_matrix(op.SimpleS(2, 4), 4)
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = 1.0
    expect[2, 2] = 2.0 / 3.0
    expect[3, 3] = 3.0 / 4.0
    assert np.allclose(M, expect, atol=0)


@pytest.mark.parametrize("T", SAMPLE_OPS, ids=lambda t: type(t).__name__)
@settings(max_examples=20, deadline=None)
@given(x=coeffs_strategy(max_index=9))
def test_truncate_consistent_with_apply(T, x):
    N = 16
    M = op.truncate_matrix(T, N)
    lhs = M @ x.to_array(N)
    rhs = op.apply(T, x).to_array(N)
    assert np.allclose(lhs, rhs, atol=1e-12)


# -- duality -------------------------------------------------------------------

@pytest.mark.parametrize("T", SAMPLE_OPS, ids=lambda t: type(t).__name__)
@settings(max_examples=20, deadline=None)
@given(x=coeffs_strategy(max_index=20), y=coeffs_strategy(max_index=20))
def test_pairing_identity(T, x, y):
    N = 64
    Ts = op.dual_operator(T)
    M = op.truncate_matrix(T, N)
    Ms = op.truncate_matrix(Ts, N)
    xa, ya = x.to_array(N), y.to_array(N)
    lhs = np.sum((M @ xa) * ya)
    rhs = np.sum(xa * (Ms @ ya))
    assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


def test_dual_examples():
    D = op.Diagonal("one_minus_2pow")
    assert op.dual_operator(D) == D
    f, v = Coeffs.basis(1), Coeffs.basis(0)
    assert op.dual_operator(op.RankOne(f, v)) == op.RankOne(v, f)
    # dual of the c_0 nilpotent maps e_0 to sum 2^{-n} e_n on truncations
    Ms = op.truncate_matrix(op.dual_operator(op.Tc0()), 5)
    assert np.allclose(Ms[:, 0], [0, 0.5, 0.25, 0.125, 0.0625], atol=0)
    assert np.allclose(Ms[:, 1:], 0, atol=0)


def test_transpose_apply_raises():
    with pytest.raises(op.UnboundedImageError):
        op.apply(op.dual_operator(op.Tc0()), Coeffs.basis(0))


# -- catalog and serialization -------------------------------------------------

def test_catalog_diag_d():
    D = op.catalog_build("diag_d")
    assert [D.entry(n) for n in range(3)] == [0.5, 0.75, 0.875]


def test_catalog_validation():
    with pytest.raises(ValueError):
        op.catalog_build("simple_s", p=1.0, q=4.0)
    with pytest.raises(ValueError):
        op.catalog_build("nope")
    with pytest.raises(ValueError):
        op.Diagonal("unknown_rule")


@pytest.mark.parametrize("p, q", [(0.5, -3.0), (1.0, 2.0), (math.inf, 2.0),
                                  (2.0, 0.5), (math.nan, 2.0)])
def test_swap_operators_share_validation(p, q):
    for name in ("simple_s", "simple_r"):
        with pytest.raises(ValueError, match="needs"):
            op.catalog_build(name, p=p, q=q)


@pytest.mark.parametrize("build", [
    lambda bad: op.Matrix(((1.0, bad), (0.0, 1.0))),
    lambda bad: op.Diagonal("explicit", (1.0, bad)),
    lambda bad: op.ScalarMul(bad),
    lambda bad: Coeffs.from_json_obj([[0, 1.0, 0.0], [1, bad, 0.0]]),
    lambda bad: Coeffs.from_json_obj([[0, 0.0, bad]]),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_compose_right_to_left():
    T = op.Compose((op.ScalarMul(2.0), op.RankOne(Coeffs.basis(0),
                                                  Coeffs.basis(1))))
    assert op.apply(T, Coeffs.basis(0)) == Coeffs({1: 2.0})


# literal --operator JSON of SAMPLE_OPS and of the dual of Tc0, in order
SAMPLE_JSON = [
    '{"op":"identity"}',
    '{"op":"scalar","re":1.5,"im":-0.5}',
    '{"op":"diagonal","rule":"one_minus_2pow"}',
    '{"op":"diagonal","rule":"explicit","values":[[1,0],[2,0],[0,3]]}',
    '{"op":"rank_one","functional":[[1,1,0]],"vector":[[0,1,0]]}',
    '{"op":"sum","terms":[{"op":"identity"},{"op":"scalar","re":2}]}',
    '{"op":"compose","factors":[{"op":"diagonal","rule":"one_minus_2pow"},'
    '{"op":"catalog","name":"simple_s","p":2,"q":4}]}',
    '{"op":"matrix","rows":[[[1,0],[2,0]],[[3,0],[4,0]]]}',
    '{"op":"catalog","name":"simple_s","p":2,"q":4}',
    '{"op":"catalog","name":"simple_r","p":2,"q":4}',
    '{"op":"catalog","name":"tc0"}',
    '{"op":"catalog","name":"tl1"}',
    '{"op":"transpose","inner":{"op":"catalog","name":"tc0"}}',
]


@pytest.mark.parametrize(
    "T, text", zip(SAMPLE_OPS + [op.dual_operator(op.Tc0())], SAMPLE_JSON),
    ids=[type(t).__name__ for t in SAMPLE_OPS] + ["Transpose"])
def test_operator_json_round_trip(T, text):
    """Every --operator tag, written as literal JSON, parses to T."""
    back = op.operator_from_json_obj(json.loads(text))
    assert back == T
    assert np.array_equal(op.truncate_matrix(back, 12),
                          op.truncate_matrix(T, 12))


@pytest.mark.parametrize("text, T", [
    ('{"op":"catalog","name":"sex"}',
     op.Sum((op.Identity(), op.RankOne(Coeffs.basis(2), Coeffs.basis(1))))),
    ('{"op":"catalog","name":"diag_d"}', op.Diagonal("one_minus_2pow")),
    ('{"op":"catalog","name":"simple_s","p":2,"q":"inf"}',
     op.SimpleS(2.0, math.inf)),
    ('{"op":"diagonal","rule":"one_plus_inv"}', op.Diagonal("one_plus_inv")),
])
def test_catalog_json_names(text, T):
    assert op.operator_from_json_obj(json.loads(text)) == T


@pytest.mark.parametrize("rows", [(), ((1.0, 2.0), (3.0,))])
def test_matrix_rows_must_match(rows):
    with pytest.raises(ValueError, match="rows"):
        op.Matrix(rows)
