import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normlab.coeffs import MAX_TRUNC, PRUNE_TOL, Coeffs
from normlab import operators as op
from normlab import opnorm
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


def column_section(T, N):
    """The reference section: a Sum, Transpose or Matrix from its parts,
    anything else column by column from apply's image of e_j."""
    if isinstance(T, op.Transpose):
        return column_section(T.inner, N).T
    out = np.zeros((N, N), dtype=complex)
    if isinstance(T, op.Sum):
        for term in T.terms:
            out = out + column_section(term, N)
        return out
    if isinstance(T, op.Matrix):
        m = T.as_array()
        k = min(N, m.shape[0]), min(N, m.shape[1])
        out[: k[0], : k[1]] = m[: k[0], : k[1]]
        return out
    for j in range(N):
        for i, v in op.apply(T, Coeffs.basis(j)).entries.items():
            if i < N:
                out[i, j] = v
    return out


# parts that make signed zeros, products that overflow to inf (and inf -
# inf), and products below PRUNE_TOL (1e-160 * 1e-150), which apply prunes
EDGE_PARTS = (0.0, -0.0, 1.0, -1.0, 1e190, -1e190, 1e-190, -1e-160, 1e-150,
              2.5, -0.3)


def rank_one_draws(count, seed=0):
    """RankOne operators with a few entries each, at indices up to 410:
    parts drawn from EDGE_PARTS and log-uniform moduli in [1e-190, 1e190],
    or whole entries of modulus below 1.5e-155."""
    rng = np.random.default_rng(seed)

    def part():
        if rng.random() < 0.6:
            return float(rng.choice(EDGE_PARTS))
        return float(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-190, 190))

    def entry():
        if rng.random() < 0.25:     # two of these multiply below PRUNE_TOL
            return 1e-155 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return complex(part(), part())

    def coeffs():
        top = 4 if rng.random() < 0.5 else 410
        return Coeffs({int(rng.integers(0, top)): entry()
                       for _ in range(rng.integers(0, 5))})

    return [op.RankOne(coeffs(), coeffs()) for _ in range(count)]


SIGNED_OPS = [
    op.ScalarMul(complex(-1.0, -0.0)),
    op.ScalarMul(1e-310),
    op.Diagonal("one_plus_inv"),
    op.Diagonal("explicit", (1.0, complex(-2.0, -0.0), -0.0, 1e-310, 3j)),
    op.RankOne(Coeffs({0: 1e-160, 2: 1e190, 5: -1.0}),
               Coeffs({1: 1e-150j, 2: complex(-1e100, 1e100), 3: -0.5})),
]
DIRECT_OPS = [T for T in SAMPLE_OPS
              if not isinstance(T, (op.Sum, op.Compose, op.Matrix))]
SECTION_OPS = (
    DIRECT_OPS + SIGNED_OPS
    + [op.catalog_build("sex"), op.Sum(()),
       op.Sum((op.Transpose(op.Tc0()), op.ScalarMul(complex(-1.0, -0.0)))),
       op.Sum(tuple(SIGNED_OPS)), op.Sum((op.Tl1(), op.SimpleR(3.0, 2.0))),
       # -0.0 parts that no later term's +0.0 clears
       op.Sum(SIGNED_OPS[:1]), op.Sum((SIGNED_OPS[0], SIGNED_OPS[3]))]
    + [op.Transpose(T) for T in DIRECT_OPS + SIGNED_OPS]
    + [op.Compose((op.Diagonal("one_minus_2pow"), op.SimpleS(2.0, 4.0),
                   op.RankOne(Coeffs({0: 2.0, 7: -1j}),
                              Coeffs({1: 1.0, 3: 0.5}))))])


@pytest.mark.parametrize("T", SECTION_OPS, ids=lambda t: type(t).__name__)
def test_section_equals_the_column_built_one_bitwise(T):
    for N in (1, 2, 3, 17, 401):
        assert (op.truncate_matrix(T, N).tobytes()
                == column_section(T, N).tobytes())


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
def test_rank_one_sections_equal_the_column_built_ones_bitwise():
    draws = rank_one_draws(60)
    overflow = pruned = 0
    for T in draws + [op.Sum(tuple(draws[:30])),
                      op.Transpose(op.Sum(tuple(draws[30:])))]:
        for N in (1, 2, 3, 17, 401):
            ref = column_section(T, N)
            assert op._section(T, N).tobytes() == ref.tobytes()
            overflow += not np.isfinite(ref).all()
        if isinstance(T, op.RankOne):
            pruned += any(0 < abs(f * v) < PRUNE_TOL
                          for j, f in T.functional.entries.items()
                          for i, v in T.vector.entries.items()
                          if max(i, j) < 401)
    # the draws reach both edges
    assert overflow and pruned


def test_tc0_section_prunes_as_apply():
    # 2^-j falls below PRUNE_TOL from j = 997 on
    ref = column_section(op.Tc0(), 1100)
    assert ref[0, 996] != 0 and not ref[0, 997:].any()
    assert op.truncate_matrix(op.Tc0(), 1100).tobytes() == ref.tobytes()


def test_sections_raise_no_warning():
    # SimpleR's (n + 1)/n must not be taken at n = 0
    ops = SAMPLE_OPS + [op.catalog_build("sex"), op.catalog_build("diag_d"),
                        op.Transpose(op.Tc0()), op.Sum(())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in ops:
            for N in (1, 2, 3):
                op.truncate_matrix(T, N)


@pytest.mark.parametrize("N", [0, -1, MAX_TRUNC + 1, 10 ** 12])
def test_section_size_is_bounded(N):
    with pytest.raises(ValueError, match="positive|largest truncation"):
        op.truncate_matrix(op.Identity(), N)


@pytest.mark.parametrize("T", [op.Diagonal("one_minus_2pow"),
                               op.Diagonal("one_plus_inv"), SIGNED_OPS[3]],
                         ids=lambda t: t.rule)
def test_diagonal_bypass_reads_the_section_diagonal(T):
    # operator_norm's bypass and the section share diagonal_entries
    for N in (1, 3, 17):
        ref = max(abs(v) for v in np.diagonal(column_section(T, N)))
        assert opnorm.operator_norm(T, sp.Lp(3.0), N).value == ref


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


def test_dual_of_a_transpose_is_its_inner_operator():
    assert op.dual_operator(op.Transpose(op.Tc0())) == op.Tc0()


def test_non_operator_raises_type_error():
    for call in (lambda: op.apply("T", Coeffs.basis(0)),
                 lambda: op._section("T", 3), lambda: op.dual_operator("T")):
        with pytest.raises(TypeError, match="unknown operator 'T'"):
            call()


def test_unknown_operator_tag_raises():
    with pytest.raises(ValueError, match="unknown operator tag 'xx'"):
        op.operator_from_json_obj({"op": "xx"})


def test_transpose_apply_raises():
    with pytest.raises(op.UnboundedImageError):
        op.apply(op.dual_operator(op.Tc0()), Coeffs.basis(0))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("T", [
    op.Matrix(((1e308, 1e308, 800),)),
    op.Transpose(op.Matrix(((1e308, 1e308, 800),))),
    op.Sum((op.ScalarMul(1e308), op.ScalarMul(1e308))),
], ids=["row_sum_overflows", "column_sum_overflows", "entry_overflows"])
def test_section_too_large_is_refused(T):
    # M x overflowed in the power iteration (NaN values and warnings) and
    # an infinite entry reached the SVD of the resolvent screen
    with pytest.raises(ValueError, match="too large"):
        op.truncate_matrix(T, 3)


def test_section_with_large_finite_line_sums_is_kept():
    # 1e308 I: every line sum is finite, though the sum of all |M| is not
    M = op.truncate_matrix(op.ScalarMul(1e308), 3)
    assert np.array_equal(M, 1e308 * np.eye(3))


def test_section_of_a_sum_is_the_sum_of_sections():
    # the dual of a sum holding Tc0 holds its Transpose, which apply cannot
    # image; the sum's section is exact from its terms' sections
    T = op.Sum((op.Tc0(), op.Diagonal("one_minus_2pow")))
    Ms = op.truncate_matrix(op.dual_operator(T), 6)
    assert np.array_equal(Ms, op.truncate_matrix(T, 6).T)


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
