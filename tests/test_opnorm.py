import math

import numpy as np
import pytest
from scipy import optimize

from normlab.coeffs import Coeffs
from normlab import spaces as sp
from normlab import operators as op
from normlab import opnorm

INF = math.inf


def nelder_mead_norm(M, p_dom, p_cod, restarts=12, seed=0):
    """Independent oracle: maximize ||Mx||_cod / ||x||_dom by direct search."""
    rng = np.random.default_rng(seed)
    n = M.shape[1]

    def neg(y):
        ny = np.linalg.norm(y, p_dom)
        if ny == 0:
            return 0.0
        return -np.linalg.norm(M @ (y / ny), p_cod)

    best = 0.0
    for _ in range(restarts):
        y0 = rng.standard_normal(n)
        res = optimize.minimize(neg, y0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14,
                                         "maxiter": 5000})
        best = max(best, -res.fun)
    return best


# -- closed forms --------------------------------------------------------------

def test_diag_d_norm_and_escape():
    for N in (5, 10, 20):
        r = opnorm.operator_norm(op.catalog_build("diag_d"), sp.Lp(2), N)
        assert r.value == 1.0 - 2.0 ** -N
        assert r.method == "closed_form"
    scan = opnorm.attainment_scan(op.catalog_build("diag_d"), sp.Lp(2),
                                  (5, 10, 20))
    assert scan.attainment == "escaping"
    values = [v for _, v in scan.trace]
    assert values == sorted(values)


def test_projection_norm_one_attained():
    # coordinate projection onto {0, 1} and its complement have norm one
    P = op.Diagonal("explicit", (1.0, 1.0, 0.0, 0.0, 0.0))
    r = opnorm.operator_norm(P, sp.Lp(2), 5)
    assert r.value == 1.0
    IP = op.Sum((op.Identity(), op.ScalarMul(-1.0), P))
    # I - P as a matrix: check through the iterate path
    M = op.truncate_matrix(op.Identity(), 5) - op.truncate_matrix(P, 5)
    val, _, _ = opnorm.matrix_norm(M, sp.Lp(2))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_identity_attained():
    r = opnorm.attainment_scan(op.Identity(), sp.QSumLp(4, 2), (4, 8))
    assert r.value == 1.0 and r.attainment == "attained"


def test_rank_one_closed_form():
    T = op.RankOne(Coeffs.basis(1) + Coeffs.basis(2), Coeffs.basis(0))
    # on l_2 the functional has norm sqrt(2)
    r = opnorm.operator_norm(T, sp.Lp(2), 6)
    assert r.value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert r.method == "closed_form"


def test_tc0_shifted_norm_law():
    # ||(T + zI)_N|| on c_0 equals |z| + 1 - 2^{-(N-1)}: row 0 carries
    # |z| + sum_{n=1}^{N-1} 2^{-n}
    T = op.Sum((op.Tc0(), op.Identity()))
    for N in (10, 30):
        r = opnorm.operator_norm(T, sp.C0(), N)
        assert r.value == pytest.approx(2.0 - 2.0 ** -(N - 1), abs=1e-12)
    scan = opnorm.attainment_scan(T, sp.C0(), (5, 10, 20, 30))
    values = [v for _, v in scan.trace]
    assert values == sorted(values)
    assert scan.attainment == "escaping"
    assert abs(values[-1] - 2.0) < 1e-8


# -- the three-variable reduction ---------------------------------------------

def test_max_f_over_k_examples():
    C, arg = opnorm.max_f_over_K(2.0, 4.0)
    assert C == pytest.approx(2.0 ** 0.25, abs=1e-10)
    assert arg == pytest.approx((2.0 ** -0.25, 0.0, 2.0 ** -0.25), abs=1e-6)
    C, arg = opnorm.max_f_over_K(2.0, INF)
    assert C == pytest.approx(math.sqrt(2), abs=1e-12)
    assert arg == (1.0, 0.0, 1.0)


def test_max_f_over_k_rejects_bad_exponents():
    with pytest.raises(ValueError):
        opnorm.max_f_over_K(4.0, 4.0)
    with pytest.raises(ValueError):
        opnorm.max_f_over_K(4.0, 2.0)


def test_reduction_matches_dense_section():
    # the structured reduction must agree with brute maximization of the
    # dense section via the generic iterate path at small N
    space = sp.QSumLp(4.0, 2.0)
    T = op.SimpleS(2.0, 4.0)
    red = opnorm.operator_norm(T, space, 8)
    M = op.truncate_matrix(T, 8)
    val, _, method = opnorm.matrix_norm(M, space)
    assert method == "iterate"
    assert val == pytest.approx(red.value, abs=1e-8)


def test_simple_r_reduction():
    space = sp.QSumLp(4.0, 2.0)
    r = opnorm.operator_norm(op.SimpleR(2.0, 4.0), space, 12)
    M = op.truncate_matrix(op.SimpleR(2.0, 4.0), 12)
    val, _, _ = opnorm.matrix_norm(M, space)
    assert r.value == pytest.approx(val, abs=1e-8)


# -- witnesses and report invariants ------------------------------------------

@pytest.mark.parametrize("T,space,N", [
    (op.catalog_build("diag_d"), sp.Lp(2.0), 10),
    (op.SimpleS(2.0, 4.0), sp.QSumLp(4.0, 2.0), 10),
    (op.Sum((op.Tc0(), op.Identity())), sp.C0(), 12),
    (op.RankOne(Coeffs.basis(1), Coeffs.basis(0)), sp.Lp(3.0), 6),
    (op.Matrix(((1, 2), (3, 4))), sp.Lp(1.5), 4),
])
def test_witness_invariant(T, space, N):
    r = opnorm.operator_norm(T, space, N)
    w = r.witness.to_array(N)
    assert sp.norm_array(space, w) == pytest.approx(1.0, abs=1e-9)
    M = op.truncate_matrix(T, N)
    assert sp.norm_array(space, M @ w) == pytest.approx(r.value, abs=1e-9)


def test_attained_for_compact_perturbation_of_identity():
    T = op.Sum((op.Identity(), op.RankOne(Coeffs.basis(1), Coeffs.basis(0))))
    scan = opnorm.attainment_scan(T, sp.Lp(2.0), (4, 8, 16))
    assert scan.attainment == "attained"
    golden = (1 + math.sqrt(5)) / 2
    assert scan.value == pytest.approx(golden, abs=1e-9)
    # coordinatewise-limit surrogate: the converged witness attains the norm
    w = scan.witness.to_array(16)
    M = op.truncate_matrix(T, 16)
    assert sp.norm_array(sp.Lp(2.0), M @ w) == pytest.approx(
        scan.value * sp.norm_array(sp.Lp(2.0), w), abs=1e-8)


def test_report_json():
    r = opnorm.operator_norm(op.Identity(), sp.Lp(2.0), 4)
    obj = r.to_json_obj()
    assert obj["value"] == 1.0
    assert obj["method"] == "closed_form"


# -- generic matrix norms vs independent oracle -------------------------------

@pytest.mark.parametrize("p", [1.5, 3.0])
def test_matrix_norm_vs_nelder_mead(p):
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n))
        val, _, _ = opnorm.matrix_norm(M.astype(complex), sp.Lp(p))
        oracle = nelder_mead_norm(M, p, p)
        assert val == pytest.approx(oracle, abs=2e-6)


def test_matrix_norm_l2_is_svd():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 5))
    val, w, method = opnorm.matrix_norm(M.astype(complex), sp.Lp(2.0))
    assert method == "closed_form"
    assert val == pytest.approx(np.linalg.norm(M, 2), abs=1e-12)


def test_matrix_norm_l1_dom_columns():
    M = np.array([[1.0, 4.0], [2.0, 0.0]])
    val, w, method = opnorm.matrix_norm(M.astype(complex), sp.L1())
    assert method == "closed_form"
    assert val == pytest.approx(4.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 9, 30, 129, 400])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_closed_form_sums_match_norm_array(n, complex_entries):
    # the whole-matrix reductions equal the largest per-column (l_1) or
    # per-row (sup norm, dual l_1) norm bit for bit
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    if complex_entries:
        M = M + 1j * rng.standard_normal((n, n))
    cols = max(sp.norm_array(sp.L1(), M[:, j]) for j in range(n))
    rows = max(sp.norm_array(sp.L1(), M[i]) for i in range(n))
    assert opnorm.matrix_norm(M, sp.L1())[0] == cols
    assert opnorm.matrix_norm(M, sp.C0())[0] == rows
    assert opnorm.matrix_norm(M, sp.Lp(INF))[0] == rows


@pytest.mark.parametrize("T,space", [
    (op.Transpose(op.Tl1()), sp.C0()),
    (op.Transpose(op.Tc0()), sp.L1()),
])
def test_transpose_closed_form_matches_inner(T, space):
    # the transpose on X has the norm of the inner operator on X*
    for N in (4, 50):
        r = opnorm.operator_norm(T, space, N)
        inner = opnorm.operator_norm(T.inner, sp.dual_space(space), N)
        assert r.method == inner.method == "closed_form"
        assert r.value == inner.value
        M = op.truncate_matrix(T, N)
        w = r.witness.to_array(N)
        assert sp.norm_array(space, M @ w) == pytest.approx(r.value, abs=1e-12)


# -- duality -------------------------------------------------------------------

def dual_norm_consistency(T, space, N: int) -> tuple:
    """Reports for T on X and T* on X* at one truncation; norms must agree."""
    r1 = opnorm.operator_norm(T, space, N)
    r2 = opnorm.operator_norm(op.dual_operator(T), sp.dual_space(space), N)
    return r1, r2


def test_dual_norm_consistency_simple_s():
    r1, r2 = dual_norm_consistency(op.SimpleS(2.0, 4.0), sp.QSumLp(4.0, 2.0),
                                   16)
    assert abs(r1.value - r2.value) < 1e-8


def test_dual_norm_consistency_diagonal():
    r1, r2 = dual_norm_consistency(op.catalog_build("diag_d"), sp.Lp(2.0), 8)
    assert r1.value == r2.value


def test_dual_norm_consistency_rank_one():
    rng = np.random.default_rng(11)
    f = Coeffs.from_array(rng.standard_normal(8))
    v = Coeffs.from_array(rng.standard_normal(8))
    r1, r2 = dual_norm_consistency(op.RankOne(f, v), sp.Lp(3.0), 8)
    assert abs(r1.value - r2.value) < 1e-6


def test_renormed_space_rejected():
    with pytest.raises(NotImplementedError):
        opnorm.operator_norm(op.Identity(), sp.RenormedL2(), 8)
