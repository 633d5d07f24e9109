import json
import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from normlab.coeffs import Coeffs
from normlab import spaces as sp
from normlab import operators as op
from normlab import opnorm
from normlab import verify
from test_spaces import space_id

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


def test_attainment_scan_needs_increasing_sections():
    for Ns in ((), [], (4, 4), (8, 4)):
        with pytest.raises(ValueError, match="Ns must"):
            opnorm.attainment_scan(op.Identity(), sp.Lp(2.0), Ns)


def test_attainment_scan_bounds_every_n_before_the_first_section(
        monkeypatch):
    def no_section(*args, **kwargs):
        raise AssertionError("built a section")

    monkeypatch.setattr(opnorm, "operator_norm", no_section)
    with pytest.raises(ValueError, match="^N = 4097 exceeds the largest "
                                         "truncation, 4096$"):
        opnorm.attainment_scan(op.Tc0(), sp.Lp(2.0), (8, 16, 4097))


@pytest.mark.parametrize("seed", [-1, 1.5, "0"])
def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError,
                       match="^seed must be a non-negative integer$"):
        opnorm.OpnormConfig(seed=seed)


def test_projection_norm_one_attained():
    # coordinate projection onto {0, 1} and its complement have norm one
    P = op.Diagonal("explicit", (1.0, 1.0, 0.0, 0.0, 0.0))
    r = opnorm.operator_norm(P, sp.Lp(2), 5)
    assert r.value == 1.0
    IP = op.Sum((op.Identity(), op.ScalarMul(-1.0), P))
    # I - P as a matrix: check through the iterate path
    M = op.truncate_matrix(op.Identity(), 5) - op.truncate_matrix(P, 5)
    val, _, _, _ = opnorm.matrix_norm(M, sp.Lp(2))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_identity_attained():
    r = opnorm.attainment_scan(op.Identity(), sp.QSumLp(4, 2), (4, 8))
    assert r.value == 1.0 and r.attainment == "attained"


@pytest.mark.parametrize(
    "space", [sp.Lp(2.0), sp.DirectSumLp(2.0, ((2, 1.0),))], ids=space_id)
def test_tiny_scalar_reads_as_its_pruned_diagonal(space):
    # 1e-301 is below PRUNE_TOL: the section and apply hold zeros, so the
    # closed form reads 0.0, as the explicit diagonal does, and nothing
    # lies past a tail-less dsum's partition
    r = opnorm.operator_norm(op.ScalarMul(1e-301), space, 5)
    assert (r.value, r.attainment) == (0.0, "attained")
    assert opnorm.operator_norm(
        op.Diagonal("explicit", (1e-301,)), space, 5).value == 0.0


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
    # at t = 1 the maximum is C = 2^(1/p - 1/q)
    C, arg = opnorm.maximize_swapped_f(2.0, 4.0)
    assert C == pytest.approx(2.0 ** 0.25, abs=1e-10)
    assert arg == pytest.approx((2.0 ** -0.25, 0.0, 2.0 ** -0.25), abs=1e-6)
    C, arg = opnorm.maximize_swapped_f(2.0, INF)
    assert C == pytest.approx(math.sqrt(2), abs=1e-12)
    assert arg == (1.0, 0.0, 1.0)


def test_maximize_swapped_f_at_q_inf_takes_the_general_form():
    # k = p and 1/q = 0: max(1, t) (1 + min(t, 1/t)^p)^(1/p), which is
    # (1 + t^p)^(1/p) up to the last bit
    assert opnorm.maximize_swapped_f(2.0, INF, 1.5) == (
        1.8027756377319948, (1.0, 0.0, 1.0))
    assert opnorm.maximize_swapped_f(2.0, INF, 0.0) == (1.0, (1.0, 0.0, 0.0))


def test_maximize_swapped_f_at_q_inf_does_not_overflow():
    # t^p is never formed, so a huge t gives a finite value
    val, arg = opnorm.maximize_swapped_f(1.5, INF, 1e300)
    assert val == pytest.approx(1e300, rel=1e-15) and arg == (1.0, 0.0, 1.0)


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_maximize_swapped_f_at_p_inf_takes_k_q(t):
    # pq/|q - p| is inf/inf at p = inf, and its limit is k = q: the max
    # over K is (1 + t^3)^(1/3) at a = 0, b = g = 1 (b, g: the l_inf part)
    val, arg = opnorm.maximize_swapped_f(INF, 3.0, t)
    assert val == pytest.approx((1.0 + t ** 3) ** (1.0 / 3.0), rel=1e-15)
    assert arg == (0.0, 1.0, 1.0)
    assert val == pytest.approx(opnorm.maximize_swapped_f(1e9, 3.0, t)[0],
                                rel=1e-8)


REF_F_GRID = 48


def f_abg(alpha, beta, gamma, p, q):
    """Norm surrogate f(alpha, beta, gamma) of the K (+)_q l_p sum."""
    tail = (beta ** p + gamma ** p) ** (1.0 / p)
    return max(alpha, tail) if q == INF else \
        (alpha ** q + tail ** q) ** (1.0 / q)


def reference_maximize_swapped_f(p, q, t=1.0):
    """The grid-and-polish search maximize_swapped_f once ran, kept as an
    independent lower reference for its closed form."""
    if t < 0:
        raise ValueError("t must be non-negative")

    def objective(a, b, g):
        return f_abg(b, a, t * g, p, q)

    if q == INF:
        # closed branch analysis: best is alpha = gamma = 1, beta = 0
        val = (1.0 + t ** p) ** (1.0 / p)
        if val >= 1.0:
            return val, (1.0, 0.0, 1.0)
        return 1.0, (0.0, 1.0, 0.0)

    # coarse grid
    axis = np.linspace(0.0, 1.0, REF_F_GRID)
    A, B, G = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([A.ravel(), B.ravel(), G.ravel()], axis=1)
    pts = pts[np.any(pts > 0, axis=1)]
    tailc = (pts[:, 1] ** p + pts[:, 2] ** p) ** (1.0 / p)
    fc = (pts[:, 0] ** q + tailc ** q) ** (1.0 / q)
    pts = pts / fc[:, None]
    tails = (pts[:, 0] ** p + (t * pts[:, 2]) ** p) ** (1.0 / p)
    vals = (pts[:, 1] ** q + tails ** q) ** (1.0 / q)
    best_i = int(np.argmax(vals))  # np.argmax already takes the first max
    a0, b0, g0 = pts[best_i]

    candidates = []

    # beta = 0 branch: one-dimensional, smooth
    def neg_scalar(a):
        a = min(max(a, 0.0), 1.0)
        g = (1.0 - a ** q) ** (1.0 / q)
        return -objective(a, 0.0, g)

    res = optimize.minimize_scalar(neg_scalar, bounds=(0.0, 1.0),
                                   method="bounded",
                                   options={"xatol": 1e-13, "maxiter": 500})
    a = float(res.x)
    g = (1.0 - a ** q) ** (1.0 / q)
    candidates.append((objective(a, 0.0, g), (a, 0.0, g)))
    for a in (0.0, 1.0):
        g = (1.0 - a ** q) ** (1.0 / q)
        candidates.append((objective(a, 0.0, g), (a, 0.0, g)))

    # two-variable polish with gamma eliminated by the constraint
    def neg2(v):
        a, b = v
        if a < 0 or b < 0:
            return 0.0
        rest = 1.0 - a ** q
        if rest < 0:
            return 0.0
        gp = rest ** (p / q) - b ** p
        if gp < 0:
            return 0.0
        return -objective(a, b, gp ** (1.0 / p))

    res2 = optimize.minimize(neg2, [a0, b0], method="Nelder-Mead",
                             options={"xatol": 1e-13, "fatol": 1e-15,
                                      "maxiter": 4000})
    a, b = res2.x
    a, b = max(a, 0.0), max(b, 0.0)
    rest = max(1.0 - a ** q, 0.0)
    gp = max(rest ** (p / q) - b ** p, 0.0)
    g = gp ** (1.0 / p)
    candidates.append((objective(a, b, g), (a, b, g)))

    candidates.sort(key=lambda c: -c[0])
    return candidates[0]


SWAP_SWEEP = ([(p, q, t) for p in (1.01, 1.5, 2.0, 3.0, 50.0)
               for q in (1.0, 1.5, 2.0, 3.0, 10.0, 100.0, INF)
               for t in (0.0, 0.5, 1.0, 1.5, 3.0)]
              + [(2.0, 2.001, 1.5), (2.0, 1.0, 0.99), (1.5, 1.1, 0.1)])


def brute_swapped_f(p, q, t, n=201):
    """Max of the swapped surrogate over an n x n grid of K, parametrized by
    u = 1 - a^q and the share s of u^(p/q) = b^p + g^p that b^p takes."""
    u = np.linspace(0.0, 1.0, n)[:, None]
    s = np.linspace(0.0, 1.0, n)[None, :]
    a, rest = (1 - u) ** (1 / q), u ** (p / q)
    return float(((s * rest) ** (q / p)
                  + (a ** p + t ** p * (1 - s) * rest) ** (q / p)).max()
                 ** (1 / q))


def test_maximize_swapped_f_closed_form_sweep():
    # never below the search it replaced, nor below a grid over K (at
    # (2, 1, 0.99) the search fell 1.3e-5 short of the grid); the argmax
    # lies on K and gives back the value; (2, 2.001, 1.5) would overflow
    # m = t^(pq/|q - p|) if it were formed
    for p, q, t in SWAP_SWEEP:
        val, (a, b, g) = opnorm.maximize_swapped_f(p, q, t)
        ref, _ = reference_maximize_swapped_f(p, q, t)
        assert math.isfinite(val)
        assert val >= ref * (1 - 1e-12), (p, q, t)
        if q < INF:
            assert val >= brute_swapped_f(p, q, t) * (1 - 1e-12), (p, q, t)
        assert min(a, b, g) >= 0
        assert f_abg(a, b, g, p, q) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert f_abg(b, a, t * g, p, q) == pytest.approx(val, rel=1e-12,
                                                         abs=0)


def test_reduction_matches_dense_section():
    # the structured reduction must agree with brute maximization of the
    # dense section via the generic iterate path at small N, for q > p,
    # q < p and q = p, on the shrinking S and the expanding R
    for p, q in ((2.0, 4.0), (4.0, 2.0), (3.0, 1.5), (3.0, 1.0), (2.0, 2.0)):
        space = sp.QSumLp(q, p)
        for T in (op.SimpleS(p, q), op.SimpleR(p, q)):
            red = opnorm.operator_norm(T, space, 8)
            assert red.method == "reduction_f"
            val, _, method, _ = opnorm.matrix_norm(op.truncate_matrix(T, 8),
                                                   space)
            assert method == "iterate"
            assert val == pytest.approx(red.value, abs=1e-8)


def test_swap_reduction_needs_the_qsum_shape():
    # the qsum JSON tag builds the dsum with head (1, l_1) and an l_p tail,
    # which takes the reduction; a tail behind any other head does not
    T = op.SimpleS(2.0, 4.0)
    qsum = sp.space_from_json_obj({"space": "qsum", "q": 4, "p": 2})
    assert opnorm.operator_norm(T, qsum, 10).method == "reduction_f"
    for space in (sp.DirectSumLp(4.0, ((2, 1.0),), 2.0),
                  sp.DirectSumLp(4.0, ((1, 1.0), (1, 2.0)), 2.0),
                  sp.DirectSumLp(4.0, ((1, 1.0),), INF),
                  sp.DirectSumLp(4.0, ((1, 1.0), (9, 2.0)))):
        assert opnorm.operator_norm(T, space, 10).method != "reduction_f"


def test_a_swap_spelled_otherwise_takes_the_iterate():
    # the reduction keys on a bare SimpleS: the same operator behind a
    # ScalarMul(1) factor is normed by the power iteration, a lower bound
    # with no upper on qsum
    T = op.Compose((op.ScalarMul(1.0), op.SimpleS(2.0, 4.0)))
    r = opnorm.operator_norm(T, sp.QSumLp(4.0, 2.0), 100)
    assert (r.method, r.upper) == ("iterate", None)
    assert r.value <= verify.swap_section_norm(2.0, 4.0, 100)


def e(i, n):
    return np.eye(1, n, i, dtype=complex)[0]


def test_growth_tag():
    Ns, l2 = (8, 16, 32), sp.Lp(2.0)
    far = [e(1, 8), e(6, 16), e(12, 32)]            # centroids 1, 6, 12
    near = [e(1, 8), e(3, 16), e(6, 32)]            # 3 < ESCAPE_FRAC * 16

    def tag(Ns, values, witnesses, rising):
        return opnorm.growth_tag(Ns, values, witnesses, l2, rising)[0]

    assert tag(Ns[:1], [1.0], far[:1], True) == "inconclusive"
    # drifted once, then still: the last two distances are sqrt(2) and 0
    mid = (e(0, 16) + e(2, 16)) / math.sqrt(2)      # centroid 1
    still = [e(1, 8), mid, np.concatenate((mid, np.zeros(16)))]
    assert tag(Ns, [1, 2, 2], still, True) == "inconclusive"
    # equal up to a global phase: distance 0 once aligned
    assert tag(Ns, [1, 2, 2], [e(1, 8), 1j * e(1, 16), -e(1, 32)], True) == \
        "attained"
    # escaping support reads escaping only when the values move in sense
    assert tag(Ns, [1, 2, 2], far, True) == "escaping"
    assert tag(Ns, [1, 2, 2], far, False) == "inconclusive"
    assert tag(Ns, [2, 1, 1], far, False) == "escaping"
    assert tag(Ns, [2, 1, 1], near, False) == "inconclusive"


def test_growth_tag_aligns_and_measures_the_witnesses():
    Ns, l2 = (8, 16, 32), sp.Lp(2.0)
    ws = [-1j * e(1, 8), e(6, 16), 2j * e(12, 32)]
    tag, aligned, centroids = opnorm.growth_tag(Ns, [1, 2, 2], ws, l2, True)
    assert tag == "escaping"
    assert centroids == [1.0, 6.0, 12.0]
    for a, w in zip(aligned, ws):
        assert (a == np.abs(w)).all()


def test_growth_tag_keeps_a_zero_witness():
    zeros = [np.zeros(8, dtype=complex), np.zeros(16, dtype=complex)]
    tag, aligned, centroids = opnorm.growth_tag((8, 16), [0.0, 0.0], zeros,
                                                sp.Lp(2.0), True)
    assert (tag, centroids) == ("attained", [0.0, 0.0])
    assert all(a is w for a, w in zip(aligned, zeros))


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("cls", [op.SimpleS, op.SimpleR])
def test_swap_reduction_on_short_sections(cls, N):
    # no shrink or expand factor sits in a section of at most two
    r = opnorm.operator_norm(cls(2.0, 4.0), sp.QSumLp(4.0, 2.0), N)
    assert (r.value, r.method) == (verify.swap_section_norm(2.0, 4.0, N),
                                   "reduction_f")
    assert (r.value, r.witness) == (1.0, Coeffs.basis(0))


def test_maximize_swapped_f_refuses_negative_t():
    with pytest.raises(ValueError, match="t must be non-negative"):
        opnorm.maximize_swapped_f(2.0, 4.0, -0.5)


def test_simple_r_reduction():
    space = sp.QSumLp(4.0, 2.0)
    r = opnorm.operator_norm(op.SimpleR(2.0, 4.0), space, 12)
    M = op.truncate_matrix(op.SimpleR(2.0, 4.0), 12)
    val, _, _, _ = opnorm.matrix_norm(M, space)
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
        val, _, _, _ = opnorm.matrix_norm(M.astype(complex), sp.Lp(p))
        oracle = nelder_mead_norm(M, p, p)
        assert val == pytest.approx(oracle, abs=2e-6)


def test_matrix_norm_l2_is_svd():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 5))
    val, w, method, _ = opnorm.matrix_norm(M.astype(complex), sp.Lp(2.0))
    assert method == "closed_form"
    assert val == pytest.approx(np.linalg.norm(M, 2), abs=1e-12)


def test_matrix_norm_l1_dom_columns():
    M = np.array([[1.0, 4.0], [2.0, 0.0]])
    val, w, method, _ = opnorm.matrix_norm(M.astype(complex), sp.L1())
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


# -- the batched power iteration ----------------------------------------------

def reference_power_iteration(M, space, cfg=opnorm.DEFAULT_CFG, starts=()):
    """The per-start power iteration that the batched one replaced, kept
    as a reference: one 1-D vector at a time, no basis-column floor.  It
    stops as the batch does, when a value moves by at most TOL times
    itself, so it runs to the same end on 2^-500 M as on M."""
    n = M.shape[1]
    Mt = M.T
    dual = sp.dual_space(space)
    rng = np.random.default_rng(cfg.seed)
    real_only = np.isrealobj(M) or not np.any(M.imag)

    init = [np.ones(n, dtype=complex)]
    init += [np.eye(n, dtype=complex)[j] for j in range(min(n, 4))]
    for _ in range(opnorm.RESTARTS):
        v = rng.standard_normal(n)
        if not real_only:
            v = v + 1j * rng.standard_normal(n)
        init.append(v.astype(complex))
    init += [np.asarray(s, dtype=complex) for s in starts]

    best_val, best_x = 0.0, np.zeros(n, dtype=complex)
    for x in init:
        nx = sp.norm_array(space, x)
        if nx == 0:
            continue
        x = x / nx
        prev = -1.0
        for _ in range(opnorm.MAX_ITER):
            y = M @ x
            val = sp.norm_array(space, y)
            if val <= 0:
                break
            if val > best_val:
                best_val, best_x = val, x.copy()
            if abs(val - prev) <= opnorm.TOL * val:
                break
            prev = val
            g = sp.norming_functional_array(space, y)
            h = Mt @ g
            x_new = sp.norming_functional_array(dual, h)
            nx = sp.norm_array(space, x_new)
            if nx == 0:
                break
            x = x_new / nx
    return best_val, best_x


def best_column(M, space) -> float:
    return max(sp.norm_array(space, M[:, j]) for j in range(M.shape[1]))


def _batched_cases():
    rng = np.random.default_rng(21)
    for p in (1.5, 3.0, 4.0):
        for n in (4, 16, 64):
            yield pytest.param(rng.standard_normal((n, n)).astype(complex),
                               sp.Lp(p), id="lp%g-n%d" % (p, n))
    yield pytest.param(rng.standard_normal((6, 6))
                       + 1j * rng.standard_normal((6, 6)),
                       sp.QSumLp(4.0, 2.0), id="qsum")
    yield pytest.param(rng.standard_normal((7, 7)),
                       sp.DirectSumLp(3.0, ((2, 1.0), (3, 2.0), (2, 4.0))),
                       id="dsum")
    # float64 sections, which iterate in float64, and one complex l_p one
    rng = np.random.default_rng(22)
    for n in (4, 16, 64):
        yield pytest.param(rng.standard_normal((n, n)), sp.Lp(3.0),
                           id="real-lp3-n%d" % n)
    yield pytest.param(rng.standard_normal((6, 6)), sp.QSumLp(4.0, 2.0),
                       id="real-qsum")
    yield pytest.param(rng.standard_normal((9, 9)),
                       sp.DirectSumLp(1.5, ((3, 4.0), (4, 1.0), (2, 2.0))),
                       id="real-dsum")
    yield pytest.param(rng.standard_normal((16, 16))
                       + 1j * rng.standard_normal((16, 16)), sp.Lp(3.0),
                       id="complex-lp3-n16")
    # the ends of the exponent range, a zero column (e_0's image is 0), a
    # section whose rows sum to 0 (the ones start's image is 0), sections
    # scaled by 2^+-500, and ones whose images fall below 1e-150, where the
    # l_p half-steps lift their rows by 2^600
    rng = np.random.default_rng(23)
    for p in (1.1, 10.0):
        for n in (16, 64):
            yield pytest.param(rng.standard_normal((n, n)), sp.Lp(p),
                               id="real-lp%g-n%d" % (p, n))
    Z = rng.standard_normal((12, 12))
    Z[:, 0] = 0
    yield pytest.param(Z, sp.Lp(3.0), id="zero-column")
    D = rng.standard_normal((12, 12))
    yield pytest.param(D - D.mean(axis=1, keepdims=True), sp.Lp(1.5),
                       id="rank-deficient")
    for k in (500, -500, -600):
        R = rng.standard_normal((16, 16))
        C = R + 1j * rng.standard_normal((16, 16))
        yield pytest.param(2.0 ** k * R, sp.Lp(1.5), id="real-2^%d" % k)
        yield pytest.param(2.0 ** k * C, sp.Lp(4.0), id="complex-2^%d" % k)


@pytest.mark.parametrize("M,space", list(_batched_cases()))
def test_batched_iterate_not_below_reference(M, space):
    # the batch takes the same starts and steps in gemm, so it may move in
    # the last bits, never by more; the reference runs in complex128 even
    # where the batch runs in float64
    val, w, method, _ = opnorm.matrix_norm(M, space)
    ref, _ = reference_power_iteration(np.asarray(M, dtype=complex), space)
    assert method == "iterate"
    assert val >= ref * (1 - 1e-14)
    assert val >= best_column(M, space)
    assert sp.norm_array(space, M @ w) / sp.norm_array(space, w) == \
        pytest.approx(val, rel=1e-12, abs=0)


HOMOGENEITY_M = np.random.default_rng(3).standard_normal((16, 16))


@pytest.mark.parametrize("space,rel", [
    (sp.Lp(1.5), 0.0), (sp.Lp(3.0), 0.0),
    (sp.DirectSumLp(3.0, ((4, 1.0), (6, 2.0), (6, 4.0))), 0.0),
    (sp.QSumLp(4.0, 2.0), 0.0),
], ids=space_id)
def test_iterate_is_homogeneous(space, rel):
    # scaling M by 2^k scales the value by 2^k bit for bit, the row rules
    # being scale-free; the stall test once read TOL absolutely below a
    # value of 1, and 2^-500 M came out 3% low on l_3
    base = opnorm.matrix_norm(HOMOGENEITY_M, space)[0]
    for k in (-1000, -500, 500, 900):
        val = opnorm.matrix_norm(2.0 ** k * HOMOGENEITY_M, space)[0]
        assert val == pytest.approx(2.0 ** k * base, rel=rel, abs=0), k


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_complex_iterate_keeps_its_value_on_subnormal_images(p):
    # images of 2^-1024 C lie near and below the least normal double; the
    # l_p half-steps lift such rows by 2^600 before they take the signs
    # conj(y)/|y|, and without the lift the floor on |y| bent every sign
    # and the value came out 4-42% low
    C = np.random.default_rng(5).standard_normal((16, 16, 2)) @ [1, 1j]
    base = opnorm.matrix_norm(C, sp.Lp(p))[0]
    for k in (-1024, -1028):
        val = opnorm.matrix_norm(2.0 ** k * C, sp.Lp(p))[0]
        assert val == pytest.approx(2.0 ** k * base, rel=1e-13, abs=0), k


def test_iterate_takes_one_row_rule_call_per_half_step(monkeypatch):
    # on l_p each half-step takes the scaled weights of its rows once, the
    # images' at p and the next iterates' at the conjugate exponent, and no
    # norming_functional_rows call; on qsum and dsum one
    # norming_functional_rows call gives the values and functionals of the
    # images, one more the next iterates.  norm_rows norms the starts and
    # the basis columns on every space
    calls = []

    def counting(name):
        real = getattr(sp, name)

        def wrapper(*args):
            calls.append((name, args[-1] if name == "lp_weights" else args[0]))
            return real(*args)
        return wrapper

    for name in ("norm_rows", "norming_functional_rows", "lp_weights"):
        monkeypatch.setattr(sp, name, counting(name))
    M = np.random.default_rng(4).standard_normal((12, 12)).astype(complex)

    space = sp.Lp(3.0)
    opnorm.matrix_norm(M, space)
    assert [name for name, _ in calls].count("norming_functional_rows") == 0
    assert calls.count(("norm_rows", space)) == 2
    # norm_rows' own weights open and close the list
    weights = [e for name, e in calls if name == "lp_weights"]
    steps = (len(weights) - 1) // 2
    assert steps > 10
    assert weights == [3.0] + [3.0, 1.5] * (steps - 1) + [3.0, 3.0]

    for space in (sp.QSumLp(4.0, 2.0),
                  sp.DirectSumLp(3.0, ((4, 1.0), (8, 2.0)))):
        calls.clear()
        opnorm.matrix_norm(M, space)
        rule = [s for name, s in calls if name == "norming_functional_rows"]
        steps = len(rule) // 2
        assert steps > 10
        assert rule == [space, sp.dual_space(space)] * steps + [space]
        assert calls.count(("norm_rows", space)) == 2


def _record_rule_dtypes(monkeypatch) -> list:
    """The dtype of the rows each half-step takes: every l_p half-step and
    every norming_functional_rows call lifts its rows' tiny ones first."""
    dtypes = []
    real = sp._lift_tiny_rows

    def recording(X):
        dtypes.append(X.dtype)
        return real(X)
    monkeypatch.setattr(sp, "_lift_tiny_rows", recording)
    return dtypes


def _weights_calls(monkeypatch) -> list:
    """One entry per sp.lp_weights call."""
    calls = []
    real = sp.lp_weights

    def counting(a, m, p):
        calls.append(p)
        return real(a, m, p)
    monkeypatch.setattr(sp, "lp_weights", counting)
    return calls


@pytest.mark.parametrize("space", [
    sp.Lp(3.0), sp.QSumLp(4.0, 2.0),
    sp.DirectSumLp(3.0, ((4, 1.0), (8, 2.0)))], ids=space_id)
def test_real_section_iterates_in_float64(space, monkeypatch):
    # a real section runs every half-step in float64, whether it comes as
    # float64 or as complex128 with a zero imaginary part, and so does one
    # given a complex128 start with a zero imaginary part (as attainment_scan
    # passes its witnesses); the witness is complex either way.  On l_p the
    # weights helper takes one call per half-step (norm_rows' two calls
    # lift nothing), a dsum's blocks take it through their row rule
    dtypes = _record_rule_dtypes(monkeypatch)
    weights = _weights_calls(monkeypatch)
    M = np.random.default_rng(5).standard_normal((12, 12))
    start = np.random.default_rng(6).standard_normal(12).astype(complex)
    for A, starts in ((M, ()), (M.astype(complex), ()), (M, (start,))):
        dtypes.clear()
        weights.clear()
        val, w, method, _ = opnorm.matrix_norm(A, space, starts=starts)
        assert method == "iterate" and w.dtype == complex
        assert len(dtypes) > 2 and set(dtypes) == {np.dtype(float)}
        if isinstance(space, sp.Lp):
            assert len(weights) == len(dtypes) + 2


def test_complex_section_or_start_iterates_in_complex128(monkeypatch):
    dtypes = _record_rule_dtypes(monkeypatch)
    weights = _weights_calls(monkeypatch)
    rng = np.random.default_rng(7)
    M = rng.standard_normal((12, 12))
    start = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    for A, starts in ((M + 1j * rng.standard_normal((12, 12)), ()),
                      (M, (start,))):
        dtypes.clear()
        weights.clear()
        val, w, method, _ = opnorm.matrix_norm(A, sp.Lp(3.0), starts=starts)
        assert method == "iterate" and w.dtype == complex
        assert len(dtypes) > 2 and set(dtypes) == {np.dtype(complex)}
        assert len(weights) == len(dtypes) + 2


def test_iterate_floored_at_best_column_on_l3_grid():
    # resolvents of the N=8 SimpleS section on l_3 over a 21x21 grid of
    # [-2, 2]^2: the per-start iterate fell short of the best basis column
    # on 20 of its 438 regular cells, by up to 7.7e-5 relative, all of them
    # in the grid column Re z = 0.8 (all but Im z = 0); that column is
    # checked here
    M = op.truncate_matrix(op.SimpleS(3.0, 3.0), 8)
    space = sp.Lp(3.0)
    x = np.linspace(-2.0, 2.0, 21)[14]
    for y in np.linspace(-2.0, 2.0, 21):
        R = np.linalg.inv(M - complex(x, y) * np.eye(8))
        val, w, _, _ = opnorm.matrix_norm(R, space)
        assert val >= best_column(R, space)
        assert sp.norm_array(space, R @ w) / sp.norm_array(space, w) == \
            pytest.approx(val, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 1.1, 10.0])
def test_lp_iterate_bracket(p):
    rng = np.random.default_rng(int(10 * p))
    for n in (2, 5, 16, 40):
        M = rng.standard_normal((n, n))
        if n == 16:
            M = M + 1j * rng.standard_normal((n, n))
        r = opnorm.operator_norm(op.Matrix(tuple(map(tuple, M))),
                                 sp.Lp(p), n)
        assert r.method == "iterate"
        assert best_column(M, sp.Lp(p)) <= r.value <= r.upper * (1 + 1e-12)
        # the bound is never above the 1 <-> inf interpolation alone
        A = np.abs(M)
        rt = A.sum(axis=0).max() ** (1 / p) * A.sum(axis=1).max() ** (1 - 1 / p)
        assert r.upper <= rt * (1 + 1e-12)


def test_upper_in_json_only_for_iterates():
    lp = opnorm.operator_norm(op.Matrix(((1, 2), (3, 4))), sp.Lp(3.0), 2)
    assert lp.to_json_obj()["upper"] == lp.upper > 0
    scan = opnorm.attainment_scan(op.Matrix(((1, 2), (3, 4))), sp.Lp(3.0),
                                  (2, 3))
    assert scan.upper is not None and scan.upper >= scan.value
    qsum = opnorm.operator_norm(op.Matrix(((1, 2), (3, 4))),
                                sp.QSumLp(4.0, 2.0), 2)
    assert qsum.method == "iterate"
    assert json.loads(json.dumps(qsum.to_json_obj()))["upper"] is None
    closed = opnorm.operator_norm(op.Identity(), sp.Lp(3.0), 4)
    assert "upper" not in closed.to_json_obj()
    assert "upper" not in opnorm.operator_norm(
        op.Matrix(((1, 2), (3, 4))), sp.Lp(2.0), 2).to_json_obj()


def test_iterate_raises_no_overflow_warning():
    # entries near 1e200 overflow a**3 and nrm**2; the rows are rescaled
    # and numpy's warnings stay inside the row-wise rules
    M = np.array([[1e200, 2e200], [-3e200, 5e199]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, w, _, _ = opnorm.matrix_norm(M, sp.Lp(3.0))
    assert np.isfinite(val)
    assert best_column(M, sp.Lp(3.0)) <= val <= \
        opnorm.lp_upper_bound(M, 3.0) * (1 + 1e-12)


# -- the split into independent blocks on l_p ----------------------------------

def canonical(labels):
    """Each node's class, named by the first node in it."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    return first[inv]


def scipy_components(nz):
    from scipy.sparse import bmat, csr_matrix
    from scipy.sparse.csgraph import connected_components
    B = csr_matrix(nz.astype(float))
    graph = bmat([[None, B], [B.T, None]])
    return connected_components(graph, directed=False)[1]


def block_pattern(rng, sizes, n_zero_rows=0, n_zero_cols=0):
    """A random permutation of a block-diagonal pattern with blocks of the
    given (rows, columns) sizes, each block connected, plus zero rows and
    zero columns."""
    nr = sum(r for r, _ in sizes) + n_zero_rows
    nc = sum(c for _, c in sizes) + n_zero_cols
    nz = np.zeros((nr, nc), dtype=bool)
    i = j = 0
    for r, c in sizes:
        blk = rng.random((r, c)) < 0.3
        # a staircase through the block keeps it one component
        for k in range(max(r, c)):
            blk[min(k, r - 1), min(k, c - 1)] = True
            blk[min(k + 1, r - 1), min(k, c - 1)] = True
        nz[i:i + r, j:j + c] = blk
        i, j = i + r, j + c
    return nz[rng.permutation(nr)][:, rng.permutation(nc)]


def _label_patterns():
    rng = np.random.default_rng(15)
    for k in range(12):
        sizes = [tuple(rng.integers(1, 6, size=2)) for _ in range(1 + k % 5)]
        yield pytest.param(block_pattern(rng, sizes, k % 3, (k + 1) % 3),
                           id="blocks%d" % k)
    chain = np.zeros((402, 402), dtype=bool)
    chain[np.arange(401), np.arange(401)] = True
    chain[np.arange(400), np.arange(1, 401)] = True
    yield pytest.param(chain, id="chain401+zero")
    yield pytest.param(chain[:401, :401], id="chain401")
    yield pytest.param(block_pattern(rng, [(1, 1)] * 30, 5, 5), id="diag")
    yield pytest.param(np.zeros((4, 4), dtype=bool), id="zero")
    yield pytest.param(np.ones((5, 5), dtype=bool), id="dense")


@pytest.mark.parametrize("nz", list(_label_patterns()))
def test_block_labels_match_connected_components(nz):
    rng = np.random.default_rng(int(nz.sum()))
    M = np.where(nz, rng.standard_normal(nz.shape) + 1j, 0)
    labels = opnorm.block_labels(M)
    ref = scipy_components(nz)
    col_blocks = len(set(ref[nz.shape[0]:]))
    if labels is None:
        # no nonzero entry, or every column in one block
        assert not nz.any() or col_blocks == 1
        return
    assert col_blocks > 1
    assert (canonical(np.concatenate(labels)) == canonical(ref)).all()


def reducible_section(rng, complex_entries=False):
    """A permuted block-diagonal section with one-column, one-row and
    larger blocks, a zero row and a zero column."""
    nz = block_pattern(rng, [(3, 3), (1, 4), (4, 1), (1, 1), (2, 5), (5, 2)],
                       1, 1)
    M = rng.standard_normal(nz.shape)
    if complex_entries:
        M = M + 1j * rng.standard_normal(nz.shape)
    return np.where(nz, M, 0)


def section_report(M, space):
    n = M.shape[0]
    return opnorm.operator_norm(op.Matrix(tuple(map(tuple, M))), space, n)


@pytest.mark.parametrize("seed", range(6))
def test_split_l2_is_the_whole_section_svd(seed):
    rng = np.random.default_rng(seed)
    M = reducible_section(rng, complex_entries=seed % 2 == 1)
    assert opnorm.block_labels(M) is not None
    r = section_report(M, sp.Lp(2.0))
    assert r.method == "closed_form" and r.upper is None
    assert r.value == pytest.approx(np.linalg.norm(M, 2), rel=1e-14, abs=0)
    w = r.witness.to_array(M.shape[0])
    assert np.linalg.norm(M @ w) / np.linalg.norm(w) == \
        pytest.approx(r.value, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("seed", range(4))
def test_split_lp_within_the_whole_section_bracket(p, seed):
    rng = np.random.default_rng(100 + seed)
    M = reducible_section(rng, complex_entries=seed % 2 == 1)
    space = sp.Lp(p)
    r = section_report(M, space)
    whole_upper = opnorm.lp_upper_bound(M, p)
    assert r.method == "iterate"
    assert best_column(M, space) <= r.value <= whole_upper * (1 + 1e-12)
    w = r.witness.to_array(M.shape[0])
    assert sp.norm_array(space, M @ w) / sp.norm_array(space, w) == \
        pytest.approx(r.value, rel=1e-12)
    # the split bound: still an upper bound, and never above the whole
    # section's (the block sums and SVDs round apart from the whole ones)
    assert r.value <= r.upper * (1 + 1e-12)
    assert r.upper <= whole_upper * (1 + 1e-12)


def test_split_ties_go_to_the_first_block():
    # on l_2: a one-row block (3, 4) at columns 1-2, a one-column block
    # (3, 4) at column 3 and a 1x1 block 5 at column 4, all of norm 5
    # exactly, and a smaller 2x2 block; the first block's witness wins
    M = np.zeros((6, 7), dtype=complex)
    M[0, 1:3] = 3.0, 4.0
    M[1:3, 3] = 3.0, 4.0
    M[3, 4] = 5.0
    M[4:6, 5:7] = [[1.0, 2.0], [0.5, 1.0]]
    space = sp.Lp(2.0)
    val, w, method, upper = opnorm._split_norm(
        M, *opnorm.block_labels(M), space, opnorm.DEFAULT_CFG, ())
    assert (val, method, upper) == (5.0, "closed_form", None)
    assert np.allclose(w, [0, 0.6, 0.8, 0, 0, 0, 0], rtol=0, atol=1e-15)
    # a 1x1 block of the same norm at column 0 comes first
    M[5, 0] = 5.0
    M[5, 5:7] = 0.0
    val, w, _, _ = opnorm._split_norm(
        M, *opnorm.block_labels(M), space, opnorm.DEFAULT_CFG, ())
    assert val == 5.0 and (w == np.eye(7)[0]).all()


def test_split_takes_the_best_of_each_kind_of_block():
    # on l_2: one-column blocks of norm 1 and 5, one-row blocks of norm
    # sqrt(2) and 10, and a 2x2 block of norm 1.5
    M = np.zeros((7, 8), dtype=complex)
    M[0, 0] = 1.0
    M[1, 1:3] = 1.0, 1.0
    M[2:4, 3] = 3.0, 4.0
    M[4, 4:6] = 6.0, 8.0
    M[5:7, 6:8] = [[1.0, 0.5], [0.5, 1.0]]
    space = sp.Lp(2.0)
    r = section_report(M, space)
    assert r.value == pytest.approx(10.0, rel=1e-15)
    assert np.allclose(r.witness.to_array(8), [0, 0, 0, 0, 0.6, 0.8, 0, 0],
                       rtol=0, atol=1e-15)
    M[4] = 0.0
    r = section_report(M, space)
    assert r.value == pytest.approx(5.0, rel=1e-15)
    assert (r.witness.to_array(8) == np.eye(8)[3]).all()


def test_split_restricts_the_starts_to_each_block(monkeypatch):
    M = np.zeros((5, 5))
    M[3:5, 2:4] = [[1.0, 2.0], [3.0, 4.0]]
    M[0, 4] = 1.0
    calls = []
    real = opnorm.matrix_norm

    def recording(B, space, cfg=opnorm.DEFAULT_CFG, starts=()):
        if B.shape != M.shape:          # a block's call, not the section's
            calls.append((B.shape, [np.asarray(s).tolist() for s in starts]))
        return real(B, space, cfg, starts)

    monkeypatch.setattr(opnorm, "matrix_norm", recording)
    start = np.arange(1.0, 6.0)
    r = opnorm.operator_norm(op.Matrix(tuple(map(tuple, M))), sp.Lp(3.0), 5,
                             starts=(start,))
    assert calls == [((2, 2), [[3.0, 4.0]])]
    assert r.method == "iterate"


def test_split_scans_of_the_catalog():
    # SimpleS on l_3 is 1x1 blocks (the swap) and a shrinking diagonal:
    # closed form 1 at every N, the witness fixed; Tl1 on l_1.5 is a zero
    # column and one row, the l_3 norm of (1 - 2^-n)
    scan = opnorm.attainment_scan(op.SimpleS(3.0, 3.0), sp.Lp(3.0),
                                  (8, 16, 32))
    assert scan.trace == ((8, 1.0), (16, 1.0), (32, 1.0))
    assert (scan.method, scan.attainment) == ("closed_form", "attained")
    scan = opnorm.attainment_scan(op.Tl1(), sp.Lp(1.5), (8, 16, 32))
    assert scan.method == "closed_form"
    for N, value in scan.trace:
        f = 1.0 - 2.0 ** -np.arange(1, N, dtype=float)
        assert value == pytest.approx((f ** 3).sum() ** (1 / 3), rel=1e-14)


def test_sex_section_splits_to_its_2x2_block():
    T = op.catalog_build("sex")
    for space in (sp.Lp(2.0), sp.Lp(3.0)):
        r = opnorm.operator_norm(T, space, 401)
        M = op.truncate_matrix(T, 401)
        val, _, _, _ = opnorm.matrix_norm(M[1:3, 1:3], space)
        assert r.value == val
        assert set(r.witness.support()) <= {1, 2}
        if space.p == 2:
            assert r.value == pytest.approx((1 + math.sqrt(5)) / 2,
                                            rel=1e-14)


@pytest.mark.parametrize("n", [16, opnorm.L2_SPLIT_MIN - 1,
                               opnorm.L2_SPLIT_MIN])
def test_narrow_l2_section_takes_the_svd_before_the_split(n, monkeypatch):
    # below L2_SPLIT_MIN the SVD of a diagonal is cheaper than its split;
    # on l_3 the split is tried at every width
    calls = []
    real = opnorm.block_labels

    def labels(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(opnorm, "block_labels", labels)
    d = np.linspace(1.0, 2.0, n) * np.exp(1j * np.arange(n))
    val, w, method, upper = opnorm.matrix_norm(np.diag(d), sp.Lp(2.0))
    assert calls == ([] if n < opnorm.L2_SPLIT_MIN else [(n, n)])
    assert (method, upper) == ("closed_form", None)
    assert val == pytest.approx(2.0, rel=1e-15)
    assert np.abs(w[-1]) == pytest.approx(1.0, rel=1e-15)
    opnorm.matrix_norm(np.diag(d), sp.Lp(3.0))
    assert calls[-1] == (n, n)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dense_section_is_not_split(p):
    # a dense section goes through matrix_norm as before, bit for bit
    rng = np.random.default_rng(int(10 * p))
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    M[2, :] = 0.0                       # zero rows do not matter
    assert opnorm.block_labels(M) is None
    r = section_report(M, sp.Lp(p))
    val, w, method, _ = opnorm.matrix_norm(M, sp.Lp(p))
    assert (r.value, r.method) == (val, method)
    assert (r.witness.to_array(8) == w).all()
    if method == "iterate":
        assert r.upper == opnorm.lp_upper_bound(M, p)


def simple_s_resolvent_inverses():
    """Inverses of N = 8 SimpleS(3, 3) resolvents: a 2x2 block (the swap)
    and 1x1 blocks."""
    M = op.truncate_matrix(op.SimpleS(3.0, 3.0), 8)
    for z in (1.4j, 0.3 - 0.7j, -1.2 + 0.4j):
        yield np.linalg.inv(M - z * np.eye(8))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_matrix_norm_is_the_section_norm_bit_for_bit(p):
    # one dispatch: an l_p resolvent cell, _inverse_norm and AC8 get what
    # operator_norm reports, split included
    rng = np.random.default_rng(int(10 * p))
    mats = [reducible_section(rng, complex_entries=k % 2 == 1)
            for k in range(3)] + list(simple_s_resolvent_inverses())
    for M in mats:
        assert opnorm.block_labels(M) is not None
        val, w, method, upper = opnorm.matrix_norm(M, sp.Lp(p))
        r = section_report(M, sp.Lp(p))
        assert (r.value, r.method, r.upper) == (val, method, upper)
        assert (r.witness.to_array(M.shape[0]) == w).all()


@pytest.mark.parametrize("space", [
    sp.Lp(3.0), sp.Lp(1.5), sp.QSumLp(4.0, 2.0),
    sp.DirectSumLp(3.0, ((3, 2.0), (5, 4.0))), sp.C0(), sp.L1(), sp.Lp(2.0),
], ids=space_id)
def test_zero_section_is_a_closed_form(space):
    # the 0 is exact on every space: the iterate's value is floored at the
    # best column, so it read 0, as a lower bound, only here
    r = opnorm.operator_norm(op.Matrix(((0, 0), (0, 0))), space, 4)
    assert (r.value, r.method, r.upper) == (0.0, "closed_form", None)
    assert r.witness == Coeffs.basis(0)
    assert set(r.to_json_obj()) == {"value", "method", "attainment", "trace",
                                    "centroids", "witness"}


@pytest.mark.parametrize("space", [
    sp.QSumLp(4.0, 2.0), sp.DirectSumLp(3.0, ((3, 2.0), (5, 4.0))),
    sp.L1(), sp.Lp(INF),
], ids=space_id)
def test_other_spaces_are_never_split(space, monkeypatch):
    def no_split(*args):
        raise AssertionError("split on %r" % (space,))

    monkeypatch.setattr(opnorm, "block_labels", no_split)
    monkeypatch.setattr(opnorm, "_split_norm", no_split)
    M = reducible_section(np.random.default_rng(5))[:8, :8]
    opnorm.operator_norm(op.Matrix(tuple(map(tuple, M))), space, 8)
    opnorm.operator_norm(op.catalog_build("sex"), space, 8)
