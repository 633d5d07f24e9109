import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normlab.coeffs import Coeffs
from normlab.spaces import QSeqParams
from normlab import convex
from normlab import operators as op
from normlab import verify

QSEQ = QSeqParams()


def cone_oracle(u: Coeffs, N: int) -> float:
    """Independent second-order-cone solve of the decomposition problem."""
    import cvxpy

    arr = u.to_array(N + 3)
    q = QSEQ.q_array(N)
    alpha = cvxpy.Variable(N, complex=True)
    beta = cvxpy.Variable(N, complex=True)
    x1 = arr[1] - q @ beta
    x2 = arr[2] - cvxpy.sum(alpha) - q @ beta
    xt = arr[3:] - alpha - cvxpy.multiply(q, beta)
    xprime = cvxpy.norm(cvxpy.hstack([arr[0], xt]), 2)
    obj = (xprime + cvxpy.norm(cvxpy.hstack([x1, x2]), 2)
           + cvxpy.norm1(alpha) + cvxpy.norm1(beta))
    prob = cvxpy.Problem(cvxpy.Minimize(obj))
    prob.solve(solver=cvxpy.CLARABEL)
    return float(prob.value)


def dual_oracle(u: Coeffs, N: int) -> float:
    """Independent solve of the dual problem by scipy's SLSQP: the largest
    Re sum_i g_i u_i over g in C^{N+3} with ||(g_0, g_3, ...)||_2 <= 1,
    ||(g_1, g_2)||_2 <= 1 and, for each n, |g_2 + g_{n+2}| <= 1 and
    q_n |g_1 + g_2 + g_{n+2}| <= 1.

    Each bound reads ||C g||_2^2 <= 1 for a real matrix C, on g = a + ib
    split as the real vector (a, b).  SLSQP may end about 1e-8 infeasible
    and report no success, so only its value is read.
    """
    from scipy.optimize import minimize

    arr = u.to_array(N + 3)
    n = N + 3
    q = QSEQ.q_array(N)
    eye = np.eye(n)
    mats = [eye[[0, *range(3, n)]], eye[[1, 2]]]
    for k in range(N):
        pair = eye[[2]] + eye[[k + 3]]
        mats += [pair, q[k] * (pair + eye[[1]])]

    def parts(x):
        return [(C, C @ x[:n], C @ x[n:]) for C in mats]

    def bounds(x):
        return np.array([1.0 - ca @ ca - cb @ cb for _, ca, cb in parts(x)])

    def bounds_jac(x):
        return np.array([np.concatenate((-2.0 * ca @ C, -2.0 * cb @ C))
                         for C, ca, cb in parts(x)])

    c = np.concatenate((arr.real, -arr.imag))
    res = minimize(lambda x: -c @ x, np.zeros(2 * n), jac=lambda x: -c,
                   method="SLSQP",
                   constraints={"type": "ineq", "fun": bounds,
                                "jac": bounds_jac},
                   options={"maxiter": 1000, "ftol": 1e-14})
    return float(c @ res.x)


def decomposition_objective(u: Coeffs, alpha, beta, N: int) -> float:
    """Hand-computed cost of the decomposition of u with the given atom
    coefficients: ||x'||_2 + ||(x_1, x_2)||_2 + ||alpha||_1 + ||beta||_1."""
    arr = u.to_array(N + 3)
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    q = QSEQ.q_array(N)
    x1 = arr[1] - np.dot(q, beta)
    x2 = arr[2] - alpha.sum() - np.dot(q, beta)
    xt = arr[3:] - alpha - q * beta
    xprime = math.hypot(abs(arr[0]), float(np.linalg.norm(xt)))
    return (xprime + math.hypot(abs(x1), abs(x2))
            + float(np.abs(alpha).sum()) + float(np.abs(beta).sum()))


def random_coeffs(rng, max_index=8):
    k = rng.integers(1, 5)
    idx = rng.integers(0, max_index, size=k)
    vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return Coeffs.from_pairs(zip(idx.tolist(), vals.tolist()))


# -- identities ----------------------------------------------------------------

def test_pair_atom_identity():
    for n in range(1, 11):
        v, d = convex.minkowski_norm(Coeffs.basis(2) + Coeffs.basis(n + 2),
                                     max(n, 4))
        assert v == pytest.approx(1.0, abs=1e-6)
        assert d.converged


def test_triple_atom_identity():
    for n in range(1, 11):
        v, _ = convex.minkowski_norm(
            Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(n + 2),
            max(n, 4))
        assert v == pytest.approx(1.0 / QSEQ.q(n), abs=1e-6)


def test_l2_coincidence_off_first_coords():
    u = Coeffs({4: 0.3, 5: 0.4})
    v, _ = convex.minkowski_norm(u, 6)
    assert v == pytest.approx(0.5, abs=1e-8)


def test_zero_vector():
    v, d = convex.minkowski_norm(Coeffs.zero(), 4)
    assert v == 0.0 and d.converged


def test_support_precondition():
    with pytest.raises(ValueError):
        convex.minkowski_norm(Coeffs.basis(10), 4)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_tol_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        convex.minkowski_norm(Coeffs.basis(2), 4, tol)
    with pytest.raises(ValueError, match="tol"):
        convex.minkowski_norms([Coeffs.basis(2)], 4, tol)


def test_overflowing_iterate_is_not_an_exception():
    # the first gap check met |u_1 - y_1| beyond the largest double, and the
    # solve ran all MAX_ITER steps to a NaN; it is now solved as 2^-1023 u
    # and certified, at the modulus of the one entry
    with np.errstate(all="raise"):
        value, d = convex.minkowski_norm(Coeffs({3: 1e308 + 1e308j}), 2)
    assert d.converged and d.gap <= convex.TOL * value
    assert d.dual_bound <= value == math.hypot(1e308, 1e308)


@pytest.mark.parametrize("e", [600, -600])
def test_far_out_of_range_vector_scales_exactly(e):
    # an AC5 atom has largest part 1, so 2^e u is solved as u itself
    atom = Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(5)
    s = 2.0 ** e
    value, d = convex.minkowski_norm(atom, 4)
    scaled, ds = convex.minkowski_norm(s * atom, 4)
    assert scaled == s * value
    assert ds.x == s * d.x
    assert ds.alpha == tuple(s * a for a in d.alpha)
    assert ds.beta == tuple(s * b for b in d.beta)
    assert (ds.objective, ds.dual_bound, ds.gap) == (
        s * d.objective, s * d.dual_bound, s * d.gap)
    assert (ds.converged, ds.iterations) == (d.converged, d.iterations)


def oracle_targets() -> list:
    """The vectors the decomposition oracles cross-check at N = 12."""
    rng = np.random.default_rng(5)
    targets = [Coeffs.basis(2) + Coeffs.basis(3),
               Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(5),
               Coeffs({0: 1.0, 1: 0.5, 2: -0.25, 7: 1j})]
    return targets + [random_coeffs(rng) for _ in range(5)]


def test_cone_oracle_cross_check():
    pytest.importorskip("cvxpy")
    for u in oracle_targets():
        v, _ = convex.minkowski_norm(u, 12)
        assert v == pytest.approx(cone_oracle(u, 12), abs=2e-6)


def test_dual_oracle_cross_check():
    # the same vectors through the dual problem, with scipy alone
    for u in oracle_targets():
        v, _ = convex.minkowski_norm(u, 12)
        assert v == pytest.approx(dual_oracle(u, 12), abs=2e-6)


# -- soundness properties ------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_feasible_decomposition_upper_bounds(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    u = random_coeffs(rng)
    N = 8
    v, _ = convex.minkowski_norm(u, N)
    alpha = 0.3 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    beta = 0.3 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    hand = decomposition_objective(u, alpha, beta, N)
    assert v <= hand + 1e-7


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_lower_bound_via_e2_pairing(seed):
    # every atom has e_2 coefficient of modulus at most 1, so the norm
    # dominates |u_2|
    rng = np.random.default_rng(seed)
    u = random_coeffs(rng)
    v, _ = convex.minkowski_norm(u, 8)
    assert v >= abs(u[2]) - 1e-7


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       lam=st.floats(0.1, 5.0))
def test_homogeneity_and_triangle(seed, lam):
    rng = np.random.default_rng(seed)
    u, w = random_coeffs(rng), random_coeffs(rng)
    vu, _ = convex.minkowski_norm(u, 8)
    vw, _ = convex.minkowski_norm(w, 8)
    vl, _ = convex.minkowski_norm(lam * u, 8)
    vs, _ = convex.minkowski_norm(u + w, 8)
    assert vl == pytest.approx(lam * vu, rel=1e-6, abs=1e-6)
    assert vs <= vu + vw + 1e-6


def test_dual_bound_is_lower_bound():
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = random_coeffs(rng)
        v, d = convex.minkowski_norm(u, 8)
        assert d.dual_bound <= v + 1e-12
        assert d.gap == pytest.approx(v - d.dual_bound, abs=1e-12)


def test_reconstruction_invariant():
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = random_coeffs(rng)
        _, d = convex.minkowski_norm(u, 8)
        rec = d.reconstruct()
        diff = rec - u
        assert all(abs(v) < 1e-10 for v in diff.entries.values())


# -- the preconditioned solver against the dense-K iteration ------------------

def reference_minkowski_norm(u: Coeffs, N: int, tol: float = convex.TOL):
    """The solver as it was before preconditioning: a dense K, scalar steps
    0.99/||K||_2 and the same stop test and certificate."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    u0, u1, u2, tail = convex._split_coords(u, N)
    if not u.entries:
        d = convex.Decomposition(Coeffs.zero(), (0.0,) * N, (0.0,) * N,
                                 0.0, 0.0, 0.0, True)
        return 0.0, d

    q = QSEQ.q_array(N)
    # K stacks the linear maps w = (alpha, beta) -> (K1 w, K2 w) with
    # x' = b1 - K1 w (first coordinate constant u0) and (x1,x2) = b2 - K2 w
    K = np.zeros((N + 3, 2 * N))
    for n in range(N):
        K[1 + n, n] = 1.0          # alpha_n in x_{n+2}
        K[1 + n, N + n] = q[n]     # q_n beta_n in x_{n+2}
        K[N + 1, N + n] = q[n]     # x_1 row
        K[N + 2, n] = 1.0          # x_2 row
        K[N + 2, N + n] = q[n]
    b = np.concatenate(([u0], tail, [u1, u2]))
    blocks = (slice(0, N + 1), slice(N + 1, N + 3))

    L = np.linalg.norm(K, 2)
    tau = sigma = 0.99 / L if L > 0 else 1.0

    w = np.zeros(2 * N, dtype=complex)
    wbar = w.copy()
    p = np.zeros(N + 3, dtype=complex)

    def primal(wv):
        val = float(np.abs(wv).sum())
        r = b - K @ wv
        for sl in blocks:
            val += float(np.linalg.norm(r[sl]))
        return val

    def dual(pv):
        scale = 1.0
        for sl in blocks:
            scale = max(scale, float(np.linalg.norm(pv[sl])))
        kt = K.T @ pv
        scale = max(scale, float(np.abs(kt).max()) if kt.size else 1.0)
        return float(-np.real(np.vdot(pv / scale, b)))

    best_val = primal(w)
    best_w = w.copy()
    best_dual = 0.0
    converged = False
    for it in range(convex.MAX_ITER):
        # dual ascent: prox of the conjugate of y -> sum ||b_i - y_i||
        p = p + sigma * (K @ wbar)
        for sl in blocks:
            p[sl] -= sigma * b[sl]
            nb = float(np.linalg.norm(p[sl]))
            if nb > 1.0:
                p[sl] /= nb
        # primal descent: complex soft threshold
        w_new = w - tau * (K.T @ p)
        mags = np.abs(w_new)
        shrink = np.maximum(0.0, 1.0 - tau / np.maximum(mags, 1e-300))
        w_new = w_new * shrink
        wbar = 2.0 * w_new - w
        w = w_new
        if it % 50 == 49 or it == convex.MAX_ITER - 1:
            val = primal(w)
            if val < best_val:
                best_val, best_w = val, w.copy()
            best_dual = max(best_dual, dual(p))
            if best_val - best_dual <= tol * max(1.0, best_val):
                converged = True
                break

    alpha = best_w[:N]
    beta = best_w[N:]
    x1 = u1 - np.dot(q, beta)
    x2 = u2 - alpha.sum() - np.dot(q, beta)
    xt = tail - alpha - q * beta
    x = Coeffs({0: u0, 1: x1, 2: x2,
                **{n + 3: v for n, v in enumerate(xt)}})
    gap = max(best_val - best_dual, 0.0)
    d = convex.Decomposition(x, tuple(alpha), tuple(beta), best_val,
                             best_dual, gap, converged)
    return best_val, d


def pair_atom(n):
    return Coeffs.basis(2) + Coeffs.basis(n + 2)


def triple_atom(n):
    return Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(n + 2)


def coeffs_sum_reconstruct(d) -> Coeffs:
    """The term-by-term Coeffs sum that Decomposition.reconstruct replaced."""
    u = d.x
    for n, a in enumerate(d.alpha, start=1):
        u = u + a * (Coeffs.basis(2) + Coeffs.basis(n + 2))
    for n, b in enumerate(d.beta, start=1):
        u = u + (b * QSEQ.q(n)) * (Coeffs.basis(1) + Coeffs.basis(2)
                                   + Coeffs.basis(n + 2))
    return u


def test_reconstruct_matches_coeffs_sum_bitwise():
    # the one-array accumulation adds the terms in the same order, so every
    # coefficient keeps its bits
    rng = np.random.default_rng(4)
    cases = [(pair_atom(200), 200), (triple_atom(40), 40)]
    cases += [(random_coeffs(rng), 8) for _ in range(5)]
    for u, N in cases:
        _, d = convex.minkowski_norm(u, N)
        rec, ref = d.reconstruct(), coeffs_sum_reconstruct(d)
        assert rec.entries == ref.entries
        assert rec.dim_hint == ref.dim_hint


def test_atom_sum_without_atoms_is_its_input():
    x = Coeffs({0: 1.5, 3: -2j}, dim_hint=6)
    assert convex._atom_sum(x) is x


def test_atomic_split_pieces_match_coeffs_sums():
    # y and w of b_atomic_decompose equal their term-by-term Coeffs sums
    u = 0.5 * pair_atom(30) + 0.4 * QSEQ.q(7) * triple_atom(7)
    s = convex.b_atomic_decompose(u, 30)
    _, d = convex.minkowski_norm(u, 30)
    bsum = float(np.abs(np.asarray(d.alpha)).sum())
    csum = float(np.abs(np.asarray(d.beta)).sum())
    y, w = Coeffs.zero(), Coeffs.zero()
    for n, v in enumerate(d.alpha, start=1):
        y = y + (v / bsum) * (Coeffs.basis(2) + Coeffs.basis(n + 2))
    for n, v in enumerate(d.beta, start=1):
        w = w + (v * QSEQ.q(n) / csum) * (Coeffs.basis(1) + Coeffs.basis(2)
                                          + Coeffs.basis(n + 2))
    assert s.b == bsum and s.c == csum
    assert s.y.entries == y.entries and s.w.entries == w.entries


def reference_cases():
    """Atoms over the rungs of the benchmark's ladders, seeded 4-sparse
    vectors at trunc 12 and dense vectors at trunc 50 and 100."""
    cases = [pytest.param(pair_atom(n), max(n, 4), id="pair%d" % n)
             for n in (5, 20, 37, 52, 67, 85, 100)]
    cases += [pytest.param(triple_atom(n), max(n, 4), id="triple%d" % n)
              for n in (20, 60, 100)]
    rng = np.random.default_rng(11)
    for k in range(20):
        supp = rng.integers(0, 14, size=4)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = Coeffs.from_pairs(zip(supp.tolist(), vals.tolist()))
        cases.append(pytest.param(u, 12, id="sparse%d" % k))
    for N in (50, 100):
        for k in range(2):
            arr = rng.standard_normal(N + 3) + 1j * rng.standard_normal(N + 3)
            cases.append(pytest.param(Coeffs.from_array(arr), N,
                                      id="dense%d.%d" % (N, k)))
    return cases


@pytest.mark.parametrize("u, N", reference_cases())
def test_brackets_overlap_the_dense_reference(u, N):
    v, d = convex.minkowski_norm(u, N)
    vr, dr = reference_minkowski_norm(u, N)
    assert d.converged and dr.converged
    # each [dual_bound, objective] holds the norm up to rounding, so the
    # two brackets must meet
    assert max(d.dual_bound, dr.dual_bound) <= min(v, vr) * (1 + 1e-12)


@pytest.mark.parametrize("atom, limit", [(pair_atom, 300),
                                         (triple_atom, 2000)])
def test_atom_iterations_at_n100(atom, limit):
    # the scalar step 0.99/||K||_2 took 2350 (pair) and 8450 (triple)
    v, d = convex.minkowski_norm(atom(100), 100)
    assert d.converged and 0 < d.iterations <= limit
    assert d.to_json_obj()["iterations"] == d.iterations


@pytest.mark.parametrize("atom, limit", [(pair_atom, 100),
                                         (triple_atom, 400)])
def test_kkt_closes_atoms_at_n100(atom, limit):
    # the diagonal steps alone took 150 (pair) and 1250 (triple); the KKT
    # decomposition read off the stalled dual stops them at 4 and 200
    v, d = convex.minkowski_norm(atom(100), 100)
    assert d.converged and 0 < d.iterations <= limit
    assert d.kkt
    obj = d.to_json_obj()
    assert obj["iterations"] == d.iterations and obj["kkt"] is True
    assert obj["schema_version"] == 2


def test_ac5_atoms_close_by_step_100():
    # they took 100-350 steps on the diagonal steps alone
    for n in range(1, 11):
        for atom in (pair_atom, triple_atom):
            u = atom(n)
            v, d = convex.minkowski_norm(u, max(n, 4))
            assert d.converged and d.iterations <= 100
            assert d.gap <= convex.TOL * max(1.0, v)
            assert d.dual_bound <= v * (1 + 1e-12)
            diff = d.reconstruct() - u
            assert all(abs(e) <= 1e-9 for e in diff.entries.values())


def kkt_cases():
    """Seeded complex multiples of one pair or triple atom and sums of two
    pair atoms, at truncations 4-30: most are closed by the KKT step."""
    rng = np.random.default_rng(43)
    cases = []
    for k in range(24):
        N = int(rng.integers(4, 31))
        n, m = (int(v) for v in rng.integers(1, N + 1, size=2))
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        cases.append((N, [a * pair_atom(n), a * triple_atom(n),
                          a * pair_atom(n) + b * pair_atom(m)][k % 3]))
    return cases


def test_kkt_closed_brackets_meet_the_dense_reference():
    closed = 0
    for N, u in kkt_cases():
        v, d = convex.minkowski_norm(u, N)
        assert d.converged and d.dual_bound <= v * (1 + 1e-12)
        if not d.kkt:
            continue
        closed += 1
        vr, dr = reference_minkowski_norm(u, N)
        assert dr.converged
        assert max(d.dual_bound, dr.dual_bound) <= min(v, vr) * (1 + 1e-12)
        diff = d.reconstruct() - u
        assert all(abs(e) <= 1e-9 * v for e in diff.entries.values())
    assert closed >= 12


def test_large_trunc_solve_stays_small():
    # a dense K at trunc 2000 alone would take 64 MB
    tracemalloc.start()
    try:
        v, _ = convex.minkowski_norm(pair_atom(2000), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(v - 1.0) < verify.AC5_TOL
    assert peak < 2e6


# -- the buffered loop and its early gap checks against the parent -----------

def parent_minkowski_norm(u: Coeffs, N: int, tol: float = convex.TOL):
    """The solver before its step wrote into buffers and before it checked
    the gap after steps 1, 2, 4, 8, 16 and 32: a gap check every 50 steps.

    It pins the current iterate sequence.  A later change to the iterates
    (restarts, adaptive steps) should replace this copy with the solver it
    changes, not keep a third copy beside reference_minkowski_norm."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    u0, u1, u2, tail = convex._split_coords(u, N)
    if not u.entries:
        d = convex.Decomposition(Coeffs.zero(), (0.0,) * N, (0.0,) * N,
                                 0.0, 0.0, 0.0, True)
        return 0.0, d

    q = QSEQ.q_array(N)
    b1 = np.concatenate(([u0], tail))
    u1, u2 = complex(u1), complex(u2)

    # The atom map K has about 4N nonzeros, so it and its adjoint are
    # applied in O(N).  It sends w = (alpha, beta) to (y', y1, y2), with
    # x' = (u0, tail) - y' and (x1, x2) = (u1, u2) - (y1, y2); the first
    # entry of y' is 0, so forward() returns y' without it.
    def forward(wv):
        a, qb = wv[:N], q * wv[N:]
        s = complex(qb.sum())
        return a + qb, s, s + complex(a.sum())

    def adjoint(pv1, pa, pb):
        pt = pv1[1:] + pb
        return np.concatenate((pt, q * (pt + pa)))

    # diagonal steps of Pock-Chambolle (alpha = 1): tau_j = 1 / (column
    # sum of |K|), i.e. 1/2 on alpha_n and 1/(3 q_n) on beta_n, and on each
    # dual block one sigma at 1 / (its largest row sum of |K|), which keeps
    # the dual prox a projection onto the unit ball (with N = 0 the rows are
    # zero and any step will do)
    tau = np.concatenate((np.full(N, 0.5), 1.0 / (3.0 * q)))
    sigma1 = 1.0 / (1.0 + float(q.max(initial=0.0)))
    sigma2 = 1.0 / max(1.0, N + float(q.sum()))
    sb1 = sigma1 * b1

    w = np.zeros(2 * N, dtype=complex)
    wbar = w.copy()
    p1 = np.zeros(N + 1, dtype=complex)       # dual of the x' block
    p2a = p2b = 0j                            # dual of the (x1, x2) block

    def primal(wv):
        c, y1, y2 = forward(wv)
        r = tail - c
        return (float(np.abs(wv).sum())
                + math.sqrt(abs(u0) ** 2 + np.vdot(r, r).real)
                + math.hypot(abs(u1 - y1), abs(u2 - y2)))

    def dual(pv1, pa, pb):
        scale = max(1.0, math.sqrt(np.vdot(pv1, pv1).real),
                    math.hypot(abs(pa), abs(pb)),
                    float(np.abs(adjoint(pv1, pa, pb)).max(initial=0.0)))
        return -(float(np.vdot(pv1, b1).real) + (pa.conjugate() * u1).real
                 + (pb.conjugate() * u2).real) / scale

    best_val = primal(w)
    best_w = w.copy()
    best_dual = 0.0
    converged = False
    for it in range(convex.MAX_ITER):
        # dual ascent: prox of the conjugate of y -> sum ||b_i - y_i||
        c, y1, y2 = forward(wbar)
        p1 -= sb1
        p1[1:] += sigma1 * c
        nb = math.sqrt(np.vdot(p1, p1).real)
        if nb > 1.0:
            p1 /= nb
        p2a += sigma2 * (y1 - u1)
        p2b += sigma2 * (y2 - u2)
        nb = math.hypot(abs(p2a), abs(p2b))
        if nb > 1.0:
            p2a /= nb
            p2b /= nb
        # primal descent: complex soft threshold
        w_new = w - tau * adjoint(p1, p2a, p2b)
        mags = np.abs(w_new)
        shrink = np.maximum(0.0, 1.0 - tau / np.maximum(mags, 1e-300))
        w_new *= shrink
        wbar = 2.0 * w_new - w
        w = w_new
        if it % 50 == 49 or it == convex.MAX_ITER - 1:
            val = primal(w)
            if val < best_val:
                best_val, best_w = val, w.copy()
            best_dual = max(best_dual, dual(p1, p2a, p2b))
            if best_val - best_dual <= tol * max(1.0, best_val):
                converged = True
                break

    alpha = best_w[:N]
    beta = best_w[N:]
    c, y1, y2 = forward(best_w)
    x = Coeffs({0: u0, 1: u1 - y1, 2: u2 - y2,
                **{n + 3: v for n, v in enumerate(tail - c)}})
    gap = max(best_val - best_dual, 0.0)
    d = convex.Decomposition(x, tuple(alpha), tuple(beta), best_val,
                             best_dual, gap, converged, it + 1)
    return best_val, d


CHECKED_STEPS = {1, 2, 4, 8, 16, 32, convex.MAX_ITER}


def loop_cases():
    """reference_cases(), AC5's twenty atoms and forty trunc-12 draws made
    as sex_norm_bounds makes its samples, solved at its tolerance."""
    cases = [pytest.param(*c.values, convex.TOL, id=c.id)
             for c in reference_cases()]
    for n in range(1, 11):
        for name, atom in (("pair", pair_atom), ("triple", triple_atom)):
            cases.append(pytest.param(atom(n), max(n, 4), convex.TOL,
                                      id="ac5.%s%d" % (name, n)))
    for k, u in enumerate(sex_draws(7, 40)):
        cases.append(pytest.param(u, convex.SEX_TRUNC, convex.SEX_TOL,
                                  id="sex%d" % k))
    return cases


def sex_draws(seed, count):
    """The first `count` samples sex_norm_bounds draws at this seed."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        supp = rng.integers(0, convex.SEX_TRUNC + 2, size=4)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = Coeffs.from_pairs(zip(supp.tolist(), vals.tolist()))
        draws.append(u if u.entries else Coeffs.basis(2))
    return draws


@pytest.mark.parametrize("u, N, tol", loop_cases())
def test_loop_matches_the_parent_or_stops_sooner(u, N, tol):
    v, d = convex.minkowski_norm(u, N, tol)
    vp, dp = parent_minkowski_norm(u, N, tol)
    assert d.converged and dp.converged
    assert d.iterations in CHECKED_STEPS or d.iterations % 50 == 0
    assert d.iterations <= dp.iterations
    if d.iterations == dp.iterations:
        # the same iterates, checked at a superset of the parent's steps:
        # the best primal value can only fall and the best dual bound
        # only rise; a value the early checks did not beat comes from the
        # parent's own check, and so does its decomposition
        assert v <= vp and d.dual_bound >= dp.dual_bound
        if v == vp:
            assert d.alpha == dp.alpha and d.beta == dp.beta
    else:
        # an earlier check certified its own bracket, which must meet the
        # parent's
        assert (max(d.dual_bound, dp.dual_bound)
                <= min(v, vp) * (1 + 1e-12))


@pytest.mark.parametrize("u, N", [(Coeffs({4: 0.3, 5: 0.4}), 6),
                                  (Coeffs.basis(0), 4)])
def test_easy_solves_stop_before_step_50(u, N):
    _, dp = parent_minkowski_norm(u, N)
    _, d = convex.minkowski_norm(u, N)
    assert dp.iterations == 50
    assert d.converged and d.iterations < 50


def test_slow_preconditioned_draws_converge():
    # the 4-sparse trunc-12 draws 113 and 104 of np.random.default_rng(1)
    # need thousands of steps with the diagonal steps
    rng = np.random.default_rng(1)
    draws = []
    for _ in range(140):
        supp = rng.integers(0, 14, size=4)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        draws.append(Coeffs.from_pairs(zip(supp.tolist(), vals.tolist())))
    for k in (113, 104):
        v, d = convex.minkowski_norm(draws[k], 12)
        vr, dr = reference_minkowski_norm(draws[k], 12)
        assert d.converged and dr.converged
        assert max(d.dual_bound, dr.dual_bound) <= min(v, vr) * (1 + 1e-12)


# -- the stacked solve against minkowski_norm ----------------------------------

@pytest.mark.parametrize("seed, count", [(verify.SEED, 100), (7, 40)],
                         ids=["ac6", "loop_cases"])
def test_stack_matches_minkowski_norm(seed, count):
    # the same steps and checks, row by row: each row stops at the same
    # check as its 1-D solve, with a bracket that meets the 1-D one
    us = sex_draws(seed, count)
    solves = convex.minkowski_norms(us, convex.SEX_TRUNC, convex.SEX_TOL)
    assert len(solves) == count
    for u, (v, d) in zip(us, solves):
        v1, d1 = convex.minkowski_norm(u, convex.SEX_TRUNC, convex.SEX_TOL)
        assert d.converged and v == d.objective
        assert d.iterations == d1.iterations
        assert max(d.dual_bound, d1.dual_bound) <= min(v, v1) * (1 + 1e-12)


def test_stack_edge_rows(monkeypatch):
    # the slowest AC6 sample (750 steps) and one with its largest part in
    # [1, 2), so that 2^600 u and 2^-600 u are solved as u itself
    hard, u = sex_draws(verify.SEED, 100)[76], sex_draws(7, 1)[0]
    top = max(max(abs(v.real), abs(v.imag)) for v in u.entries.values())
    u = 2.0 ** (1 - math.frexp(top)[1]) * u
    N, tol = convex.SEX_TRUNC, convex.SEX_TOL
    v_hard, d_hard = convex.minkowski_norm(hard, N, tol)
    assert d_hard.iterations == 750

    with pytest.raises(ValueError, match="^support of u must lie in"):
        convex.minkowski_norms([u, Coeffs.basis(N + 3)], N, tol)

    monkeypatch.setattr(convex, "MAX_ITER", 40)
    stack = [Coeffs.zero(), u, 2.0 ** 600 * u, hard, 2.0 ** -600 * u,
             Coeffs.basis(0)]
    solves = convex.minkowski_norms(stack, N, tol)
    for w, (v, d) in zip(stack, solves):
        v1, d1 = convex.minkowski_norm(w, N, tol)
        assert (d.converged, d.iterations) == (d1.converged, d1.iterations)
        assert max(d.dual_bound, d1.dual_bound) <= min(v, v1) * (1 + 1e-12)
        assert d.gap == max(v - d.dual_bound, 0.0)
    zero, base, big, slow, small, easy = (d for _, d in solves)
    assert zero == convex.minkowski_norm(Coeffs.zero(), N)[1]
    assert zero.iterations == 0 and zero.objective == 0.0
    assert easy.converged and easy.iterations < 40
    # 40 steps do not certify the slow row, but its bracket holds
    assert not slow.converged and slow.iterations == 40
    assert slow.dual_bound <= v_hard * (1 + 1e-12)
    assert v_hard <= slow.objective * (1 + 1e-12)
    for s, d in ((2.0 ** 600, big), (2.0 ** -600, small)):
        assert d.x == s * base.x
        assert d.alpha == tuple(s * a for a in base.alpha)
        assert d.beta == tuple(s * b for b in base.beta)
        assert (d.objective, d.dual_bound, d.gap) == (
            s * base.objective, s * base.dual_bound, s * base.gap)
        assert (d.converged, d.iterations) == (base.converged,
                                               base.iterations)


def test_stack_takes_the_kkt_rule_row_by_row():
    # scaled atoms, which the KKT step closes, beside draws, which it does
    # not: each row stops where its 1-D solve stops, by the same rule
    rng = np.random.default_rng(5)
    N = convex.SEX_TRUNC
    us = [complex(*rng.standard_normal(2)) * atom(n)
          for n in range(1, N + 1) for atom in (pair_atom, triple_atom)]
    us += sex_draws(7, 6)
    solves = convex.minkowski_norms(us, N)
    assert sum(d.kkt for _, d in solves) >= N
    for u, (v, d) in zip(us, solves):
        v1, d1 = convex.minkowski_norm(u, N)
        assert d.converged and (d.iterations, d.kkt) == (d1.iterations,
                                                         d1.kkt)
        assert max(d.dual_bound, d1.dual_bound) <= min(v, v1) * (1 + 1e-12)


# -- the Lawson-Hanson NNLS against scipy's -----------------------------------

def nnls_system(kind, seed):
    """A seeded real system: tall (8 x 5) and full rank, with a zero
    column, with a duplicate column, rank deficient (column 4 = column 0 +
    column 1), or wide (4 x 7) and rank deficient as well."""
    rng = np.random.default_rng(seed)
    m, k = (4, 7) if kind == "wide" else (8, 5)
    A = rng.standard_normal((m, k))
    if kind == "zero":
        A[:, 2] = 0.0
    if kind == "duplicate":
        A[:, 3] = A[:, 1]
    if kind in ("rank", "wide"):
        A[:, 4] = A[:, 0] + A[:, 1]
    if kind == "wide":
        A[:, 5] = 2.0 * A[:, 2]
    return A, rng.standard_normal(m)


@pytest.mark.parametrize("kind", ["full", "zero", "duplicate", "rank",
                                  "wide"])
def test_nnls_matches_scipy(kind):
    from scipy.optimize import nnls

    for seed in range(100):
        A, b = nnls_system(kind, seed)
        z = convex._nnls(A, b, 3 * A.shape[1])
        assert (z >= 0).all()
        zs = nnls(A, b)[0]
        if kind in ("full", "zero"):
            # full column rank on the live columns: one minimizer
            assert np.allclose(z, zs, rtol=1e-9, atol=1e-12)
        if kind == "zero":
            assert z[2] == 0.0
        # scipy's own residual norm can miss the true one, so both are
        # taken afresh
        r, rs = (np.linalg.norm(A @ v - b) for v in (z, zs))
        assert abs(r - rs) <= 1e-12 * np.linalg.norm(b)


def test_nnls_pass_cap_stops_a_degenerate_loop(monkeypatch):
    # a least-squares solve that rounds every coefficient below 0 makes
    # Lawson-Hanson add a column, step back, drop it and add it again
    A, b = nnls_system("full", 0)
    solves = []

    def negative(M, y, rcond=None):
        solves.append(M.shape[1])
        return (-np.ones(M.shape[1]),)

    monkeypatch.setattr(np.linalg, "lstsq", negative)
    z = convex._nnls(A, b, 25)
    assert len(solves) == 25 and (z == 0.0).all()


@pytest.mark.parametrize("value", [math.inf, complex(1.0, -math.inf),
                                   complex(math.inf, math.nan), math.nan],
                         ids=["inf", "imag_inf", "inf_nan", "nan"])
def test_non_finite_entries_are_refused(value):
    # the infinite ones ran all MAX_ITER steps to a NaN norm; a NaN was
    # pruned by Coeffs, which read it as the zero entry.  Coeffs keeps them
    # all, since no modulus of theirs is below PRUNE_TOL
    u = Coeffs({0: 0.5, 3: value})
    assert 3 in u.entries
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        convex.minkowski_norm(u, 4)
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        convex.minkowski_norms([Coeffs.basis(2), u], 4)
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        convex.b_atomic_decompose(u, 4)


# -- membership and atomic splits ---------------------------------------------

def test_membership_small_l2():
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_coeffs(rng)
        arr = u.to_array(11)
        u = (0.5 / np.linalg.norm(arr)) * u
        assert convex.minkowski_norm(u, 8)[0] <= 1.0 + 1e-8
    assert convex.minkowski_norm(Coeffs.zero(), 4)[0] <= 1.0 + 1e-8
    assert convex.minkowski_norm(Coeffs({1: 1.9}), 4)[0] > 1.0 + 1e-8


def test_atomic_split_pair_atom():
    s = convex.b_atomic_decompose(Coeffs.basis(2) + Coeffs.basis(3), 4)
    assert s.a == pytest.approx(0.0, abs=1e-6)
    assert s.b == pytest.approx(1.0, abs=1e-6)
    assert s.c == pytest.approx(0.0, abs=1e-6)
    diff = s.reconstruct() - (Coeffs.basis(2) + Coeffs.basis(3))
    assert all(abs(v) < 1e-6 for v in diff.entries.values())


def test_atomic_split_small_l2_fast_path():
    u = Coeffs({0: 0.2, 4: 0.3})
    s = convex.b_atomic_decompose(u, 4)
    assert s.a == 1.0 and s.x == u and s.b == 0.0 and s.c == 0.0


def test_atomic_split_triple_atom():
    u = QSEQ.q(1) * (Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(3))
    s = convex.b_atomic_decompose(u, 4)
    assert s.c == pytest.approx(1.0, abs=1e-5)
    assert s.a == pytest.approx(0.0, abs=1e-5)


def test_atomic_split_rejects_outside():
    with pytest.raises(ValueError):
        convex.b_atomic_decompose(Coeffs({1: 1.9}), 4)


@pytest.mark.parametrize("u", [
    Coeffs({0: 0.2, 4: 0.3}), Coeffs({1: 0.3, 2: 0.4j}), Coeffs({6: 0.5}),
    Coeffs.zero()], ids=["head_tail", "complex_pair", "edge", "zero"])
def test_small_atomic_split_runs_no_solve(u, monkeypatch):
    # a u with ||u||_2 <= 1/2 lies in the ball piece (||x'|| + ||(x_1, x_2)||
    # <= sqrt(2)/2), so its split is u itself and minkowski_norm never runs
    calls = []
    monkeypatch.setattr(convex, "minkowski_norm",
                        lambda *args: calls.append(args))
    s = convex.b_atomic_decompose(u, 4)
    assert calls == []
    assert (s.a, s.x, s.b, s.y, s.c, s.w) == (
        1.0, u, 0.0, Coeffs.zero(), 0.0, Coeffs.zero())
    # support at N + 3 or beyond is still refused, before the l_2 test
    with pytest.raises(ValueError, match="^support of u must lie in"):
        convex.b_atomic_decompose(u + Coeffs({7: 0.01}), 4)
    assert calls == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_atomic_split_invariants(seed):
    rng = np.random.default_rng(seed)
    u = random_coeffs(rng)
    v, _ = convex.minkowski_norm(u, 8)
    u = (0.95 / v) * u
    s = convex.b_atomic_decompose(u, 8)
    assert s.a + s.b + s.c <= 1.0 + 1e-6
    diff = s.reconstruct() - u
    assert all(abs(val) < 1e-5 for val in diff.entries.values())


# -- the operator Su = u + u_2 e_1 --------------------------------------------

SEX = op.catalog_build("sex")


def relaxed_su_bound(d) -> float:
    """A looser bound on ||S u|| than su_upper_bound, by the triangle
    inequality on its terms:

        ||x'||_2 + (5/3)||(x_1, x_2)||_2 + (7/4)||beta||_1
        + sum |alpha_n| / q_n.
    """
    N = len(d.alpha)
    q = QSEQ.q_array(N)
    xa = d.x.to_array(max(d.x.dim_hint, N + 3))
    xprime = math.hypot(abs(xa[0]), float(np.linalg.norm(xa[3:])))
    return (xprime + (5.0 / 3.0) * math.hypot(abs(xa[1]), abs(xa[2]))
            + (7.0 / 4.0) * float(np.abs(np.asarray(d.beta)).sum())
            + float(np.abs(np.asarray(d.alpha) / q).sum()))


def test_su_atom_image():
    u = Coeffs.basis(2) + Coeffs.basis(3)
    su = op.apply(SEX, u)
    assert su == Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(3)
    v, _ = convex.minkowski_norm(su, 4)
    assert v == pytest.approx(1.0 / QSEQ.q(1), abs=1e-6)


def test_su_upper_bound_examples():
    u = Coeffs.basis(2) + Coeffs.basis(3)
    _, d = convex.minkowski_norm(u, 4)
    tight = convex.su_upper_bound(d)
    v_su, _ = convex.minkowski_norm(op.apply(SEX, u), 4)
    assert tight == pytest.approx(1.0 / QSEQ.q(1), abs=1e-6)
    assert v_su <= tight + 1e-6
    assert v_su <= relaxed_su_bound(d) + 1e-6
    assert relaxed_su_bound(d) < 2.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_su_upper_bound_soundness(seed):
    rng = np.random.default_rng(seed)
    u = random_coeffs(rng)
    _, d = convex.minkowski_norm(u, 8)
    tight = convex.su_upper_bound(d)
    v_su, d_su = convex.minkowski_norm(op.apply(SEX, u), 8)
    assert v_su <= tight + 1e-6
    assert v_su <= relaxed_su_bound(d) + 1e-6
    # tight is the cost of a decomposition of Su, so no dual bound on
    # ||Su|| exceeds it beyond rounding: where the mapped decomposition is
    # optimal the two meet (seed 274 gives them 1 ulp apart)
    assert d_su.dual_bound <= tight * (1 + 1e-12)


def test_su_upper_bound_on_random_decompositions():
    # any decomposition, not only an optimal one: the bound depends on d
    # alone, and tight <= relaxed <= max(5/3, 7/4, 1/q_N) cost(d)
    rng = np.random.default_rng(7)

    def draw(n):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return z * (rng.random(n) < 0.7) * 10.0 ** rng.integers(-3, 4)

    for _ in range(2000):
        N = int(rng.integers(1, 25))
        d = convex.Decomposition(Coeffs.from_array(draw(N + 3)),
                                 tuple(draw(N)), tuple(draw(N)),
                                 0.0, 0.0, 0.0, True)
        tight = convex.su_upper_bound(d)
        relaxed = relaxed_su_bound(d)
        factor = max(5.0 / 3.0, 7.0 / 4.0, 1.0 / QSEQ.q(N))
        assert tight <= relaxed * (1 + 1e-12)
        cost = decomposition_objective(d.reconstruct(), d.alpha, d.beta, N)
        assert relaxed <= factor * cost * (1 + 1e-12)


def test_sex_norm_bounds_solves_each_sample_once(monkeypatch):
    # the bound on ||Su|| comes from u's decomposition, so Su is never
    # solved
    calls, stacks = [], []
    real, real_stack = convex.minkowski_norm, convex.minkowski_norms

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def stacking(us, *args, **kwargs):
        stacks.append(list(us))
        return real_stack(us, *args, **kwargs)

    monkeypatch.setattr(convex, "minkowski_norm", counting)
    monkeypatch.setattr(convex, "minkowski_norms", stacking)
    report = convex.sex_norm_bounds((1, 5), samples=7, seed=3)
    # the two atoms one solve each, the seven samples one stack
    assert [N for _, N, _ in calls] == [1, 5]
    assert [us for us in stacks] == [sex_draws(3, 7)]
    assert report.min_gap > 0 and not report.failures
    assert report.iterations_total >= report.iterations_max > 0


def test_sex_norm_bounds_report():
    report = convex.sex_norm_bounds((1, 5, 20), samples=10, seed=0)
    # a rerun repeats the report, its stage times aside
    rerun = convex.sex_norm_bounds((1, 5, 20), samples=10, seed=0)
    assert rerun == report and repr(rerun) == repr(report)
    assert report.atoms_s > 0 and report.samples_s > 0
    bounds = [b for _, b, _ in report.lower_bounds]
    assert bounds == sorted(bounds)
    for n, b, v in report.lower_bounds:
        assert v == pytest.approx(b, rel=1e-4)
        assert b < 2.0
    assert report.min_gap > 0
    assert not report.failures
