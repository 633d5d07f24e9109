"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  The checks themselves live in normlab.verify so the CLI
`verify` subcommand exercises the identical code paths."""

import math
import tracemalloc

import numpy as np
import pytest

from normlab.coeffs import Coeffs
from normlab import verify

INF = math.inf
GRID_RES = verify.GRID_RES
GRID_CHUNK = 1 << 19    # the stored-grid oracle's block
STREAM_CHUNK = 1 << 16  # directions per block of the streamed oracle


def _gate(result):
    print("\n%s: %s" % (result.check_id, "PASS" if result.ok else "FAIL"))
    if not result.ok:
        rows = result.details.get("rows", [])
        bad = [r for r in rows if not r.get("ok", True)]
        pytest.fail("%s failed: %s" % (result.check_id,
                                       bad[:3] or result.details))


def test_ac1_swap_operator_constants():
    _gate(verify.check_ac1())


def test_ac2_constrained_max():
    _gate(verify.check_ac2())


def test_ac3_rank_one_resolvent_law():
    _gate(verify.check_ac3())


def test_ac4_pseudospectrum_radii():
    _gate(verify.check_ac4())


def test_ac5_minkowski_identities():
    _gate(verify.check_ac5())


# AC5's pair and triple atoms at n = 1, 4, 9, for the oracles at N = 13
AC5_ATOMS = [Coeffs.basis(2) + Coeffs.basis(n + 2) + extra
             for n in (1, 4, 9)
             for extra in (Coeffs.zero(), Coeffs.basis(1))]


def test_ac5_cone_form_cross_check():
    # independent second-order-cone route for the same identities at N <= 16
    cvxpy = pytest.importorskip("cvxpy")
    from test_convex import cone_oracle
    from normlab import convex

    for u in AC5_ATOMS:
        v, _ = convex.minkowski_norm(u, 13)
        assert v == pytest.approx(cone_oracle(u, 13), abs=1e-5)
    print("\nAC5-cone-oracle: PASS")


def test_ac5_dual_form_cross_check():
    # the same atoms through the dual problem, with scipy alone
    from test_convex import dual_oracle
    from normlab import convex

    for u in AC5_ATOMS:
        v, _ = convex.minkowski_norm(u, 13)
        assert v == pytest.approx(dual_oracle(u, 13), abs=1e-5)


def test_ac6_norm_squeeze():
    result = verify.check_ac6()
    _gate(result)
    details = result.to_json_obj()["details"]
    assert details["atoms_s"] >= 0 and details["samples_s"] >= 0
    assert details["iterations_total"] >= details["iterations_max"] > 0


def test_ac7_planting_certificates():
    _gate(verify.check_ac7())


def test_ac8_oracle_equivalence():
    result = verify.check_ac8()
    _gate(result)
    details = result.to_json_obj()["details"]
    assert details["opnorm_s"] >= 0 and details["oracle_s"] >= 0


def sphere_grid_norm_stored(M, p):
    """The stored-grid form of verify.sphere_grid_norm, kept as its reference.

    Builds the whole cube-face grid with meshgrid and inserts the pinned
    coordinate per face with np.insert: about 200 MB for a 4x4 matrix.
    """
    n = M.shape[1]
    axis = np.arange(-1.0, 1.0 + GRID_RES / 2, GRID_RES)
    best = 0.0
    if n == 1:
        return float(np.abs(M[0, 0]))
    grids = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=0)
    total = free.shape[1]
    for face in range(n):
        for start in range(0, total, GRID_CHUNK):
            blk = free[:, start: start + GRID_CHUNK]
            pts = np.insert(blk, face, np.ones(blk.shape[1]), axis=0)
            if p == INF:
                den = np.abs(pts).max(axis=0)
            else:
                den = (np.abs(pts) ** p).sum(axis=0) ** (1.0 / p)
            img = M.real @ pts
            if p == INF:
                num = np.abs(img).max(axis=0)
            else:
                num = (np.abs(img) ** p).sum(axis=0) ** (1.0 / p)
            best = max(best, float((num / den).max()))
    return best


def sphere_grid_norm_streamed(M, p):
    """The full-scan form of verify.sphere_grid_norm, its bitwise reference.

    Evaluates every grid direction: each free coordinate is a
    broadcastable view of the axis, and the first one is walked in blocks
    of at most STREAM_CHUNK directions.  The pruned oracle computes each
    direction it visits with the same operations in the same order.
    """
    n = M.shape[1]
    if n == 1:
        return float(np.abs(M[0, 0]))
    axis = np.arange(-1.0, 1.0 + GRID_RES / 2, GRID_RES)
    k = axis.size
    # array axis 0 runs over image rows, axis j over free coordinate j
    cols = M.real.T.reshape(M.shape[::-1] + (1,) * (n - 1))
    views = [axis.reshape((1,) * j + (k,) + (1,) * (n - 1 - j))
             for j in range(1, n)]
    step = max(1, STREAM_CHUNK // k ** (n - 2))
    best = 0.0
    for start in range(0, k, step):
        xs = [views[0][:, start: start + step]] + views[1:]
        if p != INF:
            den = 1.0
            for x in xs:
                den = den + np.abs(x) ** p
        for face in range(n):
            img = cols[face]
            for c, x in zip([c for c in range(n) if c != face], xs):
                img = img + cols[c] * x
            np.abs(img, out=img)
            if p == INF:
                num = img.max(axis=0)
            else:
                img **= p
                num = img.sum(axis=0) / den
            best = max(best, float(num.max()))
    return best if p == INF else best ** (1.0 / p)


def ac8_instances():
    """(k, M, p) for AC8's 50 instances, drawn as check_ac8 draws them."""
    rng = np.random.default_rng(verify.SEED)
    exps = [1.5, 2.0, 3.0, INF]
    for k in range(50):
        n = 4 if k < 10 else int(rng.integers(2, 4))
        yield k, rng.standard_normal((n, n)), exps[k % len(exps)]


def test_sphere_grid_norm_equals_full_scan_on_ac8_small():
    small = [(k, M, p) for k, M, p in ac8_instances() if M.shape[1] <= 3]
    assert len(small) == 40
    for k, M, p in small:
        assert verify.sphere_grid_norm(M, p) == sphere_grid_norm_streamed(
            M, p), k


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sphere_grid_norm_equals_full_scan_on_ac8_4x4(k):
    M, p = {k: (M, p) for k, M, p in ac8_instances()}[k]
    assert M.shape == (4, 4) and p == [1.5, 2.0, 3.0, INF][k]
    assert verify.sphere_grid_norm(M, p) == sphere_grid_norm_streamed(M, p)


@pytest.mark.parametrize("p", [1.01, 2.0, 7.0])
@pytest.mark.parametrize("scale", [1e-8, 1e8])
@pytest.mark.parametrize("n", [2, 3])
def test_sphere_grid_norm_equals_full_scan_on_hard_draws(n, scale, p):
    rng = np.random.default_rng([n, int(np.log10(scale)) + 8])
    plain = rng.standard_normal((n, n)) * scale
    zero_column = plain.copy()
    zero_column[:, 1] = 0.0
    equal_rows = plain.copy()
    equal_rows[1] = equal_rows[0]
    # the ratio is flat on l_p (a permutation) or on l_2 (an orthogonal Q),
    # so every box holds the maximum and none may be pruned
    permutation = scale * np.eye(n)[rng.permutation(n)]
    orthogonal = scale * np.linalg.qr(rng.standard_normal((n, n)))[0]
    for M in (plain, zero_column, equal_rows, permutation, orthogonal):
        assert verify.sphere_grid_norm(M, p) == sphere_grid_norm_streamed(
            M, p)


@pytest.mark.parametrize("p", [1.5, 2.0, INF])
def test_sphere_grid_norm_of_zero_matrix(p):
    M = np.zeros((2, 2))
    assert verify.sphere_grid_norm(M, p) == sphere_grid_norm_streamed(M, p)
    assert verify.sphere_grid_norm(M, p) == 0.0


def test_sphere_grid_norm_of_one_column():
    # the grid is the single direction e_0, so the value is ||M e_0||_p; it
    # once returned |M[0, 0]|
    assert verify.sphere_grid_norm(np.array([[1.0], [1.0]]), 2.0) == \
        math.sqrt(2)
    M = np.array([[3.0], [-4.0], [0.0]])
    assert verify.sphere_grid_norm(M, 1.5) == pytest.approx(
        (3.0 ** 1.5 + 4.0 ** 1.5) ** (1 / 1.5), rel=1e-15)
    assert verify.sphere_grid_norm(M, INF) == 4.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_grid_norm_matches_stored_grid(n, p):
    M = np.random.default_rng(n).standard_normal((n, n))
    assert verify.sphere_grid_norm(M, p) == pytest.approx(
        sphere_grid_norm_stored(M, p), rel=1e-12, abs=0)


def test_sphere_grid_norm_matches_stored_grid_4x4():
    M = np.random.default_rng(4).standard_normal((4, 4))
    assert verify.sphere_grid_norm(M, INF) == pytest.approx(
        sphere_grid_norm_stored(M, INF), rel=1e-12, abs=0)


def test_sphere_grid_norm_does_not_store_the_grid():
    # the 201^3-point grid of a 4x4 matrix is 195 MB as floats
    M = np.random.default_rng(4).standard_normal((4, 4))
    tracemalloc.start()
    try:
        verify.sphere_grid_norm(M, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_ac9_p_space_defect():
    _gate(verify.check_ac9())


def test_ac10_singularizing_perturbation():
    _gate(verify.check_ac10())


def test_ac10_fails_an_inconclusive_case(monkeypatch):
    # a case with no certificate is a failing row that names only its case
    monkeypatch.setattr(verify.ps, "lp111_perturbation",
                        lambda T, space, N: verify.ps.Lp111Result(
                            "inconclusive", None, 0.0, ()))
    result = verify.check_ac10()
    assert result.ok is False
    assert result.details["rows"] == [
        {"op": name, "case": "inconclusive", "ok": False}
        for name in ("ScalarMul", "SimpleS", "Diagonal")]
