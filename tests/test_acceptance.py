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


def test_ac5_cone_form_cross_check():
    # independent second-order-cone route for the same identities at N <= 16
    cvxpy = pytest.importorskip("cvxpy")
    from test_convex import cone_oracle
    from normlab import convex

    for n in (1, 4, 9):
        for u in (Coeffs.basis(2) + Coeffs.basis(n + 2),
                  Coeffs.basis(1) + Coeffs.basis(2) + Coeffs.basis(n + 2)):
            v, _ = convex.minkowski_norm(u, 13)
            assert v == pytest.approx(cone_oracle(u, 13), abs=1e-5)
    print("\nAC5-cone-oracle: PASS")


def test_ac6_norm_squeeze():
    _gate(verify.check_ac6())


def test_ac7_planting_certificates():
    _gate(verify.check_ac7())


def test_ac8_oracle_equivalence():
    _gate(verify.check_ac8())


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
