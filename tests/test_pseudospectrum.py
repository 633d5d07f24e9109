import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from normlab.coeffs import Coeffs
from normlab import spaces as sp
from normlab import operators as op
from normlab import opnorm
from normlab import pseudospectrum as ps
from normlab import verify

INF = math.inf
ZERO = op.ScalarMul(0.0)


# -- resolvent norms -----------------------------------------------------------

def test_zero_operator_resolvent():
    assert ps.resolvent_norm(op.truncate_matrix(ZERO, 8), sp.Lp(2), 2.0) == \
        pytest.approx(0.5, abs=1e-12)


def test_singular_section_is_infinite():
    D = op.Diagonal("explicit", (1.0, 2.0))
    assert ps.resolvent_norm(op.truncate_matrix(D, 2), sp.Lp(2), 1.0) == INF


def test_tc0_resolvent_law():
    for z in (-1.0, 2.0, 0.5 + 1.0j):
        val = ps.resolvent_norm(op.truncate_matrix(op.Tc0(), 30), sp.C0(), z)
        assert val == pytest.approx(ps.rank_one_resolvent_law(z), rel=1e-4)


def test_tl1_resolvent_law():
    val = ps.resolvent_norm(op.truncate_matrix(op.Tl1(), 30), sp.L1(), 3.0)
    assert val == pytest.approx(4.0 / 9.0, rel=1e-4)


def test_truncated_tc0_resolvent_exact_section_value():
    # on the N-section the law picks up the finite tail sum 1 - 2^{1-N}
    N, z = 12, -1.0
    val = ps.resolvent_norm(op.truncate_matrix(op.Tc0(), N), sp.C0(), z)
    expected = 1.0 + (1.0 - 2.0 ** (1 - N))
    assert val == pytest.approx(expected, abs=1e-12)


# -- classification ------------------------------------------------------------

def classify(T, space, z, eps, N):
    """strict | level | outside for the eps-pseudospectrum on the N-section."""
    return ps._classify(
        ps.resolvent_norm(op.truncate_matrix(T, N), space, z), eps)


def test_classify_level_on_rank_one_boundary():
    # at eps = 1/2 the law gives 1 + 1 = 2 = 1/eps exactly on |z| = 1
    assert classify(op.Tc0(), sp.C0(), 1.0, 0.5, 40) == "level"
    assert classify(op.Tc0(), sp.C0(), -1.5, 0.5, 40) == "outside"
    assert classify(op.Tc0(), sp.C0(), 0.5, 0.5, 40) == "strict"


def test_classify_zero_operator():
    assert classify(ZERO, sp.Lp(2), 3.0, 1.0, 4) == "outside"
    assert classify(ZERO, sp.Lp(2), 0.5, 1.0, 4) == "strict"
    with pytest.raises(ValueError):
        classify(ZERO, sp.Lp(2), 1.0, -1.0, 4)


# -- grids ---------------------------------------------------------------------

def test_grid_scan_zero_operator_disc():
    grid = ps.grid_scan(ZERO, sp.Lp(2), (-2, 2, -2, 2), 41, 1.0, 4)
    cell = 4.0 / 40
    assert abs(ps.strict_radius(grid) - 1.0) <= cell
    # inclusion: strict cells stay strict when eps grows
    bigger = ps.grid_scan(ZERO, sp.Lp(2), (-2, 2, -2, 2), 41, 1.5, 4)
    for (z1, _, c1), (z2, _, c2) in zip(grid.cells(), bigger.cells()):
        if c1 == "strict":
            assert c2 in ("strict", "level")


def test_grid_rejects_res_one():
    with pytest.raises(ValueError):
        ps.grid_scan(ZERO, sp.Lp(2), (-1, 1, -1, 1), 1, 1.0, 4)


def test_grid_csv_layout():
    grid = ps.grid_scan(ZERO, sp.Lp(2), (-1, 1, -1, 1), 3, 1.0, 4)
    lines = grid.to_csv().strip().split("\n")
    assert lines[0] == "re,im,resnorm,class"
    assert len(lines) == 10
    # row-major from (re_min, im_min)
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0
    second = lines[2].split(",")
    assert float(second[0]) == 0.0 and float(second[1]) == -1.0


def test_grid_json_schema():
    grid = ps.grid_scan(ZERO, sp.Lp(2), (-1, 1, -1, 1), 3, 1.0, 4)
    obj = json.loads(json.dumps(grid.to_json_obj()))
    assert obj["schema_version"] == 1
    assert len(obj["cells"]) == 9
    assert all(len(c) == 4 for c in obj["cells"])


@pytest.mark.parametrize("region", [(math.nan, 1, 0, 1), (-1, INF, 0, 1)])
def test_grid_bounds_must_be_finite(region):
    with pytest.raises(ValueError, match="finite"):
        ps.grid_scan(ZERO, sp.Lp(2), region, 3, 1.0, 4)


@pytest.mark.parametrize("T,region", [
    # Re(M - zI) overflows at every cell
    (op.ScalarMul(-1e308), (1e308, 1.0000001e308, 0, 1)),
    # the parts of M - zI stay finite; the modulus overflows at one corner
    (op.ScalarMul(1e308), (0, 1, 1e308, 1.7e308)),
], ids=["entry", "modulus"])
def test_grid_rejects_an_overflowing_shifted_section(T, region, monkeypatch):
    # each cell read inf and strict; now the grid is refused before any
    # block is inverted or decomposed, by truncate_matrix's rule for M - zI
    def no_inversion(*args, **kwargs):
        raise AssertionError("normed a block")

    monkeypatch.setattr(ps, "_invert", no_inversion)
    monkeypatch.setattr(np.linalg, "svd", no_inversion)
    for space in (sp.Lp(2), sp.C0()):
        with pytest.raises(ValueError, match="row or column sum"):
            ps.grid_scan(T, space, region, 2, 0.5, 2)


HUGE_Z = 1.7e308 + 1.7e308j


@pytest.mark.parametrize("space", [sp.C0(), sp.Lp(2), sp.Lp(3)],
                         ids=["c0", "l2", "l3"])
def test_resolvent_norm_refuses_an_overflowing_shift(space):
    # |M_ii - z| overflows, so the norm (about 4e-309) read inf and strict;
    # the grid refused the same z
    M = op.truncate_matrix(op.Tc0(), 6)
    with pytest.raises(ValueError, match="too large: a row or column sum"):
        ps.resolvent_norm(M, space, HUGE_Z)
    with pytest.raises(ValueError, match="too large: a row or column sum"):
        ps.grid_scan(op.Tc0(), space, (0, HUGE_Z.real, 0, HUGE_Z.imag), 2,
                     0.5, 6)


@pytest.mark.parametrize("space", [sp.C0(), sp.Lp(2)], ids=["c0", "l2"])
def test_shift_that_cancels_a_large_diagonal_is_kept(space):
    # |M_ii| + |z| overflows but M - zI stays small: the rule takes
    # |M_ii - z| itself at the corners, so neither call is refused
    M = op.truncate_matrix(op.ScalarMul(1e308), 3)
    assert ps.resolvent_norm(M, space, 1e308) == INF
    grid = ps.grid_scan(op.ScalarMul(1e308), space,
                        (1e308 - 2e292, 1e308 + 2e292, 0, 1), 3, 0.5, 3)
    assert grid.resnorms[1] == INF and 0 < grid.resnorms[0] < INF


def test_every_space_splits_the_rows_once(monkeypatch):
    calls = []
    real = ps._busy_rows

    def counting(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(ps, "_busy_rows", counting)
    M = op.truncate_matrix(op.Tc0(), 30)
    for space in (sp.Lp(2), sp.C0()):
        calls.clear()
        ps.resolvent_norm(M, space, 0.3j)
        # 3721 cells in 28 blocks of 136, one split
        ps.grid_scan(op.Tc0(), space, (0, 1, 0, 1), 61, 0.5, 30)
        assert calls == [(30, 30)] * 2


def test_grid_rejects_renormed_space():
    with pytest.raises(NotImplementedError):
        ps.grid_scan(ZERO, sp.RenormedL2(), (-1, 1, -1, 1), 3, 1.0, 4)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_grid_rejects_bad_eps_before_scan(eps, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned the grid")

    monkeypatch.setattr(ps, "_resolvent_norms", no_scan)
    with pytest.raises(ValueError, match="^eps must be positive$"):
        ps.grid_scan(ZERO, sp.Lp(2), (-1, 1, -1, 1), 3, eps, 4)


def test_grid_reread_at_other_eps_matches_fresh_scan():
    # ZERO has resolvent norm 1/|z|, so the cells at |z| = eps are level
    args = (ZERO, sp.Lp(2), (-2, 2, -2, 2), 9)
    grid = ps.grid_scan(*args, 0.1, 4)
    for eps in (0.5, 1.0):
        fresh = ps.grid_scan(*args, eps, 4)
        reread = dataclasses.replace(grid, eps=eps)
        assert reread.resnorms == fresh.resnorms
        assert reread.classes == fresh.classes
        assert "level" in reread.classes and "strict" in reread.classes


def counted_sections(monkeypatch) -> list:
    """Record (T, N) of every truncate_matrix call from now on."""
    seen = []
    real = op.truncate_matrix

    def counting(T, N):
        seen.append((T, N))
        return real(T, N)

    monkeypatch.setattr(op, "truncate_matrix", counting)
    return seen


def test_grid_scan_builds_one_section(monkeypatch):
    seen = counted_sections(monkeypatch)
    ps.grid_scan(op.Tc0(), sp.C0(), (-2, 2, -2, 2), 5, 0.5, 12)
    assert seen == [(op.Tc0(), 12)]


def test_ac4_scans_one_grid(monkeypatch):
    # a coarse grid keeps the count cheap; the radii are not checked here
    monkeypatch.setattr(verify, "AC4_RESOLUTION", 7)
    calls = []
    real = ps.grid_scan

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ps, "grid_scan", counting)
    rows = verify.check_ac4().details["rows"]
    assert len(calls) == 1
    assert [r["eps"] for r in rows] == [0.1, 0.5, 1.0]


def test_diag_d_grid_spot_checks():
    D = op.catalog_build("diag_d")
    grid = ps.grid_scan(D, sp.Lp(2), (0, 1.2, -0.3, 0.3), 13, 0.1, 12)
    cells = list(grid.cells())
    for z, r, cls in cells[::17]:
        direct = ps.resolvent_norm(op.truncate_matrix(D, 12), sp.Lp(2), z)
        if direct == INF:
            assert r == INF
        else:
            assert r == pytest.approx(direct, rel=1e-10)
        # diagonal resolvent norm is 1/dist(z, entries)
        if direct != INF:
            dist = min(abs(z - D.entry(n)) for n in range(12))
            assert r == pytest.approx(1.0 / dist, rel=1e-9)


# -- blocked grid inversion ----------------------------------------------------

def per_cell_resolvent_norm(M, space, z, cfg=opnorm.DEFAULT_CFG):
    """The resolvent norm of one cell as grid_scan computed it cell by cell:
    the SVD condition number, then on l_2 1/sigma_min of the cell, and
    elsewhere LAPACK's inverse of the whole cell and its matrix norm with
    the closed forms written as matrix_norm wrote them then (the power
    iteration is unchanged).  Returns (norm, cond)."""
    A = M - complex(z) * np.eye(len(M), dtype=complex)
    cond = np.linalg.cond(A)
    if cond > ps.SINGULAR_COND:
        return INF, cond
    p = space.p if isinstance(space, sp.Lp) else None
    if p == 2:
        return 1 / np.linalg.svd(A, compute_uv=False)[-1], cond
    inv = np.asarray(np.linalg.inv(A), dtype=complex)
    if p == 1 or p == INF:
        sums = np.ascontiguousarray(np.abs(inv.T if p == 1 else inv)).sum(
            axis=1)
        k = int(np.argmax(sums))
        return float(sums[k]), cond
    return opnorm.matrix_norm(inv, space, cfg)[0], cond


def _zero_pivot(M, z):
    try:
        np.linalg.inv(M - complex(z) * np.eye(len(M), dtype=complex))
    except np.linalg.LinAlgError:
        return True
    return False


# an upper triangle with eigenvalues on the cells of a 3x3 grid over
# [-1, 1]^2; on l_3 and on a direct sum only the power iteration runs
TRIANGLE = op.Matrix(((0, 1, 0.5, 0, 1j), (0, 0.5, 1, 2, 0),
                      (0, 0, -1, 1, 0.5), (0, 0, 0, 1j, 1),
                      (0, 0, 0, 0, 1)))
DIAG_D = op.Diagonal("one_minus_2pow")
# (operator, space, N, resolution, extra regions)
EQUIVALENCE_CASES = {
    "tc0": (op.Tc0(), sp.C0(), 30, 5,
            # cond 3e13 (the screen is open, cond says regular) and 3e15
            [(1e-7, 1, 0, 1), (1e-8, 1, 0, 1)]),
    "tl1": (op.Tl1(), sp.L1(), 30, 5, []),
    # the SVD path on l_2, at the same near-singular cells
    "tc0_l2": (op.Tc0(), sp.Lp(2), 30, 5,
               [(1e-7, 1, 0, 1), (1e-8, 1, 0, 1)]),
    "diag_d": (DIAG_D, sp.Lp(2), 30, 4,
               # z = d_0 = 0.5 exactly, then d_k + delta with cond 4e8-5e14
               [(0.5, 1.5, 0, 1)]
               + [(d + delta, 1.5, 0, 1) for d in (0.5, 0.875)
                  for delta in (1e-9, 1e-12, 1e-14, 1e-15)]),
    # the screen's sum |d_i - z|^2 keeps the cells with cond 1e15 open
    "diag_d_c0": (DIAG_D, sp.C0(), 30, 4,
                  [(d + delta, 1.5, 0, 1) for d in (0.5, 0.875)
                   for delta in (1e-12, 1e-14, 1e-15)]),
    "lower_triangle_l3": (op.Transpose(TRIANGLE), sp.Lp(3), 5, 3, []),
    "triangle_dsum": (TRIANGLE, sp.DirectSumLp(2.0, ((2, 1.0), (3, 3.0))),
                      5, 3, []),
    "transpose_tc0_l1": (op.Transpose(op.Tc0()), sp.L1(), 30, 5, []),
}


def test_grid_scan_matches_per_cell_path():
    rng = np.random.default_rng(9)
    zero_pivots = open_regular = cond_singular = diag_d_cells = 0
    for name, (T, space, N, res, extra) in EQUIVALENCE_CASES.items():
        M = op.truncate_matrix(T, N)
        cx, cy = rng.uniform(-1, 1, size=2)
        hx, hy = rng.uniform(0.3, 1.5, size=2)
        seeded = (cx - hx, cx + hx, cy - hy, cy + hy)
        for region in [(-1, 1, -1, 1), seeded] + extra:
            grid = ps.grid_scan(T, space, region, res, 0.5, N)
            # the grid's invariant: each value is the single-cell path's
            assert grid.resnorms == tuple(
                ps.resolvent_norm(M, space, z)
                for z, _, _ in grid.cells()), (name, region)
            want, conds = zip(*(per_cell_resolvent_norm(M, space, z)
                                for z, _, _ in grid.cells()))
            # the block inverse rounds apart from LAPACK's whole inverse;
            # singular cells and classes are the same
            got = np.array(grid.resnorms)
            ref = np.array(want)
            assert (np.isinf(got) == np.isinf(ref)).all(), (name, region)
            fin = np.isfinite(ref)
            assert np.allclose(got[fin], ref[fin], rtol=1e-13, atol=0), \
                (name, region)
            assert grid.classes == tuple(ps._classify(r, 0.5)
                                         for r in want), (name, region)
            if name == "diag_d":
                diag_d_cells += check_diag_d_cells(M, grid, conds)
            for (z, _, _), c in zip(grid.cells(), conds):
                if _zero_pivot(M, z):
                    zero_pivots += 1
                elif 1e12 <= c <= ps.SINGULAR_COND:
                    open_regular += 1
                elif ps.SINGULAR_COND < c < INF:
                    cond_singular += 1
    # every branch of the singular test is taken: an exact zero pivot (the
    # whole block goes to cond), and cells the Frobenius screen cannot
    # decide on either side of SINGULAR_COND
    assert zero_pivots >= 6 and open_regular >= 2 and cond_singular >= 2
    assert diag_d_cells >= 100


def check_diag_d_cells(M, grid, conds) -> int:
    """The l_2 norm 1/sigma_min of each regular diagonal cell against the
    exact 1/min |d_i - z|, and where cond <= 1e8 against the norm the grid
    took before, sigma_max of the inverse; returns the cells checked."""
    d = np.diagonal(M)
    checked = 0
    for (z, r, _), c in zip(grid.cells(), conds):
        if r == INF:
            continue
        exact = 1 / np.min(np.abs(d - z))
        assert abs(r - exact) <= 1e-14 * exact, (z, r, exact)
        if c <= 1e8:
            A = M - z * np.eye(len(M))
            top = np.linalg.svd(np.linalg.inv(A))[1][0]
            assert abs(r - top) <= 1e-14 * top, (z, r, top)
        checked += 1
    return checked


def counted_linalg(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_grid_scan_inverts_once_per_block_without_cond(monkeypatch):
    # no eigenvalue of the nilpotent section lies in the region, so the
    # Frobenius screen decides every cell (cell by cell took 3721 conds);
    # a block holds the pieces of (k + 1) N entries a cell, k = 1 (whole
    # 30 x 30 cells took 414 blocks)
    calls = counted_linalg(monkeypatch, "cond", "inv")
    ps.grid_scan(op.Tc0(), sp.C0(), (0.5, 3, 0.5, 3), 61, 0.5, 30)
    per_block = ps.GRID_BLOCK // ((1 + 1) * 30)
    assert calls == {"cond": 0, "inv": -(-61 * 61 // per_block)}


def test_diagonal_l2_grid_calls_no_lapack(monkeypatch):
    # the norm is max |1/d|, read off the pieces, and the singular test
    # max |d| / min |d| is cond_2 itself, even at z = 0.5 - 5.6e-17 (cond
    # 9e15, which the Frobenius screen leaves open); each block took one
    # values-only SVD
    calls = counted_linalg(monkeypatch, "cond", "inv", "svd")
    grid = ps.grid_scan(DIAG_D, sp.Lp(2), (0, 1.2, -0.3, 0.3), 13, 0.1, 30)
    assert calls == dict.fromkeys(calls, 0)
    assert grid.resnorms.index(INF) == 6 * 13 + 5


def test_l3_grid_cells_split_and_never_run_to_the_cap(monkeypatch):
    # each SimpleS resolvent inverse is a 2x2 block and 1x1 blocks; the
    # whole 8x8 inverse ran 4 of these cells to MAX_ITER steps
    rule_calls = []
    real_rule = sp.norming_functional_rows
    real_iteration = opnorm._power_iteration

    def rule(space, X):
        rule_calls[-1] += 1
        return real_rule(space, X)

    def iteration(*args):
        rule_calls.append(0)
        return real_iteration(*args)

    monkeypatch.setattr(sp, "norming_functional_rows", rule)
    monkeypatch.setattr(opnorm, "_power_iteration", iteration)
    ps.grid_scan(op.SimpleS(3.0, 3.0), sp.Lp(3.0), (-2, 2, -2, 2), 5, 0.5, 8)
    # a row batch that runs all MAX_ITER steps makes 2 MAX_ITER - 1 calls
    assert rule_calls and max(rule_calls) < 2 * opnorm.MAX_ITER - 1


# -- block-triangular inversion ------------------------------------------------

def frobenius(A):
    """||A_k||_F for each matrix of a stack; +inf where it overflows."""
    a = np.abs(A)
    with np.errstate(over="ignore"):
        return np.sqrt(np.square(a, out=a).sum(axis=(-2, -1)))


def whole_invert(A):
    """The reference inversion of whole cells: LAPACK's inverse of each
    cell, the SVD condition number where an exact zero pivot makes the
    stack's inversion raise, and otherwise where the Frobenius screen of
    full N x N norms is open."""
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        singular = np.linalg.cond(A) > ps.SINGULAR_COND
        regular = np.where(singular[:, None, None], np.eye(A.shape[-1]), A)
        return np.linalg.inv(regular), singular
    with np.errstate(invalid="ignore"):
        undecided = ~(frobenius(A) * frobenius(inv)
                      < ps.SINGULAR_COND / 100)
    singular = np.zeros(len(A), dtype=bool)
    if undecided.any():
        singular[undecided] = np.linalg.cond(A[undecided]) > ps.SINGULAR_COND
    return inv, singular


def shifted_stack(M, zs):
    return ps._shift(M, np.asarray(zs, dtype=complex))


def split_inverses(M, zs):
    """(X, singular): _invert's pieces of each M - zI, z in zs, assembled
    into the N x N inverses."""
    split = ps._busy_rows(M)
    Y, singular = ps._invert(M, np.asarray(zs, dtype=complex), split)
    return np.array([ps._assemble(y, split) for y in Y]), singular


@pytest.mark.parametrize("M,zs", [
    (np.random.default_rng(3).standard_normal((6, 6))
     + 1j * np.random.default_rng(4).standard_normal((6, 6)),
     [0.0, 0.5 + 1j, -2.0, 3j]),
    # an exact zero pivot at z = 0 and z = 2: the stack's inversion raises
    (np.ones((2, 2)), [0.0, 2.0, 0.5 + 1j, 1e-15]),
], ids=["dense", "zero_pivot"])
def test_invert_with_every_row_busy_is_the_whole_inverse(M, zs):
    S, R = ps._busy_rows(M)
    assert len(S) == len(M) and not R.size
    inv, singular = split_inverses(M, zs)
    want_inv, want_singular = whole_invert(shifted_stack(M, zs))
    assert (singular == want_singular).all()
    assert (inv[~singular] == want_inv[~singular]).all()


# (operator, space, N, rows with off-diagonal entries)
SPLIT_CASES = {
    "diagonal_c0": (DIAG_D, sp.C0(), 30, 0),
    "tc0": (op.Tc0(), sp.C0(), 30, 1),
    "tl1": (op.Tl1(), sp.L1(), 30, 1),
    "simple_s_l3": (op.SimpleS(3.0, 3.0), sp.Lp(3.0), 12, 2),
    "sex_l3": (op.catalog_build("sex"), sp.Lp(3.0), 12, 1),
}


@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_split_inverse_matches_lapack(name):
    T, space, N, k = SPLIT_CASES[name]
    M = op.truncate_matrix(T, N)
    S, R = ps._busy_rows(M)
    assert len(S) == k and len(S) + len(R) == N
    zs = [complex(re, im) for re in np.linspace(-2, 2, 9)
          for im in np.linspace(-2, 2, 9)]
    inv, singular = split_inverses(M, zs)
    want_inv, want_singular = whole_invert(shifted_stack(M, zs))
    assert (singular == want_singular).all()
    for X, Y in zip(inv[~singular], want_inv[~singular]):
        assert np.abs(X - Y).max() <= 1e-13 * np.abs(Y).max()
    for z, X in zip(zs, inv):
        r = ps.resolvent_norm(M, space, z)
        cell = M - z * np.eye(N)
        if r != INF:
            want = opnorm.matrix_norm(np.linalg.inv(cell), space)[0]
            assert r == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("T,space,N,zs,k", [
    # d_0 = 1 - 2^-1: a zero in D
    (DIAG_D, sp.C0(), 30, [0.5], 0),
    # the 2x2 swap block A_SS is singular at its eigenvalues +-1
    (op.SimpleS(3.0, 3.0), sp.Lp(3.0), 8, [1.0, -1.0], 2),
], ids=["zero_in_d", "singular_a_ss"])
def test_split_singular_cells_are_infinite(T, space, N, zs, k, monkeypatch):
    # decided without an SVD of a whole cell: a zero in D needs none, and
    # A_SS's exact zero pivot takes the condition numbers of the k x k blocks
    conds = []
    real_cond = np.linalg.cond

    def cond(A):
        conds.append(A.shape[-1])
        return real_cond(A)

    monkeypatch.setattr(np.linalg, "cond", cond)
    M = op.truncate_matrix(T, N)
    for z in zs:
        assert ps.resolvent_norm(M, space, z) == INF
    _, singular = split_inverses(M, zs + [0.3j])
    assert singular.tolist() == [True] * len(zs) + [False]
    grid = ps.grid_scan(T, space, (min(zs), max(zs) + 1, 0, 1), 2, 0.5, N)
    assert grid.resnorms[0] == INF and INF not in grid.resnorms[2:]
    assert set(conds) == ({k} if k else set())


def test_ac4_grid_keeps_its_classes_against_lapack():
    # whole-cell inversion, block by block, as the reference
    M = op.truncate_matrix(op.Tc0(), 30)
    grid = ps.grid_scan(op.Tc0(), sp.C0(), (-3, 3, -3, 3),
                        verify.AC4_RESOLUTION, 0.1, 30)
    zs = [z for z, _, _ in grid.cells()]
    ref = []
    for k in range(0, len(zs), 256):
        inv, singular = whole_invert(shifted_stack(M, zs[k:k + 256]))
        X, split_singular = split_inverses(M, zs[k:k + 256])
        assert (split_singular == singular).all()
        big = np.abs(inv).max(axis=(1, 2))
        assert (np.abs(X - inv).max(axis=(1, 2))
                <= 1e-13 * big)[~singular].all()
        sums = np.abs(inv).sum(axis=2).max(axis=1)
        ref.extend(np.where(singular, INF, sums).tolist())
    got, ref = np.array(grid.resnorms), np.array(ref)
    assert (np.isinf(got) == np.isinf(ref)).all()
    fin = np.isfinite(ref)
    assert np.allclose(got[fin], ref[fin], rtol=1e-13, atol=0)
    for eps in (0.1, 0.5, 1.0):
        assert dataclasses.replace(grid, eps=eps).classes == \
            tuple(ps._classify(ref, eps).tolist())


JORDAN_12 = op.Matrix(tuple(tuple(float(j == i + 1) for j in range(12))
                             for i in range(12)))


@pytest.mark.parametrize("T,space,N", [
    (op.Tc0(), sp.C0(), 200),
    (op.Tl1(), sp.L1(), 200),
    # a Matrix section: A_SS is 11 x 11, the last row holds only its diagonal
    (JORDAN_12, sp.C0(), 12),
], ids=["tc0_c0", "tl1_l1", "jordan_c0"])
def test_line_sum_grid_is_the_norm_of_each_inverse(T, space, N):
    grid = ps.grid_scan(T, space, (-3, 3, -3, 3), 7, 0.5, N)
    M = op.truncate_matrix(T, N)
    ref = []
    for z, _, _ in grid.cells():
        cell = M - z * np.eye(N)
        ref.append(INF if np.linalg.cond(cell) > ps.SINGULAR_COND
                   else opnorm.matrix_norm(np.linalg.inv(cell), space)[0])
    got, ref = np.array(grid.resnorms), np.array(ref)
    # z = 0 is the one eigenvalue of the nilpotent sections
    assert np.isinf(got).tolist() == np.isinf(ref).tolist() == [
        z == 0 for z, _, _ in grid.cells()]
    fin = np.isfinite(ref)
    assert np.allclose(got[fin], ref[fin], rtol=1e-13, atol=0)


@pytest.mark.parametrize("T, N", [(JORDAN_12, 12), (op.Tc0(), 30)],
                         ids=["dense", "split"])
def test_l2_grid_with_busy_rows_takes_one_values_only_svd_per_block(
        monkeypatch, T, N):
    # the norm 1/sigma_min and the singular test s_max/s_min are read off
    # one SVD of the block; no inverse, no separate condition number
    calls = counted_linalg(monkeypatch, "cond", "inv", "svd")
    ps.grid_scan(T, sp.Lp(2), (-2, 2, -2, 2), 13, 0.5, N)
    per_block = ps.GRID_BLOCK // (N * N)
    assert calls == {"cond": 0, "inv": 0, "svd": -(-13 * 13 // per_block)}


@pytest.mark.parametrize("N", [30, 200])
def test_l2_grid_is_one_over_sigma_min_of_each_cell(N):
    # each block's SVD, and diag_d's max |1/d|, against an SVD of each
    # whole cell
    for T in (op.Tc0(), op.Tl1(), op.SimpleS(3.0, 3.0),
              op.catalog_build("sex"), DIAG_D):
        grid = ps.grid_scan(T, sp.Lp(2), (-3, 3, -3, 3), 7, 0.5, N)
        M = op.truncate_matrix(T, N)
        ref = []
        for z, _, _ in grid.cells():
            s = np.linalg.svd(M - z * np.eye(N), compute_uv=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                ref.append(1 / s[-1] if s[0] / s[-1] <= ps.SINGULAR_COND
                           else INF)
        got, ref = np.array(grid.resnorms), np.array(ref)
        assert np.isinf(got).tolist() == np.isinf(ref).tolist(), T
        fin = np.isfinite(ref)
        assert np.allclose(got[fin], ref[fin], rtol=1e-13, atol=0), T


@pytest.mark.parametrize("T, space", [(op.Tc0(), sp.C0()),
                                      (DIAG_D, sp.Lp(2))], ids=["c0", "l2"])
def test_resolvent_norms_allocate_no_complex_n_by_n_array(T, space):
    # a cell's inverse is kept as its pieces, (k + 1) N entries; whole cells
    # took two complex N x N arrays, the shifted section and its inverse, on
    # c_0, and a block of shifted sections for the SVD of a diagonal section
    # on l_2.  The overflow rule's |M| (8 N^2 bytes) is taken only when its
    # bound overflows; _busy_rows' boolean M != 0 (N^2 bytes) is the one
    # N x N array left
    N = 400
    M = op.truncate_matrix(T, N)
    zs = np.array([0.7 + 0.2j, 2.0, -1.5j])
    ps._resolvent_norms(M, zs, space)
    tracemalloc.start()
    try:
        ps._resolvent_norms(M, zs, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * N * N


@pytest.mark.parametrize("space", [sp.Lp(2), sp.C0(), sp.Lp(3)],
                         ids=["l2", "c0", "l3"])
def test_zero_section_at_zero_is_singular(space):
    # s = 0 gives s_max/s_min = 0/0 on l_2, which np.linalg.cond reads as inf
    grid = ps.grid_scan(ZERO, space, (-1, 1, -1, 1), 3, 1.0, 4)
    assert grid.resnorms[4] == INF and INF not in grid.resnorms[:4]
    assert ps.resolvent_norm(op.truncate_matrix(ZERO, 4), space, 0.0) == INF


@pytest.mark.parametrize("z", [math.nan, INF, complex(1, math.nan)],
                         ids=["nan", "inf", "nanj"])
@pytest.mark.parametrize("space", [sp.C0(), sp.Lp(2), sp.Lp(3)],
                         ids=["c0", "l2", "l3"])
def test_non_finite_z_is_refused(space, z):
    # each raised LinAlgError: SVD did not converge
    M = op.truncate_matrix(op.Tc0(), 6)
    message = "^z = %s must be finite$" % re.escape(repr(z))
    with pytest.raises(ValueError, match=message):
        ps.resolvent_norm(M, space, z)
    with pytest.raises(ValueError, match=message):
        ps.att1_perturbation(op.Tc0(), space, z, 0.5, 6)


def test_non_finite_section_is_refused():
    M = op.truncate_matrix(op.Tc0(), 6)
    M[2, 3] = math.nan
    with pytest.raises(ValueError, match="^section M must be finite$"):
        ps.resolvent_norm(M, sp.Lp(2), 2.0)


def test_grid_scan_memory_stays_near_one_block():
    # the AC4 grid: 14,641 resnorms (about 0.5 MB as a tuple of floats)
    # plus the stacks of one block; it peaked at 1.2 MB when measured
    tracemalloc.start()
    try:
        ps.grid_scan(op.Tc0(), sp.C0(), (-3, 3, -3, 3), 121, 0.1, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


# -- planting certificates -----------------------------------------------------

def test_att1_zero_operator():
    cert = ps.att1_perturbation(ZERO, sp.Lp(2), 0.5, 1.0, 8)
    chk = ps.verify_cert(ZERO, sp.Lp(2), cert)
    assert chk["residual"] < 1e-12
    assert chk["norm_A"] == pytest.approx(0.5, abs=1e-12)
    assert chk["ok"]


def test_att1_tc0():
    cert = ps.att1_perturbation(op.Tc0(), sp.C0(), -1.0, 0.51, 20)
    chk = ps.verify_cert(op.Tc0(), sp.C0(), cert)
    assert chk["residual"] < 1e-10
    assert chk["norm_A"] <= 0.51 + 1e-10
    assert chk["ok"]


def test_att1_singular_residual_on_wide_section():
    # the 6-section of T is zero, so z = 0 is an eigenvalue of it and A = 0
    # would do there; but T maps e_5 into e_8, past the section, and the
    # residual must see it there.  att1 plants on the wide section, where
    # ||A|| = 1 > eps, so it refuses; a hand-built A = 0 must fail
    T = op.RankOne(Coeffs.from_array(np.ones(6)), Coeffs.basis(8))
    with pytest.raises(ValueError, match=r"^\|\|A\|\| = 1 exceeds eps = 0.5"):
        ps.att1_perturbation(T, sp.Lp(2), 0.0, 0.5, 6)
    cert = ps.PerturbationCert(op.RankOne(Coeffs.basis(0), Coeffs({})),
                               0.0, Coeffs.basis(5), 0.5, 6)
    chk = ps.verify_cert(T, sp.Lp(2), cert)
    assert chk["norm_A"] == 0.0
    assert chk["residual"] == pytest.approx(1.0, rel=1e-12)
    assert not chk["ok"]


def test_att1_builds_one_section_of_t(monkeypatch):
    seen = counted_sections(monkeypatch)
    ps.att1_perturbation(op.Tc0(), sp.C0(), -1.0, 0.51, 20)
    assert seen == [(op.Tc0(), 20 + ps.TAIL)]


def test_att1_reuses_the_inverse(monkeypatch):
    # y is the unit bottom vector _inverse_norm returns;
    # A was once factored a second time by np.linalg.solve
    calls = []
    real = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    cert = ps.att1_perturbation(op.Tc0(), sp.C0(), -1.0, 0.51, 20)
    assert ps.verify_cert(op.Tc0(), sp.C0(), cert)["residual"] < 1e-10
    assert not calls


def test_verify_cert_rejects_uncertifiable_perturbation():
    # a section norm of a Matrix A only bounds ||A|| from below on l_3
    cert = ps.PerturbationCert(op.Matrix(((0.1, 0.0), (0.0, 0.0))), 0.0,
                               Coeffs.basis(1), 0.5, 2)
    with pytest.raises(TypeError):
        ps.verify_cert(ZERO, sp.Lp(3.0), cert)


def test_verify_cert_refuses_a_rank_one_past_the_section():
    # (T + A)e_0 = e_20 with T = 0, but the residual reads only the
    # (4 + TAIL)-section; this certificate once passed with residual 0
    A = op.RankOne(Coeffs.basis(0), Coeffs.basis(20))
    cert = ps.PerturbationCert(A, 0.0, Coeffs.basis(0), 1.0, 4)
    with pytest.raises(TypeError):
        ps.verify_cert(ZERO, sp.Lp(2.0), cert)


def test_verify_cert_refuses_a_sum_whose_section_norm_is_an_iterate():
    # two overlapping dense rank-ones on l_3 make one dense 3 x 3 block,
    # whose norm the power iteration only bounds from below
    A = op.Sum((op.RankOne(Coeffs.from_array([1.0, 1.0, 1.0]),
                           Coeffs.from_array([1.0, 2.0, 3.0])),
                op.RankOne(Coeffs.from_array([1.0, -1.0, 0.5]),
                           Coeffs.from_array([3.0, 1.0, -2.0]))))
    assert opnorm.operator_norm(A, sp.Lp(3.0), 2 + ps.TAIL).method == \
        "iterate"
    cert = ps.PerturbationCert(A, 0.0, Coeffs.basis(0), 10.0, 2)
    with pytest.raises(TypeError):
        ps.verify_cert(ZERO, sp.Lp(3.0), cert)


def test_att1_eps_too_small_rejected():
    with pytest.raises(ValueError):
        ps.att1_perturbation(op.Tc0(), sp.C0(), 3.0, 0.1, 20)


@pytest.mark.parametrize("eps, message", [
    (math.inf, "eps must be finite"), (math.nan, "eps must be positive"),
    (0.0, "eps must be positive"), (-1.0, "eps must be positive")])
def test_att1_refuses_an_eps_outside_the_grid_domain(eps, message):
    # att1 once certified eps = inf (verify_cert passed it), built a failing
    # certificate at NaN and named 0 and -1 only as "1/c exceeds eps"
    with pytest.raises(ValueError, match="^%s$" % message):
        ps.att1_perturbation(op.Tc0(), sp.C0(), 0.6, eps, 20)


@pytest.mark.parametrize("space", [sp.C0(), sp.Lp(2), sp.Lp(3)],
                         ids=["c0", "l2", "l3"])
def test_att1_refuses_an_overflowing_shift(space):
    # the overflowing M - zI read as singular: a ScalarMul(0.0) certificate
    # that verify_cert rejected with an inf or NaN residual
    with pytest.raises(ValueError, match="too large: a row or column sum"):
        ps.att1_perturbation(op.Tc0(), space, HUGE_Z, 0.5, 6)


# ||A|| = ||(T - zI)y|| is about |z| = 1.41421e+308 for a unit y
HUGE_Z_REFUSAL = r"^\|\|A\|\| = 1.41421e\+308 exceeds eps = 0.5"


@pytest.mark.parametrize("space", [sp.C0(), sp.Lp(2), sp.Lp(3)],
                         ids=["c0", "l2", "l3"])
def test_att1_refuses_a_huge_z_by_its_tiny_resolvent_norm(space):
    # c is about 1/|z| = 7.07e-309, as l_2's 1/sigma_min gives it; a complex
    # 1.0 / d formed |d|^2, which overflowed, and c read 0
    M = op.truncate_matrix(op.Tc0(), 6)
    z = 1e308 + 1e308j
    want = pytest.approx(7.071067811865477e-309, rel=1e-13, abs=0)
    assert ps.resolvent_norm(M, space, z) == want
    assert ps._inverse_norm(M, z, space)[0] == want
    with pytest.raises(ValueError, match=HUGE_Z_REFUSAL):
        ps.att1_perturbation(op.Tc0(), space, z, 0.5, 6)


SWAP_2 = op.Matrix(((0.0, 1.0), (1.0, 0.0)))


@pytest.mark.parametrize("space", [sp.C0(), sp.L1(), sp.Lp(2), sp.Lp(3)],
                         ids=["c0", "l1", "l2", "l3"])
def test_dense_cell_at_a_huge_z_keeps_its_tiny_resolvent_norm(space):
    # A_SS is the whole 2 x 2 cell; LAPACK's complex reciprocal of its
    # pivot formed |z|^2, which overflowed, and P read 0 off l_2 until A_SS
    # was scaled by a power of two.  l_2 takes the SVD of the dense cell
    M = op.truncate_matrix(SWAP_2, 2)
    z = 1e308 + 1e308j
    want = pytest.approx(7.071067811865477e-309, rel=1e-13, abs=0)
    assert ps.resolvent_norm(M, space, z) == want
    assert ps._inverse_norm(M, z, space)[0] == want
    with pytest.raises(ValueError, match=HUGE_Z_REFUSAL):
        ps.att1_perturbation(SWAP_2, space, z, 0.5, 2)


def test_att1_simple_s_shifted():
    T = op.Sum((op.SimpleS(2.0, 4.0), op.ScalarMul(-1.0)))
    space = sp.QSumLp(4.0, 2.0)
    z = -1.0 + 0.3
    cert = ps.att1_perturbation(T, space, z, 5.0, 10)
    chk = ps.verify_cert(T, space, cert)
    assert chk["residual"] < 1e-10
    assert chk["ok"]


def test_att1_singular_section():
    # z = 0 is an eigenvalue of the zero section: the planted A is zero
    cert = ps.att1_perturbation(ZERO, sp.Lp(2), 0.0, 0.5, 6)
    assert not op.truncate_matrix(cert.A, 6 + ps.TAIL).any()
    assert sp.norm_eval(sp.Lp(2), cert.y) == pytest.approx(1.0, abs=1e-12)
    assert ps.verify_cert(ZERO, sp.Lp(2), cert) == {
        "ok": True, "residual": 0.0, "norm_A": 0.0}


@pytest.mark.parametrize("space", [sp.Lp(2.0), sp.C0(), sp.L1(), sp.Lp(3.0)],
                         ids=["l2", "c0", "l1", "l3"])
def test_att1_plants_a_singular_cell_whose_sigma_min_is_no_rounding(space):
    # cond 1e15 makes z = 0 a singular cell, yet sigma_min = 1e-9 is far
    # above CERT_RESIDUAL_TOL: an A = 0 certificate once failed with
    # residual 1e-9, where the planted A has norm 1e-9 and residual 0
    T = op.Diagonal("explicit", (1e6, 1e-9))
    cert = ps.att1_perturbation(T, space, 0.0, 0.5, 2)
    assert ps.verify_cert(T, space, cert) == {
        "ok": True, "residual": 0.0, "norm_A": 1e-9}


DOWN_SHIFT_3 = op.Matrix(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
BIG_SINGULAR = op.Diagonal("explicit", (1e21, 1e6))


@pytest.mark.parametrize("T, space, z, eps, N, refusal", [
    (DOWN_SHIFT_3, sp.Lp(2.0), 0.5 + 0.3j, 1.0, 2, None),
    (BIG_SINGULAR, sp.Lp(2.0), 0.0, 0.5, 2, "1e+06"),
    (BIG_SINGULAR, sp.C0(), 0.0, 0.5, 2, "1e+06"),
    (BIG_SINGULAR, sp.L1(), 0.0, 0.5, 2, "1e+06")],
    ids=["down_shift_l2", "big_singular_l2", "big_singular_c0",
         "big_singular_l1"])
def test_att1_refuses_or_returns_a_passing_certificate(T, space, z, eps, N,
                                                       refusal):
    # att1 once planted on the N-section and refused by 1/c: the down-shift
    # maps y past the 2-section (residual 0.909), and the cond-1e15 cell
    # planted an A of norm 1e6 > eps; both certificates failed verify_cert
    if refusal is None:
        assert ps.verify_cert(T, space, ps.att1_perturbation(
            T, space, z, eps, N))["ok"]
        return
    with pytest.raises(ValueError, match="^%s exceeds eps = 0.5:" % (
            re.escape("||A|| = " + refusal))):
        ps.att1_perturbation(T, space, z, eps, N)


SPACES_4 = (sp.L1(), sp.Lp(2.0), sp.C0(), sp.Lp(3.0))


def test_att1_certifies_cells_at_the_spectrum():
    # z within 1e-16..1e-8 of an eigenvalue of seeded complex sections,
    # relative to their scale: regular and singular cells alike plant a
    # rank-one whose certificate passes
    rng = np.random.default_rng(40)
    singular = 0
    for k in range(120):
        n = int(rng.integers(2, 7))
        scale = 10.0 ** rng.uniform(-2, 3)
        G = scale * (rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))
        if k % 3 == 0:
            G = np.triu(G)
        T = op.Matrix(tuple(map(tuple, G)))
        lam = rng.choice(np.linalg.eigvals(G))
        z = lam + scale * 10.0 ** rng.uniform(-16, -8) * np.exp(
            2j * math.pi * rng.uniform())
        for space in SPACES_4:
            cert = ps.att1_perturbation(T, space, z, scale, n)
            assert ps.verify_cert(T, space, cert)["ok"], (k, space)
        singular += ps.resolvent_norm(G, sp.Lp(2.0), z) == INF
    assert singular >= 30


@pytest.mark.parametrize("T, space, z, eps, N", [
    (op.catalog_build("sex"), sp.Lp(3.0), 0.4 + 0.2j, 2.0, 12),
    (op.SimpleS(3.0, 3.0), sp.Lp(3.0), 0.5j, 1.0, 10),
    (op.Tc0(), sp.DirectSumLp(2, ((3, 3), (5, 1.5)), 4), 0.6, 1.0, 12)],
    ids=["sex_l3", "simple_s_l3", "tc0_dsum"])
def test_att1_certificates_where_the_inverse_norm_is_an_iterate(
        T, space, z, eps, N):
    # the witness x comes from the power iteration, not a closed form
    A = op.truncate_matrix(T, N) - z * np.eye(N)
    assert opnorm.matrix_norm(np.linalg.inv(A), space)[2] == "iterate"
    chk = ps.verify_cert(T, space, ps.att1_perturbation(T, space, z, eps, N))
    assert chk["ok"]
    assert chk["residual"] < 1e-15
    assert 0 < chk["norm_A"] <= eps


# -- singularizing perturbations ----------------------------------------------

def test_lp111_scalar():
    res = ps.lp111_perturbation(op.ScalarMul(2.0), sp.Lp(2.0), 16)
    assert res.case == "fixed"
    assert res.c == pytest.approx(2.0, abs=1e-10)
    assert ps.verify_cert(op.ScalarMul(2.0), sp.Lp(2.0), res.cert)["ok"]


def test_lp111_simple_s():
    space = sp.QSumLp(4.0, 2.0)
    res = ps.lp111_perturbation(op.SimpleS(2.0, 4.0), space, 24)
    assert res.case == "fixed"
    assert ps.verify_cert(op.SimpleS(2.0, 4.0), space, res.cert)["ok"]


def test_lp111_simple_s_value_is_pinned():
    # AC10's SimpleS row: K (+)_4 l_2 as a dsum with an l_2 tail keeps the
    # bits of the two-block rule it was normed by before
    res = ps.lp111_perturbation(op.SimpleS(2.0, 4.0), sp.QSumLp(4.0, 2.0), 24)
    assert (res.case, res.c) == ("fixed", 0.6372899387675152)


def test_lp111_escaping_diagonal():
    res = ps.lp111_perturbation(op.Diagonal("one_plus_inv"), sp.Lp(2.0), 32)
    assert res.case == "escaping"
    assert ps.verify_cert(op.Diagonal("one_plus_inv"), sp.Lp(2.0),
                          res.cert)["ok"]
    # trace of bottom-of-sphere values decreases toward the infimum 1
    values = [v for _, v in res.trace]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("values, trace", [
    ((1.0, 0.0, 2.0), ()), ((1.0, 2.0, 0.0, 3.0, 4.0), ((2, 1.0),))],
    ids=["first_rung", "second_rung"])
def test_lp111_stops_at_a_singular_rung(values, trace, monkeypatch):
    # a rung whose section is singular has no c_n: the ladder stops there.
    # The only SVDs are the l_2 norms of the regular rungs' inverses; the
    # singular rung once took one for a bottom vector it then dropped
    shapes = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    res = ps.lp111_perturbation(op.Diagonal("explicit", values), sp.Lp(2.0),
                                16)
    assert res == ps.Lp111Result("inconclusive", None, 0.0, trace)
    assert shapes == [(n, n) for n, _ in trace]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 16])
def test_lp111_reads_no_section_wider_than_n(N):
    # c is the infimum on T_N; the 1 + 1/(n + 1) diagonal's is 1 + 1/N
    res = ps.lp111_perturbation(op.Diagonal("one_plus_inv"), sp.Lp(2.0), N)
    assert max(n for n, _ in res.trace) == N
    assert res.c == pytest.approx(1.0 + 1.0 / N, rel=1e-14)


@pytest.mark.parametrize("N, message", [
    (0, "N must be positive"), (-1, "N must be positive"),
    (2.5, "N must be an integer, got 2.5")], ids=["0", "-1", "2.5"])
@pytest.mark.parametrize("build", [
    lambda N: ps.att1_perturbation(op.Tc0(), sp.C0(), 0.3, 1.0, N),
    lambda N: ps.lp111_perturbation(op.Diagonal("one_plus_inv"),
                                    sp.Lp(2.0), N)], ids=["att1", "lp111"])
def test_perturbations_refuse_a_bad_truncation(build, N, message):
    # checked before the (N + TAIL)-section is built: N = 0 once raised
    # numpy's IndexError, N = -1 a negative slice and N = 2.5 named 10.5
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build(N)


@pytest.mark.parametrize("N", [4089, 4096])
@pytest.mark.parametrize("build", [
    lambda N: ps.att1_perturbation(op.Tc0(), sp.C0(), 0.3, 1.0, N),
    lambda N: ps.lp111_perturbation(op.ScalarMul(2.0), sp.Lp(2.0), N),
    lambda N: ps.verify_cert(ZERO, sp.Lp(2.0), ps.PerturbationCert(
        ZERO, 0.0, Coeffs.basis(0), 0.5, N))],
    ids=["att1", "lp111", "verify_cert"])
def test_a_residual_past_the_largest_truncation_is_refused(build, N,
                                                           monkeypatch):
    # the residual reads the (N + TAIL)-section, so N may reach 4096 - 8;
    # the message names the N passed, not N + TAIL, before any section
    seen = counted_sections(monkeypatch)
    with pytest.raises(ValueError, match="^N = %d exceeds the largest "
                       "truncation, 4088$" % N):
        build(N)
    assert seen == []


@pytest.mark.parametrize("T, N", [(op.ScalarMul(2.0), 16),
                                  (op.Diagonal("one_plus_inv"), 32)],
                         ids=["fixed", "escaping"])
def test_lp111_builds_one_section_of_t(T, N, monkeypatch):
    seen = counted_sections(monkeypatch)
    ps.lp111_perturbation(T, sp.Lp(2.0), N)
    assert [s for s in seen if s[0] == T] == [(T, N + 8)]


@pytest.mark.parametrize("T, space, N", [
    (op.ScalarMul(2.0), sp.Lp(2.0), 16),
    (op.SimpleS(2.0, 4.0), sp.QSumLp(4.0, 2.0), 24),
    (op.catalog_build("sex"), sp.Lp(3.0), 12)],
    ids=["scalar_l2", "simple_s_qsum", "sex_l3"])
def test_lp111_fixed_s_is_att1_at_zero(T, space, N):
    # one planting: lp111's fixed S is att1's A at z = 0 with eps = c, up to
    # the phase of the bottom vector, which a rank-one f_y(.)y cancels
    res = ps.lp111_perturbation(T, space, N)
    assert res.case == "fixed"
    cert = ps.att1_perturbation(T, space, 0.0, res.c, N)
    S = op.truncate_matrix(res.cert.A, N)
    A = op.truncate_matrix(cert.A, N)
    assert np.abs(S - A).max() <= 1e-12 * np.abs(A).max()
    assert ps.verify_cert(T, space, cert)["ok"]
    assert ps.verify_cert(T, space,
                          dataclasses.replace(cert, A=res.cert.A))["ok"]


@pytest.mark.parametrize("build", [
    lambda: [ps.att1_perturbation(T, space, z, eps, N)
             for T, space, z, eps, N in (
                 (op.ScalarMul(0.0), sp.Lp(2.0), 0.3j, 0.8, 12),
                 (op.Diagonal("one_minus_2pow"), sp.Lp(2.0), 0.6 + 0.05j,
                  0.4, 16),
                 (op.Tc0(), sp.C0(), 0.6j, 1.0, 20))],
    lambda: ps.lp111_perturbation(op.ScalarMul(2.0), sp.Lp(2.0), 16),
    lambda: ps.lp111_perturbation(op.Diagonal("one_plus_inv"), sp.Lp(2.0),
                                  32)],
    ids=["att1_ac7", "lp111_fixed", "lp111_escaping"])
def test_perturbations_read_t_off_its_section(build, monkeypatch):
    # every image of T is a product with the section each construction
    # holds; the escaping case once imaged its blocks through op.apply
    def no_apply(T, x):
        raise AssertionError("op.apply(%r)" % (T,))

    monkeypatch.setattr(op, "apply", no_apply)
    assert build()


@pytest.mark.parametrize("N", [8, 16, 32, 64])
@pytest.mark.parametrize("space", [sp.L1(), sp.Lp(1.5), sp.Lp(2.0),
                                   sp.Lp(3.0), sp.C0()],
                         ids=["l1", "l1.5", "l2", "l3", "c0"])
def test_lp111_escaping_s_is_one_rank_one_per_disjoint_block(space, N):
    # the diagonal's witnesses are disjoint unit vectors, so every block is
    # kept and each term is supported on its own block
    T = op.Diagonal("one_plus_inv")
    res = ps.lp111_perturbation(T, space, N)
    assert res.case == "escaping"
    terms = res.cert.A.terms
    assert len(terms) == len(res.trace)
    assert all(isinstance(t, op.RankOne) for t in terms)
    for i, t in enumerate(terms):
        assert t.functional.support() <= t.vector.support()
        for s in terms[i + 1:]:
            assert not t.vector.support() & s.vector.support()
    assert ps.verify_cert(T, space, res.cert)["ok"]
