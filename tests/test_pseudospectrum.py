import dataclasses
import json
import math
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

def test_classify_level_on_rank_one_boundary():
    # at eps = 1/2 the law gives 1 + 1 = 2 = 1/eps exactly on |z| = 1
    assert ps.classify_point(op.Tc0(), sp.C0(), 1.0, 0.5, 40) == "level"
    assert ps.classify_point(op.Tc0(), sp.C0(), -1.5, 0.5, 40) == "outside"
    assert ps.classify_point(op.Tc0(), sp.C0(), 0.5, 0.5, 40) == "strict"


def test_classify_zero_operator():
    assert ps.classify_point(ZERO, sp.Lp(2), 3.0, 1.0, 4) == "outside"
    assert ps.classify_point(ZERO, sp.Lp(2), 0.5, 1.0, 4) == "strict"
    with pytest.raises(ValueError):
        ps.classify_point(ZERO, sp.Lp(2), 1.0, -1.0, 4)


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


def test_grid_rejects_renormed_space():
    with pytest.raises(NotImplementedError):
        ps.grid_scan(ZERO, sp.RenormedL2(), (-1, 1, -1, 1), 3, 1.0, 4)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_grid_rejects_bad_eps_before_scan(eps, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned the grid")

    monkeypatch.setattr(ps, "resolvent_norm", no_scan)
    with pytest.raises(ValueError, match="^eps must be positive$"):
        ps.grid_scan(ZERO, sp.Lp(2), (-1, 1, -1, 1), 3, eps, 4)


@pytest.mark.parametrize("band", [ps.LEVEL_BAND, 1e-3])
def test_grid_reread_at_other_eps_matches_fresh_scan(band):
    # ZERO has resolvent norm 1/|z|, so the cells at |z| = eps are level
    args = (ZERO, sp.Lp(2), (-2, 2, -2, 2), 9)
    grid = ps.grid_scan(*args, 0.1, 4, band=band)
    for eps in (0.5, 1.0):
        fresh = ps.grid_scan(*args, eps, 4, band=band)
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
    the SVD condition number, then the inverse, then the matrix norm with
    the closed forms written as matrix_norm wrote them then (the power
    iteration is unchanged).  Returns (norm, cond)."""
    A = M - complex(z) * np.eye(len(M), dtype=complex)
    cond = np.linalg.cond(A)
    if cond > ps.SINGULAR_COND:
        return INF, cond
    inv = np.asarray(np.linalg.inv(A), dtype=complex)
    p = sp.lp_exponent(space)
    if p == 1 or p == INF:
        sums = np.ascontiguousarray(np.abs(inv.T if p == 1 else inv)).sum(
            axis=1)
        k = int(np.argmax(sums))
        return float(sums[k]), cond
    if p == 2:
        U, s, Vh = np.linalg.svd(inv)
        return float(s[0]), cond
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
    "diag_d": (DIAG_D, sp.Lp(2), 30, 4,
               # z = d_0 = 0.5 exactly, then d_k + delta with cond 4e8-5e14
               [(0.5, 1.5, 0, 1)]
               + [(d + delta, 1.5, 0, 1) for d in (0.5, 0.875)
                  for delta in (1e-9, 1e-12, 1e-14, 1e-15)]),
    "lower_triangle_l3": (op.Transpose(TRIANGLE), sp.Lp(3), 5, 3, []),
    "triangle_dsum": (TRIANGLE, sp.DirectSumLp(2.0, ((2, 1.0), (3, 3.0))),
                      5, 3, []),
    "transpose_tc0_l1": (op.Transpose(op.Tc0()), sp.L1(), 30, 5, []),
}


def test_grid_scan_matches_per_cell_path():
    rng = np.random.default_rng(9)
    zero_pivots = open_regular = cond_singular = 0
    for name, (T, space, N, res, extra) in EQUIVALENCE_CASES.items():
        M = op.truncate_matrix(T, N)
        cx, cy = rng.uniform(-1, 1, size=2)
        hx, hy = rng.uniform(0.3, 1.5, size=2)
        seeded = (cx - hx, cx + hx, cy - hy, cy + hy)
        for region in [(-1, 1, -1, 1), seeded] + extra:
            grid = ps.grid_scan(T, space, region, res, 0.5, N)
            want, conds = zip(*(per_cell_resolvent_norm(M, space, z)
                                for z, _, _ in grid.cells()))
            assert grid.resnorms == want, (name, region)
            assert grid.classes == tuple(ps._classify(r, 0.5, ps.LEVEL_BAND)
                                         for r in want), (name, region)
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
    # Frobenius screen decides every cell (cell by cell took 3721 conds)
    calls = counted_linalg(monkeypatch, "cond", "inv")
    ps.grid_scan(op.Tc0(), sp.C0(), (0.5, 3, 0.5, 3), 61, 0.5, 30)
    per_block = ps.GRID_BLOCK // (30 * 30)
    assert calls == {"cond": 0, "inv": -(-61 * 61 // per_block)}


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
    assert cert.residual < 1e-12
    assert cert.norm_A == pytest.approx(0.5, abs=1e-12)
    chk = ps.verify_cert(ZERO, sp.Lp(2), cert)
    assert chk["ok"]


def test_att1_tc0():
    cert = ps.att1_perturbation(op.Tc0(), sp.C0(), -1.0, 0.51, 20)
    assert cert.residual < 1e-10
    assert cert.norm_A <= 0.51 + 1e-10
    assert ps.verify_cert(op.Tc0(), sp.C0(), cert)["ok"]


def test_att1_builds_one_section_of_t(monkeypatch):
    seen = counted_sections(monkeypatch)
    ps.att1_perturbation(op.Tc0(), sp.C0(), -1.0, 0.51, 20)
    assert seen == [(op.Tc0(), 28)]


def test_verify_cert_rejects_uncertifiable_perturbation():
    # a section norm of a Matrix A only bounds ||A|| from below on l_3
    cert = ps.PerturbationCert(op.Matrix(((0.1, 0.0), (0.0, 0.0))), 0.0,
                               Coeffs.basis(1), 0.0, 0.1, 0.5, 2)
    with pytest.raises(TypeError):
        ps.verify_cert(ZERO, sp.Lp(3.0), cert)


def test_att1_eps_too_small_rejected():
    with pytest.raises(ValueError):
        ps.att1_perturbation(op.Tc0(), sp.C0(), 3.0, 0.1, 20)


def test_att1_simple_s_shifted():
    T = op.Sum((op.SimpleS(2.0, 4.0), op.ScalarMul(-1.0)))
    space = sp.QSumLp(4.0, 2.0)
    z = -1.0 + 0.3
    cert = ps.att1_perturbation(T, space, z, 5.0, 10)
    assert cert.residual < 1e-10
    assert ps.verify_cert(T, space, cert)["ok"]


def test_att1_singular_section():
    # z = 0 is an eigenvalue of the zero section: A = 0 certifies it
    cert = ps.att1_perturbation(ZERO, sp.Lp(2), 0.0, 0.5, 6)
    assert cert.A == op.ScalarMul(0.0)
    assert cert.norm_A == 0.0 and cert.residual == 0.0
    assert sp.norm_eval(sp.Lp(2), cert.y) == pytest.approx(1.0, abs=1e-12)
    assert ps.verify_cert(ZERO, sp.Lp(2), cert) == {
        "ok": True, "residual": 0.0, "norm_A": 0.0}


# -- singularizing perturbations ----------------------------------------------

def test_lp111_scalar():
    res = ps.lp111_perturbation(op.ScalarMul(2.0), sp.Lp(2.0), 16)
    assert res.case == "fixed"
    assert res.c == pytest.approx(2.0, abs=1e-10)
    assert res.new_inf < 1e-10
    normS = opnorm.operator_norm(res.S, sp.Lp(2.0), 16).value
    assert normS <= res.c + 1e-8


def test_lp111_simple_s():
    space = sp.QSumLp(4.0, 2.0)
    res = ps.lp111_perturbation(op.SimpleS(2.0, 4.0), space, 24)
    assert res.case == "fixed"
    assert res.new_inf < 1e-6
    normS = opnorm.operator_norm(res.S, space, 24).value
    assert normS <= res.c + 1e-8


def test_lp111_escaping_diagonal():
    res = ps.lp111_perturbation(op.Diagonal("one_plus_inv"), sp.Lp(2.0), 32)
    assert res.case == "escaping"
    assert res.new_inf < 1e-10
    normS = opnorm.operator_norm(res.S, sp.Lp(2.0), 32).value
    assert normS <= res.c + 1e-8
    # trace of bottom-of-sphere values decreases toward the infimum 1
    values = [v for _, v in res.trace]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("T, N", [(op.ScalarMul(2.0), 16),
                                  (op.Diagonal("one_plus_inv"), 32)],
                         ids=["fixed", "escaping"])
def test_lp111_builds_one_section_of_t(T, N, monkeypatch):
    seen = counted_sections(monkeypatch)
    ps.lp111_perturbation(T, sp.Lp(2.0), N)
    assert [s for s in seen if s[0] == T] == [(T, N + 8)]


# -- strict vs closure ---------------------------------------------------------

def test_sigma0_zero_operator_levels_certified():
    report = ps.sigma0_vs_sigma_check(ZERO, sp.Lp(2), 1.0, (-1.5, 1.5, -1.5,
                                                            1.5), 13, 6)
    assert not report.level_uncertified
    for _, norm_A in report.level_certified:
        assert norm_A <= 1.0 + 1e-10


def test_sigma0_inclusion_counts():
    report = ps.sigma0_vs_sigma_check(op.Tc0(), sp.C0(), 0.5,
                                      (-2.5, 2.5, -2.5, 2.5), 11, 16)
    total = (report.strict_count + report.outside_count
             + len(report.level_certified) + len(report.level_uncertified))
    assert total == 121
