import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from normlab import cli
from normlab import convex
from normlab import operators as op
from normlab import opnorm
from normlab import pseudospectrum as ps
from normlab import spaces as sp
from normlab import verify
from normlab.coeffs import Coeffs, MAX_TRUNC


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, stdout=buf)
    return code, buf.getvalue()


def assert_usage_error(argv, capsys):
    """Exit code 1 with exactly one line on stderr and no traceback."""
    capsys.readouterr()
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


# -- norm ----------------------------------------------------------------------

def test_norm_lp():
    code, out = run(["norm", "--space", '{"space":"lp","p":2}',
                     "--vector", "[[1,1,0],[2,1,0]]"])
    assert code == 0
    assert out.strip() == "1.414214"


def test_norm_renorm_identity():
    code, out = run(["norm", "--space", '{"space":"renorm"}',
                     "--vector", "[[2,1,0],[3,1,0]]", "--trunc", "8"])
    assert code == 0
    assert out.strip() == "1.000000"


def test_norm_json_format():
    code, out = run(["norm", "--space", '{"space":"renorm"}',
                     "--vector", "[[2,1,0],[3,1,0]]", "--trunc", "8",
                     "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert obj["value"] == pytest.approx(1.0, abs=1e-6)
    assert obj["decomposition"]["converged"]
    assert obj["decomposition"]["iterations"] > 0
    # e_2 + e_3 is the pair atom n = 1, closed by the KKT decomposition
    assert obj["decomposition"]["schema_version"] == 2
    assert obj["decomposition"]["kkt"] is True


def test_norm_json_format_lp():
    code, out = run(["norm", "--space", '{"space":"lp","p":2}',
                     "--vector", "[[0,3,0],[1,0,4]]", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "value": 5.0}


# a dense vector whose primal-dual gap stays at rounding level (~1e-15)
GAP_VECTOR = [[i, v, 0] for i, v in enumerate(
    (-0.1, 0.6, 0.1, -0.5, 0.4, 1.3, 0.9, -0.7, -1.3, -0.6, 0, -2.3,
     -0.2, -1.2)) if v]
GAP_ARGV = ["norm", "--space", '{"space":"renorm"}', "--vector",
            json.dumps(GAP_VECTOR), "--trunc", "11", "--tol", "1e-300"]


def test_norm_solver_gap_exit_code(capsys):
    capsys.readouterr()
    code, out = run(GAP_ARGV)
    err = capsys.readouterr().err
    assert code == 2
    assert float(out) > 0 and err.startswith("solver gap ")


def test_norm_solver_gap_json_parses(capsys):
    capsys.readouterr()
    code, out = run(GAP_ARGV + ["--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    obj = json.loads(out)
    assert not obj["decomposition"]["converged"]
    assert obj["decomposition"]["iterations"] == convex.MAX_ITER
    assert err.startswith("solver gap ") and err.count("\n") == 1


def test_norm_near_the_largest_double_is_certified(capsys):
    # it ran all MAX_ITER steps to a NaN and exited 2
    capsys.readouterr()
    code, out = run(["norm", "--space", '{"space":"renorm"}', "--vector",
                     "[[3,1e308,1e308]]", "--trunc", "2", "--format",
                     "json"])
    assert code == 0 and capsys.readouterr().err == ""
    obj = json.loads(out)
    assert obj["decomposition"]["converged"]
    assert math.isfinite(obj["value"]) and obj["value"] > 1e308


@pytest.mark.parametrize("space", ['{"space":"lp","p":2}',
                                   '{"space":"qsum","q":4,"p":2}'])
def test_norm_of_a_far_entry_allocates_nothing_of_its_index(space):
    # the vector was densified to its largest index plus one, and this ended
    # in numpy's MemoryError traceback
    code, out = run(["norm", "--space", space,
                     "--vector", "[[100000000000000,1,0]]"])
    assert (code, out) == (0, "1.000000\n")


def test_norm_inside_a_huge_listed_block_allocates_nothing_of_its_size():
    # the listed block was densified up to the vector's length, and this
    # ended in numpy's MemoryError traceback
    code, out = run(["norm", "--space",
                     '{"space":"dsum","p":2,"blocks":[[100000000000000,2]]}',
                     "--vector", "[[99999999999999,1,0]]"])
    assert (code, out) == (0, "1.000000\n")


def test_norm_past_the_dsum_partition_is_usage_error(capsys):
    assert_usage_error(["norm", "--space",
                        '{"space":"dsum","p":2,"blocks":[[2,2]]}',
                        "--vector", "[[100000000000000,1,0]]"], capsys)


def test_norm_malformed_json_is_usage_error():
    code, _ = run(["norm", "--space", '{"space":"lp","p":2}',
                   "--vector", "not json"])
    assert code == 1


def test_norm_missing_vector_is_usage_error():
    code, _ = run(["norm", "--space", '{"space":"lp","p":2}'])
    assert code == 1


def test_norm_string_entry_is_usage_error(capsys):
    assert_usage_error(["norm", "--space", '{"space":"lp","p":2}',
                        "--vector", '[[0,"a",0]]'], capsys)


def test_norm_renorm_uses_space_trunc(capsys):
    # trunc 4 admits support [0, 7); index 9 fails the support check unless
    # --trunc is given
    argv = ["norm", "--space", '{"space":"renorm","trunc":4}',
            "--vector", "[[2,1,0],[9,1,0]]"]
    assert_usage_error(argv, capsys)
    code, out = run(argv + ["--trunc", "8"])
    assert code == 0 and out.strip() == "1.000000"


@pytest.mark.parametrize("vector", ["[[0,NaN,0],[1,3,0],[2,4,0]]",
                                    "[[0,Infinity,0]]", "[[Infinity,1,0]]"])
def test_norm_non_finite_entry_is_usage_error(vector, capsys):
    assert_usage_error(["norm", "--space", '{"space":"lp","p":2}',
                        "--vector", vector], capsys)


@pytest.mark.parametrize("space", ['{"space":"renorm"}',
                                   '{"space":"lp","p":2}'])
def test_norm_coefficient_below_prune_tol_is_usage_error(space, capsys):
    # the entry was dropped on reading, and the renorm norm printed 0.0
    assert_usage_error(["norm", "--space", space, "--vector",
                        "[[3,1e-301,0]]"], capsys)


LP2 = '{"space":"lp","p":2}'
TC0 = '{"op":"catalog","name":"tc0"}'
DIAG_D = '{"op":"diagonal","rule":"one_minus_2pow"}'

ENDPOINT_ARGS = {
    "norm": ["--vector", "[[0,1,2],[3,-2,1],[7,0.5,0]]"],
    "opnorm": ["--operator", '{"op":"matrix","rows":[[[1,0],[2,-1]],'
               '[[3,0],[0,4]]]}', "--trunc", "2", "--format", "json"],
    "pspec": ["--operator", TC0, "--trunc", "8", "--res", "5",
              "--format", "json"],
}


@pytest.mark.parametrize("command", sorted(ENDPOINT_ARGS))
@pytest.mark.parametrize("tag, p", [("l1", "1"), ("c0", '"inf"')])
def test_lp_at_an_endpoint_prints_as_its_tag(command, tag, p):
    # c0 and l1 are the lp space at p = inf and p = 1
    outs = [run([command, "--space", space] + ENDPOINT_ARGS[command])
            for space in ('{"space":"%s"}' % tag,
                          '{"space":"lp","p":%s}' % p)]
    assert outs[0][0] == 0 and outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["norm", "--space", LP2, "--vector", "[[1.5,1,0]]"],
    ["norm", "--space", '{"space":"dsum","p":2,"blocks":[[1.5,2]]}',
     "--vector", "[[0,1,0]]"],
    ["norm", "--space", '{"space":"renorm","trunc":2.7}',
     "--vector", "[[2,1,0]]"],
    ["norm", "--space", '{"space":"renorm"}', "--vector", "[[2,1,0]]",
     "--tol", "-1"],
    ["norm", "--space", '{"space":"renorm"}', "--vector", "[[2,1,0]]",
     "--tol", "nan"],
    ["norm", "--space", LP2, "--vector", "[[0,1,0]]", "--tol", "-1"],
    ["norm", "--space", LP2, "--vector", "[[0,1,0]]", "--trunc", "8"],
    ["norm", "--space", '{"space":"renorm"}', "--vector", "[[2,1,0]]",
     "--trunc", "0"],
    ["norm", "--space", '{"space":"renorm"}', "--vector", "[[0,1,0]]",
     "--trunc", "-1"],
    ["opnorm", "--space", LP2, "--operator", '{"op":"catalog","name":5}'],
    ["opnorm", "--space", LP2, "--operator", '{"op":"matrix","rows":[]}'],
    ["pspec", "--space", '{"space":"renorm"}', "--operator", TC0,
     "--res", "3", "--trunc", "4"],
    ["pspec", "--space", LP2, "--operator", TC0, "--grid=nan,1,0,1",
     "--res", "3", "--trunc", "4"],
    ["pspec", "--space", LP2, "--operator", TC0, "--grid=-1,inf,0,1",
     "--res", "3", "--trunc", "4"],
    ["pspec", "--space", LP2, "--operator", TC0, "--grid=-1e308,1e308,0,1",
     "--res", "3", "--trunc", "4"],
    ["opnorm", "--space", LP2, "--operator",
     '{"op":"rank_one","vector":[[0,1,0]]}'],
    ["opnorm", "--space", '{"space":"lp","p":800}', "--operator",
     '{"op":"matrix","rows":[[[1e308,0],[1e308,0],[800,0]]]}',
     "--trunc", "4"],
    ["pspec", "--space", '{"space":"c0"}', "--operator",
     '{"op":"sum","terms":[{"op":"scalar","re":1e308},'
     '{"op":"scalar","re":1e308}]}', "--trunc", "3", "--res", "2"],
    ["pspec", "--space", LP2, "--operator", '{"op":"scalar","re":-1e308}',
     "--grid=1e308,1.0000001e308,0,1", "--res", "2", "--trunc", "2"],
    ["pspec", "--space", LP2, "--operator", TC0, "--res", "3",
     "--trunc", "4", "--eps", "inf"],
    ["opnorm", "--space", '{"space":"lp","p":3}', "--operator", TC0,
     "--trunc", "4", "--seed=-1"],
    ["pspec", "--space", LP2, "--operator", TC0, "--res", "3",
     "--trunc", "4", "--seed=-1"],
    ["pspec", "--space", '{"space":"c0"}', "--operator", TC0, "--res", "3",
     "--trunc", "4", "--seed=-1"],
], ids=["index", "block_size", "trunc", "tol_negative", "tol_nan",
        "tol_on_lp", "trunc_on_lp", "renorm_trunc_zero",
        "renorm_trunc_negative", "catalog_name", "empty_matrix",
        "pspec_renorm", "grid_nan", "grid_inf", "grid_span_overflow",
        "missing_key", "section_sum_overflow", "section_entry_overflow",
        "grid_shift_overflow", "eps_inf", "opnorm_seed_negative",
        "pspec_l2_seed_negative", "pspec_c0_seed_negative"])
def test_out_of_domain_input_is_usage_error(argv, capsys):
    assert_usage_error(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["norm", "--space", LP2, "--vector", "[" * 5000],
    ["opnorm", "--space", LP2, "--operator",
     '{"op":"sum","terms":[' * 900 + '{"op":"scalar","re":1}' + "]}" * 900],
], ids=["vector", "operator"])
def test_deep_json_nesting_is_usage_error(argv, capsys):
    # json and the operator walk recurse; a RecursionError is one error line
    assert_usage_error(argv, capsys)


HUGE = "1000000000000"


@pytest.mark.parametrize("argv", [
    ["opnorm", "--space", LP2, "--operator",
     '{"op":"rank_one","functional":[[0,1,0]],"vector":[[1,1,0]]}',
     "--trunc", HUGE],
    ["opnorm", "--space", LP2, "--operator", DIAG_D, "--trunc", HUGE],
    ["opnorm", "--space", LP2, "--operator", '{"op":"identity"}',
     "--trunc", HUGE],
    ["opnorm", "--space", '{"space":"qsum","q":4,"p":2}', "--operator",
     '{"op":"catalog","name":"simple_s","p":2,"q":4}', "--trunc", HUGE],
    ["opnorm", "--space", LP2, "--operator", TC0, "--trunc", HUGE],
    ["pspec", "--space", LP2, "--operator", TC0, "--res", "2",
     "--trunc", HUGE],
    ["norm", "--space", '{"space":"renorm"}', "--vector", "[[2,1,0]]",
     "--trunc", HUGE],
    ["norm", "--space", '{"space":"renorm","trunc":%s}' % HUGE,
     "--vector", "[[2,1,0]]"],
], ids=["rank_one", "diagonal", "identity", "swap", "section", "pspec",
        "renorm_trunc", "renorm_space_trunc"])
def test_truncation_past_the_bound_is_refused(argv, capsys):
    # refused before anything of size N is allocated: the rank-one bypass
    # ended in numpy's MemoryError traceback, and the diagonal bypass
    # looped over range(N) for minutes
    capsys.readouterr()
    code, out = run(argv)
    assert (code, out) == (1, "")
    what = "trunc" if argv[0] == "norm" else "N"
    assert capsys.readouterr().err == (
        "error: %s = %s exceeds the largest truncation, %d\n"
        % (what, HUGE, MAX_TRUNC))


def test_truncation_at_the_bound_runs():
    code, out = run(["opnorm", "--space", LP2, "--operator", DIAG_D,
                     "--trunc", str(MAX_TRUNC)])
    assert code == 0 and out.startswith("1.0000000000 ")


def test_section_entry_modulus_overflow_is_usage_error(capsys):
    # both parts of the entry are finite but its modulus is not: Coeffs'
    # abs() raised OverflowError, a traceback, while the column was imaged
    assert_usage_error(
        ["opnorm", "--space", '{"space":"lp","p":3}', "--operator",
         '{"op":"sum","terms":[{"op":"identity"},{"op":"rank_one",'
         '"functional":[[0,1.5e300,0]],"vector":[[0,1e8,1e8]]}]}',
         "--trunc", "3"], capsys)


@pytest.mark.parametrize("space,operator,message", [
    (LP2, '{"op":"rank_one","vector":[[0,1,0]]}',
     "malformed --operator: missing key 'functional'"),
    ('{"p":2}', TC0, "malformed --space: missing key 'space'"),
])
def test_missing_json_key_is_named(space, operator, message, capsys):
    capsys.readouterr()
    code, _ = run(["opnorm", "--space", space, "--operator", operator])
    assert (code, capsys.readouterr().err) == (1, "error: %s\n" % message)


def test_pspec_grid_span_overflow_is_rejected_before_any_work(capfd):
    # each bound is finite but re1 - re0 overflows: linspace made inf and
    # NaN cell centers, and the run ended in LAPACK's complaints (on the
    # C stdout, which an in-process run cannot see) and "SVD did not
    # converge"; no warning may escape either
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(["pspec", "--space", LP2, "--operator", TC0,
                         "--grid=-1e308,1e308,0,1", "--res", "3",
                         "--trunc", "4"])
    cap = capfd.readouterr()
    assert (code, out, cap.out) == (1, "", "")
    assert cap.err == ("error: grid spans re1 - re0, im1 - im0 must be "
                       "finite\n")


def test_norm_default_tol_is_the_solver_default(monkeypatch):
    # the CLI reads the default where the solver defines it
    tols = []
    real = convex.minkowski_norm

    def recording(u, N, tol):
        tols.append(tol)
        return real(u, N, tol)

    monkeypatch.setattr(convex, "minkowski_norm", recording)
    monkeypatch.setattr(convex, "TOL", 1e-7)
    code, _ = run(["norm", "--space", '{"space":"renorm","trunc":8}',
                   "--vector", "[[2,1,0],[3,1,0]]"])
    assert code == 0 and tols == [1e-7]


# -- opnorm --------------------------------------------------------------------

def test_opnorm_simple_s():
    code, out = run(["opnorm", "--space", '{"space":"qsum","q":4,"p":2}',
                     "--operator",
                     '{"op":"catalog","name":"simple_s","p":2,"q":4}',
                     "--trunc", "10"])
    assert code == 0
    assert out.startswith("1.1344141612")
    assert "method=reduction_f" in out


def test_opnorm_dsum_inf():
    # the operator lives in the first l_2 block as [[1,2],[0,1]], whose
    # l_2 norm is 1 + sqrt(2); the dual space is the l_1 sum of the blocks
    code, out = run(["opnorm", "--space",
                     '{"space":"dsum","p":"inf","blocks":[[2,2],[2,3]]}',
                     "--operator",
                     '{"op":"matrix","rows":[[[1,0],[2,0]],[[0,0],[1,0]]]}',
                     "--trunc", "4"])
    assert code == 0
    assert out.startswith("2.4142135624 ")


DSUM_2 = '{"space":"dsum","p":3,"blocks":[[2,2]]}'     # two coordinates


@pytest.mark.parametrize("oper", [DIAG_D, '{"op":"identity"}',
                                  '{"op":"scalar","re":2}'])
def test_opnorm_bypass_refuses_past_the_partition(oper, capsys):
    # the 5-section is nonzero on e_2..e_4, outside the space; the diagonal
    # bypass once printed 0.96875 with the witness e_4, where the same
    # section given as a matrix is refused
    capsys.readouterr()
    code, out = run(["opnorm", "--space", DSUM_2, "--operator", oper,
                     "--trunc", "5"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == \
        "error: support exceeds the block partition\n"


def test_opnorm_bypass_inside_the_partition_matches_the_matrix():
    values = []
    for oper in (DIAG_D, '{"op":"matrix","rows":[[[0.5,0],[0,0]],'
                         '[[0,0],[0.75,0]]]}'):
        code, out = run(["opnorm", "--space", DSUM_2, "--operator", oper,
                         "--trunc", "2", "--format", "json"])
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values[0] == values[1] == 0.75
    # a zero scalar has no entry past the partition at any N
    code, out = run(["opnorm", "--space", DSUM_2, "--operator",
                     '{"op":"scalar","re":0}', "--trunc", "5"])
    assert code == 0 and out.startswith("0.0000000000 ")


def test_opnorm_iterate_on_a_section_wider_than_the_partition():
    # the section is zero past the two coordinates; the power iteration's
    # starts once reached e_2..e_4 and were refused, where --trunc 2 read 1
    code, out = run(["opnorm", "--space", DSUM_2, "--operator",
                     '{"op":"matrix","rows":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
                     "--trunc", "5", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["value"], obj["method"]) == (1.0, "iterate")
    assert all(i < 2 for i, _, _ in obj["witness"])


@pytest.mark.parametrize("rows", [
    [[[0, 0], [0, 0], [1, 0]], [[0, 0]] * 3, [[0, 0]] * 3],
    [[[0, 0]] * 3, [[0, 0]] * 3, [[1, 0], [0, 0], [0, 0]]]],
    ids=["column_2", "row_2"])
def test_opnorm_iterate_refuses_a_matrix_past_the_partition(rows, capsys):
    # zeroing the starts past the blocks alone read column 2 as 1.0 with
    # the witness e_2, a coordinate the space does not have
    capsys.readouterr()
    code, out = run(["opnorm", "--space", DSUM_2, "--operator",
                     json.dumps({"op": "matrix", "rows": rows}),
                     "--trunc", "3"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == \
        "error: support exceeds the block partition\n"


def test_opnorm_json():
    code, out = run(["opnorm", "--space", '{"space":"lp","p":2}',
                     "--operator", '{"op":"identity"}', "--trunc", "4",
                     "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 1.0 and obj["schema_version"] == 1


def test_opnorm_nan_matrix_is_usage_error(capsys):
    assert_usage_error(["opnorm", "--space", '{"space":"lp","p":2}',
                        "--operator",
                        '{"op":"matrix","rows":[[[NaN,0],[1,0]],[[0,0],[1,0]]]}',
                        "--trunc", "2"], capsys)


@pytest.mark.parametrize("p,lower,upper", [
    # between the best basis column and the Riesz-Thorin bound
    # ||M||_1^{1/p} ||M||_inf^{1-1/p} of M = [[1, 2], [3, 4]]
    ("800", 4.0, 6.0 ** (1 / 800) * 7.0 ** (799 / 800)),
    ("1.001", 5.99618, 6.0 ** (1 / 1.001) * 7.0 ** (0.001 / 1.001)),
])
@pytest.mark.filterwarnings("error")
def test_opnorm_extreme_exponent_iterates(p, lower, upper):
    code, out = run(["opnorm", "--space", '{"space":"lp","p":%s}' % p,
                     "--operator",
                     '{"op":"matrix","rows":[[[1,0],[2,0]],[[3,0],[4,0]]]}',
                     "--trunc", "2"])
    assert code == 0
    value = float(out.split()[0])
    assert lower <= value <= upper


def test_opnorm_large_exponent_prints_no_numpy_warning():
    # the first, unscaled l_800 sum overflows; the rescaled value is right
    # and numpy must not print its overflow warning on the way
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "normlab.cli", "opnorm",
         "--space", '{"space":"lp","p":800}', "--operator",
         '{"op":"matrix","rows":[[[1,0],[2,0]],[[3,0],[4,0]]]}',
         "--trunc", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "6.9940272147 method=iterate attainment=inconclusive\n"
    assert proc.stderr == ""


def test_python_m_normlab_runs_the_cli():
    # a checkout that is not installed runs as python -m normlab
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "normlab", "opnorm", "--space", LP2,
         "--operator", '{"op":"catalog","name":"sex"}', "--trunc", "4"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == \
        "1.6180339887 method=closed_form attainment=inconclusive\n"
    proc = subprocess.run([sys.executable, "-m", "normlab", "frobnicate"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1


def _experiments():
    """The normlab commands of README's Experiments block, as argv lists."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Experiments")[1].split("```sh\n")[1]
    lines = block.split("```")[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("normlab ")]


# each attainment ladder of README's Experiments block: its tag and the
# length of its trace
LADDERS = {
    "5,10,20,40": ("escaping", 4),      # diag_d on l_2
    "4,8,16": ("attained", 3),          # I + e_1 (x) e_0 on l_2
    "5,10,20,30": ("escaping", 4),      # I + Tc0 on c_0
    "8,16,32": ("attained", 3),         # I + F on l_3
    "10,100,1000": ("escaping", 3),     # the swap on qsum(4, 2)
}


def test_readme_experiments_run(tmp_path):
    ladders = {}
    for argv in _experiments():
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        code, _ = run(argv)
        assert code == 0, argv
        if argv[0] == "opnorm":
            trunc = argv[argv.index("--trunc") + 1]
            code, out = run(argv + ["--format", "json"])
            obj = json.loads(out)
            ladders[trunc] = (obj["attainment"], len(obj["trace"]))
    assert ladders == LADDERS
    assert (tmp_path / "grid.csv").exists()


I_PLUS_F = ('{"op":"sum","terms":[{"op":"identity"},{"op":"rank_one",'
            '"functional":[[0,1,0]],"vector":[[3,1,0],[5,0.5,0]]}]}')


def test_opnorm_ladder_prints_the_attainment_scan_report():
    argv = ["opnorm", "--space", '{"space":"lp","p":3}', "--operator",
            I_PLUS_F, "--trunc", "8,16,32"]
    T = op.Sum((op.Identity(), op.RankOne(Coeffs.basis(0),
                                          Coeffs({3: 1.0, 5: 0.5}))))
    scan = opnorm.attainment_scan(T, sp.Lp(3.0), (8, 16, 32))
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out) == dict(json.loads(json.dumps(scan.to_json_obj())),
                                   schema_version=1)
    assert run(argv) == (0, "%.10f method=iterate attainment=attained\n"
                         % scan.value)
    assert scan.upper == pytest.approx(1.798, abs=1e-3)


@pytest.mark.parametrize("trunc, message", [
    ("8,8", "Ns must be strictly increasing"),
    ("8,4", "Ns must be strictly increasing"),
    ("8,x", "argument --trunc: invalid int value: '8,x'"),
    ("8,", "argument --trunc: invalid int value: '8,'"),
    ("0,8", "N must be positive"),
])
def test_opnorm_bad_ladder_is_usage_error(trunc, message, capsys):
    capsys.readouterr()
    code, out = run(["opnorm", "--space", LP2, "--operator", TC0,
                     "--trunc", trunc])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: %s\n" % message


def test_ladder_past_the_bound_is_refused_before_any_section(monkeypatch,
                                                             capsys):
    calls = []
    real = opnorm.operator_norm

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(opnorm, "operator_norm", counting)
    argv = ["opnorm", "--space", LP2, "--operator", TC0, "--trunc"]
    assert run(argv + ["8,16"])[0] == 0 and calls == [8, 16]
    calls.clear()
    capsys.readouterr()
    assert run(argv + ["8,16," + HUGE]) == (1, "")
    assert calls == []
    assert capsys.readouterr().err == (
        "error: N = %s exceeds the largest truncation, %d\n"
        % (HUGE, MAX_TRUNC))


def test_cli_and_verify_load_no_scipy():
    # scipy is a test dependency only: importing the library must not load it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, normlab.cli, normlab.verify; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_opnorm_json_has_no_warning_key():
    code, out = run(["opnorm", "--space", '{"space":"qsum","q":1,"p":3}',
                     "--operator",
                     '{"op":"matrix","rows":[[[1,0],[2,0],[0,1]],'
                     '[[3,0],[-4,0],[1,0]],[[0,0.5],[1,0],[2,0]]]}',
                     "--trunc", "3", "--format", "json"])
    assert code == 0
    assert "warning" not in json.loads(out)


def test_opnorm_text_zero_section_is_a_closed_form(capsys):
    capsys.readouterr()
    code, out = run(["opnorm", "--space", '{"space":"lp","p":3}',
                     "--operator",
                     '{"op":"matrix","rows":[[[0,0],[0,0]],[[0,0],[0,0]]]}',
                     "--trunc", "2"])
    assert code == 0
    assert out == "0.0000000000 method=closed_form attainment=inconclusive\n"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("oper", [
    '{"op":"matrix","rows":[[[0,0],[0,0]],[[0,0],[0,0]]]}',
    '{"op":"scalar","re":0}'])
def test_opnorm_zero_section_past_the_partition_reads_zero(oper):
    # the 5-section reaches past DSUM_2's two coordinates, but only a
    # nonzero entry there is refused
    code, out = run(["opnorm", "--space", DSUM_2, "--operator", oper,
                     "--trunc", "5", "--format", "json"])
    assert code == 0
    r = json.loads(out)
    assert (r["value"], r["method"]) == (0.0, "closed_form")


def test_opnorm_qsum_large_outer_exponent_iterates():
    # qsum(800, 2) on two coordinates is l_800: between 2^(-1/800) times the
    # l_inf norm 7 and the Riesz-Thorin bound of M = [[1, 2], [3, 4]]
    code, out = run(["opnorm", "--space", '{"space":"qsum","q":800,"p":2}',
                     "--operator",
                     '{"op":"matrix","rows":[[[1,0],[2,0]],[[3,0],[4,0]]]}',
                     "--trunc", "2"])
    assert code == 0
    value = float(out.split()[0])
    assert (7.0 * 2.0 ** (-1 / 800) <= value
            <= 6.0 ** (1 / 800) * 7.0 ** (799 / 800))


def test_opnorm_sum_holding_a_transpose():
    # the sum's section is the sum of its terms' sections; the transpose
    # of the c_0 nilpotent's section has column 0 = (0, 1/2, 1/4)
    code, out = run(["opnorm", "--space", LP2, "--operator",
                     '{"op":"sum","terms":[{"op":"transpose","inner":%s}]}'
                     % TC0, "--trunc", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.sqrt(0.3125),
                                                     rel=1e-12)


def test_opnorm_compose_holding_a_transpose_is_usage_error(capsys):
    assert_usage_error(["opnorm", "--space", LP2, "--operator",
                        '{"op":"compose","factors":[{"op":"transpose",'
                        '"inner":%s},{"op":"identity"}]}' % TC0,
                        "--trunc", "3"], capsys)


@pytest.mark.filterwarnings("error")
def test_exponent_past_2_53_has_the_l1_dual():
    # its conjugate rounds to 1, so its dual is Lp(1.0): l_1 to rounding
    space = '{"space":"lp","p":1e308}'
    code, out = run(["opnorm", "--space", space, "--operator",
                     '{"op":"matrix","rows":[[[1,0],[2,0]],[[3,0],[4,0]]]}',
                     "--trunc", "2"])
    assert (code, out) == (
        0, "7.0000000000 method=iterate attainment=inconclusive\n")


@pytest.mark.filterwarnings("error")
def test_pspec_frobenius_screen_overflow_warns_nothing():
    # ||A||_F overflows and ||A^-1||_F underflows: their product inf * 0 is
    # NaN, which leaves the cell to the SVD, with no numpy warning
    code, out = run(["pspec", "--space", LP2, "--operator",
                     '{"op":"scalar","re":1e308,"im":800}', "--trunc", "1",
                     "--res", "2"])
    assert code == 0 and out.endswith("outside=4 radius=0.000000\n")


def test_opnorm_simple_r_out_of_domain_is_usage_error(capsys):
    assert_usage_error(["opnorm", "--space", '{"space":"lp","p":2}',
                        "--operator",
                        '{"op":"catalog","name":"simple_r","p":0.5,"q":-3}',
                        "--trunc", "4"], capsys)


def test_opnorm_renorm_is_usage_error(capsys):
    assert_usage_error(["opnorm", "--space", '{"space":"renorm"}',
                        "--operator", '{"op":"identity"}'], capsys)


# -- pspec ---------------------------------------------------------------------

@pytest.mark.parametrize("eps", ["0", "-1", "nan", "1e-320"])
def test_pspec_nonpositive_eps_rejected(eps, capsys):
    assert_usage_error(["pspec", "--space", '{"space":"c0"}',
                        "--operator", '{"op":"catalog","name":"tc0"}',
                        "--eps", eps, "--res", "3", "--trunc", "4"], capsys)


def test_pspec_writes_csv(tmp_path):
    out_file = tmp_path / "grid.csv"
    code, out = run(["pspec", "--space", '{"space":"c0"}',
                     "--operator", '{"op":"catalog","name":"tc0"}',
                     "--eps", "0.5", "--grid=-3,3,-3,3",
                     "--res", "21", "--trunc", "16",
                     "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "re,im,resnorm,class"
    assert len(lines) == 1 + 21 * 21
    assert "strict=" in out and "radius=" in out


def test_pspec_classifies_each_cell_once(monkeypatch):
    # the CSV, the summary counts and the strict radius each read the
    # classes, which one _classify call takes for the whole grid
    calls = []
    real = ps._classify

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ps, "_classify", counting)
    code, out = run(["pspec", "--space", '{"space":"c0"}',
                     "--operator", '{"op":"catalog","name":"tc0"}',
                     "--eps", "0.5", "--res", "7", "--trunc", "8"])
    assert code == 0 and "strict=" in out
    assert len(calls) == 1 and len(calls[0][0]) == 7 * 7


def test_pspec_res_one_rejected():
    code, _ = run(["pspec", "--space", '{"space":"c0"}',
                   "--operator", '{"op":"catalog","name":"tc0"}',
                   "--res", "1"])
    assert code == 1


@pytest.mark.parametrize("res", ["100000000000000", str(MAX_TRUNC + 1)])
def test_pspec_res_past_the_bound_is_refused(res, capsys):
    # refused before an axis is allocated: 10^14 ended in numpy's
    # MemoryError traceback from np.linspace
    capsys.readouterr()
    code, out = run(["pspec", "--space", LP2, "--operator", TC0,
                     "--trunc", "4", "--res", res])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: resolution = %s exceeds the largest truncation, %d\n"
        % (res, MAX_TRUNC))


def test_pspec_json_schema(tmp_path):
    out_file = tmp_path / "grid.json"
    code, _ = run(["pspec", "--space", '{"space":"lp","p":2}',
                   "--operator", '{"op":"scalar","re":0}',
                   "--eps", "1", "--grid=-1,1,-1,1", "--res", "5",
                   "--trunc", "4", "--format", "json",
                   "--out", str(out_file)])
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["schema_version"] == 1
    assert len(obj["cells"]) == 25


def test_pspec_json_stdout_parses():
    code, out = run(["pspec", "--space", LP2,
                     "--operator", '{"op":"scalar","re":0}',
                     "--eps", "1", "--grid=-1,1,-1,1", "--res", "3",
                     "--trunc", "4", "--format", "json"])
    assert code == 0
    grid, summary = out.splitlines()
    assert len(json.loads(grid)["cells"]) == 9
    assert summary.startswith("strict=")


def test_pspec_deterministic(tmp_path):
    args = ["pspec", "--space", '{"space":"lp","p":3}',
            "--operator", '{"op":"matrix","rows":[[[1,0],[0.5,0]],[[0,0],[2,0]]]}',
            "--eps", "0.5", "--grid=-2,2,-2,2", "--res", "9",
            "--trunc", "4", "--seed", "7"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(f1)])[0] == 0
    assert run(args + ["--out", str(f2)])[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_bad_out_path_is_io_error(tmp_path):
    code, _ = run(["pspec", "--space", '{"space":"lp","p":2}',
                   "--operator", '{"op":"identity"}', "--res", "3",
                   "--grid=-1,1,-1,1", "--trunc", "2",
                   "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 3


# -- verify --------------------------------------------------------------------

def test_verify_only_subset():
    code, out = run(["verify", "--only", "qseq,AC2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == ["qseq: PASS", "AC2: PASS"]


def test_verify_json_report(capsys):
    # stdout is one JSON document; the PASS lines go to stderr
    code, out = run(["verify", "--only", "qseq,AC2", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().err == "qseq: PASS\nAC2: PASS\n"
    report = json.loads(out)
    assert report["all_ok"] is True
    assert [r["id"] for r in report["results"]] == ["qseq", "AC2"]
    rows = report["results"][1]["details"]["rows"]
    assert all(row["ok"] is True for row in rows)
    for r in report["results"]:
        assert isinstance(r["seconds"], float) and r["seconds"] >= 0


def test_verify_unknown_check(capsys):
    code, _ = run(["verify", "--only", "AC99"])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown check 'AC99'\n"


def test_verify_failure_exit_code(monkeypatch, tmp_path):
    # a deliberately broken q-sequence rule
    monkeypatch.setattr(sp.QSeqParams, "q", lambda self, n: 0.8)
    out_file = tmp_path / "report.json"
    code, out = run(["verify", "--only", "qseq", "--out", str(out_file)])
    assert code == 4
    assert "qseq: FAIL" in out
    report = json.loads(out_file.read_text())
    assert report["all_ok"] is False


def test_one_failing_row_fails_its_check(monkeypatch):
    # AC2 with one input pair's maximum nudged off C: that row alone fails,
    # and so do the check and the verify run
    real = verify.opnorm.maximize_swapped_f

    def nudged(p, q, t=1.0):
        val, arg = real(p, q, t)
        return (val + 1e-3 if (p, q) == (1.5, 3.0) else val), arg

    monkeypatch.setattr(verify.opnorm, "maximize_swapped_f", nudged)
    result = verify.check_ac2()
    assert [r["ok"] for r in result.details["rows"]] == [
        True, True, False, True, True]
    assert result.ok is False
    code, out = run(["verify", "--only", "AC2"])
    assert (code, out) == (4, "AC2: FAIL\n")


def test_broken_qseq_rule_fails_check(monkeypatch):
    assert verify.check_qseq().ok
    monkeypatch.setattr(sp.QSeqParams, "q", lambda self, n: 0.8)
    assert not verify.check_qseq().ok


# -- misc ----------------------------------------------------------------------

def test_usage_no_command():
    assert cli.main([]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: normlab")


@pytest.mark.parametrize("space, oper, message", [
    ('{"space":"xx"}', TC0, "unknown space tag 'xx'"),
    (LP2, '{"op":"xx"}', "unknown operator tag 'xx'"),
])
def test_unknown_tag_is_usage_error(space, oper, message, capsys):
    capsys.readouterr()
    code, out = run(["opnorm", "--space", space, "--operator", oper])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: %s\n" % message


def test_bad_grid_flag():
    code, _ = run(["pspec", "--space", '{"space":"lp","p":2}',
                   "--operator", '{"op":"identity"}',
                   "--grid", "1,2,3", "--res", "3"])
    assert code == 1


def test_repeated_runs_in_one_process_agree(capsys):
    # the parser is built once per process; each run, after any other and
    # after a usage error, prints what its first run printed
    opnorm_argv = ["opnorm", "--space", '{"space":"lp","p":3}', "--operator",
                   '{"op":"matrix","rows":[[[1,0],[2,0]],[[3,0],[4,0]]]}',
                   "--trunc", "2", "--format", "json"]
    sequence = [
        opnorm_argv,
        ["norm", "--space", LP2, "--vector", "[[1.5,1,0]]"],
        ["pspec", "--space", LP2, "--operator", TC0, "--res", "3",
         "--trunc", "4", "--grid=-1,1,-1,1"],
        ["verify", "--only", "qseq"],
        ["norm", "--space", LP2, "--vector", "[[0,3,0],[1,0,4]]"],
        opnorm_argv,
    ]
    first = [run(argv) for argv in sequence]
    assert [run(argv) for argv in sequence] == first
    assert first[0] == first[-1]
    assert [code for code, _ in first] == [0, 1, 0, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()


# -- fuzz ----------------------------------------------------------------------

# boundary numbers for every numeric JSON field: zero, a negative, the
# largest and a subnormal double, the string the loaders read as inf, and
# an exponent large enough to overflow a plain power
EDGE = st.sampled_from([0, -1, 1e308, 1e-320, "inf", 800])
PAIRS = st.lists(st.tuples(EDGE, EDGE).map(list), max_size=3)
SPACES = st.one_of(
    st.builds(lambda p: {"space": "lp", "p": p}, EDGE),
    st.sampled_from([{"space": "c0"}, {"space": "l1"}, {"space": "renorm"}]),
    st.builds(lambda q, p: {"space": "qsum", "q": q, "p": p}, EDGE, EDGE),
    st.builds(lambda p, b: {"space": "dsum", "p": p, "blocks": b},
              EDGE, PAIRS),
    st.builds(lambda t: {"space": "renorm", "trunc": t}, EDGE))
VECTORS = st.lists(st.tuples(EDGE, EDGE, EDGE).map(list), max_size=3)
LEAVES = st.one_of(
    st.just({"op": "identity"}),
    st.builds(lambda re, im: {"op": "scalar", "re": re, "im": im},
              EDGE, EDGE),
    st.builds(lambda rule: {"op": "diagonal", "rule": rule},
              st.sampled_from(["one_minus_2pow", "one_plus_inv"])),
    st.builds(lambda v: {"op": "diagonal", "rule": "explicit",
                         "values": v}, PAIRS),
    st.builds(lambda f, v: {"op": "rank_one", "functional": f,
                            "vector": v}, VECTORS, VECTORS),
    st.builds(lambda rows: {"op": "matrix", "rows": rows},
              st.lists(PAIRS, min_size=1, max_size=3)),
    st.builds(lambda name, p, q: {"op": "catalog", "name": name, "p": p,
                                  "q": q},
              st.sampled_from(["simple_s", "simple_r", "tc0", "tl1", "sex",
                               "diag_d"]), EDGE, EDGE))


def _nest(inner):
    return st.one_of(
        LEAVES,
        st.builds(lambda t: {"op": "sum", "terms": t},
                  st.lists(inner, min_size=1, max_size=2)),
        st.builds(lambda f: {"op": "compose", "factors": f},
                  st.lists(inner, min_size=1, max_size=2)),
        st.builds(lambda t: {"op": "transpose", "inner": t}, inner))


OPERATORS = _nest(_nest(LEAVES))


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from(["opnorm", "pspec", "norm"]), space=SPACES,
       operator=OPERATORS, vector=VECTORS,
       trunc=st.integers(min_value=1, max_value=5))
def test_cli_fuzz_exits_with_a_code_and_one_line(command, space, operator,
                                                 vector, trunc):
    argv = [command, "--space", json.dumps(space)]
    if command == "norm":
        argv += ["--vector", json.dumps(vector)]
        if space["space"] == "renorm":
            argv += ["--trunc", str(trunc)]
    else:
        argv += ["--operator", json.dumps(operator), "--trunc", str(trunc)]
        if command == "pspec":
            argv += ["--res", "2"]
    _assert_code_and_one_line(argv)


# option values as typed on the command line: zero, a negative, a
# subnormal, the largest double and the three non-finite spellings, each
# given either as "--opt=value" or as two tokens (argparse reads a lone
# "-inf" as an option name)
NUMBER = st.sampled_from(["0", "-1", "5e-324", "1e308", "nan", "inf",
                          "-inf"])
GRIDS = st.one_of(
    st.lists(st.one_of(NUMBER, st.just("1")), min_size=3,
             max_size=5).map(",".join),
    st.sampled_from(["", "a,b,c,d", "1,,2,3"]))


def _option(name, value, joined):
    return ["%s=%s" % (name, value)] if joined else [name, value]


# inputs every command accepts, so that the options alone decide the run;
# the renorm solve of VECTOR meets a zero gap within 50 steps at every
# truncation drawn, so even the subnormal --tol ends at once
SPACE = json.dumps({"space": "c0"})
OPERATOR = json.dumps({"op": "catalog", "name": "tc0"})
VECTOR = json.dumps([[0, 1, 0], [1, 0.5, 0], [3, -1, 1]])


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["opnorm", "pspec", "norm"]),
       trunc=st.integers(min_value=-1, max_value=5),
       tol=st.one_of(st.none(), NUMBER), eps=st.one_of(st.none(), NUMBER),
       res=st.integers(min_value=-1, max_value=3),
       grid=st.one_of(st.none(), GRIDS), joined=st.booleans())
def test_cli_option_fuzz_exits_with_a_code_and_one_line(command, trunc, tol,
                                                        eps, res, grid,
                                                        joined):
    trunc = _option("--trunc", str(trunc), joined)
    if command == "norm":
        argv = ["norm", "--space", '{"space":"renorm"}', "--vector", VECTOR,
                *trunc]
        if tol is not None:
            argv += _option("--tol", tol, joined)
    else:
        argv = [command, "--space", SPACE, "--operator", OPERATOR, *trunc]
        if command == "pspec":
            argv += _option("--res", str(res), joined)
            if eps is not None:
                argv += _option("--eps", eps, joined)
            if grid is not None:
                argv += _option("--grid", grid, joined)
    _assert_code_and_one_line(argv)


def _assert_code_and_one_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(argv)
    assert 0 <= code <= 4, argv
    lines = err.getvalue().count("\n") + len(caught)
    assert lines <= 1, (argv, err.getvalue(), [str(w.message) for w in caught])


@pytest.mark.parametrize("factors", [
    [{"op": "matrix", "rows": [[[0, 0], [0, 1e308]]]},
     {"op": "scalar", "re": 1e308, "im": 0}],
    [{"op": "diagonal", "rule": "one_plus_inv"},
     {"op": "diagonal", "rule": "explicit",
      "values": [[0, 0], [1e308, 1e308]]}],
], ids=["matmul_invalid", "modulus_overflow"])
def test_overflowing_product_section_is_one_line(factors):
    # found by the fuzz above: a product's image that overflows printed
    # numpy's matmul warning, and one whose modulus overflows a double
    # ended in Python's OverflowError traceback
    _assert_code_and_one_line(
        ["opnorm", "--space", '{"space":"lp","p":1e308}', "--operator",
         json.dumps({"op": "sum", "terms": [{"op": "compose",
                                             "factors": factors}]}),
         "--trunc", "2"])
