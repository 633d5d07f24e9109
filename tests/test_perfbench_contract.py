"""The names and shapes perfbench reads from normlab.

perfbench (at the root of the repository) imports normlab functions by
name, wraps them by name and reads their return values; a renamed function
or a reshaped return value would otherwise show up only when the benchmark
runs.  Nothing here changes a file under perfbench/.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from normlab import operators as op
from normlab import opnorm
from normlab import pseudospectrum as ps
from normlab import spaces as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_warmup_requests_pass_their_checks(workload):
    assert workloads.build(workload, 1)
    for req in workloads.warmup(workload):
        req.check(req.run())


def test_tracer_wraps_and_restores_every_traced_name():
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attr, _, _ in tracing.SPANS + tracing.COUNTS}
    M = np.random.default_rng(0).standard_normal((4, 4)).astype(complex)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        opnorm.matrix_norm(M, sp.Lp(3.0))
        tracer.active = False
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, attr
    tags = [s[5] for s in tracer.spans if s[0] == "opnorm.matrix_norm"]
    assert tags == ["iterate"]
    values = tracing.layer_metrics(tracer, 1.0, 0.0)
    assert values["opnorm.matrix_norm.iterate.calls"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(values)


def test_traced_l3_grid_records_its_cells_matrix_norms():
    # the cells' norms are taken inside the evaluator, by matrix_norm of
    # each regular cell's assembled inverse; the per-layer matrix_norm
    # counts must still see them
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        ps.grid_scan(op.SimpleS(3.0, 3.0), sp.Lp(3.0), (-2, 2, -2, 2), 3,
                     0.5, 6)
        tracer.active = False
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "pseudospectrum.grid_scan"
    # 9 regular cells, each normed once right under the grid's span (a
    # split cell's blocks are normed under its own)
    cells = [s for s in tracer.spans
             if s[0] == "opnorm.matrix_norm" and s[3] == 0]
    assert len(cells) == 9
    values = tracing.layer_metrics(tracer, 1.0, 0.0)
    assert values["opnorm.matrix_norm.iterate.calls"] >= 1


def normlab_reads(path):
    """(module, attribute) for each `name.attr` that a perfbench file reads
    from a name it imports from normlab (a module, or a name in one)."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "normlab"):
            for a in node.names:
                bound[a.asname or a.name] = (node.module, a.name)
    return {(bound[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in bound}


def test_every_normlab_attribute_perfbench_reads_resolves():
    # a deletion that breaks a request outside the warm-ups fails here, not
    # only when the benchmark runs
    reads = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reads |= normlab_reads(path)
    assert (("normlab", "verify"), "swap_section_norm") in reads
    assert (("normlab", "convex"), "Decomposition") in reads
    for (module, name), attr in sorted(reads):
        owner = getattr(importlib.import_module(module), name)
        assert hasattr(owner, attr), "%s.%s.%s" % (module, name, attr)
