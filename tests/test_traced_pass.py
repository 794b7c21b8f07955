"""The benchmark's traced pass, run on three tiny operations.

``perfbench/child.py`` drives the package through its public functions, so
an API change that breaks it shows here as a failed operation, long before
a benchmark run. The benchmark's directory is put on ``sys.path`` and
nothing in it is changed.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from graphboundary.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    return child


def test_traced_pass_runs_every_op_ok(child, tmp_path):
    import workloads

    path_el, grid_el = str(tmp_path / "path.el"), str(tmp_path / "grid.el")
    assert main(["gen", "--family", "path", "--params", "20", "--out", path_el]) == 0
    assert main(["gen", "--family", "grid", "--params", "4,5", "--out", grid_el]) == 0
    assert Path(grid_el + ".coords.json").exists()  # the sidecar that brings in prop4
    out = str(tmp_path / "out")
    ops = [
        {"argv": ["boundary", "--in", path_el, "--format", "json", "--slices", "--out", out],
         "expect_sha": hashlib.sha256(workloads.tree_report_bytes(path_el)).hexdigest()},
        {"argv": ["verify", "--in", grid_el, "--checks", "all", "--out", out]},
        {"argv": ["verify", "--family", "enum", "--nmax", "3", "--out", out],
         "expect_graphs": 6},
    ]
    tr, oks = child.traced_pass(ops)
    assert oks == [True, True, True]
    assert tr.counters["generators.graphs"] == 6
    assert "euclid.prop4" in tr.names
