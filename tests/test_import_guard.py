"""The CLI's work imports no numpy module beyond those ``import graphboundary.cli`` loads.

A lazily imported numpy submodule costs set-up time and resident memory on
every run (``np.unique`` pulls in ``numpy.ma``, about 1.2 MiB), so a fresh
interpreter imports the CLI, records ``sys.modules``, runs ``verify --checks
all`` on a lattice with its coordinate sidecar and ``boundary --format json
--slices`` on a tree, and reports the modules that appeared.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from graphboundary.cli import main

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from graphboundary.cli import main
before = set(sys.modules)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "new": sorted(set(sys.modules) - before)}))
"""


def test_cli_runs_import_no_further_numpy_module(tmp_path):
    lattice, tree = tmp_path / "ann.el", tmp_path / "tree.el"
    assert main(["gen", "--family", "annulus", "--params", "0.4,1.0", "--lam", "0.2",
                 "--out", str(lattice)]) == 0
    assert Path(str(lattice) + ".coords.json").is_file()
    assert main(["gen", "--family", "tree", "--params", "120", "--seed", "3", "--out", str(tree)]) == 0
    runs = [
        ["verify", "--in", str(lattice), "--checks", "all", "--out", str(tmp_path / "v.txt")],
        ["boundary", "--in", str(tree), "--format", "json", "--slices",
         "--out", str(tmp_path / "b.json")],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GRAPHBOUNDARY_OUTDIR", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    assert "prop4" in (tmp_path / "v.txt").read_text()  # the sidecar was read
    numpy_modules = [m for m in result["new"] if m == "numpy" or m.startswith("numpy.")]
    assert numpy_modules == [], result["new"]
