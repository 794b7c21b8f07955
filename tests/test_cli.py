import json
import re

import pytest

from graphboundary import parse_edge_list, read_edge_list
from graphboundary.cli import main
from graphboundary.generators import grid
from graphboundary.layers import SWEEP_COLUMNS


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_path2_exact_bytes(tmp_path):
    out = tmp_path / "p2.el"
    assert run("gen", "--family", "path", "--params", "2", "--out", out) == 0
    assert out.read_text() == "2 1\n0 1\n"


def test_gen_grid_roundtrip_and_sidecar(tmp_path):
    out = tmp_path / "g.el"
    assert run("gen", "--family", "grid", "--params", "5,5", "--out", out) == 0
    g = read_edge_list(out)
    assert g == grid(5, 5).graph
    meta = json.loads((tmp_path / "g.el.coords.json").read_text())
    assert meta["dimension"] == 2
    assert len(meta["coordinates"]) == 25


def test_gen_seeded_is_deterministic(tmp_path):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    for out in (a, b):
        assert run("gen", "--family", "er", "--params", "30,0.2", "--seed", 42,
                   "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()
    assert parse_edge_list(a.read_text()).m == 87


def test_gen_requires_out():
    assert run("gen", "--family", "path", "--params", "3") == 2


def test_gen_unknown_family():
    assert run("gen", "--family", "moebius", "--params", "3", "--out", "x.el") == 2


def test_boundary_text_path6(tmp_path, capsys):
    el = tmp_path / "p6.el"
    run("gen", "--family", "path", "--params", "6", "--out", el)
    assert run("boundary", "--in", el) == 0
    out = capsys.readouterr().out
    assert "boundary: 0 5" in out
    assert "cejz_boundary: 0 5" in out


def test_boundary_json_schema(tmp_path, capsys):
    el = tmp_path / "g.el"
    run("gen", "--family", "grid", "--params", "3,3", "--out", el)
    assert run("boundary", "--in", el, "--format", "json", "--slices") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cejz_boundary"] == [0, 2, 6, 8]
    # corner 0 is first certified by the center (adjacent sources tie exactly)
    assert doc["witness"]["0"] == 4
    assert set(doc["slices"]) == {str(v) for v in range(9)}


def test_boundary_dot_output(tmp_path, capsys):
    el = tmp_path / "g.el"
    run("gen", "--family", "grid", "--params", "5,5", "--out", el)
    assert run("boundary", "--in", el, "--format", "dot", "--overlay-cejz") == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph G {") and dot.rstrip().endswith("}")
    # every vertex exactly once in the node section
    nodes = re.findall(r"^  (\d+) \[fillcolor", dot, flags=re.M)
    assert sorted(map(int, nodes)) == list(range(25))
    assert dot.count('fillcolor="red" peripheries=2') == 4  # corners
    assert dot.count('fillcolor="red"') == 16  # rim, corners included
    assert dot.count('fillcolor="lightblue"') == 9
    assert dot.count(" -- ") == 40


def test_boundary_tree_json_equals_leaf_set(tmp_path, capsys):
    el = tmp_path / "t.el"
    run("gen", "--family", "tree", "--params", "25", "--seed", "5", "--out", el)
    assert run("boundary", "--in", el, "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    g = read_edge_list(el)
    assert doc["boundary"] == sorted(u for u in range(g.n) if g.degree(u) == 1)


def test_boundary_disconnected_exit2(tmp_path):
    el = tmp_path / "dis.el"
    el.write_text("4 2\n0 1\n2 3\n")
    assert run("boundary", "--in", el) == 2


def test_boundary_parse_error_exit2(tmp_path):
    el = tmp_path / "bad.el"
    el.write_text("not a graph\n")
    assert run("boundary", "--in", el) == 2


def test_verify_grid_all_checks(tmp_path, capsys):
    el = tmp_path / "g.el"
    run("gen", "--family", "grid", "--params", "5,5", "--out", el)
    assert run("verify", "--in", el, "--checks", "all") == 0
    out = capsys.readouterr().out
    # sidecar present, so prop4 joined the battery
    assert "check=prop4 pass=true" in out
    assert "summary failures=0" in out


def test_verify_all_checks_without_sidecar(tmp_path, capsys):
    el = tmp_path / "c.el"
    el.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")  # no coordinates: prop4 sits out
    assert run("verify", "--in", el, "--checks", "all") == 0
    out = capsys.readouterr().out
    assert "check=prop4" not in out
    assert "summary failures=0" in out


def test_verify_enum_sweep(capsys):
    assert run("verify", "--family", "enum", "--nmax", 5,
               "--checks", "thm1,prop1,prop3") == 0
    out = capsys.readouterr().out
    assert "enum nmax=5 graphs=772" in out
    assert "check=thm1 graphs=772 failures=0" in out
    assert "summary failures=0" in out


def test_verify_disconnected_exit2(tmp_path):
    el = tmp_path / "dis.el"
    el.write_text("4 2\n0 1\n2 3\n")
    assert run("verify", "--in", el) == 2


def test_verify_unknown_check(tmp_path):
    el = tmp_path / "p.el"
    run("gen", "--family", "path", "--params", "4", "--out", el)
    assert run("verify", "--in", el, "--checks", "thm3") == 2


def test_verify_prop4_needs_coordinates(tmp_path):
    el = tmp_path / "p.el"
    run("gen", "--family", "path", "--params", "4", "--out", el)
    assert run("verify", "--in", el, "--checks", "prop4") == 2


def test_verify_reports_failure_with_exit1(tmp_path, monkeypatch):
    # failing outcomes cannot arise from valid input (they are theorems),
    # so fake one to pin the exit-code contract
    from graphboundary import cli
    from graphboundary.verify import CheckOutcome

    monkeypatch.setattr(
        cli, "run_battery",
        lambda g, checks, gg=None: [CheckOutcome("thm1", False, "forced")],
    )
    el = tmp_path / "p.el"
    run("gen", "--family", "path", "--params", "4", "--out", el)
    assert run("verify", "--in", el, "--checks", "thm1") == 1


def test_verify_byte_identical_across_threads(tmp_path):
    el = tmp_path / "g.el"
    run("gen", "--family", "grid", "--params", "9,9", "--out", el)
    outs = []
    for i, thr in enumerate((1, 4)):
        rpt = tmp_path / f"r{i}.txt"
        assert run("verify", "--in", el, "--threads", thr, "--out", rpt) == 0
        outs.append(rpt.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_grid_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--family", "grid", "--sizes", "5,10,20", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    rows = [ln.split(",") for ln in lines[1:]]
    # csv quotes the params column ("5,5"), so parse via csv for the values
    import csv

    with open(out) as fh:
        recs = list(csv.DictReader(fh))
    assert [r["boundary_size"] for r in recs if r["check"] == "theorem1"] == ["16", "36", "76"]
    assert [r["cejz_size"] for r in recs if r["check"] == "theorem1"] == ["4", "4", "4"]
    assert all(r["pass"] == "true" for r in recs)
    assert len(rows) == 9


def test_sweep_paths(capsys):
    assert run("sweep", "--family", "path", "--sizes", "10,100") == 0
    import csv
    import io

    recs = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["boundary_size"] for r in recs if r["check"] == "theorem1"] == ["2", "2"]


def test_prop4_solid_grid_empty(capsys):
    assert run("prop4", "--family", "grid", "--params", "6,6") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witnesses"] == []
    assert doc["full_degree"] == 4


def test_prop4_annulus_from_file(tmp_path, capsys):
    el = tmp_path / "ann.el"
    run("gen", "--family", "annulus", "--params", "0.4,1.0", "--lam", "0.2",
        "--out", el)
    assert run("prop4", "--in", el) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["witnesses"]) == 24
    assert {w["case"] for w in doc["witnesses"]} == {"antipodal_descent"}


def test_prop4_cycle_family(capsys):
    assert run("prop4", "--family", "cycle", "--params", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1
    assert [w["vertex"] for w in doc["witnesses"]] == [0, 1, 2, 3, 4]


def test_prop4_without_coordinates_exit2(tmp_path):
    el = tmp_path / "p.el"
    run("gen", "--family", "path", "--params", "5", "--out", el)
    assert run("prop4", "--in", el) == 2


def test_sector_json(capsys):
    import math

    assert run("sector", "--r", "1", "--alpha", "0.01") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ratio"] == 2.0
    assert doc["bound"] == pytest.approx(math.pi * 0.01, rel=1e-12)


def test_sector_radial_block(capsys):
    assert run("sector", "--r", "1", "--alpha", "0.01", "--radial-step", "1e-3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["radial_identity"]["max_relative_deviation"] < 1e-5


def test_sector_alpha_too_large_exit2():
    assert run("sector", "--r", "1", "--alpha", "0.3") == 2


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHBOUNDARY_OUTDIR", str(tmp_path / "outs"))
    assert run("gen", "--family", "path", "--params", "3", "--out", "rel.el") == 0
    assert (tmp_path / "outs" / "rel.el").exists()


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "graphboundary", "sector", "--r", "1", "--alpha", "0.01"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ratio"] == 2.0


def test_verify_enum_nmax_out_of_range_exit2(capsys):
    for nmax in (7, 0):
        assert run("verify", "--family", "enum", "--nmax", nmax) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --nmax") and err.count("\n") == 1

