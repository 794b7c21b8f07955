import json
import re

import numpy as np
import pytest

from graphboundary import (
    DomainSpec,
    format_edge_list,
    lattice_discretize,
    parse_edge_list,
    read_edge_list,
)
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


def test_main_reuses_one_parser(tmp_path, capsys):
    # the parser is built once per process; calls that exit 2 in between, one from the
    # parser and one from the command, leave the next call's bytes as they were
    from graphboundary.cli import build_parser

    assert build_parser() is build_parser()
    el = tmp_path / "g.el"
    run("gen", "--family", "grid", "--params", "4,4", "--out", el)
    capsys.readouterr()
    assert run("verify", "--in", el, "--checks", "thm1,dichotomy") == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("verify", "--in", el, "--no-such-flag")
    assert exc.value.code == 2
    assert run("verify", "--in", el, "--checks", "nope") == 2
    capsys.readouterr()
    assert run("verify", "--in", el, "--checks", "thm1,dichotomy") == 0
    assert capsys.readouterr() == first and first.out


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



@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--family", "path", "--sizes", "0"),
        ("sweep", "--family", "grid", "--sizes", "0"),
        ("sweep", "--family", "er", "--sizes", "5", "--p", "2"),
        ("sweep", "--family", "disk", "--sizes", "3"),
        ("prop4", "--family", "cycle", "--params", "2"),
        ("prop4", "--family", "cycle", "--params", "4,5"),
        ("sector", "--r", "1", "--alpha", "nan"),
        ("sector", "--r", "nan", "--alpha", "0.01"),
        ("sector", "--r", "inf", "--alpha", "0.01"),
        ("sector", "--r", "1e-200", "--alpha", "1e-200"),
        ("sector", "--r", "1", "--alpha", "0.01", "--radial-step", "0"),
        ("sector", "--r", "1", "--alpha", "0.01", "--radial-step", "nan"),
        ("sector", "--r", "1", "--alpha", "0.01", "--radial-step", "5"),
        # --in with --family is an error, so the input path is never opened
        ("verify", "--family", "path", "--params", "3", "--in", "missing.el"),
        ("prop4", "--family", "grid", "--params", "3,3", "--in", "missing.el"),
        ("verify", "--family", "enum", "--nmax", "3", "--in", "missing.el"),
        # a sector's opening fraction must be below one full turn
        ("verify", "--family", "sector", "--params", "1.0,1.5", "--lam", "0.2", "--checks", "thm1"),
        # non-finite family numbers; the error comes before any file is written
        ("gen", "--family", "path", "--params", "1e400", "--out", "x.el"),
        ("sweep", "--family", "path", "--sizes", "nan"),
        ("sweep", "--family", "path", "--sizes", "1e400"),
        ("verify", "--family", "path", "--params", "1e400"),
        ("gen", "--family", "grid", "--params", "3,inf", "--out", "x.el"),
        ("gen", "--family", "er", "--params", "1e400,0.5", "--out", "x.el"),
        ("gen", "--family", "disk", "--params", "inf", "--lam", "0.1", "--out", "x.el"),
        ("gen", "--family", "disk", "--params", "1", "--lam", "0.1", "--offset", "inf,0",
         "--out", "x.el"),
        # a run must check something: no empty check list, no named prop4 without coordinates
        ("verify", "--family", "path", "--params", "3", "--checks", ","),
        ("verify", "--family", "enum", "--nmax", "3", "--checks", "prop4"),
        ("verify", "--family", "enum", "--nmax", "3", "--checks", "thm1,prop4"),
        # and a sweep must sweep something: no empty size list
        ("sweep", "--family", "path", "--sizes", ""),
        ("sweep", "--family", "path", "--sizes", ","),
        # each check runs once: a check named twice would print twice and count twice
        ("verify", "--family", "path", "--params", "3", "--checks", "thm1,thm1"),
    ],
)
def test_bad_parameters_exit2_with_one_line(argv, capsys):
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_lam_names_the_lattice_scale(lam, tmp_path, capsys):
    out = tmp_path / "x.el"
    assert run("gen", "--family", "disk", "--params", "1", "--lam", lam, "--out", out) == 2
    err = capsys.readouterr().err
    assert "lattice scale must be positive" in err and f"lam={lam}" in err
    assert not out.exists()


def _replace_coords(meta, changes):
    coords = [changes.get(i, c) for i, c in enumerate(meta["coordinates"])]
    return json.dumps({**meta, "coordinates": coords})


# (grid params, corruption of its sidecar); vertex 4 of the 3x3 grid is the
# center (1, 1). Some corruptions keep the unit-step edges intact, so only
# their own check sees them: a stated dimension of 3, the float point
# [1.0, 1], and, in the 1x3 grid, vertex 2 given the point of vertex 0.
SIDECAR_CORRUPTIONS = {
    "bad_json": ("3,3", lambda meta: "{bad"),
    "missing_key": ("3,3", lambda meta: json.dumps({k: v for k, v in meta.items() if k != "dimension"})),
    "not_an_object": ("3,3", lambda meta: "[]"),
    "wrong_count": ("3,3", lambda meta: json.dumps({**meta, "coordinates": meta["coordinates"][:-1]})),
    "wrong_dimension": ("3,3", lambda meta: json.dumps({**meta, "dimension": 3})),
    "non_integer": ("3,3", lambda meta: _replace_coords(meta, {4: [1.0, 1]})),
    "duplicate": ("1,3", lambda meta: _replace_coords(meta, {2: [0, 0]})),
    "moved": ("3,3", lambda meta: _replace_coords(meta, {4: [9, 9]})),
    "swapped": ("3,3", lambda meta: _replace_coords(meta, {0: [1, 1], 4: [0, 0]})),
    "scale_string": ("3,3", lambda meta: json.dumps({**meta, "scale": "abc"})),
    "scale_bool": ("3,3", lambda meta: json.dumps({**meta, "scale": True})),
    "scale_zero": ("3,3", lambda meta: json.dumps({**meta, "scale": 0})),
    "scale_inf": ("3,3", lambda meta: json.dumps({**meta, "scale": float("inf")})),
    "offset_string": ("3,3", lambda meta: json.dumps({**meta, "offset": [1, "x"]})),
    "offset_bool": ("3,3", lambda meta: json.dumps({**meta, "offset": [0.5, False]})),
    "offset_nan": ("3,3", lambda meta: json.dumps({**meta, "offset": [0.5, float("nan")]})),
    "offset_short": ("3,3", lambda meta: json.dumps({**meta, "offset": [0.5]})),
    "offset_empty": ("3,3", lambda meta: json.dumps({**meta, "offset": []})),
    "offset_number": ("3,3", lambda meta: json.dumps({**meta, "offset": 0})),
    "dimension_inf": ("3,3", lambda meta: json.dumps({**meta, "dimension": float("inf")})),
    "dimension_str": ("3,3", lambda meta: json.dumps({**meta, "dimension": "2"})),
    # the 1x3 grid written as a line: with dimension 1 the sidecar is valid
    "dimension_bool": ("1,3", lambda meta: json.dumps(
        {**meta, "dimension": True, "coordinates": [[0], [1], [2]]})),
    "dimension_float": ("3,3", lambda meta: json.dumps({**meta, "dimension": 2.0})),
    # nested past the interpreter's recursion limit: json.loads raises RecursionError
    "deeply_nested": ("3,3", lambda meta: "[" * 200_000 + "]" * 200_000),
}


@pytest.mark.parametrize("corruption", sorted(SIDECAR_CORRUPTIONS))
@pytest.mark.parametrize("command", [("prop4",), ("verify", "--checks", "prop4")])
def test_bad_sidecar_exit2_with_one_line(tmp_path, capsys, corruption, command):
    params, corrupt = SIDECAR_CORRUPTIONS[corruption]
    el = tmp_path / "g.el"
    assert run("gen", "--family", "grid", "--params", params, "--out", el) == 0
    sidecar = tmp_path / "g.el.coords.json"
    sidecar.write_text(corrupt(json.loads(sidecar.read_text())))
    assert run(*command, "--in", el) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# a dimension of -1 used to read as "coordinates must be -1 integers each", and a
# dimension of 0 with empty points as "duplicate coordinates"; one point of no
# coordinates was even accepted
@pytest.mark.parametrize("params, dimension, points", [
    ("3,3", -1, None), ("1,3", 0, [[], [], []]), ("1,1", 0, [[]]), ("1,3", -2, [[], [], []]),
])
@pytest.mark.parametrize("command", [("prop4",), ("verify", "--checks", "prop4")])
def test_sidecar_dimension_below_one_exit2(tmp_path, capsys, params, dimension, points, command):
    el = tmp_path / "g.el"
    assert run("gen", "--family", "grid", "--params", params, "--out", el) == 0
    sidecar = tmp_path / "g.el.coords.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "dimension": dimension,
                                   "coordinates": points or meta["coordinates"]}))
    assert run(*command, "--in", el) == 2
    err = f"error: sidecar {sidecar}: dimension must be a positive integer\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command", ["boundary", "verify", "prop4"])
def test_edge_list_not_utf8_exit2_with_one_line(command, tmp_path, capsys):
    el = tmp_path / "g.el"
    el.write_bytes(bytes.fromhex("fffe00626164"))
    assert run(command, "--in", el) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {el}: ")
    assert captured.err.count("\n") == 1


# vertex ids are ASCII integers: int() alone would read U+0661 (ARABIC-INDIC DIGIT ONE)
# as 1 and "1_0" as 10, and so a different graph
@pytest.mark.parametrize("text, line", [("2 1\n0 \u0661\n", "0 \u0661"),
                                        ("3 2\n0 1_0\n1 2\n", "0 1_0")])
@pytest.mark.parametrize("command", ["boundary", "verify"])
def test_non_ascii_integer_edge_line_exit2(text, line, command, tmp_path, capsys):
    el = tmp_path / "g.el"
    el.write_text(text, encoding="utf-8")
    assert run(command, "--in", el) == 2
    err = f"error: bad edge list {el}: non-integer edge line {line!r}\n"
    assert capsys.readouterr() == ("", err)


def test_negative_vertex_id_reaches_the_range_check(tmp_path, capsys):
    el = tmp_path / "g.el"
    el.write_text("2 1\n0 -1\n")
    assert run("verify", "--in", el) == 2
    assert capsys.readouterr() == ("", f"error: bad edge list {el}: edge (0, -1) outside 0..1\n")


def test_sidecar_integer_scale_and_offset_accepted(tmp_path, capsys):
    el = tmp_path / "g.el"
    assert run("gen", "--family", "grid", "--params", "3,3", "--out", el) == 0
    sidecar = tmp_path / "g.el.coords.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "scale": 2, "offset": [0, -1]}))
    assert run("prop4", "--in", el) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2


@pytest.mark.parametrize("family, params", [("path", "6"), ("grid", "4,4")])
def test_verify_in_parses_the_edge_list_once(tmp_path, monkeypatch, family, params):
    from graphboundary import cli

    el = tmp_path / "g.el"
    run("gen", "--family", family, "--params", params, "--out", el)
    calls = []

    def counting_read(path_str):
        calls.append(path_str)
        return read_edge_list(path_str)

    monkeypatch.setattr(cli, "read_edge_list", counting_read)
    assert run("verify", "--in", el, "--checks", "thm1") == 0
    assert calls == [str(el)]


@pytest.mark.parametrize(
    "target, argv",
    [
        ("boundary", ("boundary", "--in", "{el}")),
        ("run_battery", ("verify", "--in", "{el}")),
        ("sweep_rows", ("sweep", "--family", "path", "--sizes", "4")),
        ("classify_prop4", ("prop4", "--family", "grid", "--params", "4,4")),
        ("classify_cycle", ("prop4", "--family", "cycle", "--params", "5")),
        ("sector_check", ("sector", "--r", "1", "--alpha", "0.01")),
    ],
)
def test_invariant_violation_is_not_an_input_error(tmp_path, monkeypatch, target, argv):
    # a failed invariant is a bug: it must surface as a traceback (exit 1),
    # never be reported as bad input (exit 2)
    from graphboundary import cli
    from graphboundary.euclid import WitnessNotFoundError

    el = tmp_path / "p.el"
    run("gen", "--family", "path", "--params", "4", "--out", el)

    def broken(*args, **kwargs):
        raise WitnessNotFoundError("forced")

    monkeypatch.setattr(cli, target, broken)
    with pytest.raises(WitnessNotFoundError, match="forced"):
        run(*(a.format(el=el) for a in argv))


# --- input caps: tested with core.MAX_VERTICES and core.MAX_EDGES patched
# down, so that a missing check could only ever build a small graph ---

SMALL_CAP = 50
SMALL_EDGE_CAP = 45  # the edges of K_10


@pytest.fixture
def small_cap(monkeypatch):
    """Cap inputs at SMALL_CAP vertices and SMALL_EDGE_CAP edges, and make any
    graph construction fail loudly."""
    from graphboundary import core, generators

    def built(*_):
        raise AssertionError("a graph was built past the size check")

    monkeypatch.setattr(core, "MAX_VERTICES", SMALL_CAP)
    monkeypatch.setattr(core, "MAX_EDGES", SMALL_EDGE_CAP)
    monkeypatch.setattr(generators, "validate", built)
    monkeypatch.setattr(core, "validate", built)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "path", "--params", "51"),
        ("verify", "--family", "cycle", "--params", "51"),
        ("verify", "--family", "complete", "--params", "51"),
        ("verify", "--family", "star", "--params", "50"),  # 51 vertices with the center
        ("verify", "--family", "hypercube", "--params", "6"),  # 2^6 = 64
        ("verify", "--family", "grid", "--params", "8,7"),
        ("gen", "--family", "grid_d", "--params", "2,2,13", "--out", "x.el"),
        ("verify", "--family", "tree", "--params", "51"),
        ("verify", "--family", "er", "--params", "51,0.2"),
        ("sweep", "--family", "path", "--sizes", "10,51"),
        ("sweep", "--family", "grid", "--sizes", "3,8"),
        ("sweep", "--family", "hypercube", "--sizes", "2,6"),
        ("sweep", "--family", "er", "--sizes", "5,60", "--p", "0.5"),
        ("verify", "--family", "disk", "--params", "1", "--lam", "0.3"),  # 10 x 10 mesh box
        ("prop4", "--family", "annulus", "--params", "0.4,1", "--lam", "0.2"),
    ],
)
def test_oversized_requests_exit2_before_building(argv, small_cap, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"more than {SMALL_CAP} " in captured.err
    assert list(tmp_path.iterdir()) == []


def test_edge_list_header_over_the_cap_exit2(small_cap, tmp_path, capsys):
    el = tmp_path / "big.el"
    el.write_text(f"{SMALL_CAP + 1} 1\n0 1\n")
    assert run("boundary", "--in", el) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad edge list {el}: header declares {SMALL_CAP + 1} vertices, " \
                  f"more than {SMALL_CAP}\n"


def test_sizes_at_the_cap_still_run(monkeypatch, tmp_path):
    from graphboundary import core

    monkeypatch.setattr(core, "MAX_VERTICES", SMALL_CAP)
    for argv in (("--family", "path", "--params", SMALL_CAP),
                 ("--family", "star", "--params", SMALL_CAP - 1),
                 ("--family", "hypercube", "--params", 5),
                 ("--family", "grid", "--params", "5,10"),
                 ("--family", "disk", "--params", "1", "--lam", "1")):  # 6 x 6 mesh box
        assert run("gen", *argv, "--out", tmp_path / "g.el") == 0
        assert run("boundary", "--in", tmp_path / "g.el", "--out", tmp_path / "r.txt") == 0


def test_mesh_finer_than_a_float_exit2(capsys):
    # (x - offset) / lam overflows to inf: rejected before any mesh point is tested
    assert run("verify", "--family", "disk", "--params", "1", "--lam", "1e-320") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too fine" in err and err.count("\n") == 1


def test_vertex_cap_is_the_int16_distance_limit():
    from unittest import mock

    import numpy as np

    from graphboundary import core, distance_matrix, grid, path

    assert core.MAX_VERTICES == np.iinfo(np.int16).max  # so n - 1 fits int16
    for g, kernel in ((path(63), "bfs_distances"), (grid(8, 8).graph, "_bit_distances"),
                      (path(600), "_tree_distances")):
        real = getattr(core, kernel)
        with mock.patch.object(core, kernel, wraps=real) as route:
            assert distance_matrix(g).dtype == np.int16
        # the Python route runs one BFS per source, the probe included
        assert route.call_count == (g.n if kernel == "bfs_distances" else 1)


@pytest.mark.filterwarnings("default")  # Python's own policy, as a command line run has it
@pytest.mark.parametrize("command", ["gen", "verify", "prop4"])
def test_disconnected_lattice_exit2_with_one_line(command, tmp_path, monkeypatch, capsys):
    # the library warns and returns the graph; every command that builds it refuses it
    monkeypatch.chdir(tmp_path)
    assert run(command, "--family", "annulus", "--params", "0.9,1.0", "--lam", "0.1",
               "--out", "x.out") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family annulus params=0.9,1.0 at --lam 0.1 is disconnected\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "complete", "--params", "11"),  # 55 edges
        ("verify", "--family", "hypercube", "--params", "5"),  # 32 vertices, 80 edges
        ("gen", "--family", "er", "--params", "20,0.3", "--out", "x.el"),  # 57 expected
        ("sweep", "--family", "complete", "--sizes", "3,11"),
        ("sweep", "--family", "er", "--sizes", "5,20", "--p", "0.3"),
    ],
)
def test_over_the_edge_budget_exit2_before_building(argv, small_cap, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"more than {SMALL_EDGE_CAP} edges" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_edge_list_header_over_the_edge_budget_exit2(small_cap, tmp_path, capsys):
    el = tmp_path / "dense.el"
    el.write_text(f"20 {SMALL_EDGE_CAP + 1}\n0 1\n")
    assert run("boundary", "--in", el) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad edge list {el}: header declares {SMALL_EDGE_CAP + 1} edges, " \
                  f"more than {SMALL_EDGE_CAP}\n"


def test_edge_counts_at_the_budget_still_run(monkeypatch, tmp_path):
    from graphboundary import core

    monkeypatch.setattr(core, "MAX_EDGES", SMALL_EDGE_CAP)
    for params in (("complete", 10), ("hypercube", 4), ("er", "10,1")):  # 45, 32 and 45 edges
        assert run("gen", "--family", params[0], "--params", params[1],
                   "--out", tmp_path / "g.el") == 0
        assert run("boundary", "--in", tmp_path / "g.el", "--out", tmp_path / "r.txt") == 0


# --- --out destinations that cannot be written exit 2, with nothing written ---

OUT_COMMANDS = [
    ("verify", "--family", "path", "--params", "5"),
    ("boundary", "--in", "p.el", "--format", "json", "--slices"),
    ("boundary", "--in", "p.el"),
    ("gen", "--family", "grid", "--params", "3,3"),
    ("sweep", "--family", "path", "--sizes", "3"),
    ("prop4", "--family", "cycle", "--params", "5"),
    ("sector", "--r", "1", "--alpha", "0.01"),
]


@pytest.mark.parametrize("argv", OUT_COMMANDS)
@pytest.mark.parametrize("dest", ["folder", "file/x.out", "file/sub/x.out"])
def test_unwritable_out_exit2_with_one_line(argv, dest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--family", "path", "--params", "5", "--out", "p.el") == 0
    (tmp_path / "folder").mkdir()
    (tmp_path / "file").write_text("a file, not a folder\n")
    before = sorted(tmp_path.rglob("*"))
    assert run(*argv, "--out", dest) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_bad_graph_leaves_no_out_file(tmp_path, capsys):
    el = tmp_path / "two.el"
    el.write_text("4 2\n0 1\n2 3\n")  # disconnected
    out = tmp_path / "reports" / "r.json"
    assert run("boundary", "--in", el, "--format", "json", "--slices", "--out", out) == 2
    assert not out.parent.exists()


def test_gen_offset_moves_the_lattice(tmp_path):
    out = tmp_path / "d.el"
    assert run("gen", "--family", "disk", "--params", 1, "--lam", 0.2, "--offset", "0.1,0",
               "--out", out) == 0
    gg = lattice_discretize(DomainSpec.disk(1.0, 0.2, offset=(0.1, 0.0)))
    assert out.read_text() == format_edge_list(gg.graph)
    assert json.loads((tmp_path / "d.el.coords.json").read_text()) == {
        "dimension": 2,
        "scale": 0.2,
        "offset": [0.1, 0.0],
        "coordinates": [list(c) for c in gg.coordinates],
    }


def _fail_prop3_batch_on_three(monkeypatch):
    # the sweep reads one pass vector per stack from _BATCH_RUNNERS, and a stack holds
    # graphs of several orders, so the failure is injected graph by graph
    from graphboundary import verify

    real = verify._BATCH_RUNNERS["prop3"]

    def failing_on_three(report):
        return real(report) & (report.order != 3)

    monkeypatch.setitem(verify._BATCH_RUNNERS, "prop3", failing_on_three)


def test_verify_enum_counts_failures_with_exit1(monkeypatch, capsys, tmp_path):
    # the failure is injected into both routes: the batch pass counts it, and the
    # per-graph battery gives the first failing graph its detail
    from graphboundary import verify
    from graphboundary.verify import CheckOutcome

    real = verify._RUNNERS["prop3"]

    def failing_on_three(g, report, gg):
        return CheckOutcome("prop3", False, "forced") if g.n == 3 else real(g, report, gg)

    monkeypatch.setitem(verify._RUNNERS, "prop3", failing_on_three)
    _fail_prop3_batch_on_three(monkeypatch)
    assert run("verify", "--family", "enum", "--nmax", 5) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "check=prop3 graphs=772 failures=4" in lines
    assert "check=thm1 graphs=772 failures=0" in lines
    assert lines[-1] == "summary failures=4"
    first = lines[lines.index("check=prop3 graphs=772 failures=4") + 1]
    assert first == "check=prop3 first_failure n=3 m=2 edges=0-1,0-2 detail=forced"
    assert sum("first_failure" in line for line in lines) == 1
    # the edge list replays through verify --in, which fails the same way
    n, m, edges = re.fullmatch(r"check=prop3 first_failure n=(\d+) m=(\d+) edges=(\S*) .*",
                               first).groups()
    replay = tmp_path / "first.el"
    replay.write_text(f"{n} {m}\n" + "".join(e.replace("-", " ") + "\n" for e in edges.split(",")))
    assert run("verify", "--in", replay, "--checks", "prop3") == 1
    assert capsys.readouterr().out.splitlines()[1] == "check=prop3 pass=false forced"


FORCED_STAR_AND_PATH_NMAX_6 = """\
enum nmax=6 graphs=27476
check=prop1 graphs=27476 failures=0
check=prop2 graphs=27476 failures=0
check=prop3 graphs=27476 failures=2
check=prop3 first_failure n=5 m=4 edges=0-1,1-2,2-3,3-4 detail=forced
check=thm1 graphs=27476 failures=0
check=thm2 graphs=27476 failures=0
check=mps graphs=27476 failures=0
check=laplacian graphs=27476 failures=0
check=dichotomy graphs=27476 failures=0
summary failures=2
"""


def test_verify_enum_first_failure_is_the_smallest_order_and_mask(monkeypatch, capsys):
    # prop3 fails, in both routes, on the star 0-1, ..., 0-5 (order 6, 6-vertex mask 31,
    # the first chunk) and on the path 0-1-2-3-4 (order 5, 6-vertex mask 4641, the fifth
    # chunk). The first failure is the path, the smaller (order, mask), not the graph of
    # the first chunk that fails
    from graphboundary import verify
    from graphboundary.verify import CheckOutcome

    forced = [[(0, k) for k in range(1, 6)], [(k, k + 1) for k in range(4)]]
    targets = np.zeros((2, 6, 6), bool)
    for t, edges in enumerate(forced):
        for u, w in edges:
            targets[t, u, w] = targets[t, w, u] = True
    real_batch, real_graph = verify._BATCH_RUNNERS["prop3"], verify._RUNNERS["prop3"]

    def batch_fails(report):
        return real_batch(report) & ~(report.adjacency[:, None] == targets).all(axis=(2, 3)).any(1)

    def graph_fails(g, report, gg):
        if sorted(g.edges()) in forced:
            return CheckOutcome("prop3", False, "forced")
        return real_graph(g, report, gg)

    monkeypatch.setitem(verify._BATCH_RUNNERS, "prop3", batch_fails)
    monkeypatch.setitem(verify._RUNNERS, "prop3", graph_fails)
    assert run("verify", "--family", "enum", "--nmax", 6) == 1
    assert capsys.readouterr() == (FORCED_STAR_AND_PATH_NMAX_6, "")


def test_verify_enum_batch_failure_the_graph_check_passes_raises(monkeypatch, capsys):
    from graphboundary import InvariantViolation

    _fail_prop3_batch_on_three(monkeypatch)
    with pytest.raises(InvariantViolation, match="prop3: the batch pass fails edge mask 3 on 3"):
        run("verify", "--family", "enum", "--nmax", 4)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (("--family", "path", "--sizes", "3,1"),
     "error: path 1: bound needs at least two vertices\n"),
    (("--family", "er", "--sizes", "20", "--p", "0.05"),
     "error: er 20,0.05: graph is disconnected: 19 of 20 vertices unreachable from 0\n"),
])
def test_sweep_graph_error_exit2_with_one_line(argv, message, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run("sweep", *argv, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not out.exists()


def _no_witness(gg, report):
    from graphboundary import WitnessNotFoundError

    raise WitnessNotFoundError("no witness for vertex 7")


@pytest.mark.parametrize("target, fake, detail", [
    ("classify_prop4", _no_witness, "no witness for vertex 7"),
    ("verify_witnesses", lambda ws, blocks: np.zeros(len(ws), dtype=bool),
     "unverifiable witnesses for ["),
])
def test_verify_prop4_failure_exit1(target, fake, detail, monkeypatch, capsys):
    from graphboundary import verify

    monkeypatch.setattr(verify, target, fake)
    assert run("verify", "--family", "annulus", "--params", "0.4,1.0", "--lam", 0.2,
               "--checks", "prop4") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(f"check=prop4 pass=false {detail}")
    assert lines[-1] == "summary failures=1"
