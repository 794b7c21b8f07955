"""The streamed `boundary` reports: byte for byte the reference writers.

The JSON reference is ``json.dumps(report_to_dict(r, True), indent=2) +
"\\n"``, the public dict API; the text reference is the line-list writer
the CLI used before slices were streamed, kept here. Also: each distinct
slice row formatted once, the memory of the streamed reports, the CLI
under ``python -O``, and a reader that closes the pipe early.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from exhaustive import small_graphs
from routes import chosen
from test_distance_pass import graphs_and_long_paths
from traced import traced
from graphboundary import boundary, cli, read_edge_list
from graphboundary.boundary import report_to_dict
from graphboundary.cli import _emit, _json_report, _text_report, main
from graphboundary.generators import complete, cycle, grid, path, random_tree, star

ROOT = Path(__file__).resolve().parent.parent


def reference_text(report, include_slices):
    lines = [
        f"n: {report.n}",
        f"m: {report.m}",
        f"max_degree: {report.max_degree}",
        f"diameter: {report.diameter}",
        "boundary: " + " ".join(str(u) for u in report.boundary),
        "cejz_boundary: " + " ".join(str(u) for u in report.cejz_boundary),
    ]
    if include_slices:
        for sl in report.slices:
            lines.append(f"slice {sl.source}: " + " ".join(str(u) for u in sorted(sl.members)))
    return "\n".join(lines) + "\n"


def assert_streams_match(g):
    report = boundary(g)
    for slices in (False, True):
        expected = json.dumps(report_to_dict(report, include_slices=slices), indent=2) + "\n"
        assert "".join(_json_report(report, slices)) == expected
        assert "".join(_text_report(report, slices)) == reference_text(report, slices)


def test_every_connected_graph_up_to_5_vertices():
    for g in small_graphs():
        assert_streams_match(g)


@given(graphs_and_long_paths)
def test_hypothesis_graphs(g):
    assert_streams_match(g)


@pytest.mark.parametrize(
    "g, route",
    [
        (complete(1), "python"),
        (complete(2), "python"),
        (star(40), "python"),
        (star(300), "bits"),
        (grid(8, 8).graph, "bits"),
        (random_tree(200, 7), "tree"),
        (cycle(65), "bits"),
        (path(600), "tree"),
    ],
    ids=["k1", "k2", "star40", "star300", "grid8", "tree200", "cycle65", "path600"],
)
def test_small_and_both_distance_routes(g, route):
    assert chosen("distance", g) == route
    assert_streams_match(g)


def formatted_rows(report, writer):
    """How many slice rows ``writer(report, True)`` formats: one label gather per formatted row."""
    gathers = []
    labels = cli._labels

    class Counted(np.ndarray):
        def __getitem__(self, key):
            gathers.append(key)
            return super().__getitem__(key)

    with mock.patch.object(cli, "_labels", lambda *args: labels(*args).view(Counted)):
        "".join(writer(report, True))
    return len(gathers)


@pytest.mark.parametrize("g, distinct", [(random_tree(600, 12345), 222), (path(2000), 3),
                                         (star(600), 601)], ids=["tree600", "path2000", "star600"])
def test_each_distinct_slice_row_is_formatted_once(g, distinct):
    # every non-leaf source of a tree has the leaf set as its slice; a star's rows all differ
    assert_streams_match(g)
    report = boundary(g)
    assert formatted_rows(report, _json_report) == formatted_rows(report, _text_report) == distinct


def test_streamed_json_memory_is_a_small_fraction_of_its_length():
    # the dict of lists and the indent encoder peaked near 10x the output (38.6 MB)
    report = boundary(star(600))
    length = sum(map(len, _json_report(report, True)))
    _, peak = traced(_emit, _json_report(report, True), os.devnull)
    assert length > 3_000_000
    assert peak < length / 10


def test_streamed_json_of_a_tree_keeps_only_the_rows_still_to_come():
    # 379 of the 600 rows are the leaf set; its one text is the only one kept. The peak
    # counts numpy's argsort and void-key scratch: 0.092 of the length with numpy 2.4.6, so
    # a failure with the kernel unchanged may be numpy's allocations, not a regression
    report = boundary(random_tree(600, 12345))
    length = sum(map(len, _json_report(report, True)))
    _emit(_json_report(report, True), os.devnull)  # the writer's first-call allocations
    _, peak = traced(_emit, _json_report(report, True), os.devnull)
    assert length > 1_000_000
    assert peak < length / 10


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_report_peaks_no_higher_than_computing_it(fmt, tmp_path):
    # measured 1.00x; writing the report whole peaked at 19.9x (json) and 2.7x (text)
    el = tmp_path / "s.el"
    assert main(["gen", "--family", "star", "--params", "600", "--out", str(el)]) == 0
    argv = ["boundary", "--in", str(el), "--format", fmt, "--slices", "--out", os.devnull]
    assert main(argv) == 0  # imports and caches settle before tracing
    _, report_peak = traced(lambda: boundary(read_edge_list(el)))
    code, cli_peak = traced(main, argv)
    assert code == 0 and cli_peak < 1.25 * report_peak


def run_optimized(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GRAPHBOUNDARY_OUTDIR", None)
    return subprocess.run([sys.executable, "-O", "-m", "graphboundary", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=120)


def test_cli_under_python_O(tmp_path):
    gen = run_optimized("gen", "--family", "tree", "--params", "120", "--out", "t.el", cwd=tmp_path)
    assert gen.returncode == 0, gen.stderr
    argv = ("boundary", "--in", "t.el", "--format", "json", "--slices")
    to_stdout = run_optimized(*argv, cwd=tmp_path)
    to_file = run_optimized(*argv, "--out", "r.json", cwd=tmp_path)
    assert (to_stdout.returncode, to_file.returncode) == (0, 0)
    assert to_stdout.stderr == to_file.stderr == to_file.stdout == b""
    assert (tmp_path / "r.json").read_bytes() == to_stdout.stdout
    assert json.loads(to_stdout.stdout)["n"] == 120

    (tmp_path / "folder").mkdir()
    bad = run_optimized(*argv, "--out", "folder", cwd=tmp_path)
    assert bad.returncode == 2 and bad.stdout == b""
    assert bad.stderr.startswith(b"error: ") and bad.stderr.count(b"\n") == 1


def test_reader_that_stops_early_ends_the_output_quietly(tmp_path):
    # 0.9 MB of JSON against a 64 KiB pipe: the writer is mid-stream when the reader leaves
    assert run_optimized("gen", "--family", "star", "--params", "300", "--out", "s.el",
                         cwd=tmp_path).returncode == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "graphboundary", "boundary", "--in", "s.el",
                             "--format", "json", "--slices"], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b'{\n  "n": 301,')
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
