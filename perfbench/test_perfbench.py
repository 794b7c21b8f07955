"""Tests of the benchmark's own logic: the output gate, the statistics, self time, scaling.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import statistics
from array import array

import pytest

import reference
import spans
import workloads
from workloads import Op, count_failed, reference_digest, sha256


def _execution(rc: int, data: bytes) -> dict:
    return {"rc": rc, "sha256": sha256(data), "bytes": len(data)}


def test_corrupted_byte_trips_the_gate():
    good = b'{"n": 3}\n'
    op = Op(name="x", argv=[], out="")
    pinned = {"exit": 0, "sha256": sha256(good)}
    reference, errors = reference_digest(op, good, pinned)
    assert reference == sha256(good) and errors == []
    assert count_failed([_execution(0, good)] * 3, reference, 0) == 0

    bad = bytearray(good)
    bad[3] ^= 0x01
    bad = bytes(bad)
    reference, errors = reference_digest(op, bad, pinned)
    assert reference is None and errors
    assert count_failed([_execution(0, bad)] * 3, reference, 0) == 3
    # one corrupted round among good ones fails just that execution
    assert count_failed([_execution(0, good), _execution(0, bad)], sha256(good), 0) == 1


def test_wrong_exit_code_fails_the_execution():
    data = b"ok\n"
    assert count_failed([_execution(1, data), _execution(0, data)], sha256(data), 0) == 1


def test_exact_oracle_rejects_a_corrupted_report(tmp_path):
    edges = tmp_path / "t.el"
    edges.write_text("5 4\n0 1\n1 2\n1 3\n3 4\n")
    expected = workloads.tree_report_bytes(str(edges))
    report = json.loads(expected)
    assert report["boundary"] == [0, 2, 4] and report["diameter"] == 3
    assert report["slices"]["0"] == [2, 4] and report["witness"] == {"0": 1, "2": 0, "4": 0}
    op = Op(name="tree", argv=[], out="", expect_sha=sha256(expected))
    assert op.errors(expected) == []
    corrupted = bytearray(expected)
    corrupted[-10] ^= 0x01
    assert op.errors(bytes(corrupted)) != []


@pytest.mark.parametrize("family,params", [("path", "12"), ("tree", "60"), ("tree", "3")])
def test_tree_oracle_matches_the_cli(tmp_path, family, params):
    from graphboundary.cli import main

    edges, out = tmp_path / "g.el", tmp_path / "g.json"
    assert main(["gen", "--family", family, "--params", params, "--seed", "7", "--out", str(edges)]) == 0
    assert main(["boundary", "--in", str(edges), "--format", "json", "--slices",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == workloads.tree_report_bytes(str(edges))


def test_verify_checker_accepts_the_cli_output(tmp_path):
    from graphboundary.cli import main

    edges, out = tmp_path / "g.el", tmp_path / "g.out"
    assert main(["gen", "--family", "annulus", "--params", "0.4,1.0", "--lam", "0.25",
                 "--out", str(edges)]) == 0
    assert main(["verify", "--in", str(edges), "--checks", "all", "--out", str(out)]) == 0
    n, m, _ = workloads.read_edges(str(edges))
    check = workloads.verify_text_checker(str(edges), n, m, workloads.ALL_CHECKS)
    assert check(out.read_bytes()) == []


def test_verify_text_checker():
    check = workloads.verify_text_checker("g.el", 4, 3, ("prop1", "prop2"))
    good = b"graph in=g.el n=4 m=3\ncheck=prop1 pass=true a=1\ncheck=prop2 pass=true b\nsummary failures=0\n"
    assert check(good) == []
    assert check(good.replace(b"prop2 pass=true", b"prop2 pass=false")) != []
    assert check(good.replace(b"n=4", b"n=5")) != []
    assert check(good[:-1]) != []


@pytest.mark.parametrize(
    "values",
    [[5.0], [1.0, 2.0], [3.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 100.0], [7.0, 1.0, 4.0, 4.0, 2.0, 9.0]],
)
def test_summary_matches_statistics_quantiles(values):
    med, q1, q3, n = spans.summary(values)
    assert n == len(values) and med == statistics.median(values)
    if len(values) > 1:
        assert [q1, q3] == statistics.quantiles(values, n=4)[::2]
    else:
        assert q1 == q3 == med


def test_summary_known_values():
    # exclusive method: positions (n + 1) p = 1.25 and 3.75 of [1, 2, 3, 4]
    assert spans.summary([4.0, 1.0, 3.0, 2.0]) == (2.5, 1.25, 3.75, 4)
    with pytest.raises(ValueError):
        spans.summary([])


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping: union 1..6) and [8, 9];
    # child [2, 6] has a grandchild [3, 4]; a second root [10, 12] has none.
    start = array("d", [0, 1, 2, 3, 8, 10])
    end = array("d", [10, 3, 6, 4, 9, 12])
    parent = array("l", [-1, 0, 0, 2, 0, -1])
    assert spans.self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0, 1.0, 2.0]


def test_tracer_aggregates_by_name():
    tr = spans.Tracer()
    outer = tr.begin("outer")
    assert tr.call("inner", sum, [1, 2]) == 3
    tr.call("inner", len, "ab")
    tr.finish(outer)
    tr.count("items", 2)
    own = tr.self_seconds_by_name()
    assert set(own) == {"outer", "inner"}
    total = tr.end[0] - tr.start[0]
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert tr.root_seconds() == total
    assert list(tr.parent) == [-1, 0, 0] and tr.counters == {"items": 2}


def test_tracer_closes_span_when_the_call_raises():
    tr = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        tr.call("boom", lambda: 1 / 0)
    assert tr.end[0] >= tr.start[0] and tr.begin("next") == 1 and tr.parent[1] == -1


def test_reference_kernel_and_scaling():
    assert reference.kernel() == reference.EXPECTED
    assert reference.timed_kernel() > 0
    # a host running at half speed doubles both the program's time and the kernel's
    assert reference.scaled(2.0, reference.REF_SECONDS) == 2.0
    assert reference.scaled(4.0, 2 * reference.REF_SECONDS) == pytest.approx(2.0)
