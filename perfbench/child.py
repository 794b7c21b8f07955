"""Runs inside a fresh interpreter: times the CLI, and optionally a traced pass.

Usage:  child.py --setup          report when ``graphboundary.cli`` is imported,
                                  then time the reference kernel
        child.py JOB.json         run the job's operations, print one JSON result

Untraced rounds call ``graphboundary.cli.main(argv)`` exactly as a user's
command line would, each call followed by one timed call of the reference
kernel. A traced pass makes the same computation through the modules'
public functions, one span per call, so each layer's time can be read
off. Nothing inside the program is instrumented.
"""

import time

from graphboundary.cli import build_parser, main

READY = time.monotonic()

import hashlib  # noqa: E402  (imported after READY so setup_s is the program's import alone)
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from graphboundary import (  # noqa: E402
    GridGraph,
    boundary,
    distance_matrix,
    enumerate_connected,
    read_edge_list,
    report_to_dict,
)
from graphboundary.verify import ALL_CHECKS, run_battery  # noqa: E402

from reference import timed_kernel  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REFS = 3  # reference kernel calls after a set-up probe's import

# The layer each battery check belongs to, named after the module that does its work.
CHECK_LAYER = {
    "prop1": "verify.prop1",
    "prop2": "verify.prop2",
    "prop3": "verify.prop3",
    "thm1": "layers.thm1",
    "thm2": "layers.thm2",
    "mps": "layers.mps",
    "laplacian": "boundary.laplacian",
    "dichotomy": "layers.dichotomy",
    "prop4": "euclid.prop4",
}


def call_main(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is an outcome to record, like a wrong exit code
        traceback.print_exc()
        return 1


def run_round(ops: list[dict]) -> list[dict]:
    out = []
    for op in ops:
        dest = Path(op["out"])
        dest.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc = call_main(op["argv"])
        seconds = time.perf_counter() - t0
        data = dest.read_bytes() if dest.exists() else b""
        out.append({"rc": rc, "seconds": seconds, "ref_seconds": timed_kernel(), "bytes": len(data),
                    "sha256": hashlib.sha256(data).hexdigest()})
    return out


# --- traced pass ---

def _count_report(tr: Tracer, g, report) -> None:
    tr.count("core.sources", g.n)
    tr.count("boundary.slice_members", sum(len(sl.members) for sl in report.slices))


def _battery(tr: Tracer, g, checks, gg, report) -> bool:
    ok = True
    for check in checks:
        if check == "prop4" and gg is None:
            continue  # run_battery skips prop4 without coordinates, as the CLI does
        outcomes = tr.call(CHECK_LAYER[check], run_battery, g, (check,), gg=gg, report=report)
        ok = ok and all(oc.passed for oc in outcomes)
    return ok


def _load_sidecar(g, path: str):
    """GridGraph from the CLI's ``<edge list>.coords.json`` sidecar, or None."""
    sidecar = Path(path + ".coords.json")
    if not sidecar.exists():
        return None
    meta = json.loads(sidecar.read_text())
    return GridGraph(
        graph=g,
        coordinates=tuple(tuple(int(x) for x in c) for c in meta["coordinates"]),
        dimension=int(meta["dimension"]),
        scale=meta.get("scale"),
        offset=tuple(meta["offset"]) if meta.get("offset") else None,
    )


def traced_verify_file(tr: Tracer, args, op: dict) -> bool:
    g = tr.call("core.parse", read_edge_list, args.input)
    gg = _load_sidecar(g, args.input)
    tr.call("core.distances", distance_matrix, g)
    report = tr.call("boundary.report", boundary, g, include_slices=True)
    _count_report(tr, g, report)
    checks = ALL_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    return _battery(tr, g, checks, gg, report)


def _report_json(report, slices: bool) -> bytes:
    return (json.dumps(report_to_dict(report, include_slices=slices), indent=2) + "\n").encode()


def traced_boundary(tr: Tracer, args, op: dict) -> bool:
    g = tr.call("core.parse", read_edge_list, args.input)
    tr.call("core.distances", distance_matrix, g)
    report = tr.call("boundary.report", boundary, g, include_slices=True, threads=args.threads)
    _count_report(tr, g, report)
    data = tr.call("cli.emit", _report_json, report, args.slices)
    tr.count("cli.out_bytes", len(data))
    return op["expect_sha"] is None or hashlib.sha256(data).hexdigest() == op["expect_sha"]


def traced_enum(tr: Tracer, args, op: dict) -> bool:
    checks = tuple(c for c in ALL_CHECKS if c != "prop4")
    graphs = enumerate_connected(args.nmax)
    count = 0
    ok = True
    while True:
        g = tr.call("generators.enum", next, graphs, None)
        if g is None:
            break
        count += 1
        report = tr.call("boundary.report", boundary, g, include_slices=True)
        _count_report(tr, g, report)
        ok = _battery(tr, g, checks, None, report) and ok
    tr.count("generators.graphs", count)
    tr.count("generators.masks", sum(2 ** (k * (k - 1) // 2) for k in range(1, args.nmax + 1)))
    return ok and count == op["expect_graphs"]


def traced_pass(ops: list[dict]) -> tuple[Tracer, list[bool]]:
    tr = Tracer()
    oks = []
    for op in ops:
        args = build_parser().parse_args(op["argv"])
        if args.command == "boundary":
            fn = traced_boundary
        elif args.family == "enum":
            fn = traced_enum
        else:
            fn = traced_verify_file
        idx = tr.begin("cli." + args.command)
        try:
            oks.append(fn(tr, args, op))
        except Exception:  # the crash is reported as a failed operation, never hidden
            traceback.print_exc()
            oks.append(False)
        finally:
            tr.finish(idx)
    return tr, oks


def run_job(job: dict) -> dict:
    ops = job["ops"]
    rounds, tracers, traced_ok = [], [], []
    begin = time.monotonic()
    while True:
        round_start = time.monotonic()
        rounds.append(run_round(ops))
        if job["trace"]:
            tr, oks = traced_pass(ops)
            tracers.append(tr)
            traced_ok.append(oks)
        now = time.monotonic()
        if now - begin + (now - round_start) > job["seconds"]:
            break  # another round would end past the deadline
    passes = []
    for k, tr in enumerate(tracers):
        tr.write(Path(job["spans_prefix"] + f"{k}.json"))
        passes.append({
            "wall": tr.root_seconds(),
            "self_seconds": tr.self_seconds_by_name(),
            "counters": dict(tr.counters),
            "ok": traced_ok[k],
        })
    return {
        "ready": READY,
        "threads": [build_parser().parse_args(op["argv"]).threads for op in ops],
        "rounds": rounds,
        "passes": passes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup"]:
        result = {"ready": READY, "ref_seconds": [timed_kernel() for _ in range(SETUP_REFS)]}
    else:
        result = run_job(json.loads(Path(sys.argv[1]).read_text()))
    print(json.dumps(result))
