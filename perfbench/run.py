"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs for the seed are written under
``.bench_build/perfbench`` before any timing. Each run then starts fresh
child interpreters: a few that only import ``graphboundary.cli`` (set-up
time) and one that calls the CLI for about S seconds, in whole rounds of
the workload's operations, with a reference kernel call after each
operation. ``wall_s`` (mean round time) and ``setup_s`` (median import
time) are scaled by kernel calls made in the same child; see
``reference.py``. With ``--trace 1`` every round is followed by a traced
pass that calls the modules' public functions one by one.

Every output is checked: exit code, the same bytes in every round, the
oracle in ``workloads.py``, and for pinned seeds the digest in
``pinned.json``. The last line of standard output is the result object;
the lines before it give each metric's median, quartiles and sample
count. The exit code is 1 if any operation failed, 2 on a usage or
environment error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 12345  # graphboundary.cli.DEFAULT_SEED
SETUP_PROBES = 7
CHILD_LIMIT_S = 170.0


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref


def src_digest() -> str:
    """sha256 over the program's source files, which identifies the code without git."""
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRAPHBOUNDARY_OUTDIR", None)  # --out paths must land where the checks read them
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run child.py with ``args``; return its result and the monotonic time it was started."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]), started


def setup_samples() -> tuple[list[float], list[float]]:
    """Import times of fresh children, raw and at the reference speed."""
    spawn(["--setup"], 60)  # untimed: fills the bytecode cache, as an installed package has it
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        res, started = spawn(["--setup"], 60)
        raw.append(res["ready"] - started)
        scaled.append(reference.scaled(raw[-1], statistics.median(res["ref_seconds"])))
    return raw, scaled


def layer_value(name: str, passes: list[dict], round_walls: list[float]) -> float:
    """Median over traced passes of one per-layer metric."""
    if name == "trace.overhead_s":
        return statistics.median(p["wall"] for p in passes) - statistics.median(round_walls)
    if name == "generators.enum_yield":
        vals = [p["counters"].get("generators.graphs", 0) / p["counters"].get("generators.masks", 1)
                for p in passes]
    elif name.endswith("_s"):
        vals = [p["self_seconds"].get(name[:-2], 0.0) for p in passes]
    else:
        vals = [p["counters"].get(name, 0) for p in passes]
    return statistics.median(vals)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "graphboundary" / "cli.py").is_file() or not spec_path.is_file():
        _fail(f"{ROOT} is not a graphboundary checkout (need src/graphboundary and BENCHMARK.json)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import spans
    import workloads

    ops, info = workloads.prepare(args.workload, args.seed)
    pins = json.loads((HERE / "pinned.json").read_text())["seeds"].get(str(args.seed))
    run_dir = workloads.WORK_DIR / "runs"
    run_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups, setups_scaled = setup_samples()
    job = {
        "ops": [op.job() for op in ops],
        "seconds": args.seconds,
        "trace": args.trace,
        "spans_prefix": str(run_dir / f"spans-{tag}-pass"),
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run_dir, delete=False) as fh:
        json.dump(job, fh)
    load_before = loadavg()
    try:
        res, _ = spawn([fh.name], CHILD_LIMIT_S - (time.monotonic() - STARTED))
    finally:
        os.unlink(fh.name)
    load_after = loadavg()

    # --- the gate ---
    attempted = failed = 0
    errors: list[str] = []
    digests = {}
    for k, op in enumerate(ops):
        execs = [rnd[k] for rnd in res["rounds"]]
        pinned = pins["ops"][op.name] if pins else None
        final = Path(op.out).read_bytes() if Path(op.out).exists() else b""
        ref_digest, errs = workloads.reference_digest(op, final, pinned)
        errors += errs
        expect_exit = pinned["exit"] if pinned else 0
        bad = workloads.count_failed(execs, ref_digest, expect_exit)
        if bad:
            errors.append(f"{op.name}: {bad} of {len(execs)} executions had a wrong exit code or bytes")
        attempted += len(execs)
        failed += bad
        digests[op.name] = {"exit": execs[-1]["rc"], "sha256": execs[-1]["sha256"],
                            "bytes": execs[-1]["bytes"]}
    for p in res["passes"]:
        attempted += len(p["ok"])
        failed += p["ok"].count(False)
        errors += [f"traced {op.name}: failed" for op, ok in zip(ops, p["ok"]) if not ok]

    round_walls = [sum(ex["seconds"] for ex in rnd) for rnd in res["rounds"]]
    refs = [ex["ref_seconds"] for rnd in res["rounds"] for ex in rnd]
    timings = {"raw wall_s": round_walls, "raw setup_s": setups, "reference kernel": refs}
    if args.trace:
        metrics = {
            m["name"]: {"value": layer_value(m["name"], res["passes"], round_walls), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        timings["trace.wall_s"] = [p["wall"] for p in res["passes"]]
    else:
        values = {
            # the whole run's time over the whole run's reference time, so both see the same host
            "wall_s": reference.scaled(statistics.fmean(round_walls), statistics.fmean(refs)),
            "setup_s": statistics.median(setups_scaled),
            "peak_rss_mib": res["maxrss_kib"] / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cli_threads": res["threads"],
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "inputs": info,
        "pinned_seed": pins is not None,
        "ops": digests,
        "rounds": res["rounds"],
        "setup_samples": setups,
        "setup_samples_scaled": setups_scaled,
        "passes": res["passes"],
        "metrics": metrics,
        "errors": errors,
    }
    (run_dir / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(info)} "
          f"cli_threads {res['threads']} nproc {record['nproc']} cpu_count {record['cpu_count']}")
    print(f"loadavg before [{load_before}] after [{load_after}]")
    for name, vals in timings.items():
        med, q1, q3, n = spans.summary(vals)
        print(f"{name}: median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={n}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"failed_share = {failed}/{attempted}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and not errors else 1


if __name__ == "__main__":
    sys.exit(main())
