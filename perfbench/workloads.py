"""Workloads: seeded input files, the CLI operations run on them, and output oracles.

Inputs are built with the library generators through the CLI's own ``gen``
command before any timing, so the program under test only ever receives
files. Every operation writes its report with ``--out``; an oracle checks
the bytes, exactly where the expected report can be derived independently
(trees and paths, the exhaustive sweep) and structurally otherwise.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

WORK_DIR = Path(".bench_build") / "perfbench"  # relative to the checkout root

ALL_CHECKS = ("prop1", "prop2", "prop3", "thm1", "thm2", "mps", "laplacian", "dichotomy", "prop4")
# Every operation takes well under two seconds, so a run holds many rounds
# and each reference kernel call sits close to the work it rescales.
ENUM_NMAX = 5
ENUM_GRAPHS = 772  # connected labeled graphs on 1..5 vertices: 1+1+4+38+728

ANNULUS_PARAMS, ANNULUS_LAM = "0.4,1.0", "0.08"  # n = 404
GNP_N, GNP_P = 400, 0.02
GNP_MAX_TRIES = 64  # about one seed in eight leaves a vertex isolated
# The path and the random tree. A tree's slices are frozensets of about its
# leaf count; a set's table grows fourfold when it passes 306 members. Trees
# on 600 vertices have 202 to 243 leaves (seeds 1..199), so peak memory does
# not jump from seed to seed; on 800 vertices it did (99 or 139 MiB).
TREE_N = 600


@dataclass
class Op:
    """One CLI invocation: argv as a user would type it, and its output check."""

    name: str
    argv: list[str]
    out: str
    input: str | None = None
    expect_sha: str | None = None  # set when the oracle knows the exact bytes
    expect_graphs: int | None = None
    check_text: Callable[[bytes], list[str]] | None = field(default=None, repr=False)

    def job(self) -> dict:
        return {
            "name": self.name,
            "argv": self.argv,
            "out": self.out,
            "expect_sha": self.expect_sha,
            "expect_graphs": self.expect_graphs,
        }

    def errors(self, data: bytes) -> list[str]:
        if self.expect_sha is not None and sha256(data) != self.expect_sha:
            return [f"{self.name}: output differs from the oracle's exact report"]
        if self.check_text is not None:
            return [f"{self.name}: {e}" for e in self.check_text(data)]
        return []


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_digest(op: Op, final: bytes, pinned: dict | None) -> tuple[str | None, list[str]]:
    """The digest every execution of ``op`` must reproduce, or None if there is none.

    The last output must pass the oracle and, for a pinned seed, match the
    pinned digest; otherwise no execution of the operation counts as correct.
    """
    errors = op.errors(final)
    digest = sha256(final)
    if pinned is not None and pinned["sha256"] != digest:
        errors.append(f"{op.name}: sha256 {digest[:12]} differs from pinned {pinned['sha256'][:12]}")
    return (None if errors else digest), errors


def count_failed(executions: list[dict], reference: str | None, expect_exit: int) -> int:
    """Executions with the wrong exit code or output bytes other than the reference."""
    return sum(1 for ex in executions if ex["rc"] != expect_exit or ex["sha256"] != reference)


# --- input files ---

def _gen(main, out: Path, family: str, params: str, *extra: str) -> None:
    rc = main(["gen", "--family", family, "--params", params, *extra, "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"gen {family} {params} exited {rc}")


def read_edges(path: str) -> tuple[int, int, list[list[int]]]:
    """Edge-list file -> (n, m, adjacency), read without the library."""
    rows = [
        ln.split()
        for ln in Path(path).read_text().splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    n, m = int(rows[0][0]), int(rows[0][1])
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in rows[1:]:
        adj[int(u)].append(int(w))
        adj[int(w)].append(int(u))
    return n, m, adj


def _bfs_far(adj: list[list[int]], src: int) -> tuple[int, int, int]:
    """(farthest vertex, its distance, vertices reached) from ``src``."""
    dist = {src: 0}
    queue = deque([src])
    far = src
    while queue:
        u = queue.popleft()
        if dist[u] > dist[far]:
            far = u
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return far, dist[far], len(dist)


def tree_report_bytes(path: str) -> bytes:
    """The exact ``boundary --format json --slices`` output for a tree on n >= 3 vertices.

    In a tree every non-source leaf is in the source's slice and no other
    vertex is (its one closer neighbour is outweighed by the farther ones),
    so the slice of v is the leaf set minus v, both boundaries are the leaf
    set, and each leaf's smallest certifying source is 0, or 1 for leaf 0.
    """
    n, m, adj = read_edges(path)
    a, _, reached = _bfs_far(adj, 0)
    if n < 3 or m != n - 1 or reached != n:
        raise ValueError(f"{path} is not a tree on at least 3 vertices")
    _, diam, _ = _bfs_far(adj, a)
    leaves = [u for u in range(n) if len(adj[u]) == 1]
    report = {
        "n": n,
        "m": m,
        "max_degree": max(len(nbrs) for nbrs in adj),
        "diameter": diam,
        "boundary": leaves,
        "cejz_boundary": leaves,
        "witness": {str(u): 1 if u == 0 else 0 for u in leaves},
        "slices": {str(v): [u for u in leaves if u != v] for v in range(n)},
    }
    return (json.dumps(report, indent=2) + "\n").encode()


def verify_text_checker(label: str, n: int, m: int, checks: tuple[str, ...]):
    """Structural oracle for ``verify --in``: header, every check passed, zero failures."""

    def check(data: bytes) -> list[str]:
        lines = data.decode(errors="replace").split("\n")
        errors = []
        if lines[-1:] != [""]:
            errors.append("output does not end with a newline")
        lines = lines[:-1]
        if not lines or lines[0] != f"graph in={label} n={n} m={m}":
            errors.append(f"bad header {lines[:1]}")
        body = lines[1:-1]
        names = [ln.split(" ", 1)[0].removeprefix("check=") for ln in body]
        if names != list(checks):
            errors.append(f"checks {names} != {list(checks)}")
        errors.extend(f"failed: {ln}" for ln in body if ln.split(" ")[1:2] != ["pass=true"])
        if lines[-1:] != ["summary failures=0"]:
            errors.append(f"bad summary {lines[-1:]}")
        return errors

    return check


def enum_text() -> bytes:
    """The exact ``verify --family enum --nmax 5`` output: every check passes on every graph."""
    lines = [f"enum nmax={ENUM_NMAX} graphs={ENUM_GRAPHS}"]
    lines += [f"check={c} graphs={ENUM_GRAPHS} failures=0" for c in ALL_CHECKS if c != "prop4"]
    lines.append("summary failures=0")
    return ("\n".join(lines) + "\n").encode()


def connected_gnp_seed(seed: int) -> int:
    """First seed from ``seed`` upward whose G(GNP_N, GNP_P) is connected."""
    from graphboundary import erdos_renyi, is_connected

    for s in range(seed, seed + GNP_MAX_TRIES):
        if is_connected(erdos_renyi(GNP_N, GNP_P, s)):
            return s
    raise RuntimeError(f"no connected G({GNP_N}, {GNP_P}) in seeds {seed}..{seed + GNP_MAX_TRIES - 1}")


def _verify_op(name: str, path: Path, checks: tuple[str, ...]) -> Op:
    n, m, _ = read_edges(str(path))
    return Op(
        name=name,
        argv=["verify", "--in", str(path), "--checks", "all", "--out", str(path) + ".out"],
        out=str(path) + ".out",
        input=str(path),
        check_text=verify_text_checker(str(path), n, m, checks),
    )


def _boundary_op(name: str, path: Path) -> Op:
    return Op(
        name=name,
        argv=["boundary", "--in", str(path), "--format", "json", "--slices",
              "--out", str(path) + ".out"],
        out=str(path) + ".out",
        input=str(path),
        expect_sha=sha256(tree_report_bytes(str(path))),
    )


def prepare(workload: str, seed: int) -> tuple[list[Op], dict]:
    """Write the workload's input files for ``seed``; return its operations and facts to record."""
    from graphboundary.cli import main

    wdir = WORK_DIR / workload
    wdir.mkdir(parents=True, exist_ok=True)
    info: dict = {}
    if workload == "lowdiam-verify":
        annulus, gnp = wdir / "annulus.el", wdir / "gnp.el"
        _gen(main, annulus, "annulus", ANNULUS_PARAMS, "--lam", ANNULUS_LAM)
        info["gnp_seed"] = connected_gnp_seed(seed)
        _gen(main, gnp, "er", f"{GNP_N},{GNP_P}", "--seed", str(info["gnp_seed"]))
        ops = [
            _verify_op("annulus", annulus, ALL_CHECKS),
            _verify_op("gnp", gnp, ALL_CHECKS[:-1]),  # no sidecar, so prop4 is skipped
        ]
    elif workload == "highdiam-report":
        pth, tree = wdir / "path.el", wdir / "tree.el"
        _gen(main, pth, "path", str(TREE_N))
        _gen(main, tree, "tree", str(TREE_N), "--seed", str(seed))
        ops = [_boundary_op("path", pth), _boundary_op("tree", tree)]
    elif workload == "enum-sweep":
        out = wdir / "enum.out"
        ops = [Op(
            name="enum",
            argv=["verify", "--family", "enum", "--nmax", str(ENUM_NMAX), "--out", str(out)],
            out=str(out),
            expect_sha=sha256(enum_text()),
            expect_graphs=ENUM_GRAPHS,
        )]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        if op.input is not None:
            info[f"{op.name}_input_sha256"] = sha256(Path(op.input).read_bytes())
    return ops, info
