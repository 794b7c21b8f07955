"""Command-line surface: gen, boundary, verify, sweep, prop4, sector.

The parsed argument namespace is the run configuration. Exit codes are a
contract: 0 all checks passed, 1 a check failed (which means a bug, since
everything checked is a theorem), 2 input or parameter error. All outputs
are deterministic: repeating a command with the same arguments produces
byte-identical files. --threads is accepted for compatibility and ignored:
every command runs in one thread.

If the environment variable GRAPHBOUNDARY_OUTDIR is set, relative --out
paths are written under that directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .boundary import boundary, report_to_dict
from .core import (
    Graph,
    GraphError,
    read_edge_list,
    write_edge_list,
)
from .euclid import (
    classify_cycle,
    classify_prop4,
    radial_laplacian_identity_check,
    sector_check,
)
from .generators import (
    ENUM_NMAX,
    DomainSpec,
    GridGraph,
    complete,
    cycle,
    enumerate_connected,
    erdos_renyi,
    grid,
    grid_d,
    hypercube,
    lattice_discretize,
    path,
    random_tree,
    star,
)
from .layers import SWEEP_COLUMNS, sweep_rows
from .verify import ALL_CHECKS, run_battery

DEFAULT_SEED = 12345  # fixed so unseeded runs are still reproducible

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_LATTICE_SHAPES = ("disk", "annulus", "rectangle", "l_shape", "slit_disk", "sector")


class _CliError(Exception):
    """Input/parameter problem; maps to exit code 2."""


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise _CliError(f"bad numeric list {text!r}") from exc


def _ints(text: str) -> list[int]:
    vals = _floats(text)
    if any(v != int(v) for v in vals):
        raise _CliError(f"expected integers, got {text!r}")
    return [int(v) for v in vals]


def build_family(family: str, params: str, seed: int, lam: float | None, offset: str | None):
    """Construct one graph family member; returns Graph or GridGraph."""
    try:
        if family == "path":
            (n,) = _ints(params)
            return path(n)
        if family == "cycle":
            (n,) = _ints(params)
            return cycle(n)
        if family == "complete":
            (n,) = _ints(params)
            return complete(n)
        if family == "star":
            (k,) = _ints(params)
            return star(k)
        if family == "hypercube":
            (d,) = _ints(params)
            return hypercube(d)
        if family == "grid":
            rows, cols = _ints(params)
            return grid(rows, cols)
        if family == "grid_d":
            return grid_d(_ints(params))
        if family == "tree":
            (n,) = _ints(params)
            return random_tree(n, seed)
        if family == "er":
            n, p = _floats(params)
            if n != int(n):
                raise _CliError("er needs integer n")
            return erdos_renyi(int(n), p, seed)
        if family in _LATTICE_SHAPES:
            if lam is None:
                raise _CliError(f"family {family} needs --lam")
            off = None
            if offset is not None:
                ox, oy = _floats(offset)
                off = (ox, oy)
            spec = DomainSpec(family, tuple(_floats(params)), lam, off)
            return lattice_discretize(spec)
    except (ValueError, GraphError) as exc:
        raise _CliError(f"cannot build family {family} params={params}: {exc}") from exc
    raise _CliError(f"unknown family {family!r}")


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    p = Path(out)
    outdir = os.environ.get("GRAPHBOUNDARY_OUTDIR")
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(text: str, out: str | None) -> None:
    dest = _resolve_out(out)
    if dest is None:
        sys.stdout.write(text)
    else:
        with open(dest, "w", newline="\n") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_graph(path_str: str) -> Graph:
    try:
        return read_edge_list(path_str)
    except OSError as exc:
        raise _CliError(f"cannot read {path_str}: {exc}") from exc
    except GraphError as exc:
        raise _CliError(f"bad edge list {path_str}: {exc}") from exc


def _sidecar_path(el_path: Path) -> Path:
    return Path(str(el_path) + ".coords.json")


def _load_gridgraph(path_str: str) -> GridGraph | None:
    """Rebuild a GridGraph from an edge list plus its coordinate sidecar."""
    g = _load_graph(path_str)
    sidecar = _sidecar_path(Path(path_str))
    if not sidecar.exists():
        return None
    meta = json.loads(sidecar.read_text())
    coords = tuple(tuple(int(x) for x in c) for c in meta["coordinates"])
    if len(coords) != g.n:
        raise _CliError(f"sidecar {sidecar} does not match {path_str}")
    return GridGraph(
        graph=g,
        coordinates=coords,
        dimension=int(meta["dimension"]),
        scale=meta.get("scale"),
        offset=tuple(meta["offset"]) if meta.get("offset") else None,
    )


# --- gen ---

def cmd_gen(args) -> int:
    dest = _resolve_out(args.out)  # path problems surface before any compute
    if dest is None:
        raise _CliError("gen requires --out")
    built = build_family(args.family, args.params, args.seed, args.lam, args.offset)
    gg = built if isinstance(built, GridGraph) else None
    g = gg.graph if gg else built
    write_edge_list(dest, g)
    if gg is not None:
        sidecar = {
            "dimension": gg.dimension,
            "scale": gg.scale,
            "offset": list(gg.offset) if gg.offset else None,
            "coordinates": [list(c) for c in gg.coordinates],
        }
        with open(_sidecar_path(dest), "w", newline="\n") as fh:
            fh.write(_json_text(sidecar))
    return EXIT_OK


# --- boundary ---

def _dot_report(g: Graph, report, overlay_cejz: bool) -> str:
    bset = set(report.boundary)
    cset = set(report.cejz_boundary) if overlay_cejz else set()
    lines = ["graph G {", "  node [style=filled];"]
    for u in range(g.n):
        if u in cset:
            lines.append(f'  {u} [fillcolor="red" peripheries=2];')
        elif u in bset:
            lines.append(f'  {u} [fillcolor="red"];')
        else:
            lines.append(f'  {u} [fillcolor="lightblue"];')
    for u, w in g.edges():
        lines.append(f"  {u} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _text_report(report, include_slices: bool) -> str:
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


def cmd_boundary(args) -> int:
    g = _load_graph(args.input)
    try:
        report = boundary(g, include_slices=True, threads=args.threads)
    except GraphError as exc:
        raise _CliError(str(exc)) from exc
    if args.format == "json":
        text = _json_text(report_to_dict(report, include_slices=args.slices))
    elif args.format == "dot":
        text = _dot_report(g, report, args.overlay_cejz)
    else:
        text = _text_report(report, args.slices)
    _emit(text, args.out)
    return EXIT_OK


# --- verify ---

def _battery_args(args) -> tuple[tuple[str, ...], bool]:
    if args.checks == "all":
        return ALL_CHECKS, False
    names = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    bad = [c for c in names if c not in ALL_CHECKS]
    if bad:
        raise _CliError(f"unknown checks {bad}; known: {', '.join(ALL_CHECKS)}")
    return names, "prop4" in names


def cmd_verify(args) -> int:
    checks, prop4_required = _battery_args(args)
    lines = []
    failures = 0
    if args.family == "enum":
        if args.input:
            raise _CliError("--in and --family enum are mutually exclusive")
        if not 1 <= args.nmax <= ENUM_NMAX:
            raise _CliError(f"--nmax must be between 1 and {ENUM_NMAX}, got {args.nmax}")
        checks = tuple(c for c in checks if c != "prop4")
        count = 0
        tallies = {c: 0 for c in checks}
        for g in enumerate_connected(args.nmax):
            count += 1
            for oc in run_battery(g, checks):
                if not oc.passed:
                    tallies[oc.check] += 1
                    failures += 1
        lines.append(f"enum nmax={args.nmax} graphs={count}")
        for c in checks:
            lines.append(f"check={c} graphs={count} failures={tallies[c]}")
    else:
        if args.family:
            built = build_family(args.family, args.params, args.seed, args.lam, args.offset)
            gg = built if isinstance(built, GridGraph) else None
            g = gg.graph if gg else built
            label = f"family={args.family} params={args.params}"
        elif args.input:
            gg = _load_gridgraph(args.input)
            g = gg.graph if gg else _load_graph(args.input)
            label = f"in={args.input}"
        else:
            raise _CliError("verify needs --in or --family")
        if prop4_required and gg is None:
            raise _CliError("prop4 needs lattice coordinates (grid family or coordinate sidecar)")
        try:
            outcomes = run_battery(g, checks, gg=gg)
        except GraphError as exc:
            raise _CliError(str(exc)) from exc
        lines.append(f"graph {label} n={g.n} m={g.m}")
        for oc in outcomes:
            lines.append(f"check={oc.check} pass={'true' if oc.passed else 'false'} {oc.detail}")
        failures = sum(1 for oc in outcomes if not oc.passed)
    lines.append(f"summary failures={failures}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# --- sweep ---

def cmd_sweep(args) -> int:
    sizes = _ints(args.sizes)
    rows = []
    for n in sizes:
        if args.family == "grid":
            params = f"{n},{n}"
            g = grid(n, n).graph
        elif args.family == "er":
            params = f"{n},{args.p}"
            g = erdos_renyi(n, args.p, args.seed)
        else:
            params = str(n)
            g = {
                "path": path,
                "cycle": cycle,
                "complete": complete,
                "star": star,
                "hypercube": hypercube,
                "tree": lambda k: random_tree(k, args.seed),
            }.get(args.family, lambda k: None)(n)
            if g is None:
                raise _CliError(f"family {args.family!r} not sweepable")
        try:
            rows.extend(sweep_rows(args.family, params, g))
        except GraphError as exc:
            raise _CliError(f"{args.family} {params}: {exc}") from exc
    dest = _resolve_out(args.out)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        row = dict(row)
        row["pass"] = "true" if row["pass"] else "false"
        writer.writerow(row)
    if dest is None:
        sys.stdout.write(buf.getvalue())
    else:
        with open(dest, "w", newline="\n") as fh:
            fh.write(buf.getvalue())
    return EXIT_OK


# --- prop4 ---

def cmd_prop4(args) -> int:
    if args.family == "cycle":
        (n,) = _ints(args.params)
        g = cycle(n)
        try:
            pairs = classify_cycle(g, all_witnesses=args.all_witnesses)
        except GraphError as exc:
            raise _CliError(str(exc)) from exc
        coords = [[u] for u in range(n)]
        dimension = 1
    else:
        if args.family:
            built = build_family(args.family, args.params, args.seed, args.lam, args.offset)
            if not isinstance(built, GridGraph):
                raise _CliError(f"family {args.family} carries no lattice coordinates")
            gg = built
        elif args.input:
            gg = _load_gridgraph(args.input)
            if gg is None:
                raise _CliError(f"no coordinate sidecar found for {args.input}")
        else:
            raise _CliError("prop4 needs --in or --family")
        try:
            pairs = classify_prop4(gg, all_witnesses=args.all_witnesses)
        except GraphError as exc:
            raise _CliError(str(exc)) from exc
        coords = [list(c) for c in gg.coordinates]
        dimension = gg.dimension
    payload = {
        "dimension": dimension,
        "full_degree": 2 * dimension,
        "witnesses": [
            {
                "vertex": u,
                "coordinates": coords[u],
                "witness": w.witness,
                "case": w.case,
                "neighbors": list(w.neighbors),
                "axis": w.axis,
            }
            for u, w in pairs
        ],
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


# --- sector ---

def cmd_sector(args) -> int:
    try:
        chk = sector_check(args.r, args.alpha, alpha_max=args.alpha_max)
    except (GraphError, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    payload = {
        "dimension": chk.dimension,
        "radius": chk.radius,
        "alpha": chk.alpha,
        "arc_length": chk.arc_length,
        "area": chk.area,
        "diameter": chk.diameter,
        "bound": chk.bound,
        "ratio": chk.ratio,
    }
    if args.radial_step is not None:
        samples = [(1.0, 0.0), (0.6, 0.8), (-0.5, 0.5)]
        payload["radial_identity"] = {
            "step": args.radial_step,
            "sample_points": [list(p) for p in samples],
            "max_relative_deviation": radial_laplacian_identity_check(
                2, samples, step=args.radial_step
            ),
        }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphboundary",
        description="Graph boundary computation and theorem verification.",
        epilog="Relative --out paths honor $GRAPHBOUNDARY_OUTDIR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help="output path (default: stdout)"):
        p.add_argument("--out", default=None, help=out_help)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="accepted and ignored (kept for compatibility); "
                            "every command runs in one thread")

    def add_family(p):
        p.add_argument("--family", default=None,
                       help="path|cycle|complete|star|hypercube|grid|grid_d|tree|er|"
                            + "|".join(_LATTICE_SHAPES))
        p.add_argument("--params", default="", help="comma-separated family parameters")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"seed for tree/er (default {DEFAULT_SEED})")
        p.add_argument("--lam", type=float, default=None, help="lattice spacing for shapes")
        p.add_argument("--offset", default=None, help="lattice origin x,y (default lam/2,lam/2)")

    p = sub.add_parser("gen", help="write a family member as an edge-list file")
    add_family(p)
    add_common(p, out_help="edge-list output path (required); lattice families also write "
                           "<out>.coords.json")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("boundary", help="compute the boundary report of a graph file")
    p.add_argument("--in", dest="input", required=True, help="edge-list input path")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--slices", action="store_true", help="include per-source slices")
    p.add_argument("--overlay-cejz", action="store_true",
                   help="dot only: draw the CEJZ boundary with doubled periphery")
    add_common(p)
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("verify", help="run theorem checks; nonzero exit on failure")
    p.add_argument("--in", dest="input", default=None, help="edge-list input path")
    add_family(p)
    p.add_argument("--nmax", type=int, default=5,
                   help=f"with --family enum: exhaustive bound (<= {ENUM_NMAX})")
    p.add_argument("--checks", default="all",
                   help="comma list of " + ",".join(ALL_CHECKS) + " or 'all'")
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="inequality CSV over a family size sweep")
    p.add_argument("--family", required=True,
                   help="path|cycle|complete|star|hypercube|grid|tree|er")
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--p", type=float, default=0.3, help="edge probability for er")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("prop4", help="geodesic non-uniqueness witnesses as JSON")
    p.add_argument("--in", dest="input", default=None,
                   help="edge-list path with a .coords.json sidecar")
    add_family(p)
    p.add_argument("--all-witnesses", action="store_true",
                   help="enumerate every witness instead of the first")
    add_common(p)
    p.set_defaults(fn=cmd_prop4)

    p = sub.add_parser("sector", help="closed-form disk-sector check as JSON")
    p.add_argument("--r", type=float, required=True, help="sector radius")
    p.add_argument("--alpha", type=float, required=True, help="opening fraction of a turn")
    p.add_argument("--alpha-max", type=float, default=0.1,
                   help="reject wider openings (diameter formula needs diam = r)")
    p.add_argument("--radial-step", type=float, default=None,
                   help="also report the finite-difference radial identity deviation")
    add_common(p)
    p.set_defaults(fn=cmd_sector)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
