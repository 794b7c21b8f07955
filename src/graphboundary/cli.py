"""Command-line surface: gen, boundary, verify, sweep, prop4, sector.

The parsed argument namespace is the run configuration. Exit codes are a
contract: 0 all checks passed; 1 a check failed or an InvariantViolation
ended the run with a traceback (a bug either way, since everything checked
is a theorem); 2 input or parameter error, printed as one ``error:`` line,
which covers bad edge lists, coordinate sidecars that fail the check
against their edge list, out-of-range family, sweep or sector parameters,
and an --out path that cannot be written. All outputs are deterministic:
repeating a command with the same arguments produces byte-identical files.
--threads is accepted for compatibility and ignored: every command runs in
one thread.

If the environment variable GRAPHBOUNDARY_OUTDIR is set, relative --out
paths are written under that directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

import numpy as np

from . import core
from .boundary import boundary, report_to_dict, slice_row_iter
from .core import (
    Graph,
    GraphError,
    InvariantViolation,
    format_edge_list,
    read_edge_list,
)
from .euclid import (
    classify_cycle,
    classify_prop4,
    radial_laplacian_identity_check,
    sector_check,
)
from .generators import (
    ENUM_NMAX,
    DisconnectedDiscretizationWarning,
    DomainSpec,
    GridGraph,
    complete,
    cycle,
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
from .verify import ALL_CHECKS, enum_sweep, run_battery

DEFAULT_SEED = 12345  # fixed so unseeded runs are still reproducible

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

_LATTICE_SHAPES = ("disk", "annulus", "rectangle", "l_shape", "slit_disk", "sector")
_ONE_INT_FAMILIES = {"path": path, "cycle": cycle, "complete": complete, "star": star,
                     "hypercube": hypercube}
_SWEEP_FAMILIES = ("path", "cycle", "complete", "star", "hypercube", "grid", "tree", "er")


class _CliError(Exception):
    """Input/parameter problem; maps to exit code 2."""


def _floats(text: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise _CliError(f"bad numeric list {text!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise _CliError(f"non-finite number in {text!r}")
    return vals


def _ints(text: str) -> list[int]:
    vals = _floats(text)
    if any(v != int(v) for v in vals):
        raise _CliError(f"expected integers, got {text!r}")
    return [int(v) for v in vals]


def _check_size(family: str, params: str) -> None:
    """Reject a family member over core.MAX_VERTICES or core.MAX_EDGES before it is built.

    Edges are counted on the dense families: n(n-1)/2 for complete,
    d * 2^(d-1) for hypercube, and the expected p * n(n-1)/2 for er.
    Parameters that the family's builder rejects anyway (a missing or
    negative size, an er p outside [0, 1]) pass here, so that the builder's
    own message stays the same. Lattice shapes are checked on their mesh
    box in build_family.
    """
    edges = 0.0
    if family in ("grid", "grid_d"):
        count = math.prod(max(x, 0.0) for x in _floats(params))
    elif family in _ONE_INT_FAMILIES or family in ("tree", "er"):
        nums = _floats(params)
        n = max(nums[:1] + [0.0])  # the size is the first number
        count = n + (family == "star")
        if family == "hypercube":
            d = min(n, 64.0)
            count, edges = 2 ** d, d * 2 ** (d - 1)
        elif family == "complete":
            edges = n * (n - 1) / 2
        elif family == "er" and len(nums) == 2 and 0.0 <= nums[1] <= 1.0:
            edges = nums[1] * n * (n - 1) / 2
    else:
        return
    if count > core.MAX_VERTICES:
        raise _CliError(f"family {family} params={params} has more than "
                        f"{core.MAX_VERTICES} vertices")
    if edges > core.MAX_EDGES:
        raise _CliError(f"family {family} params={params} has more than "
                        f"{core.MAX_EDGES} edges")


def build_family(family: str, params: str, seed: int, lam: float | None, offset: str | None):
    """Construct one graph family member; returns Graph or GridGraph."""
    try:
        _check_size(family, params)
        if family in _ONE_INT_FAMILIES:
            (n,) = _ints(params)
            return _ONE_INT_FAMILIES[family](n)
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
            ilo, ihi, jlo, jhi = spec.mesh_box()
            if (ihi - ilo + 1) * (jhi - jlo + 1) > core.MAX_VERTICES:
                raise _CliError(f"family {family} params={params} at --lam {lam} tests more "
                                f"than {core.MAX_VERTICES} mesh points")
            with warnings.catch_warnings():
                warnings.simplefilter("error", DisconnectedDiscretizationWarning)
                return lattice_discretize(spec)
    except DisconnectedDiscretizationWarning as exc:
        raise _CliError(f"family {family} params={params} at --lam {lam} is disconnected") from exc
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
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create the folder of {p}: {exc}") from exc
    return p


def _write(dest: Path, chunks: Iterable[str]) -> None:
    try:
        with open(dest, "w", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _CliError(f"cannot write {dest}: {exc}") from exc


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to the --out file, or to stdout without one."""
    dest = _resolve_out(out)
    if dest is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (``| head``): drop the rest, including
            # what the interpreter would flush at exit, and keep the exit code
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        _write(dest, chunks)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_graph(path_str: str) -> Graph:
    try:
        return read_edge_list(path_str)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path_str}: {exc}") from exc
    except GraphError as exc:
        raise _CliError(f"bad edge list {path_str}: {exc}") from exc


def _finite(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)  # bool is not a number here


def _sidecar_path(el_path: Path) -> Path:
    return Path(str(el_path) + ".coords.json")


def _load_input(path_str: str) -> Graph | GridGraph:
    """The edge list, as a GridGraph when a coordinate sidecar sits beside it.

    The sidecar must give each vertex a distinct point of ``dimension``
    integers, ``dimension`` itself a positive JSON integer, and the edges
    must be exactly their unit-step relation: each edge is one unit step,
    read off the CSR, and there are m pairs of points one unit step apart,
    counted on the sorted keys of :func:`_lattice_keys`.
    ``scale`` is null or finite and positive, ``offset`` null or ``dimension`` finite numbers.
    """
    g = _load_graph(path_str)
    sidecar = _sidecar_path(Path(path_str))
    if not sidecar.exists():
        return g
    try:
        meta = json.loads(sidecar.read_text())
        coords = tuple(tuple(c) for c in meta["coordinates"])
        gg = GridGraph(
            graph=g,
            coordinates=coords,
            dimension=meta["dimension"],
            scale=meta.get("scale"),
            offset=None if meta.get("offset") is None else tuple(meta["offset"]),
        )
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise _CliError(f"bad coordinate sidecar {sidecar}: {exc!r}") from exc
    if type(gg.dimension) is not int:  # a JSON integer: bool, float and string are refused
        raise _CliError(f"sidecar {sidecar}: dimension must be an integer")
    if gg.dimension < 1:
        raise _CliError(f"sidecar {sidecar}: dimension must be a positive integer")
    if len(coords) != g.n:
        raise _CliError(f"sidecar {sidecar} does not match {path_str}")
    if set(map(len, coords)) != {gg.dimension} or set(map(type, chain(*coords))) != {int}:
        raise _CliError(f"sidecar {sidecar}: coordinates must be {gg.dimension} integers each")
    if not (gg.scale is None or _finite(gg.scale) and gg.scale > 0):
        raise _CliError(f"sidecar {sidecar}: scale must be null or a finite positive number")
    if not (gg.offset is None or len(gg.offset) == gg.dimension and all(map(_finite, gg.offset))):
        raise _CliError(f"sidecar {sidecar}: offset must be null or {gg.dimension} finite numbers")
    keys, strides = _lattice_keys(coords, gg.dimension)
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        raise _CliError(f"sidecar {sidecar}: duplicate coordinates")
    indptr, indices = g.csr
    steps = np.abs(keys[indices] - np.repeat(keys, np.diff(indptr)))
    pairs = 0
    for stride in strides:  # pairs one step apart along an axis: key and key + stride both held
        up = ordered + stride
        at = np.searchsorted(ordered, up) % g.n  # past the end wraps to the least key, below up
        pairs += int(np.count_nonzero(ordered[at] == up))
    if pairs != g.m or not (steps[:, None] == strides).any(axis=1).all():
        raise _CliError(f"sidecar {sidecar}: edges of {path_str} are not the unit-step relation")
    return gg


def _lattice_keys(coords: tuple[tuple[int, ...], ...],
                  dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """A mixed-radix key per point, and the key stride of each axis.

    Axis a's digit is the coordinate less the axis minimum, in radix
    span + 2, so two keys differ by a stride exactly when their points are
    one unit step apart, and a key plus a stride never wraps into the next
    digit. Keys are int64 when every key fits, else exact Python ints.
    """
    try:
        points = np.array(coords, dtype=np.int64).reshape(len(coords), dimension)
    except OverflowError:  # a coordinate beyond int64
        points = np.array(coords, dtype=object).reshape(len(coords), dimension)
    low = points.min(axis=0)
    radix = [hi - lo + 2 for lo, hi in zip(low.tolist(), points.max(axis=0).tolist())]
    if math.prod(radix) >= 2**63:
        points, low = points.astype(object), low.astype(object)
    strides = np.array([math.prod(radix[:a]) for a in range(dimension)], dtype=points.dtype)
    return ((points - low) * strides).sum(axis=1), strides


def _split(built: Graph | GridGraph) -> tuple[Graph, GridGraph | None]:
    return (built.graph, built) if isinstance(built, GridGraph) else (built, None)


def _family_or_input(args) -> tuple[Graph, GridGraph | None, str]:
    """The graph named by --family or read from --in, with its label."""
    if args.family:
        built = build_family(args.family, args.params, args.seed, args.lam, args.offset)
        return (*_split(built), f"family={args.family} params={args.params}")
    if args.input:
        return (*_split(_load_input(args.input)), f"in={args.input}")
    raise _CliError(f"{args.command} needs --in or --family")


# --- gen ---

def cmd_gen(args) -> int:
    dest = _resolve_out(args.out)  # path problems surface before any compute
    if dest is None:
        raise _CliError("gen requires --out")
    g, gg = _split(build_family(args.family, args.params, args.seed, args.lam, args.offset))
    _write(dest, [format_edge_list(g)])
    if gg is not None:
        sidecar = {
            "dimension": gg.dimension,
            "scale": gg.scale,
            "offset": list(gg.offset) if gg.offset else None,
            "coordinates": [list(c) for c in gg.coordinates],
        }
        _write(_sidecar_path(dest), [_json_text(sidecar)])
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


def _labels(n: int, prefix: str = "") -> np.ndarray:
    """Object array of the vertex-id strings: ``labels[row]`` lists a slice row's members."""
    return np.array([prefix + str(u) for u in range(n)], dtype=object)


def _text_report(report, include_slices: bool) -> Iterator[str]:
    yield "\n".join([
        f"n: {report.n}",
        f"m: {report.m}",
        f"max_degree: {report.max_degree}",
        f"diameter: {report.diameter}",
        "boundary: " + " ".join(str(u) for u in report.boundary),
        "cejz_boundary: " + " ".join(str(u) for u in report.cejz_boundary),
    ]) + "\n"
    if include_slices:
        labels = _labels(report.n)
        for v, row in enumerate(slice_row_iter(report)):
            yield f"slice {v}: " + " ".join(labels[row].tolist()) + "\n"


def _json_report(report, include_slices: bool) -> Iterator[str]:
    """``_json_text(report_to_dict(report, include_slices))``, one slice row per chunk.

    The head is the dict without slices; each slice row is written the way
    ``json.dumps(..., indent=2)`` writes a list of ints at depth 2.
    """
    head = _json_text(report_to_dict(report))
    if not include_slices:
        yield head
        return
    yield head[:-3] + ',\n  "slices": {'  # reopen the head's closing "\n}\n"
    labels = _labels(report.n, " " * 6)
    for v, row in enumerate(slice_row_iter(report)):
        members = ",\n".join(labels[row].tolist())
        yield f'{"," if v else ""}\n    "{v}": ' + (f"[\n{members}\n    ]" if members else "[]")
    yield "\n  }\n}\n"


def cmd_boundary(args) -> int:
    g = _load_graph(args.input)
    report = boundary(g)
    if args.format == "json":
        chunks = _json_report(report, args.slices)
    elif args.format == "dot":
        chunks = [_dot_report(g, report, args.overlay_cejz)]
    else:
        chunks = _text_report(report, args.slices)
    _emit(chunks, args.out)
    return EXIT_OK


# --- verify ---

def _battery_args(args) -> tuple[tuple[str, ...], bool]:
    if args.checks == "all":
        return ALL_CHECKS, False
    names = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    if not names:
        raise _CliError(f"--checks {args.checks!r} names no check")
    bad = [c for c in names if c not in ALL_CHECKS]
    if bad:
        raise _CliError(f"unknown checks {bad}; known: {', '.join(ALL_CHECKS)}")
    twice = sorted({c for c in names if names.count(c) > 1})
    if twice:
        raise _CliError(f"--checks names {', '.join(twice)} more than once")
    return names, "prop4" in names


def cmd_verify(args) -> int:
    checks, prop4_required = _battery_args(args)
    enum = args.family == "enum"
    if enum and not 1 <= args.nmax <= ENUM_NMAX:
        raise _CliError(f"--nmax must be between 1 and {ENUM_NMAX}, got {args.nmax}")
    g, gg, label = (None, None, None) if enum else _family_or_input(args)
    if prop4_required and gg is None:  # enum graphs carry no coordinates
        raise _CliError("prop4 needs lattice coordinates (grid family or coordinate sidecar)")
    lines = []
    failures = 0
    if enum:
        sweep = enum_sweep(args.nmax, tuple(c for c in checks if c != "prop4"))
        lines.append(f"enum nmax={args.nmax} graphs={sweep.graphs}")
        for c, tally in sweep.failures.items():
            lines.append(f"check={c} graphs={sweep.graphs} failures={tally}")
            if c in sweep.first_failures:
                g, oc = sweep.first_failures[c]
                edges = ",".join(f"{u}-{w}" for u, w in g.edges())
                lines.append(f"check={c} first_failure n={g.n} m={g.m} edges={edges} "
                             f"detail={oc.detail}")
        failures = sum(sweep.failures.values())
    else:
        outcomes = run_battery(g, checks, gg=gg)
        lines.append(f"graph {label} n={g.n} m={g.m}")
        for oc in outcomes:
            lines.append(f"check={oc.check} pass={'true' if oc.passed else 'false'} {oc.detail}")
        failures = sum(1 for oc in outcomes if not oc.passed)
    lines.append(f"summary failures={failures}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# --- sweep ---

def cmd_sweep(args) -> int:
    sizes = _ints(args.sizes)
    if not sizes:
        raise _CliError(f"--sizes {args.sizes!r} names no size")
    if args.family not in _SWEEP_FAMILIES:
        raise _CliError(f"family {args.family!r} not sweepable")
    members = [{"grid": f"{n},{n}", "er": f"{n},{args.p}"}.get(args.family, str(n)) for n in sizes]
    for params in members:  # every size, before the first graph is built
        _check_size(args.family, params)
    rows = []
    for params in members:
        g, _ = _split(build_family(args.family, params, args.seed, None, None))
        try:
            rows.extend(sweep_rows(args.family, params, g, boundary(g)))
        except InvariantViolation:
            raise
        except GraphError as exc:
            raise _CliError(f"{args.family} {params}: {exc}") from exc
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows({**row, "pass": "true" if row["pass"] else "false"} for row in rows)
    _emit([buf.getvalue()], args.out)
    return EXIT_OK


# --- prop4 ---

def cmd_prop4(args) -> int:
    g, gg, _ = _family_or_input(args)
    if args.family == "cycle":
        pairs = classify_cycle(g, boundary(g), all_witnesses=args.all_witnesses)
        coords = [[u] for u in range(g.n)]
        dimension = 1
    elif gg is None:
        raise _CliError(f"family {args.family} carries no lattice coordinates" if args.family
                        else f"no coordinate sidecar found for {args.input}")
    else:
        pairs = classify_prop4(gg, boundary(g), all_witnesses=args.all_witnesses)
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
    _emit([_json_text(payload)], args.out)
    return EXIT_OK


# --- sector ---

def cmd_sector(args) -> int:
    try:
        payload = dataclasses.asdict(sector_check(args.r, args.alpha, alpha_max=args.alpha_max))
        if args.radial_step is not None:
            samples = [(1.0, 0.0), (0.6, 0.8), (-0.5, 0.5)]
            payload["radial_identity"] = {
                "step": args.radial_step,
                "sample_points": [list(p) for p in samples],
                "max_relative_deviation": radial_laplacian_identity_check(
                    2, samples, step=args.radial_step
                ),
            }
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _emit([_json_text(payload)], args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
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
    p.add_argument("--family", required=True, help="|".join(_SWEEP_FAMILIES))
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
                   help="reject wider openings (diameter formula needs diam = r, "
                        "so the cap never exceeds 1/6)")
    p.add_argument("--radial-step", type=float, default=None,
                   help="also report the finite-difference radial identity deviation")
    add_common(p)
    p.set_defaults(fn=cmd_sector)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "family", None) and getattr(args, "input", None):
            raise _CliError(f"--in and --family {args.family} are mutually exclusive")
        return args.fn(args)
    except InvariantViolation:
        raise  # a proven statement failed: a bug, never an input error
    except (_CliError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
