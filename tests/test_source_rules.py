"""Rules the package source keeps: typed errors, no dead imports, and one reader of the block size.

``python -O`` strips ``assert`` statements, so an invariant written as one
silently stops being checked. The package raises InvariantViolation (or
another GraphError) instead; this test keeps it that way. Every module
except ``__init__.py``, whose imports are the public re-exports, reads
every name it imports. Only ``core.py`` and ``boundary.py`` read
``core.ROW_BLOCK``; every other walk over a report's sources goes through
``BoundaryReport.row_blocks``. The ``boundary()`` kernel names none of
``reduceat``, ``unique``, ``argsort`` and ``searchsorted``: on its padded
layout each was measured slower, or raised the peak RSS of
``verify --checks all`` on G(400, 0.02) and an annulus lattice.
``layers.py`` and ``euclid.py`` never name the ``boundary()`` function:
their checks read the report they are handed and never build one.
``layers.py``, ``verify.py`` and ``euclid.py`` never name ``bfs_distances``
or ``distance_matrix``. No module but ``boundary.py`` reads the
``distances`` attribute of a ``BoundaryReport``: every check reads the
report's distance rows through ``BoundaryReport.row_blocks``. The ``_batch_*``
runners, whose reports are ``BatchReport``s, may read theirs. The
``_batch_*`` runners of ``verify.py`` never rebuild an array that
``BatchReport`` derives once per report (degrees, diameter, boundary).
``Graph(`` is called only inside ``core.validate``, the one constructor of
Graph, so every Graph passed its checks and carries its CSR. In
``verify.py`` only ``_incidence_laplacian`` names ``add.at``: both the
per-graph and the batch dichotomy decide their layers from the sign of
L f and keep no scatter tally of their own. No module but ``boundary.py``
names ``_sigma_pass``: the batch laplacian sums L f from the distances and
the adjacency itself, so it checks the slices against an independent sum,
not against the sigma they were read off.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "graphboundary").glob("*.py"))


def _assert_uses(tree: ast.AST) -> list[int]:
    """Lines holding an assert statement or the name AssertionError."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "AssertionError"
        or isinstance(node, ast.Attribute) and node.attr == "AssertionError"
    )


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by import statements that the module never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def _name_uses(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines naming one of ``names`` in code: bare, as an attribute, or imported."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    )


SLOW_IN_KERNEL = {"reduceat", "unique", "argsort", "searchsorted"}
DISTANCE_PASSES = {"bfs_distances", "distance_matrix"}


def _boundary_function_uses(tree: ast.AST) -> list[int]:
    """Lines naming boundary in code: bare, as graphboundary.boundary, or imported."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "boundary"
        or isinstance(node, ast.Attribute) and node.attr == "boundary"
        and isinstance(node.value, ast.Name) and node.value.id == "graphboundary"
        or isinstance(node, ast.alias) and node.name == "boundary"
    )


# (array, reduction) pairs that rebuild a BatchReport derived array: the degrees (and
# so m and Delta), the diameter, and with axis 1 the boundary
DERIVED = {("adjacency", "sum"), ("distances", "max"), ("slices", "any")}


def _axis(call: ast.Call):
    """The constant axis of a reduction call, by keyword or first argument, else None."""
    args = [k.value for k in call.keywords if k.arg == "axis"] + call.args[:1]
    return next((a.value for a in args if isinstance(a, ast.Constant)), None)


def _derived_array_rebuilds(tree: ast.AST) -> list[int]:
    """Lines in ``_batch_*`` functions calling ``adjacency.sum``, ``distances.max`` or
    ``slices.any(axis=1)``, on a name or an attribute."""
    lines = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_batch_")):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            array = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if (array, node.func.attr) in DERIVED and (array != "slices" or _axis(node) == 1):
                lines.append(node.lineno)
    return sorted(lines)


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "boundary.py", "cli.py", "core.py"}


def test_no_assert_in_package_sources():
    found = {p.name: _assert_uses(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_rule_sees_assert_and_assertion_error():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise builtins.AssertionError\n")
    assert _assert_uses(tree) == [1, 2, 3]


def test_no_unused_import_in_package_modules():
    found = {p.name: _unused_imports(ast.parse(p.read_text(), filename=str(p)))
             for p in SOURCES if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_rule_sees_unused_imports():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys\nimport x.y\nfrom . import core\n"
                     "from a import b as c, d\n"
                     "def f(v: d) -> None:\n    return sys.argv, x.y.z, core.K\n")
    assert _unused_imports(tree) == ["c", "os"]


def test_only_core_and_boundary_read_row_block():
    found = {p.name: _name_uses(ast.parse(p.read_text(), filename=str(p)), {"ROW_BLOCK"})
             for p in SOURCES}
    assert {name for name, lines in found.items() if lines} == {"core.py", "boundary.py"}


def test_rule_sees_row_block_reads():
    tree = ast.parse("# ROW_BLOCK in a comment\nfrom . import core\nb = core.ROW_BLOCK\n"
                     "ROW_BLOCK = 3\nfrom .core import ROW_BLOCK as rb\n"
                     "s = 'ROW_BLOCK'\nc = ROW_BLOCK\n")
    assert _name_uses(tree, {"ROW_BLOCK"}) == [3, 4, 5, 7]


def test_boundary_kernel_calls_no_slow_numpy_routine():
    src = next(p for p in SOURCES if p.name == "boundary.py")
    assert _name_uses(ast.parse(src.read_text(), filename=str(src)), SLOW_IN_KERNEL) == []


def test_rule_sees_slow_kernel_calls():
    tree = ast.parse("# np.unique in a comment\nimport numpy as np\nnp.add.reduceat(a, b)\n"
                     "k = a.argsort()\nfrom numpy import searchsorted as ss\n"
                     "s = 'unique'\nu = unique(a)\nlen(a)\n")
    assert _name_uses(tree, SLOW_IN_KERNEL) == [3, 4, 5, 7]


def test_checks_never_build_a_report():
    found = {p.name: _boundary_function_uses(ast.parse(p.read_text(), filename=str(p)))
             for p in SOURCES if p.name in ("layers.py", "euclid.py")}
    assert found == {"layers.py": [], "euclid.py": []}


def test_rule_sees_boundary_function_uses():
    tree = ast.parse("# boundary(g) in a comment\nfrom .boundary import BoundaryReport\n"
                     "from .boundary import boundary as b\nr = boundary(g)\n"
                     "s = 'boundary'\nx = report.boundary\nimport graphboundary\n"
                     "y = graphboundary.boundary(g)\nfrom . import boundary\n")
    assert _boundary_function_uses(tree) == [3, 4, 8, 9]


def test_checks_never_compute_distances():
    found = {p.name: _name_uses(ast.parse(p.read_text(), filename=str(p)), DISTANCE_PASSES)
             for p in SOURCES if p.name in ("layers.py", "verify.py", "euclid.py")}
    assert found == {"layers.py": [], "verify.py": [], "euclid.py": []}


def test_rule_sees_distance_pass_uses():
    tree = ast.parse("# bfs_distances(g, 0) in a comment\nfrom .core import distance_matrix\n"
                     "d = bfs_distances(g, 0)\ns = 'distance_matrix'\nx = report.distances\n"
                     "from . import core\ny = core.distance_matrix(g)\n"
                     "from .core import bfs_distances as bfs\n")
    assert _name_uses(tree, DISTANCE_PASSES) == [2, 3, 7, 8]


def _distance_reads(tree: ast.AST) -> list[int]:
    """Lines reading a ``distances`` attribute outside the ``_batch_*`` functions."""
    batch = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_batch_")
             for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "distances"
                  and id(node) not in batch)


def test_only_boundary_reads_report_distances():
    found = {p.name: _distance_reads(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES}
    assert {name for name, lines in found.items() if lines} == {"boundary.py"}


def test_rule_sees_distance_attribute_reads():
    tree = ast.parse("# report.distances in a comment\nd = report.distances\n"
                     "def _batch_x(r):\n    return r.distances.max()\n"
                     "def check(rep):\n    return rep.distances[0], 'distances'\n"
                     "distances = 3\nfor a, distances in pairs:\n    pass\n"
                     "x = getattr(rep, 'distances')\n")
    assert _distance_reads(tree) == [2, 6]


def test_batch_runners_read_derived_arrays_from_the_report():
    src = next(p for p in SOURCES if p.name == "verify.py")
    tree = ast.parse(src.read_text(), filename=str(src))
    assert any(isinstance(f, ast.FunctionDef) and f.name == "_batch_prop2" for f in ast.walk(tree))
    assert _derived_array_rebuilds(tree) == []


def test_rule_sees_derived_array_rebuilds():
    tree = ast.parse("def _batch_x(r):\n"
                     "    d = r.adjacency.sum(axis=2)\n"
                     "    b = r.slices.any(axis=1)\n"
                     "    c = r.slices.any(axis=2) | r.degrees.sum(axis=1)\n"
                     "    e = r.distances.max(axis=(1, 2))\n"
                     "    f = adjacency.sum(2) + r.slices.any(1)\n"
                     "    # r.adjacency.sum(axis=2) in a comment\n"
                     "    return r.boundary.sum(axis=1), r.distances.astype(int)\n"
                     "def helper(r):\n"
                     "    return r.adjacency.sum(axis=2)\n")
    assert _derived_array_rebuilds(tree) == [2, 3, 5, 6, 6]


def _owners(tree: ast.AST) -> dict[int, str]:
    """id of each node -> the name of its top-level function or class, "<module>" else."""
    return {id(node): getattr(top, "name", "<module>")
            for top in tree.body for node in ast.walk(top)}


def _graph_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing top-level function or class, else "<module>", line) of each call of
    Graph or x.Graph."""
    owner = _owners(tree)
    return sorted(
        (owner.get(id(node), "<module>"), node.lineno) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "Graph"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Graph")
    )


def test_graph_is_built_only_by_validate():
    found = {p.name: [fn for fn, _ in _graph_calls(ast.parse(p.read_text(), filename=str(p)))]
             for p in SOURCES}
    assert {name: fns for name, fns in found.items() if fns} == {"core.py": ["validate"]}


def test_rule_sees_graph_calls():
    tree = ast.parse("# Graph(n=1) in a comment\nfrom .core import Graph\n"
                     "g = Graph(1, (), 0)\ndef validate(e, n):\n    return Graph(n, e, 0)\n"
                     "class C:\n    def f(self):\n        return core.Graph(1, (), 0)\n"
                     "x = GridGraph(graph=g)\ns = 'Graph('\nh = isinstance(g, Graph)\n")
    assert _graph_calls(tree) == [("<module>", 3), ("C", 8), ("validate", 5)]


def _add_at_uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing top-level function or class, else "<module>", line) of each ``add.at``,
    called or not, on ``add`` or on any ``x.add``."""
    owner = _owners(tree)
    return sorted(
        (owner.get(id(node), "<module>"), node.lineno) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "at" and (
            isinstance(node.value, ast.Name) and node.value.id == "add"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "add")
    )


def test_only_the_incidence_laplacian_scatters_with_add_at():
    src = next(p for p in SOURCES if p.name == "verify.py")
    found = {fn for fn, _ in _add_at_uses(ast.parse(src.read_text(), filename=str(src)))}
    assert found == {"_incidence_laplacian"}


def test_rule_sees_add_at_uses():
    tree = ast.parse("# np.add.at(a, k, v) in a comment\nimport numpy as np\n"
                     "def f(a, k):\n    np.add.at(a, k, 1)\n    np.subtract.at(a, k, 1)\n"
                     "class C:\n    def g(self, a):\n        return numpy.add.at\n"
                     "s = 'np.add.at'\nfrom numpy import add\nadd.at(a, k, 1)\n"
                     "np.add.reduceat(a, k)\n")
    assert _add_at_uses(tree) == [("<module>", 11), ("C", 8), ("f", 4)]


def test_only_boundary_names_the_sigma_pass():
    found = {p.name: _name_uses(ast.parse(p.read_text(), filename=str(p)), {"_sigma_pass"})
             for p in SOURCES}
    assert {name for name, lines in found.items() if lines} == {"boundary.py"}


def test_rule_sees_sigma_pass_uses():
    tree = ast.parse("# _sigma_pass(a, d) in a comment\nfrom .boundary import _sigma_pass\n"
                     "def _sigma_pass(a, d):\n    return a\ns = '_sigma_pass'\n"
                     "x = boundary._sigma_pass(a, d)[2]\n"
                     "from graphboundary.boundary import _sigma_pass as sp\n"
                     "y = _sigma_pass\n")
    assert _name_uses(tree, {"_sigma_pass"}) == [2, 6, 7, 8]
