"""The one way tests force a route, through its chooser, and the ways they read one.

Each kind of route has one chooser that names it: ``core.distance_route`` for
``distance_matrix``, ``verify.walk_route`` for the battery's L f walk.
``forced(kind, name)`` patches only that chooser; ``chosen(kind, g)`` is the
name it gives g. The other routes of a kind are held to its ``REFERENCES``.
``bfs_sources`` shows which distance route ran: the "python" route runs one BFS
per source, the others the probe from vertex 0 alone; ``counted`` counts the
calls of a walk's L f helper, or of any other function.
"""

from unittest import mock

from graphboundary import core, verify

CHOOSERS = {"distance": (core, "distance_route", core.DISTANCE_ROUTES),
            "walk": (verify, "walk_route", verify.WALK_ROUTES)}
REFERENCES = {"distance": "python", "walk": "incidence"}


def forced(kind, name):
    """A patch that sends every graph down route ``name`` of ``kind``."""
    module, chooser, names = CHOOSERS[kind]
    if name not in names:
        raise ValueError(f"{name!r} is not a {kind} route: {names}")
    return mock.patch.object(module, chooser, lambda *args: name)


def chosen(kind, g):
    """The name of the route of ``kind`` that the connected g takes unforced."""
    return (core.distance_route(g, max(core.bfs_distances(g, 0))) if kind == "distance"
            else verify.walk_route(g))


def counted(module, name):
    """A patch of ``module.<name>`` that appends each call's arguments to the list it returns."""
    real, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args)
        return real(*args)

    return mock.patch.object(module, name, counting), calls


def bfs_sources(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, and the sources of the ``core.bfs_distances`` calls it made."""
    patch, calls = counted(core, "bfs_distances")
    with patch:
        return fn(*args, **kwargs), [source for _, source in calls]
