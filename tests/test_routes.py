"""Every route held to its kind's reference, and the routes the benchmark's graphs take.

The agreement test reads what the per-graph pass of ``tests/exhaustive.py`` found
when it forced each route but the references on its domain there, so a route
added with no domain in the pass fails here.
"""

import pytest

from exhaustive import DOMAINS, forced_runs
from routes import CHOOSERS, REFERENCES, chosen, forced
from graphboundary import DomainSpec, is_connected, lattice_discretize
from graphboundary.generators import erdos_renyi, path, random_tree

ROUTES = [(kind, name) for kind, (_, _, names) in CHOOSERS.items() for name in names
          if name != REFERENCES[kind]]


@pytest.mark.parametrize("kind, name", ROUTES, ids=[f"{k}-{n}" for k, n in ROUTES])
def test_route_forced_on_its_n_up_to_6_domain_agrees_with_the_reference(kind, name):
    assert forced_runs()[kind, name] == [DOMAINS[kind, name][1], []]


def test_forced_rejects_a_name_outside_its_kind():
    for kind, name in (("walk", "dense"), ("walk", "bits"), ("distance", "product")):
        with pytest.raises(ValueError, match=f"'{name}' is not a {kind} route"):
            forced(kind, name)


def test_benchmark_graphs_take_their_routes():
    # the graphs that lowdiam-verify and highdiam-report run: a rule refit that moves one fails
    annulus = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.08)).graph
    gnp = erdos_renyi(400, 0.02, 12345)
    assert (annulus.n, annulus.m, gnp.m) == (404, 740, 1631) and is_connected(gnp)
    for g, routes in ((annulus, ("bits", "incidence")), (gnp, ("bits", "product")),
                      (path(600), ("tree", "incidence")),
                      (random_tree(600, 12345), ("tree", "incidence"))):
        assert (chosen("distance", g), chosen("walk", g)) == routes, g.n
