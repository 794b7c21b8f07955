"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every inequality asserted here is a theorem, so the target is always zero
violations over the stated corpus, within the stated runtime budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

from exhaustive import CHECKS, per_graph_pass
from graphboundary import (
    DomainSpec,
    boundary,
    classify_prop4,
    distance_matrix,
    erdos_renyi,
    grid,
    is_connected,
    lattice_discretize,
    radial_laplacian_identity_check,
    random_tree,
    sector_check,
    verify_witness,
)
from graphboundary.cli import main
from graphboundary.verify import run_battery

CORE_CHECKS = ("prop1", "prop3", "thm1", "thm2", "dichotomy", "mps", "laplacian")


def _stamp(num, ok, started, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {flag} ({time.perf_counter() - started:.1f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_grid_facts():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 5, 10, 20):
        gg = grid(n, n)
        rep = boundary(gg.graph)
        corners = {0, n - 1, n * (n - 1), n * n - 1}
        rim = {r * n + c for r in range(n) for c in range(n)
               if r in (0, n - 1) or c in (0, n - 1)}
        ok = ok and set(rep.cejz_boundary) == corners
        ok = ok and set(rep.boundary) == rim and len(rep.boundary) == 4 * n - 4
    ratio = (4 * 20 - 4) / (4 * math.sqrt(400))
    ok = ok and 0.8 <= ratio <= 1.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10
    _stamp(1, ok, t0, f"grids 3,5,10,20; |boundary|/(4*sqrt(|V|))={ratio:.3f}")


def test_criterion_2_exhaustive_small_graphs():
    t0 = time.perf_counter()
    columns = [CHECKS.index(c) for c in CORE_CHECKS]
    sizes = per_graph_pass().values()
    graphs = sum(len(rows.passed) for rows in sizes)
    failures = sum(int((~rows.passed[:, columns]).sum()) for rows in sizes)
    elapsed = time.perf_counter() - t0
    ok = graphs == 27476 and failures == 0 and elapsed < 300
    _stamp(2, ok, t0, f"graphs={graphs} checks={len(CORE_CHECKS)} violations={failures}")


def test_criterion_3_tree_characterization():
    t0 = time.perf_counter()
    bad = 0
    for i in range(200):
        n = 2 + (13 * i) % 59  # sizes 2..60, deterministic
        g = random_tree(n, seed=i)
        leaves = {u for u in range(n) if g.degree(u) == 1}
        if set(boundary(g).boundary) != leaves:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30
    _stamp(3, ok, t0, f"trees=200 mismatches={bad}")


def test_criterion_4_randomized_stress():
    t0 = time.perf_counter()
    sizes = (10, 20, 30, 40)
    probs = (0.1, 0.3, 0.7)
    collected = 0
    failures = 0
    seed = 0
    while collected < 100:
        n = sizes[seed % len(sizes)]
        p = probs[(seed // len(sizes)) % len(probs)]
        g = erdos_renyi(n, p, seed)
        seed += 1
        if not is_connected(g):
            continue
        collected += 1
        for oc in run_battery(g, CORE_CHECKS):
            if not oc.passed:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 120
    _stamp(4, ok, t0, f"graphs=100 (seeds up to {seed}) violations={failures}")


def test_criterion_5_geodesic_non_uniqueness():
    t0 = time.perf_counter()
    gg = lattice_discretize(DomainSpec.annulus(0.4, 1.0, 0.2))
    rep = boundary(gg.graph)
    full = {u for u in rep.boundary if gg.graph.degree(u) == 4}
    pairs = classify_prop4(gg, rep)
    dm = distance_matrix(gg.graph)
    witnessed = {u for u, _ in pairs}
    ok = witnessed == full and len(full) > 0
    ok = ok and all(verify_witness(w, dm[w.witness]) for _, w in pairs)
    for n in (3, 4, 5, 6, 10):
        gn = grid(n, n)
        ok = ok and classify_prop4(gn, boundary(gn.graph)) == []
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    _stamp(5, ok, t0, f"annulus full-degree boundary={len(full)}, all witnessed; solid grids empty")


def test_criterion_6_sector_and_radial_identity():
    t0 = time.perf_counter()
    ok = True
    for r, alpha in ((1.0, 0.01), (2.0, 0.05)):
        chk = sector_check(r, alpha)
        ok = ok and chk.ratio == 2.0 and chk.arc_length == 2.0 * chk.bound
    dev = radial_laplacian_identity_check(
        2, [(1.0, 0.0), (0.6, 0.8), (-0.7, 0.3)], step=1e-3
    )
    dev3 = radial_laplacian_identity_check(3, [(1.0, 1.0, 1.0)], step=1e-3)
    ok = ok and dev < 1e-5 and dev3 < 1e-5
    _stamp(6, ok, t0, f"ratio=2 exactly; radial deviation={max(dev, dev3):.2e}")


def test_criterion_7_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    specs = [
        ("gen", "--family", "grid", "--params", "12,12"),
        ("gen", "--family", "er", "--params", "30,0.3", "--seed", "7"),
        ("gen", "--family", "tree", "--params", "40", "--seed", "3"),
        ("gen", "--family", "annulus", "--params", "0.4,1.0", "--lam", "0.2"),
    ]
    for k, argv in enumerate(specs):
        outs = []
        for rep in range(2):
            out = tmp_path / f"g{k}_{rep}.el"
            ok = ok and main([*argv, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    el = tmp_path / "grid.el"
    main(["gen", "--family", "grid", "--params", "9,9", "--out", str(el)])
    reports = []
    for rep, threads in enumerate((1, 2, 4)):
        out = tmp_path / f"verify_{rep}.txt"
        code = main(["verify", "--in", str(el), "--threads", str(threads),
                     "--out", str(out)])
        ok = ok and code == 0
        reports.append(out.read_bytes())
    ok = ok and reports[0] == reports[1] == reports[2]
    _stamp(7, ok, t0, "seeded gen and verify byte-identical across reruns and thread counts")
