"""End-to-end acceptance checks at fixed seeds and bounds.

Each test covers one criterion and prints one PASS/FAIL line (visible with
pytest -s or in the captured output of a failing test).  All comparisons
are exact integer equality; the walk enumerator is the independent oracle
throughout.
"""

import random
import time
from contextlib import contextmanager

from ohmatrix import (
    Incidence,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    SwitchingFunction,
    adjacency_matrix,
    backstep_count,
    degree_matrix,
    dual_laplacian,
    enumerate_walks,
    from_hypergraph,
    incidence_dual,
    incidence_matrix,
    is_k_uniform,
    is_simple,
    laplacian,
    line_graph,
    oracle_walk_matrix,
    random_bidirected_instance,
    random_instance,
    serialize_instance,
    switch,
    switching_matrix,
    to_hypergraph,
    walk_counts,
    walk_matrix,
    walk_sign,
)

from helpers import double_incidence, path3, two_vertex_edge, uniform3_edge

FAMILY_SEED = 20250811


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {number} {name}: PASS")


def simple_family(master, count, max_vertices=8, max_edges=8, max_edge_size=4):
    for _ in range(count):
        nv = master.randint(1, max_vertices)
        ne = master.randint(0, max_edges)
        mes = master.randint(1, min(max_edge_size, nv))
        yield random_instance(master.getrandbits(64), nv, ne, mes, simple=True)


def mixed_family(master, count, non_simple_share=0.3):
    """Instances within the standard caps, ~30% with repeated incidences."""
    for _ in range(count):
        nv = master.randint(1, 8)
        ne = master.randint(0, 8)
        if master.random() < non_simple_share:
            yield random_instance(
                master.getrandbits(64), nv, ne, master.randint(1, 4),
                simple=False, non_simple_rate=0.4,
            )
        else:
            mes = master.randint(1, min(4, nv))
            yield random_instance(master.getrandbits(64), nv, ne, mes, simple=True)


def test_criterion_1_walk_count_oracle():
    with criterion(1, "adjacency powers equal brute-force signed walk counts"):
        started = time.monotonic()
        master = random.Random(FAMILY_SEED + 1)
        for g in simple_family(master, 100):
            a = adjacency_matrix(g)
            for k in range(5):
                oracle = oracle_walk_matrix(g, "V", "V", 2 * k)
                assert a.power(k) == oracle == walk_matrix(g, "V", "V", 2 * k), (
                    f"A^{k} disagrees with the walk oracle on:\n{serialize_instance(g)}"
                )
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_laplacian_identities():
    with criterion(2, "Laplacian identities"):
        master = random.Random(FAMILY_SEED + 2)
        saw_non_simple = 0
        for g in mixed_family(master, 100):
            h = incidence_matrix(g)
            d = degree_matrix(g)
            a = adjacency_matrix(g)
            lap = laplacian(g)
            assert lap == d - a
            assert lap == h @ h.transpose(), serialize_instance(g)
            assert dual_laplacian(g) == h.transpose() @ h, serialize_instance(g)
            if is_simple(g):
                assert walk_matrix(g, "V", "V", 2, weak=True) == -lap, serialize_instance(g)
                for i, vi in enumerate(g.vertices):
                    for j, vj in enumerate(g.vertices):
                        weak_total = walk_counts(g, vi, vj, 2, weak=True).total
                        plus = walk_counts(g, vi, vj, 2).positive
                        assert lap.entries[i][j] == weak_total - 2 * plus
            else:
                saw_non_simple += 1
        assert saw_non_simple >= 15


def test_criterion_3_duality():
    with criterion(3, "incidence duality and walk-matrix duality relationships"):
        master = random.Random(FAMILY_SEED + 3)
        for g in mixed_family(master, 100):
            gd = incidence_dual(g)
            assert incidence_dual(gd) == g
            assert incidence_matrix(gd) == incidence_matrix(g).transpose()
            for n in (0, 2, 4):
                assert walk_matrix(g, "V", "V", n) == walk_matrix(gd, "E", "E", n)
                assert walk_matrix(g, "E", "E", n) == walk_matrix(gd, "V", "V", n)
            for n in (1, 3):
                ve = walk_matrix(g, "V", "E", n)
                ev = walk_matrix(g, "E", "V", n)
                assert ev == walk_matrix(gd, "V", "E", n)
                assert ve.transpose() == ev, (
                    f"cross-walk transpose duality fails at {n} incidences: a walk "
                    "may leave a vertex along its arrival incidence but not an "
                    "edge, so vertex-to-edge and edge-to-vertex counts differ "
                    "(see the walk-semantics note in the README).\n"
                    f"vertex-to-edge matrix: {ve.entries}\n"
                    f"edge-to-vertex matrix: {ev.entries}\n"
                    f"instance:\n{serialize_instance(g)}"
                )


def test_criterion_4_half_walk_identities():
    with criterion(4, "half-step walk matrices build H and L"):
        master = random.Random(FAMILY_SEED + 4)
        for g in mixed_family(master, 100):
            half = walk_matrix(g, "V", "E", 1)
            assert half == incidence_matrix(g), serialize_instance(g)
            assert half @ walk_matrix(g, "E", "V", 1) == laplacian(g), serialize_instance(g)


def test_criterion_5_uniform_identity():
    with criterion(5, "uniform instances satisfy H^T H = kI - A of the dual"):
        master = random.Random(FAMILY_SEED + 5)
        for k in (2, 3, 4):
            for _ in range(20):
                nv = master.randint(k, 8)
                ne = master.randint(1, 8)
                g = random_instance(
                    master.getrandbits(64), nv, ne, k, simple=True, min_edge_size=k
                )
                assert is_k_uniform(g, k)
                h = incidence_matrix(g)
                ki = LabeledIntegerMatrix.diagonal(g.edges, [k] * len(g.edges))
                assert h.transpose() @ h == ki - adjacency_matrix(incidence_dual(g)), (
                    serialize_instance(g)
                )


def test_criterion_6_switching_conjugation():
    with criterion(6, "switching acts by diagonal conjugation"):
        master = random.Random(FAMILY_SEED + 6)
        for g in mixed_family(master, 50):
            h = incidence_matrix(g)
            a = adjacency_matrix(g)
            lap = laplacian(g)
            for _ in range(20):
                theta = SwitchingFunction(
                    {v: master.choice((1, -1)) for v in g.vertices}
                )
                dt = switching_matrix(theta, g.vertices)
                gs = switch(g, theta)
                assert adjacency_matrix(gs) == dt.transpose() @ a @ dt
                assert incidence_matrix(gs) == dt @ h
                assert laplacian(gs) == dt.transpose() @ lap @ dt


def test_criterion_7_line_graph_adjacency():
    with criterion(7, "line graph adjacency equals dual adjacency"):
        master = random.Random(FAMILY_SEED + 7)
        for _ in range(100):
            nv = master.randint(2, 8)
            ne = master.randint(0, min(8, nv * (nv - 1) // 2))
            g = random_bidirected_instance(master.getrandbits(64), nv, ne)
            s = from_hypergraph(g)
            lam = line_graph(s)
            a_line = adjacency_matrix(to_hypergraph(lam))
            assert a_line == adjacency_matrix(incidence_dual(g)), serialize_instance(g)
            h = incidence_matrix(g)
            two_i = LabeledIntegerMatrix.diagonal(g.edges, [2] * len(g.edges))
            assert h.transpose() @ h == two_i - a_line, serialize_instance(g)


def resign(g, rng):
    return OrientedHypergraph(
        g.vertices,
        g.edges,
        tuple(
            Incidence(i.vertex, i.edge, i.mult_index, rng.choice((1, -1)))
            for i in g.incidences
        ),
    )


def test_criterion_8_backsteps():
    with criterion(8, "backsteps are negative and count the degree"):
        master = random.Random(FAMILY_SEED + 8)
        bases = list(mixed_family(master, 100, non_simple_share=0.4))
        assignments = 0
        for g in bases:
            for _ in range(10):
                gs = resign(g, master)
                assignments += 1
                for v in gs.vertices:
                    backsteps = [
                        w for w in enumerate_walks(gs, v, v, 2, weak=True) if w.is_backstep
                    ]
                    assert len(backsteps) == gs.degree(v)
                    assert backstep_count(gs, v) == gs.degree(v)
                    assert all(walk_sign(gs, w) == -1 for w in backsteps)
        assert assignments == 1000


def test_criterion_9_golden_instances():
    with criterion(9, "hand-derived matrices match library output"):
        g = two_vertex_edge()
        assert incidence_matrix(g).entries == ((1,), (1,))
        assert adjacency_matrix(g).entries == ((0, -1), (-1, 0))
        assert degree_matrix(g).entries == ((1, 0), (0, 1))
        assert laplacian(g).entries == ((1, 1), (1, 1))
        assert dual_laplacian(g).entries == ((2,),)
        assert walk_matrix(g, "V", "V", 2, weak=True).entries == ((-1, -1), (-1, -1))

        g = uniform3_edge()
        assert incidence_matrix(g).entries == ((1,), (1,), (1,))
        assert adjacency_matrix(g).entries == ((0, -1, -1), (-1, 0, -1), (-1, -1, 0))
        assert laplacian(g).entries == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
        assert dual_laplacian(g).entries == ((3,),)
        assert adjacency_matrix(incidence_dual(g)).entries == ((0,),)

        g = double_incidence()
        assert incidence_matrix(g).entries == ((0,),)
        assert adjacency_matrix(g).entries == ((2,),)
        assert degree_matrix(g).entries == ((2,),)
        assert laplacian(g).entries == ((0,),)
        assert walk_counts(g, "v1", "v1", 2, weak=True).total == 4
        assert walk_counts(g, "v1", "v1", 2, weak=True).signed_net == 0

        g = path3()
        assert incidence_matrix(g).entries == ((1, 0), (-1, 1), (0, -1))
        assert adjacency_matrix(g).entries == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
        assert degree_matrix(g).entries == ((1, 0, 0), (0, 2, 0), (0, 0, 1))
        assert laplacian(g).entries == ((1, -1, 0), (-1, 2, -1), (0, -1, 1))
        assert dual_laplacian(g).entries == ((2, -1), (-1, 2))
        s = from_hypergraph(g)
        assert s.signature == {"e1": 1, "e2": 1}
        lam = line_graph(s)
        assert lam.signature[lam.edges[0]] == 1
        assert adjacency_matrix(to_hypergraph(lam)).entries == ((0, 1), (1, 0))

        # every golden matrix re-derives through the walk oracle, and
        # through the closed form
        for g in (two_vertex_edge(), uniform3_edge(), double_incidence(), path3()):
            assert oracle_walk_matrix(g, "V", "E", 1) == incidence_matrix(g)
            assert walk_matrix(g, "V", "E", 1) == incidence_matrix(g)
            assert oracle_walk_matrix(g, "V", "V", 2) == adjacency_matrix(g)
            assert walk_matrix(g, "V", "V", 2) == adjacency_matrix(g)
            assert oracle_walk_matrix(g, "V", "V", 2, weak=True) == -laplacian(g)
            assert walk_matrix(g, "V", "V", 2, weak=True) == -laplacian(g)
            assert oracle_walk_matrix(g, "E", "E", 2) == adjacency_matrix(incidence_dual(g))
            assert all(backstep_count(g, v) == g.degree(v) for v in g.vertices)
