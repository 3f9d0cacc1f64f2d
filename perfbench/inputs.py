"""Seeded instance files and the benchmark's own reference arithmetic.

Nothing here imports ``ohmatrix``: the inputs must not shift when the
library's generator changes, and the reference answers must not come from
the code they check.
"""

from __future__ import annotations

import json
import random


def balanced_instance(seed: int, n_vertices: int, n_edges: int, max_edge_size: int) -> dict:
    """A simple random instance document with balanced sizes and degrees.

    Edge sizes take each value in 1..max_edge_size equally often, in
    shuffled order, and every vertex has degree floor or ceil of |I|/|V|.
    Only the wiring and the signs depend on ``seed``. With free degrees
    the walk count at n=10 varies by 14% (interquartile) across seeds;
    with balanced degrees by 3%, so seeds compare like for like.
    """
    if max_edge_size > n_vertices:
        raise ValueError("a simple instance needs max_edge_size <= n_vertices")
    rng = random.Random(seed)
    sizes = [1 + j % max_edge_size for j in range(n_edges)]
    rng.shuffle(sizes)
    vertices = [f"v{i}" for i in range(1, n_vertices + 1)]
    edges = [f"e{j}" for j in range(1, n_edges + 1)]
    total = sum(sizes)
    while True:
        slots = [vertices[i % n_vertices] for i in range(total)]
        rng.shuffle(slots)
        members = _fill_edges(slots, sizes)
        if members is not None:
            break
    incidences = [
        {"v": v, "e": e, "k": 1, "sign": rng.choice((1, -1))}
        for e, group in zip(edges, members)
        for v in group
    ]
    return {"format_version": 1, "vertices": vertices, "edges": edges, "incidences": incidences}


def _fill_edges(slots: list[str], sizes: list[int]) -> list[list[str]] | None:
    """Deal the vertex slots into edges, no vertex twice in one edge.

    Returns None when the last slots cannot be dealt without a repeat.
    """
    pos = 0
    members = []
    for size in sizes:
        group: list[str] = []
        for _ in range(size):
            i = pos
            while i < len(slots) and slots[i] in group:
                i += 1
            if i == len(slots):
                return None
            slots[pos], slots[i] = slots[i], slots[pos]
            group.append(slots[pos])
            pos += 1
        members.append(group)
    return members


def write_instance(doc: dict, path) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def adjacency_rows(doc: dict) -> list[dict[int, int]]:
    """Sparse rows of A: each ordered pair of distinct incidences in an edge
    adds -sign(first) * sign(second) at its vertex pair."""
    index = {v: i for i, v in enumerate(doc["vertices"])}
    by_edge: dict[str, list[tuple[int, int]]] = {}
    for rec in doc["incidences"]:
        by_edge.setdefault(rec["e"], []).append((index[rec["v"]], rec["sign"]))
    rows: list[dict[int, int]] = [{} for _ in doc["vertices"]]
    for incs in by_edge.values():
        for a, (v, sv) in enumerate(incs):
            for b, (w, sw) in enumerate(incs):
                if a != b:
                    rows[v][w] = rows[v].get(w, 0) - sv * sw
    return [{j: x for j, x in row.items() if x} for row in rows]


def adjacency_power(doc: dict, k: int) -> list[list[int]]:
    """Dense A^k over plain integers, by k sparse row products."""
    a = adjacency_rows(doc)
    n = len(a)
    power = [{i: 1} for i in range(n)]
    for _ in range(k):
        nxt = []
        for row in power:
            acc: dict[int, int] = {}
            for j, x in row.items():
                for m, y in a[j].items():
                    acc[m] = acc.get(m, 0) + x * y
            nxt.append({m: x for m, x in acc.items() if x})
        power = nxt
    return [[row.get(j, 0) for j in range(n)] for row in power]


def instance_properties(doc: dict) -> dict:
    """The input sizes that set the cost of the walk and matrix code."""
    degree: dict[str, int] = {}
    for rec in doc["incidences"]:
        degree[rec["v"]] = degree.get(rec["v"], 0) + 1
    n = len(doc["vertices"])
    nonzero = sum(len(row) for row in adjacency_rows(doc))
    return {
        "vertices": n,
        "edges": len(doc["edges"]),
        "incidences": len(doc["incidences"]),
        "max_degree": max(degree.values(), default=0),
        "adjacency_nonzero_share": nonzero / (n * n) if n else 0.0,
    }
