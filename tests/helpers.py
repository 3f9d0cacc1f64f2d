"""Hand-built fixture instances and hypothesis strategies shared by the suite."""

from hypothesis import example
from hypothesis import strategies as st

from ohmatrix import Incidence, OrientedHypergraph, random_instance


def two_vertex_edge() -> OrientedHypergraph:
    """One edge joining two vertices, both incidences positive."""
    return OrientedHypergraph(
        ("v1", "v2"),
        ("e1",),
        (Incidence("v1", "e1", 1, 1), Incidence("v2", "e1", 1, 1)),
    )


def uniform3_edge() -> OrientedHypergraph:
    """One edge of size three, all incidences positive."""
    return OrientedHypergraph(
        ("v1", "v2", "v3"),
        ("e1",),
        (
            Incidence("v1", "e1", 1, 1),
            Incidence("v2", "e1", 1, 1),
            Incidence("v3", "e1", 1, 1),
        ),
    )


def double_incidence() -> OrientedHypergraph:
    """One vertex meeting one edge twice, with opposite signs."""
    return OrientedHypergraph(
        ("v1",),
        ("e1",),
        (Incidence("v1", "e1", 1, 1), Incidence("v1", "e1", 2, -1)),
    )


def path3() -> OrientedHypergraph:
    """Two-edge path with orientation +1 into v1 and v2, -1 out of v2 and v3."""
    return OrientedHypergraph(
        ("v1", "v2", "v3"),
        ("e1", "e2"),
        (
            Incidence("v1", "e1", 1, 1),
            Incidence("v2", "e1", 1, -1),
            Incidence("v2", "e2", 1, 1),
            Incidence("v3", "e2", 1, -1),
        ),
    )


# The instances without incidences, which instances() never draws: every
# test over it takes them as explicit examples through with_edge_cases.
EMPTY = OrientedHypergraph((), (), ())
EDGELESS = OrientedHypergraph(("v1", "v2", "v3"), (), ())


def with_edge_cases(*rest):
    """Add the empty and the edgeless instance as ``@example``s of a test
    over ``instances()``, each followed by the other arguments ``rest``."""
    def add(test):
        return example(EMPTY, *rest)(example(EDGELESS, *rest)(test))
    return add


@st.composite
def instances(draw, max_vertices=6, max_edges=5, max_edge_size=3, simple=None, min_vertices=1):
    """Valid random instances with at least one incidence, driven by the
    deterministic generator."""
    nv = draw(st.integers(min_vertices, max_vertices))
    ne = draw(st.integers(1, max_edges))
    seed = draw(st.integers(0, 2**48))
    simple_flag = draw(st.booleans()) if simple is None else simple
    if simple_flag:
        mes = draw(st.integers(1, min(max_edge_size, nv)))
        return random_instance(seed, nv, ne, mes, simple=True)
    mes = draw(st.integers(1, max_edge_size))
    rate = draw(st.sampled_from((0.0, 0.3, 0.7)))
    return random_instance(seed, nv, ne, mes, simple=False, non_simple_rate=rate)
