"""Shared named inputs and generated complexes for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import assume, strategies as st

from uberhom import complexes as cx, graphs

# The 6-vertex closed-surface triangulation with H_1 = Z/2 (every edge lies
# in exactly two triangles; found by exhaustive search, frozen here).
PROJECTIVE_PLANE_FACETS = (
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (0, 3, 5),
    (0, 4, 5),
    (1, 2, 5),
    (1, 3, 4),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
)


def capped_square_complex() -> cx.SimplicialComplex:
    """Cone over the 4-cycle: contractible, but its cover is not 1-Leray."""
    return cx.cone(cx.build_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


def glued_triangles() -> cx.SimplicialComplex:
    """Two triangles sharing an edge = suspension of the 1-simplex."""
    return cx.suspension(cx.standard_simplex(2))


def projective_plane() -> cx.SimplicialComplex:
    return cx.build_complex(6, PROJECTIVE_PLANE_FACETS)


def complex_corpus() -> list[tuple[str, cx.SimplicialComplex]]:
    """Connected non-simplex complexes, all small enough for every pipeline."""
    return [
        ("triangle-boundary", cx.boundary_of_simplex(3)),
        ("tetrahedron-boundary", cx.boundary_of_simplex(4)),
        ("4-sphere-boundary", cx.boundary_of_simplex(5)),
        ("cycle-4", cx.complex_from_graph(graphs.cycle_graph(4))),
        ("cycle-5", cx.complex_from_graph(graphs.cycle_graph(5))),
        ("cycle-6", cx.complex_from_graph(graphs.cycle_graph(6))),
        ("path-3", cx.complex_from_graph(graphs.path_graph(3))),
        ("path-4", cx.complex_from_graph(graphs.path_graph(4))),
        ("grid-3x2", cx.complex_from_graph(graphs.grid_graph(3, 2))),
        ("cone-of-square", capped_square_complex()),
        ("glued-triangles", glued_triangles()),
        ("projective-plane", projective_plane()),
        ("random-5-seed-3", cx.random_connected_complex(5, seed=3)),
        ("random-6-seed-1", cx.random_connected_complex(6, seed=1)),
    ]


def graph_corpus() -> list[tuple[str, graphs.Graph]]:
    return [
        ("path-4", graphs.path_graph(4)),
        ("cycle-4", graphs.cycle_graph(4)),
        ("cycle-5", graphs.cycle_graph(5)),
        ("cycle-6", graphs.cycle_graph(6)),
        ("complete-3", graphs.complete_graph(3)),
        ("complete-4", graphs.complete_graph(4)),
        ("wheel-4", graphs.one_skeleton(capped_square_complex())),
        ("grid-3x2", graphs.grid_graph(3, 2)),
        ("random-6-seed-3", graphs.random_connected_graph(6, 0.5, seed=3)),
        ("random-7-seed-4", graphs.random_connected_graph(7, 0.4, seed=4)),
    ]


# Each strategy draws its facets (or edges) first, over every vertex id below
# the maximum, and takes the vertex count from the largest id used: a vertex
# count drawn first sends many examples to the few complexes on up to three
# vertices, and under ``derandomize=True`` 40 examples then held as few as 10
# distinct inputs.


@st.composite
def connected_complexes(draw, max_vertices=7):
    """Up to five distinct facets of 2 to 4 vertices, joined by a spanning
    tree on the vertices up to the largest one used (at least three);
    never a standard simplex."""
    facet = st.frozensets(st.integers(0, max_vertices - 1), min_size=2, max_size=4)
    extra = draw(st.lists(facet, max_size=5, unique=True))
    m = max([3] + [max(f) + 1 for f in extra])
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, m)]
    X = cx.build_complex(m, tree + [tuple(f) for f in extra])
    assume(not X.is_standard_simplex())
    return X


@st.composite
def complexes(draw, max_vertices=6):
    """``build_complex`` of up to eight distinct facets of 2 to 4 vertices,
    on the vertices up to the largest one used: empty (no facet),
    disconnected (a vertex that no facet uses, or disjoint facets) and
    non-pure complexes occur."""
    facet = st.frozensets(st.integers(0, max_vertices - 1), min_size=2, max_size=4)
    facets = draw(st.lists(facet, max_size=8, unique=True))
    return cx.build_complex(max([0] + [max(f) + 1 for f in facets]), [tuple(f) for f in facets])


@st.composite
def connected_graphs(draw, max_vertices=9):
    """Up to 2 * max_vertices distinct edges, joined by a spanning tree on
    the vertices up to the largest one used (at least two)."""
    edge = st.frozensets(st.integers(0, max_vertices - 1), min_size=2, max_size=2)
    extra = draw(st.lists(edge, max_size=2 * max_vertices, unique=True))
    m = max([2] + [max(e) + 1 for e in extra])
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, m)]
    return graphs.Graph(m, tree + [tuple(e) for e in extra])


@pytest.fixture(params=complex_corpus(), ids=lambda item: item[0])
def corpus_complex(request):
    return request.param[1]


@pytest.fixture(params=graph_corpus(), ids=lambda item: item[0])
def corpus_graph(request):
    return request.param[1]
