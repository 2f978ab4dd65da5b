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


@st.composite
def connected_complexes(draw, max_vertices=7):
    """A spanning tree on 2 .. max_vertices vertices, plus a few facets of
    2 to 4 vertices; never a standard simplex."""
    m = draw(st.integers(2, max_vertices))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, m)]
    extra = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=2, max_size=4), max_size=5))
    X = cx.build_complex(m, tree + [tuple(f) for f in extra])
    assume(not X.is_standard_simplex())
    return X


@st.composite
def complexes(draw, max_vertices=6):
    """``build_complex(m, facets)`` on 0 .. max_vertices vertices from one
    to eight random facets of 3 or 4 vertices (all m when m < 3): empty,
    disconnected and non-pure complexes occur."""
    m = draw(st.integers(0, max_vertices))
    facet = st.sets(st.integers(0, m - 1), min_size=min(m, 3), max_size=4)
    facets = draw(st.lists(facet, min_size=1, max_size=8)) if m else []
    return cx.build_complex(m, [tuple(f) for f in facets])


@st.composite
def connected_graphs(draw, max_vertices=9):
    """A spanning tree on 2 .. max_vertices vertices, plus a few more edges."""
    m = draw(st.integers(2, max_vertices))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, m)]
    extra = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=2, max_size=2), max_size=2 * m))
    return graphs.Graph(m, tree + [tuple(e) for e in extra])


@pytest.fixture(params=complex_corpus(), ids=lambda item: item[0])
def corpus_complex(request):
    return request.param[1]


@pytest.fixture(params=graph_corpus(), ids=lambda item: item[0])
def corpus_graph(request):
    return request.param[1]
