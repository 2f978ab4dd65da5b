"""Simplicial complexes: constructions, covers, nerves, Leray tests."""

from __future__ import annotations

import itertools
import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import complexes, connected_graphs
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom.errors import MAX_SIMPLICES, SizeGuardExceeded, StandardSimplexError, check_simplex_guard


def _betti(X, ring=al.QQ, reduced=False):
    cc = al.simplicial_chain_complex(X, ring, reduced=reduced)
    return {n: d for n, d in al.betti_numbers(cc).items() if d}


# --------------------------------------------------------------------------
# construction and validation


def test_build_complex_closes_under_faces():
    X = cx.build_complex(3, [(0, 1, 2)])
    for k in range(1, 4):
        for face in itertools.combinations((0, 1, 2), k):
            assert X.contains(face)
    assert X.f_vector() == (3, 3, 1)
    assert sorted(X.all_simplices()) == sorted(
        itertools.chain.from_iterable(
            itertools.combinations((0, 1, 2), k) for k in range(1, 4)
        )
    )


def test_build_complex_deduplicates_and_absorbs_faces():
    X = cx.build_complex(3, [(0, 1, 2), (2, 1, 0), (0, 1), (2,)])
    assert X.facets() == ((0, 1, 2),)


def test_build_complex_rejects_bad_input():
    with pytest.raises(ValueError):
        cx.build_complex(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        cx.build_complex(2, [(-1, 0)])
    with pytest.raises(ValueError):
        cx.build_complex(2, [(0, 0, 1)])


def test_json_round_trip(corpus_complex):
    X = corpus_complex
    assert cx.complex_from_json(cx.complex_to_json(X)) == X


def test_json_labels_must_be_an_array():
    # a string is a sequence too, but not of labels
    doc = {"vertex_count": 2, "facets": [[0, 1]], "labels": "ab"}
    with pytest.raises(ValueError, match="'labels' must be a JSON array"):
        cx.complex_from_json(json.dumps(doc))


def test_json_round_trip_keeps_labels():
    doc = {"vertex_count": 3, "facets": [[0, 1], [1, 2]], "labels": ["a", "b", 7]}
    X = cx.complex_from_json(json.dumps(doc))
    assert X.labels == ("a", "b", "7")
    Y = cx.complex_from_json(cx.complex_to_json(X))
    assert Y == X and Y.labels == X.labels
    assert "labels" not in json.loads(cx.complex_to_json(cx.boundary_of_simplex(3)))


# one 30-vertex facet closes to 2^30 - 1 faces; 10^9 vertices to 10^9 singletons
OVERSIZED_COMPLEX_DOCUMENTS = (
    {"vertex_count": 30, "facets": [list(range(30))]},
    {"vertex_count": 10**9, "facets": []},
)


@pytest.mark.parametrize("doc", OVERSIZED_COMPLEX_DOCUMENTS, ids=["big-facet", "many-vertices"])
def test_json_complex_is_guarded_before_its_closure_is_built(monkeypatch, doc):
    def refuse(*args):
        raise AssertionError("the closure was enumerated")

    monkeypatch.setattr(cx, "build_complex", refuse)
    with pytest.raises(SizeGuardExceeded, match="simplices exceeds the guard"):
        cx.complex_from_json(json.dumps(doc))


def test_simplex_guard_allows_exactly_its_limit():
    check_simplex_guard(MAX_SIMPLICES)
    with pytest.raises(SizeGuardExceeded):
        check_simplex_guard(MAX_SIMPLICES + 1)


@given(st.integers(3, 6), st.integers(0, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_homology_is_invariant_under_relabelling(m, seed, data):
    X = cx.random_connected_complex(m, seed)
    perm = data.draw(st.permutations(range(X.vertex_count)))
    relabeled = cx.build_complex(
        X.vertex_count, [tuple(perm[v] for v in f) for f in X.facets()]
    )
    for ring in (al.QQ, al.GF2):
        assert _betti(X, ring) == _betti(relabeled, ring)


def test_random_connected_complex_is_deterministic_and_connected():
    for m, seed in ((4, 0), (5, 7), (6, 3), (7, 11)):
        X = cx.random_connected_complex(m, seed)
        assert X == cx.random_connected_complex(m, seed)
        assert X.is_connected
        assert X.vertex_count == m


def test_random_connected_complex_refuses_two_vertices_without_drawing(monkeypatch):
    # on two vertices the only connected complex is the edge, a simplex
    X = cx.random_connected_complex(3, 1)
    assert X.is_connected and not X.is_standard_simplex()

    def no_draw(*args):
        raise AssertionError("a complex was drawn")

    monkeypatch.setattr(cx, "build_complex", no_draw)
    with pytest.raises(ValueError, match="three vertices"):
        cx.random_connected_complex(2, 1)


def test_euler_characteristic_matches_oracle(corpus_complex):
    assert cx.euler_characteristic(corpus_complex) == oracles.euler_characteristic_oracle(
        corpus_complex
    )


# --------------------------------------------------------------------------
# cones, suspensions, skeleta, flag complexes


def test_cone_is_contractible(corpus_complex):
    C = cx.cone(corpus_complex)
    for ring in (al.QQ, al.GF2):
        assert _betti(C, ring, reduced=True) == {}


def test_cone_and_suspension_of_empty_complex():
    pt = cx.cone(cx.EMPTY_COMPLEX)
    assert pt.f_vector() == (1,)
    two_points = cx.suspension(cx.EMPTY_COMPLEX)
    assert two_points.f_vector() == (2,)
    assert _betti(two_points, al.QQ) == {0: 2}


def test_suspension_shifts_reduced_homology(corpus_complex):
    X = corpus_complex
    S = cx.suspension(X)
    for ring in (al.QQ, al.GF2):
        base = _betti(X, ring, reduced=True)
        shifted = {n + 1: d for n, d in base.items()}
        assert _betti(S, ring, reduced=True) == shifted


def test_suspension_of_circle_is_a_sphere():
    S = cx.suspension(cx.boundary_of_simplex(3))
    assert _betti(S, al.QQ) == {0: 1, 2: 1}


def test_skeleton_of_simplex():
    one_skel = cx.skeleton(cx.standard_simplex(4), 1)
    assert sorted(one_skel.facets()) == sorted(itertools.combinations(range(4), 2))
    # the 1-skeleton of a 3-simplex is the complete graph: one loop per
    # independent cycle, 6 - 4 + 1 = 3
    assert _betti(one_skel, al.QQ) == {0: 1, 1: 3}


def test_skeleton_embeds_identically_into_a_complex_that_carries_ids():
    X = cx.induced_subcomplex(cx.complex_from_graph(gr.cycle_graph(7)), [1, 2, 3, 4, 5])
    one_skel = cx.skeleton(X, 1)
    assert one_skel.original_ids == tuple(range(X.vertex_count))
    cover = cx.Cover(X, (one_skel,))
    assert cover.element_simplices(0) == X.simplex_set()


def test_flag_complex_of_complete_graph_is_a_simplex():
    assert cx.flag_complex(gr.complete_graph(4)) == cx.standard_simplex(4)
    assert cx.flag_complex(gr.cycle_graph(5)) == cx.complex_from_graph(gr.cycle_graph(5))


def test_flag_complex_fills_triangles():
    g = gr.Graph(3, ((0, 1), (1, 2), (0, 2)))
    assert cx.flag_complex(g).facets() == ((0, 1, 2),)


@given(g=connected_graphs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_flag_complex_is_the_clique_list_of_networkx(g):
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(range(g.vertex_count))
    cliques = sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(G))
    assert sorted(cx.flag_complex(g).all_simplices()) == cliques


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_connected_components_are_those_of_networkx(X):
    G = nx.Graph(list(X.simplices_of_dim(1)))
    G.add_nodes_from(range(X.vertex_count))
    components = sorted(sorted(c) for c in nx.connected_components(G))
    assert X.connected_components() == components
    assert X.is_connected == (len(components) == 1)


def test_is_connected_builds_no_graph(monkeypatch):
    # the adjacency bitsets are read off the edges; random_connected_complex
    # asks once per draw
    X = cx.random_connected_complex(12, 1)

    def refuse(*args):
        raise AssertionError("Graph built")

    monkeypatch.setattr(gr.Graph, "__init__", refuse)
    assert X.is_connected
    assert not cx.build_complex(3, [(0, 1)]).is_connected
    assert not cx.EMPTY_COMPLEX.is_connected


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_facets_are_the_maximal_simplices(X):
    simplices = list(X.all_simplices())
    assert X.facets() == tuple(s for s in simplices if not any(set(s) < set(t) for t in simplices))


def _in_ambient_ids(Y):
    """The simplices of a renumbered subcomplex, in the ambient's vertex ids."""
    return {tuple(Y.original_ids[v] for v in s) for s in Y.all_simplices()}


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_closed_stars_and_links_meet_their_definitions(X):
    # every nonempty vertex subset t, tested against the definitions
    m = X.vertex_count
    simplices = X.simplex_set()
    subsets = [t for k in range(1, m + 1) for t in itertools.combinations(range(m), k)]
    for v in range(m):
        star = {t for t in subsets if any(v in s and set(t) <= set(s) for s in simplices)}
        assert _in_ambient_ids(cx.closed_star(X, v)) == star
    for s in [(), *simplices]:
        link = {t for t in subsets if not set(t) & set(s) and tuple(sorted(t + s)) in simplices}
        L = cx.link(X, s)
        assert _in_ambient_ids(L) == link
        assert (L.original_ids or ()) == tuple(sorted({v for t in link for v in t}))


# --------------------------------------------------------------------------
# stars, links, anti-stars


def test_closed_star_is_contractible(corpus_complex):
    X = corpus_complex
    for v in range(min(X.vertex_count, 4)):
        st_v = cx.closed_star(X, v)
        assert _betti(st_v, al.QQ, reduced=True) == {}


def test_link_of_vertex_in_circle():
    L = cx.link(cx.boundary_of_simplex(3), (0,))
    assert L.vertex_count == 2 and L.max_dim == 0
    assert L.original_ids == (1, 2)


def test_link_of_edge_in_two_sphere():
    L = cx.link(cx.boundary_of_simplex(4), (0, 1))
    assert L.vertex_count == 2 and L.max_dim == 0


def test_link_of_missing_simplex_is_refused():
    with pytest.raises(ValueError):
        cx.link(cx.complex_from_graph(gr.path_graph(3)), (0, 2))


def test_anti_star_drops_exactly_the_star():
    X = cx.boundary_of_simplex(4)
    A = cx.anti_star(X, 0)
    assert A.original_ids == (1, 2, 3)
    ambient_facets = {tuple(A.original_ids[i] for i in f) for f in A.facets()}
    assert ambient_facets == {(1, 2, 3)}
    # removing one vertex's star from a sphere leaves a disc
    assert _betti(A, al.QQ, reduced=True) == {}
    with pytest.raises(ValueError):
        cx.anti_star(X, 99)


# --------------------------------------------------------------------------
# covers and nerves


def test_anti_star_cover_of_simplex_is_refused():
    with pytest.raises(StandardSimplexError):
        cx.anti_star_cover(cx.standard_simplex(3))


def test_anti_star_cover_has_one_element_per_vertex(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex():
        pytest.skip("anti-star cover undefined on a simplex")
    cov = cx.anti_star_cover(X)
    assert len(cov.elements) == X.vertex_count
    assert cov.ambient == X
    # element v holds exactly the simplices avoiding v, and every simplex
    # avoids some vertex, so the elements genuinely cover X
    for s in X.all_simplices():
        holders = {v for v in range(X.vertex_count) if s in cov.element_simplices(v)}
        assert holders == set(range(X.vertex_count)) - set(s)
        assert holders


def test_cover_intersection_of_empty_subset_is_ambient():
    X = cx.boundary_of_simplex(3)
    cov = cx.anti_star_cover(X)
    assert cx.cover_intersection(cov, ()) == X


def test_nerve_of_anti_star_cover_of_circle_is_the_circle():
    X = cx.boundary_of_simplex(3)
    assert cx.nerve(cx.anti_star_cover(X)) == X


def test_nerve_of_star_cover_of_cycles():
    # stars of consecutive vertices overlap; the nerve of a long enough
    # cycle's star cover is again a circle
    for n in (5, 6, 7):
        C = cx.complex_from_graph(gr.cycle_graph(n))
        N = cx.nerve(cx.star_cover(C))
        assert _betti(N, al.QQ) == {0: 1, 1: 1}


def test_star_cover_elements_are_acyclic(corpus_complex):
    cov = cx.star_cover(corpus_complex)
    for el in cov.elements:
        assert _betti(el, al.QQ, reduced=True) == {}


# --------------------------------------------------------------------------
# induced subcomplexes and the Leray property


def test_induced_subcomplex_keeps_faces_within_the_subset():
    X = cx.boundary_of_simplex(4)
    sub = cx.induced_subcomplex(X, (0, 1, 2))
    assert sub.facets() == ((0, 1, 2),)


def test_leray_goldens():
    tree = cx.complex_from_graph(gr.path_graph(5))
    assert cx.is_d_leray(tree, 1)
    assert not cx.is_d_leray(tree, 0)

    square = cx.complex_from_graph(gr.cycle_graph(4))
    assert not cx.is_d_leray(square, 1)
    assert cx.is_d_leray(square, 2)

    assert cx.is_d_leray(cx.standard_simplex(4), 0)


def test_flag_complexes_of_chordal_graphs_are_one_leray():
    for m, seed in ((3, 52), (5, 54), (6, 55), (7, 56)):
        g = gr.random_chordal_graph(m, seed)
        assert cx.is_d_leray(cx.flag_complex(g), 1)
