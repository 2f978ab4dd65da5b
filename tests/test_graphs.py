"""Graphs: connected domination polynomials, chordality, generators."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import capped_square_complex, graph_corpus
from uberhom import graphs as gr, uber
from uberhom.errors import MAX_SIMPLICES, NotConnectedError, SizeGuardExceeded


# --------------------------------------------------------------------------
# basic structure


def test_graph_normalizes_and_validates_edges():
    g = gr.Graph(3, ((1, 0), (0, 1), (2, 1)))
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.edge_count == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert sorted(g.neighbors(1)) == [0, 2]
    assert g.degree(1) == 2
    with pytest.raises(ValueError):
        gr.Graph(2, ((0, 2),))
    with pytest.raises(ValueError):
        gr.Graph(2, ((0, 0),))


def test_generators_have_expected_shape():
    assert gr.path_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert gr.cycle_graph(4).edges == frozenset({(0, 1), (0, 3), (1, 2), (2, 3)})
    assert gr.complete_graph(4).edge_count == 6
    grid = gr.grid_graph(3, 2)
    assert grid.vertex_count == 6 and grid.edge_count == 7
    assert grid.is_connected


def test_cartesian_product_builds_grids():
    prod = gr.cartesian_product(gr.path_graph(3), gr.path_graph(2))
    grid = gr.grid_graph(3, 2)
    assert prod.vertex_count == grid.vertex_count
    assert prod.edge_count == grid.edge_count
    # the product is the grid up to vertex ordering: same degree multiset
    assert sorted(prod.degree(v) for v in range(6)) == sorted(
        grid.degree(v) for v in range(6)
    )


@pytest.mark.parametrize(
    "doc",
    [{"vertex_count": 10**9, "edges": []}, {"vertex_count": MAX_SIMPLICES, "edges": [[0, 1]]}],
    ids=["many-vertices", "vertices-and-edges"],
)
def test_json_graph_is_guarded_before_it_is_built(monkeypatch, doc):
    def refuse(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(gr, "Graph", refuse)
    with pytest.raises(SizeGuardExceeded, match="simplices exceeds the guard"):
        gr.graph_from_json(json.dumps(doc))


def test_json_round_trip(corpus_graph):
    g = corpus_graph
    assert gr.graph_from_json(gr.graph_to_json(g)) == g


def test_one_skeleton_extracts_edges():
    from uberhom import complexes as cx

    X = cx.boundary_of_simplex(4)
    g = gr.one_skeleton(X)
    assert g.vertex_count == 4 and g.edge_count == 6


def test_is_triangle_free():
    assert gr.is_triangle_free(gr.cycle_graph(4))
    assert gr.is_triangle_free(gr.path_graph(5))
    assert not gr.is_triangle_free(gr.complete_graph(3))
    assert not gr.is_triangle_free(gr.one_skeleton(capped_square_complex()))


# --------------------------------------------------------------------------
# polynomials


def test_polynomial_evaluation_and_rendering():
    p = gr.Polynomial((0, 0, 4, 4, 1))
    assert p.degree == 4
    assert p(-1) == 4 - 4 + 1
    assert p(0) == 0
    assert p(1) == 9
    assert str(p) == "4t^2 + 4t^3 + t^4"
    assert str(gr.Polynomial(())) == "0"


@pytest.mark.parametrize(
    "coefficients",
    [(1, 0.4), (Fraction(1, 2), 3), (1, 2.0)],
    ids=["float-tail", "fraction-head", "integral-float"],
)
def test_polynomial_refuses_inexact_coefficients(coefficients):
    # each coefficient is converted before the trailing zeros go, so a
    # float tail cannot be truncated to 0 and stripped
    with pytest.raises(TypeError):
        gr.Polynomial(coefficients)


# --------------------------------------------------------------------------
# connected domination


def test_connected_domination_goldens():
    assert gr.connected_domination_polynomial(gr.complete_graph(3)).coefficients == (
        0,
        3,
        3,
        1,
    )
    assert gr.connected_domination_polynomial(gr.cycle_graph(4)).coefficients == (
        0,
        0,
        4,
        4,
        1,
    )
    wheel = gr.one_skeleton(capped_square_complex())
    assert gr.connected_domination_polynomial(wheel).coefficients == (0, 1, 8, 10, 5, 1)
    assert gr.connected_domination_polynomial(gr.Graph(1, ())).coefficients == (0, 1)


def _relabelled(g, labels):
    """``g`` with vertex i renamed ``labels[i]``."""
    return gr.Graph(g.vertex_count, [(labels[u], labels[v]) for u, v in g.edges])


# every connected graph on at most 6 vertices, from the single vertex on
ORACLE_GRAPHS = [
    *graph_corpus(),
    *(
        (f"atlas-{i}", gr.Graph(nxg.number_of_nodes(), nxg.edges()))
        for i, nxg in enumerate(oracles.connected_atlas_graphs(6))
    ),
]

# the block counter splits the subsets into blocks from 15 vertices on
BLOCK_GRAPHS = [
    *graph_corpus(),
    *(
        (f"random-{m}-p{p}", gr.random_connected_graph(m, p, seed=1))
        for m in (15, 16, 17)
        for p in (0.2, 0.3, 0.5)
    ),
    # both walks away from vertex 0 meet ever lower labels, so each sweep
    # of the connectivity relaxation advances them by one vertex only
    ("path-16-descending", _relabelled(gr.path_graph(16), [0, *range(15, 0, -1)])),
    ("cycle-16-descending", _relabelled(gr.cycle_graph(16), [0, *range(15, 0, -2), *range(2, 15, 2)])),
    ("star-15", gr.Graph(15, [(0, v) for v in range(1, 15)])),
    ("complete-15", gr.complete_graph(15)),
]


ROUTES = pytest.mark.parametrize("prune", [False, True], ids=["blocks", "prune"])


@ROUTES
@pytest.mark.parametrize("g", [g for _, g in ORACLE_GRAPHS], ids=[name for name, _ in ORACLE_GRAPHS])
def test_connected_domination_matches_oracle(g, prune):
    poly = gr.connected_domination_polynomial(g, prune=prune)
    assert list(poly.coefficients) == oracles.domination_counts_oracle(g)


# closed forms, at sizes beyond the networkx oracle
CLOSED_FORMS = [
    *((f"path-{m}", gr.path_graph(m), [0] * (m - 2) + [1, 2, 1]) for m in (4, 9, 20)),
    *((f"cycle-{m}", gr.cycle_graph(m), [0] * (m - 2) + [m, m, 1]) for m in (4, 9, 20)),
    *(
        (f"star-{n}", gr.Graph(n + 1, [(0, v) for v in range(1, n + 1)]), [0] + [math.comb(n, k) for k in range(n + 1)])
        for n in (2, 8, 15)
    ),
    *((f"complete-{m}", gr.complete_graph(m), [0] + [math.comb(m, k) for k in range(1, m + 1)]) for m in (4, 9, 16)),
]


# the block counter would sweep all 2**24 subsets of K_24; the prune route
# closes the whole tree below each first chosen vertex at once
PRUNE_CLOSED_FORMS = [("complete-24", gr.complete_graph(24), [0] + [math.comb(24, k) for k in range(1, 25)])]


@pytest.mark.parametrize(
    "g, expected, prune",
    [
        *(
            pytest.param(g, expected, prune, id=f"{name}-{route}")
            for name, g, expected in CLOSED_FORMS
            for route, prune in (("blocks", False), ("prune", True))
        ),
        *(pytest.param(g, expected, True, id=f"{name}-prune") for name, g, expected in PRUNE_CLOSED_FORMS),
    ],
)
def test_connected_domination_closed_forms(g, expected, prune):
    # P_m: t^(m-2) (1+t)^2; C_m: m t^(m-2) + m t^(m-1) + t^m; the star with
    # n leaves: t (1+t)^n; K_m: (1+t)^m - 1
    assert list(gr.connected_domination_polynomial(g, prune=prune).coefficients) == expected


@pytest.mark.parametrize("g", [g for _, g in BLOCK_GRAPHS], ids=[name for name, _ in BLOCK_GRAPHS])
def test_pruned_enumeration_agrees_with_plain(g):
    plain = gr.connected_domination_polynomial(g, prune=False)
    pruned = gr.connected_domination_polynomial(g, prune=True)
    assert plain.coefficients == pruned.coefficients


@pytest.mark.parametrize(
    "g",
    [g for _, g in [*ORACLE_GRAPHS, *BLOCK_GRAPHS]],
    ids=[name for name, _ in [*ORACLE_GRAPHS, *BLOCK_GRAPHS]],
)
def test_pruned_enumeration_agrees_with_the_leaf_recursion(g):
    # the former recursion, one leaf per set and in the given vertex order,
    # shares neither the closed subtree nor the degree order
    pruned = gr.connected_domination_polynomial(g, prune=True)
    assert list(pruned.coefficients) == oracles.domination_counts_by_leaves(g)


def _star(n, centre):
    """The star with ``n`` leaves and its centre at vertex ``centre``."""
    return gr.Graph(n + 1, [(centre, v) for v in range(n + 1) if v != centre])


@pytest.mark.parametrize(
    "g",
    [gr.complete_graph(12), _star(11, 0), _star(11, 11)],
    ids=["complete-12", "star-11-centre-first", "star-11-centre-last"],
)
def test_pruned_enumeration_closes_dominating_subtrees(monkeypatch, g):
    # every superset of a vertex of K_m, and of the star's centre, is a
    # connected dominating set: the closed subtree counts them in one call
    # each, where one leaf per set takes more than 2**(m-1) calls
    calls = 0
    recurse = gr._cdp_prune

    def spy(*args):
        nonlocal calls
        calls += 1
        recurse(*args)

    monkeypatch.setattr(gr, "_cdp_prune", spy)
    pruned = gr.connected_domination_polynomial(g, prune=True)
    assert list(pruned.coefficients) == oracles.domination_counts_by_leaves(g)
    assert calls <= 2 * g.vertex_count + 1


@given(
    st.integers(3, 14),
    st.sampled_from([0.2, 0.3, 0.5]),
    st.integers(0, 40),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_pruned_enumeration_agrees_with_blocks_under_relabelling(m, p, seed, rng):
    labels = list(range(m))
    rng.shuffle(labels)
    g = _relabelled(gr.random_connected_graph(m, p, seed=seed), labels)
    pruned = gr.connected_domination_polynomial(g, prune=True)
    assert pruned == gr.connected_domination_polynomial(g)
    if m <= 8:
        subsets = itertools.chain.from_iterable(itertools.combinations(range(m), k) for k in range(m + 1))
        assert pruned(1) == sum(gr.is_connected_dominating(g, sub) for sub in subsets)
        assert pruned(-1) == uber.euler_characteristic_bold(g)


@given(st.integers(3, 7), st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_connected_domination_matches_oracle_on_random_graphs(m, seed):
    g = gr.random_connected_graph(m, 0.5, seed=seed)
    poly = gr.connected_domination_polynomial(g)
    assert list(poly.coefficients) == oracles.domination_counts_oracle(g)


def test_is_connected_dominating_brute_force_agreement():
    g = gr.random_connected_graph(6, 0.4, seed=9)
    poly = gr.connected_domination_polynomial(g)
    for k in range(g.vertex_count + 1):
        count = sum(
            1
            for sub in itertools.combinations(range(g.vertex_count), k)
            if gr.is_connected_dominating(g, sub)
        )
        assert poly.coefficients[k] == count


def test_domination_requires_connected_graph():
    with pytest.raises(NotConnectedError):
        gr.connected_domination_polynomial(gr.Graph(4, ((0, 1), (2, 3))))


def test_domination_size_guard():
    with pytest.raises(SizeGuardExceeded):
        gr.connected_domination_polynomial(gr.path_graph(30), max_vertices=24)
    # a permissive guard lets the same graph through at larger sizes
    poly = gr.connected_domination_polynomial(gr.path_graph(10), max_vertices=10)
    assert poly.coefficients[-1] == 1


def test_empty_set_never_dominates():
    assert not gr.is_connected_dominating(gr.path_graph(2), ())
    # the full vertex set always does, for a connected graph
    assert gr.is_connected_dominating(gr.path_graph(5), range(5))


# --------------------------------------------------------------------------
# chordality


def _check_certificate(g, cert):
    if cert.chordal:
        order = cert.elimination_order
        assert sorted(order) == list(range(g.vertex_count))
        # perfect elimination: later neighbours of each vertex form a clique
        position = {v: i for i, v in enumerate(order)}
        for idx, v in enumerate(order):
            later = [u for u in g.neighbors(v) if position[u] > idx]
            for a, b in itertools.combinations(later, 2):
                assert g.has_edge(a, b)
    else:
        cycle = cert.chordless_cycle
        k = len(cycle)
        assert k >= 4
        assert len(set(cycle)) == k
        for i in range(k):
            assert g.has_edge(cycle[i], cycle[(i + 1) % k])
        for i in range(k):
            for j in range(i + 2, k):
                if (i, j) != (0, k - 1):
                    assert not g.has_edge(cycle[i], cycle[j])


def test_chordality_matches_oracle_on_atlas():
    for nxg in oracles.connected_atlas_graphs(7):
        g = gr.Graph(nxg.number_of_nodes(), nxg.edges())
        cert = gr.is_chordal(g)
        assert cert.chordal == oracles.chordal_oracle(g)
        _check_certificate(g, cert)


def test_chordless_cycle_search_finds_one_in_every_non_chordal_graph():
    for nxg in oracles.connected_atlas_graphs(7):
        g = gr.Graph(nxg.number_of_nodes(), nxg.edges())
        if oracles.chordal_oracle(g):
            continue
        cycle = gr._chordless_cycle(g)
        _check_certificate(g, gr.ChordalityCertificate(False, chordless_cycle=cycle))


def test_chordality_goldens():
    assert gr.is_chordal(gr.complete_graph(5)).chordal
    assert gr.is_chordal(gr.path_graph(6)).chordal
    assert not gr.is_chordal(gr.cycle_graph(4)).chordal
    assert not gr.is_chordal(gr.cycle_graph(6)).chordal
    assert gr.is_chordal(gr.cycle_graph(3)).chordal


@given(st.integers(3, 10), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_random_chordal_generator_emits_chordal_connected_graphs(m, seed):
    g = gr.random_chordal_graph(m, seed)
    assert g.vertex_count == m
    assert g.is_connected
    assert g == gr.random_chordal_graph(m, seed)
    cert = gr.is_chordal(g)
    assert cert.chordal
    _check_certificate(g, cert)
    assert oracles.chordal_oracle(g)


@st.composite
def chordality_inputs(draw):
    """A random connected graph, or a random chordal graph with zero or one
    extra edge."""
    m, seed = draw(st.integers(3, 16)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return gr.random_connected_graph(m, draw(st.sampled_from([0.15, 0.3, 0.5])), seed)
    g = gr.random_chordal_graph(m, seed)
    absent = [(u, v) for u, v in itertools.combinations(range(m), 2) if not g.has_edge(u, v)]
    if absent and draw(st.booleans()):
        g = gr.Graph(m, [*g.edges, draw(st.sampled_from(absent))])
    return g


@given(chordality_inputs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_chordality_matches_oracle_on_random_graphs(g):
    cert = gr.is_chordal(g)
    assert cert.chordal == oracles.chordal_oracle(g)
    _check_certificate(g, cert)


def test_random_chordal_graphs_are_pinned():
    # criterion 10 and the ``verify --theorem euler`` corpus draw from this
    # sampler, so its edge sets must not drift
    digest = hashlib.sha256()
    for m in range(1, 15):
        for seed in range(40):
            digest.update(f"{m} {seed} {sorted(gr.random_chordal_graph(m, seed).edges)}\n".encode())
    assert digest.hexdigest() == "746535e978cecce926eb810ffe76db1bf634b09d21ac025e3a0a6f02eb9cb5b5"


def _caterpillar_with_square(k):
    """A path of k spine vertices, a leaf on each, and a 4-cycle hung from
    the last spine vertex by one edge: 2k + 4 vertices."""
    edges = [(i, i + 1) for i in range(k - 1)] + [(i, k + i) for i in range(k)]
    a = 2 * k
    edges += [(k - 1, a), (a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a + 3, a)]
    return gr.Graph(2 * k + 4, edges)


@pytest.mark.parametrize(
    "g", [gr.cycle_graph(40), _caterpillar_with_square(73)], ids=["cycle-40", "caterpillar-150"]
)
def test_the_targeted_search_finds_the_chordless_cycle(monkeypatch, g):
    found = []
    targeted = gr._find_chordless_cycle

    def targeted_spy(*args):
        found.append(targeted(*args))
        return found[-1]

    def full_search(G):
        raise AssertionError("the full chordless-cycle search ran")

    monkeypatch.setattr(gr, "_find_chordless_cycle", targeted_spy)
    monkeypatch.setattr(gr, "_chordless_cycle", full_search)
    cert = gr.is_chordal(g)
    assert not cert.chordal and found == [cert.chordless_cycle]
    _check_certificate(g, cert)


@given(st.integers(3, 8), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_random_connected_generator_is_deterministic(m, seed):
    g = gr.random_connected_graph(m, 0.5, seed=seed)
    assert g == gr.random_connected_graph(m, 0.5, seed=seed)
    assert g.is_connected
    assert g.vertex_count == m
