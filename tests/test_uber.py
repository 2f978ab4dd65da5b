"""Cube-of-colourings homology: triply graded table, 0-degree slice, bold."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import (
    PROJECTIVE_PLANE_FACETS,
    capped_square_complex,
    complexes,
    connected_complexes,
    connected_graphs,
    glued_triangles,
)
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom import mvss, uber
from uberhom.errors import SizeGuardExceeded


def _nontrivial(table):
    return {k: v for k, v in table.items() if v}


def _colourings(m):
    """Every colouring of m vertices, vertex 0 varying fastest."""
    return [c[::-1] for c in itertools.product((0, 1), repeat=m)]


def _bold(obj, ring=al.ZZ, **kw):
    return {
        j: p for j, p in uber.bold_homology(obj, ring=ring, **kw).items()
        if not p.is_trivial
    }


# --------------------------------------------------------------------------
# colourings, weights, level-map signs


def test_cube_levels_group_the_colourings_by_level():
    levels = uber._cube_levels(3)
    assert sorted(mask for level in levels for mask in level) == list(range(8))
    for j, level in enumerate(levels):
        assert level == sorted(level)
        assert all(sum(uber._to_tuple(mask, 3)) == j for mask in level)


def test_weight_counts_unpainted_vertices():
    colouring = (0, 1, 1, 0)
    assert uber.weight((0,), colouring) == 1
    assert uber.weight((1, 2), colouring) == 0
    assert uber.weight((0, 3), colouring) == 2
    assert uber.weight((0, 1, 2, 3), colouring) == 2


def _level_maps(monkeypatch, run):
    """The level maps that ``run`` lays out, one list per cube complex."""
    cubes = []
    cube_map = uber._cube_map

    def spy(levels, j, dims, edge):
        rows, columns = cube_map(levels, j, dims, edge)
        if j == 0:
            cubes.append([])
        cubes[-1].append(columns)
        return rows, columns

    monkeypatch.setattr(uber, "_cube_map", spy)
    run()
    return cubes


def _maps_compose_to_zero(ring, maps):
    return all(al.composite_vanishes(ring, (low, high, 1)) for low, high in zip(maps, maps[1:]))


@pytest.mark.parametrize(
    "G",
    [gr.cycle_graph(6), gr.grid_graph(3, 2), gr.random_connected_graph(7, 0.4, 1)],
    ids=["cycle-6", "grid-3x2", "random-7-seed-1"],
)
def test_bold_level_maps_compose_to_zero(monkeypatch, G):
    cubes = _level_maps(monkeypatch, lambda: uber.bold_homology(G, al.ZZ))
    assert [len(maps) for maps in cubes] == [G.vertex_count]
    assert _maps_compose_to_zero(al.ZZ, cubes[0])
    # without the signs of _cube_map some square would not cancel
    unsigned = [[[(r, abs(x)) for r, x in column] for column in level] for level in cubes[0]]
    assert not _maps_compose_to_zero(al.ZZ, unsigned)


@pytest.mark.parametrize("ring", [al.QQ, al.GF(3)], ids=str)
def test_zero_degree_level_maps_compose_to_zero(monkeypatch, corpus_complex, ring):
    X = corpus_complex
    cubes = _level_maps(monkeypatch, lambda: oracles.zero_degree_table_by_cube(X, ring))
    assert len(cubes) == X.max_dim + 1
    for maps in cubes:
        assert len(maps) == X.vertex_count
        assert _maps_compose_to_zero(ring, maps)


def test_zero_degree_table_refuses_the_integers():
    with pytest.raises(ValueError, match="needs field coefficients"):
        uber.zero_degree_uber_table(cx.complex_from_graph(gr.cycle_graph(4)), al.ZZ)


# --------------------------------------------------------------------------
# horizontal homology of a single colouring


def test_horizontal_complex_splits_by_weight():
    X = capped_square_complex()
    colouring = (0, 1, 0, 1, 1)
    hh = uber.HorizontalHomology(X, colouring)
    for k in hh.weights():
        C = hh.complex_for_weight(k)
        for n in range(X.max_dim + 1):
            expected = sum(
                1 for s in X.simplices_of_dim(n) if uber.weight(s, colouring) == k
            )
            assert C.rank(n) == expected


@pytest.mark.parametrize("colouring", [(2, 0, 1), (0, -1, 1), (1, 1, 3)])
def test_horizontal_homology_rejects_colourings_that_are_not_zero_one(colouring):
    with pytest.raises(ValueError, match="0 or 1"):
        uber.HorizontalHomology(cx.boundary_of_simplex(3), colouring)


def test_cube_nodes_are_the_induced_subcomplexes(corpus_complex):
    X = corpus_complex
    for ring in (al.ZZ, al.QQ, al.GF2, al.GF(3)):
        for mask, bases in enumerate(oracles._cube_node_bases(X)):
            node = al._boundary_complex(ring, bases)
            sub = cx.induced_subcomplex(X, [v for v in range(X.vertex_count) if mask >> v & 1])
            ref = al.simplicial_chain_complex(sub, ring)
            assert [node.rank(n) for n in X.dims()] == [ref.rank(n) for n in X.dims()]
            for n in range(1, X.max_dim + 1):
                assert node.diff(n) == ref.diff(n)


def test_horizontal_dims_match_per_weight_homology():
    X = capped_square_complex()
    for colouring in _colourings(X.vertex_count)[:8]:
        hh = uber.HorizontalHomology(X, colouring)
        dims = hh.dims()
        for k in hh.weights():
            betti = al.betti_numbers(hh.complex_for_weight(k))
            for i, d in betti.items():
                assert dims.get((i, k), 0) == d
                assert hh.homology(i, k).dim == d


def test_horizontal_homology_is_one_table_per_colouring_and_weight(monkeypatch):
    # every weight's homology comes from one homology table, built when the
    # colouring's horizontal homology is; no basis is built one degree at a time
    X = cx.random_connected_complex(7, 1)
    tables, bases = [], []
    homology_table = al.homology_table

    def table_spy(C):
        tables.append(tuple(C.rank(n) for n in X.dims()))
        return homology_table(C)

    def basis_spy(self, *args):
        raise AssertionError("HomologyBasis built one degree at a time")

    monkeypatch.setattr(al, "homology_table", table_spy)
    monkeypatch.setattr(al.HomologyBasis, "__init__", basis_spy)
    assert uber.UberComplex(X)._pairs
    expected = []
    for colouring in _colourings(X.vertex_count):
        for k in {uber.weight(s, colouring) for s in X.all_simplices()}:
            ranks = [sum(1 for s in X.simplices_of_dim(n) if uber.weight(s, colouring) == k) for n in X.dims()]
            expected.append(tuple(ranks))
    assert sorted(tables) == sorted(expected)


def test_horizontal_differential_deletes_only_one_coloured_vertices(corpus_complex):
    # the signed boundary on a weight's simplices drops every face that
    # deletes a 0-coloured vertex; the oracle builds the rest by hand
    X = corpus_complex
    for colouring in _colourings(X.vertex_count):
        hh = uber.HorizontalHomology(X, colouring)
        for k in hh.weights():
            C = hh.complex_for_weight(k)
            for q in X.dims():
                assert [list(c) for c in C.columns(q)] == oracles.horizontal_columns(X, colouring, k, q)


def test_horizontal_homology_outside_a_weights_complex_is_zero():
    # the circle coloured (0, 1, 1): weight 0 lives in dimensions 0 and 1,
    # weight 1 in dimensions 0 and 1, and no simplex has weight 2
    hh = uber.HorizontalHomology(cx.boundary_of_simplex(3), (0, 1, 1))
    assert hh.weights() == [0, 1]
    for i, k in ((2, 0), (-1, 1), (5, 1), (0, 2), (1, 2)):
        h = hh.homology(i, k)
        assert h.dim == 0 and h.representatives == []
        assert h.reduce(al.vector_ops(al.GF2).zero(0)) == []
    assert hh.dims() == {(0, 0): 1, (1, 1): 1}


def test_all_ones_colouring_gives_plain_homology_at_weight_zero():
    X = cx.boundary_of_simplex(3)
    colouring = (1,) * X.vertex_count
    hh = uber.HorizontalHomology(X, colouring)
    assert hh.weights() == [0]
    assert _nontrivial(dict(
        ((i, k), d) for (i, k), d in hh.dims().items()
    )) == {(0, 0): 1, (1, 0): 1}


# --------------------------------------------------------------------------
# the triply graded table


def test_uber_table_of_circle():
    X = cx.boundary_of_simplex(3)
    assert uber.uberhomology(X) == {
        (1, 0, 0): 1,
        (0, 1, 0): 3,
        (3, 0, 1): 1,
        (2, 1, 1): 3,
    }


def test_uber_table_matches_the_cube_oracle(corpus_complex):
    assert uber.uberhomology(corpus_complex) == oracles.uberhomology_by_cube(corpus_complex)


@given(X=connected_complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_uber_table_matches_the_cube_oracle_on_generated_complexes(X):
    assert uber.uberhomology(X) == oracles.uberhomology_by_cube(X)


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_uber_table_matches_the_cube_oracle_on_any_complex(X):
    # empty and disconnected complexes too, where full links decide more
    assert uber.uberhomology(X) == oracles.uberhomology_by_cube(X)


@given(X=connected_complexes(), data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_tables_and_pages_are_invariant_under_relabelling(X, data):
    # links renumber their vertices, so a vertex order must not leak out
    perm = data.draw(st.permutations(range(X.vertex_count)))
    Y = cx.build_complex(X.vertex_count, [tuple(perm[v] for v in f) for f in X.facets()])
    assert uber.uberhomology(Y) == uber.uberhomology(X)
    for ring in (al.GF2, al.GF(3), al.QQ):
        assert uber.zero_degree_uber_table(Y, ring) == uber.zero_degree_uber_table(X, ring)
    for augmented in (True, False):
        seqs = [mvss.SpectralSequence(mvss.double_complex(Z, ring=al.QQ, augmented=augmented)) for Z in (X, Y)]
        for r in range(1, seqs[0].width + 2):
            assert seqs[1].page(r).dims == seqs[0].page(r).dims, (augmented, r)


def test_the_barcode_routes_build_no_span(monkeypatch, corpus_complex):
    # the barcode reduces with its own table of lows, so überhomology, the
    # zero-degree table and page two of the spectral sequence need no Span
    X = corpus_complex

    def refuse(*args, **kwargs):
        raise AssertionError("Span built")

    monkeypatch.setattr(al.Span, "__init__", refuse)
    uber.uberhomology(X)
    for ring in (al.GF2, al.GF(3), al.QQ):
        uber.zero_degree_uber_table(X, ring)
        mvss.SpectralSequence(mvss.double_complex(X, ring=ring)).page(2)


def test_uber_table_builds_no_horizontal_homology(monkeypatch):
    # each full-link summand is read off its own barcode; no colouring's node is built
    X = cx.random_connected_complex(6, 1)
    expected = oracles.uberhomology_by_cube(X)

    def refuse(*args, **kwargs):
        raise AssertionError("HorizontalHomology built")

    monkeypatch.setattr(uber.HorizontalHomology, "__init__", refuse)
    assert uber.uberhomology(X) == expected


@pytest.mark.parametrize("j", [-1, 4])
def test_level_maps_exist_only_between_levels_of_the_cube(j):
    U = uber.UberComplex(cx.boundary_of_simplex(3))
    assert U.differential(3, 0, 0).rows == 0
    with pytest.raises(ValueError, match="outside 0..3"):
        U.differential(j, 0, 0)


def test_zero_slice_agrees_with_dedicated_routine(corpus_complex):
    X = corpus_complex
    if X.vertex_count > 7:
        pytest.skip("full table kept small; the slice routine covers the rest")
    full = uber.uberhomology(X)
    slice0 = {(j, i): d for (j, k, i), d in full.items() if k == 0 and d}
    assert slice0 == _nontrivial(uber.zero_degree_uber_table(X, al.GF2))
    # both routines read the barcode of the one summand S empty over GF(2)
    # (uber._link_cube(X, GF2, False)); the node cube shares none of their code
    assert slice0 == _nontrivial(oracles.zero_degree_table_by_cube(X, al.GF2))


@given(X=connected_complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_zero_slice_agrees_with_dedicated_routine_on_generated_complexes(X):
    slice0 = {(j, i): d for (j, k, i), d in uber.uberhomology(X).items() if k == 0 and d}
    assert slice0 == _nontrivial(uber.zero_degree_uber_table(X, al.GF2))
    assert slice0 == _nontrivial(oracles.zero_degree_table_by_cube(X, al.GF2))


@pytest.mark.parametrize("ring", [al.QQ, al.GF2, al.GF(3)], ids=str)
def test_zero_degree_table_is_one_homology_table_per_colouring(monkeypatch, ring):
    # every node's homology comes from one homology table of the subcomplex
    # on its 1-coloured vertices; no basis is built one degree at a time
    X = cx.random_connected_complex(7, 1)
    tables = []
    homology_table = al.homology_table

    def table_spy(C):
        tables.append(tuple(C.rank(n) for n in X.dims()))
        return homology_table(C)

    def basis_spy(self, *args):
        raise AssertionError("HomologyBasis built one degree at a time")

    monkeypatch.setattr(al, "homology_table", table_spy)
    monkeypatch.setattr(al.HomologyBasis, "__init__", basis_spy)
    oracles.zero_degree_table_by_cube(X, ring)
    f_vectors = [
        tuple(sum(1 for s in X.simplices_of_dim(n) if all(mask >> v & 1 for v in s)) for n in X.dims())
        for mask in range(1 << X.vertex_count)
    ]
    assert tables == f_vectors


def test_zero_degree_table_of_simplices():
    for X in (
        cx.standard_simplex(1),
        cx.standard_simplex(2),
        cx.standard_simplex(3),
    ):
        assert _nontrivial(uber.zero_degree_uber_table(X, al.GF2)) == {(1, 0): 1}


def test_zero_degree_table_is_not_a_homotopy_invariant():
    # the cone over a square is contractible, yet its table differs from a
    # simplex's: the grading sees the combinatorics, not just the topology
    capped = cx.cone(cx.complex_from_graph(gr.cycle_graph(4)))
    assert _nontrivial(uber.zero_degree_uber_table(capped, al.GF2)) == {
        (2, 0): 1,
        (4, 1): 1,
    }


def test_zero_degree_table_of_named_complexes():
    assert _nontrivial(uber.zero_degree_uber_table(capped_square_complex(), al.GF2)) == {
        (2, 0): 1,
        (4, 1): 1,
    }
    assert _nontrivial(uber.zero_degree_uber_table(glued_triangles(), al.GF2)) == {}
    two_triangles_sharing_an_edge = cx.build_complex(4, [(0, 1, 2), (1, 2, 3)])
    assert (
        _nontrivial(uber.zero_degree_uber_table(two_triangles_sharing_an_edge, al.GF2))
        == {}
    )


@pytest.mark.parametrize("ring", [al.QQ, al.GF2, al.GF(3)], ids=str)
def test_the_zero_degree_table_reduces_each_node_differential_once(monkeypatch, ring):
    # one homology walk per cube node: reducing each differential both as a
    # kernel and as the boundaries one degree down took 1,087 inserts on
    # this input; one reduction per differential takes 827, and the
    # barcode of the weight-zero double complex, with its own table of
    # lows, none
    calls = []
    insert = al.Span.insert

    def spy(self, v):
        calls.append(1)
        return insert(self, v)

    monkeypatch.setattr(al.Span, "insert", spy)
    for zero_degree_table in (uber.zero_degree_uber_table, oracles.zero_degree_table_by_cube):
        calls.clear()
        table = zero_degree_table(cx.random_connected_complex(6, 1), ring)
        assert _nontrivial(table) == {(2, 0): 1, (4, 1): 1}
        assert len(calls) < 1087


def test_homology_walks_insert_nothing_into_a_zero_dimensional_span(monkeypatch):
    # the chains of a walk's lowest degree are its cycles as they are: no
    # zero column of the differential into that degree is inserted
    X = cx.random_connected_complex(6, 1)
    inserts, walking = [], []
    walk, insert = al._homology_walk, al.Span.insert

    def walk_spy(*args):
        steps = walk(*args)
        while True:
            walking.append(True)
            step = next(steps, None)
            walking.pop()
            if step is None:
                return
            yield step

    def insert_spy(self, v):
        if walking:
            inserts.append(self.n)
        return insert(self, v)

    monkeypatch.setattr(al, "_homology_walk", walk_spy)
    monkeypatch.setattr(al.Span, "insert", insert_spy)
    runs = [lambda: uber.UberComplex(X)]
    for ring in (al.QQ, al.GF2, al.GF(3)):
        runs += [
            lambda ring=ring: al.homology_table(al.simplicial_chain_complex(X, ring)),
            lambda ring=ring: al.homology_table(al.simplicial_chain_complex(X, ring, reduced=True)),
            lambda ring=ring: oracles.zero_degree_table_by_cube(X, ring),
            lambda ring=ring: mvss.SpectralSequence(mvss.double_complex(X, ring=ring))._turn_to(1),
        ]
    for run in runs:
        inserts.clear()
        run()
        assert inserts and 0 not in inserts


# --------------------------------------------------------------------------
# the weight-zero table from one barcode


@pytest.mark.parametrize("ring", [al.GF2, al.GF(3), al.GF(5), al.QQ], ids=str)
def test_zero_degree_table_matches_the_cube_oracle(corpus_complex, ring):
    X = corpus_complex
    table = uber.zero_degree_uber_table(X, ring)
    assert list(table.items()) == list(oracles.zero_degree_table_by_cube(X, ring).items())


@given(X=connected_complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_zero_degree_table_matches_the_cube_oracle_on_generated_complexes(X):
    for ring in (al.GF2, al.GF(3), al.QQ):
        assert uber.zero_degree_uber_table(X, ring) == oracles.zero_degree_table_by_cube(X, ring)


@pytest.mark.parametrize("ring", [al.GF2, al.QQ], ids=str)
@pytest.mark.parametrize(
    "X, expected",
    [
        (cx.build_complex(0, []), []),
        (cx.build_complex(1, []), [((1, 0), 1)]),
        (cx.build_complex(3, []), []),
        (cx.standard_simplex(1), [((1, 0), 1)]),
        (cx.standard_simplex(2), [((1, 0), 1)]),
        (cx.standard_simplex(3), [((1, 0), 1)]),
        (cx.boundary_of_simplex(3), [((1, 0), 1), ((3, 1), 1)]),
    ],
    ids=["empty", "one-vertex", "three-points", "simplex-1", "simplex-2", "simplex-3", "circle"],
)
def test_zero_degree_table_of_small_complexes_in_key_order(X, expected, ring):
    # degree-major, then level ascending, as the node cube lists them; by
    # column p = m - j the circle's two entries would come the other way round
    table = list(uber.zero_degree_uber_table(X, ring).items())
    assert table == list(oracles.zero_degree_table_by_cube(X, ring).items())
    assert table == expected


@pytest.mark.parametrize("ring", [al.QQ, al.GF2, al.GF(3)], ids=str)
def test_zero_degree_table_is_one_barcode_and_builds_no_node(monkeypatch, ring):
    X = cx.random_connected_complex(7, 1)
    expected = oracles.zero_degree_table_by_cube(X, ring)
    barcodes = []
    barcode = al._barcode

    def barcode_spy(dc):
        barcodes.append(dc.ring)
        return barcode(dc)

    def refuse(*args, **kwargs):
        raise AssertionError("cube node or level map built")

    monkeypatch.setattr(al, "_barcode", barcode_spy)
    monkeypatch.setattr(al, "homology_table", refuse)
    monkeypatch.setattr(al.HomologyBasis, "__init__", refuse)
    monkeypatch.setattr(uber, "_cube_map", refuse)
    assert uber.zero_degree_uber_table(X, ring) == expected
    assert barcodes == [ring]


def _reads_as_summand(X, dc, S):
    # the key (J, s) in column p is the pair (mask, s) of the colouring
    # mask = V - J - S, at level m - p, whose 0-coloured part s - mask is S
    m = X.vertex_count
    return all(
        s & ~mask == S and m - mask.bit_count() == p
        for (p, _), cell in dc._cells.items()
        for J, s in cell
        for mask in [(1 << m) - 1 & ~(J | S)]
    )


def test_uberhomology_reads_one_barcode_per_full_link_summand(monkeypatch):
    # summand S is the reduced cube of link(X, S), plus the empty face if S is not empty
    X = cx.random_connected_complex(7, 1)
    cubes = {
        S: uber._link_cube(cx.link(X, gr._bits(S)), al.GF2, bool(S), True)._cells
        for S in {0, *cx._simplex_bits(X)}
    }
    parts = []
    barcode = al._barcode

    def barcode_spy(dc):
        parts.append({S for S, cells in cubes.items() if dc._cells == cells})
        return barcode(dc)

    monkeypatch.setattr(al, "_barcode", barcode_spy)
    uber.uberhomology(X)
    assert all(len(part) == 1 for part in parts)
    assert sorted(S for [S] in parts) == sorted(oracles.full_links(X))


def test_uberhomology_builds_only_the_full_links(monkeypatch):
    # the full links are picked on bitsets before any link is built
    X = cx.random_connected_complex(7, 1)
    built = []
    link = uber.link

    def link_spy(Y, S):
        built.append(S)
        return link(Y, S)

    monkeypatch.setattr(uber, "link", link_spy)
    uber.uberhomology(X)
    assert len(built) == len(oracles.full_links(X))


# --------------------------------------------------------------------------
# the reduced cube: dominating vertices deleted, the star of an apex dropped


def _e2(dc):
    return _nontrivial(al._page_from_bars(al._barcode(dc), 2)[0])


def _quotient(L, ring, empty, deleted=0, apex=0):
    """The full cube of L less its cells whose mask meets ``deleted`` or
    that lie in the star of the vertex bit ``apex``, rows renumbered: the
    quotients of the two lemmas, built apart from the package's cell loop."""
    full, present = uber._link_cube(L, ring, empty), set(cx._simplex_bits(L))
    everything = (1 << L.vertex_count) - 1
    cells = {}
    for pq, cell in full._cells.items():
        keys = [
            (J, t)
            for J, t in cell
            if not (mask := everything & ~J) & deleted and not (mask & apex and t | apex in present)
        ]
        if keys:
            cells[pq] = {key: row for row, key in enumerate(keys)}
    return al._DoubleComplex(ring, cells)


def _summand_links(X):
    """(L, empty) of the table and of every full-link summand of X."""
    return [(cx.link(X, gr._bits(S)), bool(S)) for S in sorted(oracles.full_links(X))]


def _facets(simplices):
    return [s for s in simplices if not any(s != t and s & t == s for t in simplices)]


def _check_the_quotient_by_any_apex_keeps_e2(X):
    for L, empty in _summand_links(X):
        if L.vertex_count < 2:
            continue
        for ring in (al.GF2, al.GF(3), al.QQ):
            full = _e2(uber._link_cube(L, ring, empty))
            assert _e2(uber._link_cube(L, ring, empty, True)) == full, (L, empty, ring)
            for v in range(L.vertex_count):
                assert _e2(_quotient(L, ring, empty, apex=1 << v)) == full, (L, empty, ring, v)


def test_the_quotient_by_any_apex_keeps_e2(corpus_complex):
    _check_the_quotient_by_any_apex_keeps_e2(corpus_complex)


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_the_quotient_by_any_apex_keeps_e2_on_any_complex(X):
    _check_the_quotient_by_any_apex_keeps_e2(X)


def test_the_one_vertex_complex_gets_no_quotient():
    # its star is the whole cube, so the quotient would lose the class of
    # the vertex; below two vertices the reduced cube is the full one
    X = cx.build_complex(1, [])
    for ring in (al.GF2, al.GF(3), al.QQ):
        full = uber._link_cube(X, ring, False)
        assert _e2(full) == {(0, 0): 1}
        assert _e2(_quotient(X, ring, False, apex=1)) == {}
        assert uber._link_cube(X, ring, False, True)._cells == full._cells


def _check_every_deletion_keeps_e2(X):
    for L, empty in _summand_links(X):
        deleted = 0
        for _, w in uber._dominated_pairs(cx._simplex_bits(L)):
            deleted |= 1 << w
            for ring in (al.GF2, al.GF(3), al.QQ):
                full = _e2(uber._link_cube(L, ring, empty))
                assert _e2(_quotient(L, ring, empty, deleted)) == full, (L, empty, ring, w)


def test_every_deletion_of_a_dominating_vertex_keeps_e2(corpus_complex):
    _check_every_deletion_keeps_e2(corpus_complex)


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_deletion_of_a_dominating_vertex_keeps_e2_on_any_complex(X):
    _check_every_deletion_keeps_e2(X)


@given(X=complexes(max_vertices=7))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_each_dominated_pair_meets_the_definition_and_none_is_left(X):
    simplices = list(cx._simplex_bits(X))
    for v, w in uber._dominated_pairs(simplices):
        assert v != w and {1 << v, 1 << w} <= set(simplices)
        assert all(f >> w & 1 for f in _facets(simplices) if f >> v & 1), (v, w)
        simplices = [s for s in simplices if not s >> w & 1]
    vertices = [v for v in range(X.vertex_count) if 1 << v in simplices]
    for v, w in itertools.permutations(vertices, 2):
        assert any(not f >> w & 1 for f in _facets(simplices) if f >> v & 1), (v, w)


def test_deleting_the_dominated_vertex_instead_changes_the_table():
    # in the path 0 - 1 - 2 vertex 1 dominates 0: the cube of the path less
    # 1 (two points) has the path's E^2, the cube less 0 (an edge) does not
    X = cx.complex_from_graph(gr.path_graph(3))
    assert uber._dominated_pairs(cx._simplex_bits(X))[0] == (0, 1)
    for ring in (al.GF2, al.GF(3), al.QQ):
        full = _e2(uber._link_cube(X, ring, False))
        assert _e2(_quotient(X, ring, False, 1 << 1)) == full
        assert _e2(_quotient(X, ring, False, 1 << 0)) != full


def _barcode_cells(monkeypatch, run):
    cells = []
    barcode = al._barcode

    def barcode_spy(dc):
        cells.append(sum(dc.cell_dim(*pq) for pq in dc.cells()))
        return barcode(dc)

    with monkeypatch.context() as patch:
        patch.setattr(al, "_barcode", barcode_spy)
        run()
    return sum(cells)


def test_the_barcodes_read_the_reduced_cubes(monkeypatch):
    # the full cube of X has sum 2^(m - |s|) over the simplices s, and each
    # full link's summand the same over its link plus the empty face
    X = cx.random_connected_complex(9, 1)
    table = _barcode_cells(monkeypatch, lambda: uber.zero_degree_uber_table(X, al.GF2))
    summands = _barcode_cells(monkeypatch, lambda: uber.uberhomology(X))
    full_table = sum(2 ** (9 - s.bit_count()) for s in cx._simplex_bits(X))
    full_summands = sum(
        sum(2 ** (L.vertex_count - t.bit_count()) for t in [0] * empty + list(cx._simplex_bits(L)))
        for L, empty in _summand_links(X)
    )
    # the counts at the change that brought in the reduction; the full cubes
    # hold 9,568 and 25,472 cells
    assert table <= 4_704 and summands <= 6_920
    assert table < full_table and summands < full_summands


def _check_summands_split_the_cube(X):
    # every (mask, s) pair lies in the summand of S = s - mask, and a
    # summand without a full link is the cone of an identity, with E^2 = 0
    simplices = cx._simplex_bits(X)
    full = oracles.full_links(X)
    cells = 0
    for S in {0, *simplices}:
        dc = oracles.summand(X, al.GF2, S)
        assert _reads_as_summand(X, dc, S)
        cells += sum(len(cell) for cell in dc._cells.values())
        if S not in full:
            for ring in (al.GF2, al.QQ):
                dims, _ = al._page_from_bars(al._barcode(oracles.summand(X, ring, S)), 2)
                assert not dims, (S, ring)
    assert cells == 2**X.vertex_count * len(simplices)


def test_summands_split_the_cube_and_only_full_links_survive(corpus_complex):
    _check_summands_split_the_cube(corpus_complex)


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_summands_split_the_cube_and_only_full_links_survive_on_any_complex(X):
    _check_summands_split_the_cube(X)


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_summand_of_a_non_simplex_is_acyclic(X):
    # for a fixed simplex s the rows of a summand are cubes over the vertices
    # outside s, exact unless s is all of V: no class lives forever
    for S in {0, *cx._simplex_bits(X)}:
        for ring in (al.GF2, al.GF(3), al.QQ):
            infinite = [bar for bar in al._barcode(oracles.summand(X, ring, S)) if bar[2] is None]
            assert not infinite or X.is_standard_simplex(), (S, ring, infinite)


def test_the_empty_summand_of_a_simplex_has_one_infinite_bar():
    X = cx.standard_simplex(3)
    for ring in (al.GF2, al.GF(3), al.QQ):
        assert [bar for bar in al._barcode(uber._link_cube(X, ring, False)) if bar[2] is None] == [(2, 2, None)]


@pytest.mark.parametrize("ring", [al.QQ, al.GF(3)], ids=str)
def test_summands_are_double_complexes(corpus_complex, ring):
    # d_v∘d_v = 0, d_h∘d_h = 0 and d_h∘d_v = d_v∘d_h, which the barcode's
    # total differential D = d_h + (-1)^p d_v needs, on every full-link summand
    X = corpus_complex
    for S in sorted(oracles.full_links(X)):
        dc = uber._link_cube(cx.link(X, gr._bits(S)), ring, bool(S))
        assert dc.ring == ring
        dc.validate()


def _check_summands_are_shifted_link_cubes(X):
    # summand S is, up to a diagonal change of signs, the cube of the link
    # of S plus the empty face on the m - |S| vertices outside S, shifted
    # by |S| in p and in q (s = S + t, and J is the same vertex set)
    m = X.vertex_count
    for S in sorted(oracles.full_links(X) - {0}):
        k = S.bit_count()
        L = cx.link(X, [v for v in range(m) if S >> v & 1])
        # a full link holds every vertex outside S
        assert (L.original_ids or ()) == tuple(v for v in range(m) if not S >> v & 1)
        for ring in (al.GF2, al.GF(3), al.QQ):
            got, _ = al._page_from_bars(al._barcode(oracles.summand(X, ring, S)), 2)
            want, _ = al._page_from_bars(al._barcode(uber._link_cube(L, ring, True)), 2)
            assert _nontrivial(got) == {(p + k, q + k): d for (p, q), d in want.items() if d}, (S, ring)


def test_each_full_link_summand_is_the_shifted_cube_of_its_link(corpus_complex):
    _check_summands_are_shifted_link_cubes(corpus_complex)


@given(X=complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_each_full_link_summand_is_the_shifted_cube_of_its_link_on_any_complex(X):
    _check_summands_are_shifted_link_cubes(X)


def test_every_barcode_reads_one_kind_of_double_complex(monkeypatch):
    X = cx.random_connected_complex(6, 1)
    received = []
    barcode = al._barcode

    def barcode_spy(dc):
        received.append(dc)
        return barcode(dc)

    monkeypatch.setattr(al, "_barcode", barcode_spy)
    uber.uberhomology(X)
    for ring in (al.GF2, al.GF(3), al.QQ):
        uber.zero_degree_uber_table(X, ring)
        for augmented in (True, False):
            mvss.SpectralSequence(mvss.double_complex(X, ring=ring, augmented=augmented)).page(2)
    assert len(received) == len(oracles.full_links(X)) + 9
    assert all(isinstance(dc, al._DoubleComplex) for dc in received)


def test_uber_respects_the_size_guard():
    X = cx.complex_from_graph(gr.path_graph(6))
    with pytest.raises(SizeGuardExceeded):
        uber.uberhomology(X, max_vertices=5)
    with pytest.raises(SizeGuardExceeded):
        uber.zero_degree_uber_table(X, al.GF2, max_vertices=5)
    with pytest.raises(SizeGuardExceeded):
        uber.bold_homology(gr.path_graph(6), max_vertices=5)


# --------------------------------------------------------------------------
# bold homology


def test_bold_homology_of_trees_is_trivial():
    # trees on at least three vertices; the two-vertex path is complete and
    # therefore carries the complete-graph class instead
    for m in (3, 5, 7):
        assert _bold(gr.path_graph(m)) == {}
    star = gr.Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    assert _bold(star) == {}


def test_bold_homology_detects_complete_graphs():
    for m in (1, 2, 3, 4):
        table = _bold(gr.complete_graph(m))
        assert {j: p.describe() for j, p in table.items()} == {1: "Z"}
        assert uber.euler_characteristic_bold(gr.complete_graph(m)) == -1


def test_bold_homology_of_cycles_climbs_with_length():
    for m in (4, 5, 6):
        table = {j: p.describe() for j, p in _bold(gr.cycle_graph(m)).items()}
        assert table == {m - 2: "Z"}


def test_bold_homology_only_sees_the_one_skeleton(corpus_complex):
    X = corpus_complex
    if X.vertex_count > 7:
        pytest.skip("bold tables on big corpus members are covered elsewhere")
    g = gr.one_skeleton(X)
    bx = {j: (p.free_rank, p.torsion) for j, p in _bold(X).items()}
    bg = {j: (p.free_rank, p.torsion) for j, p in _bold(g).items()}
    assert bx == bg


def test_bold_euler_characteristic_is_consistent(corpus_graph):
    g = corpus_graph
    chi = uber.euler_characteristic_bold(g)
    integral = uber.bold_homology(g, ring=al.ZZ)
    assert chi == sum((-1) ** j * p.free_rank for j, p in integral.items())
    mod2 = uber.bold_homology(g, ring=al.GF2)
    assert chi == sum((-1) ** j * p.free_rank for j, p in mod2.items())


@given(g=connected_graphs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_bold_euler_characteristic_is_the_domination_value_on_generated_graphs(g):
    blocks = gr.connected_domination_polynomial(g)
    assert uber.euler_characteristic_bold(g) == blocks(-1)
    pruned = gr.connected_domination_polynomial(g, prune=True)
    assert list(blocks.coefficients) == list(pruned.coefficients) == oracles.domination_counts_oracle(g)


def test_bold_mod2_dims_bound_rational_dims(corpus_graph):
    g = corpus_graph
    rational = uber.bold_homology(g, ring=al.QQ)
    mod2 = uber.bold_homology(g, ring=al.GF2)
    degrees = set(rational) | set(mod2)
    for j in degrees:
        dim_q = rational.get(j, al.AbelianGroupPresentation(0)).free_rank
        dim_2 = mod2.get(j, al.AbelianGroupPresentation(0)).free_rank
        assert dim_2 >= dim_q


def test_bold_torsion_is_reported_as_a_tuple(corpus_graph):
    for p in uber.bold_homology(corpus_graph).values():
        assert isinstance(p.torsion, tuple)
        assert all(t > 1 for t in p.torsion)


def test_pipelines_build_no_dense_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense product or induced subcomplex built")

    X = capped_square_complex()
    with monkeypatch.context() as patch:
        patch.setattr(cx, "induced_subcomplex", refuse)
        for ring in (al.GF2, al.QQ, al.GF(3)):
            assert uber.zero_degree_uber_table(X, ring)
    monkeypatch.setattr(al.Matrix, "__mul__", refuse)
    assert uber.uberhomology(X)
    for ring in (al.GF2, al.QQ, al.GF(3)):
        assert uber.zero_degree_uber_table(X, ring)
    assert mvss.run_to_convergence(mvss.double_complex(X, ring=al.QQ)).infinity().dims == {}
    assert mvss.verify_identification(X, al.QQ).ok
    for ring in (al.QQ, al.ZZ):
        assert uber.bold_homology(gr.grid_graph(3, 2), ring)
    rp2 = al.simplicial_chain_complex(cx.build_complex(6, PROJECTIVE_PLANE_FACETS), al.ZZ)
    assert al.homology_table(rp2)[1].presentation.torsion == (2,)
    assert al.betti_numbers(al.simplicial_chain_complex(X, al.QQ)) == {0: 1, 1: 0, 2: 0}


def test_integral_bold_homology_of_every_connected_graph_on_at_most_7_vertices(monkeypatch):
    """Bold homology over Z of the 996 connected atlas graphs with 1-7 vertices.

    The free ranks agree with the rational ranks, which count the same
    invariant factors; the field ranks are checked against ``column_rank``
    on the graphs with at most 6 vertices below.  Every level map reduces to nothing
    by unit pivots, so the dense Smith form is never reached, and no graph in
    the sweep has torsion.  The last is an observation on these graphs, not a
    theorem.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("dense Smith normal form reached")

    atlas = oracles.connected_atlas_graphs(7)
    assert len(atlas) == 996
    # uber too, in case it ever binds the name itself
    for module in (al, uber):
        monkeypatch.setattr(module, "smith_normal_form", refuse, raising=False)
    for nxg in atlas:
        G = gr.Graph(nxg.number_of_nodes(), nxg.edges())
        integral = uber.bold_homology(G, al.ZZ)
        rational = uber.bold_homology(G, al.QQ)
        assert {j: p.free_rank for j, p in integral.items()} == {j: p.free_rank for j, p in rational.items()}
        assert all(p.torsion == () for p in integral.values()), G.edges


@pytest.mark.parametrize("ring", [al.QQ, al.GF2, al.GF(3)], ids=str)
def test_bold_free_ranks_over_fields_match_the_column_rank_oracle(ring):
    # over a field the ranks come from the invariant factors over Z; the
    # oracle ranks the same level maps over the field itself
    atlas = oracles.connected_atlas_graphs(6)
    assert len(atlas) == 143
    for nxg in atlas:
        G = gr.Graph(nxg.number_of_nodes(), nxg.edges())
        got = uber.bold_homology(G, ring)
        oracle = oracles.bold_free_ranks_by_column_rank(G, ring)
        assert {j: p.free_rank for j, p in got.items()} == oracle, G.edges
        assert all(p.torsion == () for p in got.values())


# --------------------------------------------------------------------------
# pinned outputs of the three cube pipelines


def _cube_outputs_digest():
    import hashlib

    h = hashlib.sha256()
    for m, s in ((5, 1), (5, 2), (6, 1), (6, 2)):
        X = cx.random_connected_complex(m, s)
        h.update(repr(sorted(uber.uberhomology(X).items())).encode())
        U = uber.UberComplex(X)
        for i, k in U._pairs:
            for j in range(m + 1):
                d = U.differential(j, i, k)
                h.update(repr((j, i, k, d.rows, d.cols, d.to_lists())).encode())
        for ring in (al.QQ, al.GF2, al.GF(3)):
            table = uber.zero_degree_uber_table(X, ring)
            h.update(repr(sorted(table.items())).encode())
    for G in (gr.grid_graph(3, 2), gr.cycle_graph(6), gr.random_connected_graph(7, 0.4, 1)):
        for ring in (al.ZZ, al.QQ, al.GF2):
            table = uber.bold_homology(G, ring)
            h.update(repr([(j, p.free_rank, p.torsion) for j, p in sorted(table.items())]).encode())
    return h.hexdigest()


def test_cube_outputs_are_pinned():
    # überhomology with every level map, the weight-zero table and bold
    # homology, hashed; the digest was recorded while the pipelines still
    # took a sign assignment, from their tables under the ones-below rule
    # that _cube_map now applies
    assert _cube_outputs_digest() == "77e958f624ab1e78a649c04d3da1a2ead4bcbbf47680be6400f2d655dae5a9e2"


@pytest.mark.parametrize(
    "route",
    [
        lambda X: al.simplicial_chain_complex(X, al.ZZ),
        lambda X: uber.HorizontalHomology(X, (0, 1, 1, 0, 1)),
        lambda X: uber.uberhomology(X),
        lambda X: mvss.SpectralSequence(mvss.double_complex(X, ring=al.GF(3))).page(2),
        lambda X: uber.bold_homology(X),
    ],
    ids=["chain-complex", "horizontal-homology", "summand-barcodes", "anti-star-pages", "bold-homology"],
)
def test_every_sign_comes_from_the_one_face_rule(monkeypatch, route):
    # the simplicial boundary, both differentials of every double complex and
    # the cube's level maps all take their faces and signs from algebra._faces
    faces, calls = al._faces, []

    def spy(x):
        calls.append(x)
        return faces(x)

    for module in (al, uber, mvss):
        if getattr(module, "_faces", None) is faces:
            monkeypatch.setattr(module, "_faces", spy)
    route(cx.random_connected_complex(5, 3))
    assert calls
