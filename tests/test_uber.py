"""Cube-of-colourings homology: triply graded table, 0-degree slice, bold."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import PROJECTIVE_PLANE_FACETS, capped_square_complex, glued_triangles
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom import mvss, uber
from uberhom.errors import SizeGuardExceeded


def _nontrivial(table):
    return {k: v for k, v in table.items() if v}


def _bold(obj, ring=al.ZZ, **kw):
    return {
        j: p for j, p in uber.bold_homology(obj, ring=ring, **kw).items()
        if not p.is_trivial
    }


# --------------------------------------------------------------------------
# colourings, weights, sign assignments


def test_colouring_enumeration_and_level():
    cols = uber.all_colourings(3)
    assert len(cols) == 8
    assert len(set(cols)) == 8
    for c in cols:
        assert uber.colouring_level(c) == sum(c)


def test_weight_counts_unpainted_vertices():
    colouring = (0, 1, 1, 0)
    assert uber.weight((0,), colouring) == 1
    assert uber.weight((1, 2), colouring) == 0
    assert uber.weight((0, 3), colouring) == 2
    assert uber.weight((0, 1, 2, 3), colouring) == 2


def test_sign_assignments_anticommute():
    for m in range(1, 6):
        assert uber.verify_sign_assignment(m, uber.STANDARD_SIGNS)
        assert uber.verify_sign_assignment(m, uber.ALTERNATE_SIGNS)


def test_constant_plus_one_signs_fail_to_anticommute():
    bad = uber.SignAssignment("constant", lambda mask, v: 1)
    assert not uber.verify_sign_assignment(2, bad)
    assert not uber.verify_sign_assignment(4, bad)


ALL_PLUS = uber.SignAssignment("all-plus", lambda mask, v: 1)


@pytest.mark.parametrize("ring", [al.ZZ, al.QQ], ids=str)
def test_bold_homology_refuses_signs_that_do_not_anticommute(ring):
    # with all-plus signs the level maps do not compose to zero, and the
    # rank formula would give degree 3 of the 4-cycle free rank -1 and
    # torsion (2,)
    with pytest.raises(ValueError, match="does not anticommute"):
        uber.bold_homology(gr.cycle_graph(4), ring, signs=ALL_PLUS)


@pytest.mark.parametrize("ring", [al.ZZ, al.QQ], ids=str)
def test_zero_degree_table_refuses_signs_that_do_not_anticommute(ring):
    # over Q the rank formula would give the dimension -1 at (3, 0); over Z
    # the sign check comes before the refusal of non-field coefficients
    X = cx.complex_from_graph(gr.cycle_graph(4))
    with pytest.raises(ValueError, match="does not anticommute"):
        uber.zero_degree_uber_table(X, ring, signs=ALL_PLUS)


def test_tables_do_not_depend_on_the_sign_assignment(corpus_complex):
    X = corpus_complex
    if X.vertex_count > 8:
        pytest.skip("keep the doubled computation small")
    for ring in (al.QQ, al.GF2):
        std = _nontrivial(uber.zero_degree_uber_table(X, ring, signs=uber.STANDARD_SIGNS))
        alt = _nontrivial(uber.zero_degree_uber_table(X, ring, signs=uber.ALTERNATE_SIGNS))
        assert std == alt


# --------------------------------------------------------------------------
# horizontal homology of a single colouring


def test_horizontal_complex_splits_by_weight():
    X = capped_square_complex()
    colouring = (0, 1, 0, 1, 1)
    hh = uber.horizontal_homology(X, colouring)
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
        uber.horizontal_homology(cx.boundary_of_simplex(3), colouring)


def test_cube_nodes_are_the_induced_subcomplexes(corpus_complex):
    X = corpus_complex
    for ring in (al.ZZ, al.QQ, al.GF2, al.GF(3)):
        for mask, bases in enumerate(uber._cube_node_bases(X)):
            node = al._boundary_complex(ring, bases)
            sub = cx.induced_subcomplex(X, [v for v in range(X.vertex_count) if mask >> v & 1])
            ref = al.simplicial_chain_complex(sub, ring)
            assert [node.rank(n) for n in X.dims()] == [ref.rank(n) for n in X.dims()]
            for n in range(1, X.max_dim + 1):
                assert node.diff(n) == ref.diff(n)


def test_horizontal_dims_match_per_weight_homology():
    X = capped_square_complex()
    for colouring in uber.all_colourings(X.vertex_count)[:8]:
        hh = uber.horizontal_homology(X, colouring)
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
    assert uber.uberhomology(X)
    expected = []
    for colouring in uber.all_colourings(X.vertex_count):
        for k in {uber.weight(s, colouring) for s in X.all_simplices()}:
            ranks = [sum(1 for s in X.simplices_of_dim(n) if uber.weight(s, colouring) == k) for n in X.dims()]
            expected.append(tuple(ranks))
    assert sorted(tables) == sorted(expected)


def test_horizontal_homology_outside_a_weights_complex_is_zero():
    # the circle coloured (0, 1, 1): weight 0 lives in dimensions 0 and 1,
    # weight 1 in dimensions 0 and 1, and no simplex has weight 2
    hh = uber.horizontal_homology(cx.boundary_of_simplex(3), (0, 1, 1))
    assert hh.weights() == [0, 1]
    for i, k in ((2, 0), (-1, 1), (5, 1), (0, 2), (1, 2)):
        h = hh.homology(i, k)
        assert h.dim == 0 and h.representatives == []
        assert h.reduce(al.vector_ops(al.GF2).zero(0)) == []
    assert hh.dims() == {(0, 0): 1, (1, 1): 1}


def test_all_ones_colouring_gives_plain_homology_at_weight_zero():
    X = cx.boundary_of_simplex(3)
    colouring = (1,) * X.vertex_count
    hh = uber.horizontal_homology(X, colouring)
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


def test_zero_slice_agrees_with_dedicated_routine(corpus_complex):
    X = corpus_complex
    if X.vertex_count > 7:
        pytest.skip("full table kept small; the slice routine covers the rest")
    full = uber.uberhomology(X)
    slice0 = {(j, i): d for (j, k, i), d in full.items() if k == 0 and d}
    assert slice0 == _nontrivial(uber.zero_degree_uber_table(X, al.GF2))


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


def test_zero_degree_table_by_degree_agrees_with_table(corpus_complex):
    X = corpus_complex
    table = _nontrivial(uber.zero_degree_uber_table(X, al.GF2))
    degrees = {i for _, i in table} | {0, 1}
    by_degree = {}
    for i in degrees:
        for j, d in uber.zero_degree_uber(X, al.GF2, i).items():
            if d:
                by_degree[(j, i)] = d
    assert by_degree == table


@pytest.mark.parametrize("ring", [al.QQ, al.GF2, al.GF(3)], ids=str)
def test_the_zero_degree_table_reduces_each_node_differential_once(monkeypatch, ring):
    # one homology walk per cube node: reducing each differential both as a
    # kernel and as the boundaries one degree down took 1,087 inserts on
    # this input; one reduction per differential takes 827
    calls = []
    insert = al.Span.insert

    def spy(self, v):
        calls.append(1)
        return insert(self, v)

    monkeypatch.setattr(al.Span, "insert", spy)
    table = uber.zero_degree_uber_table(cx.random_connected_complex(6, 1), ring)
    assert _nontrivial(table) == {(2, 0): 1, (4, 1): 1}
    assert len(calls) < 1087


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


DOUBLED = uber.SignAssignment("doubled", lambda mask, v: 2 * uber.STANDARD_SIGNS(mask, v))


@pytest.mark.parametrize("ring", [al.ZZ, al.QQ, al.GF(3)], ids=str)
def test_cube_pipelines_refuse_signs_that_are_not_plus_or_minus_one(ring):
    # twice the standard signs still anticommute, but the integer
    # elimination behind bold homology pivots on entries +-1 only
    assert uber.verify_sign_assignment(4, DOUBLED)
    with pytest.raises(ValueError, match="not \\+1 or -1"):
        uber.bold_homology(gr.cycle_graph(4), ring, signs=DOUBLED)
    with pytest.raises(ValueError, match="not \\+1 or -1"):
        uber.zero_degree_uber_table(cx.complex_from_graph(gr.cycle_graph(4)), ring, signs=DOUBLED)


def test_each_cube_call_reads_the_sign_rule_once_per_edge():
    # the sign check, the anticommutation check and the edge maps share one table
    calls = []

    def rule(mask, v):
        calls.append((mask, v))
        return uber.STANDARD_SIGNS(mask, v)

    signs = uber.SignAssignment("counted", rule)
    X = cx.random_connected_complex(6, 1)
    for run in (
        lambda: uber.bold_homology(gr.cycle_graph(6), signs=signs),
        lambda: uber.zero_degree_uber_table(X, al.QQ, signs=signs),
        lambda: uber.verify_sign_assignment(6, signs),
    ):
        calls.clear()
        run()
        assert len(calls) == 6 * 2**5
        assert len(set(calls)) == len(calls)


# --------------------------------------------------------------------------
# pinned outputs of the three cube pipelines


def _cube_outputs_digest():
    import hashlib

    h = hashlib.sha256()
    sign_choices = (uber.STANDARD_SIGNS, uber.ALTERNATE_SIGNS)
    for m, s in ((5, 1), (5, 2), (6, 1), (6, 2)):
        X = cx.random_connected_complex(m, s)
        h.update(repr(sorted(uber.uberhomology(X).items())).encode())
        U = uber.UberComplex(X)
        for i, k in U._pairs:
            for j in range(m + 1):
                d = U.differential(j, i, k)
                h.update(repr((j, i, k, d.rows, d.cols, d.to_lists())).encode())
        for ring in (al.QQ, al.GF2, al.GF(3)):
            for signs in sign_choices:
                table = uber.zero_degree_uber_table(X, ring, signs)
                h.update(repr(sorted(table.items())).encode())
    for G in (gr.grid_graph(3, 2), gr.cycle_graph(6), gr.random_connected_graph(7, 0.4, 1)):
        for ring in (al.ZZ, al.QQ, al.GF2):
            for signs in sign_choices:
                table = uber.bold_homology(G, ring, signs)
                h.update(repr([(j, p.free_rank, p.torsion) for j, p in sorted(table.items())]).encode())
    return h.hexdigest()


def test_cube_outputs_are_pinned():
    # überhomology with every level map, the weight-zero table and bold
    # homology, hashed; the digest was recorded before the three pipelines
    # shared one level-map assembler
    assert _cube_outputs_digest() == "8462c7937c488ddd524f993f87fb9a1a7e3a34e73d46b45123a5a8d4433694ab"
