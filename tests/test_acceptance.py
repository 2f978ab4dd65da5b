"""Acceptance suite: one test per shipping criterion, exact values only.

Criterion 11 asks for exact values of both sides of the Euler identity on the
capped square.  Its required left-hand value was once written as -1, a sign
typo; it is 1.  The 1-skeleton is the wheel W4 (m = 5), with 1, 8, 10, 5, 1
connected dominating sets of sizes 1 to 5, so D(-1) = -1 + 8 - 10 + 5 - 1 = 1
and (-1)^(m-1) * D(-1) = 1, while the contractible cone has chi - 1 = 0.  The
companion test checks the same counts against a brute-force oracle.
"""

from __future__ import annotations

import itertools

import networkx as nx

import oracles
from conftest import complex_corpus, capped_square_complex
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom import mvss
from uberhom import uber


def _table(X, ring):
    return {k: v for k, v in uber.zero_degree_uber_table(X, ring).items() if v}


def _page_dims(page):
    return {pq: page.dim(*pq) for pq in page.nonzero_cells()}


def _signed_domination_at_minus_one(g: gr.Graph) -> int:
    poly = gr.connected_domination_polynomial(g)
    value = sum(c * (-1) ** k for k, c in enumerate(poly.coefficients))
    return (-1) ** (g.vertex_count - 1) * value


RANDOM_COMPLEX_SEEDS = [(4 + i % 4, 100 + i) for i in range(30)]

CHORDAL_SEEDS = [
    (3, 52), (4, 53), (5, 54), (6, 55), (7, 56), (8, 57), (9, 58), (10, 59),
    (3, 62), (4, 63), (5, 64), (6, 65), (7, 66), (8, 67), (9, 68), (10, 69),
    (3, 70), (4, 72), (5, 74), (6, 75),
]

GOOD_COVER_SEEDS = [
    (4, 0), (4, 5), (4, 7), (4, 13), (4, 14),
    (5, 0), (5, 2), (5, 5), (5, 6), (6, 3),
]


def test_criterion_01_circle_zero_degree_table():
    X = cx.boundary_of_simplex(3)
    for ring in (al.GF2, al.QQ):
        assert _table(X, ring) == {(1, 0): 1, (3, 1): 1}


def test_criterion_02_capped_square_unaugmented_pages():
    X = capped_square_complex()
    ss = mvss.run_to_convergence(mvss.double_complex(X, ring=al.QQ, augmented=False))
    assert _page_dims(ss.page(1)) == {
        (0, 0): 5,
        (1, 0): 10,
        (2, 0): 12,
        (3, 0): 5,
        (0, 1): 1,
    }
    assert _page_dims(ss.page(2)) == {(0, 0): 1, (2, 0): 1, (0, 1): 1}
    d2 = ss.differentials(2)
    assert oracles.matrix_rank(d2[(2, 0)]) == 1
    assert _page_dims(ss.page(3)) == {(0, 0): 1}
    assert ss.converged_at == 3


def test_criterion_03_circle_augmented_collapse():
    X = cx.boundary_of_simplex(3)
    for ring in (al.QQ, al.GF2):
        ss = mvss.run_to_convergence(mvss.double_complex(X, ring=ring, augmented=True))
        assert _page_dims(ss.page(2)) == {(-1, 1): 1, (1, 0): 1}
        mat = ss.differentials(2)[(1, 0)]
        assert (mat.rows, mat.cols) == (1, 1) and oracles.matrix_rank(mat) == 1
        assert _page_dims(ss.page(3)) == {}


def test_criterion_04_sphere_family_transgressions():
    for n in (1, 2, 3):
        X = cx.boundary_of_simplex(n + 2)
        ss = mvss.run_to_convergence(mvss.double_complex(X, ring=al.QQ, augmented=True))
        assert _page_dims(ss.page(2)) == {(-1, n): 1, (n, 0): 1}
        # nothing moves before the transgression, which fires on page n+1
        assert _page_dims(ss.page(n + 1)) == {(-1, n): 1, (n, 0): 1}
        assert ss.converged_at == n + 2
        nonzero = {
            pq: m for pq, m in ss.differentials(n + 1).items() if oracles.matrix_rank(m)
        }
        assert set(nonzero) == {(n, 0)}
        assert oracles.matrix_rank(nonzero[(n, 0)]) == 1
        assert _page_dims(ss.infinity()) == {}


def test_criterion_05_identification_on_thirty_random_complexes():
    for m, seed in RANDOM_COMPLEX_SEEDS:
        X = cx.random_connected_complex(m, seed)
        report = mvss.verify_identification(X, ring=al.GF2)
        assert report.ok, (m, seed)
        for j, i, cube_dim, page_dim in report.entries:
            assert cube_dim == page_dim, (m, seed, j, i)


def test_criterion_05_companion_page_column_matches_the_node_cube():
    # both columns of the report are E^2 of one double complex, so the page
    # column is held to the node cube, an independent route
    for m, seed in RANDOM_COMPLEX_SEEDS:
        X = cx.random_connected_complex(m, seed)
        entries = mvss.verify_identification(X, ring=al.GF2).entries
        page = {(j, i): d for j, i, _, d in entries if d}
        assert page == oracles.zero_degree_table_by_cube(X, al.GF2), (m, seed)


def test_criterion_06_zero_slice_of_full_table_matches_dedicated_routine():
    for m, seed in RANDOM_COMPLEX_SEEDS:
        X = cx.random_connected_complex(m, seed)
        full = uber.uberhomology(X)
        slice0 = {(j, i): d for (j, k, i), d in full.items() if k == 0 and d}
        assert slice0 == _table(X, al.GF2), (m, seed)


def test_criterion_07_abutment_on_the_corpus():
    for name, X in complex_corpus():
        for ring in (al.GF2, al.QQ):
            unaug = mvss.run_to_convergence(
                mvss.double_complex(X, ring=ring, augmented=False)
            )
            totals: dict[int, int] = {}
            for (p, q), d in _page_dims(unaug.infinity()).items():
                totals[p + q] = totals.get(p + q, 0) + d
            assert totals == oracles.betti_oracle(X, ring), (name, ring.label())
            aug = mvss.run_to_convergence(
                mvss.double_complex(X, ring=ring, augmented=True)
            )
            assert _page_dims(aug.infinity()) == {}, (name, ring.label())


def test_criterion_08_trees_have_trivial_bold_homology():
    seen = 0
    for m in range(3, 9):
        for nxt in nx.nonisomorphic_trees(m):
            g = gr.Graph(m, nxt.edges())
            table = uber.bold_homology(g, ring=al.ZZ)
            assert all(p.is_trivial for p in table.values()), (m, sorted(g.edges))
            counts = oracles.domination_counts_oracle(g)
            assert sum(c * (-1) ** k for k, c in enumerate(counts)) == 0
            seen += 1
    assert seen == 46


def test_criterion_09_two_row_grids_have_trivial_bold_homology():
    for m in (3, 4, 5):
        g = gr.grid_graph(m, 2)
        table = uber.bold_homology(g, ring=al.ZZ)
        assert all(p.is_trivial for p in table.values()), m
        poly = gr.connected_domination_polynomial(g)
        assert sum(c * (-1) ** k for k, c in enumerate(poly.coefficients)) == 0


def test_criterion_10_chordal_suite_domination_roots():
    assert len(CHORDAL_SEEDS) == 20
    for m, seed in CHORDAL_SEEDS:
        g = gr.random_chordal_graph(m, seed)
        assert gr.is_chordal(g).chordal
        # complete graphs sit outside the statement; the suite avoids them
        assert g.edge_count < m * (m - 1) // 2, (m, seed)
        poly = gr.connected_domination_polynomial(g)
        assert sum(c * (-1) ** k for k, c in enumerate(poly.coefficients)) == 0, (
            m,
            seed,
        )


def test_criterion_11_euler_identity_with_required_counterexample_values():
    for m, seed in CHORDAL_SEEDS:
        g = gr.random_chordal_graph(m, seed)
        X = cx.flag_complex(g)
        assert _signed_domination_at_minus_one(g) == cx.euler_characteristic(X) - 1, (
            m,
            seed,
        )
    X = capped_square_complex()
    lhs = _signed_domination_at_minus_one(gr.one_skeleton(X))
    rhs = cx.euler_characteristic(X) - 1
    # required values for the capped square: the left-hand side was once
    # written as -1, a sign typo; by hand (W4, m = 5), D(-1) = -1 + 8 - 10 +
    # 5 - 1 = 1 and (-1)^4 * 1 = 1, while the contractible cone has chi - 1 = 0
    assert (lhs, rhs) == (1, 0)


def test_criterion_11_companion_machine_checked_counterexample():
    X = capped_square_complex()
    g = gr.one_skeleton(X)
    counts = oracles.domination_counts_oracle(g)
    assert counts == [0, 1, 8, 10, 5, 1]
    alternating = sum(c * (-1) ** k for k, c in enumerate(counts))
    assert alternating == 1
    lhs = (-1) ** (g.vertex_count - 1) * alternating
    assert lhs == _signed_domination_at_minus_one(g) == 1
    rhs = cx.euler_characteristic(X) - 1
    assert rhs == 0
    # the identity genuinely fails here, whichever sign the left side takes
    assert lhs != rhs and -lhs != rhs


def test_criterion_12_cone_invariance_of_the_zero_degree_table():
    cases = [
        cx.boundary_of_simplex(3),
        cx.complex_from_graph(gr.cycle_graph(4)),
        cx.complex_from_graph(gr.cycle_graph(5)),
        cx.complex_from_graph(gr.path_graph(4)),
    ]
    for X in cases:
        C = cx.cone(X)
        for ring in (al.GF2, al.QQ):
            assert _table(C, ring) == _table(X, ring)


def _predicted_suspension_table(X, ring):
    base = _table(X, ring)
    m = X.vertex_count
    skel = gr.one_skeleton(X)
    complete = skel.edge_count == m * (m - 1) // 2
    pred: dict[tuple[int, int], int] = {}
    for (j, i), d in base.items():
        if i >= 2:
            pred[(j, i)] = pred.get((j, i), 0) + d
        if i >= 1:
            pred[(j + 2, i + 1)] = pred.get((j + 2, i + 1), 0) + d
    if not complete:
        for (j, i), d in base.items():
            if i == 0:
                pred[(j, 0)] = pred.get((j, 0), 0) + d
        pred[(2, 0)] = pred.get((2, 0), 0) + 1
    return pred


def test_criterion_13_suspension_formula_outside_the_excluded_row():
    cases = [
        cx.boundary_of_simplex(3),
        cx.standard_simplex(3),
        cx.complex_from_graph(gr.path_graph(3)),
    ]
    for X in cases:
        S = cx.suspension(X)
        for ring in (al.GF2, al.QQ):
            got = {k: v for k, v in _table(S, ring).items() if k[1] != 1}
            want = {
                k: v
                for k, v in _predicted_suspension_table(X, ring).items()
                if k[1] != 1
            }
            assert got == want, X.facets()
    # the row left out of the statement really is exceptional: the suspended
    # path picks up a class there although the path's own table is empty
    path = cx.complex_from_graph(gr.path_graph(3))
    assert _table(path, al.GF2) == {}
    assert {
        k: v for k, v in _table(cx.suspension(path), al.GF2).items() if k[1] == 1
    } == {(4, 1): 1}


def test_criterion_14_triangle_free_shift_into_the_weight_one_row():
    cases = [
        gr.cycle_graph(4),
        gr.cycle_graph(5),
        gr.cycle_graph(6),
        gr.grid_graph(3, 2),
    ]
    for g in cases:
        assert gr.is_triangle_free(g)
        m = g.vertex_count
        X = cx.complex_from_graph(g)
        bold = uber.bold_homology(g, ring=al.GF2)
        dims = {j: p.free_rank for j, p in bold.items() if not p.is_trivial}
        table = _table(X, al.GF2)
        shifted = {j - 2: d for (j, i), d in table.items() if i == 1}
        for j in range(0, m - 1):
            assert dims.get(j, 0) == shifted.get(j, 0), (g.edges, j)
        assert dims.get(m - 1, 0) == 0
        assert dims.get(m, 0) == 0


def test_criterion_15_bold_euler_characteristic_categorifies_domination():
    atlas = oracles.connected_atlas_graphs(6)
    assert len(atlas) == 143
    assert sum(1 for g in atlas if g.number_of_nodes() == 6) == 112
    for nxg in atlas:
        g = gr.Graph(nxg.number_of_nodes(), nxg.edges())
        table = uber.bold_homology(g, ring=al.ZZ)
        chi = sum((-1) ** j * p.free_rank for j, p in table.items())
        counts = oracles.domination_counts_oracle(g)
        assert chi == sum(c * (-1) ** k for k, c in enumerate(counts)), sorted(
            g.edges
        )


def test_criterion_16_nerve_lemma_for_good_star_covers():
    assert len(GOOD_COVER_SEEDS) == 10
    for m, seed in GOOD_COVER_SEEDS:
        X = cx.random_connected_complex(m, seed)
        cov = cx.star_cover(X)
        # verified acyclic intersection-wise, over the integers
        for size in range(1, len(cov.elements) + 1):
            for S in itertools.combinations(range(len(cov.elements)), size):
                inter = cx.cover_intersection(cov, S)
                if inter.is_empty:
                    continue
                cc = al.simplicial_chain_complex(inter, al.ZZ, reduced=True)
                assert all(
                    h.presentation.is_trivial for h in al.homology_table(cc).values()
                ), (m, seed, S)
        N = cx.nerve(cov)
        for ring in (al.QQ, al.GF2):
            ss = mvss.run_to_convergence(
                mvss.double_complex(X, cover=cov, ring=ring, augmented=False)
            )
            assert ss.converged_at <= 2, (m, seed)
            nerve_betti = oracles.betti_oracle(N, ring)
            assert _page_dims(ss.page(2)) == {
                (p, 0): d for p, d in nerve_betti.items()
            }, (m, seed)
