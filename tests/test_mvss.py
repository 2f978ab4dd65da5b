"""Cover spectral sequence: pages, differentials, abutment, identification."""

from __future__ import annotations

import hashlib
import json

import pytest

import oracles
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom import mvss
from uberhom import uber

FIELDS = (al.QQ, al.GF2, al.GF(3))


def _infty_dims(ss):
    page = ss.infinity()
    return {pq: page.dim(*pq) for pq in page.nonzero_cells()}


# --------------------------------------------------------------------------
# the double complex itself


def test_double_complex_validates_on_corpus(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex():
        return
    for ring in (al.QQ, al.GF2):
        for augmented in (True, False):
            mvss.double_complex(X, ring=ring, augmented=augmented).validate()


def test_double_complex_validates_with_star_covers():
    for n in (4, 5, 6):
        X = cx.complex_from_graph(gr.cycle_graph(n))
        for augmented in (True, False):
            dc = mvss.double_complex(
                X, cover=cx.star_cover(X), ring=al.QQ, augmented=augmented
            )
            dc.validate()


@pytest.mark.parametrize("name", ["dv_sparse", "dh_sparse"])
def test_validate_raises_on_a_corrupted_differential(monkeypatch, name):
    dc = mvss.double_complex(cx.boundary_of_simplex(3), ring=al.QQ)
    original = getattr(dc, name)

    def corrupted(p, q):
        # double the first entry of the first nonzero column
        cols = [list(col) for col in original(p, q)]
        for col in cols:
            if col:
                row, c = col[0]
                col[0] = (row, 2 * c)
                break
        return cols

    monkeypatch.setattr(dc, name, corrupted)
    with pytest.raises(ValueError, match="fails at bidegree"):
        dc.validate()


def test_first_page_checks_that_the_vertical_differential_squares_to_zero(monkeypatch):
    dc = mvss.double_complex(cx.boundary_of_simplex(4), ring=al.QQ)
    original = dc.dv_sparse

    def corrupted(p, q):
        # double the first entry of the first nonzero column
        cols = [list(col) for col in original(p, q)]
        for col in cols:
            if col:
                row, c = col[0]
                col[0] = (row, 2 * c)
                break
        return cols

    monkeypatch.setattr(dc, "dv_sparse", corrupted)
    with pytest.raises(ValueError, match=r"d_v∘d_v = 0 fails at bidegree \(-1, 2\)"):
        mvss.SpectralSequence(dc).page(1)


def test_columns_are_indexed_by_nerve_simplices():
    X = cx.boundary_of_simplex(3)
    cov = cx.anti_star_cover(X)
    dc = mvss.double_complex(X, augmented=False)
    N = cx.nerve(cov)
    for p in range(N.max_dim + 1):
        assert sorted(dc.column(p)) == sorted(N.simplices_of_dim(p))


# --------------------------------------------------------------------------
# the first page


def test_first_page_dims_are_cover_intersection_homology(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex() or X.vertex_count > 7:
        return
    cov = cx.anti_star_cover(X)
    for ring in (al.QQ, al.GF2):
        dc = mvss.double_complex(X, ring=ring, augmented=True)
        p1 = mvss.first_page(dc)
        expected = {(-1, q): d for q, d in oracles.betti_oracle(X, ring).items()}
        for p in range(X.vertex_count):
            for S in dc.column(p):
                inter = cx.cover_intersection(cov, S)
                if inter.is_empty:
                    continue
                for q, d in oracles.betti_oracle(inter, ring).items():
                    expected[(p, q)] = expected.get((p, q), 0) + d
        got = {pq: p1.dim(*pq) for pq in p1.nonzero_cells()}
        assert got == {pq: d for pq, d in expected.items() if d}


def test_augmented_spectral_sequence_collapses_to_zero(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex():
        return
    for ring in (al.QQ, al.GF2):
        ss = mvss.run_to_convergence(mvss.double_complex(X, ring=ring, augmented=True))
        assert _infty_dims(ss) == {}
        assert ss.abutment_dims() == {}


def test_unaugmented_abutment_is_the_homology_of_the_space(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex():
        return
    for ring in (al.QQ, al.GF2):
        ss = mvss.run_to_convergence(mvss.double_complex(X, ring=ring, augmented=False))
        totals = {}
        for (p, q), d in _infty_dims(ss).items():
            totals[p + q] = totals.get(p + q, 0) + d
        assert totals == oracles.betti_oracle(X, ring)


# --------------------------------------------------------------------------
# page mechanics


def test_page_dims_track_differential_ranks(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex() or X.vertex_count > 6:
        return
    ss = mvss.run_to_convergence(mvss.double_complex(X, ring=al.GF2, augmented=True))
    top = ss.converged_at
    for r in range(1, top + 1):
        cur, nxt = ss.page(r), ss.page(r + 1)
        diffs = ss.differentials(r)
        ranks = {pq: al.matrix_rank(m) for pq, m in diffs.items()}
        cells = set(cur.nonzero_cells()) | set(nxt.nonzero_cells())
        for p, q in cells:
            out = ranks.get((p, q), 0)
            into = ranks.get((p + r, q - r + 1), 0)
            assert nxt.dim(p, q) == cur.dim(p, q) - out - into
        for (p, q), m in diffs.items():
            assert m.cols == cur.dim(p, q)
            assert m.rows == cur.dim(p - r, q + r - 1)
            assert cur.differential_rank(p, q) == ranks[(p, q)]


# SHA-256 of every page's dims and differential matrices, recorded before the
# dead subspaces became persistent spans: the representative bases (hence the
# matrices) must not move.  Keys are (m, seed, ring, augmented) of the
# anti-star sequence of random_connected_complex(m, seed); "star" is the plain
# star-cover sequence of random_connected_complex(6, 3) over QQ.
PINNED_PAGES = {
    (5, 1, "Q", True): "f94d08248d273863bcd569529382b354850b0404943e88332aa5155b1529ce77",
    (5, 1, "Q", False): "8ce537626daf7901e82a8fe93fd8bc7344d0a3670ff6cbb0d308df5d2775248e",
    (5, 1, "F3", True): "d5531ccac47d59e1972f909ed8db408c69b48ebe9efdcf12dbaa1a66a021828f",
    (5, 1, "F3", False): "5e1b7c52fc978c8e190118ff93e47e1fdecb238de1943787feea034a664bb36b",
    (5, 1, "F2", True): "53b9ba78f50a5cf0b599880227532dd4949fb015780ed9ddb02ddb38b42f1d43",
    (5, 1, "F2", False): "6d3628a28e4e3b39269357d45f9b9345c09351a3ae299af396947b301a75ddaa",
    (5, 2, "Q", True): "b037b90168b57a1227f397d840e24ea29f8cdb0fc8a1f70fcecffd6f680c6619",
    (5, 2, "Q", False): "ec392bd6fb6820f1737c2b933bb55a0bfc27d3eb7f949f4cd9fb66586d16dc38",
    (5, 2, "F3", True): "5490c9ee75c5b62e9340181d4d81802786c56a44f43c164e02c78be332cb56ea",
    (5, 2, "F3", False): "0ccd7cdc319e769e5dfe0ecc82a14b5be050c3a3af089e3719441a65d251c9aa",
    (5, 2, "F2", True): "69dbc5f076047c6d935a5feec06e049e13ecd09fdb6408cca403e6d16c1080b2",
    (5, 2, "F2", False): "3d2d4140acfc5b8142af03b6877c5a7899c6ac518c0a3653c40e6710bc3a9709",
    (6, 1, "Q", True): "4a2537cac30a56b9a31fd87636fb6860457a0def12dc5004f91cab7965f89e46",
    (6, 1, "Q", False): "c16a40b16d71888739b747f63f0372e68f62a34605a6e1e34fde82745e224932",
    (6, 1, "F3", True): "eee2d743623262e09edd40f07add1446b36c72087a7b3dba4098a61d2a8a8ad5",
    (6, 1, "F3", False): "90d3bca726b409dc92b8bdd78466b93d6ae43ed351189631544a6022b31a5502",
    (6, 1, "F2", True): "fb2066d2433e8e51229af19dfea0cf5b05eae49d64bc8e886882ccec0ee7590e",
    (6, 1, "F2", False): "dd111fa0d14bcf0a623362beb05a1e449a0d9fc2216f1119d60d564dfef89ffc",
    (6, 2, "Q", True): "974b92e027f5d9f8e0830e837b6c380ee35b4f2a0337ca64e07bc5b3be9af3f8",
    (6, 2, "Q", False): "8fe514177263e1b77d73807c68547ce493a53394d8abe9ea51942fdbd06c565b",
    (6, 2, "F3", True): "abad08980252de1fbf37a7722488b8e3b46cbaee83e134fac0955087cbe0b0fc",
    (6, 2, "F3", False): "10ad2b19ba4215d5cc28a26c4de01c022f667278a01b4c2df2913fa4107a842f",
    (6, 2, "F2", True): "6f9a3c232c5408e2caaef067c59e5fcef31f60fe042c29bb2f26772c65eb25ad",
    (6, 2, "F2", False): "df48552d916362527c4614e53e1ac952e897733c33ac79dd90b39268dbb81e0e",
    "star": "9569e263553fd2d5eae99b7c4c9928490d8e7520999dcaae9ddd149103605c96",
}


def _pages_digest(ss):
    digest = hashlib.sha256()
    for r in range(1, ss.width + 2):
        page = ss.page(r)
        diffs = sorted((cell, mat.to_lists()) for cell, mat in page.differentials.items())
        digest.update(repr((r, sorted(page.dims.items()), diffs)).encode())
    return digest.hexdigest()


def test_page_differentials_are_pinned():
    rings = {ring.label(): ring for ring in FIELDS}
    got = {}
    for key in PINNED_PAGES:
        if key == "star":
            X = cx.random_connected_complex(6, 3)
            dc = mvss.double_complex(X, cover=cx.star_cover(X), ring=al.QQ, augmented=False)
        else:
            m, seed, label, augmented = key
            dc = mvss.double_complex(cx.random_connected_complex(m, seed), ring=rings[label], augmented=augmented)
        got[key] = _pages_digest(mvss.run_to_convergence(dc))
    assert got == PINNED_PAGES


def test_pages_freeze_after_convergence():
    X = cx.boundary_of_simplex(4)
    ss = mvss.run_to_convergence(mvss.double_complex(X, ring=al.QQ, augmented=True))
    limit = _infty_dims(ss)
    for r in range(ss.converged_at, ss.converged_at + 3):
        page = ss.page(r)
        assert {pq: page.dim(*pq) for pq in page.nonzero_cells()} == limit
        assert not page.has_nonzero_differential()
        assert ss.differentials(r) == {}


def test_sphere_spectral_sequences_collapse_exactly_at_the_transgression():
    # the n-sphere as a simplex boundary: one differential of rank one on
    # page n + 1 wipes the two surviving cells
    for n in (1, 2, 3):
        X = cx.boundary_of_simplex(n + 2)
        ss = mvss.run_to_convergence(mvss.double_complex(X, ring=al.QQ, augmented=True))
        assert ss.converged_at == n + 2
        diffs = ss.differentials(n + 1)
        nonzero = {pq: m for pq, m in diffs.items() if al.matrix_rank(m)}
        assert len(nonzero) == 1
        ((pq, mat),) = nonzero.items()
        assert al.matrix_rank(mat) == 1
        assert ss.page(n + 2).nonzero_cells() == []


# --------------------------------------------------------------------------
# rendering and serialization


def test_render_page_goldens():
    X = cx.boundary_of_simplex(3)
    ss = mvss.run_to_convergence(mvss.double_complex(X, ring=al.QQ, augmented=True))
    assert mvss.render_page(ss.page(1), al.QQ) == (
        "E^1\n"
        " q\\p  -1    0    1\n"
        "   1   Q    .    .\n"
        "   0   Q  Q^3  Q^3"
    )
    assert mvss.render_page(ss.page(2), al.QQ) == (
        "E^2\n"
        " q\\p  -1  0  1\n"
        "   1   Q  .  .\n"
        "   0   .  .  Q"
    )
    assert mvss.render_page(ss.page(3), al.QQ) == "E^3: 0"


def test_page_to_json_schema():
    X = cx.boundary_of_simplex(3)
    ss = mvss.run_to_convergence(mvss.double_complex(X, ring=al.QQ, augmented=True))
    doc = json.loads(mvss.page_to_json(ss.page(2), converged_at=ss.converged_at))
    assert doc == {
        "page": 2,
        "converged_at": 3,
        "cells": [
            {"dim": 1, "p": -1, "q": 1},
            {"dim": 1, "p": 1, "q": 0},
        ],
        "differentials": [{"from": [1, 0], "rank": 1, "to": [-1, 1]}],
    }
    # serialization is deterministic
    assert mvss.page_to_json(ss.page(2)) == mvss.page_to_json(ss.page(2))


# --------------------------------------------------------------------------
# identification with the cube grading


def test_identification_on_corpus(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex() or X.vertex_count > 7:
        return
    for ring in FIELDS:
        report = mvss.verify_identification(X, ring=ring)
        assert report.ok
        for j, i, cube_dim, page_dim in report.entries:
            assert cube_dim == page_dim
        assert report.render().endswith("PASS")


def test_identification_on_a_complex_that_carries_original_ids():
    X = cx.induced_subcomplex(cx.complex_from_graph(gr.cycle_graph(7)), [1, 2, 3, 4, 5])
    assert X.original_ids == (1, 2, 3, 4, 5)
    plain = cx.build_complex(X.vertex_count, X.facets())
    report = mvss.verify_identification(X, al.GF2)
    assert report.ok
    assert report == mvss.verify_identification(plain, al.GF2)


def test_identification_covers_every_nonzero_cell_of_both_sides():
    X = cx.boundary_of_simplex(3)
    report = mvss.verify_identification(X, ring=al.QQ)
    seen = {(j, i): cube for j, i, cube, _ in report.entries if cube}
    table = {k: v for k, v in uber.zero_degree_uber_table(X, al.QQ).items() if v}
    assert seen == table


def test_second_differential_lands_on_the_cube_grid(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex() or X.vertex_count > 6:
        return
    for ring in (al.QQ, al.GF2):
        table = uber.zero_degree_uber_table(X, ring)
        dims = {k: v for k, v in table.items() if v}
        d2 = mvss.delta2_on_uber(X, ring=ring)
        assert set(d2) == set(dims)
        for (j, i), mat in d2.items():
            assert mat.cols == dims[(j, i)]
            assert mat.rows == dims.get((j + 2, i + 1), 0)


def test_second_differential_of_the_circle_is_an_isomorphism():
    d2 = mvss.delta2_on_uber(cx.boundary_of_simplex(3), ring=al.QQ)
    assert al.matrix_rank(d2[(1, 0)]) == 1
    assert d2[(3, 1)].rows == 0


# --------------------------------------------------------------------------
# star covers and the nerve lemma


def _is_good_cover(cov, max_subset=4):
    import itertools

    m = len(cov.elements)
    for size in range(1, min(m, max_subset) + 1):
        for S in itertools.combinations(range(m), size):
            inter = cx.cover_intersection(cov, S)
            if inter.is_empty:
                continue
            cc = al.simplicial_chain_complex(inter, al.QQ, reduced=True)
            if any(al.betti_numbers(cc).values()):
                return False
    return True


def test_nerve_lemma_for_good_star_covers():
    cases = [cx.complex_from_graph(gr.cycle_graph(n)) for n in (5, 6)]
    cases += [cx.random_connected_complex(m, seed) for m, seed in ((4, 0), (5, 0), (6, 3))]
    for X in cases:
        cov = cx.star_cover(X)
        assert _is_good_cover(cov, max_subset=X.vertex_count)
        N = cx.nerve(cov)
        for ring in (al.QQ, al.GF2):
            ss = mvss.run_to_convergence(
                mvss.double_complex(X, cover=cov, ring=ring, augmented=False)
            )
            assert ss.converged_at <= 2
            nerve_betti = oracles.betti_oracle(N, ring)
            e2 = ss.page(2)
            got = {pq: e2.dim(*pq) for pq in e2.nonzero_cells()}
            assert got == {(p, 0): d for p, d in nerve_betti.items()}
            totals = {}
            for (p, q), d in _infty_dims(ss).items():
                totals[p + q] = totals.get(p + q, 0) + d
            assert totals == oracles.betti_oracle(X, ring)


def test_square_star_cover_is_not_good_but_still_abuts_correctly():
    X = cx.complex_from_graph(gr.cycle_graph(4))
    cov = cx.star_cover(X)
    assert not _is_good_cover(cov, max_subset=4)
    ss = mvss.run_to_convergence(
        mvss.double_complex(X, cover=cov, ring=al.QQ, augmented=False)
    )
    totals = {}
    for (p, q), d in _infty_dims(ss).items():
        totals[p + q] = totals.get(p + q, 0) + d
    assert totals == oracles.betti_oracle(X, al.QQ)


# --------------------------------------------------------------------------
# guards


def test_identification_respects_the_size_guard():
    X = cx.complex_from_graph(gr.path_graph(6))
    from uberhom.errors import SizeGuardExceeded

    with pytest.raises(SizeGuardExceeded):
        mvss.verify_identification(X, max_vertices=5)
