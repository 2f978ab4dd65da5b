"""Cover spectral sequence: pages, differentials, abutment, identification."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import connected_complexes
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom import mvss
from uberhom import uber
from uberhom.errors import LiftFailure

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


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_a_page_turn_refuses_a_kernel_element_with_a_nonzero_differential(monkeypatch, ring):
    # every unit vector as the kernel: where d^1 is nonzero, a unit vector's
    # image keeps a class part, which no dead staircase can clear
    monkeypatch.setattr(mvss, "nullspace", lambda ops, columns, n: [ops.unit(n, t) for t in range(n)])
    ss = mvss.SpectralSequence(mvss.double_complex(cx.boundary_of_simplex(3), ring=ring))
    with pytest.raises(LiftFailure, match="page-1 kernel element at .* has a nonzero differential"):
        ss._turn_to(2)


def test_columns_are_indexed_by_nerve_simplices():
    X = cx.boundary_of_simplex(3)
    cov = cx.anti_star_cover(X)
    dc = mvss.double_complex(X, augmented=False)
    N = cx.nerve(cov)
    for p in range(N.max_dim + 1):
        assert sorted(dc.column(p)) == sorted(N.simplices_of_dim(p))


def _dense(columns, rows):
    out = [[0] * len(columns) for _ in range(rows)]
    for c, col in enumerate(columns):
        for r, x in col:
            assert 0 <= r < rows
            out[r][c] += x
    return out


@pytest.mark.parametrize("cover_of", [cx.anti_star_cover, cx.star_cover], ids=["anti-star", "star"])
@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "plain"])
def test_blocks_of_the_differentials_are_the_intersection_boundaries(corpus_complex, cover_of, augmented):
    X = corpus_complex
    if X.is_standard_simplex():
        return
    cover = cover_of(X)
    dc = mvss.DoubleComplex(X, cover, al.QQ, augmented=augmented)

    def basis(p, q):
        # (J, s) with s in ambient ids: the renumbering is monotone, so the order is kept
        out = []
        for J in dc.column(p):
            inter = cx.cover_intersection(cover, J)
            ids = inter.original_ids or range(X.vertex_count)
            out += [(J, tuple(ids[v] for v in s)) for s in inter.simplices_of_dim(q)]
        return out

    for p, q in dc.cells():
        # each block of d_v is the boundary of the renumbered intersection
        dv, col0, row0 = dc.dv_sparse(p, q), 0, 0
        for J in dc.column(p):
            inter = cx.cover_intersection(cover, J)
            size, low = len(inter.simplices_of_dim(q)), len(inter.simplices_of_dim(q - 1))
            block = [[(r - row0, x) for r, x in col] for col in dv[col0 : col0 + size]]
            if q:
                assert _dense(block, low) == oracles.boundary_rows(inter, q)
            else:
                assert all(not col for col in block)
            col0, row0 = col0 + size, row0 + low
        assert col0 == dc.cell_dim(p, q) == len(dv)
        # the column of (J, s) in d_h has the entries (J minus element k, s), sign (-1)^k
        left = {key: row for row, key in enumerate(basis(p - 1, q))} if p > dc.p_min else None
        dh = dc.dh_sparse(p, q)
        assert len(dh) == dc.cell_dim(p, q)
        for (J, s), col in zip(basis(p, q), dh):
            expected = {} if left is None else {left[J[:k] + J[k + 1 :], s]: (-1) ** k for k in range(len(J))}
            assert len(col) == len(expected) and dict(col) == expected


def test_the_double_complex_reads_each_cover_element_once(monkeypatch):
    X = cx.random_connected_complex(7, 1)
    cover = cx.anti_star_cover(X)
    original = cx.Cover.element_simplices
    calls = []

    def spy(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(cx.Cover, "element_simplices", spy)
    for augmented in (True, False):
        calls.clear()
        mvss.DoubleComplex(X, cover, al.GF2, augmented=augmented)
        assert len(calls) <= len(cover)


# --------------------------------------------------------------------------
# the first page


def test_first_page_dims_are_cover_intersection_homology(corpus_complex):
    X = corpus_complex
    if X.is_standard_simplex() or X.vertex_count > 7:
        return
    cov = cx.anti_star_cover(X)
    for ring in (al.QQ, al.GF2):
        dc = mvss.double_complex(X, ring=ring, augmented=True)
        p1 = mvss.SpectralSequence(dc).page(1)
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


@given(X=connected_complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_abutment_is_the_homology_of_the_space_on_generated_complexes(X):
    # plain: the limit is the homology of X; augmented: every row is exact
    for ring in (al.GF2, al.GF(3), al.QQ):
        plain = mvss.run_to_convergence(mvss.double_complex(X, ring=ring, augmented=False))
        assert plain.abutment_dims() == oracles.betti_oracle(X, ring)
        augmented = mvss.run_to_convergence(mvss.double_complex(X, ring=ring, augmented=True))
        assert augmented.abutment_dims() == {}


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
        ranks = {pq: oracles.matrix_rank(m) for pq, m in diffs.items()}
        cells = set(cur.nonzero_cells()) | set(nxt.nonzero_cells())
        for p, q in cells:
            out = ranks.get((p, q), 0)
            into = ranks.get((p + r, q - r + 1), 0)
            assert nxt.dim(p, q) == cur.dim(p, q) - out - into
        for (p, q), m in diffs.items():
            assert m.cols == cur.dim(p, q)
            assert m.rows == cur.dim(p - r, q + r - 1)
            assert cur.differential_rank(p, q) == ranks[(p, q)]


@pytest.mark.parametrize("ring", [al.QQ, al.GF(3)], ids=str)
def test_page_ranks_are_the_ranks_of_the_page_differentials(corpus_complex, ring):
    # each page keeps the ranks found when it turned; the dense matrices are
    # ranked again here only by the oracle
    X = corpus_complex
    if X.vertex_count > 6:
        return
    for augmented in (True, False):
        ss = mvss.run_to_convergence(mvss.double_complex(X, ring=ring, augmented=augmented))
        for r in range(1, ss.converged_at + 1):
            page, diffs = ss.page(r), ss.differentials(r)
            assert page.ranks == {pq: oracles.matrix_rank(m) for pq, m in diffs.items()}
            assert page.has_nonzero_differential() == any(not m.is_zero() for m in diffs.values())


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
        diffs = sorted((cell, mat.to_lists()) for cell, mat in ss.differentials(r).items())
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


def _total_differential_in_column(dc, x, n, c):
    """Nonzero entries, in column c, of D = d_h + (-1)^c d_v applied to a
    staircase x of total degree n."""
    ops = al.vector_ops(dc.ring)
    acc = {}
    for col, sparse, sign in ((c + 1, dc.dh_sparse, 1), (c, dc.dv_sparse, (-1) ** c)):
        if col in x:
            columns = sparse(col, n - col)
            for idx, a in ops.items(x[col]):
                for row, b in columns[idx]:
                    acc[row] = acc.get(row, 0) + sign * a * b
    p = dc.ring.p
    return {row: v for row, v in acc.items() if (v % p if p else v)}


@pytest.mark.parametrize("augmented", [True, False])
@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_every_page_class_is_a_staircase_whose_total_differential_vanishes_above_its_target(ring, augmented):
    # a page-r class at (p, q) has D = 0 in columns p - r + 1 .. p; its
    # component in column p - r is d^r
    checked = 0
    for m, seed in ((5, 1), (5, 2), (6, 1), (6, 2)):
        dc = mvss.double_complex(cx.random_connected_complex(m, seed), ring=ring, augmented=augmented)
        ss = mvss.SpectralSequence(dc)
        for r in range(1, ss.width + 2):
            ss._turn_to(r)
            for (p, q), xs in ss._classes.items():
                for x in xs:
                    for c in range(p - r + 1, p + 1):
                        assert _total_differential_in_column(dc, x, p + q, c) == {}, (m, seed, r, (p, q), c)
                        checked += 1
    assert checked


def _assert_routes_agree(ss):
    """The barcode's pages against the staircase engine's, page by page:
    dims against the engine's class counts, ranks against the oracle's
    ranks of the engine's matrices, then the convergence page and the
    abutment."""
    last_nonzero = 0
    for r in range(1, ss.width + 2):
        ss._turn_to(r)
        classes = {cell: len(xs) for cell, xs in ss._classes.items() if xs}
        page, diffs = ss.page(r), ss.differentials(r)
        assert page.dims == classes, r
        assert page.ranks == {pq: oracles.matrix_rank(m) for pq, m in diffs.items()}, r
        if any(not m.is_zero() for m in diffs.values()):
            last_nonzero = r
    assert ss.converged_at == last_nonzero + 1
    totals = {}
    for (p, q), d in classes.items():
        totals[p + q] = totals.get(p + q, 0) + d
    assert ss.abutment_dims() == totals


@pytest.mark.parametrize("cover_of", [cx.anti_star_cover, cx.star_cover], ids=["anti-star", "star"])
@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "plain"])
def test_barcode_pages_agree_with_the_staircase_engine(corpus_complex, cover_of, augmented):
    X = corpus_complex
    if X.is_standard_simplex():
        return
    for ring in FIELDS:
        _assert_routes_agree(mvss.SpectralSequence(mvss.DoubleComplex(X, cover_of(X), ring, augmented)))


@given(
    X=connected_complexes(),
    ring=st.sampled_from(FIELDS),
    cover_of=st.sampled_from([cx.anti_star_cover, cx.star_cover]),
    augmented=st.booleans(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_barcode_pages_agree_with_the_staircase_engine_on_generated_complexes(X, ring, cover_of, augmented):
    _assert_routes_agree(mvss.SpectralSequence(mvss.DoubleComplex(X, cover_of(X), ring, augmented)))


def test_pages_do_not_turn_the_staircases():
    ss = mvss.run_to_convergence(mvss.double_complex(cx.random_connected_complex(6, 1), ring=al.GF(3)))
    for r in range(1, ss.width + 3):
        ss.page(r)
    assert (ss.converged_at, ss.infinity().dims, ss.abutment_dims()) == (3, {}, {})
    assert ss._r == 0 and not ss._classes
    ss.differentials(1)
    assert ss._r == 2


def test_pages_past_the_width_keep_the_limit_and_no_ranks():
    ss = mvss.run_to_convergence(mvss.double_complex(cx.boundary_of_simplex(4), ring=al.QQ, augmented=False))
    limit = ss.page(ss.width + 1)
    for r in range(ss.width + 1, ss.width + 4):
        page = ss.page(r)
        assert (page.r, page.dims, page.ranks) == (r, limit.dims, {})
    with pytest.raises(ValueError, match="pages start at r = 1"):
        ss.page(0)


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
        nonzero = {pq: m for pq, m in diffs.items() if oracles.matrix_rank(m)}
        assert len(nonzero) == 1
        ((pq, mat),) = nonzero.items()
        assert oracles.matrix_rank(mat) == 1
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


def _differentials_by_key(dc, p, q):
    """d_v and d_h of cell (p, q) as {key: {key one step down: scalar}}."""
    keys, below, left = (list(dc._cells.get(cell, ())) for cell in ((p, q), (p, q - 1), (p - 1, q)))
    return [
        {key: {target[row]: c for row, c in col} for key, col in zip(keys, columns)}
        for target, columns in ((below, dc.dv_sparse(p, q)), (left, dc.dh_sparse(p, q)))
    ]


@pytest.mark.parametrize("ring", [al.QQ, al.GF(3)], ids=str)
def test_the_empty_summand_is_the_augmented_anti_star_double_complex(corpus_complex, ring):
    # the identification at chain level: the key (J, s) of the colouring cube's
    # summand S empty is the anti-star cover's nerve simplex J and simplex s,
    # and its column p is the double complex's column p - 1
    X = corpus_complex
    summand = uber._link_cube(X, ring, False)
    dc = mvss.double_complex(X, ring=ring, augmented=True)
    assert summand.cells() == [(p + 1, q) for p, q in dc.cells()]
    for p, q in summand.cells():
        assert set(summand._cells[p, q]) == set(dc._cells[p - 1, q]), (p, q)
        assert _differentials_by_key(summand, p, q) == _differentials_by_key(dc, p - 1, q), (p, q)


@pytest.mark.parametrize("ring", [al.QQ, al.GF(3)], ids=str)
def test_the_identification_page_column_is_the_node_cube(corpus_complex, ring):
    # the report's two columns are E^2 of one double complex built two ways;
    # the node cube shares neither its cells nor its barcode
    X = corpus_complex
    entries = mvss.verify_identification(X, ring).entries
    assert {(j, i): page for j, i, _, page in entries if page} == oracles.zero_degree_table_by_cube(X, ring)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identification_over_the_rationals_at_eight_vertices(seed):
    assert mvss.verify_identification(cx.random_connected_complex(8, seed), al.QQ).ok


@pytest.mark.parametrize("ring", [al.GF2, al.GF(3)], ids=["GF2", "GF3"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identification_over_finite_fields_at_eight_vertices(ring, seed):
    assert mvss.verify_identification(cx.random_connected_complex(8, seed), ring).ok


@given(X=connected_complexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_identification_on_generated_complexes(X):
    for ring in (al.GF2, al.GF(3), al.QQ):
        assert mvss.verify_identification(X, ring).ok


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


def test_second_differentials_that_do_not_compose_to_zero_are_refused(monkeypatch):
    # the circle's d^2 from (1, 0) is an isomorphism onto (3, 1); a map
    # (3, 1) -> (5, 2) that undoes nothing makes a pair composing to 1
    X = cx.boundary_of_simplex(3)
    original = mvss.SpectralSequence.differentials

    def with_a_bad_partner(self, r):
        out = dict(original(self, r))
        source = next(pq for pq in out if (X.vertex_count - pq[0] - 1, pq[1]) == (1, 0))
        mat = out[source]
        assert oracles.matrix_rank(mat) == 1
        p, q = source
        out[p - 2, q + 1] = al.Matrix.from_rows(mat.ring, [[1] * mat.rows])
        return out

    monkeypatch.setattr(mvss.SpectralSequence, "differentials", with_a_bad_partner)
    with pytest.raises(LiftFailure, match="fail to compose to zero"):
        mvss.delta2_on_uber(X, ring=al.QQ)


def test_second_differential_of_the_circle_is_an_isomorphism():
    d2 = mvss.delta2_on_uber(cx.boundary_of_simplex(3), ring=al.QQ)
    assert oracles.matrix_rank(d2[(1, 0)]) == 1
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
