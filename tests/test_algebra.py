"""Exact linear algebra: ranks, Smith normal form, homology, witnesses."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom.errors import SolveFailure


# --------------------------------------------------------------------------
# rings and group presentations


def test_ring_labels_round_trip():
    for label, ring in (("z", al.ZZ), ("q", al.QQ), ("z2", al.GF2), ("p:7", al.GF(7))):
        assert al.ring_from_label(label) == ring
    assert al.ring_from_label("Z2") == al.GF2
    with pytest.raises(ValueError):
        al.ring_from_label("gf(4)")
    with pytest.raises(ValueError):
        al.GF(6)


def test_presentation_validation():
    assert al.AbelianGroupPresentation(0).describe() == "0"
    assert al.AbelianGroupPresentation(2, (2, 6)).describe() == "Z^2 + Z/2 + Z/6"
    assert al.AbelianGroupPresentation(1).describe() == "Z"
    with pytest.raises(ValueError):
        al.AbelianGroupPresentation(0, (4, 6))  # 4 does not divide 6
    with pytest.raises(ValueError):
        al.AbelianGroupPresentation(0, (1,))


# --------------------------------------------------------------------------
# spans, ranks, kernels


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_span_combos_reconstruct_vectors(rows):
    for ring in (al.QQ, al.GF2, al.GF(5)):
        ops = al.vector_ops(ring)
        span = al.Span(ops, 4)
        inserted = []
        for row in rows:
            vec = ops.from_list(row)
            inserted.append(vec)
            is_new, combo = span.insert(vec)
            if not is_new:
                acc = ops.zero(4)
                for tag, c in combo.items():
                    acc = ops.add(acc, ops.scale(c, inserted[tag]))
                assert acc == vec
        for vec in inserted:
            combo = span.solve(vec)
            assert combo is not None
            acc = ops.zero(4)
            for tag, c in combo.items():
                acc = ops.add(acc, ops.scale(c, inserted[tag]))
            assert acc == vec


@pytest.mark.parametrize("ring", [al.QQ, al.GF(3), al.GF2], ids=str)
def test_span_copy_leaves_the_original_alone_and_continues_its_tags(ring):
    ops = al.vector_ops(ring)
    base = [ops.from_list(xs) for xs in ([1, 1, 0, 0], [0, 1, 1, 0], [1, 2, 1, 0])]
    span = al.Span(ops, 4)
    assert [span.insert(v)[0] for v in base] == [True, True, False]
    probes = [ops.from_list(xs) for xs in ([1, 1, 0, 0], [2, 3, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1])]
    before = [span.solve(v) for v in probes]
    assert before[2] is None

    copy = span.copy()
    assert (copy.dim, copy.inserted) == (span.dim, span.inserted) == (2, 3)
    extra = [ops.from_list(xs) for xs in ([0, 0, 1, 1], [1, 1, 1, 1], [0, -1, -1, 0])]
    assert copy.insert(extra[0]) == (True, None)
    gens = base + extra[:1]
    for v, tags in ((extra[1], {0, 3}), (extra[2], {1})):
        is_new, combo = copy.insert(v)
        assert not is_new and set(combo) == tags
        acc = ops.zero(4)
        for tag, c in combo.items():
            acc = ops.add(acc, ops.scale(c, gens[tag]))
        assert acc == v
    assert (copy.dim, copy.inserted) == (3, 6)
    assert set(copy.solve(probes[2])) == {3}

    assert (span.dim, span.inserted) == (2, 3)
    assert [span.solve(v) for v in probes] == before
    # inserting into the original leaves the copy alone too
    assert span.insert(probes[3]) == (True, None)
    assert copy.solve(probes[3]) is None and copy.inserted == 6


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=0,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_and_nullspace_match_oracle(cols):
    rows = [[col[i] for col in cols] for i in range(3)]
    for ring in (al.QQ, al.GF2, al.GF(3)):
        ops = al.vector_ops(ring)
        vecs = [ops.from_list(c) for c in cols]
        rank = al.column_rank(ops, vecs)
        assert rank == oracles.matrix_rank_oracle(rows, ring)
        kernel = al.nullspace(ops, vecs, len(cols))
        assert len(kernel) == len(cols) - rank
        for k in kernel:
            assert not ops.is_zero(k)
            acc = ops.zero(3)
            for t in range(len(cols)):
                acc = ops.add(acc, ops.scale(ops.coeff(k, t), vecs[t]))
            assert ops.is_zero(acc)


@pytest.mark.parametrize(
    "ring, entries, expected",
    [
        (al.GF2, [(2, 1), (0, 3), (2, 1), (4, 2)], [(0, 1)]),
        (al.GF(3), [(3, 2), (1, 1), (1, 2), (0, 4)], [(0, 1), (3, 2)]),
        (al.QQ, [(2, 1), (4, Fraction(1, 2)), (2, -1), (1, -3)], [(1, -3), (4, Fraction(1, 2))]),
    ],
)
def test_kernel_items_are_the_nonzero_entries_in_index_order(ring, entries, expected):
    ops = al.vector_ops(ring)
    assert list(ops.items(ops.from_items(5, entries))) == expected
    assert list(ops.items(ops.zero(5))) == []


SPARSE_KERNEL_RINGS = (al.QQ, al.GF(3), al.GF(5))


def _scalars(ring):
    if ring == al.QQ:
        return st.fractions(-3, 3, max_denominator=3)
    return st.integers(-6, 6)


@given(ring=st.sampled_from(SPARSE_KERNEL_RINGS), n=st.integers(1, 5), data=st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_kernel_agrees_with_the_dense_oracle(ring, n, data):
    scalars = _scalars(ring)
    steps = data.draw(
        st.lists(st.tuples(st.booleans(), st.lists(scalars, min_size=n, max_size=n)), max_size=8)
    )
    c = data.draw(scalars)
    sparse, dense = al.vector_ops(ring), oracles.DenseFieldOps(ring)

    def same(u, v):
        return list(sparse.items(u)) == list(dense.items(v))

    s_span, d_span = al.Span(sparse, n), al.Span(dense, n)
    s_cols = [sparse.from_list(xs) for _, xs in steps]
    d_cols = [dense.from_list(xs) for _, xs in steps]
    for (is_insert, _), su, du in zip(steps, s_cols, d_cols):
        assert same(su, du)
        if is_insert:
            assert s_span.insert(su) == d_span.insert(du)
        else:
            assert s_span.solve(su) == d_span.solve(du)
    for (su, du), (sv, dv) in zip(zip(s_cols, d_cols), zip(s_cols[1:], d_cols[1:])):
        assert same(sparse.add(su, sv), dense.add(du, dv))
        assert same(sparse.sub(su, sv), dense.sub(du, dv))
        assert same(sparse.scale(c, su), dense.scale(c, du))
        assert sparse.pivot(su) == dense.pivot(du)
    assert al.column_rank(sparse, s_cols) == al.column_rank(dense, d_cols)
    s_kernel = al.nullspace(sparse, s_cols, len(steps))
    d_kernel = al.nullspace(dense, d_cols, len(steps))
    assert len(s_kernel) == len(d_kernel)
    assert all(same(sk, dk) for sk, dk in zip(s_kernel, d_kernel))


@given(ring=st.sampled_from(SPARSE_KERNEL_RINGS), data=st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_kernel_stores_only_canonical_nonzero_scalars(ring, data):
    scalars = _scalars(ring)
    entries = data.draw(st.lists(st.tuples(st.integers(0, 5), scalars), max_size=10))
    c = data.draw(scalars)
    ops = al.vector_ops(ring)
    negated = [(i, -x) for i, x in entries]
    u = ops.from_items(6, entries)
    v = ops.from_items(6, negated)
    cancelled = [
        ops.from_items(6, entries + negated),
        ops.add(u, v),
        ops.sub(u, u),
        ops.add(ops.scale(c, u), ops.scale(c, v)),
    ]
    for w in cancelled:
        assert ops.is_zero(w)
        assert ops.pivot(w) is None
        assert w == ops.zero(6)
    results = [u, v, ops.scale(c, u), ops.add(u, ops.scale(c, u)), ops.sub(ops.scale(c, u), v)]
    for w in results:
        for _, x in ops.items(w):
            if ring == al.QQ:
                assert type(x) is Fraction and x != 0
            else:
                assert type(x) is int and 1 <= x < ring.p
    assert ops.sub(ops.add(u, v), v) == u


def test_matrix_rank_works_over_every_ring():
    rows = [[2, 4], [1, 2]]
    for ring in (al.ZZ, al.QQ, al.GF2, al.GF(3)):
        assert al.matrix_rank(al.Matrix.from_rows(ring, rows)) == 1


# --------------------------------------------------------------------------
# Smith normal form


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_smith_normal_form_properties(m, n, data):
    entries = data.draw(st.lists(st.integers(-9, 9), min_size=m * n, max_size=m * n))
    rows = [entries[i * n : (i + 1) * n] for i in range(m)]
    A = al.Matrix.from_rows(al.ZZ, rows)
    D, U, V = al.smith_normal_form(A)
    assert (U * A * V).to_lists() == D.to_lists()
    diag = [D[i, i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i, j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert abs(oracles.det_exact(U.to_lists())) == 1
    assert abs(oracles.det_exact(V.to_lists())) == 1
    assert sorted(d for d in diag if d) == sorted(oracles.snf_divisors_oracle(rows))


def test_smith_normal_form_golden():
    A = al.Matrix.from_rows(al.ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    D, _, _ = al.smith_normal_form(A)
    assert [D[i, i] for i in range(3)] == [2, 2, 156]


def test_smith_normal_form_empty_shapes():
    for m, n in ((0, 3), (3, 0), (0, 0)):
        A = al.Matrix.zeros(al.ZZ, m, n)
        D, U, V = al.smith_normal_form(A)
        assert (D.rows, D.cols) == (m, n)
        assert (U.rows, U.cols) == (m, m)
        assert (V.rows, V.cols) == (n, n)


# --------------------------------------------------------------------------
# chain complexes and homology


def test_chain_complex_rejects_non_squaring_differential():
    d1 = al.Matrix.from_rows(al.ZZ, [[1, 0], [0, 1]])
    d2 = al.Matrix.from_rows(al.ZZ, [[1], [0]])
    with pytest.raises(ValueError):
        al.ChainComplex(al.ZZ, {0: 2, 1: 2, 2: 1}, {1: d1, 2: d2})


def test_chain_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        al.ChainComplex(al.ZZ, {0: 2, 1: 1}, {1: al.Matrix.zeros(al.ZZ, 3, 1)})


@pytest.mark.parametrize(
    "differentials, message",
    [
        ({1: [[(0, 1)]]}, "1 columns, expected 2"),
        ({1: [[(0, 1)], [(2, 1)]]}, "row 2, expected fewer than 2"),
        ({1: [[(0, 1)], [(1, 1)]], 2: [[(0, 1)]]}, "does not square to zero at degree 2"),
    ],
    ids=["column-count", "row-range", "square"],
)
def test_column_form_chain_complex_rejects_malformed_differentials(differentials, message):
    with pytest.raises(ValueError, match=message):
        al.ChainComplex(al.QQ, {0: 2, 1: 2, 2: 1}, differentials)


def test_boundary_columns_match_the_simplex_lists(corpus_complex):
    X = corpus_complex
    for ring in (al.ZZ, al.QQ, al.GF2, al.GF(3)):
        cc = al.simplicial_chain_complex(X, ring)
        assert cc.diff(0).to_lists() == []
        for n in range(1, X.max_dim + 2):
            expected = [[al._coerce(ring, x) for x in row] for row in oracles.boundary_rows(X, n)]
            d = cc.diff(n)
            assert (d.rows, d.cols) == (cc.rank(n - 1), cc.rank(n))
            assert d.to_lists() == expected
        augmentation = al.simplicial_chain_complex(X, ring, reduced=True).diff(0)
        assert augmentation.to_lists() == [[al._coerce(ring, 1)] * cc.rank(0)]


def test_field_homology_matches_oracle_on_corpus(corpus_complex):
    X = corpus_complex
    for ring in (al.QQ, al.GF2, al.GF(3)):
        cc = al.simplicial_chain_complex(X, ring)
        got = {n: d for n, d in al.betti_numbers(cc).items() if d}
        assert got == oracles.betti_oracle(X, ring)


def test_reduced_homology_matches_oracle_on_corpus(corpus_complex):
    X = corpus_complex
    for ring in (al.QQ, al.GF2):
        cc = al.simplicial_chain_complex(X, ring, reduced=True)
        got = {n: d for n, d in al.betti_numbers(cc).items() if d}
        assert got == oracles.betti_oracle(X, ring, reduced=True)


def test_integral_homology_matches_oracle_on_corpus(corpus_complex):
    X = corpus_complex
    cc = al.simplicial_chain_complex(X, al.ZZ)
    got = {
        n: (h.presentation.free_rank, sorted(h.presentation.torsion))
        for n, h in al.homology_table(cc).items()
        if not h.presentation.is_trivial
    }
    assert got == {
        n: (free, sorted(tors))
        for n, (free, tors) in oracles.integral_homology_oracle(X).items()
    }


def test_projective_plane_homology_over_every_ring():
    from conftest import projective_plane

    X = projective_plane()
    cc = al.simplicial_chain_complex(X, al.ZZ)
    table = {n: h.presentation.describe() for n, h in al.homology_table(cc).items()}
    assert table == {0: "Z", 1: "Z/2", 2: "0"}
    # the 2-torsion shows up over F2 in degrees 1 and 2, and nowhere else
    assert al.betti_numbers(al.simplicial_chain_complex(X, al.GF2)) == {0: 1, 1: 1, 2: 1}
    assert al.betti_numbers(al.simplicial_chain_complex(X, al.QQ)) == {0: 1, 1: 0, 2: 0}
    assert al.betti_numbers(al.simplicial_chain_complex(X, al.GF(3))) == {0: 1, 1: 0, 2: 0}


def test_field_dims_never_below_rational_dims(corpus_complex):
    # universal-coefficient inequality: dim over F_p >= dim over Q
    X = corpus_complex
    q = al.betti_numbers(al.simplicial_chain_complex(X, al.QQ))
    for p in (2, 3):
        fp = al.betti_numbers(al.simplicial_chain_complex(X, al.GF(p)))
        for n, d in q.items():
            assert fp.get(n, 0) >= d


# --------------------------------------------------------------------------
# representatives, reduce, witnesses


def test_reduce_is_identity_on_representatives(corpus_complex):
    X = corpus_complex
    for ring in (al.QQ, al.GF2):
        ops = al.vector_ops(ring)
        cc = al.simplicial_chain_complex(X, ring)
        for _, basis in al.homology_table(cc).items():
            for k, rep in enumerate(basis.representatives):
                coords = basis.reduce(rep)
                expected = [
                    ops.sc_one if i == k else ops.sc_zero for i in range(basis.dim)
                ]
                assert coords == expected


def test_reduce_with_witness_recovers_the_boundary_part(corpus_complex):
    X = corpus_complex
    for ring in (al.QQ, al.GF2, al.GF(3)):
        ops = al.vector_ops(ring)
        cc = al.simplicial_chain_complex(X, ring)
        for n in range(X.max_dim):
            basis = al.homology(cc, n)
            d_above = cc.diff(n + 1)
            if d_above.cols == 0:
                continue
            for t in range(min(3, d_above.cols)):
                b = ops.from_list(d_above.column(t))
                coords, witness = basis.reduce_with_witness(b)
                assert all(c == ops.sc_zero for c in coords)
                img = ops.zero(basis.ambient_rank)
                for s in range(d_above.cols):
                    c = ops.coeff(witness, s)
                    if c != ops.sc_zero:
                        img = ops.add(img, ops.scale(c, ops.from_list(d_above.column(s))))
                assert img == b


def test_reduce_rejects_non_cycles():
    circle = cx.boundary_of_simplex(3)
    cc = al.simplicial_chain_complex(circle, al.QQ)
    ops = al.vector_ops(al.QQ)
    basis1 = al.homology(cc, 1)
    bad = ops.add(ops.unit(cc.rank(1), 0), ops.unit(cc.rank(1), 1))
    with pytest.raises(SolveFailure):
        basis1.reduce(bad)


@pytest.mark.parametrize("ring", [al.QQ, al.GF(3), al.GF2], ids=str)
def test_field_reduce_rejects_entries_beyond_the_ambient_rank(ring):
    circle = cx.boundary_of_simplex(3)
    basis = al.homology(al.simplicial_chain_complex(circle, ring), 1)
    ops = al.vector_ops(ring)
    # the first three entries form the cycle; index 3 lies outside C_1
    too_long = ops.from_list([1, -1, 1, 5])
    for call in (basis.reduce, basis.reduce_with_witness):
        with pytest.raises(ValueError, match="index 3"):
            call(too_long)


def test_integral_reduce_on_free_homology():
    circle = cx.boundary_of_simplex(3)
    cc = al.simplicial_chain_complex(circle, al.ZZ)
    basis = al.homology(cc, 1)
    assert basis.presentation.describe() == "Z"
    rep = basis.representatives[0]
    assert basis.reduce(rep) in ([1], [-1])


def test_integral_reduce_is_the_unit_vector_modulo_boundaries(corpus_complex):
    cc = al.simplicial_chain_complex(corpus_complex, al.ZZ)
    for n, basis in al.homology_table(cc).items():
        if not basis.presentation.is_free:
            continue
        d_above = cc.diff(n + 1)
        for k, rep in enumerate(basis.representatives):
            unit = [int(i == k) for i in range(basis.dim)]
            assert basis.reduce(rep) == unit
            for t in range(min(3, d_above.cols)):
                shifted = [a + b for a, b in zip(rep, d_above.column(t))]
                assert basis.reduce(shifted) == unit


def test_integral_reduce_rejects_non_cycles():
    circle = cx.boundary_of_simplex(3)
    basis = al.homology(al.simplicial_chain_complex(circle, al.ZZ), 1)
    with pytest.raises(SolveFailure, match="outside the lattice"):
        basis.reduce([1, 1, 0])
    with pytest.raises(SolveFailure, match="non-integral"):
        basis.reduce([Fraction(c, 2) for c in basis.representatives[0]])
    for wrong_length in ([1, -1], [1, -1, 1, 5]):
        with pytest.raises(ValueError, match="entries, expected 3"):
            basis.reduce(wrong_length)


# --------------------------------------------------------------------------
# chain maps, induced maps, mapping cones


def _inclusion_of_square_into_its_cone(ring):
    loop = cx.complex_from_graph(gr.cycle_graph(4))
    disc = cx.cone(loop)
    src = al.simplicial_chain_complex(loop, ring)
    dst = al.simplicial_chain_complex(disc, ring)
    comps = {}
    for n in range(loop.max_dim + 1):
        mat = al.Matrix.zeros(ring, dst.rank(n), src.rank(n))
        for j, s in enumerate(loop.simplices_of_dim(n)):
            mat[disc.index_of(n, s), j] = 1
        comps[n] = mat
    return al.ChainMap(src, dst, comps)


def test_chain_map_must_commute():
    ring = al.QQ
    c = al.ChainComplex(ring, {0: 1, 1: 1}, {1: al.Matrix.from_rows(ring, [[0]])})
    d = al.ChainComplex(ring, {0: 1, 1: 1}, {1: al.Matrix.from_rows(ring, [[1]])})
    with pytest.raises(ValueError):
        al.ChainMap(
            c, d, {0: al.Matrix.from_rows(ring, [[1]]), 1: al.Matrix.from_rows(ring, [[1]])}
        )


def test_chain_map_checks_the_square_next_to_an_omitted_component():
    ring = al.QQ
    interval = al.simplicial_chain_complex(cx.standard_simplex(2), ring)
    two_points = al.simplicial_chain_complex(cx.boundary_of_simplex(2), ring)
    # f_1 is omitted, so it is zero, but f_0 ∘ d_1 is not
    with pytest.raises(ValueError, match="degree 1"):
        al.ChainMap(interval, two_points, {0: al.Matrix.identity(ring, 2)})


def test_induced_map_kills_the_coned_loop():
    f = _inclusion_of_square_into_its_cone(al.QQ)
    m1 = al.induced_map_on_homology(f, 1)
    assert m1.cols == 1 and al.matrix_rank(m1) == 0
    m0 = al.induced_map_on_homology(f, 0)
    assert al.matrix_rank(m0) == 1


def test_mapping_cone_of_identity_is_acyclic():
    X = cx.boundary_of_simplex(3)
    ring = al.GF2
    cc = al.simplicial_chain_complex(X, ring)
    ident = al.ChainMap(
        cc, cc, {n: al.Matrix.identity(ring, cc.rank(n)) for n in cc.degrees()}
    )
    cone = al.mapping_cone(ident)
    assert all(d == 0 for d in al.betti_numbers(cone).values())


def test_mapping_cone_of_inclusion_gives_relative_homology():
    f = _inclusion_of_square_into_its_cone(al.QQ)
    cone = al.mapping_cone(f)
    betti = {n: d for n, d in al.betti_numbers(cone).items() if d}
    # a disc relative to its boundary circle carries a single degree-2 class
    assert betti == {2: 1}
