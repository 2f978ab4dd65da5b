"""Exact linear algebra: ranks, Smith normal form, homology, witnesses."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles
from uberhom import algebra as al
from uberhom import complexes as cx
from uberhom import graphs as gr
from uberhom import mvss
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


def test_primality_agrees_with_trial_division_below_10_to_the_5():
    assert [n for n in range(10**5) if al._is_prime(n)] == [
        n for n in range(10**5) if oracles.is_prime_by_trial_division(n)
    ]


def test_primality_agrees_with_sympy_on_64_bit_numbers():
    rng = random.Random(64)
    numbers = [rng.getrandbits(64) | 1 for _ in range(3000)]
    # strong pseudoprimes to the first four and the first nine prime bases
    numbers += [3215031751, 3825123056546413051, 2**61 - 1, 2**64 - 59]
    assert [n for n in numbers if al._is_prime(n)] == [n for n in numbers if sympy.isprime(n)]


def test_large_prime_fields_are_built_at_once_and_bounded():
    start = time.perf_counter()
    assert al.GF(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0
    for p in (6, 1, 0):
        with pytest.raises(ValueError, match="needs a prime"):
            al.GF(p)
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        al.GF(2**64 + 13)


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
                for tag, c in ops.items(combo):
                    acc = ops.add(acc, ops.scale(c, inserted[tag]))
                assert acc == vec
        for vec in inserted:
            combo = span.solve(vec)
            assert combo is not None
            acc = ops.zero(4)
            for tag, c in ops.items(combo):
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
        assert not is_new and {tag for tag, _ in ops.items(combo)} == tags
        acc = ops.zero(4)
        for tag, c in ops.items(combo):
            acc = ops.add(acc, ops.scale(c, gens[tag]))
        assert acc == v
    assert (copy.dim, copy.inserted) == (3, 6)
    assert {tag for tag, _ in ops.items(copy.solve(probes[2]))} == {3}

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


def test_gf2_nullspace_builds_no_vector_from_items(monkeypatch):
    # a dependency's bitset combination is its kernel vector once bit t is set
    ops = al.vector_ops(al.GF2)
    cols = [ops.from_list(xs) for xs in ([1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 0])]
    calls = []
    original = al._Gf2Ops.from_items

    def spy(n, items):
        calls.append(n)
        return original(n, items)

    monkeypatch.setattr(al._Gf2Ops, "from_items", staticmethod(spy))
    assert al.nullspace(ops, cols, len(cols)) == [0b111, 0b1001, 0b10000]
    assert calls == []


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
    # kernel vectors are tag combinations, dicts in both kernels
    assert al.nullspace(sparse, s_cols, len(steps)) == al.nullspace(dense, d_cols, len(steps))


@given(ring=st.sampled_from((al.GF2, al.GF(3), al.QQ)), n=st.integers(1, 5), data=st.data())
@settings(max_examples=80, deadline=None)
def test_span_agrees_with_the_scanning_oracle(ring, n, data):
    ops = al.vector_ops(ring)
    kinds = st.sampled_from(("insert", "solve", "copy"))
    steps = data.draw(
        st.lists(st.tuples(kinds, st.lists(_scalars(ring), min_size=n, max_size=n)), max_size=12)
    )
    vectors = [ops.from_list(xs) for _, xs in steps]
    span, scan = al.Span(ops, n), oracles.ScanSpan(ops, n)
    originals = []
    for (kind, _), v in zip(steps, vectors):
        if kind == "insert":
            assert span.insert(v) == scan.insert(v)
        elif kind == "solve":
            assert span.solve(v) == scan.solve(v)
        else:
            # later inserts go into the copy; the original must not see them
            originals.append((span, span.dim, span.inserted, [span.solve(u) for u in vectors]))
            span = span.copy()
        # the reduce relies on this: each key of the store is its vector's
        # lowest nonzero coordinate, with scalar 1 there
        for piv, (vec, _) in span._pivots.items():
            assert ops.pivot(vec) == piv and ops.coeff(vec, piv) == ops.sc_one
        assert span._index == sum(1 << piv for piv in span._pivots)
    assert (span.dim, span.inserted) == (scan.dim, scan.inserted)
    for original, dim, inserted, answers in originals:
        assert (original.dim, original.inserted) == (dim, inserted)
        assert [original.solve(u) for u in vectors] == answers


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
                # an int exactly when integral, otherwise a Fraction with
                # denominator above 1; never a float
                assert type(x) in (int, Fraction) and x != 0
                assert (type(x) is int) == (x.denominator == 1)
            else:
                assert type(x) is int and 1 <= x < ring.p
    assert ops.sub(ops.add(u, v), v) == u


def test_rational_inverse_is_canonical():
    inv = al.vector_ops(al.QQ).sc_inv
    for a, expected in ((1, 1), (-1, -1), (Fraction(1, 3), 3), (Fraction(-1, 5), -5)):
        assert type(inv(a)) is int and inv(a) == expected
    for a, expected in ((2, Fraction(1, 2)), (Fraction(-2, 3), Fraction(-3, 2))):
        assert type(inv(a)) is Fraction and inv(a) == expected
    with pytest.raises(ZeroDivisionError):
        inv(0)


def test_rational_kernel_keeps_boundary_scalars_integral():
    X = cx.random_connected_complex(7, 1)
    ops = al.vector_ops(al.QQ)
    cc = al.simplicial_chain_complex(X, al.QQ)
    scalars, dependencies = [], 0
    for n in cc.degrees():
        span = al.Span(ops, cc.rank(n - 1))
        for col in cc.columns(n):
            is_new, combo = span.insert(ops.from_items(cc.rank(n - 1), col))
            if not is_new:
                dependencies += 1
                scalars += combo.values()
        for vec, combo in span._pivots.values():
            scalars += [x for _, x in ops.items(vec)]
            scalars += combo.values()
    assert dependencies and scalars
    assert all(type(x) is int for x in scalars)
    # the public edge stays Fraction
    ss = mvss.SpectralSequence(mvss.double_complex(X, ring=al.QQ, augmented=True))
    entries = [x for r in (1, 2) for mat in ss.differentials(r).values() for row in mat.to_lists() for x in row]
    assert any(entries) and all(type(x) is Fraction for x in entries)


def test_matrix_rank_works_over_every_ring():
    rows = [[2, 4], [1, 2]]
    for ring in (al.ZZ, al.QQ, al.GF2, al.GF(3)):
        assert oracles.matrix_rank(al.Matrix.from_rows(ring, rows)) == 1


# scalars at the public edge are taken exactly or refused, never truncated
@pytest.mark.parametrize(
    "ring, x, expected",
    [
        (al.GF(5), Fraction(1, 2), 3),
        (al.GF(7), Fraction(-2, 3), 4),
        (al.ZZ, Fraction(6, 3), 2),
        (al.QQ, Fraction(1, 3), Fraction(1, 3)),
        (al.QQ, 2, Fraction(2)),
    ],
    ids=["gf5-half", "gf7-minus-two-thirds", "zz-six-thirds", "qq-third", "qq-int"],
)
def test_matrix_and_chain_complex_entries_are_coerced_exactly(ring, x, expected):
    entry = al.Matrix(ring, 1, 1, [[x]])[0, 0]
    assert entry == expected and type(entry) is type(expected)
    assert al.ChainComplex(ring, {0: 1, 1: 1}, {1: [[(0, x)]]}).columns(1) == (((0, expected),),)


@pytest.mark.parametrize(
    "ring, x, error",
    [
        (al.GF(3), Fraction(1, 3), ValueError),
        (al.ZZ, Fraction(5, 2), ValueError),
        (al.ZZ, 2.5, TypeError),
        (al.QQ, 0.1, TypeError),
        (al.GF(5), 2.0, TypeError),
    ],
    ids=["gf3-third", "zz-five-halves", "zz-float", "qq-float", "gf5-float"],
)
def test_matrix_and_chain_complex_refuse_inexact_entries(ring, x, error):
    with pytest.raises(error):
        al.Matrix(ring, 1, 1, [[x]])
    with pytest.raises(error):
        al.ChainComplex(ring, {0: 1, 1: 1}, {1: [[(0, x)]]})


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
        A = al.Matrix(al.ZZ, m, n)
        D, U, V = al.smith_normal_form(A)
        assert (D.rows, D.cols) == (m, n)
        assert (U.rows, U.cols) == (m, m)
        assert (V.rows, V.cols) == (n, n)


# entries 2, 3, 4 and 6 leave a block for the dense Smith form and bring torsion
SMITH_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, 6))


@given(st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_invariant_factors_match_the_dense_smith_form_and_sympy(m, n, data):
    rows = [data.draw(st.lists(SMITH_ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    columns = [[(i, rows[i][j]) for i in range(m) if rows[i][j]] for j in range(n)]
    factors = al.invariant_factors(m, columns)
    D, _, _ = al.smith_normal_form(al.Matrix.from_rows(al.ZZ, rows) if m else al.Matrix(al.ZZ, 0, n))
    assert factors == [D[t, t] for t in range(min(m, n)) if D[t, t]]
    if m and n:
        expected = sympy.matrices.normalforms.invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        assert factors == [abs(int(d)) for d in expected if d]
    else:
        assert factors == []
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_invariant_factors_of_empty_and_zero_columns():
    assert al.invariant_factors(0, []) == []
    assert al.invariant_factors(3, []) == []
    assert al.invariant_factors(0, [[], []]) == []
    assert al.invariant_factors(4, [[], [(2, 0)], []]) == []
    assert al.invariant_factors(3, [[(0, 2)], [], [(1, -4), (2, 6)]]) == [2, 2]
    with pytest.raises(ValueError, match="row index 3"):
        al.invariant_factors(3, [[(3, 1)]])


def test_invariant_factors_send_only_the_leftover_block_to_the_smith_form(monkeypatch):
    shapes = []
    dense = al.smith_normal_form

    def spy(A):
        shapes.append((A.rows, A.cols))
        return dense(A)

    monkeypatch.setattr(al, "smith_normal_form", spy)
    # a unit pivot on row 0 clears it; rows 1 and 2 of columns 1 and 2 remain
    columns = [[(0, 1), (1, 5)], [(0, 3), (1, 17), (2, 4)], [(1, 4), (2, 6)]]
    assert al.invariant_factors(3, columns) == [1, 2, 2]
    assert shapes == [(2, 2)]
    shapes.clear()
    assert al.invariant_factors(2, [[(0, 1), (1, -1)], [(1, 1)]]) == [1, 1]
    assert shapes == []


# --------------------------------------------------------------------------
# chain complexes and homology


def test_chain_complex_rejects_non_squaring_differential():
    d1 = al.Matrix.from_rows(al.ZZ, [[1, 0], [0, 1]])
    d2 = al.Matrix.from_rows(al.ZZ, [[1], [0]])
    with pytest.raises(ValueError):
        al.ChainComplex(al.ZZ, {0: 2, 1: 2, 2: 1}, {1: d1, 2: d2})


def test_chain_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        al.ChainComplex(al.ZZ, {0: 2, 1: 1}, {1: al.Matrix(al.ZZ, 3, 1)})


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


def test_integral_homology_sends_only_the_leftover_block_to_the_smith_form(corpus_complex, monkeypatch):
    # unit elimination clears every boundary of a torsion-free complex; the
    # torsion of RP^2 leaves one column of even entries per factor d > 1
    dense = al.smith_normal_form
    shapes = []

    def spy(A):
        shapes.append((A.rows, A.cols))
        return dense(A)

    monkeypatch.setattr(al, "smith_normal_form", spy)
    al.homology_table(al.simplicial_chain_complex(corpus_complex, al.ZZ))
    if any(tors for _, tors in oracles.integral_homology_oracle(corpus_complex).values()):
        assert shapes and all(cols == 1 for _, cols in shapes)
    else:
        assert shapes == []


@pytest.mark.parametrize("reduced", [False, True], ids=["plain", "reduced"])
def test_a_field_homology_table_reduces_each_differential_once(corpus_complex, monkeypatch, reduced):
    # one walk: every chain above the bottom degree goes into a span once,
    # as a column of the differential out of its degree, and every cycle
    # once more, when the representatives are picked; the bottom chains are
    # cycles as they are, and the nullspace is never taken apart
    def refuse(*args):
        raise AssertionError("homology_table called nullspace")

    inserts = []
    insert = al.Span.insert

    def spy(self, v):
        inserts.append(v)
        return insert(self, v)

    for ring in (al.QQ, al.GF2, al.GF(3)):
        cc = al.simplicial_chain_complex(corpus_complex, ring, reduced=reduced)
        alone = {n: al.HomologyBasis(cc, n) for n in cc.degrees()}
        with monkeypatch.context() as patch:
            patch.setattr(al, "nullspace", refuse)
            patch.setattr(al.Span, "insert", spy)
            inserts.clear()
            table = al.homology_table(cc)
        chains = sum(cc.rank(n) for n in cc.degrees() if n > cc.bottom)
        assert len(inserts) == chains + sum(h.cycle_rank for h in table.values())
        assert sorted(table) == sorted(alone)
        for n, h in table.items():
            old = alone[n]
            assert (h.dim, h.cycle_rank, h.boundary_rank, h.representatives) == (
                old.dim, old.cycle_rank, old.boundary_rank, old.representatives
            )


def test_an_integral_homology_table_factors_each_differential_once(corpus_complex, monkeypatch):
    factor = al.invariant_factors
    calls = []

    def spy(rows, columns):
        columns = list(columns)
        calls.append((rows, len(columns)))
        return factor(rows, columns)

    monkeypatch.setattr(al, "invariant_factors", spy)
    cc = al.simplicial_chain_complex(corpus_complex, al.ZZ)
    al.homology_table(cc)
    # the differentials into and out of the degrees, from the bottom's
    # (onto nothing) to the one out of the degree above the top (from nothing)
    assert calls == [(cc.rank(n - 1), cc.rank(n)) for n in range(cc.bottom, cc.top + 2)]


def test_rational_chain_complexes_hold_int_scalars(corpus_complex):
    # the kernel's canonical scalars; the public edge still holds Fraction
    cc = al.simplicial_chain_complex(corpus_complex, al.QQ, reduced=True)
    for n in cc.degrees():
        assert all(type(c) is int for col in cc.columns(n) for _, c in col)
        assert all(type(c) is Fraction for row in cc.diff(n).to_lists() for c in row)
    half = al.ChainComplex(al.QQ, {0: 1, 1: 1}, {1: [[(0, Fraction(1, 2))]]})
    assert half.columns(1) == (((0, Fraction(1, 2)),),)


def test_integral_presentations_match_sympy_beyond_the_corpus():
    from conftest import projective_plane

    rp2 = projective_plane()
    inputs = [cx.suspension(rp2), cx.cone(rp2)]
    inputs += [cx.random_connected_complex(m, seed=s) for m in (7, 8) for s in (1, 2)]
    for X in inputs:
        got = {
            n: (h.presentation.free_rank, sorted(h.presentation.torsion))
            for n, h in al.homology_table(al.simplicial_chain_complex(X, al.ZZ)).items()
            if not h.presentation.is_trivial
        }
        assert got == {
            n: (free, sorted(tors))
            for n, (free, tors) in oracles.integral_homology_oracle(X).items()
        }
    # the suspension shifts the 2-torsion of RP^2 up one degree
    assert al.homology(al.simplicial_chain_complex(inputs[0], al.ZZ), 2).presentation.describe() == "Z/2"


def test_integral_presentations_match_the_lattice_route(corpus_complex):
    for reduced in (False, True):
        cc = al.simplicial_chain_complex(corpus_complex, al.ZZ, reduced=reduced)
        for n, h in al.homology_table(cc).items():
            old = oracles.LatticeHomology(cc, n)
            assert (h.presentation, h.dim, h.cycle_rank, h.boundary_rank) == (
                old.presentation,
                old.dim,
                old.cycle_rank,
                old.boundary_rank,
            )


def test_integral_reduce_needs_field_coefficients():
    circle = cx.boundary_of_simplex(3)
    basis = al.homology(al.simplicial_chain_complex(circle, al.ZZ), 1)
    assert basis.presentation.describe() == "Z"
    assert basis.representatives is None
    for call in (basis.reduce, basis.reduce_with_witness):
        with pytest.raises(NotImplementedError, match="field coefficients"):
            call([1, -1, 1])


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
    if ring == al.GF2:
        return  # a bitset has no negative index
    negative = ops.from_items(3, [(-1, 1)])
    for call in (basis.reduce, basis.reduce_with_witness):
        with pytest.raises(ValueError, match="index -1"):
            call(negative)


def test_integral_reduce_on_free_homology():
    circle = cx.boundary_of_simplex(3)
    cc = al.simplicial_chain_complex(circle, al.ZZ)
    basis = oracles.LatticeHomology(cc, 1)
    assert basis.presentation.describe() == "Z"
    rep = basis.representatives[0]
    assert basis.reduce(rep) in ([1], [-1])


def test_integral_reduce_is_the_unit_vector_modulo_boundaries(corpus_complex):
    cc = al.simplicial_chain_complex(corpus_complex, al.ZZ)
    for n, basis in oracles.lattice_homology_table(cc).items():
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
    basis = oracles.LatticeHomology(al.simplicial_chain_complex(circle, al.ZZ), 1)
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
        mat = al.Matrix(ring, dst.rank(n), src.rank(n))
        for j, s in enumerate(loop.simplices_of_dim(n)):
            mat[disc.index_of(n, s), j] = 1
        comps[n] = mat
    return oracles.ChainMap(src, dst, comps)


def test_chain_map_must_commute():
    ring = al.QQ
    c = al.ChainComplex(ring, {0: 1, 1: 1}, {1: al.Matrix.from_rows(ring, [[0]])})
    d = al.ChainComplex(ring, {0: 1, 1: 1}, {1: al.Matrix.from_rows(ring, [[1]])})
    with pytest.raises(ValueError):
        oracles.ChainMap(
            c, d, {0: al.Matrix.from_rows(ring, [[1]]), 1: al.Matrix.from_rows(ring, [[1]])}
        )


def test_chain_map_checks_the_square_next_to_an_omitted_component():
    ring = al.QQ
    interval = al.simplicial_chain_complex(cx.standard_simplex(2), ring)
    two_points = al.simplicial_chain_complex(cx.boundary_of_simplex(2), ring)
    # f_1 is omitted, so it is zero, but f_0 ∘ d_1 is not
    with pytest.raises(ValueError, match="degree 1"):
        oracles.ChainMap(interval, two_points, {0: oracles.identity(ring, 2)})


def test_induced_map_kills_the_coned_loop():
    f = _inclusion_of_square_into_its_cone(al.QQ)
    m1 = oracles.induced_map_on_homology(f, 1)
    assert m1.cols == 1 and oracles.matrix_rank(m1) == 0
    m0 = oracles.induced_map_on_homology(f, 0)
    assert oracles.matrix_rank(m0) == 1


def test_mapping_cone_of_identity_is_acyclic():
    X = cx.boundary_of_simplex(3)
    ring = al.GF2
    cc = al.simplicial_chain_complex(X, ring)
    ident = oracles.ChainMap(
        cc, cc, {n: oracles.identity(ring, cc.rank(n)) for n in cc.degrees()}
    )
    cone = oracles.mapping_cone(ident)
    assert all(d == 0 for d in al.betti_numbers(cone).values())


def test_mapping_cone_of_inclusion_gives_relative_homology():
    f = _inclusion_of_square_into_its_cone(al.QQ)
    cone = oracles.mapping_cone(f)
    betti = {n: d for n, d in al.betti_numbers(cone).items() if d}
    # a disc relative to its boundary circle carries a single degree-2 class
    assert betti == {2: 1}
