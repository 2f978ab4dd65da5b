"""Exact linear algebra over prime fields, the rationals and the integers.

Provides the arithmetic core used by every other module: chain complexes
with checked differentials stored as sparse (row, scalar) columns, homology
with chosen representatives over a field, the Smith normal form, and
invariant factors by sparse elimination of unit pivots.  Homology over a
field comes from one walk up the degrees that reduces each differential
once: the span of its columns gives the boundaries one degree down, and
its dependencies the cycles.  Integral homology is read off the invariant
factors of the adjacent differentials, so it carries a group presentation
but no representatives.  The pages of a double complex's spectral
sequence over a field are read off one persistence barcode of its total
complex, filtered by column.  Dense exact matrices are built only at the
public edge and for the Smith normal form.

No floating point anywhere.  Scalars are Python ints over the integers
and prime fields.  Over the rationals the chain complexes' columns and the
vector kernel keep a scalar an int while it is integral and a ``Fraction``
only otherwise, so building a complex and eliminating on its +-1 boundary
entries is integer work; ``Matrix``, the public edge, holds ``Fraction``.
Over GF(2) the vector kernel stores a vector, and each ``Span`` combination
of tags, as a single int used as a bitset, which keeps the heavy
enumerative computations (cube complexes, spectral sequence pages) cheap;
every other field stores a sparse dict from index to nonzero scalar.  A
combination keeps that format from end to end: ``Span`` returns it as it
is, and a kernel vector of ``nullspace`` is one.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import SolveFailure

__all__ = [
    "CoefficientRing",
    "ZZ",
    "QQ",
    "GF",
    "GF2",
    "ring_from_label",
    "Matrix",
    "Span",
    "vector_ops",
    "ChainComplex",
    "AbelianGroupPresentation",
    "HomologyBasis",
    "faces",
    "simplicial_chain_complex",
    "homology",
    "homology_table",
    "betti_numbers",
    "smith_normal_form",
    "invariant_factors",
]


# Miller–Rabin with these bases is exact for every n below 3.18 * 10**23 (the
# least strong pseudoprime to all twelve), so for every characteristic allowed
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_CHARACTERISTIC = 1 << 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """Tag selecting the coefficient arithmetic: Z, Q, or F_p.

    ``kind`` is one of ``"integers"``, ``"rationals"``, ``"prime_field"``;
    ``p`` is the characteristic for prime fields and ``None`` otherwise.
    """

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("integers", "rationals", "prime_field"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "prime_field":
            if self.p is not None and self.p >= MAX_CHARACTERISTIC:
                raise ValueError(f"prime field characteristic must be below 2**64, got {self.p}")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"prime field needs a prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"{self.kind} takes no characteristic")

    @property
    def is_field(self) -> bool:
        return self.kind != "integers"

    def label(self) -> str:
        if self.kind == "integers":
            return "Z"
        if self.kind == "rationals":
            return "Q"
        return f"F{self.p}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


ZZ = CoefficientRing("integers")
QQ = CoefficientRing("rationals")


def GF(p: int) -> CoefficientRing:
    """The prime field with p elements."""
    return CoefficientRing("prime_field", p)


GF2 = GF(2)


def ring_from_label(label: str) -> CoefficientRing:
    """Parse ``z | q | z2 | p:<prime>`` (case-insensitive) into a ring."""
    s = label.strip().lower()
    if s == "z":
        return ZZ
    if s == "q":
        return QQ
    if s == "z2":
        return GF2
    if s.startswith("p:"):
        return GF(int(s[2:]))
    raise ValueError(f"unrecognised coefficient label {label!r}")


def _coerce(ring: CoefficientRing, x) -> object:
    """Coerce an exact scalar (an int or a Fraction) into the canonical
    scalar of ``ring``, without rounding: an int, except a non-integral
    rational, which stays a ``Fraction``.

    Over GF(p) a fraction a/b is a times the inverse of b.  A float raises
    ``TypeError``; a non-integer over the integers, or a fraction over GF(p)
    whose denominator p divides, raises ``ValueError``.
    """
    if type(x) is not int:
        if isinstance(x, float):
            raise TypeError(f"{x!r} is a float; scalars must be exact")
        x = Fraction(x)
        if x.denominator != 1:
            if ring.kind == "rationals":
                return x
            if ring.kind == "integers":
                raise ValueError(f"{x} is not an integer")
            if x.denominator % ring.p == 0:  # type: ignore[operator]
                raise ValueError(f"{x} has no value in GF({ring.p}): {ring.p} divides its denominator")
            return x.numerator * pow(x.denominator, -1, ring.p) % ring.p  # type: ignore[arg-type]
        x = x.numerator
    return x % ring.p if ring.p else x


def _entry(ring: CoefficientRing, x) -> object:
    """A ``Matrix`` entry: the canonical scalar, as a ``Fraction`` over the rationals."""
    x = _coerce(ring, x)
    return Fraction(x) if ring.kind == "rationals" else x


def _rational(x):
    """Canonical rational scalar: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# --------------------------------------------------------------------------
# Matrices


class Matrix:
    """Dense exact matrix over a fixed coefficient ring (row-major)."""

    __slots__ = ("ring", "rows", "cols", "_d")

    def __init__(self, ring: CoefficientRing, rows: int, cols: int, data=None):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        if data is None:
            zero = _entry(ring, 0)
            self._d = [[zero] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data has the wrong shape")
            self._d = [[_entry(ring, x) for x in row] for row in data]

    # construction helpers -------------------------------------------------

    @classmethod
    def from_rows(cls, ring: CoefficientRing, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(ring, r, c, rows)

    @classmethod
    def from_sparse(cls, ring: CoefficientRing, nrows: int, columns: Sequence) -> "Matrix":
        """Matrix whose column j has the (row, scalar) pairs ``columns[j]``, rows distinct."""
        m = cls(ring, nrows, len(columns))
        for j, col in enumerate(columns):
            for i, x in col:
                m[i, j] = x
        return m

    # access ----------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self._d[i][j]

    def __setitem__(self, ij: tuple[int, int], value) -> None:
        i, j = ij
        self._d[i][j] = _entry(self.ring, value)

    def row(self, i: int) -> list:
        return list(self._d[i])

    def column(self, j: int) -> list:
        return [self._d[i][j] for i in range(self.rows)]

    # arithmetic -------------------------------------------------------------

    def _check_ring(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = Matrix(self.ring, self.rows, other.cols)
        for i in range(self.rows):
            ri = self._d[i]
            for j in range(other.cols):
                acc = sum(ri[k] * other._d[k][j] for k in range(self.cols))
                out._d[i][j] = _entry(self.ring, acc)
        return out

    def is_zero(self) -> bool:
        return not any(x for row in self._d for x in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
        )

    def to_lists(self) -> list[list]:
        return [list(r) for r in self._d]

    def __repr__(self) -> str:
        return f"Matrix({self.ring.label()}, {self.rows}x{self.cols})"


# --------------------------------------------------------------------------
# Vector kernels.  Two implementations behind one duck-typed surface:
# GF(2) vectors are ints-as-bitsets, everything else is a sparse dict.
# Code outside this module builds vectors with ``from_items``/``from_list``
# and reads them with ``items``/``coeff``, never by their representation.
# A ``Span`` tag combination is a vector of the same kernel, indexed by
# tag: a bitset over GF(2), a dict elsewhere.  ``reduce`` and
# ``combo_pivot`` build combinations, and callers read them with ``items``.


class _Gf2Ops:
    """Bitset vectors over GF(2): addition is XOR, scalars are 0/1."""

    ring = GF2

    @staticmethod
    def zero(n: int) -> int:
        return 0

    @staticmethod
    def unit(n: int, i: int) -> int:
        return 1 << i

    @staticmethod
    def from_items(n: int, items: Iterable[tuple[int, int]]) -> int:
        v = 0
        for i, c in items:
            if c % 2:
                v ^= 1 << i
        return v

    @staticmethod
    def from_list(xs: Sequence[int]) -> int:
        v = 0
        for i, c in enumerate(xs):
            if c % 2:
                v |= 1 << i
        return v

    @staticmethod
    def items(v: int) -> Iterator[tuple[int, int]]:
        """Nonzero (index, scalar) pairs in ascending index order."""
        while v:
            low = v & -v
            yield low.bit_length() - 1, 1
            v ^= low

    @staticmethod
    def add(u: int, v: int) -> int:
        return u ^ v

    sub = add

    @staticmethod
    def scale(c: int, v: int) -> int:
        return v if c & 1 else 0

    @staticmethod
    def is_zero(v: int) -> bool:
        return v == 0

    @staticmethod
    def coeff(v: int, i: int) -> int:
        return (v >> i) & 1

    @staticmethod
    def pivot(v: int) -> int | None:
        if v == 0:
            return None
        return (v & -v).bit_length() - 1

    # scalar helpers
    sc_zero = 0
    sc_one = 1

    @staticmethod
    def sc_neg(a: int) -> int:
        return a & 1

    @staticmethod
    def sc_mul(a: int, b: int) -> int:
        return a & b & 1

    @staticmethod
    def sc_inv(a: int) -> int:
        if a & 1:
            return 1
        raise ZeroDivisionError("inverse of 0 in GF(2)")

    # combinations of Span tags: a bitset of tags, like a vector
    @staticmethod
    def reduce(v: int, pivots: dict, index: int) -> tuple[int, int]:
        """``Span``'s reduce: clear the hits ``v & index`` lowest first,
        each by XOR with its pivot vector, collecting the combinations."""
        mu = 0
        hits = v & index
        while hits:
            pvec, pcombo = pivots[(hits & -hits).bit_length() - 1]
            v ^= pvec
            mu ^= pcombo
            hits = v & index
        return v, mu

    @staticmethod
    def combo_pivot(mu: int, inv: int, tag: int) -> int:
        return mu ^ 1 << tag


class _FieldOps:
    """Sparse vectors over Q or F_p (p odd): dicts from index to nonzero scalar.

    One normaliser chosen at construction keeps every scalar canonical, so
    equal vectors are equal dicts: over F_p it is ``x % p``; over Q it is
    :func:`_rational`, which keeps a scalar an ``int`` while it is integral
    and a ``Fraction`` (denominator above 1) otherwise.  Boundary entries
    are +-1, so nearly all the arithmetic stays on ints.

    A combination of ``Span`` tags is a ``{tag: scalar}`` dict.
    """

    def __init__(self, ring: CoefficientRing):
        if not ring.is_field:
            raise ValueError("vector kernel requires a field")
        self.ring = ring
        p = ring.p
        self._norm = (lambda x: x % p) if p else _rational
        self.sc_zero = self._norm(0)
        self.sc_one = self._norm(1)

    def zero(self, n: int) -> dict:
        return {}

    def unit(self, n: int, i: int) -> dict:
        return {i: self.sc_one}

    def from_items(self, n: int, items: Iterable[tuple[int, object]]) -> dict:
        acc: dict = {}
        for i, c in items:
            acc[i] = acc.get(i, 0) + c
        norm = self._norm
        return {i: c for i, c in ((i, norm(c)) for i, c in acc.items()) if c}

    def from_list(self, xs: Sequence) -> dict:
        return self.from_items(len(xs), enumerate(xs))

    def items(self, v: dict) -> Iterator[tuple[int, object]]:
        """Nonzero (index, scalar) pairs in ascending index order."""
        return iter(sorted(v.items()))

    def add(self, u: dict, v: dict) -> dict:
        return self._merge(u, v.items())

    def sub(self, u: dict, v: dict) -> dict:
        return self._merge(u, ((i, -c) for i, c in v.items()))

    def _merge(self, u: dict, items: Iterable[tuple[int, object]]) -> dict:
        w = dict(u)
        norm = self._norm
        for i, c in items:
            s = norm(w.get(i, 0) + c)
            if s:
                w[i] = s
            else:
                del w[i]
        return w

    def scale(self, c, v: dict) -> dict:
        c = self._norm(c)
        if not c:
            return {}
        norm = self._norm
        # a field has no zero divisors, so no product vanishes
        return {i: norm(c * a) for i, a in v.items()}

    def is_zero(self, v: dict) -> bool:
        return not v

    def coeff(self, v: dict, i: int):
        return v.get(i, self.sc_zero)

    def pivot(self, v: dict) -> int | None:
        return min(v) if v else None

    # scalar helpers
    def sc_neg(self, a):
        return self._norm(-a)

    def sc_mul(self, a, b):
        return self._norm(a * b)

    def sc_inv(self, a):
        a = self._norm(a)
        if not a:
            raise ZeroDivisionError("inverse of 0")
        if self.ring.kind == "rationals":
            return _rational(Fraction(1, a))
        return pow(a, -1, self.ring.p)

    # combinations of Span tags: {tag: nonzero scalar}
    def reduce(self, v: dict, pivots: dict, index: int) -> tuple[dict, dict]:
        """``Span``'s reduce: pop the pivot coordinates ``v`` meets from a
        min-heap and subtract there, in place on one copy of ``v``.

        A pivot vector is zero below its pivot, so a subtraction only adds
        hits above the one it clears; the hits are found by membership in
        ``pivots`` (``index`` serves the bitset kernel)."""
        mu: dict = {}
        heap = [i for i in v if i in pivots]
        if not heap:
            return v, mu
        heapify(heap)
        w = dict(v)
        norm = self._norm
        while heap:
            i = heappop(heap)
            c = w.get(i)
            if c is None:
                continue  # cancelled by an earlier subtraction
            pvec, pcombo = pivots[i]
            for j, a in pvec.items():
                s = w.get(j)
                if s is None:
                    w[j] = norm(-c * a)
                    if j in pivots:
                        heappush(heap, j)
                else:
                    s = norm(s - c * a)
                    if s:
                        w[j] = s
                    else:
                        del w[j]
            for g, a in pcombo.items():
                s = norm(mu.get(g, 0) + c * a)
                if s:
                    mu[g] = s
                else:
                    del mu[g]
        return w, mu

    def combo_pivot(self, mu: dict, inv, tag: int) -> dict:
        """``inv * (e_tag - mu)``, the combination of a new pivot vector."""
        norm = self._norm
        combo = {g: norm(-inv * a) for g, a in mu.items()}
        combo[tag] = inv
        return combo


_GF2_OPS = _Gf2Ops()
_OPS_CACHE: dict[CoefficientRing, object] = {}


def vector_ops(ring: CoefficientRing):
    """The vector kernel for a field (bitset-backed for GF(2))."""
    if ring == GF2:
        return _GF2_OPS
    ops = _OPS_CACHE.get(ring)
    if ops is None:
        ops = _FieldOps(ring)
        _OPS_CACHE[ring] = ops
    return ops


class Span:
    """Incrementally echelonised span of vectors, with combination tracking.

    Vectors are inserted one at a time and receive consecutive integer tags
    0, 1, 2, ...  A dependent insert (and ``solve``) returns the combination
    expressing the vector over the previously inserted *independent*
    generators, as a vector of the kernel indexed by tag (a bitset of tags
    over GF(2), a ``{tag: coefficient}`` dict elsewhere): read it with
    ``ops.items``.  Pivoting is deterministic: a new independent vector is
    reduced, scaled to 1 at its lowest nonzero coordinate, and stored under
    that coordinate, its pivot, with its combination in the same format.

    The store is ``{pivot coordinate: (vector, combination)}``, with the
    bitset of its keys beside it.  A reduce (the ops' ``reduce``) subtracts
    only at the pivot coordinates the running vector meets, smallest first.
    Its result does not depend on the order of the subtractions: the
    reduced vector is the one vector that differs from the input by an
    element of the span and is zero at every pivot coordinate.

    ``copy()`` gives an independent span with the same pivots and tag
    counter: it shares the pivot entries (never mutated after insertion),
    so inserting into either one leaves the other unchanged, and the
    copy's tags continue from the original's ``inserted``.

    ``last_pivot`` is the pivot coordinate of the vector that the last
    ``insert`` added, or None when it added none (a pivot may be 0, so
    test it with ``is None``).
    """

    def __init__(self, ops, n: int):
        self.ops = ops
        self.n = n
        self._pivots: dict[int, tuple[object, object]] = {}
        self._index = 0
        self._count = 0
        self.last_pivot: int | None = None

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def inserted(self) -> int:
        return self._count

    def copy(self) -> "Span":
        other = Span(self.ops, self.n)
        other._pivots = dict(self._pivots)
        other._index = self._index
        other._count = self._count
        return other

    def insert(self, v) -> tuple[bool, object]:
        """Insert a vector; return (is_new, combo).

        ``combo`` is None for an independent vector, otherwise the
        dependency ``v == sum(c * generator_g for g, c in ops.items(combo))``.
        """
        ops = self.ops
        tag = self._count
        self._count += 1
        w, mu = ops.reduce(v, self._pivots, self._index)
        if ops.is_zero(w):
            self.last_pivot = None
            return False, mu
        piv = self.last_pivot = ops.pivot(w)
        inv = ops.sc_inv(ops.coeff(w, piv))
        self._pivots[piv] = (ops.scale(inv, w), ops.combo_pivot(mu, inv, tag))
        self._index |= 1 << piv
        return True, None

    def solve(self, v) -> object:
        """Combination of generators equal to ``v``, or None if outside."""
        w, mu = self.ops.reduce(v, self._pivots, self._index)
        return mu if self.ops.is_zero(w) else None


def _echelon(ops, n: int, vectors: Iterable) -> tuple[Span, list]:
    """One reduction: the ``Span`` of ``vectors`` in dimension n (tag t is
    vector t) and its dependencies, as kernel vectors in tag coordinates."""
    span, kernel = Span(ops, n), []
    for t, v in enumerate(vectors):
        is_new, combo = span.insert(v)
        if not is_new:
            # every tag in the combo is an earlier vector, so e_t - combo
            # is a kernel vector
            kernel.append(ops.combo_pivot(combo, ops.sc_one, t))
    return span, kernel


def column_rank(ops, columns: Iterable) -> int:
    """Rank of a set of vectors (columns of a map) over a field kernel."""
    return _echelon(ops, 0, columns)[0].dim


def nullspace(ops, columns: Sequence, source_dim: int) -> list:
    """Kernel basis of the linear map with the given column images.

    ``columns[t]`` is the image of the t-th source basis vector.  Returns
    kernel vectors in source coordinates, in deterministic (echelon) order;
    each is a ``Span`` tag combination, so it has the kernel's combination
    format.
    """
    return _echelon(ops, 0, (columns[t] for t in range(source_dim)))[1]


def _homology_walk(ops, lo: int, hi: int, rank, columns) -> Iterator[tuple[int, Span, list]]:
    """Reduce each differential of a complex once, degrees ascending.

    ``rank(n)`` is the dimension of degree n, ``columns(n)`` the (row,
    scalar) columns of ∂_n.  Yields (n, span, cycles) for n = lo .. hi: the
    ``Span`` of the columns of ∂_{n+1} (tag t is column t) and the cycles
    of degree n, the dependencies met one step before, in the span of
    degree n - 1.  Only that span and the next cycles are kept.
    """
    cycles, start = None, lo - 1
    if not rank(start):
        # ∂_lo is zero, so the chains of degree lo are its cycles
        size = rank(lo)
        cycles, start = [ops.unit(size, t) for t in range(size)], lo
    for n in range(start, hi + 1):
        size = rank(n)
        span, kernel = _echelon(ops, size, (ops.from_items(size, col) for col in columns(n + 1)))
        if cycles is not None:
            yield n, span, cycles
        cycles = kernel


def _barcode(dc) -> list[tuple[int, int, int | None]]:
    """The bars of a double complex's total complex, filtered by column,
    that reach page one.

    ``dc`` has a field ``ring``, its occupied bidegrees ``cells()``, their
    sizes ``cell_dim(p, q)`` and per-basis (row, scalar) columns
    ``dv_sparse(p, q)`` into (p, q-1) and ``dh_sparse(p, q)`` into
    (p-1, q).  A bar (n, b, d) is a class of total degree n born in column
    b and killed in column d > b (never when d is None), for
    D = d_h + (-1)^p d_v.  With d - b >= r it gives one class at
    E^r_{b, n-b} and one at E^r_{d, n+1-d}, joined by d^{d-b}; an infinite
    bar gives a class at E^r_{b, n-b} on every page (Basu & Parida,
    *Spectral sequences, exact couples and persistent homology of
    filtrations*, Expo. Math. 2017).

    Each total degree is reduced once, top degree first, with clearing
    (Chen & Kerber, *Persistent homology computation with a twist*, 2011):
    its chains, column by column, go into one ``Span`` of the degree below
    over reversed coordinates, so that a new pivot (``Span.last_pivot``)
    is the persistence low, the chain latest in the filtration.  A chain
    that is a low one degree up is a cycle, and is skipped.
    """
    ops = vector_ops(dc.ring)
    columns: dict[int, list[int]] = {}
    for p, q in dc.cells():
        columns.setdefault(p + q, []).append(p)
    # where each column's cell starts in its degree's basis, and the size
    starts = {n: list(accumulate((dc.cell_dim(p, n - p) for p in ps), initial=0)) for n, ps in columns.items()}
    bars: list[tuple[int, int, int | None]] = []
    cleared: set[int] = set()
    for n in sorted(columns, reverse=True):
        below, below_starts = columns.get(n - 1, []), starts.get(n - 1, [0])
        top = below_starts[-1] - 1
        offset = dict(zip(below, below_starts))
        span, lows = Span(ops, top + 1), set()
        for p, first in zip(columns[n], starts[n]):
            q, sign = n - p, -1 if p % 2 else 1
            dh, dv = dc.dh_sparse(p, q), dc.dv_sparse(p, q)
            h0, v0 = top - offset.get(p - 1, 0), top - offset.get(p, 0)
            for t in range(len(dv)):
                if first + t in cleared:
                    continue
                items = [(h0 - row, c) for row, c in dh[t]] + [(v0 - row, sign * c) for row, c in dv[t]]
                if span.insert(ops.from_items(top + 1, items))[0]:
                    low = top - span.last_pivot
                    lows.add(low)
                    b = below[bisect_right(below_starts, low) - 1]
                    if b != p:
                        bars.append((n - 1, b, p))
                else:
                    bars.append((n, p, None))
        cleared = lows
    return bars


def _page_from_bars(bars, r: int) -> tuple[Counter, Counter]:
    """Page r read off the bars of :func:`_barcode`: its dimensions, and
    the ranks of d^r by source bidegree, both keyed by (p, q).

    A bar lasting r pages or more leaves its ends on page r, and one
    lasting exactly r is a rank of d^r at its death end.
    """
    ends: Counter[tuple[int, int]] = Counter()
    deaths: Counter[tuple[int, int]] = Counter()
    for n, b, d in bars:
        if d is None:
            ends[b, n - b] += 1
        elif d - b >= r:
            ends.update(((b, n - b), (d, n + 1 - d)))
            if d - b == r:
                deaths[d, n + 1 - d] += 1
    return ends, deaths


# --------------------------------------------------------------------------
# Chain complexes


def composite_vanishes(ring: CoefficientRing, *terms) -> bool:
    """Whether the sum of ``sign * second∘first`` over the terms
    ``(first, second, sign)`` vanishes over ``ring``.  Maps are lists of
    (row, scalar) columns; every ``first`` has the same number of columns."""
    p = ring.p
    for j in range(len(terms[0][0])):
        acc: dict[int, object] = {}
        for first, second, sign in terms:
            for i, a in first[j]:
                for r, b in second[i]:
                    acc[r] = acc.get(r, 0) + sign * a * b
        if any(x % p if p else x for x in acc.values()):
            return False
    return True


class ChainComplex:
    """A bounded chain complex of finite free modules.

    Differentials lower degree by one.  The constructor takes each as a
    :class:`Matrix` or as a list of columns of (row, scalar) pairs, stores
    it as columns with distinct rows and the ring's nonzero canonical
    scalars (over the rationals an int when integral), and checks that
    consecutive differentials compose to zero.
    """

    def __init__(
        self,
        ring: CoefficientRing,
        ranks: dict[int, int],
        differentials: dict[int, Matrix | Sequence[Sequence[tuple[int, object]]]],
    ):
        self.ring = ring
        self._ranks = {n: r for n, r in ranks.items() if r > 0}
        degs = sorted(self._ranks)
        self.bottom = degs[0] if degs else 0
        self.top = degs[-1] if degs else -1
        self._cols: dict[int, tuple[tuple[tuple[int, object], ...], ...]] = {}
        for n, d in differentials.items():
            rows, cols = self.rank(n - 1), self.rank(n)
            if isinstance(d, Matrix):
                if d.ring != ring:
                    raise ValueError("differential over the wrong ring")
                if d.rows != rows or d.cols != cols:
                    raise ValueError(f"differential at degree {n} has wrong shape")
                d = [[(i, d[i, j]) for i in range(rows)] for j in range(cols)]
            elif len(d) != cols:
                raise ValueError(f"differential at degree {n} has {len(d)} columns, expected {cols}")
            self._cols[n] = tuple(self._column(n, rows, col) for col in d)
        for n, cols in self._cols.items():
            lower = self._cols.get(n - 1)
            if lower is not None and not composite_vanishes(ring, (cols, lower, 1)):
                raise ValueError(f"differential does not square to zero at degree {n}")

    def _column(self, n: int, rows: int, col) -> tuple[tuple[int, object], ...]:
        acc: dict[int, object] = {}
        for i, x in col:
            if not 0 <= i < rows:
                raise ValueError(f"differential at degree {n} has row {i}, expected fewer than {rows}")
            acc[i] = acc.get(i, 0) + x
        return tuple((i, c) for i, c in ((i, _coerce(self.ring, x)) for i, x in acc.items()) if c)

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def columns(self, n: int) -> tuple[tuple[tuple[int, object], ...], ...]:
        """The degree-n differential as its sparse columns."""
        return self._cols.get(n) or ((),) * self.rank(n)

    def diff(self, n: int) -> Matrix:
        """The degree-n differential as a dense matrix, built on each call."""
        return Matrix.from_sparse(self.ring, self.rank(n - 1), self.columns(n))

    def degrees(self) -> range:
        return range(self.bottom, self.top + 1)  # empty when every rank is 0

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{self.rank(n)}" for n in self.degrees())
        return f"ChainComplex({self.ring.label()}; {parts})"


def faces(s: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The codimension-one faces of a simplex, each with its sign in the
    simplicial boundary: deleting vertex k gives the sign (-1)^k."""
    return [(s[:k] + s[k + 1 :], -1 if k % 2 else 1) for k in range(len(s))]


def _boundary_complex(
    ring: CoefficientRing, bases: dict[int, Sequence[tuple[int, ...]]]
) -> ChainComplex:
    """Chain complex of the signed simplicial boundary on given bases.

    ``bases[q]`` lists the q-simplices (sorted vertex tuples); rows and
    columns follow that order.  A face not listed one degree down drops
    out of the boundary; the empty simplex ``()`` in degree -1 turns the
    boundary of a vertex into the augmentation.
    """
    ranks = {q: len(basis) for q, basis in bases.items() if basis}
    diffs = {}
    for q in ranks:
        if q - 1 not in ranks:
            continue
        index = {s: i for i, s in enumerate(bases[q - 1])}
        diffs[q] = [[(index[f], c) for f, c in faces(s) if f in index] for s in bases[q]]
    return ChainComplex(ring, ranks, diffs)


def simplicial_chain_complex(X, ring: CoefficientRing, reduced: bool = False) -> ChainComplex:
    """Simplicial chain complex of a complex, with standard boundary signs.

    Basis order in each degree is the complex's stored (sorted) simplex
    order.  With ``reduced=True`` a rank-one module in degree -1 is
    appended, with the augmentation sending every vertex to the generator.
    """
    bases = {q: X.simplices_of_dim(q) for q in X.dims()}
    if reduced and bases.get(0):
        bases[-1] = ((),)
    return _boundary_complex(ring, bases)


# --------------------------------------------------------------------------
# Homology


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """A finitely generated abelian group: free rank plus torsion orders.

    Torsion orders form a divisibility chain d_1 | d_2 | ... with each
    d_i > 1.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion orders must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion orders must exceed 1")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class HomologyBasis:
    """Homology of a chain complex in one degree.

    Over a field this carries chosen cycle representatives together with a
    ``reduce`` method writing any cycle in those representatives modulo
    boundaries.  It reads them off one step of the homology walk: the span
    of the boundaries, into which the cycles found one degree down are
    inserted, so each differential is reduced once.  ``HomologyBasis(C, n)``
    walks degrees n - 1 .. n; :func:`homology_table` walks every degree once.
    Over the integers it carries only an :class:`AbelianGroupPresentation`,
    read off the invariant factors of the differentials into and out of the
    degree (Munkres, *Elements of Algebraic Topology*, §11):
    ``representatives`` is None and ``reduce`` raises
    :class:`NotImplementedError`.
    """

    def __init__(self, complex_: ChainComplex, degree: int):
        ring = complex_.ring
        if ring.is_field:
            ((_, *parts),) = _homology_walk(vector_ops(ring), degree, degree, complex_.rank, complex_.columns)
        else:
            parts = [complex_.rank(degree)]
            parts += (invariant_factors(complex_.rank(n - 1), complex_.columns(n)) for n in (degree, degree + 1))
        self._init(ring, degree, *parts)

    @classmethod
    def _from(cls, ring: CoefficientRing, degree: int, *parts) -> "HomologyBasis":
        """The private constructor: ``parts`` is a walk's (span, cycles) over
        a field, or (rank, factors of ∂_n, factors of ∂_{n+1}) over Z."""
        self = cls.__new__(cls)
        self._init(ring, degree, *parts)
        return self

    def _init(self, ring: CoefficientRing, degree: int, *parts) -> None:
        self.degree, self.ring = degree, ring
        if not ring.is_field:
            # H_n = Z^(c_n - r_n - r_{n+1}) + the sum of Z/d over the invariant
            # factors d > 1 of the differential out of degree n + 1
            self.ambient_rank, here, above = parts
            self.cycle_rank = self.ambient_rank - len(here)
            self.boundary_rank = len(above)
            self.dim = self.cycle_rank - len(above)
            self.presentation = AbelianGroupPresentation(self.dim, tuple(d for d in above if d > 1))
            self.representatives = None
            return
        span, cycles = parts
        self._ops, self._span = span.ops, span
        self.ambient_rank, self.boundary_rank = span.n, span.dim
        # the boundary columns went in first, so a tag below this is a column
        self._witness_dim = span.inserted
        self.representatives, self._rep_tag_index = [], {}
        for z in cycles:
            if span.insert(z)[0]:
                self._rep_tag_index[span.inserted - 1] = len(self.representatives)
                self.representatives.append(z)
        self.cycle_rank = len(cycles)
        self.dim = len(self.representatives)
        self.presentation = AbelianGroupPresentation(self.dim)

    def reduce(self, cycle) -> list:
        """Coordinates of a cycle in the representative basis (mod boundaries)."""
        return self.reduce_with_witness(cycle)[0]

    def reduce_with_witness(self, cycle) -> tuple[list, object]:
        """Like :meth:`reduce`, also returning w with cycle = sum(coords*reps) + boundary(w)."""
        if not self.ring.is_field:
            raise NotImplementedError("reduce needs field coefficients; over Z only the presentation is computed")
        ops = self._ops
        for i, _ in ops.items(cycle):
            if not 0 <= i < self.ambient_rank:
                raise ValueError(f"vector has an entry at index {i}, outside 0..{self.ambient_rank - 1}")
        combo = self._span.solve(cycle)
        if combo is None:
            raise SolveFailure("vector is not a cycle (or not in the cycle space)")
        coords = [ops.sc_zero] * self.dim
        boundary = []
        for tag, c in ops.items(combo):
            k = self._rep_tag_index.get(tag)
            if k is None:
                boundary.append((tag, c))  # a boundary tag is its column index
            else:
                coords[k] = c
        return coords, ops.from_items(self._witness_dim, boundary)

    def __repr__(self) -> str:
        if self.ring.is_field:
            return f"H_{self.degree}({self.ring.label()}) dim {self.dim}"
        return f"H_{self.degree}(Z) = {self.presentation.describe()}"


def homology(C: ChainComplex, n: int, ring: CoefficientRing | None = None) -> HomologyBasis:
    """Homology of ``C`` in degree ``n``; ``ring`` must match ``C`` if given."""
    if ring is not None and ring != C.ring:
        raise ValueError("requested ring differs from the complex's ring")
    return HomologyBasis(C, n)


def homology_table(C: ChainComplex) -> dict[int, HomologyBasis]:
    """Homology of ``C`` in each of its degrees, each differential reduced
    once: by one homology walk over a field, by one call of
    :func:`invariant_factors` over the integers."""
    if C.ring.is_field:
        walk = _homology_walk(vector_ops(C.ring), C.bottom, C.top, C.rank, C.columns)
        return {step[0]: HomologyBasis._from(C.ring, *step) for step in walk}
    factors = [invariant_factors(C.rank(n - 1), C.columns(n)) for n in range(C.bottom, C.top + 2)]
    return {n: HomologyBasis._from(C.ring, n, C.rank(n), *factors[i : i + 2]) for i, n in enumerate(C.degrees())}


def betti_numbers(C: ChainComplex) -> dict[int, int]:
    """Dimensions dim ker - rank of the adjacent differentials (field rings)."""
    if not C.ring.is_field:
        raise ValueError("betti_numbers expects field coefficients")
    walk = _homology_walk(vector_ops(C.ring), C.bottom, C.top, C.rank, C.columns)
    return {n: len(cycles) - span.dim for n, span, cycles in walk}


# --------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(A: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form over Z: returns (D, U, V) with U * A * V = D.

    D is diagonal with nonnegative entries forming a divisibility chain;
    U and V are unimodular (determinant +-1).  Entries are exact Python
    ints, so intermediate growth is harmless.
    """
    if A.ring != ZZ:
        raise ValueError("Smith normal form is an integral operation")
    m, n = A.rows, A.cols
    M = [list(map(int, A.row(i))) for i in range(m)]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            M[r][i] -= q * M[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of smallest magnitude in the working block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] != 0 and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    row_op(i, t, q)
                    if M[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    q = M[t][j] // M[t][t]
                    col_op(j, t, q)
                    if M[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if M[i][j] % M[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row t so the pivot can shrink
            M[t] = [a + b for a, b in zip(M[t], M[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
        if M[t][t] < 0:
            M[t] = [-a for a in M[t]]
            U[t] = [-a for a in U[t]]
        t += 1

    return Matrix(ZZ, m, n, M), Matrix(ZZ, m, m, U), Matrix(ZZ, n, n, V)


def invariant_factors(rows: int, columns: Iterable[Iterable[tuple[int, int]]]) -> list[int]:
    """Nonzero invariant factors over Z of the map with these (row, scalar)
    columns, ascending, as a divisibility chain.

    Sparse elimination comes first (Dumas, Saunders & Villard, 2001): each
    +-1 entry is a pivot that clears its row from the other columns, whose
    edits touch only the columns holding that row, and contributes one
    factor 1.  Only the block left when no unit remains goes to the dense
    :func:`smith_normal_form`.  ``rows`` bounds the row indices.
    """
    cols: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # row -> the columns with an entry there
    for j, column in enumerate(columns):
        col: dict[int, int] = {}
        for r, x in column:
            if not 0 <= r < rows:
                raise ValueError(f"row index {r} outside 0..{rows - 1}")
            col[r] = col.get(r, 0) + x
        col = {r: x for r, x in col.items() if x}
        if col:
            cols[j] = col
            for r in col:
                holders.setdefault(r, set()).add(j)
    units = 0
    progress = True
    while progress:
        progress = False
        for j in list(cols):
            pivot = cols.get(j)
            unit_rows = [r for r, x in pivot.items() if x == 1 or x == -1] if pivot else ()
            if not unit_rows:
                continue
            # the row held by fewest columns makes the fewest edits
            r = min(unit_rows, key=lambda s: len(holders[s]))
            del cols[j]
            for s in pivot:
                holders[s].discard(j)
            for k in holders.pop(r):
                col = cols[k]
                q = col.pop(r) * pivot[r]  # the pivot is its own inverse
                for s, x in pivot.items():
                    if s == r:
                        continue
                    y = col.get(s, 0) - q * x
                    if y:
                        if s not in col:
                            holders[s].add(k)
                        col[s] = y
                    else:
                        del col[s]
                        holders[s].discard(k)
                if not col:
                    del cols[k]
            units += 1
            progress = True
    factors = [1] * units
    if cols:
        index = {r: i for i, r in enumerate(sorted(r for r, held in holders.items() if held))}
        block = Matrix.from_sparse(ZZ, len(index), [[(index[r], x) for r, x in c.items()] for c in cols.values()])
        D, _, _ = smith_normal_form(block)
        factors += [D[t, t] for t in range(min(D.rows, D.cols)) if D[t, t]]
    return factors
