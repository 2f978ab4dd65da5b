"""Exact linear algebra over prime fields, the rationals and the integers.

Provides the arithmetic core used by every other module: chain complexes
with checked differentials stored as sparse (row, scalar) columns, homology
with chosen representatives, Smith normal form with explicit unimodular
transforms, induced maps on homology, and mapping cones.  Dense exact
matrices are built only at the public edge and for the Smith normal form.

No floating point anywhere.  Scalars are Python ints (integers and prime
fields) or ``fractions.Fraction`` (rationals).  Over GF(2) the internal
vector layer stores a vector as a single int used as a bitset, which keeps
the heavy enumerative computations (cube complexes, spectral sequence
pages) cheap; every other field stores a sparse dict from index to
nonzero scalar.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    "ChainMap",
    "AbelianGroupPresentation",
    "HomologyBasis",
    "simplicial_chain_complex",
    "homology",
    "betti_numbers",
    "smith_normal_form",
    "induced_map_on_homology",
    "mapping_cone",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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
    """Coerce an int/Fraction into the canonical scalar type of ``ring``."""
    if ring.kind == "integers":
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return int(x)
        return int(x)
    if ring.kind == "rationals":
        return Fraction(x)
    return int(x) % ring.p  # type: ignore[operator]


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
            zero = _coerce(ring, 0)
            self._d = [[zero] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data has the wrong shape")
            self._d = [[_coerce(ring, x) for x in row] for row in data]

    # construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, ring: CoefficientRing, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols)

    @classmethod
    def identity(cls, ring: CoefficientRing, n: int) -> "Matrix":
        m = cls(ring, n, n)
        one = _coerce(ring, 1)
        for i in range(n):
            m._d[i][i] = one
        return m

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
        self._d[i][j] = _coerce(self.ring, value)

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
                out._d[i][j] = _coerce(self.ring, acc)
        return out

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, vector given and returned as a plain list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [
            _coerce(self.ring, sum(self._d[i][k] * vec[k] for k in range(self.cols)))
            for i in range(self.rows)
        ]

    def is_zero(self) -> bool:
        zero = _coerce(self.ring, 0)
        return all(x == zero for row in self._d for x in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
        )

    def __hash__(self):  # pragma: no cover - matrices are not hashable
        raise TypeError("Matrix is mutable; not hashable")

    def to_lists(self) -> list[list]:
        return [list(r) for r in self._d]

    def __repr__(self) -> str:
        return f"Matrix({self.ring.label()}, {self.rows}x{self.cols})"


# --------------------------------------------------------------------------
# Vector kernels.  Two implementations behind one duck-typed surface:
# GF(2) vectors are ints-as-bitsets, everything else is a sparse dict.
# Code outside this module builds vectors with ``from_items``/``from_list``
# and reads them with ``items``/``coeff``, never by their representation.


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
    def sc_add(a: int, b: int) -> int:
        return (a + b) & 1

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


class _FieldOps:
    """Sparse vectors over Q or F_p (p odd): dicts from index to nonzero scalar.

    One normaliser chosen at construction (to ``Fraction`` over Q, ``x % p``
    over F_p) keeps every scalar canonical, so equal vectors are equal dicts.
    """

    def __init__(self, ring: CoefficientRing):
        if not ring.is_field:
            raise ValueError("vector kernel requires a field")
        self.ring = ring
        p = ring.p
        # Fraction arithmetic already returns Fractions: convert only the rest
        self._norm = (lambda x: x % p) if p else (lambda x: x if type(x) is Fraction else Fraction(x))
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
    def sc_add(self, a, b):
        return self._norm(a + b)

    def sc_neg(self, a):
        return self._norm(-a)

    def sc_mul(self, a, b):
        return self._norm(a * b)

    def sc_inv(self, a):
        a = self._norm(a)
        if not a:
            raise ZeroDivisionError("inverse of 0")
        if self.ring.kind == "rationals":
            return 1 / a
        return pow(a, -1, self.ring.p)


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
    0, 1, 2, ...  A dependent insert (and ``solve``) returns a ``{tag:
    coefficient}`` dict expressing the vector over the previously inserted
    *independent* generators.  Pivoting is deterministic: each new
    independent vector is reduced against the existing pivots in insertion
    order and its lowest nonzero coordinate becomes the pivot.

    ``copy()`` gives an independent span with the same pivots and tag
    counter: it shares the pivot entries (never mutated after insertion),
    so inserting into either one leaves the other unchanged, and the
    copy's tags continue from the original's ``inserted``.
    """

    def __init__(self, ops, n: int):
        self.ops = ops
        self.n = n
        self._pivots: list[tuple[int, object, dict]] = []
        self._count = 0

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def inserted(self) -> int:
        return self._count

    def copy(self) -> "Span":
        other = Span(self.ops, self.n)
        other._pivots = list(self._pivots)
        other._count = self._count
        return other

    def _reduce(self, v):
        """Return (w, mu) with w = v - sum(mu[g] * generator_g)."""
        ops = self.ops
        w = v
        mu: dict[int, object] = {}
        for piv, pvec, pcombo in self._pivots:
            c = ops.coeff(w, piv)
            if c != ops.sc_zero:
                w = ops.sub(w, ops.scale(c, pvec))
                for g, a in pcombo.items():
                    acc = ops.sc_add(mu.get(g, ops.sc_zero), ops.sc_mul(c, a))
                    if acc == ops.sc_zero:
                        mu.pop(g, None)
                    else:
                        mu[g] = acc
        return w, mu

    def insert(self, v) -> tuple[bool, dict | None]:
        """Insert a vector; return (is_new, combo).

        ``combo`` is None for an independent vector, otherwise the
        dependency ``v == sum(combo[g] * generator_g)``.
        """
        ops = self.ops
        tag = self._count
        self._count += 1
        w, mu = self._reduce(v)
        if ops.is_zero(w):
            return False, mu
        piv = ops.pivot(w)
        inv = ops.sc_inv(ops.coeff(w, piv))
        w = ops.scale(inv, w)
        combo = {g: ops.sc_neg(ops.sc_mul(inv, a)) for g, a in mu.items()}
        combo[tag] = inv
        self._pivots.append((piv, w, combo))
        return True, None

    def solve(self, v) -> dict | None:
        """Combination of generators equal to ``v``, or None if outside."""
        w, mu = self._reduce(v)
        if self.ops.is_zero(w):
            return mu
        return None


def column_rank(ops, columns: Iterable) -> int:
    """Rank of a set of vectors (columns of a map) over a field kernel."""
    span = Span(ops, 0)
    for col in columns:
        span.insert(col)
    return span.dim


def matrix_rank(mat: "Matrix") -> int:
    """Rank of a matrix over its own coefficient field (or over QQ for ZZ)."""
    ring = QQ if mat.ring.kind == "integers" else mat.ring
    ops = vector_ops(ring)
    return column_rank(ops, (ops.from_items(mat.rows, [(i, mat[i, j]) for i in range(mat.rows)])
                             for j in range(mat.cols)))


def nullspace(ops, columns: Sequence, source_dim: int) -> list:
    """Kernel basis of the linear map with the given column images.

    ``columns[t]`` is the image of the t-th source basis vector.  Returns
    kernel vectors in source coordinates, in deterministic (echelon) order.
    """
    span = Span(ops, 0)
    kernel = []
    for t in range(source_dim):
        is_new, combo = span.insert(columns[t])
        if not is_new:
            # every tag in the combo is an earlier column, never t itself
            kernel.append(ops.from_items(source_dim, [(t, 1), *((g, -a) for g, a in combo.items())]))
    return kernel


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
    it as columns with distinct rows and nonzero scalars of the ring, and
    checks that consecutive differentials compose to zero.
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
        if not self._ranks:
            return range(0)
        return range(self.bottom, self.top + 1)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{self.rank(n)}" for n in self.degrees())
        return f"ChainComplex({self.ring.label()}; {parts})"


@dataclass
class ChainMap:
    """A degree-preserving map of chain complexes, checked to commute.

    A degree left out of ``components`` is the zero map; the squares on
    both sides of every given component are checked."""

    source: ChainComplex
    target: ChainComplex
    components: dict[int, Matrix]

    def __post_init__(self) -> None:
        ring = self.source.ring
        if self.target.ring != ring:
            raise ValueError("chain map across different rings")
        for n, f in self.components.items():
            if f.rows != self.target.rank(n) or f.cols != self.source.rank(n):
                raise ValueError(f"component at degree {n} has wrong shape")
        for n in sorted({n + e for n in self.components for e in (0, 1)}):
            left = self.target.diff(n) * self.component(n)
            right = self.component(n - 1) * self.source.diff(n)
            if left != right:
                raise ValueError(f"chain map fails to commute at degree {n}")

    def component(self, n: int) -> Matrix:
        f = self.components.get(n)
        if f is None:
            return Matrix.zeros(self.source.ring, self.target.rank(n), self.source.rank(n))
        return f


def _boundary_complex(
    ring: CoefficientRing, bases: dict[int, Sequence[tuple[int, ...]]]
) -> ChainComplex:
    """Chain complex of the signed simplicial boundary on given bases.

    ``bases[q]`` lists the q-simplices (sorted vertex tuples); rows and
    columns follow that order.  Every face of a listed simplex must be
    listed one degree down; the empty simplex ``()`` in degree -1 turns
    the boundary of a vertex into the augmentation.
    """
    ranks = {q: len(basis) for q, basis in bases.items() if basis}
    diffs = {}
    for q in ranks:
        if q - 1 not in ranks:
            continue
        index = {s: i for i, s in enumerate(bases[q - 1])}
        diffs[q] = [
            [(index[s[:k] + s[k + 1 :]], -1 if k % 2 else 1) for k in range(len(s))]
            for s in bases[q]
        ]
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
    boundaries.  Over the integers it carries an
    :class:`AbelianGroupPresentation`; representatives and ``reduce`` are
    available only when the group is free.
    """

    def __init__(self, complex_: ChainComplex, degree: int):
        self.degree = degree
        self.ring = complex_.ring
        self.ambient_rank = complex_.rank(degree)
        if self.ring.is_field:
            self._init_field(complex_, degree)
            self.presentation = AbelianGroupPresentation(self.dim)
        else:
            self._init_integral(complex_.diff(degree), complex_.diff(degree + 1))

    # field case -------------------------------------------------------------

    def _init_field(self, complex_: ChainComplex, degree: int) -> None:
        ops = vector_ops(self.ring)
        self._ops = ops
        n = self.ambient_rank
        below = complex_.rank(degree - 1)
        cycle_cols = [ops.from_items(below, col) for col in complex_.columns(degree)]
        cycles = nullspace(ops, cycle_cols, n) if n else []
        span = Span(ops, n)
        above = complex_.columns(degree + 1)
        for col in above:
            span.insert(ops.from_items(n, col))
        self.boundary_rank = span.dim
        reps = []
        rep_tags = []
        for z in cycles:
            is_new, _ = span.insert(z)
            if is_new:
                rep_tags.append(span.inserted - 1)
                reps.append(z)
        self._span = span
        self._rep_tags = rep_tags
        self._rep_tag_index = {t: k for k, t in enumerate(rep_tags)}
        self.representatives = reps
        self.cycle_rank = len(cycles)
        self.dim = len(reps)
        self._witness_dim = len(above)

    def reduce(self, cycle) -> list:
        """Coordinates of a cycle in the representative basis (mod boundaries)."""
        coords, _ = self._reduce_full(cycle)
        return coords

    def reduce_with_witness(self, cycle) -> tuple[list, object]:
        """Like :meth:`reduce`, also returning w with cycle = sum(coords*reps) + boundary(w)."""
        return self._reduce_full(cycle)

    def _reduce_full(self, cycle):
        if not self.ring.is_field:
            if not self.presentation.is_free:
                raise NotImplementedError("reduce over Z with torsion present")
            return self._reduce_integral(cycle), None
        ops = self._ops
        for i, _ in ops.items(cycle):
            if i >= self.ambient_rank:
                raise ValueError(f"vector has an entry at index {i}, expected fewer than {self.ambient_rank}")
        combo = self._span.solve(cycle)
        if combo is None:
            raise SolveFailure("vector is not a cycle (or not in the cycle space)")
        coords = [ops.sc_zero] * self.dim
        boundary = []
        for tag, c in combo.items():
            k = self._rep_tag_index.get(tag)
            if k is None:
                # Span tags count every insert and the boundary columns
                # went in first, so a boundary tag is its column index
                boundary.append((tag, c))
            else:
                coords[k] = c
        return coords, ops.from_items(self._witness_dim, boundary)

    # integral case ------------------------------------------------------------

    def _init_integral(self, d_here: Matrix, d_above: Matrix) -> None:
        n = self.ambient_rank
        D1, _, V1 = smith_normal_form(d_here)
        r1 = sum(1 for i in range(min(D1.rows, D1.cols)) if D1[i, i] != 0)
        kernel_basis = [V1.column(j) for j in range(r1, n)]  # integral basis of the cycle lattice
        k = len(kernel_basis)
        self.cycle_rank = k
        # boundary columns in kernel coordinates (the kernel basis spans a
        # direct summand, so the coordinates are integral)
        self._lattice = _lattice_span(n, kernel_basis)
        rel_cols = [_integer_coords(self._lattice, d_above.column(t)) for t in range(d_above.cols)]
        M = Matrix.from_sparse(ZZ, k, [enumerate(c) for c in rel_cols])
        D2, U2, _ = smith_normal_form(M)
        divisors = [D2[i, i] for i in range(min(D2.rows, D2.cols)) if D2[i, i] != 0]
        self.boundary_rank = len(divisors)
        torsion = tuple(int(d) for d in divisors if abs(d) > 1)
        free_rank = k - len(divisors)
        self.presentation = AbelianGroupPresentation(free_rank, torsion)
        self.dim = free_rank
        self._U2 = U2
        if self.presentation.is_free:
            # the columns of U2^-1 are the solutions of U2 x = e_t
            u2 = _lattice_span(k, [U2.column(j) for j in range(k)])
            reps = []
            for t in range(len(divisors), k):
                coords = _integer_coords(u2, [int(i == t) for i in range(k)])
                rep = [sum(kernel_basis[j][i] * coords[j] for j in range(k)) for i in range(n)]
                reps.append(rep)
            self.representatives = reps
        else:
            self.representatives = None

    def _reduce_integral(self, cycle) -> list:
        # every divisor is 1 in the free case, so the leading coordinates
        # are boundaries and the trailing ones are the class
        y = self._U2.apply(_integer_coords(self._lattice, cycle))
        return y[self.cycle_rank - self.presentation.free_rank :]

    def __repr__(self) -> str:
        if self.ring.is_field:
            return f"H_{self.degree}({self.ring.label()}) dim {self.dim}"
        return f"H_{self.degree}(Z) = {self.presentation.describe()}"


def _lattice_span(n: int, columns: Sequence[Sequence[int]]) -> Span:
    """Span over QQ of independent integer columns; column j keeps tag j."""
    ops = vector_ops(QQ)
    span = Span(ops, n)
    for col in columns:
        span.insert(ops.from_list(col))
    return span


def _integer_coords(lattice: Span, vector: Sequence) -> list[int]:
    """Coordinates of ``vector`` against a lattice basis; they must be integral."""
    if len(vector) != lattice.n:
        raise ValueError(f"vector has {len(vector)} entries, expected {lattice.n}")
    combo = lattice.solve(lattice.ops.from_list(vector))
    if combo is None:
        raise SolveFailure("vector outside the lattice")
    coords = [0] * lattice.inserted
    for j, c in combo.items():
        if c.denominator != 1:
            raise SolveFailure("non-integral coordinates against an integral basis")
        coords[j] = int(c)
    return coords


def homology(C: ChainComplex, n: int, ring: CoefficientRing | None = None) -> HomologyBasis:
    """Homology of ``C`` in degree ``n``; ``ring`` must match ``C`` if given."""
    if ring is not None and ring != C.ring:
        raise ValueError("requested ring differs from the complex's ring")
    return HomologyBasis(C, n)


def homology_table(C: ChainComplex) -> dict[int, HomologyBasis]:
    return {n: HomologyBasis(C, n) for n in C.degrees()}


def betti_numbers(C: ChainComplex) -> dict[int, int]:
    """Dimensions dim ker - rank of the adjacent differentials (field rings)."""
    if not C.ring.is_field:
        raise ValueError("betti_numbers expects field coefficients")
    ops = vector_ops(C.ring)
    rank_of = {
        n: column_rank(ops, (ops.from_items(C.rank(n - 1), col) for col in C.columns(n)))
        for n in C.degrees()
    }
    out = {}
    for n in C.degrees():
        out[n] = C.rank(n) - rank_of.get(n, 0) - rank_of.get(n + 1, 0)
    return out


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


# --------------------------------------------------------------------------
# Induced maps and cones


def induced_map_on_homology(f: ChainMap, degree: int) -> Matrix:
    """The map induced on homology in one degree by a chain map.

    Over a field the columns are the coordinates of f(representative) in
    the target's representative basis; over Z both sides must be free.
    Raises :class:`SolveFailure` if an image fails to reduce (which would
    mean ``f`` is not a chain map; the constructor already guards this).
    """
    src = HomologyBasis(f.source, degree)
    dst = HomologyBasis(f.target, degree)
    ring = f.source.ring
    comp = f.component(degree)
    if ring.is_field:
        ops = vector_ops(ring)
        cols = []
        for rep in src.representatives:
            img = ops.from_items(
                comp.rows,
                ((i, c * x) for t, c in ops.items(rep) for i, x in enumerate(comp.column(t))),
            )
            cols.append(dst.reduce(img))
        return Matrix.from_sparse(ring, dst.dim, [enumerate(c) for c in cols])
    if not (src.presentation.is_free and dst.presentation.is_free):
        raise NotImplementedError("integral induced maps require free homology on both sides")
    cols = []
    for rep in src.representatives:
        img = comp.apply(rep)
        cols.append(dst.reduce(img))
    return Matrix.from_sparse(ZZ, dst.presentation.free_rank, [enumerate(c) for c in cols])


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Mapping cone of a chain map: Cone(f)_n = target_n + source_{n-1}.

    The differential is the usual block triangular matrix with a sign on
    the off-diagonal component.
    """
    C, D = f.source, f.target
    lo = min(C.bottom + 1, D.bottom)
    hi = max(C.top + 1, D.top)
    ranks = {n: D.rank(n) + C.rank(n - 1) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo, hi + 1):
        fc = f.component(n - 1)
        shift = D.rank(n - 1)
        cols = list(D.columns(n))
        # the shifted copy of the source carries a negated differential so
        # that the square vanishes in every characteristic, not just 2
        for j, col in enumerate(C.columns(n - 1)):
            top = [(i, -x) for i, x in enumerate(fc.column(j)) if x]
            cols.append(top + [(shift + i, -x) for i, x in col])
        diffs[n] = cols
    return ChainComplex(C.ring, ranks, diffs)
