"""Independent re-computations used as oracles by the test suite.

Most of this deliberately avoids the library's linear algebra: ranks come
from sympy or from a self-contained mod-p elimination, Smith normal forms
from sympy, domination counts and chordality from networkx.  Simplicial
complexes and graphs are consumed only through their plain data (simplex
lists, edge lists).  ``DenseFieldOps`` is the package's former list-backed
vector kernel over Q and F_p (with ``Fraction`` scalars throughout), kept to
check the sparse kernel against, ``ScanSpan`` its former span, which keeps
every tag combination as a dict, and ``is_prime_by_trial_division`` its
former primality test.

The rest are retired library routes, kept as references, and they do reuse
library pieces:

* ``bold_free_ranks_by_column_rank`` is bold homology's former route over
  a field: each level map ranked over the field itself by ``column_rank``.
* ``matrix_rank`` is the former rank of a dense ``Matrix``, by
  ``column_rank`` over its field (over Q for Z).  Pages now read their
  differentials' ranks off the kernels found when they turn.
* ``LatticeHomology`` is integral homology's former route: two full Smith
  forms with their unimodular transforms (``smith_normal_form``) and
  lattice solves on a ``Span`` over Q, giving integral representatives
  and ``reduce`` when the group is free.  The library now reads only the
  presentation off ``invariant_factors``.
* ``ChainMap``, ``induced_map_on_homology`` and ``mapping_cone`` are the
  former chain-map API, built on the library's ``Matrix``,
  ``ChainComplex`` and (over a field) ``HomologyBasis``; over Z the
  induced map uses ``LatticeHomology``.
* ``uberhomology_by_cube`` is überhomology's former route: the horizontal
  homology of every colouring (the nodes of ``uber.UberComplex``) and,
  per (dimension, weight), the rank formula of ``uber._cube_homology``
  over the induced level maps.  The library now reads each weight off
  one barcode and builds no node.
* ``horizontal_columns`` is the horizontal differential's former rule:
  delete only the 1-coloured vertices of a simplex, with coefficient 1.
  The library now takes the signed simplicial boundary on a weight's
  simplices and drops the faces that leave them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import sympy
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf

from uberhom import uber
from uberhom.algebra import (
    GF2,
    QQ,
    ZZ,
    AbelianGroupPresentation,
    ChainComplex,
    HomologyBasis,
    Matrix,
    Span,
    _coerce,
    column_rank,
    smith_normal_form,
    vector_ops,
)
from uberhom.errors import SolveFailure


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --------------------------------------------------------------------------
# boundary matrices straight from the simplex lists


def boundary_rows(X, n: int) -> list[list[int]]:
    """The degree-n simplicial boundary as a dense row-major integer matrix.

    Rows are indexed by (n-1)-simplices, columns by n-simplices, entry
    (-1)^i for deleting position i of a sorted simplex.
    """
    top = list(X.simplices_of_dim(n))
    bottom = list(X.simplices_of_dim(n - 1))
    index = {s: r for r, s in enumerate(bottom)}
    rows = [[0] * len(top) for _ in bottom]
    for c, s in enumerate(top):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            rows[index[face]][c] += (-1) ** i
    return rows


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix reduced mod p, by plain elimination."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(inv * x) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rank_rational(rows: list[list[int]]) -> int:
    if not rows or not rows[0]:
        return 0
    return sympy.Matrix(rows).rank()


def matrix_rank_oracle(rows: list[list[int]], ring) -> int:
    if getattr(ring, "kind", None) == "prime_field":
        return rank_mod_p(rows, ring.p)
    return rank_rational(rows)


def matrix_rank(mat: Matrix) -> int:
    """Rank of a matrix over its own coefficient field (or over QQ for ZZ)."""
    ring = QQ if mat.ring.kind == "integers" else mat.ring
    ops = vector_ops(ring)
    return column_rank(ops, (ops.from_items(mat.rows, [(i, mat[i, j]) for i in range(mat.rows)])
                             for j in range(mat.cols)))


def betti_oracle(X, ring, reduced: bool = False) -> dict[int, int]:
    """Homology dimensions over a field from scratch (rank-nullity only)."""
    dims = {n: len(X.simplices_of_dim(n)) for n in range(X.max_dim + 1)}
    ranks = {}
    top = X.max_dim
    for n in range(top + 2):
        if n == 0:
            if reduced and dims.get(0, 0):
                rows = [[1] * dims[0]]  # augmentation
                ranks[0] = matrix_rank_oracle(rows, ring)
            else:
                ranks[0] = 0
        elif dims.get(n, 0) and dims.get(n - 1, 0):
            ranks[n] = matrix_rank_oracle(boundary_rows(X, n), ring)
        else:
            ranks[n] = 0
    out = {}
    for n in range(top + 1):
        d = dims.get(n, 0) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if d:
            out[n] = d
    return out


def integral_homology_oracle(X) -> dict[int, tuple[int, list[int]]]:
    """(free rank, torsion orders) by degree, via sympy Smith normal forms."""
    dims = {n: len(X.simplices_of_dim(n)) for n in range(X.max_dim + 1)}
    divisors: dict[int, list[int]] = {}
    for n in range(1, X.max_dim + 1):
        if dims.get(n, 0) and dims.get(n - 1, 0):
            D = _sympy_snf(sympy.Matrix(boundary_rows(X, n)))
            divisors[n] = [abs(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0]
        else:
            divisors[n] = []
    out = {}
    for n in range(X.max_dim + 1):
        r_here = len(divisors.get(n, []))
        above = divisors.get(n + 1, [])
        free = dims.get(n, 0) - r_here - len(above)
        torsion = sorted(d for d in above if d > 1)
        if free or torsion:
            out[n] = (free, torsion)
    return out


def snf_divisors_oracle(rows: list[list[int]]) -> list[int]:
    if not rows or not rows[0]:
        return []
    D = _sympy_snf(sympy.Matrix(rows))
    divs = [abs(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0]
    return sorted(divs, key=lambda d: (d != 1, d))


# --------------------------------------------------------------------------
# graphs


def to_networkx(G) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(G.vertex_count))
    g.add_edges_from(G.edges)
    return g


def domination_counts_oracle(G) -> list[int]:
    """Connected-dominating-set counts by size, via networkx checks."""
    g = to_networkx(G)
    m = G.vertex_count
    counts = [0] * (m + 1)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            covered = set(subset)
            for v in subset:
                covered.update(g.neighbors(v))
            if len(covered) != m:
                continue
            if nx.is_connected(g.subgraph(subset)):
                counts[size] += 1
    return counts


def chordal_oracle(G) -> bool:
    return nx.is_chordal(to_networkx(G))


def connected_atlas_graphs(max_vertices: int = 6):
    """All connected graphs on 1..max_vertices vertices (networkx atlas)."""
    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_vertices and nx.is_connected(g):
            out.append(nx.convert_node_labels_to_integers(g, ordering="sorted"))
    return out


def bold_free_ranks_by_column_rank(G, ring) -> dict[int, int]:
    """Free ranks of bold homology over a field, {level: rank}.

    The nodes are the components of the induced subgraphs (from
    networkx), the edge raising vertex v of ``mask`` has the sign -1 when
    an odd number of the vertices above v are 1 (the ones-above rule, not
    the library's ones-below rule), and each level map is ranked over
    ``ring`` by ``column_rank``, with no invariant factors.
    """
    ops = vector_ops(ring)
    g = to_networkx(G)
    m = G.vertex_count
    comps = []
    for mask in range(1 << m):
        induced = g.subgraph(v for v in range(m) if mask >> v & 1)
        comps.append(sorted((frozenset(c) for c in nx.connected_components(induced)), key=min))
    levels = [[mask for mask in range(1 << m) if mask.bit_count() == j] for j in range(m + 1)]
    dims = [sum(len(comps[mask]) for mask in level) for level in levels]
    ranks = [0] * (m + 2)  # ranks[j] is the rank of the map into level j
    for j in range(m):
        offset, row = {}, 0
        for mask in levels[j + 1]:
            offset[mask] = row
            row += len(comps[mask])
        columns = []
        for mask in levels[j]:
            for comp in comps[mask]:
                entries = []
                for v in range(m):
                    if not mask >> v & 1:
                        up = mask | 1 << v
                        r = next(r for r, c in enumerate(comps[up]) if comp <= c)
                        entries.append((offset[up] + r, -1 if (mask >> v + 1).bit_count() % 2 else 1))
                columns.append(ops.from_items(row, entries))
        ranks[j + 1] = column_rank(ops, columns)
    return {j: dims[j] - ranks[j] - ranks[j + 1] for j in range(m + 1)}


def uberhomology_by_cube(X) -> dict[tuple[int, int, int], int]:
    """Nonzero überhomology dimensions keyed by (level, weight, dimension),
    from the cube of horizontal homologies ranked level map by level map."""
    U = uber.UberComplex(X)
    rank = uber._field_rank(GF2)
    out: dict[tuple[int, int, int], int] = {}
    for (i, k) in U._pairs:
        for j, h in enumerate(uber._cube_homology(U.m, U._dims(i, k), U._edge(i, k), rank)):
            if h:
                out[(j, k, i)] = h
    return out


def horizontal_columns(X, colouring, k: int, q: int) -> list[list[tuple[int, int]]]:
    """Columns of the weight-k horizontal differential out of dimension q
    over GF(2): each q-simplex of weight k goes to its faces that delete a
    1-coloured vertex, rows indexed by the weight-k (q - 1)-simplices in
    X's order.  A vertex has no face."""

    def bucket(n):
        return [s for s in X.simplices_of_dim(n) if sum(1 for v in s if colouring[v] == 0) == k]

    rows = {s: r for r, s in enumerate(bucket(q - 1))}
    return [[(rows[s[:pos] + s[pos + 1 :]], 1) for pos, v in enumerate(s) if q and colouring[v]] for s in bucket(q)]


def euler_characteristic_oracle(X) -> int:
    return sum(
        (-1) ** n * len(X.simplices_of_dim(n)) for n in range(X.max_dim + 1)
    )


# --------------------------------------------------------------------------
# exact determinant (for unimodularity checks without trusting the library)


def det_exact(rows: list[list[int]]) -> Fraction:
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        mat[c] = [x * inv for x in mat[c]]
        for r in range(c + 1, n):
            if mat[r][c]:
                f = mat[r][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return det


# --------------------------------------------------------------------------
# the retired dense vector kernel


class DenseFieldOps:
    """List-backed vectors over Q or F_p (p odd)."""

    def __init__(self, ring):
        if not ring.is_field:
            raise ValueError("vector kernel requires a field")
        self.ring = ring
        if ring.kind == "rationals":
            self.sc_zero = Fraction(0)
            self.sc_one = Fraction(1)
        else:
            self.sc_zero = 0
            self.sc_one = 1

    def _c(self, x):
        return _coerce(self.ring, x)

    def zero(self, n: int) -> list:
        return [self.sc_zero] * n

    def unit(self, n: int, i: int) -> list:
        v = [self.sc_zero] * n
        v[i] = self.sc_one
        return v

    def from_items(self, n: int, items) -> list:
        v = [self.sc_zero] * n
        for i, c in items:
            v[i] = self.sc_add(v[i], self._c(c))
        return v

    def from_list(self, xs) -> list:
        return [self._c(x) for x in xs]

    def items(self, v: list):
        """Nonzero (index, scalar) pairs in ascending index order."""
        zero = self.sc_zero
        return ((i, c) for i, c in enumerate(v) if c != zero)

    def add(self, u: list, v: list) -> list:
        if self.ring.kind == "rationals":
            return [a + b for a, b in zip(u, v)]
        p = self.ring.p
        return [(a + b) % p for a, b in zip(u, v)]

    def sub(self, u: list, v: list) -> list:
        if self.ring.kind == "rationals":
            return [a - b for a, b in zip(u, v)]
        p = self.ring.p
        return [(a - b) % p for a, b in zip(u, v)]

    def scale(self, c, v: list) -> list:
        c = self._c(c)
        if self.ring.kind == "rationals":
            return [c * a for a in v]
        p = self.ring.p
        return [(c * a) % p for a in v]

    def is_zero(self, v: list) -> bool:
        return all(a == self.sc_zero for a in v)

    def coeff(self, v: list, i: int):
        return v[i]

    def pivot(self, v: list) -> int | None:
        for i, a in enumerate(v):
            if a != self.sc_zero:
                return i
        return None

    # scalar helpers
    def sc_add(self, a, b):
        if self.ring.kind == "rationals":
            return a + b
        return (a + b) % self.ring.p

    def sc_neg(self, a):
        if self.ring.kind == "rationals":
            return -a
        return (-a) % self.ring.p

    def sc_mul(self, a, b):
        if self.ring.kind == "rationals":
            return a * b
        return (a * b) % self.ring.p

    def sc_inv(self, a):
        if self.ring.kind == "rationals":
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return Fraction(1) / a
        p = self.ring.p
        a %= p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, p - 2, p)

    # Span tag combinations: {tag: nonzero scalar}
    def reduce(self, v: list, pivots: dict, index: int) -> tuple[list, dict]:
        """One ascending pass over the pivot coordinates."""
        w, mu = v, {}
        for piv in sorted(pivots):
            c = w[piv]
            if c != self.sc_zero:
                pvec, pcombo = pivots[piv]
                w = self.sub(w, self.scale(c, pvec))
                mu = self.combo_addmul(mu, c, pcombo)
        return w, mu

    def combo_addmul(self, mu: dict, c, combo: dict) -> dict:
        for g, a in combo.items():
            acc = self.sc_add(mu.get(g, self.sc_zero), self.sc_mul(c, a))
            if acc == self.sc_zero:
                mu.pop(g, None)
            else:
                mu[g] = acc
        return mu

    def combo_pivot(self, mu: dict, inv, tag: int) -> dict:
        combo = {g: self.sc_neg(self.sc_mul(inv, a)) for g, a in mu.items()}
        combo[tag] = inv
        return combo


# --------------------------------------------------------------------------
# the retired scanning span


class ScanSpan:
    """The library's former ``Span``: the same pivots, but a reduce scans
    every pivot in insertion order, and every tag combination is a
    ``{tag: scalar}`` dict whose products come from the kernel's scalar
    helpers and whose sums it reduces into the ring itself, so it bypasses
    the kernel's own reduce and combination format; a returned combination
    is converted to that format."""

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

    def _reduce(self, v):
        ops = self.ops
        w = v
        mu: dict = {}
        for piv, pvec, pcombo in self._pivots:
            c = ops.coeff(w, piv)
            if c != ops.sc_zero:
                w = ops.sub(w, ops.scale(c, pvec))
                for g, a in pcombo.items():
                    acc = _coerce(ops.ring, mu.get(g, ops.sc_zero) + ops.sc_mul(c, a))
                    if acc == ops.sc_zero:
                        mu.pop(g, None)
                    else:
                        mu[g] = acc
        return w, mu

    def insert(self, v) -> tuple[bool, object]:
        ops = self.ops
        tag = self._count
        self._count += 1
        w, mu = self._reduce(v)
        if ops.is_zero(w):
            return False, ops.from_items(0, mu.items())
        piv = ops.pivot(w)
        inv = ops.sc_inv(ops.coeff(w, piv))
        combo = {g: ops.sc_neg(ops.sc_mul(inv, a)) for g, a in mu.items()}
        combo[tag] = inv
        self._pivots.append((piv, ops.scale(inv, w), combo))
        return True, None

    def solve(self, v) -> object:
        w, mu = self._reduce(v)
        if not self.ops.is_zero(w):
            return None
        return self.ops.from_items(0, mu.items())


# --------------------------------------------------------------------------
# the retired lattice route to integral homology


def _apply(mat: Matrix, vec) -> list:
    """Matrix-vector product, vector given and returned as a plain list."""
    if len(vec) != mat.cols:
        raise ValueError("vector length mismatch")
    return [_coerce(mat.ring, sum(mat[i, k] * vec[k] for k in range(mat.cols))) for i in range(mat.rows)]


def _lattice_span(n: int, columns) -> Span:
    """Span over QQ of independent integer columns; column j keeps tag j."""
    ops = vector_ops(QQ)
    span = Span(ops, n)
    for col in columns:
        span.insert(ops.from_list(col))
    return span


def _integer_coords(lattice: Span, vector) -> list[int]:
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


class LatticeHomology:
    """Integral homology in one degree from two full Smith forms with transforms.

    The cycle lattice is spanned by the trailing columns of V for the
    differential out of the degree; the boundaries, written in that basis,
    get a second Smith form whose U gives integral representatives when
    the group is free, and ``reduce`` writes a cycle in them.
    """

    def __init__(self, complex_: ChainComplex, degree: int):
        if complex_.ring != ZZ:
            raise ValueError("the lattice route is integral")
        self.degree = degree
        self.ring = ZZ
        n = self.ambient_rank = complex_.rank(degree)
        d_above = complex_.diff(degree + 1)
        D1, _, V1 = smith_normal_form(complex_.diff(degree))
        r1 = sum(1 for i in range(min(D1.rows, D1.cols)) if D1[i, i] != 0)
        kernel_basis = [V1.column(j) for j in range(r1, n)]  # integral basis of the cycle lattice
        k = self.cycle_rank = len(kernel_basis)
        # boundary columns in kernel coordinates (the kernel basis spans a
        # direct summand, so the coordinates are integral)
        self._lattice = _lattice_span(n, kernel_basis)
        rel_cols = [_integer_coords(self._lattice, d_above.column(t)) for t in range(d_above.cols)]
        D2, U2, _ = smith_normal_form(Matrix.from_sparse(ZZ, k, [enumerate(c) for c in rel_cols]))
        divisors = [D2[i, i] for i in range(min(D2.rows, D2.cols)) if D2[i, i] != 0]
        self.boundary_rank = len(divisors)
        free_rank = self.dim = k - len(divisors)
        self.presentation = AbelianGroupPresentation(free_rank, tuple(int(d) for d in divisors if abs(d) > 1))
        self._U2 = U2
        self.representatives = None
        if self.presentation.is_free:
            # the columns of U2^-1 are the solutions of U2 x = e_t
            u2 = _lattice_span(k, [U2.column(j) for j in range(k)])
            self.representatives = []
            for t in range(len(divisors), k):
                coords = _integer_coords(u2, [int(i == t) for i in range(k)])
                self.representatives.append([sum(kernel_basis[j][i] * coords[j] for j in range(k)) for i in range(n)])

    def reduce(self, cycle) -> list:
        """Coordinates of a cycle in the representatives, modulo boundaries."""
        if not self.presentation.is_free:
            raise NotImplementedError("reduce over Z with torsion present")
        # every divisor is 1 in the free case, so the leading coordinates
        # are boundaries and the trailing ones are the class
        y = _apply(self._U2, _integer_coords(self._lattice, cycle))
        return y[self.cycle_rank - self.dim :]


def lattice_homology_table(C: ChainComplex) -> dict[int, LatticeHomology]:
    return {n: LatticeHomology(C, n) for n in C.degrees()}


# --------------------------------------------------------------------------
# the retired chain-map API: chain maps, induced maps and mapping cones


def identity(ring, n: int) -> Matrix:
    """The n x n identity matrix over ``ring``."""
    return Matrix(ring, n, n, [[int(i == j) for j in range(n)] for i in range(n)])


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
            return Matrix(self.source.ring, self.target.rank(n), self.source.rank(n))
        return f


def induced_map_on_homology(f: ChainMap, degree: int) -> Matrix:
    """The map induced on homology in one degree by a chain map.

    Over a field the columns are the coordinates of f(representative) in
    the target's representative basis (from ``HomologyBasis``); over Z both
    sides must be free, and the bases come from :class:`LatticeHomology`.
    """
    ring = f.source.ring
    comp = f.component(degree)
    if ring.is_field:
        src, dst = HomologyBasis(f.source, degree), HomologyBasis(f.target, degree)
        ops = vector_ops(ring)
        cols = []
        for rep in src.representatives:
            img = ops.from_items(
                comp.rows,
                ((i, c * x) for t, c in ops.items(rep) for i, x in enumerate(comp.column(t))),
            )
            cols.append(dst.reduce(img))
        return Matrix.from_sparse(ring, dst.dim, [enumerate(c) for c in cols])
    src, dst = LatticeHomology(f.source, degree), LatticeHomology(f.target, degree)
    if not (src.presentation.is_free and dst.presentation.is_free):
        raise NotImplementedError("integral induced maps require free homology on both sides")
    cols = [dst.reduce(_apply(comp, rep)) for rep in src.representatives]
    return Matrix.from_sparse(ZZ, dst.dim, [enumerate(c) for c in cols])


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
