"""Homology graded by vertex two-colourings of a simplicial complex.

A colouring assigns each vertex 0 or 1.  Three constructions live here:

* per-colouring *horizontal homology* over GF(2): the simplicial boundary
  restricted to deleting 1-coloured vertices, graded by dimension and by
  the count of 0-coloured vertices in a simplex (its weight);
* überhomology over GF(2): all horizontal homologies assembled over the
  Boolean lattice of colourings, giving a triply graded invariant (level,
  weight, dimension);
* the weight-zero slice over any field: a cube with the homology of the
  subcomplex spanned by the 1-coloured vertices at each node and
  inclusion-induced maps on the edges.  Its degree-zero row (components
  only) also works over the integers, where torsion can appear.

All three are the homology of a cube complex over the Boolean lattice of
colourings.  Überhomology and its weight-zero slice build no node: each
is E^2 of a double complex of (colouring, simplex) pairs, whose E^1 is
the node homology and d^1 the level map, and which splits into one
summand per 0-coloured part S of the simplex, each read off one
persistence barcode (``algebra._barcode``).  Each summand is the
colouring cube of a link (``_link_cube``): the part S empty is the cube
of X, any other S the cube of link(X, S) plus the empty face, shifted by
|S|.  A summand is an ``algebra._DoubleComplex``, the one class of double
complex that the spectral-sequence pages of ``mvss`` read too; the
summand of the empty part is the augmented double complex of the
anti-star cover.  ``UberComplex`` and bold homology build the cube node
by node and share its bookkeeping: the levels, the layout of each level
map (``_cube_map``) and the rank formula (``_cube_homology``); every
sign, of a cube edge or of a summand's differentials, comes from
``algebra._faces``.  A node of ``UberComplex`` is the signed simplicial
boundary on its simplices (``algebra._boundary_complex``; a face outside
them drops out), one homology table, and one induced map per edge
(``_cube_edge_matrix``); the test oracles build the weight-zero node
cube the same way.  So the barcode and the node cube are two routes to
überhomology and its weight-zero slice that share no boundary,
induced-map or reduction code of this module, only the algebra layer,
and can be played against each other in tests.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Sequence

from . import algebra, graphs
from .algebra import (
    AbelianGroupPresentation,
    ChainComplex,
    CoefficientRing,
    GF2,
    HomologyBasis,
    Matrix,
    QQ,
    ZZ,
    _faces,
    column_rank,  # unused here; bench/check_bench.py checks this binding after a traced run
    invariant_factors,
    vector_ops,
)
from .complexes import SimplicialComplex, Simplex, _simplex_bits, link
from .errors import check_vertex_guard

Bicolouring = tuple[int, ...]

__all__ = [
    "Bicolouring",
    "weight",
    "HorizontalHomology",
    "UberComplex",
    "uberhomology",
    "zero_degree_uber_table",
    "bold_homology",
    "euler_characteristic_bold",
]


# --------------------------------------------------------------------------
# Colourings


def _to_tuple(mask: int, m: int) -> Bicolouring:
    return tuple(mask >> v & 1 for v in range(m))


def weight(simplex: Iterable[int], colouring: Sequence[int]) -> int:
    """The number of 0-coloured vertices of a simplex."""
    return sum(1 for v in simplex if colouring[v] == 0)


def _cube_levels(m: int) -> list[list[int]]:
    """Colouring masks of the m-cube grouped by level, ascending within each."""
    levels: list[list[int]] = [[] for _ in range(m + 1)]
    for mask in range(1 << m):
        levels[mask.bit_count()].append(mask)
    return levels


def _cube_map(
    levels: list[list[int]], j: int, dims: Sequence[int], edge: Callable[[int, int], list]
) -> tuple[int, list[list[tuple[int, object]]]]:
    """Row count and (row, scalar) columns of the level-j map of a cube complex.

    ``levels`` is ``_cube_levels(m)``.  Node ``mask`` carries ``dims[mask]``
    classes; ``edge(mask, up)`` lists, class by class, the unsigned (row,
    scalar) image of each in node ``up``, of which ``mask`` is a face.  The
    edge gets the sign of that face in ``algebra._faces(up)``, the ones-below
    rule, so every square anticommutes.  Both levels stack their nodes'
    blocks in ascending mask order.
    """
    m = len(levels) - 1
    first = {}
    columns = []
    for mask in levels[j]:
        first[mask] = len(columns)
        columns += [[] for _ in range(dims[mask])]
    rows = 0
    for up in levels[j + 1] if j < m else ():
        for mask, sign in _faces(up) if dims[up] else ():
            if dims[mask]:
                node = columns[first[mask] : first[mask] + dims[mask]]
                for column, image in zip(node, edge(mask, up)):
                    column.extend((rows + r, sign * x) for r, x in image)
        rows += dims[up]
    return rows, columns


def _cube_homology(
    m: int, dims: Sequence[int], edge: Callable[[int, int], list], rank: Callable[[int, int, list], int]
) -> list[int]:
    """Homology of a cube complex per level: its dimension minus
    ``rank(j, rows, columns)`` of the map out of it and of the map into it."""
    # ranks[j] is the rank of the map into level j; none enters level 0 or leaves level m
    levels = _cube_levels(m)
    ranks = [0] + [rank(j, *_cube_map(levels, j, dims, edge)) for j in range(m)] + [0]
    return [sum(dims[mask] for mask in levels[j]) - ranks[j] - ranks[j + 1] for j in range(m + 1)]


# --------------------------------------------------------------------------
# Horizontal homology of a single colouring (GF(2))


class HorizontalHomology:
    """GF(2) homology of one colouring's horizontal differential.

    The chain module in bidegree (i, k) is spanned by the i-simplices of
    weight k, and the differential is the simplicial boundary on them.
    Deleting a 0-coloured vertex lowers the weight, so that face is not in
    the bucket and drops out (:func:`algebra._boundary_complex`); what is
    left deletes 1-coloured vertices only.  Each bucket of simplices gets
    one index {simplex: row}, and each weight's homology is computed at
    construction, by one homology table.
    """

    def __init__(self, X: SimplicialComplex, colouring: Sequence[int]):
        if len(colouring) != X.vertex_count:
            raise ValueError("colouring length must match the vertex count")
        if any(c not in (0, 1) for c in colouring):
            raise ValueError(f"colouring entries must be 0 or 1, got {tuple(colouring)}")
        self.X = X
        self.colouring = tuple(colouring)
        buckets: dict[tuple[int, int], list[Simplex]] = {}
        for q in X.dims():
            for s in X.simplices_of_dim(q):
                buckets.setdefault((q, weight(s, colouring)), []).append(s)
        self._buckets = {key: tuple(v) for key, v in buckets.items()}
        self._index = {key: {s: r for r, s in enumerate(v)} for key, v in buckets.items()}
        self._weights = sorted({k for _, k in buckets})
        self._homology = {
            (i, k): h for k in self._weights for i, h in algebra.homology_table(self.complex_for_weight(k)).items()
        }

    def weights(self) -> list[int]:
        return list(self._weights)

    def basis(self, i: int, k: int) -> tuple[Simplex, ...]:
        return self._buckets.get((i, k), ())

    def complex_for_weight(self, k: int) -> ChainComplex:
        """The weight-k chain complex, built from the buckets on each call."""
        return algebra._boundary_complex(GF2, {i: b for (i, w), b in self._buckets.items() if w == k})

    def homology(self, i: int, k: int) -> HomologyBasis:
        h = self._homology.get((i, k))
        if h is None:  # a dimension outside the weight's complex, or an absent weight
            h = HomologyBasis._from(GF2, i, algebra.Span(vector_ops(GF2), 0), [])
        return h

    def dims(self) -> dict[tuple[int, int], int]:
        """Nonzero homology dimensions, keyed by (dimension, weight)."""
        return {key: h.dim for key, h in sorted(self._homology.items()) if h.dim}


# --------------------------------------------------------------------------
# The full poset complex over GF(2)


class UberComplex:
    """Horizontal homologies of all colourings, chained over the lattice.

    For each (weight k, dimension i) this is a cochain complex over the
    level j = number of 1-coloured vertices; the differential is the sum
    of the maps induced by raising a single vertex.  Everything is over
    GF(2), where the signs of the level maps are all 1.  Its homology is
    :func:`uberhomology`, which builds none of these nodes.
    """

    def __init__(self, X: SimplicialComplex, max_vertices: int = 16):
        m = X.vertex_count
        check_vertex_guard(m, max_vertices)
        self.X = X
        self.m = m
        self._nodes = [HorizontalHomology(X, _to_tuple(mask, m)) for mask in range(1 << m)]
        self._node_dims = [node.dims() for node in self._nodes]
        self._pairs = sorted({key for node in self._nodes for key in node._buckets})

    def differential(self, j: int, i: int, k: int) -> Matrix:
        """The level-j map of the (i, k) cochain complex, for j in 0 .. m."""
        if not 0 <= j <= self.m:
            raise ValueError(f"level {j} is outside 0..{self.m}")
        return Matrix.from_sparse(GF2, *_cube_map(_cube_levels(self.m), j, self._dims(i, k), self._edge(i, k)))

    def _dims(self, i: int, k: int) -> list[int]:
        return [dims.get((i, k), 0) for dims in self._node_dims]

    def _edge(self, i: int, k: int) -> Callable[[int, int], list]:
        """The map induced on (i, k) homology by raising vertex v of a colouring."""

        def node(mask: int) -> tuple:
            # the edge map is only asked for between nodes with classes in (i, k)
            h = self._nodes[mask]
            return h.homology(i, k), h._index[i, k]

        return lambda mask, up: _cube_edge_matrix(node(mask), node(up), GF2)


def _cube_edge_matrix(src: tuple, dst: tuple, ring: CoefficientRing) -> list[list[tuple[int, object]]]:
    """The (row, scalar) columns of the map that a cube edge induces on
    homology.  Each node is its homology in one degree and the index
    {simplex: row} of its chains; a representative keeps only the simplices
    that ``dst`` indexes.  At weight zero that is every simplex (an
    inclusion); at weight k, raising v drops the simplices that contain v."""
    ops = vector_ops(ring)
    (src_h, src_index), (dst_h, dst_index) = src, dst
    src_simplices = list(src_index)
    cols = []
    for rep in src_h.representatives:
        entries = [(dst_index[s], c) for pos, c in ops.items(rep) if (s := src_simplices[pos]) in dst_index]
        cols.append([(r, x) for r, x in enumerate(dst_h.reduce(ops.from_items(len(dst_index), entries))) if x])
    return cols


# --------------------------------------------------------------------------
# Überhomology and its weight-zero slice, from one barcode per summand


def _link_cube(L: SimplicialComplex, ring: CoefficientRing, empty: bool) -> algebra._DoubleComplex:
    """The colouring cube of ``L``: in cell (p, q), masks ascending, the
    pairs (mask, t) of a colouring of L's n vertices at level n - p and a
    q-simplex t inside mask (or, if ``empty`` is set, the empty face, in
    row -1), keyed (J, t) with J the vertices outside mask.  d_v deletes a
    vertex of t and d_h raises one of J, each signed by ``algebra._faces``:
    a sign per vertex away from the ones-below rule of :func:`_cube_map`,
    which changes no homology.  E^1 is the node homology, E^2 the cube's."""
    n = L.vertex_count
    faces = [0] * empty + list(_simplex_bits(L))
    cells: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for mask in range(1 << n):
        J = (1 << n) - 1 & ~mask
        for t in faces:
            if not t & ~mask:
                cell = cells.setdefault((n - mask.bit_count(), t.bit_count() - 1), {})
                cell[J, t] = len(cell)
    return algebra._DoubleComplex(ring, cells)


def uberhomology(X: SimplicialComplex, max_vertices: int = 16) -> dict[tuple[int, int, int], int]:
    """The triply graded GF(2) invariant: {(level, weight, dimension): dim}.

    Weight k sums the E^2 of the summands of its 0-coloured parts S of k
    vertices.  Summand S is the cube of L = link(X, S), plus the empty
    face if S is not empty (:func:`_link_cube`): E^2_{p, q} of that cube
    adds to the entry (m - p - k, k, q + k).  Only S with a full link, L
    on all m - k other vertices, can add anything: if S + {w} is not in X,
    no cell of the summand contains w, so raising w is the identity on its
    chains; the summand is the cone of an identity, and its E^2 is 0.  So
    only the full links are built, picked by one lookup of S + {w} per w.
    """
    m = X.vertex_count
    check_vertex_guard(m, max_vertices)
    bits = _simplex_bits(X)
    present = set(bits)
    out: Counter[tuple[int, int, int]] = Counter()
    for S, s in [((), 0), *zip(X.all_simplices(), bits)]:
        if all(s | 1 << w in present for w in graphs._bits(((1 << m) - 1) ^ s)):
            k = len(S)
            dims, _ = algebra._page_from_bars(algebra._barcode(_link_cube(link(X, S), GF2, bool(S))), 2)
            out.update({(m - p - k, k, q + k): d for (p, q), d in dims.items()})
    return dict(sorted(out.items()))


def zero_degree_uber_table(
    X: SimplicialComplex,
    ring: CoefficientRing,
    max_vertices: int = 16,
) -> dict[tuple[int, int], int]:
    """Weight-zero poset homology over a field, all bidegrees at once.

    Keys are (level j, dimension i), degree-major and then by level;
    values are the nonzero dimensions over ``ring``.  The table is E^2 of
    the colouring cube of X over ``ring`` (:func:`_link_cube`: the pairs
    (colouring, simplex) with every vertex of the simplex coloured 1),
    read off its barcode: E^2_{p, q} is the entry (m - p, q).
    """
    m = X.vertex_count
    check_vertex_guard(m, max_vertices)
    if not ring.is_field:
        raise ValueError("the weight-zero slice needs field coefficients")
    dims, _ = algebra._page_from_bars(algebra._barcode(_link_cube(X, ring, False)), 2)
    return {(m - p, q): dims[p, q] for p, q in sorted(dims, key=lambda pq: (pq[1], -pq[0]))}


# --------------------------------------------------------------------------
# Degree-zero row: component counting, torsion-capable over Z


def bold_homology(
    obj,
    ring: CoefficientRing = ZZ,
    max_vertices: int = 16,
) -> dict[int, AbelianGroupPresentation]:
    """Degree-zero poset homology: the cube of components of the induced
    subgraphs of the 1-skeleton.

    Accepts a graph or a simplicial complex.  The chain groups are free on
    components and every level map has entries +-1, so every ring reads
    its ranks off the invariant factors over Z of the same maps: sparse
    elimination of their unit entries first, then the Smith normal form of
    the block that is left (:func:`algebra.invariant_factors`).  Over Q
    each factor counts, over F_p each factor that p does not divide, and
    over Z the factors above 1 are the torsion; over a field the torsion
    list is empty.
    """
    G = obj if hasattr(obj, "adjacency") else graphs.one_skeleton(obj)
    m = G.vertex_count
    check_vertex_guard(m, max_vertices)
    comps = [graphs._components(G.adjacency, mask) for mask in range(1 << m)]
    torsion: dict[int, tuple[int, ...]] = {}

    def edge(mask: int, up: int) -> list:
        # a component lies inside exactly one component of the raised node
        raised = comps[up]
        return [[(next(r for r, uc in enumerate(raised) if uc & comp), 1)] for comp in comps[mask]]

    def rank(j: int, rows: int, columns: list) -> int:
        factors = invariant_factors(rows, columns)
        if not ring.is_field:
            torsion[j + 1] = tuple(t for t in factors if t > 1)
        return sum(1 for t in factors if not ring.p or t % ring.p)

    free = _cube_homology(m, [len(c) for c in comps], edge, rank)
    return {j: AbelianGroupPresentation(free[j], torsion.get(j, ())) for j in range(m + 1)}


def euler_characteristic_bold(obj, max_vertices: int = 16) -> int:
    """Alternating sum over levels of the degree-zero poset homology ranks."""
    table = bold_homology(obj, QQ, max_vertices=max_vertices)
    return sum((-1) ** j * g.free_rank for j, g in table.items())