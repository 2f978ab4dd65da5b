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
colourings.  ``UberComplex`` (the level maps of überhomology), the
weight-zero slice and bold homology share its bookkeeping: the levels, the
layout and signs of each level map (``_cube_map``) and the rank formula
(``_cube_homology``).  The nodes of ``UberComplex`` and of the weight-zero
slice are built one way: the signed simplicial boundary on the node's
simplices (``algebra._boundary_complex``; a face outside them drops out),
one homology table, and one induced map per edge (``_cube_edge_matrix``).
``uberhomology`` itself builds no node: it reads E^2 of one double complex
per weight, whose E^1 is the horizontal homology at each node and d^1 the
level map, off one persistence barcode (``algebra._barcode``, which the
spectral-sequence pages of ``mvss`` read too).  Its cells and
differentials are its own.  So the barcode and the node cube are two
routes to überhomology and its weight-zero slice that share no boundary,
induced-map or reduction code of this module, only the algebra layer, and
can be played against each other in tests.
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
    column_rank,
    invariant_factors,
    vector_ops,
)
from .complexes import SimplicialComplex, Simplex
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
    classes; ``edge(mask, v)`` lists, class by class, the unsigned (row,
    scalar) image of each in node ``mask | 1 << v``.  The edge is signed
    here, by the ones-below rule: -1 when an odd number of the vertices
    below v are 1 in ``mask``, so every square anticommutes.  Level j + 1
    stacks its nodes' blocks in ascending mask order.
    """
    m = len(levels) - 1
    offsets = {}
    rows = 0
    for mask in levels[j + 1] if j < m else ():
        offsets[mask] = rows
        rows += dims[mask]
    columns = []
    for mask in levels[j]:
        node = [[] for _ in range(dims[mask])]
        for v in range(m):
            up = mask | 1 << v
            if mask >> v & 1 or not node or not dims[up]:
                continue
            sign = -1 if (mask & (1 << v) - 1).bit_count() % 2 else 1
            for column, image in zip(node, edge(mask, v)):
                column.extend((offsets[up] + r, sign * x) for r, x in image)
        columns += node
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


def _field_rank(ring: CoefficientRing) -> Callable[[int, int, list], int]:
    """``rank`` for :func:`_cube_homology` over a field."""
    ops = vector_ops(ring)
    return lambda j, rows, columns: column_rank(ops, (ops.from_items(rows, c) for c in columns))


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

        return lambda mask, v: _cube_edge_matrix(node(mask), node(mask | 1 << v), GF2)


# --------------------------------------------------------------------------
# Überhomology from one barcode per weight (GF(2))


def _bits(x: int) -> list[int]:
    """The one-bit parts of a bitset, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low)
        x ^= low
    return out


class _WeightComplex:
    """The weight-k double complex of the colouring cube over GF(2).

    Cell (p, q) holds the pairs (mask, s) of a colouring at level m - p
    and a q-simplex of X, as the bitset of its vertices, with k vertices
    outside the mask, indexed ``{(mask, s): row}``.  The vertical
    differential deletes the 1-coloured vertices of s, unsigned; a vertex
    has no face, as there is no empty simplex.  The horizontal one sends
    (mask, s) to (mask | 1 << v, s) for each vertex v in neither.  Filtered
    by column, E^1 is the horizontal homology at each node, d^1 the level
    map of :class:`UberComplex` and E^2 the cube's homology: überhomology
    at weight k.

    Both differentials keep the 0-coloured part S = s - mask, so the
    complex is the direct sum over S of its cells.  Only the summands of
    an S with a full link are built: S + {w} in X for every vertex w
    outside S (S empty always has one).  If S + {w} is not in X, no cell
    of S's summand contains w, so raising w is the identity on that
    summand's chains.  The summand is then the cone of an identity, and
    its E^2 is 0.
    """

    ring = GF2

    def __init__(self, everything: int, cells: dict[tuple[int, int], dict[tuple[int, int], int]]):
        self._everything = everything
        self._cells = cells

    def cells(self) -> list[tuple[int, int]]:
        return sorted(self._cells)

    def cell_dim(self, p: int, q: int) -> int:
        return len(self._cells.get((p, q), ()))

    def dv_sparse(self, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
        cell = self._cells.get((p, q), {})
        if not q:  # a vertex has no face
            return [()] * len(cell)
        below = self._cells.get((p, q - 1), {})
        return [tuple((below[mask, s ^ v], 1) for v in _bits(mask & s)) for mask, s in cell]

    def dh_sparse(self, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
        cell, left, everything = self._cells.get((p, q), {}), self._cells.get((p - 1, q), {}), self._everything
        return [tuple((left[mask | v, s], 1) for v in _bits(everything & ~(mask | s))) for mask, s in cell]


def _weight_complexes(X: SimplicialComplex) -> dict[int, _WeightComplex]:
    """The double complex of each weight, on its full-link summands only."""
    m = X.vertex_count
    everything = (1 << m) - 1
    simplices = [sum(1 << v for v in s) for s in X.all_simplices()]
    # cofaces[S] counts the vertices w outside S with S + {w} in X
    cofaces: Counter[int] = Counter(s ^ v for s in simplices for v in _bits(s))
    full = {S for S in [0, *simplices] if cofaces[S] == m - S.bit_count()}
    cells: dict[int, dict[tuple[int, int], dict[tuple[int, int], int]]] = {}
    for mask in range(1 << m):
        for s in simplices:
            S = s & ~mask
            if S in full:
                cell = cells.setdefault(S.bit_count(), {}).setdefault((m - mask.bit_count(), s.bit_count() - 1), {})
                cell[mask, s] = len(cell)
    return {k: _WeightComplex(everything, by_cell) for k, by_cell in sorted(cells.items())}


def uberhomology(X: SimplicialComplex, max_vertices: int = 16) -> dict[tuple[int, int, int], int]:
    """The triply graded GF(2) invariant: {(level, weight, dimension): dim}.

    Each weight k is E^2 of its double complex (:class:`_WeightComplex`),
    read off the complex's barcode: E^2_{p, q} is the entry (m - p, k, q).
    """
    m = X.vertex_count
    check_vertex_guard(m, max_vertices)
    out: dict[tuple[int, int, int], int] = {}
    for k, dc in _weight_complexes(X).items():
        dims, _ = algebra._page_from_bars(algebra._barcode(dc), 2)
        out.update(((m - p, k, q), d) for (p, q), d in dims.items())
    return dict(sorted(out.items()))


# --------------------------------------------------------------------------
# The weight-zero slice over any field


def _cube_node_bases(X: SimplicialComplex) -> list[dict[int, tuple[Simplex, ...]]]:
    """For each colouring mask, X's simplices on its 1-coloured vertices by
    dimension, in X's ids and order: the induced subcomplex without its
    renumbering, which is monotone and so would keep the same order."""
    with_bits = [
        (q, [(s, sum(1 << v for v in s)) for s in X.simplices_of_dim(q)]) for q in X.dims()
    ]
    return [
        {q: tuple(s for s, bits in simplices if not bits & ~mask) for q, simplices in with_bits}
        for mask in range(1 << X.vertex_count)
    ]


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


def zero_degree_uber_table(
    X: SimplicialComplex,
    ring: CoefficientRing,
    max_vertices: int = 16,
) -> dict[tuple[int, int], int]:
    """Weight-zero poset homology over a field, all bidegrees at once.

    Keys are (level j, dimension i); values are dimensions over ``ring``.
    Each node is the subcomplex on the colouring's 1-coloured vertices,
    with one homology table, and each edge the map its inclusion induces:
    the node recipe of :class:`UberComplex`, at weight zero.
    """
    m = X.vertex_count
    check_vertex_guard(m, max_vertices)
    if not ring.is_field:
        raise ValueError("the weight-zero slice needs field coefficients")
    bases = _cube_node_bases(X)
    tables = [algebra.homology_table(algebra._boundary_complex(ring, b)) for b in bases]
    rank = _field_rank(ring)
    out: dict[tuple[int, int], int] = {}
    for degree in X.dims():
        # a node without simplices of this degree has no entry, and no edge map
        nodes = [(t.pop(degree, None), {s: r for r, s in enumerate(b.get(degree, ()))}) for b, t in zip(bases, tables)]
        dims = [h.dim if h else 0 for h, _ in nodes]

        def edge(mask: int, v: int) -> list:
            return _cube_edge_matrix(nodes[mask], nodes[mask | 1 << v], ring)

        for j, h in enumerate(_cube_homology(m, dims, edge, rank)):
            if h:
                out[(j, degree)] = h
    return out


# --------------------------------------------------------------------------
# Degree-zero row: component counting, torsion-capable over Z


def _components_by_mask(adjacency: Sequence[int], mask: int) -> list[int]:
    """Connected components (as bitmasks) of the induced subgraph, ordered
    by smallest vertex."""
    comps = []
    rest = mask
    while rest:
        start = (rest & -rest).bit_length() - 1
        comp = graphs._component_mask(adjacency, start, mask)
        comps.append(comp)
        rest &= ~comp
    return comps


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
    comps = [_components_by_mask(G.adjacency, mask) for mask in range(1 << m)]
    torsion: dict[int, tuple[int, ...]] = {}

    def edge(mask: int, v: int) -> list:
        # a component lies inside exactly one component of the raised node
        up = comps[mask | 1 << v]
        return [[(next(r for r, uc in enumerate(up) if uc & comp), 1)] for comp in comps[mask]]

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