"""Finite abstract simplicial complexes, induced subcomplexes and covers.

Vertices of a complex are always 0..vertex_count-1 and every vertex is a
0-simplex (the empty complex has vertex_count 0).  Constructions that pick
out a subset of an ambient complex (induced subcomplexes, anti-stars,
links, cover intersections) renumber their vertices to an initial segment
and record the embedding in ``original_ids`` so chain-level inclusion maps
can be assembled without guessing.

The vertex-set jobs read simplices as vertex bitsets and use the rule the
package already has for each: ``facets`` keeps the simplices that are a
face of no simplex, the faces taken by ``algebra._faces``; ``closed_star``
and ``link`` share one join test (``_joins``: the simplices whose join
with a given simplex is a simplex); components come from
``graphs._components`` on the 1-skeleton's adjacency; ``flag_complex``
grows each clique by the common neighbours above its last vertex, read
from ``graph.adjacency``; and ``is_d_leray`` decodes its subset masks with
``graphs._bits``.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence

from . import algebra, graphs
from .errors import NotConnectedError, StandardSimplexError, check_simplex_guard, check_vertex_guard

Simplex = tuple[int, ...]

__all__ = [
    "SimplicialComplex",
    "EMPTY_COMPLEX",
    "Cover",
    "build_complex",
    "induced_subcomplex",
    "anti_star",
    "anti_star_cover",
    "closed_star",
    "star_cover",
    "nerve",
    "cover_intersection",
    "link",
    "cone",
    "suspension",
    "flag_complex",
    "skeleton",
    "is_d_leray",
    "reduced_homology_vanishes_from",
    "euler_characteristic",
    "standard_simplex",
    "boundary_of_simplex",
    "complex_from_graph",
    "random_connected_complex",
    "complex_to_json",
    "complex_from_json",
]


def _normalise_simplex(s: Iterable[int]) -> Simplex:
    t = tuple(s)
    for v in t:
        if type(v) is not int:  # a bool or a float is not a vertex id
            raise ValueError(f"vertex id {v!r} is not an integer")
    t = tuple(sorted(t))
    if len(set(t)) != len(t):
        raise ValueError(f"repeated vertex in simplex {t}")
    return t


class SimplicialComplex:
    """An abstract simplicial complex on vertices 0..vertex_count-1.

    Stores the full set of simplices bucketed by dimension, each bucket in
    lexicographic order.  Instances are treated as immutable.  Isolated
    vertices are allowed; connectedness is not an invariant.
    """

    __slots__ = ("vertex_count", "_by_dim", "original_ids", "labels", "_index", "_all", "_bits")

    def __init__(
        self,
        vertex_count: int,
        by_dim: Sequence[Sequence[Simplex]],
        original_ids: tuple[int, ...] | None = None,
        labels: tuple[str, ...] | None = None,
    ):
        self.vertex_count = vertex_count
        self._by_dim = tuple(tuple(sorted(bucket)) for bucket in by_dim)
        while self._by_dim and not self._by_dim[-1]:
            self._by_dim = self._by_dim[:-1]
        self.original_ids = original_ids
        self.labels = labels
        self._index: dict[int, dict[Simplex, int]] = {}
        self._all: frozenset[Simplex] | None = None
        self._bits: tuple[int, ...] | None = None
        if original_ids is not None and len(original_ids) != vertex_count:
            raise ValueError("original_ids must enumerate the local vertices")
        if vertex_count:
            if not self._by_dim or len(self._by_dim[0]) != vertex_count:
                raise ValueError("every vertex must appear as a 0-simplex")
        elif self._by_dim:
            raise ValueError("a complex without vertices has no simplices")

    # -- basic queries -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.vertex_count == 0

    @property
    def max_dim(self) -> int:
        return len(self._by_dim) - 1

    def dims(self) -> range:
        return range(len(self._by_dim))

    def simplices_of_dim(self, q: int) -> tuple[Simplex, ...]:
        if 0 <= q < len(self._by_dim):
            return self._by_dim[q]
        return ()

    def all_simplices(self) -> Iterator[Simplex]:
        for bucket in self._by_dim:
            yield from bucket

    def simplex_set(self) -> frozenset[Simplex]:
        if self._all is None:
            self._all = frozenset(self.all_simplices())
        return self._all

    def contains(self, simplex: Iterable[int]) -> bool:
        return _normalise_simplex(simplex) in self.simplex_set()

    def index_of(self, q: int, simplex: Simplex) -> int:
        idx = self._index.get(q)
        if idx is None:
            idx = {s: i for i, s in enumerate(self.simplices_of_dim(q))}
            self._index[q] = idx
        return idx[simplex]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self._by_dim)

    def facets(self) -> tuple[Simplex, ...]:
        """The simplices that are a face of no other simplex, in
        lexicographic order by dimension."""
        bits = _simplex_bits(self)
        faces = {f for b in bits for f, _ in algebra._faces(b)}
        return tuple(s for s, b in zip(self.all_simplices(), bits) if b not in faces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self._by_dim == other._by_dim

    def __hash__(self) -> int:
        return hash((self.vertex_count, self._by_dim))

    def __repr__(self) -> str:
        return f"SimplicialComplex(m={self.vertex_count}, f={self.f_vector()})"

    # -- structure -------------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Vertex sets of the components of the underlying 1-skeleton."""
        adjacency = graphs._adjacency(self.vertex_count, self.simplices_of_dim(1))
        return [graphs._bits(c) for c in graphs._components(adjacency, (1 << self.vertex_count) - 1)]

    @property
    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def is_standard_simplex(self) -> bool:
        """Whether the full vertex set spans a simplex (so X is all its faces)."""
        return self.vertex_count >= 1 and self.max_dim == self.vertex_count - 1


EMPTY_COMPLEX = SimplicialComplex(0, ())


def _simplex_bits(X: SimplicialComplex) -> tuple[int, ...]:
    """The simplices of ``X`` as vertex bitsets, in ``all_simplices`` order."""
    if X._bits is None:
        X._bits = tuple(sum(1 << v for v in s) for s in X.all_simplices())
    return X._bits


def build_complex(vertex_count: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Downward closure of the given generating simplices.

    Vertices not covered by any facet become isolated 0-simplices.  Vertex
    ids outside 0..vertex_count-1 and repeated vertices within a facet are
    rejected.
    """
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    simplices: set[Simplex] = set()
    for f in facets:
        s = _normalise_simplex(f)
        if not s:
            continue
        if s[0] < 0 or s[-1] >= vertex_count:
            raise ValueError(f"vertex id out of range in facet {s}")
        for k in range(1, len(s) + 1):
            simplices.update(itertools.combinations(s, k))
    for v in range(vertex_count):
        simplices.add((v,))
    if not simplices:
        return EMPTY_COMPLEX
    top = max(len(s) for s in simplices) - 1
    by_dim: list[list[Simplex]] = [[] for _ in range(top + 1)]
    for s in simplices:
        by_dim[len(s) - 1].append(s)
    return SimplicialComplex(vertex_count, by_dim)


def induced_subcomplex(X: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """The subcomplex of simplices contained in the given vertex set.

    The result is renumbered to 0..k-1 in increasing order of vertex id,
    with each vertex's id in ``X`` recorded in ``original_ids``.  An empty selection
    gives the empty complex.
    """
    keep = set(vertices)
    for v in keep:
        if v < 0 or v >= X.vertex_count:
            raise ValueError(f"vertex {v} not in the ambient complex")
    return _renumbered([s for s in X.all_simplices() if keep.issuperset(s)])


def anti_star(X: SimplicialComplex, v: int) -> SimplicialComplex:
    """The induced subcomplex on all vertices except ``v``."""
    if X.is_standard_simplex():
        raise StandardSimplexError("anti-stars of a standard simplex do not cover it")
    if v < 0 or v >= X.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    return induced_subcomplex(X, [u for u in range(X.vertex_count) if u != v])


@dataclass(frozen=True)
class Cover:
    """An ordered cover of a complex by subcomplexes.

    Each element must be non-empty and sit inside the ambient complex (via
    its ``original_ids`` embedding, or identically when it has none), and
    the elements must jointly contain every ambient simplex.
    """

    ambient: SimplicialComplex
    elements: tuple[SimplicialComplex, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a cover needs at least one element")
        union: set[Simplex] = set()
        ambient_set = self.ambient.simplex_set()
        for i, e in enumerate(self.elements):
            if e.is_empty:
                raise ValueError(f"cover element {i} is empty")
            amb = self.element_simplices(i)
            if not amb <= ambient_set:
                raise ValueError(f"cover element {i} is not a subcomplex of the ambient")
            union |= amb
        if union != ambient_set:
            raise ValueError("cover elements do not exhaust the ambient complex")

    def element_simplices(self, i: int) -> frozenset[Simplex]:
        """Simplices of element ``i`` written in ambient vertex ids."""
        e = self.elements[i]
        ids = e.original_ids
        if ids is None:
            if e.vertex_count != self.ambient.vertex_count:
                raise ValueError(f"cover element {i} lacks an embedding into the ambient")
            return e.simplex_set()
        return frozenset(tuple(ids[v] for v in s) for s in e.all_simplices())

    def __len__(self) -> int:
        return len(self.elements)


def anti_star_cover(X: SimplicialComplex) -> Cover:
    """The cover of a connected non-simplex by the anti-stars of its vertices."""
    if X.is_standard_simplex():
        raise StandardSimplexError("the anti-star cover of a standard simplex is not a cover")
    if X.is_empty or not X.is_connected:
        raise NotConnectedError("anti-star covers are defined for connected complexes")
    return Cover(X, tuple(anti_star(X, v) for v in range(X.vertex_count)))


def _renumbered(simplices: Collection[Simplex]) -> SimplicialComplex:
    """The complex of a closed set of simplices, its vertices renumbered to
    0..k-1 in increasing id order and their ids kept in ``original_ids``."""
    if not simplices:
        return EMPTY_COMPLEX
    vertices = sorted({v for s in simplices for v in s})
    local = {v: i for i, v in enumerate(vertices)}
    by_dim: list[list[Simplex]] = [[] for _ in range(max(len(s) for s in simplices))]
    for s in simplices:
        by_dim[len(s) - 1].append(tuple(local[v] for v in s))
    return SimplicialComplex(len(vertices), by_dim, original_ids=tuple(vertices))


def _joins(X: SimplicialComplex, s: int) -> list[tuple[Simplex, int]]:
    """The simplices t of ``X`` whose join with the simplex ``s`` (a
    bitset) is a simplex of ``X``, each with its bitset."""
    bits = _simplex_bits(X)
    present = set(bits)
    return [(t, b) for t, b in zip(X.all_simplices(), bits) if b | s in present]


def closed_star(X: SimplicialComplex, v: int) -> SimplicialComplex:
    """The subcomplex generated by all simplices containing ``v``: the
    simplices whose join with ``v`` is a simplex."""
    if not X.contains((v,)):
        raise ValueError(f"vertex {v} not in the complex")
    return _renumbered([t for t, _ in _joins(X, 1 << v)])


def star_cover(X: SimplicialComplex) -> Cover:
    """The cover of a complex by the closed stars of its vertices."""
    if X.is_empty:
        raise ValueError("the empty complex has no star cover")
    return Cover(X, tuple(closed_star(X, v) for v in range(X.vertex_count)))


def _intersection_simplices(cover: Cover, subset: Sequence[int]) -> frozenset[Simplex]:
    return frozenset.intersection(*(cover.element_simplices(i) for i in subset))


def cover_intersection(cover: Cover, subset: Sequence[int]) -> SimplicialComplex:
    """The intersection of the selected cover elements, as a renumbered complex.

    The empty selection returns the ambient complex itself (the
    augmentation convention).  The intersection may be empty.
    """
    idx = sorted(set(subset))
    for i in idx:
        if i < 0 or i >= len(cover.elements):
            raise ValueError(f"cover has no element {i}")
    if not idx:
        return cover.ambient
    return _renumbered(_intersection_simplices(cover, idx))


def _nerve_intersections(cover: Cover) -> dict[Simplex, frozenset[Simplex]]:
    """The non-empty intersections of the cover, keyed by the nerve simplex
    (sorted element indices) that selects them, by dimension and then
    lexicographically.  Each is grown from its prefix, so every element's
    simplices are computed once."""
    n = len(cover.elements)
    element_sets = [cover.element_simplices(i) for i in range(n)]
    frontier = {(i,): element_sets[i] for i in range(n)}
    out: dict[Simplex, frozenset[Simplex]] = {}
    while frontier:
        out.update(frontier)
        nxt = {}
        for subset, inter in frontier.items():
            for j in range(subset[-1] + 1, n):
                meet = inter & element_sets[j]
                if meet:
                    nxt[subset + (j,)] = meet
        frontier = nxt
    return out


def nerve(cover: Cover) -> SimplicialComplex:
    """The nerve: one vertex per cover element, a simplex per subset with
    non-empty intersection."""
    by_dim = [list(bucket) for _, bucket in itertools.groupby(_nerve_intersections(cover), key=len)]
    return SimplicialComplex(len(cover.elements), by_dim)


def link(X: SimplicialComplex, simplex: Iterable[int]) -> SimplicialComplex:
    """The link of a simplex: faces disjoint from it whose join with it lies
    in X.  The link of the empty simplex is X, ``original_ids`` the identity."""
    s = _normalise_simplex(simplex)
    if s and s not in X.simplex_set():
        raise ValueError(f"simplex {s} not in the complex")
    mask = sum(1 << v for v in s)
    return _renumbered([t for t, b in _joins(X, mask) if not b & mask])


def _with_apexes(X: SimplicialComplex, k: int) -> SimplicialComplex:
    """The join of X with k new vertices, no two of them joined: the apexes
    take the k highest ids and every other vertex keeps its id."""
    apexes = [(X.vertex_count + i,) for i in range(k)]
    by_dim = [list(X.simplices_of_dim(q)) for q in range(X.max_dim + 2)]
    for q in X.dims():
        by_dim[q + 1] += [s + a for s in X.simplices_of_dim(q) for a in apexes]
    by_dim[0] += apexes
    return SimplicialComplex(X.vertex_count + k, by_dim)


def cone(X: SimplicialComplex) -> SimplicialComplex:
    """The cone: one new apex (the highest vertex id) joined to everything.
    The cone over the empty complex is a single point."""
    return _with_apexes(X, 1)


def suspension(X: SimplicialComplex) -> SimplicialComplex:
    """The suspension: two new apexes, each joined to everything, no edge
    between them.  Apexes get the two highest ids.  The suspension of the
    empty complex is two points."""
    return _with_apexes(X, 2)


def flag_complex(graph) -> SimplicialComplex:
    """The clique complex of a graph: simplices are the cliques.

    Each clique is grown by every common neighbour above its last vertex,
    and carries the bitset of those neighbours.
    """
    m = graph.vertex_count
    if m == 0:
        return EMPTY_COMPLEX
    adjacency = graph.adjacency
    # -(2 << v) masks the vertices above v
    level = [((v,), adjacency[v] & -(2 << v)) for v in range(m)]
    cliques: list[list[Simplex]] = []
    while level:
        cliques.append([c for c, _ in level])
        level = [(c + (w,), above & adjacency[w] & -(2 << w)) for c, above in level for w in graphs._bits(above)]
    return SimplicialComplex(m, cliques)


def skeleton(X: SimplicialComplex, k: int) -> SimplicialComplex:
    """The subcomplex of simplices of dimension at most ``k``; its
    ``original_ids`` is the identity embedding into ``X``."""
    if k < 0:
        raise ValueError("skeleton dimension must be nonnegative")
    if X.is_empty:
        return EMPTY_COMPLEX
    by_dim = [X.simplices_of_dim(q) for q in range(min(k, X.max_dim) + 1)]
    return SimplicialComplex(X.vertex_count, by_dim, original_ids=tuple(range(X.vertex_count)))


def euler_characteristic(X: SimplicialComplex) -> int:
    """Alternating sum of simplex counts (0 for the empty complex)."""
    return sum((-1) ** q * len(X.simplices_of_dim(q)) for q in X.dims())


def standard_simplex(m: int) -> SimplicialComplex:
    """The full simplex on ``m`` vertices (all non-empty subsets)."""
    if m < 1:
        raise ValueError("a standard simplex needs at least one vertex")
    return build_complex(m, [range(m)])


def boundary_of_simplex(m: int) -> SimplicialComplex:
    """The boundary of the full simplex on ``m`` vertices, a sphere of dim m-2."""
    if m < 2:
        raise ValueError("the boundary construction needs at least two vertices")
    return build_complex(m, itertools.combinations(range(m), m - 1))


def complex_from_graph(graph) -> SimplicialComplex:
    """A graph viewed as a simplicial complex of dimension at most one."""
    return build_complex(graph.vertex_count, graph.edges)


def reduced_homology_vanishes_from(X: SimplicialComplex, d: int) -> bool:
    """Whether ``X`` has trivial reduced homology in every degree >= d, over
    both the rationals and GF(2)."""
    if X.max_dim < d:
        return True
    return not any(
        q >= d and b
        for ring in (algebra.QQ, algebra.GF2)
        for q, b in algebra.betti_numbers(algebra.simplicial_chain_complex(X, ring, reduced=True)).items()
    )


def is_d_leray(X: SimplicialComplex, d: int, max_vertices: int = 16) -> bool:
    """Whether every induced subcomplex has trivial reduced homology in
    degrees >= d, over both the rationals and GF(2).

    Enumerates all vertex subsets, so the ambient complex is guarded to at
    most ``max_vertices`` vertices.
    """
    m = X.vertex_count
    check_vertex_guard(m, max_vertices)
    return all(
        reduced_homology_vanishes_from(induced_subcomplex(X, graphs._bits(bits)), d)
        for bits in range(1, 1 << m)
    )


def random_connected_complex(m: int, seed: int, max_attempts: int = 2000) -> SimplicialComplex:
    """A seeded pseudo-random connected complex on ``m`` vertices.

    Draws facets of sizes 2..4 with fixed probabilities and retries (same
    RNG stream, hence deterministic per seed) until the result is
    connected and is not a standard simplex.
    """
    if m < 3:
        raise ValueError("need at least three vertices for a connected non-simplex")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        facets: list[tuple[int, ...]] = []
        for pair in itertools.combinations(range(m), 2):
            if rng.random() < 0.45:
                facets.append(pair)
        for triple in itertools.combinations(range(m), 3):
            if rng.random() < 0.2:
                facets.append(triple)
        if m >= 4:
            for quad in itertools.combinations(range(m), 4):
                if rng.random() < 0.05:
                    facets.append(quad)
        X = build_complex(m, facets)
        if X.is_connected and not X.is_standard_simplex():
            return X
    raise RuntimeError(f"no connected complex found for seed {seed}")


# --------------------------------------------------------------------------
# JSON wire format


def complex_to_json(X: SimplicialComplex) -> str:
    doc: dict = {"vertex_count": X.vertex_count, "facets": [list(s) for s in X.facets()]}
    if X.labels is not None:
        doc["labels"] = list(X.labels)
    return json.dumps(doc, sort_keys=True)


def complex_from_json(text: str) -> SimplicialComplex:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "vertex_count" not in doc or "facets" not in doc:
        raise ValueError("complex JSON needs 'vertex_count' and 'facets'")
    vertex_count = doc["vertex_count"]
    if type(vertex_count) is not int:
        raise ValueError(f"'vertex_count' must be a JSON integer, got {vertex_count!r}")
    facets = [_normalise_simplex(f) for f in doc["facets"]]
    # a bound on the closure, checked before it is enumerated; capping the
    # exponent keeps the number printable and the verdict unchanged
    check_simplex_guard(vertex_count + sum(2 ** min(len(s), 64) - 1 for s in facets))
    X = build_complex(vertex_count, facets)
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise ValueError(f"'labels' must be a JSON array, got {labels!r}")
        if len(labels) != X.vertex_count:
            raise ValueError("labels must match vertex_count")
        for x in labels:
            # a bool is an int to Python, but not a JSON number
            if type(x) not in (str, int, float):
                raise ValueError(f"label {x!r} is not a JSON string or number")
        names = tuple(map(str, labels))
        if len(set(names)) != len(names):
            raise ValueError(f"labels must be distinct, got {names!r}")
        X = SimplicialComplex(X.vertex_count, [X.simplices_of_dim(q) for q in X.dims()], labels=names)
    return X
