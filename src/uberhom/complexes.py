"""Finite abstract simplicial complexes, induced subcomplexes and covers.

Vertices of a complex are always 0..vertex_count-1 and every vertex is a
0-simplex (the empty complex has vertex_count 0).  Constructions that pick
out a subset of an ambient complex (induced subcomplexes, anti-stars,
links, cover intersections) renumber their vertices to an initial segment
and record the embedding in ``original_ids`` so chain-level inclusion maps
can be assembled without guessing.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence

from . import algebra
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
    "euler_characteristic",
    "standard_simplex",
    "boundary_of_simplex",
    "complex_from_graph",
    "random_connected_complex",
    "complex_to_json",
    "complex_from_json",
]


def _normalise_simplex(s: Iterable[int]) -> Simplex:
    t = tuple(sorted(s))
    if len(set(t)) != len(t):
        raise ValueError(f"repeated vertex in simplex {t}")
    return t


class SimplicialComplex:
    """An abstract simplicial complex on vertices 0..vertex_count-1.

    Stores the full set of simplices bucketed by dimension, each bucket in
    lexicographic order.  Instances are treated as immutable.  Isolated
    vertices are allowed; connectedness is not an invariant.
    """

    __slots__ = ("vertex_count", "_by_dim", "original_ids", "labels", "_index", "_all")

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
        """The inclusion-maximal simplices, in lexicographic order by dimension."""
        all_s = self.simplex_set()
        out = []
        for q in self.dims():
            for s in self.simplices_of_dim(q):
                sset = set(s)
                extendable = any(
                    tuple(sorted(sset | {v})) in all_s
                    for v in range(self.vertex_count)
                    if v not in sset
                )
                if not extendable:
                    out.append(s)
        return tuple(out)

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
        parent = list(range(self.vertex_count))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in self.simplices_of_dim(1):
            ra, rb = find(u), find(v)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for v in range(self.vertex_count):
            groups.setdefault(find(v), []).append(v)
        return sorted(groups.values())

    @property
    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def is_standard_simplex(self) -> bool:
        """Whether the full vertex set spans a simplex (so X is all its faces)."""
        return self.vertex_count >= 1 and self.max_dim == self.vertex_count - 1


EMPTY_COMPLEX = SimplicialComplex(0, ())


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
    keep = sorted(set(vertices))
    for v in keep:
        if v < 0 or v >= X.vertex_count:
            raise ValueError(f"vertex {v} not in the ambient complex")
    present = [v for v in keep if X.contains((v,))]
    if not present:
        return EMPTY_COMPLEX
    local = {v: i for i, v in enumerate(present)}
    keep_set = set(present)
    by_dim: list[list[Simplex]] = [[] for _ in X.dims()]
    for q in X.dims():
        for s in X.simplices_of_dim(q):
            if all(v in keep_set for v in s):
                by_dim[q].append(tuple(local[v] for v in s))
    return SimplicialComplex(len(present), by_dim, original_ids=tuple(present))


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


def closed_star(X: SimplicialComplex, v: int) -> SimplicialComplex:
    """The subcomplex generated by all simplices containing ``v``."""
    if not X.contains((v,)):
        raise ValueError(f"vertex {v} not in the complex")
    keep: set[Simplex] = set()
    for s in X.all_simplices():
        if v in s:
            for k in range(1, len(s) + 1):
                keep.update(itertools.combinations(s, k))
    return _renumbered(keep)


def star_cover(X: SimplicialComplex) -> Cover:
    """The cover of a complex by the closed stars of its vertices."""
    if X.is_empty:
        raise ValueError("the empty complex has no star cover")
    return Cover(X, tuple(closed_star(X, v) for v in range(X.vertex_count)))


def _intersection_simplices(cover: Cover, subset: Sequence[int]) -> frozenset[Simplex]:
    sets = [cover.element_simplices(i) for i in subset]
    out = sets[0]
    for s in sets[1:]:
        out &= s
    return out


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


def nerve(cover: Cover) -> SimplicialComplex:
    """The nerve: one vertex per cover element, a simplex per subset with
    non-empty intersection."""
    n = len(cover.elements)
    element_sets = [cover.element_simplices(i) for i in range(n)]
    present: list[list[Simplex]] = [[(i,) for i in range(n)]]
    frontier: dict[Simplex, frozenset] = {(i,): element_sets[i] for i in range(n)}
    while frontier:
        nxt: dict[Simplex, frozenset] = {}
        for subset, inter in frontier.items():
            for j in range(subset[-1] + 1, n):
                grown = subset + (j,)
                if grown in nxt:
                    continue
                meet = inter & element_sets[j]
                if meet:
                    nxt[grown] = meet
        if nxt:
            present.append(sorted(nxt))
        frontier = nxt
    return SimplicialComplex(n, present)


def link(X: SimplicialComplex, simplex: Iterable[int]) -> SimplicialComplex:
    """The link of a simplex: faces disjoint from it whose join with it lies in X."""
    s = _normalise_simplex(simplex)
    if s not in X.simplex_set():
        raise ValueError(f"simplex {s} not in the complex")
    sset = set(s)
    all_s = X.simplex_set()
    hits = [
        t
        for t in all_s
        if not (sset & set(t)) and tuple(sorted(sset | set(t))) in all_s
    ]
    return _renumbered(hits)


def cone(X: SimplicialComplex) -> SimplicialComplex:
    """The cone: one new apex (the highest vertex id) joined to everything.

    Original vertices keep their ids; the apex is ``X.vertex_count``.  The
    cone over the empty complex is a single point.
    """
    apex = X.vertex_count
    by_dim: list[list[Simplex]] = [[] for _ in range(X.max_dim + 2 if not X.is_empty else 1)]
    for q in X.dims():
        for s in X.simplices_of_dim(q):
            by_dim[q].append(s)
            by_dim[q + 1].append(s + (apex,))
    by_dim[0].append((apex,))
    return SimplicialComplex(apex + 1, by_dim)


def suspension(X: SimplicialComplex) -> SimplicialComplex:
    """The suspension: two new apexes, each joined to everything, no edge
    between them.  Apexes get the two highest ids.  The suspension of the
    empty complex is two points."""
    a = X.vertex_count
    b = a + 1
    by_dim: list[list[Simplex]] = [[] for _ in range(X.max_dim + 2 if not X.is_empty else 1)]
    for q in X.dims():
        for s in X.simplices_of_dim(q):
            by_dim[q].append(s)
            by_dim[q + 1].append(s + (a,))
            by_dim[q + 1].append(s + (b,))
    by_dim[0].append((a,))
    by_dim[0].append((b,))
    return SimplicialComplex(b + 1, by_dim)


def flag_complex(graph) -> SimplicialComplex:
    """The clique complex of a graph: simplices are the cliques."""
    m = graph.vertex_count
    adj = [set() for _ in range(m)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    cliques: list[list[Simplex]] = [[(v,) for v in range(m)]]
    current = [(v,) for v in range(m)]
    while current:
        nxt = []
        for c in current:
            last = c[-1]
            common = set.intersection(*(adj[v] for v in c)) if c else set(range(m))
            for w in sorted(common):
                if w > last:
                    nxt.append(c + (w,))
        if nxt:
            cliques.append(nxt)
        current = nxt
    if m == 0:
        return EMPTY_COMPLEX
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


def _reduced_betti(X: SimplicialComplex, ring) -> dict[int, int]:
    if X.is_empty:
        return {}
    C = algebra.simplicial_chain_complex(X, ring, reduced=True)
    return algebra.betti_numbers(C)


def is_d_leray(X: SimplicialComplex, d: int, max_vertices: int = 16) -> bool:
    """Whether every induced subcomplex has trivial reduced homology in
    degrees >= d, over both the rationals and GF(2).

    Enumerates all vertex subsets, so the ambient complex is guarded to at
    most ``max_vertices`` vertices.
    """
    m = X.vertex_count
    check_vertex_guard(m, max_vertices)
    for bits in range(1, 1 << m):
        sub = induced_subcomplex(X, [v for v in range(m) if bits >> v & 1])
        if sub.max_dim < d:
            continue
        for ring in (algebra.QQ, algebra.GF2):
            betti = _reduced_betti(sub, ring)
            if any(q >= d and b != 0 for q, b in betti.items()):
                return False
    return True


def random_connected_complex(m: int, seed: int, max_attempts: int = 2000) -> SimplicialComplex:
    """A seeded pseudo-random connected complex on ``m`` vertices.

    Draws facets of sizes 2..4 with fixed probabilities and retries (same
    RNG stream, hence deterministic per seed) until the result is
    connected and is not a standard simplex.
    """
    if m < 2:
        raise ValueError("need at least two vertices for a connected non-simplex")
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
    vertex_count = int(doc["vertex_count"])
    facets = [_normalise_simplex(f) for f in doc["facets"]]
    # a bound on the closure, checked before it is enumerated; capping the
    # exponent keeps the number printable and the verdict unchanged
    check_simplex_guard(vertex_count + sum(2 ** min(len(s), 64) - 1 for s in facets))
    X = build_complex(vertex_count, facets)
    labels = doc.get("labels")
    if labels is not None:
        if len(labels) != X.vertex_count:
            raise ValueError("labels must match vertex_count")
        X = SimplicialComplex(
            X.vertex_count,
            [X.simplices_of_dim(q) for q in X.dims()],
            labels=tuple(str(x) for x in labels),
        )
    return X
