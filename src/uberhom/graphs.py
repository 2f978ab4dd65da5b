"""Finite simple graphs: domination polynomials, chordality, products.

Graphs are kept deliberately small-scale: adjacency is a tuple of int
bitmasks and the subset enumerations are guarded.  The connected
domination polynomial counts, for every cardinality, the vertex subsets
that dominate the graph and induce a connected subgraph.  Its default
counter is bit-parallel: one Python int holds a block of 2**14 subsets,
one per bit, so domination and connectivity are decided for the whole
block by ANDs and ORs of such ints.  A branch-and-bound recursion, which
counts a whole subtree of supersets at once, is the independent reference
route.
"""
from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import NotConnectedError, check_simplex_guard, check_vertex_guard

__all__ = [
    "Graph",
    "Polynomial",
    "ChordalityCertificate",
    "one_skeleton",
    "is_connected_dominating",
    "connected_domination_polynomial",
    "is_chordal",
    "is_triangle_free",
    "cartesian_product",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "grid_graph",
    "random_connected_graph",
    "random_chordal_graph",
    "graph_to_json",
    "graph_from_json",
]


class Graph:
    """A simple undirected graph on vertices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "edges", "adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        self.vertex_count = vertex_count
        canon = set()
        for u, v in edges:
            for w in (u, v):
                if type(w) is not int:  # a bool or a float is not a vertex id
                    raise ValueError(f"vertex id {w!r} in edge ({u},{v}) is not an integer")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            canon.add((min(u, v), max(u, v)))
        self.edges = frozenset(canon)
        self.adjacency = tuple(_adjacency(vertex_count, canon))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adjacency[v])

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_connected(self) -> bool:
        m = self.vertex_count
        if m == 0:
            return False
        return _component_mask(self.adjacency, 0, (1 << m) - 1) == (1 << m) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(m={self.vertex_count}, e={self.edge_count})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _adjacency(m: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """The neighbours of each of the vertices 0..m-1 as a bitset."""
    adjacency = [0] * m
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return adjacency


def _component_mask(adjacency: Sequence[int], start: int, within: int) -> int:
    """Bitmask of the component of ``start`` inside the induced subgraph ``within``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


def _components(adjacency: Sequence[int], mask: int) -> list[int]:
    """The components (as bitmasks) of the subgraph induced on ``mask``,
    ordered by smallest vertex."""
    comps = []
    rest = mask
    while rest:
        comp = _component_mask(adjacency, (rest & -rest).bit_length() - 1, mask)
        comps.append(comp)
        rest &= ~comp
    return comps


def one_skeleton(X) -> Graph:
    """The graph of vertices and edges of a simplicial complex."""
    return Graph(X.vertex_count, list(X.simplices_of_dim(1)))


@dataclass(frozen=True)
class Polynomial:
    """A polynomial with integer coefficients, index = degree."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        # operator.index refuses floats and fractions instead of truncating them
        c = tuple(map(operator.index, self.coefficients))
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                base = "t" if d == 1 else f"t^{d}"
                parts.append(base if c == 1 else f"{c}{base}")
        return " + ".join(parts)


def is_connected_dominating(G: Graph, subset: Iterable[int]) -> bool:
    """Whether the subset dominates G and induces a connected subgraph."""
    mask = 0
    for v in subset:
        if not (0 <= v < G.vertex_count):
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    if mask == 0:
        return False
    full = (1 << G.vertex_count) - 1
    dominated = mask
    for v in _bits(mask):
        dominated |= G.adjacency[v]
    if dominated != full:
        return False
    start = (mask & -mask).bit_length() - 1
    return _component_mask(G.adjacency, start, mask) == mask


def connected_domination_polynomial(
    G: Graph, max_vertices: int = 24, prune: bool = False
) -> Polynomial:
    """Count connected dominating sets of each size.

    Monic of degree |V| for connected graphs.  Two independent counters
    give the same polynomial: by default the block counter
    :func:`_cdp_blocks` decides domination and connectivity for
    ``2**_BLOCK_BITS`` subsets at a time, as the bits of Python ints; with
    ``prune=True`` the branch-and-bound recursion :func:`_cdp_prune`
    decides the vertices in order of degree, highest first, carrying the
    components of the chosen set.  It cuts branches that can no longer
    dominate or can no longer connect, and closes a branch whose chosen set
    is one dominating component by counting all its supersets at once.
    """
    m = G.vertex_count
    check_vertex_guard(m, max_vertices)
    if not G.is_connected:
        raise NotConnectedError("the connected domination polynomial needs a connected graph")
    counts = [0] * (m + 1)
    if prune:
        # highest degree first, so that domination completes near the root
        order = sorted(range(m), key=G.degree, reverse=True)
        rank = {u: i for i, u in enumerate(order)}
        adjacency = _adjacency(m, [(rank[u], rank[v]) for u, v in G.edges])
        reach = [0] * (m + 1)  # reach[v]: what the vertices from v on dominate
        for v in reversed(range(m)):
            reach[v] = reach[v + 1] | adjacency[v] | 1 << v
        _cdp_prune(adjacency, reach, m, 0, [], 0, counts)
    else:
        _cdp_blocks(G.adjacency, m, counts)
    return Polynomial(tuple(counts))


# The block counter's layout: a block fixes the vertices from _BLOCK_BITS
# on, as the bits of ``high``, and bit x of a block int stands for the
# vertex subset (high << _BLOCK_BITS) | x.  So one AND or OR of two block
# ints (2 KB each) acts on 2**_BLOCK_BITS subsets at once (Knuth, TAOCP
# 4A, 7.1.3).
_BLOCK_BITS = 14


def _cdp_blocks(adjacency: Sequence[int], m: int, counts: list[int]) -> None:
    """Add the connected dominating sets of each size to ``counts``, one
    block of subsets at a time."""
    low = min(m, _BLOCK_BITS)
    width = 1 << low
    ones = (1 << width) - 1
    # incl[v] for v < low: the subsets holding v, 2**v bits off then on
    periodic = []
    for v in range(low):
        run = 1 << v
        pattern, period = ((1 << run) - 1) << run, 2 * run
        while period < width:
            pattern |= pattern << period
            period *= 2
        periodic.append(pattern)
    # size[k]: the subsets of the low vertices with k elements
    size = [1]
    for v in range(low):
        size = [a | b << (1 << v) for a, b in zip(size + [0], [0] + size)]
    neighbours = [_bits(adjacency[v]) for v in range(m)]
    closed = [[u, *nbrs] for u, nbrs in enumerate(neighbours)]
    for high in range(1 << (m - low)):
        incl = periodic + [ones if high >> j & 1 else 0 for j in range(m - low)]
        # domination: every closed neighbourhood meets the subset
        good = ones
        for nbhd in closed:
            meets = 0
            for w in nbhd:
                meets |= incl[w]
            good &= meets
        if not good:
            continue
        # connectivity: reach[v] holds the subsets in which v is joined to
        # the subset's lowest vertex, grown until a whole sweep adds nothing
        reach, below = [], 0
        for v in range(m):
            reach.append(good & incl[v] & ~below)
            below |= incl[v]
        grew = True
        while grew:
            grew = False
            for v in range(m):
                joined = 0
                for w in neighbours[v]:
                    joined |= reach[w]
                joined &= incl[v] & ~reach[v]
                if joined:
                    reach[v] |= joined
                    grew = True
        for v in range(m):
            good &= reach[v] | ~incl[v]
        offset = high.bit_count()
        for k, sized in enumerate(size):
            counts[k + offset] += (good & sized).bit_count()


def _cdp_prune(adjacency, reach, m, v, parts, dominated, counts) -> None:
    """The reference route: branch and bound over the vertices in order.

    Vertices below ``v`` are decided and ``parts`` holds the components of
    the chosen set as (vertex mask, open neighbourhood) pairs.  A branch is
    cut when the vertices from ``v`` on cannot complete the domination, or
    when one of two or more components has no undecided neighbour left.
    A branch whose chosen set is one dominating component is closed whole:
    each undecided vertex is then a neighbour of that component, so every
    way of adding k of the m - v undecided vertices counts, C(m - v, k) sets
    of each size.
    """
    if dominated | reach[v] != reach[0]:
        return
    # at v == m both hold: two or more components were cut at vertex m - 1
    if dominated == reach[0] and len(parts) == 1:
        size, free = parts[0][0].bit_count(), m - v
        for k in range(free + 1):
            counts[size + k] += comb(free, k)
        return
    bit = 1 << v
    later = reach[0] ^ ((bit << 1) - 1)
    joined, around, apart, stuck = bit, adjacency[v], [], False
    for part in parts:
        if part[1] & bit:
            joined, around = joined | part[0], around | part[1]
            stuck = stuck or not part[1] & later
        else:
            apart.append(part)
    # taking v merges it with every component it touches
    if not apart or around & later:
        _cdp_prune(adjacency, reach, m, v + 1, [*apart, (joined, around)], dominated | adjacency[v] | bit, counts)
    # leaving v out strands a component whose last way on was v
    if not (stuck and len(parts) > 1):
        _cdp_prune(adjacency, reach, m, v + 1, parts, dominated, counts)


# --------------------------------------------------------------------------
# Chordality


@dataclass(frozen=True)
class ChordalityCertificate:
    """Outcome of a chordality test with a checkable witness.

    ``elimination_order`` is a perfect elimination order when chordal;
    ``chordless_cycle`` is an induced cycle of length >= 4 when not.
    """

    chordal: bool
    elimination_order: tuple[int, ...] | None = None
    chordless_cycle: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.chordal


def _find_chordless_cycle(G: Graph, v: int, u: int, w: int) -> tuple[int, ...] | None:
    """A chordless cycle through v given non-adjacent neighbours u, w of v."""
    banned = G.adjacency[v] | (1 << v)
    allowed = ((1 << G.vertex_count) - 1) & ~banned | (1 << u) | (1 << w)
    # BFS from u to w inside the allowed set; a shortest path there has no
    # chords, so closing it up through v gives an induced cycle
    prev = {u: None}
    queue = [u]
    while queue:
        nxt = []
        for x in queue:
            for y in _bits(G.adjacency[x] & allowed):
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        if w in prev:
            break
        queue = nxt
    if w not in prev:
        return None
    path = []
    cur: int | None = w
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    return (v, *reversed(path))


def _chordless_cycle(G: Graph) -> tuple[int, ...] | None:
    """A chordless cycle of length at least four, or None if G is chordal:
    the full search, behind the targeted one of :func:`is_chordal`.

    Tries every vertex v with non-adjacent neighbours u < w.  This always
    finds one when it exists: on a chordless cycle of length >= 4 the two
    cycle neighbours u, w of any vertex v are non-adjacent, and the rest of
    the cycle is a u-w path whose inner vertices avoid the closed
    neighbourhood N[v], which is exactly what :func:`_find_chordless_cycle`
    searches for.  That is O(m^3) searches instead of a scan of subsets.
    """
    adjacency = G.adjacency
    for v in range(G.vertex_count):
        for u in _bits(adjacency[v]):
            # -(2 << u) masks the vertices above u
            for w in _bits(adjacency[v] & ~adjacency[u] & -(2 << u)):
                cycle = _find_chordless_cycle(G, v, u, w)
                if cycle is not None:
                    return cycle
    return None


def is_chordal(G: Graph) -> ChordalityCertificate:
    """Chordality by maximum cardinality search, with a checkable witness
    either way (Tarjan & Yannakakis, SIAM J. Comput. 13, 1984).

    The search numbers next the vertex with the most numbered neighbours,
    the lowest on ties, and G is chordal exactly when each vertex's
    numbered neighbours form a clique; the reverse of the numbering is then
    a perfect elimination order.  At the first vertex v whose numbered
    neighbours u, w are not adjacent, a chordless cycle through v, u and w
    is searched for first (:func:`_find_chordless_cycle`), and if there is
    none, among all vertices (:func:`_chordless_cycle`).
    """
    adjacency = G.adjacency
    weight = [0] * G.vertex_count
    unnumbered = (1 << G.vertex_count) - 1
    order: list[int] = []
    for _ in range(G.vertex_count):
        v = max(_bits(unnumbered), key=weight.__getitem__)
        before = adjacency[v] & ~unnumbered
        for u in _bits(before):
            missing = before & ~(adjacency[u] | 1 << u)
            if missing:
                w = (missing & -missing).bit_length() - 1
                cycle = _find_chordless_cycle(G, v, u, w) or _chordless_cycle(G)
                return ChordalityCertificate(False, chordless_cycle=cycle)
        unnumbered ^= 1 << v
        order.append(v)
        for u in _bits(adjacency[v] & unnumbered):
            weight[u] += 1
    return ChordalityCertificate(True, elimination_order=tuple(reversed(order)))


def is_triangle_free(G: Graph) -> bool:
    for u, v in G.edges:
        if G.adjacency[u] & G.adjacency[v]:
            return False
    return True


# --------------------------------------------------------------------------
# Constructions


def cartesian_product(G: Graph, H: Graph) -> Graph:
    """Cartesian product; vertex (g, h) gets index g * H.vertex_count + h."""
    hm = H.vertex_count
    edges = []
    for u, v in G.edges:
        for h in range(hm):
            edges.append((u * hm + h, v * hm + h))
    for u, v in H.edges:
        for g in range(G.vertex_count):
            edges.append((g * hm + u, g * hm + v))
    return Graph(G.vertex_count * hm, edges)


def path_graph(m: int) -> Graph:
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(m: int) -> Graph:
    return Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def grid_graph(rows: int, cols: int) -> Graph:
    return cartesian_product(path_graph(rows), path_graph(cols))


def random_connected_graph(m: int, edge_probability: float, seed: int, max_attempts: int = 2000) -> Graph:
    """A seeded Erdos-Renyi draw, retried until connected."""
    rng = random.Random(seed)
    for _ in range(max_attempts):
        edges = [
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if rng.random() < edge_probability
        ]
        G = Graph(m, edges)
        if G.is_connected:
            return G
    raise RuntimeError(f"no connected graph found for seed {seed}")


def random_chordal_graph(m: int, seed: int) -> Graph:
    """A seeded connected chordal graph grown by simplicial vertices.

    Each new vertex is joined to a clique of the current graph, so every
    intermediate graph is chordal and connected.
    """
    if m < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    adjacency = [0]
    for v in range(1, m):
        anchor = rng.randrange(v)
        clique = 1 << anchor
        candidates = adjacency[anchor]
        while candidates and rng.random() < 0.6:
            w = rng.choice(_bits(candidates))
            clique |= 1 << w
            candidates &= adjacency[w]
        adjacency.append(clique)
        for w in _bits(clique):
            edges.append((w, v))
            adjacency[w] |= 1 << v
    return Graph(m, edges)


# --------------------------------------------------------------------------
# JSON wire format


def graph_to_json(G: Graph) -> str:
    return json.dumps(
        {"vertex_count": G.vertex_count, "edges": [list(e) for e in sorted(G.edges)]},
        sort_keys=True,
    )


def graph_from_json(text: str) -> Graph:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "vertex_count" not in doc or "edges" not in doc:
        raise ValueError("graph JSON needs 'vertex_count' and 'edges'")
    vertex_count = doc["vertex_count"]
    if type(vertex_count) is not int:
        raise ValueError(f"'vertex_count' must be a JSON integer, got {vertex_count!r}")
    # checked before the adjacency of vertex_count entries is allocated
    check_simplex_guard(vertex_count + len(doc["edges"]))
    return Graph(vertex_count, [tuple(e) for e in doc["edges"]])