"""The Mayer-Vietoris spectral sequence of a covered simplicial complex.

The double complex places, in bidegree (p, q), the q-chains of all
(p+1)-fold intersections of cover elements, indexed by the p-simplices of
the nerve.  The vertical differential is the simplicial boundary applied
blockwise; the horizontal one is the alternating sum of the inclusions
into the one-smaller intersections.  The augmented variant appends the
chains of the whole complex as a p = -1 column, making every row exact
and the abutment zero; the plain variant abuts to the homology of the
complex.  The blocks are the intersections that the nerve is grown from,
and the double complex is an ``algebra._DoubleComplex`` of (nerve simplex,
simplex) bitset pairs; over the anti-star cover, augmented, it is the
summand S empty, the colouring cube of ``uber._link_cube``, moved one
column left.

Over a field, the pages come from the barcode and the differentials from
the staircases.  Every page's dimensions and every d^r's rank are read
off the persistence barcode of the total complex filtered by column
(``algebra._barcode`` and ``algebra._page_from_bars``; Basu & Parida,
*Spectral sequences, exact couples and persistent homology of
filtrations*, Expo. Math. 2017).  The matrices of the differentials come
from the zig-zag (staircase) description of page classes (McCleary, *A
User's Guide to Spectral Sequences*, 2.2): a page-r class at (p, q) is a
staircase of components in columns p .. p-r+1 whose total differential
vanishes except at the bottom, where it computes d^r.  Each bidegree
keeps one persistent span of "already dead" vectors, and beside each the
staircase whose total differential it is; when the page turns, a kernel
element becomes a one-deeper staircase by subtracting the staircases of
the dead vectors its image is made of.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from . import algebra, complexes, uber
from .algebra import (
    CoefficientRing,
    Matrix,
    QQ,
    Span,
    nullspace,
    vector_ops,
)
from .complexes import Cover, SimplicialComplex
from .errors import LiftFailure, check_vertex_guard

__all__ = [
    "DoubleComplex",
    "double_complex",
    "Page",
    "SpectralSequence",
    "run_to_convergence",
    "IdentificationReport",
    "verify_identification",
    "delta2_on_uber",
    "render_page",
    "page_to_json",
]


class DoubleComplex(algebra._DoubleComplex):
    """Chains of all cover intersections, arranged by (nerve degree, chain degree).

    Column p >= 0 holds one block per p-simplex J of the nerve, the chains
    of the intersection of the elements in J; the augmented variant adds
    the block J = () of the whole complex at p = -1.  Cell (p, q) is one
    index ``{(J, s): row}`` of bitsets, J (of cover elements) by nerve
    order and then s (of vertices) lexicographic.
    """

    def __init__(self, X: SimplicialComplex, cover: Cover, ring: CoefficientRing, augmented: bool = True):
        if not ring.is_field:
            raise ValueError("spectral sequence pages require field coefficients")
        if cover.ambient != X:
            raise ValueError("the cover does not cover this complex")
        self.X = X
        self.cover = cover
        self.augmented = augmented
        self.p_min = -1 if augmented else 0
        # the blocks come by nerve dimension, then lexicographically
        blocks = complexes._nerve_intersections(cover)
        if augmented:
            blocks = {(): X.simplex_set(), **blocks}
        cells: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        for J, inter in blocks.items():
            J_bits = sum(1 << i for i in J)
            for s in sorted(inter):
                cell = cells.setdefault((len(J) - 1, len(s) - 1), {})
                cell[J_bits, sum(1 << v for v in s)] = len(cell)
        super().__init__(ring, cells)
        self.p_max = max(p for p, _ in cells)
        self._dv: dict[tuple[int, int], list] = {}
        self._dh: dict[tuple[int, int], list] = {}

    def column(self, p: int) -> tuple[tuple[int, ...], ...]:
        """The nerve simplices of column p; each block has vertices."""
        blocks = dict.fromkeys(J for J, _ in self._cells.get((p, 0), ()))
        return tuple(tuple(i for i in range(J.bit_length()) if J >> i & 1) for J in blocks)

    # the staircase engine reads each differential many times, so both are kept

    def dv_sparse(self, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
        cols = self._dv.get((p, q))
        if cols is None:
            cols = self._dv[p, q] = super().dv_sparse(p, q)
        return cols

    def dh_sparse(self, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
        cols = self._dh.get((p, q))
        if cols is None:
            cols = self._dh[p, q] = super().dh_sparse(p, q)
        return cols


def double_complex(
    X: SimplicialComplex,
    cover: Cover | None = None,
    ring: CoefficientRing = QQ,
    augmented: bool = True,
) -> DoubleComplex:
    """The double complex of a cover (anti-star cover of X by default)."""
    if cover is None:
        cover = complexes.anti_star_cover(X)
    return DoubleComplex(X, cover, ring, augmented=augmented)


# --------------------------------------------------------------------------
# Pages


@dataclass
class Page:
    """One page: its dimensions per bidegree, and the ranks of its
    differentials by source bidegree (on pages past the width, none)."""

    r: int
    dims: dict[tuple[int, int], int]
    ranks: dict[tuple[int, int], int]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def differential_rank(self, p: int, q: int) -> int:
        return self.ranks.get((p, q), 0)

    def nonzero_cells(self) -> list[tuple[int, int]]:
        return sorted(k for k, v in self.dims.items() if v)

    def has_nonzero_differential(self) -> bool:
        return any(self.ranks.values())


class SpectralSequence:
    """The spectral sequence of a double complex over a field.

    ``page(r)``, ``converged_at``, ``infinity()`` and ``abutment_dims()``
    read dimensions and ranks off the bars of :func:`algebra._barcode`, reduced
    once per sequence; only ``differentials(r)`` turns the staircase
    engine (``_turn_to``).

    In the engine everything is carried as a staircase: a ``{column:
    vector}`` dict of components of one total degree, whose total
    differential is D = d_h + (-1)^c d_v on the component in column c.  A
    page-r class at (p, q) is a staircase whose D vanishes in columns
    p .. p-r+1; its component in column p - r is d^r of the class.

    Each cell keeps a persistent span of dead vectors: tag g of
    ``_dead[cell]`` is D, in the cell's column, of staircase g of
    ``_boundary[cell]``, whose D vanishes above that column.  Page one
    seeds it with {p: (-1)^p e_t} for the chains e_t one row up; each page
    turn appends the classes that die there.  Solves and filters use
    copies of the spans.
    """

    def __init__(self, dc: DoubleComplex):
        # both routes reduce d_v, so both rest on this one check
        for p, q in dc.cells():
            if not algebra.composite_vanishes(dc.ring, (dc.dv_sparse(p, q), dc.dv_sparse(p, q - 1), 1)):
                raise ValueError(f"d_v∘d_v = 0 fails at bidegree {(p, q)}")
        self.dc = dc
        self.ring = dc.ring
        self.ops = vector_ops(dc.ring)
        self.width = dc.p_max - dc.p_min
        self._pages: dict[int, Page] = {}
        self._classes: dict[tuple[int, int], list[dict[int, object]]] = {}
        self._boundary: dict[tuple[int, int], list[dict[int, object]]] = {}
        self._dead: dict[tuple[int, int], Span] = {}
        self._differentials: dict[int, dict[tuple[int, int], Matrix]] = {}
        self._r = 0

    def _apply_dh(self, p: int, q: int, vec):
        """The horizontal differential applied to a vector of cell (p, q)."""
        ops = self.ops
        cols = self.dc.dh_sparse(p, q)
        return ops.from_items(
            self.dc.cell_dim(p - 1, q),
            ((row, ops.sc_mul(c, ic)) for idx, c in ops.items(vec) for row, ic in cols[idx]),
        )

    def _add_scaled(self, into: dict[int, object], c, staircase: dict[int, object]) -> None:
        """Add c times a staircase to ``into``, column by column."""
        ops = self.ops
        for col, v in staircase.items():
            cur = into.get(col)
            add = ops.scale(c, v)
            into[col] = add if cur is None else ops.add(cur, add)

    # -- the staircase engine: page one ------------------------------------------

    def _first_page(self) -> None:
        dc = self.dc
        ops = self.ops
        # one homology walk up each column: the span of (p, q) holds the
        # vertical boundaries from (p, q + 1), and the cycles of (p, q) are
        # the dependencies met in the span one row down; d_v is block-diagonal
        # over the nerve simplices, so one span per cell gives the per-block
        # classes in order
        for p in range(dc.p_min, dc.p_max + 1):
            rows = [q for c, q in dc.cells() if c == p]
            rank, columns = (lambda q: dc.cell_dim(p, q)), (lambda q: dc.dv_sparse(p, q))
            for q, span, zs in algebra._homology_walk(ops, rows[0], rows[-1], rank, columns):
                self._dead[p, q] = span
                sign, up = -1 if p % 2 else 1, dc.cell_dim(p, q + 1)
                self._boundary[p, q] = [{p: ops.from_items(up, [(t, sign)])} for t in range(up)]
                homology = span.copy()
                self._classes[p, q] = [{p: z} for z in zs if homology.insert(z)[0]]
        self._r = 1

    # -- the staircase engine: turning -------------------------------------------

    def _turn(self) -> None:
        r = self._r
        ops = self.ops
        dc = self.dc
        differentials = self._differentials[r] = {}
        solvers: dict[tuple[int, int], Span] = {}

        def get_solver(cell: tuple[int, int]) -> Span:
            span = solvers.get(cell)
            if span is None:
                span = self._dead[cell].copy()
                for x in self._classes.get(cell, []):
                    is_new, _ = span.insert(x[cell[0]])
                    if not is_new:
                        raise LiftFailure(f"page-{r} class dependent at {cell}")
                solvers[cell] = span
            return span

        # pass 1: differentials of the current page and their kernels; each
        # image's combination is kept whole, its tags below n_gens naming
        # dead generators and the rest the target's classes
        dr_data: dict[tuple[int, int], tuple[list, list, list, int]] = {}
        for cell in sorted(self._classes):
            xs = self._classes[cell]
            if not xs:
                continue
            p, q = cell
            target = (p - r, q + r - 1)
            t_dim = dc.cell_dim(*target)
            low = p - r + 1
            cols: list[list] = []
            combos: list = []
            images: list = []
            n_target_classes = len(self._classes.get(target, [])) if t_dim else 0
            n_gens = len(self._boundary.get(target, []))
            for x in xs:
                xlow = x.get(low)
                img = ops.zero(t_dim) if xlow is None else self._apply_dh(low, p + q - low, xlow)
                images.append(img)
                if t_dim == 0:
                    if not ops.is_zero(img):
                        raise LiftFailure(f"differential escapes the complex at {cell}")
                    cols.append([])
                    combos.append(ops.zero(0))
                    continue
                combo = get_solver(target).solve(img)
                if combo is None:
                    raise LiftFailure(f"page-{r} image fails to reduce at {target}")
                cols.append([(tag - n_gens, c) for tag, c in ops.items(combo) if tag >= n_gens])
                combos.append(combo)
            kernel = nullspace(ops, [ops.from_items(n_target_classes, c) for c in cols], len(xs))
            dr_data[cell] = (kernel, combos, images, n_gens)
            differentials[cell] = Matrix.from_sparse(self.ring, n_target_classes, cols)

        # pass 2: grow the dead subspaces by the fresh images; generators are
        # only appended, so the tags solved against in pass 1 keep naming them
        for cell, (_, _, images, _) in dr_data.items():
            p, q = cell
            target = (p - r, q + r - 1)
            if dc.cell_dim(*target) == 0:
                continue
            for x, img in zip(self._classes[cell], images):
                self._boundary[target].append(x)
                self._dead[target].insert(img)

        # pass 3: kernels become next-page classes, one column deeper: D of
        # a kernel combination in column p - r is the same combination of
        # the images' combinations, whose class part vanishes, and
        # subtracting the staircases of the dead vectors left clears it
        # without touching the columns above
        new_classes: dict[tuple[int, int], list[dict[int, object]]] = {
            cell: [] for cell in self._classes
        }
        for cell, (kernel, combos, _, n_gens) in dr_data.items():
            p, q = cell
            xs = self._classes[cell]
            target_gens = self._boundary.get((p - r, q + r - 1), [])
            flt = self._dead[cell].copy()
            for a in kernel:
                comps: dict[int, object] = {}
                dead = ops.zero(0)
                for i, ai in ops.items(a):
                    self._add_scaled(comps, ai, xs[i])
                    dead = ops.add(dead, ops.scale(ai, combos[i]))
                for g, val in ops.items(dead):
                    # pass 2 appended this page's classes to target_gens,
                    # so a class tag left here would name the wrong staircase
                    if g >= n_gens:
                        raise LiftFailure(f"page-{r} kernel element at {cell} has a nonzero differential")
                    self._add_scaled(comps, ops.sc_neg(val), target_gens[g])
                lead = comps.get(p)
                if lead is not None and not ops.is_zero(lead) and flt.insert(lead)[0]:
                    new_classes[cell].append(comps)

        self._classes = new_classes
        self._r = r + 1

    def _turn_to(self, r: int) -> None:
        """Turn the staircases to page min(r, width + 1): ``_classes`` then
        holds that page's classes, and ``_differentials[s]`` the matrices of
        every page s before it."""
        if self._r == 0:
            self._first_page()
        while self._r < r and self._r <= self.width:
            self._turn()

    # -- public drivers -------------------------------------------------------------

    def page(self, r: int) -> Page:
        if r < 1:
            raise ValueError("pages start at r = 1")
        page = self._pages.get(r)
        if page is None:
            ends, deaths = algebra._page_from_bars(self._bars, r)
            dims = {cell: ends[cell] for cell in sorted(ends)}
            ranks = {cell: deaths[cell] for cell in dims} if r <= self.width else {}
            page = self._pages[r] = Page(r, dims, ranks)
        return page

    @cached_property
    def _bars(self) -> list[tuple[int, int, int | None]]:
        return algebra._barcode(self.dc)

    def differentials(self, r: int) -> dict[tuple[int, int], Matrix]:
        """The matrices of d^r by source bidegree, with the target's page
        classes as rows; one per nonzero cell of page r."""
        if r < 1:
            raise ValueError("pages start at r = 1")
        if r > self.width:
            return {}
        self._turn_to(r + 1)
        return self._differentials[r]

    def run_to_convergence(self) -> "SpectralSequence":
        self.infinity()
        return self

    @property
    def converged_at(self) -> int:
        return max((d - b for _, b, d in self._bars if d is not None), default=0) + 1

    def infinity(self) -> Page:
        return self.page(self.width + 1)

    def abutment_dims(self) -> dict[int, int]:
        """Total-degree dimensions of the final page."""
        inf = self.infinity()
        out: dict[int, int] = {}
        for (p, q), d in inf.dims.items():
            if d:
                out[p + q] = out.get(p + q, 0) + d
        return out


def run_to_convergence(dc: DoubleComplex) -> SpectralSequence:
    return SpectralSequence(dc).run_to_convergence()


# --------------------------------------------------------------------------
# Identification with the weight-zero colouring cube


@dataclass
class IdentificationReport:
    """Side-by-side comparison of second-page dimensions with the
    weight-zero colouring homology, after reindexing."""

    ring: CoefficientRing
    vertex_count: int
    entries: list[tuple[int, int, int, int]]  # (level j, degree i, cube dim, page dim)
    ok: bool

    def render(self) -> str:
        lines = [f"identification over {self.ring.label()} (m = {self.vertex_count})"]
        lines.append("   j   i   cube   page   ok")
        for j, i, a, b in self.entries:
            mark = "yes" if a == b else "NO"
            lines.append(f"{j:4d}{i:4d}{a:7d}{b:7d}   {mark}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def verify_identification(
    X: SimplicialComplex,
    ring: CoefficientRing = QQ,
    max_vertices: int = 16,
) -> IdentificationReport:
    """Check E^2 of the augmented anti-star sequence against the cube.

    The reindexing sends the level j of a colouring with j vertices
    coloured 1 to the nerve column p = m - j - 1, with the homology degree
    unchanged; the augmentation column corresponds to j = m.  Both columns
    are E^2 of one double complex built two ways (the colouring cube of
    ``uber._link_cube`` has the same cells and signs in another row order),
    so a PASS is a consistency check of the two builders and the barcode;
    the node cube of the test oracles is the independent side.
    """
    m = X.vertex_count
    table = uber.zero_degree_uber_table(X, ring, max_vertices=max_vertices)
    dc = double_complex(X, ring=ring, augmented=True)
    e2 = SpectralSequence(dc).page(2)
    page_dims = {(m - p - 1, q): d for (p, q), d in e2.dims.items() if d}
    keys = sorted(set(table) | set(page_dims))
    entries = [(j, i, table.get((j, i), 0), page_dims.get((j, i), 0)) for j, i in keys]
    ok = all(a == b for _, _, a, b in entries)
    return IdentificationReport(ring, m, entries, ok)


def delta2_on_uber(
    X: SimplicialComplex, ring: CoefficientRing = QQ, max_vertices: int = 16
) -> dict[tuple[int, int], Matrix]:
    """The second-page differentials transported to cube gradings.

    Keys are (level j, degree i) of the source; the map raises j by 2 and
    i by 1.  Matrices are written in the page's representative bases;
    composable pairs multiply to zero.
    """
    m = X.vertex_count
    check_vertex_guard(m, max_vertices)
    d2 = SpectralSequence(double_complex(X, ring=ring, augmented=True)).differentials(2)
    out = {(m - p - 1, q): mat for (p, q), mat in d2.items()}
    columns = {
        key: [[(i, x) for i, x in enumerate(mat.column(t)) if x] for t in range(mat.cols)]
        for key, mat in out.items()
    }
    for (j, i), mat in out.items():
        nxt = out.get((j + 2, i + 1))
        if nxt is not None and mat.rows == nxt.cols:
            if not algebra.composite_vanishes(ring, (columns[j, i], columns[j + 2, i + 1], 1)):
                raise LiftFailure("transported second-page maps fail to compose to zero")
    return out


# --------------------------------------------------------------------------
# Rendering


def render_page(page: Page, ring: CoefficientRing) -> str:
    """A plain-text grid of one page, rows q descending, columns p ascending."""
    cells = page.nonzero_cells()
    if not cells:
        return f"E^{page.r}: 0"
    p_lo = min(p for p, _ in cells)
    p_hi = max(p for p, _ in cells)
    q_hi = max(q for _, q in cells)
    label = ring.label()
    grid: list[list[str]] = []
    for q in range(q_hi, -1, -1):
        row = []
        for p in range(p_lo, p_hi + 1):
            d = page.dim(p, q)
            if d == 0:
                row.append(".")
            elif d == 1:
                row.append(label)
            else:
                row.append(f"{label}^{d}")
        grid.append(row)
    widths = [max(len(grid[i][j]) for i in range(len(grid))) for j in range(p_hi - p_lo + 1)]
    lines = [f"E^{page.r}"]
    header = ["q\\p"] + [str(p) for p in range(p_lo, p_hi + 1)]
    hw = [max(widths[j], len(header[j + 1])) for j in range(len(widths))]
    lines.append("  ".join([f"{header[0]:>4}"] + [header[j + 1].rjust(hw[j]) for j in range(len(hw))]))
    for i, q in enumerate(range(q_hi, -1, -1)):
        lines.append("  ".join([f"{q:>4}"] + [grid[i][j].rjust(hw[j]) for j in range(len(hw))]))
    return "\n".join(lines)


def page_to_json(page: Page, converged_at: int | None = None) -> str:
    cells = [{"p": p, "q": q, "dim": d} for (p, q), d in sorted(page.dims.items()) if d]
    r = page.r
    diffs = [
        {"from": [p, q], "to": [p - r, q + r - 1], "rank": rank}
        for (p, q), rank in sorted(page.ranks.items())
        if page.dim(p, q) and page.dim(p - r, q + r - 1)
    ]
    doc: dict = {"page": page.r, "cells": cells, "differentials": diffs}
    if converged_at is not None:
        doc["converged_at"] = converged_at
    return json.dumps(doc, sort_keys=True)