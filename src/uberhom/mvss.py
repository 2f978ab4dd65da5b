"""The Mayer-Vietoris spectral sequence of a covered simplicial complex.

The double complex places, in bidegree (p, q), the q-chains of all
(p+1)-fold intersections of cover elements, indexed by the p-simplices of
the nerve.  The vertical differential is the simplicial boundary applied
blockwise; the horizontal one is the alternating sum of the inclusions
into the one-smaller intersections.  The augmented variant appends the
chains of the whole complex as a p = -1 column, making every row exact
and the abutment zero; the plain variant abuts to the homology of the
complex.

Pages are computed over a field by a zig-zag lifting scheme: a page-r
class at (p, q) is carried as a staircase of components in columns
p .. p-r+1 whose total differential vanishes except at the bottom, where
it computes d^r.  Each bidegree keeps one persistent span of "already
dead" leading terms, each reduced once (page one's vertical boundaries,
whose dependencies are the cycles one row up, then every page's fresh
images), with witnesses that let kernel elements be corrected into
one-deeper staircases when the page turns.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import algebra, complexes, uber
from .algebra import (
    CoefficientRing,
    Matrix,
    QQ,
    Span,
    matrix_rank,
    nullspace,
    vector_ops,
)
from .complexes import Cover, SimplicialComplex, Simplex
from .errors import LiftFailure, check_vertex_guard

__all__ = [
    "DoubleComplex",
    "double_complex",
    "Page",
    "SpectralSequence",
    "first_page",
    "run_to_convergence",
    "IdentificationReport",
    "verify_identification",
    "delta2_on_uber",
    "render_page",
    "page_to_json",
]


class DoubleComplex:
    """Chains of all cover intersections, arranged by (nerve degree, chain degree).

    Column p >= 0 holds one block per p-simplex of the nerve; the augmented
    variant adds a single block for the whole complex at p = -1.  Basis
    elements are (nerve simplex, ambient simplex) pairs; blocks are ordered
    by nerve simplex (lexicographically), simplices lexicographically
    within a block.
    """

    def __init__(self, X: SimplicialComplex, cover: Cover, ring: CoefficientRing, augmented: bool = True):
        if not ring.is_field:
            raise ValueError("spectral sequence pages require field coefficients")
        if cover.ambient != X:
            raise ValueError("the cover does not cover this complex")
        self.X = X
        self.cover = cover
        self.ring = ring
        self.augmented = augmented
        self.nerve = complexes.nerve(cover)
        self.p_min = -1 if augmented else 0
        self.p_max = self.nerve.max_dim
        blocks: dict[tuple[int, ...], dict[int, tuple[Simplex, ...]]] = {}
        if augmented:
            blocks[()] = {q: X.simplices_of_dim(q) for q in X.dims()}
        for p in self.nerve.dims():
            for J in self.nerve.simplices_of_dim(p):
                inter = complexes._intersection_simplices(cover, J)
                by_q: dict[int, list[Simplex]] = {}
                for s in inter:
                    by_q.setdefault(len(s) - 1, []).append(s)
                blocks[J] = {q: tuple(sorted(v)) for q, v in by_q.items()}
        self._blocks = blocks
        self._block_index: dict[tuple[tuple[int, ...], int], dict[Simplex, int]] = {}
        self._columns: dict[int, tuple[tuple[int, ...], ...]] = {}
        if augmented:
            self._columns[-1] = ((),)
        for p in self.nerve.dims():
            self._columns[p] = self.nerve.simplices_of_dim(p)
        self._cells: dict[tuple[int, int], dict] = {}
        self._dv: dict[tuple[int, int], list] = {}
        self._dh: dict[tuple[int, int], list] = {}

    # -- cell bookkeeping ------------------------------------------------------

    def q_max(self) -> int:
        return max((max(b) for b in self._blocks.values() if b), default=-1)

    def column(self, p: int) -> tuple[tuple[int, ...], ...]:
        return self._columns.get(p, ())

    def _cell(self, p: int, q: int) -> dict:
        key = (p, q)
        cell = self._cells.get(key)
        if cell is None:
            offsets = {}
            total = 0
            for J in self.column(p):
                offsets[J] = total
                total += len(self._blocks[J].get(q, ()))
            cell = {"offsets": offsets, "size": total}
            self._cells[key] = cell
        return cell

    def cell_dim(self, p: int, q: int) -> int:
        if q < 0 or p < self.p_min or p > self.p_max:
            return 0
        return self._cell(p, q)["size"]

    def cells(self) -> list[tuple[int, int]]:
        """All occupied bidegrees, column-major, rows ascending."""
        out = []
        for p in range(self.p_min, self.p_max + 1):
            for q in range(self.q_max() + 1):
                if self.cell_dim(p, q):
                    out.append((p, q))
        return out

    def _index_in_block(self, J: tuple[int, ...], q: int, s: Simplex) -> int:
        key = (J, q)
        idx = self._block_index.get(key)
        if idx is None:
            idx = {t: i for i, t in enumerate(self._blocks[J].get(q, ()))}
            self._block_index[key] = idx
        return idx[s]

    def basis(self, p: int, q: int) -> list[tuple[tuple[int, ...], Simplex]]:
        out = []
        for J in self.column(p):
            for s in self._blocks[J].get(q, ()):
                out.append((J, s))
        return out

    # -- sparse differentials ----------------------------------------------------

    def dv_sparse(self, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
        """Per-basis columns of the vertical (simplicial) differential into (p, q-1)."""
        key = (p, q)
        cols = self._dv.get(key)
        if cols is not None:
            return cols
        cols = []
        target = self._cell(p, q - 1) if q >= 1 else None
        for J, s in self.basis(p, q):
            entries = []
            if target is not None and len(s) >= 2:
                off = target["offsets"][J]
                for k in range(len(s)):
                    face = s[:k] + s[k + 1 :]
                    entries.append((off + self._index_in_block(J, q - 1, face), -1 if k % 2 else 1))
            cols.append(tuple(entries))
        self._dv[key] = cols
        return cols

    def dh_sparse(self, p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
        """Per-basis columns of the horizontal (nerve) differential into (p-1, q)."""
        key = (p, q)
        cols = self._dh.get(key)
        if cols is not None:
            return cols
        cols = []
        has_target = p - 1 >= self.p_min
        target = self._cell(p - 1, q) if has_target else None
        for J, s in self.basis(p, q):
            entries = []
            if target is not None:
                for k in range(len(J)):
                    J2 = J[:k] + J[k + 1 :]
                    off = target["offsets"][J2]
                    entries.append((off + self._index_in_block(J2, q, s), -1 if k % 2 else 1))
            cols.append(tuple(entries))
        self._dh[key] = cols
        return cols

    def validate(self) -> None:
        """Check the double-complex identities on every occupied bidegree.

        Composes the sparse columns directly and raises ``ValueError``
        naming the identity and the bidegree where one fails.
        """
        for (p, q) in self.cells():
            dv, dh = self.dv_sparse(p, q), self.dh_sparse(p, q)
            identities = (
                ("d_v∘d_v = 0", [(dv, self.dv_sparse(p, q - 1), 1)]),
                ("d_h∘d_h = 0", [(dh, self.dh_sparse(p - 1, q), 1)]),
                ("d_h∘d_v = d_v∘d_h", [(dv, self.dh_sparse(p, q - 1), 1), (dh, self.dv_sparse(p - 1, q), -1)]),
            )
            for name, terms in identities:
                if not algebra.composite_vanishes(self.ring, *terms):
                    raise ValueError(f"{name} fails at bidegree {(p, q)}")


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
    """One page: dimensions per bidegree and (once the next page has been
    computed) the page's differentials with their target classes as rows."""

    r: int
    dims: dict[tuple[int, int], int]
    differentials: dict[tuple[int, int], Matrix] = field(default_factory=dict)

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def differential_rank(self, p: int, q: int) -> int:
        d = self.differentials.get((p, q))
        if d is None:
            return 0
        return matrix_rank(d)

    def nonzero_cells(self) -> list[tuple[int, int]]:
        return sorted(k for k, v in self.dims.items() if v)

    def has_nonzero_differential(self) -> bool:
        return any(not d.is_zero() for d in self.differentials.values())


@dataclass(frozen=True)
class _Gen:
    """A spanning vector of the 'already dead' subspace at a bidegree.

    The vector itself lives in the bidegree's dead span under the
    generator's tag.  Vertical generators remember the chain one row up
    whose vertical boundary they are; horizontal generators remember the
    full staircase of the class whose page differential produced them.
    """

    kind: str  # "v" | "h"
    witness: object


class SpectralSequence:
    """Driver that turns pages of a double complex over a field.

    Dead subspaces are persistent per-cell spans: tag g of ``_dead[cell]``
    is generator g of ``_boundary[cell]``; solves and filters use copies.
    """

    def __init__(self, dc: DoubleComplex):
        self.dc = dc
        self.ring = dc.ring
        self.ops = vector_ops(dc.ring)
        self.width = dc.p_max - dc.p_min
        self._pages: dict[int, Page] = {}
        self._classes: dict[tuple[int, int], list[dict[int, object]]] = {}
        self._boundary: dict[tuple[int, int], list[_Gen]] = {}
        self._dead: dict[tuple[int, int], Span] = {}
        self._r = 0

    def _apply_dh(self, p: int, q: int, vec):
        """The horizontal differential applied to a vector of cell (p, q)."""
        ops = self.ops
        cols = self.dc.dh_sparse(p, q)
        return ops.from_items(
            self.dc.cell_dim(p - 1, q),
            ((row, ops.sc_mul(c, ic)) for idx, c in ops.items(vec) for row, ic in cols[idx]),
        )

    # -- page one ----------------------------------------------------------------

    def _first_page(self) -> Page:
        dc = self.dc
        ops = self.ops
        # cells() climbs each column, so the span of (p, q - 1) has already
        # found the cycles of (p, q); d_v is block-diagonal over the nerve
        # simplices, so one span per cell gives the per-block classes in order
        cycles: dict[tuple[int, int], list] = {}
        for cell in dc.cells():
            p, q = cell
            if not algebra.composite_vanishes(self.ring, (dc.dv_sparse(p, q), dc.dv_sparse(p, q - 1), 1)):
                raise ValueError(f"d_v∘d_v = 0 fails at bidegree {cell}")
            size, up = dc.cell_dim(p, q), dc.cell_dim(p, q + 1)
            span = Span(ops, size)
            ups: list = []
            for t, col in enumerate(dc.dv_sparse(p, q + 1)):
                is_new, combo = span.insert(ops.from_items(size, col))
                if not is_new:
                    # a dependency among boundaries is a cycle one row up
                    ups.append(ops.from_items(up, [(t, 1), *((g, -a) for g, a in combo.items())]))
            cycles[(p, q + 1)] = ups
            self._dead[cell] = span
            self._boundary[cell] = [_Gen("v", ops.unit(up, t)) for t in range(up)]
            homology = span.copy()
            zs = cycles.pop(cell) if q else [ops.unit(size, t) for t in range(size)]
            self._classes[cell] = [{p: z} for z in zs if homology.insert(z)[0]]
        dims = {cell: len(xs) for cell, xs in self._classes.items() if xs}
        page = Page(1, dims)
        self._pages[1] = page
        self._r = 1
        return page

    # -- turning -----------------------------------------------------------------

    def _turn(self) -> Page:
        if self._r == 0:
            self._first_page()
        r = self._r
        ops = self.ops
        dc = self.dc
        page = self._pages[r]
        solvers: dict[tuple[int, int], tuple[Span, list[_Gen]]] = {}

        def get_solver(cell: tuple[int, int]) -> tuple[Span, list[_Gen]]:
            got = solvers.get(cell)
            if got is not None:
                return got
            span = self._dead[cell].copy()
            gens = self._boundary[cell]
            for x in self._classes.get(cell, []):
                is_new, _ = span.insert(x[cell[0]])
                if not is_new:
                    raise LiftFailure(f"page-{r} class dependent at {cell}")
            solvers[cell] = (span, gens)
            return span, gens

        # pass 1: differentials of the current page
        dr_data: dict[tuple[int, int], tuple[list[list], list[dict[int, object]], list]] = {}
        for cell in sorted(self._classes):
            xs = self._classes[cell]
            if not xs:
                continue
            p, q = cell
            target = (p - r, q + r - 1)
            t_dim = dc.cell_dim(*target)
            low = p - r + 1
            cols: list[list] = []
            gen_combos: list[dict[int, object]] = []
            images: list = []
            n_target_classes = len(self._classes.get(target, [])) if t_dim else 0
            for x in xs:
                xlow = x.get(low)
                if xlow is None:
                    img = self.ops.zero(t_dim)
                else:
                    img = self._apply_dh(low, p + q - low, xlow)
                images.append(img)
                if t_dim == 0:
                    if not ops.is_zero(img):
                        raise LiftFailure(f"differential escapes the complex at {cell}")
                    cols.append([])
                    gen_combos.append({})
                    continue
                span, gens = get_solver(target)
                combo = span.solve(img)
                if combo is None:
                    raise LiftFailure(f"page-{r} image fails to reduce at {target}")
                coords = []
                gcombo: dict[int, object] = {}
                for tag, c in combo.items():
                    if tag < len(gens):
                        gcombo[tag] = c
                    else:
                        coords.append((tag - len(gens), c))
                cols.append(coords)
                gen_combos.append(gcombo)
            dr_data[cell] = (cols, gen_combos, images)
            page.differentials[cell] = Matrix.from_sparse(self.ring, n_target_classes, cols)

        # pass 2: grow the dead subspaces by the fresh images; generators are
        # only appended, so the tags solved against in pass 1 keep naming them
        for cell, (cols, gen_combos, images) in dr_data.items():
            p, q = cell
            target = (p - r, q + r - 1)
            if dc.cell_dim(*target) == 0:
                continue
            for x, img in zip(self._classes[cell], images):
                self._boundary[target].append(_Gen("h", x))
                self._dead[target].insert(img)

        # pass 3: kernels become next-page classes, corrected one column deeper
        new_classes: dict[tuple[int, int], list[dict[int, object]]] = {
            cell: [] for cell in self._classes
        }
        minus_one = ops.sc_neg(ops.sc_one)
        for cell in sorted(self._classes):
            xs = self._classes[cell]
            if not xs:
                continue
            p, q = cell
            target = (p - r, q + r - 1)
            cols, gen_combos, _ = dr_data[cell]
            kernel = nullspace(ops, [ops.from_items(n_target_classes, c) for c in cols], len(xs))
            target_gens = self._boundary.get(target, [])
            candidates = []
            for a in kernel:
                comps: dict[int, object] = {}
                gtotal: dict[int, object] = {}
                for i in range(len(xs)):
                    ai = ops.coeff(a, i)
                    if ai == ops.sc_zero:
                        continue
                    for c, v in xs[i].items():
                        cur = comps.get(c)
                        add = ops.scale(ai, v)
                        comps[c] = add if cur is None else ops.add(cur, add)
                    for g, val in gen_combos[i].items():
                        gtotal[g] = ops.sc_add(gtotal.get(g, ops.sc_zero), ops.sc_mul(ai, val))
                w_tot = None
                for g, val in gtotal.items():
                    if val == ops.sc_zero:
                        continue
                    gen = target_gens[g]
                    if gen.kind == "v":
                        add = ops.scale(val, gen.witness)
                        w_tot = add if w_tot is None else ops.add(w_tot, add)
                    else:
                        for c, v in gen.witness.items():
                            cur = comps.get(c)
                            sub = ops.scale(ops.sc_neg(val), v)
                            comps[c] = sub if cur is None else ops.add(cur, sub)
                if w_tot is not None and not ops.is_zero(w_tot):
                    sign = ops.sc_one if (p - r) % 2 == 0 else minus_one
                    comps[p - r] = ops.scale(ops.sc_neg(sign), w_tot)
                candidates.append(comps)
            flt = self._dead[cell].copy()
            for comps in candidates:
                lead = comps.get(p)
                if lead is None or ops.is_zero(lead):
                    continue
                is_new, _ = flt.insert(lead)
                if is_new:
                    new_classes[cell].append(comps)

        self._classes = new_classes
        dims = {cell: len(xs) for cell, xs in new_classes.items() if xs}
        nxt = Page(r + 1, dims)
        self._pages[r + 1] = nxt
        self._r = r + 1
        return nxt

    # -- public drivers -------------------------------------------------------------

    def page(self, r: int) -> Page:
        if r < 1:
            raise ValueError("pages start at r = 1")
        if self._r == 0:
            self._first_page()
        while self._r < r and self._r <= self.width:
            self._turn()
        if r in self._pages:
            return self._pages[r]
        # beyond the bidegree bound every page equals the last computed one
        last = self._pages[max(self._pages)]
        return Page(r, dict(last.dims))

    def differentials(self, r: int) -> dict[tuple[int, int], Matrix]:
        self.page(min(r + 1, self.width + 1))
        if r > self.width:
            return {}
        return self._pages[r].differentials

    def run_to_convergence(self) -> "SpectralSequence":
        self.page(self.width + 1 if self.width >= 0 else 1)
        return self

    @property
    def converged_at(self) -> int:
        self.run_to_convergence()
        last = 0
        for r, page in self._pages.items():
            if page.has_nonzero_differential():
                last = max(last, r)
        return last + 1

    def infinity(self) -> Page:
        self.run_to_convergence()
        return self._pages[max(self._pages)]

    def abutment_dims(self) -> dict[int, int]:
        """Total-degree dimensions of the final page."""
        inf = self.infinity()
        out: dict[int, int] = {}
        for (p, q), d in inf.dims.items():
            if d:
                out[p + q] = out.get(p + q, 0) + d
        return out


def first_page(dc: DoubleComplex) -> Page:
    return SpectralSequence(dc).page(1)


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
    unchanged; the augmentation column corresponds to j = m.
    """
    m = X.vertex_count
    table = uber.zero_degree_uber_table(X, ring, max_vertices=max_vertices)
    dc = double_complex(X, ring=ring, augmented=True)
    e2 = SpectralSequence(dc).page(2)
    page_dims: dict[tuple[int, int], int] = {}
    for (p, q), d in e2.dims.items():
        if d:
            page_dims[(m - p - 1, q)] = d
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
    dc = double_complex(X, ring=ring, augmented=True)
    ss = SpectralSequence(dc)
    d2 = ss.differentials(2)
    out: dict[tuple[int, int], Matrix] = {}
    for (p, q), mat in d2.items():
        out[(m - p - 1, q)] = mat
    for (j, i), mat in out.items():
        nxt = out.get((j + 2, i + 1))
        if nxt is not None and mat.rows == nxt.cols:
            if not (nxt * mat).is_zero():
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
    diffs = []
    for (p, q), mat in sorted(page.differentials.items()):
        if mat.rows == 0 or mat.cols == 0:
            continue
        rank = matrix_rank(mat)
        diffs.append({"from": [p, q], "to": [p - page.r, q + page.r - 1], "rank": rank})
    doc: dict = {"page": page.r, "cells": cells, "differentials": diffs}
    if converged_at is not None:
        doc["converged_at"] = converged_at
    return json.dumps(doc, sort_keys=True)