"""Independent answers for the benchmark's correctness gate.

Nothing here calls into ``uberhom``'s algebra: boundary matrices are built
from a complex's simplex lists and ranked by plain Gaussian elimination,
so a wrong answer from the package cannot also appear here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

LARGE_PRIME = 2**31 - 1


def rank(rows: list[list[int]], p: int | None) -> int:
    """Rank of an integer matrix over GF(p), or over QQ when ``p`` is None."""
    if p is None:
        work = [[Fraction(x) for x in row] for row in rows]
    else:
        work = [[x % p for x in row] for row in rows]
    r = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c] if p is None else pow(work[r][c], -1, p)
        for i in range(r + 1, len(work)):
            f = work[i][c] * inv
            if f:
                row, top = work[i], work[r]
                if p is None:
                    work[i] = [a - f * b for a, b in zip(row, top)]
                else:
                    work[i] = [(a - f * b) % p for a, b in zip(row, top)]
        r += 1
    return r


def betti(simplices_by_dim: list[list[tuple[int, ...]]], p: int | None) -> dict[int, int]:
    """Nonzero Betti numbers over GF(p) (or QQ) from simplex lists by dimension."""
    index = [{s: i for i, s in enumerate(bucket)} for bucket in simplices_by_dim]
    ranks = {}
    for q in range(1, len(simplices_by_dim)):
        rows = [[0] * len(simplices_by_dim[q]) for _ in simplices_by_dim[q - 1]]
        for j, s in enumerate(simplices_by_dim[q]):
            for k in range(len(s)):
                rows[index[q - 1][s[:k] + s[k + 1 :]]][j] = -1 if k % 2 else 1
        ranks[q] = rank(rows, p)
    out = {}
    for q, bucket in enumerate(simplices_by_dim):
        b = len(bucket) - ranks.get(q, 0) - ranks.get(q + 1, 0)
        if b:
            out[q] = b
    return out


def complex_betti(X, p: int | None) -> dict[int, int]:
    return betti([list(X.simplices_of_dim(q)) for q in X.dims()], p)


def induced_betti(X, mask: int, p: int | None) -> dict[int, int]:
    """Betti numbers of the subcomplex spanned by the vertices in ``mask``."""
    buckets = []
    for q in X.dims():
        bucket = [s for s in X.simplices_of_dim(q) if all(mask >> v & 1 for v in s)]
        if not bucket:
            break
        buckets.append(bucket)
    return betti(buckets, p)


def cube_euler_by_degree(X, p: int | None) -> dict[int, int]:
    """Alternating sum over the colouring cube of the induced Betti numbers.

    For the weight-zero table this equals, degree by degree, the
    alternating sum over levels of the table's entries.
    """
    out: dict[int, int] = {}
    for mask in range(1, 1 << X.vertex_count):
        sign = -1 if mask.bit_count() % 2 else 1
        for q, b in induced_betti(X, mask, p).items():
            out[q] = out.get(q, 0) + sign * b
    return {q: v for q, v in out.items() if v}


def domination_at_minus_one(vertex_count: int, edges) -> int:
    """Signed count of connected dominating sets, by brute force over subsets."""
    closed = [1 << v for v in range(vertex_count)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << vertex_count) - 1
    total = 0
    for size in range(1, vertex_count + 1):
        for subset in combinations(range(vertex_count), size):
            mask = 0
            dominated = 0
            for v in subset:
                mask |= 1 << v
                dominated |= closed[v]
            if dominated != full:
                continue
            reached = seen = 1 << subset[0]
            while reached:
                v = (reached & -reached).bit_length() - 1
                reached &= reached - 1
                new = closed[v] & mask & ~seen
                seen |= new
                reached |= new
            if seen == mask:
                total += -1 if size % 2 else 1
    return total

