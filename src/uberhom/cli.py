"""Command-line surface for the library.

Subcommands
-----------
homology     Betti numbers / torsion of a simplicial complex.
uber         Full triply-graded poset homology table over F2.
bold         Component-level poset homology of a graph or complex.
domination   Connected domination polynomial of a graph.
mvss         Pages of the covering spectral sequence of a complex.
verify       Check one of the supported identities on an input or a
             built-in corpus, reporting PASS / FAIL / SKIP per item.
generate     Emit JSON for standard families of graphs and complexes.

Inputs are JSON files (`-` for stdin); documents with an "edges" key are
graphs, documents with a "facets" key are complexes.  Output is canonical
JSON by default, `--format table` renders text tables.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 input error, 3 size guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra, complexes, errors, graphs, mvss, uber
from .algebra import CoefficientRing, ring_from_label
from .complexes import SimplicialComplex
from .errors import NotConnectedError, SizeGuardExceeded, StandardSimplexError
from .errors import check_simplex_guard, check_vertex_guard
from .graphs import Graph

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

DEFAULT_MAX_VERTICES = 16


class InputError(ValueError):
    """Bad input document or parameters (exit code 2)."""


# --------------------------------------------------------------------------
# Input / output plumbing


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def _load_object(text: str) -> SimplicialComplex | Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON input: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    if "facets" in doc:
        try:
            return complexes.complex_from_json(text)
        except (ValueError, TypeError, KeyError) as exc:
            raise InputError(f"invalid complex document: {exc}") from exc
    if "edges" in doc:
        try:
            return graphs.graph_from_json(text)
        except (ValueError, TypeError, KeyError) as exc:
            raise InputError(f"invalid graph document: {exc}") from exc
    raise InputError('input needs a "facets" (complex) or "edges" (graph) key')


def _as_complex(obj: SimplicialComplex | Graph) -> SimplicialComplex:
    if isinstance(obj, Graph):
        return complexes.complex_from_graph(obj)
    return obj


def _as_graph(obj: SimplicialComplex | Graph) -> Graph:
    if isinstance(obj, Graph):
        return obj
    return graphs.one_skeleton(obj)


def _ring_label(label: str) -> CoefficientRing:
    try:
        return ring_from_label(label)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(doc: dict, fmt: str, table: str) -> None:
    if fmt == "table":
        print(table)
    else:
        print(json.dumps(doc, sort_keys=True))


def _group_doc(p: algebra.AbelianGroupPresentation) -> dict:
    return {"rank": p.free_rank, "torsion": list(p.torsion), "group": p.describe()}


# --------------------------------------------------------------------------
# Plain computation commands


def cmd_homology(args) -> int:
    X = _as_complex(_load_object(_read_text(args.input)))
    ring = args.coeff
    cc = algebra.simplicial_chain_complex(X, ring, reduced=args.reduced)
    table = algebra.homology_table(cc)
    groups = []
    lines = []
    prefix = "reduced H" if args.reduced else "H"
    for n in sorted(table):
        entry = _group_doc(table[n].presentation)
        entry["degree"] = n
        groups.append(entry)
        lines.append(f"{prefix}_{n} = {entry['group']}")
    doc = {"coefficients": ring.label(), "reduced": args.reduced, "groups": groups}
    _emit(doc, args.format, "\n".join(lines))
    return EXIT_OK


def cmd_uber(args) -> int:
    X = _as_complex(_load_object(_read_text(args.input)))
    dims = uber.uberhomology(X, max_vertices=args.max_vertices)
    entries = [
        {"j": j, "k": k, "i": i, "dim": d}
        for (j, k, i), d in sorted(dims.items())
        if d
    ]
    lines = [f"(j={e['j']}, k={e['k']}, i={e['i']})  dim {e['dim']}" for e in entries]
    doc = {"coefficients": "F2", "entries": entries}
    _emit(doc, args.format, "\n".join(lines) if lines else "0")
    return EXIT_OK


def cmd_bold(args) -> int:
    obj = _load_object(_read_text(args.input))
    G = _as_graph(obj)
    ring = args.coeff
    table = uber.bold_homology(G, ring=ring, max_vertices=args.max_vertices)
    # the alternating sum of ranks is the same over every coefficient ring
    chi = sum((-1) ** j * g.free_rank for j, g in table.items())
    groups = []
    lines = []
    for j in sorted(table):
        p = table[j]
        if p.free_rank == 0 and not p.torsion:
            continue
        entry = _group_doc(p)
        entry["degree"] = j
        groups.append(entry)
        lines.append(f"degree {j}: {entry['group']}")
    lines.append(f"euler characteristic: {chi}")
    doc = {
        "coefficients": ring.label(),
        "groups": groups,
        "euler_characteristic": chi,
    }
    _emit(doc, args.format, "\n".join(lines))
    return EXIT_OK


def cmd_domination(args) -> int:
    G = _as_graph(_load_object(_read_text(args.input)))
    poly = graphs.connected_domination_polynomial(
        G, max_vertices=args.max_vertices, prune=args.prune
    )
    doc = {
        "vertex_count": G.vertex_count,
        "coefficients": list(poly.coefficients),
        "polynomial": str(poly),
        "at_minus_one": poly(-1),
    }
    table = f"D(t) = {poly}\nD(-1) = {poly(-1)}"
    _emit(doc, args.format, table)
    return EXIT_OK


def cmd_mvss(args) -> int:
    X = _as_complex(_load_object(_read_text(args.input)))
    ring = args.coeff
    if ring.kind == "integers":
        raise InputError("the spectral sequence needs field coefficients (q, z2 or p:<prime>)")
    check_vertex_guard(X.vertex_count, args.max_vertices)
    dc = mvss.double_complex(X, ring=ring, augmented=not args.unaugmented)
    ss = mvss.run_to_convergence(dc)
    converged = ss.converged_at
    last = max(converged, 2)
    pages = []
    blocks = []
    for r in range(1, last + 1):
        page = ss.page(r)
        pages.append(json.loads(mvss.page_to_json(page)))
        blocks.append(mvss.render_page(page, ring))
    abutment = ss.abutment_dims()
    doc = {
        "coefficients": ring.label(),
        "augmented": not args.unaugmented,
        "pages": pages,
        "converged_at": converged,
        "abutment": {str(n): d for n, d in sorted(abutment.items())},
    }
    blocks.append(f"converges at page {converged}")
    blocks.append(
        "abutment: "
        + (", ".join(f"degree {n}: {d}" for n, d in sorted(abutment.items())) or "0")
    )
    _emit(doc, args.format, "\n\n".join(blocks))
    return EXIT_OK


# --------------------------------------------------------------------------
# Verification checks.  Each returns a result dict with keys status
# (PASS | FAIL | SKIP) and detail; cmd_verify turns the exceptions they
# raise into verdicts.


def _dims_doc(dims: dict) -> dict:
    return {",".join(str(x) for x in key): d for key, d in sorted(dims.items()) if d}


def _check_identification(obj, ring: CoefficientRing, max_vertices: int) -> dict:
    X = _as_complex(obj)
    report = mvss.verify_identification(X, ring=ring, max_vertices=max_vertices)
    detail = {
        "bidegrees": len(report.entries),
        "table": {f"{j},{i}": [cube, page] for j, i, cube, page in report.entries},
    }
    return {"status": "PASS" if report.ok else "FAIL", "detail": detail}


def _check_abutment(obj, ring: CoefficientRing, max_vertices: int) -> dict:
    X = _as_complex(obj)
    check_vertex_guard(X.vertex_count, max_vertices)
    cover = complexes.anti_star_cover(X)
    betti = algebra.betti_numbers(algebra.simplicial_chain_complex(X, ring))
    betti = {n: d for n, d in betti.items() if d}
    plain = mvss.run_to_convergence(
        mvss.double_complex(X, cover=cover, ring=ring, augmented=False)
    )
    totals = plain.abutment_dims()
    augmented = mvss.run_to_convergence(
        mvss.double_complex(X, cover=cover, ring=ring, augmented=True)
    )
    residue = {cell: d for cell, d in augmented.infinity().dims.items() if d}
    ok = totals == betti and not residue
    detail = {
        "limit_totals": _dims_doc({(n,): d for n, d in totals.items()}),
        "betti": _dims_doc({(n,): d for n, d in betti.items()}),
        "augmented_residue": _dims_doc(residue),
    }
    return {"status": "PASS" if ok else "FAIL", "detail": detail}


def _cover_is_one_leray(X: SimplicialComplex) -> bool:
    # the induced subcomplexes of the anti-stars are the proper induced
    # subcomplexes of X, so each is checked once rather than once per
    # anti-star; the caller has already guarded all m vertices
    m = X.vertex_count
    return all(
        complexes.reduced_homology_vanishes_from(
            complexes.induced_subcomplex(X, graphs._bits(bits)), 1
        )
        for bits in range(1, (1 << m) - 1)
    )


def _check_euler(obj, ring: CoefficientRing, max_vertices: int) -> dict:
    X = _as_complex(obj)
    G = _as_graph(X)
    m = X.vertex_count
    detail: dict = {}
    reason = None
    if not X.is_connected:
        reason = "complex is not connected"
    elif X.is_standard_simplex():
        reason = "complex is a standard simplex"
    else:
        poly = graphs.connected_domination_polynomial(G, max_vertices=max_vertices)
        lhs = (-1) ** (m - 1) * poly(-1)
        rhs = complexes.euler_characteristic(X) - 1
        detail["signed_domination_at_minus_one"] = lhs
        detail["euler_characteristic_minus_one"] = rhs
        if not _cover_is_one_leray(X):
            reason = "anti-star cover is not 1-Leray"
    if reason is not None:
        detail["reason"] = reason
        return {"status": "SKIP", "detail": detail}
    return {"status": "PASS" if lhs == rhs else "FAIL", "detail": detail}


def _check_cone(obj, ring: CoefficientRing, max_vertices: int) -> dict:
    X = _as_complex(obj)
    if X.is_empty:
        return {"status": "SKIP", "detail": {"reason": "complex is empty"}}
    if X.is_standard_simplex():
        return {"status": "SKIP", "detail": {"reason": "complex is a standard simplex"}}
    check_vertex_guard(X.vertex_count + 1, max_vertices)
    base = uber.zero_degree_uber_table(X, ring, max_vertices=max_vertices)
    # the cone's side on full cells: the reduction would turn cone(X) into X itself
    coned = mvss._anti_star_table(complexes.cone(X), ring)
    ok = base == coned
    detail = {"base": _dims_doc(base), "cone": _dims_doc(coned)}
    return {"status": "PASS" if ok else "FAIL", "detail": detail}


def _check_suspension(obj, ring: CoefficientRing, max_vertices: int) -> dict:
    X = _as_complex(obj)
    if not X.is_connected:
        return {"status": "SKIP", "detail": {"reason": "complex is not connected"}}
    check_vertex_guard(X.vertex_count + 2, max_vertices)
    base = uber.zero_degree_uber_table(X, ring, max_vertices=max_vertices)
    susp = uber.zero_degree_uber_table(
        complexes.suspension(X), ring, max_vertices=max_vertices
    )
    G = _as_graph(X)
    complete = G.edge_count == G.vertex_count * (G.vertex_count - 1) // 2
    # Predicted table of the suspension away from homological degree 1:
    # the degree-0 row survives with one extra class at level 2 (unless the
    # one-skeleton is complete, which kills the whole row), and each class
    # in degree i >= 1 reappears in degree i + 1 with level shifted by 2.
    expected: dict[tuple[int, int], int] = {}
    if not complete:
        for (j, i), d in base.items():
            if i == 0 and d:
                expected[(j, 0)] = expected.get((j, 0), 0) + d
        expected[(2, 0)] = expected.get((2, 0), 0) + 1
    for (j, i), d in base.items():
        if d and i >= 2:
            expected[(j, i)] = expected.get((j, i), 0) + d
        if d and i >= 1:
            expected[(j + 2, i + 1)] = expected.get((j + 2, i + 1), 0) + d
    checked = {key: d for key, d in expected.items() if key[1] != 1 and d}
    got = {key: d for key, d in susp.items() if key[1] != 1 and d}
    ok = checked == got
    detail = {
        "expected_outside_degree_1": _dims_doc(checked),
        "suspension_outside_degree_1": _dims_doc(got),
        "one_skeleton_complete": complete,
    }
    return {"status": "PASS" if ok else "FAIL", "detail": detail}


def _check_trianglefree(obj, ring: CoefficientRing, max_vertices: int) -> dict:
    G = _as_graph(obj)
    if not G.is_connected:
        return {"status": "SKIP", "detail": {"reason": "graph is not connected"}}
    if G.vertex_count < 3:
        return {"status": "SKIP", "detail": {"reason": "graph has fewer than three vertices"}}
    if not graphs.is_triangle_free(G):
        return {"status": "SKIP", "detail": {"reason": "graph has a triangle"}}
    m = G.vertex_count
    bold = uber.bold_homology(G, ring=ring, max_vertices=max_vertices)
    bold_dims = {j: p.free_rank for j, p in bold.items() if p.free_rank}
    table = uber.zero_degree_uber_table(
        _as_complex(G), ring, max_vertices=max_vertices
    )
    shifted = {j - 2: d for (j, i), d in table.items() if i == 1 and d}
    ok = all(bold_dims.get(j, 0) == shifted.get(j, 0) for j in range(0, m - 1))
    ok = ok and bold_dims.get(m, 0) == 0 and bold_dims.get(m - 1, 0) == 0
    detail = {
        "bold": _dims_doc({(j,): d for j, d in bold_dims.items()}),
        "shifted_weight_one": _dims_doc({(j,): d for j, d in shifted.items()}),
    }
    return {"status": "PASS" if ok else "FAIL", "detail": detail}


def _check_categorification(obj, ring: CoefficientRing, max_vertices: int) -> dict:
    G = _as_graph(obj)
    if not G.is_connected:
        return {"status": "SKIP", "detail": {"reason": "graph is not connected"}}
    chi = uber.euler_characteristic_bold(G, max_vertices=max_vertices)
    value = graphs.connected_domination_polynomial(G, max_vertices=max_vertices)(-1)
    detail = {"euler_characteristic": chi, "domination_at_minus_one": value}
    return {"status": "PASS" if chi == value else "FAIL", "detail": detail}


_CHECKS = {
    "identification": _check_identification,
    "abutment": _check_abutment,
    "euler": _check_euler,
    "cone": _check_cone,
    "suspension": _check_suspension,
    "trianglefree": _check_trianglefree,
    "categorification": _check_categorification,
}


def _capped_square_complex() -> SimplicialComplex:
    return complexes.cone(complexes.build_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


def _corpus(theorem: str) -> list[tuple[str, SimplicialComplex | Graph]]:
    """Built-in named inputs per identity, all small enough for seconds."""
    triangle = complexes.boundary_of_simplex(3)
    tetra = complexes.boundary_of_simplex(4)
    capped_square = _capped_square_complex()
    glued = complexes.suspension(complexes.standard_simplex(2))
    if theorem in ("identification", "abutment"):
        return [
            ("triangle-boundary", triangle),
            ("tetrahedron-boundary", tetra),
            ("cone-of-square", capped_square),
            ("glued-triangles", glued),
            ("path-4", graphs.path_graph(4)),
            ("cycle-5", graphs.cycle_graph(5)),
            ("random-6-seed-1", complexes.random_connected_complex(6, seed=1)),
            ("random-7-seed-2", complexes.random_connected_complex(7, seed=2)),
        ]
    if theorem == "euler":
        items: list[tuple[str, SimplicialComplex | Graph]] = [
            (
                f"flag-of-chordal-seed-{seed}",
                complexes.flag_complex(graphs.random_chordal_graph(7, seed=seed)),
            )
            for seed in (1, 2, 3, 4, 5)
        ]
        items.append(("cone-of-square", capped_square))
        return items
    if theorem == "cone":
        return [
            ("triangle-boundary", triangle),
            ("cycle-4", graphs.cycle_graph(4)),
            ("cycle-5", graphs.cycle_graph(5)),
            ("path-4", graphs.path_graph(4)),
        ]
    if theorem == "suspension":
        return [
            ("triangle-boundary", triangle),
            ("full-triangle", complexes.standard_simplex(3)),
            ("path-3", graphs.path_graph(3)),
        ]
    if theorem == "trianglefree":
        return [
            ("cycle-4", graphs.cycle_graph(4)),
            ("cycle-5", graphs.cycle_graph(5)),
            ("cycle-6", graphs.cycle_graph(6)),
            ("grid-3x2", graphs.grid_graph(3, 2)),
        ]
    if theorem == "categorification":
        return [
            ("complete-3", graphs.complete_graph(3)),
            ("complete-4", graphs.complete_graph(4)),
            ("cycle-5", graphs.cycle_graph(5)),
            ("wheel-4", graphs.one_skeleton(capped_square)),
            ("grid-3x2", graphs.grid_graph(3, 2)),
            ("random-6-seed-3", graphs.random_connected_graph(6, 0.5, seed=3)),
        ]
    raise InputError(f"unknown theorem {theorem!r}")


def cmd_verify(args) -> int:
    theorem = args.theorem
    ring = args.coeff
    if theorem not in ("euler", "categorification") and ring.kind == "integers":
        raise InputError(f"--theorem {theorem} needs field coefficients (q, z2 or p:<prime>)")
    single = args.input is not None
    if single:
        items = [("input", _load_object(_read_text(args.input)))]
    else:
        items = _corpus(theorem)
    results = []
    for name, obj in items:
        # a single input over the guard is refused; a corpus input over it,
        # or outside a statement's hypotheses, is skipped
        try:
            result = _CHECKS[theorem](obj, ring, args.max_vertices)
        except SizeGuardExceeded as exc:
            if single:
                raise
            result = {"status": "SKIP", "detail": {"reason": f"size guard: {exc}"}}
        except (NotConnectedError, StandardSimplexError) as exc:
            result = {"status": "SKIP", "detail": {"reason": str(exc)}}
        results.append({"name": name, **result})
    ok = all(r["status"] != "FAIL" for r in results)
    doc = {"theorem": theorem, "coefficients": ring.label(), "results": results, "ok": ok}
    lines = []
    for r in results:
        reason = r["detail"].get("reason")
        suffix = f" ({reason})" if reason else ""
        lines.append(f"{r['status']:<4}  {r['name']}{suffix}")
        if theorem == "euler" and "signed_domination_at_minus_one" in r["detail"]:
            lines.append(
                f"      signed domination value {r['detail']['signed_domination_at_minus_one']}"
                f" vs reduced euler characteristic {r['detail']['euler_characteristic_minus_one']}"
            )
    lines.append("all checks passed" if ok else "FAILURES present")
    _emit(doc, args.format, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_generate(args) -> int:
    family = args.family
    params = args.params
    seed = args.seed

    def _need(n: int, usage: str) -> list[int]:
        if len(params) != n:
            raise InputError(f"family {family!r} expects {usage}")
        try:
            values = [int(x) for x in params]
        except ValueError as exc:
            raise InputError(f"family {family!r} expects integer parameters") from exc
        if any(x < 0 for x in values):
            raise InputError(f"family {family!r} expects nonnegative parameters")
        return values

    # every family checks its vertex-plus-simplex count before it is built
    if family == "path":
        (m,) = _need(1, "one parameter: vertex count")
        check_simplex_guard(2 * m)
        out = graphs.graph_to_json(graphs.path_graph(m))
    elif family == "cycle":
        (m,) = _need(1, "one parameter: vertex count")
        check_simplex_guard(2 * m)
        out = graphs.graph_to_json(graphs.cycle_graph(m))
    elif family == "complete":
        (m,) = _need(1, "one parameter: vertex count")
        check_simplex_guard(m + m * (m - 1) // 2)
        out = graphs.graph_to_json(graphs.complete_graph(m))
    elif family == "grid":
        rows, cols = _need(2, "two parameters: rows cols")
        check_simplex_guard(3 * rows * cols)
        out = graphs.graph_to_json(graphs.grid_graph(rows, cols))
    elif family == "simplex_boundary":
        (d,) = _need(1, "one parameter: simplex dimension")
        if d < 1:
            raise InputError("simplex dimension must be at least 1")
        # capping the exponent keeps the number printable and the verdict unchanged
        check_simplex_guard(d + 2 ** min(d + 1, 64))
        out = complexes.complex_to_json(complexes.boundary_of_simplex(d + 1))
    elif family in ("cone_of", "suspension_of"):
        if len(params) != 1:
            raise InputError(f"family {family!r} expects one parameter: an input path")
        X = _as_complex(_load_object(_read_text(params[0])))
        apexes, build = (1, complexes.cone) if family == "cone_of" else (2, complexes.suspension)
        # each apex adds itself, as a vertex and a simplex, and its join with every simplex
        check_simplex_guard(X.vertex_count + 2 * apexes + (apexes + 1) * sum(X.f_vector()))
        out = complexes.complex_to_json(build(X))
    elif family == "random":
        if len(params) != 2:
            raise InputError("family 'random' expects two parameters: vertex-count edge-probability")
        try:
            m, p = int(params[0]), float(params[1])
        except ValueError as exc:
            raise InputError("family 'random' expects an integer and a float") from exc
        if m < 0:
            raise InputError("family 'random' expects a nonnegative vertex count")
        if not 0 <= p <= 1:  # NaN too
            raise InputError(f"family 'random' expects an edge probability in [0, 1], got {params[1]}")
        # a draw costs one coin per vertex pair, and the retries together
        # stay inside the same guard
        draw = m + m * (m - 1) // 2
        check_simplex_guard(draw)
        attempts = max(1, min(2000, errors.MAX_SIMPLICES // max(draw, 1)))
        try:
            G = graphs.random_connected_graph(m, p, seed=seed, max_attempts=attempts)
        except RuntimeError as exc:
            raise InputError(str(exc)) from exc
        if args.flag:
            # a clique is its least vertex and a set of that vertex's larger neighbours
            forward = [(a >> (v + 1)).bit_count() for v, a in enumerate(G.adjacency)]
            check_simplex_guard(m + sum(2 ** min(k, 64) for k in forward))
            out = complexes.complex_to_json(complexes.flag_complex(G))
        else:
            out = graphs.graph_to_json(G)
    else:
        raise InputError(f"unknown family {family!r}")
    print(out)
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing


def _max_vertices_default() -> int:
    raw = os.environ.get("UBERHOM_MAX_VERTICES")
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"UBERHOM_MAX_VERTICES is not an integer: {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uberhom",
        description="Spectral sequences of vertex-deletion covers, cube-graded "
        "homology of colourings and connected domination polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, coeff_default: str = "q") -> None:
        p.add_argument(
            "--coeff",
            type=_ring_label,
            default=_ring_label(coeff_default),
            metavar="{z2|q|z|p:<prime>}",
            help=f"coefficient ring (default {coeff_default})",
        )
        p.add_argument(
            "--format", choices=("json", "table"), default="json", help="output format"
        )

    def guarded(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-vertices",
            type=int,
            default=None,
            help="size guard for exponential-size computations "
            "(default 16, or env UBERHOM_MAX_VERTICES)",
        )

    p = sub.add_parser("homology", help="Betti numbers and torsion of a complex")
    p.add_argument("input", help="complex or graph JSON path, or - for stdin")
    p.add_argument("--reduced", action="store_true", help="reduced homology")
    common(p, coeff_default="z")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("uber", help="full triply-graded table (always over F2)")
    p.add_argument("input")
    p.add_argument("--format", choices=("json", "table"), default="json")
    guarded(p)
    p.set_defaults(func=cmd_uber)

    p = sub.add_parser("bold", help="component-level poset homology and its euler characteristic")
    p.add_argument("input")
    common(p, coeff_default="z")
    guarded(p)
    p.set_defaults(func=cmd_bold)

    p = sub.add_parser("domination", help="connected domination polynomial")
    p.add_argument("input")
    p.add_argument(
        "--prune",
        action="store_true",
        help=(
            "use the branch-and-bound counter: it decides high-degree vertices first, cuts branches that can "
            "no longer dominate or connect, and counts all supersets of one dominating component at once"
        ),
    )
    p.add_argument("--format", choices=("json", "table"), default="json")
    guarded(p)
    p.set_defaults(func=cmd_domination)

    p = sub.add_parser("mvss", help="pages of the covering spectral sequence")
    p.add_argument("input")
    p.add_argument(
        "--unaugmented",
        action="store_true",
        help="drop the extra column converging to zero; the limit is then the homology of the input",
    )
    common(p)
    guarded(p)
    p.set_defaults(func=cmd_mvss)

    p = sub.add_parser("verify", help="check one of the supported identities")
    p.add_argument("input", nargs="?", default=None, help="optional input; default is the built-in corpus")
    p.add_argument(
        "--theorem",
        required=True,
        choices=sorted(_CHECKS),
        help="which identity to check",
    )
    common(p)
    guarded(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit JSON for standard families")
    p.add_argument(
        "family",
        choices=(
            "path",
            "cycle",
            "complete",
            "grid",
            "simplex_boundary",
            "cone_of",
            "suspension_of",
            "random",
        ),
    )
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0, help="seed for the random family")
    p.add_argument("--flag", action="store_true", help="emit the clique complex of the random graph")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_vertices", None) is None and hasattr(args, "max_vertices"):
            args.max_vertices = _max_vertices_default()
        return args.func(args)
    except SizeGuardExceeded as exc:
        print(f"error: size guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (InputError, NotConnectedError, StandardSimplexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
