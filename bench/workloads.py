"""The benchmark's workloads: seeded inputs, one timed pass, untimed checks.

Every workload keeps a fixed set of base inputs and, for each pass, draws
a fresh vertex relabelling of each one from the run's seed.  A pass thus
repeats the same amount of work on inputs no earlier pass in the process
has seen, so a cross-call cache cannot gain what a one-shot caller never
gets, while the pass time stays comparable from pass to pass and seed to
seed.  Base inputs were sized so that one pass takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import oracles

# The 6-vertex triangulation of the real projective plane (H_1 = Z/2).
RP2_FACETS = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


class OpFailed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OpFailed) and other.text == self.text

    def __repr__(self) -> str:
        return f"OpFailed({self.text!r})"


class Workload:
    """One named workload; ``pkg`` holds the imported ``uberhom`` modules."""

    name = ""
    why = ""

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg = pkg
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self._seen: set = set()

    def inputs(self) -> dict:
        """The next pass's inputs; no two calls on one object repeat an input."""
        raise NotImplementedError

    def ops(self, inp: dict) -> list:
        """The pass as (label, thunk) pairs, run in order."""
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> list[str]:
        """Labels of operations whose output is wrong (by an independent path)."""
        raise NotImplementedError

    # -- helpers shared by the workloads ----------------------------------------

    def _fresh(self, key: str, build):
        """Call ``build(rng)`` until it returns an input not seen before.

        ``build`` returns the input and a hashable fingerprint of it.
        """
        while True:
            obj, fingerprint = build(self.rng)
            if (key, fingerprint) not in self._seen:
                self._seen.add((key, fingerprint))
                return obj

    def _relabelled_complex(self, key: str, X):
        def build(rng):
            perm = list(range(X.vertex_count))
            rng.shuffle(perm)
            facets = sorted(tuple(sorted(perm[v] for v in f)) for f in X.facets())
            return self.pkg.complexes.build_complex(X.vertex_count, facets), tuple(facets)

        return self._fresh(key, build)

    def _relabelled_graph(self, key: str, G):
        def build(rng):
            perm = list(range(G.vertex_count))
            rng.shuffle(perm)
            edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in G.edges)
            return self.pkg.graphs.Graph(G.vertex_count, edges), tuple(edges)

        return self._fresh(key, build)


def _pages(pkg, dc) -> dict:
    """Dimensions of every page, asking the sequence for one page at a time."""
    ss = pkg.mvss.SpectralSequence(dc)
    return {r: dict(ss.page(r).dims) for r in range(1, ss.width + 2)}


def _limit_totals(pages: dict) -> dict[int, int]:
    totals: dict[int, int] = {}
    for (p, q), d in pages[max(pages)].items():
        if d:
            totals[p + q] = totals.get(p + q, 0) + d
    return totals


def _nonzero(table: dict) -> dict:
    return {k: v for k, v in table.items() if v}


def _alternating_by_degree(table: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for (j, i), d in table.items():
        out[i] = out.get(i, 0) + (-1) ** j * d
    return {i: v for i, v in out.items() if v}


class RationalSseq(Workload):
    name = "rational-sseq"
    why = (
        "anti-star and closed-star spectral sequences over QQ: dense Fraction "
        "vectors in the Span kernel dominate"
    )
    SSEQ_BASES = (1, 2)  # random_connected_complex(6, s): both sequences
    STAR_BASE = 3  # closed-star cover; its nerve is the full 5-simplex
    IDENTIFICATION_BASE = 4

    def inputs(self) -> dict:
        rcc = self.pkg.complexes.random_connected_complex
        inp = {f"sseq-{s}": self._relabelled_complex(f"sseq-{s}", rcc(6, s)) for s in self.SSEQ_BASES}
        inp["star"] = self._relabelled_complex("star", rcc(6, self.STAR_BASE))
        inp["identification"] = self._relabelled_complex(
            "identification", rcc(6, self.IDENTIFICATION_BASE)
        )
        return inp

    def ops(self, inp: dict) -> list:
        pkg = self.pkg
        QQ = pkg.algebra.QQ
        out = []
        for s in self.SSEQ_BASES:
            X = inp[f"sseq-{s}"]
            for augmented in (True, False):
                out.append((
                    f"sseq-{s}-{'augmented' if augmented else 'plain'}",
                    lambda X=X, a=augmented: _pages(pkg, pkg.mvss.double_complex(X, ring=QQ, augmented=a)),
                ))
        X = inp["star"]
        out.append((
            "star-plain",
            lambda: _pages(pkg, pkg.mvss.double_complex(
                X, cover=pkg.complexes.star_cover(X), ring=QQ, augmented=False)),
        ))
        Y = inp["identification"]
        out.append(("identification", lambda: _report(pkg.mvss.verify_identification(Y, QQ))))
        return out

    def check(self, inp: dict, out: dict) -> list[str]:
        bad = []
        for label, pages in out.items():
            if label == "identification":
                ok = _identification_ok(pages, inp["identification"], None)
            elif label.endswith("-augmented"):
                ok = not _nonzero(pages[max(pages)])
            else:
                X = inp["star"] if label == "star-plain" else inp[label.rsplit("-", 1)[0]]
                ok = _limit_totals(pages) == oracles.complex_betti(X, None)
            if not ok:
                bad.append(label)
        return bad


def _report(report) -> dict:
    return {"ok": report.ok, "entries": list(report.entries)}


def _identification_ok(report: dict, X, p: int | None) -> bool:
    """The report's own verdict, and its cube side against the oracle."""
    cube = {(j, i): a for j, i, a, _ in report["entries"]}
    return report["ok"] and _alternating_by_degree(cube) == oracles.cube_euler_by_degree(X, p)


class FiniteFieldCube(Workload):
    name = "finite-field-cube"
    why = (
        "colouring cube on 8 vertices over GF(2) and GF(3): bitset and small-int "
        "kernels, 256 induced subcomplexes per degree"
    )
    GF2_BASE = 1  # random_connected_complex(8, s): uberhomology and the GF(2) slice
    GF3_BASE = 2  # random_connected_complex(8, s): GF(3) table and sequence

    def inputs(self) -> dict:
        rcc = self.pkg.complexes.random_connected_complex
        return {
            "gf2": self._relabelled_complex("gf2", rcc(8, self.GF2_BASE)),
            "gf3": self._relabelled_complex("gf3", rcc(8, self.GF3_BASE)),
        }

    def ops(self, inp: dict) -> list:
        pkg = self.pkg
        GF2, GF3 = pkg.algebra.GF2, pkg.algebra.GF(3)
        X, Y = inp["gf2"], inp["gf3"]
        return [
            ("uberhomology", lambda: pkg.uber.uberhomology(X)),
            ("table-gf2", lambda: pkg.uber.zero_degree_uber_table(X, GF2)),
            ("identification-gf2", lambda: _report(pkg.mvss.verify_identification(X, GF2))),
            ("table-gf3", lambda: pkg.uber.zero_degree_uber_table(Y, GF3)),
            ("sseq-gf3-plain", lambda: _pages(pkg, pkg.mvss.double_complex(Y, ring=GF3, augmented=False))),
        ]

    def check(self, inp: dict, out: dict) -> list[str]:
        X, Y = inp["gf2"], inp["gf3"]
        ok = {}
        if "uberhomology" in out and "table-gf2" in out:
            slice0 = {(j, i): d for (j, k, i), d in out["uberhomology"].items() if k == 0 and d}
            ok["uberhomology"] = slice0 == _nonzero(out["table-gf2"])
        if "table-gf2" in out:
            ok["table-gf2"] = _alternating_by_degree(out["table-gf2"]) == oracles.cube_euler_by_degree(X, 2)
        if "identification-gf2" in out:
            ok["identification-gf2"] = _identification_ok(out["identification-gf2"], X, 2)
        if "table-gf3" in out:
            ok["table-gf3"] = _alternating_by_degree(out["table-gf3"]) == oracles.cube_euler_by_degree(Y, 3)
        if "sseq-gf3-plain" in out:
            ok["sseq-gf3-plain"] = _limit_totals(out["sseq-gf3-plain"]) == oracles.complex_betti(Y, 3)
        return [label for label, good in ok.items() if not good]


class IntegralCli(Workload):
    name = "integral-cli"
    why = (
        "in-process CLI: bold homology and homology over ZZ (Smith normal form), "
        "connected domination with and without pruning"
    )
    BOLD_GRAPH = (8, 0.4, 1)  # random_connected_graph(m, p, s)
    DOMINATION_GRAPH = (17, 0.3, 1)
    HOMOLOGY_COMPLEX = (9, 1)  # random_connected_complex(m, s)

    def inputs(self) -> dict:
        pkg = self.pkg
        rcg = pkg.graphs.random_connected_graph
        graphs = {
            "bold-random": self._relabelled_graph("bold-random", rcg(*self.BOLD_GRAPH)),
            "bold-grid": self._relabelled_graph("bold-grid", pkg.graphs.grid_graph(4, 2)),
            "domination": self._relabelled_graph("domination", rcg(*self.DOMINATION_GRAPH)),
        }
        complexes_ = {
            "homology-rp2": self._fresh("homology-rp2", self._subdivided_rp2),
            "homology-random": self._relabelled_complex(
                "homology-random", pkg.complexes.random_connected_complex(*self.HOMOLOGY_COMPLEX)),
        }
        inp = {}
        for key, G in graphs.items():
            inp[key] = (G, self._write(key, pkg.graphs.graph_to_json(G)))
        for key, X in complexes_.items():
            inp[key] = (X, self._write(key, pkg.complexes.complex_to_json(X)))
        return inp

    def _subdivided_rp2(self, rng):
        """RP^2 with one triangle coned off to a new vertex, relabelled.

        The 6-vertex triangulation alone has only 12 distinct labellings,
        fewer than a run has passes.
        """
        facets = list(RP2_FACETS)
        a, b, c = facets.pop(rng.randrange(len(facets)))
        facets += [(a, b, 6), (a, c, 6), (b, c, 6)]
        perm = list(range(7))
        rng.shuffle(perm)
        facets = sorted(tuple(sorted(perm[v] for v in f)) for f in facets)
        return self.pkg.complexes.build_complex(7, facets), tuple(facets)

    def _write(self, key: str, text: str) -> str:
        path = os.path.join(self.workdir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def ops(self, inp: dict) -> list:
        cli = self.pkg.cli
        path = {key: value[1] for key, value in inp.items()}
        argvs = [
            ("bold-random", ["bold", path["bold-random"]]),
            ("bold-grid", ["bold", path["bold-grid"]]),
            ("domination", ["domination", "--max-vertices", "17", path["domination"]]),
            ("domination-prune", ["domination", "--prune", "--max-vertices", "17", path["domination"]]),
            ("homology-rp2", ["homology", path["homology-rp2"]]),
            ("homology-random", ["homology", path["homology-random"]]),
        ]
        return [(label, lambda argv=argv: _run_cli(cli, argv)) for label, argv in argvs]

    def check(self, inp: dict, out: dict) -> list[str]:
        docs = {}
        bad = []
        for label, (code, text) in out.items():
            if code == 0:
                docs[label] = json.loads(text)
            else:
                bad.append(label)
        for label in ("bold-random", "bold-grid"):
            if label in docs:
                G = inp[label][0]
                doc = docs[label]
                chi = doc["euler_characteristic"]
                ranks = sum((-1) ** g["degree"] * g["rank"] for g in doc["groups"])
                if not (chi == ranks == oracles.domination_at_minus_one(G.vertex_count, G.edges)):
                    bad.append(label)
        if "domination" in docs and "domination-prune" in docs:
            if docs["domination"]["coefficients"] != docs["domination-prune"]["coefficients"]:
                bad.append("domination-prune")
        if "homology-rp2" in docs:
            groups = {g["degree"]: (g["rank"], g["torsion"]) for g in docs["homology-rp2"]["groups"]}
            if groups.get(1) != (0, [2]):
                bad.append("homology-rp2")
        for label in ("homology-rp2", "homology-random"):
            if label in docs and label not in bad:
                free = {g["degree"]: g["rank"] for g in docs[label]["groups"] if g["rank"]}
                if free != oracles.complex_betti(inp[label][0], oracles.LARGE_PRIME):
                    bad.append(label)
        return bad


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``uberhom`` CLI in-process: exit code, then captured stdout followed by stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue() + stderr.getvalue()


WORKLOADS = {w.name: w for w in (RationalSseq, FiniteFieldCube, IntegralCli)}


def run_pass(workload: Workload, inp: dict, probe=None) -> tuple[dict, float, int]:
    """Run one pass: outputs by label, seconds spent in the operations, and
    the number of operations.

    ``probe``, if given, is called before each operation, outside the
    timed part.  A raising operation yields an :class:`OpFailed` output and
    the pass goes on with the next operation.
    """
    out = {}
    seconds = 0.0
    ops = workload.ops(inp)
    for label, thunk in ops:
        if probe is not None:
            probe()
        start = time.perf_counter()
        try:
            out[label] = thunk()
        except Exception as exc:  # counted as a failed operation by the caller
            out[label] = OpFailed(exc)
        seconds += time.perf_counter() - start
    return out, seconds, len(ops)


def failures(workload: Workload, inp: dict, out: dict) -> list[str]:
    """Labels of the pass's failed operations: raised, or wrong by the gate."""
    raised = [label for label, value in out.items() if isinstance(value, OpFailed)]
    completed = {label: value for label, value in out.items() if not isinstance(value, OpFailed)}
    return raised + workload.check(inp, completed)
