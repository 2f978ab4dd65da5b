"""Outside-in tracing: spans around the public functions of each layer.

The wrappers are installed from the benchmark's own files; nothing under
``src/`` knows about them.  A function imported by name into other
modules (``from .algebra import column_rank``) is patched in every module
that binds it, and a method is patched once on its class.  The span
names below are the ones an in-program trace layer should reuse.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

LAYERS = ("algebra", "complexes", "graphs", "uber", "mvss", "cli")

# (module, attribute path) of every wrapped callable, by layer.
TARGETS = (
    ("algebra", "Span.insert"),
    ("algebra", "Span.solve"),
    ("algebra", "column_rank"),
    ("algebra", "nullspace"),
    ("algebra", "smith_normal_form"),
    ("algebra", "Matrix.__mul__"),
    ("algebra", "simplicial_chain_complex"),
    ("algebra", "ChainComplex.__init__"),
    ("algebra", "HomologyBasis.__init__"),
    ("algebra", "HomologyBasis.reduce"),
    ("complexes", "induced_subcomplex"),
    ("complexes", "anti_star_cover"),
    ("complexes", "star_cover"),
    ("complexes", "nerve"),
    ("graphs", "connected_domination_polynomial"),
    ("uber", "uberhomology"),
    ("uber", "HorizontalHomology.homology"),
    ("uber", "UberComplex.differential"),
    ("uber", "zero_degree_uber_table"),
    ("uber", "bold_homology"),
    ("uber", "euler_characteristic_bold"),
    ("mvss", "DoubleComplex.__init__"),
    ("mvss", "DoubleComplex.dv_sparse"),
    ("mvss", "DoubleComplex.dh_sparse"),
    ("mvss", "SpectralSequence.page"),
    ("mvss", "verify_identification"),
    ("cli", "main"),
)

CDP = "graphs.connected_domination_polynomial"


def span_names() -> list[str]:
    """Every span name, in layer order; the domination counter has two."""
    names = []
    for module, path in TARGETS:
        name = f"{module}.{path}"
        names += [f"{CDP}.plain", f"{CDP}.prune"] if name == CDP else [name]
    return names


COUNTERS = {
    # name: unit
    "algebra.Span.insert.new_ratio": "ratio",
    "algebra.smith_normal_form.entries": "count",
    "algebra.smith_normal_form.unit_ratio": "ratio",
    "algebra.Matrix.__mul__.madds": "count",
    "mvss.DoubleComplex.cells": "count",
    f"{CDP}.hit_ratio": "ratio",
}


class Tracer:
    """Records spans (name, start, end, parent) and exact counters in memory.

    Use as a context manager: the wrappers exist only inside the ``with``
    block, and the original callables are restored on exit.
    """

    def __init__(self):
        self.records: list[list] = []
        self._stack = [-1]
        self._tallies = dict.fromkeys(
            ("inserts", "new", "snf_entries", "snf_units", "snf_nonzero", "madds", "hits", "subsets"), 0
        )
        self._double_complexes: list = []
        self._undo: list = []

    # -- installation -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        pkg = {name: sys.modules[f"uberhom.{name}"] for name in LAYERS}
        for module, path in TARGETS:
            name = f"{module}.{path}"
            owner = pkg[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, self._namer(name), self._after(name))
            if outer:  # a method: the class is shared by every importer
                self._patch(owner, attr, wrapper)
            else:  # a function: patch each module binding of it
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("uberhom") and mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, namer, after):
        records, stack, clock = self.records, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args, kwargs), 0.0, 0.0, stack[-1]]
            stack.append(len(records))
            records.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    @staticmethod
    def _namer(name: str):
        if name != CDP:
            return lambda args, kwargs: name

        def cdp_name(args, kwargs):
            prune = kwargs.get("prune", args[2] if len(args) > 2 else False)
            return f"{CDP}.prune" if prune else f"{CDP}.plain"

        return cdp_name

    def _after(self, name: str):
        """Counter update read from a call's arguments and result, or None."""
        t = self._tallies

        def insert(args, result):
            t["inserts"] += 1
            t["new"] += bool(result[0])

        def snf(args, result):
            A, D = args[0], result[0]
            t["snf_entries"] += A.rows * A.cols
            for k in range(min(D.rows, D.cols)):
                if D[k, k]:
                    t["snf_nonzero"] += 1
                    t["snf_units"] += abs(D[k, k]) == 1

        def mul(args, result):
            t["madds"] += args[0].rows * args[0].cols * args[1].cols

        def cdp(args, result):
            t["hits"] += result(1)
            t["subsets"] += (1 << args[0].vertex_count) - 1

        return {
            "algebra.Span.insert": insert,
            "algebra.smith_normal_form": snf,
            "algebra.Matrix.__mul__": mul,
            "mvss.DoubleComplex.__init__": lambda args, result: self._double_complexes.append(args[0]),
            CDP: cdp,
        }.get(name)

    # -- results --------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        t = self._tallies
        cells = sum(dc.cell_dim(p, q) for dc in self._double_complexes for p, q in dc.cells())
        return {
            "algebra.Span.insert.new_ratio": _ratio(t["new"], t["inserts"]),
            "algebra.smith_normal_form.entries": t["snf_entries"],
            "algebra.smith_normal_form.unit_ratio": _ratio(t["snf_units"], t["snf_nonzero"]),
            "algebra.Matrix.__mul__.madds": t["madds"],
            "mvss.DoubleComplex.cells": cells,
            f"{CDP}.hit_ratio": _ratio(t["hits"], t["subsets"]),
        }

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost calls) and self_s.

        Self time is a span's duration minus the time its child spans cover.
        """
        records = self.records
        child = [0.0] * len(records)
        for name, start, end, parent in records:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in span_names()}
        for i, (name, start, end, parent) in enumerate(records):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            while parent >= 0 and records[parent][0] != name:
                parent = records[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        return out

    def write(self, path: str) -> None:
        """Write every span, gzipped, as a tab-separated line: name, start, end, parent."""
        origin = self.records[0][1] if self.records else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.records:
                fh.write(f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
