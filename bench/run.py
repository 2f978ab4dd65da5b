"""Benchmark of the uberhom package: one workload per coefficient ring.

    python3 bench/run.py --workload rational-sseq --seed 1 --seconds 35 --trace 0

runs one workload in this process, single-threaded, from the sources in
``src/``.  With ``--trace 0`` it reports the end-to-end metrics: set-up
time, median pass time, peak resident memory and the failed share of
operations.  Set-up and pass times are given at a fixed host speed (see
REFERENCE_S); the raw times are printed beside them.  With ``--trace 1``
it reports per-layer spans and counters from traced passes instead.
Every operation's output is checked, untimed, against an independent
computation.  The last line of standard output is one JSON object; a
fuller report goes to ``bench/out/``.  Without ``--workload`` every
workload runs in turn, each in a child process of its own.
BENCHMARK.json at the repository root lists the metrics, and
bench/README.md the workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TRACED_PASSES = 3
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")

# On a small shared host the speed of the same code drifts by a third or
# more over minutes, in periods longer than one run.  So each run also
# times a fixed reference computation, REFERENCE_REPEATS times before every
# operation (untimed), and scales each pass time by REFERENCE_S over the
# mean reference time during that pass: times are reported at the host
# speed where the reference takes REFERENCE_S, about its time on an idle
# 2-core 2.1 GHz virtual machine.  On such a machine this cut the spread of
# the pass time over ten seeds from about 25 % to 3-4 %.
REFERENCE_S = 0.007
REFERENCE_REPEATS = 4


def _reference_simplices() -> list[list[tuple[int, ...]]]:
    rng = random.Random(12345)
    faces = set()
    for triangle in rng.sample(list(itertools.combinations(range(9), 3)), 22):
        for k in (1, 2, 3):
            faces.update(itertools.combinations(triangle, k))
    return [sorted(s for s in faces if len(s) == d) for d in (1, 2, 3)]


REFERENCE_SIMPLICES = _reference_simplices()


def reference_seconds() -> float:
    """Time the reference: Betti numbers over QQ and GF(3) of a fixed 2-complex.

    It is the same kind of work as the workloads (Fraction and small-int
    elimination, tuples, dicts) in the benchmark's own code, so its time
    follows the host's speed and no change to the package.  The collector
    is off while it runs, so the size of the caller's heap does not enter.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        oracles.betti(REFERENCE_SIMPLICES, None)
        oracles.betti(REFERENCE_SIMPLICES, 3)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def import_package() -> types.SimpleNamespace:
    """Import ``uberhom`` afresh, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "uberhom" or n.startswith("uberhom.")]:
        del sys.modules[name]
    importlib.import_module("uberhom")
    return types.SimpleNamespace(**{m: importlib.import_module(f"uberhom.{m}") for m in spans.LAYERS})


def setup(cls, seed: int, workdir: str):
    """Import the package, build the workload and its first inputs (CLI files too)."""
    start = time.perf_counter()
    workload = cls(import_package(), seed, workdir)
    inp = workload.inputs()
    return time.perf_counter() - start, workload, inp


class Tally:
    """Attempted and failed operations, with the labels that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, workload, inp, out, attempted: int) -> None:
        self.attempted += attempted
        self.failed += workloads.failures(workload, inp, out)


def measure(workload, inp, seconds: float, tally: Tally, times: list[float], speeds: list[float]) -> None:
    """Untraced passes while the next one is expected to end within ``seconds``.

    The reference runs, untimed, REFERENCE_REPEATS times before each
    operation and after the last; ``speeds`` gets REFERENCE_S over the mean
    reference time of each pass.
    """
    start = time.perf_counter()
    while True:
        refs: list[float] = []

        def probe():
            refs.extend(reference_seconds() for _ in range(REFERENCE_REPEATS))

        out, dt, attempted = workloads.run_pass(workload, inp, probe=probe)
        probe()
        times.append(dt)
        speeds.append(REFERENCE_S / statistics.fmean(refs))
        tally.add(workload, inp, out, attempted)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return
        inp = workload.inputs()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_untraced(cls, seed: int, seconds: float, workdir: str) -> dict:
    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs += [reference_seconds() for _ in range(REFERENCE_REPEATS)]
        dt, workload, inp = setup(cls, seed, workdir)
        setups.append(dt)
    tally, times, speeds = Tally(), [], []
    measure(workload, inp, seconds, tally, times, speeds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_speed = REFERENCE_S / statistics.fmean(refs)
    metrics = {
        "setup_s": (statistics.median(setups) * setup_speed, "s", len(setups)),
        "wall_s": (statistics.median(t * v for t, v in zip(times, speeds)), "s", len(times)),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "error_rate": (len(tally.failed) / tally.attempted, "ratio", tally.attempted),
        "setup_raw_s": (statistics.median(setups), "s", len(setups)),
        "wall_raw_s": (statistics.median(times), "s", len(times)),
    }
    detail = {"setup_s": setups, "setup_reference_s": refs, "pass_s": times, "pass_speed": speeds}
    return {"metrics": metrics, "tally": tally, "detail": detail}


def run_traced(cls, seed: int, seconds: float, workdir: str, spans_path: str) -> dict:
    """Traced passes on the first inputs, then untraced ones for the overhead."""
    start = time.perf_counter()
    _, workload, inp = setup(cls, seed, workdir)
    inputs = [inp] + [workload.inputs() for _ in range(TRACED_PASSES - 1)]
    tally, traced, outputs = Tally(), [], []
    with spans.Tracer() as tracer:
        for inp in inputs:
            out, dt, attempted = workloads.run_pass(workload, inp)
            traced.append(dt)
            outputs.append((inp, out, attempted))
    for inp, out, attempted in outputs:
        tally.add(workload, inp, out, attempted)
    untraced: list[float] = []
    measure(workload, workload.inputs(), seconds - (time.perf_counter() - start), tally, untraced, [])
    metrics = {}
    for name, row in tracer.span_totals().items():
        metrics[f"{name}.calls"] = (row["calls"], "count", TRACED_PASSES)
        metrics[f"{name}.total_s"] = (row["total_s"], "s", TRACED_PASSES)
        metrics[f"{name}.self_s"] = (row["self_s"], "s", TRACED_PASSES)
    for name, value in tracer.counters().items():
        metrics[name] = (value, spans.COUNTERS[name], TRACED_PASSES)
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["bench.trace_overhead"] = (overhead, "ratio", len(untraced))
    tracer.write(spans_path)
    detail = {"traced_pass_s": traced, "untraced_pass_s": untraced, "spans": len(tracer.records)}
    return {"metrics": metrics, "tally": tally, "detail": detail}


def run_workload(args) -> int:
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT)
    try:
        if args.trace:
            result = run_traced(cls, args.seed, args.seconds, workdir, os.path.join(OUT, f"spans_{stem}.tsv.gz"))
        else:
            result = run_untraced(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = result["tally"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }
    report = {
        "context": context,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": n}
            for name, (value, unit, n) in result["metrics"].items()
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "detail": result["detail"],
    }
    with open(os.path.join(OUT, f"BENCH_{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"# context {json.dumps(context, sort_keys=True)}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{name:<56} {value:>14.6g} {unit:<6} n={n}")
    if tally.failed:
        print(f"failed operations: {', '.join(tally.failed)}", file=sys.stderr)
    # The line holds the bounded metrics only.  error_rate is 0 when all is
    # well, so a relative bound cannot hold it: failed / attempted carry it.
    line = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result["metrics"].items()
            if args.trace or name in END_TO_END
        },
    }
    print(json.dumps(line, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uberhom", "__init__.py")):
        print(f"error: no uberhom sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
