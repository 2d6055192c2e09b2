"""Benchmark of the pbcat command line: three workloads, checked answers.

Run from the root of a checkout; nothing needs to be installed:

    python3 perfbench/run.py --seed 1                     # every workload
    python3 perfbench/run.py --workload law-sweep --seed 1 --seconds 40
    python3 perfbench/run.py --workload table-embed --seed 1 --trace 1

One client in one thread drives ``pbcat.cli.main(argv)`` in process, in a
closed loop: it sends the next request only after the previous one has
returned.  Each request's stdout, stderr and exit code are checked against
the known answer that ``gen.py`` computed without pbcat.  A workload is a
fixed request list made from the seed; a pass sends the whole list, and
passes repeat until ``--seconds`` would run out (at least three).  Times
are scaled to a nominal host speed by a reference loop timed between
requests (see ``reference``).

With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer ones from a separate traced pass (see
``tracing.py``).  Either way the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import gc
import gzip
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import gen
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_STARTS = 5

# Host speed.  On a shared host the CPU speed moves between levels up to 1.6x
# apart and can stay at one for a whole run, so a median over one run's
# passes does not remove it.  Every end-to-end time is therefore scaled to
# a nominal host speed: a fixed reference loop is timed before the first
# request and again whenever REF_EVERY_S has passed since the last reading,
# and each request in between is scaled by NOMINAL_REF_S over the mean of
# the two readings around it.  NOMINAL_REF_S is a round figure near the
# loop's median on the host the benchmark was tuned on (see README.md).
NOMINAL_REF_S = 2e-3
REF_EVERY_S = 0.1
REF_ROUNDS = 3
REF_ARITHMETIC = 15000


class _RefMap:
    """A partial bijection built the way pbcat builds one, for the
    reference loop only: a frozenset of string pairs, a dict, a tuple."""

    __slots__ = ("graph", "fwd", "dom")

    def __init__(self, source: frozenset, pairs):
        self.graph = frozenset(pairs)
        self.fwd = {}
        for x, y in self.graph:
            if x not in source:
                raise ValueError(x)
            self.fwd[x] = y
        self.dom = tuple(x for x in source if x in self.fwd)


_REF_TOKENS = frozenset("abcd")
_REF_MAPS = [_RefMap(_REF_TOKENS, [(x, y) for x, y in zip("abcd", perm) if x != y or x == "a"])
             for perm in itertools.permutations("abcd")]


def _reference_round() -> float:
    """Seconds one round of the reference loop takes: 120 compositions of
    small partial bijections, then REF_ARITHMETIC steps of integer arithmetic.
    At the host's slow levels the compositions alone slow down more than
    pbcat's requests do and the arithmetic alone less; the mix follows
    them."""
    start = time.perf_counter()
    graphs = set()
    for g in _REF_MAPS:
        for f in _REF_MAPS[:5]:
            graphs.add(_RefMap(_REF_TOKENS, [(x, g.fwd[f.fwd[x]]) for x in f.dom
                                             if f.fwd[x] in g.fwd]).graph)
    total = 0
    for i in range(REF_ARITHMETIC):
        total += i * i % 7
    return time.perf_counter() - start


END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("cases_per_s", "cases/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric, unit, and the end-to-end numbers it should move.
_SWEEP = "wall_s, cases_per_s on law-sweep"
_CORE = f"{_SWEEP}; wall_s on table-embed"
_TABLE = "wall_s, cases_per_s on table-embed"
_FILES = "verdict_p50_ms, verdict_p90_ms on file-stream"
_EXACT = "verdict_p50_ms on file-stream; wall_s on law-sweep"
PER_LAYER = (
    ("core.compose.calls", "count", _CORE),
    ("core.compose.self_s", "s", _CORE),
    ("core.pbij_init.calls", "count", _CORE),
    ("core.pbij_init.self_s", "s", _CORE),
    ("core.finset_init.calls", "count", _SWEEP),
    ("core.enumerate_pbij.yields", "count", _SWEEP),
    ("core.self_s", "s", _CORE),
    ("monoid.table_products", "count", _TABLE),
    ("monoid.verify.self_s", "s", _TABLE),
    ("monoid.wagner_preston.self_s", "s", _TABLE),
    ("monoid.unique_inverse_check.self_s", "s", _SWEEP),
    ("baer.self_s", "s", "wall_s on law-sweep"),
    ("baer.probe_checks.calls", "count", "wall_s on law-sweep"),
    ("exact.validate.calls", "count", _EXACT),
    ("exact.self_s", "s", _EXACT),
    ("textio.parse.self_s", "s", f"{_FILES}; wall_s on table-embed"),
    ("textio.parse.bytes", "bytes", f"{_FILES}; wall_s on table-embed"),
    ("textio.serialize.self_s", "s", f"{_FILES}; wall_s on table-embed"),
    ("textio.serialize.bytes", "bytes", f"{_FILES}; wall_s on table-embed"),
    *((f"laws.{law}.{what}", unit, _SWEEP)
      for law in gen.LAW_NAMES for what, unit in (("s", "s"), ("cases", "count"))),
    ("laws.stuck", "count", _SWEEP),
    ("cli.self_s", "s", _FILES),
    ("cli.report_bytes", "bytes", _FILES),
    ("trace.overhead_s", "s", "none: the cost of tracing itself"),
)

# A fresh interpreter that imports pbcat from the checkout and answers one request.
_COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from pbcat.cli import main; sys.exit(main(sys.argv[2:]))")


def reference() -> float:
    """The reference loop's time now: the median of REF_ROUNDS rounds, with
    the garbage collector off."""
    gc.disable()
    try:
        return statistics.median(_reference_round() for _ in range(REF_ROUNDS))
    finally:
        gc.enable()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of all
    samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _max_size(argv: list[str]) -> int:
    return int(argv[argv.index("--max-size") + 1]) if "--max-size" in argv else 0


class Tally:
    """Correctness and failure counts over every request a run sends."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self._seen: dict[int, int] = {}

    def record(self, index: int, req: gen.Request, code, out: str, err: str,
               raised: str | None, load: bool = True) -> None:
        """Check one answer; ``load`` requests also count as attempted."""
        if load:
            self.attempted += 1
        if raised:
            self.failed += load
            reason = f"failed: {req.argv[0]} raised {raised}"
        else:
            why = check.check(req, code, out, err)
            digest = hash((code, out, err))
            if why is None and self._seen.setdefault(index, digest) != digest:
                why = "report differs from the same request's earlier report"
            if why is None:
                return
            self.wrong += 1
            reason = f"wrong: {req.argv[0]}: {why}"
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class Workload:
    """A workload's requests, with their input files written to a work dir."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.requests = gen.WORKLOADS[name](seed)
        self.argvs = []
        for i, req in enumerate(self.requests):
            argv = list(req.argv)
            if req.data is not None:
                path = work / f"{i}.in"
                path.write_bytes(req.data)
                argv.append(str(path))
            self.argvs.append(argv)
        # the cheapest request that should succeed: smallest enumeration
        # bound, then smallest input file
        self.smallest = min(
            (i for i, r in enumerate(self.requests) if r.kind != "error"),
            key=lambda i: (_max_size(self.argvs[i]), len(self.requests[i].data or b"")))


def call(cli, argv: list[str]) -> tuple[float, int | None, str, str, str | None]:
    """Send one request; returns (seconds, exit code, stdout, stderr, raised)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
        except Exception as exc:  # escaped main(): a CLI user sees a traceback
            raised = type(exc).__name__
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), raised


def run_pass(cli, wl: Workload, tally: Tally, tracer: Tracer | None = None) -> dict:
    """Send every request once; returns per-request times scaled to the
    nominal host speed, and pass totals."""
    gc.collect()
    raw, scales, units, report_bytes = [], [], [], 0
    last_ref, last_at, since = reference(), time.perf_counter(), 0
    for i, (req, argv) in enumerate(zip(wl.requests, wl.argvs)):
        if tracer is not None:
            tracer.request = i
        seconds, code, out, err, raised = call(cli, argv)
        tally.record(i, req, code, out, err, raised)
        raw.append(seconds)
        units.append(sum(check.law_cases(out).values()) if req.kind == "axioms"
                     else req.units)
        report_bytes += len(out.encode())
        if i + 1 == len(wl.requests) or time.perf_counter() - last_at >= REF_EVERY_S:
            ref = reference()
            scales += [NOMINAL_REF_S / ((last_ref + ref) / 2)] * (i + 1 - since)
            last_ref, last_at, since = ref, time.perf_counter(), i + 1
    times = [r * k for r, k in zip(raw, scales)]
    return {"times": times, "wall": sum(times), "raw_wall": sum(raw),
            "case_units": sum(units),
            "case_time": sum(t for t, u in zip(times, units) if u),
            "ref_s": statistics.median(NOMINAL_REF_S / k for k in scales),
            "report_bytes": report_bytes}


def cold_starts(wl: Workload, tally: Tally) -> list[float]:
    """Time fresh interpreters answering the smallest request, scaled to the
    nominal host speed; the first start, which may compile bytecode, is not
    timed."""
    req, argv = wl.requests[wl.smallest], wl.argvs[wl.smallest]
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    samples = []
    before = reference()
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _COLD_START, str(SRC), *argv],
                              capture_output=True, cwd=ROOT, env=env, timeout=150,
                              encoding="utf-8", errors="replace")
        seconds = time.perf_counter() - start
        after = reference()
        samples.append(seconds * NOMINAL_REF_S / ((before + after) / 2))
        before = after
        tally.record(wl.smallest, req, proc.returncode, proc.stdout, proc.stderr, None,
                     load=False)
    return samples[1:]


def measure(cli, wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics from untraced passes.

    Times are scaled to the nominal host speed (see ``reference``), and
    each is a median over the run's passes: the pass time is the median
    pass, each request's time is its median over the passes before the
    percentiles are taken across the workload's distinct requests, and the
    case rate is the median of the passes' rates.
    """
    setup = cold_starts(wl, tally)
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(cli, wl, tally))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    per_request = [statistics.median(p["times"][i] for p in passes)
                   for i in range(len(wl.requests))]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "verdict_p50_ms": percentile(per_request, 0.5) * 1e3,
        "verdict_p90_ms": percentile(per_request, 0.9) * 1e3,
        "cases_per_s": statistics.median(p["case_units"] / p["case_time"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"passes": len(passes), "requests": len(per_request),
        "raw_wall_s": statistics.median(p["raw_wall"] for p in passes),
        "ref_ms": statistics.median(p["ref_s"] for p in passes) * 1e3}


def _layer_metrics(tracer: Tracer, report_bytes: int) -> dict:
    spans = tracer.by_name()
    layer_self = tracer.by_layer()

    def calls(*names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    parsers = ("textio.parse_pbij", "textio.parse_cayley", "textio.parse_grid")
    writers = ("textio.serialize_pbij", "textio.serialize_cayley", "textio.serialize_grid")
    return {
        "core.compose.calls": calls("core.compose"),
        "core.compose.self_s": self_s("core.compose"),
        "core.pbij_init.calls": calls("core.PBij.__init__"),
        "core.pbij_init.self_s": self_s("core.PBij.__init__"),
        "core.finset_init.calls": calls("core.FinSet.__init__"),
        "core.enumerate_pbij.yields": tracer.counts["core.enumerate_pbij.yields"],
        "core.self_s": layer_self.get("core", 0.0),
        "monoid.table_products": tracer.counts["monoid.table_products"],
        "monoid.verify.self_s": self_s("monoid.verify_inverse_semigroup"),
        "monoid.wagner_preston.self_s": self_s("monoid.wagner_preston"),
        "monoid.unique_inverse_check.self_s": self_s("monoid.unique_inverse_check"),
        "baer.self_s": layer_self.get("baer", 0.0),
        "baer.probe_checks.calls": calls("baer.baer_annihilator_check",
                                         "baer.kernel_universal_check"),
        "exact.validate.calls": calls("exact.Grid3x3.validate",
                                      "exact.ShortExactSeq.__post_init__"),
        "exact.self_s": layer_self.get("exact", 0.0),
        "textio.parse.self_s": self_s(*parsers),
        "textio.parse.bytes": tracer.counts["textio.parse.bytes"],
        "textio.serialize.self_s": self_s(*writers),
        "textio.serialize.bytes": tracer.counts["textio.serialize.bytes"],
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.report_bytes": report_bytes,
    }


def coverage_record(cli, pbcat, seed: int, tally: Tally) -> tuple[dict, dict, Tracer]:
    """Per-law case counts at max-size 3 and 6, and per-law time at 6."""
    requests = [gen.axioms_request(size, seed) for size in (3, 6)]
    tracer = Tracer()
    tracer.install(pbcat)
    outs = []
    try:
        for i, req in enumerate(requests):
            tracer.request = i
            _, code, out, err, raised = call(cli, req.argv)
            tally.record(-1 - i, req, code, out, err, raised)
            outs.append(out)
    finally:
        tracer.uninstall()
    at3, at6 = check.law_cases(outs[0]), check.law_cases(outs[1])
    law_s = {law: 0.0 for law in gen.LAW_NAMES}
    for name, start, end, _, request in tracer.spans():
        law = name[len("laws."):]
        if request == 1 and law in law_s:
            law_s[law] += end - start
    metrics = {}
    for law in gen.LAW_NAMES:
        metrics[f"laws.{law}.s"] = law_s[law]
        metrics[f"laws.{law}.cases"] = at6.get(law, 0)
    metrics["laws.stuck"] = sum(1 for law in gen.LAW_NAMES if at6.get(law) == at3.get(law))
    record = {law: {"max_size_3": at3.get(law, 0), "max_size_6": at6.get(law, 0)}
              for law in gen.LAW_NAMES}
    return metrics, record, tracer


def traced(cli, pbcat, wl: Workload, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: an untraced pass after a warm-up pass, then the
    same pass traced."""
    run_pass(cli, wl, tally)
    plain = run_pass(cli, wl, tally)
    tracer = Tracer()
    tracer.install(pbcat)
    try:
        spanned = run_pass(cli, wl, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = _layer_metrics(tracer, spanned["report_bytes"])
    law_metrics, record, law_tracer = coverage_record(cli, pbcat, wl.seed, tally)
    metrics.update(law_metrics)
    metrics["trace.overhead_s"] = spanned["wall"] - plain["wall"]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{wl.seed}"
    with gzip.open(out_dir / f"spans-{stem}.csv.gz", "wt", newline="", compresslevel=1) as fh:
        rows = csv.writer(fh)
        rows.writerow(["phase", "span", "name", "start_s", "end_s", "parent", "request"])
        for phase, spans in (("pass", tracer), ("coverage", law_tracer)):
            rows.writerows((phase, i, *span) for i, span in enumerate(spans.spans()))
    (out_dir / f"coverage-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return metrics, {"spans": len(tracer.starts), "coverage": record,
                     "untraced_wall_s": plain["wall"], "traced_wall_s": spanned["wall"]}


def run_workload(cli, pbcat, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(name, seed, work)
        tally = Tally()
        # warm the interpreter: imports, argparse, caches
        _, code, out, err, raised = call(cli, wl.argvs[wl.smallest])
        tally.record(wl.smallest, wl.requests[wl.smallest], code, out, err, raised,
                     load=False)
        if trace:
            values, info = traced(cli, pbcat, wl, tally)
            units = {metric: unit for metric, unit, _ in PER_LAYER}
        else:
            values, info = measure(cli, wl, seconds, tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_row(name, seed, values, units, info, tally, trace)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def print_row(name, seed, values, units, info, tally, trace) -> None:
    if trace:
        print(f"== {name} (seed {seed}, traced)")
        moves = {m: why for m, _, why in PER_LAYER}
        for metric, unit in units.items():
            print(f"  {metric:40s} {values[metric]:>14.6g} {unit:6s} moves: {moves[metric]}")
        print(f"  spans recorded: {info['spans']}; untraced pass {info['untraced_wall_s']:.3f} s, "
              f"traced pass {info['traced_wall_s']:.3f} s")
        print("  law cases at max-size 3 -> 6: " + ", ".join(
            f"{law} {c['max_size_3']}->{c['max_size_6']}" for law, c in info["coverage"].items()))
    else:
        cells = [f"{m}={values[m]:.6g} {u}" for m, u in units.items()]
        ratio = tally.failed / tally.attempted
        print(f"{name} seed={seed}: " + "  ".join(cells)
              + f"  wrong_verdicts={tally.wrong} count"
              + f"  failed_ratio={tally.failed}/{tally.attempted}={ratio:.4f} failed/attempted"
              + f"  ({info['passes']} passes of {info['requests']} requests;"
              + f" unscaled median pass {info['raw_wall_s']:.4g} s, reference loop"
              + f" {info['ref_ms']:.3g} ms against {NOMINAL_REF_S * 1e3:.3g} ms nominal)")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  {count} x {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *gen.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pbcat" / "cli.py").is_file():
        print(f"perfbench: no pbcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pbcat
    import pbcat.cli as cli
    if Path(pbcat.__file__).resolve().parent != SRC / "pbcat":
        print(f"perfbench: imported pbcat from {pbcat.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(cli, pbcat, args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0
    # each workload in a fresh process, so that peak_rss_mb is its own
    results = {}
    for name in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, encoding="utf-8", check=False)
        *rows, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(rows), flush=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
