"""Tests of the benchmark itself: generators, known-answer checker, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import pbcat  # noqa: E402
import pbcat.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def answer(req: gen.Request, tmp_path: Path) -> tuple[int, str, str]:
    argv = list(req.argv)
    if req.data is not None:
        path = tmp_path / "input"
        path.write_bytes(req.data)
        argv.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pbcat.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def small(reqs: list[gen.Request]) -> list[gen.Request]:
    """Requests quick enough for a unit test (no I(4)-sized tables)."""
    return [r for r in reqs if r.units < 40 * 40 and "6" not in r.argv]


def is_defect(req: gen.Request) -> bool:
    """The two inputs on which pbcat is known to raise instead of answering."""
    return (req.kind == "table-reject" and req.expect["flags"]["unique-inverses"]) \
        or (req.kind == "error" and b"\xff" in (req.data or b""))


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(6))
def test_closed_formulas_count_the_enumeration(n):
    elems = gen.all_pp(n)
    assert len(set(elems)) == len(elems) == gen.monoid_size(n)
    assert sum(gen.pp_compose(a, a) == a for a in elems) == 2 ** n


def test_inputs_depend_only_on_the_seed():
    for make in gen.WORKLOADS.values():
        first, again, other = make(5), make(5), make(6)
        assert [(r.argv, r.data) for r in first] == [(r.argv, r.data) for r in again]
        assert [(r.argv, r.data) for r in first] != [(r.argv, r.data) for r in other]


def test_perturbed_flags_agree_with_the_full_sweep():
    for seed in range(3):
        for req in gen.table_embed(seed):
            table = req.expect.get("table")
            if req.kind == "table-reject" and len(table.elements) < 40:
                assert gen.axiom_flags(table.product) == req.expect["flags"]


# -- checker against real answers -----------------------------------------------

@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_checker_accepts_every_answer_pbcat_gets_right(workload, tmp_path):
    reqs = small(gen.WORKLOADS[workload](3))
    if workload == "file-stream":
        reqs = reqs[:150]
    for req in reqs:
        if is_defect(req):
            with pytest.raises((ValueError, RuntimeError)):
                answer(req, tmp_path)
            continue
        code, out, err = answer(req, tmp_path)
        assert check.check(req, code, out, err) is None, req.argv


def _first(reqs, pred):
    return next(r for r in reqs if pred(r))


def _corrupt_cases():
    files = gen.file_stream(2)
    tables = gen.table_embed(2)
    sweep = gen.law_sweep(2)
    kernel = _first(files, lambda r: r.argv == ["kernel"] and r.kind == "report"
                    and r.expect["fields"]["kernel object"])
    factor = _first(files, lambda r: r.argv == ["factorize"] and r.kind == "report"
                    and r.expect["fields"]["via object"])
    noether = _first(files, lambda r: r.argv[0] == "noether1" and r.kind == "report"
                     and r.expect["sides"])
    grid = _first(files, lambda r: r.argv == ["grid33"] and r.kind == "report"
                  and r.expect["blocks"]["phi"][2])
    accept = _first(tables, lambda r: r.kind == "table-accept" and r.units < 40 * 40)
    reject = _first(tables, lambda r: r.kind == "table-reject"
                    and not r.expect["flags"]["unique-inverses"] and r.units < 40 * 40)
    axioms = _first(sweep, lambda r: "3" in r.argv)
    enum = _first(sweep, lambda r: r.kind == "enumerate")
    enum = gen.Request(["enumerate", "--max-size", "4"], "enumerate",
                       {"sizes": enum.expect["sizes"][:5],
                        "idempotents": enum.expect["idempotents"][:5]}, units=0)

    def swap_line(prefix, value):
        def edit(out):
            return "\n".join(f"{prefix}{value}" if line.startswith(prefix) else line
                             for line in out.split("\n"))
        return edit

    def drop_block(name):
        def edit(out):
            head = f"pbij {name} :"
            start = out.index(head)
            return out[:start] + out[out.index("\n\n", start) + 2:]
        return edit

    def change_first_pair(name):
        def edit(out):
            start = out.index("\n", out.index(f"pbij {name} :")) + 1
            end = out.index("\n", start)
            x, arrow, y = out[start:end].split()
            return out[:start] + f"{x} {arrow} {x}{y}" + out[end:]
        return edit

    def replace(old, new):
        return lambda out: out.replace(old, new, 1)

    theta = f"theta_{accept.expect['table'].elements[accept.expect['samples'][0]]}"
    a = reject.expect["table"].elements
    return [
        ("swapped kernel object", kernel, swap_line("kernel object: ", "∅")),
        ("kernel arrow changed", kernel, change_first_pair("ker_f")),
        ("via object swapped", factor, swap_line("via object: ", "nowhere")),
        ("iso not an identity", noether, change_first_pair("iso")),
        ("quotient side wrong", noether, replace("right X - X2 = ", "right X - X2 = extra ")),
        ("phi changed", grid, change_first_pair("phi")),
        ("missing theta block", accept, drop_block(theta)),
        ("theta maps elsewhere", accept, change_first_pair(theta)),
        ("flag flipped", reject, lambda out: out.replace(
            "idempotents-commute: true", "idempotents-commute: @").replace(
            "idempotents-commute: false", "idempotents-commute: true").replace("@", "false")),
        ("witness that does not replay", reject,
         lambda out: out + f"witness: associativity {a[0]} {a[0]} {a[0]}\n"),
        ("law reported failing", axioms, replace("PASS associativity", "FAIL associativity")),
        ("law missing", axioms, lambda out: "\n".join(
            line for line in out.split("\n") if " monoid-size " not in line)),
        ("law coverage narrowed", axioms, replace("associativity (1456 cases)",
                                                  "associativity (1 cases)")),
        ("monoid size wrong", enum, replace("|I(4)| = 209", "|I(4)| = 208")),
        ("element missing from a listing", enum, replace("  m0 : ∅\n", "", )),
    ]


@pytest.mark.parametrize("label,req,edit", _corrupt_cases(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_checker_counts_a_corrupted_report(label, req, edit, tmp_path):
    code, out, err = answer(req, tmp_path)
    assert check.check(req, code, out, err) is None
    bad = edit(out)
    assert bad != out
    assert check.check(req, code, bad, err) is not None
    assert check.check(req, 1 - code if code in (0, 1) else 0, out, err) is not None

    tally = run.Tally()
    tally.record(0, req, code, out, err, None)
    tally.record(1, req, code, bad, err, None)
    tally.record(2, req, None, "", "", "ValueError")
    assert (tally.attempted, tally.wrong, tally.failed) == (3, 1, 1)


def test_a_wider_sweep_meets_the_case_floor(tmp_path):
    req = gen.axioms_request(3, 2)
    code, out, err = answer(req, tmp_path)
    wider = out.replace("associativity (1456 cases)", "associativity (1546 cases)")
    assert wider != out
    assert check.check(req, code, wider, err) is None


def test_file_stream_sends_each_kind_equally_often():
    reqs = gen.file_stream(3)
    malformed = [r for r in reqs if r.expect.get("exit") == 2]
    grids = [r for r in reqs if r.argv == ["grid33"] and r not in malformed]
    kinds = {}
    for r in reqs:
        if r not in malformed and r not in grids:
            kinds[r.argv[0]] = kinds.get(r.argv[0], 0) + 1
    assert set(kinds.values()) == {gen.PER_KIND} and len(kinds) == 5
    assert len(malformed) == len(grids) == gen.PER_KIND
    assert sum(r.kind == "error" for r in grids) == gen.PER_KIND // 2


def test_tally_flags_a_report_that_changes_between_passes(tmp_path):
    req = _first(gen.file_stream(4), lambda r: r.argv == ["cokernel"] and r.kind == "report")
    code, out, err = answer(req, tmp_path)
    tally = run.Tally()
    tally.record(7, req, code, out, err, None)
    tally.record(7, req, code, out + "\n", err, None)
    assert tally.wrong == 1


# -- tracer and the benchmark file ------------------------------------------------

def test_tracer_reaches_copied_names_and_restores_them(tmp_path):
    core, baer = sys.modules["pbcat.core"], sys.modules["pbcat.baer"]
    compose = core.compose
    tracer = Tracer()
    tracer.install(pbcat)
    try:
        assert baer.compose is core.compose is not compose
        tracer.request = 9
        X = core.FinSet(["1", "2"])
        f = core.PBij(X, X, [("1", "2")])
        baer.cokernel(f)
        table = sys.modules["pbcat.monoid"].CayleyTable(("e",), ((0,),))
        pbcat.wagner_preston(table)
    finally:
        tracer.uninstall()
    assert baer.compose is core.compose is compose
    spans = list(tracer.spans())
    names = {name for name, *_ in spans}
    assert {"baer.cokernel", "core.inverse", "core.PBij.__init__",
            "monoid.verify_inverse_semigroup"} <= names
    cokernel = next(i for i, s in enumerate(spans) if s[0] == "baer.cokernel")
    assert any(s[0] == "baer.annihilator_projection" and s[3] == cokernel for s in spans)
    assert all(s[4] == 9 and s[1] <= s[2] for s in spans)
    assert tracer.counts["monoid.table_products"] > 0
    assert sum(tracer.by_layer().values()) == pytest.approx(
        sum(e - s for name, s, e, parent, _ in spans if parent < 0))


def test_benchmark_file_names_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 21))
    assert run.percentile(samples, 0.5) == 10
    assert run.percentile(samples, 0.9) == 18
    assert run.percentile([5.0], 0.9) == 5.0


def test_a_pass_scales_each_request_by_the_readings_around_it(tmp_path, monkeypatch):
    wl = run.Workload("file-stream", 5, tmp_path)
    wl.requests, wl.argvs = wl.requests[:3], wl.argvs[:3]
    readings = iter([k * run.NOMINAL_REF_S for k in (1, 3, 2, 4)])
    monkeypatch.setattr(run, "reference", lambda: next(readings))
    monkeypatch.setattr(run, "REF_EVERY_S", 0.0)
    raw = iter([0.4, 0.2, 0.1])
    monkeypatch.setattr(run, "call", lambda cli, argv: (next(raw), 0, "", "", None))
    monkeypatch.setattr(run.Tally, "record", lambda *args, **kw: None)
    result = run.run_pass(pbcat.cli, wl, run.Tally())
    # the first reading is taken before the pass, one more after each request
    assert result["times"] == pytest.approx([0.4 / 2, 0.2 / 2.5, 0.1 / 3])
    assert result["raw_wall"] == pytest.approx(0.7)
