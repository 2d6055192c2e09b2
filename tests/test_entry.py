"""``python -m pbcat`` in a fresh interpreter, for what only a new process
shows: that no report depends on the string hash seed (each prints its
pinned bytes under two seeds), and that the process exits with the code
``main`` returns.  Every other check of the command line runs in process
through ``pbcat.cli.main``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pbcat.cli import main
from pbcat.textio import serialize_cayley

from helpers import i_of_n_table, pinned

SRC = Path(__file__).resolve().parents[1] / "src"


def module_run(cwd, *argv, **env):
    """``python -m pbcat argv`` in cwd, importing pbcat from this checkout's
    src, with env added to the environment."""
    return subprocess.run([sys.executable, "-m", "pbcat", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, timeout=120)


# each request and the file in tests/reports/ that pins its report, which
# test_cli reads too
PINNED_REPORTS = {
    ("check-axioms", "--max-size", "6", "--seed", "1"): "check-axioms_--max-size_6_--seed_1",
    ("check-axioms", "--max-size", "3", "--seed", "1"): "check-axioms_--max-size_3_--seed_1",
    ("enumerate", "--max-size", "6"): "enumerate_--max-size_6",
    ("wagner-preston", "i3.txt"): "wagner-preston_I3",
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_reports_do_not_depend_on_the_string_hash_seed(tmp_path, argv):
    (tmp_path / "i3.txt").write_text(serialize_cayley(i_of_n_table(3)))
    runs = [module_run(tmp_path, *argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 2
    for run in runs:
        assert run.stdout.decode("utf-8") == pinned(PINNED_REPORTS[argv])


@pytest.mark.parametrize("argv, table, code", [
    (("enumerate", "--max-size", "6", "--count-only"), None, 0),
    # a left-zero band, whose idempotents do not commute
    (("wagner-preston", "table.txt"), "semigroup LZ = a b\na: a a\nb: b b\n\n", 1),
    # a product that is not an element
    (("wagner-preston", "table.txt"), "semigroup S = e a\ne: e a\na: a q\n\n", 2),
], ids=["pass", "violation", "bad-input"])
def test_the_process_exits_with_the_code_main_returns(capsys, monkeypatch, tmp_path,
                                                      argv, table, code):
    if table is not None:
        (tmp_path / "table.txt").write_text(table)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    run = module_run(tmp_path, *argv)
    assert run.returncode == code
    assert (run.stdout.decode(), run.stderr.decode()) == (captured.out, captured.err)
