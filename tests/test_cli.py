import argparse
import hashlib
import itertools
import random
import re
import sys
from functools import partial
from math import factorial, prod
from types import SimpleNamespace

import pytest

from pbcat import baer, cli, exact, laws, monoid, textio
from pbcat.baer import annihilator_projection, kernel
from pbcat.cli import main
from pbcat.core import (FinSet, InternalContradictionError, PBij, cancellation_oracle, compose,
                        enumerate_pbij, inverse)
from pbcat.exact import Grid3x3, build_noether_grid, make_ses, pair_grid
from pbcat.laws import law_names, run_all, run_law
from pbcat.monoid import CayleyTable
from pbcat.textio import parse_pbij, serialize_cayley, serialize_grid, serialize_pbij

from helpers import fin, i_of_n_table, pbij_count, table_shaped, universe


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """stdout and stderr of a request argparse rejects: exit 2 through
    SystemExit, and never a parse error at a line that does not exist."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.err.startswith(f"usage: pbcat {argv[0]} ")
    assert "line 0" not in captured.err
    return captured.out, captured.err


def extract_morphisms(report):
    """All pbij blocks a report printed, as (name, PBij) pairs."""
    out = []
    lines = report.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].startswith("pbij "):
            j = i
            while j < len(lines) and lines[j].strip():
                j += 1
            out.append(parse_pbij("\n".join(lines[i:j]) + "\n"))
            i = j
        else:
            i += 1
    return out


@pytest.mark.parametrize("argv, last", [
    (("enumerate", "--max-size", "7"),
     "argument --max-size: max-size must be between 0 and 6, got 7"),
    (("check-axioms", "--max-size", "-1"),
     "argument --max-size: max-size must be between 0 and 6, got -1"),
    (("check-axioms", "--seed", "18446744073709551616"),
     "argument --seed: seed must fit in 64 unsigned bits"),
    (("enumerate", "--seed", "-1"),
     "argument --seed: seed must fit in 64 unsigned bits"),
    (("kernel", "--max-size", "abc", "f.pbij"),
     "argument --max-size: invalid int value: 'abc'"),
    (("noether1", "--x", "a a", "--x1", "a", "--x2", "a"),
     "argument --x: duplicate element tokens in ('a', 'a')"),
], ids=["max-size-7", "max-size-negative", "seed-2-to-the-64", "seed-negative",
        "max-size-not-an-int", "duplicate-token"])
def test_bad_option_values_are_usage_errors(capsys, argv, last):
    out, err = usage_error(capsys, *argv)
    assert out == ""
    assert err.splitlines()[-1] == f"pbcat {argv[0]}: error: {last}"


GRID_WITH_DUPLICATE = serialize_grid(
    build_noether_grid(fin("a b c"), fin("a"), fin("a b"))).replace(
        "object 2 2 = a b c\n", "object 2 2 = a b c b\n")


@pytest.mark.parametrize("command, text, err", [
    ("kernel", "pbij f : 1 2 1 -> a b\n",
     "pbcat: parse error: line 1: duplicate element tokens in ('1', '2', '1')\n"),
    ("cokernel", "\npbij f : 1 -> a b a\n1 -> a\n",
     "pbcat: parse error: line 2: duplicate element tokens in ('a', 'b', 'a')\n"),
    ("grid33", GRID_WITH_DUPLICATE,
     "pbcat: parse error: line 5: duplicate element tokens in ('a', 'b', 'c', 'b')\n"),
], ids=["pbij-source", "pbij-target", "grid-object"])
def test_a_duplicate_token_in_a_file_is_a_parse_error(capsys, tmp_path, command, text, err):
    path = tmp_path / "in.txt"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, command, str(path)) == (2, "", err)


def test_a_duplicate_token_in_an_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["noether2", "--x", "a b", "--x1", "b", "--x2", "b b"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", (
        "usage: pbcat noether2 [-h] [--max-size MAX_SIZE] [--seed SEED] [--x X]\n"
        "                      [--x1 X1] [--x2 X2]\n"
        "pbcat noether2: error: argument --x2: duplicate element tokens in ('b', 'b')\n"))


@pytest.mark.parametrize("argv, code", [
    (("enumerate", "--max-size", "7"), 2),
    (("noether1", "--x", "a a", "--x1", "a", "--x2", "a"), 2),
    (("wagner-preston", "--help"), 0),
], ids=["enumerate-max-size-7", "noether1-duplicate-token", "wagner-preston-help"])
def test_usage_and_help_do_not_follow_the_terminal_width(capsys, monkeypatch, argv, code):
    outputs = []
    for columns in ("40", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == code
        captured = capsys.readouterr()
        outputs.append((captured.out, captured.err))
    assert outputs[0] == outputs[1] == outputs[2]
    if argv[0] == "noether1":
        # wrapped as argparse wraps with COLUMNS unset and no terminal
        assert outputs[0][1].startswith(
            "usage: pbcat noether1 [-h] [--max-size MAX_SIZE] [--seed SEED] [--x X]\n"
            "                      [--x1 X1] [--x2 X2]\n")


def test_header_carries_command_size_and_seed(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-size", "1", "--seed", "42")
    assert code == 0
    assert out.startswith("pbcat report\ncommand: enumerate\nmax-size: 1\nseed: 42\n\n")
    # both ends of each option's range are accepted
    code, out, _ = run_cli(capsys, "enumerate", "--max-size", "0",
                           "--seed", str(2 ** 64 - 1), "--count-only")
    assert code == 0
    assert out.startswith("pbcat report\ncommand: enumerate\nmax-size: 0\n"
                          "seed: 18446744073709551615\n\n")


def test_reports_are_byte_identical_for_equal_configs(capsys):
    first = run_cli(capsys, "check-axioms", "--max-size", "2", "--seed", "9")
    second = run_cli(capsys, "check-axioms", "--seed", "9", "--max-size", "2")
    assert first == second
    assert first[0] == 0


def test_sampled_sizes_are_still_deterministic(capsys):
    first = run_cli(capsys, "check-axioms", "--max-size", "4", "--seed", "123")
    second = run_cli(capsys, "check-axioms", "--max-size", "4", "--seed", "123")
    assert first == second
    assert "result: PASS (25/25 laws)" in first[1]


# sha256 of the stdout of reports whose bytes must not change
GOLDEN_REPORTS = {
    ("check-axioms", "--max-size", "6", "--seed", "1"):
        "2ea20fe1566c69e9599331f1d4bdeb1ec7f8be4ec93d46f7c2b3cb6b9ea739db",
    ("check-axioms", "--max-size", "3", "--seed", "0"):
        "37369cbf61264b5778131480f6bf83d0482cf591859be54479068e2e6c8184aa",
    ("enumerate", "--max-size", "6"):
        "1d399813929edde46f3ab8b49568cfe4700f2e24481e236bf19964ac9fa36b3d",
    ("check-axioms", "--max-size", "3", "--seed", "1"):
        "d40da0b512c257de744e16a12c722d6a5018c7a7e4c447054bf56922e44ceeac",
    ("check-axioms", "--max-size", "3", "--seed", "2"):
        "d2614d4c2b2dc93e9525ba1bdefc362b1d643af4460da4b3cd5dd313666c34e3",
    ("check-axioms", "--max-size", "6", "--seed", "2"):
        "5e982225b5b33e2c73238ffc7b8dd70fe0c9b45392cc728900d2809390cbd2f1",
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_reports_match_their_pinned_digest(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_REPORTS[argv]


# sha256 of wagner-preston stdout, with the exit code, on Cayley tables
# whose reports must not change
WAGNER_PRESTON_REPORTS = {
    "I3": (lambda: serialize_cayley(i_of_n_table(3)), 0,
           "709b702cbb93ccc100d1dd70b4a6abeca24ffefcce4e0ab0bf9f49f35f888709"),
    "I4": (lambda: serialize_cayley(i_of_n_table(4)), 0,
           "66274a95a2fba3a25f93a0667b52ce95f74ffec0d9ece506ac376ef025007957"),
    "left-zero": (lambda: "semigroup LZ = a b\na: a a\nb: b b\n\n", 1,
                  "657f1bd726e85c93242926d9e727fe5d3886866c6797e09a0f56d434dcad27fb"),
    "non-associative-unique-inverses": (
        lambda: "semigroup Q = z a b\nz: z z z\na: z z b\nb: z a z\n\n", 1,
        "9873333bcb17d6da8d8c52d44caeb7e4c8bb0110db9da81a15a8cb8227930509"),
}


@pytest.mark.parametrize("table", list(WAGNER_PRESTON_REPORTS))
def test_wagner_preston_reports_match_their_pinned_digest(capsys, tmp_path, table):
    text, expected_code, digest = WAGNER_PRESTON_REPORTS[table]
    path = tmp_path / "table.txt"
    path.write_text(text())
    code, out, err = run_cli(capsys, "wagner-preston", str(path))
    assert code == expected_code and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _empty_compose(g, f):
    real = compose(g, f)
    return PBij(real.source, real.target, ())


def _swapped_compose(g, f):
    return compose(f, g) if g.target == f.source else compose(g, f)


def _lossy_inverse(f):
    inv = inverse(f)
    return PBij(inv.source, inv.target, list(inv.items())[1:])


def counterexamples(report):
    """(law, description, [(label, morphism), ...]) for each failed law of a
    check-axioms report, its morphisms in the order printed.  A counterexample
    runs up to the next law or result line, and its pbij blocks are records
    that end at a blank line, read by extract_morphisms."""
    out = []
    for name, body in re.findall(r"^FAIL (\S+) \(\d+ cases\)\ncounterexample:\n(.*?)\n\n"
                                 r"(?=PASS |FAIL |result: )", report, re.M | re.S):
        description, _, blocks = body.partition("\n")
        out.append((name, description, extract_morphisms(blocks)))
    return out


def chain_checks(name):
    """(chain length, check) of each chain and sample sweep that LAWS
    declares for a law, in order and without repeats."""
    return list(dict.fromkeys((sweep.args[0], sweep.args[2]) for sweep in laws.LAWS[name]
                              if getattr(sweep, "func", None) in (laws._chains, laws._samples)))


def replays(report):
    """(law, description, check, morphisms) for each witness of a check-axioms
    report that a declared chain check of its law can replay, having checked
    that its morphisms are labelled f, g, h in order and that exactly one of
    the law's checks of the witness's length prints its description."""
    out = []
    for name, description, witness in counterexamples(report):
        checks = [check for length, check in chain_checks(name) if length == len(witness)]
        if checks:
            assert [label for label, _ in witness] == list("fgh"[:len(witness)])
            morphisms = [m for _, m in witness]
            [check] = [check for check in checks if check(*morphisms) == description]
            out.append((name, description, check, morphisms))
    return out


def _dropped_star(f):
    s = baer.star(f)
    return PBij(s.source, s.target, list(s.items())[1:])


def _oracle_flipped_at_2(f, side, probes):
    return cancellation_oracle(f, side, probes) != (len(f.source) == 2)


def _kernel_missing_a_point(f):
    k = kernel(f)
    kept = FinSet(k.source.elements[1:])
    return PBij(kept, k.target, [(x, y) for x, y in k.items() if x in kept])


def _flagged_at_2(f):
    report = baer.normal_conormal_check(f)
    if len(f.source) == 2 and not (f.is_mono or f.is_epi):
        return baer.NormalityReport(report.normal_ok, report.conormal_ok, not_applicable=False)
    return report


def _swapped_between_disjoint_objects(f):
    """The annihilator projection, with two points of its support swapped
    when f runs between non-empty objects that share no point.  The
    exactness constructions build their arrows between subsets of one set,
    the kernel laws test a kernel's image, not its pairs, and the cokernel
    laws test their arrow's object and domain: so the Baer check is the one
    law that sees the swap."""
    e = annihilator_projection(f)
    support = [x for x, _ in e.items()]
    if len(support) < 2 or not f.target or f.source.intersection(f.target.elements):
        return e
    a, b = support[:2]
    return PBij(e.source, e.target, [(x, {a: b, b: a}.get(x, x)) for x in support])


# the cases an object sweep's step function checks on X = {1..n}, counted
# without pbcat, where pbij_count(a, b) morphisms join sizes a and b
PER_SIZE_COUNTS = {
    laws._law_monoid_size: lambda n: 1,
    laws._law_monoid_closure: lambda n: pbij_count(n, n) * (1 + pbij_count(n, n)),
    laws._law_idempotent_census: lambda n: 2 ** n,
    laws._law_unique_inverses: lambda n: pbij_count(n, n) ** 2,
    laws._law_self_dual_identity: lambda n: 1,
    laws._law_closed_projection: lambda n: 2 ** n,
    laws._law_balanced: factorial,
    laws._law_ses_construction: lambda n: 2 ** n,
    laws._law_grid_completion: lambda n: 3 ** n,
    laws._law_noether_first: lambda n: 3 ** n,
    laws._law_noether_second: lambda n: 4 ** n,
}

# the cases each hand-written sweep checks at --max-size c, after the
# arguments LAWS binds (a bound, or none)
SWEEP_COUNTS = {
    laws._law_idempotent_meet: lambda bound, c: 4 ** min(c, bound),
    laws._law_zero_morphisms: lambda bound, c: sum(
        1 + pbij_count(a, b) for a, b in itertools.product(range(min(c, bound) + 1), repeat=2)),
    laws._law_wagner_preston: lambda c: 61,
}


def sweep_count(sweep, cap):
    """Cases a sweep of LAWS checks at --max-size cap, counted without pbcat
    from its declaration: 30 samples per sampled size, every chain over
    objects of sizes up to a chain sweep's bound, and an object sweep's
    closed form at each size up to its bound."""
    func, args = getattr(sweep, "func", sweep), getattr(sweep, "args", ())
    if func in SWEEP_COUNTS:
        return SWEEP_COUNTS[func](*args, cap)
    if func is laws._objects:
        bound, steps = args
        top = cap if bound is None else min(cap, bound)
        return sum(PER_SIZE_COUNTS[steps](n) for n in range(top + 1))
    length, first, _ = args
    if func is laws._samples:
        return 30 * len(range(first, cap + 1))
    return sum(prod(pbij_count(a, b) for a, b in zip(sizes, sizes[1:]))
               for sizes in itertools.product(range(min(cap, first) + 1), repeat=length + 1))


def law_count(name, cap):
    """Cases a law checks at --max-size cap: the sum over its declared sweeps."""
    return sum(sweep_count(sweep, cap) for sweep in laws.LAWS[name])


def assert_closed_form_counts(name):
    for cap in range(7):
        assert run_law(name, cap, 0).checked == law_count(name, cap), cap


# the laws that run one chain check on every case (those _each declares)
@pytest.mark.parametrize("name", [name for name in law_names() if len(chain_checks(name)) == 1])
def test_per_case_laws_check_their_closed_form_count(name):
    assert_closed_form_counts(name)


@pytest.mark.parametrize("name", [name for name in law_names() if len(chain_checks(name)) != 1])
def test_other_laws_check_their_closed_form_count(name):
    assert_closed_form_counts(name)


def test_every_law_has_a_closed_form_count():
    # every declared sweep is counted, and every table row counts one
    sweeps = [sweep for law in laws.LAWS.values() for sweep in law]
    assert {sweep.args[1] for sweep in sweeps
            if getattr(sweep, "func", None) is laws._objects} == PER_SIZE_COUNTS.keys()
    assert {getattr(sweep, "func", sweep) for sweep in sweeps} - {
        laws._chains, laws._samples, laws._objects} == SWEEP_COUNTS.keys()


@pytest.mark.parametrize("name, sweeps, cap, count", [
    # sum of H(a,b) H(b,c) H(c,d) over sizes up to 3, no samples at cap 3
    ("associativity", laws._each(3, 3, 4, laws._law_associativity), 3, 134_920),
    # sum of 4^n for n up to 4
    ("noether-second", (partial(laws._objects, 4, laws._law_noether_second),), 6, 341),
    # sum of 1 + H(a,b) over sizes up to 2: 9 + 20
    ("zero-morphisms", (partial(laws._law_zero_morphisms, 2),), 6, 29),
    # 4^4 subset pairs at the one size 4
    ("idempotent-meet", (partial(laws._law_idempotent_meet, 4),), 6, 256),
], ids=["associativity", "noether-second", "zero-morphisms", "idempotent-meet"])
def test_the_count_tests_follow_the_registry(monkeypatch, name, sweeps, cap, count):
    monkeypatch.setitem(laws.LAWS, name, sweeps)
    assert law_count(name, cap) == count
    assert run_law(name, cap, 0).checked == count


def _without_last_pair(f):
    return PBij(f.source, f.target, list(f.items())[:-1])


def _size_off_at_3(n):
    return monoid.inverse_monoid_size(n) + (n == 3)


def _i2_missing_one(X):
    elements = monoid.symmetric_inverse_monoid(X)
    return elements[:1] + elements[2:] if len(X) == 2 else elements


def _census_missing_one(X):
    found = monoid.idempotents_of(X)
    return found[:-1] if len(X) == 3 else found


def _inverses_not_unique_at_3(elements):
    return len(elements[0].source) != 3 and monoid.unique_inverse_check(elements)


def _short_annihilator(f):
    e = baer.annihilator_projection(f)
    return _without_last_pair(e) if (len(f.source), len(f.dom)) == (3, 1) else e


def _short_ses(X, X1):
    # ShortExactSeq would reject the shortened beta
    ses = exact.make_ses(X, X1)
    if (len(ses.alpha.target), len(ses.alpha.source)) != (4, 2):
        return ses
    return SimpleNamespace(alpha=ses.alpha, beta=_without_last_pair(ses.beta))


def _short_completion(grid):
    phi, psi = exact.complete_3x3(grid)
    (x1, _, _), (x2, X, _), _ = grid.objects
    if (len(X), len(x1), len(x2)) == (3, 1, 2):
        psi = _without_last_pair(psi)
    return phi, psi


def _short_first_iso(X, X1, X2):
    iso = exact.noether_first(X, X1, X2)
    return _without_last_pair(iso) if (len(X), len(X1)) == (4, 1) else iso


def _short_second_iso(X, X1, X2):
    iso = exact.noether_second(X, X1, X2)
    return _without_last_pair(iso) if (len(X), len(X1), len(X2)) == (4, 2, 3) else iso


def _halved_after_src_then_mid(g, f):
    """compose, keeping only the first of two result pairs when g runs from
    a _mid object and f from a _src one: h∘(g∘f) meets that case in the
    associativity law, and (h∘g)∘f does not."""
    real = compose(g, f)
    pairs = list(real.items())
    if "u" in g.source and "1" in f.source and len(pairs) == 2:
        return PBij(real.source, real.target, pairs[:1])
    return real


def _without_zero(X, Y):
    return (f for f in enumerate_pbij(X, Y) if not (f.is_zero and (len(X) or len(Y))))


# the mutation matrix: library functions broken on purpose, each patched over
# the name check-axioms reads it by, and run with --seed 3.  A row is (patched
# name, broken function) -> ({law: description} of the FAIL lines it causes,
# in registry order and the same at every size it pins; {--max-size: (exit
# code, sha256 of stdout)}).  The digests pin the case count at each failure
# and the witnesses.  Every law fails under some row, and not only by crashing.
MUTANTS = {
    ("pbcat.laws.compose", _empty_compose): (
        {"composition-closure": "wrong composite",
         "identity-neutrality": "identity not neutral",
         "inverse-laws": "inverse law broken",
         "idempotent-meet": "meet law broken for A=['1'] B=['1']",
         "idempotent-census": "idempotent census failed at n=1: 2 declared, 1 found",
         "wagner-preston": "not a homomorphism on two-element group at (e,e)",
         "factorization": "factorization broken",
         "balanced": "mono+epi without a two-sided inverse"},
        {"2": (1, "397a1a7933b7a2b32eb85ea8ef75ebf95c48ed2a783464aea15e5ea0dee95deb"),
         "6": (1, "c9173837e739166b775325bc74c9d89e144a96a749c19756ee3f05d81bf456bb")}),
    ("pbcat.laws.compose", _swapped_compose): (
        {"composition-closure": "wrong composite",
         "associativity": "internal error: ObjectMismatchError: cannot compose: "
                          "intermediate objects differ ([] vs ['u'])",
         "inverse-laws": "inverse law broken",
         "wagner-preston": "not a homomorphism on I(2) Cayley table at (m1,m2)",
         "factorization": "internal error: ObjectMismatchError: cannot compose: "
                          "intermediate objects differ (['a'] vs [])",
         "balanced": "mono+epi without a two-sided inverse"},
        {"2": (1, "14fc1848b260c11c9770c9331ff1e58162e88889d1913022a7f6d0c84d1d1f53"),
         "6": (1, "0db313180bd8b0f75a1d364dc5d7ee12f4b76fead9c9fa9121a0f674267dfd6c")}),
    ("pbcat.laws.compose", _halved_after_src_then_mid): (
        {"associativity": "associativity broken"},
        {"2": (1, "877947ce987d7bcb74df554f54c31f4660e242a2685d7b2ff4954bbae6e580ec"),
         "6": (1, "410a34f10497235148770d4cb39b6718f567148af5d74d42c989e3461603b8b9")}),
    ("pbcat.laws.inverse", _lossy_inverse): (
        {"inverse-laws": "inverse law broken",
         "factorization": "factorization broken",
         "balanced": "mono+epi without a two-sided inverse"},
        {"2": (1, "60ba833a51e19b3df16cfd4b23721854cf1b53b3e5f9e4437c0c2b08b4489f9a"),
         "6": (1, "49f9e76819669bc224fac12c7238fea5065f4da04e200b8e26f5d1d813efa61c")}),
    # the one law that sees a Hom-set missing its zero morphism
    ("pbcat.laws.enumerate_pbij", _without_zero): (
        {"zero-morphisms": "empty-set hom-set is not a singleton at sizes (0,1)"},
        {"3": (1, "444650b374712be8880dc75401aacb0704299a8384881759a3fef7a7446e94ac"),
         "6": (1, "f8414e7baa42c8407e26341d35f4a363520394d5beecf9e7724bdedf95de8979")}),
    ("pbcat.laws.star", _dropped_star): (
        {"involution": "double star differs"},
        {"6": (1, "8eeba72ce0338800a80397deab71cf37eb1028a577f9a40834bf651a471cfcaf")}),
    ("pbcat.laws.cancellation_oracle", _oracle_flipped_at_2): (
        {"cancellation-agreement": "cancellation oracle disagrees with is_mono/is_epi"},
        {"6": (1, "616b4b95e20cca6c291b826db96eee2c2bdcf3c4978c8d60f4d733839f00a289")}),
    ("pbcat.baer.kernel", _kernel_missing_a_point): (
        {"kernel-universal": "kernel universal property failed",
         "normal-conormal": "mono is not a kernel"},
        {"6": (1, "2b8cd02bd07f332352da90dd2d5cde40d040c078496f1333287591d5077b55ef")}),
    ("pbcat.laws.kernel", _kernel_missing_a_point): (
        {"kernel-cokernel": "kernel/cokernel broken"},
        {"6": (1, "e0c8de084c170e01e959605e550c6f046aba5ffd6035a7400de6376eca4a2f37")}),
    ("pbcat.laws.normal_conormal_check", _flagged_at_2): (
        {"normal-conormal": "non-mono non-epi not flagged"},
        {"6": (1, "036b6c56e1c8dee44805b3cba15300375f57b4ca8eb1270a8392fcf22e44398e")}),
    ("pbcat.baer.annihilator_projection", _swapped_between_disjoint_objects): (
        {"baer-annihilator": "annihilator class mismatch"},
        {"6": (1, "3abb3ee29a852764636d68bf65717b8c39019b8e6a506eed3d8f8d83ce172d7a")}),
    ("pbcat.laws.inverse_monoid_size", _size_off_at_3): (
        {"monoid-size": "|I(3)| = 34, expected 35"},
        {"3": (1, "b21fe9732d7ebb92755614a10f3e3a8b23fa2050b992fdf2ec5c784dba0f8baf"),
         "6": (1, "e1a65ef3f4bb83561abce1328032fefe621e86a9392730316e51db0ffad534d4")}),
    ("pbcat.laws.symmetric_inverse_monoid", _i2_missing_one): (
        {"monoid-size": "|I(2)| = 6, expected 7",
         "monoid-closure": "composite escapes the monoid",
         "idempotent-census": "idempotent census failed at n=2: 4 declared, 3 found",
         "wagner-preston": "internal error: KeyError: PBij(1 2 -> 1 2: 1->1)"},
        {"3": (1, "f242f9a6f3f42f7ac774d48ad51b7c25a16759ab6942babd80cdc672b78a923d"),
         "6": (1, "398c93b3ad21c7a8a9710a4a54f2577b72b386200839a8f3944fae1ebfec102e")}),
    ("pbcat.laws.idempotents_of", _census_missing_one): (
        {"idempotent-census": "idempotent census failed at n=3: 7 declared, 8 found"},
        {"3": (1, "8529e92e956c6a3734930b5685101eb82ef9007447ab52dac05ca3325bfe57dc"),
         "6": (1, "225afcfc978062f9faf64c98abf820714d1f19b6605e1f5cd08b15daecff117f")}),
    ("pbcat.laws.unique_inverse_check", _inverses_not_unique_at_3): (
        {"unique-inverses": "inverse not unique in I(3)"},
        {"3": (1, "555a8d93c91d3af0ebe2f5487229238e8a58d81813eefb8c47bb779931d9ca51"),
         "6": (1, "89811dc722276d91e6285d9c2850466f21de7d2a09984fa6733183442d3a54b7")}),
    ("pbcat.laws.annihilator_projection", _short_annihilator): (
        {"annihilator-projection": "annihilator has the wrong support",
         "closed-projection": "projection is not closed"},
        {"3": (1, "852c1a7724b7da66974cec5a5869626d5f305ddce05abc6cf9313760e84a5802"),
         "6": (1, "e3200eabe062db637908bd41324b0e63f152e26d584fd60c3f7292e009b081d2")}),
    ("pbcat.laws.make_ses", _short_ses): (
        {"ses-construction": "beta is not the cokernel of alpha",
         "grid-completion": "completed row is not canonical"},
        {"3": (0, "e12e8206931755f69b8faabd0bba41eade6889ff9933cc862219e5e893d480a4"),
         "6": (1, "5c59412147d17905a5edfd3739ef1c7a6cd0ba92611d3a055696f58ee843798f")}),
    ("pbcat.laws.complete_3x3", _short_completion): (
        {"grid-completion": "completed row is not canonical"},
        {"3": (1, "d5cb84e71adfb27486dbef0a6cb219221ada8a992274518dbf75cf9cca7908c1"),
         "6": (1, "6e6125ecd10aa24a6185b991369c0e045cecbfa00ebcec485839e98a2fe7645b")}),
    ("pbcat.laws.noether_first", _short_first_iso): (
        {"noether-first": "unexpected isomorphism"},
        {"3": (0, "e12e8206931755f69b8faabd0bba41eade6889ff9933cc862219e5e893d480a4"),
         "6": (1, "6e2bdbe181b64c7aa06ab856fcfa865a703f2a258e1ec8f88e42fd305f1d1211")}),
    ("pbcat.laws.noether_second", _short_second_iso): (
        {"noether-second": "unexpected isomorphism"},
        {"3": (0, "e12e8206931755f69b8faabd0bba41eade6889ff9933cc862219e5e893d480a4"),
         "6": (1, "e701db2e4f2b16a81a3ccc11e0c3f4cabcd14ea8f4359a52d5f2332420bd42ef")}),
}


def _mutant_id(value):
    return value.__name__.lstrip("_") if callable(value) else value.removeprefix("pbcat.")


@pytest.mark.parametrize("target, broken, size",
                         [(*row, size) for row, (_, runs) in MUTANTS.items() for size in runs],
                         ids=_mutant_id)
def test_mutation_matrix(capsys, monkeypatch, target, broken, size):
    failures, runs = MUTANTS[target, broken]
    expected_code, digest = runs[size]
    monkeypatch.setattr(target, broken)
    code, out, err = run_cli(capsys, "check-axioms", "--max-size", size, "--seed", "3")
    assert code == expected_code and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    if code == 0:
        return
    assert [(name, description) for name, description, _ in counterexamples(out)] == list(
        failures.items())
    total = len(law_names())
    assert out.endswith(f"\nresult: FAIL ({total - len(failures)}/{total} laws)\n")
    # no blank line is doubled, and every pbij block parses as a record of
    # its own: extract_morphisms would glue blocks printed back to back
    assert "\n\n\n" not in out
    assert len(extract_morphisms(out)) == len(re.findall(r"^pbij ", out, re.M))
    replayed = replays(out)
    # the witnesses blame the mutation: the library itself passes them
    monkeypatch.undo()
    for _, _, check, morphisms in replayed:
        assert check(*morphisms) is None


def test_every_law_is_killed_with_a_witness():
    killed = {name for failures, _ in MUTANTS.values()
              for name, description in failures.items()
              if not description.startswith("internal error:")}
    assert set(law_names()) - killed == set()


@pytest.mark.parametrize("op, broken", [("compose", _empty_compose),
                                        ("compose", _swapped_compose),
                                        ("inverse", _lossy_inverse)],
                         ids=lambda v: getattr(v, "__name__", v).lstrip("_"))
def test_printed_witnesses_replay_through_their_law_check(capsys, monkeypatch, op, broken):
    failures, _ = MUTANTS[f"pbcat.laws.{op}", broken]
    monkeypatch.setattr(f"pbcat.laws.{op}", broken)
    code, out, _ = run_cli(capsys, "check-axioms", "--max-size", "6", "--seed", "3")
    assert code == 1
    replayed = replays(out)
    # every failure of a law with a named check, crashes aside, prints a
    # witness that the check replays
    assert [name for name, *_ in replayed] == [
        name for name, description in failures.items()
        if chain_checks(name) and not description.startswith("internal error:")]
    # every mutation breaks the unary inverse laws on a one-morphism witness
    assert [(description, check, len(morphisms))
            for name, description, check, morphisms in replayed
            if name == "inverse-laws"] == [("inverse law broken", laws._law_inverse, 1)]
    # the witnesses blame the mutation: the library itself passes them
    monkeypatch.undo()
    for _, _, check, morphisms in replayed:
        assert check(*morphisms) is None


def test_run_all_runs_every_law_in_registry_order():
    assert run_all(3, 5) == [run_law(name, 3, 5) for name in law_names()]


@pytest.mark.parametrize("length", [1, 2, 3])
def test_a_chain_sweep_checks_every_chain_once_in_product_order(length):
    seen = []
    steps = list(laws._chains(length, 2, lambda *chain: seen.append(chain), 6, None))
    expected, counts = [], []
    for sizes in itertools.product(range(3), repeat=length + 1):
        objects = [make(n) for make, n in zip(laws._CHAIN, sizes)]
        chains = list(itertools.product(
            *(list(enumerate_pbij(X, Y)) for X, Y in zip(objects, objects[1:]))))
        expected += [(chain, objects) for chain in chains]
        counts.append(len(chains))
    assert steps == [(count, None) for count in counts]
    assert len(seen) == len(expected)
    first = {}
    for chain, (want, objects) in zip(seen, expected):
        assert chain == want
        for i, f in enumerate(chain):
            # each morphism keeps its own objects, although the empty
            # objects of _src, _tgt and _mid are equal
            assert f.source is objects[i] and f.target is objects[i + 1]
            # a Hom-set is enumerated once in a run: its morphisms are the
            # same objects in every size tuple that uses it
            assert first.setdefault((id(f.source), id(f.target), f.graph), f) is f
    assert laws._src(0) == laws._tgt(0) == laws._mid(0)
    assert len({id(laws._src(0)), id(laws._tgt(0)), id(laws._mid(0))}) == 3
    # the next run enumerates afresh: nothing is kept between runs
    again = []
    list(laws._chains(length, 2, lambda *chain: again.append(chain), 6, None))
    assert again == seen and not any(f is g for f, g in zip(again[-1], seen[-1]))


@pytest.mark.parametrize("sweep, k", [
    # in the first size tuple, which holds one chain of zero morphisms, then
    # in later ones
    (lambda check: laws._each(2, 3, None, check), 1),
    (lambda check: laws._each(2, 3, None, check), 3),
    (lambda check: laws._each(2, 3, None, check), 1000),
    # the last of the 5 chains of bound 1, then samples of size 2 and of size 3
    (lambda check: laws._each(1, 1, 2, check), 5),
    (lambda check: laws._each(1, 1, 2, check), 6),
    (lambda check: laws._each(1, 1, 2, check), 40),
])
def test_a_failing_chain_is_counted_as_the_kth_case(monkeypatch, sweep, k):
    seen = []

    def check(*chain):
        seen.append(chain)
        return "failed" if len(seen) == k else None

    monkeypatch.setitem(laws.LAWS, "composition-closure", sweep(check))
    result = run_law("composition-closure", 6, 0)
    assert not result.ok and result.checked == len(seen) == k
    assert result.detail.startswith("failed\n")
    assert [m for _, m in extract_morphisms(result.detail)] == list(seen[-1])


def test_run_law_rejects_an_unknown_name():
    with pytest.raises(KeyError, match="unknown law 'nope'"):
        run_law("nope", 3, 0)


def test_check_axioms_passes_and_lists_every_law(capsys):
    code, out, _ = run_cli(capsys, "check-axioms", "--max-size", "2")
    assert code == 0
    law_lines = [l for l in out.splitlines() if l.startswith("PASS ")]
    assert len(law_lines) == 25
    assert "FAIL" not in out


def test_check_axioms_degenerate_universe(capsys):
    code, out, _ = run_cli(capsys, "check-axioms", "--max-size", "0")
    assert code == 0
    assert "result: PASS" in out


def test_check_axioms_catches_a_corrupted_composition(capsys, monkeypatch):
    # at the default seed, unlike the mutation matrix
    monkeypatch.setattr("pbcat.laws.compose", _empty_compose)
    code, out, _ = run_cli(capsys, "check-axioms", "--max-size", "2")
    assert code == 1
    assert "FAIL composition-closure" in out
    assert "counterexample:" in out
    assert "pbij f :" in out
    assert "result: FAIL" in out


def test_check_axioms_reports_a_crashing_law_as_failure(capsys, monkeypatch):
    def explode(g, f):
        raise RuntimeError("boom")

    monkeypatch.setattr("pbcat.laws.compose", explode)
    code, out, _ = run_cli(capsys, "check-axioms", "--max-size", "1")
    assert code == 1
    assert "internal error: RuntimeError: boom" in out


def test_enumerate_counts_and_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-size", "4", "--count-only")
    assert code == 0
    for line in ("|I(0)| = 1, idempotents = 1",
                 "|I(2)| = 7, idempotents = 4",
                 "|I(3)| = 34, idempotents = 8",
                 "|I(4)| = 209, idempotents = 16"):
        assert line in out
    assert "m0" not in out

    code, listing, _ = run_cli(capsys, "enumerate", "--max-size", "2")
    assert code == 0
    assert "  m0 : ∅" in listing
    assert "  m6 : 1->2 2->1" in listing


def test_enumerate_flags_a_corrupted_count(capsys, monkeypatch):
    from pbcat.core import enumerate_pbij as real

    def lossy(X, Y):
        items = list(real(X, Y))
        return iter(items[:-1] if len(X) == 2 else items)

    monkeypatch.setattr("pbcat.cli.enumerate_pbij", lossy)
    code, out, _ = run_cli(capsys, "enumerate", "--max-size", "2", "--count-only")
    assert code == 1
    assert "MISMATCH: expected |I(2)| = 7" in out


def test_kernel_report_round_trips(capsys, tmp_path):
    f = PBij(fin("1 2 3"), fin("a"), [("1", "a")])
    path = tmp_path / "f.pbij"
    path.write_text(serialize_pbij(f, "f"))
    code, out, _ = run_cli(capsys, "kernel", str(path))
    assert code == 0
    assert "kernel object: 2 3" in out
    assert "result: PASS" in out
    parsed = dict(extract_morphisms(out))
    assert parsed["f"] == f
    assert parsed["ker_f"] == kernel(f)


# morphism files: f has a full image, f-partial misses c, z is the zero
# morphism and e has an empty source
MORPHISM_FILES = {
    "f": serialize_pbij(PBij(fin("1 2 3"), fin("a b"), [("1", "b"), ("3", "a")]), "f"),
    "f-partial": serialize_pbij(PBij(fin("1 2 3"), fin("a b c"), [("1", "b"), ("3", "a")]), "f"),
    "z": "pbij z : 1 2 -> a b\n",
    "e": "pbij e : -> a\n",
}

# the kernel, cokernel and factorize reports on each morphism file, as recorded
RECORDED_REPORTS = {
    ("f", "kernel"): """\
pbcat report
command: kernel
max-size: 3
seed: 0

input:
pbij f : 1 2 3 -> a b
1 -> b
3 -> a

kernel object: 2
pbij ker_f : 2 -> 1 2 3
2 -> 2

mono: true
composite-is-zero: true
result: PASS
""",
    ("f", "cokernel"): """\
pbcat report
command: cokernel
max-size: 3
seed: 0

input:
pbij f : 1 2 3 -> a b
1 -> b
3 -> a

cokernel object: ∅
pbij coker_f : a b ->

epi: true
composite-is-zero: true
result: PASS
""",
    ("f", "factorize"): """\
pbcat report
command: factorize
max-size: 3
seed: 0

input:
pbij f : 1 2 3 -> a b
1 -> b
3 -> a

via object: a b
pbij epi_f : 1 2 3 -> a b
1 -> b
3 -> a

pbij mono_f : a b -> a b
a -> a
b -> b

mono: true
epi: true
recomposes: true
split-witness: true
result: PASS
""",
    ("f-partial", "kernel"): """\
pbcat report
command: kernel
max-size: 3
seed: 0

input:
pbij f : 1 2 3 -> a b c
1 -> b
3 -> a

kernel object: 2
pbij ker_f : 2 -> 1 2 3
2 -> 2

mono: true
composite-is-zero: true
result: PASS
""",
    ("f-partial", "cokernel"): """\
pbcat report
command: cokernel
max-size: 3
seed: 0

input:
pbij f : 1 2 3 -> a b c
1 -> b
3 -> a

cokernel object: c
pbij coker_f : a b c -> c
c -> c

epi: true
composite-is-zero: true
result: PASS
""",
    ("f-partial", "factorize"): """\
pbcat report
command: factorize
max-size: 3
seed: 0

input:
pbij f : 1 2 3 -> a b c
1 -> b
3 -> a

via object: a b
pbij epi_f : 1 2 3 -> a b
1 -> b
3 -> a

pbij mono_f : a b -> a b c
a -> a
b -> b

mono: true
epi: true
recomposes: true
split-witness: true
result: PASS
""",
    ("z", "kernel"): """\
pbcat report
command: kernel
max-size: 3
seed: 0

input:
pbij z : 1 2 -> a b

kernel object: 1 2
pbij ker_z : 1 2 -> 1 2
1 -> 1
2 -> 2

mono: true
composite-is-zero: true
result: PASS
""",
    ("z", "cokernel"): """\
pbcat report
command: cokernel
max-size: 3
seed: 0

input:
pbij z : 1 2 -> a b

cokernel object: a b
pbij coker_z : a b -> a b
a -> a
b -> b

epi: true
composite-is-zero: true
result: PASS
""",
    ("z", "factorize"): """\
pbcat report
command: factorize
max-size: 3
seed: 0

input:
pbij z : 1 2 -> a b

via object: ∅
pbij epi_z : 1 2 ->

pbij mono_z : -> a b

mono: true
epi: true
recomposes: true
split-witness: true
result: PASS
""",
    ("e", "kernel"): """\
pbcat report
command: kernel
max-size: 3
seed: 0

input:
pbij e : -> a

kernel object: ∅
pbij ker_e : ->

mono: true
composite-is-zero: true
result: PASS
""",
    ("e", "cokernel"): """\
pbcat report
command: cokernel
max-size: 3
seed: 0

input:
pbij e : -> a

cokernel object: a
pbij coker_e : a -> a
a -> a

epi: true
composite-is-zero: true
result: PASS
""",
    ("e", "factorize"): """\
pbcat report
command: factorize
max-size: 3
seed: 0

input:
pbij e : -> a

via object: ∅
pbij epi_e : ->

pbij mono_e : -> a

mono: true
epi: true
recomposes: true
split-witness: true
result: PASS
""",
}


@pytest.mark.parametrize("morphism, command", list(RECORDED_REPORTS),
                         ids=[f"{m}-{c}" for m, c in RECORDED_REPORTS])
def test_file_commands_print_the_recorded_report(capsys, tmp_path, morphism, command):
    path = tmp_path / f"{morphism}.pbij"
    path.write_text(MORPHISM_FILES[morphism])
    assert run_cli(capsys, command, str(path)) == (0, RECORDED_REPORTS[morphism, command], "")


def test_factorize_report_round_trips(capsys, tmp_path):
    f = PBij(fin("1 2"), fin("a b c"), [("1", "c"), ("2", "a")])
    path = tmp_path / "f.pbij"
    path.write_text(serialize_pbij(f, "f"))
    code, out, _ = run_cli(capsys, "factorize", str(path))
    assert code == 0
    assert "split-witness: true" in out
    parsed = dict(extract_morphisms(out))
    assert compose(parsed["mono_f"], parsed["epi_f"]) == f


def test_noether_commands_print_both_sides_and_the_iso(capsys):
    code, out, _ = run_cli(capsys, "noether2", "--x", "1 2 3",
                           "--x1", "1 2", "--x2", "2 3")
    assert code == 0
    assert "left  X2 - (X1 ∩ X2) = 3" in out
    assert "right (X1 ∪ X2) - X1 = 3" in out
    assert "verdict: EQUAL" in out
    (_, iso), = extract_morphisms(out)
    assert iso == PBij(fin("3"), fin("3"), [("3", "3")])

    code, out, _ = run_cli(capsys, "noether1", "--x", "a", "--x1", "", "--x2", "a")
    assert code == 0
    assert "left  (X - X1) - (X2 - X1) = ∅" in out
    assert "verdict: EQUAL" in out
    # an omitted set option is the empty set
    assert run_cli(capsys, "noether1", "--x", "a") == run_cli(
        capsys, "noether1", "--x", "a", "--x1", "", "--x2", "")

    for argv, iso in ((("noether2", "--x", "a b c d", "--x1", "a b", "--x2", "b c"),
                       "pbij iso : c -> c\nc -> c\n"),
                      (("noether1", "--x", "a b c d", "--x1", "a", "--x2", "a b"),
                       "pbij iso : c d -> c d\nc -> c\nd -> d\n")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.endswith(f"\nverdict: EQUAL\n\n{iso}\nresult: PASS\n")


@pytest.mark.parametrize("command, x, x1, x2, label, token", [
    ("noether1", "a : b", "a", "a b", "--x", ":"),
    ("noether1", "a -> b", "a", "a b", "--x", "->"),
    ("noether1", "a -> b", "a", "a ->", "--x", "->"),
    ("noether2", "a b", "a:", "b", "--x1", "a:"),
    ("noether2", "a b", "a", "-> b", "--x2", "->"),
], ids=["colon-in-iso", "arrow-in-iso", "arrow-outside-iso", "colon-in-x1", "arrow-in-x2"])
def test_noether_tokens_that_would_print_ambiguously_are_parse_errors(
        capsys, command, x, x1, x2, label, token):
    out, err = usage_error(capsys, command, "--x", x, "--x1", x1, "--x2", x2)
    assert out == ""
    assert err.splitlines()[-1] == (f"pbcat {command}: error: argument {label}: "
                                    f"element {token!r} would be ambiguous in the text format")


def test_noether_subset_violation_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "noether1", "--x", "a", "--x1", "z", "--x2", "a")
    assert (code, out, err) == (2, "", "pbcat: invalid subset: X1 must be a subset of X2\n")


def _relabelled(grid, row, rng):
    """grid and its expected bottom row, with each of the nine objects
    renamed by a random bijection onto tokens of its own, listed in a random
    order; every arrow is conjugated by the renamings of its endpoints."""
    names, objects = {}, {}
    for r, c in itertools.product(range(3), repeat=2):
        old = grid.objects[r][c].elements
        new = [f"t{r + 1}{c + 1}n{i}" for i in range(len(old))]
        rng.shuffle(new)
        names[r, c] = dict(zip(old, new))
        objects[r, c] = FinSet(rng.sample(new, len(new)))

    def moved(f, src, dst):
        return PBij(objects[src], objects[dst],
                    [(names[src][x], names[dst][y]) for x, y in f.items()])
    relabelled = Grid3x3(
        tuple(tuple(moved(f, (r, c), (r, c + 1)) for c, f in enumerate(grid.row_arrows[r]))
              for r in range(2)) + (None,),
        tuple(tuple(moved(f, (s, c), (s + 1, c)) for c, f in enumerate(grid.col_arrows[s]))
              for s in range(2)))
    return relabelled, tuple(moved(f, (2, c), (2, c + 1)) for c, f in enumerate(row))


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["canonical", "relabelled-1", "relabelled-2"])
def test_grid33_completes_the_grid_of_every_subset_pair(capsys, tmp_path, seed):
    # every A, B ⊆ X with |X| ≤ 3, nested or not: 1 + 4 + 16 + 64 grids
    rng = random.Random(seed)
    path = tmp_path / "grid.txt"
    for n in range(4):
        X = universe(n)
        for A, B in itertools.product(list(X.subsets()), repeat=2):
            grid, bottom = pair_grid(X, A, B), make_ses(X.difference(B), A.difference(B))
            row = (bottom.alpha, bottom.beta)
            if seed is not None:
                grid, row = _relabelled(grid, row, rng)
            path.write_text(serialize_grid(grid))
            code, out, err = run_cli(capsys, "grid33", str(path))
            assert (code, err) == (0, ""), (X, A, B)
            assert out.endswith("\nvalidation: PASS\n")
            printed = dict(extract_morphisms(out))
            for name, expected in zip(("phi", "psi"), row):
                assert printed[name] == expected, (X, A, B, name)
                assert printed[name].source.elements == expected.source.elements
                assert printed[name].target.elements == expected.target.elements


# the last lines of grid33's report, as recorded
@pytest.mark.parametrize("grid, bottom_row", [
    # A = a b and B = b c, which are not nested
    (lambda: pair_grid(fin("a b c d"), ["a", "b"], ["b", "c"]),
     "pbij phi : a -> a d\na -> a\n\npbij psi : a d -> d\nd -> d\n\nvalidation: PASS\n"),
    (lambda: build_noether_grid(fin("a b c d"), ["a"], ["a", "b"]),
     "pbij phi : b -> b c d\nb -> b\n\npbij psi : b c d -> c d\nc -> c\nd -> d\n\n"
     "validation: PASS\n"),
], ids=["pair-grid", "noether-grid"])
def test_grid33_prints_the_recorded_bottom_row(capsys, tmp_path, grid, bottom_row):
    path = tmp_path / "grid.txt"
    path.write_text(serialize_grid(grid()))
    code, out, err = run_cli(capsys, "grid33", str(path))
    assert (code, err) == (0, "")
    assert "".join(out.splitlines(keepends=True)[-bottom_row.count("\n"):]) == bottom_row


def test_grid33_rejects_a_mathematically_broken_grid(capsys, tmp_path):
    grid = build_noether_grid(universe(2), fin("1"), fin("1"))
    text = serialize_grid(grid).replace("arrow (1,1)->(2,1):\n1 -> 1\n",
                                        "arrow (1,1)->(2,1):\n")
    path = tmp_path / "grid.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "grid33", str(path))
    assert code == 1
    assert "invalid diagram" in err

    # row 2's beta sends a, which its alpha hits
    text = serialize_grid(build_noether_grid(fin("a b"), [], ["a"]))
    broken = text.replace("arrow (2,2)->(2,3):\nb -> b\n", "arrow (2,2)->(2,3):\na -> b\n")
    assert broken != text
    path.write_text(broken)
    assert run_cli(capsys, "grid33", str(path)) == (
        1, "", "pbcat: invalid diagram: row 2 is not exact: beta∘alpha is not the zero morphism\n")


def test_grid33_rejects_a_completion_made_with_a_lossy_inverse(capsys, monkeypatch, tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(serialize_grid(build_noether_grid(universe(4), fin("1"), fin("1 2"))))
    monkeypatch.setattr("pbcat.exact.inverse", _lossy_inverse)
    code, out, err = run_cli(capsys, "grid33", str(path))
    assert (code, out) == (1, "")
    assert err == "pbcat: invalid diagram: square at rows 2-3, columns 1-2 does not commute\n"


def test_wagner_preston_accepts_and_embeds(capsys, tmp_path):
    path = tmp_path / "z2.tbl"
    path.write_text("semigroup Z2 = e a\ne: e a\na: a e\n\n")
    code, out, _ = run_cli(capsys, "wagner-preston", str(path))
    assert code == 0
    parsed = dict(extract_morphisms(out))
    assert parsed["theta_e"] == PBij(fin("e a"), fin("e a"), [("e", "e"), ("a", "a")])
    assert parsed["theta_a"] == PBij(fin("e a"), fin("e a"), [("e", "a"), ("a", "e")])
    assert "result: PASS" in out

    # the chain 0 < 1 < 2 under min
    path.write_text(serialize_cayley(CayleyTable.from_operation("0 1 2".split(), min), "chain"))
    code, out, err = run_cli(capsys, "wagner-preston", str(path))
    assert (code, err) == (0, "") and "result: PASS" in out


def test_wagner_preston_rejects_left_zero_with_witness(capsys, tmp_path):
    path = tmp_path / "lz.tbl"
    path.write_text("semigroup LZ = a b\na: a a\nb: b b\n\n")
    code, out, _ = run_cli(capsys, "wagner-preston", str(path))
    assert code == 1
    assert "idempotents-commute: false" in out
    assert "witness: commuting-idempotents a b" in out
    assert "result: FAIL" in out


def test_wagner_preston_rejects_a_non_associative_table_with_unique_inverses(
        capsys, tmp_path):
    path = tmp_path / "q.tbl"
    path.write_text("semigroup Q = z a b\nz: z z z\na: z z b\nb: z a z\n\n")
    code, out, err = run_cli(capsys, "wagner-preston", str(path))
    assert code == 1 and err == ""
    assert "associative: false" in out
    assert "unique-inverses: true" in out
    assert "witness: associativity a a b" in out
    assert "result: FAIL not an inverse semigroup" in out


def test_wagner_preston_checks_each_printed_token_once(capsys, tmp_path):
    path = tmp_path / "i3.txt"
    path.write_text(serialize_cayley(i_of_n_table(3)))
    textio._joined.cache_clear()
    code, out, _ = run_cli(capsys, "wagner-preston", str(path))
    assert code == 0 and out.count("pbij theta_") == 34
    # each of the 34 blocks prints the carrier twice; only the first print
    # checks its tokens, and every later one finds it remembered
    info = textio._joined.cache_info()
    assert (info.misses, info.hits) == (1, 2 * 34 - 1)
    # a carrier that would print ambiguously is refused on every print
    carrier = fin("m0 a:b")
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(
                "element 'a:b' would be ambiguous in the text format")):
            serialize_pbij(PBij(carrier, carrier), "theta_m0")


def test_malformed_inputs_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.pbij"
    bad.write_text("pbij broken 1 -> a\n")
    code, out, err = run_cli(capsys, "kernel", str(bad))
    assert code == 2 and out == "" and "parse error: line 1" in err

    code, _, err = run_cli(capsys, "kernel", str(tmp_path / "missing.pbij"))
    assert code == 2 and "cannot read input" in err

    latin1 = tmp_path / "latin1.pbij"
    latin1.write_bytes("pbij f : 1 2 -> é\n1 -> é\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "kernel", str(latin1))
    assert code == 2 and out == "" and err.startswith("pbcat: cannot read input: ")

    repeated = tmp_path / "repeated-image.pbij"
    repeated.write_text("pbij f : 1 2 -> a\n1 -> a\n2 -> a\n")
    assert run_cli(capsys, "kernel", str(repeated)) == (
        2, "", "pbcat: parse error: line 3: 'a' is hit twice; not injective\n")

    unknown = tmp_path / "unknown-entry.tbl"
    unknown.write_text("semigroup S = e a\ne: e a\na: a q\n\n")
    assert run_cli(capsys, "wagner-preston", str(unknown)) == (
        2, "", "pbcat: parse error: line 3: unknown element 'q' in row 'a'\n")

    out, err = usage_error(capsys, "enumerate", "--max-size", "7")
    assert out == "" and err.endswith(
        "pbcat enumerate: error: argument --max-size: max-size must be between 0 and 6, got 7\n")


# one input file per reader: morphism, grid and Cayley table
LINE_END_FILES = {
    "kernel": serialize_pbij(PBij(fin("1 2 3 4"), fin("a b c"), [("1", "b"), ("3", "a")]), "f"),
    "grid33": serialize_grid(pair_grid(fin("1 2 3 4"), ["1", "2"], ["2", "3"])),
    "wagner-preston": serialize_cayley(CayleyTable.from_operation("0 1 2".split(), min), "chain"),
}


@pytest.mark.parametrize("command", list(LINE_END_FILES))
def test_crlf_and_lone_cr_line_ends_read_as_lf(capsys, tmp_path, command):
    text = LINE_END_FILES[command]
    crlf = text.replace("\n", "\r\n")
    outcomes = []
    for name, variant in (("lf", text), ("crlf", crlf), ("cr", text.replace("\n", "\r")),
                          ("mixed", crlf.replace("\r\n", "\r", 2).replace("\r\n", "\n", 1))):
        path = tmp_path / name
        path.write_bytes(variant.encode())
        outcomes.append(run_cli(capsys, command, str(path)))
    assert outcomes[0][0] == 0 and outcomes[0][2] == ""
    assert outcomes == [outcomes[0]] * 4


@pytest.mark.parametrize("data, error", [
    (b"\xef\xbb\xbfpbij f : 1 -> a\n1 -> a\n",
     "parse error: line 1: expected 'pbij', got '\\ufeffpbij'"),
    (b"pbi\xff f : 1 -> a\n1 -> a\n",
     "cannot read input: 'utf-8' codec can't decode byte 0xff in position 3: "
     "invalid start byte"),
    (b"#" * 9000 + b"\xc3(\n",
     "cannot read input: 'utf-8' codec can't decode byte 0xc3 in position 9000: "
     "invalid continuation byte"),
    (b"#" * 9000 + b"\xc3",
     "cannot read input: 'utf-8' codec can't decode byte 0xc3 in position 9000: "
     "unexpected end of data"),
], ids=["byte-order-mark", "invalid-start-byte-at-3", "invalid-continuation-past-8192",
        "truncated-at-the-end-past-8192"])
def test_undecodable_input_gets_the_text_mode_message(capsys, tmp_path, data, error):
    path = tmp_path / "f.pbij"
    path.write_bytes(data)
    assert run_cli(capsys, "kernel", str(path)) == (2, "", f"pbcat: {error}\n")


def test_a_directory_or_a_missing_path_gets_its_os_error(capsys, tmp_path):
    assert run_cli(capsys, "kernel", str(tmp_path)) == (
        2, "", f"pbcat: cannot read input: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    missing = tmp_path / "missing.grid"
    assert run_cli(capsys, "grid33", str(missing)) == (
        2, "", f"pbcat: cannot read input: [Errno 2] No such file or directory: "
               f"{str(missing)!r}\n")


def test_internal_contradiction_exits_one_with_a_message(capsys, monkeypatch):
    def contradict(n):
        raise InternalContradictionError("translation maps are not injective")

    monkeypatch.setattr(cli, "inverse_monoid_size", contradict)
    code, out, err = run_cli(capsys, "enumerate", "--max-size", "2")
    assert code == 1 and out == ""
    assert err == "pbcat: internal contradiction: translation maps are not injective\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "pbcat: error: the following arguments are required: command")


def test_the_parser_is_built_once_and_reuse_changes_no_output(capsys, tmp_path):
    path = tmp_path / "f.pbij"
    path.write_text(serialize_pbij(PBij(fin("1 2 3"), fin("a"), [("1", "a")]), "f"))

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    requests = (["kernel"], ["--help"], ["kernel", str(path)], ["kernel"])
    first = [outcome(argv) for argv in requests]
    assert [code for code, _, _ in first] == [2, 0, 0, 2]
    assert first[0][2].startswith("usage: pbcat kernel") and first[0][1] == ""
    assert first[1][1].startswith("usage: pbcat") and first[1][2] == ""
    assert "result: PASS" in first[2][1]
    assert first[3] == first[0]
    assert [outcome(argv) for argv in requests] == first
    assert cli._parsers()[0] is cli._parsers()[0]


# argvs whose parse main must leave unchanged; "{path}" stands for an input
# file of the command's kind
SINGLE_PARSE_CORPUS = {
    "no-arguments": [],
    "help": ["-h"],
    "long-help": ["--help"],
    "abbreviated-help": ["--he"],
    "unknown-command": ["bogus", "{path}"],
    "command-help": ["kernel", "-h"],
    "command-abbreviated-help": ["kernel", "--he"],
    "double-dash": ["kernel", "--", "{path}"],
    "option-equals-value": ["enumerate", "--max-size=1", "--count-only"],
    "abbreviated-option": ["enumerate", "--max", "1", "--count"],
    "repeated-option": ["enumerate", "--max-size", "2", "--max-size", "1"],
    "flag-with-value": ["enumerate", "--count-only=yes"],
    "bad-value": ["kernel", "--seed", "x", "{path}"],
    "missing-value": ["enumerate", "--max-size"],
    "missing-input": ["kernel"],
    "extra": ["kernel", "{path}", "extra"],
    "two-extras": ["factorize", "{path}", "extra", "--more"],
    "unknown-option-extra": ["cokernel", "--bogus", "{path}"],
    "option-before-command": ["--seed", "1", "kernel", "{path}"],
    "double-dash-before-command": ["--", "kernel", "{path}"],
    "noether1-equals": ["noether1", "--x=a b c", "--x1=a", "--x2=a b"],
    "noether2-options": ["noether2", "--x", "a b c", "--x2", "b c", "--x1", "a b"],
}
FILE_COMMANDS = ("kernel", "cokernel", "factorize", "grid33", "wagner-preston")
OTHER_COMMANDS = ("check-axioms", "enumerate", "noether1", "noether2")
# option-free argvs with the command's operand count, which main answers
# without argparse; every operand but "" names a file in the working directory
SINGLE_PARSE_CORPUS.update(
    {f"{command}-operand-{kind}": [command, operand] for command in FILE_COMMANDS
     for kind, operand in (("file", "{path}"), ("empty", ""), ("space", "a b"), ("at", "@x"),
                           ("plus", "+x"), ("equals", "x=1"), ("space-dash", " -x"),
                           ("non-ascii", "é"))})
SINGLE_PARSE_CORPUS.update({f"{command}-bare": [command] for command in OTHER_COMMANDS})
# option-free argvs that still reach argparse: a "-" operand, or a wrong count
for command in FILE_COMMANDS + OTHER_COMMANDS:
    SINGLE_PARSE_CORPUS[f"{command}-operand-dash"] = [command, "-"]
    SINGLE_PARSE_CORPUS[f"{command}-two-operands"] = [command, "{path}", "{path}"]
for command in FILE_COMMANDS[1:]:  # kernel's is "missing-input"
    SINGLE_PARSE_CORPUS[f"{command}-no-operand"] = [command]
for command in OTHER_COMMANDS:
    SINGLE_PARSE_CORPUS[f"{command}-one-operand"] = [command, "{path}"]
# exact options in every order; main reads these from its table
for command in ("check-axioms", "enumerate", "kernel"):
    for order, options in (("size-seed", ["--max-size", "1", "--seed", "5"]),
                           ("seed-size", ["--seed", "5", "--max-size", "1"])):
        operands = ["{path}"] if command == "kernel" else []
        SINGLE_PARSE_CORPUS[f"{command}-{order}"] = [command, *options, *operands]
SINGLE_PARSE_CORPUS["kernel-seed"] = ["kernel", "--seed", "7", "{path}"]
NOETHER_SETS = {"noether1": {"--x": "a b c d", "--x1": "a", "--x2": "a b"},
                "noether2": {"--x": "a b c", "--x1": "a b", "--x2": "b c"}}
for command, sets in NOETHER_SETS.items():
    for order in itertools.permutations(sets):
        SINGLE_PARSE_CORPUS[f"{command}-{'-'.join(o[2:] for o in order)}"] = [
            command, *itertools.chain.from_iterable((o, sets[o]) for o in order)]
    SINGLE_PARSE_CORPUS[f"{command}-all-options"] = [
        command, "--x2", sets["--x2"], "--seed", "3", "--x", sets["--x"], "--max-size", "0",
        "--x1", sets["--x1"]]
SINGLE_PARSE_CORPUS.update({
    # read by argparse: a repeated option, an abbreviation, the --x=a form
    "noether1-repeated": ["noether1", "--x", "a b", "--x", "a b c", "--x2", "a"],
    "kernel-repeated-seed": ["kernel", "--seed", "1", "--seed", "2", "{path}"],
    "noether2-abbreviated": ["noether2", "--max", "6", "--x", "a"],
    "check-axioms-abbreviated": ["check-axioms", "--max", "6", "--seed", "1"],
    "noether1-x-equals": ["noether1", "--x=a", "--x2", "a"],
    # the default --x with the other two given
    "noether1-no-x": ["noether1", "--x1", "", "--x2", ""],
    "noether2-no-x": ["noether2", "--x2", "", "--x1", ""],
    # values: empty, with a space, or starting with "-"
    "noether1-empty-values": ["noether1", "--x", "", "--x1", "", "--x2", ""],
    "noether2-spaced-value": ["noether2", "--x", "a b", "--x2", "a b"],
    "noether1-dash-value": ["noether1", "--x", "-a"],
    "noether1-dash-spaced-value": ["noether1", "--x", "-a b"],
    "noether2-negative-value": ["noether2", "--x", "-1", "--x2", "-1"],
    "kernel-empty-seed": ["kernel", "--seed", "", "{path}"],
    # values that their type rejects
    "enumerate-max-size-7": ["enumerate", "--max-size", "7"],
    "check-axioms-seed-negative": ["check-axioms", "--seed", "-1"],
    "noether1-duplicate-value": ["noether1", "--x", "a a"],
    "noether2-colon-value": ["noether2", "--x", "a:b"],
    "noether1-bad-second-value": ["noether1", "--x", "a", "--x1", "a:b", "--x2", "b b"],
    # flags, help, and an operand before an option
    "enumerate-count-only": ["enumerate", "--max-size", "2", "--count-only"],
    "enumerate-count-only-first": ["enumerate", "--count-only", "--max-size", "1"],
    "noether1-help": ["noether1", "--x", "a", "--help"],
    "kernel-operand-first": ["kernel", "{path}", "--seed", "1"],
    "check-axioms-value-after-operand": ["check-axioms", "--seed", "1", "2"],
})
# the arguments of a corpus case that no parser accepts
UNRECOGNIZED = {"extra": "extra", "two-extras": "extra --more", "unknown-option-extra": "--bogus"}
# what each file command reads
INPUT_TEXTS = {**dict.fromkeys(FILE_COMMANDS, LINE_END_FILES["kernel"]), **LINE_END_FILES}


@pytest.mark.parametrize("case", list(SINGLE_PARSE_CORPUS))
def test_a_request_is_parsed_once_as_the_top_level_parser_would(capsys, monkeypatch,
                                                                tmp_path, case):
    path = tmp_path / "f.in"
    argv = [arg.format(path=path) for arg in SINGLE_PARSE_CORPUS[case]]
    text = INPUT_TEXTS.get(argv[0] if argv else None, INPUT_TEXTS["kernel"])
    for arg in {str(path), *argv[1:]} - {""}:
        (tmp_path / arg).write_text(text)
    monkeypatch.chdir(tmp_path)

    def outcome(parse):
        try:
            result, code = parse(), None
        except SystemExit as exc:
            result, code = None, exc.code
        captured = capsys.readouterr()
        return result, code, captured.out, captured.err

    dispatched, parsed_by = [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(parser, *args, **kwargs):
        parsed_by.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    def recorded(step):
        # a namespace is dispatched once, whether its input is read or not
        def record(args):
            if not dispatched or dispatched[-1] is not args:
                dispatched.append(args)
            return step(args)
        return record

    monkeypatch.setattr(cli, "_read_input", recorded(cli._read_input))
    monkeypatch.setattr(cli, "_header", recorded(cli._header))
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    code, exit_code, out, err = outcome(lambda: main(argv))
    monkeypatch.undo()
    expected, expected_exit, expected_out, expected_err = outcome(
        lambda: cli._parsers()[0].parse_args(argv))
    if expected_exit is None:
        assert exit_code is None and dispatched == [expected]
        assert code in (0, 1) and err == "" or (code, out, err) == (
            2, "", "pbcat: cannot read input: [Errno 2] No such file or directory: ''\n")
    else:
        assert (exit_code, out, err) == (expected_exit, expected_out, expected_err)
        assert dispatched == []
    if argv and argv[0] in cli._parsers()[1]:
        # no parse for an argv that main reads from its table (one whose
        # shape fits and whose values pass), else one, by the command's own parser
        from_table = table_shaped(argv) and expected_exit is None
        assert parsed_by == ([] if from_table else [f"pbcat {argv[0]}"])
    if case in UNRECOGNIZED:
        assert exit_code == 2 and err.startswith("usage: pbcat [-h]")
        assert err.endswith(f"\npbcat: error: unrecognized arguments: {UNRECOGNIZED[case]}\n")


def test_main_reads_sys_argv_when_given_no_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pbcat", "enumerate", "--max-size", "1", "stray"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("pbcat: error: unrecognized arguments: stray\n")
    monkeypatch.setattr(sys, "argv", ["pbcat", "enumerate", "--max-size", "1"])
    assert main() == 0
    assert capsys.readouterr().out.endswith("|I(1)| = 2, idempotents = 2\n  m0 : ∅\n  m1 : 1->1\n")
