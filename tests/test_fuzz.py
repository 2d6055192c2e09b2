"""Seeded boundary fuzz of the file commands.

Valid morphism, grid and Cayley-table files are mutated three ways: a
character inserted, deleted or replaced; a token inserted, deleted or
replaced; and one grammar-aware change that keeps the file well formed
(one arrow pair or table entry changed), so that some mutants parse and
then fail the mathematics.  Every mutant goes through ``cli.main``, which
must return 0, 1 or 2 and raise nothing.  A second seeded set of morphism
and grid mutants goes straight to the parsers, and the outcome of each, its
error line and message or its re-serialized value, is pinned by a digest.
A third seeded set of argvs, built from the command names and option
strings, goes through ``cli.main`` and through ``parse_args``, and the two
must agree.
"""

import argparse
import hashlib
import random
import re

import pytest

from pbcat import cli
from pbcat.cli import main
from pbcat.core import PBij
from pbcat.exact import build_noether_grid
from pbcat.textio import ParseError, parse_grid, parse_pbij, serialize_grid, serialize_pbij

from helpers import OPERAND_COUNTS, VALUE_OPTIONS, fin, table_shaped, universe

SEED = 20_090_601
ROUNDS = 150

MORPHISMS = [
    serialize_pbij(PBij(fin("1 2 3"), fin("a b"), [("1", "b"), ("3", "a")]), "f"),
    serialize_pbij(PBij(fin("x y"), fin("x y z"), [("x", "z"), ("y", "x")]), "g"),
    serialize_pbij(PBij(fin("1"), fin(""), []), "z"),
]
GRIDS = [
    serialize_grid(build_noether_grid(universe(3), fin("1"), fin("1 2"))),
    serialize_grid(build_noether_grid(fin("a b c d"), fin("a"), fin("a b"))),
]
TABLES = [
    "semigroup Z2 = e a\ne: e a\na: a e\n\n",
    "semigroup C = 0 1 2\n0: 0 0 0\n1: 0 1 1\n2: 0 1 2\n\n",
    "semigroup B2 = z p q r s\nz: z z z z z\np: z p q z z\nq: z z z p q\n"
    "r: z r s z z\ns: z z z r s\n\n",
]
CHARS = "ab12 :->=(),\n\té∅"
TOKENS = ["->", ":", "pbij", "arrow", "object", "semigroup", "=", "(2,2)->(2,3):", "1", "a"]
PAIR = re.compile(r"^(\S+) -> (\S+)$", re.M)


def char_mutant(rng, text):
    i = rng.randrange(len(text) + 1)
    how = rng.randrange(3)
    if how == 0 or i == len(text):
        return text[:i] + rng.choice(CHARS) + text[i:]
    return text[:i] + (rng.choice(CHARS) if how == 1 else "") + text[i + 1:]


def token_mutant(rng, text):
    parts = re.split(r"(\s+)", text)
    words = [i for i, p in enumerate(parts) if p and not p.isspace()]
    i = rng.choice(words)
    new = rng.choice(TOKENS + [parts[j] for j in words])
    how = rng.randrange(3)
    parts[i] = (new + " " + parts[i], new, "")[how]
    return "".join(parts)


def pair_mutant(rng, text):
    """One arrow pair dropped or sent to another token of the file; a file
    without pairs comes back unchanged."""
    pairs = list(PAIR.finditer(text))
    if not pairs:
        return text
    m = rng.choice(pairs)
    if rng.randrange(2):
        return text[:m.start()] + text[m.end() + 1:]
    other = rng.choice([p.group(2) for p in pairs])
    return text[:m.start(2)] + other + text[m.end(2):]


def entry_mutant(rng, text):
    """One product entry of a Cayley table replaced by another element."""
    lines = text.split("\n")
    elements = lines[0].split("=")[1].split()
    row = rng.randrange(1, len(elements) + 1)
    label, entries = lines[row].split(":")
    entries = entries.split()
    entries[rng.randrange(len(entries))] = rng.choice(elements)
    lines[row] = f"{label}: {' '.join(entries)}"
    return "\n".join(lines)


# each command's valid files and the grammar-aware mutation for them
COMMANDS = {
    "kernel": (MORPHISMS, pair_mutant),
    "cokernel": (MORPHISMS, pair_mutant),
    "factorize": (MORPHISMS, pair_mutant),
    "grid33": (GRIDS, pair_mutant),
    "wagner-preston": (TABLES, entry_mutant),
}


def mutants(rng):
    """(command, text) pairs: each mutation of a valid file, ROUNDS times."""
    for _ in range(ROUNDS):
        for command, (files, grammar_mutant) in COMMANDS.items():
            text = rng.choice(files)
            for mutate in (char_mutant, token_mutant, grammar_mutant):
                yield command, mutate(rng, text)


def test_mutated_files_exit_zero_one_or_two_and_accepted_morphisms_round_trip(
        capsys, tmp_path):
    codes = set()
    for command, text in mutants(random.Random(SEED)):
        path = tmp_path / f"{command}.txt"
        path.write_text(text, encoding="utf-8")
        try:
            code = main([command, str(path)])
        except Exception as exc:
            pytest.fail(f"{command} raised {type(exc).__name__}: {exc} on {text!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (command, text, code)
        if code == 2:
            assert out == "" and err.startswith("pbcat: "), (command, text, err)
        codes.add(code)
        if COMMANDS[command][0] is MORPHISMS:
            try:
                name, f = parse_pbij(text)
            except ParseError:
                assert code == 2, (command, text, code)
            else:
                assert parse_pbij(serialize_pbij(f, name)) == (name, f), text
    assert codes == {0, 1, 2}


def _reserialized_pbij(text):
    name, f = parse_pbij(text)
    return serialize_pbij(f, name)


def _reserialized_grid(text):
    return serialize_grid(parse_grid(text))


PARSE_SEED = 20_261_020
PARSE_ROUNDS = 350
# each parser's valid files, read back and printed again when they parse
PARSERS = {"pbij": (MORPHISMS, _reserialized_pbij), "grid": (GRIDS, _reserialized_grid)}


def test_mutated_morphism_and_grid_texts_parse_or_fail_as_before():
    rng = random.Random(PARSE_SEED)
    outcomes = []
    for _ in range(PARSE_ROUNDS):
        for kind, (files, reserialized) in PARSERS.items():
            text = rng.choice(files)
            for mutate in (char_mutant, token_mutant, pair_mutant):
                try:
                    outcome = reserialized(mutate(rng, text))
                except ParseError as exc:
                    outcome = f"line {exc.line}: {exc.message}"
                outcomes.append(f"{kind} {mutate.__name__}: {outcome}")
    assert len(outcomes) == 2_100
    # both parsers accept some mutants and refuse others
    for kind in PARSERS:
        ours = [o for o in outcomes if o.startswith(kind)]
        assert 0 < sum(": line " in o for o in ours) < len(ours)
    # the outcome of every text, messages and line numbers included, as
    # the parsers gave them before their line walks were rewritten
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "94e5d4d1d44447d1c4ff08fb7aa9a0483d5dbefeedc61aa0464c5fe88049bb71"


ARGV_SEED = 20_261_022
ARGV_COUNT = 2_000
SETS = ("", "a", "b", "a b", "a b c", " b ")
BAD_SETS = ("a a", "a:b", "->", "a -> b", "-a", "-a b", "-1")
# the values an argv gives each option, and values that main leaves to
# argparse: ones that start with "-" and ones that the option's type rejects
VALUES = {"--max-size": ("0", "1", "6", " 2"), "--seed": ("0", "3", "18446744073709551615"),
          "--x": SETS, "--x1": SETS, "--x2": SETS}
BAD_VALUES = {"--max-size": ("7", "-1", "x", ""), "--seed": ("-1", "18446744073709551616", "1e3"),
              "--x": BAD_SETS, "--x1": BAD_SETS, "--x2": BAD_SETS}
FLAGS = ("--count-only", "-h", "--help")
OPERANDS = ("f.pbij", "", "-", "a b", "-x", "x:y", "->")
# tokens a mutation inserts: every option string, its prefixes, its --opt=v
# form, and the values
EXTRA_TOKENS = sorted({*VALUES, *FLAGS,
                       *(o[:k] for o in (*VALUES, *FLAGS) for k in range(2, len(o))),
                       *(f"{o}={v}" for o, vs in VALUES.items() for v in vs[:2]),
                       *SETS, *BAD_SETS, *OPERANDS, "--", "--bogus", "bogus", "kernel"})


def fuzz_argv(rng):
    """A command and some of its options, one in eight times with one of
    them twice, each with a value (one in six bad), in a random order, then
    its operands; then up to two tokens inserted, deleted or replaced after
    the command."""
    command = rng.choice([*OPERAND_COUNTS, "bogus"] if rng.randrange(40) else ["--seed", "-h"])
    options = [o for o in VALUE_OPTIONS.get(command, ()) if rng.randrange(2)]
    if options and rng.randrange(8) == 0:
        options.append(rng.choice(options))
    rng.shuffle(options)
    argv = [command]
    for option in options:
        argv += [option, rng.choice((BAD_VALUES if rng.randrange(6) == 0 else VALUES)[option])]
    argv += [rng.choice(OPERANDS) for _ in range(OPERAND_COUNTS.get(command, 0))]
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        i = rng.randrange(1, len(argv) + 1)
        how = rng.randrange(3)
        if how == 0 or i == len(argv):
            argv.insert(i, rng.choice(EXTRA_TOKENS))
        else:
            argv[i:i + 1] = [rng.choice(EXTRA_TOKENS)] if how == 1 else []
    return argv


@pytest.fixture
def dispatched(monkeypatch):
    """The namespaces main dispatches.  Every command's handler records its
    namespace and does nothing else, in parsers built for this test."""
    seen = []

    def record(args):
        seen.append(args)
        return [], 0

    for name in vars(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, record)
    cli._parsers.cache_clear()
    yield seen
    cli._parsers.cache_clear()


def test_fuzzed_argvs_get_what_parse_args_gives_and_skip_it_when_read_from_the_table(
        capsys, monkeypatch, dispatched):
    parser, commands, _ = cli._parsers()
    parsed_by = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(p, *args, **kwargs):
        parsed_by.append(p.prog)
        return parse_known_args(p, *args, **kwargs)

    def outcome(parse):
        try:
            result, code = parse(), None
        except SystemExit as exc:
            result, code = None, exc.code
        captured = capsys.readouterr()
        return result, code, captured.out, captured.err

    rng = random.Random(ARGV_SEED)
    from_table = 0
    for _ in range(ARGV_COUNT):
        argv = fuzz_argv(rng)
        dispatched.clear()
        parsed_by.clear()
        with monkeypatch.context() as patched:
            patched.setattr(argparse.ArgumentParser, "parse_known_args", counted)
            code, exit_code, out, err = outcome(lambda: main(argv))
        expected, expected_exit, expected_out, expected_err = outcome(
            lambda: parser.parse_args(argv))
        if expected_exit is None:
            assert (code, exit_code, err) == (0, None, ""), argv
            assert dispatched == [expected], argv
        else:
            assert (exit_code, out, err) == (expected_exit, expected_out, expected_err), argv
            assert dispatched == [], argv
        readable = table_shaped(argv) and expected_exit is None
        from_table += readable
        if argv[0] in commands:
            # no parse for an argv read from the table, else one, by the command's parser
            assert parsed_by == ([] if readable else [f"pbcat {argv[0]}"]), argv
        else:
            assert parsed_by[0] == "pbcat", argv
    # a fair share of the argvs takes each path
    assert ARGV_COUNT // 4 < from_table < ARGV_COUNT * 3 // 4
