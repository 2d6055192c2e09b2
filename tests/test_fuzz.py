"""Seeded boundary fuzz of the file commands.

Valid morphism, grid and Cayley-table files are mutated three ways: a
character inserted, deleted or replaced; a token inserted, deleted or
replaced; and one grammar-aware change that keeps the file well formed
(one arrow pair or table entry changed), so that some mutants parse and
then fail the mathematics.  Every mutant goes through ``cli.main``, which
must return 0, 1 or 2 and raise nothing.  A second seeded set of morphism
and grid mutants goes straight to the parsers, and the outcome of each, its
error line and message or its re-serialized value, is pinned by a digest.
"""

import hashlib
import random
import re

import pytest

from pbcat.cli import main
from pbcat.core import PBij
from pbcat.exact import build_noether_grid
from pbcat.textio import ParseError, parse_grid, parse_pbij, serialize_grid, serialize_pbij

from helpers import fin, universe

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
