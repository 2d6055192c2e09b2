import hashlib
import random
import re

import pytest

from pbcat.cli import main
from pbcat.core import FinSet, PBij, enumerate_pbij
from pbcat.exact import build_noether_grid, complete_3x3, pair_grid
from pbcat.monoid import CayleyTable
from pbcat.textio import (
    ParseError,
    format_set,
    parse_cayley,
    parse_grid,
    parse_pbij,
    serialize_cayley,
    serialize_grid,
    serialize_pbij,
)

from helpers import fin, universe


def test_format_set_uses_empty_set_symbol():
    assert format_set(fin("a b")) == "a b"
    assert format_set(FinSet()) == "∅"


def test_serialize_pbij_frozen_text():
    f = PBij(fin("1 2 3"), fin("a b"), [("1", "b"), ("3", "a")])
    assert serialize_pbij(f, "f") == "pbij f : 1 2 3 -> a b\n1 -> b\n3 -> a\n\n"


def test_serialize_pbij_empty_source_and_zero_morphism():
    z = PBij(FinSet(), fin("a"))
    assert serialize_pbij(z, "z") == "pbij z : -> a\n\n"
    name, back = parse_pbij(serialize_pbij(z, "z"))
    assert name == "z" and back == z


def test_pbij_round_trip_exhaustive_small():
    for f in enumerate_pbij(fin("1 2"), fin("a b c")):
        name, back = parse_pbij(serialize_pbij(f, "m"))
        assert name == "m"
        assert back == f


def test_pbij_round_trip_seeded_random_morphisms():
    rng = random.Random(20250815)
    alphabet = [f"s{i}" for i in range(8)] + [f"t{i}" for i in range(8)]
    for _ in range(100):
        src = FinSet(rng.sample(alphabet[:8], rng.randint(0, 8)))
        tgt = FinSet(rng.sample(alphabet[8:], rng.randint(0, 8)))
        k = rng.randint(0, min(len(src), len(tgt)))
        pairs = zip(rng.sample(src.elements, k), rng.sample(tgt.elements, k))
        f = PBij(src, tgt, pairs)
        _, back = parse_pbij(serialize_pbij(f))
        assert back == f


@pytest.mark.parametrize("text, line, fragment", [
    ("", 1, "empty input"),
    ("pbij f 1 -> a\n", 1, "pbij NAME :"),
    ("nope f : 1 -> a\n", 1, "expected 'pbij'"),
    ("pbij f : 1 2 -> a -> b\n", 1, "exactly one '->'"),
    ("pbij f : 1 1 -> a\n", 1, "duplicate"),
    ("pbij f : 1 -> a\n1 a\n", 2, "expected 'x -> y'"),
    ("pbij f : 1 -> a\n2 -> a\n", 2, "not in the source"),
    ("pbij f : 1 2 -> a\n1 -> a\n2 -> a\n", 3, "hit twice"),
    ("\npbij f : 1 2 3 -> a b c\n1 -> a\n1 -> a\n2 -> b\n3 -> b\n\n", 6, "hit twice"),
    ("pbij f : 1 -> a\n\nextra\n", 3, "unexpected content"),
    ("pbij x:y : 1 -> a\n", 1, "ambiguous"),
    ("pbij f : 1 -> a\n1:x -> a:y\n", 2, "element '1:x' would be ambiguous"),
    ("pbij f : 1 -> a\n1 -> ->\n", 2, "element '->' would be ambiguous"),
])
def test_parse_pbij_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError, match=fragment) as err:
        parse_pbij(text)
    assert err.value.line == line


def test_serialize_pbij_rejects_ambiguous_tokens():
    with pytest.raises(ValueError, match="ambiguous"):
        serialize_pbij(PBij(fin("a:b"), fin("x")), "f")
    with pytest.raises(ValueError, match="ambiguous"):
        serialize_pbij(PBij(fin("a"), fin("x")), "bad:name")
    with pytest.raises(ValueError, match="ambiguous"):
        serialize_pbij(PBij(fin("->"), fin("x")), "f")


def test_cayley_frozen_text_and_round_trip():
    z2 = CayleyTable(("e", "a"), ((0, 1), (1, 0)))
    text = serialize_cayley(z2, "Z2")
    assert text == "semigroup Z2 = e a\ne: e a\na: a e\n\n"
    name, back = parse_cayley(text)
    assert name == "Z2" and back == z2


def test_parse_cayley_does_not_recheck_what_it_read(monkeypatch):
    text = serialize_cayley(CayleyTable(("e", "a"), ((0, 1), (1, 0))), "Z2")

    def refuse(self):
        raise AssertionError("the parsed table was validated a second time")

    monkeypatch.setattr(CayleyTable, "__post_init__", refuse)
    name, table = parse_cayley(text)
    assert name == "Z2"
    assert (table.elements, table.product) == (("e", "a"), ((0, 1), (1, 0)))


def test_cayley_round_trip_empty_table():
    empty = CayleyTable((), ())
    name, back = parse_cayley(serialize_cayley(empty, "E"))
    assert name == "E" and back == empty


@pytest.mark.parametrize("text, fragment", [
    ("", "empty input"),
    ("semigroup S : e\n", "semigroup NAME ="),
    ("semigroup S = e e\n", "duplicate"),
    ("semigroup S = e a\ne: e a\n", "missing product row"),
    ("semigroup S = e a\nx: e a\na: a e\n", "expected row label"),
    ("semigroup S = e a\ne: e\na: a e\n", "expected 2"),
    ("semigroup S = e a\ne: e q\na: a e\n", "unknown element"),
    ("semigroup S = e\ne: e\n\ntrailing\n", "unexpected content"),
])
def test_parse_cayley_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_cayley(text)


def grid_fixture():
    return build_noether_grid(universe(4), fin("1"), fin("1 2"))


def test_grid_round_trip_without_bottom_row():
    grid = grid_fixture()
    back = parse_grid(serialize_grid(grid))
    assert back == grid
    assert not back.has_bottom_row


def test_grid_round_trip_with_bottom_row():
    grid = grid_fixture()
    completed = grid.with_bottom_row(*complete_3x3(grid))
    back = parse_grid(serialize_grid(completed))
    assert back == completed
    back.validate()


def _blocks(text):
    """A serialized grid's object lines, as one block, and its arrow blocks."""
    head, *arrows = text.rstrip("\n").split("\n\n")
    return head, arrows


def _reversed_blocks(text):
    head, arrows = _blocks(text)
    return "\n\n".join([head, *reversed(arrows)]) + "\n\n"


def _no_blank_lines(text):
    head, arrows = _blocks(text)
    return "\n".join([head, *arrows]) + "\n"


def _doubled_blank_lines_and_trailing_spaces(text):
    head, arrows = _blocks(text)
    return "\n\n\n".join(b.replace("\n", "  \n") + "  " for b in (head, *arrows)) + "\n\n"


def _headers_split_by_other_whitespace(text):
    """Tabs, vertical tabs and form feeds, which str.split() splits at too."""
    return re.sub(r"^(object|arrow) ", "\\1\t", text, flags=re.M).replace(" = ", "\v=\f")


# layouts of a serialized grid that must read as the same grid
LAYOUTS = (str, _reversed_blocks, _no_blank_lines, _doubled_blank_lines_and_trailing_spaces,
           _headers_split_by_other_whitespace)


def test_every_small_pair_grid_round_trips_before_and_after_completion():
    grids = 0
    for n in range(4):
        X = universe(n)
        for A in X.subsets():
            for B in X.subsets():
                grid = pair_grid(X, A, B)
                completed = grid.with_bottom_row(*complete_3x3(grid))
                for g in (grid, completed):
                    text = serialize_grid(g)
                    for layout in LAYOUTS:
                        assert parse_grid(layout(text)) == g, layout.__name__
                grids += 1
    assert grids == 1 + 4 + 16 + 64


def test_grid_round_trip_all_objects_empty():
    grid = build_noether_grid(FinSet(), (), ())
    assert parse_grid(serialize_grid(grid)) == grid


def test_grid_serialized_shape_is_stable():
    text = serialize_grid(grid_fixture())
    lines = text.splitlines()
    assert lines[0] == "object 1 1 = 1"
    assert lines[4] == "object 2 2 = 1 2 3 4"
    assert lines[8] == "object 3 3 = 3 4"
    assert lines[10] == "arrow (1,1)->(1,2):"
    assert text.count("arrow") == 10


def test_parse_grid_accepts_arrow_blocks_in_any_order():
    text = serialize_grid(grid_fixture())
    head, _, tail = text.partition("arrow")
    blocks = ("arrow" + b for b in tail.split("arrow"))
    reordered = head + "".join(sorted(blocks, reverse=True))
    assert parse_grid(reordered) == grid_fixture()


# (name, mangle, line, message): the fixture's text, mangled, fails at that
# line with that message.  A row's test id is "<lambda>-" and its name, the
# id pytest made for the first eight rows from their lambda and a fragment.
GRID_ERRORS = [
    ("indices must be", lambda t: t.replace("object 1 1", "object 1 9"),
     1, "object row/column indices must be 1, 2, or 3"),
    ("given twice", lambda t: t.replace("object 1 1", "object 1 2", 1),
     2, "object 1,2 given twice"),
    ("one cell", lambda t: t.replace("arrow (1,1)->(1,2):", "arrow (1,1)->(2,2):"),
     11, "arrows must step one cell right or one cell down"),
    ("expected 'arrow", lambda t: t.replace("arrow (1,1)->(1,2):", "arrow (1,1)->(1,2)"),
     11, "expected 'arrow (r,c)->(r,c):', got 'arrow (1,1)->(1,2)'"),
    ("given twice", lambda t: t + "arrow (1,1)->(1,2):\n\n",
     44, "arrow (1,1)->(1,2) given twice"),
    ("missing arrow (1,2)->(1,3)", lambda t: t.replace("arrow (1,2)->(1,3):\n\n", ""),
     41, "missing arrow (1,2)->(1,3)"),
    ("expected nine", lambda t: "object 1 1 =\n",
     1, "expected nine 'object ROW COL = ...' lines"),
    ("not in the source", lambda t: t.replace("2 -> 2\n3 -> 3", "2 -> 2\n9 -> 3"),
     37, "'9' is not in the source set"),
    # a cell outside the grid, on either side of the arrow
    ("cell (0,1)", lambda t: t.replace("arrow (1,1)->(1,2):", "arrow (0,1)->(1,2):"),
     11, "expected a cell like (1,2), got '(0,1)'"),
    ("cell (1,4)", lambda t: t.replace("arrow (1,2)->(1,3):", "arrow (1,3)->(1,4):"),
     14, "expected a cell like (1,2), got '(1,4)'"),
    ("trailing token", lambda t: t.replace("arrow (1,1)->(1,2):", "arrow (1,1)->(1,2): 1"),
     11, "expected 'arrow (r,c)->(r,c):', got 'arrow (1,1)->(1,2): 1'"),
    ("doubled colon", lambda t: t.replace("arrow (1,1)->(1,2):", "arrow (1,1)->(1,2)::"),
     11, "expected a cell like (1,2), got '(1,2):'"),
    ("object without =", lambda t: t.replace("object 2 2 = ", "object 2 2 "),
     5, "expected 'object ROW COL = ...', got 'object 2 2 1 2 3 4'"),
    # a line that starts with "object" ends an arrow block, like a header
    ("object after arrows",
     lambda t: t.replace("1 -> 1\n\narrow (1,2)", "1 -> 1\nobject 1 1 = 1\n\narrow (1,2)"),
     13, "expected 'arrow (r,c)->(r,c):', got 'object 1 1 = 1'"),
    ("arrow before ninth object", lambda t: t.replace("object 3 3 = 3 4\n", ""),
     10, "expected 'object ROW COL = ...', got 'arrow (1,1)->(1,2):'"),
    # str.split() separates tokens at any whitespace, so these reach the
    # same checks as a space-separated header
    ("tab in arrow header", lambda t: t.replace("arrow (1,1)->(1,2):", "arrow\t(1,1)->(1,2)"),
     11, "expected 'arrow (r,c)->(r,c):', got 'arrow\\t(1,1)->(1,2)'"),
    ("vertical tab in object line",
     lambda t: t.replace("object 1 1 = 1", "object\v1\v9\v=\v1"),
     1, "object row/column indices must be 1, 2, or 3"),
    ("form feed in arrow header",
     lambda t: t.replace("arrow (1,1)->(1,2):", "arrow\f(1,1)->(2,2):"),
     11, "arrows must step one cell right or one cell down"),
    ("tab-separated repeat", lambda t: t + "arrow\t(2,1)->(2,2):\n",
     44, "arrow (2,1)->(2,2) given twice"),
]


@pytest.mark.parametrize("mangle, line, message", [
    pytest.param(mangle, line, message, id=f"<lambda>-{name}")
    for name, mangle, line, message in GRID_ERRORS])
def test_parse_grid_errors(mangle, line, message):
    text = mangle(serialize_grid(grid_fixture()))
    with pytest.raises(ParseError) as err:
        parse_grid(text)
    assert (err.value.line, err.value.message) == (line, message)


def test_parse_grid_names_the_line_of_the_pair_that_breaks_an_arrow():
    text = serialize_grid(grid_fixture()).replace("2 -> 2\n3 -> 3", "2 -> 2\n9 -> 3")
    lines = text.split("\n")
    with pytest.raises(ParseError, match="'9' is not in the source") as err:
        parse_grid(text)
    # the arrow's header is two lines up
    assert lines[err.value.line - 3] == "arrow (2,2)->(3,2):"
    assert lines[err.value.line - 1] == "9 -> 3"


def test_parse_grid_rejects_half_a_bottom_row():
    grid = grid_fixture()
    completed = grid.with_bottom_row(*complete_3x3(grid))
    text = serialize_grid(completed)
    start = text.index("arrow (3,1)->(3,2):")
    end = text.index("arrow (3,2)->(3,3):")
    with pytest.raises(ParseError, match="both arrows or neither"):
        parse_grid(text[:start] + text[end:])



def _line_count(text):
    """The lines of a text as an editor numbers them; an empty text has one."""
    return max(1, len(text.splitlines()))


def _records():
    grid = grid_fixture()
    yield parse_pbij, serialize_pbij(PBij(fin("1 2 3"), fin("a b"), [("1", "b"), ("3", "a")]))
    yield parse_cayley, serialize_cayley(CayleyTable.from_operation("0 1 2".split(), min))
    yield parse_grid, serialize_grid(grid)
    yield parse_grid, serialize_grid(grid.with_bottom_row(*complete_3x3(grid)))


def test_a_record_cut_after_any_line_fails_at_a_line_it_has():
    failures = 0
    for parse, text in _records():
        lines = text.split("\n")
        for k in range(len(lines) + 1):
            for cut in ("\n".join(lines[:k]), "\n".join(lines[:k]) + "\n"):
                try:
                    parse(cut)
                except ParseError as exc:
                    failures += 1
                    assert 1 <= exc.line <= _line_count(cut), (cut, str(exc))
    assert failures > 40


@pytest.mark.parametrize("parse, text, fragment", [
    (parse_grid, "object 1 1 = a\n", "expected nine"),
    (parse_grid, "", "expected nine"),
    (parse_grid, serialize_grid(grid_fixture()).replace("arrow (1,2)->(1,3):\n\n", ""),
     "missing arrow (1,2)->(1,3)"),
    (parse_cayley, "semigroup S = a b\na: a b\n", "missing product row for 'b'"),
], ids=["one-object", "empty-grid", "missing-arrow", "missing-row"])
def test_an_input_that_ends_early_fails_at_its_last_line(parse, text, fragment):
    with pytest.raises(ParseError, match=re.escape(fragment)) as err:
        parse(text)
    assert err.value.line == _line_count(text)


# -- parse_cayley against seeded mutations of serialized tables --------------

def _random_table(rng, n):
    names = rng.sample([f"e{i}" for i in range(12)], n)
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    return CayleyTable(names, rows)


def _mutate(rng, kind, table):
    """One serialized table with one defect of the given kind."""
    lines = serialize_cayley(table, "S").split("\n")
    names, n = table.elements, len(table)
    i = 1 + rng.randrange(n)  # a row line
    row = lines[i].split()
    if kind == "unknown entry":  # one or two, and the first one is reported
        for j, token in zip(rng.sample(range(n), rng.randint(1, 2)), ("zz", "zy")):
            row[1 + j] = token
    elif kind == "known entry":
        row[1 + rng.randrange(n)] = rng.choice(names)
    elif kind == "short row":
        row.pop()
    elif kind == "long row":
        row.append(rng.choice(names))
    elif kind == "duplicate name":
        header = lines[0].split()
        k, m = rng.sample(range(n), 2)
        header[3 + k] = names[m]
        lines[0] = " ".join(header)
    elif kind == "missing row":
        del lines[i]
        return "\n".join(lines)
    elif kind == "wrong row label":
        other = rng.choice([e for e in names if e != names[i - 1]])
        row[0] = rng.choice([f"{other}:", "zz:", names[i - 1]])
    elif kind == "trailing content":
        lines.append(rng.choice(["extra", "e0: e0", "semigroup T = a"]))
    lines[i] = " ".join(row)
    return "\n".join(lines)


MUTATION_KINDS = ("unknown entry", "known entry", "short row", "long row",
                  "duplicate name", "missing row", "wrong row label", "trailing content")


def _mutated_tables():
    rng = random.Random(20260707)
    for _ in range(40):
        table = _random_table(rng, rng.randint(2, 6))
        for kind in MUTATION_KINDS:
            yield kind, _mutate(rng, kind, table)


def test_mutated_cayley_texts_parse_to_valid_tables_or_fail_as_before(capsys, tmp_path):
    outcomes = []
    path = tmp_path / "table.txt"
    for kind, text in _mutated_tables():
        try:
            _, table = parse_cayley(text)
        except ParseError as exc:
            outcomes.append(f"{kind}: line {exc.line}: {exc.message}")
            path.write_text(text)
            assert main(["wagner-preston", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"pbcat: parse error: {exc}\n"
        else:
            # the rebuild holds tuples, and a list never equals a tuple
            rebuilt = CayleyTable(table.elements, table.product)
            assert (table.elements, table.product) == (rebuilt.elements, rebuilt.product)
            outcomes.append(f"{kind}: parsed")
    assert [o for o in outcomes if o.endswith("parsed")] == ["known entry: parsed"] * 40
    # the outcome of every text, messages included, as the parser gave them
    # before it built its tables unchecked
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "211e0240a08fe941d0726b1e2da0aec0c2b551c633b8bb1d336b9ac01276abd5"
