"""Plain-text formats for morphisms, Cayley tables, and 3x3 grids.

Three line-oriented formats, all whitespace-tokenized and terminated by a
blank line:

    pbij NAME : x1 x2 -> y1 y2        semigroup NAME = e1 e2
    x1 -> y2                          e1: e1 e2
                                      e2: e2 e1

    object 1 1 = a b    (nine object lines, 1-based row/column)
    arrow (1,1)->(1,2):
    a -> b
                        (one block per arrow; bottom-row arrows optional)

Tokens are opaque, but a token cannot contain whitespace or ":" and cannot
be the literal "->"; those would make the formats ambiguous.  Serializers
refuse such tokens, parsers report them with a line number.  Empty sets
serialize to an empty token list (reports elsewhere print them as ∅).

The parsers walk the input's lines by index and split each line once.  A
pair line is tested in place; a header or object line checks its element
list through one join, and walks it token by token only when it fails, to
name the first bad token; of the set constructor's checks, only the
duplicate check runs on it (``core._split_set``).  A grid's object line is
found by one lookup of its first four tokens and an arrow header by one
lookup of its cell token, among the twelve one-cell steps; an arrow's pair
lines are read in the same loop.  Only a line that misses its lookup,
repeats a cell or an arrow, or fails the pair test goes through the checks
that say what is wrong with it, so a valid input pays only for its tokens.
The parsers collect a morphism's pairs and leave the map's own checks to
the :class:`PBij` constructor.  On the way out, an element list is checked
the same way, through one join.

parse(serialize(x)) returns a value equal to x for all three formats.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .core import FinSet, PBij, _split_set
from .exact import Grid3x3
from .monoid import CayleyTable, _trusted_table


class ParseError(ValueError):
    """Malformed textual input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def format_set(X: FinSet) -> str:
    """Human-readable element list for reports; the empty set prints as ∅."""
    return " ".join(X.elements) if len(X) else "∅"


def _check_token(token: str, what: str) -> str:
    if not token or token.split() != [token]:
        raise ValueError(f"{what} {token!r} is empty or contains whitespace")
    if ":" in token or token == "->":
        raise ValueError(f"{what} {token!r} would be ambiguous in the text format")
    return token


def _check_elements(tokens: Sequence[str]) -> Sequence[str]:
    """Element tokens that ``str.split()`` produced, so non-empty and free
    of whitespace, checked for ":" and "->" through one join.  Only a list
    that fails is walked, to name its first bad token."""
    if ":" in " ".join(tokens) or "->" in tokens:
        for t in tokens:
            _check_token(t, "element")
    return tokens


@functools.lru_cache(maxsize=64)
def _joined(elements: tuple[str, ...]) -> str:
    """The element tokens of one printed object, checked and joined by
    spaces.  The joined text is the check: it splits back into the tokens
    and holds no ":", and no token is "->".  A report prints the same
    object many times (a Wagner-Preston report prints its carrier twice per
    element), so the last few element tuples are remembered; the bound
    keeps a long run from holding every object it ever printed."""
    text = " ".join(elements)
    if ":" in text or "->" in elements or text.split() != list(elements):
        for e in elements:
            _check_token(e, "element")
    return text


def _parse_token(token: str, what: str, line: int) -> str:
    try:
        return _check_token(token, what)
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None


def _lines(text: str) -> list[str]:
    """The lines of an input.  A final newline ends the last line rather
    than starting one, and an empty input is one empty line.  So an input
    has at least one line, and ``lines[i]`` is line number i + 1."""
    lines = text.split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()
    return lines


def _next_content(lines: list[str], i: int) -> tuple[int, list[str]]:
    """The number and tokens of the first line with tokens from
    ``lines[i]`` on; at the end, the last line's number and no tokens."""
    for i in range(i, len(lines)):
        tokens = lines[i].split()
        if tokens:
            return i + 1, tokens
    return len(lines), []


def _expect_end(lines: list[str], i: int, what: str) -> None:
    i, tokens = _next_content(lines, i)
    if tokens:
        raise ParseError(i, f"unexpected content after {what}: {lines[i - 1].strip()!r}")


def serialize_pbij(f: PBij, name: str = "f") -> str:
    """One header line, one line per graph pair (source order), blank line."""
    _check_token(name, "morphism name")
    header = " ".join(filter(None, ("pbij", name, ":", _joined(f.source.elements),
                                    "->", _joined(f.target.elements))))
    return "\n".join([header, *map(" -> ".join, f.items()), "", ""])


def _check_pair_line(line: str, tokens: list[str], lineno: int) -> None:
    """The checks of one `x -> y` line: three tokens, "->" in the middle,
    and neither side holds ":" or is "->".  The parsers test a pair line in
    place and come here only when it fails, so the token check can name
    its bad side."""
    if len(tokens) != 3 or tokens[1] != "->":
        raise ParseError(lineno, f"expected 'x -> y', got {line.strip()!r}")
    x, _, y = tokens
    if ":" in line or x == "->" or y == "->":
        _parse_token(x, "element", lineno)
        _parse_token(y, "element", lineno)


def _read_pairs(lines: list[str], i: int) -> tuple[int, list[tuple[str, str]]]:
    """The `x -> y` pairs from ``lines[i]`` on, up to a blank line or the
    end; returns the index of the line that ended them and the pairs."""
    pairs: list[tuple[str, str]] = []
    for i in range(i, len(lines)):
        line = lines[i]
        tokens = line.split()
        if not tokens:
            return i, pairs
        if (len(tokens) != 3 or tokens[1] != "->" or ":" in tokens[0] or ":" in tokens[2]
                or tokens[0] == "->" or tokens[2] == "->"):
            _check_pair_line(line, tokens, i + 1)
        pairs.append((tokens[0], tokens[2]))
    return len(lines), pairs


def _build_pbij(source: FinSet, target: FinSet, pairs: list[tuple[str, str]],
                header_line: int) -> PBij:
    """The morphism whose pairs sit one per line after ``header_line``.  The
    constructor reads the pairs in order and stops at the first one that
    breaks the morphism, so the pairs it left unread give that pair's line."""
    unread = iter(pairs)
    try:
        return PBij(source, target, unread)
    except ValueError as exc:
        line = header_line + len(pairs) - sum(1 for _ in unread)
        raise ParseError(line, str(exc)) from None


def parse_pbij(text: str) -> tuple[str, PBij]:
    """Parse a single morphism record; returns (name, morphism)."""
    lines = _lines(text)
    lineno, tokens = _next_content(lines, 0)
    if not tokens:
        raise ParseError(1, "empty input, expected a 'pbij' header")
    if tokens[0] != "pbij":
        raise ParseError(lineno, f"expected 'pbij', got {tokens[0]!r}")
    if len(tokens) < 4 or tokens[2] != ":":
        raise ParseError(lineno, "header must look like 'pbij NAME : src -> tgt'")
    name = _parse_token(tokens[1], "morphism name", lineno)
    rest = tokens[3:]
    if rest.count("->") != 1:
        raise ParseError(lineno, "header needs exactly one '->' between the element lists")
    split = rest.index("->")
    try:
        source = _split_set(_check_elements(rest[:split]))
        target = _split_set(_check_elements(rest[split + 1:]))
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    read, pairs = _read_pairs(lines, lineno)
    f = _build_pbij(source, target, pairs, lineno)
    _expect_end(lines, read, "the morphism block")
    return name, f


def serialize_cayley(table: CayleyTable, name: str = "S") -> str:
    """Header with the element list, then one product row per element."""
    _check_token(name, "semigroup name")
    lines = [f"semigroup {name} = {_joined(table.elements)}".rstrip()]
    for i, e in enumerate(table.elements):
        row = " ".join(table.elements[j] for j in table.product[i])
        lines.append(f"{e}: {row}".rstrip())
    return "\n".join(lines) + "\n\n"


def parse_cayley(text: str) -> tuple[str, CayleyTable]:
    """Parse a Cayley table record; returns (name, table).

    Each fact about the table's shape is checked once, here, while reading:
    the header names are distinct tokens, there is one labelled row per
    name, each row has n entries, and each entry is a known name, found
    with one index lookup.  The table is then built without the
    :class:`CayleyTable` constructor's re-check of the same facts.  The
    algebra is left to :func:`pbcat.monoid.verify_inverse_semigroup`.
    """
    lines = _lines(text)
    lineno, tokens = _next_content(lines, 0)
    if not tokens:
        raise ParseError(1, "empty input, expected a 'semigroup' header")
    if tokens[0] != "semigroup":
        raise ParseError(lineno, f"expected 'semigroup', got {tokens[0]!r}")
    if len(tokens) < 3 or tokens[2] != "=":
        raise ParseError(lineno, "header must look like 'semigroup NAME = e1 e2 ...'")
    name = _parse_token(tokens[1], "semigroup name", lineno)
    try:
        elements = tuple(_check_elements(tokens[3:]))
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ParseError(lineno, "duplicate element identifiers")

    rows: list[tuple[int, ...]] = []
    end = len(lines)
    for i, e in enumerate(elements, lineno):  # e's row is lines[i]
        if i == end or not (tokens := lines[i].split()):
            raise ParseError(min(i + 1, end), f"missing product row for {e!r}")
        if not tokens[0].endswith(":") or tokens[0][:-1] != e:
            raise ParseError(i + 1, f"expected row label '{e}:', got {tokens[0]!r}")
        entries = tokens[1:]
        if len(entries) != len(elements):
            raise ParseError(i + 1,
                             f"row {e!r} has {len(entries)} entries, expected {len(elements)}")
        try:
            rows.append(tuple(map(index.__getitem__, entries)))
        except KeyError as exc:  # the first unknown entry of the row
            raise ParseError(i + 1,
                             f"unknown element {exc.args[0]!r} in row {e!r}") from None
    table = _trusted_table(elements, tuple(rows))
    _expect_end(lines, lineno + len(elements), "the table")
    return name, table


def _arrow_header(src: tuple[int, int], dst: tuple[int, int]) -> str:
    return (f"arrow ({src[0] + 1},{src[1] + 1})"
            f"->({dst[0] + 1},{dst[1] + 1}):")


def serialize_grid(grid: Grid3x3) -> str:
    """Nine object lines, then one block per arrow; row arrows first."""
    chunks = []
    for r, row in enumerate(grid.objects):
        for c, obj in enumerate(row):
            tokens = _joined(obj.elements)
            chunks.append(f"object {r + 1} {c + 1} = {tokens}".rstrip())
    chunks.append("")

    def emit(src: tuple[int, int], dst: tuple[int, int], arrow: PBij) -> None:
        chunks.append(_arrow_header(src, dst))
        chunks.extend(map(" -> ".join, arrow.items()))
        chunks.append("")

    for r in range(3):
        arrows = grid.row_arrows[r]
        if arrows is None:
            continue
        for c in range(2):
            emit((r, c), (r, c + 1), arrows[c])
    for s in range(2):
        for c in range(3):
            emit((s, c), (s + 1, c), grid.col_arrows[s][c])
    return "\n".join(chunks) + "\n"


# an object line's cell, as 0-based (row, column), keyed by its first four tokens
_OBJECT_LINES = {("object", str(r + 1), str(c + 1), "="): (r, c)
                 for r in range(3) for c in range(3)}
# the cells an arrow header may name, as 0-based (row, column)
_CELLS = {f"({r + 1},{c + 1})": (r, c) for r in range(3) for c in range(3)}
# the one-cell steps in the order a grid holds its arrows: the row arrows
# top to bottom, then the column arrows from row 1 and from row 2
_GRID_STEPS = (*(((r, c), (r, c + 1)) for r in range(3) for c in range(2)),
               *(((s, c), (s + 1, c)) for s in range(2) for c in range(3)))
# each step's index in _GRID_STEPS, keyed by its header's cell token
_STEPS = {_arrow_header(src, dst)[6:]: k for k, (src, dst) in enumerate(_GRID_STEPS)}


def _check_object_line(line: str, tokens: list[str], lineno: int) -> None:
    """Raise the error of an object line that missed ``_OBJECT_LINES`` or
    names a cell already read, whichever check fails first."""
    if tokens[0] != "object" or len(tokens) < 4 or tokens[3] != "=":
        raise ParseError(lineno, f"expected 'object ROW COL = ...', got {line.strip()!r}")
    if tokens[1] not in ("1", "2", "3") or tokens[2] not in ("1", "2", "3"):
        raise ParseError(lineno, "object row/column indices must be 1, 2, or 3")
    raise ParseError(lineno, f"object {tokens[1]},{tokens[2]} given twice")


def _check_arrow_header(line: str, tokens: list[str], lineno: int) -> None:
    """Raise the error of an arrow header that missed ``_STEPS`` or names
    an arrow already read, whichever check fails first."""
    endpoints = tokens[-1][:-1]
    if (tokens[0] != "arrow" or len(tokens) != 2 or not tokens[1].endswith(":")
            or "->" not in endpoints):
        raise ParseError(lineno, f"expected 'arrow (r,c)->(r,c):', got {line.strip()!r}")
    src_txt, dst_txt = endpoints.split("->", 1)
    src, dst = _CELLS.get(src_txt), _CELLS.get(dst_txt)
    if src is None or dst is None:
        bad = src_txt if src is None else dst_txt
        raise ParseError(lineno, f"expected a cell like (1,2), got {bad!r}")
    horizontal = src[0] == dst[0] and dst[1] == src[1] + 1
    vertical = src[1] == dst[1] and dst[0] == src[0] + 1
    if not (horizontal or vertical):
        raise ParseError(lineno, "arrows must step one cell right or one cell down")
    raise ParseError(lineno, f"arrow {endpoints} given twice")


def parse_grid(text: str) -> Grid3x3:
    """Parse a grid; arrows may come in any order, bottom row optional."""
    lines = _lines(text)
    end = len(lines)
    rows = [line.split() for line in lines]
    rows.append([])  # a blank line after the last ends the last arrow block
    numbered = enumerate(rows, 1)
    objects: dict[tuple[int, int], FinSet] = {}
    for lineno, tokens in numbered:
        if not tokens:
            continue
        cell = _OBJECT_LINES.get(tuple(tokens[:4]))
        if cell is None or cell in objects:
            _check_object_line(lines[lineno - 1], tokens, lineno)
        try:
            objects[cell] = _split_set(_check_elements(tokens[4:]))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if len(objects) == 9:
            break
    arrows: list[PBij | None] = [None] * len(_GRID_STEPS)
    step = None  # the index of the arrow whose pairs are being read
    for lineno, tokens in numbered:
        if step is not None:
            if tokens and tokens[0] not in ("arrow", "object"):
                if (len(tokens) != 3 or tokens[1] != "->" or ":" in tokens[0] or ":" in tokens[2]
                        or tokens[0] == "->" or tokens[2] == "->"):
                    _check_pair_line(lines[lineno - 1], tokens, lineno)
                pairs.append((tokens[0], tokens[2]))
                continue
            src, dst = _GRID_STEPS[step]
            arrows[step] = _build_pbij(objects[src], objects[dst], pairs, header)
            step = None
        if not tokens:
            continue
        step = _STEPS.get(tokens[1]) if tokens[0] == "arrow" and len(tokens) == 2 else None
        if step is None or arrows[step] is not None:
            _check_arrow_header(lines[lineno - 1], tokens, lineno)
        header, pairs = lineno, []
    if len(objects) < 9:
        raise ParseError(end, "expected nine 'object ROW COL = ...' lines")
    bottom = arrows[4] is not None
    for k, arrow in enumerate(arrows):
        # the bottom row, arrows 4 and 5, is optional but whole
        if k == 4 and bottom != (arrows[5] is not None):
            raise ParseError(end, "bottom row must carry both arrows or neither")
        if arrow is None and k not in (4, 5):
            raise ParseError(end, f"missing arrow {_arrow_header(*_GRID_STEPS[k])[6:-1]}")
    return Grid3x3((arrows[0:2], arrows[2:4], arrows[4:6] if bottom else None),
                   (arrows[6:9], arrows[9:12]))
