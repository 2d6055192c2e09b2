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
pair line is checked in place; a header or object line checks its element
list through one join, and walks it token by token only when it fails, to
name the first bad token; of the set constructor's checks, only the
duplicate check runs on it (``core._split_set``).  The parsers collect a
morphism's pairs and leave the map's own checks to the :class:`PBij`
constructor.  On the way out, an element list is checked the same way,
through one join.

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


def _read_pairs(lines: list[str], i: int,
                stop_keywords: Sequence[str]) -> tuple[int, list[tuple[str, str]]]:
    """The `x -> y` pairs from ``lines[i]`` on, up to a blank line, a line
    that starts with one of ``stop_keywords``, or the end; returns the index
    of the line that ended them and the pairs.  A pair line has three
    tokens, "->" in the middle, and neither side holds ":" or is "->"; only
    a line that fails goes through the token check, which names its bad
    side."""
    pairs: list[tuple[str, str]] = []
    for i in range(i, len(lines)):
        line = lines[i]
        tokens = line.split()
        if not tokens or tokens[0] in stop_keywords:
            return i, pairs
        if len(tokens) != 3 or tokens[1] != "->":
            raise ParseError(i + 1, f"expected 'x -> y', got {line.strip()!r}")
        x, _, y = tokens
        if ":" in line or x == "->" or y == "->":
            _parse_token(x, "element", i + 1)
            _parse_token(y, "element", i + 1)
        pairs.append((x, y))
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
    read, pairs = _read_pairs(lines, lineno, ())
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


# the cells an arrow header may name, as 0-based (row, column)
_CELLS = {f"({r + 1},{c + 1})": (r, c) for r in range(3) for c in range(3)}


def parse_grid(text: str) -> Grid3x3:
    """Parse a grid; arrows may come in any order, bottom row optional."""
    lines = _lines(text)
    end = len(lines)
    objects: dict[tuple[int, int], FinSet] = {}
    arrows: dict[tuple[tuple[int, int], tuple[int, int]], PBij] = {}
    i = 0  # the number of lines read, so also the number of the last one
    while i < end:
        line = lines[i]
        tokens = line.split()
        i += 1
        if not tokens:
            continue
        if len(objects) < 9:
            if tokens[0] != "object" or len(tokens) < 4 or tokens[3] != "=":
                raise ParseError(i, f"expected 'object ROW COL = ...', got {line.strip()!r}")
            if tokens[1] not in ("1", "2", "3") or tokens[2] not in ("1", "2", "3"):
                raise ParseError(i, "object row/column indices must be 1, 2, or 3")
            cell = (int(tokens[1]) - 1, int(tokens[2]) - 1)
            if cell in objects:
                raise ParseError(i, f"object {tokens[1]},{tokens[2]} given twice")
            try:
                objects[cell] = _split_set(_check_elements(tokens[4:]))
            except ValueError as exc:
                raise ParseError(i, str(exc)) from None
            continue
        endpoints = tokens[-1][:-1]
        if (tokens[0] != "arrow" or len(tokens) != 2 or not tokens[1].endswith(":")
                or "->" not in endpoints):
            raise ParseError(i, f"expected 'arrow (r,c)->(r,c):', got {line.strip()!r}")
        src_txt, dst_txt = endpoints.split("->", 1)
        src, dst = _CELLS.get(src_txt), _CELLS.get(dst_txt)
        if src is None or dst is None:
            bad = src_txt if src is None else dst_txt
            raise ParseError(i, f"expected a cell like (1,2), got {bad!r}")
        horizontal = src[0] == dst[0] and dst[1] == src[1] + 1
        vertical = src[1] == dst[1] and dst[0] == src[0] + 1
        if not (horizontal or vertical):
            raise ParseError(i, "arrows must step one cell right or one cell down")
        if (src, dst) in arrows:
            raise ParseError(i, f"arrow {endpoints} given twice")
        header_line = i
        i, pairs = _read_pairs(lines, i, ("arrow", "object"))
        arrows[(src, dst)] = _build_pbij(objects[src], objects[dst], pairs, header_line)
    if len(objects) < 9:
        raise ParseError(end, "expected nine 'object ROW COL = ...' lines")

    def need(src: tuple[int, int], dst: tuple[int, int]) -> PBij:
        try:
            return arrows.pop((src, dst))
        except KeyError:
            raise ParseError(end, f"missing arrow {_arrow_header(src, dst)[6:-1]}") from None

    def row(r: int) -> tuple[PBij, PBij]:
        return need((r, 0), (r, 1)), need((r, 1), (r, 2))

    top, middle = row(0), row(1)
    bottom = [((2, c), (2, c + 1)) in arrows for c in range(2)]
    if bottom[0] != bottom[1]:
        raise ParseError(end, "bottom row must carry both arrows or neither")
    col_arrows = tuple(tuple(need((s, c), (s + 1, c)) for c in range(3)) for s in range(2))
    return Grid3x3((top, middle, row(2) if bottom[0] else None), col_arrows)
