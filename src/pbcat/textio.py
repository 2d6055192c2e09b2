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

parse(serialize(x)) returns a value equal to x for all three formats.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .core import FinSet, PBij
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


def _unambiguous(token: str, what: str) -> str:
    """Check a token that ``str.split()`` produced, so is already non-empty
    and free of whitespace: only ":" and "->" remain to rule out."""
    if ":" in token or token == "->":
        raise ValueError(f"{what} {token!r} would be ambiguous in the text format")
    return token


def _check_token(token: str, what: str) -> str:
    if not token or token.split() != [token]:
        raise ValueError(f"{what} {token!r} is empty or contains whitespace")
    return _unambiguous(token, what)


@functools.lru_cache(maxsize=64)
def _joined(elements: tuple[str, ...]) -> str:
    """The element tokens of one printed object, checked and joined by
    spaces.  A report prints the same object many times (a Wagner-Preston
    report prints its carrier twice per element), so the last few element
    tuples are remembered; the bound keeps a long run from holding every
    object it ever printed."""
    for e in elements:
        _check_token(e, "element")
    return " ".join(elements)


def _parse_token(token: str, what: str, line: int) -> str:
    try:
        return _unambiguous(token, what)
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None


class _Lines:
    """Cursor over input lines that tracks 1-based line numbers.

    A final newline ends the last line rather than starting one, and an
    empty input is one empty line.  So an input has at least one line, and
    once a line is read, ``lineno`` names a line of the input, at the end
    of the input too.
    """

    def __init__(self, text: str):
        self.lines = text.split("\n")
        if len(self.lines) > 1 and not self.lines[-1]:
            self.lines.pop()
        self.pos = 0

    @property
    def lineno(self) -> int:
        return self.pos  # number of the line just consumed

    def next_line(self) -> str | None:
        if self.pos >= len(self.lines):
            return None
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def next_content(self) -> str | None:
        """Advance past blank lines to the next line with tokens."""
        while True:
            line = self.next_line()
            if line is None:
                return None
            if line.strip():
                return line

    def expect_end(self, what: str) -> None:
        line = self.next_content()
        if line is not None:
            raise ParseError(self.lineno, f"unexpected content after {what}: {line.strip()!r}")


def serialize_pbij(f: PBij, name: str = "f") -> str:
    """One header line, one line per graph pair (source order), blank line."""
    _check_token(name, "morphism name")
    header = " ".join(filter(None, ("pbij", name, ":", _joined(f.source.elements),
                                    "->", _joined(f.target.elements))))
    body = "".join(f"{x} -> {y}\n" for x, y in f.items())
    return header + "\n" + body + "\n"


def _parse_pairs(cursor: _Lines, stop_keywords: Sequence[str]) -> list[tuple[str, str]]:
    """Read `x -> y` lines until a blank line, EOF, or a new keyword line."""
    pairs: list[tuple[str, str]] = []
    while True:
        line = cursor.next_line()
        if line is None or not line.strip():
            return pairs
        tokens = line.split()
        if tokens[0] in stop_keywords:
            cursor.pos -= 1
            return pairs
        if len(tokens) != 3 or tokens[1] != "->":
            raise ParseError(cursor.lineno, f"expected 'x -> y', got {line.strip()!r}")
        x = _parse_token(tokens[0], "element", cursor.lineno)
        y = _parse_token(tokens[2], "element", cursor.lineno)
        pairs.append((x, y))
    return pairs


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
    cursor = _Lines(text)
    header = cursor.next_content()
    if header is None:
        raise ParseError(1, "empty input, expected a 'pbij' header")
    tokens = header.split()
    if tokens[0] != "pbij":
        raise ParseError(cursor.lineno, f"expected 'pbij', got {tokens[0]!r}")
    if len(tokens) < 4 or tokens[2] != ":":
        raise ParseError(cursor.lineno, "header must look like 'pbij NAME : src -> tgt'")
    name = _parse_token(tokens[1], "morphism name", cursor.lineno)
    rest = tokens[3:]
    if rest.count("->") != 1:
        raise ParseError(cursor.lineno, "header needs exactly one '->' between the element lists")
    split = rest.index("->")
    lineno = cursor.lineno
    try:
        source = FinSet(_unambiguous(t, "element") for t in rest[:split])
        target = FinSet(_unambiguous(t, "element") for t in rest[split + 1:])
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    pairs = _parse_pairs(cursor, stop_keywords=())
    f = _build_pbij(source, target, pairs, lineno)
    cursor.expect_end("the morphism block")
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
    cursor = _Lines(text)
    header = cursor.next_content()
    if header is None:
        raise ParseError(1, "empty input, expected a 'semigroup' header")
    tokens = header.split()
    if tokens[0] != "semigroup":
        raise ParseError(cursor.lineno, f"expected 'semigroup', got {tokens[0]!r}")
    if len(tokens) < 3 or tokens[2] != "=":
        raise ParseError(cursor.lineno, "header must look like 'semigroup NAME = e1 e2 ...'")
    name = _parse_token(tokens[1], "semigroup name", cursor.lineno)
    elements = tuple(_parse_token(t, "element", cursor.lineno) for t in tokens[3:])
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ParseError(cursor.lineno, "duplicate element identifiers")

    rows: list[tuple[int, ...]] = []
    for i, e in enumerate(elements):
        line = cursor.next_line()
        if line is None or not line.strip():
            raise ParseError(cursor.lineno, f"missing product row for {e!r}")
        tokens = line.split()
        if not tokens[0].endswith(":") or tokens[0][:-1] != e:
            raise ParseError(cursor.lineno, f"expected row label '{e}:', got {tokens[0]!r}")
        entries = tokens[1:]
        if len(entries) != len(elements):
            raise ParseError(cursor.lineno,
                             f"row {e!r} has {len(entries)} entries, expected {len(elements)}")
        try:
            rows.append(tuple(map(index.__getitem__, entries)))
        except KeyError as exc:  # the first unknown entry of the row
            raise ParseError(cursor.lineno,
                             f"unknown element {exc.args[0]!r} in row {e!r}") from None
    table = _trusted_table(elements, tuple(rows))
    cursor.expect_end("the table")
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
        chunks.extend(f"{x} -> {y}" for x, y in arrow.items())
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


def _parse_cell(token: str, lineno: int) -> tuple[int, int]:
    if (len(token) != 5 or token[0] != "(" or token[2] != "," or token[4] != ")"
            or token[1] not in "123" or token[3] not in "123"):
        raise ParseError(lineno, f"expected a cell like (1,2), got {token!r}")
    return int(token[1]) - 1, int(token[3]) - 1


def parse_grid(text: str) -> Grid3x3:
    """Parse a grid; arrows may come in any order, bottom row optional."""
    cursor = _Lines(text)
    objects: dict[tuple[int, int], FinSet] = {}
    for _ in range(9):
        line = cursor.next_content()
        if line is None:
            raise ParseError(cursor.lineno, "expected nine 'object ROW COL = ...' lines")
        tokens = line.split()
        if tokens[0] != "object" or len(tokens) < 4 or tokens[3] != "=":
            raise ParseError(cursor.lineno, f"expected 'object ROW COL = ...', got {line.strip()!r}")
        if tokens[1] not in ("1", "2", "3") or tokens[2] not in ("1", "2", "3"):
            raise ParseError(cursor.lineno, "object row/column indices must be 1, 2, or 3")
        cell = (int(tokens[1]) - 1, int(tokens[2]) - 1)
        if cell in objects:
            raise ParseError(cursor.lineno, f"object {tokens[1]},{tokens[2]} given twice")
        lineno = cursor.lineno
        try:
            objects[cell] = FinSet(_unambiguous(t, "element") for t in tokens[4:])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None

    arrows: dict[tuple[tuple[int, int], tuple[int, int]], PBij] = {}
    while True:
        line = cursor.next_content()
        if line is None:
            break
        tokens = line.split()
        if tokens[0] != "arrow" or len(tokens) != 2:
            raise ParseError(cursor.lineno, f"expected 'arrow (r,c)->(r,c):', got {line.strip()!r}")
        endpoints_token = tokens[1]
        if not endpoints_token.endswith(":") or "->" not in endpoints_token:
            raise ParseError(cursor.lineno, f"expected 'arrow (r,c)->(r,c):', got {line.strip()!r}")
        src_txt, dst_txt = endpoints_token[:-1].split("->", 1)
        src = _parse_cell(src_txt, cursor.lineno)
        dst = _parse_cell(dst_txt, cursor.lineno)
        horizontal = src[0] == dst[0] and dst[1] == src[1] + 1
        vertical = src[1] == dst[1] and dst[0] == src[0] + 1
        if not (horizontal or vertical):
            raise ParseError(cursor.lineno,
                             "arrows must step one cell right or one cell down")
        if (src, dst) in arrows:
            raise ParseError(cursor.lineno, f"arrow {endpoints_token[:-1]} given twice")
        header_line = cursor.lineno
        pairs = _parse_pairs(cursor, stop_keywords=("arrow", "object"))
        arrows[(src, dst)] = _build_pbij(objects[src], objects[dst], pairs,
                                         header_line)

    def need(src: tuple[int, int], dst: tuple[int, int]) -> PBij:
        try:
            return arrows.pop((src, dst))
        except KeyError:
            raise ParseError(cursor.lineno,
                             f"missing arrow {_arrow_header(src, dst)[6:-1]}") from None

    def row(r: int) -> tuple[PBij, PBij]:
        return need((r, 0), (r, 1)), need((r, 1), (r, 2))

    top, middle = row(0), row(1)
    bottom = [((2, c), (2, c + 1)) in arrows for c in range(2)]
    if bottom[0] != bottom[1]:
        raise ParseError(cursor.lineno, "bottom row must carry both arrows or neither")
    col_arrows = tuple(tuple(need((s, c), (s + 1, c)) for c in range(3)) for s in range(2))
    return Grid3x3((top, middle, row(2) if bottom[0] else None), col_arrows)
