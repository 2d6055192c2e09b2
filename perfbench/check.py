"""Known-answer checks of pbcat reports.

``check(request, code, out, err)`` returns ``None`` when the report agrees
with the request's known answer and a short reason when it does not.  The
checks read the report the way a user would: values are compared as sets
where the report's order is cosmetic, and every witness a rejection prints
is replayed against the generator's own table.
"""

from __future__ import annotations

import re

from gen import Request, Table

_LAW_LINE = re.compile(r"(PASS|FAIL) (\S+) \((\d+) cases\)")
_SIZE_LINE = re.compile(r"\|I\((\d+)\)\| = (\d+), idempotents = (\d+)")
_FLAGS = ("associative", "regular", "idempotents-commute", "unique-inverses")
_WITNESS_FLAG = {"associativity": "associative", "regularity": "regular",
                 "commuting-idempotents": "idempotents-commute",
                 "unique-inverse": "unique-inverses"}


class Mismatch(Exception):
    """The report disagrees with the known answer."""


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def parse_report(text: str) -> tuple[dict[str, list[str]], dict[str, tuple]]:
    """Split a report into ``key: value`` fields and morphism blocks.

    A block is keyed by its name and holds (sorted source, sorted target,
    set of pairs).
    """
    fields: dict[str, list[str]] = {}
    blocks: dict[str, tuple] = {}
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("pbij "):
            head = line.split()
            _expect(len(head) >= 4 and head[2] == ":" and head.count("->") == 1,
                    f"bad block header {line!r}")
            cut = head.index("->")
            pairs = set()
            while i < len(lines) and lines[i]:
                x, arrow, y = lines[i].split()
                _expect(arrow == "->", f"bad pair line {lines[i]!r}")
                pairs.add((x, y))
                i += 1
            _expect(head[1] not in blocks, f"block {head[1]} printed twice")
            blocks[head[1]] = (tuple(sorted(head[3:cut])), tuple(sorted(head[cut + 1:])),
                               frozenset(pairs))
        elif ": " in line:
            key, value = line.split(": ", 1)
            fields.setdefault(key, []).append(value)
    return fields, blocks


def _field(fields: dict[str, list[str]], key: str) -> str:
    values = fields.get(key, [])
    _expect(len(values) == 1, f"expected one {key!r} line, found {len(values)}")
    return values[0]


def _tokens(value: str) -> list[str]:
    return [] if value == "∅" else sorted(value.split())


def _check_report(req: Request, code: int, out: str) -> None:
    exp = req.expect
    fields, blocks = parse_report(out)
    for key, want in exp["fields"].items():
        got = _field(fields, key)
        if isinstance(want, list):
            _expect(_tokens(got) == sorted(want), f"{key}: {got!r}, expected {want}")
        else:
            _expect(got == want, f"{key}: {got!r}, expected {want!r}")
    _expect(set(blocks) == set(exp["blocks"]),
            f"blocks {sorted(blocks)}, expected {sorted(exp['blocks'])}")
    for name, want in exp["blocks"].items():
        _expect(blocks[name] == want, f"block {name} differs from the known answer")
    if "sides" in exp:
        sides = [line.rsplit(" = ", 1)[1] for line in out.split("\n")
                 if line.startswith(("left ", "right "))]
        _expect(len(sides) == 2 and all(_tokens(s) == sorted(exp["sides"]) for s in sides),
                f"quotient sides {sides}, expected {exp['sides']}")


def law_cases(out: str) -> dict[str, int]:
    """Case count per law in a check-axioms report."""
    return {m.group(2): int(m.group(3))
            for m in map(_LAW_LINE.fullmatch, out.split("\n")) if m}


def _check_axioms(req: Request, code: int, out: str) -> None:
    lines = [m for m in map(_LAW_LINE.fullmatch, out.split("\n")) if m]
    names = [m.group(2) for m in lines]
    _expect(len(names) == len(set(names)), "a law is reported twice")
    floor = req.expect["min_cases"]
    missing = set(floor) - set(names)
    _expect(not missing, f"laws missing from the report: {sorted(missing)}")
    failed = [m.group(2) for m in lines if m.group(1) != "PASS"]
    _expect(not failed, f"laws reported as failing: {failed}")
    narrowed = [f"{m.group(2)} {m.group(3)} < {floor[m.group(2)]}" for m in lines
                if int(m.group(3)) < floor.get(m.group(2), 1)]
    _expect(not narrowed, f"laws checked fewer cases than the recorded floor: {narrowed}")
    n = len(lines)
    _expect(_field(parse_report(out)[0], "result") == f"PASS ({n}/{n} laws)",
            "summary line disagrees with the law lines")


def _check_enumerate(req: Request, code: int, out: str) -> None:
    sizes, idems = req.expect["sizes"], req.expect["idempotents"]
    _expect("MISMATCH" not in out, "report flags a count mismatch")
    current: list[str] | None = None
    listings: list[list[str]] = []
    for line in out.split("\n"):
        m = _SIZE_LINE.fullmatch(line)
        if m:
            n = int(m.group(1))
            _expect(n == len(listings), f"sizes out of order at I({n})")
            _expect(n < len(sizes) and int(m.group(2)) == sizes[n]
                    and int(m.group(3)) == idems[n],
                    f"I({n}): {line!r}, expected {sizes[n] if n < len(sizes) else '?'} "
                    f"elements and {idems[n] if n < len(idems) else '?'} idempotents")
            current = []
            listings.append(current)
        elif line.startswith("  m") and current is not None:
            current.append(line.split(" : ", 1)[1])
    _expect(len(listings) == len(sizes), f"{len(listings)} sizes listed, expected {len(sizes)}")
    for n, listing in enumerate(listings):
        _expect(len(listing) == sizes[n] and len(set(listing)) == sizes[n],
                f"I({n}) lists {len(set(listing))} distinct elements, expected {sizes[n]}")
        points = {str(i) for i in range(1, n + 1)}
        for entry in listing:
            pairs = [] if entry == "∅" else [p.split("->") for p in entry.split()]
            xs = [x for x, _ in pairs]
            ys = [y for _, y in pairs]
            _expect(len(set(xs)) == len(xs) and len(set(ys)) == len(ys)
                    and set(xs) <= points and set(ys) <= points,
                    f"I({n}) lists {entry!r}, which is not a partial bijection")


def _flag_lines(fields: dict[str, list[str]]) -> dict[str, bool]:
    flags = {}
    for name in _FLAGS:
        value = _field(fields, name)
        _expect(value in ("true", "false"), f"{name}: {value!r}")
        flags[name] = value == "true"
    return flags


def _check_accept(req: Request, code: int, out: str) -> None:
    table: Table = req.expect["table"]
    elems, p, inv = table.elements, table.product, req.expect["inverse"]
    n = len(elems)
    fields, blocks = parse_report(out)
    _expect(all(_flag_lines(fields).values()), "an axiom flag is false on a valid table")
    _expect(_tokens(_field(fields, f"table {table.name}")) == sorted(elems),
            "table line lists other elements")
    want = {f"theta_{e}" for e in elems}
    _expect(set(blocks) == want, f"{len(want - set(blocks))} theta blocks missing, "
                                 f"{len(set(blocks) - want)} unexpected")
    carrier = tuple(sorted(elems))
    for a in req.expect["samples"]:
        dom = {p[inv[a]][s] for s in range(n)}
        pairs = frozenset((elems[x], elems[p[a][x]]) for x in dom)
        _expect(blocks[f"theta_{elems[a]}"] == (carrier, carrier, pairs),
                f"theta_{elems[a]} is not x -> {elems[a]}*x on {elems[inv[a]]}*S")
    _expect(_field(fields, "embedding")
            == f"injective homomorphism verified ({n * n} products)",
            "embedding line disagrees with the table size")
    _expect(_field(fields, "result") == "PASS", "result is not PASS")


def _check_reject(req: Request, code: int, out: str) -> None:
    table: Table = req.expect["table"]
    p = table.product
    index = {e: i for i, e in enumerate(table.elements)}
    n = len(p)
    fields, _ = parse_report(out)
    flags = _flag_lines(fields)
    _expect(flags == req.expect["flags"], f"flags {flags}, expected {req.expect['flags']}")

    def quasi(a: int, b: int) -> bool:
        return p[p[a][b]][a] == a and p[p[b][a]][b] == b

    kinds = set()
    for witness in fields.get("witness", []):
        kind, *names = witness.split()
        _expect(all(x in index for x in names), f"witness names unknown elements: {witness!r}")
        w = [index[x] for x in names]
        if kind == "associativity" and len(w) == 3:
            x, y, z = w
            ok = p[p[x][y]][z] != p[x][p[y][z]]
        elif kind == "regularity" and len(w) == 1:
            ok = not any(quasi(w[0], b) for b in range(n))
        elif kind == "unique-inverse" and len(w) == 3:
            ok = w[1] != w[2] and quasi(w[0], w[1]) and quasi(w[0], w[2])
        elif kind == "commuting-idempotents" and len(w) == 2:
            e, f = w
            ok = p[e][e] == e and p[f][f] == f and p[e][f] != p[f][e]
        else:
            ok = False
        _expect(ok, f"witness does not replay: {witness!r}")
        kinds.add(kind)
    for kind, flag in _WITNESS_FLAG.items():
        _expect(kind not in kinds or not flags[flag], f"{kind} witness for a flag that holds")
        # a non-regular element has no inverse at all, so it is witnessed
        # under regularity only
        needed = not flags[flag] and (kind != "unique-inverse" or flags["regular"])
        _expect(not needed or kind in kinds, f"no {kind} witness for a failing flag")
    _expect(_field(fields, "result") == "FAIL not an inverse semigroup", "result is not FAIL")


_CHECKS = {
    "report": _check_report,
    "axioms": _check_axioms,
    "enumerate": _check_enumerate,
    "table-accept": _check_accept,
    "table-reject": _check_reject,
}


def check(req: Request, code: int, out: str, err: str) -> str | None:
    """None if (exit code, stdout, stderr) is the known answer, else why not."""
    want = req.expect.get("exit", 1 if req.kind == "table-reject" else 0)
    try:
        _expect(code == want, f"exit {code}, expected {want}")
        if req.kind == "error":
            _expect(out == "", "stdout is not empty on an error")
            _expect(err.startswith(req.expect["stderr"]),
                    f"stderr {err[:80]!r}, expected {req.expect['stderr']!r}...")
            return None
        _expect(err == "", f"unexpected stderr {err[:80]!r}")
        _expect(out.startswith("pbcat report\n"), "report header missing")
        _expect(_field(parse_report(out)[0], "command") == req.argv[0],
                "header names another command")
        _CHECKS[req.kind](req, code, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    return None
