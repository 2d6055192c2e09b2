"""Seeded workload inputs together with their known answers.

Nothing in this module imports pbcat.  Every known answer comes from a
closed formula or from the generator's own arithmetic on partial
permutations (a tuple of images, -1 where undefined), so a defect in pbcat
cannot leak into the reference it is checked against.

Each workload is a fixed list of :class:`Request` values; the same seed
always yields the same list.  Request costs are chosen so that a pass over
the list takes about the same time for every seed (see ``table_embed``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import comb, factorial

# Every law a check-axioms report must cover, in report order, with the
# number of cases pbcat checked for it at --max-size 3 and at --max-size 6
# when this benchmark was written.  The counts do not depend on --seed.
# They are a floor, not an exact answer: a report that checks fewer cases
# for a law has narrowed its exhaustive coverage and counts as wrong, while
# a wider sweep passes.
LAW_CASES = {
    "composition-closure": (3396, 3486),
    "associativity": (1456, 1546),
    "identity-neutrality": (90, 180),
    "inverse-laws": (3486, 3576),
    "idempotent-meet": (64, 1024),
    "zero-morphisms": (106, 106),
    "cancellation-agreement": (90, 180),
    "monoid-size": (4, 7),
    "monoid-closure": (1254, 1254),
    "idempotent-census": (15, 15),
    "unique-inverses": (1210, 1210),
    "wagner-preston": (61, 61),
    "involution": (290, 380),
    "annihilator-projection": (90, 90),
    "closed-projection": (15, 127),
    "baer-annihilator": (20, 20),
    "kernel-universal": (20, 20),
    "factorization": (90, 180),
    "kernel-cokernel": (90, 180),
    "normal-conormal": (90, 90),
    "balanced": (10, 10),
    "ses-construction": (15, 63),
    "grid-completion": (40, 121),
    "noether-first": (40, 364),
    "noether-second": (85, 1365),
}
LAW_NAMES = tuple(LAW_CASES)


@dataclass
class Request:
    """One CLI call and the answer it must produce.

    ``kind`` selects the checker; ``expect`` holds the known answer.  When
    ``data`` is set it is written to a file whose path is appended to
    ``argv``.  ``units`` is how many cases the verdict covers, in the
    workload's case unit: table entries for wagner-preston, one per file
    request, and none for enumerate.  check-axioms cases are read from its
    report instead.
    """

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)
    data: bytes | None = None
    units: int = 1


# ---------------------------------------------------------------------------
# Partial permutations of range(n)


def pp_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a after b: apply b first, like pbcat's compose(a, b)."""
    return tuple(-1 if y < 0 else a[y] for y in b)


def pp_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [-1] * len(a)
    for x, y in enumerate(a):
        if y >= 0:
            inv[y] = x
    return tuple(inv)


def all_pp(n: int) -> list[tuple[int, ...]]:
    """Every partial permutation of range(n)."""
    out = []
    for k in range(n + 1):
        for dom in itertools.combinations(range(n), k):
            for img in itertools.permutations(range(n), k):
                a = [-1] * n
                for x, y in zip(dom, img):
                    a[x] = y
                out.append(tuple(a))
    return out


def monoid_size(n: int) -> int:
    """|I(n)| by the closed formula sum_k C(n,k)^2 k!."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def closure(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The inverse subsemigroup generated by gens (and their inverses)."""
    gens = sorted(set(gens) | {pp_inverse(g) for g in gens})
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                for c in (pp_compose(a, g), pp_compose(g, a)):
                    if c not in seen:
                        seen.add(c)
                        fresh.append(c)
        frontier = fresh
    return sorted(seen)


def _random_pp(rng: random.Random, n: int) -> tuple[int, ...]:
    k = rng.randint(1, n - 1)
    a = [-1] * n
    for x, y in zip(rng.sample(range(n), k), rng.sample(range(n), k)):
        a[x] = y
    return tuple(a)


# ---------------------------------------------------------------------------
# Cayley tables: element names plus a list of index rows


@dataclass
class Table:
    name: str
    elements: list[str]
    product: list[list[int]]

    def text(self) -> str:
        lines = [f"semigroup {self.name} = {' '.join(self.elements)}".rstrip()]
        for e, row in zip(self.elements, self.product):
            lines.append(f"{e}: {' '.join(self.elements[j] for j in row)}".rstrip())
        return "\n".join(lines) + "\n\n"


def table_of(name: str, elems: list[tuple[int, ...]], rng: random.Random,
             prefix: str) -> tuple[Table, list[int]]:
    """The Cayley table of a composition-closed set of partial permutations
    under a seeded element order; also returns each element's inverse."""
    elems = list(elems)
    rng.shuffle(elems)
    pos = {e: i for i, e in enumerate(elems)}
    product = [[pos[pp_compose(a, b)] for b in elems] for a in elems]
    inverse = [pos[pp_inverse(a)] for a in elems]
    return Table(name, [f"{prefix}{i}" for i in range(len(elems))], product), inverse


def axiom_flags(p: list[list[int]], touched: tuple[int, int] | None = None) -> dict:
    """The four inverse-semigroup flags, by their definitions.

    Products in words are taken left to right.  Associativity is checked in
    full, or, when ``touched`` names the one entry changed in an otherwise
    associative table, only on the triples whose products read that entry.
    """
    n = len(p)
    if touched is None:
        triples = itertools.product(range(n), repeat=3)
    else:
        i, j = touched
        triples = itertools.chain(
            ((i, j, z) for z in range(n)),
            ((x, i, j) for x in range(n)),
            ((x, y, j) for x in range(n) for y in range(n) if p[x][y] == i),
            ((i, y, z) for y in range(n) for z in range(n) if p[y][z] == j))
    associative = all(p[p[x][y]][z] == p[x][p[y][z]] for x, y, z in triples)
    counts = [sum(1 for b in range(n) if p[p[a][b]][a] == a and p[p[b][a]][b] == b)
              for a in range(n)]
    idem = [e for e in range(n) if p[e][e] == e]
    return {
        "associative": associative,
        "regular": all(counts),
        "idempotents-commute": all(p[e][f] == p[f][e] for e in idem for f in idem),
        "unique-inverses": all(c == 1 for c in counts),
    }


def _accept(table: Table, inverse: list[int], rng: random.Random) -> Request:
    n = len(table.elements)
    samples = sorted(rng.sample(range(n), min(n, 8)))
    return Request(["wagner-preston"], "table-accept",
                   {"table": table, "inverse": inverse, "samples": samples},
                   table.text().encode(), units=n * n)


def _reject(table: Table, flags: dict) -> Request:
    n = len(table.elements)
    return Request(["wagner-preston"], "table-reject",
                   {"table": table, "flags": flags}, table.text().encode(), units=n * n)


def _perturbed(base: Table, inverse: list[int], rng: random.Random,
               defect: bool) -> Request:
    """Change one product entry of an inverse semigroup's table.

    With ``defect`` the result is non-associative yet every element keeps a
    unique quasi-inverse, which slips past pbcat's uniqueness gate.
    Otherwise uniqueness of inverses fails and the table must be rejected
    with witnesses; changing a*a⁻¹ usually leaves a without any inverse,
    so that search is short even on large tables.
    """
    n = len(base.elements)
    while True:
        i = rng.randrange(n)
        j = rng.randrange(n) if defect else inverse[i]
        v = rng.randrange(n)
        if v == base.product[i][j]:
            continue
        p = [row[:] for row in base.product]
        p[i][j] = v
        flags = axiom_flags(p, touched=(i, j))
        if defect and not flags["associative"] and flags["unique-inverses"]:
            break
        if not defect and not flags["unique-inverses"]:
            break
    return _reject(Table(base.name + "x", base.elements, p), flags)


# Accepted inverse subsemigroups of I(5), by element count.  A random
# closure of one to three generators lands on a few sizes far more often
# than on others, and these three it hits within a few hundred tries: every
# seed then sends tables of the same sizes, and only the generators and the
# element order vary.  The largest accepted table is I(4), itself an inverse
# subsemigroup of I(5) with 209 elements.  A subsemigroup near 150 or 210
# elements would add 1.5 s or 5 s to a pass and leave too few passes in a
# run to keep the times steady.
SUB_SIZES = (21, 55, 88)


def subsemigroup(rng: random.Random, size: int) -> list[tuple[int, ...]]:
    while True:
        gens = [_random_pp(rng, 5) for _ in range(rng.randint(1, 3))]
        elems = closure(gens)
        if len(elems) == size:
            return elems


def table_embed(seed: int) -> list[Request]:
    """wagner-preston on five accepted and four rejected tables, each once:
    I(3), I(4) and the subsemigroups of SUB_SIZES; the 88-element one with
    one product changed, a left-zero band, a null semigroup (not regular),
    and I(3) with one product changed so that it is non-associative with
    unique inverses.  Big and small tables alternate."""
    rng = random.Random(f"table-embed/{seed}")
    i3, i3_inv = table_of("I3", all_pp(3), rng, "a")
    i4, i4_inv = table_of("I4", all_pp(4), rng, "b")
    sub_tables = [table_of(f"S{k}", subsemigroup(rng, size), rng, "s")
                  for k, size in enumerate(SUB_SIZES)]
    subs = [_accept(table, inverse, rng) for table, inverse in sub_tables]
    n = rng.randint(2, 6)
    left_zero = Table("L", [f"l{i}" for i in range(n)], [[i] * n for i in range(n)])
    n = rng.randint(2, 6)
    null = Table("N", [f"z{i}" for i in range(n)], [[0] * n for _ in range(n)])
    return [
        _accept(i4, i4_inv, rng), subs[0],
        _reject(left_zero, {"associative": True, "regular": True,
                            "idempotents-commute": False, "unique-inverses": False}),
        _accept(i3, i3_inv, rng),
        _reject(null, {"associative": True, "regular": False,
                       "idempotents-commute": True, "unique-inverses": False}),
        _perturbed(*sub_tables[2], rng, defect=False), subs[1],
        _perturbed(i3, i3_inv, rng, defect=True), subs[2],
    ]


# ---------------------------------------------------------------------------
# law-sweep


def axioms_request(size: int, seed: int) -> Request:
    """check-axioms at --max-size 3 or 6; its known answer is every law
    passing on at least LAW_CASES cases."""
    floor = {law: cases[(3, 6).index(size)] for law, cases in LAW_CASES.items()}
    return Request(["check-axioms", "--max-size", str(size), "--seed", str(seed)],
                   "axioms", {"min_cases": floor})


def law_sweep(seed: int) -> list[Request]:
    """check-axioms at max-size 6 and 3 over two consecutive seeds, with
    the full enumeration of I(0..6) between the two seeds."""
    reqs = [axioms_request(size, s) for s in (seed, seed + 1) for size in (6, 3)]
    reqs.insert(2, Request(["enumerate", "--max-size", "6"], "enumerate",
                           {"sizes": [monoid_size(n) for n in range(7)],
                            "idempotents": [2 ** n for n in range(7)]}, units=0))
    return reqs


# ---------------------------------------------------------------------------
# file-stream


def _block(src: list[str], tgt: list[str], pairs: list[tuple[str, str]]) -> tuple:
    """A morphism as the checker compares it: sorted objects, set of pairs."""
    return tuple(sorted(src)), tuple(sorted(tgt)), frozenset(pairs)


def _ident(tokens: list[str]) -> list[tuple[str, str]]:
    return [(x, x) for x in tokens]


def pbij_text(name: str, src: list[str], tgt: list[str],
              pairs: list[tuple[str, str]]) -> str:
    header = " ".join(f"pbij {name} : {' '.join(src)} -> {' '.join(tgt)}".split())
    return header + "\n" + "".join(f"{x} -> {y}\n" for x, y in pairs) + "\n"


def _tokens(rng: random.Random, prefix: str, k: int) -> list[str]:
    return [f"{prefix}{i}" for i in rng.sample(range(1000), k)]


def _morphism(rng: random.Random, command: str) -> Request:
    """A random partial bijection with at most 64 points in all."""
    src = _tokens(rng, "p", rng.randint(0, 32))
    tgt = _tokens(rng, "q", rng.randint(0, 32))
    k = rng.randint(0, min(len(src), len(tgt)))
    dom = set(rng.sample(src, k))
    img = rng.sample(tgt, k)
    pairs = list(zip([x for x in src if x in dom], img))
    mapped = {y for _, y in pairs}
    fields = {"command": command, "result": "PASS"}
    blocks = {"f": _block(src, tgt, pairs)}
    if command == "kernel":
        ker = [x for x in src if x not in dom]
        fields.update({"kernel object": ker, "mono": "true", "composite-is-zero": "true"})
        blocks["ker_f"] = _block(ker, src, _ident(ker))
    elif command == "cokernel":
        cok = [y for y in tgt if y not in mapped]
        fields.update({"cokernel object": cok, "epi": "true", "composite-is-zero": "true"})
        blocks["coker_f"] = _block(tgt, cok, _ident(cok))
    else:
        via = [y for y in tgt if y in mapped]
        fields.update({"via object": via, "mono": "true", "epi": "true",
                       "recomposes": "true", "split-witness": "true"})
        blocks["epi_f"] = _block(src, via, pairs)
        blocks["mono_f"] = _block(via, tgt, _ident(via))
    return Request([command], "report", {"exit": 0, "fields": fields, "blocks": blocks},
                   pbij_text("f", src, tgt, pairs).encode())


def _subsets(rng: random.Random, nested: bool) -> tuple[list[str], list[str], list[str]]:
    X = _tokens(rng, "x", rng.randint(1, 12))
    if nested:
        X2 = [x for x in X if rng.random() < 0.6]
        X1 = [x for x in X2 if rng.random() < 0.5]
    else:
        X1 = [x for x in X if rng.random() < 0.5]
        X2 = [x for x in X if rng.random() < 0.5]
    return X, X1, X2


def _noether(rng: random.Random, command: str) -> Request:
    X, X1, X2 = _subsets(rng, nested=command == "noether1")
    quotient = [x for x in X if x not in X2] if command == "noether1" else \
        [x for x in X2 if x not in X1]
    argv = [command, "--x", " ".join(X), "--x1", " ".join(X1), "--x2", " ".join(X2)]
    fields = {"command": command, "verdict": "EQUAL", "result": "PASS"}
    blocks = {"iso": _block(quotient, quotient, _ident(quotient))}
    return Request(argv, "report", {"exit": 0, "fields": fields, "blocks": blocks,
                                    "sides": quotient})


def _grid(rng: random.Random, broken: bool) -> Request:
    """The Noether grid of X1 within X2 within X, without its bottom row.

    Broken grids permute X1 in the top-left arrow: rows and columns stay
    exact, but the square at rows 1-2, columns 1-2 no longer commutes.
    """
    while True:
        X, X1, X2 = _subsets(rng, nested=True)
        if not broken or len(X1) >= 2:
            break
    rest2 = [x for x in X if x not in X2]
    rest1 = [x for x in X if x not in X1]
    diff = [x for x in X2 if x not in X1]
    top = list(zip(X1, X1[1:] + X1[:1])) if broken else _ident(X1)
    objects = {(1, 1): X1, (1, 2): X1, (1, 3): [], (2, 1): X2, (2, 2): X, (2, 3): rest2,
               (3, 1): diff, (3, 2): rest1, (3, 3): rest2}
    arrows = [((1, 1), (1, 2), top), ((1, 2), (1, 3), []),
              ((2, 1), (2, 2), _ident(X2)), ((2, 2), (2, 3), _ident(rest2)),
              ((1, 1), (2, 1), _ident(X1)), ((1, 2), (2, 2), _ident(X1)),
              ((1, 3), (2, 3), []), ((2, 1), (3, 1), _ident(diff)),
              ((2, 2), (3, 2), _ident(rest1)), ((2, 3), (3, 3), _ident(rest2))]
    lines = [" ".join(["object", str(r), str(c), "=", *objects[(r, c)]])
             for r in (1, 2, 3) for c in (1, 2, 3)]
    lines.append("")
    for (r1, c1), (r2, c2), pairs in arrows:
        lines.append(f"arrow ({r1},{c1})->({r2},{c2}):")
        lines.extend(f"{x} -> {y}" for x, y in pairs)
        lines.append("")
    data = ("\n".join(lines) + "\n").encode()
    if broken:
        return Request(["grid33"], "error", {
            "exit": 1,
            "stderr": "pbcat: invalid diagram: square at rows 1-2, columns 1-2 "},
            data)
    blocks = {"phi": _block(diff, rest1, _ident(diff)),
              "psi": _block(rest1, rest2, _ident(rest2))}
    return Request(["grid33"], "report", {"exit": 0, "blocks": blocks,
                                          "fields": {"command": "grid33",
                                                     "validation": "PASS"}}, data)


_MALFORMED = (
    ("kernel", b"pbji f : a -> b\n\n"),
    ("kernel", b""),
    ("cokernel", b"pbij f : a b -> c\na -> c\nb -> c\n\n"),
    ("factorize", b"pbij f : a -> c\na -> z\n\n"),
    ("kernel", b"pbij f : a -> c\na c\n\n"),
    ("grid33", b"object 1 1 = a\n"),
)


def _malformed(case: tuple[str, bytes]) -> Request:
    command, data = case
    return Request([command], "error", {"exit": 2, "stderr": "pbcat: parse error: line "},
                   data)


def _non_utf8(rng: random.Random) -> Request:
    """A morphism file with a byte that is not UTF-8: bad input, exit 2."""
    data = pbij_text("f", ["a"], ["b"], []).encode() + bytes([0xFF, rng.randrange(0x80, 0xC0)])
    return Request(["kernel"], "error", {"exit": 2, "stderr": "pbcat: "}, data)


# The mix is synthetic: no trace of real pbcat use exists to weight it by.
# Each of the seven request kinds gets the same count, and within a kind
# each variant does too: grid33 files are half valid and half with a broken
# square, and malformed files are the six parse errors above plus a file
# that is not UTF-8, 22 of each.  154 is a multiple of 2 and 7 that makes
# over 1000 requests, so that more than 100 lie beyond the 90th percentile.
# The counts are fixed so that a pass costs about the same for every seed;
# only the inputs vary.
PER_KIND = 154
FILE_STREAM_KINDS = (
    (lambda rng: _morphism(rng, "kernel"),),
    (lambda rng: _morphism(rng, "cokernel"),),
    (lambda rng: _morphism(rng, "factorize"),),
    (lambda rng: _grid(rng, broken=False), lambda rng: _grid(rng, broken=True)),
    (lambda rng: _noether(rng, "noether1"),),
    (lambda rng: _noether(rng, "noether2"),),
    (*(lambda rng, m=m: _malformed(m) for m in _MALFORMED), _non_utf8),
)


def file_stream(seed: int) -> list[Request]:
    """1078 small file requests in seeded order."""
    rng = random.Random(f"file-stream/{seed}")
    reqs = [make(rng) for variants in FILE_STREAM_KINDS for make in variants
            for _ in range(PER_KIND // len(variants))]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"law-sweep": law_sweep, "table-embed": table_embed, "file-stream": file_stream}
