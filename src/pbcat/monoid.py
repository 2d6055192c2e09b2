"""Symmetric inverse monoids, Cayley-table axiom checks, and the
Wagner-Preston embedding of a finite inverse semigroup into the partial
bijections of its own carrier set."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import comb, factorial
from operator import itemgetter
from typing import Callable, Sequence

from .core import (
    FinSet,
    InternalContradictionError,
    ObjectMismatchError,
    PBij,
    _trusted,
    compose,
    enumerate_pbij,
    partial_identity,
)


class TableShapeError(ValueError):
    """Malformed multiplication table (wrong shape or out-of-range indices)."""


class NotInverseSemigroupError(ValueError):
    """The table fails the inverse-semigroup axioms; carries the report."""

    def __init__(self, report: "AxiomReport"):
        self.report = report
        failing = [name for name, ok in [
            ("associative", report.associative),
            ("regular", report.regular),
            ("idempotents-commute", report.idempotents_commute),
            ("unique-inverses", report.inverses_unique),
        ] if not ok]
        super().__init__(f"not an inverse semigroup: {', '.join(failing)} failed")


@dataclass(frozen=True)
class CayleyTable:
    """A finite magma: ordered element names plus an index-valued product table.

    Nothing algebraic is assumed; associativity and the rest are checked by
    :func:`verify_inverse_semigroup`.  ``product[i][j]`` is the index of
    ``elements[i] * elements[j]``.
    """

    elements: tuple[str, ...]
    product: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        table = tuple(tuple(row) for row in self.product)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "product", table)
        n = len(elems)
        if len(set(elems)) != n:
            raise TableShapeError(f"duplicate element names in {elems!r}")
        if len(table) != n:
            raise TableShapeError(f"expected {n} rows, got {len(table)}")
        for i, row in enumerate(table):
            if len(row) != n:
                raise TableShapeError(f"row {i} has {len(row)} entries, expected {n}")
            for j, p in enumerate(row):
                if not isinstance(p, int) or not 0 <= p < n:
                    raise TableShapeError(f"entry ({i},{j}) = {p!r} is not a valid index")

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def mul_index(self, i: int, j: int) -> int:
        return self.product[i][j]

    def mul(self, a: str, b: str) -> str:
        return self.elements[self.product[self.index(a)][self.index(b)]]

    @classmethod
    def from_operation(cls, elements: Sequence[str],
                       op: Callable[[str, str], str]) -> "CayleyTable":
        """The table of ``op`` on ``elements``; a product ``op`` names
        outside ``elements`` is a :class:`TableShapeError`."""
        elems = tuple(elements)
        pos = {e: i for i, e in enumerate(elems)}

        def index(a: str, b: str) -> int:
            c = op(a, b)
            if c not in pos:
                raise TableShapeError(f"product {a}*{b} = {c!r} is not an element")
            return pos[c]

        return cls(elems, tuple(tuple(index(a, b) for b in elems) for a in elems))


def _trusted_table(elements: tuple[str, ...],
                   product: tuple[tuple[int, ...], ...]) -> CayleyTable:
    """A CayleyTable without the constructor's checks.

    ``elements`` must be distinct and ``product`` a tuple of n tuples of n
    indices in ``range(n)``; the caller owns that promise.  The parser of
    the text format builds its tables here, since reading them proved it.
    """
    table = object.__new__(CayleyTable)
    object.__setattr__(table, "elements", elements)
    object.__setattr__(table, "product", product)
    return table


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the inverse-semigroup axiom sweep over a table.

    Every false flag is backed by at least one witness tuple in
    ``counterexamples``; ``inverse_map`` is present exactly when each
    element has one and only one generalized inverse.  ``generators`` names
    the generating set the associativity test used, in table order; it
    records how the check ran, so it takes no part in equality.
    """

    associative: bool
    regular: bool
    idempotents_commute: bool
    inverses_unique: bool
    inverse_map: dict[str, str] | None = None
    counterexamples: tuple[tuple[str, ...], ...] = field(default=())
    generators: tuple[str, ...] = field(default=(), compare=False)


def _generating_set(table: CayleyTable) -> list[int]:
    """Indices of a set that generates the table under its binary product.

    Walks the elements from the top down and makes each one a generator
    when the closure of the earlier generators misses it.  "Top" does not
    depend on how the table lists its elements: an element comes earlier
    the more distinct products its row and column hold (|aS| + |Sa|), then
    the more distinct powers a, a*a, (a*a)*a, ... it has, and only then by
    table position.  Elements high in the ideal order are the ones no
    product reaches, so I(3), I(4) and I(5) each get two permutations and
    one rank n-1 map whatever their element order.  The closure grows by
    multiplying every new member with every member on both sides, at most
    O(n²) products, and assumes no associativity: no product is ever
    regrouped.  It stops as soon as it covers the table, since no later
    element can then become a generator; I(4)'s closure covers all 209
    elements once 37 of its members are multiplied out.  The result is
    deterministic and ascending.
    """
    rows = table.product
    cols = tuple(zip(*rows))
    n = len(rows)

    def powers(a: int) -> int:
        seen: set[int] = set()
        x = a
        while x not in seen:
            seen.add(x)
            x = rows[x][a]
        return len(seen)

    order = sorted(range(n),
                   key=lambda a: (-len(set(rows[a])) - len(set(cols[a])), -powers(a), a))
    members: list[int] = []
    closed: set[int] = set()
    generators: list[int] = []
    for g in order:
        if len(closed) == n:
            break
        if g in closed:
            continue
        generators.append(g)
        closed.add(g)
        members.append(g)
        pos = len(members) - 1
        while pos < len(members) and len(closed) < n:
            row, col = rows[members[pos]], cols[members[pos]]
            pos += 1
            products = set(map(row.__getitem__, members))
            products.update(map(col.__getitem__, members))
            products -= closed
            closed |= products
            members.extend(products)
    return sorted(generators)


def verify_inverse_semigroup(table: CayleyTable) -> AxiomReport:
    """Check associativity, regularity, commuting idempotents, and inverse
    uniqueness on the table.

    The table's shape (distinct names, n rows of n indices in range) is
    taken as given: the public :class:`CayleyTable` constructor checks it,
    and the text parser proves it while reading.  Each axiom is then
    checked here once.

    Associativity uses Light's test: ``(x*g)*y == x*(g*y)`` is checked for
    every x and y but only for g in a greedy generating set (see
    :func:`_generating_set`).  The elements that pass it are closed under
    the product and include every generator, so they are the whole table:
    the test is exact, and each failing ``(x, g, y)`` is a genuine
    ``associativity`` witness.  A non-associative table therefore lists
    only the failing triples whose middle element is a generator.  Each
    generator's check compares two rows: row ``x*g`` against row ``x``
    read along row ``g``.  The other axioms are checked by exhausting the
    table.  The quasi-inverse search scans rows instead of testing n²
    pairs one by one: for each a it keeps, in index order, the b whose
    product a*b lies in {c : c*a == a}, read off column a, and tests
    ``(b*a)*b == b`` only on those.

    Products in words like aba are taken left to right, which only matters
    while associativity is still in question.  If the table is associative
    and regular with commuting idempotents, unique inverses are forced; a
    table contradicting that is reported as an internal error rather than
    returned.
    """
    n = len(table)
    p = table.product
    mul = table.mul_index
    name = table.elements
    witnesses: list[tuple[str, ...]] = []

    associative = True
    generators = _generating_set(table)
    # itemgetter over a single index returns the bare entry, not a 1-tuple;
    # at n = 1, p[g] is (0,) and x*(g*y) read along it is row_x itself
    getters = [(g, itemgetter(*p[g]) if n > 1 else tuple) for g in generators]
    for x, row_x in enumerate(p):
        for g, get_g in getters:
            left = p[row_x[g]]
            right = get_g(row_x)
            if left != right:
                associative = False
                witnesses.extend(("associativity", name[x], name[g], name[y])
                                 for y in range(n) if left[y] != right[y])

    cols = tuple(zip(*p))
    indices = range(n)

    def quasi_inverses(a: int) -> list[int]:
        # (a*b)*a == a exactly when a*b lies in {c : c*a == a}, read off
        # column a; compress keeps the b that pass in index order
        fixes_a = set(compress(indices, map(a.__eq__, cols[a])))
        return [b for b in compress(indices, map(fixes_a.__contains__, p[a]))
                if p[p[b][a]][b] == b]

    regular = True
    inverses_unique = True
    inverse_map: dict[str, str] = {}
    for a in range(n):
        invs = quasi_inverses(a)
        if not invs:
            regular = False
            inverses_unique = False
            witnesses.append(("regularity", name[a]))
        elif len(invs) > 1:
            inverses_unique = False
            witnesses.append(("unique-inverse", name[a], name[invs[0]], name[invs[1]]))
        else:
            inverse_map[name[a]] = name[invs[0]]

    idempotents = [i for i in range(n) if mul(i, i) == i]
    idempotents_commute = True
    for pos, e in enumerate(idempotents):
        for f in idempotents[pos + 1:]:
            if mul(e, f) != mul(f, e):
                idempotents_commute = False
                witnesses.append(("commuting-idempotents", name[e], name[f]))

    if associative and regular and idempotents_commute and not inverses_unique:
        raise InternalContradictionError(
            "regular + commuting idempotents must force unique inverses; "
            f"table over {list(name)} violates this")

    return AxiomReport(
        associative=associative,
        regular=regular,
        idempotents_commute=idempotents_commute,
        inverses_unique=inverses_unique,
        inverse_map=inverse_map if inverses_unique else None,
        counterexamples=tuple(witnesses),
        generators=tuple(name[g] for g in generators),
    )


def inverse_monoid_size(n: int) -> int:
    """|I(n)| by the closed form: sum over k of C(n,k)^2 k!."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def symmetric_inverse_monoid(X: FinSet) -> list[PBij]:
    """All partial bijections X -> X, i.e. the symmetric inverse monoid I(X)."""
    return list(enumerate_pbij(X, X))


def idempotents_of(X: FinSet) -> list[PBij]:
    """The idempotents of I(X): exactly the partial identities, one per subset."""
    return [partial_identity(X, A) for A in X.subsets()]


def unique_inverse_check(elements: Sequence[PBij]) -> bool:
    """True iff each given endomorphism has exactly one generalized inverse
    within the full symmetric inverse monoid on its object."""
    elems = list(elements)
    if not elems:
        return True
    X = elems[0].source
    for f in elems:
        if f.source != X or f.target != X:
            raise ObjectMismatchError("all elements must live on one object X -> X")
    ambient = symmetric_inverse_monoid(X)
    for a in elems:
        found = [b for b in ambient
                 if compose(compose(a, b), a) == a and compose(compose(b, a), b) == b]
        if len(found) != 1:
            return False
    return True


def wagner_preston(table: CayleyTable) -> dict[str, PBij]:
    """Embed an inverse semigroup into the partial bijections of its carrier.

    Element a becomes the left translation x -> a*x restricted to a⁻¹S,
    which maps bijectively onto aS.  The result is an injective homomorphism
    for the apply-right-first composition used throughout; both properties
    are re-verified here on index rows, before any map is built.

    Each θ_a is a tuple of length n+1: ``a*x`` at each x in a⁻¹S, -1 at
    every other x, and a trailing -1, so reading any θ at index -1 gives -1.
    θ_a must be injective on a⁻¹S, which is one comparison of the number of
    distinct images with the size of the domain.  The homomorphism law
    ``theta(a*g) == theta(a) o theta(g)`` is checked for every a and every
    g in the greedy generating set that :func:`verify_inverse_semigroup`
    used and reports, as one tuple comparison: θ_{a*g} against θ_a read
    along θ_g, through one ``operator.itemgetter`` per generator.  The table
    is associative by then, so every b is a product of generators, and the
    law for all n² pairs (a, b) follows by induction on the length of b.
    The embedding is injective when the n tuples are distinct.  A failed
    check raises :class:`InternalContradictionError`.  Only then is each
    θ_a built once as a :class:`PBij`, keyed in carrier order, without the
    constructor's re-checks.

    A table that is not associative or lacks unique inverses is rejected
    with :class:`NotInverseSemigroupError`.
    """
    report = verify_inverse_semigroup(table)
    if not (report.associative and report.inverses_unique):
        raise NotInverseSemigroupError(report)
    assert report.inverse_map is not None
    p = table.product
    names = table.elements
    n = len(names)
    index = {e: i for i, e in enumerate(names)}
    inverse_map = report.inverse_map
    domains: list[list[int]] = []
    theta: list[tuple[int, ...]] = []
    for a, row_a in enumerate(p):
        dom = sorted(set(p[index[inverse_map[names[a]]]]))  # a⁻¹S, carrier order
        images = [row_a[x] for x in dom]
        if len(set(images)) != len(dom):
            raise InternalContradictionError(
                f"translation map of {names[a]} is not injective on its domain")
        t = [-1] * (n + 1)
        for x, y in zip(dom, images):
            t[x] = y
        domains.append(dom)
        theta.append(tuple(t))

    getters = [(g, itemgetter(*theta[g])) for g in map(index.__getitem__, report.generators)]
    for a, row_a in enumerate(p):
        theta_a = theta[a]
        for g, along_g in getters:
            if theta[row_a[g]] != along_g(theta_a):
                raise InternalContradictionError(
                    f"translation maps fail the homomorphism law at ({names[a]}, {names[g]})")
    if len(set(theta)) != n:
        raise InternalContradictionError("translation maps are not injective")

    carrier = FinSet(names)
    return {names[a]: _trusted(carrier, carrier, {names[x]: names[t[x]] for x in dom})
            for a, (t, dom) in enumerate(zip(theta, domains))}
