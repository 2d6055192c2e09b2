"""Shared helpers for the test suite: tiny constructors and counting oracles."""

from math import comb, factorial

from pbcat.core import FinSet, compose
from pbcat.monoid import CayleyTable, symmetric_inverse_monoid


def fin(text: str) -> FinSet:
    return FinSet.from_tokens(text)


def universe(n: int) -> FinSet:
    """Canonical n-element set {1, ..., n}."""
    return FinSet(str(i) for i in range(1, n + 1))


def pbij_count(n: int, m: int) -> int:
    """Independent count of partial bijections between an n-set and an m-set.

    Choose a k-element domain, a k-element image, and one of k! pairings.
    """
    return sum(comb(n, k) * comb(m, k) * factorial(k)
               for k in range(min(n, m) + 1))


def i_of_n_table(points: int) -> CayleyTable:
    """Cayley table of the symmetric inverse monoid on the given number of points."""
    elems = symmetric_inverse_monoid(universe(points))
    names = [f"m{i}" for i in range(len(elems))]
    by_value = {f: names[i] for i, f in enumerate(elems)}
    lookup = {n: f for n, f in zip(names, elems)}
    return CayleyTable.from_operation(
        names, lambda a, b: by_value[compose(lookup[a], lookup[b])])


# the operand count of each command, and the options of each that take one value
OPERAND_COUNTS = {"check-axioms": 0, "enumerate": 0, "noether1": 0, "noether2": 0, "kernel": 1,
                  "cokernel": 1, "factorize": 1, "grid33": 1, "wagner-preston": 1}
VALUE_OPTIONS = {command: ("--max-size", "--seed")
                 + (("--x", "--x1", "--x2") if command.startswith("noether") else ())
                 for command in OPERAND_COUNTS}


def table_shaped(argv) -> bool:
    """Whether argv is ``COMMAND (--OPT VALUE)* OPERAND*``: each option that
    takes one value spelled exactly and given at most once, then exactly
    the command's operands, and no value or operand starting with "-"."""
    if not argv or argv[0] not in OPERAND_COUNTS:
        return False
    rest, seen = list(argv[1:]), set()
    while rest and rest[0] in VALUE_OPTIONS[argv[0]]:
        if rest[0] in seen or len(rest) < 2 or rest[1].startswith("-"):
            return False
        seen.add(rest[0])
        rest = rest[2:]
    return len(rest) == OPERAND_COUNTS[argv[0]] and not any(t.startswith("-") for t in rest)
