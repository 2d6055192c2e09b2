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
