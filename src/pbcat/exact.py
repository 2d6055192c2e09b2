"""Short exact sequences, 3x3 grid completion, and the two Noether
isomorphism theorems.

Quotients are canonical here: the quotient of X by a subset X1 is the
literal set difference X - X1, and the quotient arrow is the corestricted
partial identity.  That makes every construction below emit a concrete,
comparable value, and turns both Noether theorems into set identities that
are checked element-wise alongside the categorical construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .baer import cokernel, kernel
from .core import (
    FinSet,
    InternalContradictionError,
    ObjectMismatchError,
    PBij,
    _subset,
    _trusted,
    compose,
    inverse,
)


class DiagramInvalidError(ValueError):
    """A sequence or grid violates exactness/commutativity; names the culprit."""


_NOT_KERNEL = ("alpha is not a kernel of beta: im(alpha) differs from the "
               "complement of dom(beta)")


def _exactness(alpha: PBij, beta: PBij, epi: bool = True) -> str | None:
    """Why 0 -> U --alpha--> V --beta--> W -> 0 is not exact, or None.

    The caller has checked that alpha.target and beta.source are both V.
    alpha must be mono, beta epi (unless ``epi`` is false) and im(alpha) =
    V - dom(beta).  No composite is built: an image equal to V - dom(beta)
    misses dom(beta), which forces beta∘alpha = 0.  alpha is injective, so
    the image test is a size count and one disjointness test.  A failing
    image is reported as a nonzero beta∘alpha when it meets dom(beta) and
    as a wrong kernel when it does not, which is what composing first
    would report.
    """
    amap, bmap = alpha._map, beta._map
    if len(amap) != len(alpha.source.elements):
        return "alpha is not a monomorphism"
    if epi and len(bmap) != len(beta.target.elements):
        return "beta is not an epimorphism"
    disjoint = bmap.keys().isdisjoint(amap.values())
    if disjoint and len(amap) + len(bmap) == len(beta.source.elements):
        return None
    return _NOT_KERNEL if disjoint else "beta∘alpha is not the zero morphism"


@dataclass(frozen=True)
class ShortExactSeq:
    """0 -> U --alpha--> V --beta--> W -> 0, validated on construction.

    The sequence is its two arrows: U is alpha.source, V is alpha.target,
    which must be beta.source, and W is beta.target.  alpha must be mono,
    beta epi, and alpha a kernel of beta: the image of alpha is exactly the
    complement of dom(beta).  That equality already makes beta kill alpha,
    so no composite is built to check it.
    """

    alpha: PBij
    beta: PBij

    def __post_init__(self):
        if self.beta.source != self.alpha.target:
            raise DiagramInvalidError("beta does not run V -> W")
        failure = _exactness(self.alpha, self.beta)
        if failure is not None:
            raise DiagramInvalidError(failure)


def _quotient_arrows(X: FinSet, U: FinSet) -> tuple[PBij, PBij]:
    """The canonical arrows U -> X -> X - U for a checked U ⊆ X listed in
    X's order.  The pair is exact by construction: the inclusion's image U
    is the complement of the quotient's domain X - U, which also makes the
    composite zero."""
    W = X.difference(U)
    return _trusted(U, X, {u: u for u in U.elements}), _trusted(X, W, {w: w for w in W.elements})


def make_ses(X: FinSet, X1: Iterable[str]) -> ShortExactSeq:
    """The canonical sequence 0 -> X1 -> X -> X - X1 -> 0 for X1 ⊆ X: the
    inclusion of X1 as alpha and the quotient onto X - X1 as beta."""
    return ShortExactSeq(*_quotient_arrows(X, _subset(X1, X)))


def is_kernel_of(alpha: PBij, beta: PBij) -> bool:
    """True iff alpha is a mono hitting exactly the complement of dom(beta);
    beta then kills alpha, so no composite is built.  beta need not be epi."""
    if alpha.target != beta.source:
        raise ObjectMismatchError("alpha.target must equal beta.source")
    return _exactness(alpha, beta, epi=False) is None


@dataclass(frozen=True)
class Grid3x3:
    """A 3x3 grid as its arrows; bottom-row arrows optional.

    ``row_arrows[r]`` holds the two arrows of row r, left-to-right;
    ``row_arrows[2]`` may be None for a grid awaiting completion.
    ``col_arrows[s][c]`` is the column-c arrow from row s to row s+1.
    The nine objects are read off the columns (see :attr:`objects`).
    Construction only checks shape; :meth:`validate` checks the math.
    """

    row_arrows: tuple[tuple[PBij, PBij] | None, ...]
    col_arrows: tuple[tuple[PBij, PBij, PBij], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) if r is not None else None for r in self.row_arrows)
        cols = tuple(tuple(c) for c in self.col_arrows)
        object.__setattr__(self, "row_arrows", rows)
        object.__setattr__(self, "col_arrows", cols)
        if len(rows) != 3 or any(r is not None and len(r) != 2 for r in rows):
            raise DiagramInvalidError("grid needs 3 rows of 2 arrows each")
        if rows[0] is None or rows[1] is None:
            raise DiagramInvalidError("rows 1 and 2 must carry their arrows")
        if len(cols) != 2 or any(len(c) != 3 for c in cols):
            raise DiagramInvalidError("grid needs 2 levels of 3 column arrows")

    @property
    def objects(self) -> tuple[tuple[FinSet, FinSet, FinSet], ...]:
        """``objects[r][c]`` is the object at row r, column c (0-based):
        rows 1 and 2 are the sources of the two column levels, and row 3 is
        the targets of the lower level."""
        upper, lower = self.col_arrows
        return (tuple(arrow.source for arrow in upper), tuple(arrow.source for arrow in lower),
                tuple(arrow.target for arrow in lower))

    @property
    def has_bottom_row(self) -> bool:
        return self.row_arrows[2] is not None

    def with_bottom_row(self, phi: PBij, psi: PBij) -> "Grid3x3":
        return Grid3x3((self.row_arrows[0], self.row_arrows[1], (phi, psi)), self.col_arrows)

    def validate(self) -> None:
        """Check endpoints, commuting squares, and exactness of the rows and
        columns that are present; raises naming the failing piece."""
        for c, (upper, lower) in enumerate(zip(*self.col_arrows)):
            if upper.target != lower.source:
                raise DiagramInvalidError(
                    f"column {c + 1} arrow 1 does not match its endpoint objects")
        for r, (arrows, objects) in enumerate(zip(self.row_arrows, self.objects)):
            for c, arrow in enumerate(arrows or ()):
                if (arrow.source, arrow.target) != objects[c:c + 2]:
                    raise DiagramInvalidError(
                        f"row {r + 1} arrow {c + 1} does not match its endpoint objects")
        for s in range(2):
            if self.row_arrows[s + 1] is not None:
                self._check_squares(s, self.row_arrows[s + 1])
        for r, arrows in enumerate(self.row_arrows):
            if arrows is not None:
                _check_exact(f"row {r + 1}", arrows)
        for c in range(3):
            _check_exact(f"column {c + 1}", (self.col_arrows[0][c], self.col_arrows[1][c]))

    def _check_squares(self, s: int, lower: tuple[PBij, PBij]) -> None:
        """The squares from row s (0-based) down to the arrows ``lower`` commute."""
        upper, level = self.row_arrows[s], self.col_arrows[s]
        for c in range(2):
            if compose(level[c + 1], upper[c]) != compose(lower[c], level[c]):
                raise DiagramInvalidError(
                    f"square at rows {s + 1}-{s + 2}, columns {c + 1}-{c + 2} does not commute")


def _check_exact(label: str, arrows: tuple[PBij, PBij]) -> None:
    """The row or column ``arrows`` is exact; its endpoints are already
    checked (by :meth:`Grid3x3.validate`, or by construction)."""
    failure = _exactness(*arrows)
    if failure is not None:
        raise DiagramInvalidError(f"{label} is not exact: {failure}")


def complete_3x3(grid: Grid3x3) -> tuple[PBij, PBij]:
    """Fill in the bottom row of a validated grid.

    The middle-row arrows are conjugated down through the (invertible)
    column arrows: phi = c∘f∘c'⁻¹ and psi = c''∘g∘c⁻¹ with f, g the middle
    row and c', c, c'' the lower column arrows.  The grid is validated once.
    The completion is checked rather than trusted, but only for what it
    adds: the two lower squares and the exactness of the bottom row, whose
    endpoints hold by construction.
    """
    grid.validate()
    middle = grid.row_arrows[1]
    c_left, c_mid, c_right = grid.col_arrows[1]
    phi = compose(c_mid, compose(middle[0], inverse(c_left)))
    psi = compose(c_right, compose(middle[1], inverse(c_mid)))
    grid._check_squares(1, (phi, psi))
    _check_exact("row 3", (phi, psi))
    return phi, psi


def _chain(X: FinSet, X1: Iterable[str], X2: Iterable[str]) -> tuple[FinSet, FinSet]:
    """X1 and X2 in X's order, after checking X2 ⊆ X and then X1 ⊆ X2."""
    x2 = _subset(X2, X, "X2 must be a subset of X")
    return _subset(X1, x2, "X1 must be a subset of X2"), x2


def _grid_of(X: FinSet, a: FinSet, b: FinSet) -> Grid3x3:
    """:func:`pair_grid` of checked subsets a, b of X, listed in X's order."""
    meet = a.intersection(b)
    top, middle = _quotient_arrows(b, meet), _quotient_arrows(X, a)
    columns = (_quotient_arrows(a, meet), _quotient_arrows(X, b),
               _quotient_arrows(middle[1].target, top[1].target))
    return Grid3x3((top, middle, None), tuple(zip(*columns)))


def pair_grid(X: FinSet, A: Iterable[str], B: Iterable[str]) -> Grid3x3:
    """The unvalidated grid of any A, B ⊆ X, nested or not: rows A∩B -> B -> B-A
    over A -> X -> X-A and the canonical quotient sequences as columns.
    :func:`complete_3x3` validates it and completes it with A-B -> X-B -> X-A-B."""
    return _grid_of(X, _subset(A, X, "A must be a subset of X"),
                    _subset(B, X, "B must be a subset of X"))


def build_noether_grid(X: FinSet, X1: Iterable[str], X2: Iterable[str]) -> Grid3x3:
    """The Noether grid of X1 ⊆ X2 ⊆ X: :func:`pair_grid` on (X2, X1), whose
    top row is X1 = X1 -> ∅ and whose completed bottom row is
    0 -> X2-X1 -> X-X1 -> X-X2 -> 0."""
    x1, x2 = _chain(X, X1, X2)
    return _grid_of(X, x2, x1)


def noether_first(X: FinSet, X1: Iterable[str], X2: Iterable[str]) -> PBij:
    """(X-X1)-(X2-X1) equals X-X2, both as sets and categorically.

    For X1 ⊆ X2 ⊆ X this is the second theorem on the pair (X2, X-X1):
    their meet is X2-X1 and, as X1 ⊆ X2, their join is X, so the second
    theorem's X2-(X1∩X2) = (X1∪X2)-X1 reads (X-X1)-(X2-X1) = X-X2.  Only
    the nesting is checked here; X-X1 ⊆ X holds by construction.
    """
    x1, x2 = _chain(X, X1, X2)
    return _second_iso(x2, X.difference(x1))


def noether_second(X: FinSet, X1: Iterable[str], X2: Iterable[str]) -> PBij:
    """X2-(X1∩X2) equals (X1∪X2)-X1, both as sets and categorically.

    The categorical route restricts the quotient (X1∪X2) -> (X1∪X2)-X1 to
    X2; that composite is an epi whose kernel is X1∩X2, and dividing it by
    the canonical quotient of that kernel gives the isomorphism.
    """
    return _second_iso(_subset(X1, X, "X1 must be a subset of X"),
                       _subset(X2, X, "X2 must be a subset of X"))


def _second_iso(x1: FinSet, x2: FinSet) -> PBij:
    """The isomorphism of :func:`noether_second` for subsets x1, x2 of one
    set, both checked and listed in its order."""
    meet, both = x1.intersection(x2), x1.union(x2)
    lhs = x2.difference(meet)
    rhs = both.difference(x1)
    if lhs != rhs:
        raise InternalContradictionError(
            f"second quotient identity failed: {lhs!r} vs {rhs!r}")

    # x1 and x2 lie in both by construction: the canonical quotient
    # both -> both-X1 = rhs and the inclusion need no checks
    include = _trusted(x2, both, {x: x for x in x2.elements})
    gamma = compose(_trusted(both, rhs, {w: w for w in rhs.elements}), include)
    ker = kernel(gamma)
    if ker.source != meet:
        raise InternalContradictionError("kernel of the restricted quotient is not X1∩X2")
    iso = compose(gamma, inverse(cokernel(ker)))
    if not (iso.is_mono and iso.is_epi) or any(x != y for x, y in iso.items()):
        raise InternalContradictionError(
            f"categorical route disagrees with the set identity: {iso!r}")
    return iso
