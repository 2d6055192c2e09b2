"""Finite sets and partial bijections.

A partial bijection f : X -> Y is an injective function from a subset of X
(its domain ``dom``) onto a subset of Y (its image ``im``).  Finite sets and
partial bijections form a category: objects are :class:`FinSet` values,
morphisms are :class:`PBij` values, composition applies the right factor
first, and every Hom(X, Y) contains the empty morphism 0.

Everything here is an immutable value; operations are pure functions.  The
enumeration helpers are the backbone of the exhaustive law checks in the
rest of the package, so iteration order is deterministic throughout: a
FinSet iterates in declaration order and enumerators respect it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator


class ObjectMismatchError(ValueError):
    """Two morphisms/objects that have to agree (e.g. for composition) do not."""


class InvalidSubsetError(ValueError):
    """A claimed subset contains elements outside its ambient set."""


class InternalContradictionError(RuntimeError):
    """A law the constructions guarantee came out false; indicates a bug."""


class FinSet:
    """A finite set of opaque string tokens with a fixed iteration order.

    Equality and hashing ignore order (a set is its elements); iteration,
    enumeration, and serialization use declaration order so that results
    are reproducible.
    """

    __slots__ = ("elements", "_as_set")

    def __init__(self, elements: Iterable[str] = ()):
        elems = tuple(elements)
        for e in elems:
            if not isinstance(e, str):
                raise TypeError(f"element tokens must be strings, got {e!r}")
        as_set = frozenset(elems)
        if len(as_set) != len(elems):
            raise ValueError(f"duplicate element tokens in {elems!r}")
        self.elements = elems
        self._as_set = as_set

    @classmethod
    def from_tokens(cls, text: str) -> "FinSet":
        """Build a FinSet from whitespace-separated tokens, e.g. ``"a b c"``."""
        return cls(text.split())

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, token: object) -> bool:
        return token in self._as_set

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinSet):
            return NotImplemented
        return self._as_set == other._as_set

    def __hash__(self) -> int:
        return hash(self._as_set)

    def __repr__(self) -> str:
        return f"FinSet({list(self.elements)!r})"

    def issubset(self, other: "FinSet") -> bool:
        return self._as_set <= other._as_set

    def intersection(self, other: Iterable[str]) -> "FinSet":
        keep = other._as_set if isinstance(other, FinSet) else frozenset(other)
        return _trusted_set(tuple([e for e in self.elements if e in keep]))

    def difference(self, other: Iterable[str]) -> "FinSet":
        drop = other._as_set if isinstance(other, FinSet) else frozenset(other)
        return _trusted_set(tuple([e for e in self.elements if e not in drop]))

    def union(self, other: "FinSet") -> "FinSet":
        mine = self._as_set
        return _trusted_set(self.elements + tuple([e for e in other.elements if e not in mine]))

    def subsets(self) -> Iterator["FinSet"]:
        """All subsets, by size and then by position (deterministic)."""
        for k in range(len(self.elements) + 1):
            for combo in itertools.combinations(self.elements, k):
                yield _trusted_set(combo)


def _trusted_set(elems: tuple[str, ...]) -> FinSet:
    """A FinSet over distinct string tokens, without the constructor's checks;
    the results of set operations on valid FinSets are built here."""
    s = object.__new__(FinSet)
    s.elements = elems
    s._as_set = frozenset(elems)
    return s


def _split_set(tokens: Iterable[str]) -> FinSet:
    """A FinSet over tokens that ``str.split()`` returned.  They are strings,
    so of the constructor's checks only the duplicate check is kept, with
    the constructor's message; the parsers build their objects here."""
    s = _trusted_set(tuple(tokens))
    if len(s._as_set) != len(s.elements):
        raise ValueError(f"duplicate element tokens in {s.elements!r}")
    return s


class PBij:
    """A partial bijection between two finite sets.

    The map is stored once, as a ``token -> token`` dict whose keys follow
    the source's declaration order.  The public constructor validates its
    pairs (each x from ``source`` at most once, each y from ``target`` at
    most once); it is the boundary that parsed input and callers go
    through.  Results of operations on valid morphisms (composites,
    inverses, enumerations, partial identities, canonical arrows) are valid
    by construction and skip the checks: :func:`compose`, :func:`inverse`
    and :func:`enumerate_pbij` set the four slots of a bare instance
    themselves, and the rest go through :func:`_trusted`; so do the
    Wagner-Preston translations, which :func:`pbcat.monoid.wagner_preston`
    checks on index rows first.

    A morphism stores its two objects, its map and, once :func:`inverse`
    has computed it, its inverse; ``graph``, ``dom``, ``im`` and the hash
    are computed from the map on every read.  An inverse is not linked
    back to its morphism: inverting it again builds a new morphism equal
    to the original.  Two morphisms are equal iff source, target, and map
    all agree, whatever order their objects list their tokens in; Hom-sets
    over distinct object pairs are therefore disjoint.
    """

    __slots__ = ("source", "target", "_map", "_inverse")

    def __init__(self, source: FinSet, target: FinSet,
                 pairs: Iterable[tuple[str, str]] = ()):
        fwd: dict[str, str] = {}
        seen_y = set()
        xs, ys = source._as_set, target._as_set
        for x, y in pairs:
            if x not in xs:
                raise ValueError(f"{x!r} is not in the source set")
            if y not in ys:
                raise ValueError(f"{y!r} is not in the target set")
            if x in fwd:
                if fwd[x] == y:
                    continue  # a repeated pair is the same pair
                raise ValueError(f"{x!r} is mapped twice; not functional")
            if y in seen_y:
                raise ValueError(f"{y!r} is hit twice; not injective")
            fwd[x] = y
            seen_y.add(y)
        self.source = source
        self.target = target
        self._map = {x: fwd[x] for x in source.elements if x in fwd}
        self._inverse = None

    @property
    def graph(self) -> frozenset[tuple[str, str]]:
        """The set of (x, f(x)) pairs."""
        return frozenset(self._map.items())

    @property
    def dom(self) -> tuple[str, ...]:
        """The domain, in source declaration order."""
        return tuple(self._map)

    @property
    def im(self) -> tuple[str, ...]:
        """The image, in target declaration order."""
        hit = set(self._map.values())
        return tuple(y for y in self.target.elements if y in hit)

    def __call__(self, x: str) -> str:
        """Apply to ``x``; raises KeyError outside the domain."""
        return self._map[x]

    def get(self, x: str, default: str | None = None) -> str | None:
        return self._map.get(x, default)

    def items(self) -> Iterator[tuple[str, str]]:
        """Graph pairs in source declaration order."""
        return iter(self._map.items())

    @property
    def is_zero(self) -> bool:
        return not self._map

    @property
    def is_mono(self) -> bool:
        """Left-cancellable: in this category, defined on all of the source."""
        return len(self._map) == len(self.source.elements)

    @property
    def is_epi(self) -> bool:
        """Right-cancellable: in this category, onto all of the target."""
        return len(self._map) == len(self.target.elements)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PBij):
            return NotImplemented
        # the objects of a sweep's morphisms are shared, so identity settles
        # most comparisons before their frozensets are compared
        return (self._map == other._map
                and (self.source is other.source or self.source == other.source)
                and (self.target is other.target or self.target == other.target))

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.graph))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{x}->{y}" for x, y in self.items())
        src = " ".join(self.source.elements)
        tgt = " ".join(self.target.elements)
        return f"PBij({src} -> {tgt}: {pairs})"


# the allocation behind every unchecked PBij; compose, inverse and
# enumerate_pbij, the hot loops of the law sweeps, call it and set the four
# slots themselves, which saves them a call to _trusted per morphism
_new = object.__new__


def _trusted(source: FinSet, target: FinSet, fwd: dict[str, str]) -> PBij:
    """A PBij over an already valid map, without the constructor's checks.

    ``fwd`` must be injective, map source tokens to target tokens, and list
    its keys in source declaration order; the caller owns that promise.
    The dict is kept, not copied, and no PBij ever changes its map.
    """
    f = _new(PBij)
    f.source = source
    f.target = target
    f._map = fwd
    f._inverse = None
    return f


def _within(A: Iterable[str], X: FinSet, message: str | None = None) -> frozenset[str]:
    """The tokens of ``A``, after checking that they lie inside ``X``.

    Raises :class:`InvalidSubsetError` with ``message``, or by default
    with the stray tokens and the elements of ``X``.
    """
    keep = A._as_set if isinstance(A, FinSet) else frozenset(A)
    if not keep <= X._as_set:
        if message is None:
            message = f"{sorted(keep - X._as_set)!r} not contained in {list(X.elements)!r}"
        raise InvalidSubsetError(message)
    return keep


def _subset(A: Iterable[str], X: FinSet, message: str | None = None) -> FinSet:
    """``A`` as a FinSet in ``X``'s order, after :func:`_within` has checked
    that it lies inside ``X``."""
    return X.intersection(_within(A, X, message))


def compose(g: PBij, f: PBij) -> PBij:
    """g after f: graph {(x, g(f(x)))} over the x with f(x) in dom(g).

    If the image of f misses the domain of g entirely, the result is the
    zero morphism.
    """
    if f.target is not g.source and f.target != g.source:
        raise ObjectMismatchError(
            f"cannot compose: intermediate objects differ "
            f"({list(f.target.elements)} vs {list(g.source.elements)})")
    gm = g._map
    h = _new(PBij)
    h.source = f.source
    h.target = g.target
    h._map = {x: gm[y] for x, y in f._map.items() if y in gm}
    h._inverse = None
    return h


def inverse(f: PBij) -> PBij:
    """Transpose the graph; dom and im trade places.  The result is kept on
    ``f``, so inverting the same morphism again returns the same object."""
    inv = f._inverse
    if inv is None:
        back = {y: x for x, y in f._map.items()}
        inv = _new(PBij)
        inv.source = f.target
        inv.target = f.source
        inv._map = {y: back[y] for y in f.target.elements if y in back}
        inv._inverse = None
        f._inverse = inv
    return inv


def partial_identity(X: FinSet, A: Iterable[str]) -> PBij:
    """The identity on A viewed as a morphism X -> X; requires A ⊆ X."""
    keep = _within(A, X)
    return _trusted(X, X, {x: x for x in X.elements if x in keep})


def identity(X: FinSet) -> PBij:
    return _trusted(X, X, {x: x for x in X.elements})


def zero_morphism(X: FinSet, Y: FinSet) -> PBij:
    return _trusted(X, Y, {})


def enumerate_pbij(X: FinSet, Y: FinSet) -> Iterator[PBij]:
    """Yield every partial bijection X -> Y exactly once.

    Ordered by domain size, then domain position, then image arrangement.
    The count is sum over k of C(|X|,k) * C(|Y|,k) * k!, which grows
    super-exponentially; callers pick their sizes.
    """
    top = min(len(X), len(Y))
    for k in range(top + 1):
        for dom in itertools.combinations(X.elements, k):
            for img in itertools.permutations(Y.elements, k):
                f = _new(PBij)
                f.source = X
                f.target = Y
                f._map = dict(zip(dom, img))
                f._inverse = None
                yield f


def cancellation_oracle(f: PBij, side: str,
                        probe_objects: Iterable[FinSet]) -> bool:
    """Exhaustively test left/right cancellation of f against probe objects.

    side="left": f∘g1 = f∘g2 forces g1 = g2 for all g1, g2 in Hom(P, source).
    side="right": g1∘f = g2∘f forces g1 = g2 for all g1, g2 in Hom(target, P).
    Left cancellation is the categorical monomorphism property, right is epi.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    probes = list(probe_objects)
    if not probes:
        raise ValueError("at least one probe object is required")
    left = side == "left"
    for P in probes:
        seen: dict[PBij, PBij] = {}
        for g in enumerate_pbij(P, f.source) if left else enumerate_pbij(f.target, P):
            key = compose(f, g) if left else compose(g, f)
            if seen.setdefault(key, g) != g:
                return False
    return True
