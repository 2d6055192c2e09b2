"""Annihilator structure and exactness constructions.

The inverse operation is an involution on partial bijections, and every
morphism f : X -> Y has an annihilator projection f' = 1 on (X - dom f):
the morphisms killed by f (f∘g = 0) are exactly those that factor through
f'.  Kernels and cokernels split these projections: each is the
inclusion of, or corestriction onto, a projection's support, a literal
set complement, which keeps every construction canonical and equality
decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    FinSet,
    InternalContradictionError,
    ObjectMismatchError,
    PBij,
    _trusted,
    _trusted_set,
    compose,
    enumerate_pbij,
    inverse,
    zero_morphism,
)


@dataclass(frozen=True)
class Factorization:
    """f = mono ∘ epi, two arrows that meet at the intermediate object
    ``via``, the source of ``mono``."""
    mono: PBij
    epi: PBij

    @property
    def via(self) -> FinSet:
        return self.mono.source


@dataclass(frozen=True)
class ProjectionStatus:
    is_projection: bool
    is_closed: bool


@dataclass(frozen=True)
class NormalityReport:
    """normal_ok/conormal_ok are None when the respective flag does not apply."""
    normal_ok: bool | None
    conormal_ok: bool | None
    not_applicable: bool


def star(f: PBij) -> PBij:
    """The involution: contravariant, fixes objects, and here equals inverse."""
    return inverse(f)


def annihilator_projection(f: PBij) -> PBij:
    """The partial identity on source minus dom(f); generates {g | f∘g = 0}."""
    X = f.source
    return _trusted(X, X, {x: x for x in X.elements if x not in f._map})


def projection_status(e: PBij) -> ProjectionStatus:
    """Projection means idempotent and self-star; closed means e'' = e.

    Every projection here is closed (double complement); a projection that
    failed to be closed would be a bug, not a result.
    """
    if e.source != e.target:
        raise ObjectMismatchError("projection status needs an endomorphism")
    is_projection = compose(e, e) == e and star(e) == e
    is_closed = annihilator_projection(annihilator_projection(e)) == e
    if is_projection and not is_closed:
        raise InternalContradictionError(f"projection {e!r} is not closed")
    return ProjectionStatus(is_projection=is_projection, is_closed=is_closed)


def baer_annihilator_check(f: PBij, probe_objects: Iterable[FinSet]) -> bool:
    """Two-sided check that f' generates exactly the class annihilated by f.

    Over each probe P: any g with f∘g = 0 must already factor as f'∘g, and
    anything of the form f'∘h must be annihilated by f.
    """
    probes = list(probe_objects)
    if not probes:
        raise ValueError("at least one probe object is required")
    f_prime = annihilator_projection(f)
    for P in probes:
        zero = zero_morphism(P, f.target)
        for g in enumerate_pbij(P, f.source):
            if compose(f, g) == zero:
                if compose(f_prime, g) != g:
                    return False
            generated = compose(f_prime, g)
            if compose(f, generated) != zero:
                return False
    return True


def factorize(f: PBij) -> Factorization:
    """Split f into an inclusion of its image after a corestriction onto it.

    ``epi`` keeps the graph of f but shrinks the target to im(f); ``mono``
    includes im(f) back into the original target.  mono ∘ epi = f, and
    the two arrows meet at im(f), the factorization's ``via``.
    """
    via = _trusted_set(f.im)
    mono = _trusted(via, f.target, {y: y for y in via.elements})
    return Factorization(mono=mono, epi=_trusted(f.source, via, f._map))


def kernel(f: PBij) -> PBij:
    """The kernel of f, an arrow: f' split, i.e. the inclusion of its
    support (source - dom f) into the source.  The projection's map is
    the arrow's map; no factorization is built."""
    e = annihilator_projection(f)
    return _trusted(_trusted_set(tuple(e._map)), f.source, e._map)


def cokernel(f: PBij) -> PBij:
    """The cokernel of f, an arrow: (f⁻¹)' split, i.e. the target
    corestricted onto its support (target - im f).  The projection's map
    is the arrow's map; no factorization is built."""
    e = annihilator_projection(inverse(f))
    return _trusted(f.target, _trusted_set(tuple(e._map)), e._map)


def kernel_universal_check(f: PBij, probe_objects: Iterable[FinSet]) -> bool:
    """f kills the kernel arrow, and every g killed by f factors through it
    exactly once."""
    probes = list(probe_objects)
    if not probes:
        raise ValueError("at least one probe object is required")
    ker = kernel(f)
    if not compose(f, ker).is_zero:
        return False
    for P in probes:
        zero = zero_morphism(P, f.target)
        kernel_homs = list(enumerate_pbij(P, ker.source))
        for g in enumerate_pbij(P, f.source):
            if compose(f, g) != zero:
                continue
            through = [h for h in kernel_homs if compose(ker, h) == g]
            if len(through) != 1:
                return False
    return True


def normal_conormal_check(f: PBij) -> NormalityReport:
    """Monos must be kernels and epis must be cokernels, up to canonical iso.

    Subobjects here are literal subsets, so "up to canonical iso" means: a
    mono is compared by (target, image) with the kernel of the annihilator
    of its inverse; an epi by (source, domain) with the cokernel of its own
    annihilator.  Morphisms that are neither mono nor epi are out of scope.
    Both canonical arrows are built on f's own objects, so images and
    domains list their tokens in one order and compare as tuples.
    """
    normal_ok: bool | None = None
    conormal_ok: bool | None = None
    if f.is_mono:
        k = kernel(annihilator_projection(inverse(f)))
        normal_ok = f.target == k.target and f.im == k.im
    if f.is_epi:
        q = cokernel(annihilator_projection(f))
        conormal_ok = f.source == q.source and f.dom == q.dom
    return NormalityReport(
        normal_ok=normal_ok,
        conormal_ok=conormal_ok,
        not_applicable=not (f.is_mono or f.is_epi),
    )
