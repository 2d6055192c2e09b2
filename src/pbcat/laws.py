"""The named law suite behind the check-axioms command.

Each law is a self-contained check of one algebraic fact, exhaustive up to
a per-law size bound (never above the caller's max_size) and topped up
with seeded random cases at sizes the exhaustive sweep cannot reach.  A
law reports how many cases it checked and, on failure, a serialized first
counterexample.  Registry order is fixed so reports are reproducible
byte for byte for a given (max_size, seed) pair.

A law is a tuple of sweeps, and :func:`run_law` is the one loop that runs
them: it chains them in order and hands them one RNG.  A sweep is a callable
``(cap, rng) -> Iterator[Step]``.  A step is ``(cases, failure)``.
``cases`` is what the step adds to the law's count: a whole batch of
chains or samples (up to and including the first failing one), 1 for most
steps of an object sweep, the number of elements a whole-monoid step
covers, or 0 for a further check on a case already counted.  ``failure``
is None, or a ``(description, {label: morphism})`` pair whose morphisms
are serialized as the counterexample.  The first failure ends the law, and
the reported count includes that step.

Three generator functions make the declared sweeps, and :data:`LAWS` binds
each one's leading arguments with :func:`functools.partial`, so a sweep's
``func`` is its kind and its ``args`` are the rest of its declaration.
Most sweeps check one chain of composable morphisms at a time through a
plain check ``(f, g, ...) -> description | None``:
``_chains(length, bound, check)`` runs it on every chain up to a size
bound, ``_samples(length, lo, check)`` on random chains at each size from
lo up to the cap, and :func:`_each` declares the two together.  A printed
counterexample replays through the check: parsed back in label order, it
yields the printed description.  Most other sweeps check one object
X = {1..n} at a time: ``_objects(bound, steps)`` runs a step function
``(n, X) -> Iterator[Step]`` at every size up to its bound, or up to the
cap if it is None.  Three laws keep a hand-written sweep; the comment
above :data:`LAWS` says why.  Two of them take a bound as their leading
argument, bound in :data:`LAWS` like the others', so every bound a law
has is stated there; wagner-preston has none.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Iterator

from .baer import (
    annihilator_projection,
    baer_annihilator_check,
    cokernel,
    factorize,
    kernel,
    kernel_universal_check,
    normal_conormal_check,
    projection_status,
    star,
)
from .core import (
    FinSet,
    PBij,
    compose,
    cancellation_oracle,
    enumerate_pbij,
    identity,
    inverse,
    partial_identity,
    zero_morphism,
)
from .exact import build_noether_grid, complete_3x3, is_kernel_of, make_ses
from .exact import noether_first, noether_second
from .monoid import (
    CayleyTable,
    NotInverseSemigroupError,
    idempotents_of,
    inverse_monoid_size,
    symmetric_inverse_monoid,
    unique_inverse_check,
    verify_inverse_semigroup,
    wagner_preston,
)
from .textio import serialize_pbij

_SAMPLES = 30

Failure = tuple[str, dict[str, PBij]]
Step = tuple[int, Failure | None]
_Sweep = Callable[[int, random.Random], Iterator[Step]]
_Check = Callable[..., str | None]


@dataclass(frozen=True)
class LawResult:
    name: str
    ok: bool
    checked: int
    detail: str = ""


def _failure_if(broken: bool, description: str, **morphisms: PBij) -> Failure | None:
    return (description, morphisms) if broken else None


# the fixed objects every sweep draws on, each built once
@cache
def _src(n: int) -> FinSet:
    return FinSet(str(i) for i in range(1, n + 1))


@cache
def _tgt(n: int) -> FinSet:
    return FinSet("abcdef"[i] for i in range(n))


@cache
def _mid(n: int) -> FinSet:
    return FinSet("uvwxyz"[i] for i in range(n))


# the probe objects of the cancellation, annihilator and kernel checks
_PROBES = (FinSet(), _mid(1), _mid(2))

# the makers of the objects a chain of morphisms runs through, in turn
_CHAIN = (_src, _tgt, _mid, _src)


def _checked(check: _Check, chains: Iterable[tuple[PBij, ...]]) -> Step:
    """One step for a whole batch of chains, one case per chain checked: the
    first failing chain ends the batch, is counted, and labels its
    morphisms f, g, h in order."""
    count = 0
    for count, chain in enumerate(chains, 1):
        description = check(*chain)
        if description is not None:
            return count, (description, dict(zip("fgh", chain)))
    return count, None


def _chains(length: int, bound: int, check: _Check, cap: int,
            rng: random.Random) -> Iterator[Step]:
    """Run ``check`` on every chain of ``length`` composable morphisms over
    the ``_CHAIN`` objects, each of size at most ``bound`` (never above
    the cap); the sizes vary slowest, then the first morphism, then the
    next, and each size tuple is one step.

    A run enumerates each Hom-set once, through this module's
    ``enumerate_pbij`` when a size tuple first needs it, and reuses its
    morphisms, with the inverses :func:`inverse` keeps on them, in every
    later size tuple of the run.  The Hom-sets are keyed by the identity
    of their two objects: the empty objects of ``_src``, ``_tgt`` and
    ``_mid`` are equal, and each Hom-set keeps its own.  Nothing is kept
    once the run ends."""
    homs: dict[tuple[int, int], tuple[PBij, ...]] = {}

    def hom(X: FinSet, Y: FinSet) -> tuple[PBij, ...]:
        key = id(X), id(Y)
        if key not in homs:
            homs[key] = tuple(enumerate_pbij(X, Y))
        return homs[key]

    for sizes in itertools.product(range(min(cap, bound) + 1), repeat=length + 1):
        objects = [make(n) for make, n in zip(_CHAIN, sizes)]
        yield _checked(check, itertools.product(
            *(hom(X, Y) for X, Y in zip(objects, objects[1:]))))


def _random_pbij(rng: random.Random, X: FinSet, Y: FinSet) -> PBij:
    k = rng.randint(0, min(len(X), len(Y)))
    return PBij(X, Y, zip(rng.sample(X.elements, k), rng.sample(Y.elements, k)))


def _samples(length: int, lo: int, check: _Check, cap: int,
             rng: random.Random) -> Iterator[Step]:
    """Run ``check`` on ``_SAMPLES`` random chains of ``length`` composable
    morphisms over the ``_CHAIN`` objects, all of size n, at each n from
    ``lo`` to the cap; each size is one step."""
    for n in range(lo, cap + 1):
        objects = [make(n) for make in _CHAIN[:length + 1]]
        yield _checked(check, (
            tuple(_random_pbij(rng, X, Y) for X, Y in zip(objects, objects[1:]))
            for _ in range(_SAMPLES)))


def _each(length: int, exhaustive_to: int, sampled_from: int | None,
          check: _Check) -> tuple[_Sweep, ...]:
    """Every chain up to size ``exhaustive_to``, then samples from size
    ``sampled_from`` to the cap (none if it is None)."""
    samples = () if sampled_from is None else (partial(_samples, length, sampled_from, check),)
    return (partial(_chains, length, exhaustive_to, check), *samples)


def _objects(bound: int | None, steps: Callable[[int, FinSet], Iterator[Step]], cap: int,
             rng: random.Random) -> Iterator[Step]:
    """Run ``steps(n, X)`` on the object X = {1..n} at every size n up to
    ``bound`` (never above the cap), or up to the cap if it is None."""
    for n in range((cap if bound is None else min(cap, bound)) + 1):
        yield from steps(n, _src(n))


def _law_composition_closure(f: PBij, g: PBij) -> str | None:
    """compose(g, f) applies f first and keeps exactly the points f sends
    into dom(g)."""
    expected = frozenset((x, g(y)) for x, y in f.items() if g.get(y) is not None)
    h = compose(g, f)
    if h.graph != expected or h.source != f.source or h.target != g.target:
        return "wrong composite"
    return None


def _law_associativity(f: PBij, g: PBij, h: PBij) -> str | None:
    """h∘(g∘f) = (h∘g)∘f."""
    if compose(h, compose(g, f)) != compose(compose(h, g), f):
        return "associativity broken"
    return None


def _law_identity_neutrality(f: PBij) -> str | None:
    """1_Y∘f = f = f∘1_X."""
    if compose(identity(f.target), f) != f or compose(f, identity(f.source)) != f:
        return "identity not neutral"
    return None


def _law_inverse(f: PBij) -> str | None:
    """f⁻¹∘f = 1_dom, f∘f⁻¹ = 1_im, (f⁻¹)⁻¹ = f and f∘f⁻¹∘f = f."""
    g = inverse(f)
    if (compose(g, f) != partial_identity(f.source, f.dom)
            or compose(f, g) != partial_identity(f.target, f.im)
            or inverse(g) != f
            or compose(f, compose(g, f)) != f):
        return "inverse law broken"
    return None


def _law_contravariance(f: PBij, g: PBij) -> str | None:
    """(g∘f)⁻¹ = f⁻¹∘g⁻¹."""
    if inverse(compose(g, f)) != compose(inverse(f), inverse(g)):
        return "contravariance broken"
    return None


def _law_inverse_pair(f: PBij, g: PBij) -> str | None:
    """Both inverse laws on one sampled pair, reported as one."""
    if _law_inverse(f) or _law_contravariance(f, g):
        return "inverse law broken"
    return None


def _law_idempotent_meet(bound: int, cap: int, rng: random.Random) -> Iterator[Step]:
    """1_A∘1_B = 1_{A∩B} = 1_B∘1_A for all subset pairs of X = {1..n}, at
    the one size n = ``bound`` (never above the cap)."""
    X = _src(min(cap, bound))
    projections = [(A, partial_identity(X, A)) for A in X.subsets()]
    for A, id_a in projections:
        for B, id_b in projections:
            meet = partial_identity(X, A.intersection(B))
            ab = compose(id_a, id_b)
            ba = compose(id_b, id_a)
            yield 1, _failure_if(ab != meet or ba != meet,
                                 f"meet law broken for A={list(A)} B={list(B)}")


def _law_zero_morphisms(bound: int, cap: int, rng: random.Random) -> Iterator[Step]:
    """Hom(∅, Y) and Hom(X, ∅) are singletons; the zero morphism absorbs.
    Checked at every size pair up to ``bound`` (never above the cap)."""
    P = _mid(2)
    for a, b in itertools.product(range(min(cap, bound) + 1), repeat=2):
        X, Y = _src(a), _tgt(b)
        yield 1, _failure_if(
            list(enumerate_pbij(FinSet(), Y)) != [zero_morphism(FinSet(), Y)]
            or list(enumerate_pbij(X, FinSet())) != [zero_morphism(X, FinSet())],
            f"empty-set hom-set is not a singleton at sizes ({a},{b})")
        for f in enumerate_pbij(X, Y):
            yield 1, _failure_if(
                compose(f, zero_morphism(P, X)) != zero_morphism(P, Y)
                or compose(zero_morphism(Y, P), f) != zero_morphism(X, P),
                "zero morphism not absorbing", f=f)


def _law_cancellation_agreement(f: PBij) -> str | None:
    """Left/right cancellability against small probes agrees with the
    dom-full/im-full criteria."""
    if (cancellation_oracle(f, "left", _PROBES) != f.is_mono
            or cancellation_oracle(f, "right", _PROBES) != f.is_epi):
        return "cancellation oracle disagrees with is_mono/is_epi"
    return None


def _law_monoid_size(n: int, X: FinSet) -> Iterator[Step]:
    """|I(n)| matches the closed-form count sum_k C(n,k)^2 k!."""
    expected = inverse_monoid_size(n)
    got = sum(1 for _ in symmetric_inverse_monoid(X))
    yield 1, _failure_if(got != expected, f"|I({n})| = {got}, expected {expected}")


def _law_monoid_closure(n: int, X: FinSet) -> Iterator[Step]:
    """I(X) contains the identity and is closed under compose and inverse."""
    elements = list(symmetric_inverse_monoid(X))
    population = set(elements)
    yield 0, _failure_if(identity(X) not in population, f"1_X missing from I({n})")
    for f in elements:
        yield 1, _failure_if(inverse(f) not in population,
                             "inverse escapes the monoid", f=f)
        for g in elements:
            yield 1, _failure_if(compose(g, f) not in population,
                                 "composite escapes the monoid", f=f, g=g)


def _law_idempotent_census(n: int, X: FinSet) -> Iterator[Step]:
    """The idempotents of I(X) are exactly the 2^|X| partial identities."""
    declared = set(idempotents_of(X))
    brute = {f for f in symmetric_inverse_monoid(X) if compose(f, f) == f}
    yield len(brute), _failure_if(
        declared != brute or len(declared) != 2 ** n,
        f"idempotent census failed at n={n}: "
        f"{len(declared)} declared, {len(brute)} found")


def _law_unique_inverses(n: int, X: FinSet) -> Iterator[Step]:
    """Every element of I(X) has exactly one generalized inverse."""
    elements = list(symmetric_inverse_monoid(X))
    yield len(elements) ** 2, _failure_if(not unique_inverse_check(elements),
                                          f"inverse not unique in I({n})")


def _wagner_fixtures() -> list[tuple[str, CayleyTable]]:
    i2 = {f: f"m{i}" for i, f in enumerate(symmetric_inverse_monoid(_src(2)))}
    back = {name: f for f, name in i2.items()}
    i2_table = CayleyTable.from_operation(
        tuple(i2.values()), lambda a, b: i2[compose(back[a], back[b])])
    return [
        ("two-element group", CayleyTable(("e", "a"), ((0, 1), (1, 0)))),
        ("two-element semilattice", CayleyTable(("0", "1"), ((0, 0), (0, 1)))),
        ("I(2) Cayley table", i2_table),
    ]


def _law_wagner_preston(cap: int, rng: random.Random) -> Iterator[Step]:
    """Translation embeddings are injective homomorphisms on the fixture
    tables; the left-zero table is rejected for non-commuting idempotents."""
    for label, table in _wagner_fixtures():
        theta = wagner_preston(table)
        yield 0, _failure_if(len(set(theta.values())) != len(table),
                             f"embedding not injective on {label}")
        for a in table.elements:
            for b in table.elements:
                yield 1, _failure_if(theta[table.mul(a, b)] != compose(theta[a], theta[b]),
                                     f"not a homomorphism on {label} at ({a},{b})",
                                     image_a=theta[a], image_b=theta[b])
        names = {f: e for e, f in theta.items()}
        image_table = CayleyTable.from_operation(
            table.elements, lambda a, b: names[compose(theta[a], theta[b])])
        report = verify_inverse_semigroup(image_table)
        yield 1, _failure_if(not (report.associative and report.regular
                                  and report.idempotents_commute
                                  and report.inverses_unique),
                             f"image table fails re-verification on {label}")

    try:
        wagner_preston(CayleyTable(("a", "b"), ((0, 0), (1, 1))))
        rejection = None
    except NotInverseSemigroupError as exc:
        rejection = exc.report
    yield 1, _failure_if(rejection is None, "left-zero table was wrongly accepted")
    witnessed = any(w[0] == "commuting-idempotents" for w in rejection.counterexamples)
    yield 0, _failure_if(rejection.idempotents_commute or not witnessed,
                         "left-zero rejection lacks the expected witness")


def _law_double_star(f: PBij) -> str | None:
    """f** = f."""
    return "double star differs" if star(star(f)) != f else None


def _law_self_dual_identity(n: int, X: FinSet) -> Iterator[Step]:
    """1_X* = 1_X."""
    yield 1, _failure_if(star(identity(X)) != identity(X),
                         f"identity not self-dual at size {n}")


def _law_star_contravariance(f: PBij, g: PBij) -> str | None:
    """(g∘f)* = f*∘g*."""
    if star(compose(g, f)) != compose(star(f), star(g)):
        return "star contravariance broken"
    return None


def _law_star_pair(f: PBij, g: PBij) -> str | None:
    """Both star laws on one sampled pair, reported as one."""
    return "star law broken" if _law_star_contravariance(f, g) or _law_double_star(f) else None


def _law_annihilator_projection(f: PBij) -> str | None:
    """f′ is the projection on the domain complement and kills f."""
    e = annihilator_projection(f)
    if not projection_status(e).is_projection:
        return "annihilator is not a projection"
    if not compose(f, e).is_zero:
        return "annihilator fails to kill its morphism"
    if e.source.intersection(e.dom) != f.source.difference(f.dom):
        return "annihilator has the wrong support"
    return None


def _law_closed_projection(n: int, X: FinSet) -> Iterator[Step]:
    """Every projection equals its double annihilator."""
    for A in X.subsets():
        e = partial_identity(X, A)
        yield 1, _failure_if(annihilator_projection(annihilator_projection(e)) != e,
                             "projection is not closed", e=e)
        yield 0, _failure_if(not projection_status(e).is_closed,
                             "status disagrees on closedness", e=e)


def _law_baer_annihilator(f: PBij) -> str | None:
    """The morphisms killed by f are exactly the multiples of f′."""
    return None if baer_annihilator_check(f, _PROBES) else "annihilator class mismatch"


def _law_kernel_universal(f: PBij) -> str | None:
    """Every morphism killed by f factors uniquely through kernel(f)."""
    return None if kernel_universal_check(f, _PROBES) else "kernel universal property failed"


def _law_factorization(f: PBij) -> str | None:
    """f = mono∘epi through the image, with the split witness identity."""
    fact = factorize(f)
    if (compose(fact.mono, fact.epi) != f
            or not fact.mono.is_mono
            or not fact.epi.is_epi
            or fact.via != FinSet(f.im)
            or compose(fact.epi, compose(inverse(f), fact.mono)) != identity(fact.via)):
        return "factorization broken"
    return None


def _law_kernel_cokernel(f: PBij) -> str | None:
    """kernel/cokernel land on the domain/image complements and satisfy
    their defining equations."""
    k = kernel(f)
    c = cokernel(f)
    if (not is_kernel_of(k, f)
            or k.source != f.source.difference(f.dom)
            or not compose(c, f).is_zero
            or not c.is_epi
            or c.target != f.target.difference(f.im)):
        return "kernel/cokernel broken"
    return None


def _law_normal_conormal(f: PBij) -> str | None:
    """Monos are kernels, epis are cokernels, the rest report not-applicable."""
    report = normal_conormal_check(f)
    if f.is_mono and report.normal_ok is not True:
        return "mono is not a kernel"
    if f.is_epi and report.conormal_ok is not True:
        return "epi is not a cokernel"
    if not f.is_mono and not f.is_epi and not report.not_applicable:
        return "non-mono non-epi not flagged"
    return None


def _law_balanced(n: int, X: FinSet) -> Iterator[Step]:
    """mono + epi forces a two-sided inverse; an isomorphism from X lands
    only in the object of X's size."""
    for f in enumerate_pbij(X, _tgt(n)):
        if f.is_mono and f.is_epi:
            g = inverse(f)
            yield 1, _failure_if(compose(g, f) != identity(f.source)
                                 or compose(f, g) != identity(f.target),
                                 "mono+epi without a two-sided inverse", f=f)


def _law_ses_construction(n: int, X: FinSet) -> Iterator[Step]:
    """Canonical quotient sequences validate, with the cardinality law."""
    for X1 in X.subsets():
        ses = make_ses(X, X1)
        alpha, beta = ses.alpha, ses.beta
        yield 1, _failure_if(beta != cokernel(alpha),
                             "beta is not the cokernel of alpha", alpha=alpha, beta=beta)
        yield 0, _failure_if(not is_kernel_of(alpha, beta),
                             "alpha is not the kernel of beta", alpha=alpha, beta=beta)
        yield 0, _failure_if(len(beta.target) != len(alpha.target) - len(alpha.source),
                             "quotient cardinality law broken", beta=beta)


def _law_grid_completion(n: int, X: FinSet) -> Iterator[Step]:
    """Completing the quotient grid yields the induced quotient sequence."""
    for X2 in X.subsets():
        for X1 in X2.subsets():
            phi, psi = complete_3x3(build_noether_grid(X, X1, X2))
            induced = make_ses(X.difference(X1), X2.difference(X1))
            yield 1, _failure_if(phi != induced.alpha or psi != induced.beta,
                                 "completed row is not canonical", phi=phi, psi=psi)


def _law_noether_first(n: int, X: FinSet) -> Iterator[Step]:
    """(X−X1)−(X2−X1) = X−X2: noether_first gives the identity on X−X2."""
    for X2 in X.subsets():
        for X1 in X2.subsets():
            iso = noether_first(X, X1, X2)
            yield 1, _failure_if(iso != identity(X.difference(X2)),
                                 "unexpected isomorphism", iso=iso)


def _law_noether_second(n: int, X: FinSet) -> Iterator[Step]:
    """X2−(X1∩X2) = (X1∪X2)−X1, set identity and quotient route in agreement."""
    for X1, X2 in itertools.product(list(X.subsets()), repeat=2):
        iso = noether_second(X, X1, X2)
        yield 1, _failure_if(iso != identity(X2.difference(X1)),
                             "unexpected isomorphism", iso=iso)


# each law is a tuple of sweeps, each declared by binding its first arguments
# with partial: _chains(chain length, bound, check), _samples(chain length,
# first size, check) and _objects(bound, or None for the cap, step function);
# _each(chain length, exhaustive to, sampled from, check) declares chains then
# samples.  Three laws keep a sweep of their own:
# _law_idempotent_meet(bound) checks the subset pairs of the one size bound,
# _law_zero_morphisms(bound) checks each size pair up to bound, its empty-set
# Hom-sets before its morphisms (a sweep of the former alone would fail a
# missing zero at a different count), and wagner-preston, which has no bound,
# checks fixed tables whatever the cap
LAWS: dict[str, tuple[_Sweep, ...]] = {
    "composition-closure": _each(2, 3, 4, _law_composition_closure),
    "associativity": _each(3, 2, 3, _law_associativity),
    "identity-neutrality": _each(1, 3, 4, _law_identity_neutrality),
    "inverse-laws": (partial(_chains, 1, 3, _law_inverse),
                     partial(_chains, 2, 3, _law_contravariance),
                     partial(_samples, 2, 4, _law_inverse_pair)),
    "idempotent-meet": (partial(_law_idempotent_meet, 5),),
    "zero-morphisms": (partial(_law_zero_morphisms, 3),),
    "cancellation-agreement": _each(1, 3, 4, _law_cancellation_agreement),
    "monoid-size": (partial(_objects, None, _law_monoid_size),),
    "monoid-closure": (partial(_objects, 3, _law_monoid_closure),),
    "idempotent-census": (partial(_objects, 3, _law_idempotent_census),),
    "unique-inverses": (partial(_objects, 3, _law_unique_inverses),),
    "wagner-preston": (_law_wagner_preston,),
    "involution": (partial(_chains, 1, 3, _law_double_star),
                   partial(_objects, 3, _law_self_dual_identity),
                   partial(_chains, 2, 2, _law_star_contravariance),
                   partial(_samples, 2, 3, _law_star_pair)),
    "annihilator-projection": _each(1, 3, None, _law_annihilator_projection),
    "closed-projection": (partial(_objects, None, _law_closed_projection),),
    "baer-annihilator": _each(1, 2, None, _law_baer_annihilator),
    "kernel-universal": _each(1, 2, None, _law_kernel_universal),
    "factorization": _each(1, 3, 4, _law_factorization),
    "kernel-cokernel": _each(1, 3, 4, _law_kernel_cokernel),
    "normal-conormal": _each(1, 3, None, _law_normal_conormal),
    "balanced": (partial(_objects, 3, _law_balanced),),
    "ses-construction": (partial(_objects, 5, _law_ses_construction),),
    "grid-completion": (partial(_objects, 4, _law_grid_completion),),
    "noether-first": (partial(_objects, 5, _law_noether_first),),
    "noether-second": (partial(_objects, 5, _law_noether_second),),
}


def law_names() -> tuple[str, ...]:
    return tuple(LAWS)


def run_law(name: str, max_size: int, seed: int) -> LawResult:
    """Run one law, its sweeps in order; they share one RNG whose stream
    depends only on (seed, name)."""
    if name not in LAWS:
        raise KeyError(f"unknown law {name!r}")
    rng = random.Random(f"{seed}/{name}")
    checked = 0
    for cases, failure in itertools.chain.from_iterable(
            sweep(max_size, rng) for sweep in LAWS[name]):
        checked += cases
        if failure is not None:
            description, morphisms = failure
            # each block keeps the blank line serialize_pbij ends it with,
            # but the last: the report puts one after every counterexample
            blocks = "".join(serialize_pbij(m, label) for label, m in morphisms.items())
            detail = f"{description}\n{blocks}".rstrip("\n")
            return LawResult(name, False, checked, detail)
    return LawResult(name, True, checked)


def run_all(max_size: int, seed: int) -> list[LawResult]:
    return [run_law(name, max_size, seed) for name in LAWS]
