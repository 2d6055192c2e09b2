import itertools

import pytest

from pbcat.baer import annihilator_projection, cokernel, factorize, kernel
from pbcat.core import (
    FinSet,
    InvalidSubsetError,
    ObjectMismatchError,
    PBij,
    cancellation_oracle,
    compose,
    enumerate_pbij,
    identity,
    inverse,
    partial_identity,
    zero_morphism,
)
from pbcat.exact import make_ses

from helpers import fin, pbij_count, universe


def small_objects(max_size):
    return [universe(n) for n in range(max_size + 1)]


def test_finset_rejects_duplicates():
    with pytest.raises(ValueError):
        FinSet(["a", "a"])


def test_finset_order_preserved_but_equality_is_setwise():
    a = fin("x y z")
    b = fin("z y x")
    assert a == b
    assert hash(a) == hash(b)
    assert a.elements == ("x", "y", "z")
    assert b.elements == ("z", "y", "x")


def test_finset_set_operations_keep_left_order():
    a = fin("1 2 3 4")
    assert a.difference(fin("3 1")).elements == ("2", "4")
    assert a.intersection(fin("4 2 9")).elements == ("2", "4")
    assert fin("1 2").union(fin("3 2")).elements == ("1", "2", "3")


def test_finset_subsets_count_and_determinism():
    x = fin("a b c")
    subs = list(x.subsets())
    assert len(subs) == 8
    assert subs == list(x.subsets())
    assert subs[0] == FinSet()
    assert subs[-1] == x


def test_pbij_rejects_non_functional_and_non_injective_graphs():
    X, Y = fin("1 2"), fin("a b")
    for pairs, message in [
        ([("1", "a"), ("1", "b")], "'1' is mapped twice; not functional"),
        ([("1", "a"), ("2", "a")], "'a' is hit twice; not injective"),
        ([("3", "a")], "'3' is not in the source set"),
        ([("1", "c")], "'c' is not in the target set"),
        # with two faults, the checks run source, target, functional,
        # injective, and the first faulty pair is the one reported
        ([("3", "c")], "'3' is not in the source set"),
        ([("1", "a"), ("1", "c")], "'c' is not in the target set"),
        ([("1", "a"), ("2", "b"), ("1", "b")], "'1' is mapped twice; not functional"),
        ([("1", "a"), ("2", "a"), ("3", "b")], "'a' is hit twice; not injective"),
    ]:
        with pytest.raises(ValueError) as exc:
            PBij(X, Y, pairs)
        assert str(exc.value) == message
    # a repeated identical pair is the same pair, not a second image
    f = PBij(X, Y, [("1", "a"), ("1", "a"), ("2", "b"), ("1", "a")])
    assert list(f.items()) == [("1", "a"), ("2", "b")]


def test_pbij_dom_im_follow_declaration_order():
    f = PBij(fin("3 2 1"), fin("a b"), [("1", "a"), ("3", "b")])
    assert f.dom == ("3", "1")
    assert f.im == ("a", "b")


def test_pbij_constructor_orders_its_map_by_the_source_and_merges_repeats():
    f = PBij(fin("1 2 3"), fin("a b c"), [("3", "a"), ("1", "c"), ("3", "a")])
    assert list(f.items()) == [("1", "c"), ("3", "a")]
    assert f.graph == frozenset({("1", "c"), ("3", "a")})
    assert f.dom == ("1", "3") and f.im == ("a", "c")


def _results_of_operations(max_size):
    """Every morphism and set the operations build from valid ones, over
    objects of size <= max_size: enumerations, composites, inverses,
    partial identities, identities and zero morphisms, the canonical short
    exact sequence arrows, mono-epi factorizations, annihilator projections,
    and kernel and cokernel arrows; subsets, intersections, differences and
    unions."""
    sources = small_objects(max_size)
    targets = [FinSet("abc"[:n]) for n in range(max_size + 1)]
    lasts = [FinSet("pqr"[:n]) for n in range(max_size + 1)]
    for X in sources:
        yield identity(X)
        for A in X.subsets():
            yield A
            yield X.intersection(reversed(A.elements))
            yield X.difference(A)
            yield A.union(X)
            yield partial_identity(X, A)
            ses = make_ses(X, A)
            yield ses.alpha
            yield ses.beta
        for Y in targets:
            yield X.union(Y)
            yield zero_morphism(X, Y)
            for f in enumerate_pbij(X, Y):
                yield f
                yield inverse(f)
                yield inverse(f)
                yield inverse(inverse(f))
                fact = factorize(f)
                yield fact.via
                yield fact.mono
                yield fact.epi
                yield annihilator_projection(f)
                yield kernel(f)
                yield cokernel(f)
                for Z in lasts:
                    for g in enumerate_pbij(Y, Z):
                        yield compose(g, f)


def test_operation_results_equal_their_validated_reconstruction():
    seen = 0
    for h in _results_of_operations(3):
        if isinstance(h, FinSet):
            ref = FinSet(h.elements)
            assert h == ref and ref == h and hash(h) == hash(ref)
            assert list(h) == list(ref) and len(h) == len(ref)
            assert all(e in h for e in ref) and h.issubset(ref) and ref.issubset(h)
        else:
            ref = PBij(h.source, h.target, h.graph)
            assert h == ref and ref == h
            assert hash(h) == hash(ref)
            assert h.dom == ref.dom == tuple(x for x in h.source if x in {a for a, _ in h.graph})
            assert h.im == ref.im == tuple(y for y in h.target if y in {b for _, b in h.graph})
            assert list(h.items()) == list(ref.items())
            assert [x for x, _ in h.items()] == list(h.dom)
        seen += 1
    assert seen > 3000


def test_equality_and_hash_ignore_the_order_objects_list_their_tokens():
    X, X_rev = fin("1 2 3"), fin("3 1 2")
    Y, Y_rev = fin("a b"), fin("b a")
    for f in enumerate_pbij(X, Y):
        g = PBij(X_rev, Y_rev, f.graph)
        assert f == g and hash(f) == hash(g)
        assert inverse(f) == inverse(g) and hash(inverse(f)) == hash(inverse(g))
        assert g.dom == tuple(x for x in X_rev if x in f.dom)
        assert g.im == tuple(y for y in Y_rev if y in f.im)
        # composing across differently ordered copies of one object
        back = compose(inverse(g), f)
        assert back == partial_identity(X, f.dom)
        assert back.dom == f.dom
    assert PBij(X, Y, [("1", "a")]) != PBij(X, Y, [("1", "b")])
    assert PBij(X, Y, [("1", "a")]) != PBij(X, fin("a b c"), [("1", "a")])


def test_compose_pointwise_example():
    # g(f(1)) = g(a) = x, g(f(2)) = g(b) undefined
    f = PBij(fin("1 2"), fin("a b c"), [("1", "a"), ("2", "b")])
    g = PBij(fin("a b c"), fin("x y"), [("a", "x")])
    gf = compose(g, f)
    assert gf.graph == frozenset({("1", "x")})
    assert gf.dom == ("1",)
    assert gf.source == f.source
    assert gf.target == g.target


def test_compose_with_full_identity_is_neutral():
    f = PBij(fin("1 2"), fin("a b c"), [("2", "c")])
    assert compose(identity(f.target), f) == f
    assert compose(f, identity(f.source)) == f


def test_compose_disjoint_image_domain_gives_zero():
    f = PBij(fin("1"), fin("a b"), [("1", "a")])
    g = PBij(fin("a b"), fin("x"), [("b", "x")])
    assert compose(g, f) == zero_morphism(fin("1"), fin("x"))


def test_compose_object_mismatch():
    f = PBij(fin("1"), fin("a"), [("1", "a")])
    g = PBij(fin("b"), fin("x"), [])
    with pytest.raises(ObjectMismatchError):
        compose(g, f)


def test_inverse_transposes_and_round_trips():
    f = PBij(fin("1 2"), fin("a b"), [("1", "b")])
    fi = inverse(f)
    assert fi.graph == frozenset({("b", "1")})
    assert fi.source == f.target and fi.target == f.source
    assert inverse(fi) == f
    z = zero_morphism(fin("1 2"), fin("a"))
    assert inverse(z) == zero_morphism(fin("a"), fin("1 2"))


def test_inverse_is_kept_on_its_morphism_but_not_linked_back():
    built = PBij(fin("1 2 3"), fin("a b"), [("1", "b"), ("3", "a")])
    for f in [built, *enumerate_pbij(fin("1 2"), fin("a b c"))]:
        fi = inverse(f)
        assert inverse(f) is fi
        back = inverse(fi)
        assert back == f and back is not f
        assert inverse(fi) is back
        assert back.graph == f.graph and back.dom == f.dom and back.im == f.im


def test_graph_dom_and_im_are_views_of_the_map():
    # the inverse is the one derived fact a morphism keeps
    assert PBij.__slots__ == ("source", "target", "_map", "_inverse")
    f = PBij(fin("1 2 3"), fin("b a"), [("3", "a"), ("1", "b")])
    assert f.graph == frozenset({("1", "b"), ("3", "a")}) and f.graph is not f.graph
    assert f.dom == ("1", "3") and f.im == ("b", "a")
    assert hash(f) == hash((f.source, f.target, f.graph))


def test_inverse_composites_are_partial_identities():
    f = PBij(fin("1 2 3"), fin("a b"), [("1", "b"), ("3", "a")])
    assert compose(inverse(f), f) == partial_identity(f.source, f.dom)
    assert compose(f, inverse(f)) == partial_identity(f.target, f.im)


def test_partial_identity_requires_subset():
    X = fin("a b")
    assert partial_identity(X, fin("a")).graph == frozenset({("a", "a")})
    assert partial_identity(X, FinSet()) == zero_morphism(X, X)
    with pytest.raises(InvalidSubsetError):
        partial_identity(X, fin("c"))


def test_inclusion_is_mono_and_partial_identity_is_idempotent():
    inc = PBij(fin("a"), fin("a b"), [("a", "a")])
    assert inc.is_mono and not inc.is_epi

    X = fin("a b")
    pid = partial_identity(X, fin("a"))
    assert compose(pid, pid) == pid and all(x == y for x, y in pid.items())
    assert not pid.is_mono and not pid.is_epi


def test_mono_and_epi_agree_with_two_sided_inverse():
    for X in small_objects(3):
        for Y in small_objects(3):
            for f in enumerate_pbij(X, Y):
                two_sided = (compose(inverse(f), f) == identity(X)
                             and compose(f, inverse(f)) == identity(Y))
                assert (f.is_mono and f.is_epi) == two_sided


@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (2, 2), (3, 3), (2, 3), (3, 1), (0, 3)])
def test_enumerate_pbij_count_matches_formula(n, m):
    X, Y = universe(n), FinSet(f"t{i}" for i in range(m))
    found = list(enumerate_pbij(X, Y))
    assert len(found) == pbij_count(n, m)
    assert len(set(found)) == len(found)


def test_enumerate_small_counts():
    assert len(list(enumerate_pbij(FinSet(), FinSet()))) == 1
    assert len(list(enumerate_pbij(universe(1), universe(1)))) == 2
    assert len(list(enumerate_pbij(universe(2), universe(2)))) == 7


def test_hom_sets_with_empty_endpoint_are_singletons():
    for n in range(4):
        X = universe(n)
        assert list(enumerate_pbij(FinSet(), X)) == [zero_morphism(FinSet(), X)]
        assert list(enumerate_pbij(X, FinSet())) == [zero_morphism(X, FinSet())]


def test_composition_closed_over_small_objects():
    # closure: composites always satisfy the PBij invariants (constructor checks)
    for a, b, c in itertools.product(range(3), repeat=3):
        X, Y, Z = universe(a), universe(b), universe(c)
        for f in enumerate_pbij(X, Y):
            for g in enumerate_pbij(Y, Z):
                gf = compose(g, f)
                assert gf.source == X and gf.target == Z


def test_inverse_laws_exhaustive_size_3():
    X, Y, Z = universe(3), fin("a b c"), fin("p q")
    for f in enumerate_pbij(X, Y):
        assert compose(inverse(f), f) == partial_identity(X, f.dom)
        assert compose(f, inverse(f)) == partial_identity(Y, f.im)
        assert inverse(inverse(f)) == f
    for f in enumerate_pbij(X, Y):
        for g in enumerate_pbij(Y, Z):
            assert inverse(compose(g, f)) == compose(inverse(f), inverse(g))


def test_regularity_f_finv_f():
    for f in enumerate_pbij(universe(3), fin("a b")):
        assert compose(f, compose(inverse(f), f)) == f


def test_partial_identities_compose_by_intersection():
    X = universe(5)
    for A in X.subsets():
        for B in X.subsets():
            ab = compose(partial_identity(X, A), partial_identity(X, B))
            ba = compose(partial_identity(X, B), partial_identity(X, A))
            meet = partial_identity(X, A.intersection(B))
            assert ab == meet == ba


def test_associativity_exhaustive_size_2():
    sizes = range(3)
    for a, b, c, d in itertools.product(sizes, repeat=4):
        W, X, Y, Z = universe(a), universe(b), universe(c), universe(d)
        for f in enumerate_pbij(W, X):
            for g in enumerate_pbij(X, Y):
                for h in enumerate_pbij(Y, Z):
                    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_cancellation_oracle_matches_dom_im_criteria():
    probes = small_objects(2)
    for a in range(4):
        for b in range(4):
            X, Y = universe(a), FinSet(f"y{i}" for i in range(b))
            for f in enumerate_pbij(X, Y):
                assert cancellation_oracle(f, "left", probes) == f.is_mono
                assert cancellation_oracle(f, "right", probes) == f.is_epi


def test_cancellation_oracle_singleton_probe_finds_witness():
    # f misses "2" in its domain; probes of size 1 already expose it
    f = PBij(fin("1 2"), fin("a"), [("1", "a")])
    assert not cancellation_oracle(f, "left", [universe(1)])
    assert cancellation_oracle(identity(fin("a b")), "left", small_objects(2))
    assert cancellation_oracle(identity(fin("a b")), "right", small_objects(2))


def test_cancellation_oracle_argument_validation():
    f = identity(fin("a"))
    with pytest.raises(ValueError):
        cancellation_oracle(f, "sideways", [fin("p")])
    with pytest.raises(ValueError):
        cancellation_oracle(f, "left", [])
