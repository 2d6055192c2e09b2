import hashlib
import itertools
import random
from dataclasses import replace

import pytest

import pbcat.monoid as monoid
from pbcat.cli import main
from pbcat.core import (
    FinSet,
    InternalContradictionError,
    ObjectMismatchError,
    PBij,
    compose,
    identity,
    inverse,
)
from pbcat.monoid import (
    AxiomReport,
    CayleyTable,
    NotInverseSemigroupError,
    TableShapeError,
    _generating_set,
    idempotents_of,
    symmetric_inverse_monoid,
    unique_inverse_check,
    verify_inverse_semigroup,
    wagner_preston,
)

from pbcat.textio import serialize_cayley

from helpers import fin, i_of_n_table, pbij_count, universe


Z2 = CayleyTable(("e", "a"), ((0, 1), (1, 0)))
MIN_SEMILATTICE = CayleyTable(("0", "1"), ((0, 0), (0, 1)))
LEFT_ZERO = CayleyTable(("a", "b"), ((0, 0), (1, 1)))
NON_ASSOC = CayleyTable(("x", "y"), ((1, 0), (0, 0)))
# non-associative ((a*a)*b = z, a*(a*b) = b), yet every element has exactly
# one quasi-inverse
NON_ASSOC_UNIQUE = CayleyTable(("z", "a", "b"), ((0, 0, 0), (0, 0, 2), (0, 1, 0)))


def i_of_2_table():
    """Cayley table of the 7-element symmetric inverse monoid on two points."""
    return i_of_n_table(2)


def test_table_shape_validation():
    with pytest.raises(TableShapeError):
        CayleyTable(("a", "b"), ((0,), (1, 0)))
    with pytest.raises(TableShapeError):
        CayleyTable(("a", "b"), ((0, 2), (1, 0)))
    with pytest.raises(TableShapeError):
        CayleyTable(("a", "a"), ((0, 0), (0, 0)))



def test_from_operation_rejects_a_product_outside_the_elements():
    with pytest.raises(TableShapeError, match=r"product a\*b = 'c' is not an element"):
        CayleyTable.from_operation(("a", "b"), lambda x, y: "c" if (x, y) == ("a", "b") else x)


def test_from_operation_lets_an_error_inside_the_operation_through():
    def op(x, y):
        raise KeyError(y)

    with pytest.raises(KeyError) as exc:
        CayleyTable.from_operation(("a", "b"), op)
    assert exc.type is KeyError and exc.value.args == ("a",)

@pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 7), (3, 34)])
def test_symmetric_inverse_monoid_sizes(n, count):
    monoid = symmetric_inverse_monoid(universe(n))
    assert len(monoid) == count
    assert len(monoid) == pbij_count(n, n)
    assert identity(universe(n)) in monoid


def test_symmetric_inverse_monoid_closure():
    for n in range(4):
        monoid = set(symmetric_inverse_monoid(universe(n)))
        for f in monoid:
            assert inverse(f) in monoid
            for g in monoid:
                assert compose(g, f) in monoid


@pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 4), (3, 8)])
def test_idempotents_are_exactly_partial_identities(n, count):
    X = universe(n)
    declared = idempotents_of(X)
    assert len(declared) == count == 2 ** n
    brute = {f for f in symmetric_inverse_monoid(X) if compose(f, f) == f}
    assert set(declared) == brute
    for e in declared:
        assert all(x == y for x, y in e.items())


def test_idempotents_commute_pairwise():
    X = universe(3)
    es = idempotents_of(X)
    for e in es:
        for f in es:
            assert compose(e, f) == compose(f, e)


def test_unique_inverse_check_on_symmetric_inverse_monoids():
    for n in range(4):
        assert unique_inverse_check(symmetric_inverse_monoid(universe(n)))


def test_unique_inverse_check_single_permutation():
    X = fin("1 2 3")
    cycle = PBij(X, X, [("1", "2"), ("2", "3"), ("3", "1")])
    assert unique_inverse_check([cycle])


def test_unique_inverse_check_rejects_mixed_objects():
    with pytest.raises(ObjectMismatchError):
        unique_inverse_check([identity(fin("a")), identity(fin("b"))])
    with pytest.raises(ObjectMismatchError):
        unique_inverse_check([PBij(fin("a"), fin("b"), [("a", "b")])])


def test_verify_two_element_group():
    report = verify_inverse_semigroup(Z2)
    assert report == AxiomReport(True, True, True, True, {"e": "e", "a": "a"}, ())


def test_verify_min_semilattice():
    report = verify_inverse_semigroup(MIN_SEMILATTICE)
    assert report.associative and report.regular
    assert report.idempotents_commute and report.inverses_unique
    assert report.inverse_map == {"0": "0", "1": "1"}


def test_verify_left_zero_semigroup():
    report = verify_inverse_semigroup(LEFT_ZERO)
    assert report.associative
    assert report.regular
    assert not report.idempotents_commute
    assert not report.inverses_unique
    kinds = {w[0] for w in report.counterexamples}
    assert "commuting-idempotents" in kinds
    assert ("commuting-idempotents", "a", "b") in report.counterexamples


def test_verify_non_associative_table():
    report = verify_inverse_semigroup(NON_ASSOC)
    assert not report.associative
    assert any(w[0] == "associativity" for w in report.counterexamples)


def test_verify_i2_table_all_flags():
    report = verify_inverse_semigroup(i_of_2_table())
    assert report.associative and report.regular
    assert report.idempotents_commute and report.inverses_unique


def test_wagner_preston_two_element_group():
    theta = wagner_preston(Z2)
    S = fin("e a")
    assert theta["e"] == identity(S)
    assert theta["a"] == PBij(S, S, [("e", "a"), ("a", "e")])


def test_wagner_preston_min_semilattice():
    theta = wagner_preston(MIN_SEMILATTICE)
    S = fin("0 1")
    assert theta["1"] == identity(S)
    assert theta["0"] == PBij(S, S, [("0", "0")])
    assert len(set(theta.values())) == 2


def test_wagner_preston_idempotents_become_partial_identities():
    for table in (Z2, MIN_SEMILATTICE, i_of_2_table()):
        theta = wagner_preston(table)
        for a in table.elements:
            if table.mul(a, a) == a:
                assert all(x == y for x, y in theta[a].items())


def test_wagner_preston_rejects_left_zero():
    with pytest.raises(NotInverseSemigroupError) as exc:
        wagner_preston(LEFT_ZERO)
    assert not exc.value.report.idempotents_commute
    assert any(w[0] == "commuting-idempotents" for w in exc.value.report.counterexamples)


def test_wagner_preston_homomorphism_and_injectivity_independent_sweep():
    # recompute the law here instead of trusting the in-function verification
    for table in (Z2, MIN_SEMILATTICE, i_of_2_table()):
        theta = wagner_preston(table)
        for a in table.elements:
            for b in table.elements:
                assert compose(theta[a], theta[b]) == theta[table.mul(a, b)]
        seen = list(theta.values())
        assert len(set(seen)) == len(seen)


def test_wagner_preston_image_table_reverifies():
    for table in (Z2, MIN_SEMILATTICE, i_of_2_table()):
        theta = wagner_preston(table)
        by_value = {theta[a]: a for a in table.elements}
        image_table = CayleyTable.from_operation(
            table.elements,
            lambda a, b: by_value[compose(theta[a], theta[b])])
        report = verify_inverse_semigroup(image_table)
        assert report.associative and report.regular
        assert report.idempotents_commute and report.inverses_unique


# -- the generator-based checks against brute force -------------------------

def brute_associativity_failures(table):
    """Every (x, y, z) with (x*y)*z != x*(y*z), in lexicographic order."""
    n, mul = len(table), table.mul_index
    return [(x, y, z) for x, y, z in itertools.product(range(n), repeat=3)
            if mul(mul(x, y), z) != mul(x, mul(y, z))]


def brute_homomorphism_holds(table, theta):
    """theta(a*b) == theta(a) o theta(b) for all n² pairs, and theta injective."""
    return (all(theta[table.mul(a, b)] == compose(theta[a], theta[b])
                for a in table.elements for b in table.elements)
            and len(set(theta.values())) == len(table))


def reference_wagner_preston(table):
    """wagner_preston as first written: each θ_a through the validating
    PBij constructor, θ(a*g) == θ(a)∘θ(g) checked by ``compose`` for every
    generator g, and injectivity by hashing the maps."""
    report = monoid.verify_inverse_semigroup(table)
    if not (report.associative and report.inverses_unique):
        raise NotInverseSemigroupError(report)
    p, names = table.product, table.elements
    index = {e: i for i, e in enumerate(names)}
    carrier = FinSet(names)
    theta = []
    for a, row_a in enumerate(p):
        dom = set(p[index[report.inverse_map[names[a]]]])  # a⁻¹S
        theta.append(PBij(carrier, carrier, [(names[x], names[row_a[x]]) for x in dom]))
    for a, row_a in enumerate(p):
        for g in map(index.__getitem__, report.generators):
            if theta[row_a[g]] != compose(theta[a], theta[g]):
                raise InternalContradictionError(
                    f"translation maps fail the homomorphism law at ({names[a]}, {names[g]})")
    if len(set(theta)) != len(names):
        raise InternalContradictionError("translation maps are not injective")
    return dict(zip(names, theta))


def assert_matches_reference_embedding(table, theta):
    """theta is the reference embedding, keys and each domain in carrier
    order, and each map survives a rebuild through the validating PBij
    constructor unchanged."""
    reference = reference_wagner_preston(table)
    assert list(theta) == list(reference) == list(table.elements)
    for a, f in theta.items():
        assert f == reference[a]
        assert list(f.items()) == list(reference[a].items())
        rebuilt = PBij(f.source, f.target, list(f.items()))
        assert rebuilt == f and list(rebuilt.items()) == list(f.items())
        assert f.source.elements == table.elements


def brute_closure(table, generators):
    """The closure of the generators under the product, by fixpoint."""
    closed = set(generators)
    while True:
        grown = closed | {table.mul_index(x, y) for x in closed for y in closed}
        if grown == closed:
            return closed
        closed = grown


def brute_other_axioms(table):
    """The flags, inverse map and non-associativity witnesses of the other
    three axioms, from ``mul_index`` alone, words taken left to right."""
    n, mul, name = len(table), table.mul_index, table.elements
    witnesses = []
    inverse_map = {}
    for a in range(n):
        invs = [b for b in range(n)
                if mul(mul(a, b), a) == a and mul(mul(b, a), b) == b]
        if not invs:
            witnesses.append(("regularity", name[a]))
        elif len(invs) > 1:
            witnesses.append(("unique-inverse", name[a], name[invs[0]], name[invs[1]]))
        else:
            inverse_map[name[a]] = name[invs[0]]
    idempotents = [e for e in range(n) if mul(e, e) == e]
    witnesses.extend(("commuting-idempotents", name[e], name[f])
                     for e, f in itertools.combinations(idempotents, 2)
                     if mul(e, f) != mul(f, e))
    unique = len(inverse_map) == n
    return {
        "regular": all(w[0] != "regularity" for w in witnesses),
        "inverses_unique": unique,
        "inverse_map": inverse_map if unique else None,
        "idempotents_commute": all(w[0] != "commuting-idempotents" for w in witnesses),
        "witnesses": witnesses,
    }


def reference_generating_set(table):
    """The greedy generating set as first written: the same order of
    candidates, with the closure grown to its fixpoint after every
    generator and every candidate visited."""
    rows = table.product
    cols = tuple(zip(*rows))

    def powers(a):
        seen = set()
        x = a
        while x not in seen:
            seen.add(x)
            x = rows[x][a]
        return len(seen)

    order = sorted(range(len(rows)),
                   key=lambda a: (-len(set(rows[a])) - len(set(cols[a])), -powers(a), a))
    members, closed, generators = [], set(), []
    for g in order:
        if g in closed:
            continue
        generators.append(g)
        closed.add(g)
        members.append(g)
        pos = len(members) - 1
        while pos < len(members):
            row, col = rows[members[pos]], cols[members[pos]]
            pos += 1
            products = set(map(row.__getitem__, members))
            products.update(map(col.__getitem__, members))
            products -= closed
            closed |= products
            members.extend(products)
    return sorted(generators)


def reference_table_checks(table):
    """Generators, witnesses in report order, and inverse map, from the
    reference generating set, Light's test one entry at a time and the
    quasi-inverse search over all n² pairs."""
    n, p, name = len(table), table.product, table.elements
    generators = reference_generating_set(table)
    witnesses = []
    for x in range(n):
        for g in generators:
            witnesses.extend(("associativity", name[x], name[g], name[y])
                             for y in range(n) if p[p[x][g]][y] != p[x][p[g][y]])
    inverse_map = {}
    for a in range(n):
        invs = [b for b in range(n) if p[p[a][b]][a] == a and p[p[b][a]][b] == b]
        if not invs:
            witnesses.append(("regularity", name[a]))
        elif len(invs) > 1:
            witnesses.append(("unique-inverse", name[a], name[invs[0]], name[invs[1]]))
        else:
            inverse_map[name[a]] = name[invs[0]]
    idempotents = [e for e in range(n) if p[e][e] == e]
    witnesses.extend(("commuting-idempotents", name[e], name[f])
                     for e, f in itertools.combinations(idempotents, 2)
                     if p[e][f] != p[f][e])
    return {
        "generators": tuple(name[g] for g in generators),
        "witnesses": tuple(witnesses),
        "inverse_map": inverse_map if len(inverse_map) == n else None,
    }


def assert_matches_reference(table):
    reference = reference_table_checks(table)
    assert _generating_set(table) == [table.index(g) for g in reference["generators"]]
    report = verify_inverse_semigroup(table)
    assert report.generators == reference["generators"]
    assert report.counterexamples == reference["witnesses"]
    assert report.inverse_map == reference["inverse_map"]
    return report


def assert_agrees_with_brute_force(table):
    assert_matches_reference(table)
    n = len(table)
    generators = _generating_set(table)
    assert brute_closure(table, generators) == set(range(n))
    failures = brute_associativity_failures(table)
    try:
        theta = wagner_preston(table)
    except NotInverseSemigroupError as exc:
        report = exc.report
        assert not (report.associative and report.inverses_unique)
    else:
        report = verify_inverse_semigroup(table)
        assert brute_homomorphism_holds(table, theta)
        assert_matches_reference_embedding(table, theta)
    assert report.associative == (not failures)
    witnesses = [w[1:] for w in report.counterexamples if w[0] == "associativity"]
    # Light's test lists exactly the brute-force failures whose middle
    # element is a generator, in the same order; each one replays
    name = table.elements
    assert witnesses == [(name[x], name[y], name[z]) for x, y, z in failures
                         if y in generators]
    for a, b, c in witnesses:
        assert table.mul(table.mul(a, b), c) != table.mul(a, table.mul(b, c))
    brute = brute_other_axioms(table)
    assert report.regular == brute["regular"]
    assert report.inverses_unique == brute["inverses_unique"]
    assert report.inverse_map == brute["inverse_map"]
    assert report.idempotents_commute == brute["idempotents_commute"]
    assert [w for w in report.counterexamples if w[0] != "associativity"] \
        == brute["witnesses"]


def test_generator_checks_agree_with_brute_force_on_every_small_magma():
    checked = 0
    for n in range(4):
        elements = tuple("abc"[:n])
        for entries in itertools.product(range(n), repeat=n * n):
            rows = tuple(entries[i * n:(i + 1) * n] for i in range(n))
            assert_agrees_with_brute_force(CayleyTable(elements, rows))
            checked += 1
    assert checked == 1 + 1 + 2 ** 4 + 3 ** 9


def test_generator_checks_agree_with_brute_force_on_perturbed_i3():
    base = i_of_n_table(3)
    assert_agrees_with_brute_force(base)
    n = len(base)
    rng = random.Random(20091)
    rejected_non_associative = 0
    for _ in range(24):
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in base.product]
        rows[i][j] = v
        table = CayleyTable(base.elements, rows)
        assert_agrees_with_brute_force(table)
        rejected_non_associative += not verify_inverse_semigroup(table).associative
    assert rejected_non_associative > 0


def shuffled(table, rng):
    """The same magma with its elements listed in a random order."""
    order = list(range(len(table)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    rows = [[position[table.product[i][j]] for j in order] for i in order]
    return CayleyTable(tuple(table.elements[i] for i in order), rows)


def shuffled_i3_tables():
    base = i_of_n_table(3)
    rng = random.Random(3)
    return [shuffled(base, rng) for _ in range(6)]


def test_generating_set_does_not_depend_on_element_order():
    n = len(i_of_n_table(3))
    for table in shuffled_i3_tables():
        assert_matches_reference(table)
        generators = _generating_set(table)
        assert generators == sorted(generators)
        assert brute_closure(table, generators) == set(range(n))
        # two permutations (row of all 34) and one rank-2 map (row of 13),
        # however the table lists its elements
        ranks = sorted(len(set(table.product[g])) for g in generators)
        assert ranks == [13, n, n]


def test_wagner_preston_rejects_a_non_associative_table_with_unique_inverses():
    with pytest.raises(NotInverseSemigroupError) as exc:
        wagner_preston(NON_ASSOC_UNIQUE)
    report = exc.value.report
    assert not report.associative
    assert report.regular and report.inverses_unique
    assert ("associativity", "a", "a", "b") in report.counterexamples


def test_wagner_preston_picks_the_generating_set_once(monkeypatch):
    table = i_of_n_table(3)
    calls = []

    def counted(t):
        calls.append(t)
        return _generating_set(t)

    monkeypatch.setattr(monoid, "_generating_set", counted)
    report = verify_inverse_semigroup(table)
    assert report.generators == tuple(table.elements[g] for g in _generating_set(table))
    calls.clear()
    wagner_preston(table)
    assert calls == [table]


def test_table_checks_match_the_reference_on_i4_and_its_perturbations():
    base = i_of_n_table(4)
    report = assert_matches_reference(base)
    assert report.associative and report.inverses_unique
    n = len(base)
    rng = random.Random(20094)
    kinds = set()
    for _ in range(12):
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in base.product]
        rows[i][j] = v
        report = assert_matches_reference(CayleyTable(base.elements, rows))
        kinds.update(w[0] for w in report.counterexamples)
    assert {"associativity", "regularity"} <= kinds


# -- the Wagner-Preston post-check on index rows against the reference ------

def seeded_inverse_subsemigroups(points, seed, count):
    """Tables of the inverse subsemigroups of I(points) that two random
    elements and their inverses generate, elements in enumeration order."""
    population = symmetric_inverse_monoid(universe(points))
    rng = random.Random(seed)
    for _ in range(count):
        closed = set(rng.sample(population, 2))
        closed |= {inverse(f) for f in closed}
        while True:
            grown = closed | {compose(g, f) for f in closed for g in closed}
            if grown == closed:
                break
            closed = grown
        elems = [f for f in population if f in closed]
        names = [f"s{population.index(f)}" for f in elems]
        by_value = dict(zip(elems, names))
        lookup = dict(zip(names, elems))
        yield CayleyTable.from_operation(
            names, lambda a, b: by_value[compose(lookup[a], lookup[b])])


def test_wagner_preston_matches_the_reference_on_i3_i4_and_shuffles():
    for table in (i_of_n_table(3), i_of_n_table(4), *shuffled_i3_tables()):
        assert_matches_reference_embedding(table, wagner_preston(table))


def test_wagner_preston_matches_the_reference_on_seeded_subsemigroups():
    # one-entry perturbations of I(3) and I(4) at the seeds above are all
    # rejected, so the seeded accepted tables are inverse subsemigroups
    sizes = set()
    for points, seed in ((3, 11), (4, 12)):
        for table in seeded_inverse_subsemigroups(points, seed, 4):
            assert_matches_reference_embedding(table, wagner_preston(table))
            sizes.add(len(table))
    assert len(sizes) > 2


def test_wagner_preston_neither_composes_nor_validates_maps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called on the wagner_preston path")

    table = i_of_n_table(3)
    expected = reference_wagner_preston(table)
    monkeypatch.setattr(monoid, "compose", refuse)
    monkeypatch.setattr(PBij, "__init__", refuse)
    assert wagner_preston(table) == expected


def _with_inverse_entry(monkeypatch, table, a, b):
    """Make verify_inverse_semigroup report b as the inverse of a."""
    report = verify_inverse_semigroup(table)
    wrong = replace(report, inverse_map={**report.inverse_map, a: b})
    monkeypatch.setattr(monoid, "verify_inverse_semigroup", lambda t: wrong)


def test_a_wrong_inverse_entry_is_an_internal_contradiction(monkeypatch):
    table = i_of_n_table(3)
    report = verify_inverse_semigroup(table)
    p, names = table.product, table.elements
    expected = wagner_preston(table)
    raised = 0
    for a, b in itertools.product(names, repeat=2):
        if b == report.inverse_map[a]:
            continue
        with monkeypatch.context() as patch:
            _with_inverse_entry(patch, table, a, b)
            moved = set(p[table.index(b)]) != set(p[table.index(report.inverse_map[a])])
            if moved:
                # the reference raises too, though for most entries the
                # validating constructor's bare ValueError; where it
                # reaches the homomorphism law, both name the same pair
                with pytest.raises((ValueError, InternalContradictionError)) as ref:
                    reference_wagner_preston(table)
                with pytest.raises(InternalContradictionError) as exc:
                    wagner_preston(table)
                if ref.type is InternalContradictionError:
                    assert str(exc.value) == str(ref.value)
                raised += 1
            else:
                # b*S = a⁻¹*S: the domain, and so every map, is unchanged
                assert wagner_preston(table) == expected
    assert raised == 984


def zero_and_identity(table):
    """Indices of the table's zero and identity elements."""
    p = table.product
    zero = next(z for z in range(len(p)) if set(p[z]) == {z})
    one = next(e for e in range(len(p)) if p[e] == tuple(range(len(p))))
    return zero, one


def test_each_translation_must_be_injective_and_the_embedding_too(monkeypatch):
    table = i_of_n_table(3)
    names = table.elements
    zero, one = zero_and_identity(table)
    report = verify_inverse_semigroup(table)
    # every inverse reported as the identity: θ becomes the left regular
    # representation, an injective homomorphism whose translations by the
    # non-units are not injective
    everywhere = replace(report, inverse_map=dict.fromkeys(names, names[one]))
    monkeypatch.setattr(monoid, "verify_inverse_semigroup", lambda t: everywhere)
    with pytest.raises(InternalContradictionError, match="not injective on its domain"):
        wagner_preston(table)
    with pytest.raises(ValueError, match="not injective"):
        reference_wagner_preston(table)
    # every inverse reported as the zero: each θ_a is {zero -> zero}, a
    # homomorphism made of injective maps that are all equal
    nowhere = replace(report, inverse_map=dict.fromkeys(names, names[zero]))
    monkeypatch.setattr(monoid, "verify_inverse_semigroup", lambda t: nowhere)
    with pytest.raises(InternalContradictionError,
                       match="^translation maps are not injective$"):
        wagner_preston(table)


def test_cli_reports_a_wrong_inverse_entry_as_an_internal_contradiction(
        capsys, monkeypatch, tmp_path):
    table = i_of_n_table(3)
    names = table.elements
    zero, one = zero_and_identity(table)
    # the zero's translation on all of S is constant, hence not injective
    _with_inverse_entry(monkeypatch, table, names[zero], names[one])
    with pytest.raises(InternalContradictionError):
        wagner_preston(table)
    path = tmp_path / "i3.txt"
    path.write_text(serialize_cayley(table))
    assert main(["wagner-preston", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pbcat: internal contradiction: ")
    assert captured.err.count("\n") == 1


# sha256 of the wagner-preston report on I(4) with its 209 elements in a
# seeded random order, so that carrier order is not enumeration order
SHUFFLED_I4_REPORT = "b2584f92887ff88e9f6a14ab4e7e4b6a9c9fded4e3a0e59bcfbd8bf5fd12161a"


def test_wagner_preston_report_on_a_shuffled_i4_matches_its_pinned_digest(
        capsys, tmp_path):
    path = tmp_path / "i4.txt"
    path.write_text(serialize_cayley(shuffled(i_of_n_table(4), random.Random(4))))
    assert main(["wagner-preston", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == SHUFFLED_I4_REPORT
