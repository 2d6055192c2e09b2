"""Acceptance suite: one test per release criterion, each printing its own
pass line.  Everything here is exact arithmetic; there are no tolerances."""

from math import comb, factorial

import pytest

from pbcat.baer import (
    annihilator_projection,
    baer_annihilator_check,
    factorize,
    kernel_universal_check,
    projection_status,
    star,
)
from pbcat.cli import main
from pbcat.core import (
    FinSet,
    PBij,
    cancellation_oracle,
    compose,
    enumerate_pbij,
    identity,
    inverse,
    partial_identity,
)
from pbcat.exact import ShortExactSeq, build_noether_grid, complete_3x3
from pbcat.exact import noether_first, noether_second
from pbcat.monoid import (
    CayleyTable,
    NotInverseSemigroupError,
    idempotents_of,
    symmetric_inverse_monoid,
    unique_inverse_check,
    wagner_preston,
)
from pbcat.textio import parse_pbij, serialize_pbij

from helpers import fin, universe


def announce(capsys, number, label):
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS", flush=True)


def all_morphisms(max_size):
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            X = universe(a)
            Y = FinSet(f"y{i}" for i in range(b))
            yield from enumerate_pbij(X, Y)


def test_criterion_1_monoid_sizes(capsys):
    expected = (1, 2, 7, 34, 209)
    for n, want in enumerate(expected):
        brute = sum(1 for _ in symmetric_inverse_monoid(universe(n)))
        formula = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
        assert brute == want == formula, f"|I({n})| = {brute}, want {want}"
    announce(capsys, 1, "monoid sizes 1, 2, 7, 34, 209")


def test_criterion_2_idempotent_census_and_commutation(capsys):
    for n in range(4):
        X = universe(n)
        declared = set(idempotents_of(X))
        brute = {f for f in symmetric_inverse_monoid(X) if compose(f, f) == f}
        assert declared == brute
        assert len(declared) == 2 ** n
        assert all(x == y for e in declared for x, y in e.items())
    for n in range(6):
        X = universe(n)
        for A in X.subsets():
            for B in X.subsets():
                meet = partial_identity(X, A.intersection(B))
                assert compose(partial_identity(X, A), partial_identity(X, B)) == meet
                assert compose(partial_identity(X, B), partial_identity(X, A)) == meet
    announce(capsys, 2, "idempotents = 2^n partial identities, all commuting")


def test_criterion_3_inverse_laws(capsys):
    for n in range(4):
        elements = symmetric_inverse_monoid(universe(n))
        for f in elements:
            g = inverse(f)
            assert compose(f, compose(g, f)) == f
            assert compose(g, compose(f, g)) == g
        assert unique_inverse_check(elements)
    announce(capsys, 3, "regularity and unique inverses in I(n), n <= 3")


def test_criterion_4_baer_condition(capsys):
    probes = [FinSet(), fin("u"), fin("u v")]
    for f in all_morphisms(2):
        assert baer_annihilator_check(f, probes)
    for n in range(5):
        X = universe(n)
        projections = [e for e in symmetric_inverse_monoid(X)
                       if compose(e, e) == e and star(e) == e]
        assert len(projections) == 2 ** n
        for e in projections:
            assert all(x == y for x, y in e.items())
            assert annihilator_projection(annihilator_projection(e)) == e
            assert projection_status(e).is_closed
    announce(capsys, 4, "annihilators generated by projections, projections closed")


def test_criterion_5_exactness_constructions(capsys):
    probes = [FinSet(), fin("u"), fin("u v")]
    for f in all_morphisms(3):
        assert kernel_universal_check(f, probes)
        fact = factorize(f)
        assert compose(fact.mono, fact.epi) == f
        assert fact.mono.is_mono and fact.epi.is_epi
        assert cancellation_oracle(f, "left", probes) == f.is_mono
        assert cancellation_oracle(f, "right", probes) == f.is_epi
        if f.is_mono and f.is_epi:
            assert compose(inverse(f), f) == identity(f.source)
            assert compose(f, inverse(f)) == identity(f.target)
    announce(capsys, 5, "kernels universal, factorization, balanced, oracle agreement")


def test_criterion_6_noether_identities_at_size_5(capsys):
    X = universe(5)
    chains = 0
    for X2 in X.subsets():
        for X1 in X2.subsets():
            chains += 1
            assert noether_first(X, X1, X2) == identity(X.difference(X2))
    assert chains == 3 ** 5
    pairs = 0
    for X1 in X.subsets():
        for X2 in X.subsets():
            pairs += 1
            assert noether_second(X, X1, X2) == identity(X2.difference(X1))
    assert pairs == 4 ** 5
    announce(capsys, 6, "both quotient identities, 243 chains + 1024 pairs")


def test_criterion_7_grid_completion(capsys):
    for n in range(5):
        X = universe(n)
        for X2 in X.subsets():
            for X1 in X2.subsets():
                grid = build_noether_grid(X, X1, X2)
                phi, psi = complete_3x3(grid)
                completed = grid.with_bottom_row(phi, psi)
                completed.validate()
                rows = [ShortExactSeq(*arrows) for arrows in completed.row_arrows]
                cols = [ShortExactSeq(completed.col_arrows[0][c], completed.col_arrows[1][c])
                        for c in range(3)]
                for ses in rows + cols:
                    assert len(ses.beta.target) == len(ses.alpha.target) - len(ses.alpha.source)
    announce(capsys, 7, "3x3 completion validates with |W| = |V| - |U|")


def test_criterion_8_wagner_preston_fixtures(capsys):
    i2_names = {f: f"m{i}"
                for i, f in enumerate(symmetric_inverse_monoid(universe(2)))}
    back = {name: f for f, name in i2_names.items()}
    fixtures = [
        CayleyTable(("e", "a"), ((0, 1), (1, 0))),
        CayleyTable(("0", "1"), ((0, 0), (0, 1))),
        CayleyTable.from_operation(tuple(i2_names.values()),
                                   lambda a, b: i2_names[compose(back[a], back[b])]),
    ]
    for table in fixtures:
        assert len(table) <= 8
        theta = wagner_preston(table)
        for a in table.elements:
            for b in table.elements:
                assert theta[table.mul(a, b)] == compose(theta[a], theta[b])
        assert len(set(theta.values())) == len(table)

    left_zero = CayleyTable(("a", "b"), ((0, 0), (1, 1)))
    with pytest.raises(NotInverseSemigroupError) as err:
        wagner_preston(left_zero)
    report = err.value.report
    assert not report.idempotents_commute
    assert ("commuting-idempotents", "a", "b") in report.counterexamples
    announce(capsys, 8, "translation embeddings verified, left-zero rejected")


def test_criterion_9_cli_contract(capsys, tmp_path, monkeypatch):
    import random

    argv = ["check-axioms", "--max-size", "2", "--seed", "11"]
    first_code = main(argv)
    first_out = capsys.readouterr().out
    second_code = main(argv)
    second_out = capsys.readouterr().out
    assert (first_code, first_out) == (second_code, second_out)
    assert first_code == 0

    rng = random.Random(99)
    pool = [f"e{i}" for i in range(6)]
    for _ in range(100):
        src = FinSet(rng.sample(pool, rng.randint(0, 6)))
        tgt = FinSet(rng.sample(pool, rng.randint(0, 6)))
        k = rng.randint(0, min(len(src), len(tgt)))
        f = PBij(src, tgt, zip(rng.sample(src.elements, k),
                               rng.sample(tgt.elements, k)))
        name, back = parse_pbij(serialize_pbij(f, "r"))
        assert name == "r" and back == f

    bad = tmp_path / "broken.pbij"
    bad.write_text("pbij oops : missing arrow\n")
    assert main(["kernel", str(bad)]) == 2
    capsys.readouterr()

    def corrupt(g, f):
        real = compose(g, f)
        return PBij(real.source, real.target, ())

    monkeypatch.setattr("pbcat.laws.compose", corrupt)
    assert main(["check-axioms", "--max-size", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counterexample:" in out
    announce(capsys, 9, "CLI determinism, round-trip, exit codes 0/1/2")
