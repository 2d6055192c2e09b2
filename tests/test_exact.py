import itertools
from collections import Counter
from math import factorial

import pytest

from pbcat import exact
from pbcat.baer import cokernel
from pbcat.core import (
    FinSet,
    InvalidSubsetError,
    ObjectMismatchError,
    PBij,
    compose,
    enumerate_pbij,
    identity,
    inverse,
    partial_identity,
    zero_morphism,
)
from pbcat.exact import (
    DiagramInvalidError,
    Grid3x3,
    ShortExactSeq,
    build_noether_grid,
    complete_3x3,
    is_kernel_of,
    make_ses,
    noether_first,
    noether_second,
    pair_grid,
)

from helpers import fin, pbij_count, universe


def chains(n):
    """All pairs X1 ⊆ X2 inside the canonical n-set."""
    X = universe(n)
    for X2 in X.subsets():
        for X1 in X2.subsets():
            yield X, X1, X2


def subset_pairs(n):
    """All (not necessarily nested) subset pairs of the canonical n-set."""
    X = universe(n)
    for X1 in X.subsets():
        for X2 in X.subsets():
            yield X, X1, X2


def test_make_ses_frozen_example():
    ses = make_ses(fin("a b c"), fin("a"))
    assert ses.alpha.source.elements == ("a",)
    assert ses.alpha.target == ses.beta.source == fin("a b c")
    assert ses.beta.target.elements == ("b", "c")
    assert ses.alpha.graph == frozenset({("a", "a")})
    assert ses.beta.graph == frozenset({("b", "b"), ("c", "c")})


def test_make_ses_degenerate_subsets():
    X = fin("a b")
    whole = make_ses(X, X)
    assert whole.beta.target == FinSet()
    assert whole.alpha == identity(X)
    assert whole.beta == zero_morphism(X, FinSet())

    nothing = make_ses(X, ())
    assert nothing.alpha.source == FinSet()
    assert nothing.beta.graph == frozenset({("a", "a"), ("b", "b")})


def test_make_ses_rejects_stray_elements():
    with pytest.raises(InvalidSubsetError):
        make_ses(fin("a b"), fin("c"))


@pytest.mark.parametrize("n", range(6))
def test_make_ses_is_exact_for_every_subset(n):
    for X, X1, _ in ((x, s, None) for x in [universe(n)] for s in x.subsets()):
        ses = make_ses(X, X1)
        assert ses.beta == cokernel(ses.alpha)
        assert is_kernel_of(ses.alpha, ses.beta)
        assert len(ses.beta.target) == len(X) - len(ses.alpha.source)


def test_sequence_constructor_rejects_each_failure_mode():
    X = fin("1 2 3")
    sub = fin("1")
    quot = fin("2 3")
    alpha = PBij(sub, X, [("1", "1")])
    beta = PBij(X, quot, [("2", "2"), ("3", "3")])

    # arrows that do not meet: alpha runs into {1,2,3}, beta from {1,2}
    short = PBij(fin("1 2"), fin("2"), [("2", "2")])
    with pytest.raises(DiagramInvalidError, match="^beta does not run V -> W$"):
        ShortExactSeq(alpha, short)
    with pytest.raises(ObjectMismatchError):
        is_kernel_of(alpha, short)
    with pytest.raises(DiagramInvalidError, match="monomorphism"):
        ShortExactSeq(PBij(sub, X), beta)
    with pytest.raises(DiagramInvalidError, match="epimorphism"):
        ShortExactSeq(alpha, PBij(X, quot, [("2", "2")]))
    with pytest.raises(DiagramInvalidError, match="zero"):
        ShortExactSeq(identity(X), identity(X))
    with pytest.raises(DiagramInvalidError, match="complement"):
        ShortExactSeq(alpha, PBij(X, fin("q"), [("3", "q")]))


_X = fin("1 2 3")
_ALPHA = PBij(fin("1"), _X, [("1", "1")])
_BETA = PBij(_X, fin("2 3"), [("2", "2"), ("3", "3")])

_NOT_KERNEL = ("alpha is not a kernel of beta: im(alpha) differs from the "
               "complement of dom(beta)")

# (alpha, beta, the ShortExactSeq message or None, is_kernel_of)
SEQUENCE_CASES = {
    "exact": (_ALPHA, _BETA, None, True),
    "exact over reordered copies": (
        PBij(fin("1"), fin("2 3 1"), [("1", "1")]),
        PBij(fin("2 1 3"), fin("2 3"), [("3", "3"), ("2", "2")]), None, True),
    "exact through a renaming": (PBij(fin("u"), _X, [("u", "1")]), _BETA, None, True),
    "exact onto a renamed quotient": (
        _ALPHA, PBij(_X, fin("p q"), [("2", "p"), ("3", "q")]), None, True),
    "exact with an empty kernel": (PBij(FinSet(), _X), identity(_X), None, True),
    "exact on the empty set": (PBij(FinSet(), FinSet()), PBij(FinSet(), FinSet()), None, True),
    "alpha not mono": (PBij(fin("1 9"), _X, [("1", "1")]), _BETA,
                       "alpha is not a monomorphism", False),
    "alpha not mono, beta not epi": (
        PBij(fin("1 9"), _X, [("1", "1")]), PBij(_X, fin("2 3"), [("2", "2")]),
        "alpha is not a monomorphism", False),
    "beta not epi": (_ALPHA, PBij(_X, fin("2 3"), [("2", "2")]),
                     "beta is not an epimorphism", False),
    "beta does not kill alpha": (identity(_X), identity(_X),
                                 "beta∘alpha is not the zero morphism", False),
    # im(alpha) = {2} has the size of V − dom(beta) = {1}: since beta∘alpha = 0
    # puts im(alpha) inside V − dom(beta), a same-sized other image always
    # meets dom(beta) and fails here, before the kernel comparison
    "same-sized image inside dom(beta)": (
        PBij(fin("u"), _X, [("u", "2")]), _BETA,
        "beta∘alpha is not the zero morphism", False),
    "image short of the complement": (
        _ALPHA, PBij(_X, fin("q"), [("3", "q")]), _NOT_KERNEL, False),
    "renamed image short of the complement": (
        PBij(fin("u"), _X, [("u", "1")]), PBij(_X, fin("q"), [("3", "q")]),
        _NOT_KERNEL, False),
    "image missing the complement": (PBij(FinSet(), _X), _BETA, _NOT_KERNEL, False),
}


@pytest.mark.parametrize("case", list(SEQUENCE_CASES))
def test_sequence_messages_and_kernel_verdicts(case):
    alpha, beta, message, kernel_verdict = SEQUENCE_CASES[case]
    if message is None:
        ses = ShortExactSeq(alpha, beta)
        assert (ses.alpha, ses.beta) == (alpha, beta)
    else:
        with pytest.raises(DiagramInvalidError) as exc:
            ShortExactSeq(alpha, beta)
        assert str(exc.value) == message
    assert is_kernel_of(alpha, beta) is kernel_verdict


def reference_sequence_message(alpha, beta):
    """The message ShortExactSeq gave, after its endpoint checks, when it
    checked exactness by composing: beta∘alpha = 0 before the kernel test."""
    if not alpha.is_mono:
        return "alpha is not a monomorphism"
    if not beta.is_epi:
        return "beta is not an epimorphism"
    if not compose(beta, alpha).is_zero:
        return "beta∘alpha is not the zero morphism"
    if set(alpha.im) != set(beta.source) - set(beta.dom):
        return _NOT_KERNEL
    return None


def reference_is_kernel_of(alpha, beta):
    """is_kernel_of as it was, by composing: beta need not be epi."""
    return (alpha.is_mono and compose(beta, alpha).is_zero
            and set(alpha.im) == set(beta.source) - set(beta.dom))


def composable_pairs(bound):
    """Every alpha in Hom(U, V) and beta in Hom(V, W), |U|, |V|, |W| <= bound."""
    sizes = range(bound + 1)
    for u, v, w in itertools.product(sizes, repeat=3):
        U, V, W = universe(u), universe(v), universe(w)
        betas = list(enumerate_pbij(V, W))
        for alpha in enumerate_pbij(U, V):
            for beta in betas:
                yield alpha, beta


def sequence_message(alpha, beta):
    try:
        ShortExactSeq(alpha, beta)
    except DiagramInvalidError as exc:
        return str(exc)
    return None


def test_exactness_agrees_with_the_compose_reference_on_every_small_pair():
    outcomes = Counter()
    for alpha, beta in composable_pairs(3):
        expected = reference_sequence_message(alpha, beta)
        assert exact._exactness(alpha, beta) == expected
        assert sequence_message(alpha, beta) == expected
        assert is_kernel_of(alpha, beta) is reference_is_kernel_of(alpha, beta)
        outcomes[expected] += 1
    # the pairs are those composition-closure checks exhaustively at bound 3
    assert sum(outcomes.values()) == sum(
        pbij_count(u, v) * pbij_count(v, w)
        for u, v, w in itertools.product(range(4), repeat=3)) == 3396
    assert set(outcomes) == {None, "alpha is not a monomorphism", "beta is not an epimorphism",
                             "beta∘alpha is not the zero morphism", _NOT_KERNEL}
    # an exact pair is a choice of |V| = |U| + |W| and a bijection U + W -> V
    assert outcomes[None] == sum((v + 1) * factorial(v) for v in range(4)) == 33


def test_exact_pairs_are_accepted_without_composing(monkeypatch):
    def no_compose(g, f):
        raise AssertionError("exactness needs no composite")
    exact_pairs = [(alpha, beta) for alpha, beta in composable_pairs(3)
                   if reference_sequence_message(alpha, beta) is None]
    monkeypatch.setattr(exact, "compose", no_compose)
    for alpha, beta in exact_pairs:
        ses = ShortExactSeq(alpha, beta)
        assert (ses.alpha, ses.beta) == (alpha, beta)
        assert is_kernel_of(alpha, beta)
    assert len(exact_pairs) == 33


def test_is_kernel_of_detects_wrong_image_and_non_monos():
    X = fin("1 2 3")
    beta = make_ses(X, fin("1")).beta
    good = PBij(fin("1"), X, [("1", "1")])
    wrong_image = PBij(fin("u"), X, [("u", "2")])
    not_mono = PBij(fin("1 9"), X, [("1", "1")])
    assert is_kernel_of(good, beta)
    assert not is_kernel_of(wrong_image, beta)
    assert not is_kernel_of(not_mono, beta)
    with pytest.raises(ObjectMismatchError):
        is_kernel_of(PBij(fin("1"), fin("w x"), [("1", "w")]), beta)


def test_noether_grid_rejects_bad_nesting():
    with pytest.raises(InvalidSubsetError):
        build_noether_grid(universe(3), fin("2"), fin("1"))
    with pytest.raises(InvalidSubsetError):
        build_noether_grid(universe(3), fin("1"), fin("1 9"))


def test_grid_shape_is_checked_at_construction():
    g = build_noether_grid(universe(2), fin("1"), fin("1"))
    with pytest.raises(DiagramInvalidError, match="rows 1 and 2"):
        Grid3x3((None, g.row_arrows[1], None), g.col_arrows)
    with pytest.raises(DiagramInvalidError, match="column"):
        Grid3x3(g.row_arrows, g.col_arrows[:1])


def test_grid_validate_names_broken_squares_and_rows():
    g = build_noether_grid(universe(2), fin("1"), fin("1"))
    x1 = fin("1")
    broken_top = (zero_morphism(x1, x1), zero_morphism(x1, FinSet()))
    bad = Grid3x3((broken_top, g.row_arrows[1], None), g.col_arrows)
    with pytest.raises(DiagramInvalidError, match="square at rows 1-2"):
        bad.validate()

    X = universe(2)
    not_epi = (g.row_arrows[1][0], zero_morphism(X, fin("2")))
    bad_row = Grid3x3((g.row_arrows[0], not_epi, None), g.col_arrows)
    with pytest.raises(DiagramInvalidError, match="row 2 is not exact"):
        bad_row.validate()


def test_grid_validate_names_misplaced_endpoints():
    g = build_noether_grid(universe(3), fin("1"), fin("1 2"))
    (top, (include, _), _), (upper, lower) = g.row_arrows, g.col_arrows
    off_row = PBij(universe(3), fin("3 9"), [("3", "3")])
    off_column = PBij(fin("1"), fin("1 9"), [("1", "1")])
    # a lower column arrow's target is row 3's object: moving it breaks exactness
    moved = partial_identity(universe(3), fin("1"))
    for grid, message in [
        (Grid3x3((top, (include, off_row), None), g.col_arrows),
         "row 2 arrow 2 does not match its endpoint objects"),
        (Grid3x3(g.row_arrows, ((upper[0], off_column, upper[2]), lower)),
         "column 2 arrow 1 does not match its endpoint objects"),
        (Grid3x3(g.row_arrows, (upper, (lower[0], moved, lower[2]))),
         "column 2 is not exact: beta is not an epimorphism"),
    ]:
        with pytest.raises(DiagramInvalidError) as exc:
            grid.validate()
        assert str(exc.value) == message


def test_pair_grid_rejects_a_stray_token():
    for A, B, side in (("1 9", "2", "A"), ("1", "9 2", "B")):
        with pytest.raises(InvalidSubsetError, match=f"^{side} must be a subset of X$"):
            pair_grid(universe(3), fin(A), fin(B))


def test_pair_grid_objects_are_the_subset_formulas():
    # every A, B ⊆ X with |X| ≤ 5, given backwards: each object still lists
    # its tokens in X's order; for B ⊆ A this is the Noether grid of B ⊆ A
    grids = 0
    for n in range(6):
        for X, A, B in subset_pairs(n):
            a, b = A.elements, B.elements

            def where(in_a, in_b):  # X's tokens by membership of A and of B; None: either
                return tuple(x for x in X.elements
                             if in_a in (None, x in a) and in_b in (None, x in b))
            expected = ((where(True, True), b, where(False, True)),
                        (a, X.elements, where(False, None)),
                        (where(True, False), where(None, False), where(False, False)))
            built = [pair_grid(X, a[::-1], b[::-1])]
            if B.issubset(A):
                built.append(build_noether_grid(X, b[::-1], a[::-1]))
            for grid in built:
                assert tuple(tuple(o.elements for o in row) for row in grid.objects) == expected
            grids += 1
    assert grids == 1365


def test_complete_3x3_frozen_example():
    grid = build_noether_grid(universe(3), fin("1"), fin("1 2"))
    phi, psi = complete_3x3(grid)
    assert phi == PBij(fin("2"), fin("2 3"), [("2", "2")])
    assert psi == PBij(fin("2 3"), fin("3"), [("3", "3")])


# noether_first reaches no grid, so this is where the 243 Noether grids of
# size 5 are completed; grid-completion's reports stop at size 4
@pytest.mark.parametrize("n", range(6))
def test_complete_3x3_bottom_row_is_the_induced_quotient_sequence(n):
    for X, X1, X2 in chains(n):
        grid = build_noether_grid(X, X1, X2)
        phi, psi = complete_3x3(grid)
        induced = make_ses(X.difference(X1), X2.difference(X1))
        assert phi == induced.alpha
        assert psi == induced.beta
        completed = grid.with_bottom_row(phi, psi)
        assert completed.has_bottom_row
        completed.validate()


def test_complete_3x3_refuses_an_invalid_grid():
    g = build_noether_grid(universe(2), fin("1"), fin("1"))
    x1 = fin("1")
    broken_top = (zero_morphism(x1, x1), zero_morphism(x1, FinSet()))
    bad = Grid3x3((broken_top, g.row_arrows[1], None), g.col_arrows)
    with pytest.raises(DiagramInvalidError):
        complete_3x3(bad)


def _lossy_inverse(f):
    inv = inverse(f)
    return PBij(inv.source, inv.target, list(inv.items())[1:])


def _lossy_compose(g, f):
    gf = compose(g, f)
    pairs = list(gf.items())
    return PBij(gf.source, gf.target, pairs[:-1] if len(pairs) > 1 else pairs)


# how complete_3x3 ends on the 81 Noether grids of universe(4) when one
# operation is broken; every given grid still validates, so each failure
# is caught by the check of the completion
BROKEN_COMPLETIONS = {
    ("inverse", _lossy_inverse): {
        "square at rows 2-3, columns 1-2 does not commute": 65,
        "square at rows 2-3, columns 2-3 does not commute": 15,
        "completed": 1,
    },
    ("compose", _lossy_compose): {
        "square at rows 2-3, columns 1-2 does not commute": 9,
        "square at rows 2-3, columns 2-3 does not commute": 9,
        "row 3 is not exact: alpha is not a monomorphism": 24,
        "row 3 is not exact: beta is not an epimorphism": 18,
        "completed": 21,
    },
}


@pytest.mark.parametrize("op, broken", list(BROKEN_COMPLETIONS),
                         ids=lambda v: getattr(v, "__name__", v).lstrip("_"))
def test_complete_3x3_checks_what_the_completion_adds(monkeypatch, op, broken):
    monkeypatch.setattr(f"pbcat.exact.{op}", broken)
    outcomes = Counter()
    for X, X1, X2 in chains(4):
        grid = build_noether_grid(X, X1, X2)
        grid.validate()
        try:
            complete_3x3(grid)
            outcomes["completed"] += 1
        except DiagramInvalidError as exc:
            outcomes[str(exc)] += 1
    assert outcomes == BROKEN_COMPLETIONS[op, broken]


def test_each_sequence_of_a_noether_grid_is_checked_once(monkeypatch):
    # ShortExactSeq, the grid's rows and columns and is_kernel_of all test
    # exactness through exact._exactness, so counting its calls counts checks
    counts = {"sequences": 0, "validations": 0}
    exactness, validate = exact._exactness, Grid3x3.validate

    def counted_exactness(*args, **kwargs):
        counts["sequences"] += 1
        return exactness(*args, **kwargs)

    def counted_validate(self):
        counts["validations"] += 1
        return validate(self)
    monkeypatch.setattr(exact, "_exactness", counted_exactness)
    monkeypatch.setattr(Grid3x3, "validate", counted_validate)
    X, X1, X2 = universe(4), fin("1"), fin("1 2")
    for build, A, B in ((build_noether_grid, X1, X2), (pair_grid, fin("1 2"), fin("2 3"))):
        counts.update(sequences=0, validations=0)
        grid = build(X, A, B)
        assert not grid.has_bottom_row
        assert counts == {"sequences": 0, "validations": 0}
        # three rows and three columns
        complete_3x3(grid)
        assert counts == {"sequences": 6, "validations": 1}
    # noether_first goes through noether_second and builds no grid
    counts.update(sequences=0, validations=0)
    noether_first(X, X1, X2)
    assert counts == {"sequences": 0, "validations": 0}


def test_noether_first_frozen_example():
    iso = noether_first(universe(5), fin("1"), fin("1 2 3"))
    assert iso == identity(fin("4 5"))


@pytest.mark.parametrize("n", range(5))
def test_noether_first_on_every_chain(n):
    for X, X1, X2 in chains(n):
        iso = noether_first(X, X1, X2)
        expected = X.difference(X2)
        assert iso == identity(expected)
        assert iso.is_mono and iso.is_epi
        assert len(iso.source) == len(X) - len(X2)


def test_noether_first_rejects_non_chains():
    with pytest.raises(InvalidSubsetError, match="^X1 must be a subset of X2$"):
        noether_first(universe(3), fin("2"), fin("1"))
    with pytest.raises(InvalidSubsetError, match="^X2 must be a subset of X$"):
        noether_first(universe(3), fin("1"), fin("1 7"))
    # both nestings fail: X2 ⊆ X is checked first
    with pytest.raises(InvalidSubsetError, match="^X2 must be a subset of X$"):
        noether_first(universe(3), fin("8"), fin("1 7"))


def test_each_noether_theorem_checks_two_subsets(monkeypatch):
    # noether_first checks X2 ⊆ X and X1 ⊆ X2; X − X1 ⊆ X holds by
    # construction, and noether_second checks X1 ⊆ X and X2 ⊆ X
    calls = []
    subset = exact._subset

    def counted(*args):
        calls.append(args[2])
        return subset(*args)
    monkeypatch.setattr(exact, "_subset", counted)
    noether_first(universe(4), fin("1"), fin("1 2"))
    assert calls == ["X2 must be a subset of X", "X1 must be a subset of X2"]
    calls.clear()
    noether_second(universe(4), fin("1 2"), fin("2 3"))
    assert calls == ["X1 must be a subset of X", "X2 must be a subset of X"]


def test_noether_second_frozen_example():
    iso = noether_second(universe(4), fin("1 2"), fin("2 3"))
    assert iso == identity(fin("3"))
    assert iso.source.elements == ("3",)


@pytest.mark.parametrize("n", range(5))
def test_noether_second_on_every_subset_pair(n):
    for X, X1, X2 in subset_pairs(n):
        iso = noether_second(X, X1, X2)
        assert iso == identity(X2.difference(X1))
        assert frozenset(iso.source) == frozenset(X2.difference(X1.intersection(X2)))
        assert frozenset(iso.target) == frozenset(X1.union(X2).difference(X1))


def test_noether_second_rejects_stray_subsets():
    with pytest.raises(InvalidSubsetError):
        noether_second(universe(3), fin("9"), fin("1"))
    with pytest.raises(InvalidSubsetError):
        noether_second(universe(3), fin("1"), fin("9"))
