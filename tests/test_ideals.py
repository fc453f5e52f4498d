"""Groebner engine: bases, normal forms, membership, colon, intersection,
saturation, dimension, radical membership."""

import random
from itertools import combinations

import pytest
import sympy

import fclosure.ideals as ideals
import fclosure.polyring as polyring
import fclosure.sequences as sequences
import fclosure.workbench as workbench
from fclosure.config import EngineConfig
from fclosure.errors import BudgetExceededError, ColonByZeroWarning, RingMismatchError
from fclosure.ideals import (
    Ideal,
    colon,
    groebner_basis,
    ideal_contains,
    ideal_equal,
    ideal_from_text,
    ideal_member,
    ideal_sum,
    intersect,
    krull_dimension,
    memo_scope,
    normal_form,
    radical_member,
    saturate,
    scale_ideal,
    unit_ideal,
)
from fclosure.ideals import _spoly
from fclosure.frobenius import QuotientRing, frobenius_power, frobenius_preimage
from fclosure.polyring import PolyRing
from fclosure.sequences import SequenceSpec

from helpers import (
    linear_membership_oracle,
    random_ideal,
    random_nonzero_poly,
    random_poly,
    remainder,
    s_polynomial,
)


@pytest.fixture
def R5():
    return PolyRing(5, ["x", "y"])


@pytest.fixture
def R4():
    return PolyRing(2, ["x", "y", "z", "w"])


def twoplanes_ideal(R4):
    return ideal_from_text("x*z; x*w; y*z; y*w", R4)


def test_groebner_examples(R5):
    assert [str(g) for g in groebner_basis(Ideal(R5, [R5.var("x")]))] == ["x"]
    basis = groebner_basis(ideal_from_text("x + y; y", R5))
    assert [str(g) for g in basis] == ["x", "y"]


def test_generator_above_the_degree_budget_keeps_its_basis():
    # a generator built through ring.monomial may lie above the degree
    # budget; the packed fields are sized for it, so the bases are those
    # the unpacked engine computed
    R = PolyRing(5, ["x", "y"])
    x, y = R.gens()
    big = R.monomial((2**31 - 1, 0))
    assert [str(g) for g in groebner_basis(Ideal(R, [big + y, x * y]))] == [
        "x^2147483647 + y",
        "x*y",
        "y^2",
    ]
    basis = groebner_basis(Ideal(R, [big + y, y**2 + x]))
    assert [str(g) for g in basis] == ["x^2147483647 + y", "y^2 + x"]


def test_basis_element_above_every_given_degree_keeps_its_basis():
    # S-polynomial terms are checked against the degree budget before they
    # are reduced, as the terms a reduction creates are: at budgets 3 and 4
    # (generators of degree 3) the run raises instead of keeping z^5 in its
    # basis, and from budget 5 on it gets the basis of the default budget
    text = "x*y + z^2 + 1; x^2*z + 1"
    for budget in (3, 4):
        ring = PolyRing(2, "xyz", config=EngineConfig(max_poly_degree=budget))
        with pytest.raises(BudgetExceededError, match=f"S-polynomial exceeded the degree budget {budget}") as err:
            groebner_basis(ideal_from_text(text, ring))
        assert err.value.kind == "degree"
    expected = ["z^5 + y^2 + z", "x*z^3 + x*z + y", "x^2*z + 1", "x*y + z^2 + 1"]
    for config in (EngineConfig(max_poly_degree=5), EngineConfig()):
        ring = PolyRing(2, "xyz", config=config)
        basis = groebner_basis(ideal_from_text(text, ring))
        assert [str(g) for g in basis] == expected


def test_normal_form_repacks_the_basis_for_a_polynomial_of_higher_degree():
    # an ideal keeps its basis packed in fields sized for the degrees seen
    # so far; a polynomial above them gets wider fields, not overflowing ones
    ring = PolyRing(5, ["x", "y"], config=EngineConfig(max_poly_degree=10))
    I = ideal_from_text("x^2 + y", ring)
    assert str(normal_form(ring.parse("x^3"), I)) == "4*x*y"
    high = ring.monomial((0, 100)) + ring.var("x")
    assert normal_form(high, I) == high


def test_groebner_twisted_cubic_lex():
    ring = PolyRing(7, ["x", "y", "z"], order="lex")
    I = ideal_from_text("y - x^2; z - x*y", ring)
    basis = groebner_basis(I)
    expected = ["x^2 + 6*y", "x*y + 6*z", "x*z + 6*y^2", "y^3 + 6*z^2"]
    assert [str(g) for g in basis] == expected


def test_buchberger_certificate_random():
    # every s-polynomial of the returned basis reduces to zero
    rng = random.Random(2024)
    for p in (2, 3, 5):
        ring = PolyRing(p, ["x", "y", "z"], config=EngineConfig())
        for _ in range(8):
            I = random_ideal(rng, ring, max_gens=3, max_degree=3, max_terms=3)
            basis = groebner_basis(I)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert remainder(s_polynomial(basis[i], basis[j]), basis).is_zero()


def test_interreduce_reduces_each_kept_element_once(monkeypatch):
    # the reduced basis comes from one pass over the minimal basis
    calls = []
    reduce_full = ideals._reduce_full
    monkeypatch.setattr(
        ideals, "_reduce_full", lambda f, basis, *rest: calls.append(f) or reduce_full(f, basis, *rest)
    )
    R = PolyRing(5, ["x", "y"])
    G = [R.parse(text) for text in ("x + y", "y", "x*y + y^2")]
    packing = ideals._packing_for(R, G)
    basis = ideals._interreduce([ideals._pack(g, packing) for g in G], packing)
    assert [str(ideals._unpack(g, packing)) for g in basis] == ["x", "y"]
    assert len(calls) == 2
    # and so inside every Buchberger run
    interreduce = ideals._interreduce
    counts = []

    def counted(G, *rest):
        before = len(calls)
        basis = interreduce(G, *rest)
        counts.append((len(calls) - before, len(basis)))
        return basis

    monkeypatch.setattr(ideals, "_interreduce", counted)
    rng = random.Random(7)
    for p in (2, 3, 5):
        ring = PolyRing(p, ["x", "y", "z"])
        for _ in range(6):
            groebner_basis(random_ideal(rng, ring, max_gens=3, max_degree=3, max_terms=3))
    assert all(made == kept for made, kept in counts)
    assert any(kept > 1 for _, kept in counts)
    # on an elimination ring: one reduction per kept aux-free element, none
    # for the minimal elements that involve the auxiliary variable
    counts.clear()
    big = R.extended(1)
    t = big.var(big.variables[-1])
    I = Ideal(big, [t * big.parse("x^2"), (big.one - t) * big.parse("x*y + y^2")])
    basis = groebner_basis(I)
    assert [str(g) for g in basis] == ["x^3*y + x^2*y^2"]
    assert counts == [(1, 1)]


def test_groebner_matches_sympy_oracle():
    # reduced bases agree with sympy's, an independent implementation, under
    # grevlex and lex on 3 and on 5 variables; on 5 variables leading
    # monomials share several variables and have supports of 4 bits, so the
    # pair lcms taken from the shared variables are checked there too
    cases = 0
    widest = shared = 0
    for order, names, per_p in [
        ("grevlex", ["x", "y", "z"], 15),
        ("lex", ["x", "y", "z"], 8),
        ("grevlex", ["x", "y", "z", "u", "v"], 8),
        ("lex", ["x", "y", "z", "u", "v"], 8),
    ]:
        syms = sympy.symbols(names)
        rng = random.Random(20261018)
        for p in (2, 3, 5, 7):
            ring = PolyRing(p, names, order=order)
            for i in range(per_p):
                # alternate homogeneous ideals (never the unit ideal) with affine ones
                gens = [
                    random_nonzero_poly(
                        rng, ring, max_degree=3, max_terms=3, homogeneous=i % 2 == 0
                    )
                    for _ in range(3)
                ]
                I = Ideal(ring, gens)
                exprs = [
                    sum(c * sympy.prod(s**k for s, k in zip(syms, e)) for e, c in g._terms.items())
                    for g in I.gens
                ]
                theirs = sympy.groebner(exprs, *syms, modulus=p, order=order)
                expected = {
                    frozenset((e, int(c) % p) for e, c in g.terms()) for g in theirs.polys
                }
                basis = groebner_basis(I)
                assert {frozenset(g._terms.items()) for g in basis} == expected
                supports = [{v for v, a in enumerate(g.leading_monomial()) if a} for g in basis]
                widest = max(widest, *map(len, supports))
                shared = max([shared, *(len(a & b) for a, b in combinations(supports, 2))])
                cases += 1
    assert cases == 60 + 32 * 3
    assert widest >= 4 and shared >= 2


def test_reduced_basis_is_canonical(R5):
    # monic leading coefficients, sorted descending, no head-reducible element
    ring = PolyRing(3, ["x", "y"])
    rng = random.Random(7)
    for _ in range(10):
        I = random_ideal(rng, ring, max_gens=3, max_degree=3)
        basis = groebner_basis(I)
        for g in basis:
            assert g.leading_coeff() == 1
        lms = [g.leading_monomial() for g in basis]
        assert lms == sorted(lms, key=ring.order.key, reverse=True)
        for i, g in enumerate(basis):
            others = basis[:i] + basis[i + 1 :]
            for e, _ in g.terms_sorted():
                assert not any(
                    all(a >= b for a, b in zip(e, h.leading_monomial())) for h in others
                )


def test_normal_form_examples(R5):
    assert normal_form(R5.parse("x^2 + x*y"), Ideal(R5, [R5.var("x")])).is_zero()
    assert str(normal_form(R5.parse("y^2"), Ideal(R5, [R5.var("x")]))) == "y^2"
    assert str(normal_form(R5.parse("x*y + y"), ideal_from_text("x - y", R5))) == "y^2 + y"


def test_normal_form_contract(R5):
    rng = random.Random(44)
    for _ in range(20):
        I = random_ideal(rng, R5, max_gens=2, max_degree=3)
        f = random_nonzero_poly(rng, R5, max_degree=4)
        nf = normal_form(f, I)
        assert normal_form(nf, I) == nf
        assert ideal_member(f - nf, I)


def test_member_examples(R5):
    assert ideal_member(R5.parse("x + y"), ideal_from_text("x; y", R5))
    assert not ideal_member(R5.var("x"), ideal_from_text("x^2; y", R5))
    assert ideal_member(R5.parse("x^2*y^2"), ideal_from_text("x^2*y; x*y^2", R5))


def test_member_against_linear_oracle():
    rng = random.Random(321)
    for p in (2, 5):
        ring = PolyRing(p, ["x", "y"])
        for _ in range(10):
            I = random_ideal(rng, ring, max_gens=2, max_degree=3, max_terms=3)
            h = random_nonzero_poly(rng, ring, max_degree=2)
            f = h * I.gens[0] + (I.gens[-1] if len(I.gens) > 1 else ring.zero)
            if f.is_zero():
                continue
            assert ideal_member(f, I)
            assert linear_membership_oracle(f, I)


def test_equal_examples(R5):
    assert ideal_equal(ideal_from_text("x; y", R5), ideal_from_text("x + y; y", R5))
    assert not ideal_equal(ideal_from_text("x", R5), ideal_from_text("x^2", R5))
    # component decomposition, both sides through intersect
    lhs = ideal_from_text("x^2*y; x*y^2", R5)
    rhs = intersect(
        intersect(Ideal(R5, [R5.var("x")]), Ideal(R5, [R5.var("y")])),
        ideal_from_text("x^2; y^2", R5),
    )
    assert ideal_equal(lhs, rhs)
    # the square of the maximal ideal is NOT the right third factor: the
    # triple intersection with it collapses to (x*y)
    wrong = intersect(
        intersect(Ideal(R5, [R5.var("x")]), Ideal(R5, [R5.var("y")])),
        ideal_from_text("x^2; x*y; y^2", R5),
    )
    assert str(wrong) == "x*y" and not ideal_equal(lhs, wrong)


def test_colon_examples(R5, R4):
    assert str(colon(ideal_from_text("x^2", R5), ideal_from_text("x", R5))) == "x"
    assert str(colon(ideal_from_text("x*y", R5), ideal_from_text("x", R5))) == "y"
    J = twoplanes_ideal(R4)
    out = colon(J, Ideal(R4, [R4.var("x")]))
    assert ideal_equal(out, ideal_from_text("z; w", R4))
    assert ideal_member(R4.var("z"), out) and ideal_member(R4.var("w"), out)
    assert not ideal_member(R4.var("y"), out)


def test_colon_adjunction_random(R5):
    rng = random.Random(9)
    for _ in range(15):
        I = random_ideal(rng, R5, max_gens=2, max_degree=3)
        K = random_ideal(rng, R5, max_gens=2, max_degree=2)
        quotient = colon(I, K)
        for g in quotient.gens:
            for k in K.gens:
                assert ideal_member(g * k, I)


def test_colon_by_zero_warns(R5):
    I = ideal_from_text("x", R5)
    with pytest.warns(ColonByZeroWarning):
        out = colon(I, Ideal(R5, []))
    assert out.is_unit()

    @memo_scope
    def twice():
        with pytest.warns(ColonByZeroWarning) as record:
            out = [colon(I, Ideal(R5, [])) for _ in range(2)]
        return out, record

    out, record = twice()
    assert len(record) == 2  # the warning is given again inside one scope
    assert all(o.is_unit() for o in out)


def _lead_support(f):
    return {i for i, e in enumerate(f.leading_monomial()) if e}


def test_colon_by_a_leading_monomial_coprime_to_the_initial_ideal(monkeypatch):
    # if lm(g) shares no variable with in(I), g is a nonzerodivisor modulo
    # I: (I : g) = I, and (I : K) = I for every K holding such a g, with no
    # elimination run.  Every colon, by such a g or not, must match the
    # elimination: g*(I : g) = I intersect (g).
    eliminate = ideals._eliminate_intersection
    runs = []
    monkeypatch.setattr(
        ideals, "_eliminate_intersection", lambda I, K: runs.append(1) or eliminate(I, K)
    )
    rng = random.Random(41)
    for p in (2, 3, 5, 7):
        ring = PolyRing(p, "xyzw")
        coprime = other = 0
        while coprime < 6 or other < 6:
            I = random_ideal(rng, ring, max_gens=2, max_degree=3, max_terms=3)
            g = random_nonzero_poly(rng, ring, max_degree=3, max_terms=3)
            if I.is_unit() or g.is_constant():
                continue
            G = Ideal(ring, [g])
            del runs[:]
            quotient = colon(I, G)
            assert ideal_equal(scale_ideal(g, quotient), Ideal(ring, eliminate(I, G)))
            used = set().union(*map(_lead_support, groebner_basis(I)))
            if _lead_support(g) & used:
                other += 1
                continue
            coprime += 1
            assert ideal_equal(quotient, I)
            f = random_nonzero_poly(rng, ring, max_degree=2, max_terms=3)
            assert ideal_equal(colon(I, Ideal(ring, [f, g])), I)
            assert runs == []


def _linear_form(rng, ring, last):
    """A random linear form that has the last variable when ``last`` is
    true and lacks it otherwise."""
    n = len(ring.variables)
    while True:
        chosen = [i for i in range(n - 1) if rng.random() < 0.5] + ([n - 1] if last else [])
        if chosen:
            return ring.poly({polyring._unit(n, i, 1): rng.randrange(1, ring.p) for i in chosen})


def _graded_ideal(rng, ring):
    gens = [
        random_nonzero_poly(rng, ring, max_degree=rng.randint(1, 3), max_terms=3, homogeneous=True)
        for _ in range(rng.randint(1, 3))
    ]
    return Ideal(ring, gens)


def _eliminated(I, K, monkeypatch):
    """(I : K) with the linear-form rule turned off."""
    with monkeypatch.context() as m:
        m.setattr(ideals, "_linear_colon", lambda basis, g: None)
        return colon(I, K)


def test_colon_by_a_linear_form_matches_the_elimination(monkeypatch):
    # Bayer-Stillman answers (I : g) for a homogeneous I and a linear form g
    # on a grevlex ring with no elimination; its answer is the elimination's,
    # for forms with and without the last variable, and both when
    # (I : g) = I and when it is larger
    linear = ideals._linear_colon
    answered = []
    monkeypatch.setattr(
        ideals, "_linear_colon", lambda basis, g: answered.append(1) or linear(basis, g)
    )
    eliminate = ideals._eliminate_intersection
    runs = []
    monkeypatch.setattr(
        ideals, "_eliminate_intersection", lambda I, K: runs.append(1) or eliminate(I, K)
    )
    rng = random.Random(20)
    for p in (2, 5):
        ring = PolyRing(p, "xyzw")
        seen = {(last, same): 0 for last in (False, True) for same in (False, True)}
        while min(seen.values()) < 4:
            I = _graded_ideal(rng, ring)
            last = rng.random() < 0.5
            G = Ideal(ring, [_linear_form(rng, ring, last)])
            del answered[:], runs[:]
            quotient = colon(I, G)
            if not answered:
                continue  # the coprime-leading-monomial rule answered first
            assert runs == []
            assert quotient.gens == _eliminated(I, G, monkeypatch).gens
            seen[last, ideal_equal(quotient, I)] += 1
    # the rule answers for the zero and the unit ideal too, with I itself
    g = _linear_form(rng, ring, True)
    for I in (Ideal(ring, []), unit_ideal(ring)):
        basis = groebner_basis(I)
        assert linear(basis, g) is basis
        assert colon(I, Ideal(ring, [g])) == I


def _sympy_colon(I, g, names):
    """The reduced grevlex basis of (I : g) by sympy: the t-free part of a
    lex basis of t*I + (1-t)*(g), divided by g, as sets of terms."""
    p = I.ring.p
    syms = sympy.symbols(names)
    t = sympy.Symbol("t")

    def expr(f):
        return sum(c * sympy.prod(s**k for s, k in zip(syms, e)) for e, c in f._terms.items())

    lex = sympy.groebner(
        [t * expr(h) for h in I.gens] + [(1 - t) * expr(g)], t, *syms, modulus=p, order="lex"
    )
    meet = [h for h in lex.exprs if t not in h.free_symbols]
    quotients = [sympy.div(h, expr(g), *syms, modulus=p)[0] for h in meet]
    theirs = sympy.groebner(quotients, *syms, modulus=p, order="grevlex")
    return {frozenset((e, int(c) % p) for e, c in h.terms()) for h in theirs.polys}


def test_colon_by_a_linear_form_matches_sympy():
    names = ["x", "y", "z"]
    rng = random.Random(22)
    for p in (2, 5):
        ring = PolyRing(p, names)
        for i in range(6):
            I = _graded_ideal(rng, ring)
            if I.is_unit():
                continue
            g = _linear_form(rng, ring, i % 2 == 0)
            ours = {frozenset(h._terms.items()) for h in colon(I, Ideal(ring, [g])).basis()}
            assert ours == _sympy_colon(I, g, names)


def test_colon_outside_the_linear_rule_keeps_the_elimination(monkeypatch):
    # an inhomogeneous I, a lex ring and a divisor that is no linear form
    # are left to the elimination; K with several linear forms intersects
    # the rule's answers, and each gives the elimination's answer
    rng = random.Random(23)
    for p in (2, 5):
        ring, lex = PolyRing(p, "xyz"), PolyRing(p, "xyz", order="lex")
        cases = [
            (ideal_from_text("x^2 + y; y*z", ring), ring.parse("x + z")),
            (ideal_from_text("x^2 + y*z; y^2", lex), lex.parse("x + z")),
            (ideal_from_text("x^2 + y*z; y^2", ring), ring.parse("x*y + z^2")),
            (ideal_from_text("x^2 + y*z; y^2", ring), ring.parse("x + z + 1")),
        ]
        for I, g in cases:
            assert ideals._linear_colon(groebner_basis(I), g) is None
            G = Ideal(I.ring, [g])
            assert colon(I, G).gens == _eliminated(I, G, monkeypatch).gens
        for _ in range(6):
            I = _graded_ideal(rng, ring)
            K = Ideal(ring, [_linear_form(rng, ring, True), _linear_form(rng, ring, False)])
            assert colon(I, K).gens == _eliminated(I, K, monkeypatch).gens


def test_intersect_examples(R5, R4):
    assert str(intersect(Ideal(R5, [R5.var("x")]), Ideal(R5, [R5.var("y")]))) == "x*y"
    J = twoplanes_ideal(R4)
    meet = intersect(ideal_from_text("x; y", R4), ideal_from_text("z; w", R4))
    assert ideal_equal(meet, J)
    I = random_ideal(random.Random(3), R5, max_gens=2, max_degree=3)
    assert ideal_equal(intersect(I, I), I)
    K = random_ideal(random.Random(4), R5, max_gens=2, max_degree=3)
    meet = intersect(I, K)
    assert ideal_contains(I, meet) and ideal_contains(K, meet)


def test_intersect_sets_the_reduced_basis():
    # the kept part of the elimination basis is already the reduced basis of
    # I intersect K, with or without the call-scoped memo
    rng = random.Random(31)

    @memo_scope
    def memoized(I, K):
        return [intersect(I, K)._basis for _ in range(2)]

    for p in (2, 3, 5):
        ring = PolyRing(p, "xyz")
        for _ in range(5):
            I = random_ideal(rng, ring, max_gens=2, max_degree=3, max_terms=3)
            K = random_ideal(rng, ring, max_gens=2, max_degree=2, max_terms=3)
            meet = intersect(I, K)
            fresh = groebner_basis(Ideal(ring, meet.gens))
            assert meet._basis == fresh
            assert memoized(I, K) == [fresh, fresh]


def test_elimination_basis_is_the_aux_free_part(monkeypatch):
    # groebner_basis on an extended ring keeps the aux-free elements of the
    # full reduced basis, which plain _interreduce builds from the same run
    interreduce = ideals._interreduce
    runs = []

    def recorded(G, packing, *rest):
        runs.append((G, packing))
        return interreduce(G, packing, *rest)

    monkeypatch.setattr(ideals, "_interreduce", recorded)
    rng = random.Random(32)
    dropped = 0
    for p in (2, 3, 5):
        big = PolyRing(p, "xyz").extended(1)
        n = big.order.split
        for _ in range(6):
            runs.clear()
            basis = groebner_basis(random_ideal(rng, big, max_gens=3, max_degree=3, max_terms=3))
            G, packing = runs[0]
            full = tuple(ideals._unpack(g, packing) for g in interreduce(G, packing))
            kept = tuple(g for g in full if not any(g.leading_monomial()[n:]))
            assert basis == kept
            assert all(not any(e[n:]) for g in basis for e in g._terms)
            dropped += len(full) - len(kept)
    assert dropped  # some runs had aux elements to drop


def test_intersect_matches_sympy_elimination():
    # sympy's lex basis of t*I + (1-t)*K with t first, cut to its t-free
    # elements, has the same reduced grevlex basis as our intersection
    names = ["x", "y", "z"]
    syms = sympy.symbols(names)
    t = sympy.Symbol("t")
    rng = random.Random(33)

    def expr(g):
        return sum(c * sympy.prod(s**k for s, k in zip(syms, e)) for e, c in g._terms.items())

    for p in (2, 3, 5):
        ring = PolyRing(p, names)
        for _ in range(4):
            I = random_ideal(rng, ring, max_gens=2, max_degree=2, max_terms=3)
            K = random_ideal(rng, ring, max_gens=2, max_degree=2, max_terms=3)
            gens = [t * expr(g) for g in I.gens] + [(1 - t) * expr(g) for g in K.gens]
            lex = sympy.groebner(gens, t, *syms, modulus=p, order="lex")
            kept = [g for g in lex.exprs if t not in g.free_symbols]
            theirs = sympy.groebner(kept, *syms, modulus=p, order="grevlex")
            expected = {frozenset((e, int(c) % p) for e, c in g.terms()) for g in theirs.polys}
            assert {frozenset(g._terms.items()) for g in intersect(I, K).basis()} == expected


# order-key calls of the fixed job below, measured when the Groebner core
# came to pack each monomial into one int and memo keys to take the plain
# exponent order (1233 before, 1323 before intersections came to start from
# the reduced bases of their operands and colons to keep their reduced
# basis, 1329 before sequences derived from a checked one came to share
# its elements unreduced, 1834 before ideals kept
# their generators in the order given, 2501 before colons by powers and
# products of sequence elements were iterated by the raw elements, 5864
# before generators were ordered by their leading monomials, 12299 before
# one key table per basis)
ORDER_KEY_CALLS = 6

# S-polynomials the same job forms, measured when a colon by a divisor
# whose leading monomial is coprime to in(I) came to return I without an
# intersection (99 before, 127 before intersections came to be answered by
# containment when one operand lies in the other, 157 before intersections
# came to skip the S-pairs inside the reduced bases of their operands)
SPOLY_CALLS = 75

# elimination (block-order) Buchberger runs of the same job, measured when
# a colon by a divisor whose leading monomial is coprime to in(I) came to
# return I without an intersection (11 before, 20 before intersections
# came to be answered by containment)
ELIMINATION_RUNS = 5

# powers the same job raises, measured when a sequence came to compute each
# power of its elements once for every sequence derived from it (46 before)
POW_CALLS = 10

# Buchberger runs of the USD box check below, measured when a colon by a
# divisor whose leading monomial is coprime to in(I) came to return I
# without an intersection (48 before, 49 before colons came to keep their
# reduced basis, 119 before its colons were iterated by the raw elements)
USD_BUCHBERGER_RUNS = 37

# the gates above divide by an inhomogeneous sop; the ones below by the
# linear sop of _reg_linear_sop, whose colons are by linear forms of
# homogeneous ideals

# Buchberger runs, and elimination runs among them, of the USD box check of
# the linear sop at n_max = 2, measured when colons by a linear form of a
# homogeneous ideal came to run no elimination (51 and 32 before)
LINEAR_USD_BUCHBERGER_RUNS = 33
LINEAR_USD_ELIMINATION_RUNS = 0

# elimination runs of the identity suite of the linear sop at n = 1,
# measured when colons by a linear form of a homogeneous ideal came to run
# no elimination (11 before)
LINEAR_ELIMINATION_RUNS = 1


def _reg_sop():
    R = workbench.builtin_ring("REG", p=5)
    return SequenceSpec(R, [R.ring.parse(t) for t in ("x + y*z", "y + z^2", "z + x^2")])


def _reg_linear_sop():
    R = workbench.builtin_ring("REG", p=5)
    return SequenceSpec(R, [R.ring.parse(t) for t in ("4*y + z", "3*x + 2*z", "3*x + 3*y + 3*z")])


def _counted_runs(monkeypatch):
    """A list that records, for each Buchberger run from now on, whether it
    ran on an elimination ring."""
    runs = []
    buchberger = ideals._buchberger

    def counted(ideal):
        runs.append(isinstance(ideal.ring.order, polyring.BlockOrder))
        return buchberger(ideal)

    monkeypatch.setattr(ideals, "_buchberger", counted)
    return runs


def test_order_key_calls_stay_within_the_gate(monkeypatch):
    # a deterministic work counter, not a time: one identity suite over
    # F_5[x,y,z] may evaluate the order keys at most ORDER_KEY_CALLS times
    x = _reg_sop()
    calls = []
    for cls in (polyring.MonomialOrder, polyring.BlockOrder):
        key = cls.key
        monkeypatch.setattr(cls, "key", lambda self, exps, key=key: calls.append(1) or key(self, exps))
    assert sequences.verify_identity_suite(x, 1).all_passed
    assert len(calls) <= ORDER_KEY_CALLS


def test_spoly_calls_stay_within_the_gate(monkeypatch):
    # a deterministic work counter: the same identity suite may form at
    # most SPOLY_CALLS S-polynomials
    x = _reg_sop()
    calls = []
    monkeypatch.setattr(ideals, "_spoly", lambda *args: calls.append(1) or _spoly(*args))
    assert sequences.verify_identity_suite(x, 1).all_passed
    assert len(calls) <= SPOLY_CALLS


def test_elimination_runs_stay_within_the_gate(monkeypatch):
    # a deterministic work counter: the same identity suite may run
    # Buchberger on an elimination ring at most ELIMINATION_RUNS times
    x = _reg_sop()
    runs = _counted_runs(monkeypatch)
    assert sequences.verify_identity_suite(x, 1).all_passed
    assert sum(runs) <= ELIMINATION_RUNS


def test_pow_calls_stay_within_the_gate(monkeypatch):
    # a deterministic work counter: the same identity suite may raise a
    # polynomial to a power at most POW_CALLS times
    x = _reg_sop()
    calls = []
    power = polyring.Polynomial.__pow__
    monkeypatch.setattr(polyring.Polynomial, "__pow__", lambda f, n: calls.append(1) or power(f, n))
    assert sequences.verify_identity_suite(x, 1).all_passed
    assert len(calls) <= POW_CALLS


def test_usd_buchberger_runs_stay_within_the_gate(monkeypatch):
    # a deterministic work counter, not a time: the USD box check of the
    # same sequence at n_max = 2 may run Buchberger at most
    # USD_BUCHBERGER_RUNS times
    x = _reg_sop()
    runs = []
    buchberger = ideals._buchberger
    monkeypatch.setattr(ideals, "_buchberger", lambda ideal: runs.append(1) or buchberger(ideal))
    assert sequences.is_usd_bounded(x, 2).passed
    assert len(runs) <= USD_BUCHBERGER_RUNS


def test_linear_sop_usd_runs_stay_within_the_gates(monkeypatch):
    # deterministic work counters: the USD box check of the linear sop at
    # n_max = 2 may run Buchberger at most LINEAR_USD_BUCHBERGER_RUNS times,
    # at most LINEAR_USD_ELIMINATION_RUNS of them on an elimination ring
    x = _reg_linear_sop()
    runs = _counted_runs(monkeypatch)
    assert sequences.is_usd_bounded(x, 2).passed
    assert len(runs) <= LINEAR_USD_BUCHBERGER_RUNS
    assert sum(runs) <= LINEAR_USD_ELIMINATION_RUNS


def test_linear_sop_elimination_runs_stay_within_the_gate(monkeypatch):
    # a deterministic work counter: the identity suite of the linear sop
    # may run Buchberger on an elimination ring at most
    # LINEAR_ELIMINATION_RUNS times
    x = _reg_linear_sop()
    runs = _counted_runs(monkeypatch)
    assert sequences.verify_identity_suite(x, 1).all_passed
    assert sum(runs) <= LINEAR_ELIMINATION_RUNS


def test_usd_box_check_reduces_no_element_again(monkeypatch):
    # the sequence's elements were checked nonzero when it was built; the
    # exponent vectors and permutations of the box reuse them as they are
    x = _reg_sop()
    calls = []
    reduce = QuotientRing.reduce
    monkeypatch.setattr(QuotientRing, "reduce", lambda R, f: calls.append(1) or reduce(R, f))
    assert sequences.is_usd_bounded(x, 2).passed
    assert calls == []


def test_saturate_examples(R5):
    out, s = saturate(ideal_from_text("x^2*y; x*y^2", R5), ideal_from_text("x; y", R5))
    assert str(out) == "x*y" and s == 1
    out, s = saturate(ideal_from_text("x", R5), ideal_from_text("y", R5))
    assert str(out) == "x" and s == 0
    out, s = saturate(ideal_from_text("x^2", R5), ideal_from_text("x", R5))
    assert out.is_unit()
    # saturation by the zero ideal is the unit ideal, as colon by it is
    with pytest.warns(ColonByZeroWarning):
        out, s = saturate(ideal_from_text("x", R5), Ideal(R5, []))
    assert out.is_unit() and s == 0


def test_saturate_properties(R5):
    rng = random.Random(12)
    for _ in range(10):
        I = random_ideal(rng, R5, max_gens=2, max_degree=3)
        K = random_ideal(rng, R5, max_gens=1, max_degree=2)
        sat, _ = saturate(I, K)
        assert ideal_contains(sat, colon(I, K))
        again, s = saturate(sat, K)
        assert ideal_equal(again, sat) and s == 0


def test_saturation_cap_is_reported():
    # (x^3) : x^oo climbs (x^2), (x), (1) and repeats (1) at s = 3, so a cap
    # of 4 steps reaches the repeat and a cap of 3 stops before it
    def saturate_x_cubed(cap):
        ring = PolyRing(5, ["x", "y"], config=EngineConfig(saturation_cap=cap))
        return saturate(ideal_from_text("x^3", ring), ideal_from_text("x", ring))

    out, s = saturate_x_cubed(4)
    assert out.is_unit() and s == 3
    with pytest.raises(BudgetExceededError) as err:
        saturate_x_cubed(3)
    assert err.value.kind == "saturation"
    assert str(err.value) == "saturation did not stabilize within 3 steps"


def test_reduction_degree_budget_is_reported():
    # under lex, x^2 reduces modulo x - y^3 through x*y^3 to y^6, a term of
    # higher degree than x^2 and the basis; the reduction checks each term it
    # creates against the budget before storing it
    def reduce_x_squared(budget):
        ring = PolyRing(5, ["x", "y"], order="lex", config=EngineConfig(max_poly_degree=budget))
        return normal_form(ring.parse("x^2"), ideal_from_text("x - y^3", ring))

    assert str(reduce_x_squared(6)) == "y^6"
    with pytest.raises(BudgetExceededError) as err:
        reduce_x_squared(5)
    assert err.value.kind == "degree"
    assert str(err.value) == "reduction exceeded the degree budget 5"


def test_krull_dimension_examples(R5, R4):
    assert krull_dimension(Ideal(R4, [])) == 4
    assert krull_dimension(ideal_from_text("x; y", R5)) == 0
    assert krull_dimension(twoplanes_ideal(R4)) == 2
    assert krull_dimension(unit_ideal(R5)) == -1


def test_krull_dimension_matches_leading_terms(R5):
    rng = random.Random(15)
    for _ in range(10):
        I = random_ideal(rng, R5, max_gens=2, max_degree=3)
        basis = groebner_basis(I)
        lt_ideal = Ideal(R5, [R5.monomial(g.leading_monomial()) for g in basis])
        assert krull_dimension(I) == krull_dimension(lt_ideal)


def test_radical_member_examples(R5, R4):
    assert radical_member(R5.var("x"), ideal_from_text("x^2", R5))
    assert not radical_member(R5.var("y"), ideal_from_text("x", R5))
    I = ideal_sum(twoplanes_ideal(R4), ideal_from_text("(x+z)^2; (y+w)^2", R4))
    assert radical_member(R4.parse("x + z"), I)
    assert radical_member(R5.zero, ideal_from_text("x", R5))


def _rabinowitsch(f, I):
    """f in rad(I) by the auxiliary-variable trick: I + (1 - t*f) = (1)."""
    big = I.ring.extended(1)
    t = big.var(big.variables[-1])
    gens = [I.ring.lift(g, big) for g in I.gens]
    return Ideal(big, gens + [big.one - t * I.ring.lift(f, big)]).is_unit()


def _zero_dimensional_cases(ring, rng):
    """Seeded zero-dimensional ideals of the three-variable ``ring``, each
    with polynomials to test against it."""
    x, y, z = ring.gens()
    cases = []
    for _ in range(6):
        # homogeneous and m-primary: a pure power of every variable plus
        # random forms
        gens = [v ** rng.randint(2, 4) for v in (x, y, z)]
        gens += [random_nonzero_poly(rng, ring, max_degree=2, homogeneous=True) for _ in range(2)]
        cases.append(Ideal(ring, gens))
    for _ in range(4):
        # inhomogeneous, with a component at x = c away from the origin
        c = rng.randrange(1, ring.p)
        a, b = rng.randint(2, 3), rng.randint(2, 3)
        cases.append(Ideal(ring, [x**2 - c * x, y**a + x * y, z**b - x * z]))
    cases.append(ideal_from_text("x^2 - x; y^3; z", ring))
    cases.append(ideal_from_text("x^3; y; z", ring))
    cases.append(ideal_from_text("x; x - 1; y", ring))  # the unit ideal
    out = []
    for I in cases:
        fs = [random_poly(rng, ring, max_degree=3) for _ in range(6)]
        fs += [x, y, z, x**2 - x, x * y + z]
        out.append((I, fs))
    return out


@pytest.mark.parametrize("p", [2, 5])
def test_radical_member_of_zero_dimensional_ideals_matches_rabinowitsch(p, monkeypatch):
    # a zero-dimensional ideal is decided by a power of f modulo its basis,
    # with no elimination ring; the answer is the Rabinowitsch one
    ring = PolyRing(p, "xyz")
    rng = random.Random(4000 + p)
    cases = _zero_dimensional_cases(ring, rng)
    extended = PolyRing.extended
    answers = []
    for I, fs in cases:
        assert krull_dimension(I) in (0, -1)
        expected = [_rabinowitsch(f, I) for f in fs]
        calls = []
        with monkeypatch.context() as m:
            m.setattr(PolyRing, "extended", lambda *a, **k: calls.append(a) or extended(*a, **k))
            got = [radical_member(f, I) for f in fs]
        assert calls == []
        assert got == expected, str(I)
        answers += got
    assert True in answers and False in answers
    x = ring.var("x")
    assert not radical_member(x, ideal_from_text("x^2 - x; y^3; z", ring))
    assert all(radical_member(f, unit_ideal(ring)) for f in (x, ring.one))
    # the nilpotency index of x modulo (x^3, y, z) is the length 3 itself:
    # an exponent one below it, 2, would answer x wrongly
    I = ideal_from_text("x^3; y; z", ring)
    assert radical_member(x, I) and not ideal_member(x**2, I)


def test_radical_power_checks_the_degree_budget():
    # modulo (x^6, y^6) at p = 11 the powers of x + y have degrees 2, 4, 8;
    # squaring the degree-8 one would build degree 16 above the budget 12,
    # so the test raises before the product instead of reducing it
    for budget, outcome in ((60_000, True), (16, True), (12, None)):
        ring = PolyRing(11, "xy", config=EngineConfig(max_poly_degree=budget))
        I = ideal_from_text("x^6; y^6", ring)
        f = ring.parse("x + y")
        if outcome is not None:
            assert radical_member(f, I) is outcome
            continue
        assert len(groebner_basis(I)) == 2
        with pytest.raises(BudgetExceededError) as err:
            radical_member(f, I)
        assert err.value.kind == "degree"
        assert "power 16" in str(err.value)


def test_budget_is_reported():
    ring = PolyRing(3, ["x", "y", "z"], config=EngineConfig(max_pairs=1, max_basis_size=2))
    I = ideal_from_text("x^2 + y*z; y^2 + x*z; z^2 + x*y", ring)
    with pytest.raises(BudgetExceededError):
        groebner_basis(I)


def test_ring_budget_applies_to_every_operation():
    # the budget is set on the ring alone; equality, elimination rings and
    # quotient-ring construction must all honour it
    ring = PolyRing(5, "xyz", config=EngineConfig(max_pairs=1))
    rels = "x*y - z^2; y^2 - x*z; x^2 - y*z"
    I = ideal_from_text(rels + "; x^3 + y^3 + z^3", ring)
    K = ideal_from_text(rels, ring)
    with pytest.raises(BudgetExceededError):
        groebner_basis(I)
    with pytest.raises(BudgetExceededError):
        _ = I == K
    with pytest.raises(BudgetExceededError):
        intersect(I, Ideal(ring, [ring.var("x")]))
    with pytest.raises(BudgetExceededError):
        QuotientRing(ring, K.gens)


def test_ring_mismatch_is_rejected(R5, R4):
    with pytest.raises(RingMismatchError):
        ideal_member(R4.var("x"), Ideal(R5, [R5.var("x")]))
    with pytest.raises(RingMismatchError):
        ideal_equal(Ideal(R5, [R5.var("x")]), Ideal(R4, [R4.var("x")]))


def test_scale_and_contains(R5):
    I = ideal_from_text("x; y^2", R5)
    s = scale_ideal(R5.var("x"), I)
    assert ideal_equal(s, ideal_from_text("x^2; x*y^2", R5))
    assert ideal_contains(I, s)


def test_intersect_does_not_retest_the_modulus(monkeypatch):
    # the modulus is validated once, when the ring is built; trial division
    # up to sqrt(2**31 - 1) would otherwise run on every elimination ring
    ring = PolyRing(2**31 - 1, "xyz")
    calls = []
    monkeypatch.setattr(polyring, "is_prime", lambda p: calls.append(p) or True)
    meet = intersect(ideal_from_text("x*y", ring), ideal_from_text("y*z", ring))
    assert str(meet) == "x*y*z"
    assert radical_member(ring.var("x"), ideal_from_text("x^2", ring))
    assert calls == []


def _rebuilt(I, rng):
    """An ideal equal to I, built from new polynomials given in a shuffled order."""
    gens = [I.ring.poly(dict(g._terms)) for g in I.gens]
    rng.shuffle(gens)
    return Ideal(I.ring, gens)


def _colons(I, K, rng):
    """The reduced bases of (I : K), (K : I) and (I : k) for each k in K,
    each operand built anew in a shuffled order."""
    pairs = [(I, K), (K, I)] + [(I, Ideal(I.ring, [k])) for k in K.gens]
    return [colon(_rebuilt(A, rng), _rebuilt(B, rng)).gens for A, B in pairs]


def test_memo_gives_the_unmemoized_results(monkeypatch):
    computed = []
    for name in ("_buchberger", "_eliminate_intersection", "_colon_gens"):
        fn = getattr(ideals, name)
        monkeypatch.setattr(ideals, name, lambda *a, fn=fn: computed.append(1) or fn(*a))
    rng = random.Random(21)

    @memo_scope
    def twice(I, K):
        rounds = []
        for _ in range(2):
            before = len(computed)
            basis = groebner_basis(_rebuilt(I, rng))
            meet = intersect(_rebuilt(I, rng), _rebuilt(K, rng))
            quotients = _colons(I, K, rng)
            rounds.append((basis, meet.gens, quotients, len(computed) - before))
        return rounds

    for p in (2, 3, 5, 7):
        ring = PolyRing(p, "xyz")
        for _ in range(6):
            I = random_ideal(rng, ring, max_gens=3, max_degree=3)
            K = random_ideal(rng, ring, max_gens=2, max_degree=2)
            basis, meet = groebner_basis(_rebuilt(I, rng)), intersect(I, K).gens
            quotients = _colons(I, K, rng)
            (b1, m1, c1, n1), (b2, m2, c2, n2) = twice(I, K)
            assert b1 == b2 == basis and m1 == m2 == meet and c1 == c2 == quotients
            assert [str(g) for g in b2] == [str(g) for g in basis]
            assert n1 > 0 and n2 == 0  # the second round computed nothing


def test_memo_returns_the_stored_finished_ideal():
    # a repeat with its generators in another order, or with a generator
    # given twice, built from new polynomials, gets the very basis and ideal
    # the first request stored, and with them their memo keys and packed
    # bases
    ring = PolyRing(5, "xyz")
    I, K = "x^2 + y*z; y^2 - x*z; x*y*z", "x*y + z; z^2 - x"

    def reversed_text(text):
        return "; ".join(reversed(text.split("; ")))

    def repeated_text(text):
        return f"{text}; {text.split('; ')[0]}"

    @memo_scope
    def rounds():
        out = []
        for text_i, text_k in (
            (I, K),
            (reversed_text(I), reversed_text(K)),
            (repeated_text(I), repeated_text(K)),
        ):
            A, B = ideal_from_text(text_i, ring), ideal_from_text(text_k, ring)
            meet, quotient = intersect(A, B), colon(A, B)
            for ideal in (meet, quotient):
                ideal_member(ring.parse("x*y*z"), ideal)  # packs its basis
            out.append((groebner_basis(A), meet, quotient))
        return out

    (b1, m1, c1), (b2, m2, c2), (b3, m3, c3) = rounds()
    assert b2 is b1 and m2 is m1 and c2 is c1
    assert b3 is b1 and m3 is m1 and c3 is c1
    for ideal in (m1, c1):
        assert ideal._basis is ideal.gens and ideal._divisors is not None
    assert m1 == intersect(ideal_from_text(I, ring), ideal_from_text(K, ring))
    assert c1 == colon(ideal_from_text(I, ring), ideal_from_text(K, ring))


def test_memo_shares_the_packed_divisors_of_a_basis(monkeypatch):
    # ideals whose basis comes from one memo entry share its packed
    # divisors: the basis is packed once, and again only for a polynomial
    # of higher degree, which then serves every one of them
    ring = PolyRing(5, "xyz", config=EngineConfig(max_poly_degree=10))
    text = "x^2 + y*z; y^2 - x*z"
    low, high = ring.parse("x^3 + y^3"), ring.monomial((0, 0, 12)) + ring.parse("x^2*z")
    packed = []
    heads = ideals._heads

    @memo_scope
    def run():
        A = ideal_from_text(text, ring)
        B = ideal_from_text("; ".join(reversed(text.split("; "))), ring)
        assert groebner_basis(B) is groebner_basis(A) and B._divisors is A._divisors
        monkeypatch.setattr(ideals, "_heads", lambda G: packed.append(1) or heads(G))
        out = [normal_form(low, A), normal_form(low, B)]
        assert len(packed) == 1
        out += [normal_form(high, B), normal_form(high, A), normal_form(low, A)]
        assert len(packed) == 2
        return out

    I = ideal_from_text(text, ring)
    expected = [normal_form(f, I) for f in (low, low, high, high, low)]
    assert run() == expected


def test_memo_lives_only_inside_the_outermost_call(monkeypatch):
    seen = []

    @memo_scope
    def outer(fail):
        seen.append(ideals._MEMO.get())
        inner()
        groebner_basis(ideal_from_text("x + y; x*y", PolyRing(5, "xy")))
        if fail:
            raise ValueError("fail")

    @memo_scope
    def inner():
        seen.append(ideals._MEMO.get())

    outer(False)
    assert seen[0] is not None and seen[1] is seen[0]  # nested calls share one memo
    assert seen[0]  # which kept the basis
    assert ideals._MEMO.get() is None
    with pytest.raises(ValueError):
        outer(True)
    assert ideals._MEMO.get() is None

    # the entry points open a memo and drop it on return and on raise
    R = workbench.builtin_ring("TWOPLANES")
    seen.clear()
    is_sop = workbench.is_system_of_parameters
    monkeypatch.setattr(
        workbench, "is_system_of_parameters", lambda x: seen.append(ideals._MEMO.get()) or is_sop(x)
    )
    cfg = workbench.SurveyConfig(sample_count=1, seed=1, lengths=(2,))
    assert len(workbench.sample_parameter_ideals(R, cfg).sequences) == 1
    assert seen and all(memo is not None for memo in seen)
    assert ideals._MEMO.get() is None
    with pytest.raises(ValueError):
        workbench.run_suite("nope", R)
    assert ideals._MEMO.get() is None

    # so do the sequence checks that repeat colons, also when called directly
    equal = sequences.ideal_equal
    monkeypatch.setattr(
        sequences, "ideal_equal", lambda I, K: seen.append(ideals._MEMO.get()) or equal(I, K)
    )
    x = SequenceSpec(R, [R.ring.parse("x + z"), R.ring.parse("y + w")])
    for run in (
        lambda: sequences.is_usd_bounded(x, 1).passed,
        lambda: sequences.verify_identity_suite(x, 1, ("colon_power",)).all_passed,
    ):
        seen.clear()
        assert run()
        assert seen and seen[0] is not None and all(memo is seen[0] for memo in seen)
        assert ideals._MEMO.get() is None


def test_memo_does_not_keep_a_budget_failure():
    ring = PolyRing(5, "xyz", config=EngineConfig(max_pairs=1))
    text = "x*y - z^2; y^2 - x*z; x^2 - y*z"

    @memo_scope
    def twice():
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                groebner_basis(ideal_from_text(text, ring))
            with pytest.raises(BudgetExceededError):
                intersect(ideal_from_text(text, ring), Ideal(ring, [ring.var("x")]))
        return dict(ideals._MEMO.get())

    assert twice() == {}

    # a preimage step whose elimination passes the pair budget raises on
    # every request: the bases it took before raising stay, the step does not
    R = workbench.builtin_ring("FERMAT3", config=EngineConfig(max_pairs=1000))
    a = R.preimage([R.ring.parse("x + y^2"), R.ring.parse("y^3")])

    @memo_scope
    def step_twice():
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as err:
                frobenius_preimage(ideal_sum(frobenius_power(a, 1), R.J), 1)
            assert err.value.kind == "pairs"
        return dict(ideals._MEMO.get())

    assert {key[0] for key in step_twice()} == {"gb"}
