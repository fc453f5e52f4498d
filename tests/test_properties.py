"""Property tests for the ideal operations: intersections lie in both
ideals, colons multiply back into the dividend, a colon by a product or a
power equals the chain of colons by its factors, membership does not depend
on the monomial order, exact division inverts multiplication, generators
come in their canonical order, presorted terms are sorted, and Frobenius
preimage generators satisfy their certificate.  Derandomized, so every run
draws the same examples."""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import fclosure.ideals as ideals  # noqa: E402
from fclosure.errors import InternalError  # noqa: E402
from fclosure.frobenius import frobenius_preimage  # noqa: E402
from fclosure.ideals import (  # noqa: E402
    Ideal,
    colon,
    ideal_contains,
    ideal_equal,
    ideal_member,
    ideal_sum,
    intersect,
    normal_form,
    scale_ideal,
)
from fclosure.polyring import Polynomial, PolyRing  # noqa: E402
from fclosure.sequences import _colon_by_power  # noqa: E402

PRIMES = (2, 3, 5)
NAMES = ("x", "y", "z")
RINGS = {(p, order): PolyRing(p, NAMES, order=order) for p in PRIMES for order in ("grevlex", "lex")}

# a polynomial as its terms: monomials of degree <= 2 with coefficients read
# modulo p, so a term may vanish and the polynomial may be zero
MONOMIALS = [e for e in product(range(3), repeat=len(NAMES)) if sum(e) <= 2]
TERMS = st.lists(st.tuples(st.sampled_from(MONOMIALS), st.integers(1, 4)), min_size=1, max_size=3)
IDEAL = st.lists(TERMS, min_size=1, max_size=2)

CASES = settings(derandomize=True, database=None, max_examples=50, deadline=None)


def _poly(ring, terms):
    acc = {}
    for exps, c in terms:
        acc[exps] = acc.get(exps, 0) + c
    return ring.poly(acc)


def _ideal(ring, gens):
    return Ideal(ring, [_poly(ring, terms) for terms in gens])


@CASES
@given(st.sampled_from(PRIMES), IDEAL, IDEAL)
def test_intersection_lies_in_both(p, i_gens, k_gens):
    ring = RINGS[p, "grevlex"]
    I, K = _ideal(ring, i_gens), _ideal(ring, k_gens)
    meet = intersect(I, K)
    assert ideal_contains(I, meet)
    assert ideal_contains(K, meet)


@CASES
@given(st.sampled_from(PRIMES), IDEAL, IDEAL)
def test_colon_times_divisor_lies_in_dividend(p, i_gens, k_gens):
    ring = RINGS[p, "grevlex"]
    I, K = _ideal(ring, i_gens), _ideal(ring, k_gens)
    if not K.gens:
        return  # colon by the zero ideal is the unit ideal by convention
    quotient = colon(I, K)
    assert all(ideal_member(g * k, I) for g in quotient.gens for k in K.gens)


@CASES
@given(st.sampled_from(PRIMES), IDEAL, IDEAL, TERMS, TERMS, st.integers(0, 2), st.integers(1, 3))
def test_colon_by_a_product_or_power_is_the_chain_of_colons(p, i_gens, k_gens, a_terms, b_terms, k, n):
    # (I : ab) = ((I : a) : b) and (I : a^n) = (I : a) iterated n times;
    # the dividend a^k*I + K keeps (I : a^n) from being the same for every n
    ring = RINGS[p, "grevlex"]
    a, b = _poly(ring, a_terms), _poly(ring, b_terms)
    if a.is_zero() or b.is_zero():
        return  # colon by the zero ideal is the unit ideal by convention
    I = ideal_sum(scale_ideal(a**k, _ideal(ring, i_gens)), _ideal(ring, k_gens))
    by_a = colon(I, Ideal(ring, [a]))
    assert ideal_equal(colon(by_a, Ideal(ring, [b])), colon(I, Ideal(ring, [a * b])))
    assert ideal_equal(_colon_by_power(I, a, n), colon(I, Ideal(ring, [a**n])))


@CASES
@given(st.sampled_from(PRIMES), IDEAL, TERMS, TERMS, st.booleans())
def test_membership_agrees_between_lex_and_grevlex(p, i_gens, multiplier, rest, member):
    answers = []
    for order in ("grevlex", "lex"):
        ring = RINGS[p, order]
        I = _ideal(ring, i_gens)
        # a multiple of a generator, plus an arbitrary rest unless it must be a member
        f = _poly(ring, multiplier) * I.gens[0] if I.gens else ring.zero
        if not member:
            f = f + _poly(ring, rest)
        answers.append(ideal_member(f, I))
    assert answers[0] == answers[1]
    if member:
        assert answers[0]


# polynomials of F_5[x,y,z] of degree <= 2 with up to four terms
F5 = RINGS[5, "grevlex"]
POLY5 = st.lists(st.tuples(st.sampled_from(MONOMIALS), st.integers(1, 4)), min_size=0, max_size=4)


def _fresh_sort(f):
    key = f.ring.order.key
    return sorted(f._terms.items(), key=lambda t: key(t[0]), reverse=True)


def _assert_presorted(f):
    assert f._sorted is not None and f._sorted == _fresh_sort(f)


@CASES
@given(POLY5, POLY5, POLY5)
def test_exact_quotient_inverts_multiplication(q_terms, g_terms, r_terms):
    q, g, r = _poly(F5, q_terms), _poly(F5, g_terms), _poly(F5, r_terms)
    if g.is_zero():
        return
    quotient = ideals._exact_quotient(q * g, g)
    assert quotient == q
    if not q.is_zero():
        _assert_presorted(quotient)
    # h outside (g) never yields a quotient, right or wrong
    h = q * g + r
    if ideal_member(h, Ideal(F5, [g])):
        assert ideals._exact_quotient(h, g) * g == h
    else:
        with pytest.raises(InternalError):
            ideals._exact_quotient(h, g)


# generator lists over F_3 on three rings of three kinds of order; every
# exponent tuple is cut to the ring's length
ORDER_RINGS = (RINGS[3, "grevlex"], RINGS[3, "lex"], RINGS[3, "grevlex"].extended(1))
EXPS4 = st.tuples(*[st.integers(0, 2)] * 4)
GEN_TERMS = st.lists(st.tuples(EXPS4, st.integers(1, 2)), min_size=1, max_size=3)
# (which generator, which kind of tie) pairs
TIES = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2)))


@CASES
@given(st.sampled_from(ORDER_RINGS), st.lists(GEN_TERMS, max_size=5), TIES)
def test_generators_come_in_the_canonical_order(ring, gen_terms, copies):
    n = len(ring.variables)
    gens = [_poly(ring, [(e[:n], c) for e, c in terms]) for terms in gen_terms]
    # force ties of leading monomials: a duplicate of a generator, its
    # double (another leading coefficient), or its leading term plus its
    # doubled tail (the same leading term, other lower terms)
    for i, kind in copies:
        if gens and not gens[i % len(gens)].is_zero():
            g = gens[i % len(gens)]
            lead = ring.monomial(g.leading_monomial(), g.leading_coeff())
            gens.append((ring.poly(dict(g._terms)), g * 2, lead + (g - lead) * 2)[kind])
    nonzero = [g for g in gens if not g.is_zero()]
    expected = tuple(sorted(nonzero, key=Polynomial.sort_key, reverse=True))
    assert Ideal(ring, gens).gens == expected


@CASES
@given(st.sampled_from(PRIMES), IDEAL, IDEAL, TERMS)
def test_presorted_terms_equal_a_fresh_sort(p, i_gens, k_gens, f_terms):
    ring = RINGS[p, "grevlex"]
    I, K = _ideal(ring, i_gens), _ideal(ring, k_gens)
    eliminated = []
    buchberger = ideals._buchberger

    def recorded(ideal):
        if ideal.ring != ring:
            eliminated.extend(ideal.gens)  # the t*I + (1-t)*K generators
        return buchberger(ideal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_buchberger", recorded)
        meet = intersect(I, K)
        quotient = colon(I, K) if K.gens else None
    for g in eliminated:
        _assert_presorted(g)
    assert eliminated or not (I.gens and K.gens)
    for g in meet.gens + (quotient.gens if quotient else ()):
        _assert_presorted(g)
    f = _poly(ring, f_terms)
    if I.gens and not f.is_zero():
        remainder = normal_form(f, I)
        if not remainder.is_zero():
            _assert_presorted(remainder)


@CASES
@given(st.sampled_from((2, 3)), st.lists(GEN_TERMS, min_size=1, max_size=2))
def test_preimage_generators_satisfy_their_certificate(p, gen_terms):
    # F_2 and F_3 in two variables, e = 1: every generator r of the
    # preimage has r^p in I, and the preimage contains I
    ring = PolyRing(p, ("x", "y"))
    I = Ideal(ring, [_poly(ring, [(e[:2], c) for e, c in terms]) for terms in gen_terms])
    preimage = frobenius_preimage(I, 1)
    assert all(ideal_member(g.frobenius(1), I) for g in preimage.gens)
    assert ideal_contains(preimage, I)
