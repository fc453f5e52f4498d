"""Property tests for the ideal operations: intersections lie in both
ideals, colons multiply back into the dividend, a colon by a product or a
power equals the chain of colons by its factors, an intersection that skips
the S-pairs inside the reduced bases of its operands (the block rule) gives
the raw elimination and a certified big-ring basis, an intersection of
nested ideals is the smaller one without an elimination, a colon carries its
reduced basis, membership does not depend on the monomial order, exact
division inverts multiplication, packed monomials keep the order, the
product and divisibility, generators are kept in the order given, a
returned basis carries its certificate and depends neither on the generator
order nor on redundant generators, presorted terms are sorted, Frobenius
preimage generators satisfy their certificate, and the closure chain
ascends to Q(a) = p^{e*}.
Derandomized, so every run draws the same examples."""

from itertools import permutations, product
from operator import add, ge, mul

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import fclosure.ideals as ideals
from fclosure.errors import InternalError
from fclosure.frobenius import frobenius_closure, frobenius_preimage, q_exponent
from fclosure.ideals import (
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
from fclosure.polyring import BlockOrder, PolyRing
from fclosure.sequences import _colon_by_power
from fclosure.workbench import builtin_ring

from helpers import remainder, s_polynomial

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


# the block rule of intersect: t*I + (1-t)*K is built from the reduced
# bases of I and K, and no S-pair inside either run is formed
BLOCK_RINGS = [PolyRing(p, NAMES, order=order) for p in (2, 3, 5, 7) for order in ("grevlex", "lex")]


def _raw_elimination(I, K):
    """The reduced basis of I intersect K by eliminating t from t*I + (1-t)*K
    built from the raw generators, with every S-pair formed."""
    ring = I.ring
    big = ring.extended(1)
    t = big.var(big.variables[-1])
    raw = [t * ring.lift(g, big) for g in I.gens] + [(big.one - t) * ring.lift(g, big) for g in K.gens]
    raw = Ideal(big, raw)
    assert raw._settled == ()
    return tuple(ring.project(g) for g in ideals._buchberger(raw))


@CASES
@given(st.sampled_from(BLOCK_RINGS), IDEAL, IDEAL)
def test_intersection_from_settled_runs_is_the_raw_elimination(ring, i_gens, k_gens):
    # the same reduced basis as eliminating t from the raw generators with
    # every S-pair formed
    I, K = _ideal(ring, i_gens), _ideal(ring, k_gens)
    if not (I.gens and K.gens):
        return
    raw = _raw_elimination(I, K)
    assert ideals._eliminate_intersection(I, K) == raw
    assert intersect(I, K).gens == raw


# nonzero polynomials: distinct monomials of degree <= 2, each coefficient
# read as a nonzero residue
NONZERO_TERMS = st.lists(
    st.tuples(st.sampled_from(MONOMIALS), st.integers(1, 4)), min_size=1, max_size=3, unique_by=lambda t: t[0]
)
NONZERO_IDEAL = st.lists(NONZERO_TERMS, min_size=1, max_size=2)
SYMBOLS = sympy.symbols(NAMES)


def _nonzero_ideal(ring, gens):
    p = ring.p
    return Ideal(ring, [ring.poly({e: 1 + (c - 1) % (p - 1) for e, c in terms}) for terms in gens])


def _sympy_basis(I):
    """The reduced basis of I by sympy, an independent implementation, as
    sets of terms."""
    exprs = [sum(c * sympy.prod(s**k for s, k in zip(SYMBOLS, e)) for e, c in g._terms.items()) for g in I.gens]
    theirs = sympy.groebner(exprs, *SYMBOLS, modulus=I.ring.p, order=I.ring.order.kind)
    return {frozenset((e, int(c) % I.ring.p) for e, c in g.terms()) for g in theirs.polys}


@CASES
@given(st.sampled_from(BLOCK_RINGS), NONZERO_IDEAL, NONZERO_IDEAL)
def test_nested_intersection_is_the_smaller_ideal_without_elimination(ring, i_gens, k_gens):
    # for A inside B, namely (I, I + K) and (I*K, I), intersect in both
    # argument orders gives the raw elimination, which is A, with sympy's
    # basis of A, and eliminates nothing; (B : A) is the unit ideal
    I, K = _nonzero_ideal(ring, i_gens), _nonzero_ideal(ring, k_gens)
    nested = ((I, ideal_sum(I, K)), (Ideal(ring, [f * g for f in I.gens for g in K.gens]), I))
    eliminated = []
    eliminate = ideals._eliminate_intersection
    for A, B in nested:
        raw = _raw_elimination(A, B)
        expected = _sympy_basis(A)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideals, "_eliminate_intersection", lambda *a: eliminated.append(a) or eliminate(*a))
            meets = [intersect(A, B), intersect(B, A)]
            quotient = colon(B, A)
        for meet in meets:
            assert meet.gens == raw
            assert {frozenset(g._terms.items()) for g in meet.gens} == expected
        assert quotient.is_unit()
    assert eliminated == []


@CASES
@given(st.sampled_from(BLOCK_RINGS), IDEAL, IDEAL)
def test_big_ring_basis_from_settled_runs_carries_its_certificate(ring, i_gens, k_gens):
    # the working basis of the elimination, interreduced with its
    # t-elements kept, is a Groebner basis of t*I + (1-t)*K: every S-pair
    # reduces to zero with no pair criterion applied
    I, K = _ideal(ring, i_gens), _ideal(ring, k_gens)
    if not (I.gens and K.gens):
        return
    buchberger, interreduce = ideals._buchberger, ideals._interreduce
    settled, working = [], []

    def recorded_buchberger(ideal):
        if ideal.ring != ring:
            settled.append((ideal.gens, ideal._settled))
        return buchberger(ideal)

    def recorded_interreduce(G, packing, aux=0):
        if aux:
            working.append((list(G), packing))
        return interreduce(G, packing, aux)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_buchberger", recorded_buchberger)
        mp.setattr(ideals, "_interreduce", recorded_interreduce)
        ideals._eliminate_intersection(I, K)
    [(gens, runs)] = settled
    assert runs == (len(I.basis()), len(K.basis()))
    [(G, packing)] = working
    full = [ideals._unpack(g, packing) for g in interreduce(G, packing)]
    for f, g in product(full, repeat=2):
        if f is not g:
            assert remainder(s_polynomial(f, g), full).is_zero()
    assert all(remainder(g, full).is_zero() for g in gens)


@CASES
@given(st.sampled_from(BLOCK_RINGS), IDEAL, IDEAL)
# (x, y^2) : (x + y) over F_2, whose quotients x + y, y are not yet reduced
@example(BLOCK_RINGS[0], [[((1, 0, 0), 1)], [((0, 2, 0), 1)]], [[((1, 0, 0), 1), ((0, 1, 0), 1)]])
def test_colon_carries_its_reduced_basis_in_every_generator_order(ring, i_gens, k_gens):
    # the reduced basis colon sets is the one Buchberger computes from its
    # generators in any order, and no order of the divisor's generators
    # changes it
    I, K = _ideal(ring, i_gens), _ideal(ring, k_gens)
    if not K.gens:
        return  # colon by the zero ideal is the unit ideal by convention
    basis = colon(I, K)._basis
    for order in permutations(basis):
        assert ideals._buchberger(Ideal(ring, order)) == basis
    for order in permutations(K.gens):
        assert colon(I, Ideal(ring, order))._basis == basis


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
    quotient = _exact_quotient(q * g, g)
    assert quotient == q
    if not q.is_zero():
        _assert_presorted(quotient)
    # h outside (g) never yields a quotient, right or wrong
    h = q * g + r
    if ideal_member(h, Ideal(F5, [g])):
        assert _exact_quotient(h, g) * g == h
    else:
        with pytest.raises(InternalError):
            _exact_quotient(h, g)


def _exact_quotient(h, g):
    """h / g through the packed division, as a polynomial."""
    packing = ideals._packing_for(F5, (h, g))
    quotient = ideals._exact_quotient(ideals._pack(h, packing), ideals._pack(g, packing), packing)
    return ideals._unpack(quotient, packing)


# the packed monomials of the Groebner core on four orders; exponents up to
# 6 in each variable, packed as tightly as their degrees allow
PACK_RINGS = (
    RINGS[3, "grevlex"],
    RINGS[3, "lex"],
    RINGS[3, "grevlex"].extended(1),
    RINGS[3, "lex"].extended(3),
)


@CASES
@given(st.sampled_from(PACK_RINGS), st.data())
def test_packed_monomials_keep_order_product_and_divisibility(ring, data):
    n = len(ring.variables)
    exps = st.tuples(*[st.integers(0, 6)] * n)
    a, b = data.draw(exps), data.draw(exps)
    packing = ideals._Packing(ring, max(sum(a), sum(b)))
    pa, pb = packing.pack(a), packing.pack(b)
    order = ring.order
    assert order.key(a) == tuple(sum(map(mul, row, a)) for row in order.rows(n))
    ka, kb = order.key(a), order.key(b)
    assert (pa > pb) - (pa < pb) == (ka > kb) - (ka < kb)
    assert pa + pb == packing.pack(tuple(map(add, a, b)))
    assert (not (pb - pa) & packing.guard) == all(map(ge, b, a))
    assert packing.unpack(pa) == a
    assert (pa & packing.dmask) >> packing.dshift == sum(a)
    split = order.split if isinstance(order, BlockOrder) else n
    assert bool(pa & packing.aux) == any(a[split:])


# generator lists over F_3 on three rings of three kinds of order; every
# exponent tuple is cut to the ring's length
ORDER_RINGS = (RINGS[3, "grevlex"], RINGS[3, "lex"], RINGS[3, "grevlex"].extended(1))
EXPS4 = st.tuples(*[st.integers(0, 2)] * 4)
GEN_TERMS = st.lists(st.tuples(EXPS4, st.integers(1, 2)), min_size=1, max_size=3)


def _gens(ring, gen_terms):
    n = len(ring.variables)
    return [_poly(ring, [(e[:n], c) for e, c in terms]) for terms in gen_terms]


@CASES
@given(st.sampled_from(ORDER_RINGS), st.lists(GEN_TERMS, max_size=5))
def test_generators_are_kept_in_the_order_given(ring, gen_terms):
    # the generator list may hold zeros (terms of one monomial may cancel
    # mod 3) and repeats; the ideal drops the zeros and keeps the rest as given
    gens = _gens(ring, gen_terms)
    gens += gens[:2]
    kept = Ideal(ring, gens).gens
    assert len(kept) == sum(not g.is_zero() for g in gens)
    assert all(a is b for a, b in zip(kept, (g for g in gens if not g.is_zero())))


def _divides(m, e):
    return all(a <= b for a, b in zip(m, e))


@CASES
@given(st.sampled_from(ORDER_RINGS), st.lists(GEN_TERMS, min_size=1, max_size=4))
def test_basis_carries_its_certificate_in_every_generator_order(ring, gen_terms):
    # the basis is reduced, every S-pair of it reduces to zero with no pair
    # criterion applied (Buchberger's criterion), it generates the ideal
    # (on an elimination ring it is the basis of the elimination ideal, so
    # only its own certificate applies), and no generator order changes it
    gens = _gens(ring, gen_terms)
    basis = Ideal(ring, gens).basis()
    heads = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        assert g.leading_coeff() == 1
        others = heads[:i] + heads[i + 1 :]
        assert not any(_divides(h, e) for h in others for e in g._terms)
    for f, g in product(basis, repeat=2):
        if f is not g:
            assert remainder(s_polynomial(f, g), basis).is_zero()
    if not isinstance(ring.order, BlockOrder):
        assert all(remainder(g, basis).is_zero() for g in gens)
    for order in permutations(gens):
        assert Ideal(ring, order).basis() == basis


PAD_RINGS = (*ORDER_RINGS, RINGS[5, "grevlex"], RINGS[5, "lex"])
# one padding generator: a duplicate, a nonzero scalar multiple, or the
# combination m*g_i + c*g_j, of generators drawn by index, and the position
# it takes after the last of them, all read modulo what is in range
PAD = st.tuples(
    st.sampled_from(("duplicate", "multiple", "combination")),
    st.integers(0, 7), st.integers(0, 7), EXPS4, st.integers(1, 4), st.integers(0, 7),
)


@CASES
@given(
    st.sampled_from(PAD_RINGS),
    st.lists(GEN_TERMS, min_size=1, max_size=3),
    st.lists(PAD, min_size=1, max_size=4),
)
@example(
    RINGS[5, "lex"],
    [[((1, 0, 0, 0), 1), ((0, 2, 0, 0), 1)], [((0, 1, 1, 0), 1), ((0, 0, 0, 0), 1)]],
    [("combination", 0, 1, (0, 1, 0, 0), 3, 0), ("multiple", 1, 0, (0, 0, 0, 0), 4, 1)],
)
def test_basis_ignores_redundant_generators(ring, gen_terms, pads):
    # generators enter Buchberger reduced against the basis so far, and one
    # that reduces to zero is dropped; padding the generators (of mixed
    # degrees, so inhomogeneous) with duplicates, scalar multiples and
    # combinations of earlier generators leaves the reduced basis as it was,
    # and every generator, dropped or not, lies in the ideal it generates
    n, p = len(ring.variables), ring.p
    gens = [g for g in _gens(ring, gen_terms) if not g.is_zero()]
    if not gens:
        return
    padded = list(gens)
    for kind, i, j, exps, c, at in pads:
        i, j, c = i % len(padded), j % len(padded), c % (p - 1) + 1
        if kind == "duplicate":
            extra, last = padded[i], i
        elif kind == "multiple":
            extra, last = padded[i] * c, i
        else:
            extra, last = ring.monomial(exps[:n]) * padded[i] + padded[j] * c, max(i, j)
        padded.insert(last + 1 + at % (len(padded) - last), extra)
    basis = Ideal(ring, padded).basis()
    assert basis == Ideal(ring, gens).basis()
    if not isinstance(ring.order, BlockOrder):
        assert all(remainder(g, basis).is_zero() for g in padded)


@CASES
@given(st.sampled_from(PRIMES), IDEAL, IDEAL, TERMS)
def test_presorted_terms_equal_a_fresh_sort(p, i_gens, k_gens, f_terms):
    ring = RINGS[p, "grevlex"]
    I, K = _ideal(ring, i_gens), _ideal(ring, k_gens)
    eliminated, projected = [], ()
    buchberger = ideals._buchberger

    def recorded(ideal):
        if ideal.ring != ring:
            eliminated.extend(ideal.gens)  # the t*I + (1-t)*K generators
        return buchberger(ideal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_buchberger", recorded)
        if I.gens and K.gens:
            projected = ideals._eliminate_intersection(I, K)
        meet = intersect(I, K)
        quotient = colon(I, K) if K.gens else None
    for g in eliminated:
        _assert_presorted(g)
    assert eliminated or not (I.gens and K.gens)
    for g in projected + meet.gens + (quotient.gens if quotient else ()):
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


# small ideals of NILLINE = F_2[x,y]/(x^2), where closures grow, and of the
# F-pure TWOPLANES = F_2[x,y,z,w]/(x,y)(z,w), where every ideal is Frobenius
# closed; the exponent tuples are cut to the ring's length
CLOSURE_RINGS = (builtin_ring("NILLINE"), builtin_ring("TWOPLANES"))
LINEAR_OR_QUADRATIC = [e for e in product(range(3), repeat=4) if 1 <= sum(e) <= 2]
CLOSURE_GEN = st.lists(st.sampled_from(LINEAR_OR_QUADRATIC), min_size=1, max_size=3)


@CASES
@given(st.sampled_from(CLOSURE_RINGS), st.lists(CLOSURE_GEN, min_size=1, max_size=2))
def test_closure_chain_ascends_to_the_test_exponent(R, gen_terms):
    # F_e = {r : r^(p^e) in a^[p^e] + J} ascends; once it stabilizes at e*,
    # Q(a) = p^(e*), the least Q with (a^F)^[Q] = a^[Q] (Katzman-Sharp)
    n = len(R.ring.variables)
    gens = [_poly(R.ring, [(e[:n], 1) for e in terms]) for terms in gen_terms]
    a = R.preimage(gens)
    res = frobenius_closure(a, R, e_max=3)
    for smaller, larger in zip(res.chain, res.chain[1:]):
        assert ideal_contains(larger, smaller)
    if res.stabilized:
        assert q_exponent(a, R, e_max=3, closure=res.closure).e == res.e_star
