"""Property tests for the ideal operations: intersections lie in both
ideals, colons multiply back into the dividend, and membership does not
depend on the monomial order.  Derandomized, so every run draws the same
examples."""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fclosure.ideals import Ideal, colon, ideal_contains, ideal_member, intersect  # noqa: E402
from fclosure.polyring import PolyRing  # noqa: E402

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
