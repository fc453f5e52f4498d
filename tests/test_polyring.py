"""Polynomial arithmetic, parsing, monomial orders, Frobenius decomposition."""

import random
from itertools import product

import pytest

from fclosure.config import EngineConfig
from fclosure.errors import BudgetExceededError, ParseError, RingMismatchError
from fclosure.polyring import (
    BlockOrder,
    MonomialOrder,
    PolyRing,
    frobenius_decompose,
    is_prime,
    monomial_compare,
    parse_polynomial,
)
from fclosure.workbench import builtin_ring

from helpers import random_poly


def test_parse_examples():
    ring = PolyRing(5, ["x", "y"])
    f = parse_polynomial("x^2*y - 3", ring)
    assert str(f) == "x^2*y + 2"
    assert parse_polynomial("0", ring).is_zero()
    with pytest.raises(ParseError, match="unknown variable 'q'"):
        parse_polynomial("x + q", ring)


def test_parse_error_reports_position():
    ring = PolyRing(5, ["x", "y"])
    with pytest.raises(ParseError) as err:
        ring.parse("x + * y")
    assert err.value.position == 4
    # an exponent literal is bounded by the degree budget, like any power
    with pytest.raises(BudgetExceededError) as budget:
        ring.parse(f"x^{2**40}")
    assert budget.value.kind == "degree"
    assert str(budget.value) == f"power {2**40} exceeded the degree budget 60000"
    with pytest.raises(ParseError):
        ring.parse("")
    with pytest.raises(ParseError):
        ring.parse("x y")  # juxtaposition is not multiplication
    for text, position, message in (
        ("x +", 3, "unexpected end of input"),
        ("x*", 2, "unexpected end of input"),
        ("(x + y", 6, "expected ')'"),
        ("x^y", 2, "exponent must be an integer"),
        ("x $ y", 2, "unexpected '$'"),
    ):
        with pytest.raises(ParseError) as err:
            ring.parse(text)
        assert str(err.value) == f"syntax error at position {position}: {message}"
        assert err.value.position == position
    # trailing whitespace is no character of the expression
    assert ring.parse("x + y \t ") == ring.parse("x + y")


def test_ring_validation():
    with pytest.raises(ValueError, match="not prime"):
        PolyRing(4, ["x"])
    with pytest.raises(ValueError, match="unique"):
        PolyRing(5, ["x", "x"])
    with pytest.raises(ValueError):
        PolyRing(5, [])
    assert is_prime(2) and is_prime(2**31 - 1) and not is_prime(1)


def test_mul_examples():
    R2 = PolyRing(2, ["x", "y"])
    x, y = R2.gens()
    assert (x + y) * (x + y) == R2.parse("x^2 + y^2")
    R7 = PolyRing(7, ["x"])
    t = R7.var("x")
    assert str((t + R7.one) * (t - R7.one)) == "x^2 + 6"
    assert (t * R7.zero).is_zero()


def test_ring_mismatch():
    a = PolyRing(5, ["x"]).var("x")
    b = PolyRing(7, ["x"]).var("x")
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(TypeError, match="cannot combine Polynomial with str"):
        a + "x"


def test_monomial_compare_examples():
    grevlex = MonomialOrder("grevlex")
    lex = MonomialOrder("lex")
    # vars x > y > z: xy vs z^2, equal degree, smaller last exponent wins
    assert monomial_compare((1, 1, 0), (0, 0, 2), grevlex) == 1
    assert monomial_compare((1, 0), (0, 5), lex) == 1
    assert monomial_compare((2, 3), (2, 3), grevlex) == 0
    with pytest.raises(ValueError):
        monomial_compare((1,), (1, 2), grevlex)


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_monomial_order_is_total_and_multiplicative(kind):
    order = MonomialOrder(kind)
    rng = random.Random(99)
    for _ in range(300):
        a, b, m = (tuple(rng.randrange(6) for _ in range(3)) for _ in range(3))
        ab = monomial_compare(a, b, order)
        ba = monomial_compare(b, a, order)
        assert ab == -ba
        if ab == 0:
            assert a == b
        # multiplicative: a > b implies a+m > b+m
        am = tuple(u + v for u, v in zip(a, m))
        bm = tuple(u + v for u, v in zip(b, m))
        assert monomial_compare(am, bm, order) == ab
        # 1 is minimal
        if any(a):
            assert monomial_compare(a, (0, 0, 0), order) == 1


def _composed_key(order, exps):
    # the block order by its definition: the aux tail by grevlex, then the
    # head by the base order's own key
    if isinstance(order, BlockOrder):
        head, tail = exps[: order.split], exps[order.split :]
        return (sum(tail), *(-a for a in reversed(tail)), *_composed_key(order.base, head))
    return order.key(exps)


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_block_key_equals_its_composed_definition(kind):
    ring = PolyRing(3, ["x", "y"], order=kind)
    for big in (ring.extended(1), ring.extended(2), ring.extended(1).extended(1)):
        order = big.order
        for exps in product(range(3), repeat=len(big.variables)):
            assert order.key(exps) == _composed_key(order, exps)


def test_canonical_form_round_trip():
    rng = random.Random(5)
    for p in (2, 3, 5, 101):
        ring = PolyRing(p, ["x", "y", "z"])
        for _ in range(40):
            f = random_poly(rng, ring, max_degree=5, max_terms=6)
            assert ring.parse(str(f)) == f


def test_ring_axioms_random():
    rng = random.Random(17)
    for p in (2, 5):
        ring = PolyRing(p, ["x", "y"])
        for _ in range(40):
            f = random_poly(rng, ring)
            g = random_poly(rng, ring)
            h = random_poly(rng, ring)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) ** p == f**p + g**p
            assert f - f == ring.zero
    # equal values built differently hash equal and collapse in a set
    ring = PolyRing(5, ["x", "y"])
    f, g = ring.parse("(x + y)^2"), ring.parse("y^2 + 2*x*y + x^2")
    assert f is not g and hash(f) == hash(g)
    assert len({f, g, ring.parse("x*y")}) == 2


def test_pow_paths_agree():
    rng = random.Random(31)
    ring = PolyRing(3, ["x", "y"])
    for _ in range(15):
        f = random_poly(rng, ring, max_degree=2, max_terms=3)
        n = rng.randrange(1, 12)
        expected = ring.one
        for _ in range(n):
            expected = expected * f
        assert f**n == expected
    assert (ring.zero) ** 0 == ring.one


def test_exponent_overflow_guard():
    ring = PolyRing(2, ["x"])
    f = ring.parse("x^1000")
    with pytest.raises(BudgetExceededError) as err:
        f ** (2**25)
    assert err.value.kind == "degree"
    assert str(err.value) == f"power {2**25} exceeded the degree budget 60000"


@pytest.mark.parametrize("n", [70000, 100000])
def test_power_obeys_the_degree_budget(n):
    # deg(f^n) = n*deg(f) over a domain, so a power past the budget raises
    # before any product is formed, whether or not its exponent splits
    # into Frobenius factors that would reach the budget themselves
    ring = builtin_ring("REG").ring
    with pytest.raises(BudgetExceededError) as err:
        ring.parse(f"(x+y)^{n}")
    assert err.value.kind == "degree"
    assert str(err.value) == f"power {n} exceeded the degree budget 60000"
    # a power of degree exactly the budget is built
    small = PolyRing(5, ["x", "y"], config=EngineConfig(max_poly_degree=6))
    assert small.parse("(x^2 + y)^3").total_degree() == 6
    with pytest.raises(BudgetExceededError, match="power 4 exceeded the degree budget 6"):
        small.parse("(x^2 + y)^4")


def test_frobenius_decompose_examples():
    R2 = PolyRing(2, ["x", "y"])
    x, y = R2.gens()
    d = frobenius_decompose(R2.parse("x^3*y + x^2"), 1)
    assert d == {(1, 1): x, (0, 0): x}
    d = frobenius_decompose(x + y, 1)
    assert d == {(1, 0): R2.one, (0, 1): R2.one}
    f = R2.parse("x^2 + x*y")
    assert frobenius_decompose(f, 0) == {(0, 0): f}
    assert frobenius_decompose(R2.zero, 1) == {}


def test_frobenius_decompose_round_trip():
    rng = random.Random(71)
    for p in (2, 3, 5):
        ring = PolyRing(p, ["x", "y"])
        for e in (1, 2):
            for _ in range(25):
                f = random_poly(rng, ring, max_degree=7, max_terms=5)
                rebuilt = ring.zero
                for alpha, g in frobenius_decompose(f, e).items():
                    rebuilt = rebuilt + g.frobenius(e) * ring.monomial(alpha)
                assert rebuilt == f


def test_frobenius_power_is_termwise():
    rng = random.Random(13)
    ring = PolyRing(5, ["x", "y"])
    for _ in range(20):
        f = random_poly(rng, ring)
        assert f.frobenius(1) == f**5
        assert f.frobenius(2) == (f**5) ** 5


def test_printing_shows_reduced_coefficients():
    ring = PolyRing(7, ["x", "y"])
    f = ring.parse("-x - 2*y")
    assert str(f) == "6*x + 5*y"
    assert str(ring.parse("x^1")) == "x"
    assert str(ring.constant(0)) == "0"
