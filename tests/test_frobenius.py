"""Frobenius powers, roots, preimages, closure chains and test exponents."""

import random

import pytest

from fclosure.errors import ExponentOverflowError, QExponentNotFoundError
from fclosure.frobenius import (
    FrobeniusExponent,
    QuotientRing,
    frobenius_closure,
    frobenius_power,
    frobenius_preimage,
    frobenius_root,
    q_exponent,
)
from fclosure.ideals import (
    Ideal,
    ideal_contains,
    ideal_equal,
    ideal_from_text,
    ideal_member,
    ideal_sum,
)
from fclosure.polyring import PolyRing
from fclosure.sequences import limit_ideal
from fclosure.workbench import builtin_ring, sample_parameter_ideals, SurveyConfig

from helpers import closure_chain_oracle, kernel_preimage_oracle, random_ideal


def test_frobenius_power_examples():
    R2 = PolyRing(2, ["x", "y"])
    out = frobenius_power(ideal_from_text("x; y", R2), 1)
    assert ideal_equal(out, ideal_from_text("x^2; y^2", R2))
    R3 = PolyRing(3, ["x", "y"])
    out = frobenius_power(ideal_from_text("x + y", R3), 1)
    assert ideal_equal(out, ideal_from_text("x^3 + y^3", R3))
    I = ideal_from_text("x^2 + y", R3)
    assert frobenius_power(I, 0) is I


def test_frobenius_power_properties():
    rng = random.Random(8)
    ring = PolyRing(3, ["x", "y"])
    for _ in range(10):
        I = random_ideal(rng, ring, max_gens=2, max_degree=2)
        P1 = frobenius_power(I, 1)
        assert ideal_contains(I, P1)  # g**q = g * g**(q-1) stays inside
        assert ideal_equal(frobenius_power(I, 2), frobenius_power(P1, 1))


def test_frobenius_power_cap():
    ring = PolyRing(2, ["x"])
    with pytest.raises(ExponentOverflowError):
        frobenius_power(ideal_from_text("x", ring), 9)


def test_frobenius_root_examples():
    R2 = PolyRing(2, ["x", "y"])
    assert str(frobenius_root(ideal_from_text("x^2*y^3", R2), 1)) == "x*y"
    out = frobenius_root(ideal_from_text("x^3 + y^3", R2), 1)
    assert ideal_equal(out, ideal_from_text("x; y", R2))
    out = frobenius_root(ideal_from_text("x^2; y^2", R2), 1)
    assert ideal_equal(out, ideal_from_text("x; y", R2))


def test_root_power_adjunction_random():
    rng = random.Random(10)
    for p in (2, 5):
        ring = PolyRing(p, ["x", "y"])
        for _ in range(10):
            I = random_ideal(rng, ring, max_gens=2, max_degree=3)
            for e in (1, 2):
                assert ideal_equal(frobenius_root(frobenius_power(I, e), e), I)
                root = frobenius_root(I, e)
                assert ideal_contains(frobenius_power(root, e), I)


def test_preimage_matches_kernel_oracle():
    rng = random.Random(77)
    for p in (2, 3):
        ring = PolyRing(p, ["x", "y"])
        for _ in range(12):
            I = random_ideal(rng, ring, max_gens=2, max_degree=3, max_terms=3)
            for e in (1, 2):
                main = frobenius_preimage(I, e)
                bound = max([g.total_degree() for g in main.basis()] + [2]) + 1
                assert ideal_equal(main, kernel_preimage_oracle(I, e, bound))
                assert all(ideal_member(g.frobenius(e), I) for g in main.basis())


def test_preimage_is_inside_root():
    rng = random.Random(78)
    ring = PolyRing(2, ["x", "y"])
    for _ in range(10):
        I = random_ideal(rng, ring, max_gens=2, max_degree=3)
        assert ideal_contains(frobenius_root(I, 1), frobenius_preimage(I, 1))


def test_closure_regular_ring_is_identity():
    rng = random.Random(31)
    for p in (2, 3, 5):
        REG = builtin_ring("REG", p=p)
        for _ in range(5):
            a = REG.preimage(random_ideal(rng, REG.ring, max_gens=2, max_degree=3).gens)
            res = frobenius_closure(a, REG)
            assert res.stabilized and res.e_star == 0
            assert ideal_equal(res.closure, a)
            assert q_exponent(a, REG, closure=res.closure) == FrobeniusExponent(0, 1)


def test_closure_nilline_golden():
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.var("y")])
    res = frobenius_closure(a, NIL, e_max=3)
    assert res.stabilized and res.e_star == 1 and res.certified_lower
    assert [str(g) for g in res.closure.basis()] == ["x", "y"]
    Q = q_exponent(a, NIL, e_max=3, closure=res.closure)
    assert (Q.e, Q.q) == (1, 2)
    # x is genuinely outside a + J
    assert not ideal_member(NIL.ring.var("x"), ideal_sum(a, NIL.J))
    # independent chain scan
    chain = closure_chain_oracle(a, NIL, 3, degree=3)
    for e in (1, 2, 3):
        assert ideal_equal(chain[e], res.closure)


def test_closure_and_q_exponent_reject_empty_windows():
    # e_max < 0 examines no exponent; lookahead 0 would call the first
    # value stable, and (y) would read as Frobenius closed
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.var("y")])
    closure = NIL.preimage([NIL.ring.var("x"), NIL.ring.var("y")])
    with pytest.raises(ValueError, match="e_max"):
        frobenius_closure(a, NIL, e_max=-1)
    with pytest.raises(ValueError, match="lookahead"):
        frobenius_closure(a, NIL, lookahead=0)
    with pytest.raises(ValueError, match="e_max"):
        q_exponent(a, NIL, e_max=-1)
    with pytest.raises(ValueError, match="e_max"):
        q_exponent(a, NIL, e_max=-1, closure=closure)


def test_closure_window_too_short_is_unstabilized():
    # the chain of (y) in NILLINE grows at e = 1 and settles only after it,
    # so at e_max = 1 it stops at F_1 without a verdict
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.var("y")])
    res = frobenius_closure(a, NIL, e_max=1)
    assert not res.stabilized and res.e_star is None
    assert res.examined_e == 1 and len(res.chain) == 2
    assert res.closure is res.chain[-1]
    assert [str(g) for g in res.closure.basis()] == ["x", "y"]


def test_q_exponent_not_found():
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.var("y")])
    # the closure chain does not stabilize within the window
    with pytest.raises(QExponentNotFoundError, match="did not stabilize") as info:
        q_exponent(a, NIL, e_max=1)
    assert info.value.e_max == 1
    # a given closure whose powers first agree at e = 1
    closure = NIL.preimage([NIL.ring.var("x"), NIL.ring.var("y")])
    with pytest.raises(QExponentNotFoundError, match="equalizes") as info:
        q_exponent(a, NIL, e_max=0, closure=closure)
    assert info.value.e_max == 0
    assert q_exponent(a, NIL, e_max=1, closure=closure) == FrobeniusExponent(1, 2)


def test_closure_chain_is_ascending_and_certified():
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.parse("x + y")])
    res = frobenius_closure(a, NIL, e_max=3)
    base = ideal_sum(a, NIL.J)
    for e in range(1, len(res.chain)):
        assert ideal_contains(res.chain[e], res.chain[e - 1])
    q_star = NIL.p**res.e_star
    stage = ideal_sum(frobenius_power(base, res.e_star), NIL.J)
    for g in res.closure.basis():
        assert ideal_member(g ** q_star, stage)


def test_closure_monotone_and_idempotent():
    TW = builtin_ring("TWOPLANES")
    rg = TW.ring
    a = TW.preimage([rg.parse("x + z")])
    b = TW.preimage([rg.parse("x + z"), rg.parse("y + w")])
    ca = frobenius_closure(a, TW).closure
    cb = frobenius_closure(b, TW).closure
    assert ideal_contains(cb, ca)
    again = frobenius_closure(ca, TW)
    assert again.e_star == 0 and ideal_equal(again.closure, ca)


def test_q_exponent_monotone_once_equal():
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.var("y")])
    res = frobenius_closure(a, NIL, e_max=3)
    base = ideal_sum(a, NIL.J)
    Q = q_exponent(a, NIL, e_max=3, closure=res.closure)
    for e in range(Q.e, 4):
        lhs = ideal_sum(frobenius_power(res.closure, e), NIL.J)
        rhs = ideal_sum(frobenius_power(base, e), NIL.J)
        assert ideal_equal(lhs, rhs)
    # and failure right below the minimum
    if Q.e > 0:
        lhs = ideal_sum(frobenius_power(res.closure, Q.e - 1), NIL.J)
        rhs = ideal_sum(frobenius_power(base, Q.e - 1), NIL.J)
        assert not ideal_equal(lhs, rhs)


def test_nil_reduction_bound():
    # with n nilpotent of level Q' and Q-tilde taken in R/n, Q(a) <= Q' * Q-tilde
    NIL = builtin_ring("NILLINE")
    rg = NIL.ring
    n_gens = [rg.var("x")]
    assert ideal_equal(
        ideal_sum(frobenius_power(Ideal(rg, n_gens), 1), NIL.J), NIL.J
    )  # n^[2] = 0, so Q' = 2
    reduced = QuotientRing(rg, list(NIL.J.gens) + n_gens)
    for text in ("y", "x + y", "y^2 + x"):
        a = NIL.preimage([rg.parse(text)])
        Q = q_exponent(a, NIL, e_max=3)
        Qt = q_exponent(reduced.preimage(a.gens), reduced, e_max=3)
        assert Q.q <= 2 * Qt.q


def test_closure_elements_reach_limit_ideal():
    # every closure element has some e <= e_max with y**(p^e) in the limit
    # ideal of the parameter powers p^e
    TW = builtin_ring("TWOPLANES")
    batch = sample_parameter_ideals(TW, SurveyConfig(sample_count=6, seed=5, lengths=(2,)))
    for seq in batch.sequences:
        a = TW.preimage(seq.effective())
        res = frobenius_closure(a, TW, e_max=4)
        assert res.stabilized
        for y in res.closure.basis():
            found = None
            for e in range(5):
                q = TW.p**e
                lim, _ = limit_ideal(seq.with_exponents((q,) * seq.length))
                if ideal_member(y.frobenius(e), lim):
                    found = e
                    break
            assert found is not None, str(y)


def test_fermat3_closure_golden():
    F = builtin_ring("FERMAT3")
    rg = F.ring
    a = F.preimage([rg.var("y"), rg.var("z")])
    res = frobenius_closure(a, F, e_max=4)
    assert res.stabilized and res.e_star == 1
    assert [str(g) for g in res.closure.basis()] == ["x^2", "y", "z"]
    Q = q_exponent(a, F, e_max=4, closure=res.closure)
    assert (Q.e, Q.q) == (1, 5)
