"""Frobenius powers, roots, preimages, closure chains and test exponents."""

import itertools
import random

import pytest

from fclosure import frobenius
from fclosure.config import EngineConfig
from fclosure.errors import BudgetExceededError, QExponentNotFoundError, RingMismatchError
from fclosure.frobenius import (
    FrobeniusExponent,
    QuotientRing,
    frobenius_closure,
    frobenius_power,
    frobenius_preimage,
    frobenius_root,
    hsl_number,
    q_exponent,
)
from fclosure.ideals import (
    Ideal,
    groebner_basis,
    ideal_contains,
    ideal_equal,
    ideal_from_text,
    ideal_member,
    ideal_sum,
    krull_dimension,
    memo_scope,
)
from fclosure.polyring import PolyRing
from fclosure.sequences import limit_ideal
from fclosure.workbench import SurveyConfig, builtin_ring, sample_parameter_ideals, survey_uniform_q

from helpers import closure_chain_oracle, kernel_preimage_oracle, monomials_up_to, random_ideal


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
    with pytest.raises(BudgetExceededError) as err:
        frobenius_power(ideal_from_text("x", ring), 9)
    assert err.value.kind == "exponent"
    assert str(err.value) == "Frobenius exponent 9 exceeds the configured cap 8"


def test_degree_budget_bounds_frobenius_powers():
    # (y^2 + x) on NILLINE is inhomogeneous, so its chain runs the lookahead
    # window; its stage at e = 1 already holds y^4 + x^2, past a budget of 2
    R = builtin_ring("NILLINE", config=EngineConfig(max_poly_degree=2))
    f = R.ring.parse("y^2 + x")
    with pytest.raises(BudgetExceededError) as err:
        frobenius_closure(R.preimage([f]), R, e_max=3)
    assert err.value.kind == "degree"
    assert str(err.value) == "Frobenius power p**1 exceeded the degree budget 2"
    # a power of degree exactly the budget is built
    wide = builtin_ring("NILLINE", config=EngineConfig(max_poly_degree=16))
    assert wide.ring.parse("y^2 + x").frobenius(3).total_degree() == 16
    res = frobenius_closure(wide.preimage([wide.ring.parse("y^2 + x")]), wide, e_max=3)
    assert res.stabilized


def test_module_engine_checks_its_basis_budget_before_entering(monkeypatch):
    # the preimage step of (x, y) on FERMAT3 at p = 5 builds 5^3 vectors per
    # basis element, past a basis budget of 100: it must raise before the
    # module engine enters any of them
    R = builtin_ring("FERMAT3", config=EngineConfig(max_basis_size=100))

    def entered(vectors, ring):
        pytest.fail(f"the module engine was entered with {len(vectors)} vectors")

    monkeypatch.setattr(frobenius, "_module_intersection_component", entered)
    with pytest.raises(BudgetExceededError) as err:
        frobenius_closure(R.preimage(R.ring.gens()[:2]), R, e_max=2)
    assert err.value.kind == "basis"
    assert str(err.value) == "module basis budget 100 exceeded"


def test_frobenius_root_examples():
    R2 = PolyRing(2, ["x", "y"])
    assert str(frobenius_root(ideal_from_text("x^2*y^3", R2), 1)) == "x*y"
    out = frobenius_root(ideal_from_text("x^3 + y^3", R2), 1)
    assert ideal_equal(out, ideal_from_text("x; y", R2))
    out = frobenius_root(ideal_from_text("x^2; y^2", R2), 1)
    assert ideal_equal(out, ideal_from_text("x; y", R2))
    # the root at e = 0 is the ideal itself; a negative e has none
    I = ideal_from_text("x^3 + y^3", R2)
    assert frobenius_root(I, 0) is I
    with pytest.raises(ValueError, match="non-negative"):
        frobenius_root(I, -1)


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


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_homogeneous_preimage_matches_kernel_oracle(order):
    # homogeneous ideals whose preimage steps leave the root fast path, on
    # a grevlex and a lex ring
    for p in (2, 3):
        ring = PolyRing(p, ["x", "y", "z"], order=order)
        for text in ("x^3 + y^3 + z^3; x^4", "x*y + z^2; y^3", "x^2*y + y*z^2; x^3 + z^3; y^4"):
            I = ideal_from_text(text, ring)
            for e in (1, 2):
                main = frobenius_preimage(I, e)
                bound = max([g.total_degree() for g in main.basis()] + [2]) + 1
                assert ideal_equal(main, kernel_preimage_oracle(I, e, bound))


def test_preimage_is_inside_root():
    rng = random.Random(78)
    ring = PolyRing(2, ["x", "y"])
    for _ in range(10):
        I = random_ideal(rng, ring, max_gens=2, max_degree=3)
        assert ideal_contains(frobenius_root(I, 1), frobenius_preimage(I, 1))


def _counted_steps(monkeypatch):
    """A list that records the ideal of each preimage step computed from
    now on, memo hits left out."""
    steps = []
    computed = frobenius._computed_step
    monkeypatch.setattr(
        frobenius, "_computed_step", lambda I, basis: steps.append(I) or computed(I, basis)
    )
    return steps


def test_preimage_step_is_computed_once_per_reduced_basis(monkeypatch):
    # one ideal four ways: as given, reversed, with a generator repeated and
    # as its own reduced basis; inside one scope they share one step
    ring = PolyRing(3, "xyz")
    gens = [ring.parse(t) for t in ("x^2*y + z^3", "x*y^2 - z", "y^4")]

    @memo_scope
    def four_ways():
        I = Ideal(ring, gens)
        assert set(groebner_basis(I)) != set(gens)
        reduced = Ideal(ring, groebner_basis(I))
        forms = (I, Ideal(ring, gens[::-1]), Ideal(ring, gens + gens[:1]), reduced)
        return [frobenius_preimage(K, 1) for K in forms]

    steps = _counted_steps(monkeypatch)
    results = four_ways()
    assert len(steps) == 1
    assert all(result is results[0] for result in results)
    # outside a scope every call computes
    steps.clear()
    for _ in range(2):
        assert frobenius_preimage(Ideal(ring, gens), 1).basis() == results[0].basis()
    assert len(steps) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_memoized_preimage_matches_unscoped_and_the_kernel_oracle(p):
    # the e = 2 preimage takes its first step from the memo of the e = 1 call
    rng = random.Random(90 + p)
    ring = PolyRing(p, "xyz")
    inputs = [
        random_ideal(rng, ring, max_gens=2, max_degree=2, max_terms=3, homogeneous=homogeneous)
        for homogeneous in (True, False)
        for _ in range(3)
    ]
    assert not any(I.is_unit() for I in inputs)

    @memo_scope
    def memoized():
        return [[frobenius_preimage(I, e) for e in (1, 2)] for I in inputs]

    for I, found in zip(inputs, memoized()):
        for e, main in enumerate(found, start=1):
            assert main.basis() == frobenius_preimage(I, e).basis()
            bound = max([g.total_degree() for g in main.basis()] + [2]) + 1
            assert ideal_equal(main, kernel_preimage_oracle(I, e, bound))


# preimage steps computed by a survey at p = 2 with
# SurveyConfig(sample_count=20, seed=3, lengths=..., e_max=3), measured when
# preimage steps came to be memoized on the reduced basis of their ideal
# (every requested step, 40 and 20, before; 28 and 2 when keyed on the
# generator sets)
PREIMAGE_STEP_RUNS = {"FERMAT3": 18, "NILLINE": 1}


@pytest.mark.parametrize("name, lengths", [("FERMAT3", (1, 2)), ("NILLINE", (1,))])
def test_survey_preimage_steps_stay_within_the_gate(monkeypatch, name, lengths):
    # a deterministic work counter, not a time
    R = builtin_ring(name, p=2)
    steps = _counted_steps(monkeypatch)
    survey_uniform_q(R, SurveyConfig(sample_count=20, seed=3, lengths=lengths, e_max=3))
    assert 0 < len(steps) <= PREIMAGE_STEP_RUNS[name]


def test_quotient_ring_validation():
    ring = PolyRing(5, ["x", "y"])
    with pytest.raises(RingMismatchError, match="relation lies in a different ring"):
        QuotientRing(ring, [PolyRing(7, ["x", "y"]).var("x")])
    with pytest.raises(ValueError, match=r"relation has a nonzero constant term: x \+ 1"):
        QuotientRing(ring, [ring.var("x"), ring.parse("x + 1")])


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
    # (xy) in NILLINE is not primary to m, so no certificate applies; its
    # chain grows at e = 1 and settles only after it, so at e_max = 1 it
    # stops at F_1 without a verdict
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.parse("x*y")])
    res = frobenius_closure(a, NIL, e_max=1)
    assert not res.stabilized and res.e_star is None and not res.certified_upper
    assert res.examined_e == 1 and len(res.chain) == 2
    assert res.closure is res.chain[-1]
    assert [str(g) for g in res.closure.basis()] == ["x"]
    # the sop (y) is certified at the HSL number 1 = e_max
    b = NIL.preimage([NIL.ring.var("y")])
    res = frobenius_closure(b, NIL, e_max=1)
    assert res.stabilized and res.certified_upper and res.e_star == 1
    assert res.examined_e == 1 and len(res.chain) == 2
    assert [str(g) for g in res.closure.basis()] == ["x", "y"]


def test_q_exponent_not_found():
    NIL = builtin_ring("NILLINE")
    a = NIL.preimage([NIL.ring.var("y")])
    # the closure chain of (xy), which no certificate covers, does not
    # stabilize within the window
    with pytest.raises(QExponentNotFoundError, match="did not stabilize") as info:
        q_exponent(NIL.preimage([NIL.ring.parse("x*y")]), NIL, e_max=1)
    assert info.value.e_max == 1
    # the certified chain of (y) needs no more than e = 1
    assert q_exponent(a, NIL, e_max=1) == FrobeniusExponent(1, 2)
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


@pytest.mark.parametrize(
    "name, p",
    [("NILLINE", None), ("TWOPLANES", None), ("FERMAT3", 2), ("FERMAT3", 5), ("REG", 2), ("REG", 5)],
)
def test_q_exponent_is_read_off_the_closure_chain(name, p):
    # the chain ascends inside a^F, so (a^F)^[p^e] lies in a^[p^e] + J
    # exactly when F_e = a^F: the scan finds Q = p^(e*), which the survey
    # records without running it
    R = builtin_ring(name, p=p)
    cfg = SurveyConfig(sample_count=10, seed=0, lengths=(R.dimension,))
    for seq in sample_parameter_ideals(R, cfg).sequences:
        a = R.preimage(seq.effective())
        res = frobenius_closure(a, R, e_max=3)
        assert res.stabilized
        assert q_exponent(a, R, e_max=3, closure=res.closure).q == R.p**res.e_star


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


# ---------------------------------------------------------------------------
# the Katzman-Sharp certificate: a^F = F_eta on a homogeneous full system of
# parameters of a homogeneous hypersurface, with eta the HSL number


@pytest.mark.parametrize(
    "name, p, eta",
    [("FERMAT3", 2, 1), ("FERMAT3", 5, 1), ("FERMAT3", 11, 1), ("NILLINE", 2, 1), ("REG", 5, 0)],
)
def test_hsl_number_of_the_hypersurfaces(name, p, eta):
    R = builtin_ring(name, p=p)
    assert hsl_number(R, 5) == eta
    assert hsl_number(R, eta) == eta
    # the chain of B_e needs e = eta + 1 to see that it settled at eta
    if eta:
        assert hsl_number(R, eta - 1) is None


def test_hsl_number_needs_a_homogeneous_hypersurface():
    assert hsl_number(builtin_ring("TWOPLANES"), 5) is None
    ring = PolyRing(2, ("x", "y"))
    assert hsl_number(QuotientRing(ring, [ring.parse("x^2 + y^3")]), 5) is None
    # J = (x^2, x^3) is the principal ideal (x^2) of NILLINE
    assert hsl_number(QuotientRing(ring, [ring.parse("x^2"), ring.parse("x^3")]), 5) == 1
    with pytest.raises(ValueError, match="e_max"):
        hsl_number(builtin_ring("NILLINE"), -1)


def _linear_sops(R, seed, count):
    """The coordinate systems of parameters of R, and ``count`` sampled
    ones of linear forms."""
    ring = R.ring
    coordinate = [
        R.preimage([ring.var(v) for v in names])
        for names in itertools.combinations(ring.variables, R.dimension)
    ]
    coordinate = [a for a in coordinate if krull_dimension(a) == 0]
    cfg = SurveyConfig(sample_count=count, seed=seed, lengths=(R.dimension,))
    sampled = [R.preimage(seq.effective()) for seq in sample_parameter_ideals(R, cfg).sequences]
    return coordinate, sampled


def _stage(a, R, e):
    return ideal_sum(frobenius_power(ideal_sum(a, R.J), e), R.J)


def _assert_certified(a, R, eta):
    # the chain stops at eta; e* is where it reached F_eta, and Q <= p^eta
    res = frobenius_closure(a, R)
    assert res.stabilized and res.certified_upper and res.certified_lower
    assert res.examined_e == eta and len(res.chain) == eta + 1
    assert res.e_star == min(e for e, F in enumerate(res.chain) if ideal_equal(F, res.closure))
    Q = q_exponent(a, R, closure=res.closure)
    assert Q.q == R.p**res.e_star <= R.p**eta
    return res


@pytest.mark.parametrize("name, p", [("FERMAT3", 2), ("NILLINE", 2)])
def test_certified_closure_is_the_lookahead_verdict(name, p):
    # the lookahead window, recomputed directly: F_e = F_eta for e = eta,
    # eta + 1 and eta + 2
    R = builtin_ring(name, p=p)
    eta = hsl_number(R, 5)
    coordinate, sampled = _linear_sops(R, seed=2, count=4)
    assert len(coordinate) == {"FERMAT3": 3, "NILLINE": 1}[name]
    for a in coordinate + sampled:
        res = _assert_certified(a, R, eta)
        for e in (eta, eta + 1, eta + 2):
            assert ideal_equal(frobenius_preimage(_stage(a, R, e), e), res.closure)


def test_certified_closure_matches_the_kernel_oracle_at_p5():
    # at p = 5 the preimage engine runs out of its module basis budget at
    # e = 2 on (x, y) and on most other sops, so the stages beyond eta are
    # read from the linear-algebra oracle: its part of degree <= 2, plus
    # m^2 inside the closure, decides F_e = F_eta.  The oracle needs 5 s
    # for e = eta + 2 on a sampled sop, so those stop at eta + 1.
    F = builtin_ring("FERMAT3", p=5)
    eta = hsl_number(F, 5)
    coordinate, sampled = _linear_sops(F, seed=2, count=2)
    square = [F.ring.monomial(m) for m in monomials_up_to(3, 2) if sum(m) == 2]
    for a in coordinate + sampled:
        res = _assert_certified(a, F, eta)
        assert all(ideal_member(m, res.closure) for m in square)
        exponents = (eta + 1, eta + 2) if a in coordinate else (eta + 1,)
        for e in exponents:
            assert ideal_equal(kernel_preimage_oracle(_stage(a, F, e), e, 2), res.closure)


def test_partial_sop_closure_matches_the_kernel_oracle():
    # (x) is a partial sop of FERMAT3, so its chain runs the lookahead
    # window through e = 2; every stage is homogeneous, and its preimage
    # steps leave the root fast path
    F = builtin_ring("FERMAT3", p=5)
    a = F.preimage([F.ring.parse("x")])
    res = frobenius_closure(a, F, e_max=2)
    assert res.e_star == 0 and len(res.chain) == 3
    assert str(res.closure) == "y^3 + z^3; x"
    for e, stage in enumerate(res.chain):
        assert ideal_equal(kernel_preimage_oracle(_stage(a, F, e), e, 3), stage)


# four of the six sops that sample_parameter_ideals draws on FERMAT3 at
# p = 2 with SurveyConfig(sample_count=6, seed=3, max_degree=2, lengths=(2,)),
# each with its closure at e_max = 2.  They are inhomogeneous, so each chain
# runs the lookahead window through the preimages at e = 1 and 2; an
# elimination at q = p^e exceeds its pair budget at e = 2 on such sops.  The
# other two sops of that draw take 30 s or more each and are left out.
FERMAT3_P2_SOPS = {
    "x*y + y^2; x*y + x + y": "x*z^2 + y*z^2; z^3; x^2 + x + y; x*y + x + y; y^2 + x + y",
    "x^2 + y*z + z^2 + z; x^2 + x*z + y*z + z": "y^3; y^2*z; x^2 + y*z + z; x*z; z^2",
    "x^2 + x*y + y^2 + z^2 + z; x^2 + x*y + y^2 + z^2 + x + y + z": "y*z^2; z^3; y^2 + z^2 + z; x + y",
    "x^2 + y*z + z^2 + x + y; y*z + z^2 + x": "z^2; x; y",
}


@pytest.mark.parametrize("sop", FERMAT3_P2_SOPS)
def test_inhomogeneous_sops_at_p2_match_the_kernel_oracle(sop):
    # every chain stage against the linear-algebra oracle at the largest
    # degree of its reduced basis
    F = builtin_ring("FERMAT3", p=2)
    a = F.preimage([F.ring.parse(t) for t in sop.split(";")])
    res = frobenius_closure(a, F, e_max=2)
    assert res.e_star == 1 and len(res.chain) == 3
    assert "; ".join(map(str, res.closure.basis())) == FERMAT3_P2_SOPS[sop]
    for e, stage in enumerate(res.chain):
        degree = max(g.total_degree() for g in stage.basis())
        assert ideal_equal(kernel_preimage_oracle(_stage(a, F, e), e, degree), stage)


def test_certificate_needs_a_homogeneous_full_sop_of_a_hypersurface():
    # TWOPLANES is no hypersurface; (y) is a partial sop of FERMAT3; y + x^2
    # is inhomogeneous.  Each runs the lookahead window: it ends lookahead
    # = 2 equal steps after e*
    cases = [
        (builtin_ring("TWOPLANES"), "x + z; y + w"),
        (builtin_ring("FERMAT3", p=2), "y"),
        (builtin_ring("FERMAT3", p=2), "y + x^2; z"),
        (builtin_ring("NILLINE"), "y^2 + x"),
    ]
    for R, text in cases:
        a = R.preimage([R.ring.parse(t) for t in text.split(";")])
        res = frobenius_closure(a, R)
        assert res.stabilized and not res.certified_upper, text
        assert res.examined_e == res.e_star + 2 and len(res.chain) == res.examined_e + 1
    # a window shorter than the HSL chain leaves the lookahead path too
    F = builtin_ring("FERMAT3", p=2)
    res = frobenius_closure(F.preimage([F.ring.var("y"), F.ring.var("z")]), F, e_max=0)
    assert not res.stabilized and not res.certified_upper and res.examined_e == 0
