"""Parameter tests, d-sequences, unmixed parts, limit ideals, identity suite."""

import itertools

import pytest

from fclosure.config import EngineConfig
from fclosure.errors import BudgetExceededError, ColonByZeroWarning, RingMismatchError
from fclosure.frobenius import QuotientRing
from fclosure.ideals import Ideal, colon, ideal_contains, ideal_equal
from fclosure.polyring import PolyRing
from fclosure.sequences import (
    SequenceSpec,
    is_d_sequence,
    is_filter_regular,
    is_subsystem_of_parameters,
    is_system_of_parameters,
    is_usd_bounded,
    limit_ideal,
    limit_ideal_closed_form,
    limit_ideal_subset_decomposition,
    unmixed_part,
    verify_identity_suite,
)
from fclosure.workbench import builtin_ring


@pytest.fixture(scope="module")
def TW():
    return builtin_ring("TWOPLANES")


@pytest.fixture(scope="module")
def REG():
    return builtin_ring("REG", p=5)


@pytest.fixture(scope="module")
def XY():
    ring = PolyRing(5, ["x", "y"])
    return QuotientRing(ring, [ring.parse("x*y")])


def twoplanes_sop(TW):
    rg = TW.ring
    return SequenceSpec(TW, [rg.parse("x + z"), rg.parse("y + w")])


def test_sequence_validation(TW):
    rg = TW.ring
    with pytest.raises(ValueError, match="zero in the quotient"):
        SequenceSpec(TW, [rg.parse("x*z")])
    with pytest.raises(ValueError, match="positive"):
        SequenceSpec(TW, [rg.var("x")], [0])
    with pytest.raises(ValueError):
        SequenceSpec(TW, [])
    with pytest.raises(RingMismatchError, match="different ring"):
        SequenceSpec(TW, [PolyRing(5, ["x"]).var("x")])


def test_with_exponents_shares_the_checked_elements(TW, monkeypatch):
    # a derived sequence checks only its exponent vector: the elements are
    # the parent's objects, not reduced modulo J again
    sop = twoplanes_sop(TW)
    monkeypatch.setattr(QuotientRing, "reduce", lambda R, f: pytest.fail("reduced again"))
    powered = sop.with_exponents((2, 3))
    assert powered.exponents == (2, 3) and sop.exponents == (1, 1)
    assert all(a is b for a, b in zip(powered.elements, sop.elements))
    assert powered.effective() == tuple(f**n for f, n in zip(sop.elements, (2, 3)))
    for bad in ((2,), (1, 1, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="length|positive"):
            sop.with_exponents(bad)


def test_sop_examples(TW, REG):
    assert is_system_of_parameters(
        SequenceSpec(REG, list(REG.ring.gens()))
    )
    assert is_system_of_parameters(twoplanes_sop(TW))
    bad = SequenceSpec(TW, [TW.ring.var("x"), TW.ring.var("y")])
    assert not is_system_of_parameters(bad)
    assert not is_subsystem_of_parameters(bad)
    assert is_subsystem_of_parameters(SequenceSpec(TW, [TW.ring.parse("x + z")]))
    assert not is_subsystem_of_parameters(SequenceSpec(TW, [TW.ring.var("x")]))
    # a part of a system of parameters is no system, and a longer sequence
    # than dim R = 2 is neither
    assert not is_system_of_parameters(SequenceSpec(TW, [TW.ring.parse("x + z")]))
    longer = SequenceSpec(TW, [TW.ring.parse(t) for t in ("x + z", "y + w", "x")])
    assert not is_system_of_parameters(longer)
    assert not is_subsystem_of_parameters(longer)


def test_d_sequence_examples(TW, REG, XY):
    ok, violation = is_d_sequence(SequenceSpec(REG, list(REG.ring.gens())))
    assert ok and violation is None
    seq = SequenceSpec(XY, [XY.ring.var("x"), XY.ring.var("y")])
    ok, violation = is_d_sequence(seq)
    assert not ok and violation == (0, 2)
    # the defining colon values behind the violation
    lhs = colon(XY.J, Ideal(XY.ring, [XY.ring.parse("x*y")]))
    rhs = colon(XY.J, Ideal(XY.ring, [XY.ring.var("y")]))
    assert lhs.is_unit() and str(rhs) == "x"
    # single element: d-sequence iff (0 : x^2) = (0 : x)
    NIL = builtin_ring("NILLINE")
    ok, violation = is_d_sequence(SequenceSpec(NIL, [NIL.ring.var("x")]))
    assert not ok and violation == (0, 1)
    ok, _ = is_d_sequence(SequenceSpec(NIL, [NIL.ring.var("y")]))
    assert ok


def test_usd_bounded(TW, REG, XY):
    assert is_usd_bounded(SequenceSpec(REG, list(REG.ring.gens())), 2).passed
    verdict = is_usd_bounded(SequenceSpec(XY, [XY.ring.var("x"), XY.ring.var("y")]), 1)
    # the first witness: identity exponents and order, (0 : xy) != (0 : y)
    assert not verdict.passed
    assert verdict.witness == {"exponents": (1, 1), "permutation": (0, 1), "pair": (0, 2)}
    assert is_usd_bounded(twoplanes_sop(TW), 3).passed


def test_box_checks_reject_an_empty_box(TW):
    # n_max < 1 leaves no exponent vector, so a pass would be vacuous
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max"):
            is_usd_bounded(twoplanes_sop(TW), n_max)
        with pytest.raises(ValueError, match="n_max"):
            verify_identity_suite(twoplanes_sop(TW), n_max)


def test_usd_verdict_is_permutation_invariant(TW):
    rg = TW.ring
    fwd = SequenceSpec(TW, [rg.parse("x + z"), rg.parse("y + w")])
    rev = SequenceSpec(TW, [rg.parse("y + w"), rg.parse("x + z")])
    assert is_usd_bounded(fwd, 2).passed == is_usd_bounded(rev, 2).passed


def test_usd_length_cap():
    from fclosure.config import EngineConfig

    capped = builtin_ring("REG", p=5, config=EngineConfig(usd_length_cap=2))
    seq = SequenceSpec(capped, list(capped.ring.gens()))
    with pytest.raises(BudgetExceededError):
        is_usd_bounded(seq, 2)


def test_filter_regular_examples(TW, REG):
    assert is_filter_regular(SequenceSpec(REG, list(REG.ring.gens())))
    assert not is_filter_regular(SequenceSpec(TW, [TW.ring.var("x")]))
    assert is_filter_regular(twoplanes_sop(TW))


def test_unmixed_part_examples(TW, REG):
    # empty subset in a ring where the full sequence is a nonzerodivisor system
    seq = SequenceSpec(REG, list(REG.ring.gens()))
    out = unmixed_part(seq, ())
    assert ideal_equal(out, REG.J)
    # regular sequences: unmixed part equals the base ideal
    for subset in ((1,), (1, 2), (2, 3)):
        assert ideal_equal(unmixed_part(seq, subset), seq.partial_ideal(subset))
    # full subset warns via the colon-by-zero convention
    with pytest.warns(ColonByZeroWarning):
        out = unmixed_part(seq, (1, 2, 3))
    assert out.is_unit()
    # quotient-ring value pinned by the colon computation it is defined as
    sop = twoplanes_sop(TW).with_exponents((2, 1))
    direct = colon(
        TW.preimage([TW.ring.parse("(x + z)^2")]),
        Ideal(TW.ring, [TW.ring.parse("y + w")]),
    )
    assert ideal_equal(unmixed_part(sop, (1,)), direct)


def test_limit_ideal_examples(TW, REG):
    seq = SequenceSpec(REG, list(REG.ring.gens()))
    out, j_star = limit_ideal(seq, ())
    assert ideal_equal(out, REG.J) and j_star == 0
    # single regular element of a domain: limit equals the base ideal
    one = SequenceSpec(REG, [REG.ring.var("x")], [3])
    out, _ = limit_ideal(one)
    assert ideal_equal(out, REG.preimage([REG.ring.parse("x^3")]))
    # cross-check against the closed form on a full parameter system
    sop = twoplanes_sop(TW).with_exponents((2, 3))
    lim, _ = limit_ideal(sop)
    assert ideal_equal(lim, limit_ideal_closed_form(sop))


def test_limit_ideal_chain_properties(TW):
    sop = twoplanes_sop(TW).with_exponents((1, 2))
    lim, j_star = limit_ideal(sop)
    assert j_star >= 0
    assert ideal_contains(lim, sop.partial_ideal((1, 2)))
    assert ideal_contains(unmixed_part(sop, (1,)), sop.partial_ideal((1,)))


def test_closed_form_l1_with_torsion():
    ring = PolyRing(2, ["x", "y"])
    XY2 = QuotientRing(ring, [ring.parse("x*y")])
    seq = SequenceSpec(XY2, [ring.var("x")], [2])
    out = limit_ideal_closed_form(seq)
    assert sorted(str(g) for g in out.basis()) == ["x^2", "y"]
    lim, _ = limit_ideal(seq)
    assert ideal_equal(lim, out)


def test_subset_decomposition_matches_limit(TW):
    for exps in ((1, 1), (1, 2), (3, 2)):
        sop = twoplanes_sop(TW).with_exponents(exps)
        lim, _ = limit_ideal(sop)
        assert ideal_equal(lim, limit_ideal_subset_decomposition(sop))
    with pytest.raises(ValueError):
        limit_ideal_subset_decomposition(
            SequenceSpec(TW, [TW.ring.parse("x + z")])
        )


def test_suite_regular_all_pass(REG):
    seq = SequenceSpec(REG, list(REG.ring.gens()))
    report = verify_identity_suite(seq, 2)
    assert report.hypothesis_verified
    assert report.all_passed
    assert report.first_failure() is None


def test_suite_negative_control(XY):
    seq = SequenceSpec(XY, [XY.ring.var("x"), XY.ring.var("y")])
    report = verify_identity_suite(seq, 1)
    assert not report.hypothesis_verified
    assert not report.all_passed
    failure = report.first_failure()
    assert failure.identity == "colon_unmixed"
    assert failure.params["n"] == (1, 1)
    assert failure.detail


def test_suite_twoplanes_box(TW):
    report = verify_identity_suite(twoplanes_sop(TW), 2)
    assert report.hypothesis_verified and report.all_passed


def test_suite_records_unstabilized_limit_chains():
    # with a chain cap of 0 no limit-ideal chain can stabilize: each limit
    # identity is recorded as failed with the cause, every other check passes
    capped = builtin_ring("TWOPLANES", config=EngineConfig(limit_chain_cap=0))
    report = verify_identity_suite(twoplanes_sop(capped), 2)
    failed = [c for c in report.checks if not c.passed]
    assert len(report.checks) == 64
    assert sorted((c.identity, c.params["n"]) for c in failed) == sorted(
        (name, n)
        for name in ("limit_forms", "limit_product", "limit_decomposition")
        for n in itertools.product((1, 2), repeat=2)
    )
    assert {c.detail for c in failed} == {"limit-ideal chain did not stabilize within 0 steps"}


def test_suite_identity_filter(REG):
    seq = SequenceSpec(REG, list(REG.ring.gens()))
    report = verify_identity_suite(seq, 1, identities=("intersection_prefix",))
    assert report.all_passed
    assert {c.identity for c in report.checks} == {"intersection_prefix"}


def test_suite_report_serializes(TW):
    report = verify_identity_suite(twoplanes_sop(TW), 1)
    data = report.to_dict()
    assert data["all_passed"] is True
    assert data["checks"] and all("identity" in c for c in data["checks"])
