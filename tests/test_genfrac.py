"""Generalized-fraction calculus: certificates, zero tests, the Frobenius
action and torsion exponents."""

import pytest

from fclosure.config import EngineConfig
from fclosure.errors import BudgetExceededError, CertificateError, UnstabilizedError
from fclosure.genfrac import hsl_exponent, is_zero_in_cohomology, make_elem, t_action
from fclosure.ideals import Ideal, colon, groebner_basis
from fclosure.sequences import SequenceSpec
from fclosure.workbench import builtin_ring


@pytest.fixture(scope="module")
def TW():
    return builtin_ring("TWOPLANES")


@pytest.fixture(scope="module")
def REG():
    return builtin_ring("REG", p=5)


def tw_sop(TW):
    rg = TW.ring
    return SequenceSpec(TW, [rg.parse("x + z"), rg.parse("y + w")])


def reg_sop(REG):
    return SequenceSpec(REG, list(REG.ring.gens()))


def test_make_elem_r0_accepts_torsion(TW):
    # r = 0: accepted iff h * x_1 lies in J; fractions degenerate to elements
    sop = tw_sop(TW)
    elem = make_elem(TW.ring.parse("x*z"), sop, 0)
    assert elem.r == 0 and elem.denominators == ()
    assert repr(elem) == "<0>"  # x*z is zero modulo J
    assert is_zero_in_cohomology(elem) is True


def test_make_elem_rejects_without_certificate(REG, TW):
    with pytest.raises(CertificateError):
        make_elem(REG.ring.var("y"), reg_sop(REG), 1)
    with pytest.raises(CertificateError):
        make_elem(TW.ring.var("y"), tw_sop(TW), 0)


def test_make_elem_accepts_colon_witness(TW):
    sop = tw_sop(TW)
    cert = colon(
        TW.preimage([TW.ring.parse("x + z")]), Ideal(TW.ring, [TW.ring.parse("y + w")])
    )
    for h in groebner_basis(cert):
        elem = make_elem(h, sop, 1)
        assert elem.r == 1


def test_make_elem_validates_r(TW):
    sop = tw_sop(TW)
    with pytest.raises(ValueError):
        make_elem(TW.ring.var("x"), sop, 2)
    with pytest.raises(ValueError):
        make_elem(TW.ring.var("x"), sop, -1)


def test_zero_test_partial_sum_numerators(TW):
    # numerators inside the partial denominator sum give the zero class
    sop = tw_sop(TW)
    h = TW.ring.parse("x + z")
    elem = make_elem(h, sop, 1)
    assert is_zero_in_cohomology(elem) is True


def test_zero_test_regular_ring(REG):
    # in a regular ring the complex is exact: every accepted element is zero
    sop = reg_sop(REG)
    x = REG.ring.var("x")
    elem = make_elem(x, sop, 1)  # x in ((x) : y)
    assert is_zero_in_cohomology(elem) is True
    assert hsl_exponent(elem, 3) == 0


def test_zero_test_unequal_denominators(REG):
    # unequal exponents are equalized by scaling the numerator
    sop = reg_sop(REG).with_exponents((2, 1, 1))
    h = REG.ring.parse("x^2*y")
    elem = make_elem(h, sop, 2)
    assert elem.denominators == (2, 1)
    assert is_zero_in_cohomology(elem) is True


def test_t_action_formula_and_composition(TW):
    sop = tw_sop(TW)
    h = TW.ring.parse("x + z")
    elem = make_elem(h, sop, 1)
    assert t_action(elem, 0) is elem
    once = t_action(elem, 1)
    assert once.denominators == (2,)
    assert (repr(elem), repr(once)) == ("<x + z / (x + z)>", "<x^2 + z^2 / ((x + z)^2)>")
    assert once.numerator == TW.reduce(h.frobenius(1))
    assert t_action(once, 1) == t_action(elem, 2)


def test_t_action_keeps_the_exponent_cap(TW):
    # T^9 on TWOPLANES (cap 8) would raise the denominators to 2^9 = 512, a
    # Frobenius power that frobenius_power refuses; so does the T-action,
    # and with it a torsion search whose window passes the cap
    elem = make_elem(TW.ring.var("x"), tw_sop(TW), 1)
    for run in (lambda: t_action(elem, 9), lambda: hsl_exponent(elem, 9)):
        with pytest.raises(BudgetExceededError) as err:
            run()
        assert err.value.kind == "exponent"
        assert str(err.value) == "Frobenius exponent 9 exceeds the configured cap 8"


def test_hsl_zero_element_is_zero(TW):
    sop = tw_sop(TW)
    elem = make_elem(TW.ring.parse("x + z"), sop, 1)
    assert hsl_exponent(elem, 4) == 0


def test_hsl_not_found_for_torsion_free_class(TW):
    # x/(x+z) has x*(y+w) in (x+z)+J but x**q never joins the limit ideal:
    # no torsion inside any window
    sop = tw_sop(TW)
    elem = make_elem(TW.ring.var("x"), sop, 1)
    assert is_zero_in_cohomology(elem) is False
    assert hsl_exponent(elem, 4) is None


def test_zero_test_is_indeterminate_without_a_limit_chain_step():
    # a limit-ideal chain capped at one value cannot show two equal ones:
    # the zero test has no verdict, and the torsion search cannot go on
    TW = builtin_ring("TWOPLANES", config=EngineConfig(limit_chain_cap=0))
    elem = make_elem(TW.ring.parse("x + z"), tw_sop(TW), 1)
    assert is_zero_in_cohomology(elem) is None
    with pytest.raises(UnstabilizedError, match="e=0 was indeterminate"):
        hsl_exponent(elem, 2)


def test_hsl_rejects_an_empty_window(TW):
    # e_max < 0 tries no exponent at all
    elem = make_elem(TW.ring.parse("x + z"), tw_sop(TW), 1)
    with pytest.raises(ValueError, match="e_max"):
        hsl_exponent(elem, -1)


def test_zero_class_stays_zero_under_t_action(TW):
    sop = tw_sop(TW)
    elem = make_elem(TW.ring.parse("x + z"), sop, 1)
    for e in range(3):
        assert is_zero_in_cohomology(t_action(elem, e)) is True
