"""Ideal-level calculus for generalized fraction elements
h / (x_1**n_1, ..., x_r**n_r) built over a full system-of-parameters
context: kernel membership certificates, zero tests in cohomology through
limit-ideal membership, the Frobenius T-action, and per-element torsion
exponents.

Fractions are never materialized as module elements; every question is
translated into ideal membership.  Elements are restricted to numerators
carrying the kernel certificate h in ((x_1**n_1, ..., x_r**n_r) + J : x_{r+1}),
which is what guarantees a well-defined cohomology class.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CertificateError, UnstabilizedError
from .frobenius import _check_e, _check_e_max
from .ideals import Ideal, colon, ideal_member
from .sequences import limit_ideal


class GenFracElem(namedtuple("GenFracElem", "numerator seq r denominators")):
    """Numerator plus denominator exponents over the first r elements of a
    full parameter sequence.  For r = 0 the fraction is just the numerator."""

    __slots__ = ()

    def __repr__(self):
        if self.r == 0:
            return f"<{self.numerator}>"
        dens = ", ".join(
            f"({f})^{n}" if n != 1 else str(f)
            for f, n in zip(self.seq.elements[: self.r], self.denominators)
        )
        return f"<{self.numerator} / ({dens})>"


def _certificate_ideal(seq, r, denominators):
    R = seq.R
    base = R.preimage([seq.power(i, n) for i, n in enumerate(denominators, 1)])
    return colon(base, Ideal(R.ring, [seq.elements[r]]))


def make_elem(h, seq, r):
    """Build the fraction h / (x_1**n_1, ..., x_r**n_r), the n_i being the
    sequence's exponents, after checking the kernel certificate
    h in ((x_1**n_1, ..., x_r**n_r) + J : x_{r+1}); rejected otherwise."""
    if not 0 <= r < seq.length:
        raise ValueError(f"fraction length r={r} must satisfy 0 <= r < {seq.length}")
    denominators = seq.exponents[:r]
    h = seq.R.reduce(h)
    cert = _certificate_ideal(seq, r, denominators)
    if not ideal_member(h, cert):
        raise CertificateError(
            f"kernel certificate failed: {h} is not in the colon ideal ({cert})"
        )
    return GenFracElem(h, seq, r, denominators)


def is_zero_in_cohomology(elem):
    """True iff the fraction lies in the image of the previous complex map,
    i.e. iff the numerator lies in the limit ideal of the denominator
    ideal (after equalizing denominator exponents by scaling the numerator).

    Returns None when the limit-ideal chain did not stabilize.
    """
    R = elem.seq.R
    if elem.r == 0:
        return ideal_member(elem.numerator, R.J)
    n_eq = max(elem.denominators)
    h = elem.numerator
    for i, n in enumerate(elem.denominators, 1):
        if n < n_eq:
            h = h * elem.seq.power(i, n_eq - n)
    equalized = elem.seq.with_exponents((n_eq,) * elem.seq.length)
    try:
        lim, _ = limit_ideal(equalized, range(1, elem.r + 1))
    except UnstabilizedError:
        return None
    return ideal_member(h, lim)


def t_action(elem, e):
    """Apply the Frobenius action T**e: raise the numerator to the p**e-th
    power and scale the denominator exponents by p**e.  The kernel
    certificate is re-verified.  ``e`` may not exceed the ring's
    Frobenius exponent cap."""
    _check_e(e, elem.seq.R.ring)
    if e == 0:
        return elem
    q = elem.seq.R.p**e
    h = elem.seq.R.reduce(elem.numerator.frobenius(e))
    dens = tuple(q * n for n in elem.denominators)
    cert = _certificate_ideal(elem.seq, elem.r, dens)
    if not ideal_member(h, cert):
        raise CertificateError(
            "the Frobenius action left the kernel: the colon relation did not "
            "raise to the Frobenius power (is the sequence an unconditioned "
            "strong d-sequence?)"
        )
    return GenFracElem(h, elem.seq, elem.r, dens)


def hsl_exponent(elem, e_max):
    """The minimal e <= e_max with T**e killing the class of ``elem``;
    None when no torsion shows inside the window.  An indeterminate zero
    test (unstabilized limit chain) raises, since minimality would then be
    undecidable.  Raises ``ValueError`` unless ``e_max >= 0``, and
    ``BudgetExceededError`` on reaching an e past the Frobenius exponent
    cap."""
    _check_e_max(e_max)
    for e in range(e_max + 1):
        verdict = is_zero_in_cohomology(t_action(elem, e))
        if verdict is None:
            raise UnstabilizedError(
                f"zero test at e={e} was indeterminate; torsion exponent undecidable"
            )
        if verdict:
            return e
    return None
