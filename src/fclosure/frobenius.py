"""Frobenius powers, Frobenius roots, Frobenius closure in quotient rings,
the HSL number of a homogeneous hypersurface, and the minimal test
exponent Q(a) with (a^F)^[Q] = a^[Q].

Two different "e-th root" operations appear here and must not be confused:

* :func:`frobenius_root` is the smallest ideal K with I contained in K^[q]
  (computed from base-p digit splits of the generators).  It inverts
  ``frobenius_power`` on the polynomial ring.
* :func:`frobenius_preimage` is {r : r**q in I}, the largest ideal whose
  q-th Frobenius power lies inside I.  This is the operation the closure
  chain needs: each generator it returns carries the membership certificate
  g**q in I by construction.

The preimage is taken one Frobenius step r -> r**p at a time, and each step
is an elimination of auxiliary variables, weighted when the ideal is
homogeneous (see the comment above :func:`_preimage_step`).  The preimage
always sits inside the root, and they agree exactly when every root
generator certifies; each step tests that first, which avoids the
elimination entirely on regular rings.  A step depends on its ideal alone,
so inside one :func:`~fclosure.ideals.memo_scope` call each step is
computed once per distinct reduced basis: the closure chains of a survey
meet the same stages, and request each of them again.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    BudgetExceededError,
    InternalError,
    QExponentNotFoundError,
    RingMismatchError,
)
from .ideals import (
    Ideal,
    _finished,
    _reused,
    groebner_basis,
    ideal_contains,
    ideal_equal,
    ideal_member,
    ideal_sum,
    krull_dimension,
    memo_scope,
    normal_form,
)
from .polyring import Polynomial, _unit, frobenius_decompose


class FrobeniusExponent(namedtuple("FrobeniusExponent", "e q")):
    """A power q = p**e of the characteristic."""

    __slots__ = ()

    @staticmethod
    def of(p, e):
        return FrobeniusExponent(e, p**e)


class QuotientRing:
    """R = S/J presented by an ambient polynomial ring and a defining ideal.

    Ideals of R are always handled through their full preimages in S
    (generator lists containing J).  The model is the local ring at the
    irrelevant maximal ideal m = (all variables) of the quotient, so the
    relations are required to have zero constant term.  Budgets are those
    of ``ring``.
    """

    def __init__(self, ring, relations):
        self.ring = ring
        rels = tuple(r for r in relations if not r.is_zero())
        for r in rels:
            if r.ring != ring:
                raise RingMismatchError("relation lies in a different ring")
            if r.coefficient((0,) * len(ring.variables)):
                raise ValueError(f"relation has a nonzero constant term: {r}")
        self.J = Ideal(ring, rels)
        self.dimension = krull_dimension(self.J)

    @property
    def p(self):
        return self.ring.p

    def preimage(self, gens):
        """The ideal of S representing the R-ideal generated by ``gens``."""
        return Ideal(self.ring, tuple(gens) + self.J.gens)

    def zero_ideal(self):
        return self.preimage(())

    def maximal_ideal(self):
        return self.preimage(self.ring.gens())

    def reduce(self, f):
        """Canonical representative of f modulo J."""
        return normal_form(f, self.J)

    def is_regular(self):
        return self.J.is_zero()

    def is_homogeneous_hypersurface(self):
        """True when J = 0 or J = (f) with f homogeneous in the standard
        grading: the rings on which :func:`hsl_number` is computed."""
        basis = self.J.basis()
        return not basis or (len(basis) == 1 and basis[0].is_homogeneous())

    def __repr__(self):
        return f"QuotientRing(F_{self.p}[{', '.join(self.ring.variables)}] / ({self.J}))"


def _check_e(e, ring):
    cap = ring.config.frobenius_e_cap
    if e < 0:
        raise ValueError("Frobenius exponent must be non-negative")
    if e > cap:
        raise BudgetExceededError(
            f"Frobenius exponent {e} exceeds the configured cap {cap}", kind="exponent"
        )


def frobenius_power(I, e):
    """The ideal generated by g**(p**e) for the generators g of I.

    Generator powers suffice: the Frobenius power of an ideal is generated
    by the q-th powers of any generating set.
    """
    _check_e(e, I.ring)
    if e == 0:
        return I
    return Ideal(I.ring, [g.frobenius(e) for g in I.gens])


def frobenius_root(I, e):
    """The smallest ideal K with I contained in frobenius_power(K, e).

    The root of a principal ideal is generated by the base-p**e digit
    components of its generator, and the root of a sum is the sum of roots.
    Requires a prime coefficient field.
    """
    _check_e(e, I.ring)
    if e == 0:
        return I
    comps = []
    for g in I.gens:
        comps.extend(frobenius_decompose(g, e).values())
    return Ideal(I.ring, comps)


# ---------------------------------------------------------------------------
# Frobenius preimage {r : r**(p**e) in I}
#
# One Frobenius step at a time: {r : r**(p**e) in I} = step applied e times,
# since r**(p**e) = (r**p)**(p**(e-1)).  A single step is an elimination
# (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 3): with
# auxiliary variables t, r(x) lies in I(t) + (x_i - t_i**p) iff
# r(t**p) = r(t)**p lies in I(t), so {r : r**p in I} is the intersection of
# that ideal with F_p[x].  When I is homogeneous the big ideal is
# homogeneous for deg x_i = p and deg t_i = 1, and the order compares those
# degrees first: within one degree it still eliminates t, and it keeps the
# Buchberger run degree by degree.  The aux block is ordered by grevlex,
# weighted or not, so on a grevlex ring the copies g(t) of the reduced
# basis of I are a Groebner basis of the polynomials in t alone, and
# Buchberger forms no pair among them (a settled run, as in an
# intersection).  On a lex ring they need not be one, so every pair is
# formed.


def _preimage_step(I):
    """{r : r**p in I} for an ideal of the polynomial ring, as an ideal
    with its reduced basis set.  It depends on I alone, so inside a
    :func:`~fclosure.ideals.memo_scope` call it is memoized on the reduced
    basis of I: ideals with different generators and one basis share it."""
    ring = I.ring
    basis = groebner_basis(I)
    if not basis:
        return I
    return _reused(
        "preimage",
        ring,
        (_finished(ring, basis),),
        lambda: _finished(ring, groebner_basis(_computed_step(I, basis))),
    )


def _computed_step(I, basis):
    """{r : r**p in I} for an ideal I with the nonempty reduced basis
    ``basis``, as an ideal with its reduced basis set: the root when every
    root generator certifies, else the elimination of the comment above.
    On a grevlex ring the copies g(t) of ``basis`` lead the big ideal as
    one settled run, so none of their S-pairs is formed."""
    ring = I.ring
    p = ring.p
    # fast path: if every digit component of the basis certifies, the root
    # and the preimage coincide
    root = frobenius_root(Ideal(ring, basis), 1)
    if all(ideal_member(g.frobenius(1), I) for g in groebner_basis(root)):
        return root
    n = len(ring.variables)
    homogeneous = all(g.is_homogeneous() for g in basis)
    big = ring.extended(n, p if homogeneous else None)
    # g(t) for g in the basis, then x_i - t_i**p
    gens = [Polynomial(big, {(0,) * n + e: c for e, c in g._terms.items()}) for g in basis]
    for i in range(n):
        gens.append(big.poly({_unit(2 * n, i, 1): 1, _unit(2 * n, n + i, p): -1}))
    big_ideal = Ideal(big, gens)
    if ring.order.kind == "grevlex":
        # on the t-block the big order is the ring's own, so the copies
        # g(t) are a Groebner basis there
        big_ideal._settled = (len(basis),)
    # the weight may order the projected basis otherwise than the ring does
    projected = [ring.project(g) for g in groebner_basis(big_ideal)]
    projected.sort(key=lambda g: ring.order.key(g.leading_monomial()), reverse=True)
    return _finished(ring, tuple(projected))


def frobenius_preimage(I, e):
    """The largest ideal K with frobenius_power(K, e) contained in I,
    i.e. {r : r**(p**e) in I}.  Every generator of the result satisfies
    that membership by construction."""
    _check_e(e, I.ring)
    if e == 0:
        return I
    current = I
    for _ in range(e):
        current = _preimage_step(current)
    return current


# ---------------------------------------------------------------------------
# closure chain


class ClosureResult(
    namedtuple(
        "ClosureResult",
        "closure e_star certified_lower stabilized examined_e chain certified_upper",
    )
):
    """Outcome of a Frobenius-closure chain computation.

    ``closure`` is the last chain value (a preimage ideal containing J).
    ``e_star`` is the first index from which the chain stays at that value;
    ``None`` when the window closed without the required run of equalities,
    in which case ``stabilized`` is False and the value is only a lower
    bound stage.  ``certified_lower`` records that every returned generator
    g satisfies g**(p**e) in a^[p**e] + J for the examined exponents, which
    holds by construction of the chain.  ``certified_upper`` records that
    nothing joins the closure beyond the examined window either: the chain
    stopped at the HSL number (see :func:`frobenius_closure`).  Without it
    the reverse containment rests on the lookahead window and is heuristic.
    """

    __slots__ = ()

    def __new__(
        cls, closure, e_star, certified_lower, stabilized, examined_e, chain=None,
        certified_upper=False,
    ):
        chain = [] if chain is None else chain
        return super().__new__(
            cls, closure, e_star, certified_lower, stabilized, examined_e, chain, certified_upper
        )


def _check_e_max(e_max):
    if e_max < 0:
        raise ValueError(f"the largest exponent e_max must be non-negative, not {e_max}")


@memo_scope
def hsl_number(R, e_max):
    """The HSL number eta of H^d_m(R) for R = S/(f) with f homogeneous:
    the least e with F^e killing every Frobenius-nilpotent element.

    Katzman's chain (Parameter-test-ideals of Cohen-Macaulay rings,
    Compositio 2008): B_0 = (1), B_{e+1} = (f^(p-1) B_e)^[1/p] + (f), a
    descending chain whose first repeat B_e = B_{e+1} is at e = eta.  Each
    B_e is kept as its reduced basis, so the products stay small.  Returns
    0 when J = 0, and ``None`` when R is no such hypersurface or the chain
    has not settled by ``e_max``.  Raises ``ValueError`` unless
    ``e_max >= 0``.
    """
    _check_e_max(e_max)
    if not R.is_homogeneous_hypersurface():
        return None
    if R.is_regular():
        return 0
    ring = R.ring
    u = R.J.basis()[0] ** (R.p - 1)
    B = [ring.one]
    for e in range(e_max + 1):
        root = frobenius_root(Ideal(ring, [u * g for g in B]), 1)
        settled = ideal_sum(root, R.J).basis()
        if settled == B:
            return e
        B = settled
    return None


def _parameter_hsl_number(a, R, e_max):
    """hsl_number(R, e_max) when the Katzman-Sharp certificate applies to
    ``a`` (see :func:`frobenius_closure`), else ``None``; the ring is
    tested first, since that costs no Groebner basis."""
    if not R.is_homogeneous_hypersurface():
        return None
    outside = [g for g in a.gens if not R.reduce(g).is_zero()]
    if len(outside) != R.dimension or not all(g.is_homogeneous() for g in outside):
        return None
    if krull_dimension(ideal_sum(a, R.J)) != 0:
        return None
    return hsl_number(R, e_max)


@memo_scope
def frobenius_closure(a, R, e_max=5, lookahead=2):
    """Ascending chain F_e = {r : r**(p**e) in a^[p**e] + J}.

    The Katzman-Sharp certificate applies when R is a homogeneous
    hypersurface (so Cohen-Macaulay), the generators of a outside J are
    dim R homogeneous polynomials, and a + J is primary to m: a is then
    generated by a homogeneous full system of parameters x, and the
    engine's global computation is the local one at m.  There r is in a^F
    iff the class of r/x in H^d_m(R) is Frobenius-nilpotent, iff
    r**(p**eta) in a^[p**eta] + J, with eta the HSL number (J. Algebra
    2006).  So when eta <= e_max the chain stops at e = eta: a^F = F_eta,
    Q(a) <= p**eta, and the result is ``certified_upper``.  Otherwise the
    chain stops after ``lookahead`` consecutive equal values or at
    ``e_max``.  Raises ``ValueError`` unless ``e_max >= 0`` and
    ``lookahead >= 1``."""
    _check_e_max(e_max)
    if lookahead < 1:
        raise ValueError(f"the closure lookahead must be at least 1, not {lookahead}")
    eta = _parameter_hsl_number(a, R, e_max)
    base = ideal_sum(a, R.J)
    chain = []
    run = 0
    e_star = None
    for e in range(e_max + 1):
        stage = ideal_sum(frobenius_power(base, e), R.J)
        F_e = frobenius_preimage(stage, e)
        if chain:
            if not ideal_contains(F_e, chain[-1]):
                raise InternalError("closure chain failed to ascend")
            if ideal_equal(F_e, chain[-1]):
                run += 1
                if e_star is None:
                    e_star = e - 1
            else:
                run = 0
                e_star = None
        chain.append(F_e)
        if e == eta:
            e_star = e if e_star is None else e_star
            return ClosureResult(F_e, e_star, True, True, e, chain, certified_upper=True)
        if eta is None and run >= lookahead:
            return ClosureResult(F_e, e_star, True, True, e, chain)
    return ClosureResult(chain[-1], e_star, True, False, e_max, chain)


@memo_scope
def q_exponent(a, R, e_max=5, closure=None):
    """The least Q = p**e with (a^F)^[Q] + J = a^[Q] + J.

    Scanning upward from e = 0 gives minimality directly; once the powers
    agree at some e they agree at every larger one, because taking p-th
    powers preserves the equality modulo J.  Raises ``ValueError`` unless
    ``e_max >= 0``.
    """
    _check_e_max(e_max)
    if closure is None:
        result = frobenius_closure(a, R, e_max=e_max)
        if not result.stabilized:
            raise QExponentNotFoundError(
                f"closure chain did not stabilize within e <= {e_max}", e_max=e_max
            )
        closure = result.closure
    base = ideal_sum(a, R.J)
    for e in range(e_max + 1):
        lhs = ideal_sum(frobenius_power(closure, e), R.J)
        rhs = ideal_sum(frobenius_power(base, e), R.J)
        if ideal_equal(lhs, rhs):
            return FrobeniusExponent.of(R.p, e)
    raise QExponentNotFoundError(
        f"no exponent e <= {e_max} equalizes the Frobenius powers", e_max=e_max
    )
