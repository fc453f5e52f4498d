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

The preimage always sits inside the root, and they agree exactly when every
root generator certifies.  Each Frobenius step of the preimage tests that
once, which avoids the module computation entirely on regular rings.  A
step depends on its ideal alone, so inside one
:func:`~fclosure.ideals.memo_scope` call each step is computed once per
distinct reduced basis: the closure chains of a survey meet the same
stages, and request each of them again.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

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
from .polyring import Polynomial, frobenius_decompose


@dataclass(frozen=True)
class FrobeniusExponent:
    """A power q = p**e of the characteristic."""

    e: int
    q: int

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
# since r**(p**e) = (r**p)**(p**(e-1)).  A single step is a submodule
# elimination over S: decompose S as a free module over its subring of p-th
# powers with basis x**alpha, alpha in [0,p)^n; then I becomes the submodule
# spanned by the digit splits of x**alpha * g, and {r : r**p in I} is its
# intersection with the coordinate corresponding to alpha = 0.


def _vec_key(order, comp, exps):
    # component 0 is eliminated last: all other components dominate it
    return (1 if comp else 0, comp) + tuple(order.key(exps))


def _vec_lt(v, order):
    return max(v, key=lambda t: _vec_key(order, t[0], t[1]))


def _vec_monic(v, p, order):
    comp, exps = _vec_lt(v, order)
    c = v[(comp, exps)]
    if c == 1:
        return v
    inv = pow(c, p - 2, p)
    return {t: (inv * c2) % p for t, c2 in v.items()}


def _vec_reduce(v, basis, ring):
    """Fully reduce a module element against basis vectors (all monic)."""
    if not v:
        return v
    p, order = ring.p, ring.order
    work = dict(v)
    out = {}
    heap = [(tuple(-x for x in _vec_key(order, c, e)), c, e) for (c, e) in work]
    heapq.heapify(heap)
    max_deg = ring.config.max_poly_degree
    while heap:
        _, comp, e = heapq.heappop(heap)
        c = work.get((comp, e))
        if not c:
            continue
        hit = None
        for lt, w in basis:
            if lt[0] == comp and all(a >= b for a, b in zip(e, lt[1])):
                hit = (lt, w)
                break
        if hit is None:
            del work[(comp, e)]
            out[(comp, e)] = c
            continue
        (lcomp, lexps), w = hit
        shift = tuple(a - b for a, b in zip(e, lexps))
        for (wc, we), coef in w.items():
            ee = tuple(a + b for a, b in zip(shift, we))
            t = (wc, ee)
            s = (work.get(t, 0) - c * coef) % p
            if s:
                if t not in work:
                    if sum(ee) > max_deg:
                        raise BudgetExceededError(
                            f"module reduction exceeded the degree budget {max_deg}",
                            kind="degree",
                        )
                    heapq.heappush(heap, (tuple(-x for x in _vec_key(order, wc, ee)), wc, ee))
                work[t] = s
            else:
                work.pop(t, None)
    return out


def _module_intersection_component(vectors, ring):
    """Groebner computation of N ∩ (S * e_0) for the submodule N spanned by
    ``vectors`` of a free module, under a position-over-term order that
    eliminates every component except 0.

    Returns the polynomials r with r*e_0 in N.  The coprime-leading-term
    shortcut is unsound for modules, so only the chain criterion is used.
    """
    p = ring.p
    order = ring.order
    config = ring.config
    G = []
    lts = []
    pending = set()
    heap = []

    def push_pairs(j):
        cj, ej = lts[j]
        for i in range(j):
            ci, ei = lts[i]
            if ci != cj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            pending.add((i, j))
            heapq.heappush(heap, (_vec_key(order, ci, lcm), i, j, ci, lcm))

    for v in sorted(
        (v for v in vectors if v),
        key=lambda v: _vec_key(order, *_vec_lt(v, order)),
        reverse=True,
    ):
        w = _vec_reduce(v, G, ring) if G else dict(v)
        if not w:
            continue
        w = _vec_monic(w, p, order)
        G.append((_vec_lt(w, order), w))
        lts.append(G[-1][0])
        push_pairs(len(G) - 1)

    processed = 0
    while heap:
        _, i, j, comp, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > config.max_pairs:
            raise BudgetExceededError(
                f"module pair budget {config.max_pairs} exceeded", kind="pairs"
            )
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            ck, ek = lts[k]
            if ck == comp and all(a >= b for a, b in zip(lcm, ek)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        (ci, ei), u = G[i]
        (cj, ej), w = G[j]
        si = tuple(a - b for a, b in zip(lcm, ei))
        sj = tuple(a - b for a, b in zip(lcm, ej))
        spair = {}
        for (wc, we), coef in u.items():
            t = (wc, tuple(a + b for a, b in zip(si, we)))
            spair[t] = (spair.get(t, 0) + coef) % p
        for (wc, we), coef in w.items():
            t = (wc, tuple(a + b for a, b in zip(sj, we)))
            spair[t] = (spair.get(t, 0) - coef) % p
        spair = {t: c for t, c in spair.items() if c}
        h = _vec_reduce(spair, G, ring)
        if not h:
            continue
        if len(G) >= config.max_basis_size:
            raise BudgetExceededError(
                f"module basis budget {config.max_basis_size} exceeded", kind="basis"
            )
        G.append((_vec_lt(h, order), _vec_monic(h, p, order)))
        lts.append(G[-1][0])
        push_pairs(len(G) - 1)

    out = []
    for (comp, _), w in G:
        if comp == 0 and all(c == 0 for (c, _e) in w):
            out.append(Polynomial(ring, {e: coef for (_c, e), coef in w.items()}))
    return out


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
    ``basis``."""
    ring = I.ring
    p = ring.p
    # fast path: if every digit component of the basis certifies, the root
    # and the preimage coincide
    root = frobenius_root(Ideal(ring, basis), 1)
    if all(ideal_member(g.frobenius(1), I) for g in groebner_basis(root)):
        return root
    n = len(ring.variables)
    # the module below starts from p**n vectors per basis element
    limit = ring.config.max_basis_size
    if p**n * len(basis) > limit:
        raise BudgetExceededError(f"module basis budget {limit} exceeded", kind="basis")
    offsets = list(itertools.product(range(p), repeat=n))
    comp_index = {off: i for i, off in enumerate(offsets)}  # (0,...,0) -> 0
    vectors = []
    for g in basis:
        for off in offsets:
            w = g * ring.monomial(off)
            vec = {}
            for exps, c in w._terms.items():
                alpha = tuple(x % p for x in exps)
                base = tuple(x // p for x in exps)
                vec[(comp_index[alpha], base)] = c
            vectors.append(vec)
    gens = _module_intersection_component(vectors, ring)
    return Ideal(ring, gens)


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


@dataclass
class ClosureResult:
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

    closure: Ideal
    e_star: int | None
    certified_lower: bool
    stabilized: bool
    examined_e: int
    chain: list = field(default_factory=list)
    certified_upper: bool = False


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
