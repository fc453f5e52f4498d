"""Groebner-basis engine: reduced bases, normal forms, membership, equality,
colon, intersection, saturation, Krull dimension and radical membership.

Everything is deterministic: an ideal keeps its generators in the order it
is given them, Buchberger reduces each on entry against those before it
(dropping any that reduce to zero, and leaving the settled runs of an
intersection or a preimage step as they are), the pair queue uses the
normal strategy (smallest lcm in the ring order), and ties break by input
position.  A reduced basis does not depend on that order.  Budgets come from the ring's
:class:`~fclosure.config.EngineConfig`.

Inside one call of an entry point marked :func:`memo_scope`, reduced bases,
intersections and colons of rings without auxiliary variables are memoized
on the ring and the set of generators, and the Frobenius preimage steps of
:mod:`fclosure.frobenius` on the ring and the reduced basis (all through
:func:`_reused`), so each distinct one is computed once.  The memo keeps
the finished results themselves, a basis as its tuple of polynomials (with
the packed divisors that every ideal with that basis shares) and an
intersection, a colon or a preimage step as its :class:`Ideal`, so a
repeated request shares that ideal's key and packed basis; the memo is
dropped when that call returns or raises.

A colon runs an elimination only when no rule answers it without one: a
divisor whose leading monomial is coprime to in(I), and a linear form
dividing a homogeneous ideal of a grevlex ring (Bayer-Stillman; see
:func:`_colon_gens`).

The Groebner core (:func:`_buchberger`, :func:`_reduce_full`,
:func:`_spoly`, :func:`_interreduce`, :func:`_exact_quotient` and
:func:`normal_form`) works on packed terms: each monomial is one int, whose
layout :class:`_Packing` describes.  The order's part of it comes from
:meth:`~fclosure.polyring.MonomialOrder.weights`, so only ``polyring``
defines what an order is, and only this module knows the packed terms.
The field width is worked out for each computation from the degree budget
and the degrees of the polynomials it is given, never set by a user; see
:class:`_Packing` for the bound that keeps every field from overflowing.
Polynomials are packed on entry and unpacked on return with their sorted
terms set; :class:`~fclosure.polyring.Polynomial` keeps exponent tuples.
An :class:`Ideal` keeps its reduced basis packed for its reductions.
"""

from __future__ import annotations

import contextvars
import functools
import warnings
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import prod
from operator import add, mul, or_

from .errors import BudgetExceededError, ColonByZeroWarning, InternalError, RingMismatchError
from .polyring import BlockOrder, Polynomial, _unit

# the memo of the running entry-point call, or None outside every call
_MEMO = contextvars.ContextVar("fclosure_memo", default=None)


def memo_scope(fn):
    """Run ``fn`` with a fresh memo unless a memo is already active, and
    drop it when the outermost call returns or raises.  Results are exact,
    so the memo holds only finished results and is keyed without budgets."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _MEMO.get() is not None:
            return fn(*args, **kwargs)
        token = _MEMO.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _MEMO.reset(token)

    return scoped


def _reused(kind, ring, operands, compute):
    """What ``compute()`` returns: a reduced basis with the one-item list
    that holds its packed divisors, or a finished :class:`Ideal` with its
    reduced basis set.  Inside a :func:`memo_scope` call on a ring without
    auxiliary variables it is kept as it is under ``kind``, the ring and
    the generator sets of the ideals ``operands`` (see :func:`_ideal_key`),
    so that a request with the same generators, in any order or repeated,
    gets the same object back, and with it whatever that object has cached
    since; nothing is kept when ``compute`` raises.  A result that depends
    on an operand's ideal alone is keyed on that ideal's reduced basis by
    passing the :func:`_finished` ideal of the basis as the operand, as a
    Frobenius preimage step does."""
    memo = _MEMO.get()
    if memo is None or isinstance(ring.order, BlockOrder):
        return compute()
    key = (kind, ring, *map(_ideal_key, operands))
    found = memo.get(key)
    if found is None:
        found = memo[key] = compute()
    return found


def _ideal_key(ideal):
    """The generators of ``ideal`` in a memo key: their frozenset, which
    compares polynomials by value through their cached hash and so does
    not depend on the order given or on repeats; built once per ideal."""
    if ideal._key is None:
        ideal._key = frozenset(ideal.gens)
    return ideal._key


class Ideal:
    """An ideal of a polynomial ring, as its nonzero generators in the
    order given plus a lazily cached reduced Groebner basis (and, once a
    normal form or a containment is asked for, that basis packed as
    divisors, shared with every ideal that shares the basis through the
    memo) and memo key.

    Ideals of quotient rings are represented by their full preimages; see
    :class:`fclosure.frobenius.QuotientRing`.
    """

    __slots__ = ("ring", "gens", "_basis", "_settled", "_divisors", "_key")

    def __init__(self, ring, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator lies in a different ring")
        self.ring = ring
        self.gens = gens
        self._basis = None
        # lengths of leading runs of ``gens`` that are each a Groebner
        # basis, whose S-pairs Buchberger need not form (set only by
        # _eliminate_intersection and the Frobenius preimage step)
        self._settled = ()
        # None, or a one-item list holding None or the (packing, heads) of
        # the reduced basis that _remainder packs; groebner_basis hands one
        # list to every ideal whose basis comes from one memo entry
        self._divisors = None
        # the generator set that keys the memo, set by _ideal_key
        self._key = None

    def basis(self):
        return groebner_basis(self)

    def is_unit(self):
        b = self.basis()
        return len(b) == 1 and b[0].is_constant()

    def is_zero(self):
        return not self.basis()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.basis() == other.basis()

    def __str__(self):
        b = self.basis()
        return "; ".join(str(g) for g in b) if b else "0"

    def __repr__(self):
        return f"Ideal({self})"


def ideal_from_text(text, ring):
    """Parse an ideal given as ';'-separated polynomial expressions."""
    parts = [part for part in text.split(";") if part.strip()]
    return Ideal(ring, [ring.parse(part) for part in parts])


# ---------------------------------------------------------------------------
# packed monomials


@functools.lru_cache(maxsize=64)
def _layout(order, n, width):
    """The packing of ``n``-variable monomials under ``order`` in
    ``width``-bit fields (see :class:`_Packing`): each variable's code, the
    shifts of the exponent fields, the field mask, the guard bits, the
    degree-field mask and the mask of the auxiliary exponent fields.  Ints
    only, derived from the order's weights; nothing else is kept."""
    base = 1 << width
    top = base**n  # the degree field
    codes = tuple(
        w * top * base + top + (1 << width * i) for i, w in enumerate(order.weights(n, base))
    )
    shifts = tuple(range(0, n * width, width))
    mask = base - 1
    guard = sum(1 << shift + width - 1 for shift in range(0, (n + 1) * width, width))
    split = order.split if isinstance(order, BlockOrder) else n
    aux = sum(mask << shift for shift in shifts[split:])
    return codes, shifts, mask, guard, mask * top, aux


class _Packing:
    """The packed monomials of computations on ``ring`` whose polynomials
    have degree at most ``degree``.

    With B = 2**width, the monomial e of n variables is the int
    X(e) = K(e)*B**(n+1) + deg(e)*B**n + sum_i e_i*B**i, where
    K(e) = sum_i w_i*e_i is the order key read as a base-B numeral
    (:meth:`~fclosure.polyring.MonomialOrder.weights`).  Below K lie n + 1
    fields of ``width`` bits, the exponents and the total degree, each with
    its top (guard) bit clear.  So X(a + b) = X(a) + X(b), X values compare
    as their monomials do in the ring order, and a divides b exactly when
    X(b) - X(a) has no guard bit set, that difference being X(b - a).

    The width holds total degrees up to 3*``degree`` below the guard bits.
    Every polynomial a computation is given has degree at most ``degree``,
    which is at least the degree budget.  An S-polynomial of two of them
    has degree at most 2*``degree``, and a reduction step adds at most
    ``degree`` to one of its terms before the budget check reads the new
    term's degree field.  A Buchberger run checks every S-polynomial term
    against the budget before reducing, so each element it adds to its
    basis lies within the budget too.  So no field overflows."""

    __slots__ = (
        "ring", "p", "degree", "codes", "shifts", "mask", "guard", "dmask", "aux", "dlimit", "dshift"
    )

    def __init__(self, ring, degree):
        n = len(ring.variables)
        width = (3 * degree).bit_length() + 1
        layout = _layout(ring.order, n, width)
        self.codes, self.shifts, self.mask, self.guard, self.dmask, self.aux = layout
        self.ring = ring
        self.p = ring.p
        self.degree = degree
        self.dshift = n * width
        self.dlimit = ring.config.max_poly_degree << self.dshift

    def pack(self, exps):
        return sum(map(mul, exps, self.codes))

    def unpack(self, x):
        mask = self.mask
        return tuple([x >> shift & mask for shift in self.shifts])


def _packing_for(ring, polys):
    """The packing of a computation on the polynomials ``polys`` of
    ``ring``: the degree budget and every degree given fit its fields."""
    return _Packing(ring, max(ring.config.max_poly_degree, *(f.total_degree() for f in polys)))


def _pack(f, packing):
    """The terms of ``f`` as (packed monomial, coefficient) pairs,
    descending in the ring order."""
    pack = packing.pack
    if f._sorted is not None:
        return [(pack(e), c) for e, c in f._sorted]
    return sorted([(pack(e), c) for e, c in f._terms.items()], reverse=True)


def _unpack(terms, packing):
    """The polynomial with the descending packed terms ``terms``, with its
    sorted terms set."""
    unpack = packing.unpack
    return _sorted_poly(packing.ring, [(unpack(x), c) for x, c in terms])


def _sorted_poly(ring, terms):
    """The polynomial with the (exponents, coefficient) pairs ``terms``,
    which are already descending in the ring order."""
    f = Polynomial(ring, dict(terms))
    f._sorted = terms
    return f


# ---------------------------------------------------------------------------
# reduction on packed terms: a packed polynomial is a list of (packed
# monomial, coefficient) pairs, descending; a divisor is given by its head,
# the pair (leading monomial, remaining terms) of a monic one


def _heads(G):
    return [(g[0][0], g[1:]) for g in G]


def _monic(terms, p):
    """The packed polynomial ``terms`` scaled to leading coefficient 1."""
    c = terms[0][1]
    if c == 1:
        return terms
    inv = pow(c, p - 2, p)
    return [(x, v * inv % p) for x, v in terms]


def _reduce_full(f, heads, packing):
    """Fully reduce the packed terms ``f`` (pairs or a dict) against the
    divisors ``heads``; the remainder as a packed polynomial.

    Divisor choice is the first head (in the given order) whose leading
    monomial divides the current monomial, which makes the result
    deterministic; against a reduced Groebner basis it is the unique normal
    form.  Terms leave the heap in descending order, so the remainder comes
    with its terms already sorted.  Every term a reduction creates is
    checked against the degree budget.
    """
    p, guard = packing.p, packing.guard
    dmask, dlimit = packing.dmask, packing.dlimit
    work = dict(f)
    heap = [-e for e in work]
    heapify(heap)
    out = []
    while heap:
        e = -heappop(heap)
        c = work.pop(e, 0)
        if not c:
            continue
        for lm, tail in heads:
            shift = e - lm
            if not shift & guard:
                break
        else:
            out.append((e, c))
            continue
        for g_e, gc in tail:
            ee = shift + g_e
            old = work.get(ee)
            if old is None:
                if ee & dmask > dlimit:
                    max_deg = packing.ring.config.max_poly_degree
                    raise BudgetExceededError(
                        f"reduction exceeded the degree budget {max_deg}", kind="degree"
                    )
                heappush(heap, -ee)
                work[ee] = -c * gc % p
            else:
                s = (old - c * gc) % p
                if s:
                    work[ee] = s
                else:
                    del work[ee]
    return out


def _spoly(f, g, lcm, p):
    """The S-polynomial m_f*f - m_g*g of the monic packed polynomials with
    the heads ``f`` and ``g``, whose leading monomials have the packed lcm
    ``lcm``, as a dict; the leading terms cancel and are not formed."""
    (lf, f_tail), (lg, g_tail) = f, g
    mf, mg = lcm - lf, lcm - lg
    terms = {mf + e: c for e, c in f_tail}
    for e, c in g_tail:
        e += mg
        s = (terms.get(e, 0) - c) % p
        if s:
            terms[e] = s
        else:
            del terms[e]
    return terms


# ---------------------------------------------------------------------------
# Buchberger


def groebner_basis(ideal):
    """The unique reduced Groebner basis, cached on the ideal and, inside a
    :func:`memo_scope` call, on the ring and generators unless the ring
    has auxiliary variables.

    On a ring from :meth:`~fclosure.polyring.PolyRing.extended` the result
    is the elimination basis: the reduced basis of the ideal's intersection
    with the polynomials free of the auxiliary variables, which are exactly
    the aux-free elements of the full reduced basis.

    Buchberger with the coprime-leading-term and chain criteria, normal
    pair-selection strategy (smallest lcm in the ring order, then input
    position); each generator enters reduced, and a redundant one forms
    no pairs (see :func:`_buchberger`).  It forms no S-pair inside a run of
    generators that the ideal records as settled, a Groebner basis on its
    own, whose generators enter as they are: the two runs built from the
    reduced bases of I and K on the big-ring ideal of :func:`intersect`
    (the block rule; see :func:`_eliminate_intersection`), and the copies
    of a reduced basis in a Frobenius preimage step on a grevlex ring
    (see :func:`fclosure.frobenius._computed_step`).  Every term of an
    S-polynomial, like every term a reduction creates, is checked against
    the degree budget.
    """
    if ideal._basis is None:
        ideal._basis, ideal._divisors = _reused(
            "gb", ideal.ring, (ideal,), lambda: (_buchberger(ideal), [None])
        )
    return ideal._basis


def _buchberger(ideal):
    """Compute the reduced basis of ``ideal`` (its elimination basis on a
    block-order ring).  The generators are packed on entry and the basis
    unpacked on return; every element enters the working basis monic, so
    no reduction divides by a leading coefficient.

    Each generator is fully reduced against the working basis before it
    enters, and one that reduces to zero is dropped, so a repeat or a
    multiple of one before it forms no pairs.  They are taken in the order
    given: sorted by leading monomial, one inhomogeneous preimage
    elimination of the tests forms many more pairs.

    No pair inside one of the runs that ``ideal._settled`` records is
    formed: each run is a Groebner basis, so its S-pairs already have
    standard representations, and the chain criterion counts them as
    treated, as it counts coprime pairs.  Those generators enter as they
    are, since the runs are read by position.

    Beside each leading monomial the run keeps its support as a bit mask.
    Leading monomials are coprime exactly when their masks are disjoint,
    so such a pair is dropped on one AND, before its lcm is formed.  The
    lcm of any other pair comes from the shared variables alone: packing
    is linear, so X(lcm) = X(lm_i) + X(lm_j) - sum_v min(e_i[v], e_j[v])
    * code_v over the bits of the AND of the two masks."""
    ring = ideal.ring
    config = ring.config
    p = ring.p
    if not ideal.gens:
        return ()
    packing = _packing_for(ring, ideal.gens)
    guard, dmask, dlimit = packing.guard, packing.dmask, packing.dlimit

    codes = packing.codes
    G = []  # the working basis, packed and monic
    heads = []  # its heads, the divisors of every reduction
    lms = []  # its packed leading monomials
    exps = []  # and their exponents, for the lcms
    sups = []  # and their supports, as bit masks of variables
    variables = {}  # a support mask -> the indices of its bits
    pending = set()
    heap = []
    # the index at which each generator's settled run starts
    run_start = []
    for n in ideal._settled:
        run_start += [len(run_start)] * n

    def push_pairs(j):
        lj, ej, sj = lms[j], exps[j], sups[j]
        for i in range(run_start[j] if j < len(run_start) else j):
            shared = sups[i] & sj
            if not shared:
                continue  # coprime leading terms: s-poly reduces to zero
            # X(lcm) = X(lm_i) + X(lm_j) - X(gcd), and the gcd lives on
            # the shared variables alone
            vs = variables.get(shared)
            if vs is None:
                vs = variables[shared] = [v for v in range(len(codes)) if shared >> v & 1]
            ei = exps[i]
            lcm = lms[i] + lj
            for v in vs:
                a, b = ei[v], ej[v]
                lcm -= (a if a < b else b) * codes[v]
            pending.add((i, j))
            heappush(heap, (lcm, i, j))

    def enter(f):
        f = _monic(f, p)
        lm = f[0][0]
        G.append(f)
        heads.append((lm, f[1:]))
        lms.append(lm)
        e = packing.unpack(lm)
        exps.append(e)
        sups.append(sum(1 << v for v, a in enumerate(e) if a))
        push_pairs(len(G) - 1)

    # a generator outside the settled runs enters reduced, or not at all
    for k, f in enumerate(ideal.gens):
        f = _pack(f, packing)
        if k >= len(run_start):
            f = _reduce_full(f, heads, packing)
            if not f:
                continue
        enter(f)

    processed = 0
    while heap:
        lcm, i, j = heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > config.max_pairs:
            raise BudgetExceededError(
                f"Groebner pair budget {config.max_pairs} exceeded", kind="pairs"
            )
        # chain criterion
        skip = False
        for k, lk in enumerate(lms):
            if not (lcm - lk) & guard and k != i and k != j:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _spoly(heads[i], heads[j], lcm, p)
        if any(e & dmask > dlimit for e in s):
            raise BudgetExceededError(
                f"S-polynomial exceeded the degree budget {config.max_poly_degree}", kind="degree"
            )
        h = _reduce_full(s, heads, packing)
        if not h:
            continue
        if len(G) >= config.max_basis_size:
            raise BudgetExceededError(
                f"Groebner basis size budget {config.max_basis_size} exceeded", kind="basis"
            )
        enter(h)

    return tuple(_unpack(g, packing) for g in _interreduce(G, packing, packing.aux))


def _interreduce(G, packing, aux=0):
    """Minimalize then tail-reduce a monic packed Groebner basis into the
    reduced basis, descending by leading monomial (Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, ch. 2 §7).

    With ``aux`` set (the mask of the auxiliary exponent fields of an
    elimination order), only the minimal elements free of the auxiliary
    variables are tail-reduced and returned.  Their terms are divisible by
    no other element's leading monomial, so they are the reduced basis of
    the elimination ideal."""
    guard = packing.guard
    # minimal: drop any element whose leading monomial is divisible by
    # another's, scanning ascending in the order
    kept = []
    for g in sorted(G, key=lambda g: g[0][0]):
        lm = g[0][0]
        if any(not (lm - h[0][0]) & guard for h in kept):
            continue
        kept.append(g)
    if aux:
        kept = [g for g in kept if not g[0][0] & aux]
    # one pass suffices: a minimal basis keeps its leading monomials (and
    # leading coefficient 1) under reduction, so a later replacement cannot
    # make an earlier remainder reducible again
    heads = _heads(kept)
    for i, g in enumerate(kept):
        r = _reduce_full(g, heads[:i] + heads[i + 1 :], packing)
        if not r:
            raise InternalError("minimal basis element reduced to zero")
        kept[i] = r
        heads[i] = (r[0][0], r[1:])
    kept.reverse()
    return kept


# ---------------------------------------------------------------------------
# derived operations


def normal_form(f, ideal):
    """The unique remainder of ``f`` modulo the reduced basis of ``ideal``."""
    if f.ring != ideal.ring:
        raise RingMismatchError("polynomial and ideal live in different rings")
    if f.is_zero() or not groebner_basis(ideal):
        return f
    return _unpack(*_remainder(f, ideal))


def ideal_member(f, ideal):
    return normal_form(f, ideal).is_zero()


def _remainder(f, ideal):
    """The remainder of the nonzero ``f`` modulo the nonzero reduced basis
    of ``ideal`` as packed terms, with their packing.  The basis is packed
    once per memo entry (once per ideal outside the memo), in fields wide
    enough for ``f``; a polynomial of higher degree packs it again."""
    cell = ideal._divisors
    if cell is None:
        cell = ideal._divisors = [None]
    divisors = cell[0]
    if divisors is None or f.total_degree() > divisors[0].degree:
        packing = _packing_for(f.ring, (f, *ideal._basis))
        divisors = cell[0] = (packing, _heads([_pack(g, packing) for g in ideal._basis]))
    packing, heads = divisors
    return _reduce_full(_pack(f, packing), heads, packing), packing


def ideal_equal(I, K):
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    return groebner_basis(I) == groebner_basis(K)


def ideal_contains(I, K):
    """True iff K is a subset of I: every generator of K leaves an empty
    packed remainder modulo the reduced basis of I."""
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    if not groebner_basis(I):
        return not K.gens
    return not any(_remainder(g, I)[0] for g in K.gens)


def ideal_sum(*ideals):
    ring = ideals[0].ring
    gens = []
    for I in ideals:
        if I.ring != ring:
            raise RingMismatchError("ideals live in different rings")
        gens.extend(I.gens)
    return Ideal(ring, gens)


def scale_ideal(f, I):
    """The ideal f*I."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial and ideal live in different rings")
    return Ideal(I.ring, [f * g for g in I.gens])


def unit_ideal(ring):
    return Ideal(ring, [ring.one])


def intersect(I, K):
    """I intersect K, with its reduced basis already set; memoized on the
    ring and both generator lists inside a :func:`memo_scope` call.

    When one operand contains the other, the intersection is the smaller
    one, whose reduced basis is in hand; otherwise the auxiliary-variable
    construction eliminates (see :func:`_eliminate_intersection`)."""
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    ring = I.ring
    if not I.gens or not K.gens:
        return Ideal(ring, [])
    return _reused("meet", ring, (I, K), lambda: _finished(ring, _meet(I, K)))


def _finished(ring, basis):
    """The ideal of ``ring`` with the reduced basis ``basis``, which it
    keeps as its generators and its basis."""
    ideal = Ideal(ring, basis)
    ideal._basis = ideal.gens
    return ideal


def _meet(I, K):
    """The reduced basis of I intersect K: that of I when I lies in K, that
    of K when K lies in I, and the elimination's otherwise."""
    basis_i, basis_k = groebner_basis(I), groebner_basis(K)
    if ideal_contains(K, I):
        return basis_i
    if ideal_contains(I, K):
        return basis_k
    return _eliminate_intersection(I, K)


def _eliminate_intersection(I, K):
    """The reduced basis of I intersect K: the elimination basis of
    t*I + (1-t)*K built from the reduced bases of I and K, projected back
    to the ring of I and K.

    Under the block order t*g and (1-t)*g both lead with t*lm(g), so t*B
    and (1-t)*B are Groebner bases whenever B is one: an S-pair inside
    either run is t or 1-t times a base-ring S-pair and keeps its standard
    representation.  The big-ring ideal records the two runs as settled."""
    ring = I.ring
    big = ring.extended(1)
    p = ring.p
    basis_i, basis_k = groebner_basis(I), groebner_basis(K)
    # t dominates the block order, so t*g keeps the term order of g, and
    # the terms of (1-t)*g are those of -t*g followed by those of g
    gens = [_sorted_poly(big, [(e + (1,), c) for e, c in g.terms_sorted()]) for g in basis_i]
    for g in basis_k:
        terms = g.terms_sorted()
        minus_t_g = [(e + (1,), p - c) for e, c in terms]
        gens.append(_sorted_poly(big, minus_t_g + [(e + (0,), c) for e, c in terms]))
    big_ideal = Ideal(big, gens)
    big_ideal._settled = (len(basis_i), len(basis_k))
    return tuple(ring.project(g) for g in groebner_basis(big_ideal))


def _exact_quotient(h, g, packing):
    """The quotient h / g of packed polynomials for h in (g), by one
    division driven by a heap as in :func:`_reduce_full`; a nonzero
    remainder raises :class:`InternalError`.  The quotient's terms are
    found in descending order, so it comes with them already sorted."""
    p, guard = packing.p, packing.guard
    (lm, lc), tail = g[0], g[1:]
    lc_inv = pow(lc, p - 2, p)
    work = dict(h)
    heap = [-e for e in work]
    heapify(heap)
    quo = []
    while heap:
        e = -heappop(heap)
        c = work.pop(e, 0)
        if not c:
            continue
        shift = e - lm
        if shift & guard:
            raise InternalError("exact division left a nonzero remainder")
        factor = c * lc_inv % p
        quo.append((shift, factor))
        for g_e, gc in tail:
            ee = shift + g_e
            old = work.get(ee)
            if old is None:
                heappush(heap, -ee)
                work[ee] = -factor * gc % p
            else:
                s = (old - factor * gc) % p
                if s:
                    work[ee] = s
                else:
                    del work[ee]
    return quo


def colon(I, K):
    """(I : K) = {r : rK in I}, with its reduced basis already set, as
    :func:`intersect` sets it; memoized on the ring and both generator
    lists inside a :func:`memo_scope` call.  Colon by the zero ideal returns
    the unit ideal with a warning, by convention, on every call.  See
    :func:`_colon_gens` for the colons that run no elimination."""
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    ring = I.ring
    if not K.gens:
        warnings.warn("colon by the zero ideal: returning the unit ideal", ColonByZeroWarning)
        return unit_ideal(ring)
    return _reused("colon", ring, (I, K), lambda: _finished(ring, _colon_gens(I, K)))


def _colon_gens(I, K):
    """The reduced basis of (I : K), the intersection over g in K of
    (I : g); for more than one g the last intersection returns it.

    When the leading monomial of some g in K shares no variable with the
    leading monomials of the reduced basis of I, it is a nonzerodivisor
    modulo in(I), so g is one modulo I (Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, ch. 2 and ch. 4 §4; Kreuzer-Robbiano,
    Computational Commutative Algebra 1, §2.2).  Then (I : g) = I, and I
    lies in every (I : g), so (I : K) = I, whose reduced basis is in hand.

    A linear form g divides a homogeneous ideal of a grevlex ring without
    elimination (see :func:`_linear_colon`), and (I : g) = I gives
    (I : K) = I again.  Every other (I : g) comes from I intersect (g)
    (see :func:`_eliminated_colon`)."""
    ring = I.ring
    basis = groebner_basis(I)
    packing = _packing_for(ring, (*basis, *K.gens))
    leads = functools.reduce(or_, (_lead_variables(g, packing) for g in basis), 0)
    if any(not _lead_variables(g, packing) & leads for g in K.gens):
        return basis
    result = None
    for g in K.gens:
        part = _linear_colon(basis, g)
        if part is basis:
            return basis
        part = _finished(ring, _eliminated_colon(I, g) if part is None else part)
        result = part if result is None else intersect(result, part)
    return result.gens


def _eliminated_colon(I, g):
    """The reduced basis of (I : g) from that of I intersect (g): the
    quotients h/g of its elements are a minimal Groebner basis of (I : g),
    for f in (I : g) some lm(h) divides lm(f*g) = lm(f)*lm(g), and
    lm(h) = lm(h/g)*lm(g).  Made monic and interreduced, they are its
    reduced basis."""
    ring = I.ring
    meet = intersect(I, Ideal(ring, [g]))
    packing = _packing_for(ring, (g, *meet.gens))
    divisor = _pack(g, packing)
    quotients = [
        _monic(_exact_quotient(_pack(h, packing), divisor, packing), ring.p) for h in meet.gens
    ]
    return [_unpack(q, packing) for q in _interreduce(quotients, packing)]


def _linear_colon(basis, g):
    """The reduced basis of (I : g) when the ring is grevlex, g is a linear
    form and ``basis``, the reduced basis of I, is homogeneous; that very
    tuple when (I : g) = I, and ``None`` when the ring, g or I is not of
    that kind.  No elimination: Bayer-Stillman (Invent. Math. 87, 1987;
    Eisenbud, Commutative Algebra, Prop. 15.12).

    With g = sum c_i x_i and k the last index with c_k nonzero, the linear
    automorphism psi with x_k -> (x_n - sum_{i != k} c_i x_i)/c_k and, for
    k < n, x_n -> x_k sends g to x_n.  Let G be the reduced basis of psi(I).
    For a homogeneous h under grevlex, x_n divides lm(h) only if it divides
    h, so dividing by x_n each element of G whose leading monomial it
    divides gives a Groebner basis of psi(I) : x_n = psi(I : g); with no
    such element, (I : g) = I.  The map back, psi^-1 with x_n -> g and, for
    k < n, x_k -> x_n, and one Buchberger run give the reduced basis."""
    ring = g.ring
    if not (
        ring.order.kind == "grevlex"
        and g.total_degree() == 1
        and g.is_homogeneous()
        and all(h.is_homogeneous() for h in basis)
    ):
        return None
    p = ring.p
    size = len(ring.variables)
    n = size - 1  # the index of x_n
    coeffs = {e.index(1): c for e, c in g._terms.items()}
    k = max(coeffs)
    inv = pow(coeffs.pop(k), p - 2, p)
    form = {_unit(size, i, 1): -c * inv % p for i, c in coeffs.items()}
    form[_unit(size, n, 1)] = inv
    image = groebner_basis(Ideal(ring, [_substitute(h, k, n, form) for h in basis]))
    if not any(h.leading_monomial()[n] for h in image):
        return basis
    quotient = []
    for h in image:
        if h.leading_monomial()[n]:
            h = Polynomial(ring, {e[:n] + (e[n] - 1,): c for e, c in h._terms.items()})
        quotient.append(_substitute(h, n, k, g._terms))
    return groebner_basis(Ideal(ring, quotient))


def _substitute(f, v, w, form):
    """``f`` with x_v replaced by the linear form with the terms ``form``
    and, when w != v, x_w by x_v, by Horner's rule in the image of x_v."""
    layers = {}  # the exponent of x_v -> the image of its cofactor in f
    for e, c in f._terms.items():
        cofactor = list(e)
        cofactor[v] = 0
        if w != v:
            cofactor[v], cofactor[w] = e[w], 0
        layers.setdefault(e[v], {})[tuple(cofactor)] = c
    p = f.ring.p
    acc = {}
    for j in range(max(layers), -1, -1):
        step = {}
        for e, c in acc.items():
            for u, d in form.items():
                m = tuple(map(add, e, u))
                step[m] = (step.get(m, 0) + c * d) % p
        for e, c in layers.get(j, {}).items():
            step[e] = (step.get(e, 0) + c) % p
        acc = step
    return Polynomial(f.ring, {e: c for e, c in acc.items() if c})


def _lead_variables(f, packing):
    """The variables of the leading monomial of the nonzero ``f`` as a bit
    mask, read from the largest of its monomials under ``packing``: no
    order key."""
    lead = packing.unpack(max(map(packing.pack, f._terms)))
    return sum(1 << i for i, e in enumerate(lead) if e)


def saturate(I, K):
    """(I : K^infinity) plus the first index s with (I : K^s) = (I : K^(s+1)).

    Chain stabilization of iterated colons is genuine: one repeated value
    forces stability for all larger exponents.
    """
    cap = I.ring.config.saturation_cap
    if not K.gens:
        warnings.warn("saturation by the zero ideal: returning the unit ideal", ColonByZeroWarning)
        return unit_ideal(I.ring), 0
    current = I
    for s in range(cap):
        nxt = colon(current, K)
        if ideal_equal(nxt, current):
            return current, s
        current = nxt
    raise BudgetExceededError(
        f"saturation did not stabilize within {cap} steps", kind="saturation"
    )


def krull_dimension(I):
    """Dimension of the quotient by I, computed combinatorially from the
    leading-term ideal (maximal independent variable subsets); -1 for the
    unit ideal."""
    basis = groebner_basis(I)
    n = len(I.ring.variables)
    if not basis:
        return n
    supports = []
    for g in basis:
        sup = frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
        if not sup:
            return -1  # unit ideal
        supports.append(sup)
    # scan subsets largest-first so the first independent one wins
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            u = set(combo)
            if all(not sup <= u for sup in supports):
                return size
    return 0


def radical_member(f, I):
    """True iff f lies in the radical of I.

    The first step is the reduced basis of I.  A unit basis answers True.
    When in(I) holds a pure power x_i^a_i of every variable, I is
    zero-dimensional and S/I has length at most N = a_1 * ... * a_n (its
    standard monomials lie in that box).  The nilradical of an Artinian
    ring of length N has N-th power zero (Atiyah-Macdonald, ch. 8), so f is
    in the radical iff f^N lies in I: :func:`_power_in` squares f modulo I
    until the exponent reaches N.  Any other ideal takes the
    auxiliary-variable trick: f is in the radical iff I + (1 - t*f) is the
    unit ideal of S[t] (Rabinowitsch).  On an elimination ring the basis is
    that of the elimination ideal, which holds no power of an auxiliary
    variable, so such a ring takes the second route."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial and ideal live in different rings")
    ring = I.ring
    if f.is_zero():
        return True
    box = [0] * len(ring.variables)
    for g in groebner_basis(I):
        lm = g.leading_monomial()
        support = [i for i, e in enumerate(lm) if e]
        if not support:
            return True  # unit ideal
        if len(support) == 1:
            box[support[0]] = lm[support[0]]
    if all(box):
        return _power_in(f, I, prod(box))
    big = ring.extended(1)
    t = big.var(big.variables[-1])
    gens = [ring.lift(g, big) for g in I.gens]
    gens.append(big.one - t * ring.lift(f, big))
    return Ideal(big, gens).is_unit()


def _power_in(f, I, N):
    """True iff f^N lies in I, for an ``N`` such that f^N lies in I as
    soon as any power of f does.  So f^(2^k) for the least 2^k >= N
    decides it too: f is squared k times, each square reduced modulo I,
    stopping early at zero.  Each square is checked against the degree
    budget before it is built."""
    budget = I.ring.config.max_poly_degree
    r = normal_form(f, I)
    power = 1
    while power < N and not r.is_zero():
        if 2 * r.total_degree() > budget:
            raise BudgetExceededError(
                f"radical test power {2 * power} exceeded the degree budget {budget}",
                kind="degree",
            )
        r = normal_form(r * r, I)
        power *= 2
    return r.is_zero()
