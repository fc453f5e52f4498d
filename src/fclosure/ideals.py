"""Groebner-basis engine: reduced bases, normal forms, membership, equality,
colon, intersection, saturation, Krull dimension and radical membership.

Everything is deterministic: an ideal keeps its generators in the order it
is given them, the pair queue uses the normal strategy (smallest lcm in the
ring order), and ties break by input position.  A reduced basis does not
depend on that order.  Budgets come from the ring's
:class:`~fclosure.config.EngineConfig`.

Inside one call of an entry point marked :func:`memo_scope`, reduced bases,
intersections and colons of rings without auxiliary variables are memoized
on the ring and the generators, in any order (all through :func:`_reused`),
so each distinct one is computed once; the memo is dropped when that call
returns or raises.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import warnings
from itertools import combinations
from operator import add, ge, neg, sub

from .errors import BudgetExceededError, ColonByZeroWarning, InternalError, RingMismatchError
from .polyring import BlockOrder, Polynomial

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


def _code(f):
    """``f`` as a list of ints: its term count, then each term's exponents
    and coefficient, descending in the order."""
    terms = f.terms_sorted()
    out = [len(terms)]
    for exps, c in terms:
        out.extend(exps)
        out.append(c)
    return out


def _encode(codes):
    """The int lists ``codes`` (see :func:`_code`) joined into one flat
    tuple.  They are joined in a list first: a tuple built from an iterator
    of unknown length can keep a block up to a third larger than it needs,
    and the memo keeps these tuples."""
    out = []
    for code in codes:
        out += code
    return tuple(out)


def _decode(ring, code):
    """The polynomials of ``ring`` that :func:`_encode` flattened to ``code``."""
    n = len(ring.variables)
    polys = []
    i = 0
    while i < len(code):
        count = code[i]
        i += 1
        terms = []
        for _ in range(count):
            terms.append((code[i : i + n], code[i + n]))
            i += n + 1
        polys.append(_sorted_poly(ring, terms))
    return tuple(polys)


def _reused(kind, ring, operands, compute):
    """The polynomials ``compute()`` returns.  Inside a :func:`memo_scope`
    call on a ring without auxiliary variables they are kept as a flat int
    tuple under ``kind``, the ring and the generator lists ``operands``,
    each encoded with its generators' codes sorted, so that a request with
    the same generators in any order decodes them instead of computing;
    nothing is kept when ``compute`` raises."""
    memo = _MEMO.get()
    if memo is None or isinstance(ring.order, BlockOrder):
        return compute()
    key = (kind, ring, *(_encode(sorted(map(_code, gens))) for gens in operands))
    code = memo.get(key)
    if code is not None:
        return _decode(ring, code)
    polys = compute()
    memo[key] = _encode(map(_code, polys))
    return polys


class Ideal:
    """An ideal of a polynomial ring, as its nonzero generators in the
    order given plus a lazily cached reduced Groebner basis.

    Ideals of quotient rings are represented by their full preimages; see
    :class:`fclosure.frobenius.QuotientRing`.
    """

    __slots__ = ("ring", "gens", "_basis", "_settled")

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
        # _eliminate_intersection)
        self._settled = ()

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
# reduction


class _HeapKeys(dict):
    """Monomial -> heap key: its order key negated, so that a min-heap pops
    the largest monomial first.  Each key is computed on first use; one
    table serves one basis computation and is dropped with it."""

    __slots__ = ("_key",)

    def __init__(self, order):
        super().__init__()
        self._key = order.key

    def __missing__(self, exps):
        k = self[exps] = tuple(map(neg, self._key(exps)))
        return k


def _reduce_full(f, basis, keys=None):
    """Fully reduce ``f`` against ``basis`` (a sequence of monic polynomials).

    Divisor choice is the first basis element (in the given order) whose
    leading monomial divides the current monomial, which makes the result
    deterministic; against a reduced Groebner basis it is the unique normal
    form.  ``keys`` is the :class:`_HeapKeys` table of the running basis
    computation, if any.  Terms leave the heap in descending order, so the
    remainder comes with its terms already sorted.
    """
    if f.is_zero() or not basis:
        return f
    ring = f.ring
    p = ring.p
    if keys is None:
        keys = _HeapKeys(ring.order)
    heads = [(g.leading_monomial(), g) for g in basis]
    work = dict(f._terms)
    out = []
    heap = [(keys[e], e) for e in work]
    heapq.heapify(heap)
    max_deg = ring.config.max_poly_degree
    while heap:
        _, e = heapq.heappop(heap)
        c = work.get(e)
        if not c:
            continue
        for lm, g in heads:
            if all(map(ge, e, lm)):
                break
        else:
            del work[e]
            out.append((e, c))
            continue
        shift = tuple(map(sub, e, lm))
        for g_e, gc in g._terms.items():
            ee = tuple(map(add, shift, g_e))
            s = (work.get(ee, 0) - c * gc) % p
            if s:
                if ee not in work:
                    if sum(ee) > max_deg:
                        raise BudgetExceededError(
                            f"reduction exceeded the degree budget {max_deg}", kind="degree"
                        )
                    heapq.heappush(heap, (keys[ee], ee))
                work[ee] = s
            else:
                work.pop(ee, None)
    return _sorted_poly(ring, out)


def _sorted_poly(ring, terms):
    """The polynomial with the (exponents, coefficient) pairs ``terms``,
    which are already descending in the ring order."""
    f = Polynomial(ring, dict(terms))
    f._sorted = terms
    return f


def _monic(f):
    """``f`` scaled to leading coefficient 1, keeping its sorted terms."""
    terms = f.terms_sorted()
    c = terms[0][1]
    if c == 1:
        return f
    p = f.ring.p
    inv = pow(c, p - 2, p)
    return _sorted_poly(f.ring, [(e, v * inv % p) for e, v in terms])


def _spoly(f, g):
    """The S-polynomial m_f*f - m_g*g of the monic polynomials ``f`` and
    ``g``, built from their term dicts."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(map(max, lf, lg))
    mf = tuple(map(sub, lcm, lf))
    mg = tuple(map(sub, lcm, lg))
    p = f.ring.p
    terms = {tuple(map(add, mf, e)): c for e, c in f._terms.items()}
    for e, c in g._terms.items():
        e = tuple(map(add, mg, e))
        s = (terms.get(e, 0) - c) % p
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return Polynomial(f.ring, terms)


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
    position).  On the big-ring ideal of :func:`intersect` it also forms
    no S-pair inside the two runs of generators built from the reduced
    bases of I and K (the block rule; see :func:`_eliminate_intersection`).
    """
    if ideal._basis is None:
        ideal._basis = _reused("gb", ideal.ring, (ideal.gens,), lambda: _buchberger(ideal))
    return ideal._basis


def _buchberger(ideal):
    """Compute the reduced basis of ``ideal`` (its elimination basis on a
    block-order ring).  Every element enters the working basis monic, so no
    reduction divides by a leading coefficient; one heap-key table serves
    every reduction of the run.

    No pair inside one of the runs that ``ideal._settled`` records is
    formed: each run is a Groebner basis, so its S-pairs already have
    standard representations, and the chain criterion counts them as
    treated, as it counts coprime pairs."""
    ring = ideal.ring
    config = ring.config
    key = ring.order.key
    keys = _HeapKeys(ring.order)

    G = []
    lms = []
    pending = set()
    heap = []
    # the index at which each generator's settled run starts
    run_start = []
    for n in ideal._settled:
        run_start += [len(run_start)] * n

    def push_pairs(j):
        lj = lms[j]
        for i in range(run_start[j] if j < len(run_start) else j):
            li = lms[i]
            lcm = tuple(map(max, li, lj))
            if lcm == tuple(map(add, li, lj)):
                continue  # coprime leading terms: s-poly reduces to zero
            pending.add((i, j))
            heapq.heappush(heap, (key(lcm), i, j, lcm))

    def enter(f):
        G.append(_monic(f))
        lms.append(f.leading_monomial())
        push_pairs(len(G) - 1)

    for f in ideal.gens:
        enter(f)

    processed = 0
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > config.max_pairs:
            raise BudgetExceededError(
                f"Groebner pair budget {config.max_pairs} exceeded", kind="pairs"
            )
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if all(map(ge, lcm, lms[k])):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        h = _reduce_full(_spoly(G[i], G[j]), G, keys)
        if h.is_zero():
            continue
        if len(G) >= config.max_basis_size:
            raise BudgetExceededError(
                f"Groebner basis size budget {config.max_basis_size} exceeded", kind="basis"
            )
        enter(h)

    split = ring.order.split if isinstance(ring.order, BlockOrder) else None
    return _interreduce(G, keys, split)


def _interreduce(G, keys=None, split=None):
    """Minimalize then tail-reduce a monic Groebner basis into the reduced
    basis (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 §7).

    With ``split`` set (an elimination order whose variables from index
    ``split`` on are auxiliary), only the minimal elements free of the
    auxiliary variables are tail-reduced and returned.  Their terms are
    divisible by no other element's leading monomial, so they are the
    reduced basis of the elimination ideal."""
    if not G:
        return ()
    if keys is None:
        keys = _HeapKeys(G[0].ring.order)
    # minimal: drop any element whose leading monomial is divisible by
    # another's, scanning ascending in the order (descending heap key)
    order = sorted(range(len(G)), key=lambda i: keys[G[i].leading_monomial()], reverse=True)
    kept = []
    heads = []
    for i in order:
        lm = G[i].leading_monomial()
        if any(all(map(ge, lm, h)) for h in heads):
            continue
        kept.append(G[i])
        heads.append(lm)
    if split is not None:
        kept = [g for g, lm in zip(kept, heads) if not any(lm[split:])]
    # one pass suffices: a minimal basis keeps its leading monomials (and
    # leading coefficient 1) under reduction, so a later replacement cannot
    # make an earlier remainder reducible again
    for i, g in enumerate(kept):
        r = _reduce_full(g, kept[:i] + kept[i + 1 :], keys)
        if r.is_zero():
            raise InternalError("minimal basis element reduced to zero")
        kept[i] = r
    kept.sort(key=lambda g: keys[g.leading_monomial()])
    return tuple(kept)


# ---------------------------------------------------------------------------
# derived operations


def normal_form(f, ideal):
    """The unique remainder of ``f`` modulo the reduced basis of ``ideal``."""
    if f.ring != ideal.ring:
        raise RingMismatchError("polynomial and ideal live in different rings")
    return _reduce_full(f, groebner_basis(ideal))


def ideal_member(f, ideal):
    return normal_form(f, ideal).is_zero()


def ideal_equal(I, K):
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    return groebner_basis(I) == groebner_basis(K)


def ideal_contains(I, K):
    """True iff K is a subset of I (every generator of K reduces to zero)."""
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    return all(ideal_member(g, I) for g in K.gens)


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
    """I intersect K via the auxiliary-variable construction
    (t*I + (1-t)*K, then eliminate t with a block order), with its reduced
    basis already set; memoized on the ring and both generator lists inside
    a :func:`memo_scope` call.  t*I + (1-t)*K is built from the reduced
    bases of I and K, whose S-pairs Buchberger does not form again."""
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    ring = I.ring
    if not I.gens or not K.gens:
        return Ideal(ring, [])
    gens = _reused("meet", ring, (I.gens, K.gens), lambda: _eliminate_intersection(I, K))
    meet = Ideal(ring, gens)
    meet._basis = meet.gens  # already the reduced basis of I intersect K
    return meet


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


def _exact_quotient(h, g):
    """The quotient h / g for h in (g), by one division driven by a heap
    as in :func:`_reduce_full`; a nonzero remainder raises
    :class:`InternalError`.  The quotient's terms are found in descending
    order, so it comes with them already sorted."""
    ring = h.ring
    p = ring.p
    keys = _HeapKeys(ring.order)
    lm, lc = g.terms_sorted()[0]
    lc_inv = pow(lc, p - 2, p)
    work = dict(h._terms)
    heap = [(keys[e], e) for e in work]
    heapq.heapify(heap)
    quo = []
    while heap:
        _, e = heapq.heappop(heap)
        c = work.get(e)
        if not c:
            continue
        if not all(map(ge, e, lm)):
            raise InternalError("exact division left a nonzero remainder")
        shift = tuple(map(sub, e, lm))
        factor = c * lc_inv % p
        quo.append((shift, factor))
        for g_e, gc in g._terms.items():
            ee = tuple(map(add, shift, g_e))
            s = (work.get(ee, 0) - factor * gc) % p
            if s:
                if ee not in work:
                    heapq.heappush(heap, (keys[ee], ee))
                work[ee] = s
            else:
                work.pop(ee, None)
    return _sorted_poly(ring, quo)


def colon(I, K):
    """(I : K) = {r : rK in I}, with its reduced basis already set, as
    :func:`intersect` sets it; memoized on the ring and both generator
    lists inside a :func:`memo_scope` call.  Colon by the zero ideal returns
    the unit ideal with a warning, by convention, on every call."""
    if I.ring != K.ring:
        raise RingMismatchError("ideals live in different rings")
    ring = I.ring
    if not K.gens:
        warnings.warn("colon by the zero ideal: returning the unit ideal", ColonByZeroWarning)
        return unit_ideal(ring)
    quotient = Ideal(ring, _reused("colon", ring, (I.gens, K.gens), lambda: _colon_gens(I, K)))
    quotient._basis = quotient.gens  # already the reduced basis of (I : K)
    return quotient


def _colon_gens(I, K):
    """The reduced basis of (I : K), the intersection over g in K of
    (I : g), each (I : g) being (I intersect (g)) divided by g.

    The quotients h/g of the reduced basis of I intersect (g) are a minimal
    Groebner basis of (I : g): for f in (I : g) some lm(h) divides
    lm(f*g) = lm(f)*lm(g), and lm(h) = lm(h/g)*lm(g).  Made monic and
    interreduced, they are its reduced basis; for more than one g the last
    intersection returns the reduced basis."""
    ring = I.ring
    result = None
    for g in K.gens:
        meet = intersect(I, Ideal(ring, [g]))
        part = Ideal(ring, _interreduce([_monic(_exact_quotient(h, g)) for h in meet.gens]))
        part._basis = part.gens
        result = part if result is None else intersect(result, part)
    return result.gens


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
    """True iff f lies in the radical of I (auxiliary-variable trick)."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial and ideal live in different rings")
    ring = I.ring
    if f.is_zero():
        return True
    big = ring.extended(1)
    t = big.var(big.variables[-1])
    gens = [ring.lift(g, big) for g in I.gens]
    gens.append(big.one - t * ring.lift(f, big))
    return Ideal(big, gens).is_unit()
