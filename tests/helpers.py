"""Shared test utilities: seeded random generators and the independent
linear-algebra oracles used to cross-check the Groebner and Frobenius
engines."""

from __future__ import annotations

import itertools

import numpy as np

from fclosure.ideals import Ideal, normal_form


def random_poly(rng, ring, max_degree=3, max_terms=4, homogeneous=False):
    n = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        total = max_degree if homogeneous else rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(total):
            exps[rng.randrange(n)] += 1
        c = rng.randrange(1, ring.p) if ring.p > 2 else 1
        terms[tuple(exps)] = (terms.get(tuple(exps), 0) + c) % ring.p
    return ring.poly(terms)


def random_nonzero_poly(rng, ring, **kw):
    while True:
        f = random_poly(rng, ring, **kw)
        if not f.is_zero():
            return f


def random_ideal(rng, ring, max_gens=3, **kw):
    gens = [random_nonzero_poly(rng, ring, **kw) for _ in range(rng.randint(1, max_gens))]
    return Ideal(ring, gens)


def s_polynomial(f, g):
    """The S-polynomial of the monic ``f`` and ``g`` by ring arithmetic."""
    ring = f.ring
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(map(max, lf, lg))
    mf = ring.monomial(tuple(a - b for a, b in zip(lcm, lf)))
    mg = ring.monomial(tuple(a - b for a, b in zip(lcm, lg)))
    return mf * f - mg * g


def remainder(f, divisors):
    """The remainder of ``f`` on division by the monic ``divisors`` in the
    order given: the normal form modulo an ideal whose basis is set to them."""
    I = Ideal(f.ring, divisors)
    I._basis = tuple(divisors)
    return normal_form(f, I)


def monomials_up_to(n, degree):
    out = []
    for exps in itertools.product(range(degree + 1), repeat=n):
        if sum(exps) <= degree:
            out.append(exps)
    return sorted(out)


def _row_reduce_mod_p(M, p):
    """In-place Gauss-Jordan elimination over F_p; returns (rank, pivot columns)."""
    M %= p
    rows, cols = M.shape
    r = 0
    pivots = []
    for c in range(cols):
        below = np.flatnonzero(M[r:, c])
        if not below.size:
            continue
        pivot = r + below[0]
        if pivot != r:
            M[[r, pivot]] = M[[pivot, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        # rows r and below are zero left of column c, so only columns >= c change
        M[r, c:] = (M[r, c:] * inv) % p
        hit = np.flatnonzero(M[:, c])
        hit = hit[hit != r]
        M[hit, c:] = (M[hit, c:] - np.outer(M[hit, c], M[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return r, pivots


def linear_membership_oracle(f, I, degree_margin=2):
    """Degree-bounded certificate for f in I: solvability of
    f = sum h_i g_i with deg h_i <= deg f + max deg g_i + degree_margin.

    Sound for membership confirmation; a 'False' only means no certificate
    exists at this degree bound.
    """
    ring = f.ring
    p = ring.p
    gens = I.gens
    if not gens:
        return f.is_zero()
    if f.is_zero():
        return True
    D = f.total_degree() + max(g.total_degree() for g in gens) + degree_margin
    mult_degree = max(D - min(g.total_degree() for g in gens), 0)
    mults = monomials_up_to(len(ring.variables), mult_degree)
    row_support = set(f._terms)
    col_polys = []
    for g in gens:
        for m in mults:
            w = g * ring.monomial(m)
            col_polys.append(w)
            row_support.update(w._terms)
    row_index = {e: i for i, e in enumerate(sorted(row_support))}
    A = np.zeros((len(row_index), len(col_polys) + 1), dtype=np.int64)
    for j, w in enumerate(col_polys):
        for e, c in w._terms.items():
            A[row_index[e], j] = c
    for e, c in f._terms.items():
        A[row_index[e], len(col_polys)] = c
    rank_aug, pivots = _row_reduce_mod_p(A, p)
    # solvable iff no pivot lands in the augmented column
    return len(col_polys) not in pivots


def kernel_preimage_oracle(I, e, degree):
    """{r : r**(p**e) in I} restricted to degree <= ``degree``, by solving
    the linear system NF(sum c_B x**(q B)) = 0 over F_p.

    Every returned generator carries the membership certificate by
    construction; completeness holds up to the degree bound.
    """
    ring = I.ring
    p = ring.p
    q = p**e
    cand = monomials_up_to(len(ring.variables), degree)
    nfs = []
    row_support = set()
    for B in cand:
        w = normal_form(ring.monomial(tuple(q * b for b in B)), I)
        nfs.append(w)
        row_support.update(w._terms)
    row_index = {t: i for i, t in enumerate(sorted(row_support))}
    A = np.zeros((max(len(row_index), 1), len(cand)), dtype=np.int64)
    for j, w in enumerate(nfs):
        for t, c in w._terms.items():
            A[row_index[t], j] = c
    M = A.copy()
    _rank, pivots = _row_reduce_mod_p(M, p)
    free = [j for j in range(len(cand)) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * len(cand)
        vec[j] = 1
        for r_i, c_i in enumerate(pivots):
            vec[c_i] = int(-M[r_i, j]) % p
        basis.append(ring.poly({cand[k]: vec[k] for k in range(len(cand)) if vec[k]}))
    return Ideal(ring, basis)


def closure_chain_oracle(a, R, e_max, degree):
    """Brute-force closure chain: each stage is the degree-bounded kernel
    preimage of a^[p**e] + J, with stabilization detected by ideal equality.

    Returns the list of chain stages F_0, ..., F_{e_max}.
    """
    from fclosure.frobenius import frobenius_power
    from fclosure.ideals import ideal_sum

    base = ideal_sum(a, R.J)
    chain = []
    for e in range(e_max + 1):
        stage = ideal_sum(frobenius_power(base, e), R.J)
        chain.append(kernel_preimage_oracle(stage, e, degree))
    return chain


def q_exponent_oracle(a, closure, R, e_max):
    """Scan for the least e with (closure)^[p**e] + J = a^[p**e] + J using
    only normal-form membership."""
    from fclosure.frobenius import frobenius_power
    from fclosure.ideals import ideal_equal, ideal_sum

    base = ideal_sum(a, R.J)
    for e in range(e_max + 1):
        lhs = ideal_sum(frobenius_power(closure, e), R.J)
        rhs = ideal_sum(frobenius_power(base, e), R.J)
        if ideal_equal(lhs, rhs):
            return e
    return None
