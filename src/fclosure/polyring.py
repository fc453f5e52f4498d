"""Sparse multivariate polynomial arithmetic over the prime field F_p.

Monomials are exponent tuples, coefficients are canonical integers in
[0, p-1], and every polynomial is kept in canonical form (no zero
coefficients, distinct monomials).  Values are immutable after construction
and safe to share across threads; all operations are pure functions.

The base-p digit split of exponents (``frobenius_decompose``) is exact
because coefficients live in the prime field, where c**p == c.
"""

from __future__ import annotations

import re
from operator import mul, neg

from .config import DEFAULT_CONFIG
from .errors import BudgetExceededError, ParseError, RingMismatchError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))")


def is_prime(p):
    """Deterministic primality test for moduli up to 2**31 - 1."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class MonomialOrder:
    """A monomial order: total, multiplicative, with 1 minimal.

    ``kind`` is ``"grevlex"`` or ``"lex"``; the variable priority is the
    ring's declared variable order.  Comparison goes through :meth:`key`,
    which maps an exponent tuple to a tuple ordered lexicographically.
    """

    __slots__ = ("kind",)

    def __init__(self, kind="grevlex"):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        self.kind = kind

    def key(self, exps):
        if self.kind == "grevlex":
            # higher total degree wins; ties: smaller last differing exponent wins
            return (sum(exps), *map(neg, exps[::-1]))
        return tuple(exps)

    def rows(self, n):
        """:meth:`key` on ``n`` variables as a matrix: entry k of the key of
        ``exps`` is the dot product of row k with ``exps``."""
        if self.kind == "grevlex":
            return [(1,) * n] + [_unit(n, i, -1) for i in reversed(range(n))]
        return [_unit(n, i, 1) for i in range(n)]

    def weights(self, n, base):
        """Integer weights w with sum(w_i * e_i) the key of ``e`` read as a
        base-``base`` numeral, one key entry per digit.  No key entry after
        the first exceeds the total degree in size, so for every ``e`` of
        total degree below ``base / 2`` the digits are balanced and these
        sums compare as the keys do; the sum is linear in ``e``."""
        w = (0,) * n
        for row in self.rows(n):
            w = tuple(a * base + r for a, r in zip(w, row))
        return w

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and type(other) is type(self) and self.kind == other.kind

    def __hash__(self):
        return hash((type(self).__name__, self.kind))

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


class BlockOrder(MonomialOrder):
    """Product order: the last ``aux`` variables dominate, compared by
    grevlex, then the leading block is compared by ``base``.

    Used internally for elimination of auxiliary variables; an elimination
    order for the tail block for any base order.  With ``weight`` set, the
    row (weight, ..., weight, 1, ..., 1), ``weight`` on the leading block and
    1 on the tail, is compared first.  That order eliminates the tail only
    within one weighted degree, so it serves ideals that are homogeneous for
    those degrees.
    """

    __slots__ = ("base", "split", "weight")

    def __init__(self, base, split, weight=None):
        self.kind = "block"
        self.base = base
        self.split = split  # number of leading (kept) variables
        self.weight = weight

    def key(self, exps):
        # entry k is row k of rows() dotted with exps
        return tuple(sum(map(mul, row, exps)) for row in self.rows(len(exps)))

    def rows(self, n):
        # the weight row if set, the aux tail by grevlex, then the base
        # order's rows on the leading block
        m = n - self.split
        head, tail = (0,) * self.split, (0,) * m
        aux = [head + row for row in MonomialOrder("grevlex").rows(m)]
        rows = aux + [row + tail for row in self.base.rows(self.split)]
        if self.weight:
            rows.insert(0, (self.weight,) * self.split + (1,) * m)
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, BlockOrder)
            and self.base == other.base
            and self.split == other.split
            and self.weight == other.weight
        )

    def __hash__(self):
        return hash(("block", self.base, self.split, self.weight))

    def __repr__(self):
        return f"BlockOrder(base={self.base!r}, split={self.split}, weight={self.weight})"


def _unit(n, i, c):
    """The length-``n`` tuple with ``c`` at index ``i`` and 0 elsewhere."""
    return tuple(c if j == i else 0 for j in range(n))


def monomial_compare(m1, m2, order):
    """Compare exponent tuples under ``order``; returns -1, 0 or 1."""
    if len(m1) != len(m2):
        raise ValueError(f"monomial length mismatch: {len(m1)} vs {len(m2)}")
    k1, k2 = order.key(tuple(m1)), order.key(tuple(m2))
    return (k1 > k2) - (k1 < k2)


class PolyRing:
    """F_p[x_1, ..., x_n] with a fixed monomial order.

    ``config`` holds the budgets of every computation on the ring's ideals;
    :meth:`extended` rings inherit it.
    """

    __slots__ = ("p", "variables", "order", "config", "_var_index")

    def __init__(self, p, variables, order="grevlex", config=None):
        # range first: trial division up to sqrt(p) is slow for a huge modulus
        if p > 2**31 - 1 or not is_prime(p):
            raise ValueError(f"modulus not prime (or out of range): {p}")
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial ring needs at least one variable")
        for name in variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        self._init(p, variables, order, config)

    def _init(self, p, variables, order, config):
        """Set the fields from arguments that are already validated."""
        self.p = p
        self.variables = variables
        self.order = order if isinstance(order, MonomialOrder) else MonomialOrder(order)
        self.config = config or DEFAULT_CONFIG
        self._var_index = {name: i for i, name in enumerate(variables)}

    # -- construction -----------------------------------------------------

    def poly(self, terms):
        """Canonicalize a {exponent tuple: int} mapping into a Polynomial."""
        p = self.p
        n = len(self.variables)
        clean = {}
        for exps, c in terms.items():
            c %= p
            if c:
                if len(exps) != n:
                    raise ValueError("exponent tuple has wrong length")
                clean[tuple(exps)] = c
        return Polynomial(self, clean)

    # built on each access: a cached value would point back at its ring and
    # keep every elimination ring alive as cyclic garbage
    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return self.constant(1)

    def constant(self, c):
        c %= self.p
        return Polynomial(self, {(0,) * len(self.variables): c} if c else {})

    def var(self, name):
        try:
            i = self._var_index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None
        return self.monomial(tuple(1 if j == i else 0 for j in range(len(self.variables))))

    def gens(self):
        return tuple(self.var(name) for name in self.variables)

    def monomial(self, exps, coeff=1):
        return self.poly({tuple(exps): coeff})

    def parse(self, text):
        return _Parser(text, self).parse()

    # -- elimination support ---------------------------------------------

    def extended(self, n_aux, weight=None):
        """Ring with ``n_aux`` dominant auxiliary variables appended.

        Its block order eliminates them: on this ring
        :func:`~fclosure.ideals.groebner_basis` returns the reduced basis of
        the elimination ideal (the aux-free elements of the full reduced
        basis) and nothing else.  A ``weight`` puts the row (weight, ...,
        weight, 1, ..., 1) in front of the block order (see
        :class:`BlockOrder`); it eliminates only on ideals homogeneous for
        those degrees.

        Built without re-validating: the modulus was checked when this ring
        was, and the auxiliary names are valid and new."""
        aux = []
        i = 0
        while len(aux) < n_aux:
            name = f"_t{i}"
            if name not in self._var_index:
                aux.append(name)
            i += 1
        big = PolyRing.__new__(PolyRing)
        big._init(
            self.p,
            self.variables + tuple(aux),
            BlockOrder(self.order, len(self.variables), weight),
            self.config,
        )
        return big

    def lift(self, f, big):
        """Re-express ``f`` in the extended ring ``big`` (zero aux exponents)."""
        pad = (0,) * (len(big.variables) - len(self.variables))
        return Polynomial(big, {exps + pad: c for exps, c in f._terms.items()})

    def project(self, f):
        """Drop auxiliary exponents of an aux-free polynomial of an extension.

        The extension orders aux-free monomials of one degree by this ring's
        order, and all of them so unless it is weighted; the result keeps
        ``f``'s sorted terms, so ``f`` must be homogeneous on a weighted
        extension."""
        n = len(self.variables)
        terms = []
        for exps, c in f.terms_sorted():
            if any(exps[n:]):
                raise ValueError("polynomial involves auxiliary variables")
            terms.append((exps[:n], c))
        g = Polynomial(self, dict(terms))
        g._sorted = terms
        return g

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True  # nearly every comparison: an ideal against its own ring
        return (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.p, self.variables, self.order))

    def __repr__(self):
        return f"PolyRing(p={self.p}, variables={list(self.variables)}, order={self.order.kind})"


class Polynomial:
    """Canonical sparse polynomial: dict of exponent tuple -> coeff in [1, p-1].

    Never mutate ``_terms``; build new values through the arithmetic
    operators or the ring constructors.
    """

    __slots__ = ("ring", "_terms", "_sorted", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self._terms = terms
        self._sorted = None
        self._hash = None

    # -- views -------------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return all(not any(e) for e in self._terms)

    def terms_sorted(self):
        """Terms as (exponents, coefficient) pairs, descending in the ring order."""
        if self._sorted is None:
            key = self.ring.order.key
            self._sorted = sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)
        return self._sorted

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), 0)

    def leading_monomial(self):
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.terms_sorted()[0][0]

    def leading_coeff(self):
        if not self._terms:
            return 0
        return self.terms_sorted()[0][1]

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(sum, self._terms))

    def is_homogeneous(self):
        """True when every term has the same total degree (the zero
        polynomial included) in the standard grading."""
        return len(set(map(sum, self._terms))) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError("polynomials belong to different rings")

    def __add__(self, other):
        self._check(other)
        p = self.ring.p
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = (terms.get(e, 0) + c) % p
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.ring, terms)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if not c:
                return self.ring.zero
            p = self.ring.p
            return Polynomial(self.ring, {e: (c * v) % p for e, v in self._terms.items()})
        self._check(other)
        p = self.ring.p
        acc = {}
        small, large = self._terms, other._terms
        if len(small) > len(large):
            small, large = large, small
        for e1, c1 in small.items():
            for e2, c2 in large.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = (acc.get(e, 0) + c1 * c2) % p
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return Polynomial(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        ring = self.ring
        degree = self.total_degree() * n  # deg(f^n) = n*deg(f) over a domain
        if degree > ring.config.max_poly_degree:
            raise BudgetExceededError(
                f"power {n} exceeded the degree budget {ring.config.max_poly_degree}", kind="degree"
            )
        # split n in base p: over F_p the p**e-th powers are termwise
        p = ring.p
        result = ring.one
        e = 0
        while n:
            digit = n % p
            if digit:
                result = result * self.frobenius(e)._pow_binary(digit)
            n //= p
            e += 1
        return result

    def _pow_binary(self, n):
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def frobenius(self, e=1):
        """The p**e-th power, computed termwise (exact over the prime field).
        Like every polynomial the engine builds, it may not exceed the ring's
        degree budget."""
        if e < 0:
            raise ValueError("Frobenius exponent must be non-negative")
        if e == 0:
            return self
        config = self.ring.config
        q = self.ring.p**e
        degree = self.total_degree() * q
        if degree > config.max_poly_degree:
            raise BudgetExceededError(
                f"Frobenius power p**{e} exceeded the degree budget {config.max_poly_degree}",
                kind="degree",
            )
        return Polynomial(self.ring, {tuple(q * x for x in exps): c for exps, c in self._terms.items()})

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __str__(self):
        if not self._terms:
            return "0"
        names = self.ring.variables
        parts = []
        for exps, c in self.terms_sorted():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F_{self.ring.p}>"


def parse_polynomial(text, ring):
    """Parse ``text`` in the polynomial grammar; see the package README."""
    return ring.parse(text)


class _Parser:
    """Recursive descent for:  expr := ['-'] term {('+'|'-') term};
    term := factor {'*' factor};  factor := atom ['^' int];
    atom := int | var | '(' expr ')'.  Juxtaposition is not multiplication.
    """

    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ParseError(f"syntax error at position {at}: unexpected {stripped[0]!r}", at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"syntax error at position {pos}: expected {op!r}", pos)

    def parse(self):
        if not self.tokens:
            raise ParseError("empty polynomial expression", 0)
        f = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"syntax error at position {pos}: unexpected {val!r}", pos)
        return f

    def expr(self):
        negate = False
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            negate = True
        f = self.term()
        if negate:
            f = -f
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                g = self.term()
                f = f + g if val == "+" else f - g
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                f = f * self.factor()
            else:
                return f

    def factor(self):
        f = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k, v, pos = self.take()
            if k != "int":
                raise ParseError(f"syntax error at position {pos}: exponent must be an integer", pos)
            f = f**int(v)
        return f

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.ring.constant(int(val))
        if kind == "name":
            if val not in self.ring._var_index:
                raise ParseError(f"unknown variable {val!r} at position {pos}", pos)
            return self.ring.var(val)
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        what = "end of input" if kind is None else repr(val)
        raise ParseError(f"syntax error at position {pos}: unexpected {what}", pos)


def frobenius_decompose(f, e):
    """Split f = sum_alpha g_alpha**(p**e) * x**alpha with alpha in [0, p**e)^n.

    Returns {alpha: g_alpha} containing only the nonzero components.  Each
    monomial of ``f`` routes to the unique alpha given by its exponents mod
    p**e; coefficients carry over unchanged because c**(p**e) == c in F_p.
    """
    ring = f.ring
    if e < 0:
        raise ValueError("Frobenius exponent must be non-negative")
    if e == 0:
        return {} if f.is_zero() else {(0,) * len(ring.variables): f}
    q = ring.p**e
    buckets = {}
    for exps, c in f._terms.items():
        alpha = tuple(x % q for x in exps)
        base = tuple(x // q for x in exps)
        buckets.setdefault(alpha, {})[base] = c
    return {alpha: Polynomial(ring, terms) for alpha, terms in sorted(buckets.items())}
