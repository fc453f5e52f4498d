"""Sequence calculus on quotient rings: systems of parameters, d-sequences,
bounded unconditioned-strong-d-sequence verification, filter-regular
sequences, unmixed parts, limit ideals, and a machine-checkable identity
suite for unconditioned strong d-sequences.

Index conventions: sequence positions are 1-based in subsets ("Lambda")
passed to :func:`unmixed_part` and :func:`limit_ideal`; d-sequence
violations are reported as (j, k) with 0 <= j < k <= l, where j counts the
prefix length.  The sum over the empty subset is the zero ideal of R, i.e.
the defining ideal J as a preimage.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from collections import namedtuple

from .errors import BudgetExceededError, InternalError, RingMismatchError, UnstabilizedError
from .ideals import (
    Ideal,
    colon,
    ideal_contains,
    ideal_equal,
    ideal_member,
    ideal_sum,
    intersect,
    krull_dimension,
    memo_scope,
    radical_member,
    saturate,
    scale_ideal,
)


class SequenceSpec:
    """An ordered sequence x_1, ..., x_l of ring elements (representatives
    in the ambient polynomial ring) with a positive exponent vector.

    The effective sequence is x_i ** n_i; most operations act on it, while
    product denominators and colon divisors use the raw elements, matching
    the usual conventions for unmixed parts and limit ideals.  Each power
    x_i ** n is computed once (:meth:`power`), for this sequence and every
    sequence derived from it.
    """

    def __init__(self, R, elements, exponents=None):
        elements = tuple(elements)
        if not elements:
            raise ValueError("a sequence needs at least one element")
        for f in elements:
            if f.ring != R.ring:
                raise RingMismatchError("sequence element lies in a different ring")
            if R.reduce(f).is_zero():
                raise ValueError(f"sequence element is zero in the quotient ring: {f}")
        self.R = R
        self.elements = elements
        # {n: x_i ** n} for each element, shared by the derived sequences
        self._powers = tuple({} for _ in elements)
        self._set_exponents((1,) * len(elements) if exponents is None else exponents)

    def _set_exponents(self, exponents):
        exponents = tuple(exponents)
        if len(exponents) != len(self.elements):
            raise ValueError("exponent vector length must match the sequence length")
        if any(n < 1 for n in exponents):
            raise ValueError("exponents must be positive")
        self.exponents = exponents
        self._effective = None

    @property
    def length(self):
        return len(self.elements)

    def power(self, i, n):
        """x_i ** n for the 1-based position ``i``."""
        powers = self._powers[i - 1]
        f = powers.get(n)
        if f is None:
            f = powers[n] = self.elements[i - 1] ** n
        return f

    def effective(self):
        """The powered elements x_i ** n_i."""
        if self._effective is None:
            self._effective = tuple(self.power(i, n) for i, n in enumerate(self.exponents, 1))
        return self._effective

    def with_exponents(self, exponents):
        """The same elements under another exponent vector.  The elements
        were checked when this sequence was built, so only the vector is
        checked; the new sequence shares this one's element objects and
        powers."""
        out = copy.copy(self)
        out._set_exponents(exponents)
        return out

    def _check_subset(self, subset):
        for i in subset:
            if not 1 <= i <= len(self.elements):
                raise ValueError(f"sequence index {i} out of range 1..{len(self.elements)}")

    def subset_product(self, subset):
        """x_Lambda = product of the raw elements over a 1-based subset; 1 for the empty set."""
        self._check_subset(subset)
        f = self.R.ring.one
        for i in subset:
            f = f * self.elements[i - 1]
        return f

    def partial_ideal(self, subset):
        """Preimage of the R-ideal generated by the powered elements over a 1-based subset."""
        subset = list(subset)
        self._check_subset(subset)
        eff = self.effective()
        return self.R.preimage([eff[i - 1] for i in subset])

    def __repr__(self):
        inner = ", ".join(
            str(f) if n == 1 else f"({f})^{n}" for f, n in zip(self.elements, self.exponents)
        )
        return f"SequenceSpec[{inner}]"


# ---------------------------------------------------------------------------
# parameter tests


def is_system_of_parameters(x):
    """True iff the sequence has length dim R and generates an ideal primary
    to the irrelevant maximal ideal: a zero-dimensional ideal with every
    variable in its radical.  The dimension is read off the reduced basis
    of a + J, which rejects the unit ideal and every ideal of positive
    dimension before any radical test; each radical test then runs on a
    zero-dimensional ideal, so :func:`~fclosure.ideals.radical_member`
    decides it by a power of the variable modulo that same basis."""
    R = x.R
    if x.length != R.dimension:
        return False
    I = x.partial_ideal(range(1, x.length + 1))
    return krull_dimension(I) == 0 and all(radical_member(v, I) for v in R.ring.gens())


def is_subsystem_of_parameters(x):
    """True iff the sequence extends to a system of parameters, i.e. the
    dimension drops by exactly its length."""
    R = x.R
    if x.length > R.dimension:
        return False
    I = x.partial_ideal(range(1, x.length + 1))
    return krull_dimension(I) == R.dimension - x.length


# ---------------------------------------------------------------------------
# d-sequences


def _colon_by_power(I, f, m):
    """(I : f**m) as ``m`` colons by ``f``, one at a time, by the identity
    (I : ab) = ((I : a) : b) (Cox-Little-O'Shea, ch. 4 §4).  Each link
    divides by the low-degree ``f``, and the memo shares the links between
    chains."""
    divisor = Ideal(I.ring, [f])
    for _ in range(m):
        I = colon(I, divisor)
    return I


def _d_sequence_violation(x, order):
    """The first pair (j, k) violating the d-sequence condition for the
    sequence taken in the index ``order`` (0-based positions of ``x``), or
    None; j and k count positions in that order.

    Both colons are iterated by the raw elements: (prefix : x_k**n_k) by
    x_k, n_k times, and the pair colon (prefix : x_{j+1}**n_{j+1} x_k**n_k)
    as that one divided on by x_{j+1}, n_{j+1} times."""
    elements, exponents, powers = x.elements, x.exponents, x.effective()
    for j, first in enumerate(order):
        prefix = x.R.preimage([powers[i] for i in order[:j]])
        for k, i in enumerate(order[j:], start=j + 1):
            by_k = _colon_by_power(prefix, elements[i], exponents[i])
            if not ideal_equal(_colon_by_power(by_k, elements[first], exponents[first]), by_k):
                return j, k
    return None


def is_d_sequence(x):
    """Check ((x_1,...,x_j) : x_{j+1} x_k) = ((x_1,...,x_j) : x_k) for all
    0 <= j < k <= l, on the powered elements.  Returns (verdict, violation),
    the violation being the first failing pair (j, k) or None."""
    violation = _d_sequence_violation(x, range(x.length))
    return violation is None, violation


class UsdVerdict(namedtuple("UsdVerdict", "passed n_max witness", defaults=(None,))):
    """Outcome of the bounded unconditioned-strong-d-sequence check.

    A pass certifies the box [1, n_max]^l and all permutations only; it is
    never a proof of the unbounded property.  ``witness`` is None or a dict.
    """

    __slots__ = ()


@memo_scope
def is_usd_bounded(x, n_max):
    """Test every permutation of (x_1**m_1, ..., x_l**m_l) for every
    exponent vector in [1, n_max]^l against the d-sequence condition.  Each
    colon by a power or a product of the powers is iterated by the raw
    elements, one at a time (see :func:`_colon_by_power`), so the colons
    repeated across exponent vectors and permutations are computed once.
    Raises ``ValueError`` unless ``n_max >= 1``: the box would be empty."""
    if n_max < 1:
        raise ValueError(f"the exponent box bound n_max must be at least 1, not {n_max}")
    l = x.length
    cap = x.R.ring.config.usd_length_cap
    if l > cap:
        raise BudgetExceededError(
            f"sequence length {l} exceeds the permutation cap {cap}",
            kind="usd",
        )
    for box in itertools.product(range(1, n_max + 1), repeat=l):
        powered = x.with_exponents(box)
        for perm in itertools.permutations(range(l)):
            violation = _d_sequence_violation(powered, perm)
            if violation is not None:
                return UsdVerdict(
                    False,
                    n_max,
                    {"exponents": box, "permutation": perm, "pair": violation},
                )
    return UsdVerdict(True, n_max)


def is_filter_regular(x):
    """True iff each colon quotient ((x_1,...,x_{j-1}) : x_j) is contained
    in the saturation of the prefix by the maximal ideal."""
    a = x.R.maximal_ideal()
    eff = x.effective()
    for j in range(1, x.length + 1):
        prefix = x.partial_ideal(range(1, j))
        quotient = colon(prefix, Ideal(x.R.ring, [eff[j - 1]]))
        sat, _ = saturate(prefix, a)
        if not ideal_contains(sat, quotient):
            return False
    return True


# ---------------------------------------------------------------------------
# unmixed parts and limit ideals


def unmixed_part(x, subset):
    """((sum over Lambda of x_i**n_i) + J : sum over the complement of x_i R).

    For Lambda = [1, l] the divisor is the zero ideal; the colon-by-zero
    convention applies (unit ideal, with a warning).
    """
    subset = sorted(set(subset))
    base = x.partial_ideal(subset)
    rest = [x.elements[i - 1] for i in range(1, x.length + 1) if i not in subset]
    return colon(base, Ideal(x.R.ring, rest))


def limit_ideal(x, subset=None):
    """Stable value of the ascending chain ((sum x_i**(n_i+j)) + J : x_Lambda**j).

    Returns (ideal, j_star) where j_star is the first index at which two
    consecutive chain values agree.  The empty subset gives the zero ideal
    of R.  Raises UnstabilizedError (with the partial chain) at the
    iteration cap.
    """
    subset = sorted(set(subset)) if subset is not None else list(range(1, x.length + 1))
    if not subset:
        return x.R.zero_ideal(), 0
    prod = x.subset_product(subset)
    cap = x.R.ring.config.limit_chain_cap
    chain = []
    for j in range(cap + 1):
        bumped = [x.power(i, x.exponents[i - 1] + j) for i in subset]
        base = x.R.preimage(bumped)
        term = base if j == 0 else colon(base, Ideal(x.R.ring, [prod**j]))
        if chain:
            if not ideal_contains(term, chain[-1]):
                raise InternalError("limit-ideal chain failed to ascend")
            if ideal_equal(term, chain[-1]):
                return chain[-1], j - 1
        chain.append(term)
    raise UnstabilizedError(
        f"limit-ideal chain did not stabilize within {cap} steps",
        partial=chain,
    )


def limit_ideal_closed_form(x):
    """Closed form of the limit ideal, valid when the sequence is an
    unconditioned strong d-sequence (the caller certifies that, e.g. via
    ``is_usd_bounded``): (x_1**n_1) + (0 : x_1) for l = 1, and otherwise
    the sum over i of ((sum_{j != i} x_j**n_j) : x_i)."""
    l = x.length
    if l == 1:
        torsion = colon(x.R.zero_ideal(), Ideal(x.R.ring, [x.elements[0]]))
        return ideal_sum(x.partial_ideal([1]), torsion)
    parts = []
    for i in range(1, l + 1):
        others = x.partial_ideal([k for k in range(1, l + 1) if k != i])
        parts.append(colon(others, Ideal(x.R.ring, [x.elements[i - 1]])))
    return ideal_sum(*parts)


def limit_ideal_subset_decomposition(x):
    """Subset decomposition of the limit ideal for l >= 2 under the
    unconditioned-strong-d-sequence hypothesis: the sum over proper subsets
    Lambda of (prod_{i in Lambda} x_i**(n_i - 1)) times the unmixed part of
    (sum_{i in Lambda} x_i R)."""
    l = x.length
    if l < 2:
        raise ValueError("the subset decomposition needs a sequence of length at least 2")
    ones = x.with_exponents((1,) * l)
    return _subset_sum(x, _subsets(range(1, l + 1), l - 1), functools.partial(unmixed_part, ones))


def _subsets(items, max_size):
    """The subsets of ``items`` with at most ``max_size`` elements, by size."""
    return [c for size in range(max_size + 1) for c in itertools.combinations(items, size)]


def _subset_sum(x, subsets, unmixed):
    """J + the sum over Lambda in ``subsets`` of x_Lambda**(n - 1) * U(Lambda),
    the exponents n_i taken from ``x`` and U(Lambda) = ``unmixed(Lambda)``."""
    parts = [x.R.J]
    for subset in subsets:
        powers = (x.power(i, x.exponents[i - 1] - 1) for i in subset)
        mult = math.prod(powers, start=x.R.ring.one)
        parts.append(scale_ideal(mult, unmixed(subset)))
    return ideal_sum(*parts)


# ---------------------------------------------------------------------------
# identity suite


CheckRecord = namedtuple("CheckRecord", "identity params passed detail", defaults=("",))


class SuiteReport(
    namedtuple("SuiteReport", "sequence n_max hypothesis_verified identities checks")
):
    __slots__ = ()

    def __new__(cls, sequence, n_max, hypothesis_verified, identities, checks=None):
        checks = [] if checks is None else checks
        return super().__new__(cls, sequence, n_max, hypothesis_verified, identities, checks)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_dict(self):
        return {
            "sequence": self.sequence,
            "n_max": self.n_max,
            "hypothesis_verified": self.hypothesis_verified,
            "identities": list(self.identities),
            "all_passed": self.all_passed,
            "checks": [
                {
                    "identity": c.identity,
                    "params": {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(c.params.items())},
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


ALL_IDENTITIES = (
    "colon_unmixed",
    "colon_power",
    "limit_forms",
    "limit_product",
    "limit_decomposition",
    "intersection_prefix",
    "intersection_unmixed",
)


@memo_scope
def verify_identity_suite(x, n_max, identities=None):
    """Machine verification of the colon/limit/intersection identities that
    hold for unconditioned strong d-sequences, over every exponent vector
    in [1, n_max]^l and every proper subset.

    The hypothesis itself is only box-checked; when it fails, the suite
    still runs and the report carries ``hypothesis_verified = False``.
    Raises ``ValueError`` unless ``n_max >= 1``, through that box check.
    """
    identities = tuple(identities) if identities else ALL_IDENTITIES
    l = x.length
    R = x.R
    verdict = is_usd_bounded(x, n_max)
    report = SuiteReport(repr(x), n_max, verdict.passed, identities)
    checks = report.checks

    def fail_detail(lhs, rhs):
        return f"lhs = ({lhs}); rhs = ({rhs})"

    def check(identity, params, pairs):
        """Record a check that passes iff every (lhs, rhs) pair is equal;
        every pair is compared, and the first unequal one gives the detail."""
        unequal = [pair for pair in pairs if not ideal_equal(*pair)]
        detail = fail_detail(*unequal[0]) if unequal else ""
        checks.append(CheckRecord(identity, params, not unequal, detail))

    unit_unmixed = functools.partial(unmixed_part, x.with_exponents((1,) * l))
    limit_identities = [
        name
        for name in ("limit_forms", "limit_product", "limit_decomposition")
        if name in identities and (l >= 2 or name != "limit_decomposition")
    ]
    indices = list(range(1, l + 1))
    proper_subsets = _subsets(indices, l - 1)

    for n in itertools.product(range(1, n_max + 1), repeat=l):
        xn = x.with_exponents(n)
        total = xn.partial_ideal(indices)

        if "colon_unmixed" in identities or "colon_power" in identities:
            for delta in proper_subsets:
                base = xn.partial_ideal(delta)
                if "colon_unmixed" in identities:
                    sum_form = _subset_sum(xn, _subsets(delta, len(delta)), unit_unmixed)
                    unmixed = unmixed_part(xn, delta)
                for j in [j for j in indices if j not in delta]:
                    params = {"n": n, "delta": delta, "j": j}
                    by_xj = colon(base, Ideal(R.ring, [x.elements[j - 1]]))
                    if "colon_unmixed" in identities:
                        check("colon_unmixed", params, [(unmixed, by_xj), (by_xj, sum_form)])
                    if "colon_power" in identities:
                        # (base : x_j**n_j), iterated on from (base : x_j)
                        by_power = _colon_by_power(by_xj, x.elements[j - 1], n[j - 1] - 1)
                        check("colon_power", params, [(by_power, by_xj)])

        if limit_identities:
            try:
                lim, _ = limit_ideal(xn)
            except UnstabilizedError as exc:
                for name in limit_identities:
                    checks.append(CheckRecord(name, {"n": n}, False, str(exc)))
            else:
                if "limit_forms" in identities:
                    check("limit_forms", {"n": n}, [(lim, limit_ideal_closed_form(xn))])
                if "limit_product" in identities:
                    prod = xn.subset_product(indices)
                    bumped = R.preimage([x.power(i, n[i - 1] + 1) for i in indices])
                    ok = all(ideal_member(prod * g, bumped) for g in lim.basis())
                    detail = "" if ok else fail_detail(scale_ideal(prod, lim), bumped)
                    checks.append(CheckRecord("limit_product", {"n": n}, ok, detail))
                if "limit_decomposition" in limit_identities:
                    decomp = limit_ideal_subset_decomposition(xn)
                    check("limit_decomposition", {"n": n}, [(lim, decomp)])

        if "intersection_prefix" in identities:
            for r in range(l):
                prefix = xn.partial_ideal(range(1, r + 1))
                quotient = _colon_by_power(prefix, x.elements[r], n[r])
                lhs = intersect(quotient, total)
                check("intersection_prefix", {"n": n, "r": r}, [(lhs, prefix)])

        if "intersection_unmixed" in identities:
            for lam in proper_subsets:
                lhs = intersect(unmixed_part(xn, lam), total)
                rhs = xn.partial_ideal(lam)
                check("intersection_unmixed", {"n": n, "lambda": lam}, [(lhs, rhs)])

    return report
