"""Ring-description files, built-in example rings, parameter-ideal
sampling, the uniform-Q survey, and suite dispatch with deterministic,
machine-readable reports.

Report determinism contract: identical inputs and seed produce
byte-identical serialized reports; indeterminate outcomes (unstabilized
chains, exhausted budgets) are recorded per ideal with their cause, never
dropped.
"""

from __future__ import annotations

import itertools
import json
import random
import warnings
from dataclasses import dataclass, field

from .errors import (
    BudgetExceededError,
    FClosureError,
    ParseError,
    RingMismatchError,
    UnstabilizedError,
)
from .frobenius import (
    QuotientRing,
    frobenius_closure,
    frobenius_power,
    q_exponent,
)
from .genfrac import hsl_exponent, is_zero_in_cohomology, make_elem, t_action
from .ideals import Ideal, ideal_equal, ideal_sum, memo_scope
from .polyring import PolyRing
from .sequences import (
    SequenceSpec,
    is_subsystem_of_parameters,
    is_system_of_parameters,
    is_usd_bounded,
    unmixed_part,
    verify_identity_suite,
)


# a built-in ring is a ring file without its ``char`` line, which the
# caller's characteristic or the ring's default supplies
_BUILTINS = {
    "REG": (5, ("vars x y z",)),
    "NILLINE": (2, ("vars x y", "rel x^2")),
    "TWOPLANES": (2, ("vars x y z w", "rel x*z", "rel x*w", "rel y*z", "rel y*w")),
    "FERMAT3": (5, ("vars x y z", "rel x^3 + y^3 + z^3")),
}


def builtin_ring(name, p=None, config=None):
    """One of the built-in example rings: REG, NILLINE, TWOPLANES, FERMAT3,
    in characteristic ``p``, or in the ring's default one when ``p`` is
    ``None``.  Raises ``ValueError`` for an unknown name or a
    characteristic that is not a prime in range."""
    try:
        default, lines = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown built-in ring {name!r}") from None
    if p is None:
        p = default
    if name == "FERMAT3" and p % 3 != 2:
        raise ValueError("FERMAT3 needs a characteristic congruent to 2 mod 3")
    return _read_ring((f"char {p}", *lines), name, config)


def load_ring(path, config=None):
    """Parse a ring-description file.

    Line format: ``char <p>``, ``vars <name> <name> ...``, zero or more
    ``rel <polynomial>`` lines; ``#`` begins a comment.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    try:
        return _read_ring(lines, path, config)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_ring(lines, where, config):
    """The quotient ring that the ring-file ``lines`` describe (see
    :func:`load_ring`); an error of a line is located at ``where:line``."""
    p = None
    variables = None
    relations = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if (head == "char" and p is not None) or (head == "vars" and variables is not None):
            raise ParseError(f"{where}:{lineno}: repeated {head!r} line")
        if head == "char":
            try:
                p = int(rest)
            except ValueError:
                raise ParseError(f"{where}:{lineno}: malformed characteristic {rest!r}")
        elif head == "vars":
            variables = tuple(rest.split())
            if not variables:
                raise ParseError(f"{where}:{lineno}: no variables given")
        elif head == "rel":
            if p is None or variables is None:
                raise ParseError(f"{where}:{lineno}: 'rel' before 'char'/'vars'")
            relations.append((lineno, rest))
        else:
            raise ParseError(f"{where}:{lineno}: unknown directive {head!r}")
    if p is None:
        raise ParseError(f"{where}: missing 'char' line")
    if variables is None:
        raise ParseError(f"{where}: missing 'vars' line")
    ring = PolyRing(p, variables, config=config)
    rels = []
    for lineno, text in relations:
        try:
            rels.append(ring.parse(text))
        except FClosureError as exc:
            # located at its line, keeping its type and its fields
            exc.args = (f"{where}:{lineno}: {exc}",)
            raise
    R = QuotientRing(ring, rels)
    if R.dimension == 0:
        warnings.warn("the quotient ring has dimension 0", stacklevel=3)
    return R


def resolve_ring(name_or_path, p=None, config=None):
    """A built-in ring by name, else a ring file; ``p`` applies to built-in
    rings only, since a file's ``char`` line sets its characteristic."""
    if name_or_path in _BUILTINS:
        return builtin_ring(name_or_path, p, config)
    if p is not None:
        raise ValueError(
            f"characteristic {p} given for the ring file {name_or_path}: "
            "it applies to built-in rings only"
        )
    return load_ring(name_or_path, config)


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SurveyConfig:
    sample_count: int = 50
    seed: int = 0
    max_degree: int = 1
    lengths: object = "all"  # subsystem lengths to draw, or "all" for 1..dim
    e_max: int = 4
    lookahead: int = 2
    n_max: int = 3

    def resolved_lengths(self, t):
        if self.lengths == "all":
            return tuple(range(1, t + 1))
        if not self.lengths:
            raise ValueError(f"no subsystem length given; choose from 1..{t}")
        for i, j in enumerate(self.lengths):
            if not 1 <= j <= t:
                raise ValueError(f"subsystem length {j} is outside 1..{t}")
            if j in self.lengths[:i]:
                raise ValueError(f"subsystem length {j} is given twice")
        return tuple(self.lengths)


@dataclass
class SampleBatch:
    sequences: list
    attempts: int
    rejected: int

    def stats(self):
        return {"attempts": self.attempts, "rejected": self.rejected,
                "accepted": len(self.sequences)}


def _check_sample_count(cfg):
    if cfg.sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, not {cfg.sample_count}")


def _degree_monomials(ring, max_degree):
    n = len(ring.variables)
    out = []
    for total in range(1, max_degree + 1):
        for exps in itertools.product(range(total + 1), repeat=n):
            if sum(exps) == total:
                out.append(exps)
    return sorted(out)


def _random_element(ring, rng, monomials, R):
    for _ in range(64):
        terms = {e: rng.randrange(ring.p) for e in monomials}
        f = ring.poly(terms)
        if not f.is_zero() and not R.reduce(f).is_zero():
            return f
    raise FClosureError("could not draw a nonzero element")


@memo_scope
def sample_parameter_ideals(R, cfg):
    """Deterministic sample of (sub)systems of parameters: random
    degree-bounded combinations of the variables, filtered through the
    parameter tests.  Identical seeds give identical samples.  Raises
    ``ValueError`` unless ``sample_count >= 1`` and ``max_degree >= 1``:
    the sample would be empty, or drawn from no monomial."""
    _check_sample_count(cfg)
    if cfg.max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, not {cfg.max_degree}")
    if R.dimension <= 0:
        raise ValueError("parameter sampling needs a ring of positive dimension")
    rng = random.Random(cfg.seed)
    monomials = _degree_monomials(R.ring, cfg.max_degree)
    lengths = cfg.resolved_lengths(R.dimension)
    quotas = {}
    base, extra = divmod(cfg.sample_count, len(lengths))
    for i, j in enumerate(lengths):
        quotas[j] = base + (1 if i < extra else 0)
    sequences = []
    attempts = 0
    for j in lengths:
        found = 0
        budget = R.ring.config.sample_retry_factor * max(quotas[j], 1)
        tries = 0
        while found < quotas[j]:
            tries += 1
            attempts += 1
            if tries > budget:
                raise BudgetExceededError(
                    f"could not find {quotas[j]} parameter sequences of length {j} "
                    f"within {budget} attempts",
                    kind="sampling",
                )
            elems = [_random_element(R.ring, rng, monomials, R) for _ in range(j)]
            seq = SequenceSpec(R, elems)
            ok = (
                is_system_of_parameters(seq)
                if j == R.dimension
                else is_subsystem_of_parameters(seq)
            )
            if ok:
                sequences.append(seq)
                found += 1
    return SampleBatch(sequences, attempts, attempts - len(sequences))


# ---------------------------------------------------------------------------
# uniform-Q survey


@dataclass
class QReport:
    """Per-ideal closure/Q records plus aggregate statistics."""

    ring: str
    survey: dict
    sampler: dict
    records: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    @property
    def all_stabilized(self):
        return all(r.get("status") == "ok" for r in self.records)

    def to_dict(self):
        return {
            "ring": self.ring,
            "survey": self.survey,
            "sampler": self.sampler,
            "records": self.records,
            "aggregate": self.aggregate,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@memo_scope
def survey_uniform_q(R, cfg):
    """Closure and minimal test exponent for each sampled parameter ideal;
    the aggregate maximum Q over certified records is the empirical witness
    for a uniform exponent at the examined scale."""
    batch = sample_parameter_ideals(R, cfg)
    records = []
    histogram = {}
    max_q = None
    failures = 0
    for index, seq in enumerate(batch.sequences):
        ideal = R.preimage(seq.effective())
        record = {
            "index": index,
            "length": seq.length,
            "generators": [str(g) for g in seq.effective()],
        }
        try:
            closure = frobenius_closure(ideal, R, e_max=cfg.e_max, lookahead=cfg.lookahead)
            record["closure"] = [str(g) for g in closure.closure.basis()]
            record["e_star"] = closure.e_star
            record["certified_lower"] = closure.certified_lower
            record["examined_e"] = closure.examined_e
            if not closure.stabilized:
                record["status"] = "unstabilized"
                failures += 1
            else:
                # the chain ascends inside a^F, so (a^F)^[p^e] lies in
                # a^[p^e] + J exactly when F_e = a^F: Q(a) = p^(e*)
                q = R.p**closure.e_star
                record["status"] = "ok"
                record["q_exponent_e"] = closure.e_star
                record["q_exponent"] = q
                histogram[str(q)] = histogram.get(str(q), 0) + 1
                if max_q is None or q > max_q:
                    max_q = q
        except (UnstabilizedError, BudgetExceededError) as exc:
            record["status"] = "error"
            record["cause"] = str(exc)
            failures += 1
        records.append(record)
    report = QReport(
        ring=repr(R),
        survey={
            "sample_count": cfg.sample_count,
            "seed": cfg.seed,
            "max_degree": cfg.max_degree,
            "lengths": list(cfg.resolved_lengths(R.dimension)),
            "e_max": cfg.e_max,
            "lookahead": cfg.lookahead,
        },
        sampler=batch.stats(),
        records=records,
    )
    report.aggregate = {
        "max_q": max_q,
        "histogram": histogram,
        "indeterminate": failures,
        "certified": sum(1 for r in records if r.get("status") == "ok"),
    }
    return report


# ---------------------------------------------------------------------------
# suite dispatch


def _fixedq_suite(R, x, cfg):
    """Sample fraction numerators from the unmixed parts of the parameter
    prefixes, measure per-element torsion exponents, and re-test every
    torsion element at the maximum found exponent."""
    rng = random.Random(cfg.seed)
    ones = x.with_exponents((1,) * x.length)
    records = []
    elems = []
    for r in range(x.length):
        un = unmixed_part(ones, range(1, r + 1))
        gens = list(un.basis())
        candidates = list(gens)
        for _ in range(max(cfg.sample_count // max(x.length, 1), 1)):
            f = R.ring.zero
            for g in gens:
                f = f + g * rng.randrange(R.p)
            candidates.append(f)
        for h in candidates:
            h = R.reduce(h)
            if h.is_zero():
                continue
            elems.append(make_elem(h, ones, r))
    found = []
    for i, elem in enumerate(elems):
        e = hsl_exponent(elem, cfg.e_max)
        records.append(
            {
                "index": i,
                "r": elem.r,
                "numerator": str(elem.numerator),
                "torsion_e": e,
            }
        )
        if e is not None:
            found.append((i, elem, e))
    e1 = max((e for _, _, e in found), default=0)
    passed = True
    for i, elem, _e in found:
        again = is_zero_in_cohomology(t_action(elem, e1))
        records[i]["retest_at_max"] = bool(again)
        if not again:
            passed = False
    return {
        "suite": "fixedq",
        "passed": passed,
        "max_torsion_e": e1,
        "torsion_found": len(found),
        "sampled": len(elems),
        "records": records,
    }


def _nil_suite(R, a, nil_gens, cfg):
    """Check the nilpotent-reduction bound: with n**[Q'] = 0 in R and
    Q-tilde the test exponent of the image ideal in R/n, the test exponent
    of a is at most Q' * Q-tilde."""
    n_ideal = Ideal(R.ring, nil_gens)
    q_prime_e = None
    for e in range(R.ring.config.frobenius_e_cap + 1):
        if ideal_equal(ideal_sum(frobenius_power(n_ideal, e), R.J), R.J):
            q_prime_e = e
            break
    if q_prime_e is None:
        raise BudgetExceededError(
            "the given ideal is not nilpotent within the exponent cap", kind="exponent"
        )
    reduced = QuotientRing(R.ring, list(R.J.gens) + list(nil_gens))
    targets = [a] if a is not None else []
    if not targets:
        batch = sample_parameter_ideals(R, cfg)
        targets = [R.preimage(seq.effective()) for seq in batch.sequences]
    records = []
    passed = True
    for index, ideal in enumerate(targets):
        Q = q_exponent(ideal, R, e_max=cfg.e_max)
        Qt = q_exponent(reduced.preimage(ideal.gens), reduced, e_max=cfg.e_max)
        bound = R.p**q_prime_e * Qt.q
        ok = Q.q <= bound
        passed = passed and ok
        records.append(
            {
                "index": index,
                "generators": [str(g) for g in ideal.gens if g not in R.J.gens],
                "q": Q.q,
                "q_tilde": Qt.q,
                "q_prime": R.p**q_prime_e,
                "bound": bound,
                "passed": ok,
            }
        )
    return {
        "suite": "nil",
        "passed": passed,
        "q_prime": R.p**q_prime_e,
        "records": records,
    }


@memo_scope
def run_suite(name, R, x=None, cfg=None, a=None, nil_gens=None):
    """Dispatch a verification suite; returns a dict report with a
    ``passed`` key.  ``gy`` runs the full identity suite, ``huneke`` the
    intersection identities, ``br21`` the limit-product and subset
    decomposition identities; ``fixedq`` and ``nil`` are the empirical
    Frobenius checks.  ``fixedq`` raises ``ValueError`` unless
    ``sample_count >= 1``: it would sample one numerator per prefix
    whatever the count.  The suites on a sequence raise
    ``RingMismatchError`` unless ``x`` lies in R: the same ambient ring
    and the same defining ideal J."""
    cfg = cfg or SurveyConfig()
    if name == "nil":
        if not nil_gens:
            raise ValueError("suite 'nil' needs the nilpotent ideal generators")
        return _nil_suite(R, a, nil_gens, cfg)
    if name not in ("gy", "huneke", "br21", "fixedq"):
        raise ValueError(f"unknown suite {name!r}")
    if x is None:
        raise ValueError(f"suite {name!r} needs a sequence")
    if x.R is not R and (x.R.ring != R.ring or x.R.J != R.J):
        raise RingMismatchError(f"suite {name!r}: the sequence lies in another quotient ring")
    if name == "fixedq":
        _check_sample_count(cfg)
        verdict = is_usd_bounded(x, cfg.n_max)
        out = _fixedq_suite(R, x, cfg)
        out["hypothesis_verified"] = verdict.passed
        return out
    identities = {
        "gy": None,
        "huneke": ("intersection_prefix", "intersection_unmixed"),
        "br21": ("limit_product", "limit_decomposition"),
    }[name]
    report = verify_identity_suite(x, cfg.n_max, identities=identities)
    out = report.to_dict()
    out["suite"] = name
    out["passed"] = report.all_passed
    return out
