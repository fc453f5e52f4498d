"""The three benchmark workloads.

A workload is a fixed list of jobs; only ``verify`` takes part of its input
from the seed, and ``input_seeds`` records every seed a workload uses.
``setup`` builds the rings; ``jobs`` returns ``(label, run)`` pairs, where
``run()`` does the timed work of one job and returns ``(completed,
attempted, output)``; and ``check(label, output)`` compares the output,
outside the timed region, with values written by hand here.  A failed check
raises ``CheckError``.

``traced_edges`` lists (caller, callee) pairs the traced run must see,
among them an intra-module call inside ``ideals``: it is missed if the
tracer only replaced the names that other modules imported.

Engine functions are looked up on their modules at call time, so the
tracer's wrappers, once installed, see every call the benchmark makes.
"""

from __future__ import annotations

# survey: the draw of acceptance criterion 7.  TWOPLANES is a Stanley-Reisner
# ring, hence F-pure, so every ideal is Frobenius closed and Q(a) = 1 for
# every parameter ideal.  The draw is fixed: over sampler seeds the same
# survey costs 2.2-3.7 s, a spread the items_per_s bound could not absorb.
SURVEY_SEED = 20260810
SURVEY_SAMPLES = 50
SURVEY_MAX_Q = 1

# closure: x^3 + y^3 + z^3 is symmetric in x, y, z, so the golden answer
# for (y, z) -- closure (x^2, y, z) + J, e* = 1, Q = 5 -- fixes the other two
CLOSURE_E_MAX = 4
CLOSURE_CASES = (
    (("y", "z"), {"x^2", "y", "z"}),
    (("x", "z"), {"y^2", "x", "z"}),
    (("x", "y"), {"z^2", "x", "y"}),
)
CLOSURE_E_STAR = 1
CLOSURE_Q = 5

# verify: the identity-suite sops are fixed draws (sampler seed 1); other
# draws change the cost of the REG suite up to 2.4-fold (3.1-7.6 s over
# seeds 1-11), which no end-to-end bound could absorb.  The seed drives the
# fixedq numerators instead.
VERIFY_SOP_SEED = 1
VERIFY_N_MAX = 3
# per exponent vector: 2 checks for each (proper subset delta, j outside
# delta) pair, 3 limit checks, l prefix intersections and one unmixed
# intersection per proper subset; 3**l exponent vectors
#   l = 3: (2 * 12 + 3 + 3 + 7) * 27 = 999;  l = 2: (2 * 4 + 3 + 2 + 3) * 9 = 144
VERIFY_GY_CHECKS = {"REG": 999, "TWOPLANES": 144}


class CheckError(Exception):
    """An output check failed."""


def _expect(cond, message):
    if not cond:
        raise CheckError(message)


class Survey:
    """``survey_uniform_q`` on TWOPLANES, then ``QReport.to_json`` -- the
    path of ``fclosure survey-q --json``.  One job, no seed-driven input."""

    name = "survey"
    input_seeds = {"sampler": SURVEY_SEED}
    traced_edges = (
        ("ideals.radical_member", "ideals.groebner_basis"),
        ("frobenius.frobenius_preimage", "ideals.groebner_basis"),
    )

    def __init__(self, seed):
        self.first_json = None

    def setup(self, fc):
        self.fc = fc
        self.R = fc.workbench.builtin_ring("TWOPLANES")

    def jobs(self):
        return [(f"seed {SURVEY_SEED}", self._survey)]

    def _survey(self):
        wb = self.fc.workbench
        cfg = wb.SurveyConfig(
            sample_count=SURVEY_SAMPLES, seed=SURVEY_SEED, lengths=(1, 2), e_max=4
        )
        report = wb.survey_uniform_q(self.R, cfg)
        text = report.to_json()
        return report.aggregate["certified"], len(report.records), (report, text)

    def check(self, label, output):
        report, text = output
        agg = report.aggregate
        _expect(len(report.records) == SURVEY_SAMPLES, f"{label}: record count")
        _expect(agg["certified"] == SURVEY_SAMPLES, f"{label}: certified {agg['certified']}")
        _expect(agg["indeterminate"] == 0, f"{label}: indeterminate {agg['indeterminate']}")
        _expect(agg["max_q"] == SURVEY_MAX_Q, f"{label}: max_q {agg['max_q']}")
        if self.first_json is None:
            self.first_json = text
        _expect(text == self.first_json, f"{label}: JSON report differs between runs")


class Closure:
    """``frobenius_closure`` plus ``q_exponent`` at e <= 4 on the three
    coordinate parameter ideals of FERMAT3; one job per ideal.  There is no
    random draw, so the seed is ignored."""

    name = "closure"
    input_seeds = {}
    traced_edges = (
        ("ideals.ideal_member", "ideals.normal_form"),
        ("frobenius.frobenius_preimage", "ideals.groebner_basis"),
    )

    def __init__(self, seed):
        self.failures = {}  # label -> the recorded failure

    def setup(self, fc):
        self.fc = fc
        self.R = fc.workbench.builtin_ring("FERMAT3")

    def jobs(self):
        return [
            ("(" + ", ".join(names) + ")", lambda names=names: self._closure(names))
            for names, _ in CLOSURE_CASES
        ]

    def _closure(self, names):
        fr = self.fc.frobenius
        R = self.R
        a = R.preimage([R.ring.var(v) for v in names])
        record = {"ideal": names}
        try:
            res = fr.frobenius_closure(a, R, e_max=CLOSURE_E_MAX)
            record["stabilized"] = res.stabilized
            record["e_star"] = res.e_star
            record["closure"] = [str(g) for g in res.closure.basis()]
            if res.stabilized:
                record["q"] = fr.q_exponent(a, R, e_max=CLOSURE_E_MAX, closure=res.closure).q
        except self.fc.BudgetExceededError as exc:
            record["failed"] = exc.kind
            record["cause"] = str(exc)
        return int("q" in record), 1, record

    def check(self, label, record):
        expected = dict(CLOSURE_CASES)[record["ideal"]]
        if "failed" in record:
            _expect(record["failed"] is not None, f"{label}: budget failure without a kind")
            self.failures[label] = record
            return
        if not record["stabilized"]:
            self.failures[label] = record
            return
        closure = record["closure"]
        _expect(sorted(closure) == sorted(expected), f"{label}: closure {closure}")
        _expect(record["e_star"] == CLOSURE_E_STAR, f"{label}: e_star {record['e_star']}")
        _expect(record["q"] == CLOSURE_Q, f"{label}: Q {record['q']}")


class Verify:
    """``run_suite("gy", n_max=3)`` on a sop of REG (p = 5) and of
    TWOPLANES, plus ``run_suite("fixedq")`` on the TWOPLANES sop; one job
    per suite."""

    name = "verify"
    traced_edges = (
        ("ideals.intersect", "ideals.groebner_basis"),
        ("genfrac.is_zero_in_cohomology", "sequences.limit_ideal"),
    )

    def __init__(self, seed):
        self.seed = seed
        self.input_seeds = {"sop_sampler": VERIFY_SOP_SEED, "fixedq": seed}

    def setup(self, fc):
        self.fc = fc
        wb = fc.workbench
        self.rings = {"REG": wb.builtin_ring("REG", p=5), "TWOPLANES": wb.builtin_ring("TWOPLANES")}

    def jobs(self):
        return [
            ("gy REG", lambda: self._gy("REG")),
            ("gy TWOPLANES", lambda: self._gy("TWOPLANES")),
            ("fixedq TWOPLANES", self._fixedq),
        ]

    def _sop(self, name):
        wb = self.fc.workbench
        R = self.rings[name]
        cfg = wb.SurveyConfig(sample_count=1, seed=VERIFY_SOP_SEED, lengths=(R.dimension,))
        return wb.sample_parameter_ideals(R, cfg).sequences[0]

    def _gy(self, name):
        wb = self.fc.workbench
        cfg = wb.SurveyConfig(n_max=VERIFY_N_MAX)
        report = wb.run_suite("gy", self.rings[name], x=self._sop(name), cfg=cfg)
        checks = report["checks"]
        return sum(c["passed"] for c in checks), len(checks), (name, report)

    def _fixedq(self):
        wb = self.fc.workbench
        cfg = wb.SurveyConfig(seed=self.seed, n_max=VERIFY_N_MAX, e_max=4)
        report = wb.run_suite("fixedq", self.rings["TWOPLANES"], x=self._sop("TWOPLANES"), cfg=cfg)
        records = report["records"]
        # decided: a torsion exponent (or none) was found, and re-tested
        decided = sum(r.get("retest_at_max", True) for r in records)
        return decided, len(records), ("fixedq", report)

    def check(self, label, output):
        name, report = output
        _expect(report["hypothesis_verified"], f"{label}: hypothesis not verified")
        if name == "fixedq":
            _expect(report["passed"], f"{label}: a torsion element failed its re-test")
            _expect(report["sampled"] > 0, f"{label}: no element sampled")
            return
        _expect(report["all_passed"], f"{label}: an identity failed")
        n = len(report["checks"])
        _expect(n == VERIFY_GY_CHECKS[name], f"{label}: {n} checks")


WORKLOADS = {w.name: w for w in (Survey, Closure, Verify)}
