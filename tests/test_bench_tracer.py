"""The benchmark tracer's contract, on three small jobs.

``perfbench/run.py --trace 1`` fails a run when its two traced passes
disagree on a counter (state kept across calls), when a required call edge
is missed, when an output check fails, or when the tracer cannot patch a
name it relies on.  This test drives the harness's own ``per_layer`` with a
workload that reaches every edge the benchmark's workloads require, so an
engine change that breaks that contract fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fclosure.frobenius as frobenius
import fclosure.ideals as ideals
import fclosure.polyring as polyring
import fclosure.sequences as sequences
import fclosure.workbench as workbench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` loaded by path; it imports its sibling modules
    ``tracing`` and ``workloads`` by putting its directory on ``sys.path``."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    yield run
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


class ContractWorkload:
    """One sop test, one closure chain and one ``fixedq`` suite.  Every job
    builds its own ring and inputs, so the second traced pass starts from
    nothing the first one left on an object."""

    def __init__(self, bench):
        self.error = bench.CheckError
        self.traced_edges = sorted(set().union(*(w.traced_edges for w in bench.WORKLOADS.values())))

    def jobs(self):
        return [("sop", self._sop), ("closure", self._closure), ("fixedq", self._fixedq)]

    def _sop(self):
        R = workbench.builtin_ring("TWOPLANES")
        x = sequences.SequenceSpec(R, [R.ring.parse("x + z"), R.ring.parse("y + w")])
        ok = sequences.is_system_of_parameters(x)
        return int(ok), 1, ok

    def _closure(self):
        R = workbench.builtin_ring("NILLINE")
        res = frobenius.frobenius_closure(R.preimage([R.ring.var("y")]), R, e_max=3)
        out = (res.stabilized, res.e_star, [str(g) for g in res.closure.basis()])
        return int(res.stabilized), 1, out

    def _fixedq(self):
        # an inhomogeneous sop: colons by linear forms on a graded ring run
        # no intersection, and this job is the one that reaches intersect
        R = workbench.builtin_ring("TWOPLANES")
        x = sequences.SequenceSpec(R, [R.ring.parse("x + z"), R.ring.parse("y + w^2")])
        cfg = workbench.SurveyConfig(sample_count=2, seed=1, n_max=1, e_max=2)
        report = workbench.run_suite("fixedq", R, x=x, cfg=cfg)
        return int(report["passed"]), 1, report

    def check(self, label, output):
        expected = {
            "sop": lambda out: out is True,
            "closure": lambda out: out == (True, 1, ["x", "y"]),
            "fixedq": lambda out: out["passed"] and out["hypothesis_verified"] and out["sampled"] > 0,
        }[label]
        if not expected(output):
            raise self.error(f"{label}: {output}")


def test_traced_passes_agree_and_see_every_required_edge(bench):
    patched = [
        (polyring.MonomialOrder, "key"),
        (polyring.BlockOrder, "key"),
        (polyring.Polynomial, "__mul__"),
        (polyring.Polynomial, "__rmul__"),
        (ideals, "groebner_basis"),
    ]
    originals = [vars(owner).get(name) for owner, name in patched]
    workload = ContractWorkload(bench)
    # raises CheckError on disagreeing passes, a missed edge or a failed check
    _, counts, _, _ = bench.per_layer(bench.Tracer(), workload, 1.0, bench.load_per_layer_names())
    assert counts["ideals.groebner_basis.fresh"] > 0
    assert [vars(owner).get(name) for owner, name in patched] == originals
