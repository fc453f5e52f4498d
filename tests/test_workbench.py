"""Ring files, built-ins, samplers, the uniform-Q survey, suite dispatch,
and the command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fclosure.polyring as polyring
from fclosure.cli import _run, main
from fclosure.errors import InternalError, ParseError
from fclosure.ideals import ideal_equal
from fclosure.polyring import PolyRing
from fclosure.sequences import SequenceSpec, is_subsystem_of_parameters, is_system_of_parameters
from fclosure.workbench import (
    SurveyConfig,
    builtin_ring,
    load_ring,
    resolve_ring,
    run_suite,
    sample_parameter_ideals,
    survey_uniform_q,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_ring_twoplanes(tmp_path):
    path = _write(
        tmp_path,
        "twoplanes.ring",
        "# union of two planes\nchar 2\nvars x y z w\nrel x*z\nrel x*w\nrel y*z\nrel y*w\n",
    )
    R = load_ring(path)
    assert R.dimension == 2
    assert ideal_equal(R.J, builtin_ring("TWOPLANES").J)


def test_load_ring_regular(tmp_path):
    path = _write(tmp_path, "reg.ring", "char 5\nvars x y z\n")
    R = load_ring(path)
    assert R.dimension == 3 and R.is_regular()


def test_load_ring_rejects_non_prime(tmp_path):
    path = _write(tmp_path, "bad.ring", "char 4\nvars x y\n")
    with pytest.raises(ParseError, match="not prime"):
        load_ring(path)


def test_out_of_range_modulus_is_rejected_without_trial_division(tmp_path, monkeypatch, capsys):
    # 2**61 - 1 is prime but out of range; trial division up to its square
    # root would run for minutes before the range check rejected it
    huge = 2**61 - 1
    is_prime = polyring.is_prime

    def small_only(p):
        if p > 2**31 - 1:
            pytest.fail(f"trial division of the out-of-range modulus {p}")
        return is_prime(p)

    monkeypatch.setattr(polyring, "is_prime", small_only)
    with pytest.raises(ValueError, match="out of range"):
        PolyRing(huge, ["x"])
    with pytest.raises(ParseError, match="out of range"):
        load_ring(_write(tmp_path, "huge.ring", f"char {huge}\nvars x y\n"))
    assert main(["gb", "--ring", "REG", "--char", str(huge), "--ideal", "x"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_load_ring_line_errors(tmp_path):
    path = _write(tmp_path, "bad2.ring", "char 5\nrel x\n")
    with pytest.raises(ParseError, match=":2"):
        load_ring(path)
    path = _write(tmp_path, "bad3.ring", "char 5\nvars x\nfoo bar\n")
    with pytest.raises(ParseError, match="unknown directive"):
        load_ring(path)


def test_builtins():
    assert builtin_ring("REG", p=3).dimension == 3
    assert resolve_ring("NILLINE").dimension == 1
    assert builtin_ring("NILLINE").dimension == 1
    assert builtin_ring("FERMAT3").dimension == 2
    with pytest.raises(ValueError, match="2 mod 3"):
        builtin_ring("FERMAT3", p=7)
    with pytest.raises(ValueError, match="unknown built-in"):
        builtin_ring("NOPE")


def test_dim_zero_warns():
    import warnings

    from fclosure.workbench import RingDescription

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        RingDescription(5, ("x",), ("x^2",)).build()
    assert any("dimension 0" in str(w.message) for w in caught)


def test_sampler_deterministic_and_filtered():
    TW = builtin_ring("TWOPLANES")
    cfg = SurveyConfig(sample_count=12, seed=99, lengths=(1, 2))
    b1 = sample_parameter_ideals(TW, cfg)
    b2 = sample_parameter_ideals(TW, cfg)
    assert [s.elements for s in b1.sequences] == [s.elements for s in b2.sequences]
    assert b1.attempts == b2.attempts
    for seq in b1.sequences:
        if seq.length == TW.dimension:
            assert is_system_of_parameters(seq)
        else:
            assert is_subsystem_of_parameters(seq)


def test_sampler_regular_full_length():
    REG = builtin_ring("REG", p=5)
    cfg = SurveyConfig(sample_count=5, seed=1, lengths=(3,))
    batch = sample_parameter_ideals(REG, cfg)
    assert len(batch.sequences) == 5
    assert all(is_system_of_parameters(s) for s in batch.sequences)


def test_sampler_requires_positive_dimension():
    import warnings

    from fclosure.workbench import RingDescription

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        R0 = RingDescription(5, ("x",), ("x^3",)).build()
    with pytest.raises(ValueError, match="positive dimension"):
        sample_parameter_ideals(R0, SurveyConfig(sample_count=1))


def test_survey_regular_all_trivial():
    REG = builtin_ring("REG", p=3)
    report = survey_uniform_q(REG, SurveyConfig(sample_count=6, seed=2, lengths=(1, 3)))
    assert report.aggregate["max_q"] == 1
    assert report.aggregate["indeterminate"] == 0
    assert report.all_stabilized
    assert all(r["status"] == "ok" for r in report.records)


def test_survey_report_byte_identical():
    TW = builtin_ring("TWOPLANES")
    cfg = SurveyConfig(sample_count=8, seed=11, lengths=(1, 2), e_max=3)
    r1 = survey_uniform_q(TW, cfg)
    r2 = survey_uniform_q(TW, cfg)
    assert r1.to_json() == r2.to_json()


def test_survey_aggregate_is_running_maximum():
    TW = builtin_ring("TWOPLANES")
    report = survey_uniform_q(TW, SurveyConfig(sample_count=8, seed=11, lengths=(1, 2)))
    qs = [r["q_exponent"] for r in report.records if r.get("status") == "ok"]
    assert report.aggregate["max_q"] == max(qs)
    assert sum(report.aggregate["histogram"].values()) == len(qs)


def test_run_suite_dispatch():
    TW = builtin_ring("TWOPLANES")
    sop = SequenceSpec(TW, [TW.ring.parse("x + z"), TW.ring.parse("y + w")])
    cfg = SurveyConfig(sample_count=6, seed=4, n_max=1, e_max=2)
    for name in ("gy", "huneke", "br21"):
        out = run_suite(name, TW, x=sop, cfg=cfg)
        assert out["passed"], name
    out = run_suite("fixedq", TW, x=sop, cfg=cfg)
    assert out["passed"] and out["hypothesis_verified"]
    NIL = builtin_ring("NILLINE")
    out = run_suite(
        "nil",
        NIL,
        nil_gens=[NIL.ring.var("x")],
        cfg=SurveyConfig(sample_count=4, seed=4, e_max=3, max_degree=2),
    )
    assert out["passed"]
    with pytest.raises(ValueError):
        run_suite("nope", TW)
    with pytest.raises(ValueError):
        run_suite("gy", TW)


# ---------------------------------------------------------------------------
# CLI


def test_cli_gb_and_member(capsys):
    assert main(["gb", "--ring", "TWOPLANES", "--ideal", "x+z; y+w"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "z^2; z*w; w^2; x + z; y + w"
    assert main(["member", "--ring", "NILLINE", "--ideal", "y", "--poly", "x"]) == 1
    assert main(["member", "--ring", "NILLINE", "--ideal", "y", "--poly", "x^2"]) == 0


def test_cli_closure_and_qexp(capsys):
    assert main(["fclosure", "--ring", "NILLINE", "--ideal", "y", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closure"] == ["x", "y"] and data["e_star"] == 1
    assert main(["qexp", "--ring", "NILLINE", "--ideal", "y"]) == 0
    assert "Q = 2 = 2^1" in capsys.readouterr().out


def test_cli_predicates(capsys):
    assert main(["dseq", "--ring", "REG", "--seq", "x; y; z"]) == 0
    assert main(["usd", "--ring", "TWOPLANES", "--seq", "x+z; y+w", "--nmax", "2"]) == 0
    assert main(["filtreg", "--ring", "TWOPLANES", "--seq", "x"]) == 1
    capsys.readouterr()


def test_cli_negative_dseq(capsys):
    code = main(
        ["dseq", "--ring", "NILLINE", "--seq", "x"]
    )
    assert code == 1
    assert "(0, 1)" in capsys.readouterr().out


def test_cli_verify_and_survey(capsys):
    assert main(["verify", "gy", "--ring", "TWOPLANES", "--seq", "x+z; y+w", "--nmax", "1"]) == 0
    capsys.readouterr()
    assert (
        main(
            [
                "survey-q",
                "--ring",
                "TWOPLANES",
                "--samples",
                "6",
                "--seed",
                "3",
                "--j",
                "1,2",
                "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["aggregate"]["max_q"] == 1


@pytest.mark.parametrize(
    "seq, nmax, exit_code, n_checks, n_failed, digest",
    [
        ("x + z; y + w", "2", 0, 64, 0, "8b3f9e2538a5bd1615d19ca8d764232d051691e6b354042cb831368177e50cbf"),
        ("x; z", "1", 1, 16, 5, "eac25ed5903713a76f054fe8476703dd015066285a4743b40c410688982513b5"),
    ],
    ids=["passing", "failing"],
)
def test_verify_report_identical_across_hash_seeds(
    seq, nmax, exit_code, n_checks, n_failed, digest
):
    args = ["verify", "gy", "--json", "--ring", "TWOPLANES", "--seq", seq, "--nmax", nmax]
    out = _stdout_across_hash_seeds(args, exit_code, digest)
    checks = json.loads(out)["checks"]
    assert (len(checks), sum(not c["passed"] for c in checks)) == (n_checks, n_failed)


def test_survey_report_identical_across_hash_seeds():
    args = ["survey-q", "--ring", "TWOPLANES", "--samples", "12", "--seed", "20260810"]
    args += ["--j", "1,2", "--json"]
    digest = "423ffb9f307ff262a132c77c5d32f20903f5f3c29c69a848f501c57a70afed93"
    out = _stdout_across_hash_seeds(args, 0, digest)
    assert json.loads(out)["aggregate"]["certified"] == 12


def _stdout_across_hash_seeds(args, exit_code, digest):
    """Run the CLI in subprocesses under PYTHONHASHSEED 0, 1 and 2; every run
    must exit with ``exit_code`` and print the same report, whose SHA-256
    without its final newline is ``digest``."""
    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "fclosure.cli", *args]
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
        assert done.returncode == exit_code, done.stderr.decode()
        outputs.add(done.stdout)
    assert len(outputs) == 1
    out = outputs.pop()
    assert out.endswith(b"\n")
    assert hashlib.sha256(out[:-1]).hexdigest() == digest
    return out


def test_cli_operational_errors(capsys):
    assert main(["gb", "--ring", "REG", "--ideal", "x + q"]) == 2
    assert main(["gb", "--ring", "/nonexistent/file.ring", "--ideal", "x"]) == 2
    capsys.readouterr()


def test_cli_internal_error_exit_code(capsys, monkeypatch):
    # a broken engine invariant is a bug, never "property false" (exit 1)
    import fclosure.frobenius

    monkeypatch.setattr(fclosure.frobenius, "ideal_contains", lambda I, K: False)
    assert main(["fclosure", "--ring", "NILLINE", "--ideal", "y"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_unknown_command_is_an_internal_error():
    # main() maps InternalError to exit code 3
    args = argparse.Namespace(command="nope", ring="REG", char=None, json=False)
    with pytest.raises(InternalError, match="unhandled command nope"):
        _run(args)


def test_cli_ops(capsys):
    assert main(["colon", "--ring", "TWOPLANES", "--ideal", "0", "--by", "x"]) == 0
    assert capsys.readouterr().out.strip() == "z; w"
    assert main(["dim", "--ring", "TWOPLANES", "--ideal", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["intersect", "--ring", "REG", "--ideal", "x", "--with", "y"]) == 0
    assert capsys.readouterr().out.strip() == "x*y"
    assert main(["sat", "--ring", "REG", "--ideal", "x^2*y", "--by", "x; y"]) == 0
    assert main(["fpower", "--ring", "NILLINE", "--ideal", "y", "-e", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].strip() in ("x^2; y^2", "y^2; x^2")
    assert main(["froot", "--ring", "REG", "--char", "2", "--ideal", "x^2*y^3", "-e", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x*y"
    assert main(["unmixed", "--ring", "TWOPLANES", "--seq", "x+z; y+w", "--subset", "1"]) == 0
    assert main(["limideal", "--ring", "NILLINE", "--seq", "y", "--exps", "2"]) == 0
    out = capsys.readouterr().out
    assert "x^2; y^2" in out
