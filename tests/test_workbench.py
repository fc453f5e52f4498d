"""Ring files, built-ins, samplers, the uniform-Q survey, suite dispatch,
and the command-line interface."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fclosure.polyring as polyring
from fclosure.cli import _run, main
from fclosure.config import EngineConfig
from fclosure.errors import BudgetExceededError, InternalError, ParseError, RingMismatchError
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
    # a relation that does not parse keeps its line, as every other error
    for text, message in (
        ("char five\nvars x\n", ":1: malformed characteristic 'five'"),
        ("char 5\nvars\n", ":2: no variables given"),
        ("vars x y\n", ": missing 'char' line"),
        ("char 5\n# none\n", ": missing 'vars' line"),
        ("char 5\nvars x y\nrel x*q\n", ":3: unknown variable 'q' at position 2"),
        ("char 5\nvars x y\n\nrel\n", ":4: empty polynomial expression"),
    ):
        path = _write(tmp_path, "bad4.ring", text)
        with pytest.raises(ParseError) as err:
            load_ring(path)
        assert str(err.value) == path + message
    # so does a relation past a budget, which keeps its kind
    path = _write(tmp_path, "big.ring", "char 5\nvars x y\n\nrel x^70000\n")
    with pytest.raises(BudgetExceededError) as err:
        load_ring(path)
    assert err.value.kind == "degree"
    assert str(err.value) == path + ":4: power 70000 exceeded the degree budget 60000"


def test_load_ring_rejects_a_repeated_char_or_vars_line(tmp_path):
    # a later line must not silently override an earlier one
    path = _write(tmp_path, "twice.ring", "char 5\nvars x y z\nrel x*y\nchar 7\n")
    with pytest.raises(ParseError, match=r":4: repeated 'char' line"):
        load_ring(path)
    path = _write(tmp_path, "twice2.ring", "char 5\nvars x y\n# fine\nvars x y z\nrel x*y\n")
    with pytest.raises(ParseError, match=r":4: repeated 'vars' line"):
        load_ring(path)


def test_char_is_rejected_for_a_ring_file(tmp_path, capsys):
    # the file's own 'char' line sets the characteristic
    path = _write(tmp_path, "planes.ring", "char 2\nvars x y z w\nrel x*z\nrel y*w\n")
    assert resolve_ring(path).p == 2
    with pytest.raises(ValueError, match="built-in rings only"):
        resolve_ring(path, 3)
    assert main(["gb", "--ring", path, "--char", "3", "--ideal", "x+z; y+w"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "built-in rings only" in captured.err


def test_builtins():
    assert builtin_ring("REG", p=3).dimension == 3
    assert resolve_ring("NILLINE").dimension == 1
    assert builtin_ring("NILLINE").dimension == 1
    assert builtin_ring("FERMAT3").dimension == 2
    with pytest.raises(ValueError, match="2 mod 3"):
        builtin_ring("FERMAT3", p=7)
    with pytest.raises(ValueError, match="unknown built-in"):
        builtin_ring("NOPE")


def test_builtin_characteristic_is_checked_as_given(capsys):
    # 0 is a characteristic, not a request for the ring's default
    with pytest.raises(ValueError, match="modulus not prime"):
        builtin_ring("REG", p=0)
    assert main(["gb", "--ring", "REG", "--char", "0", "--ideal", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "modulus not prime" in captured.err


def test_dim_zero_warns(tmp_path):
    import warnings

    path = _write(tmp_path, "point.ring", "char 5\nvars x\nrel x^2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_ring(path)
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


def test_sampler_retry_budget_is_reported():
    # on NILLINE at seed 0 the sampler draws the nilpotent x once among its
    # first five linear forms, so four samples need five attempts: a budget
    # of two attempts per sample allows that, a budget of one does not
    cfg = SurveyConfig(sample_count=4, seed=0)
    NIL = builtin_ring("NILLINE", config=EngineConfig(sample_retry_factor=2))
    assert sample_parameter_ideals(NIL, cfg).stats() == {"attempts": 5, "rejected": 1, "accepted": 4}
    NIL = builtin_ring("NILLINE", config=EngineConfig(sample_retry_factor=1))
    with pytest.raises(BudgetExceededError) as err:
        sample_parameter_ideals(NIL, cfg)
    assert err.value.kind == "sampling"
    assert str(err.value) == "could not find 4 parameter sequences of length 1 within 4 attempts"


def test_sampler_requires_positive_dimension(tmp_path):
    import warnings

    path = _write(tmp_path, "point.ring", "char 5\nvars x\nrel x^3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        R0 = load_ring(path)
    with pytest.raises(ValueError, match="positive dimension"):
        sample_parameter_ideals(R0, SurveyConfig(sample_count=1))


@pytest.mark.parametrize(
    "settings, message",
    [
        pytest.param({"sample_count": 0}, "sample_count must be at least 1, not 0", id="samples-0"),
        pytest.param({"sample_count": -3}, "sample_count must be at least 1, not -3", id="samples-neg"),
        pytest.param({"max_degree": 0}, "max_degree must be at least 1, not 0", id="degree-0"),
    ],
)
def test_sampler_rejects_a_vacuous_request(settings, message):
    # a sample of nothing, or from no monomial, is an error, not an empty survey
    TW = builtin_ring("TWOPLANES")
    cfg = SurveyConfig(**{"sample_count": 2, **settings})
    with pytest.raises(ValueError, match=message):
        sample_parameter_ideals(TW, cfg)
    with pytest.raises(ValueError, match=message):
        survey_uniform_q(TW, cfg)


@pytest.mark.parametrize(
    "lengths, message",
    [
        pytest.param((3,), "subsystem length 3 is outside 1..2", id="3"),
        pytest.param((0,), "subsystem length 0 is outside 1..2", id="0"),
        pytest.param((), "no subsystem length given; choose from 1..2", id="empty"),
        # a repeated length would overwrite its own quota and then be drawn
        # once per entry, so the survey would return the wrong number of samples
        pytest.param((1, 1), "subsystem length 1 is given twice", id="twice"),
        pytest.param((2, 1, 2), "subsystem length 2 is given twice", id="twice-apart"),
    ],
)
def test_survey_rejects_lengths_outside_the_dimension(lengths, message):
    TW = builtin_ring("TWOPLANES")
    cfg = SurveyConfig(sample_count=2, lengths=lengths)
    with pytest.raises(ValueError, match=message):
        survey_uniform_q(TW, cfg)


def test_survey_lengths_are_read_like_every_comma_list(capsys):
    args = ["survey-q", "--ring", "TWOPLANES", "--samples", "4", "--seed", "3", "--json"]
    assert main([*args, "--j", "1,2"]) == 0
    expected = capsys.readouterr().out
    assert main([*args, "--j", "1,,2"]) == 0
    assert capsys.readouterr().out == expected
    assert main([*args, "--j", ","]) == 2
    assert "no subsystem length given; choose from 1..2" in capsys.readouterr().err
    assert main([*args, "--j", "1,1"]) == 2
    assert "subsystem length 1 is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("command, index", [("unmixed", "3"), ("limideal", "0")])
def test_cli_subset_index_out_of_range(command, index, capsys):
    args = [command, "--ring", "TWOPLANES", "--seq", "x+z; y+w", "--subset", index]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"sequence index {index} out of range 1..2" in captured.err


@pytest.mark.parametrize(
    "args, flag, entry",
    [
        (["unmixed", "--seq", "x+z; y+w", "--subset", "a"], "--subset", "a"),
        (["dseq", "--seq", "x+z; y+w", "--exps", "1,b"], "--exps", "b"),
        (["survey-q", "--samples", "2", "--j", "1,x"], "--j", "x"),
    ],
)
def test_cli_comma_list_names_a_bad_entry(args, flag, entry, capsys):
    assert main([*args, "--ring", "TWOPLANES"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} takes a comma list of integers, not {entry!r}" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        'usd --ring TWOPLANES --seq "x+z; y+w" --exps 3,3',
        'verify gy --ring TWOPLANES --seq "x+z; y+w" --exps 3,3',
    ],
)
def test_exps_is_rejected_where_the_command_chooses_the_exponents(command, capsys):
    # the USD box and every suite pick their own exponent vectors, so an
    # --exps there would be ignored while the report named the powers
    with pytest.raises(SystemExit) as exit_:
        main(shlex.split(command))
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --exps 3,3" in captured.err


def test_survey_regular_all_trivial():
    REG = builtin_ring("REG", p=3)
    report = survey_uniform_q(REG, SurveyConfig(sample_count=6, seed=2, lengths=(1, 3)))
    assert report.aggregate["max_q"] == 1
    assert report.aggregate["indeterminate"] == 0
    assert report.all_stabilized
    assert all(r["status"] == "ok" for r in report.records)


def test_survey_records_unstabilized_chains():
    # every line NILLINE samples at seed 8 is inhomogeneous, so no
    # certificate applies; each has e* = 1, so e_max = 2 ends each chain
    # one equality short of the lookahead window
    NIL = builtin_ring("NILLINE")
    report = survey_uniform_q(NIL, SurveyConfig(sample_count=4, seed=8, max_degree=2, e_max=2))
    assert [r["status"] for r in report.records] == ["unstabilized"] * 4
    assert all(r["e_star"] == 1 and r["examined_e"] == 2 for r in report.records)
    assert not any("q_exponent" in r for r in report.records)
    assert report.aggregate == {"max_q": None, "histogram": {}, "indeterminate": 4, "certified": 0}
    assert not report.all_stabilized
    # at seed 1 the homogeneous lines x^2 + y^2, x + y and x^2 + x*y + y^2
    # are certified at the HSL number 1; only x*y + x + y stays open
    report = survey_uniform_q(NIL, SurveyConfig(sample_count=4, seed=1, max_degree=2, e_max=2))
    assert [r["status"] for r in report.records] == ["unstabilized", "ok", "ok", "ok"]
    assert [(r["e_star"], r["examined_e"]) for r in report.records] == [(1, 2)] + [(1, 1)] * 3
    assert report.aggregate == {"max_q": 2, "histogram": {"2": 3}, "indeterminate": 1, "certified": 3}


def test_survey_records_budget_errors():
    # a degree budget of 9 lets the sampler through but stops the closure
    # chain of the fourth sample at an S-polynomial; TWOPLANES is no
    # hypersurface, so every chain runs the lookahead window (at 8 an
    # S-polynomial of every sample's chain exceeds the budget, and below 8
    # so do its Frobenius powers)
    TW = builtin_ring("TWOPLANES", config=EngineConfig(max_poly_degree=9))
    report = survey_uniform_q(TW, SurveyConfig(sample_count=4, seed=1, max_degree=2, e_max=3))
    assert [r["status"] for r in report.records] == ["ok", "ok", "ok", "error"]
    failed = report.records[3]
    assert failed["cause"] == "S-polynomial exceeded the degree budget 9"
    assert "closure" not in failed and "q_exponent" not in failed
    assert report.aggregate == {"max_q": 1, "histogram": {"1": 3}, "indeterminate": 1, "certified": 3}
    # on NILLINE the third sample, x + y, is certified at e = 1, as are the
    # other two homogeneous lines; the chain of the inhomogeneous first
    # sample runs to e = 3, where its stage holds a power of degree 16, so
    # a budget of 6 stops it at the degree-8 power of e = 2, and 16 does not
    NIL = builtin_ring("NILLINE", config=EngineConfig(max_poly_degree=6))
    report = survey_uniform_q(NIL, SurveyConfig(sample_count=4, seed=1, max_degree=2, e_max=3))
    assert [r["status"] for r in report.records] == ["error", "ok", "ok", "ok"]
    assert report.records[0]["cause"] == "Frobenius power p**2 exceeded the degree budget 6"
    assert [r.get("examined_e") for r in report.records] == [None, 1, 1, 1]
    assert report.aggregate == {"max_q": 2, "histogram": {"2": 3}, "indeterminate": 1, "certified": 3}
    NIL = builtin_ring("NILLINE", config=EngineConfig(max_poly_degree=16))
    report = survey_uniform_q(NIL, SurveyConfig(sample_count=4, seed=1, max_degree=2, e_max=3))
    assert [r["status"] for r in report.records] == ["ok"] * 4
    assert [r["examined_e"] for r in report.records] == [3, 1, 1, 1]
    assert report.aggregate == {"max_q": 2, "histogram": {"2": 4}, "indeterminate": 0, "certified": 4}


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
    with pytest.raises(ValueError, match="nilpotent ideal generators"):
        run_suite("nil", NIL)
    with pytest.raises(ValueError):
        run_suite("nope", TW)
    with pytest.raises(ValueError):
        run_suite("gy", TW)


def test_run_suite_rejects_a_sequence_of_another_ring():
    # REG and FERMAT3 share the ambient ring F_5[x,y,z] and differ in J;
    # TWOPLANES has another ambient ring.  A suite must not run a sequence
    # of one ring against another.
    REG, FERMAT3 = builtin_ring("REG", p=5), builtin_ring("FERMAT3", p=5)
    assert REG.ring == FERMAT3.ring
    fermat_sop = SequenceSpec(FERMAT3, [FERMAT3.ring.parse(t) for t in ("x", "y")])
    TW = builtin_ring("TWOPLANES")
    tw_sop = SequenceSpec(TW, [TW.ring.parse("x + z"), TW.ring.parse("y + w")])
    cfg = SurveyConfig(sample_count=5, seed=4, n_max=1, e_max=2)
    for name in ("gy", "huneke", "br21", "fixedq"):
        with pytest.raises(RingMismatchError, match="another quotient ring"):
            run_suite(name, REG, x=fermat_sop, cfg=cfg)
        with pytest.raises(RingMismatchError, match="another quotient ring"):
            run_suite(name, REG, x=tw_sop, cfg=cfg)
    # an equal ring built again is the same ring
    again = builtin_ring("FERMAT3", p=5)
    assert again is not FERMAT3
    assert run_suite("huneke", again, x=fermat_sop, cfg=cfg)["passed"]


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


@pytest.mark.parametrize(
    "command, message",
    [
        ("fclosure --ring NILLINE --ideal y --lookahead 0", "lookahead must be at least 1"),
        ("fclosure --ring NILLINE --ideal y --emax -1", "e_max must be non-negative"),
        ("qexp --ring NILLINE --ideal y --emax -1", "e_max must be non-negative"),
        ("survey-q --ring NILLINE --samples 4 --seed 1 --lookahead 0", "lookahead must be at least 1"),
        ("survey-q --ring NILLINE --samples 4 --seed 1 --emax -1", "e_max must be non-negative"),
        ('usd --ring TWOPLANES --seq "x+z; y+w" --nmax 0', "n_max must be at least 1"),
        ('verify gy --ring TWOPLANES --seq "x+z; y+w" --nmax 0', "n_max must be at least 1"),
        ('verify fixedq --ring TWOPLANES --seq "x+z; y+w" --emax -1', "e_max must be non-negative"),
        ('verify fixedq --ring TWOPLANES --seq "x+z; y+w" --samples 0', "sample_count must be at least 1, not 0"),
        ('verify fixedq --ring TWOPLANES --seq "x+z; y+w" --samples -3', "sample_count must be at least 1, not -3"),
        ("survey-q --ring TWOPLANES --samples 0", "sample_count must be at least 1, not 0"),
        ("survey-q --ring TWOPLANES --samples -3", "sample_count must be at least 1, not -3"),
        ("survey-q --ring REG --degree 0 --samples 2", "max_degree must be at least 1, not 0"),
        ("verify nil --ring NILLINE --nil x --samples 0", "sample_count must be at least 1, not 0"),
        ("verify nil --ring NILLINE --nil y", "the given ideal is not nilpotent within the exponent cap"),
        ("hsl --ring FERMAT3 --char 11 --emax 0", "the HSL chain did not settle within e <= 0"),
        ("hsl --ring TWOPLANES", "is not a hypersurface with a homogeneous relation"),
    ],
)
def test_cli_rejects_empty_windows_and_boxes(command, message, capsys):
    # an empty window, box or sample, or a ring outside the command's scope,
    # is an operational error (exit 2), never a verdict
    assert main(shlex.split(command)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_indeterminate_outcomes_exit_2(capsys):
    # (x*y) and the seed-8 lines are outside the certificate (see the tests above)
    assert main(["fclosure", "--ring", "NILLINE", "--ideal", "x*y", "--emax", "1"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "x",
        "e_star: None  stabilized: False  certified_lower: True  certified_upper: False  "
        "examined e <= 1",
    ]
    assert main(["qexp", "--ring", "NILLINE", "--ideal", "x*y", "--emax", "1"]) == 2
    assert "did not stabilize within e <= 1" in capsys.readouterr().err
    args = ["survey-q", "--ring", "NILLINE", "--samples", "4", "--degree", "2", "--emax", "2"]
    assert main([*args, "--seed", "8"]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "samples: 4  certified: 0  indeterminate: 4"
    # the sop (y) is certified at e = 1, and so are three of the seed-1 lines
    assert main(["fclosure", "--ring", "NILLINE", "--ideal", "y", "--emax", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x; y",
        "e_star: 1  stabilized: True  certified_lower: True  certified_upper: True  "
        "examined e <= 1",
    ]
    assert main(["qexp", "--ring", "NILLINE", "--ideal", "y", "--emax", "1"]) == 0
    assert capsys.readouterr().out == "Q = 2 = 2^1\n"
    assert main([*args, "--seed", "1"]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "samples: 4  certified: 3  indeterminate: 1"
    # TWOPLANES is no hypersurface, so this window runs to e = 10, and its
    # stage at e = 9 passes frobenius_e_cap = 8: the report records that
    args = ["survey-q", "--ring", "TWOPLANES", "--samples", "1", "--j", "1"]
    assert main([*args, "--emax", "10", "--lookahead", "10", "--json"]) == 2
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["status"], r["cause"]) for r in records] == [
        ("error", "Frobenius exponent 9 exceeds the configured cap 8")
    ]


def test_nil_suite_reports_the_exponent_cap():
    # y is no nilpotent of NILLINE: no y^[p^e] with e <= cap lies in J
    NIL = builtin_ring("NILLINE")
    with pytest.raises(BudgetExceededError) as err:
        run_suite("nil", NIL, nil_gens=[NIL.ring.var("y")])
    assert err.value.kind == "exponent"
    assert str(err.value) == "the given ideal is not nilpotent within the exponent cap"


def test_cli_nil_lists_target_generators_in_the_order_given(capsys):
    argv = ["verify", "nil", "--ring", "NILLINE", "--ideal", "y; x*y", "--nil", "x", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["records"][0]["generators"] == ["y", "x*y"]


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


# Every README example, the failing member/dseq/filtreg cases, the HSL
# number of a regular ring and a parse error: (id, command line, exit code,
# SHA-256 of stdout in text mode, and with --json).  The 12-sample survey
# stands in for the README's 50 samples, and FERMAT3 at its default
# characteristic 5 for the README's 11.
_PINNED_RUNS = [
    ("gb", 'gb --ring TWOPLANES --ideal "x+z; y+w"', 0,
     "9eeccc222bdc70176bac1986cbc3ba79f676d21da35d57f272dfb464e964db98",
     "aa09df0c18a5babd94ebb7452ee195b7b383ee1eb1fa2f583b1d9fce11b4ba1f"),
    ("member", 'member --ring NILLINE --ideal y --poly x', 1,
     "e7977f5ba7d32779502a0ab1ea81464ce57f84d5ac661eaca4e5bc6527cc71eb",
     "a1f2d80208c1e96fff2cf996c2ff2e8f2a446fe46ca31a1b01b107a85bc8aee3"),
    ("member-true", 'member --ring NILLINE --ideal y --poly "x^2"', 0,
     "0c354da5e4d2bf407fc96009764096b548f7593fe000c3e7424e5331029d49be",
     "f871ecf842b31f3510b0eb7cd04aacb895ca436846f31e415450f5d8da535429"),
    ("colon", 'colon --ring TWOPLANES --ideal 0 --by x', 0,
     "e6fd07ac3585045bc66f3c28ab5d9382474304034b2aa0b83ea5f73048564e5a",
     "3712267b24e096b184e43019608f03f5bd9f860aeb632b945d5d6fae6a3e19b4"),
    ("intersect", 'intersect --ring REG --ideal x --with y', 0,
     "f89e60867dfa4fdd5244a8c422884583baebcd68ce34e5657fdb85a8510e0818",
     "10e5bad1e4a60f40aa307f1deabf3d46d150ea664b06509fc92d24b69b513947"),
    ("sat", 'sat --ring REG --ideal "x^2*y" --by "x; y"', 0,
     "2a4e3b5ac68039250cafedc9fee3d0c7d37de444b78f61f2a7d7cf11c4334433",
     "5fb156d14ece61183312f3d5104f54d0d72c91add89b3e62dcd4aa01ad9ad534"),
    ("dim", 'dim --ring TWOPLANES --ideal 0', 0,
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
     "cfef975a06d9324e60d42146ea86f27ae388c9d41c833f098a71a2c4eecfa2e0"),
    ("fpower", 'fpower --ring NILLINE --ideal y -e 1', 0,
     "019e6bd4a5423fa03a18ec75c46ed0c3b0d231021b402ebe7b016f2aabb3209c",
     "1ffdaf52b293b46269ed5eb79d7e73bd92eb537ec3d572390226541f12cfe4cf"),
    ("froot", 'froot --ring REG --char 2 --ideal "x^2*y^3" -e 1', 0,
     "f89e60867dfa4fdd5244a8c422884583baebcd68ce34e5657fdb85a8510e0818",
     "9dfb6f56e23dfaf5c555e561cc9100a11cb351dbc429fb5153b57e7de136b02a"),
    ("fclosure", 'fclosure --ring NILLINE --ideal y', 0,
     "71876264aa5c2e4f0b70254b7115b0a3c93f49e06b8965387711b3780e414f2c",
     "1ae2f015c63567b4fa8b47b312fdfbfd020fe2df9f8b8f9682c7f96e59cc4028"),
    ("qexp", 'qexp --ring NILLINE --ideal y', 0,
     "1f6cef31948327ff9c9f296d02f6a82e1293368ab17c0a8b42704751741e7530",
     "1a796de5aa40c703bdff0f2911f66c0559731d12f24d8c48b088892d117ca11e"),
    ("hsl", 'hsl --ring FERMAT3', 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
     "30df48623b1e170326a0a37fceee8febf3864a7f83c8d3dc9c794e059b89fb6e"),
    ("hsl-regular", 'hsl --ring REG', 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
     "5ed2bb359171db410a0373fc8745a69e788aca40e099a975c018ffcfc52c2477"),
    ("dseq", 'dseq --ring REG --seq "x; y; z"', 0,
     "4eeb239ba59289f5f4d9b8f76414a5820388abd7b4c5e8c1969d258884bdf64b",
     "338bb84cc543e6d81a8ccd9f7fa7376e0521e98da495e1b5b0d5f0016628ed45"),
    ("dseq-false", 'dseq --ring NILLINE --seq x', 1,
     "a7cf2ebf05f7fae34b4c560ffe2064f5f0b2738063559cb7b34181db598fe1d2",
     "9053dad5190da613292f20853a09f66553ea8a7fb0c09da7eaba86be124aac51"),
    ("usd", 'usd --ring TWOPLANES --seq "x+z; y+w" --nmax 3', 0,
     "ebeca03483a25aabd8797540584e9fc77912b3e16b2093e730924d63ca664b31",
     "301df409fe17094823b56ec34920d2ea4b61714f63e5d174d3da05e488ab3599"),
    ("filtreg", 'filtreg --ring TWOPLANES --seq "x+z; y+w"', 0,
     "8df491599270102a2b0ff4d45bbd5cb166a188bb42bcb1f1cfaf85dc08642ba2",
     "f746a49076f120e52e77c57a248c00cc251956fd8c2a8b6ef98cafd982509d3a"),
    ("filtreg-false", 'filtreg --ring TWOPLANES --seq x', 1,
     "1c019be85e138066aaa86068426528ce0c119e79e8f931b3c77910fa9f2b3809",
     "9d26ba6d81e5008d808cef09eb394f181097cd8b96233552c22c7505cbad5fc5"),
    ("unmixed", 'unmixed --ring TWOPLANES --seq "x+z; y+w" --subset 1', 0,
     "ee44b4874681936a7905ca674901e2cf167bd744f593db385eba1228e4f76d3d",
     "48172a11f00a4b410f570ba2902db5270b8abd9154960cf0e86072705759b7ae"),
    ("limideal", 'limideal --ring NILLINE --seq y --exps 2', 0,
     "5d11d68644ccb823c3e498047de413eb28a95dc72f397ceddb0e8994d833807f",
     "854f970f980bd6b5b1d733d24125691713380ce4bf42336155c05366671c285e"),
    ("verify-gy", 'verify gy --ring TWOPLANES --seq "x+z; y+w" --nmax 3', 0,
     "09f09103404a8c610b9095c1498f91f9c61770baa5b4d53ef2e58a2cd5d82aa1",
     "6fc860450652998e013da57df6d10c7983354ae3dc5f44c9e6542c6920bb3f9b"),
    ("verify-fixedq", 'verify fixedq --ring TWOPLANES --seq "x+z; y+w" --samples 3', 0,
     "2d783dd30e01621fc8370ba9f8397af43de576571083ad57702bf18cf71f0b2f",
     "b751a198e8ccffb784d0b886574c9af2d16a6bca12cc1853e1b2301d3e549c1c"),
    ("verify-nil", 'verify nil --ring NILLINE --ideal y --nil x', 0,
     "4502a5e0255243c339e4d9e759e1ac3fce251f5d7f101e186e70446102e5a423",
     "04aeae2bb84ba58eb77b0e7a429ea316f04940c4830051f5d3de2c2f5e634799"),
    ("survey-q", 'survey-q --ring TWOPLANES --samples 12 --seed 20260810 --j 1,2', 0,
     "eff7bfd4f8d77d2f0f3ec8fc89c4e00cb76b924d0c40ad24b8b8036bdf0cdb0a",
     "3d1f0f46209b27e5a7a763acfdde52095cdccfda97388fd67600be3bb638844e"),
    ("parse-error", 'gb --ring REG --ideal "x + q"', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize(
    "command, exit_code, text_digest, json_digest",
    [row[1:] for row in _PINNED_RUNS],
    ids=[row[0] for row in _PINNED_RUNS],
)
def test_cli_output_is_pinned(command, exit_code, text_digest, json_digest, mode, capsys):
    argv = shlex.split(command) + (["--json"] if mode == "json" else [])
    assert main(argv) == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        text_digest if mode == "text" else json_digest
    )
