"""Command-line workbench.

Exit codes: 0 when the computed value is produced or the checked property
holds, 1 when a checked property is false, 2 on operational errors
(parse failures, exhausted budgets, unstabilized chains), 3 when an internal
engine invariant failed (a bug, never a verdict on the input).

Ideals given on the command line are read in the quotient ring: the full
preimage (generators plus the defining relations) is what the engine
operates on.

Each subcommand is declared once, in :data:`COMMANDS`, from which the
parser, the dispatch and the output are built.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from .errors import FClosureError, InternalError, UnstabilizedError
from .frobenius import (
    frobenius_closure,
    frobenius_power,
    frobenius_root,
    hsl_number,
    q_exponent,
)
from .ideals import colon, ideal_sum, intersect, krull_dimension, memo_scope, normal_form, saturate
from .sequences import (
    SequenceSpec,
    is_d_sequence,
    is_filter_regular,
    is_usd_bounded,
    limit_ideal,
    unmixed_part,
)
from .workbench import SurveyConfig, resolve_ring, run_suite, survey_uniform_q


def _polys(text, R):
    """The polynomials of a ';'-separated list, in the order given."""
    return [R.ring.parse(part) for part in text.split(";") if part.strip()]


def _ideal(text, R):
    return R.preimage(_polys(text, R))


def _ints(text, flag):
    """The integers of the comma list ``text`` given to ``flag``; empty
    entries are skipped."""
    out = []
    for v in text.split(","):
        if not v.strip():
            continue
        try:
            out.append(int(v))
        except ValueError:
            raise ValueError(f"{flag} takes a comma list of integers, not {v.strip()!r}") from None
    return out


def _seq(args, R):
    """The sequence of ``--seq``, raised to ``--exps`` where the command
    takes it (``usd`` and ``verify`` choose the exponents themselves)."""
    exps = getattr(args, "exps", None)
    return SequenceSpec(R, _polys(args.seq, R), _ints(exps, "--exps") if exps else None)


def _subset(text, length):
    return list(range(1, length + 1)) if text is None else _ints(text, "--subset")


def _result(args, lines, code=0, **fields):
    """A handler's result: the JSON payload (the command name and
    ``fields``), the text lines and the exit code."""
    return {"command": args.command, **fields}, lines, code


def _ideal_result(args, ideal, *lines, code=0, key="basis", **fields):
    """The result of a command whose value is ``ideal``: its reduced basis
    is the first text line and the payload field ``key``."""
    basis = [str(g) for g in ideal.basis()]
    return _result(args, ["; ".join(basis) or "0", *lines], code, **{key: basis}, **fields)


def _gb(args, R):
    return _ideal_result(args, _ideal(args.ideal, R))


def _member(args, R):
    nf = normal_form(R.ring.parse(args.poly), _ideal(args.ideal, R))
    ok = nf.is_zero()
    line = f"member: {ok}" if ok else f"member: {ok} (normal form: {nf})"
    return _result(args, [line], 0 if ok else 1, member=ok, normal_form=str(nf))


def _colon(args, R):
    return _ideal_result(args, colon(_ideal(args.ideal, R), _ideal(args.by, R)))


def _intersect(args, R):
    return _ideal_result(args, intersect(_ideal(args.ideal, R), _ideal(args.with_, R)))


def _sat(args, R):
    out, s = saturate(_ideal(args.ideal, R), _ideal(args.by, R))
    return _ideal_result(args, out, f"stabilized at exponent {s}", stabilization=s)


def _dim(args, R):
    d = krull_dimension(_ideal(args.ideal, R))
    return _result(args, [str(d)], dimension=d)


def _fpower(args, R):
    return _ideal_result(args, ideal_sum(frobenius_power(_ideal(args.ideal, R), args.e), R.J))


def _froot(args, R):
    return _ideal_result(args, frobenius_root(_ideal(args.ideal, R), args.e))


def _fclosure(args, R):
    res = frobenius_closure(_ideal(args.ideal, R), R, e_max=args.emax, lookahead=args.lookahead)
    status = f"e_star: {res.e_star}  stabilized: {res.stabilized}  "
    status += f"certified_lower: {res.certified_lower}  certified_upper: {res.certified_upper}  "
    status += f"examined e <= {res.examined_e}"
    names = ("e_star", "stabilized", "certified_lower", "certified_upper", "examined_e")
    fields = {k: getattr(res, k) for k in names}
    code = 0 if res.stabilized else 2
    return _ideal_result(args, res.closure, status, code=code, key="closure", **fields)


def _hsl(args, R):
    eta = hsl_number(R, args.emax)
    if eta is None and not R.is_homogeneous_hypersurface():
        raise ValueError(f"{R} is not a hypersurface with a homogeneous relation")
    if eta is None:
        raise UnstabilizedError(f"the HSL chain did not settle within e <= {args.emax}")
    return _result(args, [str(eta)], hsl_number=eta)


def _qexp(args, R):
    Q = q_exponent(_ideal(args.ideal, R), R, e_max=args.emax)
    return _result(args, [f"Q = {Q.q} = {R.p}^{Q.e}"], e=Q.e, q=Q.q)


def _dseq(args, R):
    ok, violation = is_d_sequence(_seq(args, R))
    line = "d-sequence: true" if ok else f"d-sequence: false (violation at (j, k) = {violation})"
    return _result(args, [line], 0 if ok else 1, is_d_sequence=ok, violation=violation)


def _usd(args, R):
    seq = _seq(args, R)
    v = is_usd_bounded(seq, args.nmax)
    box = f"passes the box [1,{args.nmax}]^{seq.length} and all permutations"
    line = box if v.passed else f"fails: {v.witness}"
    fields = {"passed_box": v.passed, "n_max": v.n_max, "witness": v.witness}
    return _result(args, [line], 0 if v.passed else 1, **fields)


def _filtreg(args, R):
    ok = is_filter_regular(_seq(args, R))
    return _result(args, [f"filter-regular: {ok}"], 0 if ok else 1, filter_regular=ok)


def _unmixed(args, R):
    seq = _seq(args, R)
    return _ideal_result(args, unmixed_part(seq, _subset(args.subset, seq.length)))


def _limideal(args, R):
    seq = _seq(args, R)
    out, j_star = limit_ideal(seq, _subset(args.subset, seq.length))
    return _ideal_result(args, out, f"stabilized at chain index {j_star}", stabilization=j_star)


def _verify(args, R):
    seq = _seq(args, R) if args.seq else None
    a = _ideal(args.ideal, R) if args.ideal else None
    nil_gens = _polys(args.nil, R) if args.nil else None
    cfg = SurveyConfig(sample_count=args.samples, seed=args.seed, e_max=args.emax, n_max=args.nmax)
    report = run_suite(args.suite, R, x=seq, cfg=cfg, a=a, nil_gens=nil_gens)
    # a suite with checks passes exactly when none of them fails
    failed = [check for check in report.get("checks", []) if not check["passed"]]
    lines = [f"suite {args.suite}: {'pass' if report['passed'] else 'FAIL'}"]
    lines += [f"  first failure: {check}" for check in failed[:1]]
    return report, lines, 0 if report["passed"] else 1


def _survey_q(args, R):
    lengths = "all" if args.j == "all" else tuple(_ints(args.j, "--j"))
    cfg = SurveyConfig(
        sample_count=args.samples,
        seed=args.seed,
        max_degree=args.degree,
        lengths=lengths,
        e_max=args.emax,
        lookahead=args.lookahead,
    )
    report = survey_uniform_q(R, cfg)
    agg = report.aggregate
    lines = [
        f"samples: {len(report.records)}  certified: {agg['certified']}  "
        f"indeterminate: {agg['indeterminate']}",
        f"max Q: {agg['max_q']}",
        f"histogram: {agg['histogram']}",
    ]
    return report.to_dict(), lines, 0 if agg["indeterminate"] == 0 else 2


class Command(NamedTuple):
    help: str
    arguments: tuple  # (name, add_argument keywords) pairs
    run: Callable  # (args, R) -> (JSON payload, text lines, exit code)


def _arg(name, **options):
    return name, options


IDEAL = _arg("--ideal", required=True)
BY = _arg("--by", required=True)
WITH = _arg("--with", dest="with_", required=True)
POLY = _arg("--poly", required=True)
E = _arg("-e", type=int, required=True)
EMAX = _arg("--emax", type=int, default=5)
LOOKAHEAD = _arg("--lookahead", type=int, default=2)
RAW_SEQ = _arg("--seq", required=True)
SEQ = (RAW_SEQ, _arg("--exps"))
SUBSET = _arg("--subset")
NMAX = _arg("--nmax", type=int, default=2)
VERIFY = (
    _arg("suite", choices=["gy", "huneke", "br21", "fixedq", "nil"]),
    _arg("--seq"),
    NMAX,
    _arg("--ideal"),
    _arg("--nil", help="generators of the nilpotent ideal"),
    _arg("--samples", type=int, default=10),
    _arg("--seed", type=int, default=0),
    _arg("--emax", type=int, default=4),
)
SURVEY = (
    _arg("--samples", type=int, default=50),
    _arg("--seed", type=int, default=0),
    _arg("--j", default="all", help="subsystem lengths, e.g. '1,2' or 'all'"),
    _arg("--degree", type=int, default=1),
    _arg("--emax", type=int, default=4),
    _arg("--lookahead", type=int, default=2),
)

COMMANDS = {
    "gb": Command("reduced Groebner basis of an ideal", (IDEAL,), _gb),
    "member": Command("ideal membership of a polynomial", (IDEAL, POLY), _member),
    "colon": Command("colon ideal (I : K)", (IDEAL, BY), _colon),
    "intersect": Command("ideal intersection", (IDEAL, WITH), _intersect),
    "sat": Command("saturation (I : K^infinity)", (IDEAL, BY), _sat),
    "dim": Command("Krull dimension of the quotient by an ideal", (IDEAL,), _dim),
    "fpower": Command("Frobenius power of an ideal", (IDEAL, E), _fpower),
    "froot": Command("Frobenius root (smallest K with I in K^[p^e])", (IDEAL, E), _froot),
    "fclosure": Command("Frobenius closure chain of an ideal", (IDEAL, EMAX, LOOKAHEAD), _fclosure),
    "qexp": Command("minimal Q with (a^F)^[Q] = a^[Q]", (IDEAL, EMAX), _qexp),
    "hsl": Command("HSL number of the top local cohomology of a hypersurface", (EMAX,), _hsl),
    "dseq": Command("d-sequence test", SEQ, _dseq),
    "usd": Command("bounded unconditioned-strong-d-sequence test", (RAW_SEQ, NMAX), _usd),
    "filtreg": Command("filter-regular sequence test (relative to m)", SEQ, _filtreg),
    "unmixed": Command(
        "unmixed part of a partial-power ideal",
        (*SEQ, _arg("--subset", help="1-based comma list, default all")),
        _unmixed,
    ),
    "limideal": Command("limit ideal of a partial-power ideal", (*SEQ, SUBSET), _limideal),
    "verify": Command("run a verification suite", VERIFY, _verify),
    "survey-q": Command("uniform-Q survey over sampled parameter ideals", SURVEY, _survey_q),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fclosure",
        description="Frobenius closures, test exponents and d-sequence identities over F_p",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default="REG", help="built-in ring name or ring file path")
    common.add_argument("--char", type=int, default=None, help="characteristic for built-ins")
    common.add_argument("--json", action="store_true", help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        q = sub.add_parser(name, parents=[common], help=command.help)
        for arg_name, options in command.arguments:
            q.add_argument(arg_name, **options)
    return parser


@memo_scope
def _run(args):
    command = COMMANDS.get(args.command)
    if command is None:
        raise InternalError(f"unhandled command {args.command}")
    payload, lines, code = command.run(args, resolve_ring(args.ring, args.char))
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (FClosureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
