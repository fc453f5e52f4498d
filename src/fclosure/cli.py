"""Command-line workbench.

Exit codes: 0 when the computed value is produced or the checked property
holds, 1 when a checked property is false, 2 on operational errors
(parse failures, exhausted budgets, unstabilized chains), 3 when an internal
engine invariant failed (a bug, never a verdict on the input).

Ideals given on the command line are read in the quotient ring: the full
preimage (generators plus the defining relations) is what the engine
operates on.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FClosureError, InternalError
from .frobenius import frobenius_closure, frobenius_power, frobenius_root, q_exponent
from .ideals import (
    colon,
    groebner_basis,
    ideal_member,
    ideal_sum,
    intersect,
    krull_dimension,
    memo_scope,
    normal_form,
    saturate,
)
from .sequences import (
    SequenceSpec,
    is_d_sequence,
    is_filter_regular,
    is_usd_bounded,
    limit_ideal,
    unmixed_part,
)
from .workbench import SurveyConfig, resolve_ring, run_suite, survey_uniform_q


def _parse_ideal_arg(text, R):
    gens = [R.ring.parse(part) for part in text.split(";") if part.strip()]
    return R.preimage(gens)


def _parse_seq_arg(args, R):
    elems = [R.ring.parse(part) for part in args.seq.split(";") if part.strip()]
    exps = None
    if getattr(args, "exps", None):
        exps = [int(v) for v in args.exps.split(",") if v.strip()]
    return SequenceSpec(R, elems, exps)


def _parse_subset(text, length):
    if text is None:
        return list(range(1, length + 1))
    subset = [int(v) for v in text.split(",") if v.strip()]
    for i in subset:
        if not 1 <= i <= length:
            raise ValueError(f"subset index {i} out of range 1..{length}")
    return subset


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _ideal_strings(I):
    return [str(g) for g in groebner_basis(I)]


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

    def cmd(name, helptext, **kw):
        return sub.add_parser(name, parents=[common], help=helptext, **kw)

    q = cmd("gb", "reduced Groebner basis of an ideal")
    q.add_argument("--ideal", required=True)

    q = cmd("member", "ideal membership of a polynomial")
    q.add_argument("--ideal", required=True)
    q.add_argument("--poly", required=True)

    q = cmd("colon", "colon ideal (I : K)")
    q.add_argument("--ideal", required=True)
    q.add_argument("--by", required=True)

    q = cmd("intersect", "ideal intersection")
    q.add_argument("--ideal", required=True)
    q.add_argument("--with", dest="with_", required=True)

    q = cmd("sat", "saturation (I : K^infinity)")
    q.add_argument("--ideal", required=True)
    q.add_argument("--by", required=True)

    q = cmd("dim", "Krull dimension of the quotient by an ideal")
    q.add_argument("--ideal", required=True)

    q = cmd("fpower", "Frobenius power of an ideal")
    q.add_argument("--ideal", required=True)
    q.add_argument("-e", type=int, required=True)

    q = cmd("froot", "Frobenius root (smallest K with I in K^[p^e])")
    q.add_argument("--ideal", required=True)
    q.add_argument("-e", type=int, required=True)

    q = cmd("fclosure", "Frobenius closure chain of an ideal")
    q.add_argument("--ideal", required=True)
    q.add_argument("--emax", type=int, default=None)
    q.add_argument("--lookahead", type=int, default=None)

    q = cmd("qexp", "minimal Q with (a^F)^[Q] = a^[Q]")
    q.add_argument("--ideal", required=True)
    q.add_argument("--emax", type=int, default=None)

    q = cmd("dseq", "d-sequence test")
    q.add_argument("--seq", required=True)
    q.add_argument("--exps", default=None)

    q = cmd("usd", "bounded unconditioned-strong-d-sequence test")
    q.add_argument("--seq", required=True)
    q.add_argument("--exps", default=None)
    q.add_argument("--nmax", type=int, default=2)

    q = cmd("filtreg", "filter-regular sequence test (relative to m)")
    q.add_argument("--seq", required=True)
    q.add_argument("--exps", default=None)

    q = cmd("unmixed", "unmixed part of a partial-power ideal")
    q.add_argument("--seq", required=True)
    q.add_argument("--exps", default=None)
    q.add_argument("--subset", default=None, help="1-based comma list, default all")

    q = cmd("limideal", "limit ideal of a partial-power ideal")
    q.add_argument("--seq", required=True)
    q.add_argument("--exps", default=None)
    q.add_argument("--subset", default=None)

    q = cmd("verify", "run a verification suite")
    q.add_argument("suite", choices=["gy", "huneke", "br21", "fixedq", "nil"])
    q.add_argument("--seq", default=None)
    q.add_argument("--exps", default=None)
    q.add_argument("--nmax", type=int, default=2)
    q.add_argument("--ideal", default=None)
    q.add_argument("--nil", default=None, help="generators of the nilpotent ideal")
    q.add_argument("--samples", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--emax", type=int, default=4)

    q = cmd("survey-q", "uniform-Q survey over sampled parameter ideals")
    q.add_argument("--samples", type=int, default=50)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--j", default="all", help="subsystem lengths, e.g. '1,2' or 'all'")
    q.add_argument("--degree", type=int, default=1)
    q.add_argument("--emax", type=int, default=4)
    q.add_argument("--lookahead", type=int, default=2)

    return parser


@memo_scope
def _run(args):
    R = resolve_ring(args.ring, args.char)

    if args.command == "gb":
        I = _parse_ideal_arg(args.ideal, R)
        basis = _ideal_strings(I)
        _emit(args, {"command": "gb", "basis": basis}, ["; ".join(basis) or "0"])
        return 0

    if args.command == "member":
        I = _parse_ideal_arg(args.ideal, R)
        f = R.ring.parse(args.poly)
        ok = ideal_member(f, I)
        nf = normal_form(f, I)
        _emit(
            args,
            {"command": "member", "member": ok, "normal_form": str(nf)},
            [f"member: {ok}" if ok else f"member: {ok} (normal form: {nf})"],
        )
        return 0 if ok else 1

    if args.command == "colon":
        I = _parse_ideal_arg(args.ideal, R)
        K = _parse_ideal_arg(args.by, R)
        out = colon(I, K)
        _emit(args, {"command": "colon", "basis": _ideal_strings(out)}, [str(out)])
        return 0

    if args.command == "intersect":
        I = _parse_ideal_arg(args.ideal, R)
        K = _parse_ideal_arg(args.with_, R)
        out = intersect(I, K)
        _emit(args, {"command": "intersect", "basis": _ideal_strings(out)}, [str(out)])
        return 0

    if args.command == "sat":
        I = _parse_ideal_arg(args.ideal, R)
        K = _parse_ideal_arg(args.by, R)
        out, s = saturate(I, K)
        _emit(
            args,
            {"command": "sat", "basis": _ideal_strings(out), "stabilization": s},
            [str(out), f"stabilized at exponent {s}"],
        )
        return 0

    if args.command == "dim":
        I = _parse_ideal_arg(args.ideal, R)
        d = krull_dimension(I)
        _emit(args, {"command": "dim", "dimension": d}, [str(d)])
        return 0

    if args.command == "fpower":
        I = _parse_ideal_arg(args.ideal, R)
        out = ideal_sum(frobenius_power(I, args.e), R.J)
        _emit(args, {"command": "fpower", "basis": _ideal_strings(out)}, [str(out)])
        return 0

    if args.command == "froot":
        I = _parse_ideal_arg(args.ideal, R)
        out = frobenius_root(I, args.e)
        _emit(args, {"command": "froot", "basis": _ideal_strings(out)}, [str(out)])
        return 0

    if args.command == "fclosure":
        I = _parse_ideal_arg(args.ideal, R)
        res = frobenius_closure(I, R, e_max=args.emax, lookahead=args.lookahead)
        payload = {
            "command": "fclosure",
            "closure": _ideal_strings(res.closure),
            "e_star": res.e_star,
            "stabilized": res.stabilized,
            "certified_lower": res.certified_lower,
            "examined_e": res.examined_e,
        }
        lines = [
            str(res.closure),
            f"e_star: {res.e_star}  stabilized: {res.stabilized}  "
            f"certified_lower: {res.certified_lower}  examined e <= {res.examined_e}",
        ]
        _emit(args, payload, lines)
        return 0 if res.stabilized else 2

    if args.command == "qexp":
        I = _parse_ideal_arg(args.ideal, R)
        Q = q_exponent(I, R, e_max=args.emax)
        _emit(
            args,
            {"command": "qexp", "e": Q.e, "q": Q.q},
            [f"Q = {Q.q} = {R.p}^{Q.e}"],
        )
        return 0

    if args.command == "dseq":
        seq = _parse_seq_arg(args, R)
        ok, violation = is_d_sequence(seq)
        payload = {"command": "dseq", "is_d_sequence": ok, "violation": violation}
        line = "d-sequence: true" if ok else f"d-sequence: false (violation at (j, k) = {violation})"
        _emit(args, payload, [line])
        return 0 if ok else 1

    if args.command == "usd":
        seq = _parse_seq_arg(args, R)
        verdict = is_usd_bounded(seq, args.nmax)
        payload = {
            "command": "usd",
            "passed_box": verdict.passed,
            "n_max": verdict.n_max,
            "witness": verdict.witness,
        }
        line = (
            f"passes the box [1,{args.nmax}]^{seq.length} and all permutations"
            if verdict.passed
            else f"fails: {verdict.witness}"
        )
        _emit(args, payload, [line])
        return 0 if verdict.passed else 1

    if args.command == "filtreg":
        seq = _parse_seq_arg(args, R)
        ok = is_filter_regular(seq)
        _emit(args, {"command": "filtreg", "filter_regular": ok}, [f"filter-regular: {ok}"])
        return 0 if ok else 1

    if args.command == "unmixed":
        seq = _parse_seq_arg(args, R)
        subset = _parse_subset(args.subset, seq.length)
        out = unmixed_part(seq, subset)
        _emit(args, {"command": "unmixed", "basis": _ideal_strings(out)}, [str(out)])
        return 0

    if args.command == "limideal":
        seq = _parse_seq_arg(args, R)
        subset = _parse_subset(args.subset, seq.length)
        out, j_star = limit_ideal(seq, subset)
        _emit(
            args,
            {"command": "limideal", "basis": _ideal_strings(out), "stabilization": j_star},
            [str(out), f"stabilized at chain index {j_star}"],
        )
        return 0

    if args.command == "verify":
        seq = _parse_seq_arg(args, R) if args.seq else None
        a = _parse_ideal_arg(args.ideal, R) if args.ideal else None
        nil_gens = (
            [R.ring.parse(part) for part in args.nil.split(";") if part.strip()]
            if args.nil
            else None
        )
        cfg = SurveyConfig(
            sample_count=args.samples, seed=args.seed, e_max=args.emax, n_max=args.nmax
        )
        report = run_suite(args.suite, R, x=seq, cfg=cfg, a=a, nil_gens=nil_gens)
        lines = [f"suite {args.suite}: {'pass' if report['passed'] else 'FAIL'}"]
        if not report["passed"]:
            for check in report.get("checks", []):
                if not check["passed"]:
                    lines.append(f"  first failure: {check}")
                    break
        _emit(args, report, lines)
        return 0 if report["passed"] else 1

    if args.command == "survey-q":
        lengths = "all" if args.j == "all" else tuple(int(v) for v in args.j.split(","))
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
        _emit(args, report.to_dict(), lines)
        return 0 if agg["indeterminate"] == 0 else 2

    raise InternalError(f"unhandled command {args.command}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except FClosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
