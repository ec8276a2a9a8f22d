"""Command-line surface: one subcommand per pipeline.

Exit codes: 0 success, 1 verification failure (a residual did not vanish,
a membership check failed, or no relation was found), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .cfalg import (
    DEFAULT_FIND_PREC,
    DEFAULT_VERIFY_PREC,
    Relation,
    compute_G,
    compute_Gn,
    compute_cf,
    compute_inv_cf,
    continuants,
    find_relation,
    minimal_degree_report,
    verify_relation,
)
from .gf2poly import UniPoly
from .laurent import LaurentSeries, cf_expand, cf_value, unbounded_quotient_series
from .riccati import QuotientSeq, baum_sweet_check, witness_table
from .seqcore import (
    EpsSpec,
    WordTooLargeError,
    _check_size,
    build_word,
    kernel,
    kernel_sorted,
    positions,
    positions_predicted,
    stream_prefix,
    Shift,
)
from .zseries import compute_F, compute_F0


def _emit(args, data: dict, text: str) -> None:
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def _spec(args) -> EpsSpec:
    return EpsSpec.parse(args.eps)


# --target name -> series builder (spec, precision)
_TARGETS = {
    "G": compute_G,
    "invcf": compute_inv_cf,
    "cf": compute_cf,
    "F": compute_F,
    "F0": compute_F0,
}


def _target(args, spec: EpsSpec, headroom: bool = False):
    """The --target series; with headroom, deep enough to verify at 2x prec."""
    depth = 2 * args.prec + 64 if headroom else args.prec
    return _TARGETS[args.target](spec, depth)


def _relation_out(args, rels: list[Relation]) -> int:
    if not rels:
        _emit(args, {"relations": []}, "no relation within bounds")
        return 1
    if args.relation_file:
        with open(args.relation_file, "w") as fh:
            fh.write(rels[0].to_file_text())
    data = {"relations": [r.to_json() for r in rels]}
    text = "\n".join(r.inline_str() for r in rels)
    _emit(args, data, text)
    return 0


def _residual_out(args, report) -> int:
    text = (
        f"vanished below precision {report.precision}"
        if report.vanished
        else f"residual at depth {report.residual_depth}"
        f" (precision {report.precision})"
    )
    _emit(args, report.to_json(), text)
    return 0 if report.vanished else 1


def cmd_verify(args) -> int:
    spec = _spec(args)
    rel = _load_relation(args)
    return _residual_out(args, verify_relation(rel, _target(args, spec)))


def cmd_find_relation(args) -> int:
    target = _target(args, _spec(args), headroom=True)
    rels = find_relation(
        target, args.ydeg, args.coeff_deg, z_deg_bound=args.z_deg, prec=args.prec
    )
    return _relation_out(args, rels)


# ---------------------------------------------------------------- seq


def cmd_seq_prefix(args) -> int:
    spec = _spec(args)
    word = stream_prefix(spec, args.len)
    _emit(args, {"eps": str(spec), "prefix": word}, word)
    return 0


def cmd_seq_word(args) -> int:
    spec = _spec(args)
    word = build_word(spec, args.n)
    _emit(args, {"eps": str(spec), "n": args.n, "word": word}, word)
    return 0


def cmd_seq_positions(args) -> int:
    spec = _spec(args)
    if args.predicted:
        if args.letter not in spec.period:
            raise ValueError(
                f"letter {args.letter!r} is not in the period {spec.period!r}"
            )
        ps = positions_predicted(spec, spec.period.index(args.letter), args.len)
    else:
        ps = positions(spec, args.letter, args.len)
    text = " ".join(map(str, ps.indices))
    _emit(
        args,
        {"eps": str(spec), "letter": args.letter, "horizon": ps.horizon,
         "indices": list(ps.indices)},
        text,
    )
    return 0


def cmd_seq_kernel(args) -> int:
    spec = _spec(args)
    elements = kernel_sorted(kernel(spec))
    parts = []
    data = []
    for el in elements:
        if isinstance(el, Shift):
            parts.append(f"shift({el.j})")
            data.append({"kind": "shift", "j": el.j})
        else:
            parts.append(f"constant({el.letter})")
            data.append({"kind": "constant", "letter": el.letter})
    _emit(
        args,
        {"eps": str(spec), "size": len(elements), "elements": data},
        f"size {len(elements)}: " + ", ".join(parts),
    )
    return 0


# ---------------------------------------------------------------- cf


def cmd_cf_convergents(args) -> int:
    spec = _spec(args)
    pair = continuants(spec, args.n)
    text = f"u_{pair.n} = {pair.u}\nv_{pair.n} = {pair.v}"
    _emit(
        args,
        {"eps": str(spec), "n": pair.n, "u": str(pair.u), "v": str(pair.v)},
        text,
    )
    return 0


def cmd_cf_series(args) -> int:
    spec = _spec(args)
    prec = args.prec
    if args.target == "Gn":
        if args.index is None:
            raise SystemExit2("--index is required with --target Gn")
        s = compute_Gn(spec, args.index, prec)
    elif args.index is not None:
        raise SystemExit2("--index applies only to --target Gn")
    else:
        s = _target(args, spec)
    text = f"{s}  (depth < {s.precision})"
    _emit(args, {"eps": str(spec), "target": args.target, **s.to_json()}, text)
    return 0


def cmd_min_degree(args) -> int:
    target = _target(args, _spec(args), headroom=True)
    deg, rel = minimal_degree_report(
        target, args.ydeg, args.coeff_deg, args.z_deg, prec=args.prec)
    if deg is None:
        _emit(args, {"degree": None}, "no relation within bounds")
        return 1
    bounds = {"ydeg": args.ydeg, "coeff_deg": args.coeff_deg, "prec": args.prec}
    z = ""
    if args.z_deg is not None:
        bounds["z_deg"], z = args.z_deg, f", z deg <= {args.z_deg}"
    text = f"(ydeg <= {args.ydeg}, coeff deg <= {args.coeff_deg}{z}, prec {args.prec})"
    _emit(args, {"degree": deg, "bounds": bounds, **rel.to_json()},
          f"minimal degree within bounds {text}: {deg}\n{rel.inline_str()}")
    return 0


def cmd_cf_expand(args) -> int:
    prec = args.prec
    # the series' bits span max - min of its exponents below prec; refuse
    # a span past the size cap before allocating it
    if args.demo == "unbounded":
        _check_size(prec, f"precision {prec}")
        s = unbounded_quotient_series(prec)
        var = "x"
    elif args.exponents:
        exps = [e for e in map(int, args.exponents.split(",")) if e < prec]
        _check_size(max(exps, default=0) - min(exps, default=0),
                    "exponent span")
        s = LaurentSeries.from_exponents(exps, prec)
        var = "t"
    else:
        raise SystemExit2("need --demo unbounded or --exponents")
    result = cf_expand(s, args.count)
    quots = [q.str_in(var) for q in result.quotients]
    code = 0
    law = None
    if args.check_exponent_law:
        cs = []
        for q in result.quotients[1:]:
            es = list(q.exponents())
            if len(es) != 1:
                law = False
                break
            cs.append(es[0])
        if law is None:
            law = all(cs[2 * n] == 1 for n in range(len(cs) // 2)) and all(
                cs[2 * n + 1] == 4 * cs[n] - 1 for n in range((len(cs) - 1) // 2)
            )
        code = 0 if law else 1
    text = "[" + ", ".join(quots) + f"]  ({result.status})"
    if law is not None:
        text += f"\nexponent law: {'holds' if law else 'fails'}"
    _emit(
        args,
        {"quotients": quots, "status": result.status, "exponent_law": law},
        text,
    )
    return code


# ---------------------------------------------------------------- ps


def cmd_ps_series(args) -> int:
    spec = _spec(args)
    s = _target(args, spec)
    _emit(args, {"eps": str(spec), **s.to_json()}, str(s))
    return 0


def cmd_ps_cartier(args) -> int:
    spec = _spec(args)
    prec = args.prec
    s = compute_F(spec, prec).cartier(args.r)
    _emit(args, {"eps": str(spec), "r": args.r, **s.to_json()}, str(s))
    return 0


# ---------------------------------------------------------------- riccati


def cmd_riccati_check(args) -> int:
    q = QuotientSeq.parse(args.pattern, args.a, args.b)
    rows = []
    data = []
    for w in witness_table(q, min(args.n, len(q.pattern) - 1)):
        val = "inf" if w.residual_valuation == math.inf else w.residual_valuation
        rows.append(f"n={w.n:3d}  deg F_n={w.f_n.degree():4d}  g_n={w.g_n}  "
                    f"residual valuation={'-' if val is None else val}")
        data.append({"n": w.n, "f_n": str(w.f_n), "g_n": str(w.g_n),
                     "residual_valuation": val})
    _emit(args, {"pattern": args.pattern, "a": args.a, "b": args.b,
                 "witnesses": data}, "\n".join(rows))
    return 0


def cmd_riccati_baum_sweet(args) -> int:
    prec = args.prec
    quots = [UniPoly.parse(s.strip()) for s in args.quotients.split(",")]
    alpha = cf_value(quots, tail_period=args.periodic_tail, precision=prec + 32)
    ok = baum_sweet_check(alpha, prec)
    _emit(
        args,
        {"quotients": args.quotients, "member": ok, "precision": prec},
        f"degree-one partial quotient class member: {ok}",
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- plumbing


class SystemExit2(Exception):
    """Usage error signalled from command bodies."""


def _load_relation(args) -> Relation:
    with open(args.relation_file) as fh:
        return Relation.from_file_text(fh.read())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _letter(text: str) -> str:
    if len(text) != 1 or not "a" <= text <= "y":
        raise argparse.ArgumentTypeError(f"{text!r} is not one letter a-y")
    return text


def _convergent_index(text: str) -> int:
    value = int(text)
    if value < -1:
        raise argparse.ArgumentTypeError(f"{text!r} is below -1")
    return value


def _add_common(p, prec=None):
    """--eps and --json, and --prec when the command has a default for it."""
    p.add_argument("--eps", required=True, help="seed, e.g. '(ab)' or 'a(bc)'")
    if prec is not None:
        p.add_argument("--prec", type=_positive_int, default=prec,
                       help="working precision")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_search(p, targets, default, ydeg_help=None):
    """--target, --ydeg and --coeff-deg of a search; --z-deg on the z side."""
    _add_common(p, DEFAULT_FIND_PREC)
    p.add_argument("--target", choices=targets, default=default)
    p.add_argument("--ydeg", type=int, required=True, help=ydeg_help)
    p.add_argument("--coeff-deg", type=int, required=True)
    if "F" in targets:
        p.add_argument("--z-deg", type=int, default=8)
    else:
        p.set_defaults(z_deg=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cf2",
        description="Continued fractions of doubling-word sequences over GF(2)",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    seq = sub.add_parser("seq", help="sequence construction").add_subparsers(
        dest="cmd", required=True
    )
    p = seq.add_parser("prefix", help="first letters of the sequence")
    _add_common(p)
    p.add_argument("--len", type=_positive_int, required=True)
    p.set_defaults(func=cmd_seq_prefix)
    p = seq.add_parser("word", help="n-th doubling word")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_seq_word)
    p = seq.add_parser("positions", help="occurrences of a letter")
    _add_common(p)
    p.add_argument("--letter", type=_letter, required=True)
    p.add_argument("--len", type=_positive_int, required=True)
    p.add_argument("--predicted", action="store_true",
                   help="use the shift-by-one law instead of enumeration")
    p.set_defaults(func=cmd_seq_positions)
    p = seq.add_parser("kernel", help="2-kernel of the sequence")
    _add_common(p)
    p.set_defaults(func=cmd_seq_kernel)

    cf = sub.add_parser("cf", help="continued-fraction side").add_subparsers(
        dest="cmd", required=True
    )
    p = cf.add_parser("convergents", help="continuant pair (u_n, v_n)")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_cf_convergents)
    p = cf.add_parser("series", help="print a series")
    _add_common(p, DEFAULT_VERIFY_PREC)
    p.add_argument("--target", choices=["invcf", "cf", "G", "Gn"], default="invcf")
    p.add_argument("--index", type=int, default=None, help="n for --target Gn")
    p.set_defaults(func=cmd_cf_series)
    p = cf.add_parser("verify", help="substitute a series into a relation")
    _add_common(p, DEFAULT_VERIFY_PREC)
    p.add_argument("--target", choices=["invcf", "cf", "G"], default="G")
    p.add_argument("--relation-file", required=True)
    p.set_defaults(func=cmd_verify)
    p = cf.add_parser("find-relation", help="bounded search for relations")
    _add_search(p, ["invcf", "cf", "G"], "G")
    p.add_argument("--relation-file", default=None,
                   help="also write the first relation here")
    p.set_defaults(func=cmd_find_relation)
    p = cf.add_parser("min-degree", help="smallest degree admitting a relation")
    _add_search(p, ["invcf", "cf", "G"], "G", "degree cap")
    p.set_defaults(func=cmd_min_degree)
    p = cf.add_parser("expand", help="continued-fraction expansion of a series")
    p.add_argument("--prec", type=_positive_int, default=4096)
    p.add_argument("--json", action="store_true")
    p.add_argument("--demo", choices=["unbounded"], default=None,
                   help="built-in series with unbounded partial quotients")
    p.add_argument("--exponents", default=None,
                   help="comma list: series sum of t^-e over these e")
    p.add_argument("--count", type=_positive_int, default=16)
    p.add_argument("--check-exponent-law", action="store_true")
    p.set_defaults(func=cmd_cf_expand)

    ps = sub.add_parser("ps", help="power-series side").add_subparsers(
        dest="cmd", required=True
    )
    p = ps.add_parser("series", help="generating series of the sequence")
    _add_common(p, DEFAULT_VERIFY_PREC)
    p.set_defaults(func=cmd_ps_series, target="F")
    p = ps.add_parser("f0", help="indicator series of the first period slot")
    _add_common(p, DEFAULT_VERIFY_PREC)
    p.set_defaults(func=cmd_ps_series, target="F0")
    p = ps.add_parser("verify", help="substitute a series into a relation")
    _add_common(p, DEFAULT_VERIFY_PREC)
    p.add_argument("--target", choices=["F", "F0"], default="F")
    p.add_argument("--relation-file", required=True)
    p.set_defaults(func=cmd_verify)
    p = ps.add_parser("find-relation", help="bounded search for relations")
    _add_search(p, ["F", "F0"], "F")
    p.add_argument("--relation-file", default=None)
    p.set_defaults(func=cmd_find_relation)
    p = ps.add_parser("min-degree", help="smallest degree admitting a relation")
    _add_search(p, ["F", "F0"], "F", "degree cap")
    p.set_defaults(func=cmd_min_degree)
    p = ps.add_parser("cartier", help="halving operator applied to the series")
    _add_common(p, DEFAULT_VERIFY_PREC)
    p.add_argument("--r", type=int, choices=[0, 1], required=True)
    p.set_defaults(func=cmd_ps_cartier)

    ric = sub.add_parser("riccati", help="degree-one quotient families").add_subparsers(
        dest="cmd", required=True
    )
    p = ric.add_parser("check", help="square witnesses and residual valuations")
    p.add_argument("--pattern", required=True,
                   help="tags over {a,b,c}, c meaning a+b")
    p.add_argument("--a", required=True, help="polynomial in t")
    p.add_argument("--b", required=True, help="polynomial in t")
    p.add_argument("--n", type=_convergent_index, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_riccati_check)
    p = ric.add_parser("baum-sweet", help="degree-one partial quotient membership")
    p.add_argument("--quotients", required=True,
                   help="comma list of polynomials in t, e.g. '0, t, t'")
    p.add_argument("--periodic-tail", type=int, default=0,
                   help="repeat the last k quotients forever")
    p.add_argument("--prec", type=_positive_int, default=128)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_riccati_baum_sweet)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, WordTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
