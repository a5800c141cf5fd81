"""Command-line front end.

Every subcommand wraps one library operation so shell harnesses can
assert properties directly.  Exit codes separate the three outcomes a
script cares about: 0 the check ran and passed, 1 the check ran and
failed, 2 the input could not be checked at all.  Output is deterministic
byte for byte; `--format json-lines` emits one JSON object per result
line with keys in a fixed order.

`order-complex` and `model-build` emit the plain file formats consumed by
the other subcommands, so they refuse json-lines instead of inventing a
second encoding.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import TphiError
from .homology import format_homology, homology_groups
from .hyperfield import boxplus_fold, format_arcset, format_value, parse_terms
from .mccord import basis_certificates, cw_type_report
from .models import (
    DISCRETIZATION_CAVEAT,
    TPhiModelSpec,
    build_model,
    perp_pruned_strata,
)
from .phased import (
    format_gp,
    gp_verify_all,
    parse_gp_file,
    parse_vector,
    perp_enumerate,
    transversal,
)
from .poset import (
    MirroredPoset,
    format_poset_file,
    geometric_discrete_check,
    mirror_check,
    parse_poset_file,
)
from .simplicial import (
    DEFAULT_SIMPLEX_CAP,
    complex_to_lines,
    order_complex,
    parse_complex_lines,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _poset_of(obj):
    return obj.poset if isinstance(obj, MirroredPoset) else obj


def cmd_hfcalc(args) -> int:
    result = boxplus_fold(parse_terms(args.expr))
    if args.format == "json-lines":
        print(json.dumps({"sum": format_arcset(result), "contains_zero": result.has_zero}))
    else:
        print(format_arcset(result))
    return 0


def cmd_perp(args) -> int:
    vs = [parse_vector(t) for t in args.vector]
    members = perp_enumerate(vs, args.k)
    print(DISCRETIZATION_CAVEAT, file=sys.stderr)
    for m in members:
        if args.format == "json-lines":
            print(json.dumps({"vector": ",".join(format_value(e) for e in m)}))
        else:
            print(",".join(format_value(e) for e in m))
    if args.format == "json-lines":
        print(json.dumps({"count": len(members)}))
    else:
        print(f"count: {len(members)}")
    return 0


def cmd_gp_check(args) -> int:
    phi = parse_gp_file(_read(args.file))
    rep = gp_verify_all(phi, all_tuples=args.all_tuples)
    if args.format == "json-lines":
        obj = {"ok": rep.ok}
        if not rep.ok:
            obj["reason"] = rep.reason
            obj["xs"] = list(rep.xs)
            obj["ys"] = list(rep.ys)
        print(json.dumps(obj))
    elif rep.ok:
        print("ok: all exchange relations hold")
    else:
        where = ""
        if rep.xs:
            where = f" at xs={','.join(map(str, rep.xs))} ys={','.join(map(str, rep.ys))}"
        print(f"fail: {rep.reason}{where}")
    return 0 if rep.ok else 1


def cmd_gp_enum(args) -> int:
    found = build_model(
        TPhiModelSpec(args.n, args.k, "grassmannian", r=args.r), args.cap
    )
    for phi in found:
        pairs = [
            (",".join(map(str, key)), format_value(val)) for key, val in phi.entries
        ]
        if args.format == "json-lines":
            print(json.dumps({"values": dict(pairs)}))
        else:
            print(" ".join(f"{key}:{val}" for key, val in pairs))
    if args.format == "json-lines":
        print(json.dumps({"count": len(found)}))
    else:
        print(f"count: {len(found)}")
    return 0


def cmd_transversal(args) -> int:
    t = transversal(args.n, args.r)
    increasing = math.comb(args.n, args.r)
    for tup in t.tuples:
        if args.format == "json-lines":
            print(json.dumps({"tuple": list(tup)}))
        else:
            print(" ".join(map(str, tup)))
    if args.format == "json-lines":
        print(json.dumps({"size": t.d, "increasing_tuples": increasing}))
    else:
        print(f"size: {t.d}")
        print(f"increasing-tuples: {increasing}")
    return 0


def cmd_poset_check(args) -> int:
    obj = parse_poset_file(_read(args.file))
    checks = []
    if isinstance(obj, MirroredPoset):
        m = mirror_check(obj)
        checks.append(("mirror", m.ok, m.violation))
        g = geometric_discrete_check(obj)
        checks.append(("geometric", g.ok, "; ".join(g.a1_violations) or None))
    else:
        checks.append(("poset", True, None))
    for name, ok, detail in checks:
        if args.format == "json-lines":
            row = {"check": name, "ok": ok}
            if detail:
                row["detail"] = detail
            print(json.dumps(row))
        elif ok:
            print(f"{name}: ok")
        else:
            print(f"{name}: FAIL ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_order_complex(args) -> int:
    if args.format == "json-lines":
        raise ValueError(
            "order-complex emits the one-simplex-per-line file format; "
            "--format json-lines is not supported"
        )
    p = _poset_of(parse_poset_file(_read(args.file)))
    for line in complex_to_lines(order_complex(p, args.cap)):
        print(line)
    return 0


def cmd_homology(args) -> int:
    c = parse_complex_lines(_read(args.file))
    s = homology_groups(c, reduced=args.reduced)
    if args.format == "json-lines":
        for d in range(max(s.top_dim + 1, 0)):
            betti, torsion = s.group(d)
            print(json.dumps({"dim": d, "betti": betti, "torsion": list(torsion)}))
    else:
        for line in format_homology(s):
            print(line)
    return 0


def cmd_mccord_verify(args) -> int:
    p = _poset_of(parse_poset_file(_read(args.file)))
    rep = basis_certificates(p, args.cap)
    if args.format == "json-lines":
        for c in rep.certificates:
            print(json.dumps({"element": c.element, "certificate": c.kind, "size": c.size}))
        print(json.dumps({"verdict": rep.verdict, "homology": format_homology(rep.homology)}))
    else:
        width = max((len(c.element) for c in rep.certificates), default=0)
        kw = max((len(c.kind) for c in rep.certificates), default=0)
        for c in rep.certificates:
            print(f"{c.element.ljust(width)}  {c.kind.ljust(kw)}  {c.size}")
        print(f"verdict: {rep.verdict}")
        for line in format_homology(rep.homology):
            print(line)
    return 0 if rep.verdict == "all basic opens certified contractible" else 1


def cmd_cw_report(args) -> int:
    p = _poset_of(parse_poset_file(_read(args.file)))
    rep = cw_type_report(p, args.cap)
    for comp in rep.components:
        if args.format == "json-lines":
            print(json.dumps({"component": list(comp.elements), "status": comp.status}))
        else:
            print(f"component {' '.join(comp.elements)}: {comp.status}")
    if args.format == "json-lines":
        print(json.dumps({"verdict": rep.verdict}))
    else:
        print(f"verdict: {rep.verdict}")
    return 0 if rep.verdict == "CW type" else 1


def cmd_model_build(args) -> int:
    if args.format == "json-lines":
        raise ValueError(
            "model-build emits the poset/function file formats; "
            "--format json-lines is not supported"
        )
    vectors = tuple(parse_vector(t) for t in args.vector)
    spec = TPhiModelSpec(args.n, args.k, args.family, vectors=vectors, r=args.r)
    built = build_model(spec, args.cap)
    if args.family == "grassmannian":
        for i, phi in enumerate(built):
            if i:
                print()
            sys.stdout.write(format_gp(phi))
        return 0
    if args.family == "perp":
        print(DISCRETIZATION_CAVEAT, file=sys.stderr)
        pruned = perp_pruned_strata(built, args.n)
        if pruned:
            print(
                "empty strata pruned from the index chain: "
                + ", ".join(map(str, pruned)),
                file=sys.stderr,
            )
    sys.stdout.write(format_poset_file(built))
    return 0


def _add_format(sub):
    sub.add_argument(
        "--format", choices=("text", "json-lines"), default="text",
        help="output encoding (default text)",
    )


def _add_cap(sub):
    sub.add_argument(
        "--cap", type=int, default=DEFAULT_SIMPLEX_CAP,
        help="size guard for generated complexes and enumerations",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tphi",
        description="exact phase-hyperfield arithmetic, phased matroids, "
        "and finite poset topology",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("hfcalc", help="evaluate a multivalued sum like '0/1 + 1/2'")
    s.add_argument("expr")
    _add_format(s)
    s.set_defaults(func=cmd_hfcalc)

    s = subs.add_parser("perp", help="enumerate the perp set of constraint vectors")
    s.add_argument("--k", type=int, required=True, help="roots-of-unity order")
    s.add_argument("vector", nargs="+", help="constraint vectors like 0/1,1/2")
    _add_format(s)
    s.set_defaults(func=cmd_perp)

    s = subs.add_parser("gp-check", help="verify the exchange relations of a function file")
    s.add_argument("file")
    s.add_argument("--all-tuples", action="store_true",
                   help="sweep arbitrary tuples instead of increasing ones")
    _add_format(s)
    s.set_defaults(func=cmd_gp_check)

    s = subs.add_parser("gp-enum", help="enumerate normalized strong alternating functions")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    _add_cap(s)
    _add_format(s)
    s.set_defaults(func=cmd_gp_enum)

    s = subs.add_parser("transversal", help="greedy transposition transversal")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    _add_format(s)
    s.set_defaults(func=cmd_transversal)

    s = subs.add_parser("poset-check", help="validate a poset file; mirrored posets get "
                        "monotonicity and stratum checks")
    s.add_argument("file")
    _add_format(s)
    s.set_defaults(func=cmd_poset_check)

    s = subs.add_parser("order-complex", help="emit the chain complex of a poset file")
    s.add_argument("file")
    _add_cap(s)
    _add_format(s)
    s.set_defaults(func=cmd_order_complex)

    s = subs.add_parser("homology", help="integer homology of a complex file ('-' for stdin)")
    s.add_argument("file")
    s.add_argument("--reduced", action="store_true")
    _add_format(s)
    s.set_defaults(func=cmd_homology)

    s = subs.add_parser("mccord-verify", help="certify contractibility of every basic open")
    s.add_argument("file")
    _add_cap(s)
    _add_format(s)
    s.set_defaults(func=cmd_mccord_verify)

    s = subs.add_parser("cw-report", help="CW homotopy type report per component")
    s.add_argument("file")
    _add_cap(s)
    _add_format(s)
    s.set_defaults(func=cmd_cw_report)

    s = subs.add_parser("model-build", help="build a power, perp, or enumeration model")
    s.add_argument("--family", choices=("power", "perp", "grassmannian"), required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--r", type=int, default=0)
    s.add_argument("vector", nargs="*", help="constraint vectors (perp family)")
    _add_cap(s)
    _add_format(s)
    s.set_defaults(func=cmd_model_build)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (TphiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller model or a lower --cap", file=sys.stderr)
        return 2
