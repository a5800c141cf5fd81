"""Command-line front end.

Every subcommand wraps one library operation so shell harnesses can
assert properties directly.  Exit codes separate the three outcomes a
script cares about: 0 the check ran and passed, 1 the check ran and
failed, 2 the input could not be checked at all.  Output is deterministic
byte for byte.  Each result line goes through `_emit`, which writes its text
form, or under `--format json-lines` its JSON object with keys in a fixed
order.  All of stdout goes through one writer, `args.out`, made by `main`:
it sends text in chunks of at least `_CHUNK` characters, and `main` sends
the rest when the subcommand ends, on the error path too.  So output costs
one write call per chunk, not one or two per line as a print per line did
on an unbuffered stdout, and `order-complex` and `transversal` join their
lines `_SLICE` at a time, never all at once.

Requests go straight to the library builders, which check their own
inputs, so a refused request prints the library's message on every route
(`perp` and `model-build --family perp` say the same about an odd k).

`order-complex` and `model-build` emit the plain file formats consumed by
the other subcommands, so they refuse json-lines instead of inventing a
second encoding.

Each subcommand imports only the library modules it runs, inside its
`cmd_*` function; this module loads nothing of tphi but `errors` at start.
Every call is a fresh process, so a child that loaded all seven modules
would spend most of its life importing (`hfcalc` loads `hyperfield` only,
and `cw-report` `poset` and `mccord`).  For the same reason `main` builds the
parser of the named subcommand alone, and no child loads the standard
library's data-class generator, whose import pulls in `inspect` and `ast`:
the value classes are slotted classes on `errors.Frozen`.  `json` is
imported only under `--format json-lines`.
"""

from __future__ import annotations

import argparse
import io
import itertools
import math
import sys

from .errors import DEFAULT_SIMPLEX_CAP, TphiError, parse_int


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_poset(path: str):
    """The poset in a poset file; a mirrored file gives its domain."""
    from .poset import MirroredPoset, parse_poset_file

    obj = parse_poset_file(_read(path))
    return obj.poset if isinstance(obj, MirroredPoset) else obj


# characters gathered before a write call, and lines joined into one string
_CHUNK = 1 << 16
_SLICE = 1024


class _Writer:
    """The one stdout writer of a `main` call.  Text waits in a buffer and
    goes out in one write call once `_CHUNK` characters wait; `main` sends
    the rest when the subcommand ends, on every path.  A print per line
    cost one or two write calls each when stdout is unbuffered."""

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = io.StringIO()

    def write(self, text: str) -> None:
        self._buf.write(text)
        if self._buf.tell() >= _CHUNK:
            self.flush()

    def lines(self, lines) -> None:
        """Each line of an iterable with its newline, joined `_SLICE` lines
        at a time, so a generator is never held whole."""
        it = iter(lines)
        while chunk := list(itertools.islice(it, _SLICE)):
            self.write("\n".join(chunk) + "\n")

    def flush(self) -> None:
        text = self._buf.getvalue()
        self._buf = io.StringIO()
        if text:
            sys.stdout.write(text)


def _emit(args, obj, text: str) -> None:
    """Write one result line: obj as a JSON line under --format json-lines,
    text otherwise.  Only then is json imported."""
    if args.format == "json-lines":
        import json

        text = json.dumps(obj)
    args.out.write(text + "\n")


def cmd_hfcalc(args) -> int:
    from .hyperfield import boxplus_fold, format_arcset, parse_terms

    result = boxplus_fold(parse_terms(args.expr))
    text = format_arcset(result)
    _emit(args, {"sum": text, "contains_zero": result.has_zero}, text)
    return 0


def cmd_perp(args) -> int:
    from .hyperfield import format_value
    from .phased import DISCRETIZATION_CAVEAT, parse_vector, perp_enumerate

    vs = [parse_vector(t) for t in args.vector]
    members = perp_enumerate(vs, args.k)
    print(DISCRETIZATION_CAVEAT, file=sys.stderr)
    for m in members:
        line = ",".join(format_value(e) for e in m)
        _emit(args, {"vector": line}, line)
    _emit(args, {"count": len(members)}, f"count: {len(members)}")
    return 0


def cmd_gp_check(args) -> int:
    from .phased import gp_verify_all, parse_gp_file

    phi = parse_gp_file(_read(args.file))
    rep = gp_verify_all(phi, all_tuples=args.all_tuples)
    obj = {"ok": rep.ok}
    if rep.ok:
        text = "ok: all exchange relations hold"
    else:
        obj.update(reason=rep.reason, xs=list(rep.xs), ys=list(rep.ys))
        where = ""
        if rep.xs:
            where = f" at xs={','.join(map(str, rep.xs))} ys={','.join(map(str, rep.ys))}"
        text = f"fail: {rep.reason}{where}"
    _emit(args, obj, text)
    return 0 if rep.ok else 1


def cmd_gp_enum(args) -> int:
    from .hyperfield import format_value
    from .models import enum_grassmannian

    found = enum_grassmannian(args.n, args.r, args.k, args.cap)
    for phi in found:
        pairs = [
            (",".join(map(str, key)), format_value(val)) for key, val in phi.entries
        ]
        _emit(args, {"values": dict(pairs)}, " ".join(f"{key}:{val}" for key, val in pairs))
    _emit(args, {"count": len(found)}, f"count: {len(found)}")
    return 0


def cmd_transversal(args) -> int:
    from .phased import transversal

    t = transversal(args.n, args.r)
    increasing = math.comb(args.n, args.r)
    if args.format == "json-lines":
        for tup in t.tuples:
            _emit(args, {"tuple": list(tup)}, " ".join(map(str, tup)))
    else:
        args.out.lines(" ".join(map(str, tup)) for tup in t.tuples)
    _emit(
        args,
        {"size": t.d, "increasing_tuples": increasing},
        f"size: {t.d}\nincreasing-tuples: {increasing}",
    )
    return 0


def cmd_poset_check(args) -> int:
    from .poset import MirroredPoset, geometric_discrete_check, mirror_check, parse_poset_file

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
        row = {"check": name, "ok": ok}
        if detail:
            row["detail"] = detail
        _emit(args, row, f"{name}: ok" if ok else f"{name}: FAIL ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_order_complex(args) -> int:
    from .simplicial import complex_to_lines, order_complex

    if args.format == "json-lines":
        raise ValueError(
            "order-complex emits the one-simplex-per-line file format; "
            "--format json-lines is not supported"
        )
    p = _read_poset(args.file)
    args.out.lines(complex_to_lines(order_complex(p, args.cap)))
    return 0


def cmd_homology(args) -> int:
    from .homology import format_homology, homology_groups
    from .simplicial import parse_complex_lines

    c = parse_complex_lines(_read(args.file))
    s = homology_groups(c, reduced=args.reduced)
    for d, line in enumerate(format_homology(s)):
        betti, torsion = s.group(d)
        _emit(args, {"dim": d, "betti": betti, "torsion": list(torsion)}, line)
    return 0


def cmd_mccord_verify(args) -> int:
    from .homology import format_homology
    from .mccord import basis_certificates

    p = _read_poset(args.file)
    rep = basis_certificates(p, args.cap)
    width = max((len(c.element) for c in rep.certificates), default=0)
    kw = max((len(c.kind) for c in rep.certificates), default=0)
    for c in rep.certificates:
        _emit(
            args,
            {"element": c.element, "certificate": c.kind, "size": c.size},
            f"{c.element.ljust(width)}  {c.kind.ljust(kw)}  {c.size}",
        )
    homology = format_homology(rep.homology)
    _emit(
        args,
        {"verdict": rep.verdict, "homology": homology},
        "\n".join([f"verdict: {rep.verdict}", *homology]),
    )
    return 0


def cmd_cw_report(args) -> int:
    from .mccord import cw_type_report

    p = _read_poset(args.file)
    rep = cw_type_report(p)
    for comp in rep.components:
        _emit(
            args,
            {"component": list(comp.elements), "status": comp.status},
            f"component {' '.join(comp.elements)}: {comp.status}",
        )
    _emit(args, {"verdict": rep.verdict}, f"verdict: {rep.verdict}")
    return 0 if rep.verdict == "CW type" else 1


def cmd_model_build(args) -> int:
    from .models import build_perp_poset, build_tphi_power, enum_grassmannian, perp_pruned_strata
    from .phased import DISCRETIZATION_CAVEAT, format_gp, parse_vector
    from .poset import format_poset_file

    if args.format == "json-lines":
        raise ValueError(
            "model-build emits the poset/function file formats; "
            "--format json-lines is not supported"
        )
    if args.vector and args.family != "perp":
        raise ValueError("constraint vectors are taken by --family perp only")
    if args.r is not None and args.family != "grassmannian":
        raise ValueError("--r is taken by --family grassmannian only")
    if args.family == "grassmannian":
        if args.r is None:
            raise ValueError("--family grassmannian needs --r")
        for i, phi in enumerate(enum_grassmannian(args.n, args.r, args.k, args.cap)):
            args.out.write("\n" + format_gp(phi) if i else format_gp(phi))
        return 0
    if args.family == "power":
        built = build_tphi_power(args.n, args.k, args.cap)
    else:
        vectors = [parse_vector(t) for t in args.vector]
        # build_perp_poset takes n from the vectors; --n must agree with them
        if any(len(v) != args.n for v in vectors):
            raise ValueError("constraint length differs from n")
        built = build_perp_poset(vectors, args.k, args.cap)
        print(DISCRETIZATION_CAVEAT, file=sys.stderr)
        pruned = perp_pruned_strata(built, args.n)
        if pruned:
            print(
                "empty strata pruned from the index chain: "
                + ", ".join(map(str, pruned)),
                file=sys.stderr,
            )
    args.out.write(format_poset_file(built))
    return 0


def _int_flag(text: str) -> int:
    """An integer flag by the file formats' rule, parse_int; a refusal
    reads as argparse's own for type=int."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _cap_flag(text: str) -> int:
    """A size guard: an integer flag that is at least 0.  A negative one
    is refused as _int_flag refuses a malformed one."""
    cap = _int_flag(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return cap


_FORMAT = ("--format", {
    "choices": ("text", "json-lines"), "default": "text", "help": "output encoding (default text)",
})
_CAP = ("--cap", {
    "type": _cap_flag, "default": DEFAULT_SIMPLEX_CAP,
    "help": "size guard for generated complexes and enumerations",
})
_FILE = ("file", {})
_N, _R, _K = (("--" + v, {"type": _int_flag, "required": True}) for v in "nrk")

# name -> (help, arguments in the order they are added); cmd_<name> runs it
_SUBCOMMANDS = {
    "hfcalc": ("evaluate a multivalued sum like '0/1 + 1/2'", (("expr", {}), _FORMAT)),
    "perp": ("enumerate the perp set of constraint vectors", (
        ("--k", {"type": _int_flag, "required": True, "help": "roots-of-unity order"}),
        ("vector", {"nargs": "+", "help": "constraint vectors like 0/1,1/2"}),
        _FORMAT,
    )),
    "gp-check": ("verify the exchange relations of a function file", (
        _FILE,
        ("--all-tuples", {
            "action": "store_true", "help": "sweep arbitrary tuples instead of increasing ones",
        }),
        _FORMAT,
    )),
    "gp-enum": ("enumerate normalized strong alternating functions", (_N, _R, _K, _CAP, _FORMAT)),
    "transversal": ("greedy transposition transversal", (_N, _R, _FORMAT)),
    "poset-check": (
        "validate a poset file; mirrored posets get monotonicity and stratum checks",
        (_FILE, _FORMAT),
    ),
    "order-complex": ("emit the chain complex of a poset file", (_FILE, _CAP, _FORMAT)),
    "homology": ("integer homology of a complex file ('-' for stdin)", (
        _FILE, ("--reduced", {"action": "store_true"}), _FORMAT,
    )),
    "mccord-verify": ("certify contractibility of every basic open", (_FILE, _CAP, _FORMAT)),
    "cw-report": ("CW homotopy type report per component", (_FILE, _FORMAT)),
    "model-build": ("build a power, perp, or enumeration model", (
        ("--family", {"choices": ("power", "perp", "grassmannian"), "required": True}),
        _N,
        _K,
        ("--r", {"type": _int_flag}),
        ("vector", {"nargs": "*", "help": "constraint vectors (perp family)"}),
        _CAP,
        _FORMAT,
    )),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named by only.

    Building one subparser costs about half of building all eleven, and a
    child runs one.  The usage line spells out every name either way, so
    each message reads the same as from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="tphi",
        description="exact phase-hyperfield arithmetic, phased matroids, "
        "and finite poset topology",
    )
    subs = parser.add_subparsers(
        dest="subcommand",
        required=True,
        # the full parser keeps argparse's own spelling, which names the
        # missing subcommand "subcommand" in its error
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if only else None,
    )
    for name in (only,) if only else _SUBCOMMANDS:
        help_text, arguments = _SUBCOMMANDS[name]
        s = subs.add_parser(name, help=help_text)
        for flag, options in arguments:
            s.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # -h, a missing subcommand or an unknown name needs the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = args.out = _Writer()
    try:
        try:
            # looked up now, so a replaced cmd_* function is the one run
            return globals()["cmd_" + args.subcommand.replace("-", "_")](args)
        finally:
            out.flush()
    except (TphiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller model or a lower --cap", file=sys.stderr)
        return 2
