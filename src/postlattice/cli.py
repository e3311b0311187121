"""Command-line surface.

Every subcommand understands ``--json`` and then prints exactly one JSON
object; errors in JSON mode are a single ``{"error": ...}`` object.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import boolfun, clones, reductions, restructure
from .errors import PostLatticeError
from .formula import (
    Base,
    Connective,
    equivalent,
    evaluate,
    leaf_count,
    metrics,
    parse,
    render,
    size,
    truth_table,
    vars_of,
)

#: Largest output, in nodes, that ``reduce`` and ``depth-reduce`` print: under
#: a 512 MiB address cap, rendering and JSON (about 8 bytes a node) print a
#: restructured chain of 32,159,316 nodes and fail on one of 52,182,292.
OUTPUT_SIZE_CAP = 1 << 24


def _add_base_flags(sub) -> None:
    sub.add_argument("--base", metavar="FILE", help="base definition file")
    sub.add_argument("--fn", metavar="NAME/AR:BITS", action="append", default=[],
                     help="inline base function (repeatable)")


def _load_base(file_arg, fn_args, *, required: bool = True,
               what: str = "base") -> Base | None:
    conns = []
    if file_arg:
        try:
            text = Path(file_arg).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise PostLatticeError(f"cannot read {what} file {file_arg!r}: {reason}") from None
        conns.extend(Base.from_text(text).connectives)
    for literal in fn_args or []:
        name, fn = boolfun.parse_function_literal(literal)
        conns.append(Connective(name, fn))
    if not conns:
        if required:
            raise PostLatticeError(f"no {what} given; use --base/--fn flags")
        return None
    return Base(conns)


def _printable(nodes: int) -> None:
    if nodes > OUTPUT_SIZE_CAP:
        raise PostLatticeError(
            f"output of {nodes} nodes exceeds the printing cap {OUTPUT_SIZE_CAP}")


def _emit(args, payload: dict, text: str | None) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_parse(args) -> int:
    base = _load_base(args.base, args.fn, required=False)
    phi = parse(args.formula, base)
    m = metrics(phi)
    text = render(phi)
    _emit(args, {"formula": text, "size": m.size, "depth": m.depth,
                 "leaf_count": m.leaf_count, "vars": sorted(m.vars)}, text)
    return 0


def _cmd_eval(args) -> int:
    base = _load_base(args.base, args.fn, required=False)
    phi = parse(args.formula, base)
    assignment = {}
    if args.assign:
        for part in args.assign.split(","):
            name, _, value = part.strip().partition("=")
            if value not in ("0", "1"):
                raise PostLatticeError(f"bad assignment entry {part!r}")
            assignment[name.strip()] = int(value)
    value = evaluate(phi, assignment)
    _emit(args, {"value": value}, str(value))
    return 0


def _cmd_table(args) -> int:
    base = _load_base(args.base, args.fn, required=False)
    phi = parse(args.formula, base)
    order = ([name.strip() for name in args.vars.split(",")] if args.vars
             else sorted(vars_of(phi)))
    fn = truth_table(phi, order)
    _emit(args, {"vars": order, "table": fn.bitstring}, fn.bitstring)
    return 0


def _cmd_id(args) -> int:
    base = _load_base(args.base, args.fn)
    name = clones.clone_of(base)
    _emit(args, {"clone": str(name)}, str(name))
    return 0


def _cmd_closure(args) -> int:
    base = _load_base(args.base, args.fn)
    cs = clones.closure(base, args.arity, witnesses=not args.no_witnesses)
    rows = []
    lines = []
    for fn in cs.functions():
        witness = cs.entries.get(fn)
        text = render(witness) if witness is not None else None
        rows.append({"table": fn.bitstring, "witness": text})
        lines.append(fn.bitstring if text is None else f"{fn.bitstring}\t{text}")
    _emit(args, {"arity": cs.arity, "count": len(rows), "functions": rows},
          "\n".join(lines))
    return 0


def _cmd_represent(args) -> int:
    base = _load_base(args.base, args.fn)
    _, target = boolfun.parse_function_literal(args.target)
    witness = clones.represent(target, base)
    _emit(args, {"formula": render(witness)}, render(witness))
    return 0


def _cmd_member(args) -> int:
    base = _load_base(args.base, args.fn)
    _, target = boolfun.parse_function_literal(args.target)
    ok = clones.member(target, base)
    _emit(args, {"member": ok}, "true" if ok else "false")
    return 0


def _cmd_classify_sat(args) -> int:
    base = _load_base(args.base, args.fn)
    result = clones.classify_sat(base)
    _emit(args, {"classification": result}, result)
    return 0


def _cmd_depth_reduce(args) -> int:
    base = _load_base(args.base, args.fn, required=False)
    phi = parse(args.formula, base)
    builder = {"full": restructure.restructure_full,
               "g": restructure.restructure_monotone_g,
               "h": restructure.restructure_monotone_h}[args.mode]
    out = builder(phi)
    _printable(size(out))       # before the certificate's equivalence check
    cert = reductions._certificate(phi, out)
    payload = {
        "formula": render(out), "mode": args.mode,
        "size_in": cert.size_in, "depth_in": cert.depth_in,
        "leaf_count": leaf_count(phi),
        "size_out": cert.size_out, "depth_out": cert.depth_out,
        "equivalent": cert.equivalent,
    }
    text = None if args.json else (
        f"depth {cert.depth_in} -> {cert.depth_out}, "
        f"size {cert.size_in} -> {cert.size_out}\n{payload['formula']}")
    _emit(args, payload, text)
    return 0


def _cmd_reduce(args) -> int:
    source = _load_base(getattr(args, "from"), args.from_fn, what="source base")
    target = _load_base(args.to, args.to_fn, what="target base")
    phi = parse(args.formula, source)
    result = reductions.theorem_reduce(phi, source, target)
    cert = result.certificate
    _printable(cert.size_out)
    payload = {
        "formula": render(result.formula),
        "target": [str(c) for c in result.target],
        "extra": result.extra,
        "depth_in": cert.depth_in, "depth_out": cert.depth_out,
        "size_in": cert.size_in, "size_out": cert.size_out,
        "equivalent": cert.equivalent,
    }
    text = (f"target: {', '.join(c.name for c in result.target)} (extra: "
            f"{result.extra})\ndepth {cert.depth_in} -> {cert.depth_out}, "
            f"size {cert.size_in} -> {cert.size_out}\n{payload['formula']}")
    _emit(args, payload, text)
    return 0


def _cmd_canonical(args) -> int:
    base = _load_base(args.base, args.fn)
    result = reductions.canonical_equivalent(base)
    payload = {"clone": str(result.clone),
               "connectives": list(result.connectives),
               "note": result.note}
    _emit(args, payload,
          f"{result.clone} -> {{{', '.join(result.connectives)}}}")
    return 0


def _cmd_lattice(args) -> int:
    print(clones.lattice_dot(args.max_degree))
    return 0


def _cmd_verify(args) -> int:
    base = _load_base(args.base, args.fn, required=False)
    phi = parse(args.formula, base)
    psi = parse(args.formula2, base)
    ok = equivalent(phi, psi)
    _emit(args, {"equivalent": ok}, "equivalent" if ok else "not equivalent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postlattice",
        description="Boolean clone identification and formula reductions")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object on stdout")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("parse", help="parse and pretty-print a formula")
    sub.add_argument("--formula", required=True)
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_parse)

    sub = subs.add_parser("eval", help="evaluate a formula under an assignment")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--assign", default="", metavar="x=1,y=0")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("table", help="truth table of a formula")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--vars", default=None, metavar="x,y,z")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_table)

    sub = subs.add_parser("id", help="identify the clone generated by a base")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_id)

    sub = subs.add_parser("closure", help="arity-k closure of a base")
    sub.add_argument("--arity", type=int, default=3)
    sub.add_argument("--no-witnesses", action="store_true",
                     help="compute the function set only")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_closure)

    sub = subs.add_parser("represent", help="base representation of a function")
    sub.add_argument("--target", required=True, metavar="NAME/AR:BITS")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_represent)

    sub = subs.add_parser("member", help="is a function generated by a base")
    sub.add_argument("--target", required=True, metavar="NAME/AR:BITS")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_member)

    sub = subs.add_parser("classify-sat",
                          help="satisfiability dichotomy for a base")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_classify_sat)

    sub = subs.add_parser("depth-reduce", help="logarithmic-depth restructuring")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--mode", choices=("full", "g", "h"), default="full")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_depth_reduce)

    sub = subs.add_parser("reduce", help="reduce a formula into a target base")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--from", metavar="FILE", help="source base file")
    sub.add_argument("--from-fn", metavar="NAME/AR:BITS", action="append",
                     default=[], help="inline source base function")
    sub.add_argument("--to", metavar="FILE", help="target base file")
    sub.add_argument("--to-fn", metavar="NAME/AR:BITS", action="append",
                     default=[], help="inline target base function")
    sub.set_defaults(handler=_cmd_reduce)

    sub = subs.add_parser("canonical", help="canonical connective set")
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_canonical)

    sub = subs.add_parser("lattice", help="DOT export of the clone lattice")
    sub.add_argument("--max-degree", type=int, default=3)
    sub.set_defaults(handler=_cmd_lattice)

    sub = subs.add_parser("verify", help="check two formulas for equivalence")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--formula2", required=True)
    _add_base_flags(sub)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PostLatticeError as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
