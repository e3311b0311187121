"""Command-line surface.

Each subcommand is one row of ``COMMANDS``. Its handler maps the parsed
arguments to a JSON payload and a text rendering; ``main`` alone prints.
Under ``--json`` every subcommand prints exactly one JSON object (``lattice``
prints ``{"dot": ...}``), errors included as ``{"error": ...}``; in text
mode an error is ``error: ...`` on stderr. Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import boolfun, clones, formula, reductions, restructure
from .errors import PostLatticeError
from .formula import Base, render

#: Largest output, in nodes, that ``reduce`` and ``depth-reduce`` print: under
#: a 512 MiB address cap, rendering and JSON (about 8 bytes a node) print a
#: restructured chain of 32,159,316 nodes and fail on one of 52,182,292.
OUTPUT_SIZE_CAP = 1 << 24


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
    for literal in fn_args:
        conns.append(formula.Connective(*boolfun.parse_function_literal(literal)))
    if not conns and required:
        raise PostLatticeError(f"no {what} given; use --base/--fn flags")
    return Base(conns) if conns else None


def _base(args) -> Base:
    return _load_base(args.base, args.fn)


def _formulas(args, *flags: str) -> list:
    """The formulas given by ``flags``, over the optional --base/--fn base."""
    base = _load_base(args.base, args.fn, required=False)
    return [formula.parse(getattr(args, flag), base) for flag in flags]


def _printable(nodes: int) -> None:
    if nodes > OUTPUT_SIZE_CAP:
        raise PostLatticeError(
            f"output of {nodes} nodes exceeds the printing cap {OUTPUT_SIZE_CAP}")


# Handlers: parsed arguments -> (JSON payload, text).

def _cmd_parse(args):
    phi, = _formulas(args, "formula")
    m = formula.metrics(phi)
    text = render(phi)
    return {"formula": text, "size": m.size, "depth": m.depth,
            "leaf_count": m.leaf_count, "vars": sorted(m.vars)}, text


def _cmd_eval(args):
    phi, = _formulas(args, "formula")
    assignment = {}
    if args.assign:
        for part in args.assign.split(","):
            name, _, value = (s.strip() for s in part.partition("="))
            if value not in ("0", "1") or not name or name in assignment:
                raise PostLatticeError(f"bad assignment entry {part!r}" + (
                    f": {name!r} assigned twice" if name in assignment else ""))
            assignment[name] = int(value)
    value = formula.evaluate(phi, assignment)
    return {"value": value}, str(value)


def _cmd_table(args):
    phi, = _formulas(args, "formula")
    order = ([name.strip() for name in args.vars.split(",")] if args.vars
             else sorted(formula.vars_of(phi)))
    if "" in order:
        raise PostLatticeError(f"bad variable list {args.vars!r}: an empty name")
    bits = formula.truth_table(phi, order).bitstring
    return {"vars": order, "table": bits}, bits


def _cmd_id(args):
    name = str(clones.clone_of(_base(args)))
    return {"clone": name}, name


def _cmd_closure(args):
    cs = clones.closure(_base(args), args.arity, witnesses=not args.no_witnesses)
    rows = []
    for fn in cs.functions():
        witness = cs.entries.get(fn)
        rows.append({"table": fn.bitstring,
                     "witness": None if witness is None else render(witness)})
    text = "\n".join("\t".join(filter(None, row.values())) for row in rows)
    return {"arity": cs.arity, "count": len(rows), "functions": rows}, text


def _cmd_represent(args):
    base = _base(args)
    _, target = boolfun.parse_function_literal(args.target)
    text = render(clones.represent(target, base))
    return {"formula": text}, text


def _cmd_member(args):
    base = _base(args)
    _, target = boolfun.parse_function_literal(args.target)
    ok = clones.member(target, base)
    return {"member": ok}, "true" if ok else "false"


def _cmd_classify_sat(args):
    result = clones.classify_sat(_base(args))
    return {"classification": result}, result


def _cmd_depth_reduce(args):
    phi, = _formulas(args, "formula")
    out = {"full": restructure.restructure_full,
           "g": restructure.restructure_monotone_g,
           "h": restructure.restructure_monotone_h}[args.mode](phi)
    _printable(formula.size(out))   # before the certificate's equivalence check
    cert = reductions._certificate(phi, out)
    text = render(out)
    payload = {"formula": text, "mode": args.mode,
               "size_in": cert.size_in, "depth_in": cert.depth_in,
               "leaf_count": formula.leaf_count(phi),
               "size_out": cert.size_out, "depth_out": cert.depth_out,
               "equivalent": cert.equivalent}
    return payload, (f"depth {cert.depth_in} -> {cert.depth_out}, "
                     f"size {cert.size_in} -> {cert.size_out}\n{text}")


def _cmd_reduce(args):
    source = _load_base(getattr(args, "from"), args.from_fn, what="source base")
    target = _load_base(args.to, args.to_fn, what="target base")
    result = reductions.theorem_reduce(formula.parse(args.formula, source),
                                       source, target)
    cert = result.certificate
    _printable(cert.size_out)
    text = render(result.formula)
    payload = {"formula": text, "target": [str(c) for c in result.target],
               "extra": result.extra,
               "depth_in": cert.depth_in, "depth_out": cert.depth_out,
               "size_in": cert.size_in, "size_out": cert.size_out,
               "equivalent": cert.equivalent}
    return payload, (f"target: {', '.join(c.name for c in result.target)} (extra: "
                     f"{result.extra})\ndepth {cert.depth_in} -> {cert.depth_out}, "
                     f"size {cert.size_in} -> {cert.size_out}\n{text}")


def _cmd_canonical(args):
    result = reductions.canonical_equivalent(_base(args))
    return ({"clone": str(result.clone), "connectives": list(result.connectives),
             "note": result.note},
            f"{result.clone} -> {{{', '.join(result.connectives)}}}")


def _cmd_lattice(args):
    dot = clones.lattice_dot(args.max_degree)
    return {"dot": dot}, dot


def _cmd_verify(args):
    ok = formula.equivalent(*_formulas(args, "formula", "formula2"))
    return {"equivalent": ok}, "equivalent" if ok else "not equivalent"


# Argument specs, each written once: (flag, add_argument keywords).
FORMULA = ("--formula", {"required": True})
BASE = [("--base", {"metavar": "FILE", "help": "base definition file"}),
        ("--fn", {"metavar": "NAME/AR:BITS", "action": "append", "default": [],
                  "help": "inline base function (repeatable)"})]
TARGET = ("--target", {"required": True, "metavar": "NAME/AR:BITS"})

#: One row per subcommand: (name, help, handler, arguments).
COMMANDS = [
    ("parse", "parse and pretty-print a formula", _cmd_parse, [FORMULA, *BASE]),
    ("eval", "evaluate a formula under an assignment", _cmd_eval,
     [FORMULA, ("--assign", {"default": "", "metavar": "x=1,y=0"}), *BASE]),
    ("table", "truth table of a formula", _cmd_table,
     [FORMULA, ("--vars", {"default": None, "metavar": "x,y,z"}), *BASE]),
    ("id", "identify the clone generated by a base", _cmd_id, BASE),
    ("closure", "arity-k closure of a base", _cmd_closure,
     [("--arity", {"type": int, "default": 3}),
      ("--no-witnesses", {"action": "store_true",
                          "help": "compute the function set only"}), *BASE]),
    ("represent", "base representation of a function", _cmd_represent, [TARGET, *BASE]),
    ("member", "is a function generated by a base", _cmd_member, [TARGET, *BASE]),
    ("classify-sat", "satisfiability dichotomy for a base", _cmd_classify_sat, BASE),
    ("depth-reduce", "logarithmic-depth restructuring", _cmd_depth_reduce,
     [FORMULA, ("--mode", {"choices": ("full", "g", "h"), "default": "full"}), *BASE]),
    ("reduce", "reduce a formula into a target base", _cmd_reduce,
     [FORMULA,
      ("--from", {"metavar": "FILE", "help": "source base file"}),
      ("--from-fn", {"metavar": "NAME/AR:BITS", "action": "append", "default": [],
                     "help": "inline source base function"}),
      ("--to", {"metavar": "FILE", "help": "target base file"}),
      ("--to-fn", {"metavar": "NAME/AR:BITS", "action": "append", "default": [],
                   "help": "inline target base function"})]),
    ("canonical", "canonical connective set", _cmd_canonical, BASE),
    ("lattice", "DOT export of the clone lattice", _cmd_lattice,
     [("--max-degree", {"type": int, "default": 3})]),
    ("verify", "check two formulas for equivalence", _cmd_verify,
     [FORMULA, ("--formula2", {"required": True}), *BASE]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postlattice",
        description="Boolean clone identification and formula reductions")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object on stdout")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that prints a result or an error."""
    args = build_parser().parse_args(argv)
    try:
        payload, text = args.handler(args)
    except PostLatticeError as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload) if args.json else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
