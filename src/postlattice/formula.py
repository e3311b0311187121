"""Propositional formulas over named connectives: parsing, printing,
evaluation, substitution and structural metrics.

A formula is a finite tree of :class:`Prop` leaves and :class:`Apply`
nodes; constants are connectives of arity 0.  All values are immutable,
so every operation here is a pure function, and a subtree may be shared
by several parents in memory.  Parsing and every walk over a formula are
iterative (explicit stacks, so no nesting depth exhausts the Python
stack), and a walk visits each distinct node object once within a call.
Within one call, ``parse`` gives one leaf object per proposition name,
so walks and evaluation handle each proposition once.
Every node carries its size, depth, leaf count and largest connective
arity, computed once by its constructor from its arguments', so reading
them takes no walk.  Size and leaf count are tree counts: a shared
subtree counts once per occurrence.  A node's distinct connectives and
propositions take one walk, the first time they are asked for, and are
kept on the node.  Evaluation and truth tables read packed tables
through :mod:`boolfun`, which owns their format and composition.

Grammar (ASCII): identifiers ``[a-zA-Z_][a-zA-Z0-9_']*``, infix ``&``
``|`` ``^`` ``->`` ``<->`` ``-/>``, prefix ``!``, literals ``0`` ``1``,
prefix calls ``name(arg, ..., arg)`` and parentheses.  Precedence,
tightest first: ``!``, ``&``, ``|``, ``^``, ``->`` (right associative,
``-/>`` at the same level), ``<->``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import is_
from typing import Iterable, Mapping, NamedTuple, Union

from . import boolfun
from .boolfun import (
    ArityError,
    BooleanFunction,
    _kernel,
    _projection_mask,
    _unpack,
    parse_function_literal,
)
from .errors import PostLatticeError

EQUIVALENCE_CAP = 20


class ParseError(PostLatticeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(PostLatticeError):
    """A proposition had no value, or a value other than 0 and 1, in the
    assignment."""


class VariableCapError(PostLatticeError):
    """Too many distinct propositions for exhaustive verification."""


class BaseError(PostLatticeError):
    """Ill-formed connective set."""


@dataclass(frozen=True)
class Connective:
    """A named Boolean function usable as a formula node."""

    name: str
    fn: BooleanFunction

    @property
    def arity(self) -> int:
        return self.fn.arity

    def __str__(self) -> str:
        return boolfun.format_function_literal(self.name, self.fn)


@dataclass(frozen=True)
class Prop:
    name: str

    # a leaf's counts, as :class:`Apply` computes them for a node
    size, depth, leaf_count, max_arity = 1, 0, 1, 0


@dataclass(frozen=True, init=False, repr=False)
class Apply:
    """A connective applied to its arguments.  The constructor computes
    the node's counts from its arguments': ``size`` (nodes), ``depth``,
    ``leaf_count`` (proposition occurrences) and ``max_arity`` (the
    largest connective arity, 0 when there is none)."""

    conn: Connective
    args: tuple["Formula", ...]

    def __init__(self, conn: Connective, args: tuple["Formula", ...] = ()):
        if len(args) != conn.arity:
            raise ArityError(f"{conn.name} expects {conn.arity} arguments, got {len(args)}")
        size, depth, leaves, arity = 1, 0, 0, len(args)
        for a in args:
            size += a.size
            leaves += a.leaf_count
            if a.depth > depth:
                depth = a.depth
            if a.max_arity > arity:
                arity = a.max_arity
        fields = self.__dict__      # frozen: written past __setattr__
        fields["conn"], fields["args"] = conn, args
        fields["size"], fields["depth"] = size, depth + 1
        fields["leaf_count"], fields["max_arity"] = leaves, arity

    # structural, like the generated methods, but without recursion
    def __eq__(self, other):
        return _same(self, other) if other.__class__ is Apply else NotImplemented

    def __hash__(self):
        return _rewrite(self, lambda node, args: hash(
            node.name if isinstance(node, Prop) else (node.conn, tuple(args))))

    def __repr__(self):
        return f"Apply({render(self)!r})"


Formula = Union[Prop, Apply]


# ---------------------------------------------------------------------------
# standard connectives

FALSE = Connective("0", boolfun.CONST0_FN)
TRUE = Connective("1", boolfun.CONST1_FN)
NOT = Connective("not", boolfun.NOT_FN)
AND = Connective("and", boolfun.AND_FN)
OR = Connective("or", boolfun.OR_FN)
XOR = Connective("xor", boolfun.XOR_FN)
IMP = Connective("imp", boolfun.IMP_FN)
IFF = Connective("iff", boolfun.IFF_FN)
NIMP = Connective("nimp", boolfun.NIMP_FN)
ID = Connective("id", boolfun.ID_FN)

FALSE_F: Formula = Apply(FALSE)
TRUE_F: Formula = Apply(TRUE)


def constant(bit: int) -> Formula:
    return TRUE_F if bit else FALSE_F


class Base:
    """An ordered set of named Boolean functions."""

    def __init__(self, connectives: Iterable[Connective]):
        by_name: dict[str, Connective] = {}     # in order of first occurrence
        for c in connectives:
            if by_name.setdefault(c.name, c).fn != c.fn:
                raise BaseError(f"duplicate connective name {c.name!r}")
        self.connectives = tuple(by_name.values())
        self._by_name = by_name
        self._tables = frozenset(c.fn for c in self.connectives)
        self._hash = hash(self.connectives)

    def get(self, name: str) -> Connective | None:
        return self._by_name.get(name)

    def contains_function(self, fn: BooleanFunction) -> bool:
        return fn in self._tables

    def extended(self, *extra: Connective) -> "Base":
        """This base plus the given connectives; an incoming name that
        clashes with a different function gets primes appended."""
        by_name = dict(self._by_name)
        for c in extra:
            name = c.name
            while by_name.get(name, c).fn != c.fn:
                name += "'"
            by_name.setdefault(name, c if name == c.name else Connective(name, c.fn))
        return Base(by_name.values())

    @classmethod
    def from_text(cls, text: str) -> "Base":
        """Parse the line-oriented base file format: one
        ``name/arity:bitstring`` per line, ``#`` comments."""
        conns = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, fn = parse_function_literal(line)
            conns.append(Connective(name, fn))
        return cls(conns)

    def to_text(self) -> str:
        return "\n".join(str(c) for c in self.connectives)

    def __iter__(self):
        return iter(self.connectives)

    def __len__(self):
        return len(self.connectives)

    def __eq__(self, other):
        return isinstance(other, Base) and self.connectives == other.connectives

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Base({', '.join(c.name for c in self.connectives)})"


STANDARD_BASE = Base([AND, OR, NOT, XOR, IMP, IFF, NIMP, ID, FALSE, TRUE])


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<lit>[01])"
    r"|(?P<op>-/>|->|<->|[&|^!(),]))")

# The one operator table, read by ``parse`` and ``render``: infix symbol,
# connective, precedence level (higher binds tighter) and associativity.
# Prefix ``!`` binds tighter than every infix operator.
_INFIX = {
    "&": (AND, 50, "left"),
    "|": (OR, 40, "left"),
    "^": (XOR, 30, "left"),
    "->": (IMP, 20, "right"),
    "-/>": (NIMP, 20, "right"),
    "<->": (IFF, 10, "left"),
}
_LEVEL_NOT = 60


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) of each token; kind is name, lit or op."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}",
                                 pos)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def _call(conn: Connective, name: str, at: int, args: list[Formula]) -> Formula:
    """The prefix call ``name(args)`` written at position ``at``."""
    if len(args) != conn.arity:
        raise ParseError(f"{name} expects {conn.arity} arguments, got {len(args)}", at)
    return Apply(conn, tuple(args))


def parse(text: str, base: Base | None = None) -> Formula:
    """Parse a formula.  Named prefix calls resolve in ``base`` first and
    in the standard connectives second; infix symbols always denote the
    standard connectives.  Parsing is one loop over explicit stacks, like
    the walkers, so input of any nesting depth parses."""
    tokens = _tokens(text)
    n = len(tokens)
    i = 0
    # Open frames, innermost last: ("!",), ("(",), ("call", connective,
    # name, position, index of its first argument in ``operands``) and
    # ("infix", connective, least level its right operand may contain).
    # ``operands`` holds the left operands of pending infix operators and
    # the finished arguments of open calls.
    frames: list[tuple] = []
    operands: list[Formula] = []
    leaves: dict[str, Prop] = {}    # one leaf object per name, in this call only
    while True:
        # an operand is due: prefixes open frames, an atom ends the operand
        if i == n:
            raise ParseError("unexpected end of input", len(text))
        kind, value, at = tokens[i]
        i += 1
        if value in ("!", "("):
            frames.append((value,))
            continue
        if kind == "lit":
            node = constant(value == "1")
        elif kind == "name" and i < n and tokens[i][1] == "(":
            conn = base.get(value) if base is not None else None
            if conn is None:
                conn = STANDARD_BASE.get(value)
            if conn is None:
                raise ParseError(f"unknown connective {value!r}", at)
            i += 1
            if i == n or tokens[i][1] != ")":
                frames.append(("call", conn, value, at, len(operands)))
                continue
            i += 1
            node = _call(conn, value, at, [])
        elif kind == "name":
            node = leaves.get(value)
            if node is None:
                node = leaves[value] = Prop(value)
        else:
            raise ParseError(f"unexpected {value!r}", at)
        # ``node`` is a finished operand: an infix operator or a closing
        # token is due
        while True:
            while frames and frames[-1][0] == "!":
                frames.pop()
                node = Apply(NOT, (node,))
            tok = tokens[i] if i < n else None
            op = _INFIX.get(tok[1]) if tok is not None else None
            # pending infix operators that bind tighter than ``op`` close
            while (frames and frames[-1][0] == "infix"
                   and (op is None or op[1] < frames[-1][2])):
                node = Apply(frames.pop()[1], (operands.pop(), node))
            if op is not None:
                i += 1
                operands.append(node)
                frames.append(("infix", op[0], op[1] + 1 if op[2] == "left" else op[1]))
                break
            if not frames:
                if tok is not None:
                    raise ParseError(f"unexpected {tok[1]!r}", tok[2])
                return node
            if tok is None:
                raise ParseError("unexpected end of input", len(text))
            i += 1
            frame = frames[-1]
            if frame[0] == "(":
                if tok[1] != ")":
                    raise ParseError("expected ')'", tok[2])
                frames.pop()
                continue
            operands.append(node)
            if tok[1] == ",":
                break
            if tok[1] != ")":
                raise ParseError("expected ',' or ')'", tok[2])
            frames.pop()
            _, conn, name, at, first = frame
            node = _call(conn, name, at, operands[first:])
            del operands[first:]


# ---------------------------------------------------------------------------
# traversal
#
# Substitution shares subtrees in memory: a restructured formula uses its
# split subformula in both case-split branches, so a tree of 300k nodes may
# hold only a few thousand distinct node objects.  :func:`_postorder` is
# the walk: each distinct node object once, children first, off an explicit
# stack; restructuring passes it the split subformula as ``known``, so the
# walk skips it.  :func:`_rewrite` is the map built on it, memoised on
# ``id(node)``.  A memo lives for one call only, because an id can be
# reused once its object is freed.  ``render`` and ``_same`` keep passes
# of their own.


def _postorder(*roots: Formula, known=()) -> list[Formula]:
    """The distinct node objects of ``roots``, each once, children before
    parents and left to right.  A node whose id is in ``known`` is neither
    listed nor descended into.  One depth-first pass: a node is marked
    when first met, a leaf is listed at once, and an application is
    listed when the iterator over its arguments, kept on the stack, runs
    out.  The projection columns that evaluation puts at the leaves come
    from ``boolfun._projection_mask``, cached for at most 256 (j, n)
    pairs."""
    order: list[Formula] = []
    seen: set[int] = set(known)
    stack = [(None, iter(roots))]
    while stack:
        for node in stack[-1][1]:
            if id(node) not in seen:
                seen.add(id(node))
                if node.__class__ is Apply and node.args:
                    stack.append((node, iter(node.args)))
                    break
                order.append(node)
        else:
            order.append(stack.pop()[0])
    order.pop()     # the None that stood for the roots
    return order


def _rewrite(phi: Formula, at):
    """The image of ``phi`` under ``at``: each distinct node object maps,
    once and children first, to ``at(node, images of its arguments)``; a
    leaf has no arguments."""
    memo = {}
    for node in _postorder(phi):
        memo[id(node)] = at(node, [memo[id(a)] for a in node.args]
                            if isinstance(node, Apply) else ())
    return memo[id(phi)]


def _same(a: Formula, b: Formula) -> bool:
    """Structural equality, without recursion; shared subtrees compare by
    identity and leftmost arguments are compared first."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, Prop):
            if not (isinstance(y, Prop) and x.name == y.name):
                return False
        elif isinstance(y, Apply) and x.conn == y.conn:
            stack.extend(zip(reversed(x.args), reversed(y.args)))
        else:
            return False
    return True


def _rebuild(node: Apply, args: list[Formula]) -> Apply:
    """``node`` with the given arguments; ``node`` itself when every
    argument is unchanged."""
    if all(map(is_, args, node.args)):
        return node
    return Apply(node.conn, tuple(args))


# ---------------------------------------------------------------------------
# printing

_LEVEL_ATOM = 100
_SYMBOL = {conn: (f" {sym} ", level, assoc) for sym, (conn, level, assoc) in _INFIX.items()}
_LEVEL = {NOT: _LEVEL_NOT} | {conn: level for conn, (_, level, _) in _SYMBOL.items()}


def render(phi: Formula) -> str:
    """Minimal-parenthesis ASCII form; reparses to an equal tree.  One
    preorder pass emits text fragments and joins them once.  A node met
    again is emitted as one string, joined from the fragments of its
    first rendering; these strings occupy disjoint stretches of the
    output, so memory stays linear in it."""
    parts: list[str] = []
    spans: dict[int, tuple[int, int] | str] = {}   # node id -> range or text
    stack: list = [phi]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, tuple):           # a node's fragments end
            spans[item[0]] = (item[1], len(parts))
        elif isinstance(item, Prop):
            parts.append(item.name)
        else:
            done = spans.get(id(item))
            if done is None:
                stack.append((id(item), len(parts)))
                stack.extend(reversed(_pieces(item)))
                continue
            if not isinstance(done, str):
                done = spans[id(item)] = "".join(parts[done[0]:done[1]])
            parts.append(done)
    return "".join(parts)


def _pieces(phi: Apply) -> list:
    """The text fragments and arguments that render one node, in order.
    Whether an argument is parenthesised follows from its precedence
    level and the node's, so no argument text is needed."""
    conn = phi.conn
    info = _SYMBOL.get(conn)
    if info is not None:
        sym, level, assoc = info
        pieces = []
        for side, arg in zip(("left", "right"), phi.args):
            lvl = _level(arg)
            if lvl > level or (lvl == level and side == assoc and arg.conn == conn):
                pieces += [arg, sym]
            else:
                pieces += ["(", arg, ")", sym]
        return pieces[:-1]
    if conn == NOT:
        arg = phi.args[0]
        return ["!", arg] if _level(arg) >= _LEVEL_NOT else ["!(", arg, ")"]
    if conn in (TRUE, FALSE):
        return [conn.name]
    pieces = [f"{conn.name}("]
    for i, arg in enumerate(phi.args):
        pieces += [", ", arg] if i else [arg]
    return pieces + [")"]


def _level(phi: Formula) -> int:
    """Precedence level of the node's text; atoms and calls bind tightest."""
    return _LEVEL.get(phi.conn, _LEVEL_ATOM) if isinstance(phi, Apply) else _LEVEL_ATOM


# ---------------------------------------------------------------------------
# semantics

Assignment = Mapping[str, int]


def evaluate(phi: Formula, assignment: Assignment) -> int:
    """Bottom-up evaluation under a total assignment of 0s and 1s (or
    bools): the one-row case of :func:`_eval_masks`."""
    for name, value in assignment.items():
        if value not in (0, 1):
            raise EvaluationError(f"proposition {name!r} has the value {value!r}, not 0 or 1")
    return _eval_masks([phi], assignment, 1)[0]


def vars_of(phi: Formula) -> frozenset[str]:
    return frozenset(node.name for node in _postorder(phi) if isinstance(node, Prop))


def props_in_order(phi: Formula) -> list[str]:
    """Distinct proposition names in order of first occurrence."""
    return list(_facts(phi)[1])


def connectives_of(phi: Formula) -> list[Connective]:
    """Distinct connectives, children's before their parents' (postorder)."""
    return list(_facts(phi)[0])


def _facts(phi: Formula) -> tuple[tuple[Connective, ...], tuple[str, ...]]:
    """The distinct connectives and proposition names of ``phi``, each in
    postorder, from one walk, kept on the node (nodes are immutable); a
    leaf takes no walk."""
    facts = phi.__dict__.get("_facts")
    if facts is None:
        order = _postorder(phi) if isinstance(phi, Apply) and phi.args else [phi]
        facts = phi.__dict__["_facts"] = (
            tuple(dict.fromkeys(node.conn for node in order if isinstance(node, Apply))),
            tuple(dict.fromkeys(node.name for node in order if isinstance(node, Prop))))
    return facts


class Metrics(NamedTuple):
    size: int
    depth: int
    leaf_count: int
    vars: frozenset[str]


def metrics(phi: Formula) -> Metrics:
    """Size (node count), depth, leaf count and variables.  The counts are
    the node's own, computed when it was built; they are tree counts, so a
    subtree shared in memory counts once per occurrence.  Only the
    variables take a walk."""
    return Metrics(phi.size, phi.depth, phi.leaf_count, vars_of(phi))


def size(phi: Formula) -> int:
    return phi.size


def depth(phi: Formula) -> int:
    """Maximum nesting of connective applications; a lone proposition has
    depth 0 and a lone constant depth 1."""
    return phi.depth


def leaf_count(phi: Formula) -> int:
    """Number of proposition occurrences; constants do not count."""
    return phi.leaf_count


def substitute(phi: Formula, alpha: Formula, beta: Formula) -> Formula:
    """Replace every subtree structurally equal to ``alpha`` by ``beta``.

    Occurrences are found outside-in and replacements are never re-scanned.
    """
    # a match discards whatever was rebuilt below it, so matching
    # bottom-up replaces the same occurrences as matching outside-in
    return _rewrite(phi, lambda node, args: (
        beta if node.size == alpha.size and _same(node, alpha)
        else node if isinstance(node, Prop) else _rebuild(node, args)))


def fold(phi: Formula) -> Formula:
    """Absorb the constants of ``phi``: :func:`_absorb` at every node,
    children first (``x & (1 & 1)`` is x, ``x & 0`` is 0).  Equivalence-
    preserving, and adds no connective but the constants 0 and 1, into
    which every nullary connective folds.

    A subformula with a proposition may become a constant that was not
    there before (``0 -> x`` is 1).  That subformula computes the unary
    constant function, so the constant lies in the clone [B] of the base
    the formula is written over, and any target B' with [B] inside [B']
    builds it at a proposition.

    Without a nullary connective there is nothing to absorb, and phi
    itself is returned without a rewrite."""
    if all(c.arity for c in connectives_of(phi)):
        return phi
    return _rewrite(phi, _absorb)


def constant_value(phi: Formula):
    """The bit a constant formula denotes, or None."""
    if phi.__class__ is Apply and not phi.args:
        return phi.conn.fn.bits[0]
    return None


@lru_cache(maxsize=4096)      # at most 3**arity constant patterns per function
def _restriction(fn: BooleanFunction, pattern: tuple) -> Formula | int | None:
    """``fn`` with the arguments at the non-None entries of ``pattern``
    fixed to those bits: the constant formula it becomes, the index of the
    one remaining argument it projects onto, or None for neither."""
    free = [i for i, v in enumerate(pattern) if v is None]
    full = (1 << (1 << len(free))) - 1
    columns = {i: _projection_mask(j, len(free)) for j, i in enumerate(free)}
    table = _kernel(fn)(full, *[columns[i] if v is None else full * v
                                for i, v in enumerate(pattern)])
    if table in (0, full):
        return constant(table == full)
    return next((i for i, column in columns.items() if column == table), None)


def _absorb(node: Formula, args) -> Formula:
    """``node`` over the given arguments with their constants absorbed:
    the constant or the argument the connective becomes with those
    constants fixed, else ``node`` rebuilt over ``args``; a proposition
    is itself.  The package's one constant rule, read by :func:`fold` and
    by restructuring; with every argument constant it evaluates the node."""
    if node.__class__ is Prop:
        return node
    pattern = tuple(map(constant_value, args))
    if not args or pattern.count(None) < len(args):
        out = _restriction(node.conn.fn, pattern)
        if out is not None:
            return args[out] if isinstance(out, int) else out
    return _rebuild(node, args)


def _eval_masks(roots, masks: Mapping[str, int] | None = None, nrows: int = 0) -> list[int]:
    """The packed tables (:mod:`boolfun`'s format) of ``roots`` over
    ``nrows`` rows, given the packed column of each proposition (bits
    above the rows are ignored), in one walk.  Without ``masks``, over the
    whole truth table of the roots' propositions in order of first
    occurrence, or ``VariableCapError`` above ``EQUIVALENCE_CAP`` of them.
    Each name's column is cut to the rows once; above 2^10 rows a table is
    dropped once its last parent has read it."""
    order = _postorder(*roots)
    names = dict.fromkeys(node.name for node in order if isinstance(node, Prop))
    if masks is None:
        if len(names) > EQUIVALENCE_CAP:
            raise VariableCapError(
                f"{len(names)} variables exceed the verification cap {EQUIVALENCE_CAP}")
        nrows = 1 << len(names)
        masks = {name: _projection_mask(j, len(names)) for j, name in enumerate(names)}
    full = (1 << nrows) - 1
    readers = None
    if nrows > 1 << 10:
        readers = Counter(map(id, roots))       # a root's table is never dropped
        readers.update(id(a) for node in order if isinstance(node, Apply) for a in node.args)
    try:
        columns = {name: masks[name] & full for name in names}
    except KeyError as missing:
        raise EvaluationError(f"unbound proposition {missing.args[0]!r}") from None
    memo = {}
    for node in order:
        if node.__class__ is Prop:
            memo[id(node)] = columns[node.name]
            continue
        memo[id(node)] = _kernel(node.conn.fn)(full, *[memo[id(a)] for a in node.args])
        for a in node.args if readers else ():
            readers[id(a)] -= 1
            if not readers[id(a)]:
                del memo[id(a)]
    return [memo[id(root)] for root in roots]


def truth_table(phi: Formula, var_order=None) -> BooleanFunction:
    """The function denoted by ``phi`` over the given variable order (the
    first variable is the high bit of the row index)."""
    names = vars_of(phi)
    if var_order is None:
        var_order = sorted(names)
    var_order = list(var_order)
    if len(set(var_order)) != len(var_order):
        raise VariableCapError("duplicate names in variable order")
    missing = names - set(var_order)
    if missing:
        raise EvaluationError(f"variable order misses {sorted(missing)}")
    n = len(var_order)
    if n > boolfun.ARITY_CAP:
        raise ArityError(f"truth table over {n} variables exceeds the arity cap")
    masks = {name: _projection_mask(j, n) for j, name in enumerate(var_order)}
    return _unpack(_eval_masks([phi], masks, 1 << n)[0], n)


def equivalent(phi: Formula, psi: Formula) -> bool:
    """Truth-table equivalence over the union of the two variable sets."""
    table, other = _eval_masks([phi, psi])
    return table == other
