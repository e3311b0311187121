"""Equivalence-preserving reductions between formula languages.

Each pipeline takes a formula over a base B and a target base B' with
B contained in [B'], and produces an equivalent formula over B', with
the connective ``and`` or ``or`` adjoined where the lattice position of
[B] requires it.  Every output carries a certificate (sizes, depths and
an exhaustive equivalence check when the variable count permits).

The theorem's case analysis is written once, as two tables.  ``_CASES``
holds per case the window of [B], the pipeline for a monotone [B] and
for any other, and the adjoined connective; ``_PIPELINES`` holds per
restructuring pipeline the clone [B] must contain and the one it must
lie inside.  What a reduction reads off them is planned once per pair
(B, B') (:func:`_plan`).

Every pipeline runs one body (:func:`_pipeline`): bring the formula
into the shapes of its case, replace every connective of each by a
target witness, eliminate the constants and keep the smallest output;
where no shape survives, the formula's truth table is replaced as one
node (:func:`_replace_and_eliminate`).  Every witness over a target
comes from one cached lookup, compiled once into build steps
(:func:`_variants`, :func:`_build`), so replacing a node builds its
witness without walking it, and a node that replacing leaves unchanged
is kept.  Replacement (:func:`_replace`) knows two polarities: each
node may be built as itself or as its negation, from the witness of a
variant q xor f(y xor p) of its connective, whichever gives the smaller
tree.  Over ``{nand}`` the negated conjunction is then one node, not
``and`` under ``not``, each of which repeats its arguments.  A node over
at most six propositions whose function depends on at most three may
instead be written whole from one cached table of smallest witnesses per
target (:func:`_cuts`; cut rewriting, Mishchenko, Chatterjee and
Brayton, DAC 2006): ``g(x, y, y)`` into ``{and, or}`` is ``x | y``.  The
pipelines differ in the shape:

* ``reduce_EVL`` - cases (a)-(c), [B] inside V, L or E: the disjunctive,
  affine or conjunctive normal form, probed in one bit-parallel pass
  and rebuilt balanced (``_NORMAL_FORMS``).
* ``reduce_S00/S10``, ``reduce_S02/S12`` and ``reduce_D`` - the folded
  input itself or the formula restructured to logarithmic depth
  (:func:`_candidates`): restructuring pays only where a witness repeats
  a variable, and there both shapes are replaced and eliminated, and
  the smaller output is kept.  One rule picks the restructurer: ``h``
  for a monotone [B] with ``or`` adjoined, ``g`` for any other monotone
  [B], the full form otherwise.  The theorem bounds output size, not depth,
  so an output may be deeper than the restructured shape would be.
* ``theorem_reduce`` - the dispatcher: the pipeline of the case's row.

Constants follow one rule (:func:`_constant_replacement`): a constant
the target makes available is the identity variant of its constant
function, written at the formula's first proposition (nullary when it
has none); :func:`eliminate_constants` turns any other into a big fold
of the propositions.  No pipeline introduces a proposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import boolfun
from .boolfun import BooleanFunction, _kernel
from .clones import (
    CLOSURE_ARITY_MAX,
    XNOR3,
    XOR3,
    CloneName,
    NotInCloneError,
    _Search,
    clone_of,
    includes,
    member,
    represent,
    represent_variants,
)
from .errors import PostLatticeError
from .formula import (
    AND,
    FALSE,
    FALSE_F,
    IFF,
    NOT,
    OR,
    STANDARD_BASE,
    TRUE,
    TRUE_F,
    XOR,
    Apply,
    Base,
    Connective,
    Formula,
    Prop,
    VariableCapError,
    _eval_masks,
    _postorder,
    _rebuild,
    _rewrite,
    connectives_of,
    constant,
    constant_value,
    equivalent,
    evaluate,
    fold,
    props_in_order,
    truth_table,
)
from .restructure import (
    restructure_full,
    restructure_monotone_g,
    restructure_monotone_h,
)


class ReductionError(PostLatticeError):
    pass


class PreconditionError(ReductionError):
    """The clone-side conditions of the requested reduction do not hold."""


class ConstantEliminationError(ReductionError):
    """No equivalence-preserving replacement exists for a constant within
    the allowed target connectives."""


@dataclass(frozen=True)
class Certificate:
    size_in: int
    depth_in: int
    size_out: int
    depth_out: int
    equivalent: bool | None  # None = too many variables to verify


@dataclass(frozen=True)
class ReductionOutput:
    formula: Formula
    target: Base
    extra: str                      # "and", "or" or "none"
    certificate: Certificate


def _certificate(inp: Formula, out: Formula) -> Certificate:
    try:
        eq = equivalent(inp, out)
    except VariableCapError:
        eq = None
    return Certificate(inp.size, inp.depth, out.size, out.depth, eq)


def _check_target(result: ReductionOutput) -> ReductionOutput:
    for c in connectives_of(result.formula):
        if not result.target.contains_function(c.fn):
            raise ReductionError(
                f"internal: output connective {c.name!r} escapes the target base")
    if result.certificate.equivalent is False:
        raise ReductionError("internal: reduction output is not equivalent")
    return result


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


#: The theorem's seven cases, tried in order, with their windows read off
#: Post's lattice (Böhler, Creignou, Reith and Vollmer, "Playing with
#: Boolean blocks, Part I", 2003): the clone [B] must contain, the one it
#: must lie inside (the bottom I2 and the top BF bound nothing), the
#: pipeline for a monotone [B] and for any other, and the connective the
#: output adjoins (in case (g) M2 <= [B] <= [B'], so B' has and and or).
_CASES = {
    "a": ("I2", "V", "reduce_EVL", "reduce_EVL", "none"),
    "b": ("I2", "L", "reduce_EVL", "reduce_EVL", "none"),
    "c": ("I2", "E", "reduce_EVL", "reduce_EVL", "none"),
    "d": ("S00", CloneName("S0", 2), "reduce_S00", "reduce_S02", "and"),
    "e": ("S10", CloneName("S1", 2), "reduce_S10", "reduce_S12", "or"),
    "f": ("D2", "D", "reduce_D", "reduce_D", "and"),
    "g": ("M2", "BF", "reduce_S00", "reduce_S02", "none"),
}

#: Per restructuring pipeline: the clone [B] must contain, and the one it
#: must lie inside with the refusal when it does not.
_PIPELINES = {
    "reduce_S00": ("S00", "M", "B must be monotone"),
    "reduce_S10": ("S10", "M", "B must be monotone"),
    "reduce_S02": ("S02", "BF", None),
    "reduce_S12": ("S12", "BF", None),
    "reduce_D": ("D2", "D", "B must be self-dual"),
}


class _Plan(NamedTuple):
    case: str                           # the theorem case of [B]
    route: str                          # the pipeline theorem_reduce calls
    monotone: bool                      # [B] is inside M
    refusals: dict[str, str | None]     # per pipeline, its first failing bound, or None
    complete: bool                      # [B'] is BF
    outputs: dict[str, Base]            # per adjoined connective, B' with it


@lru_cache(maxsize=1024)
def _plan(base: Base, target: Base) -> _Plan:
    """What a reduction from B into B' reads off the tables before it reads
    the formula, fixed per pair: the case, the pipeline, the bounds that
    fail (the generation of B by B' last) and the output bases.  Holds no
    function: the pipelines are looked up when called."""
    x = clone_of(base)
    case = theorem_case(x)
    monotone = includes("M", x)
    route = _CASES[case][2 if monotone else 3]
    missing = next((f"{c.name!r} is not generated by the target base"
                    for c in base if not member(c.fn, target)), None)
    refusals = {pipeline: f"the clone of B must contain {lower}" if not includes(x, lower)
                else refusal if not includes(upper, x) else missing
                for pipeline, (lower, upper, refusal) in _PIPELINES.items()}
    refusals["reduce_EVL"] = missing if route == "reduce_EVL" else (
        missing or "the clone of B is not inside E, V or L")
    return _Plan(case, route, monotone, refusals, clone_of(target) == CloneName("BF"),
                 {"none": target, "and": target.extended(AND), "or": target.extended(OR)})


def _balanced(items: list[Formula], conn: Connective) -> Formula:
    """Left-heavy balanced tree; logarithmic depth."""
    if len(items) == 1:
        return items[0]
    mid = (len(items) + 1) // 2
    return Apply(conn, (_balanced(items[:mid], conn), _balanced(items[mid:], conn)))


# ---------------------------------------------------------------------------
# normal forms for E / V / L


def _probe(phi: Formula, bit: int) -> tuple[int, tuple[str, ...]]:
    """The value c of phi at the all-``bit`` assignment, and the
    propositions whose single flip from there changes it: one
    bit-parallel pass over n + 1 packed rows, row 0 all-``bit`` and row
    j + 1 with the j-th proposition flipped."""
    props = props_in_order(phi)
    rows = len(props) + 1
    flip = (1 << rows) - 1 if bit else 0
    table = _eval_masks([phi], {p: (2 << j) ^ flip for j, p in enumerate(props)}, rows)[0]
    c = table & 1
    return c, tuple(p for j, p in enumerate(props) if (table >> (j + 1)) & 1 != c)


def _normalize_monotone(phi: Formula, bit: int, conn: Connective
                        ) -> tuple[int, tuple[str, ...], Formula]:
    """Shared body of :func:`normalize_E` (``bit`` 1, ``conn`` and) and
    :func:`normalize_V` (``bit`` 0, ``conn`` or): c is the value at the
    all-``bit`` assignment; when c equals ``bit``, i enters I when
    additionally flipping x_i changes the value."""
    c, flips = _probe(phi, bit)
    chosen = flips if c == bit else ()
    return c, chosen, _balanced([Prop(p) for p in chosen], conn) if chosen else constant(c)


def normalize_E(phi: Formula) -> tuple[int, tuple[str, ...], Formula]:
    """Conjunctive normal data (c, I) and the balanced formula
    c AND (AND of x_i for i in I), with the constant dropped when I is
    nonempty.  c is the value under the all-ones assignment; i enters I
    when additionally flipping x_i to 0 falsifies the formula."""
    _require(all(boolfun.is_conjunction(c.fn) for c in connectives_of(phi)),
             "every connective must be a conjunction or constant")
    return _normalize_monotone(phi, 1, AND)


def normalize_V(phi: Formula) -> tuple[int, tuple[str, ...], Formula]:
    """Disjunctive dual of :func:`normalize_E`, probed at all-zeros."""
    _require(all(boolfun.is_disjunction(c.fn) for c in connectives_of(phi)),
             "every connective must be a disjunction or constant")
    return _normalize_monotone(phi, 0, OR)


def normalize_L(phi: Formula) -> tuple[int, tuple[str, ...], Formula]:
    """Affine normal data (c, I) and the balanced formula
    c XOR (XOR of x_i): c is the all-zeros value and i enters I when the
    unit assignment at x_i flips it."""
    _require(all(boolfun.is_affine(c.fn) for c in connectives_of(phi)),
             "every connective must be affine")
    c, chosen = _probe(phi, 0)
    items = ([TRUE_F] if c == 1 else []) + [Prop(p) for p in chosen]
    return c, chosen, _balanced(items, XOR) if items else FALSE_F


def _affine_shape(c: int, chosen: tuple[str, ...]) -> Formula:
    """c XOR (XOR of the chosen propositions) without a constant, unless
    nothing is chosen: a not of one proposition, a balanced xor (c = 0)
    or iff (c = 1) tree of an even number, and an odd number of at least
    three as a chain of ternary xors, under a ternary xnor root when
    c = 1.  The ternary connectives keep odd parities inside the affine
    clones that lack the binary ones."""
    leaves = [Prop(p) for p in chosen]
    if not leaves:
        return constant(c)
    if len(leaves) == 1:
        return Apply(NOT, (leaves[0],)) if c else leaves[0]
    if len(leaves) % 2 == 0:
        return _balanced(leaves, IFF if c else XOR)
    chain = leaves[2:] if c else leaves
    out = chain[0]
    for i in range(1, len(chain), 2):
        out = Apply(XOR3, (out, chain[i], chain[i + 1]))
    return Apply(XNOR3, (leaves[0], leaves[1], out)) if c else out


#: The shape of cases (a)-(c): the disjunctive, affine or conjunctive
#: normal form, balanced.
_NORMAL_FORMS = {
    "a": lambda phi: normalize_V(phi)[2],
    "b": lambda phi: _affine_shape(*normalize_L(phi)[:2]),
    "c": lambda phi: normalize_E(phi)[2],
}


# ---------------------------------------------------------------------------
# constant elimination


def _steps(w: Formula) -> tuple:
    """The witness ``w`` over x1, x2, ... compiled to build steps
    (:func:`_build`): a step is an argument's position (x1 is 0), a
    proposition-free node kept as it is, or a connective over earlier
    steps."""
    order = _postorder(w)
    index = {id(node): j for j, node in enumerate(order)}
    return tuple(int(node.name[1:]) - 1 if isinstance(node, Prop)
                 else (node.conn, tuple(index[id(a)] for a in node.args))
                 if node.leaf_count else node for node in order)


@lru_cache(maxsize=1024)
def _variants(fn: BooleanFunction, target: Base) -> tuple[tuple, tuple]:
    """The one witness lookup over a target, cached: per output polarity q,
    the variants q xor fn(y xor p) of a connective the target generates as
    (p, witness, its non-variable nodes, (argument, occurrences) of each
    argument it reads, its build steps (:func:`_steps`)), identity first.  A
    connective the target does not generate has one variant, itself, over
    the target with constants (removed by :func:`eliminate_constants`).  A
    constant the target builds only at a variable has no variant, so that
    refusal is cached too; otherwise raises as ``represent`` does."""
    if member(fn, target):
        try:
            found = represent_variants(fn, target)
        except NotInCloneError:
            found = {}
    else:
        found = {(0, 0): represent(fn, target.extended(FALSE, TRUE))}
    out: tuple[list, list] = ([], [])
    for (q, p), w in found.items():
        # occurrences, not distinct nodes: a shared subtree counts once per parent
        reads = _rewrite(w, lambda node, args: (
            Counter([node.name]) if isinstance(node, Prop) else sum(args, Counter())))
        out[q].append((p, w, w.size - w.leaf_count,
                       tuple((i, n) for i in range(fn.arity) if (n := reads[f"x{i + 1}"])),
                       _steps(w)))
    return tuple(out[0]), tuple(out[1])


@lru_cache(maxsize=1024)
def _cuts(target: Base) -> dict[int, tuple[int, Formula]]:
    """Per table over six slots that ignores the last three, the size of a
    smallest witness over the target's connectives of arity 1 to 3, and
    the witness, cached: wider ones would slow the search, and a nullary
    one could bring a constant.  A function of fewer propositions ignores
    more slots, and its witness is no larger than over those alone.
    Targets with the same such connectives share a search."""
    return _closure3(Base([c for c in target if 1 <= c.arity <= 3]))


@lru_cache(maxsize=1024)
def _closure3(base: Base) -> dict[int, tuple[int, Formula]]:
    """``closure(base, 3)`` as :func:`_cuts` reads it, row r of each
    table spread over the rows 8r to 8r + 7 of six slots."""
    search = _Search(base, 3)
    return {sum(0xFF << 8 * r for r in range(8) if t >> r & 1): (w.size, w)
            for t, w in zip(search.index, search.formulas())}


@lru_cache(maxsize=4096)
def _cut_steps(target: Base, table: int) -> tuple:
    """The build steps of the witness ``_cuts(target)[table]``, compiled
    when an option first takes it."""
    return _steps(_cuts(target)[table][1])


#: The projection masks of six slots, and the table true on every row.
_SLOTS = tuple(boolfun._projection_mask(j, 6) for j in range(6))
_FULL = (1 << 64) - 1


@lru_cache(maxsize=4096)
def _moves(sub: int, support: int) -> tuple[tuple[int, int], ...]:
    """The delta swaps (rows, shift) that lift a table over the
    propositions of mask ``sub`` (lowest bit first) in the first slots to
    one over ``support``'s, which holds them: the last first, each into a
    slot the table ignores.  Applied in reverse, they project it back."""
    bits = [b for b in range(support.bit_length()) if support >> b & 1]
    slots = [j for j, b in enumerate(bits) if sub >> b & 1]
    return tuple((_SLOTS[j] & ~_SLOTS[i], (1 << 5 - i) - (1 << 5 - j))
                 for i, j in reversed(list(enumerate(slots))) if i != j)


def _swapped(table: int, moves) -> int:
    """``table`` with the two slots of each delta swap exchanged."""
    for rows, shift in moves:
        flip = (table ^ table >> shift) & rows
        table ^= flip ^ flip << shift
    return table


def _build(steps: tuple, args) -> Formula:
    """The witness compiled to ``steps`` (:func:`_variants`) over the
    formulas ``args``, by position: what substituting them for its
    propositions gives, without a walk."""
    built: list[Formula] = []
    for step in steps:
        built.append(args[step] if isinstance(step, int)
                     else Apply(step[0], tuple(built[k] for k in step[1]))
                     if isinstance(step, tuple) else step)
    return built[-1]


_NEVER = (float("inf"), 0, None, (), ())
_SELF = (1, 0, None, (), ())


def _replace(shape: Formula, target: Base, names: Sequence[str] = ()) -> tuple[Formula, int]:
    """``shape`` with every connective replaced by a witness over the
    target, and the size of the result.  Each distinct node may be built
    at polarity 0 (itself) or 1 (its negation), and each option for a
    (node, polarity) is one record: size, the polarities p of its
    arguments, build steps (None: the node itself), the (argument,
    occurrences) it reads, and the arguments.  A k-ary node at polarity q
    may be a variant q xor f(y xor p) of its connective over its own
    arguments (:func:`_variants`), a proposition at polarity 1 the
    target's ``not`` witness over it; a constant keeps its polarity.
    Every node carries its support (its propositions, in order of first
    occurrence in ``names`` or else in the shape) and, while that has at
    most six members, its packed table over six slots, composed by its
    connective's kernel from its arguments' (:func:`_moves`).  Over
    more than three, the support keeps only the propositions the cofactor
    test (:func:`boolfun._depends`) finds the table depends on, and a
    constant its first one.  A node whose support has 1 to 3 members may
    instead be a smallest witness of its function or, at polarity 1, of
    its negation over the support padded to three (:func:`_cuts`), when
    that is strictly smaller.  A cut witness holds no constant; a variant
    or ``not`` witness may hold the target's own nullary connectives.
    One postorder pass finds the smallest tree size of every (node,
    polarity), a variant costing its witness's non-variable nodes plus
    each argument's size times its occurrences; the root is positive,
    and only the pairs it needs are built, each by its steps over its
    arguments at their polarities (:func:`_build`); a node built as
    itself is kept.  Ties go to the identity variant, then to the
    smaller p."""
    cuts = _cuts(target)
    negation = _NEVER[:4]       # a proposition's option at polarity 1, but its argument
    if member(NOT.fn, target):
        _, _, nodes, ((_, n),), steps = _variants(NOT.fn, target)[0][0]
        negation = nodes + n, 0, steps, ()
    order = _postorder(shape)
    rank = {name: 1 << i for i, name in enumerate(
        names or dict.fromkeys(node.name for node in order if isinstance(node, Prop)))}
    # per node: its options at polarity 0 and 1, support mask and table (0 above six)
    best: dict[int, list] = {}
    conns: dict[int, tuple] = {}    # per connective: its variants and its kernel
    for node in order:
        key = id(node)
        if isinstance(node, Prop):
            best[key] = [_SELF, (*negation, (node,)), rank[node.name], _SLOTS[0]]
            continue
        if not node.args:
            best[key] = [_SELF, _NEVER, 0, _FULL * node.conn.fn.bits[0]]
            continue
        entry = conns.get(id(node.conn))
        if entry is None:
            entry = conns[id(node.conn)] = _variants(node.conn.fn, target), _kernel(node.conn.fn)
        variants, kernel = entry
        below = [best[id(a)] for a in node.args]
        support = 0
        for arg in below:
            support |= arg[2]
        options = best[key] = [_NEVER, _NEVER, support, 0]
        for q in (0, 1):
            for p, _, size, reads, steps in variants[q]:
                for i, n in reads:
                    size += n * below[i][p >> i & 1][0]
                if size < options[q][0]:
                    options[q] = size, p, steps, reads, node.args
        width = support.bit_count()
        if width > 6:
            continue
        table = kernel(_FULL, *[arg[3] if arg[2] == support
                                else _swapped(arg[3], _moves(arg[2], support)) for arg in below])
        if width > 3:
            slots = boolfun._depends(table, 6, _SLOTS[:width])
            if len(slots) < width:      # a constant keeps its first proposition
                bits = [bit for bit in rank.values() if bit & support]
                kept = sum(bits[j] for j in slots) or bits[0]
                table, support = _swapped(table, reversed(_moves(kept, support))), kept
        options[2:] = support, table
        if not 1 <= support.bit_count() <= 3:
            continue
        for q in (0, 1):
            want = table ^ _FULL if q else table
            found = cuts.get(want)
            if found and found[0] < options[q][0]:
                props = tuple(Prop(n) for n, bit in rank.items() if bit & support)
                options[q] = found[0], 0, _cut_steps(target, want), (), (props * 3)[:3]
    needed = {(id(shape), 0)}
    for node in reversed(order):
        for q in (0, 1):
            if (id(node), q) in needed:
                _, p, _, reads, args = best[id(node)][q]
                needed.update((id(args[i]), p >> i & 1) for i, _ in reads)
    built: dict[tuple[int, int], Formula] = {}
    for node in order:
        for q in (0, 1):
            if (id(node), q) not in needed:
                continue
            _, p, steps, _, args = best[id(node)][q]
            out = node if steps is None else _build(
                steps, [built.get((id(a), p >> i & 1), a) for i, a in enumerate(args)])
            if out.__class__ is Apply and node.__class__ is Apply and out.conn == node.conn:
                out = _rebuild(node, out.args)  # node itself: an unchanged shape is its output
            built[id(node), q] = out
    return built[id(shape), 0], best[id(shape)][0][0]


def _constant_replacement(bit: int, target: Base, props: list[str]) -> Formula | None:
    """A target-base formula denoting the constant, when the target makes
    the constant available: the identity variant of the constant
    function (:func:`_variants`), unary at the first proposition, or
    nullary when there is none, which the target may build only at a
    variable."""
    fn = BooleanFunction(len(props[:1]), (bit,) * (2 if props else 1))
    options = _variants(fn, target)[0] if member(fn, target) else ()
    return _build(options[0][4], [Prop(p) for p in props[:1]]) if options else None


def _big_fold(phi: Formula, bit: int, target: Base, extra: str,
              props: list[str]) -> Formula:
    """The constant as the balanced big-AND (0) or big-OR (1) of phi's
    propositions: over the target when it generates that connective,
    literal when it is the adjoined ``extra``.  Sound only when phi takes
    the value 1 - bit at the all-(1 - bit) assignment, the fold's blind
    spot; that is checked."""
    fold_conn = OR if bit == 1 else AND
    if not props:
        raise ConstantEliminationError(
            f"constant {bit} in a proposition-free formula, and the target "
            f"cannot build it without a proposition")
    tree = _balanced([Prop(p) for p in props], fold_conn)
    if member(fold_conn.fn, target):
        tree = _replace(tree, target)[0]
    elif fold_conn.name != extra:
        raise ConstantEliminationError(
            f"constant {bit} is not available in the target clone, which "
            f"lacks {fold_conn.name}, and {fold_conn.name} is not adjoined")
    if evaluate(phi, dict.fromkeys(props, 1 - bit)) != 1 - bit:
        raise ConstantEliminationError(
            f"big-{fold_conn.name} elimination is unsound here: the "
            f"all-{1 - bit} assignment does not evaluate to {1 - bit}")
    return tree


def eliminate_constants(phi: Formula, target: Base, extra: str) -> Formula:
    """Replace the constants 0/1 for a pipeline whose output adjoins
    ``extra`` (``"and"``, ``"or"`` or ``"none"``) to the target base.

    A constant the target clone makes available is rebuilt at an existing
    proposition; any other becomes a big fold of the propositions
    (:func:`_big_fold`).  One rewrite puts them in: a replacement holds a
    constant only as the target's own, which replaces itself.  Raises
    :class:`ConstantEliminationError` when no sound replacement exists.
    """
    if extra not in ("and", "or", "none"):
        raise ReductionError(f"unknown adjoined connective {extra!r}")
    phi = fold(phi)     # every nullary node is now the constant 0 or 1
    present = {c.fn.bits[0] for c in connectives_of(phi) if c.arity == 0}
    if not present:
        return phi
    props = props_in_order(phi)
    replacements = {bit: _constant_replacement(bit, target, props)
                    or _big_fold(phi, bit, target, extra, props)
                    for bit in sorted(present, reverse=True)}
    return _rewrite(phi, lambda node, args: node if isinstance(node, Prop) else
                    _rebuild(node, args) if args else replacements[node.conn.fn.bits[0]])


# ---------------------------------------------------------------------------
# route choice


def _candidates(phi: Formula, target: Base, restructurer) -> list[Formula]:
    """The shapes a restructuring pipeline may replace: the folded input
    (replace-only), ``restructurer(phi)``, or both.  Restructuring buys
    logarithmic depth and pays for it in size, so it is tried only where
    replacing can blow up:

    * at most one proposition occurrence, or a connective above the
      representation arity cap (it has no witness; the restructured
      shape holds only g, h, and, or, not and constants): the
      restructurer, which reduces a one-occurrence formula to the
      proposition, its negation or a constant;
    * every witness of the input read-once (each argument read at most
      once): the folded input, whose replacement is then at most its size
      times the largest witness size, at any depth;
    * otherwise both, folded first: :func:`_replace_and_eliminate` builds
      both outputs and keeps the smaller, ties to replace-only.

    The read-once bound is the guarantee there, not the restructured
    size, and the output depth is not bounded by the restructured
    route's."""
    folded = fold(phi)
    conns = [c for c in connectives_of(folded) if c.arity >= 1]
    if phi.leaf_count <= 1 or any(c.arity > CLOSURE_ARITY_MAX for c in conns):
        return [restructurer(phi)]
    if all(n == 1 for c in conns for _, n in _variants(c.fn, target)[0][0][3]):
        return [folded]
    return [folded, restructurer(phi)]


# ---------------------------------------------------------------------------
# pipelines


def _replace_and_eliminate(phi: Formula, shapes: list[Formula], target: Base,
                           extra: str) -> Formula:
    """Replace the connectives of each shape of phi (:func:`_replace`),
    eliminate its constants for the adjoined ``extra`` and keep the
    smallest output (the first on a tie); a constant shape is written at
    phi's first proposition (:func:`_constant_replacement`).  A shape
    whose elimination raises gives way to the others.  With none left,
    phi's truth table over its propositions is replaced as one node,
    capped at the representation arity; without a proposition there is
    no such node, and the first error is raised."""
    outs, errors, props = [], [], props_in_order(phi)
    for shaped in shapes:
        bit = constant_value(shaped)
        try:
            out = (_constant_replacement(bit, target, props) if bit is not None
                   else eliminate_constants(_replace(shaped, target, props)[0], target, extra))
            if out is None:
                raise ConstantEliminationError(f"constant {bit} is not available in the target")
            outs.append(out)
        except ConstantEliminationError as err:
            errors.append(err)
    if outs:
        return min(outs, key=lambda out: out.size)
    if not props:
        raise errors[0]
    if len(props) > CLOSURE_ARITY_MAX:
        raise ReductionError(f"no shape survives constant elimination, and the whole-formula "
                             f"fallback is capped at {CLOSURE_ARITY_MAX} variables "
                             f"({len(props)} present)")
    whole = Connective("phi", truth_table(phi, props))
    return _replace(Apply(whole, tuple(map(Prop, props))), target)[0]


def _pipeline(phi: Formula, base: Base, target: Base, pipeline: str,
              extra: str | None = None) -> ReductionOutput:
    """The body of every pipeline: check that phi is over B, then the
    pipeline's bounds on [B] and that B is generated by B' (:func:`_plan`).
    Replace and eliminate the shapes of phi (:func:`_replace_and_eliminate`)
    for the adjoined ``extra``, by default the case's, and return the
    checked output over B' plus it.  In cases (a)-(c) the shape is the
    normal form (``_NORMAL_FORMS``); otherwise the shapes are
    :func:`_candidates`: a monotone [B] is restructured by h when ``or``
    is adjoined and by g otherwise, any other [B] by the full form."""
    for c in connectives_of(phi):
        _require(base.contains_function(c.fn),
                 f"formula connective {c.name!r} is not in the source base")
    plan = _plan(base, target)
    _require(plan.refusals[pipeline] is None, plan.refusals[pipeline])
    extra = extra or _CASES[plan.case][4]
    normal = _NORMAL_FORMS.get(plan.case)
    shapes = [normal(phi)] if normal else _candidates(phi, target, (
        restructure_full if not plan.monotone
        else restructure_monotone_h if extra == "or" else restructure_monotone_g))
    out = _replace_and_eliminate(phi, shapes, target, extra)
    return _check_target(ReductionOutput(out, plan.outputs[extra], extra, _certificate(phi, out)))


def reduce_S00(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Monotone pipeline for S00 <= [B] <= M; adjoins and, nothing in case (g)."""
    return _pipeline(phi, base, target, "reduce_S00")


def reduce_S10(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Dual monotone pipeline for S10 <= [B] <= M; adjoins or, nothing in case (g)."""
    return _pipeline(phi, base, target, "reduce_S10")


def reduce_S02(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Pipeline for S02 <= [B]; adjoins and, nothing in case (g)."""
    return _pipeline(phi, base, target, "reduce_S02")


def reduce_S12(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Dual pipeline for S12 <= [B]; adjoins or, nothing in case (g)."""
    return _pipeline(phi, base, target, "reduce_S12")


def reduce_D(phi: Formula, base: Base, target: Base, want: str = "and") -> ReductionOutput:
    """Pipeline for the self-dual window D2 <= [B] <= D; ``want`` picks
    the adjoined connective ("and" or "or").  Above D2 with a
    functionally complete target nothing is adjoined: that target has
    both constants at an existing proposition.  Self-dual targets lack
    both, but only the restructured shape can hold one; where it is the
    only shape, the whole-formula fallback writes the output
    (:func:`_replace_and_eliminate`)."""
    if want not in ("and", "or"):
        raise ReductionError(f"want must be 'and' or 'or', not {want!r}")
    plan = _plan(base, target)
    return _pipeline(phi, base, target, "reduce_D",
                     "none" if plan.complete and not plan.monotone else want)


def reduce_EVL(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Pipeline for [B] inside E, V or L: the shape is the normal form
    (:func:`normalize_V`, :func:`_affine_shape` of :func:`normalize_L`,
    :func:`normalize_E`), balanced.  Output over B' exactly."""
    return _pipeline(phi, base, target, "reduce_EVL")


# ---------------------------------------------------------------------------
# the dispatcher


def theorem_case(clone: CloneName) -> str:
    """Which of the seven lattice cases the clone falls in: the first row
    of ``_CASES`` whose window holds it ((a) inside V, (b) L, (c) E,
    (d) S00..S0^2, (e) S10..S1^2, (f) D2..D, (g) above M2)."""
    for case, (lower, upper, *_) in _CASES.items():
        if includes(clone, lower) and includes(upper, clone):
            return case
    raise ReductionError(f"clone {clone} escapes the case analysis")


def theorem_reduce(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Dispatch to the reduction the lattice position of [B] supports.

    Cases (a)-(c) and (g) land in the target base exactly; case (d)
    adjoins ``and`` and case (e) ``or``.  Case (f) adjoins ``and``,
    except that above D2 nothing is adjoined into a functionally
    complete target (:func:`reduce_D`).  Every pipeline checks that B is
    generated by B' itself.  The case and the pipeline are planned once
    per pair (:func:`_plan`).
    """
    pipeline = globals()[_plan(base, target).route]     # looked up now: it may be wrapped
    return pipeline(phi, base, target)


# ---------------------------------------------------------------------------
# canonical connective sets


_SIX_CANONICAL = {
    CloneName("BF"): ("and", "or", "not"),
    CloneName("M"): ("and", "or", "0", "1"),
    CloneName("L"): ("xor", "1"),
    CloneName("N"): ("not", "1"),
    CloneName("E"): ("and", "0", "1"),
    CloneName("V"): ("or", "0", "1"),
}


@dataclass(frozen=True)
class CanonicalResult:
    clone: CloneName
    connectives: tuple[str, ...]
    note: str

    @property
    def canonical_base(self) -> Base:
        return Base([STANDARD_BASE.get(n) for n in self.connectives])


def canonical_equivalent(base: Base) -> CanonicalResult:
    """The canonical connective set the problem class of the base reduces
    to.  The six named clones get their exact constant-decorated sets and
    are two-way reducible; the rest are mapped to the constant-free
    skeleton their dispatcher case targets."""
    x = clone_of(base)
    exact = _SIX_CANONICAL.get(x)
    if exact is not None:
        return CanonicalResult(
            x, exact,
            "two-way equivalence; both directions via theorem_reduce")
    case = theorem_case(x)
    if includes("I", x):
        names: tuple[str, ...] = ("id",)
    elif includes("N", x):
        names = ("not",)
    else:
        names = {"a": ("or",), "b": ("xor",), "c": ("and",)}.get(
            case, ("and", "or") if includes("M", x) else ("and", "or", "not"))
    return CanonicalResult(
        x, names,
        f"theorem case ({case}); forward direction via theorem_reduce, the "
        f"adjoined connective as the case dictates")
