"""Equivalence-preserving reductions between formula languages.

Each pipeline takes a formula over a base B and a target base B' with
B contained in [B'], and produces an equivalent formula over B', with
the connective ``and`` or ``or`` adjoined where the lattice position of
[B] requires it.  Every output carries a certificate (sizes, depths and
an exhaustive equivalence check when the variable count permits).

Every pipeline brings the formula into a shape whose connectives B'
can define, then runs one shared body (:func:`_replace_and_eliminate`):
replace every connective of the shape by its target representation,
eliminate the constants.  The pipelines differ in the shape:

* ``reduce_EVL``     - [B] inside E, V or L: the conjunctive,
  disjunctive or affine normal form, probed in one bit-parallel pass
  and rebuilt balanced.
* ``reduce_S00/S10``, ``reduce_S02/S12`` and ``reduce_D`` - the folded
  input itself or the formula restructured to logarithmic depth
  (:func:`_candidates`): restructuring pays only where a witness repeats
  a variable, and there both shapes are replaced and the smaller
  replacement is kept.  They differ only in data: the lower
  clone, the upper bound (monotone or self-dual), the restructurer
  (``g``/``h`` for monotone clones, the full form otherwise) and the
  adjoined connective (``and`` for S0 clones, ``or`` for their S1
  duals).  The theorem bounds output size, not depth, so
  an output may be deeper than the restructured shape would be.
* ``theorem_reduce`` - dispatcher over the seven lattice cases.

Constants follow one rule (:func:`_constant_replacement`): a constant
the target makes available is the representation of its constant
function, written at the formula's first proposition (nullary when it
has none); :func:`eliminate_constants` turns any other into a big fold
of the propositions.  No pipeline introduces a proposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import boolfun
from .boolfun import BooleanFunction
from .clones import (
    CLOSURE_ARITY_MAX,
    XNOR3,
    XOR3,
    CloneName,
    NotInCloneError,
    clone_of,
    includes,
    member,
    represent,
)
from .errors import PostLatticeError
from .formula import (
    AND,
    EQUIVALENCE_CAP,
    FALSE,
    FALSE_F,
    ID,
    IFF,
    NOT,
    OR,
    TRUE,
    TRUE_F,
    XOR,
    Apply,
    Base,
    Connective,
    Formula,
    Prop,
    _eval_mask,
    _postorder,
    _rebuild,
    connectives_of,
    constant,
    constant_value,
    equivalent,
    evaluate,
    fold,
    instantiate,
    leaf_count,
    metrics,
    props_in_order,
    size,
    substitute,
    truth_table,
    vars_of,
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
    m_in, m_out = metrics(inp), metrics(out)
    eq = equivalent(inp, out) if len(m_in.vars | m_out.vars) <= EQUIVALENCE_CAP else None
    return Certificate(m_in.size, m_in.depth, m_out.size, m_out.depth, eq)


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


def _check_over_base(phi: Formula, base: Base) -> None:
    for c in connectives_of(phi):
        if not base.contains_function(c.fn):
            raise PreconditionError(
                f"formula connective {c.name!r} is not in the source base")


def _check_subbase(base: Base, target: Base) -> None:
    for c in base:
        if not member(c.fn, target):
            raise PreconditionError(
                f"{c.name!r} is not generated by the target base")


#: Upper bounds a pipeline places on [B], with the message when [B] exceeds it.
_MONOTONE = ("M", "B must be monotone")
_SELF_DUAL = ("D", "B must be self-dual")


def _preconditions(phi: Formula, base: Base, target: Base, lower: str | None,
                   upper: tuple[str, str] | None) -> CloneName:
    """Check that phi is over B, that [B] contains the clone ``lower``
    and lies inside ``upper``, and that B is generated by B'.  Returns [B]."""
    _check_over_base(phi, base)
    x = clone_of(base)
    if lower is not None:
        _require(includes(x, lower), f"the clone of B must contain {lower}")
    if upper is not None:
        _require(includes(upper[0], x), upper[1])
    _check_subbase(base, target)
    return x


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
    table = _eval_mask(phi, {p: (2 << j) ^ flip for j, p in enumerate(props)}, rows)
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


# ---------------------------------------------------------------------------
# constant elimination


@lru_cache(maxsize=1024)
def _rep(fn: BooleanFunction, base: Base) -> Formula:
    """``represent`` over the base, cached.  ``represent`` is read from
    this module's globals at each miss, so a wrapper bound there sees
    every search."""
    return represent(fn, base)


def _rep_flexible(fn: BooleanFunction, target: Base) -> Formula:
    """The pipelines' lookup: the representation over the target alone
    when one exists, otherwise over the target with constants (removed
    again by :func:`eliminate_constants`)."""
    return _rep(fn, target if member(fn, target) else target.extended(FALSE, TRUE))


def _repmap(shaped: Formula, target: Base) -> dict[BooleanFunction, Formula]:
    """The lookup of every non-nullary connective of the shape."""
    return {c.fn: _rep_flexible(c.fn, target)
            for c in connectives_of(shaped) if c.arity >= 1}


def _replace_connectives(phi: Formula, repmap: dict[BooleanFunction, Formula]) -> Formula:
    """Each application of a ``repmap`` connective replaced by its witness."""
    memo: dict[int, Formula] = {}
    for node in _postorder(phi):
        if isinstance(node, Prop):
            memo[id(node)] = node
            continue
        args = [memo[id(a)] for a in node.args]
        witness = repmap.get(node.conn.fn)
        memo[id(node)] = (_rebuild(node, args) if witness is None else
                          instantiate(witness, {f"x{i + 1}": a for i, a in enumerate(args)}))
    return memo[id(phi)]


def _constant_replacement(bit: int, target: Base, props: list[str]) -> Formula | None:
    """A target-base formula denoting the constant, when the target makes
    the constant available: the representation of the constant function,
    unary at the first proposition, or nullary when there is none."""
    arity = 1 if props else 0
    try:
        rep = _rep(BooleanFunction(arity, (bit,) * (1 << arity)), target)
    except NotInCloneError:
        return None
    return instantiate(rep, {"x1": Prop(p) for p in props[:1]})


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
        tree = _replace_connectives(tree, {fold_conn.fn: _rep(fold_conn.fn, target)})
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
    (:func:`_big_fold`).  No proposition is added.  Raises
    :class:`ConstantEliminationError` when no sound replacement exists.
    """
    if extra not in ("and", "or", "none"):
        raise ReductionError(f"unknown adjoined connective {extra!r}")
    phi = fold(phi)
    # only the standard constants count; other nullary connectives stay
    present = {c.fn.bits[0] for c in connectives_of(phi) if c in (TRUE, FALSE)}
    if not present:
        return phi
    props = props_in_order(phi)
    replacements = {bit: _constant_replacement(bit, target, props)
                    or _big_fold(phi, bit, target, extra, props)
                    for bit in sorted(present, reverse=True)}
    out = phi
    for bit, repl in replacements.items():
        if repl != constant(bit):
            out = substitute(out, constant(bit), repl)
    return out


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
    * every witness of the input read-once (each variable at most once):
      the folded input, whose replacement is then at most its size times
      the largest witness size, at any depth;
    * otherwise both, folded first: :func:`_replace_and_eliminate` builds
      both replacements and keeps the smaller, ties to replace-only.

    The read-once bound is the guarantee there, not the restructured
    size: the restructurer also simplifies by case splits that ``fold``
    does not make.  The output depth is not bounded by the restructured
    route's."""
    folded = fold(phi)
    if leaf_count(phi) <= 1 or any(c.arity > CLOSURE_ARITY_MAX
                                   for c in connectives_of(folded)):
        return [restructurer(phi)]
    if all(leaf_count(w) == len(vars_of(w)) for w in _repmap(folded, target).values()):
        return [folded]
    return [folded, restructurer(phi)]


# ---------------------------------------------------------------------------
# pipelines


def _pipeline_output(inp: Formula, out: Formula, target: Base,
                     extra: str) -> ReductionOutput:
    """The checked result over B' plus the adjoined ``extra`` connective."""
    if extra != "none":
        target = target.extended(AND if extra == "and" else OR)
    return _check_target(ReductionOutput(out, target, extra,
                                         _certificate(inp, out)))


def _replace_and_eliminate(phi: Formula, shapes: list[Formula], target: Base,
                           extra: str) -> Formula:
    """The body every pipeline shares: replace each connective of each
    candidate shape of phi by its representation, keep the smallest
    replacement (the first on a tie; a lone candidate is not sized), then
    eliminate the constants for the adjoined ``extra``.  A constant shape
    is written at phi's first proposition (:func:`_constant_replacement`)."""
    replaced = [(s, _replace_connectives(s, _repmap(s, target))) for s in shapes]
    shaped, out = (replaced[0] if len(replaced) == 1
                   else min(replaced, key=lambda r: size(r[1])))
    bit = constant_value(shaped)
    if bit is not None:
        out = _constant_replacement(bit, target, props_in_order(phi))
        if out is None:
            raise ConstantEliminationError(f"constant {bit} is not available in the target")
        return out
    return eliminate_constants(out, target, extra)


def _pipeline(phi: Formula, base: Base, target: Base, lower: str,
              upper: tuple[str, str] | None, restructurer,
              extra: str) -> ReductionOutput:
    """The restructuring pipelines' body: check the preconditions, then
    replace the candidate shapes (:func:`_candidates`: the folded input,
    ``restructurer(phi)`` or both), keep the smaller replacement and
    eliminate."""
    _preconditions(phi, base, target, lower, upper)
    out = _replace_and_eliminate(phi, _candidates(phi, target, restructurer), target, extra)
    return _pipeline_output(phi, out, target, extra)


def reduce_S00(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Monotone pipeline for S00 <= [B] <= M; output over B' + {and}."""
    return _pipeline(phi, base, target, "S00", _MONOTONE,
                     restructure_monotone_g, "and")


def reduce_S10(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Dual monotone pipeline for S10 <= [B] <= M; output over B' + {or}."""
    return _pipeline(phi, base, target, "S10", _MONOTONE,
                     restructure_monotone_h, "or")


def reduce_S02(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Pipeline for S02 <= [B]; output over B' + {and}."""
    return _pipeline(phi, base, target, "S02", None, restructure_full, "and")


def reduce_S12(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Dual pipeline for S12 <= [B]; output over B' + {or}."""
    return _pipeline(phi, base, target, "S12", None, restructure_full, "or")


def _whole_formula_representation(phi: Formula, target: Base) -> Formula:
    """Exact fallback: represent the whole formula's function over the
    target base.  Exponential in the variable count and capped by the
    representation arity limit; used where piecewise constant elimination
    is provably impossible (self-dual targets)."""
    order = props_in_order(phi)
    if len(order) > CLOSURE_ARITY_MAX:
        raise ReductionError(
            f"self-dual target requires the whole-formula fallback, which is "
            f"capped at {CLOSURE_ARITY_MAX} variables ({len(order)} present)")
    fn = truth_table(phi, order)
    witness = _rep(fn, target)
    return instantiate(witness, {f"x{i + 1}": Prop(p) for i, p in enumerate(order)})


def reduce_D(phi: Formula, base: Base, target: Base, want: str = "and") -> ReductionOutput:
    """Pipeline for the self-dual window D2 <= [B] <= D; ``want`` picks
    the adjoined connective ("and" or "or").  Above D2 with a
    functionally complete target nothing is adjoined: that target has
    both constants at an existing proposition.  The shape is the folded
    input or the restructured formula, whichever replaces into fewer
    nodes (:func:`_candidates`).  The folded input of a self-dual base
    has no constants, so only the restructured shape can fail constant
    elimination (self-dual targets lack both constants); the whole
    formula's function is then represented over the target instead."""
    if want not in ("and", "or"):
        raise ReductionError(f"want must be 'and' or 'or', not {want!r}")
    x = _preconditions(phi, base, target, "D2", _SELF_DUAL)
    if x == CloneName("D2"):
        restructurer = restructure_monotone_g if want == "and" else restructure_monotone_h
        extra = want
    else:
        restructurer = restructure_full
        extra = "none" if clone_of(target) == CloneName("BF") else want
    try:
        out = _replace_and_eliminate(phi, _candidates(phi, target, restructurer),
                                     target, extra)
    except ConstantEliminationError:
        out = _whole_formula_representation(phi, target)
    return _pipeline_output(phi, out, target, extra)


def reduce_EVL(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Pipeline for [B] inside E, V or L: the shape is the normal form
    (:func:`normalize_V`, :func:`_affine_shape` of :func:`normalize_L`,
    :func:`normalize_E`), balanced; then the shared replace-and-eliminate
    body.  Output over B' exactly."""
    x = _preconditions(phi, base, target, None, None)
    if includes("V", x):
        shaped = normalize_V(phi)[2]
    elif includes("L", x):
        shaped = _affine_shape(*normalize_L(phi)[:2])
    elif includes("E", x):
        shaped = normalize_E(phi)[2]
    else:
        raise PreconditionError("the clone of B is not inside E, V or L")
    out = _replace_and_eliminate(phi, [shaped], target, "none")
    return _pipeline_output(phi, out, target, "none")


# ---------------------------------------------------------------------------
# the dispatcher


def theorem_case(clone: CloneName) -> str:
    """Which of the seven lattice cases the clone falls in: (a) inside V,
    (b) inside L, (c) inside E, (d) S00..S0^2, (e) S10..S1^2, (f) D2..D,
    (g) above M2.  First match in that order."""
    if includes("V", clone):
        return "a"
    if includes("L", clone):
        return "b"
    if includes("E", clone):
        return "c"
    if includes(clone, "S00") and includes(CloneName("S0", 2), clone):
        return "d"
    if includes(clone, "S10") and includes(CloneName("S1", 2), clone):
        return "e"
    if includes(clone, "D2") and includes("D", clone):
        return "f"
    if includes(clone, "M2"):
        return "g"
    raise ReductionError(f"clone {clone} escapes the case analysis")


def theorem_reduce(phi: Formula, base: Base, target: Base) -> ReductionOutput:
    """Dispatch to the reduction the lattice position of [B] supports.

    Cases (a)-(c) and (g) land in the target base exactly; case (d)
    adjoins ``and``, case (e) adjoins ``or``, and case (f) adjoins the
    default ``and`` (or nothing over a functionally complete target).
    Every pipeline checks that B is generated by B' itself.
    """
    x = clone_of(base)
    case = theorem_case(x)
    if case in ("a", "b", "c"):
        return reduce_EVL(phi, base, target)
    if case == "d":
        if includes(CloneName("S01", 2), x):
            return reduce_S00(phi, base, target)
        return reduce_S02(phi, base, target)
    if case == "e":
        if includes(CloneName("S11", 2), x):
            return reduce_S10(phi, base, target)
        return reduce_S12(phi, base, target)
    if case == "f":
        return reduce_D(phi, base, target, want="and")
    # case (g): M2 <= [B] <= [B'] (checked by the pipeline), so the target
    # generates both and/or and nothing is adjoined
    if includes("M", x):
        inner = reduce_S00(phi, base, target)
    else:
        inner = reduce_S02(phi, base, target)
    return _check_target(ReductionOutput(inner.formula, target, "none",
                                         inner.certificate))


# ---------------------------------------------------------------------------
# canonical connective sets


_STD_BY_NAME = {c.name: c for c in (AND, OR, NOT, XOR, IFF, FALSE, TRUE, ID)}

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
        return Base([_STD_BY_NAME[name] for name in self.connectives])


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
    elif case == "a":
        names = ("or",)
    elif case == "b":
        names = ("xor",)
    elif case == "c":
        names = ("and",)
    elif includes("M", x):
        names = ("and", "or")
    else:
        names = ("and", "or", "not")
    return CanonicalResult(
        x, names,
        f"theorem case ({case}); forward direction via theorem_reduce, the "
        f"adjoined connective as the case dictates")
