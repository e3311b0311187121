"""Logarithmic-depth formula restructuring.

Three builders share one split rule: descend from the root into the
child with the most proposition occurrences and take the first
subformula on that path whose leaf count is at most k*m/(k+1), where m
is the total leaf count and k the largest connective arity.  Both
recursion branches then shrink by the factor k/(k+1), which gives depth
O(k log m).  One pass over the formula builds both branches of a step:
it substitutes 0 and 1 for the split subformula without entering it,
absorbs constants, and interns every node in a table that lives for one
restructuring call (hash-consing): structurally equal nodes become one
object, so a pass finds the split subformula by identity and each
distinct subformula is restructured once.  The split rule reads the
leaf count and largest arity that every node carries, so choosing a
split takes no walk.

The one simplification rule is the constant rule of ``formula.fold``
(``formula._absorb``), applied to every node a pass or a builder
creates: a node whose connective, with its constant arguments fixed, is
a constant or the projection onto one remaining argument becomes that
constant or argument (``x & 0`` is 0, ``x | 0`` is x, ``g(x, 0, z)`` is
x); with every argument constant it folds.  It never adds a connective,
so the monotone builders still emit no negation, and it only lowers
leaf counts, so the depth law holds as before.  A formula left with one
proposition occurrence splits on it.

Each split compares its branches low = phi[psi/0] and high = phi[psi/1]
by their packed truth tables when phi has at most ``EQUIVALENCE_CAP``
(20) variables.  Equal branches drop the split: phi does not depend on
psi, so the step is low restructured and psi is not restructured for
it.  When low <= high (phi positively unate in psi) the full builder
writes psi once, low | (high & psi); when high <= low, high | (low &
!psi) (Brayton et al. 1984); otherwise, or above the cap, the binate
form.  A monotone phi is positively unate in every psi: the g builder
g(low, high, psi) = low | (high & psi) is that form, h its dual.  No
unate form is deeper than the binate one or adds a connective to {and,
or, not}, so the depth law and the full connective set hold.

* ``restructure_monotone_g``: for monotone connectives; rebuilds around
  g(x,y,z) = x | (y & z) and never introduces negation.
* ``restructure_monotone_h``: the dual, around h(x,y,z) = x & (y | z).
* ``restructure_full``: for arbitrary connectives; rebuilds into
  {and, or, not} with constants via the case split
  (phi[psi/0] & !psi) | (phi[psi/1] & psi) or its unate forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import boolfun
from .clones import G, H
from .errors import PostLatticeError
from .formula import (
    AND,
    EQUIVALENCE_CAP,
    NOT,
    OR,
    Apply,
    Formula,
    Prop,
    _absorb,
    _eval_masks,
    _postorder,
    _rewrite,
    connectives_of,
    constant,
    constant_value,
    vars_of,
)

#: Empirical size-law factors asserted by the test suite:
#: monotone outputs stay within SIZE_FACTOR_MONOTONE * size(input)**2,
#: full outputs within SIZE_FACTOR_FULL * size(input)**3.
SIZE_FACTOR_MONOTONE = 4.0
SIZE_FACTOR_FULL = 4.0

#: Base-case depth: a folded constant is a single application.
BASE_CASE_DEPTH = 1


class RestructureError(PostLatticeError):
    pass


@dataclass(frozen=True)
class SplitChoice:
    """The subformula a restructuring step splits on: ``path`` is the
    child-index route from the root, ``total_leaves`` the leaf count of
    the whole formula and ``chosen_leaves`` that of the subformula."""

    path: tuple[int, ...]
    total_leaves: int
    chosen_leaves: int
    node: Formula


def select_split(phi: Formula) -> SplitChoice:
    """Pick the split subformula: descend from the root into the child
    with the most leaves (the first on ties) until the leaf count is
    within the bound.  Requires at least two proposition occurrences.
    The result psi satisfies m/(k+1) < leaves(psi) <= k*m/(k+1)."""
    m, k = phi.leaf_count, phi.max_arity
    if m < 2:
        raise RestructureError("split requires at least two proposition occurrences")
    bound = k * m / (k + 1)
    path: list[int] = []
    node = phi
    while node.leaf_count > bound:
        idx, node = max(enumerate(node.args), key=lambda arg: arg[1].leaf_count)
        path.append(idx)
    return SplitChoice(tuple(path), m, node.leaf_count, node)


def _apply(conn, *args: Formula) -> Formula:
    """A new application of ``conn``, constants absorbed."""
    return _absorb(Apply(conn, args), list(args))


def _order(phi: Formula, low: Formula, high: Formula) -> int | None:
    """How the branches low = phi[psi/0] and high = phi[psi/1] compare
    over the variables of ``phi``: None if equal, 1 if low <= high, -1 if
    high <= low, 0 otherwise or above ``EQUIVALENCE_CAP`` variables."""
    if low is high:
        return None
    if constant_value(low) is not None and constant_value(high) is not None:
        return constant_value(high) - constant_value(low) or None
    # phi has no more variables than leaves; the tables cover those the branches read
    if phi.leaf_count > EQUIVALENCE_CAP and len(vars_of(phi)) > EQUIVALENCE_CAP:
        return 0
    t0, t1 = _eval_masks([low, high])
    if t0 == t1:
        return None
    return 1 if t0 & ~t1 == 0 else -1 if t1 & ~t0 == 0 else 0


def _check_monotone(phi: Formula) -> None:
    for c in connectives_of(phi):
        if not boolfun.is_monotone(c.fn):
            raise RestructureError(f"connective {c.name!r} is not monotone")


def _restructure(phi: Formula, build) -> Formula:
    """Absorb the constants of ``phi`` and rebuild it with
    ``build(low, high, part, order)`` around each split subformula psi:
    low and high restructure phi with psi set to 0 and to 1, part
    restructures psi and order is :func:`_order` of the two branches (a
    split with equal branches is low alone).  One pass over phi builds
    both branches and skips psi's subtree.  Each distinct subformula is
    restructured once per call."""
    # ``table`` keys a proposition by its name and an application by its
    # connective and the ids of its interned arguments, so equal nodes of a
    # result are one object and every subformula equal to psi is psi itself;
    # ``interned`` holds the id of each entry, which the table keeps alive
    interned: set[int] = set()
    table: dict = {}
    done: dict[int, Formula] = {}

    def intern(node: Formula, args) -> Formula:
        out = _absorb(node, args)
        if id(out) not in interned:
            ident = out.name if isinstance(out, Prop) else (out.conn, *map(id, out.args))
            out = table.setdefault(ident, out)
            interned.add(id(out))
        return out

    def step(phi: Formula) -> Formula:
        if id(phi) in done:
            return done[id(phi)]
        if phi.leaf_count == 0:
            if constant_value(phi) is None:
                raise RestructureError("proposition-free formula did not fold")
            out = phi
        elif isinstance(phi, Prop):
            out = phi
        else:
            # psi is a subformula of the interned phi, so it is interned too
            if phi.leaf_count > 1:
                psi = select_split(phi).node
            else:       # one proposition occurrence: split on it
                psi = phi
                while isinstance(psi, Apply):
                    psi = next(a for a in psi.args if a.leaf_count)
            lows, highs = {id(psi): constant(0)}, {id(psi): constant(1)}
            for node in _postorder(phi, known=lows):
                args = node.args if isinstance(node, Apply) else ()
                lows[id(node)] = intern(node, [lows[id(a)] for a in args])
                highs[id(node)] = intern(node, [highs[id(a)] for a in args])
            low, high = lows[id(phi)], highs[id(phi)]
            order = _order(phi, low, high)
            out = step(low) if order is None else build(step(low), step(high), step(psi), order)
        done[id(phi)] = out
        return out

    return step(_rewrite(phi, intern))


def restructure_monotone_g(phi: Formula) -> Formula:
    """Equivalent formula over the input connectives plus {g, 0, 1} with
    depth logarithmic in the leaf count.  Every connective of the input
    must be monotone; negation never appears in the output."""
    _check_monotone(phi)
    return _restructure(phi, lambda low, high, part, _: _apply(G, low, high, part))


def restructure_monotone_h(phi: Formula) -> Formula:
    """Dual of :func:`restructure_monotone_g`, built around h."""
    _check_monotone(phi)
    return _restructure(phi, lambda low, high, part, _: _apply(H, high, low, part))


def restructure_full(phi: Formula) -> Formula:
    """Equivalent {and, or, not, 0, 1}-formula of logarithmic depth, for
    arbitrary connectives within the arity cap; a split whose branches
    compare writes psi once (see the module docstring)."""
    return _restructure(phi, _case_split)


def _case_split(low: Formula, high: Formula, part: Formula, order: int) -> Formula:
    """The full builder: low | (high & part) when low <= high, high | (low
    & !part) when high <= low, else (low & !part) | (high & part)."""
    if order < 0:       # positively unate in !psi, with the branches swapped
        low, high, part = high, low, _apply(NOT, part)
    if order:
        return _apply(OR, low, _apply(AND, high, part))
    return _apply(OR, _apply(AND, low, _apply(NOT, part)), _apply(AND, high, part))


def depth_bound(mode: str, k: int, leaves: int) -> float:
    """The depth law asserted for a restructuring mode at maximum
    connective arity k: a*log2(leaves) + b, with a and b read off the
    k/(k+1) shrink factor of the split rule."""
    k = max(k, 2)
    per_level = {"g": 2.0, "h": 2.0, "full": 3.0}[mode]
    a = per_level / math.log2((k + 1) / k)
    b = per_level + BASE_CASE_DEPTH
    return a * math.log2(max(leaves, 2)) + b
