"""Logarithmic-depth formula restructuring.

Three builders share one split rule: descend from the root into the
child with the most proposition occurrences and take the first
subformula on that path whose leaf count is at most k*m/(k+1), where m
is the total leaf count and k the largest connective arity.  Both
recursion branches then shrink by the factor k/(k+1), which gives depth
O(k log m).

* ``restructure_monotone_g``: for monotone connectives; rebuilds around
  g(x,y,z) = x | (y & z) and never introduces negation.
* ``restructure_monotone_h``: the dual, around h(x,y,z) = x & (y | z).
* ``restructure_full``: for arbitrary connectives; rebuilds into
  {and, or, not} with constants via the two-branch case split
  (phi[psi/0] & !psi) | (phi[psi/1] & psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import boolfun
from .clones import G, H
from .errors import PostLatticeError
from .formula import (
    AND,
    NOT,
    OR,
    Apply,
    Connective,
    Formula,
    Prop,
    connectives_of,
    constant,
    constant_value,
    evaluate,
    fold,
    leaf_count,
    substitute,
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


def max_connective_arity(phi: Formula) -> int:
    return max((c.arity for c in connectives_of(phi)), default=0)


def select_split(phi: Formula) -> SplitChoice:
    """Pick the split subformula.  Requires at least two proposition
    occurrences.  The result psi satisfies
    m/(k+1) < leaves(psi) <= k*m/(k+1)."""
    m = leaf_count(phi)
    if m < 2:
        raise RestructureError("split requires at least two proposition occurrences")
    k = max_connective_arity(phi)
    bound = k * m / (k + 1)
    path: list[int] = []
    node = phi
    count = m
    while count > bound:
        counts = [leaf_count(a) for a in node.args]
        idx = max(range(len(counts)), key=lambda i: (counts[i], -i))
        path.append(idx)
        node = node.args[idx]
        count = counts[idx]
    return SplitChoice(tuple(path), m, count, node)


def _unary_shape(phi: Formula, allow_negation: bool) -> Formula:
    """Canonical form of a formula with exactly one proposition
    occurrence: the proposition, its negation, or a constant."""
    (name,) = vars_of(phi)
    v0 = evaluate(phi, {name: 0})
    v1 = evaluate(phi, {name: 1})
    if v0 == v1:
        return constant(v0)
    if v0 == 0:
        return Prop(name)
    if not allow_negation:
        raise RestructureError("non-monotone behaviour under monotone connectives")
    return Apply(NOT, (Prop(name),))


def _check_monotone(phi: Formula) -> None:
    for c in connectives_of(phi):
        if not boolfun.is_monotone(c.fn):
            raise RestructureError(f"connective {c.name!r} is not monotone")


def _restructure_monotone(phi: Formula, conn: Connective, swap: bool) -> Formula:
    phi = fold(phi)
    m = leaf_count(phi)
    if m == 0:
        if constant_value(phi) is None:
            raise RestructureError("proposition-free formula did not fold")
        return phi
    if m == 1:
        return _unary_shape(phi, allow_negation=False)
    psi = select_split(phi).node
    low = _restructure_monotone(substitute(phi, psi, constant(0)), conn, swap)
    high = _restructure_monotone(substitute(phi, psi, constant(1)), conn, swap)
    part = _restructure_monotone(psi, conn, swap)
    if swap:
        return Apply(conn, (high, low, part))
    return Apply(conn, (low, high, part))


def restructure_monotone_g(phi: Formula) -> Formula:
    """Equivalent formula over the input connectives plus {g, 0, 1} with
    depth logarithmic in the leaf count.  Every connective of the input
    must be monotone; negation never appears in the output."""
    _check_monotone(phi)
    return _restructure_monotone(phi, G, swap=False)


def restructure_monotone_h(phi: Formula) -> Formula:
    """Dual of :func:`restructure_monotone_g`, built around h."""
    _check_monotone(phi)
    return _restructure_monotone(phi, H, swap=True)


def restructure_full(phi: Formula) -> Formula:
    """Equivalent {and, or, not, 0, 1}-formula of logarithmic depth, for
    arbitrary connectives within the arity cap."""
    phi = fold(phi)
    m = leaf_count(phi)
    if m == 0:
        if constant_value(phi) is None:
            raise RestructureError("proposition-free formula did not fold")
        return phi
    if m == 1:
        return _unary_shape(phi, allow_negation=True)
    psi = select_split(phi).node
    low = restructure_full(substitute(phi, psi, constant(0)))
    high = restructure_full(substitute(phi, psi, constant(1)))
    part = restructure_full(psi)
    return Apply(OR, (Apply(AND, (low, Apply(NOT, (part,)))),
                      Apply(AND, (high, part))))


def depth_bound(mode: str, k: int, leaves: int) -> float:
    """The depth law asserted for a restructuring mode at maximum
    connective arity k: a*log2(leaves) + b, with a and b read off the
    k/(k+1) shrink factor of the split rule."""
    k = max(k, 2)
    per_level = {"g": 2.0, "h": 2.0, "full": 3.0}[mode]
    a = per_level / math.log2((k + 1) / k)
    b = per_level + BASE_CASE_DEPTH
    return a * math.log2(max(leaves, 2)) + b
