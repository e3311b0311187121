"""Shared test helpers: seeded random generators, criterion 4's base
pairs, deep chains, a lowered-recursion-limit fixture, the independent
subset-enumeration oracle for separating degrees and brute-force oracles
for the other table predicates, composition of functions and composition
of packed tables."""

from __future__ import annotations

import random
import sys
from itertools import combinations, product

import pytest

from postlattice import boolfun, clones
from postlattice.boolfun import AND_FN, INFINITE, NOT_FN, BooleanFunction
from postlattice.clones import CloneName, catalog_entry
from postlattice.formula import (
    AND,
    FALSE,
    IFF,
    IMP,
    NIMP,
    NOT,
    OR,
    TRUE,
    XOR,
    Apply,
    Base,
    Connective,
    Prop,
)

FULL_POOL = [AND, OR, NOT, XOR, IMP, IFF, NIMP, clones.MAJ3, clones.XOR3,
             TRUE, FALSE]
MONOTONE_POOL = [AND, OR, clones.MAJ3, clones.G, clones.H, TRUE, FALSE]


def random_function(rng: random.Random, arity: int) -> BooleanFunction:
    return BooleanFunction(arity, tuple(rng.randint(0, 1)
                                        for _ in range(1 << arity)))


def random_base(rng: random.Random, tag: str = "f",
                arities=(1, 2, 2, 2, 3), counts=(1, 1, 2, 2, 3)) -> Base:
    return Base([Connective(f"{tag}{j}", random_function(rng, rng.choice(arities)))
                 for j in range(rng.choice(counts))])


def random_formula(rng: random.Random, conns, names, budget: int):
    """Random formula tree over the given connectives with roughly the
    requested node count."""
    nullary = [c for c in conns if c.arity == 0]
    if budget <= 1 or rng.random() < 0.2:
        if nullary and rng.random() < 0.12:
            return Apply(rng.choice(nullary))
        return Prop(rng.choice(names))
    candidates = [c for c in conns if 1 <= c.arity < budget]
    if not candidates:
        return Prop(rng.choice(names))
    conn = rng.choice(candidates)
    rest = budget - 1
    weights = [rng.random() + 0.1 for _ in range(conn.arity)]
    total = sum(weights)
    args = tuple(random_formula(rng, conns, names, max(1, round(rest * w / total)))
                 for w in weights)
    return Apply(conn, args)


def theorem_pairs() -> dict[str, list[tuple[Base, Base]]]:
    """Per lattice case, the (source, target) base pairs that criterion 4
    reduces between."""
    def base(name) -> Base:
        return catalog_entry(name).base

    nand = Connective("nand", boolfun.apply(NOT_FN, [AND_FN]))
    bf = base("BF")
    return {
        "a": [(base("V2"), base("V2")),
              (base("V2"), base("V1")),
              (base("V"), base("V"))],
        "b": [(base("L0"), base("L0")),
              (base("L1"), base("L1")),
              (base("L2"), base("L")),
              (base("L3"), base("L3"))],
        "c": [(base("E2"), base("E2")),
              (base("E0"), base("E0")),
              (base("E1"), base("E"))],
        "d": [(base("S0"), base("S0")),
              (base("S00"), base("S00")),
              (base("S02"), base("S02")),
              (base("S01"), base("S01")),
              (base(CloneName("S00", 2)), base(CloneName("S00", 2)))],
        "e": [(base("S1"), base("S1")),
              (base("S10"), base("S10")),
              (base("S12"), base("S12")),
              (base("S11"), base("S11"))],
        "f": [(base("D2"), base("D2")),
              (base("D2"), base("M2")),
              (base("D2"), bf),
              (base("D1"), bf),
              (base("D"), base("D"))],
        "g": [(base("M2"), base("M2")),
              (base("M"), base("M")),
              (base("R2"), bf),
              (bf, Base([nand])),
              (base("R0"), base("R0"))],
    }


def chain(links, leaves: int, names):
    """Right-nested chain ``n1 o1 (n2 o2 (... o nL))`` with ``leaves``
    proposition occurrences, cycling through ``links`` and ``names``.
    Built bottom-up, so no recursion."""
    node = Prop(names[(leaves - 1) % len(names)])
    for i in range(leaves - 2, -1, -1):
        node = Apply(links[i % len(links)], (Prop(names[i % len(names)]), node))
    return node


@pytest.fixture
def shallow_stack():
    """Lower the recursion limit to about 100 frames above the current
    stack for one test, so that a formula walk that recurses once per node
    fails on a deep input even at depths far below the input's."""
    frame, frames = sys._getframe(), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 100)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def oracle_separating_degree(f: BooleanFunction, c: int):
    """Independent oracle: enumerate subsets of the preimage's coordinate
    sets by increasing size until one has empty intersection."""
    n = f.arity
    masks = set()
    for p in range(1 << n):
        if f.bits[p] == c:
            m = 0
            for b in range(n):
                if (p >> b) & 1 == c:
                    m |= 1 << b
            masks.add(m)
    if not masks:
        return INFINITE
    masks = sorted(masks)
    meet = (1 << n) - 1
    for m in masks:
        meet &= m
    if meet:
        return INFINITE
    for s in range(1, len(masks) + 1):
        for combo in combinations(masks, s):
            inter = combo[0]
            for m in combo[1:]:
                inter &= m
                if not inter:
                    break
            if not inter:
                return s - 1
    raise AssertionError("empty total intersection but no empty subset")


# Brute-force oracles, each written from its definition over the rows of
# the table.  A row index p doubles as the set of true arguments, so
# p <= q as sets is ``p | q == q``, negating every argument is
# ``p ^ (rows - 1)``, and a subset S of the arguments is a row mask.


def oracle_monotone(f: BooleanFunction) -> bool:
    """p <= q implies f(p) <= f(q)."""
    rows = range(1 << f.arity)
    return all(f.bits[p] <= f.bits[q] for p in rows for q in rows if p | q == q)


def oracle_self_dual(f: BooleanFunction) -> bool:
    """f(not p) = not f(p)."""
    full = (1 << f.arity) - 1
    return all(f.bits[full ^ p] == 1 - f.bits[p] for p in range(full + 1))


def oracle_affine(f: BooleanFunction) -> bool:
    """Some c and S with f(p) = c xor parity(p and S)."""
    rows = range(1 << f.arity)
    return any(all(f.bits[p] == c ^ bin(p & s).count("1") % 2 for p in rows)
               for c in (0, 1) for s in rows)


def oracle_relevant(f: BooleanFunction) -> list[int]:
    """The positions j of the arguments whose flip changes some row."""
    n, rows = f.arity, range(1 << f.arity)
    return [j for j in range(n) if any(f.bits[p] != f.bits[p ^ (1 << n - 1 - j)] for p in rows)]


def oracle_essentially_unary(f: BooleanFunction) -> bool:
    """At most one argument whose flip changes some row."""
    return len(oracle_relevant(f)) <= 1


def oracle_conjunction(f: BooleanFunction) -> bool:
    """Constant, or the AND of the arguments of some S."""
    rows = range(1 << f.arity)
    return len(set(f.bits)) == 1 or any(
        all(f.bits[p] == int(p & s == s) for p in rows) for s in rows)


def oracle_disjunction(f: BooleanFunction) -> bool:
    """Constant, or the OR of the arguments of some S."""
    rows = range(1 << f.arity)
    return len(set(f.bits)) == 1 or any(
        all(f.bits[p] == int(p & s != 0) for p in rows) for s in rows)


def oracle_projection_or_constant(f: BooleanFunction) -> bool:
    """Constant, or equal to one argument on every row."""
    rows = range(1 << f.arity)
    return len(set(f.bits)) == 1 or any(
        all(f.bits[p] == a[j] for p, a in zip(rows, product((0, 1), repeat=f.arity)))
        for j in range(f.arity))


def oracle_apply(f: BooleanFunction, gs) -> BooleanFunction:
    """f(g1(x), ..., gm(x)) composed row by row; the gs share one arity."""
    k = gs[0].arity
    return BooleanFunction(k, tuple(f.value([g.bits[p] for g in gs])
                                    for p in range(1 << k)))


def oracle_compose(fn: BooleanFunction, args: list, mask):
    """The packed table of ``fn`` over packed argument tables inside
    ``mask``: an OR of the true rows' minterms, or the complement of the
    false rows' when those are fewer."""
    m = fn.arity
    flip = 2 * sum(fn.bits) > len(fn.bits)
    acc = 0
    for v, bit in enumerate(fn.bits):
        if bit != flip:
            term = mask
            for j, arg in enumerate(args):
                term = term & (arg if (v >> (m - 1 - j)) & 1 else arg ^ mask)
            acc = acc | term
    return acc ^ mask if flip else acc


# Tables over six slots, as replacement carries them: slot j is bit 5 - j
# of the row index, and a table over the propositions of a mask (lowest
# bit first) has them in its first slots.


def _slot_positions(sub: int, support: int) -> list[int]:
    """The slot of each proposition of ``sub`` among those of ``support``."""
    bits = [b for b in range(support.bit_length()) if support >> b & 1]
    return [j for j, b in enumerate(bits) if sub >> b & 1]


def oracle_lift(table: int, sub: int, support: int) -> int:
    """``table`` over ``sub``'s propositions re-indexed row by row to one
    over ``support``'s: row r reads the row whose slot i is r's slot of
    the i-th proposition of ``sub``, its other slots 0."""
    slots = _slot_positions(sub, support)
    return sum(1 << r for r in range(64)
               if table >> sum((r >> 5 - j & 1) << 5 - i for i, j in enumerate(slots)) & 1)


def oracle_project(table: int, sub: int, support: int) -> int:
    """The inverse of :func:`oracle_lift` on a table over ``support``'s
    propositions that depends on ``sub``'s only: row r reads the row
    whose slot of the i-th proposition of ``sub`` is r's slot i."""
    slots = _slot_positions(sub, support)
    return sum(1 << r for r in range(64)
               if table >> sum((r >> 5 - i & 1) << 5 - j for i, j in enumerate(slots)) & 1)


def all_functions(arity: int):
    rows = 1 << arity
    for t in range(1 << rows):
        yield BooleanFunction(arity, tuple((t >> p) & 1 for p in range(rows)))


def table_of(bits: str, arity: int) -> BooleanFunction:
    return BooleanFunction.from_bitstring(arity, bits)
