"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed it is given.  The shapes
follow the package's acceptance criteria (random formulas over a pool of
connectives, random bases, the criterion-4 catalog pairs), but nothing is
imported from the test suite, so editing the tests cannot move the
workload.
"""

from __future__ import annotations

import random

from postlattice import clones
from postlattice.boolfun import AND_FN, NOT_FN, BooleanFunction, apply
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

#: Criterion-3 connective pools.
FULL_POOL = (AND, OR, NOT, XOR, IMP, IFF, NIMP, clones.MAJ3, clones.XOR3,
             TRUE, FALSE)
MONOTONE_POOL = (AND, OR, clones.MAJ3, clones.G, clones.H, TRUE, FALSE)

#: Binary connectives the depth workload's chains are built from.
MONOTONE_LINKS = (AND, OR)
FULL_LINKS = (AND, OR, XOR, IMP, IFF, NIMP)


def random_function(rng: random.Random, arity: int) -> BooleanFunction:
    return BooleanFunction(arity, tuple(rng.getrandbits(1) for _ in range(1 << arity)))


def random_base(rng: random.Random, tag: str) -> Base:
    """1-3 random connectives of arity 1-3 (criterion 2's shape)."""
    count = rng.choice((1, 1, 2, 2, 3))
    return Base([Connective(f"{tag}{j}", random_function(rng, rng.choice((1, 2, 2, 2, 3))))
                 for j in range(count)])


def random_formula(rng: random.Random, conns, names, budget: int):
    """A random tree over ``conns`` with about ``budget`` nodes: a leaf
    (sometimes a constant) when the budget is spent or by chance,
    otherwise a connective whose arguments split the rest of the budget
    by random weights."""
    nullary = [c for c in conns if c.arity == 0]
    if budget <= 1 or rng.random() < 0.2:
        if nullary and rng.random() < 0.12:
            return Apply(rng.choice(nullary))
        return Prop(rng.choice(names))
    fitting = [c for c in conns if 1 <= c.arity < budget]
    if not fitting:
        return Prop(rng.choice(names))
    conn = rng.choice(fitting)
    weights = [rng.random() + 0.1 for _ in range(conn.arity)]
    total = sum(weights)
    rest = budget - 1
    return Apply(conn, tuple(random_formula(rng, conns, names, max(1, round(rest * w / total)))
                             for w in weights))


def chain(rng: random.Random, links, leaves: int, nvars: int = 16):
    """Right-nested chain ``v1 o (v2 o (... o vN))`` with ``leaves``
    proposition occurrences and links drawn from ``links``.  The leaves
    walk a seeded permutation of ``nvars`` variables, so every variable
    occurs once ``leaves >= nvars`` and the truth table always has
    2^nvars rows.  Built bottom-up, so no recursion."""
    names = rng.sample([f"x{i}" for i in range(1, nvars + 1)], nvars)
    node = Prop(names[(leaves - 1) % nvars])
    for i in range(leaves - 2, -1, -1):
        node = Apply(rng.choice(links), (Prop(names[i % nvars]), node))
    return node


def _base(name) -> Base:
    return catalog_entry(name).base


def translate_pairs() -> list[tuple[str, Base, Base, str]]:
    """The 29 (case, source, target, adjoined connective) rows of
    acceptance criterion 4, lattice cases (a)-(g).  Case (d) adjoins
    ``and`` and case (e) ``or``; case (f) adjoins ``and`` except above
    D2 with a functionally complete target, where a fresh proposition
    removes the constants and nothing is adjoined."""
    nand = Connective("nand", apply(NOT_FN, [AND_FN]))
    s00_2 = CloneName("S00", 2)
    rows = [
        ("a", "V2", "V2", "none"), ("a", "V2", "V1", "none"), ("a", "V", "V", "none"),
        ("b", "L0", "L0", "none"), ("b", "L1", "L1", "none"), ("b", "L2", "L", "none"),
        ("b", "L3", "L3", "none"),
        ("c", "E2", "E2", "none"), ("c", "E0", "E0", "none"), ("c", "E1", "E", "none"),
        ("d", "S0", "S0", "and"), ("d", "S00", "S00", "and"), ("d", "S02", "S02", "and"),
        ("d", "S01", "S01", "and"), ("d", s00_2, s00_2, "and"),
        ("e", "S1", "S1", "or"), ("e", "S10", "S10", "or"), ("e", "S12", "S12", "or"),
        ("e", "S11", "S11", "or"),
        ("f", "D2", "D2", "and"), ("f", "D2", "M2", "and"), ("f", "D2", "BF", "and"),
        ("f", "D1", "BF", "none"), ("f", "D", "D", "and"),
        ("g", "M2", "M2", "none"), ("g", "M", "M", "none"), ("g", "R2", "BF", "none"),
        ("g", "BF", None, "none"), ("g", "R0", "R0", "none"),
    ]
    return [(case, _base(source), Base([nand]) if target is None else _base(target), extra)
            for case, source, target, extra in rows]


#: Catalog clones whose bases seed the clone-search workload next to the
#: random bases: one per family of Post's lattice, small and rich alike.
CLONE_SEARCH_CATALOG = (
    "BF", "R0", "R1", "R2", "M", "M1", "M2", "S0", "S1", "S02", "S00", "S12",
    "S10", "D", "D1", "D2", "L", "L0", "L2", "L3", "E", "E2", "V", "V2",
    "N", "N2", "I", "I2", CloneName("S0", 2), CloneName("S1", 3),
)
