"""The three workloads: how each builds its ops from a seed, runs one op
against the package's public API, and checks the op's outputs.

Every workload is a closed loop with one client.  Ops come in *cycles*
of fixed composition: the seed picks the inputs inside a cycle, never
its mix, and a run executes whole cycles.  Every op belongs to an op
*class* (one call on one input family); the metrics are taken per class
and combined across classes, so the heavy-tailed ops (S02/S12 blow-ups,
D->D whole-formula fallbacks, full-mode chains) cannot move a run's
numbers by more than their class's share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from postlattice.boolfun import AND_FN, OR_FN, BooleanFunction
from postlattice.clones import catalog_entry, clone_of
from postlattice.formula import Base, render

import check
import inputs


@dataclass
class Op:
    kind: str                 # which API call the op makes
    cls: str                  # op class: the unit the metrics balance over
    args: tuple               # the op's inputs, as the API receives them
    expect: dict = field(default_factory=dict)   # what the check needs
    case: str = ""            # lattice case (a)-(g) on translate


@dataclass
class Outcome:
    formulas: list            # (formula, check.Shape) of every formula emitted
    digest: str               # printable summary of the outputs
    why: str = ""             # why the output is wrong; empty when it is right


def _stratified(i: int, low: int, high: int, stride: int) -> int:
    """The i-th term of a sequence that visits every value of low..high
    once per (high - low + 1) terms; ``stride`` must be coprime to that
    span."""
    return low + (i * stride) % (high - low + 1)


# ---------------------------------------------------------------------------
# translate: parse -> theorem_reduce -> render, the `postlattice reduce` path


class Translate:
    """One cycle is one pass over the 29 criterion-4 pairs; formula sizes
    run through 1..25 per pair every 25 cycles."""

    name = "translate"
    op_budget_s = 20.0
    nominal_cycle_s = 0.45

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.pairs = inputs.translate_pairs()
        self.passes = 0

    def cycle(self) -> list[Op]:
        ops = []
        for i, (case, source, target, extra) in enumerate(self.pairs):
            names = [f"x{j}" for j in range(1, (4 if case == "f" else 6) + 1)]
            budget = _stratified(self.passes + 11 * i, 1, 25, 7)
            phi = inputs.random_formula(self.rng, source.connectives, names, budget)
            ops.append(Op("reduce", f"{case}{i:02d}", (render(phi), source, target),
                          {"phi": phi, "extra": extra}, case))
        self.passes += 1
        return ops

    @staticmethod
    def run(op: Op, api):
        text, source, target = op.args
        out = api["theorem_reduce"](api["parse"](text, source), source, target)
        return out, api["render"](out.formula)

    @staticmethod
    def check(op: Op, result) -> Outcome:
        out, text = result
        target, extra = op.args[2], op.expect["extra"]
        allowed = [c.fn for c in target] + {"and": [AND_FN], "or": [OR_FN], "none": []}[extra]
        shape = check.Shape(out.formula)
        why = ""
        if out.extra != extra:
            why = f"adjoined {out.extra!r}, expected {extra!r}"
        elif not check.connectives_within(shape, allowed):
            why = "output connective outside the target base"
        elif not check.same_function(op.expect["phi"], out.formula):
            why = "output not equivalent to the input"
        return Outcome([(out.formula, shape)], f"{out.extra} {text}", why)


# ---------------------------------------------------------------------------
# depth: parse -> restructure -> size/depth -> render -> equivalent,
# the `postlattice depth-reduce` path


MODES = {"g": "restructure_monotone_g", "h": "restructure_monotone_h",
         "full": "restructure_full"}


class Depth:
    """One cycle: 112 random formulas of 1-60 nodes over 8 variables per
    mode (criterion-3 pools), then one right-nested chain of 2^5..2^8
    leaves over 16 variables per mode and length."""

    name = "depth"
    op_budget_s = 30.0
    nominal_cycle_s = 10.0
    random_per_mode = 112
    chain_leaves = (32, 64, 128, 256)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.drawn = 0
        self.bases = {"full": Base(inputs.FULL_POOL), "g": Base(inputs.MONOTONE_POOL),
                      "h": Base(inputs.MONOTONE_POOL)}

    def _op(self, kind, mode, phi):
        return Op(kind, f"{kind}:{mode}", (render(phi), self.bases[mode], mode), {"phi": phi})

    def cycle(self) -> list[Op]:
        names = [f"x{j}" for j in range(1, 9)]
        ops = []
        for i in range(self.random_per_mode):
            budget = _stratified(self.drawn + i, 1, 60, 37)
            for mode in MODES:
                pool = inputs.FULL_POOL if mode == "full" else inputs.MONOTONE_POOL
                ops.append(self._op("random", mode,
                                    inputs.random_formula(self.rng, pool, names, budget)))
        self.drawn += self.random_per_mode
        for leaves in self.chain_leaves:
            for mode in MODES:
                links = inputs.FULL_LINKS if mode == "full" else inputs.MONOTONE_LINKS
                ops.append(self._op(f"chain{leaves}", mode,
                                    inputs.chain(self.rng, links, leaves)))
        return ops

    @staticmethod
    def run(op: Op, api):
        text, base, mode = op.args
        phi = api["parse"](text, base)
        out = api[MODES[mode]](phi)
        sizes = (api["size"](phi), api["depth"](phi), api["leaf_count"](phi),
                 api["size"](out), api["depth"](out))
        return out, sizes, api["render"](out), api["equivalent"](phi, out)

    @staticmethod
    def check(op: Op, result) -> Outcome:
        out, sizes, text, equivalent = result
        mode, phi = op.args[2], op.expect["phi"]
        given = check.Shape(phi)
        shape = check.Shape(out)
        if mode == "full":
            allowed = [c.fn for c in op.args[1] if c.name in ("and", "or", "not", "0", "1")]
        else:
            extra = "g" if mode == "g" else "h"
            allowed = [c.fn for c in given.conns.values()] + [
                c.fn for c in op.args[1] if c.name in (extra, "0", "1")]
        why = ""
        if sizes != (given.size, given.depth, given.leaves, shape.size, shape.depth):
            why = "size/depth metrics disagree with the benchmark's count"
        elif equivalent is not True or not check.same_function(phi, out):
            why = "output not equivalent to the input"
        elif shape.depth > check.depth_law(mode, given.max_arity, given.leaves):
            why = f"depth {shape.depth} breaks the depth law"
        elif not check.connectives_within(shape, allowed):
            why = "output connective outside the mode's connectives"
        return Outcome([(out, shape)], f"{mode} {text}", why)


# ---------------------------------------------------------------------------
# clone-search: clone_of, closure and represent on random and catalog bases


def _all_functions(arity: int) -> list[BooleanFunction]:
    rows = 1 << arity
    return [BooleanFunction(arity, tuple((t >> p) & 1 for p in range(rows)))
            for t in range(1 << rows)]


class CloneSearch:
    """One cycle: ``clone_of`` and a set-only ``closure(k=3)`` on each of
    30 catalog bases and 30 fresh random bases (1-3 connectives of arity
    1-3); two arity-3 ``represent`` calls per catalog base; a witness
    ``closure(k=3)`` of every catalog base except S1^3; six arity-4
    ``represent`` calls on random catalog bases.

    ``represent`` targets are the functions of random formulas of 2-5
    nodes (2-4 at arity 4), so every regular op finishes well inside its
    budget.  Deeper targets, random-base witness searches and S1^3's
    witness closure run for seconds to minutes at the seed; the probes
    keep that blow-up visible as named failures instead of letting a
    seed decide how many of them land in a run."""

    name = "clone-search"
    op_budget_s = 20.0
    nominal_cycle_s = 2.5
    arity4_per_cycle = 6

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cycles = 0
        self.names = [str(name) for name in inputs.CLONE_SEARCH_CATALOG]
        self.catalog = [catalog_entry(name).base for name in inputs.CLONE_SEARCH_CATALOG]
        self.arity3 = _all_functions(3)

    def _member(self, base: Base, arity: int, budget: int) -> BooleanFunction:
        """A function the base generates: the table of a random formula
        over it, evaluated by the benchmark's own evaluator."""
        names = [f"x{j}" for j in range(1, arity + 1)]
        phi = inputs.random_formula(self.rng, base.connectives, names, budget)
        table = check.table(phi, *check.variable_tables(names))
        return BooleanFunction(arity, tuple((table >> p) & 1 for p in range(1 << arity)))

    def cycle(self) -> list[Op]:
        """Op classes are (call, catalog base); ops on random bases pool
        into one class per call, as do the arity-4 ``represent`` calls."""
        named = list(zip(self.names, self.catalog))
        randoms = [inputs.random_base(self.rng, f"r{self.cycles}_{i}_") for i in range(30)]
        ops = []
        for name, base in named + [("random", b) for b in randoms]:
            ops.append(Op("clone_of", f"clone_of:{name}", (base,)))
            ops.append(Op("closure_sets", f"closure_sets:{name}", (base, 3)))
        for name, base in named:
            for _ in range(2):
                fn = self._member(base, 3, self.rng.randint(2, 5))
                ops.append(Op("represent", f"represent:{name}", (fn, base)))
        for name, base in named:
            if name != "S1^3":
                ops.append(Op("closure_witness", f"closure_witness:{name}", (base, 3)))
        for _ in range(self.arity4_per_cycle):
            base = self.rng.choice(self.catalog)
            fn = self._member(base, 4, self.rng.randint(2, 4))
            ops.append(Op("represent4", "represent4", (fn, base)))
        self.cycles += 1
        return ops

    @staticmethod
    def run(op: Op, api):
        if op.kind == "clone_of":
            return api["clone_of"](*op.args)
        if op.kind == "closure_sets":
            return api["closure"](*op.args, witnesses=False)
        if op.kind == "closure_witness":
            return api["closure"](*op.args, witnesses=True)
        return api["represent"](*op.args)

    def check(self, op: Op, result) -> Outcome:
        base = op.args[-1] if op.kind.startswith("represent") else op.args[0]
        conns = [c.fn for c in base]
        if op.kind == "clone_of":
            predicate = catalog_entry(result).predicate
            why = "" if all(predicate(fn) for fn in conns) else "base escapes its clone"
            return Outcome([], str(result), why)
        if op.kind.startswith("represent"):
            shape = check.Shape(result)
            ok = check.computes(result, op.args[0]) and check.connectives_within(shape, conns)
            return Outcome([(result, shape)], render(result),
                           "" if ok else "witness does not compute its function")
        predicate = catalog_entry(clone_of(base)).predicate
        if set(result.entries) != {f for f in self.arity3 if predicate(f)}:
            return Outcome([], "", "closure set disagrees with the catalog predicate")
        if op.kind == "closure_sets":
            return Outcome([], str(len(result)))
        formulas = []
        for fn, witness in sorted(result.entries.items(), key=lambda e: e[0].bitstring):
            shape = check.Shape(witness)
            if not (check.computes(witness, fn) and check.connectives_within(shape, conns)):
                return Outcome([], "", f"witness for {fn.bitstring} is wrong")
            formulas.append((witness, shape))
        return Outcome(formulas, " ".join(render(w) for w, _ in formulas))


WORKLOADS = {w.name: w for w in (Translate, Depth, CloneSearch)}
