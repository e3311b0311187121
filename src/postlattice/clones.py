"""Post's lattice: the clone catalog, clone identification, inclusion
tests, bounded-arity closure with witness formulas, representation
search, and the satisfiability dichotomy.

Identification is one lookup: the clone generated by a base is the
catalog row whose base has the same joint signature.  This is exact:
composition keeps every signature component, so B and the clone [B]
share one, and the catalog lists every clone, so [B] is a row.  The
compositional closure is kept alongside as an independent oracle.

``closure`` and ``represent`` share one smallest-witness search in plain
Python, kept per base and arity and grown on demand: it settles one
witness size at a time and composes thousands of argument tuples per
kernel call, one tuple per lane of an int.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import ge
from sys import byteorder
from typing import NamedTuple

from . import boolfun
from .boolfun import (
    INFINITE,
    ArityError,
    BooleanFunction,
    _kernel,
    _pack,
    _projection_mask,
    _variant,
    dual,
    is_affine,
    is_c_reproducing,
    is_conjunction,
    is_disjunction,
    is_essentially_unary,
    is_monotone,
    is_projection_or_constant,
    is_self_dual,
    separating_degree,
    threshold,
)
from .errors import PostLatticeError
from .formula import (
    AND,
    FALSE,
    IFF,
    ID,
    IMP,
    NIMP,
    NOT,
    OR,
    TRUE,
    XOR,
    Apply,
    Base,
    Connective,
    Formula,
    Prop,
)

CLOSURE_ARITY_MAX = 4
#: Argument tuples one closure or representation search may compose
#: before it gives up with CloneError.
CLOSURE_COMPOSITION_BUDGET = 100_000_000
_LANES = 1 << 16            # argument tuples composed per kernel call
MAX_CATALOG_DEGREE = 5
_DEGREES = range(2, MAX_CATALOG_DEGREE + 1)


class CloneError(PostLatticeError):
    pass


class NotInCloneError(PostLatticeError):
    """The function is not generated by the base."""


@dataclass(frozen=True)
class CloneName:
    family: str
    degree: int | None = None

    def __str__(self) -> str:
        if self.degree is None:
            return self.family
        return f"{self.family}^{self.degree}"

    @classmethod
    def parse(cls, text: str) -> "CloneName":
        if "^" in text:
            family, _, deg = text.partition("^")
            try:
                return cls(family, int(deg))
            except ValueError:
                raise CloneError(f"bad clone name {text!r}") from None
        return cls(text)


def _as_clone_name(value) -> CloneName:
    return value if isinstance(value, CloneName) else CloneName.parse(str(value))


# ---------------------------------------------------------------------------
# signatures and requirements


class _Signature(NamedTuple):
    """A function's property flags and separating degrees; a base's
    joint signature is their componentwise minimum (AND of the flags,
    least degrees).  As a catalog requirement: the flags a clone needs
    and its least degrees.  A signature meets a requirement when it is
    componentwise at least that requirement."""

    r0: bool = False
    r1: bool = False
    monotone: bool = False
    self_dual: bool = False
    affine: bool = False
    unary: bool = False
    conj: bool = False
    disj: bool = False
    proj: bool = False
    d0: float = 0
    d1: float = 0


#: The joint signature of the empty base: it meets every requirement.
_TOP = _Signature(*[True] * 9, INFINITE, INFINITE)


@lru_cache(maxsize=4096)
def _signature(f: BooleanFunction) -> _Signature:
    return _Signature(
        is_c_reproducing(f, 0), is_c_reproducing(f, 1), is_monotone(f),
        is_self_dual(f), is_affine(f), is_essentially_unary(f), is_conjunction(f),
        is_disjunction(f), is_projection_or_constant(f),
        separating_degree(f, 0), separating_degree(f, 1))


@lru_cache(maxsize=4096)
def _joint(base: Base) -> _Signature:
    return _Signature(*map(min, zip(_TOP, *(_signature(c.fn) for c in base))))


def _meets(sig: _Signature, requirement: _Signature) -> bool:
    return all(map(ge, sig, requirement))


class CatalogEntry(NamedTuple):
    name: CloneName
    requirement: _Signature
    base: Base

    def predicate(self, f: BooleanFunction) -> bool:
        """True iff ``f`` lies in this clone."""
        return _meets(_signature(f), self.requirement)


# ---------------------------------------------------------------------------
# the catalog

MAJ3 = Connective("maj3", boolfun.MAJ3_FN)
XOR3 = Connective("xor3", boolfun.XOR3_FN)
XNOR3 = Connective("xnor3", boolfun.XNOR3_FN)
G = Connective("g", boolfun.G_FN)
H = Connective("h", boolfun.H_FN)
GN = Connective("gn", boolfun.GN_FN)
HN = Connective("hn", boolfun.HN_FN)
ANDIFF = Connective("andiff", boolfun.ANDIFF_FN)
SD = Connective("sd", boolfun.SD_FN)
SD1 = Connective("sd1", boolfun.SD1_FN)


@lru_cache(maxsize=None)
def _thr(n: int) -> Connective:
    return Connective(f"t{n}{n + 1}", threshold(n))


@lru_cache(maxsize=None)
def _thr_dual(n: int) -> Connective:
    return Connective(f"t{n}{n + 1}d", dual(threshold(n)))


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """Every clone, with its requirement (the :class:`_Signature` flags
    it needs, and its least separating degrees ``d0``/``d1``, INFINITE
    for the S0/S1 families) and base.  Parameterized families are
    instantiated at degrees 2..5; finite separating degrees of functions
    within the arity cap never exceed 5, so identification is exact."""
    rows: list[CatalogEntry] = []

    def row(name, conns, *flags, d0=0, d1=0):
        requirement = _Signature(**dict.fromkeys(flags, True), d0=d0, d1=d1)
        rows.append(CatalogEntry(_as_clone_name(name), requirement, Base(conns)))

    row("BF", [AND, NOT])
    row("R0", [AND, XOR], "r0")
    row("R1", [OR, IFF], "r1")
    row("R2", [OR, ANDIFF], "r0", "r1")
    row("M", [AND, OR, FALSE, TRUE], "monotone")
    row("M0", [AND, OR, FALSE], "monotone", "r0")
    row("M1", [AND, OR, TRUE], "monotone", "r1")
    row("M2", [AND, OR], "monotone", "r0", "r1")
    row("S0", [IMP], d0=INFINITE)
    for n in _DEGREES:
        row(CloneName("S0", n), [IMP, _thr_dual(n)], d0=n)
    row("S1", [NIMP], d1=INFINITE)
    for n in _DEGREES:
        row(CloneName("S1", n), [NIMP, _thr(n)], d1=n)
    for n in _DEGREES:
        row(CloneName("S02", n), [GN, _thr_dual(n)], "r0", "r1", d0=n)
    row("S02", [GN], "r0", "r1", d0=INFINITE)
    for n in _DEGREES:
        row(CloneName("S01", n), [_thr_dual(n), TRUE], "monotone", d0=n)
    row("S01", [G, TRUE], "monotone", d0=INFINITE)
    for n in _DEGREES:
        row(CloneName("S00", n), [G, _thr_dual(n)], "r0", "r1", "monotone", d0=n)
    row("S00", [G], "r0", "r1", "monotone", d0=INFINITE)
    for n in _DEGREES:
        row(CloneName("S12", n), [HN, _thr(n)], "r0", "r1", d1=n)
    row("S12", [HN], "r0", "r1", d1=INFINITE)
    for n in _DEGREES:
        row(CloneName("S11", n), [_thr(n), FALSE], "monotone", d1=n)
    row("S11", [H, FALSE], "monotone", d1=INFINITE)
    for n in _DEGREES:
        row(CloneName("S10", n), [H, _thr(n)], "r0", "r1", "monotone", d1=n)
    row("S10", [H], "r0", "r1", "monotone", d1=INFINITE)
    row("D", [SD], "self_dual")
    row("D1", [SD1], "self_dual", "r0", "r1")
    row("D2", [MAJ3], "self_dual", "monotone")
    row("L", [XOR, TRUE], "affine")
    row("L0", [XOR], "affine", "r0")
    row("L1", [IFF], "affine", "r1")
    row("L2", [XOR3], "affine", "r0", "r1")
    row("L3", [XNOR3], "affine", "self_dual")
    row("E", [AND, FALSE, TRUE], "conj")
    row("E0", [AND, FALSE], "conj", "r0")
    row("E1", [AND, TRUE], "conj", "r1")
    row("E2", [AND], "conj", "r0", "r1")
    row("V", [OR, FALSE, TRUE], "disj")
    row("V0", [OR, FALSE], "disj", "r0")
    row("V1", [OR, TRUE], "disj", "r1")
    row("V2", [OR], "disj", "r0", "r1")
    row("N", [NOT, FALSE, TRUE], "unary")
    row("N2", [NOT], "unary", "self_dual")
    row("I", [ID, FALSE, TRUE], "proj")
    row("I0", [ID, FALSE], "proj", "r0")
    row("I1", [ID, TRUE], "proj", "r1")
    row("I2", [ID], "proj", "r0", "r1")
    return tuple(rows)


@lru_cache(maxsize=1)
def _catalog_by_name() -> dict[CloneName, CatalogEntry]:
    return {entry.name: entry for entry in catalog()}


def catalog_entry(name) -> CatalogEntry:
    name = _as_clone_name(name)
    entry = _catalog_by_name().get(name)
    if entry is None:
        raise CloneError(f"unknown clone {name}")
    return entry


# ---------------------------------------------------------------------------
# identification


def clone_of(base: Base) -> CloneName:
    """The clone [B] generated by the base B: one lookup of the catalog
    row whose base has B's joint signature, which is the signature of [B]."""
    name = _clones_by_signature().get(_joint(base))
    if name is None:
        raise CloneError("no minimal catalog clone found; catalog inconsistent")
    return name


@lru_cache(maxsize=1)
def _clones_by_signature() -> dict[_Signature, CloneName]:
    """Each row's name under its base's joint signature, built on the
    first identification; the first row wins a shared signature."""
    table: dict[_Signature, CloneName] = {}
    for entry in catalog():
        table.setdefault(_joint(entry.base), entry.name)
    return table


@lru_cache(maxsize=None)
def _entry_includes(outer: CloneName, inner: CloneName) -> bool:
    return _meets(_joint(catalog_entry(inner).base), catalog_entry(outer).requirement)


def includes(outer, inner) -> bool:
    """True iff the ``inner`` clone is contained in the ``outer`` clone
    (inner's base meets outer's requirement)."""
    return _entry_includes(_as_clone_name(outer), _as_clone_name(inner))


def member(f: BooleanFunction, base: Base) -> bool:
    """True iff ``f`` is generated by the base: f meets the requirement
    of ``clone_of(base)``."""
    return catalog_entry(clone_of(base)).predicate(f)


def classify_sat(base: Base) -> str:
    """Satisfiability over this connective set: NP-complete exactly when
    x AND NOT y is generated, logspace-solvable otherwise."""
    return "NP-complete" if member(boolfun.NIMP_FN, base) else "Logspace"


# ---------------------------------------------------------------------------
# closure and representations


@dataclass
class ClosureSet:
    """The arity-k fragment of the clone generated by a base.  Witnesses
    map each function to a smallest formula over the base computing it
    (None when the closure ran with ``witnesses=False``)."""

    arity: int
    base: Base
    entries: dict[BooleanFunction, Formula | None]

    def __contains__(self, f: BooleanFunction) -> bool:
        return f in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def functions(self) -> list[BooleanFunction]:
        return sorted(self.entries, key=lambda f: f.bitstring)

    def witness(self, f: BooleanFunction) -> Formula:
        w = self.entries.get(f)
        if w is None:
            raise CloneError(f"no witness recorded for {f.bitstring}")
        return w


#: The function of a packed table a search settles, interned: all 278 of
#: arity at most 3, and a bounded share of those of arity 4.
_function = lru_cache(maxsize=4096)(boolfun._unpack)


class _Search:
    """Smallest-witness-first search over the packed arity-k tables of
    the clone generated by a base: Dijkstra on witness node count, ties
    broken by connective declaration index, then by the tuple of argument
    settle indices.

    It settles one witness size at a time.  Every argument of a candidate
    of size s is smaller, so it is settled before layer s starts, and
    layer s composes, connective by connective in declaration order, every
    tuple of settled tables whose sizes sum to s - 1, in lexicographic
    order of settle indices.  So the first lane that yields an unsettled
    table holds that table's least key, and the layer settles its tables
    in the order they first appear: the order a one-at-a-time search
    settles them in.  The tuples lie in lanes of one int per argument
    position (8 bits a lane up to k = 3, 16 at k = 4), and one call of
    the connective's compiled kernel composes up to ``_LANES`` of them.
    A new table's key is read off its own lane: each argument position's
    lane holds the argument's table, and ``index`` maps every settled
    table to its settle index (in settle order).  The search stops when
    every pending table (the targets, or all) is settled, or when the
    next size passes 1 + (largest arity) x (largest settled size), which
    no tuple of settled tables reaches.  It stops only between layers, so
    every search over (base, k) is a prefix of the one to the end, and
    :meth:`grow` resumes a search where it stopped: one per (base, k)
    is kept, and :func:`_grown` resumes it.  It visits only the filled layers, and pays only
    for the tuples it composes.  :meth:`witness` builds a settled
    table's formula when first asked for and keeps it in ``built``."""

    def __init__(self, base: Base, k: int, targets: tuple[int, ...] = ()):
        full = (1 << (1 << k)) - 1
        self.k, w = k, 1 if k <= 3 else 2         # bytes per lane
        self.conns = tuple(c for c in base if c.arity >= 1)
        self.kernels = tuple((_kernel(c.fn), c.arity) for c in self.conns)
        self.arity = max((c.arity for c in self.conns), default=0)
        leaves: dict[int, Formula] = {_projection_mask(j, k): Prop(f"x{j + 1}") for j in range(k)}
        for c in base:
            if c.arity == 0:
                leaves.setdefault(full if c.fn.bits[0] else 0, Apply(c))
        self.built = dict(enumerate(leaves.values()))   # settle index -> witness
        # per settle index, past the leaves: the key (connective, *arguments)
        self.index = {t: i for i, t in enumerate(leaves)}   # table -> settle index
        self.lane_of = [t.to_bytes(w, byteorder) for t in leaves]
        self.keys: list[tuple[int, ...]] = []
        self.layers = [(1, range(len(leaves)))]     # filled: (size, settle indices)
        # counts[r][t]: the r-tuples of settled tables whose sizes sum to t
        self.counts = [[1]] + [[0] for _ in range(self.arity)]
        self.blocks: dict = {}      # per whole block (r, t): its lanes, while growing
        self.settled = set(leaves)  # index's keys, as a set: fastest for issuperset
        self.spent, self.size = 0, 1
        self.entries: dict[bool, dict] = {}     # closure's answer, per `witnesses`
        self.grow(targets)

    def grow(self, targets: tuple[int, ...] = ()) -> None:
        """Settle further layers until every target is settled, or, with
        none, to the end; a grown search composes what a new one would."""
        full, w = (1 << (1 << self.k)) - 1, 1 if self.k <= 3 else 2
        kernels, settled, size = self.kernels, self.settled, self.size
        ones = full.to_bytes(w, byteorder)
        while (size < 1 + self.arity * self.layers[-1][0] and len(self.index) <= full
               and not (targets and settled.issuperset(targets))):
            for r, counts in enumerate(self.counts):
                counts.append(sum(len(ids) * self.counts[r - 1][size - i]
                                  for i, ids in self.layers) if r else 0)
            if self.spent + sum(self.counts[r][size] for _, r in kernels) \
                    > CLOSURE_COMPOSITION_BUDGET:
                raise CloneError(f"closure search needs more than "
                                 f"{CLOSURE_COMPOSITION_BUDGET:,} compositions")
            start = len(self.index)
            # the tables settled before this size; later ones are left to `settled`
            drop = bytes(self.index) if w == 1 else b""
            for cidx, (kernel, r) in enumerate(kernels):
                count = self.counts[r][size]
                self.spent += count
                for lo in range(0, count, _LANES):
                    n = min(_LANES, count - lo)
                    columns = self._lanes(r, size, lo, lo + n)
                    out = kernel(int.from_bytes(ones * n, byteorder),
                                 *(int.from_bytes(column, byteorder) for column in columns)
                                 ).to_bytes(n * w, byteorder)
                    if w == 1:              # drop the settled tables in C
                        values, fresh = out, out.translate(None, drop)
                    else:                   # most batches hold no new table
                        values = array("H", out)
                        fresh = () if settled.issuperset(values) else values
                    pos = 0
                    for t in dict.fromkeys(fresh):      # in order of first lane
                        if t not in settled:
                            pos = values.index(t, pos)
                            settled.add(t)
                            lane = slice(pos * w, pos * w + w)
                            self.keys.append((cidx, *(self.index[int.from_bytes(
                                column[lane], byteorder)] for column in columns)))
                            self.index[t] = len(self.index)
                            self.lane_of.append(t.to_bytes(w, byteorder))
            self.size = size = size + 1
            if len(self.index) > start:
                self.layers.append((size, range(start, len(self.index))))
        self.blocks.clear()

    def _lanes(self, r: int, t: int, lo: int, hi: int) -> list[bytes]:
        """Lanes lo to hi of block (r, t), one string per argument
        position.  Block (r, t), the r-tuples of settled tables whose sizes
        sum to t in lexicographic order of settle indices, is the
        concatenation over layers i of L_i times block (r - 1, t - i):
        consecutive whole tails are one tail repeated, and a whole block,
        at most ``_LANES`` lanes, is kept for the search."""
        key = (r, t) if lo == 0 and hi == self.counts[r][t] else None
        if key in self.blocks:
            return self.blocks[key]
        columns: list = [[] for _ in range(r)]
        start = 0
        for i, ids in self.layers:
            if i > t or start >= hi:
                break
            m = self.counts[r - 1][t - i]       # tuples per first argument
            a, b = max(lo - start, 0), min(hi - start, len(ids) * m)
            while a < b:            # first argument q, its tail's lanes s to e
                q, s = divmod(a, m)
                e = m if s == 0 and b - a >= m else min(m, s + b - a)
                reps = (b - a) // m if e - s == m else 1
                first = ids.start + q
                columns[0] += [x * (e - s) for x in self.lane_of[first:first + reps]]
                whole = self.blocks.get((r - 1, t - i)) if e - s == m else None
                for column, tail in zip(columns[1:], whole or self._lanes(r - 1, t - i, s, e)
                                        if r > 1 else ()):
                    column.append(tail * reps)
                a += reps * (e - s)
            start += len(ids) * m
        columns = [b"".join(column) for column in columns]
        if key:
            self.blocks[key] = columns
        return columns

    def witness(self, i: int) -> Formula:
        """The witness formula of settle index i, built once, when first
        asked for: its key's connective over the witnesses of its
        arguments, which settled before it."""
        w = self.built.get(i)
        if w is None:
            c, *args = self.keys[i - len(self.index)]     # counted from the last
            w = self.built[i] = Apply(self.conns[c], tuple(map(self.witness, args)))
        return w


def _slot(base: Base, k: int) -> tuple[threading.Lock, list]:
    """A lock, and a list that holds the kept search over (base, k) or
    nothing: kept least recently used first, at most 256 up to k = 3,
    where a search holds at most 256 tables, and 16 at k = 4.  Callers
    read, grow or replace the search only while they hold the lock."""
    return threading.Lock(), []


_slots = (lru_cache(maxsize=256)(_slot), lru_cache(maxsize=16)(_slot))


def _grown(slot: list, base: Base, k: int, targets: tuple[int, ...] = ()) -> _Search:
    """The search in the slot, grown (or started) until every target is
    settled, every table with none; the caller holds the slot's lock.  A
    search that raises as it grows is dropped: the next call starts afresh."""
    try:
        if slot:
            slot[0].grow(targets)
        else:
            slot.append(_Search(base, k, targets))
    except BaseException:
        slot.clear()
        raise
    return slot[0]


def closure(base: Base, k: int = 3, witnesses: bool = True) -> ClosureSet:
    """The arity-k part of the clone generated by the base.

    Every function carries a smallest witness formula over variables
    x1..xk (fewest nodes; ties by connective declaration order, then by
    the order in which the arguments were found), built once by the kept
    search and shared by every later call.  ``witnesses=False`` runs the
    same search and reads no formulas.  A search grown to the end never
    changes again, so it keeps its answer, per ``witnesses``: a later call
    copies that dict.  Raises :class:`CloneError` when the search would
    compose more than ``CLOSURE_COMPOSITION_BUDGET`` argument tuples
    (``closure`` of a functionally complete base at k = 4 does).
    """
    if not 0 <= k <= CLOSURE_ARITY_MAX:
        raise ArityError(f"closure arity {k} outside 0..{CLOSURE_ARITY_MAX}")
    lock, slot = _slots[k > 3](base, k)
    with lock:
        entries = slot[0].entries.get(witnesses) if slot else None
        if entries is None:
            search = _grown(slot, base, k)
            entries = search.entries[witnesses] = {
                _function(t, k): search.witness(i) if witnesses else None
                for t, i in search.index.items()}
    return ClosureSet(k, base, entries.copy())


def represent(f: BooleanFunction, base: Base) -> Formula:
    """A smallest formula over the base, in variables x1..x_arity,
    equivalent to ``f``.  Raises :class:`NotInCloneError` when ``f`` is
    not generated by the base, and :class:`CloneError` when the search
    runs out of its composition budget."""
    return _represent(f, base, [(0, 0)])[0, 0]


def represent_variants(f: BooleanFunction, base: Base) -> dict[tuple[int, int], Formula]:
    """Smallest formulas over the base for the variants
    q xor f(x1 xor p_1, ..., xn xor p_n) of ``f`` that the base
    generates, all from one search, keyed by (q, p) with bit i of p
    negating x_{i+1}.  Variant (0, 0) is ``f`` itself, with the formula
    :func:`represent` finds; raises as :func:`represent` does."""
    return _represent(f, base, [(q, p) for q in (0, 1) for p in range(1 << f.arity)])


def _represent(f: BooleanFunction, base: Base,
               keys: list[tuple[int, int]]) -> dict[tuple[int, int], Formula]:
    """The smallest formulas of the variants ``keys`` of ``f`` that the
    base generates, from the kept search grown until all are settled
    (each formula is the one a search for it alone finds).  ``f`` alone,
    once the kept search has settled it, is one lookup: a settled table
    is generated by the base, so the clone test could not fail."""
    if f.arity > CLOSURE_ARITY_MAX:
        raise ArityError(
            f"representation search capped at arity {CLOSURE_ARITY_MAX}")
    table = _pack(f)
    lock, slot = _slots[f.arity > 3](base, f.arity)
    with lock:
        if keys == [(0, 0)] and slot and (i := slot[0].index.get(table)) is not None:
            return {(0, 0): slot[0].witness(i)}
        clone = clone_of(base)
        predicate = catalog_entry(clone).predicate
        if not predicate(f):
            raise NotInCloneError(
                f"{f.bitstring} is not generated by {base!r} (clone {clone})")
        tables = {key: _pack(g) for key in keys if predicate(g := _variant(f, *key))}
        search = _grown(slot, base, f.arity, tuple(sorted(set(tables.values()))))
        if table not in search.index:
            # the clone predicate reads a constant of arity 0 like the unary
            # one, which needs no nullary connective; the nullary one does
            if f.arity == 0:
                raise NotInCloneError(
                    f"{f.bitstring} is not generated by {base!r} without a variable")
            raise CloneError("representation search failed on a member function")
        return {key: search.witness(search.index[t])
                for key, t in tables.items() if t in search.index}


# ---------------------------------------------------------------------------
# lattice export


def lattice_dot(max_degree: int = 3) -> str:
    """DOT digraph of the covering relations among catalog clones with
    degree parameters at most ``max_degree`` (edges point from the smaller
    clone to the covering larger clone), in catalog order."""
    if not 2 <= max_degree <= 4:
        raise CloneError("max degree must be between 2 and 4")
    names = [e.name for e in catalog()
             if e.name.degree is None or e.name.degree <= max_degree]
    below: dict[CloneName, set[CloneName]] = {}
    for a in names:
        below[a] = {b for b in names if b != a and includes(a, b)}
    lines = ["digraph post_lattice {", "  rankdir=BT;"]
    for a in names:
        lines.append(f'  "{a}";')
    for a in names:           # a covers b: b < a with nothing in between
        for b in names:       # catalog order, not set order
            if b in below[a] and not any(b in below[c] for c in below[a] if c != b):
                lines.append(f'  "{b}" -> "{a}";')
    lines.append("}")
    return "\n".join(lines)
