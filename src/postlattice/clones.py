"""Post's lattice: the clone catalog, clone identification, inclusion
tests, bounded-arity closure with witness formulas, representation
search, and the satisfiability dichotomy.

Identification works by predicate signature: every catalog clone has a
defining predicate (a conjunction of truth-table properties), and the
clone generated by a base is the inclusion-minimal catalog clone whose
predicate every base function satisfies.  This is exact because the
catalog is a complete enumeration of clones.  The compositional closure
is kept alongside as an independent oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from . import boolfun
from .boolfun import (
    ARITY_CAP,
    INFINITE,
    ArityError,
    BooleanFunction,
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
    _projection_mask,
    _unpack,
)

CLOSURE_ARITY_MAX = 4
MAX_CATALOG_DEGREE = 5


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


class CatalogEntry(NamedTuple):
    name: CloneName
    predicate: Callable[[BooleanFunction], bool]
    base: Base


# ---------------------------------------------------------------------------
# property signatures and clone predicates


class _Signature(NamedTuple):
    r0: bool
    r1: bool
    monotone: bool
    self_dual: bool
    affine: bool
    unary: bool
    conj: bool
    disj: bool
    proj: bool
    d0: float
    d1: float


@lru_cache(maxsize=None)
def _signature(f: BooleanFunction) -> _Signature:
    return _Signature(
        is_c_reproducing(f, 0),
        is_c_reproducing(f, 1),
        is_monotone(f),
        is_self_dual(f),
        is_affine(f),
        is_essentially_unary(f),
        is_conjunction(f),
        is_disjunction(f),
        is_projection_or_constant(f),
        separating_degree(f, 0),
        separating_degree(f, 1),
    )


def _pred(*checks):
    def predicate(f: BooleanFunction) -> bool:
        sig = _signature(f)
        return all(check(sig) for check in checks)
    return predicate


_R0 = lambda s: s.r0
_R1 = lambda s: s.r1
_M = lambda s: s.monotone
_D = lambda s: s.self_dual
_L = lambda s: s.affine
_N = lambda s: s.unary
_E = lambda s: s.conj
_V = lambda s: s.disj
_I = lambda s: s.proj
_S0 = lambda s: s.d0 == INFINITE
_S1 = lambda s: s.d1 == INFINITE


def _S0n(n):
    return lambda s: s.d0 >= n


def _S1n(n):
    return lambda s: s.d1 >= n


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


def _degrees():
    return range(2, MAX_CATALOG_DEGREE + 1)


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """Every clone, with its defining predicate and base.  Parameterized
    families are instantiated at degrees 2..5; finite separating degrees
    of functions within the arity cap never exceed 5, so identification
    is exact."""
    rows: list[CatalogEntry] = []

    def row(name, pred, conns):
        rows.append(CatalogEntry(_as_clone_name(name), pred, Base(conns)))

    row("BF", _pred(), [AND, NOT])
    row("R0", _pred(_R0), [AND, XOR])
    row("R1", _pred(_R1), [OR, IFF])
    row("R2", _pred(_R0, _R1), [OR, ANDIFF])
    row("M", _pred(_M), [AND, OR, FALSE, TRUE])
    row("M0", _pred(_M, _R0), [AND, OR, FALSE])
    row("M1", _pred(_M, _R1), [AND, OR, TRUE])
    row("M2", _pred(_M, _R0, _R1), [AND, OR])
    row("S0", _pred(_S0), [IMP])
    for n in _degrees():
        row(CloneName("S0", n), _pred(_S0n(n)), [IMP, _thr_dual(n)])
    row("S1", _pred(_S1), [NIMP])
    for n in _degrees():
        row(CloneName("S1", n), _pred(_S1n(n)), [NIMP, _thr(n)])
    for n in _degrees():
        row(CloneName("S02", n), _pred(_S0n(n), _R0, _R1), [GN, _thr_dual(n)])
    row("S02", _pred(_S0, _R0, _R1), [GN])
    for n in _degrees():
        row(CloneName("S01", n), _pred(_S0n(n), _M), [_thr_dual(n), TRUE])
    row("S01", _pred(_S0, _M), [G, TRUE])
    for n in _degrees():
        row(CloneName("S00", n), _pred(_S0n(n), _R0, _R1, _M), [G, _thr_dual(n)])
    row("S00", _pred(_S0, _R0, _R1, _M), [G])
    for n in _degrees():
        row(CloneName("S12", n), _pred(_S1n(n), _R0, _R1), [HN, _thr(n)])
    row("S12", _pred(_S1, _R0, _R1), [HN])
    for n in _degrees():
        row(CloneName("S11", n), _pred(_S1n(n), _M), [_thr(n), FALSE])
    row("S11", _pred(_S1, _M), [H, FALSE])
    for n in _degrees():
        row(CloneName("S10", n), _pred(_S1n(n), _R0, _R1, _M), [H, _thr(n)])
    row("S10", _pred(_S1, _R0, _R1, _M), [H])
    row("D", _pred(_D), [SD])
    row("D1", _pred(_D, _R0, _R1), [SD1])
    row("D2", _pred(_D, _M), [MAJ3])
    row("L", _pred(_L), [XOR, TRUE])
    row("L0", _pred(_L, _R0), [XOR])
    row("L1", _pred(_L, _R1), [IFF])
    row("L2", _pred(_L, _R0, _R1), [XOR3])
    row("L3", _pred(_L, _D), [XNOR3])
    row("E", _pred(_E), [AND, FALSE, TRUE])
    row("E0", _pred(_E, _R0), [AND, FALSE])
    row("E1", _pred(_E, _R1), [AND, TRUE])
    row("E2", _pred(_E, _R0, _R1), [AND])
    row("V", _pred(_V), [OR, FALSE, TRUE])
    row("V0", _pred(_V, _R0), [OR, FALSE])
    row("V1", _pred(_V, _R1), [OR, TRUE])
    row("V2", _pred(_V, _R0, _R1), [OR])
    row("N", _pred(_N), [NOT, FALSE, TRUE])
    row("N2", _pred(_N, _D), [NOT])
    row("I", _pred(_I), [ID, FALSE, TRUE])
    row("I0", _pred(_I, _R0), [ID, FALSE])
    row("I1", _pred(_I, _R1), [ID, TRUE])
    row("I2", _pred(_I, _R0, _R1), [ID])
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


def _check_base_arities(base: Base) -> None:
    for c in base:
        if c.arity > ARITY_CAP:
            raise ArityError(f"{c.name} exceeds the arity cap {ARITY_CAP}")


def clone_of(base: Base) -> CloneName:
    """The smallest clone containing every function of the base."""
    _check_base_arities(base)
    candidates = [e for e in catalog()
                  if all(e.predicate(c.fn) for c in base)]
    for entry in candidates:
        if all(_entry_includes(other, entry) for other in candidates):
            return entry.name
    raise CloneError("no minimal catalog clone found; catalog inconsistent")


@lru_cache(maxsize=None)
def _entry_includes_cached(outer: CloneName, inner: CloneName) -> bool:
    outer_pred = catalog_entry(outer).predicate
    return all(outer_pred(c.fn) for c in catalog_entry(inner).base)


def _entry_includes(outer: CatalogEntry, inner: CatalogEntry) -> bool:
    return _entry_includes_cached(outer.name, inner.name)


def includes(outer, inner) -> bool:
    """True iff the ``inner`` clone is contained in the ``outer`` clone
    (every base function of inner satisfies outer's predicate)."""
    return _entry_includes_cached(_as_clone_name(outer), _as_clone_name(inner))


def member(f: BooleanFunction, base: Base) -> bool:
    """True iff ``f`` is generated by the base: f satisfies the defining
    predicate of ``clone_of(base)``."""
    _check_base_arities(base)
    if f.arity > ARITY_CAP:
        raise ArityError(f"arity {f.arity} exceeds the cap {ARITY_CAP}")
    return catalog_entry(clone_of(base)).predicate(f)


def contains_constant(base: Base, bit: int) -> bool:
    """A base makes the constant available when it has a nullary member
    with that value or generates the unary constant function."""
    if base.nullary_member(bit) is not None:
        return True
    unary = boolfun.CONST1_1_FN if bit else boolfun.CONST0_1_FN
    return member(unary, base)


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
    (absent when the closure was computed set-only)."""

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


def _compose_int(fn: BooleanFunction, arg_tables: list[int], rows: int) -> int:
    out = 0
    m = fn.arity
    for p in range(rows):
        idx = 0
        for t in arg_tables:
            idx = (idx << 1) | ((t >> p) & 1)
        if fn.bits[idx]:
            out |= 1 << p
    return out


def _minterm_plan(fn: BooleanFunction):
    ones = [v for v in range(1 << fn.arity) if fn.bits[v]]
    zeros = [v for v in range(1 << fn.arity) if not fn.bits[v]]
    if len(ones) <= len(zeros):
        return ("or", ones, fn.arity)
    return ("nor", zeros, fn.arity)


def _compose_batch(plan, shaped, full, dtype):
    mode, rows, m = plan
    acc = None
    for v in rows:
        term = None
        for j, arr in enumerate(shaped):
            piece = arr if (v >> (m - 1 - j)) & 1 else np.bitwise_xor(arr, dtype(full))
            term = piece if term is None else term & piece
        acc = term if acc is None else acc | term
    if acc is None:
        acc = np.zeros(1, dtype=dtype)
    if mode == "nor":
        acc = np.bitwise_xor(acc, dtype(full))
    return acc


def _closure_tables(base: Base, k: int) -> set[int]:
    """Fixpoint of composition over arity-k tables, as packed integers.
    Vectorized over candidate argument tuples; each round only composes
    tuples that involve a function discovered in the previous round."""
    rows = 1 << k
    table_count = 1 << rows
    full = table_count - 1
    dtype = np.uint8 if rows <= 8 else np.uint16
    settled: set[int] = {_projection_mask(j, k) for j in range(k)}
    for c in base:
        if c.arity == 0:
            settled.add(full if c.fn.bits[0] else 0)
    conns = [(c, _minterm_plan(c.fn)) for c in base if 1 <= c.arity]
    new = sorted(settled)
    while new and len(settled) < table_count:
        prev = np.array(sorted(settled - set(new)), dtype=dtype)
        new_arr = np.array(new, dtype=dtype)
        all_arr = np.concatenate([prev, new_arr])
        found: set[int] = set()
        for conn, plan in conns:
            m = conn.arity
            for pos in range(m):
                axes = []
                empty = False
                for i in range(m):
                    arr = prev if i < pos else (new_arr if i == pos else all_arr)
                    if arr.size == 0:
                        empty = True
                        break
                    axes.append(arr)
                if empty:
                    continue
                shaped = [a.reshape((1,) * i + (a.size,) + (1,) * (m - 1 - i))
                          for i, a in enumerate(axes)]
                out = _compose_batch(plan, shaped, full, dtype)
                found.update(int(v) for v in np.unique(out))
            if len(settled | found) == table_count:
                break
        adds = found - settled
        settled |= adds
        new = sorted(adds)
    return settled


def _pack(f: BooleanFunction) -> int:
    out = 0
    for p, b in enumerate(f.bits):
        if b:
            out |= 1 << p
    return out


def _witness_search(base: Base, k: int, targets: set[int] | None = None,
                    max_settles: int = 500_000) -> dict[int, tuple[Formula, int]]:
    """Smallest-witness-first closure search (Dijkstra on witness node
    count; ties broken by connective declaration order, then argument
    settle indices).  Stops once all targets are settled, or at the full
    fixpoint when targets is None."""
    rows = 1 << k
    table_count = 1 << rows
    full = table_count - 1
    conns = [c for c in base if c.arity >= 1]
    settled: dict[int, tuple[Formula, int]] = {}
    order: list[int] = []
    heap: list[tuple] = []
    best: dict[int, tuple] = {}
    pending = set(targets) if targets is not None else None

    for j in range(k):
        heapq.heappush(heap, (1, -2, (j,), _projection_mask(j, k), Prop(f"x{j + 1}")))
    nullary = [c for c in base if c.arity == 0]
    for i, c in enumerate(nullary):
        heapq.heappush(heap, (1, -1, (i,), full if c.fn.bits[0] else 0, Apply(c)))

    while heap:
        size_, ci, argidx, table, built = heapq.heappop(heap)
        if table in settled:
            continue
        if built is None:
            conn = conns[ci]
            built = Apply(conn, tuple(settled[order[i]][0] for i in argidx))
        settled[table] = (built, size_)
        order.append(table)
        if pending is not None:
            pending.discard(table)
            if not pending:
                break
        if len(settled) >= table_count:
            break
        if len(settled) > max_settles:
            raise CloneError("closure search exceeded the settle limit")
        count = len(order)
        new_index = count - 1
        for cidx, conn in enumerate(conns):
            m = conn.arity
            for pos in range(m):
                ranges = [range(new_index) if i < pos
                          else (range(new_index, count) if i == pos else range(count))
                          for i in range(m)]
                for tup in product(*ranges):
                    tbl = _compose_int(conn.fn, [order[i] for i in tup], rows)
                    if tbl in settled:
                        continue
                    sz = 1 + sum(settled[order[i]][1] for i in tup)
                    key = (sz, cidx, tup)
                    cur = best.get(tbl)
                    if cur is None or key < cur:
                        best[tbl] = key
                        heapq.heappush(heap, (sz, cidx, tup, tbl, None))
    return settled


def closure(base: Base, k: int = 3, witnesses: bool = True) -> ClosureSet:
    """The arity-k part of the clone generated by the base.

    With ``witnesses=True`` every function carries a smallest witness
    formula over variables x1..xk; ``witnesses=False`` computes the set
    only (much faster on rich bases).
    """
    _check_base_arities(base)
    if not 0 <= k <= CLOSURE_ARITY_MAX:
        raise ArityError(f"closure arity {k} outside 0..{CLOSURE_ARITY_MAX}")
    if witnesses:
        found = _witness_search(base, k)
        entries = {_unpack(t, k): w for t, (w, _) in found.items()}
    else:
        entries = {_unpack(t, k): None for t in _closure_tables(base, k)}
    return ClosureSet(k, base, entries)


def represent(f: BooleanFunction, base: Base) -> Formula:
    """A smallest-found formula over the base, in variables x1..x_arity,
    equivalent to ``f``.  Raises :class:`NotInCloneError` when ``f`` is
    not generated by the base."""
    if f.arity > CLOSURE_ARITY_MAX:
        raise ArityError(
            f"representation search capped at arity {CLOSURE_ARITY_MAX}")
    if not member(f, base):
        raise NotInCloneError(
            f"{f.bitstring} is not generated by {base!r} (clone {clone_of(base)})")
    target = _pack(f)
    found = _witness_search(base, f.arity, targets={target})
    if target not in found:
        raise CloneError("representation search failed on a member function")
    return found[target][0]


# ---------------------------------------------------------------------------
# lattice export


def lattice_dot(max_degree: int = 3) -> str:
    """DOT digraph of the covering relations among catalog clones with
    degree parameters at most ``max_degree`` (edges point from the smaller
    clone to the covering larger clone)."""
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
        for b in below[a]:
            if not any(b in below[c] for c in below[a] if c != b):
                lines.append(f'  "{b}" -> "{a}";')
    lines.append("}")
    return "\n".join(lines)


def dual_base(base: Base) -> Base:
    """The base of dual functions (names suffixed with ``_d``)."""
    return Base([Connective(f"{c.name}_d", dual(c.fn)) for c in base])
