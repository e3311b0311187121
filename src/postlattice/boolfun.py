"""Finite Boolean functions, the packed truth-table format the package
computes with, and the structural predicates used to classify them
(reproducing, monotone, self-dual, affine, essentially unary, conjunction
or disjunction shape, c-separating of a degree).

Table convention: row ``p`` of an ``n``-ary function holds the value at
the argument tuple ``(a1, ..., an)`` where ``p = a1*2**(n-1) + ... + an``.
The first argument is the most significant bit and row 0 is the all-zeros
tuple.  The canonical text form is ``name/arity:bitstring`` with position
``p`` of the bitstring holding row ``p``.

This module owns the packed format, one integer whose bit ``p`` is row
``p``: packing, projection masks, variants, and composition by one
compiled bitwise kernel per function, whose argument tables must lie
inside the row mask.  The kernel works bit by bit, so one int may also
hold many tables side by side in fixed-width lanes, with the mask full in
every lane; the witness search composes them so.  ``formula`` and
``clones`` read tables through it.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_, xor

from .errors import PostLatticeError

ARITY_CAP = 6

#: Degree value meaning "fully c-separating": the whole preimage already
#: shares a coordinate fixed to c (or is empty).
INFINITE = float("inf")


class ArityError(PostLatticeError):
    """Arity outside the supported range, or a mismatched composition."""


class FunctionLiteralError(PostLatticeError):
    """Malformed ``name/arity:bitstring`` literal."""


@dataclass(frozen=True)
class BooleanFunction:
    """An n-ary Boolean function stored as its full truth table."""

    arity: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.bits, tuple):    # a list would compare and hash apart
            raise FunctionLiteralError("the table must be a tuple of 0s and 1s")
        if not 0 <= self.arity <= ARITY_CAP:
            raise ArityError(f"arity {self.arity} outside supported range 0..{ARITY_CAP}")
        if len(self.bits) != 1 << self.arity:
            raise ArityError(
                f"table length {len(self.bits)} does not match arity {self.arity}")
        if any(b not in (0, 1) for b in self.bits):
            raise FunctionLiteralError("table entries must be 0 or 1")
        # every cache keyed by a function hashes it; ints hash alike in every process
        object.__setattr__(self, "_hash", hash((self.arity, self.bits)))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_bitstring(cls, arity: int, text: str) -> "BooleanFunction":
        if not re.fullmatch(r"[01]+", text or ""):
            raise FunctionLiteralError(f"bad bitstring {text!r}")
        return cls(arity, tuple(int(ch) for ch in text))

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def value(self, args) -> int:
        """Evaluate at an argument tuple (first argument = high bit)."""
        if len(args) != self.arity:
            raise ArityError(f"expected {self.arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            idx = (idx << 1) | (a & 1)
        return self.bits[idx]

    def __str__(self) -> str:
        return self.bitstring


_LITERAL_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_']*|0|1)\s*/\s*(\d+)\s*:\s*([01]+)\s*$")


def parse_function_literal(text: str) -> tuple[str, BooleanFunction]:
    """Parse a ``name/arity:bitstring`` literal, e.g. ``and/2:0001``."""
    m = _LITERAL_RE.match(text)
    if not m:
        raise FunctionLiteralError(f"bad function literal {text!r}")
    name, arity, bits = m.group(1), int(m.group(2)), m.group(3)
    if len(bits) != 1 << arity:
        raise FunctionLiteralError(
            f"{text!r}: bitstring length {len(bits)} does not match arity {arity}")
    return name, BooleanFunction.from_bitstring(arity, bits)


def format_function_literal(name: str, fn: BooleanFunction) -> str:
    return f"{name}/{fn.arity}:{fn.bitstring}"


# ---------------------------------------------------------------------------
# the packed format


@lru_cache(maxsize=256)
def _projection_mask(j: int, n: int) -> int:
    """Packed table of the j-th of n variables: bit p is set iff row p
    has that variable true.  Built by doubling one period (a run of
    zeros, then a run of ones) up to all 2^n rows, once per (j, n) among
    the 256 most recently used: the 210 pairs with n up to
    ``formula.EQUIVALENCE_CAP`` (20) all fit, in about 5 MB."""
    run = 1 << (n - 1 - j)
    mask = ((1 << run) - 1) << run
    period = 2 * run
    while period < 1 << n:
        mask |= mask << period
        period *= 2
    return mask


def _pack(f: BooleanFunction) -> int:
    """The packed table of ``f``: bit p is set iff row p is true."""
    return sum(1 << p for p, b in enumerate(f.bits) if b)


def _unpack(table: int, n: int) -> BooleanFunction:
    """The n-ary function whose packed table has bit p set for row p."""
    return BooleanFunction(n, tuple((table >> p) & 1 for p in range(1 << n)))


@lru_cache(maxsize=4096)
def _kernel(fn: BooleanFunction):
    """``fn`` compiled once, the one composition: a straight-line bitwise
    expression over the mask ``m`` and packed tables inside it (argument
    j is ``a{n-1-j}``, its bit of the row index), the Shannon expansion
    on the first argument a of the tables lo (a = 0) and hi (a = 1), each
    the shorter of its expansion and its negation's complemented.  Bits
    never mix, so every lane of a lane-packed int composes alone; ``~a``
    appears only in ``E & ~a`` with E inside the mask.  The table never
    becomes source text."""
    @lru_cache(maxsize=None)
    def shortest(bits: tuple) -> str:
        flipped = f"({expansion(tuple(1 - b for b in bits))} ^ m)"
        return min(expansion(bits), flipped, key=len)

    def expansion(bits: tuple) -> str:
        if len(bits) == 1:
            return "m" if bits[0] else "0"
        half = len(bits) // 2
        lo, hi, a = bits[:half], bits[half:], f"a{half.bit_length() - 1}"
        e0, e1 = shortest(lo), shortest(hi)
        return (e0 if e0 == e1
                else (a if e1 == "m" else f"({a} & {e1})") if e0 == "0"
                else f"({a} | {e0})" if e1 == "m"
                else (f"({a} ^ m)" if e0 == "m" else f"({e0} & ~{a})") if e1 == "0"
                else f"(({a} ^ m) | {e1})" if e0 == "m"
                else f"({a} ^ {e0})" if lo == tuple(1 - b for b in hi)
                else f"(({a} & {e1}) | ({e0} & ~{a}))")

    params = "".join(f", a{j}" for j in reversed(range(fn.arity)))
    return eval(f"lambda m{params}: {shortest(fn.bits)}", {"__builtins__": {}})


def _variant(f: BooleanFunction, q: int, p: int) -> BooleanFunction:
    """q xor f(x1 xor p_1, ..., xn xor p_n); bit i of p negates x_{i+1}."""
    if not q | p:
        return f
    flip = sum(1 << (f.arity - 1 - i) for i in range(f.arity) if p >> i & 1)
    return BooleanFunction(f.arity, tuple(q ^ f.bits[r ^ flip] for r in range(1 << f.arity)))


def _depends(table: int, n: int, masks) -> list[int]:
    """The cofactor test: the inputs j of ``masks``, the first projection
    masks over n, that the packed table depends on, where on the rows
    with x_j = 0 it differs from itself shifted down by x_j's run."""
    return [j for j, m in enumerate(masks) if (table ^ table >> (1 << (n - 1 - j))) & ~m]


def _relevant(f: BooleanFunction) -> tuple[int, list[int]]:
    """The packed table of ``f`` and the projection masks of the inputs it
    depends on (:func:`_depends`)."""
    n, table = f.arity, _pack(f)
    masks = [_projection_mask(j, n) for j in range(n)]
    return table, [masks[j] for j in _depends(table, n, masks)]


# ---------------------------------------------------------------------------
# property predicates


def dual(f: BooleanFunction) -> BooleanFunction:
    """The dual function: negate the output after negating every input."""
    return _variant(f, 1, (1 << f.arity) - 1)


def is_c_reproducing(f: BooleanFunction, c: int) -> bool:
    """True iff f maps the all-c tuple to c."""
    row = 0 if c == 0 else (1 << f.arity) - 1
    return f.bits[row] == c


def is_monotone(f: BooleanFunction) -> bool:
    """True iff flipping any input 0 -> 1 never decreases the output: no
    row with x_j = 0 is true while the row with x_j set is false."""
    n, table = f.arity, _pack(f)
    return not any(table & ~(table >> (1 << (n - 1 - j))) & ~_projection_mask(j, n)
                   for j in range(n))


def is_self_dual(f: BooleanFunction) -> bool:
    return f == dual(f)


def is_affine(f: BooleanFunction) -> bool:
    """True iff f is an XOR of a subset of its inputs plus a constant: the
    constant of the all-zeros row XOR the inputs it depends on."""
    table, masks = _relevant(f)
    return table == reduce(xor, masks, f.bits[0] * ((1 << (1 << f.arity)) - 1))


def is_essentially_unary(f: BooleanFunction) -> bool:
    """True iff the output depends on at most one input position."""
    return len(_relevant(f)[1]) <= 1


def is_conjunction(f: BooleanFunction) -> bool:
    """True iff f is a constant or a conjunction of a subset of its inputs."""
    table, masks = _relevant(f)
    return not masks or table == reduce(and_, masks)


def is_disjunction(f: BooleanFunction) -> bool:
    """True iff f is a constant or a disjunction of a subset of its inputs."""
    table, masks = _relevant(f)
    return not masks or table == reduce(or_, masks)


def is_projection_or_constant(f: BooleanFunction) -> bool:
    table, masks = _relevant(f)
    return not masks or masks == [table]


def separating_degree(f: BooleanFunction, c: int):
    """Largest m such that every subset of f^-1(c) with at most m tuples
    shares an input position fixed to c; INFINITE when the whole preimage
    does (in particular when it is empty).

    Each preimage tuple a induces the coordinate set S_a = {i : a_i = c};
    a tuple set is c-separating iff its S-sets intersect.  The minimum
    number s of tuples with empty intersection is found by breadth-first
    search over intersection states (subsets of the positions), and the
    degree is s - 1.  Returns 0 when a single tuple already has no
    c-coordinate at all.
    """
    full = (1 << f.arity) - 1
    masks = {p if c else p ^ full for p, b in enumerate(f.bits) if b == c}
    if not masks:
        return INFINITE
    seen = {full}
    queue = deque([(full, 0)])
    while queue:
        state, used = queue.popleft()
        for m in masks:
            nxt = state & m
            if nxt == 0:
                return used  # s = used + 1 tuples, degree = s - 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, used + 1))
    return INFINITE


def threshold(n: int) -> BooleanFunction:
    """The (n+1)-ary function that is true when at least n inputs are true."""
    if n < 1 or n + 1 > ARITY_CAP:
        raise ArityError(f"threshold parameter {n} outside supported range")
    arity = n + 1
    return BooleanFunction(
        arity, tuple(1 if bin(p).count("1") >= n else 0 for p in range(1 << arity)))


def apply(f: BooleanFunction, gs) -> BooleanFunction:
    """Pointwise composition f(g1(x), ..., gm(x)); all gs share one arity."""
    gs = list(gs)
    if len(gs) != f.arity:
        raise ArityError(f"{f.arity}-ary function applied to {len(gs)} arguments")
    if not gs:
        return f
    k = gs[0].arity
    if any(g.arity != k for g in gs):
        raise ArityError("composition arguments must share one arity")
    return _unpack(_kernel(f)((1 << (1 << k)) - 1, *map(_pack, gs)), k)


# ---------------------------------------------------------------------------
# frequently used tables

CONST0_FN = BooleanFunction(0, (0,))
CONST1_FN = BooleanFunction(0, (1,))
ID_FN = BooleanFunction(1, (0, 1))
NOT_FN = BooleanFunction(1, (1, 0))
AND_FN = BooleanFunction(2, (0, 0, 0, 1))
OR_FN = BooleanFunction(2, (0, 1, 1, 1))
XOR_FN = BooleanFunction(2, (0, 1, 1, 0))
IMP_FN = BooleanFunction(2, (1, 1, 0, 1))
IFF_FN = BooleanFunction(2, (1, 0, 0, 1))
NIMP_FN = BooleanFunction(2, (0, 0, 1, 0))
CONST0_1_FN = BooleanFunction(1, (0, 0))
CONST1_1_FN = BooleanFunction(1, (1, 1))

MAJ3_FN = BooleanFunction(3, (0, 0, 0, 1, 0, 1, 1, 1))        # (x&y)|(x&z)|(y&z)
XOR3_FN = BooleanFunction(3, (0, 1, 1, 0, 1, 0, 0, 1))        # x^y^z
XNOR3_FN = BooleanFunction(3, (1, 0, 0, 1, 0, 1, 1, 0))       # x^y^z^1
G_FN = BooleanFunction(3, (0, 0, 0, 1, 1, 1, 1, 1))           # x|(y&z)
H_FN = BooleanFunction(3, (0, 0, 0, 0, 0, 1, 1, 1))           # x&(y|z)
GN_FN = BooleanFunction(3, (0, 0, 1, 0, 1, 1, 1, 1))          # x|(y&!z)
HN_FN = BooleanFunction(3, (0, 0, 0, 0, 1, 0, 1, 1))          # x&(y|!z)
ANDIFF_FN = BooleanFunction(3, (0, 0, 0, 0, 1, 0, 0, 1))      # x&(y<->z)
SD_FN = BooleanFunction(3, (1, 0, 0, 0, 1, 1, 1, 0))          # maj3(x,!y,!z)
SD1_FN = BooleanFunction(3, (0, 0, 1, 0, 1, 0, 1, 1))         # maj3(x,y,!z)
