"""Finite Boolean functions as packed truth tables, plus the structural
predicates used to classify them (reproducing, monotone, self-dual,
affine, essentially unary, c-separating of a degree).

Table convention: row ``p`` of an ``n``-ary function holds the value at
the argument tuple ``(a1, ..., an)`` where ``p = a1*2**(n-1) + ... + an``.
The first argument is the most significant bit and row 0 is the all-zeros
tuple.  The canonical text form is ``name/arity:bitstring`` with position
``p`` of the bitstring holding row ``p``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

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
        if not 0 <= self.arity <= ARITY_CAP:
            raise ArityError(f"arity {self.arity} outside supported range 0..{ARITY_CAP}")
        if len(self.bits) != 1 << self.arity:
            raise ArityError(
                f"table length {len(self.bits)} does not match arity {self.arity}")
        if any(b not in (0, 1) for b in self.bits):
            raise FunctionLiteralError("table entries must be 0 or 1")

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
# property predicates


def dual(f: BooleanFunction) -> BooleanFunction:
    """The dual function: negate the output after negating every input."""
    return BooleanFunction(f.arity, tuple(1 - b for b in reversed(f.bits)))


def is_c_reproducing(f: BooleanFunction, c: int) -> bool:
    """True iff f maps the all-c tuple to c."""
    row = 0 if c == 0 else (1 << f.arity) - 1
    return f.bits[row] == c


def is_monotone(f: BooleanFunction) -> bool:
    """True iff flipping any input 0 -> 1 never decreases the output."""
    n = f.arity
    for p in range(1 << n):
        for b in range(n):
            if not p & (1 << b) and f.bits[p] > f.bits[p | (1 << b)]:
                return False
    return True


def is_self_dual(f: BooleanFunction) -> bool:
    return f == dual(f)


def is_affine(f: BooleanFunction) -> bool:
    """True iff f is an XOR of a subset of its inputs plus a constant.

    The candidate is read off the all-zeros row and the unit rows, then
    verified against the whole table.
    """
    n = f.arity
    c = f.bits[0]
    mask = 0
    for i in range(n):
        row = 1 << (n - 1 - i)
        if f.bits[row] != c:
            mask |= row
    for p in range(1 << n):
        if f.bits[p] != c ^ (bin(p & mask).count("1") & 1):
            return False
    return True


def is_essentially_unary(f: BooleanFunction) -> bool:
    """True iff the output depends on at most one input position."""
    n = f.arity
    relevant = 0
    for b in range(n):
        for p in range(1 << n):
            if not p & (1 << b) and f.bits[p] != f.bits[p | (1 << b)]:
                relevant += 1
                break
        if relevant > 1:
            return False
    return True


def is_conjunction(f: BooleanFunction) -> bool:
    """True iff f is a constant or a conjunction of a subset of its inputs."""
    n = f.arity
    if all(b == f.bits[0] for b in f.bits):
        return True
    full = (1 << n) - 1
    mask = 0
    for b in range(n):
        if f.bits[full ^ (1 << b)] == 0:
            mask |= 1 << b
    return all(f.bits[p] == (1 if p & mask == mask else 0) for p in range(1 << n))


def is_disjunction(f: BooleanFunction) -> bool:
    """True iff f is a constant or a disjunction of a subset of its inputs:
    the dual of a conjunction."""
    return is_conjunction(dual(f))


def is_projection_or_constant(f: BooleanFunction) -> bool:
    n = f.arity
    if all(b == f.bits[0] for b in f.bits):
        return True
    for b in range(n):
        if all(f.bits[p] == (p >> b) & 1 for p in range(1 << n)):
            return True
    return False


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
    full = (1 << n) - 1
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


def is_c_separating(f: BooleanFunction, c: int) -> bool:
    return separating_degree(f, c) == INFINITE


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
    bits = []
    for p in range(1 << k):
        idx = 0
        for g in gs:
            idx = (idx << 1) | g.bits[p]
        bits.append(f.bits[idx])
    return BooleanFunction(k, tuple(bits))


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
