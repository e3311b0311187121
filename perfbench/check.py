"""The benchmark's own output checks, independent of the package's
evaluator.

Truth tables are Python integers with one bit per row, evaluated
bit-parallel: a connective applied to argument tables is the OR, over the
rows of its own table that are 1, of the AND of each argument or its
complement.  Every walk is iterative and memoised on node identity, so a
tree that shares subtrees costs its distinct nodes, not its tree nodes.
Row convention (matching the package's tables): over variables
v1..vn, row p sets v_j to bit n-j of p, so v1 is the most significant.
"""

from __future__ import annotations

import hashlib
import math


def _post_order(root):
    """Distinct nodes of a formula DAG, children before parents."""
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if expanded:
            order.append(node)
            continue
        if key in seen:
            continue
        seen.add(key)
        stack.append((node, True))
        for arg in getattr(node, "args", ()):
            if id(arg) not in seen:
                stack.append((arg, False))
    return order


class Shape:
    """Tree size, depth, leaf occurrences, variables, connectives and
    distinct node count of one formula, from one memoised pass."""

    __slots__ = ("size", "depth", "leaves", "vars", "conns", "distinct", "max_arity")

    def __init__(self, root):
        size, depth, leaves = {}, {}, {}
        names, conns = set(), {}
        order = _post_order(root)
        for node in order:
            key = id(node)
            args = getattr(node, "args", None)
            if args is None:
                size[key], depth[key], leaves[key] = 1, 0, 1
                names.add(node.name)
                continue
            conns[node.conn.fn] = node.conn
            ids = [id(a) for a in args]
            size[key] = 1 + sum(size[i] for i in ids)
            depth[key] = 1 + max((depth[i] for i in ids), default=0)
            leaves[key] = sum(leaves[i] for i in ids)
        top = id(root)
        self.size, self.depth, self.leaves = size[top], depth[top], leaves[top]
        self.vars = names
        self.conns = conns
        self.distinct = len(order)
        self.max_arity = max((c.arity for c in conns.values()), default=0)


def _apply(bits, arity, args, full):
    out = 0
    for row, bit in enumerate(bits):
        if not bit:
            continue
        term = full
        for j, a in enumerate(args):
            term &= a if (row >> (arity - 1 - j)) & 1 else full ^ a
            if not term:
                break
        out |= term
    return out


def variable_tables(names) -> tuple[dict[str, int], int]:
    """Projection tables of ``names`` (in order) and the all-ones table."""
    n = len(names)
    rows = 1 << n
    full = (1 << rows) - 1
    tables = {}
    for j, name in enumerate(names):
        period = 1 << (n - 1 - j)           # rows with v_j = 1 come in runs
        block = ((1 << period) - 1) << period
        t = 0
        for start in range(0, rows, 2 * period):
            t |= block << start
        tables[name] = t
    return tables, full


def table(root, tables: dict[str, int], full: int) -> int:
    """Bit-parallel truth table of a formula under the given projection
    tables."""
    value = {}
    for node in _post_order(root):
        args = getattr(node, "args", None)
        if args is None:
            value[id(node)] = tables[node.name]
        else:
            fn = node.conn.fn
            value[id(node)] = _apply(fn.bits, fn.arity, [value[id(a)] for a in args], full)
    return value[id(root)]


def same_function(phi, psi) -> bool:
    """Equal truth tables over the union of the two variable sets."""
    names = sorted(Shape(phi).vars | Shape(psi).vars)
    tables, full = variable_tables(names)
    return table(phi, tables, full) == table(psi, tables, full)


def function_table(fn) -> int:
    """A BooleanFunction's table in the same packed form as ``table``."""
    return sum(1 << row for row, bit in enumerate(fn.bits) if bit)


def computes(witness, fn) -> bool:
    """True iff a witness over x1..x_arity computes ``fn``."""
    names = [f"x{i}" for i in range(1, fn.arity + 1)]
    tables, full = variable_tables(names)
    return table(witness, tables, full) == function_table(fn)


def connectives_within(shape: Shape, allowed) -> bool:
    """Every connective of the formula is one of the ``allowed`` functions."""
    allowed = {(f.arity, f.bits) for f in allowed}
    return all((fn.arity, fn.bits) in allowed for fn in shape.conns)


def depth_law(mode: str, max_arity: int, leaves: int) -> float:
    """The restructuring depth law of the package's README: for maximum
    connective arity k and m leaves, 2*log2(m)/log2((k+1)/k) + 3 for the
    monotone modes and 3*log2(m)/log2((k+1)/k) + 4 for the general one."""
    k = max(max_arity, 2)
    a, b = (3.0, 4.0) if mode == "full" else (2.0, 3.0)
    return a * math.log2(max(leaves, 2)) / math.log2((k + 1) / k) + b


class Digest:
    """Running digest of a workload's outputs, so that a change in what
    the program emits is visible even when every output is correct."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, text: str) -> None:
        self._h.update(text.encode())
        self._h.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
