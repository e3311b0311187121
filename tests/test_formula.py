import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import product
from pathlib import Path

import pytest

import postlattice
from postlattice import boolfun, formula
from postlattice.boolfun import ARITY_CAP, ArityError
from postlattice.formula import (
    AND,
    FALSE_F,
    IMP,
    NOT,
    OR,
    TRUE_F,
    Apply,
    Base,
    Connective,
    EvaluationError,
    Metrics,
    ParseError,
    Prop,
    VariableCapError,
    _projection_mask,
    connectives_of,
    depth,
    equivalent,
    evaluate,
    fold,
    leaf_count,
    metrics,
    parse,
    props_in_order,
    render,
    size,
    substitute,
    truth_table,
    vars_of,
)
from postlattice.restructure import (
    restructure_full,
    restructure_monotone_g,
    select_split,
)

from conftest import FULL_POOL, MONOTONE_POOL, chain, random_formula


def test_parse_infix():
    phi = parse("x & (y | z)")
    assert phi == Apply(AND, (Prop("x"), Apply(OR, (Prop("y"), Prop("z")))))
    # a leading "__" is an ordinary identifier
    assert parse("__t0") == Prop("__t0")
    assert render(parse("__t0 & x")) == "__t0 & x"
    # trailing spaces are skipped like any other
    assert parse("x & y  ") == Apply(AND, (Prop("x"), Prop("y")))


def test_parse_prefix_call():
    g = Connective("g", boolfun.G_FN)
    phi = parse("g(x,y,z)", Base([g]))
    assert phi == Apply(g, (Prop("x"), Prop("y"), Prop("z")))


# malformed input, the position the error names and its message
PARSE_ERRORS = [
    ("x &", 3, "unexpected end of input"),
    ("", 0, "unexpected end of input"),
    ("!", 1, "unexpected end of input"),
    ("and(x, y", 8, "unexpected end of input"),            # unclosed call
    ("!(x & y", 7, "unexpected end of input"),             # unclosed parenthesis
    ("and(x,,y)", 6, "unexpected ','"),                     # stray comma
    ("x , y", 2, "unexpected ','"),
    ("and(x,)", 6, "unexpected ')'"),
    ("(x & y))", 7, "unexpected ')'"),
    ("x <-> -> y", 6, "unexpected '->'"),
    ("1(x)", 1, "unexpected '('"),
    ("(x, y)", 2, "expected ')'"),
    ("and(x y)", 6, "expected ',' or ')'"),
    ("not()", 0, "not expects 1 arguments, got 0"),        # empty call
    ("not(x, y)", 0, "not expects 1 arguments, got 2"),
    ("foo(x, y)", 0, "unknown connective 'foo'"),
    ("x @ y", 1, "unexpected character '@'"),
]


def test_parse_errors():
    for text, position, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, text
        assert str(err.value) == f"{message} (at position {position})"


def test_parse_deep_input_round_trips(shallow_stack):
    imp_chain = " -> ".join(["x"] * 2001)
    assert parse(imp_chain) == chain([IMP], 2001, ["x"])    # right-nested
    for text, n, d in [("(" * 1200 + "x" + ")" * 1200, 1, 0),
                       (imp_chain, 4001, 2000),
                       ("not(" * 2000 + "x" + ")" * 2000, 2001, 2000),
                       ("(" * 50_000 + "!x & (y | z)" + ")" * 50_000, 6, 2)]:
        phi = parse(text)
        assert (size(phi), depth(phi)) == (n, d)
        assert parse(render(phi)) == phi


def test_render_long_chain_under_memory_cap():
    # a child process capped at 1 GiB of address space renders a
    # 100,000-link chain and reparses it to an equal tree: render's memory
    # is linear in its output (keeping every subtree's text costs O(n^2))
    code = textwrap.dedent("""
        import resource
        from postlattice.formula import AND, Apply, Prop, parse, render
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        phi = Prop("x0")
        for i in range(99_999, -1, -1):
            phi = Apply(AND, (Prop(f"x{i % 7}"), phi))
        text = render(phi)
        assert parse(text) == phi
        print(len(text))
    """)
    src = str(Path(postlattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    # "xi & (" ... ")" per link, except the innermost "xi & x0"
    assert int(done.stdout) == 7 * 100_000


def test_parse_precedence():
    assert equivalent(parse("!x & y | z ^ w"), parse("(((!x) & y) | z) ^ w"))
    # -> is right-associative and looser than ^
    assert parse("a -> b -> c") == parse("a -> (b -> c)")
    assert parse("a ^ b -> c") == parse("(a ^ b) -> c")
    assert parse("a <-> b -> c") == parse("a <-> (b -> c)")


def test_evaluate():
    assert evaluate(parse("x & y"), {"x": 1, "y": 1}) == 1
    assert evaluate(parse("x -/> y"), {"x": 1, "y": 0}) == 1
    assert evaluate(parse("x -> y"), {"x": 1, "y": 0}) == 0
    with pytest.raises(EvaluationError):
        evaluate(parse("x & y"), {"x": 1})


def test_evaluate_rejects_values_other_than_0_and_1():
    # read by its low bit, a value would make x | y 0 at x = 2, !x 0 at
    # x = 3 and x 1 at x = 7; bools are 0 and 1
    for text, assignment, name, value in (("x | y", {"x": 2, "y": 0}, "x", 2),
                                          ("!x", {"x": 3}, "x", 3),
                                          ("x", {"x": 7}, "x", 7),
                                          ("x & y", {"x": 1, "y": -1}, "y", -1)):
        with pytest.raises(EvaluationError, match=f"'{name}' has the value {value}"):
            evaluate(parse(text), assignment)
    assert evaluate(parse("x | y"), {"x": False, "y": True}) == 1
    assert evaluate(parse("!x"), {"x": True}) == 0


def test_facts_are_kept_on_the_node(monkeypatch):
    # connectives_of and props_in_order walk a node once; later calls on
    # the same object read what the first walk kept, as fresh lists
    phi = parse("(y & !x) | (x & 1)")
    walks = []
    real = formula._postorder
    monkeypatch.setattr(formula, "_postorder", lambda *a, **k: walks.append(1) or real(*a, **k))
    assert connectives_of(phi) == [NOT, AND, TRUE_F.conn, OR]
    assert props_in_order(phi) == ["y", "x"]
    props_in_order(phi).append("z")
    assert props_in_order(phi) == ["y", "x"] and connectives_of(phi)[0] == NOT
    assert len(walks) == 1
    # a leaf takes no walk; fold returns a formula without a nullary
    # connective itself, after the walk that finds none
    assert connectives_of(Prop("x")) == [] and connectives_of(TRUE_F) == [TRUE_F.conn]
    psi = parse("x & !y")
    assert fold(psi) is psi and fold(psi) is psi
    assert len(walks) == 2


def test_nimp_agrees_with_and_not():
    for x in (0, 1):
        for y in (0, 1):
            want = evaluate(parse("x & !y"), {"x": x, "y": y})
            assert evaluate(parse("x -/> y"), {"x": x, "y": y}) == want


def test_truth_table():
    assert truth_table(parse("x & y"), ["x", "y"]).bitstring == "0001"
    assert truth_table(parse("x"), ["x", "y"]).bitstring == "0011"
    # without an order, the variables are taken in sorted order
    assert truth_table(parse("y & x")).bitstring == "0001"
    assert truth_table(parse("y -> x")).bitstring == "1011"
    phi = parse("(x&y)|(x&z)|(y&z)")
    assert truth_table(phi, ["x", "y", "z"]).bitstring == "00010111"
    with pytest.raises(EvaluationError):
        truth_table(parse("x & y"), ["x"])
    with pytest.raises(VariableCapError):
        truth_table(parse("x & y"), ["x", "y", "x"])
    with pytest.raises(ArityError):
        truth_table(parse("x"), [f"v{i}" for i in range(ARITY_CAP)] + ["x"])


def test_substitute():
    phi = parse("x & (y | z)")
    assert render(substitute(phi, parse("y | z"), FALSE_F)) == "x & 0"
    assert substitute(Prop("x"), Prop("x"), Prop("y")) == Prop("y")
    both = parse("(y | z) & (y | z)")
    out = substitute(both, parse("y | z"), Prop("w"))
    assert render(out) == "w & w"
    assert leaf_count(both) == 4 and leaf_count(out) == 2


def test_substitution_identity():
    rng = random.Random(7)
    names = ["x", "y", "z"]
    for _ in range(50):
        phi = random_formula(rng, FULL_POOL, names, rng.randint(1, 25))
        alpha = random_formula(rng, FULL_POOL, names, rng.randint(1, 6))
        assert substitute(phi, alpha, alpha) == phi


def test_equivalent():
    assert equivalent(parse("x & y"), parse("!(!x | !y)"))
    assert equivalent(parse("x"), parse("x | (t & !t)"))
    assert not equivalent(parse("x -> y"), parse("y -> x"))
    wide = " & ".join(f"v{i}" for i in range(21))
    with pytest.raises(VariableCapError):
        equivalent(parse(wide), parse(wide))


def test_equivalence_relation_on_random_samples():
    rng = random.Random(11)
    names = ["x", "y", "z", "w"]
    sample = [random_formula(rng, FULL_POOL, names, rng.randint(1, 20))
              for _ in range(12)]
    for phi in sample:
        assert equivalent(phi, phi)
    for phi in sample:
        for psi in sample:
            assert equivalent(phi, psi) == equivalent(psi, phi)
    for phi in sample:
        for psi in sample:
            for chi in sample:
                if equivalent(phi, psi) and equivalent(psi, chi):
                    assert equivalent(phi, chi)


def test_metrics():
    assert metrics(Prop("x")) == Metrics(1, 0, 1, frozenset({"x"}))
    m = metrics(parse("x & (y | z)"))
    assert (m.size, m.depth, m.leaf_count) == (5, 2, 3)
    assert m.vars == frozenset({"x", "y", "z"})
    chain = parse("x1 & (x2 & (x3 & x4))")
    assert depth(chain) == 3 and leaf_count(chain) == 4
    assert size(FALSE_F) == 1 and depth(FALSE_F) == 1 and leaf_count(FALSE_F) == 0


def test_round_trip_random():
    rng = random.Random(3)
    names = ["x", "y", "z", "a_1", "b'"]
    for _ in range(300):
        phi = random_formula(rng, FULL_POOL, names, rng.randint(1, 40))
        again = parse(render(phi), Base([c for c in connectives_of(phi)]))
        assert again == phi, render(phi)


def test_truth_table_invariant_under_renaming():
    rng = random.Random(5)
    names = ["x", "y", "z"]
    renamed = {"x": "u", "y": "v", "z": "w"}
    for _ in range(60):
        phi = random_formula(rng, FULL_POOL, names, rng.randint(1, 25))
        psi = _ref_instantiate(phi, {k: Prop(v) for k, v in renamed.items()})
        order = ["x", "y", "z"]
        assert truth_table(phi, order) == truth_table(
            psi, [renamed[n] for n in order])


def test_props_in_order_and_fold():
    phi = parse("(b | a) & (a | c)")
    assert props_in_order(phi) == ["b", "a", "c"]
    assert fold(parse("x & (1 & 1)")) == Prop("x")
    assert fold(parse("(1 & 1) | (0 & x)")) != parse("(1 & 1) | (0 & x)")
    assert fold(parse("1 & 1")) == TRUE_F


def test_rewrite_maps_each_distinct_node_once():
    # d_{i+1} = d_i & d_i: 2^40 leaf occurrences but only 41 distinct nodes
    nodes = [Prop("x")]
    for _ in range(40):
        nodes.append(Apply(AND, (nodes[-1], nodes[-1])))
    seen = []

    def count_leaves(node, args):
        seen.append(node)
        return sum(args) if args else 1

    assert formula._rewrite(nodes[-1], count_leaves) == 2 ** 40
    assert list(map(id, seen)) == list(map(id, nodes))


def test_base_file_round_trip():
    text = "# comment\nand/2:0001\nmaj3/3:00010111\n"
    base = Base.from_text(text)
    assert [c.name for c in base] == ["and", "maj3"]
    again = Base.from_text(base.to_text())
    assert again == base
    # one function under one name twice is kept once; two functions clash
    assert Base.from_text(text + "and/2:0001\n") == base
    with pytest.raises(formula.BaseError):
        Base.from_text(text + "and/2:0111\n")


def test_base_extended_renames():
    # an incoming name that holds a different function gets primes until
    # it is free or holds the same function, which is then reused
    xor_as_and = Connective("and", boolfun.XOR_FN)
    base = Base([xor_as_and])
    assert base.extended(AND) == Base([xor_as_and, Connective("and'", AND.fn)])
    primed = Connective("and'", boolfun.OR_FN)
    assert (Base([xor_as_and, primed]).extended(AND)
            == Base([xor_as_and, primed, Connective("and''", AND.fn)]))
    reused = Base([xor_as_and, Connective("and'", AND.fn)])
    assert reused.extended(AND) == reused
    assert Base([AND, OR]).extended(AND, OR) == Base([AND, OR])


def test_arity_mismatch_apply():
    with pytest.raises(ArityError):
        Apply(NOT, (Prop("x"), Prop("y")))


DEEP = 10_000


def test_walkers_on_deep_chain(shallow_stack):
    names = ["a", "b", "c", "d", "e"]
    phi = chain([AND], DEEP, names)         # a & (b & (c & ...))
    assert size(phi) == 2 * DEEP - 1
    assert depth(phi) == DEEP - 1
    assert leaf_count(phi) == DEEP
    assert metrics(phi) == Metrics(2 * DEEP - 1, DEEP - 1, DEEP, frozenset(names))
    assert vars_of(phi) == frozenset(names)
    assert props_in_order(phi) == names
    assert connectives_of(phi) == [AND]
    leaves = [names[i % 5] for i in range(DEEP)]
    assert render(phi) == " & (".join(leaves[:-1]) + " & e" + ")" * (DEEP - 2)
    closed = parse("a & b & c & d & e")
    assert truth_table(phi, names) == truth_table(closed, names)
    assert equivalent(phi, closed)
    assert equivalent(phi, chain([AND], DEEP, names))
    assert not equivalent(phi, chain([AND], DEEP, names[:4]))
    assert evaluate(phi, dict.fromkeys(names, 1)) == 1
    assert evaluate(phi, {**dict.fromkeys(names, 1), "e": 0}) == 0
    for bit in (0, 1):
        constants = phi
        for n in names:
            constants = substitute(constants, Prop(n), TRUE_F if bit else FALSE_F)
        assert leaf_count(constants) == 0
        assert fold(constants) == (TRUE_F if bit else FALSE_F)
    assert fold(phi) is phi      # nothing to fold
    renamed = substitute(phi, Prop("a"), Prop("z"))
    assert props_in_order(renamed) == ["z", "b", "c", "d", "e"]
    assert size(renamed) == 2 * DEEP - 1
    half = phi
    for _ in range(DEEP // 2):
        half = half.args[1]
    cut = substitute(phi, half, Prop("w"))
    assert leaf_count(cut) == DEEP // 2 + 1 and depth(cut) == DEEP // 2


def test_counts_take_no_walk(shallow_stack, monkeypatch):
    # every node carries its counts from construction, so reading them
    # or choosing a split never walks the formula
    names = ["a", "b", "c", "d", "e"]
    phi = chain([AND], DEEP, names)
    shared = restructure_monotone_g(chain([AND, OR], 256, names))
    want = [(size(shared), depth(shared), leaf_count(shared), shared.max_arity,
             select_split(shared))]

    def no_walk(phi):
        raise AssertionError("walked")

    monkeypatch.setattr(formula, "_postorder", no_walk)
    assert (size(phi), depth(phi), leaf_count(phi), phi.max_arity) == \
        (2 * DEEP - 1, DEEP - 1, DEEP, 2)
    choice = select_split(phi)
    assert DEEP / 3 < choice.chosen_leaves <= 2 * DEEP / 3
    assert want == [(size(shared), depth(shared), leaf_count(shared),
                     shared.max_arity, select_split(shared))]


def test_apply_equality_and_hash_on_deep_chains(shallow_stack):
    names = ["a", "b", "c", "d"]
    phi, twin = chain([AND, OR], 3000, names), chain([AND, OR], 3000, names)
    assert phi is not twin
    assert phi == twin and not phi != twin
    assert hash(phi) == hash(twin)
    assert {phi: "found"}[twin] == "found"
    assert len({phi, twin}) == 1
    other = chain([AND, OR], 3000, names[:3])      # differs at the deepest leaf
    assert phi != other and not phi == other
    assert phi != chain([OR, AND], 3000, names)    # differs at the root
    assert phi != Prop("a") and Prop("a") != phi


def test_repr_and_str_of_deep_chain(shallow_stack):
    # both print through the iterative render, not one frame per node
    phi = chain([IMP], 5000, ["a", "b"])
    assert repr(phi) == str(phi) == f"Apply({render(phi)!r})"
    assert repr(parse("a -> b & !c")) == "Apply('a -> b & !c')"


def test_walkers_on_shared_dag():
    # d_{i+1} = d_i & d_i: 2^64 leaf occurrences but only 65 distinct nodes
    d = Prop("x")
    for _ in range(64):
        d = Apply(AND, (d, d))
    checks = [(size, 2 ** 65 - 1), (depth, 64), (leaf_count, 2 ** 64),
              (lambda phi: equivalent(phi, Prop("x")), True)]
    for walk, want in checks:
        start = time.perf_counter()
        assert walk(d) == want
        assert time.perf_counter() - start < 0.25


# recursive reference walkers, the definitions the iterative ones must meet

def _ref_size(phi):
    return 1 if isinstance(phi, Prop) else 1 + sum(_ref_size(a) for a in phi.args)


def _ref_depth(phi):
    if isinstance(phi, Prop):
        return 0
    return 1 + max((_ref_depth(a) for a in phi.args), default=0)


def _ref_leaves(phi):
    return 1 if isinstance(phi, Prop) else sum(_ref_leaves(a) for a in phi.args)


def _ref_arity(phi):
    if isinstance(phi, Prop):
        return 0
    return max([len(phi.args)] + [_ref_arity(a) for a in phi.args])


def _ref_fold(phi):
    """Each node over its folded arguments: the constant or the argument
    the connective becomes with its constant arguments fixed, read off
    its value at every completion of the others."""
    if isinstance(phi, Prop):
        return phi
    args = tuple(_ref_fold(a) for a in phi.args)
    fixed = [a.conn.fn.bits[0] if isinstance(a, Apply) and not a.args else None
             for a in args]
    free = [i for i, v in enumerate(fixed) if v is None]
    if args and len(free) == len(args):
        return Apply(phi.conn, args)
    values = {}
    for bits in product((0, 1), repeat=len(free)):
        row = list(fixed)
        for i, b in zip(free, bits):
            row[i] = b
        values[bits] = phi.conn.fn.value(row)
    outs = set(values.values())
    if len(outs) == 1:
        return TRUE_F if outs.pop() else FALSE_F
    for j, i in enumerate(free):
        if all(v == bits[j] for bits, v in values.items()):
            return args[i]
    return Apply(phi.conn, args)


def _ref_substitute(phi, alpha, beta):
    if phi == alpha:
        return beta
    if isinstance(phi, Prop):
        return phi
    return Apply(phi.conn, tuple(_ref_substitute(a, alpha, beta) for a in phi.args))


_REF_INFIX = {"and": ("&", 50, "left"), "or": ("|", 40, "left"),
              "xor": ("^", 30, "left"), "imp": ("->", 20, "right"),
              "nimp": ("-/>", 20, "right"), "iff": ("<->", 10, "left")}


def _ref_render(phi):
    """(text, precedence level)"""
    if isinstance(phi, Prop):
        return phi.name, 100
    name = phi.conn.name
    if name in ("0", "1") and not phi.args:
        return name, 100
    if name == "not":
        text, level = _ref_render(phi.args[0])
        return "!" + (text if level >= 60 else f"({text})"), 60
    if name in _REF_INFIX:
        sym, level, assoc = _REF_INFIX[name]
        parts = []
        for side, arg in zip(("left", "right"), phi.args):
            text, lvl = _ref_render(arg)
            chained = isinstance(arg, Apply) and arg.conn == phi.conn and side == assoc
            parts.append(text if lvl > level or (lvl == level and chained) else f"({text})")
        return f"{parts[0]} {sym} {parts[1]}", level
    return f"{name}({', '.join(_ref_render(a)[0] for a in phi.args)})", 100


def _ref_instantiate(phi, mapping):
    if isinstance(phi, Prop):
        return mapping.get(phi.name, phi)
    return Apply(phi.conn, tuple(_ref_instantiate(a, mapping) for a in phi.args))


def _ref_eval(phi, assignment):
    if isinstance(phi, Prop):
        return assignment[phi.name]
    return phi.conn.fn.value([_ref_eval(a, assignment) for a in phi.args])


_SAMPLE_NAMES = ["x", "y", "z", "w"]


def _walker_sample():
    """A seeded generator and random formulas with their restructured
    forms, which share subtrees in memory."""
    rng = random.Random(41)
    sample = []
    for pool, restructure in ((FULL_POOL, restructure_full),
                              (MONOTONE_POOL, restructure_monotone_g)):
        for _ in range(40):
            phi = random_formula(rng, pool, _SAMPLE_NAMES, rng.randint(1, 30))
            sample += [phi, restructure(phi)]
    return rng, sample


def _ref_postorder(*roots, known=()):
    seen, out = set(known), []

    def visit(phi):
        if id(phi) not in seen:
            seen.add(id(phi))
            for a in phi.args if isinstance(phi, Apply) else ():
                visit(a)
            out.append(phi)
    for root in roots:
        visit(root)
    return out


def test_postorder_matches_a_recursive_reference():
    # the same ids in the same order: children first, left to right, the
    # first visit wins, and a node in ``known`` is neither listed nor entered
    def agree(*roots, known=()):
        got = formula._postorder(*roots, known=known)
        assert [id(n) for n in got] == [id(n) for n in _ref_postorder(*roots, known=known)]

    _, sample = _walker_sample()
    d = Prop("x")
    for _ in range(64):
        d = Apply(AND, (d, d))
    for phi in sample + [d]:
        agree(phi)
    phi = next(phi for phi in sample if phi.depth > 3)
    inner = phi.args[0]
    agree(phi, inner, phi)
    agree(inner, phi, inner, d.args[0], d)
    agree(*sample)
    agree(phi, d, known={id(phi), id(d.args[0].args[0])})
    agree(inner, phi, known={id(inner)})
    assert formula._postorder(d, known={id(d.args[0])}) == [d]
    one = Apply(AND, (TRUE_F, Prop("x")))
    agree(TRUE_F, FALSE_F, TRUE_F)
    agree(one, Apply(OR, (one, TRUE_F)), FALSE_F)


def test_parse_shares_one_leaf_per_name():
    phi = parse("x & (y | x)")
    assert phi.args[0] is phi.args[1].args[1]
    assert phi.args[0] is not phi.args[1].args[0]
    # within one call only: no table outlives it
    other = parse("x & (y | x)")
    assert other == phi
    assert not {id(n) for n in formula._postorder(phi)} & {
        id(n) for n in formula._postorder(other)}
    # a 256-leaf chain over 16 names holds 16 leaf objects
    text = render(chain([AND, OR], 256, [f"x{j}" for j in range(16)]))
    leaves = [n for n in formula._postorder(parse(text)) if isinstance(n, Prop)]
    assert len(leaves) == 16


def test_walkers_agree_with_recursive_references():
    rng, sample = _walker_sample()
    for phi in sample:
        assert size(phi) == _ref_size(phi)
        assert depth(phi) == _ref_depth(phi)
        assert leaf_count(phi) == _ref_leaves(phi)
        assert phi.max_arity == _ref_arity(phi)
        assert fold(phi) == _ref_fold(phi)
        assert render(phi) == _ref_render(phi)[0]
        alpha = random_formula(rng, FULL_POOL, _SAMPLE_NAMES, rng.randint(1, 4))
        for old in (alpha, Prop("x"), TRUE_F):
            assert substitute(phi, old, Prop("v")) == _ref_substitute(phi, old, Prop("v"))
        order = sorted(vars_of(phi) | {"x"})
        rows = [dict(zip(order, map(int, f"{p:0{len(order)}b}")))
                for p in range(1 << len(order))]
        assert truth_table(phi, order).bits == tuple(_ref_eval(phi, a) for a in rows)


def test_projection_masks_match_rows():
    for n in range(1, 13):
        for j in range(n):
            want = sum(1 << p for p in range(1 << n) if (p >> (n - 1 - j)) & 1)
            assert _projection_mask(j, n) == want
    for n in range(1, ARITY_CAP + 1):
        order = [f"v{j}" for j in range(n)]
        for j in range(n):
            bits = truth_table(Prop(order[j]), order).bits
            assert bits == tuple((p >> (n - 1 - j)) & 1 for p in range(1 << n))
