import hashlib
import random
from itertools import product

import pytest

from postlattice import boolfun, restructure
from postlattice.clones import G, MAJ3
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
    Prop,
    _postorder,
    connectives_of,
    constant_value,
    depth,
    equivalent,
    evaluate,
    fold,
    leaf_count,
    parse,
    render,
    size,
    truth_table,
    vars_of,
)
from postlattice.restructure import (
    RestructureError,
    SIZE_FACTOR_FULL,
    SIZE_FACTOR_MONOTONE,
    depth_bound,
    restructure_full,
    restructure_monotone_g,
    restructure_monotone_h,
    select_split,
)

from conftest import FULL_POOL, MONOTONE_POOL, chain, random_formula


def test_select_split_chain():
    phi = parse("x1 & (x2 & (x3 & x4))")
    choice = select_split(phi)
    assert render(choice.node) == "x3 & x4"
    assert choice.total_leaves == 4 and choice.chosen_leaves == 2
    assert choice.path == (1, 1)


def test_select_split_smallest():
    choice = select_split(parse("x & y"))
    assert choice.node == Prop("x")
    assert choice.chosen_leaves == 1


def test_select_split_balanced():
    phi = parse("((a&b)&(c&d)) & ((e&f)&(g&h))")
    choice = select_split(phi)
    assert choice.chosen_leaves == 4   # within the (8/3, 16/3] window


def test_select_split_window_random():
    rng = random.Random(13)
    names = [f"x{i}" for i in range(1, 9)]
    for _ in range(200):
        phi = random_formula(rng, MONOTONE_POOL, names, rng.randint(4, 50))
        m = leaf_count(phi)
        if m < 2:
            continue
        k = phi.max_arity
        choice = select_split(phi)
        assert m / (k + 1) < choice.chosen_leaves <= k * m / (k + 1)


def test_select_split_needs_two_leaves():
    with pytest.raises(RestructureError):
        select_split(parse("x"))


def test_monotone_g_base_cases():
    assert restructure_monotone_g(parse("x")) == Prop("x")
    assert restructure_monotone_g(parse("1 & 1")) == Apply(TRUE)
    # one proposition occurrence collapses to the proposition or a constant
    assert restructure_monotone_g(parse("x & 1")) == Prop("x")
    assert restructure_monotone_g(parse("x & 0")) == Apply(FALSE)


def test_monotone_g_chain():
    chain = parse("x1&(x2&(x3&(x4&(x5&(x6&(x7&x8))))))")
    out = restructure_monotone_g(chain)
    assert equivalent(chain, out)
    assert depth(out) <= depth_bound("g", 2, 8)
    assert size(out) <= SIZE_FACTOR_MONOTONE * size(chain) ** 2


def test_monotone_g_single_connective():
    phi = parse("maj3(x, y, z)", Base([MAJ3]))
    out = restructure_monotone_g(phi)
    assert equivalent(phi, out)
    assert isinstance(out, Apply) and out.conn == G
    assert isinstance(out.args[2], Prop)


def test_monotone_rejects_nonmonotone():
    with pytest.raises(RestructureError):
        restructure_monotone_g(parse("!x & y"))
    with pytest.raises(RestructureError):
        restructure_monotone_h(parse("x ^ y"))


def test_monotone_h():
    assert restructure_monotone_h(parse("x")) == Prop("x")
    chain = parse("a|(b|(c|(d|(e|(f|(g|h))))))")
    out = restructure_monotone_h(chain)
    assert equivalent(chain, out)
    assert depth(out) <= depth_bound("h", 2, 8)


def test_g_h_duality():
    # h on a formula and g on its dual produce dual truth tables
    rng = random.Random(19)
    swap = {AND.fn: OR, OR.fn: AND, TRUE.fn: FALSE, FALSE.fn: TRUE,
            MAJ3.fn: MAJ3}

    def dualize(phi):
        if isinstance(phi, Prop):
            return phi
        return Apply(swap[phi.conn.fn], tuple(dualize(a) for a in phi.args))

    names = ["x", "y", "z"]
    pool = [AND, OR, MAJ3, TRUE, FALSE]
    for _ in range(40):
        phi = random_formula(rng, pool, names, rng.randint(2, 25))
        out_h = restructure_monotone_h(phi)
        out_g = restructure_monotone_g(dualize(phi))
        t_h = truth_table(out_h, names)
        t_g = truth_table(out_g, names)
        assert t_h == boolfun.dual(t_g)


def test_monotone_outputs_stay_negation_free():
    rng = random.Random(31)
    names = [f"x{i}" for i in range(1, 7)]
    allowed = {c.fn for c in MONOTONE_POOL} | {G.fn, TRUE.fn, FALSE.fn}
    for _ in range(150):
        phi = random_formula(rng, MONOTONE_POOL, names, rng.randint(1, 40))
        out = restructure_monotone_g(phi)
        for c in connectives_of(out):
            assert c.fn != boolfun.NOT_FN
            assert c.fn in allowed


def test_full_xor():
    phi = parse("x ^ y")
    out = restructure_full(phi)
    assert equivalent(phi, out)
    assert {c.fn for c in connectives_of(out)} <= {
        AND.fn, OR.fn, boolfun.NOT_FN, TRUE.fn, FALSE.fn}


def test_full_identity_cases():
    assert restructure_full(parse("x")) == Prop("x")
    assert restructure_full(parse("1 ^ x")) == Apply(NOT, (Prop("x"),))


def test_full_iff_chain():
    phi = parse("a <-> (b <-> (c <-> (d <-> (e <-> f))))")
    out = restructure_full(phi)
    assert equivalent(phi, out)
    assert depth(out) <= depth_bound("full", 2, 6)
    assert size(out) <= SIZE_FACTOR_FULL * size(phi) ** 3


def test_random_suite_all_modes():
    rng = random.Random(101)
    names = [f"x{i}" for i in range(1, 9)]
    builders = {
        "g": (restructure_monotone_g, MONOTONE_POOL, 2),
        "h": (restructure_monotone_h, MONOTONE_POOL, 2),
        "full": (restructure_full, FULL_POOL, 3),
    }
    for mode, (build, pool, exponent) in builders.items():
        factor = SIZE_FACTOR_MONOTONE if mode in "gh" else SIZE_FACTOR_FULL
        for _ in range(120):
            phi = random_formula(rng, pool, names, rng.randint(1, 50))
            out = build(phi)
            assert equivalent(phi, out)
            k = phi.max_arity
            assert depth(out) <= depth_bound(mode, k, leaf_count(phi))
            assert size(out) <= factor * size(phi) ** exponent


CHAIN_NAMES = [f"x{i}" for i in range(1, 17)]


@pytest.mark.parametrize("mode,build", [("g", restructure_monotone_g),
                                        ("h", restructure_monotone_h)])
def test_monotone_restructure_long_chain(mode, build, shallow_stack):
    phi = chain([AND, OR, OR], 1024, CHAIN_NAMES)
    out = build(phi)
    assert equivalent(phi, out)
    assert depth(out) <= depth_bound(mode, 2, 1024)


def test_full_restructure_long_chain(shallow_stack):
    phi = chain([AND, OR, XOR, IMP, IFF, NIMP, XOR], 256, CHAIN_NAMES)
    out = restructure_full(phi)
    assert equivalent(phi, out)
    assert depth(out) <= depth_bound("full", 2, 256)


# each mode with its random-formula pool and the chain links of the long
# chain tests
RESTRUCTURERS = [
    (restructure_monotone_g, MONOTONE_POOL, [AND, OR, OR]),
    (restructure_monotone_h, MONOTONE_POOL, [AND, OR, OR]),
    (restructure_full, FULL_POOL, [AND, OR, XOR, IMP, IFF, NIMP, XOR]),
]


def _pinned_inputs():
    """Per mode, the builder and its seeded random formulas and chains."""
    rng = random.Random(0x5EED)
    names = [f"x{i}" for i in range(1, 9)]
    for build, pool, links in RESTRUCTURERS:
        inputs = [random_formula(rng, pool, names, rng.randint(1, 60)) for _ in range(300)]
        inputs += [chain(links, leaves, CHAIN_NAMES) for leaves in (32, 64, 128)]
        yield build, inputs


def test_restructure_outputs_pinned():
    # a digest of the rendered outputs of every mode over seeded random
    # formulas and chains; it changes exactly when an output does
    digest = hashlib.sha256()
    for build, inputs in _pinned_inputs():
        for phi in inputs:
            digest.update(f"{render(build(phi))}\n".encode())
    assert digest.hexdigest()[:16] == "626699773586531c"


def test_compared_splits_never_grow_an_output(monkeypatch):
    # comparing each split's branches never makes a pinned output larger
    # or deeper than the builders' binate form at every split, which
    # restructures both branches and psi
    outputs = [(build, phi, build(phi)) for build, inputs in _pinned_inputs() for phi in inputs]
    monkeypatch.setattr(restructure, "_order", lambda phi, low, high: 0)
    smaller = 0
    for build, phi, out in outputs:
        binate = build(phi)
        assert size(out) <= size(binate) and depth(out) <= depth(binate), render(phi)
        smaller += size(out) < size(binate)
    assert smaller >= 200, smaller


def test_full_positively_unate_split():
    # psi = c ^ d, low = b <= high = a | b: low | (high & part), psi once
    phi = parse("(a & (c ^ d)) | b")
    assert render(select_split(phi).node) == "c ^ d"
    out = restructure_full(phi)
    assert render(out) == "b | (b | a) & (d & !c | !d & c)"
    assert equivalent(phi, out)


def test_full_negatively_unate_split():
    # psi = c ^ d, high = b <= low = a | b: high | (low & !part), psi once
    phi = parse("(a -/> (c ^ d)) | b")
    assert render(select_split(phi).node) == "c ^ d"
    out = restructure_full(phi)
    assert render(out) == "b | (b | a) & !(d & !c | !d & c)"
    assert equivalent(phi, out)


@pytest.mark.parametrize("build", [restructure_monotone_g, restructure_monotone_h,
                                   restructure_full], ids=["g", "h", "full"])
def test_irrelevant_split_is_dropped(build, monkeypatch):
    # psi = c & d does not matter: low = a and high = a | a are equal, so
    # the output is the restructured low and psi is never split itself
    splits = []

    def recorded(phi):
        splits.append(phi)
        return select_split(phi)

    monkeypatch.setattr(restructure, "select_split", recorded)
    phi = parse("a | (a & (c & d))")
    assert build(phi) == Prop("a")
    assert splits == [phi]


@pytest.mark.parametrize("n,negations", [(18, 0), (22, 1)])
def test_split_above_the_cap_is_binate(n, negations):
    # x | y & (z1 & ... & zn) is positively unate in every split: no
    # negation at 20 variables; at 24 the top split, above the 20-variable
    # cap, takes the binate form (low & !part) | (high & part)
    phi = parse("x | y & (" + " & ".join(f"z{i}" for i in range(1, n + 1)) + ")")
    out = restructure_full(phi)
    nots = [node for node in _postorder(out) if isinstance(node, Apply) and node.conn == NOT]
    assert len(nots) == negations
    if negations:
        assert out.conn == OR and out.args[0].args[1] is nots[0]
    rng = random.Random(n)
    names = sorted(vars_of(phi))
    for _ in range(200):
        row = {name: rng.randint(0, 1) for name in names}
        assert evaluate(out, row) == evaluate(phi, row)


def _absorbable(node: Apply) -> bool:
    """Whether fixing the constant arguments of ``node`` leaves a constant
    or the projection onto one remaining argument (true when every
    argument is a constant)."""
    fixed = [constant_value(a) for a in node.args]
    free = [i for i, v in enumerate(fixed) if v is None]
    if len(free) == len(fixed):
        return False
    values = {}
    for bits in product((0, 1), repeat=len(free)):
        row = list(fixed)
        for i, b in zip(free, bits):
            row[i] = b
        values[bits] = node.conn.fn.value(row)
    if len(set(values.values())) == 1:
        return True
    return any(all(v == bits[j] for bits, v in values.items()) for j in range(len(free)))


# fold over the monotone pool and over the full pool, with their chains
@pytest.mark.parametrize("build,pool,links", RESTRUCTURERS + [
    (fold, pool, links) for _, pool, links in RESTRUCTURERS[1:]],
    ids=["g", "h", "full", "fold-monotone", "fold-full"])
def test_restructure_absorbs_constants(build, pool, links):
    # no application in an output has only constant arguments, or becomes
    # a constant or one of its arguments once its constants are fixed;
    # the constant rule is formula.fold's, which adds no connective but
    # the constants
    rng = random.Random(0xAB5)
    names = [f"x{i}" for i in range(1, 9)]
    inputs = [random_formula(rng, pool, names, rng.randint(1, 60)) for _ in range(150)]
    inputs += [chain(links, leaves, CHAIN_NAMES) for leaves in (32, 64, 128)]
    for phi in inputs:
        out = build(phi)
        for node in _postorder(out):
            if isinstance(node, Apply) and node.args:
                assert not _absorbable(node), render(node)
        if build is fold:
            assert set(connectives_of(out)) <= set(connectives_of(phi)) | {FALSE, TRUE}


def _distinct_subformulas(phi) -> int:
    """The number of structurally distinct subformulas of ``phi``."""
    number: dict[int, int] = {}
    classes: dict = {}
    for node in _postorder(phi):
        key = node.name if isinstance(node, Prop) else (
            node.conn, tuple(number[id(a)] for a in node.args))
        number[id(node)] = classes.setdefault(key, len(classes))
    return len(classes)


@pytest.mark.parametrize("build,pool,links", RESTRUCTURERS, ids=["g", "h", "full"])
def test_restructure_shares_equal_subformulas(build, pool, links):
    # each distinct subformula is restructured once, so equal subtrees of
    # the output are mostly one node object
    out = build(chain(links, 256, CHAIN_NAMES))
    assert len(_postorder(out)) <= 2 * _distinct_subformulas(out)


@pytest.mark.parametrize("build,pool,links", RESTRUCTURERS, ids=["g", "h", "full"])
def test_each_split_walks_its_formula_once(build, pool, links, monkeypatch):
    # one walk of phi builds both branches of a split, which _order
    # then compares once
    calls = {"_postorder": 0, "_order": 0}
    for name in calls:
        def counted(*args, real=getattr(restructure, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(restructure, name, counted)
    build(chain(links, 64, CHAIN_NAMES))
    assert calls["_postorder"] == calls["_order"] > 0, calls
