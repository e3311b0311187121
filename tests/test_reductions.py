import hashlib
import random

import pytest

from postlattice import boolfun, formula, reductions, restructure
from postlattice.boolfun import AND_FN, NOT_FN
from postlattice.clones import (
    G,
    GN,
    H,
    HN,
    MAJ3,
    SD,
    SD1,
    XNOR3,
    CloneName,
    _Search,
    catalog,
    catalog_entry,
    clone_of,
    closure,
    includes,
    represent,
)
from postlattice.formula import (
    AND,
    FALSE,
    IFF,
    ID,
    IMP,
    NOT,
    OR,
    TRUE,
    XOR,
    Apply,
    Base,
    Connective,
    connectives_of,
    constant_value,
    equivalent,
    evaluate,
    fold,
    leaf_count,
    parse,
    Prop,
    props_in_order,
    render,
    size,
    vars_of,
)
from postlattice.reductions import (
    ConstantEliminationError,
    PreconditionError,
    ReductionError,
    _candidates,
    _constant_replacement,
    _replace,
    _replace_and_eliminate,
    _variants,
    canonical_equivalent,
    eliminate_constants,
    normalize_E,
    normalize_L,
    normalize_V,
    reduce_D,
    reduce_EVL,
    reduce_S00,
    reduce_S02,
    reduce_S10,
    reduce_S12,
    theorem_case,
    theorem_reduce,
)

from postlattice.restructure import restructure_full, restructure_monotone_g

from conftest import oracle_lift, oracle_project, oracle_relevant, random_formula, theorem_pairs


def _over(result, base):
    return all(base.contains_function(c.fn)
               for c in connectives_of(result.formula))


def test_normalize_E():
    c, idx, out = normalize_E(parse("x & (y & 1)"))
    assert (c, idx, render(out)) == (1, ("x", "y"), "x & y")
    c, idx, out = normalize_E(parse("x & 0"))
    assert (c, render(out)) == (0, "0")
    c, idx, out = normalize_E(parse("1"))
    assert (c, idx, render(out)) == (1, (), "1")
    with pytest.raises(PreconditionError):
        normalize_E(parse("x | y"))


def test_normalize_V():
    c, idx, out = normalize_V(parse("x | y | 0"))
    assert (c, idx, render(out)) == (0, ("x", "y"), "x | y")
    c, idx, out = normalize_V(parse("1 | x"))
    assert (c, render(out)) == (1, "1")
    c, idx, out = normalize_V(parse("0"))
    assert (c, idx, render(out)) == (0, (), "0")


def test_normalize_L():
    c, idx, out = normalize_L(parse("x <-> y"))
    assert (c, idx, render(out)) == (1, ("x", "y"), "1 ^ x ^ y")
    c, idx, out = normalize_L(parse("x ^ x"))
    assert (c, idx, render(out)) == (0, (), "0")
    c, idx, out = normalize_L(parse("!x"))
    assert (c, idx, render(out)) == (1, ("x",), "1 ^ x")
    assert equivalent(parse("x <-> y"), parse("1 ^ x ^ y"))


def test_eliminate_constants_big_or():
    base = Base([G])
    phi = parse("g(x, y, 1)", base)
    out = eliminate_constants(phi, base, "and")
    assert equivalent(phi, out)
    assert _over_base_set(out) <= {G.fn}
    # 1 is gone, replaced through the generated disjunction
    assert 1 not in _constants(out)


def _over_base_set(phi):
    return {c.fn for c in connectives_of(phi) if c.arity >= 1}


def _constants(phi):
    out = set()
    for c in connectives_of(phi):
        if c.arity == 0:
            out.add(c.fn.bits[0])
    return out


def test_eliminate_constants_untouched():
    base = Base([G])
    phi = parse("g(x, y, z)", base)
    out = eliminate_constants(phi, base, "and")
    assert out == phi


def test_eliminate_constants_literal_and():
    base = Base([G])
    phi = parse("g(x, 0, y)", base)
    out = eliminate_constants(phi, base, "and")
    assert equivalent(phi, out)
    assert _over_base_set(out) <= {G.fn, AND_FN}


def test_eliminate_constants_fresh():
    # a functionally complete target has both constants at an existing
    # proposition, so no fresh proposition is needed
    base = Base([AND, NOT])
    phi = parse("(x & 1) & !(y & 0)")
    out = eliminate_constants(phi, base, "none")
    assert equivalent(phi, out)
    assert not _constants(out)
    assert _over_base_set(out) <= {AND_FN, NOT_FN}
    assert vars_of(out) <= vars_of(phi)
    with pytest.raises(ReductionError):
        eliminate_constants(phi, base, "fresh")


def test_eliminate_constants_available_kept():
    base = Base([AND, FALSE])
    phi = parse("x & 0")
    out = eliminate_constants(phi, base, "and")
    assert equivalent(phi, out)


def test_eliminate_constants_impossible():
    base = Base([MAJ3])
    phi = parse("maj3(x, y, 1)", Base([MAJ3]))
    with pytest.raises(ConstantEliminationError):
        eliminate_constants(phi, base, "and")
    # big-and elimination needs the formula to be 1 at all-ones, and
    # x -> 0 is 0 there; a formula without a proposition has nothing to
    # build the 0 from
    for text, message in (("x -> 0", "big-and elimination is unsound here"),
                          ("0", "proposition-free")):
        with pytest.raises(ConstantEliminationError, match=message):
            eliminate_constants(parse(text), Base([IMP]), "and")


def test_reduce_S00():
    base = Base([G])
    phi = parse("g(x, y, y)", base)      # x | y over the base
    out = reduce_S00(phi, base, base)
    assert out.extra == "and"
    assert out.certificate.equivalent is True
    assert _over(out, out.target)

    m2 = Base([AND, OR])
    phi2 = parse("x & (y | z)")
    out2 = reduce_S00(phi2, m2, m2)
    assert out2.certificate.equivalent is True

    with pytest.raises(PreconditionError):
        reduce_S00(parse("!x"), Base([NOT]), Base([NOT]))


def test_reduce_S10():
    base = Base([H])
    phi = parse("h(x, y, y)", base)
    out = reduce_S10(phi, base, base)
    assert out.extra == "or"
    assert out.certificate.equivalent is True
    with pytest.raises(PreconditionError):
        reduce_S10(parse("!x"), Base([NOT]), Base([NOT]))


def test_reduce_S02():
    base = Base([GN])
    phi = parse("gn(x, y, z)", base)
    out = reduce_S02(phi, base, base)
    assert out.extra == "and"
    assert out.certificate.equivalent is True
    assert _over(out, out.target)
    out_id = reduce_S02(parse("gn(x, x, x)", base), base, base)
    assert out_id.certificate.equivalent is True
    with pytest.raises(PreconditionError):
        reduce_S02(parse("x & y"), Base([AND]), Base([AND]))


def test_reduce_S12():
    base = Base([HN])
    phi = parse("hn(x, y, z)", base)
    out = reduce_S12(phi, base, base)
    assert out.extra == "or"
    assert out.certificate.equivalent is True


@pytest.mark.parametrize("reduce,clone,text", [
    (reduce_S00, "M2", "x & (y | z)"),
    (reduce_S10, "M2", "x & (y | z)"),
    (reduce_S02, "BF", "!c & !!!(a & a)"),
    (reduce_S12, "BF", "!c & !!!(a & a)"),
], ids=["S00", "S10", "S02", "S12"])
def test_case_g_pipelines_adjoin_nothing(reduce, clone, text):
    # in case (g) M2 <= [B] <= [B'], so B' has both and and or: called
    # directly, every S pipeline lands in B' itself, as theorem_reduce does
    base = catalog_entry(clone).base
    phi = parse(text, base)
    out = reduce(phi, base, base)
    assert out.extra == "none" and out.target == base
    assert render(out.formula) == render(theorem_reduce(phi, base, base).formula)
    assert out.certificate.equivalent is True


def test_reduce_D_monotone():
    base = Base([MAJ3])
    phi = parse("maj3(x, maj3(y, z, x), z)", base)
    out = reduce_D(phi, base, base, want="and")
    assert out.extra == "and"
    assert out.certificate.equivalent is True
    assert _over(out, out.target)

    out_or = reduce_D(phi, base, base, want="or")
    assert out_or.extra == "or"
    assert out_or.certificate.equivalent is True
    with pytest.raises(ReductionError):
        reduce_D(phi, base, base, want="xor")


def test_reduce_D_fresh_proposition():
    base = Base([SD1])
    target = Base([AND, NOT])
    phi = parse("sd1(x, y, z)", base)
    out = reduce_D(phi, base, target, want="and")
    # above D2 into a functionally complete target nothing is adjoined,
    # and the constants are written at the formula's own propositions
    assert out.extra == "none"
    assert out.certificate.equivalent is True
    assert _over(out, target)
    assert vars_of(out.formula) <= {"x", "y", "z"}


def test_reduce_D_window():
    with pytest.raises(PreconditionError):
        reduce_D(parse("x & y"), Base([AND]), Base([AND]))
    # D-base formulas work against the same self-dual target
    base = Base([SD])
    phi = parse("sd(x, y, z)", base)
    out = reduce_D(phi, base, base, want="and")
    assert out.certificate.equivalent is True


def test_reduce_EVL():
    e1 = Base([AND, TRUE])
    out = reduce_EVL(parse("1 & (x & 1)"), e1, e1)
    assert render(out.formula) == "x"
    assert out.extra == "none"

    xb = Base([XOR])
    out2 = reduce_EVL(parse("x ^ y ^ x"), xb, xb)
    assert render(out2.formula) == "y"

    with pytest.raises(PreconditionError):
        reduce_EVL(parse("x | !y"), Base([OR, NOT]), Base([OR, NOT]))
    # a constant normal form takes the target's constant, nullary when
    # the formula has no proposition, and is refused when there is none
    nb = Base([NOT, FALSE, TRUE])
    assert render(reduce_EVL(parse("!1"), nb, Base([XOR, TRUE])).formula) == "1 ^ 1"
    with pytest.raises(ConstantEliminationError):
        reduce_EVL(parse("0"), Base([OR, FALSE]), Base([AND, NOT]))


def test_reduce_EVL_affine_parities():
    # every (constant, parity) shape of the affine normal form
    l3 = Base([XNOR3])
    rng = random.Random(77)
    names = ["x", "y", "z", "w"]
    for _ in range(40):
        phi = random_formula(rng, [XNOR3], names, rng.randint(1, 30))
        out = reduce_EVL(phi, l3, l3)
        assert out.certificate.equivalent is True
        assert _over(out, out.target)
    iffb = Base([IFF])
    for _ in range(40):
        phi = random_formula(rng, [IFF], names, rng.randint(1, 30))
        out = reduce_EVL(phi, iffb, iffb)
        assert out.certificate.equivalent is True
        assert _over(out, out.target)


def test_theorem_case_totality_catalog():
    from postlattice.clones import catalog
    for entry in catalog():
        assert theorem_case(entry.name) in "abcdefg"


def test_theorem_case_totality_random():
    rng = random.Random(53)
    from conftest import random_base
    for i in range(80):
        base = random_base(rng, f"t{i}")
        assert theorem_case(clone_of(base)) in "abcdefg"


def test_theorem_reduce_imp():
    base = Base([IMP])
    phi = parse("x -> (y -> x)")
    out = theorem_reduce(phi, base, base)
    assert out.extra == "and"
    assert out.certificate.equivalent is True
    assert _over(out, out.target)


def test_theorem_reduce_constant_shape():
    # restructuring folds g(x, 1, 1) to 1; the constant is written at x
    base = Base([G, TRUE])
    out = theorem_reduce(parse("g(x, 1, 1)", base), base, Base([IMP]))
    assert render(out.formula) == "x -> x"
    assert out.extra == "and"
    assert out.certificate.equivalent is True


def test_theorem_reduce_bf_to_nand():
    nand = Connective("nand", boolfun.apply(NOT_FN, [AND_FN]))
    source = Base([AND, OR, NOT])
    target = Base([nand])
    phi = parse("(x & y) | !z")
    out = theorem_reduce(phi, source, target)
    assert out.extra == "none"
    assert out.certificate.equivalent is True
    assert _over_base_set(out.formula) <= {nand.fn}


_NAND = Base([Connective("nand", boolfun.apply(NOT_FN, [AND_FN]))])


def test_bf_to_nand_negations_are_not_duplicated():
    # nand's witnesses of and, or and not repeat a variable; written as
    # itself each node copied its subtrees (up to 9,457 times the input on
    # this corpus), written at the cheaper polarity it stays within 20x
    bf = catalog_entry("BF").base
    names = [f"x{i}" for i in range(1, 7)]
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        for _ in range(25):
            phi = random_formula(rng, list(bf), names, rng.randint(10, 60))
            out = theorem_reduce(phi, bf, _NAND)
            assert out.certificate.equivalent is True
            assert out.certificate.size_out <= 20 * out.certificate.size_in


def test_bf_to_nand_regressions():
    bf = catalog_entry("BF").base
    # the restructured shape's replacement is the smaller only after its
    # constants are eliminated; the route compares eliminated outputs
    assert size(theorem_reduce(parse("!x3 & !x6 & x2"), bf, _NAND).formula) <= 35
    # the negated conjunction is nand itself, not and under not
    assert render(theorem_reduce(parse("!(x & y)"), bf, _NAND).formula) == "nand(x, y)"


def test_replaced_size_is_the_built_size():
    # the size the replacer computes for its choice of polarities is the
    # tree size of the formula it builds, on every criterion-4 pair and
    # every shape its pipeline replaces
    rng = random.Random(0x5123)
    names = ["a", "b", "c", "d", "e", "f"]
    checked = 0
    for case, pairs in theorem_pairs().items():
        for source, target in pairs:
            restructurer = (restructure_monotone_g if includes("M", clone_of(source))
                            else restructure_full)
            for _ in range(6):
                phi = random_formula(rng, list(source), names, rng.randint(2, 40))
                shapes = ([fold(phi)] if case in "abc"
                          else _candidates(phi, target, restructurer))
                for shape in shapes:
                    if constant_value(shape) is None:
                        out, computed = _replace(shape, target)
                        assert computed == size(out)
                        assert equivalent(out, shape)
                        checked += 1
    assert checked > 150


def test_theorem_reduce_identity_case():
    base = Base([ID])
    out = theorem_reduce(parse("x"), base, base)
    assert render(out.formula) == "x"
    assert out.extra == "none"


@pytest.mark.parametrize("text,source,target", [
    ("x & y", [AND], [OR]),                   # (c) via reduce_EVL
    ("g(x, y, z)", [G], [H]),                 # (d) via reduce_S00
    ("h(x, y, z)", [H], [G]),                 # (e) via reduce_S10
    ("maj3(x, y, z)", [MAJ3], [AND]),         # (f) via reduce_D
    ("x & !y", [AND, NOT], [AND, OR, TRUE]),  # (g) via reduce_S02
], ids=["c", "d", "e", "f", "g"])
def test_theorem_reduce_requires_subbase(text, source, target):
    base = Base(source)
    with pytest.raises(PreconditionError, match="not generated by the target"):
        theorem_reduce(parse(text, base), base, Base(target))


def test_monotone_pipelines_never_negate():
    rng = random.Random(59)
    base = Base([AND, OR])
    names = ["x", "y", "z", "w"]
    for _ in range(30):
        phi = random_formula(rng, [AND, OR], names, rng.randint(2, 25))
        out = theorem_reduce(phi, base, base)
        assert NOT_FN not in _over_base_set(out.formula)
        assert out.certificate.equivalent is True


def test_big_or_soundness_assert():
    # a context where the constant 1 survives but the formula is not
    # falsified at all-zeros cannot arise under the pipeline
    # preconditions; the elimination asserts it anyway
    base = Base([G])
    phi = parse("g(x, y, 1)", base)
    assert evaluate(phi, {p: 0 for p in props_in_order(phi)}) == 0
    out = eliminate_constants(phi, base, "and")
    assert equivalent(phi, out)


def test_canonical_six():
    cases = {
        "BF": (Base([AND, NOT]), ("and", "or", "not")),
        "M": (Base([AND, OR, FALSE, TRUE]), ("and", "or", "0", "1")),
        "L": (Base([XOR, TRUE]), ("xor", "1")),
        "N": (Base([NOT, FALSE, TRUE]), ("not", "1")),
        "E": (Base([AND, FALSE, TRUE]), ("and", "0", "1")),
        "V": (Base([OR, FALSE, TRUE]), ("or", "0", "1")),
    }
    for name, (base, want) in cases.items():
        got = canonical_equivalent(base)
        assert got.clone == CloneName(name)
        assert got.connectives == want
        assert clone_of(got.canonical_base) == CloneName(name)


def test_canonical_other_clones():
    assert canonical_equivalent(Base([ID])).connectives == ("id",)
    assert canonical_equivalent(Base([NOT])).connectives == ("not",)
    assert canonical_equivalent(Base([AND])).connectives == ("and",)
    assert canonical_equivalent(Base([OR])).connectives == ("or",)
    assert canonical_equivalent(Base([XOR])).connectives == ("xor",)
    assert canonical_equivalent(Base([AND, OR])).connectives == ("and", "or")
    assert canonical_equivalent(Base([IMP])).connectives == ("and", "or", "not")


def test_constant_replacement():
    # a constant is available when the target has it as a nullary member
    # or generates the unary constant function (written at a proposition)
    assert render(_constant_replacement(0, Base([AND, FALSE]), ["x"])) == "0"
    assert _constant_replacement(0, Base([AND]), ["x"]) is None
    assert render(_constant_replacement(1, Base([IMP]), ["x"])) == "x -> x"
    assert _constant_replacement(0, Base([IMP]), ["x"]) is None
    # without a proposition only a nullary formula will do
    assert render(_constant_replacement(0, Base([XOR, TRUE]), [])) == "1 ^ 1"
    assert _constant_replacement(0, Base([AND, NOT]), []) is None


def _pinned_runs():
    """The golden pin's runs: ``reduce_EVL`` from every catalog clone
    inside E, V or L into every catalog clone of degree at most 3 that
    includes it (over six propositions, enough for every affine shape),
    then ``theorem_reduce`` over criterion 4's pairs (over four, the
    whole-formula fallback's cap)."""
    entries = [e for e in catalog() if (e.name.degree or 0) <= 3]
    runs = [(reduce_EVL, s.base, t.base, 6) for s in entries
            if any(includes(upper, s.name) for upper in "EVL")
            for t in entries if includes(t.name, s.name)]
    return runs + [(theorem_reduce, s, t, 4)
                   for pairs in theorem_pairs().values() for s, t in pairs]


def test_outputs_pinned():
    # a digest of the rendered outputs of three seeded formulas, each
    # with a proposition, per run; it changes exactly when an output does
    rng = random.Random(0x5EED)
    digest = hashlib.sha256()
    for reduce, source, target, nvars in _pinned_runs():
        names = [f"x{i}" for i in range(1, nvars + 1)]
        for _ in range(3):
            phi = Apply(TRUE)
            while not vars_of(phi):
                phi = random_formula(rng, list(source), names, rng.randint(1, 25))
            out = reduce(phi, source, target)
            digest.update(f"{render(phi)} => {render(out.formula)}\n".encode())
    assert digest.hexdigest()[:16] == "cee873ecbafce4a7"


def test_route_keeps_its_bound(monkeypatch):
    # sizes of the built replacements, before constant elimination (made
    # the identity here), over every restructuring criterion-4 pair: a
    # read-once input replaced alone stays within size(phi) times the
    # widest witness, and where both shapes are replaced the kept one is
    # never larger than the restructured one
    monkeypatch.setattr(reductions, "eliminate_constants", lambda phi, target, extra: phi)
    rng = random.Random(0xD15)
    names = ["a", "b", "c", "d"]
    checked = {1: 0, 2: 0}
    for case in "defg":
        for source, target in theorem_pairs()[case]:
            restructurer = (restructure_monotone_g if includes("M", clone_of(source))
                            else restructure_full)
            for _ in range(8):
                phi = random_formula(rng, list(source), names, rng.randint(2, 25))
                shapes = _candidates(phi, target, restructurer)
                if leaf_count(phi) <= 1 or any(constant_value(s) is not None for s in shapes):
                    continue
                kept = size(_replace_and_eliminate(phi, shapes, target, "none"))
                if len(shapes) == 1:
                    witnesses = [_variants(c.fn, target)[0][0][1]
                                 for c in connectives_of(fold(phi)) if c.arity >= 1]
                    assert all(leaf_count(w) == len(vars_of(w)) for w in witnesses)
                    assert render(shapes[0]) == render(fold(phi))
                    assert kept <= size(phi) * max(size(w) for w in witnesses)
                else:
                    restructured = shapes[1]
                    assert kept <= size(_replace(restructured, target)[0])
                checked[len(shapes)] += 1
    assert checked[1] and checked[2]


def test_route_split():
    # the candidates of each rule of the route choice
    g1 = Base([G, TRUE])
    s00_4 = catalog_entry(CloneName("S00", 4)).base
    nand = Base([Connective("nand", boolfun.apply(NOT_FN, [AND_FN]))])
    # one proposition occurrence, or a connective above the arity cap:
    # the restructurer alone
    for phi, base in ((parse("g(x, 1, 1)", g1), g1),
                      (parse("t45d(a, b, g(a, c, d), d, e)", s00_4), s00_4)):
        shapes = _candidates(phi, base, restructure_monotone_g)
        assert [render(s) for s in shapes] == [render(restructure_monotone_g(phi))]
    # every witness read-once: the folded input alone
    phi = parse("g(x, g(y, 1, 1), x)", g1)
    shapes = _candidates(phi, g1, restructure_monotone_g)
    assert [render(s) for s in shapes] == [render(fold(phi))]
    # nand's witnesses repeat a variable: both shapes, the folded one first
    phi = parse("!(x & !y) & z")
    shapes = _candidates(phi, nand, restructure_full)
    assert [render(s) for s in shapes] == [render(fold(phi)), render(restructure_full(phi))]


def test_single_occurrence_is_restructured():
    # g's witness over {g, 1} is read-once, but with one proposition
    # occurrence the restructurer runs and folds g(x, 1, 1) to its constant
    base = Base([G, TRUE])
    out = theorem_reduce(parse("g(x, 1, 1)", base), base, base)
    assert render(out.formula) == "1"
    assert out.certificate.equivalent is True


def test_read_once_route_resynthesises_small_supports():
    # g's witness over {g, 1} and over {g} is read-once, so the folded
    # input alone is replaced, not the restructured shape (x): the
    # read-once route is bounded by size(phi) times the witness size.
    # Replacing it still finds x, as the smallest witness of the folded
    # g(x, 1, x) and of g(x, y, x) over their supports
    for text, conns, folded in (("g(x, g(y, 1, 1), x)", [G, TRUE], "g(x, 1, x)"),
                                ("g(x, y, x)", [G], "g(x, y, x)")):
        base = Base(conns)
        phi = parse(text, base)
        shapes = _candidates(phi, base, restructure_monotone_g)
        assert [render(s) for s in shapes] == [folded]
        assert render(restructure_monotone_g(phi)) == "x"
        assert render(_replace(shapes[0], base)[0]) == "x"
        out = theorem_reduce(phi, base, base)
        assert render(out.formula) == "x"
        assert out.certificate.equivalent is True


def test_small_support_is_resynthesised():
    # g(x, y, y) is x | y & y replaced node by node into {and, or}, and
    # x | y as the smallest witness of its function over its support
    source, target = Base([G]), Base([AND, OR])
    out = theorem_reduce(parse("g(x, y, y)", source), source, target)
    assert render(out.formula) == "x | y"
    assert out.certificate.size_out == 3 and out.certificate.equivalent is True


@pytest.mark.parametrize("source,target,text,want", [
    (CloneName("S0", 4), CloneName("S0", 4), "t45d(c, a, b, b, b)", "(c -> a -> b) -> b"),
    (CloneName("S12", 4), CloneName("S1", 4), "t45(c, a, c, c, d)", "c -/> (c -/> a) -/> d"),
])
def test_ungenerated_connective_is_resynthesised(source, target, text, want):
    # the 5-ary connective is restructured into and and or, and the target
    # generates only one of them; the other still carries a table, so the
    # root, over three propositions, is a cut witness: 7 nodes, not the 47
    # and 39 of replacing the shape node by node over the target with
    # constants
    source, target = catalog_entry(source).base, catalog_entry(target).base
    out = theorem_reduce(parse(text, source), source, target)
    assert render(out.formula) == want
    assert out.certificate.size_out == 7 and out.certificate.equivalent is True


def test_negated_proposition_takes_the_not_witness():
    # the target's not needs its nullary f1, which no cut witness holds:
    # !c is f0(c, c, f1()), and without that option the output has 13 nodes
    source = catalog_entry(CloneName("R1")).base
    target = Base([Connective(*boolfun.parse_function_literal(text))
                   for text in ("f0/3:01011100", "f1/0:1")])
    out = theorem_reduce(parse("c | (a <-> b)", source), source, target)
    assert render(out.formula) == "f0(f0(c, c, f1()), f0(a, b, b), f1())"
    assert out.certificate.size_out == 10 and out.certificate.equivalent is True


def test_outputs_within_small_closure_witnesses():
    # an input over at most three propositions reduces to no more nodes
    # than the smallest witness of its function over the target's
    # connectives of arity at most 3, wherever that closure has one
    checked = 0
    for _, source, target, phi in _corpus(0xC075):
        names = props_in_order(phi)
        if not 1 <= len(names) <= 3:
            continue
        small = Base([c for c in target if c.arity <= 3])
        witness = closure(small, len(names)).entries.get(formula.truth_table(phi, names))
        if witness is not None:
            assert theorem_reduce(phi, source, target).certificate.size_out <= size(witness)
            checked += 1
    assert checked >= 400


def test_functional_support_within_small_closure_witnesses():
    # an input that mentions four to six propositions but whose function
    # depends on one to three reduces to no more nodes than the smallest
    # witness of its function over those, projected, over the target's
    # connectives of arity at most 3, wherever that closure has one
    checked = 0
    for _, source, target, phi in _corpus(0xC075):
        names = props_in_order(phi)
        f = formula.truth_table(phi, names)
        kept, n = oracle_relevant(f), len(names)
        if n < 4 or not 1 <= len(kept) <= 3:
            continue
        projected = boolfun.BooleanFunction(len(kept), tuple(
            f.bits[sum((r >> len(kept) - 1 - i & 1) << n - 1 - j for i, j in enumerate(kept))]
            for r in range(1 << len(kept))))
        small = Base([c for c in target if c.arity <= 3])
        witness = closure(small, len(kept)).entries.get(projected)
        if witness is not None:
            assert theorem_reduce(phi, source, target).certificate.size_out <= size(witness)
            checked += 1
    assert checked >= 80
    # sd(x1, x3, x3) is !x3 and sd(x4, x2, x2) is !x2, so the root is x3;
    # gn(x2, x2, y) is x2 whatever y is
    for text, clone, want in (("sd(x3, sd(x1, x3, x3), sd(x4, x2, x2))", "D", "x3"),
                              ("gn(x2, x2, gn(x6, x4, x5))", "S02", "x2")):
        base = catalog_entry(CloneName(clone)).base
        out = theorem_reduce(parse(text, base), base, base)
        assert render(out.formula) == want
        assert out.certificate.equivalent is True


def test_slot_moves_against_row_oracle():
    # every pair of masks sub <= support of at most six propositions out
    # of seven: a seeded table over sub's propositions, lifted to
    # support's slots by delta swaps and projected back by the same swaps
    # in reverse, against the row-by-row re-indexing
    rng = random.Random(0x5107)
    pairs = 0
    for support in range(1 << 7):
        if support.bit_count() > 6:
            continue
        sub = support
        while True:
            k = sub.bit_count()
            small = rng.getrandbits(1 << k)
            table = sum(1 << r for r in range(64) if small >> (r >> 6 - k) & 1)
            moves = reductions._moves(sub, support)
            lifted = reductions._swapped(table, moves)
            assert lifted == oracle_lift(table, sub, support), (sub, support)
            assert reductions._swapped(lifted, reversed(moves)) == table
            assert oracle_project(lifted, sub, support) == table
            pairs += 1
            if not sub:
                break
            sub = (sub - 1) & support
    assert pairs == 3 ** 7 - 2 ** 7


def test_cofactor_test_against_row_oracle():
    # seeded functions of one to six arguments, each ignoring a seeded set
    # of them: the cofactor test over all of an arity's projection masks or
    # only the first ones, and _relevant, find the arguments whose flip
    # changes some row
    rng = random.Random(0xC0F)
    for _ in range(300):
        n = rng.randint(1, 6)
        ignored = sum(1 << n - 1 - j for j in range(n) if rng.random() < 0.4)
        bits = [rng.getrandbits(1) for _ in range(1 << n)]
        f = boolfun.BooleanFunction(n, tuple(bits[p & ~ignored] for p in range(1 << n)))
        table, masks = boolfun._pack(f), [boolfun._projection_mask(j, n) for j in range(n)]
        want = oracle_relevant(f)
        for k in range(n + 1):
            assert boolfun._depends(table, n, masks[:k]) == [j for j in want if j < k]
        assert boolfun._relevant(f) == (table, [masks[j] for j in want])


def test_constant_function_keeps_one_slot():
    # a constant table depends on no slot, and a node whose function is
    # constant over four propositions keeps the first one: its cut witness
    # is written there, where over no proposition it would have none and
    # the replaced shape would have 25 nodes
    for table in (0, reductions._FULL):
        assert boolfun._depends(table, 6, reductions._SLOTS) == []
    nand = Base([Connective("nand", boolfun.apply(NOT_FN, [AND_FN]))])
    out, n = _replace(parse("!((a & !a) & (b & (c & d)))"), nand)
    assert render(out) == "nand(a, nand(a, a))" and n == 5


@pytest.mark.parametrize("clone", [CloneName("S0", 5), CloneName("S02", 5)])
def test_small_closure_skips_wide_connectives(monkeypatch, clone):
    # the whole-subformula table of a target with a 6-ary connective is
    # searched over its connectives of arity at most 3 only: the search
    # over all of them is slow or runs out of its budget
    seen = []
    class Spy(_Search):
        def __init__(self, base, k, targets=()):
            seen.append(max(c.arity for c in base))
            super().__init__(base, k, targets)
    monkeypatch.setattr(reductions, "_Search", Spy)
    reductions._cuts.cache_clear()
    reductions._closure3.cache_clear()
    base = catalog_entry(clone).base
    rng = random.Random(0x5C)
    for _ in range(6):
        phi = random_formula(rng, list(base), ["a", "b", "c", "d"], 12)
        assert theorem_reduce(phi, base, base).certificate.equivalent is True
    assert seen and max(seen) <= 3


@pytest.mark.parametrize("clone,text", [
    (CloneName("S00", 4), "t45d(a, b, g(a, c, d), d, e)"),
    (CloneName("S10", 5), "t56(a, b, c, h(a, d, e), e, f)"),
])
def test_connective_above_arity_cap_is_restructured(clone, text):
    # no witness of a 5- or 6-ary connective can be looked up, so an input
    # holding one takes the restructured route, whose shape has arity <= 3
    base = catalog_entry(clone).base
    rng = random.Random(0xA5)
    inputs = [parse(text, base)] + [random_formula(rng, list(base), list("abcdef"), 12)
                                    for _ in range(5)]
    for phi in inputs:
        out = theorem_reduce(phi, base, base)
        assert out.certificate.equivalent is True


def test_self_dual_connective_above_arity_cap():
    # case (f): a 5-ary self-dual connective takes the restructured route.
    # Over three variables its function is a cut witness of the
    # restructured shape; over four it has none, and the self-dual target
    # lacks the constants of that shape, so the whole-formula fallback
    # writes the output
    maj5 = Connective("maj5", boolfun.BooleanFunction(
        5, tuple(int(bin(p).count("1") >= 3) for p in range(32))))
    source, target = Base([maj5]), Base([MAJ3])
    for text, want in (("maj5(a, a, b, b, c)", "maj3(a, b, c)"),
                       ("maj5(a, b, c, d, d)", "maj3(a, d, maj3(b, c, d))")):
        out = theorem_reduce(parse(text, source), source, target)
        assert render(out.formula) == want
        assert out.certificate.equivalent is True
    # a target with not: a cut witness over the three variables the
    # function depends on, not the inessential a
    source = Base([maj5, NOT])
    out = theorem_reduce(parse("maj5(a, b, !c, d, !a)", source), source, Base([SD]))
    assert render(out.formula) == "sd(b, b, sd(c, b, d))"
    assert out.certificate.equivalent is True
    # over five variables the whole-formula fallback has no witness to look up
    source = Base([maj5])
    with pytest.raises(ReductionError, match=r"capped at 4 variables \(5 present\)"):
        theorem_reduce(parse("maj5(a, b, c, d, e)", source), source, target)


def test_read_once_chain_is_replaced_in_place(shallow_stack):
    # maj3's witness over {maj3} is read-once, so a deep chain is replaced
    # without restructuring: the output stays within size(phi) times the
    # witness size (before, the self-dual constants forced the
    # whole-formula fallback, capped at four variables)
    names = [f"v{i}" for i in range(8)]
    phi = Prop(names[0])
    for i in range(300):
        phi = Apply(MAJ3, (Prop(names[(i + 1) % 8]), Prop(names[(i + 2) % 8]), phi))
    base = Base([MAJ3])
    out = reduce_D(phi, base, base)
    assert out.certificate.depth_in == 300
    assert out.certificate.size_out <= size(phi) * size(represent(MAJ3.fn, base))
    assert out.certificate.equivalent is True


@pytest.mark.parametrize("source,target", theorem_pairs()["f"],
                         ids=lambda b: "+".join(c.name for c in b))
def test_case_f_above_four_variables(source, target):
    rng = random.Random(0xF5)
    for _ in range(10):
        names = [f"x{i}" for i in range(1, rng.randint(5, 8) + 1)]
        phi = Prop("x1")
        while len(vars_of(phi)) < 5:
            phi = random_formula(rng, list(source), names, rng.randint(8, 40))
        out = theorem_reduce(phi, source, target)
        assert out.certificate.equivalent is True


def _corpus(seed):
    """Per criterion-4 pair, 25 seeded formulas of 1..25 nodes over six
    propositions (four in case (f)); equal seeds give equal formulas as
    fresh node objects."""
    rng = random.Random(seed)
    runs = []
    for case, pairs in theorem_pairs().items():
        names = [f"x{i}" for i in range(1, (4 if case == "f" else 6) + 1)]
        for source, target in pairs:
            runs += [(case, source, target, random_formula(rng, list(source), names, n))
                     for n in range(1, 26)]
    return runs


def test_walks_per_case_are_bounded(monkeypatch):
    # formula walks per warm theorem_reduce, every _postorder call through
    # formula's binding and reductions' and restructure's own: the pair's
    # plan and witnesses are cached, a node's facts are walked for once,
    # witnesses are built from their compiled steps, an unchanged shape is
    # its own output and one walk builds both branches of a split.  Measured
    # (a)-(g): 4.39, 4.39, 4.23, 3.05, 3.24, 10.15, 6.74, overall 5.38;
    # with two walks per split, (f) 13.14, (g) 8.24 and 6.15; without the
    # rest too, 10.60, 9.80, 10.23, 10.54, 10.59, 23.21, 19.54 and 14.16
    for _, source, target, phi in _corpus(0xAA1C):
        theorem_reduce(phi, source, target)
    walks = []
    real = formula._postorder
    def counted(*roots, **kwargs):
        walks.append(1)
        return real(*roots, **kwargs)
    monkeypatch.setattr(formula, "_postorder", counted)
    monkeypatch.setattr(reductions, "_postorder", counted)
    monkeypatch.setattr(restructure, "_postorder", counted)
    per_case: dict[str, list[int]] = {}
    for case, source, target, phi in _corpus(0xAA1C):
        walks.clear()
        theorem_reduce(phi, source, target)
        per_case.setdefault(case, []).append(len(walks))
    means = {case: sum(n) / len(n) for case, n in per_case.items()}
    assert all(means[case] <= 5 for case in "abcde"), means
    assert means["f"] <= 10.5 and means["g"] <= 7, means
    every = [n for counts in per_case.values() for n in counts]
    assert sum(every) / len(every) <= 5.5, means


def test_plans_raise_the_same_refusal_every_time():
    # a pair that fails a precondition is planned like any other, so the
    # call after the first (planned) one refuses with the same message
    base = Base([MAJ3])
    phi = parse("maj3(x, y, z)", base)
    reductions._plan.cache_clear()
    for reduce, target, message in ((reduce_S00, Base([AND]), "the clone of B must contain S00"),
                                    (theorem_reduce, Base([AND]), "'maj3' is not generated"),
                                    (reduce_EVL, base, "not inside E, V or L")):
        for _ in range(2):
            with pytest.raises(PreconditionError, match=message):
                reduce(phi, base, target)


def test_cold_and_warm_calls_agree():
    # with every cache of the module dropped (plans, witnesses, cut
    # tables and their steps and moves), each criterion-4 pair renders and
    # certifies exactly as when they are cached
    caches = [f for f in vars(reductions).values()
              if hasattr(f, "cache_clear") and f.__module__ == reductions.__name__]
    assert {reductions._plan, reductions._variants, reductions._cuts} <= set(caches)
    rng = random.Random(0xC01D)
    for case, pairs in theorem_pairs().items():
        for source, target in pairs:
            phi = random_formula(rng, list(source), ["a", "b", "c", "d"], 15)
            text = render(phi)
            results = []
            for cold in (True, False):
                if cold:
                    for cache in caches:
                        cache.cache_clear()
                out = theorem_reduce(parse(text, source), source, target)
                results.append((render(out.formula), out.certificate, out.extra,
                                out.target.connectives))
            assert results[0] == results[1], (case, text)


def test_targets_over_one_base_keep_separate_plans():
    # D1 into D adjoins and; D1 into the functionally complete BF adjoins
    # nothing; alternating the two targets keeps each pair's own plan
    source = catalog_entry(CloneName("D1")).base
    targets = {"and": catalog_entry(CloneName("D")).base,
               "none": catalog_entry(CloneName("BF")).base}
    phi = random_formula(random.Random(0xD1), list(source), ["a", "b", "c"], 12)
    for extra in ("none", "and", "none", "and"):
        target = targets[extra]
        out = theorem_reduce(phi, source, target)
        assert out.extra == extra and out.certificate.equivalent is True
        assert out.target == (target if extra == "none" else target.extended(AND))
    assert reductions._plan(source, targets["and"]) != reductions._plan(source, targets["none"])


def test_plans_pinned():
    # a digest of every catalog pair's plan (case, pipeline, per pipeline
    # its refusal, whether [B'] is BF) and of every catalog base's
    # canonical set; it changes exactly when a dispatch, a bound or a
    # canonical set does
    digest = hashlib.sha256()
    for source in catalog():
        for target in catalog():
            plan = reductions._plan(source.base, target.base)
            digest.update(f"{source.name} {target.name} {plan.case} {plan.route} "
                          f"{sorted(plan.refusals.items())} {plan.complete}\n".encode())
        canon = canonical_equivalent(source.base)
        digest.update(f"{source.name} {canon.clone} {canon.connectives} {canon.note}\n".encode())
    assert digest.hexdigest()[:16] == "3563e792b63a0e29"


@pytest.mark.parametrize("source,target,called", [
    ("S02", "S02", ["reduce_S02", "restructure_full"]),
    ("S10", "S10", ["reduce_S10", "restructure_monotone_h"]),
    ("D2", "M2", ["reduce_D", "restructure_monotone_g"]),
    ("D1", "BF", ["reduce_D", "restructure_full"]),
    ("M", "M", ["reduce_S00", "restructure_monotone_g"]),
    ("R2", "BF", ["reduce_S02", "restructure_full"]),
])
def test_pipelines_are_looked_up_when_called(monkeypatch, source, target, called):
    # theorem_reduce calls the pipeline, and the pipeline the restructurer,
    # through the module's names, so a wrapped one runs (the benchmark's
    # trace wraps them); one proposition is always restructured
    calls = []
    for name in ("reduce_S00", "reduce_S10", "reduce_S02", "reduce_S12", "reduce_D",
                 "reduce_EVL", "restructure_monotone_g", "restructure_monotone_h",
                 "restructure_full"):
        def wrapped(*args, _name=name, _real=getattr(reductions, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(reductions, name, wrapped)
    source, target = catalog_entry(source).base, catalog_entry(target).base
    out = theorem_reduce(Prop("x"), source, target)
    assert calls == called and render(out.formula) == "x"


def test_constant_refusal_is_searched_once(monkeypatch):
    # {and, not} builds 0 only at a variable: without a proposition the
    # witness search refuses, and _variants keeps the refusal like a witness
    searches = []
    real = reductions.represent_variants
    def counted(*args):
        searches.append(1)
        return real(*args)
    monkeypatch.setattr(reductions, "represent_variants", counted)
    _variants.cache_clear()
    for _ in range(3):
        assert _constant_replacement(0, Base([AND, NOT]), []) is None
    assert len(searches) == 1
