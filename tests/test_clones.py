import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import postlattice
from postlattice import boolfun, clones
from postlattice.boolfun import (
    AND_FN,
    ArityError,
    BooleanFunction,
    CONST0_1_FN,
    CONST0_FN,
    CONST1_1_FN,
    CONST1_FN,
    NIMP_FN,
    NOT_FN,
    OR_FN,
    threshold,
)
from postlattice.clones import (
    G,
    GN,
    H,
    MAJ3,
    CloneError,
    CloneName,
    NotInCloneError,
    catalog,
    catalog_entry,
    classify_sat,
    clone_of,
    closure,
    includes,
    lattice_dot,
    member,
    represent,
    represent_variants,
)
from postlattice.formula import (
    AND,
    FALSE,
    ID,
    IMP,
    NIMP,
    NOT,
    OR,
    TRUE,
    XOR,
    Base,
    Connective,
    parse,
    render,
    truth_table,
    Prop,
    _postorder,
)

from conftest import all_functions, random_base, random_function


def test_clone_of_examples():
    assert clone_of(Base([AND, NOT])) == CloneName("BF")
    assert clone_of(Base([IMP])) == CloneName("S0")
    assert clone_of(Base([MAJ3])) == CloneName("D2")
    assert clone_of(Base([XOR])) == CloneName("L0")
    assert clone_of(Base([ID])) == CloneName("I2")


def test_clone_of_parameterized():
    entry = catalog_entry(CloneName("S00", 2))
    assert clone_of(entry.base) == CloneName("S00", 2)
    entry = catalog_entry(CloneName("S11", 3))
    assert clone_of(entry.base) == CloneName("S11", 3)
    with pytest.raises(CloneError, match="bad clone name"):
        CloneName.parse("S0^x")
    with pytest.raises(CloneError, match="unknown clone Q"):
        catalog_entry("Q")


def test_catalog_soundness_small_degrees():
    for entry in catalog():
        if entry.name.degree is not None and entry.name.degree > 3:
            continue
        for c in entry.base:
            assert entry.predicate(c.fn), (entry.name, c.name)
        assert clone_of(entry.base) == entry.name


def _assert_minimal(base):
    """clone_of(base) contains the base and lies in every row that does."""
    name = clone_of(base)
    pred_holds = [e.name for e in catalog()
                  if all(e.predicate(c.fn) for c in base)]
    assert name in pred_holds
    for other in pred_holds:
        assert includes(other, name), (name, other)


def test_clone_of_minimality():
    rng = random.Random(41)
    for i in range(60):
        _assert_minimal(random_base(rng, f"m{i}"))


def test_catalog_signatures_distinct():
    rows = catalog()
    assert len(rows) == len({clones._joint(e.base) for e in rows}) == 70
    for entry in rows:
        assert clone_of(entry.base) == entry.name


def test_clone_of_minimality_with_wide_connectives():
    # random connectives of arity 4-5 mixed with catalog connectives
    rng = random.Random(29)
    pool = list(dict.fromkeys(c for e in catalog() for c in e.base))
    for i in range(100):
        conns = [Connective(f"w{i}_{j}", random_function(rng, rng.choice((4, 5))))
                 for j in range(rng.randint(0, 2))]
        _assert_minimal(Base(conns + rng.sample(pool, rng.randint(0 if conns else 1, 3))))


def test_identification_makes_no_inclusion_test(monkeypatch):
    calls, entry_includes = [], clones._entry_includes

    def counted(outer, inner):
        calls.append((outer, inner))
        return entry_includes(outer, inner)

    clones._clones_by_signature.cache_clear()
    clones._joint.cache_clear()
    monkeypatch.setattr(clones, "_entry_includes", counted)
    for entry in catalog():
        assert clone_of(entry.base) == entry.name
    assert calls == []


def test_identification_pinned():
    # a digest of clone_of and member over 510 small bases, and of the
    # includes matrix; it changes exactly when identification does
    small = [f for k in (0, 1, 2) for f in all_functions(k)]
    fns = [Connective(f"f{i}", f) for i, f in enumerate(small)]
    bases = ([Base([])] + [Base([c]) for c in fns]
             + [Base([a, b]) for a, b in itertools.combinations(fns, 2)]
             + [Base([Connective("t", f)]) for f in all_functions(3)])
    assert (len(small), len(bases)) == (22, 510)
    digest = hashlib.sha256()
    for base in bases:
        tables = ",".join(c.fn.bitstring for c in base)
        bits = "".join("1" if member(f, base) else "0" for f in small)
        digest.update(f"{tables}\t{clone_of(base)}\t{bits}\n".encode())
    names = [e.name for e in catalog()]
    for outer in names:
        row = "".join("1" if includes(outer, inner) else "0" for inner in names)
        digest.update(f"{outer}\t{row}\n".encode())
    assert digest.hexdigest()[:16] == "fe4289b4ac168c71"


def test_includes():
    assert includes("M", "M2")
    assert includes("L3", "L2")
    assert not includes("E", "V")
    assert includes("BF", "I2")
    for entry in catalog():
        assert includes(entry.name, "I2")


def dual_base(base: Base) -> Base:
    """The base of dual functions (names suffixed with ``_d``)."""
    return Base([Connective(f"{c.name}_d", boolfun.dual(c.fn)) for c in base])


def test_duality_symmetry():
    pairs = [("S0", "S1"), ("E", "V"), ("S00", "S10"), ("M0", "M1")]
    for a, b in pairs:
        ea, eb = catalog_entry(a), catalog_entry(b)
        assert clone_of(dual_base(ea.base)) == eb.name
        assert clone_of(dual_base(eb.base)) == ea.name


def test_closure_functionally_complete():
    cs = closure(Base([AND, NOT]), 2)
    assert len(cs) == 16
    for fn, witness in cs.entries.items():
        assert truth_table(witness, ["x1", "x2"]) == fn


def test_closure_witness_g():
    cs = closure(Base([G]), 2)
    assert OR_FN in cs
    assert render(cs.witness(OR_FN)) == "g(x1, x2, x2)"


def test_closure_projections_only():
    cs = closure(Base([ID]), 2)
    assert sorted(f.bitstring for f in cs.functions()) == ["0011", "0101"]


def test_closure_set_only_matches_witnessed():
    rng = random.Random(17)
    for i in range(25):
        base = random_base(rng, f"c{i}", arities=(1, 2, 2), counts=(1, 2))
        with_w = closure(base, 2)
        without = closure(base, 2, witnesses=False)
        assert set(with_w.entries) == set(without.entries)
    with pytest.raises(CloneError, match="no witness recorded"):
        without.witness(next(iter(without.entries)))


def test_closure_oracle_agreement_sample():
    rng = random.Random(23)
    for i in range(40):
        base = random_base(rng, f"o{i}")
        cs = closure(base, 3, witnesses=False)
        pred = catalog_entry(clone_of(base)).predicate
        fragment = {f for f in all_functions(3) if pred(f)}
        assert set(cs.entries) == fragment, (i, clone_of(base))


def test_represent():
    assert render(represent(OR_FN, Base([G]))) == "g(x1, x2, x2)"
    neg = represent(NOT_FN, Base([GN, FALSE, TRUE]))
    assert truth_table(neg, ["x1"]) == NOT_FN
    with pytest.raises(NotInCloneError):
        represent(NIMP_FN, Base([AND, OR]))
    with pytest.raises(ArityError):
        represent(threshold(4), Base([AND, NOT]))     # 5-ary, past the cap


def test_represent_variants():
    # one search finds every variant q ^ f(x ^ p) the base generates: each
    # formula computes its variant, and the identity's is represent's; the
    # constants too, nullary wherever represent finds them
    conns = {c.fn for e in catalog() for c in e.base if 1 <= c.arity <= 3}
    conns |= {CONST0_FN, CONST1_FN, CONST0_1_FN, CONST1_1_FN}
    checked, nullary = 0, 0
    for entry in catalog():
        if (entry.name.degree or 0) > 3:
            continue
        for fn in sorted(conns, key=lambda f: (f.arity, f.bits)):
            if not member(fn, entry.base):
                continue
            try:
                identity = represent(fn, entry.base)
            except NotInCloneError:
                assert fn.arity == 0      # the base builds it only at a variable
                with pytest.raises(NotInCloneError):
                    represent_variants(fn, entry.base)
                continue
            found = represent_variants(fn, entry.base)
            assert render(found[0, 0]) == render(identity)
            nullary += fn.arity == 0
            names = [f"x{i + 1}" for i in range(fn.arity)]
            for (q, p), w in found.items():
                flip = [p >> i & 1 for i in range(fn.arity)]
                want = [q ^ fn.value([b ^ f for b, f in zip(row, flip)])
                        for row in itertools.product((0, 1), repeat=fn.arity)]
                assert truth_table(w, names).bits == tuple(want)
            checked += 1
    assert checked > 200 and nullary > 0
    # a monotone base generates only and itself and its dual, or
    assert represent_variants(AND_FN, Base([AND, OR])).keys() == {(0, 0), (1, 3)}
    assert render(represent_variants(AND_FN, Base([AND, OR]))[1, 3]) == "x1 | x2"


def test_represent_witnesses_are_smallest_first():
    # the identity has a one-node witness even when the base could spell
    # it with a connective application
    proj = BooleanFunction(2, (0, 0, 1, 1))
    w = represent(proj, Base([AND, OR]))
    assert w == Prop("x1")


def test_represent_nullary_constants():
    # a constant of arity 0 is represented exactly when the base builds it
    # without a variable; otherwise NotInCloneError, even when the base
    # generates the unary constant, as and/not does
    rng = random.Random(31)
    bases = [Base([AND, NOT])] + [random_base(rng, f"n{i}", arities=(0, 1, 2, 2, 3))
                                  for i in range(40)]
    for base in bases:
        reachable = closure(base, 0)
        for f in (boolfun.CONST0_FN, boolfun.CONST1_FN):
            if f in reachable:
                assert truth_table(represent(f, base), []) == f
            else:
                with pytest.raises(NotInCloneError):
                    represent(f, base)


def test_member():
    assert member(NIMP_FN, Base([AND, NOT]))
    assert not member(OR_FN, Base([AND]))
    # the majority function separates at degree exactly 2, so it lives in
    # the degree-2 family but not in the fully-separating clone below it
    assert member(threshold(2), catalog_entry(CloneName("S11", 2)).base)
    assert not member(threshold(2), Base([H, FALSE]))
    assert member(boolfun.CONST1_1_FN, Base([IMP]))


def test_member_agrees_with_closure():
    rng = random.Random(29)
    for i in range(20):
        base = random_base(rng, f"a{i}", arities=(1, 2, 2), counts=(1, 2))
        cs = closure(base, 2, witnesses=False)
        for f in all_functions(2):
            assert member(f, base) == (f in cs), (i, f.bitstring)


def test_classify_sat():
    nand = Connective("nand", boolfun.apply(NOT_FN, [AND_FN]))
    assert classify_sat(Base([nand])) == "NP-complete"
    assert classify_sat(Base([AND, NOT])) == "NP-complete"
    assert classify_sat(Base([NIMP])) == "NP-complete"
    assert classify_sat(Base([AND, OR, FALSE, TRUE])) == "Logspace"
    assert classify_sat(Base([IMP])) == "Logspace"
    assert classify_sat(Base([XOR, TRUE])) == "Logspace"
    assert classify_sat(Base([NOT])) == "Logspace"


def test_lattice_dot():
    dot = lattice_dot(2)
    assert '"M2" -> "M0"' in dot or '"M2" -> "M1"' in dot
    assert dot.count('"') >= 4
    # node count: 38 plain clones plus 8 families at degree 2
    nodes = [line for line in dot.splitlines()
             if line.endswith('";') and "->" not in line]
    assert len(nodes) == 46
    assert '"I2";' in dot
    with pytest.raises(CloneError, match="max degree"):
        lattice_dot(5)


def test_lattice_dot_covers_are_minimal():
    dot = lattice_dot(2)
    edges = [line.strip() for line in dot.splitlines() if "->" in line]
    # no clone covers I2 through another clone: I2's covers are its
    # immediate successors only
    i2_edges = [e for e in edges if e.startswith('"I2"')]
    assert i2_edges
    assert '"I2" -> "BF";' not in dot


def test_lattice_dot_is_the_same_under_any_hash_seed():
    # edges follow catalog order, not the order of a set of clone names,
    # which changes with string-hash randomisation
    src = str(Path(postlattice.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c",
             "from postlattice.clones import lattice_dot; print(lattice_dot(3))"],
            env=env, capture_output=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0].startswith(b"digraph post_lattice {")
    assert outputs[0] == outputs[1]


def test_witness_search_runs_without_numpy():
    # a child process in which importing numpy fails: every command runs,
    # the witness searches of closure, represent and theorem_reduce included
    code = textwrap.dedent("""
        import contextlib, io, sys
        sys.modules["numpy"] = None
        from postlattice import (Base, Connective, catalog, classify_sat, clone_of,
                                 equivalent, member, parse, restructure_full,
                                 theorem_case, theorem_reduce)
        from postlattice.boolfun import parse_function_literal, threshold
        from postlattice.cli import main
        from postlattice.clones import (CloneName, catalog_entry, closure,
                                        represent_variants)
        from postlattice.formula import AND, NOT, truth_table
        base = Base([AND, NOT])
        nand = Base([Connective(*parse_function_literal("nand/2:1110"))])
        phi = parse("!(x & y)")
        assert len(catalog()) > 0
        assert clone_of(base) == clone_of(nand)
        assert member(AND.fn, nand)
        assert classify_sat(nand) == "NP-complete"
        assert theorem_case(clone_of(base)) == "g"
        assert equivalent(restructure_full(parse("x ^ (y | z)")), parse("x ^ (y | z)"))
        for argv in (["parse", "--formula", "x & (y | z)"], ["id", "--fn", "imp/2:1101"],
                     ["lattice", "--max-degree", "2"],
                     ["depth-reduce", "--formula", "x ^ y", "--mode", "full"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--json", *argv]) == 0
        assert len(closure(base, 3)) == 256
        assert len(closure(Base([AND]), 4, witnesses=False)) == 15
        for f, clone in ((threshold(2), "D2"), (threshold(3), CloneName("S11", 3))):
            found = represent_variants(f, catalog_entry(clone).base)
            names = [f"x{j}" for j in range(1, f.arity + 1)]
            assert truth_table(found[0, 0], names) == f
        out = theorem_reduce(phi, base, nand)
        assert out.certificate.equivalent is True and equivalent(out.formula, phi)
    """)
    src = str(Path(postlattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_closure_arity_4():
    # conjunctions of nonempty variable subsets: 2^4 - 1 functions
    cs = closure(Base([AND]), 4, witnesses=False)
    assert len(cs) == 15
    witnessed = closure(Base([AND]), 4)
    assert set(witnessed.entries) == set(cs.entries)
    for fn, w in witnessed.entries.items():
        assert truth_table(w, ["x1", "x2", "x3", "x4"]) == fn


def test_closure_arity_edges():
    just_one = closure(Base([TRUE]), 0, witnesses=False)
    assert {f.bitstring for f in just_one.functions()} == {"1"}
    unary = closure(Base([NOT]), 1)
    assert {f.bitstring for f in unary.functions()} == {"01", "10"}
    with pytest.raises(Exception):
        closure(Base([AND]), 5)


def test_represent_arity_4():
    t34 = threshold(3)
    base = catalog_entry(CloneName("S11", 3)).base
    w = represent(t34, base)
    assert truth_table(w, ["x1", "x2", "x3", "x4"]) == t34


def test_threshold_membership_in_s_families():
    # the threshold function of degree n belongs to the degree-n family
    # but not the degree-(n+1) one
    for n in (2, 3):
        t = threshold(n)
        assert catalog_entry(CloneName("S1", n)).predicate(t)
        assert not catalog_entry(CloneName("S1", n + 1)).predicate(t)


# Golden witnesses.  The expected values were captured from the previous
# closure engine (a per-row Dijkstra search); the witnesses depend only on
# the settle order (witness size, then connective declaration index, then
# the argument settle indices), so any engine that keeps that order must
# reproduce them byte for byte.

GOLDEN_CLOSURE3_SHA256 = \
    "32baf665a9ea9974100c3f941cce447c89966968062288f65da8e2c8b5d5155c"


def test_closure_witnesses_golden():
    digest = hashlib.sha256()
    bases = functions = 0
    for entry in catalog():
        if max(c.arity for c in entry.base) > 3:
            continue
        cs = closure(entry.base, 3)
        bases += 1
        for fn in cs.functions():
            functions += 1
            line = f"{entry.name}\t{fn.bitstring}\t{render(cs.witness(fn))}\n"
            digest.update(line.encode())
    assert (bases, functions) == (46, 1140)
    assert digest.hexdigest() == GOLDEN_CLOSURE3_SHA256


# The degree-3 rows add a 4-ary threshold connective, which the golden above
# skips; S0^3 and S1^3 compose argument tuples by the hundred thousand, so
# this also pins tie-breaks across composition batches.
GOLDEN_CLOSURE3_DEGREE3_SHA256 = \
    "12b73d2c3aa23b96769b30ba89a1173267d9d324da0b5aa30b6a44c51b8c9f12"


def test_closure_witnesses_golden_degree_3():
    digest = hashlib.sha256()
    functions = 0
    for family in ("S0", "S1", "S00", "S01", "S02", "S10", "S11", "S12"):
        entry = catalog_entry(CloneName(family, 3))
        cs = closure(entry.base, 3)
        for fn in cs.functions():
            functions += 1
            line = f"{entry.name}\t{fn.bitstring}\t{render(cs.witness(fn))}\n"
            digest.update(line.encode())
    assert functions == 156
    assert digest.hexdigest() == GOLDEN_CLOSURE3_DEGREE3_SHA256


# S0 and S1 at k = 4 first find some tables past the first 2^16 argument
# tuples of a composition batch, which the k = 3 goldens never do.
GOLDEN_CLOSURE4_S0_S1_SHA256 = \
    "7b35b04fbe266c5472c1cd3e08062de9829c89fc01be879db86dd1660e459f52"


def test_closure_witnesses_golden_arity_4():
    digest = hashlib.sha256()
    functions = 0
    for name in ("S0", "S1"):
        cs = closure(catalog_entry(name).base, 4)
        for fn in cs.functions():
            functions += 1
            digest.update(f"{name}\t{fn.bitstring}\t{render(cs.witness(fn))}\n".encode())
    assert functions == 1884
    assert digest.hexdigest() == GOLDEN_CLOSURE4_S0_S1_SHA256


GOLDEN_REPRESENT4 = [
    ("D", "sd(x1, x2, x4)", "sd(x1, x2, x4)"),
    ("D", "sd(x4, x3, x1)", "sd(x4, x1, x3)"),
    ("D", "sd(sd(x1, x2, x3), x4, x1)", "sd(sd(x1, x2, x3), x1, x4)"),
    ("D", "sd(x1, sd(x2, x3, x4), x4)", "sd(x1, x2, sd(x4, x1, x3))"),
    ("D1", "sd1(x1, x2, x4)", "sd1(x1, x2, x4)"),
    ("D1", "sd1(x4, x3, x2)", "sd1(x3, x4, x2)"),
    ("D1", "sd1(sd1(x1, x2, x3), x4, x1)", "sd1(x2, x4, sd1(x1, x3, x4))"),
    ("D1", "sd1(x2, x1, sd1(x3, x4, x1))", "sd1(x1, x2, sd1(x3, x4, x1))"),
    ("D2", "maj3(x1, x2, x4)", "maj3(x1, x2, x4)"),
    ("D2", "maj3(x1, maj3(x2, x3, x4), x4)", "maj3(x1, x4, maj3(x2, x3, x4))"),
    ("D2", "maj3(maj3(x1, x2, x3), x4, x1)", "maj3(x1, x2, maj3(x1, x3, x4))"),
    ("D2", "maj3(maj3(x1, x2, x3), maj3(x2, x3, x4), x4)", "maj3(x2, x3, x4)"),
    ("S11^3", "t34(x1, x2, x3, x4)", "t34(x1, x2, x3, x4)"),
    ("S11^3", "t34(x1, x2, x3, 0)", "t34(x1, x2, x3, 0)"),
    ("S11^3", "t34(x4, x2, x1, x1)", "t34(x1, x1, x2, x4)"),
    ("S11^3", "t34(x1, x1, x2, x3)", "t34(x1, x1, x2, x3)"),
]


@pytest.mark.parametrize("clone, source, expected", GOLDEN_REPRESENT4)
def test_represent_arity_4_golden(clone, source, expected):
    base = catalog_entry(CloneName.parse(clone)).base
    fn = truth_table(parse(source, base), ["x1", "x2", "x3", "x4"])
    assert render(represent(fn, base)) == expected


def test_closure_s1_3_witnesses_match_predicate():
    entry = catalog_entry(CloneName("S1", 3))
    cs = closure(entry.base, 3)
    assert set(cs.entries) == {f for f in all_functions(3) if entry.predicate(f)}
    for fn, w in cs.entries.items():
        assert truth_table(w, ["x1", "x2", "x3"]) == fn


def forget_searches():
    """Drop every kept search, so that the next call searches afresh."""
    for slots in clones._slots:
        slots.cache_clear()


def kept_searches(base, k):
    """The search kept over the base at arity k, in a list, or nothing."""
    return clones._slots[k > 3](base, k)[1]


def test_witnesses_do_not_depend_on_the_batch_size(monkeypatch):
    # at 7 lanes a kernel call almost never holds a whole block, so lanes
    # are cut mid-run and new tables turn up past many batch boundaries;
    # the searches are kept, so the 7-lane run must drop them first
    def searches():
        found = [render(w) for name in ("BF", "S12", "D")
                 for w in closure(catalog_entry(name).base, 3).entries.values()]
        base = catalog_entry("D").base
        fn = truth_table(parse("sd(x1, sd(x2, x3, x4), x4)", base), ["x1", "x2", "x3", "x4"])
        variants = represent_variants(fn, base)
        return found + [(key, render(w)) for key, w in variants.items()]
    default = searches()
    monkeypatch.setattr(clones, "_LANES", 7)
    forget_searches()
    widths = []
    lanes = clones._Search._lanes

    def spy(self, r, t, lo, hi):
        widths.append(hi - lo)
        return lanes(self, r, t, lo, hi)

    monkeypatch.setattr(clones._Search, "_lanes", spy)
    assert searches() == default
    assert len(widths) > 1000 and max(widths) == 7


def test_witnesses_are_built_once_and_on_demand():
    # a kept search builds the witness of a settled table only when a call
    # returns it, or one built over it, and then once: a later call that
    # reads it gets the same object
    bf = catalog_entry("BF").base
    forget_searches()
    wanted = [truth_table(parse(text, bf), ["x1", "x2", "x3"])
              for text in ("x1 & x2", "!(x1 & !x3) & x2")]
    returned = [represent(fn, bf) for fn in wanted]
    [search] = kept_searches(bf, 3)
    leaves = list(search.built.values())[:len(search.index) - len(search.keys)]
    nodes = {id(node) for node in leaves + _postorder(*returned)}
    assert {id(w) for w in search.built.values()} == nodes
    assert len(search.built) == len(nodes) < len(search.index)

    first, second = closure(bf, 3), closure(bf, 3)
    assert all(w is second.entries[fn] for fn, w in first.entries.items())
    for fn, w in zip(wanted, returned):
        assert represent(fn, bf) is first.witness(fn) is w


def test_warm_reads_are_lookups(monkeypatch):
    # a search grown to the end never changes again: a later closure copies
    # the answer it kept, interning no function, and a represent of a table
    # the kept search has settled reads it without a clone test
    bf = catalog_entry("BF").base
    forget_searches()
    first, sets = closure(bf, 3), closure(bf, 3, witnesses=False)
    interned, tested = [], []
    function, identify = clones._function, clones.clone_of
    monkeypatch.setattr(clones, "_function", lambda *a: interned.append(a) or function(*a))
    monkeypatch.setattr(clones, "clone_of", lambda base: tested.append(base) or identify(base))
    for witnesses, earlier in ((True, first), (False, sets)):
        again, later = closure(bf, 3, witnesses), closure(bf, 3, witnesses)
        assert len({id(earlier.entries), id(again.entries), id(later.entries)}) == 3
        assert list(again.entries) == list(later.entries) == list(first.entries)
        for fn, w in first.entries.items():
            assert again.entries[fn] is later.entries[fn] is (w if witnesses else None)
    assert interned == []
    for fn in list(first.entries)[::37]:
        assert represent(fn, bf) is first.witness(fn)
    assert tested == []

    # a search grown only until its targets settled reads them as well
    forget_searches()
    late = truth_table(parse("!(x1 & !x3) & x2", bf), ["x1", "x2", "x3"])
    early = truth_table(parse("x1 & x2", bf), ["x1", "x2", "x3"])
    represent(late, bf)
    tested.clear()
    assert render(represent(early, bf)) == "x1 & x2"
    assert tested == []


def test_errors_survive_complete_searches():
    # after closure has grown a search to the end, represent still raises
    # for what the base does not generate, and represent_variants still
    # returns only the variants the base generates
    for name in ("M", "S0", "D", "L", "E2"):
        base = catalog_entry(name).base
        cs = closure(base, 3)
        outside = next(f for f in all_functions(3) if f not in cs)
        with pytest.raises(NotInCloneError, match="clone"):
            represent(outside, base)
        with pytest.raises(NotInCloneError, match="clone"):
            represent_variants(outside, base)

    # and/not generates the constants only at a variable
    bf = Base([AND, NOT])
    assert len(closure(bf, 0)) == 0
    for f in (boolfun.CONST0_FN, boolfun.CONST1_FN):
        with pytest.raises(NotInCloneError, match="without a variable"):
            represent(f, bf)

    rng = random.Random(0x51)
    for name in ("M", "S0", "D", "S12", "L3"):
        base = catalog_entry(name).base
        fns = sorted(closure(base, 3, witnesses=False).entries, key=lambda f: f.bits)
        for fn in rng.sample(fns, 4):
            forget_searches()
            fresh = {key: render(w) for key, w in represent_variants(fn, base).items()}
            forget_searches()
            closure(base, 3)
            assert {key: render(w) for key, w in represent_variants(fn, base).items()} == fresh


@pytest.mark.parametrize("witnesses", [False, True])
def test_closure_budget_raises_clone_error(witnesses):
    # the arity-4 fragment of BF has 65,536 functions; composing all pairs
    # of them would take far more than the budget
    start = time.perf_counter()
    with pytest.raises(CloneError, match="compositions"):
        closure(catalog_entry("BF").base, 4, witnesses=witnesses)
    assert time.perf_counter() - start < 30


# The work of a search over each catalog base of the clone-search
# benchmark at k = 3: (tables settled, argument tuples composed).  Equal
# code settles and composes the same, so these move only when what a
# search composes, or where it stops, changes.
SEARCH_WORK = {
    "BF": (256, 53_112), "R0": (128, 32_768), "R1": (128, 32_768), "R2": (64, 266_240),
    "M": (20, 800), "M1": (19, 722), "M2": (18, 648), "S0": (38, 1_444),
    "S1": (38, 1_444), "S02": (19, 6_859), "S00": (10, 1_000), "S12": (19, 6_859),
    "S10": (10, 1_000), "D": (16, 4_096), "D1": (8, 512), "D2": (4, 64),
    "L": (16, 256), "L0": (8, 64), "L2": (4, 64), "L3": (8, 512), "E": (9, 81),
    "E2": (7, 49), "V": (9, 81), "V2": (7, 49), "N": (8, 8), "N2": (6, 6),
    "I": (5, 5), "I2": (3, 3), "S0^2": (40, 65_600), "S1^3": (38, 2_086_580),
}


def test_search_compositions_pinned():
    for name, work in SEARCH_WORK.items():
        search = clones._Search(catalog_entry(name).base, 3)
        assert (len(search.index), search.spent) == work, name
    # the search behind the arity-4 S0 closure golden
    search = clones._Search(catalog_entry("S0").base, 4)
    assert (len(search.index), search.spent) == (942, 887_364)


GOLDEN_CLOSURE3_BF_SHA256 = \
    "3da7963dcce526e50b8de977713136aa8e3f36d1be46be165eca0d96c80f98f0"


def test_cached_searches_leak_nothing():
    # a search's start is cached per base and arity, and the functions it
    # settles are interned: a caller that empties what it got back, or a
    # base with the same connective names over other functions, must not
    # change a later result
    def bf_witnesses():
        cs = closure(catalog_entry("BF").base, 3)
        digest = hashlib.sha256()
        for fn in cs.functions():
            digest.update(f"{fn.bitstring}\t{render(cs.witness(fn))}\n".encode())
        found = len(cs), digest.hexdigest()
        cs.entries.clear()
        return found

    assert bf_witnesses() == bf_witnesses() == (256, GOLDEN_CLOSURE3_BF_SHA256)

    clone, source, expected = GOLDEN_REPRESENT4[3]
    base = catalog_entry(clone).base
    fn = truth_table(parse(source, base), ["x1", "x2", "x3", "x4"])
    first = represent_variants(fn, base)
    rendered = {key: render(w) for key, w in first.items()}
    assert rendered[0, 0] == expected
    first.clear()
    assert {key: render(w) for key, w in represent_variants(fn, base).items()} == rendered
    assert render(represent(fn, base)) == expected

    for fn, family in ((AND_FN, "E2"), (OR_FN, "V2")):
        cs = closure(Base([Connective("f", fn)]), 3)
        assert set(cs.entries) == {g for g in all_functions(3)
                                   if catalog_entry(family).predicate(g)}
        for g, w in cs.entries.items():
            assert truth_table(w, ["x1", "x2", "x3"]) == g

    assert boolfun._variant(AND_FN, 0, 0) is AND_FN


def test_search_history_does_not_matter():
    # a kept search is grown from wherever earlier calls left it: every
    # result, and the search itself, must be what one new search gives
    rng = random.Random(0x48)
    bases = [catalog_entry(name).base for name in SEARCH_WORK]
    bases += [random_base(rng, f"h{i}_") for i in range(3)]
    for base in bases:
        fresh = clones._Search(base, 3)
        state = list(fresh.index), fresh.keys, fresh.spent
        witnesses = {clones._function(t, 3): render(fresh.witness(i))
                     for t, i in fresh.index.items()}
        fns = list(witnesses)
        early, late = fns[len(fns) // 2], fns[-1]
        variants = {(q, p): witnesses[v] for q in (0, 1) for p in range(8)
                    if (v := boolfun._variant(early, q, p)) in witnesses}
        calls = {
            "early": lambda: render(represent(early, base)),
            "late": lambda: render(represent(late, base)),
            "variants": lambda: {key: render(w)
                                 for key, w in represent_variants(early, base).items()},
            "sets": lambda: set(closure(base, 3, witnesses=False).entries),
            "witnesses": lambda: {f: render(w) for f, w in closure(base, 3).entries.items()},
        }
        expected = {"early": witnesses[early], "late": witnesses[late],
                    "variants": variants, "sets": set(witnesses), "witnesses": witnesses}
        for order in (["early", "late", "variants", "sets", "witnesses"],
                      ["variants", "late", "early", "witnesses", "sets"]):
            forget_searches()
            for name in order:
                assert calls[name]() == expected[name], (base, order, name)
            [kept] = kept_searches(base, 3)
            assert (list(kept.index), kept.keys, kept.spent) == state, base
            assert not kept.blocks

    # at k = 4, forwards each call but the first resumes the search the
    # one before left, and backwards each reads a search grown past it
    rows = itertools.groupby(GOLDEN_REPRESENT4, key=lambda row: row[0])
    for clone, group in rows:
        base = catalog_entry(CloneName.parse(clone)).base
        group = [(truth_table(parse(source, base), ["x1", "x2", "x3", "x4"]), expected)
                 for _, source, expected in group]
        for order in (group, group[::-1]):
            forget_searches()
            for fn, expected in order:
                assert render(represent(fn, base)) == expected


def test_interrupted_search_is_discarded(monkeypatch):
    # a search that raises as it grows may stop mid-layer; the next call
    # must start afresh, not resume it
    class Interrupt(BaseException):
        pass

    bf = catalog_entry("BF").base
    early = truth_table(parse("x1 & x2", bf), ["x1", "x2", "x3"])
    lanes = clones._Search._lanes

    def third_call_raises():
        calls = itertools.count(1)

        def interrupted(self, *args):
            if next(calls) == 3:
                raise Interrupt
            return lanes(self, *args)
        monkeypatch.setattr(clones._Search, "_lanes", interrupted)

    failures = [
        (CloneError, lambda: monkeypatch.setattr(
            clones, "CLOSURE_COMPOSITION_BUDGET", SEARCH_WORK["BF"][1] - 1)),
        (Interrupt, third_call_raises),
    ]
    for (error, fail), warm in itertools.product(failures, (False, True)):
        forget_searches()
        if warm:        # the failing call resumes a kept search
            assert render(represent(early, bf)) == "x1 & x2"
        fail()
        with pytest.raises(error):
            closure(bf, 3)
        assert kept_searches(bf, 3) == []
        monkeypatch.undo()
        cs = closure(bf, 3)
        digest = hashlib.sha256()
        for fn in cs.functions():
            digest.update(f"{fn.bitstring}\t{render(cs.witness(fn))}\n".encode())
        assert (len(cs), digest.hexdigest()) == (256, GOLDEN_CLOSURE3_BF_SHA256)
        [search] = kept_searches(bf, 3)
        assert (len(search.index), search.spent) == SEARCH_WORK["BF"]



def test_threads_share_kept_searches():
    # more threads than cores grow and read the same kept searches at
    # once, with frequent thread switches: every result must still be the
    # one a new search gives
    bases = [catalog_entry(name).base for name in ("BF", "R2", "S0^2", "D")]
    expected = {}
    for base in bases:
        search = clones._Search(base, 3)
        expected[base] = {clones._function(t, 3): render(search.witness(i))
                          for t, i in search.index.items()}
    forget_searches()
    wrong, done = [], []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(12):
            base = rng.choice(bases)
            if rng.random() < 0.2:
                found = {f: render(w) for f, w in closure(base, 3).entries.items()}
                wrong.extend([base] if found != expected[base] else [])
            else:
                fn = rng.choice(list(expected[base]))
                wrong.extend([base] if render(represent(fn, base)) != expected[base][fn] else [])
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == list(range(6)) and wrong == []
