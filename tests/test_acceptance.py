"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and holding to its runtime budget.  Run with ``pytest -s`` to see
the lines as they complete."""

import contextlib
import random
import time

from postlattice import boolfun
from postlattice.boolfun import AND_FN, INFINITE, NOT_FN, separating_degree
from postlattice.clones import (
    CloneName,
    catalog,
    catalog_entry,
    classify_sat,
    clone_of,
    closure,
)
from postlattice.formula import (
    AND,
    FALSE,
    NOT,
    OR,
    TRUE,
    XOR,
    Base,
    Connective,
    connectives_of,
    depth,
    equivalent,
    leaf_count,
    size,
    vars_of,
)
from postlattice.reductions import canonical_equivalent, theorem_case, theorem_reduce
from postlattice.restructure import (
    SIZE_FACTOR_FULL,
    SIZE_FACTOR_MONOTONE,
    depth_bound,
    restructure_full,
    restructure_monotone_g,
    restructure_monotone_h,
)

from conftest import (
    FULL_POOL,
    MONOTONE_POOL,
    all_functions,
    oracle_separating_degree,
    random_base,
    random_formula,
    theorem_pairs,
)


@contextlib.contextmanager
def criterion(number: int, name: str, budget: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL "
              f"({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_table_reproduction():
    with criterion(1, "Table 1 reproduction", 5.0):
        cases = 0
        for entry in catalog():
            if entry.name.degree is not None and entry.name.degree > 3:
                continue
            assert clone_of(entry.base) == entry.name, str(entry.name)
            cases += 1
        assert cases == 54


def test_criterion_2_closure_oracle_agreement():
    with criterion(2, "closure-oracle agreement", 60.0):
        rng = random.Random(0xC0FFEE)
        arity3 = list(all_functions(3))
        for i in range(500):
            base = random_base(rng, f"r{i}")
            computed = set(closure(base, 3, witnesses=False).entries)
            predicate = catalog_entry(clone_of(base)).predicate
            fragment = {f for f in arity3 if predicate(f)}
            assert computed == fragment, f"base {i}: {clone_of(base)}"


def test_criterion_3_restructuring():
    with criterion(3, "restructuring equivalence and bounds", 120.0):
        rng = random.Random(0xBEEF)
        names = [f"x{i}" for i in range(1, 9)]
        modes = (
            ("g", restructure_monotone_g, MONOTONE_POOL, SIZE_FACTOR_MONOTONE, 2),
            ("h", restructure_monotone_h, MONOTONE_POOL, SIZE_FACTOR_MONOTONE, 2),
            ("full", restructure_full, FULL_POOL, SIZE_FACTOR_FULL, 3),
        )
        for mode, build, pool, factor, exponent in modes:
            for i in range(1000):
                phi = random_formula(rng, pool, names, rng.randint(1, 60))
                assert size(phi) <= 60
                out = build(phi)
                assert equivalent(phi, out), f"{mode} #{i}"
                k = phi.max_arity
                assert depth(out) <= depth_bound(mode, k, leaf_count(phi)), \
                    f"{mode} #{i} depth"
                assert size(out) <= factor * size(phi) ** exponent, \
                    f"{mode} #{i} size"


def test_criterion_4_theorem_dispatcher():
    with criterion(4, "theorem dispatcher end to end", 120.0):
        rng = random.Random(0xACCE)
        for case, pairs in theorem_pairs().items():
            assert len(pairs) >= 3
            for source, target in pairs:
                source_clone = clone_of(source)
                assert theorem_case(source_clone) == case
                var_cap = 4 if case == "f" else 6
                names = [f"x{i}" for i in range(1, var_cap + 1)]
                pool = list(source.connectives)
                target_is_bf = clone_of(target) == CloneName("BF")
                # above D2 a functionally complete target takes both
                # constants at an existing proposition and adjoins
                # nothing; every other (f) instance adjoins the stated
                # connective
                f_extra = ("none" if target_is_bf
                           and source_clone != CloneName("D2") else "and")
                for i in range(50):
                    phi = random_formula(rng, pool, names, rng.randint(1, 25))
                    out = theorem_reduce(phi, source, target)
                    for c in connectives_of(out.formula):
                        assert out.target.contains_function(c.fn), \
                            f"{case} {c.name}"
                    assert out.certificate.equivalent is True, f"{case} #{i}"
                    if case in ("a", "b", "c", "g"):
                        assert out.extra == "none"
                    elif case == "d":
                        assert out.extra == "and"
                    elif case == "e":
                        assert out.extra == "or"
                    else:
                        assert out.extra == f_extra
                    assert vars_of(out.formula) <= vars_of(phi), f"{case} #{i}"


def test_criterion_5_sat_dichotomy():
    with criterion(5, "satisfiability dichotomy", 5.0):
        nand = Connective("nand", boolfun.apply(NOT_FN, [AND_FN]))
        nimp = Connective("nimp", boolfun.NIMP_FN)
        hard = [Base([nand]), Base([AND, NOT]), Base([nimp])]
        easy = [Base([AND, OR, FALSE, TRUE]),
                Base([Connective("imp", boolfun.IMP_FN)]),
                Base([XOR, TRUE]), Base([NOT])]
        for base in hard:
            assert classify_sat(base) == "NP-complete", repr(base)
        for base in easy:
            assert classify_sat(base) == "Logspace", repr(base)


def test_criterion_6_separating_degree_law():
    with criterion(6, "separating degree vs oracle", 600.0):
        for arity in (3, 4):
            for f in all_functions(arity):
                for c in (0, 1):
                    got = separating_degree(f, c)
                    assert got == oracle_separating_degree(f, c), \
                        (arity, f.bitstring, c)
                    assert got == INFINITE or got <= arity


def test_criterion_7_canonical_sets():
    with criterion(7, "canonical connective sets", 5.0):
        expected = {
            "BF": ("and", "or", "not"),
            "M": ("and", "or", "0", "1"),
            "L": ("xor", "1"),
            "N": ("not", "1"),
            "E": ("and", "0", "1"),
            "V": ("or", "0", "1"),
        }
        for name, want in expected.items():
            result = canonical_equivalent(catalog_entry(name).base)
            assert result.clone == CloneName(name)
            assert result.connectives == want
