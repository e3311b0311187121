import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from postlattice import boolfun
from postlattice.boolfun import (
    AND_FN,
    ArityError,
    BooleanFunction,
    CONST0_FN,
    CONST1_FN,
    FunctionLiteralError,
    G_FN,
    ID_FN,
    IFF_FN,
    IMP_FN,
    INFINITE,
    MAJ3_FN,
    NIMP_FN,
    NOT_FN,
    OR_FN,
    XOR_FN,
    _kernel,
    apply,
    dual,
    format_function_literal,
    is_affine,
    is_c_reproducing,
    is_conjunction,
    is_disjunction,
    is_essentially_unary,
    is_monotone,
    is_projection_or_constant,
    is_self_dual,
    parse_function_literal,
    separating_degree,
    threshold,
)

from conftest import (
    all_functions,
    oracle_affine,
    oracle_apply,
    oracle_compose,
    oracle_conjunction,
    oracle_disjunction,
    oracle_essentially_unary,
    oracle_monotone,
    oracle_projection_or_constant,
    oracle_self_dual,
    oracle_separating_degree,
    random_function,
)


def test_literals():
    name, fn = parse_function_literal("and/2:0001")
    assert name == "and" and fn == AND_FN
    assert format_function_literal("and", AND_FN) == "and/2:0001"
    with pytest.raises(FunctionLiteralError):
        parse_function_literal("and/2:001")
    with pytest.raises(FunctionLiteralError):
        parse_function_literal("and:0001")
    with pytest.raises(FunctionLiteralError):
        BooleanFunction(1, (0, 2))
    with pytest.raises(FunctionLiteralError):
        BooleanFunction.from_bitstring(1, "0a")


def test_value_row_order():
    # first argument is the high bit
    assert IMP_FN.value((1, 0)) == 0
    assert IMP_FN.value((0, 1)) == 1
    assert IMP_FN.bitstring == "1101"
    with pytest.raises(ArityError):
        IMP_FN.value((1,))


def test_dual():
    assert dual(AND_FN) == OR_FN
    assert dual(MAJ3_FN) == MAJ3_FN
    assert dual(CONST1_FN) == CONST0_FN
    for f in all_functions(2):
        assert dual(dual(f)) == f


def test_reproducing():
    assert is_c_reproducing(AND_FN, 0) and is_c_reproducing(AND_FN, 1)
    assert is_c_reproducing(XOR_FN, 0) and not is_c_reproducing(XOR_FN, 1)
    assert is_c_reproducing(IFF_FN, 1) and not is_c_reproducing(IFF_FN, 0)


def test_monotone():
    assert is_monotone(AND_FN) and is_monotone(OR_FN)
    assert not is_monotone(NOT_FN)
    assert is_monotone(MAJ3_FN)


def test_self_dual():
    assert is_self_dual(NOT_FN)
    assert is_self_dual(MAJ3_FN)
    assert not is_self_dual(AND_FN)


def test_affine():
    assert is_affine(XOR_FN)
    assert is_affine(IFF_FN)
    assert not is_affine(AND_FN)
    assert is_affine(CONST0_FN) and is_affine(CONST1_FN)


def test_essentially_unary():
    assert is_essentially_unary(NOT_FN)
    assert is_essentially_unary(BooleanFunction(2, (0, 1, 0, 1)))  # projection
    assert not is_essentially_unary(AND_FN)


def test_shape_predicates():
    assert is_conjunction(AND_FN) and not is_conjunction(OR_FN)
    assert is_disjunction(OR_FN) and not is_disjunction(AND_FN)
    assert is_conjunction(CONST0_FN) and is_disjunction(CONST0_FN)
    assert is_projection_or_constant(ID_FN)
    assert not is_projection_or_constant(NOT_FN)


def test_separating_degree_examples():
    assert separating_degree(IMP_FN, 0) == INFINITE
    assert separating_degree(MAJ3_FN, 1) == 2
    assert separating_degree(CONST0_FN, 1) == INFINITE  # empty preimage
    assert separating_degree(NOT_FN, 0) == 0
    assert separating_degree(IMP_FN, 0) == INFINITE
    assert separating_degree(AND_FN, 0) != INFINITE


def test_separating_degree_against_oracle_arity_le_2():
    for arity in (0, 1, 2):
        for f in all_functions(arity):
            for c in (0, 1):
                assert separating_degree(f, c) == oracle_separating_degree(f, c)


def test_degree_duality_up_to_arity_3():
    for arity in (0, 1, 2, 3):
        for f in all_functions(arity):
            fd = dual(f)
            for c in (0, 1):
                assert separating_degree(f, c) == separating_degree(fd, 1 - c)
            assert is_monotone(f) == is_monotone(fd)
            assert is_affine(f) == is_affine(fd)


def test_degree_monotonicity_arity_3():
    # the reported degree m means every preimage subset of size <= m has
    # a shared c-coordinate; check that directly by brute force
    from itertools import combinations
    for f in all_functions(3):
        for c in (0, 1):
            deg = separating_degree(f, c)
            masks = set()
            for p in range(8):
                if f.bits[p] == c:
                    masks.add(sum(1 << b for b in range(3) if (p >> b) & 1 == c))
            masks = sorted(masks)
            limit = len(masks) if deg == INFINITE else min(int(deg), len(masks))
            for s in range(1, limit + 1):
                for combo in combinations(masks, s):
                    inter = (1 << 3) - 1
                    for m in combo:
                        inter &= m
                    assert inter != 0


def test_threshold():
    assert threshold(2) == MAJ3_FN
    assert threshold(2).bitstring == "00010111"
    assert threshold(1) == OR_FN
    assert dual(threshold(2)) == MAJ3_FN
    with pytest.raises(ArityError):
        threshold(6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_threshold_properties(n):
    t = threshold(n)
    assert is_monotone(t)
    assert is_c_reproducing(t, 1)
    if n >= 2:
        # n = 1 degenerates to the disjunction, which is 0-separating
        assert separating_degree(t, 0) != INFINITE
    assert separating_degree(t, 1) == n


def test_apply():
    proj1 = BooleanFunction(2, (0, 0, 1, 1))
    assert apply(OR_FN, [proj1, proj1]) == proj1
    assert apply(NOT_FN, [AND_FN]).bitstring == "1110"
    proj2 = BooleanFunction(2, (0, 1, 0, 1))
    assert apply(G_FN, [proj1, proj2, proj2]) == OR_FN
    with pytest.raises(ArityError):
        apply(AND_FN, [AND_FN])
    with pytest.raises(ArityError):
        apply(AND_FN, [AND_FN, NOT_FN])


def test_nimp_is_and_not():
    assert NIMP_FN == apply(AND_FN, [BooleanFunction(2, (0, 0, 1, 1)),
                                     apply(NOT_FN, [BooleanFunction(2, (0, 1, 0, 1))])])


def test_arity_cap():
    with pytest.raises(ArityError):
        BooleanFunction(7, tuple([0] * 128))
    with pytest.raises(ArityError):
        BooleanFunction(2, (0, 1))


def test_table_must_be_a_tuple():
    # a list table would compare unequal to the same tuple and could not be
    # hashed into a base, so it is refused where it is built
    with pytest.raises(FunctionLiteralError, match="must be a tuple"):
        BooleanFunction(2, [1, 1, 1, 0])


def test_function_hash_is_cached():
    f, g = BooleanFunction(2, (0, 1, 1, 0)), BooleanFunction(2, (0, 1, 1, 0))
    assert f == g and hash(f) == hash(g) == hash((2, (0, 1, 1, 0)))
    assert hash(MAJ3_FN) == hash((3, MAJ3_FN.bits))
    # the cached hash is the same in every process: a function pickled
    # under one hash seed is a dict key under another
    src = str(Path(boolfun.__file__).resolve().parents[1])
    dump = "import pickle, sys; from postlattice.boolfun import XOR_FN; " \
           "sys.stdout.buffer.write(pickle.dumps({XOR_FN: 'xor'}))"
    load = "import pickle, sys; from postlattice.boolfun import XOR_FN; " \
           "d = pickle.loads(sys.stdin.buffer.read()); " \
           "k, = d; assert d[XOR_FN] == 'xor' and {k: 1}[XOR_FN] == 1 and hash(k) == hash(XOR_FN)"
    data = None
    for seed, code in (("0", dump), ("1", load)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        data = subprocess.run([sys.executable, "-c", code], input=data, env=env,
                              capture_output=True, check=True, timeout=120).stdout
    assert pickle.loads(pickle.dumps(f)) == f and hash(pickle.loads(pickle.dumps(f))) == hash(f)


#: each table predicate with its brute-force oracle
_ORACLES = [(is_monotone, oracle_monotone), (is_self_dual, oracle_self_dual),
            (is_affine, oracle_affine), (is_essentially_unary, oracle_essentially_unary),
            (is_conjunction, oracle_conjunction), (is_disjunction, oracle_disjunction),
            (is_projection_or_constant, oracle_projection_or_constant)]


def _predicate_sample():
    """Every function of arity 0-3; at arity 4-6 seeded random tables,
    which almost never lie in a class, and seeded conjunctions,
    disjunctions, affine and self-dual functions, which do."""
    rng = random.Random(27)
    sample = [f for n in range(4) for f in all_functions(n)]
    for n in (4, 5, 6):
        rows = range(1 << n)
        for _ in range(20):
            s, c = rng.getrandbits(n), rng.getrandbits(1)
            half = [rng.getrandbits(1) for _ in range(1 << (n - 1))]
            sample += [
                random_function(rng, n),
                BooleanFunction(n, tuple(int(p & s == s) for p in rows)),
                BooleanFunction(n, tuple(int(p & s != 0) for p in rows)),
                BooleanFunction(n, tuple(c ^ bin(p & s).count("1") % 2 for p in rows)),
                BooleanFunction(n, tuple(half[p] if p < len(half) else 1 - half[rows[-1] ^ p]
                                         for p in rows))]
    return sample


def test_predicates_against_oracles():
    for f in _predicate_sample():
        for predicate, oracle in _ORACLES:
            assert predicate(f) == oracle(f), (predicate.__name__, f.arity, f.bitstring)


def test_apply_against_row_by_row_composition():
    rng = random.Random(28)
    for _ in range(300):
        m, k = rng.randint(0, 4), rng.randint(0, 6)
        f = random_function(rng, m)
        gs = [random_function(rng, k) for _ in range(m)]
        assert apply(f, gs) == (oracle_apply(f, gs) if gs else f)


def test_compose_against_minterm_oracle():
    # every function of arity 0-3 and 300 seeded ones at each arity 4-6,
    # over Python ints of 1, 8, 64 and 4,096 rows, and over the lane-packed
    # ints the witness search composes: several tables per int in 8- or
    # 16-bit lanes, the mask full in every lane, and each lane's result the
    # composition of that lane's tables; arguments lie inside the mask
    rng = random.Random(29)
    sample = [f for n in range(4) for f in all_functions(n)]
    sample += [random_function(rng, n) for n in (4, 5, 6) for _ in range(300)]
    assert len(sample) == 1178
    for f in sample:
        for rows in (1, 8, 64, 4096):
            mask = (1 << rows) - 1
            args = [rng.getrandbits(rows) for _ in range(f.arity)]
            assert _kernel(f)(mask, *args) == oracle_compose(f, args, mask), (f, rows)
        for width, full in ((8, 15), (8, 255), (16, 65535)):
            lanes = [[rng.randint(0, full) for _ in range(f.arity)]
                     for _ in range(rng.randint(2, 6))]
            packed = [sum(lane[j] << width * i for i, lane in enumerate(lanes))
                      for j in range(f.arity)]
            got = _kernel(f)(sum(full << width * i for i in range(len(lanes))), *packed)
            for i, lane in enumerate(lanes):
                assert got >> width * i & (1 << width) - 1 == \
                    oracle_compose(f, lane, full), (f, width, full, i)
