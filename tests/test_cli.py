"""Golden tests for the command-line surface: every subcommand has at
least one byte-exact expectation in JSON mode and one in text mode."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import postlattice
from postlattice import cli, reductions
from postlattice.cli import main
from postlattice.formula import equivalent, evaluate, parse, Base
from postlattice.clones import G
from postlattice.restructure import depth_bound


GOLDEN = [
    (["--json", "parse", "--formula", "x & (y | z)"],
     '{"formula": "x & (y | z)", "size": 5, "depth": 2, "leaf_count": 3, '
     '"vars": ["x", "y", "z"]}'),
    (["--json", "eval", "--formula", "x -/> y", "--assign", "x=1,y=0"],
     '{"value": 1}'),
    (["--json", "table", "--formula", "(x&y)|(x&z)|(y&z)"],
     '{"vars": ["x", "y", "z"], "table": "00010111"}'),
    (["--json", "id", "--fn", "imp/2:1101"],
     '{"clone": "S0"}'),
    (["--json", "closure", "--fn", "g/3:00011111", "--arity", "2"],
     '{"arity": 2, "count": 3, "functions": [{"table": "0011", "witness": "x1"}, '
     '{"table": "0101", "witness": "x2"}, '
     '{"table": "0111", "witness": "g(x1, x2, x2)"}]}'),
    (["--json", "represent", "--target", "or/2:0111", "--fn", "g/3:00011111"],
     '{"formula": "g(x1, x2, x2)"}'),
    (["--json", "member", "--target", "nimp/2:0010",
      "--fn", "and/2:0001", "--fn", "not/1:10"],
     '{"member": true}'),
    (["--json", "classify-sat", "--fn", "nand/2:1110"],
     '{"classification": "NP-complete"}'),
    (["--json", "depth-reduce", "--formula", "x ^ y", "--mode", "full"],
     '{"formula": "y & !x | !y & x", "mode": "full", "size_in": 3, '
     '"depth_in": 1, "leaf_count": 2, "size_out": 9, "depth_out": 3, '
     '"equivalent": true}'),
    (["--json", "reduce", "--formula", "g(x,y,y)",
      "--from-fn", "g/3:00011111", "--to-fn", "g/3:00011111"],
     '{"formula": "g(x, y, y)", '
     '"target": ["g/3:00011111", "and/2:0001"], "extra": "and", '
     '"depth_in": 1, "depth_out": 1, "size_in": 4, '
     '"size_out": 4, "equivalent": true}'),
    (["--json", "canonical", "--fn", "xor/2:0110", "--fn", "1/0:1"],
     '{"clone": "L", "connectives": ["xor", "1"], "note": "two-way '
     'equivalence; both directions via theorem_reduce"}'),
    (["--json", "verify", "--formula", "x^y", "--formula2", "(x&!y)|(!x&y)"],
     '{"equivalent": true}'),
]


#: The dual halves of the reduction and restructuring code: case (e) via
#: reduce_S10, case (e) via reduce_S12, and the h restructurer.
GOLDEN_DUAL = [
    pytest.param(
        ["--json", "reduce", "--formula", "h(x,y,y)",
         "--from-fn", "h/3:00000111", "--to-fn", "h/3:00000111"],
        '{"formula": "h(x, y, y)", '
        '"target": ["h/3:00000111", "or/2:0111"], "extra": "or", '
        '"depth_in": 1, "depth_out": 1, "size_in": 4, '
        '"size_out": 4, "equivalent": true}',
        id="reduce-S10"),
    pytest.param(
        ["--json", "reduce", "--formula", "hn(x,x,y)",
         "--from-fn", "hn/3:00001011", "--to-fn", "hn/3:00001011"],
        '{"formula": "x", "target": ["hn/3:00001011", "or/2:0111"], '
        '"extra": "or", "depth_in": 1, "depth_out": 0, '
        '"size_in": 4, "size_out": 1, "equivalent": true}',
        id="reduce-S12"),
    pytest.param(
        ["--json", "depth-reduce", "--formula", "(x | y) & (z | w)", "--mode", "h"],
        '{"formula": "h(h(1, w, z), 0, h(1, y, x))", "mode": "h", '
        '"size_in": 7, "depth_in": 2, "leaf_count": 4, "size_out": 10, '
        '"depth_out": 3, "equivalent": true}',
        id="depth-reduce-h"),
    # the adjoined and clashes with the target's own connective named and
    pytest.param(
        ["--json", "reduce", "--formula", "g(x,y,z)", "--from-fn", "g/3:00011111",
         "--to-fn", "and/2:0111", "--to-fn", "g/3:00011111"],
        '{"formula": "g(x, y, z)", '
        '"target": ["and/2:0111", "g/3:00011111", "and\'/2:0001"], "extra": "and", '
        '"depth_in": 1, "depth_out": 1, "size_in": 4, '
        '"size_out": 4, "equivalent": true}',
        id="reduce-renamed-extra"),
]


#: A subformula over at most three propositions written whole, by the
#: smallest witness of its function over the target.
GOLDEN_RESYNTHESIS = [
    pytest.param(
        ["--json", "reduce", "--formula", "g(x,y,y)", "--from-fn", "g/3:00011111",
         "--to-fn", "and/2:0001", "--to-fn", "or/2:0111"],
        '{"formula": "x | y", "target": ["and/2:0001", "or/2:0111"], "extra": "and", '
        '"depth_in": 1, "depth_out": 1, "size_in": 4, "size_out": 3, "equivalent": true}',
        id="reduce-resynthesis"),
]


#: Text mode: (argv, exit code, stdout, stderr), each byte-exact.
GOLDEN_TEXT = [
    (["parse", "--formula", "x & (y | z)"], 0, "x & (y | z)\n", ""),
    (["eval", "--formula", "x -/> y", "--assign", "x=1,y=0"], 0, "1\n", ""),
    (["table", "--formula", "(x&y)|(x&z)|(y&z)"], 0, "00010111\n", ""),
    (["id", "--fn", "imp/2:1101"], 0, "S0\n", ""),
    (["closure", "--fn", "g/3:00011111", "--arity", "2"], 0,
     "0011\tx1\n0101\tx2\n0111\tg(x1, x2, x2)\n", ""),
    (["represent", "--target", "or/2:0111", "--fn", "g/3:00011111"], 0,
     "g(x1, x2, x2)\n", ""),
    (["member", "--target", "nimp/2:0010", "--fn", "and/2:0001", "--fn", "not/1:10"],
     0, "true\n", ""),
    (["classify-sat", "--fn", "nand/2:1110"], 0, "NP-complete\n", ""),
    (["depth-reduce", "--formula", "x ^ y", "--mode", "full"], 0,
     "depth 1 -> 3, size 3 -> 9\ny & !x | !y & x\n", ""),
    (["reduce", "--formula", "g(x,y,y)",
      "--from-fn", "g/3:00011111", "--to-fn", "g/3:00011111"], 0,
     "target: g, and (extra: and)\ndepth 1 -> 1, size 4 -> 4\ng(x, y, y)\n", ""),
    (["canonical", "--fn", "xor/2:0110", "--fn", "1/0:1"], 0, "L -> {xor, 1}\n", ""),
    (["verify", "--formula", "x^y", "--formula2", "(x&!y)|(!x&y)"], 0,
     "equivalent\n", ""),
    (["parse", "--formula", "x &"], 1, "",
     "error: unexpected end of input (at position 3)\n"),
]


@pytest.mark.parametrize(
    "argv,expected",
    [pytest.param(argv, expected, id=argv[1]) for argv, expected in GOLDEN]
    + GOLDEN_DUAL + GOLDEN_RESYNTHESIS)
def test_golden_json(argv, expected, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == expected + "\n"


@pytest.mark.parametrize(
    "argv,code,out,err",
    [pytest.param(*row, id=row[0][0] if row[1] == 0 else "domain-error")
     for row in GOLDEN_TEXT])
def test_golden_text(argv, code, out, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


#: sha256 of ``postlattice lattice --max-degree 2`` in text mode: 147 lines,
#: nodes and then covering edges, each in catalog order
LATTICE_SHA256 = "5bf1dc1b5766df41c9004a6a8635fc67026bece17448066df542288862d6cb57"


def test_golden_lattice(capsys):
    assert main(["lattice", "--max-degree", "2"]) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (LATTICE_SHA256, "")
    # JSON mode wraps the same DOT text in one object
    assert main(["--json", "lattice", "--max-degree", "2"]) == 0
    assert capsys.readouterr() == (json.dumps({"dot": out[:-1]}) + "\n", "")


def test_eval_strips_spaces_around_assignments(capsys):
    assert main(["--json", "eval", "--formula", "x -/> y",
                 "--assign", "x = 1, y = 0"]) == 0
    assert capsys.readouterr().out == '{"value": 1}\n'


def test_eval_rejects_an_empty_name(capsys):
    assert main(["--json", "eval", "--formula", "x", "--assign", "=1"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "bad assignment entry '=1'"}


def test_eval_rejects_a_repeated_name(capsys):
    assert main(["--json", "eval", "--formula", "x", "--assign", "x=1,x=0"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "bad assignment entry 'x=0': 'x' assigned twice"}


def test_table_strips_spaces_around_variable_names(capsys):
    assert main(["--json", "table", "--formula", "x & y", "--vars", "x, y"]) == 0
    assert json.loads(capsys.readouterr().out) == {"vars": ["x", "y"], "table": "0001"}


def test_reduce_output_is_equivalent_independently(capsys):
    assert main(["--json", "reduce", "--formula", "g(x,y,y)",
                 "--from-fn", "g/3:00011111", "--to-fn", "g/3:00011111"]) == 0
    payload = json.loads(capsys.readouterr().out)
    base = Base([G])
    assert equivalent(parse("g(x,y,y)", base), parse(payload["formula"], base))


def test_lattice_dot_output(capsys):
    assert main(["lattice", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph post_lattice {")
    assert '"I2"' in out and out.rstrip().endswith("}")


def test_domain_error_is_single_json_object(capsys):
    assert main(["--json", "parse", "--formula", "x &"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out)        # exactly one valid JSON document
    assert set(payload) == {"error"}
    assert out.count("\n") == 1


def test_deep_formula_parses_in_json_mode(capsys, shallow_stack):
    assert main(["--json", "parse", "--formula", "(" * 1200 + "x" + ")" * 1200]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 1


def test_domain_error_text_mode(capsys):
    assert main(["id", "--fn", "bogus/2:00"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_base_is_domain_error(capsys):
    assert main(["--json", "id"]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_base_file_loading(tmp_path, capsys):
    path = tmp_path / "base.txt"
    path.write_text("# majority\nmaj3/3:00010111\n")
    assert main(["--json", "id", "--base", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"clone": "D2"}


@pytest.mark.parametrize("argv", [
    ["id", "--base", "{tmp}/missing.txt"],
    ["id", "--base", "{tmp}"],
    ["reduce", "--formula", "x & y", "--from-fn", "and/2:0001",
     "--to", "{tmp}/missing.txt"],
])
def test_unreadable_base_file_is_domain_error(argv, tmp_path, capsys):
    argv = ["--json"] + [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert set(json.loads(out)) == {"error"}
    assert out.count("\n") == 1


def test_depth_reduce_above_the_verification_cap(capsys):
    # 22 variables: restructured, with the equivalence left unchecked
    formula = " & ".join(f"x{i}" for i in range(1, 23))
    assert main(["--json", "depth-reduce", "--mode", "g", "--formula", formula]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is None
    assert payload["leaf_count"] == 22
    assert payload["depth_out"] <= depth_bound("g", 2, 22)
    # a conjunction: true at all ones, false wherever one variable is 0
    out = parse(payload["formula"], Base([G]))
    names = [f"x{i}" for i in range(1, 23)]
    assert evaluate(out, dict.fromkeys(names, 1)) == 1
    for name in names:
        assert evaluate(out, dict.fromkeys(names, 1) | {name: 0}) == 0


def test_outputs_above_the_printing_cap_are_domain_errors(capsys, monkeypatch):
    # restructuring this 4,096-leaf chain over 24 variables gives
    # 57,907,348 nodes: one JSON error naming the size, before anything is
    # rendered
    chain = "".join("x%d %s (" % (i % 24 + 1, "&|^"[i % 3]) for i in range(4095))
    argv = ["--json", "depth-reduce", "--mode", "full",
            "--formula", chain + "x16" + ")" * 4095]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == {"error": "output of 57907348 nodes exceeds the printing "
                                        f"cap {cli.OUTPUT_SIZE_CAP}"}
    assert out.count("\n") == 1
    monkeypatch.setattr(cli, "OUTPUT_SIZE_CAP", 3)
    assert main(["--json", "reduce", "--formula", "g(x,y,y)",
                 "--from-fn", "g/3:00011111", "--to-fn", "g/3:00011111"]) == 1
    assert "output of 4 nodes" in json.loads(capsys.readouterr().out)["error"]


def test_depth_reduce_checks_a_twenty_variable_chain_in_512_mib():
    # a child process capped at 512 MiB of address space restructures the
    # 4,096-leaf &| chain over x1..x20 and checks the output against it:
    # each truth table is 2^20 bits, so the check fits only if it keeps
    # one column per name and drops a table once its parents have read it
    code = textwrap.dedent("""
        import resource, sys
        from postlattice.cli import main
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 1 << 29 if hard == resource.RLIM_INFINITY else min(1 << 29, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        chain = "".join("x%d %s (" % (i % 20 + 1, "&|"[i % 3 == 0]) for i in range(4095))
        sys.exit(main(["--json", "depth-reduce", "--mode", "g",
                       "--formula", chain + "x16" + ")" * 4095]))
    """)
    src = str(Path(postlattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    payload = json.loads(done.stdout)
    assert (payload["size_out"], payload["equivalent"]) == (286, True)
    assert payload["depth_out"] <= depth_bound("g", 2, 4096)


def test_depth_reduce_refuses_before_the_certificate(capsys, monkeypatch):
    # an output above the printing cap is refused without checking its
    # equivalence
    def unreachable(*args, **kwargs):
        raise AssertionError("equivalence checked for an output never printed")

    monkeypatch.setattr(cli, "OUTPUT_SIZE_CAP", 3)
    monkeypatch.setattr(reductions, "equivalent", unreachable)
    assert main(["--json", "depth-reduce", "--mode", "g", "--formula", "x & y"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "output of 4 nodes exceeds the printing cap 3"}


def test_table_rejects_an_empty_name(capsys):
    assert main(["--json", "table", "--formula", "x & y", "--vars", "x,,y"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "bad variable list 'x,,y': an empty name"}
