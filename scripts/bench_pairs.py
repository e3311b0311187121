"""Paired before/after benchmark record: a parent commit against this checkout.

    python3 scripts/bench_pairs.py --parent HEAD --seeds 1,3,101-110 --out BENCH_<n>.json

Exports the parent revision with ``git archive`` into a temporary
directory and runs ``perfbench/run.py --trace 0`` of each side on the
same seeds, one pair per seed, alternating which side goes first.  Each
side reads and writes its own bytecode cache (``PYTHONPYCACHEPREFIX``),
byte-compiled before the first pair, so that neither side imports
compiled modules the other lacks.  For every workload of
``BENCHMARK.json`` and every end-to-end metric it writes the per-side
median and quartiles, the relative change of the medians, the number
of pairs the change wins and each pair's change/parent ratio (in seed
order, with their least and greatest), plus every run's digest, op
counts and failures.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_RE = re.compile(r"digest of the first \d+ outputs: (\w+)")


def _seeds(text: str) -> list[int]:
    """``1,3,101-110`` -> [1, 3, 101, ..., 110]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _export(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` into ``into``; return its full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def _env(cache: Path) -> dict:
    """The environment of one side's runs: bytecode is read from and
    written to ``cache`` only."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def _run(tree: Path, env: dict, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of the checkout at ``tree``."""
    done = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=tree, env=env)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    digest = next((m.group(1) for m in map(DIGEST_RE.search, lines) if m), None)
    return {"seed": seed, "exit": done.returncode, "digest": digest,
            "correct": result.get("correct"), "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _compare(spec: dict, parent: list[dict], change: list[dict]) -> dict:
    """Medians, quartiles, wins and per-pair change/parent ratios of one
    metric over the paired runs; a ratio over a parent value of 0 is None."""
    name, lower = spec["name"], spec["better"] == "lower"
    pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
             if name in p["metrics"] and name in c["metrics"]]
    if len(pairs) < 2:
        return {"pairs": len(pairs)}
    before = _summary([p for p, _ in pairs])
    after = _summary([c for _, c in pairs])
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    rel = (after["median"] - before["median"]) / before["median"] if before["median"] else None
    ratios = [c / p if p else None for p, c in pairs]
    known = [r for r in ratios if r is not None]
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "pairs": len(pairs), "parent": before, "change": after,
            "median_rel_change": rel, "change_wins": wins, "ratios": ratios,
            "ratio_min": min(known, default=None), "ratio_max": max(known, default=None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", default="101-110", help="e.g. 1,3,101-110")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        record = {"parent": _export(args.parent, parent_tree), "seeds": seeds,
                  "seconds": args.seconds, "workloads": {}}
        order = [(side, tree, _env(Path(tmp) / f"pycache-{side}"))
                 for side, tree in (("parent", parent_tree), ("change", ROOT))]
        for _, tree, env in order:
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src"),
                            str(tree / "perfbench")], env=env, check=True)
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                for side, tree, env in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(_run(tree, env, workload, seed, args.seconds))
                    run = runs[side][-1]
                    print(f"{workload} seed {seed} {side}: exit {run['exit']}, "
                          f"digest {run['digest']}", file=sys.stderr)
            record["workloads"][workload] = {
                "metrics": {spec["name"]: _compare(spec, runs["parent"], runs["change"])
                            for spec in bench["end_to_end"]},
                "runs": runs,
            }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
