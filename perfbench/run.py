"""Benchmark runner for the postlattice package.

    python3 perfbench/run.py --workload translate --seed 1 --seconds 20 --trace 0

Builds the workload's ops from the seed, runs them in a closed loop (one
client, no threads) against the package under ``src/`` -- a fixed number
of whole cycles, about ``--seconds`` of op time at the seed -- checks
every output outside the timed region, runs the workload's crash probes
in a capped child process, and prints the metrics.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (plus an untraced run in a fresh child
process, for the tracing overhead).  Exits 1 when an output is wrong and
2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from loop import (DIGEST_OPS, api_table, by_class, geomean, ops_per_s, percentile, run_loop,
                  use_alarm)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Address-space cap of the benchmark's own process.  A blow-up past it
#: raises MemoryError inside the op, which counts as a failed op.
MEMORY_CAP_BYTES = 3 << 30
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
#: No new cycle starts after this much loop wall time, so that a run ends
#: within its time limit even on a much slower commit; a traced run runs
#: two loops.
LOOP_WALL_S = 110
TRACE_LOOP_WALL_S = 55
#: Where the traced run writes its spans, relative to the checkout root.
SPANS_DIR = "perfbench-spans"

SETUP_CODE = ("import resource, time; t = time.perf_counter(); import postlattice; "
              "from postlattice.clones import catalog; catalog(); "
              "print(time.perf_counter() - t, "
              "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[float, float]:
    """Median seconds and peak resident MB of a fresh interpreter that
    imports the package and builds the clone catalog."""
    times, rss = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        seconds, mb = done.stdout.split()
        times.append(float(seconds))
        rss.append(float(mb))
    return statistics.median(times), statistics.median(rss)


def run_probes(workload: str) -> list[dict]:
    from probes import probes_for
    names = probes_for(workload)
    try:
        done = subprocess.run([sys.executable, str(HERE / "probes.py"), workload],
                              env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.splitlines()
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or b""
        lines = (out.decode() if isinstance(out, bytes) else out).splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    seen = {r["name"] for r in results}
    results += [{"name": n, "outcome": "probe process died", "s": 0.0}
                for n in names if n not in seen]
    return results


def median_latency_ms(records) -> float:
    """Per class median latency, geometric mean over classes.  Printed
    but not a bounded metric: on a VM whose core speed swings between
    runs it spread past any allowed bound over ten seeds."""
    return 1000 * geomean(percentile(v, 0.5) for v in by_class(records, lambda r: r.seconds).values())


def end_to_end(records, probes, setup) -> dict:
    """The end-to-end metrics, balanced over op classes: each statistic is
    taken per class and combined by geometric mean across classes (the
    29 translate pairs, the depth modes and chain lengths, the
    clone-search calls).  Every run executes the same ops per class, and
    one heavy-tailed class (the D->D fallback, an S02 blow-up) cannot
    swing a whole run's figure.  ``fail_share`` is the plain mean of the
    classes' failure shares and each probe's 0 or 1."""
    latencies = by_class(records, lambda r: r.seconds)
    failures = by_class(records, lambda r: not r.completed)
    sizes = {c: [s for r in rs for s in r.sizes]
             for c, rs in by_class([r for r in records if r.completed], lambda r: r).items()}
    sizes = {c: v for c, v in sizes.items() if v}
    shares = [sum(v) / len(v) for v in failures.values()]
    shares += [float(p["outcome"] != "pass") for p in probes]
    return {
        "setup_s": (setup[0], "s"),
        "setup_rss_mb": (setup[1], "MB"),
        "ops_per_s": (ops_per_s(records), "1/s"),
        "latency_p90_ms": (1000 * geomean(percentile(v, 0.9) for v in latencies.values()), "ms"),
        "fail_share": (statistics.fmean(shares), "share"),
        "out_nodes_mean": (geomean(statistics.fmean(v) for v in sizes.values()), "nodes"),
        "out_nodes_p90": (geomean(percentile(v, 0.9) for v in sizes.values()), "nodes"),
    }


def untraced_ops_per_s(args, seconds: float) -> float:
    """ops_per_s of an untraced loop in a fresh process, so that both
    sides of the overhead comparison start with cold caches."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(seconds),
                           "--trace", "0", "--loop-only"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["ops_per_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--loop-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "postlattice" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    import postlattice
    if Path(postlattice.__file__).resolve().parent != SRC / "postlattice":
        print(f"imported postlattice from {postlattice.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    use_alarm()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    api = api_table()

    if args.loop_only:
        records, _ = run_loop(workload, api, args.seconds, TRACE_LOOP_WALL_S)
        print(json.dumps({"ops_per_s": ops_per_s(records)}))
        return 0

    setup = measure_setup()
    probes = run_probes(args.workload)
    for p in probes:
        print(f"probe {p['name']}: {p['outcome']} ({p['s']:.3f} s)")

    if args.trace:
        from layers import traced_run
        base_rate = untraced_ops_per_s(args, args.seconds / 2)
        spans_path = HERE.parent / SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        records, digest, metrics = traced_run(workload, api, args.seconds / 2,
                                              TRACE_LOOP_WALL_S, base_rate, spans_path)
        print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    else:
        records, digest = run_loop(workload, api, args.seconds, LOOP_WALL_S)
        metrics = end_to_end(records, probes, setup)

    wrong = [r for r in records if r.wrong]
    errors: dict[str, int] = {}
    for r in records:
        if r.error:
            errors[r.error] = errors.get(r.error, 0) + 1
    print(f"{args.workload}: {len(records)} ops, {sum(len(r.sizes) for r in records)} "
          f"formulas emitted, errors {errors or 'none'}, wrong outputs {len(wrong)}")
    for r in wrong[:5]:
        print(f"  wrong {r.cls}: {r.wrong}")
    print(f"digest of the first {min(DIGEST_OPS, len(records))} outputs: {digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  latency_p50_ms (not bounded) = {median_latency_ms(records):.6g} ms")
    failed = sum(not r.completed for r in records) + sum(
        p["outcome"] != "pass" for p in probes)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records) + len(probes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
