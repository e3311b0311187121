"""A fixed set of inputs that crash or blow up the package at the seed.

Each workload runs the probes of its layers in a child process (``python3
perfbench/probes.py <workload>``), capped in address space and time, so a
crash or a runaway allocation cannot take the benchmark down or inflate
its memory figure.  Probes count in ``fail_share`` and are reported one
by one, but stay out of the timing and size metrics: a later fix shows as
a probe that passes, not as a slowdown.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_BUDGET_S = 2.0
PROBE_MEMORY_BYTES = 1 << 30


def _parse(text, expect_size):
    from postlattice.formula import parse
    import check
    return lambda: check.Shape(parse(text)).size == expect_size


def _restructure_g(leaves):
    from postlattice.restructure import restructure_monotone_g
    import check
    import inputs
    phi = inputs.chain(random.Random(leaves), inputs.MONOTONE_LINKS, leaves)
    return lambda: check.same_function(phi, restructure_monotone_g(phi))


def _closure_bf4(witnesses):
    from postlattice.clones import catalog_entry, closure
    import check

    def run():
        result = closure(catalog_entry("BF").base, 4, witnesses=witnesses)
        if len(result) != 1 << 16:
            return False
        return not witnesses or all(check.computes(w, f) for f, w in result.entries.items())
    return run


def _represent_xor4():
    from postlattice.boolfun import BooleanFunction
    from postlattice.clones import catalog_entry, represent
    import check
    xor4 = BooleanFunction(4, tuple(bin(row).count("1") & 1 for row in range(16)))
    return lambda: check.computes(represent(xor4, catalog_entry("BF").base), xor4)


def _closure_witness(name, k):
    from postlattice.clones import CloneName, catalog_entry, closure
    base = catalog_entry(CloneName.parse(name)).base
    return lambda: len(closure(base, k, witnesses=True)) > 0


PROBES = {
    "parse_paren_1200": ("translate depth", lambda: _parse("(" * 1200 + "x" + ")" * 1200, 1)),
    "parse_imp_chain_2000": ("translate depth", lambda: _parse(" -> ".join(["x"] * 2001), 4001)),
    "restructure_g_chain_512": ("depth", lambda: _restructure_g(512)),
    "restructure_g_chain_1024": ("depth", lambda: _restructure_g(1024)),
    "closure_BF_4_sets": ("clone-search", lambda: _closure_bf4(False)),
    "closure_BF_4_witness": ("clone-search", lambda: _closure_bf4(True)),
    "closure_S1^3_3_witness": ("clone-search", lambda: _closure_witness("S1^3", 3)),
    "represent_xor4_over_BF": ("clone-search", _represent_xor4),
}


def probes_for(workload: str) -> list[str]:
    return [name for name, (where, _) in PROBES.items() if workload in where.split()]


class _Overrun(BaseException):
    """Raised from the alarm handler; a BaseException so that no
    ``except Exception`` inside the package swallows it."""


def _alarm(signum, frame):
    raise _Overrun()


def run_probe(name: str) -> dict:
    """Run one probe under the time budget; never raises."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, PROBE_BUDGET_S)
        try:
            passed = PROBES[name][1]()()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "pass" if passed else "wrong output"
    except _Overrun:
        outcome = f"over the {PROBE_BUDGET_S:g} s budget"
    except Exception as exc:    # a probe's crash is its result
        outcome = type(exc).__name__
    return {"name": name, "outcome": outcome, "s": time.perf_counter() - start}


def main(workload: str) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))
    signal.signal(signal.SIGALRM, _alarm)
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    for name in probes_for(workload):
        print(json.dumps(run_probe(name)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
