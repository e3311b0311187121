"""The closed loop that runs a workload's ops under a per-op time budget."""

from __future__ import annotations

import math
import signal
import statistics
import time

from check import Digest

#: Outputs of the first ops of a run go into the printed digest.
DIGEST_OPS = 300


class OpOverrun(BaseException):
    """Raised from the alarm handler when an op exceeds its budget; a
    BaseException so that no ``except Exception`` in the package can
    swallow it."""


def _alarm(signum, frame):
    raise OpOverrun()


def use_alarm() -> None:
    """Route SIGALRM to the op budget."""
    signal.signal(signal.SIGALRM, _alarm)


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest value with at least a share
    ``q`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def by_class(records, value) -> dict:
    """``value(record)`` of every record, grouped by op class."""
    out: dict = {}
    for r in records:
        out.setdefault(r.cls, []).append(value(r))
    return out


def ops_per_s(records) -> float:
    """Geometric mean over op classes of each class's completed ops per
    second of op time (a class with no completed op counts half a one)."""
    return geomean(max(sum(ok for ok, _ in v), 0.5) / sum(s for _, s in v)
                   for v in by_class(records, lambda r: (r.completed, r.seconds)).values())


def api_table() -> dict:
    """The public entry points the workloads call, by name; the traced
    run swaps in wrapped versions."""
    from postlattice import clones, formula, reductions, restructure
    return {"parse": formula.parse, "render": formula.render,
            "equivalent": formula.equivalent, "size": formula.size,
            "depth": formula.depth, "leaf_count": formula.leaf_count,
            "restructure_full": restructure.restructure_full,
            "restructure_monotone_g": restructure.restructure_monotone_g,
            "restructure_monotone_h": restructure.restructure_monotone_h,
            "theorem_reduce": reductions.theorem_reduce,
            "clone_of": clones.clone_of, "closure": clones.closure,
            "represent": clones.represent}


class Record:
    """What one op did: its latency, whether it completed and passed its
    check, and the tree sizes of the formulas it emitted."""

    __slots__ = ("cls", "case", "seconds", "error", "wrong", "sizes", "distinct")

    def __init__(self, op, seconds, error):
        self.cls, self.case = op.cls, op.case
        self.seconds, self.error = seconds, error
        self.wrong = ""
        self.sizes: list[int] = []
        self.distinct = 0

    @property
    def completed(self) -> bool:
        return self.error is None and not self.wrong


def cycles_for(workload, seconds: float) -> int:
    """Whole cycles a run of ``seconds`` executes: a fixed amount of work,
    about ``seconds`` of op time at the seed, so that two runs (and two
    commits) measure the same ops whatever their speed."""
    return max(1, math.ceil(seconds / workload.nominal_cycle_s))


def run_loop(workload, api, seconds: float, max_wall_s: float, tracer=None, observe=None):
    """Run the workload's cycles for ``seconds`` (see ``cycles_for``),
    starting no new cycle after ``max_wall_s`` of wall time.  The ops of
    a cycle run back to back; their outputs are checked after the cycle,
    so the checker's memory traffic does not land in the next op's
    latency.  Returns the records and the digest of the first outputs."""
    digest = Digest()
    records: list[Record] = []
    wall_start = time.perf_counter()
    budget = workload.op_budget_s
    for _ in range(cycles_for(workload, seconds)):
        if time.perf_counter() - wall_start > max_wall_s:
            break
        done = []
        for op in workload.cycle():
            if tracer is not None:
                tracer.op = len(records)
            error = None
            result = None
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    result = workload.run(op, api)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = time.perf_counter() - start
            except OpOverrun:
                error, elapsed = "overrun", budget
            except Exception as exc:    # a crashing op is a failed op, not a crashed run
                error, elapsed = type(exc).__name__, time.perf_counter() - start
            record = Record(op, elapsed, error)
            records.append(record)
            if observe is not None:
                observe(record)
            done.append((op, record, result))
        for op, record, result in done:
            if record.error is None:
                outcome = workload.check(op, result)
                record.wrong = outcome.why
                record.sizes = [shape.size for _, shape in outcome.formulas]
                record.distinct = sum(shape.distinct for _, shape in outcome.formulas)
                text = outcome.digest
            else:
                text = f"error {record.error}"
            if digest.count < DIGEST_OPS:
                digest.add(text)
        del done
    return records, digest.hexdigest()
