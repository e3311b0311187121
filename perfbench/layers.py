"""The traced run and the per-layer metrics it reports."""

from __future__ import annotations

import resource
import statistics

import check
import spans
from loop import ops_per_s, percentile, run_loop

CASES = "abcdefg"

#: (metric, span name, what): ``s`` sums span durations, ``self_s``
#: their self time, ``calls`` counts spans.
SPAN_METRICS = [
    ("clones.represent.s", "clones.represent", "s"),
    ("clones.represent.calls", "clones.represent", "calls"),
    ("clones.represent.arity4.s", "clones.represent.arity4", "s"),
    ("clones.closure.sets.s", "clones.closure.sets", "s"),
    ("clones.closure.witness.s", "clones.closure.witness", "s"),
    ("clones.clone_of.s", "clones.clone_of", "s"),
    ("clones.clone_of.calls", "clones.clone_of", "calls"),
    ("clones.member.s", "clones.member", "s"),
    ("clones.member.calls", "clones.member", "calls"),
    ("clones.includes.calls", "clones.includes", "calls"),
    ("formula.equivalent.s", "formula.equivalent", "s"),
    ("formula.equivalent.calls", "formula.equivalent", "calls"),
    ("reductions.certificate.s", "reductions.certificate", "s"),
    ("formula.walk.s", "formula.walk", "s"),
    ("formula.walk.calls", "formula.walk", "calls"),
    ("formula.parse.s", "formula.parse", "s"),
    ("formula.render.s", "formula.render", "s"),
    ("restructure.g.s", "restructure.g", "s"),
    ("restructure.g.calls", "restructure.g", "calls"),
    ("restructure.h.s", "restructure.h", "s"),
    ("restructure.h.calls", "restructure.h", "calls"),
    ("restructure.full.s", "restructure.full", "s"),
    ("restructure.full.calls", "restructure.full", "calls"),
    ("reductions.theorem_reduce.s", "reductions.theorem_reduce", "s"),
    ("reductions.theorem_reduce.self_s", "reductions.theorem_reduce", "self_s"),
] + [(f"reductions.{p}.s", f"reductions.{p}", "s") for p in spans.PIPELINES] + [
    ("boolfun.s", "boolfun", "s"),
    ("boolfun.calls", "boolfun", "calls"),
]


def traced_run(workload, api, seconds: float, max_wall_s: float, untraced_ops_per_s: float,
               spans_path):
    """Run the workload with the module-boundary wrappers installed, write
    the spans to ``spans_path`` and return the run's records, output
    digest and per-layer metrics."""
    tracer = spans.Tracer()
    patches = spans.install(tracer, api)
    ratios, slacks, witness_sizes = [], [], []
    overruns = 0
    mark = 0

    def observe(record):
        nonlocal mark, overruns
        for name, arg, result in tracer.observed:
            shape = check.Shape(result)
            if name.startswith("restructure."):
                given = check.Shape(arg)
                ratios.append(shape.size / given.size)
                law = check.depth_law(name.split(".")[1], given.max_arity, given.leaves)
                slacks.append(law - shape.depth)
            else:
                witness_sizes.append(shape.size)
        tracer.observed.clear()
        own = tracer.spans[mark:]
        mark = len(tracer.spans)
        if record.error == "overrun" and own:
            # the spans open when the alarm fired all close while it unwinds
            last = max(s.end for s in own)
            overruns += any(s.name.startswith("clones.") and s.end > last - 0.05 for s in own)

    try:
        records, digest = run_loop(workload, api, seconds, max_wall_s, tracer, observe)
    finally:
        spans.uninstall(patches)

    spans.write(spans_path, tracer.spans)
    totals = spans.layer_totals(tracer.spans)
    metrics = {}
    for metric, span_name, what in SPAN_METRICS:
        seconds_, self_s, calls = totals.get(span_name, (0.0, 0.0, 0))
        value = {"s": seconds_, "self_s": self_s, "calls": calls}[what]
        metrics[metric] = (value, "count" if what == "calls" else "s")

    metrics["clones.represent.witness_nodes_p50"] = (
        statistics.median(witness_sizes) if witness_sizes else 0, "nodes")
    metrics["clones.budget_overruns"] = (overruns, "count")
    metrics["restructure.size_ratio_p50"] = (
        statistics.median(ratios) if ratios else 0.0, "ratio")
    metrics["restructure.depth_slack_min"] = (min(slacks) if slacks else 0.0, "levels")
    emitted = sum(s for r in records for s in r.sizes)
    distinct = sum(r.distinct for r in records)
    metrics["formula.out_distinct_ratio"] = (distinct / emitted if emitted else 0.0, "ratio")

    case_s = dict.fromkeys(CASES, 0.0)
    for span in tracer.spans:
        if span.name == "reductions.theorem_reduce":
            case_s[records[span.op].case] += span.seconds
    for case in CASES:
        sizes = [s for r in records if r.case == case for s in r.sizes]
        metrics[f"reductions.case_{case}.s"] = (case_s[case], "s")
        metrics[f"reductions.case_{case}.out_nodes_p50"] = (
            percentile(sizes, 0.5) if sizes else 0, "nodes")
        metrics[f"reductions.case_{case}.out_nodes_max"] = (max(sizes, default=0), "nodes")

    metrics["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    traced_rate = ops_per_s(records)
    metrics["trace.overhead_share"] = (
        (untraced_ops_per_s - traced_rate) / untraced_ops_per_s, "share")
    return records, digest, metrics
