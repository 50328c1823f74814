"""Metric definitions and the arithmetic that turns samples into them.

END_TO_END and PER_LAYER are the lists BENCHMARK.json repeats (selfcheck.py
compares the two). Each per-layer metric names the end-to-end metrics and
workloads it should move.
"""

from __future__ import annotations

import math
import os
import statistics

END_TO_END = (
    # name, unit, better, bound, meaning
    # Times are seconds at the reference host speed (calibrate.py); see
    # end_to_end for how samples become each figure.
    ("setup_s", "s", "lower", 0.25, "median over every op run of the fresh-process `import diagforge.cli` time"),
    ("op_total_s", "s", "lower", 0.25, "sum of op latencies over the run's op list"),
    ("op_p50_s", "s", "lower", 0.25, "median op latency over every op run"),
    ("op_tail_s", "s", "lower", 0.25, "op latency at the percentile that leaves k + 1/2 ops, >= 10 runs, beyond it"),
    ("first_out_p50_s", "s", "lower", 0.25, "median time from op start to its first stdout write, over op runs that print"),
    ("peak_rss_mb", "MB", "lower", 0.1, "highest child max-RSS over the run"),
)

PER_LAYER = (
    # name, unit, better, moves (end-to-end metric on workloads)
    ("kernel.parse.calls", "count", "lower", "op_total_s on spaces"),
    ("kernel.parse.self_s", "s", "lower", "op_total_s on spaces"),
    ("kernel.pretty.calls", "count", "lower", "op_total_s on rank (show, enum) and spaces (snapshot)"),
    ("kernel.pretty.self_s", "s", "lower", "op_total_s on rank (show, enum) and spaces (snapshot)"),
    ("kernel.check.calls", "count", "lower", "op_total_s on synth (every filling is checked)"),
    ("kernel.check.self_s", "s", "lower", "op_total_s on synth (every filling is checked)"),
    ("interp.eval.calls", "count", "lower", "op_total_s, op_tail_s on certify; op_total_s on synth, spaces; ~0 on rank"),
    ("interp.eval.self_s", "s", "lower", "op_total_s, op_tail_s on certify; op_total_s on synth, spaces; ~0 on rank"),
    ("interp.eval.exhausted", "count", "lower", "op_tail_s on certify (over-cap diag); fail/known outcomes on synth"),
    ("enumeration.layer.calls", "count", "lower", "op_total_s, peak_rss_mb on rank; op_total_s on synth"),
    ("enumeration.layer.misses", "count", "lower", "op_total_s, peak_rss_mb on rank; op_total_s on synth"),
    ("enumeration.layer.terms", "count", "lower", "op_total_s, peak_rss_mb on rank; op_total_s on synth"),
    ("enumeration.layer.self_s", "s", "lower", "op_total_s, peak_rss_mb on rank; op_total_s on synth"),
    ("enumeration.program_at.calls", "count", "lower", "op_tail_s, peak_rss_mb on rank"),
    ("enumeration.program_at.self_s", "s", "lower", "op_tail_s, peak_rss_mb on rank"),
    ("enumeration.index_of.calls", "count", "lower", "op_tail_s, peak_rss_mb on rank"),
    ("enumeration.index_of.self_s", "s", "lower", "op_tail_s, peak_rss_mb on rank"),
    ("enumeration.stream.items", "count", "lower", "op_total_s on rank (enum) and certify (refute scan)"),
    ("enumeration.stream.self_s", "s", "lower", "op_total_s on rank (enum) and certify (refute scan)"),
    ("machines.rows", "count", "higher", "first_out_p50_s, op_total_s on certify"),
    ("machines.witness_table.self_s", "s", "lower", "first_out_p50_s, op_total_s on certify"),
    ("machines.evals_per_row", "ratio", "lower", "first_out_p50_s, op_total_s on certify"),
    ("refuter.scanned", "count", "lower", "op_total_s on certify"),
    ("refuter.accepted", "count", "higher", "op_total_s on certify"),
    ("refuter.accept_ratio", "ratio", "higher", "op_total_s on certify"),
    ("refuter.evals_per_row", "ratio", "lower", "op_total_s on certify"),
    ("refuter.refute.self_s", "s", "lower", "op_total_s on certify"),
    ("synthesis.pool.enumerated", "count", "lower", "op_total_s, op_tail_s on synth"),
    ("synthesis.pool.kept", "count", "higher", "op_total_s, op_tail_s on synth"),
    ("synthesis.pool.keep_ratio", "ratio", "higher", "op_total_s, op_tail_s on synth"),
    ("synthesis.pool.self_s", "s", "lower", "op_total_s, op_tail_s on synth"),
    ("synthesis.fill.fillings", "count", "lower", "op_total_s, op_tail_s on synth"),
    ("synthesis.fill.self_s", "s", "lower", "op_total_s, op_tail_s on synth"),
    ("synthesis.verify.evals", "count", "lower", "op_total_s, op_tail_s on synth"),
    ("spaces.absorb.calls", "count", "lower", "op_total_s on spaces"),
    ("spaces.absorb.self_s", "s", "lower", "op_total_s on spaces"),
    ("spaces.rebuild.members", "count", "lower", "op_total_s on spaces"),
    ("spaces.expand.self_s", "s", "lower", "op_total_s on spaces"),
    ("spaces.unify.self_s", "s", "lower", "op_total_s on spaces"),
    ("spaces.load.self_s", "s", "lower", "op_total_s on spaces"),
    ("spaces.snapshot.self_s", "s", "lower", "op_total_s on spaces"),
    ("cli.self_s", "s", "lower", "first_out_p50_s on certify; op_total_s on rank (enum)"),
    ("cli.out_bytes", "bytes", "lower", "first_out_p50_s on certify; op_total_s on rank (enum)"),
    ("trace.op_total_s", "s", "lower", "none: op_total_s of the traced passes"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced op_total_s in the same run"),
    ("src.sloc", "lines", "lower", "none: non-blank, non-comment lines of src/diagforge"),
) + tuple(
    (f"src.sloc.{m}", "lines", "lower", "none: non-blank, non-comment lines of the module")
    for m in ("__init__", "__main__", "cli", "enumeration", "errors", "interp", "kernel", "machines",
              "refuter", "spaces", "synthesis")
)

# Figures the child reports that are summed over ops as they are.
_SUMMED = [name for name, *_ in PER_LAYER if not name.endswith(("_per_row", "_ratio")) and
           not name.startswith(("src.", "trace."))]


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """The q-quantile of values, interpolating between neighbours."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(samples: list[dict], min_rounds: int) -> tuple[dict, dict]:
    """Metrics from one kind of samples (untraced or traced), plus notes
    for the printed report.

    Every time is first multiplied by its sample's host-speed factor
    (`setup_scale` for the import, `scale` for the rest; calibrate.py), so
    it reads as seconds at the reference speed. op_total_s sums each op's
    mean over the run's rounds; the other times are quantiles over every
    sample.
    """
    per_op: dict[str, list] = {}
    for s in samples:
        per_op.setdefault(s["id"], []).append(s["op_s"] * s["scale"])
    latencies = [s["op_s"] * s["scale"] for s in samples]
    firsts = [s["first_out_s"] * s["scale"] for s in samples if s["first_out_s"] is not None]
    # The tail leaves the fewest ops beyond it, k + 1/2, that hold at least
    # ten samples in min_rounds rounds. The half puts it in the middle of
    # one op's samples rather than on the edge between two ops, where it
    # would jump between their costs. Its percentile is fixed per
    # workload, whatever the number of rounds.
    beyond = min(math.ceil(10 / min_rounds - 0.5), (len(per_op) - 1) // 2) + 0.5
    tail_q = 1 - beyond / len(per_op)
    rounds = len(samples) // len(per_op)
    metrics = {
        "setup_s": median([s["setup_s"] * s["setup_scale"] for s in samples]),
        "op_total_s": sum(statistics.fmean(xs) for xs in per_op.values()),
        "op_p50_s": median(latencies),
        "op_tail_s": quantile(latencies, tail_q),
        "first_out_p50_s": median(firsts),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
    }
    scales = [s["scale"] for s in samples]
    raw_total = sum(statistics.fmean([s["op_s"] for s in samples if s["id"] == i]) for i in per_op)
    notes = {
        "setup_s": f"median over {len(samples)} imports",
        "op_total_s": f"sum over {len(per_op)} ops of each op's mean of {rounds} runs",
        "op_p50_s": f"median over {len(latencies)} op runs ({len(per_op)} ops x {rounds} rounds)",
        "op_tail_s": f"p{100 * tail_q:.1f} over {len(latencies)} op runs: {beyond * rounds:g} beyond it",
        "first_out_p50_s": f"median over {len(firsts)} op runs that print",
        "peak_rss_mb": f"max over {len(samples)} children",
        "scale": f"host-speed factor per op {min(scales):.3f}..{max(scales):.3f}; "
                 f"op_total_s unscaled {raw_total:.4g} s",
    }
    return metrics, notes


def per_layer(traced: list[dict], passes: int, traced_total: float, untraced_total: float, sloc: dict) -> dict:
    """Per-layer metrics: child figures summed over the traced samples,
    divided by the number of traced passes over the op list. Times are
    scaled to the reference host speed like the end-to-end ones."""
    total = {name: 0.0 for name in _SUMMED}
    extra = {"machines.evals": 0, "refuter.evals": 0, "refuter.rows": 0}
    for s in traced:
        for key, value in (s["layers"] or {}).items():
            if key.endswith("_s"):
                value *= s["scale"]
            if key in total:
                total[key] += value
            elif key in extra:
                extra[key] += value
    out = {k: v / passes for k, v in total.items()}
    ex = {k: v / passes for k, v in extra.items()}
    out["machines.evals_per_row"] = _ratio(ex["machines.evals"], out["machines.rows"])
    out["refuter.evals_per_row"] = _ratio(ex["refuter.evals"], ex["refuter.rows"])
    out["refuter.accept_ratio"] = _ratio(out["refuter.accepted"], out["refuter.scanned"])
    out["synthesis.pool.keep_ratio"] = _ratio(out["synthesis.pool.kept"], out["synthesis.pool.enumerated"])
    out["trace.op_total_s"] = traced_total
    out["trace.overhead_s"] = traced_total - untraced_total
    for name, *_ in PER_LAYER:
        if name.startswith("src.sloc"):
            out[name] = sloc.get(name, 0)
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def count_sloc(src_dir: str) -> dict:
    """Non-blank, non-comment lines per module of the package."""
    out = {"src.sloc": 0}
    for name in sorted(os.listdir(src_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src_dir, name), encoding="utf-8") as handle:
            lines = [ln.strip() for ln in handle]
        n = sum(1 for ln in lines if ln and not ln.startswith("#"))
        out[f"src.sloc.{name[:-3]}"] = n
        out["src.sloc"] += n
    return out
