"""The traced run: which plotquest names are wrapped, and the per-layer
metrics computed from the spans of each traced pass.

Span names are ``<module>.<stage>``. A stage reached through two names
(``sie.extract_table`` is called by ``cli`` once per plot and by ``hybrid``
once per pipeline-routed question) records under one span name.
"""

from __future__ import annotations

import os
import statistics

from spans import END, GROUP, INHERIT, JOIN, NAME, OK, OPEN_PLOT, OPEN_QUESTION, PASS, PARENT, START, \
    Tracer, self_times

ROOT_SPAN = "cli"


def wiring(cli) -> list[tuple]:
    """(owner, attribute, span name, group role, result summary or None)."""
    from plotquest import detsim, hybrid, plotgen, qgen, tableqa, templates

    def instantiate_fill(args, kwargs, result):
        requested = kwargs.get("n_questions", args[4] if len(args) > 4 else qgen.DEFAULT_QUESTIONS_PER_PLOT)
        return len(result), requested

    return [
        (cli, "default_corpus", "corpus.default_corpus", PASS, None),
        (cli, "sample_plot_data", "corpus.sample_plot_data", OPEN_PLOT, None),
        (cli, "make_plot_spec", "plotgen.make_plot_spec", JOIN, None),
        (cli, "render", "plotgen.render", JOIN, None),
        (plotgen.PlotAnnotation, "dumps", "plotgen.annotation_dumps", JOIN, None),
        (cli, "instantiate", "qgen.instantiate", JOIN, instantiate_fill),
        (qgen.QuestionInstance, "from_json", "qgen.question_from_json", PASS, None),
        (plotgen.PlotAnnotation, "loads", "plotgen.annotation_loads", OPEN_PLOT, None),
        (cli, "perturb_with_provenance", "detsim.perturb", JOIN,
         lambda args, kwargs, result: len(result[0].detections)),
        (cli, "extract_table", "sie.extract_table", JOIN, None),
        (cli, "table_f1", "sie.table_f1", JOIN, None),
        (cli, "average_precision", "detsim.average_precision", PASS, None),
        (detsim, "ocr_accuracy", "detsim.ocr_accuracy", PASS, None),
        (cli, "answer_hybrid", "hybrid.answer_hybrid", OPEN_QUESTION, None),
        (cli, "score_answer", "harness.score_answer", JOIN, None),
        (cli, "evaluate", "harness.evaluate", PASS, None),
        (hybrid, "route", "hybrid.route", INHERIT, lambda args, kwargs, result: result.branch),
        (hybrid, "answer_structural", "hybrid.answer_structural", INHERIT, None),
        (hybrid, "extract_table", "sie.extract_table", INHERIT, None),
        (hybrid, "table_answer", "tableqa.answer", INHERIT, None),
        (hybrid, "parse_question", "tableqa.parse", INHERIT, None),
        (tableqa, "parse", "tableqa.parse", INHERIT, None),
        (tableqa, "build_kg", "tableqa.build_kg", INHERIT, None),
        (tableqa, "execute", "tableqa.execute", INHERIT, None),
        (templates.TemplateMatcher, "match", "templates.match", INHERIT, None),
    ]


# Layer names in report order; each gets <layer>.calls and <layer>.self_ms.
LAYERS = (
    ROOT_SPAN,
    "corpus.default_corpus", "corpus.sample_plot_data",
    "plotgen.make_plot_spec", "plotgen.render", "plotgen.annotation_dumps", "plotgen.annotation_loads",
    "qgen.instantiate", "qgen.question_from_json",
    "detsim.perturb", "detsim.average_precision", "detsim.ocr_accuracy",
    "sie.extract_table", "sie.table_f1",
    "hybrid.answer_hybrid", "hybrid.route", "hybrid.answer_structural",
    "tableqa.answer", "tableqa.parse", "tableqa.build_kg", "tableqa.execute",
    "templates.match",
    "harness.score_answer", "harness.evaluate",
)

EXTRA_UNITS = {
    "sie.extract_table.per_plot": "1/plot",
    "hybrid.pipeline_routed.per_plot": "1/plot",
    "tableqa.build_kg.per_question": "1/question",
    "templates.match.per_question": "1/question",
    "hybrid.answer_hybrid.p50_us": "us",
    "hybrid.answer_hybrid.p99_us": "us",
    "hybrid.classification_share": "fraction",
    "hybrid.answered_share": "fraction",
    "qgen.fill_ratio": "fraction",
    "detsim.detections.per_plot": "1/plot",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "trace.untraced_pass_ms": "ms",
    "trace.traced_pass_ms": "ms",
    "trace.overhead_share": "fraction",
    "trace.unattributed_ms": "ms",
    "trace.spans_per_pass": "count",
    "trace.missing_wraps": "count",
}

PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    **EXTRA_UNITS,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def opened_bytes(opened: list[tuple[str, str]]) -> tuple[int, int]:
    """(bytes written, bytes read): sizes of the files opened for writing
    and for reading, taken while they still exist."""
    written = sum(os.path.getsize(p) for p, mode in opened if "w" in mode or "a" in mode)
    read = sum(os.path.getsize(p) for p, mode in opened if "r" in mode and "+" not in mode)
    return written, read


def pass_counts(tracer: Tracer, wall: float, io_bytes: tuple[int, int]) -> tuple[dict, dict, list[str]]:
    """Counts and self times of one traced pass, and the problems found in
    the span tree (a negative self time, self times that do not add up to
    the pass's wall time)."""
    spans = tracer.spans
    problems = []
    per_name = self_times(spans)
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    unattributed = wall - roots
    total_self = sum(v[1] for v in per_name.values())
    if unattributed < 0 or abs(total_self + unattributed - wall) > 1e-6 * wall + 1e-9:
        problems.append(f"self times {total_self:.6f}s + unattributed {unattributed:.6f}s "
                        f"!= wall {wall:.6f}s")
    if any(v[1] < -1e-9 for v in per_name.values()):
        problems.append("negative self time")

    calls = {name: v[0] for name, v in per_name.items()}
    branches = tracer.results.get("hybrid.route", [])
    fills = tracer.results.get("qgen.instantiate", [])
    dets = tracer.results.get("detsim.perturb", [])
    counts = {
        "calls": calls,
        "cli.bytes_written": io_bytes[0],
        "cli.bytes_read": io_bytes[1],
        "spans": len(spans),
        "pipeline_routed": sum(1 for b in branches if b == "pipeline_branch"),
        "classification_routed": sum(1 for b in branches if b == "classification_branch"),
        "answered": sum(1 for s in spans if s[NAME] == "hybrid.answer_hybrid" and s[OK]),
        "filled": sum(n for n, _ in fills),
        "requested": sum(r for _, r in fills),
        "detections": sum(dets),
    }
    timing = {
        "self_s": {name: v[1] for name, v in per_name.items()},
        "unattributed_s": unattributed,
        "answer_us": [(s[END] - s[START]) * 1e6 for s in spans if s[NAME] == "hybrid.answer_hybrid"],
    }
    return counts, timing, problems


def layer_metrics(passes, c: dict, timings: list[dict], missing: int) -> dict[str, float]:
    """Per-plot ratios are per plot run through perception (``perturb``
    calls), per-question ratios per question answered."""
    plots = c["calls"].get("detsim.perturb", 0)
    questions = c["calls"].get("hybrid.answer_hybrid", 0)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = c["calls"].get(layer, 0)
        m[f"{layer}.self_ms"] = statistics.median(t["self_s"].get(layer, 0.0) for t in timings) * 1e3
    answer_us = sorted(us for t in timings for us in t["answer_us"])
    untraced = statistics.median(p.seconds for p in passes if not p.traced)
    traced = statistics.median(p.seconds for p in passes if p.traced)
    routed = c["pipeline_routed"] + c["classification_routed"]
    m.update({
        "sie.extract_table.per_plot": _ratio(c["calls"].get("sie.extract_table", 0), plots),
        "hybrid.pipeline_routed.per_plot": _ratio(c["pipeline_routed"], plots),
        "tableqa.build_kg.per_question": _ratio(c["calls"].get("tableqa.build_kg", 0), questions),
        "templates.match.per_question": _ratio(c["calls"].get("templates.match", 0), questions),
        "hybrid.answer_hybrid.p50_us": statistics.median(answer_us) if answer_us else 0.0,
        "hybrid.answer_hybrid.p99_us": _percentile(answer_us, 99),
        "hybrid.classification_share": _ratio(c["classification_routed"], routed),
        "hybrid.answered_share": _ratio(c["answered"], questions),
        "qgen.fill_ratio": _ratio(c["filled"], c["requested"]),
        "detsim.detections.per_plot": _ratio(c["detections"], plots),
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.bytes_read": c["cli.bytes_read"],
        "trace.untraced_pass_ms": untraced * 1e3,
        "trace.traced_pass_ms": traced * 1e3,
        "trace.overhead_share": traced / untraced - 1.0,
        "trace.unattributed_ms": statistics.median(t["unattributed_s"] for t in timings) * 1e3,
        "trace.spans_per_pass": c["spans"],
        "trace.missing_wraps": missing,
    })
    return m


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile by statistics.quantiles; the maximum when fewer
    than 100 values leave no ten samples above it."""
    if not values:
        return 0.0
    if len(values) < 100:
        return max(values)
    return statistics.quantiles(values, n=100)[q - 1]


def span_lines(spans: list) -> list[dict]:
    """Spans as JSON records, times in microseconds from the first span."""
    t0 = spans[0][START] if spans else 0.0
    return [{"i": i, "name": s[NAME], "start_us": round((s[START] - t0) * 1e6, 1),
             "end_us": round((s[END] - t0) * 1e6, 1), "parent": s[PARENT], "group": s[GROUP], "ok": s[OK]}
            for i, s in enumerate(spans)]
