"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them as they go).

The tolerances and sample sizes here are contractual; nothing is loosened
at runtime. Criterion 1 is also the runtime budget: generating, extracting
and answering 1,000 plots end to end must stay under 2 minutes.
"""

import time

import numpy as np
import pytest

import plotquest as pq
from plotquest.answers import AnswerUnavailable, UnparseableQuestion
from plotquest.cli import stable_seed
from plotquest.detsim import (
    PAPER_LIKE, ZERO_NOISE, NoiseModel, average_precision, corrupt_text,
    ocr_accuracy, perturb,
)
from plotquest.harness import evaluate, score_answer
from plotquest.hybrid import answer_hybrid, answer_pipeline_only, answer_structural
from plotquest.qgen import ANSWER_TYPE_WEIGHTS, instantiate, instantiate_all
from plotquest.sie import extract_table, table_f1
from plotquest.tableqa import parse
from plotquest.templates import default_templates

from test_tableqa import exercise_primitives, random_table

N_PLOTS = 1000
SEED = 20240

_cache: dict = {}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _generated_plots():
    """1,000 generated plots with annotations and per-plot questions."""
    if "plots" in _cache:
        return _cache["plots"], _cache["gen_seconds"]
    corpus = pq.default_corpus()
    t0 = time.time()
    plots = []
    for i in range(N_PLOTS):
        data = pq.sample_plot_data(corpus, stable_seed(SEED, "data", i))
        spec = pq.make_plot_spec(data, stable_seed(SEED, "style", i))
        _, ann = pq.render(spec)
        questions = instantiate(spec, stable_seed(SEED, "q", i))
        plots.append((data, spec, ann, questions))
    elapsed = time.time() - t0
    _cache["plots"] = plots
    _cache["gen_seconds"] = elapsed
    return plots, elapsed


def _paper_like_detections():
    if "noisy" not in _cache:
        plots, _ = _generated_plots()
        _cache["noisy"] = [
            perturb(ann, PAPER_LIKE.with_seed(stable_seed(SEED, "noise", i)))
            for i, (_, _, ann, _) in enumerate(plots)
        ]
    return _cache["noisy"]


def test_criterion_roundtrip_exactness():
    plots, gen_seconds = _generated_plots()
    t0 = time.time()
    types_seen = set()
    n_questions = n_correct = 0
    for data, spec, ann, questions in plots:
        types_seen.add(spec.plot_type)
        det = perturb(ann, ZERO_NOISE)
        table = extract_table(det)
        _, _, f1 = table_f1(table, ann.gold_table, 0.005)
        assert f1 == 1.0, f"tuple F1 {f1} != 1.0 on a zero-noise plot"
        for q in questions:
            n_questions += 1
            try:
                pred = answer_hybrid(q.text, det)
            except (AnswerUnavailable, UnparseableQuestion):
                pred = None
            if score_answer(pred, q.gold_answer):
                n_correct += 1
            else:
                raise AssertionError(f"zero-noise miss: {q.text!r} gold={q.gold_answer} pred={pred}")
    elapsed = gen_seconds + (time.time() - t0)
    accuracy = n_correct / n_questions
    ok = types_seen == {"vbar", "hbar", "line", "dotline"} and accuracy == 1.0 and elapsed < 120.0
    _report(
        "round-trip exactness",
        ok,
        f"{N_PLOTS} plots ({len(types_seen)} types), tuple-F1 = 1.0 everywhere, "
        f"QA accuracy {100 * accuracy:.2f}% on {n_questions} questions, {elapsed:.1f}s",
    )


def test_criterion_executor_oracle_equivalence():
    rng = np.random.default_rng(99)
    for k in range(10_000):
        exercise_primitives(random_table(rng), rng)
    _report("executor-oracle equivalence", True,
            "all primitives match brute force on 10,000 tables <= 5x5")


def test_criterion_parser_roundtrip():
    corpus = pq.default_corpus()
    templates = default_templates()
    counts = {t.id: 0 for t in templates}
    total = 0
    seed = 0
    while min(counts.values()) < 20:
        data = pq.sample_plot_data(corpus, stable_seed(SEED, "rt", seed))
        spec = pq.make_plot_spec(data, stable_seed(SEED, "rts", seed))
        for q in instantiate_all(spec, seed):
            parsed = parse(q.text)
            assert (parsed.template_id, parsed.bindings) == (q.template_id, q.bindings), q.text
            counts[q.template_id] += 1
            total += 1
        seed += 1
        assert seed < 3000, "could not reach 20 instantiations per template"
    _report("parser round-trip", True,
            f"{total} questions re-parse exactly; every template has >= 20 instances")


def test_criterion_metric_fixtures():
    from plotquest.answers import number, text
    checks = [
        score_answer(number(100), number(98)) is True,
        score_answer(number(760), number(680)) is False,
        score_answer(text("Indoo"), text("Indoor")) is False,
        score_answer(number(40 * 1.05), number(40)) is True,  # closed boundary
    ]
    _report("metric fixtures", all(checks),
            "(100,98) true, (760,680) false, Indoo/Indoor false, 5% boundary closed")


def test_criterion_ap_monotonicity():
    plots, _ = _generated_plots()
    noisy = _paper_like_detections()
    violations = 0
    for i in range(100):
        ann = plots[i][2]
        maps = [average_precision([(noisy[i], ann)], thr)[1] for thr in (0.5, 0.75, 0.9)]
        if not (maps[2] <= maps[1] <= maps[0]):
            violations += 1
    ann = plots[0][2]
    perfect = perturb(ann, ZERO_NOISE)
    perfect_ok = all(
        average_precision([(perfect, ann)], thr)[1] == pytest.approx(1.0)
        for thr in (0.5, 0.75, 0.9)
    )
    _report("AP monotonicity", violations == 0 and perfect_ok,
            f"0.9 <= 0.75 <= 0.5 ordering held on 100/100 noisy sets; exact match scores 1.0")


def test_criterion_calibrated_noise_reproduction():
    plots, _ = _generated_plots()
    noisy = _paper_like_detections()
    anns = [p[2] for p in plots]
    map5 = average_precision(zip(noisy, anns), 0.5)[1]
    map9 = average_precision(zip(noisy, anns), 0.9)[1]
    f1s = [
        table_f1(extract_table(det), ann.gold_table, 0.02)[2]
        for det, ann in zip(noisy, anns)
    ]
    mean_f1 = float(np.mean(f1s))
    ok = 0.94 <= map5 <= 0.99 and 0.62 <= map9 <= 0.82 and 0.58 <= mean_f1 <= 0.78
    _report("calibrated-noise reproduction", ok,
            f"mAP@0.5={map5:.4f} (target [0.94, 0.99]), mAP@0.9={map9:.4f} "
            f"(target [0.62, 0.82]), mean F1={mean_f1:.4f} (target [0.58, 0.78])")


def test_criterion_ablation_ordering():
    plots, _ = _generated_plots()
    noisy = _paper_like_detections()
    cases = [(q, noisy[i]) for i in range(250) for q in plots[i][3]]

    def run(fn):
        return evaluate(cases, fn)

    hybrid = run(answer_hybrid)
    pipeline = run(answer_pipeline_only)
    structural = run(answer_structural)
    yes_no_cell = hybrid.cell("structural", "yes_no")
    open_reasoning = hybrid.cell("reasoning", "open_vocab")
    ok = (
        hybrid.overall_accuracy > pipeline.overall_accuracy
        and hybrid.overall_accuracy > structural.overall_accuracy
        and yes_no_cell is not None and open_reasoning is not None
        and yes_no_cell > open_reasoning
    )
    _report("ablation ordering", ok,
            f"hybrid {100 * hybrid.overall_accuracy:.1f}% > pipeline-only "
            f"{100 * pipeline.overall_accuracy:.1f}% and > structural-only "
            f"{100 * structural.overall_accuracy:.1f}%; structural yes/no "
            f"{100 * yes_no_cell:.1f}% > open-vocab reasoning {100 * open_reasoning:.1f}%")


def test_criterion_ocr_fixtures():
    fixtures_ok = (
        corrupt_text("Indoor", NoiseModel(ocr_truncate_prob=1.0), 0) == "Indoo"
        and corrupt_text("Operator", NoiseModel(ocr_char_sub_prob=1.0), 0) == "Dperator"
        and corrupt_text("2008", NoiseModel(ocr_sign_digit_prob=1.0), 4) == "200B"
    )
    # a batch with exactly 3% corrupted texts must report 0.97 +/- 0.002
    classes = ("title", "xaxis_label", "yaxis_label", "xtick_label", "ytick_label", "legend_label")
    gold = [(classes[k % len(classes)], f"token{k}") for k in range(10_000)]
    trunc = NoiseModel(ocr_truncate_prob=1.0)
    texts = [
        (cls, corrupt_text(text, trunc, k) if k < 300 else text, text)
        for k, (cls, text) in enumerate(gold)
    ]
    rate = ocr_accuracy(texts)["total"]
    batch_ok = abs(rate - 0.97) <= 0.002
    _report("OCR fixtures", fixtures_ok and batch_ok,
            f"Indoo/Dperator/200B reproduced; 97%-clean batch reports {rate:.4f}")


def test_criterion_question_distribution():
    corpus = pq.default_corpus()
    counts: dict = {}
    total = 0
    i = 0
    while total < 100_000:
        data = pq.sample_plot_data(corpus, stable_seed(SEED, "dist", i))
        spec = pq.make_plot_spec(data, stable_seed(SEED, "dists", i))
        for q in instantiate(spec, stable_seed(SEED, "distq", i), n_questions=25):
            counts[(q.category, q.answer_type)] = counts.get((q.category, q.answer_type), 0) + 1
            total += 1
        i += 1
    worst = 0.0
    lines = []
    for cat, row in ANSWER_TYPE_WEIGHTS.items():
        cat_total = sum(v for (c, _), v in counts.items() if c == cat)
        for at, target in row.items():
            got = counts.get((cat, at), 0) / cat_total
            dev = abs(got - target)
            worst = max(worst, dev)
            lines.append(f"{cat}/{at} {100 * got:.1f}% vs {100 * target:.1f}%")
    ok = worst <= 0.10
    _report("question distribution", ok,
            f"{total} questions; worst cell deviation {100 * worst:.1f}pp (limit 10pp)")
