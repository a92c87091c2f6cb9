"""Scoring, dataset splitting and evaluation reports.

The answer metric: text and boolean answers must match exactly (case
folded, whitespace trimmed), numeric answers count as correct within a
closed 5% relative ball around the gold value; a gold of exactly 0 demands
an exact 0. A prediction that merely fails to parse as a number falls back
to string comparison, so OCR junk like "100-" scores false against 98.

Reports break accuracy down over the 3x3 question-category x answer-type
grid; the structural x open-vocabulary cell is structurally empty and
reported as NA. ``Tally`` is the one tabulation, fed each question's score
as it is made: ``plotquest run`` feeds it without keeping the questions,
and ``evaluate`` answers, scores and feeds it from (question, context)
pairs, so each question is answered from the context it came with.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

import numpy as np

from .answers import Answer, AnswerUnavailable, UnparseableQuestion, parse_number, within_rel_tol
from .qgen import QuestionInstance
from .templates import ANSWER_TYPES, CATEGORIES

REL_TOL = 0.05  # closed ball: |pred - gold| <= 0.05 |gold|

Context = TypeVar("Context")  # what an answerer reads a question from: a plot, a stored prediction


def _norm(s: str) -> str:
    return " ".join(str(s).split()).casefold()


def score_answer(pred: Answer | None, gold: Answer) -> bool:
    """True iff the prediction counts as correct under the 5% metric."""
    if pred is None:
        return False
    if gold.kind == "number" and pred.kind != "boolean":
        pv = parse_number(str(pred.value))
        if pv is not None:
            return within_rel_tol(pv, float(gold.value), REL_TOL)
    return _norm(pred.rendered()) == _norm(gold.rendered())


# ---------------------------------------------------------------------------
# splits

@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"split seed {self.seed!r} is not a non-negative integer")
        if any(r < 0 for r in self.ratios):
            raise ValueError("split ratios must be non-negative")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios sum to {sum(self.ratios)}, expected 1")


def split(plots: list, spec: SplitSpec) -> tuple[list, list, list]:
    """Deterministic train/valid/test partition at plot granularity."""
    n = len(plots)
    order = list(np.random.default_rng(spec.seed).permutation(n))
    sizes = [int(math.floor(n * r)) for r in spec.ratios]
    remainders = [n * r - s for r, s in zip(spec.ratios, sizes)]
    while sum(sizes) < n:
        k = max(range(3), key=lambda i: (remainders[i], -i))
        sizes[k] += 1
        remainders[k] = -1.0
    parts: tuple[list, list, list] = ([], [], [])
    pos = 0
    for k, size in enumerate(sizes):
        for idx in order[pos:pos + size]:
            parts[k].append(plots[idx])
        pos += size
    return parts


# ---------------------------------------------------------------------------
# reports

@dataclass
class EvalReport:
    overall_accuracy: float
    accuracy_by: dict[str, dict[str, float | None]]  # category -> answer type
    counts: dict[str, dict[str, int]]
    map_scores: dict[str, float] | None = None  # {"0.5": ..., "0.75": ..., "0.9": ...}
    ocr_accuracy: float | None = None
    mean_table_f1: float | None = None

    def cell(self, category: str, answer_type: str) -> float | None:
        return self.accuracy_by[category][answer_type]

    def to_json(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "accuracy_by": self.accuracy_by,
            "counts": self.counts,
            "map": self.map_scores,
            "ocr_accuracy": self.ocr_accuracy,
            "mean_table_f1": self.mean_table_f1,
        }

    @staticmethod
    def from_json(obj: dict) -> "EvalReport":
        return EvalReport(
            overall_accuracy=obj["overall_accuracy"],
            accuracy_by=obj["accuracy_by"],
            counts=obj["counts"],
            map_scores=obj.get("map"),
            ocr_accuracy=obj.get("ocr_accuracy"),
            mean_table_f1=obj.get("mean_table_f1"),
        )

    def render_text(self) -> str:
        def fmt(v: float | None) -> str:
            return "   NA " if v is None else f"{100 * v:5.1f}%"

        lines = [
            f"overall accuracy: {100 * self.overall_accuracy:.2f}%",
            "",
            f"{'answer type':<16}" + "".join(f"{c:>16}" for c in CATEGORIES),
        ]
        for at in ANSWER_TYPES:
            row = f"{at:<16}"
            for c in CATEGORIES:
                n = self.counts[c][at]
                row += f"{fmt(self.accuracy_by[c][at]):>10} ({n:>4})"
            lines.append(row)
        if self.map_scores:
            pretty = ", ".join(f"mAP@{k}={100 * v:.2f}%" for k, v in sorted(self.map_scores.items()))
            lines.append("")
            lines.append(pretty)
        if self.ocr_accuracy is not None:
            lines.append(f"OCR accuracy: {100 * self.ocr_accuracy:.2f}%")
        if self.mean_table_f1 is not None:
            lines.append(f"mean table F1: {self.mean_table_f1:.3f}")
        return "\n".join(lines) + "\n"

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1)


class Tally:
    """Hits and totals per category x answer type, fed one scored question
    at a time; ``report`` tabulates them into the 3x3 grid."""

    def __init__(self):
        self.hits: Counter[tuple[str, str]] = Counter()
        self.totals: Counter[tuple[str, str]] = Counter()

    def add(self, q: QuestionInstance, ok: bool) -> None:
        key = (q.category, q.answer_type)
        self.totals[key] += 1
        self.hits[key] += ok

    def report(self, map_scores: dict[str, float] | None, ocr_accuracy: float | None,
               mean_table_f1: float | None) -> EvalReport:
        if not self.totals:
            raise ValueError("no questions to evaluate")
        counts = {c: {at: self.totals[(c, at)] for at in ANSWER_TYPES} for c in CATEGORIES}
        accuracy_by = {c: {at: self.hits[(c, at)] / n if n and (c, at) != ("structural", "open_vocab") else None
                           for at, n in row.items()} for c, row in counts.items()}
        overall = sum(self.hits.values()) / sum(self.totals.values())
        return EvalReport(overall, accuracy_by, counts, map_scores, ocr_accuracy, mean_table_f1)


def evaluate(cases: Iterable[tuple[QuestionInstance, Context]],
             answer: Callable[[str, Context], Answer | None]) -> EvalReport:
    """Answer each question from its paired context, ``answer(q.text,
    context)``, and tabulate the 3x3 grid, with no perception scores
    (``Tally.report`` takes those).

    AnswerUnavailable / UnparseableQuestion score as incorrect; anything
    else propagates; no cases is a ValueError.
    """
    tally = Tally()
    for q, context in cases:
        try:
            pred = answer(q.text, context)
        except (AnswerUnavailable, UnparseableQuestion):
            pred = None
        tally.add(q, score_answer(pred, q.gold_answer))
    return tally.report(None, None, None)
