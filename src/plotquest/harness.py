"""Scoring, dataset splitting and evaluation reports.

The answer metric: text and boolean answers must match exactly (case
folded, whitespace trimmed), numeric answers count as correct within a
closed 5% relative ball around the gold value; a gold of exactly 0 demands
an exact 0. A prediction that merely fails to parse as a number falls back
to string comparison, so OCR junk like "100-" scores false against 98.

Reports break accuracy down over the 3x3 question-category x answer-type
grid; a cell that no question falls in reads NA, and a report's JSON is its
fields. ``Tally`` is the one tabulation, fed each question's score as it is
made: ``plotquest run`` feeds it without keeping the questions, then adds
its perception scores by field name, and ``evaluate`` answers, scores and
feeds it from (question, context) pairs, so each question is answered from
the context it came with.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable, Iterable, TypeVar

import numpy as np

from .answers import UNANSWERED, Answer, parse_number, within_rel_tol
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
    ratios: tuple[float, float, float]
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"split seed {self.seed!r} is not a non-negative integer")
        if len(self.ratios) != 3 or not all(0 <= r <= 1 for r in self.ratios):  # NaN fails too
            raise ValueError(f"split ratios {self.ratios} are not three numbers in [0, 1]")
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
    map: dict[str, float] | None = None  # {"0.5": ..., "0.75": ..., "0.9": ...}
    ocr_accuracy: float | None = None
    mean_table_f1: float | None = None

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "EvalReport":
        """Inverse of to_json: a field with no default is required, other keys are ignored."""
        return EvalReport(**{f.name: obj[f.name] if f.default is MISSING else obj.get(f.name)
                             for f in fields(EvalReport)})

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
        if self.map:
            pretty = ", ".join(f"mAP@{k}={100 * v:.2f}%" for k, v in sorted(self.map.items()))
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

    def report(self) -> EvalReport:
        """The 3x3 grid, with no perception scores; a cell with no question is NA."""
        if not self.totals:
            raise ValueError("no questions to evaluate")
        counts = {c: {at: self.totals[(c, at)] for at in ANSWER_TYPES} for c in CATEGORIES}
        accuracy_by = {c: {at: self.hits[(c, at)] / n if n else None for at, n in row.items()}
                       for c, row in counts.items()}
        return EvalReport(sum(self.hits.values()) / sum(self.totals.values()), accuracy_by, counts)


def evaluate(cases: Iterable[tuple[QuestionInstance, Context]],
             answer: Callable[[str, Context], Answer | None]) -> EvalReport:
    """Answer each question from its paired context, ``answer(q.text,
    context)``, and tabulate the 3x3 grid, with no perception scores.

    The ``UNANSWERED`` errors score as incorrect; anything else propagates;
    no cases is a ValueError.
    """
    tally = Tally()
    for q, context in cases:
        try:
            pred = answer(q.text, context)
        except UNANSWERED:
            pred = None
        tally.add(q, score_answer(pred, q.gold_answer))
    return tally.report()
