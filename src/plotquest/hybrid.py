"""Hybrid answering: route each question to the classification-style branch
(templates whose logical form is visual, i.e. answered from plot geometry:
structure, ordinal bar order, tick step, title, axis labels) or to the
multi-stage pipeline branch (everything whose answer lives in the extracted
table, yes/no questions over values included).

Every answerer takes the plot's ``sie.PlotReading``, so ``sie.read``
associates a plot's detections once however many questions it has. The
classification branch answers from the reading's geometry: element counts,
positions, style metadata, tick/legend/axis-label texts and, for the
zero-value and line-crossing questions, the table. The reading never gives
up; one detection guard (``_found``, which also covers missing style
metadata and bar groups), one tick guard for the series questions and one
ordinal guard (``_nth``) say why this branch does. The pipeline branch is
``tableqa.execute`` on the reading's table.

Each question is parsed once, and ``route`` alone decides its branch from
the parse. The two ablation arms are the hybrid gated to one branch: a
question routed to the other branch is AnswerUnavailable there, before the
reading is consulted. Unparseable questions raise ``UnparseableQuestion``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tableqa
from .answers import Answer, AnswerUnavailable, number, text, yes_no
from .qgen import count_line_crossings
from .sie import NO_CATEGORY_TICKS, TOO_FEW_VALUE_TICKS, PlotReading, _stacked_horizontally
from .tableqa import ParsedQuestion, parse as parse_question
from .templates import parse_ordinal

CLASSIFICATION_BRANCH = "classification_branch"
PIPELINE_BRANCH = "pipeline_branch"

_SCI_RE = re.compile(r"-?\d\.\d{3}e[+-]\d+")
_NO_STYLE = "no style metadata available"


@dataclass(frozen=True)
class Route:
    branch: str


def route(question: str | ParsedQuestion) -> Route:
    """The branch that answers a question (parsed here when given text): the
    classification branch iff its logical form is visual, else the table.
    Text outside the grammar raises UnparseableQuestion."""
    parsed = parse_question(question) if isinstance(question, str) else question
    return Route(CLASSIFICATION_BRANCH if parsed.logical_form[0] == "visual" else PIPELINE_BRANCH)


# ---------------------------------------------------------------------------
# classification-branch answering

def _found(found, reason: str):
    """What the reading found; AnswerUnavailable(reason) when it is empty."""
    if not found:
        raise AnswerUnavailable(reason)
    return found


def _pick(items: list, i: int, from_end: bool):
    """The i-th item (from 1), counted from the end when ``from_end``, or None."""
    return items[-i if from_end else i - 1] if 1 <= i <= len(items) else None


def _nth(items: list, ordinal: str, from_end: bool, what: str):
    """The item an ordinal binding names; AnswerUnavailable when there is none."""
    item = _pick(items, parse_ordinal(ordinal), from_end)
    if item is None:
        raise AnswerUnavailable(f"no {ordinal} {what}")
    return item


def _structural(tid: int, b: dict[str, str], rd: PlotReading) -> Answer:
    if tid in (9, 16, 19, 20, 21, 22):  # questions about the bars themselves
        _found(rd.bars, "no bars detected")
    if tid in (1, 17):  # a mark past the colour filter needs both axes' ticks
        for a in rd.assignments:
            if a.reason in (NO_CATEGORY_TICKS, TOO_FEW_VALUE_TICKS):
                raise AnswerUnavailable(a.reason)
    if 10 <= tid <= 15 or 19 <= tid <= 22:  # questions about the bar groups
        groups = _found(rd.bar_groups, NO_CATEGORY_TICKS)
    if tid == 1:
        values = [v for row in rd.table.cells for v in row if v is not None]
        return yes_no(0.0 in _found(values, "no data values readable"))
    if tid == 2:
        return yes_no(_found(rd.style, _NO_STYLE).grid)
    if tid == 3:
        return text(_found(rd.style, _NO_STYLE).legend_position)
    if tid == 4:
        return number(len(_found(rd.elements["legend_label"], "no legend detected")))
    if tid == 5:
        labels = rd.elements["legend_label"]
        if len(labels) >= 2:
            return text("horizontal" if _stacked_horizontally(labels) else "vertical")
        pos = _found(rd.style, _NO_STYLE).legend_position
        return text("horizontal" if pos.startswith("bottom") else "vertical")
    if tid == 6:
        return number(len(_found(rd.cat_refs, NO_CATEGORY_TICKS)))
    if tid in (7, 8):
        ft = b["figure_type"]
        dets = _found(rd.elements[ft], f"no {ft} elements detected")
        if tid == 8 or ft != "bar":
            return number(len({det.color for det in dets if det.color is not None}))
        return number(len(dets))
    if tid == 9:
        return number(len(rd.cat_refs))
    if tid in (10, 11):
        counts = [len(g) for g in groups]
        if tid == 10:
            return yes_no(all(c == len(rd.legend_texts) for c in counts))
        return yes_no(len(set(counts)) == 1)
    # cat_refs run left to right (vertical plots) or top to bottom
    # (horizontal ones); an ordinal from the right or bottom counts from the end
    if tid in (12, 13, 14, 15):
        return number(len(_nth(groups, b["i"], tid in (13, 15), "tick")))
    if tid == 16:
        return yes_no(rd.horizontal)
    if tid == 17:
        t = rd.table  # series-major; an empty cell reads as nan
        V = np.array(t.cells, dtype=float).reshape(len(t.row_headers), len(t.col_headers)).T
        if np.isnan(V).any():
            raise AnswerUnavailable("incomplete line readings")
        return number(count_line_crossings(V))
    if tid == 18:
        colors = _found({p.color for p in rd.points if p.color is not None}, "no lines detected")
        return yes_no(len(colors) == len(rd.legend_texts))
    if tid in (19, 20, 21, 22):
        i = parse_ordinal(b["i"])
        picked = (_pick(group, i, tid in (20, 22)) for group in groups)
        # a group without an i-th bar, or whose bar matches no legend colour, casts no vote
        named = (rd.legend_label_of(bar.color) for bar in picked if bar is not None)
        votes = _found(Counter(filter(None, named)), "bar order unreadable")
        return text(max(sorted(votes), key=votes.__getitem__))
    if tid in (23, 24):
        return text(_nth(rd.cat_refs, b["j"], False, "group").text)
    if tid == 26:
        ordered = sorted(v for v, _ in rd.val_ticks)
        steps = sorted(_found([b2 - a2 for a2, b2 in zip(ordered, ordered[1:])], TOO_FEW_VALUE_TICKS))
        mid = len(steps) // 2  # the median; an even count halves before adding, so the mean stays finite
        step = steps[mid] if len(steps) % 2 else steps[mid - 1] / 2 + steps[mid] / 2
        if not math.isfinite(step):  # a step between finite ticks can itself overflow
            raise AnswerUnavailable("tick step is not finite")
        return number(step)
    if tid == 27:
        texts = _found(rd.val_tick_texts, "no value ticks detected")
        return yes_no(sum(1 for t in texts if _SCI_RE.fullmatch(t)) > len(texts) / 2.0)
    if tid in (28, 30, 31):
        cls = {28: "title", 30: "xaxis_label", 31: "yaxis_label"}[tid]
        return text(_found(rd.label_text(cls), f"no {cls} detected"))
    raise ValueError(f"template {tid} routes to the classification branch but has no geometry answer")


# ---------------------------------------------------------------------------
# composition

def _answer(question: str, rd: PlotReading, branch: str | None) -> Answer:
    """Parse once and route; a question routed away from ``branch`` (None:
    either) is AnswerUnavailable before the reading is consulted. Raises only
    AnswerUnavailable or UnparseableQuestion, or TypeError when ``rd`` is not
    a reading (a programming error, never scored)."""
    if not isinstance(rd, PlotReading):
        raise TypeError(f"answerers take the plot's PlotReading, not {type(rd).__name__}")
    parsed = parse_question(question)
    routed = route(parsed).branch
    if branch not in (None, routed):
        raise AnswerUnavailable(
            f"template {parsed.template_id} is not a {branch.replace('_', '-')} question")
    if routed == CLASSIFICATION_BRANCH:
        return _structural(parsed.template_id, parsed.bindings, rd)
    return tableqa.execute(parsed.logical_form, rd.table)


def answer_hybrid(question: str, rd: PlotReading) -> Answer:
    """Answer on the question's routed branch from the plot's reading, the
    one ``sie.read`` result that all of the plot's questions share."""
    return _answer(question, rd, None)


def answer_pipeline_only(question: str, rd: PlotReading) -> Answer:
    """The hybrid gated to the table branch (ablation arm): a question with a
    visual logical form is AnswerUnavailable here."""
    return _answer(question, rd, PIPELINE_BRANCH)


def answer_structural(question: str, rd: PlotReading) -> Answer:
    """The hybrid gated to the classification branch (ablation arm): only
    templates with a visual logical form have a geometry answer; every other
    question is AnswerUnavailable here."""
    return _answer(question, rd, CLASSIFICATION_BRANCH)
