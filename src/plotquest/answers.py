"""Answer values shared by the question generator, the QA engines and the
evaluation harness.

An Answer is one of three kinds:

- boolean: rendered as "Yes"/"No"
- text:    a label, tick string, position word, etc.
- number:  a finite float (counts included)

``parse_number`` is the one rule that turns text into a number: value
tick labels, question thresholds and predictions scored against a numeric
gold all go through it. ``within_rel_tol`` is the one rule for "close
enough" to a gold number; the answer metric and table F1 call it with
their own tolerances.

Rendering of numbers follows the convention used throughout the toolkit:
integers print bare, other reals print with up to 2 decimal places, and
magnitudes >= 1e5 print in scientific E-notation ("2.000e+5"). The float
value itself is kept alongside the rendered string so that scoring can
stay numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class AnswerUnavailable(Exception):
    """The system cannot produce an answer (missing cells, absent elements).

    Distinct from a wrong answer: the harness scores it as incorrect, but
    callers can tell the two apart.
    """


class UnparseableQuestion(Exception):
    """The question text matches none of the shipped templates."""


def parse_number(text: str) -> float | None:
    """Text to a finite float; None when it does not parse or is not finite."""
    try:
        v = float(text)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def within_rel_tol(pred: float, gold: float, rel_tol: float) -> bool:
    """|pred - gold| <= rel_tol * |gold|, a closed ball; a gold of exactly 0
    demands an exact 0."""
    if gold == 0.0:
        return pred == 0.0
    return abs(pred - gold) <= rel_tol * abs(gold)


def format_scientific(value: float) -> str:
    """Format like the scientific-E tick notation: 200000 -> '2.000e+5'."""
    if value == 0:
        return "0.000e+0"
    exp = math.floor(math.log10(abs(value)))
    mant = value / 10.0**exp
    # guard against log10 edge rounding (e.g. 999.999.. -> mant 10.0)
    if abs(mant) >= 10.0:
        mant /= 10.0
        exp += 1
    return f"{mant:.3f}e{exp:+d}"


def format_number(value: float) -> str:
    if value != value or math.isinf(value):
        raise ValueError(f"non-finite answer value: {value}")
    if abs(value) >= 1e5:
        return format_scientific(value)
    if float(value).is_integer():
        return str(int(value))
    return f"{round(value, 2):g}"


_VALUE_TYPES = {"boolean": (bool,), "text": (str,), "number": (int, float)}  # exact: a bool is no number


@dataclass(frozen=True)
class Answer:
    kind: str  # "boolean" | "text" | "number"
    value: bool | str | float

    def __post_init__(self):
        if self.kind not in ("boolean", "text", "number"):
            raise ValueError(f"bad answer kind: {self.kind}")
        if type(self.value) not in _VALUE_TYPES[self.kind]:
            raise TypeError(f"{self.kind} answer value {self.value!r} is a {type(self.value).__name__}")
        if self.kind == "number" and not math.isfinite(float(self.value)):
            raise ValueError("numeric answers must be finite")

    def rendered(self) -> str:
        if self.kind == "boolean":
            return "Yes" if self.value else "No"
        if self.kind == "number":
            return format_number(float(self.value))
        return str(self.value)

    def to_json(self) -> dict:
        return {"kind": self.kind, "value": self.value, "rendered": self.rendered()}

    @staticmethod
    def from_json(obj: dict) -> "Answer":
        return Answer(kind=obj["kind"], value=obj["value"])


def yes_no(flag: bool) -> Answer:
    return Answer("boolean", bool(flag))


def text(s: str) -> Answer:
    return Answer("text", str(s))


def number(v: float) -> Answer:
    return Answer("number", float(v))
