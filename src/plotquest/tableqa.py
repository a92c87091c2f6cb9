"""Table question answering over the extracted table.

Questions parse deterministically against the closed template grammar into
logical forms, small expression trees over aggregation / selection /
comparison primitives, which the executor evaluates directly on the
``SemiStructuredTable``: a column expression is the column's (row header,
value) pairs, a cell reference looks a row up by its header. A table whose
rows cannot be told apart by header answers nothing (``_check_rows``).

A question reads the column named by its legend label, or, when it names
no legend label, the one named by its value phrase (``y_label``) or title:
``build_logical_form`` computes that name once for every template.

Questions about plot structure (legend placement, bar ordering, axis
titles...) have no table semantics; they parse to the ("visual", id) form,
which ``hybrid.route`` sends to the classification branch (executed here,
it is AnswerUnavailable like any form the executor does not know).
Out-of-grammar text raises UnparseableQuestion.

Missing cells simply never contribute: a column expression yields only the
rows that have values, and direct cell references to holes give
AnswerUnavailable rather than a fabricated number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .answers import Answer, AnswerUnavailable, UnparseableQuestion, number, parse_number, text, yes_no
from .table import SemiStructuredTable
from .templates import Template, default_matcher

LF = tuple  # ("op", arg, ...) expression trees


# ---------------------------------------------------------------------------
# logical forms

@dataclass(frozen=True)
class ParsedQuestion:
    template_id: int
    bindings: dict[str, str]
    logical_form: LF


def _num_binding(bindings: dict[str, str], key: str) -> LF:
    v = parse_number(bindings[key])
    if v is None:
        raise UnparseableQuestion(f"threshold {bindings[key]!r} is not numeric")
    return ("num", v)


def build_logical_form(template: Template, bindings: dict[str, str]) -> LF:
    """Expression tree for one parsed question.

    A question reads the column its legend label names, or, when it names
    no legend label, the one its value phrase (``y_label``) or title names;
    on a plot without a legend that is the lone column (``_resolve_col``).
    Further legend labels (``legend_label2`` ...) name further columns.
    Templates that resolve against plot geometry rather than the table get
    the ("visual", id) sentinel, which routes them to the classification
    branch.
    """
    b = bindings
    tid = template.id
    name = b.get("legend_label", b.get("y_label", b.get("title")))
    col = ("col", name)

    def cell(tick: str, column: str | None = name) -> LF:
        return ("cell", b[tick], column)

    if tid in (25, 35):
        return ("monotonic_increasing", col)
    if tid == 29:
        return ("has_col", b["legend_label"])
    if tid == 32:
        return ("count_where", ("row_sizes",), "!=", ("ncols",))
    if tid in (33, 34):
        return cell("x_tick")
    if tid == 36:
        return ("strictly_dominates", col, ("col", b["legend_label2"]))
    if tid == 37:
        return ("strictly_dominates", ("col", b["legend_label2"]), col)
    if tid in (38, 39, 42, 43):
        return ("max" if tid in (38, 42) else "min", col)
    if tid in (40, 41, 44, 45):
        return ("argmax" if tid in (40, 44) else "argmin", col)
    if tid in (46, 50):
        return ("sum", col)
    if tid in (47, 51):
        return ("diff", cell("x_tick"), cell("x_tick2"))
    if tid in (48, 53):
        return ("mean", col)
    if tid == 49:
        return ("median", col)
    if tid == 52:
        return ("diff", cell("x_tick"), cell("x_tick2", b["legend_label2"]))
    if tid in (54, 55):
        return ("diff", cell("x_tick"), cell("x_tick", b["legend_label2"]))
    if tid in (56, 60):
        return ("count_where", col, ">", _num_binding(b, "n"))
    if tid == 57:
        return ("majority_gt", ("span", col, b["x_tick"], b["x_tick2"], b["incl"]), _num_binding(b, "n"))
    if tid in (58, 61):
        return ("ratio", cell("x_tick"), cell("x_tick2"))
    if tid in (59, 62):
        return ("cmp", "<", cell("x_tick"), cell("x_tick2"))
    if tid == 63:
        return ("cmp", ">", ("diff", cell("x_tick"), cell("x_tick2")), ("diff", ("max", col), ("min", col)))
    if tid in (64, 69):
        return ("diff", ("nth_from", col, 1, "largest"), ("nth_from", col, 2, "largest"))
    if tid == 65:
        return ("cmp", ">", ("add", cell("x_tick"), cell("x_tick2")), ("max", col))
    if tid in (66, 70):
        return ("diff", ("max", col), ("min", col))
    if tid in (67, 71):
        return ("count_where", col, ">", ("mean", col))
    if tid == 68:
        l2 = b["legend_label2"]
        d2 = ("diff", cell("x_tick", l2), cell("x_tick2", l2))
        return ("cmp", ">", ("diff", cell("x_tick"), cell("x_tick2")), d2)
    if tid == 72:
        s = ("pointwise_sum", col, ("col", b["legend_label2"]))
        return ("strictly_dominates", s, ("col", b["legend_label3"]))
    if tid == 73:
        return ("cmp", ">", ("add", cell("x_tick"), cell("x_tick2")), ("max", ("col", b["legend_label2"])))
    if tid == 74:
        s1 = ("pointwise_sum", col, ("col", b["legend_label2"]))
        s2 = ("pointwise_sum", ("col", b["legend_label3"]), ("col", b["legend_label4"]))
        return ("strictly_dominates", s1, s2)
    return ("visual", tid)


def parse(question: str) -> ParsedQuestion:
    """Match a question against the grammar; unique by template priority."""
    m = default_matcher().match(question)
    if m is None:
        raise UnparseableQuestion(question)
    template, bindings = m
    return ParsedQuestion(template.id, bindings, build_logical_form(template, bindings))


# ---------------------------------------------------------------------------
# execution

_CMP = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "!=": lambda a, b: a != b,
}


def _check_rows(t: SemiStructuredTable) -> None:
    """Rows are addressed by header text, so a repeated row header, or a
    row label that is also a column header, leaves the table unanswerable."""
    if len(set(t.row_headers)) != len(t.row_headers):
        raise AnswerUnavailable("duplicate row headers make rows ambiguous")
    if t.row_label and t.row_label in t.col_headers:
        raise AnswerUnavailable(f"row label {t.row_label!r} collides with a column")


def _resolve_col(t: SemiStructuredTable, name: str) -> int:
    if name in t.col_headers:
        return t.col_headers.index(name)
    if len(t.col_headers) == 1:
        # plots without a legend label their lone column with the value-axis
        # phrase; any value-phrase mention resolves to it
        return 0
    raise AnswerUnavailable(f"no column named {name!r}")


def _column(t: SemiStructuredTable, name: str) -> list[tuple[str, float]]:
    """(row header, value) pairs of one column's non-empty cells, in row order."""
    j = _resolve_col(t, name)
    return [(header, float(row[j])) for header, row in zip(t.row_headers, t.cells) if row[j] is not None]


def _eval_list(lf: LF, t: SemiStructuredTable) -> list[tuple[str, float]]:
    op = lf[0]
    if op == "col":
        return _column(t, lf[1])
    if op == "row_sizes":
        return [(header, float(sum(v is not None for v in row)))
                for header, row in zip(t.row_headers, t.cells)]
    if op == "span":
        items = _eval_list(lf[1], t)
        labels = [lab for lab, _ in items]
        a, b2, mode = lf[2], lf[3], lf[4]
        if a not in labels or b2 not in labels:
            raise AnswerUnavailable(f"span endpoint missing: {a!r}..{b2!r}")
        i, j = labels.index(a), labels.index(b2)
        if i > j:
            i, j = j, i
        if mode == "exclusive":
            i, j = i + 1, j - 1
        if i > j:
            raise AnswerUnavailable("empty span")
        return items[i:j + 1]
    if op == "pointwise_sum":
        xs, ys = _eval_list(lf[1], t), _eval_list(lf[2], t)
        if [l for l, _ in xs] != [l for l, _ in ys]:
            raise AnswerUnavailable("pointwise sum over misaligned columns")
        return [(l, vx + vy) for (l, vx), (_, vy) in zip(xs, ys)]
    raise AnswerUnavailable(f"not a list expression: {op}")


def _eval_scalar(lf: LF, t: SemiStructuredTable) -> float:
    """A scalar expression's value; finite cells can still overflow in
    sum/mean/median/add/diff/ratio, and such a value answers nothing."""
    value = _scalar(lf, t)
    if not math.isfinite(value):
        raise AnswerUnavailable(f"{lf[0]} is not finite")
    return value


def _scalar(lf: LF, t: SemiStructuredTable) -> float:
    op = lf[0]
    if op == "num":
        return float(lf[1])
    if op == "ncols":
        return float(len(t.col_headers))
    if op == "cell":
        row_text, col_name = lf[1], lf[2]
        for label, value in _column(t, col_name):
            if label == row_text:
                return value
        raise AnswerUnavailable(f"no cell ({row_text!r}, {col_name!r})")
    if op in ("max", "min", "sum", "mean", "median"):
        values = [v for _, v in _eval_list(lf[1], t)]
        if not values:
            raise AnswerUnavailable(f"{op} over an empty column")
        if op == "max":
            return max(values)
        if op == "min":
            return min(values)
        if op == "sum":
            return float(sum(values))
        if op == "mean":
            return float(sum(values)) / len(values)
        vs = sorted(values)
        k = len(vs)
        mid = k // 2
        return vs[mid] if k % 2 else (vs[mid - 1] + vs[mid]) / 2.0
    if op == "nth_from":
        values = [v for _, v in _eval_list(lf[1], t)]
        k, direction = int(lf[2]), lf[3]
        if k < 1 or k > len(values):
            raise AnswerUnavailable(f"rank {k} outside column of size {len(values)}")
        ordered = sorted(values, reverse=(direction == "largest"))
        return ordered[k - 1]
    if op == "diff":
        return _eval_scalar(lf[1], t) - _eval_scalar(lf[2], t)
    if op == "add":
        return _eval_scalar(lf[1], t) + _eval_scalar(lf[2], t)
    if op == "ratio":
        den = _eval_scalar(lf[2], t)
        if den == 0:
            raise AnswerUnavailable("ratio with zero denominator")
        return _eval_scalar(lf[1], t) / den
    if op == "count_where":
        threshold = _eval_scalar(lf[3], t)
        cmp = _CMP[lf[2]]
        return float(sum(1 for _, v in _eval_list(lf[1], t) if cmp(v, threshold)))
    raise AnswerUnavailable(f"not a scalar expression: {op}")


def execute(lf: LF, t: SemiStructuredTable) -> Answer:
    """Evaluate a logical form against the table."""
    _check_rows(t)
    op = lf[0]
    if op in ("argmax", "argmin"):
        items = _eval_list(lf[1], t)
        if not items:
            raise AnswerUnavailable(f"{op} over an empty column")
        # first occurrence wins on ties: max and min keep the first
        best = max(items, key=lambda it: it[1]) if op == "argmax" else min(items, key=lambda it: it[1])
        return text(best[0])
    if op == "has_col":
        return yes_no(lf[1] in t.col_headers)
    if op == "monotonic_increasing":
        values = [v for _, v in _eval_list(lf[1], t)]
        if not values:
            raise AnswerUnavailable("monotonicity of an empty column")
        return yes_no(all(b >= a for a, b in zip(values, values[1:])))
    if op == "strictly_dominates":
        xs, ys = _eval_list(lf[1], t), _eval_list(lf[2], t)
        if not xs or [l for l, _ in xs] != [l for l, _ in ys]:
            raise AnswerUnavailable("dominance over misaligned columns")
        return yes_no(all(vx > vy for (_, vx), (_, vy) in zip(xs, ys)))
    if op == "majority_gt":
        items = _eval_list(lf[1], t)
        if not items:
            raise AnswerUnavailable("majority over an empty span")
        threshold = _eval_scalar(lf[2], t)
        return yes_no(sum(1 for _, v in items if v > threshold) > len(items) / 2.0)
    if op == "cmp":
        return yes_no(_CMP[lf[1]](_eval_scalar(lf[2], t), _eval_scalar(lf[3], t)))
    return number(_eval_scalar(lf, t))


def to_sexpr(lf: LF) -> str:
    """Debug rendering, e.g. (count_where (col "price of diesel") > 0.6).
    Every string argument of a table lookup is quoted."""
    quote = lf[0] in ("col", "cell", "has_col", "span")
    parts = [lf[0]]
    for item in lf[1:]:
        if isinstance(item, tuple):
            parts.append(to_sexpr(item))
        elif quote and isinstance(item, str):
            parts.append(f'"{item}"')
        else:
            parts.append(str(item))
    return "(" + " ".join(parts) + ")"
