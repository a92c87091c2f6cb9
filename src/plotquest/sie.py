"""Geometric reconstruction of the underlying table from a detection set.

``read(d)`` is the extraction API. It associates a plot's detections once
and returns a ``PlotReading``: the canonical marks, the category and value
ticks (``cat_refs``, ``val_ticks``), the legend map, the orientation, and
one ``MarkAssignment`` per data mark (its cell and value, or the reason it
was left out). Everything downstream reads from it: ``extract_table(d)`` is
``read(d).table()``, and both answering branches in ``hybrid`` share one
reading for all of a plot's questions. ``PlotReading.label_text`` is the one
rule for a title or axis label: the table's row label and no-legend column
header, and the answers to the title and axis-label questions, come from it.

The association mirrors how a human reads a chart: legend labels pair with
the nearest preview swatch, tick labels give named positions on each axis,
every bar (or line vertex) is assigned to the closest category tick and to
the legend entry whose color it carries, and the value is linearly
interpolated from the bar's value-edge pixel between the two bracketing
numeric ticks. Tick text is read as a number by ``answers.parse_number``.

Legend labels pair with previews by minimal Euclidean centroid distance
(ties broken in reading order). Marks pair with category ticks by centroid
distance projected onto the category axis: the perpendicular coordinate of
a bar centroid scales with its value, so unprojected distance misassigns
long bars even on noise-free input. Anything that cannot be associated
(unmatched color, unparseable tick text, too few numeric ticks, a value
that is not finite) degrades to an empty cell; extraction never guesses
and never raises once inputs are detections.

All association is permutation-invariant: detections are put into a
canonical order before any tie can matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .answers import AnswerUnavailable, parse_number, within_rel_tol
from .detsim import Detection, DetectionSet
from .plotgen import PlotAnnotation
from .table import SemiStructuredTable


@dataclass(frozen=True)
class _TickRef:
    text: str
    pos: float  # label center projected onto the axis
    center: tuple[float, float]


def _canonical(dets: list[Detection]) -> list[Detection]:
    return sorted(dets, key=lambda d: (d.cls, d.bbox, d.text or "", -1 if d.color is None else d.color))


# ---------------------------------------------------------------------------
# associations

def _stacked_horizontally(dets: list[Detection]) -> bool:
    """Legend entries sit side by side: their centres spread at least as far
    along x as along y (needs at least one entry)."""
    xs = [d.center[0] for d in dets]
    ys = [d.center[1] for d in dets]
    return (max(xs) - min(xs)) >= (max(ys) - min(ys))


def _reading_order(dets: list[Detection]) -> list[Detection]:
    """Order legend entries along their stacking direction."""
    if len(dets) <= 1:
        return list(dets)
    horizontal = _stacked_horizontally(dets)
    return sorted(dets, key=(lambda d: d.center[0]) if horizontal else (lambda d: d.center[1]))


def associate_legend(d: DetectionSet) -> dict[str, int]:
    """Map legend label text -> color id of its nearest preview swatch.

    One-to-one greedy matching on centroid distance; equidistant pairs fall
    back to reading order. An empty map signals the single-series fallback.
    """
    labels = _reading_order(_canonical(d.by_class("legend_label")))
    previews = _reading_order(_canonical(d.by_class("legend_preview")))
    labels = [l for l in labels if l.text]
    previews = [p for p in previews if p.color is not None]
    if not labels or not previews:
        return {}
    pairs = []
    for li, lab in enumerate(labels):
        for pi, prev in enumerate(previews):
            dist = math.dist(lab.center, prev.center)
            pairs.append((dist, li, pi))
    pairs.sort()
    out: dict[str, int] = {}
    used_l: set[int] = set()
    used_p: set[int] = set()
    for _, li, pi in pairs:
        if li in used_l or pi in used_p:
            continue
        used_l.add(li)
        used_p.add(pi)
        label_text = labels[li].text
        if label_text not in out:
            out[label_text] = int(previews[pi].color)
    return out


def _tick_refs(d: DetectionSet, axis: str) -> list[_TickRef]:
    """Labelled ticks on axis 'x' or 'y', ordered by pixel position."""
    cls = "xtick_label" if axis == "x" else "ytick_label"
    refs = []
    for det in _canonical(d.by_class(cls)):
        if det.text is None:
            continue
        cx, cy = det.center
        refs.append(_TickRef(det.text, cx if axis == "x" else cy, (cx, cy)))
    refs.sort(key=lambda r: r.pos)
    return refs


# ---------------------------------------------------------------------------
# value interpolation

def _value_anchors(value_ticks) -> list[tuple[float, float]]:
    """One (value, pixel) anchor per pixel position, sorted by pixel.

    Identical ticks at one position count once; a position whose ticks
    disagree anchors nothing.
    """
    at_pixel: dict[float, set[float]] = {}
    for v, pos in value_ticks:
        at_pixel.setdefault(pos, set()).add(v)
    return sorted(((vs.pop(), pos) for pos, vs in at_pixel.items() if len(vs) == 1), key=lambda t: t[1])


def _interp(p: float, ticks: list[tuple[float, float]]) -> float:
    """Linear value at pixel p given >= 2 ``_value_anchors``."""
    lo, hi = None, None
    for k in range(len(ticks) - 1):
        if ticks[k][1] <= p <= ticks[k + 1][1]:
            lo, hi = ticks[k], ticks[k + 1]
            break
    if lo is None:
        # outside the tick span: extrapolate from the two nearest extremes
        if p < ticks[0][1]:
            lo, hi = ticks[0], ticks[1]
        else:
            lo, hi = ticks[-2], ticks[-1]
    (v0, p0), (v1, p1) = lo, hi
    return v0 + (p - p0) * (v1 - v0) / (p1 - p0)


# ---------------------------------------------------------------------------
# one reading per plot

# why a data mark was left out of the table; the tick reasons also make every
# series reading unavailable (their texts double as AnswerUnavailable messages)
UNASSIGNED_COLOR = "mark colour matches no legend entry"
NO_CATEGORY_TICKS = "no category ticks detected"
TOO_FEW_VALUE_TICKS = "fewer than 2 readable value ticks"
NON_FINITE_VALUE = "mark value reads as a non-finite number"


@dataclass(frozen=True)
class MarkAssignment:
    """Where one data mark lands: cell (row, col) and value, or the reason
    it was left out (then row, col and value are None)."""
    row: int | None
    col: int | None
    value: float | None
    reason: str | None = None


def _infer_orientation(bars: list[Detection]) -> str:
    """Bars share a baseline: bottoms align for vertical, lefts for horizontal."""
    if len(bars) < 2:
        return "vertical"
    bottoms = [b.bbox[1] + b.bbox[3] for b in bars]
    lefts = [b.bbox[0] for b in bars]
    return "vertical" if np.std(bottoms) <= np.std(lefts) else "horizontal"


class PlotReading:
    """Everything geometric association learns from one detection set.

    Built once per plot by ``read``; the table and the per-series value
    rows are derived from it on first use and kept.
    """

    def __init__(self, d: DetectionSet):
        self.detections = d
        self.style = d.style
        self.bars = _canonical(d.by_class("bar"))
        self.points = _canonical([det for det in d.detections if det.cls in ("line", "dotline")])
        # majority vote between mark families: a lone misclassified element
        # must not displace the real data marks
        self.bars_are_data = len(self.bars) >= len(self.points)
        self.orientation = _infer_orientation(self.bars) if self.bars_are_data else "vertical"
        self.horizontal = self.orientation == "horizontal"
        self.cat_axis = "y" if self.horizontal else "x"
        self.val_axis = "x" if self.horizontal else "y"
        self.cat_refs = _tick_refs(d, self.cat_axis)
        val_refs = _tick_refs(d, self.val_axis)
        self.val_tick_texts = [r.text for r in val_refs]
        parsed = ((parse_number(r.text), r.pos) for r in val_refs)
        self.val_ticks = _value_anchors((v, pos) for v, pos in parsed if v is not None)
        self.legend_map = associate_legend(d)  # text -> color, reading order
        self._color_to_col = {c: k for k, c in enumerate(self.legend_map.values())}
        self.assignments = [self._assign(mark) for mark in self.data_marks]  # parallel to data_marks
        self._table: SemiStructuredTable | None = None
        self._series: tuple[list[str], np.ndarray] | None = None

    @property
    def data_marks(self) -> list[Detection]:
        return self.bars if self.bars_are_data else self.points

    @property
    def legend_texts(self) -> list[str]:
        return list(self.legend_map.keys())

    def label_text(self, cls: str) -> str:
        """The text of the first ``cls`` detection, in canonical order, that
        has one ("" when none does): the title or an axis label."""
        return next((det.text for det in _canonical(self.detections.by_class(cls)) if det.text), "")

    def nearest_cat(self, det: Detection) -> int:
        """Index of the category tick nearest a mark along the category axis."""
        if not self.cat_refs:
            raise AnswerUnavailable(NO_CATEGORY_TICKS)
        c_axis = det.center[1] if self.horizontal else det.center[0]
        return min(range(len(self.cat_refs)), key=lambda k: abs(self.cat_refs[k].pos - c_axis))

    def _assign(self, mark: Detection) -> MarkAssignment:
        # colour first, then category ticks, then value ticks
        if self.legend_map:
            col = self._color_to_col.get(mark.color)
            if col is None:
                return MarkAssignment(None, None, None, UNASSIGNED_COLOR)
        else:
            col = 0
        if not self.cat_refs:
            return MarkAssignment(None, None, None, NO_CATEGORY_TICKS)
        if len(self.val_ticks) < 2:
            return MarkAssignment(None, None, None, TOO_FEW_VALUE_TICKS)
        if mark.cls == "bar":  # the value edge: right for horizontal bars, top for vertical
            x, y, w, _ = mark.bbox
            p = x + w if self.horizontal else y
        else:
            p = mark.center[0] if self.horizontal else mark.center[1]
        value = float(_interp(p, self.val_ticks))
        if not math.isfinite(value):  # finite ticks far apart can overflow
            return MarkAssignment(None, None, None, NON_FINITE_VALUE)
        return MarkAssignment(self.nearest_cat(mark), col, value)

    def table(self) -> SemiStructuredTable:
        """The extracted table; the first mark assigned to a cell wins."""
        if self._table is None:
            if self.legend_map:
                col_headers = self.legend_texts  # insertion follows reading order
            else:
                col_headers = [self.label_text(f"{self.val_axis}axis_label") or "value"]
            cells: list[list[float | None]] = [[None] * len(col_headers) for _ in self.cat_refs]
            for a in self.assignments:
                if a.reason is None and cells[a.row][a.col] is None:
                    cells[a.row][a.col] = a.value
            self._table = SemiStructuredTable(
                row_headers=[r.text for r in self.cat_refs],
                col_headers=col_headers,
                cells=cells,
                row_label=self.label_text(f"{self.cat_axis}axis_label"),
            )
        return self._table

    def series_rows(self) -> tuple[list[str], np.ndarray]:
        """Per-series value readings aligned to category order (nan = missing).

        Series names are the legend texts, or a lone "" without a legend.
        Unavailable when any data mark that passes the colour filter cannot
        be placed for lack of category ticks or of 2 numeric value ticks.
        """
        if self._series is None:
            for a in self.assignments:
                if a.reason in (NO_CATEGORY_TICKS, TOO_FEW_VALUE_TICKS):
                    raise AnswerUnavailable(a.reason)
            names = self.legend_texts if self.legend_map else [""]
            cells = self.table().cells
            V = np.full((len(names), len(self.cat_refs)), np.nan)
            for i, row in enumerate(cells):
                for j, v in enumerate(row):
                    if v is not None:
                        V[j][i] = v
            self._series = (names, V)
        return self._series


def read(d: DetectionSet | PlotAnnotation) -> PlotReading:
    """Associate a detection set (or an exact annotation) once; never raises."""
    if isinstance(d, PlotAnnotation):
        d = DetectionSet(
            [Detection(cls=e.cls, bbox=e.bbox, score=1.0, text=e.text, color=e.color) for e in d.elements],
            style=d.style,
        )
    return PlotReading(d)


def extract_table(d: DetectionSet | PlotAnnotation | PlotReading) -> SemiStructuredTable:
    """Reconstruct the semi-structured table from detections.

    Always returns a table; association failures leave empty cells and
    unreadable axes simply produce no values.
    """
    return (d if isinstance(d, PlotReading) else read(d)).table()


# ---------------------------------------------------------------------------
# extraction quality

def table_f1(
    pred: SemiStructuredTable,
    gold: SemiStructuredTable,
    rel_tol: float,
) -> tuple[float, float, float]:
    """Precision, recall and F1 over {row, col, value} tuples.

    A predicted tuple matches a gold tuple when row and column headers are
    string-equal and the value lies within rel_tol relative error of the
    gold value (gold 0 demands an exact 0). Matching is one-to-one, which
    the (row, col) keys already guarantee.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be >= 0")
    pred_tuples = {(t.row, t.col): t.value for t in pred.tuples()}
    gold_tuples = {(t.row, t.col): t.value for t in gold.tuples()}
    matched = 0
    for key, pv in pred_tuples.items():
        if key in gold_tuples and within_rel_tol(pv, gold_tuples[key], rel_tol):
            matched += 1
    n_pred, n_gold = len(pred_tuples), len(gold_tuples)
    precision = matched / n_pred if n_pred else (1.0 if n_gold == 0 else 0.0)
    recall = matched / n_gold if n_gold else (1.0 if n_pred == 0 else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1
