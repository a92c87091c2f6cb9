"""Geometric reconstruction of the underlying table from a detection set.

``read(d)``, the extraction API, is the one place a plot is read. It
associates a plot's detections, or an annotation's elements as they are,
once and returns a ``PlotReading``: the canonical marks, the category and
value ticks (``cat_refs``, ``val_ticks``), the legend map, the orientation
and one ``MarkAssignment`` per data mark (its cell and value, or the reason
it was left out). Everything downstream takes the reading:
``extract_table(reading)`` is ``reading.table``, the bar questions read
``bar_groups``, and every answerer in ``hybrid`` takes the one reading of
a plot. ``PlotReading.label_text`` is the one rule for a title or axis
label: the table's row label and no-legend column header, and the answers
to the title and axis-label questions, come from it.

The association mirrors how a human reads a chart: legend labels pair with
the nearest preview swatch, tick labels give named positions on each axis,
every bar (or line vertex) is assigned to the closest category tick and to
the legend entry whose color it carries, and the value is linearly
interpolated from the bar's value-edge pixel between the two bracketing
numeric ticks. Tick text is read as a number by ``answers.parse_number``.

Legend labels pair with previews by minimal Euclidean centroid distance
(ties broken in reading order); the legend map, and so the table's columns,
lists the labels in reading order along the legend's stacking direction,
whatever order the pairs were accepted in. Marks pair with category ticks
by centroid distance projected onto the category axis: the perpendicular
coordinate of a bar centroid scales with its value, so unprojected distance
misassigns long bars even on noise-free input. Anything that cannot be
associated (unmatched color, unparseable tick text, too few numeric ticks,
a value that is not finite) degrades to an empty cell, and a plot without
category ticks to an empty table and no bar groups: extraction never
guesses and never raises, and giving up is the answerer's call.

All association is permutation-invariant: a reading partitions its
detections by element class and sorts each class list once into canonical
order, before any tie can matter (``elements``). A mark finds its category
tick by bisection over the sorted tick positions, with the first of
equally near ticks winning. Orientation is one boolean, and each axis is a
centre-coordinate index (``cat_axis``, ``val_axis``: 0 = x, 1 = y); bar
boxes too large for their spreads to be taken directly are rescaled by a
power of two before orientation is decided.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .answers import parse_number, within_rel_tol
from .detsim import Detection, DetectionSet
from .plotgen import ELEMENT_CLASSES, PlotAnnotation
from .table import SemiStructuredTable


@dataclass(frozen=True)
class _TickRef:
    text: str
    pos: float  # label center projected onto the axis


# the tick-label and axis-label classes of axis 0 (x) and axis 1 (y)
_TICK_LABELS = ("xtick_label", "ytick_label")
_AXIS_LABELS = ("xaxis_label", "yaxis_label")


def _canonical_key(d: Detection) -> tuple:
    return (d.cls, d.bbox, d.text or "", -1 if d.color is None else d.color)


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
    axis = 0 if _stacked_horizontally(dets) else 1
    return sorted(dets, key=lambda d: d.center[axis])


def associate_legend(labels: list[Detection], previews: list[Detection]) -> dict[str, int]:
    """Map legend label text -> color id of its nearest preview swatch, keys
    in the labels' reading order (both lists come in canonical order).

    One-to-one greedy matching on centroid distance; equidistant pairs fall
    back to reading order, and a text on two labels takes the colour of its
    first accepted pair. An empty map signals the single-series fallback.
    """
    labels = [l for l in _reading_order(labels) if l.text]
    previews = [p for p in _reading_order(previews) if p.color is not None]
    pairs = sorted((math.dist(lab.center, prev.center), li, pi)
                   for li, lab in enumerate(labels) for pi, prev in enumerate(previews))
    first: dict[str, tuple[int, int]] = {}  # text -> (label index, colour) of its first pair
    used_l: set[int] = set()
    used_p: set[int] = set()
    for _, li, pi in pairs:
        if li in used_l or pi in used_p:
            continue
        used_l.add(li)
        used_p.add(pi)
        first.setdefault(labels[li].text, (li, int(previews[pi].color)))
    # each key sits where the label that gave its colour sits in reading order
    return {t: color for t, (_, color) in sorted(first.items(), key=lambda item: item[1])}


def _tick_refs(labels: list[Detection], axis: int) -> list[_TickRef]:
    """The labelled ticks among ``labels`` (canonical order), placed at their
    centre coordinate ``axis`` (0 = x, 1 = y) and ordered by it."""
    return sorted((_TickRef(det.text, det.center[axis]) for det in labels if det.text is not None),
                  key=lambda r: r.pos)


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
    """Linear value at pixel p given >= 2 ``_value_anchors``, from the pair
    that brackets p, found by bisection, or the nearer end pair outside it."""
    k = min(max(bisect_left(ticks, p, key=lambda t: t[1]), 1), len(ticks) - 1)
    (v0, p0), (v1, p1) = ticks[k - 1], ticks[k]
    value = v0 + (p - p0) * (v1 - v0) / (p1 - p0)
    if math.isfinite(value):
        return value
    # huge pixel spans overflow the product, not the reading: divide first
    return v0 + (p - p0) / (p1 - p0) * (v1 - v0)


# ---------------------------------------------------------------------------
# one reading per plot

# why a data mark was left out of the table; ``hybrid`` gives up on the series
# questions with the first tick reason among the assignments, as its message
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


def _horizontal(bars: list[Detection]) -> bool:
    """Bars share a baseline: bottoms align for vertical bars, lefts for
    horizontal ones; fewer than 2 bars read as vertical."""
    if len(bars) < 2:
        return False
    bottoms = [b.bbox[1] + b.bbox[3] for b in bars]
    lefts = [b.bbox[0] for b in bars]
    big = max(max(bottoms), -min(bottoms), max(lefts), -min(lefts))
    if not big <= 2.0 ** 500:  # also when a bottom edge overflows to inf
        # the comparison does not change with scale: bring every number
        # below 1 by a power of two, so no bottom edge or spread overflows;
        # boxes of ordinary size are never rescaled
        boxes = np.array([b.bbox for b in bars])
        boxes = np.ldexp(boxes, -np.frexp(np.abs(boxes).max())[1])
        bottoms, lefts = boxes[:, 1] + boxes[:, 3], boxes[:, 0]
    return not np.std(bottoms) <= np.std(lefts)


class PlotReading:
    """Everything geometric association learns from one detection set or
    annotation. Built once per plot by ``read``; the table and the bar
    groups are cached properties, derived on first use and kept. No view
    raises: without category ticks, both are empty.
    """

    def __init__(self, d: DetectionSet | PlotAnnotation):
        self.style = d.style
        # each class keeps its elements in canonical order (the class leads
        # the key, so sorting each class list sorts the whole set)
        self.elements: dict[str, list[Detection]] = {cls: [] for cls in ELEMENT_CLASSES}
        for det in d.elements if isinstance(d, PlotAnnotation) else d.detections:
            self.elements[det.cls].append(det)
        for dets in self.elements.values():
            dets.sort(key=_canonical_key)
        self.bars = self.elements["bar"]
        self.points = self.elements["dotline"] + self.elements["line"]  # as the sort orders them
        # majority vote between mark families: a lone misclassified element
        # must not displace the real data marks
        self.bars_are_data = len(self.bars) >= len(self.points)
        self.horizontal = self.bars_are_data and _horizontal(self.bars)
        # each axis as the index of its centre coordinate: 0 = x, 1 = y
        self.cat_axis = int(self.horizontal)
        self.val_axis = 1 - self.cat_axis
        self.cat_refs = _tick_refs(self.elements[_TICK_LABELS[self.cat_axis]], self.cat_axis)
        self._cat_pos = [r.pos for r in self.cat_refs]  # ascending
        val_refs = _tick_refs(self.elements[_TICK_LABELS[self.val_axis]], self.val_axis)
        self.val_tick_texts = [r.text for r in val_refs]
        parsed = ((parse_number(r.text), r.pos) for r in val_refs)
        self.val_ticks = _value_anchors((v, pos) for v, pos in parsed if v is not None)
        self.legend_map = associate_legend(self.elements["legend_label"], self.elements["legend_preview"])
        self.legend_texts = list(self.legend_map)  # in reading order
        self._color_to_col = {c: k for k, c in enumerate(self.legend_map.values())}
        self.assignments = [self._assign(mark) for mark in self.data_marks]  # parallel to data_marks

    @property
    def data_marks(self) -> list[Detection]:
        return self.bars if self.bars_are_data else self.points

    def label_text(self, cls: str) -> str:
        """The text of the first ``cls`` detection, in canonical order, that
        has one ("" when none does): the title or an axis label."""
        return next((det.text for det in self.elements[cls] if det.text), "")

    def legend_label_of(self, color: int | None) -> str | None:
        """The legend text whose preview carries ``color``, or None."""
        col = self._color_to_col.get(color)
        return None if col is None else self.legend_texts[col]

    def _nearest_cat(self, det: Detection) -> int:
        """Index of the category tick nearest a mark along the category axis;
        of ticks at the same distance (as computed), the first.

        The distance falls towards the mark and rises past it, so the nearest
        tick is a neighbour of the mark's bisection point; when the left
        neighbour is no farther than the right one, the answer is the first
        tick left of the mark at the left neighbour's distance. A mark whose
        centre overflows to +inf is equally far from every tick: tick 0."""
        c = det.center[self.cat_axis]
        pos = self._cat_pos
        i = bisect_left(pos, c)
        if i == len(pos) or (i > 0 and not abs(pos[i] - c) < abs(pos[i - 1] - c)):
            return bisect_left(pos, -abs(pos[i - 1] - c), 0, i, key=lambda p: -abs(p - c))
        return i

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
            p = mark.center[self.val_axis]
        value = float(_interp(p, self.val_ticks))
        if not math.isfinite(value):  # finite ticks far apart can overflow
            return MarkAssignment(None, None, None, NON_FINITE_VALUE)
        return MarkAssignment(self._nearest_cat(mark), col, value)

    @cached_property
    def table(self) -> SemiStructuredTable:
        """The extracted table; the first mark assigned to a cell wins."""
        if self.legend_map:
            col_headers = self.legend_texts  # insertion follows reading order
        else:
            col_headers = [self.label_text(_AXIS_LABELS[self.val_axis]) or "value"]
        cells: list[list[float | None]] = [[None] * len(col_headers) for _ in self.cat_refs]
        for a in self.assignments:
            if a.reason is None and cells[a.row][a.col] is None:
                cells[a.row][a.col] = a.value
        return SemiStructuredTable(
            row_headers=[r.text for r in self.cat_refs],
            col_headers=col_headers,
            cells=cells,
            row_label=self.label_text(_AXIS_LABELS[self.cat_axis]),
        )

    @cached_property
    def bar_groups(self) -> list[list[Detection]]:
        """The bars under each category tick, parallel to ``cat_refs``: every
        bar joins its nearest tick, and each group runs along the category
        axis. Empty when there are no category ticks."""
        if not self.cat_refs:  # before _nearest_cat, which needs a tick
            return []
        groups: list[list[Detection]] = [[] for _ in self.cat_refs]
        for bar in self.bars:
            groups[self._nearest_cat(bar)].append(bar)
        return [sorted(g, key=lambda bar: bar.center[self.cat_axis]) for g in groups]


def read(d: DetectionSet | PlotAnnotation) -> PlotReading:
    """Associate a detection set, or an annotation's elements, once; never
    raises."""
    return PlotReading(d)


def extract_table(reading: PlotReading) -> SemiStructuredTable:
    """The semi-structured table of a plot's reading: association failures
    leave empty cells, and unreadable axes produce no values."""
    return reading.table


# ---------------------------------------------------------------------------
# extraction quality

def _filled_cells(table: SemiStructuredTable) -> dict[tuple[str, str], float]:
    """{(row, col): value} of the non-empty cells; a later cell under the same headers wins."""
    return {(rh, ch): float(v)
            for rh, row in zip(table.row_headers, table.cells)
            for ch, v in zip(table.col_headers, row) if v is not None}


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
    pred_tuples, gold_tuples = _filled_cells(pred), _filled_cells(gold)
    matched = 0
    for key, pv in pred_tuples.items():
        if key in gold_tuples and within_rel_tol(pv, gold_tuples[key], rel_tol):
            matched += 1
    n_pred, n_gold = len(pred_tuples), len(gold_tuples)
    precision = matched / n_pred if n_pred else (1.0 if n_gold == 0 else 0.0)
    recall = matched / n_gold if n_gold else (1.0 if n_pred == 0 else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1
