"""PlotReading: one association pass per plot, shared by both answering
branches. The brute-force oracle below is the per-mark loop the structural
branch used before the reading owned the association; it stays as an
independent check on the values of the reading's table."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plotquest.answers import AnswerUnavailable, parse_number as parse_tick_value
from plotquest.corpus import sample_plot_data
from plotquest.detsim import PAPER_LIKE, ZERO_NOISE, Detection, DetectionSet, perturb
from plotquest.hybrid import answer_hybrid
from plotquest.plotgen import make_plot_spec, render
from plotquest.qgen import instantiate_all
from plotquest.sie import (
    NO_CATEGORY_TICKS, TOO_FEW_VALUE_TICKS, UNASSIGNED_COLOR,
    _canonical_key, _horizontal, _interp, _tick_refs, associate_legend, read,
)

from conftest import HEAVY


def _of_classes(d: DetectionSet, *classes: str) -> list[Detection]:
    return sorted((x for x in d.detections if x.cls in classes), key=_canonical_key)


def brute_series_rows(d: DetectionSet) -> tuple[list[str], np.ndarray]:
    """Per-series readings by a fresh per-mark association loop."""
    bars = _of_classes(d, "bar")
    points = _of_classes(d, "line", "dotline")
    data = bars if len(bars) >= len(points) else points
    horizontal = len(bars) >= len(points) and _horizontal(bars)
    xticks, yticks = _of_classes(d, "xtick_label"), _of_classes(d, "ytick_label")
    cat_refs = _tick_refs(yticks, 1) if horizontal else _tick_refs(xticks, 0)
    val_ticks = []
    for r in _tick_refs(xticks, 0) if horizontal else _tick_refs(yticks, 1):
        v = parse_tick_value(r.text)
        if v is not None:
            val_ticks.append((v, r.pos))
    legend_map = associate_legend(_of_classes(d, "legend_label"), _of_classes(d, "legend_preview"))
    if legend_map:
        names = list(legend_map)
        color_to_row = {c: k for k, (_, c) in enumerate(legend_map.items())}
    else:
        names, color_to_row = [""], {}
    V = np.full((len(names), len(cat_refs)), np.nan)
    for det in data:
        if legend_map:
            if det.color is None or det.color not in color_to_row:
                continue
            r = color_to_row[det.color]
        else:
            r = 0
        if not cat_refs:
            raise AnswerUnavailable("no category ticks detected")
        c_axis = det.center[1] if horizontal else det.center[0]
        c = min(range(len(cat_refs)), key=lambda k: abs(cat_refs[k].pos - c_axis))
        if np.isnan(V[r][c]):
            if len(val_ticks) < 2:
                raise AnswerUnavailable("fewer than 2 readable value ticks")
            if det.cls == "bar":
                x, y, w, h = det.bbox
                p = (x + w) if horizontal else y
            else:
                p = det.center[0] if horizontal else det.center[1]
            V[r][c] = _interp(p, val_ticks)
    return names, V


def random_detections(rng: random.Random) -> DetectionSet:
    """Small random detection sets that hit every association corner:
    missing or unparseable ticks, off-legend and None colours, and marks
    duplicated onto one cell."""
    dets = []
    for _ in range(rng.choice([0, 0, 1, 2, 3, 4])):
        text = rng.choice(["2001", "2002", "2003", "200B", None, "Brazil"])
        dets.append(Detection("xtick_label", (rng.uniform(50, 700), 520, 30, 12), 1.0, text=text))
    for _ in range(rng.choice([0, 1, 1, 2, 3, 5])):
        text = rng.choice(["0", "10", "20", "2.000e+1", "1O", None, "-5"])
        dets.append(Detection("ytick_label", (20, rng.uniform(50, 500), 25, 12), 1.0, text=text))
    for k in range(rng.choice([0, 0, 1, 2, 3])):
        y = 40 + 25 * k
        dets.append(Detection("legend_preview", (600, y, 18, 10), 1.0, color=rng.choice([0, 1, 2, None])))
        dets.append(Detection("legend_label", (623, y, 40, 12), 1.0, text=rng.choice(["A", "B", "C", ""])))
    mark_cls = rng.choice(["bar", "line", "dotline"])
    horizontal = mark_cls == "bar" and rng.random() < 0.4
    for _ in range(rng.choice([0, 1, 3, 6, 9])):
        color = rng.choice([0, 1, 2, 5, None])  # 5 is on no legend
        a, b = rng.uniform(50, 700), rng.uniform(20, 300)
        if mark_cls != "bar":
            bbox = (a, rng.uniform(50, 500), 9.0, 9.0)
        elif horizontal:
            bbox = (80.0, a * 0.6, b, 20.0)
        else:
            bbox = (a, 500.0 - b, 20.0, b)
        mark = Detection(mark_cls, bbox, 1.0, color=color)
        dets.append(mark)
        if rng.random() < 0.2:
            dets.append(mark)  # duplicate mark on the same cell
    if rng.random() < 0.2:  # a stray mark of another family
        dets.append(Detection("line" if mark_cls == "bar" else "bar", (300, 200, 9, 9), 1.0, color=0))
    rng.shuffle(dets)
    return DetectionSet(dets)


def outcome(fn):
    try:
        return fn()
    except AnswerUnavailable as e:
        return ("unavailable", str(e))


def test_table_matches_brute_force_oracle():
    rng = random.Random(20240)
    seen = {"raised": 0, "answered": 0, UNASSIGNED_COLOR: 0, NO_CATEGORY_TICKS: 0, TOO_FEW_VALUE_TICKS: 0}
    for _ in range(3000):
        d = random_detections(rng)
        want = outcome(lambda: brute_series_rows(d))
        reading = read(d)
        t = reading.table  # series-major, an empty cell as nan
        got = np.array(t.cells, dtype=float).reshape(len(t.row_headers), len(t.col_headers)).T
        if isinstance(want[1], str):
            # where the oracle gives up, the table holds no value
            assert np.isnan(got).all()
            seen["raised"] += 1
        else:
            assert want[0] == (t.col_headers if reading.legend_map else [""])
            assert np.array_equal(got, want[1], equal_nan=True)
            seen["answered"] += 1
        for a in reading.assignments:
            if a.reason:
                seen[a.reason] += 1
    # every corner of the association was exercised
    assert all(n > 20 for n in seen.values()), seen


def test_reading_assignments_fill_the_table():
    rng = random.Random(7)
    for _ in range(500):
        reading = read(random_detections(rng))
        table = reading.table
        assert len(reading.assignments) == len(reading.data_marks)
        first: dict[tuple[int, int], float] = {}
        for a in reading.assignments:
            if a.reason is None:
                first.setdefault((a.row, a.col), a.value)
        filled = {(i, j): v for i, row in enumerate(table.cells) for j, v in enumerate(row) if v is not None}
        assert filled == first


def test_reading_views_are_derived_once():
    # a two-series bar plot with ticks on both axes: every view is available
    d = DetectionSet([
        Detection("xtick_label", (100, 310, 30, 12), 1.0, text="2008"),
        Detection("ytick_label", (10, 100, 30, 12), 1.0, text="100"),
        Detection("ytick_label", (10, 300, 30, 12), 1.0, text="0"),
        Detection("legend_label", (400, 20, 40, 12), 1.0, text="Brazil"),
        Detection("legend_preview", (370, 20, 18, 10), 1.0, color=0),
        Detection("legend_label", (400, 40, 40, 12), 1.0, text="Chile"),
        Detection("legend_preview", (370, 40, 18, 10), 1.0, color=1),
        Detection("bar", (105, 206, 10, 100), 1.0, color=0),
        Detection("bar", (117, 256, 10, 50), 1.0, color=1),
    ])
    rd = read(d)
    assert rd.table is rd.table
    assert rd.bar_groups is rd.bar_groups
    assert rd.table.cells == [[pytest.approx(50.0), pytest.approx(25.0)]]
    assert [len(g) for g in rd.bar_groups] == [2]


def test_no_reading_view_raises():
    # no category ticks: the table has no rows and there are no bar groups;
    # the answerer, not the reader, gives up on the questions that need them
    d = DetectionSet([
        Detection("ytick_label", (10, 100, 30, 12), 1.0, text="100"),
        Detection("ytick_label", (10, 300, 30, 12), 1.0, text="0"),
        Detection("bar", (105, 206, 10, 100), 1.0),
    ])
    rd = read(d)
    assert rd.table.cells == []
    assert rd.bar_groups == []
    for q in ("Does the graph contain any zero values?",
              "Are the number of bars on each tick equal to the number of legend labels?",
              "How many lines intersect with each other?"):
        with pytest.raises(AnswerUnavailable, match=NO_CATEGORY_TICKS):
            answer_hybrid(q, rd)


@pytest.mark.parametrize("noise", [ZERO_NOISE, PAPER_LIKE, HEAVY], ids=["zero", "paper_like", "heavy"])
def test_shared_reading_answers_like_fresh_calls(corpus, noise):
    def result(rd, text):
        try:
            return answer_hybrid(text, rd).to_json()
        except Exception as e:  # compare failure types, whatever they are
            return type(e).__name__

    for seed in range(10):
        data = sample_plot_data(corpus, seed)
        spec = make_plot_spec(data, seed)
        _, ann = render(spec)
        det = perturb(ann, noise.with_seed(seed))
        reading = read(det)
        for q in instantiate_all(spec, seed):
            assert result(reading, q.text) == result(read(det), q.text), (seed, q.text)


# -- the nearest category tick -------------------------------------------------
# The reading finds a mark's category tick by bisection; the scan below, the
# first tick at the least distance as computed, is the rule it must keep.

def _scan_nearest(reading, mark) -> int:
    c = mark.center[reading.cat_axis]
    return min(range(len(reading.cat_refs)), key=lambda k: abs(reading.cat_refs[k].pos - c))


def _at(x: float, w: float = 0.0) -> tuple[float, float, float, float]:
    """A box whose centre lies at x + w / 2 on the x axis."""
    return (x, 0.0, w, 1.0)


def _assert_bisection_is_the_scan(tick_boxes, mark_boxes):
    reading = read(DetectionSet([Detection("xtick_label", box, 1.0, text=str(k))
                                 for k, box in enumerate(tick_boxes)]))
    assert reading.cat_axis == 0
    for box in mark_boxes:
        mark = Detection("dotline", box, 1.0)
        assert reading._nearest_cat(mark) == _scan_nearest(reading, mark), (tick_boxes, box)


def test_nearest_tick_by_bisection_on_coincident_ticks_and_midpoints():
    marks = [_at(v / 2) for v in range(-2, 16)]
    _assert_bisection_is_the_scan([_at(1.0), _at(1.0), _at(1.0), _at(3.0), _at(3.0)], marks)
    _assert_bisection_is_the_scan([_at(0.0), _at(2.0), _at(4.0), _at(6.0)], marks)  # every odd mark is a midpoint
    _assert_bisection_is_the_scan([_at(2.0)] * 3, marks)


def test_nearest_tick_by_bisection_at_overflowing_centres():
    big = sys.float_info.max / 1.5
    inf_centre = _at(big, big)  # finite box, centre overflows to +inf
    assert Detection("dotline", inf_centre, 1.0).center[0] == math.inf
    ticks = [_at(0.0), _at(2.0), _at(1e20)]
    _assert_bisection_is_the_scan(ticks, [inf_centre, _at(1e40), _at(-1e40)])
    _assert_bisection_is_the_scan(ticks + [inf_centre, inf_centre], [inf_centre, _at(5.0), _at(big)])
    _assert_bisection_is_the_scan([inf_centre], [inf_centre, _at(0.0)])
    # 1e40 is as far from 1.0 as from 2.0 once rounded: the first tick wins
    _assert_bisection_is_the_scan([_at(1.0), _at(2.0)], [_at(1e40), _at(-1e40)])
    reading = read(DetectionSet([Detection("xtick_label", _at(p), 1.0, text="t") for p in (1.0, 2.0)]))
    assert reading._nearest_cat(Detection("dotline", inf_centre, 1.0)) == 0  # the scan's answer, kept


_MAX = sys.float_info.max
_coords = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0, 1e20, -1e20, 5e-324, _MAX / 1.5, -_MAX]),
                    st.floats(-_MAX, _MAX))
_boxes = st.builds(_at, _coords, st.sampled_from([0.0, 1.0, 3.0, _MAX / 1.5, _MAX]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ticks=st.lists(_boxes, min_size=1, max_size=6), marks=st.lists(_boxes, min_size=1, max_size=4))
def test_nearest_tick_by_bisection_is_the_scan(ticks, marks):
    _assert_bisection_is_the_scan(ticks, marks)


# -- value interpolation -----------------------------------------------------------
# The reading finds a mark's bracketing value anchors by bisection; the scan
# below, the first pair of neighbouring anchors whose pixels bracket p, else
# the pair at the nearer end, is the rule it must keep.

def _scan_interp(p: float, anchors: list[tuple[float, float]]) -> float:
    pairs = list(zip(anchors, anchors[1:]))
    outside = pairs[0] if p < anchors[0][1] else pairs[-1]
    (v0, p0), (v1, p1) = next((pair for pair in pairs if pair[0][1] <= p <= pair[1][1]), outside)
    value = v0 + (p - p0) * (v1 - v0) / (p1 - p0)
    return value if math.isfinite(value) else v0 + (p - p0) / (p1 - p0) * (v1 - v0)


def _assert_interp_is_the_scan(anchors, pixels):
    for p in pixels:
        got, want = _interp(p, anchors), _scan_interp(p, anchors)
        assert got == want or (math.isnan(got) and math.isnan(want)), (anchors, p)


def test_interp_by_bisection_at_anchors_between_and_outside_them():
    anchors = [(0.0, 0.0), (10.0, 100.0), (20.0, 200.0), (25.0, 300.0)]
    pixels = [-50.0, 0.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, math.inf, -math.inf]
    _assert_interp_is_the_scan(anchors, pixels)
    _assert_interp_is_the_scan([(1.0, 0.0), (2.0, math.inf)], [0.0, 5.0, math.inf])
    _assert_interp_is_the_scan([(1.0, -math.inf), (2.0, 0.0)], [-math.inf, -5.0, 0.0])


_pixels = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e20, _MAX, -_MAX, math.inf, -math.inf]),
                    st.floats(allow_nan=False))
_anchor_sets = st.lists(st.tuples(st.floats(-1e300, 1e300), _pixels), min_size=2, max_size=6,
                        unique_by=lambda a: a[1]).map(lambda anchors: sorted(anchors, key=lambda a: a[1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(anchors=_anchor_sets, data=st.data())
def test_interp_by_bisection_is_the_scan(anchors, data):
    at_anchor = st.sampled_from([p for _, p in anchors])
    _assert_interp_is_the_scan(anchors, data.draw(st.lists(st.one_of(at_anchor, _pixels), min_size=1, max_size=6)))
