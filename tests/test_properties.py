"""Property tests for the library contract on arbitrary detection sets:
extraction never raises, never fills a cell with a non-finite value and does
not depend on detection order, and the answering functions raise only
AnswerUnavailable or UnparseableQuestion.

Two generators feed them. One builds sets from scratch: coordinates snap to
a coarse grid so that coincident ticks, shared baselines and duplicate
marks come up often, and any class may be empty. The other damages clean
rendered plots (drops, duplicates, retexts or recolours a few elements),
which keeps enough structure for value questions to get past extraction. Texts
and colours come from small pools with duplicates, empty and None texts,
and colours off the palette. A third generator, with its own tests, gives
clean plots value ticks that read 1e308 and -1e308 in turn: finite texts
whose interpolated values overflow; a fourth scales every box of a clean
plot by 2**1010 to 2**1013, finite boxes whose edges and spreads overflow
unless computed at another scale, and which must read the unscaled plot's
table."""

import math
import warnings

from hypothesis import given, settings, strategies as st

from plotquest.answers import AnswerUnavailable, UnparseableQuestion
from plotquest.corpus import default_corpus, sample_plot_data
from plotquest.detsim import Detection, DetectionSet
from plotquest.hybrid import answer_hybrid, answer_pipeline_only, answer_structural
from plotquest.plotgen import ELEMENT_CLASSES, make_plot_spec, render
from plotquest.sie import extract_table, read
from plotquest.templates import default_templates, ordinal

from conftest import clean_detections, make_style

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

TEXTS = ["2001", "2002", "2003", "200B", "0", "10", "20", "-5", "2.000e+1", "1O", "",
         "A", "B", "Brazil", "Price of diesel", "1e308", "-1e308"]
COLORS = [None, 0, 1, 2, 999, -1]  # 999 and -1 are on no palette
TEXT_SLOTS = [t for t in TEXTS if t]
SLOT_VALUES = {
    "i": [ordinal(k) for k in range(4)],
    "j": [ordinal(k) for k in range(4)],
    "n": ["0", "5", "12.5", "1e999"],
    "figure_type": ["bar", "line", "dotline"],
    "incl": ["inclusive", "exclusive"],
}
# at most this many detections of each class in a set built from scratch
CLASS_COUNTS = {"bar": 8, "line": 4, "dotline": 4, "xtick_label": 4, "ytick_label": 4,
                "legend_label": 3, "legend_preview": 3, "title": 1, "xaxis_label": 1, "yaxis_label": 1}
assert set(CLASS_COUNTS) == set(ELEMENT_CLASSES)

grid = st.integers(0, 40).map(lambda k: 20.0 * k)
texts = st.sampled_from([None] + TEXTS)
colors = st.sampled_from(COLORS)
styles = st.sampled_from([None, make_style(2), make_style(1, legend_position="bottom-centre")])
class_lists = [
    st.lists(st.builds(Detection, cls=st.just(cls), score=st.just(1.0), text=texts, color=colors,
                       bbox=st.tuples(grid, grid, st.sampled_from([0.0, 9.0, 20.0, 120.0]),
                                      st.sampled_from([0.0, 12.0, 60.0, 200.0]))),
             max_size=most)
    for cls, most in CLASS_COUNTS.items()
]


@st.composite
def scratch_sets(draw):
    dets = []
    for class_list in class_lists:
        dets += draw(class_list)
    if dets:
        dets += draw(st.lists(st.sampled_from(dets), max_size=3))  # exact duplicates
    return DetectionSet(dets, style=draw(styles))


def _clean_plots() -> list[DetectionSet]:
    """The first seed of each (plot type, single series or not) pair."""
    corpus, first = default_corpus(), {}
    for seed in range(200):
        data = sample_plot_data(corpus, seed)
        spec = make_plot_spec(data, seed)
        first.setdefault((spec.plot_type, data.n_series == 1), spec)
    assert len(first) == 8
    return [clean_detections(render(spec)[1]) for spec in first.values()]


CLEAN_PLOTS = _clean_plots()


@st.composite
def damaged_plots(draw):
    plot = draw(st.sampled_from(CLEAN_PLOTS))
    dets = list(plot.detections)
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(dets) - 1))
        det = dets.pop(k)
        edit = draw(st.sampled_from(["drop", "twice", "retext", "recolor"]))
        if edit == "retext":
            det = Detection(det.cls, det.bbox, det.score, draw(texts), det.color)
        elif edit == "recolor":
            det = Detection(det.cls, det.bbox, det.score, det.text, draw(colors))
        if edit != "drop":
            dets[k:k] = [det] * (2 if edit == "twice" else 1)
    return DetectionSet(dets, style=draw(st.sampled_from([None, plot.style])))


detection_sets = st.one_of(scratch_sets(), damaged_plots())


def _value_ticks(plot: DetectionSet) -> list[int]:
    """Indices of a plot's value-axis tick labels, in pixel order."""
    axis = read(plot).val_axis  # 0 = x, 1 = y
    ticks = [k for k, det in enumerate(plot.detections) if det.cls == ("xtick_label", "ytick_label")[axis]]
    return sorted(ticks, key=lambda k: plot.detections[k].center[axis])


VALUE_TICKS = [_value_ticks(plot) for plot in CLEAN_PLOTS]


@st.composite
def overflowing_plots(draw):
    """A clean plot whose value ticks (all of them, or one adjacent pair)
    read 1e308 and -1e308 in turn, so every value between two of them
    overflows to a non-finite number."""
    n = draw(st.integers(0, len(CLEAN_PLOTS) - 1))
    plot, ticks = CLEAN_PLOTS[n], VALUE_TICKS[n]
    if not draw(st.booleans()):
        k = draw(st.integers(0, len(ticks) - 2))
        ticks = ticks[k:k + 2]
    dets = list(plot.detections)
    for i, k in enumerate(ticks):
        det = dets[k]
        dets[k] = Detection(det.cls, det.bbox, det.score, "-1e308" if i % 2 else "1e308", det.color)
    return DetectionSet(dets, style=plot.style)


@st.composite
def questions(draw, d: DetectionSet):
    """A question from any template; text slots mostly name texts the plot has."""
    template = draw(st.sampled_from(default_templates()))
    own = sorted({det.text for det in d.detections if det.text}) or TEXT_SLOTS
    slot_texts = st.one_of(st.sampled_from(own), st.sampled_from(TEXT_SLOTS))
    bindings = {name: draw(st.sampled_from(SLOT_VALUES[name]) if name in SLOT_VALUES else slot_texts)
                for name in template.slots}
    return template.fill(bindings)


def _assert_extraction_is_finite_and_ignores_order(d, data):
    table = extract_table(read(d))
    assert all(v is None or math.isfinite(v) for row in table.cells for v in row), table.cells
    shuffled = data.draw(st.permutations(d.detections))
    assert extract_table(read(DetectionSet(shuffled, style=d.style))).to_json() == table.to_json()


def _assert_answering_raises_only_documented_errors(d, data):
    reading = read(d)
    for q in data.draw(st.lists(questions(d), min_size=1, max_size=8)):
        for fn in (answer_hybrid, answer_pipeline_only, answer_structural):
            try:
                fn(q, reading)
            except (AnswerUnavailable, UnparseableQuestion):
                pass


@PROPERTY_SETTINGS
@given(d=detection_sets, data=st.data())
def test_extraction_never_raises_and_ignores_order(d, data):
    _assert_extraction_is_finite_and_ignores_order(d, data)


@PROPERTY_SETTINGS
@given(d=detection_sets, data=st.data())
def test_answering_raises_only_documented_errors(d, data):
    _assert_answering_raises_only_documented_errors(d, data)


@PROPERTY_SETTINGS
@given(d=overflowing_plots(), data=st.data())
def test_overflowing_value_ticks_keep_the_contract(d, data):
    _assert_extraction_is_finite_and_ignores_order(d, data)
    _assert_answering_raises_only_documented_errors(d, data)


HUGE_SCALES = range(1010, 1014)


def _scaled(plot: DetectionSet, k: int) -> DetectionSet:
    return DetectionSet([Detection(det.cls, tuple(math.ldexp(v, k) for v in det.bbox), det.score,
                                   det.text, det.color) for det in plot.detections], style=plot.style)


@st.composite
def huge_plots(draw):
    """A clean plot with every box scaled by a power of two from 2**1010 to
    2**1013: rendered coordinates stay below 1024, so every number is finite."""
    return _scaled(draw(st.sampled_from(CLEAN_PLOTS)), draw(st.sampled_from(HUGE_SCALES)))


@PROPERTY_SETTINGS
@given(d=huge_plots(), data=st.data())
def test_huge_boxes_extract_without_warnings(d, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_extraction_is_finite_and_ignores_order(d, data)


def test_huge_boxes_read_the_table_of_scale_1():
    # the strategy's whole space: each clean plot at each huge scale fills
    # the cells it fills at scale 1, with the same values up to rounding
    for plot in CLEAN_PLOTS:
        table = extract_table(read(plot))
        for k in HUGE_SCALES:
            huge = extract_table(read(_scaled(plot, k)))
            assert (huge.row_headers, huge.col_headers) == (table.row_headers, table.col_headers)
            for row, huge_row in zip(table.cells, huge.cells):
                assert [v is None for v in huge_row] == [v is None for v in row], k
                assert all(v is None or math.isclose(h, v, rel_tol=1e-12) for v, h in zip(row, huge_row)), k
