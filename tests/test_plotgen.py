import json
import math

import numpy as np
import pytest

from plotquest import plotgen
from plotquest.answers import format_number, format_scientific, number
from plotquest.corpus import sample_plot_data
from plotquest.detsim import PAPER_LIKE, Detection, DetectionSet, perturb
from plotquest.plotgen import (
    LEGEND_POSITIONS, PLOT_TYPES, LayoutError, PlotAnnotation, VisualElement, make_plot_spec,
    render, validate_annotation, value_axis, format_tick,
)
from plotquest.qgen import QuestionInstance, instantiate
from plotquest.templates import templates_by_id

from conftest import make_data, make_indicator, make_spec, make_style, rendered


def of_class(ann: PlotAnnotation, cls: str) -> list[VisualElement]:
    return [e for e in ann.elements if e.cls == cls]

def test_make_plot_spec_deterministic(corpus):
    data = sample_plot_data(corpus, 5)
    assert make_plot_spec(data, 77) == make_plot_spec(data, 77)


def test_spec_sampling_covers_all_choices(corpus):
    data = sample_plot_data(corpus, 5)
    positions, types = set(), set()
    for seed in range(10_000):
        spec = make_plot_spec(data, seed)
        positions.add(spec.style.legend_position)
        types.add(spec.plot_type)
    assert positions == set(LEGEND_POSITIONS)
    assert types == set(PLOT_TYPES)


@pytest.mark.parametrize("options, drawn", [
    ("PLOT_TYPES", lambda spec: spec.plot_type),
    ("TICK_NOTATIONS", lambda spec: spec.style.tick_notation),
    ("LINE_STYLES", lambda spec: spec.style.line_style),
    ("MARKERS", lambda spec: spec.style.marker),
    ("LEGEND_POSITIONS", lambda spec: spec.style.legend_position),
], ids=["plot_type", "tick_notation", "line_style", "marker", "legend_position"])
def test_spec_sampling_draws_every_option_of_each_style_list(corpus, monkeypatch, options, drawn):
    # the draw reads each list's length: an option added to a list is drawn,
    # and a list cut short is never indexed past its end
    data = sample_plot_data(corpus, 5)
    full = getattr(plotgen, options)
    for patched in (full, full + ("added",), full[:-1]):
        monkeypatch.setattr(plotgen, options, patched)
        assert {drawn(make_plot_spec(data, seed)) for seed in range(300)} == set(patched), patched


def test_four_series_get_distinct_colors(corpus):
    data = None
    for seed in range(200):
        d = sample_plot_data(corpus, seed)
        if d.n_series == 4:
            data = d
            break
    assert data is not None
    spec = make_plot_spec(data, 3)
    assert len(set(spec.style.series_colors)) == 4


def test_bar_count_2x3_vbar():
    data = make_data([[1, 2, 3], [4, 5, 6]])
    _, _, ann = rendered(data, "vbar")
    assert len(of_class(ann, "bar")) == 6


def test_bar_top_is_linear_map_of_value():
    # ticks at 0 and 100 define the axis; a value of 50 must land exactly
    # halfway between their pixel rows
    data = make_data([[50.0, 100.0]], indicator=make_indicator(lo=1, hi=100))
    _, _, ann = rendered(data, "vbar")
    ticks = {e.text: e.center[1] for e in of_class(ann, "ytick_label")}
    y0, y100 = ticks["0"], ticks["100"]
    bar = next(e for e in of_class(ann, "bar") if e.x_index == 0)
    assert bar.bbox[1] == pytest.approx((y0 + y100) / 2.0, abs=1e-9)


def test_scientific_tick_label_matches_reference_format():
    assert format_tick(200000.0, "scientific_E") == "2.000e+5"
    data = make_data([[150000.0, 200000.0]], indicator=make_indicator(lo=1, hi=3e5))
    _, _, ann = rendered(data, "vbar", tick_notation="scientific_E")
    texts = {e.text for e in of_class(ann, "ytick_label")}
    assert "2.000e+5" in texts


@pytest.mark.parametrize("render,value,want", [
    (format_number, 200000.0, "2.000e+5"), (format_number, 123456.0, "1.235e+5"),
    (format_number, 999949.9, "9.999e+5"),
    # a mantissa that rounds to 10.000 moves to the next exponent
    (format_number, 999999.7, "1.000e+6"), (format_number, -999999.7, "-1.000e+6"),
    (format_number, 9999600000.0, "1.000e+10"),
    (format_scientific, 99999.9, "1.000e+5"), (format_scientific, -99999.9, "-1.000e+5"),
])
def test_scientific_rendering_keeps_one_digit_before_the_point(render, value, want):
    assert render(value) == want


def test_value_axis_nice_maximum():
    for vmax, expect_max in ((3.0, 5.0), (1.7, 2.0), (2.2, 2.5), (0.9, 1.0), (62.0, 100.0)):
        data = make_data([[vmax, vmax / 2]], indicator=make_indicator(lo=0.01, hi=vmax))
        axis_max, step, ticks = value_axis(data)
        assert axis_max == pytest.approx(expect_max)
        assert 5 <= len(ticks) <= 10
        assert ticks[0] == 0.0
        # tick labels re-parse to the exact tick value
        for t in ticks:
            assert float(format_tick(t, "standard")) == t


def _up(v):
    return math.nextafter(v, math.inf)


# data max -> value-axis ticks, at every boundary of the nice-number rule
# (leading digits exactly 1, 2, 2.5 and 5, and the next float above each)
# over exponents from 1e-3 to the corpus cap of 3.5e15
VALUE_AXIS_PINS = [
    (0.0, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
    (1e-3, [0.0, 2e-4, 4e-4, 6e-4, 8e-4, 1e-3]),
    (_up(1e-3), [0.0, 5e-4, 1e-3, 1.5e-3, 2e-3]),
    (2e-3, [0.0, 5e-4, 1e-3, 1.5e-3, 2e-3]),
    (_up(2e-3), [0.0, 5e-4, 1e-3, 1.5e-3, 2e-3, 2.5e-3]),
    (2.5e-3, [0.0, 5e-4, 1e-3, 1.5e-3, 2e-3, 2.5e-3]),
    (_up(2.5e-3), [0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3]),
    (5e-3, [0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3]),
    (_up(5e-3), [0.0, 2e-3, 4e-3, 6e-3, 8e-3, 1e-2]),
    (1.0, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
    (_up(1.0), [0.0, 0.5, 1.0, 1.5, 2.0]),
    (2.0, [0.0, 0.5, 1.0, 1.5, 2.0]),
    (_up(2.0), [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]),
    (10.0, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]),
    (25.0, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]),
    (_up(25.0), [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]),
    (500.0, [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]),
    (_up(500.0), [0.0, 200.0, 400.0, 600.0, 800.0, 1000.0]),
    (2e6, [0.0, 5e5, 1e6, 1.5e6, 2e6]),
    (_up(2e6), [0.0, 5e5, 1e6, 1.5e6, 2e6, 2.5e6]),
    (2.5e9, [0.0, 5e8, 1e9, 1.5e9, 2e9, 2.5e9]),
    (_up(2.5e9), [0.0, 1e9, 2e9, 3e9, 4e9, 5e9]),
    (5e12, [0.0, 1e12, 2e12, 3e12, 4e12, 5e12]),
    (_up(5e12), [0.0, 2e12, 4e12, 6e12, 8e12, 1e13]),
    (1e15, [0.0, 2e14, 4e14, 6e14, 8e14, 1e15]),
    (_up(1e15), [0.0, 5e14, 1e15, 1.5e15, 2e15]),
    (3.5e15, [0.0, 1e15, 2e15, 3e15, 4e15, 5e15]),
]


@pytest.mark.parametrize("vmax, ticks", VALUE_AXIS_PINS)
def test_value_axis_at_each_nice_number_boundary(vmax, ticks):
    data = make_data([[vmax, vmax / 2]], indicator=make_indicator(lo=0.0, hi=3.5e15))
    assert value_axis(data) == (ticks[-1], ticks[1], ticks)


def test_validate_annotation_clean_render(corpus):
    for seed in range(30):
        data = sample_plot_data(corpus, seed)
        spec = make_plot_spec(data, seed)
        _, ann = render(spec)
        assert validate_annotation(ann) == []


def test_validate_annotation_flags_out_of_canvas():
    data = make_data([[1, 2, 3]])
    _, _, ann = rendered(data)
    bad = of_class(ann, "bar")[0]
    object.__setattr__(bad, "bbox", (-50.0, -50.0, 10.0, 10.0))
    violations = validate_annotation(ann)
    assert any("outside canvas" in v for v in violations)


def test_validate_annotation_flags_missing_title():
    data = make_data([[1, 2, 3]])
    _, _, ann = rendered(data)
    ann.elements = [e for e in ann.elements if e.cls != "title"]
    violations = validate_annotation(ann)
    assert any("title" in v for v in violations)


def test_render_deterministic_bytes(corpus):
    data = sample_plot_data(corpus, 11)
    spec = make_plot_spec(data, 12)
    svg1, ann1 = render(spec)
    svg2, ann2 = render(spec)
    assert svg1 == svg2
    assert ann1.to_json() == ann2.to_json()


def test_annotated_text_appears_in_svg(corpus):
    for seed in (0, 3, 9):
        data = sample_plot_data(corpus, seed)
        spec = make_plot_spec(data, seed)
        svg, ann = render(spec)
        doc = svg.decode("utf-8")
        for e in ann.elements:
            if e.text is not None:
                esc = e.text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                assert f">{esc}</text>" in doc


def test_roundtrip_value_fidelity_all_types(corpus):
    # reading every mark's pixel extent back through the axis map recovers
    # the value to well within 0.5%
    for seed in range(40):
        data = sample_plot_data(corpus, seed)
        for ptype in PLOT_TYPES:
            spec = make_spec(data, ptype)
            _, ann = render(spec)
            axis_max, _, _ = value_axis(data)
            V = data.values_matrix()
            if ptype in ("vbar", "hbar"):
                marks = of_class(ann, "bar")
            else:
                marks = of_class(ann, "line") + of_class(ann, "dotline")
            ticks = {
                float(e.text): e.center[0] if ptype == "hbar" else e.center[1]
                for e in of_class(ann, "xtick_label" if ptype == "hbar" else "ytick_label")
            }
            p0, p1 = ticks[0.0], ticks[axis_max]
            for m in marks:
                gold = V[m.series_index][m.x_index]
                if ptype == "vbar":
                    pixel = m.bbox[1]
                elif ptype == "hbar":
                    pixel = m.bbox[0] + m.bbox[2]
                else:
                    pixel = m.center[1] if ptype in ("line", "dotline") else None
                got = axis_max * (pixel - p0) / (p1 - p0)
                assert abs(got - gold) <= 0.005 * abs(gold)


def test_element_count_formulas(corpus):
    for seed in range(25):
        data = sample_plot_data(corpus, seed)
        for ptype in PLOT_TYPES:
            _, ann = render(make_spec(data, ptype))
            n, m = data.n_series, data.n_categories
            assert len(of_class(ann, "title")) == 1
            assert len(of_class(ann, "xaxis_label")) == 1
            assert len(of_class(ann, "yaxis_label")) == 1
            assert len(of_class(ann, "legend_label")) == n
            assert len(of_class(ann, "legend_preview")) == n
            if ptype in ("vbar", "hbar"):
                assert len(of_class(ann, "bar")) == n * m
            else:
                cls = "line" if ptype == "line" else "dotline"
                assert len(of_class(ann, cls)) == n * m


def test_layout_error_on_tiny_canvas():
    data = make_data([[1, 2, 3]])
    with pytest.raises(LayoutError):
        rendered(data, "vbar", canvas=(120.0, 90.0))


@pytest.mark.parametrize("ptype", ["vbar", "hbar"])
def test_zero_valued_bar_renders_and_validates(ptype):
    data = make_data([[0.0, 2.0, 3.0]])
    _, _, ann = rendered(data, ptype)
    bar = next(e for e in of_class(ann, "bar") if e.x_index == 0)
    assert bar.bbox[2 if ptype == "hbar" else 3] == 0.0
    assert validate_annotation(ann) == []


def test_layout_error_on_overlapping_tick_labels():
    # twelve year labels 31.2 px wide each in category slots under 30 px
    data = make_data([list(range(1, 13))])
    with pytest.raises(LayoutError, match="overlaps"):
        rendered(data, "vbar", font_size=13.0, canvas=(400.0, 300.0))


def test_gold_table_matches_data(corpus):
    data = sample_plot_data(corpus, 17)
    _, _, ann = rendered(data)
    t = ann.gold_table
    assert t.row_headers == list(data.x_categories)
    assert t.col_headers == list(data.legend_labels)
    V = data.values_matrix()
    for i in range(data.n_categories):
        for s in range(data.n_series):
            assert t.cells[i][s] == V[s][i]


# each record's JSON with its key order: the bytes of every annotation,
# detection set and questions.jsonl line follow from these
_RECORD_JSON = [
    (VisualElement("bar", (1.0, 2.5, 3.0, 4.0), "a", 3, 1, 2),
     '{"class": "bar", "bbox": [1.0, 2.5, 3.0, 4.0], "text": "a", "color": 3, "series_index": 1, "x_index": 2}'),
    (VisualElement("title", (0.5, 0.0, 10.0, 2.0)), '{"class": "title", "bbox": [0.5, 0.0, 10.0, 2.0]}'),
    (Detection("legend_label", (1.0, 2.0, 3.0, 4.0), 0.5, "Brazil", 2),
     '{"class": "legend_label", "bbox": [1.0, 2.0, 3.0, 4.0], "score": 0.5, "text": "Brazil", "color": 2}'),
    (Detection("bar", (1.0, 2.0, 3.0, 4.0), 1.0), '{"class": "bar", "bbox": [1.0, 2.0, 3.0, 4.0], "score": 1.0}'),
    (make_style(2), '{"grid": true, "font_size": 12.0, "tick_notation": "standard", "line_style": "solid", '
                    '"marker": "circle", "legend_position": "top-right", "series_colors": [0, 1], '
                    '"canvas": [800.0, 600.0]}'),
    (QuestionInstance(templates_by_id()[33], {"y_label": "price of diesel", "x_tick": "2001"}, number(1.5)),
     '{"template_id": 33, "category": "data_retrieval", "answer_type": "open_vocab", '
     '"text": "What is the price of diesel in 2001?", "bindings": {"y_label": "price of diesel", "x_tick": "2001"}, '
     '"gold_answer": {"kind": "number", "value": 1.5, "rendered": "1.5"}}'),
]


def test_annotation_json_roundtrip(corpus):
    data = sample_plot_data(corpus, 21)
    _, ann = render(make_plot_spec(data, 4))
    again = PlotAnnotation.loads(ann.dumps())
    assert again.to_json() == ann.to_json()

    # every annotation, detection set and question of a small dataset
    # re-encodes to the same bytes after decoding; an annotation or a
    # detection set is one line of compact JSON
    for i in range(12):
        spec = make_plot_spec(sample_plot_data(corpus, 100 + i), 200 + i)
        ann = render(spec)[1]
        text = ann.dumps()
        assert text == json.dumps(ann.to_json()) and "\n" not in text
        assert PlotAnnotation.loads(text).dumps() == text
        dets = perturb(ann, PAPER_LIKE.with_seed(i))
        dets_text = dets.dumps()
        assert dets_text == json.dumps(dets.to_json()) and "\n" not in dets_text
        assert DetectionSet.from_json(json.loads(dets_text)).dumps() == dets_text
        for q in instantiate(spec, 300 + i):
            line = json.dumps(q.to_json())
            assert json.dumps(QuestionInstance.from_json(json.loads(line)).to_json()) == line
            # a questions.jsonl or predictions.jsonl line carries more keys
            extra = {"plot_id": i, "prediction": {"kind": "text", "value": "x"}, "correct": False}
            assert QuestionInstance.from_json({**q.to_json(), **extra}) == q

    for record, expected in _RECORD_JSON:
        assert json.dumps(record.to_json()) == expected
        assert json.dumps(type(record).from_json(json.loads(expected)).to_json()) == expected
