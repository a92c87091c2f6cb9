import random

import numpy as np
import pytest

from plotquest.answers import parse_number
from plotquest.corpus import sample_plot_data
from plotquest.detsim import ZERO_NOISE, Detection, DetectionSet, perturb
from plotquest.palette import PALETTE
from plotquest.plotgen import make_plot_spec, render
from plotquest.sie import (
    TOO_FEW_VALUE_TICKS, UNASSIGNED_COLOR, _canonical_key, extract_table, read,
    table_f1,
)
from plotquest.table import SemiStructuredTable

from conftest import clean_detections, make_data, make_spec, rendered


def color_id(name):
    return next(k for k, (n, _) in enumerate(PALETTE) if n == name)


# -- legend association -------------------------------------------------------

def test_legend_label_maps_to_adjacent_preview_color():
    dark_cyan = color_id("Dark Cyan")
    crimson = color_id("Crimson")
    d = DetectionSet([
        Detection("legend_preview", (100, 10, 18, 10), 1.0, color=dark_cyan),
        Detection("legend_label", (123, 10, 40, 12), 1.0, text="Brazil"),
        Detection("legend_preview", (100, 40, 18, 10), 1.0, color=crimson),
        Detection("legend_label", (123, 40, 50, 12), 1.0, text="Iceland"),
    ])
    m = read(d).legend_map
    assert m == {"Brazil": dark_cyan, "Iceland": crimson}


def test_legend_single_pairing():
    d = DetectionSet([
        Detection("legend_preview", (10, 10, 18, 10), 1.0, color=5),
        Detection("legend_label", (200, 300, 30, 12), 1.0, text="Only"),
    ])
    assert read(d).legend_map == {"Only": 5}


def test_legend_tie_broken_by_reading_order():
    # one label exactly between two previews: the leftmost preview wins
    d = DetectionSet([
        Detection("legend_preview", (100, 50, 10, 10), 1.0, color=1),
        Detection("legend_preview", (140, 50, 10, 10), 1.0, color=2),
        Detection("legend_label", (120, 50, 10, 10), 1.0, text="A"),
    ])
    assert read(d).legend_map["A"] == 1


def test_legend_keys_follow_reading_order():
    # the lower label sits nearer its swatch, so its pair is accepted first;
    # the map still lists the labels top to bottom
    d = DetectionSet([
        Detection("legend_preview", (100, 10, 18, 10), 1.0, color=1),
        Detection("legend_label", (140, 10, 40, 12), 1.0, text="Top"),
        Detection("legend_preview", (100, 40, 18, 10), 1.0, color=2),
        Detection("legend_label", (120, 40, 40, 12), 1.0, text="Bottom"),
    ])
    assert list(read(d).legend_map.items()) == [("Top", 1), ("Bottom", 2)]


def test_legend_repeated_text_keeps_first_accepted_colour():
    # "A" heads the reading order but its nearer pair is the lower one
    d = DetectionSet([
        Detection("legend_preview", (100, 10, 18, 10), 1.0, color=1),
        Detection("legend_label", (150, 10, 40, 12), 1.0, text="A"),
        Detection("legend_preview", (100, 40, 18, 10), 1.0, color=2),
        Detection("legend_label", (120, 40, 40, 12), 1.0, text="A"),
        Detection("legend_preview", (100, 70, 18, 10), 1.0, color=3),
        Detection("legend_label", (130, 70, 40, 12), 1.0, text="B"),
    ])
    assert list(read(d).legend_map.items()) == [("A", 2), ("B", 3)]


def test_legend_empty_when_no_labels():
    assert read(DetectionSet([])).legend_map == {}


# -- tick association ---------------------------------------------------------

def ytick(text, y):
    """A y-axis tick label centred on pixel row y."""
    return Detection("ytick_label", (10, y - 6, 20, 12), 1.0, text=text)


def xtick(text, x):
    """An x-axis tick label centred on pixel column x."""
    return Detection("xtick_label", (x - 15, 430, 30, 12), 1.0, text=text)


def vbar(x, top, bottom=400):
    """A vertical bar of palette colour 0 centred on column x."""
    return Detection("bar", (x - 15, top, 30, bottom - top), 1.0, color=0)


def test_category_ticks_ordered_by_position():
    d = DetectionSet([
        Detection("xtick_label", (300, 500, 30, 12), 1.0, text="1997"),
        Detection("xtick_label", (100, 500, 30, 12), 1.0, text="1996"),
        Detection("xtick_label", (700, 500, 30, 12), 1.0, text="1999"),
        Detection("xtick_label", (500, 500, 30, 12), 1.0, text="1998"),
    ])
    reading = read(d)
    assert [(r.text, r.pos) for r in reading.cat_refs] == [
        ("1996", 115.0), ("1997", 315.0), ("1998", 515.0), ("1999", 715.0)]


def test_value_ticks_pair_values_with_positions():
    d = DetectionSet([
        Detection("ytick_label", (10, 100, 30, 12), 1.0, text="100"),
        Detection("ytick_label", (10, 300, 30, 12), 1.0, text="0"),
    ])
    reading = read(d)
    assert reading.val_tick_texts == ["100", "0"]
    assert reading.val_ticks == [(100.0, 106.0), (0.0, 306.0)]


def test_associate_ticks_needs_two():
    # one value tick anchors no scale: the bar is read but left unvalued
    d = DetectionSet([Detection("ytick_label", (10, 100, 30, 12), 1.0, text="0"),
                      xtick("2008", 115), vbar(115, 200, 300)])
    reading = read(d)
    assert reading.val_ticks == [(0.0, 106.0)]
    assert [a.reason for a in reading.assignments] == [TOO_FEW_VALUE_TICKS]
    assert reading.table.cells == [[None]]


def test_scientific_tick_text_parses():
    assert parse_number("2.000e+5") == 200000.0
    assert parse_number("200B") is None
    assert parse_number("-2009") == -2009.0


# -- bar association ----------------------------------------------------------

def test_sixteen_bars_get_distinct_cells():
    data = make_data(np.arange(1, 17).reshape(4, 4),
                     legends=["Brazil", "Iceland", "Thailand", "Lebanon"],
                     cats=["1996", "1997", "1998", "1999"])
    _, _, ann = rendered(data, "vbar")
    det = clean_detections(ann)
    reading = read(det)
    pairs = [(a.row, a.col) for a in reading.assignments]
    assert len(pairs) == 16
    assert len(set(pairs)) == 16  # every (row, col) distinct
    assert all(a.reason is None for a in reading.assignments)
    # cell (row, col) holds that mark's value, and it matches gold
    table = reading.table
    for a in reading.assignments:
        assert table.cells[a.row][a.col] == a.value
        g = ann.gold_table
        gold = g.cells[g.row_headers.index(table.row_headers[a.row])][g.col_headers.index(table.col_headers[a.col])]
        assert a.value == pytest.approx(gold, rel=1e-6)


def test_single_series_bars_fall_back_to_unlabeled_column():
    data = make_data([[3.0, 5.0, 4.0]])
    _, _, ann = rendered(data, "vbar")
    det = clean_detections(ann)
    table = extract_table(read(det))
    assert table.col_headers == list(data.legend_labels)  # 1-entry legend
    # with the legend stripped, the value-axis label names the lone column
    stripped = DetectionSet(
        [d for d in det.detections if d.cls not in ("legend_label", "legend_preview")],
        style=det.style)
    table2 = extract_table(read(stripped))
    assert table2.col_headers == ["Price of diesel"]
    assert all(v is not None for row in table2.cells for v in row)


def test_corrupted_bar_color_leaves_cell_empty():
    data = make_data([[3.0, 5.0], [2.0, 4.0]])
    _, _, ann = rendered(data, "vbar")
    det = clean_detections(ann)
    bad = []
    flipped = 0
    for d in det.detections:
        if d.cls == "bar" and flipped == 0:
            bad.append(Detection("bar", d.bbox, d.score, d.text, color=72))
            flipped = 1
        else:
            bad.append(d)
    reading = read(DetectionSet(bad, style=det.style))
    empty = sum(1 for row in extract_table(reading).cells for v in row if v is None)
    assert empty == 1
    # the off-legend bar's assignment says why it was left out
    assert [a.reason for a in reading.assignments].count(UNASSIGNED_COLOR) == 1
    assert [a.reason for a in reading.assignments].count(None) == 3


# -- interpolation ------------------------------------------------------------
# each value is read through PlotReading from a bar's value edge: the top of
# a vertical bar, the right end of a horizontal one

def test_interpolate_midpoint():
    reading = read(DetectionSet([ytick("0", 300), ytick("100", 100), xtick("2008", 115),
                                 vbar(115, 200, 300)]))
    assert reading.table.cells == [[pytest.approx(50.0)]]


def test_interpolate_exact_at_tick():
    reading = read(DetectionSet([
        ytick("0", 300), ytick("50", 200), ytick("100", 100),
        xtick("2008", 115), xtick("2009", 315), vbar(115, 200, 300), vbar(315, 100, 300),
    ]))
    assert reading.table.cells == [[50.0], [100.0]]


def test_interpolate_extrapolates_beyond_ticks():
    # unequal spacing (0.5 then 1 unit per pixel): each side extrapolates
    # from its own nearest pair of anchors
    reading = read(DetectionSet([
        ytick("0", 300), ytick("50", 200), ytick("150", 100),
        xtick("2008", 115), xtick("2009", 315), vbar(115, 50), vbar(315, 350),
    ]))
    assert reading.table.cells == [[pytest.approx(200.0)], [pytest.approx(-25.0)]]


def test_interpolate_horizontal_uses_right_edge():
    # bars sharing a left edge read as horizontal; the value axis is x
    reading = read(DetectionSet([
        xtick("0", 100), xtick("10", 300), ytick("A", 60), ytick("B", 160),
        Detection("bar", (100.0, 50, 100.0, 20), 1.0, color=0),
        Detection("bar", (100.0, 150, 150.0, 20), 1.0, color=0),
    ]))
    assert reading.horizontal
    assert reading.table.cells == [[pytest.approx(5.0)], [pytest.approx(7.5)]]


def test_interpolate_requires_two_ticks():
    cases = [
        ([ytick("0", 300)], [(0.0, 300.0)]),
        # two values at one pixel anchor nothing
        ([ytick("0", 300), ytick("100", 300)], []),
        # an identical repeat is one anchor
        ([ytick("0", 300), ytick("0", 300)], [(0.0, 300.0)]),
    ]
    for ticks, anchors in cases:
        reading = read(DetectionSet(ticks + [xtick("2008", 115), vbar(115, 100, 300)]))
        assert reading.val_ticks == anchors
        assert [a.reason for a in reading.assignments] == [TOO_FEW_VALUE_TICKS]
        assert reading.table.cells == [[None]]


# -- full extraction ----------------------------------------------------------

def test_zero_noise_roundtrip_all_types(corpus):
    for seed in range(40):
        data = sample_plot_data(corpus, seed)
        for ptype in ("vbar", "hbar", "line", "dotline"):
            _, ann = render(make_spec(data, ptype))
            table = extract_table(read(perturb(ann, ZERO_NOISE)))
            p, r, f1 = table_f1(table, ann.gold_table, 0.005)
            assert f1 == 1.0, (seed, ptype)


def test_read_takes_every_input_one_way(corpus):
    # an annotation's elements read as its zero-noise detections do: the same
    # canonical elements and the same table, which extract_table returns
    for seed in range(5):
        _, ann = render(make_spec(sample_plot_data(corpus, seed), "vbar"))
        reading = read(ann)
        clean = read(perturb(ann, ZERO_NOISE))
        keys = lambda rd: {cls: list(map(_canonical_key, dets)) for cls, dets in rd.elements.items()}
        assert keys(reading) == keys(clean)
        assert reading.table == clean.table
        assert reading.style == ann.style
        assert extract_table(reading) is reading.table


def test_dropped_point_leaves_one_empty_cell():
    data = make_data([[3.0, 5.0, 4.0], [2.0, 6.0, 1.0]])
    _, _, ann = rendered(data, "dotline")
    det = clean_detections(ann)
    kept = [d for d in det.detections if d.cls != "dotline"]
    points = [d for d in det.detections if d.cls == "dotline"]
    table = extract_table(read(DetectionSet(kept + points[1:], style=det.style)))
    empty = [v for row in table.cells for v in row if v is None]
    assert len(empty) == 1
    gold = ann.gold_table
    for i, row in enumerate(table.cells):
        for j, v in enumerate(row):
            if v is not None:
                assert v == pytest.approx(gold.cells[i][j], rel=1e-6)


def test_corrupted_tick_text_becomes_row_header():
    data = make_data([[3.0, 5.0], [2.0, 4.0]], cats=["2008", "2009"])
    _, _, ann = rendered(data, "vbar")
    det = clean_detections(ann)
    mangled = [
        Detection(d.cls, d.bbox, d.score, "200B", d.color)
        if d.cls == "xtick_label" and d.text == "2008" else d
        for d in det.detections
    ]
    table = extract_table(read(DetectionSet(mangled, style=det.style)))
    assert "200B" in table.row_headers


def test_coincident_value_ticks():
    base = [
        Detection("xtick_label", (100, 430, 30, 12), 1.0, text="2008"),
        Detection("bar", (100, 200, 30, 200), 1.0, color=0),  # top edge at pixel 200
        Detection("ytick_label", (10, 394, 20, 12), 1.0, text="0"),  # centre 400
    ]
    # a repeated identical tick is one anchor
    same = read(DetectionSet(base + [Detection("ytick_label", (10, 94, 20, 12), 1.0, text="100")] * 2))
    assert same.val_ticks == [(100.0, 100.0), (0.0, 400.0)]
    assert extract_table(same).cells == [[pytest.approx(100.0 * 2 / 3)]]
    # two values at one pixel anchor nothing, leaving one position: no value is read
    clash = read(DetectionSet(base + [
        Detection("ytick_label", (10, 94, 20, 12), 1.0, text="100"),
        Detection("ytick_label", (10, 94, 20, 12), 1.0, text="50"),
    ]))
    assert clash.val_ticks == [(0.0, 400.0)]
    assert [a.reason for a in clash.assignments] == [TOO_FEW_VALUE_TICKS]
    assert extract_table(clash).cells == [[None]]


def test_extraction_permutation_invariant(corpus):
    data = sample_plot_data(corpus, 13)
    _, ann = render(make_plot_spec(data, 13))
    det = clean_detections(ann)
    base = extract_table(read(det)).to_json()
    rng = random.Random(5)
    for _ in range(5):
        shuffled = list(det.detections)
        rng.shuffle(shuffled)
        assert extract_table(read(DetectionSet(shuffled, style=det.style))).to_json() == base


def test_empty_detections_give_empty_table():
    table = extract_table(read(DetectionSet([])))
    assert table.row_headers == []
    assert all(v is None for row in table.cells for v in row)


# -- tuple F1 ------------------------------------------------------------------

def test_f1_equal_tables():
    t = SemiStructuredTable(["a", "b"], ["x"], [[1.0], [2.0]])
    assert table_f1(t, t, 0.0) == (1.0, 1.0, 1.0)


def test_f1_two_of_three_against_four():
    # oracle: P = 2/3, R = 2/4, F1 = 2PR/(P+R) = 4/7
    gold = SemiStructuredTable(["a", "b", "c", "d"], ["x"], [[1.0], [2.0], [3.0], [4.0]])
    pred = SemiStructuredTable(["a", "b", "z"], ["x"], [[1.0], [2.0], [9.0]])
    p, r, f1 = table_f1(pred, gold, 0.0)
    p_oracle, r_oracle = 2 / 3, 2 / 4
    f1_oracle = 2 * p_oracle * r_oracle / (p_oracle + r_oracle)
    assert (p, r) == (pytest.approx(p_oracle), pytest.approx(r_oracle))
    assert f1 == pytest.approx(f1_oracle) == pytest.approx(4 / 7)


def test_f1_symmetry_under_swap():
    gold = SemiStructuredTable(["a", "b", "c"], ["x"], [[1.0], [2.0], [3.0]])
    pred = SemiStructuredTable(["a", "b", "q"], ["x"], [[1.0], [5.0], [3.0]])
    p1, r1, f1 = table_f1(pred, gold, 0.0)
    p2, r2, f2 = table_f1(gold, pred, 0.0)
    assert (p1, r1) == (r2, p2)
    assert f1 == pytest.approx(f2)


def test_f1_relative_tolerance_boundary():
    gold = SemiStructuredTable(["a"], ["x"], [[100.0]])
    ok = SemiStructuredTable(["a"], ["x"], [[102.0]])
    bad = SemiStructuredTable(["a"], ["x"], [[102.1]])
    assert table_f1(ok, gold, 0.02)[2] == 1.0
    assert table_f1(bad, gold, 0.02)[2] == 0.0


def test_f1_gold_zero_requires_exact():
    gold = SemiStructuredTable(["a"], ["x"], [[0.0]])
    assert table_f1(SemiStructuredTable(["a"], ["x"], [[0.0]]), gold, 0.5)[2] == 1.0
    assert table_f1(SemiStructuredTable(["a"], ["x"], [[1e-9]]), gold, 0.5)[2] == 0.0


def test_f1_empty_tables():
    empty = SemiStructuredTable([], [], [])
    assert table_f1(empty, empty, 0.0) == (1.0, 1.0, 1.0)
    gold = SemiStructuredTable(["a"], ["x"], [[1.0]])
    assert table_f1(empty, gold, 0.0)[2] == 0.0


def test_table_csv_roundtrip():
    t = SemiStructuredTable(["2008", "2009"], ["Brazil", "Iceland"],
                            [[1.5, None], [2.25, 3.0]], row_label="Year")
    assert t.to_csv() == "Year,Brazil,Iceland\n2008,1.5,\n2009,2.25,3.0\n"


def test_misclassified_lone_bar_does_not_displace_line_points():
    # one line vertex misread as a bar must not flip extraction to bar mode
    data = make_data([[3.0, 5.0, 4.0], [2.0, 6.0, 1.0]])
    _, _, ann = rendered(data, "line")
    det = clean_detections(ann)
    flipped = False
    mangled = []
    for d in det.detections:
        if d.cls == "line" and not flipped:
            mangled.append(Detection("bar", d.bbox, d.score, d.text, d.color))
            flipped = True
        else:
            mangled.append(d)
    table = extract_table(read(DetectionSet(mangled, style=det.style)))
    filled = sum(1 for row in table.cells for v in row if v is not None)
    assert filled >= 5  # the five real points still extract
