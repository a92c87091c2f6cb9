"""Executor checks, including the independent brute-force oracle for every
logical-form primitive on randomized tables."""

import math
import statistics

import numpy as np
import pytest

from plotquest.answers import Answer, AnswerUnavailable, UnparseableQuestion
from plotquest.table import SemiStructuredTable
from plotquest.tableqa import build_logical_form, execute, parse, to_sexpr


# -- table addressing --------------------------------------------------------

def test_duplicate_row_headers_unavailable():
    t = SemiStructuredTable(["a", "a"], ["x"], [[1.0], [2.0]])
    for lf in (("max", ("col", "x")), ("cell", "a", "x"), ("has_col", "x"), ("visual", 4)):
        with pytest.raises(AnswerUnavailable, match="duplicate row headers"):
            execute(lf, t)


def test_row_label_colliding_with_column_answers():
    # the executor addresses rows by header and never reads the row label,
    # so a row label that is also a column header takes nothing away
    t = SemiStructuredTable(["a", "b"], ["Year", "x"], [[1.0, 2.0], [3.0, 4.0]], row_label="Year")
    assert execute(("max", ("col", "x")), t).value == 4.0


def test_unknown_op_is_a_programming_error():
    # the branch gate keeps visual forms away from the executor
    t = SemiStructuredTable(["a"], ["x"], [[1.0]])
    with pytest.raises(ValueError, match="not a scalar expression: visual"):
        execute(("visual", 4), t)
    with pytest.raises(ValueError, match="not a list expression: visual"):
        execute(("max", ("visual", 4)), t)


# -- parsing -------------------------------------------------------------------

def test_parse_count_where():
    parsed = parse("In how many years, is the price of diesel greater than 0.6 units?")
    assert parsed.template_id == 56
    assert parsed.logical_form == ("count_where", ("col", "price of diesel"), ">", ("num", 0.6))
    assert "count_where" in to_sexpr(parsed.logical_form)


def test_parse_median():
    parsed = parse("What is the median banana production?")
    assert parsed.template_id == 49
    assert parsed.logical_form == ("median", ("col", "banana production"))


def test_parse_out_of_grammar():
    with pytest.raises(UnparseableQuestion):
        parse("hello world")


def test_parse_structural_is_visual():
    parsed = parse("How many legend labels are there?")
    assert parsed.template_id == 4
    assert parsed.logical_form[0] == "visual"


def _lookups(lf):
    """The column argument of every col and cell node in ``lf``."""
    if lf[0] == "col":
        yield lf[1]
    elif lf[0] == "cell":
        yield lf[2]
    for item in lf[1:]:
        if isinstance(item, tuple):
            yield from _lookups(item)


def test_every_table_template_reads_the_column_it_names(templates):
    # each column a table form reads is one of its legend-label bindings, or,
    # with none bound, its value phrase or title; with one column the lookup
    # falls back to it whatever its name, so answer-level tests cannot see this
    read_any = 0
    for t in templates:
        bindings = {s: {"n": "2.5", "incl": "inclusive", "i": "1st", "j": "1st"}.get(s, f"<{s}>")
                    for s in t.slots}
        lf = build_logical_form(t, bindings)
        if lf[0] == "visual":
            continue
        named = ({bindings[s] for s in t.legend_slots}
                 or {bindings[s] for s in ("y_label", "title") if s in bindings})
        for name in _lookups(lf):
            assert name in named, (t.id, to_sexpr(lf))
            read_any += 1
    assert read_any == 75


# -- execution -----------------------------------------------------------------

def test_mean_renders_and_scores():
    values = [45.0, 52.0, 58.01]
    oracle = sum(values) / len(values)
    t = SemiStructuredTable(["a", "b", "c"], ["students"], [[v] for v in values])
    got = execute(("mean", ("col", "students")), t)
    assert got.value == pytest.approx(oracle)
    assert got.rendered() == "51.67"


def test_ratio_identity():
    t = SemiStructuredTable(["a"], ["x"], [[7.5]])
    got = execute(("ratio", ("cell", "a", "x"), ("cell", "a", "x")), t)
    assert got.value == 1.0


def test_monotonic_non_strict_default():
    vals = [1.0, 2.0, 2.0, 3.0]
    oracle = all(b >= a for a, b in zip(vals, vals[1:]))  # brute force, non-strict
    t = SemiStructuredTable(["a", "b", "c", "d"], ["x"], [[v] for v in vals])
    got = execute(("monotonic_increasing", ("col", "x")), t)
    assert got.value is oracle is True


def test_missing_cell_is_unavailable():
    t = SemiStructuredTable(["a", "b"], ["x"], [[1.0], [None]])
    with pytest.raises(AnswerUnavailable):
        execute(("cell", "b", "x"), t)
    with pytest.raises(AnswerUnavailable):
        execute(("cell", "zzz", "x"), t)
    with pytest.raises(AnswerUnavailable):
        execute(("ratio", ("cell", "a", "x"), ("num", 0.0)), t)


def test_overflowing_scalars_are_unavailable():
    # finite cells whose sum, mean, median, difference or ratio overflows
    # answer nothing, so no NaN from inf - inf reaches a comparison
    same = SemiStructuredTable(["a", "b"], ["x"], [[1e308], [1e308]])
    apart = SemiStructuredTable(["a", "b"], ["x"], [[1e308], [-1e308]])
    tiny = SemiStructuredTable(["a", "b"], ["x"], [[1e308], [1e-300]])
    a, b, col = ("cell", "a", "x"), ("cell", "b", "x"), ("col", "x")
    cases = [
        (("sum", col), same), (("mean", col), same), (("median", col), same), (("add", a, b), same),
        (("cmp", ">", ("diff", ("add", a, b), ("add", a, b)), ("num", 0.0)), same),
        (("diff", a, b), apart), (("diff", ("max", col), ("min", col)), apart),
        (("ratio", a, b), tiny),
    ]
    for lf, t in cases:
        with pytest.raises(AnswerUnavailable, match="not finite"):
            execute(lf, t)


# rows a, b, c: x is missing at b and y at c, so the two do not line up;
# e and f have no values at all
GAPS = SemiStructuredTable(["a", "b", "c"], ["x", "y", "e", "f"],
                           [[1.0, 2.0, None, None], [None, 3.0, None, None], [4.0, None, None, None]])
HUGE = SemiStructuredTable(["a", "b"], ["x"], [[1e308], [1e308]])
X, Y, E, F = (("col", c) for c in "xyef")

# each way the executor gives up, a table and the forms that give up that way
GIVE_UPS = {
    "duplicate row headers make rows ambiguous": (
        SemiStructuredTable(["a", "a"], ["x"], [[1.0], [2.0]]),
        [("max", X), ("cell", "a", "x"), ("has_col", "x"), ("argmax", X),
         ("cmp", ">", ("num", 1.0), ("num", 0.0))]),
    "no column named 'zz'": (
        GAPS, [("max", ("col", "zz")), ("cell", "a", "zz"), ("argmin", ("col", "zz")),
               ("strictly_dominates", X, ("col", "zz")), ("count_where", ("col", "zz"), ">", ("num", 0.0))]),
    "no cell ('b', 'x')": (
        GAPS, [("cell", "b", "x"), ("diff", ("cell", "a", "y"), ("cell", "b", "x")),
               ("ratio", ("cell", "a", "x"), ("cell", "b", "x"))]),
    "span endpoint missing: 'a'..'b'": (
        GAPS, [("sum", ("span", X, "a", "b", "inclusive")),
               ("majority_gt", ("span", X, "a", "b", "exclusive"), ("num", 0.0))]),
    "no values": (
        GAPS, [*((op, E) for op in ("max", "min", "sum", "mean", "median", "argmax", "argmin",
                                     "monotonic_increasing")),
               ("majority_gt", E, ("num", 0.0)),
               # an exclusive span between adjacent rows holds none
               ("majority_gt", ("span", Y, "a", "b", "exclusive"), ("num", 0.0)),
               # two empty columns line up, yet dominance over nothing has no answer
               ("strictly_dominates", E, F),
               ("max", ("pointwise_sum", E, F))]),
    "columns do not line up": (
        GAPS, [("strictly_dominates", X, Y), ("strictly_dominates", Y, X), ("strictly_dominates", X, E),
               ("max", ("pointwise_sum", X, Y)), ("strictly_dominates", ("pointwise_sum", X, X), Y)]),
    "rank 3 outside column of size 2": (
        GAPS, [("nth_from", X, 3, "largest"), ("nth_from", X, 3, "smallest"),
               ("diff", ("nth_from", Y, 1, "largest"), ("nth_from", Y, 3, "largest"))]),
    "ratio with zero denominator": (
        GAPS, [("ratio", ("cell", "a", "x"), ("num", 0.0)),
               ("ratio", ("cell", "a", "x"), ("diff", ("cell", "a", "x"), ("cell", "a", "x")))]),
    "value is not finite": (
        HUGE, [("sum", X), ("mean", X), ("median", X), ("add", ("cell", "a", "x"), ("cell", "b", "x")),
               ("diff", ("num", -1e308), ("max", X)), ("ratio", ("cell", "a", "x"), ("num", 1e-300)),
               ("cmp", ">", ("sum", X), ("num", 0.0))]),
}


@pytest.mark.parametrize("reason", list(GIVE_UPS))
def test_each_way_to_give_up_has_one_message(reason):
    table, forms = GIVE_UPS[reason]
    for lf in forms:
        with pytest.raises(AnswerUnavailable) as err:
            execute(lf, table)
        assert str(err.value) == reason, to_sexpr(lf)


def test_answer_composition():
    t = SemiStructuredTable(["2008", "2009"], ["price of diesel"], [[0.5], [0.9]])
    got = execute(parse("What is the price of diesel in 2008?").logical_form, t)
    assert got.value == 0.5


def test_answer_on_corrupted_header_never_crashes():
    t = SemiStructuredTable(["200B", "2009"], ["price of diesel"], [[0.5], [0.9]])
    try:
        got = execute(parse("What is the price of diesel in 2008?").logical_form, t)
        assert got.value != 0.5  # wrong is allowed, crash is not
    except AnswerUnavailable:
        pass


def test_diff_of_max_min_constant_column():
    t = SemiStructuredTable(["a", "b", "c"], ["x"], [[4.0], [4.0], [4.0]])
    got = execute(("diff", ("max", ("col", "x")), ("min", ("col", "x"))), t)
    assert got.value == 0.0


def test_single_column_fallback_resolution():
    t = SemiStructuredTable(["a", "b"], ["Brazil"], [[1.0], [2.0]])
    got = execute(("max", ("col", "price of diesel")), t)
    assert got.value == 2.0
    multi = SemiStructuredTable(["a"], ["x", "y"], [[1.0, 2.0]])
    with pytest.raises(AnswerUnavailable):
        execute(("max", ("col", "nonexistent")), multi)


# -- executor vs brute-force oracle ---------------------------------------------

def random_table(rng):
    n_rows = int(rng.integers(1, 6))
    n_cols = int(rng.integers(1, 6))
    rows = [f"r{k}" for k in range(n_rows)]
    cols = [f"c{k}" for k in range(n_cols)]
    cells = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            row.append(None if rng.random() < 0.15 else float(rng.integers(-50, 51)))
        cells.append(row)
    return SemiStructuredTable(rows, cols, cells)


def oracle_column(t, col):
    j = t.col_headers.index(col)
    return [(t.row_headers[i], t.cells[i][j]) for i in range(len(t.row_headers)) if t.cells[i][j] is not None]


def check_scalar(lf, t, expected):
    if expected is None:
        with pytest.raises(AnswerUnavailable):
            execute(lf, t)
    else:
        got = execute(lf, t)
        assert got.kind == "number"
        assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def check_answer(lf, t, expected):
    if expected is None:
        with pytest.raises(AnswerUnavailable):
            execute(lf, t)
    else:
        got = execute(lf, t)
        assert got.value == expected


def with_repeated_row_header(t):
    rows = list(t.row_headers)
    rows[-1] = rows[0]
    return SemiStructuredTable(rows, t.col_headers, t.cells, t.row_label)


def exercise_primitives(t, rng):
    """Compare every primitive with the oracle on ``t``, then check that
    the same logical forms are all unavailable once a row header repeats."""
    forms = []

    def scalar(lf, expected):
        forms.append(lf)
        check_scalar(lf, t, expected)

    def expect(lf, expected):
        forms.append(lf)
        check_answer(lf, t, expected)

    def run(lf):
        forms.append(lf)
        return execute(lf, t)

    col = t.col_headers[int(rng.integers(len(t.col_headers)))]
    items = oracle_column(t, col)
    values = [v for _, v in items]
    c = ("col", col)

    scalar(("max", c), max(values) if values else None)
    scalar(("min", c), min(values) if values else None)
    scalar(("sum", c), sum(values) if values else None)
    scalar(("mean", c), sum(values) / len(values) if values else None)
    scalar(("median", c), statistics.median(values) if values else None)

    if values:
        best = max(values)
        expected = next(lab for lab, v in items if v == best)
        expect(("argmax", c), expected)
        worst = min(values)
        expect(("argmin", c), next(lab for lab, v in items if v == worst))
        k = int(rng.integers(1, len(values) + 1))
        scalar(("nth_from", c, k, "largest"), sorted(values, reverse=True)[k - 1])
        scalar(("nth_from", c, k, "smallest"), sorted(values)[k - 1])
        expect(("nth_from", c, len(values) + 1, "largest"), None)

        thr = float(rng.integers(-50, 51))
        scalar(("count_where", c, ">", ("num", thr)), sum(1 for v in values if v > thr))
        scalar(("count_where", c, "<", ("num", thr)), sum(1 for v in values if v < thr))
        expect(("monotonic_increasing", c), all(b >= a for a, b in zip(values, values[1:])))
        expect(("majority_gt", c, ("num", thr)), sum(1 for v in values if v > thr) > len(values) / 2)

    # diff / ratio / add / cmp over two random cells
    i1, j1 = int(rng.integers(len(t.row_headers))), int(rng.integers(len(t.col_headers)))
    i2, j2 = int(rng.integers(len(t.row_headers))), int(rng.integers(len(t.col_headers)))
    v1, v2 = t.cells[i1][j1], t.cells[i2][j2]
    cell1 = ("cell", t.row_headers[i1], t.col_headers[j1])
    cell2 = ("cell", t.row_headers[i2], t.col_headers[j2])
    both = v1 is not None and v2 is not None
    scalar(("diff", cell1, cell2), v1 - v2 if both else None)
    scalar(("add", cell1, cell2), v1 + v2 if both else None)
    if both and v2 != 0:
        scalar(("ratio", cell1, cell2), v1 / v2)
    if both:
        expect(("cmp", "<", cell1, cell2), v1 < v2)
        expect(("cmp", ">", cell1, cell2), v1 > v2)

    # dominance and pointwise sum over two columns
    if len(t.col_headers) >= 2:
        cols = list(rng.choice(len(t.col_headers), size=2, replace=False))
        ca, cb = t.col_headers[cols[0]], t.col_headers[cols[1]]
        a_items, b_items = oracle_column(t, ca), oracle_column(t, cb)
        aligned = [lab for lab, _ in a_items] == [lab for lab, _ in b_items] and a_items
        if aligned:
            expected_dom = all(x > y for (_, x), (_, y) in zip(a_items, b_items))
            expect(("strictly_dominates", ("col", ca), ("col", cb)), expected_dom)
            expected_sum = [x + y for (_, x), (_, y) in zip(a_items, b_items)]
            got = run(("max", ("pointwise_sum", ("col", ca), ("col", cb))))
            assert got.value == pytest.approx(max(expected_sum))
        else:
            expect(("strictly_dominates", ("col", ca), ("col", cb)), None)

    # span over the full column bounds
    if len(items) >= 2:
        lab_a, lab_b = items[0][0], items[-1][0]
        got = run(("sum", ("span", c, lab_a, lab_b, "inclusive")))
        assert got.value == pytest.approx(sum(values))

    # the template-32 form, and column membership
    scalar(("count_where", ("row_sizes",), "!=", ("ncols",)),
           sum(1 for row in t.cells if any(v is None for v in row)))
    expect(("has_col", col), True)
    expect(("has_col", "no such column"), False)

    if len(t.row_headers) >= 2:
        dup = with_repeated_row_header(t)
        for lf in forms:
            with pytest.raises(AnswerUnavailable):
                execute(lf, dup)


def test_executor_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        exercise_primitives(random_table(rng), rng)


def test_scaling_invariance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = random_table(rng)
        if not any(v is not None for row in t.cells for v in row):
            continue
        c = 3.5
        scaled = SemiStructuredTable(
            t.row_headers, t.col_headers,
            [[None if v is None else v * c for v in row] for row in t.cells])
        col = ("col", t.col_headers[0])
        vals = [v for _, v in oracle_column(t, t.col_headers[0])]
        if not vals:
            continue
        assert execute(("argmax", col), t).value == execute(("argmax", col), scaled).value
        assert execute(("argmin", col), t).value == execute(("argmin", col), scaled).value
        thr = 10.0
        assert (execute(("count_where", col, ">", ("num", thr)), t).value
                == execute(("count_where", col, ">", ("num", thr * c)), scaled).value)
        for op in ("sum", "mean", "median"):
            assert execute((op, col), scaled).value == pytest.approx(execute((op, col), t).value * c)
        d = ("diff", ("max", col), ("min", col))
        assert execute(d, scaled).value == pytest.approx(execute(d, t).value * c)
        if len(vals) >= 2 and vals[1] != 0:
            r = ("ratio", ("cell", t.row_headers[0], t.col_headers[0]),
                 ("cell", t.row_headers[1], t.col_headers[0]))
            try:
                assert execute(r, scaled).value == pytest.approx(execute(r, t).value)
            except AnswerUnavailable:
                pass


def test_sexpr_rendering():
    lf = ("count_where", ("col", "price of diesel"), ">", ("num", 0.6))
    s = to_sexpr(lf)
    assert s == '(count_where (col "price of diesel") > (num 0.6))'
    # every string argument of a lookup is quoted, also one spelled like its operator
    assert to_sexpr(("col", "col")) == '(col "col")'
    assert to_sexpr(("cell", "cell", "x")) == '(cell "cell" "x")'
    assert to_sexpr(parse("What is the median cell?").logical_form) == '(median (col "cell"))'
