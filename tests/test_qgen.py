import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from plotquest import tableqa
from plotquest.answers import Answer
from plotquest.cli import stable_seed
from plotquest.corpus import sample_plot_data
from plotquest.plotgen import make_plot_spec
from plotquest.qgen import (
    ANSWER_TYPE_WEIGHTS, CATEGORY_WEIGHTS, Degenerate, _cdf, _draw, applicable_templates,
    count_line_crossings, gold_answer, instantiate, instantiate_all,
)
from plotquest.templates import Template, TemplateError, default_templates, ordinal

from conftest import make_data, make_indicator, make_spec


def by_id(templates, tid):
    return next(t for t in templates if t.id == tid)


def test_template_census(templates):
    assert len(templates) == 74
    by_cat = {}
    for t in templates:
        by_cat.setdefault(t.category, []).append(t)
    assert len(by_cat["structural"]) == 18
    assert len(by_cat["data_retrieval"]) == 19
    assert len(by_cat["reasoning"]) == 37
    # no open-vocabulary answers for structural questions, so the harness
    # reports that cell as NA, the rule for a cell no question falls in
    assert all(t.answer_type != "open_vocab" for t in by_cat["structural"])


def test_reference_cell_lookup_question(templates):
    # the canonical data-retrieval surface form over a diesel/countries plot
    ind = make_indicator("price of diesel", 0.1, 3.0)
    data = make_data([[0.5, 0.7, 0.9], [0.4, 0.6, 0.8]],
                     legends=["Lebanon", "Brazil"],
                     cats=["2007", "2008", "2009"], indicator=ind)
    spec = make_spec(data, "line")
    t34 = by_id(templates, 34)
    bindings = {"y_label": "price of diesel", "legend_label": "Lebanon",
                "x_singular": "year", "x_tick": "2008"}
    text = t34.fill(bindings)
    assert text == "What is the price of diesel in Lebanon in the year 2008?"
    gold = gold_answer(t34, bindings, spec)
    assert gold.value == 0.7  # that cell of the gold table


def test_single_series_excludes_multi_legend_templates():
    data = make_data([[1, 2, 3]])
    spec = make_spec(data, "vbar")
    ids = {t.id for t in applicable_templates(spec)}
    for tid in (36, 37, 52, 54, 55, 68, 72, 74):  # need >= 2 distinct legends
        assert tid not in ids
    qs = instantiate(spec, seed=1, n_questions=30)
    assert all(q.template_id not in (36, 37, 52, 54, 55, 68, 72, 74) for q in qs)


def test_series_need_of_every_template():
    # the series counts each template needs, listed by id: the rule derived
    # from the legend slots must give exactly these
    exactly_one = (33, 35, 38, 39, 40, 41, 46, 47, 48, 49, 56, 57, 58, 59, 63, 64, 65, 66, 67)
    at_least = {36: 2, 37: 2, 52: 2, 54: 2, 55: 2, 68: 2, 73: 2, 72: 3, 74: 4}
    for n_series in range(1, 5):
        data = make_data([[1.0 + s + k for k in range(4)] for s in range(n_series)])
        for ptype in ("vbar", "hbar", "line", "dotline"):
            ids = {t.id for t in applicable_templates(make_spec(data, ptype))}
            for tid in set(range(25, 75)) - {26, 27, 32}:  # 26, 27, 32 need a plot type only
                need = n_series == 1 if tid in exactly_one else n_series >= at_least.get(tid, 1)
                assert (tid in ids) == need, (tid, n_series, ptype)


def test_line_crossings_compare_without_arithmetic():
    # a swap counts however far apart or close together the values are: no
    # difference overflows and no product underflows to a missed crossing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert count_line_crossings(np.array([[1e200, -1e200], [-1e200, 1e200]])) == 1
        assert count_line_crossings(np.array([[1e-200, -1e-200], [0.0, 0.0]])) == 1
    # a contact at a shared vertex is no crossing; each swapped pair counts
    assert count_line_crossings(np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 1.0]])) == 0
    assert count_line_crossings(np.array([[0.0, 3.0, 0.0], [1.0, 1.0, 1.0], [2.0, 0.0, 2.0]])) == 6
    assert count_line_crossings(np.zeros((3, 0))) == 0


def test_median_template_odd_length(templates):
    data = make_data([[2.0, 5.0, 9.0]], indicator=make_indicator(lo=1, hi=10))
    spec = make_spec(data, "vbar")
    t49 = by_id(templates, 49)
    gold = gold_answer(t49, {"y_label": data.y_label}, spec)
    assert gold.value == 5.0


def test_tick_step_answer_renders_scientific(templates):
    # axis max 5e5 -> step 1e5; large magnitudes render in E-notation
    data = make_data([[350000.0, 410000.0]], indicator=make_indicator(lo=1000, hi=5e5))
    spec = make_spec(data, "vbar")
    gold = gold_answer(by_id(templates, 26), {}, spec)
    assert gold.value == pytest.approx(1e5)
    assert gold.rendered() == "1.000e+5"
    # data max 9.5e5 -> axis max 1e6 with consecutive ticks 2e5 apart
    data2 = make_data([[880000.0, 950000.0]], indicator=make_indicator(lo=1000, hi=1e6))
    gold2 = gold_answer(by_id(templates, 26), {}, make_spec(data2, "line"))
    assert gold2.value == pytest.approx(2e5)
    assert gold2.rendered() == "2.000e+5"


def test_bars_per_tick_on_two_series_hbar(templates):
    data = make_data([[3, 4], [5, 6]], legends=["Indoor", "Outdoor"])
    spec = make_spec(data, "hbar")
    gold = gold_answer(by_id(templates, 14), {"i": "2nd"}, spec)
    assert gold.value == 2


def test_average_answer_against_brute_force(templates):
    values = [45.0, 52.0, 58.01]
    oracle = sum(values) / len(values)  # brute-force mean
    assert oracle == pytest.approx(51.67)
    ind = make_indicator("number of Hispanic students", 12, 480, "integer", "schools")
    data = make_data([values], legends=["Hispanic"],
                     cats=["Northside", "Westview", "Oakridge"],
                     x_label="School", indicator=ind)
    spec = make_spec(data, "vbar")
    gold = gold_answer(by_id(templates, 53),
                       {"y_label": data.y_label, "legend_label": "Hispanic",
                        "x_singular": "school"}, spec)
    assert gold.value == pytest.approx(oracle)
    assert gold.rendered() == "51.67"


def test_fill_names_an_unbound_slot():
    with pytest.raises(TemplateError, match="y_label"):
        Template(33, "data_retrieval", "open_vocab", "What is the {y_label} in {x_tick}?").fill({"x_tick": "2001"})


def test_instances_parse_back(corpus):
    for seed in range(25):
        data = sample_plot_data(corpus, seed)
        spec = make_spec(data, ("vbar", "hbar", "line", "dotline")[seed % 4])
        for q in instantiate_all(spec, seed):
            parsed = tableqa.parse(q.text)
            assert (parsed.template_id, parsed.bindings) == (q.template_id, q.bindings)


def test_answer_type_consistency(corpus):
    for seed in range(25):
        data = sample_plot_data(corpus, seed)
        spec = make_spec(data, ("vbar", "hbar", "line", "dotline")[seed % 4])
        for q in instantiate_all(spec, seed):
            if q.answer_type == "yes_no":
                assert q.gold_answer.kind == "boolean"
            else:
                assert q.gold_answer.kind != "boolean"
            assert q.category != "structural" or q.answer_type != "open_vocab"
            assert "{" not in q.text and "}" not in q.text


def test_table_templates_agree_with_executor(corpus):
    # gold answers for every template with a table logical form equal
    # executing that form on the gold table: exactly for yes/no and text
    # answers, to the last bits of a float sum for numbers. Every question
    # the generator pin draws is checked, so rare binding modes (57's
    # exclusive window) are too.
    from plotquest.plotgen import render
    checked = 0
    for i in range(40):
        data = sample_plot_data(corpus, stable_seed(3, "data", i))
        spec = make_plot_spec(data, stable_seed(3, "style", i))
        seed = stable_seed(3, "q", i)
        _, ann = render(spec)
        for q in instantiate_all(spec, seed) + instantiate(spec, seed, n_questions=48):
            parsed = tableqa.parse(q.text)
            if parsed.logical_form[0] == "visual":
                continue
            got, gold = tableqa.execute(parsed.logical_form, ann.gold_table), q.gold_answer
            assert got.kind == gold.kind, (q.text, got, gold)
            if gold.kind == "number":
                assert math.isclose(got.value, gold.value, rel_tol=1e-12), (q.text, got, gold)
            else:
                assert got.value == gold.value, (q.text, got, gold)
            checked += 1
    assert checked > 2500


def test_instantiate_deterministic(corpus):
    data = sample_plot_data(corpus, 8)
    spec = make_spec(data, "line")
    a = instantiate(spec, seed=99)
    b = instantiate(spec, seed=99)
    assert [q.to_json() for q in a] == [q.to_json() for q in b]


def test_instantiate_unique_texts(corpus):
    data = sample_plot_data(corpus, 8)
    spec = make_spec(data, "vbar")
    qs = instantiate(spec, seed=5, n_questions=25)
    texts = [q.text for q in qs]
    assert len(set(texts)) == len(texts)


def test_threshold_questions_are_nondegenerate(corpus):
    # no generated threshold may equal a data value (knife-edge answers)
    for seed in range(40):
        data = sample_plot_data(corpus, seed)
        spec = make_spec(data, "vbar")
        for q in instantiate_all(spec, seed):
            if "n" not in q.bindings:
                continue
            n = float(q.bindings["n"])
            legend = q.bindings.get("legend_label")
            V = data.values_matrix()
            row = V[list(data.legend_labels).index(legend)] if legend in data.legend_labels else V[0]
            assert all(v != n for v in row)


KNIFE = 1e-12  # a nonzero margin far inside the guard's 1e-9 relative band

# every guarded family: a plot on which each binding's margin is a nonzero
# knife edge, a plot on which each binding's margin is exactly 0, and the
# answers at that exact tie, or None where the family refuses exact ties
KNIFE_EDGE_CASES = [
    ((25, 35), [[10, 10 + KNIFE, 12]], [[10, 10, 12]], {25: True, 35: True}),
    ((36, 37), [[10, 20], [10 + KNIFE, 5]], [[10, 20], [10, 5]], {36: False, 37: False}),
    ((40, 41, 44, 45), [[5, 12, 12 + KNIFE, 5 + KNIFE]], [[5, 12, 12, 5]],
     {40: "2001", 44: "2001", 41: "2000", 45: "2000"}),  # the first of the tied ticks
    ((59, 62), [[10, 10 + KNIFE]], [[10, 10]], {59: False, 62: False}),
    ((65,), [[KNIFE, 10]], [[0, 10]], None),
    ((73,), [[KNIFE, 10], [KNIFE, 10]], [[0, 10], [0, 10]], None),
    ((67, 71), [[9, 10 + KNIFE, 11]], [[9, 10, 11]], None),
    ((68,), [[10, 20], [10, 20 + KNIFE]], [[10, 20], [10, 20]], None),
    ((72,), [[KNIFE, 10], [10, KNIFE], [10, 10]], [[0, 10], [10, 0], [10, 10]], None),
    ((74,), [[10 + KNIFE, 1], [10, 2], [10, 3], [10, 4]], [[10, 1], [10, 2], [10, 3], [10, 4]], None),
]

# one binding that lands on the knife edge of every plot above
KNIFE_BINDINGS = {"legend_label": "Brazil", "legend_label2": "Iceland", "legend_label3": "Thailand",
                  "legend_label4": "Lebanon", "x_tick": "2000", "x_tick2": "2001"}


def _family_questions(values, tids, seeds=range(5)):
    data = make_data(values)
    spec = make_spec(data, "vbar")
    return data, spec, [q for seed in seeds for q in instantiate_all(spec, seed) if q.template_id in tids]


@pytest.mark.parametrize("tids,knife,tie,tie_answers", KNIFE_EDGE_CASES,
                         ids=["/".join(map(str, c[0])) for c in KNIFE_EDGE_CASES])
def test_knife_edge_comparisons_are_never_generated(templates, tids, knife, tie, tie_answers):
    data, spec, qs = _family_questions(knife, tids)
    assert set(tids) <= {t.id for t in applicable_templates(spec)}
    assert qs == []
    _, _, tied = _family_questions(tie, tids)
    if tie_answers is None:
        assert tied == []
    else:
        assert {q.template_id for q in tied} == set(tids)
        assert all(q.gold_answer.value == tie_answers[q.template_id] for q in tied)
    for tid in tids:
        t = by_id(templates, tid)
        with pytest.raises(Degenerate):
            gold_answer(t, {k: v for k, v in KNIFE_BINDINGS.items() if k in t.slots}, spec)


def test_range_comparison_keeps_the_exact_tie_and_drops_the_knife_edge(templates):
    # template 63 on two values KNIFE apart: the drop from the larger to the
    # smaller equals the range exactly (an allowed tie, answered No), while
    # the reverse pair misses it by -2 * KNIFE
    data, spec, qs = _family_questions([[10, 10 + KNIFE]], (63,))
    assert qs and all(q.bindings["x_tick"] == "2001" and q.gold_answer.value is False for q in qs)
    with pytest.raises(Degenerate):
        gold_answer(by_id(templates, 63), {"x_tick": "2000", "x_tick2": "2001"}, spec)


# sha256 of the questions that instantiate_all and instantiate(n_questions=48)
# draw on 40 sampled plots, one to_json line each; measured with numpy 2.4.6.
# One gold answer among them (template 50, 9999600000.0) renders "1.000e+10":
# its mantissa rounds up to the next exponent
ALL_TEMPLATES_SHA256 = "6a4700d868593aba64952b2374ea7549b9d7e0dfab44d9114d52d7d210d16200"


def test_generator_output_is_pinned_over_all_templates(corpus):
    # every template id occurs, so a last-bit change in any gold branch, or
    # a shifted random draw, changes the hash
    lines, ids = [], set()
    for i in range(40):
        data = sample_plot_data(corpus, stable_seed(3, "data", i))
        spec = make_plot_spec(data, stable_seed(3, "style", i))
        seed = stable_seed(3, "q", i)
        for q in instantiate_all(spec, seed) + instantiate(spec, seed, n_questions=48):
            lines.append(json.dumps(q.to_json(), sort_keys=True))
            ids.add(q.template_id)
    assert ids == set(range(1, 75))
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == ALL_TEMPLATES_SHA256, (
        f"generated questions changed (numpy {np.__version__}): a refactor must keep the bytes")


def test_ordinal_formatting():
    assert [ordinal(k) for k in (1, 2, 3, 4, 11, 12, 13, 21, 22, 23, 101)] == [
        "1st", "2nd", "3rd", "4th", "11th", "12th", "13th", "21st", "22nd", "23rd", "101st"]


def test_draw_equals_generator_choice():
    # the same uniform and the same index as rng.choice(p=...), draw for draw,
    # over 10^5 draws that cycle through weight lists as instantiate does
    weight_lists = [
        list(CATEGORY_WEIGHTS.values()),
        list(ANSWER_TYPE_WEIGHTS["reasoning"].values()),
        list(ANSWER_TYPE_WEIGHTS["structural"].values()),  # one weight is zero
        [0.3, 0.7],
        [1.0],
    ]
    cdfs = [_cdf(w) for w in weight_lists]
    ps = [np.array(w, dtype=float) / np.sum(w) for w in weight_lists]  # as instantiate normalized
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for k in range(100_000):
        n = k % len(weight_lists)
        assert _draw(cdfs[n], ours) == int(theirs.choice(len(ps[n]), p=ps[n]))
    assert ours.random() == theirs.random()  # both streams at the same place
