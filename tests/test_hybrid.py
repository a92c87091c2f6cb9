import hashlib
import json

import numpy as np
import pytest

from plotquest.answers import AnswerUnavailable, UnparseableQuestion
from plotquest.cli import stable_seed
from plotquest.corpus import sample_plot_data
from plotquest.detsim import PAPER_LIKE, ZERO_NOISE, Detection, DetectionSet, perturb
from plotquest.hybrid import (
    CLASSIFICATION_BRANCH, PIPELINE_BRANCH, answer_hybrid, answer_pipeline_only,
    answer_structural, route,
)
from plotquest.plotgen import make_plot_spec, render
from plotquest.qgen import instantiate_all
from plotquest.sie import NON_FINITE_VALUE, read
from plotquest.tableqa import parse

from conftest import HEAVY, clean_detections, make_data, make_spec, rendered


def test_route_fixtures():
    assert route("How many legend labels are there?").branch == CLASSIFICATION_BRANCH
    assert route("What is the ratio of the price of diesel in Lebanon in 2010 to that in 2014?"
                 ).branch == PIPELINE_BRANCH
    assert route("Does the graph contain grids?").branch == CLASSIFICATION_BRANCH
    with pytest.raises(UnparseableQuestion):
        route("this is not a question the grammar knows")


def test_route_partitions_every_template(corpus, templates):
    # each question lands on exactly one branch, decided by text alone: the
    # classification branch iff the logical form is visual, and only there
    # does the geometry answer
    seen = set()
    for seed in range(10):
        data = sample_plot_data(corpus, seed)
        spec = make_spec(data, ("vbar", "hbar", "line", "dotline")[seed % 4])
        reading = read(render(spec)[1])
        for q in instantiate_all(spec, seed):
            seen.add(q.template_id)
            r1, r2 = route(q.text), route(q.text)
            assert r1 == r2 == route(parse(q.text))
            assert r1.branch in (CLASSIFICATION_BRANCH, PIPELINE_BRANCH)
            visual = parse(q.text).logical_form[0] == "visual"
            assert (r1.branch == CLASSIFICATION_BRANCH) == visual
            if q.category == "structural":
                assert visual
            if not visual:
                with pytest.raises(AnswerUnavailable, match="not a classification-branch question"):
                    answer_structural(q.text, reading)
            else:
                with pytest.raises(AnswerUnavailable, match="not a pipeline-branch question"):
                    answer_pipeline_only(q.text, reading)
    assert seen == {t.id for t in templates}


def test_structural_bars_on_second_tick_from_top():
    data = make_data([[3, 4], [5, 6]], legends=["Indoor", "Outdoor"])
    _, _, ann = rendered(data, "hbar")
    got = answer_structural("How many bars are there on the 2nd tick from the top?", ann)
    assert got.value == 2


def _without_last_bar(ann, horizontal):
    """Clean detections minus the bar farthest right (vertical plots) or
    lowest (horizontal ones), so the far-end group is one bar short."""
    det = clean_detections(ann)
    bars = [x for x in det.detections if x.cls == "bar"]
    last = max(bars, key=lambda b: b.center[1] if horizontal else b.center[0])
    return DetectionSet([x for x in det.detections if x is not last], style=det.style)


@pytest.mark.parametrize("plot_type,near,far", [("vbar", "left", "right"), ("hbar", "top", "bottom")])
def test_ordinals_from_the_far_end_count_from_the_last_group(plot_type, near, far):
    data = make_data([[3, 4, 5], [6, 7, 8]], legends=["Indoor", "Outdoor"])
    _, _, ann = rendered(data, plot_type)
    rd = read(_without_last_bar(ann, plot_type == "hbar"))
    count = lambda n, end: answer_structural(f"How many bars are there on the {n} tick from the {end}?", rd).value
    assert [count("1st", far), count("2nd", far), count("3rd", far)] == [1, 2, 2]
    assert [count("1st", near), count("3rd", near)] == [2, 1]
    with pytest.raises(AnswerUnavailable, match="no 4th tick"):
        count("4th", far)
    # the group one bar short has no 2nd bar from either end, so it casts no vote
    bar = lambda n, end: answer_structural(f"What does the {n} bar from the {end} in each group represent?", rd).value
    assert bar("2nd", far) == bar("1st", near)
    assert bar("2nd", near) == bar("1st", far)
    assert bar("1st", near) != bar("1st", far)


def test_row_label_is_the_x_axis_answer_when_the_first_label_has_no_text():
    # a misclassified mark read as an axis label, sorted first and without text
    data = make_data([[3, 4], [5, 6]], x_label="Year")
    _, _, ann = rendered(data, "vbar")
    det = clean_detections(ann)
    blank = Detection("xaxis_label", (0.0, 0.0, 1.0, 1.0), 1.0)
    rd = read(DetectionSet([blank, *det.detections], style=det.style))
    answer = answer_hybrid("What is the label or title of the X-axis?", rd)
    assert rd.table().row_label == answer.value == "Year"


def test_structural_legend_stacking_horizontal():
    data = make_data([[1, 2], [3, 4]])
    _, _, ann = rendered(data, "vbar", legend_position="bottom-centre")
    got = answer_structural("How are the legend labels stacked?", ann)
    assert got.value == "horizontal"
    _, _, ann2 = rendered(data, "vbar", legend_position="center-right")
    assert answer_structural("How are the legend labels stacked?", ann2).value == "vertical"


def test_structural_parallel_lines_never_intersect():
    data = make_data([[2.0, 2.0, 2.0], [5.0, 5.0, 5.0]])
    _, _, ann = rendered(data, "line")
    got = answer_structural("How many lines intersect with each other?", ann)
    assert got.value == 0


def test_structural_crossing_lines_counted():
    data = make_data([[1.0, 6.0], [6.0, 1.0]])
    _, _, ann = rendered(data, "line")
    got = answer_structural("How many lines intersect with each other?", ann)
    assert got.value == 1


def test_structural_missing_elements_unavailable():
    # every guarded family, on a detection set without what it needs, and
    # every ordinal past the end give the one reason their guard states
    lone_bar = DetectionSet([Detection("bar", (10, 10, 5, 5), 1.0, color=0)])
    nothing = DetectionSet([])
    cases = [
        ("Does the graph contain any zero values?", nothing, "no data values readable"),
        ("How many legend labels are there?", lone_bar, "no legend detected"),
        ("How many years are there in the graph?", lone_bar, "no category ticks detected"),
        ("How many bars are there?", nothing, "no bar elements detected"),
        ("How many different colored lines are there?", lone_bar, "no line elements detected"),
        ("How many dotlines are there?", lone_bar, "no dotline elements detected"),
        ("How many groups of bars are there?", nothing, "no bars detected"),
        ("Are all the bars in the graph horizontal?", nothing, "no bars detected"),
        ("Is the number of lines equal to the number of legend labels?", lone_bar, "no lines detected"),
        *[(f"What does the 2nd bar from the {end} in each group represent?", nothing, "no bars detected")
          for end in ("left", "right", "top", "bottom")],
        ("How many bars are there on the 1st tick from the bottom?", nothing, "no 1st tick"),
        ("What is the label of the 3rd group of bars from the top?", lone_bar, "no 3rd group"),
        ("Are the values on the major ticks of Y-axis written in scientific E-notation?", lone_bar,
         "no value ticks detected"),
        ("What is the title of the graph?", lone_bar, "no title detected"),
        ("What is the label or title of the X-axis?", lone_bar, "no xaxis_label detected"),
        ("What is the label or title of the Y-axis?", lone_bar, "no yaxis_label detected"),
    ]
    for question, det, reason in cases:
        with pytest.raises(AnswerUnavailable) as err:
            answer_structural(question, det)
        assert str(err.value) == reason, question


def test_bar_order_without_category_ticks_says_so():
    # bars and a legend but no tick labels: the bars are there, their groups are not
    det = DetectionSet([
        Detection("bar", (100, 200, 30, 200), 1.0, color=0),
        Detection("bar", (130, 250, 30, 150), 1.0, color=1),
        Detection("legend_preview", (400, 20, 10, 10), 1.0, color=0),
        Detection("legend_label", (415, 20, 40, 10), 1.0, text="Brazil"),
        Detection("legend_preview", (400, 40, 10, 10), 1.0, color=1),
        Detection("legend_label", (415, 40, 40, 10), 1.0, text="Iceland"),
    ])
    for end in ("left", "right", "top", "bottom"):
        with pytest.raises(AnswerUnavailable, match="no category ticks detected"):
            answer_structural(f"What does the 1st bar from the {end} in each group represent?", det)
    with pytest.raises(AnswerUnavailable, match="no bars detected"):
        answer_structural("What does the 1st bar from the left in each group represent?",
                          DetectionSet([d for d in det.detections if d.cls != "bar"]))


def test_structural_works_on_detections_and_annotations(corpus):
    data = sample_plot_data(corpus, 3)
    _, ann = render(make_plot_spec(data, 3))
    det = clean_detections(ann)
    q = "Where does the legend appear in the graph?"
    assert answer_structural(q, ann).value == answer_structural(q, det).value


def test_count_answers_survive_jitter():
    # pure-count questions do not depend on box accuracy, only presence
    from plotquest.detsim import NoiseModel
    data = make_data([[3, 4, 5], [5, 6, 7]])
    _, _, ann = rendered(data, "vbar")
    noisy = perturb(ann, NoiseModel(box_jitter_sigma=2.5, seed=11))
    got = answer_hybrid("How many bars are there?", noisy)
    assert got.value == 6


def test_hybrid_zero_noise_equals_gold(corpus):
    from plotquest.harness import score_answer
    for seed in range(12):
        data = sample_plot_data(corpus, seed)
        spec = make_plot_spec(data, seed)
        _, ann = render(spec)
        det = clean_detections(ann)
        for q in instantiate_all(spec, seed):
            got = answer_hybrid(q.text, det)
            assert score_answer(got, q.gold_answer), (seed, q.text, got, q.gold_answer)


def test_hybrid_never_panics_under_heavy_noise(corpus):
    for seed in range(8):
        data = sample_plot_data(corpus, seed)
        spec = make_plot_spec(data, seed)
        _, ann = render(spec)
        det = perturb(ann, HEAVY.with_seed(seed))
        for q in instantiate_all(spec, seed):
            try:
                answer_hybrid(q.text, det)
            except AnswerUnavailable:
                pass  # the only acceptable failure mode


def test_hybrid_strictly_dominates_single_branches_at_zero_noise(corpus):
    from plotquest.harness import evaluate
    from plotquest.hybrid import answer_pipeline_only
    cases = []
    for seed in range(15):
        data = sample_plot_data(corpus, seed)
        spec = make_plot_spec(data, seed)
        _, ann = render(spec)
        det = clean_detections(ann)
        cases.extend((q, det) for q in instantiate_all(spec, seed))

    def run(fn):
        return evaluate(cases, fn).overall_accuracy

    hybrid = run(answer_hybrid)
    pipeline = run(answer_pipeline_only)
    structural = run(answer_structural)
    assert hybrid == 1.0
    # each single branch fails on the other branch's questions
    assert pipeline < hybrid
    assert structural < hybrid


def test_unparseable_question_fails_loudly_via_pipeline(corpus):
    from plotquest.answers import UnparseableQuestion
    data = sample_plot_data(corpus, 0)
    _, ann = render(make_plot_spec(data, 0))
    with pytest.raises(UnparseableQuestion):
        answer_hybrid("what is the airspeed of an unladen swallow?", ann)


def test_overflowing_value_ticks_answer_nothing():
    # finite tick texts 2e308 apart: every bar reads as -inf, and so does the tick step
    reading = read(DetectionSet([
        Detection("ytick_label", (10, 0, 30, 12), 1.0, text="1e308"),
        Detection("ytick_label", (10, 100, 30, 12), 1.0, text="-1e308"),
        Detection("xtick_label", (100, 430, 30, 12), 1.0, text="2008"),
        Detection("xtick_label", (300, 430, 30, 12), 1.0, text="2009"),
        Detection("bar", (100, 200, 30, 200), 1.0, color=0),
        Detection("bar", (300, 250, 30, 150), 1.0, color=0),
    ]))
    assert [a.reason for a in reading.assignments] == [NON_FINITE_VALUE] * 2
    assert reading.table().cells == [[None], [None]]
    for q in ("What is the median price?",
              "What is the difference between two consecutive major ticks on the Y-axis?"):
        with pytest.raises(AnswerUnavailable):
            answer_hybrid(q, reading)


# sha256 of the hybrid's answers to every instantiate_all question on the 40
# plots of test_qgen's generator pin, each read once under paper-like and
# under heavy noise; measured with numpy 2.4.6
HYBRID_ANSWERS_SHA256 = "6234f789b5e4724f3082e6f10dba04d0a32fa86243223e26c38f0d5d256296c3"


def test_hybrid_answers_are_pinned_under_noise(corpus):
    # noisy readings exercise the grouping, ordering and colour lookups that
    # zero noise never strains, so a refactor of sie or hybrid that moves
    # any answer or failure changes the hash
    lines, ids = [], set()
    for i in range(40):
        data = sample_plot_data(corpus, stable_seed(3, "data", i))
        spec = make_plot_spec(data, stable_seed(3, "style", i))
        _, ann = render(spec)
        questions = instantiate_all(spec, stable_seed(3, "q", i))
        for noise in (PAPER_LIKE, HEAVY):
            rd = read(perturb(ann, noise.with_seed(stable_seed(3, "noise", i))))
            for q in questions:
                try:
                    got = answer_hybrid(q.text, rd).to_json()
                except (AnswerUnavailable, UnparseableQuestion) as e:
                    got = type(e).__name__
                else:
                    ids.add(q.template_id)
                lines.append(json.dumps([q.template_id, q.text, got], sort_keys=True))
    assert len(lines) == 3592 and ids == set(range(1, 75))
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == HYBRID_ANSWERS_SHA256, (
        f"hybrid answers changed (numpy {np.__version__}): a refactor must keep them")
