import numpy as np
import pytest

from plotquest.answers import Answer, AnswerUnavailable, UnparseableQuestion, number, text, yes_no
from plotquest.harness import EvalReport, SplitSpec, Tally, evaluate, score_answer, split
from plotquest.qgen import QuestionInstance


# -- score_answer --------------------------------------------------------------

def test_exact_numeric_match():
    assert score_answer(number(98), number(98))


def test_numeric_within_five_percent():
    # |100 - 98| / 98 = 2.04% <= 5%
    assert abs(100 - 98) / 98 <= 0.05
    assert score_answer(number(100), number(98))


def test_numeric_outside_five_percent():
    # |760 - 680| / 680 = 11.8% > 5%
    assert abs(760 - 680) / 680 > 0.05
    assert not score_answer(number(760), number(680))


def test_truncated_text_is_wrong():
    assert not score_answer(text("Indoo"), text("Indoor"))


def test_boundary_is_closed():
    gold = 40.0
    assert score_answer(number(gold * 1.05), number(gold))
    assert score_answer(number(gold * 0.95), number(gold))
    assert not score_answer(number(gold * 1.05 + 1e-9), number(gold))


def test_gold_zero_requires_exact_zero():
    assert score_answer(number(0.0), number(0.0))
    assert not score_answer(number(1e-12), number(0.0))


def test_unparseable_numeric_prediction_string_compares():
    # "100-" cannot parse as a number, so it string-compares against 98
    assert not score_answer(text("100-"), number(98))
    assert score_answer(text("98"), number(98))
    assert score_answer(text("100"), number(98))  # parses, and 2.04% <= 5%


def test_unavailable_scores_false():
    assert not score_answer(None, number(5))


def test_text_match_case_insensitive():
    assert score_answer(text("  horizontal "), text("Horizontal"))
    assert not score_answer(text("vertical"), text("horizontal"))


def test_boolean_match():
    assert score_answer(yes_no(True), yes_no(True))
    assert not score_answer(yes_no(False), yes_no(True))
    assert score_answer(text("yes"), yes_no(True))


def test_self_match_property():
    rng = np.random.default_rng(0)
    for _ in range(300):
        kind = rng.choice(["number", "text", "boolean"])
        if kind == "number":
            a = number(float(rng.normal(0, 1e6)))
        elif kind == "text":
            a = text("".join(chr(int(c)) for c in rng.integers(65, 90, 8)))
        else:
            a = yes_no(bool(rng.random() < 0.5))
        assert score_answer(a, a)


# -- split -----------------------------------------------------------------------

def test_split_exact_100():
    train, valid, test = split(list(range(100)), SplitSpec((0.7, 0.15, 0.15), seed=3))
    assert (len(train), len(valid), len(test)) == (70, 15, 15)


def test_split_deterministic():
    spec = SplitSpec((0.7, 0.15, 0.15), seed=12)
    assert split(list(range(57)), spec) == split(list(range(57)), spec)


def test_split_all_train():
    train, valid, test = split(list(range(10)), SplitSpec((1.0, 0.0, 0.0), seed=0))
    assert sorted(train) == list(range(10))
    assert valid == [] and test == []


def test_split_disjoint_exhaustive_within_one():
    for n in (7, 23, 101, 404):
        spec = SplitSpec((0.7, 0.15, 0.15), seed=n)
        parts = split(list(range(n)), spec)
        joined = [x for p in parts for x in p]
        assert sorted(joined) == list(range(n))
        for part, ratio in zip(parts, spec.ratios):
            assert abs(len(part) - n * ratio) <= 1


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        SplitSpec((0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        SplitSpec((-0.1, 0.6, 0.5), seed=0)


# -- evaluate ---------------------------------------------------------------------

def _question(cat, at, gold, k=0):
    return QuestionInstance(1, cat, at, f"q{cat}{at}{k}", {}, gold)


def _grid_questions():
    qs = []
    for cat in ("structural", "data_retrieval", "reasoning"):
        for at in ("yes_no", "fixed_vocab", "open_vocab"):
            if cat == "structural" and at == "open_vocab":
                continue
            for k in range(4):
                gold = yes_no(True) if at == "yes_no" else number(5 + k)
                qs.append(_question(cat, at, gold, k))
    return qs


def test_perfect_system_scores_one():
    qs = _grid_questions()
    rep = evaluate([(q, q.gold_answer) for q in qs], lambda _, gold: gold)
    assert rep.overall_accuracy == 1.0
    for cat in rep.accuracy_by:
        for at, v in rep.accuracy_by[cat].items():
            assert v in (1.0, None)
    assert rep.accuracy_by["structural"]["open_vocab"] is None


def test_yes_no_only_system():
    qs = _grid_questions()

    def system(_, q):
        if q.answer_type == "yes_no":
            return q.gold_answer
        raise AnswerUnavailable("nope")

    rep = evaluate([(q, q) for q in qs], system)
    for cat in ("structural", "data_retrieval", "reasoning"):
        assert rep.accuracy_by[cat]["yes_no"] == 1.0
        if rep.accuracy_by[cat]["fixed_vocab"] is not None:
            assert rep.accuracy_by[cat]["fixed_vocab"] == 0.0


def test_overall_is_count_weighted_mean():
    qs = _grid_questions()
    rng = np.random.default_rng(5)

    def system(_, case):
        q, hit = case
        if hit:
            return q.gold_answer
        raise AnswerUnavailable("miss")

    rep = evaluate([(q, (q, bool(rng.random() < 0.6))) for q in qs], system)
    num = den = 0.0
    for cat, row in rep.accuracy_by.items():
        for at, v in row.items():
            n = rep.counts[cat][at]
            if n and v is not None:
                num += v * n
                den += n
    assert rep.overall_accuracy == pytest.approx(num / den)


def test_evaluate_order_invariant():
    qs = _grid_questions()
    rng = np.random.default_rng(8)
    flaky = {q.text: bool(rng.random() < 0.5) for q in qs}
    cases = [(q, q) for q in qs]

    def system(_, q):
        return q.gold_answer if flaky[q.text] else number(-999999.0)

    a = evaluate(cases, system)
    b = evaluate(cases[::-1], system)
    assert a.overall_accuracy == b.overall_accuracy
    assert a.accuracy_by == b.accuracy_by


def test_evaluate_rejects_empty():
    with pytest.raises(ValueError):
        evaluate([], lambda _, context: None)


def test_equal_questions_are_scored_on_their_own_contexts():
    # one question object twice and an equal copy: each is answered from its
    # text and the context it is paired with, not from another case's
    q = _question("data_retrieval", "open_vocab", number(5))
    twin = _question("data_retrieval", "open_vocab", number(5))
    assert twin == q and twin is not q
    cases = [(q, number(5)), (q, number(9)), (twin, number(5)), (twin, None)]
    seen = []

    def system(question_text, prediction):
        seen.append((question_text, prediction))
        return prediction

    rep = evaluate(cases, system)
    assert seen == [(c.text, p) for c, p in cases]
    assert rep.counts["data_retrieval"]["open_vocab"] == 4
    assert rep.overall_accuracy == 0.5


def test_evaluate_scores_only_the_documented_failures_as_unanswered():
    q = _question("reasoning", "open_vocab", number(5))

    def system(_, outcome):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    cases = [(q, number(5)), (q, AnswerUnavailable("no cell")), (q, UnparseableQuestion("no template"))]
    rep = evaluate(cases, system)
    assert rep.counts["reasoning"]["open_vocab"] == 3
    assert rep.overall_accuracy == pytest.approx(1 / 3)
    # a programming error in the answerer is never scored as a wrong answer
    for bug in (KeyError("id"), ValueError("unknown op")):
        with pytest.raises(type(bug)) as raised:
            evaluate([(q, number(5)), (q, bug)], system)
        assert raised.value is bug


def test_report_json_roundtrip():
    tally = Tally()
    for q in _grid_questions():
        tally.add(q, True)
    rep = tally.report(map_scores={"0.5": 0.96}, ocr_accuracy=0.97, mean_table_f1=0.68)
    again = EvalReport.from_json(rep.to_json())
    assert again.overall_accuracy == rep.overall_accuracy
    assert again.map_scores == {"0.5": 0.96}
    assert "overall accuracy" in rep.render_text()
