"""Every record checks its fields in its constructor: a record built in
code with a bad field raises ValueError at once, the same as one decoded
from JSON, so no caller has to remember a separate check. A question line
decodes to the bundled template with its id, so a line that states another
category or answer type, an id no template has, binding keys other than the
template's slots, or a text other than the template's fill, is refused."""

import pytest

from plotquest.answers import Answer
from plotquest.corpus import IndicatorVariable, PlotData
from plotquest.detsim import Detection, NoiseModel
from plotquest.plotgen import PlotAnnotation, PlotSpec, StyleParams, VisualElement
from plotquest.qgen import QuestionInstance
from plotquest.table import SemiStructuredTable
from plotquest.templates import templates_by_id

from conftest import make_data, make_indicator, make_style

_INDICATOR = dict(name="Test Indicator", unit_phrase="price of diesel", plural_entity_phrase="countries",
                  value_range=(0.1, 10.0), value_kind="float")
_DATA = dict(indicator=make_indicator(), x_label="Year",
             x_categories=("2000", "2001"), series=(("Brazil", (1.0, 2.0)),))
_STYLE = dict(grid=True, font_size=12.0, tick_notation="standard", line_style="solid", marker="circle",
              legend_position="top-right", series_colors=(0,))
_ANNOTATION = dict(elements=[], style=make_style(1), plot_type="vbar",
                   gold_table=SemiStructuredTable(["2000"], ["Brazil"], [[1.0]]))
# a questions.jsonl line: its template is the bundled one with its id, whose
# category, answer type and fill of the bindings it must state
_QUESTION_LINE = dict(template_id=1, category="structural", answer_type="yes_no",
                      text="Does the graph contain any zero values?", bindings={},
                      gold_answer={"kind": "boolean", "value": False})


def _question_from_line(**line):
    return QuestionInstance.from_json(line)


# record type (or a question line's decoder), the fields of a valid record,
# and the one field that spoils it
CASES = {
    "element-class": (VisualElement, dict(cls="bar", bbox=(0.0, 0.0, 1.0, 1.0)), dict(cls="Bar")),
    "detection-class": (Detection, dict(cls="bar", bbox=(0.0, 0.0, 1.0, 1.0), score=1.0), dict(cls="Bar")),
    "element-huge-int-bbox": (VisualElement, dict(cls="bar", bbox=(0.0, 0.0, 1.0, 1.0)),
                              dict(bbox=(10**400, 0.0, 1.0, 1.0))),
    "detection-huge-int-bbox": (Detection, dict(cls="bar", bbox=(0.0, 0.0, 1.0, 1.0), score=1.0),
                                dict(bbox=(0.0, 0.0, 1.0, 10**400))),
    "element-str-bbox": (VisualElement, dict(cls="bar", bbox=(0.0, 0.0, 1.0, 1.0)), dict(bbox=("a", 0, 1, 1))),
    "detection-str-score": (Detection, dict(cls="bar", bbox=(0.0, 0.0, 1.0, 1.0), score=1.0), dict(score="x")),
    # a bool is no score, though True == 1
    "detection-bool-score": (Detection, dict(cls="bar", bbox=(0.0, 0.0, 1.0, 1.0), score=1.0), dict(score=True)),
    "annotation-plot-type": (PlotAnnotation, _ANNOTATION, dict(plot_type="pie")),
    "style-grid": (StyleParams, _STYLE, dict(grid="no")),
    # an int beyond the float range is not a finite number
    "style-huge-int-font-size": (StyleParams, _STYLE, dict(font_size=10**400)),
    # render would reject the colour only when it builds the marks
    "style-float-color": (StyleParams, _STYLE, dict(series_colors=(0.0,))),
    "style-bool-color": (StyleParams, _STYLE, dict(series_colors=(True,))),
    # render would index past the colours of a spec with fewer than its series
    "spec-color-count": (PlotSpec, dict(data=make_data([[1, 2], [3, 4], [5, 6]]), plot_type="vbar",
                                        style=make_style(3)), dict(style=make_style(1))),
    "data-one-category": (PlotData, _DATA, dict(x_categories=("2000",), series=(("Brazil", (1.0,)),))),
    "indicator-value-kind": (IndicatorVariable, _INDICATOR, dict(value_kind="dollars")),
    "question-template": (QuestionInstance, dict(template=templates_by_id()[1], bindings={},
                                                 gold_answer=Answer("boolean", False)),
                          dict(template=1)),
    # a line's text is its template's fill: template 2's text on template 1's line
    "question-text": (_question_from_line, _QUESTION_LINE, dict(text=templates_by_id()[2].fill({}))),
    "question-binding-keys": (_question_from_line, _QUESTION_LINE, dict(bindings={"zz": "q"})),
    "question-category": (_question_from_line, _QUESTION_LINE, dict(category="reasoning")),
    "question-answer-type": (_question_from_line, _QUESTION_LINE, dict(answer_type="fixed_vocab")),
    "question-unknown-template-id": (_question_from_line, _QUESTION_LINE, dict(template_id=999)),
    # equal to 1 as dict keys, but not template ids
    "question-bool-template-id": (_question_from_line, _QUESTION_LINE, dict(template_id=True)),
    "question-float-template-id": (_question_from_line, _QUESTION_LINE, dict(template_id=1.0)),
    # perturb would read a NaN sigma as no jitter while is_zero() is false
    "noise-nan-sigma": (NoiseModel, dict(box_jitter_sigma=1.0), dict(box_jitter_sigma=float("nan"))),
    "noise-inf-class-sigma": (NoiseModel, dict(class_sigma={"bar": 1.0}), dict(class_sigma={"bar": float("inf")})),
    "noise-huge-int-sigma": (NoiseModel, dict(box_jitter_sigma=1.0), dict(box_jitter_sigma=10**400)),
    "noise-huge-int-prob": (NoiseModel, dict(drop_prob=0.5), dict(drop_prob=10**400)),
    "answer-huge-int": (Answer, dict(kind="number", value=1.0), dict(value=10**400)),
}


@pytest.mark.parametrize("case", CASES)
def test_record_rejects_a_bad_field_at_construction(case):
    record, good, bad = CASES[case]
    record(**good)
    with pytest.raises(ValueError):
        record(**{**good, **bad})
