"""plotquest: synthetic annotated plots, template question answering, and a
perception-to-reasoning pipeline with controllable noise and evaluation
metrics.

The pieces compose left to right:

    corpus -> plotgen -> (detsim) -> sie -> tableqa
                 \\         |                  /
                  qgen     +---- hybrid -----+
                     \\          |
                      +------ harness

corpus samples realistic data series; plotgen renders them to SVG with
exact element annotations; qgen instantiates the 74-template question
grammar over a plot's spec, with gold answers; detsim perturbs annotations into noisy
detections and scores them (AP/mAP, OCR accuracy); sie reconstructs the
table geometrically and scores it (tuple F1); tableqa answers questions
by executing logical forms on that table; hybrid sends questions with a
visual logical form to the structural branch and every other question to
the table branch; harness computes the 5%-tolerance accuracy and the 3x3
report grid.
"""

__version__ = "0.1.0"

from .answers import Answer, AnswerUnavailable, UnparseableQuestion
from .corpus import (
    IndicatorVariable, PlotData, default_corpus, load_corpus, sample_plot_data,
)
from .detsim import (
    APPool, Detection, DetectionSet, NoiseModel, OCRPool, PAPER_LIKE, ZERO_NOISE,
    average_precision, corrupt_text, iou, ocr_accuracy, perturb,
)
from .harness import EvalReport, SplitSpec, evaluate, score_answer, split
from .hybrid import Route, answer_hybrid, answer_structural, route
from .plotgen import (
    PlotAnnotation, PlotSpec, StyleParams, VisualElement, LayoutError,
    make_plot_spec, render, validate_annotation,
)
from .qgen import QuestionInstance, gold_answer, instantiate, instantiate_all
from .sie import PlotReading, associate_legend, extract_table, read, table_f1
from .table import SemiStructuredTable
from .tableqa import ParsedQuestion, execute, parse, to_sexpr
from .templates import Template, default_templates, load_templates

__all__ = [
    "Answer", "AnswerUnavailable", "UnparseableQuestion",
    "IndicatorVariable", "PlotData", "default_corpus", "load_corpus", "sample_plot_data",
    "APPool", "Detection", "DetectionSet", "NoiseModel", "OCRPool", "PAPER_LIKE", "ZERO_NOISE",
    "average_precision", "corrupt_text", "iou", "ocr_accuracy", "perturb",
    "EvalReport", "SplitSpec", "evaluate", "score_answer", "split",
    "Route", "answer_hybrid", "answer_structural", "route",
    "PlotAnnotation", "PlotSpec", "StyleParams", "VisualElement", "LayoutError",
    "make_plot_spec", "render", "validate_annotation",
    "QuestionInstance", "gold_answer", "instantiate", "instantiate_all",
    "PlotReading", "associate_legend", "extract_table", "read", "table_f1",
    "SemiStructuredTable",
    "ParsedQuestion", "execute", "parse", "to_sexpr",
    "Template", "default_templates", "load_templates",
]
