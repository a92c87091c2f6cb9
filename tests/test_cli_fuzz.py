"""Fuzzed CLI inputs: damaged files go through ``cli.main`` in-process.

Each test takes one valid input file, damages it in one of three ways
(truncates it at a drawn offset, replaces a drawn byte, or sets a drawn
value at a drawn place: a JSON key path, or a field of a corpus line) and
runs the command that reads it. The contract at every input boundary: no
exception escapes ``main``, the exit code is 0, 1 or 2, and a run that fails
writes exactly one line to stderr.

The dataset has two plots, both in the test split, so every damaged question
line and annotation is read by ``run``. Plot 0 has one series and a "How are
the legend labels stacked?" question, which ``hybrid`` answers from the style
metadata when fewer than two legend labels are detected; damage to its style
fields therefore reaches the answerer.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from plotquest.cli import main
from plotquest.detsim import PAPER_LIKE, perturb
from plotquest.plotgen import PlotAnnotation


VALUES = [None, True, False, 0, -1, 5, 1.5, 1e308, 10**400, float("nan"), float("inf"),
          "", "x", "no", "bottom-left", [], [1, 2], ["a"], {}, {"a": 1}]
CORPUS_FIELDS = ["", "x", "-1", "1e308", "nan", "5", "integer", "float", "{x}", "in", "a | b"]
STYLE_FIELDS = ["grid", "font_size", "tick_notation", "line_style", "marker", "legend_position",
                "series_colors", "canvas"]
QUESTION_FIELDS = ["template_id", "category", "answer_type", "text", "bindings", "gold_answer", "plot_id"]


def _paths(obj, prefix=()):
    """Every key path in a JSON document, the root included, in document order."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _set(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _byte_damage(data: bytes):
    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda k: data[:k]),
        st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)).map(
            lambda kb: data[:kb[0]] + bytes([kb[1]]) + data[kb[0] + 1:]),
    )


def damaged_json(data: bytes, focus: list[tuple]):
    """``data`` (a JSON document) truncated, with one byte replaced, or with
    a value set at a key path drawn from ``focus`` or from the document."""
    doc = json.loads(data)
    paths = st.one_of(st.sampled_from(focus), st.sampled_from(list(_paths(doc))))
    return st.one_of(
        _byte_damage(data),
        st.tuples(paths, st.sampled_from(VALUES)).map(
            lambda pv: json.dumps(_set(doc, *pv), indent=1).encode()),
    )


def damaged_jsonl(data: bytes, focus_keys: list[str]):
    """The JSON-lines file ``data`` damaged like ``damaged_json``; a key
    path starts with a line number."""
    records = [json.loads(line) for line in data.splitlines()]
    focus = [(k, key) for k in range(len(records)) for key in focus_keys]
    paths = st.one_of(st.sampled_from(focus), st.sampled_from(list(_paths(records))[1:]))

    def write(path, value):
        damaged = _set(records, path, value)
        return "".join(json.dumps(rec) + "\n" for rec in damaged).encode()

    return st.one_of(_byte_damage(data), st.tuples(paths, st.sampled_from(VALUES)).map(lambda pv: write(*pv)))


def damaged_corpus(data: bytes):
    """The corpus ``data`` damaged at the byte level, or with one field of
    one indicator line replaced."""
    lines = data.decode().splitlines()
    rows = [k for k, line in enumerate(lines) if line and not line.startswith("#")]

    def write(k, field, value):
        parts = lines[k].split(" | ")
        parts[field] = value
        return "\n".join(lines[:k] + [" | ".join(parts)] + lines[k + 1:]).encode() + b"\n"

    return st.one_of(_byte_damage(data), st.builds(write, st.sampled_from(rows), st.integers(0, 5),
                                                   st.sampled_from(CORPUS_FIELDS)))


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ds = root / "ds"
    assert _main(["generate", "--n-plots", "2", "--seed", "25", "--split", "0,0,1",
                  "--questions-per-plot", "24", "--out", ds])[0] == 0
    questions = [json.loads(line) for line in (ds / "questions.jsonl").read_text().splitlines()]
    annotation = PlotAnnotation.loads((ds / "annotations" / "0000.json").read_text())
    assert any(q["template_id"] == 5 and q["plot_id"] == 0 for q in questions)
    assert len(annotation.by_class("legend_label")) == 1
    assert _main(["run", "--dataset", ds, "--out", root / "run"])[0] == 0
    (root / "detections.json").write_text(perturb(annotation, PAPER_LIKE.with_seed(1)).dumps())
    (root / "noise.json").write_text(json.dumps({
        "box_jitter_sigma": 2.0, "class_sigma": {"bar": 1.0}, "drop_prob": 0.1,
        "ocr_char_sub_prob": 0.05, "seed": 3}))
    (root / "corpus.txt").write_text(
        "# name | unit_phrase | plural_entity_phrase | min | max | kind\n"
        "Diesel Price | price of diesel | countries | 0.2 | 2.5 | float\n"
        "Rainfall | annual rainfall | countries | 120 | 3200 | integer\n"
        "Literacy Rate | literacy rate | countries | 20 | 99 | percentage\n")
    assert _main(["generate", "--n-plots", "1", "--corpus", root / "corpus.txt", "--out", root / "g"])[0] == 0
    return root


def _main(argv):
    """(exit code, stderr) of ``main`` on ``argv``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _fuzz(name: str, damage, argv_of, examples: int = 50):
    """A test that writes the file ``name`` under the fixture root, damaged
    by a draw from ``damage(original bytes)``, runs ``argv_of(root, path)``
    and puts the file back; ``examples`` derandomized examples."""
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test(fuzz_root, data):
        path = fuzz_root / name
        original = path.read_bytes()
        path.write_bytes(data.draw(damage(original)))
        try:
            code, err = _main(argv_of(fuzz_root, path))
        finally:
            path.write_bytes(original)
        assert code in (0, 1, 2)
        if code:
            assert err.endswith("\n") and err.count("\n") == 1, err

    return test


STYLE_PATHS = [("style", f) for f in STYLE_FIELDS]


def _run(root, path):
    return ["run", "--dataset", root / "ds", "--out", root / "o"]


def _extract(root, path):
    return ["extract", "--input", path]


test_extract_annotation = _fuzz("ds/annotations/0000.json", lambda b: damaged_json(b, STYLE_PATHS), _extract)
test_extract_detections = _fuzz("detections.json", lambda b: damaged_json(b, STYLE_PATHS), _extract)
test_run_manifest = _fuzz(
    "ds/manifest.json", lambda b: damaged_json(b, [("splits",), ("splits", "test"), ("splits", "test", 0)]), _run)
# 100 examples each: at 25, neither test found a non-string legend position or question
# text with the decoder checks that reject them taken out; at 100, both do
test_run_questions = _fuzz("ds/questions.jsonl", lambda b: damaged_jsonl(b, QUESTION_FIELDS), _run, 100)
test_run_annotation = _fuzz("ds/annotations/0000.json", lambda b: damaged_json(b, STYLE_PATHS), _run, 100)
test_run_noise = _fuzz(
    "noise.json", lambda b: damaged_json(b, [("drop_prob",), ("class_sigma",), ("class_sigma", "bar"), ("seed",)]),
    lambda root, path: _run(root, path) + ["--noise", path])
test_evaluate = _fuzz(
    "run/predictions.jsonl", lambda b: damaged_jsonl(b, QUESTION_FIELDS + ["prediction"]),
    lambda root, path: ["evaluate", "--predictions", path])
test_report = _fuzz(
    "run/report.json", lambda b: damaged_json(b, [("overall_accuracy",), ("accuracy_by", "reasoning"),
                                                 ("counts", "reasoning", "open_vocab"), ("map",)]),
    lambda root, path: ["report", "--report", path])
test_generate_corpus = _fuzz(
    "corpus.txt", damaged_corpus,
    lambda root, path: ["generate", "--n-plots", "1", "--corpus", path, "--out", root / "g"])
