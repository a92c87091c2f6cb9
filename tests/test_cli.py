import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from plotquest.cli import main
from plotquest.table import SemiStructuredTable
from plotquest.templates import ANSWER_TYPES, CATEGORIES


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert main(["generate", "--n-plots", "10", "--seed", "5", "--out", str(out)]) == 0
    return str(out)


def test_generate_layout(dataset):
    assert sorted(os.listdir(os.path.join(dataset, "plots"))) == [f"{i:04d}.svg" for i in range(10)]
    assert sorted(os.listdir(os.path.join(dataset, "annotations"))) == [f"{i:04d}.json" for i in range(10)]
    assert sorted(os.listdir(os.path.join(dataset, "tables"))) == [f"{i:04d}.csv" for i in range(10)]
    assert os.path.exists(os.path.join(dataset, "questions.jsonl"))
    with open(os.path.join(dataset, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["config"]["seed"] == 5
    splits = manifest["splits"]
    assert sorted(splits["train"] + splits["valid"] + splits["test"]) == list(range(10))


def test_generate_reproducible(dataset, tmp_path):
    out2 = tmp_path / "ds2"
    assert main(["generate", "--n-plots", "10", "--seed", "5", "--out", str(out2)]) == 0
    for name in ("manifest.json", "questions.jsonl"):
        a = open(os.path.join(dataset, name), "rb").read()
        b = open(out2 / name, "rb").read()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()
    for i in range(10):
        a = open(os.path.join(dataset, "plots", f"{i:04d}.svg"), "rb").read()
        b = open(out2 / "plots" / f"{i:04d}.svg", "rb").read()
        assert a == b


# sha256 of the ``dataset`` fixture's manifest.json, which lists the hash of
# every generated file, and of predictions.jsonl and report.json from a
# paper_like run of its train split; measured with numpy 2.4.6
MANIFEST_SHA256 = "927cbd7fd72a5d288fc79fe897ffa2fd3090356b5c59858ba13bc96b162560f4"
PREDICTIONS_SHA256 = "f971a1746b84b7df48f80ea8645fe27a58835fd5be0a6257d45adabce4a0d177"
REPORT_SHA256 = "1281f703cab250cd35c4653c453bdd6188de1ceef48552f8505cc7803bc665d1"


def test_outputs_match_the_pinned_behaviour(dataset, tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--dataset", dataset, "--noise", "paper_like", "--run-split", "train",
                 "--out", str(out)]) == 0
    got = (hashlib.sha256(open(os.path.join(dataset, "manifest.json"), "rb").read()).hexdigest(),
           hashlib.sha256((out / "predictions.jsonl").read_bytes()).hexdigest(),
           hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    assert got == (MANIFEST_SHA256, PREDICTIONS_SHA256, REPORT_SHA256), (
        f"generate or run output changed (numpy {np.__version__}): a refactor must keep the bytes; "
        "a deliberate behaviour change updates these constants and says so in CHANGES.md")


def test_run_and_extract_read_annotations_written_indented(dataset, tmp_path):
    # datasets written before annotations became one-line JSON hold them
    # indented; run and extract read them as they read the compact files
    ds = _copy_dataset(dataset, tmp_path)
    for path in (ds / "annotations").iterdir():
        text = path.read_text()
        assert "\n" not in text
        path.write_text(json.dumps(json.loads(text), indent=1))
    out = tmp_path / "run"
    assert main(["run", "--dataset", str(ds), "--noise", "paper_like", "--run-split", "train",
                 "--out", str(out)]) == 0
    assert (hashlib.sha256((out / "predictions.jsonl").read_bytes()).hexdigest(),
            hashlib.sha256((out / "report.json").read_bytes()).hexdigest()) == (PREDICTIONS_SHA256, REPORT_SHA256)
    name = os.path.join("annotations", "0000.json")
    assert main(["extract", "--input", str(ds / name), "--out", str(tmp_path / "indented.csv")]) == 0
    assert main(["extract", "--input", os.path.join(dataset, name), "--out", str(tmp_path / "compact.csv")]) == 0
    assert (tmp_path / "indented.csv").read_bytes() == (tmp_path / "compact.csv").read_bytes()


def test_run_on_a_1e308_box_scores_it_without_overflow(dataset, tmp_path):
    # a finite box near 1e308 used to overflow inside the IOU, with numpy
    # RuntimeWarnings, and score NaN, which matches nothing
    ds = _copy_dataset(dataset, tmp_path)
    _edit_annotations(lambda ann: ann["elements"][0].update(bbox=[0, 0, 1e308, 1e308]))(ds)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--dataset", str(ds), "--noise", "zero", "--run-split", "train",
                     "--out", str(out)]) == 0
    assert all(v == 1.0 for v in json.loads((out / "report.json").read_text())["map"].values())


def test_generate_rejects_zero_plots(tmp_path):
    assert main(["generate", "--n-plots", "0", "--out", str(tmp_path / "x")]) == 1


def test_generate_bad_split_is_usage_error(tmp_path):
    assert main(["generate", "--n-plots", "2", "--split", "0.5,0.5",
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.5,0.5", "0.25,0.25,0.25,0.25"])
def test_generate_split_of_other_than_three_finite_ratios_is_usage_error_that_writes_nothing(
        tmp_path, capsys, ratios):
    out = tmp_path / "o"
    assert main(["generate", "--n-plots", "2", "--split", ratios, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_generate_negative_seed_is_usage_error_that_writes_nothing(tmp_path, capsys):
    # the split seeds numpy's generator, which takes no negative seed
    out = tmp_path / "o"
    assert main(["generate", "--n-plots", "2", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_run_zero_noise_is_perfect(dataset, tmp_path):
    out = tmp_path / "run0"
    assert main(["run", "--dataset", dataset, "--noise", "zero", "--out", str(out)]) == 0
    with open(out / "report.json") as f:
        report = json.load(f)
    assert report["overall_accuracy"] == 1.0
    assert report["mean_table_f1"] == 1.0
    assert all(v == 1.0 for v in report["map"].values())
    assert os.path.exists(out / "predictions.jsonl")
    assert os.path.exists(out / "report.txt")


def test_run_drop_everything_near_zero(dataset, tmp_path):
    noise_file = tmp_path / "noise.json"
    noise_file.write_text(json.dumps({"drop_prob": 1.0, "seed": 1}))
    out = tmp_path / "run1"
    assert main(["run", "--dataset", dataset, "--noise", str(noise_file), "--out", str(out)]) == 0
    with open(out / "report.json") as f:
        report = json.load(f)
    # only style-metadata questions can survive a total detection loss
    assert report["overall_accuracy"] < 0.15


def test_run_missing_dataset_is_data_error(tmp_path):
    assert main(["run", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2


def test_run_on_an_empty_split_is_data_error_that_writes_nothing(tmp_path, capsys):
    # every plot goes to train, so the default test split has no questions
    ds, out = tmp_path / "ds", tmp_path / "o"
    assert main(["generate", "--n-plots", "2", "--split", "1,0,0", "--out", str(ds)]) == 0
    assert main(["run", "--dataset", str(ds), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no questions in split 'test'\n"
    assert not out.exists()


def test_run_unknown_preset_is_usage_error(dataset, tmp_path):
    assert main(["run", "--dataset", dataset, "--noise", "bogus",
                 "--out", str(tmp_path / "o")]) == 1


def test_a_preset_name_means_its_preset_whatever_the_working_directory_holds(dataset, tmp_path, monkeypatch):
    # an earlier `run --out zero` leaves a directory named like a preset
    presets = ("zero", "paper_like")
    for cwd in ("clean", "crowded"):
        (tmp_path / cwd).mkdir()
    for preset in presets:
        (tmp_path / "crowded" / preset).mkdir()
    predictions = {}
    for cwd in ("clean", "crowded"):
        monkeypatch.chdir(tmp_path / cwd)
        for preset in presets:
            assert main(["run", "--dataset", dataset, "--noise", preset, "--out", f"run_{preset}"]) == 0
            predictions[cwd, preset] = (tmp_path / cwd / f"run_{preset}" / "predictions.jsonl").read_bytes()
    assert all(predictions["crowded", p] == predictions["clean", p] for p in presets)
    # a noise-model file named like a preset is read through a path
    monkeypatch.chdir(tmp_path / "clean")
    (tmp_path / "clean" / "zero").write_text(json.dumps({"drop_prob": 1.0, "seed": 1}))
    assert main(["run", "--dataset", dataset, "--noise", "./zero", "--out", "run_file"]) == 0
    with open(tmp_path / "clean" / "run_file" / "report.json") as f:
        assert json.load(f)["overall_accuracy"] < 0.15


def test_extract_gold_annotation_matches_gold_table(dataset, tmp_path):
    # every plot's headers come out in the gold table's order: legend columns
    # in the legend's reading order, rows along the category axis
    for plot_id in range(10):
        out_csv = tmp_path / f"{plot_id:04d}.csv"
        ann_path = os.path.join(dataset, "annotations", f"{plot_id:04d}.json")
        assert main(["extract", "--input", ann_path, "--out", str(out_csv)]) == 0
        got = SemiStructuredTable.from_csv(out_csv.read_text())
        gold = SemiStructuredTable.from_csv(
            open(os.path.join(dataset, "tables", f"{plot_id:04d}.csv")).read())
        assert got.row_headers == gold.row_headers, plot_id
        assert got.col_headers == gold.col_headers, plot_id
        for grow, prow in zip(gold.cells, got.cells):
            for gv, pv in zip(grow, prow):
                assert pv is not None
                assert abs(pv - gv) <= 0.005 * abs(gv)


def test_extract_corrupted_tick_fixture(tmp_path):
    # detections with an OCR-mangled year tick reproduce the bad header
    from plotquest.detsim import Detection, DetectionSet
    dets = DetectionSet([
        Detection("ytick_label", (10, 400, 20, 12), 1.0, text="0"),
        Detection("ytick_label", (10, 100, 30, 12), 1.0, text="100"),
        Detection("xtick_label", (100, 430, 30, 12), 1.0, text="200B"),
        Detection("xtick_label", (300, 430, 30, 12), 1.0, text="2009"),
        Detection("bar", (90, 200, 40, 206), 1.0, color=0),
        Detection("bar", (290, 150, 40, 256), 1.0, color=0),
    ])
    path = tmp_path / "det.json"
    path.write_text(dets.dumps())
    out_csv = tmp_path / "out.csv"
    assert main(["extract", "--input", str(path), "--out", str(out_csv)]) == 0
    assert "200B" in out_csv.read_text()


def test_extract_empty_detections_warns(tmp_path, capsys):
    path = tmp_path / "det.json"
    path.write_text(json.dumps({"detections": []}))
    assert main(["extract", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert "empty" in captured.err


def test_extract_missing_file(tmp_path):
    assert main(["extract", "--input", str(tmp_path / "nope.json")]) == 2


def test_evaluate_and_report_commands(dataset, tmp_path):
    run_out = tmp_path / "run"
    assert main(["run", "--dataset", dataset, "--noise", "zero", "--out", str(run_out)]) == 0
    assert main(["evaluate", "--predictions", str(run_out / "predictions.jsonl"),
                 "--out", str(tmp_path / "rescored.json")]) == 0
    with open(tmp_path / "rescored.json") as f:
        assert json.load(f)["overall_accuracy"] == 1.0
    assert main(["report", "--report", str(run_out / "report.json")]) == 0


def test_evaluate_rescores_a_noisy_run_to_its_report(dataset, tmp_path):
    # run scores each answer as it goes, evaluate re-scores the written
    # predictions: under noise, where answers are wrong and unavailable too,
    # the two must tabulate the same grid
    run_out = tmp_path / "run"
    assert main(["run", "--dataset", dataset, "--noise", "paper_like", "--run-split", "train",
                 "--out", str(run_out)]) == 0
    assert main(["evaluate", "--predictions", str(run_out / "predictions.jsonl"),
                 "--out", str(tmp_path / "rescored.json")]) == 0
    ran = json.loads((run_out / "report.json").read_text())
    rescored = json.loads((tmp_path / "rescored.json").read_text())
    assert 0 < ran["overall_accuracy"] < 1
    for key in ("overall_accuracy", "accuracy_by", "counts"):
        assert rescored[key] == ran[key], key


GOOD_PREDICTION = {
    "template_id": 4, "category": "structural", "answer_type": "fixed_vocab",
    "text": "How many legend labels are there?", "bindings": {},
    "gold_answer": {"kind": "number", "value": 2}, "prediction": {"kind": "number", "value": 2},
}


@pytest.mark.parametrize("line", [
    b'{"template_id": 4, "text": ',
    json.dumps({**GOOD_PREDICTION, "prediction": {"kind": "colour", "value": 2}}).encode(),
    json.dumps({k: v for k, v in GOOD_PREDICTION.items() if k != "gold_answer"}).encode(),
    b"[1, 2]",
    b'{"text": "\xff"}',
    json.dumps({**GOOD_PREDICTION, "text": 5}).encode(),
    json.dumps({**GOOD_PREDICTION, "template_id": "4"}).encode(),
    json.dumps({**GOOD_PREDICTION, "template_id": True}).encode(),
    json.dumps({**GOOD_PREDICTION, "category": "visual"}).encode(),
    json.dumps({**GOOD_PREDICTION, "answer_type": "free"}).encode(),
    json.dumps({**GOOD_PREDICTION, "template_id": 999}).encode(),
    json.dumps({**GOOD_PREDICTION, "template_id": 4.0}).encode(),
    json.dumps({**GOOD_PREDICTION, "category": "reasoning"}).encode(),
    json.dumps({**GOOD_PREDICTION, "answer_type": "open_vocab"}).encode(),
    json.dumps({**GOOD_PREDICTION, "bindings": {"i": 1}}).encode(),
    json.dumps({**GOOD_PREDICTION, "prediction": {"kind": "boolean", "value": "no"}}).encode(),
    json.dumps({**GOOD_PREDICTION, "prediction": {"kind": "text", "value": 2}}).encode(),
    json.dumps({**GOOD_PREDICTION, "prediction": {"kind": "number", "value": True}}).encode(),
    json.dumps({**GOOD_PREDICTION, "prediction": {"kind": "number", "value": "2"}}).encode(),
    json.dumps({**GOOD_PREDICTION, "prediction": {"kind": "number", "value": 10**400}}).encode(),
], ids=["malformed-json", "unknown-answer-kind", "missing-key", "not-an-object", "not-utf8",
        "int-text", "str-template-id", "bool-template-id", "unknown-category", "unknown-answer-type",
        "unknown-template-id", "float-template-id", "other-category", "other-answer-type",
        "int-binding", "str-boolean-value", "int-text-value", "bool-number-value", "str-number-value",
        "huge-int-number-value"])
def test_evaluate_bad_line_is_data_error(tmp_path, capsys, line):
    path = tmp_path / "predictions.jsonl"
    path.write_bytes(json.dumps(GOOD_PREDICTION).encode() + b"\n" + line + b"\n")
    assert main(["evaluate", "--predictions", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed prediction at {path}:2:") and err.count("\n") == 1


@pytest.mark.parametrize("content", [
    "[1,",
    "{}",
    "[1]",
    json.dumps({"overall_accuracy": 1.0, "accuracy_by": {}, "counts": {}}),
], ids=["malformed-json", "missing-keys", "not-an-object", "empty-grid"])
def test_report_bad_file_is_data_error(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_text(content)
    assert main(["report", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed report {path}") and err.count("\n") == 1


def test_usage_error_on_unknown_command():
    assert main(["frobnicate"]) == 1


def test_extract_malformed_json_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"detections": [')
    assert main(["extract", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed input") and "Traceback" not in err


def test_extract_invalid_detection_is_data_error(tmp_path):
    path = tmp_path / "det.json"
    path.write_text(json.dumps({"detections": [{"class": "bar", "bbox": [0, 0, 1, 1], "score": 0}]}))
    assert main(["extract", "--input", str(path)]) == 2


@pytest.mark.parametrize("bbox", [
    [90, float("nan"), 20, 200],
    [90, 10, float("inf"), 200],
    [90, 10, -20, 200],
    [90, 10, 20],
], ids=["nan", "inf", "negative-width", "three-numbers"])
def test_extract_bad_bbox_is_data_error(dataset, tmp_path, capsys, bbox):
    # a NaN coordinate used to flip the inferred orientation and print a garbled table
    dets = {"detections": [
        {"class": "bar", "bbox": [290, 150, 40, 256], "score": 1.0, "color": 0},
        {"class": "bar", "bbox": bbox, "score": 1.0, "color": 0},
    ]}
    with open(os.path.join(dataset, "annotations", "0000.json")) as f:
        ann = json.load(f)
    ann["elements"][0]["bbox"] = bbox
    for k, obj in enumerate((dets, ann)):
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(obj))
        assert main(["extract", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed input") and "Traceback" not in err


@pytest.mark.parametrize("field,value", [("text", 5), ("color", "red"), ("color", True)],
                         ids=["int-text", "str-color", "bool-color"])
def test_extract_bad_text_or_color_is_data_error(dataset, tmp_path, capsys, field, value):
    # two elements that differ only in a mistyped text or colour used to make
    # the canonical sort raise TypeError
    good = {"class": "xtick_label", "bbox": [90, 420, 30, 12], "score": 1.0, "text": "2008", "color": 0}
    dets = {"detections": [good, {**good, field: value}]}
    with open(os.path.join(dataset, "annotations", "0000.json")) as f:
        ann = json.load(f)
    ann["elements"].append({**ann["elements"][0], field: value})
    for k, obj in enumerate((dets, ann)):
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(obj))
        assert main(["extract", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed input") and "Traceback" not in err


def test_generate_unreadable_corpus_is_data_error(tmp_path, capsys):
    not_utf8 = tmp_path / "corpus.txt"
    not_utf8.write_bytes(b"Diesel price | price of diesel | countries | 0.1 | 3 | float\n\xff\xfe\n")
    for corpus in (tmp_path, not_utf8):  # a directory, then a file that is not UTF-8
        assert main(["generate", "--n-plots", "1", "--corpus", str(corpus),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read corpus file") and "Traceback" not in err


def test_generate_corpus_with_braces_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Diesel {price} | price of {diesel} | countries | 0.1 | 3 | float\n")
    assert main(["generate", "--n-plots", "1", "--seed", "1", "--corpus", str(corpus),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:") and "Traceback" not in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_generate_that_cannot_lay_out_a_plot_leaves_nothing_behind(tmp_path, capsys):
    # under seed 0, plots 0 and 1 draw the ordinary indicator and render; plot
    # 2 draws the one whose unit phrase cannot fit the canvas
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("price of diesel | price of diesel | countries | 0.1 | 3 | float\n"
                      f"a | {'very long unit phrase ' * 8}| countries | 0 | 3 | integer\n")
    argv = ["generate", "--seed", "0", "--corpus", str(corpus), "--out"]
    assert main(argv + [str(tmp_path / "two"), "--n-plots", "2"]) == 0
    assert len(os.listdir(tmp_path / "two" / "plots")) == 2
    kept = tmp_path / "kept"  # a directory that exists before the pass stays
    kept.mkdir()
    for out in (tmp_path / "new" / "ds", kept):
        assert main(argv + [str(out), "--n-plots", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: title bbox") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "kept", "two"]
    assert os.listdir(kept) == []


def test_generate_that_fails_into_an_old_dataset_leaves_no_manifest(tmp_path, capsys):
    # the old manifest goes before any plot file is written, so a failed
    # pass leaves a directory that run refuses, naming the manifest
    out = tmp_path / "ds"
    assert main(["generate", "--n-plots", "3", "--seed", "0", "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_bytes()
    corpus = tmp_path / "corpus.txt"
    # a corpus that cannot be read leaves the old dataset as it was
    assert main(["generate", "--corpus", str(corpus), "--n-plots", "5", "--out", str(out)]) == 2
    assert (out / "manifest.json").read_bytes() == manifest
    corpus.write_text("price of diesel | price of diesel | countries | 0.1 | 3 | float\n"
                      f"a | {'very long unit phrase ' * 8}| countries | 0 | 3 | integer\n")
    capsys.readouterr()
    assert main(["generate", "--seed", "0", "--corpus", str(corpus), "--n-plots", "5", "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()
    assert main(["run", "--dataset", str(out), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and str(out / "manifest.json") in err[1]


def _copy_dataset(dataset, tmp_path):
    import shutil
    dst = tmp_path / "ds"
    shutil.copytree(dataset, dst)
    return dst


def test_run_malformed_question_line_is_data_error(dataset, tmp_path, capsys):
    ds = _copy_dataset(dataset, tmp_path)
    with open(ds / "questions.jsonl", "a") as f:
        f.write('{"plot_id": 0, "text": \n')
    assert main(["run", "--dataset", str(ds), "--out", str(tmp_path / "o")]) == 2
    assert "malformed question" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # the last line is checked before any output


@pytest.mark.parametrize("relabel", [
    lambda r: {**r, "template_id": 999},
    lambda r: {**r, "category": next(c for c in CATEGORIES if c != r["category"])},
    lambda r: {**r, "answer_type": next(a for a in ANSWER_TYPES if a != r["answer_type"])},
], ids=["unknown-template-id", "other-category", "other-answer-type"])
def test_run_question_line_that_is_not_its_templates_is_data_error(dataset, tmp_path, capsys, relabel):
    # a question's category and answer type are its template's, so a line
    # that states others would fill a grid cell its template is not in
    ds = _copy_dataset(dataset, tmp_path)
    path = ds / "questions.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = json.dumps(relabel(json.loads(lines[2]))) + "\n"
    path.write_text("".join(lines))
    assert main(["run", "--dataset", str(ds), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed question at {path}:3:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()  # every line is checked before any output


def test_run_refuses_a_question_whose_text_is_not_its_templates_fill(dataset, tmp_path, capsys):
    # a line keeps a real template's id and bindings but carries a foreign
    # text: one starts with no template's literal prefix, the other with a
    # real one ("What is the ") but matches no template. A question's text is
    # its template's fill, so either line is a data error before any output
    from plotquest.templates import default_matcher, default_templates
    out_of_grammar = ["Why is the sky blue?", "What is the airspeed of an unladen swallow?"]
    prefixes = [t.literal_prefix for t in default_templates()]
    assert [any(t.startswith(p) for p in prefixes) for t in out_of_grammar] == [False, True]
    assert all(default_matcher().match(t) is None for t in out_of_grammar)
    ds = _copy_dataset(dataset, tmp_path)
    path = ds / "questions.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    pid = json.loads((ds / "manifest.json").read_text())["splits"]["train"][0]
    record = next(r for r in records if r["plot_id"] == pid)
    with open(path, "a") as f:
        for t in out_of_grammar:
            f.write(json.dumps({**record, "text": t}) + "\n")
    out = tmp_path / "o"
    assert main(["run", "--noise", "paper_like", "--run-split", "train", "--dataset", str(ds),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed question at {path}:{len(records) + 1}:") and err.count("\n") == 1
    assert not out.exists()


def test_run_malformed_annotation_is_data_error(dataset, tmp_path, capsys):
    ds = _copy_dataset(dataset, tmp_path)
    with open(ds / "manifest.json") as f:
        pid = json.load(f)["splits"]["test"][0]
    (ds / "annotations" / f"{pid:04d}.json").write_text("not json")
    assert main(["run", "--dataset", str(ds), "--out", str(tmp_path / "o")]) == 2
    assert "malformed annotation" in capsys.readouterr().err


def test_run_malformed_manifest_is_data_error(dataset, tmp_path):
    ds = _copy_dataset(dataset, tmp_path)
    (ds / "manifest.json").write_text("[1, 2")
    assert main(["run", "--dataset", str(ds), "--out", str(tmp_path / "o")]) == 2


def _set_test_split(ds, members):
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["splits"]["test"] = members
    (ds / "manifest.json").write_text(json.dumps(manifest))


def _manifest_dir(ds):
    (ds / "manifest.json").unlink()
    (ds / "manifest.json").mkdir()


def _edit_annotations(edit):
    def damage(ds):
        for path in (ds / "annotations").iterdir():
            ann = json.loads(path.read_text())
            edit(ann)
            path.write_text(json.dumps(ann))
    return damage


def _set_question(field, value):
    def damage(ds):
        records = [json.loads(line) for line in (ds / "questions.jsonl").read_text().splitlines()]
        (ds / "questions.jsonl").write_text("".join(json.dumps({**r, field: value}) + "\n" for r in records))
    return damage


def _drop_test_split(ds):
    manifest = json.loads((ds / "manifest.json").read_text())
    del manifest["splits"]["test"]
    (ds / "manifest.json").write_text(json.dumps(manifest))


def _noise_file(model):
    def damage(ds):
        (ds / "noise.json").write_text(json.dumps(model))
    return damage


def _annotation_not_utf8(ds):
    pid = json.loads((ds / "manifest.json").read_text())["splits"]["test"][0]
    (ds / "annotations" / f"{pid:04d}.json").write_bytes(b'{"elements": "\xff"}')


@pytest.mark.parametrize("argv,damage", [
    (["extract", "--input", "{ds}"], None),
    (["evaluate", "--predictions", "{ds}"], None),
    (["report", "--report", "{ds}"], None),
    (["run", "--dataset", "{ds}"], _manifest_dir),
    (["run", "--dataset", "{ds}"], _annotation_not_utf8),
    (["run", "--dataset", "{ds}"], lambda ds: _set_test_split(ds, 3)),
    (["run", "--dataset", "{ds}"], lambda ds: _set_test_split(ds, [[0, 1]])),
    (["run", "--dataset", "{ds}"], _drop_test_split),
    (["run", "--dataset", "{ds}"], _edit_annotations(lambda ann: ann["style"].update(legend_position=5))),
    (["run", "--dataset", "{ds}"], _edit_annotations(lambda ann: ann["style"].update(grid="no"))),
    (["run", "--dataset", "{ds}"], _edit_annotations(lambda ann: ann["style"].update(font_size="big"))),
    (["run", "--dataset", "{ds}"], _edit_annotations(lambda ann: ann["style"].update(canvas="ab"))),
    (["run", "--dataset", "{ds}"], _edit_annotations(lambda ann: ann.update(plot_type="pie"))),
    (["extract", "--input", "{ds}/annotations/0000.json"],
     _edit_annotations(lambda ann: ann["style"].update(font_size="big"))),
    (["extract", "--input", "{ds}/annotations/0000.json"],
     _edit_annotations(lambda ann: ann["style"].update(canvas="ab"))),
    (["extract", "--input", "{ds}/annotations/0000.json"], _edit_annotations(lambda ann: ann.update(plot_type="pie"))),
    (["extract", "--input", "{ds}/annotations/0000.json"],
     _edit_annotations(lambda ann: ann["style"].update(legend_position=5))),
    (["run", "--dataset", "{ds}"], _edit_annotations(lambda ann: ann["elements"][0].update({"class": []}))),
    (["run", "--dataset", "{ds}"], _set_question("text", 5)),
    (["run", "--dataset", "{ds}"], _set_question("category", "visual")),
    (["run", "--dataset", "{ds}"], _set_question("plot_id", float("inf"))),
    (["run", "--dataset", "{ds}", "--noise", "{ds}/noise.json"], _noise_file({"drop_prob": 10**400})),
    (["extract", "--input", "{ds}/annotations/0000.json"],
     _edit_annotations(lambda ann: ann["elements"][0].update(bbox=[10**400, 0, 1, 1]))),
    (["run", "--dataset", "{ds}"], _set_question("gold_answer", {"kind": "number", "value": 10**400})),
    # finite numbers whose jittered box edges overflow inside perturb
    (["run", "--dataset", "{ds}", "--noise", "paper_like"],
     _edit_annotations(lambda ann: ann["elements"][0].update(bbox=[1e308, 0, 1e308, 1]))),
    (["run", "--dataset", "{ds}", "--noise", "{ds}/noise.json"], _noise_file({"box_jitter_sigma": 1e308})),
], ids=["extract-dir", "evaluate-dir", "report-dir", "manifest-dir", "annotation-not-utf8",
        "split-int", "split-of-lists", "split-missing", "int-legend-position", "str-grid",
        "str-font-size", "str-canvas", "pie-plot-type", "extract-str-font-size", "extract-str-canvas",
        "extract-pie-plot-type", "extract-int-legend-position",
        "list-element-class", "int-question-text", "unknown-question-category", "infinite-plot-id",
        "huge-int-noise", "extract-huge-int-bbox", "huge-int-gold-value", "overflowing-jittered-bbox",
        "overflowing-sigma-noise"])
def test_damaged_input_is_one_line_data_error(dataset, tmp_path, capsys, argv, damage):
    ds = _copy_dataset(dataset, tmp_path)
    if damage:
        damage(ds)
    argv = [arg.format(ds=ds) for arg in argv]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # predictions stream, so a pass that fails midway may leave some; a
    # report comes only from a complete pass
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("model", [
    {"box_jiter_sigma": 2.0},
    {"box_jitter_sigma": -1.0},
    {"class_sigma": {"bar": -0.5}},
    {"drop_prob": 1.5},
    {"ocr_truncate_prob": -0.1},
    {"misclass_prob": "high"},
    [0.1],
], ids=["unknown-key", "negative-sigma", "negative-class-sigma", "prob-above-1",
        "prob-below-0", "non-numeric", "not-an-object"])
def test_run_bad_noise_model_is_data_error(dataset, tmp_path, model):
    noise_file = tmp_path / "noise.json"
    noise_file.write_text(json.dumps(model))
    assert main(["run", "--dataset", dataset, "--noise", str(noise_file),
                 "--out", str(tmp_path / "o")]) == 2


def test_run_reads_each_plot_once_and_parses_each_question_once(dataset, tmp_path, monkeypatch):
    from plotquest import cli, harness
    from plotquest.templates import TemplateMatcher
    calls = {"extract_table": 0, "match": 0, "score_answer": 0}
    extract_table, match, score_answer = cli.extract_table, TemplateMatcher.match, harness.score_answer

    def counting_extract(*args, **kwargs):
        calls["extract_table"] += 1
        return extract_table(*args, **kwargs)

    def counting_match(self, *args, **kwargs):
        calls["match"] += 1
        return match(self, *args, **kwargs)

    def counting_score(*args, **kwargs):
        calls["score_answer"] += 1
        return score_answer(*args, **kwargs)

    monkeypatch.setattr(cli, "extract_table", counting_extract)
    monkeypatch.setattr(TemplateMatcher, "match", counting_match)
    for module in (cli, harness):  # one count, whichever module scores
        monkeypatch.setattr(module, "score_answer", counting_score)
    out = tmp_path / "run"
    assert main(["run", "--dataset", dataset, "--noise", "paper_like", "--run-split", "train",
                 "--out", str(out)]) == 0
    records = [json.loads(line) for line in open(out / "predictions.jsonl")]
    assert calls["extract_table"] == len({r["plot_id"] for r in records})
    assert calls["match"] == len(records)
    assert calls["score_answer"] == len(records)


@pytest.mark.parametrize("argv,entry,kind", [
    (["generate", "--n-plots", "2"], "", "file"),
    (["run", "--dataset", "{ds}"], "", "file"),
    (["extract", "--input", "{ds}/annotations/0000.json"], "", "dir"),
    (["evaluate", "--predictions", "{predictions}"], "", "dir"),
    (["generate", "--n-plots", "2"], "plots", "file"),
    (["generate", "--n-plots", "2"], "manifest.json", "dir"),
    (["run", "--dataset", "{ds}"], "predictions.jsonl", "dir"),
    (["run", "--dataset", "{ds}"], "report.json", "dir"),
    (["run", "--dataset", "{ds}"], "report.txt", "dir"),
], ids=["generate-out-file", "run-out-file", "extract-out-dir", "evaluate-out-dir",
        "generate-plots-file", "generate-manifest-dir", "run-predictions-dir", "run-report-json-dir",
        "run-report-txt-dir"])
def test_unusable_out_path_is_one_line_usage_error(dataset, tmp_path, capsys, argv, entry, kind):
    # ``entry`` is the --out path itself ("") or an entry of the wrong kind inside it
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps(GOOD_PREDICTION) + "\n")
    out = tmp_path / "out"
    target = out / entry
    target.parent.mkdir(exist_ok=True)
    if kind == "file":
        target.write_text("kept")
    else:
        target.mkdir()
    argv = [arg.format(ds=dataset, predictions=predictions) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert target.read_text() == "kept" if kind == "file" else not os.listdir(target)
