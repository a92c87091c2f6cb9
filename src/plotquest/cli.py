"""Command-line orchestration: generate datasets, run the noisy pipeline,
extract single tables, re-score predictions, pretty-print reports.

Every command is reproducible from (config, seed): per-plot randomness is
derived from the top-level seed and the plot index, so plot order never
matters and a rerun with the same config writes byte-identical outputs.

Dataset layout under --out:
    plots/NNNN.svg         rendered plots
    annotations/NNNN.json  ground-truth element annotations
    tables/NNNN.csv        gold tables
    questions.jsonl        one question instance per line (with plot_id)
    manifest.json          config echo, split assignment, file hashes

Exit codes: 0 success, 1 usage error, 2 data error. Two rules hold at the
file boundary of every command, each with one line on stderr: an input file
that cannot be read or decoded exits 2 naming the file (``_read``), and an
output path that cannot be written exits 1 naming the path (``_write``).

Per plot, ``generate`` appends its question lines to questions.jsonl and
``run`` its predictions to predictions.jsonl, each answer scored once into a
``harness.Tally``. ``run`` checks every question line before any output and
accepts them in any order, so it keeps the run split's questions by plot:
memory linear in the run split. A ``run`` that exits 2 mid-pass may leave a
partial predictions.jsonl, but never a report. Every scorer takes its items
paired: ``run`` feeds the AP pool (detections, annotation) per plot and
``detsim.ocr_accuracy`` one (class, predicted, gold) triple per detected
gold text, and ``evaluate`` hands ``harness.evaluate`` each (question,
stored prediction) record as it was read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__, detsim
from .answers import Answer, AnswerUnavailable, UnparseableQuestion
from .corpus import CorpusError, default_corpus, load_corpus, sample_plot_data
from .detsim import APPool, DetectionSet, NoiseModel, get_preset, perturb_with_provenance
from .harness import EvalReport, SplitSpec, Tally, evaluate, score_answer, split
from .hybrid import answer_hybrid
from .plotgen import LayoutError, PlotAnnotation, make_plot_spec, render
from .qgen import DEFAULT_QUESTIONS_PER_PLOT, QuestionInstance, instantiate
from .sie import extract_table, read, table_f1

TABLE_F1_REL_TOL = 0.02
MAP_THRESHOLDS = (0.5, 0.75, 0.9)


class UsageError(ValueError):
    pass


class DataError(ValueError):
    pass


# What a decoder raises on content it cannot decode; UnicodeDecodeError and
# json.JSONDecodeError are ValueErrors, and an integer too large for a float
# (JSON integers have no bound) raises OverflowError when it is converted.
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, OverflowError)


def stable_seed(master: int, *parts) -> int:
    """FNV-style stable derivation of per-plot seeds from the master seed."""
    h = 2166136261
    for b in f"{master}|" + "|".join(str(p) for p in parts):
        h ^= ord(b)
        h = (h * 16777619) & 0xFFFFFFFF
    return h


def _read(path: str, what: str, decode):
    """Open ``path`` once and return ``decode`` of the binary file. A file
    that cannot be opened or read, or that does not decode, is a data error
    naming ``what`` and the path; a DataError from ``decode`` passes through."""
    try:
        with open(path, "rb") as f:
            return decode(f)
    except DataError:
        raise
    except OSError as e:  # missing file, a directory, no permission
        raise DataError(f"cannot read {what} {path}: {e}")
    except _DECODE_ERRORS as e:
        raise DataError(f"malformed {what} {path}: {e!r}")


def _read_jsonl(path: str, what: str, decode) -> list:
    """``decode`` each non-blank line's JSON object, one line at a time, and
    keep what is not None; a line that does not parse or decode is a data
    error naming the path and line number."""
    def lines(f) -> list:
        out = []
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = decode(json.loads(line))
            except _DECODE_ERRORS as e:
                raise DataError(f"malformed {what} at {path}:{lineno}: {e!r}")
            if record is not None:
                out.append(record)
        return out

    return _read(path, f"{what} file", lines)


def _write(path: str, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path`` one by one; a path that
    cannot be written is a usage error."""
    try:
        with open(path, "wb") as f:
            f.writelines(chunks)
    except OSError as e:  # a directory, a missing parent, no permission
        raise UsageError(f"cannot write --out {path}: {e.strerror}")


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:  # an existing file, a file on the path, no permission
        raise UsageError(f"cannot use --out {path} as a directory: {e.strerror}")


def _load_noise(spec: str) -> NoiseModel:
    if os.path.exists(spec):
        return _read(spec, "noise model", lambda f: NoiseModel.from_json(json.load(f)))
    try:
        return get_preset(spec)
    except KeyError as e:
        raise UsageError(str(e))


# ---------------------------------------------------------------------------
# generate

def cmd_generate(corpus_path: str | None, n_plots: int, seed: int,
                 split_ratios: tuple[float, float, float], questions_per_plot: int, out: str) -> int:
    try:
        split_spec = SplitSpec(split_ratios, seed=seed)
    except ValueError as e:  # a seed the split cannot use; checked before any output
        raise UsageError(str(e))
    corpus = load_corpus(corpus_path) if corpus_path else default_corpus()
    if not corpus:
        raise DataError("corpus is empty")
    for sub in ("plots", "annotations", "tables"):
        _make_out_dir(os.path.join(out, sub))

    hashes: dict[str, str] = {}

    def put(name: str, data: bytes) -> None:
        hashes[name] = hashlib.sha256(data).hexdigest()
        _write(os.path.join(out, name), [data])

    questions_hash = hashlib.sha256()
    n_questions = 0

    def question_lines():
        nonlocal n_questions
        for i in range(n_plots):
            data = sample_plot_data(corpus, stable_seed(seed, "data", i))
            spec = make_plot_spec(data, stable_seed(seed, "style", i))
            svg, annotation = render(spec)
            put(f"plots/{i:04d}.svg", svg)
            put(f"annotations/{i:04d}.json", annotation.dumps().encode())
            put(f"tables/{i:04d}.csv", annotation.gold_table.to_csv().encode())
            questions = instantiate(spec, stable_seed(seed, "questions", i), n_questions=questions_per_plot)
            for q in questions:
                line = f"{json.dumps({**q.to_json(), 'plot_id': i})}\n".encode()
                questions_hash.update(line)
                yield line
            n_questions += len(questions)

    _write(os.path.join(out, "questions.jsonl"), question_lines())
    hashes["questions.jsonl"] = questions_hash.hexdigest()

    ids = list(range(n_plots))
    train, valid, test = split(ids, split_spec)
    manifest = {
        "version": __version__,
        "config": {
            "corpus": corpus_path,
            "n_plots": n_plots,
            "seed": seed,
            "split": list(split_ratios),
            "questions_per_plot": questions_per_plot,
        },
        "splits": {"train": train, "valid": valid, "test": test},
        "n_questions": n_questions,
        "files": hashes,  # sort_keys orders it
    }
    encoder = json.JSONEncoder(indent=1, sort_keys=True)  # json.dumps's bytes, written as encoded
    _write(os.path.join(out, "manifest.json"), (chunk.encode() for chunk in encoder.iterencode(manifest)))
    print(f"wrote {n_plots} plots, {n_questions} questions to {out}")
    return 0


# ---------------------------------------------------------------------------
# run

def _load_dataset(dataset_dir: str, run_split: str) -> dict[int, list[QuestionInstance]]:
    """The questions of ``run_split``'s plots, grouped by plot id in file
    order. Every question line is decoded and checked, in the split or not;
    only the split's questions are kept."""
    manifest_path = os.path.join(dataset_dir, "manifest.json")
    manifest = _read(manifest_path, "manifest", json.load)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("splits"), dict):
        raise DataError(f"manifest {manifest_path} has no split assignment")
    if run_split not in manifest["splits"]:
        raise DataError(f"manifest {manifest_path} has no split {run_split!r}")
    members = manifest["splits"][run_split]
    if not isinstance(members, list) or not all(type(pid) is int for pid in members):
        raise DataError(f"manifest split {run_split!r} is not a list of plot ids")
    wanted = set(members)

    def run_question(obj: dict) -> tuple[int, QuestionInstance] | None:
        pid = obj["plot_id"]
        if type(pid) is not int:
            raise ValueError(f"plot_id {pid!r} is not an integer")
        q = QuestionInstance.from_json(obj)
        return (pid, q) if pid in wanted else None

    by_plot: dict[int, list[QuestionInstance]] = {}
    for pid, q in _read_jsonl(os.path.join(dataset_dir, "questions.jsonl"), "question", run_question):
        by_plot.setdefault(pid, []).append(q)
    return by_plot


def cmd_run(dataset_dir: str, noise_spec: str, out_dir: str, run_split: str = "test") -> int:
    by_plot = _load_dataset(dataset_dir, run_split)
    noise = _load_noise(noise_spec)
    _make_out_dir(out_dir)
    if not by_plot:
        raise DataError(f"no questions in split {run_split!r}")

    ap_pool = APPool(MAP_THRESHOLDS)
    f1s = []
    ocr_texts = []  # (class, predicted, gold) of each gold text whose element was detected
    tally = Tally()

    # Per plot: perturb, add the detections to the AP pool, read once, score
    # the table, answer and score its questions from that one reading, yield
    # their lines, then let the plot go: the pool keeps only its match records.
    def prediction_lines():
        for pid in sorted(by_plot):
            annotation_path = os.path.join(dataset_dir, "annotations", f"{pid:04d}.json")
            annotation = _read(annotation_path, "annotation", lambda f: PlotAnnotation.loads(f.read()))
            try:
                det, provenance = perturb_with_provenance(
                    annotation, noise.with_seed(stable_seed(noise.seed, "plot", pid)))
            except ValueError as e:  # finite box edges or sigmas whose noisy box overflows
                raise DataError(f"cannot perturb annotation {annotation_path} under noise {noise_spec}: {e}")
            ap_pool.add(det, annotation)
            reading = read(det)
            f1s.append(table_f1(extract_table(reading), annotation.gold_table, TABLE_F1_REL_TOL)[2])
            ocr_texts.extend((g.cls, d.text or "", g.text) for g, d in provenance
                             if g.text is not None and d is not None)
            for q in by_plot.pop(pid):
                try:
                    pred = answer_hybrid(q.text, reading)
                    pred_json = pred.to_json()
                except (AnswerUnavailable, UnparseableQuestion) as e:
                    pred, pred_json = None, {"error": type(e).__name__}
                ok = score_answer(pred, q.gold_answer)
                tally.add(q, ok)
                rec = {**q.to_json(), "plot_id": pid, "prediction": pred_json, "correct": ok}
                yield f"{json.dumps(rec)}\n".encode()
            del reading

    _write(os.path.join(out_dir, "predictions.jsonl"), prediction_lines())

    map_scores = {str(thr): m for thr, (_, m) in zip(MAP_THRESHOLDS, ap_pool.result())}

    # looked up on the module at call time, so perfbench's wrap of detsim.ocr_accuracy counts it
    ocr_total = detsim.ocr_accuracy(ocr_texts)["total"] if ocr_texts else None

    report = tally.report(map_scores, ocr_total, sum(f1s) / len(f1s))
    text_out = report.render_text()
    _write(os.path.join(out_dir, "report.json"), [report.dumps().encode()])
    _write(os.path.join(out_dir, "report.txt"), [text_out.encode()])
    print(text_out)
    return 0


# ---------------------------------------------------------------------------
# extract / evaluate / report

def _plot_source(f) -> PlotAnnotation | DetectionSet:
    obj = json.load(f)
    if not isinstance(obj, dict) or not ("elements" in obj or "detections" in obj):
        raise ValueError("neither an annotation nor a detection set")
    return PlotAnnotation.from_json(obj) if "elements" in obj else DetectionSet.from_json(obj)


def cmd_extract(input_path: str, out_path: str | None) -> int:
    reading = read(_read(input_path, "input", _plot_source))
    if not reading.detections.detections:
        print("warning: empty detection set", file=sys.stderr)
    csv_text = extract_table(reading).to_csv()
    if out_path:
        _write(out_path, [csv_text.encode()])
    else:
        sys.stdout.write(csv_text)
    return 0


def _prediction_record(obj: dict) -> tuple[QuestionInstance, Answer | None]:
    p = obj.get("prediction")
    return QuestionInstance.from_json(obj), (Answer.from_json(p) if p and "kind" in p else None)


def cmd_evaluate(predictions_path: str, out_path: str | None) -> int:
    records = _read_jsonl(predictions_path, "prediction", _prediction_record)
    if not records:
        raise DataError(f"empty predictions file {predictions_path}")
    report = evaluate(records, lambda _, prediction: prediction)
    text_out = report.render_text()
    if out_path:
        _write(out_path, [report.dumps().encode()])
    print(text_out)
    return 0


def cmd_report(report_path: str) -> int:
    print(_read(report_path, "report", lambda f: EvalReport.from_json(json.load(f)).render_text()))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _at_least_one(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _split_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"needs 3 comma-separated ratios, got {text!r}")
    try:
        ratios = tuple(float(p) for p in parts)
        SplitSpec(ratios)
    except ValueError as e:  # a ratio that is not a number, negative ratios, a sum other than 1
        raise argparse.ArgumentTypeError(str(e))
    return ratios


def build_parser() -> _Parser:
    p = _Parser(prog="plotquest", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a dataset")
    g.add_argument("--corpus", default=None, help="indicator corpus file (default: bundled)")
    g.add_argument("--n-plots", type=_at_least_one, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--split", type=_split_ratios, default=(0.70, 0.15, 0.15))
    g.add_argument("--questions-per-plot", type=_at_least_one, default=DEFAULT_QUESTIONS_PER_PLOT)
    g.add_argument("--out", required=True)

    r = sub.add_parser("run", help="run the noisy pipeline over a dataset split")
    r.add_argument("--dataset", required=True)
    r.add_argument("--noise", default="zero", help="preset name or NoiseModel JSON file")
    r.add_argument("--run-split", default="test", choices=["train", "valid", "test"])
    r.add_argument("--out", required=True)

    e = sub.add_parser("extract", help="extract a table CSV from one annotation/detection file")
    e.add_argument("--input", required=True)
    e.add_argument("--out", default=None)

    v = sub.add_parser("evaluate", help="re-score a predictions file")
    v.add_argument("--predictions", required=True)
    v.add_argument("--out", default=None)

    s = sub.add_parser("report", help="pretty-print a report JSON")
    s.add_argument("--report", required=True)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return cmd_generate(args.corpus, args.n_plots, args.seed, args.split,
                                args.questions_per_plot, args.out)
        if args.command == "run":
            return cmd_run(args.dataset, args.noise, args.out, args.run_split)
        if args.command == "extract":
            return cmd_extract(args.input, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(args.predictions, args.out)
        return cmd_report(args.report)  # argparse admits no other command
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, CorpusError, LayoutError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
