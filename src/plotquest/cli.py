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

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .answers import Answer, AnswerUnavailable, UnparseableQuestion
from .corpus import CorpusError, default_corpus, load_corpus, sample_plot_data
from .detsim import APPool, DetectionSet, NoiseModel, get_preset, perturb_with_provenance
from .harness import EvalReport, SplitSpec, evaluate, score_answer, split
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


def stable_seed(master: int, *parts) -> int:
    """FNV-style stable derivation of per-plot seeds from the master seed."""
    h = 2166136261
    for b in f"{master}|" + "|".join(str(p) for p in parts):
        h ^= ord(b)
        h = (h * 16777619) & 0xFFFFFFFF
    return h


@dataclass(frozen=True)
class RunConfig:
    corpus: str | None
    n_plots: int
    seed: int
    split_ratios: tuple[float, float, float]
    out_dir: str
    questions_per_plot: int = DEFAULT_QUESTIONS_PER_PLOT

    def validate(self) -> None:
        if self.n_plots < 1:
            raise UsageError("--n-plots must be >= 1")
        if self.questions_per_plot < 1:
            raise UsageError("--questions-per-plot must be >= 1")


def _load_noise(spec: str) -> NoiseModel:
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as f:
                return NoiseModel.from_json(json.load(f))
        except (OSError, ValueError, KeyError) as e:
            raise DataError(f"bad noise model file {spec}: {e}")
    try:
        return get_preset(spec)
    except KeyError as e:
        raise UsageError(str(e))


def _read_json(path: str, what: str):
    """Parse a JSON file; a missing or unreadable file, or malformed
    content, is a data error."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:  # missing file, a directory, no permission
        raise DataError(f"cannot read {what} {path}: {e}")
    except ValueError as e:  # JSONDecodeError, and undecodable bytes
        raise DataError(f"malformed {what} {path}: {e}")


def _read_jsonl(path: str, what: str, decode) -> list:
    """``decode`` each non-blank line's JSON object; a line that does not
    parse or decode is a data error naming the path and line number."""
    out = []
    try:
        with open(path, "rb") as f:  # bytes: a bad encoding fails in json.loads, on its line
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(decode(json.loads(line)))
                except (ValueError, KeyError, TypeError, AttributeError) as e:
                    raise DataError(f"malformed {what} at {path}:{lineno}: {e!r}")
    except OSError as e:
        raise DataError(f"cannot read {what} file {path}: {e}")
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:  # an existing file, a file on the path, no permission
        raise UsageError(f"cannot use --out {path} as a directory: {e.strerror}")


def _write_out_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:  # a directory, a missing parent, no permission
        raise UsageError(f"cannot write --out {path}: {e.strerror}")


def _write(path: str, data: bytes, hashes: dict[str, str], root: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(data)
    hashes[os.path.relpath(path, root)] = _sha256(data)


# ---------------------------------------------------------------------------
# generate

def cmd_generate(config: RunConfig) -> int:
    config.validate()
    corpus = load_corpus(config.corpus) if config.corpus else default_corpus()
    if not corpus:
        raise DataError("corpus is empty")
    out = config.out_dir
    _make_out_dir(out)

    hashes: dict[str, str] = {}
    question_lines: list[str] = []
    n_questions = 0
    for i in range(config.n_plots):
        data = sample_plot_data(corpus, stable_seed(config.seed, "data", i))
        spec = make_plot_spec(data, stable_seed(config.seed, "style", i))
        svg, annotation = render(spec)
        _write(os.path.join(out, "plots", f"{i:04d}.svg"), svg, hashes, out)
        _write(os.path.join(out, "annotations", f"{i:04d}.json"),
               annotation.dumps().encode(), hashes, out)
        _write(os.path.join(out, "tables", f"{i:04d}.csv"),
               annotation.gold_table.to_csv().encode(), hashes, out)
        questions = instantiate(
            data, spec, stable_seed(config.seed, "questions", i),
            n_questions=config.questions_per_plot,
        )
        for q in questions:
            rec = q.to_json()
            rec["plot_id"] = i
            question_lines.append(json.dumps(rec))
        n_questions += len(questions)

    _write(os.path.join(out, "questions.jsonl"),
           ("\n".join(question_lines) + "\n").encode(), hashes, out)

    ids = list(range(config.n_plots))
    train, valid, test = split(ids, SplitSpec(config.split_ratios, seed=config.seed))
    manifest = {
        "version": __version__,
        "config": {
            "corpus": config.corpus,
            "n_plots": config.n_plots,
            "seed": config.seed,
            "split": list(config.split_ratios),
            "questions_per_plot": config.questions_per_plot,
        },
        "splits": {"train": train, "valid": valid, "test": test},
        "n_questions": n_questions,
        "files": dict(sorted(hashes.items())),
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    print(f"wrote {config.n_plots} plots, {n_questions} questions to {out}")
    return 0


# ---------------------------------------------------------------------------
# run

def _load_dataset(dataset_dir: str) -> tuple[dict, list[tuple[QuestionInstance, int]]]:
    manifest_path = os.path.join(dataset_dir, "manifest.json")
    manifest = _read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("splits"), dict):
        raise DataError(f"manifest {manifest_path} has no split assignment")
    questions_path = os.path.join(dataset_dir, "questions.jsonl")
    questions = _read_jsonl(questions_path, "question",
                            lambda obj: (QuestionInstance.from_json(obj), int(obj["plot_id"])))
    return manifest, questions


def _load_annotation(dataset_dir: str, plot_id: int) -> PlotAnnotation:
    path = os.path.join(dataset_dir, "annotations", f"{plot_id:04d}.json")
    try:
        with open(path, encoding="utf-8") as f:
            return PlotAnnotation.loads(f.read())
    except OSError as e:  # missing file, a directory, no permission
        raise DataError(f"cannot read annotation {path}: {e}")
    except (ValueError, KeyError, TypeError) as e:  # undecodable bytes too
        raise DataError(f"malformed annotation {path}: {e!r}")


def cmd_run(dataset_dir: str, noise_spec: str, out_dir: str, run_split: str = "test") -> int:
    manifest, questions = _load_dataset(dataset_dir)
    if run_split not in manifest["splits"]:
        raise UsageError(f"unknown split {run_split!r}")
    members = manifest["splits"][run_split]
    if not isinstance(members, list) or not all(type(pid) is int for pid in members):
        raise DataError(f"manifest split {run_split!r} is not a list of plot ids")
    wanted = set(members)
    noise = _load_noise(noise_spec)
    _make_out_dir(out_dir)

    by_plot: dict[int, list[QuestionInstance]] = {}
    for q, pid in questions:
        if pid in wanted:
            by_plot.setdefault(pid, []).append(q)
    if not by_plot:
        raise DataError(f"no questions in split {run_split!r}")

    # Per plot: perturb, add the detections to the AP pool, read once, score
    # the table, answer the plot's questions from that one reading, then let
    # the plot go: the pool keeps only its match records.
    plot_ids = sorted(by_plot)
    ap_pool = APPool(MAP_THRESHOLDS)
    f1s = []
    ocr_pairs_pred, ocr_pairs_gold = [], []
    predictions = []
    answers = {}
    for pid in plot_ids:
        annotation = _load_annotation(dataset_dir, pid)
        det, provenance = perturb_with_provenance(
            annotation, noise.with_seed(stable_seed(noise.seed, "plot", pid)))
        ap_pool.add(det, annotation)
        reading = read(det)
        f1s.append(table_f1(extract_table(reading), annotation.gold_table, TABLE_F1_REL_TOL)[2])
        for gold_el, d in provenance:
            if gold_el.text is None or d is None:
                continue
            ocr_pairs_gold.append((gold_el.cls, gold_el.text))
            ocr_pairs_pred.append((gold_el.cls, d.text or ""))
        for q in by_plot[pid]:
            try:
                pred = answer_hybrid(q.text, reading)
                pred_json = pred.to_json()
            except (AnswerUnavailable, UnparseableQuestion) as e:
                pred, pred_json = None, {"error": type(e).__name__}
            answers[id(q)] = pred
            rec = q.to_json()
            rec["plot_id"] = pid
            rec["prediction"] = pred_json
            rec["correct"] = score_answer(pred, q.gold_answer)
            predictions.append(rec)
        del reading

    map_scores = {str(thr): m for thr, (_, m) in zip(MAP_THRESHOLDS, ap_pool.result())}

    from .detsim import ocr_accuracy as _ocr_acc
    ocr_total = _ocr_acc(ocr_pairs_pred, ocr_pairs_gold)["total"] if ocr_pairs_gold else None

    with open(os.path.join(out_dir, "predictions.jsonl"), "w", encoding="utf-8") as f:
        for rec in predictions:
            f.write(json.dumps(rec) + "\n")

    report = evaluate(
        [q for pid in plot_ids for q in by_plot[pid]],
        lambda q: answers[id(q)],
        map_scores=map_scores,
        ocr_accuracy=ocr_total,
        mean_table_f1=sum(f1s) / len(f1s),
    )
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
        f.write(report.dumps())
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(report.render_text())
    print(report.render_text())
    return 0


# ---------------------------------------------------------------------------
# extract / evaluate / report

def cmd_extract(input_path: str, out_path: str | None) -> int:
    obj = _read_json(input_path, "input")
    if not isinstance(obj, dict) or not ("elements" in obj or "detections" in obj):
        raise DataError("input is neither an annotation nor a detection set")
    try:
        source = PlotAnnotation.from_json(obj) if "elements" in obj else DetectionSet.from_json(obj)
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"malformed input {input_path}: {e!r}")
    reading = read(source)
    if not reading.detections.detections:
        print("warning: empty detection set", file=sys.stderr)
    csv_text = extract_table(reading).to_csv()
    if out_path:
        _write_out_file(out_path, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _prediction_record(obj: dict) -> tuple[QuestionInstance, Answer | None]:
    p = obj.get("prediction")
    return QuestionInstance.from_json(obj), (Answer.from_json(p) if p and "kind" in p else None)


def cmd_evaluate(predictions_path: str, out_path: str | None) -> int:
    records = _read_jsonl(predictions_path, "prediction", _prediction_record)
    if not records:
        raise DataError("empty predictions file")
    lookup = {id(q): p for q, p in records}
    report = evaluate([q for q, _ in records], lambda q: lookup[id(q)])
    text_out = report.render_text()
    if out_path:
        _write_out_file(out_path, report.dumps())
    print(text_out)
    return 0


def cmd_report(report_path: str) -> int:
    obj = _read_json(report_path, "report")
    try:
        text_out = EvalReport.from_json(obj).render_text()
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise DataError(f"malformed report {report_path}: {e!r}")
    print(text_out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _split_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--split needs 3 comma-separated ratios, got {text!r}")
    try:
        ratios = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--split ratios are not numbers: {text!r}")
    try:
        SplitSpec(ratios)
    except ValueError as e:
        raise UsageError(str(e))
    return ratios


def build_parser() -> _Parser:
    p = _Parser(prog="plotquest", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a dataset")
    g.add_argument("--corpus", default=None, help="indicator corpus file (default: bundled)")
    g.add_argument("--n-plots", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--split", type=_split_ratios, default=(0.70, 0.15, 0.15))
    g.add_argument("--questions-per-plot", type=int, default=DEFAULT_QUESTIONS_PER_PLOT)
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
            config = RunConfig(
                corpus=args.corpus,
                n_plots=args.n_plots,
                seed=args.seed,
                split_ratios=args.split,
                out_dir=args.out,
                questions_per_plot=args.questions_per_plot,
            )
            return cmd_generate(config)
        if args.command == "run":
            return cmd_run(args.dataset, args.noise, args.out, args.run_split)
        if args.command == "extract":
            return cmd_extract(args.input, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(args.predictions, args.out)
        if args.command == "report":
            return cmd_report(args.report)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, CorpusError, LayoutError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
