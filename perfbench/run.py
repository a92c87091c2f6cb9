"""plotquest benchmark: end-to-end CLI throughput, quality and a traced
per-layer run, on seeded synthetic datasets.

Run from the root of a plotquest checkout:

    python3 perfbench/run.py --workload run_qa_dense --seed 7 --seconds 25 --trace 0

The benchmark imports plotquest from ``src/`` of that checkout, calls
``plotquest.cli.main`` in-process (one process, one client, serial: a closed
loop) and prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass

from hostspeed import REFERENCE_S, bracketed, reading, to_reference
from layers import PER_LAYER_UNITS, ROOT_SPAN, layer_metrics, opened_bytes, pass_counts, span_lines, wiring
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# BLAS/OpenMP pools start at numpy import, so this precedes every import of
# numpy, here and in the set-up subprocesses that inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SETUP_CODE = ("import plotquest as pq; from plotquest.templates import default_matcher; "
              "pq.default_corpus(); pq.default_templates(); default_matcher()")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # and as many untraced ones, alternating
RUN_SPLIT = "train"
NOISE = "paper_like"


@dataclass(frozen=True)
class Workload:
    name: str
    n_plots: int
    questions_per_plot: int | None  # None: the CLI default
    timed_command: str  # "generate" or "run"
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("generate", 300, None, "generate",
             "dataset generation with CLI defaults; the write side of dataset I/O "
             "and the control for every QA-side change"),
    Workload("run_perception", 1000, 1, "run",
             "one question per plot, so per-plot perception (perturb, AP, extraction) "
             "dominates; the control for per-question caching"),
    Workload("run_qa_dense", 300, 48, "run",
             "48 questions per plot, so the answer stage (route, extract, build_kg, "
             "match) dominates; the control for the AP kernel"),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "plots_per_s": "1/s", "questions_per_s": "1/s", "peak_rss_mb": "MB",
    "qa_accuracy": "fraction", "unanswered_share": "fraction", "map_50": "fraction",
    "map_75": "fraction", "map_90": "fraction", "table_f1": "fraction",
    "ocr_accuracy": "fraction",
}


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, a failed set-up)."""


# ---------------------------------------------------------------------------
# helpers

def _sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_plotquest():
    if not os.path.isfile(os.path.join(SRC, "plotquest", "cli.py")):
        raise BenchError(f"no plotquest sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import plotquest
    from plotquest import cli
    if os.path.dirname(os.path.abspath(plotquest.__file__)) != os.path.join(SRC, "plotquest"):
        raise BenchError(f"imported plotquest from {plotquest.__file__}, not from {SRC}")
    return cli


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall seconds for fresh interpreters that import plotquest and load the
    default corpus, templates and matcher, and the host-speed readings taken
    before the first and after each. One untimed warm-up first."""
    times: list[float] = []
    readings: list[float] = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
        readings.append(reading())
    return times, readings


class Runner:
    """Calls the CLI in-process with its stdout captured."""

    def __init__(self, cli, work: str):
        self.cli = cli
        self.work = work
        self.n = 0

    def fresh_dir(self) -> str:
        self.n += 1
        return os.path.join(self.work, f"out{self.n}")

    def call(self, argv: list[str], tracer=None) -> tuple[int, float]:
        """One CLI call; returns (exit code, wall seconds). An exception is a
        failed call (exit code -1), reported with its traceback."""
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = tracer.root(ROOT_SPAN, self.cli.main, argv) if tracer else self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - start
        return code, seconds


def generate_argv(w: Workload, seed: int, out: str) -> list[str]:
    argv = ["generate", "--n-plots", str(w.n_plots), "--seed", str(seed), "--out", out]
    if w.questions_per_plot is not None:
        argv += ["--questions-per-plot", str(w.questions_per_plot)]
    return argv


def run_argv(dataset: str, noise: str, out: str) -> list[str]:
    return ["run", "--dataset", dataset, "--noise", noise, "--run-split", RUN_SPLIT, "--out", out]


def read_quality(run_dir: str) -> dict[str, float]:
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    with open(os.path.join(run_dir, "predictions.jsonl"), encoding="utf-8") as f:
        preds = [json.loads(line) for line in f if line.strip()]
    unanswered = sum(1 for p in preds if "kind" not in (p.get("prediction") or {}))
    return {
        "qa_accuracy": report["overall_accuracy"],
        "unanswered_share": unanswered / len(preds),
        "map_50": report["map"]["0.5"],
        "map_75": report["map"]["0.75"],
        "map_90": report["map"]["0.9"],
        "table_f1": report["mean_table_f1"],
        "ocr_accuracy": report["ocr_accuracy"],
    }


def count_predictions(run_dir: str) -> int:
    with open(os.path.join(run_dir, "predictions.jsonl"), encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


ZERO_NOISE_EXACT = ("qa_accuracy", "map_50", "map_75", "map_90", "table_f1", "ocr_accuracy")


# ---------------------------------------------------------------------------
# input descriptors

def describe_dataset(dataset: str) -> dict:
    """Counts that say which share of the workload has a given property,
    for the whole dataset and for the split the run workloads time."""
    from plotquest.hybrid import CLASSIFICATION_BRANCH, route
    from plotquest.plotgen import PlotAnnotation
    with open(os.path.join(dataset, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    routes_by_plot: dict[int, list[bool]] = {}
    with open(os.path.join(dataset, "questions.jsonl"), encoding="utf-8") as f:
        for line in f:
            if line.strip():
                obj = json.loads(line)
                routes_by_plot.setdefault(int(obj["plot_id"]), []).append(
                    route(obj["text"]).branch == CLASSIFICATION_BRANCH)
    plots = {}
    for pid in range(manifest["config"]["n_plots"]):
        with open(os.path.join(dataset, "annotations", f"{pid:04d}.json"), encoding="utf-8") as f:
            ann = PlotAnnotation.loads(f.read())
        plots[pid] = (ann.plot_type, len(ann.gold_table.col_headers), len(ann.elements))

    def summary(plot_ids: list[int]) -> dict:
        routes = [r for pid in plot_ids for r in routes_by_plot.get(pid, [])]
        elements = [plots[pid][2] for pid in plot_ids]
        classification = sum(routes) / len(routes) if routes else 0.0
        return {
            "plots": len(plot_ids),
            "questions": len(routes),
            "plot_types": dict(sorted(Counter(plots[pid][0] for pid in plot_ids).items())),
            "series_per_plot": {str(k): v for k, v in sorted(Counter(plots[pid][1] for pid in plot_ids).items())},
            "elements_per_plot": {"min": min(elements), "median": statistics.median(elements),
                                  "mean": round(statistics.fmean(elements), 2), "max": max(elements)},
            "route_classification_share": round(classification, 4),
            "route_pipeline_share": round(1 - classification, 4) if routes else 0.0,
        }

    split = sorted(p for p in manifest["splits"][RUN_SPLIT] if p in routes_by_plot)
    return {
        "dataset_bytes": _dir_bytes(dataset),
        "all_plots": summary(sorted(plots)),
        f"{RUN_SPLIT}_split": summary(split),
    }


# ---------------------------------------------------------------------------
# the measured loop

@dataclass
class PassRecord:
    seconds: float
    ok: bool
    traced: bool


class Bench:
    def __init__(self, w: Workload, seed: int, seconds: float, cli, work: str):
        self.w, self.seed, self.seconds, self.cli = w, seed, seconds, cli
        self.io_bytes = (0, 0)
        self.runner = Runner(cli, work)
        self.dataset = os.path.join(work, "dataset")
        self.notes: list[str] = []
        self.reference: tuple | None = None
        self.quality: dict[str, float] = {}
        self.hashes: dict[str, str] = {}

    # -- inputs and once-per-invocation checks ------------------------------

    def prepare(self) -> None:
        """Write the dataset the run workloads read (untimed, out of process,
        so its memory does not count in peak RSS). For ``generate`` an
        untimed in-process pass writes it and serves as warm-up."""
        argv = generate_argv(self.w, self.seed, self.dataset)
        if self.w.timed_command == "run":
            proc = subprocess.run([sys.executable, "-m", "plotquest.cli", *argv], env=_env(),
                                  cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            code = proc.returncode
        else:
            code, _ = self.runner.call(argv)
        if code != 0:
            raise BenchError(f"dataset generation exited {code}")
        self.hashes["dataset_manifest_sha256"] = _sha256_file(os.path.join(self.dataset, "manifest.json"))
        with open(os.path.join(self.dataset, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        with open(os.path.join(self.dataset, "questions.jsonl"), encoding="utf-8") as f:
            plot_ids = [int(json.loads(line)["plot_id"]) for line in f if line.strip()]
        wanted, test = set(manifest["splits"][RUN_SPLIT]), set(manifest["splits"]["test"])
        self.split_questions = sum(1 for pid in plot_ids if pid in wanted)
        self.split_plot_count = len(wanted.intersection(plot_ids))
        self.zero_questions = sum(1 for pid in plot_ids if pid in test)
        self.generated_questions = manifest["n_questions"]

    def zero_noise_check(self) -> bool:
        """A zero-noise run over the dataset must score exactly 1.0. It runs
        the CLI's default split (test), a sample of the same plots."""
        out = self.runner.fresh_dir()
        code, _ = self.runner.call(["run", "--dataset", self.dataset, "--noise", "zero", "--out", out])
        try:
            ok = code == 0 and count_predictions(out) == self.zero_questions
            quality = read_quality(out) if ok else {}
        except OSError as e:
            ok, quality = False, {}
            self.notes.append(f"zero-noise run wrote no readable output: {e}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        bad = {k: quality[k] for k in ZERO_NOISE_EXACT if quality and quality[k] != 1.0}
        if not ok or bad:
            self.notes.append(f"zero-noise run failed (exit {code}) or is not exact: {bad}")
        return ok and not bad

    def generate_quality(self) -> None:
        """For ``generate``: quality of a paper_like run over the generated
        dataset (untimed), so a change to the generated data shows."""
        out = self.runner.fresh_dir()
        code, _ = self.runner.call(run_argv(self.dataset, NOISE, out))
        if code != 0:
            raise BenchError(f"quality run over the generated dataset exited {code}")
        self.quality = read_quality(out)
        self.hashes["quality_report_sha256"] = _sha256_file(os.path.join(out, "report.json"))
        shutil.rmtree(out, ignore_errors=True)

    # -- one timed pass -----------------------------------------------------

    def timed_pass(self, tracer=None) -> PassRecord:
        """One timed CLI call into a fresh output directory, then its
        checks; the directory is removed afterwards. A full collection
        first, so every pass starts from the same heap."""
        out = self.runner.fresh_dir()
        gc.collect()
        if self.w.timed_command == "generate":
            code, seconds = self.runner.call(generate_argv(self.w, self.seed, out), tracer)
            output_problem = self._generate_problem
        else:
            code, seconds = self.runner.call(run_argv(self.dataset, NOISE, out), tracer)
            output_problem = self._run_problem
        try:
            problem = f"exit code {code}" if code != 0 else output_problem(out)
        except OSError as e:
            problem = f"unreadable output: {e}"
        if problem:
            self.notes.append(f"timed pass failed: {problem}")
        if tracer is not None:
            self.io_bytes = opened_bytes(tracer.opened)  # while the files exist
        shutil.rmtree(out, ignore_errors=True)
        return PassRecord(seconds, problem is None, tracer is not None)

    def _generate_problem(self, out: str) -> str | None:
        """The dataset must be byte-identical to the one prepare() wrote."""
        if _sha256_file(os.path.join(out, "manifest.json")) != self.hashes["dataset_manifest_sha256"]:
            return "manifest.json differs from the reference dataset's"
        return None

    def _run_problem(self, out: str) -> str | None:
        """One prediction per question, and outputs byte-identical to the
        first complete timed pass."""
        n = count_predictions(out)
        if n != self.split_questions:
            return f"{n} predictions for {self.split_questions} questions"
        digests = (_sha256_file(os.path.join(out, "predictions.jsonl")),
                   _sha256_file(os.path.join(out, "report.json")))
        if self.reference is None:
            self.reference = digests
            self.quality = read_quality(out)
            self.hashes["predictions_sha256"], self.hashes["report_sha256"] = digests
        return None if digests == self.reference else "run outputs differ from the first timed pass"

    @property
    def pass_plots(self) -> int:
        return self.w.n_plots if self.w.timed_command == "generate" else self.split_plot_count

    @property
    def pass_questions(self) -> int:
        return self.generated_questions if self.w.timed_command == "generate" else self.split_questions


def more_passes(passes: list[PassRecord], seconds: float, minimum: int) -> bool:
    """Another pass is due until the pass times reach ``seconds``, stopping
    early when the next pass would likely overshoot by more than half."""
    if len(passes) < minimum:
        return True
    return sum(p.seconds for p in passes) + passes[-1].seconds / 2 < seconds


def run_untraced(bench: Bench) -> tuple[list[PassRecord], list[float]]:
    """Timed passes, with a host-speed reading before the first and after
    each."""
    passes: list[PassRecord] = []
    readings = [reading()]
    while more_passes(passes, bench.seconds, MIN_PASSES):
        passes.append(bench.timed_pass())
        readings.append(reading())
    return passes, readings


def throughputs(bench: Bench, passes: list[PassRecord], readings: list[float] | None) -> dict[str, float]:
    """Plots and questions per second: medians over the complete passes,
    each in reference seconds when ``readings`` are given."""
    seconds = [p.seconds for p in passes]
    if readings is not None:
        seconds = bracketed(seconds, readings)
    good = [s for s, p in zip(seconds, passes) if p.ok] or seconds
    return {"plots_per_s": statistics.median(bench.pass_plots / s for s in good),
            "questions_per_s": statistics.median(bench.pass_questions / s for s in good)}


def run_traced(bench: Bench) -> tuple[list[PassRecord], dict, bool, list]:
    """Alternate untraced and traced passes for ``bench.seconds``; return the
    pass records, the per-layer metrics, whether the trace checks held, and
    the spans of the first traced pass. Names are wrapped only around
    traced passes."""
    tracer = Tracer()
    wires = wiring(bench.cli)
    passes, counts, timings, first_spans = [], [], [], []
    ok = True
    while more_passes(passes, bench.seconds, 2 * MIN_TRACED_PASSES) or len(passes) % 2:
        if len(passes) % 2 == 0:
            record = bench.timed_pass()
        else:
            for wire in wires:
                tracer.wrap(*wire)
            tracer.count_opens(bench.cli)
            tracer.reset()
            try:
                record = bench.timed_pass(tracer)
            finally:
                tracer.close()
            c, t, problems = pass_counts(tracer, record.seconds, bench.io_bytes)
            if counts and c != counts[0]:
                problems.append("call counts differ from the first traced pass")
            for problem in problems:
                bench.notes.append(f"traced pass {len(passes) + 1}: {problem}")
                ok = False
            counts.append(c)
            timings.append(t)
            if not first_spans:
                first_spans = tracer.spans
        passes.append(record)
    for label in tracer.missing:
        bench.notes.append(f"wrapped name missing: {label}")
    return passes, layer_metrics(passes, counts[0], timings, len(tracer.missing)), ok, first_spans


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    # On SIGTERM, unwind: subprocess.run kills and waits for its child, and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        cli = _import_plotquest()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import numpy

    # One CPU for the benchmark and every interpreter it starts: a serial
    # loop needs no more, and the host-speed readings are then taken on the
    # CPU the timed samples run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK)
    try:
        bench = Bench(w, args.seed, args.seconds, cli, work)
        setup, setup_readings = measure_setup()
        bench.prepare()
        zero_ok = bench.zero_noise_check()
        if w.timed_command == "generate" and not args.trace:
            bench.generate_quality()
        spans, raw, readings = [], {}, {"setup": setup_readings}
        if args.trace:
            passes, metrics, layer_ok, spans = run_traced(bench)
        else:
            passes, readings["passes"] = run_untraced(bench)
            layer_ok = True
            if not bench.quality:
                raise BenchError("no timed pass wrote complete outputs")
            raw = {"setup_s": statistics.median(setup), **throughputs(bench, passes, None)}
            metrics = {"setup_s": statistics.median(setup) * to_reference(setup_readings),
                       **throughputs(bench, passes, readings["passes"]),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                       **bench.quality}
        descriptors = describe_dataset(bench.dataset)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes)
    failed = attempted if not zero_ok else sum(1 for r in passes if not r.ok)
    correct = failed == 0 and zero_ok and layer_ok
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "pinned_cpu": min(os.sched_getaffinity(0)),
            "commit": _commit(), "threads": {v: os.environ[v] for v in THREAD_VARS},
        },
        "sizes": {"n_plots": w.n_plots, "questions_per_plot": w.questions_per_plot,
                  "pass_plots": bench.pass_plots, "pass_questions": bench.pass_questions},
        "hashes": bench.hashes,
        "descriptors": descriptors,
        "setup_samples_s": setup,
        "host_speed": {"reference_s": REFERENCE_S, "readings_s": readings,
                       "unscaled_metrics": raw},
        "passes": [{"seconds": r.seconds, "ok": r.ok, "traced": r.traced} for r in passes],
        "notes": bench.notes,
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if spans:
        with open(path[:-len(".json")] + "-spans.jsonl", "w", encoding="utf-8") as f:
            f.writelines(json.dumps(line) + "\n" for line in span_lines(spans))

    print(f"workload {w.name} seed {args.seed}: {attempted} passes, {failed} failed; record in {path}")
    for note in bench.notes:
        print(f"note: {note}")
    print("environment: " + json.dumps(record["environment"]))
    print("hashes: " + json.dumps(bench.hashes))
    print("descriptors: " + json.dumps(descriptors))
    ok_passes = sum(r.ok for r in passes) or attempted
    if args.trace:
        traced = sum(r.traced for r in passes)
        print(f"samples: *.self_ms and trace.*_ms are medians over {traced} traced / "
              f"{attempted - traced} untraced passes; p50/p99 over all traced answers; "
              f"counts and ratios from one traced pass (identical in every traced pass)")
    else:
        print(f"samples: setup_s is the median of {len(setup)} interpreters; plots_per_s and "
              f"questions_per_s are medians of {ok_passes} passes; peak_rss_mb is the process "
              f"peak; quality metrics are identical in every pass")
        print(f"host speed: times are in reference seconds; mean reading "
              f"{statistics.fmean(readings['passes']):.4f} s over the passes, "
              f"{statistics.fmean(setup_readings):.4f} s over set-up, against {REFERENCE_S} s; "
              f"unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for k, v in result["metrics"].items():
        print(f"  {k:42s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


def _commit() -> str:
    """The checked-out commit, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
