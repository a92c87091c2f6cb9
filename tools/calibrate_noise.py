"""Measure a noise model: pooled mAP at {0.5, 0.75, 0.9} and mean per-plot
table F1 over generated plots.

Run as a script, it measures the current detsim.PAPER_LIKE preset.
``measure(noise)`` scores any candidate model; the grid search over
candidates that picked the PAPER_LIKE constants is not kept here.

Each measurement goes through the command line: ``plotquest generate`` makes
a one-question-per-plot dataset whose plots are all in the train split, and
``plotquest run --run-split train`` perturbs, scores and reports them, so the
scores come from the very per-plot noise stream that ``run`` draws.

Run: python3 tools/calibrate_noise.py [n_plots]
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import time

from plotquest.cli import main
from plotquest.detsim import NoiseModel


def _plotquest(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code:
        raise SystemExit(f"plotquest {argv[0]} exited {code}")


def measure(noise: NoiseModel, n_plots: int = 200, seed0: int = 0):
    with tempfile.TemporaryDirectory() as tmp:
        dataset, out, noise_path = (os.path.join(tmp, name) for name in ("ds", "run", "noise.json"))
        _plotquest("generate", "--n-plots", str(n_plots), "--seed", str(seed0), "--split", "1,0,0",
                   "--questions-per-plot", "1", "--out", dataset)
        with open(os.path.join(dataset, "manifest.json")) as f:
            n_questions = json.load(f)["n_questions"]
        if n_questions != n_plots:  # run skips a plot without questions, AP and F1 included
            raise SystemExit(f"{n_plots} plots got {n_questions} questions")
        with open(noise_path, "w") as f:
            json.dump(noise.to_json(), f)
        _plotquest("run", "--dataset", dataset, "--noise", noise_path, "--run-split", "train", "--out", out)
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
    m = {f"mAP@{thr}": v for thr, v in report["map"].items()}
    m["meanF1"] = report["mean_table_f1"]
    return m

def show(tag, noise, n):
    t0 = time.time()
    m = measure(noise, n)
    print(f"{tag}: " + "  ".join(f"{k}={v:.4f}" for k, v in m.items()) + f"   ({time.time()-t0:.0f}s)")
    return m

if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    from plotquest.detsim import PAPER_LIKE
    show("current paper_like", PAPER_LIKE, n)
