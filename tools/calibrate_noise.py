"""Grid-search helper for the paper_like noise preset.

Measures pooled mAP at {0.5, 0.75, 0.9} and mean per-plot table F1 over
generated plots for candidate noise models. Used offline to pick the
constants frozen in detsim.PAPER_LIKE.

Run: python3 tools/calibrate_noise.py [n_plots]
"""
import sys
import time

import numpy as np

import plotquest as pq
from plotquest.cli import MAP_THRESHOLDS, TABLE_F1_REL_TOL, stable_seed
from plotquest.detsim import APPool, NoiseModel, perturb
from plotquest.sie import extract_table, table_f1

def measure(noise: NoiseModel, n_plots: int = 200, seed0: int = 0):
    corpus = pq.default_corpus()
    pool = APPool(MAP_THRESHOLDS)
    f1s = []
    for i in range(n_plots):
        data = pq.sample_plot_data(corpus, stable_seed(seed0, "data", i))
        spec = pq.make_plot_spec(data, stable_seed(seed0, "style", i))
        _, ann = pq.render(spec)
        det = perturb(ann, noise.with_seed(stable_seed(noise.seed, "plot", i)))
        pool.add(det, ann)
        f1s.append(table_f1(extract_table(det), ann.gold_table, TABLE_F1_REL_TOL)[2])
    out = {f"mAP@{thr}": m for thr, (_, m) in zip(MAP_THRESHOLDS, pool.result())}
    out["meanF1"] = float(np.mean(f1s))
    return out

def show(tag, noise, n):
    t0 = time.time()
    m = measure(noise, n)
    print(f"{tag}: " + "  ".join(f"{k}={v:.4f}" for k, v in m.items()) + f"   ({time.time()-t0:.0f}s)")
    return m

if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    from plotquest.detsim import PAPER_LIKE
    show("current paper_like", PAPER_LIKE, n)
