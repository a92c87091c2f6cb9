"""
Geometric table extraction
==========================

Rebuild the plot's table from detections alone: pair legend labels with
their color swatches, read tick labels into named positions, assign every
bar to a category and a series, and interpolate values from pixels.
With noise-free detections the reconstruction is exact; under noise the
tuple-F1 score shows how errors propagate into the table.
"""

import plotquest as pq

corpus = pq.default_corpus()
data = pq.sample_plot_data(corpus, seed=23)
spec = pq.make_plot_spec(data, seed=8)
_, annotation = pq.render(spec)

# read() associates a plot's detections once; the table and every
# association step can be inspected on the one reading it returns
clean = pq.perturb(annotation, pq.ZERO_NOISE)
reading = pq.read(clean)
table = reading.table
print("extracted from clean detections:")
print(table.to_csv())

p, r, f1 = pq.table_f1(table, annotation.gold_table, rel_tol=0.005)
print(f"vs gold at 0.5% tolerance: P={p:.3f} R={r:.3f} F1={f1:.3f}")

print("\nlegend map (label -> palette id):", reading.legend_map)
print("category ticks (text, pixel):", [(ref.text, ref.pos) for ref in reading.cat_refs])
print("value anchors (value, pixel):", reading.val_ticks[:3], "...")
for mark, a in list(zip(reading.data_marks, reading.assignments))[:3]:
    print(f"  {mark.cls} at pixel {mark.center}: row {a.row}, column {a.col}, value {a.value:.3g}")

# under calibrated noise, small box errors and OCR damage cost real cells;
# the matching tolerance for extraction tuples is 2% (the QA metric's 5%
# tolerance is a separate, looser contract)
noisy = pq.perturb(annotation, pq.PAPER_LIKE.with_seed(3))
noisy_table = pq.extract_table(pq.read(noisy))
p, r, f1 = pq.table_f1(noisy_table, annotation.gold_table, rel_tol=0.02)
print(f"\nnoisy extraction at 2% tolerance: P={p:.3f} R={r:.3f} F1={f1:.3f}")
