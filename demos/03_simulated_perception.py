"""
Simulating the perception stages
================================

The detection simulator perturbs ground-truth annotations the way a neural
detector and a character recognizer would fail: jittered boxes, dropped and
misclassified elements, corrupted texts. Average precision at several IOU
thresholds quantifies the damage.
"""

import plotquest as pq
from plotquest.detsim import NoiseModel

corpus = pq.default_corpus()
data = pq.sample_plot_data(corpus, seed=4)
spec = pq.make_plot_spec(data, seed=4)
_, annotation = pq.render(spec)

# the zero preset is the identity: detections == annotation, score 1.0
clean = pq.perturb(annotation, pq.ZERO_NOISE)
print("zero noise:", len(clean.detections), "detections for", len(annotation.elements), "elements")

# the paper_like preset was calibrated by grid search until pooled
# mAP@0.5 ~ 0.96, mAP@0.9 ~ 0.72 and mean table F1 ~ 0.68 over 1,000 plots
noisy = pq.perturb(annotation, pq.PAPER_LIKE.with_seed(42))
for thr in (0.5, 0.75, 0.9):
    per_class, m = pq.average_precision([(noisy, annotation)], thr)
    print(f"mAP@{thr}: {m:.3f}")

# text corruption has three modes; each fixture is reproducible by seed
print("\ntruncation:  Indoor ->", pq.corrupt_text("Indoor", NoiseModel(ocr_truncate_prob=1.0), 0))
print("substitution: Operator ->", pq.corrupt_text("Operator", NoiseModel(ocr_char_sub_prob=1.0), 0))
print("digit damage: 2008 ->", pq.corrupt_text("2008", NoiseModel(ocr_sign_digit_prob=1.0), 4))

# OCR accuracy is an exact-match rate per element class, scored over
# (class, predicted text, gold text) triples
gold = [(e.cls, e.text) for e in annotation.elements if e.text is not None]
texts = [(cls, pq.corrupt_text(t, pq.PAPER_LIKE, k), t) for k, (cls, t) in enumerate(gold)]
print("\nOCR accuracy:", {k: round(v, 3) for k, v in pq.ocr_accuracy(texts).items()})
