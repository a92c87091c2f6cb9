"""
Hybrid question answering, end to end
=====================================

Route each question to the right branch, answer it from its plot's one
reading of noisy detections, and score the whole thing with the
5%-tolerance metric broken down over the question-category x answer-type
grid. The hybrid beats either branch alone because they fail on
complementary question families.
"""

import plotquest as pq
from plotquest.cli import stable_seed
from plotquest.hybrid import answer_hybrid, answer_pipeline_only, answer_structural

print("routing examples:")
for q in ("How many legend labels are there?",
          "Does the graph contain grids?",
          "What is the ratio of the price of diesel in Lebanon in 2010 to that in 2014?"):
    r = pq.route(q)
    print(f"  {r.branch:<22} <- {q}")

# build a small evaluation batch under calibrated noise
corpus = pq.default_corpus()
# each question is paired with the one reading of its own plot's noisy
# detections, so every plot is read once however many questions it has
cases = []
for i in range(80):
    data = pq.sample_plot_data(corpus, stable_seed(1, "data", i))
    spec = pq.make_plot_spec(data, stable_seed(1, "style", i))
    _, ann = pq.render(spec)
    reading = pq.read(pq.perturb(ann, pq.PAPER_LIKE.with_seed(stable_seed(1, "noise", i))))
    cases.extend((q, reading) for q in pq.instantiate(spec, stable_seed(1, "q", i)))

# evaluate calls fn(question text, reading), so each answerer plugs in as it is
for name, fn in (("hybrid", answer_hybrid),
                 ("pipeline only", answer_pipeline_only),
                 ("structural only", answer_structural)):
    report = pq.evaluate(cases, fn)
    print(f"\n=== {name}: {100 * report.overall_accuracy:.1f}% overall")
    if name == "hybrid":
        print(report.render_text())
