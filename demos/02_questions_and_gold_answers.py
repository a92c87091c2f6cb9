"""
Template questions with gold answers
====================================

Instantiate the 74-template question grammar over one plot, given by its
PlotSpec alone. Every question carries its template (and with it the
template's category and answer type), its slot bindings and a gold answer
computed directly from the plot's data (``spec.data``). The same grammar
parses questions back, so generation and parsing can never drift apart.
"""

import plotquest as pq
from plotquest import tableqa

corpus = pq.default_corpus()
data = pq.sample_plot_data(corpus, seed=11)
spec = pq.make_plot_spec(data, seed=2)

questions = pq.instantiate(spec, seed=5, n_questions=10)
for q in questions:
    print(f"[{q.category}/{q.answer_type}] {q.text}")
    print(f"    gold: {q.gold_answer.rendered()}")

# every generated question re-parses to its own template and bindings
q = questions[0]
parsed = tableqa.parse(q.text)
assert (parsed.template_id, parsed.bindings) == (q.template_id, q.bindings)
print("\nround trip ok:", q.template_id, "->", tableqa.to_sexpr(parsed.logical_form))

