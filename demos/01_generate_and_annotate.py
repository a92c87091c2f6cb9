"""
Generating an annotated plot
============================

Sample a data series from the bundled indicator corpus, style it, render it
to SVG, and look at the exact element annotation that comes back with it.
"""

import plotquest as pq

# every indicator carries a phrase ("price of diesel"), an entity pool and
# a value range; sampling is fully determined by the seed
corpus = pq.default_corpus()
data = pq.sample_plot_data(corpus, seed=7)
print("indicator:", data.indicator.name)
print("x:", data.x_label, "->", data.x_categories)
print("series:", [name for name, _ in data.series])

# styling (plot type, colors, legend position, tick notation...) is a
# second independent draw
spec = pq.make_plot_spec(data, seed=3)
print("\nplot type:", spec.plot_type)
print("legend position:", spec.style.legend_position)
print("tick notation:", spec.style.tick_notation)

svg, annotation = pq.render(spec)
with open("demo_plot.svg", "wb") as f:
    f.write(svg)
print("\nwrote demo_plot.svg,", len(svg), "bytes")

# the annotation lists every data-bearing element with a float bbox
census = {}
for e in annotation.elements:
    census[e.cls] = census.get(e.cls, 0) + 1
print("\nelement census:", census)

title = next(e for e in annotation.elements if e.cls == "title")
print("title:", repr(title.text), "at", [round(v, 1) for v in title.bbox])

# the gold table is the plot's content in tabular form
print("\ngold table:")
print(annotation.gold_table.to_csv())

# and the annotation is internally consistent
print("violations:", pq.validate_annotation(annotation))
