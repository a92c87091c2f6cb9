"""Each rendered picture draws its annotation.

A test-only reading of the SVG (``xml.etree``, no plotquest code) lists the
drawn primitives; every annotated element must be drawn at its box, and every
text and every primitive drawn in a palette colour must belong to an element:
- a text element is a ``<text>`` of its string at its box centre;
- a bar, and a bar plot's legend preview, is a ``<rect>`` of its series colour
  at its box;
- a line or dotline mark is a vertex of a ``<polyline>`` of its colour;
- a line plot's legend preview is a stroke of its colour across its box;
- a dotline mark or preview also has its marker at its box centre: a
  ``<circle>``, a square ``<rect>``, a ``<polygon>``, or four asterisk
  ``<line>``s.

The SVG prints coordinates to three decimals and the annotation full floats,
so a drawn position matches its box within ``TOL`` px.
"""

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import pytest

from plotquest.corpus import sample_plot_data
from plotquest.palette import PALETTE, color_hex
from plotquest.plotgen import LEGEND_POSITIONS, MARKERS, PLOT_TYPES, TEXTUAL_CLASSES, make_plot_spec, render

from conftest import make_data, make_spec

TOL = 2e-3
_NS = "{http://www.w3.org/2000/svg}"
_PALETTE_HEX = {h for _, h in PALETTE}
# the primitive a marker of each kind is drawn with, and how many of them
_MARKER_PRIMITIVES = {"circle": ("circle", 1), "square": ("rect", 1), "asterisk": ("line", 4)}


@dataclass(frozen=True)
class Drawn:
    tag: str
    color: str | None  # fill, or stroke for lines and polylines
    box: tuple[float, float, float, float]  # x, y, w, h; a text's anchor with no extent
    points: tuple[tuple[float, float], ...] = ()  # a polyline's vertices
    text: str | None = None

    @property
    def centre(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return x + w / 2.0, y + h / 2.0


def _points(attr: str) -> tuple[tuple[float, float], ...]:
    return tuple(tuple(float(v) for v in pair.split(",")) for pair in attr.split())


def _extent(pts) -> tuple[float, float, float, float]:
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    return min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)


def read_svg(svg: bytes) -> list[Drawn]:
    """Every primitive the document draws, in document order."""
    drawn = []
    for node in ET.fromstring(svg):
        tag, a = node.tag.removeprefix(_NS), node.attrib
        f = {k: float(v) for k, v in a.items() if k in ("x", "y", "width", "height", "cx", "cy", "r",
                                                         "x1", "y1", "x2", "y2")}
        if tag == "text":
            drawn.append(Drawn(tag, None, (f["x"], f["y"], 0.0, 0.0), text=node.text))
        elif tag == "rect":
            drawn.append(Drawn(tag, a["fill"], (f["x"], f["y"], f["width"], f["height"])))
        elif tag == "circle":
            r = f["r"]
            drawn.append(Drawn(tag, a["fill"], (f["cx"] - r, f["cy"] - r, 2 * r, 2 * r)))
        elif tag == "polygon":
            drawn.append(Drawn(tag, a["fill"], _extent(_points(a["points"]))))
        elif tag == "polyline":
            pts = _points(a["points"])
            drawn.append(Drawn(tag, a["stroke"], _extent(pts), points=pts))
        elif tag == "line":
            drawn.append(Drawn(tag, a["stroke"], _extent([(f["x1"], f["y1"]), (f["x2"], f["y2"])])))
        else:
            raise AssertionError(f"unread SVG element {tag}")
    return drawn


def _close(a, b) -> bool:
    return all(abs(u - v) <= TOL for u, v in zip(a, b, strict=True))


class Picture:
    """The drawn primitives of one SVG and which of them an element claimed;
    a polyline is claimed vertex by vertex."""

    def __init__(self, svg: bytes):
        self.drawn = read_svg(svg)
        self.claimed: set[tuple] = set()

    def take(self, tag: str, color: str | None, *, box=None, centre=None, text=None, n: int = 1) -> bool:
        """Claim ``n`` unclaimed primitives of ``tag``, ``color`` and
        ``text`` drawn at ``box`` or centred at ``centre``; False if there
        are fewer."""
        keys = [(i,) for i, d in enumerate(self.drawn)
                if (d.tag, d.color, d.text) == (tag, color, text) and (i,) not in self.claimed
                and (box is None or _close(d.box, box)) and (centre is None or _close(d.centre, centre))]
        self.claimed.update(keys[:n])
        return len(keys) >= n

    def take_vertex(self, color: str, centre) -> bool:
        for i, d in enumerate(self.drawn):
            if d.tag == "polyline" and d.color == color:
                for k, p in enumerate(d.points):
                    if (i, k) not in self.claimed and _close(p, centre):
                        self.claimed.add((i, k))
                        return True
        return False

    def unclaimed(self) -> list[Drawn]:
        """Texts and palette-coloured primitives no element claimed."""
        out = []
        for i, d in enumerate(self.drawn):
            keys = [(i, k) for k in range(len(d.points))] if d.tag == "polyline" else [(i,)]
            if (d.tag == "text" or d.color in _PALETTE_HEX) and not self.claimed.issuperset(keys):
                out.append(d)
        return out


def drawing_problems(svg: bytes, annotation) -> list[str]:
    """Each annotated element not drawn at its box, then each drawn
    primitive that no element accounts for."""
    pic = Picture(svg)
    marker = annotation.style.marker
    problems = []
    for e in annotation.elements:
        centre = e.center
        color = None if e.color is None else color_hex(e.color)
        if e.cls in TEXTUAL_CLASSES:
            found = pic.take("text", None, centre=centre, text=e.text)
        elif e.cls == "bar" or (e.cls == "legend_preview" and annotation.plot_type in ("vbar", "hbar")):
            found = pic.take("rect", color, box=e.bbox)
        else:
            if e.cls == "legend_preview":
                x, _, w, _ = e.bbox
                found = pic.take("line", color, box=(x, centre[1], w, 0.0))
            else:
                found = pic.take_vertex(color, centre)
            if found and annotation.plot_type == "dotline":
                tag, n = _MARKER_PRIMITIVES.get(marker, ("polygon", 1))
                found = pic.take(tag, color, centre=centre, n=n)
        if not found:
            problems.append(f"{e.cls} {e.text or ''} at {e.bbox} is not drawn there")
    problems += [f"{d.tag} {d.color or d.text} at {d.box} belongs to no element" for d in pic.unclaimed()]
    return problems


def test_reader_sees_a_moved_bar():
    # the check itself: a bar drawn 0.01 px off its box is not drawn there,
    # and the rect drawn in its place belongs to no element
    svg, ann = render(make_spec(make_data([[1.0, 2.0], [3.0, 4.0]]), "vbar"))
    assert drawing_problems(svg, ann) == []
    bar = next(e for e in ann.elements if e.cls == "bar")
    moved = re.sub(rb'<rect x="([0-9.]+)"(?=[^>]*fill="' + color_hex(bar.color).encode() + b'")',
                   lambda m: b'<rect x="%.3f"' % (float(m.group(1)) + 0.01), svg, count=1)
    problems = drawing_problems(moved, ann)
    assert len(problems) == 2, problems
    assert problems[0].startswith("bar  at") and problems[0].endswith("is not drawn there")
    assert problems[1].startswith("rect #") and problems[1].endswith("belongs to no element")


@pytest.mark.parametrize("plot_type", PLOT_TYPES)
def test_every_legend_position_and_marker_draws_its_annotation(plot_type):
    data = make_data([[0.0, 2.5, 7.0, 4.0], [1.0, 3.0, 2.0, 8.0], [5.0, 0.5, 6.0, 1.5]],
                     cats=["2008", "R&D <x>", "2010", "2011"])
    markers = MARKERS if plot_type == "dotline" else MARKERS[:1]
    for position in LEGEND_POSITIONS:
        for marker in markers:
            for notation in ("standard", "scientific_E"):
                spec = make_spec(data, plot_type, legend_position=position, marker=marker,
                                 tick_notation=notation, line_style="dashdot", series_colors=(3, 40, 71))
                svg, ann = render(spec)
                assert drawing_problems(svg, ann) == [], (position, marker, notation)


def test_generated_plots_draw_their_annotation(corpus):
    # the plots of a seed-7 dataset, in generate's draw order
    from plotquest.cli import stable_seed
    seen = set()
    for i in range(120):
        data = sample_plot_data(corpus, stable_seed(7, "data", i))
        spec = make_plot_spec(data, stable_seed(7, "style", i))
        svg, ann = render(spec)
        assert drawing_problems(svg, ann) == [], i
        seen.add(spec.plot_type)
    assert seen == set(PLOT_TYPES)
