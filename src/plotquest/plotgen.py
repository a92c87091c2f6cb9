"""SVG plot rendering with exact ground-truth element annotations.

The renderer produces a deterministic SVG 1.1 document plus a
PlotAnnotation listing every data-bearing element (10 classes: title, the
two axis labels, the two tick label families, legend labels, legend
previews, and bar / line / dotline marks) with float pixel bounding boxes.

Geometry contract: bar extents and vertex centers are exact linear maps of
the data values onto the value axis, with no pixel rounding anywhere, so a
noise-free reading of the annotation reconstructs cell values to float
precision. All perception noise is injected downstream, never here.

Conventions (the underlying study leaves these open):
- value axis starts at 0; its max is the smallest "nice" number
  (1, 2, 2.5 or 5 times a power of ten) at or above the data max,
  giving 5-6 major ticks
- grouped bars sit centered in their category slot, ordered by series,
  with an intra-group gap of 10% of the bar width
- text boxes use nominal font metrics (0.6 em advance, 1.2 em line height)
- canvas defaults to 800x600 px; origin top-left, y grows downward
- a rendered plot passes validate_annotation, the one annotation check:
  render raises LayoutError with its first violation. A bar of value 0
  has zero height and is valid
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cache
from itertools import accumulate

import numpy as np

from .answers import format_scientific
from .corpus import PlotData
from .palette import N_COLORS, color_hex
from .table import SemiStructuredTable

PLOT_TYPES = ("vbar", "hbar", "line", "dotline")
LEGEND_POSITIONS = ("bottom-left", "bottom-centre", "bottom-right", "center-right", "top-right")
LINE_STYLES = ("solid", "dashed", "dotted", "dashdot")
MARKERS = ("asterisk", "circle", "diamond", "square", "triangle", "inverted_triangle")
TICK_NOTATIONS = ("standard", "scientific_E")

ELEMENT_CLASSES = (
    "title", "bar", "line", "dotline", "xaxis_label", "yaxis_label",
    "xtick_label", "ytick_label", "legend_label", "legend_preview",
)
_ELEMENT_CLASS_SET = frozenset(ELEMENT_CLASSES)
TEXTUAL_CLASSES = ("title", "xaxis_label", "yaxis_label", "xtick_label", "ytick_label", "legend_label")
MARK_CLASSES = ("bar", "line", "dotline", "legend_preview")
# the element class of a plot type's data marks
PLOT_TYPE_MARK_CLASS = {"vbar": "bar", "hbar": "bar", "line": "line", "dotline": "dotline"}

DEFAULT_CANVAS = (800.0, 600.0)

_MARKER_SIZE = 9.0  # bbox edge for line/dotline vertex elements
_PREVIEW_W, _PREVIEW_H = 18.0, 10.0


class LayoutError(ValueError):
    """Canvas too small for the plot area, or for every element to stay on
    it with no two texts overlapping."""


def finite_number(v) -> bool:
    """An int or float, not a bool, within the float range: NaN, the
    infinities and an int too large for a float are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _positive_number(v) -> bool:
    return finite_number(v) and v > 0


def _check_color_id(color) -> None:
    if isinstance(color, bool) or not isinstance(color, int):
        raise ValueError(f"color {color!r} is not an integer colour id")


@dataclass(frozen=True)
class StyleParams:
    grid: bool
    font_size: float
    tick_notation: str
    line_style: str
    marker: str
    legend_position: str
    series_colors: tuple[int, ...]
    canvas: tuple[float, float] = DEFAULT_CANVAS

    def __post_init__(self):
        if not isinstance(self.grid, bool):
            raise ValueError(f"grid {self.grid!r} is not a boolean")
        if not _positive_number(self.font_size):
            raise ValueError(f"font_size {self.font_size!r} is not a finite positive number")
        if len(self.canvas) != 2 or not all(map(_positive_number, self.canvas)):
            raise ValueError(f"canvas {self.canvas!r} is not two finite positive numbers")
        if self.tick_notation not in TICK_NOTATIONS:
            raise ValueError(f"bad tick_notation {self.tick_notation!r}")
        if self.line_style not in LINE_STYLES:
            raise ValueError(f"bad line_style {self.line_style!r}")
        if self.marker not in MARKERS:
            raise ValueError(f"bad marker {self.marker!r}")
        if self.legend_position not in LEGEND_POSITIONS:
            raise ValueError(f"bad legend_position {self.legend_position!r}")
        if len(set(self.series_colors)) != len(self.series_colors):
            raise ValueError("series colors must be pairwise distinct")
        for c in self.series_colors:
            _check_color_id(c)
            if not (0 <= c < N_COLORS):
                raise ValueError(f"color id {c} outside palette")

    def to_json(self) -> dict:
        """Every field in declaration order, a tuple as a list."""
        rec = {}
        for f in fields(self):
            v = getattr(self, f.name)
            rec[f.name] = list(v) if isinstance(v, tuple) else v
        return rec

    @staticmethod
    def from_json(obj: dict) -> "StyleParams":
        """Inverse of to_json: every field is required and other keys are ignored."""
        rec = {f.name: obj[f.name] for f in fields(StyleParams)}
        return StyleParams(**{k: tuple(v) if isinstance(v, list) else v for k, v in rec.items()})


@dataclass(frozen=True)
class PlotSpec:
    data: PlotData
    plot_type: str
    style: StyleParams

    def __post_init__(self):
        if self.plot_type not in PLOT_TYPES:
            raise ValueError(f"bad plot_type {self.plot_type!r}")
        if len(self.style.series_colors) != self.data.n_series:
            raise ValueError(f"{len(self.style.series_colors)} series colors for {self.data.n_series} series")


def check_element(cls, bbox, text, color) -> None:
    """The field check of an annotated element or a detection: a class of
    ELEMENT_CLASSES, a box of four finite numbers with non-negative size, a
    string text and an integer colour id (None stands for either being
    absent)."""
    if not isinstance(cls, str) or cls not in _ELEMENT_CLASS_SET:  # a decoded list is unhashable
        raise ValueError(f"unknown element class {cls!r}")
    try:
        finite = (len(bbox) == 4 and math.isfinite(bbox[0]) and math.isfinite(bbox[1])
                  and math.isfinite(bbox[2]) and math.isfinite(bbox[3]))
    except (OverflowError, TypeError):  # an int too large for a float, a box that is not numbers
        finite = False
    if not finite or bbox[2] < 0 or bbox[3] < 0:
        raise ValueError(f"bbox {bbox} is not (x, y, w, h) with finite values and w, h >= 0")
    if text is not None and not isinstance(text, str):
        raise ValueError(f"text {text!r} is not a string")
    if color is not None:
        _check_color_id(color)


@cache
def _fields_after_bbox(record: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of the fields an element record declares after its box, in
    declaration order: the required ones, which have no default and so come
    first, then the optional ones."""
    later = fields(record)[2:]
    required = tuple(f.name for f in later if f.default is MISSING)
    return required, tuple(f.name for f in later[len(required):])


class ElementRecord:
    """The check, center and JSON of an annotated element or a detection: a
    dataclass declaring ``cls``, ``bbox``, then fields among which are
    ``text`` and ``color``. JSON holds ``"class"``, ``"bbox"`` and each later
    field in declaration order, leaving out a field that is None."""

    def __post_init__(self):
        check_element(self.cls, self.bbox, self.text, self.color)

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)

    def to_json(self) -> dict:
        rec: dict = {"class": self.cls, "bbox": list(self.bbox)}
        required, optional = _fields_after_bbox(type(self))
        for name in required + optional:
            v = getattr(self, name)
            if v is not None:
                rec[name] = v
        return rec

    @classmethod
    def from_json(cls, obj: dict):
        """Inverse of to_json: the box becomes floats, a required field (a
        detection's score) is a number, the other keys are optional and
        unknown keys are ignored."""
        required, optional = _fields_after_bbox(cls)
        return cls(obj["class"], tuple(map(float, obj["bbox"])),
                   *map(float, map(obj.__getitem__, required)), *map(obj.get, optional))


@dataclass(frozen=True)
class VisualElement(ElementRecord):
    cls: str  # one of ELEMENT_CLASSES ("class" in JSON)
    bbox: tuple[float, float, float, float]  # x, y, w, h
    text: str | None = None
    color: int | None = None
    series_index: int | None = None
    x_index: int | None = None


@dataclass
class PlotAnnotation:
    elements: list[VisualElement]
    style: StyleParams
    plot_type: str
    gold_table: SemiStructuredTable

    def __post_init__(self):
        if self.plot_type not in PLOT_TYPES:
            raise ValueError(f"bad plot_type {self.plot_type!r}")

    def by_class(self, cls: str) -> list[VisualElement]:
        return [e for e in self.elements if e.cls == cls]

    def to_json(self) -> dict:
        return {
            "plot_type": self.plot_type,
            "style": self.style.to_json(),
            "elements": [e.to_json() for e in self.elements],
            "gold_table": self.gold_table.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "PlotAnnotation":
        return PlotAnnotation(
            elements=[VisualElement.from_json(e) for e in obj["elements"]],
            style=StyleParams.from_json(obj["style"]),
            plot_type=obj["plot_type"],
            gold_table=SemiStructuredTable.from_json(obj["gold_table"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def loads(text: str | bytes) -> "PlotAnnotation":
        return PlotAnnotation.from_json(json.loads(text))


# ---------------------------------------------------------------------------
# style sampling

def make_plot_spec(data: PlotData, seed: int) -> PlotSpec:
    """Draw plot type and styling from the seed, each uniformly among its options."""
    rng = np.random.default_rng(seed)

    def pick(options: tuple[str, ...]) -> str:
        return options[int(rng.integers(len(options)))]

    plot_type = pick(PLOT_TYPES)
    style = StyleParams(
        grid=bool(rng.random() < 0.5),
        font_size=float(rng.integers(10, 14)),
        tick_notation=pick(TICK_NOTATIONS),
        line_style=pick(LINE_STYLES),
        marker=pick(MARKERS),
        legend_position=pick(LEGEND_POSITIONS),
        series_colors=tuple(int(c) for c in rng.choice(N_COLORS, size=data.n_series, replace=False)),
    )
    return PlotSpec(data=data, plot_type=plot_type, style=style)


# ---------------------------------------------------------------------------
# value axis

# (largest leading digits of the data max, tick step mantissa, step exponent
# offset from the max's power of ten, number of steps); the first row that
# admits the max's leading digits gives its axis
_NICE_STEPS = (
    (1.0, 2, -1, 5),  # 0 to 1 by .2
    (2.0, 5, -1, 4),  # 0 to 2 by .5
    (2.5, 5, -1, 5),  # 0 to 2.5 by .5
    (5.0, 1, 0, 5),  # 0 to 5 by 1
    (math.inf, 2, 0, 5),  # 0 to 10 by 2
)


def value_axis(data: PlotData) -> tuple[float, float, list[float]]:
    """(axis max, tick step, tick values) for the value axis.

    Tick values are built from integer mantissas ("6e-1") so their decimal
    representations stay short and re-parse to the identical float. A max
    of 0 or below takes the axis 0 to 1.
    """
    vmax = float(np.max(data.values_matrix()))
    exp = math.floor(math.log10(vmax)) if vmax > 0 else 0
    frac = vmax / 10.0**exp
    step_m, step_off, steps = next(row[1:] for row in _NICE_STEPS if frac <= row[0])
    ticks = [float(f"{i * step_m}e{exp + step_off}") for i in range(steps + 1)]
    return ticks[-1], ticks[1], ticks


def format_tick(value: float, notation: str) -> str:
    if notation == "scientific_E":
        return format_scientific(value)
    if float(value).is_integer():
        return str(int(value))
    return str(value)


def _capitalised_value_phrase(data: PlotData) -> str:
    return data.y_label[0].upper() + data.y_label[1:]


def plot_title(data: PlotData) -> str:
    head = _capitalised_value_phrase(data)
    if data.n_series == 1:
        return f"{head} in {data.series[0][0]}"
    return f"{head} by {data.x_label.lower()}"


def screen_axis_labels(data: PlotData, plot_type: str) -> tuple[str, str]:
    """Texts of the x-axis and y-axis labels as they appear on screen."""
    value_text = _capitalised_value_phrase(data)
    if plot_type == "hbar":
        return value_text, data.x_label
    return data.x_label, value_text


# ---------------------------------------------------------------------------
# rendering

def _text_w(s: str, fs: float) -> float:
    return 0.6 * fs * len(s)


def _text_h(fs: float) -> float:
    return 1.2 * fs


def _fnum(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return s if s else "0"


_DASHES = {"solid": None, "dashed": "8,5", "dotted": "2,4", "dashdot": "8,4,2,4"}


class _Svg:
    def __init__(self, w: float, h: float):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fnum(w)}" height="{_fnum(h)}" viewBox="0 0 {_fnum(w)} {_fnum(h)}">',
            f'<rect x="0" y="0" width="{_fnum(w)}" height="{_fnum(h)}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#333333", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fnum(x1)}" y1="{_fnum(y1)}" x2="{_fnum(x2)}" y2="{_fnum(y2)}"'
            f' stroke="{stroke}" stroke-width="{_fnum(width)}"{d}/>'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{_fnum(x)}" y="{_fnum(y)}" width="{_fnum(w)}" height="{_fnum(h)}" fill="{fill}"/>'
        )

    def polyline(self, pts, stroke, dash=None):
        coords = " ".join(f"{_fnum(x)},{_fnum(y)}" for x, y in pts)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="2"{d}/>')

    def text(self, x, y, s, fs, rotate=False):
        esc = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        tr = f' transform="rotate(-90 {_fnum(x)} {_fnum(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_fnum(x)}" y="{_fnum(y)}" font-family="Helvetica" font-size="{_fnum(fs)}"'
            f' text-anchor="middle" dominant-baseline="middle"{tr}>{esc}</text>'
        )

    def marker(self, x, y, kind, color):
        r = 3.5  # drawn 7 px across, inside its _MARKER_SIZE element box
        if kind == "circle":
            self.parts.append(f'<circle cx="{_fnum(x)}" cy="{_fnum(y)}" r="{_fnum(r)}" fill="{color}"/>')
        elif kind == "square":
            self.rect(x - r, y - r, 2 * r, 2 * r, color)
        elif kind == "diamond":
            pts = [(x, y - r), (x + r, y), (x, y + r), (x - r, y)]
            self._polygon(pts, color)
        elif kind == "triangle":
            self._polygon([(x, y - r), (x + r, y + r), (x - r, y + r)], color)
        elif kind == "inverted_triangle":
            self._polygon([(x - r, y - r), (x + r, y - r), (x, y + r)], color)
        else:  # asterisk
            for dx, dy in ((r, 0), (0, r), (r * 0.7, r * 0.7), (r * 0.7, -r * 0.7)):
                self.line(x - dx, y - dy, x + dx, y + dy, stroke=color, width=1.5)

    def _polygon(self, pts, fill):
        coords = " ".join(f"{_fnum(x)},{_fnum(y)}" for x, y in pts)
        self.parts.append(f'<polygon points="{coords}" fill="{fill}"/>')

    def tobytes(self) -> bytes:
        return ("\n".join(self.parts) + "\n</svg>\n").encode("utf-8")


def render(spec: PlotSpec) -> tuple[bytes, PlotAnnotation]:
    """Render the plot; returns the SVG document and its annotation."""
    data, style, ptype = spec.data, spec.style, spec.plot_type
    W, H = style.canvas
    fs = style.font_size
    th = _text_h(fs)
    horizontal = ptype == "hbar"
    mark_cls = PLOT_TYPE_MARK_CLASS[ptype]

    axis_max, _step, ticks = value_axis(data)
    # the value ticks sit left of the y axis and the category ticks under
    # the x axis, the other way round for hbar
    value_side, category_side = ("x", "y") if horizontal else ("y", "x")
    tick_texts = {value_side: [format_tick(t, style.tick_notation) for t in ticks],
                  category_side: list(data.x_categories)}
    title = plot_title(data)
    x_axis_text, y_axis_text = screen_axis_labels(data, ptype)
    legends = data.legend_labels

    title_fs = fs + 4.0
    title_h = _text_h(title_fs)

    legend_at_bottom = style.legend_position.startswith("bottom")
    entry_ws = [_PREVIEW_W + 5.0 + _text_w(s, fs) for s in legends]
    legend_row_h = max(_PREVIEW_H, th)

    left = 8.0 + th + 6.0 + max(_text_w(s, fs) for s in tick_texts["y"]) + 8.0
    # the outermost bottom tick label is centered on the axis end for hbar
    right = max(16.0, max(_text_w(s, fs) for s in tick_texts["x"]) / 2.0 + 6.0) if horizontal else 16.0
    top = 8.0 + title_h + 10.0
    bottom = 8.0 + th + 6.0 + th + 8.0
    if legend_at_bottom:
        bottom += legend_row_h + 10.0

    area_x, area_y = left, top
    area_w, area_h = W - left - right, H - top - bottom
    if area_w < 120.0 or area_h < 100.0:
        raise LayoutError(f"canvas {W}x{H} leaves plot area {area_w:.0f}x{area_h:.0f}")
    area_r, area_b = area_x + area_w, area_y + area_h

    # the one orientation decision: categories run down y and values right
    # along x for hbar; categories run along x and values up y otherwise
    if horizontal:
        cat_start, cat_len, val_start, val_len, val_dir = area_y, area_h, area_x, area_w, 1.0
    else:
        cat_start, cat_len, val_start, val_len, val_dir = area_x, area_w, area_b, area_h, -1.0

    def screen(c: float, v: float) -> tuple[float, float]:
        # (category-axis, value-axis) coordinates -> (x, y) on the canvas
        return (v, c) if horizontal else (c, v)

    def vpix(v: float) -> float:
        # value -> pixel along the value axis
        return val_start + val_dir * (v / axis_max * val_len)

    def cat_center(i: int) -> float:
        return cat_start + (i + 0.5) * cat_len / data.n_categories

    svg = _Svg(W, H)
    elements: list[VisualElement] = []

    def add_text(cls: str, cx: float, cy: float, s: str, size: float, rotate: bool = False) -> None:
        w, h = _text_w(s, size), _text_h(size)
        if rotate:
            w, h = h, w
        elements.append(VisualElement(cls, (cx - w / 2.0, cy - h / 2.0, w, h), text=s))
        svg.text(cx, cy, s, size, rotate=rotate)

    # grid
    if style.grid:
        for t in ticks:
            p = vpix(t)
            svg.line(*screen(cat_start, p), *screen(cat_start + cat_len, p), stroke="#dddddd")

    # axes
    svg.line(area_x, area_y, area_x, area_b)
    svg.line(area_x, area_b, area_r, area_b)

    # title and axis labels
    add_text("title", W / 2.0, 8.0 + title_h / 2.0, title, title_fs)
    xlab_cy = area_b + 8.0 + th + 6.0 + th / 2.0
    add_text("xaxis_label", area_x + area_w / 2.0, xlab_cy, x_axis_text, fs)
    add_text("yaxis_label", 8.0 + th / 2.0, area_y + area_h / 2.0, y_axis_text, fs, rotate=True)

    def place_ticks(side: str, positions) -> None:
        # a tick mark and its label at each position along the x or y axis
        for p, s in zip(positions, tick_texts[side]):
            if side == "x":
                svg.line(p, area_b, p, area_b + 4.0)
                add_text("xtick_label", p, area_b + 8.0 + th / 2.0, s, fs)
            else:
                svg.line(area_x - 4.0, p, area_x, p)
                add_text("ytick_label", area_x - 8.0 - _text_w(s, fs) / 2.0, p, s, fs)

    place_ticks(value_side, [vpix(t) for t in ticks])
    place_ticks(category_side, [cat_center(i) for i in range(data.n_categories)])

    # data marks
    values = data.values_matrix()
    n_series, n_cats = data.n_series, data.n_categories
    if mark_cls == "bar":
        slot = cat_len / n_cats
        usable = 0.7 * slot
        bw = usable / (n_series + 0.1 * (n_series - 1))
        gap = 0.1 * bw
        for i in range(n_cats):
            start = cat_center(i) - (n_series * bw + (n_series - 1) * gap) / 2.0
            for s in range(n_series):
                v = float(values[s][i])
                color = style.series_colors[s]
                off = start + s * (bw + gap)
                top = vpix(v)  # the bar runs from the value axis's start to here
                bbox = (*screen(off, min(top, val_start)), *screen(bw, abs(top - val_start)))
                elements.append(VisualElement("bar", bbox, color=color, series_index=s, x_index=i))
                svg.rect(*bbox, fill=color_hex(color))
    else:
        dash = _DASHES[style.line_style]
        for s in range(n_series):
            color = style.series_colors[s]
            pts = [screen(cat_center(i), vpix(float(values[s][i]))) for i in range(n_cats)]
            svg.polyline(pts, color_hex(color), dash=dash)
            for i, (px, py) in enumerate(pts):
                bbox = (px - _MARKER_SIZE / 2.0, py - _MARKER_SIZE / 2.0, _MARKER_SIZE, _MARKER_SIZE)
                elements.append(VisualElement(mark_cls, bbox, color=color, series_index=s, x_index=i))
                if mark_cls == "dotline":
                    svg.marker(px, py, style.marker, color_hex(color))

    # legend: the layout places each entry's origin, a preview left of its label
    if legend_at_bottom:
        total = sum(entry_ws) + 14.0 * (len(legends) - 1)
        if style.legend_position == "bottom-left":
            x0 = area_x
        elif style.legend_position == "bottom-centre":
            x0 = area_x + (area_w - total) / 2.0
        else:
            x0 = area_r - total
        cy = H - 8.0 - legend_row_h / 2.0
        origins = [(x, cy) for x in accumulate((w + 14.0 for w in entry_ws[:-1]), initial=x0)]
    else:
        x0 = area_r - 10.0 - max(entry_ws)
        step_y = legend_row_h + 6.0
        if style.legend_position == "top-right":
            y0 = area_y + 10.0 + legend_row_h / 2.0
        else:  # center-right
            y0 = area_y + area_h / 2.0 - step_y * (len(legends) - 1) / 2.0
        origins = [(x0, y0 + s * step_y) for s in range(len(legends))]
    for s, (name, (x0, cy)) in enumerate(zip(legends, origins)):
        color = style.series_colors[s]
        pbox = (x0, cy - _PREVIEW_H / 2.0, _PREVIEW_W, _PREVIEW_H)
        if mark_cls == "bar":
            svg.rect(*pbox, fill=color_hex(color))
        else:
            svg.line(x0, cy, x0 + _PREVIEW_W, cy, stroke=color_hex(color), width=2.0,
                     dash=_DASHES[style.line_style])
            if mark_cls == "dotline":
                svg.marker(x0 + _PREVIEW_W / 2.0, cy, style.marker, color_hex(color))
        elements.append(VisualElement("legend_preview", pbox, color=color, series_index=s))
        lw = _text_w(name, fs)
        lx = x0 + _PREVIEW_W + 5.0
        elements.append(VisualElement("legend_label", (lx, cy - th / 2.0, lw, th),
                                      text=name, series_index=s))
        svg.text(lx + lw / 2.0, cy, name, fs)

    gold = SemiStructuredTable(
        row_headers=list(data.x_categories),
        col_headers=list(legends),
        cells=[[float(values[s][i]) for s in range(n_series)] for i in range(n_cats)],
        row_label=data.x_label,
    )
    annotation = PlotAnnotation(elements=elements, style=style, plot_type=ptype, gold_table=gold)

    violations = validate_annotation(annotation)
    if violations:
        raise LayoutError(violations[0])
    return svg.tobytes(), annotation


# ---------------------------------------------------------------------------
# validation

def _boxes_overlap(a, b) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah


def validate_annotation(annotation: PlotAnnotation) -> list[str]:
    """Check PlotAnnotation invariants; returns human-readable violations.

    Every box lies on the canvas (to 1e-9 px) and no two text boxes
    overlap. A box may have zero extent: a bar of value 0 has no height."""
    out = []
    W, H = annotation.style.canvas
    counts = {cls: 0 for cls in ELEMENT_CLASSES}
    texts = []
    for e in annotation.elements:
        counts[e.cls] += 1
        x, y, w, h = e.bbox
        if x < -1e-9 or y < -1e-9 or x + w > W + 1e-9 or y + h > H + 1e-9:
            out.append(f"{e.cls} bbox {e.bbox} outside canvas")
        if e.cls in TEXTUAL_CLASSES:
            texts.append(e)
            if not e.text:
                out.append(f"{e.cls} carries no text")
        if e.cls in MARK_CLASSES and e.color is None:
            out.append(f"{e.cls} carries no color")
    for i, a in enumerate(texts):
        for b in texts[i + 1:]:
            if _boxes_overlap(a.bbox, b.bbox):
                out.append(f"{a.cls} {a.text!r} overlaps {b.cls} {b.text!r}")

    for cls in ("title", "xaxis_label", "yaxis_label"):
        if counts[cls] != 1:
            out.append(f"expected exactly one {cls}, found {counts[cls]}")

    n_series = len(annotation.gold_table.col_headers)
    n_cats = len(annotation.gold_table.row_headers)
    if counts["legend_label"] != n_series:
        out.append(f"{counts['legend_label']} legend labels for {n_series} series")
    if counts["legend_preview"] != counts["legend_label"]:
        out.append("legend preview count != legend label count")
    mark_cls = PLOT_TYPE_MARK_CLASS[annotation.plot_type]
    if counts[mark_cls] != n_series * n_cats:
        out.append(f"{counts[mark_cls]} {mark_cls} marks for {n_series} series x {n_cats} categories")
    return out
