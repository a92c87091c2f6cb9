"""Question instantiation over a plot: applicability, binding sampling,
surface realization and gold answers for all 74 templates.

Which templates apply to a plot follows from their slots. A template with
k legend slots (``{legend_label}`` ... ``{legend_label4}``) needs at least
k series, one per slot. A template with no legend slot that names the
value phrase (``{y_label}``) or the title reads the plot's lone series, so
it needs exactly one. A few templates also need a plot type (bars, lines,
value ticks on the Y axis); ``_applicable`` keeps those id sets.

Gold answers are computed directly in value space from the PlotData (plus
style metadata for structural questions), independently of the extraction
pipeline that will later answer the same questions from detections. Table
templates must agree with the tableqa executor on the gold table; that
equality is a tested invariant, not an implementation shortcut. Every table
template reads the series ``_Ctx.named_series`` picks (the one its legend
label names, or the plot's lone series) or series named by its legend
slots; only templates 1 and 17 read all series.

Two rules keep generated questions well-posed:

- numeric thresholds ("greater than N units") are placed at the midpoint
  of a value gap near a round quantile, so no data point sits on the
  boundary;
- a yes/no or count answer that compares two quantities is the sign of
  their difference, the margin, and the gold branch that computes it
  passes it through ``_Ctx.margin``. A margin within 1e-9 of the data
  scale, but not exactly 0, raises Degenerate, and the sampler draws
  again; the families 65/73, 67/71, 68, 72 and 74 refuse an exact 0 as
  well. Without this, a comparison could flip on the last bit between the
  raw values and their pixel-roundtripped twins, and "exact at zero
  noise" would be unfalsifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .answers import Answer, number, text, yes_no
from .corpus import PlotData, legend_pool, pluralize
from .plotgen import PlotSpec, plot_title, screen_axis_labels, value_axis
from .templates import (
    ANSWER_TYPES, CATEGORIES, Template, default_templates, ordinal, parse_ordinal,
)

DEFAULT_QUESTIONS_PER_PLOT = 12

# questions skew heavily toward reasoning and open-vocabulary answers;
# structural questions are a small slice and never have open answers
CATEGORY_WEIGHTS = {"structural": 0.045, "data_retrieval": 0.14, "reasoning": 0.815}
ANSWER_TYPE_WEIGHTS = {
    "structural": {"yes_no": 0.3699, "fixed_vocab": 0.6301, "open_vocab": 0.0},
    "data_retrieval": {"yes_no": 0.0519, "fixed_vocab": 0.1852, "open_vocab": 0.7629},
    "reasoning": {"yes_no": 0.0205, "fixed_vocab": 0.1592, "open_vocab": 0.8203},
}

_EPS_REL = 1e-9


class Degenerate(Exception):
    """Bindings whose answer would sit on a float knife edge."""


@dataclass(frozen=True)
class QuestionInstance:
    template_id: int
    category: str
    answer_type: str
    text: str
    bindings: dict[str, str]
    gold_answer: Answer

    def to_json(self) -> dict:
        return {
            "template_id": self.template_id,
            "category": self.category,
            "answer_type": self.answer_type,
            "text": self.text,
            "bindings": dict(self.bindings),
            "gold_answer": self.gold_answer.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "QuestionInstance":
        """Inverse of to_json; raises ValueError on a field of the wrong type
        or a category or answer type outside the grammar's."""
        tid, text, bindings = obj["template_id"], obj["text"], obj["bindings"]
        if isinstance(tid, bool) or not isinstance(tid, int):
            raise ValueError(f"template_id {tid!r} is not an integer")
        if not isinstance(text, str):
            raise ValueError(f"text {text!r} is not a string")
        if obj["category"] not in CATEGORIES:
            raise ValueError(f"unknown category {obj['category']!r}")
        if obj["answer_type"] not in ANSWER_TYPES:
            raise ValueError(f"unknown answer_type {obj['answer_type']!r}")
        if not isinstance(bindings, dict) or not all(isinstance(v, str) for v in bindings.values()):
            raise ValueError(f"bindings {bindings!r} do not map slot names to strings")
        return QuestionInstance(
            template_id=tid,
            category=obj["category"],
            answer_type=obj["answer_type"],
            text=text,
            bindings=dict(bindings),
            gold_answer=Answer.from_json(obj["gold_answer"]),
        )


# ---------------------------------------------------------------------------
# plot context

class _Ctx:
    def __init__(self, data: PlotData, spec: PlotSpec):
        if spec.data is not data:
            data.validate()
        self.data = data
        self.spec = spec
        self.V = data.values_matrix()
        self.n_series = data.n_series
        self.n_cats = data.n_categories
        self.ptype = spec.plot_type
        self.is_bar = spec.plot_type in ("vbar", "hbar")
        self.legends = list(data.legend_labels)
        self.cats = list(data.x_categories)
        self.y = data.y_label
        self.x_singular = data.x_label.lower()
        self.x_plural = pluralize(self.x_singular)
        self.figure_type = "bar" if self.is_bar else spec.plot_type
        self.title = plot_title(data)
        self.tick_step = value_axis(data)[1]
        self.eps = _EPS_REL * max(1.0, float(self.V.max()))

    def series_values(self, legend: str) -> np.ndarray:
        return self.V[self.legends.index(legend)]

    def named_series(self, b: dict[str, str]) -> np.ndarray:
        """The series a question reads: its legend label's, or the lone
        series of a plot whose question names no legend label."""
        return self.series_values(b["legend_label"]) if "legend_label" in b else self.V[0]

    def cat_index(self, tick: str) -> int:
        return self.cats.index(tick)

    def margin(self, m, allow_ties: bool = True):
        """A comparison's margin (scalar or array), returned unchanged unless
        one sits on a knife edge: within ``eps`` of 0 but nonzero, or exactly
        0 where ties are refused. Raises Degenerate then."""
        a = np.abs(m)
        if np.any((a < self.eps) & ((a > 0.0) | (not allow_ties))):
            raise Degenerate("comparison margin below float-safety threshold")
        return m


def count_line_crossings(V: np.ndarray) -> int:
    """Crossing points between distinct series polylines on a shared x grid.

    A crossing is a strict sign flip of the pairwise difference across one
    category interval; contacts at shared vertices do not count.
    """
    n_series, n_cats = V.shape
    crossings = 0
    for a in range(n_series):
        for b in range(a + 1, n_series):
            d = V[a] - V[b]
            for i in range(n_cats - 1):
                if d[i] * d[i + 1] < 0:
                    crossings += 1
    return crossings


# ---------------------------------------------------------------------------
# applicability

def _applicable(t: Template, ctx: _Ctx) -> bool:
    tid, p = t.id, ctx.ptype
    if tid in (9, 10, 11, 16, 32):
        return ctx.is_bar
    if tid in (12, 13, 19, 20, 23):
        return p == "vbar"
    if tid in (14, 15, 21, 22, 24):
        return p == "hbar"
    if tid in (17, 18):
        return p in ("line", "dotline")
    if tid in (26, 27):
        return p != "hbar"  # value ticks must sit on the Y axis
    if t.legend_slots:
        return ctx.n_series >= len(t.legend_slots)
    return ctx.n_series == 1 or not ("y_label" in t.slots or "title" in t.slots)


def _templates_for(ctx: _Ctx) -> list[Template]:
    return [t for t in default_templates() if _applicable(t, ctx)]


def applicable_templates(data: PlotData, spec: PlotSpec) -> list[Template]:
    """Templates that can be instantiated on this plot."""
    return _templates_for(_Ctx(data, spec))


# ---------------------------------------------------------------------------
# binding samplers

def _threshold_string(values: np.ndarray, rng: np.random.Generator, eps: float) -> str:
    """A round threshold strictly between two data values (or above all)."""
    uniq = sorted(set(float(v) for v in values))
    if len(uniq) == 1:
        v = uniq[0]
        n = v * 1.5 if v > 0 else 1.0
        n = float(f"{n:.3g}")
        if n <= v + eps:
            n = v * 2 + 1.0
        return _num_str(n)
    q = float(rng.choice([0.25, 0.5, 0.75]))
    target = uniq[0] + q * (uniq[-1] - uniq[0])
    gaps = sorted(
        ((lo, hi) for lo, hi in zip(uniq, uniq[1:])),
        key=lambda g: abs((g[0] + g[1]) / 2.0 - target),
    )
    for lo, hi in gaps:
        if hi - lo < 4 * eps:
            continue
        mid = (lo + hi) / 2.0
        for digits in range(1, 17):
            cand = float(f"{mid:.{digits}g}")
            if lo + eps < cand < hi - eps:
                return _num_str(cand)
    raise Degenerate("no representable threshold between data values")


def _num_str(v: float) -> str:
    s = str(int(v)) if float(v).is_integer() and abs(v) < 1e16 else str(v)
    return s.lstrip("+")


def _pick_cat(ctx: _Ctx, rng) -> int:
    return int(rng.integers(ctx.n_cats))


def _pick_two_cats(ctx: _Ctx, rng, ordered: bool = False) -> tuple[int, int]:
    i, j = rng.choice(ctx.n_cats, size=2, replace=False)
    i, j = int(i), int(j)
    if ordered and i > j:
        i, j = j, i
    return i, j


def sample_bindings(template: Template, ctx: _Ctx, rng: np.random.Generator) -> dict[str, str]:
    """Draw one binding set for an applicable template.

    Raises Degenerate only when no round threshold fits between the data
    values; knife-edge comparisons are caught by the gold answer.
    """
    tid = template.id
    b: dict[str, str] = {}
    slots = template.slots

    if "y_label" in slots:
        b["y_label"] = ctx.y
    if "x_singular" in slots:
        b["x_singular"] = ctx.x_singular
    if "x_plural" in slots:
        b["x_plural"] = ctx.x_plural
    if "figure_type" in slots:
        b["figure_type"] = ctx.figure_type
    if "title" in slots:
        b["title"] = ctx.title

    if tid in (12, 13, 14, 15):
        b["i"] = ordinal(int(rng.integers(1, ctx.n_cats + 1)))
    elif tid in (19, 20, 21, 22):
        b["i"] = ordinal(int(rng.integers(1, ctx.n_series + 1)))
    if tid in (23, 24):
        b["j"] = ordinal(int(rng.integers(1, ctx.n_cats + 1)))

    if tid == 29:
        pool = legend_pool(ctx.data.indicator, ctx.data.x_label)
        absent = [c for c in pool if c not in ctx.legends]
        if absent and rng.random() < 0.5:
            b["legend_label"] = absent[int(rng.integers(len(absent)))]
        else:
            b["legend_label"] = ctx.legends[int(rng.integers(ctx.n_series))]
    elif template.legend_slots:
        series = rng.choice(ctx.n_series, size=len(template.legend_slots), replace=False)
        for name, s in zip(template.legend_slots, series):
            b[name] = ctx.legends[int(s)]

    if tid == 65:
        i = int(rng.integers(ctx.n_cats - 1))
        b["x_tick"], b["x_tick2"] = ctx.cats[i], ctx.cats[i + 1]
    elif tid == 57:
        if ctx.n_cats < 3:
            i, j = 0, ctx.n_cats - 1
            b["incl"] = "inclusive"
        else:
            i, j = _pick_two_cats(ctx, rng, ordered=True)
            if j - i >= 2 and rng.random() < 0.5:
                b["incl"] = "exclusive"
            else:
                b["incl"] = "inclusive"
        b["x_tick"], b["x_tick2"] = ctx.cats[i], ctx.cats[j]
    elif "x_tick2" in slots:
        i, j = _pick_two_cats(ctx, rng)
        b["x_tick"], b["x_tick2"] = ctx.cats[i], ctx.cats[j]
    elif "x_tick" in slots:
        b["x_tick"] = ctx.cats[_pick_cat(ctx, rng)]

    if "n" in slots:
        b["n"] = _threshold_string(ctx.named_series(b), rng, ctx.eps)

    return b


# ---------------------------------------------------------------------------
# gold answers

def gold_answer(template: Template, bindings: dict[str, str], data: PlotData, spec: PlotSpec) -> Answer:
    """Ground-truth answer for an applicable template under given bindings.

    Raises Degenerate when the bindings put a comparison on a knife edge
    (see ``_Ctx.margin``); the generator never emits such bindings.
    """
    ctx = _Ctx(data, spec)
    return _gold(template.id, bindings, ctx)


def _gold(tid: int, b: dict[str, str], ctx: _Ctx) -> Answer:
    V, style = ctx.V, ctx.spec.style

    if tid == 1:
        return yes_no(bool((V == 0).any()))
    if tid == 2:
        return yes_no(style.grid)
    if tid == 3:
        return text(style.legend_position)
    if tid == 4:
        return number(ctx.n_series)
    if tid == 5:
        return text("horizontal" if style.legend_position.startswith("bottom") else "vertical")
    if tid == 6:
        return number(ctx.n_cats)
    if tid == 7:
        return number(ctx.n_series * ctx.n_cats if ctx.is_bar else ctx.n_series)
    if tid == 8:
        return number(ctx.n_series)
    if tid == 9:
        return number(ctx.n_cats)
    if tid in (10, 11):
        return yes_no(True)  # every group is fully populated by construction
    if tid in (12, 13, 14, 15):
        parse_ordinal(b["i"])  # validates the binding
        return number(ctx.n_series)
    if tid == 16:
        return yes_no(ctx.ptype == "hbar")
    if tid == 17:
        return number(count_line_crossings(V))
    if tid == 18:
        return yes_no(True)
    if tid in (19, 20, 21, 22):
        i = parse_ordinal(b["i"])
        idx = i - 1 if tid in (19, 21) else ctx.n_series - i
        return text(ctx.legends[idx])
    if tid in (23, 24):
        return text(ctx.cats[parse_ordinal(b["j"]) - 1])
    if tid == 26:
        return number(ctx.tick_step)
    if tid == 27:
        return yes_no(style.tick_notation == "scientific_E")
    if tid == 28:
        return text(ctx.title)
    if tid == 29:
        return yes_no(b["legend_label"] in ctx.legends)
    if tid == 30:
        return text(screen_axis_labels(ctx.data, ctx.ptype)[0])
    if tid == 31:
        return text(screen_axis_labels(ctx.data, ctx.ptype)[1])
    if tid == 32:
        return number(0)
    if tid in (36, 37):
        d = ctx.margin(ctx.series_values(b["legend_label"]) - ctx.series_values(b["legend_label2"]))
        return yes_no(bool((d > 0).all() if tid == 36 else (d < 0).all()))
    if tid == 52:
        va = ctx.series_values(b["legend_label"])[ctx.cat_index(b["x_tick"])]
        vb = ctx.series_values(b["legend_label2"])[ctx.cat_index(b["x_tick2"])]
        return number(va - vb)
    if tid in (54, 55):
        i = ctx.cat_index(b["x_tick"])
        va = ctx.series_values(b["legend_label"])[i]
        vb = ctx.series_values(b["legend_label2"])[i]
        return number(va - vb)
    if tid == 68:
        i, j = ctx.cat_index(b["x_tick"]), ctx.cat_index(b["x_tick2"])
        v1, v2 = ctx.series_values(b["legend_label"]), ctx.series_values(b["legend_label2"])
        return yes_no(bool(ctx.margin((v1[i] - v1[j]) - (v2[i] - v2[j]), allow_ties=False) > 0))
    if tid == 72:
        s = ctx.series_values(b["legend_label"]) + ctx.series_values(b["legend_label2"])
        d = ctx.margin(s - ctx.series_values(b["legend_label3"]), allow_ties=False)
        return yes_no(bool((d > 0).all()))
    if tid == 74:
        s1 = ctx.series_values(b["legend_label"]) + ctx.series_values(b["legend_label2"])
        s2 = ctx.series_values(b["legend_label3"]) + ctx.series_values(b["legend_label4"])
        return yes_no(bool((ctx.margin(s1 - s2, allow_ties=False) > 0).all()))

    # the rest read one series, the lone one or the one a legend label names
    # (73 also reads the maximum of a second)
    vals = ctx.named_series(b)
    if tid in (25, 35):
        return yes_no(bool((ctx.margin(np.diff(vals)) >= 0).all()))
    if tid in (33, 34):
        return number(vals[ctx.cat_index(b["x_tick"])])
    if tid in (38, 39, 42, 43):
        return number(vals.max() if tid in (38, 42) else vals.min())
    if tid in (40, 41, 44, 45):
        s, top = np.sort(vals), tid in (40, 44)
        ctx.margin(s[-1] - s[-2] if top else s[1] - s[0])  # the runner-up must not tie within eps
        return text(ctx.cats[int(np.argmax(vals) if top else np.argmin(vals))])
    if tid in (46, 50):
        return number(float(vals.sum()))
    if tid in (47, 51):
        return number(vals[ctx.cat_index(b["x_tick"])] - vals[ctx.cat_index(b["x_tick2"])])
    if tid in (48, 53):
        return number(float(vals.sum()) / ctx.n_cats)
    if tid == 49:
        return number(float(np.median(vals)))
    if tid in (56, 60):
        n = float(b["n"])
        return number(int((vals > n).sum()))
    if tid == 57:
        i, j = sorted((ctx.cat_index(b["x_tick"]), ctx.cat_index(b["x_tick2"])))
        if b["incl"] == "exclusive":
            i, j = i + 1, j - 1
        window = vals[i:j + 1]
        n = float(b["n"])
        return yes_no(bool((window > n).sum() > len(window) / 2.0))
    if tid in (58, 61):
        num_v = vals[ctx.cat_index(b["x_tick"])]
        den_v = vals[ctx.cat_index(b["x_tick2"])]
        if den_v == 0:
            raise Degenerate("ratio with zero denominator")
        return number(num_v / den_v)
    if tid in (59, 62):
        d = ctx.margin(vals[ctx.cat_index(b["x_tick"])] - vals[ctx.cat_index(b["x_tick2"])])
        return yes_no(bool(d < 0))
    if tid == 63:
        d = vals[ctx.cat_index(b["x_tick"])] - vals[ctx.cat_index(b["x_tick2"])]
        return yes_no(bool(ctx.margin(d - (vals.max() - vals.min())) > 0))
    if tid in (64, 69):
        s = np.sort(vals)[::-1]
        return number(float(s[0] - s[1]))
    if tid in (65, 73):
        other = ctx.series_values(b["legend_label2"]) if tid == 73 else vals
        s = vals[ctx.cat_index(b["x_tick"])] + vals[ctx.cat_index(b["x_tick2"])]
        return yes_no(bool(ctx.margin(s - other.max(), allow_ties=False) > 0))
    if tid in (66, 70):
        return number(float(vals.max() - vals.min()))
    if tid in (67, 71):
        return number(int((ctx.margin(vals - vals.mean(), allow_ties=False) > 0).sum()))
    raise ValueError(f"no gold semantics for template {tid}")


# ---------------------------------------------------------------------------
# surface realization

def paraphrase(pattern: str, bindings: dict[str, str], lexicon: dict[str, str]) -> str:
    """Fill a pattern after mapping binding values through the lexicon.

    Values without a lexicon entry substitute verbatim; a slot missing from
    the bindings raises naming the slot.
    """
    mapped = {k: lexicon.get(str(v), str(v)) for k, v in bindings.items()}
    return Template(0, "structural", "yes_no", pattern).fill(mapped)


def _cdf(weights: list[float]) -> np.ndarray:
    """The cumulative distribution that ``Generator.choice`` builds from
    ``p=weights / sum(weights)``, so that ``_draw`` picks what it picks."""
    p = np.array(weights, dtype=float)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from ``cdf``: the same single uniform and the same
    index as ``rng.choice(len(cdf), p=...)``, without re-validating ``p``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _question(template: Template, ctx: _Ctx, rng: np.random.Generator, seen=()) -> QuestionInstance | None:
    """One question of ``template``, or None when the draw lands on a knife
    edge or fills a text in ``seen``. A duplicate skips ``_gold``, which
    draws nothing from ``rng``, so skipping it leaves the stream as it was."""
    try:
        bindings = sample_bindings(template, ctx, rng)
        filled = template.fill(bindings)
        if filled in seen:
            return None
        return QuestionInstance(template.id, template.category, template.answer_type,
                                filled, bindings, _gold(template.id, bindings, ctx))
    except Degenerate:
        return None


def instantiate(
    data: PlotData,
    spec: PlotSpec,
    seed: int,
    n_questions: int = DEFAULT_QUESTIONS_PER_PLOT,
) -> list[QuestionInstance]:
    """Sample questions for one plot.

    Categories are drawn from the (renormalized) category weights, answer
    types from the per-category distribution grid, templates uniformly
    within the bucket. Duplicate surface texts are rejected.
    """
    rng = np.random.default_rng(seed)
    ctx = _Ctx(data, spec)

    # templates 1-8 apply to every plot, so there is always a bucket, and
    # every weight of a non-empty bucket is positive
    buckets: dict[tuple[str, str], list[Template]] = {}
    for t in _templates_for(ctx):
        buckets.setdefault((t.category, t.answer_type), []).append(t)

    categories = sorted({c for c, _ in buckets})
    cat_cdf = _cdf([CATEGORY_WEIGHTS[c] for c in categories])
    atypes = {cat: sorted({a for c, a in buckets if c == cat}) for cat in categories}
    atype_cdf = {cat: _cdf([ANSWER_TYPE_WEIGHTS[cat][a] for a in atypes[cat]]) for cat in categories}

    out: list[QuestionInstance] = []
    seen: set[str] = set()
    attempts = 0
    while len(out) < n_questions and attempts < n_questions * 40:
        attempts += 1
        cat = categories[_draw(cat_cdf, rng)]
        atype = atypes[cat][_draw(atype_cdf[cat], rng)]
        pool = buckets[(cat, atype)]
        q = _question(pool[int(rng.integers(len(pool)))], ctx, rng, seen)
        if q is not None:
            seen.add(q.text)
            out.append(q)
    return out


def instantiate_all(data: PlotData, spec: PlotSpec, seed: int) -> list[QuestionInstance]:
    """One instance of every applicable template (skipping degenerate draws)."""
    rng = np.random.default_rng(seed)
    ctx = _Ctx(data, spec)
    out = []
    for template in _templates_for(ctx):
        for _ in range(8):
            q = _question(template, ctx, rng)
            if q is not None:
                out.append(q)
                break
    return out
