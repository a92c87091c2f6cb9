import numpy as np
import pytest

from plotquest.corpus import IndicatorVariable, PlotData, default_corpus
from plotquest.detsim import ZERO_NOISE, NoiseModel, perturb
from plotquest.plotgen import PlotSpec, StyleParams, make_plot_spec, render
from plotquest.templates import default_templates

# far past paper-like noise: a third of the elements dropped, a fifth
# misclassified, 40% of the texts corrupted
HEAVY = NoiseModel(box_jitter_sigma=6.0, drop_prob=0.35, misclass_prob=0.2,
                   ocr_char_sub_prob=0.4, ocr_truncate_prob=0.4,
                   ocr_sign_digit_prob=0.4, seed=5)


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


@pytest.fixture(scope="session")
def templates():
    return default_templates()


def make_indicator(unit_phrase="price of diesel", lo=0.1, hi=10.0, kind="float",
                   entities="countries", name="Test Indicator"):
    return IndicatorVariable(name, unit_phrase, entities, (lo, hi), kind)


def make_data(values, legends=None, cats=None, x_label="Year", indicator=None):
    """PlotData from an explicit value matrix (series-major)."""
    V = np.asarray(values, dtype=float)
    if V.ndim == 1:
        V = V[None, :]
    n_series, n_cats = V.shape
    if legends is None:
        legends = ["Brazil", "Iceland", "Thailand", "Lebanon"][:n_series]
    if cats is None:
        cats = [str(2000 + i) for i in range(n_cats)]
    if indicator is None:
        indicator = make_indicator(lo=min(0.0, float(V.min())), hi=max(float(V.max()), 1.0) * 2)
    data = PlotData(
        indicator=indicator,
        x_label=x_label,
        x_categories=tuple(cats),
        series=tuple((leg, tuple(float(v) for v in row)) for leg, row in zip(legends, V)),
    )
    return data


def make_style(n_series, **overrides):
    base = dict(
        grid=True,
        font_size=12.0,
        tick_notation="standard",
        line_style="solid",
        marker="circle",
        legend_position="top-right",
        series_colors=tuple(range(n_series)),
    )
    base.update(overrides)
    return StyleParams(**base)


def make_spec(data, plot_type="vbar", **style_overrides):
    return PlotSpec(data=data, plot_type=plot_type, style=make_style(data.n_series, **style_overrides))


def rendered(data, plot_type="vbar", **style_overrides):
    spec = make_spec(data, plot_type, **style_overrides)
    svg, ann = render(spec)
    return spec, svg, ann


def clean_detections(ann):
    return perturb(ann, ZERO_NOISE)
