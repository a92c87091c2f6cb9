"""Indicator corpus and plot-data sampling.

The corpus is a flat, human-editable text file of indicator variables
(one per line: ``name | unit_phrase | plural_entity_phrase | min | max |
kind``). A bundled default corpus covers integer, float and percentage
indicators whose ranges jointly span the full 0..3.5e15 envelope.
``data_rows`` is the one reader of this ``|``-separated format, which the
question templates' file shares.

Because every generated question must re-parse under the closed template
grammar, indicator phrases obey a few hygiene rules that an
``IndicatorVariable`` enforces when it is built: no braces, no " in " or
" per " inside a unit phrase, and no phrase starting with a grammar keyword
such as "average" or "sum of". Entity names used for ticks and legends
likewise avoid " and ", " in " and " to ", which the grammar uses as
separators.

Both records check their fields in their constructors and raise ValueError,
so an ``IndicatorVariable`` or ``PlotData`` that exists is valid;
``load_corpus`` turns the error into a CorpusError naming the line.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources

import numpy as np

VALUE_KINDS = ("integer", "float", "percentage")

GLOBAL_VALUE_CAP = 3.5e15

# substrings/prefixes reserved by the question grammar
_FORBIDDEN_INSIDE = (" in ", " per ")
_FORBIDDEN_PREFIXES = (
    "sum of ", "total ", "average ", "median ", "maximum ", "minimum ",
    "difference ", "ratio ",
)


class CorpusError(ValueError):
    """Corpus file missing or malformed; message carries the line number."""


@dataclass(frozen=True)
class IndicatorVariable:
    name: str
    unit_phrase: str  # e.g. "price of diesel"; slots into question templates
    plural_entity_phrase: str  # e.g. "countries"; names the entity pool
    value_range: tuple[float, float]
    value_kind: str  # "integer" | "float" | "percentage"

    def __post_init__(self):
        lo, hi = self.value_range
        if not self.name:
            raise ValueError("indicator name is empty")
        if not self.unit_phrase:
            raise ValueError("unit_phrase is empty")
        for phrase in (self.name, self.unit_phrase):
            if "{" in phrase or "}" in phrase:  # the question templates' slot markers
                raise ValueError(f"{phrase!r}: '{{' and '}}' are not allowed")
        if self.plural_entity_phrase not in ENTITY_POOLS:
            raise ValueError(f"unknown entity pool {self.plural_entity_phrase!r}")
        if self.value_kind not in VALUE_KINDS:
            raise ValueError(f"bad value_kind {self.value_kind!r}")
        if not (0 <= lo <= hi <= GLOBAL_VALUE_CAP):
            raise ValueError(f"value_range {self.value_range} outside [0, {GLOBAL_VALUE_CAP:g}]")
        if self.value_kind == "percentage" and hi > 100:
            raise ValueError("percentage indicator with max > 100")
        for bad in _FORBIDDEN_INSIDE:
            if bad in f" {self.unit_phrase} ":
                raise ValueError(f"unit_phrase contains reserved token {bad!r}")
        for pfx in _FORBIDDEN_PREFIXES:
            if self.unit_phrase.startswith(pfx):
                raise ValueError(f"unit_phrase starts with reserved prefix {pfx!r}")


@dataclass(frozen=True)
class PlotData:
    indicator: IndicatorVariable
    x_label: str  # singular, capitalized ("Year", "Country")
    x_categories: tuple[str, ...]
    series: tuple[tuple[str, tuple[float, ...]], ...]  # (legend label, values)

    @property
    def y_label(self) -> str:
        """The value phrase: the indicator's unit phrase."""
        return self.indicator.unit_phrase

    @property
    def n_categories(self) -> int:
        return len(self.x_categories)

    @property
    def n_series(self) -> int:
        return len(self.series)

    @property
    def legend_labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.series)

    def values_matrix(self) -> np.ndarray:
        """Series-major value matrix, shape (n_series, n_categories)."""
        return np.array([vals for _, vals in self.series], dtype=float)

    def __post_init__(self):
        if not (2 <= self.n_categories <= 12):
            raise ValueError(f"{self.n_categories} x-categories; expected 2..12")
        if not (1 <= self.n_series <= 4):
            raise ValueError(f"{self.n_series} series; expected 1..4")
        if len(set(self.x_categories)) != self.n_categories:
            raise ValueError("duplicate x-categories")
        if len(set(self.legend_labels)) != self.n_series:
            raise ValueError("duplicate legend labels")
        lo, hi = self.indicator.value_range
        for name, vals in self.series:
            if len(vals) != self.n_categories:
                raise ValueError(f"series {name!r} has {len(vals)} values; expected {self.n_categories}")
            for v in vals:
                if not (lo <= v <= hi):
                    raise ValueError(f"value {v} outside indicator range [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# entity pools

ENTITY_POOLS: dict[str, list[str]] = {
    "countries": [
        "Brazil", "Iceland", "Thailand", "Lebanon", "Angola", "Cuba", "Serbia",
        "Bhutan", "Peru", "Kuwait", "Liberia", "Malaysia", "Norway", "Kenya",
        "Chile", "Ghana", "Nepal", "Austria", "Benin", "Fiji", "Gabon",
        "Haiti", "Japan", "Laos", "Malta", "Oman", "Qatar", "Spain", "Sudan",
        "Togo", "Yemen", "Zambia", "Greece",
    ],
    "cities": [
        "Chennai", "Mumbai", "Oslo", "Lima", "Cairo", "Quito", "Accra",
        "Dakar", "Hanoi", "Seoul", "Porto", "Leeds", "Turin", "Lyon",
        "Kyoto", "Osaka",
    ],
    "schools": [
        "Northside", "Westview", "Oakridge", "Hillcrest", "Lakeside",
        "Riverdale", "Brookside", "Fairview", "Glenwood", "Maplewood",
    ],
    "operators": [
        "Airtel", "Vodafone", "Telenor", "Orange", "Sprint", "Verizon",
        "Rogers", "Telstra", "Swisscom",
    ],
    "samples": [f"Sample {i}" for i in range(31, 47)],
    "districts": [
        "Northern", "Southern", "Eastern", "Western", "Central", "Coastal",
        "Highland", "Lakeland", "Midland", "Uptown",
    ],
    "states": [
        "Texas", "Ohio", "Utah", "Iowa", "Idaho", "Maine", "Kansas",
        "Nevada", "Oregon", "Georgia",
    ],
    "factories": [f"Plant {c}" for c in "ABCDEFGHIJ"],
}

_SINGULAR = {
    "countries": "country", "cities": "city", "schools": "school",
    "operators": "operator", "samples": "sample", "districts": "district",
    "states": "state", "factories": "factory", "years": "year",
}
_PLURAL = {v: k for k, v in _SINGULAR.items()}


def singularize(plural: str) -> str:
    return _SINGULAR[plural]


def pluralize(singular: str) -> str:
    return _PLURAL[singular]


# ---------------------------------------------------------------------------
# corpus file handling

def data_rows(text: str, n_fields: int, error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each ``|``-separated line of a
    data file, skipping blank lines and ``#`` comments. A line with other
    than ``n_fields`` fields raises ``error`` naming the line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != n_fields:
            raise error(f"line {lineno}: expected {n_fields} '|'-separated fields, got {len(parts)}")
        yield lineno, parts


def _parse_line(lineno: int, parts: list[str]) -> IndicatorVariable:
    name, unit_phrase, plural_entity, lo_s, hi_s, kind = parts
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise CorpusError(f"line {lineno}: min/max are not numbers: {lo_s!r}, {hi_s!r}")
    try:
        return IndicatorVariable(name, unit_phrase, plural_entity, (lo, hi), kind)
    except ValueError as e:
        raise CorpusError(f"line {lineno}: {e}")


def _parse_corpus(text: str) -> list[IndicatorVariable]:
    return [_parse_line(lineno, parts) for lineno, parts in data_rows(text, 6, CorpusError)]


def load_corpus(path: str) -> list[IndicatorVariable]:
    """Load indicator variables from a corpus file, preserving line order."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise CorpusError(f"corpus file not found: {path}")
    except (OSError, UnicodeDecodeError) as e:  # a directory, unreadable, not UTF-8
        raise CorpusError(f"cannot read corpus file {path}: {e}")
    return _parse_corpus(text)


def default_corpus() -> list[IndicatorVariable]:
    """The corpus bundled with the package."""
    return _parse_corpus(resources.files("plotquest.data").joinpath("default_corpus.txt").read_text("utf-8"))


# ---------------------------------------------------------------------------
# sampling

def _round_kind(v: float, kind: str) -> float:
    if kind == "integer":
        return float(round(v))
    if kind == "percentage":
        return round(v, 1)
    # float: 3 significant digits keeps questions and tick reading readable
    if v == 0:
        return 0.0
    return round(v, -int(math.floor(math.log10(abs(v)))) + 2)


def _sample_values(rng: np.random.Generator, ind: IndicatorVariable, n: int) -> list[float]:
    lo, hi = ind.value_range
    wide = lo > 0 and hi / lo > 100  # more than 2 orders of magnitude
    if wide:
        raw = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
    else:
        raw = rng.uniform(lo, hi, size=n)
    vals = []
    for v in raw:
        v = _round_kind(float(v), ind.value_kind)
        # rounding can step outside the range; clamp back in
        if ind.value_kind == "integer":
            v = float(min(max(v, math.ceil(lo)), math.floor(hi)))
        else:
            v = min(max(v, lo), hi)
        vals.append(v)
    return vals


def legend_pool(indicator: IndicatorVariable, x_label: str) -> list[str]:
    """The names a plot's legend labels are drawn from: the indicator's
    entities when the categories are years, else the years 1960-2016, so a
    legend never names the same kind of thing as the X axis. Returns a fresh
    list the caller may keep or change."""
    if x_label == "Year":
        return list(ENTITY_POOLS[indicator.plural_entity_phrase])
    return [str(y) for y in range(1960, 2017)]


def sample_plot_data(corpus: list[IndicatorVariable], seed: int) -> PlotData:
    """Draw one PlotData deterministically from (corpus, seed)."""
    if not corpus:
        raise ValueError("empty corpus")
    rng = np.random.default_rng(seed)
    ind = corpus[int(rng.integers(len(corpus)))]
    pool = ENTITY_POOLS[ind.plural_entity_phrase]

    years_on_x = rng.random() < 0.6
    n_series = int(rng.integers(1, 5))

    if years_on_x:
        n_cats = int(rng.integers(2, 13))
        start = int(rng.integers(1960, 2017 - n_cats))
        x_categories = tuple(str(start + i) for i in range(n_cats))
        x_label = "Year"
    else:
        n_cats = int(rng.integers(2, min(8, len(pool)) + 1))
        idx = rng.choice(len(pool), size=n_cats, replace=False)
        x_categories = tuple(pool[i] for i in sorted(idx))
        x_label = singularize(ind.plural_entity_phrase).capitalize()

    names = legend_pool(ind, x_label)
    legend_idx = rng.choice(len(names), size=n_series, replace=False)
    legends = tuple(names[i] for i in sorted(legend_idx))

    series = tuple(
        (name, tuple(_sample_values(rng, ind, n_cats))) for name in legends
    )
    return PlotData(
        indicator=ind,
        x_label=x_label,
        x_categories=x_categories,
        series=series,
    )
