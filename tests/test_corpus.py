import dataclasses

import numpy as np
import pytest

from plotquest.corpus import (
    CorpusError, ENTITY_POOLS, default_corpus, load_corpus, pluralize,
    sample_plot_data, singularize,
)


def test_load_corpus_counts_entries(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(
        "A | alpha rate | countries | 1 | 5 | float\n"
        "B | beta count | cities | 1 | 100 | integer\n"
        "C | gamma share (%) | schools | 1 | 99 | percentage\n"
    )
    out = load_corpus(str(p))
    assert len(out) == 3
    assert [i.name for i in out] == ["A", "B", "C"]  # order preserved


def test_load_corpus_min_greater_than_max_reports_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("A | alpha rate | countries | 1 | 5 | float\nB | beta | cities | 9 | 2 | float\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(str(p))


def test_load_corpus_missing_file():
    with pytest.raises(CorpusError, match="not found"):
        load_corpus("/nonexistent/corpus.txt")


def test_load_corpus_rejects_bad_kind(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("A | alpha rate | countries | 1 | 5 | dollars\n")
    with pytest.raises(CorpusError, match="value_kind"):
        load_corpus(str(p))


@pytest.mark.parametrize("line", [
    "Diesel {price} | price of diesel | countries | 0.1 | 3 | float",
    "Diesel price | price of {diesel} | countries | 0.1 | 3 | float",
    "Diesel price | price of diesel} | countries | 0.1 | 3 | float",
])
def test_load_corpus_rejects_braces(tmp_path, line):
    # braces would reach the question templates as slot markers
    p = tmp_path / "c.txt"
    p.write_text("A | alpha rate | countries | 1 | 5 | float\n" + line + "\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(str(p))


def test_default_corpus_is_broad():
    corpus = default_corpus()
    assert len(corpus) >= 50
    kinds = {c.value_kind for c in corpus}
    assert kinds == {"integer", "float", "percentage"}
    # the corpus jointly spans the documented value envelope
    assert max(c.value_range[1] for c in corpus) == 3.5e15
    assert min(c.value_range[0] for c in corpus) < 1.0
    for c in corpus:
        dataclasses.replace(c)
        assert c.plural_entity_phrase in ENTITY_POOLS


def test_entity_pools_respect_grammar_separators():
    for pool in ENTITY_POOLS.values():
        for name in pool:
            for bad in (" and ", " in ", " to ", ",", "|"):
                assert bad not in name, name


def test_sample_is_deterministic(corpus):
    assert sample_plot_data(corpus, 123) == sample_plot_data(corpus, 123)


def test_sample_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        sample_plot_data([], 0)


def test_sample_bounds_over_many_seeds(corpus):
    # series count 1-4 and 2-12 x-categories, per the generation contract
    for seed in range(10_000):
        data = sample_plot_data(corpus, seed)
        assert 2 <= data.n_categories <= 12
        assert 1 <= data.n_series <= 4


def test_sample_invariants_hold(corpus):
    for seed in range(300):
        dataclasses.replace(sample_plot_data(corpus, seed))


def test_percentage_values_within_0_100(corpus):
    pct = [c for c in corpus if c.value_kind == "percentage"]
    assert pct
    hits = 0
    for seed in range(10_000):
        data = sample_plot_data(pct, seed)
        hits += 1
        V = data.values_matrix()
        assert V.min() >= 0 and V.max() <= 100
    assert hits == 10_000


def test_integer_kind_yields_integers(corpus):
    ints = [c for c in corpus if c.value_kind == "integer"]
    for seed in range(200):
        data = sample_plot_data(ints, seed)
        V = data.values_matrix()
        assert np.all(V == np.round(V))


def test_no_zero_values_generated(corpus):
    # zero-height marks would violate the annotation bbox invariant
    for seed in range(2000):
        assert sample_plot_data(corpus, seed).values_matrix().min() > 0


def test_seed_distinguishability(corpus):
    samples = [sample_plot_data(corpus, seed) for seed in range(1000)]
    distinct = len({repr(s) for s in samples})
    assert distinct >= 990  # >99% of seed pairs differ


def test_year_categories_consecutive_in_range(corpus):
    seen_years = False
    for seed in range(300):
        data = sample_plot_data(corpus, seed)
        if data.x_label != "Year":
            continue
        seen_years = True
        years = [int(c) for c in data.x_categories]
        assert years == list(range(years[0], years[0] + len(years)))
        assert 1960 <= years[0] and years[-1] <= 2016
    assert seen_years


def test_pluralize_roundtrip():
    for plural in ENTITY_POOLS:
        assert pluralize(singularize(plural)) == plural
