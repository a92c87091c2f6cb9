"""TemplateMatcher against the linear scan it indexes: every template's
regex tried in priority order (most literal text first, then id) until one
full-matches. The prefix index must return exactly what that scan returns,
the same template and the same bindings, for any grammar and any text.
A malformed line of the grammar file is a TemplateError that names it."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from plotquest.cli import stable_seed
from plotquest.corpus import sample_plot_data
from plotquest.plotgen import make_plot_spec
from plotquest.qgen import instantiate, instantiate_all
from plotquest.templates import Template, TemplateError, TemplateMatcher, _parse_templates, default_matcher


def linear_scan(templates):
    """The oracle: the priority-order loop over the whole grammar."""
    compiled = [(t, t.compile()) for t in sorted(templates, key=lambda t: (-t.literal_size, t.id))]

    def match(text):
        for template, rx in compiled:
            m = rx.fullmatch(text)
            if m:
                return template, {k: v for k, v in m.groupdict().items() if v is not None}
        return None
    return match


def grammar(*patterns):
    return [Template(i, "reasoning", "open_vocab", p) for i, p in enumerate(patterns, start=1)]


def assert_agrees(templates, texts):
    index, oracle = TemplateMatcher(templates), linear_scan(templates)
    for text in texts:
        assert index.match(text) == oracle(text), text


def pinned_questions(corpus):
    """Every question of test_qgen's generator pin: instantiate_all and 48
    sampled ones on each of its 40 plots."""
    texts = []
    for i in range(40):
        data = sample_plot_data(corpus, stable_seed(3, "data", i))
        spec = make_plot_spec(data, stable_seed(3, "style", i))
        seed = stable_seed(3, "q", i)
        texts += [q.text for q in instantiate_all(spec, seed) + instantiate(spec, seed, n_questions=48)]
    return texts


def test_index_agrees_with_the_scan_on_generated_questions(corpus, templates):
    texts = pinned_questions(corpus)
    assert len(texts) > 3500
    assert_agrees(templates, texts)
    assert all(default_matcher().match(t) is not None for t in texts)


def test_index_agrees_with_the_scan_on_adversarial_texts(corpus, templates):
    prefixes = sorted({t.literal_prefix for t in templates})
    questions = pinned_questions(corpus)[::7]
    texts = ["", " ", "?", "what is the title of the graph?"]
    texts += prefixes + [p[:-1] for p in prefixes] + [p + junk for p in prefixes for junk in ("zzz", "?", " ?", "1st")]
    texts += [t.surface_pattern for t in templates]
    texts += [q[:-1] + c for q in questions for c in ("!", ".", "??")] + [q + " " for q in questions]
    assert_agrees(templates, texts)
    assert TemplateMatcher(templates).match("") is None


def test_the_shorter_prefix_template_wins_when_it_is_more_literal():
    # "What is the average " is the longest prefix this text starts with, yet
    # only the template under the shorter "What is the " matches it
    templates = grammar("What is the {y_label} in {x_tick}?", "What is the average {y_label} per {x_singular}?")
    got = TemplateMatcher(templates).match("What is the average price in 2001?")
    assert got == (templates[0], {"y_label": "average price", "x_tick": "2001"})
    assert_agrees(templates, ["What is the average price in 2001?", "What is the average price per year?",
                              "What is the price in 2001?", "What is the average in 2001?"])


def test_a_template_that_starts_with_a_slot_is_a_candidate_for_every_text():
    templates = grammar("{y_label} in {x_tick}?", "What is the {y_label} in {x_tick}?", "Does {a} exist?")
    index = TemplateMatcher(templates)
    assert index.match("price in 2001?") == (templates[0], {"y_label": "price", "x_tick": "2001"})
    # the slot-first template also matches here, but it has less literal text
    assert index.match("What is the price in 2001?")[0] == templates[1]
    # under the prefix "Does ", the slot-first template is still a candidate
    assert index.match("Does it in 2001?")[0] == templates[0]
    assert_agrees(templates, ["", "in 2001?", " in ?", "What is the  in 2001?", "Does x exist?", "Does in 2001?", "zzz"])


def test_prefixes_that_end_mid_word():
    templates = grammar("What is the tot{rest}?", "What is the total {y_label}?", "Wh{a} {b}?")
    index = TemplateMatcher(templates)
    assert index.match("What is the total price?")[0] == templates[1]
    assert index.match("What is the total?") == (templates[0], {"rest": "al"})
    assert index.match("What is the totem?") == (templates[0], {"rest": "em"})
    assert index.match("Why not?") == (templates[2], {"a": "y", "b": "not"})
    assert_agrees(templates, ["What is the tot?", "What is the total ?", "What is the to?", "Wh ?", "W"])


def test_a_repeated_slot_binds_once():
    templates = grammar("Is {a} equal to {a}?", "Is {a} equal to {b} or {a}?")
    index = TemplateMatcher(templates)
    assert index.match("Is x equal to x?") == (templates[0], {"a": "x"})
    assert index.match("Is x equal to y?") is None
    assert index.match("Is x equal to y or x?") == (templates[1], {"a": "x", "b": "y"})


def test_an_empty_grammar_matches_nothing():
    assert TemplateMatcher([]).match("") is None
    assert TemplateMatcher([]).match("What is the title of the graph?") is None


def oracle_fill(pattern, bindings):
    """The reference fill: each slot marker substituted in place by a regex,
    then any brace left over refused."""
    def sub(m):
        if m.group(1) not in bindings:
            raise TemplateError(f"unbound slot {m.group(1)!r}")
        return str(bindings[m.group(1)])

    text = re.sub(r"\{([a-z_0-9]+)\}", sub, pattern)
    if "{" in text or "}" in text:
        raise TemplateError(f"unfilled slot marker remains in {text!r}")
    return text


def outcome(fill, *args):
    try:
        return fill(*args)
    except TemplateError as e:
        return type(e)


def test_fill_agrees_with_the_regex_oracle(templates):
    # every bundled template bound fully, with an extra binding, with one
    # slot left out and with a brace in a value; then hand-made patterns
    # whose braces are not slots
    cases = []
    for t in templates:
        full = {s: f"v {s}" for s in t.slots}
        cases += [(t.surface_pattern, full), (t.surface_pattern, {**full, "extra": "x"})]
        for s in t.slots[:1]:
            cases += [(t.surface_pattern, {k: v for k, v in full.items() if k != s}),
                      (t.surface_pattern, {**full, s: "{x}"})]
    for p in ("A {0} b", "A {x.y} b", "A } b", "A {{x}} b"):
        cases += [(p, {}), (p, {"0": "z", "x": "v", "x.y": "w"})]
    assert len(cases) > 2 * len(templates)
    for p, bindings in cases:
        assert outcome(Template(1, "reasoning", "open_vocab", p).fill, bindings) == outcome(oracle_fill, p, bindings)


@pytest.mark.parametrize("line,reason", [
    ("x2 | structural | yes_no | Is it?", "template id 'x2' is not an integer"),
    ("2 | visual | yes_no | Is it?", "bad category 'visual'"),
    ("2 | structural | maybe | Is it?", "bad answer_type 'maybe'"),
    ("2 | structural | yes_no", "expected 4 '|'-separated fields, got 3"),
])
def test_a_malformed_grammar_line_is_named(line, reason):
    text = f"# id | category | answer_type | pattern\n1 | structural | yes_no | Is it?\n\n{line}\n"
    with pytest.raises(TemplateError, match=re.escape(f"line 4: {reason}")):
        _parse_templates(text)


# small grammars and texts over a few shared pieces, so that prefixes nest,
# end mid-word, repeat and are empty often
PIECES = ["What", " is", " the", " a", "ve", "rage", " in", "?", " ", "x"]
SLOTS = ["{a}", "{b}", "{n}", "{i}"]
FILLS = ["x", "2001", "12.5", "3rd", "the a", ""]
pattern = st.lists(st.sampled_from(PIECES + SLOTS), min_size=1, max_size=6).map("".join)
text = st.lists(st.sampled_from(PIECES + FILLS), max_size=8).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(pattern, min_size=1, max_size=6, unique=True), st.lists(text, max_size=10))
def test_index_agrees_with_the_scan_on_random_grammars(patterns, texts):
    templates = grammar(*patterns)
    # texts filled from the grammar's own patterns reach the fullmatch stage
    texts = texts + [t.surface_pattern.replace("{", "").replace("}", "") for t in templates]
    assert_agrees(templates, texts)
