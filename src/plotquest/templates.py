"""The closed question grammar: template records and the shared
pattern-matching machinery.

Templates live in ``data/templates.txt`` (id | category | answer_type |
pattern, read by ``corpus.data_rows``, the one reader of the ``|``-separated
data files) so the generator and the parser work from one grammar source; a
question filled from a pattern re-parses to the same template id and
bindings by construction. A question's text is its template's fill of its
bindings, so a question line whose text is another is a data error. Each
pattern is split at its slots once; its slots, literal prefix and size,
regex and fill all read that one split. Slots are typed: ordinals and
thresholds match tight sub-regexes, text slots match lazily, and repeated
slot names compile to backreferences so both mentions must agree.

Parsing tries only the templates a question's literal prefix admits: an
index keyed by the text before each pattern's first slot picks the
candidates, and most-literal-first priority orders them, which resolves
the few cases where a short pattern would otherwise swallow a longer
one's surface text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources

from .corpus import data_rows

CATEGORIES = ("structural", "data_retrieval", "reasoning")
ANSWER_TYPES = ("yes_no", "fixed_vocab", "open_vocab")

_SLOT_RE = re.compile(r"\{([a-z_0-9]+)\}")

_SLOT_PATTERNS = {
    "i": r"\d+(?:st|nd|rd|th)",
    "j": r"\d+(?:st|nd|rd|th)",
    "n": r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?",
    "figure_type": r"bar|line|dotline",
    "incl": r"inclusive|exclusive",
}
_DEFAULT_SLOT_PATTERN = r".+?"

class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class Template:
    id: int
    category: str
    answer_type: str
    surface_pattern: str

    @cached_property
    def _parts(self) -> tuple[str, ...]:
        """The pattern split at its slots: literals at even positions, slot names at odd ones."""
        return tuple(_SLOT_RE.split(self.surface_pattern))

    @cached_property
    def slots(self) -> tuple[str, ...]:
        """Slot names in order of first appearance."""
        return tuple(dict.fromkeys(self._parts[1::2]))

    @cached_property
    def legend_slots(self) -> tuple[str, ...]:
        """The slots that each name one series (``legend_label``,
        ``legend_label2``, ...), in order of first appearance."""
        return tuple(s for s in self.slots if s.startswith("legend_label"))

    @property
    def literal_size(self) -> int:
        return sum(map(len, self._parts[::2]))

    @property
    def literal_prefix(self) -> str:
        """The pattern text before the first slot (all of it when there is
        no slot); every text the pattern matches starts with it."""
        return self._parts[0]

    def compile(self) -> re.Pattern:
        out = []
        seen: set[str] = set()
        for k, part in enumerate(self._parts):
            if k % 2 == 0:
                out.append(re.escape(part))
            elif part in seen:
                out.append(f"(?P={part})")
            else:
                seen.add(part)
                out.append(f"(?P<{part}>{_SLOT_PATTERNS.get(part, _DEFAULT_SLOT_PATTERN)})")
        return re.compile("".join(out))

    def fill(self, bindings: dict[str, str]) -> str:
        """Substitute bindings into the pattern; every slot must be bound."""
        parts = list(self._parts)
        try:
            parts[1::2] = [str(bindings[name]) for name in parts[1::2]]
        except KeyError as e:
            raise TemplateError(f"unbound slot {e.args[0]!r} in template {self.id}") from None
        text = "".join(parts)
        if "{" in text or "}" in text:
            raise TemplateError(f"unfilled slot marker remains in {text!r}")
        return text


def _parse_templates(text: str) -> list[Template]:
    out = []
    for lineno, (tid_s, category, answer_type, pattern) in data_rows(text, 4, TemplateError):
        try:
            tid = int(tid_s)
        except ValueError:
            raise TemplateError(f"line {lineno}: template id {tid_s!r} is not an integer")
        if category not in CATEGORIES:
            raise TemplateError(f"line {lineno}: bad category {category!r}")
        if answer_type not in ANSWER_TYPES:
            raise TemplateError(f"line {lineno}: bad answer_type {answer_type!r}")
        out.append(Template(tid, category, answer_type, pattern))
    ids = [t.id for t in out]
    if len(set(ids)) != len(ids):
        raise TemplateError("duplicate template ids")
    return out


def load_templates() -> list[Template]:
    """Load the bundled 74-template grammar."""
    return _parse_templates(resources.files("plotquest.data").joinpath("templates.txt").read_text("utf-8"))


class TemplateMatcher:
    """Matches question texts back to (template, bindings).

    The prefix index picks the candidates and priority orders them. Each
    distinct literal prefix P, the empty one always among them, maps to
    every template whose prefix P starts with, most-literal-first. A text
    is looked up under the longest prefix it starts with: every prefix it
    starts with is a prefix of that one, so the candidates are exactly the
    templates that could match it, in priority order."""

    def __init__(self, templates: list[Template]):
        ordered = sorted(templates, key=lambda t: (-t.literal_size, t.id))
        compiled = [(t, t.compile()) for t in ordered]
        prefixes = sorted({""} | {t.literal_prefix for t in ordered}, key=lambda p: (-len(p), p))
        self._candidates = {p: [(t, rx) for t, rx in compiled if p.startswith(t.literal_prefix)]
                            for p in prefixes}
        # alternation takes the first alternative that matches: the longest
        self._prefix_rx = re.compile("|".join(map(re.escape, prefixes)))

    def match(self, text: str) -> tuple[Template, dict[str, str]] | None:
        for template, rx in self._candidates[self._prefix_rx.match(text).group()]:
            m = rx.fullmatch(text)
            if m:
                return template, m.groupdict()
        return None


@cache
def default_templates() -> list[Template]:
    return load_templates()


@cache
def templates_by_id() -> dict[int, Template]:
    return {t.id: t for t in default_templates()}


@cache
def default_matcher() -> TemplateMatcher:
    return TemplateMatcher(default_templates())


def ordinal(k: int) -> str:
    """1 -> '1st', 2 -> '2nd', 11 -> '11th', 23 -> '23rd'."""
    if 10 <= k % 100 <= 20:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(k % 10, "th")
    return f"{k}{suffix}"


def parse_ordinal(s: str) -> int:
    m = re.fullmatch(r"(\d+)(?:st|nd|rd|th)", s)
    if not m:
        raise ValueError(f"not an ordinal: {s!r}")
    return int(m.group(1))
