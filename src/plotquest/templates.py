"""The closed question grammar: template records and the shared
pattern-matching machinery.

Templates live in ``data/templates.txt`` (id | category | answer_type |
pattern) so the generator and the parser work from one grammar source; a
question filled from a pattern re-parses to the same template id and
bindings by construction. Slots are typed: ordinals and thresholds match
tight sub-regexes, text slots match lazily, and repeated slot names
compile to backreferences so both mentions must agree.

Template order during parsing is most-literal-first, which resolves the
few cases where a short pattern would otherwise swallow a longer one's
surface text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources

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
    def slots(self) -> tuple[str, ...]:
        """Slot names in order of first appearance."""
        return tuple(dict.fromkeys(m.group(1) for m in _SLOT_RE.finditer(self.surface_pattern)))

    @cached_property
    def legend_slots(self) -> tuple[str, ...]:
        """The slots that each name one series (``legend_label``,
        ``legend_label2``, ...), in order of first appearance."""
        return tuple(s for s in self.slots if s.startswith("legend_label"))

    @property
    def literal_size(self) -> int:
        return len(_SLOT_RE.sub("", self.surface_pattern))

    def compile(self) -> re.Pattern:
        out = []
        pos = 0
        seen: set[str] = set()
        for m in _SLOT_RE.finditer(self.surface_pattern):
            out.append(re.escape(self.surface_pattern[pos:m.start()]))
            name = m.group(1)
            if name in seen:
                out.append(f"(?P={name})")
            else:
                seen.add(name)
                sub = _SLOT_PATTERNS.get(name, _DEFAULT_SLOT_PATTERN)
                out.append(f"(?P<{name}>{sub})")
            pos = m.end()
        out.append(re.escape(self.surface_pattern[pos:]))
        return re.compile("".join(out))

    def fill(self, bindings: dict[str, str]) -> str:
        """Substitute bindings into the pattern; every slot must be bound."""
        def sub(m: re.Match) -> str:
            name = m.group(1)
            if name not in bindings:
                raise TemplateError(f"unbound slot {name!r} in template {self.id}")
            return str(bindings[name])

        text = _SLOT_RE.sub(sub, self.surface_pattern)
        if "{" in text or "}" in text:
            raise TemplateError(f"unfilled slot marker remains in {text!r}")
        return text


def load_templates() -> list[Template]:
    """Load the bundled 74-template grammar."""
    text = resources.files("plotquest.data").joinpath("templates.txt").read_text("utf-8")
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise TemplateError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        tid_s, category, answer_type, pattern = parts
        if category not in CATEGORIES:
            raise TemplateError(f"line {lineno}: bad category {category!r}")
        if answer_type not in ANSWER_TYPES:
            raise TemplateError(f"line {lineno}: bad answer_type {answer_type!r}")
        out.append(Template(int(tid_s), category, answer_type, pattern))
    ids = [t.id for t in out]
    if len(set(ids)) != len(ids):
        raise TemplateError("duplicate template ids")
    return out


class TemplateMatcher:
    """Matches question texts back to (template, bindings)."""

    def __init__(self, templates: list[Template]):
        ordered = sorted(templates, key=lambda t: (-t.literal_size, t.id))
        self._compiled = [(t, t.compile()) for t in ordered]

    def match(self, text: str) -> tuple[Template, dict[str, str]] | None:
        for template, rx in self._compiled:
            m = rx.fullmatch(text)
            if m:
                return template, {k: v for k, v in m.groupdict().items() if v is not None}
        return None


@cache
def default_templates() -> list[Template]:
    return load_templates()


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
