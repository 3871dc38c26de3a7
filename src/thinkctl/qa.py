"""Prompt construction and answer extraction for multiple-choice QA.

The prompt layout is a bit-exact contract:
``{question}\\n{options}\\n{instruction}``, for evaluation and for
fine-tuning examples alike. Extraction scans ``\\boxed{...}`` expressions
first and falls back to a versioned regex cascade; absence of a match is an
outcome, not an error.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping

DEFAULT_INSTRUCTION = "Return your final response within \\boxed{}."

METHOD_BOXED = "boxed"
METHOD_FALLBACK = "regex_fallback"
METHOD_NONE = "none"

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class McqQuestion:
    """One multiple-choice item with lettered options.

    Option letters are consecutive from 'A'; the gold answer must be one of
    them. Option texts and ``source`` are strings. ``domains`` holds
    MeSH-qualifier style labels used as sampling strata; it defaults to a
    new empty list. Slotted: a loaded pool keeps no ``__dict__`` per
    question. Compared by value.
    """

    __slots__ = ("id", "stem", "options", "gold", "source", "domains")

    def __init__(
        self,
        id: str,
        stem: str,
        options: dict[str, str],
        gold: str,
        source: str = "",
        domains: list[str] | None = None,
    ) -> None:
        letters = list(options)
        if len(letters) < 2:
            raise ValueError(f"question {id!r}: needs at least 2 options")
        if letters != list(_LETTERS[: len(letters)]):
            raise ValueError(f"question {id!r}: option letters must be consecutive from 'A', got {letters}")
        if gold not in options:
            raise ValueError(f"question {id!r}: gold {gold!r} not among options")
        for letter, text in options.items():
            if not isinstance(text, str):
                raise ValueError(f"question {id!r}: option {letter!r} must be a string, got {text!r}")
        if not isinstance(source, str):
            raise ValueError(f"question {id!r}: source must be a string, got {source!r}")
        self.id = id
        self.stem = stem
        self.options = options
        self.gold = gold
        self.source = source
        self.domains = [] if domains is None else domains

    def _key(self) -> tuple:
        return self.id, self.stem, self.options, self.gold, self.source, self.domains

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return (
            f"McqQuestion(id={self.id!r}, stem={self.stem!r}, options={self.options!r}, gold={self.gold!r}, "
            f"source={self.source!r}, domains={self.domains!r})"
        )


class ExtractionOutcome:
    """Result of scanning a completion for an answer letter.

    ``letter`` is present iff ``method`` is not ``none``; ``span`` is the
    character range of the matched evidence in the source text. Compared
    by value.
    """

    __slots__ = ("letter", "method", "span")

    def __init__(self, letter: str | None, method: str, span: tuple[int, int] | None) -> None:
        if (letter is None) != (method == METHOD_NONE):
            raise ValueError("letter must be present exactly when method != none")
        self.letter = letter
        self.method = method
        self.span = span

    def _key(self) -> tuple:
        return self.letter, self.method, self.span

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ExtractionOutcome(letter={self.letter!r}, method={self.method!r}, span={self.span!r})"


def format_options(options: Mapping[str, str]) -> str:
    """Render options one per line as ``<letter>. <text>``, no trailing newline."""
    return "\n".join(f"{letter}. {text}" for letter, text in options.items())


def format_prompt(question: McqQuestion) -> str:
    """Evaluation prompt: question, then options, then ``DEFAULT_INSTRUCTION``."""
    if not question.stem:
        import logging  # here, so that only a run that logs loads it

        logging.getLogger(__name__).warning("question %s has an empty stem; prompt will start with a newline", question.id)
    return f"{question.stem}\n{format_options(question.options)}\n{DEFAULT_INSTRUCTION}"


# Fallback patterns applied, in order, when no boxed expression resolves.
# {letters} expands to the allowed-letter alternation. The table is
# versioned so that any change is visible to the fixture snapshot test.
FALLBACK_CASCADE_VERSION = 1
FALLBACK_CASCADE: tuple[tuple[str, str], ...] = (
    ("answer-is", r"answer\s+is\s*:?\s*\(?({letters})\)?(?![A-Za-z])"),
    ("answer-colon", r"answer\s*:\s*\(?({letters})\)?(?![A-Za-z])"),
    ("option", r"option\s+\(?({letters})\)?(?![A-Za-z])"),
    ("standalone", r"(?<![A-Za-z])(?:\(({letters})\)|({letters})\.)"),
)
# the standalone pattern only applies to this many final characters
STANDALONE_TAIL = 200


@functools.lru_cache(maxsize=64)
def _fallback_patterns(letters: tuple[str, ...]) -> tuple[tuple[str, re.Pattern], ...]:
    alternation = "|".join(map(re.escape, letters))
    return tuple((name, re.compile(t.format(letters=alternation), re.IGNORECASE)) for name, t in FALLBACK_CASCADE)


_BOXED = re.compile(r"\\boxed\s*\{")
_LETTER_LEAD = re.compile(r"^([A-Za-z])[.):]?\s+(.*)$", re.DOTALL)


def _iter_boxed(text: str):
    """Yield (content, span) for each ``\\boxed{...}`` with balanced braces."""
    for match in _BOXED.finditer(text):
        depth = 1
        pos = match.end()
        while pos < len(text) and depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        if depth == 0:
            yield text[match.end() : pos - 1], (match.start(), pos)


def _resolve_boxed(content: str, options: Mapping[str, str]) -> str | None:
    content = content.strip()
    if not content:
        return None
    upper = content.upper()
    # bare letter, or letter followed by "." / ")"
    if upper in options:
        return upper
    if len(content) == 2 and content[1] in ".)" and upper[0] in options:
        return upper[0]
    # letter plus the option text, e.g. "B. no" / "B) no"
    lead = _LETTER_LEAD.match(content)
    if lead and lead.group(1).upper() in options:
        letter = lead.group(1).upper()
        if lead.group(2).strip().casefold() == options[letter].strip().casefold():
            return letter
    # the full option text, mapped back to its letter
    for letter, option_text in options.items():
        if option_text and content.casefold() == option_text.strip().casefold():
            return letter
    return None


def extract_answer(text: str, options: Mapping[str, str]) -> ExtractionOutcome:
    """Extract an answer letter from a completion.

    ``options`` is a question's letter->text mapping, as
    ``McqQuestion.options`` holds it. Boxed expressions are scanned first;
    the earliest one that resolves to an allowed letter wins. Otherwise the
    fallback cascade applies, stage by stage, earliest span winning within a
    stage. Pure and total: any text yields exactly one outcome.
    """
    if not options:
        raise ValueError("options must be nonempty")

    for content, span in _iter_boxed(text):
        letter = _resolve_boxed(content, options)
        if letter is not None:
            return ExtractionOutcome(letter, METHOD_BOXED, span)

    for name, pattern in _fallback_patterns(tuple(options)):
        if name == "standalone":
            offset = max(0, len(text) - STANDALONE_TAIL)
            region = text[offset:]
        else:
            offset = 0
            region = text
        match = pattern.search(region)
        if match:
            letter = match[match.lastindex].upper()  # each pattern's one matching group
            span = (offset + match.start(), offset + match.end())
            return ExtractionOutcome(letter, METHOD_FALLBACK, span)

    return ExtractionOutcome(None, METHOD_NONE, None)

