from __future__ import annotations

import json
import re
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path, load_fixture
from thinkctl.qa import (
    DEFAULT_INSTRUCTION,
    FALLBACK_CASCADE,
    FALLBACK_CASCADE_VERSION,
    METHOD_BOXED,
    METHOD_FALLBACK,
    METHOD_NONE,
    STANDALONE_TAIL,
    ExtractionOutcome,
    _fallback_patterns,
    McqQuestion,
    extract_answer,
    format_options,
    format_prompt,
)

YNM = {"A": "yes", "B": "no", "C": "maybe"}


def make_question(**overrides) -> McqQuestion:
    base = dict(id="q1", stem="Is this a question?", options=dict(YNM), gold="A", source="demo")
    base.update(overrides)
    return McqQuestion(**base)


# --- question validation ----------------------------------------------------


def test_question_requires_two_options():
    with pytest.raises(ValueError):
        make_question(options={"A": "only"})


def test_question_letters_must_be_consecutive_from_a():
    with pytest.raises(ValueError):
        make_question(options={"B": "x", "C": "y"})
    with pytest.raises(ValueError):
        make_question(options={"A": "x", "C": "y"})


def test_question_gold_must_be_an_option():
    with pytest.raises(ValueError):
        make_question(gold="D")


def test_question_option_texts_and_source_must_be_strings():
    with pytest.raises(ValueError, match="option 'A' must be a string, got 1"):
        make_question(options={"A": 1, "B": "x"})
    with pytest.raises(ValueError, match="source must be a string, got None"):
        make_question(source=None)


# --- prompt formatting --------------------------------------------------------


def test_format_options_canonical_example():
    assert format_options(YNM) == "A. yes\nB. no\nC. maybe"


def test_format_options_single_entry():
    assert format_options({"A": "x"}) == "A. x"


def test_format_options_five_letters_in_order():
    options = {letter: f"text {letter}" for letter in "ABCDE"}
    lines = format_options(options).split("\n")
    assert len(lines) == 5
    assert [line[0] for line in lines] == ["A", "B", "C", "D", "E"]
    assert not format_options(options).endswith("\n")


def test_format_prompt_layout_and_default_instruction():
    q = make_question()
    prompt = format_prompt(q)
    assert prompt == f"Is this a question?\nA. yes\nB. no\nC. maybe\n{DEFAULT_INSTRUCTION}"
    assert prompt.endswith("Return your final response within \\boxed{}.")


def test_format_prompt_empty_stem_permitted_but_warned(caplog):
    with caplog.at_level("WARNING", logger="thinkctl.qa"):
        prompt = format_prompt(make_question(stem=""))
    assert prompt.startswith("\n")
    assert any("empty stem" in rec.message for rec in caplog.records)


def parse_options_block(block: str) -> list[str]:
    """Parse-back oracle: recover the letters of an options block."""
    letters = []
    for line in block.split("\n"):
        match = re.match(r"^([A-Z])\. ", line)
        if match:
            letters.append(match.group(1))
    return letters


def test_options_round_trip_recovers_letters():
    q = make_question(options={"A": "alpha", "B": "beta", "C": "gamma", "D": "delta"}, gold="A")
    block = format_options(q.options)
    assert parse_options_block(block) == ["A", "B", "C", "D"]


_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    min_size=0,
    max_size=20,
)


@given(stem=_texts, opts=st.lists(_texts, min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_format_prompt_parse_back_property(stem, opts):
    letters = [chr(ord("A") + i) for i in range(len(opts))]
    q = McqQuestion(id="p", stem=stem, options=dict(zip(letters, opts)), gold="A")
    block = format_options(q.options)
    # texts without embedded newlines always parse back to the same letters
    assert parse_options_block(block) == letters


# --- extraction ---------------------------------------------------------------


CASES = load_fixture("extraction_cases.jsonl")


def case_options(case) -> dict[str, str]:
    """A case's options; a ``letters`` case has no option texts to match."""
    return case.get("options") or dict.fromkeys(case["letters"], "")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_extraction_fixture(case):
    options = case_options(case)
    outcome = extract_answer(case["text"], options)
    assert outcome.letter == case["letter"], case["name"]
    assert outcome.method == case["method"], case["name"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_first_match_decoy_property(case):
    options = case_options(case)
    letters = list(options)
    for decoy in letters:
        outcome = extract_answer(f"\\boxed{{{decoy}}} {case['text']}", options)
        assert outcome.letter == decoy
        assert outcome.method == METHOD_BOXED


def test_fixture_corpus_is_large_enough():
    assert len(CASES) >= 40
    methods = {c["method"] for c in CASES}
    assert methods == {METHOD_BOXED, METHOD_FALLBACK, METHOD_NONE}


def test_cascade_table_matches_versioned_snapshot():
    snapshot = load_fixture("fallback_cascade.json")
    assert snapshot["version"] == FALLBACK_CASCADE_VERSION
    assert snapshot["standalone_tail"] == STANDALONE_TAIL
    assert [list(row) for row in FALLBACK_CASCADE] == snapshot["patterns"]


def test_fallback_cascade_follows_each_calls_letters():
    text = "the answer is (E)"
    two, five = dict.fromkeys("AB", ""), dict.fromkeys("ABCDE", "")
    assert extract_answer(text, two).letter is None
    assert extract_answer(text, five).letter == "E"
    assert extract_answer(text, two).letter is None


def test_extract_rejects_empty_options():
    with pytest.raises(ValueError):
        extract_answer("text", {})


@given(text=st.text(max_size=400))
@settings(max_examples=300, deadline=None)
def test_extraction_pure_and_total(text):
    first = extract_answer(text, YNM)
    second = extract_answer(text, YNM)
    assert first == second
    assert first.method in (METHOD_BOXED, METHOD_FALLBACK, METHOD_NONE)
    if first.letter is not None:
        assert first.letter in YNM


@given(text=st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_decoy_property_on_arbitrary_text(text):
    outcome = extract_answer("\\boxed{C} " + text, YNM)
    assert outcome.letter == "C"
    assert outcome.method == METHOD_BOXED


# --- grading ------------------------------------------------------------------


def test_grade_batch_fixture_accuracy():
    # a verdict is the extracted letter equal to the gold one (TraceRecord's
    # rule); no letter grades incorrect
    batch = load_fixture("grading_batch.json")["pairs"]
    outcomes = [ExtractionOutcome(p["letter"], METHOD_BOXED if p["letter"] else METHOD_NONE) for p in batch]
    correct = sum(o.letter == p["gold"] for o, p in zip(outcomes, batch))
    assert correct / len(batch) == 0.7


def test_outcome_invariant_enforced():
    with pytest.raises(ValueError):
        ExtractionOutcome(None, METHOD_BOXED)
    with pytest.raises(ValueError):
        ExtractionOutcome("A", METHOD_NONE)


# --- extract_answer against the option handling it replaced -------------------
# The extractor before it took a question's options as they are, and before
# its patterns were compiled once. Kept verbatim as the reference, less the
# evidence span it returned; the fallback cascade is shared. Only options
# that McqQuestion accepts are drawn.


def reference_normalize_options(options) -> dict[str, str]:
    if isinstance(options, Mapping):
        return {str(k).upper(): str(v) for k, v in options.items()}
    return {str(letter).upper(): "" for letter in options}


def reference_iter_boxed(text: str):
    for match in re.finditer(r"\\boxed\s*\{", text):
        depth = 1
        pos = match.end()
        while pos < len(text) and depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        if depth == 0:
            yield text[match.end() : pos - 1]


def reference_resolve_boxed(content: str, options: dict[str, str]) -> str | None:
    content = content.strip()
    if not content:
        return None
    upper = content.upper()
    if upper in options:
        return upper
    if len(content) == 2 and content[1] in ".)" and upper[0] in options:
        return upper[0]
    lead = re.match(r"^([A-Za-z])[.):]?\s+(.*)$", content, re.DOTALL)
    if lead and lead.group(1).upper() in options:
        letter = lead.group(1).upper()
        if lead.group(2).strip().casefold() == options[letter].strip().casefold():
            return letter
    for letter, option_text in options.items():
        if option_text and content.casefold() == option_text.strip().casefold():
            return letter
    return None


def reference_extract_answer(text: str, options) -> ExtractionOutcome:
    option_map = reference_normalize_options(options)
    if not option_map:
        raise ValueError("options must be nonempty")
    for content in reference_iter_boxed(text):
        letter = reference_resolve_boxed(content, option_map)
        if letter is not None:
            return ExtractionOutcome(letter, METHOD_BOXED)
    for name, pattern in _fallback_patterns(tuple(option_map)):
        if name == "standalone":
            region = text[max(0, len(text) - STANDALONE_TAIL) :]
        else:
            region = text
        match = pattern.search(region)
        if match:
            letter = next(g for g in match.groups() if g is not None).upper()
            return ExtractionOutcome(letter, METHOD_FALLBACK)
    return ExtractionOutcome(None, METHOD_NONE)


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


_OPTION_TEXTS = st.sampled_from(["yes", "no", " Maybe ", "", "b. no", "1", "\u00df"])
_EXTRACT_OPTIONS = st.lists(_OPTION_TEXTS, min_size=2, max_size=5).map(
    lambda texts: make_question(options=dict(zip("ABCDE", texts))).options
)
_EXTRACT_PIECES = ["\\boxed{", "\\boxed {", "{", "}", "A", "b", "C", "d", "\u00df", "1", "yes", "No", " maybe ", "answer is ",
                   "Answer: ", "option ", "(", ")", ".", " ", "\n"]  # fmt: skip


@given(pieces=st.lists(st.sampled_from(_EXTRACT_PIECES), max_size=24), options=_EXTRACT_OPTIONS)
@settings(max_examples=300, deadline=None)
@example(pieces=["\\boxed{", "b", "}"], options={"A": "yes", "B": "no"})
@example(pieces=["\\boxed{", "1", "}"], options={"A": "1", "B": "no"})  # a numeral text
@example(pieces=["answer is ", "b"], options={"A": "", "B": ""})  # letters only
def test_extract_answer_matches_the_reference(pieces, options):
    text = "".join(pieces)
    assert outcome_or_error(extract_answer, text, options) == outcome_or_error(reference_extract_answer, text, options)
