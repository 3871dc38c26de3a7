from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, load_fixture
from thinkctl.qa import (
    COT_INSTRUCTION,
    DEFAULT_INSTRUCTION,
    FALLBACK_CASCADE,
    FALLBACK_CASCADE_VERSION,
    METHOD_BOXED,
    METHOD_FALLBACK,
    METHOD_NONE,
    STANDALONE_TAIL,
    ExtractionOutcome,
    McqQuestion,
    extract_answer,
    format_options,
    format_prompt,
    format_trace_prompt,
    grade,
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


def test_format_prompt_cot_instruction():
    prompt = format_prompt(make_question(), COT_INSTRUCTION)
    assert "Let's think step by step." in prompt


def test_format_prompt_rejects_empty_instruction():
    with pytest.raises(ValueError):
        format_prompt(make_question(), "")


def test_format_prompt_empty_stem_permitted_but_warned(caplog):
    with caplog.at_level("WARNING", logger="thinkctl.qa"):
        prompt = format_prompt(make_question(stem=""))
    assert prompt.startswith("\n")
    assert any("empty stem" in rec.message for rec in caplog.records)


def test_trace_prompt_puts_instruction_first():
    q = make_question()
    trace = format_trace_prompt(q)
    assert trace.startswith("Return your final response within \\boxed{")
    assert trace == f"{DEFAULT_INSTRUCTION}\nIs this a question?\nA. yes\nB. no\nC. maybe"


def test_trace_and_eval_prompts_differ_only_in_ordering():
    q = make_question()
    eval_parts = format_prompt(q).split("\n")
    trace_parts = format_trace_prompt(q).split("\n")
    assert sorted(eval_parts) == sorted(trace_parts)


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
    block = format_trace_prompt(q).split("\n", 2)[2]
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


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_extraction_fixture(case):
    options = case.get("options") or case["letters"]
    outcome = extract_answer(case["text"], options)
    assert outcome.letter == case["letter"], case["name"]
    assert outcome.method == case["method"], case["name"]
    if outcome.method != METHOD_NONE:
        start, end = outcome.span
        assert 0 <= start < end <= len(case["text"])


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_first_match_decoy_property(case):
    options = case.get("options") or case["letters"]
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


def test_extraction_span_points_at_evidence():
    text = "preamble \\boxed{B} postamble"
    outcome = extract_answer(text, YNM)
    start, end = outcome.span
    assert text[start:end] == "\\boxed{B}"


def test_fallback_cascade_follows_each_calls_letters():
    text = "the answer is (E)"
    assert extract_answer(text, "AB").letter is None
    assert extract_answer(text, "ABCDE").letter == "E"
    assert extract_answer(text, "AB").letter is None


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
        start, end = first.span
        assert 0 <= start <= end <= len(text)


@given(text=st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_decoy_property_on_arbitrary_text(text):
    outcome = extract_answer("\\boxed{C} " + text, YNM)
    assert outcome.letter == "C"
    assert outcome.method == METHOD_BOXED
    assert outcome.span == (0, len("\\boxed{C}"))


# --- grading ------------------------------------------------------------------


def test_grade_exact_match():
    assert grade(ExtractionOutcome("B", METHOD_BOXED, (0, 1)), "B")
    assert not grade(ExtractionOutcome("A", METHOD_BOXED, (0, 1)), "B")


def test_grade_none_is_false():
    assert not grade(ExtractionOutcome(None, METHOD_NONE, None), "B")


def test_grade_batch_fixture_accuracy():
    batch = load_fixture("grading_batch.json")["pairs"]
    outcomes = [
        ExtractionOutcome(p["letter"], METHOD_BOXED if p["letter"] else METHOD_NONE, (0, 1) if p["letter"] else None)
        for p in batch
    ]
    correct = sum(grade(o, p["gold"]) for o, p in zip(outcomes, batch))
    assert correct / len(batch) == 0.7


def test_outcome_invariant_enforced():
    with pytest.raises(ValueError):
        ExtractionOutcome(None, METHOD_BOXED, (0, 1))
    with pytest.raises(ValueError):
        ExtractionOutcome("A", METHOD_NONE, None)
