from __future__ import annotations

import hashlib
import random
from typing import Sequence

import pytest

from conftest import random_scripted_model
from thinkctl.curation import format_sft_example, validate_traces
from thinkctl.evaluation import evaluate
from thinkctl.jsonl import load_traces, outcome_to_record, write_jsonl
from thinkctl.qa import McqQuestion
from thinkctl.budget import (
    ANSWER_CUE,
    ANSWER_MARKER,
    PROVENANCE_INITIAL,
    THINK_MARKER,
    BudgetPolicy,
    BudgetRunError,
    ReasoningTranscript,
    Segment,
    TERMINATION_BUDGET,
    TERMINATION_FORCING,
    TERMINATION_NATURAL,
    run_with_budget,
)
from thinkctl.client import ConnectionFailure, ScriptEntry, ScriptedModel


def words(prefix: str, n: int) -> str:
    return " ".join(f"{prefix}{i}" for i in range(n))


def forcing_model(initial: int, per_round: int, answer: str = "\\boxed{B}") -> ScriptedModel:
    """Thinks `initial` tokens, and after each "Wait." injection thinks
    `per_round` more, always offering to stop via the end-of-think marker."""
    return ScriptedModel(
        (
            ScriptEntry("Wait.", words("w", per_round), ANSWER_MARKER),
            ScriptEntry("Final Answer:", answer, None),
            ScriptEntry("", words("t", initial), ANSWER_MARKER),
        )
    )


def test_policy_defaults_match_operating_point():
    policy = BudgetPolicy()
    assert policy.thinking_budget == 4096
    assert policy.forcing_text == "Wait."
    assert policy.per_forcing_cap == 2048
    assert policy.forcing_count == 0
    assert policy.think_marker == THINK_MARKER
    assert policy.end_of_think_marker == ANSWER_MARKER


def test_policy_validation():
    with pytest.raises(ValueError):
        BudgetPolicy(thinking_budget=0)
    with pytest.raises(ValueError):
        BudgetPolicy(per_forcing_cap=0)
    with pytest.raises(ValueError):
        BudgetPolicy(forcing_count=1, forcing_text="")
    BudgetPolicy(forcing_count=0, forcing_text="")  # allowed when unused


def test_natural_end_without_forcing():
    model = forcing_model(5, 3)
    transcript = run_with_budget("Q?", BudgetPolicy(thinking_budget=4096, forcing_count=0), model)
    assert [(s.provenance, s.n_tokens) for s in transcript.segments] == [("initial", 5)]
    assert transcript.injections == 0
    assert transcript.termination == TERMINATION_NATURAL
    assert transcript.answer_text == "\\boxed{B}"


def test_forcing_trace_matches_hand_replay():
    # hand-traced: 10 initial tokens, two forced rounds of 7, both forcings used
    model = forcing_model(10, 7)
    policy = BudgetPolicy(thinking_budget=4096, forcing_count=2)
    transcript = run_with_budget("Q?", policy, model)
    assert [(s.provenance, s.n_tokens) for s in transcript.segments] == [
        ("initial", 10),
        ("forced(1)", 7),
        ("forced(2)", 7),
    ]
    assert transcript.injections == 2
    assert transcript.thinking_tokens == 24
    assert transcript.termination == TERMINATION_FORCING


def test_budget_cut_transitions_to_answer():
    model = forcing_model(50, 7)
    transcript = run_with_budget("Q?", BudgetPolicy(thinking_budget=8, forcing_count=3), model)
    assert transcript.segments[0] == Segment("initial", "".join(f"t{i} " for i in range(8)), 8)  # cut by the cap after "t7 "
    assert transcript.termination == TERMINATION_BUDGET
    assert transcript.injections == 0
    assert transcript.answer_text == "\\boxed{B}"


def test_forced_segment_capped_by_per_forcing_cap():
    model = forcing_model(5, 100)
    policy = BudgetPolicy(thinking_budget=4096, forcing_count=2, per_forcing_cap=10)
    transcript = run_with_budget("Q?", policy, model)
    assert [(s.provenance, s.n_tokens) for s in transcript.segments] == [
        ("initial", 5),
        ("forced(1)", 10),
    ]
    assert transcript.termination == TERMINATION_BUDGET


def test_marker_never_stored_in_segments():
    model = ScriptedModel(
        (
            ScriptEntry("Final Answer:", "\\boxed{A}", None),
            ScriptEntry("", f"one two {ANSWER_MARKER} three", None),
        )
    )
    transcript = run_with_budget("Q?", BudgetPolicy(thinking_budget=100), model)
    assert transcript.segments == (Segment("initial", "one two ", 2),)
    assert ANSWER_MARKER not in transcript.thinking


def test_backend_stop_during_thinking_is_natural():
    model = ScriptedModel(
        (
            ScriptEntry("Final Answer:", "\\boxed{C}", None),
            ScriptEntry("", "ran out of script", None),
        )
    )
    transcript = run_with_budget("Q?", BudgetPolicy(thinking_budget=100, forcing_count=2), model)
    assert transcript.termination == TERMINATION_NATURAL
    assert transcript.injections == 0
    assert transcript.answer_text == "\\boxed{C}"


def test_empty_answer_sets_flag():
    # no entry matches the answer-phase context, so the answer is empty
    model = ScriptedModel((ScriptEntry(THINK_MARKER, "some thinking", ANSWER_MARKER),))
    transcript = run_with_budget("Q?", BudgetPolicy(thinking_budget=100), model)
    assert transcript.answer_text == ""
    assert transcript.termination == TERMINATION_NATURAL


@pytest.mark.parametrize("failing_call, phase", [(1, "thinking"), (2, "answer")])
def test_backend_error_names_its_phase_and_stays_retryable(failing_call, phase):
    class Flaky:
        def __init__(self):
            self.calls = 0

        def raw_stream(self, req):
            self.calls += 1
            if self.calls == failing_call:
                raise ConnectionFailure("died")
            yield from ["some", "thinking"]

    with pytest.raises(BudgetRunError) as excinfo:
        run_with_budget("Q?", BudgetPolicy(thinking_budget=100), Flaky())
    err = excinfo.value
    assert err.retryable
    assert str(err) == f"backend failed during {phase} phase: died"


def test_prefix_stability_when_forcing_count_grows():
    model = forcing_model(10, 7)
    for k in range(4):
        a = run_with_budget("Q?", BudgetPolicy(thinking_budget=4096, forcing_count=k), model)
        b = run_with_budget("Q?", BudgetPolicy(thinking_budget=4096, forcing_count=k + 1), model)
        shared = min(k + 1, len(a.segments), len(b.segments))
        assert a.segments[:shared] == b.segments[:shared]


def test_transcript_invariants_enforced():
    seg = Segment("initial", "ab", 2)
    with pytest.raises(ValueError):
        ReasoningTranscript((), "", "", TERMINATION_NATURAL)
    with pytest.raises(ValueError):
        ReasoningTranscript((seg, Segment("forced(2)", "c", 1)), "abWait.c", "", TERMINATION_NATURAL)


class RecordingBackend:
    """Serves a scripted model's emissions and logs every request it
    receives. It yields each whitespace unit with the space that follows
    it by its own code, so the pinned log below does not move with the
    scripted mock's implementation."""

    def __init__(self, model: ScriptedModel):
        self.model = model
        self.requests = []

    def raw_stream(self, req):
        self.requests.append(req)
        entry = self.model.match(req.prompt)
        if entry is None:
            return
        units = entry.emission.split()
        yield from [unit + " " for unit in units[:-1]] + units[-1:]
        if entry.terminal_marker is not None:
            yield entry.terminal_marker


# sha256 of the request log below; any change to the bytes of a generation
# context, or to a request's cap or stop marker, moves it
REQUEST_LOG_SHA256 = "61cf4e26a9f68400b520128e4d0ff949ef8e88993708e38010125308c2f43057"


def test_request_bytes_are_pinned():
    digest = hashlib.sha256()
    requests = 0
    for trial in range(250):
        rng = random.Random(10_000 + trial)
        model, _ = random_scripted_model(rng)
        policy = BudgetPolicy(thinking_budget=rng.randint(1, 200), forcing_count=rng.randint(0, 3))
        for prompt in ("Prompt?", ""):
            backend = RecordingBackend(model)
            run_with_budget(prompt, policy, backend)
            for req in backend.requests:
                record = (req.prompt, req.max_new_tokens, req.stop_on)
                digest.update(repr(record).encode("utf-8"))
            requests += len(backend.requests)
    assert requests == 1414
    assert digest.hexdigest() == REQUEST_LOG_SHA256


# The context builder the controller used before it kept one context per run
# and extended it, kept verbatim as the reference.
def render_context(prompt: str, segments: Sequence[Segment], policy: BudgetPolicy) -> str:
    """The generation context the model continues after ``segments``.

    Prompt, think marker, then each segment's text, with the forcing text
    before every forced segment, all concatenated. A forced segment with
    no tokens yet ends the context at its forcing text, which is how the
    request for the next forced continuation is built.
    """
    parts = [prompt, policy.think_marker]
    for seg in segments:
        if seg.provenance != PROVENANCE_INITIAL:
            parts.append(policy.forcing_text)
        parts.append(seg.text)
    return "".join(parts)


def test_every_request_context_matches_the_reference():
    forced = nonempty = 0
    for trial in range(400):
        rng = random.Random(20_000 + trial)
        model, _ = random_scripted_model(rng)
        policy = BudgetPolicy(
            thinking_budget=rng.randint(1, 200),
            forcing_count=rng.randint(0, 3),
            # a forcing text the script has no trigger for ends each forced
            # segment empty, by backend stop
            forcing_text=rng.choice(["Wait.", "Wait.", " Hmm,"]),
            per_forcing_cap=rng.choice([rng.randint(1, 60), 2048]),
        )
        prompt = rng.choice(["Prompt?", "", "Q: 2+2?\n"])
        backend = RecordingBackend(model)
        transcript = run_with_budget(prompt, policy, backend)
        segments = transcript.segments
        *thinking, answer = backend.requests
        assert len(thinking) == len(segments)
        for i, (req, segment) in enumerate(zip(thinking, segments)):
            assert req.prompt == render_context(prompt, [*segments[:i], Segment(segment.provenance, "", 0)], policy)
            assert req.max_new_tokens == (policy.thinking_budget if i == 0 else policy.per_forcing_cap)
            assert req.stop_on == ANSWER_MARKER
        assert answer.prompt == render_context(prompt, segments, policy) + ANSWER_MARKER + ANSWER_CUE
        assert answer.stop_on is None
        forced += len(segments) - 1
        nonempty += sum(1 for segment in segments[1:] if segment.n_tokens)
    assert (forced, nonempty) == (247, 101)  # forced segments, with and without tokens, are in the sample


def test_transcript_records_are_the_traces_validate_keeps(tmp_path):
    """Oracle for ``eval --out``: each run's record holds as ``thinking``
    the bytes the answer request sent between the markers, its segments are
    the run's provenance and token counts, summing to its thinking tokens,
    and read back as traces, validation keeps exactly the runs graded
    correct."""
    records, correct_ids, forced = [], [], 0
    for trial in range(200):
        rng = random.Random(30_000 + trial)
        model, _ = random_scripted_model(rng)
        policy = BudgetPolicy(
            thinking_budget=rng.randint(1, 200),
            forcing_count=rng.randint(0, 3),
            per_forcing_cap=rng.choice([rng.randint(1, 60), 2048]),
        )
        question = McqQuestion(f"q{trial:03d}", f"Case {trial}?", {"A": "a", "B": "b", "C": "c"}, rng.choice("ABC"), "s")
        backend = RecordingBackend(model)
        (outcome,) = evaluate([question], backend, policy, workers=1).outcomes
        record = outcome_to_record(outcome, "d.jsonl")
        answer = backend.requests[-1].prompt
        assert answer.endswith(ANSWER_MARKER + ANSWER_CUE)
        start = answer.index(THINK_MARKER) + len(THINK_MARKER)
        assert record["thinking"] == answer[start : answer.rindex(ANSWER_MARKER)]
        segments = outcome.transcript.segments
        assert [(s["provenance"], s["n_tokens"]) for s in record["segments"]] == [(s.provenance, s.n_tokens) for s in segments]
        assert sum(s["n_tokens"] for s in record["segments"]) == record["thinking_tokens"] == outcome.thinking_tokens
        assert render_context("", segments, policy) == THINK_MARKER + record["thinking"]
        assert (record["answer"], record["response"]) == (question.gold, outcome.transcript.answer_text)
        assert record["termination"] == outcome.transcript.termination
        records.append(record)
        forced += len(record["segments"]) - 1
        if outcome.verified:
            correct_ids.append(question.id)
    path = str(tmp_path / "traces.jsonl")
    write_jsonl(path, records, meta={})
    kept, row = validate_traces(load_traces(path))
    assert [t.question.id for t in kept] == correct_ids
    assert row.total == len(correct_ids)
    for trace in kept:
        assert f"{THINK_MARKER}\n{trace.thinking}\n{ANSWER_MARKER}" in format_sft_example(trace)
    # both outcomes, and forced runs, are in the sample
    assert 0 < len(correct_ids) < len(records) and forced > 0
