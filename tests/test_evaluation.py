from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_json_round_trip, json_text, json_values
from thinkctl.budget import ANSWER_CUE, ANSWER_MARKER, THINK_MARKER, BudgetPolicy
from thinkctl import client
from thinkctl.client import ConnectionFailure, GenerationRequest, ScriptEntry, ScriptedModel
from thinkctl.evaluation import (
    DEFAULT_BUDGET_GRID,
    KIND_BUDGET,
    KIND_FORCING,
    SweepPoint,
    SweepResult,
    budget_sweep,
    evaluate,
    forcing_sweep,
    macro_average,
)
from thinkctl.qa import format_prompt


@pytest.fixture
def make_questions(questions_abcd):
    def build(n: int, golds: str = "BACD"):
        return [questions_abcd(f"q{i:02d}", gold=golds[i % len(golds)]) for i in range(n)]

    return build


def oracle_model(questions) -> ScriptedModel:
    """Thinks briefly, then answers each question's gold letter; the answer
    entry triggers on the question-specific thought tail."""
    entries = []
    for q in questions:
        entries.append(
            ScriptEntry(
                f"thought-{q.id}{ANSWER_MARKER}Final Answer:",
                f"\\boxed{{{q.gold}}}",
                None,
            )
        )
        entries.append(ScriptEntry(format_prompt(q) + "<|im_start|>think", f"thought-{q.id}", ANSWER_MARKER))
    return ScriptedModel(tuple(entries))


def silent_model() -> ScriptedModel:
    return ScriptedModel(
        (
            ScriptEntry("Final Answer:", "mumbling without commitment", None),
            ScriptEntry("", "pondering quietly", ANSWER_MARKER),
        )
    )


def test_oracle_mock_scores_full_accuracy(make_questions):
    questions = make_questions(6)
    result = evaluate(questions, oracle_model(questions), BudgetPolicy())
    assert result.accuracy == 1.0
    assert result.n_correct == result.n == 6
    assert all(o.verified for o in result.outcomes)


def test_unparseable_answers_score_zero(make_questions):
    questions = make_questions(5)
    result = evaluate(questions, silent_model(), BudgetPolicy())
    assert result.accuracy == 0.0
    assert all(o.extracted is None for o in result.outcomes)


def test_mixed_fixture_scores_hand_count(make_questions):
    # 10 questions; the scripted model answers 6 correctly (hand-graded)
    questions = make_questions(10)
    entries = []
    for i, q in enumerate(questions):
        letter = q.gold if i < 6 else ("A" if q.gold != "A" else "B")
        entries.append(ScriptEntry(format_prompt(q) + "<|im_start|>think", f"think-{q.id}", ANSWER_MARKER))
        entries.append(
            ScriptEntry(f"think-{q.id}{ANSWER_MARKER}Final Answer:", f"\\boxed{{{letter}}}", None)
        )
    result = evaluate(questions, ScriptedModel(tuple(entries)), BudgetPolicy())
    assert result.accuracy == 0.6
    assert result.n_correct == 6


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        evaluate([], silent_model(), BudgetPolicy())


def test_outcomes_ordered_by_question_id(make_questions):
    questions = list(reversed(make_questions(7)))
    result = evaluate(questions, oracle_model(questions), BudgetPolicy())
    ids = [o.question.id for o in result.outcomes]
    assert ids == sorted(ids)


def test_worker_count_does_not_change_results(make_questions):
    questions = make_questions(9)
    model = oracle_model(questions)
    seq = evaluate(questions, model, BudgetPolicy(), workers=1)
    par = evaluate(questions, model, BudgetPolicy(), workers=5)
    assert [(o.question.id, o.verified, o.extracted) for o in seq.outcomes] == [
        (o.question.id, o.verified, o.extracted) for o in par.outcomes
    ]


def test_hard_failure_counts_incorrect_and_flags(make_questions, monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)

    class Dead:
        def raw_stream(self, req):
            raise ConnectionFailure("unreachable")
            yield  # pragma: no cover

    questions = make_questions(4)
    result = evaluate(questions, Dead(), BudgetPolicy())
    assert result.accuracy == 0.0
    assert result.n == 4
    assert all(o.error for o in result.outcomes)


def test_a_failed_run_is_an_empty_trace_graded_incorrect(make_questions, monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)

    class Dead:
        def raw_stream(self, req):
            raise ConnectionFailure("unreachable")
            yield  # pragma: no cover

    questions = make_questions(2)
    for question, o in zip(questions, evaluate(questions, Dead(), BudgetPolicy()).outcomes):
        assert (o.question, o.thinking, o.response, o.transcript) == (question, "", "", None)
        assert (o.extracted, o.verified, o.thinking_tokens) == (None, False, 0)
        assert "unreachable" in o.error


def test_accuracy_exactness(make_questions):
    questions = make_questions(7)
    result = evaluate(questions, oracle_model(questions), BudgetPolicy())
    assert result.accuracy * result.n == result.n_correct


# --- macro averaging -----------------------------------------------------------


def test_macro_average_first_reported_row():
    row = [62.54, 75.81, 75.80, 65.86, 53.08, 62.62, 63.64, 59.74, 19.81, 64.34]
    assert macro_average(row) == 60.32


def test_macro_average_second_reported_row():
    row = [63.47, 71.56, 78.60, 67.23, 47.95, 62.14, 52.92, 50.65, 15.11, 65.17]
    assert macro_average(row) == 57.48


def test_macro_average_singleton():
    assert macro_average([73.5]) == 73.5


def test_macro_average_requires_input():
    with pytest.raises(ValueError):
        macro_average([])


# --- sweeps ---------------------------------------------------------------------


def test_default_grid_includes_ceiling():
    assert DEFAULT_BUDGET_GRID == (512, 1024, 2048, 4096, 8192)
    assert max(DEFAULT_BUDGET_GRID) == 8192


def test_budget_sweep_flat_for_oracle(make_questions):
    questions = make_questions(4)
    sweep = budget_sweep(questions, oracle_model(questions), [32, 64, 128], BudgetPolicy())
    assert [p.x for p in sweep.points] == [32, 64, 128]
    assert all(p.accuracy == 1.0 for p in sweep.points)
    assert all(p.n == 4 for p in sweep.points)


def step_model(questions, k: int) -> ScriptedModel:
    """Correct only when at least k thinking tokens were generated."""
    entries = []
    for q in questions:
        thought = " ".join(f"{q.id}w{i}" for i in range(k))
        entries.append(ScriptEntry(format_prompt(q) + "<|im_start|>think", thought, ANSWER_MARKER))
        entries.append(
            ScriptEntry(
                f"{q.id}w{k - 1}{ANSWER_MARKER}Final Answer:",
                f"\\boxed{{{q.gold}}}",
                None,
            )
        )
    entries.append(ScriptEntry("Final Answer:", "insufficient reasoning recorded", None))
    return ScriptedModel(tuple(entries))


def test_budget_sweep_steps_at_required_thinking_length(make_questions):
    questions = make_questions(5)
    model = step_model(questions, k=20)
    sweep = budget_sweep(questions, model, [8, 16, 32, 64], BudgetPolicy())
    accuracies = {int(p.x): p.accuracy for p in sweep.points}
    assert accuracies[8] == 0.0
    assert accuracies[16] == 0.0
    assert accuracies[32] == 1.0
    assert accuracies[64] == 1.0


def test_budget_sweep_point_equals_plain_evaluate(make_questions):
    questions = make_questions(5)
    model = step_model(questions, k=20)
    sweep = budget_sweep(questions, model, [16, 32], BudgetPolicy())
    for point in sweep.points:
        alone = evaluate(
            questions,
            model,
            BudgetPolicy(thinking_budget=int(point.x)),
        )
        assert point.accuracy == alone.accuracy
        assert point.n_correct == alone.n_correct


def test_budget_sweep_requires_distinct_budgets(make_questions):
    questions = make_questions(2)
    with pytest.raises(ValueError):
        budget_sweep(questions, silent_model(), [16, 16], BudgetPolicy())
    with pytest.raises(ValueError):
        budget_sweep(questions, silent_model(), [], BudgetPolicy())


def test_budget_sweep_records_realized_thinking(make_questions):
    questions = make_questions(3)
    model = step_model(questions, k=10)
    sweep = budget_sweep(questions, model, [4, 64], BudgetPolicy())
    assert sweep.points[0].mean_thinking_tokens == 4.0
    assert sweep.points[1].mean_thinking_tokens == 10.0


class AnswerOutage:
    """Serves ``model``, but fails the first ``failures`` answer requests
    for ``qid`` that follow a thought ending in ``last_word``. Counts every
    answer request for ``qid``, whichever worker sends it."""

    def __init__(self, model: ScriptedModel, qid: str, last_word: str, failures: int):
        self.model = model
        self.qid = qid
        self.last_word = last_word
        self.failures = failures
        self.answer_requests = 0
        self.failed = 0
        self.lock = threading.Lock()

    def raw_stream(self, req):
        if req.prompt.endswith(ANSWER_CUE) and f"for {self.qid}?" in req.prompt:
            with self.lock:
                self.answer_requests += 1
                fail = f"{self.last_word}{ANSWER_MARKER}" in req.prompt and self.failed < self.failures
                self.failed += fail
            if fail:
                raise ConnectionFailure("answer outage")
        yield from self.model.raw_stream(req)


def always_right_model(k: int) -> ScriptedModel:
    """Thinks k tokens, then answers B however much of the thought it sees."""
    thought = " ".join(f"w{i}" for i in range(k))
    return ScriptedModel(
        (
            ScriptEntry("Final Answer:", "\\boxed{B}", None),
            ScriptEntry("", thought, ANSWER_MARKER),
        )
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failures", [0, 1])
def test_evaluate_retries_a_failed_answer(make_questions, monkeypatch, failures, workers):
    """``evaluate`` retries a run whose answer request fails once; the
    sweep's points do not change."""
    questions = make_questions(4, golds="B")
    backend = AnswerOutage(always_right_model(20), "q01", "w19", failures)
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    sweep = budget_sweep(questions, backend, [8, 32], BudgetPolicy(), workers=workers)
    assert [(p.x, p.n, p.n_correct, p.mean_thinking_tokens) for p in sweep.points] == [(8, 4, 4, 8.0), (32, 4, 4, 20.0)]
    assert backend.answer_requests == 2 + failures


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_counts_an_answer_that_keeps_failing_incorrect(make_questions, monkeypatch, workers):
    """A run whose answer fails through every retry counts incorrect with 0
    thinking tokens, so n stays 4."""
    questions = make_questions(4, golds="B")
    backend = AnswerOutage(always_right_model(20), "q01", "w19", failures=99)
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    sweep = budget_sweep(questions, backend, [8, 32], BudgetPolicy(), workers=workers)
    assert [(p.x, p.n, p.n_correct, p.mean_thinking_tokens) for p in sweep.points] == [(8, 4, 4, 8.0), (32, 4, 3, 15.0)]
    assert backend.answer_requests == 1 + 3  # budget 8, then budget 32's first try and 2 retries


def flip_model(questions) -> ScriptedModel:
    """Correct first answer; one forcing round flips it to a wrong letter."""
    entries = []
    for q in questions:
        wrong = "A" if q.gold != "A" else "B"
        entries.append(ScriptEntry(format_prompt(q) + "<|im_start|>think", f"sure-{q.id}", ANSWER_MARKER))
        entries.append(ScriptEntry("Wait.", f"doubt-{q.id}", ANSWER_MARKER))
        entries.append(
            ScriptEntry(f"sure-{q.id}{ANSWER_MARKER}Final Answer:", f"\\boxed{{{q.gold}}}", None)
        )
        entries.append(
            ScriptEntry(f"doubt-{q.id}{ANSWER_MARKER}Final Answer:", f"\\boxed{{{wrong}}}", None)
        )
    return ScriptedModel(tuple(entries))


def test_forcing_zero_column_equals_plain_evaluate(make_questions):
    questions = make_questions(4)
    model = flip_model(questions)
    sweep = forcing_sweep(questions, model, 2, BudgetPolicy())
    plain = evaluate(questions, model, BudgetPolicy(forcing_count=0))
    assert sweep.points[0].x == 0
    assert sweep.points[0].accuracy == plain.accuracy


def test_forcing_flip_lowers_accuracy(make_questions):
    questions = make_questions(4)
    sweep = forcing_sweep(questions, flip_model(questions), 1, BudgetPolicy())
    assert sweep.points[0].accuracy == 1.0
    assert sweep.points[1].accuracy < sweep.points[0].accuracy


def insensitive_model(questions) -> ScriptedModel:
    """Keeps answering the gold letter no matter how often it is forced."""
    entries = []
    for q in questions:
        entries.append(ScriptEntry(format_prompt(q) + "<|im_start|>think", f"sure-{q.id}", ANSWER_MARKER))
        entries.append(ScriptEntry(f"sure-{q.id}Wait.", f"sure-{q.id}", ANSWER_MARKER))
        entries.append(
            ScriptEntry(f"sure-{q.id}{ANSWER_MARKER}Final Answer:", f"\\boxed{{{q.gold}}}", None)
        )
    return ScriptedModel(tuple(entries))


def test_forcing_insensitive_model_is_flat(make_questions):
    questions = make_questions(3)
    model = insensitive_model(questions)
    sweep = forcing_sweep(questions, model, 2, BudgetPolicy())
    assert {p.accuracy for p in sweep.points} == {1.0}


def test_forcing_sweep_uses_per_forcing_default(make_questions):
    assert BudgetPolicy().per_forcing_cap == 2048


def test_sweep_result_validation():
    good = SweepPoint(x=1, accuracy=0.5, n=2, n_correct=1, mean_thinking_tokens=3.0)
    with pytest.raises(ValueError):
        SweepResult("d", "budget", [good, good])
    with pytest.raises(ValueError, match="sorted by x"):
        SweepResult("d", "budget", [SweepPoint(**{**good.to_dict(), "x": 2}), good])
    with pytest.raises(ValueError):
        SweepResult(
            "d",
            "budget",
            [SweepPoint(x=1, accuracy=0.4, n=2, n_correct=1, mean_thinking_tokens=3.0)],
        )
    with pytest.raises(ValueError, match="sweep kind"):
        SweepResult("d", "bogus", [good])
    with pytest.raises(TypeError, match="dataset"):
        SweepResult(5, "budget", [good])
    # plotting converts x to a float, so an int no float holds is as bad as an
    # infinity; a bool is no number, though it is an int
    not_finite = [("x", float("inf")), ("x", 10**400), ("accuracy", float("nan")), ("mean_thinking_tokens", -float("inf")), ("n", True)]
    for field, value in not_finite:
        with pytest.raises(ValueError, match="finite"):
            SweepPoint(**{**good.to_dict(), field: value})
    for n, n_correct in [(-2, -1), (2, 3), (0, -1)]:
        with pytest.raises(ValueError, match="n_correct"):
            SweepPoint(x=1, accuracy=0.5, n=n, n_correct=n_correct, mean_thinking_tokens=3.0)
    # a point holds at least one run, and a run thinks no negative number of tokens
    with pytest.raises(ValueError, match="n must be >= 1"):
        SweepPoint(x=1, accuracy=0.7, n=0, n_correct=0, mean_thinking_tokens=3.0)
    with pytest.raises(ValueError, match="mean_thinking_tokens"):
        SweepPoint(**{**good.to_dict(), "mean_thinking_tokens": -5})
    # x is a budget (an integer >= 1) or a forcing count (an integer >= 0)
    for kind, x in [("budget", 0), ("budget", 1.5), ("forcing", -5), ("forcing", 2.5)]:
        with pytest.raises(ValueError, match=f"a {kind} sweep's x must be an integer"):
            SweepResult("d", kind, [SweepPoint(**{**good.to_dict(), "x": x})])
    assert SweepResult("d", "forcing", [SweepPoint(**{**good.to_dict(), "x": 0})]).points[0].x == 0


@st.composite
def sweep_results(draw) -> SweepResult:
    kind = draw(st.sampled_from([KIND_BUDGET, KIND_FORCING]))
    xs = sorted(draw(st.sets(st.integers(1 if kind == KIND_BUDGET else 0, 10**6), min_size=1, max_size=4)))
    points = []
    for x in xs:
        n = draw(st.integers(1, 10**6))
        n_correct = draw(st.integers(0, n))
        x = draw(st.sampled_from([x, float(x)]))
        points.append(SweepPoint(x, n_correct / n, n, n_correct, draw(st.floats(0, 1e9))))
    return SweepResult(draw(json_text), kind, points)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sweep=sweep_results(), provenance=json_values)
@example(sweep=SweepResult("d", KIND_BUDGET, [SweepPoint(16, 1.0, 3, 3, 2.0), SweepPoint(32, 2 / 3, 3, 2, 2.5)]), provenance={})
def test_sweep_result_round_trip(sweep, provenance):
    assert_json_round_trip(sweep, SweepResult.to_dict, SweepResult.from_dict, provenance)


# --- one worker pool per sweep ------------------------------------------------------


class RecordingBackend:
    """Serves ``model`` and records every request, from any worker."""

    def __init__(self, model: ScriptedModel):
        self.model = model
        self.requests: list = []
        self.lock = threading.Lock()

    def raw_stream(self, req):
        with self.lock:
            self.requests.append(req)
        yield from self.model.raw_stream(req)


def random_sweep_model(rng: random.Random, questions) -> ScriptedModel:
    """Per question: a thought of random length, up to 3 forced rounds, and
    an answer letter drawn for each round end; a cut thought gets a letter
    drawn for the whole model."""

    def words(qid: str, round_index: int) -> str:
        return " ".join([f"{qid}r{round_index}w{i}" for i in range(rng.randint(0, 40))] + [f"{qid}r{round_index}end"])

    def marker():
        return ANSWER_MARKER if rng.random() < 0.9 else None

    entries = []
    for q in questions:
        rounds = rng.randint(0, 3)
        for i in range(rounds, 0, -1):
            entries.append(ScriptEntry(f"{q.id}r{i - 1}endWait.", words(q.id, i), marker()))
        for i in range(rounds + 1):
            letter = rng.choice("ABCD")
            entries.append(ScriptEntry(f"{q.id}r{i}end{ANSWER_MARKER}Final Answer:", f"\\boxed{{{letter}}}", None))
        entries.append(ScriptEntry(format_prompt(q) + "<|im_start|>think", words(q.id, 0), marker()))
    entries.append(ScriptEntry("Final Answer:", f"\\boxed{{{rng.choice('ABCD')}}}", None))
    return ScriptedModel(tuple(entries))


@pytest.mark.parametrize("trial", range(12))
def test_shared_pool_sweeps_equal_in_thread_sweeps(make_questions, trial):
    """Both sweeps give the same points, from the same requests, whether
    they run in the calling thread or on one pool shared across points."""
    rng = random.Random(900 + trial)
    questions = make_questions(rng.randint(1, 7))
    model = random_sweep_model(rng, questions)
    budgets = rng.sample(range(1, 60), rng.randint(1, 5))
    policy = BudgetPolicy(thinking_budget=rng.randint(1, 60), per_forcing_cap=rng.randint(1, 45))
    max_forcings = rng.randint(0, 4)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, so a lost update would show
    try:
        for workers in (1, 4):
            backend = RecordingBackend(model)
            points = [
                budget_sweep(questions, backend, budgets, policy, workers=workers).points,
                forcing_sweep(questions, backend, max_forcings, policy, workers=workers).points,
            ]
            runs[workers] = points, Counter(backend.requests)
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[4]


def test_shared_pool_runs_the_next_point_while_a_point_waits(make_questions):
    """Question 0 at the first budget waits for a request of the second
    budget, which only a pool shared across points can send meanwhile."""

    class Barrier:
        def __init__(self):
            self.model = always_right_model(20)
            self.second_point = threading.Event()
            self.released = None

        def raw_stream(self, req):
            if req.max_new_tokens == 16:
                self.second_point.set()
            elif req.max_new_tokens == 8 and "for q00?" in req.prompt:
                self.released = self.second_point.wait(timeout=5)
            yield from self.model.raw_stream(req)

    questions = make_questions(3, golds="B")
    backend = Barrier()
    sweep = budget_sweep(questions, backend, [8, 16], BudgetPolicy(), workers=2)
    assert backend.released is True
    assert [(p.x, p.n_correct, p.mean_thinking_tokens) for p in sweep.points] == [(8, 3, 8.0), (16, 3, 16.0)]


def test_a_fatal_run_error_cancels_the_queued_points(make_questions):
    """A run that raises something other than a backend error ends the
    sweep; the runs still queued for later points never start."""

    class Fatal:
        def __init__(self):
            self.model = always_right_model(20)
            self.budgets = Counter()
            self.lock = threading.Lock()

        def raw_stream(self, req):
            if req.max_new_tokens == 8:
                raise RuntimeError("bad backend")
            with self.lock:
                self.budgets[req.max_new_tokens] += 1
            time.sleep(0.02)  # the runs already started outlast the cancel, so none reaches budget 48
            yield from self.model.raw_stream(req)

    questions = make_questions(4, golds="B")
    backend = Fatal()
    with pytest.raises(RuntimeError, match="bad backend"):
        budget_sweep(questions, backend, [8, 16, 24, 32, 40, 48], BudgetPolicy(), workers=2)
    assert backend.budgets[48] == 0


class FirstThoughtOutage(RecordingBackend):
    """Records every request with the thread that sent it, taking ``delay``
    seconds per request, and fails the first request equal to ``fail_on``
    once with a retryable error."""

    def __init__(self, model: ScriptedModel, fail_on: GenerationRequest | None, delay: float):
        super().__init__(model)
        self.fail_on = fail_on
        self.delay = delay
        self.log: list = []  # (request, thread), in the order sent

    def raw_stream(self, req):
        with self.lock:
            self.requests.append(req)
            self.log.append((req, threading.get_ident()))
            fail = req == self.fail_on
            if fail:
                self.fail_on = None
        time.sleep(self.delay)  # lets the other worker send while this one waits
        if fail:
            raise ConnectionFailure("first thought refused")
        yield from self.model.raw_stream(req)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_backoff_holds_no_worker(make_questions, monkeypatch, workers):
    """q00's first thought at the first budget fails once. Its retry waits
    out the backoff without holding a worker: every other run's first
    request is sent before it, on both workers, and the points, outcomes
    and requests are a reference run's plus the one failed request."""
    monkeypatch.setattr(client, "BACKOFF_S", 0.2)
    questions = make_questions(8, golds="B")
    model = always_right_model(20)
    budgets = [8, 16, 32]
    failing = GenerationRequest(prompt=format_prompt(questions[0]) + THINK_MARKER, max_new_tokens=8, stop_on=ANSWER_MARKER)

    def run(fail_on):
        sweep_backend = FirstThoughtOutage(model, fail_on, 0.002)
        points = budget_sweep(questions, sweep_backend, budgets, BudgetPolicy(), workers=workers).points
        eval_backend = FirstThoughtOutage(model, fail_on, 0.0)
        outcomes = evaluate(questions, eval_backend, BudgetPolicy(thinking_budget=8), workers=workers).outcomes
        return points, outcomes, sweep_backend, eval_backend

    ref_points, ref_outcomes, ref_sweep, ref_eval = run(None)
    points, outcomes, sweep, ev = run(failing)
    assert points == ref_points
    assert outcomes == ref_outcomes
    assert all(o.error is None for o in outcomes)
    for backend, ref in ((sweep, ref_sweep), (ev, ref_eval)):
        assert Counter(backend.requests) == Counter(ref.requests) + Counter([failing])

    sent = [req for req, _ in sweep.log]
    failed_at = sent.index(failing)
    retried_at = sent.index(failing, failed_at + 1)
    firsts = {req for req in ref_sweep.requests if req.prompt.endswith(THINK_MARKER)} - {failing}
    assert len(firsts) == len(questions) * len(budgets) - 1
    assert firsts <= set(sent[:retried_at])
    senders = {thread for _, thread in sweep.log[failed_at + 1 : retried_at]}
    assert len(senders) == workers
