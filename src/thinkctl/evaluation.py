"""Multiple-choice evaluation, budget/forcing sweeps, and macro averaging.

Accuracy is exact: reported accuracy times n always equals the integer
count of correct outcomes. Per-question hard failures count as incorrect
(never excluded) so n stays fixed across sweep points.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import islice
from statistics import fmean
from typing import Iterable, Iterator, Sequence

from .budget import BudgetPolicy, ReasoningTranscript, run_with_budget
from .client import DEFAULT_WORKERS, BackendError, in_order
# not called here since the runner retries; perfbench's tracer wraps evaluation.with_retries by name
from .client import with_retries  # noqa: F401
from .curation import TraceRecord
from .jsonl import json_shape
# not called here since a TraceRecord grades itself; perfbench's tracer wraps evaluation.extract_answer by name
from .qa import extract_answer  # noqa: F401
from .qa import McqQuestion, format_prompt
from .regression import require_finite

DEFAULT_BUDGET_GRID = (512, 1024, 2048, 4096, 8192)

KIND_BUDGET = "budget"
KIND_FORCING = "forcing"
SWEPT_KEY = {KIND_BUDGET: "thinking_budget", KIND_FORCING: "forcing_count"}  # the policy key a kind's grid sets


@dataclass
class EvalOutcome(TraceRecord):
    """One evaluated question: the trace of its run, graded once, with the
    run's transcript, or the backend error that ended it (an empty trace)."""

    transcript: ReasoningTranscript | None = None
    error: str | None = None

    @property
    def thinking_tokens(self) -> int:
        return self.transcript.thinking_tokens if self.transcript else 0


@dataclass
class EvalResult:
    accuracy: float
    n_correct: int
    n: int
    outcomes: list[EvalOutcome]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: x is the imposed budget or the forcing count.

    ``mean_thinking_tokens`` records the realized mean thinking length so
    curves can be replotted against either axis convention.
    """

    x: float
    accuracy: float
    n: int
    n_correct: int
    mean_thinking_tokens: float

    def __post_init__(self) -> None:
        require_finite("sweep point", vars(self), ints=("n", "n_correct"))
        if not 0 <= self.n_correct <= self.n:
            raise ValueError(f"point x={self.x}: n_correct {self.n_correct} is not within 0..n={self.n}")
        # evaluate rejects an empty dataset, so every point a sweep builds has run a question
        if self.n < 1:
            raise ValueError(f"point x={self.x}: n must be >= 1, got {self.n}")
        if self.mean_thinking_tokens < 0:
            raise ValueError(f"point x={self.x}: mean_thinking_tokens must be >= 0, got {self.mean_thinking_tokens}")

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class SweepResult:
    """(x, accuracy) points for one dataset: at least one, sorted by x, distinct x values."""

    dataset: str
    kind: str
    points: list[SweepPoint]

    def __post_init__(self) -> None:
        if not isinstance(self.dataset, str):
            raise TypeError(f"sweep dataset must be a string, not {self.dataset!r}")
        if self.kind not in (KIND_BUDGET, KIND_FORCING):
            raise ValueError(f"sweep kind must be {KIND_BUDGET!r} or {KIND_FORCING!r}, not {self.kind!r}")
        if not self.points:
            raise ValueError("sweep has no points")
        xs = [p.x for p in self.points]
        if sorted(xs) != xs:
            raise ValueError("sweep points must be sorted by x")
        if len(set(xs)) != len(xs):
            raise ValueError("sweep x values must be distinct")
        least = 1 if self.kind == KIND_BUDGET else 0  # BudgetPolicy's least budget and forcing count
        for p in self.points:
            if p.x % 1 or p.x < least:
                raise ValueError(f"point x={p.x}: a {self.kind} sweep's x must be an integer >= {least}")
            if p.accuracy != p.n_correct / p.n:
                raise ValueError(f"point x={p.x}: accuracy is not exactly n_correct/n")

    def to_dict(self) -> dict:
        return {"dataset": self.dataset, "kind": self.kind, "points": [p.to_dict() for p in self.points]}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        json_shape("sweep", data, dict, ["dataset", "kind", "points"], ["_provenance"])
        points = [SweepPoint(**p) for p in json_shape("points", data["points"], list, [f.name for f in fields(SweepPoint)])]
        return cls(dataset=data["dataset"], kind=data["kind"], points=points)


def _run_question(question: McqQuestion, backend, policy: BudgetPolicy) -> EvalOutcome:
    """Run one question through the budget controller; its outcome grades
    itself. A backend error propagates, for the runner of ``_runs`` to retry."""
    transcript = run_with_budget(format_prompt(question), policy, backend)
    return EvalOutcome(question, transcript.thinking, transcript.answer_text, transcript)


def _runs(
    questions: Sequence[McqQuestion], backend, policies: Sequence[BudgetPolicy], workers: int
) -> Iterator[EvalOutcome]:
    """Each policy's ``_run_question`` outcomes in question order, policy
    after policy, from one ``in_order`` runner that retries a failed run.
    A run whose backend error is final counts incorrect and records it."""
    tasks = [partial(_run_question, q, backend, p) for p in policies for q in questions]

    def failed(i: int, exc: BackendError) -> EvalOutcome:
        return EvalOutcome(questions[i % len(questions)], "", "", error=str(exc))

    return in_order(tasks, workers, failed=failed)


def evaluate(
    questions: Sequence[McqQuestion],
    backend,
    policy: BudgetPolicy,
    *,
    workers: int = DEFAULT_WORKERS,
    runs: Iterable[EvalOutcome] | None = None,
) -> EvalResult:
    """Run every question through the budget controller and grade it.

    Outcomes are merged in question-id order, so results do not depend on
    worker completion order. A question whose backend calls fail after
    retries is flagged and counted incorrect. ``runs``, when given, yields
    each question's ``_run_question`` outcome from a sweep's runner.
    """
    if not questions:
        raise ValueError("dataset is empty")

    if runs is None:
        runs = _runs(questions, backend, [policy], workers)
    outcomes = sorted(runs, key=lambda o: o.question.id)

    n = len(outcomes)
    n_correct = sum(1 for o in outcomes if o.verified)
    return EvalResult(accuracy=n_correct / n, n_correct=n_correct, n=n, outcomes=outcomes)


def macro_average(per_dataset: Sequence[float]) -> float:
    """Unweighted arithmetic mean of per-dataset accuracies, reported to
    two decimal places (percent scale in, percent scale out)."""
    if not per_dataset:
        raise ValueError("need at least one dataset accuracy")
    return round(fmean(per_dataset), 2)


def _sweep(
    questions: Sequence[McqQuestion],
    backend,
    policy: BudgetPolicy,
    xs: Sequence[int],
    dataset_name: str,
    kind: str,
    workers: int,
) -> SweepResult:
    """Evaluate once per value of the policy field ``SWEPT_KEY[kind]``, in
    the order given, so every point is what a run at that value gives.

    One ``in_order`` runner takes every point's runs, so on a pool a point's
    slowest run overlaps the next point's; each point is one ``evaluate``.
    """
    policies = [replace(policy, **{SWEPT_KEY[kind]: x}) for x in xs]

    def point(x, at: BudgetPolicy, runs: Iterable[EvalOutcome]) -> SweepPoint:
        # a function, so that a point's outcomes are freed before the next point is gathered
        result = evaluate(questions, backend, at, runs=islice(runs, len(questions)))
        realized = [o.thinking_tokens for o in result.outcomes]
        return SweepPoint(x, result.accuracy, result.n, result.n_correct, fmean(realized))

    with closing(_runs(questions, backend, policies, workers)) as runs:
        return SweepResult(dataset_name, kind, [point(x, at, runs) for x, at in zip(xs, policies)])


def budget_sweep(
    questions: Sequence[McqQuestion],
    backend,
    budgets: Sequence[int],
    policy: BudgetPolicy,
    *,
    dataset_name: str = "dataset",
    workers: int = DEFAULT_WORKERS,
) -> SweepResult:
    """Evaluate once per thinking budget, in increasing order, on one pool
    of ``workers`` threads shared by every budget."""
    if not budgets:
        raise ValueError("need at least one budget")
    if len(set(budgets)) != len(budgets):
        raise ValueError("budgets must be distinct")
    return _sweep(questions, backend, policy, sorted(budgets), dataset_name, KIND_BUDGET, workers)


def forcing_sweep(
    questions: Sequence[McqQuestion],
    backend,
    max_forcings: int,
    policy: BudgetPolicy,
    *,
    dataset_name: str = "dataset",
    workers: int = DEFAULT_WORKERS,
) -> SweepResult:
    """Evaluate once per forcing count, 0..max_forcings.

    x = 0 takes the model's first answer without forcing; each forced
    continuation stays within the policy's per-forcing token limit. One
    pool of ``workers`` threads is shared by every forcing count.
    """
    if max_forcings < 0:
        raise ValueError("max_forcings must be >= 0")
    return _sweep(questions, backend, policy, range(max_forcings + 1), dataset_name, KIND_FORCING, workers)
