"""Synthetic reasoning model shared by the in-process backend and the
loopback SSE server, plus the seeded sweep questions it answers.

The model is a pure function of the context it is sent. It reads the
question from the first prompt line, counts the thinking tokens already in
the context (every thinking token is one space followed by a word, so the
count survives a wrong text decoding on the client), and continues:

* thinking segment k: a fixed per-question number of tokens, then the
  end-of-think marker, then more text until ``max_tokens`` (a real model
  does not stop at the marker on its own);
* answer phase: the gold letter if the thought was at least the question's
  required length, a wrong letter if it was at least half of it, and no
  letter otherwise, written ``\\boxed{X}`` or ``The answer is (X).``.

This module does not import thinkctl: it is the backend and the oracle's
ground truth, so it must not share code with the program under test.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

# Protocol text of thinkctl's default BudgetPolicy; run.py checks that the
# program under test still uses these values.
THINK_MARKER = "<|im_start|>think"
END_MARKER = "<|im_start|>answer"
FORCING_TEXT = "Wait."

LETTERS = "ABCD"
SOURCES = ("MedQA", "MedMCQA", "PubMedQA")

# Thinking vocabulary. NON_ASCII_TOKEN_SHARE of thinking tokens come from
# NON_ASCII_WORDS, the way dosing and temperature text shows up in real
# medical reasoning.
FILLER_WORDS = (
    "patient presents with acute onset of fever and the history suggests "
    "infection so we consider renal hepatic cardiac pulmonary causes then "
    "check labs imaging cultures and weigh each option against the findings "
    "before ruling out differential diagnoses such as sepsis pneumonia "
    "embolism or heart failure given the vitals exam chronic medication "
    "dose response timeline risk factors prior episodes family smoking "
    "alcohol recent travel contacts symptoms worsening improving stable"
).split()
NON_ASCII_WORDS = ("µg", "°C", "37.8°C", "5µg/kg", "µmol/L", "39°C", "250µg")
NON_ASCII_TOKEN_SHARE = 0.05
# share of sweep question stems that carry a dose or temperature
NON_ASCII_STEM_SHARE = 0.25

# Post-marker text of a thinking request: what the model writes after the
# marker when nobody stops it.
_AFTER_MARKER = tuple(" " + w for w in "So the most likely answer follows from the above".split())

STYLE_BOXED = "boxed"
STYLE_FALLBACK = "fallback"

GRADE_CORRECT = "correct"
GRADE_WRONG = "wrong"
GRADE_NONE = "none"


class UnknownContext(ValueError):
    """The context is not one this model was built to continue."""


@dataclass(frozen=True)
class QuestionSpec:
    """One sweep question plus the model's hidden behaviour on it."""

    qid: str
    rank: int  # position of ``natural`` among the set's thought lengths
    stem: str
    options: tuple[str, ...]
    gold: str
    source: str
    natural: int  # thinking tokens before the first end-of-think marker
    continuations: tuple[int, ...]  # tokens after the k-th forcing, k = 1..
    required: int  # thinking tokens needed for the gold answer
    style: str

    def to_record(self) -> dict:
        return {
            "id": self.qid,
            "question": self.stem,
            "options": dict(zip(LETTERS, self.options)),
            "answer": self.gold,
            "source": self.source,
            "domains": [],
        }

    def continuation(self, k: int) -> int:
        return self.continuations[min(k, len(self.continuations)) - 1]

    def grade(self, thinking_tokens: int) -> str:
        if thinking_tokens >= self.required:
            return GRADE_CORRECT
        if 2 * thinking_tokens >= self.required:
            return GRADE_WRONG
        return GRADE_NONE

    def answer_tokens(self, thinking_tokens: int) -> list[str]:
        grade = self.grade(thinking_tokens)
        if grade == GRADE_NONE:
            return [" Unable", " to", " decide", " from", " these", " findings"]
        letter = self.gold
        if grade == GRADE_WRONG:
            letter = LETTERS[(LETTERS.index(self.gold) + 1) % len(LETTERS)]
        if self.style == STYLE_BOXED:
            return [" Therefore,", " \\boxed{" + letter + "}"]
        return [" The", " answer", " is", " (" + letter + ")."]


def make_questions(seed: int, n: int, max_forcings: int) -> list[QuestionSpec]:
    """Draw ``n`` sweep questions from ``seed``.

    Natural thought lengths sit at the n quantile midpoints of a
    log-uniform law over 150..6000 tokens, so the default budget grid
    (512..8192) cuts some thoughts at every point. Each length rank has
    fixed continuation lengths and thinking text, and questions are listed
    longest thought first; the seed draws stems, answers, required lengths
    and answer styles. So every seed asks for the same backend work, give
    or take a few answer tokens and prompt characters, and a two-worker
    closed loop schedules it the same way. Seven in ten questions are
    solvable within their natural thought; the rest need forced
    continuations.
    """
    forcings = max(1, max_forcings)
    fixed = random.Random("continuations")
    spread = [int(60 + (700 - 60) * (j + 0.5) / (n * forcings)) for j in range(n * forcings)]
    fixed.shuffle(spread)
    rng = random.Random(f"sweep-{seed}")
    questions = []
    for i, rank in enumerate(range(n - 1, -1, -1)):
        natural = int(round(150 * (6000 / 150) ** ((rank + 0.5) / n)))
        continuations = tuple(spread[rank * forcings : (rank + 1) * forcings])
        if rng.random() < 0.7:
            required = max(1, int(natural * rng.uniform(0.3, 1.0)))
        else:
            required = natural + max(1, int(sum(continuations) * rng.uniform(0.1, 1.0)))
        words = [rng.choice(FILLER_WORDS) for _ in range(rng.randint(10, 18))]
        if rng.random() < NON_ASCII_STEM_SHARE:
            words.insert(rng.randrange(len(words)), rng.choice(NON_ASCII_WORDS))
        stem = f"Case {i:04d}: " + " ".join(words) + "?"
        questions.append(
            QuestionSpec(
                qid=f"q{i:04d}",
                rank=rank,
                stem=stem,
                options=tuple(f"{rng.choice(FILLER_WORDS)} {j}" for j in range(len(LETTERS))),
                gold=rng.choice(LETTERS),
                source=SOURCES[i % len(SOURCES)],
                natural=natural,
                continuations=continuations,
                required=required,
                style=STYLE_BOXED if rng.random() < 0.7 else STYLE_FALLBACK,
            )
        )
    return questions


class _Segments:
    """Token texts of every thinking segment of one question, with the
    joined text and cumulative character offsets for echo checks."""

    def __init__(self, spec: QuestionSpec, max_forcings: int):
        rng = random.Random(f"tokens-{spec.rank}")
        lengths = [spec.natural] + [spec.continuation(k) for k in range(1, max_forcings + 2)]
        self.tokens: list[list[str]] = []
        self.text: list[str] = []
        self.offsets: list[list[int]] = []
        for length in lengths:
            toks = [
                " " + (rng.choice(NON_ASCII_WORDS) if rng.random() < NON_ASCII_TOKEN_SHARE else rng.choice(FILLER_WORDS))
                for _ in range(length)
            ]
            self.tokens.append(toks)
            self.text.append("".join(toks))
            self.offsets.append([0] + list(accumulate(len(t) for t in toks)))


@dataclass
class Reply:
    """What the model writes for one request.

    ``head`` runs up to and including the point where a client stops
    reading: the end-of-think marker of a thinking request, or the whole
    answer. ``endless`` is True when the model would keep writing after
    ``head`` until ``max_tokens``.
    """

    head: list[str]
    endless: bool
    echo_ok: bool

    def tokens(self, max_tokens: int) -> Iterator[str]:
        yield from self.head[:max_tokens]
        if self.endless:
            for i in range(max_tokens - len(self.head)):
                yield _AFTER_MARKER[i % len(_AFTER_MARKER)]

    def stop_point(self, max_tokens: int) -> int:
        """Tokens generated up to where the client stops reading."""
        return min(len(self.head), max_tokens)


class SyntheticModel:
    """Deterministic model over a fixed question set."""

    def __init__(self, questions: list[QuestionSpec], max_forcings: int):
        self._by_stem = {q.stem: q for q in questions}
        self._segments = {q.qid: _Segments(q, max_forcings) for q in questions}

    def question(self, context: str) -> QuestionSpec:
        spec = self._by_stem.get(context[: context.find("\n")])
        if spec is None:
            raise UnknownContext("unknown question")
        return spec

    def reply(self, context: str) -> Reply:
        at = context.find(THINK_MARKER)
        if at < 0:
            raise UnknownContext("context has no think marker")
        spec = self.question(context)
        segs = self._segments[spec.qid]
        think = context[at + len(THINK_MARKER) :]
        end = think.find(END_MARKER)
        if end >= 0:
            received = think[:end].split(FORCING_TEXT)
            thinking = sum(s.count(" ") for s in received)
            return Reply(spec.answer_tokens(thinking), False, self._echo_ok(segs, received))
        received = think.split(FORCING_TEXT)
        k = len(received) - 1
        if k >= len(segs.tokens) or received[-1]:
            raise UnknownContext(f"unexpected thinking state for {spec.qid}")
        return Reply(segs.tokens[k] + [END_MARKER], True, self._echo_ok(segs, received[:-1]))

    @staticmethod
    def _echo_ok(segs: _Segments, received: list[str]) -> bool:
        """True when every earlier segment in the context is a byte-exact
        prefix of what this model wrote for it."""
        for k, text in enumerate(received):
            n = text.count(" ")
            if n > len(segs.tokens[k]) or text != segs.text[k][: segs.offsets[k][n]]:
                return False
        return True


class Counters:
    """Backend-side accounting, shared by concurrent requests."""

    FIELDS = (
        "requests",
        "connections",
        "prompt_chars",
        "generated",
        "written",
        "wasted",
        "echo_mismatch",
        "injected_503",
        "injected_cut",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.values = dict.fromkeys(self.FIELDS, 0)
            self.queue_ms: list[float] = []

    def add(self, **deltas) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self.values[key] += delta

    def add_queue(self, ms: float) -> None:
        with self._lock:
            self.queue_ms.append(ms)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.values, queue_ms=list(self.queue_ms))


class InProcessBackend:
    """The model as a thinkctl backend object, with no delay.

    Implements the ``raw_stream`` / ``token_joiner`` protocol thinkctl's
    ``TokenStream`` drives. Tokens concatenate directly, as on the wire.
    """

    token_joiner = ""

    def __init__(self, model: SyntheticModel):
        self.model = model
        self.counters = Counters()

    def raw_stream(self, req) -> Iterator[str]:
        reply = self.model.reply(req.prompt)
        self.counters.add(requests=1, prompt_chars=len(req.prompt), echo_mismatch=int(not reply.echo_ok))
        produced = 0
        try:
            for token in reply.tokens(req.max_new_tokens):
                produced += 1
                yield token
        finally:
            stop = reply.stop_point(req.max_new_tokens)
            self.counters.add(generated=min(produced, stop), written=produced, wasted=max(0, produced - stop))
