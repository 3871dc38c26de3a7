"""Thinking-budget enforcement and forcing control.

The controller streams a thinking phase capped by a token budget. When the
model signals the end of thinking early (by emitting the end-of-think
marker) and forcing injections remain, the marker is suppressed and the
forcing text is appended so the model keeps reasoning, each continuation
capped separately. When the budget cuts a thought, the end-of-think marker
and the answer cue are injected and the answer phase is streamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .client import (
    CAUSE_BACKEND_STOP,
    CAUSE_CAP,
    BackendError,
    DEFAULT_SEED,
    DEFAULT_TEMPERATURE,
    GenerationRequest,
    collect,
    stream_generate,
)

# phase markers of the fine-tuned output format: thinking is enclosed
# between the think marker and the answer marker
THINK_MARKER = "<|im_start|>think"
ANSWER_MARKER = "<|im_start|>answer"

DEFAULT_THINKING_BUDGET = 4096
DEFAULT_PER_FORCING_CAP = 2048
DEFAULT_FORCING_TEXT = "Wait."

TERMINATION_NATURAL = "natural"
TERMINATION_BUDGET = "budget_exhausted"
TERMINATION_FORCING = "forcing_exhausted"

PROVENANCE_INITIAL = "initial"


def forced_provenance(index: int) -> str:
    return f"forced({index})"


@dataclass(frozen=True)
class BudgetPolicy:
    """Test-time scaling controls.

    ``thinking_budget`` caps the initial thinking segment; each forced
    continuation is capped by ``per_forcing_cap``. Injected forcing text
    never counts toward thinking tokens. The end-of-think marker is the
    delimiter whose emission ends the thinking phase; at budget exhaustion
    the marker followed by the answer cue is injected to elicit the final
    answer.
    """

    thinking_budget: int = DEFAULT_THINKING_BUDGET
    forcing_count: int = 0
    forcing_text: str = DEFAULT_FORCING_TEXT
    per_forcing_cap: int = DEFAULT_PER_FORCING_CAP
    think_marker: str = THINK_MARKER
    end_of_think_marker: str = ANSWER_MARKER
    answer_cue: str = "Final Answer:"
    answer_cap: int = 1024

    def __post_init__(self) -> None:
        if self.thinking_budget < 1:
            raise ValueError("thinking_budget must be >= 1")
        if self.per_forcing_cap < 1:
            raise ValueError("per_forcing_cap must be >= 1")
        if self.forcing_count < 0:
            raise ValueError("forcing_count must be >= 0")
        if self.forcing_count > 0 and not self.forcing_text:
            raise ValueError("forcing_text must be nonempty when forcing_count > 0")
        if self.answer_cap < 1:
            raise ValueError("answer_cap must be >= 1")
        if not self.end_of_think_marker:
            raise ValueError("end_of_think_marker must be nonempty")


@dataclass(frozen=True)
class Segment:
    """One thinking segment with its provenance (initial or forced(i))."""

    provenance: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class ReasoningTranscript:
    """Ordered thinking segments plus the captured answer.

    ``thinking_tokens`` counts model-emitted thinking tokens only; injected
    forcing text is recorded via ``injections``. ``token_joiner`` is the
    producing backend's join rule, kept so segment text reconstructs
    exactly.
    """

    segments: tuple[Segment, ...]
    injections: int
    thinking_tokens: int
    answer_text: str
    termination: str
    empty_answer: bool = False
    token_joiner: str = " "

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("transcript must contain at least one segment")
        if self.thinking_tokens != sum(len(s.tokens) for s in self.segments):
            raise ValueError("thinking_tokens must equal the sum of segment token counts")
        expected = [PROVENANCE_INITIAL] + [forced_provenance(i) for i in range(1, len(self.segments))]
        actual = [s.provenance for s in self.segments]
        if actual != expected:
            raise ValueError(f"segment provenance must be consecutive, got {actual}")

    @property
    def thinking_text(self) -> str:
        return self.token_joiner.join(t for s in self.segments for t in s.tokens)

    def to_record(self, transcript_id: str) -> dict:
        return {
            "id": transcript_id,
            "segments": [
                {
                    "provenance": s.provenance,
                    "text": self.token_joiner.join(s.tokens),
                    "tokens": list(s.tokens),
                }
                for s in self.segments
            ],
            "injections": self.injections,
            "thinking_tokens": self.thinking_tokens,
            "answer": self.answer_text,
            "termination": self.termination,
        }

    @classmethod
    def from_record(cls, record: dict, token_joiner: str = " ") -> "ReasoningTranscript":
        segments = tuple(
            Segment(provenance=s["provenance"], tokens=tuple(s["tokens"]))
            for s in record["segments"]
        )
        return cls(
            segments=segments,
            injections=record["injections"],
            thinking_tokens=record["thinking_tokens"],
            answer_text=record["answer"],
            termination=record["termination"],
            token_joiner=token_joiner,
        )


class BudgetRunError(BackendError):
    """Backend failure during a controlled run; carries the partial
    transcript built so far (its termination is a placeholder
    ``budget_exhausted`` since the run never completed)."""

    def __init__(self, message: str, partial: ReasoningTranscript | None):
        super().__init__(message)
        self.partial = partial

    @property
    def retryable(self) -> bool:  # type: ignore[override]
        cause = self.__cause__
        return isinstance(cause, BackendError) and cause.retryable


def _partial_transcript(segments: list[Segment], injections: int, joiner: str) -> ReasoningTranscript | None:
    if not segments:
        return None
    return ReasoningTranscript(
        segments=tuple(segments),
        injections=injections,
        thinking_tokens=sum(len(s.tokens) for s in segments),
        answer_text="",
        termination=TERMINATION_BUDGET,
        empty_answer=True,
        token_joiner=joiner,
    )


def render_context(prompt: str, segments: Sequence[Segment], policy: BudgetPolicy, joiner: str) -> str:
    """The generation context the model continues after ``segments``.

    Prompt, think marker, then each segment's tokens, with the forcing text
    before every forced segment. A forced segment with no tokens yet ends
    the context at its forcing text, which is how the request for the next
    forced continuation is built. Parts are separated by the backend's
    ``joiner``, and an empty context takes the next part as is.
    """
    parts = [prompt, policy.think_marker]
    for seg in segments:
        if seg.provenance != PROVENANCE_INITIAL:
            parts.append(policy.forcing_text)
        if seg.tokens:
            parts.append(joiner.join(seg.tokens))
    return _join(parts, joiner)


def _join(parts: list[str], joiner: str) -> str:
    context = ""
    for part in parts:
        context = context + joiner + part if context else part
    return context


def _answer_phase(
    prompt: str,
    segments: Sequence[Segment],
    policy: BudgetPolicy,
    backend,
    joiner: str,
    temperature: float,
    seed: int,
    partial: ReasoningTranscript | None,
) -> str:
    """Inject the end-of-think marker and the answer cue after ``segments``
    and stream the answer; a backend failure carries ``partial``."""
    context = render_context(prompt, segments, policy, joiner)
    req = GenerationRequest(
        prompt=_join([context, policy.end_of_think_marker, policy.answer_cue], joiner),
        max_new_tokens=policy.answer_cap,
        temperature=temperature,
        seed=seed,
    )
    try:
        answer_tokens, _ = collect(stream_generate(backend, req))
    except BackendError as exc:
        raise BudgetRunError(f"backend failed during answer phase: {exc}", partial) from exc
    return joiner.join(answer_tokens)


def run_with_budget(
    prompt: str,
    policy: BudgetPolicy,
    backend,
    *,
    temperature: float = DEFAULT_TEMPERATURE,
    seed: int = DEFAULT_SEED,
) -> ReasoningTranscript:
    """Run one budgeted, optionally forced, think-then-answer generation.

    The prompt must already be formatted. Thinking streams with the
    end-of-think marker watched; a marker before the budget with forcings
    remaining is suppressed and replaced by the forcing text. A budget cut
    transitions to the answer phase via marker + answer cue injection.
    """
    joiner = getattr(backend, "token_joiner", "")
    segments: list[Segment] = []
    injections = 0

    while True:
        if not segments:
            cap = policy.thinking_budget
            provenance = PROVENANCE_INITIAL
        else:
            cap = policy.per_forcing_cap
            provenance = forced_provenance(injections)
        req = GenerationRequest(
            prompt=render_context(prompt, segments + [Segment(provenance, ())], policy, joiner),
            max_new_tokens=cap,
            temperature=temperature,
            seed=seed,
            stop_on=policy.end_of_think_marker,
        )
        try:
            tokens, cause = collect(stream_generate(backend, req))
        except BackendError as exc:
            raise BudgetRunError(
                f"backend failed during thinking phase: {exc}",
                _partial_transcript(segments, injections, joiner),
            ) from exc
        segments.append(Segment(provenance, tuple(tokens)))

        if cause == CAUSE_CAP:
            termination = TERMINATION_BUDGET
            break
        if cause == CAUSE_BACKEND_STOP:
            termination = TERMINATION_NATURAL
            break
        # marker: the model signalled end of thinking
        if injections < policy.forcing_count:
            injections += 1
            continue
        termination = TERMINATION_FORCING if policy.forcing_count > 0 else TERMINATION_NATURAL
        break

    partial = _partial_transcript(segments, injections, joiner)
    answer_text = _answer_phase(prompt, segments, policy, backend, joiner, temperature, seed, partial)
    return ReasoningTranscript(
        segments=tuple(segments),
        injections=injections,
        thinking_tokens=sum(len(s.tokens) for s in segments),
        answer_text=answer_text,
        termination=termination,
        empty_answer=not answer_text.strip(),
        token_joiner=joiner,
    )
