"""Thinking-budget enforcement and forcing control.

The controller streams a thinking phase capped by a token budget. When the
model signals the end of thinking early (by emitting the end-of-think
marker) and forcing injections remain, the marker is suppressed and the
forcing text is appended so the model keeps reasoning, each continuation
capped separately. When the budget cuts a thought, the end-of-think marker
and the answer cue are injected and the answer phase is streamed.

Every context is glued as a wire backend is sent it: the prompt, the think
marker, the model's own tokens, the forcing text and the end-of-think
marker plus answer cue are concatenated with no separator, so forcing
continues the model's own turn. A run keeps one context and extends it
after each request, so no earlier token is joined twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .client import (
    CAUSE_CAP,
    CAUSE_MARKER,
    BackendError,
    GenerationRequest,
    collect,
    stream_generate,
)

# the fine-tuned output format: thinking is enclosed between the think
# marker and the answer marker; the answer cue after the answer marker
# elicits the final answer, which is capped at ANSWER_CAP tokens
THINK_MARKER = "<|im_start|>think"
ANSWER_MARKER = "<|im_start|>answer"
ANSWER_CUE = "Final Answer:"
ANSWER_CAP = 1024

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
    never counts toward thinking tokens. The markers are fixed by the
    output format: the end-of-think marker is the delimiter whose emission
    ends the thinking phase, and at the end of thinking the marker followed
    by ``ANSWER_CUE`` is injected to elicit the final answer.
    """

    thinking_budget: int = DEFAULT_THINKING_BUDGET
    forcing_count: int = 0
    forcing_text: str = DEFAULT_FORCING_TEXT
    per_forcing_cap: int = DEFAULT_PER_FORCING_CAP

    think_marker = THINK_MARKER
    end_of_think_marker = ANSWER_MARKER

    def __post_init__(self) -> None:
        if self.thinking_budget < 1:
            raise ValueError("thinking_budget must be >= 1")
        if self.per_forcing_cap < 1:
            raise ValueError("per_forcing_cap must be >= 1")
        if self.forcing_count < 0:
            raise ValueError("forcing_count must be >= 0")
        if self.forcing_count > 0 and not self.forcing_text:
            raise ValueError("forcing_text must be nonempty when forcing_count > 0")


@dataclass(frozen=True)
class Segment:
    """One thinking segment: its provenance (initial or forced(i)), its
    text, and the number of tokens the model emitted for it."""

    provenance: str
    text: str
    n_tokens: int


@dataclass(frozen=True)
class ReasoningTranscript:
    """Ordered thinking segments plus the captured answer.

    The first segment is the initial thought and each later one a forced
    continuation, so ``injections`` is one less than the segment count.
    ``thinking_tokens`` counts model-emitted thinking tokens only; the
    injected forcing text is not part of any segment. ``thinking`` is what
    the answer request holds between the think marker and the end-of-think
    marker: every segment's text, with the forcing text before each forced
    one.
    """

    segments: tuple[Segment, ...]
    thinking: str
    answer_text: str
    termination: str

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("transcript must contain at least one segment")
        expected = [PROVENANCE_INITIAL] + [forced_provenance(i) for i in range(1, len(self.segments))]
        actual = [s.provenance for s in self.segments]
        if actual != expected:
            raise ValueError(f"segment provenance must be consecutive, got {actual}")

    @property
    def injections(self) -> int:
        return len(self.segments) - 1

    @property
    def thinking_tokens(self) -> int:
        return sum(s.n_tokens for s in self.segments)


class BudgetRunError(BackendError):
    """Backend failure during a controlled run."""

    @property
    def retryable(self) -> bool:  # type: ignore[override]
        cause = self.__cause__
        return isinstance(cause, BackendError) and cause.retryable


def _generate(backend, req: GenerationRequest, phase: str) -> tuple[list[str], str]:
    """Drain one request; a backend failure raises BudgetRunError naming ``phase``."""
    try:
        return collect(stream_generate(backend, req))
    except BackendError as exc:
        raise BudgetRunError(f"backend failed during {phase} phase: {exc}") from exc


def run_with_budget(prompt: str, policy: BudgetPolicy, backend) -> ReasoningTranscript:
    """Run one budgeted, optionally forced, think-then-answer generation.

    The prompt must already be formatted. Thinking streams with the
    end-of-think marker watched; a marker before the budget with forcings
    remaining is suppressed and replaced by the forcing text. A budget cut
    transitions to the answer phase via marker + answer cue injection.
    """
    # prompt and think marker, then each segment's text, with the forcing
    # text before every forced segment
    context = prompt + policy.think_marker
    segments: list[Segment] = []
    while True:
        if segments:
            cap, provenance = policy.per_forcing_cap, forced_provenance(len(segments))
            context += policy.forcing_text
        else:
            cap, provenance = policy.thinking_budget, PROVENANCE_INITIAL
        req = GenerationRequest(prompt=context, max_new_tokens=cap, stop_on=policy.end_of_think_marker)
        tokens, cause = _generate(backend, req, "thinking")
        text = "".join(tokens)
        segments.append(Segment(provenance, text, len(tokens)))
        context += text
        # a marker means the model ended its thought: force while forcings remain
        if cause != CAUSE_MARKER or len(segments) > policy.forcing_count:
            break

    if cause == CAUSE_CAP:
        termination = TERMINATION_BUDGET
    elif cause == CAUSE_MARKER and policy.forcing_count > 0:
        termination = TERMINATION_FORCING
    else:
        termination = TERMINATION_NATURAL
    # the end-of-think marker and the answer cue after the thought elicit the answer
    req = GenerationRequest(context + policy.end_of_think_marker + ANSWER_CUE, ANSWER_CAP)
    answer_tokens, _ = _generate(backend, req, "answer")
    thinking = context[len(prompt) + len(policy.think_marker) :]
    return ReasoningTranscript(tuple(segments), thinking, "".join(answer_tokens), termination)
