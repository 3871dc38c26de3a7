"""Thinking budgets and forcing, end to end on a scripted model.

The controller opens a think phase, watches for the end-of-think marker,
and either lets the model answer, forces it to keep thinking ("Wait."),
or cuts it off when the budget runs out. Injected text never counts
toward the thinking-token tally.
"""

from thinkctl import BudgetPolicy, ScriptEntry, ScriptedModel, run_with_budget
from thinkctl.budget import ANSWER_MARKER

# this model offers to stop after 6 tokens; each "Wait." buys 4 more; the
# answer depends on nothing but the cue, so it is stable under forcing
model = ScriptedModel(
    (
        ScriptEntry("Wait.", "hmm checking once more over", ANSWER_MARKER),
        ScriptEntry("Final Answer:", "\\boxed{B}"),
        ScriptEntry("", "let me think t1 t2 t3", ANSWER_MARKER),
    )
)


def show(label, transcript):
    shape = [(s.provenance, s.n_tokens) for s in transcript.segments]
    print(f"{label}: segments={shape} injections={transcript.injections} "
          f"thinking={transcript.thinking_tokens} termination={transcript.termination} "
          f"answer={transcript.answer_text!r}")


# natural end: the model stops thinking on its own terms
show("no forcing   ", run_with_budget("Q?", BudgetPolicy(thinking_budget=100), model))

# forcing: suppress the marker twice, each continuation separately capped
show("two forcings ", run_with_budget("Q?", BudgetPolicy(thinking_budget=100, forcing_count=2), model))

# budget cut: the thought is truncated and the answer cue is injected
show("budget of 3  ", run_with_budget("Q?", BudgetPolicy(thinking_budget=3, forcing_count=2), model))
