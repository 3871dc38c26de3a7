"""The prompt layout and the answer-extraction cascade.

A prompt is question, options, then the one boxed-answer instruction.
Extraction prefers boxed expressions and falls back to a versioned regex
cascade; no text ever raises.
"""

from thinkctl import McqQuestion, extract_answer, format_prompt

question = McqQuestion(
    id="demo-1",
    stem="Does budgeted thinking help answer medical questions?",
    options={"A": "yes", "B": "no", "C": "maybe"},
    gold="A",
    source="demo",
)

print("--- evaluation prompt ---")
print(format_prompt(question))

print("--- extraction ---")
replies = [
    "Considering the evidence, \\boxed{A}",          # canonical boxed
    "\\boxed{yes}",                                   # option text maps back to its letter
    "\\boxed{A} ... but actually \\boxed{B}",         # first match wins
    "I believe the answer is C.",                     # regex fallback
    "Option B looks plausible.",                      # later-stage fallback
    "no commitment offered",                          # no match at all
]
for reply in replies:
    outcome = extract_answer(reply, question.options)
    verdict = "correct" if outcome.letter == question.gold else "incorrect"
    print(f"  {reply!r:55} -> letter={outcome.letter} via {outcome.method} ({verdict})")
