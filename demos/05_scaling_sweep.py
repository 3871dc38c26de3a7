"""A budget sweep with a regression fit, rendered to CSV and SVG.

The scripted model only answers correctly once 12 thinking tokens fit in
the budget, so accuracy steps up across the grid. The ordinary
least-squares line comes with a t-based 95% mean-response band; emission
is byte-deterministic.
"""

from thinkctl import (
    BudgetPolicy,
    McqQuestion,
    ScriptEntry,
    ScriptedModel,
    budget_sweep,
    emit_plot,
    fit_linear_with_ci,
    macro_average,
)
from thinkctl.budget import ANSWER_MARKER
from thinkctl.qa import format_prompt

questions = [
    McqQuestion(
        id=f"q{i}",
        stem=f"Synthetic case {i} asks which finding fits?",
        options={"A": "one", "B": "two", "C": "three", "D": "four"},
        gold="ABCD"[i % 4],
        source="synthetic",
    )
    for i in range(12)
]

NEED = 12
entries = []
for q in questions:
    thought = " ".join(f"{q.id}w{j}" for j in range(NEED))
    # contexts are glued with no separator, as a wire backend is sent them
    entries.append(ScriptEntry(format_prompt(q) + "<|im_start|>think", thought, ANSWER_MARKER))
    entries.append(ScriptEntry(f"{q.id}w{NEED - 1}{ANSWER_MARKER}Final Answer:", f"\\boxed{{{q.gold}}}"))
entries.append(ScriptEntry("Final Answer:", "thought was cut short"))
model = ScriptedModel(tuple(entries))

sweep = budget_sweep(questions, model, [4, 8, 16, 32, 64], BudgetPolicy(), dataset_name="synthetic")
for point in sweep.points:
    print(f"budget {int(point.x):>3}: accuracy {point.accuracy:.2f} "
          f"(mean thinking {point.mean_thinking_tokens:.1f} tokens)")

# plots live on the percent scale, so the fit does too
fit = fit_linear_with_ci([(p.x, 100.0 * p.accuracy) for p in sweep.points])
print(f"fit: slope={fit.slope:.5f} intercept={fit.intercept:.3f} residual SE={fit.residual_se:.3f}")
low, high = fit.band(24)
print(f"95% mean-response band at x=24: [{low:.2f}%, {high:.2f}%]")

with open("sweep_demo.csv", "wb") as fh:
    fh.write(emit_plot(sweep, fit, "csv"))
with open("sweep_demo.svg", "wb") as fh:
    fh.write(emit_plot(sweep, fit, "svg"))
print("wrote sweep_demo.csv and sweep_demo.svg")

print("macro average of two dataset accuracies:", macro_average([60.0, 70.5]))
