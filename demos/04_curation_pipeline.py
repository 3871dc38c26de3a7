"""The curation pipeline on a miniature pool, ledger included.

Stages: difficulty filtering with scripted graders, decontamination +
dedup against an evaluation set, domain annotation, hierarchical diversity
sampling, then trace generation by a scripted stronger model, trace
validation and fine-tuning formatting. Every stage that drops records
contributes a per-source row to the report, whose totals must reconcile.
"""

import json

from thinkctl import (
    BudgetPolicy,
    CurationReport,
    McqQuestion,
    SamplingPlan,
    ScriptEntry,
    ScriptedModel,
    StageCount,
    annotate_domains,
    decontaminate,
    difficulty_filter,
    diversity_sample,
    evaluate,
    format_sft_example,
    validate_traces,
)
from thinkctl.budget import ANSWER_CUE, ANSWER_MARKER, THINK_MARKER
from thinkctl.curation import source_counts
from thinkctl.qa import format_prompt


def mk(qid, stem, gold="A", source="examsA"):
    return McqQuestion(
        id=qid,
        stem=stem,
        options={"A": "yes", "B": "no", "C": "maybe"},
        gold=gold,
        source=source,
    )


def unique_stem(word):
    return " ".join(f"{word}{i}" for i in range(10))


pool = [
    mk("q1", unique_stem("cardiac") + " heart failure case"),
    mk("q2", unique_stem("renal") + " with renal involvement", source="examsB"),
    mk("q3", unique_stem("leaky")),
    mk("q4", unique_stem("easy")),
    mk("q5", unique_stem("dupane")),
    mk("q6", unique_stem("dupane"), source="examsB"),
]
eval_set = [mk("e1", unique_stem("leaky"), source="heldout")]

# the scripted grader nails q4 and misses everything else
grader_entries = [
    ScriptEntry(format_prompt(q), "\\boxed{A}" if q.id == "q4" else "\\boxed{B}")
    for q in pool
]
grader = ScriptedModel(tuple(grader_entries))

report = CurationReport()
report.stages.append(StageCount("initial_collection", source_counts(pool)))

kept, row = difficulty_filter(pool, [grader])
report.stages.append(row)
print("difficulty filter kept:", [q.id for q in kept])

clean, row = decontaminate(kept, [eval_set])
report.stages.append(row)
print("after decontamination + dedup:", [q.id for q in clean])

lexicon = {"heart": "Cardiology", "renal": "Urology"}
annotated = annotate_domains(clean, lexicon)
print("domains:", {q.id: q.domains for q in annotated})

plan = SamplingPlan.from_questions(annotated, target_n=2, seed=42)
selected, row = diversity_sample(plan)
report.stages.append(row)
print("sampled:", selected)

# a stronger scripted model thinks through each sampled question and
# answers the first correctly and the second wrongly
by_id = {q.id: q for q in annotated}
chosen = [by_id[item] for item, _ in selected]
teacher = ScriptedModel(
    tuple(ScriptEntry(format_prompt(q) + THINK_MARKER, f"weighing the findings of {q.id}", ANSWER_MARKER) for q in chosen)
    + tuple(
        ScriptEntry(f"{q.id}{ANSWER_MARKER}{ANSWER_CUE}", "\\boxed{A}" if i == 0 else "\\boxed{C}")
        for i, q in enumerate(chosen)
    )
)
result = evaluate(chosen, teacher, BudgetPolicy(thinking_budget=64), workers=1)
# each outcome is the TraceRecord of its run, graded once from its response
traces = result.outcomes
verified, row = validate_traces(traces)
report.stages.append(row)
print("traces verified:", [(t.question.id, t.extracted, t.verified) for t in traces])

report.validate()
print("--- ledger ---")
print(json.dumps(report.to_dict(), indent=2))

# verified traces render as fine-tuning examples with the phase markers
print("--- fine-tuning example ---")
for trace in verified:
    print(format_sft_example(trace))
