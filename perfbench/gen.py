"""Seeded workload inputs and the oracle that predicts thinkctl's outputs.

Everything here is derived from the workload seed with the benchmark's own
arithmetic; nothing imports thinkctl. Inputs are written as plain files
that the program loads itself.

``python3 perfbench/gen.py SEED DIR`` writes the curation workload's inputs
to DIR plus ``expect.json``: the input paths, the pool size and the oracle's
expected survivors of each stage.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
from dataclasses import asdict, dataclass, field

import synth

# Sweep workloads: the budget grid of thinkctl's DEFAULT_BUDGET_GRID, the
# forcing sweep 0..MAX_FORCINGS, and the default policy operating point.
BUDGET_GRID = (512, 1024, 2048, 4096, 8192)
MAX_FORCINGS = 3
FORCING_BUDGET = 4096
PER_FORCING_CAP = 2048
SWEEP_QUESTIONS = 8

# Curation workload sizes, stated input properties.
POOL_BASE = 4600  # distinct stems in the pool
DUPLICATE_SHARE = 0.08  # extra items that repeat a stem with other case/punctuation
CONTAMINATED_SHARE = 0.06  # base items sharing a 10-word window with an eval item
EVAL_SETS = 2
EVAL_SET_SIZE = 400
LEXICON_TERMS = 40  # annotate costs one regex search per item x term
UNLABELED_SHARE = 0.15  # stems with no lexicon term
SAMPLE_SHARE = 0.4  # of the annotated pool
VERIFIED_SHARE = 0.8  # generated traces whose answer is the gold letter
GRADER_ANSWERS = ("A", "B")  # constant answers of the two scripted graders
NGRAM = 8
CURATION_EXPECT = "expect.json"

QUALIFIERS = ("Diagnosis", "Drug Therapy", "Pathology", "Physiology", "Etiology", "Pharmacology", "Epidemiology", "Genetics")
TERMS = (
    "tachycardia bradycardia hypokalemia hyperkalemia nephrotoxicity hepatomegaly "
    "splenomegaly thrombocytopenia leukocytosis anemia hypoxemia hypercapnia "
    "cirrhosis glomerulonephritis pancreatitis cholecystitis appendicitis meningitis "
    "encephalopathy neuropathy myopathy arrhythmia cardiomyopathy vasculitis "
    "thrombosis hemorrhage ischemia infarction carcinoma lymphoma leukemia sarcoma "
    "mutation heterozygous autosomal penetrance pharmacokinetics clearance "
    "bioavailability incidence"
).split()
STEM_WORDS = (
    "a the patient woman man child infant elderly adult year old presents with "
    "reports history of two three weeks days months pain fever cough fatigue "
    "nausea vomiting rash swelling weakness dizziness after during before "
    "examination shows reveals laboratory results imaging demonstrates "
    "which following most likely next best step management underlying cause "
    "finding expected additional would be appropriate treatment initial "
    "mechanism explains drug therapy blood pressure heart rate respiratory "
    "temperature mild moderate severe left right upper lower chest abdominal "
    "back headache vision loss urine output serum level elevated decreased "
    "normal previous smoker denies alcohol use medication allergy"
).split()
# Case variants flip ASCII words only: "µ".upper() is the Greek capital mu,
# which lower() maps to a different code point than the micro sign.
PUNCTUATION = (",", ";", ":", " -", "!")


def write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [r for r in (json.loads(line) for line in fh if line.strip()) if "_meta" not in r]


# ---------------------------------------------------------------- sweeps


@dataclass
class SweepExpectation:
    """Oracle for one budget sweep plus one forcing sweep."""

    budget_points: list[dict]
    forcing_points: list[dict]
    calls: int
    generated: int
    items: int  # question x grid-point evaluations
    # per question, per (kind, x): backend calls and tokens of each call, in order
    runs: dict = field(default_factory=dict)


def _run(spec: synth.QuestionSpec, budget: int, forcings: int) -> tuple[int, list[int]]:
    """Thinking tokens and per-call generated tokens of one controlled run."""
    tokens = []
    if spec.natural >= budget:
        thinking = budget
        tokens.append(budget)
    else:
        thinking = spec.natural
        tokens.append(spec.natural + 1)  # thought plus the end-of-think marker
        left = forcings * PER_FORCING_CAP
        k = 0
        while k < forcings and left > 0:
            k += 1
            cap = min(PER_FORCING_CAP, left)
            cont = spec.continuation(k)
            if cont >= cap:
                thinking += cap
                tokens.append(cap)
                break
            thinking += cont
            left -= cont
            tokens.append(cont + 1)
    tokens.append(len(spec.answer_tokens(thinking)))
    return thinking, tokens


def _point(x: int, results: list[tuple[synth.QuestionSpec, int]]) -> dict:
    n = len(results)
    n_correct = sum(1 for spec, t in results if spec.grade(t) == synth.GRADE_CORRECT)
    return {
        "x": x,
        "accuracy": n_correct / n,
        "n": n,
        "n_correct": n_correct,
        "mean_thinking_tokens": math.fsum(t for _, t in results) / n,
    }


def sweep_expectation(questions: list[synth.QuestionSpec]) -> SweepExpectation:
    exp = SweepExpectation([], [], 0, 0, 0)
    grid = [("budget", b, b, 0) for b in BUDGET_GRID] + [("forcing", k, FORCING_BUDGET, k) for k in range(MAX_FORCINGS + 1)]
    for kind, x, budget, forcings in grid:
        results = []
        for spec in questions:
            thinking, tokens = _run(spec, budget, forcings)
            results.append((spec, thinking))
            exp.runs[(spec.qid, kind, x)] = tokens
            exp.calls += len(tokens)
            exp.generated += sum(tokens)
            exp.items += 1
        (exp.budget_points if kind == "budget" else exp.forcing_points).append(_point(x, results))
    return exp


def retry_extra(exp: SweepExpectation, questions: list[synth.QuestionSpec], keys: dict) -> tuple[int, int]:
    """Backend calls and tokens added by the server's injected failures.

    A failed call makes the client re-run the whole question, so every call
    of the failed attempt, the failed one included, is sent again.
    """
    by_id = {q.qid: q for q in questions}
    qid, forced, _ = keys["cut"]
    if by_id[qid].natural >= FORCING_BUDGET:
        raise ValueError(f"cut question {qid} never reaches a forced continuation")
    # the first forcing-sweep point that sends forced continuation `forced`
    run = exp.runs[(qid, "forcing", forced)]
    calls = 1 + forced + 1  # the 503 (no tokens), then the cut attempt's calls
    tokens = sum(run[:forced]) + keys["cut_after"]
    return calls, tokens


# -------------------------------------------------------------- curation


@dataclass
class PoolItem:
    record: dict
    group: int  # items of one group share a normalized stem
    contaminated: bool
    terms: frozenset


@dataclass
class CurationInputs:
    pool: list[PoolItem]
    eval_sets: list[list[dict]]
    lexicon: dict[str, str]
    graders: list[dict]


def _stem(rng: random.Random, terms: list[str]) -> str:
    words = [rng.choice(STEM_WORDS) for _ in range(rng.randint(18, 30))]
    for term in terms:
        words.insert(rng.randrange(len(words) + 1), term.capitalize() if rng.random() < 0.3 else term)
    if rng.random() < synth.NON_ASCII_STEM_SHARE:
        words.insert(rng.randrange(len(words) + 1), rng.choice(synth.NON_ASCII_WORDS))
    return " ".join(words) + "?"


def _variant(rng: random.Random, stem: str) -> str:
    """Same stem after normalization: other case, punctuation, spacing."""
    out = []
    for word in stem.rstrip("?").split(" "):
        if word.isascii():
            word = rng.choice((word.upper(), word.lower(), word.capitalize(), word))
        if rng.random() < 0.15:
            word += rng.choice(PUNCTUATION)
        out.append(word)
    return rng.choice(("  ", " ")).join(out) + rng.choice(("?", ".", "??", " ?"))


def _question(qid: str, stem: str, gold: str, source: str, rng: random.Random) -> dict:
    options = {letter: f"{rng.choice(STEM_WORDS)} {rng.choice(STEM_WORDS)}" for letter in synth.LETTERS}
    return {"id": qid, "question": stem, "options": options, "answer": gold, "source": source, "domains": []}


def curation_inputs(seed: int) -> CurationInputs:
    rng = random.Random(f"curate-{seed}")
    for word in STEM_WORDS + synth.FILLER_WORDS + list(synth.NON_ASCII_WORDS):
        if set(re.findall(r"\w+", word.lower())) & set(TERMS):
            raise ValueError(f"filler word {word!r} would match a lexicon term")
    terms = list(TERMS[:LEXICON_TERMS])
    lexicon = {term: QUALIFIERS[i % len(QUALIFIERS)] for i, term in enumerate(terms)}

    eval_sets = []
    eval_stems = []
    for e in range(EVAL_SETS):
        items = []
        for i in range(EVAL_SET_SIZE):
            stem = _stem(rng, [])
            eval_stems.append(stem)
            items.append(_question(f"e{e}-{i:05d}", stem, rng.choice(synth.LETTERS), f"Eval{e}", rng))
        eval_sets.append(items)

    # exact shares rather than per-item coin flips, so every seed asks for
    # the same amount of work at each stage
    n_dups = int(POOL_BASE * DUPLICATE_SHARE)
    ids = [f"p{i:06d}" for i in range(POOL_BASE + n_dups)]
    rng.shuffle(ids)
    golds = [synth.LETTERS[i % len(synth.LETTERS)] for i in range(POOL_BASE)]
    rng.shuffle(golds)
    unlabeled = set(rng.sample(range(POOL_BASE), int(POOL_BASE * UNLABELED_SHARE)))
    contaminated_ids = set(rng.sample(range(POOL_BASE), int(POOL_BASE * CONTAMINATED_SHARE)))
    pool = []
    for g in range(POOL_BASE):
        chosen = [] if g in unlabeled else rng.sample(terms, rng.randint(1, 3))
        stem = _stem(rng, chosen)
        contaminated = g in contaminated_ids
        if contaminated:
            words = rng.choice(eval_stems).rstrip("?").split(" ")
            at = rng.randrange(len(words) - 10)
            mine = stem.rstrip("?").split(" ")
            cut = rng.randrange(len(mine) + 1)
            stem = " ".join(mine[:cut] + words[at : at + 10] + mine[cut:]) + "?"
        record = _question(ids[g], stem, golds[g], rng.choice(synth.SOURCES), rng)
        pool.append(PoolItem(record, g, contaminated, frozenset(chosen)))
    for d, g in enumerate(rng.sample(range(POOL_BASE), n_dups)):
        original = pool[g]
        record = dict(original.record, id=ids[POOL_BASE + d], question=_variant(rng, original.record["question"]))
        pool.append(PoolItem(record, original.group, original.contaminated, original.terms))
    pool.sort(key=lambda item: item.record["id"])

    graders = [
        {"entries": [{"trigger": "", "emission": "Checked each option. \\boxed{" + GRADER_ANSWERS[0] + "}"}]},
        {"entries": [{"trigger": "", "emission": "After review the answer is (" + GRADER_ANSWERS[1] + ")."}]},
    ]
    return CurationInputs(pool, eval_sets, lexicon, graders)


@dataclass
class CurationExpectation:
    filtered: list[str]
    decontaminated: list[str]
    labels: dict[str, list[str]]
    grader_calls: int
    sample_n: int


def curation_expectation(inputs: CurationInputs) -> CurationExpectation:
    """Survivors of each stage, from what the generator planted."""
    ordered = sorted(inputs.pool, key=lambda item: item.record["id"])
    filtered = [it for it in ordered if it.record["answer"] not in GRADER_ANSWERS]
    # the first grader answers GRADER_ANSWERS[0]; the second is asked only
    # when the first was wrong
    grader_calls = sum(2 if it.record["answer"] != GRADER_ANSWERS[0] else 1 for it in ordered)
    seen = set()
    clean = []
    for it in filtered:
        if it.contaminated or it.group in seen:
            continue
        seen.add(it.group)
        clean.append(it)
    labels = {
        it.record["id"]: sorted({inputs.lexicon[t] for t in it.terms}) or ["Unlabeled"] for it in clean
    }
    return CurationExpectation(
        filtered=[it.record["id"] for it in filtered],
        decontaminated=[it.record["id"] for it in clean],
        labels=labels,
        grader_calls=grader_calls,
        sample_n=int(len(clean) * SAMPLE_SHARE),
    )


def traces_for(sampled: list[dict], seed: int) -> tuple[list[dict], list[str]]:
    """Reasoning traces for sampled questions; returns (records, verified ids)."""
    verified = []
    records = []
    for q in sampled:
        rng = random.Random(f"trace-{seed}-{q['id']}")
        words = [
            rng.choice(synth.NON_ASCII_WORDS) if rng.random() < synth.NON_ASCII_TOKEN_SHARE else rng.choice(synth.FILLER_WORDS)
            for _ in range(rng.randint(80, 240))
        ]
        ok = rng.random() < VERIFIED_SHARE
        letter = q["answer"] if ok else synth.LETTERS[(synth.LETTERS.index(q["answer"]) + 1) % len(synth.LETTERS)]
        record = dict(q, thinking=" ".join(words), response="So the answer is \\boxed{" + letter + "}", extracted=letter, verified=ok)
        records.append(record)
        if ok:
            verified.append(q["id"])
    return records, verified


def write_curation_inputs(inputs: CurationInputs, directory: str) -> dict:
    paths = {
        "pool": os.path.join(directory, "pool.jsonl"),
        "lexicon": os.path.join(directory, "lexicon.json"),
        "eval": [os.path.join(directory, f"eval{e}.jsonl") for e in range(len(inputs.eval_sets))],
        "graders": [os.path.join(directory, f"grader{g}.json") for g in range(len(inputs.graders))],
    }
    write_jsonl(paths["pool"], (it.record for it in inputs.pool))
    for path, items in zip(paths["eval"], inputs.eval_sets):
        write_jsonl(path, items)
    with open(paths["lexicon"], "w", encoding="utf-8") as fh:
        json.dump(inputs.lexicon, fh, ensure_ascii=False)
    for path, script in zip(paths["graders"], inputs.graders):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(script, fh)
    return paths


def main(argv: list[str]) -> int:
    seed, directory = int(argv[0]), argv[1]
    inputs = curation_inputs(seed)
    written = {
        "paths": write_curation_inputs(inputs, directory),
        "pool_size": len(inputs.pool),
        "expect": asdict(curation_expectation(inputs)),
    }
    with open(os.path.join(directory, CURATION_EXPECT), "w", encoding="utf-8") as fh:
        json.dump(written, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
