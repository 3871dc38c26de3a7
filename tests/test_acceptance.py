"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (written outside the capture so the verdict always shows).

Statistical bounds here were pre-computed by brute-force simulation before
the implementation was written; the simulations are reproduced inline.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import load_fixture, random_scripted_model
from thinkctl.budget import (
    ANSWER_MARKER,
    BudgetPolicy,
    run_with_budget,
)
from thinkctl.cli import run as cli_run
from thinkctl.client import ScriptEntry, ScriptedModel
from thinkctl.curation import (
    CurationReport,
    SamplingPlan,
    difficulty_filter,
    diversity_sample,
)
from thinkctl.evaluation import forcing_sweep, macro_average
from thinkctl.qa import METHOD_BOXED, McqQuestion, extract_answer, format_prompt
from thinkctl.regression import fit_linear_with_ci


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def check(name: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {name}: FAIL")
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {name}: PASS")

    return check


# --- 1. macro-average reproduction ------------------------------------------------


def test_macro_average_reproduction(criterion):
    with criterion("macro-average"):
        first = [62.54, 75.81, 75.80, 65.86, 53.08, 62.62, 63.64, 59.74, 19.81, 64.34]
        second = [63.47, 71.56, 78.60, 67.23, 47.95, 62.14, 52.92, 50.65, 15.11, 65.17]
        assert macro_average(first) == 60.32
        assert macro_average(second) == 57.48


# --- 2. curation ledger fixture ----------------------------------------------------


def test_ledger_fixture_reproduces_bookkeeping(criterion):
    with criterion("curation-ledger"):
        report = CurationReport.from_dict(load_fixture("curation_ledger.json"))
        report.validate()
        by_name = {stage.name: stage for stage in report.stages}
        clean = by_name["decontamination_dedup"]
        assert clean.counts == {"MedQA": 1628, "HeadQA": 209, "MedMCQA": 21628, "PubMedQA": 28}
        assert clean.total == 1628 + 209 + 21628 + 28 == 23493
        sampled = by_name["diversity_sampling"]
        assert sampled.counts == {"MedQA": 274, "HeadQA": 123, "MedMCQA": 575, "PubMedQA": 28}
        assert sampled.total == 274 + 123 + 575 + 28 == 1000
        assert by_name["initial_collection"].total == 196157
        assert by_name["difficulty_filter"].total == 37816
        assert by_name["trace_validation"].total == 23504
        for stage in report.stages:
            assert stage.total == sum(stage.counts.values())
        totals = [stage.total for stage in report.stages]
        assert totals == sorted(totals, reverse=True)


# --- 3. budget state machine suite -------------------------------------------------


def test_budget_state_machine_suite(criterion):
    with criterion("budget-state-machine"):
        for trial in range(1000):
            rng = random.Random(10_000 + trial)
            model, _ = random_scripted_model(rng)
            budget = rng.randint(1, 200)
            count = rng.randint(0, 3)
            policy = BudgetPolicy(
                thinking_budget=budget, forcing_count=count, per_forcing_cap=2048
            )
            transcript = run_with_budget("Prompt?", policy, model)

            # (a) budget safety
            assert transcript.thinking_tokens <= budget + count * 2048
            assert transcript.segments[0].n_tokens <= budget
            for segment in transcript.segments[1:]:
                assert segment.n_tokens <= 2048
            assert transcript.injections <= count
            assert transcript.injections == len(transcript.segments) - 1

            # (b) zero forcing gives exactly one segment
            plain = run_with_budget(
                "Prompt?", BudgetPolicy(thinking_budget=budget, forcing_count=0), model
            )
            assert len(plain.segments) == 1

            # (c) prefix stability under an extra forcing allowance
            grown = run_with_budget(
                "Prompt?",
                BudgetPolicy(thinking_budget=budget, forcing_count=count + 1, per_forcing_cap=2048),
                model,
            )
            shared = min(count + 1, len(transcript.segments))
            assert grown.segments[:shared] == transcript.segments[:shared]
            if len(transcript.segments) < count + 1:
                assert grown.segments == transcript.segments

            # (d) marker hygiene: a token holding the marker would put it in its segment's text
            for segment in transcript.segments:
                assert ANSWER_MARKER not in segment.text
            assert ANSWER_MARKER not in transcript.thinking


# --- 4. difficulty-filter oracle ----------------------------------------------------


def test_difficulty_filter_matches_bruteforce_oracle(criterion):
    with criterion("difficulty-filter-oracle"):
        rng = random.Random(424242)
        for _ in range(200):
            n_questions = rng.randint(1, 100)
            n_graders = rng.randint(1, 3)
            pool = [
                McqQuestion(
                    id=f"q{i:03d}",
                    stem=f"matrix stem {i}",
                    options={"A": "one", "B": "two", "C": "three", "D": "four"},
                    gold="ABCD"[i % 4],
                    source=f"src{i % 2}",
                )
                for i in range(n_questions)
            ]
            verdicts = {
                q.id: [rng.random() < 0.35 for _ in range(n_graders)] for q in pool
            }
            graders = []
            for g in range(n_graders):
                entries = []
                for q in pool:
                    letter = q.gold if verdicts[q.id][g] else ("A" if q.gold != "A" else "B")
                    entries.append(ScriptEntry(format_prompt(q), f"\\boxed{{{letter}}}", None))
                graders.append(ScriptedModel(tuple(entries)))
            kept, _ = difficulty_filter(pool, graders)
            expected = sorted(q.id for q in pool if not any(verdicts[q.id]))
            assert [q.id for q in kept] == expected


# --- 5. sampler distribution ---------------------------------------------------------


def test_sampler_distribution_and_determinism(criterion):
    with criterion("sampler-distribution"):
        # pre-computed by simulation: with 4 equal domains of 105 items and
        # a 400-item target, every domain count lies in [85, 105], so the
        # [80, 120] bound held for 100% of simulated seeds (ample unequal
        # pools spread wider and need a looser bound)
        per_domain = 105
        strata = {
            f"d{k}": {"ds": [f"d{k}-i{i:04d}" for i in range(per_domain)]} for k in range(4)
        }
        within = 0
        seeds = 1000
        for seed in range(seeds):
            plan = SamplingPlan(target_n=400, seed=seed, strata=strata)
            selected, _ = diversity_sample(plan)
            counts = {f"d{k}": 0 for k in range(4)}
            for item, _ in selected:
                counts[item.split("-")[0]] += 1
            assert sum(counts.values()) == 400
            assert len({item for item, _ in selected}) == 400
            if all(80 <= c <= 120 for c in counts.values()):
                within += 1
        assert within / seeds >= 0.99

        again_a, _ = diversity_sample(SamplingPlan(target_n=400, seed=42, strata=strata))
        again_b, _ = diversity_sample(SamplingPlan(target_n=400, seed=42, strata=strata))
        assert again_a == again_b


# --- 6. extraction fixtures -----------------------------------------------------------


def test_extraction_fixture_corpus(criterion):
    with criterion("extraction-fixtures"):
        cases = load_fixture("extraction_cases.jsonl")
        assert len(cases) >= 40
        for case in cases:
            # a letters-only case matches no option text
            options = case.get("options") or dict.fromkeys(case["letters"], "")
            outcome = extract_answer(case["text"], options)
            assert outcome.letter == case["letter"], case["name"]
            assert outcome.method == case["method"], case["name"]
            for decoy in list(options):
                decoyed = extract_answer(f"\\boxed{{{decoy}}} {case['text']}", options)
                assert decoyed.letter == decoy, case["name"]
                assert decoyed.method == METHOD_BOXED, case["name"]


# --- 7. OLS and confidence-band oracle --------------------------------------------------


def normal_equations(points):
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    design = np.array([[len(points), xs.sum()], [xs.sum(), (xs * xs).sum()]])
    intercept, slope = np.linalg.solve(design, np.array([ys.sum(), (xs * ys).sum()]))
    return slope, intercept


def test_ols_and_ci_oracle(criterion):
    with criterion("ols-ci-oracle"):
        fixtures = [
            [(0, 0), (1, 1), (2, 1)],
            [(1, 1), (2, 2), (3, 3), (4, 4)],
            [(512, 55.0), (1024, 58.5), (2048, 60.1), (4096, 61.0), (8192, 60.4)],
        ]
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(3, 10)
            fixtures.append([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)])
        for points in fixtures:
            if len({round(x, 9) for x, _ in points}) < 2:
                continue
            fit = fit_linear_with_ci(points)
            slope, intercept = normal_equations(points)
            assert fit.slope == pytest.approx(slope, rel=1e-10, abs=1e-12)
            assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)

        collinear = fit_linear_with_ci([(1, 1), (2, 2), (3, 3)])
        for x in (1.0, 2.0, 2.5):
            low, high = collinear.band(x)
            assert high - low == pytest.approx(0.0, abs=1e-12)

        # coverage over synthetic replications: per-grid-point hit rate of
        # the 95% mean-response band, documented floor 90%
        x_grid = np.linspace(512, 8192, 8)
        truth = 40.0 + 0.002 * x_grid
        hits = total = 0
        for rep in range(1000):
            noise_rng = np.random.Generator(np.random.PCG64(rep))
            ys = truth + noise_rng.normal(0.0, 3.0, size=len(x_grid))
            fit = fit_linear_with_ci(list(zip(x_grid, ys)))
            for xi, ti in zip(x_grid, truth):
                low, high = fit.band(float(xi))
                hits += int(low <= ti <= high)
                total += 1
        assert hits / total >= 0.90


# --- 8. end-to-end offline sweep ----------------------------------------------------------


def step_dataset_and_script(tmp_path, n_questions: int, k: int):
    records = []
    entries = []
    for i in range(n_questions):
        qid = f"q{i:02d}"
        gold = "ABCD"[i % 4]
        record = {
            "id": qid,
            "question": f"Synthetic stem {i} asks something?",
            "options": {"A": "one", "B": "two", "C": "three", "D": "four"},
            "answer": gold,
            "source": "synthetic",
            "domains": [],
        }
        records.append(record)
        q = McqQuestion(
            id=qid,
            stem=record["question"],
            options=record["options"],
            gold=gold,
            source="synthetic",
        )
        thought = " ".join(f"{qid}w{j}" for j in range(k))
        entries.append(
            {
                "trigger": format_prompt(q) + "<|im_start|>think",
                "emission": thought,
                "terminal_marker": ANSWER_MARKER,
            }
        )
        entries.append(
            {
                "trigger": f"{qid}w{k - 1}{ANSWER_MARKER}Final Answer:",
                "emission": f"\\boxed{{{gold}}}",
            }
        )
    entries.append({"trigger": "Final Answer:", "emission": "insufficient reasoning recorded"})
    dataset = tmp_path / "synthetic.jsonl"
    dataset.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"entries": entries}))
    return dataset, script


def test_end_to_end_offline_sweep(criterion, tmp_path):
    with criterion("end-to-end-sweep"):
        # the scripted model is only correct once 20 thinking tokens fit,
        # so the curve must step between budgets 16 and 32
        dataset, script = step_dataset_and_script(tmp_path, n_questions=50, k=20)
        outputs = []
        for tag in ("first", "second"):
            csv_path = tmp_path / f"{tag}.csv"
            svg_path = tmp_path / f"{tag}.svg"
            code = cli_run(
                [
                    "sweep",
                    "--dataset", str(dataset),
                    "--mock", str(script),
                    "--budgets", "8,16,32,64",
                    "--out-csv", str(csv_path),
                    "--out-svg", str(svg_path),
                ]
            )
            assert code == 0
            outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
        assert outputs[0] == outputs[1]

        rows = list(csv.reader(io.StringIO(outputs[0][0].decode())))
        assert rows[0] == ["x", "accuracy", "n", "ci_low", "ci_high"]
        curve = [(int(r[0]), float(r[1]), int(r[2])) for r in rows[1:]]
        assert [x for x, _, _ in curve] == [8, 16, 32, 64]
        assert all(n == 50 for _, _, n in curve)
        accuracies = [acc for _, acc, _ in curve]  # percent scale
        assert accuracies == [0.0, 0.0, 100.0, 100.0]
        assert accuracies == sorted(accuracies)


# --- 9. forcing-flip reproduction ------------------------------------------------------------


def test_forcing_flip_reproduction(criterion, questions_abcd):
    with criterion("forcing-flip"):
        questions = [questions_abcd(f"q{i}", gold="ABCD"[i % 4]) for i in range(10)]
        entries = []
        for q in questions:
            wrong = "A" if q.gold != "A" else "B"
            entries += [
                ScriptEntry(
                    format_prompt(q) + "<|im_start|>think", f"sure-{q.id}", ANSWER_MARKER
                ),
                ScriptEntry(f"sure-{q.id}Wait.", f"doubt-{q.id}", ANSWER_MARKER),
                ScriptEntry(f"sure-{q.id}{ANSWER_MARKER}Final Answer:", f"\\boxed{{{q.gold}}}"),
                ScriptEntry(f"doubt-{q.id}{ANSWER_MARKER}Final Answer:", f"\\boxed{{{wrong}}}"),
            ]
        model = ScriptedModel(tuple(entries))
        sweep = forcing_sweep(questions, model, 1, BudgetPolicy())
        assert sweep.points[0].x == 0 and sweep.points[1].x == 1
        assert sweep.points[0].accuracy == 1.0
        assert sweep.points[1].accuracy < sweep.points[0].accuracy
