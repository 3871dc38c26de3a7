from __future__ import annotations

import argparse
import errno
import json
import os
import pathlib
import re
import shlex
import socket
import subprocess
import sys
import tempfile
from collections import Counter
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _SSEHandler
from thinkctl.budget import ANSWER_MARKER
from thinkctl import cli, client, curation, evaluation
from thinkctl.cli import run
from thinkctl.client import WireBackend
from thinkctl.jsonl import load_questions
from thinkctl.qa import McqQuestion, format_prompt


def write_jsonl_file(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def question_record(qid, stem=None, gold="B", source="demo", domains=None):
    return {
        "id": qid,
        "question": stem or f"Unique stem for {qid}?",
        "options": {"A": "one", "B": "two", "C": "three", "D": "four"},
        "answer": gold,
        "source": source,
        "domains": domains or [],
    }


def scripted_answers(questions, letter_for) -> dict:
    """Script file content: per-question think + answer entries."""
    entries = []
    for record in questions:
        q = McqQuestion(
            id=record["id"],
            stem=record["question"],
            options=record["options"],
            gold=record["answer"],
            source=record["source"],
        )
        prompt = format_prompt(q)
        entries.append(
            {"trigger": prompt + "<|im_start|>think", "emission": f"mull-{q.id}", "terminal_marker": ANSWER_MARKER}
        )
        entries.append(
            {
                "trigger": f"mull-{q.id}{ANSWER_MARKER}Final Answer:",
                "emission": f"\\boxed{{{letter_for(record)}}}",
                "terminal_marker": None,
            }
        )
    return {"entries": entries}


@pytest.fixture
def dataset(tmp_path):
    records = [question_record(f"q{i:02d}", gold="ABCD"[i % 4]) for i in range(8)]
    path = tmp_path / "dataset.jsonl"
    write_jsonl_file(path, records)
    return path, records


@pytest.fixture
def oracle_script(tmp_path, dataset):
    _, records = dataset
    path = tmp_path / "script.json"
    path.write_text(json.dumps(scripted_answers(records, lambda r: r["answer"])))
    return path


def test_usage_error_exits_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    # run builds only the named command's arguments: an unknown stage is still a usage error
    assert run(["curate", "bogus"]) == 2


def test_eval_happy_path(tmp_path, dataset, oracle_script, capsys):
    data_path, _ = dataset
    out = tmp_path / "results.jsonl"
    summary = tmp_path / "summary.json"
    code = run(
        [
            "eval",
            "--dataset", str(data_path),
            "--mock", str(oracle_script),
            "--out", str(out),
            "--summary", str(summary),
        ]
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    per_dataset = payload["datasets"][str(data_path)]
    assert per_dataset["accuracy"] == 1.0
    assert per_dataset["n"] == 8
    assert payload["macro_average_percent"] == 100.0
    # a --mock run sends no request, so it records the policy and run keys only
    config = payload["_provenance"]["config"]
    assert set(config) == {"thinking_budget", "forcing_count", "per_forcing_cap", "forcing_text", "workers"}
    assert config["thinking_budget"] == 4096
    assert str(data_path) in payload["_provenance"]["inputs"]
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert "_meta" in lines[0]
    rows = lines[1:]
    assert len(rows) == 8
    # a trace record, whose answer is the gold letter, plus the run's dataset,
    # thinking tokens, termination, error and segments, which keep no text
    trace_keys = {"id", "question", "options", "answer", "source", "domains", "thinking", "response", "extracted", "verified"}
    assert set(rows[0]) == trace_keys | {"dataset", "thinking_tokens", "termination", "error", "segments"}
    assert all(row["verified"] and row["extracted"] == row["answer"] for row in rows)
    assert all(row["dataset"] == str(data_path) and row["error"] is None for row in rows)
    assert rows[0]["segments"] == [{"provenance": "initial", "n_tokens": rows[0]["thinking_tokens"]}]


def test_eval_multiple_datasets_macro_average(tmp_path, oracle_script, dataset):
    data_path, records = dataset
    # second dataset: same questions under new ids, graded by a new script
    second_records = [dict(r, id=f"x{r['id']}") for r in records]
    for r in second_records:
        r["question"] = f"Other stem for {r['id']}?"
    second = tmp_path / "second.jsonl"
    write_jsonl_file(second, second_records)
    # this script misses every question in the second dataset
    miss = tmp_path / "miss.json"
    combined = scripted_answers(records, lambda r: r["answer"])["entries"] + scripted_answers(
        second_records, lambda r: "A" if r["answer"] != "A" else "B"
    )["entries"]
    miss.write_text(json.dumps({"entries": combined}))
    summary = tmp_path / "summary.json"
    code = run(
        [
            "eval",
            "--dataset", str(data_path),
            "--dataset", str(second),
            "--mock", str(miss),
            "--summary", str(summary),
        ]
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["datasets"][str(data_path)]["accuracy"] == 1.0
    assert payload["datasets"][str(second)]["accuracy"] == 0.0
    assert payload["macro_average_percent"] == 50.0


def test_malformed_dataset_exits_1_citing_line(tmp_path, oracle_script, capsys):
    bad = tmp_path / "bad.jsonl"
    lines = [json.dumps(question_record(f"q{i}")) for i in range(6)] + ["{broken"]
    bad.write_text("\n".join(lines) + "\n")
    code = run(["eval", "--dataset", str(bad), "--mock", str(oracle_script)])
    assert code == 1
    err = capsys.readouterr().err
    assert ":7:" in err


def test_eval_checks_every_dataset_before_the_first_run(tmp_path, dataset, oracle_script, monkeypatch, capsys):
    data_path, _ = dataset
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "b1"}\n')

    def no_run(*args, **kwargs):
        raise AssertionError("evaluate ran before every dataset was checked")

    monkeypatch.setattr(evaluation, "evaluate", no_run)
    assert run(["eval", "--dataset", str(data_path), "--dataset", str(bad), "--mock", str(oracle_script)]) == 1
    assert f"{bad}:1: missing field 'question'" in capsys.readouterr().err


def test_missing_dataset_exits_1(tmp_path, oracle_script, capsys):
    code = run(["eval", "--dataset", str(tmp_path / "nope.jsonl"), "--mock", str(oracle_script)])
    assert code == 1


def test_an_unencodable_transcript_exits_1_citing_its_output_line(tmp_path, dataset, capsys):
    # a scripted emission holding a lone surrogate escape is refused as the script loads
    data_path, _ = dataset
    script = tmp_path / "script.json"
    script.write_text('{"entries": [{"trigger": "", "emission": "x \\ud800 \\\\boxed{B}"}]}')
    traces = tmp_path / "traces.jsonl"
    code = run(["eval", "--dataset", str(data_path), "--mock", str(script), "--out", str(traces)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {script}:1: lone surrogate escape \\ud800 (not encodable as UTF-8)\n"
    assert not traces.exists()
    # a dataset named by byte 0xff, which the provenance line records as the
    # lone surrogate U+DCFF: the output cites that line and keeps its old bytes
    odd = tmp_path / os.fsdecode(b"\xff.jsonl")
    odd.write_bytes(data_path.read_bytes())
    mock = tmp_path / "mock.json"
    mock.write_text('{"entries": [{"trigger": "", "emission": "\\\\boxed{B}"}]}')
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old\n")
    code = run(["eval", "--dataset", str(odd), "--mock", str(mock), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {out}:1: lone surrogate \\udcff (not encodable as UTF-8)\n"
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["dataset.jsonl", "script.json", "out.jsonl", "mock.json", odd.name])


def test_a_sweep_json_that_fails_to_encode_leaves_no_plot(tmp_path, dataset, capsys):
    # a dataset named by byte 0xff reaches the sweep JSON's provenance as
    # U+DCFF: that write fails citing its line, and no plot is written before it
    data_path, _ = dataset
    odd = tmp_path / os.fsdecode(b"\xff.jsonl")
    odd.write_bytes(data_path.read_bytes())
    mock = tmp_path / "ok.json"
    mock.write_text('{"entries": [{"trigger": "", "emission": "\\\\boxed{B}"}]}')
    csv_path, json_path = tmp_path / "sc.csv", tmp_path / "sj.json"
    argv = ["sweep", "--dataset", str(odd), "--mock", str(mock), "--budgets", "1,2,3"]
    assert run([*argv, "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {json_path}:12: lone surrogate \\udcff (not encodable as UTF-8)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([data_path.name, odd.name, mock.name])


def test_sweep_writes_csv_svg_summary(tmp_path, dataset, oracle_script):
    # the SVG's title is the dataset's name, which holds XML metacharacters here
    data_path = tmp_path / "a&b<c.jsonl"
    data_path.write_bytes(dataset[0].read_bytes())
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    summary = tmp_path / "sweep.json"
    code = run(
        [
            "sweep",
            "--dataset", str(data_path),
            "--mock", str(oracle_script),
            "--budgets", "16,32,64",
            "--out-csv", str(csv_path),
            "--out-svg", str(svg_path),
            "--summary", str(summary),
        ]
    )
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "x,accuracy,n,ci_low,ci_high"
    assert svg_path.read_text().startswith("<svg")
    minidom.parse(str(svg_path))
    payload = json.loads(summary.read_text())
    assert [p["x"] for p in payload["points"]] == [16, 32, 64]


def test_sweep_default_grid_spans_512_to_8192(tmp_path, dataset, oracle_script):
    data_path, _ = dataset
    csv_path = tmp_path / "default.csv"
    code = run(
        [
            "sweep",
            "--dataset", str(data_path),
            "--mock", str(oracle_script),
            "--out-csv", str(csv_path),
        ]
    )
    assert code == 0
    xs = [row.split(",")[0] for row in csv_path.read_text().splitlines()[1:]]
    assert xs == ["512", "1024", "2048", "4096", "8192"]


def test_sweep_outputs_are_byte_identical_across_runs(tmp_path, dataset, oracle_script):
    data_path, _ = dataset
    outputs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        assert (
            run(
                [
                    "sweep",
                    "--dataset", str(data_path),
                    "--mock", str(oracle_script),
                    "--budgets", "16,32",
                    "--out-csv", str(csv_path),
                    "--out-svg", str(svg_path),
                ]
            )
            == 0
        )
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_plot_from_saved_sweep(tmp_path, dataset, oracle_script):
    data_path, _ = dataset
    sweep_json = tmp_path / "sweep.json"
    assert (
        run(
            [
                "sweep",
                "--dataset", str(data_path),
                "--mock", str(oracle_script),
                "--budgets", "16,32,64",
                "--out-csv", str(tmp_path / "direct.csv"),
                "--out-json", str(sweep_json),
            ]
        )
        == 0
    )
    replot = tmp_path / "replot.csv"
    assert run(["plot", "--sweep", str(sweep_json), "--out", str(replot)]) == 0
    assert replot.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_force_sweep_flip(tmp_path, dataset):
    data_path, records = dataset
    entries = []
    for record in records:
        q = McqQuestion(
            id=record["id"],
            stem=record["question"],
            options=record["options"],
            gold=record["answer"],
            source=record["source"],
        )
        wrong = "A" if q.gold != "A" else "B"
        prompt = format_prompt(q)
        entries += [
            {"trigger": prompt + "<|im_start|>think", "emission": f"sure-{q.id}", "terminal_marker": ANSWER_MARKER},
            {"trigger": f"sure-{q.id}Wait.", "emission": f"doubt-{q.id}", "terminal_marker": ANSWER_MARKER},
            {"trigger": f"sure-{q.id}{ANSWER_MARKER}Final Answer:", "emission": f"\\boxed{{{q.gold}}}"},
            {"trigger": f"doubt-{q.id}{ANSWER_MARKER}Final Answer:", "emission": f"\\boxed{{{wrong}}}"},
        ]
    script = tmp_path / "flip.json"
    script.write_text(json.dumps({"entries": entries}))
    summary = tmp_path / "force.json"
    code = run(
        [
            "force-sweep",
            "--dataset", str(data_path),
            "--mock", str(script),
            "--max-forcings", "1",
            "--out-csv", str(tmp_path / "force.csv"),
            "--summary", str(summary),
        ]
    )
    assert code == 0
    points = json.loads(summary.read_text())["points"]
    assert points[0]["accuracy"] == 1.0
    assert points[1]["accuracy"] < points[0]["accuracy"]


def test_curate_sample_deterministic_bytes(tmp_path):
    records = [
        question_record(f"q{i:03d}", source=f"ds{i % 3}", domains=[f"dom{i % 4}"])
        for i in range(60)
    ]
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, records)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sample-{tag}.jsonl"
        code = run(
            [
                "curate", "sample",
                "--pool", str(pool),
                "--n", "20",
                "--seed", "42",
                "--out", str(out),
                "--report", str(tmp_path / f"report-{tag}.json"),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    sampled = load_questions(str(tmp_path / "sample-a.jsonl"))
    assert len(sampled) == 20
    report = json.loads((tmp_path / "report-a.json").read_text())
    assert report["stages"][-1]["total"] == 20
    # the sampler's rng and seed are in its row, and the seed in the config, not in the header too
    assert report["header"] == {}
    assert report["stages"][-1]["params"] == {"rng": curation.SAMPLER_RNG, "seed": 42, "target_n": 20}
    assert report["_provenance"]["config"] == {"seed": 42}


def test_curate_filter_with_mock_graders(tmp_path):
    records = [question_record(f"q{i}", gold="B") for i in range(4)]
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, records)
    # grader answers q0 correctly, misses the rest; probe calls send the
    # bare prompt, so triggers key on it directly
    entries = []
    for record in records:
        q = McqQuestion(
            id=record["id"],
            stem=record["question"],
            options=record["options"],
            gold=record["answer"],
            source=record["source"],
        )
        letter = "B" if q.id == "q0" else "C"
        entries.append({"trigger": format_prompt(q), "emission": f"\\boxed{{{letter}}}"})
    script = tmp_path / "grader.json"
    script.write_text(json.dumps({"entries": entries}))
    out = tmp_path / "kept.jsonl"
    report = tmp_path / "report.json"
    code = run(
        [
            "curate", "filter",
            "--pool", str(pool),
            "--mock", str(script),
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert code == 0
    kept = load_questions(str(out))
    assert [q.id for q in kept] == ["q1", "q2", "q3"]
    stages = json.loads(report.read_text())["stages"]
    assert stages[0]["total"] == 4
    assert stages[1]["total"] == 3


def test_curate_filter_probe_uses_trace_ceiling(tmp_path):
    # the probe request must accept the 8K ceiling: a grader whose reply is
    # huge still grades fine
    records = [question_record("q0", gold="B")]
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, records)
    q = McqQuestion(
        id="q0",
        stem=records[0]["question"],
        options=records[0]["options"],
        gold="B",
        source="demo",
    )
    long_reply = " ".join(["waffle"] * 5000) + " \\boxed{C}"
    script = tmp_path / "grader.json"
    script.write_text(
        json.dumps({"entries": [{"trigger": format_prompt(q), "emission": long_reply}]})
    )
    out = tmp_path / "kept.jsonl"
    assert run(["curate", "filter", "--pool", str(pool), "--mock", str(script), "--out", str(out)]) == 0
    assert [x.id for x in load_questions(str(out))] == ["q0"]


def test_curate_filter_sends_configured_temperature_and_seed(tmp_path, dataset, monkeypatch):
    """The wire graders send the ``--temperature`` and ``--seed`` that the
    output's ``_meta.config`` records."""
    data_path, records = dataset
    sent = []

    def raw_stream(self, req):
        sent.append((self.temperature, self.seed))
        yield "\\boxed{A}"

    monkeypatch.setattr(WireBackend, "raw_stream", raw_stream)
    out = tmp_path / "kept.jsonl"
    argv = ["curate", "filter", "--pool", str(data_path), "--out", str(out), "--temperature", "0.7", "--seed", "5"]
    assert run(argv) == 0
    assert sent == [(0.7, 5)] * len(records)
    meta = json.loads(out.read_text().splitlines()[0])["_meta"]["config"]
    assert (meta["temperature"], meta["seed"]) == (0.7, 5)


def test_curate_validate_and_format_sft(tmp_path, capsys):
    base = question_record("t1", gold="A")
    good = dict(base, thinking="step one", response="\\boxed{A}", extracted="A", verified=True)
    bad = dict(
        question_record("t2", gold="A"), thinking="hmm", response="\\boxed{B}", extracted="B", verified=False
    )
    # a trace from another generator stores no verdict: validate grades its response
    ungraded = dict(question_record("t3", gold="C"), thinking="so C", response="\\boxed{C}")
    traces = tmp_path / "traces.jsonl"
    write_jsonl_file(traces, [good, bad, ungraded])
    out = tmp_path / "verified.jsonl"
    report = tmp_path / "report.json"
    assert (
        run(["curate", "validate", "--traces", str(traces), "--out", str(out), "--report", str(report)])
        == 0
    )
    kept = [json.loads(l) for l in out.read_text().splitlines() if "_meta" not in l]
    assert [r["id"] for r in kept] == ["t1", "t3"]
    assert (kept[1]["extracted"], kept[1]["verified"]) == ("C", True)

    sft = tmp_path / "sft.jsonl"
    assert run(["curate", "format-sft", "--traces", str(out), "--out", str(sft)]) == 0
    rows = [json.loads(l) for l in sft.read_text().splitlines() if "_meta" not in l]
    assert len(rows) == 2
    assert all(row["text"].count("<|im_start|>think") == 1 for row in rows)
    assert all(row["text"].count("<|im_start|>answer") == 1 for row in rows)

    # a stored verdict that its response contradicts is refused, not trusted
    capsys.readouterr()
    lying = tmp_path / "lying.jsonl"
    write_jsonl_file(lying, [dict(base, thinking="x", response="\\boxed{B}", extracted="A", verified=True)])
    for argv in (["curate", "validate", "--out", str(tmp_path / "v2.jsonl")], ["curate", "format-sft", "--out", str(tmp_path / "sft2.jsonl")]):
        assert run([*argv, "--traces", str(lying)]) == 1
        err = capsys.readouterr().err
        assert f"{lying}:1: field 'extracted' is 'A', but the response grades to 'B'" in err
        assert "Traceback" not in err
    assert not list(tmp_path.glob("*2.jsonl"))


def test_curate_decontaminate_and_dedup(tmp_path):
    def stem(seed):
        return " ".join(f"{seed}{i}" for i in range(10))

    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(
        pool,
        [
            question_record("p1", stem=stem("leak")),
            question_record("p2", stem=stem("fresh")),
            question_record("p3", stem=stem("fresh")),
        ],
    )
    evalset = tmp_path / "eval.jsonl"
    write_jsonl_file(evalset, [question_record("e1", stem=stem("leak"))])
    out = tmp_path / "clean.jsonl"
    code = run(
        [
            "curate", "decontaminate",
            "--pool", str(pool),
            "--eval", str(evalset),
            "--out", str(out),
            "--report", str(tmp_path / "report.json"),
        ]
    )
    assert code == 0
    assert [q.id for q in load_questions(str(out))] == ["p2"]

    dedup_out = tmp_path / "deduped.jsonl"
    assert run(["curate", "dedup", "--pool", str(pool), "--out", str(dedup_out)]) == 0
    assert [q.id for q in load_questions(str(dedup_out))] == ["p1", "p2"]


@pytest.mark.parametrize("ngram", ["0", "-1"])
def test_curate_decontaminate_rejects_nonpositive_ngram(tmp_path, capsys, ngram):
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, [question_record("p1", stem="one two three")])
    evalset = tmp_path / "eval.jsonl"
    write_jsonl_file(evalset, [question_record("e1", stem="four five six")])
    out = tmp_path / "clean.jsonl"
    argv = ["curate", "decontaminate", "--pool", str(pool), "--eval", str(evalset), "--out", str(out)]
    assert run(argv + ["--ngram", ngram]) == 1
    assert "ngram_size must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_curate_annotate(tmp_path):
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, [question_record("q1", stem="Advanced chemotherapy protocols.")])
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"chemotherapy": "Drug Therapy"}))
    out = tmp_path / "annotated.jsonl"
    assert (
        run(["curate", "annotate", "--pool", str(pool), "--lexicon", str(lexicon), "--out", str(out)])
        == 0
    )
    assert load_questions(str(out))[0].domains == ["Drug Therapy"]


def test_curate_sample_rejects_repeated_domain_label(tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, [question_record("q0", domains=["D"]), question_record("q1", domains=["D", "D"])])
    code = run(["curate", "sample", "--pool", str(pool), "--n", "1", "--out", str(tmp_path / "out.jsonl")])
    assert code == 1
    assert f"{pool}:2:" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("source", None, "source must be a string, got None"),
        ("source", 5, "source must be a string, got 5"),
        ("options", {"A": 1, "B": "two"}, "option 'A' must be a string, got 1"),
    ],
    ids=["source-null", "source-number", "option-number"],
)
def test_a_non_string_option_text_or_source_exits_1_citing_its_line(tmp_path, capsys, field, value, message):
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, [question_record("q0"), dict(question_record("q1"), **{field: value})])
    out = tmp_path / "out.jsonl"
    assert run(["curate", "dedup", "--pool", str(pool), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {pool}:2: question 'q1': {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "n, seed, message",
    [("1", "-1", "sampler seed must be >= 0, got -1"), ("-1", "0", "target_n must be >= 0")],
    ids=["seed", "n"],
)
def test_curate_sample_rejects_a_negative_seed_or_n(tmp_path, capsys, n, seed, message):
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, [question_record("q0"), question_record("q1")])
    out = tmp_path / "out.jsonl"
    assert run(["curate", "sample", "--pool", str(pool), "--n", n, "--seed", seed, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lexicon", [["stem"], 3, {"stem": 3}, {}])
def test_curate_annotate_rejects_malformed_lexicon(tmp_path, capsys, lexicon):
    pool = tmp_path / "pool.jsonl"
    write_jsonl_file(pool, [question_record("q1", stem="A stem.")])
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps(lexicon))
    out = tmp_path / "annotated.jsonl"
    assert run(["curate", "annotate", "--pool", str(pool), "--lexicon", str(path), "--out", str(out)]) == 1
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
pool_rows = st.lists(
    st.tuples(
        st.sampled_from(["alpha beta?", "beta gamma?", "gamma?"]),
        st.sampled_from(["s0", "s1"]),
        st.lists(st.sampled_from(["D", "E", "Unlabeled"]), max_size=3),
    ),
    max_size=5,
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    rows=pool_rows,
    lexicon=json_values | st.dictionaries(st.sampled_from(["alpha", "gamma"]), st.sampled_from(["D", "E"])),
    n=st.integers(0, 6),
)
def test_curate_exit_codes_never_escape(rows, lexicon, n):
    """Any pool or lexicon ends in exit code 0, 1 or 2, never a traceback."""
    records = [
        question_record(f"q{i}", stem, source=source, domains=domains)
        for i, (stem, source, domains) in enumerate(rows)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        pool, lexicon_path, out = (pathlib.Path(tmp) / name for name in ("pool.jsonl", "lexicon.json", "out.jsonl"))
        write_jsonl_file(pool, records)
        lexicon_path.write_text(json.dumps(lexicon))
        for argv in (
            ["curate", "sample", "--pool", str(pool), "--n", str(n), "--out", str(out)],
            ["curate", "annotate", "--pool", str(pool), "--lexicon", str(lexicon_path), "--out", str(out)],
            ["curate", "dedup", "--pool", str(pool), "--out", str(out)],
        ):
            assert run(argv) in (0, 1, 2)


def test_report_validates_and_prints(tmp_path, capsys):
    report_path = tmp_path / "ledger.json"
    report_path.write_text(
        json.dumps(
            {
                "header": {},
                "stages": [
                    {"name": "initial", "counts": {"a": 5, "b": 3}, "total": 8},
                    {"name": "filtered", "counts": {"a": 2, "b": 1}, "total": 3},
                ],
            }
        )
    )
    assert run(["report", "--in", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "initial" in out and "filtered" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stages": [{"name": "s", "counts": {"a": 1}, "total": 9}]}))
    assert run(["report", "--in", str(bad)]) == 1
    # report writes nothing, so an input named by byte 0xff, which no
    # provenance could record, prints as any other does
    odd = tmp_path / os.fsdecode(b"\xff.json")
    odd.write_bytes(report_path.read_bytes())
    capsys.readouterr()
    assert run(["report", "--in", str(odd)]) == 0
    assert capsys.readouterr() == (out, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([report_path.name, bad.name, odd.name])


GOOD_FIT = {"slope": 1.0, "intercept": 0.0, "residual_se": 0.5, "n": 3, "x_mean": 2.0, "sxx": 2.0, "t_crit": 12.7}
GOOD_POINT = {"x": 1, "accuracy": 0.5, "n": 2, "n_correct": 1, "mean_thinking_tokens": 1}


def _sweep_with_fit(**fit) -> str:
    """A drawable sweep JSON whose fit has ``fit`` in place of a good one's fields."""
    return _sweep_with_fit_value({**GOOD_FIT, **fit})


def _sweep_with_fit_value(fit, **keys) -> str:
    """A sweep JSON of one good point whose ``fit`` is ``fit``, plus ``keys``."""
    return json.dumps({"dataset": "d", "kind": "budget", "points": [GOOD_POINT], "fit": fit, **keys})


def _sweep_with_point(**point) -> str:
    """A sweep JSON of one point, with ``point`` in place of a good one's fields."""
    return json.dumps({"dataset": "d", "kind": "budget", "points": [{**GOOD_POINT, **point}], "fit": None})


@pytest.mark.parametrize(
    "option, content",
    [
        pytest.param("--sweep", "{}", id="sweep-no-points"),
        pytest.param("--sweep", "[]", id="sweep-not-object"),
        pytest.param("--sweep", '{"dataset": "d", "kind": "budget", "points": [{"x": 1}], "fit": null}', id="sweep-partial-point"),
        pytest.param("--sweep", "not json", id="sweep-not-json"),
        pytest.param("--in", "{}", id="report-no-stages"),
        pytest.param("--in", '{"stages": [{"name": "a"}]}', id="report-no-counts"),
        pytest.param("--mock", "{}", id="mock-no-entries"),
        pytest.param("--mock", '{"entries": 3}', id="mock-entries-not-list"),
        pytest.param("--mock", '{"entries": [{"trigger": 3, "emission": "x"}]}', id="mock-trigger-not-string"),
        pytest.param("--mock", '{"entries": [{"trigger": "", "emission": ["x"]}]}', id="mock-emission-not-string"),
        pytest.param("--mock", '{"entries": [{"trigger": "", "emission": "x", "terminal_marker": 3}]}', id="mock-terminal-marker-not-string"),
        pytest.param("--mock", "not json", id="mock-not-json"),
        pytest.param("--lexicon", "not json", id="lexicon-not-json"),
        pytest.param("--dataset", None, id="dataset-directory"),
        pytest.param(
            "--sweep",
            '{"dataset": "d", "kind": "budget", "points": [{"x": "a", "accuracy": 0.5, "n": 2, "n_correct": 1, "mean_thinking_tokens": 1}], "fit": null}',
            id="sweep-point-field-wrong-type",
        ),
        pytest.param("--sweep", b"\xff\xfe{}", id="sweep-not-utf8"),
        pytest.param("--pool", b"\xff\xfe\n", id="pool-not-utf8"),
        pytest.param("--pool", '{"id": "q1", "question": "\\ud800", "options": {"A": "x"}, "answer": "A"}', id="pool-lone-surrogate"),
        pytest.param("--mock", '{"entries": [{"trigger": "", "emission": "x\\ud800"}]}', id="mock-lone-surrogate"),
        pytest.param("--lexicon", '{"tachycardia": "Diag\\ud800"}', id="lexicon-lone-surrogate"),
        pytest.param("--sweep", json.dumps({"dataset": "d\ud800", "points": [GOOD_POINT]}), id="sweep-lone-surrogate"),
        pytest.param("--in", '{"header": {}, "stages": [{"name": "a\\ud800", "counts": {"x": 1}}]}', id="report-lone-surrogate"),
        pytest.param("--pool", b"\xef\xbb\xbf" + json.dumps(question_record("q1")).encode(), id="pool-bom"),
        pytest.param("--pool", json.dumps(question_record("q1")) + " " + json.dumps(question_record("q1")), id="pool-two-objects"),
        pytest.param("--pool", json.dumps({"_meta": "stray", **question_record("q1")}), id="pool-meta-beside-fields"),
        pytest.param("--sweep", '{"dataset": "d", "kind": "bogus", "points": [], "fit": null}', id="sweep-unknown-kind"),
        pytest.param("--in", '{"stages": [{"name": "s", "counts": {"x": 1.5, "y": true}, "total": 2.5}]}', id="report-count-not-integer"),
        pytest.param(
            "--sweep",
            '{"dataset": 5, "kind": "budget", "points": [{"x": 1, "accuracy": 0.5, "n": 2, "n_correct": 1, "mean_thinking_tokens": 1}], "fit": null}',
            id="sweep-dataset-not-string",
        ),
        pytest.param("--sweep-svg", json.dumps({"dataset": 5, "kind": "budget", "points": [GOOD_POINT], "fit": None}), id="sweep-dataset-not-string-svg"),
        pytest.param(
            "--sweep",
            '{"dataset": "d", "kind": "budget", "points": [{"x": Infinity, "accuracy": 0.5, "n": 2, "n_correct": 1, "mean_thinking_tokens": 1}], "fit": null}',
            id="sweep-x-infinite",
        ),
        pytest.param(
            "--sweep",
            '{"dataset": "d", "kind": "budget", "points": [{"x": NaN, "accuracy": 0.5, "n": 2, "n_correct": 1, "mean_thinking_tokens": 1}], "fit": null}',
            id="sweep-x-nan",
        ),
        pytest.param(
            "--sweep",
            '{"dataset": "d", "kind": "budget", "points": [{"x": 1, "accuracy": 0.5, "n": -2, "n_correct": -1, "mean_thinking_tokens": 1}], "fit": null}',
            id="sweep-count-negative",
        ),
        # a point of no questions, which no sweep makes, would draw any accuracy
        pytest.param("--sweep", _sweep_with_point(accuracy=0.7, n=0, n_correct=0), id="sweep-n-zero"),
        pytest.param("--sweep-svg", _sweep_with_point(accuracy=0.7, n=0, n_correct=0), id="sweep-n-zero-svg"),
        pytest.param("--sweep", _sweep_with_point(mean_thinking_tokens=-5), id="sweep-mean-tokens-negative"),
        pytest.param("--sweep-svg", _sweep_with_point(mean_thinking_tokens=-5), id="sweep-mean-tokens-negative-svg"),
        # an x no sweep of its kind makes: a budget is an integer >= 1, a forcing count one >= 0
        pytest.param("--sweep", json.dumps({"dataset": "d", "kind": "forcing", "points": [{**GOOD_POINT, "x": -5}], "fit": None}), id="sweep-forcing-x-negative"),
        pytest.param("--sweep-svg", json.dumps({"dataset": "d", "kind": "forcing", "points": [{**GOOD_POINT, "x": -5}], "fit": None}), id="sweep-forcing-x-negative-svg"),
        pytest.param("--sweep-svg", json.dumps({"dataset": "d", "kind": "forcing", "points": [{**GOOD_POINT, "x": 2.5}], "fit": None}), id="sweep-forcing-x-fractional-svg"),
        pytest.param("--sweep", _sweep_with_point(x=0), id="sweep-budget-x-zero"),
        pytest.param("--sweep-svg", _sweep_with_point(x=0), id="sweep-budget-x-zero-svg"),
        pytest.param("--in", '{"stages": [{"name": ["x"], "counts": {"a": 1}, "total": 1}]}', id="report-name-not-string"),
        pytest.param("--in", '{"stages": [{"name": "s", "counts": {"a": 1}, "total": 1, "params": [1]}]}', id="report-params-not-object"),
        pytest.param("--in", '{"stages": [{"name": "s", "counts": [["a", 1]], "total": 1}]}', id="report-counts-not-object"),
        pytest.param("--in", '{"header": [["a", 1]], "stages": []}', id="report-header-not-object"),
        # past sys.get_int_max_str_digits() the decoder raises a bare ValueError
        pytest.param("--pool", '{"id": "q1", "question": "x", "options": {"A": "x"}, "answer": "A", "n": %s}' % ("1" * 5001), id="pool-int-too-long"),
        pytest.param("--sweep", '{"dataset": "d", "points": [{"x": %s}]}' % ("1" * 5001), id="sweep-int-too-long"),
        # past the recursion limit it raises RecursionError
        pytest.param("--pool", '{"id": "q1", "n": %s}' % ("[" * 100_000 + "]" * 100_000), id="pool-nested-too-deeply"),
        pytest.param("--sweep", '{"dataset": "d", "points": %s}' % ("[" * 100_000 + "]" * 100_000), id="sweep-nested-too-deeply"),
        # fits the band cannot be drawn from: n = 0 divides by zero, a negative
        # sxx takes a negative root, and a string or NaN slope is no number
        pytest.param("--sweep", _sweep_with_fit(n=0), id="fit-n-zero"),
        pytest.param("--sweep-svg", _sweep_with_fit(n=0), id="fit-n-zero-svg"),
        pytest.param("--sweep", _sweep_with_fit(slope="1"), id="fit-slope-string"),
        pytest.param("--sweep-svg", _sweep_with_fit(slope="1"), id="fit-slope-string-svg"),
        pytest.param("--sweep", _sweep_with_fit(sxx=-2.0), id="fit-sxx-negative"),
        pytest.param("--sweep-svg", _sweep_with_fit(sxx=-2.0), id="fit-sxx-negative-svg"),
        pytest.param("--sweep", _sweep_with_fit(slope=float("nan")), id="fit-slope-nan"),
        pytest.param("--sweep-svg", _sweep_with_fit(slope=float("nan")), id="fit-slope-nan-svg"),
        pytest.param("--sweep", '{"dataset": "d", "kind": "budget", "points": [], "fit": null}', id="sweep-points-empty"),
        pytest.param("--sweep-svg", '{"dataset": "d", "kind": "budget", "points": [], "fit": null}', id="sweep-points-empty-svg"),
    ],
)
def test_malformed_json_input_exits_1_naming_the_file(tmp_path, capsys, dataset, oracle_script, option, content):
    """``None`` content makes the input a directory; bytes are written as they are.
    Every other input is one line, so its error cites line 1."""
    data_path, _ = dataset
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    out = str(tmp_path / "out")
    argv = {
        "--sweep": ["plot", "--sweep", str(path), "--out", out + ".csv"],
        "--sweep-svg": ["plot", "--sweep", str(path), "--out", out + ".svg"],
        "--in": ["report", "--in", str(path)],
        "--mock": ["eval", "--dataset", str(data_path), "--mock", str(path)],
        "--lexicon": ["curate", "annotate", "--pool", str(data_path), "--lexicon", str(path), "--out", out],
        "--dataset": ["eval", "--dataset", str(path), "--mock", str(oracle_script)],
        "--pool": ["curate", "dedup", "--pool", str(path), "--out", out],
    }[option]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err
    if content is not None:
        assert f"{path}:1:" in err


@pytest.mark.parametrize(
    "option, content, message",
    [
        pytest.param("--in", '{"stages": 5}', "stages must be an array, not a number", id="report-stages-not-array"),
        pytest.param("--in", '{"stages": [[]]}', "stages[0] must be an object, not an array", id="report-stage-not-object"),
        pytest.param("--in", '{"stages": [{"name": "s", "counts": {"a": "1"}, "total": 1}]}', "stage 's': a count is not a non-negative integer", id="report-count-string"),
        pytest.param("--mock", '{"entries": [{"trigger": ""}, "x"]}', "entries[1] must be an object, not a string", id="mock-entry-not-object"),
        pytest.param("--mock", '{"entries": {"trigger": ""}}', "entries must be an array, not an object", id="mock-entries-not-array"),
        pytest.param("--sweep", json.dumps({"dataset": "d", "kind": "budget", "points": [None], "fit": None}), "points[0] must be an object, not null", id="sweep-point-null"),
        pytest.param("--sweep", json.dumps({"dataset": "d", "kind": "budget", "points": [{"x": 1}], "fit": None}), "points[0] lacks field 'accuracy'", id="sweep-point-lacks-field"),
        pytest.param("--sweep", _sweep_with_point(bogus=1), "points[0] has unknown fields ['bogus']", id="sweep-point-unknown-field"),
        pytest.param("--sweep", json.dumps({"dataset": "d", "kind": "budget", "points": [GOOD_POINT], "fit": "x"}), "fit must be an object, not a string", id="fit-not-object"),
        pytest.param("--sweep", json.dumps({"dataset": "d", "kind": "budget", "points": [GOOD_POINT], "fit": {"slope": 1}}), "fit lacks field 'intercept'", id="fit-lacks-field"),
        # a sweep names its kind: read as a budget sweep, a forcing sweep would fail at x=0 or get the wrong axis
        pytest.param("--sweep", json.dumps({"dataset": "d", "points": [GOOD_POINT], "fit": None}), "sweep lacks field 'kind'", id="sweep-no-kind"),
        pytest.param("--sweep", json.dumps({"dataset": "d", "points": [{**GOOD_POINT, "x": 0}], "fit": None}), "sweep lacks field 'kind'", id="sweep-forcing-no-kind"),
        # only null means a sweep has no band: any other fit is read as one
        pytest.param("--sweep", _sweep_with_fit_value({}), "fit lacks field 'slope'", id="fit-empty-object"),
        pytest.param("--sweep", _sweep_with_fit_value(False), "fit must be an object, not a boolean", id="fit-false"),
        pytest.param("--sweep", _sweep_with_fit_value(0), "fit must be an object, not a number", id="fit-zero"),
        pytest.param("--sweep", _sweep_with_fit_value(""), "fit must be an object, not a string", id="fit-empty-string"),
        pytest.param("--sweep", _sweep_with_fit_value([]), "fit must be an object, not an array", id="fit-empty-array"),
        pytest.param("--sweep", json.dumps({"dataset": "d", "kind": "budget", "points": [GOOD_POINT]}), "sweep lacks field 'fit'", id="sweep-no-fit"),
        # a misspelt key is named, not read as absent
        pytest.param(
            "--sweep",
            json.dumps({"dataset": "d", "kind": "budget", "points": [GOOD_POINT], "fitt": GOOD_FIT, "pointz": []}),
            "sweep lacks field 'fit'",
            id="sweep-fit-misspelt",
        ),
        pytest.param("--sweep", _sweep_with_fit_value(None, pointz=[]), "sweep has unknown fields ['pointz']", id="sweep-unknown-key"),
        pytest.param(
            "--in",
            '{"headr": {"a": 1}, "stages": [{"name": "s", "counts": {"a": 1}, "totl": 5}]}',
            "ledger has unknown fields ['headr']",
            id="report-header-misspelt",
        ),
        pytest.param(
            "--in", '{"header": {}, "stages": [{"name": "s", "counts": {"a": 1}, "totl": 5}]}', "stages[0] lacks field 'total'", id="report-total-misspelt"
        ),
        pytest.param(
            "--in",
            '{"stages": [{"name": "s", "counts": {"a": 1}, "total": 1, "totl": 5}]}',
            "stages[0] has unknown fields ['totl']",
            id="report-stage-unknown-key",
        ),
    ],
)
def test_a_json_field_of_the_wrong_shape_is_named(tmp_path, capsys, dataset, option, content, message):
    data_path, _ = dataset
    path = tmp_path / "input.json"
    path.write_text(content)
    argv = {
        "--in": ["report", "--in", str(path)],
        "--mock": ["eval", "--dataset", str(data_path), "--mock", str(path)],
        "--sweep": ["plot", "--sweep", str(path), "--out", str(tmp_path / "out.csv")],
    }[option]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {path}:1: {message}\n")


@pytest.mark.parametrize(
    "script, message",
    [
        pytest.param({"entries": [{"trigger": "", "emision": "\\boxed{B}"}]}, "entries[0] has unknown fields ['emision']", id="entry-key"),
        pytest.param({"entries": [{"trigger": ""}], "entry": []}, "top level has unknown fields ['entry']", id="top-level-key"),
    ],
)
def test_a_misspelt_mock_key_exits_1_and_writes_nothing(tmp_path, capsys, dataset, script, message):
    # the misspelt entry would emit nothing, and every run would count incorrect
    data_path, _ = dataset
    mock = tmp_path / "m.json"
    mock.write_text(json.dumps(script))
    argv = ["eval", "--dataset", str(data_path), "--mock", str(mock), "--out", str(tmp_path / "o.jsonl")]
    assert run([*argv, "--summary", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr() == ("", f"error: {mock}:1: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([data_path.name, mock.name])


@pytest.mark.parametrize("name", ["replot.png", "replot", "replot.CSV", "csv"])
def test_plot_exits_1_on_an_out_suffix_that_names_no_format(tmp_path, capsys, name):
    # checked before the sweep is read, so the missing sweep goes unnamed
    out = tmp_path / name
    assert run(["plot", "--sweep", str(tmp_path / "missing.json"), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: plot writes a .csv or .svg file, named by the suffix of --out\n")
    assert list(tmp_path.iterdir()) == []


def test_config_file_and_flag_precedence(tmp_path, dataset, oracle_script):
    data_path, _ = dataset
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[policy]\nthinking_budget = 99\nper_forcing_cap = 13\n")
    summary = tmp_path / "summary.json"
    code = run(
        [
            "eval",
            "--config", str(cfg),
            "--per-forcing-cap", "7",
            "--dataset", str(data_path),
            "--mock", str(oracle_script),
            "--summary", str(summary),
        ]
    )
    assert code == 0
    effective = json.loads(summary.read_text())["_provenance"]["config"]
    assert effective["per_forcing_cap"] == 7
    assert effective["thinking_budget"] == 99


def test_unknown_config_key_exits_1(tmp_path, dataset, oracle_script, capsys):
    data_path, _ = dataset
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[backend]\ntemprature = 0\n")
    code = run(
        ["eval", "--config", str(cfg), "--dataset", str(data_path), "--mock", str(oracle_script)]
    )
    assert code == 1
    assert "temprature" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, line",
    [
        pytest.param(b"seed = 1\n", 1, id="no-section-header"),
        pytest.param(b"[backend]\nseed = 1\nseed = 2\n", 3, id="repeated-key"),
        pytest.param(b"[backend]\nseed = abc\n", 2, id="bad-value"),
        pytest.param(b"[policy]\nthinking_budget = 8\n[bogus]\n", 3, id="unknown-section"),
        pytest.param(b"[backend]\nseed\n", 2, id="no-delimiter"),
        pytest.param(b"[policy]\nforcing_text = \xff\n", 2, id="not-utf8"),
        pytest.param(b"[policy]\nthinking_budget = 8\nper_forcing_cap = 0\n", 3, id="per-forcing-cap-below-1"),
        pytest.param(b"[policy]\nforcing_count = -1\n", 2, id="forcing-count-below-0"),
        pytest.param(b"[run]\nworkers = 0\n", 2, id="workers-0"),
        pytest.param(b"# a comment\n\n; another\n[run]\nworkers = 0\n", 5, id="after-comments-and-a-blank-line"),
        pytest.param(b"[run]\nworkers = -3\n", 2, id="workers-negative"),
        pytest.param(b"[policy]\nforcing_count = 2\nforcing_text =\n", 3, id="forcing-text-empty-after-count"),
        pytest.param(b"[policy]\nforcing_text =\nthinking_budget = 8\nforcing_count = 2\n", 4, id="forcing-count-after-empty-text"),
        pytest.param(b"[backend]\nbase_url = localhost:8000\n", 2, id="base-url-without-scheme"),
        pytest.param(b"[backend]\ntemperature = -0.5\n", 2, id="temperature-negative"),
        pytest.param(b"[backend]\ntemperature = nan\n", 2, id="temperature-nan"),
    ],
)
def test_malformed_config_exits_1_citing_file_and_line(tmp_path, dataset, oracle_script, capsys, content, line):
    data_path, _ = dataset
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(content)
    code = run(["eval", "--config", str(cfg), "--dataset", str(data_path), "--mock", str(oracle_script)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cfg}:{line}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--workers", "0", "workers must be >= 1", id="0"),
        pytest.param("--workers", "-3", "workers must be >= 1", id="-3"),
        # json.dumps would put Infinity, which is not JSON, into the request body
        pytest.param("--temperature", "inf", "temperature must be a finite number", id="temperature-inf"),
    ],
)
def test_workers_flag_below_1_exits_1(dataset, monkeypatch, capsys, flag, value, message):
    # a value out of range exits 1 before any request is sent
    data_path, _ = dataset
    called = []
    monkeypatch.setattr(WireBackend, "raw_stream", lambda self, req: called.append(req) or iter(["\\boxed{A}"]))
    assert run(["eval", flag, value, "--dataset", str(data_path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert called == []


@pytest.mark.parametrize("url", ["localhost:8000", "http://", "http://localhost:abc", "http://localhost:0"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_malformed_base_url_exits_1(dataset, oracle_script, capsys, monkeypatch, source, url):
    # such a URL used to fail every backend call, which counted each question incorrect
    data_path, _ = dataset
    flags = ["--base-url", url] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("M1_BASE_URL", url)
    code = run(["eval", *flags, "--dataset", str(data_path), "--mock", str(oracle_script)])
    assert code == 1
    err = capsys.readouterr().err
    assert repr(url) in err
    assert "Traceback" not in err


def _help_options(argv: list[str], capsys) -> set[str]:
    assert run([*argv, "--help"]) == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}


def test_only_commands_that_build_a_backend_take_mock(capsys):
    takes_mock = [list(words) for words in cli.COMMANDS if "--mock" in _help_options(list(words), capsys)]
    assert takes_mock == [["curate", "filter"], ["eval"], ["sweep"], ["force-sweep"]]


def test_run_builds_arguments_only_for_the_command_it_runs(tmp_path, dataset, monkeypatch):
    data_path, _ = dataset
    flags = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *names, **kwargs):
        flags.append(names[0])
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert run(["curate", "dedup", "--pool", str(data_path), "--out", str(tmp_path / "o.jsonl")]) == 0
    # a -h for the top level, for curate and for each command, then dedup's own
    assert flags.count("-h") == 2 + len(cli.COMMANDS)
    assert [f for f in flags if f != "-h"] == ["--pool", "--out", "--report"]


def test_plot_and_report_take_no_config(capsys):
    assert _help_options(["plot"], capsys) == {"--sweep", "--out"}
    assert _help_options(["report"], capsys) == {"--in"}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["plot", "--sweep", "s.json", "--out", "o.csv", "--config", "c.ini"], id="plot-config"),
        pytest.param(["plot", "--sweep", "s.json", "--out", "o.csv", "--seed", "1"], id="plot-seed"),
        pytest.param(["plot", "--sweep", "s.json", "--out", "o.csv", "--mock", "m.json"], id="plot-mock"),
        # the suffix of --out names the format, a sweep JSON holds its fit, and report writes nothing
        pytest.param(["plot", "--sweep", "s.json", "--format", "csv", "--out", "o.csv"], id="plot-format"),
        pytest.param(["plot", "--sweep", "s.json", "--out", "o.csv", "--no-fit"], id="plot-no-fit"),
        pytest.param(["sweep", "--dataset", "d.jsonl", "--out-csv", "o.csv", "--no-fit"], id="sweep-no-fit"),
        pytest.param(["force-sweep", "--dataset", "d.jsonl", "--max-forcings", "1", "--out-csv", "o.csv", "--no-fit"], id="force-sweep-no-fit"),
        pytest.param(["report", "--in", "r.json", "--out", "o.json"], id="report-out"),
        pytest.param(["report", "--in", "r.json", "--budget", "8"], id="report-budget"),
        pytest.param(["report", "--in", "r.json", "--base-url", "http://localhost:1"], id="report-base-url"),
        pytest.param(["curate", "dedup", "--pool", "p.jsonl", "--out", "o.jsonl", "--mock", "m.json"], id="dedup-mock"),
        pytest.param(["curate", "validate", "--traces", "t.jsonl", "--out", "o.jsonl", "--mock", "m.json"], id="validate-mock"),
        pytest.param(["curate", "dedup", "--pool", "p.jsonl", "--out", "o.jsonl", "--seed", "1"], id="dedup-seed"),
        pytest.param(["curate", "sample", "--pool", "p.jsonl", "--n", "2", "--out", "o.jsonl", "--budget", "8"], id="sample-budget"),
        pytest.param(["curate", "filter", "--pool", "p.jsonl", "--out", "o.jsonl", "--budget", "8"], id="filter-budget"),
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    assert run(argv) == 2


def test_plot_and_report_ignore_a_malformed_base_url(tmp_path, monkeypatch, capsys):
    # neither reads the config, so a bad M1_BASE_URL must not stop them
    monkeypatch.setenv("M1_BASE_URL", "localhost:8000")
    sweep = {"dataset": "d", "kind": "budget", "points": [{"x": 8, "accuracy": 0.5, "n": 2, "n_correct": 1, "mean_thinking_tokens": 4.0}], "fit": None}
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    assert run(["plot", "--sweep", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "o.csv")]) == 0
    ledger = {"stages": [{"name": "initial", "counts": {"a": 1}, "total": 1}]}
    (tmp_path / "ledger.json").write_text(json.dumps(ledger))
    assert run(["report", "--in", str(tmp_path / "ledger.json")]) == 0


def _backend_command(command: str, data_path, out) -> list[str]:
    """A command that builds a backend, writing its provenance to ``out``."""
    sweep_csv = str(out) + ".csv"
    return {
        "eval": ["eval", "--dataset", str(data_path), "--summary", str(out)],
        "sweep": ["sweep", "--dataset", str(data_path), "--budgets", "16", "--out-csv", sweep_csv, "--summary", str(out)],
        "force-sweep": ["force-sweep", "--dataset", str(data_path), "--max-forcings", "1", "--out-csv", sweep_csv, "--summary", str(out)],
        "curate-filter": ["curate", "filter", "--pool", str(data_path), "--out", str(out)],
    }[command]


@pytest.mark.parametrize("command", ["eval", "sweep", "force-sweep"])
def test_second_mock_exits_1(tmp_path, dataset, oracle_script, capsys, command):
    # the command runs one model, so a second --mock would be cited as an input and never read
    data_path, _ = dataset
    other = tmp_path / "other.json"
    other.write_text(oracle_script.read_text())
    out = tmp_path / "out"
    argv = _backend_command(command, data_path, out)
    assert run([*argv, "--mock", str(oracle_script), "--mock", str(other)]) == 1
    err = capsys.readouterr().err
    assert "--mock" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["eval", "sweep", "force-sweep"])
def test_empty_dataset_exits_1_naming_the_file(tmp_path, oracle_script, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    assert run([*_backend_command(command, empty, out), "--mock", str(oracle_script)]) == 1
    err = capsys.readouterr().err
    assert f"{empty}: dataset is empty" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def test_eval_out_of_an_id_in_two_datasets_loads_back_as_a_repeated_trace(tmp_path, dataset, monkeypatch, capsys):
    # each record names its dataset, so eval keeps both runs of q00; read
    # back as traces, the file repeats an id, which the trace loader cites
    data_path, records = dataset
    other = tmp_path / "other.jsonl"
    write_jsonl_file(other, records[:1])
    monkeypatch.setattr(WireBackend, "raw_stream", lambda self, req: iter(["\\boxed{A}"]))
    out = tmp_path / "out.jsonl"
    assert run(["eval", "--dataset", str(data_path), "--dataset", str(other), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [(row["dataset"], row["id"]) for row in rows] == [(str(data_path), r["id"]) for r in records] + [(str(other), "q00")]
    capsys.readouterr()
    assert run(["curate", "validate", "--traces", str(out), "--out", str(tmp_path / "kept.jsonl")]) == 1
    assert capsys.readouterr() == ("", f"error: {out}:{len(records) + 2}: duplicate id 'q00' (first seen on line 2)\n")
    assert not (tmp_path / "kept.jsonl").exists()


def _refusing_url() -> str:
    """The URL of a port bound and released, which refuses each connection."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


@pytest.mark.parametrize(
    "argv, path, flags",
    [
        (["eval", "--dataset", "d.jsonl", "--out", "o.jsonl", "--summary", "o.jsonl"], "o.jsonl", ("--out", "--summary")),
        (["eval", "--dataset", "d.jsonl", "--summary", "t.jsonl", "--out", "./t.jsonl"], "t.jsonl", ("--out", "--summary")),
        (["sweep", "--dataset", "d.jsonl", "--out-csv", "p", "--out-svg", "p"], "p", ("--out-csv", "--out-svg")),
        # the sweep JSON and the summary are one document, yet still two files
        (["sweep", "--dataset", "d.jsonl", "--out-csv", "c", "--out-json", "s", "--summary", "s"], "s", ("--summary", "--out-json")),
        (["curate", "dedup", "--pool", "d.jsonl", "--out", "x", "--report", "x"], "x", ("--out", "--report")),
    ],
    ids=["eval", "eval-dot-path", "sweep", "sweep-json-summary", "dedup"],
)
def test_two_output_flags_naming_one_file_exit_1_before_any_request(tmp_path, dataset, monkeypatch, capsys, argv, path, flags):
    # each artifact needs its own file: two flags naming one would silently lose one artifact
    data_path, _ = dataset
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.jsonl").write_bytes(data_path.read_bytes())
    before = sorted(p.name for p in tmp_path.iterdir())
    sent = []
    monkeypatch.setattr(WireBackend, "raw_stream", lambda self, req: sent.append(req) or iter(()))
    backend = [] if argv[0] == "curate" else ["--base-url", _refusing_url()]
    assert run([*argv, *backend]) == 1
    assert capsys.readouterr() == ("", f"error: {path} is named by {flags[0]} and by {flags[1]}: each output needs its own file\n")
    assert sent == [] and sorted(p.name for p in tmp_path.iterdir()) == before


def test_eval_of_one_dataset_named_twice_exits_1(tmp_path, dataset, monkeypatch, capsys):
    # the macro average would count the dataset twice without saying so
    data_path, _ = dataset
    sent = []
    monkeypatch.setattr(WireBackend, "raw_stream", lambda self, req: sent.append(req) or iter(()))
    summary = tmp_path / "summary.json"
    argv = ["eval", "--dataset", str(data_path), "--dataset", str(data_path), "--summary", str(summary), "--base-url", _refusing_url()]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {data_path} is named by --dataset and by --dataset: each dataset is evaluated once\n"
    assert sent == [] and not summary.exists()


def test_a_write_to_a_directory_exits_1_naming_it(tmp_path, dataset, capsys):
    # the error names the output, not the temp file that is gone, and leaves no temp file
    data_path, _ = dataset
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(["curate", "dedup", "--pool", str(data_path), "--out", str(outdir)]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(outdir)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before and list(outdir.iterdir()) == []


def test_eval_out_grades_each_run_once(tmp_path, dataset, oracle_script, monkeypatch):
    # an outcome is the trace record --out writes, so one extraction per run
    # serves the record and the accuracy
    data_path, records = dataset
    four = tmp_path / "four.jsonl"
    write_jsonl_file(four, records[:4])
    calls = []

    def counted(module):
        extract = module.extract_answer

        def call(*args):
            calls.append(module.__name__)
            return extract(*args)

        return call

    # both modules' names, as the benchmark's tracer wraps them
    for module in (evaluation, curation):
        monkeypatch.setattr(module, "extract_answer", counted(module))
    argv = ["eval", "--dataset", str(four), "--mock", str(oracle_script), "--out", str(tmp_path / "o.jsonl")]
    assert run(argv) == 0
    assert calls == ["thinkctl.curation"] * 4


def test_grader_model_with_mock_exits_1(tmp_path, dataset, oracle_script, capsys):
    # --grader-model names wire graders, which --mock replaces, so the name would be dropped unrecorded
    data_path, _ = dataset
    out = tmp_path / "kept.jsonl"
    argv = ["curate", "filter", "--pool", str(data_path), "--mock", str(oracle_script), "--grader-model", "m2", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "--grader-model" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_grader_model_with_model_exits_1(tmp_path, dataset, monkeypatch, capsys):
    # --grader-model sets each wire grader's model, so --model would be dropped unread
    data_path, _ = dataset
    called = []
    monkeypatch.setattr(WireBackend, "raw_stream", lambda self, req: called.append(self.model) or iter(["\\boxed{A}"]))
    out = tmp_path / "kept.jsonl"
    argv = ["curate", "filter", "--pool", str(data_path), "--model", "x", "--grader-model", "a", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "--grader-model" in err and "--model" in err
    assert "Traceback" not in err
    assert not out.exists() and called == []


BACKEND_FLAGS = {"--base-url": "http://example.invalid:1", "--model": "gpt-x", "--temperature": "0.5", "--seed": "3"}


@pytest.mark.parametrize("flag", list(BACKEND_FLAGS))
@pytest.mark.parametrize("command", ["eval", "sweep", "force-sweep", "curate-filter"])
def test_backend_flag_with_mock_exits_1(tmp_path, dataset, oracle_script, capsys, command, flag):
    # --mock replaces the wire backend, so the flag would be recorded and never read
    data_path, _ = dataset
    out = tmp_path / "out"
    argv = _backend_command(command, data_path, out)
    assert run([*argv, "--mock", str(oracle_script), flag, BACKEND_FLAGS[flag]]) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["eval", "sweep", "force-sweep", "curate-filter"])
def test_mock_run_records_no_backend_keys(tmp_path, dataset, oracle_script, monkeypatch, command):
    # a config file and M1_BASE_URL may still set them: they are read and checked, but not recorded
    data_path, _ = dataset
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[backend]\nmodel = gpt-x\nseed = 3\n[policy]\nthinking_budget = 99\n")
    monkeypatch.setenv("M1_BASE_URL", "http://example.invalid:1")
    out = tmp_path / "out"
    argv = _backend_command(command, data_path, out)
    assert run([*argv, "--mock", str(oracle_script), "--config", str(cfg)]) == 0
    if command == "curate-filter":
        # the filter sends no reasoning policy, so the file's [policy] section is checked but not recorded
        config = json.loads(out.read_text().splitlines()[0])["_meta"]["config"]
        assert config == {"workers": 8}
        return
    config = json.loads(out.read_text())["_provenance"]["config"]
    assert set(config) == {"thinking_budget", "forcing_count", "per_forcing_cap", "forcing_text", "workers"}
    assert config["thinking_budget"] == 99


def test_wire_filter_records_each_grader_model(tmp_path, dataset, monkeypatch):
    # --grader-model replaces --model per grader; the [policy] section is checked but not recorded
    data_path, _ = dataset
    called = set()

    def raw_stream(self, req):
        called.add(self.model)
        yield "\\boxed{A}"

    monkeypatch.setattr(WireBackend, "raw_stream", raw_stream)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[policy]\nthinking_budget = 99\n")
    out = tmp_path / "kept.jsonl"
    argv = ["curate", "filter", "--pool", str(data_path), "--config", str(cfg), "--out", str(out)]
    assert run([*argv, "--grader-model", "med-a", "--grader-model", "med-b"]) == 0
    assert called == {"med-a", "med-b"}
    config = json.loads(out.read_text().splitlines()[0])["_meta"]["config"]
    assert set(config) == {"base_url", "model", "temperature", "seed", "workers"}
    assert config["model"] == ["med-a", "med-b"]


def test_eval_against_the_loopback_server(tmp_path, dataset, sse_server):
    # every request gets the same two deltas, so each thought is "ponder \\boxed{B}"
    # and the answer request glues the marker and cue onto it as they came
    data_path, records = dataset
    _SSEHandler.deltas = ["ponder ", "\\boxed{B}"]
    summary = tmp_path / "summary.json"
    argv = ["eval", "--dataset", str(data_path), "--base-url", sse_server, "--model", "m", "--workers", "2"]
    assert run([*argv, "--summary", str(summary)]) == 0
    payload = json.loads(summary.read_text())
    golds = [r["answer"] for r in records]
    assert payload["datasets"][str(data_path)]["n_correct"] == golds.count("B")
    assert payload["_provenance"]["config"]["base_url"] == sse_server
    bodies = _SSEHandler.requests_seen
    assert len(bodies) == 2 * len(records) and {b["model"] for b in bodies} == {"m"}
    prompts = sorted(b["messages"][0]["content"] for b in bodies if b["max_tokens"] == 4096)
    answers = sorted(b["messages"][0]["content"] for b in bodies if b["max_tokens"] == 1024)
    assert [p.endswith("<|im_start|>think") for p in prompts] == [True] * len(records)
    assert answers == [p + f"ponder \\boxed{{B}}{ANSWER_MARKER}Final Answer:" for p in prompts]


def test_sweep_against_the_loopback_server(tmp_path, dataset, sse_server):
    # a budget of 1 cuts each thought after "ponder ", and the cut thought is sent back as it came
    data_path, records = dataset
    _SSEHandler.deltas = ["ponder ", "\\boxed{B}"]
    curve = tmp_path / "curve.csv"
    argv = ["sweep", "--dataset", str(data_path), "--budgets", "1,2", "--base-url", sse_server, "--workers", "1"]
    assert run([*argv, "--out-csv", str(curve)]) == 0
    rows = curve.read_text().splitlines()
    assert [row.split(",")[:3] for row in rows[1:]] == [["1", "25.0", "8"], ["2", "25.0", "8"]]
    bodies = _SSEHandler.requests_seen
    assert Counter(b["max_tokens"] for b in bodies) == {1: 8, 2: 8, 1024: 16}
    cut = [b["messages"][0]["content"] for b in bodies if b["max_tokens"] == 1024]
    assert sum(c.endswith(f"<|im_start|>thinkponder {ANSWER_MARKER}Final Answer:") for c in cut) == 8


def test_eval_records_a_persistent_non_object_chunk(tmp_path, dataset, sse_server, monkeypatch, capsys):
    # each attempt is cut by a malformed chunk: the question fails after its
    # retries and counts incorrect, and the run ends without a traceback
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    data_path, records = dataset
    _SSEHandler.mode = "raw"
    _SSEHandler.raw = b"data: [1]\n\ndata: [DONE]\n\n"
    out = tmp_path / "outcomes.jsonl"
    argv = ["eval", "--dataset", str(data_path), "--base-url", sse_server, "--workers", "1", "--out", str(out)]
    assert run(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    outcomes = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [o["id"] for o in outcomes] == [r["id"] for r in records]
    # a failed run is one record, an empty trace graded like any other
    failed = {"thinking": "", "response": "", "extracted": None, "verified": False, "dataset": str(data_path),
              "thinking_tokens": 0, "termination": None, "segments": []}
    assert all({k: o[k] for k in failed} == failed for o in outcomes)
    assert all("malformed stream chunk: [1]" in o["error"] for o in outcomes)
    assert len(_SSEHandler.requests_seen) == len(records) * (1 + client.RETRIES)
    # it loads as a trace that is never verified
    assert run(["curate", "validate", "--traces", str(out), "--out", str(tmp_path / "kept.jsonl")]) == 0
    assert capsys.readouterr().out == f"verified 0 of {len(records)} traces\n"


@pytest.mark.parametrize("failure", ["bad-chunk", "refused"])
def test_filter_ledger_counts_the_probes_that_fail(tmp_path, dataset, sse_server, monkeypatch, capsys, caplog, failure):
    # every probe fails through its retries: each question counts missed and
    # is kept, and the ledger's filter row counts the failures, which report prints
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    data_path, records = dataset
    if failure == "bad-chunk":
        # each attempt is cut by a malformed chunk (a TruncatedStreamError)
        _SSEHandler.mode = "raw"
        _SSEHandler.raw = b"data: [1]\n\ndata: [DONE]\n\n"
        base_url, requests = sse_server, len(records) * (1 + client.RETRIES)
    else:
        # a port bound and released, which refuses each connection (a ConnectionFailure)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            base_url, requests = f"http://127.0.0.1:{sock.getsockname()[1]}", 0
    hard, ledger = tmp_path / "hard.jsonl", tmp_path / "r.json"
    argv = ["curate", "filter", "--pool", str(data_path), "--base-url", base_url, "--out", str(hard), "--report", str(ledger)]
    assert run(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert caplog.text.count("counted incorrect") == len(records)
    assert len(load_questions(str(hard))) == len(records)
    assert len(_SSEHandler.requests_seen) == requests
    assert run(["report", "--in", str(ledger)]) == 0
    assert f'difficulty_filter params: {{"grader_failures": {len(records)}}}\n' in capsys.readouterr().out
    row = json.loads(ledger.read_text())["stages"][1]
    assert (row["name"], row["params"]) == ("difficulty_filter", {"grader_failures": len(records)})


def test_unparsable_budgets_exit_1(tmp_path, dataset, oracle_script, capsys):
    data_path, _ = dataset
    out = tmp_path / "curve.csv"
    argv = ["sweep", "--dataset", str(data_path), "--mock", str(oracle_script), "--budgets", "8,x", "--out-csv", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "cannot parse --budgets '8,x'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_negative_max_forcings_exits_1_before_any_request(tmp_path, dataset, monkeypatch, capsys):
    data_path, _ = dataset
    sent = []
    monkeypatch.setattr(WireBackend, "raw_stream", lambda self, req: sent.append(req) or iter(()))
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = ["force-sweep", "--dataset", str(data_path), "--max-forcings", "-1", "--base-url", _refusing_url(),
            "--out-csv", str(tmp_path / "f.csv"), "--summary", str(tmp_path / "s.json")]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", "error: max_forcings must be >= 0\n")
    assert sent == [] and sorted(p.name for p in tmp_path.iterdir()) == before


def _provenance_of(path: pathlib.Path) -> dict:
    if path.suffix == ".jsonl":
        return json.loads(path.read_text().splitlines()[0])["_meta"]
    return json.loads(path.read_text())["_provenance"]


@pytest.mark.parametrize(
    "command", ["eval", "sweep", "force-sweep", "filter", "validate", "decontaminate", "dedup", "sample", "annotate", "format-sft"]
)
def test_each_input_is_digested_once_per_command(tmp_path, dataset, oracle_script, monkeypatch, command):
    # every artifact of one command cites the one provenance the command computed
    data_path, records = dataset
    second = tmp_path / "second.jsonl"
    write_jsonl_file(second, [dict(r, id=f"x{r['id']}") for r in records])
    traces = tmp_path / "traces.jsonl"
    write_jsonl_file(traces, [dict(records[0], thinking="step", response="\\boxed{A}", extracted="A", verified=True)])
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"stem": "Diagnosis"}))
    d, d2, m, t, lex = map(str, (data_path, second, oracle_script, traces, lexicon))
    out = [tmp_path / name for name in ("o1.jsonl", "o3.json", "o4.json")]
    o1, o3, o4 = map(str, out)
    csv = str(tmp_path / "sweep.csv")
    argv, inputs = {
        "eval": (["eval", "--dataset", d, "--dataset", d2, "--mock", m, "--out", o1, "--summary", o3], {d, d2, m}),
        "sweep": (["sweep", "--dataset", d, "--budgets", "16,32", "--mock", m, "--out-csv", csv, "--out-json", o3, "--summary", o4], {d, m}),
        "force-sweep": (["force-sweep", "--dataset", d, "--max-forcings", "1", "--mock", m, "--out-csv", csv, "--out-json", o3, "--summary", o4], {d, m}),
        "filter": (["curate", "filter", "--pool", d, "--mock", m, "--out", o1, "--report", o3], {d, m}),
        "validate": (["curate", "validate", "--traces", t, "--out", o1, "--report", o3], {t}),
        "decontaminate": (["curate", "decontaminate", "--pool", d, "--eval", d2, "--out", o1, "--report", o3], {d, d2}),
        "dedup": (["curate", "dedup", "--pool", d, "--out", o1, "--report", o3], {d}),
        "sample": (["curate", "sample", "--pool", d, "--n", "2", "--out", o1, "--report", o3], {d}),
        "annotate": (["curate", "annotate", "--pool", d, "--lexicon", lex, "--out", o1], {d, lex}),
        "format-sft": (["curate", "format-sft", "--traces", t, "--out", o1], {t}),
    }[command]  # fmt: skip
    digested = Counter()
    sha256_file = cli.sha256_file
    monkeypatch.setattr(cli, "sha256_file", lambda path: digested.update([path]) or sha256_file(path))
    assert run(argv) == 0
    assert digested == Counter(inputs)
    provenances = [_provenance_of(path) for path in out if path.exists()]
    assert provenances
    assert all(p == provenances[0] for p in provenances)
    assert set(provenances[0]["inputs"]) == inputs


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this tree's thinkctl."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_loads_no_numpy_scipy_or_requests():
    # numpy and scipy are test oracles, nothing needs requests, and a
    # WireBackend loads urllib.request only when it sends; the star import
    # loads every module that defines a public name
    loaded = "{'numpy', 'scipy', 'requests', 'urllib.request'} & set(sys.modules)"
    out = run_python("-c", f"import sys; from thinkctl import *; print(sorted({loaded}))")
    assert out.returncode == 0
    assert out.stdout.strip() == "[]"


PROBE_IMPORTS = "import thinkctl; from thinkctl.client import ScriptedModel; from thinkctl.jsonl import load_questions"


@pytest.mark.parametrize(
    "code, expected",
    [
        ("pass", []),
        ("import thinkctl", ["thinkctl"]),
        # the imports of the benchmark's setup probe
        (PROBE_IMPORTS, ["thinkctl", "thinkctl.client", "thinkctl.jsonl", "thinkctl.qa"]),
        (
            "from thinkctl.config import load_config",
            ["dataclasses", "inspect", "thinkctl", "thinkctl.budget", "thinkctl.client", "thinkctl.config", "thinkctl.jsonl", "thinkctl.qa"],
        ),
    ],
    ids=["interpreter", "package", "loaders", "config"],
)
def test_imports_load_only_the_modules_they_use(code, expected):
    # hashlib is loaded only by the code that digests a file, and logging only
    # by the code that logs a warning; dataclasses, and the inspect it loads,
    # only by the modules that define a dataclass; nothing imports
    # concurrent.futures, and it stays in the filter so that a new import shows
    shown = "sorted(m for m in sys.modules if m.startswith('thinkctl') or m in ('hashlib', 'logging', 'concurrent.futures', 'dataclasses', 'inspect'))"
    out = run_python("-c", f"import sys; {code}; print({shown})")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(expected)


# the public names, by defining module, as the package exported them when it
# imported every module up front, less qa.grade, which TraceRecord replaced,
# and client.TokenEvent, since a stream yields its texts
PUBLIC_NAMES = {
    "budget": "ANSWER_MARKER THINK_MARKER BudgetPolicy BudgetRunError ReasoningTranscript Segment run_with_budget",
    "client": (
        "CAUSE_BACKEND_STOP CAUSE_CAP CAUSE_MARKER TRACE_TOKEN_LIMIT BackendError BackendStatusError ConnectionFailure "
        "GenerationRequest ScriptEntry ScriptedModel TokenStream TruncatedStreamError WireBackend "
        "probe_answer stream_generate with_retries"
    ),
    "config": "Config ConfigError load_config",
    "curation": (
        "CurationError CurationReport SamplingPlan StageCount TraceRecord annotate_domains decontaminate deduplicate "
        "difficulty_filter diversity_sample format_sft_example validate_traces"
    ),
    "evaluation": (
        "DEFAULT_BUDGET_GRID EvalOutcome EvalResult SweepPoint SweepResult budget_sweep evaluate forcing_sweep macro_average"
    ),
    "plotting": "emit_plot",
    "qa": (
        "DEFAULT_INSTRUCTION ExtractionOutcome McqQuestion extract_answer format_options format_prompt"
    ),
    "regression": "FitRefusedError RegressionFit fit_linear_with_ci",
}


def test_public_names_are_the_objects_of_their_modules():
    script = f"""
import importlib, sys
import thinkctl
# a submodule is an attribute of the package, loaded when first read
assert thinkctl.jsonl is sys.modules["thinkctl.jsonl"]
names = {{name: module for module, listed in {PUBLIC_NAMES!r}.items() for name in listed.split()}}
assert len(names) == 57
for name, module in names.items():
    assert getattr(thinkctl, name) is getattr(importlib.import_module("thinkctl." + module), name), name
assert sorted(thinkctl.__all__) == sorted(names)
assert set(names) <= set(dir(thinkctl))
star = {{}}
exec("from thinkctl import *", star)
assert star.keys() - {{"__builtins__"}} == names.keys()
assert all(star[name] is getattr(thinkctl, name) for name in names)
assert "thinkctl.cli" not in sys.modules
from thinkctl import cli
assert cli is sys.modules["thinkctl.cli"] and callable(cli.main)
try:
    thinkctl.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print(thinkctl.__version__)
"""
    out = run_python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0.1.0"


def test_module_entry_point_runs_the_cli(tmp_path, dataset, oracle_script):
    data_path, _ = dataset
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[backend]\nseed = abc\n")
    out = run_python("-m", "thinkctl.cli", "eval", "--config", str(cfg), "--dataset", str(data_path), "--mock", str(oracle_script))
    assert out.returncode == 1
    assert f"{cfg}:2:" in out.stderr
    assert "Traceback" not in out.stderr


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse(monkeypatch):
    # every thinkctl line of README's bash blocks, continuations joined, is
    # a valid invocation; each handler is stubbed, so no file is read
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("thinkctl ")]
    monkeypatch.delenv("M1_BASE_URL", raising=False)
    for words in cli.COMMANDS:
        monkeypatch.setattr(cli, "cmd_" + "_".join(words).replace("-", "_"), lambda *args: ({}, [], None))
    assert [argv for argv in commands if run(argv) != 0] == []
    # and together they show every command
    assert [w for w in cli.COMMANDS if not any(argv[: len(w)] == list(w) for argv in commands)] == []
