from __future__ import annotations

import json
import os

import pytest

from thinkctl.config import Config, ConfigError, load_config
from thinkctl.jsonl import (
    SchemaError,
    atomic_write_bytes,
    load_questions,
    load_traces,
    question_to_record,
    read_jsonl,
    sha256_file,
    trace_to_record,
    write_jsonl,
)


def test_defaults_carry_paper_anchored_values():
    cfg = load_config(env={})
    assert cfg.temperature == 0.0
    assert cfg.seed == 42
    assert cfg.thinking_budget == 4096
    assert cfg.per_forcing_cap == 2048
    assert cfg.forcing_text == "Wait."
    assert cfg.forcing_count == 0


def test_flags_override_file_and_env(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[backend]\nseed = 17\nbase_url = http://file.example\n")
    cfg = load_config(
        str(path),
        env={"M1_BASE_URL": "http://env.example"},
        flags={"seed": 7},
    )
    assert cfg.seed == 7  # flag beats file
    assert cfg.base_url == "http://env.example"  # env beats file


def test_file_beats_defaults(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[policy]\nthinking_budget = 1024\nforcing_text = Hold on.\n")
    cfg = load_config(str(path), env={})
    assert cfg.thinking_budget == 1024
    assert cfg.forcing_text == "Hold on."


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[backend]\ntemprature = 1\n")
    with pytest.raises(ConfigError, match="temprature"):
        load_config(str(path), env={})


def test_unknown_flag_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        load_config(env={}, flags={"bogus": 1})


def test_wrong_section_for_key_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nseed = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path), env={})


def test_missing_config_file_errors():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.ini", env={})


def test_config_policy_export():
    policy = Config(thinking_budget=64, forcing_count=2).policy()
    assert policy.thinking_budget == 64
    assert policy.forcing_count == 2


# --- jsonl ----------------------------------------------------------------------


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def question_record(qid="q1", **overrides):
    record = {
        "id": qid,
        "question": f"stem {qid}",
        "options": {"A": "yes", "B": "no"},
        "answer": "A",
        "source": "demo",
        "domains": [],
    }
    record.update(overrides)
    return record


def test_load_questions_happy_path(tmp_path):
    path = tmp_path / "qs.jsonl"
    write_lines(path, [json.dumps(question_record("q1")), json.dumps(question_record("q2"))])
    questions = load_questions(str(path))
    assert [q.id for q in questions] == ["q1", "q2"]


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "qs.jsonl"
    lines = [json.dumps(question_record(f"q{i}")) for i in range(6)]
    lines.append("{not json")
    write_lines(path, lines)
    with pytest.raises(SchemaError) as excinfo:
        load_questions(str(path))
    assert excinfo.value.line == 7
    assert ":7:" in str(excinfo.value)


def test_missing_field_reports_line(tmp_path):
    path = tmp_path / "qs.jsonl"
    broken = question_record("q2")
    del broken["answer"]
    write_lines(path, [json.dumps(question_record("q1")), json.dumps(broken)])
    with pytest.raises(SchemaError) as excinfo:
        load_questions(str(path))
    assert excinfo.value.line == 2
    assert "answer" in str(excinfo.value)


@pytest.mark.parametrize(
    "domains, message",
    [
        *(
            pytest.param(bad, "field 'domains' must be a list of strings", id=f"domains-{bad!r}")
            for bad in ("x", "", {}, [1], None, 0)
        ),
        pytest.param(["a", "a"], "field 'domains' repeats a label", id="domains-repeated"),
    ],
)
def test_bad_domains_report_path_and_line(tmp_path, domains, message):
    path = tmp_path / "qs.jsonl"
    write_lines(path, [json.dumps(question_record("q1")), json.dumps(question_record("q2", domains=domains))])
    with pytest.raises(SchemaError) as excinfo:
        load_questions(str(path))
    assert str(excinfo.value).startswith(f"{path}:2: {message}")


def test_non_string_values_load_as_their_str(tmp_path):
    path = tmp_path / "qs.jsonl"
    records = [
        question_record("q1", options={"A": 1, "B": 2.5}, source=5, domains=["a", "b"]),
        question_record("q2", answer="B", source=None),
    ]
    write_lines(path, [json.dumps(r) for r in records])
    q1, q2 = load_questions(str(path))
    assert q1.options == {"A": "1", "B": "2.5"}
    assert (q1.source, q2.source) == ("5", "None")
    assert q1.domains == ["a", "b"]


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "qs.jsonl"
    write_lines(path, [json.dumps(question_record("q1")), json.dumps(question_record("q1"))])
    with pytest.raises(SchemaError, match="duplicate id"):
        load_questions(str(path))


def test_meta_line_skipped(tmp_path):
    path = tmp_path / "qs.jsonl"
    write_lines(path, [json.dumps({"_meta": {"config": {}}}), json.dumps(question_record("q1"))])
    assert len(load_questions(str(path))) == 1


def test_trace_round_trip(tmp_path):
    record = question_record("t1")
    record.update({"thinking": "because", "response": "\\boxed{A}", "extracted": "A", "verified": True})
    path = tmp_path / "traces.jsonl"
    write_lines(path, [json.dumps(record)])
    traces = load_traces(str(path))
    assert traces[0].verified
    assert trace_to_record(traces[0]) == record


def test_trace_verified_consistency_checked(tmp_path):
    record = question_record("t1")
    record.update({"thinking": "x", "response": "y", "extracted": "B", "verified": True})
    path = tmp_path / "traces.jsonl"
    write_lines(path, [json.dumps(record)])
    with pytest.raises(SchemaError):
        load_traces(str(path))


def test_write_jsonl_emits_meta_header(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(str(path), [question_record("q1")], meta={"config": {"seed": 42}})
    lines = path.read_text().strip().split("\n")
    assert json.loads(lines[0])["_meta"]["config"]["seed"] == 42
    assert json.loads(lines[1])["id"] == "q1"
    assert len(load_questions(str(path))) == 1


def test_atomic_write_replaces_not_truncates(tmp_path):
    path = tmp_path / "file.bin"
    atomic_write_bytes(str(path), b"first version")
    atomic_write_bytes(str(path), b"second")
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]


def test_failed_write_leaves_no_destination(tmp_path):
    path = tmp_path / "out.jsonl"

    def bad_records():
        yield question_record("q1")
        raise RuntimeError("interrupted mid-stream")

    with pytest.raises(RuntimeError):
        write_jsonl(str(path), bad_records())
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_sha256_digest_is_stable(tmp_path):
    path = tmp_path / "data"
    path.write_bytes(b"fixed bytes")
    assert sha256_file(str(path)) == sha256_file(str(path))
    assert len(sha256_file(str(path))) == 64
