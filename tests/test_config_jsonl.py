from __future__ import annotations

import json
import os
import stat
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinkctl.config import Config, ConfigError, load_config
from thinkctl.jsonl import (
    META_KEY,
    SchemaError,
    atomic_write_bytes,
    load_questions,
    load_traces,
    question_to_record,
    read_jsonl,
    read_lines,
    record_to_question,
    sha256_file,
    trace_to_record,
    write_jsonl,
)
from thinkctl.qa import McqQuestion


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


def test_meta_only_lines_are_skipped_wherever_they_appear(tmp_path):
    # two outputs concatenated: the second one's provenance line is mid-file
    path = tmp_path / "qs.jsonl"
    meta = json.dumps({"_meta": {"inputs": {}}})
    write_lines(path, [meta, json.dumps(question_record("q1")), meta, json.dumps(question_record("q2"))])
    assert [q.id for q in load_questions(str(path))] == ["q1", "q2"]


def test_meta_beside_other_fields_is_a_schema_error(tmp_path):
    path = tmp_path / "qs.jsonl"
    stray = dict(question_record("q2"), _meta="stray")
    write_lines(path, [json.dumps(question_record("q1")), json.dumps(stray), json.dumps(question_record("q3"))])
    with pytest.raises(SchemaError) as excinfo:
        load_questions(str(path))
    assert str(excinfo.value) == f"{path}:2: field '_meta' must be the only field of a provenance line"


@pytest.mark.parametrize(
    "text, escape",
    [
        ("lone \\ud800 high", "\\ud800"),
        ("lone \\udfff low", "\\udfff"),
        ("high then text \\ud83dx", "\\ud83d"),
        ("pair reversed \\ude00\\ud83d", "\\ude00"),
    ],
)
def test_lone_surrogate_escape_is_a_schema_error(tmp_path, text, escape):
    path = tmp_path / "qs.jsonl"
    line = json.dumps(question_record("q2")).replace('"stem q2"', f'"{text}"')
    write_lines(path, [json.dumps(question_record("q1")), line])
    with pytest.raises(SchemaError) as excinfo:
        load_questions(str(path))
    assert str(excinfo.value) == f"{path}:2: lone surrogate escape {escape} (not encodable as UTF-8)"


def test_escaped_surrogate_pair_and_escaped_backslash_load(tmp_path):
    path = tmp_path / "qs.jsonl"
    line = json.dumps(question_record("q1")).replace('"stem q1"', '"smile \\ud83d\\ude00 and \\\\ud800"')
    write_lines(path, [line, json.dumps(question_record("q2", question="caf\u00e9"))])  # the second with an \u escape
    assert [q.stem for q in load_questions(str(path))] == ["smile \U0001f600 and \\ud800", "caf\u00e9"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_artifacts_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    fresh, rewritten = tmp_path / "fresh.jsonl", tmp_path / "rewritten.jsonl"
    rewritten.write_bytes(b"old\n")
    os.chmod(rewritten, 0o644)
    old = os.umask(umask)
    try:
        write_jsonl(str(fresh), [question_record("q1")])
        atomic_write_bytes(str(rewritten), b"new\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(fresh).st_mode) == mode
    assert stat.S_IMODE(os.stat(rewritten).st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.jsonl", "rewritten.jsonl"]


# --- the codec against the one it replaced --------------------------------------
# The reader and writer before raw_decode, the one-pass field check and the
# joined line end, kept verbatim as the reference. The reference skips any
# record holding "_meta"; the generated files hold "_meta" only alone on
# its line, where both readers skip it (the mixed case is tested above).


def reference_read_jsonl(path):
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise SchemaError(path, lineno, "record is not a JSON object")
        if META_KEY in record:
            continue
        yield lineno, record


def reference_require(record, key, kind, path, lineno):
    if key not in record:
        raise SchemaError(path, lineno, f"missing field {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise SchemaError(path, lineno, f"field {key!r} must be {kind.__name__}")
    return value


def reference_record_to_question(record, path="<memory>", lineno=0):
    qid = reference_require(record, "id", str, path, lineno)
    stem = reference_require(record, "question", str, path, lineno)
    options = reference_require(record, "options", dict, path, lineno)
    answer = reference_require(record, "answer", str, path, lineno)
    source = record.get("source", "")
    domains = record.get("domains", [])
    if not isinstance(domains, list) or domains and not all(isinstance(d, str) for d in domains):
        raise SchemaError(path, lineno, "field 'domains' must be a list of strings")
    if domains and len(set(domains)) != len(domains):
        raise SchemaError(path, lineno, f"field 'domains' repeats a label: {domains}")
    try:
        return McqQuestion(
            id=qid,
            stem=stem,
            options={str(k): v if type(v) is str else str(v) for k, v in options.items()},
            gold=answer,
            source=source if type(source) is str else str(source),
            domains=list(domains),
        )
    except ValueError as exc:
        raise SchemaError(path, lineno, str(exc)) from exc


def reference_load_questions(path):
    questions = []
    seen = {}
    for lineno, record in reference_read_jsonl(path):
        question = reference_record_to_question(record, path, lineno)
        if question.id in seen:
            raise SchemaError(path, lineno, f"duplicate id {question.id!r} (first seen on line {seen[question.id]})")
        seen[question.id] = lineno
        questions.append(question)
    return questions


def reference_jsonl_text(records, meta=None):
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    lines = [] if meta is None else [encode({META_KEY: meta})]
    lines += map(encode, records)
    return "\n".join(lines) + "\n" if lines else ""


def result_or_error(fn):
    """What ``fn`` returns, by repr (NaN is not equal to itself), or the
    SchemaError's text and line."""
    try:
        return repr(fn())
    except SchemaError as exc:
        return str(exc), exc.line


# text that JSON, str.strip or str.splitlines treat specially
_CODEC_TEXT = st.text(alphabet="aB1 \t\u0085\u2028\u00e9\"\\{}", max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(), _CODEC_TEXT)
_FIELD = {
    "id": st.one_of(st.sampled_from(["q1", "q2", "q3"]), _SCALARS),
    "question": st.one_of(_CODEC_TEXT, _SCALARS),
    "options": st.one_of(
        st.dictionaries(st.sampled_from("ABCDa"), _SCALARS, max_size=4),
        st.fixed_dictionaries({"A": _SCALARS, "B": _SCALARS}),
        _SCALARS,
    ),
    "answer": st.one_of(st.sampled_from("ABCa"), _SCALARS),
    "source": _SCALARS,
    "domains": st.one_of(st.lists(st.one_of(st.sampled_from(["x", "y"]), _SCALARS), max_size=3), _SCALARS),
    "extra": _SCALARS,  # unknown keys are ignored
}
_RECORDS = st.fixed_dictionaries(
    {"id": _FIELD["id"]},
    optional={key: strategy for key, strategy in _FIELD.items() if key != "id"},
)
_VALID = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["q1", "q2", "q3", "q4"]),
        "question": _CODEC_TEXT,
        "options": st.fixed_dictionaries({"A": _SCALARS, "B": _SCALARS}),
        "answer": st.sampled_from("AB"),
    },
    optional={"source": _SCALARS, "domains": st.lists(st.sampled_from(["x", "y"]), max_size=2, unique=True)},
)


def _dump(draw, value):
    return json.dumps(value, ensure_ascii=draw(st.booleans()))


@st.composite
def _jsonl_line(draw):
    kind = draw(st.sampled_from(["valid", "valid", "record", "meta", "bom", "two", "scalar", "blank", "broken"]))
    if kind in ("valid", "record"):
        line = _dump(draw, draw(_VALID if kind == "valid" else _RECORDS))
    elif kind == "meta":
        line = _dump(draw, {META_KEY: draw(_SCALARS)})
    elif kind == "bom":
        line = "\ufeff" + _dump(draw, draw(_VALID))
    elif kind == "two":
        line = _dump(draw, draw(_VALID)) + draw(st.sampled_from(["", " ", "\t"])) + _dump(draw, draw(_VALID))
    elif kind == "scalar":
        line = _dump(draw, draw(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2))))
    elif kind == "blank":
        line = draw(st.text(alphabet=" \t\r\u0085\u2028\x0b", max_size=3))
    else:
        line = draw(st.sampled_from(["{", "{]", "NaN", "{\"id\": NaN", "nul", "{\"a\": 1,}"]))
    pad = st.text(alphabet=" \t\u0085\u2028", max_size=2)
    return draw(pad) + line + draw(pad)


@given(
    lines=st.lists(_jsonl_line(), max_size=6),
    ending=st.sampled_from(["\n", "\r\n"]),
    last_ending=st.booleans(),
)
@settings(max_examples=200, deadline=None)
@example(lines=['\ufeff{"id": "q1"}'], ending="\n", last_ending=True)
@example(lines=['{"id": "q1"} {"id": "q2"}'], ending="\n", last_ending=True)
@example(lines=['{"_meta": 1}', "[1]"], ending="\r\n", last_ending=False)
@example(lines=['{"id": "q1", "question": "a\u0085b\u2028c", "options": {"A": NaN, "B": 2}, "answer": "A", "source": 7}'],
         ending="\r\n", last_ending=True)  # fmt: skip
def test_reader_matches_the_reference(tmp_path_factory, lines, ending, last_ending):
    path = str(tmp_path_factory.getbasetemp() / "codec-in.jsonl")  # rewritten by each example
    with open(path, "wb") as fh:
        fh.write((ending.join(lines) + (ending if last_ending and lines else "")).encode("utf-8"))
    assert result_or_error(lambda: list(read_jsonl(path))) == result_or_error(lambda: list(reference_read_jsonl(path)))
    assert result_or_error(lambda: load_questions(path)) == result_or_error(lambda: reference_load_questions(path))


@given(record=_RECORDS)
@settings(max_examples=300, deadline=None)
@example(record={"id": "q1", "question": "s", "options": ["A", "B"], "answer": "A"})
@example(record={"id": "q1", "question": "s", "options": None, "answer": "A"})
@example(record={"id": "q1", "question": "s", "options": {"A": 1, "B": None}, "answer": "A", "extra": [], "domains": []})
def test_record_to_question_matches_the_reference(record):
    args = (record, "f.jsonl", 3)
    assert result_or_error(lambda: record_to_question(*args)) == result_or_error(lambda: reference_record_to_question(*args))


_JSON_VALUES = st.recursive(
    st.one_of(_SCALARS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


@given(
    records=st.lists(st.dictionaries(st.text(max_size=3), _JSON_VALUES, max_size=4), max_size=4),
    meta=st.one_of(st.none(), st.dictionaries(st.text(max_size=3), _JSON_VALUES, max_size=2)),
)
@settings(max_examples=150, deadline=None)
@example(records=[], meta=None)
@example(records=[{"a": float("nan"), "b": "\u2028\u00e9"}], meta={})
def test_writer_matches_the_reference(tmp_path_factory, records, meta):
    path = tmp_path_factory.getbasetemp() / "codec-out.jsonl"  # rewritten by each example
    write_jsonl(str(path), records, meta=meta)
    assert path.read_bytes() == reference_jsonl_text(records, meta).encode("utf-8")


def test_writer_reports_an_unencodable_record_as_the_reference_does(tmp_path):
    # both refuse the record; the writer cites the line it would have taken
    records = [question_record("q1"), question_record("q2", question="lone \ud800 surrogate")]
    path = tmp_path / "out.jsonl"
    with pytest.raises(ValueError) as excinfo:
        write_jsonl(str(path), records, meta={"config": {}})
    with pytest.raises(UnicodeEncodeError):
        reference_jsonl_text(records, {"config": {}}).encode("utf-8")
    assert str(excinfo.value) == f"{path}:3: lone surrogate \\ud800 (not encodable as UTF-8)"
    assert list(tmp_path.iterdir()) == []


def _interrupted():
    yield question_record("q1")
    raise RuntimeError("interrupted mid-stream")


@pytest.mark.parametrize(
    "records, error",
    [(_interrupted, RuntimeError), (lambda: [question_record("q1"), question_record("q2", question="\udfff")], ValueError)],
    ids=["interrupted", "unencodable"],
)
def test_failed_write_leaves_the_old_file_as_it_was(tmp_path, records, error):
    path = tmp_path / "out.jsonl"
    write_jsonl(str(path), [question_record("q0")], meta={"config": {}})
    old = path.read_bytes()
    with pytest.raises(error):
        write_jsonl(str(path), records(), meta={"config": {}})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_a_destination_name_of_250_bytes_is_written(tmp_path):
    path = tmp_path / ("a" * 244 + ".jsonl")
    write_jsonl(str(path), [question_record("q1")])
    atomic_write_bytes(str(path), path.read_bytes())
    assert [q.id for q in load_questions(str(path))] == ["q1"]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_write_memory_does_not_grow_with_the_output(tmp_path):
    # about 10 kB a line, with a character outside Latin-1, where a str
    # takes 2 bytes a character and its UTF-8 3
    text = "\u2265" * 3000 + "x" * 1000
    line_bytes = len(json.dumps({"id": 0, "text": text}, ensure_ascii=False).encode("utf-8")) + 1

    def write_peak(n):
        records = ({"id": i, "text": text} for i in range(n))
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_jsonl(str(tmp_path / "out.jsonl"), records, meta={"config": {}})
        return tracemalloc.get_traced_memory()[1] - before

    n = 250
    tracemalloc.start()
    try:
        small, large = write_peak(n), write_peak(8 * n)
    finally:
        tracemalloc.stop()
    assert os.path.getsize(tmp_path / "out.jsonl") > 8 * n * line_bytes > 19_000_000
    assert abs(large - small) < line_bytes + 16_384
