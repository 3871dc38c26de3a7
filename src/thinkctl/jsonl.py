"""JSON Lines dataset I/O: schema validation with line numbers, atomic
writes, and content digests for reproducibility headers.

The question schema is the canonical interchange format:
``{"id", "question", "options": {"A": ...}, "answer", "source", "domains"}``.
Trace files add ``{"thinking", "response", "extracted", "verified"}``.
A leading ``{"_meta": ...}`` line carries provenance and is skipped by
readers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Iterable, Iterator

from .curation import TraceRecord
from .qa import McqQuestion

META_KEY = "_meta"


class SchemaError(ValueError):
    """Input file violation, reported with its line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, text) for each line of a UTF-8 file, line end
    included; a line that is not UTF-8 raises SchemaError citing it."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(path, lineno, f"not UTF-8 ({exc.reason})") from exc
            yield lineno, line


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) pairs, skipping blanks and meta lines."""
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


def _require(record: dict, key: str, kind, path: str, lineno: int):
    if key not in record:
        raise SchemaError(path, lineno, f"missing field {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise SchemaError(path, lineno, f"field {key!r} must be {kind.__name__}")
    return value


def record_to_question(record: dict, path: str = "<memory>", lineno: int = 0) -> McqQuestion:
    qid = _require(record, "id", str, path, lineno)
    stem = _require(record, "question", str, path, lineno)
    options = _require(record, "options", dict, path, lineno)
    answer = _require(record, "answer", str, path, lineno)
    source = record.get("source", "")
    domains = record.get("domains", [])
    # the scans are skipped for the empty list of a pool not yet annotated
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


def question_to_record(question: McqQuestion) -> dict:
    return {
        "id": question.id,
        "question": question.stem,
        "options": dict(question.options),
        "answer": question.gold,
        "source": question.source,
        "domains": list(question.domains),
    }


def load_questions(path: str) -> list[McqQuestion]:
    """Load a question file, enforcing id uniqueness within the dataset."""
    questions = []
    seen: dict[str, int] = {}
    for lineno, record in read_jsonl(path):
        question = record_to_question(record, path, lineno)
        if question.id in seen:
            raise SchemaError(path, lineno, f"duplicate id {question.id!r} (first seen on line {seen[question.id]})")
        seen[question.id] = lineno
        questions.append(question)
    return questions


def record_to_trace(record: dict, path: str = "<memory>", lineno: int = 0) -> TraceRecord:
    question = record_to_question(record, path, lineno)
    thinking = _require(record, "thinking", str, path, lineno)
    response = _require(record, "response", str, path, lineno)
    extracted = record.get("extracted")
    if extracted is not None and not isinstance(extracted, str):
        raise SchemaError(path, lineno, "field 'extracted' must be a string or null")
    verified = _require(record, "verified", bool, path, lineno)
    try:
        return TraceRecord(
            question=question,
            thinking=thinking,
            response=response,
            extracted=extracted,
            verified=verified,
        )
    except ValueError as exc:
        raise SchemaError(path, lineno, str(exc)) from exc


def trace_to_record(trace: TraceRecord) -> dict:
    record = question_to_record(trace.question)
    record.update(
        {
            "thinking": trace.thinking,
            "response": trace.response,
            "extracted": trace.extracted,
            "verified": trace.verified,
        }
    )
    return record


def load_traces(path: str) -> list[TraceRecord]:
    return [record_to_trace(record, path, lineno) for lineno, record in read_jsonl(path)]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file plus rename; an interrupted run never leaves a
    truncated file at the destination."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path: str, records: Iterable[dict], meta: dict | None = None) -> None:
    # one encoder for the file: json.dumps builds one per call when given options
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    lines = [] if meta is None else [encode({META_KEY: meta})]
    lines += map(encode, records)
    atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n")
