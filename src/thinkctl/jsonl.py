"""JSON Lines dataset I/O: schema validation with line numbers, atomic
writes, and content digests for reproducibility headers.

The question schema is the canonical interchange format:
``{"id", "question", "options": {"A": ...}, "answer", "source", "domains"}``.
Trace files add ``{"thinking", "response", "extracted", "verified"}``.
Writers put a ``{"_meta": ...}`` provenance line first; readers skip every
line whose only key is ``_meta``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

from .qa import McqQuestion

if TYPE_CHECKING:
    from .curation import TraceRecord

META_KEY = "_meta"
# what json.loads reports for a line that starts with a byte order mark
_BOM_REASON = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_QUESTION_FIELDS = (("id", str), ("question", str), ("options", dict), ("answer", str))


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
    """Yield (line number, record) pairs. A line is split on ``\\n`` alone and
    stripped; blank lines and ``{"_meta": ...}`` provenance lines are
    skipped, wherever they appear, so concatenated outputs still load."""
    # raw_decode of the stripped line plus the "Extra data" check is what
    # json.loads does, without its per-call wrappers; a BOM fails raw_decode
    decode = json.JSONDecoder().raw_decode
    encode = json.JSONEncoder(ensure_ascii=False).encode
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = decode(line)
        except json.JSONDecodeError as exc:
            reason = _BOM_REASON if line[0] == "\ufeff" else exc.msg
            raise SchemaError(path, lineno, f"invalid JSON ({reason})") from exc
        # an integer of more than sys.get_int_max_str_digits() digits
        # (ValueError) or nesting past the recursion limit (RecursionError)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(path, lineno, f"invalid JSON ({exc})") from exc
        if end != len(line):
            raise SchemaError(path, lineno, "invalid JSON (Extra data)")
        if not isinstance(record, dict):
            raise SchemaError(path, lineno, "record is not a JSON object")
        # a UTF-8 line holds no surrogate and the decoder joins an escaped
        # pair, so only a lone "\\ud800"-style escape leaves one in a record;
        # the one-character search is far cheaper than "\\u" on a long line
        if "\\" in line and "\\u" in line:
            text = encode(record)
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                escape = f"\\u{ord(text[exc.start]):04x}"
                raise SchemaError(path, lineno, f"lone surrogate escape {escape} (not encodable as UTF-8)") from exc
        if META_KEY in record:
            if len(record) == 1:
                continue
            raise SchemaError(path, lineno, f"field {META_KEY!r} must be the only field of a provenance line")
        yield lineno, record


def _require(record: dict, key: str, kind, path: str, lineno: int):
    if key not in record:
        raise SchemaError(path, lineno, f"missing field {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise SchemaError(path, lineno, f"field {key!r} must be {kind.__name__}")
    return value


def record_to_question(record: dict, path: str = "<memory>", lineno: int = 0) -> McqQuestion:
    get = record.get
    qid, stem, options, answer = get("id"), get("question"), get("options"), get("answer")
    if not (isinstance(qid, str) and isinstance(stem, str) and isinstance(options, dict) and isinstance(answer, str)):
        # name the first field, in schema order, that is missing or of the wrong type
        for key, kind in _QUESTION_FIELDS:
            _require(record, key, kind, path, lineno)
    source = get("source", "")
    domains = get("domains", [])
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
    # imported here so that loading questions never loads the curation module
    from .curation import TraceRecord

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
    import hashlib  # here, as the loaders never digest a file

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator[BinaryIO]:
    """Yield a temp file beside ``path``, renamed over it when the block
    ends and removed on any error, so ``path`` is never left truncated. Its
    mode 0o666 gives the file the mode the umask gives any new file (where
    ``tempfile.mkstemp`` gives 0o600), and its name takes no part of the
    destination's, so it fits NAME_MAX whatever the destination's length."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def write_jsonl(path: str, records: Iterable[dict], meta: dict | None = None) -> None:
    """Write ``records`` as JSON Lines after a ``{"_meta": meta}`` line if
    ``meta`` is given, encoding and writing one record at a time, so memory
    does not grow with the output. A record UTF-8 cannot encode (a lone
    surrogate) raises ValueError citing its ``path:line``; ``path`` is then
    left as it was."""
    # one encoder for the file: json.dumps builds one per call when given options
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    lines = records if meta is None else itertools.chain([{META_KEY: meta}], records)
    with _atomic_file(path) as fh:
        write = fh.write
        for lineno, record in enumerate(lines, 1):
            text = encode(record) + "\n"
            try:
                data = text.encode("utf-8")
            except UnicodeEncodeError as exc:
                escape = f"\\u{ord(text[exc.start]):04x}"
                raise ValueError(f"{path}:{lineno}: lone surrogate {escape} (not encodable as UTF-8)") from exc
            write(data)


def write_json(path: str, payload: dict) -> None:
    atomic_write_bytes(path, (json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode("utf-8"))
