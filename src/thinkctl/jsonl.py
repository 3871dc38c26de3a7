"""JSON Lines dataset I/O: schema validation with line numbers, atomic
writes, and content digests for reproducibility headers.

The question schema is the canonical interchange format:
``{"id", "question", "options": {"A": ...}, "answer", "source", "domains"}``.
Trace files add ``{"thinking", "response"}``, graded as ``{"extracted", "verified"}``.
An evaluated run is a trace record plus its ``dataset``, ``thinking_tokens``,
``termination``, ``error`` and ``segments`` (``{"provenance", "n_tokens"}``
each), so an ``eval --out`` file loads as traces.
Writers put a ``{"_meta": ...}`` provenance line first; readers skip every
line whose only key is ``_meta``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from typing import TYPE_CHECKING, BinaryIO, Collection, Iterable, Iterator

from .qa import McqQuestion

if TYPE_CHECKING:
    from .curation import TraceRecord
    from .evaluation import EvalOutcome

META_KEY = "_meta"
# what json.loads reports for a text that starts with a byte order mark
_BOM_REASON = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_DECODE = json.JSONDecoder().raw_decode
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode
_WHITESPACE = json.decoder.WHITESPACE.match
_QUESTION_FIELDS = (("id", str), ("question", str), ("options", dict), ("answer", str))
# how a message names the JSON type of a decoded value
_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "a number", float: "a number", bool: "a boolean", type(None): "null"
}
# an output file's write buffer, so many short records take few write calls (the default is 8 KiB)
_WRITE_BUFFER = 1 << 16


class SchemaError(ValueError):
    """A fault in a file read or written, reported with its line number."""

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


def decode_json(text: str, path: str, line: int = 1):
    """The JSON value in ``text``, a whole file or a JSONL line, which starts
    on line ``line`` of ``path``. A fault raises SchemaError citing the line
    ``json`` reports or, where it gives none (an integer of too many digits,
    nesting past the recursion limit, a lone surrogate escape), ``line``."""
    # raw_decode plus the whitespace and "Extra data" checks is what
    # json.loads does, without its per-call wrappers; a BOM fails raw_decode
    start = _WHITESPACE(text).end()
    try:
        value, end = _DECODE(text, start)
    except json.JSONDecodeError as exc:
        reason = _BOM_REASON if text.startswith("\ufeff", start) else exc.msg
        raise SchemaError(path, line + exc.lineno - 1, f"invalid JSON ({reason})") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(path, line, f"invalid JSON ({exc})") from exc
    if end != len(text):
        end = _WHITESPACE(text, end).end()
        if end != len(text):
            raise SchemaError(path, line + text.count("\n", 0, end), "invalid JSON (Extra data)")
    # UTF-8 text holds no surrogate and the decoder joins an escaped pair,
    # so only a lone "\\ud800"-style escape leaves one in a value; the
    # one-character search is far cheaper than "\\u" on a long line
    if "\\" in text and "\\u" in text:
        _utf8(_ENCODE(value), path, line, "lone surrogate escape")
    return value


def read_json(path: str, build):
    """``build`` of the JSON object in ``path``; a fault in the file, or in
    what ``build`` reads of it, raises SchemaError citing the file."""
    payload = decode_json("".join(line for _, line in read_lines(path)), path)
    if not isinstance(payload, dict):
        raise SchemaError(path, 1, "top level is not a JSON object")
    try:
        return build(payload)
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(path, 1, str(exc)) from exc


def json_shape(what: str, value, kind: type, fields: Collection[str] = (), optional: Collection[str] = ()):
    """``value`` if it is a JSON value of ``kind``: str, dict (an object,
    which, if ``fields`` or ``optional`` are given, must hold every key in
    ``fields`` and no key outside both) or list (an array of such objects).
    Any other shape raises ValueError naming ``what``."""
    if not isinstance(value, kind):
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, not {found}")
    if kind is list:
        for i, item in enumerate(value):
            json_shape(f"{what}[{i}]", item, dict, fields, optional)
    elif (fields or optional) and not set(fields) <= value.keys() <= {*fields, *optional}:
        missing = [name for name in fields if name not in value]
        extra = sorted(value.keys() - {*fields, *optional})
        raise ValueError(f"{what} lacks field {missing[0]!r}" if missing else f"{what} has unknown fields {extra}")
    return value


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) pairs. A line is split on ``\\n`` alone and
    stripped; blank lines and ``{"_meta": ...}`` provenance lines are
    skipped, wherever they appear, so concatenated outputs still load."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        record = decode_json(line, path, lineno)
        if not isinstance(record, dict):
            raise SchemaError(path, lineno, "record is not a JSON object")
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
    domains = get("domains", [])
    # the scans are skipped for the empty list of a pool not yet annotated
    if not isinstance(domains, list) or domains and not all(isinstance(d, str) for d in domains):
        raise SchemaError(path, lineno, "field 'domains' must be a list of strings")
    if domains and len(set(domains)) != len(domains):
        raise SchemaError(path, lineno, f"field 'domains' repeats a label: {domains}")
    try:
        # the question checks its option texts and its source
        return McqQuestion(qid, stem, dict(options), answer, get("source", ""), list(domains))
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


def _load(path: str, build) -> list:
    """``build(record, path, lineno)`` of each record of ``path``; ids are unique within the file."""
    items = []
    seen: dict[str, int] = {}
    for lineno, record in read_jsonl(path):
        item = build(record, path, lineno)
        qid = record["id"]  # build checked that it is a string
        if qid in seen:
            raise SchemaError(path, lineno, f"duplicate id {qid!r} (first seen on line {seen[qid]})")
        seen[qid] = lineno
        items.append(item)
    return items


def load_questions(path: str) -> list[McqQuestion]:
    """Load a question file, enforcing id uniqueness within the dataset."""
    return _load(path, record_to_question)


def record_to_trace(record: dict, path: str = "<memory>", lineno: int = 0) -> TraceRecord:
    """The trace of ``record``, graded from its response; a stored grade that differs raises SchemaError."""
    # imported here so that loading questions never loads the curation module
    from .curation import TraceRecord

    question = record_to_question(record, path, lineno)
    thinking = _require(record, "thinking", str, path, lineno)
    response = _require(record, "response", str, path, lineno)
    trace = TraceRecord(question, thinking, response)
    for key, graded in (("extracted", trace.extracted), ("verified", trace.verified)):
        stored = record.get(key, graded)
        if stored != graded or type(stored) is not type(graded):  # 1 == True, yet 1 is no verdict
            raise SchemaError(path, lineno, f"field {key!r} is {stored!r}, but the response grades to {graded!r}")
    return trace


def trace_to_record(trace: TraceRecord) -> dict:
    return {
        **question_to_record(trace.question),
        "thinking": trace.thinking,
        "response": trace.response,
        "extracted": trace.extracted,
        "verified": trace.verified,
    }


def outcome_to_record(outcome: EvalOutcome, dataset: str) -> dict:
    """An evaluated run as a trace record plus what ``record_to_trace`` ignores: its
    ``dataset``, ``thinking_tokens``, ``termination``, ``error`` and each segment's
    ``provenance`` and ``n_tokens``. A failed run has no termination and no segment."""
    t = outcome.transcript
    segments = [{"provenance": s.provenance, "n_tokens": s.n_tokens} for s in t.segments] if t else []
    run = {"dataset": dataset, "thinking_tokens": outcome.thinking_tokens, "termination": t.termination if t else None}
    return {**trace_to_record(outcome), **run, "error": outcome.error, "segments": segments}


def load_traces(path: str) -> list[TraceRecord]:
    """Load a trace file, grading each response; ids are unique within it."""
    return _load(path, record_to_trace)


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
    destination's, so it fits NAME_MAX whatever the destination's length.
    An OSError is raised again naming ``path``, with its errno kept: the
    temp file it may name is gone, and a full disk names no file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        try:
            with os.fdopen(fd, "wb", _WRITE_BUFFER) as fh:
                yield fh
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def atomic_write_bytes(path: str, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def _utf8(text: str, path: str, line: int, fault: str = "lone surrogate") -> bytes:
    """``text``, which starts on line ``line`` of ``path``, as UTF-8. A lone
    surrogate, which UTF-8 cannot encode, raises SchemaError citing its line."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        escape = f"\\u{ord(text[exc.start]):04x}"
        raise SchemaError(path, line + text.count("\n", 0, exc.start), f"{fault} {escape} (not encodable as UTF-8)") from exc


def write_jsonl(path: str, records: Iterable[dict], meta: dict | None = None) -> None:
    """Write ``records`` as JSON Lines after a ``{"_meta": meta}`` line if
    ``meta`` is given, encoding and writing one record at a time, so memory
    does not grow with the output. A record UTF-8 cannot encode (a lone
    surrogate) raises SchemaError citing its ``path:line``; ``path`` is then
    left as it was."""
    # one encoder for the file: json.dumps builds one per call when given options
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    lines = records if meta is None else itertools.chain([{META_KEY: meta}], records)
    with _atomic_file(path) as fh:
        write = fh.write
        for lineno, record in enumerate(lines, 1):
            write(_utf8(encode(record) + "\n", path, lineno))


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as indented JSON; a value UTF-8 cannot encode raises
    SchemaError citing its ``path:line``, and ``path`` is left as it was."""
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    atomic_write_bytes(path, _utf8(text, path, 1))
