"""Golden artifact matrix: every subcommand with every output flag, pinned.

The matrix writes fixed inputs (two evaluation datasets, a scripted model
with thinking, forcing and answer triggers and one thought that embeds the
end-of-think marker, a question pool, two grader scripts, an evaluation
set, a lexicon and a trace file), then runs every subcommand with every
output flag on paths relative to its directory. Two checks:

* two runs, each in its own directory, print the same lines and write the
  same bytes;
* each command's exit code, stdout and the sha256 of every artifact it
  writes equal its entry in ``PINNED``.

Each file a row reads is also mutated, and every row that reads it must
exit 0 or 1, on 1 with one error line citing that file; a key renamed in
one of thinkctl's own JSON documents must exit 1 naming the key. Each
row's writes are counted and then failed one at a time: a failed write
prints nothing to stdout and leaves no temp file.

A change that alters an artifact on purpose updates that entry and lists
it in CHANGES.md. ``PYTHONPATH=src python tests/test_artifacts.py`` prints
the table for the tree it runs on.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import pprint
import random
import re
import sys
import tempfile

import pytest

from conftest import _SSEHandler
from thinkctl.budget import ANSWER_CUE, ANSWER_MARKER, DEFAULT_FORCING_TEXT, THINK_MARKER
from thinkctl import cli, client, jsonl
from thinkctl.cli import run
from thinkctl.client import ScriptedModel
from thinkctl.qa import McqQuestion, format_prompt

OPTIONS = {"A": "one", "B": "two", "C": "three", "D": "four"}


def _question(qid: str, stem: str, gold: str, source: str) -> dict:
    return {"id": qid, "question": stem, "options": OPTIONS, "answer": gold, "source": source, "domains": []}


def _jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


DATASET = [_question(f"q{i}", f"Case {i}: which option fits the findings?", "ABCDAB"[i], "bench") for i in range(6)]
# no thinking entry matches these prompts: each run thinks nothing and gets the generic answer
UNSCRIPTED = [_question(f"u{i}", f"Unscripted case {i}?", "CAB"[i], "other") for i in range(3)]


def _script() -> dict:
    """Per question: a thought of i + 1 filler units ending at ``mull-<id>``
    (q3's embeds the marker after it), one forced continuation ending at
    ``again-<id>``, and an answer for each; then generic forcing and answer
    entries for cut or twice-forced thoughts."""
    entries = []
    for i, record in enumerate(DATASET):
        qid, gold = record["id"], record["answer"]
        q = McqQuestion(id=qid, stem=record["question"], options=OPTIONS, gold=gold, source=record["source"])
        wrong = "D" if gold != "D" else "A"
        thought = " ".join(["step"] * (i + 1) + [f"mull-{qid}"])
        if qid == "q3":
            thought += f"{ANSWER_MARKER}leftover"
        entries += [
            {"trigger": format_prompt(q) + THINK_MARKER, "emission": thought, "terminal_marker": ANSWER_MARKER},
            {"trigger": f"mull-{qid}{DEFAULT_FORCING_TEXT}", "emission": f"recheck again-{qid}", "terminal_marker": ANSWER_MARKER},
            {"trigger": f"mull-{qid}{ANSWER_MARKER}{ANSWER_CUE}", "emission": f"\\boxed{{{gold if i % 2 == 0 else wrong}}}"},
            {"trigger": f"again-{qid}{ANSWER_MARKER}{ANSWER_CUE}", "emission": f"\\boxed{{{gold if i % 3 else wrong}}}"},
        ]
    entries += [
        {"trigger": DEFAULT_FORCING_TEXT, "emission": "hmm", "terminal_marker": ANSWER_MARKER},
        {"trigger": ANSWER_CUE, "emission": "the answer is C"},
    ]
    return {"entries": entries}


TOPICS = ["cardiac arrest", "renal colic", "hepatic failure", "kidney stones", "heart block", "general malaise"]
POOL = [
    _question(
        f"p{i:02d}",
        f"A patient with {TOPICS[i % 6]} presents on day {i}; which next step in management is best?",
        "ABCCDD"[i % 6],
        f"ds{i % 3}",
    )
    for i in range(30)
]
# p25 repeats p05's stem up to case and punctuation
POOL[25]["question"] = POOL[5]["question"].upper().replace(";", ",")
EVAL_SET = [
    # e2 shares an 8-word window with every hepatic failure stem, e1 with none
    _question("e1", "Which next step in management is best for day 7?", "A", "eval"),
    _question("e2", "A patient with hepatic failure presents on day 14; what now?", "B", "eval"),
]
LEXICON = {"cardiac": "Cardiology", "heart": "Cardiology", "renal": "Nephrology", "kidney": "Nephrology", "hepatic failure": "Hepatology"}
TRACES = [
    dict(POOL[0], thinking="compare the options", response="\\boxed{A}", extracted="A", verified=True),
    dict(POOL[1], thinking="rule out A", response="\\boxed{C}", extracted="C", verified=False),
    dict(POOL[2], thinking="the findings point to C", response="so \\boxed{C}", extracted="C", verified=True),
    dict(POOL[3], thinking="unsure", response="no letter", extracted=None, verified=False),
]
INPUTS = {
    "data.jsonl": _jsonl(DATASET),
    "unscripted.jsonl": _jsonl(UNSCRIPTED),
    "model.json": json.dumps(_script()),
    "pool.jsonl": _jsonl(POOL),
    "grader_a.json": json.dumps({"entries": [{"trigger": "", "emission": "\\boxed{A}"}]}),
    "grader_b.json": json.dumps({"entries": [{"trigger": "", "emission": "\\boxed{B}"}]}),
    "evalset.jsonl": _jsonl(EVAL_SET),
    "lexicon.json": json.dumps(LEXICON),
    "traces.jsonl": _jsonl(TRACES),
}

SWEEP_OUTPUTS = ["--out-csv", "{}.csv", "--out-svg", "{}.svg", "--out-json", "{}.json", "--summary", "{}_summary.json"]

# (name, argv) in run order; a later command may read an earlier one's artifact
COMMANDS = [
    ("eval", ["eval", "--dataset", "data.jsonl", "--dataset", "unscripted.jsonl", "--mock", "model.json",
              "--budget", "4", "--forcing-count", "1", "--per-forcing-cap", "2",
              "--out", "eval.jsonl", "--summary", "eval_summary.json"]),
    # eval's records are traces: validate and format them as generated
    ("eval-validate", ["curate", "validate", "--traces", "eval.jsonl", "--out", "eval_verified.jsonl",
                       "--report", "eval_validate_report.json"]),
    ("eval-format-sft", ["curate", "format-sft", "--traces", "eval_verified.jsonl", "--out", "eval_sft.jsonl"]),
    ("sweep", ["sweep", "--dataset", "data.jsonl", "--mock", "model.json", "--budgets", "1,2,3,4,6"]
              + [a.format("sweep") for a in SWEEP_OUTPUTS]),
    ("force-sweep", ["force-sweep", "--dataset", "data.jsonl", "--mock", "model.json", "--max-forcings", "2", "--budget", "8"]
                    + [a.format("force") for a in SWEEP_OUTPUTS]),
    ("plot-csv", ["plot", "--sweep", "sweep.json", "--out", "replot.csv"]),
    ("plot-svg", ["plot", "--sweep", "force.json", "--out", "replot.svg"]),
    ("curate-filter", ["curate", "filter", "--pool", "pool.jsonl", "--mock", "grader_a.json", "--mock", "grader_b.json",
                       "--out", "filtered.jsonl", "--report", "filter_report.json"]),
    ("curate-decontaminate", ["curate", "decontaminate", "--pool", "filtered.jsonl", "--eval", "evalset.jsonl",
                              "--out", "clean.jsonl", "--report", "decontaminate_report.json"]),
    ("curate-dedup", ["curate", "dedup", "--pool", "pool.jsonl", "--out", "dedup.jsonl", "--report", "dedup_report.json"]),
    ("curate-annotate", ["curate", "annotate", "--pool", "clean.jsonl", "--lexicon", "lexicon.json", "--out", "annotated.jsonl"]),
    ("curate-sample", ["curate", "sample", "--pool", "annotated.jsonl", "--n", "8", "--seed", "7",
                       "--out", "sample.jsonl", "--report", "sample_report.json"]),
    ("curate-sample-default-seed", ["curate", "sample", "--pool", "annotated.jsonl", "--n", "12", "--out", "sample42.jsonl"]),
    ("curate-validate", ["curate", "validate", "--traces", "traces.jsonl", "--out", "verified.jsonl", "--report", "validate_report.json"]),
    ("curate-format-sft", ["curate", "format-sft", "--traces", "traces.jsonl", "--out", "sft.jsonl"]),
    ("report-filter", ["report", "--in", "filter_report.json"]),
    ("report-sample", ["report", "--in", "sample_report.json"]),
]  # fmt: skip


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_matrix(directory: pathlib.Path, commands=COMMANDS) -> tuple[dict, dict[str, bytes]]:
    """Write the inputs into ``directory``, run every command there, and
    return each command's ``(exit code, stdout, {artifact: sha256})`` plus
    the bytes of every file the commands wrote."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    results = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in commands:
            before = {p.name for p in directory.iterdir()}
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = run(argv)
            written = sorted({p.name for p in directory.iterdir()} - before)
            results[name] = (code, out.getvalue(), {f: _sha256(directory / f) for f in written})
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in directory.iterdir() if p.name not in INPUTS}
    return results, files


def test_two_directories_give_the_same_bytes(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    results_one, files_one = run_matrix(one)
    results_two, files_two = run_matrix(two)
    assert results_one == results_two
    assert files_one == files_two
    # every command but report wrote something, and no two commands wrote the same file
    written = [f for _, _, shas in results_one.values() for f in shas]
    assert [name for name, (_, _, shas) in results_one.items() if not shas] == ["report-filter", "report-sample"]
    assert len(written) == len(set(written)) == len(files_one)


def test_the_matrix_runs_every_command():
    # a new command needs a row here, so that its artifacts are pinned too
    for words in cli.COMMANDS:
        assert any(argv[: len(words)] == list(words) for _, argv in COMMANDS), words


# the flags that name a file a command writes
OUTPUT_FLAGS = {"--out", "--report", "--summary", "--out-csv", "--out-svg", "--out-json"}


def test_the_matrix_writes_every_output_flag():
    # an output flag that no row gives writes an artifact that is never pinned,
    # and one that run does not check may name the file another flag names
    assert set(cli.OUTPUTS) == OUTPUT_FLAGS
    for words, (_, _, arguments) in cli.COMMANDS.items():
        given = {arg for _, argv in COMMANDS if argv[: len(words)] == list(words) for arg in argv}
        for flag, _ in arguments:
            assert flag not in OUTPUT_FLAGS or flag in given, (words, flag)


def _reads() -> dict[str, list[str]]:
    """Each file a row reads, a fixed input or an earlier row's artifact ->
    the rows that read it, in run order."""
    files, readers = set(INPUTS), {}
    for name, argv in COMMANDS:
        pairs = list(zip(argv, argv[1:]))
        for flag, value in pairs:
            if flag.startswith("--") and flag not in OUTPUT_FLAGS and value in files:
                readers.setdefault(value, []).append(name)
        files.update(value for flag, value in pairs if flag in OUTPUT_FLAGS)
    return readers


def _slots(value, found: list, skip: tuple[str, ...] = ()) -> list:
    """``found`` plus a ``(container, key)`` pair for every value nested in
    ``value``, but none inside the value of an object key in ``skip``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        found.append((value, key))
        if key not in skip:
            _slots(child, found, skip)
    return found


def _nest(value):
    for _ in range(50):
        value = [value]
    return value


# operators on one value nested in a record: each returns the value's replacement
_VALUE_OPERATORS = {
    "type-swap": lambda old: 1 if isinstance(old, str) else "x",
    "nested-50-deep": _nest,
    "int-10**30": lambda old: 10**30,
    "nan": lambda old: float("nan"),
}
# a JSON string literal, escapes included
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
# keys whose values map free names, not fields: a source's counts, a
# stage's params, the ledger header and provenance
_FREE_KEYS = ("_provenance", "header", "counts", "params")
# JSON inputs whose keys are free names; every other .json file is one of thinkctl's own strict documents
_OPEN_DOCUMENTS = ("lexicon.json",)


def _mutants(name: str, data: bytes) -> list[tuple[str, bytes, tuple[str, ...]]]:
    """One ``(operator, mutant, keys)`` triple of the file ``name`` per
    operator, thirteen in all: six on its bytes, five on one value of one
    record (a JSONL line, or the whole of a JSON file), a lone surrogate
    escape put into one JSON string, and one key of an object of the record
    renamed to a near miss (outside the values of ``_FREE_KEYS``), whose
    ``keys`` are the old and new names. The choices are drawn from a
    generator seeded by ``name``."""
    rng = random.Random(name)
    lines = data.splitlines(keepends=True)
    at = rng.randrange(len(data))
    i = rng.randrange(len(lines))
    mutants = [
        ("flip", data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1 :], ()),
        ("truncate", data[:at], ()),
        ("repeat-line", b"".join(lines[: i + 1] + lines[i:]), ()),
        ("bom", b"\xef\xbb\xbf" + data, ()),
        ("nul", data[:at] + b"\0" + data[at:], ()),
        ("blank-lines", data + b"\n\n\n", ()),
    ]
    jsonl = name.endswith(".jsonl")
    i = rng.choice([k for k, line in enumerate(lines) if line.strip()]) if jsonl else 0

    def put(record) -> bytes:
        """``data`` with ``record`` in place of the chosen record."""
        if jsonl:
            return b"".join(lines[:i] + [(json.dumps(record) + "\n").encode()] + lines[i + 1 :])
        return json.dumps(record, indent=2).encode()

    for op in ["deleted-key", *_VALUE_OPERATORS]:
        record = json.loads(lines[i] if jsonl else data)
        slots = _slots(record, [])
        container, key = rng.choice([s for s in slots if isinstance(s[0], dict)] if op == "deleted-key" else slots)
        if op == "deleted-key":
            del container[key]
        else:
            container[key] = _VALUE_OPERATORS[op](container[key])
        mutants.append((op, put(record), ()))
    text = data.decode()
    at = rng.choice(list(_JSON_STRING.finditer(text))).start() + 1
    mutants.append(("lone-surrogate", (text[:at] + "\\ud800" + text[at:]).encode(), ()))
    record = json.loads(lines[i] if jsonl else data)
    container, key = rng.choice([s for s in _slots(record, [], _FREE_KEYS) if isinstance(s[0], dict)])
    near_miss = key + key[-1:] or "_"
    container[near_miss] = container.pop(key)
    mutants.append(("renamed-key", put(record), (key, near_miss)))
    return mutants


# the one message about a whole dataset, which cites no line
_WHOLE_FILE = ("dataset is empty",)
# Python's own words for a value of the wrong shape, which name no field of the file
_PYTHON_MESSAGES = ("object has no attribute", "argument after **", "__init__()", "is not iterable", "not subscriptable")


def test_every_mutated_input_exits_0_or_1_citing_its_file(tmp_path, monkeypatch):
    # Miller, Fredriksen and So's fuzzing of UNIX utilities (CACM 33(12),
    # 1990) on each file a matrix row reads, by every row that reads it
    run_matrix(tmp_path)
    monkeypatch.chdir(tmp_path)
    files = sorted(os.listdir(tmp_path))
    rows = dict(COMMANDS)
    for name, readers in _reads().items():
        original = (tmp_path / name).read_bytes()
        for op, mutant, keys in _mutants(name, original):
            (tmp_path / name).write_bytes(mutant)
            for row in readers:
                argv = rows[row]
                outputs = {value: (tmp_path / value).read_bytes() for flag, value in zip(argv, argv[1:]) if flag in OUTPUT_FLAGS}
                with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                    code = run(argv)
                case, message = (name, op, row), err.getvalue()
                assert code in (0, 1), case
                assert sorted(os.listdir(tmp_path)) == files, case  # a failed write leaves no temp file
                if code == 1:
                    # one error line, and no partial output before it
                    assert message.startswith("error: ") and message.count("\n") == 1 and out.getvalue() == "", (case, message)
                    assert "Traceback" not in message, case
                    cited = re.search(rf"(?<![\w.-]){re.escape(name)}:\d+: ", message)
                    assert cited or name in message and any(m in message for m in _WHOLE_FILE), (case, message)
                    assert not any(m in message for m in _PYTHON_MESSAGES), (case, message)
                if op == "renamed-key" and name.endswith(".json") and name not in _OPEN_DOCUMENTS:
                    # a strict document names the key: the old one if it is required, else the near miss
                    assert code == 1 and any(repr(key) in message for key in keys), (case, message)
                for output, data in outputs.items():
                    (tmp_path / output).write_bytes(data)
        (tmp_path / name).write_bytes(original)


class _FullDisk:
    """A file whose every write fails, as on a full disk."""

    def write(self, data: bytes):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_each_artifact_is_one_write_and_a_failed_write_prints_nothing(tmp_path, monkeypatch):
    # each row writes each artifact through one call to one of cli's writers,
    # the JSON and JSONL ones before any plot; with its k-th write failing, a
    # row exits 1, prints only the error naming that output, writes nothing
    # more and leaves no temp file
    results, _ = run_matrix(tmp_path)
    monkeypatch.chdir(tmp_path)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls: list[tuple[str, str]] = []
    failing = 0  # the number of the write that fails, 0 for none
    atomic_file = jsonl._atomic_file

    @contextlib.contextmanager
    def full_disk(path):
        with atomic_file(path):  # the temp file exists, as in a real write
            yield _FullDisk()

    def counted(name, writer):
        def write(path, *args, **kwargs):
            calls.append((name, path))
            with pytest.MonkeyPatch.context() as patch:
                if len(calls) == failing:
                    patch.setattr(jsonl, "_atomic_file", full_disk)
                return writer(path, *args, **kwargs)

        return write

    for name in ("write_jsonl", "write_json", "atomic_write_bytes"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    for row, argv in COMMANDS:
        calls.clear()
        failing = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0, row
        written = [path for _, path in calls]
        assert sorted(written) == sorted(set(written)) == sorted(results[row][2]), row
        plots = [writer == "atomic_write_bytes" for writer, _ in calls]
        assert plots == sorted(plots), (row, calls)
        for k in range(1, len(written) + 1):
            calls.clear()
            failing = k
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                code = run(argv)
            case = (row, k, written[k - 1])
            assert (code, out.getvalue(), len(calls)) == (1, "", k), case
            assert err.getvalue() == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {written[k - 1]!r}\n", case
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files, case


def _without_provenance(name: str, data: bytes):
    """An artifact's content with its ``_meta`` lines or ``_provenance`` removed."""
    if name.endswith(".jsonl"):
        return [record for record in map(json.loads, data.splitlines()) if "_meta" not in record]
    if not name.endswith(".json"):
        return data  # a CSV or SVG plot records no provenance
    payload = json.loads(data)
    del payload["_provenance"]
    return payload


def _mocks(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, arg in enumerate(argv) if arg == "--mock"]


def _over_the_wire(argv: list[str], base_url: str) -> list[str]:
    """``argv`` with each ``--mock FILE`` served by the twin at ``base_url``
    as model ``FILE``: ``--model`` for one model, a ``--grader-model`` per
    grader for several."""
    models = _mocks(argv)
    flag = "--model" if len(models) == 1 else "--grader-model"
    rest = [arg for i, arg in enumerate(argv) if arg != "--mock" and argv[i - 1 : i] != ["--mock"]]
    return rest + ["--base-url", base_url] + [a for m in models for a in (flag, m)]


MOCK_ROWS = [name for name, argv in COMMANDS if "--mock" in argv]


@pytest.mark.parametrize(
    "row, faults",
    [pytest.param(name, (), id=name) for name in MOCK_ROWS]
    # the runner retries a 503 and a cut stream, which then change no artifact
    + [pytest.param(name, ("503", "cut"), id=f"{name}-503-cut") for name in MOCK_ROWS],
)
def test_the_mock_rows_over_the_wire_twin_give_the_mock_artifacts(tmp_path, sse_server, monkeypatch, caplog, row, faults):
    # the wire twin serves each --mock file's script one event per token, so
    # a wire run must write what the mock run writes, but for provenance
    monkeypatch.setattr(client, "BACKOFF_S", 0)
    argv = dict(COMMANDS)[row]
    _SSEHandler.mode = "script"
    _SSEHandler.scripts = {model: ScriptedModel.from_dict(json.loads(INPUTS[model])) for model in _mocks(argv)}
    runs = []
    for name, args in (("mock", argv), ("wire", _over_the_wire(argv, sse_server))):
        _SSEHandler.faults = list(faults)
        (tmp_path / name).mkdir()
        results, files = run_matrix(tmp_path / name, [(row, args)])
        runs.append((results[row][:2], {f: _without_provenance(f, data) for f, data in files.items()}))
    assert runs[0] == runs[1]
    assert runs[0][0][0] == 0 and runs[0][1]
    assert _SSEHandler.faults == []
    assert len(_SSEHandler.requests_seen) >= len(DATASET) + len(faults)
    # each fault cost the wire run one retry
    assert sum("retryable backend error" in r.getMessage() for r in caplog.records) == len(faults)


def test_artifacts_match_the_pinned_table(tmp_path):
    results, _ = run_matrix(tmp_path)
    assert list(results) == list(PINNED)
    for name, entry in PINNED.items():
        assert results[name] == entry, name


PINNED = {'eval': (0,
          'data.jsonl: accuracy 0.3333 (2/6)\nunscripted.jsonl: accuracy 0.3333 (1/3)\nmacro average: 33.33%\n',
          {'eval.jsonl': '8b1bd5f2347025bd715a49983136e6e442d00fd2c02c3767948eaef95bca24a7',
           'eval_summary.json': 'dd74b489b5a1c8082c6b73ba8a03083e571ce41c6d4cd06dd8aa4e19812d3662'}),
 'eval-validate': (0,
                   'verified 3 of 9 traces\n',
                   {'eval_validate_report.json': '9e3a0407077d2e36a5994c231018b1af7c0b281dbf5760f73d42e64c5157ad46',
                    'eval_verified.jsonl': '7b29a3a3ea7e3d9a5726d7157dfa72c921cbac7d2b6e8c3d9156220d50350b52'}),
 'eval-format-sft': (0,
                     'formatted 3 examples\n',
                     {'eval_sft.jsonl': 'a62324db0d251b3e010fbee0d76ccf761f33f1545fc915c118b33c4619b62c0f'}),
 'sweep': (0,
           'budget 1: accuracy 0.1667 (1/6)\n'
           'budget 2: accuracy 0.3333 (2/6)\n'
           'budget 3: accuracy 0.3333 (2/6)\n'
           'budget 4: accuracy 0.3333 (2/6)\n'
           'budget 6: accuracy 0.5000 (3/6)\n',
           {'sweep.csv': 'b7ac6ac7a73fd36f7548d2783589044e637e8ce34033b3cbafb39ba4ad2a7eb3',
            'sweep.json': 'd422ba9fcfb46350211d5ec650b515b0ef1a24c0854362018d06c0ca28e7cea5',
            'sweep.svg': '44200bb0e0b029ec9466f2b656ed03898f6f87ea01f95b329427d54a3150069f',
            'sweep_summary.json': 'd422ba9fcfb46350211d5ec650b515b0ef1a24c0854362018d06c0ca28e7cea5'}),
 'force-sweep': (0,
                 'forcings 0: accuracy 0.5000 (3/6)\n'
                 'forcings 1: accuracy 0.6667 (4/6)\n'
                 'forcings 2: accuracy 0.1667 (1/6)\n',
                 {'force.csv': 'd806a1929e0c0ca8dfba7c3e998bb593b44860a04d42f1ec42a6aebf65f965fd',
                  'force.json': '5fbca5d510474fe3bf0192023f2314d140a111db5e087cabec6542d59ff2b35c',
                  'force.svg': '0a2f7bca5ba341d5a3a91e88f546316df68095515dfebaf9e3db6f89c09583bb',
                  'force_summary.json': '5fbca5d510474fe3bf0192023f2314d140a111db5e087cabec6542d59ff2b35c'}),
 'plot-csv': (0,
              'wrote replot.csv\n',
              {'replot.csv': 'b7ac6ac7a73fd36f7548d2783589044e637e8ce34033b3cbafb39ba4ad2a7eb3'}),
 'plot-svg': (0,
              'wrote replot.svg\n',
              {'replot.svg': '0a2f7bca5ba341d5a3a91e88f546316df68095515dfebaf9e3db6f89c09583bb'}),
 'curate-filter': (0,
                   'kept 20 of 30 questions\n',
                   {'filter_report.json': 'e0d97ebfd3fa3e0cf75744244698ffaa2f42dcc9f65b8d5cfcf585d69d218fef',
                    'filtered.jsonl': 'f2c9e6ad067ac691f415c15e4a893e52de319f3f8ee7d20b4394533ad027e6e3'}),
 'curate-decontaminate': (0,
                          'kept 15 of 20 questions\n',
                          {'clean.jsonl': 'c22cf2946a05ccec3f37c66ed6499d327c9c947f5189c4dcebc373b7faa70f18',
                           'decontaminate_report.json': '96603ac1ab9175ea386c5b190924ab18f45b827b3e4c7862dd29ec4753f97ca3'}),
 'curate-dedup': (0,
                  'kept 29 of 30 questions\n',
                  {'dedup.jsonl': '75ef1429676a2e17fd38e16a3dd5415266e289997526631d92e75849eaad55a4',
                   'dedup_report.json': '600f53ea9fccf2df9dde7dd7939620c3059d1edb1af8316e287fb8f0a9f0de4c'}),
 'curate-annotate': (0,
                     'annotated 15 questions\n',
                     {'annotated.jsonl': '671c55221a9b1aba366a405ec4cb567397865d166daa81a158386232e53eaa68'}),
 'curate-sample': (0,
                   'sampled 8 of 15 questions\n',
                   {'sample.jsonl': 'e39f5b24eb27b14ac64b171de6547b35fc282ac022bfaf821a4b1347ffa3a150',
                    'sample_report.json': '64ac8e6d31c605ae6bcd8767fb70c647b5361a0da0408682b6513d3ed98d6ae6'}),
 'curate-sample-default-seed': (0,
                                'sampled 12 of 15 questions\n',
                                {'sample42.jsonl': 'cc84057483a8c138e1496fd339b452b00a12042aec819b749475bb505abd998b'}),
 'curate-validate': (0,
                     'verified 2 of 4 traces\n',
                     {'validate_report.json': '73ff775a0252975b27d0e6da56c140d187377537b9d6a49394860db1fb7560b4',
                      'verified.jsonl': 'a30cf477e63c8e63d4e0f5eca93cade685ae346c1ac56fe615ad9b28dd2908ba'}),
 'curate-format-sft': (0,
                       'formatted 2 examples\n',
                       {'sft.jsonl': '946e4146afaca11b3e12a2c39e334781e0aca5c1ef3c2c75d26e9fca851e01cc'}),
 'report-filter': (0,
                   'stage\tds0\tds1\tds2\ttotal\ninitial_collection\t10\t10\t10\t30\ndifficulty_filter\t5\t5\t10\t20\n',
                   {}),
 'report-sample': (0,
                   'stage\tds0\tds1\tds2\ttotal\n'
                   'initial_collection\t5\t5\t5\t15\n'
                   'diversity_sampling\t1\t5\t2\t8\n'
                   'diversity_sampling params: {"rng": "blake2b-counter", "seed": 7, "target_n": 8}\n',
                   {})}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table, _ = run_matrix(pathlib.Path(tmp))
    sys.stdout.write("PINNED = ")
    pprint.pprint(table, width=120, sort_dicts=False)
