from __future__ import annotations

import http.client
import json
import sys
import threading
import time
import urllib.request
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import STATUS_BODY, UTF8_CHUNKS, _SSEHandler
from thinkctl import client
from thinkctl.client import (
    CAUSE_BACKEND_STOP,
    CAUSE_CAP,
    CAUSE_MARKER,
    TRACE_TOKEN_LIMIT,
    BackendError,
    BackendStatusError,
    ConnectionFailure,
    GenerationRequest,
    ScriptEntry,
    ScriptedModel,
    TokenEvent,
    TokenStream,
    TruncatedStreamError,
    WireBackend,
    collect,
    in_order,
    probe_answer,
    stream_generate,
    with_retries,
)


def single_entry_model(emission: str, marker: str | None = None) -> ScriptedModel:
    return ScriptedModel((ScriptEntry("", emission, marker),))


def test_defaults_are_greedy_with_fixed_seed():
    backend = WireBackend(base_url="http://localhost:8000", model="m")
    assert backend.temperature == 0.0
    assert backend.seed == 42


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
def test_wire_backend_rejects_a_temperature_that_is_not_finite_and_nonnegative(temperature):
    # json.dumps would write NaN or Infinity into the request body, which is not JSON
    with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
        WireBackend(base_url="http://localhost:8000", model="m", temperature=temperature)


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_wire_backend_rejects_a_timeout_that_is_not_finite_and_positive(timeout):
    # urllib would fail only at the first request; at -1 or NaN with a bare ValueError, which the runner neither retries nor records
    with pytest.raises(ValueError, match="timeout must be a finite number > 0"):
        WireBackend(base_url="http://localhost:8000", model="m", timeout=timeout)


def test_request_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        GenerationRequest(prompt="p", max_new_tokens=0)


def test_request_and_script_entry_compare_by_value():
    req = GenerationRequest("p", 5)
    assert (req.prompt, req.max_new_tokens, req.stop_on) == ("p", 5, None)
    assert req == GenerationRequest(prompt="p", max_new_tokens=5, stop_on=None)
    assert hash(req) == hash(GenerationRequest("p", 5))
    assert req != GenerationRequest("p", 5, "END") and req != ("p", 5, None)
    entry = ScriptEntry("t", "a  b", "END")
    assert entry.tokens == ("a ", "b", "END") and entry.tokens is entry.tokens
    assert entry == ScriptEntry(trigger="t", emission="a  b", terminal_marker="END")
    # tokens are not compared: two emissions that split alike still differ
    assert entry != ScriptEntry("t", "a b", "END") and ScriptEntry("t", "x").terminal_marker is None
    assert repr(entry) == "ScriptEntry(trigger='t', emission='a  b', terminal_marker='END')"


def test_script_shorter_than_cap_stops_on_marker():
    model = single_entry_model("a b c", marker="END")
    stream = stream_generate(model, GenerationRequest("p", max_new_tokens=10, stop_on="END"))
    events = list(stream)
    assert [e.text for e in events] == ["a ", "b ", "c"]
    assert stream.cause == CAUSE_MARKER
    assert [e.cause for e in events] == [None, None, CAUSE_MARKER]
    assert [e.ordinal for e in events] == [0, 1, 2]


def test_cap_truncates_long_emission():
    model = single_entry_model(" ".join(f"t{i}" for i in range(10)))
    stream = stream_generate(model, GenerationRequest("p", max_new_tokens=5))
    events = list(stream)
    assert len(events) == 5
    assert stream.cause == CAUSE_CAP


def test_trace_ceiling_request_accepted_and_respected():
    model = single_entry_model(" ".join(f"t{i}" for i in range(TRACE_TOKEN_LIMIT + 50)))
    stream = stream_generate(model, GenerationRequest("p", max_new_tokens=TRACE_TOKEN_LIMIT))
    assert sum(1 for _ in stream) == TRACE_TOKEN_LIMIT
    assert stream.cause == CAUSE_CAP


def test_backend_stop_when_script_runs_dry():
    model = single_entry_model("only two")
    stream = stream_generate(model, GenerationRequest("p", max_new_tokens=10))
    texts, cause = collect(stream)
    assert texts == ["only ", "two"]
    assert cause == CAUSE_BACKEND_STOP


def test_unwatched_terminal_marker_is_plain_text():
    model = single_entry_model("a b", marker="<|eot|>")
    texts, cause = collect(stream_generate(model, GenerationRequest("p", max_new_tokens=10)))
    assert texts == ["a ", "b", "<|eot|>"]
    assert cause == CAUSE_BACKEND_STOP


def test_zero_token_stream_reports_cause():
    model = ScriptedModel((ScriptEntry("never-matches", "x"),))
    stream = stream_generate(model, GenerationRequest("p", max_new_tokens=3))
    assert list(stream) == []
    assert stream.cause == CAUSE_BACKEND_STOP


def test_marker_inside_emission_is_suppressed():
    model = single_entry_model("keep this END drop that")
    texts, cause = collect(stream_generate(model, GenerationRequest("p", max_new_tokens=10, stop_on="END")))
    assert texts == ["keep ", "this "]
    assert cause == CAUSE_MARKER


def test_marker_split_across_tokens_detected_via_joined_text():
    # whitespace-tokenized marker arrives as two events; their concatenated
    # text contains it, so detection must span events
    model = single_entry_model("alpha STOP NOW beta")
    texts, cause = collect(
        stream_generate(model, GenerationRequest("p", max_new_tokens=10, stop_on="STOP NOW"))
    )
    assert texts == ["alpha "]
    assert cause == CAUSE_MARKER


def test_first_matching_script_entry_wins():
    model = ScriptedModel(
        (
            ScriptEntry("tail", "specific"),
            ScriptEntry("", "generic"),
        )
    )
    texts, _ = collect(stream_generate(model, GenerationRequest("context tail", max_new_tokens=5)))
    assert texts == ["specific"]
    texts, _ = collect(stream_generate(model, GenerationRequest("other context", max_new_tokens=5)))
    assert texts == ["generic"]


def test_mock_replay_is_deterministic():
    model = ScriptedModel((ScriptEntry("", "x y z", "END"),))
    req = GenerationRequest("same context", max_new_tokens=10, stop_on="END")
    first = [(e.text, e.ordinal, e.cause) for e in stream_generate(model, req)]
    second = [(e.text, e.ordinal, e.cause) for e in stream_generate(model, req)]
    assert first == second


def test_empty_script_rejected():
    with pytest.raises(ValueError):
        ScriptedModel(())


def test_script_round_trips_through_json(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            {
                "entries": [
                    {"trigger": "t", "emission": "a b", "terminal_marker": "END"},
                    {"trigger": "", "emission": "c"},
                ]
            }
        )
    )
    model = ScriptedModel.from_file(str(path))
    assert model.entries[0] == ScriptEntry("t", "a b", "END")
    assert model.entries[1] == ScriptEntry("", "c", None)


class _FailingBackend:
    """Raises a configurable number of retryable errors before succeeding."""

    def __init__(self, failures: int, error: BackendError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def raw_stream(self, req):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        yield from ["recovered", " text"]


def test_probe_answer_returns_joined_text():
    # the mock's tokens carry their own spaces, so they concatenate to the emission
    model = single_entry_model("so  it is\n\\boxed{B}", marker="<|eot|>")
    assert probe_answer(model, "prompt") == "so it is \\boxed{B}<|eot|>"


def test_probe_answer_deterministic_across_invocations():
    model = single_entry_model("steady output here")
    first = probe_answer(model, "prompt")
    second = probe_answer(model, "prompt")
    assert first == second


def test_probe_answer_makes_one_attempt():
    # the runner that queues a probe retries it; probe_answer does not
    backend = _FailingBackend(1, ConnectionFailure("boom"))
    with pytest.raises(ConnectionFailure):
        probe_answer(backend, "p")
    assert backend.calls == 1


def test_probe_answer_retries_then_succeeds(monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    backend = _FailingBackend(2, ConnectionFailure("boom"))
    text = with_retries(partial(probe_answer, backend, "p"))
    assert text == "recovered text"
    assert backend.calls == 3


def test_probe_answer_exhausts_retries(monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    backend = _FailingBackend(5, ConnectionFailure("down"))
    with pytest.raises(ConnectionFailure):
        with_retries(partial(probe_answer, backend, "p"))
    assert backend.calls == 3  # initial + 2 retries


def test_with_retries_skips_nonretryable(monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    backend = _FailingBackend(5, BackendStatusError(404, "missing"))
    with pytest.raises(BackendStatusError):
        with_retries(partial(probe_answer, backend, "p"))
    assert backend.calls == 1


def test_in_order_yields_in_call_order_when_calls_finish_out_of_order():
    """Each call waits for the one after it, so the calls finish in reverse."""
    n = 4
    finished = [threading.Event() for _ in range(n)]
    done = []

    def call(i):
        if i + 1 < n:
            assert finished[i + 1].wait(timeout=5)
        done.append(i)
        finished[i].set()
        return i

    assert list(in_order([lambda i=i: call(i) for i in range(n)], workers=n)) == list(range(n))
    assert done == list(range(n))[::-1]


def test_in_order_runs_inline_at_one_worker():
    caller = threading.get_ident()
    assert list(in_order([threading.get_ident] * 3, workers=1)) == [caller] * 3
    assert caller not in in_order([threading.get_ident] * 3, workers=2)


class _Starts:
    """Records the index of every call the runner starts, in order."""

    def __init__(self):
        self.started: list[int] = []
        self.lock = threading.Lock()

    def call(self, i: int, body=None):
        def run():
            with self.lock:
                self.started.append(i)
            return body() if body else i

        return run


def test_in_order_runs_a_due_retry_before_the_next_first_attempt(monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    starts = _Starts()
    fails = iter([ConnectionFailure("once")])

    def flaky():
        for exc in fails:
            raise exc
        return 0

    assert list(in_order([starts.call(0, flaky)] + [starts.call(i) for i in range(1, 4)], workers=1)) == [0, 1, 2, 3]
    assert starts.started == [0, 0, 1, 2, 3]


def test_in_order_runs_a_due_retry_first_on_a_pool(monkeypatch):
    """Call 0 fails once while call 1 holds the other worker until call 0's
    retry has started, so the worker that call 0 frees must take that retry,
    not call 2."""
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    starts = _Starts()
    fails = iter([ConnectionFailure("once")])
    holding, retried = threading.Event(), threading.Event()

    def flaky():
        for exc in fails:
            assert holding.wait(timeout=5)
            raise exc
        retried.set()
        return 0

    def hold():
        holding.set()
        assert retried.wait(timeout=5)
        return 1

    calls = [starts.call(0, flaky), starts.call(1, hold)] + [starts.call(i) for i in range(2, 6)]
    assert list(in_order(calls, workers=2)) == list(range(6))
    assert sorted(starts.started[:2]) == [0, 1]
    assert starts.started[2:] == [0, 2, 3, 4, 5]


def test_in_order_drops_the_calls_not_started_after_a_nonretryable_error():
    starts = _Starts()
    second = threading.Event()

    def fatal():
        assert second.wait(timeout=5)
        raise BackendStatusError(404, "missing")

    def slow(i):
        second.set()
        time.sleep(0.2)  # the worker is still busy when the error ends the iteration
        return i

    calls = [starts.call(0, fatal)] + [starts.call(i, lambda i=i: slow(i)) for i in range(1, 10)]
    with pytest.raises(BackendStatusError):
        list(in_order(calls, workers=2))
    assert set(starts.started) <= {0, 1, 2}


def test_in_order_close_drops_queued_retries_and_joins_its_workers(monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 30.0)
    before = set(threading.enumerate())
    starts = _Starts()
    refused = threading.Event()

    def refuse():
        refused.set()
        raise ConnectionFailure("later")

    def slow(i):
        time.sleep(0.01)
        return i

    calls = [starts.call(0), starts.call(1, refuse)] + [starts.call(i, lambda i=i: slow(i)) for i in range(2, 60)]
    runs = in_order(calls, workers=2)
    assert next(runs) == 0
    assert refused.wait(timeout=5)
    began = time.monotonic()
    runs.close()
    assert time.monotonic() - began < 5  # the 30 s retry is dropped, not awaited
    assert set(threading.enumerate()) == before
    sent = len(starts.started)
    time.sleep(0.05)
    assert len(starts.started) == sent < 60
    assert starts.started.count(1) == 1


def test_in_order_retries_under_thread_switches(monkeypatch):
    """8 workers on 200 calls, each failing 0 to 2 times: every call runs
    once per failure plus once, and the results come out in order."""
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    failures = [i % 3 for i in range(200)]
    attempts = [0] * len(failures)
    lock = threading.Lock()

    def call(i):
        with lock:
            attempts[i] += 1
            fail = attempts[i] <= failures[i]
        if fail:
            raise TruncatedStreamError(f"cut {i}")
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, so a lost update would show
    try:
        results = list(in_order([lambda i=i: call(i) for i in range(len(failures))], workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(len(failures)))
    assert attempts == [f + 1 for f in failures]


@pytest.mark.parametrize("n_calls, workers, threads", [(0, 8, 0), (3, 8, 3), (5, 2, 2), (3, 1, 0)])
def test_in_order_starts_no_more_threads_than_calls(monkeypatch, n_calls, workers, threads):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(client.threading, "Thread", Counted)
    assert list(in_order([lambda i=i: i for i in range(n_calls)], workers)) == list(range(n_calls))
    assert len(started) == threads


def test_error_classification_is_distinct_and_retry_classifiable():
    assert ConnectionFailure("x").retryable
    assert TruncatedStreamError("x").retryable
    assert BackendStatusError(500).retryable
    assert BackendStatusError(429).retryable
    assert not BackendStatusError(404).retryable
    kinds = {ConnectionFailure, BackendStatusError, TruncatedStreamError}
    assert all(issubclass(k, BackendError) for k in kinds)


# --- stop marker ----------------------------------------------------------


def eager_stop_split(tokens: list[str], marker: str) -> list[str]:
    """Independent oracle: split the fully concatenated text at the marker,
    then rebuild token texts from the prefix."""
    text = "".join(tokens)
    idx = text.find(marker)
    if idx == -1:
        return tokens
    out = []
    pos = 0
    for tok in tokens:
        end = pos + len(tok)
        if end <= idx:
            out.append(tok)
        elif pos < idx:
            out.append(tok[: idx - pos])
            break
        else:
            break
        pos = end
    return out


class _ListBackend:
    """Streams a fixed token list, counts the tokens handed out and records
    when its generator has been closed or run dry."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.read = 0
        self.closed = False

    def raw_stream(self, req):
        try:
            for tok in self.tokens:
                self.read += 1
                yield tok
        finally:
            self.closed = True


def run_scanner(tokens: list[str], marker: str) -> tuple[list[str], bool]:
    """Drain a stream of ``tokens`` watching ``marker``, under a cap it
    cannot reach; returns (texts, whether the marker stopped it)."""
    req = GenerationRequest("p", max_new_tokens=len(tokens) + 1, stop_on=marker)
    texts, cause = collect(stream_generate(_ListBackend(tokens), req))
    return texts, cause == CAUSE_MARKER


@given(
    tokens=st.lists(st.text(alphabet="ab XY", min_size=1, max_size=4), min_size=0, max_size=12),
    marker=st.text(alphabet="ab XY", min_size=1, max_size=5),
)
@settings(max_examples=400, deadline=None)
def test_scanner_matches_eager_oracle(tokens, marker):
    got, found = run_scanner(tokens, marker)
    expected = eager_stop_split(tokens, marker)
    assert found == (marker in "".join(tokens))
    assert got == expected


def safe_prefix(tokens: list[str], marker: str) -> list[str]:
    """Brute-force oracle for release timing: once the marker has occurred,
    the eager split; otherwise every token ending at or before the earliest
    offset where a future occurrence could still start."""
    text = "".join(tokens)
    if marker in text:
        return eager_stop_split(tokens, marker)
    lo = max(0, len(text) - len(marker) + 1)
    safe = next(p for p in range(lo, len(text) + 1) if marker.startswith(text[p:]))
    out = []
    pos = 0
    for tok in tokens:
        pos += len(tok)
        if pos > safe:
            break
        out.append(tok)
    return out


# " x" starts with the space a mock token ends with, "aab" repeats its
# first character and one-character markers leave nothing to withhold, so
# both the fast path and the withholding path of the read loop run
SCANNER_MARKERS = st.one_of(
    st.sampled_from([" x", "aab", "a", "x", " ", "xa x"]),
    st.text(alphabet="ab x", min_size=1, max_size=4),
)
# empty tokens included
SCANNER_TOKENS = st.lists(st.text(alphabet="ab x", max_size=4), max_size=12)


@given(tokens=SCANNER_TOKENS, marker=st.none() | SCANNER_MARKERS)
@settings(max_examples=300, deadline=None)
def test_stream_cap_and_marker_match_oracle(tokens, marker):
    # oracle: the eager split, then the cap; the stream stops reading the
    # backend as soon as it has released the cap-th text, or when the
    # backend runs dry and the withheld texts are flushed. Over every cap,
    # the read counts check when each text is released.
    def released(prefix: list[str]) -> list[str]:
        return prefix if marker is None else safe_prefix(prefix, marker)

    found = marker is not None and marker in "".join(tokens)
    kept = eager_stop_split(tokens, marker) if marker is not None else tokens
    for cap in range(1, len(tokens) + 2):
        backend = _ListBackend(tokens)
        stream = stream_generate(backend, GenerationRequest("p", max_new_tokens=cap, stop_on=marker))
        got = [(e.text, e.ordinal, e.cause) for e in stream]
        if len(kept) >= cap:
            cause = CAUSE_CAP
            read = next((k for k in range(len(tokens) + 1) if len(released(tokens[:k])) >= cap), len(tokens))
        elif found:
            cause = CAUSE_MARKER
            read = next(k for k in range(len(tokens) + 1) if marker in "".join(tokens[:k]))
        else:
            cause = CAUSE_BACKEND_STOP
            read = len(tokens)
        texts = kept[:cap]
        expected = [(t, i, cause if i == len(texts) - 1 else None) for i, t in enumerate(texts)]
        assert got == expected, cap
        assert stream.cause == cause
        assert backend.read == read, cap


def reads_to_release(tokens: list[str], marker: str | None, m: int) -> int:
    """Backend tokens a stream reads before it has released ``m`` texts,
    found the marker, or run dry."""
    for k in range(len(tokens) + 1):
        prefix = tokens[:k]
        if marker is None:
            if len(prefix) >= m:
                return k
        elif marker in "".join(prefix) or len(safe_prefix(prefix, marker)) >= m:
            return k
    return len(tokens)


class _EventProxy:
    """An iterable of events that is not a ``TokenStream``, passing on the
    wrapped stream's events and cause (as a tracing wrapper does)."""

    def __init__(self, stream: TokenStream):
        self._stream = stream

    def __iter__(self):
        return self

    def __next__(self) -> TokenEvent:
        return next(self._stream)

    @property
    def cause(self) -> str | None:
        return self._stream.cause


@given(
    tokens=SCANNER_TOKENS,
    marker=st.none() | SCANNER_MARKERS,
    cap=st.integers(min_value=1, max_value=8),
    taken=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=300, deadline=None)
def test_collect_matches_the_event_path(tokens, marker, cap, taken):
    req = GenerationRequest("p", max_new_tokens=cap, stop_on=marker)
    events_backend = _ListBackend(tokens)
    events_stream = stream_generate(events_backend, req)
    events = list(events_stream)
    expected = ([e.text for e in events], events_stream.cause)

    # a fresh stream: the same texts, cause and backend reads, no events
    backend = _ListBackend(tokens)
    assert collect(stream_generate(backend, req)) == expected
    assert backend.read == events_backend.read

    # the fallback for other iterables of events
    backend = _ListBackend(tokens)
    assert collect(_EventProxy(stream_generate(backend, req))) == expected
    assert backend.read == events_backend.read

    # ``taken`` events one at a time, then the rest drained: the first event
    # reads the backend as far as a drain does and sets the cause
    backend = _ListBackend(tokens)
    stream = stream_generate(backend, req)
    head = [event for _, event in zip(range(taken), stream)]
    assert head == events[:taken]
    assert backend.read == (events_backend.read if taken else 0)
    assert stream.cause == (expected[1] if taken else None)
    assert backend.closed == bool(taken)
    texts, cause = collect(stream)
    assert [e.text for e in head] + texts == expected[0]
    assert cause == expected[1]
    assert backend.read == events_backend.read
    assert list(stream) == [] and collect(stream) == ([], cause)


@pytest.mark.parametrize("marker, cause", [(None, CAUSE_CAP), ("c", CAUSE_MARKER)], ids=["no-marker", "marker"])
def test_stream_abandoned_after_one_event_has_closed_its_backend(marker, cause):
    backend = _ListBackend(["a ", "b ", "c ", "d"])

    def raw_stream(req, inner=backend.raw_stream):
        backend.raw = inner(req)  # a held reference: only an explicit close finishes the generator
        return backend.raw

    backend.raw_stream = raw_stream
    stream = stream_generate(backend, GenerationRequest("p", max_new_tokens=3, stop_on=marker))
    assert next(stream) == TokenEvent("a ", 0)
    assert backend.closed and backend.read == 3
    assert stream.cause == cause


# --- long drains ------------------------------------------------------------
# Thousands of tokens, so a drain reads the backend in several bounded passes:
# a marker split over 2-3 tokens that completes just before, at or just after
# the cap-th token, and tokens holding marker[0] without completing the
# marker where a pass ends (the cap-th token read) or where the backend runs
# dry. Checked against the oracles above on the drain and on the event path.

LONG_MARKER = "<|im_start|>answer"
LONG_FILLER = 2500


def filler(n: int, start: int = 0) -> list[str]:
    return [f"w{i} " for i in range(start, start + n)]


def split_marker_stream(pieces: int, end: int) -> list[str]:
    """Filler with the marker split over ``pieces`` tokens, the last of them
    token number ``end`` (1-based); the first carries text before the
    marker, the last text after it."""
    cuts = {2: ["x <|im_sta", "rt|>answer y "], 3: ["x <|im", "_start|>ans", "wer y "]}[pieces]
    return filler(end - pieces) + cuts + filler(50, end)


def held_at(positions: list[int], n: int) -> list[str]:
    """``n`` filler tokens, except that token number p (1-based) of
    ``positions`` ends in a prefix of the marker that the next token breaks."""
    tokens = filler(n)
    for p in positions:
        tokens[p - 1] = f"h{p} <|im_st"
    return tokens


def held_prefix_at(end: int, n: int) -> list[str]:
    """``n`` filler tokens, except that a prefix of the marker is split over
    tokens ``end - 2`` to ``end`` (1-based) and broken by the next token, so
    one push releases four texts."""
    tokens = filler(n)
    tokens[end - 3 : end + 1] = ["h <|im", "_sta", "rt|>", "nope "]
    return tokens


LONG_CAP = 2000
LONG_STREAMS = {
    **{
        f"split{pieces}-end{delta:+d}": (split_marker_stream(pieces, LONG_CAP + delta), LONG_CAP)
        for pieces in (2, 3)
        for delta in (-1, 0, 1)
    },
    # the first pass of a drain reads exactly cap tokens and ends on a held one
    "held-at-pass-end": (held_at([LONG_CAP], LONG_FILLER), LONG_CAP),
    "held-before-pass-end": (held_at([LONG_CAP - 1], LONG_FILLER), LONG_CAP),
    # the next pass reads 3 tokens, and the first of them releases 4 texts
    "held-prefix-at-pass-end": (held_prefix_at(LONG_CAP, LONG_FILLER), LONG_CAP),
    "held-throughout": (held_at(list(range(7, LONG_FILLER, 7)), LONG_FILLER), LONG_CAP),
    # every token goes through push and is held until the next one, across every pass end
    "held-every-token": (held_at(list(range(1, LONG_FILLER + 1)), LONG_FILLER), LONG_CAP),
    # the backend runs dry on a held token: the last pass reads nothing
    "held-at-dry-end": (held_at([LONG_CAP], LONG_CAP), LONG_CAP),
    "held-at-dry-end-under-cap": (held_at([LONG_CAP - 3], LONG_CAP - 3), LONG_CAP),
}


def long_drain_oracle(tokens: list[str], marker: str | None, cap: int) -> tuple[list[str], str, int]:
    kept = eager_stop_split(tokens, marker) if marker is not None else tokens
    if len(kept) >= cap:
        cause = CAUSE_CAP
    elif marker is not None and marker in "".join(tokens):
        cause = CAUSE_MARKER
    else:
        cause = CAUSE_BACKEND_STOP
    return kept[:cap], cause, reads_to_release(tokens, marker, cap)


@pytest.mark.parametrize("marker", [LONG_MARKER, None], ids=["marker", "no-marker"])
@pytest.mark.parametrize("name", list(LONG_STREAMS))
def test_long_drain_matches_oracle(name, marker):
    tokens, cap = LONG_STREAMS[name]
    texts, cause, read = long_drain_oracle(tokens, marker, cap)
    req = GenerationRequest("p", max_new_tokens=cap, stop_on=marker)

    backend = _ListBackend(tokens)
    stream = stream_generate(backend, req)
    assert collect(stream) == (texts, cause)
    assert stream.cause == cause
    assert backend.read == read

    backend = _ListBackend(tokens)
    events = list(stream_generate(backend, req))
    assert [e.text for e in events] == texts
    assert [e.cause for e in events] == [None] * (len(texts) - 1) + [cause]
    assert backend.read == read


def test_stream_is_its_own_iterator_of_immutable_tuple_events():
    stream = stream_generate(single_entry_model("a b"), GenerationRequest("p", max_new_tokens=5))
    assert iter(stream) is stream
    events = list(stream)
    assert events == [TokenEvent("a ", 0), TokenEvent("b", 1, CAUSE_BACKEND_STOP)]
    assert events[0] == ("a ", 0, None) and events[0] != TokenEvent("a ", 1)
    assert TokenEvent("x", 3).cause is None
    assert events[1]._replace(cause=None) == TokenEvent("b", 1)
    with pytest.raises(AttributeError):
        events[0].text = "c"


# ``space`` follows every one of ``tokens`` but the last, as the scripted
# mock sends its units (" "), or is absent, as wire deltas come ("")
@pytest.mark.parametrize(
    "tokens, space, stop_on, cap, texts, cause",
    [
        (["a", "b", "c", "d"], " ", None, 2, ["a ", "b "], CAUSE_CAP),
        (["a", "b", "c"], " ", None, 3, ["a ", "b ", "c"], CAUSE_CAP),  # exactly the cap
        (["a", "b", "END", "c"], " ", "END", 9, ["a ", "b "], CAUSE_MARKER),
        (["a", "E", "ND"], "", "END", 9, ["a"], CAUSE_MARKER),  # the marker's start was withheld
        (["a", "b"], " ", "END", 9, ["a ", "b"], CAUSE_BACKEND_STOP),
        (["a", "E"], "", "END", 9, ["a", "E"], CAUSE_BACKEND_STOP),  # flushed at the end
        ([], " ", None, 3, [], CAUSE_BACKEND_STOP),
    ],
)
def test_final_event_carries_the_cause(tokens, space, stop_on, cap, texts, cause):
    sent = [token + space for token in tokens[:-1]] + tokens[-1:]
    stream = stream_generate(_ListBackend(sent), GenerationRequest("p", max_new_tokens=cap, stop_on=stop_on))
    events = list(stream)
    assert [e.text for e in events] == texts
    assert [e.cause for e in events] == [None] * (len(texts) - 1) + [cause] * bool(texts)
    assert stream.cause == cause


def test_scanner_truncates_straddling_token():
    # wire-style deltas: marker split across them
    got, found = run_scanner(["ab", "cMARK", "ER tail"], "MARKER")
    assert found
    assert got == ["ab", "c"]


def test_scanner_withholds_possible_marker_prefix():
    # "Z" could still grow into the marker, so the cap-th text is released
    # only once "done" has been read
    backend = _ListBackend(["plain", "Z", "done"])
    stream = stream_generate(backend, GenerationRequest("p", max_new_tokens=2, stop_on="ZZZ"))
    assert collect(stream) == (["plain", "Z"], CAUSE_CAP)
    assert backend.read == 3


def test_scanner_trailing_space_interrupts_prefix():
    # a mock token's trailing space keeps "Z " from starting "ZZZ" across
    # tokens, so it is released as soon as it is read
    backend = _ListBackend(["plain ", "Z ", "x"])
    stream = stream_generate(backend, GenerationRequest("p", max_new_tokens=2, stop_on="ZZZ"))
    assert collect(stream) == (["plain ", "Z "], CAUSE_CAP)
    assert backend.read == 2


def test_scanner_marker_starting_inside_trailing_space():
    # the marker begins with the space that ends the token before it
    got, found = run_scanner(["a ", "x ", "rest"], " x")
    assert found
    assert got == ["a"]


# --- wire backend against a local SSE server ------------------------------


# characters that str.splitlines, but not SSE, takes for a line end
LINE_SEPARATORS = {"u2028": "\u2028", "u2029": "\u2029", "u0085": "\u0085"}


def test_wire_protocol_fields_and_auth(sse_server, monkeypatch):
    monkeypatch.setenv("M1_API_KEY", "sekret")
    backend = WireBackend(base_url=sse_server, model="test-model", temperature=0.5, seed=7)
    req = GenerationRequest("hello prompt", max_new_tokens=16)
    texts, cause = collect(stream_generate(backend, req))
    assert texts == ["Hello", " world", "!"]
    assert cause == CAUSE_BACKEND_STOP
    body = _SSEHandler.requests_seen[-1]
    assert body["model"] == "test-model"
    assert body["messages"] == [{"role": "user", "content": "hello prompt"}]
    assert body["temperature"] == 0.5
    assert body["seed"] == 7
    assert body["max_tokens"] == 16
    assert body["stream"] is True
    auth = _SSEHandler.headers_seen[-1].get("Authorization")
    assert auth == "Bearer sekret"


def test_wire_joined_text_has_no_inserted_spaces(sse_server):
    backend = WireBackend(base_url=sse_server, model="m")
    assert probe_answer(backend, "p") == "Hello world!"


def test_wire_stop_marker_client_side(sse_server):
    backend = WireBackend(base_url=sse_server, model="m")
    req = GenerationRequest("p", max_new_tokens=16, stop_on="wor")
    texts, cause = collect(stream_generate(backend, req))
    assert texts == ["Hello", " "]
    assert cause == CAUSE_MARKER


@pytest.mark.parametrize(
    "req, cause, consume",
    [
        (GenerationRequest("p", max_new_tokens=16, stop_on="wor"), CAUSE_MARKER, collect),
        (GenerationRequest("p", max_new_tokens=1), CAUSE_CAP, collect),
        # one event taken, and the stream abandoned
        (GenerationRequest("p", max_new_tokens=16, stop_on="wor"), CAUSE_MARKER, next),
        (GenerationRequest("p", max_new_tokens=1), CAUSE_CAP, next),
    ],
    ids=["marker", "cap", "next-marker", "next-cap"],
)
def test_wire_consumer_that_stops_early_closes_the_response(sse_server, monkeypatch, req, cause, consume):
    opened = []
    urlopen = urllib.request.urlopen

    def recording_urlopen(*args, **kwargs):
        opened.append(urlopen(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
    backend = WireBackend(base_url=sse_server, model="m")
    stream = stream_generate(backend, req)
    consume(stream)
    assert stream.cause == cause
    assert len(opened) == 1 and opened[0].isclosed()


def test_wire_decodes_sse_as_utf8(sse_server):
    _SSEHandler.mode = "utf8"
    backend = WireBackend(base_url=sse_server, model="m")
    texts, cause = collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=16)))
    assert texts == UTF8_CHUNKS
    assert cause == CAUSE_BACKEND_STOP


@pytest.mark.parametrize("sep", list(LINE_SEPARATORS.values()), ids=list(LINE_SEPARATORS))
def test_wire_splits_sse_lines_on_newline_only(sse_server, sep):
    _SSEHandler.deltas = [f"one{sep}two", sep, f"end{sep}"]
    backend = WireBackend(base_url=sse_server, model="m")
    texts, cause = collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=16)))
    assert texts == _SSEHandler.deltas
    assert cause == CAUSE_BACKEND_STOP


@pytest.mark.parametrize(
    "status, retryable",
    [(500, True), (503, True), (429, True), (400, False), (202, False)],
)
def test_wire_status_error_is_classified_by_status(sse_server, status, retryable):
    _SSEHandler.mode = "status"
    _SSEHandler.status = status
    backend = WireBackend(base_url=sse_server, model="m")
    with pytest.raises(BackendStatusError) as excinfo:
        collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=4)))
    assert excinfo.value.status == status
    assert excinfo.value.retryable is retryable
    assert STATUS_BODY in str(excinfo.value)


@pytest.mark.parametrize("status", [500, 202])
def test_wire_status_error_reads_no_more_of_the_body_than_it_shows(sse_server, monkeypatch, status):
    # a large error page of 3-byte characters: the message shows 200 of
    # them, and 800 bytes hold any 200 characters of UTF-8
    _SSEHandler.mode, _SSEHandler.status, _SSEHandler.raw = "raw", status, "\u20ac".encode() * 5000
    sizes = []
    read = http.client.HTTPResponse.read

    def spy(self, amt=None):
        sizes.append(amt)
        return read(self, amt)

    monkeypatch.setattr(http.client.HTTPResponse, "read", spy)
    backend = WireBackend(base_url=sse_server, model="m")
    with pytest.raises(BackendStatusError) as excinfo:
        collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=4)))
    assert sizes == [800]
    assert str(excinfo.value) == f"backend returned status {status}: " + "\u20ac" * 200


def test_wire_truncated_stream_surfaces_distinct_error(sse_server):
    _SSEHandler.mode = "truncate"
    backend = WireBackend(base_url=sse_server, model="m")
    with pytest.raises(TruncatedStreamError):
        collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=16)))


def test_wire_malformed_chunk_is_a_truncated_stream(sse_server):
    _SSEHandler.mode = "raw"
    _SSEHandler.raw = b'data: {"choices": [{"delta": {"content": "Hi"}}]}\n\ndata: {"choi\n\ndata: [DONE]\n\n'
    backend = WireBackend(base_url=sse_server, model="m")
    with pytest.raises(TruncatedStreamError, match="malformed stream chunk") as excinfo:
        collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=16)))
    assert excinfo.value.retryable


NON_OBJECT_CHUNKS = {
    "list": b"[1]",
    "choice-not-object": b'{"choices": [1]}',
    "delta-not-object": b'{"choices": [{"delta": "x"}]}',
    "choices-object": b'{"choices": {"0": {}}}',
    "content-not-text": b'{"choices": [{"delta": {"content": 5}}]}',
    # past the recursion limit the decoder raises RecursionError
    "nested-too-deeply": b"[" * 100_000 + b"]" * 100_000,
    # text that is not UTF-8, and an escape that decodes to a lone surrogate
    "not-utf8": b'{"choices": [{"delta": {"content": "a\xffb"}}]}',
    "lone-surrogate": b'{"choices": [{"delta": {"content": "a\\ud800b"}}]}',
}


@pytest.mark.parametrize("chunk", list(NON_OBJECT_CHUNKS.values()), ids=list(NON_OBJECT_CHUNKS))
def test_wire_non_object_chunk_is_a_retried_truncated_stream(sse_server, monkeypatch, chunk):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    _SSEHandler.mode = "raw"
    _SSEHandler.raw = b"data: " + chunk + b"\n\ndata: [DONE]\n\n"
    backend = WireBackend(base_url=sse_server, model="m")
    with pytest.raises(TruncatedStreamError, match="malformed stream chunk") as excinfo:
        collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=16)))
    assert excinfo.value.retryable
    # under with_retries every attempt is sent, then the error surfaces
    with pytest.raises(TruncatedStreamError):
        with_retries(partial(probe_answer, backend, "p"))
    assert len(_SSEHandler.requests_seen) == 1 + 1 + client.RETRIES


def test_wire_chunk_without_choices_is_skipped(sse_server):
    _SSEHandler.mode = "raw"
    _SSEHandler.raw = (
        b'data: {"choices": []}\n\n'
        b'data: {"choices": [{"delta": {"content": "Hi"}}]}\n\n'
        b'data: {"usage": {"total_tokens": 3}}\n\n'
        # an escaped surrogate pair reads as the one character it encodes
        b'data: {"choices": [{"delta": {"content": " \\ud83d\\ude00"}}]}\n\n'
        b"data: [DONE]\n\n"
    )
    backend = WireBackend(base_url=sse_server, model="m")
    assert collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=16))) == (["Hi", " \U0001f600"], CAUSE_BACKEND_STOP)


def test_wire_connection_failure():
    backend = WireBackend(base_url="http://127.0.0.1:9", model="m", timeout=0.5)
    with pytest.raises(ConnectionFailure):
        collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=4)))


def test_wire_chunk_cut_mid_stream_is_retryable_connection_failure(sse_server):
    _SSEHandler.mode = "cut-chunk"
    backend = WireBackend(base_url=sse_server, model="m")
    with pytest.raises(ConnectionFailure) as excinfo:
        collect(stream_generate(backend, GenerationRequest("p", max_new_tokens=16)))
    assert excinfo.value.retryable
