from __future__ import annotations

import json
import os
import random
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import strategies as st

from thinkctl.budget import ANSWER_MARKER
from thinkctl.client import ScriptEntry, ScriptedModel
from thinkctl.jsonl import read_json, write_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_fixture(name: str):
    with open(fixture_path(name), encoding="utf-8") as fh:
        if name.endswith(".jsonl"):
            return [json.loads(line) for line in fh if line.strip()]
        return json.load(fh)


# text UTF-8 can encode: no lone surrogate
json_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | json_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_text, inner, max_size=3),
    max_leaves=8,
)


def assert_json_round_trip(value, to_document, from_document, provenance) -> None:
    """``to_document(value)``, written by ``write_json`` beside a
    ``_provenance`` key, reads back through ``read_json`` and
    ``from_document`` as a value equal to ``value``, which writes the same
    bytes again."""
    with tempfile.TemporaryDirectory() as directory:
        first, second = os.path.join(directory, "first.json"), os.path.join(directory, "second.json")
        write_json(first, {**to_document(value), "_provenance": provenance})
        back = read_json(first, from_document)
        assert back == value
        write_json(second, {**to_document(back), "_provenance": provenance})
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


@pytest.fixture
def questions_abcd():
    from thinkctl import McqQuestion

    def make(qid: str, gold: str = "B", source: str = "src", stem: str | None = None):
        return McqQuestion(
            id=qid,
            stem=stem or f"Question text for {qid}?",
            options={"A": "one", "B": "two", "C": "three", "D": "four"},
            gold=gold,
            source=source,
        )

    return make


def random_scripted_model(rng: random.Random) -> tuple[ScriptedModel, int]:
    """A model with up to 3 forcing reactions; returns (model, rounds)."""
    rounds = rng.randint(0, 3)
    entries: list[ScriptEntry] = []

    def emission(round_index: int) -> str:
        if rng.random() < 0.04:
            length = rng.randint(2049, 2200)  # exceeds the per-forcing cap
        else:
            length = rng.randint(0, 90)
        words = [f"r{round_index}w{i}" for i in range(length)]
        if words and rng.random() < 0.15:
            words.insert(rng.randrange(len(words)), ANSWER_MARKER)  # embedded marker
        words.append(f"r{round_index}end")
        return " ".join(words)

    for i in range(rounds, 0, -1):
        marker = ANSWER_MARKER if rng.random() < 0.9 else None
        entries.append(ScriptEntry(f"r{i - 1}endWait.", emission(i), marker))
    if rng.random() < 0.9:
        entries.append(ScriptEntry("Final Answer:", "\\boxed{B}", None))
    entries.append(
        ScriptEntry("think", emission(0), ANSWER_MARKER if rng.random() < 0.95 else None)
    )
    return ScriptedModel(tuple(entries)), rounds


# --- a loopback SSE server, for the wire backend and the CLI against it ------

UTF8_CHUNKS = ["5 µg", " at 37 °C", " then 39°C"]
STATUS_BODY = "server exploded"
OK_DELTAS = ["Hello", " world", "!"]


class _SSEHandler(BaseHTTPRequestHandler):
    requests_seen: list[dict] = []
    headers_seen: list[dict] = []
    mode = "ok"
    status = 200  # modes "status" and "raw": the status sent with the body
    deltas = OK_DELTAS  # modes "ok" and "truncate": the deltas sent
    raw = b""  # mode "raw": the whole response body
    scripts: dict[str, ScriptedModel] = {}  # mode "script": the model served per request ``model``
    faults: list[str] = []  # mode "script": "503" or "cut", each served once, in order, in place of a reply

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        type(self).headers_seen.append(dict(self.headers))
        if self.path != "/v1/chat/completions":
            self.send_response(404)
            self.end_headers()
            return
        if type(self).mode == "status":
            self.send_response(type(self).status)
            self.end_headers()
            self.wfile.write(STATUS_BODY.encode())
            return
        if type(self).mode == "utf8":
            self._send_utf8_chunked()
            return
        if type(self).mode == "cut-chunk":
            self._send_cut_chunk()
            return
        if type(self).mode == "script":
            self._send_script(body)
            return
        if type(self).mode == "raw":
            self.send_response(type(self).status)
            self.send_header("Content-Type", "text/event-stream")
            self.end_headers()
            self.wfile.write(type(self).raw)
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.end_headers()
        for chunk in type(self).deltas:
            payload = {"choices": [{"delta": {"content": chunk}, "finish_reason": None}]}
            # raw, as ``json.dumps(..., ensure_ascii=False)`` servers send them
            self.wfile.write(f"data: {json.dumps(payload, ensure_ascii=False)}\n\n".encode())
        if type(self).mode == "ok":
            done = {"choices": [{"delta": {}, "finish_reason": "stop"}]}
            self.wfile.write(f"data: {json.dumps(done)}\n\n".encode())
            self.wfile.write(b"data: [DONE]\n\n")
        # mode == "truncate": close without the sentinel

    def _send_script(self, body: dict):
        # the scripted model named by the request, matched on the last
        # message: one event per token up to max_tokens, then the finish
        # reason and the sentinel
        # reason and the sentinel. A "cut" fault sends half the tokens the
        # client would read and closes the stream
        entry = type(self).scripts[body["model"]].match(body["messages"][-1]["content"])
        tokens = entry.tokens if entry is not None else ()
        cap = body["max_tokens"]
        fault = type(self).faults.pop(0) if type(self).faults else None
        if fault == "503":
            self.send_response(503)
            self.end_headers()
            self.wfile.write(STATUS_BODY.encode())
            return
        events = [{"choices": [{"delta": {"content": token}, "finish_reason": None}]} for token in tokens[:cap]]
        events.append({"choices": [{"delta": {}, "finish_reason": "length" if len(tokens) > cap else "stop"}]})
        if fault == "cut":
            del events[min(len(tokens), cap) // 2 :]
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.end_headers()
        data = "".join(f"data: {json.dumps(event, ensure_ascii=False)}\n\n" for event in events)
        try:
            self.wfile.write(data.encode() + (b"" if fault else b"data: [DONE]\n\n"))
        except (BrokenPipeError, ConnectionResetError):
            pass  # a client that stopped at a marker or its cap closes early

    def _send_utf8_chunked(self):
        # raw UTF-8 with no charset in the header, in two HTTP chunks that
        # split the last "°" between them
        lines = [json.dumps({"choices": [{"delta": {"content": c}}]}, ensure_ascii=False) for c in UTF8_CHUNKS]
        data = "".join(f"data: {line}\n\n" for line in lines).encode() + b"data: [DONE]\n\n"
        cut = data.rindex("°".encode()) + 1
        self.protocol_version = "HTTP/1.1"
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        for part in (data[:cut], data[cut:], b""):
            self.wfile.write(b"%x\r\n%s\r\n" % (len(part), part))
        self.close_connection = True

    def _send_cut_chunk(self):
        # one whole event, then a chunk that announces more bytes than it
        # holds before the connection closes
        event = b'data: {"choices": [{"delta": {"content": "Hello"}}]}\n\n'
        self.protocol_version = "HTTP/1.1"
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b"%x\r\n%s\r\n" % (len(event), event))
        self.wfile.write(b"%x\r\n%s" % (len(event), event[:10]))
        self.close_connection = True

    def log_message(self, *args):
        pass


class _SSEServer(HTTPServer):
    # more than the client's 8 default workers: a connect past a full
    # backlog is dropped, and TCP retries it only a second later
    request_queue_size = 64


@pytest.fixture
def sse_server():
    _SSEHandler.requests_seen = []
    _SSEHandler.headers_seen = []
    _SSEHandler.mode = "ok"
    _SSEHandler.status = 200
    _SSEHandler.deltas = OK_DELTAS
    _SSEHandler.scripts = {}
    _SSEHandler.faults = []
    server = _SSEServer(("127.0.0.1", 0), _SSEHandler)
    # a short poll interval, so shutdown() in teardown returns at once
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
