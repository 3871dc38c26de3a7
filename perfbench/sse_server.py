"""Loopback chat-completions server that streams the synthetic model.

Serves ``POST /v1/chat/completions`` as server-sent events over HTTP/1.1
chunked responses. Each request waits a prefill delay proportional to its
prompt length, then writes token i at ``arrival + prefill + i * decode``
(absolute deadlines, so sleep overshoot does not accumulate). Like a real
model it writes past the end-of-think marker until ``max_tokens``, a
``stop`` string it was sent, or a client disconnect. Events carry raw
UTF-8 under ``Content-Type: text/event-stream`` with no charset, as common
servers do.

Injected failures: the first request of each cycle matching a seed-chosen
key gets a 503; another gets its stream ended early without ``[DONE]``.
Both succeed when the client retries.

Control endpoints (not counted): ``GET /control/stats``,
``POST /control/reset``, ``POST /control/shutdown``.

Started by ``run.py`` as ``sse_server.py --seed N``: it serves the sweep
questions ``gen.py`` makes from that seed, prints ``PORT <n>`` once it
listens on 127.0.0.1 and exits when its stdin closes or on
``/control/shutdown``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import gen
import synth

CHAT_PATH = "/v1/chat/completions"
# Decode is several times the client's own per-token CPU on the wire (about
# 30 us), so a sweep over this server is backend-bound.
PREFILL_US_PER_CHAR = 0.5
DECODE_US_PER_TOKEN = 100.0


def failure_keys(questions: list[synth.QuestionSpec], seed: int):
    """Seed-chosen injected failures, as request keys.

    A key is (question id, forced segments already in the context,
    max_tokens or None for any). The seed assigns the two failures to the
    two shortest thoughts: the 503 hits one's initial thinking call at the
    smallest budget, the cut hits the other's first forced continuation
    halfway through. Those questions run last, so the retries cost every
    seed the same work and wall time.
    """
    rng = random.Random(f"failures-{seed}")
    status_q, cut_q = rng.sample(sorted(questions, key=lambda q: q.natural)[:2], 2)
    return {
        "status": (status_q.qid, 0, min(gen.BUDGET_GRID)),
        "cut": (cut_q.qid, 1, None),
        "cut_after": cut_q.continuation(1) // 2,
    }


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, model, counters, keys):
        super().__init__(address, _Handler)
        self.model = model
        self.counters = counters
        self.keys = keys
        self.injected: set[str] = set()
        self.injected_lock = threading.Lock()

    def handle_error(self, request, client_address):
        # clients close or reset a connection once they have their reply
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def get_request(self):
        sock, addr = super().get_request()
        return sock, (addr, time.perf_counter())

    def take_injection(self, kind: str, key) -> bool:
        qid, forced, max_tokens = self.keys[kind]
        if key[0] != qid or key[1] != forced or (max_tokens is not None and key[2] != max_tokens):
            return False
        with self.injected_lock:
            if kind in self.injected:
                return False
            self.injected.add(kind)
            return True


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _Server

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        # the first request on a connection has waited since the accept
        self.received_at = self.client_address[1]

    def parse_request(self):
        # a later request on a kept-alive connection arrives with its
        # request line, which has just been read
        if self.received_at is None:
            self.received_at = time.perf_counter()
        return super().parse_request()

    def handle_one_request(self):
        super().handle_one_request()
        self.received_at = None

    def do_GET(self):
        if self.path == "/control/stats":
            self._json(200, self.server.counters.snapshot())
        else:
            self._json(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if self.path == CHAT_PATH:
            self._generate(json.loads(body))
        elif self.path == "/control/reset":
            self.server.counters.reset()
            with self.server.injected_lock:
                self.server.injected.clear()
            self._json(200, {})
        elif self.path == "/control/shutdown":
            self._json(200, {})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._json(404, {"error": "not found"})

    def _json(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _chunk(self, data: bytes) -> None:
        self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))

    def _generate(self, body: dict) -> None:
        srv = self.server
        arrival = time.perf_counter()
        counters = srv.counters
        if not getattr(self, "_counted", False):
            self._counted = True
            counters.add(connections=1)
        counters.add_queue(1000.0 * (arrival - self.received_at))

        context = body["messages"][-1]["content"]
        max_tokens = int(body["max_tokens"])
        stop = body.get("stop") or []
        if isinstance(stop, str):
            stop = [stop]
        reply = srv.model.reply(context)
        think = context[context.find(synth.THINK_MARKER) :]
        in_answer = synth.END_MARKER in think
        key = (srv.model.question(context).qid, think.count(synth.FORCING_TEXT), max_tokens)
        counters.add(requests=1, prompt_chars=len(context), echo_mismatch=int(not reply.echo_ok))

        if not in_answer and srv.take_injection("status", key):
            counters.add(injected_503=1)
            data = b"overloaded"
            self.send_response(503)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(data)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)
            self.close_connection = True
            return
        cut_after = None
        if not in_answer and srv.take_injection("cut", key):
            counters.add(injected_cut=1)
            cut_after = srv.keys["cut_after"]

        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        start = arrival + PREFILL_US_PER_CHAR * 1e-6 * len(context)
        decode = DECODE_US_PER_TOKEN * 1e-6
        stop_point = reply.stop_point(max_tokens)
        written = 0
        stopped = 0  # 1 once a stop string ends the reply; that token is generated, not sent
        finish = "length"
        text = ""
        tokens = reply.tokens(max_tokens)
        try:
            pending = []
            exhausted = False
            while not exhausted:
                now = time.perf_counter()
                due = int((now - start) / decode) if now >= start else 0
                while written + len(pending) < due:
                    token = next(tokens, None)
                    if token is None:
                        exhausted = True
                        if len(pending) + written < max_tokens:
                            finish = "stop"
                        break
                    if stop:
                        text = (text + token)[-256:]
                        if any(s in text for s in stop):
                            exhausted = True
                            stopped = 1
                            finish = "stop"
                            break
                    pending.append(token)
                    if cut_after is not None and written + len(pending) >= cut_after:
                        exhausted = True
                        break
                if pending:
                    self._chunk(b"".join(_event(t) for t in pending))
                    written += len(pending)
                    pending = []
                if not exhausted:
                    nxt = start + (written + 1) * decode
                    delay = nxt - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
            if cut_after is None:
                self._chunk(_finish_event(finish) + b"data: [DONE]\n\n")
            self.wfile.write(b"0\r\n\r\n")
            if cut_after is not None:
                self.close_connection = True
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        if cut_after is not None:
            counters.add(generated=written, written=written)
        else:
            generated = min(written + stopped, stop_point)
            counters.add(generated=generated, written=written, wasted=max(0, written - stop_point))


_EVENT_CACHE: dict[str, bytes] = {}


def _event(token: str) -> bytes:
    data = _EVENT_CACHE.get(token)
    if data is None:
        chunk = {"choices": [{"index": 0, "delta": {"content": token}, "finish_reason": None}]}
        data = ("data: " + json.dumps(chunk, ensure_ascii=False) + "\n\n").encode("utf-8")
        _EVENT_CACHE[token] = data
    return data


def _finish_event(reason: str) -> bytes:
    chunk = {"choices": [{"index": 0, "delta": {}, "finish_reason": reason}]}
    return ("data: " + json.dumps(chunk) + "\n\n").encode("utf-8")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    questions = synth.make_questions(args.seed, gen.SWEEP_QUESTIONS, gen.MAX_FORCINGS)
    model = synth.SyntheticModel(questions, gen.MAX_FORCINGS)
    server = _Server(("127.0.0.1", 0), model, synth.Counters(), failure_keys(questions, args.seed))
    # stdin is a pipe from the harness: its end means the harness is gone
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
