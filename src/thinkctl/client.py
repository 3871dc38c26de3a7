"""Streaming token interface over a chat-completions wire backend and a
deterministic scripted mock.

A "token" here is one text as the backend delimits its stream; no
independent tokenization is performed. Every backend's tokens concatenate
directly to the text it generated: wire deltas do, and the scripted mock
yields each whitespace unit of an emission with the single space that
follows it. Text is never joined with a separator, so a context is glued
from its parts exactly as it is sent to a wire backend.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar
from urllib.parse import urlsplit

from . import _ValueType

DEFAULT_TEMPERATURE = 0.0
DEFAULT_SEED = 42

# hard output ceiling for reasoning-trace generation
TRACE_TOKEN_LIMIT = 8192

# terminating causes for a token stream; exhaustive and mutually exclusive
CAUSE_MARKER = "marker"
CAUSE_CAP = "cap"
CAUSE_BACKEND_STOP = "backend-stop"

API_KEY_ENV = "M1_API_KEY"
CHAT_COMPLETIONS_PATH = "/v1/chat/completions"


class BackendError(Exception):
    """Base class for backend failures. ``retryable`` drives retry policy."""

    retryable = False


class ConnectionFailure(BackendError):
    retryable = True


class BackendStatusError(BackendError):
    """Non-success HTTP status from the wire backend."""

    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"backend returned status {status}: {detail}".rstrip(": "))
        self.status = status
        self.retryable = status >= 500 or status == 429


class TruncatedStreamError(BackendError):
    """The stream ended without the completion sentinel."""

    retryable = True


class GenerationRequest(_ValueType):
    """One generation call.

    ``stop_on`` is a marker string watched for client-side; it is never
    delivered in the emitted tokens. Sampling settings belong to the
    backend, which holds them fixed for every call. Compared by value.
    """

    __slots__ = ("prompt", "max_new_tokens", "stop_on")

    def __init__(self, prompt: str, max_new_tokens: int, stop_on: str | None = None) -> None:
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        self.prompt = prompt
        self.max_new_tokens = max_new_tokens
        self.stop_on = stop_on


class TokenStream:
    """Single-consumer iterator of the texts a backend released.

    ``cause`` is ``None`` until the stream has been read and one of
    ``CAUSE_*`` after. The backend is read once, by ``_read``: ``collect``
    calls it on an unread stream, and the first ``next()`` calls it and
    then yields its texts one by one. Either way the whole stream is read
    and the backend's stream closed at once, so a consumer that stops
    after one text leaves no response open.

    The read releases at most ``req.max_new_tokens`` texts, none of them
    holding ``req.stop_on``. Backends may split the marker across tokens,
    so it is searched in the joined text of the held tokens: those that
    may still overlap an occurrence. Everything before the first held
    token has been searched, so no occurrence starts there. A token that
    completes the marker releases the held texts before it, cutting a
    straddling one at the marker, and ends the read; any other token
    releases every held text that ends at or before the earliest offset
    whose suffix is a start of the marker. While nothing is held, a token
    without the marker's first character can start no occurrence and is
    released as it comes. The backend running dry releases what is held.

    Each pass reads at most as many tokens as there are texts left to
    release. A token releases at most one text of its own, so only a token
    that is held, which may also release earlier ones, re-checks the cap.
    A pass that reads nothing means the backend ran dry. So no token is
    read past the one that releases the cap-th text or completes the
    marker.
    """

    def __init__(self, backend, req: GenerationRequest):
        self._backend = backend
        self._req = req
        self._texts: Iterator[str] | None = None  # set once the stream is read
        self.cause: str | None = None

    def __iter__(self) -> "TokenStream":
        return self

    def __next__(self) -> str:
        if self._texts is None:
            self._texts = iter(self._read())
        return next(self._texts)

    def _read(self) -> list[str]:
        """Read the backend by the rule above, close its stream, set
        ``cause`` and return the released texts."""
        self._texts = iter(())  # a stream is read once
        req = self._req
        cap, marker = req.max_new_tokens, req.stop_on
        texts: list[str] = []
        end = None
        raw = self._backend.raw_stream(req)
        try:
            if not marker:
                texts.extend(islice(raw, cap))
                end = CAUSE_BACKEND_STOP
            else:
                watch, append = marker[0], texts.append
                held: list[str] = []
                text = ""  # "".join(held)
                while end is None and len(texts) < cap:
                    token = None
                    for token in islice(raw, cap - len(texts)):
                        if not held and watch not in token:
                            append(token)
                            continue
                        held.append(token)
                        text += token
                        cut = text.find(marker)
                        if cut == -1:
                            # a later occurrence ends beyond the text, so the
                            # part of it already here is a start of the marker
                            cut = text.find(watch, max(0, len(text) - len(marker) + 1))
                            while cut != -1 and not marker.startswith(text[cut:]):
                                cut = text.find(watch, cut + 1)
                            if cut == -1:
                                cut = len(text)
                        else:
                            end = CAUSE_MARKER
                        n, rest = 0, cut  # the texts that end at or before cut, and what is left of it
                        for tok in held:
                            if len(tok) > rest:
                                break
                            rest -= len(tok)
                            n += 1
                        texts.extend(held[:n])
                        if end is not None:
                            if rest:
                                append(held[n][:rest])
                            break
                        del held[:n]
                        text = text[cut - rest :]
                        if len(texts) >= cap:
                            break
                    if token is None:
                        texts.extend(held)
                        end = CAUSE_BACKEND_STOP
        finally:
            close = getattr(raw, "close", None)  # a generator's; a plain iterator has none
            if close is not None:
                close()
        if len(texts) >= cap:
            del texts[cap:]
            end = CAUSE_CAP
        self.cause = end
        return texts


def stream_generate(backend, req: GenerationRequest) -> TokenStream:
    """Stream tokens from ``backend`` until it stops, ``req.stop_on`` is
    emitted, or ``req.max_new_tokens`` texts have been released."""
    return TokenStream(backend, req)


def collect(stream: Iterable[str]) -> tuple[list[str], str]:
    """Drain a stream; returns (token texts, terminating cause).

    An unread ``TokenStream`` is read once, with no iterator over its
    texts. Any other iterable of texts with a ``cause`` once drained, such
    as a wrapper around a stream or a stream with texts taken, is iterated."""
    if isinstance(stream, TokenStream) and stream._texts is None:
        return stream._read(), stream.cause
    texts = list(stream)
    assert stream.cause is not None
    return texts, stream.cause


class ScriptEntry(_ValueType):
    """One scripted reaction.

    ``trigger`` is a suffix pattern on the current prompt/context; the empty
    string matches any context. Contexts are glued with no separator, so a
    trigger spells none either: ``"Wait."`` matches a forcing, and
    ``"end<|im_start|>answerFinal Answer:"`` an answer cue after a thought
    that ended at ``end``. ``emission`` is whitespace-tokenized: each unit
    is one token carrying the single space that follows it (the last unit
    carries none). An optional ``terminal_marker`` is emitted bare as a
    final token after the emission (a watched ``stop_on`` marker turns it
    into a ``marker`` stop; otherwise it is ordinary text). ``tokens`` is
    that stream, split once when the entry is built; it is left out of
    ``==``, which compares the other three fields.
    """

    __slots__ = ("trigger", "emission", "terminal_marker", "tokens")
    _fields = ("trigger", "emission", "terminal_marker")

    def __init__(self, trigger: str, emission: str, terminal_marker: str | None = None) -> None:
        if not isinstance(trigger, str) or not isinstance(emission, str):
            raise TypeError("script entry trigger and emission must be strings")
        if terminal_marker is not None and not isinstance(terminal_marker, str):
            raise TypeError("script entry terminal_marker must be a string or null")
        self.trigger = trigger
        self.emission = emission
        self.terminal_marker = terminal_marker
        units = emission.split()
        tokens = [unit + " " for unit in units[:-1]] + units[-1:]
        if terminal_marker is not None:
            tokens.append(terminal_marker)
        self.tokens = tuple(tokens)


class ScriptedModel:
    """Deterministic scripted backend used by tests and offline runs.

    The first entry whose trigger matches the context wins; replaying the
    same context yields the identical emission. Never changed after
    construction, so safe for concurrent use.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[ScriptEntry, ...]) -> None:
        if not entries:
            raise ValueError("script must contain at least one entry")
        self.entries = entries

    def match(self, context: str) -> ScriptEntry | None:
        for entry in self.entries:
            if context.endswith(entry.trigger):
                return entry
        return None

    def raw_stream(self, req: GenerationRequest) -> Iterator[str]:
        entry = self.match(req.prompt)
        if entry is not None:
            yield from entry.tokens

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptedModel":
        from .jsonl import json_shape

        entries = json_shape("top level", data, dict, ["entries"])["entries"]
        # every key of an entry is optional, so a misspelt one would leave it empty
        items = json_shape("entries", entries, list, optional=ScriptEntry._fields)
        return cls(tuple(ScriptEntry(**{"trigger": "", "emission": "", **item}) for item in items))

    @classmethod
    def from_file(cls, path: str) -> "ScriptedModel":
        from .jsonl import read_json  # here, so that importing the client imports no file reader

        return read_json(path, cls.from_dict)


class WireBackend:
    """Chat-completions backend speaking server-sent events.

    POSTs to ``base_url + /v1/chat/completions`` with body fields ``model``,
    ``messages``, ``temperature``, ``seed``, ``max_tokens`` and
    ``stream: true``; reads one ``data: <json>`` line per chunk until
    ``data: [DONE]``. The bearer token comes from ``api_key`` or the
    ``M1_API_KEY`` environment variable. Sampling is greedy with a fixed
    seed unless ``temperature`` and ``seed`` say otherwise; every request
    sends the same two. ``timeout`` bounds, in seconds, the connect and
    each read.

    Built on ``urllib.request``: each call opens one connection and closes
    it when the stream ends or its consumer stops early. Proxies come from
    ``http_proxy``/``https_proxy``/``no_proxy``; TLS is verified against
    the system store (``SSL_CERT_FILE``/``SSL_CERT_DIR``). Handles are
    shareable across workers; each stream is owned by one consumer.
    """

    __slots__ = ("base_url", "model", "temperature", "seed", "api_key", "timeout")

    def __init__(
        self,
        base_url: str,
        model: str,
        temperature: float = DEFAULT_TEMPERATURE,
        seed: int = DEFAULT_SEED,
        api_key: str | None = None,
        timeout: float = 120.0,
    ) -> None:
        url = urlsplit(base_url)
        try:
            port_ok = url.port != 0  # raises ValueError unless a number in 0-65535
        except ValueError:
            port_ok = False
        if url.scheme not in ("http", "https") or not url.hostname or not port_ok:
            raise ValueError(f"base_url must be an http(s):// URL with a host and a valid port, not {base_url!r}")
        if not 0 <= temperature < math.inf:  # json.dumps would send NaN or Infinity, not JSON
            raise ValueError(f"temperature must be a finite number >= 0, not {temperature}")
        if not 0 < timeout < math.inf:  # else urllib fails at the first request, for -1 or NaN not as a BackendError
            raise ValueError(f"timeout must be a finite number > 0, not {timeout}")
        self.base_url = base_url
        self.model = model
        self.temperature = temperature
        self.seed = seed
        self.api_key = api_key
        self.timeout = timeout

    def raw_stream(self, req: GenerationRequest) -> Iterator[str]:
        # imported here, not at module level, so that runs which send no
        # request (the scripted mock, most curation stages) never load them
        import http.client
        import urllib.request
        from urllib.error import HTTPError

        url = self.base_url.rstrip("/") + CHAT_COMPLETIONS_PATH
        headers = {"Content-Type": "application/json"}
        key = self.api_key if self.api_key is not None else os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": self.temperature,
            "seed": self.seed,
            "max_tokens": req.max_new_tokens,
            "stream": True,
        }
        request = urllib.request.Request(url, data=json.dumps(body).encode(), headers=headers, method="POST")
        try:
            resp = urllib.request.urlopen(request, timeout=self.timeout)
        except HTTPError as exc:
            resp = exc  # the response to a status that is not 2xx
        except (OSError, http.client.HTTPException) as exc:
            raise ConnectionFailure(str(exc)) from exc
        with resp:
            if resp.status != 200:  # 800 bytes hold any 200 characters of UTF-8
                raise BackendStatusError(resp.status, resp.read(800).decode("utf-8", "replace")[:200])
            completed = False
            try:
                # SSE lines end at b"\n" only; str.splitlines would also cut
                # a delta at a raw U+2028, U+2029 or U+0085
                for line in resp:
                    if not line.startswith(b"data:"):
                        continue
                    payload = line[len(b"data:"):].strip()
                    if payload == b"[DONE]":
                        completed = True
                        break
                    # a chunk that is not UTF-8 or not JSON, or not shaped as
                    # the objects read here, is as retryable as a cut stream
                    try:
                        chunk = payload.decode("utf-8")
                        event = json.loads(chunk)
                        choices = event.get("choices") or []
                        if not choices:
                            if (error := event.get("error")) is None:
                                continue
                            # as for a status, an integer code other than 429 or 5xx makes it final
                            code = error.get("code")
                            exc = BackendError(f"backend stream error: {str(error.get('message', ''))[:200]}")
                            exc.retryable = type(code) is not int or code == 429 or code >= 500
                            raise exc
                        text = (choices[0].get("delta") or {}).get("content") or ""
                        finished = choices[0].get("finish_reason")
                        if not isinstance(text, str):
                            raise TypeError(f"content is a {type(text).__name__}")
                        # only a lone "\ud800"-style escape leaves a surrogate, which UTF-8 cannot encode
                        if "\\u" in chunk:
                            text.encode("utf-8")
                    except (ValueError, LookupError, AttributeError, TypeError, RecursionError) as exc:
                        shown = payload[:80].decode("utf-8", "replace")
                        raise TruncatedStreamError(f"malformed stream chunk: {shown}") from exc
                    if text:
                        yield text
                    if finished:
                        completed = True
            except (OSError, http.client.HTTPException) as exc:
                raise ConnectionFailure(str(exc)) from exc
            if not completed:
                raise TruncatedStreamError("stream ended without completion sentinel")


T = TypeVar("T")


# the one retry policy: at most RETRIES retries of a retryable backend
# error, the first BACKOFF_S seconds after it fails, doubling per retry
RETRIES = 2
BACKOFF_S = 0.5


def _retry_delay(exc: BackendError, attempt: int) -> float | None:
    """The backoff before retrying a call whose attempt ``attempt`` (0 for
    the first) raised ``exc``, with the warning logged; ``None`` when the
    error is final: not retryable, or ``RETRIES`` retries already made.
    Reads ``RETRIES`` and ``BACKOFF_S`` when called."""
    if not exc.retryable or attempt >= RETRIES:
        return None
    delay = BACKOFF_S * (2 ** attempt)
    import logging  # here, so that only a run that logs loads it

    logging.getLogger(__name__).warning("retryable backend error (%s); retry %d in %.2fs", exc, attempt + 1, delay)
    return delay


def with_retries(fn: Callable[[], T]) -> T:
    """Run ``fn`` on the calling thread as ``in_order`` runs a queued call,
    retries and backoffs included; its final error propagates."""
    results = in_order([fn], 1)
    try:
        return next(results)
    finally:
        results.close()


# the default pool size of evaluation and of the config's run.workers key
DEFAULT_WORKERS = 8


def in_order(
    calls: Iterable[Callable[[], T]],
    workers: int,
    *,
    failed: Callable[[int, BackendError], T] | None = None,
) -> Iterator[T]:
    """Yield each call's result in the order given.

    A call that raises a retryable ``BackendError`` with retries left is
    put back, to run again once its backoff (``_retry_delay``) has passed:
    no other code re-sends a failed call. A backoff holds no worker: a
    worker takes a due retry before the next first attempt, and waits only
    while nothing can run. ``min(workers, len(calls))`` threads run the
    calls, so ``workers`` bounds the calls in flight; at ``workers`` <= 1
    the calling thread runs the same loop until the next result is ready.

    A call's final ``BackendError`` (not retryable, or out of retries)
    becomes ``failed(index, error)``, the call's result, when ``failed`` is
    given. Any other error is raised when the call's turn comes. Once the
    iterator stops, by an error or by being closed, the calls not yet
    started and the queued retries are dropped, and the calls in flight
    are waited for.
    """
    import heapq  # imported here so that loading a question file does not load it

    calls = list(calls)
    firsts = deque(range(len(calls)))  # the calls not yet started
    retries: list[tuple[float, int, int]] = []  # heap of (not before, index, attempt)
    done: dict[int, tuple[bool, object]] = {}  # index -> (ok, result or error)
    lock = threading.Lock()  # entered directly: faster than through a Condition
    ready = threading.Condition(lock)  # the consumer waits on it for its next result
    queued = threading.Condition(lock)  # workers wait on it for a retry to come due
    stopped = False
    pooled = workers > 1
    # a worker hands an exit or interrupt to the consumer; the calling thread raises it at once
    caught = BaseException if pooled else Exception

    def take() -> tuple[int, int] | None:
        """The (index, attempt) to run next, or None once nothing is queued."""
        with lock:
            while not stopped:
                wait = retries[0][0] - time.monotonic() if retries else None
                if wait is not None and wait <= 0:
                    _, i, attempt = heapq.heappop(retries)
                    return i, attempt
                if firsts:
                    return firsts.popleft(), 0
                if wait is None:
                    return None
                queued.wait(wait)
            return None

    def run(i: int, attempt: int) -> None:
        try:
            try:
                outcome = True, calls[i]()
            except BackendError as exc:
                delay = _retry_delay(exc, attempt)
                if delay is not None:
                    with lock:
                        heapq.heappush(retries, (time.monotonic() + delay, i, attempt + 1))
                        queued.notify_all()
                    return
                if failed is None:
                    raise
                outcome = True, failed(i, exc)
        except caught as exc:
            outcome = False, exc
        with lock:
            done[i] = outcome
            if pooled:
                ready.notify()

    def work() -> None:
        while (job := take()) is not None:
            run(*job)

    threads: list[threading.Thread] = []
    try:
        if pooled:
            for _ in range(min(workers, len(calls))):
                threads.append(threading.Thread(target=work, name="in_order"))
                threads[-1].start()
        for i in range(len(calls)):
            if pooled:
                with lock:
                    ready.wait_for(lambda: i in done)
            else:
                while i not in done:
                    run(*take())
            ok, result = done.pop(i)
            if not ok:
                raise result
            yield result
    finally:
        with lock:
            stopped = True  # drops the calls not started and the queued retries
            queued.notify_all()
        for thread in threads:
            thread.join()


def probe_answer(backend, question_prompt: str) -> str:
    """Full non-streamed completion text for grading.

    Collects the whole stream before returning, so a failed call surfaces
    as an error with no partial text. One attempt: its caller retries it.
    """
    req = GenerationRequest(prompt=question_prompt, max_new_tokens=TRACE_TOKEN_LIMIT)
    texts, _ = collect(stream_generate(backend, req))
    return "".join(texts)
