"""Spans recorded from outside thinkctl, by wrapping its public functions at
the module attributes where their callers look them up.

A span has a name, start, end, parent span and question id. Spans are kept
in memory and written out when the run ends. A worker thread's outermost
span takes the coordinating thread's innermost open span as its parent, so
question runs in evaluation's thread pool hang under ``evaluate``. Backend
streams are not spans: a timer around each ``raw_stream`` step records
time to first token, call time, tokens and error class per backend call,
and adds the time spent inside the backend to the enclosing client stream,
so the client's own per-token time can be separated from it.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "qid", "attrs")

    def __init__(self, sid, name, start, parent, qid, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.qid = qid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "qid": self.qid,
            **self.attrs,
        }


class Tracer:
    def __init__(self, qid_of_prompt):
        self.spans: list[Span] = []
        self.calls: list[dict] = []  # one record per backend call
        self._qid_of_prompt = qid_of_prompt
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, qid: str | None = None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if qid is None and parent is not None:
            qid = parent.qid
        with self._lock:
            span = Span(len(self.spans), name, _clock(), parent.sid if parent else None, qid, attrs)
            self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span, **attrs) -> None:
        span.end = _clock()
        span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def backend_seconds(self) -> float:
        return getattr(self._local, "backend_s", 0.0)

    def _add_backend(self, seconds: float) -> None:
        self._local.backend_s = getattr(self._local, "backend_s", 0.0) + seconds

    # --------------------------------------------------------- patching

    def patch(self, owner, attr: str, make_wrapper) -> None:
        # restore a class's own descriptor (e.g. a classmethod) as it was
        saved = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_span(self, owner, attr: str, name: str, on_result=None, qid_arg=None) -> None:
        """Record a span around ``owner.attr``; ``on_result(args, kwargs,
        result)`` returns attributes to attach."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                qid = self._qid_of_prompt(args[qid_arg]) if qid_arg is not None else None
                s = self.start(name, qid)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self.finish(s, error=type(exc).__name__)
                    raise
                self.finish(s, **(on_result(args, kwargs, result) if on_result else {}))
                return result

            return wrapper

        self.patch(owner, attr, make)

    def wrap_retries(self, owner, attr: str) -> None:
        """Span around ``with_retries``; counts attempts of the retried call."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(call, *args, **kwargs):
                attempts = 0

                def counted():
                    nonlocal attempts
                    attempts += 1
                    return call()

                s = self.start("client.with_retries")
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    self.finish(s, retries=max(0, attempts - 1))

            return wrapper

        self.patch(owner, attr, make)

    def wrap_stream(self, owner, attr: str) -> None:
        """``stream_generate`` returns a proxy whose span lasts until the
        stream is drained."""
        tracer = self

        class TracedStream:
            def __init__(self, inner, span):
                self._inner = inner
                self._span = span
                self._tokens = 0
                self._backend0 = tracer.backend_seconds()

            def __iter__(self):
                return self

            def __next__(self):
                try:
                    event = next(self._inner)
                except StopIteration:
                    self._done(None)
                    raise
                except BaseException as exc:
                    self._done(type(exc).__name__)
                    raise
                self._tokens += 1
                return event

            def _done(self, error):
                if self._span.end is None:
                    attrs = {"tokens": self._tokens, "backend_s": tracer.backend_seconds() - self._backend0}
                    if error:
                        attrs["error"] = error
                    tracer.finish(self._span, **attrs)

            @property
            def cause(self):
                return self._inner.cause

        def make(fn):
            @functools.wraps(fn)
            def wrapper(backend, req):
                span = self.start("client.stream", prompt_chars=len(req.prompt), max_new_tokens=req.max_new_tokens)
                return TracedStream(fn(backend, req), span)

            return wrapper

        self.patch(owner, attr, make)

    def wrap_raw_stream(self, cls) -> None:
        """Time every step of a backend's ``raw_stream`` generator."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(backend, req):
                start = _clock()
                first = None
                tokens = 0
                error = None
                inner = fn(backend, req)
                try:
                    while True:
                        t0 = _clock()
                        try:
                            token = next(inner)
                        except StopIteration:
                            tracer._add_backend(_clock() - t0)
                            return
                        except BaseException as exc:
                            tracer._add_backend(_clock() - t0)
                            error = type(exc).__name__
                            raise
                        now = _clock()
                        tracer._add_backend(now - t0)
                        if first is None:
                            first = now
                        tokens += 1
                        yield token
                finally:
                    inner.close()
                    end = _clock()
                    record = {
                        "start": start,
                        "ttft_s": (first - start) if first is not None else None,
                        "call_s": end - start,
                        "tokens": tokens,
                        "error": error,
                    }
                    with tracer._lock:
                        tracer.calls.append(record)

            return wrapper

        self.patch(cls, "raw_stream", make)

    # ------------------------------------------------------------ output

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval its children cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children if c.end is not None)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.duration - covered


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
