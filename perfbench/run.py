"""thinkctl benchmark: budget and forcing sweeps in-process and over a
loopback SSE backend, plus the curation chain.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-inproc --seed 1 --seconds 20 --trace 0

Workloads:

* ``sweep-inproc``: ``budget_sweep`` over the default budget grid plus
  ``forcing_sweep`` 0..3, through the same public functions ``cmd_sweep``
  calls, against the synthetic model as an in-process object with no
  delay. Measures thinkctl's own CPU per token and per call.
* ``sweep-wire``: the same two sweeps through ``thinkctl.cli.run``
  (``sweep`` / ``force-sweep`` with ``--base-url`` and ``--workers``)
  against a loopback SSE server in a separate process that serves the same
  model with a prefill delay per prompt character and a decode delay per
  token. Bound by the backend: backend work, connection set-up and worker
  concurrency move its wall time.
* ``curate-pool``: the curation chain through the CLI (filter with two
  scripted graders, decontaminate against two eval sets, dedup, annotate,
  sample, then validate and format-sft on generated traces). Almost no
  streaming; its work is n-gram sets, regex annotation, sampling and JSONL
  I/O.

All load comes from this one process in a closed loop with at most two
worker threads. A run repeats whole cycles of the workload until
``--seconds`` have passed. ``items_per_s`` is the lower quartile of the
per-cycle rates: on a shared host the CPU speed switches between a
contended state and bursts up to twice as fast, and the lower quartile,
the rate sustained in three quarters of the cycles, does not depend on how
many bursts a run happened to catch (the median and every cycle's rate are
in the metadata). Every cycle's
outputs are checked against an oracle computed by ``gen.py`` without
thinkctl. With ``--trace 1`` the first half of the time runs untraced and
the second half traced, and the run prints the per-layer metrics plus the
tracing overhead; with ``--trace 0`` it prints the end-to-end metrics.

The last stdout line is the result object; the line before it holds run
metadata (git sha, ``src/`` line count, input properties, the map from each
per-layer metric to the end-to-end metric and workload it should move).
Inputs, outputs and spans go to ``.perfbench_work/<workload>-s<seed>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import sse_server  # noqa: E402
import synth  # noqa: E402
import tracer as tracing  # noqa: E402

# Closed loop from one process. Over the wire two workers overlap backend
# waits; in-process work is CPU-bound Python, where a second thread only
# contends for the interpreter lock, so those workloads use one.
WIRE_WORKERS = min(2, os.cpu_count() or 1)
CPU_WORKERS = 1
SETUP_REPEATS = 9
MIN_CYCLES = 2
WORK_ROOT = ".perfbench_work"

# The backend-side counters are deterministic. generated_tokens counts each
# reply up to the point where the client stops reading it; tokens the server
# writes past that point depend on timing and are reported only per layer,
# as backend.wasted_tokens.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "backend_calls": "count",
    "generated_tokens": "count",
    "prompt_chars": "count",
    "success_rate": "frac",
    "peak_rss_mb": "MB",
}

CURATION_STAGES = ("filter", "decontaminate", "dedup", "annotate", "sample", "validate", "format_sft")
ERROR_CLASSES = ("BackendStatusError", "TruncatedStreamError", "ConnectionFailure")
TERMINATIONS = ("natural", "budget_exhausted", "forcing_exhausted")

PER_LAYER = {
    "client.calls": "count",
    "client.us_per_token": "us",
    "client.ttft_ms_p50": "ms",
    "client.ttft_ms_p99": "ms",
    "client.call_ms_p50": "ms",
    "client.call_ms_p99": "ms",
    "client.retries": "count",
    **{f"client.errors.{c}": "count" for c in ERROR_CLASSES},
    "budget.runs": "count",
    "budget.run_ms_p50": "ms",
    "budget.run_ms_p99": "ms",
    "budget.self_ms": "ms",
    "budget.calls_per_run": "count",
    "budget.prompt_chars_per_run": "count",
    "budget.forced_segments": "count",
    **{f"budget.termination.{t}": "count" for t in TERMINATIONS},
    "qa.extract_calls": "count",
    "qa.extract_us_p50": "us",
    "qa.boxed_frac": "frac",
    "qa.fallback_frac": "frac",
    "qa.none_frac": "frac",
    "evaluation.question_evals": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.worker_busy_frac": "frac",
    "regression.fit_ms": "ms",
    "plotting.emit_ms.csv": "ms",
    "plotting.emit_ms.svg": "ms",
    "plotting.bytes": "B",
    **{f"curation.{s}_{m}": u for s in CURATION_STAGES for m, u in (("s", "s"), ("kept_frac", "frac"))},
    "curation.grader_calls": "count",
    "curation.grader_failures": "count",
    "jsonl.read_s": "s",
    "jsonl.write_s": "s",
    "jsonl.digest_s": "s",
    "jsonl.bytes_read": "B",
    "jsonl.bytes_written": "B",
    "backend.requests": "count",
    "backend.connections": "count",
    "backend.queue_ms_p50": "ms",
    "backend.wasted_tokens": "count",
    "backend.echo_mismatch": "count",
    "error_rate": "frac",
    "trace.spans": "count",
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead_frac": "frac",
}

# Which end-to-end metric, on which workload, each per-layer metric should
# move. Counts and times are per workload cycle unless the name says
# otherwise; "_per_run" and percentiles are per controlled run or call.
METRIC_MAP = {
    "client.calls": (["items_per_s"], ["sweep-inproc"]),
    "client.us_per_token": (["items_per_s"], ["sweep-inproc"]),
    "client.ttft_ms_p50": (["items_per_s"], ["sweep-wire"]),
    "client.ttft_ms_p99": (["items_per_s"], ["sweep-wire"]),
    "client.call_ms_p50": (["items_per_s"], ["sweep-wire"]),
    "client.call_ms_p99": (["items_per_s"], ["sweep-wire"]),
    "client.retries": (["items_per_s"], ["sweep-wire"]),
    "client.errors.*": (["success_rate"], ["sweep-wire"]),
    "budget.*": (
        ["backend_calls", "generated_tokens", "prompt_chars", "items_per_s"],
        ["sweep-inproc", "sweep-wire"],
    ),
    "qa.*": (["items_per_s"], ["sweep-inproc", "curate-pool"]),
    "evaluation.*": (["items_per_s"], ["sweep-wire"]),
    "regression.fit_ms": (["items_per_s"], ["sweep-inproc", "sweep-wire"]),
    "plotting.*": (["items_per_s"], ["sweep-inproc", "sweep-wire"]),
    "curation.*": (["items_per_s", "peak_rss_mb"], ["curate-pool"]),
    "jsonl.*": (["items_per_s"], ["curate-pool"]),
    "backend.*": (["items_per_s"], ["sweep-wire"]),
    "error_rate": (["success_rate"], ["sweep-inproc", "sweep-wire", "curate-pool"]),
    "trace.*": ([], []),
}


@dataclass
class Cycle:
    """One repetition of a workload."""

    seconds: float  # time spent inside thinkctl calls
    items: int
    attempted: int
    failed: int
    counters: dict
    digests: dict
    problems: list[str] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.items / self.seconds


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _quiet_cli(argv: list[str]) -> tuple[int, float]:
    """Run the thinkctl CLI in-process; returns (exit code, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed


class OutcomeCounter:
    """Counts evaluated questions and those whose outcome carries an error,
    by wrapping ``evaluation.evaluate``. Always on: one call per sweep
    point, so it costs nothing measurable."""

    def __init__(self):
        self.questions = 0
        self.errors = 0

    def install(self) -> None:
        original = evaluation.evaluate

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self.questions += result.n
            self.errors += sum(1 for o in result.outcomes if o.error is not None)
            return result

        evaluation.evaluate = counted

    def take(self) -> tuple[int, int]:
        out = (self.questions, self.errors)
        self.questions = self.errors = 0
        return out


# --------------------------------------------------------------- workloads


class SweepWorkload:
    """Budget sweep plus forcing sweep over the seeded questions."""

    name = "sweep-inproc"
    workers = CPU_WORKERS

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.specs = synth.make_questions(seed, gen.SWEEP_QUESTIONS, gen.MAX_FORCINGS)
        self.expect = gen.sweep_expectation(self.specs)
        self.dataset = os.path.join(workdir, "sweep.jsonl")

    def generate(self) -> None:
        gen.write_jsonl(self.dataset, (q.to_record() for q in self.specs))

    def setup_inputs(self) -> list[str]:
        return [f"questions:{self.dataset}"]

    def prompt_index(self) -> dict[str, str]:
        """Question id by stem, the first line of every prompt."""
        return {q.stem: q.qid for q in self.specs}

    def policy(self):
        cfg = config.Config(
            thinking_budget=gen.FORCING_BUDGET,
            per_forcing_cap=gen.PER_FORCING_CAP,
            forcing_text=synth.FORCING_TEXT,
        )
        return cfg.policy()

    def load(self) -> None:
        self.questions = jsonl.load_questions(self.dataset)
        self.backend = synth.InProcessBackend(synth.SyntheticModel(self.specs, gen.MAX_FORCINGS))
        self.outcomes = OutcomeCounter()
        self.outcomes.install()

    def raw_stream_classes(self) -> list:
        return [synth.InProcessBackend]

    def close(self) -> None:
        pass

    def expected_counters(self) -> dict:
        return {"requests": self.expect.calls, "generated": self.expect.generated}

    def check_points(self, kind: str, got: list[dict]) -> list[str]:
        want = self.expect.budget_points if kind == "budget" else self.expect.forcing_points
        if got != want:
            return [f"{kind} sweep points differ from the oracle: got {got}, want {want}"]
        return []

    def sweep_once(self, backend) -> tuple[dict, dict]:
        """The two sweeps plus fit and plot bytes, as ``cmd_sweep`` and
        ``cmd_force_sweep`` compute them; returns (points, plot bytes)."""
        policy = self.policy()
        sweeps = {
            "budget": evaluation.budget_sweep(
                self.questions, backend, gen.BUDGET_GRID, policy, dataset_name=self.dataset, workers=self.workers
            ),
            "forcing": evaluation.forcing_sweep(
                self.questions, backend, gen.MAX_FORCINGS, policy, dataset_name=self.dataset, workers=self.workers
            ),
        }
        plots = {}
        for kind, sweep in sweeps.items():
            try:
                fit = regression.fit_linear_with_ci([(p.x, 100.0 * p.accuracy) for p in sweep.points])
            except regression.FitRefusedError:
                fit = None
            for fmt in (plotting.FORMAT_CSV, plotting.FORMAT_SVG):
                plots[f"{kind}.{fmt}"] = plotting.emit_plot(sweep, fit, fmt)
        return {k: [p.to_dict() for p in s.points] for k, s in sweeps.items()}, plots

    def cycle(self) -> Cycle:
        self.backend.counters.reset()
        start = time.perf_counter()
        points, plots = self.sweep_once(self.backend)
        elapsed = time.perf_counter() - start
        attempted, failed = self.outcomes.take()
        problems = self.check_points("budget", points["budget"]) + self.check_points("forcing", points["forcing"])
        counters = self.backend.counters.snapshot()
        for key, want in self.expected_counters().items():
            if counters[key] != want:
                problems.append(f"backend {key} {counters[key]} != oracle {want}")
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in plots.items()}
        return Cycle(elapsed, self.expect.items, attempted, failed, counters, digests, problems)

    def final_checks(self, cycles: list[Cycle]) -> list[str]:
        return []


class SweepWireWorkload(SweepWorkload):
    """The same sweeps through the CLI against the loopback SSE server."""

    name = "sweep-wire"
    workers = WIRE_WORKERS

    def load(self) -> None:
        super().load()
        cmd = [sys.executable, os.path.join(HERE, "sse_server.py"), "--seed", str(self.seed)]
        self.server = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"loopback server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.keys = sse_server.failure_keys(self.specs, self.seed)
        self.extra_calls, self.extra_tokens = gen.retry_extra(self.expect, self.specs, self.keys)
        self.out = {
            kind: {ext: os.path.join(self.workdir, f"{kind}.{ext}") for ext in ("csv", "svg", "json", "summary.json")}
            for kind in ("budget", "forcing")
        }

    def raw_stream_classes(self) -> list:
        return [client.WireBackend]

    def _control(self, method: str, path: str) -> dict:
        req = urllib.request.Request(self.url + path, method=method, data=b"" if method == "POST" else None)
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if getattr(self, "server", None) is None:
            return
        try:
            self._control("POST", "/control/shutdown")
            self.server.wait(timeout=10)
        except Exception:
            self.server.kill()
            self.server.wait(timeout=10)
        finally:
            self.server.stdin.close()
            self.server.stdout.close()

    def expected_counters(self) -> dict:
        return {
            "requests": self.expect.calls + self.extra_calls,
            "generated": self.expect.generated + self.extra_tokens,
            "injected_503": 1,
            "injected_cut": 1,
        }

    def _argv(self, kind: str) -> list[str]:
        out = self.out[kind]
        common = [
            "--dataset", self.dataset,
            "--base-url", self.url,
            "--workers", str(self.workers),
            "--per-forcing-cap", str(gen.PER_FORCING_CAP),
            "--forcing-text", synth.FORCING_TEXT,
            "--out-csv", out["csv"],
            "--out-svg", out["svg"],
            "--out-json", out["json"],
            "--summary", out["summary.json"],
        ]  # fmt: skip
        if kind == "budget":
            return ["sweep", *common, "--budgets", ",".join(map(str, gen.BUDGET_GRID))]
        return ["force-sweep", *common, "--budget", str(gen.FORCING_BUDGET), "--max-forcings", str(gen.MAX_FORCINGS)]

    def cycle(self) -> Cycle:
        self._control("POST", "/control/reset")
        elapsed = 0.0
        problems = []
        codes = []
        for kind in ("budget", "forcing"):
            code, seconds = _quiet_cli(self._argv(kind))
            elapsed += seconds
            codes.append(code)
            if code != 0:
                problems.append(f"thinkctl {self._argv(kind)[0]} exited {code}")
                continue
            with open(self.out[kind]["json"], encoding="utf-8") as fh:
                problems += self.check_points(kind, json.load(fh)["points"])
        questions, errors = self.outcomes.take()
        counters = self._control("GET", "/control/stats")
        for key, want in self.expected_counters().items():
            if counters[key] != want:
                problems.append(f"backend {key} {counters[key]} != oracle {want}")
        digests = {
            f"{kind}.{ext}": _sha(path)
            for kind, paths in self.out.items()
            for ext, path in paths.items()
            if ext in ("csv", "svg") and os.path.exists(path)
        }
        failed = errors + sum(1 for c in codes if c != 0)
        return Cycle(elapsed, self.expect.items, questions + len(codes), failed, counters, digests, problems)

    def final_checks(self, cycles: list[Cycle]) -> list[str]:
        """Cross-check: one in-process cycle of the same seed must give the
        same points and plot bytes, and the wire's backend calls must equal
        the in-process calls plus the calls the injected failures added."""
        backend = synth.InProcessBackend(synth.SyntheticModel(self.specs, gen.MAX_FORCINGS))
        points, plots = self.sweep_once(backend)
        self.outcomes.take()
        problems = self.check_points("budget", points["budget"]) + self.check_points("forcing", points["forcing"])
        wire = cycles[-1]
        for key, data in plots.items():
            if hashlib.sha256(data).hexdigest() != wire.digests.get(key):
                problems.append(f"in-process {key} bytes differ from the CLI's over the wire")
        inproc_calls = backend.counters.snapshot()["requests"]
        if wire.counters["requests"] != inproc_calls + self.extra_calls:
            problems.append(
                f"wire backend calls {wire.counters['requests']} != in-process {inproc_calls} + injected retries {self.extra_calls}"
            )
        self.crosscheck = {"inproc_calls": inproc_calls, "wire_calls": wire.counters["requests"], "retry_calls": self.extra_calls}
        return problems


class CurateWorkload:
    """The curation chain through the CLI."""

    name = "curate-pool"
    workers = CPU_WORKERS

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out = {
            name: os.path.join(workdir, name)
            for name in (
                "hard.jsonl", "r1.json", "clean.jsonl", "r3.json", "deduped.jsonl", "r_dedup.json",
                "labeled.jsonl", "sampled.jsonl", "r4.json", "traces.jsonl", "verified.jsonl", "r2.json", "sft.jsonl",
            )
        }  # fmt: skip
        self.traces_ready = False

    def generate(self) -> None:
        # in a child process, so that the generated pool held in memory does
        # not count toward this process's peak RSS
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), str(self.seed), self.workdir], check=True, timeout=120)
        with open(os.path.join(self.workdir, gen.CURATION_EXPECT), encoding="utf-8") as fh:
            written = json.load(fh)
        self.paths = written["paths"]
        self.pool_size = written["pool_size"]
        self.expect = gen.CurationExpectation(**written["expect"])

    def setup_inputs(self) -> list[str]:
        p = self.paths
        return (
            [f"questions:{p['pool']}"]
            + [f"questions:{e}" for e in p["eval"]]
            + [f"script:{g}" for g in p["graders"]]
            + [f"json:{p['lexicon']}"]
        )

    def prompt_index(self) -> dict[str, str]:
        return {r["question"]: r["id"] for r in gen.read_jsonl(self.paths["pool"])}

    def load(self) -> None:
        counters = self.counters = synth.Counters()

        class CountingScriptedModel(client.ScriptedModel):
            """The scripted grader, counting on the backend side."""

            def raw_stream(self, req):
                counters.add(requests=1, prompt_chars=len(req.prompt))
                produced = 0
                try:
                    for token in super().raw_stream(req):
                        produced += 1
                        yield token
                finally:
                    counters.add(generated=produced)

        self.grader_cls = CountingScriptedModel
        cli.ScriptedModel = CountingScriptedModel

    def raw_stream_classes(self) -> list:
        return [self.grader_cls]

    def close(self) -> None:
        pass

    def steps(self) -> list[tuple[str, list[str]]]:
        p, o = self.paths, self.out
        return [
            ("filter", ["curate", "filter", "--pool", p["pool"], "--mock", p["graders"][0], "--mock", p["graders"][1],
                        "--workers", str(self.workers), "--out", o["hard.jsonl"], "--report", o["r1.json"]]),
            ("decontaminate", ["curate", "decontaminate", "--pool", o["hard.jsonl"], "--eval", p["eval"][0],
                               "--eval", p["eval"][1], "--ngram", str(gen.NGRAM), "--out", o["clean.jsonl"],
                               "--report", o["r3.json"]]),
            ("dedup", ["curate", "dedup", "--pool", o["clean.jsonl"], "--out", o["deduped.jsonl"],
                       "--report", o["r_dedup.json"]]),
            ("annotate", ["curate", "annotate", "--pool", o["deduped.jsonl"], "--lexicon", p["lexicon"],
                          "--out", o["labeled.jsonl"]]),
            ("sample", ["curate", "sample", "--pool", o["labeled.jsonl"], "--n", str(self.expect.sample_n),
                        "--seed", str(self.seed), "--out", o["sampled.jsonl"], "--report", o["r4.json"]]),
            ("validate", ["curate", "validate", "--traces", o["traces.jsonl"], "--out", o["verified.jsonl"],
                          "--report", o["r2.json"]]),
            ("format_sft", ["curate", "format-sft", "--traces", o["verified.jsonl"], "--out", o["sft.jsonl"]]),
        ]  # fmt: skip

    def cycle(self) -> Cycle:
        self.counters.reset()
        elapsed = 0.0
        problems = []
        codes = []
        for stage, argv in self.steps():
            if stage == "validate" and not self.traces_ready:
                problems += self._make_traces()
            code, seconds = _quiet_cli(argv)
            elapsed += seconds
            codes.append(code)
            if code != 0:
                problems.append(f"thinkctl curate {stage} exited {code}")
                break
        counters = self.counters.snapshot()
        if counters["requests"] != self.expect.grader_calls:
            problems.append(f"grader calls {counters['requests']} != oracle {self.expect.grader_calls}")
        digests = {name: _sha(path) for name, path in self.out.items() if os.path.exists(path)}
        failed = sum(1 for c in codes if c != 0)
        return Cycle(elapsed, self.pool_size, len(codes), failed, counters, digests, problems)

    def _make_traces(self) -> list[str]:
        """Check every stage output against the oracle once, then write
        traces for the sampled questions (outside the timed steps)."""
        problems = []
        ids = lambda name: [r["id"] for r in gen.read_jsonl(self.out[name])]  # noqa: E731
        if ids("hard.jsonl") != self.expect.filtered:
            problems.append("filter survivors differ from the oracle")
        for name in ("clean.jsonl", "deduped.jsonl"):
            if ids(name) != self.expect.decontaminated:
                problems.append(f"{name} survivors differ from the oracle")
        labeled = gen.read_jsonl(self.out["labeled.jsonl"])
        if {r["id"]: r["domains"] for r in labeled} != self.expect.labels:
            problems.append("annotate labels differ from the oracle")
        sampled = gen.read_jsonl(self.out["sampled.jsonl"])
        sampled_ids = [r["id"] for r in sampled]
        if len(sampled_ids) != self.expect.sample_n or len(set(sampled_ids)) != len(sampled_ids):
            problems.append("sample size or distinctness differs from the oracle")
        if not set(sampled_ids) <= set(self.expect.labels):
            problems.append("sample drew items outside the annotated pool")
        for name, want in (("r1.json", len(self.expect.filtered)), ("r3.json", len(self.expect.decontaminated)),
                           ("r4.json", self.expect.sample_n)):  # fmt: skip
            with open(self.out[name], encoding="utf-8") as fh:
                if json.load(fh)["stages"][-1]["total"] != want:
                    problems.append(f"{name} ledger total differs from the oracle")
        records, self.verified = gen.traces_for(sampled, self.seed)
        self.traces = {r["id"]: r for r in records}
        gen.write_jsonl(self.out["traces.jsonl"], records)
        self.traces_ready = True
        return problems

    def final_checks(self, cycles: list[Cycle]) -> list[str]:
        if not self.traces_ready:
            return ["the curation chain never reached validate"]
        problems = []
        if [r["id"] for r in gen.read_jsonl(self.out["verified.jsonl"])] != self.verified:
            problems.append("validate survivors differ from the oracle")
        sft = gen.read_jsonl(self.out["sft.jsonl"])
        if len(sft) != len(self.verified):
            problems.append("format-sft example count differs from the oracle")
        for qid, example in zip(self.verified, sft):
            trace = self.traces[qid]
            tail = "\n".join(["", synth.THINK_MARKER, trace["thinking"], synth.END_MARKER, trace["response"]])
            if not example["text"].endswith(tail):
                problems.append(f"format-sft text for {qid} does not carry its trace")
                break
        return problems


WORKLOADS = {w.name: w for w in (SweepWorkload, SweepWireWorkload, CurateWorkload)}


# ----------------------------------------------------------------- tracing


def install_tracer(tracer: tracing.Tracer, workload) -> None:
    t = tracer
    for owner in (evaluation, client):
        t.wrap_retries(owner, "with_retries")
    for owner in (budget, client):
        t.wrap_stream(owner, "stream_generate")
    for cls in workload.raw_stream_classes():
        t.wrap_raw_stream(cls)

    def run_result(args, kwargs, result):
        return {"forced": len(result.segments) - 1, "termination": result.termination}

    t.wrap_span(evaluation, "run_with_budget", "budget.run", run_result, qid_arg=0)
    t.wrap_span(evaluation, "evaluate", "evaluation.evaluate", lambda a, k, r: {"n": r.n})
    for owner in (evaluation, curation):
        t.wrap_span(owner, "extract_answer", "qa.extract", lambda a, k, r: {"method": r.method})
    for owner in (regression, cli):
        t.wrap_span(owner, "fit_linear_with_ci", "regression.fit")
    t.wrap_span(plotting, "emit_plot", "plotting.emit", lambda a, k, r: {"format": a[2] if len(a) > 2 else k.get("format"), "bytes": len(r)})

    def kept(args, kwargs, result):
        return {"n_in": len(args[0]), "n_out": len(result[0])}

    for fn in ("difficulty_filter", "decontaminate", "deduplicate", "validate_traces"):
        t.wrap_span(curation, fn, f"curation.{fn}", kept)
    t.wrap_span(curation, "annotate_domains", "curation.annotate_domains", lambda a, k, r: {"n_in": len(a[0]), "n_out": len(r)})
    t.wrap_span(curation, "diversity_sample", "curation.diversity_sample", lambda a, k, r: {"n_out": len(r[0])})
    t.wrap_span(curation.SamplingPlan, "from_questions", "curation.plan", lambda a, k, r: {"n_in": len(a[0])})
    t.wrap_span(curation, "format_sft_example", "curation.format_sft_example")
    t.wrap_span(curation, "probe_answer", "curation.probe_answer", qid_arg=1)
    for name in dir(cli):
        if name.startswith("cmd_"):
            t.wrap_span(cli, name, f"cli.{name}")

    def file_size(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    def loaded(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0]), "n": len(result)}

    t.wrap_span(cli, "load_questions", "jsonl.read", loaded)
    t.wrap_span(cli, "load_traces", "jsonl.read", loaded)
    for fn in ("write_jsonl", "write_json", "atomic_write_bytes"):
        t.wrap_span(cli, fn, "jsonl.write", file_size)
    t.wrap_span(cli, "sha256_file", "jsonl.digest", file_size)


def layer_metrics(workload, tracer: tracing.Tracer, traced: list[Cycle], untraced: list[Cycle]) -> dict:
    spans = tracer.spans
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    per = 1.0 / len(traced)
    named = lambda n: by_name.get(n, [])  # noqa: E731
    m: dict[str, float] = {}

    streams = named("client.stream")
    tokens = sum(s.attrs.get("tokens", 0) for s in streams)
    own = sum(s.duration - s.attrs.get("backend_s", 0.0) for s in streams)
    calls = tracer.calls
    ttft = [c["ttft_s"] * 1e3 for c in calls if c["ttft_s"] is not None]
    call_ms = [c["call_s"] * 1e3 for c in calls]
    m["client.calls"] = len(calls) * per
    m["client.us_per_token"] = 1e6 * own / tokens if tokens else 0.0
    m["client.ttft_ms_p50"] = tracing.percentile(ttft, 50)
    m["client.ttft_ms_p99"] = tracing.percentile(ttft, 99)
    m["client.call_ms_p50"] = tracing.percentile(call_ms, 50)
    m["client.call_ms_p99"] = tracing.percentile(call_ms, 99)
    m["client.retries"] = sum(s.attrs.get("retries", 0) for s in named("client.with_retries")) * per
    for cls in ERROR_CLASSES:
        m[f"client.errors.{cls}"] = sum(1 for c in calls if c["error"] == cls) * per

    runs = named("budget.run")
    run_ms = [s.duration * 1e3 for s in runs]
    kids = [[c for c in children.get(s.sid, []) if c.name == "client.stream"] for s in runs]
    n_runs = len(runs) or 1
    m["budget.runs"] = len(runs) * per
    m["budget.run_ms_p50"] = tracing.percentile(run_ms, 50)
    m["budget.run_ms_p99"] = tracing.percentile(run_ms, 99)
    m["budget.self_ms"] = 1e3 * sum(tracing.self_time(s, children.get(s.sid, [])) for s in runs) / n_runs
    m["budget.calls_per_run"] = sum(len(k) for k in kids) / n_runs
    m["budget.prompt_chars_per_run"] = sum(c.attrs["prompt_chars"] for k in kids for c in k) / n_runs
    m["budget.forced_segments"] = sum(s.attrs.get("forced", 0) for s in runs) * per
    for kind in TERMINATIONS:
        m[f"budget.termination.{kind}"] = sum(1 for s in runs if s.attrs.get("termination") == kind) * per

    extracts = named("qa.extract")
    n_ex = len(extracts) or 1
    m["qa.extract_calls"] = len(extracts) * per
    m["qa.extract_us_p50"] = tracing.percentile([s.duration * 1e6 for s in extracts], 50)
    for label, method in (("boxed", "boxed"), ("fallback", "regex_fallback"), ("none", "none")):
        m[f"qa.{label}_frac"] = sum(1 for s in extracts if s.attrs.get("method") == method) / n_ex

    evals = named("evaluation.evaluate")
    eval_wall = sum(s.duration for s in evals)
    m["evaluation.question_evals"] = sum(s.attrs.get("n", 0) for s in evals) * per
    m["evaluation.evaluate_s"] = eval_wall * per
    m["evaluation.worker_busy_frac"] = sum(s.duration for s in runs) / (workload.workers * eval_wall) if eval_wall else 0.0

    fits = named("regression.fit")
    m["regression.fit_ms"] = 1e3 * statistics.fmean(s.duration for s in fits) if fits else 0.0
    emits = named("plotting.emit")
    for fmt in ("csv", "svg"):
        ms = [s.duration * 1e3 for s in emits if s.attrs.get("format") == fmt]
        m[f"plotting.emit_ms.{fmt}"] = statistics.fmean(ms) if ms else 0.0
    m["plotting.bytes"] = sum(s.attrs.get("bytes", 0) for s in emits) * per

    cmd_of = {s.sid: s.name for s in spans if s.name.startswith("cli.cmd_")}

    def stage(span_names, cmd=None):
        chosen = [s for n in span_names for s in named(n) if cmd is None or cmd_of.get(s.parent) == cmd]
        return chosen, sum(s.duration for s in chosen) * per

    def frac(chosen):
        n_in = sum(s.attrs.get("n_in", 0) for s in chosen)
        return sum(s.attrs.get("n_out", 0) for s in chosen) / n_in if n_in else 0.0

    chosen, m["curation.filter_s"] = stage(["curation.difficulty_filter"])
    m["curation.filter_kept_frac"] = frac(chosen)
    chosen, m["curation.decontaminate_s"] = stage(["curation.decontaminate"])
    m["curation.decontaminate_kept_frac"] = frac(chosen)
    chosen, m["curation.dedup_s"] = stage(["curation.deduplicate"], "cli.cmd_curate_dedup")
    m["curation.dedup_kept_frac"] = frac(chosen)
    chosen, m["curation.annotate_s"] = stage(["curation.annotate_domains"])
    m["curation.annotate_kept_frac"] = frac(chosen)
    plans, _ = stage(["curation.plan"])
    draws, m["curation.sample_s"] = stage(["curation.plan", "curation.diversity_sample"])
    n_in = sum(s.attrs["n_in"] for s in plans)
    m["curation.sample_kept_frac"] = sum(s.attrs.get("n_out", 0) for s in draws) / n_in if n_in else 0.0
    chosen, m["curation.validate_s"] = stage(["curation.validate_traces"])
    m["curation.validate_kept_frac"] = frac(chosen)
    formats, m["curation.format_sft_s"] = stage(["curation.format_sft_example"])
    read = sum(s.attrs.get("n", 0) for s in named("jsonl.read") if cmd_of.get(s.parent) == "cli.cmd_curate_format_sft")
    m["curation.format_sft_kept_frac"] = len(formats) / read if read else 0.0
    probes = named("curation.probe_answer")
    m["curation.grader_calls"] = len(probes) * per
    m["curation.grader_failures"] = sum(1 for s in probes if "error" in s.attrs) * per

    for kind in ("read", "write", "digest"):
        m[f"jsonl.{kind}_s"] = sum(s.duration for s in named(f"jsonl.{kind}")) * per
    m["jsonl.bytes_read"] = sum(s.attrs.get("bytes", 0) for s in named("jsonl.read")) * per
    m["jsonl.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in named("jsonl.write")) * per

    queue = [q for c in traced for q in c.counters.get("queue_ms", [])]
    m["backend.requests"] = sum(c.counters["requests"] for c in traced) * per
    m["backend.connections"] = sum(c.counters["connections"] for c in traced) * per
    m["backend.queue_ms_p50"] = tracing.percentile(queue, 50)
    m["backend.wasted_tokens"] = sum(c.counters["wasted"] for c in traced) * per
    m["backend.echo_mismatch"] = sum(c.counters["echo_mismatch"] for c in traced) * per

    cycles = traced + untraced
    m["error_rate"] = sum(c.failed for c in cycles) / sum(c.attempted for c in cycles)
    traced_rate = sustained_rate(traced)
    untraced_rate = sustained_rate(untraced)
    m["trace.spans"] = len(spans) * per
    m["trace.items_per_s"] = traced_rate
    m["trace.untraced_items_per_s"] = untraced_rate
    m["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return m


# -------------------------------------------------------------------- run


def measure_setup(workload) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *workload.setup_inputs()],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def sustained_rate(cycles: list[Cycle]) -> float:
    """Items per second sustained in three quarters of the cycles."""
    return tracing.percentile([c.rate for c in cycles], 25)


def run_cycles(workload, seconds: float) -> list[Cycle]:
    cycles = []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        cycles.append(workload.cycle())
    return cycles


def metadata(workload, cycles: list[Cycle], setup_times: list[float]) -> dict:
    sha = None  # checkouts without git metadata
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {
        "workload": workload.name,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workers": workload.workers,
        "cycles": len(cycles),
        "cycle_rates": [c.rate for c in cycles],
        "cycle_rate_median": statistics.median(c.rate for c in cycles),
        "setup_times_s": setup_times,
        "inputs": {
            "sweep_questions": gen.SWEEP_QUESTIONS,
            "budget_grid": gen.BUDGET_GRID,
            "max_forcings": gen.MAX_FORCINGS,
            "prefill_us_per_char": sse_server.PREFILL_US_PER_CHAR,
            "decode_us_per_token": sse_server.DECODE_US_PER_TOKEN,
            "non_ascii_token_share": synth.NON_ASCII_TOKEN_SHARE,
            "non_ascii_stem_share": synth.NON_ASCII_STEM_SHARE,
            "pool_base": gen.POOL_BASE,
            "duplicate_share": gen.DUPLICATE_SHARE,
            "contaminated_share": gen.CONTAMINATED_SHARE,
            "eval_sets": [gen.EVAL_SET_SIZE] * gen.EVAL_SETS,
            "lexicon_terms": gen.LEXICON_TERMS,
        },
        "backend_counters": {k: v for k, v in cycles[0].counters.items() if k != "queue_ms"},
        "crosscheck": getattr(workload, "crosscheck", None),
        "metric_map": {k: {"moves": v[0], "workloads": v[1]} for k, v in METRIC_MAP.items()},
    }


def check_protocol() -> list[str]:
    """The synthetic model parses thinkctl's default policy text."""
    policy = budget.BudgetPolicy()
    problems = []
    for name, ours in (("think_marker", synth.THINK_MARKER), ("end_of_think_marker", synth.END_MARKER)):
        if getattr(policy, name) != ours:
            problems.append(f"BudgetPolicy.{name} is {getattr(policy, name)!r}, the synthetic model expects {ours!r}")
    return problems


def check_declared() -> list[str]:
    """BENCHMARK.json must declare exactly the metrics this harness prints."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return [f"{path} not found"]
    with open(path, encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[key]}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} does not match the metrics run.py reports")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "thinkctl", "__init__.py")):
        print(f"error: thinkctl sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.generate()
    setup_times = [] if args.trace else measure_setup(workload)

    global budget, cli, client, config, curation, evaluation, jsonl, plotting, regression
    sys.path.insert(0, SRC)
    from thinkctl import budget, cli, client, config, curation, evaluation, jsonl, plotting, regression

    problems = check_declared() + check_protocol()
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2

    tracer = None
    workload.load()
    try:
        if args.trace:
            untraced = run_cycles(workload, args.seconds / 2)
            index = workload.prompt_index()
            tracer = tracing.Tracer(lambda prompt: index.get(prompt.split("\n", 1)[0]))
            install_tracer(tracer, workload)
            try:
                traced = run_cycles(workload, args.seconds / 2)
            finally:
                tracer.unpatch()
        else:
            untraced = run_cycles(workload, args.seconds)
            traced = []
        cycles = untraced + traced
        problems = list(dict.fromkeys(p for c in cycles for p in c.problems))
        for key in cycles[0].digests:
            if len({c.digests.get(key) for c in cycles}) != 1:
                problems.append(f"{key} bytes differ between cycles of one seed")
        problems += workload.final_checks(cycles)
    finally:
        workload.close()

    if args.trace:
        values = layer_metrics(workload, tracer, traced, untraced)
        units = PER_LAYER
    else:
        counters = cycles[0].counters
        attempted = sum(c.attempted for c in cycles)
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": sustained_rate(cycles),
            "backend_calls": counters["requests"],
            "generated_tokens": counters["generated"],
            "prompt_chars": counters["prompt_chars"],
            "success_rate": 1.0 - sum(c.failed for c in cycles) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    meta = metadata(workload, cycles, setup_times)
    for name in os.listdir(workdir):  # keep only what the run reports
        os.remove(os.path.join(workdir, name))
    if tracer is not None:
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    with open(os.path.join(workdir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not problems,
        "attempted": sum(c.attempted for c in cycles),
        "failed": sum(c.failed for c in cycles),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
