"""Command-line surface wiring datasets, backends, and pipeline stages.

Each ``cmd_*`` handler computes and returns its outputs: its artifacts by
path (plot bytes, a JSON document, or JSONL records rendered as they are
written), its stdout lines and the config its provenance records. ``run``
alone digests the inputs, stamps that provenance on every JSON and JSONL
artifact, writes each atomically (temp file + rename), plots last, and
prints only after every write has succeeded, so identical invocations
produce byte-identical files. ``--mock script.json`` swaps the wire backend
for the scripted model in every command that builds one, making the full
CLI testable offline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

from . import curation, evaluation, plotting
from .client import BackendError, ScriptedModel
from .config import BACKEND_SECTION, CONFIG_FIELDS, RUN_SECTION, SECTION_KEYS, Config, ConfigError, flag_for, load_config
from .curation import CurationReport, SamplingPlan
from .evaluation import SweepResult
from .jsonl import (
    atomic_write_bytes,
    json_shape,
    load_questions,
    load_traces,
    outcome_to_record,
    question_to_record,
    read_json,
    sha256_file,
    trace_to_record,
    write_json,
    write_jsonl,
)
from .regression import FitRefusedError, RegressionFit, fit_linear_with_ci

EXIT_OK = 0
EXIT_ERROR = 1


def _add_config(parser: argparse.ArgumentParser, keys, mock: str) -> None:
    """``--config``, a flag per config key named in ``keys``, and ``--mock``."""
    parser.add_argument("--config", help="INI config file")
    for key in (CONFIG_FIELDS[name] for name in keys):
        parser.add_argument(flag_for(key), dest=key.name, type=type(key.default), help=key.metadata["help"])
    parser.add_argument("--mock", action="append", help=mock)


def _effective_config(args: argparse.Namespace) -> Config:
    """The config of a command that builds a backend. A config file or the
    environment may set any key, which is checked. Beside ``--mock`` a
    backend flag would be recorded and never read, so it exits 1."""
    cfg = load_config(args.config, flags={name: getattr(args, name) for name in CONFIG_FIELDS if name in args})
    given = [name for name in SECTION_KEYS[BACKEND_SECTION] if getattr(args, name, None) is not None]
    if args.mock and given:
        raise ConfigError(f"{flag_for(CONFIG_FIELDS[given[0]])} sets the wire backend; it cannot be combined with --mock")
    return cfg


def _backend(args: argparse.Namespace, cfg: Config):
    if args.mock:
        if len(args.mock) > 1:
            raise ConfigError(f"--mock is given {len(args.mock)} times; this command runs one model")
        return ScriptedModel.from_file(args.mock[0])
    return cfg.backend()


def _graders(args: argparse.Namespace, cfg: Config) -> list:
    if args.mock:
        if args.grader_model:
            raise ConfigError("--grader-model names a wire grader; it cannot be combined with --mock")
        return [ScriptedModel.from_file(path) for path in args.mock]
    return [replace(cfg, model=m).backend() for m in args.grader_model or [cfg.model]]


def _run_config(args: argparse.Namespace, cfg: Config) -> dict:
    """The config a run records: the keys its command takes a flag for,
    but no backend key from a ``--mock`` run, which sends no request."""
    unread = SECTION_KEYS[BACKEND_SECTION] if args.mock else []
    return {name: value for name, value in cfg.to_dict().items() if name in args and name not in unread}


# the arguments that name input files: every JSON and JSONL artifact digests each one given
INPUTS = ("pool", "traces", "eval_sets", "lexicon", "datasets", "dataset", "mock")


def _paths(args: argparse.Namespace, names) -> set[str]:
    """The paths that the arguments ``names`` of ``args`` give, each one once."""
    paths = set()
    for name in names:
        value = getattr(args, name, None)
        paths.update([value] if isinstance(value, str) else value or ())
    return paths


def _provenance(args: argparse.Namespace, config: dict | None = None) -> dict:
    """The digest of every input of ``args`` and, for a stage that has one, its config."""
    provenance = {} if config is None else {"config": config}
    provenance["inputs"] = {path: sha256_file(path) for path in sorted(_paths(args, INPUTS))}
    return provenance


# the flags that name a file a command writes
OUTPUTS = ("--out", "--report", "--summary", "--out-csv", "--out-svg", "--out-json")


def _distinct(named: list[tuple[str, str]], reason: str) -> None:
    """Exit 1 if a ``(flag, path)`` pair of ``named`` names no file, or two name one."""
    seen: dict[str, str] = {}
    for flag, path in named:
        if not path:
            raise ConfigError(f"{flag} is given an empty path")
        key = os.path.realpath(path)
        if key in seen:
            raise ConfigError(f"{path} is named by {seen[key]} and by {flag}: {reason}")
        seen[key] = flag


def _curated(args, read: list, kept: list, row: curation.StageCount, verb="kept", config=None):
    """The outputs of a curate stage: the records it kept; given
    ``--report``, its ledger, whose first row counts per source what it
    ``read`` and whose second is its ``row``; and its one-line summary."""
    traces = "traces" in args  # validate reads traces, the other stages a pool
    artifacts = {args.out: map(trace_to_record if traces else question_to_record, kept)}
    if args.report:
        questions = [t.question for t in read] if traces else read
        first = curation.StageCount("input_traces" if traces else "initial_collection", curation.source_counts(questions))
        report = CurationReport([first, row])
        report.validate()
        artifacts[args.report] = report.to_dict()
    return artifacts, [f"{verb} {len(kept)} of {len(read)} {'traces' if traces else 'questions'}"], config


def _load_dataset(path: str) -> list:
    """An evaluation dataset's questions; an empty one exits 1 naming its file."""
    questions = load_questions(path)
    if not questions:
        raise ValueError(f"{path}: dataset is empty")
    return questions


# (flag, add_argument kwargs) pairs that several commands take
POOL = ("--pool", {"required": True})
TRACES = ("--traces", {"required": True})
DATASET = ("--dataset", {"required": True})
OUT = ("--out", {"required": True})
REPORT = ("--report", {})
SWEEP_OUTPUTS = (
    ("--out-csv", {"required": True}),
    ("--out-svg", {}),
    ("--out-json", {"help": "sweep result JSON for later plotting"}),
    ("--summary", {}),
)


def _policy_config(kind: str | None = None):
    """A policy command's config: a flag per key but the one a ``kind`` sweep's grid sets, one scripted model."""
    return [k for k in CONFIG_FIELDS if k != evaluation.SWEPT_KEY.get(kind)], "scripted-model JSON in place of the wire backend"


# Every command in help order: its words -> (its help, (the config keys it
# takes flags for, its --mock help) or None, its other arguments). run adds
# arguments only to the command it runs, and calls cmd_<words>.
COMMANDS = {
    # the filter sends no reasoning policy, so it takes no [policy] flag, and
    # each --grader-model names a grader's model, so it takes no --model
    ("curate", "filter"): (
        "keep questions every grader misses",
        ([k for k in SECTION_KEYS[BACKEND_SECTION] + SECTION_KEYS[RUN_SECTION] if k != "model"],
         "scripted grader JSON in place of the wire graders; repeatable"),
        (POOL, OUT, REPORT,
         ("--grader-model", {"action": "append", "help": "wire grader model; repeatable (default: the model key)"})),
    ),
    # the other curate stages send no request, so they read no config
    ("curate", "validate"): ("keep traces whose answer is correct", None, (TRACES, OUT, REPORT)),
    ("curate", "decontaminate"): ("drop eval-overlapping items, then dedup", None, (
        POOL,
        ("--eval", {"action": "append", "required": True, "dest": "eval_sets"}),
        OUT,
        REPORT,
        ("--ngram", {"type": int, "default": curation.DEFAULT_NGRAM_SIZE}),
    )),
    ("curate", "dedup"): ("drop exact duplicates by normalized stem", None, (POOL, OUT, REPORT)),
    ("curate", "sample"): ("hierarchical diversity sampling", None, (
        POOL,
        ("--n", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 42, "help": "sampler seed"}),
        OUT,
        REPORT,
    )),
    ("curate", "annotate"): ("label domains from a term lexicon", None, (
        POOL, ("--lexicon", {"required": True, "help": "JSON object mapping term -> qualifier"}), OUT
    )),
    ("curate", "format-sft"): ("render verified traces as training text", None, (TRACES, OUT)),
    ("eval",): ("accuracy per dataset under a policy, plus the macro average", _policy_config(), (
        ("--dataset", {"action": "append", "required": True, "dest": "datasets", "help": "repeatable"}),
        ("--out", {"help": "one trace record per run, JSONL"}),
        ("--summary", {"help": "summary JSON"}),
    )),
    ("sweep",): ("accuracy vs thinking budget", _policy_config(evaluation.KIND_BUDGET), (
        DATASET,
        ("--budgets", {"default": ",".join(map(str, evaluation.DEFAULT_BUDGET_GRID)), "help": "comma-separated budgets"}),
        *SWEEP_OUTPUTS,
    )),
    ("force-sweep",): ("accuracy vs forcing count", _policy_config(evaluation.KIND_FORCING), (
        DATASET, ("--max-forcings", {"type": int, "required": True}), *SWEEP_OUTPUTS
    )),
    # plot and report read no config either
    ("plot",): ("re-emit CSV/SVG from a saved sweep JSON", None, (
        ("--sweep", {"required": True}), ("--out", {"required": True, "help": "a .csv or .svg file, by its suffix"})
    )),
    ("report",): ("validate and print a curation ledger", None, (("--in", {"dest": "report_in", "required": True}),)),
}  # fmt: skip


def cmd_curate_filter(args, cfg: Config):
    pool = load_questions(args.pool)
    graders = _graders(args, cfg)
    kept, row = curation.difficulty_filter(pool, graders, workers=cfg.workers)
    config = _run_config(args, cfg)
    if not args.mock:  # a wire filter records the models of its graders
        config["model"] = [g.model for g in graders]
    return _curated(args, pool, kept, row, config=config)


def cmd_curate_validate(args):
    records = load_traces(args.traces)
    return _curated(args, records, *curation.validate_traces(records), verb="verified")


def cmd_curate_decontaminate(args):
    pool = load_questions(args.pool)
    eval_sets = [load_questions(path) for path in args.eval_sets]
    return _curated(args, pool, *curation.decontaminate(pool, eval_sets, ngram_size=args.ngram))


def cmd_curate_dedup(args):
    pool = load_questions(args.pool)
    return _curated(args, pool, *curation.deduplicate(pool))


def cmd_curate_sample(args):
    pool = load_questions(args.pool)
    plan = SamplingPlan.from_questions(pool, target_n=args.n, seed=args.seed)
    selected, row = curation.diversity_sample(plan)
    by_id = {q.id: q for q in pool}
    chosen = [by_id[item_id] for item_id, _ in selected]
    return _curated(args, pool, chosen, row, verb="sampled", config={"seed": args.seed})


def _lexicon(payload: dict) -> dict:
    if not payload or not all(isinstance(v, str) for v in payload.values()):
        raise ValueError("lexicon must be a nonempty JSON object mapping term to qualifier string")
    return payload


def cmd_curate_annotate(args):
    annotated = curation.annotate_domains(load_questions(args.pool), read_json(args.lexicon, _lexicon))
    return {args.out: map(question_to_record, annotated)}, [f"annotated {len(annotated)} questions"], None


def cmd_curate_format_sft(args):
    verified = [r for r in load_traces(args.traces) if r.verified]

    def render(record) -> dict:
        try:
            return {"text": curation.format_sft_example(record)}
        except curation.CurationError as exc:
            raise curation.CurationError(f"{args.traces}: {exc}") from None

    # each example is rendered as it is written, so no list of texts is built
    return {args.out: map(render, verified)}, [f"formatted {len(verified)} examples"], None


def cmd_eval(args, cfg: Config):
    # every dataset is loaded and checked before the first backend call
    _distinct([("--dataset", path) for path in args.datasets], "each dataset is evaluated once")
    datasets = {path: _load_dataset(path) for path in args.datasets}
    backend = _backend(args, cfg)
    results = {path: evaluation.evaluate(qs, backend, cfg.policy(), workers=cfg.workers) for path, qs in datasets.items()}
    macro = evaluation.macro_average([100.0 * r.accuracy for r in results.values()])
    records = (outcome_to_record(o, path) for path, r in results.items() for o in r.outcomes)
    summary = {
        "datasets": {
            path: {"accuracy": r.accuracy, "accuracy_percent": 100.0 * r.accuracy, "n": r.n, "n_correct": r.n_correct}
            for path, r in results.items()
        },
        "macro_average_percent": macro,
    }
    lines = [f"{path}: accuracy {r.accuracy:.4f} ({r.n_correct}/{r.n})" for path, r in results.items()]
    lines.append(f"macro average: {macro:.2f}%")
    return {args.out: records, args.summary: summary}, lines, _run_config(args, cfg)


def _run_sweep(args, cfg: Config, sweep_fn, grid, label: str):
    """Run ``sweep_fn`` over ``grid`` on ``--dataset``; its outputs are the
    CSV, the optional SVG, the sweep JSON and the summary."""
    questions = _load_dataset(args.dataset)
    backend = _backend(args, cfg)
    sweep = sweep_fn(questions, backend, grid, cfg.policy(), dataset_name=args.dataset, workers=cfg.workers)
    fit = None
    with contextlib.suppress(FitRefusedError):
        # regression runs on percent values, matching the plotted axis
        fit = fit_linear_with_ci([(p.x, 100.0 * p.accuracy) for p in sweep.points])
    # the summary and the sweep JSON for later plotting are the same document
    payload = {**sweep.to_dict(), "fit": fit.to_dict() if fit else None}
    artifacts = {args.out_json: payload, args.summary: payload, args.out_csv: plotting.emit_plot(sweep, fit, plotting.FORMAT_CSV)}
    if args.out_svg:
        artifacts[args.out_svg] = plotting.emit_plot(sweep, fit, plotting.FORMAT_SVG)
    lines = [f"{label} {int(p.x)}: accuracy {p.accuracy:.4f} ({p.n_correct}/{p.n})" for p in sweep.points]
    return artifacts, lines, _run_config(args, cfg)


def cmd_sweep(args, cfg: Config):
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse --budgets {args.budgets!r}")
    return _run_sweep(args, cfg, evaluation.budget_sweep, budgets, "budget")


def cmd_force_sweep(args, cfg: Config):
    return _run_sweep(args, cfg, evaluation.forcing_sweep, args.max_forcings, "forcings")


def cmd_plot(args):
    fmt = os.path.splitext(args.out)[1][1:]
    if fmt not in (plotting.FORMAT_CSV, plotting.FORMAT_SVG):
        raise ConfigError(f"{args.out}: plot writes a .csv or .svg file, named by the suffix of --out")

    def build(payload: dict):
        # a sweep JSON names its fit, null when the sweep has no band
        fit = json_shape("sweep", payload, dict, ["dataset", "kind", "points", "fit"], ["_provenance"]).pop("fit")
        fit = None if fit is None else RegressionFit.from_dict(fit)
        return SweepResult.from_dict(payload), fit

    sweep, fit = read_json(args.sweep, build)
    return {args.out: plotting.emit_plot(sweep, fit, fmt)}, [f"wrote {args.out}"], None


def cmd_report(args):
    report = read_json(args.report_in, CurationReport.from_dict)
    sources = sorted({src for stage in report.stages for src in stage.counts})
    lines = ["\t".join(["stage", *sources, "total"])]
    lines += ["\t".join([s.name, *(str(s.counts.get(src, 0)) for src in sources), str(s.total)]) for s in report.stages]
    lines += [f"{s.name} params: {json.dumps(s.params, sort_keys=True)}" for s in report.stages if s.params]
    return {}, lines, None


def run(argv: list[str]) -> int:
    # an option is spelled in full: no parser reads a prefix of one as the option
    parser = argparse.ArgumentParser(prog="thinkctl", description=__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    curate = commands.add_parser("curate", help="data curation pipeline stages", allow_abbrev=False)
    stages = curate.add_subparsers(dest="stage", required=True)
    # argparse reads the first argument that is no option as the command
    # and, under curate, the next one as the stage
    named = [arg for arg in argv if not arg.startswith("-")]
    words = next((w for w in COMMANDS if list(w) == named[: len(w)]), None)
    for key, (text, config, arguments) in COMMANDS.items():
        p = (stages if key[0] == "curate" else commands).add_parser(key[-1], help=text, allow_abbrev=False)
        if key == words:
            if config:
                _add_config(p, *config)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = globals()["cmd_" + "_".join(words).replace("-", "_")]
    try:
        # checked before the handler runs, so a clash reads no input, sends no request and writes nothing
        outputs = [(flag, path) for flag in OUTPUTS if (path := getattr(args, flag[2:].replace("-", "_"), None)) is not None]
        _distinct(outputs, "each output needs its own file")
        # the files the command reads, the inputs its provenance digests among them
        reads = {os.path.realpath(path) for path in _paths(args, (*INPUTS, "config", "sweep")) if path}
        for flag, path in outputs:
            if os.path.realpath(path) in reads:
                raise ConfigError(f"{flag} names {path}, which the command reads: an output may not replace an input")
        artifacts, lines, config = handler(args) if "config" not in args else handler(args, _effective_config(args))
        # each artifact whose flag was given; the JSON and JSONL ones carry the
        # provenance, which may fail to encode, so they are written before any plot
        files = sorted(((path, data) for path, data in artifacts.items() if path is not None), key=lambda f: isinstance(f[1], bytes))
        provenance = _provenance(args, config) if any(not isinstance(data, bytes) for _, data in files) else None
        for path, data in files:
            if isinstance(data, bytes):
                atomic_write_bytes(path, data)
            elif isinstance(data, dict):
                write_json(path, {**data, "_provenance": provenance})
            else:
                write_jsonl(path, data, meta=provenance)
        for line in lines:
            print(line)
        return EXIT_OK
    except (OSError, ValueError, BackendError) as exc:
        # SchemaError, ConfigError, CurationError and FitRefusedError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
