"""Command-line surface wiring datasets, backends, and pipeline stages.

Every artifact is written atomically (temp file + rename) and JSON/JSONL
outputs embed their input digests and, for a command that reads a config,
the effective configuration, so identical invocations produce
byte-identical files. ``--mock script.json`` swaps the wire backend for
the scripted model in every command that builds one, making the full CLI
testable offline.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import curation, evaluation, plotting
from .client import BackendError, ScriptedModel
from .config import BACKEND_SECTION, CONFIG_FIELDS, RUN_SECTION, SECTION_KEYS, Config, ConfigError, flag_for, load_config
from .curation import CurationReport, SamplingPlan
from .evaluation import SweepResult
from .jsonl import (
    atomic_write_bytes,
    load_questions,
    load_traces,
    question_to_record,
    read_json,
    sha256_file,
    trace_to_record,
    transcript_to_record,
    write_json,
    write_jsonl,
)
from .regression import FitRefusedError, RegressionFit, fit_linear_with_ci

EXIT_OK = 0
EXIT_ERROR = 1


def _add_config(parser: argparse.ArgumentParser, sections, mock: str) -> None:
    """``--config``, a flag per key of the config ``sections``, and ``--mock``."""
    parser.add_argument("--config", help="INI config file")
    for section in sections:
        for key in (CONFIG_FIELDS[name] for name in SECTION_KEYS[section]):
            parser.add_argument(flag_for(key), dest=key.name, type=type(key.default), help=key.metadata["help"])
    parser.add_argument("--mock", action="append", help=mock)


def _effective_config(args: argparse.Namespace) -> Config:
    """The config of a command that builds a backend. A config file or the
    environment may set any key, which is checked. Beside ``--mock`` a
    backend flag would be recorded and never read, so it exits 1."""
    cfg = load_config(args.config, flags={name: getattr(args, name) for name in CONFIG_FIELDS if name in args})
    given = [name for name in SECTION_KEYS[BACKEND_SECTION] if getattr(args, name) is not None]
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
    if args.grader_model and args.model is not None:
        raise ConfigError("--grader-model sets each grader's model; it cannot be combined with --model")
    backend = cfg.backend()
    return [replace(backend, model=m) for m in args.grader_model or [backend.model]]


def _run_config(args: argparse.Namespace, cfg: Config) -> dict:
    """The config a run records: the keys its command takes a flag for,
    but no backend key from a ``--mock`` run, which sends no request."""
    unread = SECTION_KEYS[BACKEND_SECTION] if args.mock else []
    return {name: value for name, value in cfg.to_dict().items() if name in args and name not in unread}


# the arguments that name input files: every artifact digests each one given
INPUTS = ("pool", "traces", "eval_sets", "lexicon", "datasets", "dataset", "report_in", "mock")


def _provenance(args: argparse.Namespace, config: dict | None = None) -> dict:
    """The digest of every input of ``args`` and, for a stage that has one, its config."""
    provenance = {} if config is None else {"config": config}
    paths = set()
    for name in INPUTS:
        value = getattr(args, name, None)
        paths.update([value] if isinstance(value, str) else value or ())
    provenance["inputs"] = {path: sha256_file(path) for path in sorted(paths)}
    return provenance


def _write_report(path: str, stages: list[curation.StageCount], provenance: dict, header: dict | None = None) -> None:
    report = CurationReport(stages=list(stages), header=dict(header or {}))
    report.validate()
    write_json(path, {**report.to_dict(), "_provenance": provenance})


def _write_curated(args, read: list, kept: list, row: curation.StageCount, verb="kept", config=None, header=None) -> None:
    """Write the records a curate stage kept, citing its provenance, and, if
    ``--report`` was given, its ledger: the per-source counts of what it
    ``read``, then its ``row``. Then print the one-line summary."""
    traces = "traces" in args  # validate reads traces, the other stages a pool
    provenance = _provenance(args, config)
    write_jsonl(args.out, map(trace_to_record if traces else question_to_record, kept), meta=provenance)
    if args.report:
        questions = [t.question for t in read] if traces else read
        first = curation.StageCount("input_traces" if traces else "initial_collection", curation.source_counts(questions))
        _write_report(args.report, [first, row], provenance, header)
    print(f"{verb} {len(kept)} of {len(read)} {'traces' if traces else 'questions'}")


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
    ("--no-fit", {"action": "store_true", "help": "skip the regression fit"}),
)
# the config of a command that runs a policy: every section, one scripted model
POLICY_CONFIG = (SECTION_KEYS, "scripted-model JSON in place of the wire backend")

# Every command in help order: its words -> (its help, (the config sections
# it takes flags for, its --mock help) or None, its other arguments). run
# adds arguments only to the command it runs, and calls cmd_<words>.
COMMANDS = {
    # the filter sends no reasoning policy, so it takes no [policy] flag
    ("curate", "filter"): (
        "keep questions every grader misses",
        ((BACKEND_SECTION, RUN_SECTION), "scripted grader JSON in place of the wire graders; repeatable"),
        (POOL, OUT, REPORT, ("--grader-model", {"action": "append", "help": "wire grader model; repeatable"})),
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
    ("eval",): ("accuracy per dataset under a policy, plus the macro average", POLICY_CONFIG, (
        ("--dataset", {"action": "append", "required": True, "dest": "datasets", "help": "repeatable"}),
        ("--out", {"help": "per-question outcomes JSONL"}),
        ("--summary", {"help": "summary JSON"}),
        ("--transcripts", {"help": "full reasoning transcripts JSONL"}),
    )),
    ("sweep",): ("accuracy vs thinking budget", POLICY_CONFIG, (
        DATASET,
        ("--budgets", {"default": ",".join(map(str, evaluation.DEFAULT_BUDGET_GRID)), "help": "comma-separated budgets"}),
        *SWEEP_OUTPUTS,
    )),
    ("force-sweep",): ("accuracy vs forcing count", POLICY_CONFIG, (
        DATASET, ("--max-forcings", {"type": int, "required": True}), *SWEEP_OUTPUTS
    )),
    # plot and report read no config either
    ("plot",): ("re-emit CSV/SVG from a saved sweep JSON", None, (
        ("--sweep", {"required": True}),
        ("--format", {"choices": [plotting.FORMAT_CSV, plotting.FORMAT_SVG], "required": True}),
        OUT,
        ("--no-fit", {"action": "store_true"}),
    )),
    ("report",): ("validate and print a curation ledger", None, (
        ("--in", {"dest": "report_in", "required": True}), ("--out", {"help": "write the normalized report JSON"})
    )),
}  # fmt: skip


def cmd_curate_filter(args, cfg: Config) -> int:
    pool = load_questions(args.pool)
    graders = _graders(args, cfg)
    kept, row = curation.difficulty_filter(pool, graders, workers=cfg.workers)
    config = _run_config(args, cfg)
    if "model" in config:
        # the graders' models, which --grader-model sets in place of --model
        config["model"] = [g.model for g in graders]
    _write_curated(args, pool, kept, row, config=config)
    return EXIT_OK


def cmd_curate_validate(args) -> int:
    records = load_traces(args.traces)
    _write_curated(args, records, *curation.validate_traces(records), verb="verified")
    return EXIT_OK


def cmd_curate_decontaminate(args) -> int:
    pool = load_questions(args.pool)
    eval_sets = [load_questions(path) for path in args.eval_sets]
    _write_curated(args, pool, *curation.decontaminate(pool, eval_sets, ngram_size=args.ngram))
    return EXIT_OK


def cmd_curate_dedup(args) -> int:
    pool = load_questions(args.pool)
    _write_curated(args, pool, *curation.deduplicate(pool))
    return EXIT_OK


def cmd_curate_sample(args) -> int:
    pool = load_questions(args.pool)
    plan = SamplingPlan.from_questions(pool, target_n=args.n, seed=args.seed)
    selected, row = curation.diversity_sample(plan)
    by_id = {q.id: q for q in pool}
    chosen = [by_id[item_id] for item_id, _ in selected]
    header = {"rng": curation.SAMPLER_RNG, "seed": args.seed}
    _write_curated(args, pool, chosen, row, verb="sampled", config={"seed": args.seed}, header=header)
    return EXIT_OK


def _lexicon(payload: dict) -> dict:
    if not payload or not all(isinstance(v, str) for v in payload.values()):
        raise ValueError("lexicon must be a nonempty JSON object mapping term to qualifier string")
    return payload


def cmd_curate_annotate(args) -> int:
    pool = load_questions(args.pool)
    lexicon = read_json(args.lexicon, _lexicon)
    annotated = curation.annotate_domains(pool, lexicon)
    write_jsonl(args.out, (question_to_record(q) for q in annotated), meta=_provenance(args))
    print(f"annotated {len(annotated)} questions")
    return EXIT_OK


def cmd_curate_format_sft(args) -> int:
    verified = [r for r in load_traces(args.traces) if r.verified]
    # each example is rendered as it is written, so no list of texts is built
    write_jsonl(args.out, ({"text": curation.format_sft_example(r)} for r in verified), meta=_provenance(args))
    print(f"formatted {len(verified)} examples")
    return EXIT_OK


def cmd_eval(args, cfg: Config) -> int:
    # every dataset is loaded and checked before the first backend call
    datasets = {path: _load_dataset(path) for path in args.datasets}
    if args.transcripts:  # a transcript names no dataset, so an id in two datasets would give two traces of it
        first: dict[str, str] = {}
        for path, q in [(path, q) for path, questions in datasets.items() for q in questions]:
            if first.setdefault(q.id, path) != path:
                raise ValueError(f"{path}: duplicate id {q.id!r}, also in {first[q.id]}: --transcripts needs ids unique across datasets")
    backend = _backend(args, cfg)
    results = {}
    for path, questions in datasets.items():
        results[path] = evaluation.evaluate(questions, backend, cfg.policy(), workers=cfg.workers)
    provenance = _provenance(args, _run_config(args, cfg))
    macro = evaluation.macro_average([100.0 * r.accuracy for r in results.values()])
    if args.out:
        records = (
            {
                "dataset": path,
                "id": o.question_id,
                "letter": o.letter,
                "correct": o.correct,
                "thinking_tokens": o.thinking_tokens,
                "error": o.error,
            }
            for path, result in results.items()
            for o in result.outcomes
        )
        write_jsonl(args.out, records, meta=provenance)
    if args.transcripts:
        # evaluate returns a dataset's outcomes in question-id order
        records = (
            transcript_to_record(question, o.transcript)
            for path, result in results.items()
            for question, o in zip(sorted(datasets[path], key=lambda q: q.id), result.outcomes)
            if o.transcript is not None
        )
        write_jsonl(args.transcripts, records, meta=provenance)
    if args.summary:
        write_json(
            args.summary,
            {
                "datasets": {
                    path: {
                        "accuracy": result.accuracy,
                        "accuracy_percent": 100.0 * result.accuracy,
                        "n": result.n,
                        "n_correct": result.n_correct,
                    }
                    for path, result in results.items()
                },
                "macro_average_percent": macro,
                "_provenance": provenance,
            },
        )
    for path, result in results.items():
        print(f"{path}: accuracy {result.accuracy:.4f} ({result.n_correct}/{result.n})")
    print(f"macro average: {macro:.2f}%")
    return EXIT_OK


def _run_sweep(args, cfg: Config, sweep_fn, grid, label: str) -> int:
    """Run ``sweep_fn`` over ``grid`` on ``--dataset`` and write the CSV,
    the optional SVG, the sweep JSON and the summary."""
    questions = _load_dataset(args.dataset)
    backend = _backend(args, cfg)
    sweep = sweep_fn(questions, backend, grid, cfg.policy(), dataset_name=args.dataset, workers=cfg.workers)
    fit = None
    if not args.no_fit:
        try:
            # regression runs on percent values, matching the plotted axis
            fit = fit_linear_with_ci([(p.x, 100.0 * p.accuracy) for p in sweep.points])
        except FitRefusedError:
            fit = None
    atomic_write_bytes(args.out_csv, plotting.emit_plot(sweep, fit, plotting.FORMAT_CSV))
    if args.out_svg:
        atomic_write_bytes(args.out_svg, plotting.emit_plot(sweep, fit, plotting.FORMAT_SVG))
    # the summary and the sweep JSON for later plotting are the same document
    payload = sweep.to_dict()
    payload["fit"] = fit.to_dict() if fit else None
    payload["_provenance"] = _provenance(args, _run_config(args, cfg))
    for path in (args.out_json, args.summary):
        if path:
            write_json(path, payload)
    for point in sweep.points:
        print(f"{label} {int(point.x)}: accuracy {point.accuracy:.4f} ({point.n_correct}/{point.n})")
    return EXIT_OK


def cmd_sweep(args, cfg: Config) -> int:
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse --budgets {args.budgets!r}")
    return _run_sweep(args, cfg, evaluation.budget_sweep, budgets, "budget")


def cmd_force_sweep(args, cfg: Config) -> int:
    return _run_sweep(args, cfg, evaluation.forcing_sweep, args.max_forcings, "forcings")


def cmd_plot(args) -> int:
    def build(payload: dict):
        fit = None
        if not args.no_fit and payload.get("fit"):
            fit = RegressionFit.from_dict(payload["fit"])
        return SweepResult.from_dict(payload), fit

    sweep, fit = read_json(args.sweep, build)
    atomic_write_bytes(args.out, plotting.emit_plot(sweep, fit, args.format))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    report = read_json(args.report_in, CurationReport.from_dict)
    # written before the table is printed, so a failed write prints nothing, as in every command
    if args.out:
        _write_report(args.out, report.stages, _provenance(args), report.header)
    sources = sorted({src for stage in report.stages for src in stage.counts})
    header = ["stage"] + sources + ["total"]
    print("\t".join(header))
    for stage in report.stages:
        cells = [stage.name] + [str(stage.counts.get(s, 0)) for s in sources] + [str(stage.total)]
        print("\t".join(cells))
    for stage in report.stages:
        if stage.params:
            print(f"{stage.name} params: {json.dumps(stage.params, sort_keys=True)}")
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="thinkctl", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    stages = commands.add_parser("curate", help="data curation pipeline stages").add_subparsers(dest="stage", required=True)
    # argparse reads the first argument that is no option as the command
    # and, under curate, the next one as the stage
    named = [arg for arg in argv if not arg.startswith("-")]
    words = next((w for w in COMMANDS if list(w) == named[: len(w)]), None)
    for key, (text, config, arguments) in COMMANDS.items():
        p = (stages if key[0] == "curate" else commands).add_parser(key[-1], help=text)
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
        if "config" not in args:
            return handler(args)
        return handler(args, _effective_config(args))
    except (OSError, ValueError, BackendError) as exc:
        # SchemaError, ConfigError, CurationError and FitRefusedError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
