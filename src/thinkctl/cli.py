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
    SchemaError,
    atomic_write_bytes,
    load_questions,
    load_traces,
    question_to_record,
    read_lines,
    sha256_file,
    trace_to_record,
    write_json,
    write_jsonl,
)
from .regression import FitRefusedError, RegressionFit, fit_linear_with_ci

EXIT_OK = 0
EXIT_ERROR = 1


def _add_config(parser: argparse.ArgumentParser, mock: str, sections=SECTION_KEYS) -> None:
    """``--config``, ``--mock`` and a flag per key of the config ``sections``."""
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


def _read_json(path: str, build):
    """Return ``build`` of the JSON object in ``path``. A file that is not
    JSON, not an object, or not what ``build`` reads raises SchemaError
    citing the file, so the command exits 1 without a traceback."""
    text = "".join(line for _, line in read_lines(path))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(path, exc.lineno, f"invalid JSON ({exc.msg})") from exc
    # an integer or a nesting past the interpreter's limits: the decoder
    # gives no position for either, so the error cites line 1
    except (ValueError, RecursionError) as exc:
        raise SchemaError(path, 1, f"invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(path, 1, "top level is not a JSON object")
    try:
        return build(payload)
    except KeyError as exc:
        raise SchemaError(path, 1, f"missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(path, 1, str(exc)) from exc


def _backend(args: argparse.Namespace, cfg: Config):
    if args.mock:
        if len(args.mock) > 1:
            raise ConfigError(f"--mock is given {len(args.mock)} times; this command runs one model")
        return _read_json(args.mock[0], ScriptedModel.from_dict)
    return cfg.backend()


def _graders(args: argparse.Namespace, cfg: Config) -> list:
    if args.mock:
        if args.grader_model:
            raise ConfigError("--grader-model names a wire grader; it cannot be combined with --mock")
        return [_read_json(path, ScriptedModel.from_dict) for path in args.mock]
    if args.grader_model and args.model is not None:
        raise ConfigError("--grader-model sets each grader's model; it cannot be combined with --model")
    backend = cfg.backend()
    return [replace(backend, model=m) for m in args.grader_model or [backend.model]]


def _run_config(args: argparse.Namespace, cfg: Config) -> dict:
    """The config a run records: the keys its command takes a flag for,
    but no backend key from a ``--mock`` run, which sends no request."""
    unread = SECTION_KEYS[BACKEND_SECTION] if args.mock else []
    return {name: value for name, value in cfg.to_dict().items() if name in args and name not in unread}


def _provenance(inputs: list[str], config: dict | None = None) -> dict:
    """The digest of every input and, for a stage that has one, its config."""
    provenance = {} if config is None else {"config": config}
    provenance["inputs"] = {path: sha256_file(path) for path in sorted(set(inputs))}
    return provenance


def _write_report(path: str, stages: list[curation.StageCount], provenance: dict, header: dict | None = None) -> None:
    report = CurationReport(header=dict(header or {}))
    for stage in stages:
        report.add_stage(stage.name, stage.counts, stage.params)
    report.validate()
    payload = report.to_dict()
    payload["_provenance"] = provenance
    write_json(path, payload)


def _write_pool_stage(
    args, pool: list, kept: list, row: curation.StageCount, provenance: dict, *, header: dict | None = None, verb: str = "kept"
) -> None:
    """Write the questions a stage kept and, if ``--report`` was given, its
    ledger, both citing ``provenance``; then print the one-line summary."""
    write_jsonl(args.out, (question_to_record(q) for q in kept), meta=provenance)
    if args.report:
        _write_report(args.report, [curation.initial_collection_row(pool), row], provenance, header)
    print(f"{verb} {len(kept)} of {len(pool)} questions")


def _load_dataset(path: str) -> list:
    """An evaluation dataset's questions; an empty one exits 1 naming its file."""
    questions = load_questions(path)
    if not questions:
        raise ValueError(f"{path}: dataset is empty")
    return questions


def _add_sweep_parser(sub, name: str, help: str, handler, grid_flag: str, /, **grid_kwargs) -> None:
    """``sweep`` and ``force-sweep``: the options ``_run_sweep`` reads,
    around the grid option ``grid_flag``."""
    p = sub.add_parser(name, help=help)
    _add_config(p, "scripted-model JSON in place of the wire backend")
    p.add_argument("--dataset", required=True)
    p.add_argument(grid_flag, **grid_kwargs)
    p.add_argument("--out-csv", dest="out_csv", required=True)
    p.add_argument("--out-svg", dest="out_svg")
    p.add_argument("--out-json", dest="out_json", help="sweep result JSON for later plotting")
    p.add_argument("--summary")
    p.add_argument("--no-fit", action="store_true", help="skip the regression fit")
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thinkctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    curate = sub.add_parser("curate", help="data curation pipeline stages")
    curate_sub = curate.add_subparsers(dest="stage", required=True)

    # the filter sends no reasoning policy, so it takes no [policy] flag
    p = curate_sub.add_parser("filter", help="keep questions every grader misses")
    _add_config(p, "scripted grader JSON in place of the wire graders; repeatable", [BACKEND_SECTION, RUN_SECTION])
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--grader-model", action="append", default=None, help="wire grader model; repeatable")
    p.set_defaults(handler=cmd_curate_filter)

    # the other curate stages send no request, so they read no config
    p = curate_sub.add_parser("validate", help="keep traces whose answer is correct")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(handler=cmd_curate_validate)

    p = curate_sub.add_parser("decontaminate", help="drop eval-overlapping items, then dedup")
    p.add_argument("--pool", required=True)
    p.add_argument("--eval", action="append", required=True, dest="eval_sets")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--ngram", type=int, default=curation.DEFAULT_NGRAM_SIZE)
    p.set_defaults(handler=cmd_curate_decontaminate)

    p = curate_sub.add_parser("dedup", help="drop exact duplicates by normalized stem")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(handler=cmd_curate_dedup)

    p = curate_sub.add_parser("sample", help="hierarchical diversity sampling")
    p.add_argument("--pool", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=42, help="sampler seed")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(handler=cmd_curate_sample)

    p = curate_sub.add_parser("annotate", help="label domains from a term lexicon")
    p.add_argument("--pool", required=True)
    p.add_argument("--lexicon", required=True, help="JSON object mapping term -> qualifier")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_curate_annotate)

    p = curate_sub.add_parser("format-sft", help="render verified traces as training text")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_curate_format_sft)

    p = sub.add_parser("eval", help="accuracy per dataset under a policy, plus the macro average")
    _add_config(p, "scripted-model JSON in place of the wire backend")
    p.add_argument("--dataset", action="append", required=True, dest="datasets", help="repeatable")
    p.add_argument("--out", help="per-question outcomes JSONL")
    p.add_argument("--summary", help="summary JSON")
    p.add_argument("--transcripts", help="full reasoning transcripts JSONL")
    p.set_defaults(handler=cmd_eval)

    _add_sweep_parser(
        sub, "sweep", "accuracy vs thinking budget", cmd_sweep, "--budgets",
        default=",".join(str(b) for b in evaluation.DEFAULT_BUDGET_GRID), help="comma-separated budgets",
    )  # fmt: skip
    _add_sweep_parser(
        sub, "force-sweep", "accuracy vs forcing count", cmd_force_sweep, "--max-forcings",
        dest="max_forcings", type=int, required=True,
    )  # fmt: skip

    # plot and report read no config either
    p = sub.add_parser("plot", help="re-emit CSV/SVG from a saved sweep JSON")
    p.add_argument("--sweep", required=True)
    p.add_argument("--format", choices=[plotting.FORMAT_CSV, plotting.FORMAT_SVG], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-fit", action="store_true")
    p.set_defaults(handler=cmd_plot)

    p = sub.add_parser("report", help="validate and print a curation ledger")
    p.add_argument("--in", dest="report_in", required=True)
    p.add_argument("--out", help="write the normalized report JSON")
    p.set_defaults(handler=cmd_report)

    return parser


def cmd_curate_filter(args, cfg: Config) -> int:
    pool = load_questions(args.pool)
    graders = _graders(args, cfg)
    kept, row = curation.difficulty_filter(pool, graders, workers=cfg.workers)
    config = _run_config(args, cfg)
    if "model" in config:
        # the graders' models, which --grader-model sets in place of --model
        config["model"] = [g.model for g in graders]
    _write_pool_stage(args, pool, kept, row, _provenance([args.pool] + (args.mock or []), config))
    return EXIT_OK


def cmd_curate_validate(args) -> int:
    records = load_traces(args.traces)
    kept, row = curation.validate_traces(records)
    provenance = _provenance([args.traces])
    write_jsonl(args.out, (trace_to_record(t) for t in kept), meta=provenance)
    if args.report:
        input_row = curation.StageCount(
            "input_traces", curation.source_counts(t.question for t in records)
        )
        _write_report(args.report, [input_row, row], provenance)
    print(f"verified {len(kept)} of {len(records)} traces")
    return EXIT_OK


def cmd_curate_decontaminate(args) -> int:
    pool = load_questions(args.pool)
    eval_sets = [load_questions(path) for path in args.eval_sets]
    clean, row = curation.decontaminate(pool, eval_sets, ngram_size=args.ngram)
    _write_pool_stage(args, pool, clean, row, _provenance([args.pool] + args.eval_sets))
    return EXIT_OK


def cmd_curate_dedup(args) -> int:
    pool = load_questions(args.pool)
    kept, row = curation.deduplicate(pool)
    _write_pool_stage(args, pool, kept, row, _provenance([args.pool]))
    return EXIT_OK


def cmd_curate_sample(args) -> int:
    pool = load_questions(args.pool)
    plan = SamplingPlan.from_questions(pool, target_n=args.n, seed=args.seed)
    selected, row = curation.diversity_sample(plan)
    by_id = {q.id: q for q in pool}
    chosen = [by_id[item_id] for item_id, _ in selected]
    header = {"rng": curation.SAMPLER_RNG, "seed": args.seed}
    _write_pool_stage(args, pool, chosen, row, _provenance([args.pool], {"seed": args.seed}), header=header, verb="sampled")
    return EXIT_OK


def _lexicon(payload: dict) -> dict:
    if not payload or not all(isinstance(v, str) for v in payload.values()):
        raise ValueError("lexicon must be a nonempty JSON object mapping term to qualifier string")
    return payload


def cmd_curate_annotate(args) -> int:
    pool = load_questions(args.pool)
    lexicon = _read_json(args.lexicon, _lexicon)
    annotated = curation.annotate_domains(pool, lexicon)
    write_jsonl(args.out, (question_to_record(q) for q in annotated), meta=_provenance([args.pool, args.lexicon]))
    print(f"annotated {len(annotated)} questions")
    return EXIT_OK


def cmd_curate_format_sft(args) -> int:
    records = load_traces(args.traces)
    texts = [{"text": curation.format_sft_example(r)} for r in records if r.verified]
    write_jsonl(args.out, texts, meta=_provenance([args.traces]))
    print(f"formatted {len(texts)} examples")
    return EXIT_OK


def cmd_eval(args, cfg: Config) -> int:
    # every dataset is loaded and checked before the first backend call
    datasets = {path: _load_dataset(path) for path in args.datasets}
    backend = _backend(args, cfg)
    results = {}
    for path, questions in datasets.items():
        results[path] = evaluation.evaluate(questions, backend, cfg.policy(), workers=cfg.workers)
    provenance = _provenance(args.datasets + (args.mock or []), _run_config(args, cfg))
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
        records = (
            o.transcript.to_record(o.question_id)
            for result in results.values()
            for o in result.outcomes
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
    payload["_provenance"] = _provenance([args.dataset] + (args.mock or []), _run_config(args, cfg))
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

    sweep, fit = _read_json(args.sweep, build)
    atomic_write_bytes(args.out, plotting.emit_plot(sweep, fit, args.format))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    def build(payload: dict) -> CurationReport:
        report = CurationReport.from_dict(payload)
        report.validate()
        return report

    report = _read_json(args.report_in, build)
    sources = sorted({src for stage in report.stages for src in stage.counts})
    header = ["stage"] + sources + ["total"]
    print("\t".join(header))
    for stage in report.stages:
        cells = [stage.name] + [str(stage.counts.get(s, 0)) for s in sources] + [str(stage.total)]
        print("\t".join(cells))
    if args.out:
        payload = report.to_dict()
        payload["_provenance"] = _provenance([args.report_in])
        write_json(args.out, payload)
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "config" not in args:
            return args.handler(args)
        return args.handler(args, _effective_config(args))
    except (OSError, ValueError, BackendError) as exc:
        # SchemaError, ConfigError, CurationError and FitRefusedError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
