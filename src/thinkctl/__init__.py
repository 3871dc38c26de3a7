"""thinkctl: chain-of-thought budget control, data curation, and
scaling-curve evaluation for chat-completion backends.

``import thinkctl`` loads no submodule. Each public name below is imported
from its module on first access (PEP 562 module ``__getattr__``) and then
cached in this namespace, so a run that only loads a question file never
compiles the sweep, curation or regression code.
"""

import importlib

__version__ = "0.1.0"

# the one table of the public names, by the submodule that defines them
_EXPORTS = {
    "budget": (
        "ANSWER_MARKER", "THINK_MARKER", "BudgetPolicy", "BudgetRunError", "ReasoningTranscript", "Segment",
        "run_with_budget",
    ),
    "client": (
        "CAUSE_BACKEND_STOP", "CAUSE_CAP", "CAUSE_MARKER", "TRACE_TOKEN_LIMIT", "BackendError", "BackendStatusError",
        "ConnectionFailure", "GenerationRequest", "ScriptEntry", "ScriptedModel", "TokenEvent", "TokenStream",
        "TruncatedStreamError", "WireBackend", "probe_answer", "stream_generate", "with_retries",
    ),
    "config": ("Config", "ConfigError", "load_config"),
    "curation": (
        "CurationError", "CurationReport", "SamplingPlan", "StageCount", "TraceRecord", "annotate_domains",
        "decontaminate", "deduplicate", "difficulty_filter", "diversity_sample", "format_sft_example", "validate_traces",
    ),
    "evaluation": (
        "DEFAULT_BUDGET_GRID", "EvalOutcome", "EvalResult", "SweepPoint", "SweepResult", "budget_sweep", "evaluate",
        "forcing_sweep", "macro_average",
    ),
    "plotting": ("emit_plot",),
    "qa": (
        "DEFAULT_INSTRUCTION", "ExtractionOutcome", "McqQuestion", "extract_answer", "format_options", "format_prompt",
    ),
    "regression": ("FitRefusedError", "RegressionFit", "fit_linear_with_ci"),
}  # fmt: skip
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# every submodule is also an attribute, loaded when first read
_SUBMODULES = frozenset({"cli", "jsonl", *_EXPORTS})

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
