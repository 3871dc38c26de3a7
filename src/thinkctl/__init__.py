"""thinkctl: chain-of-thought budget control, data curation, and
scaling-curve evaluation for chat-completion backends."""

from .budget import (
    ANSWER_MARKER,
    THINK_MARKER,
    BudgetPolicy,
    BudgetRunError,
    ReasoningTranscript,
    Segment,
    run_with_budget,
)
from .client import (
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
    probe_answer,
    stream_generate,
    with_retries,
)
from .config import Config, ConfigError, load_config
from .curation import (
    CurationError,
    CurationReport,
    SamplingPlan,
    StageCount,
    TraceRecord,
    annotate_domains,
    decontaminate,
    deduplicate,
    difficulty_filter,
    diversity_sample,
    format_sft_example,
    parse_sft_example,
    validate_traces,
)
from .evaluation import (
    DEFAULT_BUDGET_GRID,
    EvalOutcome,
    EvalResult,
    SweepPoint,
    SweepResult,
    budget_sweep,
    evaluate,
    forcing_sweep,
    macro_average,
)
from .plotting import emit_plot
from .qa import (
    COT_INSTRUCTION,
    DEFAULT_INSTRUCTION,
    ExtractionOutcome,
    McqQuestion,
    extract_answer,
    format_options,
    format_prompt,
    format_trace_prompt,
    grade,
)
from .regression import FitRefusedError, RegressionFit, fit_linear_with_ci

__version__ = "0.1.0"
