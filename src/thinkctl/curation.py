"""Training-data curation pipeline with a per-stage provenance ledger.

Stages: difficulty filtering (keep questions every grader misses),
reasoning-trace validation (keep traces whose final answer is correct),
decontamination against evaluation sets plus exact deduplication,
hierarchical diversity sampling (domain, then dataset, then item), and
supervised-finetuning example formatting. Every stage reports per-source
counts so the ledger reconciles end to end.
"""

from __future__ import annotations

import hashlib
import re
import string
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

from .budget import ANSWER_MARKER, THINK_MARKER
from .client import BackendError, in_order, probe_answer
from .jsonl import json_shape
from .qa import McqQuestion, extract_answer, format_prompt

UNLABELED_DOMAIN = "Unlabeled"
DEFAULT_NGRAM_SIZE = 8
SAMPLER_RNG = "blake2b-counter"
_PUNCTUATION = re.compile(f"[{re.escape(string.punctuation)}]")


class CurationError(ValueError):
    pass


_WORDS = 1 << 64


class _CounterDraws:
    """Uniform draws from ``range(n)``, 1 <= n <= 2**64, reproducible from a
    seed. Draw i, counting rejected words, hashes ``f"{seed}:{i}"`` with
    BLAKE2b to a little-endian 64-bit word ``w`` and returns ``w % n`` if
    ``w < 2**64 - 2**64 % n``, else rejects it, so each residue is equally
    likely. The counter is all the state (counter-based generation: Salmon
    et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011)."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise CurationError(f"sampler seed must be >= 0, got {seed}")
        self._seed = seed
        self._counter = 0

    def integers(self, n: int) -> int:
        while True:
            key = f"{self._seed}:{self._counter}".encode()
            self._counter += 1
            word = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
            if word < _WORDS - _WORDS % n:
                return word % n


@dataclass
class TraceRecord:
    """One question paired with a generated reasoning trace and answer. The
    verdict is graded from ``response``: the letter ``extract_answer`` finds,
    and whether it is the gold one. This is the one grading rule, for an
    evaluated run, a loaded trace and a grader probe alike."""

    question: McqQuestion
    thinking: str
    response: str
    extracted: str | None = field(init=False)
    verified: bool = field(init=False)

    def __post_init__(self) -> None:
        self.extracted = extract_answer(self.response, self.question.options).letter
        self.verified = self.extracted == self.question.gold


@dataclass
class StageCount:
    """Per-source record counts for one pipeline stage."""

    name: str
    counts: dict[str, int]
    params: dict | None = None

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "counts": dict(self.counts), "total": self.total}
        if self.params is not None:
            out["params"] = dict(self.params)
        return out


@dataclass
class CurationReport:
    """The provenance ledger: ordered stage rows keyed by source dataset."""

    stages: list[StageCount] = field(default_factory=list)
    header: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check the ledger identities: totals equal per-source sums and
        never increase from one stage to the next."""
        previous = None
        for stage in self.stages:
            if any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in stage.counts.values()):
                raise CurationError(f"stage {stage.name!r}: a count is not a non-negative integer")
            if previous is not None and stage.total > previous.total:
                raise CurationError(
                    f"stage {stage.name!r}: total {stage.total} exceeds previous "
                    f"stage {previous.name!r} total {previous.total}"
                )
            previous = stage

    def to_dict(self) -> dict:
        return {"header": dict(self.header), "stages": [s.to_dict() for s in self.stages]}

    @classmethod
    def from_dict(cls, data: dict) -> "CurationReport":
        json_shape("ledger", data, dict, ["stages"], ["header", "_provenance"])
        rows = json_shape("stages", data["stages"], list, ["name", "counts", "total"], ["params"])
        report = cls(header=dict(json_shape("ledger header", data["header"], dict)) if "header" in data else {})
        for row in rows:
            name = json_shape("stage name", row["name"], str)
            params = json_shape(f"stage {name!r} params", row["params"], dict) if "params" in row else None
            report.stages.append(StageCount(name, dict(json_shape(f"stage {name!r} counts", row["counts"], dict)), params))
        # a count that is no integer would fail the sum of a stage's total
        report.validate()
        for row, stage in zip(rows, report.stages):
            if row["total"] != stage.total:
                raise CurationError(
                    f"stage {stage.name!r}: recorded total {row['total']} does not equal per-source sum {stage.total}"
                )
        return report


def source_counts(questions: Iterable[McqQuestion]) -> dict[str, int]:
    """Per-source-dataset record counts, the unit of every ledger row."""
    counts: dict[str, int] = {}
    for q in questions:
        counts[q.source] = counts.get(q.source, 0) + 1
    return counts


def difficulty_filter(
    pool: Sequence[McqQuestion],
    graders: Sequence,
    *,
    workers: int = 1,
) -> tuple[list[McqQuestion], StageCount]:
    """Keep only questions that every grader answers incorrectly.

    The graders take turns, each probing through one ``in_order`` call only
    the questions every earlier grader missed; a round ends before the next
    starts, which costs one probe's latency per grader. A probe that fails
    through its retries is logged and counted incorrect (the row's
    ``grader_failures``), so flaky backends only keep questions, never drop
    them. Any other error ends the stage and cancels the probes still queued.
    """
    if not graders:
        raise CurationError("difficulty_filter needs at least one grader")

    def correct(grader, question: McqQuestion) -> bool:
        return TraceRecord(question, "", probe_answer(grader, format_prompt(question))).verified

    def failed(i: int, exc: BackendError) -> None:  # missed is the round's list until the round ends
        import logging  # here, so that only a run that logs loads it

        logging.getLogger(__name__).warning("grader failed on %s (%s); counted incorrect", missed[i].id, exc)

    missed, failures = pool, 0
    for grader in graders:
        verdicts = list(in_order([partial(correct, grader, q) for q in missed], workers, failed=failed))
        failures += verdicts.count(None)
        missed = [q for q, verdict in zip(missed, verdicts) if not verdict]
    kept = sorted(missed, key=lambda q: q.id)
    return kept, StageCount("difficulty_filter", source_counts(kept), {"grader_failures": failures} if failures else None)


def validate_traces(records: Sequence[TraceRecord]) -> tuple[list[TraceRecord], StageCount]:
    """Keep traces whose final answer matches the gold label."""
    kept = [r for r in records if r.verified]
    return kept, StageCount("trace_validation", source_counts(r.question for r in kept))


def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace. One regex
    substitution replaces the ASCII punctuation: CPython's ``str.translate``
    looks each character up in its table, which is slower."""
    return " ".join(_normalized_words(text))


def _normalized_words(text: str) -> list[str]:
    """The words of ``normalize_text(text)``, without joining them."""
    return _PUNCTUATION.sub(" ", text.lower()).split()


def _windows(words: list[str], n: int) -> Iterator[tuple[str, ...]]:
    """Each run of ``n`` consecutive words, as a tuple: no word holds
    whitespace, so two tuples are equal exactly when their space-joined
    texts are, and building them joins nothing."""
    return zip(*(words[i:] for i in range(n)))


def _first_per_key(keyed: Iterable[tuple[str, McqQuestion]]) -> list[McqQuestion]:
    first: dict[str, McqQuestion] = {}
    for key, q in keyed:
        first.setdefault(key, q)
    return list(first.values())


def deduplicate(pool: Sequence[McqQuestion]) -> tuple[list[McqQuestion], StageCount]:
    """Drop exact duplicates by normalized stem, keeping the first seen."""
    kept = _first_per_key((normalize_text(q.stem), q) for q in pool)
    return kept, StageCount("deduplication", source_counts(kept))


def decontaminate(
    pool: Sequence[McqQuestion],
    eval_sets: Sequence[Sequence[McqQuestion]],
    *,
    ngram_size: int = DEFAULT_NGRAM_SIZE,
) -> tuple[list[McqQuestion], StageCount]:
    """Remove pool items overlapping any evaluation stem, then deduplicate.

    Overlap means sharing any ``ngram_size``-word window after
    normalization. Items shorter than the window never match. Applying the
    stage twice equals applying it once.
    """
    if ngram_size < 1:
        raise CurationError(f"ngram_size must be >= 1, got {ngram_size}")
    eval_ngrams: set[tuple[str, ...]] = set()
    for eval_set in eval_sets:
        for q in eval_set:
            eval_ngrams.update(_windows(_normalized_words(q.stem), ngram_size))

    clean = []
    for q in pool:
        words = _normalized_words(q.stem)
        if eval_ngrams.isdisjoint(_windows(words, ngram_size)):
            clean.append((" ".join(words), q))  # the dedup key, normalize_text(q.stem)
    deduped = _first_per_key(clean)
    params = {
        "ngram_size": ngram_size,
        "normalization": "lowercase, punctuation stripped, whitespace collapsed",
    }
    return deduped, StageCount("decontamination_dedup", source_counts(deduped), params)


@dataclass
class SamplingPlan:
    """Hierarchical strata for diversity sampling: domain -> dataset -> ids.

    Within the whole plan an item id belongs to exactly one dataset; an
    item may appear under several domains and is removed from all of them
    once drawn.
    """

    target_n: int
    seed: int
    strata: dict[str, dict[str, list[str]]]

    def __post_init__(self) -> None:
        dataset_of: dict[str, str] = {}
        for domain, datasets in self.strata.items():
            for dataset, ids in datasets.items():
                for item in ids:
                    if dataset_of.get(item, dataset) != dataset:
                        raise CurationError(
                            f"item {item!r} appears under both {dataset_of[item]!r} and {dataset!r}"
                        )
                    dataset_of[item] = dataset
        self.pool_size = len(dataset_of)
        if self.target_n > self.pool_size:
            raise CurationError(
                f"target_n={self.target_n} exceeds pool size {self.pool_size}"
            )
        if self.target_n < 0:
            raise CurationError("target_n must be >= 0")

    @classmethod
    def from_questions(cls, questions: Sequence[McqQuestion], target_n: int, seed: int) -> "SamplingPlan":
        strata: dict[str, dict[str, list[str]]] = {}
        for q in questions:
            domains = q.domains or [UNLABELED_DOMAIN]
            for domain in domains:
                strata.setdefault(domain, {}).setdefault(q.source, []).append(q.id)
        return cls(target_n=target_n, seed=seed, strata=strata)


def diversity_sample(plan: SamplingPlan) -> tuple[list[tuple[str, str]], StageCount]:
    """Draw ``target_n`` items: a uniform domain (among nonempty ones), a
    uniform dataset within it, then a uniform item without replacement.

    Deterministic given the plan seed: every draw is the BLAKE2b counter
    rule of ``_CounterDraws``, with rejected words counted. Returns
    (item id, dataset) pairs in draw order plus the per-dataset report row.
    """
    rng = _CounterDraws(plan.seed)

    pools: dict[tuple[str, str], list[str]] = {}
    position: dict[tuple[str, str], dict[str, int]] = {}
    memberships: dict[str, list[tuple[str, str]]] = {}
    for domain in sorted(plan.strata):
        for dataset in sorted(plan.strata[domain]):
            ids = sorted(plan.strata[domain][dataset])
            key = (domain, dataset)
            pools[key] = list(ids)
            position[key] = {item: i for i, item in enumerate(ids)}
            for item in ids:
                memberships.setdefault(item, []).append(key)

    domains = sorted(plan.strata)
    domain_remaining = {
        d: sum(len(pools[(d, s)]) for s in plan.strata[d]) for d in domains
    }

    def remove(item: str) -> None:
        for key in memberships[item]:
            pool = pools[key]
            pos = position[key]
            i = pos.pop(item)
            last = pool.pop()
            if last != item:
                pool[i] = last
                pos[last] = i
            domain_remaining[key[0]] -= 1

    selected: list[tuple[str, str]] = []
    for _ in range(plan.target_n):
        live_domains = [d for d in domains if domain_remaining[d] > 0]
        domain = live_domains[rng.integers(len(live_domains))]
        live_datasets = [s for s in sorted(plan.strata[domain]) if pools[(domain, s)]]
        dataset = live_datasets[rng.integers(len(live_datasets))]
        pool = pools[(domain, dataset)]
        item = pool[rng.integers(len(pool))]
        remove(item)
        selected.append((item, dataset))

    counts: dict[str, int] = {}
    for _, dataset in selected:
        counts[dataset] = counts.get(dataset, 0) + 1
    params = {"rng": SAMPLER_RNG, "seed": plan.seed, "target_n": plan.target_n}
    return selected, StageCount("diversity_sampling", counts, params)


def annotate_domains(
    questions: Sequence[McqQuestion], lexicon: Mapping[str, str]
) -> list[McqQuestion]:
    """Label questions with every qualifier whose lexicon terms appear in
    the stem (word-boundary match); unmatched items get ``Unlabeled``.

    One search per qualifier, for ``\\b(?:t1|t2|...)\\b`` over its escaped
    terms: alternation backtracks, so it matches wherever some ``\\bti\\b``
    would, and the labels equal those of one search per term.

    Terms with no whitespace are searched once per distinct whitespace-
    separated token, whose labels are cached; the rest, the empty term
    included, over the whole stem. Exact: whitespace is never a word
    character, so ``\\b`` at a token's edge is ``\\b`` in the stem, and no
    whitespace character is IGNORECASE-equal to any other, so a term with no
    whitespace matches only inside one token. A new token is first searched
    for all those terms at once, so one that matches none costs one search
    and shares one empty label set. The cache holds every distinct token of
    the call's stems."""
    if not lexicon:
        raise CurationError("lexicon must be nonempty")
    token_terms: dict[str, list[str]] = {}
    stem_terms: dict[str, list[str]] = {}
    for term, qualifier in lexicon.items():
        group = token_terms if term.split() == [term] else stem_terms
        group.setdefault(qualifier, []).append(re.escape(term))
    any_token_term = _word_alternation([alt for alts in token_terms.values() for alt in alts])
    token_patterns, stem_patterns = (
        [(_word_alternation(alts), qualifier) for qualifier, alts in terms.items()]
        for terms in (token_terms, stem_terms)
    )
    no_labels: frozenset[str] = frozenset()
    labels_of: dict[str, frozenset[str]] = {}
    annotated = []
    for q in questions:
        labels = {qualifier for pattern, qualifier in stem_patterns if pattern.search(q.stem)}
        for token in q.stem.split():
            hits = labels_of.get(token)
            if hits is None:
                hits = labels_of[token] = (
                    frozenset(qualifier for pattern, qualifier in token_patterns if pattern.search(token))
                    if any_token_term.search(token)
                    else no_labels
                )
            labels |= hits
        annotated.append(McqQuestion(q.id, q.stem, q.options, q.gold, q.source, sorted(labels) or [UNLABELED_DOMAIN]))
    return annotated


def _word_alternation(escaped_terms: list[str]) -> re.Pattern[str]:
    return re.compile(rf"\b(?:{'|'.join(escaped_terms)})\b", re.IGNORECASE)


def format_sft_example(record: TraceRecord) -> str:
    """Render a verified trace as one fine-tuning example.

    Layout: question prompt, think marker, thinking, answer marker,
    response, joined by single newlines. Refuses unverified records and any
    field containing a literal marker (delimiter hygiene).
    """
    if not record.verified:
        raise CurationError(f"record {record.question.id!r} is not verified")
    prompt = format_prompt(record.question)
    for marker in (THINK_MARKER, ANSWER_MARKER):
        for label, text in (("prompt", prompt), ("thinking", record.thinking), ("response", record.response)):
            if marker in text:
                raise CurationError(
                    f"record {record.question.id!r}: {label} contains the literal marker {marker!r}"
                )
    return "\n".join([prompt, THINK_MARKER, record.thinking, ANSWER_MARKER, record.response])
