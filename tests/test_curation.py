from __future__ import annotations

import hashlib
import random
import re
import string
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_json_round_trip, json_text, json_values, load_fixture
from thinkctl.budget import ANSWER_MARKER, THINK_MARKER
from thinkctl import client
from thinkctl.client import ConnectionFailure, ScriptEntry, ScriptedModel
from thinkctl.curation import (
    CurationError,
    CurationReport,
    SamplingPlan,
    StageCount,
    TraceRecord,
    _CounterDraws,
    annotate_domains,
    decontaminate,
    deduplicate,
    difficulty_filter,
    diversity_sample,
    format_sft_example,
    normalize_text,
    source_counts,
    validate_traces,
)
from thinkctl.qa import McqQuestion, format_prompt


def question(qid: str, stem: str, gold: str = "A", source: str = "src", domains=None) -> McqQuestion:
    return McqQuestion(
        id=qid,
        stem=stem,
        options={"A": "one", "B": "two", "C": "three", "D": "four"},
        gold=gold,
        source=source,
        domains=domains or [],
    )


def grader_for(verdicts: dict[str, bool], pool) -> ScriptedModel:
    """Scripted grader: answers gold iff verdicts[qid], else a wrong letter."""
    entries = []
    for q in pool:
        letter = q.gold if verdicts[q.id] else ("B" if q.gold != "B" else "C")
        entries.append(ScriptEntry(format_prompt(q), f"\\boxed{{{letter}}}", None))
    entries.append(ScriptEntry("", "", None))
    return ScriptedModel(tuple(entries))


# --- difficulty filter --------------------------------------------------------


def test_question_correct_for_one_grader_is_excluded():
    pool = [question("q1", "stem one"), question("q2", "stem two")]
    g1 = grader_for({"q1": True, "q2": False}, pool)
    g2 = grader_for({"q1": False, "q2": False}, pool)
    kept, row = difficulty_filter(pool, [g1, g2])
    assert [q.id for q in kept] == ["q2"]
    assert row.counts == {"src": 1}


def test_question_missed_by_all_graders_is_kept():
    pool = [question("q1", "stem one")]
    graders = [grader_for({"q1": False}, pool), grader_for({"q1": False}, pool)]
    kept, _ = difficulty_filter(pool, graders)
    assert [q.id for q in kept] == ["q1"]


def test_grader_hard_failure_counts_as_incorrect(monkeypatch):
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)

    class Broken:
        def raw_stream(self, req):
            from thinkctl.client import ConnectionFailure

            raise ConnectionFailure("always down")
            yield  # pragma: no cover

    pool = [question("q1", "stem one")]
    kept, row = difficulty_filter(pool, [Broken()])
    assert [q.id for q in kept] == ["q1"]
    assert row.params == {"grader_failures": 1}


class OutageGrader:
    """Serves ``model``, appends ``(name, prompt)`` to the shared ``log``
    for every request, and fails the first request for ``fail_on`` once
    with a retryable error."""

    def __init__(self, name: str, model: ScriptedModel, log: list, fail_on: str | None = None):
        self.name, self.model, self.log, self.fail_on = name, model, log, fail_on

    def raw_stream(self, req):
        self.log.append((self.name, req.prompt))
        if req.prompt == self.fail_on:
            self.fail_on = None
            raise ConnectionFailure("grader refused")
        yield from self.model.raw_stream(req)


def test_a_grader_backoff_holds_no_worker(monkeypatch):
    """q00's first probe fails once. Its retry waits out the backoff while
    the one worker sends every other first probe, and the verdicts are a
    reference run's."""
    monkeypatch.setattr(client, "BACKOFF_S", 0.2)
    pool = [question(f"q{i:02d}", f"stem {i}?") for i in range(6)]
    model = grader_for({q.id: i % 2 == 0 for i, q in enumerate(pool)}, pool)
    sent = []
    ref_kept, ref_row = difficulty_filter(pool, [OutageGrader("g1", model, [])], workers=1)
    kept, row = difficulty_filter(pool, [OutageGrader("g1", model, sent, format_prompt(pool[0]))], workers=1)
    assert (kept, row) == (ref_kept, ref_row)
    assert row.params is None  # the retry answered, so no probe failed
    assert [prompt for _, prompt in sent] == [format_prompt(q) for q in [*pool, pool[0]]]


def test_a_retried_probe_keeps_later_graders_from_probing_what_it_answered(monkeypatch):
    """Grader 1 fails q00 once and then answers it correctly, so grader 2
    never probes q00. Grader 1's round, retry included, ends before
    grader 2 sends a probe."""
    monkeypatch.setattr(client, "BACKOFF_S", 0.0)
    pool = [question(f"q{i:02d}", f"stem {i}?") for i in range(4)]
    sent = []
    g1 = OutageGrader("g1", grader_for({"q00": True, "q01": False, "q02": True, "q03": False}, pool), sent, format_prompt(pool[0]))
    g2 = OutageGrader("g2", grader_for({q.id: False for q in pool}, pool), sent)
    kept, row = difficulty_filter(pool, [g1, g2], workers=1)
    assert [q.id for q in kept] == ["q01", "q03"]
    assert row.params is None
    assert sent == [
        *(("g1", format_prompt(q)) for q in [pool[0], *pool]),  # a retry due at once goes first
        *(("g2", format_prompt(q)) for q in (pool[1], pool[3])),
    ]


def test_difficulty_filter_requires_a_grader():
    with pytest.raises(CurationError):
        difficulty_filter([question("q1", "s")], [])


def test_difficulty_filter_matches_bruteforce_on_random_verdicts():
    rng = random.Random(7)
    for _ in range(20):
        n_q = rng.randint(1, 30)
        n_g = rng.randint(1, 3)
        pool = [question(f"q{i:03d}", f"unique stem {i}") for i in range(n_q)]
        verdicts = {q.id: [rng.random() < 0.4 for _ in range(n_g)] for q in pool}
        graders = [grader_for({qid: v[g] for qid, v in verdicts.items()}, pool) for g in range(n_g)]
        kept, _ = difficulty_filter(pool, graders)
        expected = sorted(q.id for q in pool if not any(verdicts[q.id]))
        assert [q.id for q in kept] == expected


def test_difficulty_filter_worker_count_does_not_change_result():
    pool = [question(f"q{i}", f"stem number {i}") for i in range(12)]
    verdicts = {q.id: (i % 3 == 0) for i, q in enumerate(pool)}
    graders = [grader_for(verdicts, pool)]
    seq, _ = difficulty_filter(pool, graders, workers=1)
    par, _ = difficulty_filter(pool, graders, workers=4)
    assert [q.id for q in seq] == [q.id for q in par]


def test_a_fatal_grader_error_cancels_the_queued_questions():
    """An error that is not a backend error ends the stage; the questions
    still queued are never graded."""

    class Fatal:
        def __init__(self):
            self.graded = []
            self.lock = threading.Lock()

        def raw_stream(self, req):
            if "stem 0?" in req.prompt:
                raise RuntimeError("bad grader")
            with self.lock:
                self.graded.append(req.prompt)
            time.sleep(0.02)  # the questions already started outlast the cancel
            yield "\\boxed{B}"

    pool = [question(f"q{i:02d}", f"stem {i}?") for i in range(20)]
    grader = Fatal()
    with pytest.raises(RuntimeError, match="bad grader"):
        difficulty_filter(pool, [grader], workers=2)
    assert len(grader.graded) < 5
    assert not any("stem 19?" in prompt for prompt in grader.graded)


# --- trace validation -----------------------------------------------------------


def trace(qid: str, extracted, gold="A", source="src") -> TraceRecord:
    q = question(qid, f"stem {qid}", gold=gold, source=source)
    return TraceRecord(q, "because reasons", f"\\boxed{{{extracted}}}" if extracted else "no answer")


def test_validate_traces_keeps_correct_only():
    records = [trace("t1", "A"), trace("t2", "B"), trace("t3", None)]
    assert [(r.extracted, r.verified) for r in records] == [("A", True), ("B", False), (None, False)]
    kept, row = validate_traces(records)
    assert [r.question.id for r in kept] == ["t1"]
    assert row.total == 1


def test_trace_consistency_enforced():
    # the constructor takes no verdict, so none can disagree with the response
    q = question("t1", "stem")
    with pytest.raises(TypeError):
        TraceRecord(q, "", "", extracted="A", verified=True)
    record = TraceRecord(q, "", "")
    assert (record.extracted, record.verified) == (None, False)


def test_trace_from_response_extracts_and_verifies():
    # oracle: a trace's verdict is extract_answer's letter of its response,
    # graded against each gold letter in turn
    for case in load_fixture("extraction_cases.jsonl"):
        options = case.get("options") or dict.fromkeys(case["letters"], "")
        for gold in options:
            q = McqQuestion(id=case["name"], stem="stem", options=options, gold=gold)
            record = TraceRecord(q, "", case["text"])
            assert record.extracted == case["letter"], case["name"]
            assert record.verified == (case["letter"] == gold), (case["name"], gold)


# --- decontamination and dedup ---------------------------------------------------


def long_stem(seed_word: str) -> str:
    # ten distinct words so stems from different seeds share no 8-gram
    return " ".join(f"{seed_word}{i}" for i in range(10))


def test_planted_duplicate_is_removed():
    eval_q = question("e1", long_stem("shared"), source="eval")
    pool = [question("p1", long_stem("shared")), question("p2", long_stem("fresh"))]
    clean, row = decontaminate(pool, [[eval_q]])
    assert [q.id for q in clean] == ["p2"]
    assert row.params["ngram_size"] == 8


def test_short_stems_never_match():
    eval_q = question("e1", "too short to overlap", source="eval")
    pool = [question("p1", "too short to overlap")]
    clean, _ = decontaminate(pool, [[eval_q]])
    assert len(clean) == 1  # under the 8-word window, so no n-grams exist


def test_near_duplicates_normalize_together():
    pool = [
        question("p1", "Trailing whitespace question   "),
        question("p2", "trailing WHITESPACE question"),
    ]
    kept, _ = deduplicate(pool)
    assert [q.id for q in kept] == ["p1"]


def test_decontaminate_is_idempotent():
    eval_q = question("e1", long_stem("shared"), source="eval")
    pool = [
        question("p1", long_stem("shared")),
        question("p2", long_stem("fresh")),
        question("p3", long_stem("fresh")),
    ]
    once, _ = decontaminate(pool, [[eval_q]])
    twice, _ = decontaminate(once, [[eval_q]])
    assert [q.id for q in once] == [q.id for q in twice] == ["p2"]


def reference_word_ngrams(text: str, n: int) -> set[str]:
    # the n-grams decontaminate built before it compared tuples of words
    words = text.split()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def _variant(stem: str, upper: bool, punct: str) -> str:
    # the same normalized stem: case and punctuation differ
    words = stem.split()
    return " ".join(w.upper() if upper and i % 2 else w for i, w in enumerate(words)) + punct


@given(
    picks=st.lists(
        st.tuples(st.integers(0, 5), st.booleans(), st.sampled_from(["", "?", "!", " ...", ", ok."])),
        max_size=14,
    ),
    n=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_decontaminate_equals_filter_then_deduplicate(picks, n):
    bases = [
        "alpha beta gamma delta",
        "beta gamma delta epsilon",
        "zeta eta theta iota",
        "kappa lambda mu",
        "alpha beta zeta eta",
        "nu xi omicron pi rho",
    ]
    eval_sets = [[question("e1", "Gamma, delta epsilon!", source="eval")], [question("e2", "mu nu xi", source="eval")]]
    pool = [question(f"p{i:02d}", _variant(bases[b], upper, punct), source=f"s{b % 2}") for i, (b, upper, punct) in enumerate(picks)]

    eval_ngrams = set().union(*(reference_word_ngrams(normalize_text(q.stem), n) for s in eval_sets for q in s))
    clean = [q for q in pool if not reference_word_ngrams(normalize_text(q.stem), n) & eval_ngrams]
    expected, _ = deduplicate(clean)

    got, row = decontaminate(pool, eval_sets, ngram_size=n)
    assert got == expected
    assert row.counts == source_counts(expected)


def test_dedup_is_idempotent():
    pool = [question("p1", "same stem here"), question("p2", "same stem here")]
    once, _ = deduplicate(pool)
    twice, _ = deduplicate(once)
    assert [q.id for q in once] == [q.id for q in twice] == ["p1"]


def test_normalize_text_pipeline():
    assert normalize_text("  A  B!  c? ") == "a b c"
    assert normalize_text("end.Start") == "end start"


# whitespace other than the space: tab, no-break, next line, ogham and em spaces
WHITESPACE_VARIANTS = "\t\u00a0\u0085\u1680\u2003"
# the final sigma's context rule, a soft hyphen (case-ignorable), and dotted
# and dotless i, whose lowercase forms differ in length
NORMALIZE_ALPHABET = "aAbBΣσς\u00ad'İı.,!?-() " + WHITESPACE_VARIANTS
PUNCTUATION_TO_SPACE = str.maketrans(string.punctuation, " " * len(string.punctuation))


def reference_normalize(text: str) -> str:
    return " ".join(text.lower().translate(PUNCTUATION_TO_SPACE).split())


@given(
    stems=st.lists(st.text(alphabet=NORMALIZE_ALPHABET, max_size=12), max_size=10),
    eval_stems=st.lists(st.text(alphabet=NORMALIZE_ALPHABET, max_size=12), max_size=3),
    n=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=300, deadline=None)
@example(stems=["AΣ.B", "aς b", "AΣ\u00a0B"], eval_stems=["aσ b"], n=2)  # the sigma's case rests on its context
def test_dedup_and_decontaminate_match_normalize_text(stems, eval_stems, n):
    # normalize_text strips punctuation by regex; the reference by str.translate
    assert [normalize_text(stem) for stem in stems] == [reference_normalize(stem) for stem in stems]
    pool = [question(f"p{i:02d}", stem, source=f"s{i % 2}") for i, stem in enumerate(stems)]
    eval_sets = [[question(f"e{i}", stem, source="eval") for i, stem in enumerate(eval_stems)]]
    eval_ngrams = set().union(*(reference_word_ngrams(reference_normalize(stem), n) for stem in eval_stems))
    first: dict[str, McqQuestion] = {}
    clean: dict[str, McqQuestion] = {}
    for q in pool:
        key = reference_normalize(q.stem)
        first.setdefault(key, q)
        if eval_ngrams.isdisjoint(reference_word_ngrams(key, n)):
            clean.setdefault(key, q)
    assert deduplicate(pool)[0] == list(first.values())
    assert decontaminate(pool, eval_sets, ngram_size=n)[0] == list(clean.values())


def test_unicode_facts_behind_the_token_split():
    # annotate_domains searches terms without whitespace per whitespace
    # token; these facts of the Unicode database make that exact
    whitespace = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert set(WHITESPACE_VARIANTS + " \n") <= set(whitespace)
    for w in whitespace:
        assert re.fullmatch(r"\W", w), f"{w!r} is a word character"
    others = "".join(chr(c) for c in range(sys.maxunicode + 1) if not chr(c).isspace())
    whitespace_class = "[" + "".join(map(re.escape, whitespace)) + "]"
    assert re.search(whitespace_class, others, re.IGNORECASE) is None


# --- diversity sampling -----------------------------------------------------------


def plan_from(strata, target_n, seed=42) -> SamplingPlan:
    return SamplingPlan(target_n=target_n, seed=seed, strata=strata)


def documented_draws(seed: int, n: int, count: int) -> tuple[list[int], int]:
    """The sampler's documented rule, recomputed: draw i, counting rejected
    words, reads a BLAKE2b word of ``f"{seed}:{i}"``. Returns the first
    ``count`` draws and the number of words rejected on the way."""
    draws, rejected, i = [], 0, 0
    while len(draws) < count:
        w = int.from_bytes(hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).digest(), "little")
        i += 1
        if w < 2**64 - 2**64 % n:
            draws.append(w % n)
        else:
            rejected += 1
    return draws, rejected


@pytest.mark.parametrize("n", [1, 2, 3, 7, 2**63 + 1])
@pytest.mark.parametrize("seed", [0, 42, 2**70 + 3])
def test_sampler_draws_follow_the_documented_rule(seed, n):
    expected, rejected = documented_draws(seed, n, 500)
    rng = _CounterDraws(seed)
    assert [rng.integers(n) for _ in range(500)] == expected
    if n == 2**63 + 1:
        # just under half of all words are rejected, about one per accepted draw
        assert 400 < rejected < 600


def test_one_item_per_domain_forces_whole_pool():
    strata = {f"dom{i}": {"ds": [f"item{i}"]} for i in range(5)}
    for seed in (0, 1, 99):
        selected, _ = diversity_sample(plan_from(strata, 5, seed))
        assert sorted(item for item, _ in selected) == sorted(f"item{i}" for i in range(5))


def test_target_exceeding_pool_errors_before_drawing():
    strata = {
        "d1": {"ds1": [f"a{i}" for i in range(50)], "ds2": [f"b{i}" for i in range(50)]},
        "d2": {"ds1": [f"c{i}" for i in range(50)], "ds2": [f"d{i}" for i in range(50)]},
    }
    with pytest.raises(CurationError):
        plan_from(strata, 1000)


def test_sampling_is_deterministic_per_seed():
    strata = {
        "d1": {"ds1": [f"a{i}" for i in range(30)]},
        "d2": {"ds1": [f"b{i}" for i in range(30)]},
    }
    first, _ = diversity_sample(plan_from(strata, 20, seed=123))
    second, _ = diversity_sample(plan_from(strata, 20, seed=123))
    other, _ = diversity_sample(plan_from(strata, 20, seed=124))
    assert first == second
    assert first != other


def test_sampling_without_replacement():
    strata = {"d1": {"ds1": [f"a{i}" for i in range(40)]}}
    selected, _ = diversity_sample(plan_from(strata, 40))
    ids = [item for item, _ in selected]
    assert len(set(ids)) == len(ids) == 40


def test_multi_domain_item_removed_from_all_strata():
    strata = {
        "d1": {"ds1": ["shared", "x1"]},
        "d2": {"ds1": ["shared", "x2"]},
    }
    selected, _ = diversity_sample(plan_from(strata, 3))
    ids = [item for item, _ in selected]
    assert sorted(ids) == ["shared", "x1", "x2"]


def test_plan_rejects_item_in_two_datasets():
    with pytest.raises(CurationError):
        plan_from({"d1": {"ds1": ["x"], "ds2": ["x"]}}, 1)


def test_report_row_counts_by_dataset():
    strata = {"d1": {"ds1": ["a1", "a2"], "ds2": ["b1"]}}
    selected, row = diversity_sample(plan_from(strata, 3))
    assert row.counts == {"ds1": 2, "ds2": 1}
    assert row.params["rng"] == "blake2b-counter"


def test_exhausted_domains_are_skipped():
    strata = {
        "tiny": {"ds": ["only"]},
        "big": {"ds": [f"b{i}" for i in range(20)]},
    }
    selected, _ = diversity_sample(plan_from(strata, 15))
    assert len(selected) == 15


def sample_domain_counts(per_domain: int, target: int, seed: int) -> dict[str, int]:
    strata = {f"d{k}": {"ds": [f"d{k}-i{i}" for i in range(per_domain)]} for k in range(4)}
    selected, _ = diversity_sample(plan_from(strata, target, seed))
    counts = {f"d{k}": 0 for k in range(4)}
    for item, _ in selected:
        counts[item.split("-")[0]] += 1
    return counts


def test_ample_pool_domain_counts_within_simulated_bound():
    # sim-derived: for ample equal pools the per-domain count is
    # multinomial(400, 1/4); |count-100| <= 30 held in >= 99.8% of seeds
    hits = 0
    for seed in range(300):
        counts = sample_domain_counts(1000, 400, seed)
        if all(70 <= c <= 130 for c in counts.values()):
            hits += 1
    assert hits / 300 >= 0.97


def test_plan_from_questions_groups_by_domain_and_source():
    qs = [
        question("q1", "s1", source="ds1", domains=["cardio"]),
        question("q2", "s2", source="ds2", domains=["cardio", "renal"]),
        question("q3", "s3", source="ds1", domains=[]),
    ]
    plan = SamplingPlan.from_questions(qs, target_n=3, seed=1)
    assert set(plan.strata) == {"cardio", "renal", "Unlabeled"}
    assert plan.strata["cardio"]["ds2"] == ["q2"]
    assert plan.strata["Unlabeled"]["ds1"] == ["q3"]
    selected, _ = diversity_sample(plan)
    assert sorted(item for item, _ in selected) == ["q1", "q2", "q3"]


# --- domain annotation -------------------------------------------------------------


def test_direct_lexicon_hit():
    qs = [question("q1", "Options for chemotherapy dosing.")]
    annotated = annotate_domains(qs, {"chemotherapy": "Drug Therapy"})
    assert annotated[0].domains == ["Drug Therapy"]


def test_no_hit_gets_unlabeled():
    qs = [question("q1", "Nothing medical at all.")]
    annotated = annotate_domains(qs, {"chemotherapy": "Drug Therapy"})
    assert annotated[0].domains == ["Unlabeled"]


def test_empty_lexicon_rejected():
    with pytest.raises(CurationError):
        annotate_domains([question("q1", "stem")], {})


# prefixes of each other, one term in two cases, regex metacharacters,
# non-word edges, characters whose case folding is irregular, terms with
# inner or edge whitespace, and the empty term. U+0345 is the one non-word
# character that IGNORECASE matches to word characters (iota in both cases).
ANNOTATE_TERMS = [
    "heart", "Heart failure", "HEART", "c++", "-itis", "5µg", "ſ", "s", "K", "k", "\u212a", "İ", "i", "µ", "μ",
    "heart\u00a0failure", "heart\tfailure", " s", "i ", "", "\u0345", "ι", "Ι", "ι\u0345",
]  # fmt: skip
ANNOTATE_ALPHABET = "aehilrt FK+-5µμgſsSk\u212aİıi.\u0345ιΙ" + WHITESPACE_VARIANTS  # \u212a: the Kelvin sign
ANNOTATE_PIECES = st.one_of(st.sampled_from(ANNOTATE_TERMS), st.text(alphabet=ANNOTATE_ALPHABET, min_size=1, max_size=5))


@given(
    terms=st.lists(ANNOTATE_PIECES, min_size=1, max_size=12),
    qualifiers=st.lists(st.sampled_from(["Q1", "Q2", "Q3"]), min_size=12, max_size=12),
    one_per_term=st.booleans(),
    stems=st.lists(
        st.lists(ANNOTATE_PIECES | st.sampled_from([" ", "(", "-", *WHITESPACE_VARIANTS]), max_size=8).map("".join),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=300, deadline=None)
def test_annotation_matches_one_search_per_term(terms, qualifiers, one_per_term, stems):
    # either exactly one term per qualifier or many terms under few
    lexicon = {term: f"T{i}" if one_per_term else qualifiers[i] for i, term in enumerate(terms)}
    annotated = annotate_domains([question(f"q{i}", stem) for i, stem in enumerate(stems)], lexicon)
    for q, stem in zip(annotated, stems):
        hits = {qual for term, qual in lexicon.items() if re.search(rf"\b{re.escape(term)}\b", stem, re.IGNORECASE)}
        assert q.domains == (sorted(hits) or ["Unlabeled"])


def test_annotation_fixture_pool_exact_labels():
    fixture = load_fixture("domain_stems.json")
    qs = [question(f"q{i}", case["stem"]) for i, case in enumerate(fixture["cases"])]
    annotated = annotate_domains(qs, fixture["lexicon"])
    for got, case in zip(annotated, fixture["cases"]):
        assert got.domains == case["domains"], case["stem"]


def test_annotation_does_not_mutate_input():
    qs = [question("q1", "chemotherapy stem", domains=["old"])]
    annotate_domains(qs, {"chemotherapy": "Drug Therapy"})
    assert qs[0].domains == ["old"]


# --- fine-tuning example formatting ---------------------------------------------


def test_sft_example_contains_markers_once_in_order():
    record = trace("t1", "A")
    text = format_sft_example(record)
    assert text.count(THINK_MARKER) == 1
    assert text.count(ANSWER_MARKER) == 1
    assert text.index(THINK_MARKER) < text.index(ANSWER_MARKER)


def parse_sft_example(text: str) -> tuple[str, str, str]:
    """The inverse of ``format_sft_example``: split an example back into
    (prompt, thinking, response)."""
    head, _, rest = text.partition("\n" + THINK_MARKER + "\n")
    thinking, sep, response = rest.partition("\n" + ANSWER_MARKER + "\n")
    assert sep, "text is not a well-formed fine-tuning example"
    return head, thinking, response


def test_sft_round_trip():
    record = trace("t1", "A")
    text = format_sft_example(record)
    prompt, thinking, response = parse_sft_example(text)
    assert prompt == format_prompt(record.question)
    assert thinking == record.thinking
    assert response == record.response


def test_sft_refuses_unverified():
    with pytest.raises(CurationError):
        format_sft_example(trace("t1", "B"))


def test_sft_refuses_marker_contamination():
    q = question("t1", "stem")
    record = TraceRecord(q, f"sneaky {THINK_MARKER} inside", "\\boxed{A}")
    with pytest.raises(CurationError):
        format_sft_example(record)


# --- ledger report -----------------------------------------------------------------


def test_stage_total_is_per_source_sum():
    row = StageCount("s", {"a": 2, "b": 3})
    assert row.total == 5


def test_report_validate_rejects_increasing_totals():
    report = CurationReport()
    report.stages += [StageCount("first", {"a": 5}), StageCount("second", {"a": 9})]
    with pytest.raises(CurationError):
        report.validate()


@pytest.mark.parametrize("count", [-1, 1.5, 2.0, True, "3", None])
def test_report_validate_rejects_a_count_that_is_not_a_nonnegative_int(count):
    report = CurationReport()
    report.stages.append(StageCount("first", {"a": 5, "b": count}))
    with pytest.raises(CurationError, match="not a non-negative integer"):
        report.validate()


def test_report_from_dict_rejects_wrong_total():
    with pytest.raises(CurationError):
        CurationReport.from_dict(
            {"stages": [{"name": "s", "counts": {"a": 2, "b": 3}, "total": 6}]}
        )


# stage rows whose totals never increase, as the ledger requires
stage_rows = st.lists(
    st.builds(
        StageCount,
        json_text,
        st.dictionaries(json_text, st.integers(0, 10**12), max_size=3),
        st.none() | st.dictionaries(json_text, json_values, max_size=3),
    ),
    max_size=4,
).map(lambda rows: sorted(rows, key=lambda row: -row.total))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(report=st.builds(CurationReport, stage_rows), provenance=json_values)
@example(
    report=CurationReport([StageCount("first", {"a": 5, "b": 2}), StageCount("second", {"a": 3, "b": 1}, {"k": 1})]),
    provenance={},
)
def test_report_round_trip(report, provenance):
    assert_json_round_trip(report, CurationReport.to_dict, CurationReport.from_dict, provenance)


def test_live_pipeline_ledger_conservation():
    # a small end-to-end run whose report must reconcile at every stage
    pool = [
        question("q1", long_stem("alpha"), source="ds1"),
        question("q2", long_stem("beta"), source="ds1"),
        question("q3", long_stem("gamma"), source="ds2"),
        question("q4", long_stem("gamma"), source="ds2"),  # duplicate stem
        question("q5", long_stem("leaked"), source="ds2"),
    ]
    eval_set = [question("e1", long_stem("leaked"), source="eval")]
    graders = [grader_for({"q1": True, "q2": False, "q3": False, "q4": False, "q5": False}, pool)]

    report = CurationReport()
    report.stages.append(StageCount("initial_collection", source_counts(pool)))
    kept, row = difficulty_filter(pool, graders)
    report.stages.append(row)
    clean, row = decontaminate(kept, [eval_set])
    report.stages.append(row)
    plan = SamplingPlan.from_questions(clean, target_n=2, seed=3)
    _, row = diversity_sample(plan)
    report.stages.append(row)
    report.validate()
    totals = [stage.total for stage in report.stages]
    assert totals == [5, 4, 2, 2]
    for stage in report.stages:
        assert stage.total == sum(stage.counts.values())
