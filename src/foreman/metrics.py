"""Similarity and evaluation metrics over tokenized plans.

Standard formulations of BLEU, ROUGE-1/2/L and METEOR, implemented from
scratch over the closed plan-token vocabulary and documented with worked
examples in METRICS.md:

* BLEU: geometric mean of modified n-gram precisions (n up to 4, uniform
  weights) times a brevity penalty; no smoothing by default.
* ROUGE-1/2: F1 over clipped n-gram overlap; ROUGE-L: F1 over the longest
  common subsequence.
* METEOR: exact-match unigram variant, F_mean = 10PR/(R+9P), fragmentation
  penalty 0.5*(chunks/matches)^3.

Plan tokens are a closed vocabulary, so exact matching is the right
alignment; there is no stemming or synonymy here.
"""

from __future__ import annotations

import math
from collections import Counter

from . import record
from .executor import execute, makespan
from .plan import Plan, tokenize_plan
from .repair import EditProfile, RepairResult
from .scenario import Scenario


class EmptyInput(ValueError):
    pass


Tokens = list[str]


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_overlap(candidate: Tokens, reference: Tokens, n: int) -> tuple[int, int, int]:
    cand, ref = _ngrams(candidate, n), _ngrams(reference, n)
    match = sum(min(count, ref[gram]) for gram, count in cand.items())
    return match, sum(cand.values()), sum(ref.values())


def bleu(candidate: Tokens, reference: Tokens, smoothing: str | None = None) -> float:
    """Sentence BLEU with n-gram orders 1..min(4, |candidate|).

    A zero precision at any order yields 0.0 unless ``smoothing='add-one'``.
    The brevity penalty exp(1 - |ref|/|cand|) applies when the candidate is
    shorter than the reference.
    """
    if not reference:
        raise EmptyInput("BLEU reference must be nonempty")
    if not candidate:
        return 0.0
    max_n = min(4, len(candidate))
    log_sum = 0.0
    for n in range(1, max_n + 1):
        match, total, _ = _clipped_overlap(candidate, reference, n)
        if smoothing == "add-one":
            precision = (match + 1) / (total + 1)
        else:
            if match == 0:
                return 0.0
            precision = match / total
        log_sum += math.log(precision)
    geo_mean = math.exp(log_sum / max_n)
    bp = 1.0 if len(candidate) >= len(reference) else math.exp(1 - len(reference) / len(candidate))
    return bp * geo_mean


def _f1(p: float, r: float) -> float:
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def _lcs_length(a: Tokens, b: Tokens) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge(candidate: Tokens, reference: Tokens, variant: str) -> float | None:
    """ROUGE F1; variant is 'r1', 'r2' or 'rl'.

    ROUGE-2 returns None when either sequence has fewer than 2 tokens.
    """
    if not candidate or not reference:
        raise EmptyInput("ROUGE inputs must be nonempty")
    variant = variant.lower()
    if variant in ("r1", "r2"):
        n = 1 if variant == "r1" else 2
        if n == 2 and (len(candidate) < 2 or len(reference) < 2):
            return None
        match, cand_total, ref_total = _clipped_overlap(candidate, reference, n)
        return _f1(match / cand_total, match / ref_total)
    if variant == "rl":
        lcs = _lcs_length(candidate, reference)
        return _f1(lcs / len(candidate), lcs / len(reference))
    raise ValueError(f"unknown ROUGE variant {variant!r}")


def _meteor_alignment(candidate: Tokens, reference: Tokens) -> tuple[int, int]:
    """Greedy exact-match alignment: returns (matches, chunks).

    Walks the candidate left to right, mapping each token to an unused
    reference position with the same surface form, preferring the position
    that continues the current chunk.  Matches equal the clipped unigram
    overlap; the chunk count is the number of contiguous aligned runs.
    """
    available: dict[str, list[int]] = {}
    for idx, tok in enumerate(reference):
        available.setdefault(tok, []).append(idx)
    used: set[int] = set()
    chunks = 0
    matches = 0
    prev_ref = None
    for tok in candidate:
        slots = [i for i in available.get(tok, ()) if i not in used]
        if not slots:
            prev_ref = None
            continue
        if prev_ref is not None and prev_ref + 1 in slots:
            pick = prev_ref + 1
        else:
            pick = slots[0]
            chunks += 1
        used.add(pick)
        matches += 1
        prev_ref = pick
    return matches, chunks


def meteor(candidate: Tokens, reference: Tokens) -> float:
    """Exact-match unigram METEOR; zero matches yield 0.0."""
    if not candidate or not reference:
        raise EmptyInput("METEOR inputs must be nonempty")
    matches, chunks = _meteor_alignment(candidate, reference)
    if matches == 0:
        return 0.0
    p = matches / len(candidate)
    r = matches / len(reference)
    f_mean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1 - penalty)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@record()
class SimilarityScores:
    bleu: float
    rouge1: float
    rouge2: float | None
    rougeL: float
    meteor: float

    def to_dict(self) -> dict:
        return {
            "bleu": round(self.bleu, 4),
            "rouge1": round(self.rouge1, 4),
            "rouge2": round(self.rouge2, 4) if self.rouge2 is not None else None,
            "rougeL": round(self.rougeL, 4),
            "meteor": round(self.meteor, 4),
        }


def similarity(candidate: Tokens, reference: Tokens, smoothing: str | None = None) -> SimilarityScores:
    return SimilarityScores(
        bleu=bleu(candidate, reference, smoothing),
        rouge1=rouge(candidate, reference, "r1"),
        rouge2=rouge(candidate, reference, "r2"),
        rougeL=rouge(candidate, reference, "rl"),
        meteor=meteor(candidate, reference),
    )


@record()
class EvalReport:
    scores: SimilarityScores | None
    fr: float
    edits: EditProfile
    makespan_tu: float
    makespan_delta: float


def eval_run(s: Scenario, draft: Plan, result: RepairResult) -> EvalReport:
    """Aggregate one draft -> repair run into the per-run metric row.

    Similarity compares the corrected plan (candidate) against the draft
    (reference) over action/location tokens; it is None when either plan
    is empty, since no score is defined then.  The edit profile is the
    run's own draft -> final script (empty when the run found no plan).
    FR is 1.0 iff the run ended in a plan that validates with zero
    violations.
    """
    final = result.plan if result.feasible else draft
    final_tokens, draft_tokens = tokenize_plan(final), tokenize_plan(draft)
    scores = similarity(final_tokens, draft_tokens) if final_tokens and draft_tokens else None
    ms_final = makespan(execute(s, final))
    ms_draft = ms_final if final is draft else makespan(execute(s, draft))
    return EvalReport(
        scores=scores,
        fr=1.0 if result.feasible else 0.0,
        edits=result.script.profile if result.script is not None else EditProfile(),
        makespan_tu=ms_final,
        makespan_delta=ms_final - ms_draft,
    )
