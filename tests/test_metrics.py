import math
import random

import pytest

from foreman import metrics, validator
from foreman.executor import execute
from foreman.metrics import (
    EmptyInput,
    bleu,
    eval_run,
    meteor,
    rouge,
    similarity,
)
from foreman.plan import tokenize_plan
from foreman.repair import EditProfile, SearchSupervisor, repair_loop

# ---------------------------------------------------------------------------
# Hand-computed golden values.  Each expected number was derived by hand from
# the formulas before the implementation existed; the arithmetic is left
# inline so the derivation stays checkable.
# ---------------------------------------------------------------------------

A, B, C, D, E, F, X, Y = "a b c d e f x y".split()


def test_bleu_goldens():
    # 1. identical sequences
    assert bleu([A, B, C, D, E], [A, B, C, D, E]) == 1.0
    # 2. one substitution in five tokens: p3 = 0/3 -> hard zero
    assert bleu([A, B, X, D, E], [A, B, C, D, E]) == 0.0
    # 3. same pair, add-one smoothing:
    #    p1=(4+1)/(5+1), p2=(2+1)/(4+1), p3=(0+1)/(3+1), p4=(0+1)/(2+1)
    #    geo mean = (5/6 * 3/5 * 1/4 * 1/3)^(1/4) = (1/24)^(1/4)
    expected = (1.0 / 24.0) ** 0.25
    assert abs(bleu([A, B, X, D, E], [A, B, C, D, E], smoothing="add-one") - expected) < 1e-12
    # 4. perfect prefix, brevity penalty exp(1 - 5/3)
    assert abs(bleu([A, B, C], [A, B, C, D, E]) - math.exp(1 - 5 / 3)) < 1e-12
    # 5. zero unigram overlap
    assert bleu([X, Y], [A, B]) == 0.0
    # 6. one trailing extra token, no brevity penalty:
    #    (5/6 * 4/5 * 3/4 * 2/3)^(1/4) = (1/3)^(1/4)
    assert abs(bleu([A, B, C, D, E, F], [A, B, C, D, E]) - (1.0 / 3.0) ** 0.25) < 1e-12
    # 7. single-token sequences cap the n-gram order at 1
    assert bleu([A], [A]) == 1.0
    assert bleu([A], [B]) == 0.0


def test_bleu_empty_reference():
    with pytest.raises(EmptyInput, match="^BLEU reference must be nonempty$"):
        bleu([A], [])
    assert bleu([], [A]) == 0.0


def test_rouge_goldens():
    # 1. identical sequences
    assert rouge([A, B, C], [A, B, C], "r1") == 1.0
    assert rouge([A, B, C], [A, B, C], "r2") == 1.0
    assert rouge([A, B, C], [A, B, C], "rl") == 1.0
    # 2. disjoint token sets
    assert rouge([X, Y], [A, B], "r1") == 0.0
    assert rouge([X, Y], [A, B], "rl") == 0.0
    # 3. cand [a,b,x,c] vs ref [a,b,c,d,e]:
    #    LCS = [a,b,c] -> F1 = 2*(3/4)*(3/5) / ((3/4)+(3/5)) = 2/3
    assert abs(rouge([A, B, X, C], [A, B, C, D, E], "rl") - 2.0 / 3.0) < 1e-12
    #    unigrams match a,b,c as well -> same F1
    assert abs(rouge([A, B, X, C], [A, B, C, D, E], "r1") - 2.0 / 3.0) < 1e-12
    #    bigrams: only (a,b) -> F1 = 2*(1/3)*(1/4) / ((1/3)+(1/4)) = 2/7
    assert abs(rouge([A, B, X, C], [A, B, C, D, E], "r2") - 2.0 / 7.0) < 1e-12
    # 4. ROUGE-2 undefined below two tokens
    assert rouge([A], [A, B], "r2") is None
    # 5. repeated candidate tokens are clipped: P=1/3, R=1 -> F1 = 0.5
    assert abs(rouge([A, A, A], [A], "r1") - 0.5) < 1e-12
    # 6. reordering halves ROUGE-L: LCS=1, P=R=1/2 -> F1 = 0.5
    assert abs(rouge([B, A], [A, B], "rl") - 0.5) < 1e-12


def test_a_one_token_pair_has_no_rouge2():
    # every plan gives two tokens per step, so only a hand-built pair gets here
    assert similarity([A], [A]).to_dict() == {"bleu": 1.0, "rouge1": 1.0, "rouge2": None, "rougeL": 1.0, "meteor": 0.5}


def test_rouge_empty_inputs():
    with pytest.raises(EmptyInput):
        rouge([], [A], "r1")
    with pytest.raises(EmptyInput):
        rouge([A], [], "rl")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: rouge([A], [A], "r3"), ValueError, "unknown ROUGE variant 'r3'"),
        (lambda: meteor([], [A]), EmptyInput, "METEOR inputs must be nonempty"),
    ],
    ids=["rouge-variant", "meteor-empty"],
)
def test_api_only_argument_errors(call, error, message):
    # similarity() names only known variants, and rouge rejects empty input before meteor sees it
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_meteor_goldens():
    # 1. identical five tokens: one chunk, penalty 0.5*(1/5)^3 -> 0.996
    assert abs(meteor([A, B, C, D, E], [A, B, C, D, E]) - 0.996) < 1e-12
    # 2. zero overlap
    assert meteor([X, Y], [A, B]) == 0.0
    # 3. two swapped halves: m=4, chunks=2, P=R=1
    #    penalty = 0.5*(2/4)^3 = 0.0625 -> 0.9375
    assert abs(meteor([A, B, C, D], [C, D, A, B]) - 0.9375) < 1e-12
    # 4. one of two tokens matches: P=R=1/2, F = 10*(1/4)/(1/2 + 9/2) = 0.5,
    #    penalty = 0.5*(1/1)^3 -> score 0.25
    assert abs(meteor([A, X], [A, B]) - 0.25) < 1e-12
    # 5. one trailing extra token: P=3/4, R=1, F = 7.5/7.75,
    #    penalty = 0.5*(1/3)^3 -> (7.5/7.75)*(1 - 1/54)
    expected = (7.5 / 7.75) * (1 - 0.5 * (1 / 3) ** 3)
    assert abs(meteor([A, B, C, X], [A, B, C]) - expected) < 1e-12
    # 6. adjacent tail swap: greedy alignment gives 3 chunks
    #    penalty = 0.5*(3/4)^3 -> 1 - 0.2109375
    assert abs(meteor([A, B, C, D], [A, B, D, C]) - 0.7890625) < 1e-12


def test_meteor_identity_lower_bound():
    for m in (1, 2, 5, 9):
        toks = [f"t{i}" for i in range(m)]
        assert abs(meteor(toks, toks) - (1 - 0.5 / m**3)) < 1e-12


def test_boundedness_fuzz_ten_thousand_pairs():
    rng = random.Random(1234)
    alphabet = [A, B, C, D, E, X, Y]
    for _ in range(10_000):
        cand = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        values = [
            bleu(cand, ref),
            bleu(cand, ref, smoothing="add-one"),
            rouge(cand, ref, "r1"),
            rouge(cand, ref, "rl"),
            meteor(cand, ref),
        ]
        r2 = rouge(cand, ref, "r2")
        if r2 is not None:
            values.append(r2)
        assert all(0.0 <= v <= 1.0 for v in values), (cand, ref, values)


def test_identity_property_fuzz():
    rng = random.Random(99)
    for _ in range(200):
        toks = [rng.choice([A, B, C, D]) for _ in range(rng.randint(1, 10))]
        assert bleu(toks, toks) == 1.0
        assert rouge(toks, toks, "r1") == 1.0
        assert rouge(toks, toks, "rl") == 1.0
        m = len(toks)
        assert meteor(toks, toks) >= 1 - 0.5 / m**3 - 1e-12


# Frozen regression values for the shipped fixture pairs (computed by this
# implementation, pinned so fixture or metric drift is caught loudly).
FIXTURE_SCORES = {
    ("wall_assembly", "gemma"): (0.8555, 0.9000, 0.8979),
    ("wall_assembly", "llama"): (0.8555, 0.9000, 0.8997),
    ("wall_assembly", "mistral"): (0.8132, 0.8780, 0.8934),
    ("scan_grid", "gemma"): (0.6742, 0.8235, 0.9587),
    ("scan_grid", "llama"): (0.8612, 0.9333, 0.9857),
    ("scan_grid", "mistral"): (0.5156, 0.7368, 0.9320),
}


@pytest.mark.parametrize("scen,sup", sorted(FIXTURE_SCORES))
def test_fixture_pair_scores(request, scen, sup):
    draft = request.getfixturevalue(f"{'wall' if scen == 'wall_assembly' else 'grid'}_draft")
    cand = request.getfixturevalue(f"{'wall' if scen == 'wall_assembly' else 'grid'}_{sup}")
    sc = similarity(tokenize_plan(cand), tokenize_plan(draft))
    exp_bleu, exp_r1, exp_meteor = FIXTURE_SCORES[(scen, sup)]
    assert abs(sc.bleu - exp_bleu) < 5e-4
    assert abs(sc.rouge1 - exp_r1) < 5e-4
    assert abs(sc.meteor - exp_meteor) < 5e-4


def test_exp2_bleu_ordering(grid_draft, grid_gemma, grid_llama, grid_mistral):
    ref = tokenize_plan(grid_draft)
    scores = {
        name: bleu(tokenize_plan(p), ref)
        for name, p in [("gemma", grid_gemma), ("llama", grid_llama), ("mistral", grid_mistral)]
    }
    assert scores["llama"] > scores["gemma"] > scores["mistral"]


def test_eval_run_feasible_draft_scores_one(wall, wall_gemma):
    result = repair_loop(wall, wall_gemma, SearchSupervisor("minimal", 4))
    report = eval_run(wall, wall_gemma, result)
    assert report.fr == 1.0
    assert report.scores.bleu == 1.0
    assert report.scores.meteor >= 0.99  # identical plans, long token sequence
    assert report.edits == EditProfile()
    assert report.makespan_delta == 0.0


def test_eval_run_on_infeasible_loop_has_empty_edit_profile(wall, wall_draft):
    result = repair_loop(wall, wall_draft, SearchSupervisor("minimal", 1))
    assert not result.feasible and result.script is None
    report = eval_run(wall, wall_draft, result)
    assert report.fr == 0.0
    assert report.edits == EditProfile()
    assert report.makespan_delta == 0.0


def test_eval_run_executes_each_plan_once(monkeypatch, wall, wall_draft, wall_gemma):
    executed = []

    def counting_execute(s, plan):
        executed.append(plan)
        return execute(s, plan)

    monkeypatch.setattr(metrics, "execute", counting_execute)
    monkeypatch.setattr(validator, "execute", counting_execute)
    repaired = repair_loop(wall, wall_draft, SearchSupervisor("minimal", 4))
    as_drafted = repair_loop(wall, wall_gemma, SearchSupervisor("minimal", 4))
    executed.clear()
    eval_run(wall, wall_draft, repaired)
    assert executed == [repaired.plan, wall_draft]
    executed.clear()
    eval_run(wall, wall_gemma, as_drafted)  # the final plan is the draft itself
    assert executed == [wall_gemma]


def test_run_experiment_executes_the_draft_and_the_fcfs_plan_once(monkeypatch, fix_dir, tmp_path):
    from foreman import experiment

    executed = []

    def counting_execute(s, plan):
        executed.append(plan)
        return execute(s, plan)

    monkeypatch.setattr(experiment, "execute", counting_execute)
    monkeypatch.setattr(validator, "execute", counting_execute)
    cfg = experiment.ExperimentConfig(fix_dir / "wall_assembly.scn.json", supervisors=(), out_dir=tmp_path)
    summary = experiment.run_experiment(cfg)
    assert len(executed) == 2  # the draft, then the FCFS plan
    assert summary["draft"]["makespan_tu"] == 18.0 and summary["arms"]["fcfs"]["makespan_tu"] == 12.0


def test_eval_run_on_repair(wall, wall_draft):
    result = repair_loop(wall, wall_draft, SearchSupervisor("minimal", 4))
    report = eval_run(wall, wall_draft, result)
    assert report.fr == 1.0
    assert report.edits.substitutions == 2
    assert report.makespan_delta == 1.0
