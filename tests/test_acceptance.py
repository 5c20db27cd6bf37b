"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v` (the summary lines print even
under output capture).  Criteria cover simplex safety, update-rule exactness,
rank-correlation correctness, sampling fidelity, convergence, search quality
under noisy evaluation, rank-consistency reproduction, combinatorics, and
determinism.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from mdnas.distribution import net_credit, raw_deltas, sample_gate, update_probs
from mdnas.engine import SearchConfig, Searcher, write_trace_csv
from mdnas.evaluator import SurrogateCurveEvaluator, TabularOracle
from mdnas.ranking import kendall_tau, mean_tau, tau_trace
from mdnas.search_space import search_space_size


def _report(capsys, criterion, label, ok, detail=""):
    line = f"[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _fuzzed_records(rng, m):
    """Random (counts, acc) records for one edge with m ops."""
    epochs = rng.integers(0, 50, size=m)
    return epochs.astype(np.int64), rng.random(m)


def test_criterion_1_simplex_safety(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_sum, worst_min = 0.0, 1.0
    ok = True
    probs = np.full(8, 1.0 / 8)
    for step in range(10_000):
        if step % 500 == 0:
            m = int(rng.integers(2, 12))
            probs = np.full(m, 1.0 / m)
        counts, acc = _fuzzed_records(rng, len(probs))
        probs = update_probs(probs, counts, acc, float(rng.uniform(0.001, 0.05)))
        worst_sum = max(worst_sum, abs(probs.sum() - 1.0))
        worst_min = min(worst_min, probs.min())
        if worst_sum > 1e-9 or worst_min < 1e-6:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(
        capsys, 1, "simplex safety over 10000 fuzzed updates", ok,
        f"max |sum-1|={worst_sum:.2e}, min p={worst_min:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_update_rule_exactness(capsys):
    rng = np.random.default_rng(1)
    net_ok = all(
        net_credit(*records).sum() == 0
        for records in (_fuzzed_records(rng, int(rng.integers(2, 12))) for _ in range(2000))
    )
    deltas = raw_deltas(
        np.array([1, 2, 3], dtype=np.int64), np.array([0.9, 0.5, 0.1]), 0.01
    )
    example_ok = bool(np.all(np.abs(deltas - [0.02, 0.0, -0.02]) <= 1e-12))
    _report(
        capsys, 2, "update increments antisymmetric and exact", net_ok and example_ok,
        f"net credit always sums to 0: {net_ok}; worked example deltas {deltas.tolist()}",
    )


def test_criterion_3_kendall_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 201))
        early = rng.permutation(m).astype(float)
        final = rng.permutation(m).astype(float)
        ours = kendall_tau(early, final)
        ref, _ = stats.kendalltau(early, final)
        if abs(ours.tau - ref) > 1e-12:
            ok = False
            break
    ident = np.arange(10, dtype=float)
    edge_ok = (
        kendall_tau(ident, ident).tau == 1.0
        and kendall_tau(ident, ident[::-1]).tau == -1.0
    )
    elapsed = time.perf_counter() - t0
    ok = ok and edge_ok and elapsed < 5.0
    _report(
        capsys, 3, "rank correlation matches pair-enumeration oracle", ok,
        f"1000 permutations, m in [2,200], {elapsed:.1f}s",
    )


def test_criterion_4_sampling_fidelity(capsys):
    rng = np.random.default_rng(3)
    crit = stats.chi2.ppf(0.99, df=7)
    passes = 0
    n = 80_000
    for trial in range(20):
        probs = rng.dirichlet(np.ones(8))
        draw_rng = np.random.default_rng(1000 + trial)
        counts = np.zeros(8)
        for _ in range(n):
            counts[sample_gate(probs, draw_rng)] += 1
        expected = n * probs
        if ((counts - expected) ** 2 / expected).sum() < crit:
            passes += 1
    _report(
        capsys, 4, "gate sampling chi-square fidelity", passes >= 19,
        f"{passes}/20 distributions pass at the 99% level",
    )


def _planted_table(num_edges, num_ops, table_seed=1234):
    rng = np.random.default_rng(table_seed)
    best = rng.integers(num_ops, size=num_edges)
    q = np.full((num_edges, num_ops), 0.1)
    q[np.arange(num_edges), best] = 0.9
    return q, best


def _argmax_match(num_intermediate, num_ops, seed):
    """Run the full search on the planted table; return the argmax hits, the
    edge count and the mean final probability on the planted ops."""
    edges = 2 * sum(i + 1 for i in range(1, num_intermediate + 1))
    q, best = _planted_table(edges, num_ops)
    cfg = SearchConfig(
        num_intermediate=num_intermediate,
        num_ops=num_ops,
        epochs=100,
        alpha=0.01,
        seed=seed,
        acc_aggregation="mean",
        evaluator={"type": "tabular", "q": q.tolist()},
    )
    s = Searcher(cfg)
    s.run()
    probs = s.probs
    hits = int((probs.argmax(axis=1) == best).sum())
    return hits, edges, float(probs[np.arange(edges), best].mean())


def test_criterion_5_convergence_on_consistent_oracle(capsys):
    # The pairwise rule never lets the most-sampled op gain, and an op that
    # loses to all M-1 others falls alpha*(M-1) per epoch to the floor, so it
    # does not promise every edge within 100 epochs.  What it must deliver is
    # identification far above chance: (a) pooled argmax hits beat 1/M under
    # an exact one-sided binomial test, and (b) in every seed the planted ops
    # end with more mass on average than their uniform start.
    t0 = time.perf_counter()
    ok = True
    details = []
    for num_intermediate, num_ops in ((4, 8), (2, 4)):
        runs = [_argmax_match(num_intermediate, num_ops, seed) for seed in range(20)]
        hits = [h for h, _, _ in runs]
        trials = sum(e for _, e, _ in runs)
        chance = 1.0 / num_ops
        p_value = stats.binomtest(
            sum(hits), trials, chance, alternative="greater"
        ).pvalue
        min_planted = min(m for _, _, m in runs)
        ok = ok and p_value < 1e-6 and min_planted > chance
        details.append(
            f"{runs[0][1]}-edge hits {hits}, pooled {sum(hits)}/{trials} vs chance "
            f"{chance:.3f} (p={p_value:.1e}), min planted mean {min_planted:.3f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        capsys, 5, "argmax identification on a consistent oracle", ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_6_search_quality_under_noisy_evaluation(capsys):
    t0 = time.perf_counter()
    edges = 28
    q, _ = _planted_table(edges, 8)
    oracle = TabularOracle(q)
    finals = []
    for seed in range(20):
        cfg = SearchConfig(
            num_intermediate=4,
            num_ops=8,
            epochs=100,
            alpha=0.01,
            seed=seed,
            acc_aggregation="mean",
            evaluator={"type": "surrogate", "q": q.tolist(), "consistency": 0.74,
                       "seed": seed},
        )
        s = Searcher(cfg)
        s.run()
        arch = tuple(int(op) for op in s.probs.argmax(axis=1))
        finals.append(oracle.true_score(arch))
    rng = np.random.default_rng(99)
    random_scores = np.array(
        [oracle.true_score(oracle.sample_arch(rng)) for _ in range(10_000)]
    )
    p95 = float(np.percentile(random_scores, 95))
    median = float(np.median(finals))
    elapsed = time.perf_counter() - t0
    ok = median >= p95 and elapsed < 300.0
    _report(
        capsys, 6, "searched architecture beats the random 95th percentile", ok,
        f"median true score {median:.3f} vs p95 {p95:.3f}, {elapsed:.0f}s",
    )


def test_criterion_7_rank_consistency_reproduction(capsys):
    epochs, cohort_size = 50, 20
    means, positive_slopes = [], 0
    for seed in range(20):
        oracle = TabularOracle.random(28, 8, seed=seed)
        ev = SurrogateCurveEvaluator(
            oracle,
            consistency=0.5,
            consistency_final=0.974,
            ramp_epochs=epochs,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        cohort = [ev.sample_arch(rng) for _ in range(cohort_size)]
        scores = np.array(
            [[ev.evaluate(a, t) for a in cohort] for t in range(1, epochs + 1)]
        )
        taus = tau_trace(scores)
        means.append(mean_tau(taus))
        slope = np.polyfit(np.arange(len(taus)), taus, 1)[0]
        positive_slopes += int(slope > 0)
    grand_mean = float(np.mean(means))
    ok = abs(grand_mean - 0.474) <= 0.10 and positive_slopes == 20
    _report(
        capsys, 7, "mean rank correlation against the final ranking", ok,
        f"mean tau {grand_mean:.3f} (target 0.474 +/- 0.10), "
        f"{positive_slopes}/20 cohorts trend upward",
    )


def test_criterion_8_search_space_combinatorics(capsys):
    value = search_space_size(4, 8)
    ok = value == 8_796_093_022_208 == 2 * 8**14
    _report(capsys, 8, "search space size", ok, f"size(4, 8) = {value}")


def test_criterion_9_determinism_and_checkpointing(capsys, tmp_path):
    cfg = SearchConfig(
        num_intermediate=2, num_ops=4, epochs=20, seed=5,
        evaluator={"type": "tabular", "seed": 7},
    )

    def run_to_csv(searcher, name):
        """The genotypes, every record's epoch, arch, accuracy and probs
        rows, and the trace.csv bytes of one run."""
        genotypes = searcher.run()
        path = tmp_path / name
        write_trace_csv(path, searcher.trace, searcher.edges_per_cell, cfg.num_ops)
        records = [(r.epoch, r.arch, r.accuracy, r.probs.tolist()) for r in searcher.trace]
        return (genotypes, records), path.read_bytes()

    r1, b1 = run_to_csv(Searcher(cfg), "a.csv")
    r2, b2 = run_to_csv(Searcher(cfg), "b.csv")
    same_seed_ok = b1 == b2 and r1 == r2

    half = Searcher(cfg)
    for _ in range(10):
        half.step()
    snapshot = json.loads(json.dumps(half.checkpoint()))
    resumed = Searcher.from_checkpoint(snapshot)
    r3, b3 = run_to_csv(resumed, "c.csv")
    resume_ok = b3 == b1 and r3 == r1

    _report(
        capsys, 9, "byte-identical reruns and checkpoint resume",
        same_seed_ok and resume_ok,
        f"rerun identical: {same_seed_ok}, resume identical: {resume_ok}",
    )
