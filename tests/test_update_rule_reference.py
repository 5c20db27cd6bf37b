"""The search loop against a plain-loop transcription of the paper's update.

Eq. 6 of the paper moves an op's probability by alpha for every other op it
dominates (fewer epochs and higher accuracy) and back by alpha for every op
that dominates it.  The transcription below restates sampling, feedback, that
rule, the exploration floor and the renormalisation with Python loops over
scalars, without `mdnas.distribution`, and must track `Searcher` epoch by
epoch on the configuration of acceptance criterion 5.
"""

import numpy as np
import pytest

from mdnas.engine import SearchConfig, Searcher
from mdnas.evaluator import TabularOracle

FLOOR = 1e-6


# The planted table of acceptance criterion 5, restated so that this module
# imports nothing from mdnas.distribution.
def _planted_table(num_edges, num_ops, table_seed=1234):
    rng = np.random.default_rng(table_seed)
    best = rng.integers(num_ops, size=num_edges)
    q = np.full((num_edges, num_ops), 0.1)
    q[np.arange(num_edges), best] = 0.9
    return q


def _sample(probs, u):
    """Inverse-CDF draw: the first op whose cumulative mass exceeds u."""
    cum, total = [], 0.0
    for p in probs:
        total += p
        cum.append(total)
    x = u * cum[-1]
    op = 0
    while op < len(probs) - 1 and cum[op] <= x:
        op += 1
    return op


def _eq6_step(probs, epochs, acc, seen, alpha):
    m = len(probs)
    new = []
    for i in range(m):
        credit = 0
        for j in range(m):
            if not (seen[i] and seen[j]):
                continue
            if epochs[i] < epochs[j] and acc[i] > acc[j]:
                credit += 1
            elif epochs[i] > epochs[j] and acc[i] < acc[j]:
                credit -= 1
        new.append(min(max(probs[i] + alpha * credit, FLOOR), 1.0))
    excess = [p - FLOOR for p in new]
    scale = (1.0 - m * FLOOR) / sum(excess)
    return [FLOOR + e * scale for e in excess]


def _reference_search(q, epochs, alpha, seed):
    """Yield (sampled arch, per-edge probabilities) after every epoch."""
    edges, num_ops = q.shape
    oracle = TabularOracle(q)
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))
        for i in range(edges)
    ]
    probs = [[1.0 / num_ops] * num_ops for _ in range(edges)]
    counts = [[0] * num_ops for _ in range(edges)]
    acc = [[0.0] * num_ops for _ in range(edges)]
    seen = [[False] * num_ops for _ in range(edges)]
    for epoch in range(1, epochs + 1):
        arch = tuple(_sample(probs[e], rngs[e].random()) for e in range(edges))
        accuracy = oracle.evaluate(arch, epoch)
        for e, op in enumerate(arch):
            counts[e][op] += 1
            if seen[e][op]:  # running mean of the accuracies seen with this op
                acc[e][op] += (accuracy - acc[e][op]) / counts[e][op]
            else:
                acc[e][op] = accuracy
                seen[e][op] = True
            probs[e] = _eq6_step(probs[e], counts[e], acc[e], seen[e], alpha)
        yield arch, probs


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("num_intermediate,num_ops", [(4, 8), (2, 4)])
def test_searcher_matches_eq6_transcription(num_intermediate, num_ops, seed):
    edges = 2 * sum(i + 1 for i in range(1, num_intermediate + 1))
    q = _planted_table(edges, num_ops)
    cfg = SearchConfig(
        num_intermediate=num_intermediate,
        num_ops=num_ops,
        epochs=100,
        alpha=0.01,
        seed=seed,
        acc_aggregation="mean",
        evaluator={"type": "tabular", "q": q.tolist()},
    )
    searcher = Searcher(cfg)
    reference = _reference_search(q, cfg.epochs, cfg.alpha, seed)
    for epoch, (arch, probs) in enumerate(reference, start=1):
        record = searcher.step()
        assert record.arch == arch, f"sampled architecture differs at epoch {epoch}"
    assert searcher.epoch == cfg.epochs
    final = searcher.probs
    np.testing.assert_allclose(final, np.array(probs), rtol=0, atol=1e-12)
