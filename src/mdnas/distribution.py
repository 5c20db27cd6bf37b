"""Multinomial distributions over operations with epoch/accuracy feedback.

The search state is three (edges x ops) arrays: the probability of each
operation, how many epochs it has been sampled, and the accuracy observed
while it was the sampled one.  An op has been seen once its count is >= 1.
The update rule compares operations pairwise and shifts probability toward
operations that reached higher accuracy in fewer epochs.

`sample_gate` draws for one edge from its own generator.  The other kernels
work on a single (M,) row or on an (E, M) batch through the same code; a
batch gives, bit for bit, what the rows give one by one.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

PROB_FLOOR = 1e-6

AGGREGATIONS = ("latest", "mean", "max")


def sample_gate(probs, rng: np.random.Generator) -> int:
    """Draw the sampled op of one edge from its row (list, tuple or float64
    array); consumes exactly one uniform variate so replays with the same
    generator state are reproducible.  The op is the first whose running sum
    exceeds u * total, clipped to M - 1; the sums are added left to right in
    double precision, as np.cumsum adds a float64 row."""
    u = rng.random()
    cum = list(accumulate(probs))
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


def record_feedback(
    counts: np.ndarray,
    acc: np.ndarray,
    ops,
    accuracy: float,
    aggregation: str = "latest",
) -> None:
    """Credit each edge's sampled op (`ops`: one id per row) with one epoch
    and the observed accuracy, in place.  The entries are gathered and
    scattered through flat views, so `counts` and `acc` must be
    C-contiguous."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must lie in [0, 1]")
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
    if not (counts.flags.c_contiguous and acc.flags.c_contiguous):
        raise ValueError("counts and acc must be C-contiguous, or the update would land in a copy")
    ops = np.asarray(ops)
    m = counts.shape[-1]
    if not ((0 <= ops) & (ops < m)).all():
        raise ValueError(f"sampled op ids must lie in [0, {m})")
    flat = np.arange(0, counts.size, m) + ops
    counts, acc = counts.ravel(), acc.ravel()
    n = counts[flat] + 1
    old = acc[flat]
    if aggregation == "mean":
        new = old + (accuracy - old) / n
    elif aggregation == "max":
        new = np.maximum(old, accuracy)
    else:  # latest
        new = accuracy
    new = np.where(n == 1, accuracy, new)
    counts[flat] = n
    acc[flat] = new


def net_credit(counts: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Integer dominance balance per op: +1 for every op it beats (fewer
    epochs, higher accuracy), -1 for every op that beats it.  Pairs with an
    unseen op contribute nothing.  Sums to exactly zero by antisymmetry."""
    seen = counts >= 1
    beats = (
        (counts[..., :, None] < counts[..., None, :])
        & (acc[..., :, None] > acc[..., None, :])
        & seen[..., :, None]
        & seen[..., None, :]
    )
    return beats.sum(axis=-1, dtype=np.int64) - beats.sum(axis=-2, dtype=np.int64)


def raw_deltas(counts: np.ndarray, acc: np.ndarray, alpha: float) -> np.ndarray:
    """Pre-clamp probability increments: alpha times the dominance balance."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha * net_credit(counts, acc)


def update_probs(
    probs: np.ndarray, counts: np.ndarray, acc: np.ndarray, alpha: float
) -> np.ndarray:
    """Apply the pairwise-dominance increments, then clamp to the exploration
    floor and renormalize.  The renormalization rescales only the mass above
    the floor so min(probs) never drops below PROB_FLOOR."""
    delta = raw_deltas(counts, acc, alpha)
    m = probs.shape[-1]
    clamped = np.clip(probs + delta, PROB_FLOOR, 1.0)
    excess = clamped - PROB_FLOOR
    scale = (1.0 - m * PROB_FLOOR) / excess.sum(axis=-1, keepdims=True)
    return PROB_FLOOR + excess * scale
