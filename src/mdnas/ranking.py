"""Kendall rank correlation and the per-epoch ranking consistency protocol.

tau = (P - Q) / (P + Q) over concordant/discordant pairs, with tied pairs
excluded from both counts.  p_tau = (tau + 1) / 2 is the probability that a
pairwise comparison agrees between the two rankings.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RankStats:
    concordant: int
    discordant: int
    tau: float
    p_tau: float


def _pair_signs(x: np.ndarray) -> np.ndarray:
    """The (m x m) int8 matrix sign(x_i - x_j) as [x_i > x_j] - [x_j > x_i];
    a NaN compares neither way, so its pairs count as tied."""
    greater = (x[:, None] > x[None, :]).view(np.int8)
    return greater - greater.T


def kendall_tau(rank_a: Sequence[float], rank_b: Sequence[float]) -> RankStats:
    """Pair-enumeration Kendall's tau, vectorized over the (m x m) matrix of
    pair sign products."""
    a = np.asarray(rank_a, dtype=float)
    b = np.asarray(rank_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if len(a) < 2:
        raise ValueError("need at least 2 items to rank")
    prod = _pair_signs(a) * _pair_signs(b)
    # The matrix is symmetric with a zero diagonal: each pair counts twice.
    concordant = int(np.count_nonzero(prod > 0)) // 2
    discordant = int(np.count_nonzero(prod < 0)) // 2
    total = concordant + discordant
    if total == 0:
        raise ValueError("all pairs are tied; tau is undefined")
    tau = (concordant - discordant) / total
    return RankStats(concordant, discordant, tau, (tau + 1.0) / 2.0)


def tau_trace(score_matrix: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Kendall's tau of each epoch's scores against the final epoch's."""
    scores = np.asarray(score_matrix, dtype=float)
    if scores.ndim != 2 or scores.shape[0] < 2 or scores.shape[1] < 2:
        raise ValueError("score matrix must be (epochs >= 2) x (cohort >= 2)")
    final = scores[-1]
    return tuple(kendall_tau(row, final).tau for row in scores)


def mean_tau(taus: Sequence[float]) -> float:
    """Mean tau over every epoch but the final one, which is compared
    against itself."""
    taus = taus[:-1]
    if not taus:
        raise ValueError("trace has no entries to average")
    return float(np.mean(taus))


def read_scores_csv(path) -> np.ndarray:
    """Load a (epoch, arch_id, accuracy) CSV into an epochs x cohort matrix.

    Every architecture must be scored at every epoch; ragged input is
    rejected."""
    by_epoch: dict[int, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            epoch = int(row["epoch"])
            by_epoch.setdefault(epoch, {})[row["arch_id"]] = float(row["accuracy"])
    if not by_epoch:
        raise ValueError("empty scores file")
    epochs = sorted(by_epoch)
    arch_ids = sorted(by_epoch[epochs[0]])
    matrix = np.empty((len(epochs), len(arch_ids)))
    for i, epoch in enumerate(epochs):
        scores = by_epoch[epoch]
        if sorted(scores) != arch_ids:
            raise ValueError(f"epoch {epoch} does not score the same architectures")
        matrix[i] = [scores[a] for a in arch_ids]
    return matrix


def write_tau_csv(path, taus: Sequence[float]) -> None:
    """Emit (epoch, tau, p_tau) rows followed by a mean_tau summary line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "tau", "p_tau"])
        for epoch, tau in enumerate(taus):
            writer.writerow([epoch, f"{tau:.6f}", f"{(tau + 1) / 2:.6f}"])
        mt = mean_tau(taus)
        writer.writerow(["mean", f"{mt:.6f}", f"{(mt + 1) / 2:.6f}"])
