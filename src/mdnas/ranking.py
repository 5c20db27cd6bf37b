"""Kendall rank correlation and the per-epoch ranking consistency protocol.

tau = (P - Q) / (P + Q) over concordant/discordant pairs, with tied pairs
excluded from both counts.  p_tau = (tau + 1) / 2 is the probability that a
pairwise comparison agrees between the two rankings.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Sequence

import numpy as np

# Rows parsed per block; bounds the strings held at once.
_BLOCK_ROWS = 1000


@dataclass(frozen=True)
class RankStats:
    concordant: int
    discordant: int
    tau: float
    p_tau: float


def _tied_pairs(sorted_values: np.ndarray, *more: np.ndarray) -> int:
    """Pairs of equal items in sorted order: items tie when every given
    array holds equal values at both.  Compares neighbours with ==, never
    a difference, since inf - inf is NaN."""
    same = sorted_values[1:] == sorted_values[:-1]
    for values in more:
        same &= values[1:] == values[:-1]
    runs = np.diff(np.flatnonzero(np.concatenate(([True], ~same, [True]))))
    return _pairs_within(runs)


def _pairs_within(group_sizes: np.ndarray) -> int:
    return int((group_sizes * (group_sizes - 1) // 2).sum())


def _strict_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, m):
    a bottom-up merge, one sort and one searchsorted per level."""
    m = len(ranks)
    index = np.arange(m)
    inversions = 0
    width = 1
    while width < m:
        # `ranks` is sorted within each block of `width`; offsetting each
        # pair of neighbouring blocks by block * m keeps the pairs apart.
        block = index // (2 * width)
        keys = block * m + ranks
        is_left = index % (2 * width) < width
        left = keys[is_left]
        right = ~is_left
        # For a right item of pair p, its left block ends at (p + 1) * width.
        ends = (block[right] + 1) * width
        inversions += int((ends - np.searchsorted(left, keys[right], side="right")).sum())
        ranks = np.sort(keys) - block * m
        width *= 2
    return inversions


def kendall_tau(rank_a: Sequence[float], rank_b: Sequence[float]) -> RankStats:
    """Kendall's tau by merge counting (Knight 1966), O(m log^2 m).

    Pairs with a NaN compare neither way and count as tied.  With the items
    sorted by (a, b), the discordant pairs are the strict inversions of b;
    the concordant ones are the rest once the pairs tied in a or in b are
    taken out."""
    a = np.asarray(rank_a, dtype=float)
    b = np.asarray(rank_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if len(a) < 2:
        raise ValueError("need at least 2 items to rank")
    keep = ~(np.isnan(a) | np.isnan(b))
    a, b = a[keep], b[keep]
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    _, ranks, b_counts = np.unique(b, return_inverse=True, return_counts=True)
    discordant = _strict_inversions(ranks)
    m = len(a)
    untied = m * (m - 1) // 2 - _tied_pairs(a) - _pairs_within(b_counts) + _tied_pairs(a, b)
    concordant = untied - discordant
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
    """Load a (epoch, arch_id, accuracy) CSV into an epochs x cohort matrix,
    epochs ascending and architectures in arch_id order.

    Every architecture must be scored exactly once at every epoch, with a
    finite accuracy; ragged, repeated or non-finite input is rejected.  Rows
    are parsed in blocks into arrays and placed with one scatter."""
    arch_index: dict[str, int] = {}
    epochs, archs, accs = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in ("epoch", "arch_id", "accuracy") if c not in columns]
        if missing:
            raise ValueError(f"scores file has no {', '.join(missing)} column")
        fields = itemgetter(columns["epoch"], columns["arch_id"], columns["accuracy"])
        while chunk := list(islice(reader, _BLOCK_ROWS)):
            try:
                block = list(map(fields, filter(None, chunk)))
            except IndexError:
                raise ValueError("a scores row has too few fields") from None
            if not block:
                continue
            epoch, arch_id, accuracy = zip(*block)
            try:
                epochs.append(np.fromiter(map(int, epoch), np.int64, len(block)))
            except OverflowError:
                raise ValueError("an epoch is out of range") from None
            archs.append(np.fromiter(
                (arch_index.setdefault(a, len(arch_index)) for a in arch_id), np.int64, len(block)
            ))
            accs.append(np.fromiter(map(float, accuracy), float, len(block)))
    if not epochs:
        raise ValueError("empty scores file")
    epoch, arch, acc = map(np.concatenate, (epochs, archs, accs))
    del epochs, archs, accs  # free the blocks before the scatter's temporaries
    ids = list(arch_index)

    def where(row):
        return f"epoch {epoch[row]}, arch_id {ids[arch[row]]}"

    bad = np.flatnonzero(~np.isfinite(acc))
    if len(bad):
        raise ValueError(f"{where(bad[0])}: accuracy {acc[bad[0]]} is not finite")
    # Column of each arch: its place in sorted arch_id order.
    names = sorted(ids)
    column = np.empty(len(ids), dtype=np.int64)
    column[[arch_index[a] for a in names]] = np.arange(len(ids))
    epoch_values, epoch_row = np.unique(epoch, return_inverse=True)
    cell = epoch_row * len(ids) + column[arch]
    scored = np.bincount(cell, minlength=len(epoch_values) * len(ids))
    if scored.max() > 1:
        _, first = np.unique(cell, return_index=True)
        repeat = np.setdiff1d(np.arange(len(cell)), first)[0]
        raise ValueError(f"{where(repeat)} is scored more than once")
    if scored.min() == 0:
        unscored = int(np.argmin(scored))
        raise ValueError(
            f"epoch {epoch_values[unscored // len(ids)]} does not score "
            f"arch_id {names[unscored % len(ids)]}"
        )
    matrix = np.empty((len(epoch_values), len(ids)))
    matrix.reshape(-1)[cell] = acc
    return matrix


def write_scores_csv(path, scores: np.ndarray, arch_ids: Sequence[str]) -> None:
    """Emit (epoch, arch_id, accuracy) rows, epochs numbered from 1, for an
    (epochs x archs) score matrix.  `arch_ids` hold no comma, quote or line
    break, so no field ever needs quoting: each row is one format call, ended
    by CRLF as csv.writer ends its rows."""
    tails = [f"{arch_id}," for arch_id in arch_ids]
    with open(path, "w", newline="") as fh:
        fh.write("epoch,arch_id,accuracy\r\n")
        for epoch, row in enumerate(scores.tolist(), start=1):
            row_format = f"{epoch},%s%.10f\r\n"
            fh.write("".join(map(row_format.__mod__, zip(tails, row))))


def write_tau_csv(path, taus: Sequence[float]) -> None:
    """Emit (epoch, tau, p_tau) rows followed by a mean_tau summary line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "tau", "p_tau"])
        for epoch, tau in enumerate(taus):
            writer.writerow([epoch, f"{tau:.6f}", f"{(tau + 1) / 2:.6f}"])
        mt = mean_tau(taus)
        writer.writerow(["mean", f"{mt:.6f}", f"{(mt + 1) / 2:.6f}"])
