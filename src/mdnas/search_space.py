"""Cell-based search space: operations, DAG templates, and discrete genotypes.

A cell is a small DAG with two input nodes, N intermediate nodes, and one
output node.  Every edge into an intermediate node carries one of M candidate
operations; a genotype pins down K incoming (source, operation) choices per
intermediate node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

OP_NAMES = (
    "max_pool_3x3",
    "none",
    "avg_pool_3x3",
    "skip_connect",
    "dil_conv_3x3",
    "dil_conv_5x5",
    "sep_conv_3x3",
    "sep_conv_5x5",
)

NUM_OPS = len(OP_NAMES)

NONE_OP_ID = OP_NAMES.index("none")

CELL_KINDS = ("norm", "reduction")


def edge_count(num_intermediate: int) -> int:
    """Edges of a cell with N intermediate nodes: node i has i + 1 inputs,
    so sum_{i=1..N} (i + 1) = N(N + 3)/2."""
    return num_intermediate * (num_intermediate + 3) // 2


@dataclass(frozen=True)
class CellTemplate:
    """Edges are numbered node by node: node B_i takes edges
    incoming(i), one from each of I1, I2, B1 .. B_{i-1} in that order.
    sources holds each edge's source label."""

    num_intermediate: int
    kind: str
    sources: tuple[str, ...]

    @property
    def num_edges(self) -> int:
        return len(self.sources)

    def incoming(self, node_index: int) -> range:
        """Edge indices feeding intermediate node `node_index` (1-based)."""
        start = edge_count(node_index - 1)
        return range(start, start + node_index + 1)


def build_cell_template(num_intermediate: int, kind: str) -> CellTemplate:
    """Build the full DAG template: node i receives edges from both inputs and
    every earlier intermediate node."""
    if num_intermediate < 1:
        raise ValueError("num_intermediate must be >= 1")
    if kind not in CELL_KINDS:
        raise ValueError(f"cell kind must be one of {CELL_KINDS}")
    sources = []
    for i in range(1, num_intermediate + 1):
        sources += ["I1", "I2"] + [f"B{j}" for j in range(1, i)]
    return CellTemplate(num_intermediate, kind, tuple(sources))


def search_space_size(num_intermediate: int, num_ops: int) -> int:
    """Exact count of discrete cell structures: 2 cell kinds times
    num_ops to the number of edges."""
    if num_intermediate < 1 or num_ops < 1:
        raise ValueError("arguments must be >= 1")
    return 2 * num_ops ** edge_count(num_intermediate)


@dataclass(frozen=True)
class Genotype:
    """Per intermediate node, exactly K (source-label, op-name) picks."""

    kind: str
    nodes: tuple[tuple[tuple[str, str], ...], ...]

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "nodes": [[list(p) for p in node] for node in self.nodes]}
        )


def _check_probs(probs, num_edges: int) -> np.ndarray:
    """probs as a (num_edges, ops) array whose rows are non-negative and sum
    to 1.  The comparisons are written so that NaN fails them."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or len(probs) != num_edges:
        raise ValueError(f"need one probability row per edge ({num_edges}), got {probs.shape}")
    if not (np.all(probs >= 0) and np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6)):
        raise ValueError("probability rows must be non-negative and sum to 1")
    return probs


def derive_genotype(
    template: CellTemplate,
    distributions: Sequence[np.ndarray],
    k: int,
    exclude_none: bool = False,
) -> Genotype:
    """Discretize per-edge probability vectors into a genotype.

    Each intermediate node keeps the k incoming edges whose best operation
    probability is highest; each kept edge takes its argmax operation.  Ties
    break toward the lower edge index and lower op id, so the result is
    deterministic.
    """
    probs = _check_probs(distributions, template.num_edges)
    return _top_k_genotype(template, probs, k, exclude_none)


def _top_k_genotype(
    template: CellTemplate,
    scores: np.ndarray,
    k: int,
    exclude_none: bool = False,
) -> Genotype:
    """Per intermediate node, the k incoming edges whose best allowed op
    scores highest, each with that op; ties as in derive_genotype.  Rows
    need not be probabilities (best_genotype passes quality rows)."""
    if not 1 <= k <= 2:
        raise ValueError(f"k={k} must lie in [1, 2], the in-degree of node B1")
    num_ops = scores.shape[1]
    if exclude_none and NONE_OP_ID < num_ops:
        scores = np.where(np.arange(num_ops) == NONE_OP_ID, -np.inf, scores)
    ops = scores.argmax(axis=1)  # argmax takes the lowest id on ties
    best = scores.max(axis=1)
    names = OP_NAMES if num_ops == NUM_OPS else [str(op) for op in range(num_ops)]
    nodes = []
    for i in range(1, template.num_intermediate + 1):
        edges = template.incoming(i)
        kept = np.argsort(-best[edges], kind="stable")[:k]
        nodes.append(
            tuple((template.sources[edges[j]], names[ops[edges[j]]]) for j in kept)
        )
    return Genotype(template.kind, tuple(nodes))
