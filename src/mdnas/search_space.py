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


@dataclass(frozen=True, order=True)
class NodeId:
    """A node in a cell DAG.

    Sort order places input nodes before intermediate nodes, which matches the
    topological order used for edge enumeration.
    """

    rank: int  # 0 = input, 1 = intermediate, 2 = output
    index: int  # 1-based ordinal within the kind

    @classmethod
    def input(cls, index: int) -> "NodeId":
        return cls(0, index)

    @classmethod
    def intermediate(cls, index: int) -> "NodeId":
        return cls(1, index)

    @property
    def kind(self) -> str:
        return ("input", "intermediate", "output")[self.rank]

    @property
    def label(self) -> str:
        if self.rank == 0:
            return f"I{self.index}"
        if self.rank == 1:
            return f"B{self.index}"
        return "O"


@dataclass(frozen=True)
class Edge:
    src: NodeId
    dst: NodeId

    def __post_init__(self):
        if self.dst.kind != "intermediate":
            raise ValueError("edge destination must be an intermediate node")
        if self.src >= self.dst:
            raise ValueError("edge source must precede its destination")


@dataclass(frozen=True)
class CellTemplate:
    num_intermediate: int
    kind: str
    edges: tuple[Edge, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incoming(self, node_index: int) -> list[int]:
        """Edge indices feeding intermediate node `node_index` (1-based)."""
        dst = NodeId.intermediate(node_index)
        return [i for i, e in enumerate(self.edges) if e.dst == dst]


def build_cell_template(num_intermediate: int, kind: str) -> CellTemplate:
    """Build the full DAG template: node i receives edges from both inputs and
    every earlier intermediate node, so |edges| = sum_{i=1..N}(i+1)."""
    if num_intermediate < 1:
        raise ValueError("num_intermediate must be >= 1")
    if kind not in CELL_KINDS:
        raise ValueError(f"cell kind must be one of {CELL_KINDS}")
    edges = []
    for i in range(1, num_intermediate + 1):
        dst = NodeId.intermediate(i)
        srcs = [NodeId.input(1), NodeId.input(2)]
        srcs += [NodeId.intermediate(j) for j in range(1, i)]
        edges += [Edge(src, dst) for src in srcs]
    return CellTemplate(num_intermediate, kind, tuple(edges))


def search_space_size(num_intermediate: int, num_ops: int) -> int:
    """Exact count of discrete cell structures: 2 cell kinds times
    num_ops to the number of edges."""
    if num_intermediate < 1 or num_ops < 1:
        raise ValueError("arguments must be >= 1")
    num_edges = sum(i + 1 for i in range(1, num_intermediate + 1))
    return 2 * num_ops**num_edges


@dataclass(frozen=True)
class Genotype:
    """Per intermediate node, exactly K (source-label, op-name) picks."""

    kind: str
    nodes: tuple[tuple[tuple[str, str], ...], ...]

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "nodes": [[list(p) for p in node] for node in self.nodes]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Genotype":
        doc = json.loads(text)
        nodes = tuple(tuple((src, op) for src, op in node) for node in doc["nodes"])
        return cls(doc["kind"], nodes)


def _validate_probs(probs: np.ndarray, num_ops: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (num_ops,):
        raise ValueError(f"expected probability vector of length {num_ops}")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-6:
        raise ValueError("probability vector must be non-negative and sum to 1")
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
    if len(distributions) != template.num_edges:
        raise ValueError("need one probability vector per template edge")
    num_ops = len(distributions[0])
    probs = [_validate_probs(p, num_ops) for p in distributions]
    return _top_k_genotype(template, probs, k, exclude_none)


def _top_k_genotype(
    template: CellTemplate,
    scores: Sequence[np.ndarray],
    k: int,
    exclude_none: bool = False,
) -> Genotype:
    """Per intermediate node, the k incoming edges whose best allowed op
    scores highest, each with that op; ties as in derive_genotype.  Rows
    need not be probabilities (best_genotype passes quality rows)."""
    in_degree = len(template.incoming(1))
    if not 1 <= k <= in_degree:
        raise ValueError(f"k={k} must lie in [1, {in_degree}], the in-degree of node B1")
    num_ops = len(scores[0])
    allowed = np.ones(num_ops, dtype=bool)
    if exclude_none and NONE_OP_ID < num_ops:
        allowed[NONE_OP_ID] = False

    nodes = []
    for i in range(1, template.num_intermediate + 1):
        scored = []
        for edge_idx in template.incoming(i):
            row = np.where(allowed, scores[edge_idx], -np.inf)
            op_id = int(np.argmax(row))  # argmax takes the lowest id on ties
            scored.append((-row[op_id], edge_idx, op_id))
        scored.sort()
        picks = []
        for _, edge_idx, op_id in scored[:k]:
            src = template.edges[edge_idx].src
            picks.append((src.label, OP_NAMES[op_id] if num_ops == NUM_OPS else str(op_id)))
        nodes.append(tuple(picks))
    return Genotype(template.kind, tuple(nodes))
