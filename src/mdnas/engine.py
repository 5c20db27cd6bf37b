"""The search loop: sample one op per edge, evaluate the assembled
architecture once, feed the shared accuracy back to every edge, update every
edge's distribution.  Norm and reduction cells are searched jointly with
disjoint distributions.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, asdict
from itertools import chain

import numpy as np

from .distribution import AGGREGATIONS, record_feedback, sample_gate, update_probs
from .evaluator import SurrogateCurveEvaluator, TabularOracle
from .search_space import (
    CELL_KINDS, Genotype, _check_probs, build_cell_template, derive_genotype, edge_count
)

# What each SearchConfig annotation accepts; bool never counts as a number.
_FIELD_TYPES = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "dict": (dict,),
    "list": (list,),
}


def _check_type(name: str, value, type_name: str) -> None:
    accepted = _FIELD_TYPES[type_name]
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        raise ValueError(f"{name} must be of type {type_name}, got {value!r}")
    # NaN, +-inf and ints too large for a float all fail this comparison.
    if type_name == "float" and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class SearchConfig:
    num_intermediate: int = 4
    num_ops: int = 8
    epochs: int = 100
    alpha: float = 0.01
    k: int = 2
    seed: int = 0
    evaluator: dict = field(default_factory=lambda: {"type": "tabular"})
    early_stop: bool = False
    convergence_threshold: float = 0.9
    acc_aggregation: str = "latest"
    exclude_none: bool = False

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        if self.num_intermediate < 1 or self.num_ops < 1:
            raise ValueError("num_intermediate and num_ops must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 1 <= self.k <= 2:
            raise ValueError("k must be 1 or 2, the in-degree of node B1")
        if not 0 < self.convergence_threshold <= 1:
            raise ValueError("convergence_threshold must lie in (0, 1]")
        if self.acc_aggregation not in AGGREGATIONS:
            raise ValueError(f"acc_aggregation must be one of {AGGREGATIONS}")
        if "type" not in self.evaluator:
            raise ValueError("evaluator spec must be a dict with a 'type' key")

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


# The type of each evaluator spec key, in _FIELD_TYPES terms.  An explicit
# null for the two ramp keys means "no ramp", as leaving them out does.
_SPEC_TYPES = {
    "type": "str",
    "seed": "int",
    "interaction_strength": "float",
    "q": "list",
    "argmax_margin": "float",
    "tau_c": "float",
    "consistency": "float",
    "consistency_final": "float",
    "ramp_epochs": "int",
}
_SURROGATE_KEYS = {"tau_c", "consistency", "consistency_final", "ramp_epochs"}


def build_evaluator(config: SearchConfig):
    """Construct the evaluator named by config.evaluator over the joint
    norm+reduction edge list (2 x |edges per cell|).  A key the chosen
    evaluator would not read is an error."""
    spec = dict(config.evaluator)
    kind = spec["type"]
    if kind not in ("tabular", "surrogate"):
        raise ValueError(f"unknown evaluator type: {kind!r}")
    read = {"type", "seed", "interaction_strength", "q" if "q" in spec else "argmax_margin"}
    if kind == "surrogate":
        read |= _SURROGATE_KEYS
    unknown = set(spec) - read
    if unknown:
        raise ValueError(f"evaluator keys a {kind} evaluator does not read: {sorted(unknown)}")
    for key, value in spec.items():
        if not (value is None and key in ("consistency_final", "ramp_epochs")):
            _check_type(f"evaluator.{key}", value, _SPEC_TYPES[key])
    seed = spec.get("seed", config.seed)
    num_edges = 2 * edge_count(config.num_intermediate)
    if "q" in spec:
        try:
            q = np.asarray(spec["q"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("evaluator.q must be a rectangular table of numbers") from exc
        oracle = TabularOracle(
            q,
            seed=seed,
            interaction_strength=spec.get("interaction_strength", 0.0),
        )
        if oracle.num_edges != num_edges or oracle.num_ops != config.num_ops:
            raise ValueError("inline q table does not match the search space")
    else:
        oracle = TabularOracle.random(
            num_edges,
            config.num_ops,
            seed=seed,
            argmax_margin=spec.get("argmax_margin", 0.0),
            interaction_strength=spec.get("interaction_strength", 0.0),
        )
    if kind == "tabular":
        return oracle
    return SurrogateCurveEvaluator(
        oracle,
        tau_c=spec.get("tau_c", 10.0),
        consistency=spec.get("consistency", 1.0),
        consistency_final=spec.get("consistency_final"),
        ramp_epochs=spec.get("ramp_epochs"),
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class EpochRecord:
    epoch: int
    arch: tuple[int, ...]  # sampled op per edge, norm block then reduction
    accuracy: float
    probs: np.ndarray  # (edges, ops), post-update; never written after the epoch

    def to_dict(self) -> dict:
        return {**vars(self), "probs": self.probs.tolist()}


def _array(name: str, rows, kind: type, shape: tuple) -> np.ndarray:
    """`rows` as one int64 (kind int) or float array of `shape`, checked: every
    entry is finite and of type `kind`, and a bool is neither.  [] gets `shape`."""
    entries = rows
    for _ in shape[1:]:
        entries = chain.from_iterable(entries)
    try:
        array = np.array(rows, dtype=np.int64 if kind is int else float)
        if array.shape == (0,):
            array = array.reshape(shape)
    except (TypeError, ValueError, OverflowError):
        array = None
    # Types last: once the shape holds, every level above the entries is a sequence.
    if not (
        array is not None and array.shape == shape
        and set(map(type, entries)) <= {kind}
        and np.isfinite(array).all()
    ):
        raise ValueError(f"checkpoint {name} must be {shape} finite {kind.__name__}s")
    return array


class Searcher:
    """Owns the joint search state and advances it one epoch at a time.

    The state is three (edges x ops) arrays, norm edges then reduction
    edges: `probs`, the sampling distribution of each edge; `counts`, the
    epochs each op has been sampled; and `acc`, its accuracy record.  Each
    edge gets its own RNG substream keyed by its global index, so the
    sampled trajectory does not depend on edge iteration order and survives
    checkpoint round-trips bit-for-bit.
    """

    def __init__(self, config: SearchConfig, evaluator=None):
        """`evaluator` stands in for the one config.evaluator names: a batch
        builds that one once and hands each seed a replica of it."""
        self.config = config
        self.templates = tuple(
            build_cell_template(config.num_intermediate, kind) for kind in CELL_KINDS
        )
        self.edges_per_cell = self.templates[0].num_edges
        self.num_edges = 2 * self.edges_per_cell
        if evaluator is None:
            evaluator = build_evaluator(config)
        elif (evaluator.num_edges, evaluator.num_ops) != (self.num_edges, config.num_ops):
            raise ValueError("evaluator does not match the search space")
        self.evaluator = evaluator
        shape = (self.num_edges, config.num_ops)
        self.probs = np.full(shape, 1.0 / config.num_ops)
        self.counts = np.zeros(shape, dtype=np.int64)
        self.acc = np.zeros(shape)
        self.rngs = [
            np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(i,)))
            )
            for i in range(self.num_edges)
        ]
        self.epoch = 0
        self.trace: list[EpochRecord] = []

    def step(self) -> EpochRecord:
        self.epoch += 1
        arch = tuple(map(sample_gate, self.probs.tolist(), self.rngs))
        accuracy = self.evaluator.evaluate(arch, self.epoch)
        record_feedback(self.counts, self.acc, arch, accuracy, self.config.acc_aggregation)
        # update_probs returns a new array, so the record keeps it uncopied.
        self.probs = update_probs(self.probs, self.counts, self.acc, self.config.alpha)
        record = EpochRecord(self.epoch, arch, accuracy, self.probs)
        self.trace.append(record)
        return record

    def converged(self) -> bool:
        return bool((self.probs.max(axis=1) >= self.config.convergence_threshold).all())

    def genotypes(self, k: int | None = None) -> tuple[Genotype, Genotype]:
        """Derive both cells' genotypes at `k` (default: the config's k)."""
        k = self.config.k if k is None else k
        n = self.edges_per_cell
        return tuple(
            derive_genotype(
                template,
                self.probs[i * n : (i + 1) * n],
                k,
                exclude_none=self.config.exclude_none,
            )
            for i, template in enumerate(self.templates)
        )

    def run(self) -> tuple[Genotype, Genotype]:
        """The norm and reduction genotypes; the records stay in `trace`."""
        while self.epoch < self.config.epochs:
            self.step()
            if self.config.early_stop and self.converged():
                break
        return self.genotypes()

    def _state(self) -> dict:
        """The checkpoint without its trace."""
        return {
            "config": self.config.to_dict(),
            "config_hash": self.config.digest(),
            "epoch": self.epoch,
            "distributions": [
                {"probs": p, "epochs": e, "acc": a}
                for p, e, a in zip(
                    self.probs.tolist(), self.counts.tolist(), self.acc.tolist()
                )
            ],
            "rng_states": [rng.bit_generator.state for rng in self.rngs],
        }

    def checkpoint(self) -> dict:
        return {**self._state(), "trace": [r.to_dict() for r in self.trace]}

    @classmethod
    def from_checkpoint(cls, snapshot: dict) -> "Searcher":
        config = SearchConfig.from_dict(snapshot["config"])
        if config.digest() != snapshot["config_hash"]:
            raise ValueError("checkpoint config hash does not match")
        searcher = cls(config)
        epoch, trace = snapshot["epoch"], snapshot["trace"]
        if not (type(epoch) is int and 0 <= epoch <= config.epochs):
            raise ValueError(f"checkpoint epoch {epoch!r} is no int in [0, {config.epochs}]")
        if len(trace) != epoch:
            raise ValueError(f"checkpoint has {len(trace)} trace records for epoch {epoch}")
        searcher.epoch = epoch
        docs = snapshot["distributions"]
        shape = (searcher.num_edges, config.num_ops)
        probs, counts, acc = (
            _array(key, [d[key] for d in docs], kind, shape)
            for key, kind in (("probs", float), ("epochs", int), ("acc", float))
        )
        _check_probs(probs, searcher.num_edges)
        if not ((0 <= acc) & (acc <= 1)).all():
            raise ValueError("checkpoint acc entries must lie in [0, 1]")
        searcher.probs, searcher.counts, searcher.acc = probs, counts, acc
        states = snapshot["rng_states"]
        if len(states) != searcher.num_edges:
            raise ValueError(
                f"checkpoint has {len(states)} rng states for {searcher.num_edges} edges"
            )
        for rng, state in zip(searcher.rngs, states):
            rng.bit_generator.state = state
        numbered = [(type(r["epoch"]), r["epoch"]) for r in trace]
        if numbered != [(int, t) for t in range(1, epoch + 1)]:
            raise ValueError(f"checkpoint trace epochs must be the ints 1..{epoch}")
        arch = _array("trace arch", [r["arch"] for r in trace], int, (epoch, shape[0]))
        accuracy = _array("trace accuracy", [r["accuracy"] for r in trace], float, (epoch,))
        trace_probs = _array("trace probs", [r["probs"] for r in trace], float, (epoch, *shape))
        if not ((0 <= arch) & (arch < config.num_ops)).all():
            raise ValueError(f"checkpoint trace op ids must lie in [0, {config.num_ops})")
        if not ((0 <= accuracy) & (accuracy <= 1)).all():
            raise ValueError("checkpoint trace accuracies must lie in [0, 1]")
        # State and trace must agree: the counts tally the sampled ops (so they
        # are non-negative and sum to the epoch), and probs are the last record's.
        tally = np.zeros(shape, dtype=np.int64)
        np.add.at(tally, (np.arange(shape[0]), arch), 1)
        if not np.array_equal(counts, tally):
            raise ValueError("checkpoint epochs rows do not tally the trace's sampled ops")
        if epoch and not np.array_equal(probs, trace_probs[-1]):
            raise ValueError("checkpoint probs differ from the last trace record's")
        searcher.trace = list(map(
            EpochRecord, range(1, epoch + 1), map(tuple, arch.tolist()), accuracy.tolist(),
            trace_probs,
        ))
        return searcher


def _row_texts(trace, format_rows):
    """Yield each record of `trace` with the text of its probability rows.
    A row is formatted only where it differs from the same edge's row in the
    previous record; otherwise that row's text is reused.  Equal rows of
    floats print the same, except that 0.0 == -0.0: a row holding a zero is
    always formatted.  A NaN equals no other NaN, so a row holding one is
    formatted too.  `format_rows` maps one record's changed rows, a list of
    float lists, to their texts in one call; what it returns for [] is
    ignored.  The list yielded is updated in place for the next record."""
    texts = [None] * len(trace[0].probs) if trace else []
    prev = np.nan  # equal to nothing, so every row of the first record is formatted
    for record in trace:
        rows = np.flatnonzero(((record.probs != prev) | (record.probs == 0)).any(axis=1))
        for e, text in zip(rows.tolist(), format_rows(record.probs[rows].tolist())):
            texts[e] = text
        prev = record.probs
        yield record, texts


def write_trace_csv(path, trace, edges_per_cell: int, num_ops: int) -> None:
    """One row per (epoch, cell, edge): the sampled op, the shared accuracy,
    and the post-update probability vector.  No field ever needs quoting, so
    each row is one format call, ended by CRLF as csv.writer ends its rows."""
    header = ["epoch", "accuracy", "cell_kind", "edge_index", "sampled_op"]
    header += [f"prob_{i}" for i in range(num_ops)]
    edge_prefixes = [f"{kind},{i}," for kind in CELL_KINDS for i in range(edges_per_cell)]
    row_format = ",".join(["%.10f"] * num_ops) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for record, texts in _row_texts(trace, lambda rows: [row_format % tuple(r) for r in rows]):
            head = "%d,%.10f," % (record.epoch, record.accuracy)
            fh.write("".join([
                "%s%s%d,%s" % (head, prefix, op, text)
                for prefix, op, text in zip(edge_prefixes, record.arch, texts)
            ]))


def write_checkpoint(path, searcher: Searcher) -> None:
    """Write json.dumps(searcher.checkpoint()) to `path`, streamed: the
    state, then one trace record at a time, so the whole document is never
    held as lists or as one string."""
    with open(path, "w") as fh:
        fh.write(json.dumps(searcher._state())[:-1] + ', "trace": [')
        sep = ""
        # One json.dumps of a record's changed rows, split between them: no float holds a ].
        format_rows = lambda rows: json.dumps(rows)[2:-2].split("], [")
        for record, texts in _row_texts(searcher.trace, format_rows):
            head = json.dumps(
                {"epoch": record.epoch, "arch": list(record.arch), "accuracy": record.accuracy}
            )
            fh.write(f'{sep}{head[:-1]}, "probs": [[{"], [".join(texts)}]]}}')
            sep = ", "
        fh.write("]}")
