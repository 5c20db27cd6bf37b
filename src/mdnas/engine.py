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


# "%.10f" % x for x in [+0, 1] by integer arithmetic.  np.frexp gives
# x = M * 2**(e - 53) with M < 2**53, so x * 10**10 = M * 5**10 / 2**(43 - e).
# M * 5**10 needs 77 bits: it is held as hi * 2**32 + lo in uint64 limbs
# (M split at bit 32, and 5**10 < 2**24).  Every array stays unsigned, since
# uint64 mixed with int64 promotes to float64.
_U = np.uint64
_LOW32 = _U(2**32 - 1)
_DIGITS = (np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
_QUADS = _DIGITS.view(np.uint32).ravel()  # "%04d" % i as 4 bytes
_HEADS = _DIGITS[:101].copy()  # "0ddd" -> "d.dd"
_HEADS[:, 0] = _HEADS[:, 1]
_HEADS[:, 1] = ord(".")
_HEADS = _HEADS.view(np.uint32).ravel()  # "%d.%02d" % divmod(i, 100) as 4 bytes
_BLOCK_ENTRIES = 2**14


def _fixed10(probs: np.ndarray) -> np.ndarray:
    """The bytes of "%.10f" % x for every x of `probs`, as a (..., 12) uint8
    array; every x must lie in [+0, 1].  Rounding is half to even on the
    exact binary value, as CPython's correctly rounded %f does, and
    x < 2**-53 prints zero."""
    mantissa, exponent = np.frexp(probs)
    m = (mantissa * 2.0**53).astype(np.uint64)
    # x * 10**10 = (hi * 2**32 + lo) / 2**(shift + 32); any shift past 63
    # is an x < 2**-53, whose quotient and round bit are 0 at 63 too.
    shift = np.minimum(11 - exponent, 63).astype(np.uint64)
    low = (m & _LOW32) * _U(5**10)
    hi = (m >> _U(32)) * _U(5**10) + (low >> _U(32))
    q = hi >> shift
    shift -= _U(1)
    half = (hi >> shift) & _U(1)
    rest = (hi & ((_U(1) << shift) - _U(1))) | (low & _LOW32)
    q += half & ((rest != 0) | (q & _U(1)))
    # q <= 10**10 prints as "d.dd" "dddd" "dddd".
    top = q // _U(10**8)
    q -= top * _U(10**8)
    mid = q // _U(10**4)
    q -= mid * _U(10**4)
    out = np.empty(probs.shape + (3,), np.uint32)
    out[..., 0] = _HEADS[top]
    out[..., 1] = _QUADS[mid]
    out[..., 2] = _QUADS[q]
    return out.view(np.uint8)


def _csv_prob_rows(probs: np.ndarray) -> list:
    """The probability fields of each row of `probs` (..., M) as they end a
    trace.csv line: "%.10f" entries joined by commas, then CRLF, as bytes.
    A row holding an entry outside [+0, 1] (-0.0, a negative, above 1, NaN)
    is printed by Python's own format."""
    rows = probs.reshape(-1, probs.shape[-1])
    ok = (rows >= 0) & (rows <= 1) & ~np.signbit(rows)
    bad = np.flatnonzero(~ok.all(axis=1))
    entries = np.empty(rows.shape + (13,), np.uint8)
    entries[..., :12] = _fixed10(np.where(ok, rows, 0.0) if len(bad) else rows)
    entries[..., 12] = ord(",")
    line = np.empty((len(rows), entries[0].size + 1), np.uint8)
    line[:, :-1] = entries.reshape(len(rows), -1)
    line[:, -2:] = (ord("\r"), ord("\n"))  # in place of the last comma
    texts = line.view(f"S{line.shape[1]}").ravel().tolist()
    row_format = ",".join(["%.10f"] * rows.shape[1]) + "\r\n"
    for i, row in zip(bad.tolist(), rows[bad].tolist()):
        texts[i] = (row_format % tuple(row)).encode()
    return texts


def write_trace_csv(path, trace, edges_per_cell: int, num_ops: int) -> None:
    """One row per (epoch, cell, edge): the sampled op, the shared accuracy,
    and the post-update probability vector.  No field ever needs quoting, and
    rows end in CRLF as csv.writer ends them.  The records are written in
    blocks of at most _BLOCK_ENTRIES probabilities, each printed by one
    _csv_prob_rows call and written by one join."""
    header = ["epoch", "accuracy", "cell_kind", "edge_index", "sampled_op"]
    header += [f"prob_{i}" for i in range(num_ops)]
    # The cell kind, edge index and sampled op of each edge, by op id.
    edge_ops = [
        [f"{kind},{i},{op},".encode() for op in range(num_ops)]
        for kind in CELL_KINDS
        for i in range(edges_per_cell)
    ]
    per_block = max(1, _BLOCK_ENTRIES // (len(edge_ops) * num_ops))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(trace), per_block):
            block = trace[start : start + per_block]
            heads = [b"%d,%.10f," % (record.epoch, record.accuracy) for record in block]
            parts = [None] * (3 * len(block) * len(edge_ops))
            parts[0::3] = [head for head in heads for _ in edge_ops]
            parts[1::3] = [ops[op] for record in block for ops, op in zip(edge_ops, record.arch)]
            parts[2::3] = _csv_prob_rows(np.stack([record.probs for record in block]))
            fh.write(b"".join(parts))


def write_checkpoint(path, searcher: Searcher) -> None:
    """Write json.dumps(searcher.checkpoint()) to `path`, streamed: the
    state, then one trace record at a time, so the whole document is never
    held as lists or as one string.

    A probability entry is formatted only where it differs from the same
    entry in the previous record; otherwise its text is reused.  Equal
    floats print the same, except that 0.0 == -0.0, so a zero is always
    formatted, and a NaN equals nothing, so it is too.  A record's changed
    entries are formatted by one json.dumps of them all, split at ", ",
    which no float's text holds."""
    with open(path, "w") as fh:
        fh.write(json.dumps(searcher._state())[:-1] + ', "trace": [')
        if searcher.trace:
            num_edges, num_ops = searcher.trace[0].probs.shape
            # Entry i's text at 2 * i, then the separator that follows it.
            parts = [", "] * (2 * num_edges * num_ops)
            parts[2 * num_ops - 1 :: 2 * num_ops] = ["], ["] * num_edges
            parts[-1] = ""
        prev = np.nan  # equal to nothing, so every entry of the first record is formatted
        sep = ""
        for record in searcher.trace:
            flat = record.probs.ravel()
            changed = (flat != prev) | (flat == 0)
            texts = json.dumps(flat[changed].tolist())[1:-1].split(", ")
            for i, text in zip((2 * np.flatnonzero(changed)).tolist(), texts):
                parts[i] = text
            prev = flat
            head = json.dumps(
                {"epoch": record.epoch, "arch": list(record.arch), "accuracy": record.accuracy}
            )
            fh.write(f'{sep}{head[:-1]}, "probs": [[{"".join(parts)}]]}}')
            sep = ", "
        fh.write("]}")
