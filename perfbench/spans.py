"""In-memory span tracer for the mdnas layers, installed from outside the
program by wrapping its public functions and methods.

Every public module-level function and every public method of a class
defined in one of the layer modules is replaced by a wrapper that records a
span ``(id, parent, name, start_ns, end_ns, extra)``.  The wrapper is also
written into every module that imported the function by name (``engine``
imports the ``distribution`` functions, ``cli`` imports ``write_trace_csv``,
``derive_genotype`` and the ``ranking`` functions), so no call slips past.
Three private ``cli`` helpers are wrapped too, because the per-layer metrics
need them: the two atomic writers (``cli.write``) and the pool job
(``cli.seed_job``).

Pool workers are forked from the traced process and inherit the wrappers.  A
worker writes its spans to ``spill_dir`` at the end of each seed job; the
parent merges them in ``drain``.  ``time.perf_counter_ns`` reads the
system-wide monotonic clock, so spans from all processes share one timeline.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import inspect
import json
import os
import statistics
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

LAYERS = ("search_space", "distribution", "evaluator", "engine", "ranking", "cli")

CLI_PRIVATE = {"_atomic_write": "cli.write", "_atomic_write_via": "cli.write", "_seed_job": "cli.seed_job"}

# Output file name -> kind, for the cli.write.<kind> metrics.  The derive,
# scores and tau names are the ones the benchmark passes to the CLI.
FILE_KINDS = {
    "trace.csv": "trace",
    "checkpoint.json": "checkpoint",
    "genotype_norm.json": "genotype",
    "genotype_reduction.json": "genotype",
    "manifest.json": "manifest",
    "genotypes.json": "derive",
    "scores.csv": "scores",
    "tau.csv": "tau",
}
WRITE_KINDS = ("trace", "checkpoint", "genotype", "manifest", "derive", "scores", "tau")


class Tracer:
    """Owns the span buffer and the patches; ``install`` / ``uninstall``
    bracket one traced region."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._counter = 0
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self._tokens: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _token(self, obj) -> int:
        """A process-unique id for an evaluator instance; unlike id() it is
        never reused after the instance is freed."""
        token = self._tokens.get(obj)
        if token is None:
            self._counter += 1
            token = self._tokens[obj] = (os.getpid() << 32) | self._counter
        return token

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer._pid:
                # First call in a forked worker: drop the parent's spans.
                # The inherited stack still names the parent's open span.
                tracer._pid = pid
                tracer.spans = []
            tracer._counter += 1
            sid = (pid << 32) | tracer._counter
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, time.perf_counter_ns(), None))
                raise
            end = time.perf_counter_ns()
            tracer._stack.pop()
            extra = hook(tracer, args, kwargs, result) if hook else None
            tracer.spans.append((sid, parent, name, start, end, extra))
            return result

        return wrapper

    def _spill_if_worker(self, name: str, fn):
        """Wrap the pool job so that a forked worker hands its spans over."""
        tracer = self
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def job(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                if os.getpid() != tracer.owner_pid:
                    tracer.spill_dir.mkdir(parents=True, exist_ok=True)
                    path = tracer.spill_dir / f"spans-{os.getpid()}-{tracer._counter}.json"
                    path.write_text(json.dumps(tracer.spans))
                    tracer.spans = []

        return job

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.owner_pid = self._pid = os.getpid()
        modules = [sys.modules[f"mdnas.{layer}"] for layer in LAYERS]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if attr.startswith("_"):
                        name = CLI_PRIVATE.get(attr) if layer == "cli" else None
                        if name is None:
                            continue
                    else:
                        name = f"{layer}.{attr}"
                    if name == "cli.seed_job":
                        replaced[obj] = self._spill_if_worker(name, obj)
                    else:
                        replaced[obj] = self._wrap(name, obj, _HOOKS.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # Patch every module that looks the function up by name, the
        # package's re-exports included.
        for mod in [sys.modules["mdnas"]] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                name = f"{layer}.{cls.__name__}.construct"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            hook = _HOOKS.get(f"{layer}.{attr}")
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(name, member.__func__, hook))
            elif inspect.isfunction(member):
                wrapped = self._wrap(name, member, hook)
            else:
                continue
            self._patches.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def drain(self) -> list[tuple]:
        """Return and forget every span recorded so far, the pool workers'
        spilled spans included."""
        spans = self.spans
        self.spans = []
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.json")):
                spans.extend(tuple(s) for s in json.loads(path.read_text()))
                path.unlink()
        return spans


# -- hooks: what a span records beyond its name and interval ----------------

def _write_hook(tracer, args, kwargs, result):
    path = Path(args[0])
    return [FILE_KINDS.get(path.name, "other"), path.stat().st_size]


def _trace_rows_hook(tracer, args, kwargs, result):
    trace = args[1]
    return len(trace) * len(trace[0].arch) if trace else 0


def _kendall_pairs_hook(tracer, args, kwargs, result):
    m = len(args[0])
    return m * (m - 1) // 2


def _evaluate_hook(tracer, args, kwargs, result):
    epoch = args[2] if len(args) > 2 else kwargs["epoch"]
    return [tracer._token(args[0]), epoch]


def _consistency_hook(tracer, args, kwargs, result):
    return [tracer._token(args[0]), result]


_HOOKS = {
    "cli.write": _write_hook,
    "engine.write_trace_csv": _trace_rows_hook,
    "ranking.kendall_tau": _kendall_pairs_hook,
    "evaluator.evaluate": _evaluate_hook,
    "evaluator.consistency_at": _consistency_hook,
}


# -- analysis --------------------------------------------------------------

def _union_ns(intervals) -> int:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of its
    interval that its child spans cover.  Children may run in parallel in
    other processes, so the covered part is the union of their intervals."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _extra in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _extra in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - _union_ns(clipped)
    return out


def _method(name: str) -> str:
    """'evaluator.TabularOracle.evaluate' -> 'evaluator.evaluate'."""
    parts = name.split(".")
    return f"{parts[0]}.{parts[-1]}"


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return float(values[min(len(values) - 1, int(q * len(values)))])


def iteration_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration.

    Spans are grouped by layer and by method name across classes.  A span
    whose parent has the same method name is a delegation (the surrogate's
    ``true_score`` calling the oracle's) and is not counted a second time.
    """
    by_id = {s[0]: s for s in spans}
    self_ns = self_times(spans)
    groups = defaultdict(list)
    for span in spans:
        key = _method(span[2])
        parent = by_id.get(span[1])
        if parent is not None and _method(parent[2]) == key:
            continue
        groups[key].append(span)

    def dur(span):
        return span[4] - span[3]

    def calls(key):
        return float(len(groups[key]))

    def secs(key):
        return sum(dur(s) for s in groups[key]) / 1e9

    def self_s(key):
        return sum(self_ns[s[0]] for s in groups[key]) / 1e9

    def pct_us(key, q):
        return _pct([dur(s) / 1e3 for s in groups[key]], q)

    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[2].startswith(layer + ".")]
        per_pid = defaultdict(list)
        for s in mine:
            per_pid[s[0] >> 32].append((s[3], s[4]))
        m[f"{layer}.calls"] = float(len(mine))
        m[f"{layer}.busy_s"] = sum(_union_ns(iv) for iv in per_pid.values()) / 1e9
        m[f"{layer}.self_s"] = sum(self_ns[s[0]] for s in mine) / 1e9

    m["engine.step.calls"] = calls("engine.step")
    m["engine.step.self_s"] = self_s("engine.step")
    m["engine.step.p50_us"] = pct_us("engine.step", 0.50)
    m["engine.step.p99_us"] = pct_us("engine.step", 0.99)
    m["engine.write_trace_csv.s"] = secs("engine.write_trace_csv")
    m["engine.write_trace_csv.rows"] = float(sum(s[5] for s in groups["engine.write_trace_csv"]))
    m["engine.checkpoint.s"] = secs("engine.checkpoint")
    m["engine.from_checkpoint.s"] = secs("engine.from_checkpoint")

    for fn in ("sample_gate", "record_feedback", "differentials", "update_probs"):
        m[f"distribution.{fn}.calls"] = calls(f"distribution.{fn}")
        m[f"distribution.{fn}.s"] = secs(f"distribution.{fn}")

    evals = sorted(groups["evaluator.evaluate"], key=lambda s: s[3])
    m["evaluator.evaluate.calls"] = float(len(evals))
    m["evaluator.evaluate.s"] = secs("evaluator.evaluate")
    m["evaluator.evaluate.p50_us"] = pct_us("evaluator.evaluate", 0.50)
    m["evaluator.evaluate.p99_us"] = pct_us("evaluator.evaluate", 0.99)
    seen_epochs, first_ns = set(), 0
    for s in evals:
        key = tuple(s[5])
        if key not in seen_epochs:
            seen_epochs.add(key)
            first_ns += dur(s)
    m["evaluator.evaluate_first_at_epoch.s"] = first_ns / 1e9
    # The surrogate caches one sigma per distinct consistency (clamped to
    # [0.5, 1], rounded to 9 places) per instance; each new value is a solve.
    solves = {
        (s[5][0], round(min(max(s[5][1], 0.5), 1.0), 9)) for s in groups["evaluator.consistency_at"]
    }
    surrogate_evals = sum(1 for s in evals if ".SurrogateCurveEvaluator." in s[2])
    m["evaluator.sigma_solves"] = float(len(solves))
    m["evaluator.sigma_reuse_ratio"] = (surrogate_evals - len(solves)) / len(evals) if evals else 0.0
    # Building an oracle is TabularOracle.random (the table) around __init__.
    m["evaluator.construct.s"] = secs("evaluator.construct") + self_s("evaluator.random")
    m["evaluator.true_score.calls"] = calls("evaluator.true_score")
    m["evaluator.true_score.s"] = secs("evaluator.true_score")

    for fn in ("read_scores_csv", "tau_trace", "write_tau_csv"):
        m[f"ranking.{fn}.s"] = secs(f"ranking.{fn}")
    m["ranking.kendall_tau.calls"] = calls("ranking.kendall_tau")
    m["ranking.kendall_tau.s"] = secs("ranking.kendall_tau")
    m["ranking.kendall_tau.pairs"] = float(sum(s[5] for s in groups["ranking.kendall_tau"]))

    m["search_space.derive_genotype.calls"] = calls("search_space.derive_genotype")
    m["search_space.derive_genotype.s"] = secs("search_space.derive_genotype")

    for cmd in ("cmd_search", "cmd_derive", "cmd_simulate", "cmd_analyze_tau"):
        m[f"cli.{cmd}.s"] = secs(f"cli.{cmd}")
    m["cli.cmd_search.self_s"] = self_s("cli.cmd_search")
    m["cli.cmd_derive.self_s"] = self_s("cli.cmd_derive")
    for kind in WRITE_KINDS:
        writes = [s for s in groups["cli.write"] if s[5] and s[5][0] == kind]
        m[f"cli.write.{kind}.s"] = sum(dur(s) for s in writes) / 1e9
        m[f"cli.write.{kind}.bytes"] = float(sum(s[5][1] for s in writes))
    jobs = groups["cli.seed_job"]
    job_s = [dur(s) / 1e9 for s in jobs]
    m["cli.seed_job.calls"] = float(len(jobs))
    m["cli.seed_job.s"] = sum(job_s)
    m["cli.seed_job.max_s"] = max(job_s, default=0.0)
    # Share of the pool's capacity (workers x search wall) left unused; 0
    # when the search ran no seed jobs.
    search_s = secs("cli.cmd_search")
    workers = len({s[0] >> 32 for s in jobs})
    m["cli.pool.idle_ratio"] = 1.0 - sum(job_s) / (workers * search_s) if jobs and search_s else 0.0
    return m


def combine(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced iterations of each per-layer metric."""
    return {key: statistics.median(d[key] for d in per_iteration) for key in per_iteration[0]}


def write_spans_csv(path: Path, spans) -> None:
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(["pid", "id", "parent", "name", "start_ns", "end_ns", "extra"])
        for sid, parent, name, start, end, extra in sorted(spans, key=lambda s: s[3]):
            writer.writerow([sid >> 32, sid, parent, name, start, end, json.dumps(extra) if extra is not None else ""])
