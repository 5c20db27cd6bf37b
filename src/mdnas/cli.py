"""Command-line driver: run searches, simulate evaluation cohorts, analyze
rank consistency, and derive genotypes from checkpoints.

Exit codes: 0 success, 2 usage/config error, 3 runtime (evaluator) failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .engine import (
    SearchConfig, Searcher, build_evaluator, write_checkpoint, write_trace_csv
)
from .evaluator import SurrogateCurveEvaluator
from .ranking import mean_tau, read_scores_csv, tau_trace, write_scores_csv, write_tau_csv

log = logging.getLogger("mdnas")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """A bad input, with context on where it came from; exits 2."""


def _atomic_write(path: Path, content) -> None:
    """Write `content` to `path` through a temporary file in the same
    directory and a rename.  `content` is the text, or a function that
    writes the file at the path it is given.  The file gets the mode a
    plain open() would create it with."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        if isinstance(content, str):
            Path(tmp).write_text(content)
        else:
            content(tmp)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str, seed_override: int | None = None):
    """Read and validate a config file.  Returns the config and its `seeds`
    list (None for a single run); the config's seed is the first seed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    seeds = doc.pop("seeds", None)
    if seeds is not None:
        if seed_override is not None:
            raise ConfigError("--seed cannot be combined with a 'seeds' list")
        if (
            not isinstance(seeds, list)
            or not seeds
            or not all(type(s) is int and s >= 0 for s in seeds)
        ):
            raise ConfigError("seeds must be a non-empty list of non-negative integers")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"seeds must be distinct, got {seeds}")
        seed_override = seeds[0]
    if seed_override is not None:
        doc["seed"] = seed_override
    return SearchConfig.from_dict(doc), seeds


def _run_one_search(config: SearchConfig, out_dir: Path, evaluator=None) -> dict:
    """Run one seed into `out_dir`.  `evaluator`, if given, is the batch's
    shared evaluator; the search gets a replica of it."""
    started = datetime.now(timezone.utc).isoformat()
    searcher = Searcher(config, None if evaluator is None else evaluator.replica())
    out_dir.mkdir(parents=True, exist_ok=True)
    norm, reduction = searcher.run()

    _atomic_write(
        out_dir / "trace.csv",
        lambda tmp: write_trace_csv(
            tmp, searcher.trace, searcher.edges_per_cell, config.num_ops
        ),
    )
    norm_json = norm.to_json()
    red_json = reduction.to_json()
    _atomic_write(out_dir / "genotype_norm.json", norm_json)
    _atomic_write(out_dir / "genotype_reduction.json", red_json)
    _atomic_write(out_dir / "checkpoint.json", lambda tmp: write_checkpoint(tmp, searcher))

    manifest = {
        "config": config.to_dict(),
        "config_hash": config.digest(),
        "seed": config.seed,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        # Relative to the run directory, so that moving it keeps them valid.
        "outputs": {
            "trace": "trace.csv",
            "genotype_norm": "genotype_norm.json",
            "genotype_reduction": "genotype_reduction.json",
            "checkpoint": "checkpoint.json",
        },
        "genotype_digest": hashlib.sha256((norm_json + red_json).encode()).hexdigest(),
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2))
    return manifest


# The batch's shared evaluator in a pool worker, set once by _init_worker.
# The parent process never sets it.
_worker_evaluator = None


def _init_worker(evaluator) -> None:
    global _worker_evaluator
    _worker_evaluator = evaluator


def _seed_job(args, evaluator=None):
    """One seed of a batch.  In a pool worker the shared evaluator comes
    from _init_worker."""
    config, out_dir = args
    if evaluator is None:
        evaluator = _worker_evaluator
    return _run_one_search(config, Path(out_dir), evaluator)


def _batch_evaluator(config: SearchConfig):
    """The evaluator every seed of a batch reads, built and calibrated once;
    None when the spec leaves the evaluator seed to each run's seed, so that
    no two seeds read the same evaluator."""
    if "seed" not in config.evaluator:
        return None
    evaluator = build_evaluator(config)
    if isinstance(evaluator, SurrogateCurveEvaluator):
        evaluator.calibrate()
    return evaluator


def cmd_search(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    config, seeds = _load_config(args.config, args.seed)
    if seeds is None:
        _run_one_search(config, Path(args.out))
        return EXIT_OK
    # multi-seed batch: one subdirectory per seed
    evaluator = _batch_evaluator(config)
    base = Path(args.out)
    jobs = [(replace(config, seed=s), str(base / f"seed_{s}")) for s in seeds]
    if args.jobs > 1:
        # A forked worker inherits the evaluator; a spawned one unpickles it
        # once, never once per seed.
        with ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_init_worker, initargs=(evaluator,)
        ) as pool:
            list(pool.map(_seed_job, jobs))
    else:
        for job in jobs:
            _seed_job(job, evaluator)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.cohort < 2:
        raise ConfigError(f"--cohort must be >= 2 to rank anything, got {args.cohort}")
    config, seeds = _load_config(args.config, args.seed)
    if seeds is not None:
        raise ConfigError("simulate takes a single seed, not a 'seeds' list")
    evaluator = build_evaluator(config)
    if not isinstance(evaluator, SurrogateCurveEvaluator):
        raise ConfigError("simulate requires a surrogate evaluator")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0xC0,)))
    cohort = evaluator.oracle.sample_archs(rng, args.cohort)
    scores = evaluator.evaluate_many(cohort, range(1, config.epochs + 1))
    arch_ids = [f"a{arch_id:04d}" for arch_id in range(len(cohort))]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, lambda tmp: write_scores_csv(tmp, scores, arch_ids))
    return EXIT_OK


def cmd_analyze_tau(args) -> int:
    try:
        matrix = read_scores_csv(args.scores)
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigError(f"bad scores file: {exc}") from exc
    taus = tau_trace(matrix)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, lambda tmp: write_tau_csv(tmp, taus))
    log.info("mean tau (excluding final epoch): %.4f", mean_tau(taus))
    return EXIT_OK


def cmd_derive(args) -> int:
    try:
        with open(args.checkpoint) as fh:
            snapshot = json.load(fh)
        searcher = Searcher.from_checkpoint(snapshot)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad checkpoint: {exc}") from exc
    doc = {g.kind: json.loads(g.to_json()) for g in searcher.genotypes(args.k)}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdnas",
        description="Multinomial distribution learning for cell-based architecture search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the distribution-learning search")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for multi-seed batches")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("simulate", help="score a random cohort at every epoch")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output scores CSV")
    p.add_argument("--cohort", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze-tau", help="per-epoch Kendall tau vs the final ranking")
    p.add_argument("--scores", required=True, help="input (epoch, arch_id, accuracy) CSV")
    p.add_argument("--out", required=True, help="output (epoch, tau, p_tau) CSV")
    p.set_defaults(fn=cmd_analyze_tau)

    p = sub.add_parser("derive", help="derive genotypes from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output genotypes JSON")
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(fn=cmd_derive)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("MDNAS_LOG", "warn").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
