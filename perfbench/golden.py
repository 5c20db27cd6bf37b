"""Timing-free output check: are the mdnas outputs byte-identical to the
pinned ones?

    python3 perfbench/golden.py            # check; exit 0 when all match
    python3 perfbench/golden.py --update   # re-pin golden.json

Runs ``search`` then ``derive`` through ``mdnas.cli.main`` for a small matrix
of fast configs (tabular and surrogate evaluators x latest/mean/max
aggregation x N = 2/4/8) and compares the sha256 digests of ``trace.csv``,
``checkpoint.json``, both genotype files and the derive output with the ones
in ``golden.json``.  The output invariants of ``outputs.py`` are checked as
well.  It takes seconds, so a refactor can prove it changed no output before
any timing is run.

``--update`` also re-pins the digests ``run.py`` checks on the default seed,
by running one iteration of each benchmark workload.  Re-pin only for a
change that alters outputs on purpose, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import outputs
import run

EPOCHS = 40


def matrix_configs() -> dict[str, dict]:
    configs = {}
    for kind, agg, n in itertools.product(("tabular", "surrogate"), ("latest", "mean", "max"), (2, 4, 8)):
        evaluator = {"type": kind, "seed": 1}
        if kind == "tabular":
            evaluator["argmax_margin"] = 0.05
        else:
            evaluator.update(consistency=0.8, tau_c=10.0)
        configs[f"{kind}-{agg}-n{n}"] = {
            "num_intermediate": n, "epochs": EPOCHS, "alpha": 0.01, "k": 2, "seed": 3,
            "acc_aggregation": agg, "evaluator": evaluator,
        }
    return configs


def run_once(wl: run.Workload, config: dict, work: Path, golden: dict | None) -> tuple[dict, run.Tally]:
    """Run one iteration of a workload and check it, against `golden` unless
    None; return its digests and the tally of commands and checks."""
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    out, tally = work / "out", run.Tally()
    run.run_iteration(wl, config, config_path, out, wl.sizes, tally)
    run.check_iteration(wl, config, out, wl.sizes, golden, tally)
    return outputs.digests(out, wl.digest_paths(config, out)), tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check mdnas outputs against pinned sha256 digests.")
    parser.add_argument("--update", action="store_true", help="re-pin golden.json instead of checking")
    args = parser.parse_args(argv)
    if not (run.SRC / "mdnas" / "cli.py").is_file():
        print(f"error: no mdnas sources under {run.SRC}", file=sys.stderr)
        return 2
    golden = run.load_golden()
    pinned = golden.get("matrix", {})
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.OUT))
    bad, matrix = 0, {}
    try:
        for case, config in matrix_configs().items():
            wl = run.Workload(case, "search", {}, lambda seed, config=config: config)
            matrix[case], tally = run_once(wl, config, work / case, None if args.update else pinned.get(case, {}))
            ok = tally.failed == 0 and tally.digest_mismatches == 0
            bad += not ok
            print(f"{'ok' if ok else 'FAIL':4} {case}")
        if args.update:
            workloads = {}
            for name, wl in run.WORKLOADS.items():
                workloads[name], tally = run_once(wl, wl.config(run.DEFAULT_SEED), work / name, None)
                if tally.failed:
                    raise SystemExit(f"{name}: {tally.failed} of {tally.attempted} commands or checks failed")
            golden = {"workloads": workloads, "matrix": matrix}
            run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
            print(f"wrote {run.GOLDEN}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(matrix) - bad}/{len(matrix)} configs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
