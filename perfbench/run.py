"""Benchmark of the mdnas command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload turns ``--seed`` into config files, then runs its two
CLI commands through ``mdnas.cli.main`` in this process, one after the other
(closed loop, one client), again and again: at least three iterations, then
more while the next one is likely to end within ``--seconds`` of measured
command time.  After every
iteration the outputs are checked (see ``outputs.py``); on the default seed
their sha256 digests must also equal the ones pinned in ``golden.json``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: one iteration, both commands (median over iterations);
* ``setup_s``: a fresh process importing mdnas and building the Searcher or
  evaluator for the workload's config (median of seven processes);
* ``peak_rss_mb``: peak resident set of this process plus its largest child;
* ``output_mb``: bytes one iteration writes.

The per-command figures are printed and recorded too, but are not metrics of
the result line: ``search_edge_epochs_per_s`` (edges x epochs x seeds per
second of ``search``) and ``derive_s``, or ``simulate_evals_per_s`` (cohort x
epochs per second of ``simulate``) and ``analyze_tau_s``.  On a machine whose
speed drifts they spread more than ``wall_s``, and each extra timing metric
is one more chance for run-to-run noise to exceed its bound.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.  Failed commands
and failed checks count in ``failed``; a digest mismatch makes ``correct``
false.  Lines before the last one are for people; the last line is the JSON
result.  Results and the spans of the last traced iteration go to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, so no thread pool adds threads beyond nproc.  Set
# before numpy is imported; pool workers and set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import outputs  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(SRC))

DEFAULT_SEED = 0
MIN_ITERATIONS = 3
SETUP_REPEATS = 7


def _subseeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """A config generator plus the two CLI commands run on it."""

    name: str
    kind: str  # "search": search + derive; "simulate": simulate + analyze-tau
    sizes: dict
    make_config: Callable[..., dict] = field(repr=False)  # (seed, **sizes) -> config
    jobs: int = 1

    def config(self, seed: int, sizes: dict | None = None) -> dict:
        return self.make_config(seed, **(sizes or self.sizes))

    def commands(self, config: dict, config_path: Path, out: Path, sizes: dict) -> list[list[str]]:
        if self.kind == "search":
            search = ["search", "--config", str(config_path), "--out", str(out / "run"), "--jobs", str(self.jobs)]
            derive = ["derive", "--checkpoint", str(self.run_dirs(config, out)[0] / "checkpoint.json"),
                      "--out", str(out / "genotypes.json"), "--k", str(config["k"])]
            return [search, derive]
        simulate = ["simulate", "--config", str(config_path), "--out", str(out / "scores.csv"),
                    "--cohort", str(sizes["cohort"])]
        return [simulate, ["analyze-tau", "--scores", str(out / "scores.csv"), "--out", str(out / "tau.csv")]]

    def run_dirs(self, config: dict, out: Path) -> list[Path]:
        if "seeds" in config:
            return [out / "run" / f"seed_{s}" for s in config["seeds"]]
        return [out / "run"]

    def main_items(self, config: dict, sizes: dict) -> int:
        if self.kind == "search":
            edges = 2 * outputs.edges_per_cell(config["num_intermediate"])
            return edges * config["epochs"] * len(config.get("seeds", [0]))
        return sizes["cohort"] * config["epochs"]

    def check(self, config: dict, out: Path, sizes: dict) -> list[list[str]]:
        """One problem list per output check of one iteration."""
        if self.kind == "search":
            results = []
            for run_dir in self.run_dirs(config, out):
                results += outputs.check_search_dir(run_dir, config)
            results += outputs.check_derived(out / "genotypes.json", self.run_dirs(config, out)[0], config)
            return results
        return [outputs.check_scores(out / "scores.csv", config["epochs"], sizes["cohort"]),
                outputs.check_tau(out / "tau.csv", config["epochs"])]

    def digest_paths(self, config: dict, out: Path) -> list[str]:
        if self.kind == "search":
            paths = [str((d / f).relative_to(out)) for d in self.run_dirs(config, out) for f in outputs.SEARCH_FILES]
            return paths + ["genotypes.json"]
        return ["scores.csv", "tau.csv"]


def _search_n4(seed: int, epochs: int) -> dict:
    search_seed, eval_seed = _subseeds(seed, 2)
    return {
        "num_intermediate": 4, "epochs": epochs, "alpha": 0.01, "k": 2, "seed": search_seed,
        "acc_aggregation": "latest",
        "evaluator": {"type": "tabular", "seed": eval_seed, "argmax_margin": 0.05},
    }


def _search_n8_batch(seed: int, epochs: int, seeds: int) -> dict:
    eval_seed, *run_seeds = _subseeds(seed, 1 + seeds)
    return {
        "num_intermediate": 8, "epochs": epochs, "alpha": 0.01, "k": 2, "seeds": run_seeds,
        "acc_aggregation": "mean",
        "evaluator": {"type": "surrogate", "seed": eval_seed, "consistency": 0.8, "tau_c": 10.0,
                      "interaction_strength": 0.05},
    }


def _simulate_ramp(seed: int, epochs: int, cohort: int) -> dict:
    sim_seed, eval_seed = _subseeds(seed, 2)
    # The rank-consistency reproduction setting: 0.5 -> 0.974 over all epochs.
    return {
        "num_intermediate": 4, "epochs": epochs, "seed": sim_seed,
        "evaluator": {"type": "surrogate", "seed": eval_seed, "tau_c": 10.0, "consistency": 0.5,
                      "consistency_final": 0.974, "ramp_epochs": epochs},
    }


WORKLOADS = {
    w.name: w
    for w in (
        # The per-edge engine/distribution loop at 28 edges, plus the big
        # trace and checkpoint writes and derive reading the checkpoint back.
        Workload("search_n4_tabular", "search", {"epochs": 1000}, _search_n4),
        # 3x the edges per step, the `mean` aggregation branch, a surrogate
        # with interaction terms built at set-up, and the process pool.
        Workload("search_n8_batch", "search", {"epochs": 300, "seeds": 4}, _search_n8_batch,
                 jobs=min(2, _nproc())),
        # No engine work: per-epoch sigma calibration under a ramp, per-call
        # evaluate cost, and the quadratic kendall_tau over a large cohort.
        Workload("simulate_ramp_tau", "simulate", {"epochs": 50, "cohort": 1000}, _simulate_ramp),
    )
}

# Names of the per-command figures: (first command's rate, second command's time).
COMMAND_FIGURES = {
    "search": ("search_edge_epochs_per_s", "derive_s"),
    "simulate": ("simulate_evals_per_s", "analyze_tau_s"),
}


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "mdnas").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha, "source_sha256": src.hexdigest(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "nproc": _nproc(), "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digest_mismatches: int = 0

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {problem}", file=sys.stderr)


def run_iteration(wl: Workload, config: dict, config_path: Path, out: Path, sizes: dict, tally: Tally):
    """Run the workload's commands once; return (wall, per-command walls)."""
    from mdnas import cli

    out.mkdir(parents=True)
    gc.collect()  # start every iteration from the same heap state
    times = []
    start = time.perf_counter()
    for argv in wl.commands(config, config_path, out, sizes):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            rc = None
        times.append(time.perf_counter() - t0)
        tally.record(rc == 0, f"mdnas {' '.join(argv)} exited {rc}")
    return time.perf_counter() - start, times


def check_iteration(wl: Workload, config: dict, out: Path, sizes: dict, golden: dict | None, tally: Tally) -> int:
    """Check one iteration's outputs; return the bytes it wrote."""
    try:
        results = wl.check(config, out, sizes)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        results = [[f"unreadable output: {exc!r}"]]
    for problems in results:
        tally.record(not problems, "; ".join(problems))
    if golden is not None:
        actual = outputs.digests(out, wl.digest_paths(config, out))
        for rel in outputs.digest_mismatches(actual, golden):
            tally.digest_mismatches += 1
            print(f"digest mismatch: {rel}", file=sys.stderr)
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def measure_setup(wl: Workload, config_path: Path) -> list[float]:
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(config_path), wl.kind]
    return [float(subprocess.run(probe, check=True, capture_output=True, text=True).stdout)
            for _ in range(SETUP_REPEATS)]


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
                  out_root: Path = OUT) -> dict:
    """Run one benchmark and return its result: the final JSON line's fields
    plus samples, environment and the human-readable metric names."""
    import mdnas.cli  # noqa: F401  (every layer module, for the tracer)

    wl = WORKLOADS[name]
    sizes = sizes or wl.sizes
    config = wl.config(seed, sizes)
    golden = None
    if seed == DEFAULT_SEED and sizes == wl.sizes:
        golden = load_golden().get("workloads", {}).get(name, {})
    work = out_root / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    tally = Tally()
    samples = {"wall_s": [], "main_s": [], "followup_s": [], "output_bytes": []}
    traced_walls, per_layer, last_spans = [], [], []
    tracer = spans.Tracer(work / "spill")
    try:
        # Stop before an iteration that would likely run past `seconds`.
        rounds, i = [], 0
        while len(rounds) < (1 if trace else MIN_ITERATIONS) or sum(rounds) + statistics.median(rounds) <= seconds:
            out = work / f"iter{i}"
            wall, (main_s, followup_s) = run_iteration(wl, config, config_path, out, sizes, tally)
            rounds.append(wall)
            samples["wall_s"].append(wall)
            samples["main_s"].append(main_s)
            samples["followup_s"].append(followup_s)
            samples["output_bytes"].append(check_iteration(wl, config, out, sizes, golden, tally))
            shutil.rmtree(out)
            i += 1
            if trace:
                out = work / f"iter{i}"
                tracer.install()
                try:
                    wall, _ = run_iteration(wl, config, config_path, out, sizes, tally)
                finally:
                    tracer.uninstall()
                last_spans = tracer.drain()
                rounds[-1] += wall
                traced_walls.append(wall)
                per_layer.append(spans.iteration_metrics(last_spans))
                check_iteration(wl, config, out, sizes, golden, tally)
                shutil.rmtree(out)
                i += 1
        rss = peak_rss_mb()
        setup = [] if trace else measure_setup(wl, config_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in spans.combine(per_layer).items()}
        untraced, traced = med(samples["wall_s"]), med(traced_walls)
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": med(samples["wall_s"]), "unit": "s"},
            "setup_s": {"value": med(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "output_mb": {"value": med(samples["output_bytes"]) / 1e6, "unit": "MB"},
        }
    items = wl.main_items(config, sizes)
    rate_name, followup_name = COMMAND_FIGURES[wl.kind]
    commands = {
        rate_name: {"value": med(items / s for s in samples["main_s"]), "unit": "1/s"},
        followup_name: {"value": med(samples["followup_s"]), "unit": "s"},
    }
    result = {
        "correct": tally.failed == 0 and tally.digest_mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "sizes": sizes,
        "digests_checked": golden is not None, "digest_mismatches": tally.digest_mismatches,
        "fail_frac": tally.failed / tally.attempted, "samples": samples, "traced_walls": traced_walls,
        "setup_samples": setup, "commands": commands, "environment": environment(), "result": result,
    }
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if trace:
        spans.write_spans_csv(results_dir / f"{name}-seed{seed}-spans.csv.gz", last_spans)
    return record


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_human(record: dict) -> None:
    print(f"# mdnas benchmark: {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    print(f"# environment: {json.dumps(record['environment'])}")
    for key, metric in record["result"]["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    n = len(record["samples"]["wall_s"])
    for key, metric in record["commands"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']} (median of {n} untraced iterations)")
    print(f"iterations = {n} untraced, {len(record['traced_walls'])} traced")
    print(f"fail_frac = {record['fail_frac']:.6g} ({record['result']['failed']}/{record['result']['attempted']})")
    checked = "" if record["digests_checked"] else " (not checked: digests are pinned for the default seed only)"
    print(f"digest_mismatches = {record['digest_mismatches']} count{checked}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "mdnas" / "cli.py").is_file():
        print(f"error: no mdnas sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the work directory is removed and the
    # CLI's process pool is shut down on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
