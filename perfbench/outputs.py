"""Output checks and digests for the files the mdnas CLI writes.

The checks read the files with the standard library only, so they do not
share code with the program they check, and hold on any seed:

* a search run's ``trace.csv`` has epochs x edges rows and every probability
  row lies on the simplex with min >= 1e-6; so does every distribution in
  ``checkpoint.json``;
* each genotype has exactly k picks per intermediate node;
* a tau CSV has a header, one row per epoch and a mean line, with tau in
  [-1, 1].

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

PROB_FLOOR = 1e-6
SIMPLEX_TOL = 1e-8  # trace probabilities are printed with 10 decimals

# Files of a search run directory that are byte-deterministic for a given
# config.  manifest.json is left out: it holds timestamps and paths.
SEARCH_FILES = ("trace.csv", "checkpoint.json", "genotype_norm.json", "genotype_reduction.json")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(root: Path, rel_paths) -> dict[str, str | None]:
    """sha256 per relative path; None for a file that is missing."""
    return {rel: sha256(root / rel) if (root / rel).is_file() else None for rel in rel_paths}


def digest_mismatches(actual: dict[str, str], golden: dict[str, str]) -> list[str]:
    return [rel for rel in sorted(set(actual) | set(golden)) if actual.get(rel) != golden.get(rel)]


def edges_per_cell(num_intermediate: int) -> int:
    return sum(i + 1 for i in range(1, num_intermediate + 1))


def _simplex_problem(probs, where: str) -> str | None:
    if min(probs) < PROB_FLOOR:
        return f"{where}: probability {min(probs)!r} below the floor"
    if abs(math.fsum(probs) - 1.0) > SIMPLEX_TOL:
        return f"{where}: probabilities sum to {math.fsum(probs)!r}"
    return None


def check_trace(path: Path, config: dict) -> list[str]:
    n_ops = config.get("num_ops", 8)
    per_cell = edges_per_cell(config["num_intermediate"])
    epochs = config["epochs"]
    expected_header = ["epoch", "accuracy", "cell_kind", "edge_index", "sampled_op"] + [
        f"prob_{i}" for i in range(n_ops)
    ]
    problems = []
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != expected_header:
            return [f"{path}: unexpected header"]
        for row in reader:
            epoch, edge = divmod(rows, 2 * per_cell)
            rows += 1
            want = [str(epoch + 1), "norm" if edge < per_cell else "reduction", str(edge % per_cell)]
            if [row[0], row[2], row[3]] != want:
                problems.append(f"{path} row {rows}: expected epoch/cell/edge {want}, got {row[:4]}")
            elif not 0 <= int(row[4]) < n_ops:
                problems.append(f"{path} row {rows}: sampled op {row[4]} out of range")
            elif not 0.0 <= float(row[1]) <= 1.0:
                problems.append(f"{path} row {rows}: accuracy {row[1]} outside [0, 1]")
            else:
                problem = _simplex_problem([float(v) for v in row[5:]], f"{path} row {rows}")
                if problem:
                    problems.append(problem)
            if len(problems) >= 5:
                break
    if not problems and rows != epochs * 2 * per_cell:
        problems.append(f"{path}: {rows} rows, expected {epochs} epochs x {2 * per_cell} edges")
    return problems


def check_checkpoint(path: Path, config: dict) -> list[str]:
    doc = json.loads(path.read_text())
    n_edges = 2 * edges_per_cell(config["num_intermediate"])
    epochs = config["epochs"]
    problems = []
    if doc["epoch"] != epochs or len(doc["trace"]) != epochs:
        problems.append(f"{path}: epoch {doc['epoch']}, {len(doc['trace'])} trace records, expected {epochs}")
    if len(doc["distributions"]) != n_edges:
        problems.append(f"{path}: {len(doc['distributions'])} distributions, expected {n_edges}")
    for i, dist in enumerate(doc["distributions"]):
        problem = _simplex_problem(dist["probs"], f"{path} edge {i}")
        if problem:
            problems.append(problem)
        if sum(dist["epochs"]) != doc["epoch"]:
            problems.append(f"{path} edge {i}: epoch counts sum to {sum(dist['epochs'])}")
    return problems


def check_genotype(genotype: dict, kind: str, config: dict) -> list[str]:
    n, k = config["num_intermediate"], config["k"]
    if genotype.get("kind") != kind or len(genotype.get("nodes", ())) != n:
        return [f"{kind} genotype: expected kind {kind!r} with {n} nodes"]
    problems = []
    for i, node in enumerate(genotype["nodes"], start=1):
        sources = [src for src, _op in node]
        if len(node) != k or len(set(sources)) != k:
            problems.append(f"{kind} genotype node B{i}: {node} is not {k} distinct picks")
    return problems


def check_search_dir(run_dir: Path, config: dict) -> list[list[str]]:
    """One problem list per check of a search run directory."""
    results = [check_trace(run_dir / "trace.csv", config), check_checkpoint(run_dir / "checkpoint.json", config)]
    for kind, name in (("norm", "genotype_norm.json"), ("reduction", "genotype_reduction.json")):
        results.append(check_genotype(json.loads((run_dir / name).read_text()), kind, config))
    return results


def check_derived(path: Path, run_dir: Path, config: dict) -> list[list[str]]:
    """Check a derive output made at the search's own k: it must equal the
    genotypes the search wrote."""
    doc = json.loads(path.read_text())
    results = [check_genotype(doc.get(kind, {}), kind, config) for kind in ("norm", "reduction")]
    same = all(
        doc.get(kind) == json.loads((run_dir / f"genotype_{kind}.json").read_text()) for kind in ("norm", "reduction")
    )
    results.append([] if same else [f"{path}: derived genotypes differ from the search's"])
    return results


def check_scores(path: Path, epochs: int, cohort: int) -> list[str]:
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["epoch", "arch_id", "accuracy"]:
            return [f"{path}: unexpected header"]
        for row in reader:
            rows += 1
            if not 0.0 <= float(row[2]) <= 1.0:
                return [f"{path} row {rows}: accuracy {row[2]} outside [0, 1]"]
    if rows != epochs * cohort:
        return [f"{path}: {rows} rows, expected {epochs} epochs x {cohort} architectures"]
    return []


def check_tau(path: Path, epochs: int) -> list[str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != epochs + 2 or rows[0] != ["epoch", "tau", "p_tau"] or rows[-1][0] != "mean":
        return [f"{path}: expected a header, {epochs} epoch rows and a mean line; got {len(rows)} lines"]
    problems = []
    for i, (epoch, tau, p_tau) in enumerate(rows[1:]):
        tau, p_tau = float(tau), float(p_tau)
        if epoch != ("mean" if i == epochs else str(i)):
            problems.append(f"{path} line {i + 2}: epoch {epoch!r}")
        if not -1.0 <= tau <= 1.0 or abs(p_tau - (tau + 1.0) / 2.0) > 1e-6:
            problems.append(f"{path} line {i + 2}: tau {tau}, p_tau {p_tau}")
    if float(rows[epochs][1]) != 1.0:
        problems.append(f"{path}: the final epoch's tau against itself is {rows[epochs][1]}, not 1")
    return problems
