"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import outputs
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "search_n4_tabular": {"epochs": 12},
    "search_n8_batch": {"epochs": 6, "seeds": 3},
    "simulate_ramp_tau": {"epochs": 5, "cohort": 12},
}


def span(sid, parent, start, end, pid=1, name="engine.step"):
    return ((pid << 32) | sid, (1 << 32) | parent if parent else 0, name, start, end, None)


def test_self_time_subtracts_nested_children():
    tree = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 2, 20, 30),  # nested in span 2, not directly in span 1
        span(4, 1, 50, 60),
    ]
    got = {sid & 0xFFFFFFFF: ns for sid, ns in spans.self_times(tree).items()}
    assert got == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_counts_overlapping_children_once():
    # Two pool workers run children of one span at the same time.
    tree = [span(1, 0, 0, 100), span(2, 1, 10, 70, pid=2), span(3, 1, 20, 80, pid=3)]
    assert spans.self_times(tree)[(1 << 32) | 1] == 30


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_smoke(name, tmp_path):
    record = run.run_benchmark(name, 1, 0.01, False, sizes=TINY[name], out_root=tmp_path)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert len(record["samples"]["wall_s"]) == run.MIN_ITERATIONS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert not (tmp_path / "work" / f"{name}-1").exists()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_traced_smoke(name, tmp_path):
    import mdnas.distribution
    import mdnas.engine

    original = mdnas.distribution.sample_gate
    record = run.run_benchmark(name, 1, 0.01, True, sizes=TINY[name], out_root=tmp_path)
    assert mdnas.distribution.sample_gate is original is mdnas.engine.sample_gate
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    assert record["result"]["correct"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert record["result"]["metrics"][metric["name"]]["unit"] == metric["unit"]
    config = run.WORKLOADS[name].config(1, TINY[name])
    if name.startswith("search"):
        n_seeds = len(config.get("seeds", [0]))
        edges = 2 * outputs.edges_per_cell(config["num_intermediate"])
        assert metrics["engine.step.calls"] == config["epochs"] * n_seeds
        assert metrics["distribution.sample_gate.calls"] == config["epochs"] * n_seeds * edges
        assert metrics["engine.write_trace_csv.rows"] == config["epochs"] * n_seeds * edges
        assert metrics["search_space.derive_genotype.calls"] == 2 * n_seeds + 2
        assert metrics["ranking.calls"] == 0
    else:
        assert metrics["distribution.calls"] == 0
        assert metrics["ranking.kendall_tau.calls"] == config["epochs"]
        assert metrics["ranking.kendall_tau.pairs"] == config["epochs"] * 12 * 11 // 2
        assert metrics["evaluator.sigma_solves"] == config["epochs"]
    if name == "search_n8_batch":
        # The pool workers' spans reached the merged trace.
        assert metrics["cli.seed_job.calls"] == TINY[name]["seeds"]
        assert metrics["evaluator.sigma_solves"] == TINY[name]["seeds"]
        assert 0 <= metrics["cli.pool.idle_ratio"] < 1
    assert (tmp_path / "results" / f"{name}-seed1-spans.csv.gz").is_file()


def test_checks_catch_a_probability_below_the_floor(tmp_path):
    wl = run.WORKLOADS["search_n4_tabular"]
    config = wl.config(2, TINY["search_n4_tabular"])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    tally = run.Tally()
    run.run_iteration(wl, config, config_path, tmp_path / "out", TINY["search_n4_tabular"], tally)
    trace = tmp_path / "out" / "run" / "trace.csv"
    assert outputs.check_trace(trace, config) == []
    lines = trace.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = "0.0000000001"
    lines[5] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    assert outputs.check_trace(trace, config)
