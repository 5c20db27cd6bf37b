import csv
import inspect
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import mdnas
from mdnas.cli import main
from mdnas.engine import Searcher
from mdnas.evaluator import SurrogateCurveEvaluator, TabularOracle

OUTPUT_FILES = (
    "trace.csv",
    "genotype_norm.json",
    "genotype_reduction.json",
    "checkpoint.json",
    "manifest.json",
)


def write_config(path, **overrides):
    doc = {
        "num_intermediate": 2,
        "num_ops": 4,
        "epochs": 10,
        "seed": 0,
        "evaluator": {"type": "tabular", "seed": 1},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def test_search_writes_all_outputs(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    for name in OUTPUT_FILES:
        assert (out / name).exists(), name
    # 2 cells x 5 edges per cell x 10 epochs, plus the header
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 10 * 2 * 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert set(manifest["outputs"]) == {
        "trace",
        "genotype_norm",
        "genotype_reduction",
        "checkpoint",
    }


def test_search_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["search", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["search", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trace.csv", "genotype_norm.json", "genotype_reduction.json", "checkpoint.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["genotype_digest"] == m2["genotype_digest"]
    assert m1["config_hash"] == m2["config_hash"]


def test_search_seed_override_changes_trace(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["search", "--config", str(cfg), "--out", str(out1)])
    main(["search", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 7


def test_search_malformed_json_exits_2_no_outputs(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"epochs": 10,\n "num_ops": }')
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


def test_search_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    write_config(cfg, epochz=3)
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "epochz" in capsys.readouterr().err


def test_search_missing_config_exits_2(tmp_path):
    assert main(
        ["search", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]
    ) == 2


def test_search_multi_seed_batch(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg, seeds=[0, 1, 2])
    out = tmp_path / "batch"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    traces = set()
    for s in (0, 1, 2):
        run_dir = out / f"seed_{s}"
        for name in OUTPUT_FILES:
            assert (run_dir / name).exists()
        assert json.loads((run_dir / "manifest.json").read_text())["seed"] == s
        traces.add((run_dir / "trace.csv").read_bytes())
    assert len(traces) == 3  # different seeds, different trajectories


def test_search_multi_seed_parallel_matches_serial(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg, seeds=[0, 1])
    serial, parallel = tmp_path / "s", tmp_path / "p"
    main(["search", "--config", str(cfg), "--out", str(serial)])
    main(["search", "--config", str(cfg), "--out", str(parallel), "--jobs", "2"])
    for s in (0, 1):
        assert (serial / f"seed_{s}" / "trace.csv").read_bytes() == (
            parallel / f"seed_{s}" / "trace.csv"
        ).read_bytes()


SURROGATE = {"type": "surrogate", "seed": 1, "consistency": 0.8, "interaction_strength": 0.1}
SEARCH_FILES = ("trace.csv", "genotype_norm.json", "genotype_reduction.json", "checkpoint.json")


def _log_calls(monkeypatch, log, owner, name, line=None):
    """Count calls of owner.name in `log`, one line per call (`name`, or
    line(*args)).  Pool workers forked from this process (the default start
    method on Linux up to Python 3.13) inherit the patch and append to the
    same file."""
    original = getattr(owner, name)

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write((name if line is None else line(*args)) + "\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_builds_one_evaluator_and_matches_single_seed_runs(tmp_path, monkeypatch, jobs):
    """One oracle build and one calibration per batch command, a distinct
    evaluator per seed, and each seed's files equal to its own run's."""
    seeds, epochs = [0, 3, 5], 6
    single = tmp_path / "single.json"
    write_config(single, epochs=epochs, evaluator=SURROGATE)
    for s in seeds:
        out = tmp_path / f"single_{s}"
        assert main(["search", "--config", str(single), "--out", str(out), "--seed", str(s)]) == 0

    log = tmp_path / "calls.log"
    kept = []  # keeps every evaluator alive, so no id is reused

    def evaluator_line(searcher):
        kept.append(searcher.evaluator)
        return f"evaluator {os.getpid()} {id(searcher.evaluator)}"

    _log_calls(monkeypatch, log, TabularOracle, "__init__")
    _log_calls(
        monkeypatch, log, TabularOracle, "true_scores",
        lambda self, archs: f"true_scores {len(archs)}",
    )
    _log_calls(monkeypatch, log, Searcher, "run", evaluator_line)
    batch = tmp_path / "batch.json"
    write_config(batch, epochs=epochs, evaluator=SURROGATE, seeds=seeds)
    out = tmp_path / "batch"
    assert main(["search", "--config", str(batch), "--out", str(out), "--jobs", jobs]) == 0

    lines = log.read_text().splitlines()
    pairs = inspect.signature(SurrogateCurveEvaluator).parameters["calibration_pairs"].default
    assert lines.count("__init__") == 1
    # one calibration, scored in blocks (two rows per pair) ...
    blocks = [int(line.split()[1]) for line in lines if line.startswith("true_scores ")]
    assert sum(b for b in blocks if b > 1) == 2 * pairs
    # ... plus one one-row scoring per epoch and seed
    assert blocks.count(1) == len(seeds) * epochs
    evaluators = [line for line in lines if line.startswith("evaluator ")]
    assert len(evaluators) == len(set(evaluators)) == len(seeds)
    for s in seeds:
        for name in SEARCH_FILES:
            assert (out / f"seed_{s}" / name).read_bytes() == (
                tmp_path / f"single_{s}" / name
            ).read_bytes(), (s, name)

    log.unlink()
    derived = tmp_path / "genotypes.json"
    checkpoint = out / "seed_3" / "checkpoint.json"
    assert main(["derive", "--checkpoint", str(checkpoint), "--out", str(derived)]) == 0
    assert not any(line.startswith("true_score") for line in log.read_text().splitlines())


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_search_rejects_jobs_below_one_before_any_output(tmp_path, capsys, jobs):
    cfg = tmp_path / "config.json"
    write_config(cfg, seeds=[0, 1])
    out = tmp_path / "batch"
    assert main(["search", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_search_outputs_get_the_mode_the_umask_allows(tmp_path, umask, mode):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "run"
    old = os.umask(umask)
    try:
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for name in OUTPUT_FILES:
        assert stat.S_IMODE((out / name).stat().st_mode) == mode, name


@pytest.mark.parametrize(
    "overrides,argv,message",
    [
        ({"seeds": [1, 1]}, [], "distinct"),
        ({"seeds": 3}, [], "list"),
        ({"seeds": []}, [], "list"),
        ({"seeds": [0, 1]}, ["--seed", "4"], "--seed"),
    ],
    ids=["repeated", "not-a-list", "empty", "with-seed-flag"],
)
def test_search_rejects_bad_seeds_before_any_output(tmp_path, capsys, overrides, argv, message):
    cfg = tmp_path / "config.json"
    write_config(cfg, **overrides)
    out = tmp_path / "batch"
    assert main(["search", "--config", str(cfg), "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


BAD_VALUES = {
    "k-3": {"k": 3},
    "tau_c-0": {"evaluator": {"type": "surrogate", "seed": 1, "tau_c": 0}},
    "tau_c-negative": {"evaluator": {"type": "surrogate", "seed": 1, "tau_c": -5}},
    "interaction-negative": {
        "evaluator": {"type": "tabular", "seed": 1, "interaction_strength": -0.1}
    },
    "batch-tau_c-0": {
        "seeds": [0, 1],
        "evaluator": {"type": "surrogate", "seed": 1, "tau_c": 0},
    },
    "exclude_none-string": {"exclude_none": "false"},
    "epochs-float": {"epochs": 2.5},
    "num_intermediate-bool": {"num_intermediate": True},
    "alpha-bool": {"alpha": True},
    "aggregation-non-str": {"acc_aggregation": 1},
    "tabular-surrogate-keys": {
        "evaluator": {"type": "tabular", "tau_c": 5, "consistency": 0.7}
    },
    "inline-q-argmax_margin": {
        "evaluator": {"type": "tabular", "q": [[0.5] * 4] * 10, "argmax_margin": 0.1}
    },
    # evaluator spec values: "spec-<key>-<case>", the error names <key>
    "spec-interaction_strength-bool": {
        "evaluator": {"type": "tabular", "seed": 1, "interaction_strength": True}
    },
    "spec-argmax_margin-bool": {
        "evaluator": {"type": "tabular", "seed": 1, "argmax_margin": True}
    },
    "spec-seed-bool": {"evaluator": {"type": "tabular", "seed": True}},
    "spec-consistency-bool": {
        "evaluator": {"type": "surrogate", "seed": 1, "consistency": True}
    },
    "spec-ramp_epochs-float": {
        "evaluator": {
            "type": "surrogate", "seed": 1, "consistency_final": 0.9, "ramp_epochs": 2.5
        }
    },
    "spec-ramp_epochs-0": {
        "evaluator": {
            "type": "surrogate", "seed": 1, "consistency_final": 0.9, "ramp_epochs": 0
        }
    },
    "spec-ramp_epochs-negative": {
        "evaluator": {
            "type": "surrogate", "seed": 1, "consistency_final": 0.9, "ramp_epochs": -3
        }
    },
    "spec-tau_c-string": {"evaluator": {"type": "surrogate", "seed": 1, "tau_c": "5"}},
    # JSON's NaN and Infinity are numbers to Python's json module
    "alpha-nan": {"alpha": float("nan")},
    "alpha-inf": {"alpha": float("inf")},
    "alpha-huge-int": {"alpha": 10**400},
    "spec-tau_c-nan": {"evaluator": {"type": "surrogate", "seed": 1, "tau_c": float("nan")}},
    "spec-interaction_strength-nan": {
        "evaluator": {"type": "tabular", "seed": 1, "interaction_strength": float("nan")}
    },
    "spec-interaction_strength-huge-int": {
        "evaluator": {"type": "tabular", "seed": 1, "interaction_strength": 10**400}
    },
    "spec-q-nan": {"evaluator": {"type": "tabular", "q": [[0.5] * 4] * 9 + [[float("nan")] * 4]}},
    "spec-argmax_margin-negative": {
        "evaluator": {"type": "tabular", "seed": 1, "argmax_margin": -0.5}
    },
    "spec-argmax_margin-nan": {
        "evaluator": {"type": "tabular", "seed": 1, "argmax_margin": float("nan")}
    },
    "spec-argmax_margin-1.5": {
        "evaluator": {"type": "tabular", "seed": 1, "argmax_margin": 1.5}
    },
    "spec-q-ragged": {"evaluator": {"type": "tabular", "q": [[0.5] * 4] * 9 + [[0.5] * 3]}},
    "spec-q-string": {
        "evaluator": {"type": "tabular", "q": [[0.5] * 4] * 9 + [[0.5, 0.5, 0.5, "a"]]}
    },
}


@pytest.mark.parametrize("overrides", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_search_rejects_bad_values_before_any_output(tmp_path, capsys, overrides):
    cfg = tmp_path / "config.json"
    write_config(cfg, **overrides)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", [c for c in BAD_VALUES if c.startswith("spec-")])
def test_bad_evaluator_value_error_names_the_key(tmp_path, capsys, case):
    key = case.split("-")[1]
    cfg = tmp_path / "config.json"
    write_config(cfg, **BAD_VALUES[case])
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0], lines


@pytest.mark.parametrize("case", ["spec-q-ragged", "spec-q-string"])
def test_inline_q_error_names_the_key(tmp_path, capsys, case):
    cfg = tmp_path / "config.json"
    write_config(cfg, **BAD_VALUES[case])
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "evaluator.q" in lines[0], lines


def test_simulate_rejects_nonpositive_tau_c(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg, evaluator={"type": "surrogate", "seed": 1, "tau_c": 0})
    out = tmp_path / "scores" / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.parent.exists()


@pytest.mark.parametrize("cohort", ["0", "-5", "1"])
def test_simulate_rejects_cohort_below_two(tmp_path, capsys, cohort):
    cfg = tmp_path / "config.json"
    write_config(cfg, evaluator={"type": "surrogate", "seed": 1})
    out = tmp_path / "scores" / "s.csv"
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--cohort", cohort]
    ) == 2
    assert "--cohort" in capsys.readouterr().err
    assert not out.parent.exists()


def test_simulate_then_analyze_tau(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(
        cfg,
        epochs=8,
        evaluator={"type": "surrogate", "seed": 2, "consistency": 0.8},
    )
    scores = tmp_path / "scores.csv"
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(scores), "--cohort", "12"]
    ) == 0
    with open(scores, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8 * 12
    assert {r["epoch"] for r in rows} == {str(e) for e in range(1, 9)}
    assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)

    taus = tmp_path / "tau.csv"
    assert main(["analyze-tau", "--scores", str(scores), "--out", str(taus)]) == 0
    lines = taus.read_text().splitlines()
    assert len(lines) == 1 + 8 + 1  # header, one row per epoch, mean summary
    body = list(csv.DictReader(lines[:-1]))
    for row in body:
        tau = float(row["tau"])
        assert -1.0 <= tau <= 1.0
        assert float(row["p_tau"]) == pytest.approx((tau + 1) / 2)
    # the final epoch is compared against itself
    assert float(body[-1]["tau"]) == 1.0


def test_simulate_noiseless_gives_perfect_tau(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(
        cfg,
        epochs=5,
        evaluator={"type": "surrogate", "seed": 3, "consistency": 1.0},
    )
    scores = tmp_path / "scores.csv"
    taus = tmp_path / "tau.csv"
    main(["simulate", "--config", str(cfg), "--out", str(scores), "--cohort", "10"])
    main(["analyze-tau", "--scores", str(scores), "--out", str(taus)])
    body = list(csv.DictReader(taus.read_text().splitlines()[:-1]))
    assert all(float(row["tau"]) == 1.0 for row in body)


def test_simulate_rejects_tabular_evaluator(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
    ) == 2
    assert "surrogate" in capsys.readouterr().err


def test_analyze_tau_rejects_single_arch_cohort(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "epoch,arch_id,accuracy\n1,a0,0.5\n2,a0,0.6\n"
    )
    assert main(
        ["analyze-tau", "--scores", str(scores), "--out", str(tmp_path / "t.csv")]
    ) == 2


def test_analyze_tau_rejects_ragged_scores(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "epoch,arch_id,accuracy\n1,a0,0.5\n1,a1,0.6\n2,a0,0.7\n"
    )
    assert main(
        ["analyze-tau", "--scores", str(scores), "--out", str(tmp_path / "t.csv")]
    ) == 2


@pytest.mark.parametrize(
    "body,expected",
    [
        ("1,a0,0.5\n1,a1,0.6\n1,a0,0.9\n2,a0,0.4\n2,a1,0.7\n", "epoch 1, arch_id a0"),
        ("1,a0,0.5\n1,a1,nan\n2,a0,0.4\n2,a1,0.7\n", "epoch 1, arch_id a1"),
        ("1,a0,0.5\n1,a1,0.6\n2,a0,inf\n2,a1,0.7\n", "epoch 2, arch_id a0"),
        ("1,a0,-inf\n1,a1,0.6\n2,a0,0.4\n2,a1,0.7\n", "epoch 1, arch_id a0"),
        ("1," + "a" * 200_000 + ",0.5\n1,a1,0.6\n", "field larger than field limit"),
    ],
    ids=["repeated", "nan", "inf", "-inf", "oversized-field"],
)
def test_analyze_tau_rejects_bad_rows(tmp_path, capsys, body, expected):
    scores = tmp_path / "scores.csv"
    scores.write_text("epoch,arch_id,accuracy\n" + body)
    out = tmp_path / "t.csv"
    assert main(["analyze-tau", "--scores", str(scores), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and expected in lines[0]
    assert not out.exists()


def test_derive_matches_search_outputs(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "run"
    main(["search", "--config", str(cfg), "--out", str(out)])
    derived = tmp_path / "genotypes.json"
    assert main(
        ["derive", "--checkpoint", str(out / "checkpoint.json"), "--out", str(derived)]
    ) == 0
    doc = json.loads(derived.read_text())
    assert doc["norm"] == json.loads((out / "genotype_norm.json").read_text())
    assert doc["reduction"] == json.loads(
        (out / "genotype_reduction.json").read_text()
    )


def test_derive_with_k_one(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "run"
    main(["search", "--config", str(cfg), "--out", str(out)])
    derived = tmp_path / "genotypes.json"
    assert main(
        [
            "derive",
            "--checkpoint",
            str(out / "checkpoint.json"),
            "--out",
            str(derived),
            "--k",
            "1",
        ]
    ) == 0
    doc = json.loads(derived.read_text())
    assert all(len(node) == 1 for node in doc["norm"]["nodes"])


def test_derive_rejects_excess_k(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "run"
    main(["search", "--config", str(cfg), "--out", str(out)])
    assert main(
        [
            "derive",
            "--checkpoint",
            str(out / "checkpoint.json"),
            "--out",
            str(tmp_path / "g.json"),
            "--k",
            "9",
        ]
    ) == 2


@pytest.mark.parametrize("k", ["0", "-1"])
def test_derive_rejects_k_below_one(tmp_path, k):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "run"
    main(["search", "--config", str(cfg), "--out", str(out)])
    derived = tmp_path / "derived" / "g.json"
    assert main(
        [
            "derive",
            "--checkpoint",
            str(out / "checkpoint.json"),
            "--out",
            str(derived),
            "--k",
            k,
        ]
    ) == 2
    assert not derived.parent.exists()


def test_derive_rejects_corrupt_checkpoint(tmp_path):
    bad = tmp_path / "checkpoint.json"
    bad.write_text('{"epoch": 3}')
    assert main(
        ["derive", "--checkpoint", str(bad), "--out", str(tmp_path / "g.json")]
    ) == 2


@pytest.mark.parametrize("corrupt", ["rng_states", "trace"])
def test_derive_rejects_truncated_checkpoint(tmp_path, corrupt):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    snapshot = json.loads((out / "checkpoint.json").read_text())
    snapshot[corrupt].pop()
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(snapshot))
    derived = tmp_path / "derived" / "g.json"
    proc = _run_cli("derive", "--checkpoint", str(bad), "--out", str(derived))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad checkpoint"), proc.stderr
    assert not derived.parent.exists()


def test_derive_rejects_nan_probs(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    snapshot = json.loads((out / "checkpoint.json").read_text())
    snapshot["distributions"][3]["probs"][0] = float("nan")
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(snapshot))
    derived = tmp_path / "derived" / "g.json"
    proc = _run_cli("derive", "--checkpoint", str(bad), "--out", str(derived))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad checkpoint"), proc.stderr
    assert not derived.parent.exists()


_DELETE = object()

# Edits of a 5-epoch N=2, M=4 checkpoint's trace: the path of the value
# under "trace", and its new value (or _DELETE to remove it).
_BAD_TRACE_EDITS = {
    "epoch-not-1": ((0, "epoch"), 2),
    "epoch-bool": ((0, "epoch"), True),
    "epochs-out-of-order": ((1, "epoch"), 1),
    "arch-string": ((0, "arch"), "xyz"),
    "arch-short": ((0, "arch", -1), _DELETE),
    "arch-op-M": ((0, "arch", 0), 4),
    "arch-op-negative": ((0, "arch", 0), -1),
    "arch-op-float": ((0, "arch", 0), 1.0),
    "arch-op-bool": ((0, "arch", 0), True),
    "accuracy-above-1": ((0, "accuracy"), 1.5),
    "accuracy-below-0": ((0, "accuracy"), -0.25),
    "accuracy-nan": ((0, "accuracy"), float("nan")),
    "accuracy-string": ((0, "accuracy"), "0.5"),
    "accuracy-bool": ((0, "accuracy"), True),
    "probs-junk-row": ((0, "probs", 0), ["abc", None, [], {}]),
    "probs-short": ((0, "probs", -1), _DELETE),
    "probs-row-short": ((0, "probs", 0, -1), _DELETE),
    "probs-nan": ((0, "probs", 0, 0), float("nan")),
    "probs-inf": ((0, "probs", 0, 0), float("inf")),
    "probs-int": ((0, "probs", 0, 0), 1),
    "probs-bool": ((0, "probs", 0, 0), True),
    "probs-number": ((0, "probs"), 0.25),
    "record-not-an-object": ((0,), ["abc"]),
}


@pytest.mark.parametrize("path,value", _BAD_TRACE_EDITS.values(), ids=_BAD_TRACE_EDITS)
def test_derive_rejects_bad_trace_records(tmp_path, capsys, path, value):
    """Epochs run 1..n; each record holds one int op id in [0, M) per edge,
    a float accuracy in [0, 1] and one row of M finite floats per edge."""
    cfg = tmp_path / "c.json"
    write_config(cfg, epochs=5)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    snapshot = json.loads((out / "checkpoint.json").read_text())
    *keys, last = path
    target = snapshot["trace"]
    for key in keys:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(snapshot))
    derived = tmp_path / "derived" / "g.json"
    capsys.readouterr()
    assert main(["derive", "--checkpoint", str(bad), "--out", str(derived)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad checkpoint"), lines
    assert not derived.parent.exists()


# Each edit is (path from the checkpoint's root, new value or _DELETE).
_BAD_STATE_EDITS = {
    "epoch-float": [(("epoch",), 5.0)],
    "epoch-bool": [(("epoch",), True), (("trace", slice(1, None)), _DELETE)],
    "counts-negative": [(("distributions", 0, "epochs", 0), -3)],
    "counts-float": [(("distributions", 0, "epochs", 0), 1.5)],
    "counts-bool": [(("distributions", 0, "epochs", 0), True)],
    "counts-row-sum": [(("distributions", 0, "epochs"), [1, 1, 1, 1])],
    # One numpy cannot hold: an error line, not a traceback.
    "counts-beyond-int64": [(("distributions", 0, "epochs", 0), 2**64)],
    "acc-nan": [(("distributions", 0, "acc", 0), float("nan"))],
    "acc-above-1": [(("distributions", 0, "acc", 0), 7.5)],
    "acc-negative": [(("distributions", 0, "acc", 0), -0.5)],
    "acc-bool": [(("distributions", 0, "acc", 0), True)],
    "probs-bool": [(("distributions", 0, "probs"), [True, 0.0, 0.0, 0.0])],
    # A callable edits the value in place of replacing it.  Rotating a row
    # of four ints that sum to 5 keeps its sum and moves its counts.
    "counts-contradict-trace": [(("distributions", 0, "epochs"), lambda row: row[1:] + row[:1])],
    "probs-not-the-last-records": [
        (("trace", -1, "probs"), lambda rows: [rows[1], rows[0], *rows[2:]])
    ],
}


@pytest.mark.parametrize("edits", _BAD_STATE_EDITS.values(), ids=_BAD_STATE_EDITS)
def test_derive_rejects_bad_checkpoint_state(tmp_path, capsys, edits):
    """The epoch is an int in [0, config.epochs]; each edge's `epochs` row
    holds the ints that tally its sampled ops in the trace, its `acc` row
    floats in [0, 1] and its `probs` row the last trace record's floats."""
    cfg = tmp_path / "c.json"
    write_config(cfg, epochs=5)
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    snapshot = json.loads((out / "checkpoint.json").read_text())
    for (*keys, last), value in edits:
        target = snapshot
        for key in keys:
            target = target[key]
        if value is _DELETE:
            del target[last]
        elif callable(value):
            edited = value(target[last])
            assert edited != target[last]
            target[last] = edited
        else:
            target[last] = value
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(snapshot))
    derived = tmp_path / "derived" / "g.json"
    capsys.readouterr()
    assert main(["derive", "--checkpoint", str(bad), "--out", str(derived)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad checkpoint"), lines
    assert not derived.parent.exists()


def test_manifest_outputs_do_not_depend_on_how_out_is_given(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "config.json", "--out", "relative"]) == 0
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "absolute")]) == 0
    relative, absolute = (
        json.loads((tmp_path / name / "manifest.json").read_text())["outputs"]
        for name in ("relative", "absolute")
    )
    assert relative == absolute
    for name in absolute.values():
        assert (tmp_path / "absolute" / name).is_file(), name


def _run_cli(*argv, **env_vars):
    """Run `python -m mdnas.cli` in a fresh process, with logging as a user
    gets it rather than as pytest configures it."""
    src = str(Path(mdnas.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "mdnas.cli", *argv], capture_output=True, text=True, env=env
    )


def test_each_exit_2_failure_prints_one_error_line(tmp_path):
    bad = tmp_path / "bad.json"
    write_config(bad, k=3)
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"epochs": }')
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("epoch,arch_id,accuracy\n1,a0,0.5\n1,a1,0.6\n2,a0,0.7\n")
    out = str(tmp_path / "out")
    cases = [
        ["search", "--config", str(bad), "--out", out],
        ["search", "--config", str(malformed), "--out", out],
        ["search", "--config", str(tmp_path / "missing.json"), "--out", out],
        ["analyze-tau", "--scores", str(ragged), "--out", out],
    ]
    for argv in cases:
        proc = _run_cli(*argv)
        assert proc.returncode == 2, argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, proc.stderr)


def test_mdnas_log_info_prints_mean_tau(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("epoch,arch_id,accuracy\n1,a0,0.5\n1,a1,0.6\n2,a0,0.4\n2,a1,0.7\n")
    out = tmp_path / "tau.csv"
    quiet = _run_cli("analyze-tau", "--scores", str(scores), "--out", str(out), MDNAS_LOG="warn")
    assert quiet.returncode == 0 and quiet.stderr == ""
    proc = _run_cli("analyze-tau", "--scores", str(scores), "--out", str(out), MDNAS_LOG="info")
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == ["INFO mdnas: mean tau (excluding final epoch): 1.0000"]
