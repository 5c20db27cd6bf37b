import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdnas.distribution import AGGREGATIONS, PROB_FLOOR
from mdnas.engine import (
    EpochRecord,
    SearchConfig,
    Searcher,
    _BLOCK_ENTRIES,
    _array,
    _fixed10,
    build_evaluator,
    write_checkpoint,
    write_trace_csv,
)


def small_config(**kw):
    base = dict(
        num_intermediate=2,
        num_ops=4,
        epochs=15,
        seed=0,
        evaluator={"type": "tabular", "seed": 1},
    )
    base.update(kw)
    return SearchConfig(**base)


def _same_trace(a, b) -> bool:
    """Whether two traces hold the same records: epoch, arch, accuracy and
    probs array."""
    return len(a) == len(b) and all(
        (x.epoch, x.arch, x.accuracy) == (y.epoch, y.arch, y.accuracy)
        and np.array_equal(x.probs, y.probs)
        for x, y in zip(a, b)
    )


def _output_bytes(tmp_dir, searcher):
    """The trace.csv and checkpoint.json bytes that `searcher` writes."""
    path = tmp_dir / "trace.csv"
    write_trace_csv(path, searcher.trace, searcher.edges_per_cell, searcher.config.num_ops)
    return path.read_bytes(), _checkpoint_bytes(tmp_dir, searcher)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(epochs=0)
    with pytest.raises(ValueError):
        SearchConfig(alpha=-1)
    with pytest.raises(ValueError):
        SearchConfig(acc_aggregation="median")
    with pytest.raises(ValueError):
        SearchConfig.from_dict({"epochz": 10})
    with pytest.raises(ValueError):
        SearchConfig(evaluator={"type": "tabular", "bogus": 1})
        build_evaluator(SearchConfig(evaluator={"type": "tabular", "bogus": 1}))


@pytest.mark.parametrize("k", [0, 3])
def test_config_rejects_k_outside_the_in_degree_of_b1(k):
    with pytest.raises(ValueError):
        small_config(k=k)


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "surrogate", "tau_c": 0},
        {"type": "surrogate", "tau_c": -5},
        {"type": "tabular", "interaction_strength": -0.1},
        {"type": "surrogate", "interaction_strength": -0.1},
    ],
)
def test_build_evaluator_rejects_bad_values(spec):
    config = small_config(evaluator=spec)
    with pytest.raises(ValueError):
        build_evaluator(config)


def test_config_round_trip_and_digest():
    cfg = small_config()
    clone = SearchConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert clone.digest() == cfg.digest()
    assert small_config(seed=1).digest() != cfg.digest()


def test_epoch_accounting():
    s = Searcher(small_config())
    for t in range(1, 11):
        s.step()
        assert np.all(s.counts.sum(axis=1) == t)


def test_single_evaluation_per_epoch():
    s = Searcher(small_config())
    calls = []
    inner = s.evaluator

    class Counting:
        def evaluate(self, arch, epoch):
            calls.append(epoch)
            return inner.evaluate(arch, epoch)

    s.evaluator = Counting()
    s.run()
    assert calls == list(range(1, 16))


def test_degenerate_single_op_space():
    cfg = small_config(num_ops=1, k=1)
    s = Searcher(cfg)
    norm, _ = s.run()
    assert len(s.trace) == cfg.epochs
    assert np.allclose(s.probs, 1.0)
    for node in norm.nodes:
        assert len(node) == 1


def test_determinism_same_seed():
    s1, s2, s3 = (Searcher(small_config(seed=seed)) for seed in (0, 0, 99))
    assert s1.run() == s2.run()
    assert _same_trace(s1.trace, s2.trace)
    s3.run()
    assert not _same_trace(s3.trace, s1.trace)


def test_max_single_epoch_prob_change():
    # a single update moves any op's probability by at most alpha*(M-1)
    cfg = small_config(num_intermediate=4, num_ops=8, epochs=30, alpha=0.01)
    s = Searcher(cfg)
    prev = s.probs.copy()
    for _ in range(cfg.epochs):
        s.step()
        assert np.max(np.abs(s.probs - prev)) <= 0.01 * 7 + 1e-9
        prev = s.probs.copy()


def test_entropy_decreases_on_consistent_oracle():
    for seed in range(5):
        cfg = SearchConfig(
            num_intermediate=2,
            num_ops=4,
            epochs=60,
            seed=seed,
            acc_aggregation="mean",
            evaluator={"type": "tabular", "seed": 7, "argmax_margin": 0.3},
        )
        s = Searcher(cfg)
        e0 = np.mean(-(s.probs * np.log(s.probs)).sum(axis=1))
        s.run()
        eT = np.mean(-(s.probs * np.log(s.probs)).sum(axis=1))
        assert eT < e0


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    cfg = small_config(epochs=20)
    full = Searcher(cfg)
    full_genotypes = full.run()

    part = Searcher(cfg)
    for _ in range(10):
        part.step()
    snapshot = json.loads(json.dumps(part.checkpoint()))
    resumed = Searcher.from_checkpoint(snapshot)
    assert resumed.run() == full_genotypes
    assert _same_trace(resumed.trace, full.trace)
    assert _output_bytes(tmp_path, resumed) == _output_bytes(tmp_path, full)
    assert np.array_equal(full.probs, resumed.probs)


def test_resume_matches_uninterrupted_under_a_ramp_of_nearby_consistencies(tmp_path):
    """Every epoch's consistency agrees with the others to 9 places; each
    still gets its own sigma, so a run resumed at epoch 5 (whose first solve
    is epoch 6's) matches the uninterrupted one."""
    evaluator = {
        "type": "surrogate", "seed": 7, "consistency": 0.8,
        "consistency_final": 0.8 + 1e-10, "ramp_epochs": 10,
    }
    cfg = small_config(epochs=10, evaluator=evaluator)
    full = Searcher(cfg)
    full_genotypes = full.run()
    part = Searcher(cfg)
    for _ in range(5):
        part.step()
    resumed = Searcher.from_checkpoint(json.loads(json.dumps(part.checkpoint())))
    assert resumed.run() == full_genotypes
    assert _same_trace(resumed.trace, full.trace)
    assert _output_bytes(tmp_path, resumed) == _output_bytes(tmp_path, full)


def test_checkpoint_round_trip_idempotent():
    s = Searcher(small_config())
    for _ in range(5):
        s.step()
    snap = s.checkpoint()
    again = Searcher.from_checkpoint(json.loads(json.dumps(snap))).checkpoint()
    assert json.dumps(snap, sort_keys=True) == json.dumps(again, sort_keys=True)


@pytest.mark.parametrize("extra", [-1, 1])
def test_checkpoint_rejects_wrong_number_of_rng_states(extra):
    s = Searcher(small_config())
    s.step()
    snap = json.loads(json.dumps(s.checkpoint()))
    if extra < 0:
        snap["rng_states"].pop()
    else:
        snap["rng_states"].append(snap["rng_states"][0])
    with pytest.raises(ValueError, match="rng states"):
        Searcher.from_checkpoint(snap)


@pytest.mark.parametrize("extra", [-1, 1])
def test_checkpoint_rejects_trace_length_other_than_epoch(extra):
    s = Searcher(small_config())
    for _ in range(3):
        s.step()
    snap = json.loads(json.dumps(s.checkpoint()))
    if extra < 0:
        snap["trace"].pop()
    else:
        snap["epoch"] -= 1
    with pytest.raises(ValueError, match="trace records"):
        Searcher.from_checkpoint(snap)


def test_checkpoint_rejects_config_mismatch():
    s = Searcher(small_config())
    s.step()
    snap = s.checkpoint()
    snap["config"]["num_ops"] = 5
    with pytest.raises(ValueError):
        Searcher.from_checkpoint(snap)


def test_early_stop_on_convergence():
    cfg = small_config(
        epochs=50, early_stop=True, convergence_threshold=0.3, acc_aggregation="mean"
    )
    s = Searcher(cfg)
    s.run()
    if len(s.trace) < cfg.epochs:
        assert s.converged()


def test_trace_csv_shape(tmp_path):
    cfg = small_config(epochs=5)
    s = Searcher(cfg)
    s.run()
    path = tmp_path / "trace.csv"
    write_trace_csv(path, s.trace, s.edges_per_cell, cfg.num_ops)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + cfg.epochs * 2 * s.edges_per_cell
    header = lines[0].split(",")
    assert header[:5] == ["epoch", "accuracy", "cell_kind", "edge_index", "sampled_op"]
    assert header[5:] == [f"prob_{i}" for i in range(cfg.num_ops)]


def _reference_write_trace_csv(path, trace, edges_per_cell, num_ops):
    """The csv.writer trace writer that write_trace_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "accuracy", "cell_kind", "edge_index", "sampled_op"]
            + [f"prob_{i}" for i in range(num_ops)]
        )
        for record in trace:
            for global_idx in range(len(record.arch)):
                kind = ("norm", "reduction")[global_idx // edges_per_cell]
                writer.writerow(
                    [
                        record.epoch,
                        f"{record.accuracy:.10f}",
                        kind,
                        global_idx % edges_per_cell,
                        record.arch[global_idx],
                    ]
                    + [f"{p:.10f}" for p in record.probs[global_idx]]
                )


def _repeated_row_records(trace, num_ops, rng):
    """Records after `trace` whose rows repeat earlier ones: every row again
    (as equal copies, then as the same objects), rows moved to the next
    edge, and zeros whose sign flips between epochs."""
    last = trace[-1]
    n = len(last.probs)
    zero_row = [0.0] + [1.0] * (num_ops - 1)
    neg_zero_row = [-0.0] + [1.0] * (num_ops - 1)
    rows = [
        last.probs.copy(),
        last.probs,
        np.roll(last.probs, -1, axis=0),
        np.array([zero_row] * n),
        np.array([neg_zero_row] * n),
        np.array([zero_row, neg_zero_row] * (n // 2)),
        np.array([neg_zero_row, zero_row] * (n // 2)),
        np.full((n, num_ops), -1e-12),
        np.full((n, num_ops), -1e-12),
    ]
    records = []
    for probs in rows:
        arch = tuple(rng.integers(num_ops, size=n).tolist())
        records.append(EpochRecord(last.epoch + len(records) + 1, arch, 0.5, probs))
    return records


@pytest.mark.parametrize("num_ops", [1, 8])
@pytest.mark.parametrize("num_intermediate", [1, 2, 3])
def test_write_trace_csv_matches_csv_writer_bytes(tmp_path, num_intermediate, num_ops):
    """Synthetic records (accuracies 0 and 1, probabilities at the floor,
    rows that repeat and zeros that change sign) plus a real run that went
    through a JSON checkpoint."""
    cfg = small_config(num_intermediate=num_intermediate, num_ops=num_ops, epochs=4)
    part = Searcher(cfg)
    part.run()
    trace = Searcher.from_checkpoint(json.loads(json.dumps(part.checkpoint()))).trace
    rng = np.random.default_rng(num_intermediate * 10 + num_ops)
    for epoch, accuracy in enumerate([0.0, 1.0, 1 / 3, 1e-12, 0.99999999999], start=5):
        probs = rng.dirichlet(np.ones(num_ops), size=part.num_edges)
        probs[rng.random(probs.shape) < 0.4] = PROB_FLOOR
        arch = rng.integers(num_ops, size=part.num_edges).tolist()
        trace.append(EpochRecord(epoch, tuple(arch), accuracy, probs))
    trace += _repeated_row_records(trace, num_ops, rng)
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    write_trace_csv(got, trace, part.edges_per_cell, num_ops)
    _reference_write_trace_csv(expected, trace, part.edges_per_cell, num_ops)
    assert got.read_bytes() == expected.read_bytes()


def _assert_fixed10(values):
    x = np.array(values, dtype=float)
    got = _fixed10(x).view("S12").ravel().tolist()
    assert got == [b"%.10f" % v for v in x.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_fixed10_matches_percent_format(values):
    _assert_fixed10(values)


def test_fixed10_rounds_ties_half_to_even():
    """x * 10**10 is a tie exactly when x is an odd multiple of 2**-11
    (2**-11 * 10**10 = 4882812.5); all 1,024 of them in [0, 1], both ways."""
    ties = np.arange(1, 2048, 2) / 2048
    assert b"%.10f" % 2.0**-11 == b"0.0004882812"
    _assert_fixed10(ties)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda j: st.tuples(st.integers(0, 2**j), st.just(j))))
def test_fixed10_dyadic_values(kj):
    k, j = kj
    _assert_fixed10([k / 2**j])


def test_fixed10_ends_floor_and_tiny_values():
    tiny = [5e-324, 2.5e-310, np.nextafter(2.0**-1022, 0), 2.0**-1022, 1e-300, 2.0**-54,
            np.nextafter(2.0**-53, 0), 2.0**-53, np.nextafter(2.0**-53, 1), 2.0**-52, 1e-11]
    _assert_fixed10([0.0, 1.0, PROB_FLOOR, np.nextafter(1.0, 0)] + tiny)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**10 - 1), st.integers(-3, 3))
def test_fixed10_next_to_rounding_boundaries(digits, ulps):
    """The doubles a few ulps either side of (digits + 1/2) * 10**-10, where
    "%.10f" turns from `digits` to `digits + 1`."""
    x = (digits + 0.5) * 1e-10
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.sign(ulps))
    _assert_fixed10([x])


def test_fixed10_keeps_the_shape():
    assert _fixed10(np.zeros((3, 2, 5))).shape == (3, 2, 5, 12)


def test_write_trace_csv_spans_blocks_and_prints_odd_rows_by_python(tmp_path):
    """More records than one block holds, with rows the kernel must leave to
    Python's format: -0.0, a negative, NaN, +-inf and a value above 1."""
    edges, num_ops = 2 * 7, 8  # num_intermediate=2
    per_block = _BLOCK_ENTRIES // (edges * num_ops)
    rng = np.random.default_rng(5)
    odd = [-0.0, -1e-12, float("nan"), float("inf"), float("-inf"), 1.5]
    trace = []
    for epoch in range(1, 2 * per_block + 8):
        probs = rng.dirichlet(np.ones(num_ops), size=edges)
        probs[rng.random(probs.shape) < 0.3] = PROB_FLOOR
        if epoch % 7 == 0:
            for e in range(0, edges, 3):
                probs[e, rng.integers(num_ops)] = odd[(epoch + e) % len(odd)]
        arch = tuple(rng.integers(num_ops, size=edges).tolist())
        trace.append(EpochRecord(epoch, arch, float(rng.random()), probs))
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    write_trace_csv(got, trace, edges // 2, num_ops)
    _reference_write_trace_csv(expected, trace, edges // 2, num_ops)
    assert len(trace) > 2 * per_block
    assert all(b"%.10f" % x in got.read_bytes() for x in odd)
    assert got.read_bytes() == expected.read_bytes()


def _checkpoint_bytes(tmp_dir, searcher):
    path = tmp_dir / "checkpoint.json"
    write_checkpoint(path, searcher)
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    num_intermediate=st.integers(1, 3),
    num_ops=st.sampled_from([1, 2, 8]),
    aggregation=st.sampled_from(AGGREGATIONS),
    early_stop=st.booleans(),
    epochs=st.integers(1, 12),
    steps_before_resume=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
def test_write_checkpoint_matches_json_dumps(
    tmp_path_factory,
    num_intermediate,
    num_ops,
    aggregation,
    early_stop,
    epochs,
    steps_before_resume,
    seed,
):
    """Zero epochs, a partial run, its JSON round trip, and the resumed run
    to the end, early stop included."""
    cfg = small_config(
        num_intermediate=num_intermediate,
        num_ops=num_ops,
        epochs=epochs,
        seed=seed,
        acc_aggregation=aggregation,
        early_stop=early_stop,
        convergence_threshold=0.3,
    )
    tmp_dir = tmp_path_factory.mktemp("checkpoint")
    searcher = Searcher(cfg)
    assert _checkpoint_bytes(tmp_dir, searcher) == json.dumps(searcher.checkpoint()).encode()
    for _ in range(min(steps_before_resume, epochs)):
        searcher.step()
    assert _checkpoint_bytes(tmp_dir, searcher) == json.dumps(searcher.checkpoint()).encode()
    searcher = Searcher.from_checkpoint(json.loads(json.dumps(searcher.checkpoint())))
    searcher.run()
    assert _checkpoint_bytes(tmp_dir, searcher) == json.dumps(searcher.checkpoint()).encode()


# Entries that repeat often, signed zeros, subnormals and a value whose
# shortest repr runs to 17 digits.
_ENTRIES = [0.0, -0.0, 5e-324, 2.5e-310, PROB_FLOOR, 1 / 3, 0.5, 1.0]


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    num_edges=st.integers(1, 4),
    num_ops=st.sampled_from([1, 2, 3]),
)
def test_write_checkpoint_reuses_only_identical_row_text(tmp_path_factory, data, num_edges, num_ops):
    """Synthetic records drawn from a few rows and their copies with every
    zero's sign flipped, so that a row often equals the same edge's row one
    epoch earlier, another edge's row, or that row with signed zeros."""
    row = st.tuples(*[st.sampled_from(_ENTRIES)] * num_ops)
    pool = data.draw(st.lists(row, min_size=1, max_size=3))
    rows = st.sampled_from(pool + [tuple(-x if x == 0 else x for x in r) for r in pool])
    records = data.draw(st.lists(st.tuples(*[rows] * num_edges), max_size=8))
    searcher = Searcher(small_config(num_intermediate=1, num_ops=num_ops))
    searcher.trace = [
        EpochRecord(epoch, (0,) * num_edges, 0.5, np.array(probs, dtype=float))
        for epoch, probs in enumerate(records, start=1)
    ]
    tmp_dir = tmp_path_factory.mktemp("checkpoint")
    assert _checkpoint_bytes(tmp_dir, searcher) == json.dumps(searcher.checkpoint()).encode()


def test_write_checkpoint_signed_zero_and_moved_rows(tmp_path):
    """The cases a row-reusing writer gets wrong, spelled out: a zero that
    changes sign at the same edge, rows that move to the other edge, and
    non-finite entries, which json spells NaN and Infinity."""
    a, b = (0.0, 1.0), (0.25, 0.75)
    probs = [
        (a, b),
        ((-0.0, 1.0), b),
        (b, a),
        (b, a),
        ((float("nan"), 1.0), (float("inf"), float("-inf"))),
        ((float("nan"), 1.0), (float("inf"), float("-inf"))),
    ]
    searcher = Searcher(small_config(num_intermediate=1, num_ops=2))
    searcher.trace = [
        EpochRecord(epoch, (0, 1), 0.5, np.array(p)) for epoch, p in enumerate(probs, start=1)
    ]
    assert _checkpoint_bytes(tmp_path, searcher) == json.dumps(searcher.checkpoint()).encode()


def test_write_checkpoint_reuses_entry_texts(tmp_path):
    """Records in which one entry per row changes, a NaN that stays in place
    across records, and a zero whose sign flips while its row holds still."""
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(3), size=4)
    probs[1, 2] = np.nan
    probs[3, 0] = 0.0
    records = [probs]
    for epoch in range(2, 9):
        probs = probs.copy()
        probs[np.arange(4), rng.integers(3, size=4)] = rng.random(4)
        probs[1, 2] = np.nan
        probs[3, 0] = (-0.0, 0.0)[epoch % 2]
        records.append(probs)
    searcher = Searcher(small_config(num_intermediate=1, num_ops=3))
    searcher.trace = [
        EpochRecord(epoch, (0, 1, 2, 0), 0.5, p) for epoch, p in enumerate(records, start=1)
    ]
    text = _checkpoint_bytes(tmp_path, searcher)
    assert text == json.dumps(searcher.checkpoint()).encode()
    assert text.count(b"[-0.0, ") == 4 and text.count(b"NaN") == 8


def test_epoch_record_round_trip():
    s = Searcher(small_config())
    s.step()
    clone = Searcher.from_checkpoint(json.loads(json.dumps(s.checkpoint())))
    (rec,) = clone.trace
    assert _same_trace(clone.trace, s.trace)
    assert set(map(type, rec.arch)) == {int} and type(rec.accuracy) is float
    assert rec.probs.shape == (s.num_edges, s.config.num_ops)


@pytest.mark.parametrize("rows,kind,shape", [
    ([[0.5, 0.5], [1.0]], float, (2, 2)),  # ragged 2-D
    ([[[0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]], float, (2, 1, 2)),  # ragged 3-D
    ([[0, 2**64]], int, (1, 2)),  # beyond int64
    ([[0, 1.5]], int, (1, 2)),  # np.array would truncate it
    ([[0.5, "0.5"]], float, (1, 2)),  # np.array would parse it
])
def test_array_rejects(rows, kind, shape):
    with pytest.raises(ValueError, match="finite"):
        _array("x", rows, kind, shape)


def test_array_loads():
    assert _array("x", [], int, (0, 3)).shape == (0, 3)
    assert _array("x", [], float, (0, 3, 2)).shape == (0, 3, 2)
    a = _array("x", [[1, 2]], int, (1, 2))
    assert a.dtype == np.int64 and a.tolist() == [[1, 2]]
    assert _array("x", [0.25, 1.0], float, (2,)).tolist() == [0.25, 1.0]


def test_epoch_zero_checkpoint_round_trip():
    """An empty trace loads as an empty trace, and the search goes on from it."""
    s = Searcher(small_config())
    clone = Searcher.from_checkpoint(json.loads(json.dumps(s.checkpoint())))
    assert clone.epoch == 0 and clone.trace == []
    assert clone.run() == s.run()
    assert _same_trace(clone.trace, s.trace)


def test_a_record_keeps_its_epochs_probs():
    """The record holds the array update_probs returned for its epoch,
    uncopied, so no later step may write that array."""
    s = Searcher(small_config())
    first = s.step()
    kept = first.probs.copy()
    s.run()
    assert first.probs is not s.probs and not np.array_equal(s.probs, kept)
    assert np.array_equal(first.probs, kept)


def test_surrogate_engine_runs():
    cfg = small_config(
        evaluator={"type": "surrogate", "consistency": 0.8, "seed": 3}
    )
    s = Searcher(cfg)
    s.run()
    assert len(s.trace) == cfg.epochs
    assert all(0.0 <= r.accuracy <= 1.0 for r in s.trace)


def test_build_evaluator_rejects_bad_specs():
    with pytest.raises(ValueError):
        build_evaluator(small_config(evaluator={"type": "magic"}))
    with pytest.raises(ValueError):
        build_evaluator(small_config(evaluator={"type": "tabular", "nope": 1}))
    q = np.ones((3, 4))
    with pytest.raises(ValueError):
        build_evaluator(small_config(evaluator={"type": "tabular", "q": q.tolist()}))
    # keys the chosen evaluator would not read
    with pytest.raises(ValueError):
        build_evaluator(
            small_config(evaluator={"type": "tabular", "tau_c": 5, "consistency": 0.7})
        )
    q = np.full((10, 4), 0.5)
    with pytest.raises(ValueError):
        build_evaluator(
            small_config(evaluator={"type": "tabular", "q": q.tolist(), "argmax_margin": 0.1})
        )
    # evaluator spec values of the wrong type, or ramp_epochs below 1
    ramp = {"type": "surrogate", "consistency_final": 0.9}
    for spec in (
        {"type": "tabular", "interaction_strength": True},
        {"type": "tabular", "argmax_margin": True},
        {"type": "tabular", "seed": True},
        {"type": "surrogate", "consistency": True},
        {**ramp, "ramp_epochs": 2.5},
        {**ramp, "ramp_epochs": 0},
        {**ramp, "ramp_epochs": -3},
        {"type": "surrogate", "tau_c": "5"},
    ):
        with pytest.raises(ValueError):
            build_evaluator(small_config(evaluator=spec))


def test_build_evaluator_null_ramp_pair_means_no_ramp():
    spec = {"type": "surrogate", "consistency": 0.8}
    plain = build_evaluator(small_config(evaluator=spec))
    nulls = build_evaluator(
        small_config(evaluator={**spec, "consistency_final": None, "ramp_epochs": None})
    )
    assert nulls.consistency_final is None and nulls.ramp_epochs is None
    arch = (0,) * plain.oracle.num_edges
    assert nulls.evaluate(arch, 3) == plain.evaluate(arch, 3)
    # one null key without the other is still an error
    for half in ({"consistency_final": None, "ramp_epochs": 5},
                 {"consistency_final": 0.9, "ramp_epochs": None}):
        with pytest.raises(ValueError):
            build_evaluator(small_config(evaluator={**spec, **half}))
