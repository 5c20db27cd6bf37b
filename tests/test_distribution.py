import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from mdnas.distribution import (
    AGGREGATIONS,
    net_credit,
    PROB_FLOOR,
    raw_deltas,
    record_feedback,
    sample_gate,
    update_probs,
)
from mdnas.engine import SearchConfig, Searcher


def _records(m):
    """Fresh (probs, counts, acc) rows for one edge with m ops."""
    return np.full(m, 1.0 / m), np.zeros(m, dtype=np.int64), np.zeros(m)


def _config(num_ops):
    return SearchConfig(
        num_intermediate=2, num_ops=num_ops, evaluator={"type": "tabular", "seed": 1}
    )


@pytest.mark.parametrize("m,expected", [(8, 0.125), (1, 1.0), (4, 0.25)])
def test_init_uniform(m, expected):
    s = Searcher(_config(m))
    assert np.allclose(s.probs, expected)
    assert not (s.counts >= 1).any()
    assert s.counts.sum() == 0
    assert np.all(s.acc == 0)


def test_init_uniform_rejects_zero():
    with pytest.raises(ValueError):
        _config(0)


def test_sample_gate_degenerate():
    probs = np.zeros(8)
    probs[0] = 1.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert sample_gate(probs, rng) == 0


def test_sample_gate_uniform_chi_square():
    probs, _, _ = _records(8)
    rng = np.random.default_rng(42)
    counts = np.zeros(8)
    n = 80_000
    for _ in range(n):
        counts[sample_gate(probs, rng)] += 1
    stat = ((counts - n / 8) ** 2 / (n / 8)).sum()
    assert stat < stats.chi2.ppf(0.99, df=7)


def test_sample_gate_two_way_binomial_bound():
    probs = np.zeros(8)
    probs[0] = probs[1] = 0.5
    rng = np.random.default_rng(7)
    n = 10_000
    ops = [sample_gate(probs, rng) for _ in range(n)]
    assert set(ops) <= {0, 1}
    sigma = np.sqrt(n * 0.25)
    assert abs(ops.count(0) - n / 2) < 3 * sigma


def test_sample_gate_deterministic_replay():
    probs, _, _ = _records(8)
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    seq1 = [sample_gate(probs, rng1) for _ in range(50)]
    seq2 = [sample_gate(probs, rng2) for _ in range(50)]
    assert seq1 == seq2


def _reference_sample_gate(probs, rng):
    """The np.cumsum / np.searchsorted sampler that sample_gate replaced."""
    u = rng.random()
    cum = np.cumsum(probs)
    op = int(np.searchsorted(cum, u * cum[-1], side="right"))
    return min(op, len(probs) - 1)


@st.composite
def _gate_rows(draw):
    """A row of 1 to 8 op probabilities: arbitrary, a normalised simplex
    row, one-hot, all at PROB_FLOOR but one, or all zero."""
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["mixed", "simplex", "one-hot", "floor", "zeros"]))
    if kind == "zeros":
        return np.zeros(m)
    if kind in ("one-hot", "floor"):
        row = np.full(m, 0.0 if kind == "one-hot" else PROB_FLOOR)
        row[draw(st.integers(0, m - 1))] = 1.0 - (m - 1) * row[0]
        return row
    entry = st.one_of(
        st.just(0.0), st.just(PROB_FLOOR), st.floats(0.0, 1.0), st.floats(1e-12, 1e-3)
    )
    row = draw(hnp.arrays(np.float64, m, elements=entry))
    if kind == "simplex" and row.sum() > 0:
        row = PROB_FLOOR + (row / row.sum()) * (1.0 - m * PROB_FLOOR)
    return row


@settings(max_examples=400, deadline=None)
@given(_gate_rows(), st.integers(0, 2**64 - 1), st.booleans())
def test_sample_gate_matches_cumsum_searchsorted(row, seed, as_list):
    """Same op and same generator state after every draw, for an array row
    and for the same row as a list."""
    probs = row.tolist() if as_list else row
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(16):
        op = sample_gate(probs, rng)
        assert type(op) is int
        assert op == _reference_sample_gate(row, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "row", [[0.1, 0.2, 0.7], [PROB_FLOOR, 1.0 - 2 * PROB_FLOOR, PROB_FLOOR], [0.0, 0.0, 0.0]]
)
def test_sample_gate_takes_a_list_tuple_or_array_row(row):
    """Same ops and same generator state whatever holds the row; an op id
    never reaches M, not even for a row with no mass."""
    draws = []
    for holder in (list, tuple, np.array):
        rng = np.random.default_rng(11)
        ops = [sample_gate(holder(row), rng) for _ in range(32)]
        assert all(type(op) is int and 0 <= op < len(row) for op in ops), holder
        draws.append((ops, rng.bit_generator.state))
    assert draws[0] == draws[1] == draws[2]


def test_record_feedback_single_update():
    probs, counts, acc = _records(8)
    record_feedback(counts, acc, 3, 0.42)
    assert list(counts) == [0, 0, 0, 1, 0, 0, 0, 0]
    assert acc[3] == 0.42
    assert counts[3] >= 1 and (counts >= 1).sum() == 1
    assert np.allclose(probs, 0.125)  # probs untouched


def test_record_feedback_most_recent_overwrites():
    _, counts, acc = _records(8)
    record_feedback(counts, acc, 3, 0.42)
    record_feedback(counts, acc, 3, 0.55)
    assert counts[3] == 2
    assert acc[3] == 0.55


def test_record_feedback_ten_epochs_same_op():
    _, counts, acc = _records(8)
    for _ in range(10):
        record_feedback(counts, acc, 1, 0.5)
    assert counts[1] == 10
    assert counts.sum() == 10


def test_record_feedback_mean_and_max_aggregation():
    _, counts, acc = _records(4)
    record_feedback(counts, acc, 2, 0.4, "mean")
    record_feedback(counts, acc, 2, 0.8, "mean")
    assert acc[2] == pytest.approx(0.6)
    _, counts, acc = _records(4)
    record_feedback(counts, acc, 2, 0.8, "max")
    record_feedback(counts, acc, 2, 0.4, "max")
    assert acc[2] == 0.8


def test_record_feedback_rejects_bad_accuracy():
    _, counts, acc = _records(4)
    with pytest.raises(ValueError):
        record_feedback(counts, acc, 0, 1.5)
    with pytest.raises(ValueError):
        record_feedback(counts, acc, 0, -0.1)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("which", ["counts", "acc"])
def test_record_feedback_rejects_non_contiguous_state(layout, which):
    """ravel() of such an array is a copy, so the update would be lost."""
    state = {"counts": np.zeros((3, 4), dtype=np.int64), "acc": np.zeros((3, 4))}
    base = state[which]
    state[which] = np.asfortranarray(base) if layout == "fortran" else np.zeros((3, 8), base.dtype)[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        record_feedback(state["counts"], state["acc"], [0, 1, 2], 0.5)
    assert not state[which].any()


@pytest.mark.parametrize("ops", [[0, 4, 1], [0, -1, 1], 4])
def test_record_feedback_rejects_op_ids_outside_the_row(ops):
    """A flat index past its row would credit the next edge's op."""
    counts, acc = np.zeros((3, 4), dtype=np.int64), np.zeros((3, 4))
    with pytest.raises(ValueError, match="op ids"):
        record_feedback(counts, acc, ops, 0.5)
    assert not counts.any() and not acc.any()


def test_net_credit_hand_example():
    _, counts, acc = _records(2)
    record_feedback(counts, acc, 0, 0.9)
    record_feedback(counts, acc, 1, 0.5)
    record_feedback(counts, acc, 1, 0.5)
    # op 0: fewer epochs (1 < 2) and higher accuracy (0.9 > 0.5)
    assert np.array_equal(net_credit(counts, acc), [1, -1])


def test_differentials_equal_counts_zero_matrix():
    _, counts, acc = _records(4)
    for op in range(4):
        record_feedback(counts, acc, op, 0.5)
    assert np.all(net_credit(counts, acc) == 0)


@pytest.mark.parametrize("seed", range(5))
def test_differentials_antisymmetric_zero_diagonal(seed):
    # The pairwise comparison behind the credit: for every pair of ops, what
    # one gains from the other the other loses, and an op never beats itself.
    rng = np.random.default_rng(seed)
    _, counts, acc = _records(6)
    for _ in range(30):
        record_feedback(counts, acc, int(rng.integers(6)), float(rng.random()))
    for i in range(6):
        for j in range(6):
            pair = net_credit(counts[[i, j]], acc[[i, j]])
            assert pair[0] == -pair[1]
            if i == j:
                assert np.all(pair == 0)


def _dist_with(epochs, accs, probs=None):
    """(probs, counts, acc) rows; probs default to uniform."""
    epochs = np.asarray(epochs, dtype=np.int64)
    m = len(epochs)
    probs = np.asarray(probs) if probs is not None else np.full(m, 1.0 / m)
    return probs, epochs, np.asarray(accs, dtype=float)


def test_update_probs_worked_example():
    probs, counts, acc = _dist_with([1, 2, 3], [0.9, 0.5, 0.1])
    deltas = raw_deltas(counts, acc, 0.01)
    assert np.allclose(deltas, [0.02, 0.0, -0.02], atol=1e-15)
    updated = update_probs(probs, counts, acc, 0.01)
    expected = np.array([1 / 3 + 0.02, 1 / 3, 1 / 3 - 0.02])
    assert np.allclose(updated, expected, atol=1e-12)


def test_update_probs_identical_records_no_change():
    probs, counts, acc = _dist_with([2, 2, 2, 2], [0.5, 0.5, 0.5, 0.5])
    updated = update_probs(probs, counts, acc, 0.01)
    assert np.allclose(updated, probs)


def test_update_probs_rejects_nonpositive_alpha():
    probs, counts, acc = _dist_with([1, 2], [0.1, 0.9])
    with pytest.raises(ValueError):
        update_probs(probs, counts, acc, 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_raw_deltas_sum_to_zero_exactly(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 10))
    _, counts, acc = _dist_with(rng.integers(0, 30, size=m), rng.random(m))
    assert net_credit(counts, acc).sum() == 0
    deltas = raw_deltas(counts, acc, 0.01)
    assert abs(deltas.sum()) < 1e-15


def test_monotone_credit_dominant_op():
    # op 0 strictly dominates all seen ops: raw delta is +alpha*(s-1)
    _, counts, acc = _dist_with([1, 5, 7, 9, 0], [0.9, 0.3, 0.2, 0.1, 0.0])
    deltas = raw_deltas(counts, acc, 0.01)
    s = 4  # seen ops
    assert deltas[0] == pytest.approx(0.01 * (s - 1))
    # op 3 strictly dominated by every seen op
    assert deltas[3] == pytest.approx(-0.01 * (s - 1))


def test_unseen_ops_are_masked():
    _, counts, acc = _dist_with([0, 2, 1], [0.0, 0.5, 0.9])
    deltas = raw_deltas(counts, acc, 0.01)
    assert deltas[0] == 0.0  # unseen op neither rewarded nor punished


@pytest.mark.parametrize("seed", range(10))
def test_simplex_preserved_under_update_sequences(seed):
    rng = np.random.default_rng(seed)
    m = 8
    probs, _, _ = _records(m)
    for _ in range(200):
        probs, counts, acc = _dist_with(
            rng.integers(0, 50, size=m), rng.random(m), probs=probs
        )
        probs = update_probs(probs, counts, acc, 0.01)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert probs.min() >= PROB_FLOOR


def test_snapshot_round_trip():
    s = Searcher(_config(3))
    for _ in range(4):
        s.step()
    s2 = Searcher.from_checkpoint(s.checkpoint())
    assert np.array_equal(s2.probs, s.probs)
    assert np.array_equal(s2.counts, s.counts)
    assert np.array_equal(s2.acc, s.acc)


@st.composite
def _batches(draw):
    """Random (E, M) records, one sampled op per edge and an accuracy."""
    e, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    weights = draw(hnp.arrays(float, (e, m), elements=st.floats(0.01, 1.0)))
    counts = draw(hnp.arrays(np.int64, (e, m), elements=st.integers(0, 40)))
    acc = draw(hnp.arrays(float, (e, m), elements=st.floats(0.0, 1.0)))
    ops = draw(hnp.arrays(np.int64, e, elements=st.integers(0, m - 1)))
    accuracy = draw(st.floats(0.0, 1.0))
    return weights / weights.sum(axis=1, keepdims=True), counts, acc, ops, accuracy


@settings(max_examples=300, deadline=None)
@given(_batches(), st.sampled_from(AGGREGATIONS), st.floats(1e-4, 0.1))
def test_batched_kernels_match_rows_bit_for_bit(batch, aggregation, alpha):
    probs, counts, acc, ops, accuracy = batch
    rows = list(zip(probs, counts, acc))

    credit = np.stack([net_credit(c, a) for _, c, a in rows])
    assert net_credit(counts, acc).tobytes() == credit.tobytes()
    updated = np.stack([update_probs(p, c, a, alpha) for p, c, a in rows])
    assert update_probs(probs, counts, acc, alpha).tobytes() == updated.tobytes()

    row_counts, row_acc = counts.copy(), acc.copy()
    for c, a, op in zip(row_counts, row_acc, ops):
        record_feedback(c, a, op, accuracy, aggregation)
    record_feedback(counts, acc, ops, accuracy, aggregation)
    assert counts.tobytes() == row_counts.tobytes()
    assert acc.tobytes() == row_acc.tobytes()


@settings(max_examples=300, deadline=None)
@given(_batches(), st.floats(1e-4, 1.0))
def test_update_probs_and_net_credit_properties(batch, alpha):
    probs, counts, acc, _, _ = batch
    updated = update_probs(probs, counts, acc, alpha)
    assert np.all(np.abs(updated.sum(axis=1) - 1.0) <= 1e-12)
    assert updated.min() >= PROB_FLOOR

    credit = net_credit(counts, acc)
    assert np.all(credit.sum(axis=1) == 0)
    # pair[:, i, j]: the credit op i takes from op j, scored on that pair alone.
    m = counts.shape[1]
    pair = np.zeros(counts.shape + (m,), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            pair[:, i, j] = net_credit(counts[:, [i, j]], acc[:, [i, j]])[:, 0]
    assert np.array_equal(pair, -pair.transpose(0, 2, 1))
    assert np.array_equal(credit, pair.sum(axis=2))
