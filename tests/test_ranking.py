import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdnas.ranking import (
    kendall_tau,
    mean_tau,
    read_scores_csv,
    tau_trace,
    write_scores_csv,
    write_tau_csv,
)


def naive_kendall(a, b):
    """Plain double-loop pair enumeration, the independent oracle."""
    p = q = 0
    m = len(a)
    for i in range(m):
        for j in range(i + 1, m):
            da, db = a[i] - a[j], b[i] - b[j]
            if da * db > 0:
                p += 1
            elif da * db < 0:
                q += 1
    return p, q, (p - q) / (p + q)


def test_identical_rankings():
    stats = kendall_tau([1, 2, 3, 4], [10, 20, 30, 40])
    assert stats.tau == 1.0
    assert stats.p_tau == 1.0
    assert stats.discordant == 0


def test_reversed_rankings():
    stats = kendall_tau([1, 2, 3, 4], [4, 3, 2, 1])
    assert stats.tau == -1.0
    assert stats.p_tau == 0.0


def test_one_swap_worked_example():
    stats = kendall_tau([1, 2, 3], [1, 3, 2])
    assert (stats.concordant, stats.discordant) == (2, 1)
    assert stats.tau == pytest.approx(1 / 3)
    assert stats.p_tau == pytest.approx(2 / 3)


def test_rejects_short_input():
    with pytest.raises(ValueError):
        kendall_tau([1], [1])


def test_rejects_all_tied():
    with pytest.raises(ValueError):
        kendall_tau([1, 1, 1], [2, 2, 2])


def test_ties_excluded_from_counts():
    stats = kendall_tau([1, 1, 2], [1, 2, 3])
    # the (0,1) pair ties in the first list and is dropped
    assert stats.concordant + stats.discordant == 2


@pytest.mark.parametrize("seed", range(30))
def test_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 60))
    a, b = rng.permutation(m), rng.permutation(m)
    p, q, tau = naive_kendall(a, b)
    stats = kendall_tau(a, b)
    assert (stats.concordant, stats.discordant) == (p, q)
    assert stats.tau == tau


@pytest.mark.parametrize("seed", range(10))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.random(20), rng.random(20)
    perm = rng.permutation(20)
    assert kendall_tau(a, b).tau == pytest.approx(kendall_tau(a[perm], b[perm]).tau)


def test_antisymmetry_under_reversal():
    rng = np.random.default_rng(1)
    a = rng.random(15)
    b = rng.permutation(15).astype(float)
    assert kendall_tau(a, -b).tau == pytest.approx(-kendall_tau(a, b).tau)


def test_p_tau_matches_concordant_fraction():
    rng = np.random.default_rng(2)
    stats = kendall_tau(rng.random(30), rng.random(30))
    assert stats.p_tau == pytest.approx(
        stats.concordant / (stats.concordant + stats.discordant)
    )


def test_tau_bounds_and_pair_budget():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 40))
        stats = kendall_tau(rng.random(m), rng.random(m))
        assert -1.0 <= stats.tau <= 1.0
        assert stats.concordant + stats.discordant <= m * (m - 1) // 2


def test_tau_trace_constant_scores():
    scores = np.tile(np.array([0.1, 0.5, 0.9]), (5, 1))
    assert tau_trace(scores) == (1.0,) * 5


def test_tau_trace_reversed_first_epoch():
    scores = np.array([[3, 2, 1], [1, 2, 3], [1, 2, 3]], dtype=float)
    taus = tau_trace(scores)
    assert taus[0] == -1.0
    assert taus[-1] == 1.0


def test_tau_trace_noiseless_surrogate_cohort():
    from mdnas.evaluator import SurrogateCurveEvaluator, TabularOracle

    oracle = TabularOracle.random(14, 8, seed=20)
    ev = SurrogateCurveEvaluator(oracle, consistency=1.0)
    rng = np.random.default_rng(4)
    cohort = [ev.sample_arch(rng) for _ in range(8)]
    matrix = [[ev.evaluate(a, t) for a in cohort] for t in range(1, 20)]
    assert tau_trace(matrix) == (1.0,) * 19


def test_mean_tau():
    assert mean_tau((1.0, 1.0, 1.0)) == 1.0
    assert mean_tau((0.2, 0.6, 1.0)) == pytest.approx(0.4)


def test_csv_round_trip(tmp_path):
    import csv

    scores = tmp_path / "scores.csv"
    with open(scores, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "arch_id", "accuracy"])
        for epoch in (1, 2):
            for arch, acc in (("a", 0.1 * epoch), ("b", 0.2 * epoch), ("c", 0.05)):
                w.writerow([epoch, arch, acc])
    matrix = read_scores_csv(scores)
    assert matrix.shape == (2, 3)
    taus = tau_trace(matrix)
    out = tmp_path / "tau.csv"
    write_tau_csv(out, taus)
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["epoch", "tau", "p_tau"]
    assert len(rows) == 2 + len(taus)
    assert rows[-1][0] == "mean"


def test_ragged_csv_rejected(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("epoch,arch_id,accuracy\n1,a,0.5\n1,b,0.6\n2,a,0.7\n")
    with pytest.raises(ValueError):
        read_scores_csv(scores)


@pytest.mark.parametrize("seed", range(8))
def test_tau_trace_equals_per_row_kendall_tau_with_ties(seed):
    rng = np.random.default_rng(seed)
    epochs, m = int(rng.integers(2, 8)), int(rng.integers(2, 40))
    # few distinct levels, so rows and the final row are full of ties
    scores = rng.integers(0, 4, size=(epochs, m)).astype(float)
    scores[-1, :2] = [0.0, 1.0]  # the final row is never all tied
    taus = tau_trace(scores)
    assert taus == tuple(kendall_tau(row, scores[-1]).tau for row in scores)
    assert taus == tuple(naive_kendall(row, scores[-1])[2] for row in scores)


def test_tau_trace_all_tied_final_row_raises():
    scores = np.array([[0.1, 0.5, 0.9], [0.3, 0.3, 0.3]])
    with pytest.raises(ValueError, match="tied"):
        tau_trace(scores)


# Multiples of 1/8 keep naive_kendall's difference products exact: with
# arbitrary floats a product can underflow to 0 and read as a tie.
_VALUES = st.integers(-24, 24).map(lambda k: k / 8) | st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan]
)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(2, 60).flatmap(
        lambda m: st.tuples(
            st.lists(_VALUES, min_size=m, max_size=m),
            st.lists(_VALUES, min_size=m, max_size=m),
        )
    )
)
def test_kendall_tau_matches_naive_with_ties_nan_and_inf(pair):
    a, b = pair
    try:
        p, q, tau = naive_kendall(a, b)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="tied"):
            kendall_tau(a, b)
        return
    stats = kendall_tau(a, b)
    assert (stats.concordant, stats.discordant, stats.tau) == (p, q, tau)


def dictreader_scores(path):
    """The DictReader reader read_scores_csv replaced, as the oracle for
    well-formed input."""
    by_epoch = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            epoch = int(row["epoch"])
            by_epoch.setdefault(epoch, {})[row["arch_id"]] = float(row["accuracy"])
    epochs = sorted(by_epoch)
    arch_ids = sorted(by_epoch[epochs[0]])
    matrix = np.empty((len(epochs), len(arch_ids)))
    for i, epoch in enumerate(epochs):
        matrix[i] = [by_epoch[epoch][a] for a in arch_ids]
    return matrix


@pytest.mark.parametrize("seed", range(6))
def test_read_scores_csv_matches_dictreader(tmp_path, seed):
    rng = np.random.default_rng(seed)
    # Up to 3 x 700 rows, so some cases span several parse blocks.
    epochs = rng.choice(np.arange(-5, 2000), size=int(rng.integers(1, 4)), replace=False)
    archs = [f"x{rng.integers(10**6)}-{i}" for i in range(int(rng.integers(1, 700)))]
    rows = [
        [str(e), a, repr(float(v))]
        for e in epochs
        for a, v in zip(archs, rng.normal(size=len(archs)))
    ]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    header = ["epoch", "arch_id", "accuracy", "note"]
    cols = rng.permutation(4)
    path = tmp_path / "scores.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header[c] for c in cols])
        for i, row in enumerate(rows):
            writer.writerow([(row + ["n"])[c] for c in cols])
            if i % 97 == 0:
                fh.write("\r\n")  # blank lines are skipped, as DictReader does
    assert read_scores_csv(path).tobytes() == dictreader_scores(path).tobytes()


@pytest.mark.parametrize(
    "body,message",
    [
        ("1,a0,0.5\n1,a1,0.6\n1,a0,0.9\n2,a0,0.1\n2,a1,0.2\n", "epoch 1, arch_id a0 is scored more than once"),
        ("1,a0,0.5\n1,a1,nan\n2,a0,0.1\n2,a1,0.2\n", "epoch 1, arch_id a1: accuracy nan"),
        ("1,a0,0.5\n1,a1,0.6\n2,a0,-inf\n2,a1,0.2\n", "epoch 2, arch_id a0: accuracy -inf"),
        ("1,a0,0.5\n1,a1,0.6\n2,a1,0.2\n", "epoch 2 does not score arch_id a0"),
        ("1,a0,0.5\n1,a1\n", "too few fields"),
        ("", "empty scores file"),
    ],
    ids=["repeated", "nan", "-inf", "ragged", "short-row", "empty"],
)
def test_read_scores_csv_rejects_bad_rows(tmp_path, body, message):
    path = tmp_path / "scores.csv"
    path.write_text("epoch,arch_id,accuracy\n" + body)
    with pytest.raises(ValueError, match=message):
        read_scores_csv(path)


def _reference_write_scores_csv(path, scores, arch_ids):
    """The csv.writer scores writer that write_scores_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "arch_id", "accuracy"])
        for epoch, row in enumerate(scores.tolist(), start=1):
            writer.writerows(
                [epoch, arch_id, f"{acc:.10f}"] for arch_id, acc in zip(arch_ids, row)
            )


@pytest.mark.parametrize("cohort", [2, 1000])
def test_write_scores_csv_matches_csv_writer_bytes(tmp_path, cohort):
    rng = np.random.default_rng(cohort)
    scores = rng.uniform(size=(6, cohort))
    edge_values = [0.0, 1.0, 1 / 3, 1e-12]
    scores[:4, :2] = np.array(edge_values)[:, None]
    scores[4] = rng.choice(edge_values, size=cohort)
    arch_ids = [f"a{arch_id:04d}" for arch_id in range(cohort)]
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    write_scores_csv(got, scores, arch_ids)
    _reference_write_scores_csv(expected, scores, arch_ids)
    assert got.read_bytes() == expected.read_bytes()
