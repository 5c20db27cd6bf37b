import numpy as np
import pytest

from mdnas.ranking import (
    kendall_tau,
    mean_tau,
    read_scores_csv,
    tau_trace,
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
