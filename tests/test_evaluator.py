import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdnas.evaluator import (
    _BATCH_SEEDING_MIN,
    SurrogateCurveEvaluator,
    TabularOracle,
    _seeded_normals,
    best_genotype,
    measure_consistency,
)
from mdnas.search_space import build_cell_template, derive_genotype


def test_constant_table_scores_one():
    oracle = TabularOracle(np.ones((14, 8)))
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert oracle.evaluate(oracle.sample_arch(rng), 1) == 1.0


def test_true_score_is_mean_of_table_entries():
    rng = np.random.default_rng(3)
    oracle = TabularOracle.random(14, 8, seed=3)
    arch = oracle.sample_arch(rng)
    expected = np.mean([oracle.q[e, op] for e, op in enumerate(arch)])
    assert oracle.true_score(arch) == pytest.approx(expected)
    assert oracle.evaluate(arch, 1) == oracle.evaluate(arch, 50)


def test_oracle_rejects_wrong_edge_count():
    oracle = TabularOracle.random(14, 8)
    with pytest.raises(ValueError):
        oracle.evaluate((0,) * 13, 1)


@pytest.mark.parametrize("op", [-1, -8, 8, 2**40])
def test_oracle_rejects_op_ids_out_of_range(op):
    for strength in (0.0, 0.3):
        oracle = TabularOracle.random(6, 8, seed=2, interaction_strength=strength)
        arch = [0] * 6
        arch[3] = op
        with pytest.raises(ValueError, match="op ids"):
            oracle.true_score(arch)


@pytest.mark.parametrize("num_ops", [1, 8])
def test_sample_arch_returns_python_ints_of_the_same_draw(num_ops):
    oracle = TabularOracle.random(28, num_ops, seed=4)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(20):
        arch = oracle.sample_arch(rng)
        expected = tuple(int(v) for v in ref.integers(num_ops, size=28))
        assert type(arch) is tuple and all(type(v) is int for v in arch)
        assert arch == expected
        assert rng.bit_generator.state == ref.bit_generator.state


def test_oracle_rejects_bad_epoch():
    oracle = TabularOracle.random(4, 4)
    with pytest.raises(ValueError):
        oracle.evaluate((0, 0, 0, 0), 0)


def test_random_table_margin():
    oracle = TabularOracle.random(28, 8, seed=1, argmax_margin=0.05)
    for row in oracle.q:
        top2 = np.sort(row)[-2:]
        assert top2[1] - top2[0] >= 0.05 - 1e-12


def test_interaction_variant_changes_scores_but_stays_in_range():
    rng = np.random.default_rng(9)
    sep = TabularOracle.random(10, 4, seed=2)
    inter = TabularOracle(sep.q, seed=2, interaction_strength=0.1)
    diffs = []
    for _ in range(20):
        arch = sep.sample_arch(rng)
        a, b = sep.true_score(arch), inter.true_score(arch)
        assert 0.0 <= b <= 1.0
        diffs.append(a - b)
    assert any(abs(d) > 1e-9 for d in diffs)


def test_surrogate_closed_form_curve():
    # s = 0.8, tau_c = 10, t = 10 -> 0.8 * (1 - 1/e)
    oracle = TabularOracle(np.full((1, 1), 0.8))
    ev = SurrogateCurveEvaluator(oracle, tau_c=10.0, consistency=1.0)
    assert ev.evaluate((0,), 10) == pytest.approx(0.8 * (1 - math.exp(-1)), abs=1e-12)


def test_surrogate_noiseless_monotone_in_epoch():
    oracle = TabularOracle.random(6, 4, seed=4)
    ev = SurrogateCurveEvaluator(oracle, tau_c=5.0, consistency=1.0)
    rng = np.random.default_rng(1)
    arch = ev.sample_arch(rng)
    accs = [ev.evaluate(arch, t) for t in range(1, 40)]
    assert all(b > a for a, b in zip(accs, accs[1:]))


def test_surrogate_noiseless_rank_fidelity():
    oracle = TabularOracle.random(10, 4, seed=6)
    ev = SurrogateCurveEvaluator(oracle, consistency=1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = ev.sample_arch(rng), ev.sample_arch(rng)
        sa, sb = ev.true_score(a), ev.true_score(b)
        if sa == sb:
            continue
        for t in (1, 7, 30):
            ea, eb = ev.evaluate(a, t), ev.evaluate(b, t)
            assert (ea - eb) * (sa - sb) > 0


def test_surrogate_deterministic_per_arch_epoch():
    oracle = TabularOracle.random(8, 4, seed=8)
    ev = SurrogateCurveEvaluator(oracle, consistency=0.7, seed=11)
    rng = np.random.default_rng(3)
    arch = ev.sample_arch(rng)
    assert ev.evaluate(arch, 5) == ev.evaluate(arch, 5)
    ev2 = SurrogateCurveEvaluator(oracle, consistency=0.7, seed=11)
    assert ev2.evaluate(arch, 5) == ev.evaluate(arch, 5)


def test_surrogate_accuracy_range():
    oracle = TabularOracle.random(8, 4, seed=12)
    ev = SurrogateCurveEvaluator(oracle, consistency=0.6, seed=1)
    rng = np.random.default_rng(4)
    for _ in range(200):
        acc = ev.evaluate(ev.sample_arch(rng), int(rng.integers(1, 60)))
        assert 0.0 <= acc <= 1.0


def test_surrogate_rejects_bad_consistency():
    oracle = TabularOracle.random(4, 4)
    with pytest.raises(ValueError):
        SurrogateCurveEvaluator(oracle, consistency=0.3)


@pytest.mark.parametrize("rho", [0.6, 0.74, 0.9])
def test_measured_consistency_matches_configured(rho):
    oracle = TabularOracle.random(28, 8, seed=13)
    ev = SurrogateCurveEvaluator(oracle, consistency=rho, seed=5)
    rng = np.random.default_rng(6)
    measured = measure_consistency(ev, 2000, 5, rng)
    assert abs(measured - rho) <= 0.05


def test_measured_consistency_reference_point():
    oracle = TabularOracle.random(28, 8, seed=14)
    ev = SurrogateCurveEvaluator(oracle, consistency=0.74, seed=7)
    rng = np.random.default_rng(8)
    assert 0.69 <= measure_consistency(ev, 2000, 10, rng) <= 0.79


def test_tabular_consistency_is_one():
    oracle = TabularOracle.random(14, 8, seed=15)
    rng = np.random.default_rng(9)
    assert measure_consistency(oracle, 500, 3, rng) == 1.0


def test_consistency_ramp_rises():
    oracle = TabularOracle.random(28, 8, seed=16)
    ev = SurrogateCurveEvaluator(
        oracle, consistency=0.5, consistency_final=0.95, ramp_epochs=50, seed=2
    )
    assert ev.consistency_at(1) == pytest.approx(0.5)
    assert ev.consistency_at(50) == pytest.approx(0.95)
    rng = np.random.default_rng(10)
    early = measure_consistency(ev, 1500, 1, rng)
    late = measure_consistency(ev, 1500, 50, rng)
    assert late > early + 0.2


def test_best_genotype_unique_argmax():
    tpl = build_cell_template(2, "norm")
    rng = np.random.default_rng(17)
    oracle = TabularOracle(rng.uniform(size=(tpl.num_edges, 4)))
    g = best_genotype(oracle, tpl, 1)
    for i, node in enumerate(g.nodes, start=1):
        best_edge = max(tpl.incoming(i), key=lambda e: oracle.q[e].max())
        assert node[0][0] == tpl.sources[best_edge]


def test_best_genotype_constant_table_matches_uniform_derive():
    tpl = build_cell_template(3, "norm")
    oracle = TabularOracle(np.full((tpl.num_edges, 8), 0.5))
    uniform = [np.full(8, 0.125) for _ in range(tpl.num_edges)]
    assert best_genotype(oracle, tpl, 2) == derive_genotype(tpl, uniform, 2)


def _enumerate_best(oracle, tpl, k):
    """Exhaustive max-total-quality genotype under the k-edges-per-node rule."""
    best_val, best_nodes = -1.0, None
    per_node = []
    for i in range(1, tpl.num_intermediate + 1):
        incoming = tpl.incoming(i)
        choices = []
        for subset in itertools.combinations(incoming, k):
            for ops in itertools.product(range(oracle.num_ops), repeat=k):
                val = sum(oracle.q[e, o] for e, o in zip(subset, ops))
                choices.append((val, subset, ops))
        per_node.append(choices)
    for combo in itertools.product(*per_node):
        val = sum(c[0] for c in combo)
        if val > best_val:
            best_val = val
            best_nodes = tuple(
                tuple(
                    (tpl.sources[e], str(o))
                    for e, o in sorted(
                        zip(c[1], c[2]), key=lambda t: -oracle.q[t[0], t[1]]
                    )
                )
                for c in combo
            )
    return best_nodes


@pytest.mark.parametrize("seed", range(5))
def test_best_genotype_matches_exhaustive_enumeration(seed):
    tpl = build_cell_template(2, "norm")
    rng = np.random.default_rng(100 + seed)
    oracle = TabularOracle(rng.uniform(size=(tpl.num_edges, 4)))
    g = best_genotype(oracle, tpl, 2)
    assert g.nodes == _enumerate_best(oracle, tpl, 2)


# -- exactness of the fast paths against plain transcriptions ---------------


def _reference_sigma(gaps, rho):
    """The 200-step geometric bisection, one scalar erf per gap and step."""
    rho = min(max(rho, 0.5), 1.0)
    if rho >= 1.0 - 1e-12 or len(gaps) == 0:
        return 0.0

    def agreement(sigma):
        z = gaps / (sigma * math.sqrt(2.0))
        return float(np.mean([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z]))

    lo, hi = 1e-9, 1e3
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if agreement(mid) > rho:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@pytest.mark.parametrize("num_edges", [4, 12, 56])
def test_sigma_solve_matches_full_bisection(num_edges):
    oracle = TabularOracle.random(num_edges, 8, seed=num_edges)
    ev = SurrogateCurveEvaluator(oracle, seed=num_edges, calibration_pairs=128)
    rhos = [0.5, 0.8, 0.974, 1 - 1e-12, 0.999999]
    rhos += np.random.default_rng(num_edges).uniform(0.5, 1.0, 4).tolist()
    for rho in rhos:
        assert ev._sigma_for(rho).hex() == _reference_sigma(ev._gaps, rho).hex(), rho


def test_sigma_solve_all_ties_has_no_gaps():
    ev = SurrogateCurveEvaluator(TabularOracle(np.full((6, 4), 0.5)), consistency=0.7)
    assert len(ev._gaps) == 0
    assert ev._sigma_for(0.7) == _reference_sigma(ev._gaps, 0.7) == 0.0


def test_calibration_waits_for_the_first_sigma_solve(monkeypatch):
    """Building an evaluator scores nothing; the first noisy evaluation draws
    the calibration sample, and replicas share it and the sigma cache.  A
    noiseless evaluator never draws it.  Each evaluation scores one row."""
    oracle = TabularOracle.random(6, 4, seed=3, interaction_strength=0.1)
    oracle._block_rows = 5  # several calibration blocks, the last one short
    blocks = []
    true_scores = TabularOracle.true_scores
    monkeypatch.setattr(
        TabularOracle, "true_scores",
        lambda self, archs: blocks.append(len(archs)) or true_scores(self, archs),
    )
    ev = SurrogateCurveEvaluator(oracle, consistency=0.8, seed=3, calibration_pairs=32)
    noiseless = SurrogateCurveEvaluator(oracle, consistency=1.0, seed=3, calibration_pairs=32)
    assert blocks == []
    noiseless.evaluate((0,) * 6, 1)
    assert blocks == [1]
    ev.evaluate((0,) * 6, 1)
    assert blocks == [1, 1] + [5] * 12 + [4]
    twin = ev.replica()
    assert twin.oracle is oracle and twin._gaps is ev._gaps
    assert twin._sigma_cache is ev._sigma_cache and ev._sigma_cache
    assert twin.evaluate((1,) * 6, 2) == ev.evaluate((1,) * 6, 2)
    assert blocks == [1, 1] + [5] * 12 + [4] + [1, 1]


def test_a_replica_reuses_the_sigmas_another_replica_solved(monkeypatch):
    """The second replica of a batch solves nothing the first one solved,
    and scores bit for bit as a fresh evaluator does."""
    oracle = TabularOracle.random(6, 4, seed=5, interaction_strength=0.1)
    kwargs = dict(consistency=0.5, consistency_final=0.9, ramp_epochs=4, seed=5)
    parent = SurrogateCurveEvaluator(oracle, calibration_pairs=64, **kwargs)
    parent.calibrate()
    first, second = parent.replica(), parent.replica()
    archs = oracle.sample_archs(np.random.default_rng(5), 3)
    epochs = range(1, 7)
    first.evaluate_many(archs, epochs)
    calls = []
    agreement = SurrogateCurveEvaluator._agreement
    monkeypatch.setattr(
        SurrogateCurveEvaluator, "_agreement", lambda self, s: calls.append(s) or agreement(self, s)
    )
    got = second.evaluate_many(archs, epochs)
    assert calls == []
    fresh = SurrogateCurveEvaluator(oracle, calibration_pairs=64, **kwargs)
    assert got.tobytes() == fresh.evaluate_many(archs, epochs).tobytes()
    assert calls  # the fresh evaluator did solve


def _reference_evaluate(ev, arch, epoch):
    """One (arch, epoch) score: true score plus seeded noise, then the curve."""
    s = ev.oracle.true_score(arch)
    growth = 1.0 - math.exp(-epoch / ev.tau_c)
    sigma = ev._sigma_for(ev.consistency_at(epoch))
    if sigma > 0:
        key = int.from_bytes(
            hashlib.blake2b(np.asarray(arch, dtype=np.int64).tobytes(), digest_size=8).digest(),
            "big",
        )
        rng = np.random.default_rng(np.random.SeedSequence([ev.seed, key, epoch]))
        s = s + sigma * rng.standard_normal()
    return float(np.clip(s * growth, 0.0, 1.0))


EVALUATOR_KINDS = {
    "ramped": dict(consistency=0.5, consistency_final=0.974, ramp_epochs=6),
    "flat": dict(consistency=0.7),
    "noiseless": dict(consistency=1.0),
    "interaction": dict(consistency=0.8, interaction_strength=0.2),
}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(EVALUATOR_KINDS)),
    seed=st.integers(0, 2**16),
    cohort=st.integers(1, 6),
    epochs=st.lists(st.integers(1, 12), min_size=1, max_size=5),
)
def test_evaluate_many_equals_stacked_evaluate(kind, seed, cohort, epochs):
    kwargs = dict(EVALUATOR_KINDS[kind])
    oracle = TabularOracle.random(
        10, 4, seed=seed, interaction_strength=kwargs.pop("interaction_strength", 0.0)
    )
    ev = SurrogateCurveEvaluator(oracle, tau_c=4.0, seed=seed, calibration_pairs=64, **kwargs)
    rng = np.random.default_rng(seed)
    archs = [ev.sample_arch(rng) for _ in range(cohort)]
    batch = ev.evaluate_many(archs, epochs)
    assert batch.shape == (len(epochs), cohort)
    stacked = np.array([[ev.evaluate(a, t) for a in archs] for t in epochs])
    reference = np.array([[_reference_evaluate(ev, a, t) for a in archs] for t in epochs])
    assert batch.tobytes() == stacked.tobytes() == reference.tobytes()


# Keys of one and of two 32-bit entropy words, at the edges of each.
_EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**70 + 3])
@pytest.mark.parametrize("epoch", [1, 50, 2**32, 2**40 + 9])
def test_seeded_normals_match_numpy_construction(seed, epoch):
    rng = np.random.default_rng(epoch)
    drawn = [int(k) for k in rng.integers(0, 2**64 - 1, size=60, dtype=np.uint64, endpoint=True)]
    narrow = [int(k) for k in rng.integers(0, 2**32, size=20)]
    keys = _EDGE_KEYS + drawn + narrow
    for n in (1, _BATCH_SEEDING_MIN - 1, _BATCH_SEEDING_MIN, len(keys)):
        batch = keys[:n]
        reference = np.array([
            np.random.default_rng(np.random.SeedSequence([seed, key, epoch])).standard_normal()
            for key in batch
        ])
        assert _seeded_normals(seed, batch, epoch).tobytes() == reference.tobytes(), n


@pytest.mark.parametrize("cohort", [_BATCH_SEEDING_MIN - 1, _BATCH_SEEDING_MIN, 60])
def test_evaluate_many_matches_reference_across_the_seeding_crossover(cohort):
    oracle = TabularOracle.random(10, 4, seed=3)
    ev = SurrogateCurveEvaluator(
        oracle, tau_c=4.0, consistency=0.5, consistency_final=0.9, ramp_epochs=5, seed=11
    )
    rng = np.random.default_rng(5)
    archs = [ev.sample_arch(rng) for _ in range(cohort)]
    epochs = [1, 3, 8]
    reference = np.array([[_reference_evaluate(ev, a, t) for a in archs] for t in epochs])
    assert ev.evaluate_many(archs, epochs).tobytes() == reference.tobytes()


def test_evaluate_many_rejects_bad_epoch_before_scoring():
    ev = SurrogateCurveEvaluator(TabularOracle.random(4, 4), consistency=0.7)
    with pytest.raises(ValueError, match="epoch"):
        ev.evaluate_many([(0,) * 3], [1, 0])  # the arch is malformed too



def test_true_score_clips_as_np_clip_does():
    """Strong interactions push raw scores outside [0, 1]; the clipped
    score is the float np.clip gives."""
    oracle = TabularOracle.random(10, 4, seed=5, interaction_strength=6.0)
    rng = np.random.default_rng(5)
    clipped = set()
    for _ in range(200):
        arch = np.asarray(oracle.sample_arch(rng))
        i, j = np.triu_indices(10, k=1)
        raw = float(oracle.q[np.arange(10), arch].mean())
        raw += 6.0 * float(oracle._w[i, j, arch[i], arch[j]].mean())
        assert oracle.true_score(tuple(arch)).hex() == float(np.clip(raw, 0.0, 1.0)).hex()
        clipped.add((raw < 0) - (raw > 1))
    assert clipped == {-1, 0, 1}

def test_interaction_table_is_drawn_at_the_first_scoring():
    """An oracle that never scores holds no interaction table; its first
    scores equal, bit for bit, those of a table drawn eagerly from the same
    stream.  Without interactions no table is ever drawn."""
    lazy, eager = (TabularOracle.random(10, 4, seed=5, interaction_strength=0.3) for _ in "ab")
    assert "_w" not in vars(lazy)
    rng = np.random.default_rng(np.random.SeedSequence([5, 0x1A7]))
    eager._w = rng.uniform(-1.0, 1.0, size=(10, 10, 4, 4))
    archs = lazy.sample_archs(np.random.default_rng(0), 64)
    assert lazy.true_scores(archs).tobytes() == eager.true_scores(archs).tobytes()
    assert np.array_equal(lazy._w, eager._w)
    plain = TabularOracle(lazy.q)
    plain.true_scores(archs)
    assert "_w" not in vars(plain)


@pytest.mark.parametrize("num_edges", [3, 10, 28])
def test_interaction_true_score_matches_full_matrix_formula(num_edges):
    oracle = TabularOracle.random(num_edges, 8, seed=num_edges, interaction_strength=0.3)
    rng = np.random.default_rng(num_edges)
    for _ in range(64):
        arch = np.asarray(oracle.sample_arch(rng))
        idx = np.arange(num_edges)
        score = float(oracle.q[idx, arch].mean())
        inter = oracle._w[idx[:, None], idx[None, :], arch[:, None], arch[None, :]]
        score += 0.3 * float(inter[np.triu_indices(num_edges, k=1)].mean())
        expected = float(np.clip(score, 0.0, 1.0))
        assert oracle.true_score(tuple(arch)).hex() == expected.hex()


# -- the windowed sigma solve, block scoring and block draws ----------------

# Margin each window end must clear: the bound the window rule rests on.
MARGIN = 1e-13
EDGE_RHOS = [0.5, 0.5 + 1e-15, 0.5 + 1e-12, 0.5001, 0.974, 0.999999, 1 - 1e-11, 1 - 2e-12]


@settings(max_examples=30, deadline=None)
@given(
    num_edges=st.sampled_from([4, 6, 10, 28, 56, 88, 176]),
    num_ops=st.sampled_from([2, 3, 4, 8]),
    strength=st.sampled_from([0.0, 0.05, 2.0]),
    pairs=st.sampled_from([2, 3, 16, 128, 512]),
    seed=st.integers(0, 2**16),
    rhos=st.lists(
        st.sampled_from(EDGE_RHOS) | st.floats(0.5, 1.0), min_size=1, max_size=3
    ),
)
def test_windowed_sigma_solve_equals_full_bisection(
    num_edges, num_ops, strength, pairs, seed, rhos
):
    if num_edges > 88 and strength:
        num_ops = min(num_ops, 4)  # keeps the interaction table small
    oracle = TabularOracle.random(num_edges, num_ops, seed=seed, interaction_strength=strength)
    ev = SurrogateCurveEvaluator(oracle, seed=seed, calibration_pairs=pairs)
    for rho in rhos:
        assert ev._sigma_for(rho).hex() == _reference_sigma(ev._gaps, rho).hex(), rho


@pytest.mark.parametrize("num_edges,strength", [(4, 0.0), (28, 0.0), (88, 0.05)])
def test_window_ends_clear_rho_by_the_margin(num_edges, strength):
    oracle = TabularOracle.random(num_edges, 8, seed=num_edges, interaction_strength=strength)
    ev = SurrogateCurveEvaluator(oracle, seed=1, calibration_pairs=256)
    for rho in [0.5001, 0.6, 0.8, 0.974, 0.999999, 1 - 2e-12]:
        a, b = ev._window(rho)
        assert 0 < a < b < math.inf, rho
        assert ev._agreement(a) - rho > MARGIN, rho
        assert ev._agreement(b) - rho < -MARGIN, rho
    # No finite sigma in the bracket gets the agreement down to 1/2: the
    # window's upper end is the bracket's top, where the bisection ends.
    a, b = ev._window(0.5)
    assert (a, b) == (1e3, math.inf) and ev._agreement(1e3) - 0.5 > MARGIN


def test_ramp_solves_take_under_thirty_agreements_each(monkeypatch):
    """The 0.5 -> 0.974 ramp of the rank-consistency reproduction, 50 epochs:
    the full bisection computes about 58 agreements per solve."""
    oracle = TabularOracle.random(28, 8, seed=3)
    ev = SurrogateCurveEvaluator(
        oracle, consistency=0.5, consistency_final=0.974, ramp_epochs=50, seed=5
    )
    ev.calibrate()
    calls = []
    agreement = SurrogateCurveEvaluator._agreement
    monkeypatch.setattr(
        SurrogateCurveEvaluator, "_agreement", lambda self, s: calls.append(s) or agreement(self, s)
    )
    rhos = [ev.consistency_at(epoch) for epoch in range(1, 51)]
    sigmas = [ev._sigma_for(rho) for rho in rhos]
    assert len(calls) <= 30 * len(rhos)
    assert [s.hex() for s in sigmas] == [_reference_sigma(ev._gaps, r).hex() for r in rhos]


def test_sigma_cache_is_keyed_by_the_exact_consistency():
    """Two consistencies that agree to 9 places get their own sigma, so an
    evaluation does not depend on which epochs were evaluated before it."""
    oracle = TabularOracle.random(8, 4, seed=2)
    kwargs = dict(consistency=0.8, consistency_final=0.8 + 1e-10, ramp_epochs=10, seed=4)
    arch = (1,) * 8
    cold = SurrogateCurveEvaluator(oracle, **kwargs).evaluate(arch, 10)
    warm = SurrogateCurveEvaluator(oracle, **kwargs)
    warm.evaluate(arch, 1)
    assert warm.evaluate(arch, 10).hex() == cold.hex()
    assert warm._sigma_for(0.8) != warm._sigma_for(0.8 + 1e-10)


@pytest.mark.parametrize(
    "num_edges,num_ops,strength", [(88, 8, 0.05), (176, 4, 0.3), (28, 8, 0.0), (10, 4, 6.0)]
)
def test_true_scores_equal_stacked_true_score(num_edges, num_ops, strength):
    oracle = TabularOracle.random(num_edges, num_ops, seed=num_edges, interaction_strength=strength)
    rng = np.random.default_rng(num_edges)
    block = oracle._block_rows
    for rows in sorted({1, block - 1, block, block + 1, 2 * block + 3, 1024}):
        archs = rng.integers(num_ops, size=(max(rows, 1), num_edges))
        stacked = np.array([oracle.true_score(arch) for arch in archs])
        assert oracle.true_scores(archs).tobytes() == stacked.tobytes(), rows
        as_tuples = [tuple(arch.tolist()) for arch in archs]
        assert oracle.true_scores(as_tuples).tobytes() == stacked.tobytes(), rows
    assert oracle.true_scores([]).shape == (0,)


@pytest.mark.parametrize("op", [-1, 8, 2**40])
def test_true_scores_reject_op_ids_out_of_range_in_any_block(op):
    oracle = TabularOracle.random(88, 8, seed=2, interaction_strength=0.05)
    archs = np.zeros((3 * oracle._block_rows, 88), dtype=np.int64)
    archs[-1, 40] = op
    with pytest.raises(ValueError, match="op ids"):
        oracle.true_scores(archs)
    with pytest.raises(ValueError):
        oracle.true_scores(archs[:, :87])


@pytest.mark.parametrize("num_ops", range(1, 12))
def test_sample_archs_is_the_draw_of_as_many_sample_arch_calls(num_ops):
    oracle = TabularOracle.random(7, num_ops, seed=num_ops)
    for n in (1, 3, 17):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        ref.random()  # a drawn-from generator, mid-stream
        rng.random()
        block = oracle.sample_archs(rng, n)
        assert block.shape == (n, 7)
        assert [tuple(row) for row in block.tolist()] == [oracle.sample_arch(ref) for _ in range(n)]
        assert rng.bit_generator.state == ref.bit_generator.state
