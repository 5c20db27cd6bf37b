import numpy as np
import pytest

from mdnas.search_space import (
    CELL_KINDS,
    OP_NAMES,
    build_cell_template,
    derive_genotype,
    search_space_size,
)


def test_operation_set_is_the_canonical_eight():
    assert len(OP_NAMES) == 8
    assert set(OP_NAMES) == {
        "max_pool_3x3",
        "none",
        "avg_pool_3x3",
        "skip_connect",
        "dil_conv_3x3",
        "dil_conv_5x5",
        "sep_conv_3x3",
        "sep_conv_5x5",
    }


def test_default_cell_has_14_edges_and_7_nodes():
    tpl = build_cell_template(4, "norm")
    assert tpl.num_edges == 14
    nodes = set(tpl.sources) | {f"B{i}" for i in range(1, 5)}
    assert len(nodes) == 6  # output node not on any searchable edge
    assert tpl.num_intermediate == 4


def test_smallest_cell():
    tpl = build_cell_template(1, "norm")
    assert tpl.num_edges == 2
    assert tpl.incoming(1) == range(2)
    assert tpl.sources == ("I1", "I2")


def test_three_node_reduction_cell():
    tpl = build_cell_template(3, "reduction")
    assert tpl.num_edges == 2 + 3 + 4
    assert tpl.kind == "reduction"


@pytest.mark.parametrize("n", range(1, 9))
def test_edge_count_law(n):
    tpl = build_cell_template(n, "norm")
    assert tpl.num_edges == n * (n + 3) // 2
    # node i has exactly i+1 incoming edges
    for i in range(1, n + 1):
        assert len(tpl.incoming(i)) == i + 1


def test_edge_ordering_is_sorted_by_dst_then_src():
    tpl = build_cell_template(4, "norm")
    # node by node, and within a node inputs first, then B1, B2, ...
    assert [e for i in range(1, 5) for e in tpl.incoming(i)] == list(range(14))
    for i in range(1, 5):
        srcs = [tpl.sources[e] for e in tpl.incoming(i)]
        assert srcs == ["I1", "I2"] + [f"B{j}" for j in range(1, i)]


def test_rejects_zero_intermediate_nodes():
    with pytest.raises(ValueError):
        build_cell_template(0, "norm")


def test_rejects_unknown_cell_kind():
    with pytest.raises(ValueError):
        build_cell_template(2, "weird")


def test_search_space_size_reference_value():
    assert search_space_size(4, 8) == 2 * 8**14 == 8_796_093_022_208


def test_search_space_size_trivial():
    assert search_space_size(1, 1) == 2


def test_search_space_size_small_matches_enumeration():
    # 5 edges, 3 ops: count assignments explicitly
    import itertools

    count = sum(1 for _ in itertools.product(range(3), repeat=5))
    assert search_space_size(2, 3) == 2 * count == 486


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("m", [2, 5, 8])
def test_search_space_size_formula(n, m):
    edges = build_cell_template(n, "norm").num_edges
    assert search_space_size(n, m) == 2 * m**edges


def test_derive_genotype_uniform_tie_break():
    tpl = build_cell_template(4, "norm")
    dists = [np.full(8, 0.125) for _ in range(14)]
    g = derive_genotype(tpl, dists, 2)
    for i, node in enumerate(g.nodes, start=1):
        first_two = tpl.incoming(i)[:2]
        assert [src for src, _ in node] == [tpl.sources[j] for j in first_two]
        assert all(op == OP_NAMES[0] for _, op in node)


def test_derive_genotype_degenerate_distribution():
    tpl = build_cell_template(2, "norm")
    sep = OP_NAMES.index("sep_conv_3x3")
    dists = []
    hot = {tpl.incoming(1)[1], tpl.incoming(2)[2]}
    for idx in range(tpl.num_edges):
        if idx in hot:
            p = np.full(8, 1e-9)
            p[sep] = 1.0
        else:
            p = np.ones(8)
        dists.append(p / p.sum())
    g = derive_genotype(tpl, dists, 1)
    assert g.nodes[0] == ((tpl.sources[tpl.incoming(1)[1]], "sep_conv_3x3"),)
    assert g.nodes[1] == ((tpl.sources[tpl.incoming(2)[2]], "sep_conv_3x3"),)


def _brute_force_genotype(n, dists, k, exclude_none=False):
    """Number the edges node by node from scratch, then sort each node's
    (edge, best op) pairs on (-score, edge, op)."""
    m = len(dists[0])
    names = OP_NAMES if m == len(OP_NAMES) else [str(o) for o in range(m)]
    allowed = [o for o in range(m) if not (exclude_none and o == OP_NAMES.index("none"))]
    edges = [
        (i, src) for i in range(1, n + 1) for src in ["I1", "I2"] + [f"B{j}" for j in range(1, i)]
    ]
    nodes = []
    for i in range(1, n + 1):
        pairs = []
        for edge_idx, (dst, src) in enumerate(edges):
            if dst == i:
                op = max(allowed, key=lambda o: (dists[edge_idx][o], -o))
                pairs.append((-dists[edge_idx][op], edge_idx, op, src))
        pairs.sort()
        nodes.append(tuple((src, names[o]) for _, _, o, src in pairs[:k]))
    return tuple(nodes)


@pytest.mark.parametrize("seed", range(10))
def test_derive_genotype_matches_sorting_oracle(seed):
    # Rows on a grid of quarters, so ops tie within a row and edges tie
    # across a node; every (N, M, k, exclude_none) case on each seed.
    rng = np.random.default_rng(seed)
    for n in range(1, 6):
        tpl = build_cell_template(n, "norm")
        for m in (1, 2, 5, 8):
            dists = rng.multinomial(4, np.full(m, 1.0 / m), size=tpl.num_edges) / 4
            for k in (1, 2):
                for exclude_none in (False, True):
                    g = derive_genotype(tpl, dists, k, exclude_none=exclude_none)
                    expected = _brute_force_genotype(n, dists, k, exclude_none)
                    assert g.nodes == expected, (n, m, k, exclude_none)


def test_derive_genotype_is_deterministic():
    rng = np.random.default_rng(0)
    tpl = build_cell_template(3, "reduction")
    dists = [rng.dirichlet(np.ones(8)) for _ in range(tpl.num_edges)]
    assert derive_genotype(tpl, dists, 2) == derive_genotype(tpl, dists, 2)


def test_derive_genotype_membership():
    rng = np.random.default_rng(1)
    tpl = build_cell_template(4, "norm")
    dists = [rng.dirichlet(np.ones(8)) for _ in range(14)]
    g = derive_genotype(tpl, dists, 2)
    srcs_by_node = {
        i: {tpl.sources[j] for j in tpl.incoming(i)}
        for i in range(1, 5)
    }
    for i, node in enumerate(g.nodes, start=1):
        assert len(node) == 2
        for src, op in node:
            assert src in srcs_by_node[i]
            assert op in OP_NAMES


def test_derive_genotype_rejects_excess_k():
    tpl = build_cell_template(2, "norm")
    dists = [np.full(8, 0.125) for _ in range(tpl.num_edges)]
    with pytest.raises(ValueError):
        derive_genotype(tpl, dists, 4)


@pytest.mark.parametrize("k", [0, -1])
def test_derive_genotype_rejects_k_below_one(k):
    tpl = build_cell_template(2, "norm")
    dists = [np.full(8, 0.125) for _ in range(tpl.num_edges)]
    with pytest.raises(ValueError):
        derive_genotype(tpl, dists, k)


def test_derive_genotype_rejects_malformed_probs():
    tpl = build_cell_template(2, "norm")
    uniform = [np.full(8, 0.125) for _ in range(tpl.num_edges)]
    nan_row = np.full(8, 0.125)
    nan_row[3] = np.nan
    negative_row = np.full(8, 0.25)
    negative_row[:2] = -0.25
    malformed = [
        [np.full(8, 0.5) for _ in range(tpl.num_edges)],  # rows sum to 4
        uniform[:-1] + [nan_row],
        uniform[:-1] + [negative_row],
        uniform[:-1] + [np.full(4, 0.25)],  # ragged
        uniform[:-1],  # one row short
        np.full(8 * tpl.num_edges, 0.125),  # flat
    ]
    for dists in malformed:
        with pytest.raises(ValueError):
            derive_genotype(tpl, dists, 2)


def test_derive_genotype_exclude_none():
    tpl = build_cell_template(1, "norm")
    p = np.full(8, 0.02)
    p[OP_NAMES.index("none")] = 0.5
    p[OP_NAMES.index("skip_connect")] = 1.0 - 0.5 - 6 * 0.02
    dists = [p, p]
    kept = derive_genotype(tpl, dists, 2, exclude_none=False)
    assert all(op == "none" for node in kept.nodes for _, op in node)
    dropped = derive_genotype(tpl, dists, 2, exclude_none=True)
    assert all(op == "skip_connect" for node in dropped.nodes for _, op in node)


def test_cell_kinds():
    assert CELL_KINDS == ("norm", "reduction")
