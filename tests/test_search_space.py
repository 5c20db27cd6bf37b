import json

import numpy as np
import pytest

from mdnas.search_space import (
    CELL_KINDS,
    Genotype,
    NodeId,
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
    nodes = {e.src for e in tpl.edges} | {e.dst for e in tpl.edges}
    assert len(nodes) == 6  # output node not on any searchable edge
    assert tpl.num_intermediate == 4


def test_smallest_cell():
    tpl = build_cell_template(1, "norm")
    assert tpl.num_edges == 2
    assert all(e.dst == NodeId.intermediate(1) for e in tpl.edges)
    assert [e.src.label for e in tpl.edges] == ["I1", "I2"]


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
    keys = [(e.dst, e.src) for e in tpl.edges]
    assert keys == sorted(keys)


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
        assert [src for src, _ in node] == [tpl.edges[j].src.label for j in first_two]
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
    assert g.nodes[0] == ((tpl.edges[tpl.incoming(1)[1]].src.label, "sep_conv_3x3"),)
    assert g.nodes[1] == ((tpl.edges[tpl.incoming(2)[2]].src.label, "sep_conv_3x3"),)


def _brute_force_genotype(tpl, dists, k):
    nodes = []
    for i in range(1, tpl.num_intermediate + 1):
        pairs = []
        for edge_idx in tpl.incoming(i):
            op = int(np.argmax(dists[edge_idx]))
            pairs.append((edge_idx, op, dists[edge_idx][op]))
        pairs.sort(key=lambda t: (-t[2], t[0], t[1]))
        nodes.append(
            tuple((tpl.edges[e].src.label, OP_NAMES[o]) for e, o, _ in pairs[:k])
        )
    return tuple(nodes)


@pytest.mark.parametrize("seed", range(10))
def test_derive_genotype_matches_sorting_oracle(seed):
    rng = np.random.default_rng(seed)
    tpl = build_cell_template(4, "norm")
    dists = [rng.dirichlet(np.ones(8)) for _ in range(14)]
    g = derive_genotype(tpl, dists, 2)
    assert g.nodes == _brute_force_genotype(tpl, dists, 2)


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
        i: {tpl.edges[j].src.label for j in tpl.incoming(i)}
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
    dists = [np.full(8, 0.5) for _ in range(tpl.num_edges)]
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


def test_genotype_json_round_trip():
    rng = np.random.default_rng(2)
    tpl = build_cell_template(4, "reduction")
    dists = [rng.dirichlet(np.ones(8)) for _ in range(14)]
    g = derive_genotype(tpl, dists, 2)
    doc = json.loads(g.to_json())
    assert doc["kind"] == "reduction"
    assert len(doc["nodes"]) == 4
    assert all(len(node) == 2 for node in doc["nodes"])
    assert Genotype.from_json(g.to_json()) == g


def test_cell_kinds():
    assert CELL_KINDS == ("norm", "reduction")
