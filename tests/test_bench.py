import numpy as np
import pytest

from fane import WalkParams, bench, build_augmented, preprocess_transitions
from fane.bench import (BenchSpec, attach_random_attributes, erdos_renyi,
                        ols_fit, run_scaling)
from oracles import erdos_renyi_reference


def test_er_two_nodes_single_edge():
    g = erdos_renyi(2, 1, seed=0)
    assert g.n_nodes == 2
    assert g.n_edges == 1


def test_er_edge_count_within_binomial_bound():
    n, deg = 100, 10
    counts = [erdos_renyi(n, deg, seed=s).n_edges for s in range(8)]
    expect = n * deg / 2
    sigma = np.sqrt(n * (n - 1) / 2 * (deg / (n - 1)) * (1 - deg / (n - 1)))
    # re-attachment can only add a handful of edges
    for c in counts:
        assert abs(c - expect) < 3 * sigma + 5


def test_er_deterministic_and_seed_sensitive():
    a = erdos_renyi(60, 6, seed=3)
    b = erdos_renyi(60, 6, seed=3)
    c = erdos_renyi(60, 6, seed=4)
    assert np.array_equal(a.edge_src, b.edge_src)
    assert np.array_equal(a.edge_dst, b.edge_dst)
    assert not (np.array_equal(a.edge_src, c.edge_src)
                and np.array_equal(a.edge_dst, c.edge_dst))


def test_er_no_isolated_nodes():
    g = erdos_renyi(200, 2, seed=1)
    deg = np.zeros(200, int)
    np.add.at(deg, g.edge_src, 1)
    np.add.at(deg, g.edge_dst, 1)
    assert deg.min() >= 1


@pytest.mark.parametrize("n, deg, seeds", [
    (2, 1, [0]), (100, 10, [1]), (1000, 10, [3]), (30, 29, [4]),
    # sparse: many isolated nodes, whose repairs clash with earlier repairs
    (50, 1, [2]), (200, 0.5, [7]), (4, 0.5, range(30)), (8, 0.5, range(30))])
def test_er_matches_set_based_oracle(n, deg, seeds):
    for seed in seeds:
        got = erdos_renyi(n, deg, seed)
        want = erdos_renyi_reference.erdos_renyi(n, deg, seed)
        for a, b in [(got.edge_src, want.edge_src), (got.edge_dst, want.edge_dst),
                     (got.edge_weight, want.edge_weight)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (got.n_nodes, got.node_names) == (want.n_nodes, want.node_names)


def test_er_rejects_bad_params():
    with pytest.raises(ValueError):
        erdos_renyi(1, 1, seed=0)
    with pytest.raises(ValueError):
        erdos_renyi(10, 10, seed=0)


def test_attach_attributes_exact_count():
    g = erdos_renyi(50, 4, seed=2)
    g2 = attach_random_attributes(g, 10, universe=40, seed=5)
    assert g2.nnz_attributes == 500
    ag = build_augmented(g2)
    assert ag.n_virtual_edges == 500
    per_node = np.bincount(g2.attr_node, minlength=50)
    assert np.all(per_node == 10)
    # attributes are distinct per node
    seen = set(zip(g2.attr_node.tolist(), g2.attr_id.tolist()))
    assert len(seen) == 500


def test_attach_zero_attributes_is_identity():
    g = erdos_renyi(20, 3, seed=2)
    assert attach_random_attributes(g, 0, universe=10, seed=1) is g


def test_attach_universe_incidence_bound():
    g = erdos_renyi(400, 3, seed=8)
    a = 6
    g2 = attach_random_attributes(g, a, universe=2 * a, seed=9)
    incidence = np.bincount(g2.attr_id, minlength=2 * a)
    expect = 400 / 2
    sigma = np.sqrt(400 * 0.5 * 0.5)
    assert np.all(np.abs(incidence - expect) < 3 * sigma)


def test_attach_rejects_small_universe():
    g = erdos_renyi(10, 2, seed=0)
    with pytest.raises(ValueError):
        attach_random_attributes(g, 5, universe=3, seed=0)


def test_ols_fit_basics():
    fit = ols_fit([1, 2, 3, 4], [2.0, 4.1, 5.9, 8.0])
    assert fit.r2 > 0.99
    assert fit.slope == pytest.approx(2.0, abs=0.1)
    assert ols_fit([1], [1.0]) is None


def test_run_scaling_single_point_skips_fit(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WALK_LENGTH", 5)
    monkeypatch.setattr(bench, "WALKS_PER_NODE", 1)
    spec = BenchSpec(node_counts=(60,), attr_counts=(), repetitions=1, seed=3)
    result = run_scaling(spec, run_attrs=False)
    assert result.node_fit is None
    stages = {r["stage"] for r in result.rows}
    assert stages == {"construct", "preprocess", "walk", "train", "total"}
    out = tmp_path / "t.csv"
    result.save_csv(out, "nodes")
    lines = out.read_text().splitlines()
    assert lines[0] == "size,stage,median_seconds,workers"
    assert len(lines) == 6


def test_run_scaling_small_series_fits(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WALK_LENGTH", 5)
    monkeypatch.setattr(bench, "WALKS_PER_NODE", 1)
    spec = BenchSpec(node_counts=(50, 100, 200), attr_counts=(2, 4),
                     attr_n_nodes=50, repetitions=1, seed=3)
    result = run_scaling(spec)
    assert result.node_fit is not None
    assert result.attr_fit is not None
    sizes = [r["size"] for r in result.rows if r["series"] == "attrs" and r["stage"] == "total"]
    assert sizes == [100, 200]


def test_precomputed_entries_grow_linearly_with_virtual_edges():
    """With tau capping hubs, stored entries stay within tau * directed-edge count."""
    tau = 8
    base = erdos_renyi(150, 4, seed=5)
    entries = []
    for a in (2, 4, 8):
        g = attach_random_attributes(base, a, universe=2 * a, seed=6)
        ag = build_augmented(g)
        model = preprocess_transitions(ag, WalkParams(walk_length=5, walks_per_node=1),
                                       tau=tau)
        n_directed = len(ag.neighbors)
        assert model.n_precomputed_entries <= tau * n_directed + n_directed
        entries.append((ag.n_virtual_edges, model.n_precomputed_entries))
    # growth no faster than linear in virtual edges (2x edges -> <= ~2x entries)
    for (e1, s1), (e2, s2) in zip(entries, entries[1:]):
        if s1 > 0:
            assert s2 / s1 <= (e2 / e1) * 1.5
