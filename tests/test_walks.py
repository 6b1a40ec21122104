import io
import json
import logging
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fane import (SF, STF, TF, WalkParams, build_augmented, generate_corpus,
                  generate_walk, load_attributes, load_edge_list,
                  preprocess_transitions, transition_distribution)
from fane import walks as walks_module
from fane.cli import main
from fane.graph import AttributedGraph
from fane.bench import attach_random_attributes, erdos_renyi
from fane.walks import (SENTINEL_START, STRATEGIES, edge_csr_index, load_corpus_tokens,
                        sample_next)
from conftest import random_raw_graph
from oracles import node2vec_reference as n2v
from oracles.per_state_tables import per_state_tables
from oracles.scalar_kernels import alpha, beta
from oracles.stat_helpers import chisquare_gof_pvalue, two_sample_chi2_pvalue

HAND_TABLE = json.loads(
    (Path(__file__).parent / "oracles" / "five_node_hand_table.json").read_text())


def _directed_states(ag):
    for v in range(ag.n_total):
        nbrs, _ = ag.neighbor_slice(v)
        for u in nbrs:
            yield int(u), int(v)


# ---------------------------------------------------------------- kernels

def test_beta_cases(five_node_graph):
    ag = five_node_graph
    # x == u
    assert beta(ag, 1, 0, 1, p=4.0, q=0.25) == 0.25
    # triangle: u=1, v=0, x=2 with (1,2) an edge
    assert beta(ag, 1, 0, 2, p=4.0, q=0.25) == 1.0
    # distance 2: u=1, v=0, x=4
    assert beta(ag, 1, 0, 4, p=4.0, q=0.25) == 4.0


def test_beta_unbiased_when_p_q_one(five_node_graph):
    ag = five_node_graph
    for x in (1, 2, 4):
        assert beta(ag, 1, 0, x, p=1.0, q=1.0) == 1.0


def test_alpha_strategy_cases(five_node_graph):
    ag = five_node_graph
    # tf: x is the attribute node 5
    assert alpha(ag, TF, 0, 1, 5, p=1.0, q=1.0, r=2.0) == 0.5
    # raw v, raw x, u adjacent to x -> falls through to beta = 1
    for strat in (SF, TF, STF):
        assert alpha(ag, strat, 1, 0, 2, p=3.0, q=0.25, r=9.0) == 1.0
    # stf with attribute source: 1/r regardless of d_ux
    assert alpha(ag, STF, 1, 5, 3, p=3.0, q=0.25, r=8.0) == 0.125
    assert alpha(ag, STF, 1, 5, 1, p=3.0, q=0.25, r=8.0) == 0.125


# ---------------------------------------------------------------- first step

def test_first_step_weighted_uniform_at_r_one(five_node_graph):
    params = WalkParams(r=1.0, strategy=TF)
    dist = transition_distribution(five_node_graph, params, SENTINEL_START, 0)
    assert np.allclose(dist, [0.5, 0.25, 0.25], atol=1e-15)


def test_first_step_attr_pull():
    g = load_edge_list(io.StringIO("0 1\n0 2\n0 3\n"))
    load_attributes(io.StringIO("0 0\n1 0\n"), g)
    ag = build_augmented(g)
    params = WalkParams(r=0.1, strategy=TF)
    dist = transition_distribution(ag, params, SENTINEL_START, 0)
    nbrs, _ = ag.neighbor_slice(0)
    attr_pos = int(np.nonzero(nbrs >= ag.n_raw)[0][0])
    assert dist[attr_pos] == pytest.approx(10.0 / 13.0, abs=1e-12)


def test_first_step_from_attr_node_sf_is_weighted_uniform(five_node_graph):
    params = WalkParams(r=10.0, strategy=SF)
    dist = transition_distribution(five_node_graph, params, SENTINEL_START, 5)
    assert np.allclose(dist, [0.5, 0.5], atol=1e-15)


# ---------------------------------------------------------------- transitions

def test_uniform_when_all_params_one():
    g = load_edge_list(io.StringIO("0 1\n0 2\n1 2\n2 3\n"))
    ag = build_augmented(g)
    params = WalkParams(p=1.0, q=1.0, r=1.0)
    dist = transition_distribution(ag, params, 0, 2)
    assert np.allclose(dist, np.full(3, 1 / 3), atol=1e-15)


def test_hand_table_all_strategies(five_node_graph):
    ag = five_node_graph
    for strat, states in HAND_TABLE.items():
        for state, expected in states.items():
            u_tok, v_tok = state.split(",")
            v = int(v_tok)
            u = SENTINEL_START if u_tok == "start" else int(u_tok)
            params = WalkParams(p=2.0, q=0.5, r=0.25, strategy=strat)
            dist = transition_distribution(ag, params, u, v)
            nbrs, _ = ag.neighbor_slice(v)
            assert len(dist) == len(expected)
            for x, prob in zip(nbrs, dist):
                assert prob == pytest.approx(expected[str(int(x))], abs=1e-12), (
                    strat, state, int(x))


def test_node2vec_degeneracy_on_random_fixtures():
    rng = np.random.default_rng(123)
    for _ in range(10):
        ag, triples = random_raw_graph(rng)
        adj = n2v.build_adj(triples)
        for p, q in ((0.25, 4.0), (1.0, 1.0), (4.0, 0.25)):
            for strat in (SF, TF, STF):
                params = WalkParams(p=p, q=q, r=rng.uniform(0.1, 10.0), strategy=strat)
                for u, v in _directed_states(ag):
                    expected = n2v.step_probs(adj, u, v, p, q)
                    got = transition_distribution(ag, params, u, v)
                    assert np.allclose(got, expected, atol=1e-12)


def test_monotone_attr_mass_in_r(five_node_graph):
    ag = five_node_graph
    for strat in (TF, STF):
        masses = []
        for r in (4.0, 1.0, 0.25):
            params = WalkParams(p=2.0, q=0.5, r=r, strategy=strat)
            dist = transition_distribution(ag, params, 0, 1)
            nbrs, _ = ag.neighbor_slice(1)
            masses.append(dist[nbrs >= ag.n_raw].sum())
        assert masses[0] < masses[1] < masses[2]


def test_sf_with_raw_source_ignores_r(five_node_graph):
    ag = five_node_graph
    for u, v in _directed_states(ag):
        if v >= ag.n_raw:
            continue
        lo = transition_distribution(ag, WalkParams(p=2, q=0.5, r=0.01, strategy=SF), u, v)
        hi = transition_distribution(ag, WalkParams(p=2, q=0.5, r=100.0, strategy=SF), u, v)
        assert np.array_equal(lo, hi)


def test_distribution_sums_to_one(five_node_graph):
    params = WalkParams(p=3.0, q=0.15, r=2.0)
    for u, v in _directed_states(five_node_graph):
        dist = transition_distribution(five_node_graph, params, u, v)
        assert abs(dist.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------- model

def test_path_graph_edge_table_count():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    ag = build_augmented(g)
    model = preprocess_transitions(ag, WalkParams(), tau=16)
    assert int((model.edge_off >= 0).sum()) == 4


def test_tau_zero_is_fully_on_demand(five_node_graph):
    model = preprocess_transitions(five_node_graph, WalkParams(), tau=0)
    assert model.n_precomputed_entries == 0
    assert np.all(model.edge_off < 0)
    assert np.all(model.node_off < 0)


def test_tables_over_budget_fall_back_to_tau_zero(five_node_graph, monkeypatch, caplog):
    """Tables one entry over the budget are not built: the model is that of
    tau=0 and a WARNING says so. At the budget exactly they are built."""
    params = WalkParams(p=2.0, q=0.5, r=0.5, walk_length=12, walks_per_node=3, seed=5)
    deg = np.diff(five_node_graph.indptr)
    need = int((deg + deg * deg).sum())
    monkeypatch.setattr(walks_module, "_MAX_TABLE_ENTRIES", need)
    assert preprocess_transitions(five_node_graph, params, tau=1024).n_precomputed_entries == need
    monkeypatch.setattr(walks_module, "_MAX_TABLE_ENTRIES", need - 1)
    with caplog.at_level(logging.WARNING, logger="fane.walks"):
        model = preprocess_transitions(five_node_graph, params, tau=1024)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert f"would need {need} entries" in caplog.records[0].getMessage()
    assert model.params.tau == 0 and model.n_precomputed_entries == 0
    assert np.all(model.node_off < 0) and np.all(model.edge_off < 0)
    want = generate_corpus(five_node_graph, preprocess_transitions(five_node_graph, params, tau=0))
    assert generate_corpus(five_node_graph, model).walks.tobytes() == want.walks.tobytes()


def test_attribute_heavy_graph_walks_at_default_tau():
    """1000 raw nodes with 3000 of 6000 attributes each: tables at tau=1024
    would need 1.5e9 entries, so the graph walks by rejection alone."""
    ag = build_augmented(attach_random_attributes(erdos_renyi(1000, 10, 1), 3000, 6000, 2))
    model = preprocess_transitions(ag, WalkParams(walk_length=5, walks_per_node=1))
    assert model.params.tau == 0 and model.n_precomputed_entries == 0
    walks = generate_corpus(ag, model).walks
    assert walks.shape == (ag.n_total, 5)
    for walk in walks[::35]:
        assert all(ag.has_edge(int(a), int(b)) for a, b in zip(walk[:-1], walk[1:]))


def test_sampling_rebuilds_no_prefix_sums(five_node_graph, monkeypatch):
    """The prefix sums are built once, by preprocess_transitions."""
    params = WalkParams(p=2.0, q=0.5, r=0.5, walk_length=10, walks_per_node=2, seed=4)
    model = preprocess_transitions(five_node_graph, params, tau=0)
    want = generate_corpus(five_node_graph, model).walks

    def rebuilt(*args):
        raise AssertionError("prefix sums rebuilt after preprocessing")

    monkeypatch.setattr(walks_module, "_proposal_sums", rebuilt)
    assert generate_corpus(five_node_graph, model).walks.tobytes() == want.tobytes()
    n = five_node_graph.n_total
    assert np.array_equal(generate_walk(five_node_graph, model, 3, iteration=1), want[n + 3])
    for u, v in [(SENTINEL_START, 0), *_directed_states(five_node_graph)]:
        assert len(sample_next(five_node_graph, model, u, v, 50, seed=1)) == 50


def test_node_without_neighbors_rejected():
    # the edge loader refuses such a node, so the graph is built directly
    ag = build_augmented(AttributedGraph(
        n_nodes=4, edge_src=np.array([0, 1], np.int32), edge_dst=np.array([1, 2], np.int32),
        edge_weight=np.ones(2), node_names=["0", "1", "2", "3"]))
    for tau in (0, 16):
        with pytest.raises(ValueError, match="node 3 has no neighbors"):
            preprocess_transitions(ag, WalkParams(), tau=tau)


TABLE_FIELDS = ("node_off", "node_accept", "node_alias", "edge_off", "edge_accept", "edge_alias")


def _assert_tables_identical(model, reference):
    for name, want in zip(TABLE_FIELDS, reference):
        got = getattr(model, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@st.composite
def _attributed_graphs(draw):
    """Random weighted attributed graph; raw nodes without edges carry attributes."""
    n = draw(st.integers(2, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    m = draw(st.integers(1, 4))
    entries = set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                                max_size=3 * n)))
    linked = {v for e in edges for v in e} | {v for v, _ in entries}
    entries = sorted(entries | {(v, 0) for v in range(n) if v not in linked})
    weights = st.floats(0.1, 10.0)
    g = AttributedGraph(
        n_nodes=n,
        edge_src=np.array([a for a, _ in edges], np.int32),
        edge_dst=np.array([b for _, b in edges], np.int32),
        edge_weight=np.array([draw(weights) for _ in edges]),
        node_names=[str(v) for v in range(n)],
        n_attrs=m,
        attr_node=np.array([v for v, _ in entries], np.int32),
        attr_id=np.array([a for _, a in entries], np.int32),
        attr_value=np.array([draw(weights) for _ in entries]),
    )
    return build_augmented(g)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_batched_tables_match_per_state_reference(data):
    ag = data.draw(_attributed_graphs())
    bias = st.floats(0.1, 10.0).filter(lambda b: b != 1.0)
    params = WalkParams(p=data.draw(bias), q=data.draw(bias), r=data.draw(bias),
                        strategy=data.draw(st.sampled_from(STRATEGIES)))
    deg = np.diff(ag.indptr)
    lo, hi = int(deg.min()), int(deg.max())
    tau = data.draw(st.integers(lo, max(lo, hi - 1)))
    model = preprocess_transitions(ag, params, tau=tau)
    if hi > lo:   # tau cuts through the degrees: table and on-demand states mix
        assert (model.edge_off >= 0).any() and (model.edge_off < 0).any()
    _assert_tables_identical(model, per_state_tables(ag, params, tau))


def test_batched_tables_match_per_state_reference_on_webkb(data_root):
    ag = build_augmented(AttributedGraph.load_dir(data_root / "webkb"))
    params = WalkParams(p=1.0, q=0.5, r=2.0, strategy=TF)
    model = preprocess_transitions(ag, params, tau=1024)
    _assert_tables_identical(model, per_state_tables(ag, params, 1024))


def test_table_columns_and_offsets_fit_their_dtypes(five_node_graph):
    model = preprocess_transitions(five_node_graph, WalkParams(), tau=64)
    budget = walks_module._MAX_TABLE_ENTRIES
    for alias, off in ((model.node_alias, model.node_off), (model.edge_alias, model.edge_off)):
        # a tabled row v has deg(v)**2 <= budget entries, so columns stay below isqrt(budget)
        assert isqrt(budget) - 1 <= np.iinfo(alias.dtype).max
        assert budget - 1 <= np.iinfo(off.dtype).max


def test_cora_model_holds_ten_bytes_per_table_entry(data_root):
    ag = build_augmented(AttributedGraph.load_dir(data_root / "cora"))
    model = preprocess_transitions(ag, WalkParams(p=1.0, q=0.5, r=2.0), tau=1024)
    held = sum(a.nbytes for a in vars(model).values() if isinstance(a, np.ndarray))
    allowed = (10 * model.n_precomputed_entries + 4 * len(ag.neighbors) + 4 * ag.n_total
               + model.sum_off.nbytes + model.sum_cum.nbytes)
    assert model.n_precomputed_entries > 0 and held <= allowed, (held, allowed)


def test_stored_distributions_match_on_demand(five_node_graph):
    """Alias tables must encode exactly the analytic distributions."""
    from oracles.alias_reference import implied_probs
    params = WalkParams(p=2.0, q=0.5, r=0.25, strategy=TF)
    model = preprocess_transitions(five_node_graph, params, tau=64)
    for u, v in _directed_states(five_node_graph):
        e = edge_csr_index(five_node_graph, u, v)
        off = int(model.edge_off[e])
        assert off >= 0
        d = five_node_graph.degree(v)
        probs = implied_probs(model.edge_accept[off:off + d], model.edge_alias[off:off + d] )
        assert np.allclose(probs, transition_distribution(five_node_graph, params, u, v),
                           atol=1e-12)


# ---------------------------------------------------------------- sampling

def test_sampler_chi_square_both_modes(five_node_graph):
    params = WalkParams(p=2.0, q=0.5, r=0.25, strategy=TF)
    pre = preprocess_transitions(five_node_graph, params, tau=64)
    ond = preprocess_transitions(five_node_graph, params, tau=0)
    n = 100_000
    for u, v in list(_directed_states(five_node_graph))[:6]:
        probs = transition_distribution(five_node_graph, params, u, v)
        for model in (pre, ond):
            draws = sample_next(five_node_graph, model, u, v, n, seed=99)
            counts = np.bincount(draws, minlength=len(probs))
            assert chisquare_gof_pvalue(counts, probs) > 0.01


def test_precomputed_and_on_demand_statistically_identical(five_node_graph):
    params = WalkParams(p=2.0, q=0.5, r=0.25, strategy=TF)
    pre = preprocess_transitions(five_node_graph, params, tau=64)
    ond = preprocess_transitions(five_node_graph, params, tau=0)
    n = 100_000
    for u, v in list(_directed_states(five_node_graph))[:4]:
        k = five_node_graph.degree(v)
        a = np.bincount(sample_next(five_node_graph, pre, u, v, n, seed=7), minlength=k)
        b = np.bincount(sample_next(five_node_graph, ond, u, v, n, seed=8), minlength=k)
        assert two_sample_chi2_pvalue(a, b) > 0.01


@pytest.mark.parametrize("tau", [0, 1024])
def test_sample_next_draws_what_the_corpus_draws(five_node_graph, tau):
    """sample_next's draw v is the first step of the corpus walk (iteration
    0, start v), through tables and through rejection alike."""
    g = five_node_graph
    params = WalkParams(p=2.0, q=0.5, r=0.5, walk_length=4, walks_per_node=1, seed=23)
    model = preprocess_transitions(g, params, tau=tau)
    corpus = generate_corpus(g, model)
    for v in range(g.n_total):
        drawn = sample_next(g, model, SENTINEL_START, v, g.n_total, seed=params.seed)[v]
        assert g.neighbor_slice(v)[0][drawn] == corpus.walks[v, 1], v


# ---------------------------------------------------------------- walks

def test_walk_length_and_start(five_node_graph):
    params = WalkParams(walk_length=2, seed=3)
    model = preprocess_transitions(five_node_graph, params)
    w = generate_walk(five_node_graph, model, 2)
    assert len(w) == 2
    assert w[0] == 2
    nbrs, _ = five_node_graph.neighbor_slice(2)
    assert w[1] in nbrs


def test_walk_edges_exist(five_node_graph):
    params = WalkParams(walk_length=30, seed=11)
    model = preprocess_transitions(five_node_graph, params)
    w = generate_walk(five_node_graph, model, 0)
    for a, b in zip(w[:-1], w[1:]):
        assert five_node_graph.has_edge(int(a), int(b))


def test_corpus_counts_and_coverage():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    ag = build_augmented(g)
    params = WalkParams(walk_length=5, walks_per_node=1, seed=1)
    model = preprocess_transitions(ag, params)
    corpus = generate_corpus(ag, model)
    assert corpus.n_walks == 3

    params = WalkParams(walk_length=5, walks_per_node=4, seed=1)
    model = preprocess_transitions(ag, params)
    corpus = generate_corpus(ag, model)
    assert corpus.n_walks == 4 * ag.n_total
    starts, counts = np.unique(corpus.walks[:, 0], return_counts=True)
    assert starts.tolist() == list(range(ag.n_total))
    assert np.all(counts == 4)


def test_corpus_includes_attr_starts_unless_disabled(five_node_graph):
    params = WalkParams(walk_length=4, walks_per_node=2, seed=5)
    model = preprocess_transitions(five_node_graph, params)
    corpus = generate_corpus(five_node_graph, model)
    assert corpus.n_walks == 2 * 6
    assert (corpus.walks[:, 0] >= five_node_graph.n_raw).sum() == 2


def test_determinism_across_runs_and_workers(five_node_graph, monkeypatch):
    """Runs and chunk sizes cannot change a corpus: 4-walker chunks
    straddle the iteration boundaries of 6 starts, and 1-walker chunks walk
    alone."""
    params = WalkParams(p=2.0, q=0.5, r=0.5, walk_length=12, walks_per_node=3, seed=77)
    model = preprocess_transitions(five_node_graph, params)
    a = generate_corpus(five_node_graph, model)
    b = generate_corpus(five_node_graph, model)
    assert a.walks.tobytes() == b.walks.tobytes()
    for walkers in (4, 1):
        monkeypatch.setattr(walks_module, "_CHUNK_WALKERS", walkers)
        c = generate_corpus(five_node_graph, model)
        assert a.walks.tobytes() == c.walks.tobytes(), walkers
    w = generate_walk(five_node_graph, model, 4, iteration=2)
    assert np.array_equal(w, a.walks[2 * 6 + 4])


@pytest.mark.parametrize("walk_length", [2, 5, 12])
def test_generate_walk_matches_every_corpus_row(five_node_graph, walk_length):
    params = WalkParams(p=2.0, q=0.5, r=0.5, walk_length=walk_length, walks_per_node=2, seed=77)
    model = preprocess_transitions(five_node_graph, params, tau=2)
    corpus = generate_corpus(five_node_graph, model)
    n = five_node_graph.n_total
    for it in range(2):
        for start in range(n):
            walk = generate_walk(five_node_graph, model, start, iteration=it)
            assert np.array_equal(walk, corpus.walks[it * n + start]), (it, start)


def test_seed_changes_corpus(five_node_graph):
    p1 = WalkParams(walk_length=12, walks_per_node=2, seed=1)
    p2 = WalkParams(walk_length=12, walks_per_node=2, seed=2)
    a = generate_corpus(five_node_graph, preprocess_transitions(five_node_graph, p1))
    b = generate_corpus(five_node_graph, preprocess_transitions(five_node_graph, p2))
    assert not np.array_equal(a.walks, b.walks)


def test_walk_bigram_frequencies_match_distributions(five_node_graph):
    params = WalkParams(p=2.0, q=0.5, r=0.5, strategy=TF, walk_length=40,
                        walks_per_node=300, seed=13)
    model = preprocess_transitions(five_node_graph, params)
    corpus = generate_corpus(five_node_graph, model)
    counts: dict[tuple[int, int], np.ndarray] = {}
    for row in corpus.walks:
        for i in range(1, len(row) - 1):
            u, v, x = int(row[i - 1]), int(row[i]), int(row[i + 1])
            nbrs, _ = five_node_graph.neighbor_slice(v)
            pos = int(np.searchsorted(nbrs, x))
            counts.setdefault((u, v), np.zeros(len(nbrs)))[pos] += 1
    tested = 0
    for (u, v), c in counts.items():
        if c.sum() < 1500:
            continue
        probs = transition_distribution(five_node_graph, params, u, v)
        assert chisquare_gof_pvalue(c, probs) > 0.01, (u, v)
        tested += 1
    assert tested >= 5


def test_attr_bridge_rarely_crossed_at_huge_r():
    # two raw components joined only through the attribute node
    g = load_edge_list(io.StringIO("0 1\n1 2\n3 4\n4 5\n"))
    load_attributes(io.StringIO("0 0\n3 0\n"), g)
    ag = build_augmented(g)
    params = WalkParams(r=1e6, strategy=TF, walk_length=10, walks_per_node=20000, seed=21)
    model = preprocess_transitions(ag, params)
    corpus = generate_corpus(ag, model)
    raw_rows = corpus.walks[corpus.walks[:, 0] < ag.n_raw]
    assert len(raw_rows) >= 100_000
    frac = float((raw_rows[:, 1:] >= ag.n_raw).mean())
    assert frac < 0.001


def test_corpus_file_round_trip(five_node_graph, tmp_path):
    params = WalkParams(walk_length=6, walks_per_node=2, seed=3)
    model = preprocess_transitions(five_node_graph, params)
    corpus = generate_corpus(five_node_graph, model)
    path = tmp_path / "corpus.txt"
    corpus.save(path)
    matrix, tokens = load_corpus_tokens(path)
    assert matrix.shape == corpus.walks.shape
    # attribute tokens rendered as a<attrid>
    assert "a0" in tokens
    # token indices decode back to the original walks
    decoded = np.array([[tokens[t] for t in row] for row in matrix])
    expected = np.array([[str(v) if v < corpus.n_raw else f"a{corpus.attr_ids[v - corpus.n_raw]}"
                          for v in row.tolist()] for row in corpus.walks])
    assert np.array_equal(decoded, expected)


def test_corpus_unequal_walk_names_file_line(tmp_path, capsys):
    # blank lines are skipped but counted: the short walk is file line 4
    path = tmp_path / "corpus.txt"
    path.write_text("0 1 2\n\n1 2 0\n2 0\n0 1\n")
    with pytest.raises(ValueError, match=r"^corpus line 4: walk of length 2, expected 3 as in the first walk$"):
        load_corpus_tokens(path)
    assert main(["embed", "--corpus", str(path), "--out", str(tmp_path / "emb.txt")]) == 2
    assert "corpus line 4: walk of length 2" in capsys.readouterr().err


def test_isolated_start_rejected(five_node_graph):
    model = preprocess_transitions(five_node_graph, WalkParams())
    with pytest.raises((ValueError, IndexError)):
        generate_walk(five_node_graph, model, 99)


@pytest.mark.parametrize("start", ["-1", "n_total"])
def test_start_outside_graph_rejected(five_node_graph, start):
    ag = five_node_graph
    model = preprocess_transitions(ag, WalkParams())
    v = ag.n_total if start == "n_total" else -1
    message = rf"^node id {v} is not in \[0, {ag.n_total}\)$"
    with pytest.raises(ValueError, match=message):
        generate_walk(ag, model, v)
    with pytest.raises(ValueError, match=message):
        sample_next(ag, model, SENTINEL_START, v, 5, 1)


@pytest.mark.parametrize("u", [-3, 6])
def test_previous_node_outside_graph_rejected(five_node_graph, u):
    # a negative u other than SENTINEL_START would index indptr from the end
    model = preprocess_transitions(five_node_graph, WalkParams())
    with pytest.raises(ValueError, match=rf"^node id {u} is not in \[0, 6\)$"):
        sample_next(five_node_graph, model, u, 0, 5, 1)


def test_walk_params_validation():
    with pytest.raises(ValueError):
        WalkParams(p=0.0)
    with pytest.raises(ValueError):
        WalkParams(walk_length=1)
    with pytest.raises(ValueError):
        WalkParams(strategy="bogus")


def test_tau_is_a_walk_setting(five_node_graph):
    """params.tau sets the table threshold; a tau argument replaces it and is
    checked by WalkParams."""
    with pytest.raises(ValueError, match="tau must be >= 0"):
        WalkParams(tau=-1)
    with pytest.raises(ValueError, match="tau must be >= 0"):
        preprocess_transitions(five_node_graph, WalkParams(), tau=-1)
    params = WalkParams(p=2.0, seed=7, tau=0)
    model = preprocess_transitions(five_node_graph, params)
    assert model.params == params and model.n_precomputed_entries == 0
    model = preprocess_transitions(five_node_graph, params, tau=1024)
    assert model.params == WalkParams(p=2.0, seed=7) and model.n_precomputed_entries > 0


def test_corpus_save_bytes_match_per_token_writer(five_node_graph, data_root, tmp_path):
    from oracles import corpus_writer
    from fane.graph import AttributedGraph
    g = AttributedGraph.load_dir(data_root / "cora")
    cora = build_augmented(g)
    for ag, params in [(five_node_graph, WalkParams(walk_length=6, walks_per_node=3, seed=3)),
                       (cora, WalkParams(walk_length=10, walks_per_node=1, seed=5))]:
        corpus = generate_corpus(ag, preprocess_transitions(ag, params))
        assert corpus.walks.max() >= ag.n_raw    # attribute tokens are rendered too
        corpus.save(tmp_path / "shipped.txt")
        corpus_writer.save(corpus, tmp_path / "oracle.txt")
        assert (tmp_path / "shipped.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()
