"""The batched rejection step that samples every state without an alias table."""

import io
import logging
import re

import numpy as np
import pytest
from scipy import stats as sps

from fane import (SF, STF, TF, WalkParams, build_augmented, generate_corpus, generate_walk,
                  load_attributes, load_edge_list, preprocess_transitions,
                  transition_distribution)
from fane import walks as walks_module
from fane.walks import SENTINEL_START, _philox4x32, _row_search, sample_next
from oracles.stat_helpers import chisquare_gof_pvalue

STEP_LOG = re.compile(r"walk steps: (\d+) from tables, (\d+) by rejection at ([\d.]+) trials each, "
                      r"(\d+) exact fallbacks")


def _step_counts(caplog):
    found = [STEP_LOG.search(r.getMessage()) for r in caplog.records]
    found = [m for m in found if m]
    assert len(found) == 1
    table, rejection, trials, fallbacks = found[0].groups()
    return int(table), int(rejection), float(trials), int(fallbacks)


# ---------------------------------------------------------------- kernels

@pytest.mark.parametrize("ctr, key, want", [
    ((0, 0, 0, 0), (0, 0), (0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd)),
    ((0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344), (0xa4093822, 0x299f31d0),
     (0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1)),
])
def test_philox4x32_known_answers(ctr, key, want):
    """The Random123 known-answer vectors of Philox4x32-10."""
    got = _philox4x32([np.array([c], np.uint64) for c in ctr], key)
    assert tuple(int(w[0]) for w in got) == want


@pytest.mark.parametrize("side", ["left", "right"])
def test_row_search_matches_searchsorted_per_row(side):
    rng = np.random.default_rng(4)
    lengths = rng.integers(0, 40, 300)
    a = np.concatenate([np.sort(rng.integers(0, 50, n)) for n in lengths])
    lo = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    hi = lo + lengths
    key = rng.integers(-2, 53, len(lengths))
    want = [s + np.searchsorted(a[s:e], k, side) for s, e, k in zip(lo, hi, key)]
    assert _row_search(a, lo, hi, key, side).tolist() == want


# ---------------------------------------------------------------- sampling

def _complete_graph(n, rng):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    text = "".join(f"{a} {b} {w:.3f}\n" for (a, b), w in zip(pairs, rng.uniform(0.5, 2.0, len(pairs))))
    return build_augmented(load_edge_list(io.StringIO(text)))


@pytest.mark.parametrize("p, u, fallback_share", [
    (1.0, 1, (0.9, 1.0)),                  # every x is adjacent to u: accepted with q
    (5e-4, 1, (1e-4, 0.05)),               # 1/p above the envelope: the return edge is an outlier
    (1.0, SENTINEL_START, (0.9, 1.0)),     # a first step is accepted with 1 / max(1, 1/q)
])
def test_sample_next_rejection_heavy_state(monkeypatch, p, u, fallback_share):
    """On a complete graph at q = 1e-3 almost every proposal is rejected, so
    exact fallbacks run; the draws still follow pi."""
    ag = _complete_graph(8, np.random.default_rng(2))
    params = WalkParams(p=p, q=1e-3, r=1.0)
    model = preprocess_transitions(ag, params, tau=0)
    calls = []
    exact = walks_module._exact_draw
    monkeypatch.setattr(walks_module, "_exact_draw", lambda *a: calls.append(1) or exact(*a))
    n = 30_000
    probs = transition_distribution(ag, params, u, 0)
    draws = sample_next(ag, model, u, 0, n, seed=5)
    assert chisquare_gof_pvalue(np.bincount(draws, minlength=len(probs)), probs) > 0.01
    lo, hi = fallback_share
    assert lo * n < len(calls) < hi * n


def _bigram_pvalues(ag, params, walks, min_visits=80):
    """Goodness-of-fit p-values of next-step counts against pi, one per
    state (u, v) visited min_visits times, first steps as u = SENTINEL_START."""
    ext = np.hstack([np.full((len(walks), 1), SENTINEL_START), walks.astype(np.int64)])
    u, v, x = ext[:, :-2].ravel(), ext[:, 1:-1].ravel(), ext[:, 2:].ravel()
    state = (u + 1) * ag.n_total + v
    keys, inverse, visits = np.unique(state, return_inverse=True, return_counts=True)
    out = []
    for k in np.flatnonzero(visits >= min_visits):
        su, sv = divmod(int(keys[k]), ag.n_total)
        nbrs, _ = ag.neighbor_slice(sv)
        counts = np.bincount(np.searchsorted(nbrs, x[inverse == k]), minlength=len(nbrs))
        out.append(chisquare_gof_pvalue(counts, transition_distribution(ag, params, su - 1, sv)))
    return out


def _ring_with_attributes():
    """12-node weighted ring with four chords; three attributes on four nodes each."""
    rng = np.random.default_rng(8)
    pairs = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (2, 9), (3, 5), (7, 10)]
    g = load_edge_list(io.StringIO("".join(f"{a} {b} {w:.2f}\n" for (a, b), w in
                                           zip(pairs, rng.uniform(0.5, 3.0, len(pairs))))))
    load_attributes(io.StringIO("".join(f"{v} {a} {rng.uniform(0.5, 2.0):.2f}\n" for a in range(3)
                                        for v in rng.choice(12, 4, replace=False))), g)
    return build_augmented(g)


@pytest.mark.parametrize("strategy", [SF, TF, STF])
@pytest.mark.parametrize("p, q", [(2.0, 0.5), (0.25, 4.0), (3.0, 0.15)])
def test_tau_zero_bigrams_match_distributions(strategy, p, q):
    """Next-step counts of a tau=0 corpus fit pi on every well-visited state;
    the per-state p-values are pooled by Fisher's method."""
    ag = _ring_with_attributes()
    params = WalkParams(p=p, q=q, r=0.5, strategy=strategy, walk_length=40,
                        walks_per_node=80, seed=13)
    model = preprocess_transitions(ag, params, tau=0)
    pvalues = _bigram_pvalues(ag, params, generate_corpus(ag, model).walks)
    assert len(pvalues) >= 70   # the 15 first-step states (80 visits each) among them
    pooled = sps.chi2.sf(-2.0 * np.log(np.maximum(pvalues, 1e-300)).sum(), 2 * len(pvalues))
    assert pooled > 1e-3, (pooled, min(pvalues))


@pytest.mark.parametrize("strategy", [SF, TF, STF])
def test_sample_next_fits_pi_on_every_state_with_raw_beta(strategy):
    """At p = 0.25 the return edge is an outlier: 1/p = 4 is above the
    envelope c = max(1, 1/q) = 1. Every state of the graph, first steps too."""
    ag = _ring_with_attributes()
    params = WalkParams(p=0.25, q=4.0, r=0.5, strategy=strategy)
    model = preprocess_transitions(ag, params, tau=0)
    pvalues = []
    for v in range(ag.n_total):
        nbrs, _ = ag.neighbor_slice(v)
        for u in [SENTINEL_START, *nbrs.tolist()]:
            probs = transition_distribution(ag, params, u, v)
            draws = sample_next(ag, model, u, v, 4000, seed=v)
            pvalues.append(chisquare_gof_pvalue(np.bincount(draws, minlength=len(probs)), probs))
    pooled = sps.chi2.sf(-2.0 * np.log(np.maximum(pvalues, 1e-300)).sum(), 2 * len(pvalues))
    assert pooled > 1e-3, (pooled, min(pvalues))


# ---------------------------------------------------------------- corpus

def test_tau_zero_corpus_independent_of_workers_and_equal_to_walks(five_node_graph, caplog,
                                                                   monkeypatch):
    """Retries and fallbacks are addressed by (iteration, start, step,
    trial), so chunking cannot change a walk: 4-walker chunks straddle the
    iteration boundaries of 6 starts, and 1-walker chunks walk alone."""
    params = WalkParams(p=0.1, q=0.01, r=0.5, walk_length=12, walks_per_node=3, seed=77)
    model = preprocess_transitions(five_node_graph, params, tau=0)
    with caplog.at_level(logging.INFO, logger="fane.walks"):
        a = generate_corpus(five_node_graph, model)
    _, rejection, trials, fallbacks = _step_counts(caplog)
    assert trials > 2 and fallbacks > 0   # later trials and the fallback both ran
    for walkers in (4, 1):
        monkeypatch.setattr(walks_module, "_CHUNK_WALKERS", walkers)
        b = generate_corpus(five_node_graph, model)
        assert a.walks.tobytes() == b.walks.tobytes(), walkers
    n = five_node_graph.n_total
    for it in range(3):
        for start in range(n):
            assert np.array_equal(generate_walk(five_node_graph, model, start, iteration=it),
                                  a.walks[it * n + start]), (it, start)


def test_tiny_graph_corpus_takes_one_batch_per_step(five_node_graph, monkeypatch):
    """All 1,800 walks of the corpus fit one chunk, so the rejection step's
    fixed numpy cost is paid l - 1 times, not walks_per_node * (l - 1)."""
    calls = []
    step = walks_module._next_positions

    def counted(*args):
        calls.append(len(args[3]))
        return step(*args)

    monkeypatch.setattr(walks_module, "_next_positions", counted)
    params = WalkParams(p=2.0, q=0.5, r=0.5, walk_length=40, walks_per_node=300, seed=13)
    corpus = generate_corpus(five_node_graph, preprocess_transitions(five_node_graph, params, tau=0))
    assert corpus.n_walks == 300 * 6
    assert calls == [300 * 6] * 39


@pytest.mark.parametrize("tau", [0, 2, 1024])
def test_step_counters_logged(five_node_graph, caplog, tau):
    params = WalkParams(p=2.0, q=0.5, r=0.5, walk_length=10, walks_per_node=4, seed=3)
    model = preprocess_transitions(five_node_graph, params, tau=tau)
    with caplog.at_level(logging.INFO, logger="fane.walks"):
        corpus = generate_corpus(five_node_graph, model)
    table, rejection, trials, fallbacks = _step_counts(caplog)
    deg = np.diff(five_node_graph.indptr)
    assert table == int((deg[corpus.walks[:, :-1]] <= tau).sum())
    assert table + rejection == corpus.n_walks * (corpus.walk_length - 1)
    if rejection:
        assert 1.0 <= trials <= walks_module._MAX_TRIALS
    else:
        assert trials == 0.0 and fallbacks == 0
