"""Tests of the benchmark itself: every workload runs end to end at toy
size, and every output check rejects a deliberately corrupted output.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import pipeline  # noqa: E402
from checks import Bias, CheckError  # noqa: E402
from tracing import Tracer, rss_hwm_mb  # noqa: E402

from fane.evaluate import ClassificationReport  # noqa: E402
from fane.graph import AttributedGraph, build_augmented  # noqa: E402
from fane.sgns import EmbeddingMatrix  # noqa: E402
from fane.walks import (WalkParams, generate_corpus, load_corpus_tokens,  # noqa: E402
                        preprocess_transitions)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(wl: pipeline.Workload) -> pipeline.Workload:
    """The workload's code path (staging, tau) on a toy budget."""
    return dataclasses.replace(wl, walk_length=20, walks_per_node=10, dim=8,
                               epochs=1, lr=0.1, ratios=(0.5,), reps=1, known=None,
                               er=None, dataset=None)


@pytest.fixture(scope="module")
def toy_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("toy")
    inputs.make_er(d, seed=5, nodes=80, degree=4.0, attrs_per_node=20, classes=2)
    return pipeline.Inputs.from_dir(d)


@pytest.fixture(scope="module")
def toy_graph(toy_inputs):
    g = AttributedGraph.load_dir(toy_inputs.edges.parent)
    return build_augmented(g)


def walk(ag, bias: Bias, tau=1024, seed=3, walks_per_node=10):
    wp = WalkParams(p=bias.p, q=bias.q, r=bias.r, strategy=pipeline.STRATEGY, walk_length=20,
                    walks_per_node=walks_per_node, seed=seed)
    model = preprocess_transitions(ag, wp, tau=tau)
    return model, generate_corpus(ag, model)


# ---------------------------------------------------------------- whole runs

@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_workload_runs_at_toy_size(name, toy_inputs, tmp_path):
    wl = toy(pipeline.WORKLOADS[name])
    tracer = Tracer(enabled=True)
    rec = pipeline.Recorder(tracer)
    with tracer.span("round"):
        result = pipeline.run_round(wl, toy_inputs, 7, rec, tmp_path)
    assert rec.problems == []
    assert rec.attempted == pipeline.OPS_PER_ROUND and rec.failed == 0
    e2e = pipeline.end_to_end([result])
    layers = pipeline.per_layer(tracer, toy_inputs.facts)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(e2e)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        value, unit = (e2e | layers)[m["name"]]
        assert unit == m["unit"] and math.isfinite(value), m["name"]
    for m in SPEC["end_to_end"]:
        assert e2e[m["name"]][0] > 0, m["name"]
    # one span per layer call, each inside a setup or the round
    calls = [s for s in tracer.spans if "." in s["name"]]
    assert len(calls) == rec.attempted
    parents = {tracer.spans[s["parent"]]["name"] for s in calls}
    assert parents == {"setup", "round"}


def test_a_rejected_output_counts_as_a_failed_operation():
    rec = pipeline.Recorder(Tracer(enabled=False))
    rec.op("walks.generate_corpus", lambda: np.array([np.nan]),
           lambda out: checks.require(np.isfinite(out).all(), "non-finite output"))
    assert (rec.attempted, rec.failed) == (1, 1)
    assert rec.problems == ["walks.generate_corpus: non-finite output"]


def test_checks_run_off_the_process_high_water_mark():
    before = rss_hwm_mb()
    rows = pipeline.in_child(lambda: len(np.ones(32 * 1024 * 1024)))  # 256 MiB in the child
    assert rows == 32 * 1024 * 1024
    assert rss_hwm_mb() - before < 64


def test_without_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cora-tf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------- graph

def test_augmented_rejects_a_dropped_virtual_edge(toy_graph, toy_inputs):
    checks.augmented(toy_graph, toy_inputs.facts)
    ag = dataclasses.replace(toy_graph, neighbors=toy_graph.neighbors.copy())
    last = ag.indptr[1] - 1                      # node 0's highest neighbor: an attribute
    ag.neighbors[last] = ag.neighbors[last] - 1  # moved to another attribute node
    with pytest.raises(CheckError):
        checks.augmented(ag, toy_inputs.facts)


def test_tables_reject_a_perturbed_alias_table(toy_graph):
    bias = Bias(3.0, 0.15, 2.0)
    model, _ = walk(toy_graph, bias)
    checks.tables(toy_graph, model, bias, 1024)
    bad = dataclasses.replace(model, edge_accept=model.edge_accept.copy())
    bad.edge_accept[:] = 1.0                     # every table becomes uniform
    with pytest.raises(CheckError):
        checks.tables(toy_graph, bad, bias, 1024)


# ---------------------------------------------------------------- walks

def test_corpus_shape_rejects_a_spliced_non_edge(toy_graph):
    bias = Bias(3.0, 0.15, 2.0)
    _, corpus = walk(toy_graph, bias)
    W = corpus.walks.copy()
    N = toy_graph.n_total
    starts = np.tile(np.arange(N), 10)
    checks.corpus_shape(toy_graph, W, starts, 10, 20)
    a = int(W[0, 4])
    nbrs = set(toy_graph.neighbors[toy_graph.indptr[a]:toy_graph.indptr[a + 1]].tolist())
    W[0, 5] = next(x for x in range(N) if x not in nbrs and x != a)
    with pytest.raises(CheckError, match="not edges"):
        checks.corpus_shape(toy_graph, W, starts, 10, 20)


def test_corpus_shape_rejects_a_missing_start(toy_graph):
    _, corpus = walk(toy_graph, Bias(1.0, 1.0, 1.0))
    starts = np.tile(np.arange(toy_graph.n_total), 10)
    with pytest.raises(CheckError):
        checks.corpus_shape(toy_graph, corpus.walks[1:], starts[1:], 10, 20)


@pytest.mark.parametrize("bias", [Bias(3.0, 0.15, 2.0), Bias(1.0, 1.0, 2.0)])
def test_sampler_accepts_the_program_and_rejects_a_wrong_bias(toy_graph, bias):
    # tau=0 walks on demand, tau=1024 from alias tables
    for tau in (0, 1024):
        _, corpus = walk(toy_graph, bias, tau=tau, walks_per_node=40)
        checks.sampler(toy_graph, corpus.walks, bias)
    wrong = dataclasses.replace(bias, r=0.25)
    with pytest.raises(CheckError, match="off the bias"):
        checks.sampler(toy_graph, corpus.walks, wrong)


def test_corpus_roundtrip_rejects_a_permuted_reload(toy_graph, tmp_path):
    _, corpus = walk(toy_graph, Bias(1.0, 1.0, 1.0))
    path = tmp_path / "corpus.txt"
    corpus.save(path)
    matrix, tokens = load_corpus_tokens(path)

    def token(v):
        return pipeline.corpus_token(toy_graph, v)

    checks.corpus_roundtrip(corpus.walks, token, matrix, tokens)
    perm = np.random.default_rng(0).permutation(len(matrix))
    with pytest.raises(CheckError):
        checks.corpus_roundtrip(corpus.walks, token, matrix[perm], tokens)


# ---------------------------------------------------------------- sgns

def embedding(rows=6, dim=4, loss=1.0):
    vecs = np.random.default_rng(1).standard_normal((rows, dim)).astype(np.float32)
    return EmbeddingMatrix(keys=[str(i) for i in range(rows)], vectors=vecs,
                           epoch_losses=[2.0, loss])


def test_training_rejects_a_nan_row():
    emb = embedding()
    keys = set(emb.keys)
    checks.training(emb, keys, 4, 2, 5)
    emb.vectors[3] = np.nan
    with pytest.raises(CheckError, match="non-finite"):
        checks.training(emb, keys, 4, 2, 5)


def test_training_rejects_a_loss_at_the_initial_value():
    emb = embedding(loss=6 * math.log(2.0))
    with pytest.raises(CheckError, match="final loss"):
        checks.training(emb, set(emb.keys), 4, 2, 5)


def test_embedding_roundtrip_rejects_a_changed_value(tmp_path):
    emb = embedding()
    emb.save_binary(tmp_path / "e.bin")
    loaded = EmbeddingMatrix.load_binary(tmp_path / "e.bin")
    checks.embedding_roundtrip(emb, loaded)
    loaded.vectors[2, 1] += 1e-3
    with pytest.raises(CheckError):
        checks.embedding_roundtrip(emb, loaded)


# ---------------------------------------------------------------- evaluate

def report(micro_by_ratio):
    rep = ClassificationReport(C=1.0, seed=1, repetitions=1)
    rep.rows = [{"ratio": r, "rep": 0, "micro_f1": f, "macro_f1": f}
                for r, f in micro_by_ratio.items()]
    return rep


def test_classification_rejects_majority_rate_and_falling_scores():
    y = np.array([0] * 6 + [1] * 4)
    checks.classification(report({0.1: 0.7, 0.5: 0.8, 0.9: 0.9}), y, (0.1, 0.5, 0.9))
    with pytest.raises(CheckError, match="majority"):
        checks.classification(report({0.5: 0.6}), y, (0.5,))
    with pytest.raises(CheckError, match="rise"):
        checks.classification(report({0.1: 0.9, 0.5: 0.8, 0.9: 0.7}), y, (0.1, 0.5, 0.9))
