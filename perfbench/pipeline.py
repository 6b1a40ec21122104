"""The benchmark's workloads and one pipeline round over each.

A round loads the input files, builds the augmented graph and its
transition tables, then walks, trains and classifies. Every call into a
layer is one operation: it runs inside a span, its seconds are added to the
layer-call clock, and its output goes through the checks in ``checks``.
Checks run off the clock in a forked child, so pipeline_s is the time the
pipeline's own calls took and the process high-water mark is the
pipeline's own. Corpus and embeddings go through their file formats on
every workload; on the in-memory workloads that round trip follows the
classification and stays out of pipeline_s.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fane.evaluate import evaluate_classification
from fane.graph import build_augmented, load_attributes, load_edge_list, load_labels
from fane.sgns import EmbeddingMatrix, TrainParams, train
from fane.walks import WalkParams, generate_corpus, load_corpus_tokens, preprocess_transitions

import checks
from checks import Bias, InputFacts
from tracing import Tracer, duration, rss_hwm_mb

MB = 1024.0 * 1024.0

# The train/test splits stay fixed across seeds, as a fixed test set would,
# so F1 moves with the corpus and the embedding only.
SPLIT_SEED = 31

# Every workload walks with the tf strategy and trains with window 5.
STRATEGY = "tf"
WINDOW = 5

# Five setup calls; then walk, corpus save and load, train, four embedding
# saves and loads, and classify.
OPS_PER_ROUND = 14


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str | None          # stand-in under data/; None for the generated graph
    p: float
    q: float
    r: float
    tau: int = 1024
    walk_length: int = 40
    walks_per_node: int = 2
    dim: int = 8
    epochs: int = 1
    lr: float = 0.2
    C: float = 0.1
    ratios: tuple = (0.1, 0.5, 0.9)
    reps: int = 3
    staged: bool = False         # corpus and embeddings pass through files mid-pipeline
    known: tuple | None = None   # (|V|, |E|, m) the input must have
    er: tuple | None = None      # (nodes, mean degree, attributes per node, classes)


WORKLOADS = {w.name: w for w in (
    # The acceptance suite's cora biases (p=3, q=0.15, r=2, tf, l=40, window
    # 5, d=8) through the staged file path, on a short corpus: 2 walks/node
    # and 1 epoch at lr 0.2. Per-edge alias tables (3.9M entries) dominate,
    # then SGNS. At d=8, F1 gains little past a 10% share, so the sweep
    # starts at 2% for the rise from the lowest share to the highest to show.
    Workload("cora-tf", "cora", p=3.0, q=0.15, r=2.0, ratios=(0.02, 0.5, 0.9), staged=True,
             known=(2708, 5278, 1433)),
    # webkb's acceptance biases at the CLI default d=128, in memory, on one
    # walk per node. lr 0.2 trains the vectors past the small norm at which
    # the classifier falls to the majority rate. SGNS scatter-add and
    # full-batch Pegasos at C=1 dominate.
    Workload("webkb-d128", "webkb", p=1.0, q=0.5, r=2.0, walks_per_node=1, dim=128, C=1.0,
             reps=1),
    # A thousand random attributes per node at tau=0: the attribute loader and
    # the on-demand walk loop dominate; tables, SGNS and the classifier are
    # small.
    Workload("er-attr-ondemand", None, p=1.0, q=1.0, r=2.0, tau=0, walk_length=20,
             ratios=(0.5,), reps=2, er=(1000, 10.0, 1000, 2)),
)}


def in_child(fn):
    """Return fn() computed in a forked child, so that the memory fn touches
    never counts toward this process's high-water mark. An exception fn
    raises is raised here."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                out = (True, fn())
            except BaseException as exc:  # noqa: BLE001 - handed to the parent
                out = (False, exc)
            with os.fdopen(w, "wb") as f:
                pickle.dump(out, f)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"child ended with status {status} and no result")
    ok, out = pickle.loads(data)
    if not ok:
        raise out
    return out


@dataclass
class Inputs:
    edges: Path
    attrs: Path
    labels: Path
    facts: InputFacts

    @classmethod
    def from_dir(cls, d: Path) -> "Inputs":
        e, a, lab = d / "edges.txt", d / "attrs.txt", d / "labels.txt"
        return cls(e, a, lab, in_child(lambda: InputFacts.parse(e, a, lab)))


class Recorder:
    """Counts operations, adds up the seconds spent inside layer calls and
    keeps the messages of failed checks. An operation whose check rejects
    its output counts as failed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.busy = 0.0

    def op(self, name, call, check=None, count=None):
        """Run one layer call in a span; ``count`` adds measured counts to the
        span, ``check`` raises CheckError on a wrong output."""
        with self.tracer.span(name) as counts:
            t0 = time.perf_counter()
            out = call()
            self.busy += time.perf_counter() - t0
        self.attempted += 1
        if count is not None:
            counts.update(count(out))
        if check is not None:
            try:
                in_child(lambda: check(out))
            except checks.CheckError as exc:
                self.failed += 1
                self.problems.append(f"{name}: {exc}")
        return out


def export_key(ag, v: int) -> str:
    """The embedding key the method gives unified id v: the node's name, or
    a<attribute id> for an attribute node. Written here, not taken from
    ``AugmentedGraph.export_key``, so the checks do not trust the code they
    check."""
    return ag.node_names[v] if v < ag.n_raw else f"a{ag.attr_ids[v - ag.n_raw]}"


def corpus_token(ag, v: int) -> str:
    """The corpus file token of unified id v: the id, or a<attribute id>
    (the documented format, independent of ``Corpus.token``)."""
    return str(v) if v < ag.n_raw else f"a{ag.attr_ids[v - ag.n_raw]}"


def run_round(wl: Workload, inp: Inputs, seed: int, rec: Recorder, scratch: Path) -> dict:
    facts = inp.facts
    bias = Bias(wl.p, wl.q, wl.r)
    wp = WalkParams(p=wl.p, q=wl.q, r=wl.r, strategy=STRATEGY, walk_length=wl.walk_length,
                    walks_per_node=wl.walks_per_node, seed=seed)
    tp = TrainParams(dimension=wl.dim, window=WINDOW, epochs=wl.epochs,
                     learning_rate=wl.lr, seed=seed)
    start = rec.busy
    with rec.tracer.span("setup"):
        g = rec.op("graph.load_edge_list", lambda: load_edge_list(inp.edges),
                   lambda g: checks.edges_loaded(g, facts, wl.known))
        rec.op("graph.load_attributes", lambda: load_attributes(inp.attrs, g),
               lambda g: checks.attributes_loaded(g, facts, wl.known))
        rec.op("graph.load_labels", lambda: load_labels(inp.labels, g),
               lambda g: checks.labels_loaded(g, facts))
        ag = rec.op("graph.build_augmented", lambda: build_augmented(g),
                    lambda ag: checks.augmented(ag, facts),
                    lambda ag: {"directed_edges": len(ag.neighbors)})
        model = rec.op("walks.preprocess_transitions",
                       lambda: preprocess_transitions(ag, wp, tau=wl.tau),
                       lambda m: checks.tables(ag, m, bias, wl.tau),
                       lambda m: {"entries": m.n_precomputed_entries})
    setup_s = rec.busy - start

    starts = np.tile(np.arange(ag.n_total), wl.walks_per_node)

    def check_corpus(c):
        checks.corpus_shape(ag, c.walks, starts, wl.walks_per_node, wl.walk_length)
        checks.sampler(ag, c.walks, bias)

    corpus = rec.op("walks.generate_corpus", lambda: generate_corpus(ag, model), check_corpus,
                    lambda c: {"steps": c.walks.shape[0] * (c.walks.shape[1] - 1),
                               "table_step_share": in_child(
                                   lambda: checks.table_step_share(ag, model, c.walks))})
    walks = corpus.walks
    keys = {export_key(ag, v) for v in np.unique(walks).tolist()}

    def check_training(emb):
        checks.training(emb, keys, wl.dim, wl.epochs, tp.negatives)

    def train_count(emb):
        return {"tokens": walks.size * wl.epochs, "final_loss": emb.epoch_losses[-1]}

    cpath = scratch / "corpus.txt"

    def corpus_io():
        rec.op("walks.corpus_save", lambda: corpus.save(cpath),
               count=lambda _: {"bytes": cpath.stat().st_size})
        return rec.op("walks.corpus_load", lambda: load_corpus_tokens(cpath),
                      lambda mt: checks.corpus_roundtrip(walks, lambda v: corpus_token(ag, v), *mt))

    def embedding_io(emb):
        loaded = []
        for fmt in ("text", "binary"):
            path = scratch / f"emb.{fmt}"
            rec.op(f"sgns.emb_save_{fmt}", lambda: getattr(emb, f"save_{fmt}")(path))
            loaded.append(rec.op(f"sgns.emb_load_{fmt}",
                                 lambda: getattr(EmbeddingMatrix, f"load_{fmt}")(path),
                                 lambda e: checks.embedding_roundtrip(emb, e)))
        return loaded[0]

    if wl.staged:
        matrix, tokens = corpus_io()
        names = {str(v): name for v, name in enumerate(ag.node_names)}
        emb = rec.op("sgns.train",
                     lambda: train(matrix, tp, key_fn=lambda i: names.get(tokens[i], tokens[i])),
                     check_training, train_count)
        features = embedding_io(emb)
    else:
        emb = rec.op("sgns.train", lambda: train(walks, tp, key_fn=ag.export_key),
                     check_training, train_count)
        features = emb

    labeled = [k for k in features.keys if k in facts.labels]
    classes = sorted(set(facts.labels.values()))
    X = features.rows_for(labeled).astype(np.float64)
    y = np.array([classes.index(facts.labels[k]) for k in labeled])
    report = rec.op("evaluate.evaluate_classification",
                    lambda: evaluate_classification(X, y, wl.ratios, C=wl.C,
                                                    repetitions=wl.reps, seed=SPLIT_SEED),
                    lambda rep: checks.classification(rep, y, wl.ratios),
                    lambda rep: {"fits": len(rep.rows)})
    pipeline_s = rec.busy - start
    if not wl.staged:
        corpus_io()
        embedding_io(emb)
    micro, macro = checks.middle_share_f1(report, wl.ratios)
    return {"setup_s": setup_s, "pipeline_s": pipeline_s, "micro_f1": micro, "macro_f1": macro}


def end_to_end(rounds: list[dict]) -> dict:
    return {
        "pipeline_s": (statistics.median(r["pipeline_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "peak_rss_mb": (rss_hwm_mb(), "MB"),
        "micro_f1": (rounds[-1]["micro_f1"], "1"),
        "macro_f1": (rounds[-1]["macro_f1"], "1"),
    }


def per_layer(tracer: Tracer, facts: InputFacts) -> dict:
    """Per-layer metrics from the spans: medians of span seconds over every
    call, rates from the counts recorded at the same boundary, and the
    process high-water mark at the end of each layer's first call."""
    def secs(name):
        return statistics.median(duration(s) for s in tracer.named(name))

    def first(name, key):
        return tracer.named(name)[0]["counts"][key]

    def paired(prefix):
        per_fmt = [[duration(s) for s in tracer.named(prefix + fmt)] for fmt in ("text", "binary")]
        return statistics.median(a + b for a, b in zip(*per_fmt))

    load_s = statistics.median(sum(duration(c) for c in tracer.children(s, "graph.load_"))
                               for s in tracer.named("setup"))
    pre_s, walk_s = secs("walks.preprocess_transitions"), secs("walks.generate_corpus")
    train_s, classify_s = secs("sgns.train"), secs("evaluate.evaluate_classification")
    entries = first("walks.preprocess_transitions", "entries")
    return {
        "graph.load_s": (load_s, "s"),
        "graph.load_lines_per_s": (facts.lines / load_s, "lines/s"),
        "graph.construct_s": (secs("graph.build_augmented"), "s"),
        "graph.directed_edges": (first("graph.build_augmented", "directed_edges"), "count"),
        "walks.preprocess_s": (pre_s, "s"),
        "walks.table_entries": (entries, "count"),
        "walks.table_entries_per_s": (entries / pre_s, "entries/s"),
        "walks.walk_s": (walk_s, "s"),
        "walks.steps_per_s": (first("walks.generate_corpus", "steps") / walk_s, "steps/s"),
        "walks.table_step_share": (first("walks.generate_corpus", "table_step_share"), "1"),
        "walks.corpus_save_s": (secs("walks.corpus_save"), "s"),
        "walks.corpus_load_s": (secs("walks.corpus_load"), "s"),
        "walks.corpus_mb": (first("walks.corpus_save", "bytes") / MB, "MB"),
        "sgns.train_s": (train_s, "s"),
        "sgns.tokens_per_s": (first("sgns.train", "tokens") / train_s, "tokens/s"),
        "sgns.final_loss": (first("sgns.train", "final_loss"), "1"),
        "sgns.emb_save_s": (paired("sgns.emb_save_"), "s"),
        "sgns.emb_load_s": (paired("sgns.emb_load_"), "s"),
        "evaluate.classify_s": (classify_s, "s"),
        "evaluate.fits_per_s": (first("evaluate.evaluate_classification", "fits") / classify_s,
                                "fits/s"),
        "graph.rss_hwm_mb": (first("graph.build_augmented", "rss_hwm_mb"), "MB"),
        "walks.rss_hwm_mb": (first("walks.generate_corpus", "rss_hwm_mb"), "MB"),
        "sgns.rss_hwm_mb": (first("sgns.train", "rss_hwm_mb"), "MB"),
        "evaluate.rss_hwm_mb": (first("evaluate.evaluate_classification", "rss_hwm_mb"), "MB"),
    }
