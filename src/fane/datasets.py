"""Named benchmark fixtures in the package's loader formats.

The real citation/word networks usually used with this kind of pipeline
cannot be redistributed here, so ``synthesize`` writes deterministic
stand-ins matching each dataset's well-known statistics (node, edge,
attribute, and class counts) with planted community structure and
class-correlated attributes, calibrated so that structure-only and
attribute-augmented embeddings land near the accuracy levels reported for
the originals. Dropping the real files into the same directory layout
(edges.txt / attrs.txt / labels.txt) makes every consumer use them instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import AttributedGraph


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    n_nodes: int
    n_edges: int
    n_attrs: int
    class_sizes: tuple             # nodes per class (adjnoun: per word class)
    intra_fraction: float          # fraction of edges inside a class
    words_per_node: float          # mean attribute count per node (Poisson)
    min_words: int
    noise_share: float             # fraction of the vocabulary shared by all classes
    word_noise_prob: float         # chance a word is drawn from the shared vocabulary
    word_confusion_prob: float     # chance a class word comes from a random class
    seed: int
    subcommunities: int = 1        # tight sub-blocks per class (topics)
    label_noise: float = 0.0       # fraction of recorded labels flipped


SPECS = {
    "cora": DatasetSpec(
        name="cora", n_nodes=2708, n_edges=5278, n_attrs=1433,
        class_sizes=(818, 426, 418, 351, 298, 217, 180),
        intra_fraction=0.73, words_per_node=20.0, min_words=3,
        noise_share=0.10, word_noise_prob=0.20, word_confusion_prob=0.20,
        seed=0xC05A, subcommunities=3, label_noise=0.11,
    ),
    "citeseer": DatasetSpec(
        name="citeseer", n_nodes=3312, n_edges=4732, n_attrs=3703,
        class_sizes=(701, 668, 596, 590, 508, 249),
        intra_fraction=0.70, words_per_node=32.0, min_words=4,
        noise_share=0.20, word_noise_prob=0.30, word_confusion_prob=0.30,
        seed=0xC17E, subcommunities=3, label_noise=0.10,
    ),
    "webkb": DatasetSpec(
        name="webkb", n_nodes=877, n_edges=1608, n_attrs=1703,
        class_sizes=(396, 202, 105, 96, 78),
        intra_fraction=0.32, words_per_node=25.0, min_words=3,
        noise_share=0.20, word_noise_prob=0.25, word_confusion_prob=0.30,
        seed=0x3EB, subcommunities=2, label_noise=0.10,
    ),
    "adjnoun": DatasetSpec(
        name="adjnoun", n_nodes=112, n_edges=425, n_attrs=2,
        class_sizes=(58, 54),
        intra_fraction=0.45, words_per_node=1.0, min_words=1,
        noise_share=0.0, word_noise_prob=0.0, word_confusion_prob=0.0,
        seed=0xAD7,
    ),
}

# adjnoun carries no ground-truth label column; its two attributes are the
# word classes themselves
_UNLABELED = ("adjnoun",)
# share of intra-class edges that land inside the node's sub-block
_SUB_LOYALTY = 0.85


def _subcommunity_of(spec: DatasetSpec, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random sub-block id per node within its class."""
    sub = np.zeros(spec.n_nodes, np.int64)
    for c in range(len(spec.class_sizes)):
        members = np.nonzero(labels == c)[0]
        sub[members] = rng.integers(spec.subcommunities, size=len(members))
    return sub


def _planted_edges(spec: DatasetSpec, labels: np.ndarray, sub: np.ndarray,
                   rng: np.random.Generator) -> set:
    """Exactly n_edges distinct undirected pairs with the target intra fraction.

    Intra-class edges mostly stay within the node's sub-block, which gives
    classes a multi-cluster shape instead of one blob.
    """
    n = spec.n_nodes
    sizes = np.array([np.sum(labels == c) for c in range(len(spec.class_sizes))])
    class_prob = sizes / sizes.sum()
    members = [np.nonzero(labels == c)[0] for c in range(len(sizes))]
    block = {}
    for c in range(len(sizes)):
        for s in range(spec.subcommunities):
            block[(c, s)] = members[c][sub[members[c]] == s]
    edges: set[tuple[int, int]] = set()
    while len(edges) < spec.n_edges:
        want = spec.n_edges - len(edges)
        take = max(64, int(want * 1.3))
        intra = rng.random(take) < spec.intra_fraction
        loyal = rng.random(take) < _SUB_LOYALTY
        cls = rng.choice(len(sizes), size=take, p=class_prob)
        for i in range(take):
            if intra[i]:
                group = members[cls[i]]
                if spec.subcommunities > 1 and loyal[i]:
                    cand = block[(cls[i], int(rng.integers(spec.subcommunities)))]
                    if len(cand) >= 2:
                        group = cand
                a, b = rng.choice(len(group), 2, replace=False)
                u, v = int(group[a]), int(group[b])
            else:
                u = int(rng.integers(n))
                v = int(rng.integers(n))
                if labels[u] == labels[v]:
                    continue
            if u == v:
                continue
            edges.add((u, v) if u < v else (v, u))
            if len(edges) >= spec.n_edges:
                break
    # every node needs a neighbor (loaders only see nodes on edges)
    deg = np.zeros(n, np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for v in np.nonzero(deg == 0)[0]:
        v = int(v)
        while True:
            group = members[labels[v]] if rng.random() < spec.intra_fraction else np.arange(n)
            u = int(group[rng.integers(len(group))])
            key = (u, v) if u < v else (v, u)
            if u != v and key not in edges:
                edges.add(key)
                deg[u] += 1
                deg[v] += 1
                break
    while len(edges) > spec.n_edges:
        candidates = [e for e in sorted(edges) if deg[e[0]] > 1 and deg[e[1]] > 1]
        drop = candidates[rng.integers(len(candidates))]
        edges.remove(drop)
        deg[drop[0]] -= 1
        deg[drop[1]] -= 1
    return edges


def _planted_attributes(spec: DatasetSpec, labels: np.ndarray, sub: np.ndarray,
                        rng: np.random.Generator):
    """(node, attr) pairs: per-sub-block vocabularies plus shared noise words."""
    k = len(spec.class_sizes)
    n_noise = int(round(spec.noise_share * spec.n_attrs))
    n_class_words = spec.n_attrs - n_noise
    bounds = np.linspace(0, n_class_words, k + 1).astype(int)
    class_vocab = [np.arange(bounds[i], bounds[i + 1]) for i in range(k)]
    sub_vocab = {}
    for c in range(k):
        cuts = np.linspace(0, len(class_vocab[c]), spec.subcommunities + 1).astype(int)
        for s in range(spec.subcommunities):
            sub_vocab[(c, s)] = class_vocab[c][cuts[s]:cuts[s + 1]]
    noise_vocab = np.arange(n_class_words, spec.n_attrs)
    # per-node mixing toward the next class on the ring: nodes sit on a
    # continuum between class vocabularies, so decision boundaries must be
    # estimated, not just cluster identities memorized; small classes blend
    # harder, which is where training-set size bites
    sizes = np.asarray(spec.class_sizes, np.float64)
    class_weight = np.sqrt(sizes.mean() / sizes)
    mix = rng.uniform(0.0, 2.0 * spec.word_confusion_prob, size=spec.n_nodes)
    mix = np.minimum(mix * class_weight[labels], 1.0)
    pairs: set[tuple[int, int]] = set()
    for v in range(spec.n_nodes):
        count = max(spec.min_words, int(rng.poisson(spec.words_per_node)))
        for _ in range(count):
            if len(noise_vocab) and rng.random() < spec.word_noise_prob:
                a = int(noise_vocab[rng.integers(len(noise_vocab))])
            else:
                if rng.random() < mix[v]:
                    vocab = class_vocab[(labels[v] + 1) % k]
                else:
                    vocab = sub_vocab[(labels[v], sub[v])]
                    if len(vocab) == 0:
                        vocab = class_vocab[labels[v]]
                a = int(vocab[rng.integers(len(vocab))])
            pairs.add((v, a))
    used = {a for _, a in pairs}
    _fill_unused(spec, labels, bounds, n_class_words, used, pairs, rng)
    return pairs


def _fill_unused(spec, labels, bounds, n_class_words, used, pairs, rng):
    """Add to ``pairs`` one random node for each attribute that no node drew."""
    for a in range(spec.n_attrs):
        if a in used:
            continue
        if a < n_class_words:
            c = int(np.searchsorted(bounds, a, side="right") - 1)
            group = np.nonzero(labels == c)[0]
            v = int(group[rng.integers(len(group))])
        else:
            v = int(rng.integers(spec.n_nodes))
        pairs.add((v, a))


def synthesize(name: str, out_dir) -> Path:
    """Write edges.txt / attrs.txt (/ labels.txt) for one named dataset."""
    if name not in SPECS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(SPECS)}")
    spec = SPECS[name]
    rng = np.random.default_rng(spec.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    k = len(spec.class_sizes)
    labels = np.repeat(np.arange(k), spec.class_sizes)
    labels = labels[rng.permutation(spec.n_nodes)]
    sub = _subcommunity_of(spec, labels, rng)

    edges = _planted_edges(spec, labels, sub, rng)
    if name == "adjnoun":
        # two word classes; the attribute *is* the class
        pairs = {(v, int(labels[v])) for v in range(spec.n_nodes)}
    else:
        pairs = _planted_attributes(spec, labels, sub, rng)

    with open(out / "edges.txt", "w", encoding="utf-8") as f:
        for u, v in sorted(edges):
            f.write(f"{u} {v}\n")
    with open(out / "attrs.txt", "w", encoding="utf-8") as f:
        for v, a in sorted(pairs):
            f.write(f"{v} {a}\n")
    if name not in _UNLABELED:
        recorded = labels.copy()
        if spec.label_noise > 0:
            flip = np.nonzero(rng.random(spec.n_nodes) < spec.label_noise)[0]
            recorded[flip] = (recorded[flip] + 1 + rng.integers(k - 1, size=len(flip))) % k
        with open(out / "labels.txt", "w", encoding="utf-8") as f:
            for v in range(spec.n_nodes):
                f.write(f"{v} {recorded[v]}\n")
    return out


# a dataset directory is a bundle: edges.txt, optional attrs.txt / labels.txt
load_dir = AttributedGraph.load_dir


def ensure_dataset(name: str, root) -> Path:
    """Synthesize the named dataset under root/<name> unless already present."""
    target = Path(root) / name
    if not (target / "edges.txt").exists():
        synthesize(name, target)
    return target
