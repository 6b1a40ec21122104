"""Input files for the benchmark's workloads.

Run as a script, it writes one workload's input directory (edges.txt,
attrs.txt, labels.txt) and exits, so that generating inputs never counts
toward the peak memory of the process that runs the workload:

    python3 perfbench/inputs.py er <out_dir> <seed> <nodes> <degree> <attrs_per_node> <classes>
    python3 perfbench/inputs.py dataset <out_root> <name>
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def write_pairs(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(f"{x} {y}\n" for x, y in zip(a.tolist(), b.tolist())))


def make_er(out: Path, seed: int, nodes: int, degree: float, attrs_per_node: int,
            classes: int) -> None:
    """Erdos-Renyi raw graph with ``attrs_per_node`` random attributes per
    node and planted classes.

    Every node draws its attributes uniformly from a window of
    2*attrs_per_node ids; the window of class c starts at c*attrs_per_node,
    so neighbouring classes share half their attribute ids and the label is
    visible only through the virtual attribute nodes.
    """
    from fane.bench import attach_random_attributes, erdos_renyi

    g = erdos_renyi(nodes, degree, seed)
    g = attach_random_attributes(g, attrs_per_node, 2 * attrs_per_node, seed + 1)
    labels = np.random.default_rng((seed, 2)).integers(classes, size=nodes)
    attr_id = g.attr_id.astype(np.int64) + attrs_per_node * labels[g.attr_node]
    out.mkdir(parents=True, exist_ok=True)
    write_pairs(out / "edges.txt", g.edge_src, g.edge_dst)
    write_pairs(out / "attrs.txt", g.attr_node, attr_id)
    write_pairs(out / "labels.txt", np.arange(nodes), labels)


def main(argv: list[str]) -> None:
    kind, out = argv[0], Path(argv[1])
    if kind == "er":
        seed, nodes, degree, per_node, classes = argv[2:7]
        make_er(out, int(seed), int(nodes), float(degree), int(per_node), int(classes))
    elif kind == "dataset":
        from fane.datasets import ensure_dataset
        ensure_dataset(argv[2], out)
    else:
        raise SystemExit(f"unknown input kind {kind!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
