import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fane import build_augmented, stats
from fane.datasets import SPECS, load_dir

EXPECTED = {
    "cora": (2708, 5278, 1433, 7),
    "webkb": (877, 1608, 1703, 5),
    "citeseer": (3312, 4732, 3703, 6),
    "adjnoun": (112, 425, 2, 0),
}


def test_surrogates_match_reference_statistics(data_root):
    for name, (n, e, m, k) in EXPECTED.items():
        g = load_dir(data_root / name)
        assert g.n_nodes == n, name
        assert g.n_edges == e, name
        assert g.n_attrs == m, name
        assert len(set(g.labels.values())) == (k if k else 0), name


def test_surrogate_augmented_invariants(data_root):
    for name in EXPECTED:
        g = load_dir(data_root / name)
        ag = build_augmented(g)
        s = stats(ag)
        assert s["n_total_edges"] == g.n_edges + g.nnz_attributes, name
        assert s["n_attr_nodes"] <= g.n_attrs, name
        # every attribute occurs at least once by construction
        assert s["n_attr_nodes"] == g.n_attrs, name
        assert s["n_total_nodes"] == g.n_nodes + g.n_attrs, name


def test_synthesis_is_deterministic(tmp_path, data_root):
    """The shipped stand-ins are, byte for byte, what synthesize writes."""
    from fane.datasets import synthesize
    for name in EXPECTED:
        out = synthesize(name, tmp_path / name)
        files = sorted(f.name for f in out.iterdir())
        assert files == sorted(f.name for f in (data_root / name).iterdir()), name
        for fn in files:
            assert (out / fn).read_bytes() == (data_root / name / fn).read_bytes(), (name, fn)


def test_adjnoun_one_attribute_per_node(data_root):
    g = load_dir(data_root / "adjnoun")
    assert g.nnz_attributes == g.n_nodes
    per_node = np.bincount(g.attr_node, minlength=g.n_nodes)
    assert np.all(per_node == 1)
    sizes = np.bincount(g.attr_id, minlength=2)
    assert sorted(sizes.tolist()) == sorted(s for s in SPECS["adjnoun"].class_sizes)


def test_make_datasets_script_runs_from_a_checkout(tmp_path):
    """The script finds src/ on its own, as pytest and perfbench do."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_datasets.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    for name in SPECS:
        assert (tmp_path / name / "edges.txt").stat().st_size > 0, name
