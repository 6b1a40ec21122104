import re
import weakref

import pytest

from fane import cli
from fane.cli import main, load_config, _parse_ratios, _parse_series

EDGES = "0 1\n1 2\n2 3\n3 0\n0 2\n"
ATTRS = "0 0\n1 0\n2 1\n3 1\n"
LABELS = "0 x\n1 x\n2 y\n3 y\n"


@pytest.fixture
def dataset(tmp_path):
    (tmp_path / "edges.txt").write_text(EDGES)
    (tmp_path / "attrs.txt").write_text(ATTRS)
    (tmp_path / "labels.txt").write_text(LABELS)
    return tmp_path


def test_parse_ratios():
    assert _parse_ratios("0.1:0.9:0.1") == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    assert _parse_ratios("0.5") == [0.5]
    assert _parse_ratios("0.25,0.75") == [0.25, 0.75]
    assert _parse_ratios("0.5:0.5:0.1") == [0.5]


@pytest.mark.parametrize("ratios", ["0.1:0.9:0", "0.5:0.1:-0.1", "0.1:0.9:-0.1", "0.9:0.1:0.1"])
def test_ratio_range_must_step_up(ratios, tmp_path, capsys):
    """A step of 0 never ends and a stop below the start gives no ratio: exit 2."""
    with pytest.raises(ValueError, match=f"ratios '{ratios}'"):
        _parse_ratios(ratios)
    emb = tmp_path / "emb.txt"
    emb.write_text("2 1\n0 0.5\n1 -0.5\n")
    (tmp_path / "labels.txt").write_text("0 x\n1 y\n")
    out = tmp_path / "report.csv"
    assert main(["eval", "--embeddings", str(emb), "--labels", str(tmp_path / "labels.txt"),
                 f"--ratios={ratios}", "--out", str(out)]) == 2
    assert f"ratios '{ratios}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ratios, message", [
    ("0.1,x", "ratios '0.1,x': 'x' is not a number"),
    ("0.1:x:0.1", "ratios '0.1:x:0.1': 'x' is not a number"),
    ("0.5,1.5", "ratios '0.5,1.5': 1.5 is not in (0, 1)"),
    ("0,0.5", "ratios '0,0.5': 0 is not in (0, 1)"),
    ("0.5:1.5:0.5", "ratios '0.5:1.5:0.5': 1 is not in (0, 1)"),
    ("nan", "ratios 'nan': nan is not in (0, 1)"),
], ids=["word", "word-in-range", "above-one", "zero", "range-reaches-one", "nan"])
def test_ratio_items_must_be_numbers_in_the_unit_interval(ratios, message, tmp_path, capsys):
    """eval and run name the value and the bad item, and exit 2 before any work."""
    with pytest.raises(ValueError, match=re.escape(message)):
        _parse_ratios(ratios)
    emb = tmp_path / "emb.txt"
    emb.write_text("2 1\n0 0.5\n1 -0.5\n")
    (tmp_path / "labels.txt").write_text("0 x\n1 y\n")
    out = tmp_path / "report.csv"
    assert main(["eval", "--embeddings", str(emb), "--labels", str(tmp_path / "labels.txt"),
                 f"--ratios={ratios}", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--edges", str(tmp_path / "missing.txt"), f"--ratios={ratios}",
                 "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("series, message", [
    ("10,x", "series '10,x': 'x' is not an integer"),
    ("1:x", "series '1:x': 'x' is not an integer"),
    ("1e3", "series '1e3': '1e3' is not an integer"),
], ids=["word", "word-in-range", "exponent"])
def test_series_items_must_be_integers(series, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=re.escape(message)):
        _parse_series(series)
    assert main(["bench", f"--nodes={series}", "--out", str(tmp_path / "b.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_parse_series():
    assert _parse_series("100:100000") == [100, 1000, 10000, 100000]
    assert _parse_series("5,7,9") == [5, 7, 9]
    assert _parse_series("42") == [42]
    with pytest.raises(ValueError, match="series '1:10:100': a range must be A:B"):
        _parse_series("1:10:100")


@pytest.mark.parametrize("series", ["0:10", "-3:10", "10:5", "1:10:100"])
def test_bench_series_range_must_grow_from_one(series, tmp_path, capsys):
    """A start below 1 never reaches the end by decades, and a range has two
    ends; exit 2 before any work, naming the value."""
    with pytest.raises(ValueError, match=f"series '{series}'"):
        _parse_series(series)
    assert main(["bench", f"--nodes={series}", "--out", str(tmp_path / "b.csv")]) == 2
    assert f"series '{series}'" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_build_walk_embed_eval_viz_chain(dataset, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    rc = main(["build", "--edges", str(dataset / "edges.txt"),
               "--attrs", str(dataset / "attrs.txt"),
               "--labels", str(dataset / "labels.txt"),
               "--out", str(bundle), "--dump"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_virtual_edges=4" in out
    assert (bundle / "augmented.txt").exists()

    corpus = tmp_path / "corpus.txt"
    rc = main(["walk", "--graph", str(bundle), "--out", str(corpus),
               "--r", "0.5", "--walk-length", "10", "--walks-per-node", "3",
               "--seed", "5"])
    assert rc == 0
    lines = corpus.read_text().splitlines()
    assert len(lines) == 3 * 6   # 4 raw + 2 attribute nodes
    assert any("a0" in ln or "a1" in ln for ln in lines)

    emb_path = tmp_path / "emb.txt"
    rc = main(["embed", "--corpus", str(corpus), "--out", str(emb_path),
               "--dim", "4", "--window", "2", "--epochs", "2", "--seed", "5",
               "--nodemap", str(bundle / "nodemap.txt")])
    assert rc == 0
    header = emb_path.read_text().splitlines()[0]
    assert header == "6 4"

    report = tmp_path / "report.csv"
    rc = main(["eval", "--embeddings", str(emb_path),
               "--labels", str(dataset / "labels.txt"),
               "--ratios", "0.5", "--C", "1.0", "--reps", "3",
               "--out", str(report)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "ratio,rep,C,d,micro_f1,macro_f1"
    assert len(lines) == 1 + 3
    # every row carries --C and the embedding's dimension
    assert all(line.split(",")[2:4] == ["1.0", "4"] for line in lines[1:])

    rc = main(["viz", "--embeddings", str(emb_path),
               "--color-by", "attribute", "--attrs", str(dataset / "attrs.txt"),
               "--out-prefix", str(tmp_path / "scatter")])
    assert rc == 0
    assert (tmp_path / "scatter.csv").exists()
    assert (tmp_path / "scatter.svg").read_text().startswith("<svg")

    rc = main(["viz", "--embeddings", str(emb_path), "--color-by", "cluster", "--k", "2",
               "--out-prefix", str(tmp_path / "clusters")])
    assert rc == 0
    rows = (tmp_path / "clusters.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and {row.split(",")[-1] for row in rows} <= {"c0", "c1"}


def test_staged_chain_keys_each_token_to_its_node(tmp_path):
    """`walk` keeps the ids `build` gave, which the bundle's nodemap lists in
    id order, though the bundle's edge lines name the nodes in another order
    here. Every step of the corpus then maps to an input edge. The `--dump`
    file names nodes, not ids."""
    (tmp_path / "edges.txt").write_text("n0 n1\nn2 n3\nn1 n3\n")
    edges = {frozenset(e) for e in (("n0", "n1"), ("n2", "n3"), ("n1", "n3"))}
    bundle, corpus, emb = tmp_path / "bundle", tmp_path / "corpus.txt", tmp_path / "emb.txt"
    assert main(["build", "--edges", str(tmp_path / "edges.txt"), "--out", str(bundle), "--dump"]) == 0
    assert main(["walk", "--graph", str(bundle), "--out", str(corpus), "--walk-length", "10",
                 "--walks-per-node", "5", "--seed", "1"]) == 0
    assert main(["embed", "--corpus", str(corpus), "--out", str(emb), "--dim", "2", "--window", "1",
                 "--epochs", "1", "--nodemap", str(bundle / "nodemap.txt")]) == 0
    names = dict(line.split() for line in (bundle / "nodemap.txt").read_text().splitlines())
    walks = [[names[t] for t in line.split()] for line in corpus.read_text().splitlines()]
    assert all(frozenset(step) in edges for walk in walks for step in zip(walk, walk[1:]))
    keys = sorted(line.split()[0] for line in emb.read_text().splitlines()[1:])
    assert keys == ["n0", "n1", "n2", "n3"]
    for line in (bundle / "augmented.txt").read_text().splitlines():
        kind, name, _, *nbrs = line.split()
        assert kind == "raw" and all(frozenset((name, x.split("(")[0])) in edges for x in nbrs)


@pytest.mark.parametrize("name", ["webkb", "adjnoun"])
def test_staged_chain_writes_what_run_writes(name, data_root, tmp_path):
    """build -> walk -> embed -> eval and `run --save-corpus` number nodes,
    embedding rows and labelled rows one way, so with the same settings
    they write the same corpus, embeddings and report, byte for byte."""
    d = data_root / name
    labels = ["--labels", str(d / "labels.txt")] if (d / "labels.txt").exists() else []
    walk = ["--p", "1", "--q", "0.5", "--r", "2", "--walk-length", "10", "--walks-per-node", "1",
            "--seed", "1"]
    embed = ["--dim", "8", "--window", "3", "--epochs", "1", "--lr", "0.2", "--seed", "1"]
    evaluate = ["--ratios", "0.5", "--reps", "2", "--C", "1", "--seed", "1"]
    bundle, corpus, emb = tmp_path / "bundle", tmp_path / "corpus.txt", tmp_path / "embeddings.txt"
    assert main(["build", "--edges", str(d / "edges.txt"), "--attrs", str(d / "attrs.txt"),
                 "--out", str(bundle)]) == 0
    assert main(["walk", "--graph", str(bundle), *walk, "--out", str(corpus)]) == 0
    assert main(["embed", "--corpus", str(corpus), "--nodemap", str(bundle / "nodemap.txt"), *embed,
                 "--out", str(emb)]) == 0
    files = ["corpus.txt", "embeddings.txt"]
    if labels:
        assert main(["eval", "--embeddings", str(emb), *labels, *evaluate,
                     "--out", str(tmp_path / "report.csv")]) == 0
        files.append("report.csv")
    run = tmp_path / "run"
    assert main(["run", "--edges", str(d / "edges.txt"), "--attrs", str(d / "attrs.txt"), *labels,
                 *walk, *embed, *evaluate, "--save-corpus", "--out", str(run)]) == 0
    for f in files:
        assert (tmp_path / f).read_bytes() == (run / f).read_bytes(), f


@pytest.mark.parametrize("nodemap,message", [
    ("0 n0\n1 n0\n2 n2\n", "nodemap line 2: name 'n0' repeats line 1"),
    ("0 n0\n0 n1\n2 n2\n", "nodemap line 2: id '0' repeats line 1"),
    ("0 n0\n# n1\n2 n1\n1 n2\n", "nodemap line 3: id '2', expected 1"),
    ("0 n0\n1 n1\n", "edge list line 2: node 'n2' is not in nodemap.txt"),
    ("0 n0\n1 n1\n2 n2\n3 n3\n", "nodemap line 4: node 'n3' is on no edge line"),
], ids=["name-repeats", "id-repeats", "ids-out-of-line-order", "node-left-out", "node-on-no-edge"])
def test_walk_rejects_a_bundle_nodemap_that_does_not_fit(nodemap, message, tmp_path, capsys):
    """The bundle's nodemap fixes the ids `walk` uses: it must name each node
    of the edge lines once, with ids 0, 1, ... in line order, or `walk`
    exits 2 naming the line."""
    (tmp_path / "edges.txt").write_text("n0 n1\nn1 n2\n")
    bundle, corpus = tmp_path / "bundle", tmp_path / "corpus.txt"
    assert main(["build", "--edges", str(tmp_path / "edges.txt"), "--out", str(bundle)]) == 0
    (bundle / "nodemap.txt").write_text(nodemap)
    assert main(["walk", "--graph", str(bundle), "--walk-length", "4", "--walks-per-node", "1",
                 "--out", str(corpus)]) == 2
    assert message in capsys.readouterr().err
    assert not corpus.exists()


def test_run_pipeline_and_manifest_round_trip(dataset, tmp_path):
    out1 = tmp_path / "run1"
    args = ["run", "--edges", str(dataset / "edges.txt"),
            "--attrs", str(dataset / "attrs.txt"),
            "--labels", str(dataset / "labels.txt"),
            "--walk-length", "8", "--walks-per-node", "2", "--dim", "4",
            "--window", "2", "--epochs", "1", "--ratios", "0.5", "--reps", "2",
            "--seed", "3", "--save-corpus", "--out", str(out1)]
    assert main(args) == 0
    for name in ("manifest.txt", "stats.txt", "corpus.txt", "embeddings.txt",
                 "report.csv"):
        assert (out1 / name).exists(), name

    # rerun purely from the manifest: deterministic outputs byte-identical
    out2 = tmp_path / "run2"
    rc = main(["run", "--config", str(out1 / "manifest.txt"), "--out", str(out2)])
    assert rc == 0
    for name in ("stats.txt", "corpus.txt", "embeddings.txt", "report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_frees_the_sampler_before_training(dataset, tmp_path, monkeypatch):
    refs, dead_at_train = [], []
    preprocess, train = cli.preprocess_transitions, cli.train

    def tracked_preprocess(*args, **kwargs):
        model = preprocess(*args, **kwargs)
        refs.append(weakref.ref(model))
        return model

    def checked_train(*args, **kwargs):
        dead_at_train.append(refs[0]() is None)
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "preprocess_transitions", tracked_preprocess)
    monkeypatch.setattr(cli, "train", checked_train)
    assert main(["run", "--edges", str(dataset / "edges.txt"), "--attrs", str(dataset / "attrs.txt"),
                 "--walk-length", "8", "--walks-per-node", "2", "--dim", "4", "--window", "2",
                 "--epochs", "1", "--seed", "3", "--out", str(tmp_path / "run")]) == 0
    assert dead_at_train == [True]


def test_dry_run_writes_manifest_only(dataset, tmp_path):
    out = tmp_path / "dry"
    rc = main(["run", "--edges", str(dataset / "edges.txt"), "--dry-run",
               "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.txt").exists()
    assert not (out / "embeddings.txt").exists()


def test_config_layering_flag_overrides_file(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("walk_length=6\nwalks_per_node=2\nseed=4\n")
    bundle = tmp_path / "bundle"
    main(["build", "--edges", str(dataset / "edges.txt"), "--out", str(bundle)])
    corpus = tmp_path / "c.txt"
    rc = main(["walk", "--config", str(cfg), "--graph", str(bundle),
               "--out", str(corpus), "--walks-per-node", "3"])
    assert rc == 0
    lines = corpus.read_text().splitlines()
    assert len(lines) == 3 * 4          # flag wins over config
    assert len(lines[0].split()) == 6   # config value used


def test_unknown_config_key_is_error(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("nonsense=1\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(cfg)


@pytest.mark.parametrize("line, message", [
    ("walk_length=abc", "walk_length: invalid literal for int()"),
    ("p=fast", "p: could not convert string to float"),
    ("save_corpus=maybe", "save_corpus: not a boolean: 'maybe'"),
])
def test_config_type_error_names_line_and_key(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.txt"
    cfg.write_text(f"# walk settings\nq=0.5\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"config line 3: {message}")):
        load_config(cfg)
    assert main(["walk", "--config", str(cfg), "--graph", str(tmp_path), "--out", str(tmp_path / "c")]) == 2
    assert f"config line 3: {message}" in capsys.readouterr().err


def test_validation_exit_code(tmp_path, capsys):
    rc = main(["build", "--edges", str(tmp_path / "missing.txt"),
               "--out", str(tmp_path / "b")])
    assert rc == 2
    # a directory where a file belongs is an input error too, not a crash
    # (an unreadable file would be one as well, but root reads every file)
    (tmp_path / "labels.txt").write_text("0 x\n1 y\n")
    for argv in (["build", "--edges", str(tmp_path), "--out", str(tmp_path / "b")],
                 ["embed", "--corpus", str(tmp_path), "--out", str(tmp_path / "e.txt")],
                 ["eval", "--embeddings", str(tmp_path), "--labels", str(tmp_path / "labels.txt"),
                  "--out", str(tmp_path / "r.csv")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
    # a byte that is not UTF-8 is named with its line, in every text input
    (tmp_path / "edges.txt").write_bytes(b"0 1\n1 2\n2 \xff\n")
    (tmp_path / "corpus.txt").write_bytes(b"0 1 2\n\n1 2 \xff0\n")
    (tmp_path / "emb.txt").write_bytes(b"2 1\n0 0.5\n\xff1 -0.5\n")
    for argv, message in (
            (["build", "--edges", str(tmp_path / "edges.txt"), "--out", str(tmp_path / "b")],
             "edge list line 3: not valid UTF-8"),
            (["embed", "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "e.txt")],
             "corpus line 3: not valid UTF-8"),
            (["eval", "--embeddings", str(tmp_path / "emb.txt"), "--labels", str(tmp_path / "labels.txt"),
              "--out", str(tmp_path / "r.csv")], "embedding file line 3: not valid UTF-8")):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_stage_failure_exit_code_and_partial_artifacts(dataset, tmp_path):
    # unknown node in the labels file fails the build stage inside `run`
    (dataset / "labels.txt").write_text("99 x\n")
    out = tmp_path / "fail"
    rc = main(["run", "--edges", str(dataset / "edges.txt"),
               "--labels", str(dataset / "labels.txt"),
               "--walk-length", "5", "--walks-per-node", "1",
               "--dim", "2", "--window", "2", "--epochs", "1",
               "--out", str(out)])
    assert rc == 3
    assert (out / "manifest.txt").exists()
    assert not (out / "embeddings.txt").exists()


def test_fane_seed_env_default(dataset, tmp_path, monkeypatch):
    bundle = tmp_path / "bundle"
    main(["build", "--edges", str(dataset / "edges.txt"), "--out", str(bundle)])
    c1 = tmp_path / "c1.txt"
    c2 = tmp_path / "c2.txt"
    c3 = tmp_path / "c3.txt"
    monkeypatch.setenv("FANE_SEED", "123")
    main(["walk", "--graph", str(bundle), "--out", str(c1),
          "--walk-length", "8", "--walks-per-node", "2"])
    monkeypatch.setenv("FANE_SEED", "124")
    main(["walk", "--graph", str(bundle), "--out", str(c2),
          "--walk-length", "8", "--walks-per-node", "2"])
    monkeypatch.setenv("FANE_SEED", "123")
    main(["walk", "--graph", str(bundle), "--out", str(c3),
          "--walk-length", "8", "--walks-per-node", "2"])
    assert c1.read_bytes() == c3.read_bytes()
    assert c1.read_bytes() != c2.read_bytes()


def test_fane_seed_must_be_an_integer(dataset, tmp_path, monkeypatch, capsys):
    """Every command evaluates the default seed, so even build, which takes no
    seed, names the variable."""
    monkeypatch.setenv("FANE_SEED", "1.5")
    assert main(["build", "--edges", str(dataset / "edges.txt"), "--out", str(tmp_path / "bundle")]) == 2
    assert "error: FANE_SEED must be an integer, got '1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message, command, source", [
    ("--dim", "0", "dimension must be >= 1", "embed", "--corpus"),
    ("--p", "0", "p, q, r must all be positive", "walk", "--graph"),
    ("--tau", "-1", "tau must be >= 0", "walk", "--graph"),
    ("--C", "0", "C must be positive", "eval", "--embeddings"),
    ("--reps", "0", "repetitions must be >= 1", "eval", "--embeddings"),
], ids=["dim", "p", "tau", "C", "reps"])
def test_bad_settings_exit_2_before_any_stage(dataset, tmp_path, capsys, flag, value, message, command, source):
    """run checks every setting before the build stage, and each staged
    command checks its own before it reads its input."""
    out = tmp_path / "run"
    assert main(["run", "--edges", str(dataset / "edges.txt"), "--attrs", str(dataset / "attrs.txt"),
                 "--labels", str(dataset / "labels.txt"), flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "stats.txt").exists()
    assert main([command, source, str(tmp_path / "missing"), flag, value,
                 "--out", str(tmp_path / "staged")]) == 2
    assert message in capsys.readouterr().err


# a `fane run` manifest as written before TrainParams lost `deterministic` and
# `workers`, and before the attribute format, attribute-edge weights, raw-graph
# beta and raw-only starts were deleted
OLD_MANIFEST = """# fane-version=0.1.0
# numpy-version=2.4.6
# python=3.11.7
C=1.0
attr_format=sparse
attr_weight=value
beta_graph=augmented
deterministic=true
dim=4
edges={edges}
epochs=1
log_level=info
lr=0.025
negatives=5
out={out}
p=1.0
q=1.0
r=1.0
ratios=0.5
raw_starts_only=false
reps=2
save_corpus=false
seed=3
strategy=tf
tau=1024
uniform_weight=1.0
walk_length=8
walks_per_node=2
window=2
workers=1
"""


RETIRED = ("attr_format=sparse", "attr_weight=value", "beta_graph=augmented", "deterministic=true",
           "raw_starts_only=false", "uniform_weight=1.0", "workers=1")


def test_manifest_with_deterministic_key_exits_2(dataset, tmp_path, capsys):
    """A manifest that still sets a retired key does not replay: it names
    the line and the key. With all seven lines deleted it replays."""
    manifest = tmp_path / "manifest.txt"
    text = OLD_MANIFEST.format(edges=dataset / "edges.txt", out=tmp_path / "run")
    for setting in RETIRED:
        line = text.splitlines().index(setting) + 1
        manifest.write_text(text)
        assert main(["run", "--config", str(manifest)]) == 2
        key = setting.split("=")[0]
        assert f"config line {line}: unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        text = text.replace(setting + "\n", "")
    manifest.write_text(text)
    assert main(["run", "--config", str(manifest)]) == 0
    assert (tmp_path / "run" / "embeddings.txt").exists()


@pytest.mark.parametrize("argv", [["walk", "--graph", "bundle"], ["bench", "--nodes", "10"],
                                  ["build"], ["embed", "--corpus", "c"],
                                  ["eval", "--embeddings", "e"],
                                  ["viz", "--embeddings", "e", "--out-prefix", "v"], ["run"]])
def test_walk_and_bench_offer_no_workers_flag(argv, tmp_path, capsys):
    """Walks and training run on one thread: no command takes --workers."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x"), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_eval_with_only_singleton_classes_exits_2(tmp_path, capsys):
    """One member per class leaves no row to test at any ratio: exit 2
    before any fit, naming the ratio and the cause."""
    emb = tmp_path / "emb.txt"
    emb.write_text("2 1\n0 0.5\n1 -0.5\n")
    (tmp_path / "labels.txt").write_text("0 x\n1 y\n")
    out = tmp_path / "report.csv"
    assert main(["eval", "--embeddings", str(emb), "--labels", str(tmp_path / "labels.txt"),
                 "--ratios", "0.3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "train ratio 0.3: every class has one member" in err
    assert "no row is left to test" in err
    assert not out.exists()
    # labels that name only nodes without an embedding row leave nothing to score
    (tmp_path / "labels.txt").write_text("7 x\n8 y\n")
    assert main(["eval", "--embeddings", str(emb), "--labels", str(tmp_path / "labels.txt"),
                 "--out", str(out)]) == 2
    assert "no embedding rows carry a label; cannot evaluate" in capsys.readouterr().err
    assert not out.exists()


def test_embed_accepts_window_beyond_255(dataset, tmp_path):
    bundle, corpus, emb = tmp_path / "bundle", tmp_path / "c.txt", tmp_path / "e.txt"
    main(["build", "--edges", str(dataset / "edges.txt"), "--out", str(bundle)])
    main(["walk", "--graph", str(bundle), "--out", str(corpus), "--walk-length", "8",
          "--walks-per-node", "1"])
    assert main(["embed", "--corpus", str(corpus), "--out", str(emb), "--dim", "2",
                 "--window", "300", "--epochs", "1"]) == 0
    assert emb.exists()


@pytest.mark.parametrize("nodemap,message", [
    ("0 a0\n", "nodemap line 1: name 'a0' is also a corpus token that no line maps"),
    ("0 x\n1 x\n", "nodemap line 2: name 'x' repeats line 1"),
    ("0 x\n# comment\n0 y\n", "nodemap line 3: id '0' repeats line 1"),
], ids=["name-is-unmapped-token", "name-repeats", "id-repeats"])
def test_embed_nodemap_must_give_unique_keys(nodemap, message, tmp_path, capsys):
    """A nodemap that would give two embedding rows one key exits 2, naming its line."""
    (tmp_path / "corpus.txt").write_text("0 a0 1\n1 a0 0\n")
    (tmp_path / "nodemap.txt").write_text(nodemap)
    out = tmp_path / "emb.txt"
    assert main(["embed", "--corpus", str(tmp_path / "corpus.txt"), "--out", str(out),
                 "--nodemap", str(tmp_path / "nodemap.txt"), "--dim", "2", "--window", "1",
                 "--epochs", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_embed_nodemap_may_swap_ids(tmp_path):
    """Ids mapped onto each other's names still give one row per key."""
    (tmp_path / "corpus.txt").write_text("0 a0 1\n1 a0 0\n")
    (tmp_path / "nodemap.txt").write_text("0 1\n1 0\nunused x\n")
    out = tmp_path / "emb.txt"
    assert main(["embed", "--corpus", str(tmp_path / "corpus.txt"), "--out", str(out),
                 "--nodemap", str(tmp_path / "nodemap.txt"), "--dim", "2", "--window", "1",
                 "--epochs", "1"]) == 0
    keys = [line.split()[0] for line in out.read_text().splitlines()[1:]]
    assert sorted(keys) == ["0", "1", "a0"]


def test_unknown_flag_is_error(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--edges", str(dataset / "edges.txt"),
              "--out", str(tmp_path / "x"), "--bogus-flag"])
    assert exc.value.code == 2


def test_bench_without_a_series_exits_2(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["bench", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--nodes" in err and "--attrs" in err
    assert not out.exists() and not (tmp_path / "t_attrs.csv").exists()


def test_bench_cli_writes_both_series(tmp_path):
    out = tmp_path / "timings.csv"
    rc = main(["bench", "--nodes", "40,80", "--degree", "4",
               "--attrs", "2,4", "--attr-nodes", "40", "--reps", "1",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "size,stage,median_seconds,workers"
    assert len(lines) == 1 + 2 * 5          # 2 points x (4 stages + total)
    attr_out = tmp_path / "timings_attrs.csv"
    assert attr_out.exists()
    sizes = {ln.split(",")[0] for ln in attr_out.read_text().splitlines()[1:]}
    assert sizes == {"80", "160"}


def test_binary_embedding_cli_round_trip(dataset, tmp_path):
    bundle = tmp_path / "bundle"
    main(["build", "--edges", str(dataset / "edges.txt"), "--out", str(bundle)])
    corpus = tmp_path / "c.txt"
    main(["walk", "--graph", str(bundle), "--out", str(corpus),
          "--walk-length", "8", "--walks-per-node", "2", "--seed", "1"])
    emb_bin = tmp_path / "e.bin"
    rc = main(["embed", "--corpus", str(corpus), "--out", str(emb_bin),
               "--binary", "--dim", "3", "--window", "2", "--epochs", "1",
               "--seed", "1"])
    assert rc == 0
    from fane import EmbeddingMatrix
    emb = EmbeddingMatrix.load_binary(emb_bin)
    assert emb.dimension == 3


def test_build_rejects_node_only_in_self_loops(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n3 3\n")
    assert main(["build", "--edges", str(edges), "--out", str(tmp_path / "b")]) == 2
    assert "edge list line 3: node '3'" in capsys.readouterr().err


def test_build_rejects_raw_node_named_like_an_attribute_key(tmp_path, capsys):
    """Attribute 0's node is keyed a0 in embeddings, so a raw node a0 would
    give two a0 rows."""
    (tmp_path / "edges.txt").write_text(EDGES.replace("3", "a0"))
    (tmp_path / "attrs.txt").write_text(ATTRS.replace("3", "a0"))
    assert main(["build", "--edges", str(tmp_path / "edges.txt"), "--attrs", str(tmp_path / "attrs.txt"),
                 "--out", str(tmp_path / "b")]) == 2
    assert "node 'a0' would share its embedding key with attribute 0" in capsys.readouterr().err


def test_build_rejects_node_name_that_would_save_as_a_comment(tmp_path, capsys):
    """A saved line starting with '#x' would read back as a comment, losing
    node 1's edge, so build refuses the graph and writes no file."""
    (tmp_path / "edges.txt").write_text("0 #x\n1 #x\n")
    assert main(["build", "--edges", str(tmp_path / "edges.txt"), "--out", str(tmp_path / "b")]) == 2
    assert "node '#x' cannot be saved" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
