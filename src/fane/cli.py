"""Command-line entry point: build / walk / embed / eval / viz / bench / run.

Each stage reads the previous stage's files, so stages are independently
testable; `run` wires the full pipeline and writes a manifest of every
effective setting. Every setting is one row of OPTIONS: its flag is the key
with '_' -> '-' (walk_length -> --walk-length), and build, walk, embed, eval
and run also read it from a flat key=value config file (--config); viz and
bench read none. Defaults < config file < flags. Exit codes: 0 success,
2 input validation, 3 stage failure. FANE_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .graph import (AttributedGraph, GraphFormatError, build_augmented,
                    load_attributes, load_edge_list, load_labels, parse_labels,
                    parse_sparse_attributes, read_nodemap, read_records, stats)
from .sgns import EmbeddingMatrix, TrainParams, train
from .walks import (STRATEGIES, WalkParams, generate_corpus, load_corpus_tokens,
                    preprocess_transitions)
from . import evaluate as ev

logger = logging.getLogger("fane")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE = 3


def _default_seed() -> int:
    env = os.environ.get("FANE_SEED")
    try:
        return int(env) if env else 1
    except ValueError:
        raise ValueError(f"FANE_SEED must be an integer, got {env!r}") from None


# ---------------------------------------------------------------- options

class Option(NamedTuple):
    key: str
    type: type
    default: object          # a callable is called for each effective config
    choices: tuple | None
    commands: str            # the commands that offer the flag


OPTIONS = {o.key: o for o in [
    Option("edges", str, None, None, "build run"),
    Option("attrs", str, None, None, "build viz run"),
    Option("labels", str, None, None, "build eval viz run"),
    Option("p", float, 1.0, None, "walk run"),
    Option("q", float, 1.0, None, "walk run"),
    Option("r", float, 1.0, None, "walk run"),
    Option("strategy", str, "tf", tuple(STRATEGIES), "walk run"),
    Option("walk_length", int, 80, None, "walk run"),
    Option("walks_per_node", int, 10, None, "walk run"),
    Option("tau", int, 1024, None, "walk run"),
    Option("dim", int, 128, None, "embed run"),
    Option("window", int, 10, None, "embed run"),
    Option("negatives", int, 5, None, "embed run"),
    Option("epochs", int, 5, None, "embed run"),
    Option("lr", float, 0.025, None, "embed run"),
    Option("ratios", str, "0.5", None, "eval run"),
    Option("C", float, 1.0, None, "eval run"),
    Option("reps", int, 10, None, "eval run"),
    Option("seed", int, _default_seed, None, "walk embed eval viz bench run"),
    Option("out", str, None, None, "build run"),
    Option("save_corpus", bool, False, None, "run"),
    Option("log_level", str, "info", ("debug", "info", "warning", "error", "critical"),
           "build walk embed eval viz bench run"),
]}

CONFIG_COMMANDS = ("build", "walk", "embed", "eval", "run")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def load_config(path) -> dict:
    """Flat key=value text; '#' comments; unknown keys and values that do not
    parse as the key's type are errors naming the line."""
    out = {}
    for lineno, (key, value) in read_records(path, "config", "key=value", sep="="):
        key, value = key.strip(), value.strip()
        opt = OPTIONS.get(key)
        if opt is None:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = _parse_bool(value) if opt.type is bool else opt.type(value)
        except ValueError as e:
            raise ValueError(f"config line {lineno}: {key}: {e}") from None
        if opt.choices and out[key] not in opt.choices:
            raise ValueError(f"config line {lineno}: {key} must be one of {', '.join(opt.choices)}")
    return out


def effective_config(args) -> dict:
    """Defaults < config file < the command's explicit flags."""
    cfg = {o.key: o.default() if callable(o.default) else o.default for o in OPTIONS.values()}
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for o in OPTIONS.values():
        val = getattr(args, o.key, None) if args.command in o.commands.split() else None
        if val is not None:
            cfg[o.key] = val
    return cfg


def _need(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValueError(f"{_flag(key)} is required")
    return cfg[key]


def write_manifest(path, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# fane-version={__version__}\n")
        f.write(f"# numpy-version={np.__version__}\n")
        f.write(f"# python={sys.version.split()[0]}\n")
        for key in sorted(OPTIONS):
            val = cfg.get(key)
            if isinstance(val, bool):
                val = "true" if val else "false"
            if val is not None:
                f.write(f"{key}={val}\n")


@contextmanager
def _artifact(path):
    """Write to <path>.partial, rename on success, keep .partial on failure."""
    partial = Path(str(path) + ".partial")
    yield partial
    if partial.exists():
        partial.replace(path)


# ---------------------------------------------------------------- helpers

def _parse_item(what: str, text: str, item: str, kind):
    """`kind(item)`, or a ValueError naming the flag's value and the item."""
    try:
        return kind(item)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ValueError(f"{what} {text!r}: {item!r} is not {noun}") from None


def _parse_ratios(text: str) -> list[float]:
    """"start:stop:step" = inclusive range; "a,b,c" = explicit; each in (0, 1)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"ratios {text!r}: a range must be start:stop:step")
        start, stop, step = (_parse_item("ratios", text, p, float) for p in parts)
        if not (step > 0 and stop >= start):
            raise ValueError(f"ratios {text!r}: the step must be positive and the stop at least the start")
        vals = []
        x = start
        while x <= stop + 1e-9:
            vals.append(round(x, 10))
            x += step
    else:
        vals = [_parse_item("ratios", text, t, float) for t in text.split(",")]
    for v in vals:
        if not (0.0 < v < 1.0):
            raise ValueError(f"ratios {text!r}: {v:g} is not in (0, 1)")
    return vals


def _parse_series(text: str) -> list[int]:
    """"A:B" = decades from A to B; "a,b,c" = explicit; "n" = single point."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"series {text!r}: a range must be A:B")
        lo, hi = (_parse_item("series", text, t, int) for t in parts)
        if lo < 1 or hi < lo:
            raise ValueError(f"series {text!r}: the start must be at least 1 and the end at least the start")
        vals = []
        x = lo
        while x <= hi:
            vals.append(x)
            x *= 10
        return vals
    return [_parse_item("series", text, t, int) for t in text.split(",")]


def _read_nodemap(path, tokens) -> dict:
    """id -> name of read_nodemap; a mapped corpus token's name must not be
    another corpus token that keeps its own id as key."""
    entries, tokens = read_nodemap(path), set(tokens)
    for node, (name, lineno) in entries.items():
        if node in tokens and name in tokens and name not in entries:
            raise GraphFormatError(f"nodemap line {lineno}: name {name!r} "
                                   f"is also a corpus token that no line maps")
    return {node: name for node, (name, _) in entries.items()}


def _load_graph(cfg) -> AttributedGraph:
    g = load_edge_list(_need(cfg, "edges"))
    if cfg["attrs"]:
        load_attributes(cfg["attrs"], g)
    if cfg["labels"]:
        load_labels(cfg["labels"], g)
    return g


def _write_stats(path, ag) -> dict:
    s = stats(ag)
    with _artifact(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        for k, v in s.items():
            f.write(f"{k}={v}\n")
    return s


def _walk_params(cfg) -> WalkParams:
    return WalkParams(
        p=cfg["p"], q=cfg["q"], r=cfg["r"], strategy=cfg["strategy"], walk_length=cfg["walk_length"],
        walks_per_node=cfg["walks_per_node"], seed=cfg["seed"], tau=cfg["tau"],
    )


def _train_params(cfg) -> TrainParams:
    return TrainParams(
        dimension=cfg["dim"], window=cfg["window"], negatives=cfg["negatives"],
        epochs=cfg["epochs"], learning_rate=cfg["lr"], seed=cfg["seed"],
    )


def _eval_ratios(cfg) -> list[float]:
    """The train ratios, once evaluate's own checks pass C and reps."""
    ratios = _parse_ratios(cfg["ratios"])
    ev.LinearSVM(cfg["C"])
    ev.split(np.zeros(2), ratios[0], cfg["reps"], cfg["seed"])
    return ratios


def _classify(emb: EmbeddingMatrix, labels: dict, ratios, cfg, path):
    """Train-ratio sweep on the embedding rows that ``labels`` (key -> class
    name) labels, in row order, with classes numbered by sorted name;
    writes the report CSV."""
    keys = [k for k in emb.keys if k in labels]
    if not keys:
        raise GraphFormatError("no embedding rows carry a label; cannot evaluate")
    _, y = np.unique([labels[k] for k in keys], return_inverse=True)
    feats = emb.rows_for(keys).astype(np.float64)
    report = ev.evaluate_classification(feats, y, ratios, C=cfg["C"],
                                        repetitions=cfg["reps"], seed=cfg["seed"])
    with _artifact(path) as tmp:
        report.save_csv(tmp)
    return report


# ---------------------------------------------------------------- commands

def cmd_build(args, cfg) -> int:
    out = Path(_need(cfg, "out"))
    g = _load_graph(cfg)
    ag = build_augmented(g)
    g.save(out)
    s = _write_stats(out / "stats.txt", ag)
    if args.dump:
        ag.dump(out / "augmented.txt")
    for k, v in s.items():
        if k != "degree_histogram":
            print(f"{k}={v}")
    return EXIT_OK


def cmd_walk(args, cfg) -> int:
    params = _walk_params(cfg)
    ag = build_augmented(AttributedGraph.load_dir(args.graph))
    corpus = generate_corpus(ag, preprocess_transitions(ag, params))
    with _artifact(args.out) as tmp:
        corpus.save(tmp)
    print(f"wrote {corpus.n_walks} walks of length {corpus.walk_length} to {args.out}")
    return EXIT_OK


def cmd_embed(args, cfg) -> int:
    params = _train_params(cfg)
    walks, tokens = load_corpus_tokens(args.corpus)
    names = _read_nodemap(args.nodemap, tokens) if args.nodemap else {}
    emb = train(walks, params, key_fn=lambda i: names.get(tokens[i], tokens[i]))
    with _artifact(args.out) as tmp:
        (emb.save_binary if args.binary else emb.save_text)(tmp)
    print(f"wrote {len(emb)} x {emb.dimension} embedding to {args.out} "
          f"(final epoch loss {emb.epoch_losses[-1]:.4f})")
    return EXIT_OK


def cmd_eval(args, cfg) -> int:
    ratios = _eval_ratios(cfg)
    emb = (EmbeddingMatrix.load_binary if args.binary else EmbeddingMatrix.load_text)(args.embeddings)
    # label lines of nodes without an embedding row do not score
    labels = {node: cls for _, node, cls in parse_labels(_need(cfg, "labels"))}
    report = _classify(emb, labels, ratios, cfg, args.out)
    for row in report.ratio_summary():
        print(f"ratio={row['ratio']:.2f} micro={row['micro_mean']:.4f}"
              f"±{row['micro_std']:.4f} macro={row['macro_mean']:.4f}"
              f"±{row['macro_std']:.4f}")
    return EXIT_OK


def cmd_viz(args, cfg) -> int:
    emb = (EmbeddingMatrix.load_binary if args.binary else EmbeddingMatrix.load_text)(args.embeddings)
    coords, ratio = ev.project_2d(emb.vectors)
    # label and attribute lines of nodes without an embedding row colour nothing
    if args.color_by == "label":
        labels = {node: cls for _, node, cls in parse_labels(_need(cfg, "labels")) if node in emb}
        classes = [labels.get(k, "unlabeled") for k in emb.keys]
    elif args.color_by == "attribute":
        best: dict[str, tuple[float, int]] = {}   # node -> (value, -attr), largest wins
        for _, node, a, x in parse_sparse_attributes(_need(cfg, "attrs")):
            if node in emb and (x, -a) > best.get(node, (0.0, 0)):
                best[node] = (x, -a)
        classes = [f"a{-best[k][1]}" if k in best else "none" for k in emb.keys]
    else:  # cluster
        assign, _, _ = ev.kmeans(emb.vectors, args.k, seed=cfg["seed"])
        classes = [f"c{c}" for c in assign]
    prefix = args.out_prefix
    ev.scatter_csv(prefix + ".csv", emb.keys, coords, classes)
    ev.scatter_svg(prefix + ".svg", coords, classes)
    print(f"projection explains {ratio[0]:.3f}+{ratio[1]:.3f} of variance; "
          f"wrote {prefix}.csv and {prefix}.svg")
    return EXIT_OK


def cmd_bench(args, cfg) -> int:
    from .bench import BenchSpec, run_scaling
    if not (args.nodes or args.attrs):
        raise ValueError("bench needs a series: give --nodes, --attrs or both")
    spec = BenchSpec(
        node_counts=tuple(_parse_series(args.nodes)) if args.nodes else (),
        mean_degree=args.degree,
        attr_counts=tuple(_parse_series(args.attrs)) if args.attrs else (),
        attr_n_nodes=args.attr_nodes,
        repetitions=args.reps,
        seed=cfg["seed"],
        tau=args.tau,
    )
    result = run_scaling(spec)
    out = Path(args.out)
    for series, sizes, fit, path in (
            ("nodes", spec.node_counts, result.node_fit, out),
            ("attrs", spec.attr_counts, result.attr_fit,
             out.with_name(out.stem + "_attrs" + out.suffix))):
        if sizes:
            result.save_csv(path, series)
            print(f"{series[:-1]} series -> {path}")
            if fit:
                print(f"  total-time fit: slope={fit.slope:.3e} R^2={fit.r2:.4f}")
    return EXIT_OK


def run_pipeline(cfg: dict, dry_run: bool = False) -> dict:
    """build -> walk -> embed -> eval with a manifest; returns artifact paths."""
    out = Path(_need(cfg, "out"))
    # a bad setting exits 2 before any stage runs
    walk_params, train_params, ratios = _walk_params(cfg), _train_params(cfg), _eval_ratios(cfg)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {"manifest": out / "manifest.txt"}
    write_manifest(artifacts["manifest"], cfg)
    if dry_run:
        return artifacts

    stage = "build"
    try:
        g = _load_graph(cfg)
        ag = build_augmented(g)
        artifacts["stats"] = out / "stats.txt"
        _write_stats(artifacts["stats"], ag)

        stage = "walk"
        # the tables go once the corpus is walked, before train allocates
        corpus = generate_corpus(ag, preprocess_transitions(ag, walk_params))
        if cfg["save_corpus"]:
            artifacts["corpus"] = out / "corpus.txt"
            with _artifact(artifacts["corpus"]) as tmp:
                corpus.save(tmp)

        stage = "embed"
        emb = train(corpus.walks, train_params, key_fn=ag.export_key)
        artifacts["embeddings"] = out / "embeddings.txt"
        with _artifact(artifacts["embeddings"]) as tmp:
            emb.save_text(tmp)

        if cfg["labels"]:
            stage = "eval"
            artifacts["report"] = out / "report.csv"
            _classify(emb, {ag.node_names[v]: ag.class_names[c] for v, c in ag.labels.items()},
                      ratios, cfg, artifacts["report"])
    except Exception as e:
        raise PipelineError(f"stage '{stage}' failed: {e}") from e
    return artifacts


class PipelineError(RuntimeError):
    """A stage of `run` failed (exit code 3)."""


def cmd_run(args, cfg) -> int:
    for name, path in run_pipeline(cfg, dry_run=args.dry_run).items():
        print(f"{name}: {path}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fane", description=__doc__)
    ap.add_argument("--version", action="version", version=f"fane {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if name in CONFIG_COMMANDS:
            p.add_argument("--config", help="flat key=value config file")
        for o in OPTIONS.values():
            if name in o.commands.split():
                kind = (dict(action="store_const", const=True) if o.type is bool
                        else dict(type=o.type, choices=o.choices))
                p.add_argument(_flag(o.key), dest=o.key, **kind)
        return p

    p = command("build", cmd_build, "load + validate a dataset, write the normalized bundle")
    p.add_argument("--dump", action="store_true", help="also write the augmented-graph dump")

    p = command("walk", cmd_walk, "generate the random-walk corpus")
    p.add_argument("--graph", required=True, help="bundle directory from 'build'")
    p.add_argument("--out", required=True)

    p = command("embed", cmd_embed, "train skip-gram embeddings from a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nodemap", help="dense->original id map for output keys")
    p.add_argument("--binary", action="store_true")

    p = command("eval", cmd_eval, "classification sweep over training ratios")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--out", required=True)

    p = command("viz", cmd_viz, "2-D projection scatter (CSV + SVG)")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--color-by", choices=["label", "attribute", "cluster"],
                   default="label", dest="color_by")
    p.add_argument("--k", type=int, default=8, help="clusters for --color-by cluster")
    p.add_argument("--out-prefix", required=True, dest="out_prefix")

    p = command("bench", cmd_bench, "scalability timing on random graphs")
    p.add_argument("--nodes", help="node series, 'A:B' decades or comma list")
    p.add_argument("--degree", type=float, default=10.0)
    p.add_argument("--attrs", help="attrs-per-node series, 'A:B' decades or comma list")
    p.add_argument("--attr-nodes", type=int, default=1000, dest="attr_nodes")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--tau", type=int, default=128)
    p.add_argument("--out", required=True)

    p = command("run", cmd_run, "full pipeline with manifest")
    p.add_argument("--dry-run", action="store_true", dest="dry_run")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    level = logger.level
    try:
        cfg = effective_config(args)
        logger.setLevel(cfg["log_level"].upper())
        return args.func(args, cfg)
    except (PipelineError, GraphFormatError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE if isinstance(e, PipelineError) else EXIT_VALIDATION
    finally:
        logger.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
