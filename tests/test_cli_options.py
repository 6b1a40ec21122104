import argparse
import logging
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fane import EmbeddingMatrix
from fane.cli import CONFIG_COMMANDS, OPTIONS, build_parser, load_config, main, write_manifest

README = Path(__file__).resolve().parent.parent / "README.md"


def _non_default(o):
    if o.choices:
        return next(c for c in o.choices if c != o.default)
    if o.type is bool:
        return not o.default
    if o.type is str:
        return f"/data dir/{o.key}=x.txt"
    base = o.default() if callable(o.default) else o.default
    return o.type(base) + o.type(3)


def test_every_key_survives_manifest_round_trip(tmp_path):
    cfg = {key: _non_default(o) for key, o in OPTIONS.items()}
    write_manifest(tmp_path / "manifest.txt", cfg)
    back = load_config(tmp_path / "manifest.txt")
    assert back == cfg
    for key in cfg:
        assert type(back[key]) is type(cfg[key]), key


def _readme_commands():
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for cmd in block.replace("\\\n", " ").splitlines():
            if cmd.startswith("fane "):
                commands.append(shlex.split(cmd.replace("[", "").replace("]", ""))[1:])
    return commands


def test_readme_cli_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} >= {"build", "walk", "embed", "eval", "viz",
                                              "bench", "run"}
    for argv in commands:
        build_parser().parse_args(argv)
    # every flag the README names, outside its pytest lines, is a flag of some command
    flags = {f for p in _commands().values() for a in p._actions for f in a.option_strings}
    named = {f for line in README.read_text().splitlines() if "pytest" not in line
             for f in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)}
    assert named and named <= flags, sorted(named - flags)


def _commands():
    """Command name -> its subparser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _actions(command):
    return _commands()[command]._actions


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_config_commands_offer_exactly_their_table_keys(command):
    # the required --out of walk, embed and eval is a stage output, not a setting
    table = [a for a in _actions(command) if a.dest in OPTIONS and not a.required]
    assert {a.dest for a in table} == {k for k, o in OPTIONS.items()
                                      if command in o.commands.split()}
    for a in table:
        assert a.option_strings == ["--" + a.dest.replace("_", "-")]
        assert a.default is None    # unset flags leave config values alone
    assert any(a.dest == "config" for a in _actions(command))


def test_config_log_level_applies_to_fane_logger(tmp_path, caplog):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 1\n1 2\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("log_level=error\n")
    assert main(["build", "--config", str(cfg), "--edges", str(edges),
                 "--out", str(tmp_path / "quiet")]) == 0
    assert "self-loop" not in caplog.text
    assert main(["build", "--edges", str(edges), "--out", str(tmp_path / "loud")]) == 0
    assert "dropped 1 self-loop" in caplog.text


@pytest.mark.parametrize("argv", [
    ["viz", "--embeddings", "emb.txt", "--out-prefix", "scatter"],
    ["bench", "--nodes", "40", "--out", "timings.csv"],
])
def test_viz_and_bench_offer_no_config_file(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", "cfg.txt"])
    assert exc.value.code == 2


@pytest.fixture
def embedding(tmp_path):
    path = tmp_path / "emb.txt"
    vectors = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.5]], np.float32)
    EmbeddingMatrix(["0", "1", "2", "a0"], vectors).save_text(path)
    return path


@pytest.mark.parametrize("flag,text,message", [
    ("--labels", "0 x\n1\n", "label line 2"),
    ("--labels", "0 x\n0 y\n", "label line 2: conflicting"),
    ("--attrs", "0 0\n1 z\n", "attribute line 2: bad attr index"),
    ("--attrs", "0 0\n1 1 -2\n", "attribute line 2: negative value"),
])
def test_viz_rejects_malformed_lines(embedding, tmp_path, capsys, flag, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    color_by = "label" if flag == "--labels" else "attribute"
    rc = main(["viz", "--embeddings", str(embedding), "--color-by", color_by,
               flag, str(path), "--out-prefix", str(tmp_path / "scatter")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_viz_skips_nodes_without_embedding_rows(embedding, tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text("0 x\n1 y\n99 z\n")
    rc = main(["viz", "--embeddings", str(embedding), "--labels", str(labels),
               "--out-prefix", str(tmp_path / "scatter")])
    assert rc == 0
    rows = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["x", "y", "unlabeled", "unlabeled"]
