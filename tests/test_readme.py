"""The README's CLI and config blocks match the program: the CLI block
names exactly the subcommands of `cli.make_parser()`, and the ini block
is a config that `RunConfig.load` accepts."""

import argparse
import pathlib
import re

from twirl import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.S)


def test_cli_block_names_every_subcommand():
    [block] = [body for _lang, body in BLOCKS if body.startswith("twirl ")]
    named = {line.split()[1] for line in block.splitlines()}
    [sub] = [a for a in cli.make_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert named == set(sub.choices)


def test_ini_block_loads(tmp_path):
    [block] = [body for lang, body in BLOCKS if lang == "ini"]
    path = tmp_path / "cfg.ini"
    path.write_text(block)
    cfg = cli.RunConfig.load(str(path))
    assert (cfg.ctx.p, cfg.regime) == (2, "even")
