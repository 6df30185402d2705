"""tools/identity.py's command table keeps up with the command line.

The two-revision run takes about a minute, so it stays out of these tests;
they check only that the table reaches every subcommand and that the fixture
holds every input the table names.
"""

import argparse
import importlib.util
import re
from pathlib import Path

from lexalign.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)


def test_every_subcommand_is_in_the_table():
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    run = {argv[0] for _, argv, *_ in identity.COMMANDS if argv}
    assert set(subparsers.choices) - run == set()


def test_the_fixture_holds_every_input_the_table_names(tmp_path):
    fix = tmp_path / "fixture"
    identity.make_fixture(fix)
    names = {name for cmd_id, argv, *stdin in identity.COMMANDS if not cmd_id.startswith("missing")
             for arg in argv + stdin for name in re.findall(r"\{fix\}/([^:]+)", arg)}
    assert names and [name for name in sorted(names) if not (fix / name).is_file()] == []
    ids = [cmd_id for cmd_id, *_ in identity.COMMANDS]
    assert len(ids) == len(set(ids))
