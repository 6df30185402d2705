"""The command line and the run pipeline reach the library through public
names only.

Each fitting subcommand is a thin wrapper over public calls in
lexalign.pipeline. An underscore-prefixed name imported into cli.py from a
lexalign module, or into pipeline.py from lexalign.align, is a second path
around the checks those calls make, so it fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lexalign"


def lexalign_imports(path):
    """(module, name) for every name path imports from a lexalign module,
    nested imports included; module is the last part of the dotted name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [((node.module or "lexalign").split(".")[-1], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "lexalign")
            for alias in node.names]


@pytest.mark.parametrize("importer, source", [("cli", None), ("pipeline", "align")])
def test_no_private_library_name_is_imported(importer, source):
    private = [(module, name) for module, name in lexalign_imports(SRC / f"{importer}.py")
               if name.startswith("_") and not name.endswith("__")
               and source in (None, module)]
    assert private == []
