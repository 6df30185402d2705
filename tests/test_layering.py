"""The command line and the run pipeline reach the library through public
names only, and text files are read through one line reader.

Each fitting subcommand is a thin wrapper over public calls in
lexalign.pipeline. An underscore-prefixed name imported into cli.py from a
lexalign module, or into pipeline.py from lexalign.align, is a second path
around the checks those calls make, so it fails here.

errors.read_lines reads a UTF-8 text file line by line and locates a byte
that is not UTF-8. Every text input goes through it, so any other function
that opens a file for text reading is a second copy of that job and fails
here.

embeddings.finite computes with numpy's floating-point warnings off and
raises a DataError unless the result is finite. Every product, sum or solve
of finite values that can overflow goes through it, so any other function
that calls np.errstate is a second, hand-written copy of that check and
fails here.

No module imports warnings. The spaces loaded and written in child processes
(pipeline._forked) send back their results and log records but no Python
warnings, so a module that starts to warn must also make those children send
their warnings back.
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


# The only function that may open a file for text reading: the line reader,
# which also reads the file again to locate a byte that is not UTF-8.
TEXT_READERS = {"errors.read_lines"}


def opens_text_for_reading(call):
    """Whether call is read_text() or an open() whose mode reads text: it
    holds "r" or "+" but no "b", or is absent. A mode that is not a literal
    counts as reading text."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "read_text":
        return True
    if name != "open":
        return False
    mode_at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode), path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[mode_at:mode_at + 1]
    mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
    return "b" not in mode and ("r" in mode or "+" in mode)


def calling_functions(path, matches):
    """module.function for each call in path that matches accepts, function
    being the innermost def around the call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(f"{path.stem}.{owner}")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_line_reader_and_listed_functions_read_text_files():
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in calling_functions(path, opens_text_for_reading)]
    assert "errors.read_lines" in found
    assert sorted(set(found) - TEXT_READERS) == []


# The only functions that may call np.errstate: the overflow guard, row_norms,
# whose error names the word of the row that overflows, and the writer's
# check of which values Python formats, where non-finite values are expected.
ERRSTATE_CALLERS = {"embeddings.finite", "embeddings.row_norms", "embeddings._format_block"}


def calls_errstate(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "errstate"


def test_only_the_overflow_guard_and_listed_functions_call_errstate():
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in calling_functions(path, calls_errstate)]
    assert sorted(set(found)) == sorted(ERRSTATE_CALLERS)


def imported_modules(path):
    """The top-level name of every absolute import in path, nested imports included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_no_module_imports_warnings():
    assert [path.stem for path in sorted(SRC.glob("*.py"))
            if "warnings" in imported_modules(path)] == []
