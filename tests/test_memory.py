"""How many full-size copies of a space the fitting path holds at once.

Python's own allocations are traced while one call runs, on generated spaces
of 20000 words: wide enough that a full-size matrix dwarfs one chunk of text,
but the words themselves (strings, the vocabulary tuple, the duplicate check)
still take about half of a 50-wide matrix. So the loader and the commands are
pinned by what each extra matrix byte costs, from one width to the next, and
the fits by what each extra dictionary pair costs once an output exists.
"""

import json

import numpy as np
import pytest

from lexalign import (DEFAULT_NORMALIZE, DictionaryPairs, VocabEmbedding, align_orthogonal,
                      load_embeddings, meemi_bilingual, save_embeddings)
from lexalign.cli import main
from lexalign.pipeline import fit_method, load_space

from conftest import peak_bytes

ROWS, DIM = 20000, 50
WORDS = tuple(f"w{i}" for i in range(ROWS))


@pytest.fixture(scope="module")
def vector_files(tmp_path_factory):
    """The same 20000 words at widths DIM and 2 * DIM."""
    rng = np.random.default_rng(0)
    paths = {}
    for dim in (DIM, 2 * DIM):
        paths[dim] = tmp_path_factory.mktemp("vectors") / "en.vec"
        save_embeddings(VocabEmbedding("en", WORDS, rng.normal(size=(ROWS, dim))), paths[dim])
    return paths


@pytest.mark.parametrize("load", [
    lambda path: load_embeddings(path),
    lambda path: load_space(path, "en", DEFAULT_NORMALIZE),
], ids=["load_embeddings", "load_space"])
def test_loading_holds_one_matrix(vector_files, load):
    # the parsed matrix is the result itself, and load_space normalizes it
    # in place: the peak grows by one byte per matrix byte, not two
    peaks = {dim: peak_bytes(lambda: load(path)) for dim, path in vector_files.items()}
    matrix_bytes = ROWS * DIM * 8
    assert peaks[2 * DIM] - peaks[DIM] < 1.25 * matrix_bytes


def spaces(seed):
    rng = np.random.default_rng(seed)
    reference = VocabEmbedding("en", WORDS, rng.normal(size=(ROWS, DIM)))
    other = VocabEmbedding("tr", WORDS, rng.normal(size=(ROWS, DIM)))
    reference.word_index, other.word_index  # built once, outside the traced calls
    return reference, other


def pairs(count):
    return DictionaryPairs("tr", "en", tuple((w, w) for w in WORDS[:count]))


@pytest.mark.parametrize("fit", ["orthogonal", "meemi"])
def test_fits_free_their_paired_rows_before_any_output(fit):
    reference, other = spaces(1)
    # the first least-squares solve looks up numpy's LAPACKE, or imports
    # scipy.linalg where numpy has none
    meemi_bilingual(align_orthogonal(reference, other, pairs(100)), pairs(100))

    def peak(count):
        dictionary = pairs(count)
        if fit == "orthogonal":
            return peak_bytes(lambda: align_orthogonal(reference, other, dictionary))
        rotated = align_orthogonal(reference, other, dictionary)
        rotated["tr"].embedding.word_index
        return peak_bytes(lambda: meemi_bilingual(rotated, dictionary))

    # a half-vocabulary dictionary's paired rows (X, Z and for Meemi the
    # midpoints) are as large as half a space each; none of them may still
    # be alive when the outputs are, so the peak must not grow with them
    assert peak(ROWS // 2) - peak(ROWS // 8) < 0.05 * ROWS * DIM * 8


def test_meemi_fit_frees_the_target_it_consumes():
    reference, other = spaces(2)
    dictionary = pairs(ROWS // 4)
    meemi_bilingual(align_orthogonal(reference, other, pairs(100)), pairs(100))
    rng = np.random.default_rng(3)
    inputs = {}

    def fit():
        inputs.update(en=reference, tr=VocabEmbedding("tr", WORDS, rng.normal(size=(ROWS, DIM))))
        fit_method("meemi", "en", inputs, {"tr": dictionary})

    # the target, its rotated copy and the two Meemi outputs are four spaces;
    # the target is gone before the outputs exist
    assert peak_bytes(fit) < 4 * ROWS * DIM * 8
    assert inputs == {}


# the commands read and write text, so their spaces are smaller; wider, so
# that the retrieval score buffer (64 rows of scores against every target)
# stays well under one space
COMMAND_ROWS, COMMAND_DIM = 4000, 80


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """COMMAND_ROWS words at widths COMMAND_DIM and 2 * COMMAND_DIM, and an
    identity dictionary over a quarter of them."""
    rng = np.random.default_rng(4)
    root = tmp_path_factory.mktemp("commands")
    for dim in (COMMAND_DIM, 2 * COMMAND_DIM):
        save_embeddings(VocabEmbedding("en", WORDS[:COMMAND_ROWS],
                                       rng.normal(size=(COMMAND_ROWS, dim))), root / f"{dim}.vec")
    (root / "en-tr.tsv").write_text("".join(f"{w}\t{w}\n" for w in WORDS[:COMMAND_ROWS // 4]),
                                    encoding="utf-8")
    return root


def command_argv(root, command, method, dim):
    """The command line of `command` on the dim-wide inputs: the same file
    serves as both spaces, under two language codes."""
    vec, dictionary, out = root / f"{dim}.vec", root / "en-tr.tsv", root / f"{command}-{dim}"
    if command == "run":
        config = root / f"{method}-{dim}.json"
        config.write_text(json.dumps({
            "reference": {"lang": "en", "path": str(vec)},
            "targets": [{"lang": "tr", "path": str(vec), "dict": str(dictionary)}],
            "out_dir": str(out), "method": method, "split": {"test_size": COMMAND_ROWS // 8},
            "seed": 0, "eval": {}}), encoding="utf-8")
        return ["run", "--config", str(config)]
    if command == "align":
        return ["align", "--ref", str(vec), "--other", str(vec), "--ref-lang", "en",
                "--other-lang", "tr", "--dict", str(dictionary), "--method", method,
                "--out", f"{out}.tr.vec", "--out-ref", f"{out}.en.vec"]
    if command == "align-multi":
        return ["align-multi", "--ref", str(vec), "--ref-lang", "en", "--method", method,
                "--pair", f"tr:{vec}:{dictionary}", "--out-dir", str(out)]
    if command == "meemi":
        return ["meemi", "--src", str(vec), "--tgt", str(vec), "--src-lang", "tr",
                "--tgt-lang", "en", "--dict", str(dictionary), "--out-src", f"{out}.tr.vec",
                "--out-tgt", f"{out}.en.vec"]
    return ["eval", "--src", str(vec), "--tgt", str(vec), "--src-lang", "en",
            "--tgt-lang", "tr", "--test", str(dictionary), "--out", f"{out}.txt"]


@pytest.mark.parametrize("command, method, most", [
    ("run", "orthogonal", 3.1),
    ("run", "meemi", 3.5),
    ("align", "multistep", 3.6),
    ("eval", None, 2.9),
    ("meemi", None, 3.2),
    ("align-multi", "meemi-multi", 3.2),
])
def test_commands_drop_each_input_once_its_output_exists(command_inputs, command, method,
                                                         most):
    # copies of one space held at once: the peak's growth per matrix byte
    # from one width to twice that, so the vocabulary and the score buffer,
    # which do not grow with the width, cancel out. A fit's outputs take
    # three spaces at most (a finished side, an input and the output made
    # from it), plus its maps; eval holds both spaces, divides its target in
    # place and adds the query rows. The command runs once unmeasured first,
    # so that one-time allocations (the LAPACK lookup of the first Meemi
    # solve, among them) count at neither width, whichever row runs first
    assert main(command_argv(command_inputs, command, method, COMMAND_DIM)) == 0
    peaks = []
    for dim in (COMMAND_DIM, 2 * COMMAND_DIM):
        argv = command_argv(command_inputs, command, method, dim)
        codes = []
        peaks.append(peak_bytes(lambda: codes.append(main(argv))))
        assert codes == [0]
    assert (peaks[1] - peaks[0]) / (COMMAND_ROWS * COMMAND_DIM * 8) <= most
