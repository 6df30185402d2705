"""Byte-identity check of the lexalign command line between two revisions.

    python tools/identity.py BASE HEAD [--expect GLOB ...]

Generates one seeded fixture (en plus tr/kk/uz vectors, dictionaries, a word
list, a replay cache and defect files) in a temporary directory, checks out
BASE and HEAD with `git worktree`, and runs COMMANDS below in each checkout
at OPENBLAS_NUM_THREADS=1. Both sides read the same fixture and write to the
same output path, so paths inside manifests and messages match. It then
compares the sha256 of every file written, and each command's stdout, stderr
and exit code. Last it prints the line count of src/lexalign/*.py at each
revision, counted as `wc -l` counts (newline bytes).

A difference is named by the file's path under the output directory (the
command id is its first part, as in `run-orth/run/manifest.json`) or by
`ID:stdout`, `ID:stderr` or `ID:exit`. `--expect GLOB` declares the
differences whose names match GLOB as intended. The check fails when a
difference is not declared, or when a declared GLOB matches none. Revisions
are read from the repository this file lives in, as committed: uncommitted
changes are not seen. Nothing is fetched.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LANGS = ("en", "tr", "kk", "uz")
SEED = 0  # of the fixture
N_WORDS, DIM = 400, 24
N_LIST = 122  # the dict-build word list
# the "split" spaces: 4.5M values each, two ranges of the 2**21 values or more
# that normalize gives a thread
N_SPLIT, DIM_SPLIT = 15000, 300
TRAIN = range(300)
TEST = range(300, 400)

# each command runs as `lexalign ARGV` unless its argv starts with "load-maps"
# or "resave-maps", which read a map file through the library (no subcommand
# reads maps) and, for "resave-maps", write it back with save_maps. {fix}
# is the fixture, {out} the output root and {dir} the command's own directory
# under it. A third field names a file fed to the command's stdin.
COMMANDS = [
    ("version", ["--version"]),
    ("usage-no-command", []),
    # run: every method, both dictionary directions, split and eval
    ("run-orth", ["run", "--config", "{fix}/run-orth.json", "--set", "out_dir={dir}/run"]),
    ("run-multistep", ["run", "--config", "{fix}/run-multistep.json",
                       "--set", "out_dir={dir}/run"]),
    ("run-meemi", ["run", "--config", "{fix}/run-meemi.json", "--set", "out_dir={dir}/run"]),
    ("run-meemi-multi", ["run", "--config", "{fix}/run-meemi-multi.json",
                         "--set", "out_dir={dir}/run"]),
    ("run-explicit-test", ["run", "--config", "{fix}/run-explicit-test.json",
                           "--set", "out_dir={dir}/run"]),
    ("run-reduce-dim-orth", ["run", "--config", "{fix}/run-orth.json",
                             "--set", "out_dir={dir}/run", "--set", "reduce_dim=3"]),
    ("run-bad-json", ["run", "--config", "{fix}/defects/bad.json", "--set", "out_dir={dir}/run"]),
    ("run-not-object", ["run", "--config", "{fix}/defects/list.json"]),
    ("run-unknown-key", ["run", "--config", "{fix}/run-orth.json", "--set", "out_dir={dir}/run",
                         "--set", "colour=1"]),
    ("run-bad-set", ["run", "--config", "{fix}/run-orth.json", "--set", "out_dir"]),
    ("run-multistep-two-targets", ["run", "--config", "{fix}/run-orth.json",
                                   "--set", "out_dir={dir}/run", "--set", "method=multistep"]),
    ("run-enc", ["run", "--config", "{fix}/defects/enc.json"]),
    ("missing-config", ["run", "--config", "{fix}/missing.json"]),
    # align: every one-pair method, both dictionary directions
    *[(f"align-{method}-{direction}",
       ["align", "--ref", "{fix}/en.vec", "--other", f"{{fix}}/{lang}.vec",
        "--dict", f"{{fix}}/{dict_file}", "--dict-direction", direction, "--method", method,
        "--out", f"{{dir}}/{lang}.aligned.vec", "--out-ref", "{dir}/en.aligned.vec"])
      for method in ("orthogonal", "multistep", "meemi")
      for direction, lang, dict_file in (("ref2other", "tr", "en-tr.tsv"),
                                         ("other2ref", "kk", "kk-en.tsv"))],
    ("align-multistep-options", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                                 "--dict", "{fix}/en-tr.tsv", "--method", "multistep",
                                 "--reduce-dim", "10", "--reweight-p", "0.7",
                                 "--max-words", "350", "--lowercase", "--normalize", "unit",
                                 "--out", "{dir}/tr.vec", "--out-ref", "{dir}/en.vec"]),
    ("align-orth-no-normalize", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/uz.vec",
                                 "--dict", "{fix}/en-uz.tsv", "--normalize", "none",
                                 "--out", "{dir}/uz.vec"]),
    ("align-normalize-unknown", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                                 "--dict", "{fix}/en-tr.tsv", "--normalize", "unit,foo",
                                 "--out", "{dir}/tr.vec"]),
    ("reduce-dim-orth", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                         "--dict", "{fix}/en-tr.tsv", "--reduce-dim", "3",
                         "--out", "{dir}/tr.vec"]),
    ("align-multistep-no-out-ref", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                                    "--dict", "{fix}/en-tr.tsv", "--method", "multistep",
                                    "--out", "{dir}/tr.vec"]),
    ("align-multistep-nan", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                             "--dict", "{fix}/en-tr.tsv", "--method", "multistep",
                             "--reweight-p", "nan", "--out", "{dir}/tr.vec",
                             "--out-ref", "{dir}/en.vec"]),
    ("align-multistep-wide", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                              "--dict", "{fix}/en-tr.tsv", "--method", "multistep",
                              "--reduce-dim", "30", "--out", "{dir}/tr.vec",
                              "--out-ref", "{dir}/en.vec"]),
    ("align-one-language", ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                            "--other-lang", "en", "--dict", "{fix}/en-tr.tsv", "--method",
                            "multistep", "--out", "{dir}/tr.vec", "--out-ref", "{dir}/en.vec"]),
    # align-multi
    *[(f"align-multi-{name}",
       ["align-multi", "--ref", "{fix}/en.vec", "--out-dir", "{dir}/multi",
        *[arg for lang in ("tr", "kk", "uz")
          for arg in ("--pair", f"{lang}:{{fix}}/{lang}.vec:{{fix}}/en-{lang}.tsv")], *extra])
      for name, extra in (("orth", []), ("meemi-multi", ["--method", "meemi-multi"]),
                          ("sources", ["--method", "meemi-multi", "--sources", "tr,kk"]),
                          ("all-comb", ["--method", "meemi-multi", "--all-combinations"]),
                          ("orth-sources", ["--sources", "tr"]))],
    ("all-comb-orth", ["align-multi", "--ref", "{fix}/en.vec", "--out-dir", "{dir}/multi",
                       "--pair", "tr:{fix}/tr.vec:{fix}/en-tr.tsv", "--all-combinations"]),
    ("align-multi-repeated", ["align-multi", "--ref", "{fix}/en.vec", "--out-dir", "{dir}/multi",
                              "--pair", "tr:{fix}/tr.vec:{fix}/en-tr.tsv",
                              "--pair", "tr:{fix}/tr.vec:{fix}/en-tr.tsv"]),
    ("align-multi-bad-pair", ["align-multi", "--ref", "{fix}/en.vec", "--out-dir", "{dir}/multi",
                              "--pair", "tr:{fix}/tr.vec"]),
    # several inputs, each read in a process of its own: the earliest defect
    # is the one reported, log records keep their order, and an output that
    # cannot be opened leaves what a serial loop leaves
    ("align-both-defective", ["align", "--ref", "{fix}/defects/arity.vec",
                              "--other", "{fix}/defects/value.vec", "--dict", "{fix}/en-tr.tsv",
                              "--out", "{dir}/tr.vec"]),
    ("eval-both-defective", ["eval", "--src", "{fix}/defects/arity.vec",
                             "--tgt", "{fix}/defects/value.vec",
                             "--test", "{fix}/en-tr.test.tsv"]),
    ("align-multi-both-defective", ["align-multi", "--ref", "{fix}/defects/arity.vec",
                                    "--out-dir", "{dir}/multi",
                                    "--pair", "tr:{fix}/defects/value.vec:{fix}/en-tr.tsv"]),
    ("align-multi-second-defective", ["align-multi", "--ref", "{fix}/en.vec",
                                      "--out-dir", "{dir}/multi",
                                      "--pair", "tr:{fix}/tr.vec:{fix}/en-tr.tsv",
                                      "--pair", "kk:{fix}/defects/value.vec:{fix}/en-kk.tsv"]),
    *[(f"align-unwritable-{name}",
       ["align", "--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec", "--dict", "{fix}/en-tr.tsv",
        "--method", "multistep", "--out", out, "--out-ref", out_ref])
      for name, out, out_ref in (("out-ref", "{dir}/tr.vec", "{dir}/missing/en.vec"),
                                 ("out", "{dir}/missing/tr.vec", "{dir}/en.vec"))],
    ("align-lowercase-both-fold", ["align", "--ref", "{fix}/fold/en.vec", "--other",
                                   "{fix}/tr.vec", "--dict", "{fix}/en-tr.tsv", "--lowercase",
                                   "--method", "multistep", "--out", "{dir}/tr.vec",
                                   "--out-ref", "{dir}/en.vec"]),
    # meemi on spaces the orthogonal run aligned
    ("meemi", ["meemi", "--src", "{out}/run-orth/run/tr.aligned.vec",
               "--tgt", "{out}/run-orth/run/en.aligned.vec", "--dict", "{fix}/tr-en.tsv",
               "--out-src", "{dir}/tr.vec", "--out-tgt", "{dir}/en.vec"]),
    ("meemi-empty-lang", ["meemi", "--src", "{fix}/tr.vec", "--tgt", "{fix}/en.vec",
                          "--dict", "{fix}/tr-en.tsv", "--src-lang", "",
                          "--out-src", "{dir}/tr.vec", "--out-tgt", "{dir}/en.vec"]),
    # eval and induce on the orthogonal run's spaces
    *[(f"eval-{fmt}", ["eval", "--src", "{out}/run-orth/run/en.aligned.vec",
                       "--tgt", "{out}/run-orth/run/tr.aligned.vec",
                       "--test", "{fix}/en-tr.test.tsv", "--format", fmt, *extra])
      for fmt, extra in (("table", []), ("tsv", ["--ks", "1,10,5,2", "--label", "orth"]),
                         ("json", ["--out", "{dir}/report.json"]))],
    ("eval-oov-fail", ["eval", "--src", "{out}/run-orth/run/en.aligned.vec",
                       "--tgt", "{out}/run-orth/run/tr.aligned.vec",
                       "--test", "{fix}/en-tr.oov.tsv", "--oov-policy", "fail"]),
    ("eval-bad-ks", ["eval", "--src", "{fix}/en.vec", "--tgt", "{fix}/tr.vec",
                     "--test", "{fix}/en-tr.test.tsv", "--ks", "1,x"]),
    ("induce", ["induce", "--space", "{out}/run-orth/run/tr.aligned.vec", "--word", "söz3"]),
    ("induce-query-space", ["induce", "--space", "{out}/run-orth/run/tr.aligned.vec",
                            "--query-space", "{out}/run-orth/run/en.aligned.vec",
                            "--word", "en301", "-k", "7"]),
    ("induce-unknown-word", ["induce", "--space", "{fix}/tr.vec", "--word", "nope"]),
    ("missing-space", ["induce", "--space", "{fix}/missing.vec", "--word", "en1"]),
    # dictionaries
    ("dict-build", ["dict-build", "--words", "{fix}/words.txt", "--cache", "{fix}/cache.tsv",
                    "--src-lang", "en", "--tgt-lang", "tr", "--out", "{dir}/en-tr.tsv"]),
    ("dict-build-fold-case", ["dict-build", "--words", "{fix}/words.txt",
                              "--cache", "{fix}/cache.tsv", "--src-lang", "en",
                              "--tgt-lang", "tr", "--fold-case", "--workers", "2",
                              "--out", "{dir}/en-tr.tsv"]),
    ("dict-build-no-reverse", ["dict-build", "--words", "{fix}/words.txt",
                               "--cache", "{fix}/cache.tsv", "--src-lang", "en",
                               "--tgt-lang", "tr", "--no-reverse", "--out", "{dir}/en-tr.tsv"]),
    ("dict-build-no-source", ["dict-build", "--words", "{fix}/words.txt", "--src-lang", "en",
                              "--tgt-lang", "tr", "--out", "{dir}/en-tr.tsv"]),
    ("dict-build-bad-rps", ["dict-build", "--words", "{fix}/words.txt", "--cache",
                            "{fix}/cache.tsv", "--src-lang", "en", "--tgt-lang", "tr",
                            "--rps", "0", "--out", "{dir}/en-tr.tsv"]),
    ("dict-build-multi-token-word", ["dict-build", "--words", "{fix}/multi-token.words",
                                     "--cache", "{fix}/cache.tsv", "--src-lang", "en",
                                     "--tgt-lang", "tr", "--out", "{dir}/en-tr.tsv"]),
    ("dict-build-workers-4", ["dict-build", "--words", "{fix}/words.txt",
                              "--cache", "{fix}/cache.tsv", "--src-lang", "en",
                              "--tgt-lang", "tr", "--workers", "4", "--out", "{dir}/en-tr.tsv"]),
    ("dict-clean", ["dict-clean", "--in", "{fix}/en-tr.tsv", "--out", "{dir}/clean.tsv"]),
    ("dict-clean-skip", ["dict-clean", "--in", "{fix}/defects/columns.tsv",
                         "--on-bad-lines", "skip", "--out", "{dir}/clean.tsv"]),
    ("dict-clean-columns", ["dict-clean", "--in", "{fix}/defects/columns.tsv",
                            "--out", "{dir}/clean.tsv"]),
    ("missing-dict", ["dict-clean", "--in", "{fix}/missing.tsv", "--out", "{dir}/clean.tsv"]),
    ("dict-merge", ["dict-merge", "--in", "{fix}/en-tr.tsv", "--in", "{fix}/en-tr.test.tsv",
                    "--out", "{dir}/merged.tsv"]),
    ("dict-merge-refilter", ["dict-merge", "--in", "{fix}/en-tr.tsv", "--in", "{fix}/en-kk.tsv",
                             "--reapply-token-filter", "--out", "{dir}/merged.tsv"]),
    ("dict-split", ["dict-split", "--in", "{fix}/en-tr.tsv", "--test-size", "40", "--seed", "3",
                    "--out-train", "{dir}/train.tsv", "--out-test", "{dir}/test.tsv"]),
    ("dict-split-too-big", ["dict-split", "--in", "{fix}/en-tr.tsv", "--test-size", "900",
                            "--seed", "3", "--out-train", "{dir}/train.tsv",
                            "--out-test", "{dir}/test.tsv"]),
    # maps the runs wrote, read back
    *[(f"load-maps-{name}", ["load-maps", f"{{out}}/{name}/run/{lang}.map"])
      for name, lang in (("run-orth", "tr"), ("run-multistep", "en"), ("run-meemi", "kk"),
                         ("run-meemi-multi", "uz"))],
    # maps written back: one Python's "%.17g" wrote, and two the runs wrote
    ("resave-maps-values", ["resave-maps", "{fix}/values.map", "{dir}/values.map"]),
    *[(f"resave-maps-{name}", ["resave-maps", f"{{out}}/{name}/run/{lang}.map",
                               f"{{dir}}/{lang}.map"])
      for name, lang in (("run-multistep", "en"), ("run-meemi", "kk"))],
    # a byte that is not UTF-8 in each kind of text input, and other defects
    *[(f"vec-{name}", ["induce", "--space", f"{{fix}}/defects/{name}.vec", "--lang", "xx",
                       "--word", "a"])
      for name in ("enc", "enc-far", "cr", "header", "arity", "value", "truncated",
                   "arity-above-byte", "value-above-byte", "header-above-byte",
                   "arity-above-header", "arity-folded")],
    ("dict-enc", ["dict-clean", "--in", "{fix}/defects/enc.tsv", "--out", "{dir}/clean.tsv"]),
    ("dict-cr", ["dict-clean", "--in", "{fix}/defects/cr.tsv", "--out", "{dir}/clean.tsv"]),
    ("words-enc", ["dict-build", "--words", "{fix}/defects/enc.words", "--cache",
                   "{fix}/cache.tsv", "--src-lang", "en", "--tgt-lang", "tr",
                   "--out", "{dir}/en-tr.tsv"]),
    ("cache-enc", ["dict-build", "--words", "{fix}/words.txt", "--cache",
                   "{fix}/defects/enc.cache", "--src-lang", "en", "--tgt-lang", "tr",
                   "--out", "{dir}/en-tr.tsv"]),
    *[(f"maps-{name}", ["load-maps", f"{{fix}}/defects/{name}.map"])
      for name in ("enc", "header", "short", "kind", "header-above-byte", "zero-rows",
                   "zero-cols")],
    # finite vectors near 1e200, whose squares overflow
    *[(f"overflow-{name}", ["align", "--ref", "{fix}/huge/en.vec", "--other",
                            "{fix}/huge/tr.vec", "--dict", "{fix}/huge/en-tr.tsv",
                            "--out", "{dir}/tr.vec", *extra])
      for name, extra in (("multistep-none", ["--method", "multistep", "--normalize", "none",
                                              "--out-ref", "{dir}/en.vec"]),
                          ("unit-center", ["--normalize", "unit,center"]),
                          ("default-steps", []),
                          ("orth-none", ["--normalize", "none"]))],
    ("overflow-eval", ["eval", "--src", "{fix}/huge/en.vec", "--tgt", "{fix}/huge/tr.vec",
                       "--test", "{fix}/huge/en-tr.tsv"]),
    ("overflow-induce", ["induce", "--space", "{fix}/huge/tr.vec", "--word", "söz3"]),
    ("overflow-eval-source", ["eval", "--src", "{fix}/huge/en.vec", "--tgt", "{fix}/plain/tr.vec",
                              "--test", "{fix}/huge/en-tr.tsv"]),
    # entries near 1e308, whose column sums overflow
    ("overflow-center", ["align", "--ref", "{fix}/max/en.vec", "--other", "{fix}/max/tr.vec",
                         "--dict", "{fix}/huge/en-tr.tsv", "--normalize", "center",
                         "--out", "{dir}/tr.vec"]),
    # a value minus its column mean that overflows, read in a child (the
    # --other space), and paired rows whose sum overflows
    ("overflow-center-subtract", ["align", "--ref", "{fix}/subtract/en.vec",
                                  "--other", "{fix}/subtract/tr.vec",
                                  "--dict", "{fix}/huge/en-tr.tsv", "--normalize", "center",
                                  "--out", "{dir}/tr.vec"]),
    ("overflow-meemi-midpoint", ["meemi", "--src", "{fix}/midpoint/tr.vec",
                                 "--tgt", "{fix}/midpoint/en.vec",
                                 "--dict", "{fix}/midpoint/tr-en.tsv",
                                 "--out-src", "{dir}/tr.vec", "--out-tgt", "{dir}/en.vec"]),
    # four spaces, the last one defective: with two CPUs it is read in a child
    # while this process reads the one before it
    ("align-multi-last-defective", ["align-multi", "--ref", "{fix}/en.vec",
                                    "--out-dir", "{dir}/multi",
                                    "--pair", "tr:{fix}/tr.vec:{fix}/en-tr.tsv",
                                    "--pair", "kk:{fix}/kk.vec:{fix}/en-kk.tsv",
                                    "--pair", "uz:{fix}/defects/value.vec:{fix}/en-uz.tsv"]),
    # two spaces large enough that normalize splits its row passes over two
    # threads, on a host with two CPUs or more
    ("align-split-rows", ["align", "--ref", "{fix}/split/en.vec", "--other", "{fix}/split/tr.vec",
                          "--dict", "{fix}/split/en-tr.tsv", "--normalize", "unit,center,unit",
                          "--out", "{dir}/tr.vec", "--out-ref", "{dir}/en.vec"]),
    # vectors through a pipe
    ("pipe-good", ["induce", "--space", "/dev/stdin", "--lang", "en", "--word", "en1"],
     "{fix}/en.vec"),
    ("pipe-enc", ["induce", "--space", "/dev/stdin", "--lang", "xx", "--word", "a"],
     "{fix}/defects/enc.vec"),
]

LEXALIGN = "import sys; from lexalign.cli import main; sys.exit(main(sys.argv[1:]))"
LOAD_MAPS = """import hashlib, sys
from lexalign import DataError, load_maps
try:
    maps = load_maps(sys.argv[1])
except DataError as exc:
    print(exc, file=sys.stderr)
    sys.exit(2)
for m in maps:
    print(m.kind, m.d_in, m.d_out, hashlib.sha256(m.matrix.tobytes()).hexdigest())
"""
RESAVE_MAPS = """import hashlib, sys
from pathlib import Path
from lexalign import load_maps, save_maps
save_maps(load_maps(sys.argv[1]), sys.argv[2])
for path in sys.argv[1:]:
    print(hashlib.sha256(Path(path).read_bytes()).hexdigest(), Path(path).name)
"""
LIBRARY = {"load-maps": LOAD_MAPS, "resave-maps": RESAVE_MAPS}


def _words(lang: str, n: int = N_WORDS) -> list[str]:
    stem = {"en": "en", "tr": "söz", "kk": "сөз", "uz": "so'z"}[lang]
    return [f"{stem}{i}" for i in range(n)]


def _write_vectors(path: Path, words, matrix) -> None:
    rows = [f"{w} " + " ".join(f"{v:.6f}" for v in row) for w, row in zip(words, matrix)]
    path.write_text(f"{len(rows)} {matrix.shape[1]}\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")


def _write_map_values(path: Path, rng) -> None:
    """A 40 x 30 "unconstrained" map written with Python's own "%.17g": normal
    entries, values spread over 1e-8 to 1e17, exact 17-digit ties, zeros of
    both signs, subnormals, 1e300 and neighbours of powers of ten."""
    rows, cols = 40, 30
    size = rows * cols
    ties = [(int(rng.integers(-(-10 ** 17 // 5 ** m), (10 ** 18 - 1) // 5 ** m)) | 1)
            * 2.0 ** -m for m in range(13, 26) for _ in range(8)]
    powers = np.array([float(f"1e{k}") for k in range(-7, 18)])
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300]
    values = np.concatenate([rng.normal(0.0, 0.06, size // 2), 10.0 ** rng.uniform(-8, 17, 200),
                             ties, special, powers + rng.integers(-4, 5, 25) * np.spacing(powers)])
    values = rng.permutation(np.resize(values, size) * rng.choice([-1.0, 1.0], size))
    lines = [" ".join("%.17g" % v for v in row) for row in values.reshape(rows, cols).tolist()]
    path.write_text(f"unconstrained {rows} {cols}\n" + "\n".join(lines) + "\n",
                    encoding="ascii")


def _write_pairs(path: Path, pairs) -> None:
    path.write_text("".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")


def make_fixture(fix: Path) -> None:
    """Write the fixture COMMANDS reads into the directory fix."""
    rng = np.random.default_rng(SEED)
    (fix / "defects").mkdir(parents=True)
    en = rng.normal(size=(N_WORDS, DIM))
    words = {lang: _words(lang) for lang in LANGS}
    _write_vectors(fix / "en.vec", words["en"], en)
    for lang in LANGS[1:]:
        q, r = np.linalg.qr(rng.normal(size=(DIM, DIM)))
        matrix = en @ (q * np.sign(np.diag(r))) + 0.1 * rng.normal(size=(N_WORDS, DIM))
        extra_words, extra = [], np.empty((0, DIM))
        if lang == "tr":  # two words that --lowercase folds into earlier ones
            extra_words, extra = ["SÖZ0", "Söz1"], rng.normal(size=(2, DIM))
        elif lang == "kk":  # a repeated word: the first row is kept
            extra_words, extra = [words["kk"][5]], rng.normal(size=(1, DIM))
        _write_vectors(fix / f"{lang}.vec", words[lang] + extra_words, np.vstack([matrix, extra]))
        src, tgt = words["en"], words[lang]
        # the training pairs, with a re-pointed target, a second target, a
        # repeated pair, OOV words on either side and multi-token sides
        train = [(src[i], tgt[i]) for i in TRAIN]
        train += [(src[300], tgt[5]), (src[7], tgt[8]), (src[2], tgt[2]),
                  ("nowhere", tgt[1]), (src[4], "nowhere"), ("ice cream", tgt[9]),
                  (src[9], "two words")]
        _write_pairs(fix / f"en-{lang}.tsv", train)
        _write_pairs(fix / f"{lang}-en.tsv", [(t, s) for s, t in train])
        test = [(src[i], tgt[i]) for i in TEST]
        _write_pairs(fix / f"en-{lang}.test.tsv", test + [(src[301], tgt[302])])
        _write_pairs(fix / f"en-{lang}.oov.tsv", test + [("nowhere", tgt[1])])

    # the dict-build word list and its replay cache: forward lookups of every
    # word but one, some multi-token or empty, back-translations that match,
    # differ, differ only in case or are missing, and one malformed line
    listed = words["en"][:N_LIST]
    (fix / "words.txt").write_text("".join(f"{w}\n" for w in listed) + "\n", encoding="utf-8")
    cache = []
    for i, word in enumerate(listed):
        if i == 11:
            continue
        translation = {3: "iki söz", 4: "", 5: " söz5 "}.get(i, words["tr"][i])
        cache.append((word, "en", "tr", translation))
        back = {20: "other", 21: word.upper()}.get(i, word)
        if i != 30:
            cache.append((words["tr"][i], "tr", "en", back))
    lines = ["\t".join(entry) for entry in cache]
    lines.insert(40, "en40\ten\ttr")
    (fix / "cache.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    _write_map_values(fix / "values.map", rng)

    base = {"reference": {"lang": "en", "path": str(fix / "en.vec")},
            "split": {"test_size": 40}, "seed": 7, "eval": {"ks": [1, 5, 10]}}

    def target(lang, direction="ref2other"):
        dict_file = f"en-{lang}.tsv" if direction == "ref2other" else f"{lang}-en.tsv"
        return {"lang": lang, "path": str(fix / f"{lang}.vec"), "dict": str(fix / dict_file),
                "dict_direction": direction}

    configs = {
        "run-orth": {**base, "targets": [target("tr"), target("kk", "other2ref"),
                                         target("uz")]},
        "run-multistep": {**base, "method": "multistep", "reweight_p": 0.25, "reduce_dim": 20,
                          "targets": [target("tr")]},
        "run-meemi": {**base, "method": "meemi", "targets": [target("kk", "other2ref")],
                      "lowercase": True, "max_words": 380},
        "run-meemi-multi": {**base, "method": "meemi-multi", "sources": ["tr"],
                            "targets": [target("tr"), target("kk"), target("uz")]},
        "run-explicit-test": {**base, "targets": [target("tr")], "clean_dicts": False,
                              "normalize": ["center", "unit"],
                              "eval": {"test": str(fix / "en-tr.test.tsv"), "ks": [1, 5, 10, 20],
                                       "oov_policy": "fail", "label": "explicit"}},
    }
    for name, config in configs.items():
        (fix / f"{name}.json").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")

    rows = "".join(f"w{i} 0.5\n" for i in range(2000))
    defects = {
        "enc.vec": b"3 2\na 1 2\nb 1 2\ncaf\xe9 1 2\n",
        "enc-far.vec": b"2001 1\n" + rows.encode() + b"caf\xe9 1\n",
        "cr.vec": b"3 2\ra 1 2\r\nb 1 2\r\xff 1 2\n",
        "header.vec": b"3 two\na 1 2\n",
        "arity.vec": b"2 2\na 1 2\nb 1\n",
        "value.vec": b"2 2\na 1 2\nb 1 x\n",
        "truncated.vec": b"3 2\na 1 2\nb 1 2\n",
        "arity-above-byte.vec": b"3 2\na 1 2\nb 1 2 3\n\xff 1 2\n",
        "value-above-byte.vec": b"3 2\na 1 x\nb 1 2\n\xff 1 2\n",
        "header-above-byte.vec": b"1 2\na 1 2\nb 1 2\n\xff 1 2\n",
        "arity-above-header.vec": b"2 2\na 1 2\nb 1\nc 1 2\n",
        "arity-folded.vec": b"3 2\na 1 2\na 1 2 3\nb 1 x\n",
        "enc.tsv": b"a\tb\nc\td\n\xff\tx\n",
        "cr.tsv": b"a\tb\rc\td\r\n\xe4\xb8\tx\n",
        "columns.tsv": b"a\tb\nc\td\te\nf\tg\n",
        "enc.words": b"en1\nen2\n\xffen3\n",
        "enc.cache": b"en1\ten\ttr\ts\xc3\xb6z1\nen2\ten\ttr\t\xed\xa0\x80\n",
        "enc.json": b'{"out_dir": "x\xff"}\n',
        "bad.json": b'{\n "seed": 1\n "method": "orthogonal"\n}\n',
        "list.json": b"[1, 2]\n",
        "enc.map": b"orthogonal 2 2\n1 0\n0 \xf0\x90\x801\n",
        "header.map": b"orthogonal 2 2\n1 0\n0 1\n\nwhitening 1\n1\n",
        "short.map": b"orthogonal 2 2\n1 0\n",
        "kind.map": b"rotation 2 2\n1 0\n0 1\n",
        "header-above-byte.map": b"orthogonal 2\n\xff\n",
        "zero-rows.map": b"orthogonal 0 2\n",
        "zero-cols.map": b"unconstrained 2 0\n\n\n",
    }
    for name, data in defects.items():
        (fix / "defects" / name).write_bytes(data)

    (fix / "huge").mkdir()
    for lang in ("en", "tr"):
        _write_vectors(fix / "huge" / f"{lang}.vec", words[lang][:30],
                       rng.normal(size=(30, 4)) * 1e200)
    _write_pairs(fix / "huge" / "en-tr.tsv", zip(words["en"][:20], words["tr"][:20]))

    # drawn after every file above, so those keep their bytes
    for name, lang, scale in (("plain", "tr", 1.0), ("max", "en", 1e308), ("max", "tr", 1e308)):
        (fix / name).mkdir(exist_ok=True)
        matrix = rng.uniform(0.75, 1.5, size=(30, 4)) if name == "max" \
            else rng.normal(size=(30, 4))
        _write_vectors(fix / name / f"{lang}.vec", words[lang][:30], matrix * scale)
    (fix / "fold").mkdir()  # two words that --lowercase folds, as in tr.vec
    _write_vectors(fix / "fold" / "en.vec", words["en"] + ["EN0", "En1"],
                   np.vstack([en, rng.normal(size=(2, DIM))]))

    # drawn after every file above, so those keep their bytes: an ordinary en
    # space and a tr space whose first column alternates between -1.79e308 and
    # 1.79e308, so its sum stays finite and its mean is about -1.79e308 / 30;
    # then two spaces whose paired rows near 1.7e308 share their signs
    (fix / "subtract").mkdir()
    column = np.where(np.arange(30) % 2, 1.79e308, -1.79e308)
    column[-1] = 0.5
    for lang, first in (("en", None), ("tr", column)):
        matrix = rng.normal(size=(30, 4))
        if first is not None:
            matrix[:, 0] = first
        _write_vectors(fix / "subtract" / f"{lang}.vec", words[lang][:30], matrix)
    (fix / "midpoint").mkdir()
    for lang in ("en", "tr"):
        _write_vectors(fix / "midpoint" / f"{lang}.vec", words[lang][:30],
                       rng.uniform(0.9, 1.0, size=(30, 4)) * 1.7e308)
    _write_pairs(fix / "midpoint" / "tr-en.tsv", zip(words["tr"][:20], words["en"][:20]))

    # drawn after every file above, so those keep their bytes: two spaces of
    # small integers, which keep the files short and quick to write
    (fix / "split").mkdir()
    for lang in ("en", "tr"):
        matrix = rng.integers(-9, 10, size=(N_SPLIT, DIM_SPLIT))
        rows = "".join(f"{w} {' '.join(map(str, row))}\n"
                       for w, row in zip(_words(lang, N_SPLIT), matrix.tolist()))
        (fix / "split" / f"{lang}.vec").write_text(f"{N_SPLIT} {DIM_SPLIT}\n{rows}",
                                                   encoding="utf-8")
    _write_pairs(fix / "split" / "en-tr.tsv", zip(_words("en", 2000), _words("tr", 2000)))

    # a word list whose second entry is two tokens
    (fix / "multi-token.words").write_text(f"{words['en'][0]}\na b\n{words['en'][1]}\n",
                                           encoding="utf-8")


def _fill(text: str, fix: Path, out: Path, cmd_id: str) -> str:
    return text.format(fix=fix, out=out, dir=out / cmd_id)


def run_side(tree: Path, fix: Path, out: Path) -> tuple[dict, dict]:
    """Run COMMANDS against the checkout tree, writing under out; return
    {id: (exit, stdout, stderr)} and {path under out: sha256}."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    where = subprocess.run([sys.executable, "-c", "import lexalign; print(lexalign.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).is_relative_to(tree):
        raise SystemExit(f"lexalign imports from {where.strip()}, not from {tree}")
    results = {}
    for cmd_id, argv, *stdin in COMMANDS:
        (out / cmd_id).mkdir(parents=True)
        argv = [_fill(arg, fix, out, cmd_id) for arg in argv]
        code = [LIBRARY[argv[0]], *argv[1:]] if argv[:1] and argv[0] in LIBRARY \
            else [LEXALIGN, *argv]
        feed = Path(_fill(stdin[0], fix, out, cmd_id)).read_bytes() if stdin else b""
        proc = subprocess.run([sys.executable, "-c", *code], env=env, cwd=out, input=feed,
                              capture_output=True, timeout=300)
        results[cmd_id] = (proc.returncode, proc.stdout, proc.stderr)
    files = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return results, files


def _first_difference(old, new) -> str:
    if isinstance(old, int):
        return f"{old} -> {new}"
    old, new = (text.decode(errors="replace").split("\n") for text in (old, new))
    i = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    return f"line {i + 1}: {old[i:i + 1]} -> {new[i:i + 1]}"


def compare(base: tuple[dict, dict], head: tuple[dict, dict]) -> tuple[list, int, int]:
    """The differences between two sides as (name, description), and the
    counts of identical files and commands."""
    (base_runs, base_files), (head_runs, head_files) = base, head
    diffs = []
    same_commands = 0
    for cmd_id, *_ in COMMANDS:
        before, after = base_runs[cmd_id], head_runs[cmd_id]
        for stream, old, new in zip(("exit", "stdout", "stderr"), before, after):
            if old != new:
                diffs.append((f"{cmd_id}:{stream}", _first_difference(old, new)))
        same_commands += before == after
    same_files = 0
    for name in sorted(base_files.keys() | head_files.keys()):
        old, new = base_files.get(name), head_files.get(name)
        if old == new:
            same_files += 1
        else:
            diffs.append((name, "only in base" if new is None else
                          "only in head" if old is None else "sha256 differs"))
    return diffs, same_files, same_commands


def _worktree(*args) -> None:
    subprocess.run(["git", "-C", str(ROOT), "worktree", *args], check=True,
                   stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="the revision compared against, such as a parent commit")
    parser.add_argument("head", help="the revision checked")
    parser.add_argument("--expect", action="append", default=[], metavar="GLOB",
                        help="declare the differences whose names match GLOB as intended")
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="lexalign-identity-"))
    fix, out, trees, src_lines = tmp / "fixture", tmp / "out", [], []
    try:
        make_fixture(fix)
        sides = []
        for name, rev in (("base", args.base), ("head", args.head)):
            tree = tmp / name
            _worktree("add", "--detach", str(tree), rev)
            trees.append(tree)
            src_lines.append(sum(path.read_bytes().count(b"\n")
                                 for path in (tree / "src" / "lexalign").glob("*.py")))
            sides.append(run_side(tree, fix, out))
            shutil.rmtree(out)
    finally:
        for tree in trees:
            _worktree("remove", "--force", str(tree))
        shutil.rmtree(tmp)
    diffs, same_files, same_commands = compare(*sides)
    failed = False
    for name, what in diffs:
        declared = any(fnmatch.fnmatchcase(name, glob) for glob in args.expect)
        failed |= not declared
        print(f"{'expected' if declared else 'DIFFERS'}: {name}: {what}")
    for glob in args.expect:
        if not any(fnmatch.fnmatchcase(name, glob) for name, _ in diffs):
            failed = True
            print(f"NOT FOUND: no difference matches --expect {glob!r}")
    print(f"{same_files} files, {same_commands} commands identical"
          + (f"; {len(diffs)} differences" if diffs else ""))
    print(f"src lines: {src_lines[0]} -> {src_lines[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
