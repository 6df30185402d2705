"""Declarative end-to-end runs: dictionary preparation, alignment, evaluation,
and a manifest that pins configuration and input hashes. read_dictionary,
fit_files and write_spaces are the one path from files to a fit and back, one
process per space, that run and the align, align-multi and meemi commands share.

A run is deterministic: the same configuration over the same inputs writes
byte-identical artifacts. While a run is in flight an INCOMPLETE marker file
sits in the output directory; it is removed only after the manifest is
written, so partial output is always recognizable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import platform
import signal
import sys
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .align import MultiSpace, check_method, fit_method
# unused here, but perfbench/tracer.py wraps them as attributes of this module
from .align import align_orthogonal, meemi_bilingual  # noqa: F401
from .dictionary import (DictionaryPairs, clean_dictionary, load_dictionary, orient,
                         split_dictionary)
from .embeddings import check_steps, load_embeddings, normalize, save_embeddings
from .errors import DataError, LexalignError, PipelineStageError
from .induction import precision_at_k, render_report
from .maps import save_maps
from .options import DEFAULT_NORMALIZE, DICT_DIRECTIONS, OOV_POLICIES, ORTHOGONAL

logger = logging.getLogger(__name__)

INCOMPLETE_MARKER = "INCOMPLETE"


@dataclass
class Reference:
    lang: str
    path: str


@dataclass
class Target:
    lang: str
    path: str
    dict: str
    dict_direction: str = "ref2other"


@dataclass
class Split:
    test_size: int
    seed: int | None = None


@dataclass
class Eval:
    test: str | None = None
    ks: list[int] = field(default_factory=lambda: [1, 5, 10])
    oov_policy: str = "skip"
    label: str | None = None


@dataclass
class PipelineConfig:
    """Validated run configuration; build one with from_dict. The field
    annotations, nested dataclasses included, are the JSON schema of a run
    config: from_dict checks every key against them."""

    reference: Reference
    targets: list[Target]
    out_dir: str
    method: str = ORTHOGONAL
    normalize: list[str] = field(default_factory=lambda: list(DEFAULT_NORMALIZE))
    reweight_p: float = 0.5
    reduce_dim: int | None = None
    sources: list[str] | None = field(default_factory=list)
    split: Split | None = None
    eval: Eval | None = None
    seed: int | None = None
    lowercase: bool = False
    max_words: int | None = None
    clean_dicts: bool = True

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Check raw against the annotations, then the rules a type cannot
        state. raw is not modified. Raises DataError."""
        if isinstance(raw, dict) and "targets" in raw:
            if not isinstance(raw["targets"], list) or not raw["targets"]:
                raise DataError("targets must be a non-empty list")
            if not all(isinstance(entry, dict) for entry in raw["targets"]):
                raise DataError("a target entry must be a JSON object")
        cfg = _convert(cls, raw, "")
        for key, value in [("out_dir", cfg.out_dir), ("reference.lang", cfg.reference.lang),
                           ("reference.path", cfg.reference.path),
                           *[(f"targets.{name}", getattr(t, name)) for t in cfg.targets
                             for name in ("lang", "path", "dict")],
                           ("eval.test", cfg.eval and cfg.eval.test)]:
            if value == "":
                raise DataError(f"config key {key} must not be an empty string")
        if any(t.dict_direction not in DICT_DIRECTIONS for t in cfg.targets):
            raise DataError(f"dict_direction must be one of {DICT_DIRECTIONS}")
        # before check_method, which refuses any reduce_dim with a method other than multistep
        if cfg.reduce_dim is not None and cfg.reduce_dim < 1:
            raise DataError("reduce_dim must be positive")
        cfg.sources = check_method(cfg.method, cfg.reference.lang, [t.lang for t in cfg.targets],
                                   cfg.sources or [], cfg.reduce_dim)
        cfg.normalize = list(check_steps(cfg.normalize))
        if cfg.reweight_p < 0.0:
            raise DataError("reweight_p must be >= 0")
        if cfg.max_words is not None and cfg.max_words < 1:
            raise DataError("max_words must be positive")
        if cfg.split:
            if cfg.split.test_size < 1:
                raise DataError("split test_size must be positive")
            if cfg.split.seed is None:
                if cfg.seed is None:
                    raise DataError("a split is configured but no seed is given")
                cfg.split.seed = cfg.seed
        if cfg.eval:
            if "label" not in raw["eval"]:
                cfg.eval.label = cfg.method
            cfg.eval.ks = sorted(set(cfg.eval.ks))
            if not cfg.eval.ks or cfg.eval.ks[0] < 1:
                raise DataError("eval ks must be positive integers")
            if cfg.eval.oov_policy not in OOV_POLICIES:
                raise DataError(f"eval oov_policy must be one of {OOV_POLICIES}")
            if cfg.eval.test is None and cfg.split is None:
                raise DataError("eval needs either a test dictionary or a split")
        return cfg

    def canonical(self) -> dict:
        """Fully resolved configuration, suitable for hashing."""
        return asdict(self)


def _convert(kind, value, key: str):
    """value checked against the annotation kind and built into it: X | None
    (X written first), list[X], a config dataclass (a JSON object with no
    unknown and no missing key), a finite float (an int widens) or an exact
    int, str or bool (a bool is not an int). key names value in the
    DataError raised on a mismatch; list items share their list's key."""
    args = get_args(kind)
    if type(None) in args:
        return None if value is None else _convert(args[0], value, key)
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise DataError(f"{key or 'the config'} must be a JSON object, "
                            f"got {type(value).__name__}")
        prefix = f"{key}." if key else ""
        unknown = set(value) - {f.name for f in fields(kind)}
        if unknown:
            raise DataError(f"unknown config keys: {sorted(prefix + name for name in unknown)}")
        for f in fields(kind):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise DataError(f"config is missing required key {prefix + f.name!r}")
        hints = get_type_hints(kind)
        return kind(**{f.name: _convert(hints[f.name], value[f.name], prefix + f.name)
                       for f in fields(kind) if f.name in value})
    if get_origin(kind) is list and isinstance(value, list):
        return [_convert(args[0], item, key) for item in value]
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in (int, str, bool) and type(value) is kind:
        return value
    raise DataError(f"config key {key} has a value of the wrong type: {value!r}")


def _serve(calls, indices, fd: int) -> None:
    """In a child: run calls[i] for each i of indices in turn, and send down the pipe
    fd, for each, (the records of the package's loggers and the warnings it raised, in
    the order they came, whether it returned, the result or exception), pickled with
    protocol 5. Stop after an exception; exit."""
    try:
        events, log = [], logging.getLogger(__package__)
        log.handlers, log.propagate = [logging.Handler()], False
        log.handlers[0].emit = events.append
        warnings.showwarning = lambda message, category, filename, lineno, *_: \
            events.append((message, category, filename, lineno))
        with open(fd, "wb") as pipe:
            for i in indices:
                try:
                    answer = (True, calls[i]())
                except BaseException as exc:
                    answer = (False, exc)
                pickle.dump((events, *answer), pipe, 5)
                pipe.flush()
                if not answer[0]:
                    break
                events.clear()
                del answer  # the result goes before the next call runs
        os._exit(0)
    finally:
        os._exit(1)


def _replay(events) -> None:
    """Emit a child's log records and warnings here, as if raised here: a warning goes
    through the filters and the registry of the module that raised it, so one shown
    here already is not shown again."""
    for event in events:
        if isinstance(event, logging.LogRecord):
            logging.getLogger(event.name).handle(event)
            continue
        message, category, filename, lineno = event
        module = next((vars(m) for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        warnings.warn_explicit(message, category, filename, lineno,
                               module and module["__name__"],
                               module and module.setdefault("__warningregistry__", {}))


def _forked(calls, names) -> list:
    """[call() for call in calls], spread over this process and at most one child per
    further CPU it may run on (none off Linux): with n processes, call i runs in
    process i % n, this one being process 0, and each child runs its calls one after
    another (see _serve). Results, log records, warnings and the first exception come
    back in call order; every child is reaped; one that ends unanswered is named by
    names[i]."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(cpus, len(calls)))
    children = {}  # process number -> (pid, read end of its pipe)
    try:
        for child in range(1, n):
            read, write = os.pipe()
            if not (pid := os.fork()):
                _serve(calls, range(child, len(calls), n), write)
            os.close(write)
            children[child] = (pid, open(read, "rb"))
        results = []
        for i, call in enumerate(calls):
            if not i % n:
                results.append(call())
                continue
            pid, pipe = children[i % n]
            try:
                answer = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child ended mid-answer or before
                answer = None
            if answer is None or i + n >= len(calls):  # the child's last answer
                del children[i % n]
                pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if answer is None:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise LexalignError(f"{names[i]}: the process working on it {how}")
            events, returned, value = answer
            _replay(events)
            if not returned:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def load_space(path, lang, steps, max_words=None, lowercase=False):
    """Load an embedding file and apply the normalization steps, if any, in
    place: nothing else holds the matrix just parsed."""
    emb = load_embeddings(path, max_words, lowercase, language=lang)
    return normalize(emb, steps, copy=False) if steps else emb


def load_spaces(files, steps=(), max_words=None, lowercase=False) -> list:
    """load_space over (path, lang) files, each in a process of its own (see _forked)."""
    return _forked([partial(load_space, path, lang, steps, max_words, lowercase)
                    for path, lang in files], [path for path, _ in files])


def read_dictionary(path, ref_lang: str, lang: str, direction: str) -> DictionaryPairs:
    """The dictionary file as ref_lang -> lang pairs when direction is
    ref2other, as lang -> ref_lang pairs otherwise."""
    langs = (ref_lang, lang) if direction == "ref2other" else (lang, ref_lang)
    return load_dictionary(path, *langs)


def fit_files(method: str, reference, targets, dictionaries: dict, steps=(),
              max_words=None, lowercase=False, sources=(), **fit_params) -> MultiSpace:
    """fit_method over (path, lang) files, after check_method has accepted the
    target list as given, so a repeated target is caught, and fit_params.
    dictionaries maps each target language to its pairs. fit_method consumes
    every space, so each input goes once its output exists."""
    ref_lang = reference[1]
    sources = check_method(method, ref_lang, [lang for _, lang in targets], sources,
                           fit_params.get("reduce_dim"), fit_params.get("all_combinations", False))
    spaces = dict(zip([lang for _, lang in [reference, *targets]],
                      load_spaces([reference, *targets], steps, max_words, lowercase)))
    return fit_method(method, ref_lang, spaces, dictionaries, sources=sources, **fit_params)


def write_spaces(items) -> None:
    """Write each (space, vec_path, map_path) item in a process of its own (see
    _forked): the vectors, then the maps that moved them, to map_path or vec_path
    + ".map". Every file is created here first, in serial order; one that cannot
    be is raised once those before it are written. Items sharing a file go in order."""
    jobs, failure = [], None
    for space, vec_path, map_path in items:
        files = [(save_embeddings, space.embedding, vec_path)]
        if space.maps_applied:
            files.append((save_maps, space.maps_applied, map_path or f"{vec_path}.map"))
        for n, (*_, path) in enumerate(files):
            try:
                open(path, "wb").close()
            except OSError as exc:
                failure, files = exc, files[:n]
                break
        jobs += [files] if files else []
        if failure:
            break
    paths = [path for files in jobs for *_, path in files]
    if len({os.stat(path)[1:3] for path in paths}) < len(paths):
        jobs = [sum(jobs, [])]

    def write(files):
        for save, what, path in files:
            save(what, path)
    _forked([partial(write, files) for files in jobs], [files[0][2] for files in jobs])
    if failure:
        raise failure


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def _stage(name: str):
    logger.info("stage=%s status=start", name)
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc
    logger.info("stage=%s status=done", name)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the configured run and return the manifest (also written to
    out_dir/manifest.json). Raises PipelineStageError on any stage failure,
    leaving the INCOMPLETE marker in place."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / INCOMPLETE_MARKER
    marker.write_text("run started; artifacts may be partial\n", encoding="utf-8")

    ref_lang = cfg.reference.lang
    input_paths = {cfg.reference.path, *(path for t in cfg.targets for path in (t.path, t.dict))}
    if cfg.eval and cfg.eval.test:
        input_paths.add(cfg.eval.test)
    artifact_names: list[str] = []

    def emit(name: str):
        artifact_names.append(name)
        return out / name

    train_dicts: dict[str, DictionaryPairs] = {}
    test_dicts: dict[str, DictionaryPairs] = {}
    with _stage("dict"):
        for target in cfg.targets:
            lang = target.lang
            pairs = read_dictionary(target.dict, ref_lang, lang, target.dict_direction)
            if cfg.clean_dicts:
                pairs = clean_dictionary(pairs)
            if cfg.split:
                train, test = split_dictionary(pairs, cfg.split.test_size, cfg.split.seed)
                from .dictionary import save_dictionary
                save_dictionary(train, emit(f"{ref_lang}-{lang}.train.tsv"))
                save_dictionary(test, emit(f"{ref_lang}-{lang}.test.tsv"))
                train_dicts[lang], test_dicts[lang] = train, test
            else:
                train_dicts[lang] = pairs

    with _stage("align"):
        spaces = fit_files(cfg.method, (cfg.reference.path, ref_lang),
                           [(t.path, t.lang) for t in cfg.targets], train_dicts,
                           cfg.normalize, cfg.max_words, cfg.lowercase, cfg.sources,
                           reweight_p=cfg.reweight_p, reduce_dim=cfg.reduce_dim)
        write_spaces([(spaces[lang], emit(f"{lang}.aligned.vec"),
                       emit(f"{lang}.map") if spaces[lang].maps_applied else None)
                      for lang in spaces.languages()])

    if cfg.eval:
        with _stage("eval"):
            reports = []
            for target in cfg.targets:
                lang = target.lang
                if cfg.eval.test:
                    test = read_dictionary(cfg.eval.test, ref_lang, lang, target.dict_direction)
                else:
                    test = test_dicts[lang]
                test = orient(test, ref_lang, lang)
                # each target is scored once, and its vectors are written
                # already: eval may divide its matrix in place
                reports.append(precision_at_k(spaces[ref_lang], spaces[lang], test,
                                              ks=cfg.eval.ks,
                                              oov_policy=cfg.eval.oov_policy,
                                              method_label=cfg.eval.label,
                                              in_place=True))
            emit("report.json").write_text(render_report(reports, "json"),
                                           encoding="utf-8")
            emit("report.txt").write_text(render_report(reports, "table"),
                                          encoding="utf-8")

    # imported here, not at module level: where numpy has the LAPACKE that
    # maps._lapacke finds, a run needs scipy only for this version string
    import scipy

    canonical = cfg.canonical()
    config_json = json.dumps(canonical, sort_keys=True)
    manifest = {
        "config": canonical,
        "config_sha256": hashlib.sha256(config_json.encode("utf-8")).hexdigest(),
        "inputs": {path: _sha256_file(path) for path in sorted(input_paths)},
        "artifacts": {name: _sha256_file(out / name) for name in sorted(artifact_names)},
        "versions": {
            "lexalign": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                                       encoding="utf-8")
    marker.unlink()
    logger.info("run complete: %d artifacts in %s", len(artifact_names) + 1, out)
    return manifest
