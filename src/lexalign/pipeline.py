"""Declarative end-to-end runs: dictionary preparation, alignment, evaluation,
and a manifest that pins configuration and input hashes. The fitting path
(check_method, fit_method, load_space, write_space) is shared with the
align and align-multi commands.

A run is deterministic: the same configuration over the same inputs writes
byte-identical artifacts. While a run is in flight an INCOMPLETE marker file
sits in the output directory; it is removed only after the manifest is
written, so partial output is always recognizable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import platform
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from .align import (AlignedSpace, MultiSpace, align_multistep, align_orthogonal,
                    meemi_bilingual, meemi_multilingual)
from .dictionary import (DictionaryPairs, clean_dictionary, load_dictionary, orient,
                         split_dictionary)
from .embeddings import (DEFAULT_NORMALIZE, check_steps, load_embeddings, normalize,
                         save_embeddings)
from .errors import DataError, PipelineStageError
from .induction import precision_at_k, render_report
from .maps import save_maps

logger = logging.getLogger(__name__)

METHODS = ("orthogonal", "multistep", "meemi", "meemi-multi")
DICT_DIRECTIONS = ("ref2other", "other2ref")
STAGES = ("dict", "align", "eval")
INCOMPLETE_MARKER = "INCOMPLETE"


@dataclass
class PipelineConfig:
    """Validated run configuration; build one with from_dict."""

    reference: dict
    targets: list
    out_dir: str
    method: str = "orthogonal"
    normalize: tuple = DEFAULT_NORMALIZE
    reweight_p: float = 0.5
    reduce_dim: int | None = None
    sources: list = field(default_factory=list)
    split: dict | None = None
    eval: dict | None = None
    seed: int | None = None
    lowercase: bool = False
    max_words: int | None = None
    clean_dicts: bool = True

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        for key in ("reference", "targets", "out_dir"):
            if key not in raw:
                raise DataError(f"config is missing required key {key!r}")

        reference = _json_object(raw["reference"], "reference")
        if set(reference) != {"lang", "path"}:
            raise DataError("reference must have exactly the keys lang and path")

        targets = []
        if not isinstance(raw["targets"], list) or not raw["targets"]:
            raise DataError("targets must be a non-empty list")
        for entry in raw["targets"]:
            entry = _json_object(entry, "a target entry")
            extra = set(entry) - {"lang", "path", "dict", "dict_direction"}
            if extra or not {"lang", "path", "dict"} <= set(entry):
                raise DataError(f"target entry needs lang, path, dict "
                                f"(optional dict_direction); got {sorted(entry)}")
            entry.setdefault("dict_direction", "ref2other")
            if entry["dict_direction"] not in DICT_DIRECTIONS:
                raise DataError(f"dict_direction must be one of {DICT_DIRECTIONS}")
            targets.append(entry)

        method = raw.get("method", "orthogonal")
        sources = check_method(method, reference["lang"], [t["lang"] for t in targets],
                               raw.get("sources") or [])

        steps = check_steps(_typed("normalize", tuple, raw.get("normalize", DEFAULT_NORMALIZE)))

        reweight_p = _typed("reweight_p", float, raw.get("reweight_p", 0.5))
        if reweight_p < 0.0:
            raise DataError("reweight_p must be >= 0")
        reduce_dim = raw.get("reduce_dim")
        if reduce_dim is not None:
            reduce_dim = _typed("reduce_dim", int, reduce_dim)
            if reduce_dim < 1:
                raise DataError("reduce_dim must be positive")

        seed = raw.get("seed")
        split = raw.get("split")
        if split is not None:
            split = _json_object(split, "split")
            if set(split) - {"test_size", "seed"} or "test_size" not in split:
                raise DataError("split needs test_size (optional seed)")
            split["test_size"] = _typed("split.test_size", int, split["test_size"])
            if split["test_size"] < 1:
                raise DataError("split test_size must be positive")
            if split.get("seed") is None:
                if seed is None:
                    raise DataError("a split is configured but no seed is given")
                split["seed"] = seed
            split["seed"] = _typed("split.seed", int, split["seed"])

        evaluation = raw.get("eval")
        if evaluation is not None:
            evaluation = _json_object(evaluation, "eval")
            extra = set(evaluation) - {"test", "ks", "oov_policy", "label"}
            if extra:
                raise DataError(f"unknown eval keys: {sorted(extra)}")
            evaluation.setdefault("test", None)
            evaluation.setdefault("ks", [1, 5, 10])
            evaluation.setdefault("oov_policy", "skip")
            evaluation.setdefault("label", method)
            evaluation["ks"] = _typed("eval.ks", lambda ks: sorted({int(k) for k in ks}),
                                      evaluation["ks"])
            if not evaluation["ks"] or evaluation["ks"][0] < 1:
                raise DataError("eval ks must be positive integers")
            if evaluation["oov_policy"] not in ("skip", "fail"):
                raise DataError("eval oov_policy must be 'skip' or 'fail'")
            if evaluation["test"] is None and split is None:
                raise DataError("eval needs either a test dictionary or a split")

        max_words = raw.get("max_words")
        if max_words is not None:
            max_words = _typed("max_words", int, max_words)
            if max_words < 1:
                raise DataError("max_words must be positive")

        return cls(reference=reference, targets=targets, out_dir=str(raw["out_dir"]),
                   method=method, normalize=steps, reweight_p=reweight_p,
                   reduce_dim=reduce_dim, sources=sources, split=split,
                   eval=evaluation, seed=seed,
                   lowercase=bool(raw.get("lowercase", False)),
                   max_words=max_words,
                   clean_dicts=bool(raw.get("clean_dicts", True)))

    def canonical(self) -> dict:
        """Fully resolved configuration, suitable for hashing."""
        return {**asdict(self), "normalize": list(self.normalize)}


def _typed(key: str, convert, value):
    """convert(value), or DataError naming the config key when it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"config key {key} has a value of the wrong type: {value!r}") from None


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DataError(f"{what} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def check_method(method: str, ref_lang: str, langs: list, sources) -> list:
    """Validate a fitting method against the reference language, the target
    languages and the languages named as meemi-multi sources. Returns the
    sources as fit_method takes them: sorted with the reference added for
    meemi-multi, empty otherwise. Raises DataError."""
    if method not in METHODS:
        raise DataError(f"method must be one of {METHODS}, got {method!r}")
    if ref_lang in langs:
        raise DataError("a target repeats the reference language")
    if len(set(langs)) != len(langs):
        raise DataError("duplicate target languages")
    if method in ("multistep", "meemi") and len(langs) > 1:
        raise DataError(f"method {method!r} aligns one language pair per run; "
                        f"use meemi-multi for several targets")
    sources = set(sources)
    if method != "meemi-multi":
        if sources:
            raise DataError("sources only applies to method meemi-multi")
        return []
    bad = sources - {ref_lang, *langs}
    if bad:
        raise DataError(f"sources name unknown languages: {sorted(bad)}")
    return sorted(sources | {ref_lang})


def fit_method(method: str, reference, targets: dict, reweight_p: float = 0.5,
               reduce_dim: int | None = None, sources=(),
               all_combinations: bool = False) -> MultiSpace:
    """Align every target onto the reference with one method, after
    check_method has accepted it. targets maps each language to its
    (embedding, training dictionary); the dictionary may run either way.
    multistep takes reweight_p and reduce_dim, meemi-multi the checked
    sources and all_combinations."""
    ref_lang = reference.language
    if method == "multistep":
        (other, pairs), = targets.values()
        return align_multistep(reference, other, pairs, reweight_p=reweight_p,
                               reduce_dim=reduce_dim)
    rotated = {lang: (align_orthogonal(reference, other, pairs), pairs)
               for lang, (other, pairs) in targets.items()}
    if method == "meemi":
        (spaces, pairs), = rotated.values()
        return meemi_bilingual(spaces, pairs)
    hub = AlignedSpace(reference, (), ref_lang)
    if method == "meemi-multi":
        return meemi_multilingual(hub, [(spaces[lang], pairs)
                                        for lang, (spaces, pairs) in rotated.items()],
                                  set(sources), all_combinations=all_combinations)
    return MultiSpace({ref_lang: hub, **{lang: spaces[lang]
                                         for lang, (spaces, _) in rotated.items()}},
                      hub=ref_lang)


def load_space(path, lang, steps, max_words=None, lowercase=False):
    """Load an embedding file and apply the normalization steps, if any."""
    emb = load_embeddings(path, max_words, lowercase, language=lang)
    return normalize(emb, steps) if steps else emb


def write_space(space: AlignedSpace, vec_path, map_path) -> bool:
    """Write the aligned vectors, and the map chain when maps moved them;
    return whether a map file was written."""
    save_embeddings(space.embedding, vec_path)
    if space.maps_applied:
        save_maps(space.maps_applied, map_path)
    return bool(space.maps_applied)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextmanager
def _stage(name: str):
    logger.info("stage=%s status=start", name)
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        logger.error("stage=%s status=failed error=%s", name, exc)
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

    ref_lang = cfg.reference["lang"]
    input_paths = {cfg.reference["path"]}
    input_paths.update(t["path"] for t in cfg.targets)
    input_paths.update(t["dict"] for t in cfg.targets)
    if cfg.eval and cfg.eval["test"]:
        input_paths.add(cfg.eval["test"])
    artifact_names: list[str] = []

    def emit(name: str):
        artifact_names.append(name)
        return out / name

    train_dicts: dict[str, DictionaryPairs] = {}
    test_dicts: dict[str, DictionaryPairs] = {}
    with _stage("dict"):
        for target in cfg.targets:
            lang = target["lang"]
            langs = (ref_lang, lang) if target["dict_direction"] == "ref2other" \
                else (lang, ref_lang)
            pairs = load_dictionary(target["dict"], *langs)
            if cfg.clean_dicts:
                pairs = clean_dictionary(pairs)
            if cfg.split:
                train, test = split_dictionary(pairs, cfg.split["test_size"],
                                               cfg.split["seed"])
                from .dictionary import save_dictionary
                save_dictionary(train, emit(f"{ref_lang}-{lang}.train.tsv"))
                save_dictionary(test, emit(f"{ref_lang}-{lang}.test.tsv"))
                train_dicts[lang], test_dicts[lang] = train, test
            else:
                train_dicts[lang] = pairs

    with _stage("align"):
        reference = load_space(cfg.reference["path"], ref_lang, cfg.normalize,
                               cfg.max_words, cfg.lowercase)
        targets = {t["lang"]: (load_space(t["path"], t["lang"], cfg.normalize,
                                          cfg.max_words, cfg.lowercase),
                               train_dicts[t["lang"]])
                   for t in cfg.targets}
        spaces = fit_method(cfg.method, reference, targets, cfg.reweight_p,
                            cfg.reduce_dim, cfg.sources)
        for lang in spaces.languages():
            if write_space(spaces[lang], emit(f"{lang}.aligned.vec"), out / f"{lang}.map"):
                emit(f"{lang}.map")

    if cfg.eval:
        with _stage("eval"):
            reports = []
            for target in cfg.targets:
                lang = target["lang"]
                if cfg.eval["test"]:
                    langs = (ref_lang, lang) if target["dict_direction"] == "ref2other" \
                        else (lang, ref_lang)
                    test = load_dictionary(cfg.eval["test"], *langs)
                else:
                    test = test_dicts[lang]
                test = orient(test, ref_lang, lang)
                reports.append(precision_at_k(spaces[ref_lang], spaces[lang], test,
                                              ks=cfg.eval["ks"],
                                              oov_policy=cfg.eval["oov_policy"],
                                              method_label=cfg.eval["label"]))
            emit("report.json").write_text(render_report(reports, "json"),
                                           encoding="utf-8")
            emit("report.txt").write_text(render_report(reports, "table"),
                                          encoding="utf-8")

    canonical = cfg.canonical()
    config_json = json.dumps(canonical, sort_keys=True)
    manifest = {
        "config": canonical,
        "config_sha256": _sha256_text(config_json),
        "inputs": {path: _sha256_file(path) for path in sorted(input_paths)},
        "artifacts": {name: _sha256_file(out / name) for name in sorted(artifact_names)},
        "versions": {
            "lexalign": _package_version(),
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


def _package_version() -> str:
    from . import __version__
    return __version__
