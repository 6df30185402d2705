"""Spans around lexalign's public functions, recorded from outside the program.

The tracer replaces module attributes with timing wrappers: the names a
caller resolves at call time (``lexalign.pipeline.load_embeddings``,
``lexalign.align.procrustes``, ...). Spans stay in memory; `layer_metrics`
folds them into the per-layer figures. No lexalign source is modified.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time


def _file_bytes(arg_index):
    return lambda args, result: {"bytes": os.path.getsize(args[arg_index])}


def _target_work(args, result, queries):
    v, d = _matrix(args[1]).shape
    return {"queries": queries, "flop": 2.0 * v * d * queries, "bytes": 8.0 * v * d * queries}


def _matrix(space):
    return getattr(space, "embedding", space).matrix


# (module, attribute, span name, work counter taking (args, result) -> dict)
WRAPS = [
    ("lexalign.cli", "run_pipeline", "pipeline.run", None),
    ("lexalign.pipeline", "_sha256_file", "pipeline.hash", _file_bytes(0)),
    ("lexalign.pipeline", "load_embeddings", "embeddings.load", _file_bytes(0)),
    ("lexalign.pipeline", "save_embeddings", "embeddings.save", _file_bytes(1)),
    ("lexalign.pipeline", "normalize", "embeddings.normalize", None),
    ("lexalign.embeddings", "normalize", "embeddings.normalize", None),
    ("lexalign.pipeline", "load_dictionary", "dictionary.load", None),
    ("lexalign.dictionary", "load_dictionary", "dictionary.load", None),
    ("lexalign.pipeline", "clean_dictionary", "dictionary.clean",
     lambda a, r: {"pairs": len(a[0])}),
    ("lexalign.dictionary", "clean_dictionary", "dictionary.clean",
     lambda a, r: {"pairs": len(a[0])}),
    ("lexalign.pipeline", "split_dictionary", "dictionary.split", None),
    ("lexalign.dictionary", "split_dictionary", "dictionary.split", None),
    ("lexalign.dictionary", "save_dictionary", "dictionary.save", None),
    ("lexalign.pipeline", "align_orthogonal", "align.orthogonal", None),
    ("lexalign.align", "align_orthogonal", "align.orthogonal", None),
    ("lexalign.pipeline", "meemi_bilingual", "align.meemi", None),
    ("lexalign.align", "build_paired_matrices", "maps.paired",
     lambda a, r: {"pairs": len(r)}),
    ("lexalign.align", "procrustes", "maps.procrustes", None),
    ("lexalign.align", "least_squares_map", "maps.least_squares", None),
    ("lexalign.pipeline", "save_maps", "maps.save", None),
    ("lexalign.pipeline", "precision_at_k", "induction.eval",
     lambda a, r: _target_work(a, r, r.evaluated)),
    ("lexalign.induction", "precision_at_k", "induction.eval",
     lambda a, r: _target_work(a, r, r.evaluated)),
    ("lexalign.induction", "induce", "induction.induce",
     lambda a, r: _target_work(a, r, 1)),
    ("lexalign.translate", "translate_wordlist", "translate.forward", None),
    ("lexalign.translate", "reverse_filter", "translate.reverse", None),
    ("lexalign.translate", "append_cache", "translate.cache_append", None),
    ("lexalign.translate", "load_cache", "translate.cache_load", None),
]


class Tracer:
    """Collects (name, start, end, parent, counts) spans from every thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list = []
        self._warmed: set = set()

    def wrap(self, owner, attr: str, name: str, count=None, before_first=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before_first is not None and name not in self._warmed:
                self._warmed.add(name)
                with self.span("maps.first_lapack"):
                    before_first(*args)
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    record["counts"] = count(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def span(self, name: str):
        return _Span(self, name)

    def install(self) -> None:
        """Wrap every WRAPS entry, plus a one-off warm-up before the first SVD
        and the first Cholesky in the process, timed as maps.first_lapack so
        that cost is not charged to fitting."""
        import numpy as np
        import scipy.linalg

        warm = {
            "maps.procrustes": lambda pm: np.linalg.svd(pm.X.T @ pm.Z),
            "maps.least_squares": lambda a, b, *rest: scipy.linalg.cho_factor(
                a.T @ a + np.eye(a.shape[1])),
        }
        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            self.wrap(module, attr, name, count, warm.get(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = {"id": next(tracer._ids), "name": name, "counts": {}}

    def __enter__(self):
        stack = self.tracer._local.__dict__.setdefault("stack", [])
        self.record["parent"] = stack[-1] if stack else None
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._local.stack.pop()
        self.tracer.spans.append(self.record)
        return False


def _total(spans, name, key=None):
    if key is None:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _self_time(spans, prefix, keep=()):
    """Duration of spans named prefix* minus the time their direct children
    cover, except children named in `keep`, which count as the parent's own."""
    own = {s["id"]: s["end"] - s["start"] for s in spans if s["name"].startswith(prefix)}
    for s in spans:
        if s["parent"] in own and s["name"] not in keep:
            own[s["parent"]] -= s["end"] - s["start"]
    return sum(own.values())


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans, extra: dict) -> dict:
    """Per-layer metrics from spans; `extra` supplies what spans cannot see
    (endpoint counters, process wall times, trace overhead)."""
    mb = 1e6
    load_s, save_s = _total(spans, "embeddings.load"), _total(spans, "embeddings.save")
    lookups = extra.get("translate.lookups", 0)
    fetched = extra.get("translate.answered", 0)
    requests = extra.get("translate.requests", 0)
    return {
        "embeddings.load_s": load_s,
        "embeddings.load_mb_per_s": _rate(_total(spans, "embeddings.load", "bytes") / mb, load_s),
        "embeddings.save_s": save_s,
        "embeddings.save_mb_per_s": _rate(_total(spans, "embeddings.save", "bytes") / mb, save_s),
        "embeddings.normalize_s": _total(spans, "embeddings.normalize"),
        "induction.eval_s": _total(spans, "induction.eval"),
        "induction.eval_queries": _total(spans, "induction.eval", "queries"),
        "induction.induce_s": _total(spans, "induction.induce"),
        "induction.score_gflop": (_total(spans, "induction.eval", "flop")
                                  + _total(spans, "induction.induce", "flop")) / 1e9,
        "induction.bytes_gb": (_total(spans, "induction.eval", "bytes")
                               + _total(spans, "induction.induce", "bytes")) / 1e9,
        "translate.lookups": lookups,
        "translate.requests": requests,
        "translate.cache_hit_ratio": _rate(lookups - fetched, lookups),
        "translate.attempts_per_lookup": _rate(requests, fetched),
        "translate.endpoint_wait_s": extra.get("translate.endpoint_wait_s", 0.0),
        "translate.cache_append_s": _total(spans, "translate.cache_append"),
        "translate.cache_load_s": _total(spans, "translate.cache_load"),
        "dictionary.load_s": _total(spans, "dictionary.load"),
        "dictionary.clean_s": _total(spans, "dictionary.clean"),
        "dictionary.split_s": _total(spans, "dictionary.split"),
        "dictionary.save_s": _total(spans, "dictionary.save"),
        "dictionary.pairs": _total(spans, "dictionary.clean", "pairs"),
        "maps.paired_s": _total(spans, "maps.paired"),
        "maps.procrustes_s": _total(spans, "maps.procrustes"),
        "maps.least_squares_s": _total(spans, "maps.least_squares"),
        "maps.save_s": _total(spans, "maps.save"),
        "maps.first_lapack_s": _total(spans, "maps.first_lapack"),
        "maps.pairs_used": _total(spans, "maps.paired", "pairs"),
        "align.orthogonal_s": _total(spans, "align.orthogonal"),
        "align.meemi_s": _total(spans, "align.meemi"),
        "align.self_s": _self_time(spans, "align."),
        "pipeline.run_s": _total(spans, "pipeline.run"),
        "pipeline.self_s": _self_time(spans, "pipeline.run", keep=("pipeline.hash",)),
        "pipeline.hash_mb": _total(spans, "pipeline.hash", "bytes") / mb,
        "cli.import_s": extra.get("cli.import_s", 0.0),
        "cli.process_s": extra.get("cli.process_s", 0.0),
        "trace.overhead_s": extra["trace.overhead_s"],
    }
