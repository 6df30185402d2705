"""The three workloads: drive lexalign, collect timings, check every output.

Each workload function takes a Context and returns an Outcome whose metrics
use the names in BENCHMARK.json: the end-to-end set when ctx.trace is false,
the per-layer set (tracer.layer_metrics) when it is true.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import reference
import worker
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
# pipeline rounds: a fresh `lexalign --version`, a fresh-process run, then a
# warm in-process run. Short rounds over the whole window keep a burst of
# host load out of the medians, and it hits cold and warm runs alike.
MIN_ROUNDS = 5
LAPACK_WARMUP_DIM = 300


@dataclass
class Context:
    src: Path
    work: Path
    seed: int
    seconds: float
    size: str
    trace: bool

    @property
    def cache(self) -> Path:
        return self.work / "inputs"


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail=None) -> bool:
        """Record a named check; a failing check marks one operation failed."""
        previous = self.checks.get(name, {"ok": True})
        self.checks[name] = {"ok": previous["ok"] and bool(ok),
                             **({"detail": detail} if detail is not None else {})}
        if not ok:
            self.failed += 1
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks.values())


def child_env(ctx: Context) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.src)
    tmp = ctx.work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(ctx: Context, cmd: list, log: Path) -> tuple[float, int]:
    """Run cmd to completion with output appended to log; return (wall seconds,
    exit code). A child past CHILD_TIMEOUT_S is killed (exit code -9).

    The wait blocks in waitpid: subprocess's own timeout polls with sleeps of
    up to 50 ms, which would round every wall time up by as much."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ctx.work, env=child_env(ctx), stdout=fh,
                                 stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            rc = child.wait()
        finally:
            watchdog.cancel()
            child.kill()
            child.wait()
        return time.perf_counter() - start, rc


def tail(samples) -> dict:
    """The highest of a few standard percentiles with at least ten samples above it,
    with the sample count."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            return {"percentile": pct, "value": float(np.percentile(samples, pct)),
                    "samples": n}
    return {"percentile": 100.0, "value": float(max(samples)), "samples": n}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(out: Path) -> dict:
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def _lapack_warmup() -> None:
    """Start numpy's and scipy's BLAS/LAPACK thread pools, as any earlier fit would."""
    import scipy.linalg
    a = np.random.default_rng(0).standard_normal((4 * LAPACK_WARMUP_DIM, LAPACK_WARMUP_DIM))
    c = a.T @ a
    np.linalg.svd(c)
    scipy.linalg.cho_factor(c + np.eye(LAPACK_WARMUP_DIM))


# ---------------------------------------------------------------- pipeline

def pipeline(ctx: Context) -> Outcome:
    """Fresh-process `lexalign run` (meemi, seeded split, eval) on text vectors."""
    p = gen.SIZES["pipeline"][ctx.size]
    inputs = gen.ensure_inputs(ctx.cache, "pipeline", ctx.size, ctx.seed)
    run_dir = ctx.work / "pipeline"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir, log = run_dir / "out", run_dir / "children.log"
    cfg = {"reference": {"lang": "en", "path": str(inputs / "en.vec")},
           "targets": [{"lang": "tr", "path": str(inputs / "tr.vec"),
                        "dict": str(inputs / "en-tr.tsv")}],
           "out_dir": str(out_dir), "method": "meemi",
           "split": {"test_size": p["test"]}, "seed": ctx.seed, "eval": {}}
    config = run_dir / "config.json"
    config.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    version = [sys.executable, "-m", "lexalign.cli", "--version"]
    report = run_dir / "cli-report.json"
    o = Outcome()

    def cold(trace: bool):
        """One fresh-process `lexalign run`: (wall, cli report, output snapshot)."""
        shutil.rmtree(out_dir, ignore_errors=True)
        report.unlink(missing_ok=True)
        wall, rc = run_child(ctx, [sys.executable, str(HERE / "worker.py"), "cli", str(report),
                                   str(int(trace)), "run", "--config", str(config)], log)
        o.attempted += 1
        ok = rc == 0 and report.exists()
        if not o.check("run_exit_0", ok, None if ok else f"exit {rc}, see {log}"):
            return wall, None, None
        return wall, json.loads(report.read_text(encoding="utf-8")), snapshot(out_dir)

    def version_run() -> float:
        wall, rc = run_child(ctx, version, log)
        o.check("version_exit_0", rc == 0)
        return wall

    snapshots = []
    if not ctx.trace:
        from lexalign import LexalignError, PipelineConfig, run_pipeline
        _lapack_warmup()
        setup, cold_s, warm_s, rss = [], [], [], []
        window = time.perf_counter()
        while len(cold_s) < MIN_ROUNDS or time.perf_counter() - window < ctx.seconds:
            setup.append(version_run())
            wall, child, snap = cold(trace=False)
            if child is None:
                return o
            cold_s.append(wall)
            rss.append(child["peak_rss_mb"])
            snapshots.append(snap)
            shutil.rmtree(out_dir, ignore_errors=True)
            o.attempted += 1
            start = time.perf_counter()
            try:
                run_pipeline(PipelineConfig.from_dict(cfg))
            except LexalignError as exc:
                o.check("warm_run_ok", False, repr(exc))
                return o
            warm_s.append(time.perf_counter() - start)
            snapshots.append(snapshot(out_dir))
        o.metrics = {"setup_s": statistics.median(setup),
                     "batch_s": statistics.median(cold_s),
                     "repeat_s": statistics.median(warm_s),
                     "peak_rss_mb": max(rss)}
        o.details.update(cold_runs_s=cold_s, warm_runs_s=warm_s, version_s=setup)
    else:
        version_run()
        untraced, child, snap = cold(trace=False)
        traced, traced_child, traced_snap = cold(trace=True)
        if child is None or traced_child is None:
            return o
        snapshots += [snap, traced_snap]
        spans = traced_child["spans"]
        run_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "pipeline.run")
        o.metrics = layer_metrics(spans, {"cli.import_s": traced_child["import_s"],
                                          "cli.process_s": traced - run_s,
                                          "trace.overhead_s": traced - untraced})
        o.details.update(untraced_run_s=untraced, traced_run_s=traced,
                         layer_cover_s=_cover(o.metrics))

    _check_pipeline_outputs(ctx, o, p, inputs, out_dir, snapshots)
    o.details["working_set_bytes"] = p["vocab"] * p["dim"] * 8
    return o


def _cover(m: dict) -> float:
    """Sum of disjoint per-layer times in one traced `lexalign run`: the process
    outside run_pipeline plus every leaf and self time inside it."""
    keys = ("cli.process_s", "pipeline.self_s", "embeddings.load_s", "embeddings.save_s",
            "embeddings.normalize_s", "dictionary.load_s", "dictionary.clean_s",
            "dictionary.split_s", "dictionary.save_s", "maps.paired_s", "maps.procrustes_s",
            "maps.least_squares_s", "maps.save_s", "maps.first_lapack_s", "align.self_s",
            "induction.eval_s")
    return sum(m[k] for k in keys)


def _check_pipeline_outputs(ctx, o, p, inputs, out_dir, snapshots) -> None:
    good = [s for s in snapshots if s is not None]
    if not good:
        return
    o.check("reruns_byte_identical", all(s == good[0] for s in good),
            f"{len(good)} runs compared")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    o.check("manifest_artifact_hashes",
            manifest["artifacts"] == {k: v for k, v in good[0].items()
                                      if k != "manifest.json"})
    recorded = json.loads((inputs / "sha256.json").read_text(encoding="utf-8"))
    o.check("manifest_input_hashes",
            manifest["inputs"] == {str(inputs / k): v for k, v in recorded.items()
                                   if k != "sha256.json"})
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))[0]
    en, tr, order = gen.spaces(ctx.seed, p["vocab"], p["dim"])
    hits, evaluated = reference.pipeline_meemi(
        en, [gen.word("en", i) for i in range(p["vocab"])], tr, gen.tr_words(order),
        gen.dictionary_pairs(ctx.seed, p["vocab"], p["pairs"]), p["test"], ctx.seed)
    _check_precision(o, report["precision"], report["evaluated"], hits, evaluated)


def _check_precision(o, precision: dict, evaluated: int, hits: dict, expected: int) -> None:
    pinned = {k: hits[k] / expected for k in reference.KS}
    got = {k: float(precision[str(k)]) for k in reference.KS}
    o.check("precision_pinned", evaluated == expected and got == pinned,
            {"got": got, "pinned": pinned, "evaluated": evaluated})
    o.details.update(precision_at_1=got[1], precision_at_10=got[10], evaluated=evaluated)


# ---------------------------------------------------------------- retrieval

def _worker(ctx: Context, mode: str, spec: dict, log: Path) -> dict | None:
    out = ctx.work / f"{mode}-result.json"
    out.unlink(missing_ok=True)
    spec = {**spec, "out": str(out), "seconds": ctx.seconds}
    _, rc = run_child(ctx, [sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec)],
                      log)
    if rc != 0 or not out.exists():
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def retrieval(ctx: Context) -> Outcome:
    """In-memory spaces: batch precision@k, then a closed loop of single induce calls."""
    p = gen.SIZES["retrieval"][ctx.size]
    inputs = gen.ensure_inputs(ctx.cache, "retrieval", ctx.size, ctx.seed)
    log = ctx.work / "retrieval.log"
    log.unlink(missing_ok=True)
    o = Outcome()
    spec = {"inputs": str(inputs), "fixed": ctx.trace, "trace": False}
    result = _worker(ctx, "retrieval", spec, log)
    if result is None:
        o.attempted += 1
        o.check("worker_ok", False, f"see {log}")
        return o
    if ctx.trace:
        traced = _worker(ctx, "retrieval", {**spec, "trace": True}, log)
        if not o.check("traced_worker_ok", traced is not None, f"see {log}"):
            return o
        o.metrics = layer_metrics(traced["spans"], {
            "trace.overhead_s": traced["window_s"] - result["window_s"]})
    else:
        o.metrics = {"setup_s": statistics.median(result["setup_s"]),
                     "batch_s": statistics.median(result["eval_s"]),
                     "repeat_s": statistics.median(result["induce_s"]),
                     "peak_rss_mb": result["peak_rss_mb"]}
    o.attempted += len(result["setup_s"]) + len(result["eval_s"]) + len(result["induce_s"])

    en, tr, order = gen.spaces(ctx.seed, p["vocab"], p["dim"])
    en_words, tr_words = [gen.word("en", i) for i in range(p["vocab"])], gen.tr_words(order)
    train, test = gen.retrieval_split(ctx.seed, p["vocab"], p["pairs"], p["test"])
    tr_al, en_n, hits, evaluated = reference.retrieval_orthogonal(en, en_words, tr, tr_words,
                                                                  train, test)
    tr_index, en_index = ({w: i for i, w in enumerate(ws)} for ws in (tr_words, en_words))
    chunks = [reference.hits_at_k(tr_al, tr_index, en_n, en_index, pairs)
              for pairs in gen.eval_chunks(test, worker.EVAL_CHUNKS)]
    for report in result["reports"]:
        _check_precision(o, report["precision"], report["evaluated"], *chunks[report["chunk"]])
    o.check("every_chunk_evaluated",
            {r["chunk"] for r in result["reports"]} == set(range(worker.EVAL_CHUNKS)))
    o.details.update(precision_at_1=hits[1] / evaluated, precision_at_10=hits[10] / evaluated,
                     evaluated=evaluated)
    asked = list(result["answers"])
    order_k, scores = reference.top_k(tr_al[[tr_index[w] for w in asked]], en_n, 10)
    for word, top, top_scores in zip(asked, order_k, scores):
        got = result["answers"][word]
        o.check("induce_matches_reference",
                [w for w, _ in got] == [en_words[i] for i in top]
                and np.allclose([s for _, s in got], top_scores, rtol=0, atol=1e-9))
    induce_ms = [1e3 * s for s in result["induce_s"]]
    o.details.update(eval_qps=statistics.median(r["evaluated"] / s for r, s in
                                                zip(result["reports"], result["eval_s"])),
                     induce_p50_ms=statistics.median(induce_ms),
                     induce_tail_ms=tail(induce_ms),
                     eval_runs_s=result["eval_s"], setup_runs_s=result["setup_s"],
                     working_set_bytes=p["vocab"] * p["dim"] * 8)
    return o


# ---------------------------------------------------------------- dictbuild

def dictbuild(ctx: Context) -> Outcome:
    """Round-trip dictionary build: cold pass through the fake endpoint, then replay."""
    p = gen.SIZES["dictbuild"][ctx.size]
    inputs = gen.ensure_inputs(ctx.cache, "dictbuild", ctx.size, ctx.seed)
    work = ctx.work / "dictbuild"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "worker.log"
    o = Outcome()
    spec = {"inputs": str(inputs), "fixed": ctx.trace, "trace": False, "seed": ctx.seed,
            "test_size": p["test"], "work": str(work)}
    result = _worker(ctx, "dictbuild", spec, log)
    if result is None:
        o.attempted += 1
        o.check("worker_ok", False, f"see {log}")
        return o
    passes = result
    if ctx.trace:
        traced = _worker(ctx, "dictbuild", {**spec, "trace": True}, log)
        if not o.check("traced_worker_ok", traced is not None, f"see {log}"):
            return o
        cold, replay = traced["cold"][0], traced["replay"][0]
        o.metrics = layer_metrics(traced["spans"], {
            "translate.lookups": cold["lookups"] + replay["lookups"],
            "translate.requests": cold["endpoint"]["requests"],
            "translate.answered": cold["endpoint"]["answered"],
            "translate.endpoint_wait_s": cold["endpoint"]["wait_s"],
            "trace.overhead_s": traced["window_s"] - result["window_s"]})
        passes = {k: result[k] + traced[k] for k in ("cold", "replay")}
    else:
        o.metrics = {"setup_s": statistics.median(r["setup_s"] for r in result["replay"]),
                     "batch_s": statistics.median(c["s"] for c in result["cold"]),
                     "repeat_s": statistics.median(r["s"] for r in result["replay"]),
                     "peak_rss_mb": result["peak_rss_mb"]}

    session = gen.FakeSession(ctx.seed, p["words"])
    expected = set(session.expected_kept())
    expected_503 = int(session.flaky.sum() + (session.flaky & ~session.multi).sum())
    for c in passes["cold"]:
        o.check("endpoint_retries",
                c["endpoint"]["requests"] - c["endpoint"]["answered"] == expected_503)
    first = passes["cold"][0]["files"]
    for built in passes["cold"] + passes["replay"]:
        o.attempted += 1
        o.check("no_failed_lookups", built["failed"] == 0, built["failed"])
        o.check("dict_pairs_kept", built["kept"] == len(expected),
                {"kept": built["kept"], "expected": len(expected)})
        train, test = ([tuple(line.split("\t")) for line in text.splitlines()]
                       for text in built["files"])
        o.check("split_matches_rule",
                set(train) | set(test) == expected
                and len(train) + len(test) == len(expected)
                and len({s for s, _ in test}) == p["test"]
                and not {s for s, _ in train} & {s for s, _ in test})
        o.check("passes_write_identical_files", built["files"] == first)
    cold_s = statistics.median(c["s"] for c in passes["cold"])
    replay_s = statistics.median(r["s"] for r in passes["replay"])
    o.details.update(dict_pairs_kept=passes["cold"][0]["kept"],
                     cold_runs_s=[c["s"] for c in passes["cold"]],
                     replay_runs_s=[r["s"] for r in passes["replay"]],
                     translate_cold_wps=p["words"] / cold_s,
                     translate_replay_wps=p["words"] / replay_s,
                     working_set_bytes=None)
    return o


WORKLOADS = {"pipeline": pipeline, "retrieval": retrieval, "dictbuild": dictbuild}
