"""Measured child process: runs lexalign on generated inputs and reports raw timings.

    worker.py retrieval SPEC_JSON
    worker.py dictbuild SPEC_JSON
    worker.py cli REPORT_JSON TRACE LEXALIGN_ARGS...

SPEC_JSON holds inputs, seconds, fixed, trace and out (and for dictbuild
seed, test_size and work); the result goes to the file named by out.

Each workload runs in its own process so that peak RSS belongs to the program
and its inputs, not to the generator or the reference checks. With fixed
set, a worker does a fixed amount of work instead of filling the seconds
(used to compare a traced and an untraced process on identical work). cli
runs the lexalign command line, with every layer wrapped when TRACE is 1, and
writes import time, peak RSS and spans to REPORT_JSON when it returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

INDUCE_K = 10
# Each worker repeats short rounds over its whole window, at least
# MIN_ROUNDS of them, so that medians ride out the host's bursts of load.
MIN_ROUNDS = 5
# retrieval rounds: normalize + align, precision_at_k over one of EVAL_CHUNKS
# parts of the held-out words, then INDUCE_PER_ROUND single induce calls
EVAL_CHUNKS = 5
INDUCE_PER_ROUND = 10
# dictbuild rounds: a cold pass that writes the cache, then replay passes over it
REPLAYS_PER_ROUND = 2
WORKERS = 2
BACKOFF_S = 0.001
ENDPOINT = "http://translate.invalid/v1"


def peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
    leaves out the parent's memory that a child inherits until exec."""
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def retrieval(inputs: Path, seconds: float, fixed: bool, tracer: Tracer | None) -> dict:
    import numpy as np

    import gen
    from lexalign import DEFAULT_NORMALIZE, VocabEmbedding
    from lexalign import align, dictionary, embeddings, induction

    def space(lang):
        words = (inputs / f"{lang}.words").read_text(encoding="utf-8").split()
        return VocabEmbedding(lang, words, np.load(inputs / f"{lang}.npy"))

    en, tr = space("en"), space("tr")
    train = dictionary.load_dictionary(inputs / "train.tsv", "en", "tr")
    test = dictionary.load_dictionary(inputs / "test.tsv", "tr", "en")
    if tracer:
        tracer.install()

    chunks = [dictionary.DictionaryPairs("tr", "en", pairs)
              for pairs in gen.eval_chunks(test.pairs, EVAL_CHUNKS)]
    queries = test.source_words()
    # a fixed run sets up once, evaluates every part once and makes two
    # induce calls per part
    calls = 2 if fixed else INDUCE_PER_ROUND
    window = time.perf_counter()
    setup_s, eval_s, reports, induce_s, answers = [], [], [], [], {}
    while len(eval_s) < (EVAL_CHUNKS if fixed else MIN_ROUNDS) or (
            not fixed and time.perf_counter() - window < seconds):
        if not (fixed and setup_s):
            start = time.perf_counter()
            ms = align.align_orthogonal(embeddings.normalize(en, DEFAULT_NORMALIZE),
                                        embeddings.normalize(tr, DEFAULT_NORMALIZE), train)
            setup_s.append(time.perf_counter() - start)
            src, tgt = ms["tr"], ms["en"]
        chunk = len(eval_s) % EVAL_CHUNKS
        start = time.perf_counter()
        report = induction.precision_at_k(src, tgt, chunks[chunk], (1, 5, 10))
        eval_s.append(time.perf_counter() - start)
        reports.append({"chunk": chunk, "precision": report.precision,
                        "evaluated": report.evaluated})
        for _ in range(calls):
            word = queries[len(induce_s) % len(queries)]
            start = time.perf_counter()
            result = induction.induce(src.embedding.vector(word), tgt, INDUCE_K)
            induce_s.append(time.perf_counter() - start)
            answers.setdefault(word, result)
    window = time.perf_counter() - window

    return {"setup_s": setup_s, "eval_s": eval_s, "induce_s": induce_s,
            "window_s": window,
            "reports": reports,
            "answers": answers}


def _build(client, words, seed, test_size, prefix: Path) -> dict:
    from lexalign import dictionary, translate

    pairs, forward = translate.translate_wordlist(client, words, "en", "tr", workers=WORKERS)
    kept, backward = translate.reverse_filter(client, pairs, workers=WORKERS)
    cleaned = dictionary.clean_dictionary(kept)
    train, test = dictionary.split_dictionary(cleaned, test_size, seed)
    dictionary.save_dictionary(train, f"{prefix}.train.tsv")
    dictionary.save_dictionary(test, f"{prefix}.test.tsv")
    return {"lookups": forward.requested + backward.checked,
            "failed": len(forward.failed) + len(backward.failed),
            "kept": backward.kept,
            "files": [Path(f"{prefix}.train.tsv").read_text(encoding="utf-8"),
                      Path(f"{prefix}.test.tsv").read_text(encoding="utf-8")]}


def dictbuild(inputs: Path, seconds: float, fixed: bool, tracer: Tracer | None,
              seed: int, test_size: int, work: Path) -> dict:
    import gen
    from lexalign import translate

    words = (inputs / "words.txt").read_text(encoding="utf-8").split()
    if tracer:
        tracer.install()
    cache = work / "translate-cache.tsv"
    window = time.perf_counter()
    cold_passes, replay_passes = [], []
    while len(cold_passes) < (1 if fixed else MIN_ROUNDS) or (
            not fixed and time.perf_counter() - window < seconds):
        cache.unlink(missing_ok=True)
        session = gen.FakeSession(seed, len(words))
        start = time.perf_counter()
        client = translate.HttpTranslationClient(ENDPOINT, cache_path=cache, session=session,
                                                 backoff=BACKOFF_S)
        client_s = time.perf_counter() - start
        start = time.perf_counter()
        built = _build(client, words, seed, test_size, work / "cold")
        cold_passes.append({"s": time.perf_counter() - start, "client_s": client_s, **built,
                            "endpoint": {"requests": session.requests,
                                         "answered": session.answered,
                                         "wait_s": session.wait_s}})
        for _ in range(1 if fixed else REPLAYS_PER_ROUND):
            start = time.perf_counter()
            replay_client = translate.ReplayClient(cache)
            setup_s = client_s + time.perf_counter() - start
            start = time.perf_counter()
            built = _build(replay_client, words, seed, test_size, work / "replay")
            replay_passes.append({"s": time.perf_counter() - start, "setup_s": setup_s,
                                  **built})
    return {"cold": cold_passes, "replay": replay_passes,
            "window_s": time.perf_counter() - window}


def cli(report: Path, trace: bool, argv: list[str]) -> int:
    start = time.perf_counter()
    import lexalign.cli
    import_s = time.perf_counter() - start
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        return lexalign.cli.main(argv)
    finally:
        report.write_text(json.dumps({"import_s": import_s, "peak_rss_mb": peak_rss_mb(),
                                      "spans": tracer.spans if tracer else []}),
                          encoding="utf-8")


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return cli(Path(argv[1]), argv[2] == "1", argv[3:])
    spec = json.loads(argv[1])
    inputs, seconds, fixed = Path(spec["inputs"]), spec["seconds"], spec["fixed"]
    tracer = Tracer() if spec["trace"] else None
    if mode == "retrieval":
        result = retrieval(inputs, seconds, fixed, tracer)
    elif mode == "dictbuild":
        result = dictbuild(inputs, seconds, fixed, tracer, spec["seed"], spec["test_size"],
                           Path(spec["work"]))
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    result["spans"] = tracer.spans if tracer else []
    result["peak_rss_mb"] = peak_rss_mb()
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
