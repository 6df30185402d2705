"""Seeded synthetic inputs for the benchmark.

Every input is a pure function of (workload, size, seed). Two embedding
spaces share a rank-40 latent and differ by isotropic noise and a random
rotation, so an orthogonal map recovers most of the structure and precision
at 1 lands near one half. Files are cached on disk under a directory keyed by
workload, size and seed, and re-verified by sha256 on every use, so
generation never runs inside a timed region.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import threading
import time
from pathlib import Path

import numpy as np

RANK = 40
NOISE = 1.5  # per-coordinate noise over a unit-variance latent; P@1 ~0.5 at 50k words
DECIMALS = 6
SECOND_GOLD_SHARE = 0.05  # source words given a second (random) translation
DUPLICATES = 100
MULTI_TOKEN = 50
CACHE_KEEP = 6  # generated input sets kept per workload

SIZES = {
    "pipeline": {"full": {"vocab": 5000, "dim": 300, "pairs": 2500, "test": 500},
                 "smoke": {"vocab": 2000, "dim": 100, "pairs": 600, "test": 100}},
    "retrieval": {"full": {"vocab": 50000, "dim": 300, "pairs": 6000, "test": 1000},
                  "smoke": {"vocab": 3000, "dim": 100, "pairs": 600, "test": 200}},
    "dictbuild": {"full": {"words": 10000, "test": 1000},
                  "smoke": {"words": 1000, "test": 100}},
}

# fake translation endpoint behaviour, as shares of the word list
MULTI_SHARE = 0.05      # forward answer has two tokens
MISMATCH_SHARE = 0.10   # back-translation names a different source word
FLAKY_SHARE = 0.01      # first request of each direction answers 503
SERVICE_DELAY_S = 200e-6


def word(lang: str, i: int) -> str:
    return f"{lang}{i:05d}"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def spaces(seed: int, vocab: int, dim: int):
    """(en, tr, order): en row i and tr row order[i] hold the same concept,
    so the tr row at index j is the word tr{order^-1[j]}. Values are rounded
    to DECIMALS so parsing the written text reproduces them bit for bit.
    The last result is kept, so the reference checks reuse a fresh generation."""
    rng = np.random.default_rng([seed, 1])
    latent = rng.standard_normal((vocab, RANK)) @ (rng.standard_normal((RANK, dim))
                                                   / np.sqrt(RANK))
    en = latent + NOISE * rng.standard_normal((vocab, dim))
    tr = latent + NOISE * rng.standard_normal((vocab, dim))
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    tr = tr @ (q * np.sign(np.diag(r)))
    order = rng.permutation(vocab)
    tr_rows = np.empty_like(tr)
    tr_rows[order] = tr
    return np.round(en, DECIMALS), np.round(tr_rows, DECIMALS), order


def tr_words(order) -> list[str]:
    words = [""] * len(order)
    for concept, row in enumerate(order):
        words[row] = word("tr", concept)
    return words


def dictionary_pairs(seed: int, vocab: int, pairs: int):
    """Raw en->tr training dictionary: `pairs` gold pairs over frequent words,
    a share with a second random translation, plus exact duplicates and
    multi-token entries for cleaning to remove. Returned in file order."""
    rng = random.Random(seed * 7919 + 3)
    sources = rng.sample(range(min(vocab, max(2 * pairs, pairs + 1000))), pairs)
    out = [(word("en", i), word("tr", i)) for i in sources]
    for i in rng.sample(sources, int(SECOND_GOLD_SHARE * pairs)):
        out.append((word("en", i), word("tr", rng.randrange(vocab))))
    out += rng.sample(out, DUPLICATES)
    for _ in range(MULTI_TOKEN):
        i, j = rng.randrange(vocab), rng.randrange(vocab)
        out.append((word("en", i), f"{word('tr', i)} {word('tr', j)}"))
    rng.shuffle(out)
    return out


def write_vec(path, words, matrix) -> None:
    """Write the text format. Fields are built with integer arithmetic, which
    gives the bytes "%.6f" would (except that -0 prints as 0) at C speed."""
    k = np.rint(matrix * 10 ** DECIMALS).astype(np.int64)
    whole, frac = np.divmod(np.abs(k), 10 ** DECIMALS)
    if whole.max() >= 100:
        raise ValueError("values must lie in (-100, 100)")
    nul = 0  # padding byte, dropped before writing
    fields = np.full(k.shape + (5 + DECIMALS,), nul, dtype=np.uint8)
    fields[..., 0] = ord(" ")
    fields[..., 1] = np.where(k < 0, ord("-"), nul)
    fields[..., 2] = np.where(whole >= 10, ord("0") + whole // 10, nul)
    fields[..., 3] = ord("0") + whole % 10
    fields[..., 4] = ord(".")
    for j in range(DECIMALS):
        fields[..., 4 + DECIMALS - j] = ord("0") + frac % 10
        frac //= 10
    with open(path, "wb") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n".encode())
        for w, row in zip(words, fields):
            fh.write(w.encode() + row.tobytes().replace(b"\0", b"") + b"\n")


def write_tsv(path, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{s}\t{t}\n" for s, t in pairs)


def _write_pipeline(d: Path, seed: int, p: dict) -> None:
    en, tr, order = spaces(seed, p["vocab"], p["dim"])
    write_vec(d / "en.vec", [word("en", i) for i in range(p["vocab"])], en)
    write_vec(d / "tr.vec", tr_words(order), tr)
    write_tsv(d / "en-tr.tsv", dictionary_pairs(seed, p["vocab"], p["pairs"]))


def retrieval_split(seed: int, vocab: int, pairs: int, test: int):
    """Disjoint training pairs (en->tr) and held-out test pairs (tr->en)."""
    rng = random.Random(seed * 7919 + 5)
    chosen = rng.sample(range(min(vocab, 4 * (pairs + test))), pairs + test)
    train = [(word("en", i), word("tr", i)) for i in chosen[:pairs]]
    held = [(word("tr", i), word("en", i)) for i in chosen[pairs:]]
    return train, held


def eval_chunks(pairs, n: int) -> list[list]:
    """Split test pairs into n parts by distinct source word, round robin in
    first-appearance order, keeping each source's pairs together."""
    sources = list(dict.fromkeys(s for s, _ in pairs))
    part = {s: i % n for i, s in enumerate(sources)}
    return [[(s, t) for s, t in pairs if part[s] == i] for i in range(n)]


def _write_retrieval(d: Path, seed: int, p: dict) -> None:
    en, tr, order = spaces(seed, p["vocab"], p["dim"])
    np.save(d / "en.npy", en)
    np.save(d / "tr.npy", tr)
    (d / "en.words").write_text("\n".join(word("en", i) for i in range(p["vocab"])) + "\n",
                                encoding="utf-8")
    (d / "tr.words").write_text("\n".join(tr_words(order)) + "\n", encoding="utf-8")
    train, held = retrieval_split(seed, p["vocab"], p["pairs"], p["test"])
    write_tsv(d / "train.tsv", train)
    write_tsv(d / "test.tsv", held)


def wordlist(seed: int, n: int) -> list[str]:
    words = [word("en", i) for i in range(n)]
    random.Random(seed * 7919 + 11).shuffle(words)
    return words


def _write_dictbuild(d: Path, seed: int, p: dict) -> None:
    (d / "words.txt").write_text("\n".join(wordlist(seed, p["words"])) + "\n",
                                 encoding="utf-8")


_WRITERS = {"pipeline": _write_pipeline, "retrieval": _write_retrieval,
            "dictbuild": _write_dictbuild}


def ensure_inputs(cache_root: Path, workload: str, size: str, seed: int) -> Path:
    """Directory holding the workload's inputs for (size, seed), generating
    them on a miss or when any file fails its recorded sha256."""
    d = cache_root / f"{workload}-{size}-s{seed}"
    record = d / "sha256.json"
    if record.exists():
        expected = json.loads(record.read_text(encoding="utf-8"))
        if all((d / name).exists() and sha256_file(d / name) == digest
               for name, digest in expected.items()):
            os.utime(d)
            return d
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    _WRITERS[workload](d, seed, SIZES[workload][size])
    digests = {f.name: sha256_file(f) for f in sorted(d.iterdir())}
    record.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
    _evict(cache_root, workload, keep=d)
    return d


def _evict(cache_root: Path, workload: str, keep: Path) -> None:
    entries = sorted((p for p in cache_root.glob(f"{workload}-*") if p != keep),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[CACHE_KEEP - 1:]:
        shutil.rmtree(old, ignore_errors=True)


class FakeResponse:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        return self._payload


class FakeSession:
    """In-process stand-in for the translation endpoint, deterministic per seed.

    en{i} translates to tr{perm[i]}; a MULTI_SHARE of words get a two-token
    answer, a MISMATCH_SHARE translate back to a neighbouring source word,
    and a FLAKY_SHARE answer 503 to the first request in each direction.
    Every request sleeps SERVICE_DELAY_S, releasing the GIL like a socket wait.
    """

    def __init__(self, seed: int, n_words: int, delay: float = SERVICE_DELAY_S):
        rng = np.random.default_rng([seed, 2])
        self.n = n_words
        self.perm = rng.permutation(n_words)
        self.inv = np.argsort(self.perm)
        u = rng.random(n_words)
        self.multi = u < MULTI_SHARE
        self.mismatch = (u >= MULTI_SHARE) & (u < MULTI_SHARE + MISMATCH_SHARE)
        self.flaky = rng.random(n_words) < FLAKY_SHARE
        self.delay = delay
        self._lock = threading.Lock()
        self._failed_once: set = set()
        self.requests = 0
        self.answered = 0
        self.wait_s = 0.0

    def expected_kept(self) -> list[tuple[str, str]]:
        """Round-trip survivors as (en, tr) pairs, in en index order."""
        keep = ~(self.multi | self.mismatch)
        return [(word("en", i), word("tr", int(self.perm[i])))
                for i in np.flatnonzero(keep)]

    def _answer(self, q: str, source: str) -> str:
        i = int(q[2:])
        if source == "en":
            j = int(self.perm[i])
            if self.multi[i]:
                return f"{word('tr', j)} {word('tr', int(self.perm[(i + 1) % self.n]))}"
            return word("tr", j)
        concept = int(self.inv[i])
        if self.mismatch[concept]:
            return word("en", (concept + 1) % self.n)
        return word("en", concept)

    def post(self, url, json=None, headers=None, timeout=None):
        start = time.perf_counter()
        time.sleep(self.delay)
        q, source = json["q"], json["source"]
        concept = int(q[2:]) if source == "en" else int(self.inv[int(q[2:])])
        key = (q, source)
        with self._lock:
            self.requests += 1
            fail = bool(self.flaky[concept]) and key not in self._failed_once
            if fail:
                self._failed_once.add(key)
            else:
                self.answered += 1
            self.wait_s += time.perf_counter() - start
        if fail:
            return FakeResponse(503)
        return FakeResponse(200, {"translation": self._answer(q, source)})
