"""Translation clients and round-trip dictionary construction.

The HTTP client speaks a small JSON protocol: POST {"q": word, "source":
from_lang, "target": to_lang} to one endpoint URL, optionally with a bearer
token, and expect {"translation": "..."} back. Every successful lookup is
appended to an on-disk cache, one line per entry:

    word<TAB>from_lang<TAB>to_lang<TAB>translation

ReplayClient serves the same cache without touching the network, so reruns
and tests are fully offline.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Protocol

from .dictionary import DictionaryPairs, first_bad_token, single_token
from .errors import DataError, LocatedError, TranslationError, read_lines

logger = logging.getLogger(__name__)

API_KEY_ENV = "LEXALIGN_TRANSLATE_KEY"
# Lookups wait on the network, so threads beyond a few dozen only add
# connections and throttling; the cap keeps a typo from starting thousands.
MAX_WORKERS = 64


class TranslationClient(Protocol):
    """A client may also hold a `table` dict {(word, from, to): translation}
    of answers translate would give, as ReplayClient and HttpTranslationClient
    do; a lookup found there is answered from it, without a call or a thread."""
    def translate(self, word: str, from_lang: str, to_lang: str) -> str: ...


def load_cache(path) -> dict:
    """Read a cache file into a {(word, from, to): translation} table."""
    table = {}
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t", 3)
        if len(cols) != 4:
            logger.warning("%s", LocatedError(f"ignoring malformed cache line {line!r}",
                                              line_no, path))
            continue
        word, src, tgt, translation = cols
        table[(word, src, tgt)] = translation
    return table


def _cache_line(word: str, from_lang: str, to_lang: str, translation: str) -> str:
    return f"{word}\t{from_lang}\t{to_lang}\t{translation}\n"


def append_cache(path, word: str, from_lang: str, to_lang: str, translation: str) -> None:
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(_cache_line(word, from_lang, to_lang, translation))


def _retry_after(resp) -> float:
    """Seconds a Retry-After header asks for; 0 when it is absent or not a
    whole number of seconds (the HTTP-date form is ignored)."""
    value = (getattr(resp, "headers", None) or {}).get("Retry-After")
    if isinstance(value, str):
        value = value.strip()
        if value.isascii() and value.isdigit():
            return float(value)
    return 0.0


class ReplayClient:
    """Serves translations from a cache only; anything missing fails."""

    def __init__(self, cache):
        if isinstance(cache, (str, os.PathLike)):
            self.table = load_cache(cache)
        else:
            self.table = dict(cache)

    def translate(self, word: str, from_lang: str, to_lang: str) -> str:
        try:
            return self.table[(word, from_lang, to_lang)]
        except KeyError:
            raise TranslationError(
                f"no cached translation for {word!r} {from_lang}->{to_lang}") from None


class HttpTranslationClient:
    """JSON-over-HTTP client with bounded retries, an optional requests-per-
    second cap, and a write-through cache.

    Retries cover connection failures, 5xx responses and 429; other 4xx
    statuses fail immediately. A 429 or 503 with a Retry-After of whole
    seconds waits at least that long, at most timeout, before the next try.
    The session, sleep and clock are injectable so tests run without a
    network or a wall clock. The API key falls back to the
    LEXALIGN_TRANSLATE_KEY environment variable.

    The cache file is opened on the first new entry and kept open; each
    entry is flushed before translate returns. close() (or leaving a with
    block) closes it, and the session when the client created it.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, rps: float | None = None,
                 cache_path=None, max_retries: int = 3, backoff: float = 0.5,
                 timeout: float = 30.0, session=None, sleep=time.sleep,
                 clock=time.monotonic):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if rps is not None and not 0 < rps < math.inf:
            raise ValueError("rps must be finite and positive")
        # imported here, not at module level: requests and urllib3 take a
        # noticeable share of every CLI start, and only this client needs them
        import requests
        self._request_error = requests.RequestException
        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.rps = rps
        self.cache_path = cache_path
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self._owns_session = session is None
        self._session = requests.Session() if self._owns_session else session
        self._sleep = sleep
        self._clock = clock
        self._lock = threading.Lock()
        self._next_slot = 0.0
        self._cache_file = None
        exists = cache_path is not None and os.path.exists(cache_path)
        self.table = load_cache(cache_path) if exists else {}

    def close(self) -> None:
        with self._lock:
            if self._cache_file is not None:
                self._cache_file.close()
                self._cache_file = None
        if self._owns_session:
            self._session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _throttle(self) -> None:
        if not self.rps:
            return
        with self._lock:
            now = self._clock()
            wait = self._next_slot - now
            self._next_slot = max(now, self._next_slot) + 1.0 / self.rps
        if wait > 0:
            self._sleep(wait)

    def translate(self, word: str, from_lang: str, to_lang: str) -> str:
        key = (word, from_lang, to_lang)
        with self._lock:
            if key in self.table:
                return self.table[key]
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {"q": word, "source": from_lang, "target": to_lang}
        last_error = None
        retry_after = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(max(self.backoff * 2 ** (attempt - 1),
                                min(retry_after, self.timeout)))
            self._throttle()
            try:
                resp = self._session.post(self.endpoint, json=payload,
                                          headers=headers, timeout=self.timeout)
            except self._request_error as exc:
                last_error = exc
                retry_after = 0.0
                continue
            if resp.status_code == 200:
                try:
                    translation = resp.json()["translation"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise TranslationError(f"malformed response for {word!r}: {exc}")
                if not isinstance(translation, str):
                    raise TranslationError(f"malformed response for {word!r}: "
                                           f"translation is {translation!r}")
                # keep the cache file format valid: a text-mode reader ends a
                # line at "\r" as well, so a replay sees what was served
                translation = translation.replace("\t", " ").replace("\n", " ").replace("\r", " ")
                with self._lock:
                    self.table[key] = translation
                    if self.cache_path is not None:
                        if self._cache_file is None:
                            self._cache_file = open(self.cache_path, "a", encoding="utf-8",
                                                    newline="\n")
                        self._cache_file.write(_cache_line(word, from_lang, to_lang,
                                                           translation))
                        self._cache_file.flush()
                return translation
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = TranslationError(f"HTTP {resp.status_code}")
                retry_after = (_retry_after(resp) if resp.status_code in (429, 503)
                               else 0.0)
                continue
            raise TranslationError(
                f"HTTP {resp.status_code} translating {word!r} {from_lang}->{to_lang}")
        raise TranslationError(f"giving up on {word!r} {from_lang}->{to_lang} after "
                               f"{self.max_retries + 1} attempts: {last_error}")


@dataclass
class TranslateSummary:
    requested: int = 0
    kept: int = 0
    dropped_multi_token: int = 0
    dropped_empty: int = 0
    failed: list[str] = field(default_factory=list)


@dataclass
class ReverseSummary:
    checked: int = 0
    kept: int = 0
    mismatched: int = 0
    failed: list[str] = field(default_factory=list)


def _translate_many(client, jobs, workers: int):
    """Run (word, from, to) jobs, returning (ok, value_or_message) in input order.

    Each distinct job is looked up once and its outcome copied to every
    repeat; one the client's table holds is answered in the calling thread.
    min(workers, other jobs) loops, 1 <= workers <= MAX_WORKERS, claim job
    indices from one shared counter, so no future is made per lookup. An
    exception other than TranslationError, in a loop or in the calling
    thread (Ctrl-C), stops every loop after its current lookup and propagates.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise DataError(f"workers must be between 1 and {MAX_WORKERS}, got {workers}")
    unique = list(dict.fromkeys(jobs))
    # a job the client's table does not answer (or answers None) is left to translate
    answers = list(map((getattr(client, "table", None) or {}).get, unique))
    outcomes = dict(zip(unique, zip(itertools.repeat(True), answers)))
    misses = [job for job, answer in zip(unique, answers) if answer is None]
    # next() on a count is one C call, so no two loops get the same index
    claim = itertools.count()
    stop = threading.Event()

    def drain(_slot):
        try:
            while not stop.is_set():
                i = next(claim)
                if i >= len(misses):
                    return
                job = misses[i]
                try:
                    outcomes[job] = True, client.translate(*job)
                except TranslationError as exc:
                    outcomes[job] = False, str(exc)
        except BaseException:
            stop.set()
            raise

    loops = min(workers, len(misses))
    if loops > 1:
        with ThreadPoolExecutor(max_workers=loops) as pool:
            try:
                list(pool.map(drain, range(loops)))
            except BaseException:  # such as Ctrl-C: the loops stop after their lookup
                stop.set()
                raise
    else:
        drain(0)
    return list(map(outcomes.__getitem__, jobs))


def translate_wordlist(client, words, src_lang: str, tgt_lang: str, workers: int = 1):
    """Translate every word src->tgt, keeping non-empty single-token results.

    Returns (pairs, summary). Lookup failures never abort the run: the word
    lands in summary.failed and processing continues. Multi-token and empty
    translations are dropped and counted.
    """
    words = list(words)
    if not words:
        raise DataError("empty word list")
    bad = first_bad_token(words)
    if bad is not None:
        raise DataError(f"word list entries must be single tokens, got {bad!r}")
    summary = TranslateSummary(requested=len(words))
    results = _translate_many(client, [(w, src_lang, tgt_lang) for w in words], workers)
    translated, translations, first_error = [], [], None
    for word, (ok, value) in zip(words, results):
        if ok:
            translated.append(word)
            translations.append(value.strip())
        else:
            summary.failed.append(word)
            first_error = first_error or value
    pairs = tuple(pair for pair in zip(translated, translations) if single_token(pair[1]))
    summary.dropped_empty = translations.count("")
    summary.dropped_multi_token = len(translations) - len(pairs) - summary.dropped_empty
    summary.kept = len(pairs)
    if first_error is not None:
        logger.warning("translate %s->%s: %d of %d lookups failed, the first with: %s",
                       src_lang, tgt_lang, len(summary.failed), summary.requested, first_error)
    logger.info("translate %s->%s: requested=%d kept=%d multi_token=%d empty=%d failed=%d",
                src_lang, tgt_lang, summary.requested, summary.kept,
                summary.dropped_multi_token, summary.dropped_empty, len(summary.failed))
    return DictionaryPairs(src_lang, tgt_lang, pairs), summary


def reverse_filter(client, d: DictionaryPairs, fold_case: bool = False, workers: int = 1):
    """Keep (s, t) only when t translates back to exactly s.

    Returns (pairs, summary). A failed back-translation drops the pair and is
    counted apart from genuine mismatches.
    """
    results = _translate_many(client, [(t, d.tgt_lang, d.src_lang) for _, t in d.pairs],
                              workers)
    summary = ReverseSummary(checked=len(d.pairs))
    kept = []
    for (s, t), (ok, value) in zip(d.pairs, results):
        if not ok:
            summary.failed.append(t)
            continue
        back = value.strip()
        match = back.casefold() == s.casefold() if fold_case else back == s
        if match:
            kept.append((s, t))
        else:
            summary.mismatched += 1
    summary.kept = len(kept)
    logger.info("reverse filter %s->%s: checked=%d kept=%d mismatched=%d failed=%d",
                d.src_lang, d.tgt_lang, summary.checked, summary.kept,
                summary.mismatched, len(summary.failed))
    return DictionaryPairs(d.src_lang, d.tgt_lang, tuple(kept)), summary
