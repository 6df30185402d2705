"""Bilingual dictionary container and pure lexicon operations."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace

from .errors import DataError, DictionaryFormatError, read_lines

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DictionaryPairs:
    """Ordered (source, target) word pairs between two named languages.

    Duplicate pairs are representable on purpose: cleaning is an explicit
    operation, not a constructor side effect.
    """

    src_lang: str
    tgt_lang: str
    pairs: tuple[tuple[str, str], ...]
    provenance: str = "file"

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((s, t) for s, t in self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def source_words(self) -> list[str]:
        """Distinct source words in first-appearance order."""
        return list(dict.fromkeys(s for s, _ in self.pairs))


def transpose(d: DictionaryPairs) -> DictionaryPairs:
    """Swap the two sides of every pair."""
    return DictionaryPairs(d.tgt_lang, d.src_lang,
                           tuple((t, s) for s, t in d.pairs), d.provenance)


def orient(d: DictionaryPairs, src_lang: str, tgt_lang: str) -> DictionaryPairs:
    """Return d as src_lang -> tgt_lang, transposing when stored the other way."""
    if (d.src_lang, d.tgt_lang) == (src_lang, tgt_lang):
        return d
    if (d.src_lang, d.tgt_lang) == (tgt_lang, src_lang):
        return transpose(d)
    raise DataError(f"dictionary covers {d.src_lang}->{d.tgt_lang}, "
                    f"needed {src_lang}->{tgt_lang}")


def single_token(word: str) -> bool:
    """True for a non-empty word with no whitespace in it."""
    return bool(word) and word.split() == [word]


def clean_dictionary(d: DictionaryPairs) -> DictionaryPairs:
    """Drop exact duplicate pairs (first kept) and pairs where either side is
    empty or spans more than one token. Idempotent, order-preserving."""
    return replace(d, pairs=tuple(pair for pair in dict.fromkeys(d.pairs)
                                  if single_token(pair[0]) and single_token(pair[1])))


def merge_dictionaries(a: DictionaryPairs, b: DictionaryPairs,
                       reapply_token_filter: bool = False) -> DictionaryPairs:
    """Concatenate a then b and drop duplicate pairs, keeping first occurrences.

    A source word may keep several translations. Token filtering is not
    re-applied unless requested.
    """
    if (a.src_lang, a.tgt_lang) != (b.src_lang, b.tgt_lang):
        raise DataError(f"language pair mismatch: {a.src_lang}-{a.tgt_lang}"
                        f" vs {b.src_lang}-{b.tgt_lang}")
    merged = DictionaryPairs(a.src_lang, a.tgt_lang, tuple(dict.fromkeys(a.pairs + b.pairs)),
                             provenance="merged")
    return clean_dictionary(merged) if reapply_token_filter else merged


def split_dictionary(d: DictionaryPairs, test_size: int, seed: int):
    """Hold out every pair of `test_size` randomly sampled distinct source
    words; remaining pairs form the training set. Both halves keep the
    original pair order. Deterministic for a given seed."""
    if test_size < 1:
        raise DataError("test_size must be positive")
    sources = d.source_words()
    if test_size >= len(sources):
        raise DataError(f"test_size {test_size} must be below the "
                        f"{len(sources)} distinct source words")
    held_out = set(random.Random(seed).sample(sources, test_size))
    train = tuple(p for p in d.pairs if p[0] not in held_out)
    test = tuple(p for p in d.pairs if p[0] in held_out)
    return (DictionaryPairs(d.src_lang, d.tgt_lang, train, provenance="split-train"),
            DictionaryPairs(d.src_lang, d.tgt_lang, test, provenance="split-test"))


def load_dictionary(path, src_lang: str = "src", tgt_lang: str = "tgt",
                    on_bad_lines: str = "error") -> DictionaryPairs:
    """Read one pair per line: tab-separated when a tab is present, otherwise
    single-space separated. Blank lines are ignored. A line without exactly
    two non-empty columns raises (on_bad_lines="error", with the line number)
    or is skipped and counted (on_bad_lines="skip")."""
    if on_bad_lines not in ("error", "skip"):
        raise ValueError(f"on_bad_lines must be 'error' or 'skip', got {on_bad_lines!r}")
    pairs = []
    skipped = 0
    for line_no, line in read_lines(path, DictionaryFormatError):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t") if "\t" in line else line.split(" ")
        if len(cols) != 2 or not cols[0] or not cols[1]:
            if on_bad_lines == "skip":
                skipped += 1
                continue
            raise DictionaryFormatError(f"expected 2 columns, found {len(cols)}",
                                        line=line_no, path=path)
        pairs.append((cols[0], cols[1]))
    if skipped:
        logger.warning("%s: skipped %d malformed lines", path, skipped)
    return DictionaryPairs(src_lang, tgt_lang, tuple(pairs), provenance="file")


def save_dictionary(d: DictionaryPairs, path) -> None:
    """Write tab-separated pairs; loading the file back is lossless."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s, t in d.pairs:
            fh.write(f"{s}\t{t}\n")
