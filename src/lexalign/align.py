"""Alignment strategies over whole embedding spaces.

Three families: a single orthogonal rotation into an untouched reference
space; a multistep pipeline (whiten per side, rotate both sides into the
shared singular basis, re-weight by singular values, de-whiten each side
through the other side's route, optionally truncate); and Meemi averaging,
which replaces aligned spaces by least-squares fits onto the midpoints of
dictionary-linked vectors, bilingually or across several languages joined on
a hub language.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dictionary import DictionaryPairs, orient
from .embeddings import VocabEmbedding
from .errors import DataError
from .maps import (LinearMap, PairedMatrices, build_paired_matrices,
                   cross_covariance_svd, least_squares_map, procrustes,
                   spd_inverse, whitening_transform)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AlignedSpace:
    """An embedding plus the ordered maps that produced it from the
    normalized original; applying them again reproduces the matrix."""

    embedding: VocabEmbedding
    maps_applied: tuple[LinearMap, ...] = ()
    reference_language: str = ""

    def __post_init__(self):
        object.__setattr__(self, "maps_applied", tuple(self.maps_applied))

    @property
    def language(self) -> str:
        return self.embedding.language

    @property
    def dim(self) -> int:
        return self.embedding.dim


@dataclass(frozen=True)
class MultiSpace:
    """Mutually comparable aligned spaces keyed by language."""

    spaces: dict[str, AlignedSpace]
    hub: str

    def __post_init__(self):
        object.__setattr__(self, "spaces", dict(self.spaces))
        if self.hub not in self.spaces:
            raise DataError(f"hub language {self.hub!r} missing from spaces")
        for lang, space in self.spaces.items():
            if lang != space.language:
                raise DataError(f"space keyed {lang!r} is for language {space.language!r}")
        dims = {space.dim for space in self.spaces.values()}
        if len(dims) != 1:
            raise DataError(f"spaces disagree on dimension: {sorted(dims)}")

    def __getitem__(self, lang: str) -> AlignedSpace:
        return self.spaces[lang]

    def __contains__(self, lang: str) -> bool:
        return lang in self.spaces

    def languages(self) -> list[str]:
        return list(self.spaces)


def apply_map(emb: VocabEmbedding, m: LinearMap) -> VocabEmbedding:
    """Move every row through m. The normalization recipe survives only under
    orthogonal maps; anything else invalidates it."""
    recipe = emb.norm_recipe if m.kind == "orthogonal" else ()
    return VocabEmbedding(emb.language, emb.words, m.apply(emb.matrix), recipe)


def replay_maps(emb: VocabEmbedding, maps) -> np.ndarray:
    """Re-apply a recorded map chain to an embedding's matrix."""
    out = emb.matrix
    for m in maps:
        out = m.apply(out)
    return out


def _check_alignable(reference: VocabEmbedding, other: VocabEmbedding) -> None:
    if reference.language == other.language:
        raise DataError("reference and other space share a language code")
    if reference.dim != other.dim:
        raise DataError(f"dimension mismatch: reference {reference.dim}, other {other.dim}")
    if reference.norm_recipe != other.norm_recipe:
        raise DataError(f"normalization recipes differ: {reference.norm_recipe} "
                        f"vs {other.norm_recipe}")


def align_orthogonal(reference: VocabEmbedding, other: VocabEmbedding,
                     pairs: DictionaryPairs) -> MultiSpace:
    """Rotate `other` onto `reference` with the closed-form orthogonal map
    fitted on dictionary rows. The reference matrix is left untouched."""
    _check_alignable(reference, other)
    w = _orthogonal_map(reference, other, pairs)
    moved = AlignedSpace(apply_map(other, w), maps_applied=(w,),
                         reference_language=reference.language)
    fixed = AlignedSpace(reference, maps_applied=(),
                         reference_language=reference.language)
    return MultiSpace({reference.language: fixed, other.language: moved},
                      hub=reference.language)


def _orthogonal_map(reference: VocabEmbedding, other: VocabEmbedding,
                    pairs: DictionaryPairs) -> LinearMap:
    """The Procrustes map that align_orthogonal applies. The paired rows
    live only inside this call, so they are freed before the output is
    allocated; the other fit helpers below work the same way."""
    oriented = orient(pairs, other.language, reference.language)
    pm = build_paired_matrices(other, reference, oriented)
    w = procrustes(pm)
    logger.info("orthogonal %s->%s: pairs_used=%d oov_src=%d oov_tgt=%d",
                other.language, reference.language, len(pm), pm.oov_src, pm.oov_tgt)
    return w


def align_multistep(reference: VocabEmbedding, other: VocabEmbedding,
                    pairs: DictionaryPairs, reweight_p: float = 0.5,
                    reduce_dim: int | None = None) -> MultiSpace:
    """Whiten each side on its dictionary rows, rotate both sides into the
    shared singular basis of the whitened cross-covariance, scale by
    s**reweight_p, de-whiten each side through the other side's whitening
    inverse (conjugated into the shared basis), then optionally keep the
    first reduce_dim coordinates. Both spaces move."""
    _check_alignable(reference, other)
    if reweight_p < 0.0:
        raise DataError("reweight_p must be >= 0")
    d = reference.dim
    if reduce_dim is not None and not 1 <= reduce_dim <= d:
        raise DataError(f"reduce_dim must be in [1, {d}], got {reduce_dim}")
    chains = _multistep_chains(reference, other, pairs, reweight_p, reduce_dim)
    spaces = {}
    for emb, lang in ((other, other.language), (reference, reference.language)):
        moved = emb
        for m in chains[lang]:
            moved = apply_map(moved, m)
        spaces[lang] = AlignedSpace(moved, maps_applied=tuple(chains[lang]),
                                    reference_language=reference.language)
    return MultiSpace(spaces, hub=reference.language)


def _multistep_chains(reference: VocabEmbedding, other: VocabEmbedding,
                      pairs: DictionaryPairs, reweight_p: float,
                      reduce_dim: int | None) -> dict[str, list[LinearMap]]:
    """The map chain of each side for align_multistep, keyed by language."""
    d = reference.dim
    oriented = orient(pairs, other.language, reference.language)
    pm = build_paired_matrices(other, reference, oriented)

    wx = whitening_transform(pm.X)
    wz = whitening_transform(pm.Z)
    white = PairedMatrices(pm.X @ wx.matrix, pm.Z @ wz.matrix, pm.used_pairs,
                           pm.oov_src, pm.oov_tgt)
    u, s, v = cross_covariance_svd(white)
    scale = LinearMap(np.diag(s ** reweight_p), "unconstrained")
    dewhite_other = LinearMap(v.T @ spd_inverse(wz.matrix) @ v, "composite")
    dewhite_ref = LinearMap(u.T @ spd_inverse(wx.matrix) @ u, "composite")

    chains = {
        other.language: [wx, LinearMap(u, "orthogonal"), scale, dewhite_other],
        reference.language: [wz, LinearMap(v, "orthogonal"), scale, dewhite_ref],
    }
    if reduce_dim is not None and reduce_dim < d:
        truncate = LinearMap(np.eye(d)[:, :reduce_dim], "composite")
        for chain in chains.values():
            chain.append(truncate)
    logger.info("multistep %s/%s: pairs_used=%d reweight_p=%g reduce_dim=%s",
                other.language, reference.language, len(pm), reweight_p, reduce_dim)
    return chains


def meemi_bilingual(ms: MultiSpace, pairs: DictionaryPairs,
                    min_norm_fallback: bool = True) -> MultiSpace:
    """Replace both aligned spaces by least-squares fits onto the midpoints
    of dictionary-linked vector pairs. Fitting uses dictionary rows only; the
    fitted maps move every vector."""
    if len(ms.spaces) != 2:
        raise DataError(f"needs exactly two aligned spaces, got {len(ms.spaces)}")
    if {pairs.src_lang, pairs.tgt_lang} != set(ms.spaces):
        raise DataError(f"dictionary {pairs.src_lang}->{pairs.tgt_lang} does not "
                        f"match spaces {sorted(ms.spaces)}")
    fits = _meemi_fits(ms, pairs, min_norm_fallback)
    spaces = {}
    for lang, space in ms.spaces.items():
        w = fits[lang]
        spaces[lang] = AlignedSpace(apply_map(space.embedding, w),
                                    space.maps_applied + (w,),
                                    space.reference_language or ms.hub)
    return MultiSpace(spaces, hub=ms.hub)


def _meemi_fits(ms: MultiSpace, pairs: DictionaryPairs,
                min_norm_fallback: bool) -> dict[str, LinearMap]:
    """The least-squares map of each side for meemi_bilingual."""
    pm = build_paired_matrices(ms[pairs.src_lang].embedding, ms[pairs.tgt_lang].embedding,
                               pairs)
    mid = 0.5 * (pm.X + pm.Z)
    fits = {
        pairs.src_lang: least_squares_map(pm.X, mid, min_norm_fallback),
        pairs.tgt_lang: least_squares_map(pm.Z, mid, min_norm_fallback),
    }
    logger.info("meemi %s/%s: pairs_used=%d", pairs.src_lang, pairs.tgt_lang, len(pm))
    return fits


def meemi_multilingual(hub: AlignedSpace, others, source_set,
                       all_combinations: bool = False,
                       min_norm_fallback: bool = True) -> MultiSpace:
    """Meemi across several languages joined on hub words.

    others: (AlignedSpace, DictionaryPairs) entries, each dictionary between
    the hub language and that space's language, either orientation. A hub
    word forms tuples only when every language in source_set (minus the hub,
    which is always implied present) covers it, where covering means the pair
    is in that dictionary and both words are in vocabulary. Languages outside
    source_set join any tuple they cover. By default each covering language
    contributes its first listed translation; all_combinations=True expands
    the cross product instead. Each language is then refitted by least
    squares onto the tuple means it participates in; the hub participates in
    every tuple.
    """
    hub_lang = hub.language
    others = list(others)
    if not others:
        raise DataError("needs at least one non-hub language")
    langs = [space.language for space, _ in others]
    if len(set(langs)) != len(langs) or hub_lang in langs:
        raise DataError("every language may appear only once")
    source_set = set(source_set)
    if hub_lang not in source_set:
        raise DataError(f"source_set must include the hub language {hub_lang!r}")
    unknown = source_set - set(langs) - {hub_lang}
    if unknown:
        raise DataError(f"source_set names absent languages: {sorted(unknown)}")
    for space, _ in others:
        if space.dim != hub.dim:
            raise DataError(f"space {space.language!r} has dim {space.dim}, hub has {hub.dim}")
        if space.reference_language and space.reference_language != hub_lang:
            raise DataError(f"space {space.language!r} is aligned to "
                            f"{space.reference_language!r}, not the hub {hub_lang!r}")
    spaces_by_lang = {hub_lang: hub}
    spaces_by_lang.update((space.language, space) for space, _ in others)
    fits = _tuple_fits(spaces_by_lang, others, source_set, all_combinations,
                       min_norm_fallback)
    new_spaces = {lang: AlignedSpace(apply_map(space.embedding, fits[lang]),
                                     space.maps_applied + (fits[lang],), hub_lang)
                  for lang, space in spaces_by_lang.items()}
    return MultiSpace(new_spaces, hub=hub_lang)


def _tuple_fits(spaces_by_lang: dict[str, AlignedSpace], others, source_set: set,
                all_combinations: bool, min_norm_fallback: bool) -> dict[str, LinearMap]:
    """The least-squares map of each language for meemi_multilingual, keyed
    by language; spaces_by_lang starts with the hub."""
    hub_lang, hub = next(iter(spaces_by_lang.items()))
    langs = [space.language for space, _ in others]
    # per-language translation tables over usable (in-vocabulary) pairs
    tables: dict[str, dict[str, list[str]]] = {}
    hub_order: list[str] = []
    seen_hub = set()
    for space, pairs in others:
        oriented = orient(pairs, hub_lang, space.language)
        table: dict[str, list[str]] = {}
        emb = space.embedding
        for h, t in oriented.pairs:
            if h not in hub.embedding or t not in emb:
                continue
            bucket = table.setdefault(h, [])
            if t not in bucket:
                bucket.append(t)
            if h not in seen_hub:
                seen_hub.add(h)
                hub_order.append(h)
        tables[space.language] = table

    required = source_set - {hub_lang}
    tuples: list[tuple[str, dict[str, str]]] = []
    for h in hub_order:
        covering = [lang for lang in langs if h in tables[lang]]
        if not covering or not required.issubset(covering):
            continue
        if all_combinations:
            for combo in product(*(tables[lang][h] for lang in covering)):
                tuples.append((h, dict(zip(covering, combo))))
        else:
            tuples.append((h, {lang: tables[lang][h][0] for lang in covering}))
    if not tuples:
        raise DataError("no hub word forms a usable translation tuple")
    logger.info("meemi hub=%s: tuples=%d languages=%d", hub_lang, len(tuples), 1 + len(langs))

    means = np.empty((len(tuples), hub.dim))
    for ti, (h, members) in enumerate(tuples):
        vecs = [hub.embedding.vector(h)]
        vecs.extend(spaces_by_lang[lang].embedding.vector(t) for lang, t in members.items())
        means[ti] = np.mean(vecs, axis=0)

    fits = {}
    for lang, space in spaces_by_lang.items():
        rows = []
        targets = []
        for ti, (h, members) in enumerate(tuples):
            if lang == hub_lang:
                word = h
            elif lang in members:
                word = members[lang]
            else:
                continue
            rows.append(space.embedding.vector(word))
            targets.append(means[ti])
        if not rows:
            raise DataError(f"language {lang!r} participates in no tuple")
        fits[lang] = least_squares_map(np.array(rows), np.array(targets), min_norm_fallback)
    return fits
