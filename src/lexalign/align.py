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
from .embeddings import VocabEmbedding, finite
from .errors import DataError
from .maps import (LinearMap, PairedMatrices, build_paired_matrices,
                   cross_covariance_svd, least_squares_map, procrustes,
                   spd_inverse, whitening_transform)
from .options import MEEMI, MEEMI_MULTI, METHODS, MULTISTEP, ONE_PAIR_METHODS

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


def _check_alignable(reference: VocabEmbedding, other: VocabEmbedding) -> None:
    if reference.language == other.language:
        raise DataError("reference and other space share a language code")
    if reference.dim != other.dim:
        raise DataError(f"dimension mismatch: reference {reference.dim}, other {other.dim}")
    if reference.norm_recipe != other.norm_recipe:
        raise DataError(f"normalization recipes differ: {reference.norm_recipe} "
                        f"vs {other.norm_recipe}")


def check_method(method: str, ref_lang: str, langs: list, sources,
                 reduce_dim: int | None = None, all_combinations: bool = False) -> list:
    """Validate a fitting method against the reference language, the target
    languages, and the fit parameters only one method reads: the sources and
    all_combinations of meemi-multi and the reduce_dim of multistep. Returns
    the sources as fit_method takes them: sorted with the reference added for
    meemi-multi, empty otherwise. Raises DataError."""
    if method not in METHODS:
        raise DataError(f"method must be one of {METHODS}, got {method!r}")
    if "" in (ref_lang, *langs):
        raise DataError("a language code must not be empty")
    if ref_lang in langs:
        raise DataError("a target repeats the reference language")
    if len(set(langs)) != len(langs):
        raise DataError("duplicate target languages")
    if method in ONE_PAIR_METHODS and len(langs) > 1:
        raise DataError(f"method {method!r} aligns one language pair per run; "
                        f"use {MEEMI_MULTI} for several targets")
    sources = set(sources)
    for name, given, owner in (("sources", sources, MEEMI_MULTI),
                               ("reduce_dim", reduce_dim is not None, MULTISTEP),
                               ("all_combinations", all_combinations, MEEMI_MULTI)):
        if given and method != owner:
            raise DataError(f"{name} only applies to method {owner}")
    if method != MEEMI_MULTI:
        return []
    bad = sources - {ref_lang, *langs}
    if bad:
        raise DataError(f"sources name unknown languages: {sorted(bad)}")
    return sorted(sources | {ref_lang})


# fit_method consumes a mapping of spaces keyed by language: it pops every
# input and drops it once its last use is past, so a caller that holds no
# other reference to a space frees it as soon as the output made from it
# exists. Its orthogonal step calls align_orthogonal once per target, handing
# over the target popped from the mapping, so each target goes once its
# rotated copy exists. The multistep and Meemi fits (_multistep, _meemi) each
# consume such a mapping in the same way. The public functions pass them a
# mapping built from their own parameters, which keep every input alive: they
# free nothing and leave their inputs unchanged.


def fit_method(method: str, hub: str, spaces: dict, dictionaries: dict,
               reweight_p: float = 0.5, reduce_dim: int | None = None, sources=(),
               all_combinations: bool = False, prealigned: bool = False) -> MultiSpace:
    """Align every space onto the reference spaces[hub] with one method, after
    check_method has accepted it. spaces maps each language, the reference's
    included, to its embedding; dictionaries maps every other language to its
    training dictionary, which may run either way. multistep takes
    reweight_p and reduce_dim, meemi-multi the checked sources and
    all_combinations. prealigned says the spaces already share coordinates,
    so the Meemi methods refit them without the orthogonal step first.

    fit_method consumes spaces: it removes every entry, the reference
    included, and drops each input once the output made from it exists, so
    a caller that holds no other reference to an embedding frees it as soon
    as it can. spaces is empty on return."""
    if method == MULTISTEP:
        return MultiSpace(_multistep(spaces, hub, dictionaries, reweight_p, reduce_dim), hub=hub)
    if prealigned:
        aligned = {lang: AlignedSpace(spaces.pop(lang), (), hub) for lang in list(spaces)}
    else:
        reference = spaces.pop(hub)
        aligned = {hub: AlignedSpace(reference, (), hub)}
        for lang in list(spaces):
            aligned[lang] = align_orthogonal(reference, spaces.pop(lang), dictionaries[lang])[lang]
        del reference  # the refits below drop aligned[hub], the reference's last holder
    if method == MEEMI:
        (pairs,) = dictionaries.values()
        aligned = _meemi(aligned, hub, pairs)
    elif method == MEEMI_MULTI:
        aligned = _refit(aligned, _tuple_fits(aligned, hub, dictionaries, set(sources),
                                              all_combinations), hub)
    return MultiSpace(aligned, hub=hub)


def align_orthogonal(reference: VocabEmbedding, other: VocabEmbedding,
                     pairs: DictionaryPairs) -> MultiSpace:
    """Rotate `other` onto `reference` with the closed-form orthogonal map
    fitted on dictionary rows. The reference matrix is left untouched."""
    _check_alignable(reference, other)
    hub = reference.language
    pm = build_paired_matrices(other, reference, orient(pairs, other.language, hub))
    w = procrustes(pm)
    logger.info("orthogonal %s->%s: pairs_used=%d oov_src=%d oov_tgt=%d",
                other.language, hub, len(pm), pm.oov_src, pm.oov_tgt)
    del pm  # the paired rows go before the output is allocated
    return MultiSpace({hub: AlignedSpace(reference, (), hub),
                       other.language: AlignedSpace(apply_map(other, w), (w,), hub)}, hub=hub)


def align_multistep(reference: VocabEmbedding, other: VocabEmbedding,
                    pairs: DictionaryPairs, reweight_p: float = 0.5,
                    reduce_dim: int | None = None) -> MultiSpace:
    """Whiten each side on its dictionary rows, rotate both sides into the
    shared singular basis of the whitened cross-covariance, scale by
    s**reweight_p, de-whiten each side through the other side's whitening
    inverse (conjugated into the shared basis), then optionally keep the
    first reduce_dim coordinates. Both spaces move."""
    spaces = _multistep({reference.language: reference, other.language: other},
                        reference.language, {other.language: pairs}, reweight_p, reduce_dim)
    return MultiSpace(spaces, hub=reference.language)


def _multistep(spaces: dict[str, VocabEmbedding], hub: str, dictionaries: dict,
               reweight_p: float, reduce_dim: int | None) -> dict[str, AlignedSpace]:
    """align_multistep of the one other space onto spaces[hub], fitted on the
    pairs dictionaries holds for it: the aligned spaces keyed by language, the
    other first. Consumes spaces: each side's input is dropped once its first
    map has been applied, and each intermediate once the next one exists.
    Spaces that share a language code are one key, which the check refuses."""
    ((lang, pairs),) = dictionaries.items()
    _check_alignable(spaces[hub], spaces[lang])
    if not 0.0 <= reweight_p < np.inf:
        raise DataError(f"reweight_p must be a finite number >= 0, got {reweight_p}")
    d = spaces[hub].dim
    if reduce_dim is not None and not 1 <= reduce_dim <= d:
        raise DataError(f"reduce_dim must be in [1, {d}], got {reduce_dim}")
    pm = build_paired_matrices(spaces[lang], spaces[hub], orient(pairs, lang, hub))
    x, z, pairs_used = pm.X, pm.Z, len(pm)
    del pm

    wx = whitening_transform(x)
    wz = whitening_transform(z)
    # each side's rows are dropped once whitened: three of the four arrays
    # exist at once, not all four
    x = x @ wx.matrix
    z = z @ wz.matrix
    u, s, v = cross_covariance_svd(PairedMatrices(x, z))
    del x, z  # the paired rows go before the first output is allocated
    scale = LinearMap(np.diag(s ** reweight_p), "unconstrained")
    dewhite_other = LinearMap(v.T @ spd_inverse(wz.matrix) @ v, "composite")
    dewhite_ref = LinearMap(u.T @ spd_inverse(wx.matrix) @ u, "composite")

    chains = {
        lang: [wx, LinearMap(u, "orthogonal"), scale, dewhite_other],
        hub: [wz, LinearMap(v, "orthogonal"), scale, dewhite_ref],
    }
    if reduce_dim is not None and reduce_dim < d:
        truncate = LinearMap(np.eye(d)[:, :reduce_dim], "composite")
        for chain in chains.values():
            chain.append(truncate)
    logger.info("multistep %s/%s: pairs_used=%d reweight_p=%g reduce_dim=%s",
                lang, hub, pairs_used, reweight_p, reduce_dim)
    aligned = {}
    for side in (lang, hub):
        moved = spaces.pop(side)
        for m in chains[side]:
            moved = apply_map(moved, m)
        aligned[side] = AlignedSpace(moved, tuple(chains[side]), hub)
    return aligned


def meemi_bilingual(ms: MultiSpace, pairs: DictionaryPairs) -> MultiSpace:
    """Replace both aligned spaces by least-squares fits onto the midpoints
    of dictionary-linked vector pairs. Fitting uses dictionary rows only; the
    fitted maps move every vector."""
    return MultiSpace(_meemi(dict(ms.spaces), ms.hub, pairs), hub=ms.hub)


def _meemi(spaces: dict[str, AlignedSpace], hub: str,
           pairs: DictionaryPairs) -> dict[str, AlignedSpace]:
    """meemi_bilingual of two aligned spaces keyed by language, in the same
    order. Consumes spaces (see _refit)."""
    if len(spaces) != 2:
        raise DataError(f"needs exactly two aligned spaces, got {len(spaces)}")
    if {pairs.src_lang, pairs.tgt_lang} != set(spaces):
        raise DataError(f"dictionary {pairs.src_lang}->{pairs.tgt_lang} does not "
                        f"match spaces {sorted(spaces)}")
    pm = build_paired_matrices(spaces[pairs.src_lang].embedding,
                               spaces[pairs.tgt_lang].embedding, pairs)
    # scaled in place: one array, whether or not numpy elides the temporary
    # of 0.5 * (X + Z); halving is exact, so the bits are the same
    mid = finite(lambda: pm.X + pm.Z, "the sum of two paired rows overflows")
    mid *= 0.5
    fits = {pairs.src_lang: least_squares_map(pm.X, mid),
            pairs.tgt_lang: least_squares_map(pm.Z, mid)}
    logger.info("meemi %s/%s: pairs_used=%d", pairs.src_lang, pairs.tgt_lang, len(pm))
    del pm, mid  # the paired rows and midpoints go before the outputs are allocated
    return _refit(spaces, fits, hub)


def _refit(spaces: dict[str, AlignedSpace], fits: dict[str, LinearMap],
           hub: str) -> dict[str, AlignedSpace]:
    """Each space moved by its language's fit, keyed and ordered as spaces.
    Consumes spaces: each input is dropped once its refit output exists."""
    refitted = {}
    for lang in list(spaces):
        space = spaces.pop(lang)
        refitted[lang] = AlignedSpace(apply_map(space.embedding, fits[lang]),
                                      space.maps_applied + (fits[lang],),
                                      space.reference_language or hub)
    return refitted


def meemi_multilingual(hub: AlignedSpace, others, source_set,
                       all_combinations: bool = False) -> MultiSpace:
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
    source_set = set(source_set)
    if hub_lang not in source_set:
        raise DataError(f"source_set must include the hub language {hub_lang!r}")
    check_method(MEEMI_MULTI, hub_lang, [space.language for space, _ in others], source_set)
    for space, _ in others:
        if space.dim != hub.dim:
            raise DataError(f"space {space.language!r} has dim {space.dim}, hub has {hub.dim}")
        if space.reference_language and space.reference_language != hub_lang:
            raise DataError(f"space {space.language!r} is aligned to "
                            f"{space.reference_language!r}, not the hub {hub_lang!r}")
    spaces = {hub_lang: hub, **{space.language: space for space, _ in others}}
    dictionaries = {space.language: pairs for space, pairs in others}
    fits = _tuple_fits(spaces, hub_lang, dictionaries, source_set, all_combinations)
    return MultiSpace(_refit(spaces, fits, hub_lang), hub=hub_lang)


def _tuple_fits(spaces: dict[str, AlignedSpace], hub_lang: str,
                dictionaries: dict[str, DictionaryPairs], source_set: set,
                all_combinations: bool) -> dict[str, LinearMap]:
    """The least-squares map of each language for meemi_multilingual, keyed
    by language; dictionaries holds each other language's pairs with the hub.
    A tuple's mean is summed from zero, its hub vector first and then its
    other members in dictionary order, and divided by its size: the order in
    which np.mean sums a stack of rows two or more wide, so the bits match."""
    hub = spaces[hub_lang].embedding
    # each language's in-vocabulary translations of each hub word, as rows in
    # first-appearance order: all distinct ones with all_combinations, else the first
    tables = {}
    for lang, pairs in dictionaries.items():
        index = spaces[lang].embedding.word_index
        table = tables[lang] = {}
        for h, t in orient(pairs, hub_lang, lang).pairs:
            if h in hub.word_index and t in index:
                kept = table.setdefault(hub.word_index[h], {index[t]: None})
                if all_combinations:
                    kept[index[t]] = None

    required = source_set - {hub_lang}
    tuples = []  # each tuple's row in every language it joins, the hub's first
    for h in dict.fromkeys(h for table in tables.values() for h in table):
        covering = [lang for lang in tables if h in tables[lang]]
        if required.issubset(covering):
            tuples += ({hub_lang: h, **dict(zip(covering, combo))}
                       for combo in product(*(tables[lang][h] for lang in covering)))
    if not tuples:
        raise DataError("no hub word forms a usable translation tuple")
    logger.info("meemi hub=%s: tuples=%d languages=%d", hub_lang, len(tuples), len(spaces))

    # the tuple positions and rows of each language; the hub joins them all
    joined = {lang: ([i for i, members in enumerate(tuples) if lang in members],
                     [members[lang] for members in tuples if lang in members])
              for lang in spaces}
    means = np.zeros((len(tuples), hub.dim))
    for lang in (hub_lang, *dictionaries):
        positions, rows = joined[lang]
        np.add.at(means, positions, spaces[lang].embedding.matrix[rows])
    means /= np.array([len(members) for members in tuples])[:, None]

    fits = {}
    for lang, space in spaces.items():
        positions, rows = joined[lang]
        if not rows:
            raise DataError(f"language {lang!r} participates in no tuple")
        fits[lang] = least_squares_map(space.embedding.matrix[rows], means[positions])
    return fits
