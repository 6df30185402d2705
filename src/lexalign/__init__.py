"""Dictionary-supervised alignment of word embedding spaces.

Load monolingual vectors, build or clean bilingual dictionaries (optionally
by round-trip machine translation), fit linear maps that place the spaces in
a shared coordinate system, and score the result by translation retrieval.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A name is imported on
# first access (PEP 562), so `import lexalign` loads neither numpy nor scipy.
_EXPORTS = {
    **dict.fromkeys(["LexalignError", "DataError", "LocatedError", "EmbeddingParseError",
                     "DictionaryFormatError", "ExternalServiceError", "TranslationError",
                     "PipelineStageError"], "errors"),
    **dict.fromkeys(["VocabEmbedding", "load_embeddings", "save_embeddings", "normalize"],
                    "embeddings"),
    "DEFAULT_NORMALIZE": "options",
    **dict.fromkeys(["DictionaryPairs", "clean_dictionary", "merge_dictionaries",
                     "split_dictionary", "load_dictionary", "save_dictionary", "transpose"],
                    "dictionary"),
    **dict.fromkeys(["TranslationClient", "ReplayClient", "HttpTranslationClient",
                     "TranslateSummary", "ReverseSummary", "translate_wordlist",
                     "reverse_filter", "load_cache", "append_cache", "API_KEY_ENV"],
                    "translate"),
    **dict.fromkeys(["LinearMap", "PairedMatrices", "build_paired_matrices", "procrustes",
                     "least_squares_map", "whitening_transform", "cross_covariance_svd",
                     "save_maps", "load_maps"], "maps"),
    **dict.fromkeys(["AlignedSpace", "MultiSpace", "apply_map", "align_orthogonal",
                     "align_multistep", "meemi_bilingual", "meemi_multilingual"], "align"),
    **dict.fromkeys(["EvalReport", "induce", "precision_at_k", "render_report",
                     "cosine_scores", "rank_by_score", "topk"], "induction"),
    **dict.fromkeys(["PipelineConfig", "run_pipeline"], "pipeline"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
