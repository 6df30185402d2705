"""Dictionary-supervised alignment of word embedding spaces.

Load monolingual vectors, build or clean bilingual dictionaries (optionally
by round-trip machine translation), fit linear maps that place the spaces in
a shared coordinate system, and score the result by translation retrieval.
"""

__version__ = "0.1.0"

from .errors import (DataError, DictionaryFormatError, EmbeddingParseError,
                     ExternalServiceError, LexalignError, PipelineStageError,
                     TranslationError)
from .embeddings import (DEFAULT_NORMALIZE, VocabEmbedding, load_embeddings,
                         normalize, save_embeddings)
from .dictionary import (DictionaryPairs, clean_dictionary, load_dictionary,
                         merge_dictionaries, save_dictionary, split_dictionary,
                         transpose)
from .translate import (API_KEY_ENV, HttpTranslationClient, ReplayClient,
                        ReverseSummary, TranslateSummary, TranslationClient,
                        append_cache, load_cache, reverse_filter,
                        translate_wordlist)
from .maps import (LinearMap, PairedMatrices, build_paired_matrices,
                   cross_covariance_svd, least_squares_map, load_map, load_maps,
                   procrustes, save_map, save_maps, whitening_transform)
from .align import (AlignedSpace, MultiSpace, align_multistep, align_orthogonal,
                    apply_map, meemi_bilingual, meemi_multilingual, replay_maps)
from .induction import (EvalReport, cosine_scores, induce, precision_at_k,
                        rank_by_score, render_report, reports_from_json, topk)
from .pipeline import PipelineConfig, run_pipeline

__all__ = [
    "__version__",
    "LexalignError", "DataError", "EmbeddingParseError", "DictionaryFormatError",
    "ExternalServiceError", "TranslationError", "PipelineStageError",
    "VocabEmbedding", "load_embeddings", "save_embeddings", "normalize",
    "DEFAULT_NORMALIZE",
    "DictionaryPairs", "clean_dictionary", "merge_dictionaries",
    "split_dictionary", "load_dictionary", "save_dictionary", "transpose",
    "TranslationClient", "ReplayClient", "HttpTranslationClient",
    "TranslateSummary", "ReverseSummary", "translate_wordlist", "reverse_filter",
    "load_cache", "append_cache", "API_KEY_ENV",
    "LinearMap", "PairedMatrices", "build_paired_matrices", "procrustes",
    "least_squares_map", "whitening_transform", "cross_covariance_svd",
    "save_map", "save_maps", "load_map", "load_maps",
    "AlignedSpace", "MultiSpace", "apply_map", "replay_maps",
    "align_orthogonal", "align_multistep", "meemi_bilingual", "meemi_multilingual",
    "EvalReport", "induce", "precision_at_k", "render_report", "reports_from_json",
    "cosine_scores", "rank_by_score", "topk",
    "PipelineConfig", "run_pipeline",
]
