"""Contract checks that no workflow reaches: each public constructor or
call below rejects one malformed input with its own error type and message.
"""

import re

import numpy as np
import pytest

from lexalign import (AlignedSpace, DataError, DictionaryPairs, EvalReport,
                      HttpTranslationClient, LinearMap, MultiSpace, PairedMatrices,
                      VocabEmbedding, cross_covariance_svd, induce, least_squares_map,
                      load_dictionary, precision_at_k, save_maps,
                      whitening_transform)
from lexalign.maps import spd_inverse

NAN = float("nan")
PAIRS = (("a", "x"), ("b", "y"))
EN = VocabEmbedding("en", ("a", "b"), np.eye(2))
TR = VocabEmbedding("tr", ("x", "y"), np.eye(2))


CASES = {
    "embedding-1d": (lambda p: VocabEmbedding("en", ("a", "b"), np.ones(2)),
                     DataError, "must be 2-d"),
    "embedding-no-columns": (lambda p: VocabEmbedding("en", ("a",), np.ones((1, 0))),
                             DataError, "dimension must be positive"),
    "multispace-key": (lambda p: MultiSpace({"en": AlignedSpace(TR)}, hub="en"),
                       DataError, "space keyed 'en' is for language 'tr'"),
    "induce-nan-query": (lambda p: induce([NAN, 0.0], TR, 1), DataError, "non-finite values"),
    "report-k-zero": (lambda p: EvalReport("en", "tr", (0,), {0: 0.5}, 1),
                      DataError, "k values must be positive"),
    "report-negative-count": (lambda p: EvalReport("en", "tr", (1,), {1: 0.5}, -1),
                              DataError, "counts must be non-negative"),
    "precision-oov-policy": (lambda p: precision_at_k(EN, TR, DictionaryPairs("en", "tr", PAIRS),
                                                      oov_policy="bogus"),
                             ValueError, "oov_policy must be one of"),
    "precision-k-zero": (lambda p: precision_at_k(EN, TR, DictionaryPairs("en", "tr", PAIRS),
                                                  ks=(0,)),
                         DataError, "k values must be positive"),
    "map-1d": (lambda p: LinearMap(np.ones(3), "unconstrained"), DataError, "must be 2-d"),
    "whitening-map-not-square": (lambda p: LinearMap(np.ones((2, 3)), "whitening"),
                                 DataError, "whitening map must be square"),
    "paired-1d": (lambda p: PairedMatrices(np.ones(2), np.ones((2, 2))),
                  DataError, "must be 2-d"),
    "paired-count": (lambda p: PairedMatrices(np.ones((2, 2)), np.ones((3, 2))),
                     DataError, "disagree on the pair count"),
    "paired-positional-count": (lambda p: PairedMatrices(np.ones((2, 2)), np.ones((2, 2)), 1),
                                TypeError, "positional arguments"),
    "paired-width": (lambda p: PairedMatrices(np.ones((2, 2)), np.ones((2, 3))),
                     DataError, "disagree on width"),
    "least-squares-no-rows": (lambda p: least_squares_map(np.ones((0, 2)), np.ones((0, 2))),
                              DataError, "at least one row"),
    "least-squares-nan": (lambda p: least_squares_map([[NAN, 1.0]], [[1.0, 1.0]]),
                          DataError, "non-finite values"),
    "least-squares-overflow": (lambda p: least_squares_map([[1e160, 2e160], [3e160, -1e160]],
                                                           [[1.0, 0.0], [0.0, 1.0]]),
                               DataError, "A^T A or A^T B overflows"),
    "whitening-no-rows": (lambda p: whitening_transform(np.ones((0, 2))),
                          DataError, "non-empty 2-d"),
    "whitening-nan": (lambda p: whitening_transform([[NAN, 1.0]]),
                      DataError, "non-finite values"),
    "whitening-overflow": (lambda p: whitening_transform([[1e160, 2e160], [3e160, -1e160]]),
                           DataError, "A^T A overflows"),
    "cross-covariance-inf": (lambda p: cross_covariance_svd(PairedMatrices(
                                 [[np.inf, 0.0], [0.0, 1.0]], np.ones((2, 2)))),
                             DataError, "non-finite values in the cross-covariance"),
    "spd-inverse-negative": (lambda p: spd_inverse(-np.eye(2)),
                             DataError, "not positive definite"),
    "spd-inverse-inf": (lambda p: spd_inverse(np.array([[np.inf, 0.0], [0.0, 1.0]])),
                        DataError, "matrix to invert is not finite"),
    "save-no-maps": (lambda p: save_maps([], p / "maps.txt"), DataError, "no maps to save"),
    "dictionary-bad-lines-policy": (lambda p: load_dictionary(p / "d.txt", on_bad_lines="x"),
                                    ValueError, "on_bad_lines must be"),
    "http-negative-retries": (lambda p: HttpTranslationClient("http://localhost:1/t",
                                                              max_retries=-1),
                              ValueError, "max_retries must be >= 0"),
}


@pytest.mark.parametrize("call, error, fragment", CASES.values(), ids=CASES.keys())
def test_public_calls_reject_malformed_input(tmp_path, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path)
