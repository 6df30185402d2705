import json

import numpy as np
import pytest

from lexalign import (DataError, DictionaryPairs, EvalReport, VocabEmbedding,
                      align_orthogonal, cosine_scores, induce, precision_at_k,
                      rank_by_score, render_report, reports_from_json, topk)
from lexalign.induction import _QUERY_BLOCK

from conftest import (identity_dict, make_embedding, random_orthogonal,
                      unit_rows)


def triangle_space():
    return VocabEmbedding("tr", ("w0", "w1", "w2"),
                          np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]]))


class TestInduce:
    def test_own_vector_ranks_first_with_unit_score(self):
        rng = np.random.default_rng(0)
        emb = make_embedding("tr", 40, 8, rng)
        word, score = induce(emb.vector("w7"), emb, k=1)[0]
        assert word == "w7"
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_hand_cosines(self):
        emb = triangle_space()
        result = induce(np.array([1.0, 0.0]), emb, k=3)
        assert [w for w, _ in result] == ["w0", "w1", "w2"]
        scores = dict(result)
        assert scores["w0"] == pytest.approx(1.0)
        assert scores["w1"] == pytest.approx(0.6)
        assert scores["w2"] == pytest.approx(0.0)

    def test_scale_invariance(self):
        emb = triangle_space()
        a = induce(np.array([2.0, 2.0]), emb, k=3)
        b = induce(np.array([0.5, 0.5]), emb, k=3)
        assert [w for w, _ in a] == [w for w, _ in b]
        np.testing.assert_allclose([s for _, s in a], [s for _, s in b], atol=1e-12)

    def test_k_equals_vocabulary(self):
        rng = np.random.default_rng(1)
        emb = make_embedding("tr", 15, 4, rng)
        result = induce(rng.normal(size=4), emb, k=15)
        assert sorted(w for w, _ in result) == sorted(emb.words)
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    def test_ties_break_toward_lower_index(self):
        emb = VocabEmbedding("tr", ("a", "b", "c"),
                             np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        for k, expected in ((1, ["a"]), (2, ["a", "c"]), (3, ["a", "c", "b"])):
            result = induce(np.array([1.0, 0.0]), emb, k=k)
            assert [w for w, _ in result] == expected

    def test_backends_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            emb = make_embedding("tr", int(rng.integers(5, 200)),
                                 int(rng.integers(2, 16)), rng)
            q = rng.normal(size=emb.dim)
            k = min(10, len(emb))
            blocked = induce(q, emb, k, backend="blocked")
            exact = induce(q, emb, k, backend="exact")
            assert [w for w, _ in blocked] == [w for w, _ in exact]

    def test_validation(self):
        emb = triangle_space()
        with pytest.raises(DataError):
            induce(np.zeros(2), emb, k=1)
        with pytest.raises(DataError):
            induce(np.ones(3), emb, k=1)
        with pytest.raises(DataError):
            induce(np.ones(2), emb, k=0)
        with pytest.raises(DataError):
            induce(np.ones(2), emb, k=4)
        with pytest.raises(ValueError):
            induce(np.ones(2), emb, k=1, backend="gpu")


def reference_topk(queries, unit, k):
    return np.array([rank_by_score(cosine_scores(q, unit, "exact"))[:k]
                     for q in queries], dtype=np.intp).reshape(len(queries), k)


# unit vectors with exactly representable coordinates: against a basis query
# every cosine is one coordinate, bitwise equal whatever the product order
EXACT_ROWS = np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0],
                       [0.0, 0.6, 0.8, 0.0], [0.8, 0.0, 0.6, 0.0],
                       [0.0, 0.0, 0.0, 1.0], [0.28, 0.96, 0.0, 0.0]])


class TestTopk:
    @pytest.mark.parametrize("n", [1, _QUERY_BLOCK, _QUERY_BLOCK + 1])
    def test_matches_reference_ranking(self, n):
        rng = np.random.default_rng(n)
        unit = unit_rows(rng.normal(size=(300, 12)))
        queries = rng.normal(size=(n, 12))
        for k in (1, 7, 300):
            assert np.array_equal(topk(queries, unit, k),
                                  reference_topk(queries, unit, k))

    def test_target_blocks(self, monkeypatch):
        monkeypatch.setattr("lexalign.induction._BLOCK_ROWS", 16)
        rng = np.random.default_rng(11)
        unit = unit_rows(rng.normal(size=(100, 6)))
        queries = rng.normal(size=(5, 6))
        assert np.array_equal(topk(queries, unit, 10), reference_topk(queries, unit, 10))

    @pytest.mark.parametrize("n", [1, _QUERY_BLOCK, _QUERY_BLOCK + 1])
    def test_ties_straddling_kth_place(self, n):
        rng = np.random.default_rng(100 + n)
        # 200 rows drawn from 6: every score is shared by many rows
        unit = EXACT_ROWS[rng.integers(0, len(EXACT_ROWS), size=200)]
        queries = np.eye(4)[rng.integers(0, 4, size=n)] * rng.uniform(0.5, 2.0, (n, 1))
        queries[0] = [0.0, 0.0, 0.0, 2.0]
        for k in (1, 2, 5, 37, 199, 200):
            assert np.array_equal(topk(queries, unit, k),
                                  reference_topk(queries, unit, k))

    def test_repeat_calls_bitwise_identical(self):
        rng = np.random.default_rng(9)
        unit = unit_rows(rng.normal(size=(2000, 16)))
        queries = rng.normal(size=(_QUERY_BLOCK + 3, 16))
        assert np.array_equal(topk(queries, unit, 10), topk(queries, unit, 10))

    def test_zero_query_ranks_by_index(self):
        unit = unit_rows(np.random.default_rng(4).normal(size=(20, 3)))
        assert topk(np.zeros((1, 3)), unit, 4)[0].tolist() == [0, 1, 2, 3]

    def test_validation(self):
        unit = np.eye(3)
        with pytest.raises(DataError):
            topk(np.ones((2, 2)), unit, 1)
        with pytest.raises(DataError):
            topk(np.ones(3), unit, 1)
        with pytest.raises(DataError):
            topk(np.ones((2, 3)), unit, 0)
        with pytest.raises(DataError):
            topk(np.ones((2, 3)), unit, 4)
        assert topk(np.ones((0, 3)), unit, 2).shape == (0, 2)


def eval_fixture(seed=3, n=30, d=6):
    """Two spaces related by a rotation, identity test dictionary."""
    rng = np.random.default_rng(seed)
    words = tuple(f"w{i}" for i in range(n))
    x = rng.normal(size=(n, d))
    r = random_orthogonal(rng, d)
    src = VocabEmbedding("en", words, x)
    tgt = VocabEmbedding("tr", words, x @ r)
    ms = align_orthogonal(tgt, src, identity_dict(words, "en", "tr"))
    return ms["en"], ms["tr"], identity_dict(words, "en", "tr")


class TestPrecisionAtK:
    def test_perfect_alignment_scores_one(self):
        src, tgt, test = eval_fixture()
        report = precision_at_k(src, tgt, test, ks=(1, 5, 10))
        assert report.precision == {1: 1.0, 5: 1.0, 10: 1.0}
        assert report.evaluated == 30
        assert report.skipped_oov_src == 0
        assert report.gold_oov_tgt == 0

    def test_distinct_source_words_are_units(self):
        src, tgt, _ = eval_fixture()
        test = DictionaryPairs("en", "tr", (("w0", "w0"), ("w0", "w9"), ("w1", "w1")))
        report = precision_at_k(src, tgt, test, ks=(1,))
        assert report.evaluated == 2
        assert report.precision[1] == 1.0

    def test_any_hit_counts(self):
        src, tgt, _ = eval_fixture()
        # wrong gold listed first, right one second: still a hit at k=1
        test = DictionaryPairs("en", "tr", (("w0", "w5"), ("w0", "w0")))
        report = precision_at_k(src, tgt, test, ks=(1,))
        assert report.precision[1] == 1.0

    def test_oov_source_skip_policy(self):
        src, tgt, _ = eval_fixture()
        test = DictionaryPairs("en", "tr", (("w0", "w0"), ("ghost", "w1")))
        report = precision_at_k(src, tgt, test, ks=(1,), oov_policy="skip")
        assert report.evaluated == 1
        assert report.skipped_oov_src == 1
        assert report.precision[1] == 1.0

    def test_oov_source_fail_policy(self):
        src, tgt, _ = eval_fixture()
        test = DictionaryPairs("en", "tr", (("w0", "w0"), ("ghost", "w1")))
        report = precision_at_k(src, tgt, test, ks=(1,), oov_policy="fail")
        assert report.evaluated == 2
        assert report.skipped_oov_src == 0
        assert report.precision[1] == 0.5

    def test_unit_accounting_invariant(self):
        src, tgt, _ = eval_fixture()
        test = DictionaryPairs("en", "tr", (("w0", "w0"), ("ghost", "w1"),
                                            ("w2", "w2"), ("phantom", "w3")))
        report = precision_at_k(src, tgt, test, ks=(1,))
        distinct = len({s for s, _ in test.pairs})
        assert report.evaluated + report.skipped_oov_src == distinct

    def test_gold_oov_counted_per_pair(self):
        src, tgt, _ = eval_fixture()
        test = DictionaryPairs("en", "tr", (("w0", "w0"), ("w1", "nope"),
                                            ("w2", "missing")))
        report = precision_at_k(src, tgt, test, ks=(1,))
        assert report.gold_oov_tgt == 2
        assert report.precision[1] == pytest.approx(1.0 / 3.0)

    def test_all_sources_oov_raises(self):
        src, tgt, _ = eval_fixture()
        test = DictionaryPairs("en", "tr", (("ghost", "w0"),))
        with pytest.raises(DataError):
            precision_at_k(src, tgt, test, ks=(1,))

    def test_empty_test_set_raises(self):
        src, tgt, _ = eval_fixture()
        with pytest.raises(DataError):
            precision_at_k(src, tgt, DictionaryPairs("en", "tr", ()), ks=(1,))

    def test_language_mismatch_raises(self):
        src, tgt, _ = eval_fixture()
        with pytest.raises(DataError):
            precision_at_k(src, tgt, DictionaryPairs("en", "uz", (("w0", "w0"),)))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            src = make_embedding("en", 40, 5, np.random.default_rng(seed))
            tgt = make_embedding("tr", 40, 5, np.random.default_rng(seed + 100))
            test = identity_dict(src.words[:20], "en", "tr")
            report = precision_at_k(src, tgt, test, ks=(1, 2, 5, 10, 20))
            series = [report.precision[k] for k in report.k_values]
            assert all(0.0 <= v <= 1.0 for v in series)
            assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))


class TestEvalReport:
    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            EvalReport("en", "tr", (1,), {1: 1.5}, evaluated=10)

    def test_rejects_non_monotone(self):
        with pytest.raises(DataError):
            EvalReport("en", "tr", (1, 5), {1: 0.9, 5: 0.2}, evaluated=10)

    def test_rejects_missing_k(self):
        with pytest.raises(DataError):
            EvalReport("en", "tr", (1, 5), {1: 0.9}, evaluated=10)


def sample_reports():
    return [
        EvalReport("en", "tr", (1, 5, 10), {1: 0.533, 5: 0.724, 10: 0.768},
                   evaluated=500, skipped_oov_src=3, gold_oov_tgt=12,
                   method_label="VecMap"),
        EvalReport("en", "tr", (1, 5, 10), {1: 0.539, 5: 0.753, 10: 0.784},
                   evaluated=500, skipped_oov_src=3, gold_oov_tgt=12,
                   method_label="Meemi"),
    ]


class TestRenderReport:
    def test_json_round_trip(self):
        reports = sample_reports()
        text = render_report(reports, "json")
        assert reports_from_json(text) == reports
        # the payload is plain JSON
        assert isinstance(json.loads(text), list)

    def test_table_layout(self):
        lines = render_report(sample_reports(), "table").splitlines()
        assert lines[0].startswith("method")
        assert "en-tr:P@1" in lines[0]
        fields = lines[1].split()
        assert fields == ["VecMap", "53.3", "72.4", "76.8"]
        assert lines[2].split() == ["Meemi", "53.9", "75.3", "78.4"]

    def test_tsv_layout(self):
        lines = render_report(sample_reports(), "tsv").splitlines()
        assert lines[0].split("\t") == ["method", "src", "tgt", "k", "precision",
                                        "evaluated", "skipped_oov_src", "gold_oov_tgt"]
        assert len(lines) == 1 + 6
        first = lines[1].split("\t")
        assert first[0] == "VecMap"
        assert first[3] == "1"
        assert float(first[4]) == pytest.approx(0.533)

    def test_empty_reports_render_header_only(self):
        assert render_report([], "table") == "method\n"
        assert render_report([], "tsv").splitlines()[0].startswith("method\t")
        assert json.loads(render_report([], "json")) == []

    def test_deterministic_bytes(self):
        a = render_report(sample_reports(), "json")
        b = render_report(sample_reports(), "json")
        assert a == b

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(sample_reports(), "html")
