"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with `pytest -v tests/test_acceptance.py` for one line per criterion, or
with `-s` to see the printed PASS lines as well.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest

from lexalign import (AlignedSpace, DictionaryPairs, EvalReport, MultiSpace,
                      ReplayClient, VocabEmbedding, align_multistep,
                      align_orthogonal, clean_dictionary, cosine_scores, induce,
                      least_squares_map, load_dictionary, load_embeddings,
                      meemi_bilingual, meemi_multilingual, normalize,
                      precision_at_k, procrustes, rank_by_score, render_report,
                      reverse_filter, save_dictionary,
                      save_embeddings, split_dictionary, translate_wordlist,
                      whitening_transform)
from lexalign.cli import main
from lexalign.maps import PairedMatrices

from conftest import identity_dict, random_orthogonal, unit_rows


@contextmanager
def verdict(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def rotation_spaces(seed, n=50, d=10, noise=0.0):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng.normal(size=(n, d)))
    r = random_orthogonal(rng, d)
    z = x @ r + noise * rng.normal(size=(n, d))
    words = tuple(f"w{i}" for i in range(n))
    other = VocabEmbedding("xx", words, x)
    reference = VocabEmbedding("zz", words, z)
    return reference, other, identity_dict(words, "xx", "zz"), r


def test_criterion_01_exact_rotation_recovery():
    with verdict(1, "exact rotation recovered, perfect retrieval, under 1s"):
        start = time.perf_counter()
        reference, other, pairs, r = rotation_spaces(101)
        ms = align_orthogonal(reference, other, pairs)
        fitted = ms["xx"].maps_applied[0].matrix
        assert np.linalg.norm(fitted - r) <= 1e-3
        report = precision_at_k(ms["xx"], ms["zz"],
                                identity_dict(other.words, "xx", "zz"),
                                ks=(1, 5, 10))
        assert report.precision[1] == report.precision[5] == \
            report.precision[10] == 1.0
        assert time.perf_counter() - start < 1.0


def test_criterion_02_noisy_rotation_retrieval():
    with verdict(2, "noisy rotation still retrieves at 0.95+, under 1s"):
        start = time.perf_counter()
        reference, other, pairs, _ = rotation_spaces(202, noise=0.01)
        ms = align_orthogonal(reference, other, pairs)
        report = precision_at_k(ms["xx"], ms["zz"],
                                identity_dict(other.words, "xx", "zz"), ks=(1,))
        assert report.precision[1] >= 0.95
        assert time.perf_counter() - start < 1.0


def test_criterion_03_orthogonality_and_optimality():
    with verdict(3, "orthogonal maps beat random rotations on 100 instances"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(2, 17))
            x = rng.normal(size=(n, d))
            z = rng.normal(size=(n, d))
            w = procrustes(PairedMatrices(x, z)).matrix
            assert np.abs(w.T @ w - np.eye(d)).max() <= 1e-6
            loss = np.linalg.norm(x @ w - z)
            for _ in range(100):
                q = random_orthogonal(rng, d)
                assert loss <= np.linalg.norm(x @ q - z) + 1e-9


def test_criterion_04_meemi_fixed_point_and_equivalence():
    with verdict(4, "identical spaces are a Meemi fixed point; two-language "
                    "multilingual equals bilingual"):
        rng = np.random.default_rng(404)
        words = tuple(f"w{i}" for i in range(60))
        m = rng.normal(size=(60, 8))
        first = VocabEmbedding("aa", words, m)
        second = VocabEmbedding("bb", words, m.copy())
        ms = MultiSpace({"aa": AlignedSpace(first, (), "aa"),
                         "bb": AlignedSpace(second, (), "aa")}, hub="aa")
        pairs = identity_dict(words, "aa", "bb")
        out = meemi_bilingual(ms, pairs)
        for lang in ("aa", "bb"):
            assert np.abs(out[lang].maps_applied[-1].matrix - np.eye(8)).max() <= 1e-9
            assert np.abs(out[lang].embedding.matrix - m).max() <= 1e-9

        multi = meemi_multilingual(AlignedSpace(first, (), "aa"),
                                   [(AlignedSpace(second, (), "aa"), pairs)],
                                   {"aa"})
        for lang in ("aa", "bb"):
            assert np.abs(multi[lang].embedding.matrix
                          - out[lang].embedding.matrix).max() <= 1e-9
            assert np.abs(multi[lang].maps_applied[-1].matrix
                          - out[lang].maps_applied[-1].matrix).max() <= 1e-9


def test_criterion_05_least_squares_against_reference_solver():
    with verdict(5, "least squares meets the residual contract and an "
                    "independent solver on 100 instances"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            n = int(rng.integers(12, 81))
            d_in = int(rng.integers(2, 11))
            d_out = int(rng.integers(2, 11))
            a = rng.normal(size=(n, d_in))
            b = rng.normal(size=(n, d_out))
            w = least_squares_map(a, b).matrix
            residual = np.linalg.norm(a.T @ (a @ w - b))
            assert residual <= 1e-6 * np.linalg.norm(a.T @ b)
            reference = np.linalg.inv(a.T @ a) @ (a.T @ b)
            scale = max(1.0, np.abs(reference).max())
            assert np.abs(w - reference).max() <= 1e-8 * scale


def test_criterion_06_whitening_and_multistep_reduction():
    with verdict(6, "whitening yields identity covariance; multistep at p=0 "
                    "matches the orthogonal alignment on orthonormal rows"):
        rng = np.random.default_rng(606)
        for _ in range(50):
            a = rng.normal(size=(int(rng.integers(20, 201)),
                                 int(rng.integers(2, 17))))
            w = whitening_transform(a).matrix
            white = a @ w
            assert np.abs(white.T @ white - np.eye(a.shape[1])).max() <= 1e-5

        for trial in range(10):
            words = tuple(f"w{i}" for i in range(24))
            x = np.linalg.qr(rng.normal(size=(24, 24)))[0][:, :6]
            z = np.linalg.qr(rng.normal(size=(24, 24)))[0][:, :6]
            other = VocabEmbedding("xx", words, x)
            reference = VocabEmbedding("zz", words, z)
            pairs = identity_dict(words, "xx", "zz")
            plain = align_orthogonal(reference, other, pairs)
            multi = align_multistep(reference, other, pairs, reweight_p=0.0)
            sim_plain = plain["xx"].embedding.matrix @ plain["zz"].embedding.matrix.T
            sim_multi = multi["xx"].embedding.matrix @ multi["zz"].embedding.matrix.T
            assert np.abs(sim_plain - sim_multi).max() <= 1e-6
            for row_p, row_m in zip(sim_plain, sim_multi):
                assert np.array_equal(rank_by_score(row_p), rank_by_score(row_m))


def test_criterion_07_retrieval_matches_brute_force():
    with verdict(7, "blocked retrieval equals the brute-force ranking on 200 "
                    "fixtures"):
        rng = np.random.default_rng(707)
        for fixture in range(200):
            if fixture % 100 == 50:
                n = 10_000
            else:
                n = int(rng.integers(3, 400))
            d = int(rng.integers(2, 24))
            matrix = rng.normal(size=(n, d))
            # engineered ties: duplicate a block of rows
            if n >= 6:
                matrix[n // 2] = matrix[0]
                matrix[n // 2 + 1] = matrix[1]
            unit = unit_rows(matrix)
            queries = [rng.normal(size=d) for _ in range(2)]
            queries.append(matrix[0].copy())
            for q in queries:
                blocked = rank_by_score(cosine_scores(q, unit, backend="blocked"))
                exact = rank_by_score(cosine_scores(q, unit, backend="exact"))
                assert np.array_equal(blocked, exact)
        # the public API agrees with itself across backends as well
        emb = VocabEmbedding("tr", tuple(f"w{i}" for i in range(500)),
                             rng.normal(size=(500, 16)))
        q = emb.vector("w3")
        assert induce(q, emb, 10, backend="blocked") == \
            induce(q, emb, 10, backend="exact")


def test_criterion_08_dictionary_pipeline_counts(tmp_path):
    with verdict(8, "round-trip dictionary pipeline reproduces 30 -> 13 -> 10 "
                    "-> 7/3"):
        words = [f"word{i:02d}" for i in range(30)]
        cache = {}
        for i, w in enumerate(words):
            cache[(w, "en", "uz")] = f"tr{i:02d}"
            # only the first 13 translations survive the round trip
            cache[(f"tr{i:02d}", "uz", "en")] = w if i < 13 else "mismatch"
        client = ReplayClient(cache)

        translated, forward = translate_wordlist(client, words, "en", "uz")
        assert forward.requested == 30
        assert len(translated) == 30

        filtered, backward = reverse_filter(client, translated)
        assert backward.checked == 30
        assert len(filtered) == 13

        # corrupt three entries in place: two duplicates and one multi-token
        pairs = list(filtered.pairs)
        pairs[3] = pairs[0]
        pairs[7] = pairs[1]
        pairs[11] = (pairs[11][0], "two tokens")
        dirty = DictionaryPairs("en", "uz", tuple(pairs))

        cleaned = clean_dictionary(dirty)
        assert len(cleaned) == 10

        train, test = split_dictionary(cleaned, test_size=3, seed=20240817)
        assert len(train) == 7
        assert len(test) == 3
        assert set(train.pairs).isdisjoint(test.pairs)
        again = split_dictionary(cleaned, test_size=3, seed=20240817)
        assert again[0].pairs == train.pairs and again[1].pairs == test.pairs

        # the same counts hold through the file round trip
        path = tmp_path / "dict.tsv"
        save_dictionary(cleaned, path)
        assert len(load_dictionary(path, "en", "uz")) == 10


def test_criterion_09_report_invariants_and_rendering():
    with verdict(9, "evaluation reports obey invariants and render the "
                    "expected table row"):
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            n = int(rng.integers(20, 80))
            words = tuple(f"w{i}" for i in range(n))
            src = VocabEmbedding("en", words, rng.normal(size=(n, 8)))
            tgt = VocabEmbedding("tr", words, rng.normal(size=(n, 8)))
            test_pairs = [(words[int(rng.integers(0, n))],
                           words[int(rng.integers(0, n))]) for _ in range(n // 2)]
            test_pairs.append(("out-of-vocab", words[0]))
            test = DictionaryPairs("en", "tr", tuple(test_pairs))
            report = precision_at_k(src, tgt, test, ks=(1, 5, 10))
            series = [report.precision[k] for k in report.k_values]
            assert all(0.0 <= v <= 1.0 for v in series)
            assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
            distinct = len({s for s, _ in test.pairs})
            assert report.evaluated + report.skipped_oov_src == distinct
            # the JSON holds every field: k_values as a list, precision keyed by str(k)
            assert json.loads(render_report([report], "json")) == [{
                **asdict(report), "k_values": list(report.k_values),
                "precision": {str(k): v for k, v in report.precision.items()}}]

        shaped = EvalReport("en", "tr", (1, 5, 10),
                            {1: 0.533, 5: 0.724, 10: 0.768},
                            evaluated=500, method_label="VecMap")
        table = render_report([shaped], "table")
        assert any(line.split() == ["VecMap", "53.3", "72.4", "76.8"]
                   for line in table.splitlines())


FULLSCALE_DIR = os.environ.get("LEXALIGN_FULLSCALE_DIR")


@pytest.mark.skipif(not FULLSCALE_DIR,
                    reason="full-scale corpus not bundled; set "
                           "LEXALIGN_FULLSCALE_DIR to run (see README)")
def test_criterion_10_full_scale_benchmark():
    with verdict(10, "full-scale alignment reproduces the reference retrieval "
                     "figures"):
        root = FULLSCALE_DIR
        english = normalize(load_embeddings(os.path.join(root, "en.vec"),
                                            max_words=200_000, language="en"),
                            ("unit", "center", "unit"))
        turkish = normalize(load_embeddings(os.path.join(root, "tr.vec"),
                                            max_words=200_000, language="tr"),
                            ("unit", "center", "unit"))
        train = load_dictionary(os.path.join(root, "en-tr.train.tsv"), "en", "tr")
        test = load_dictionary(os.path.join(root, "en-tr.test.tsv"), "en", "tr")
        ms = align_orthogonal(turkish, english, train)
        base = precision_at_k(ms["en"], ms["tr"], test, ks=(1, 5, 10))
        assert abs(100.0 * base.precision[1] - 53.3) <= 5.0
        assert abs(100.0 * base.precision[5] - 72.4) <= 5.0
        assert abs(100.0 * base.precision[10] - 76.8) <= 5.0
        refined = meemi_bilingual(ms, train)
        after = precision_at_k(refined["en"], refined["tr"], test, ks=(10,))
        assert after.precision[10] >= base.precision[10] - 0.05


def test_criterion_11_pipeline_determinism(tmp_path):
    with verdict(11, "the same configuration writes byte-identical artifacts"):
        # same fixture shape as criterion 1: 50 words, d=10, pure rotation
        rng = np.random.default_rng(1111)
        n, d = 50, 10
        words = tuple(f"w{i}" for i in range(n))
        x = unit_rows(rng.normal(size=(n, d)))
        r = random_orthogonal(rng, d)
        save_embeddings(VocabEmbedding("zz", words, x @ r), tmp_path / "zz.vec",
                        decimals=9)
        save_embeddings(VocabEmbedding("xx", words, x), tmp_path / "xx.vec",
                        decimals=9)
        save_dictionary(identity_dict(words, "zz", "xx"), tmp_path / "d.tsv")
        out = tmp_path / "run"
        config = {
            "reference": {"lang": "zz", "path": str(tmp_path / "zz.vec")},
            "targets": [{"lang": "xx", "path": str(tmp_path / "xx.vec"),
                         "dict": str(tmp_path / "d.tsv")}],
            "out_dir": str(out),
            "eval": {"test": str(tmp_path / "d.tsv")},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")

        assert main(["run", "--config", str(cfg_path)]) == 0
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert main(["run", "--config", str(cfg_path)]) == 0
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert first == second
        assert "INCOMPLETE" not in first
        report = json.loads(first["report.json"].decode("utf-8"))
        assert report[0]["precision"]["1"] == 1.0
        manifest = json.loads(first["manifest.json"].decode("utf-8"))
        assert set(manifest["artifacts"]) == set(first) - {"manifest.json"}
