import numpy as np
import pytest

from lexalign import (AlignedSpace, DataError, DictionaryPairs, MultiSpace,
                      VocabEmbedding, align_multistep, align_orthogonal,
                      meemi_bilingual, meemi_multilingual, normalize, precision_at_k,
                      replay_maps)
from lexalign.embeddings import row_norms

from conftest import identity_dict, make_embedding, random_orthogonal, unit_rows


def rotation_fixture(seed, n=50, d=10, noise=0.0):
    """other @ R = reference (plus optional noise), shared vocabulary."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    r = random_orthogonal(rng, d)
    z = x @ r + noise * rng.normal(size=(n, d))
    words = tuple(f"w{i}" for i in range(n))
    other = VocabEmbedding("xx", words, x)
    reference = VocabEmbedding("zz", words, z)
    return reference, other, identity_dict(words, "xx", "zz"), r


def pair_of_spaces(matrix, words, langs=("aa", "bb")):
    first = VocabEmbedding(langs[0], words, matrix)
    second = VocabEmbedding(langs[1], words, matrix.copy())
    return first, second


class TestAlignOrthogonal:
    def test_recovers_rotation(self):
        reference, other, pairs, r = rotation_fixture(0)
        ms = align_orthogonal(reference, other, pairs)
        moved = ms["xx"]
        assert len(moved.maps_applied) == 1
        assert moved.maps_applied[0].kind == "orthogonal"
        assert np.linalg.norm(moved.maps_applied[0].matrix - r) <= 1e-6
        assert np.abs(moved.embedding.matrix - reference.matrix).max() <= 1e-6

    def test_reference_untouched_bitwise(self):
        reference, other, pairs, _ = rotation_fixture(1)
        ms = align_orthogonal(reference, other, pairs)
        assert ms["zz"].embedding.matrix is reference.matrix
        assert ms["zz"].maps_applied == ()
        assert ms.hub == "zz"

        # every public fit, and eval by default, leaves its inputs as they
        # were, matrices and the norms they keep alike: only fit_method and
        # precision_at_k(in_place=True) consume what they are given
        inputs = [reference, other, ms["xx"].embedding]
        before = [emb.matrix.tobytes() for emb in inputs]
        norms = [emb.norms.copy() for emb in inputs]
        align_orthogonal(reference, other, pairs)
        align_multistep(reference, other, pairs, reduce_dim=5)
        meemi_bilingual(ms, pairs)
        meemi_multilingual(ms["zz"], [(ms["xx"], pairs)], {"zz"})
        precision_at_k(ms["xx"], ms["zz"], pairs)
        precision_at_k(other, reference, pairs)
        for emb, matrix, kept in zip(inputs, before, norms):
            assert emb.matrix.tobytes() == matrix
            assert emb.norms.tobytes() == kept.tobytes() == row_norms(emb.matrix).tobytes()

    def test_dictionary_orientation_irrelevant(self):
        reference, other, pairs, _ = rotation_fixture(2)
        reversed_pairs = DictionaryPairs("zz", "xx",
                                         tuple((t, s) for s, t in pairs.pairs))
        a = align_orthogonal(reference, other, pairs)
        b = align_orthogonal(reference, other, reversed_pairs)
        np.testing.assert_array_equal(a["xx"].embedding.matrix,
                                      b["xx"].embedding.matrix)

    def test_internal_geometry_preserved(self):
        reference, other, pairs, _ = rotation_fixture(3, noise=0.1)
        ms = align_orthogonal(reference, other, pairs)
        before = unit_rows(other.matrix)
        after = unit_rows(ms["xx"].embedding.matrix)
        np.testing.assert_allclose(after @ after.T, before @ before.T, atol=1e-6)

    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(4)
        first, second = pair_of_spaces(rng.normal(size=(30, 6)),
                                       tuple(f"w{i}" for i in range(30)))
        ms = align_orthogonal(first, second, identity_dict(first.words, "bb", "aa"))
        np.testing.assert_allclose(ms["bb"].maps_applied[0].matrix, np.eye(6),
                                   atol=1e-9)

    def test_normalized_recipe_survives(self):
        reference, other, pairs, _ = rotation_fixture(5)
        ref_n = normalize(reference, ("unit", "center", "unit"))
        oth_n = normalize(other, ("unit", "center", "unit"))
        ms = align_orthogonal(ref_n, oth_n, pairs)
        assert ms["xx"].embedding.norm_recipe == ("unit", "center", "unit")

    def test_recipe_mismatch_rejected(self):
        reference, other, pairs, _ = rotation_fixture(6)
        with pytest.raises(DataError):
            align_orthogonal(normalize(reference, ("unit",)), other, pairs)

    def test_dimension_mismatch_rejected(self):
        a = VocabEmbedding("aa", ("x",), np.ones((1, 3)))
        b = VocabEmbedding("bb", ("x",), np.ones((1, 2)))
        with pytest.raises(DataError):
            align_orthogonal(a, b, identity_dict(("x",), "bb", "aa"))

    def test_unrelated_dictionary_rejected(self):
        reference, other, _, _ = rotation_fixture(7)
        with pytest.raises(DataError):
            align_orthogonal(reference, other, identity_dict(("w0",), "qq", "zz"))


class TestAlignMultistep:
    def test_identical_spaces_identity_dictionary(self):
        rng = np.random.default_rng(8)
        words = tuple(f"w{i}" for i in range(40))
        first, second = pair_of_spaces(rng.normal(size=(40, 8)), words)
        ms = align_multistep(first, second, identity_dict(words, "bb", "aa"),
                             reweight_p=0.0)
        out_ref = ms["aa"].embedding.matrix
        out_other = ms["bb"].embedding.matrix
        assert np.abs(out_ref - out_other).max() <= 1e-5

    def test_stage_kinds_recorded(self):
        reference, other, pairs, _ = rotation_fixture(9)
        ms = align_multistep(reference, other, pairs)
        for lang in ("xx", "zz"):
            kinds = [m.kind for m in ms[lang].maps_applied]
            assert kinds == ["whitening", "orthogonal", "unconstrained", "composite"]

    def test_replayable(self):
        reference, other, pairs, _ = rotation_fixture(10)
        ms = align_multistep(reference, other, pairs, reweight_p=0.5)
        for emb, lang in ((other, "xx"), (reference, "zz")):
            replayed = replay_maps(emb, ms[lang].maps_applied)
            assert np.abs(replayed - ms[lang].embedding.matrix).max() <= 1e-9

    def test_matches_orthogonal_on_orthonormal_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            words = tuple(f"w{i}" for i in range(24))
            x = np.linalg.qr(rng.normal(size=(24, 24)))[0][:, :6]
            z = np.linalg.qr(rng.normal(size=(24, 24)))[0][:, :6]
            other = VocabEmbedding("xx", words, x)
            reference = VocabEmbedding("zz", words, z)
            pairs = identity_dict(words, "xx", "zz")
            plain = align_orthogonal(reference, other, pairs)
            multi = align_multistep(reference, other, pairs, reweight_p=0.0)
            sim_plain = (plain["xx"].embedding.matrix
                         @ plain["zz"].embedding.matrix.T)
            sim_multi = (multi["xx"].embedding.matrix
                         @ multi["zz"].embedding.matrix.T)
            assert np.abs(sim_plain - sim_multi).max() <= 1e-6
            # retrieval order agrees query by query
            for row_plain, row_multi in zip(sim_plain, sim_multi):
                assert np.array_equal(np.argsort(-row_plain, kind="stable")[:5],
                                      np.argsort(-row_multi, kind="stable")[:5])

    def test_truncation(self):
        reference, other, pairs, _ = rotation_fixture(12)
        ms = align_multistep(reference, other, pairs, reduce_dim=4)
        assert ms["xx"].dim == 4
        assert ms["zz"].dim == 4
        kinds = [m.kind for m in ms["xx"].maps_applied]
        assert kinds == ["whitening", "orthogonal", "unconstrained",
                         "composite", "composite"]
        replayed = replay_maps(other, ms["xx"].maps_applied)
        assert np.abs(replayed - ms["xx"].embedding.matrix).max() <= 1e-9

    def test_full_width_truncation_is_noop(self):
        reference, other, pairs, _ = rotation_fixture(13)
        plain = align_multistep(reference, other, pairs)
        full = align_multistep(reference, other, pairs, reduce_dim=10)
        assert len(full["xx"].maps_applied) == 4
        np.testing.assert_array_equal(plain["xx"].embedding.matrix,
                                      full["xx"].embedding.matrix)

    def test_parameter_validation(self):
        reference, other, pairs, _ = rotation_fixture(14)
        for reweight_p in (-0.1, float("inf"), float("nan")):
            with pytest.raises(DataError, match="reweight_p"):
                align_multistep(reference, other, pairs, reweight_p=reweight_p)
        with pytest.raises(DataError):
            align_multistep(reference, other, pairs, reduce_dim=0)
        with pytest.raises(DataError):
            align_multistep(reference, other, pairs, reduce_dim=11)


def manual_multispace(first, second, hub_lang):
    return MultiSpace({first.language: AlignedSpace(first, (), hub_lang),
                       second.language: AlignedSpace(second, (), hub_lang)},
                      hub=hub_lang)


class TestMeemiBilingual:
    def test_identical_spaces_are_fixed_point(self):
        rng = np.random.default_rng(15)
        words = tuple(f"w{i}" for i in range(30))
        first, second = pair_of_spaces(rng.normal(size=(30, 6)), words)
        ms = manual_multispace(first, second, "aa")
        out = meemi_bilingual(ms, identity_dict(words, "aa", "bb"))
        for lang, original in (("aa", first), ("bb", second)):
            fitted = out[lang].maps_applied[-1]
            assert fitted.kind == "unconstrained"
            assert np.abs(fitted.matrix - np.eye(6)).max() <= 1e-9
            assert np.abs(out[lang].embedding.matrix - original.matrix).max() <= 1e-9

    def test_single_pair_minimum_norm(self):
        first = VocabEmbedding("aa", ("x",), np.array([[1.0, 0.0]]))
        second = VocabEmbedding("bb", ("y",), np.array([[0.0, 1.0]]))
        ms = manual_multispace(first, second, "aa")
        out = meemi_bilingual(ms, DictionaryPairs("aa", "bb", (("x", "y"),)))
        np.testing.assert_allclose(out["aa"].maps_applied[-1].matrix,
                                   [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(out["bb"].maps_applied[-1].matrix,
                                   [[0.0, 0.0], [0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(out["aa"].embedding.matrix, [[0.5, 0.5]],
                                   atol=1e-12)
        np.testing.assert_allclose(out["bb"].embedding.matrix, [[0.5, 0.5]],
                                   atol=1e-12)

    def test_midpoint_fit_on_aligned_rotation(self):
        reference, other, pairs, _ = rotation_fixture(16, noise=0.05)
        aligned = align_orthogonal(reference, other, pairs)
        out = meemi_bilingual(aligned, pairs)
        # the two dictionary-linked rows land closer together after the refit
        before = np.linalg.norm(aligned["xx"].embedding.matrix
                                - aligned["zz"].embedding.matrix)
        after = np.linalg.norm(out["xx"].embedding.matrix
                               - out["zz"].embedding.matrix)
        assert after <= before + 1e-12
        # the map chain of the moved space now ends with the unconstrained fit
        assert [m.kind for m in out["xx"].maps_applied] == ["orthogonal",
                                                            "unconstrained"]
        assert [m.kind for m in out["zz"].maps_applied] == ["unconstrained"]

    def test_replay_through_chain(self):
        reference, other, pairs, _ = rotation_fixture(17, noise=0.05)
        out = meemi_bilingual(align_orthogonal(reference, other, pairs), pairs)
        replayed = replay_maps(other, out["xx"].maps_applied)
        assert np.abs(replayed - out["xx"].embedding.matrix).max() <= 1e-9
        replayed_ref = replay_maps(reference, out["zz"].maps_applied)
        assert np.abs(replayed_ref - out["zz"].embedding.matrix).max() <= 1e-9

    def test_wrong_dictionary_rejected(self):
        rng = np.random.default_rng(18)
        words = tuple(f"w{i}" for i in range(10))
        first, second = pair_of_spaces(rng.normal(size=(10, 4)), words)
        ms = manual_multispace(first, second, "aa")
        with pytest.raises(DataError):
            meemi_bilingual(ms, identity_dict(words, "aa", "cc"))


class TestMeemiMultilingual:
    def hub_fixture(self):
        hub = AlignedSpace(VocabEmbedding("hh", ("h0", "h1"),
                                          np.array([[1.0, 0.0], [0.0, 1.0]])), (), "hh")
        aa = AlignedSpace(VocabEmbedding("aa", ("a0", "a1"),
                                         np.array([[2.0, 0.0], [0.0, 2.0]])), (), "hh")
        bb = AlignedSpace(VocabEmbedding("bb", ("b0",),
                                         np.array([[1.0, 1.0]])), (), "hh")
        dict_aa = DictionaryPairs("hh", "aa", (("h0", "a0"), ("h1", "a1")))
        dict_bb = DictionaryPairs("hh", "bb", (("h0", "b0"),))
        return hub, aa, bb, dict_aa, dict_bb

    def test_hand_oracle_hub_only_sources(self):
        hub, aa, bb, dict_aa, dict_bb = self.hub_fixture()
        out = meemi_multilingual(hub, [(aa, dict_aa), (bb, dict_bb)], {"hh"})
        mu0 = np.array([1.0 + 2.0 + 1.0, 0.0 + 0.0 + 1.0]) / 3.0
        mu1 = np.array([0.0, 3.0]) / 2.0
        expected_hub = np.linalg.lstsq(np.eye(2), np.array([mu0, mu1]), rcond=None)[0]
        expected_aa = np.linalg.lstsq(np.diag([2.0, 2.0]), np.array([mu0, mu1]),
                                      rcond=None)[0]
        expected_bb = np.linalg.lstsq(np.array([[1.0, 1.0]]), np.array([mu0]),
                                      rcond=None)[0]
        np.testing.assert_allclose(out["hh"].maps_applied[-1].matrix, expected_hub,
                                   atol=1e-10)
        np.testing.assert_allclose(out["aa"].maps_applied[-1].matrix, expected_aa,
                                   atol=1e-10)
        np.testing.assert_allclose(out["bb"].maps_applied[-1].matrix, expected_bb,
                                   atol=1e-10)

    def test_source_language_restricts_tuples(self):
        hub, aa, bb, dict_aa, dict_bb = self.hub_fixture()
        out = meemi_multilingual(hub, [(aa, dict_aa), (bb, dict_bb)], {"hh", "bb"})
        # only h0 is covered by bb, so every fit sees exactly that tuple
        mu0 = np.array([4.0, 1.0]) / 3.0
        expected_hub = np.linalg.lstsq(np.array([[1.0, 0.0]]), np.array([mu0]),
                                       rcond=None)[0]
        np.testing.assert_allclose(out["hh"].maps_applied[-1].matrix, expected_hub,
                                   atol=1e-10)

    def test_first_translation_cap_vs_all_combinations(self):
        hub = AlignedSpace(VocabEmbedding("hh", ("h0",), np.array([[1.0, 0.0]])),
                           (), "hh")
        aa = AlignedSpace(VocabEmbedding("aa", ("a0", "a1"),
                                         np.array([[0.0, 2.0], [2.0, 0.0]])), (), "hh")
        pairs = DictionaryPairs("hh", "aa", (("h0", "a0"), ("h0", "a1")))
        capped = meemi_multilingual(hub, [(aa, pairs)], {"hh"})
        mu_cap = np.array([[0.5, 1.0]])
        expected = np.linalg.lstsq(np.array([[1.0, 0.0]]), mu_cap, rcond=None)[0]
        np.testing.assert_allclose(capped["hh"].maps_applied[-1].matrix, expected,
                                   atol=1e-10)
        expanded = meemi_multilingual(hub, [(aa, pairs)], {"hh"},
                                      all_combinations=True)
        mus = np.array([[0.5, 1.0], [1.5, 0.0]])
        expected_hub = np.linalg.lstsq(np.array([[1.0, 0.0], [1.0, 0.0]]), mus,
                                       rcond=None)[0]
        expected_aa = np.linalg.lstsq(np.array([[0.0, 2.0], [2.0, 0.0]]), mus,
                                      rcond=None)[0]
        np.testing.assert_allclose(expanded["hh"].maps_applied[-1].matrix,
                                   expected_hub, atol=1e-10)
        np.testing.assert_allclose(expanded["aa"].maps_applied[-1].matrix,
                                   expected_aa, atol=1e-10)

    def test_two_languages_match_bilingual(self):
        rng = np.random.default_rng(19)
        words = tuple(f"w{i}" for i in range(25))
        hub_emb = VocabEmbedding("hh", words, rng.normal(size=(25, 5)))
        other_emb = VocabEmbedding("aa", words, rng.normal(size=(25, 5)))
        pairs = identity_dict(words, "hh", "aa")
        bilingual = meemi_bilingual(manual_multispace(hub_emb, other_emb, "hh"),
                                    pairs)
        multilingual = meemi_multilingual(AlignedSpace(hub_emb, (), "hh"),
                                          [(AlignedSpace(other_emb, (), "hh"), pairs)],
                                          {"hh"})
        for lang in ("hh", "aa"):
            assert np.abs(bilingual[lang].embedding.matrix
                          - multilingual[lang].embedding.matrix).max() <= 1e-12

    def test_identical_spaces_fixed_point(self):
        rng = np.random.default_rng(20)
        words = tuple(f"w{i}" for i in range(20))
        m = rng.normal(size=(20, 4))
        hub = AlignedSpace(VocabEmbedding("hh", words, m), (), "hh")
        others = [(AlignedSpace(VocabEmbedding(lang, words, m.copy()), (), "hh"),
                   identity_dict(words, "hh", lang)) for lang in ("aa", "bb")]
        out = meemi_multilingual(hub, others, {"hh"})
        for lang in ("hh", "aa", "bb"):
            assert np.abs(out[lang].maps_applied[-1].matrix - np.eye(4)).max() <= 1e-9

    def test_validation(self):
        hub, aa, bb, dict_aa, dict_bb = self.hub_fixture()
        with pytest.raises(DataError):
            meemi_multilingual(hub, [], {"hh"})
        with pytest.raises(DataError):
            meemi_multilingual(hub, [(aa, dict_aa)], {"aa"})
        with pytest.raises(DataError):
            meemi_multilingual(hub, [(aa, dict_aa)], {"hh", "cc"})
        misaligned = AlignedSpace(aa.embedding, (), "zz")
        with pytest.raises(DataError):
            meemi_multilingual(hub, [(misaligned, dict_aa)], {"hh"})

    def test_uncovered_hub_words_need_a_tuple(self):
        hub = AlignedSpace(VocabEmbedding("hh", ("h0",), np.ones((1, 2))), (), "hh")
        aa = AlignedSpace(VocabEmbedding("aa", ("a0",), np.ones((1, 2))), (), "hh")
        pairs = DictionaryPairs("hh", "aa", (("missing", "a0"),))
        with pytest.raises(DataError):
            meemi_multilingual(hub, [(aa, pairs)], {"hh"})


class TestMultiSpace:
    def test_hub_must_exist(self):
        space = AlignedSpace(VocabEmbedding("aa", ("x",), np.ones((1, 2))), (), "aa")
        with pytest.raises(DataError):
            MultiSpace({"aa": space}, hub="bb")

    def test_dimensions_must_agree(self):
        a = AlignedSpace(VocabEmbedding("aa", ("x",), np.ones((1, 2))), (), "aa")
        b = AlignedSpace(VocabEmbedding("bb", ("x",), np.ones((1, 3))), (), "aa")
        with pytest.raises(DataError):
            MultiSpace({"aa": a, "bb": b}, hub="aa")



def two_words(lang, dim=2):
    """A two-word space aligned to the hub hh, and its pairs with hh."""
    space = AlignedSpace(VocabEmbedding(lang, ("w0", "w1"), np.eye(2, dim)), (), "hh")
    return space, DictionaryPairs("hh", lang, (("w0", "w0"), ("w1", "w1")))


@pytest.mark.parametrize("call, message", [
    (lambda: meemi_multilingual(two_words("hh")[0], [two_words("aa", dim=3)], {"hh"}),
     "space 'aa' has dim 3, hub has 2"),
    (lambda: meemi_multilingual(two_words("hh")[0],
                                [two_words("aa"), (two_words("bb")[0],
                                                   DictionaryPairs("hh", "bb", (("w0", "x"),)))],
                                {"hh"}),
     "language 'bb' participates in no tuple"),
    (lambda: meemi_bilingual(MultiSpace({lang: two_words(lang)[0] for lang in ("hh", "aa", "bb")},
                                        hub="hh"), two_words("aa")[1]),
     "needs exactly two aligned spaces, got 3"),
    (lambda: align_orthogonal(two_words("hh")[0].embedding, two_words("hh")[0].embedding,
                              two_words("hh")[1]),
     "reference and other space share a language code"),
    (lambda: align_multistep(two_words("hh")[0].embedding, two_words("hh")[0].embedding,
                             two_words("hh")[1]),
     "reference and other space share a language code"),
], ids=["meemi-multi-dimension", "meemi-multi-no-usable-pair", "meemi-three-spaces",
        "orthogonal-one-language", "multistep-one-language"])
def test_fits_reject_inputs_they_cannot_align(call, message):
    with pytest.raises(DataError, match=message):
        call()
