import argparse
import json
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import requests

from lexalign import (AlignedSpace, DataError, DictionaryPairs, MultiSpace, PipelineConfig,
                      PipelineStageError, VocabEmbedding, load_dictionary, load_embeddings,
                      load_maps, meemi_bilingual, run_pipeline, save_dictionary,
                      save_embeddings, save_maps)
from lexalign.cli import build_parser, main
from lexalign.pipeline import read_dictionary
from lexalign.translate import MAX_WORKERS

from conftest import identity_dict, random_orthogonal


@pytest.fixture()
def rotation_files(tmp_path):
    """Two vector files related by a rotation plus an identity dictionary."""
    rng = np.random.default_rng(21)
    n, d = 40, 8
    words = tuple(f"w{i}" for i in range(n))
    x = rng.normal(size=(n, d))
    r = random_orthogonal(rng, d)
    other = VocabEmbedding("xx", words, x)
    reference = VocabEmbedding("zz", words, x @ r)
    ref_path = tmp_path / "zz.vec"
    other_path = tmp_path / "xx.vec"
    dict_path = tmp_path / "zz-xx.tsv"
    save_embeddings(reference, ref_path, decimals=9)
    save_embeddings(other, other_path, decimals=9)
    save_dictionary(identity_dict(words, "zz", "xx"), dict_path)
    return {"ref": ref_path, "other": other_path, "dict": dict_path,
            "tmp": tmp_path, "words": words}


def base_config(fixture, out_dir):
    return {
        "reference": {"lang": "zz", "path": str(fixture["ref"])},
        "targets": [{"lang": "xx", "path": str(fixture["other"]),
                     "dict": str(fixture["dict"])}],
        "out_dir": str(out_dir),
        "method": "orthogonal",
        "eval": {"test": str(fixture["dict"])},
    }


class TestRunPipeline:
    def test_end_to_end_orthogonal(self, rotation_files):
        out = rotation_files["tmp"] / "run1"
        cfg = PipelineConfig.from_dict(base_config(rotation_files, out))
        manifest = run_pipeline(cfg)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report[0]["precision"]["1"] == 1.0
        assert (out / "zz.aligned.vec").exists()
        assert (out / "xx.aligned.vec").exists()
        assert (out / "xx.map").exists()
        assert not (out / "INCOMPLETE").exists()
        assert set(manifest["inputs"]) == {str(rotation_files["ref"]),
                                           str(rotation_files["other"]),
                                           str(rotation_files["dict"])}
        assert "timestamp" not in json.dumps(manifest)

    def test_rerun_is_byte_identical(self, rotation_files):
        out = rotation_files["tmp"] / "run2"
        cfg_dict = base_config(rotation_files, out)
        run_pipeline(PipelineConfig.from_dict(cfg_dict))
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_pipeline(PipelineConfig.from_dict(cfg_dict))
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_split_flow(self, rotation_files):
        out = rotation_files["tmp"] / "run3"
        cfg_dict = base_config(rotation_files, out)
        del cfg_dict["eval"]
        cfg_dict.update({"split": {"test_size": 10}, "seed": 7,
                         "eval": {}})
        run_pipeline(PipelineConfig.from_dict(cfg_dict))
        train = load_dictionary(out / "zz-xx.train.tsv")
        test = load_dictionary(out / "zz-xx.test.tsv")
        assert len(train) == 30
        assert len(test) == 10
        assert not {s for s, _ in train.pairs} & {s for s, _ in test.pairs}
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report[0]["evaluated"] == 10
        assert report[0]["precision"]["1"] == 1.0

    def test_split_without_seed_rejected(self, rotation_files):
        cfg_dict = base_config(rotation_files, rotation_files["tmp"] / "o")
        cfg_dict["split"] = {"test_size": 5}
        with pytest.raises(Exception, match="seed"):
            PipelineConfig.from_dict(cfg_dict)

    def test_unknown_key_rejected(self, rotation_files):
        cfg_dict = base_config(rotation_files, rotation_files["tmp"] / "o")
        cfg_dict["typo_key"] = 1
        with pytest.raises(Exception, match="typo_key"):
            PipelineConfig.from_dict(cfg_dict)

    def test_missing_input_marks_incomplete(self, rotation_files):
        out = rotation_files["tmp"] / "run4"
        cfg_dict = base_config(rotation_files, out)
        cfg_dict["targets"][0]["dict"] = str(rotation_files["tmp"] / "absent.tsv")
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(PipelineConfig.from_dict(cfg_dict))
        assert err.value.stage == "dict"
        assert (out / "INCOMPLETE").exists()
        assert not (out / "manifest.json").exists()

    def test_meemi_method(self, rotation_files):
        out = rotation_files["tmp"] / "run5"
        cfg_dict = base_config(rotation_files, out)
        cfg_dict["method"] = "meemi"
        cfg_dict["eval"]["label"] = "meemi"
        run_pipeline(PipelineConfig.from_dict(cfg_dict))
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report[0]["method_label"] == "meemi"
        assert report[0]["precision"]["1"] == 1.0
        # the reference moved, so its map chain is on disk too
        assert (out / "zz.map").exists()

    def test_multistep_method(self, rotation_files):
        out = rotation_files["tmp"] / "run6"
        cfg_dict = base_config(rotation_files, out)
        cfg_dict.update({"method": "multistep", "reweight_p": 0.0})
        run_pipeline(PipelineConfig.from_dict(cfg_dict))
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report[0]["precision"]["1"] == 1.0
        chain = load_maps(out / "xx.map")
        assert [m.kind for m in chain] == ["whitening", "orthogonal",
                                           "unconstrained", "composite"]

    def test_manifest_hashes_pin_inputs(self, rotation_files):
        out = rotation_files["tmp"] / "run7"
        cfg_dict = base_config(rotation_files, out)
        manifest = run_pipeline(PipelineConfig.from_dict(cfg_dict))
        stored = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert stored == manifest
        for name in manifest["artifacts"]:
            assert (out / name).exists()
        assert manifest["config"]["method"] == "orthogonal"
        assert len(manifest["config_sha256"]) == 64


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_align_then_eval(self, rotation_files, tmp_path, capsys):
        out_vec = tmp_path / "xx.aligned.vec"
        code = self.run("align", "--ref", str(rotation_files["ref"]),
                        "--other", str(rotation_files["other"]),
                        "--dict", str(rotation_files["dict"]),
                        "--dict-direction", "ref2other",
                        "--out", str(out_vec))
        assert code == 0
        assert out_vec.exists()
        assert (tmp_path / "xx.aligned.vec.map").exists()
        # evaluating the aligned space against the normalized reference
        ref_out = tmp_path / "zz.norm.vec"
        code = self.run("align", "--ref", str(rotation_files["ref"]),
                        "--other", str(rotation_files["other"]),
                        "--dict", str(rotation_files["dict"]),
                        "--out", str(tmp_path / "unused.vec"),
                        "--out-ref", str(ref_out))
        assert code == 0
        test_path = tmp_path / "test.tsv"
        save_dictionary(DictionaryPairs("xx", "zz",
                                        tuple((w, w) for w in rotation_files["words"])),
                        test_path)
        code = self.run("eval", "--src", str(out_vec), "--tgt", str(ref_out),
                        "--src-lang", "xx", "--tgt-lang", "zz",
                        "--test", str(test_path), "--format", "tsv",
                        "--label", "orthogonal")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row = lines[1].split("\t")
        assert row[0] == "orthogonal"
        assert float(row[4]) == 1.0

    def test_align_multistep_requires_out_ref(self, rotation_files, tmp_path):
        code = self.run("align", "--method", "multistep",
                        "--ref", str(rotation_files["ref"]),
                        "--other", str(rotation_files["other"]),
                        "--dict", str(rotation_files["dict"]),
                        "--out", str(tmp_path / "x.vec"))
        assert code == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_align_multistep_rejects_a_reweight_p_that_is_not_finite(
            self, rotation_files, tmp_path, value):
        # with noise every whitened singular value is below 1, so s ** inf
        # would be a finite map of zeros
        other = load_embeddings(rotation_files["other"])
        noise = np.random.default_rng(3).normal(scale=0.3, size=other.matrix.shape)
        noisy = tmp_path / "xx.noisy.vec"
        save_embeddings(VocabEmbedding("xx", other.words, other.matrix + noise), noisy)
        out = tmp_path / "x.vec"
        code = self.run("align", "--method", "multistep", "--reweight-p", value,
                        "--ref", str(rotation_files["ref"]), "--other", str(noisy),
                        "--dict", str(rotation_files["dict"]),
                        "--out", str(out), "--out-ref", str(tmp_path / "ref.vec"))
        assert code == 2
        assert not out.exists()

    def test_induce_output(self, tmp_path, capsys):
        emb = VocabEmbedding("tr", ("w0", "w1", "w2"),
                             np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]]))
        path = tmp_path / "tr.vec"
        save_embeddings(emb, path)
        code = self.run("induce", "--space", str(path), "--word", "w0", "-k", "2")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[0] == "w0"
        assert float(lines[0].split("\t")[1]) == pytest.approx(1.0)
        assert lines[1].split("\t")[0] == "w1"

    def test_dict_tools(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("a\t1\na\t1\nb\tx y\nc\t3\n", encoding="utf-8")
        cleaned = tmp_path / "clean.tsv"
        assert self.run("dict-clean", "--in", str(raw), "--out", str(cleaned)) == 0
        assert load_dictionary(cleaned).pairs == (("a", "1"), ("c", "3"))

        second = tmp_path / "second.tsv"
        second.write_text("c\t3\nd\t4\n", encoding="utf-8")
        merged = tmp_path / "merged.tsv"
        assert self.run("dict-merge", "--in", str(cleaned), "--in", str(second),
                        "--out", str(merged)) == 0
        assert load_dictionary(merged).pairs == (("a", "1"), ("c", "3"), ("d", "4"))

        train = tmp_path / "train.tsv"
        test = tmp_path / "test.tsv"
        assert self.run("dict-split", "--in", str(merged),
                        "--out-train", str(train), "--out-test", str(test),
                        "--test-size", "1", "--seed", "3") == 0
        assert len(load_dictionary(train)) == 2
        assert len(load_dictionary(test)) == 1

    def test_dict_build_replay(self, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("good\nbad\nweird\n", encoding="utf-8")
        cache = tmp_path / "cache.tsv"
        cache.write_text("good\ten\tuz\tyaxshi\n"
                         "bad\ten\tuz\tyomon\n"
                         "weird\ten\tuz\tgalati\n"
                         "yaxshi\tuz\ten\tgood\n"
                         "yomon\tuz\ten\tbad\n"
                         "galati\tuz\ten\tstrange\n", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        code = self.run("dict-build", "--words", str(words), "--src-lang", "en",
                        "--tgt-lang", "uz", "--cache", str(cache),
                        "--out", str(out))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["translated"] == 3
        assert summary["round_trip_kept"] == 2
        assert load_dictionary(out).pairs == (("good", "yaxshi"), ("bad", "yomon"))

    def test_dict_build_no_reverse(self, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("good\n", encoding="utf-8")
        cache = tmp_path / "cache.tsv"
        cache.write_text("good\ten\tuz\tyaxshi\n", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        code = self.run("dict-build", "--words", str(words), "--src-lang", "en",
                        "--tgt-lang", "uz", "--cache", str(cache),
                        "--out", str(out), "--no-reverse")
        assert code == 0
        assert load_dictionary(out).pairs == (("good", "yaxshi"),)

    @pytest.mark.parametrize("answer, retries, logged", [
        (500, 0, "HTTP 500"),
        (503, 0, "HTTP 503"),
        (429, 0, "HTTP 429"),
        (requests.Timeout("read timed out"), 0, "read timed out"),
        (requests.ConnectionError("connection refused"), 0, "connection refused"),
        (503, 1, "after 2 attempts: HTTP 503"),
        ("some", 0, "1 of 2 lookups failed"),
    ], ids=["500", "503", "429", "timeout", "refused", "503-retried", "some-fail"])
    def test_dict_build_failing_endpoint_exit_codes(self, tmp_path, monkeypatch, caplog,
                                                    capsys, answer, retries, logged):
        # every attempt gets `answer`; "some" fails only the word "bad", so
        # the build goes on and counts it
        attempts = []

        def post(session, url, json=None, headers=None, timeout=None):
            attempts.append(json["q"])
            if isinstance(answer, Exception):
                raise answer
            if answer == "some" and json["q"] != "bad":
                back = {"good": "yaxshi", "yaxshi": "good"}[json["q"]]
                return SimpleNamespace(status_code=200, headers={},
                                       json=lambda: {"translation": back})
            return SimpleNamespace(status_code=503 if answer == "some" else answer, headers={})

        monkeypatch.setattr(requests.Session, "post", post)
        words = tmp_path / "words.txt"
        words.write_text("good\nbad\n" if answer == "some" else "good\n", encoding="utf-8")
        out = tmp_path / "d.tsv"
        code = self.run("dict-build", "--words", str(words), "--src-lang", "en",
                        "--tgt-lang", "uz", "--out", str(out),
                        "--endpoint", "http://svc/translate", "--retries", str(retries))
        assert logged in caplog.text
        if answer == "some":
            assert code == 0
            assert json.loads(capsys.readouterr().out)["failed"] == 1
            assert load_dictionary(out).pairs == (("good", "yaxshi"),)
        else:
            assert code == 3
            assert not out.exists()
            assert attempts == ["good"] * (retries + 1)

    def test_usage_errors_exit_one(self, tmp_path):
        assert self.run("align") == 1
        assert self.run("no-such-command") == 1
        assert self.run("dict-build", "--words", str(tmp_path / "w.txt"),
                        "--src-lang", "en", "--tgt-lang", "uz",
                        "--out", str(tmp_path / "d.tsv")) == 1

    def test_data_errors_exit_two(self, tmp_path):
        missing = tmp_path / "missing.vec"
        assert self.run("induce", "--space", str(missing), "--word", "x") == 2
        bad = tmp_path / "bad.vec"
        bad.write_text("not a header\n", encoding="utf-8")
        assert self.run("induce", "--space", str(bad), "--word", "x") == 2

    def test_non_utf8_input_exits_two(self, rotation_files, capsys):
        binary = rotation_files["tmp"] / "binary.vec"
        binary.write_bytes(b"2 2\n\xff\xfe 1 0\nb 0 1\n")
        code = self.run("eval", "--src", str(binary), "--tgt", str(rotation_files["ref"]),
                        "--src-lang", "xx", "--tgt-lang", "zz",
                        "--test", str(rotation_files["dict"]))
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_align_multi_and_meemi_multi(self, tmp_path):
        rng = np.random.default_rng(22)
        n, d = 30, 6
        words = tuple(f"w{i}" for i in range(n))
        base = rng.normal(size=(n, d))
        paths = {}
        for lang in ("zz", "aa", "bb"):
            r = random_orthogonal(rng, d) if lang != "zz" else np.eye(d)
            emb = VocabEmbedding(lang, words, base @ r)
            paths[lang] = tmp_path / f"{lang}.vec"
            save_embeddings(emb, paths[lang], decimals=9)
        dict_path = tmp_path / "pairs.tsv"
        save_dictionary(identity_dict(words, "zz", "aa"), dict_path)
        dict_b = tmp_path / "pairs_b.tsv"
        save_dictionary(identity_dict(words, "zz", "bb"), dict_b)
        out_dir = tmp_path / "multi"
        code = self.run("align-multi", "--ref", str(paths["zz"]),
                        "--pair", f"aa:{paths['aa']}:{dict_path}",
                        "--pair", f"bb:{paths['bb']}:{dict_b}",
                        "--method", "meemi-multi",
                        "--out-dir", str(out_dir))
        assert code == 0
        for lang in ("zz", "aa", "bb"):
            assert (out_dir / f"{lang}.aligned.vec").exists()
        hub = load_embeddings(out_dir / "zz.aligned.vec")
        moved = load_embeddings(out_dir / "aa.aligned.vec")
        sims = hub.matrix @ moved.matrix.T
        assert (np.argmax(sims, axis=1) == np.arange(n)).mean() >= 0.95

    def test_run_subcommand(self, rotation_files, tmp_path, capsys):
        out = tmp_path / "cli-run"
        cfg = base_config(rotation_files, out)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = self.run("run", "--config", str(cfg_path))
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert "report.json" in printed["artifacts"]
        # flag overrides win over the file
        out2 = tmp_path / "cli-run2"
        code = self.run("run", "--config", str(cfg_path), "--set",
                        f"out_dir={out2}")
        assert code == 0
        assert (out2 / "report.json").exists()

    def test_run_bad_config_exits_two(self, rotation_files, tmp_path):
        cfg = base_config(rotation_files, tmp_path / "x")
        cfg["targets"][0]["dict"] = str(tmp_path / "nope.tsv")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path)) == 2

    def test_run_failure_is_logged_once(self, rotation_files, tmp_path, caplog):
        cfg = base_config(rotation_files, tmp_path / "x")
        cfg["targets"][0]["dict"] = str(tmp_path / "nope.tsv")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path)) == 2
        assert "stage=dict: " in caplog.text
        assert caplog.text.count("No such file") == 1

    @pytest.mark.parametrize("content, message", [
        (b'{\n "out_dir": "\xff"\n}\n', "line 2: can't decode byte 0xff as UTF-8"),
        (b'{\n "out_dir": "x"', "line 2: Expecting ',' delimiter at column 16"),
        (b'{\n "out_dir": "x",\n}\n',
         "line 3: Expecting property name enclosed in double quotes at column 1"),
    ], ids=["non-utf8", "truncated-object", "trailing-comma"])
    def test_run_config_that_does_not_parse_exits_two(self, tmp_path, caplog, capsys,
                                                       content, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(content)
        assert self.run("run", "--config", str(cfg_path)) == 2
        assert f"{cfg_path}: {message}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        (lambda cfg: None, "config must be a JSON object, got NoneType"),
        (lambda cfg: {**cfg, "reference": "en.vec"}, "reference must be a JSON object"),
        (lambda cfg: {**cfg, "targets": 5}, "config key targets has a value of the wrong type"),
        (lambda cfg: {**cfg, "targets": ["x"]}, "targets must be a JSON object, got str"),
        (lambda cfg: {**cfg, "targets": []}, "config key targets must not be an empty list"),
    ], ids=["null", "reference-string", "targets-number", "target-string", "targets-empty"])
    def test_run_config_of_wrong_shape_exits_two(self, rotation_files, tmp_path, caplog,
                                                 change, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(change(base_config(rotation_files, tmp_path / "x"))),
                            encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path), "--set", "seed=1") == 2
        assert message in caplog.text

    @pytest.mark.parametrize("change, key", [
        (lambda cfg: {**cfg, "reweight_p": "abc"}, "reweight_p"),
        (lambda cfg: {**cfg, "eval": {**cfg["eval"], "ks": 5}}, "eval.ks"),
        (lambda cfg: {**cfg, "reduce_dim": "x"}, "reduce_dim"),
        (lambda cfg: {**cfg, "max_words": "x"}, "max_words"),
        (lambda cfg: {**cfg, "split": {"test_size": "x"}}, "split.test_size"),
        (lambda cfg: {**cfg, "normalize": 5}, "normalize"),
        (lambda cfg: {**cfg, "reweight_p": float("nan")}, "reweight_p"),
        (lambda cfg: {**cfg, "reweight_p": float("inf")}, "reweight_p"),
        (lambda cfg: {**cfg, "reweight_p": True}, "reweight_p"),
        (lambda cfg: {**cfg, "reduce_dim": 2.9}, "reduce_dim"),
        (lambda cfg: {**cfg, "max_words": True}, "max_words"),
        (lambda cfg: {**cfg, "eval": {**cfg["eval"], "ks": [1.7]}}, "eval.ks"),
        (lambda cfg: {**cfg, "eval": {**cfg["eval"], "ks": ["2"]}}, "eval.ks"),
        (lambda cfg: {**cfg, "split": {"test_size": 5, "seed": "1"}}, "split.seed"),
        (lambda cfg: {**cfg, "normalize": "unit"}, "normalize"),
        (lambda cfg: {**cfg, "lowercase": "false"}, "lowercase"),
        (lambda cfg: {**cfg, "clean_dicts": "no"}, "clean_dicts"),
    ], ids=["reweight_p", "eval-ks", "reduce_dim", "max_words", "split-test_size",
            "normalize", "reweight_p-nan", "reweight_p-inf", "reweight_p-bool",
            "reduce_dim-fraction", "max_words-bool", "eval-ks-fraction", "eval-ks-string",
            "split-seed-string", "normalize-string", "lowercase-string",
            "clean_dicts-string"])
    def test_run_config_scalar_of_wrong_type_exits_two(self, rotation_files, tmp_path,
                                                       caplog, capsys, change, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(change(base_config(rotation_files, tmp_path / "x"))),
                            encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path), "--set", "seed=1") == 2
        assert f"config key {key} has a value of the wrong type" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_run_config_seed_of_wrong_type_exits_two(self, rotation_files, tmp_path, caplog):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(base_config(rotation_files, tmp_path / "x")),
                            encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path), "--set", "seed=1.5") == 2
        assert "config key seed has a value of the wrong type: 1.5" in caplog.text
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("change, key", [
        (lambda cfg: {**cfg, "out_dir": None}, "out_dir"),
        (lambda cfg: {**cfg, "out_dir": 5}, "out_dir"),
        (lambda cfg: {**cfg, "sources": 5}, "sources"),
        (lambda cfg: {**cfg, "reference": {**cfg["reference"], "lang": 5}}, "reference.lang"),
        (lambda cfg: {**cfg, "reference": {**cfg["reference"], "path": 0}}, "reference.path"),
        (lambda cfg: {**cfg, "targets": [{**cfg["targets"][0], "dict": None}]}, "targets.dict"),
        (lambda cfg: {**cfg, "eval": {**cfg["eval"], "test": 7}}, "eval.test"),
        (lambda cfg: {**cfg, "eval": {**cfg["eval"], "label": 5}}, "eval.label"),
    ], ids=["out_dir-null", "out_dir-number", "sources-number", "reference-lang-number",
            "reference-path-number", "target-dict-null", "eval-test-number",
            "eval-label-number"])
    def test_run_config_path_or_name_of_wrong_type_exits_two(
            self, rotation_files, tmp_path, monkeypatch, caplog, capsys, change, key):
        # a relative out_dir such as "None" or "5" would land in tmp_path
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(change(base_config(rotation_files, tmp_path / "x"))),
                            encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path)) == 2
        assert f"config key {key} has a value of the wrong type" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not [path for path in tmp_path.iterdir() if path.is_dir()]

    @pytest.mark.parametrize("change, key", [
        (lambda cfg: {**cfg, "out_dir": ""}, "out_dir"),
        (lambda cfg: {**cfg, "reference": {**cfg["reference"], "lang": ""}}, "reference.lang"),
        (lambda cfg: {**cfg, "reference": {**cfg["reference"], "path": ""}}, "reference.path"),
        (lambda cfg: {**cfg, "targets": [{**cfg["targets"][0], "lang": ""}]}, "targets.lang"),
        (lambda cfg: {**cfg, "targets": [{**cfg["targets"][0], "path": ""}]}, "targets.path"),
        (lambda cfg: {**cfg, "targets": [{**cfg["targets"][0], "dict": ""}]}, "targets.dict"),
        (lambda cfg: {**cfg, "eval": {**cfg["eval"], "test": ""}}, "eval.test"),
    ], ids=["out_dir", "reference-lang", "reference-path", "target-lang", "target-path",
            "target-dict", "eval-test"])
    def test_run_config_empty_path_or_name_exits_two(
            self, rotation_files, tmp_path, monkeypatch, caplog, capsys, change, key):
        # an empty out_dir would write into the working directory
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(change(base_config(rotation_files, tmp_path / "x"))),
                            encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path)) == 2
        assert f"config key {key} must not be an empty string" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not [path for path in tmp_path.iterdir() if path.is_dir()]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "config.json", "xx.vec", "zz-xx.tsv", "zz.vec"]

    def test_valid_config_values_keep_their_canonical_form(self, rotation_files, tmp_path):
        cfg = {**base_config(rotation_files, tmp_path / "x"), "method": "multistep",
               "reweight_p": 1, "reduce_dim": 3, "normalize": ["unit"], "lowercase": True,
               "clean_dicts": False, "max_words": 30, "seed": 4, "split": {"test_size": 5}}
        cfg["eval"] = {**cfg["eval"], "ks": [10, 1, 5, 1]}
        canonical = PipelineConfig.from_dict(cfg).canonical()
        assert json.dumps({key: canonical[key] for key in (
            "reweight_p", "reduce_dim", "normalize", "lowercase", "clean_dicts",
            "max_words", "seed", "split")}, sort_keys=True) == (
            '{"clean_dicts": false, "lowercase": true, "max_words": 30, "normalize": ["unit"], '
            '"reduce_dim": 3, "reweight_p": 1.0, "seed": 4, "split": {"seed": 4, "test_size": 5}}')
        assert canonical["eval"]["ks"] == [1, 5, 10]

    @pytest.mark.parametrize("command", ["align", "align-multi"])
    def test_unknown_normalize_step_exits_two(self, rotation_files, tmp_path, caplog, command):
        files, out = rotation_files, tmp_path / "out"
        inputs = (["--other", str(files["other"]), "--dict", str(files["dict"]), "--out", str(out)]
                  if command == "align" else
                  ["--pair", f"xx:{files['other']}:{files['dict']}", "--out-dir", str(out)])
        code = self.run(command, "--ref", str(files["ref"]), "--normalize", "unit,foo", *inputs)
        assert code == 2
        assert "unknown normalization steps ['foo']" in caplog.text
        assert not out.exists()

    def test_align_multi_repeated_language_exits_two(self, rotation_files, tmp_path):
        files = rotation_files
        code = self.run("align-multi", "--ref", str(files["ref"]),
                        "--pair", f"xx:{files['other']}:{files['dict']}",
                        "--pair", f"xx:{files['ref']}:{files['dict']}",
                        "--out-dir", str(tmp_path / "multi"))
        assert code == 2
        assert not (tmp_path / "multi").exists()

    def test_align_multi_sources_need_meemi_multi(self, rotation_files, tmp_path):
        files = rotation_files
        code = self.run("align-multi", "--ref", str(files["ref"]),
                        "--pair", f"xx:{files['other']}:{files['dict']}",
                        "--method", "orthogonal", "--sources", "xx",
                        "--out-dir", str(tmp_path / "multi"))
        assert code == 2
        assert not (tmp_path / "multi").exists()

    def test_align_reduce_dim_needs_multistep(self, rotation_files, tmp_path, caplog):
        files, out = rotation_files, tmp_path / "xx.aligned.vec"
        code = self.run("align", "--ref", str(files["ref"]), "--other", str(files["other"]),
                        "--dict", str(files["dict"]), "--out", str(out),
                        "--method", "orthogonal", "--reduce-dim", "3")
        assert code == 2
        assert "reduce_dim only applies to method multistep" in caplog.text
        assert not out.exists() and not (tmp_path / "xx.aligned.vec.map").exists()

    def test_align_multi_all_combinations_needs_meemi_multi(self, rotation_files, tmp_path,
                                                            caplog):
        files = rotation_files
        code = self.run("align-multi", "--ref", str(files["ref"]),
                        "--pair", f"xx:{files['other']}:{files['dict']}",
                        "--method", "orthogonal", "--all-combinations",
                        "--out-dir", str(tmp_path / "multi"))
        assert code == 2
        assert "all_combinations only applies to method meemi-multi" in caplog.text
        assert not (tmp_path / "multi").exists()

    def test_run_reduce_dim_needs_multistep(self, rotation_files, tmp_path, caplog):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**base_config(rotation_files, tmp_path / "x"),
                                        "reduce_dim": 3}), encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path)) == 2
        assert "reduce_dim only applies to method multistep" in caplog.text
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["align", "align-multi"])
    def test_empty_language_exits_two(self, rotation_files, tmp_path, caplog, command):
        files, out = rotation_files, tmp_path / "out"
        inputs = (["--ref-lang", "", "--other", str(files["other"]), "--dict",
                   str(files["dict"]), "--out", str(out)]
                  if command == "align" else
                  ["--pair", f":{files['other']}:{files['dict']}", "--out-dir", str(out)])
        assert self.run(command, "--ref", str(files["ref"]), *inputs) == 2
        assert "a language code must not be empty" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("src_lang, message", [
        ("", "a language code must not be empty"),
        ("zz", "a target repeats the reference language"),
    ], ids=["empty", "repeated"])
    def test_meemi_checks_languages_as_align_does(self, rotation_files, tmp_path, caplog,
                                                   src_lang, message):
        # --tgt is zz.vec, so its language is zz by the file-name rule
        out = tmp_path / "out"
        out.mkdir()
        assert self.run("meemi", "--src", str(rotation_files["other"]),
                        "--tgt", str(rotation_files["ref"]), "--src-lang", src_lang,
                        "--dict", str(rotation_files["dict"]), "--out-src", str(out / "src.vec"),
                        "--out-tgt", str(out / "tgt.vec")) == 2
        assert message in caplog.text
        assert list(out.iterdir()) == []

    def test_meemi_subcommand(self, rotation_files, tmp_path):
        # orthogonal alignment first, meemi refit over the aligned files
        aligned = tmp_path / "xx.aligned.vec"
        ref_out = tmp_path / "zz.norm.vec"
        self.run("align", "--ref", str(rotation_files["ref"]),
                 "--other", str(rotation_files["other"]),
                 "--dict", str(rotation_files["dict"]),
                 "--out", str(aligned), "--out-ref", str(ref_out))
        test_path = tmp_path / "pairs.tsv"
        save_dictionary(identity_dict(rotation_files["words"], "xx", "zz"),
                        test_path)
        code = self.run("meemi", "--src", str(aligned), "--tgt", str(ref_out),
                        "--src-lang", "xx", "--tgt-lang", "zz",
                        "--dict", str(test_path),
                        "--out-src", str(tmp_path / "xx.meemi.vec"),
                        "--out-tgt", str(tmp_path / "zz.meemi.vec"))
        assert code == 0
        a = load_embeddings(tmp_path / "xx.meemi.vec", language="xx")
        b = load_embeddings(tmp_path / "zz.meemi.vec", language="zz")
        assert np.abs(a.matrix - b.matrix).max() <= 1e-4
        # the inputs share coordinates: each side's chain is its refit map alone
        assert [len(load_maps(tmp_path / f"{lang}.meemi.vec.map"))
                for lang in ("xx", "zz")] == [1, 1]


@pytest.mark.parametrize("workers", ["0", str(MAX_WORKERS + 1), "1000000", "two"])
def test_dict_build_workers_out_of_range_exits_one(tmp_path, workers):
    words = tmp_path / "words.txt"
    words.write_text("good\n", encoding="utf-8")
    code = main(["dict-build", "--words", str(words), "--src-lang", "en", "--tgt-lang", "uz",
                 "--out", str(tmp_path / "d.tsv"), "--cache", str(tmp_path / "c.tsv"),
                 "--workers", workers])
    assert code == 1
    assert not (tmp_path / "d.tsv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--rps", "0"), ("--rps", "-1"), ("--rps", "nan"), ("--rps", "inf"), ("--rps", "fast"),
    ("--retries", "-1"), ("--retries", "1.5"), ("--retries", "many"),
])
def test_dict_build_rate_or_retries_out_of_range_exits_one(tmp_path, capsys, flag, value):
    words = tmp_path / "words.txt"
    words.write_text("good\n", encoding="utf-8")
    code = main(["dict-build", "--words", str(words), "--src-lang", "en", "--tgt-lang", "uz",
                 "--out", str(tmp_path / "d.tsv"),
                 "--endpoint", "http://127.0.0.1:1/translate", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "d.tsv").exists()


@pytest.mark.parametrize("direction, langs", [("ref2other", ("en", "tr")),
                                               ("other2ref", ("tr", "en"))])
def test_read_dictionary_names_the_columns_by_direction(tmp_path, direction, langs):
    path = tmp_path / "d.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    pairs = read_dictionary(path, "en", "tr", direction)
    assert (pairs.src_lang, pairs.tgt_lang, pairs.pairs) == (*langs, (("a", "b"),))


def test_read_dictionary_refuses_an_unknown_direction(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(DataError, match="direction must be one of .* got 'sideways'"):
        read_dictionary(path, "en", "tr", "sideways")


@pytest.mark.parametrize("command, method, direction", [
    ("align", "orthogonal", "ref2other"), ("align", "multistep", "ref2other"),
    ("align", "meemi", "ref2other"), ("align", "meemi", "other2ref"),
    ("align-multi", "orthogonal", "ref2other"), ("align-multi", "meemi-multi", "ref2other"),
], ids=["align-orthogonal", "align-multistep", "align-meemi", "align-meemi-other2ref",
        "align-multi-orthogonal", "align-multi-meemi-multi"])
def test_align_commands_write_the_bytes_run_writes(tmp_path, command, method, direction):
    """align and align-multi fit through the same path as run: the aligned
    vectors and map chains match byte for byte (run cleans, but the
    dictionaries here are already clean). Each dictionary is written in the
    given direction, and one of its pairs links two different words, so
    reading it the other way round would fit other maps."""
    rng = np.random.default_rng(23)
    n, d = 40, 8
    words = tuple(f"w{i}" for i in range(n))
    base = rng.normal(size=(n, d))
    langs = ("xx",) if command == "align" else ("xx", "yy")
    paths, dicts = {}, {}
    for lang in ("zz",) + langs:
        paths[lang] = tmp_path / f"{lang}.vec"
        noisy = base @ random_orthogonal(rng, d) + 0.1 * rng.normal(size=(n, d))
        save_embeddings(VocabEmbedding(lang, words, noisy), paths[lang])
        if lang != "zz":
            sides = ("zz", lang) if direction == "ref2other" else (lang, "zz")
            dicts[lang] = tmp_path / f"{sides[0]}-{sides[1]}.tsv"
            pairs = identity_dict(words[::2], *sides)
            save_dictionary(DictionaryPairs(*sides, pairs.pairs + ((words[1], words[3]),)),
                            dicts[lang])

    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    if command == "align":
        assert main(["align", "--method", method, "--reweight-p", "0.25",
                     "--ref", str(paths["zz"]), "--other", str(paths["xx"]),
                     "--dict", str(dicts["xx"]), "--dict-direction", direction,
                     "--out", str(cli_dir / "xx.aligned.vec"),
                     "--out-ref", str(cli_dir / "zz.aligned.vec")]) == 0
    else:
        assert main(["align-multi", "--method", method, "--ref", str(paths["zz"]),
                     *[arg for lang in langs for arg in
                       ("--pair", f"{lang}:{paths[lang]}:{dicts[lang]}")],
                     "--out-dir", str(cli_dir)]) == 0

    run_dir = tmp_path / "run"
    run_pipeline(PipelineConfig.from_dict({
        "reference": {"lang": "zz", "path": str(paths["zz"])},
        "targets": [{"lang": lang, "path": str(paths[lang]), "dict": str(dicts[lang]),
                     "dict_direction": direction} for lang in langs],
        "out_dir": str(run_dir), "method": method, "reweight_p": 0.25}))

    for lang in ("zz",) + langs:
        cli_vec = cli_dir / f"{lang}.aligned.vec"
        assert cli_vec.read_bytes() == (run_dir / f"{lang}.aligned.vec").read_bytes()
        cli_map, run_map = cli_dir / f"{lang}.aligned.vec.map", run_dir / f"{lang}.map"
        assert cli_map.exists() == run_map.exists()
        if run_map.exists():
            assert cli_map.read_bytes() == run_map.read_bytes()


def test_meemi_writes_the_bytes_meemi_bilingual_writes(tmp_path):
    """meemi reads its dictionary as --src language -> --tgt language and
    refits the two files as meemi_bilingual refits them; one pair links two
    different words, so a dictionary read the other way round would not."""
    rng = np.random.default_rng(29)
    n, d = 40, 8
    words = tuple(f"w{i}" for i in range(n))
    base = rng.normal(size=(n, d))
    for lang in ("xx", "zz"):
        save_embeddings(VocabEmbedding(lang, words, base + 0.1 * rng.normal(size=(n, d))),
                        tmp_path / f"{lang}.vec")
    pairs = DictionaryPairs("xx", "zz", identity_dict(words[::2], "xx", "zz").pairs
                            + ((words[1], words[3]),))
    save_dictionary(pairs, tmp_path / "xx-zz.tsv")
    assert main(["meemi", "--src", str(tmp_path / "xx.vec"), "--tgt", str(tmp_path / "zz.vec"),
                 "--dict", str(tmp_path / "xx-zz.tsv"), "--out-src", str(tmp_path / "cli.xx.vec"),
                 "--out-tgt", str(tmp_path / "cli.zz.vec")]) == 0

    expected = meemi_bilingual(MultiSpace({
        lang: AlignedSpace(load_embeddings(tmp_path / f"{lang}.vec"), (), "zz")
        for lang in ("xx", "zz")}, hub="zz"), pairs)
    for lang in ("xx", "zz"):
        save_embeddings(expected[lang].embedding, tmp_path / f"lib.{lang}.vec")
        save_maps(expected[lang].maps_applied, tmp_path / f"lib.{lang}.vec.map")
        for suffix in (".vec", ".vec.map"):
            assert (tmp_path / f"cli.{lang}{suffix}").read_bytes() == \
                (tmp_path / f"lib.{lang}{suffix}").read_bytes()


def test_meemi_with_overflowing_normal_equations_is_a_data_error(tmp_path, caplog, capsys):
    """Finite vectors too large for A^T A in doubles: exit 2 with the
    overflow named, nothing written, no warning and no traceback."""
    (tmp_path / "xx.vec").write_text("3 2\na 1e160 2e160\nb 3e160 -1e160\nc 2e160 5e160\n",
                                     encoding="utf-8")
    (tmp_path / "zz.vec").write_text("3 2\nx 1 2\ny 3 -1\nz 2 5\n", encoding="utf-8")
    (tmp_path / "xx-zz.tsv").write_text("a\tx\nb\ty\nc\tz\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["meemi", "--src", str(tmp_path / "xx.vec"), "--tgt", str(tmp_path / "zz.vec"),
                     "--dict", str(tmp_path / "xx-zz.tsv"), "--out-src", str(out / "xx.vec"),
                     "--out-tgt", str(out / "zz.vec")]) == 2
    assert "A^T A or A^T B overflows" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["align", "--method", "multistep", "--normalize", "none", "--out", "{out}/tr.vec",
      "--out-ref", "{out}/en.vec"], "whitening input too large: A^T A overflows"),
    (["align", "--normalize", "unit,center", "--out", "{out}/tr.vec"],
     "the vector of word 'en0' is too large: its squared length overflows"),
    (["align", "--out", "{out}/tr.vec"],
     "the vector of word 'en0' is too large: its squared length overflows"),
    (["eval", "--test", "{fix}/en-tr.tsv"],
     "the vector of word 'tr0' is too large: its squared length overflows"),
    (["induce", "--space", "{fix}/tr.vec", "--word", "tr3"],
     "the query vector is too large: its squared length overflows"),
    # a later --tgt, --ref or --other replaces the input given before it
    (["eval", "--tgt", "{fix}/plain/tr.vec", "--test", "{fix}/en-tr.tsv"],
     "the vector of word 'en0' is too large: its squared length overflows"),
    (["align", "--ref", "{fix}/max/en.vec", "--other", "{fix}/max/tr.vec",
      "--normalize", "center", "--out", "{out}/tr.vec"],
     "a column sum overflows at the 'center' step"),
], ids=["multistep-none", "unit-center", "default-steps", "eval", "induce", "eval-source",
        "center"])
def test_vectors_whose_squares_overflow_are_a_data_error(tmp_path, caplog, capsys, args,
                                                         message):
    """Finite entries near 1e200 load, but their squares overflow, and the
    column sums of entries near 1e308 overflow: exit 2 with the overflow
    named, nothing written, no warning and no traceback. plain/ holds an
    ordinary target, so eval normalizes its overflowing queries."""
    rng = np.random.default_rng(5)
    fix, out = tmp_path / "fix", tmp_path / "out"
    for where in (fix / "plain", fix / "max", out):
        where.mkdir(parents=True)
    for lang in ("en", "tr"):
        words = tuple(f"{lang}{i}" for i in range(30))
        save_embeddings(VocabEmbedding(lang, words, rng.normal(size=(30, 4)) * 1e200),
                        fix / f"{lang}.vec")
        save_embeddings(VocabEmbedding(lang, words, rng.uniform(0.75, 1.5, size=(30, 4)) * 1e308),
                        fix / "max" / f"{lang}.vec")
    save_embeddings(VocabEmbedding("tr", tuple(f"tr{i}" for i in range(30)),
                                   rng.normal(size=(30, 4))), fix / "plain" / "tr.vec")
    (fix / "en-tr.tsv").write_text("".join(f"en{i}\ttr{i}\n" for i in range(20)),
                                   encoding="utf-8")
    inputs = {"align": ["--ref", "{fix}/en.vec", "--other", "{fix}/tr.vec",
                        "--dict", "{fix}/en-tr.tsv"],
              "eval": ["--src", "{fix}/en.vec", "--tgt", "{fix}/tr.vec"], "induce": []}
    argv = [arg.format(fix=fix, out=out) for arg in args[:1] + inputs[args[0]] + args[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert message in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("args, message", [
    (["align", "--ref", "{d}/tr.vec", "--other", "{d}/en.vec", "--dict", "{d}/tr-en.tsv",
      "--normalize", "center", "--out", "{d}/out/en.vec"],
     "a value minus its column mean overflows at the 'center' step"),
    (["meemi", "--src", "{d}/en.vec", "--tgt", "{d}/zz.vec", "--dict", "{d}/en-zz.tsv",
      "--out-src", "{d}/out/en.vec", "--out-tgt", "{d}/out/zz.vec"],
     "the sum of two paired rows overflows"),
], ids=["center-subtract", "meemi-midpoint"])
def test_a_center_step_or_midpoint_that_overflows_is_a_data_error(tmp_path, monkeypatch, caplog,
                                                                   capsys, cpus, args, message):
    """Column sums and squares that stay finite, but a value minus its column
    mean, or the sum of two paired rows, that does not: exit 2 with the
    overflow named, nothing written, no warning and no traceback. With two
    CPUs the second space is read in a child, and its error crosses the pipe."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    (tmp_path / "out").mkdir()
    (tmp_path / "en.vec").write_text("3 2\na 1.7e308 1\nb -1.7e308 2\nc -1.7e308 3\n",
                                     encoding="utf-8")
    (tmp_path / "zz.vec").write_text("3 2\nx 1.7e308 1\ny -1.7e308 2\nz 1 3\n",
                                     encoding="utf-8")
    (tmp_path / "tr.vec").write_text("3 2\nx 1 2\ny 3 -1\nz 2 5\n", encoding="utf-8")
    (tmp_path / "tr-en.tsv").write_text("x\ta\ny\tb\nz\tc\n", encoding="utf-8")
    (tmp_path / "en-zz.tsv").write_text("a\tx\nb\ty\nc\tz\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(d=tmp_path) for arg in args]) == 2
    assert message in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


BAD_VECTORS = {
    "missing": (None, "{path}: No such file"),
    "truncated": (b"3 2\na 1 2\nb 3 4\n", "{path}: line 4: header promises 3 rows, file has 2"),
    "huge-count": (b"1000000000000 2\na 1 2\nb 3 4\n",
                   "{path}: line 4: header promises 1000000000000 rows, file has 2"),
    "non-utf8": (b"2 2\na 1 2\n\xff 3 4\n", "{path}: line 3: can't decode byte 0xff"),
    "field-count": (b"2 2\na 1 2\nb 3\n", "{path}: line 3: expected 3 fields, found 2"),
    "bad-header": (b"2\na 1 2\n", "{path}: line 1: expected '<count> <dim>' header"),
    "bad-value": (b"2 2\na 1 2\nb 3 x\n", "{path}: line 3: could not convert string"),
    "empty": (b"0 2\n", "{path}: line 1: no embedding rows"),
}


@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
@pytest.mark.parametrize("command", ["align", "align-multi", "meemi", "induce", "eval", "run"])
def test_bad_vector_file_exits_two_for_every_reading_command(
        rotation_files, tmp_path, monkeypatch, caplog, capsys, command, bad):
    """Each subcommand that reads vectors, given one bad vector file after a
    good one, exits 2 with the loader's message and no traceback. {path} in
    a message stands for the bad file."""
    content, message = BAD_VECTORS[bad]
    path = tmp_path / "bad.vec"
    if content is not None:
        path.write_bytes(content)
    good, dictionary, out = str(rotation_files["ref"]), str(rotation_files["dict"]), tmp_path / "o"
    argv = {
        "align": ["--ref", good, "--other", str(path), "--dict", dictionary,
                  "--out", str(out / "xx.vec")],
        "align-multi": ["--ref", good, "--pair", f"xx:{path}:{dictionary}",
                        "--out-dir", str(out)],
        "meemi": ["--src", good, "--tgt", str(path), "--dict", dictionary,
                  "--src-lang", "zz", "--tgt-lang", "xx", "--out-src", str(out / "zz.vec"),
                  "--out-tgt", str(out / "xx.vec")],
        "induce": ["--space", good, "--query-space", str(path), "--word", "w0"],
        "eval": ["--src", good, "--tgt", str(path), "--test", dictionary,
                 "--src-lang", "zz", "--tgt-lang", "xx"],
        "run": ["--config", str(tmp_path / "config.json")],
    }[command]
    cfg = base_config(rotation_files, out)
    cfg["targets"][0]["path"] = str(path)
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([command, *argv]) == 2
    assert message.format(path=path) in caplog.text
    assert "Traceback" not in capsys.readouterr().err


BAD_DICTIONARIES = {
    "missing": (None, "{path}: No such file"),
    "three-columns": (b"w0\tw0\nw1\tw1\tw1\n", "{path}: line 2: expected 2 columns, found 3"),
    "non-utf8": (b"w0\tw0\nw1\tw1\n\xff\tw2\n", "{path}: line 3: can't decode byte 0xff"),
}
DICTIONARY_COMMANDS = ["align", "align-multi", "meemi", "eval", "run", "dict-clean",
                       "dict-merge", "dict-split"]
# dict-build reads a word list and a translation cache, not a dictionary:
# only a missing file or a byte that is not UTF-8 is an error in them
DICTIONARY_CASES = ([(command, bad) for command in DICTIONARY_COMMANDS
                     for bad in sorted(BAD_DICTIONARIES)]
                    + [(command, bad) for command in ("dict-build-words", "dict-build-cache")
                       for bad in ("missing", "non-utf8")])


def dictionary_argv(command, fixture, path, out):
    """argv for command with the dictionary at path as its only dictionary
    input; for run, the config file it names is written too. For
    dict-build-words and dict-build-cache, path is dict-build's word list or
    cache, and a good file is written for the other."""
    ref, other = str(fixture["ref"]), str(fixture["other"])
    if command == "run":
        cfg = base_config(fixture, out)
        cfg["targets"][0]["dict"] = str(path)
        (fixture["tmp"] / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    if command.startswith("dict-build"):
        words, cache = fixture["tmp"] / "words.txt", fixture["tmp"] / "cache.tsv"
        words.write_text("w0\n", encoding="utf-8")
        cache.write_text("w0\tzz\txx\tv0\nv0\txx\tzz\tw0\n", encoding="utf-8")
        words, cache = (path, cache) if command == "dict-build-words" else (words, path)
        return ["dict-build", "--words", str(words), "--cache", str(cache), "--src-lang", "zz",
                "--tgt-lang", "xx", "--out", str(out / "built.tsv")]
    return [command, *{
        "align": ["--ref", ref, "--other", other, "--dict", str(path),
                  "--out", str(out / "xx.vec")],
        "align-multi": ["--ref", ref, "--pair", f"xx:{other}:{path}", "--out-dir", str(out)],
        "meemi": ["--src", ref, "--tgt", other, "--dict", str(path), "--out-src",
                  str(out / "zz.vec"), "--out-tgt", str(out / "xx.vec")],
        "eval": ["--src", ref, "--tgt", other, "--test", str(path)],
        "run": ["--config", str(fixture["tmp"] / "config.json")],
        "dict-clean": ["--in", str(path), "--out", str(out / "clean.tsv")],
        "dict-merge": ["--in", str(path), "--in", str(path), "--out", str(out / "merged.tsv")],
        "dict-split": ["--in", str(path), "--out-train", str(out / "train.tsv"),
                       "--out-test", str(out / "test.tsv"), "--test-size", "1", "--seed", "0"],
    }[command]]


@pytest.mark.parametrize("command, bad", DICTIONARY_CASES)
def test_bad_dictionary_file_exits_two_for_every_reading_command(
        rotation_files, tmp_path, caplog, capsys, command, bad):
    """Each subcommand that reads a dictionary, and dict-build with a bad word
    list or cache, exits 2 with the loader's message, the line where it knows
    it, and no traceback. {path} in a message stands for the bad file."""
    content, message = BAD_DICTIONARIES[bad]
    path = tmp_path / "bad.tsv"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "o"
    out.mkdir()
    assert main(dictionary_argv(command, rotation_files, path, out)) == 2
    assert message.format(path=path) in caplog.text
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, code, message", [
    ("align", 2, "no dictionary pair has both words in vocabulary"),
    ("align-multi", 2, "no dictionary pair has both words in vocabulary"),
    ("meemi", 2, "no dictionary pair has both words in vocabulary"),
    ("eval", 2, "empty test set"),
    ("run", 2, "no dictionary pair has both words in vocabulary"),
    ("dict-clean", 0, '"read": 0'),
    ("dict-merge", 0, '"read": 0'),
    ("dict-split", 2, "must be below the 0 distinct source words"),
])
def test_empty_dictionary_file_is_zero_pairs(rotation_files, tmp_path, caplog, capsys,
                                             command, code, message):
    """An empty dictionary file reads as no pairs: the commands that need
    pairs exit 2, dict-clean and dict-merge write an empty file and exit 0."""
    path = tmp_path / "empty.tsv"
    path.write_bytes(b"")
    out = tmp_path / "o"
    out.mkdir()
    assert main(dictionary_argv(command, rotation_files, path, out)) == code
    captured = capsys.readouterr()
    assert message in (caplog.text if code else captured.out)
    assert "Traceback" not in captured.err


def test_parser_choices_and_defaults_are_the_library_constants():
    """--dict-direction, --oov-policy, --normalize and --method offer exactly
    what the library accepts, on every subcommand that has them: align every
    method that fits one pair, align-multi every method that fits several."""
    from lexalign import embeddings, induction, options, pipeline
    one_pair = list(options.ONE_PAIR_METHODS)
    expected = {"dict_direction": ("choices", list(pipeline.DICT_DIRECTIONS)),
                "oov_policy": ("choices", list(induction.OOV_POLICIES)),
                "normalize": ("default", ",".join(embeddings.DEFAULT_NORMALIZE))}
    methods = {"align": [m for m in options.METHODS if m == options.ORTHOGONAL or m in one_pair],
               "align-multi": [m for m in options.METHODS if m not in one_pair]}
    assert methods == {"align": ["orthogonal", "multistep", "meemi"],
                       "align-multi": ["orthogonal", "meemi-multi"]}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest == "method":
                assert list(action.choices) == methods[command], command
                assert action.default == options.ORTHOGONAL, command
                seen.add((command, action.dest))
            if action.dest in expected:
                attr, value = expected[action.dest]
                got = getattr(action, attr)
                assert (list(got) if attr == "choices" else got) == value, (command, action.dest)
                seen.add(action.dest)
    assert seen == {*expected, ("align", "method"), ("align-multi", "method")}


def test_run_meemi_multi_sources_default_to_the_reference_alone(tmp_path):
    """With no sources, every language that covers a hub word joins its
    tuple: the same vectors and maps as naming the reference alone. The two
    dictionaries overlap on a third of the hub words, so naming every
    language gates the tuples down to those and fits other maps."""
    rng = np.random.default_rng(31)
    n, d = 60, 6
    words = tuple(f"w{i}" for i in range(n))
    base = rng.normal(size=(n, d))
    config = {"reference": {"lang": "zz", "path": str(tmp_path / "zz.vec")},
              "targets": [], "method": "meemi-multi"}
    for lang, covered in (("zz", None), ("aa", words[:40]), ("bb", words[20:])):
        noisy = base @ random_orthogonal(rng, d) + 0.1 * rng.normal(size=(n, d))
        save_embeddings(VocabEmbedding(lang, words, noisy), tmp_path / f"{lang}.vec")
        if covered:
            save_dictionary(identity_dict(covered, "zz", lang), tmp_path / f"zz-{lang}.tsv")
            config["targets"].append({"lang": lang, "path": str(tmp_path / f"{lang}.vec"),
                                      "dict": str(tmp_path / f"zz-{lang}.tsv")})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    def artifacts(name, *sources):
        argv = ["run", "--config", str(config_path), "--set", f"out_dir={tmp_path / name}"]
        if sources:
            argv += ["--set", f"sources={json.dumps(sources)}"]
        assert main(argv) == 0
        return {path.name: path.read_bytes() for path in sorted((tmp_path / name).iterdir())
                if path.suffix in (".vec", ".map")}

    default = artifacts("default")
    assert sorted(default) == [f"{lang}.{suffix}" for lang in ("aa", "bb", "zz")
                               for suffix in ("aligned.vec", "map")]
    assert artifacts("reference", "zz") == default
    gated = artifacts("every", "zz", "aa", "bb")
    for lang in ("zz", "aa", "bb"):
        assert gated[f"{lang}.map"] != default[f"{lang}.map"]


@pytest.mark.parametrize("key, value, message", [
    ("targets", lambda cfg: [{**cfg["targets"][0], "dict_direction": "sideways"}],
     "config key targets.dict_direction must be one of ('ref2other', 'other2ref'), "
     "got 'sideways'"),
    ("reweight_p", -1, "config key reweight_p must be at least 0, got -1.0"),
    ("reduce_dim", 0, "config key reduce_dim must be at least 1, got 0"),
    ("max_words", 0, "config key max_words must be at least 1, got 0"),
    ("method", "bogus", "config key method must be one of"),
    ("normalize", ["unit", "scale"],
     "config key normalize must be one of ('unit', 'center'), got 'scale'"),
    ("split", {"test_size": 0, "seed": 1}, "config key split.test_size must be at least 1, got 0"),
    ("eval", lambda cfg: {**cfg["eval"], "ks": [5, 0]},
     "config key eval.ks must be at least 1, got 0"),
    ("eval", lambda cfg: {**cfg["eval"], "ks": []},
     "config key eval.ks must not be an empty list"),
    ("eval", lambda cfg: {**cfg["eval"], "oov_policy": "guess"},
     "config key eval.oov_policy must be one of ('skip', 'fail'), got 'guess'"),
], ids=["dict_direction", "reweight_p", "reduce_dim", "max_words", "method", "normalize",
        "split-test_size", "eval-ks-zero", "eval-ks-empty", "eval-oov_policy"])
def test_run_set_out_of_range_value_exits_two_and_writes_nothing(rotation_files, tmp_path,
                                                                 caplog, key, value, message):
    cfg = base_config(rotation_files, tmp_path / "x")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    value = value(cfg) if callable(value) else value
    assert main(["run", "--config", str(cfg_path), "--set", f"{key}={json.dumps(value)}"]) == 2
    assert message in caplog.text
    assert not (tmp_path / "x").exists()


ALIGN_ARGS = ["align", "--ref", "{ref}", "--other", "{other}", "--dict", "{dict}"]
EVAL_ARGS = ["eval", "--src", "{ref}", "--tgt", "{other}", "--test", "{dict}"]


@pytest.mark.parametrize("runs, code", [
    ([[*ALIGN_ARGS, "--normalize", "none", "--out", "{out}/a.vec"],
      [*ALIGN_ARGS, "--normalize", "", "--out", "{out}/b.vec"]], 0),
    ([EVAL_ARGS, [*EVAL_ARGS, "--out", "{out}/report.txt"]], 0),
    ([[*EVAL_ARGS, "--ks", "1,x", "--out", "{out}/report.txt"]], 1),
    ([["align-multi", "--ref", "{ref}", "--pair", "xx:{other}", "--out-dir", "{out}/multi"]], 1),
    ([["run", "--config", "{config}", "--set", "method"]], 1),
    ([[*ALIGN_ARGS, "--max-words", "0", "--out", "{out}/a.vec"]], 2),
], ids=["align-normalize-none-is-empty", "eval-out-is-stdout", "eval-bad-ks",
        "align-multi-bad-pair", "run-bad-set", "align-max-words-zero"])
def test_cli_runs_write_the_same_bytes_or_nothing(rotation_files, tmp_path, capsys, runs, code):
    """Every run exits code. Runs that succeed write the same bytes, whether
    to files or to stdout; a run that fails writes nothing."""
    out = tmp_path / "out"
    out.mkdir()
    paths = {name: str(rotation_files[name]) for name in ("ref", "other", "dict")}
    paths["config"] = tmp_path / "config.json"
    paths["config"].write_text(json.dumps(base_config(rotation_files, out / "run")),
                               encoding="utf-8")
    paths["out"] = out
    outputs = []
    for argv in runs:
        before = set(out.rglob("*"))
        assert main([arg.format(**paths) for arg in argv]) == code
        stdout = capsys.readouterr().out
        written = [path.read_bytes() for path in set(out.rglob("*")) - before]
        outputs.append(sorted(written + ([stdout.encode("utf-8")] if stdout else [])))
    assert all(output == outputs[0] for output in outputs)
    assert bool(outputs[0]) == (code == 0)
