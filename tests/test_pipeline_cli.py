import json

import numpy as np
import pytest

from lexalign import (DictionaryPairs, PipelineConfig, PipelineStageError,
                      VocabEmbedding, load_dictionary, load_embeddings, load_maps,
                      run_pipeline, save_dictionary, save_embeddings)
from lexalign.cli import main
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

    def test_dict_build_unreachable_endpoint_is_service_error(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("good\n", encoding="utf-8")
        code = self.run("dict-build", "--words", str(words), "--src-lang", "en",
                        "--tgt-lang", "uz", "--out", str(tmp_path / "d.tsv"),
                        "--endpoint", "http://127.0.0.1:1/translate",
                        "--retries", "0")
        assert code == 3

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

    @pytest.mark.parametrize("change, message", [
        (lambda cfg: None, "config must be a JSON object, got NoneType"),
        (lambda cfg: {**cfg, "reference": "en.vec"}, "reference must be a JSON object"),
        (lambda cfg: {**cfg, "targets": 5}, "targets must be a non-empty list"),
        (lambda cfg: {**cfg, "targets": ["x"]}, "a target entry must be a JSON object"),
    ], ids=["null", "reference-string", "targets-number", "target-string"])
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
    ], ids=["reweight_p", "eval-ks", "reduce_dim", "max_words", "split-test_size",
            "normalize"])
    def test_run_config_scalar_of_wrong_type_exits_two(self, rotation_files, tmp_path,
                                                       caplog, capsys, change, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(change(base_config(rotation_files, tmp_path / "x"))),
                            encoding="utf-8")
        assert self.run("run", "--config", str(cfg_path), "--set", "seed=1") == 2
        assert f"config key {key} has a value of the wrong type" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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


@pytest.mark.parametrize("workers", ["0", str(MAX_WORKERS + 1), "1000000", "two"])
def test_dict_build_workers_out_of_range_exits_one(tmp_path, workers):
    words = tmp_path / "words.txt"
    words.write_text("good\n", encoding="utf-8")
    code = main(["dict-build", "--words", str(words), "--src-lang", "en", "--tgt-lang", "uz",
                 "--out", str(tmp_path / "d.tsv"), "--cache", str(tmp_path / "c.tsv"),
                 "--workers", workers])
    assert code == 1
    assert not (tmp_path / "d.tsv").exists()


@pytest.mark.parametrize("command, method", [
    ("align", "orthogonal"), ("align", "multistep"), ("align", "meemi"),
    ("align-multi", "orthogonal"), ("align-multi", "meemi-multi"),
])
def test_align_commands_write_the_bytes_run_writes(tmp_path, command, method):
    """align and align-multi fit through the same path as run: the aligned
    vectors and map chains match byte for byte (run cleans, but the
    dictionaries here are already clean)."""
    rng = np.random.default_rng(23)
    n, d = 40, 8
    words = tuple(f"w{i}" for i in range(n))
    base = rng.normal(size=(n, d))
    langs = ("xx",) if command == "align" else ("xx", "yy")
    paths = {}
    for lang in ("zz",) + langs:
        paths[lang] = tmp_path / f"{lang}.vec"
        noisy = base @ random_orthogonal(rng, d) + 0.1 * rng.normal(size=(n, d))
        save_embeddings(VocabEmbedding(lang, words, noisy), paths[lang])
        if lang != "zz":
            save_dictionary(identity_dict(words[::2], "zz", lang), tmp_path / f"zz-{lang}.tsv")

    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    if command == "align":
        assert main(["align", "--method", method, "--reweight-p", "0.25",
                     "--ref", str(paths["zz"]), "--other", str(paths["xx"]),
                     "--dict", str(tmp_path / "zz-xx.tsv"),
                     "--out", str(cli_dir / "xx.aligned.vec"),
                     "--out-ref", str(cli_dir / "zz.aligned.vec")]) == 0
    else:
        assert main(["align-multi", "--method", method, "--ref", str(paths["zz"]),
                     *[arg for lang in langs for arg in
                       ("--pair", f"{lang}:{paths[lang]}:{tmp_path / f'zz-{lang}.tsv'}")],
                     "--out-dir", str(cli_dir)]) == 0

    run_dir = tmp_path / "run"
    run_pipeline(PipelineConfig.from_dict({
        "reference": {"lang": "zz", "path": str(paths["zz"])},
        "targets": [{"lang": lang, "path": str(paths[lang]),
                     "dict": str(tmp_path / f"zz-{lang}.tsv")} for lang in langs],
        "out_dir": str(run_dir), "method": method, "reweight_p": 0.25}))

    for lang in ("zz",) + langs:
        cli_vec = cli_dir / f"{lang}.aligned.vec"
        assert cli_vec.read_bytes() == (run_dir / f"{lang}.aligned.vec").read_bytes()
        cli_map, run_map = cli_dir / f"{lang}.aligned.vec.map", run_dir / f"{lang}.map"
        assert cli_map.exists() == run_map.exists()
        if run_map.exists():
            assert cli_map.read_bytes() == run_map.read_bytes()
