"""Loads and writes in one forked process per space (pipeline._forked): the
results, messages, log records and files are those of a serial loop, and no
child or file descriptor outlives a call."""

import logging
import os
import pickle
import signal
import time
import warnings
from functools import partial

import numpy as np
import pytest

from lexalign import (AlignedSpace, DataError, DictionaryFormatError, EmbeddingParseError,
                      LexalignError, LinearMap, LocatedError, PipelineStageError,
                      TranslationError, VocabEmbedding, save_embeddings, save_maps)
from lexalign import pipeline
from lexalign.cli import main
from lexalign.pipeline import _forked, load_space, load_spaces, write_spaces

ERRORS = {
    "lexalign": LexalignError("plain"),
    "data": DataError("bad shape"),
    "located": LocatedError("bad line", line=3, path="en.vec"),
    "located-no-path": LocatedError("bad line", line=3),
    "parse": EmbeddingParseError("bad header", code="header", line=1, path="en.vec"),
    "dictionary": DictionaryFormatError("expected 2 columns", line=2, path="en-tr.tsv"),
    "stage": PipelineStageError("align", EmbeddingParseError("x", code="value", line=4,
                                                             path="tr.vec")),
    "stage-os": PipelineStageError("dict", FileNotFoundError(2, "No such file", "d.tsv")),
    "translation": TranslationError("all 3 translation requests failed"),
}


@pytest.mark.parametrize("error", ERRORS.values(), ids=ERRORS.keys())
def test_errors_survive_a_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error, 5))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name in ("line", "path", "code", "stage"):
        assert getattr(copy, name, None) == getattr(error, name, None)
    if isinstance(error, PipelineStageError):
        assert type(copy.cause) is type(error.cause)
        assert str(copy.cause) == str(error.cause)


@pytest.fixture()
def two_cpus(monkeypatch):
    """Children are forked even where this process may run on one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def vectors(path, lang, seed, extra=""):
    words = tuple(f"{lang}{i}" for i in range(40))
    save_embeddings(VocabEmbedding(lang, words, np.random.default_rng(seed).normal(size=(40, 6))),
                    path)
    if extra:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(extra)
        text = path.read_text(encoding="utf-8").split("\n", 1)[1]
        path.write_text(f"{text.count(chr(10))} 6\n{text}", encoding="utf-8")
    return path


def test_loads_match_a_serial_loop_and_log_in_call_order(tmp_path, two_cpus, caplog):
    caplog.set_level(logging.INFO)
    files = [(vectors(tmp_path / f"{lang}.vec", lang, seed, f"{lang}1 1 2 3 4 5 6\n"), lang)
             for seed, lang in enumerate(("en", "tr", "kk"))]
    forked = load_spaces(files, ("unit", "center"))
    messages = [r.getMessage() for r in caplog.records if "duplicate" in r.getMessage()]
    serial = [load_space(path, lang, ("unit", "center")) for path, lang in files]
    assert messages == [f"{path}: dropped 1 duplicate words, first occurrence kept"
                        for path, _ in files]
    for got, want in zip(forked, serial):
        assert (got.language, got.words, got.norm_recipe) == \
            (want.language, want.words, want.norm_recipe)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.matrix.flags.writeable
    assert no_child_left()


def test_the_earliest_defect_is_reported(tmp_path, two_cpus, caplog):
    bad = {name: tmp_path / name for name in ("a.vec", "b.vec")}
    bad["a.vec"].write_text("2 2\nx 1 2\ny 1\n", encoding="utf-8")
    bad["b.vec"].write_text("2 2\nx 1 z\n", encoding="utf-8")
    assert main(["eval", "--src", str(bad["a.vec"]), "--tgt", str(bad["b.vec"]),
                 "--test", str(tmp_path / "none.tsv")]) == 2
    assert f"{bad['a.vec']}: line 3: expected 3 fields, found 2" in caplog.text
    assert "b.vec" not in caplog.text
    assert no_child_left()


def test_a_killed_child_names_its_input(tmp_path, two_cpus, monkeypatch, caplog):
    parent = os.getpid()

    def killed(path, *args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return load_space(path, *args)

    monkeypatch.setattr(pipeline, "load_space", killed)
    src, tgt = vectors(tmp_path / "en.vec", "en", 0), vectors(tmp_path / "tr.vec", "tr", 1)
    (tmp_path / "en-tr.tsv").write_text("en1\ttr1\n", encoding="utf-8")
    start = time.monotonic()
    assert main(["eval", "--src", str(src), "--tgt", str(tgt),
                 "--test", str(tmp_path / "en-tr.tsv")]) == 2
    assert time.monotonic() - start < 10
    assert f"{tgt}: the process working on it was killed by signal 9" in caplog.text
    assert no_child_left()


@pytest.mark.parametrize("error", [DataError("first"), KeyboardInterrupt()],
                         ids=["exception", "interrupt"])
def test_a_failing_first_call_leaves_no_child(two_cpus, error):
    def fail():
        raise error

    start = time.monotonic()
    with pytest.raises(type(error)):
        _forked([fail, lambda: time.sleep(60), lambda: time.sleep(60)], ["a", "b", "c"])
    assert time.monotonic() - start < 10
    assert no_child_left()


def test_one_cpu_forks_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    files = [(vectors(tmp_path / f"{lang}.vec", lang, seed), lang)
             for seed, lang in enumerate(("en", "tr"))]
    spaces = load_spaces(files)
    write_spaces([(AlignedSpace(emb), tmp_path / f"{emb.language}.out", None) for emb in spaces])
    assert [path.name for path in sorted(tmp_path.glob("*.out"))] == ["en.out", "tr.out"]


def aligned(seed):
    """Two spaces, each moved by one map."""
    rng = np.random.default_rng(seed)
    return [AlignedSpace(VocabEmbedding(lang, tuple(f"{lang}{i}" for i in range(30)),
                                        rng.normal(size=(30, 5))),
                         (LinearMap(rng.normal(size=(5, 5)), "unconstrained"),))
            for lang in ("en", "tr")]


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_file_descriptor_outlives_a_call(tmp_path, two_cpus):
    files = [(vectors(tmp_path / f"{lang}.vec", lang, seed), lang)
             for seed, lang in enumerate(("en", "tr"))]
    before = open_fds()
    load_spaces(files)
    write_spaces([(space, tmp_path / f"{space.language}.out", None) for space in aligned(0)])
    assert open_fds() == before
    assert no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("answer", [lambda: (np.zeros((1000, 1000)), lambda: 0),
                                    lambda: lambda: 0],
                         ids=["after-a-large-array", "at-once"])
def test_an_answer_that_cannot_be_pickled_names_its_input(two_cpus, answer):
    """The child exits mid-answer, its 8 MB array already in the pipe, or
    before its answer starts: either way its input is named."""
    before = open_fds()
    with pytest.raises(LexalignError) as caught:
        _forked([lambda: 0, answer], ["a", "b"])
    assert str(caught.value) == "b: the process working on it exited with status 1"
    assert open_fds() == before
    assert no_child_left()


def test_a_child_killed_mid_answer_names_its_input(two_cpus, monkeypatch):
    """A child killed halfway through writing its answer leaves a pickle that
    stops inside an array: its input is still named."""
    def torn(answer, pipe, protocol):
        data = pickle.dumps(answer, protocol)
        pipe.write(data[:len(data) // 2])
        pipe.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(pipeline.pickle, "dump", torn)
    with pytest.raises(LexalignError) as caught:
        _forked([lambda: 0, lambda: np.zeros((1000, 1000))], ["a", "b"])
    assert str(caught.value) == "b: the process working on it was killed by signal 9"
    assert no_child_left()


def serial_write(items):
    for space, vec_path, map_path in items:
        save_embeddings(space.embedding, vec_path)
        save_maps(space.maps_applied, map_path)


@pytest.mark.parametrize("blocked", ["en.vec", "en.map", "tr.vec"])
def test_an_unopenable_output_leaves_what_a_serial_loop_leaves(tmp_path, two_cpus, blocked):
    left = {}
    for name, write in (("serial", serial_write), ("forked", write_spaces)):
        out = tmp_path / name
        out.mkdir()
        (out / blocked).mkdir()  # open() refuses a directory
        items = [(space, out / f"{space.language}.vec", out / f"{space.language}.map")
                 for space in aligned(1)]
        with pytest.raises(IsADirectoryError) as caught:
            write(items)
        left[name] = (str(caught.value).replace(str(out), ""),
                      {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()})
    assert left["forked"] == left["serial"]
    assert no_child_left()


def test_items_sharing_a_file_are_written_in_order(tmp_path, two_cpus):
    en, tr = aligned(2)
    path = tmp_path / "both.vec"
    write_spaces([(en, path, tmp_path / "en.map"), (tr, path, tmp_path / "tr.map")])
    save_embeddings(tr.embedding, tmp_path / "want.vec")
    assert path.read_bytes() == (tmp_path / "want.vec").read_bytes()


def test_a_call_no_child_has_started_runs_here(two_cpus, caplog):
    """On two CPUs this process runs calls 0, 2 and 4 while a child runs 1, 3
    and 5; results and log records still come back in call order."""
    caplog.set_level(logging.INFO)

    def call(i):
        logging.getLogger("lexalign.test").info("call %d", i)
        return i, os.getpid()

    results = _forked([partial(call, i) for i in range(6)], [f"call {i}" for i in range(6)])
    assert [i for i, _ in results] == list(range(6))
    assert [pid == os.getpid() for _, pid in results] == [True, False] * 3
    assert [r.getMessage() for r in caplog.records if r.name == "lexalign.test"] == \
        [f"call {i}" for i in range(6)]
    assert no_child_left()


def test_every_process_runs_its_share_of_the_calls_in_turn(monkeypatch):
    """On four CPUs call i runs in process i % 4, each child its two calls
    one after the other: eight calls of 0.3 s take two rounds, not three."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    def call(i):
        time.sleep(0.3)
        return i, os.getpid()

    start = time.monotonic()
    results = _forked([partial(call, i) for i in range(8)], [f"call {i}" for i in range(8)])
    elapsed = time.monotonic() - start
    assert [i for i, _ in results] == list(range(8))
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 4 and pids[:4] == pids[4:]
    assert elapsed < 0.8
    assert no_child_left()


def warn(i):
    warnings.warn(f"call {i}")
    warnings.warn("every call")  # one site and text: the registry shows it once
    return i


def test_warnings_are_those_of_a_serial_loop(two_cpus, capfd):
    calls = [partial(warn, i) for i in range(3)]

    def shown(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert run() == [0, 1, 2]
        return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    serial = shown(lambda: [call() for call in calls])
    assert [message for message, *_ in serial] == ["call 0", "every call", "call 1", "call 2"]
    assert shown(lambda: _forked(calls, ["a", "b", "c"])) == serial
    assert capfd.readouterr().err == ""  # the child printed none of them
    assert no_child_left()
