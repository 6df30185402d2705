import os
import subprocess
import sys

import requests
import pytest

from lexalign import translate
from lexalign import (DataError, DictionaryPairs, HttpTranslationClient,
                      ReplayClient, TranslationError, append_cache, load_cache,
                      reverse_filter, translate_wordlist)


def forward_table(mapping, src="en", tgt="uz"):
    return {(w, src, tgt): t for w, t in mapping.items()}


def backward_table(mapping, src="en", tgt="uz"):
    return {(t, tgt, src): w for t, w in mapping.items()}


class TestReplayClient:
    def test_serves_cached(self):
        client = ReplayClient({("good", "en", "uz"): "yaxshi"})
        assert client.translate("good", "en", "uz") == "yaxshi"

    def test_missing_raises(self):
        client = ReplayClient({})
        with pytest.raises(TranslationError):
            client.translate("good", "en", "uz")

    def test_from_file(self, tmp_path):
        path = tmp_path / "cache.tsv"
        append_cache(path, "good", "en", "uz", "yaxshi")
        append_cache(path, "bad", "en", "uz", "yomon")
        client = ReplayClient(path)
        assert client.translate("bad", "en", "uz") == "yomon"


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        append_cache(path, "a", "en", "tr", "bir iki")
        table = load_cache(path)
        assert table[("a", "en", "tr")] == "bir iki"

    def test_malformed_lines_ignored(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("only\ttwo\na\ten\ttr\tok\n", encoding="utf-8")
        assert load_cache(path) == {("a", "en", "tr"): "ok"}


class TestTranslateWordlist:
    def test_basic(self):
        client = ReplayClient(forward_table({"good": "yaxshi"}))
        pairs, summary = translate_wordlist(client, ["good"], "en", "uz")
        assert pairs.pairs == (("good", "yaxshi"),)
        assert pairs.provenance == "translated"
        assert (summary.requested, summary.kept) == (1, 1)

    def test_multi_token_dropped_and_counted(self):
        client = ReplayClient(forward_table({"good": "juda yaxshi", "bad": "yomon"}))
        pairs, summary = translate_wordlist(client, ["good", "bad"], "en", "uz")
        assert pairs.pairs == (("bad", "yomon"),)
        assert summary.dropped_multi_token == 1

    def test_empty_translation_dropped(self):
        client = ReplayClient(forward_table({"good": "  ", "bad": "yomon"}))
        pairs, summary = translate_wordlist(client, ["good", "bad"], "en", "uz")
        assert pairs.pairs == (("bad", "yomon"),)
        assert summary.dropped_empty == 1

    def test_failure_recorded_not_fatal(self):
        client = ReplayClient(forward_table({"bad": "yomon"}))
        pairs, summary = translate_wordlist(client, ["good", "bad"], "en", "uz")
        assert pairs.pairs == (("bad", "yomon"),)
        assert summary.failed == ["good"]

    def test_output_follows_input_order(self):
        table = forward_table({f"w{i}": f"t{i}" for i in range(20)})
        client = ReplayClient(table)
        words = [f"w{i}" for i in range(20)]
        pairs, _ = translate_wordlist(client, words, "en", "uz")
        assert [s for s, _ in pairs.pairs] == words

    def test_workers_keep_order(self):
        table = forward_table({f"w{i}": f"t{i}" for i in range(40)})
        client = ReplayClient(table)
        words = [f"w{i}" for i in range(40)]
        pairs, _ = translate_wordlist(client, words, "en", "uz", workers=4)
        assert [s for s, _ in pairs.pairs] == words

    def test_rejects_bad_input(self):
        client = ReplayClient({})
        with pytest.raises(DataError):
            translate_wordlist(client, [], "en", "uz")
        with pytest.raises(DataError):
            translate_wordlist(client, ["two words"], "en", "uz")


class TestReverseFilter:
    def test_keeps_only_round_trips(self):
        fwd = DictionaryPairs("en", "uz", (("good", "yaxshi"), ("cat", "mushuk")))
        client = ReplayClient(backward_table({"yaxshi": "good", "mushuk": "dog"}))
        kept, summary = reverse_filter(client, fwd)
        assert kept.pairs == (("good", "yaxshi"),)
        assert summary.mismatched == 1
        assert kept.provenance == "round-trip"

    def test_failed_back_translation_counted_separately(self):
        fwd = DictionaryPairs("en", "uz", (("good", "yaxshi"), ("cat", "mushuk")))
        client = ReplayClient(backward_table({"yaxshi": "good"}))
        kept, summary = reverse_filter(client, fwd)
        assert kept.pairs == (("good", "yaxshi"),)
        assert summary.failed == ["mushuk"]
        assert summary.mismatched == 0

    def test_fold_case(self):
        fwd = DictionaryPairs("en", "de", (("berlin", "Berlin"),))
        client = ReplayClient(backward_table({"Berlin": "Berlin"}, src="en", tgt="de"))
        strict, _ = reverse_filter(client, fwd)
        folded, _ = reverse_filter(client, fwd, fold_case=True)
        assert strict.pairs == ()
        assert folded.pairs == (("berlin", "Berlin"),)

    def test_subset_and_idempotent(self):
        mapping = {f"t{i}": (f"w{i}" if i % 3 else "other") for i in range(30)}
        fwd = DictionaryPairs("en", "uz", tuple((f"w{i}", f"t{i}") for i in range(30)))
        client = ReplayClient(backward_table(mapping))
        kept, summary = reverse_filter(client, fwd)
        assert set(kept.pairs) <= set(fwd.pairs)
        assert summary.kept + summary.mismatched + len(summary.failed) == 30
        again, _ = reverse_filter(client, kept)
        assert again.pairs == kept.pairs


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    def __init__(self, script):
        # script: list of FakeResponse or Exception per call
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


class TestHttpClient:
    def test_success_posts_expected_payload(self):
        session = FakeSession([FakeResponse(200, {"translation": "yaxshi"})])
        client = HttpTranslationClient("http://svc/translate", api_key="k",
                                       session=session, sleep=lambda s: None)
        assert client.translate("good", "en", "uz") == "yaxshi"
        call = session.calls[0]
        assert call["json"] == {"q": "good", "source": "en", "target": "uz"}
        assert call["headers"]["Authorization"] == "Bearer k"

    def test_retries_on_server_error(self):
        session = FakeSession([FakeResponse(503),
                               FakeResponse(200, {"translation": "ok"})])
        sleeps = []
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       sleep=sleeps.append)
        assert client.translate("a", "en", "uz") == "ok"
        assert len(session.calls) == 2
        assert sleeps == [0.5]

    def test_retries_on_connection_error_then_gives_up(self):
        session = FakeSession([requests.ConnectionError("down")] * 3)
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       sleep=lambda s: None, max_retries=2)
        with pytest.raises(TranslationError, match="3 attempts"):
            client.translate("a", "en", "uz")
        assert len(session.calls) == 3

    def test_client_error_fails_immediately(self):
        session = FakeSession([FakeResponse(404)])
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       sleep=lambda s: None)
        with pytest.raises(TranslationError, match="404"):
            client.translate("a", "en", "uz")
        assert len(session.calls) == 1

    def test_throttle_spaces_requests(self):
        responses = [FakeResponse(200, {"translation": f"t{i}"}) for i in range(3)]
        session = FakeSession(responses)
        sleeps = []
        clock = iter([0.0, 0.0, 0.0]).__next__
        client = HttpTranslationClient("http://svc", api_key="k", rps=2.0,
                                       session=session, sleep=sleeps.append,
                                       clock=clock)
        for i, word in enumerate(["a", "b", "c"]):
            client.translate(word, "en", "uz")
        # first call free, later calls wait for their 0.5 s slots
        assert sleeps == pytest.approx([0.5, 1.0])

    def test_write_through_cache(self, tmp_path):
        path = tmp_path / "cache.tsv"
        session = FakeSession([FakeResponse(200, {"translation": "yaxshi"})])
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       cache_path=path, sleep=lambda s: None)
        assert client.translate("good", "en", "uz") == "yaxshi"
        # second lookup is served from memory, no extra post
        assert client.translate("good", "en", "uz") == "yaxshi"
        assert len(session.calls) == 1
        assert load_cache(path) == {("good", "en", "uz"): "yaxshi"}
        # a fresh client replays the file without a session call
        replay = HttpTranslationClient("http://svc", api_key="k",
                                       session=FakeSession([]), cache_path=path,
                                       sleep=lambda s: None)
        assert replay.translate("good", "en", "uz") == "yaxshi"

    def test_tabs_in_translation_sanitized(self, tmp_path):
        path = tmp_path / "cache.tsv"
        session = FakeSession([FakeResponse(200, {"translation": "a\tb"})])
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       cache_path=path, sleep=lambda s: None)
        assert client.translate("x", "en", "uz") == "a b"
        assert load_cache(path) == {("x", "en", "uz"): "a b"}

    def test_malformed_body_raises(self):
        session = FakeSession([FakeResponse(200, {"nope": 1})])
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       sleep=lambda s: None)
        with pytest.raises(TranslationError, match="malformed"):
            client.translate("a", "en", "uz")

    def test_null_translation_raises_and_is_not_cached(self, tmp_path):
        path = tmp_path / "cache.tsv"
        session = FakeSession([FakeResponse(200, {"translation": None}),
                               FakeResponse(200, {"translation": "yaxshi"})])
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       cache_path=path, sleep=lambda s: None)
        with pytest.raises(TranslationError, match="malformed"):
            client.translate("good", "en", "uz")
        assert not path.exists() or load_cache(path) == {}
        assert client.translate("good", "en", "uz") == "yaxshi"
        assert len(session.calls) == 2

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("LEXALIGN_TRANSLATE_KEY", "envkey")
        session = FakeSession([FakeResponse(200, {"translation": "ok"})])
        client = HttpTranslationClient("http://svc", session=session,
                                       sleep=lambda s: None)
        client.translate("a", "en", "uz")
        assert session.calls[0]["headers"]["Authorization"] == "Bearer envkey"


class TestWorkerCap:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Record every thread pool's size; run its jobs inline, start no threads."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(translate, "ThreadPoolExecutor", InlinePool)
        return sizes

    def test_cap_is_accepted(self, pools):
        client = ReplayClient(forward_table({"a": "x", "b": "y"}))
        pairs, _ = translate_wordlist(client, ["a", "b"], "en", "uz",
                                      workers=translate.MAX_WORKERS)
        assert pairs.pairs == (("a", "x"), ("b", "y"))
        assert pools == [translate.MAX_WORKERS]

    @pytest.mark.parametrize("workers", [0, -1, translate.MAX_WORKERS + 1, 10 ** 9])
    def test_out_of_range_rejected_before_any_pool(self, pools, workers):
        client = ReplayClient(forward_table({"a": "x", "b": "y"}))
        with pytest.raises(DataError, match="workers"):
            translate_wordlist(client, ["a", "b"], "en", "uz", workers=workers)
        d = DictionaryPairs("en", "uz", (("a", "x"), ("b", "y")))
        with pytest.raises(DataError, match="workers"):
            reverse_filter(client, d, workers=workers)
        assert pools == []


def test_importing_the_cli_does_not_import_requests():
    code = "import sys, lexalign.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"
