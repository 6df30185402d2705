import gc
import os
import subprocess
import sys
import threading
import time
import warnings

import requests
import pytest
from hypothesis import given, settings, strategies as st

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


class HeaderResponse(FakeResponse):
    def __init__(self, status_code, headers, payload=None):
        super().__init__(status_code, payload)
        self.headers = headers


class CountingSession:
    """Answers every POST with a fixed translation after a short wait,
    counting the requests; safe to share between threads."""

    def __init__(self, answer, delay=0.01):
        self.answer = answer
        self.delay = delay
        self.posts = 0
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        time.sleep(self.delay)
        with self._lock:
            self.posts += 1
        return FakeResponse(200, {"translation": self.answer})


class TestDistinctLookups:
    def test_repeated_job_posts_and_caches_once(self, tmp_path):
        path = tmp_path / "cache.tsv"
        session = CountingSession("syn0")
        with HttpTranslationClient("http://svc", api_key="k", session=session,
                                   cache_path=path, sleep=lambda s: None) as client:
            results = translate._translate_many(client, [("same", "uz", "en")] * 20, 4)
        assert results == [(True, "syn0")] * 20
        assert session.posts == 1
        assert path.read_text(encoding="utf-8") == "same\tuz\ten\tsyn0\n"


class TestRetryAfter:
    def run(self, status, headers, timeout=30.0):
        session = FakeSession([HeaderResponse(status, headers),
                               FakeResponse(200, {"translation": "ok"})])
        sleeps = []
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       sleep=sleeps.append, timeout=timeout)
        assert client.translate("a", "en", "uz") == "ok"
        return sleeps

    @pytest.mark.parametrize("status", [429, 503])
    def test_seconds_value_waited(self, status):
        assert self.run(status, {"Retry-After": "3"}) == [3.0]

    def test_value_above_timeout_capped(self):
        assert self.run(429, {"Retry-After": "120"}, timeout=7.0) == [7.0]

    def test_value_below_backoff_keeps_backoff(self):
        assert self.run(429, {"Retry-After": "0"}) == [0.5]

    @pytest.mark.parametrize("value", ["soon", "1.5", "-3",
                                       "Wed, 21 Oct 2015 07:28:00 GMT"])
    def test_non_numeric_value_ignored(self, value):
        assert self.run(429, {"Retry-After": value}) == [0.5]

    def test_missing_header_uses_backoff(self):
        assert self.run(429, {}) == [0.5]

    def test_other_server_errors_ignore_header(self):
        assert self.run(500, {"Retry-After": "3"}) == [0.5]

    def test_case_insensitive_headers_from_requests(self):
        headers = requests.structures.CaseInsensitiveDict({"retry-after": "2"})
        assert self.run(503, headers) == [2.0]


class ExplodingClient:
    def translate(self, word, from_lang, to_lang):
        raise RuntimeError(f"boom {word}")


class TestErrorPropagation:
    def test_translate_wordlist_raises_and_joins_threads(self):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="boom"):
            translate_wordlist(ExplodingClient(), [f"w{i}" for i in range(50)],
                               "en", "uz", workers=2)
        assert threading.active_count() == before

    def test_reverse_filter_raises_and_joins_threads(self):
        before = threading.active_count()
        fwd = DictionaryPairs("en", "uz", tuple((f"w{i}", f"t{i}") for i in range(50)))
        with pytest.raises(RuntimeError, match="boom"):
            reverse_filter(ExplodingClient(), fwd, workers=2)
        assert threading.active_count() == before

    def test_other_loops_stop_after_an_error(self):
        calls = []

        class FailsFirst:
            def translate(self, word, from_lang, to_lang):
                calls.append(word)
                if word == "w10":
                    raise RuntimeError("boom")
                time.sleep(0.001)
                return word

        with pytest.raises(RuntimeError, match="boom"):
            translate._translate_many(FailsFirst(), [(f"w{i}", "en", "uz")
                                                     for i in range(1000)], 2)
        assert len(calls) < 1000


class RecordingClient:
    def __init__(self, table):
        self.replay = ReplayClient(table)
        self.calls = []
        self._lock = threading.Lock()

    def translate(self, word, from_lang, to_lang):
        with self._lock:
            self.calls.append((word, from_lang, to_lang))
        return self.replay.translate(word, from_lang, to_lang)


class TestDispatch:
    @settings(max_examples=60, deadline=None)
    @given(words=st.lists(st.sampled_from([f"w{i}" for i in range(12)]), max_size=40),
           known=st.sets(st.sampled_from([f"w{i}" for i in range(12)])))
    def test_matches_serial_loop(self, words, known):
        client = ReplayClient({(w, "en", "uz"): f"t-{w}" for w in known})
        jobs = [(w, "en", "uz") for w in words]
        expected = []
        for job in jobs:
            try:
                expected.append((True, client.translate(*job)))
            except TranslationError as exc:
                expected.append((False, str(exc)))
        for workers in (1, 2, 8):
            assert translate._translate_many(client, jobs, workers) == expected

    def test_each_job_claimed_once_under_contention(self):
        table = {(f"w{i}", "en", "uz"): f"t{i}" for i in range(3000)}
        jobs = list(table) + [("missing", "en", "uz")]
        client = RecordingClient(table)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = translate._translate_many(client, jobs, 8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(client.calls) == sorted(jobs)
        assert results[:-1] == [(True, f"t{i}") for i in range(3000)]
        assert results[-1][0] is False


class TestCacheWriteThrough:
    def test_entry_readable_as_soon_as_translate_returns(self, tmp_path):
        path = tmp_path / "cache.tsv"
        session = FakeSession([FakeResponse(200, {"translation": f"t{i}"})
                               for i in range(3)])
        client = HttpTranslationClient("http://svc", api_key="k", session=session,
                                       cache_path=path, sleep=lambda s: None)
        for i in range(3):
            client.translate(f"w{i}", "en", "uz")
            assert load_cache(path) == {(f"w{j}", "en", "uz"): f"t{j}"
                                        for j in range(i + 1)}
        client.close()
        client.close()
        assert load_cache(path) == {(f"w{j}", "en", "uz"): f"t{j}" for j in range(3)}

    def test_appends_to_an_existing_cache(self, tmp_path):
        path = tmp_path / "cache.tsv"
        append_cache(path, "old", "en", "uz", "eski")
        session = FakeSession([FakeResponse(200, {"translation": "yangi"})])
        with HttpTranslationClient("http://svc", api_key="k", session=session,
                                   cache_path=path, sleep=lambda s: None) as client:
            assert client.translate("old", "en", "uz") == "eski"
            assert client.translate("new", "en", "uz") == "yangi"
        assert path.read_text(encoding="utf-8") == ("old\ten\tuz\teski\n"
                                                    "new\ten\tuz\tyangi\n")

    def test_no_file_opened_without_new_entries(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with HttpTranslationClient("http://svc", api_key="k", session=FakeSession([]),
                                   cache_path=path, sleep=lambda s: None):
            pass
        assert not path.exists()


class EchoSession:
    """Answers {"q": w} with w + "x" one way and strips the "x" back."""

    def post(self, url, json=None, headers=None, timeout=None):
        q = json["q"]
        answer = q[:-1] if json["source"] == "uz" else q + "x"
        return FakeResponse(200, {"translation": answer})

    def close(self):
        pass



def test_close_closes_only_a_session_it_created(monkeypatch):
    class OwnSession(EchoSession):
        def __init__(self):
            self.closed = False

        def close(self):
            self.closed = True

    created = []

    def make_session():
        created.append(OwnSession())
        return created[-1]

    monkeypatch.setattr(requests, "Session", make_session)
    with HttpTranslationClient("http://svc", api_key="k"):
        pass
    assert [s.closed for s in created] == [True]
    injected = OwnSession()
    HttpTranslationClient("http://svc", api_key="k", session=injected).close()
    assert not injected.closed

def test_dict_build_endpoint_leaves_no_open_cache(tmp_path, monkeypatch, capsys):
    from lexalign.cli import main

    monkeypatch.setattr(requests, "Session", EchoSession)
    words = tmp_path / "words.txt"
    words.write_text("good\nbad\n", encoding="utf-8")
    cache = tmp_path / "cache.tsv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["dict-build", "--words", str(words), "--src-lang", "en",
                     "--tgt-lang", "uz", "--out", str(tmp_path / "d.tsv"),
                     "--endpoint", "http://svc/translate", "--cache", str(cache),
                     "--workers", "2"])
        gc.collect()
    assert code == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert load_cache(cache) == {("good", "en", "uz"): "goodx", ("bad", "en", "uz"): "badx",
                                 ("goodx", "uz", "en"): "good", ("badx", "uz", "en"): "bad"}
