import hashlib
import json
import socket
import sys
import threading
import time

import pytest

from fichad.backend import (FREE_TEXT, RELEVANCE, BackendError,
                            CachedBackend, CapabilityError, GenerationRequest,
                            HttpBackend, MockBackend, RequestError,
                            ResponseCache, yes_probability)
from conftest import StubHandler

#: 64-hex cache keys, the form the program writes
KA, KB, KC = (hashlib.sha256(name).hexdigest() for name in (b"a", b"b", b"c"))


def mock_key(request: GenerationRequest, seed: int) -> str:
    """The hex cache key of ``request`` to ``MockBackend(seed)``."""
    payload = f"mock|mock-{seed}|{request.canonical()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record(key: str, kind: str, value) -> str:
    return json.dumps({"k": key, "kind": kind, "v": value}) + "\n"


def answer(backend, request: GenerationRequest):
    """The outcome of ``request`` sent as a batch of one."""
    [outcome] = backend.answer_many([request])
    return outcome


class TestRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(RequestError):
            GenerationRequest(prompt="   ").validate()

    def test_canonical_is_stable(self):
        a = GenerationRequest(prompt="p", images=("x", "y"), subjects=("s",))
        b = GenerationRequest(prompt="p", images=("x", "y"), subjects=("s",))
        assert a.canonical() == b.canonical()
        c = GenerationRequest(prompt="p", images=("y", "x"), subjects=("s",))
        assert a.canonical() != c.canonical()

    @pytest.mark.parametrize("request_, canonical, key", [
        (GenerationRequest(
            prompt="Do these images depict both Arles and Vincent together? "
                   "Answer yes or no.",
            images=("img/a.jpg",), kind=RELEVANCE, max_tokens=1,
            subjects=("Arles", "Vincent")),
         '{"images":["img/a.jpg"],"kind":"relevance","max_tokens":1,'
         '"prompt":"Do these images depict both Arles and Vincent together? '
         'Answer yes or no.","subjects":["Arles","Vincent"],'
         '"temperature":1.0}',
         "5b5f3c079e418f60702508f2cbde682e8fe176be907ddbf78871a3bf3856994f"),
        (GenerationRequest(prompt="Describe Arles in one sentence.",
                           images=("img/a.jpg", "img/b.jpg"),
                           subjects=("Arles",)),
         '{"images":["img/a.jpg","img/b.jpg"],"kind":"free-text",'
         '"max_tokens":256,"prompt":"Describe Arles in one sentence.",'
         '"subjects":["Arles"],"temperature":1.0}',
         "bf99f596313c7da64760ce8f908cc91600103a44f15093b2e496db6583cd8cfb"),
    ], ids=[RELEVANCE, FREE_TEXT])
    def test_cache_keys_are_pinned(self, tmp_path, request_, canonical, key):
        """Caches written by earlier versions keep hitting."""
        assert request_.canonical() == canonical
        cached = CachedBackend(MockBackend(0), ResponseCache(tmp_path / "c"))
        assert cached._key(request_).hex() == key == mock_key(request_, 0)


class TestMockBackend:
    def test_deterministic_text(self):
        req = GenerationRequest(prompt="describe", subjects=("Arles",))
        assert answer(MockBackend(3), req) == answer(MockBackend(3), req)

    def test_seed_changes_output_distribution(self):
        req = GenerationRequest(prompt="q", kind="relevance")
        assert answer(MockBackend(1), req) != answer(MockBackend(2), req)

    def test_relevance_in_unit_interval(self):
        bk = MockBackend(0)
        for i in range(50):
            p = answer(bk, GenerationRequest(prompt=f"q{i}", kind="relevance"))
            assert 0.0 <= p <= 1.0

    def test_text_mentions_subjects(self):
        bk = MockBackend(0)
        text = answer(bk, GenerationRequest(
            prompt="x", subjects=("View of Arles", "Vincent van Gogh")))
        assert "View of Arles" in text and "Vincent van Gogh" in text

    def test_empty_prompt_is_input_error(self):
        with pytest.raises(RequestError):
            answer(MockBackend(0), GenerationRequest(prompt=""))


class TestYesProbability:
    def test_only_no_gives_zero(self):
        assert yes_probability([{"token": "No", "logprob": -0.1}]) == 0.0

    def test_equal_logprobs_give_half(self):
        lp = [{"token": "Yes", "logprob": -1.0}, {"token": "no", "logprob": -1.0}]
        assert yes_probability(lp) == pytest.approx(0.5)

    def test_normalization(self):
        import math
        lp = [{"token": "yes", "logprob": math.log(0.6)},
              {"token": "no", "logprob": math.log(0.2)}]
        assert yes_probability(lp) == pytest.approx(0.75)

    def test_minus_infinity_is_no_mass(self):
        assert yes_probability([{"token": "Yes", "logprob": float("-inf")},
                                {"token": "No", "logprob": -0.1}]) == 0.0

    def test_monotone_in_yes_logprob(self):
        last = -1.0
        for lp_yes in (-3.0, -2.0, -1.0, -0.5):
            p = yes_probability([{"token": "yes", "logprob": lp_yes},
                                 {"token": "no", "logprob": -1.5}])
            assert p > last
            last = p


class TestCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResponseCache(tmp_path / "c.jsonl")
        cache.put(bytes.fromhex(KA), FREE_TEXT, "hello")
        again = ResponseCache(tmp_path / "c.jsonl")
        assert again.get_many([bytes.fromhex(KA)], [FREE_TEXT]) == ["hello"]

    def test_torn_final_line_ignored(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(record(KA, FREE_TEXT, "ok")
                     + f'{{"k": "{KB}", "kind": "free', encoding="utf-8")
        cache = ResponseCache(p)
        assert cache.get_many([bytes.fromhex(KA), bytes.fromhex(KB)],
                              [FREE_TEXT, FREE_TEXT]) == ["ok", None]

    def test_put_after_torn_tail_survives_reload(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(record(KA, FREE_TEXT, "ok")
                     + f'{{"k": "{KB}", "kind": "free', encoding="utf-8")
        ResponseCache(p).put(bytes.fromhex(KC), FREE_TEXT, "new")
        again = ResponseCache(p)
        assert again.get_many([bytes.fromhex(KA), bytes.fromhex(KC)],
                              [FREE_TEXT, FREE_TEXT]) == ["ok", "new"]
        assert p.read_text(encoding="utf-8").endswith('"v": "new"}\n')

    def test_cache_soundness_calls_equal_distinct_keys(self, tmp_path):
        """#backend calls == #distinct cache keys for any request sequence."""
        bk = CachedBackend(MockBackend(5), ResponseCache(tmp_path / "c.jsonl"))
        reqs = [GenerationRequest(prompt=f"p{i % 4}", subjects=(f"s{i % 3}",))
                for i in range(20)]
        for r in reqs:
            answer(bk, r)
        distinct = len({r.canonical() for r in reqs})
        assert bk.counts()["backend_calls"] == distinct == len(bk.cache)

    def test_second_call_served_from_cache(self, tmp_path):
        bk = CachedBackend(MockBackend(1), ResponseCache(tmp_path / "c.jsonl"))
        req = GenerationRequest(prompt="hello", subjects=("X",))
        first = answer(bk, req)
        second = answer(bk, req)
        assert first == second
        assert bk.counts()["backend_calls"] == 1

    def test_relevance_cached_as_float(self, tmp_path):
        bk = CachedBackend(MockBackend(1), ResponseCache(tmp_path / "c.jsonl"))
        req = GenerationRequest(prompt="rel?", kind="relevance")
        p1 = answer(bk, req)
        p2 = answer(bk, req)
        assert p1 == p2
        assert bk.counts() == {"backend_calls": 1, "cache_hits": 1,
                               "wire_retries": 0, "cache_corrupt_lines": 0}

    def test_corrupt_line_mid_file_is_counted(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(record(KA, FREE_TEXT, "one") + "not json at all\n"
                     + record(KB, FREE_TEXT, "two"), encoding="utf-8")
        cache = ResponseCache(p)
        assert cache.get_many([bytes.fromhex(KA), bytes.fromhex(KB)],
                              [FREE_TEXT, FREE_TEXT]) == ["one", "two"]
        assert cache.corrupt_lines == 1
        bk = CachedBackend(MockBackend(1), cache)
        assert bk.counts()["cache_corrupt_lines"] == 1

    @pytest.mark.parametrize("kind,first,later", [
        (RELEVANCE, 0.25, 0.75), (FREE_TEXT, "first", "later")],
        ids=[RELEVANCE, FREE_TEXT])
    def test_later_record_of_a_key_is_served(self, tmp_path, kind, first,
                                             later):
        req = GenerationRequest(prompt="p?", subjects=("X",), kind=kind)
        p = tmp_path / "c.jsonl"
        p.write_text(record(mock_key(req, 1), kind, first)
                     + record(mock_key(req, 1), kind, later), encoding="utf-8")
        bk = CachedBackend(MockBackend(1), ResponseCache(p))
        assert list(bk.answer_many([req])) == [later]
        assert bk.counts()["backend_calls"] == 0

    def test_put_over_a_loaded_record_replaces_it(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(record(KA, RELEVANCE, 0.5) + record(KB, RELEVANCE, 0.5),
                     encoding="utf-8")
        cache = ResponseCache(p)
        cache.put(bytes.fromhex(KA), RELEVANCE, 0.25)
        for reader in (cache, ResponseCache(p)):
            assert reader.get_many([bytes.fromhex(KA), bytes.fromhex(KB)],
                                   [RELEVANCE, RELEVANCE]) == [0.25, 0.5]
            assert len(reader) == 2

    def test_batch_lookup_equals_per_request_lookups(self, tmp_path):
        """One batch over hits and misses of both kinds, a repeat included,
        answers, counts and caches as the same requests sent one by one."""
        def req(i, kind):
            return GenerationRequest(prompt=f"p{i}", subjects=("X",),
                                     kind=kind)

        warm = [req(i, kind) for i in range(0, 12, 2)
                for kind in (RELEVANCE, FREE_TEXT)]
        batch = [req(i, kind) for i in range(12)
                 for kind in (RELEVANCE, FREE_TEXT)] + [req(3, RELEVANCE)]
        seeded = tmp_path / "seed.jsonl"
        list(CachedBackend(MockBackend(1), ResponseCache(seeded))
             .answer_many(warm))
        runs = []
        for name, ask in (("batch", lambda bk: list(bk.answer_many(batch))),
                          ("single", lambda bk: [
                              o for r in batch for o in bk.answer_many([r])])):
            p = tmp_path / f"{name}.jsonl"
            p.write_bytes(seeded.read_bytes())
            bk = CachedBackend(MockBackend(1), ResponseCache(p))
            runs.append((ask(bk), bk.counts(), p.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1]["cache_hits"] == len(warm) + 1

    def test_len_counts_distinct_keys(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(record(KA, RELEVANCE, 0.5) + record(KB, FREE_TEXT, "b")
                     + record(KA, RELEVANCE, 0.25) + record(KB, FREE_TEXT, "c")
                     + record(KC, RELEVANCE, 1.0), encoding="utf-8")
        bk = CachedBackend(MockBackend(1), ResponseCache(p))
        assert len(bk.cache) == 3
        reqs = [GenerationRequest(prompt=f"p{i % 2}", kind=kind)
                for i in range(4) for kind in (RELEVANCE, FREE_TEXT)]
        list(bk.answer_many(reqs))
        assert len(bk.cache) == 3 + 4 == len(ResponseCache(p))

    @pytest.mark.parametrize("key", [
        "a", KA[:-1], KA + "0", "g" * 64, KA[:30] + "  " + KA[32:], 7, None],
        ids=["short", "63-hex", "65-hex", "not-hex", "space", "number",
             "null"])
    def test_key_that_is_not_a_digest_is_corrupt(self, tmp_path, key):
        p = tmp_path / "c.jsonl"
        p.write_text(record(key, FREE_TEXT, "x") + record(KB, FREE_TEXT, "b"),
                     encoding="utf-8")
        cache = ResponseCache(p)
        assert (len(cache), cache.corrupt_lines) == (1, 1)

    def test_corrupt_lines_in_a_long_file_are_each_counted_once(self,
                                                              tmp_path):
        """Lines are parsed in chunks; each chunk holding a line that is not
        one record falls back to the line-by-line parse."""
        keys = [hashlib.sha256(b"%d" % i).hexdigest() for i in range(1500)]
        lines = [record(k, RELEVANCE, i / 1500) for i, k in enumerate(keys)]
        lines[10] = "not json\n"
        lines[700] = lines[701].rstrip("\n") + ", " + lines[702]
        lines[1400] = "\n"
        p = tmp_path / "c.jsonl"
        p.write_text("".join(lines), encoding="utf-8")
        cache = ResponseCache(p)
        assert (len(cache), cache.corrupt_lines) == (1497, 3)
        got = cache.get_many([bytes.fromhex(k) for k in keys],
                             [RELEVANCE] * len(keys))
        assert [i for i, v in enumerate(got) if v is None] == [10, 700, 1400]
        assert got[1499] == 1499 / 1500

    @pytest.mark.parametrize("kind,value", [
        (RELEVANCE, [1]), (RELEVANCE, {"p": 1}), (RELEVANCE, "abc"),
        (RELEVANCE, True), (RELEVANCE, 7), (RELEVANCE, -0.5),
        (RELEVANCE, float("nan")), (FREE_TEXT, 5), (FREE_TEXT, ["t"]),
        (FREE_TEXT, ""), ("summary", "text")],
        ids=["list", "object", "string", "bool", "above-one", "negative",
             "nan", "numeric-text", "list-text", "empty-text", "unknown-kind"])
    def test_record_unfit_for_its_kind_is_sent_again(self, tmp_path, kind,
                                                     value):
        """A record whose value does not fit its kind, or whose kind is
        unknown, is counted as corrupt and its request sent again."""
        req = GenerationRequest(prompt="p?", subjects=("X",),
                                kind=RELEVANCE if kind == RELEVANCE
                                else FREE_TEXT)
        clean = CachedBackend(MockBackend(1),
                              ResponseCache(tmp_path / "clean.jsonl"))
        p = tmp_path / "c.jsonl"
        p.write_text(record(mock_key(req, 1), kind, value), encoding="utf-8")
        bk = CachedBackend(MockBackend(1), ResponseCache(p))
        assert answer(bk, req) == answer(clean, req)
        assert bk.counts() == {"backend_calls": 1, "cache_hits": 0,
                               "wire_retries": 0, "cache_corrupt_lines": 1}


class TestHttpBackend:
    def test_429_then_200_retries_and_caches_once(self, stub_server, tmp_path):
        StubHandler.script = [
            (429, {"error": "rate limited"}),
            (200, {"choices": [{"message": {"content": "generated text"}}]}),
        ]
        inner = HttpBackend(stub_server, "test-model", backoff=0.01)
        bk = CachedBackend(inner, ResponseCache(tmp_path / "c.jsonl"))
        text = answer(bk, GenerationRequest(prompt="hi"))
        assert text == "generated text"
        assert len(bk.cache) == 1
        assert inner.wire_retries == 1
        # cached now: no further wire traffic
        seen = len(StubHandler.requests_seen)
        assert answer(bk, GenerationRequest(prompt="hi")) == "generated text"
        assert len(StubHandler.requests_seen) == seen

    def test_exhausted_retries_carry_last_status(self, stub_server):
        StubHandler.script = [(503, {}), (503, {}), (503, {})]
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        outcome = answer(inner, GenerationRequest(prompt="hi"))
        assert isinstance(outcome, BackendError) and outcome.status == 503
        assert len(StubHandler.requests_seen) == 3

    def test_retry_after_is_honoured(self, stub_server):
        StubHandler.script = [
            (503, {}, {"Retry-After": "1"}),
            (200, {"choices": [{"message": {"content": "late"}}]}),
        ]
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        t0 = time.perf_counter()
        assert answer(inner, GenerationRequest(prompt="hi")) == "late"
        assert time.perf_counter() - t0 >= 1.0
        assert len(StubHandler.requests_seen) == 2

    def test_retry_after_zero_retries_at_once(self, stub_server):
        StubHandler.script = [
            (503, {}, {"Retry-After": "0"}),
            (503, {}, {"Retry-After": "0"}),
            (200, {"choices": [{"message": {"content": "now"}}]}),
        ]
        inner = HttpBackend(stub_server, "m", backoff=2)
        t0 = time.perf_counter()
        assert answer(inner, GenerationRequest(prompt="hi")) == "now"
        assert time.perf_counter() - t0 < 1.0
        assert len(StubHandler.requests_seen) == 3
        assert inner.wire_retries == 2

    def test_client_error_is_not_retried(self, stub_server):
        StubHandler.script = [
            (400, {"error": "bad request"}),
            (200, {"choices": [{"message": {"content": "x"}}]}),
        ]
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        outcome = answer(inner, GenerationRequest(prompt="hi"))
        assert isinstance(outcome, BackendError) and outcome.status == 400
        assert len(StubHandler.requests_seen) == 1
        assert inner.wire_retries == 0

    def test_relevance_parses_logprobs(self, stub_server):
        import math
        StubHandler.script = [(200, {"choices": [{
            "message": {"content": "Yes"},
            "logprobs": {"content": [{"top_logprobs": [
                {"token": "Yes", "logprob": math.log(0.8)},
                {"token": "No", "logprob": math.log(0.2)},
            ]}]}}]})]
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        p = answer(inner, GenerationRequest(prompt="rel?", kind="relevance"))
        assert p == pytest.approx(0.8)
        # relevance requests ask the endpoint for logprobs
        assert StubHandler.requests_seen[-1]["logprobs"] is True

    @pytest.mark.parametrize("choice", [
        {"message": {"content": "Yes"}},
        *({"message": {"content": "Yes"},
           "logprobs": {"content": [{"top_logprobs": top_logprobs}]}}
          for top_logprobs in ([{"token": "Yes"}], ["Yes"], None,
                               [{"token": "Yes", "logprob": 1000}],
                               [{"token": "Yes", "logprob": "x"}],
                               # json.dumps writes these as the bare literals
                               # NaN and Infinity, which json.loads accepts
                               [{"token": "Yes", "logprob": float("nan")}],
                               [{"token": "Yes", "logprob": float("inf")}]))],
        ids=["no-logprobs", "entry-without-logprob", "non-object-entry",
             "null-list", "overflowing-logprob", "non-numeric-logprob",
             "nan-logprob", "infinite-logprob"])
    def test_missing_logprobs_is_capability_error(self, stub_server, choice):
        StubHandler.script = [(200, {"choices": [choice]})]
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        assert isinstance(answer(inner, GenerationRequest(
            prompt="rel?", kind="relevance")), CapabilityError)

    @pytest.mark.parametrize("content", [["x"], 5, {"a": 1}],
                             ids=["list", "number", "object"])
    def test_non_text_content_is_backend_error(self, stub_server, content):
        StubHandler.script = [
            (200, {"choices": [{"message": {"content": content}}]})]
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        outcome = answer(inner, GenerationRequest(prompt="hi"))
        assert isinstance(outcome, BackendError)
        assert str(outcome).startswith("malformed completion response: ")

    def test_non_json_reply_is_backend_error(self, stub_server):
        StubHandler.script = [(200, b"<html>gateway</html>")]
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        outcome = answer(inner, GenerationRequest(prompt="hi"))
        assert isinstance(outcome, BackendError)
        assert "not JSON: <html>gateway" in str(outcome)
        assert len(StubHandler.requests_seen) == 1

    def test_unreachable_endpoint_is_backend_unavailable(self, dead_endpoint):
        inner = HttpBackend(dead_endpoint, "m", backoff=0.01)
        outcome = answer(inner, GenerationRequest(prompt="hi"))
        assert isinstance(outcome, BackendError)
        assert "backend unavailable" in str(outcome)
        assert outcome.status is None

    def test_connection_errors_count_their_retries(self):
        """A server that accepts and closes each connection sees three
        attempts, and the two retries among them are counted."""
        accepted = []
        done = threading.Event()
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(0.05)

            def serve():
                while not done.is_set():
                    try:
                        conn, _ = server.accept()
                    except TimeoutError:
                        continue
                    accepted.append(conn)
                    conn.close()

            thread = threading.Thread(target=serve)
            thread.start()
            inner = HttpBackend(f"http://127.0.0.1:{server.getsockname()[1]}",
                                "m", backoff=0.01)
            try:
                outcome = answer(inner, GenerationRequest(prompt="hi"))
            finally:
                done.set()
                thread.join()
        assert isinstance(outcome, BackendError)
        assert "backend unavailable" in str(outcome)
        assert len(accepted) == 3
        assert inner.wire_retries == 2

    def test_wire_client_needs_no_requests(self, stub_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)  # import fails
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        assert answer(inner, GenerationRequest(prompt="hi")) == "ok"

    def test_unreadable_image_is_input_error(self, stub_server):
        inner = HttpBackend(stub_server, "m", backoff=0.01)
        with pytest.raises(RequestError, match="missing.jpg"):
            answer(inner, GenerationRequest(prompt="p",
                                            images=("/nope/missing.jpg",)))



class TestWireBatch:
    def test_concurrent_batch_counts_exactly_and_caches_in_order(
            self, wire_stub, tmp_path):
        """Worker threads change no counter: every call and retry of a
        concurrent batch is counted once, and records keep request order."""
        wire_stub.fail_first = 2
        inner = HttpBackend(wire_stub.endpoint, "m", backoff=0.01)
        bk = CachedBackend(inner, ResponseCache(tmp_path / "c.jsonl"))
        requests = [GenerationRequest(prompt=f"is {i} relevant?",
                                      kind=RELEVANCE) for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = list(bk.answer_many(requests))
        finally:
            sys.setswitchinterval(interval)
        assert all(isinstance(p, float) for p in outcomes)
        counts = bk.counts()
        assert (counts["backend_calls"], counts["wire_retries"],
                counts["cache_hits"]) == (24, 2, 0)
        assert wire_stub.requests == 26
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        assert [json.loads(line)["k"] for line in lines] == [
            bk._key(r).hex() for r in requests]

    def test_repeated_request_in_a_batch_is_sent_once(self, wire_stub,
                                                      tmp_path):
        inner = HttpBackend(wire_stub.endpoint, "m", backoff=0.01)
        bk = CachedBackend(inner, ResponseCache(tmp_path / "c.jsonl"))
        a, b = (GenerationRequest(prompt=p, kind=RELEVANCE) for p in "ab")
        outcomes = list(bk.answer_many([a, b, a]))
        assert outcomes[0] == outcomes[2]
        assert (bk.counts()["backend_calls"], bk.cache_hits) == (2, 1)
        assert len(bk.cache) == wire_stub.requests == 2
