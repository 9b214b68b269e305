import contextlib
import hashlib
import json
import shutil
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import fichad.backend as be
from fichad import snapshot
from fichad.backend import (FREE_TEXT, RELEVANCE, BackendError,
                            CachedBackend, CapabilityError, GenerationRequest,
                            HttpBackend, MockBackend, RequestError,
                            ResponseCache, yes_probability)
from conftest import StubHandler, copy_arles

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


#: any string: quotes, backslashes, control characters and lone surrogates
#: are drawn more often than arbitrary characters would give them
ANY_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]),
                             st.sampled_from('"\\/\x00\x1f\x7f\u2028')))


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

    @given(prompt=ANY_TEXT, images=st.lists(ANY_TEXT, max_size=3),
           kind=st.sampled_from([FREE_TEXT, RELEVANCE]),
           max_tokens=st.integers(0, 1 << 20),
           subjects=st.lists(ANY_TEXT, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_canonical_is_the_sorted_json_form(self, prompt, images, kind,
                                               max_tokens, subjects):
        request = GenerationRequest(prompt=prompt, images=tuple(images),
                                    kind=kind, max_tokens=max_tokens,
                                    subjects=tuple(subjects))
        assert request.canonical() == json.dumps(
            {"prompt": prompt, "images": images, "kind": kind,
             "temperature": 1.0, "max_tokens": max_tokens,
             "subjects": subjects},
            sort_keys=True, ensure_ascii=True, separators=(",", ":"))

    @given(pool=st.tuples(
               st.lists(ANY_TEXT, min_size=1, max_size=3),
               st.lists(st.lists(ANY_TEXT, max_size=2).map(tuple),
                        min_size=1, max_size=3),
               st.lists(st.integers(0, 1 << 20), min_size=1, max_size=3)),
           picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                    st.sampled_from([FREE_TEXT, RELEVANCE]),
                                    st.integers(0, 2),
                                    st.lists(ANY_TEXT, max_size=2)),
                          max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_batch_forms_are_the_sorted_json_forms(self, pool, picks):
        """Requests drawn from a small pool share some of the fields after
        ``images`` and differ in others; each form stays its own."""
        prompts, subject_sets, token_counts = pool
        requests = [GenerationRequest(
            prompt=prompts[p % len(prompts)], images=tuple(images), kind=kind,
            max_tokens=token_counts[m % len(token_counts)],
            subjects=subject_sets[s % len(subject_sets)])
            for p, s, kind, m, images in picks]
        assert be.canonical_forms(requests) == [json.dumps(
            {"prompt": r.prompt, "images": list(r.images), "kind": r.kind,
             "temperature": 1.0, "max_tokens": r.max_tokens,
             "subjects": list(r.subjects)},
            sort_keys=True, ensure_ascii=True, separators=(",", ":"))
            for r in requests]

    def test_request_is_an_immutable_hashable_record(self):
        a = GenerationRequest(prompt="p", images=("x",), kind=RELEVANCE,
                              max_tokens=1, subjects=("s",))
        b = GenerationRequest(prompt="p", images=("x",), kind=RELEVANCE,
                              max_tokens=1, subjects=("s",))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        for name in ("prompt", "images", "kind", "max_tokens", "subjects"):
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):  # nothing can be kept on it
            a.form = a.canonical()
        assert a != a._replace(max_tokens=2)

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

    def test_request_sent_is_serialized_once(self, tmp_path, monkeypatch):
        """The mock's digest reads the canonical form the key was built
        from; a hit is serialized once as well. Counted through the batch
        serializer, which ``GenerationRequest.canonical`` calls too."""
        built = []

        def canonical_forms(requests, build=be.canonical_forms):
            built.extend(requests)
            return build(requests)

        monkeypatch.setattr(be, "canonical_forms", canonical_forms)
        bk = CachedBackend(MockBackend(1), ResponseCache(tmp_path / "c.jsonl"))
        reqs = [GenerationRequest(prompt=f"p{i}", kind=kind)
                for i in range(3) for kind in (RELEVANCE, FREE_TEXT)]
        for _ in range(2):
            built.clear()
            list(bk.answer_many(reqs))
            assert built == reqs
        assert bk.counts()["backend_calls"] == len(reqs) == bk.cache_hits

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
        """Each line is parsed on its own, so every line that is not one
        record is counted once, wherever it lies in the file."""
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

    def test_line_nested_too_deep_is_corrupt(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("[" * 100_000 + "\n" + record(KB, FREE_TEXT, "b"),
                     encoding="utf-8")
        cache = ResponseCache(p)
        assert (len(cache), cache.corrupt_lines) == (1, 1)

    def test_lines_that_are_not_json_are_not_read_together(self, tmp_path):
        """No line of these three is JSON, though joined by commas they
        read as three values; every line is skipped and counted."""
        p = tmp_path / "c.jsonl"
        p.write_text(record(KA, RELEVANCE, 0.5).rstrip("\n") + ", {}\n"
                     '{"c": [{}\n'
                     '{}]}\n', encoding="utf-8")
        cache = ResponseCache(p)
        assert cache.get_many([bytes.fromhex(KA)], [RELEVANCE]) == [None]
        assert (len(cache), cache.corrupt_lines) == (0, 3)

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


#: 64-hex keys of the snapshot tests: even ones hold relevance records, odd
#: ones free text
KEYS = [hashlib.sha256(b"%d" % i).hexdigest() for i in range(24)]


def kind_of(i: int) -> str:
    return RELEVANCE if i % 2 == 0 else FREE_TEXT


def records(values: dict[int, object]) -> str:
    return "".join(record(KEYS[i], kind_of(i), v) for i, v in values.items())


def index_of(path):
    return path.with_name(path.name + ".idx")


def state(cache: ResponseCache) -> tuple:
    """What a load gave: size, corrupt lines, the torn tail, and the value
    of every key under both kinds."""
    keys = [bytes.fromhex(k) for k in KEYS] * 2
    return (len(cache), cache.corrupt_lines, cache._torn_tail,
            cache.get_many(keys, [RELEVANCE] * len(KEYS)
                           + [FREE_TEXT] * len(KEYS)))


def loaded_bare(path, tmp_path) -> ResponseCache:
    """A load of a copy of ``path`` beside which no snapshot lies."""
    bare = tmp_path / f"bare-{len(list(tmp_path.glob('bare-*')))}" / path.name
    bare.parent.mkdir()
    shutil.copyfile(path, bare)
    return ResponseCache(bare)


class TestCacheSnapshot:
    """A load beside a snapshot gives what a load of the whole file gives,
    whatever happened to the file or the snapshot since it was written."""

    @pytest.fixture
    def cache_path(self, tmp_path):
        """A cache of both kinds with a corrupt line, and its snapshot."""
        p = tmp_path / "c.jsonl"
        p.write_text(records({i: 0.25 if i % 2 == 0 else f"text {i}"
                              for i in range(12)})
                     + "not json\n" + records({0: 0.5, 1: "text one"}),
                     encoding="utf-8")
        ResponseCache(p)
        assert index_of(p).exists()
        return p

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Every line a load hands to the JSON scanner, in order."""
        lines = []

        def parse(line, json_value=be._json_value):
            lines.append(line)
            return json_value(line)

        monkeypatch.setattr(be, "_json_value", parse)
        return lines

    def test_covering_snapshot_parses_no_line(self, cache_path, tmp_path,
                                              parsed):
        """Such a load hands no line to the JSON scanner, and it writes no
        new snapshot."""
        index = index_of(cache_path).read_bytes()
        cache = ResponseCache(cache_path)
        assert parsed == []
        assert state(cache) == state(loaded_bare(cache_path, tmp_path))
        assert state(cache)[:2] == (12, 1)
        assert index_of(cache_path).read_bytes() == index

    @pytest.mark.parametrize("change", [
        "record-edited-in-place", "truncated-below-covered",
        "header-lost-a-key", "header-field-type", "header-covered",
        "header-version", "body-byte", "body-digest", "trailing-byte",
        "index-of-another-cache", "torn-tail", "duplicate-keys-in-tail",
        "index-not-an-index", "header-sizes-shifted", "header-corrupt-negative",
        "header-corrupt", "dataset-snapshot", "bracket-texts"])
    def test_load_equals_a_load_without_snapshot(self, cache_path, tmp_path,
                                                 parsed, change):
        """A snapshot that still checks out is used, and only the lines
        appended after it are parsed; any other is ignored and the whole
        file parsed. Either way the new snapshot is the one a load without
        a snapshot writes."""
        index = index_of(cache_path)
        header_line, body = index.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        fields = header["cache"]

        def rewrite(version=header["version"], **edits):
            edited = {k: v for k, v in {**fields, **edits}.items()
                      if v is not None}
            index.write_bytes(json.dumps({"version": version, "cache": edited})
                              .encode() + b"\n" + body)

        text = cache_path.read_text(encoding="utf-8")
        if change == "record-edited-in-place":
            cache_path.write_text(text.replace('"v": 0.25', '"v": 0.75', 1)
                                  .replace("text 3", "text 9"),
                                  encoding="utf-8")
        elif change == "truncated-below-covered":
            with open(cache_path, "r+b") as fh:
                fh.truncate(fields["covered"] // 2)
        elif change == "header-lost-a-key":
            rewrite(corrupt=None)
        elif change == "header-field-type":
            rewrite(corrupt=float(fields["corrupt"]))
        elif change == "header-covered":
            rewrite(covered=fields["covered"] - 1)
        elif change == "header-version":
            rewrite(version=header["version"] + 1)
        elif change == "body-byte":
            body = body[:-1] + bytes([body[-1] ^ 1])
            rewrite()
        elif change == "body-digest":
            rewrite(digest=hashlib.sha256(b"").hexdigest())
        elif change == "trailing-byte":
            index.write_bytes(index.read_bytes() + b"\0")
        elif change == "index-of-another-cache":
            other = tmp_path / "other" / "c.jsonl"
            other.parent.mkdir()
            other.write_text(records({i: 1.0 if i % 2 == 0 else "other"
                                      for i in range(20)}), encoding="utf-8")
            ResponseCache(other)
            shutil.copyfile(index_of(other), index)
        elif change == "header-sizes-shifted":
            # one relevance record's worth moved from the free-text digests:
            # the sizes still add up to the file's
            rewrite(relevance=fields["relevance"] + 32,
                    text_keys=fields["text_keys"] - 32)
        elif change == "header-corrupt-negative":
            rewrite(corrupt=-4)
        elif change == "header-corrupt":
            rewrite(corrupt=fields["corrupt"] + 1)
        elif change == "dataset-snapshot":
            from fichad.cli import main
            config = copy_arles(tmp_path / "arles")
            assert main(["ingest", "--dataset", str(config)]) == 0
            shutil.copyfile(config.with_name("dataset.json.idx"), index)
        elif change == "bracket-texts":
            # the texts, the last table, become one line of "[" nested deeper
            # than the JSON decoder goes, which reads it before the digest
            # is checked
            cache_path.write_text(text + records({15: "long " * 1000}),
                                  encoding="utf-8")
            ResponseCache(cache_path)
            data = index.read_bytes()
            size = json.loads(data.split(b"\n", 1)[0])["cache"]["texts"]
            assert size > sys.getrecursionlimit()
            index.write_bytes(data[:-size] + b"[" * (size - 1) + b"\n")
        elif change == "torn-tail":
            cache_path.write_text(text + records({12: 0.125})
                                  + records({13: "torn"})[:-9],
                                  encoding="utf-8")
        elif change == "duplicate-keys-in-tail":
            cache_path.write_text(text + records({0: 1.0, 1: "again", 2: 0.0,
                                                  14: 0.5}),
                                  encoding="utf-8")
        else:
            index.write_bytes(b"\x00" * 64)
        parsed.clear()
        cache = ResponseCache(cache_path)
        data = cache_path.read_bytes()
        kept = change in ("torn-tail", "duplicate-keys-in-tail")
        assert len(parsed) == data.count(b"\n") - (
            data[:fields["covered"]].count(b"\n") if kept else 0)
        assert state(cache) == state(loaded_bare(cache_path, tmp_path))
        assert index.read_bytes() == index_of(
            loaded_bare(cache_path, tmp_path).path).read_bytes()

    def test_incremental_snapshot_equals_one_from_a_full_parse(
            self, cache_path, tmp_path):
        with open(cache_path, "a", encoding="utf-8") as fh:
            fh.write(records({0: 1.0, 3: "three again", 16: 0.5, 17: "new"})
                     + "[1, 2]\n")
        cache = ResponseCache(cache_path)
        bare = loaded_bare(cache_path, tmp_path)
        assert state(cache) == state(bare)
        assert state(cache)[:2] == (14, 2)
        assert (index_of(cache_path).read_bytes()
                == index_of(bare.path).read_bytes())

    def test_put_over_a_record_from_the_snapshot(self, cache_path, tmp_path):
        cache = ResponseCache(cache_path)
        cache.put(bytes.fromhex(KEYS[4]), RELEVANCE, 0.875)
        cache.put(bytes.fromhex(KEYS[5]), FREE_TEXT, "put")
        again = ResponseCache(cache_path)
        for reader in (cache, again):
            assert reader.get_many([bytes.fromhex(KEYS[4]),
                                    bytes.fromhex(KEYS[5])],
                                   [RELEVANCE, FREE_TEXT]) == [0.875, "put"]
        assert state(again) == state(loaded_bare(cache_path, tmp_path))

    def test_index_write_that_fails_leaves_the_run_going(self, tmp_path,
                                                         monkeypatch, capsys):
        @contextlib.contextmanager
        def read_only(path, mode="w"):
            raise PermissionError(13, "Permission denied", str(path))
            yield

        p = tmp_path / "c.jsonl"
        p.write_text(records({i: 0.5 if i % 2 == 0 else "t"
                              for i in range(6)}), encoding="utf-8")
        monkeypatch.setattr(snapshot, "written_beside", read_only)
        bk = CachedBackend(MockBackend(1), ResponseCache(p))
        req = GenerationRequest(prompt="p?", kind=RELEVANCE)
        assert answer(bk, req) == answer(MockBackend(1), req)
        monkeypatch.undo()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Permission denied" in err[0]
        assert not index_of(p).exists()
        assert state(bk.cache) == state(loaded_bare(p, tmp_path))
        assert len(ResponseCache(p)) == 7

    def test_identical_caches_have_identical_snapshots(self, tmp_path,
                                                      parsed):
        """Texts with lone surrogates, NUL, astral characters and newlines
        keep their code points through the snapshot, as does a non-ASCII
        text with a character across a read block's end, and a text whose
        digest ends in a NUL byte keeps its record."""
        texts = {KEYS[1]: "\ud800 lone", KEYS[3]: "nul \x00 and \U0001f600",
                 KEYS[5]: "é", KEYS[7]: "a reply\nover two lines\n",
                 KEYS[9]: "ü" + "美術館" * 30000,
                 hashlib.sha256(b"403").hexdigest(): "ends in NUL"}
        assert bytes.fromhex(list(texts)[-1])[-1] == 0
        paths = []
        for name in ("a", "b"):
            p = tmp_path / name / "c.jsonl"
            p.parent.mkdir()
            p.write_text(records({0: 0.5}) + "".join(
                record(key, FREE_TEXT, text) for key, text in texts.items()),
                encoding="utf-8")
            ResponseCache(p)
            paths.append(p)
        data = index_of(paths[0]).read_bytes()
        assert data == index_of(paths[1]).read_bytes()
        table = data[-json.loads(data.split(b"\n", 1)[0])["cache"]["texts"]:]
        assert table[snapshot.BLOCK] & 0xC0 == 0x80  # inside a character
        parsed.clear()
        got = ResponseCache(paths[0]).get_many(
            [bytes.fromhex(key) for key in texts], [FREE_TEXT] * len(texts))
        assert parsed == []  # the texts came from the snapshot
        assert got == list(texts.values())


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
