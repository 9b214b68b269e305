"""Generation backends: text generation and yes-token relevance probability.

Two realizations of one contract: an OpenAI-compatible chat-completions client
(base64-embedded images, top-k logprobs for the yes/no relevance score) and a
deterministic offline mock. Either can be fronted by a content-addressed
append-only JSONL cache, which is what makes whole-pipeline runs resumable
with zero duplicate backend calls.

The wire client retries 429/5xx replies and connection errors with urllib3's
``Retry``, at most :data:`MAX_ATTEMPTS` (3) attempts: ``Retry-After`` is
honoured (``Retry-After: 0`` retries at once), otherwise the first retry is
immediate and the n-th waits ``backoff * 2**(n-1)`` s plus jitter. Each
request opens one connection of its own; a keep-alive session per worker
thread measured slower against a local stub.

Requests of both kinds go through one batch method,
:meth:`GenerationBackend.answer_many`. Context generation calls it once per
wave: ``fichad.context.run_waves`` advances ``WINDOW`` (64) items in
lockstep and sends the requests all of them have pending at one step as one
batch, so a fichad-1 window on a cold cache is three batches (relevance,
descriptions, link summaries). The wire client sends a batch
:data:`WIRE_WORKERS` (8) requests at a time, so a VLM server that batches
concurrent requests can use that throughput; the mock and every other backend
stay serial. The cache front records results on the calling thread in request
order, so records land in wave order with the same bytes for any worker
count, identical reruns write byte-identical caches, and a killed run repeats
at most the unfinished part of one window's wave.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import time
from array import array
from contextlib import closing
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import snapshot

FREE_TEXT = "free-text"
RELEVANCE = "relevance"

API_KEY_ENV = "FICHAD_API_KEY"
#: log-probabilities requested for the first token of a relevance reply
TOP_LOGPROBS = 20
TIMEOUT_S = 120.0
#: sampling temperature of every request, in its cache key and its body
TEMPERATURE = 1.0
#: tries per wire request, the first one included
MAX_ATTEMPTS = 3
RETRY_STATUSES = (429, 500, 502, 503, 504)
#: upper bound of the uniform jitter added to each backoff wait
BACKOFF_JITTER_S = 0.5
#: requests of one batch in flight at once on the wire
WIRE_WORKERS = 8

_quoted = json.encoder.encode_basestring_ascii
_TEMPERATURE = json.dumps(TEMPERATURE)


class BackendError(Exception):
    """Wire failure after retries; carries the last status when known."""

    def __init__(self, message: str, status: int | None = None):
        self.status = status
        super().__init__(message)


class CapabilityError(BackendError):
    """The endpoint cannot serve the request (e.g. no logprob support)."""


class RequestError(ValueError):
    """Invalid generation request."""


class GenerationRequest(NamedTuple):
    """One backend call: prompt, attached images, decoding parameters.

    An immutable, hashable record: a named tuple, so it holds its five fields
    and nothing else, and is cheaper to build than a frozen dataclass. Every
    request samples at :data:`TEMPERATURE`. ``subjects`` carries the display
    names the reply is expected to mention; the wire backend ignores it, the
    mock uses it to compose realistic deterministic text. It is part of the
    canonical form (and thus the cache key), which :func:`canonical_forms`
    writes.
    """

    prompt: str
    images: tuple[str, ...] = ()
    kind: str = FREE_TEXT
    max_tokens: int = 256
    subjects: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.prompt.strip():
            raise RequestError("empty prompt")
        if self.kind not in (FREE_TEXT, RELEVANCE):
            raise RequestError(f"unknown request kind: {self.kind!r}")

    def canonical(self) -> str:
        """The request's canonical form, as :func:`canonical_forms` writes
        it for a batch of one."""
        return canonical_forms([self])[0]


def canonical_forms(requests: list[GenerationRequest]) -> list[str]:
    """The canonical form of each request, in order: the stable JSON
    serialization used for cache keys and mock hashing, ``json.dumps`` of the
    six fields with sorted keys, ASCII escapes and no spaces.

    ``images`` sorts first, so the fields after it are written once per
    distinct (kind, max_tokens, prompt, subjects) of the batch and each
    request's images are put in front: a relevance fan-out, one prompt over
    many images, writes its prompt once. The written parts live only for the
    call; nothing is kept on a request.
    """
    rests: dict[tuple, str] = {}
    forms = []
    for prompt, images, kind, max_tokens, subjects in requests:
        rest = rests.get(shared := (kind, max_tokens, prompt, subjects))
        if rest is None:
            rest = rests[shared] = (
                f'],"kind":{_quoted(kind)},"max_tokens":{max_tokens},'
                f'"prompt":{_quoted(prompt)},'
                f'"subjects":[{",".join(map(_quoted, subjects))}],'
                f'"temperature":{_TEMPERATURE}}}')
        forms.append(f'{{"images":[{",".join(map(_quoted, images))}{rest}')
    return forms


class GenerationBackend:
    """Contract: :meth:`answer_many` is the one way in; a single request is
    a batch of one. A backend implements :meth:`_answer` for one request, or
    overrides :meth:`answer_many` to answer many at once, as
    :class:`HttpBackend` does."""

    backend_id = "abstract"
    model_id = "none"
    #: requests repeated on the wire; only the wire backend retries
    wire_retries = 0

    def __init__(self):
        self.call_count = 0

    def _answer(self, request: GenerationRequest, canonical: str):
        """The text or the probability of one request, as its kind says;
        ``canonical`` is the request's canonical form."""
        raise NotImplementedError

    def answer_many(self, requests: list[GenerationRequest],
                    canonicals: list[str] | None = None):
        """Yield one outcome per request, in request order: the text of a
        free-text request, the probability in [0, 1] of a relevance request,
        or the :class:`BackendError` that request raised.

        Any other exception, such as a :class:`RequestError`, raises at its
        request's position. This default answers request i only when outcome
        i is asked for, one request at a time. ``canonicals`` are the
        requests' canonical forms when the caller has built them, as the
        cache front has for their keys, so no request is serialized twice.
        """
        if canonicals is None:
            canonicals = canonical_forms(requests)
        for request, canonical in zip(requests, canonicals):
            try:
                yield self._answer(request, canonical)
            except BackendError as exc:
                yield exc


_MOCK_ADJECTIVES = ("vivid", "quiet", "historic", "colorful", "detailed",
                    "ordinary", "striking", "weathered")
_MOCK_NOUNS = ("scene", "building", "portrait", "landscape", "object",
               "gathering", "artifact", "setting")


class MockBackend(GenerationBackend):
    """Deterministic offline backend: a pure function of (request, seed)."""

    backend_id = "mock"

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = seed
        self.model_id = f"mock-{seed}"

    def _answer(self, request: GenerationRequest, canonical: str):
        request.validate()
        self.call_count += 1
        d = hashlib.sha256(f"{self.seed}|{canonical}".encode("utf-8")).digest()
        if request.kind == RELEVANCE:
            return int.from_bytes(d[:8], "big") / float(1 << 64)
        adj = _MOCK_ADJECTIVES[d[0] % len(_MOCK_ADJECTIVES)]
        noun = _MOCK_NOUNS[d[1] % len(_MOCK_NOUNS)]
        subjects = request.subjects
        if len(subjects) >= 2:
            return (f"{subjects[0]} appears together with {subjects[1]} "
                    f"in a {adj} {noun}.")
        if len(subjects) == 1:
            return f"{subjects[0]} is shown as a {adj} {noun} in the images."
        return f"A {adj} {noun} is depicted."


class HttpBackend(GenerationBackend):
    """OpenAI-compatible chat-completions client.

    Images are attached as base64 data URLs; relevance requests ask for
    top-k log-probabilities of the first generated token and normalize the
    probability mass over the leading "yes"/"no" tokens (case-insensitive).
    429/5xx replies and connection errors are retried as the module docstring
    describes, at most :data:`MAX_ATTEMPTS` tries in all.
    """

    backend_id = "http"

    def __init__(self, endpoint: str, model: str, backoff: float = 1.0):
        super().__init__()
        self.endpoint = endpoint.rstrip("/")
        self.model_id = model
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.retry = _retry_policy(backoff)
        self._pool = None  # batches' worker threads, made on first use

    def _image_part(self, ref: str) -> dict:
        try:
            data = Path(ref).read_bytes()
        except OSError as exc:
            raise RequestError(f"unreadable image reference: {ref}") from exc
        suffix = Path(ref).suffix.lstrip(".").lower() or "jpeg"
        b64 = base64.b64encode(data).decode("ascii")
        return {"type": "image_url",
                "image_url": {"url": f"data:image/{suffix};base64,{b64}"}}

    def _payload(self, request: GenerationRequest) -> dict:
        content: list[dict] = [{"type": "text", "text": request.prompt}]
        content += [self._image_part(ref) for ref in request.images]
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": content}],
            "temperature": TEMPERATURE,
            "max_tokens": request.max_tokens,
        }
        if request.kind == RELEVANCE:
            payload["max_tokens"] = 1
            payload["logprobs"] = True
            payload["top_logprobs"] = TOP_LOGPROBS
        return payload

    def _post(self, payload: dict) -> tuple[dict | BackendError, int]:
        """(reply JSON, or the BackendError met, and the retries it took)."""
        import urllib3

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        with urllib3.PoolManager(retries=self.retry) as http:
            try:
                resp = http.request("POST", f"{self.endpoint}/chat/completions",
                                    body=body, headers=headers,
                                    timeout=TIMEOUT_S)
            except urllib3.exceptions.HTTPError as exc:
                error = BackendError(f"backend unavailable: {exc}")
                error.__cause__ = exc
                # connection errors end with MaxRetryError once every retry
                # has been spent
                exhausted = isinstance(exc, urllib3.exceptions.MaxRetryError)
                return error, self.retry.total if exhausted else 0
        retries = len(resp.retries.history)
        text = resp.data[:200].decode("utf-8", "replace")
        if resp.status != 200:
            return BackendError(f"backend returned {resp.status}: {text}",
                                status=resp.status), retries
        try:
            return resp.json(), retries
        except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
            return BackendError(f"backend returned a body that is not JSON: "
                                f"{text}", status=200), retries

    def _exchange(self, request: GenerationRequest):
        """Send one request and parse its reply by its kind, on any thread.

        Returns (the text or probability, or the :class:`BackendError` met,
        retries); a :class:`RequestError` raises. It changes no counter, so
        worker threads share no state: :meth:`answer_many` counts on the
        calling thread.
        """
        request.validate()
        reply, retries = self._post(self._payload(request))
        if not isinstance(reply, BackendError):
            parse = _relevance_of if request.kind == RELEVANCE else _completion_text
            try:
                reply = parse(reply)
            except BackendError as exc:
                reply = exc
        return reply, retries

    def answer_many(self, requests: list[GenerationRequest],
                    canonicals: list[str] | None = None):
        """As the base method, with :data:`WIRE_WORKERS` requests in flight.

        Outcomes are yielded in request order; requests not yet started
        when the caller stops reading are cancelled. ``canonicals`` goes
        unread: a wire request is built from the request's fields.
        """
        if self._pool is None:
            # imported here, so mock runs never pay for it and its logging
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=WIRE_WORKERS,
                                            thread_name_prefix="fichad-wire")
        futures = [self._pool.submit(self._exchange, r) for r in requests]
        try:
            for future in futures:
                outcome, retries = future.result()
                self.call_count += 1
                self.wire_retries += retries
                yield outcome
        finally:
            for future in futures:
                future.cancel()


def _completion_text(data: dict) -> str:
    try:
        text = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"malformed completion response: {exc}") from exc
    if not isinstance(text, (str, type(None))):
        raise BackendError(f"malformed completion response: content {text!r}")
    text = (text or "").strip()
    if not text:
        raise BackendError("backend returned empty text")
    return text


def _relevance_of(data: dict) -> float:
    try:
        return yes_probability(
            data["choices"][0]["logprobs"]["content"][0]["top_logprobs"])
    except (KeyError, IndexError, TypeError, AttributeError, ValueError,
            OverflowError):
        raise CapabilityError(
            "endpoint did not return usable top logprobs; relevance scoring "
            "requires logprob support") from None


def _retry_policy(backoff: float):
    """urllib3 ``Retry`` for :class:`HttpBackend`, imported on first use."""
    from urllib3.util import Retry

    class RetryPolicy(Retry):
        def sleep_for_retry(self, response) -> bool:
            # urllib3 reads ``Retry-After: 0`` as absent and backs off instead
            retry_after = self.get_retry_after(response)
            if retry_after is None:
                return False
            time.sleep(retry_after)
            return True

    return RetryPolicy(total=MAX_ATTEMPTS - 1, status_forcelist=RETRY_STATUSES,
                       allowed_methods=None, respect_retry_after_header=True,
                       raise_on_status=False, backoff_factor=backoff,
                       backoff_jitter=BACKOFF_JITTER_S)


def yes_probability(top_logprobs: list[dict]) -> float:
    """Yes-token probability from a top-logprobs list.

    Tokens whose stripped lowercase form is "yes"/"no" contribute their mass;
    absent "yes" means 0, absent "no" means p_yes, and otherwise the result
    is p_yes / (p_yes + p_no). A logprob of NaN or +Infinity raises
    ValueError; -Infinity is a mass of 0.
    """
    p_yes = p_no = 0.0
    for item in top_logprobs:
        token = str(item.get("token", "")).strip().lower()
        if token not in ("yes", "no"):
            continue
        logprob = float(item["logprob"])
        if math.isnan(logprob) or logprob == math.inf:
            raise ValueError(f"logprob {logprob} is not a log-probability")
        if token == "yes":
            p_yes += math.exp(logprob)
        else:
            p_no += math.exp(logprob)
    if p_yes == 0.0:
        return 0.0
    if p_no == 0.0:
        return min(p_yes, 1.0)
    return p_yes / (p_yes + p_no)


class ResponseCache:
    """Content-addressed cache persisted as append-only JSONL.

    One record per line: ``{"k": key, "kind": ..., "v": ...}``, where the key
    is a request's sha256 digest in 64 hex digits. A final line without its
    newline (crash mid-append) is ignored on load and cut off before the
    first append, so the next record starts on a fresh line. Every other line
    is parsed on its own, as ``json.loads`` reads it; a line that is not
    JSON, and a record whose key is not a digest or whose value does not fit
    its kind, is skipped and counted in ``corrupt_lines``.

    Lookups are per kind, so a record is served only to a request of its own
    kind; the last record of a key and kind wins. Relevance values loaded
    from the file sit in a sorted array of 32-byte digests beside a float64
    array, 40 bytes a record; the ones put since the load sit in a dict.
    Free text sits in a dict keyed by the 32-byte digest.

    The loaded index is kept beside the file as ``<path>.idx``, a
    :mod:`fichad.snapshot` with one section, ``cache``: the sorted relevance
    digests, their values, the free-text digests and the texts. Its fields
    are the byte length of the whole lines it covers, the sha256 of those
    bytes and the corrupt lines among them. A load uses it only when it
    checks out and the file still begins with the covered bytes; it then
    parses only the lines after them, whose records merge after the
    snapshot's. Otherwise it parses the whole file. A load that parsed a
    line, or used no snapshot, writes a new one covering every whole line it
    read, so the snapshot may be deleted at any time; a failed write costs
    one stderr line.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._index = self.path.with_name(self.path.name + ".idx")
        self._keys = np.empty(0, dtype="S32")  # sorted relevance digests
        self._scores = np.empty(0)  # the relevance of each of ``_keys``
        self._new_scores: dict[bytes, float] = {}  # put since the load
        self._texts: dict[bytes, str] = {}
        self._torn_tail = 0  # bytes after the last newline
        self.corrupt_lines = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        section = (_LAYOUT.read(self._index) or {}).get("cache")
        loaded = section and section.read(_read_cache)
        prefix = hashlib.sha256()  # of the whole lines read
        keys, scores = bytearray(), array("d")
        with open(self.path, "rb") as fh:
            if (loaded
                    and snapshot.hash_next(fh, section.fields["covered"], prefix)
                    and prefix.hexdigest() == section.fields["prefix"]):
                self._keys, self._scores, self._texts = loaded
                self.corrupt_lines = section.fields["corrupt"]
            else:
                loaded, prefix = None, hashlib.sha256()
                fh.seek(0)
            start = end = fh.tell()
            for line in fh:
                if not line.endswith(b"\n"):
                    self._torn_tail = len(line)
                    break
                end += len(line)
                prefix.update(line)
                try:
                    rec = _json_value(line.decode())
                    key = _digest(rec["k"])
                    value = _cached_value(rec["kind"], rec["v"])
                except (KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1  # its request is sent again
                    continue
                if rec["kind"] == RELEVANCE:
                    keys += key
                    scores.append(value)
                else:
                    self._texts[key] = value
        if keys:
            keys = np.frombuffer(keys, dtype="S32")
            scores = np.frombuffer(scores)
            if len(self._keys):  # the snapshot's records come first
                keys = np.concatenate((self._keys, keys))
                scores = np.concatenate((self._scores, scores))
            order = np.argsort(keys, kind="stable")
            keys, scores = keys[order], scores[order]
            last = np.ones(len(keys), dtype=bool)  # the last of equal keys
            np.not_equal(keys[1:], keys[:-1], out=last[:-1])
            self._keys, self._scores = keys[last], scores[last]
        if end > start or loaded is None:
            _LAYOUT.write(self._index, {"cache": (
                {"covered": end, "prefix": prefix.hexdigest(),
                 "corrupt": self.corrupt_lines},
                {"relevance": self._keys, "scores": self._scores,
                 "text_keys": np.frombuffer(b"".join(self._texts), "V32"),
                 "texts": self._texts.values()})})

    def __len__(self) -> int:
        return len(self._keys) + len(self._new_scores) + len(self._texts)

    def _loaded(self, keys: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``keys`` in the loaded relevance table, and whether
        each is there."""
        if not len(self._keys):
            return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), bool)
        wanted = np.frombuffer(b"".join(keys), dtype="S32")
        at = np.searchsorted(self._keys, wanted)
        at[at == len(self._keys)] = 0
        return at, self._keys[at] == wanted

    def get_many(self, keys: list[bytes], kinds: list[str]) -> list:
        """The value cached for each digest under its kind, or None."""
        values = [self._texts.get(key) if kind == FREE_TEXT
                  else self._new_scores.get(key)
                  for key, kind in zip(keys, kinds)]
        asked = [i for i, (value, kind) in enumerate(zip(values, kinds))
                 if value is None and kind == RELEVANCE]
        if asked:
            at, found = self._loaded([keys[i] for i in asked])
            for i, value in zip(compress(asked, found),
                                self._scores[at[found]].tolist()):
                values[i] = value
        return values

    def put(self, key: bytes, kind: str, value) -> None:
        if kind != RELEVANCE:
            self._texts[key] = value
        else:
            [at], [loaded] = self._loaded([key])
            if loaded:
                self._scores[at] = value
            else:
                self._new_scores[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._torn_tail:
            os.truncate(self.path, self.path.stat().st_size - self._torn_tail)
            self._torn_tail = 0
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps({"k": key.hex(), "kind": kind, "v": value},
                                sort_keys=True) + "\n")


#: the cache's snapshot: the sorted relevance digests and their values, and
#: the free-text digests and texts
_LAYOUT = snapshot.Layout("cache", {"cache": (
    {"covered": int, "prefix": str, "corrupt": int},
    {"relevance": "S32", "scores": "<f8", "text_keys": "V32",
     "texts": snapshot.TEXT})})


def _read_cache(fields: dict, keys, scores, text_keys, texts):
    """(relevance digests, their values, texts by digest) of a snapshot. The
    free-text digests are read as ``V32``, whose items keep trailing NULs."""
    return keys, scores, dict(zip(text_keys.tolist(), texts, strict=True))


_space = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().scan_once


def _json_value(line: str):
    """The JSON value of ``line`` as ``json.loads`` reads it, or ValueError.
    A value nested too deep for the scanner is not JSON either."""
    try:
        value, end = _scan(line, _space(line).end())
    except (StopIteration, RecursionError):
        raise ValueError("cache line is not JSON") from None
    if _space(line, end).end() != len(line):
        raise ValueError("cache line holds more than one JSON value")
    return value


def _digest(key) -> bytes:
    """The 32 bytes a record's 64-hex-digit key spells, or ValueError."""
    digest = bytes.fromhex(key)
    if len(key) != 64 or len(digest) != 32:
        raise ValueError(f"cache key {key!r} is not a sha256 digest")
    return digest


def _cached_value(kind: str, value):
    """``value`` as a record of ``kind`` holds it, or ValueError: a relevance
    is a float in [0, 1], free text a non-empty string."""
    if kind == RELEVANCE and type(value) in (int, float) and 0 <= value <= 1:
        return float(value)  # NaN fails the range check
    if kind == FREE_TEXT and type(value) is str and value:
        return value
    raise ValueError(f"cache record of kind {kind!r} holds {value!r}")


class CachedBackend(GenerationBackend):
    """Cache front for any backend; hits never reach the wrapped backend."""

    def __init__(self, inner: GenerationBackend, cache: ResponseCache):
        super().__init__()
        self.inner = inner
        self.cache = cache
        self.backend_id = inner.backend_id
        self.model_id = inner.model_id
        self.cache_hits = 0

    def _key(self, request: GenerationRequest,
             canonical: str | None = None) -> bytes:
        """The cache key of ``request``, from ``canonical`` when given."""
        canonical = canonical or request.canonical()
        payload = f"{self.inner.backend_id}|{self.inner.model_id}|{canonical}"
        return hashlib.sha256(payload.encode("utf-8")).digest()

    def answer_many(self, requests: list[GenerationRequest],
                    canonicals: list[str] | None = None):
        """Hits come from the cache; the misses go to the wrapped backend as
        one batch, and each result is put with its request's kind before it
        is yielded, so records land in request order whatever order the
        batch finishes in.

        A request repeated within the batch is sent once; its later copies
        read the first one's outcome, and count as hits when it succeeded.
        Each request is serialized once: its key and the wrapped backend
        read the same canonical form.
        """
        if canonicals is None:
            canonicals = canonical_forms(requests)
        keys = [self._key(r, c) for r, c in zip(requests, canonicals)]
        hits = self.cache.get_many(keys, [r.kind for r in requests])
        sent: dict[bytes, object] = {}  # key -> outcome of the request sent
        misses, missed = [], []  # the requests sent and their forms
        for request, canonical, key, hit in zip(requests, canonicals, keys,
                                                hits):
            if hit is None and key not in sent:
                sent[key] = None
                misses.append(request)
                missed.append(canonical)
        del canonicals  # the hits' forms are not held while misses are sent
        with closing(self.inner.answer_many(misses, missed)) as fresh:
            for request, key, hit in zip(requests, keys, hits):
                if hit is not None:
                    self.cache_hits += 1
                    yield hit
                elif sent[key] is None:
                    outcome = sent[key] = next(fresh)
                    if not isinstance(outcome, BackendError):
                        self.cache.put(key, request.kind, outcome)
                    yield outcome
                else:
                    self.cache_hits += not isinstance(sent[key], BackendError)
                    yield sent[key]

    def counts(self) -> dict[str, int]:
        """Calls that reached the backend, cache hits, wire retries and
        corrupt cache lines skipped on load."""
        return {"backend_calls": self.inner.call_count,
                "cache_hits": self.cache_hits,
                "wire_retries": self.inner.wire_retries,
                "cache_corrupt_lines": self.cache.corrupt_lines}
