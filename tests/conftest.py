"""Shared fixtures: random graphs, brute-force oracles, scripted backends,
and a stub chat-completions server."""

from __future__ import annotations

import base64
import copy
import hashlib
import json
import math
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from fichad.backend import RELEVANCE, BackendError, GenerationBackend
from fichad.kg import KnowledgeGraph, Triple, Vocab
from fichad.prompt import (ENTITY_HEADER, QUERY_HEADER, RELATION_HEADER,
                           TEMPLATE_HEADER, Sections, TruncationError, _render,
                           truncate, whitespace_words)

DATA_DIR = Path(__file__).parent / "data"
ARLES_CONFIG = DATA_DIR / "arles" / "dataset.json"


def _listing(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.fixture(scope="session", autouse=True)
def fixture_files_stay_as_they_are():
    """No test adds, removes or renames a file under ``tests/data``: a test
    that writes there, as ``ingest`` writes its snapshot beside a config,
    runs on a copy instead."""
    before = _listing(DATA_DIR)
    yield
    assert _listing(DATA_DIR) == before, "a test changed tests/data"


def copy_arles(dest: Path) -> Path:
    """A copy of the arles fixture's data files in ``dest``, without any
    snapshot beside its config; returns the copy's config."""
    dest.mkdir(parents=True, exist_ok=True)
    for f in ARLES_CONFIG.parent.iterdir():
        if f.suffix != ".idx":
            (dest / f.name).write_bytes(f.read_bytes())
    return dest / ARLES_CONFIG.name


def make_vocab(labels):
    v = Vocab()
    for lab in labels:
        v.intern(lab)
    return v


def random_graph(rng: random.Random, max_entities=50, max_relations=5,
                 max_triples=300) -> KnowledgeGraph:
    """Random KG with train/valid/test splits for oracle-equivalence tests."""
    n_ent = rng.randint(3, max_entities)
    n_rel = rng.randint(1, max_relations)
    entities = make_vocab([f"e{i}" for i in range(n_ent)])
    relations = make_vocab([f"r{i}" for i in range(n_rel)])
    n_triples = rng.randint(3, max_triples)
    triples = [Triple(rng.randrange(n_ent), rng.randrange(n_rel),
                      rng.randrange(n_ent)) for _ in range(n_triples)]
    n_test = max(1, n_triples // 5)
    n_valid = max(1, n_triples // 10)
    splits = {"test": triples[:n_test],
              "valid": triples[n_test:n_test + n_valid],
              "train": triples[n_test + n_valid:] or triples[:1]}
    return KnowledgeGraph(entities, relations, splits)


# -- brute-force oracles (kept independent of fichad.linkpred internals) --

def brute_force_candidates(graph: KnowledgeGraph, direction: str, known: int,
                           relation: int, answer: int) -> set[int]:
    """Filtered candidate set by direct enumeration over all entities."""
    all_known = set()
    for split in ("train", "valid", "test"):
        all_known.update(graph.triples(split))
    out = set()
    for e in range(graph.n_entities):
        if direction == "tail":
            cand = Triple(known, relation, e)
        else:
            cand = Triple(e, relation, known)
        if e == answer or cand not in all_known:
            out.add(e)
    return out


def brute_force_rank(score_fn, graph, direction, known, relation,
                     answer) -> float:
    cands = sorted(brute_force_candidates(graph, direction, known, relation,
                                          answer))
    scores = []
    for e in cands:
        if direction == "tail":
            scores.append(score_fn(known, relation, e))
        else:
            scores.append(score_fn(e, relation, known))
    s_true = scores[cands.index(answer)]
    greater = sum(1 for s in scores if s > s_true)
    ties = sum(1 for s in scores if s == s_true) - 1
    return 1.0 + greater + ties / 2.0


def brute_force_report(score_fn, graph, split="test"):
    """(mrr, hits1, hits3, hits10) by direct enumeration."""
    ranks = []
    for t in graph.triples(split):
        ranks.append(brute_force_rank(score_fn, graph, "tail", t.head,
                                      t.relation, t.tail))
        ranks.append(brute_force_rank(score_fn, graph, "head", t.tail,
                                      t.relation, t.head))
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    hits = [sum(1 for r in ranks if r <= k) / len(ranks) for k in (1, 3, 10)]
    return mrr, hits[0], hits[1], hits[2]


# -- the budget cut over random sections --

def random_sections(rng: random.Random) -> Sections:
    """Random KGC input sections; any part but the query may be absent, and
    texts may be empty, span lines or look like headers."""
    words = ["alpha", "beta", "Query:", "Entity:", "x|y:", "#", "text"]

    def text(most: int) -> str:
        return "".join(rng.choice(words) + rng.choice(" \n")
                       for _ in range(rng.randint(0, most))).rstrip()

    def maybe(part):
        return part if rng.random() < 0.8 else None

    return Sections(
        entity=maybe(f"{ENTITY_HEADER} {text(4)}"),
        description=maybe(text(30)),
        neighbors=maybe([f"{text(3)}:\n{text(15)}"
                         for _ in range(rng.randint(0, 5))]),
        relation=maybe(f"{RELATION_HEADER} {text(3)}"),
        template=maybe(f"{TEMPLATE_HEADER}\n{text(8)}"),
        query=f"{QUERY_HEADER} ({text(3)})")


def check_cut(sections: Sections, limit: int) -> None:
    """Assert the budget-cut property of ``truncate`` on one input.

    The cut fits the limit and reports whether it cut; a second cut at the
    same limit, and a cut at the result's own word count, change nothing. A
    limit below the Query line raises and leaves the sections alone.
    """
    s = copy.deepcopy(sections)
    over = whitespace_words(_render(sections)) > limit
    try:
        cut = truncate(s, limit)
    except TruncationError:
        assert over and whitespace_words(sections.query) > limit
        assert s == sections
        return
    n = whitespace_words(_render(s))
    assert n <= limit
    assert cut == over
    for again_at in (limit, n):
        again = copy.deepcopy(s)
        assert truncate(again, again_at) is False
        assert again == s


class ScriptedBackend(GenerationBackend):
    """Relevance scores looked up per image ref (a BackendError there is
    raised); free text is popped from ``texts``, then echoes the subjects."""

    backend_id = "scripted"
    model_id = "scripted"

    def __init__(self, scores: dict[str, float] | None = None,
                 texts: list[str] | None = None):
        super().__init__()
        self.scores = scores or {}
        self.texts = list(texts or [])

    def _answer(self, request, canonical):
        self.call_count += 1
        if request.kind == RELEVANCE:
            ref = request.images[0] if request.images else ""
            score = self.scores.get(ref, 0.0)
            if isinstance(score, BackendError):
                raise score
            return score
        if self.texts:
            return self.texts.pop(0)
        return "scripted text about " + " and ".join(request.subjects)


def two_cluster_graph():
    """60 entities in two clusters, 2 functional relations, 400/50 split.

    r0 maps a_i -> b_i, r1 maps b_i -> a_{i+1 mod 30}; the 60 ground facts are
    cycled to 400 train lines (duplicates preserved by contract) and the first
    50 are the test triples, so every query has a unique memorizable answer.
    """
    entities = make_vocab([f"a{i}" for i in range(30)]
                          + [f"b{i}" for i in range(30)])
    relations = make_vocab(["r0", "r1"])
    facts = []
    for i in range(30):
        facts.append(Triple(i, 0, 30 + i))
        facts.append(Triple(30 + i, 1, (i + 1) % 30))
    train = [facts[i % len(facts)] for i in range(400)]
    test = facts[:50]
    return KnowledgeGraph(entities, relations,
                          {"train": train, "valid": [], "test": test})


@pytest.fixture
def arles():
    from fichad.kg import load_dataset
    return load_dataset(ARLES_CONFIG)


def write_synthetic_dataset(path: Path, n_entities=500, n_relations=8,
                            n_train=600, n_valid=40, n_test=40, seed=13,
                            images_per_entity=2, image_cap=3) -> Path:
    """Write a synthetic benchmark to disk and return its config path."""
    rng = random.Random(seed)
    path.mkdir(parents=True, exist_ok=True)
    ents = [f"ent_{i:04d}" for i in range(n_entities)]
    rels = [f"rel_{i}" for i in range(n_relations)]

    def rand_triples(n):
        return [(rng.choice(ents), rng.choice(rels), rng.choice(ents))
                for _ in range(n)]

    for name, n in (("train", n_train), ("valid", n_valid), ("test", n_test)):
        with open(path / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for h, r, t in rand_triples(n):
                fh.write(f"{h}\t{r}\t{t}\n")
    with open(path / "images.tsv", "w", encoding="utf-8") as fh:
        for e in ents:
            for j in range(images_per_entity):
                fh.write(f"{e}\timg/{e}_{j}.jpg\n")
    with open(path / "descriptions.tsv", "w", encoding="utf-8") as fh:
        for e in ents[: n_entities // 2]:
            fh.write(f"{e}\t{e} is a synthetic entity. It exists for tests.\n")
    config = path / "dataset.json"
    config.write_text(
        '{"id": "synthetic", "train": "train.tsv", "valid": "valid.tsv", '
        '"test": "test.tsv", "images": "images.tsv", '
        f'"descriptions": "descriptions.tsv", "image_cap": {image_cap}}}\n',
        encoding="utf-8")
    return config


class StubHandler(BaseHTTPRequestHandler):
    """OpenAI-compatible stub; the default reply carries no logprobs."""

    # class-level script: (status, payload) or (status, payload, headers)
    # entries, consumed one per request; a bytes payload is sent as it is
    script = []
    requests_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        StubHandler.requests_seen.append(body)
        status, payload, *extra = (
            StubHandler.script.pop(0) if StubHandler.script
            else (200, {"choices": [{"message": {"content": "ok"}}]}))
        data = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode())
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    StubHandler.script = []
    StubHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture
def dead_endpoint():
    """URL of a local port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class WireStub(ThreadingHTTPServer):
    """Threaded chat-completions stub, one thread per connection.

    Replies are a pure function of the request body: a relevance request
    gets a yes/no top-logprobs pair whose yes-probability follows the body's
    hash, a generation request one sentence picked by it. The first
    ``fail_first`` requests are answered 503 with ``Retry-After: 0``. With a
    ``barrier`` set, every other request whose prompt contains
    ``barrier_on`` waits on it and is answered 500 when it breaks. After
    that, a request whose prompt is ``reject`` is answered 400, and a
    relevance request with an image whose bytes are in ``no_logprobs`` gets
    a reply without logprobs.
    """

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _WireStubHandler)
        self.lock = threading.Lock()
        self.requests = 0
        self.fail_first = 0
        self.barrier: threading.Barrier | None = None
        self.barrier_on = ""
        self.reject: str | None = None
        self.no_logprobs: frozenset[bytes] = frozenset()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_port}"

    def reply(self, raw: bytes, body: dict) -> dict:
        digest = hashlib.sha256(raw).digest()
        if not body.get("logprobs"):
            return {"choices": [{"message": {
                "content": f"A scene numbered {digest.hex()[:8]}."}}]}
        images = {base64.b64decode(part["image_url"]["url"].split(",", 1)[1])
                  for part in body["messages"][0]["content"]
                  if part["type"] == "image_url"}
        if images & self.no_logprobs:
            return {"choices": [{"message": {"content": "Yes"}}]}
        p_yes = (digest[0] + 1) / 257
        return {"choices": [{"message": {"content": "Yes"}, "logprobs": {
            "content": [{"top_logprobs": [
                {"token": "Yes", "logprob": math.log(p_yes)},
                {"token": "No", "logprob": math.log(1 - p_yes)}]}]}}]}


class _WireStubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        body = json.loads(raw)
        prompt = body["messages"][0]["content"][0]["text"]
        stub: WireStub = self.server
        with stub.lock:
            stub.requests += 1
            fail = stub.fail_first > 0
            stub.fail_first -= fail
        if fail:
            return self._send(503, {}, {"Retry-After": "0"})
        if stub.barrier is not None and stub.barrier_on in prompt:
            try:
                stub.barrier.wait()
            except threading.BrokenBarrierError:
                return self._send(500, {"error": "requests did not overlap"})
        if prompt == stub.reject:
            return self._send(400, {"error": "rejected"})
        self._send(200, stub.reply(raw, body))

    def _send(self, status: int, payload: dict, headers=None) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def wire_stub():
    server = WireStub()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    if server.barrier is not None:
        server.barrier.abort()  # release handlers still waiting
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def write_image_files(config: Path) -> None:
    """Create every image the dataset's manifest names, each file holding
    its own reference as bytes, so no two images are alike."""
    for line in (config.parent / "images.tsv").read_text().splitlines():
        ref = line.split("\t")[1]
        (config.parent / ref).parent.mkdir(parents=True, exist_ok=True)
        (config.parent / ref).write_bytes(ref.encode())
