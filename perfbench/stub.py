"""OpenAI-compatible chat-completions stub with a fixed injected latency.

Every reply is a pure function of the request body, so a rerun of the same
chain produces the same bytes:

- relevance requests (``"logprobs": true``) get a yes/no top-logprobs pair
  whose yes-probability follows the body hash, so that a fixed share
  (``KEEP_SHARE``) of images clears the default threshold of 0.85 and few
  triples fall back to name-only text;
- generation requests get one sentence with exactly one ``[A]`` and one
  ``[B]``, so relation templates are accepted on the first try.

The first attempt of a relevance request whose image is in ``fail_images``
gets ``503`` with ``Retry-After: 0``; the identical retry succeeds. The server
is threaded (one thread per connection, HTTP/1.1 keep-alive), so a client
that overlaps requests is not serialised here, and it counts requests,
statuses, accepted TCP connections and body bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: share of relevance requests answered with a yes-probability >= 0.85
KEEP_SHARE = 0.3
_ADJECTIVES = ("vivid", "quiet", "historic", "colorful", "detailed", "striking")
_NOUNS = ("scene", "setting", "portrait", "landscape", "gathering", "place")


def image_key(b64: str) -> str:
    """Identity of one attached image as the stub sees it (its base64 text)."""
    return hashlib.sha256(b64.encode("ascii")).hexdigest()


def _images(body: dict) -> list[str]:
    out = []
    for msg in body.get("messages", ()):
        content = msg.get("content")
        if not isinstance(content, list):
            continue
        for part in content:
            url = part.get("image_url", {}).get("url", "") if isinstance(
                part, dict) else ""
            out.append(url.partition("base64,")[2])
    return out


def reply(raw: bytes, body: dict) -> dict:
    """The completion for one request body (``body`` is ``raw`` parsed)."""
    digest = hashlib.sha256(raw).digest()
    if body.get("logprobs"):
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if u < KEEP_SHARE:
            p = 1.0 - 0.15 * u / KEEP_SHARE
        else:
            p = 0.85 * (1.0 - u) / (1.0 - KEEP_SHARE)
        p = min(max(p, 1e-6), 1 - 1e-6)
        top = [{"token": "Yes", "logprob": math.log(p)},
               {"token": "No", "logprob": math.log(1 - p)}]
        return {"choices": [{"index": 0,
                             "message": {"role": "assistant", "content": "Yes"},
                             "logprobs": {"content": [{"token": "Yes",
                                                       "top_logprobs": top}]}}]}
    text = (f"[A] and [B] share a {_ADJECTIVES[digest[0] % len(_ADJECTIVES)]} "
            f"{_NOUNS[digest[1] % len(_NOUNS)]}.")
    return {"choices": [{"index": 0,
                         "message": {"role": "assistant", "content": text}}]}


class StubServer(ThreadingHTTPServer):
    daemon_threads = False
    block_on_close = True

    def __init__(self, latency_s: float, fail_images: frozenset[str] = frozenset()):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.latency_s = latency_s
        self.fail_images = fail_images
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.reset()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def reset(self) -> None:
        """Zero the counters and forget which first attempts already failed."""
        with self._lock:
            self.requests = 0
            self.statuses: Counter[int] = Counter()
            self.connections = 0
            self.body_bytes = 0
            self._failed_once: set[bytes] = set()

    def counts(self) -> dict:
        with self._lock:
            return {"requests": self.requests,
                    "http_5xx": sum(n for s, n in self.statuses.items()
                                    if s >= 500),
                    "connections": self.connections,
                    "body_bytes": self.body_bytes}

    def get_request(self):
        conn = super().get_request()
        with self._lock:
            self.connections += 1
        return conn

    def fail_first_attempt(self, raw: bytes, body: dict) -> bool:
        if not body.get("logprobs") or not self.fail_images:
            return False
        if not any(image_key(b) in self.fail_images for b in _images(body)):
            return False
        key = hashlib.sha256(raw).digest()
        with self._lock:
            if key in self._failed_once:
                return False
            self._failed_once.add(key)
            return True

    def record(self, status: int, n_bytes: int) -> None:
        with self._lock:
            self.requests += 1
            self.statuses[status] += 1
            self.body_bytes += n_bytes

    def start(self) -> "StubServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="perfbench-stub")
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # an idle keep-alive connection ends its thread

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, payload: dict, headers=()) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for k, v in headers:
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server: StubServer = self.server
        time.sleep(server.latency_s)
        if not self.path.endswith("/chat/completions"):
            server.record(404, len(raw))
            self._send(404, {"error": "not found"})
            return
        try:
            body = json.loads(raw)
        except json.JSONDecodeError:
            server.record(400, len(raw))
            self._send(400, {"error": "malformed JSON"})
            return
        if server.fail_first_attempt(raw, body):
            server.record(503, len(raw))
            self._send(503, {"error": "overloaded"}, [("Retry-After", "0")])
            return
        server.record(200, len(raw))
        self._send(200, reply(raw, body))
