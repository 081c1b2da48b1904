"""Tiny in-process HTTP endpoint for exercising the batch runner.

Routes (select behaviour by path):
  /echo         -> {"text": "<echo:PROMPT_HASH>"} deterministic per prompt
  /echo-openai  -> {"choices": [{"text": ...}]} same payload, other shape
  /flaky        -> 500 on the first request for each prompt, then echoes
  /flaky-half   -> like /flaky, but only for prompts whose hash is odd
  /malformed    -> 200 with a non-JSON body
  /notfound     -> 404 (non-retryable)
  /slow         -> sleeps longer than short client timeouts, then echoes
  /empty        -> 200 JSON without text/choices keys
  /surrogate    -> echoes with a lone surrogate appended ("\\ud800" in JSON)
  /truncated    -> 200 announcing a 100-byte body, sends 10 bytes, then closes
  /hangup       -> reads the request, then closes without a status line
  /redirect     -> 303 to /echo, which a client follows with a GET
  (any GET)     -> 405, recorded with a None payload

Any other path echoes, including the absolute URI a client sends to a proxy.

Every request is recorded on server.requests as (path, payload, headers)
so tests can assert on bodies and on what was *not* sent.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def echo_text(prompt: str) -> str:
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]
    return f"<echo:{digest}> {prompt.splitlines()[-1][:40]}"


def _digest(prompt: str) -> int:
    return int(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), 16)


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):  # keep pytest output clean
        pass

    def do_GET(self):
        with self.server.lock:
            self.server.requests.append((self.path, None, {key: value for key, value in self.headers.items()}))
        self._send(405, b'{"error": "POST only"}')

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError:
            payload = {"_raw": body.decode("utf-8", "replace")}
        with self.server.lock:
            self.server.requests.append(
                (self.path, payload, {key: value for key, value in self.headers.items()})
            )
        prompt = payload.get("prompt", "")

        if self.path == "/notfound":
            self._send(404, b'{"error": "no such model"}')
            return
        if self.path == "/malformed":
            self._send(200, b"this is not json")
            return
        if self.path == "/truncated":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"text": "')
            return
        if self.path == "/hangup":
            return
        if self.path == "/redirect":
            self.send_response(303)
            self.send_header("Location", "/echo")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path == "/empty":
            self._send(200, json.dumps({"unexpected": True}).encode("utf-8"))
            return
        if self.path == "/slow":
            time.sleep(0.3)
        if self.path == "/flaky" or (self.path == "/flaky-half" and _digest(prompt) % 2):
            with self.server.lock:
                seen = self.server.flaky_seen
                if prompt not in seen:
                    seen.add(prompt)
                    self._send(500, b'{"error": "transient"}')
                    return

        text = echo_text(prompt)
        if self.path == "/echo-openai":
            reply = {"choices": [{"text": text}]}
        elif self.path == "/surrogate":
            reply = {"text": text + " \ud800"}
        else:
            reply = {"text": text}
        self._send(200, json.dumps(reply).encode("utf-8"))

    def _send(self, status: int, body: bytes):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class StubEndpoint:
    """Context manager exposing .url plus captured .requests."""

    def __init__(self):
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.lock = threading.Lock()
        self._server.requests = []
        self._server.flaky_seen = set()
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        return False

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self):
        with self._server.lock:
            return list(self._server.requests)

    def reset(self):
        with self._server.lock:
            self._server.requests.clear()
            self._server.flaky_seen.clear()
