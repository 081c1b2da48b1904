"""Tiny in-process HTTP endpoint for exercising the batch runner.

Routes (select behaviour by path):
  /echo         -> {"text": "<echo:PROMPT_HASH>"} deterministic per prompt
  /echo-openai  -> {"choices": [{"text": ...}]} same payload, other shape
  /flaky        -> 500 on the first request for each prompt, then echoes
  /flaky-half   -> like /flaky, but only for prompts whose hash is odd
  /malformed    -> 200 with a non-JSON body
  /notfound     -> 404 (non-retryable)
  /slow         -> sleeps longer than short client timeouts, then echoes
  /slow-once    -> like /slow for its first request since reset, then echoes at once
  /slow-body    -> its first reply since reset stalls after 5 bytes of the body,
                   then sends the rest; later ones echo at once
  /empty        -> 200 JSON without text/choices keys
  /surrogate    -> echoes with a lone surrogate appended ("\\ud800" in JSON)
  /truncated    -> 200 announcing a 100-byte body, sends 10 bytes, then closes
  /hangup       -> reads the request, then closes without a status line
  /drop         -> echoes, then closes the connection without saying so
  /redirect     -> 303 to /echo
  /chunked      -> echoes in a chunked body, with a chunk extension and a trailer field
  /close-delimited -> echoes with no Content-Length and Connection: close, then closes
  /http10       -> echoes as HTTP/1.0 without keep-alive, then closes
  /continue     -> 100 Continue, then echoes
  /length-conflict -> echoes under two Content-Length fields that disagree
  /length-invalid  -> echoes under Content-Length: +N
  /line-N       -> echoes with one header line N bytes long, its CRLF included
  /fields-N     -> echoes with N header fields in all
  /huge-length  -> to a prompt holding "huge", a head announcing a 10**20-byte
                   body, then closes; echoes any other prompt
  /huge-digits  -> likewise, announcing a Content-Length of 5,000 digits
  /huge-chunk   -> likewise, with a chunked body whose first chunk size has 21 hex digits
  (any CONNECT) -> 403, recorded as ("CONNECT host:port", None, headers); a stub
                   made with tunnels=True answers 200 and relays bytes both ways
                   between the client and host:port until either side closes

Any other path echoes, including the absolute URI a client sends to a proxy.

The server speaks HTTP/1.1, so a client may keep a connection open across
requests. Every request is recorded on server.requests as (path, payload,
headers) so tests can assert on bodies and on what was *not* sent, and its
request line, with the HTTP version the client sent, on .request_lines. The
server also counts the connections it accepted, those still open, and the
replies a client left before reading (a broken pipe or reset, counted
instead of printed). With a certificate, it serves HTTPS.
"""

from __future__ import annotations

import hashlib
import json
import socket
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def echo_text(prompt: str) -> str:
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]
    return f"<echo:{digest}> {prompt.splitlines()[-1][:40]}"


def _digest(prompt: str) -> int:
    return int(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), 16)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # keep pytest output clean
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections_opened += 1
            self.server.connections_open += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.connections_open -= 1

    def do_CONNECT(self):
        with self.server.lock:
            self.server.requests.append((f"CONNECT {self.path}", None, {key: value for key, value in self.headers.items()}))
            self.server.request_lines.append(self.requestline)
        if not self.server.tunnels:
            self._send(403, b'{"error": "no tunnels"}')
            return
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host, int(port))) as upstream:
            self.send_response(200, "Connection established")
            self.end_headers()
            back = threading.Thread(target=_relay, args=(upstream, self.connection))
            back.start()
            _relay(self.connection, upstream)
            back.join(timeout=5)
        self.close_connection = True

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
            self.server.request_lines.append(self.requestline)
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
            self.close_connection = True
            return
        if self.path == "/hangup":
            self.close_connection = True
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
        if self.path in ("/slow-once", "/slow-body"):
            with self.server.lock:
                first = self.path not in self.server.paths_seen
                self.server.paths_seen.add(self.path)
            if first and self.path == "/slow-once":
                time.sleep(0.3)
            elif first:
                body = json.dumps({"text": echo_text(prompt)}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body[:5])
                time.sleep(0.3)
                self.wfile.write(body[5:])
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

        if self.path in _HUGE and "huge" in prompt:
            self.wfile.write(b"HTTP/1.1 200 OK\r\n" + _HUGE[self.path])
            self.close_connection = True
            return
        if self.path in _FRAMED or self.path.startswith(("/line-", "/fields-")):
            body = json.dumps({"text": echo_text(prompt)}).encode("utf-8")
            self.wfile.write(_framed(self.path, body))
            self.close_connection = self.path in ("/close-delimited", "/http10")
            return

        text = echo_text(prompt)
        if self.path == "/echo-openai":
            reply = {"choices": [{"text": text}]}
        elif self.path == "/surrogate":
            reply = {"text": text + " \ud800"}
        else:
            reply = {"text": text}
        self._send(200, json.dumps(reply).encode("utf-8"))
        if self.path == "/drop":
            self.close_connection = True

    def _send(self, status: int, body: bytes):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _relay(source, sink):
    """Copy what ``source`` receives to ``sink``; at its end, end ``sink``'s sending side."""
    try:
        while data := source.recv(65536):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass


# The head of each oversized reply, after its status line.
_HUGE = {
    "/huge-length": b"Content-Length: %d\r\n\r\n" % 10**20,
    "/huge-digits": b"Content-Length: 1%s\r\n\r\n" % (b"0" * 4999),
    "/huge-chunk": b"Transfer-Encoding: chunked\r\n\r\n1%s\r\n" % (b"0" * 20),
}
_FRAMED = ("/chunked", "/close-delimited", "/http10", "/continue", "/length-conflict", "/length-invalid")


def _framed(path: str, body: bytes) -> bytes:
    """The whole reply that a framing route sends for ``body``."""
    status, length = b"HTTP/1.1 200 OK\r\n", b"Content-Length: %d\r\n" % len(body)
    if path == "/chunked":
        chunks = b'5;note="first"\r\n%s\r\n%x\r\n%s\r\n0\r\n' % (body[:5], len(body) - 5, body[5:])
        return status + b"Transfer-Encoding: chunked\r\n\r\n" + chunks + b"X-Trailer: ignored\r\n\r\n"
    if path == "/close-delimited":
        return status + b"Connection: close\r\n\r\n" + body
    if path == "/http10":
        return b"HTTP/1.0 200 OK\r\n" + length + b"\r\n" + body
    if path == "/continue":
        return b"HTTP/1.1 100 Continue\r\n\r\n" + status + length + b"\r\n" + body
    if path == "/length-conflict":
        return status + length + b"Content-Length: %d\r\n\r\n" % (len(body) + 1) + body
    if path == "/length-invalid":
        return status + b"Content-Length: +%d\r\n\r\n" % len(body) + body
    size = int(path.partition("-")[2])
    if path.startswith("/line-"):
        return status + length + b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n")) + b"\r\n\r\n" + body
    fields = b"".join(b"X-Field-%d: %d\r\n" % (n, n) for n in range(size - 1))
    return status + length + fields + b"\r\n" + body


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        if isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            with self.lock:
                self.clients_gone += 1
        else:
            super().handle_error(request, client_address)


class StubEndpoint:
    """Context manager exposing .url plus captured .requests and connection
    counts; given a PEM certificate and key, it serves HTTPS, and with
    ``tunnels`` it opens the tunnels that CONNECT requests ask for."""

    def __init__(self, certificate=None, key=None, tunnels=False):
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.tunnels = tunnels
        self._scheme = "http"
        if certificate:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(certificate, key)
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
            self._scheme = "https"
        self._server.lock = threading.Lock()
        self._server.requests = []
        self._server.request_lines = []
        self._server.flaky_seen = set()
        self._server.paths_seen = set()
        self._server.connections_open = 0
        self._server.connections_opened = self._server.clients_gone = 0
        # A short poll interval, so that leaving a stub takes milliseconds.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

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
        return f"{self._scheme}://{host}:{port}"

    @property
    def requests(self):
        with self._server.lock:
            return list(self._server.requests)

    @property
    def request_lines(self) -> list[str]:
        with self._server.lock:
            return list(self._server.request_lines)

    @property
    def connections_opened(self) -> int:
        with self._server.lock:
            return self._server.connections_opened

    @property
    def clients_gone(self) -> int:
        with self._server.lock:
            return self._server.clients_gone

    def open_connections(self, within: float = 2.0) -> int:
        """The connections still open, once they are all closed or ``within``
        seconds have passed: the server sees a client's close only when its
        handler thread next reads."""
        deadline = time.monotonic() + within
        while True:
            with self._server.lock:
                count = self._server.connections_open
            if count == 0 or time.monotonic() >= deadline:
                return count
            time.sleep(0.01)

    def reset(self):
        with self._server.lock:
            self._server.requests.clear()
            self._server.request_lines.clear()
            self._server.flaky_seen.clear()
            self._server.paths_seen.clear()
            self._server.connections_opened = self._server.clients_gone = 0
