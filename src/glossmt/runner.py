"""Batch client for completion-style JSON-over-HTTP inference endpoints.

The outbound request is ``{model, prompt, top_p, temperature?, max_tokens}``
(temperature included only when set), sent with the standard library's
``urllib.request``: one opener per batch, shared by the worker threads. The
opener honours the ``http_proxy``, ``https_proxy`` and ``no_proxy``
variables and verifies TLS against the system CA store. The response must be
a JSON object carrying the generated text either as ``{"text": ...}`` or
OpenAI-style as ``{"choices": [{"text": ...}]}``.

Connections: each worker thread keeps one connection per host and proxy
tunnel open across its requests, and the batch closes every one of them when
it ends, also when it aborts or raises. No ``Connection: close`` is sent; a
reply that closes the connection makes the next request open a new one.
``http.client`` turns Nagle's algorithm off at connect (TCP_NODELAY), and
TCP_QUICKACK is set before each reply is read, where the platform has it: a
server that writes a reply's headers and body in two sends with Nagle on, as
``http.server`` does, would otherwise hold the body back until the client's
delayed ACK, some 40 ms per request on a kept-alive connection. Every reply
body is read to its end, retryable ones included; a connection whose last
reply was not is closed, never reused.

Failure policy: connection errors, timeouts, other request failures (e.g.
a body cut off mid-way), HTTP 429 and 5xx are retried with exponential
backoff. A kept-alive connection that fails, other than by timing out,
before a status line arrives (the peer closed it while idle) is closed and
the request is sent once more on a new connection; that resend is not an
attempt. A request that still fails before any status line arrives, other
than by timing out, marks the endpoint unreachable and aborts the whole
batch (EndpointError, carrying the records completed so far); every other
exhausted failure — timeout, request failure, HTTP error status, malformed
response body — becomes a per-record error record so no prompt is ever
silently dropped.

Credentials come from the ``GLOSSMT_API_TOKEN`` environment variable (sent
as a bearer token) and are never written to records or manifests.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from . import _jsonl
from .errors import EndpointError, UsageError

if TYPE_CHECKING:
    from .config import InferenceConfig

log = logging.getLogger(__name__)

TOKEN_ENV_VAR = "GLOSSMT_API_TOKEN"

_RETRYABLE_STATUS = frozenset({429, *range(500, 600)})


@dataclass(frozen=True)
class GenerationRecord:
    """One prompt/output exchange with the settings that produced it.

    ``duration_s`` is wall-clock timing and is serialized only to the
    timing sidecar, never to the records artifact, so record files stay
    byte-identical across reruns. It is None for a record read back from
    the artifact, i.e. one that ``--resume`` carries over untimed.
    """

    segment_id: str
    prompt_text: str
    raw_output: str
    model_name: str
    config: dict[str, Any]
    attempts: int
    error: str | None = None
    duration_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _read_response(status: int, body: bytes) -> tuple[str, str | None]:
    """(text, None) for a usable reply, ("", error) for a final failure."""
    if status != 200:
        return "", f"HTTP {status}"
    try:
        reply = json.loads(body)
    except ValueError as exc:
        return "", f"malformed response: {exc}"
    if isinstance(reply, dict):
        if isinstance(reply.get("text"), str):
            return reply["text"], None
        choices = reply.get("choices")
        if (
            isinstance(choices, list)
            and choices
            and isinstance(choices[0], dict)
            and isinstance(choices[0].get("text"), str)
        ):
            return choices[0]["text"], None
    return "", "malformed response: no text field in response body"


class _Unreachable(Exception):
    """An attempt that failed, other than by timing out, before a status
    line arrived: the endpoint could not be reached or would not answer."""


def _exhausted_error(failure: Exception | None, status: int | None, attempts: int) -> str:
    """The error of a request whose every attempt failed retryably:
    ``failure`` is the last attempt's exception, or None when the last
    reply had a retryable ``status``."""
    if failure is None:
        return f"HTTP {status} after {attempts} attempts"
    if isinstance(failure, _Unreachable):
        return f"endpoint unreachable after {attempts} attempts: {failure}"
    if isinstance(failure, TimeoutError):
        return f"timed out after {attempts} attempts"
    return f"request failed after {attempts} attempts: {failure}"


def _keep_alive_handler():
    """An opener handler that sends each thread's requests over that thread's
    own connection to each host and proxy tunnel, kept open across requests.
    It replaces ``urllib.request``'s HTTP and HTTPS handlers; the proxy,
    redirect and error handlers and the default TLS context work as before.
    ``close()`` closes every connection it opened."""
    # Imported here for the reason given in generate_batch.
    import http.client
    import socket
    import urllib.error
    import urllib.request

    quickack = getattr(socket, "TCP_QUICKACK", None)

    class Response(http.client.HTTPResponse):
        """Notes whether a read reached the end of the body: only then may
        the connection carry another request."""

        read_to_end = False

        def read(self, amt=None):
            data = super().read(amt)
            self.read_to_end = self.isclosed()
            return data

    class KeepAlive(urllib.request.HTTPHandler, urllib.request.HTTPSHandler):
        def __init__(self):
            super().__init__()
            self._local = threading.local()
            self._lock = threading.Lock()
            self._connections = []
            self.counts = Counter()  # opened, reopened, sent

        def http_open(self, req):
            return self._open(req, http.client.HTTPConnection)

        def https_open(self, req):
            return self._open(req, http.client.HTTPSConnection, context=self._context)

        def close(self):
            for conn in self._connections:
                conn.close()

        def _count(self, event: str) -> None:
            with self._lock:
                self.counts[event] += 1

        def _open(self, req, conn_class, **conn_args):
            if not req.host:
                raise urllib.error.URLError("no host given")
            headers = dict(req.unredirected_hdrs)
            headers.update((k, v) for k, v in req.headers.items() if k not in headers)
            headers = {name.title(): value for name, value in headers.items()}
            tunnel_headers = {}
            if req._tunnel_host and "Proxy-Authorization" in headers:
                # for the proxy only, never the origin server
                tunnel_headers["Proxy-Authorization"] = headers.pop("Proxy-Authorization")
            if not hasattr(self._local, "held"):
                self._local.held = {}  # (class, host, tunnel) -> (connection, its last reply)
            key = (conn_class, req.host, req._tunnel_host)
            conn, last = self._local.held.get(key, (None, None))
            if conn is None:
                conn = conn_class(req.host, timeout=req.timeout, **conn_args)
                conn.response_class = Response
                if req._tunnel_host:
                    conn.set_tunnel(req._tunnel_host, headers=tunnel_headers)
                with self._lock:
                    self._connections.append(conn)
            elif last is not None and not last.read_to_end:
                conn.close()  # what is left of that reply would be read as the next one
            reused = conn.sock is not None
            try:
                response = self._exchange(conn, req, headers)
            except TimeoutError:
                raise
            except (OSError, http.client.HTTPException):
                if not reused:
                    raise
                # The peer closed the idle connection: send once more on a new one.
                self._count("reopened")
                response = self._exchange(conn, req, headers)
            self._local.held[key] = (conn, response)
            response.url = req.get_full_url()
            response.msg = response.reason  # as urllib's own handlers set it
            return response

        def _exchange(self, conn, req, headers):
            """Send ``req`` on ``conn``, opening it first if it is closed, and
            read the reply's status line and headers; close ``conn`` on failure."""
            try:
                try:
                    if conn.sock is None:
                        conn.connect()
                        self._count("opened")
                    conn.request(
                        req.get_method(), req.selector, req.data, headers,
                        encode_chunked=req.has_header("Transfer-encoding"),
                    )
                except OSError as exc:
                    raise urllib.error.URLError(exc) from exc
                self._count("sent")
                if quickack is not None:
                    # ACK the reply's first segment at once, so that a server with
                    # Nagle on does not hold the rest until the delayed ACK.
                    conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
                return conn.getresponse()
            except BaseException:
                conn.close()
                raise

    return KeepAlive()


def generate_batch(examples: Sequence, cfg: InferenceConfig) -> list[GenerationRecord]:
    """Send one request per test example; results come back in input order
    regardless of completion order or concurrency level."""
    # Imported here, not at module level: no other stage sends a request,
    # and postprocess imports this module for read_records.
    import http.client
    import urllib.error
    import urllib.request

    for example in examples:
        if example.mode != "test":
            raise UsageError(
                f"generate_batch takes test prompts only; segment {example.segment_id} is {example.mode}"
            )
    token = os.environ.get(TOKEN_ENV_VAR)
    # One opener for the batch, shared by every worker; it reads the proxy
    # variables now. Each worker sends over its own kept-alive connection.
    connections = _keep_alive_handler()
    opener = urllib.request.build_opener(connections)
    snapshot = cfg.snapshot()
    abort = threading.Event()

    def send(data: bytes) -> tuple[int, bytes | None]:
        """One attempt: the reply's status and body, with a None body when
        the status is retryable. Raises _Unreachable, TimeoutError, or
        another OSError or HTTPException from reading the body. The body is
        read to its end either way, so the connection can carry the next
        request."""
        request = urllib.request.Request(
            cfg.endpoint_url, data=data, headers={"Content-Type": "application/json"}
        )
        if token:
            # urllib copies the other headers onto a redirect, to any host.
            request.add_unredirected_header("Authorization", f"Bearer {token}")
        try:
            response = opener.open(request, timeout=cfg.request_timeout)
        except urllib.error.HTTPError as exc:
            response = exc  # a non-2xx reply, with its status and body
        except TimeoutError:
            raise
        except (OSError, http.client.HTTPException) as exc:
            raise _Unreachable(exc) from exc
        with response:
            body = response.read()
        return response.status, None if response.status in _RETRYABLE_STATUS else body

    def make_record(example, output: str, attempts: int, error: str | None, started: float):
        return GenerationRecord(
            segment_id=example.segment_id,
            prompt_text=example.rendered_text,
            raw_output=output,
            model_name=cfg.model_name,
            config=snapshot,
            attempts=attempts,
            error=error,
            duration_s=time.monotonic() - started,
        )

    def worker(example):
        started = time.monotonic()
        if abort.is_set():
            return "skipped", None
        data = json.dumps(cfg.payload(example.rendered_text), allow_nan=False).encode("utf-8")
        attempts = 0
        while True:
            attempts += 1
            failure = status = None
            try:
                status, body = send(data)
            except (_Unreachable, OSError, http.client.HTTPException) as exc:
                failure = exc
            else:
                if body is not None:
                    text, error = _read_response(status, body)
                    return "done", make_record(example, text, attempts, error, started)
            if attempts <= cfg.max_retries:
                time.sleep(cfg.retry_backoff * 2 ** (attempts - 1))
                continue
            record = make_record(
                example, "", attempts, _exhausted_error(failure, status, attempts), started
            )
            if isinstance(failure, _Unreachable):
                abort.set()
                log.error("segment=%s endpoint_unreachable attempts=%d", example.segment_id, attempts)
                return "unreachable", record
            return "done", record

    try:
        with ThreadPoolExecutor(max_workers=cfg.max_concurrent_requests) as pool:
            outcomes = list(pool.map(worker, examples))
    finally:
        connections.close()
        counts = connections.counts
        log.info(
            "batch_connections opened=%d reopened=%d requests_sent=%d",
            counts["opened"], counts["reopened"], counts["sent"],
        )

    records = [record for status, record in outcomes if status != "skipped"]
    if any(status == "unreachable" for status, _ in outcomes):
        raise EndpointError(
            f"endpoint {cfg.endpoint_url} unreachable; "
            f"{sum(1 for s, r in outcomes if s == 'done')} of {len(examples)} prompts completed",
            partial_records=records,
        )
    failures = sum(1 for record in records if not record.ok)
    if failures:
        log.warning("batch_failures=%d total=%d", failures, len(records))
    return records


# ---------------------------------------------------------------------------
# Serialization

# Artifact key -> (attribute, kind[, default]); duration_s goes to the sidecar only.
_RECORD_KEYS = {
    "segment_id": ("segment_id", str), "prompt": ("prompt_text", str), "output": ("raw_output", str),
    "model": ("model_name", str), "config": ("config", dict), "attempts": ("attempts", int),
    "error": ("error", str, None),
}


def write_records(path, records: Sequence[GenerationRecord], manifest: dict | None = None) -> None:
    """Records as JSONL (timing excluded; see write_timing_sidecar)."""
    _jsonl.write_jsonl(path, (_jsonl.to_record(r, _RECORD_KEYS) for r in records), manifest=manifest)


def read_records(path) -> list[GenerationRecord]:
    return _jsonl.read_records(path, lambda record: GenerationRecord(**_jsonl.from_record(record, _RECORD_KEYS)))


def _timing(record: GenerationRecord) -> dict[str, Any]:
    if record.duration_s is None:
        return {"segment_id": record.segment_id, "carried": True, "seconds": None, "attempts": record.attempts}
    return {"segment_id": record.segment_id, "seconds": round(record.duration_s, 6), "attempts": record.attempts}


def write_timing_sidecar(path, records: Sequence[GenerationRecord]) -> None:
    """One line per record: its wall-clock seconds, or ``"carried": true``
    and null seconds for a record carried over by ``--resume``."""
    _jsonl.write_jsonl(path, (_timing(r) for r in records))


def write_run_manifest(
    path,
    cfg: InferenceConfig,
    records: Sequence[GenerationRecord],
    *,
    config_hash: str,
    seed: int,
    aborted: bool = False,
) -> None:
    """Config snapshot plus failure summary for one generation run."""
    manifest = {
        "config": cfg.snapshot(),
        "config_hash": config_hash,
        "seed": seed,
        "records": len(records),
        "errors": sum(1 for r in records if not r.ok),
        "error_segment_ids": [r.segment_id for r in records if not r.ok],
        "aborted": aborted,
    }
    _jsonl.write_json(path, manifest)
