"""Batch client for completion-style JSON-over-HTTP inference endpoints.

The outbound request is ``{model, prompt, top_p, temperature?, max_tokens}``
(temperature included only when set), POSTed with the standard library's
``http.client`` to ``endpoint_url`` itself. The route is worked out once per
batch: straight to the endpoint, or through the proxy that ``http_proxy`` or
``https_proxy`` names and ``no_proxy`` does not bypass (an ``http`` request
with an absolute URI, an ``https`` one through a CONNECT tunnel, credentials
in the proxy URL to the proxy alone). TLS is verified through the default
context, so against the system CA store or ``SSL_CERT_FILE``. The response
must be a JSON object carrying the generated text either as
``{"text": ...}`` or OpenAI-style as ``{"choices": [{"text": ...}]}``.
Redirects are not followed: a 3xx reply is final, like a 404.

Connections: each worker thread keeps one connection open across its
requests, and the batch closes every one of them when it ends, also when it
aborts or raises. No ``Connection: close`` is sent; a reply that closes the
connection makes the next request open a new one. ``http.client`` turns
Nagle's algorithm off at connect (TCP_NODELAY), and TCP_QUICKACK is set
before each reply is read, where the platform has it: a server that writes
a reply's headers and body in two sends with Nagle on, as ``http.server``
does, would otherwise hold the body back until the client's delayed ACK,
some 40 ms per request on a kept-alive connection. Every reply body is read
to its end, retryable ones included; a failure anywhere in an exchange
closes its connection, so what is left of a reply is never read as the
next one.

Failure policy: connection errors, timeouts, other request failures (e.g.
a body cut off mid-way), HTTP 429 and 5xx are retried with exponential
backoff. A kept-alive connection that fails, other than by timing out,
before a status line arrives (the peer closed it while idle) is closed and
the request is sent once more on a new connection; that resend is not an
attempt. A request that still fails before any status line arrives, other
than by timing out while waiting for it, marks the endpoint unreachable and
aborts the whole batch (EndpointError, carrying the records completed so
far); every other exhausted failure — timeout, request failure, HTTP error
status, malformed response body — becomes a per-record error record so no
prompt is ever silently dropped.

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
from urllib.parse import unquote, urlsplit

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
    the artifact, i.e. one that a re-run of ``translate`` reuses untimed.
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


def _route(cfg: InferenceConfig, token: str | None):
    """How a batch reaches ``cfg.endpoint_url``, directly or through a proxy
    as the module docstring says: a function that makes a new, unopened
    connection, the request target and the request headers."""
    # Imported here for the reason given in generate_batch.
    import base64
    import http.client
    import urllib.request

    url = urlsplit(cfg.endpoint_url)
    target = url.path + (f"?{url.query}" if url.query else "") or "/"
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    host, tunnel, tunnel_headers, tls = url.netloc, None, {}, url.scheme == "https"
    proxy = urllib.request.getproxies().get(url.scheme)
    if proxy and not urllib.request.proxy_bypass(url.netloc):
        proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        host = unquote(proxy.netloc.rpartition("@")[2])
        if proxy.username and proxy.password:
            credentials = f"{unquote(proxy.username)}:{unquote(proxy.password)}".encode()
            # On a tunnel, they go with the CONNECT only, never to the endpoint.
            (tunnel_headers if tls else headers)["Proxy-Authorization"] = (
                "Basic " + base64.b64encode(credentials).decode("ascii")
            )
        if tls:
            tunnel = url.netloc
        else:
            target, tls = cfg.endpoint_url.partition("#")[0], proxy.scheme == "https"
    connection_class = http.client.HTTPSConnection if tls else http.client.HTTPConnection

    def new_connection() -> http.client.HTTPConnection:
        # An HTTPS connection verifies against the default TLS context.
        conn = connection_class(host, timeout=cfg.request_timeout)
        if tunnel:
            conn.set_tunnel(tunnel, headers=tunnel_headers)
        return conn

    return new_connection, target, headers


def generate_batch(examples: Sequence, cfg: InferenceConfig) -> list[GenerationRecord]:
    """Send one request per test example; results come back in input order
    regardless of completion order or concurrency level."""
    # Imported here, not at module level: no other stage sends a request.
    import http.client
    import socket

    for example in examples:
        if example.mode != "test":
            raise UsageError(
                f"generate_batch takes test prompts only; segment {example.segment_id} is {example.mode}"
            )
    # The route, and so the proxy variables, are read once, at batch start.
    new_connection, target, headers = _route(cfg, os.environ.get(TOKEN_ENV_VAR))
    quickack = getattr(socket, "TCP_QUICKACK", None)
    snapshot = cfg.snapshot()
    abort = threading.Event()
    held = threading.local()  # each worker's one connection
    connections = []
    lock = threading.Lock()
    counts = Counter()  # opened, reopened, sent

    def count(event: str) -> None:
        with lock:
            counts[event] += 1

    def exchange(conn, data: bytes):
        """Send ``data`` on ``conn``, opening it first if it is closed, and
        read the reply's status line and headers. A failure before the
        status line is _Unreachable, but for a timeout waiting for it."""
        try:
            if conn.sock is None:
                conn.connect()
                count("opened")
            conn.request("POST", target, data, headers)
        except (OSError, http.client.HTTPException) as exc:
            raise _Unreachable(exc) from exc
        count("sent")
        try:
            if quickack is not None:
                # ACK the reply's first segment at once, so that a server with
                # Nagle on does not hold the rest until the delayed ACK.
                conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
            return conn.getresponse()
        except TimeoutError:
            raise
        except (OSError, http.client.HTTPException) as exc:
            raise _Unreachable(exc) from exc

    def send(data: bytes) -> tuple[int, bytes | None]:
        """One attempt: the reply's status and body, with a None body when
        the status is retryable. Raises _Unreachable, TimeoutError, or
        another OSError or HTTPException from reading the body. Any failure
        closes the worker's connection, so the next request opens a new one
        and never reads what is left of this reply."""
        conn = getattr(held, "conn", None)
        if conn is None:
            conn = held.conn = new_connection()
            with lock:
                connections.append(conn)
        reused = conn.sock is not None
        try:
            try:
                response = exchange(conn, data)
            except _Unreachable:
                if not reused:
                    raise
                # The peer closed the idle connection: send once more on a new one.
                count("reopened")
                conn.close()
                response = exchange(conn, data)
            with response:
                body = response.read()
        except BaseException:
            conn.close()
            raise
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
        for conn in connections:
            conn.close()
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
    and null seconds for a record reused from an earlier run."""
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
