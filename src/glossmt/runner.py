"""Batch client for completion-style JSON-over-HTTP inference endpoints.

The outbound request is ``{model, prompt, top_p, temperature?, max_tokens}``
(temperature included only when set), POSTed to ``endpoint_url`` itself. The
route is worked out once per batch: straight to the endpoint, or through the
proxy that ``http_proxy`` or ``https_proxy`` names and ``no_proxy`` does not
bypass (an ``http`` request with an absolute URI, an ``https`` one through a
CONNECT tunnel, credentials in the proxy URL to the proxy alone). TLS is
verified through the default context, so against the system CA store or
``SSL_CERT_FILE``. The response must be a JSON object carrying the
generated text either as ``{"text": ...}`` or OpenAI-style as
``{"choices": [{"text": ...}]}``. Redirects are not followed: a 3xx reply
is final, like a 404.

HTTP/1.1, spoken here from connect to reply. A connection is a TCP socket
with Nagle's algorithm off. To an https endpoint behind a proxy, it first
carries a CONNECT request (HTTP/1.1, with Host and any
Proxy-Authorization), whose reply must be 2xx. TLS goes through ``ssl``'s
default context with ALPN ``http/1.1``, as ``http.client`` sets it up.
``ssl`` is loaded only for a route with TLS, and ``urllib.request``, which
reads the proxy settings, only when a ``*_proxy`` variable other than
``no_proxy`` is set, or on macOS and Windows. The hosts and ports to dial
and the request's head are worked out once per batch, the head with the
fields ``http.client`` would send: Host, ``Accept-Encoding: identity``,
Content-Length, Content-Type, and Authorization or Proxy-Authorization
where they apply. A target or token that ``http.client`` would refuse, and
a proxy URL whose port is not a number in 0..65535, are a UsageError before
any connection opens. Each request is one send of head and body. Replies
are read here, through one buffered reader per connection: 1xx replies are
skipped; the body is chunked when ``chunked`` is the last transfer coding,
else as long as its one valid Content-Length says, else read to the close
(RFC 9112 §6.3); an HTTP/1.1 reply keeps the connection unless it says
``close``, an HTTP/1.0 one only with ``keep-alive``, and a body read to the
close never does (§9.3). As in ``http.client``, a line may hold 65,536
bytes and a head 100 field lines.

Connections: each of the ``max_concurrent_requests`` worker threads keeps
one connection open across its requests, and closes it when it stops, also
when the batch aborts or raises. No ``Connection: close`` is sent; a reply
that closes the connection makes the next request open a new one.
TCP_QUICKACK is set before each reply is read, where the platform has it: a
server that writes a reply's headers and body in two sends with Nagle on,
as ``http.server`` does, would otherwise hold the body back until the
client's delayed ACK, some 40 ms per request on a kept-alive connection.
Every reply body is read to its end, retryable ones included; a failure
anywhere in an exchange closes its connection, so what is left of a reply
is never read as the next one.

Failure policy: connection errors, timeouts, other request failures (a
body cut off mid-way, a head or body that breaks the framing rules above),
HTTP 429 and 5xx are retried with exponential backoff. A kept-alive
connection that fails, other than by timing out, before a status line
arrives (the peer closed it while idle) is closed and the request is sent
once more on a new connection; that resend is not an attempt. A request
that still fails before any status line arrives, other than by timing out
while waiting for it, marks the endpoint unreachable and aborts the whole
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
import math
import os
import re
import socket
import sys
import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Sequence
from urllib.parse import unquote, urlsplit

from . import _jsonl
from .errors import EndpointError, UsageError

if TYPE_CHECKING:
    from .config import InferenceConfig

log = logging.getLogger(__name__)

TOKEN_ENV_VAR = "GLOSSMT_API_TOKEN"

_RETRYABLE_STATUS = frozenset({429, *range(500, 600)})

# http.client's rules: the characters a request target may not hold, the
# line breaks a header value may not hold (any not followed by a space or
# tab), and the longest line and most field lines a reply's head may have.
_BAD_TARGET = re.compile("[\x00-\x20\x7f]").search
_BAD_FIELD_VALUE = re.compile("\n(?![ \t])|\r(?![ \t\n])").search
_MAX_LINE = 65536
_MAX_FIELDS = 100
_HEX_DIGITS = b"0123456789abcdefABCDEF"
_MAX_REPLY_BODY = 64 * 1024 * 1024  # a longer reply body is a _BadReply

# One encoder for every request body: json.dumps with options makes a new one per call.
_REQUEST_ENCODER = json.JSONEncoder(allow_nan=False)


class GenerationRecord(_jsonl.Frozen):
    """One prompt/output exchange with the settings that produced it.

    ``duration_s`` is wall-clock timing and is serialized only to the
    timing sidecar, never to the records artifact, so record files stay
    byte-identical across reruns. It is None for a record read back from
    the artifact, i.e. one that a re-run of ``translate`` reuses untimed.
    """

    __slots__ = (
        "segment_id", "prompt_text", "raw_output", "model_name", "config", "attempts", "error", "duration_s",
    )

    def __init__(
        self,
        segment_id: str,
        prompt_text: str,
        raw_output: str,
        model_name: str,
        config: dict[str, Any],
        attempts: int,
        error: str | None = None,
        duration_s: float | None = None,
    ):
        self._fill(locals())

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


class _BadReply(Exception):
    """A reply that breaks HTTP/1.1 framing or http.client's limits, or one
    cut off before its end."""


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


def _proxy_for(url) -> str | None:
    """The proxy that ``urllib.request.getproxies()`` names for ``url``'s
    scheme and ``proxy_bypass`` does not bypass, or None. Off macOS and
    Windows, whose system settings ``getproxies()`` also reads, it reads
    only the environment's ``*_proxy`` variables, so unless one of them
    could name a proxy (``no_proxy`` never does), urllib.request is not
    loaded."""
    if sys.platform != "darwin" and os.name != "nt" and not any(
        value and name.lower().endswith("_proxy") and name.lower() != "no_proxy"
        for name, value in os.environ.items()
    ):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(url.scheme)
    return proxy if proxy and not urllib.request.proxy_bypass(url.netloc) else None


def _route(cfg: InferenceConfig, token: str | None):
    """How a batch reaches ``cfg.endpoint_url``, directly or through a proxy
    as the module docstring says: a function that opens a new connection
    and returns its socket, ready for the first request, and the request
    head's bytes before and after its Content-Length value. Raises
    UsageError for a target or token that http.client would refuse to
    send, and for a proxy URL that cannot be parsed or whose port is not a
    number in 0..65535."""
    url = urlsplit(cfg.endpoint_url)
    target = url.path + (f"?{url.query}" if url.query else "") or "/"
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    # Each host and port is split here, once per batch, as http.client splits
    # them: a host keeps its case, an empty port is the scheme's default, and
    # an IPv6 literal's brackets go. The config has checked the endpoint's port.
    tls, tunnel_host = url.scheme == "https", None
    default_port = 443 if tls else 80
    bracketed = url.netloc.rpartition(":")[0] if url.port is not None or url.netloc.endswith(":") else url.netloc
    host = bracketed[1:-1] if bracketed.startswith("[") and bracketed.endswith("]") else bracketed
    port = default_port if url.port is None else url.port
    proxy, proxy_authorization = _proxy_for(url), None
    if proxy:
        try:
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            proxy_port = proxy.port
        except ValueError:
            # Its URL may hold credentials, so the message names the proxy only.
            raise UsageError(f"the {url.scheme} proxy URL has a port outside 0..65535 or cannot be parsed") from None
        if proxy.username and proxy.password:
            import base64

            credentials = f"{unquote(proxy.username)}:{unquote(proxy.password)}".encode()
            proxy_authorization = "Basic " + base64.b64encode(credentials).decode("ascii")
        if tls:
            # Credentials go with the CONNECT only, never to the endpoint.
            tunnel_host, tunnel_port = host, port
        else:
            target, tls = cfg.endpoint_url.partition("#")[0], proxy.scheme == "https"
            if proxy_authorization:
                headers["Proxy-Authorization"] = proxy_authorization
        address = proxy.netloc.rpartition("@")[2]
        if proxy_port is not None or address.endswith(":"):
            address = address.rpartition(":")[0]
        host = unquote(address[1:-1] if address.startswith("[") and address.endswith("]") else address)
        port = (443 if tls else 80) if proxy_port is None else proxy_port

    # Host names the endpoint: its netloc as written when the target is an
    # absolute URI, else without a port that is the scheme's default.
    host_field = url.netloc
    if not target.startswith("http"):
        host_field = bracketed if url.port in (None, default_port) else f"{bracketed}:{url.port}"
    if _BAD_TARGET(target) or not target.isascii():
        raise UsageError("endpoint_url holds a character that a request target cannot carry")
    try:
        host_field = host_field if host_field.isascii() else host_field.encode("idna").decode("ascii")
    except UnicodeError as exc:
        raise UsageError(f"endpoint_url host cannot be encoded: {exc}") from exc
    head = f"POST {target} HTTP/1.1\r\nHost: {host_field}\r\nAccept-Encoding: identity\r\nContent-Length: "
    tail = "".join(f"\r\n{name}: {value}" for name, value in headers.items()) + "\r\n\r\n"
    token_error = UsageError(f"{TOKEN_ENV_VAR} holds a line break or a character outside Latin-1")
    if token and _BAD_FIELD_VALUE(token):
        raise token_error
    try:
        # Only the token can fall outside Latin-1: the other fields are ASCII.
        head, tail = head.encode("ascii"), tail.encode("latin-1")
    except UnicodeEncodeError:
        raise token_error from None

    tunnel = None
    if tunnel_host is not None:
        # CONNECT names the endpoint's host and port in authority form, and
        # so does its Host field (RFC 9110 §9.3.6).
        name = tunnel_host if tunnel_host.isascii() else tunnel_host.encode("idna").decode("ascii")
        authority = f"[{name}]:{tunnel_port}" if ":" in name else f"{name}:{tunnel_port}"
        fields = f"Host: {authority}\r\n"
        if proxy_authorization:
            fields += f"Proxy-Authorization: {proxy_authorization}\r\n"
        tunnel = f"CONNECT {authority} HTTP/1.1\r\n{fields}\r\n".encode("ascii")
    context = None
    if tls:
        import ssl

        # The settings http.client gives an HTTPS connection's default context.
        context = ssl.create_default_context()
        context.set_alpn_protocols(["http/1.1"])
        if context.post_handshake_auth is not None:
            context.post_handshake_auth = True

    # As bytes, an ASCII host skips getaddrinfo's idna codec and its import.
    address = (host.encode() if host.isascii() else host, port)

    def connect() -> socket.socket:
        sock = socket.create_connection(address, cfg.request_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tunnel is not None:
                _open_tunnel(sock, tunnel)
            # TLS verifies the endpoint's name through a tunnel, else the host's.
            return sock if context is None else context.wrap_socket(sock, server_hostname=tunnel_host or host)
        except BaseException:
            sock.close()
            raise

    return connect, head, tail


def _open_tunnel(sock: socket.socket, request: bytes) -> None:
    """Send the CONNECT ``request`` on ``sock`` and read the proxy's reply,
    which must be 2xx; the connection then carries the tunnel."""
    sock.sendall(request)
    with sock.makefile("rb") as reader:
        _, status, reason = _read_status(reader)
        _read_fields(reader)
    if not 200 <= status < 300:
        raise OSError(f"Tunnel connection failed: {status} {reason.strip().decode('latin-1')}")


class _Link:
    """A worker's connection to the endpoint or proxy: the socket that
    ``connect`` opens, and one buffered reader for its replies, made at
    connect and closed with it (the socket's descriptor stays open as long
    as a reader made from it does). ``counts`` tallies the connections it
    opened and reopened and the requests it sent."""

    def __init__(self, connect):
        self._connect = connect
        self.sock = self.reader = None
        self.counts = Counter()

    def open(self) -> None:
        self.sock = self._connect()
        self.reader = self.sock.makefile("rb")
        self.counts["opened"] += 1

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
        if self.sock is not None:
            self.sock.close()
        self.sock = self.reader = None


def _line(reader, part: str) -> bytes:
    """One line of a reply's ``part``, with its line end."""
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BadReply(f"{part}: line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise _BadReply(f"connection closed {'in' if line else 'before'} the {part}")
    return line


def _read_status(reader) -> tuple[bool, int, bytes]:
    """The final reply's status line, past any 1xx reply: whether it is
    HTTP/1.1 (or a later 1.x), its status code and its reason phrase."""
    while True:
        line = _line(reader, "status line")
        version, status, reason = (line.split(None, 2) + [b"", b""])[:3]
        if not (version.startswith(b"HTTP/1.") and len(status) == 3 and status.isdigit() and status >= b"100"):
            raise _BadReply(f"bad status line {line.rstrip().decode('latin-1')[:80]!r}")
        if status >= b"200":
            return version != b"HTTP/1.0", int(status), reason
        _read_fields(reader)  # a 1xx reply is a head alone


def _read_fields(reader) -> dict[bytes, bytes]:
    """A header or trailer section up to its empty line: each field name
    lower-cased, a name's values joined by commas, folded lines unfolded."""
    fields: dict[bytes, bytes] = {}
    name = None
    for _ in range(_MAX_FIELDS + 1):
        line = _line(reader, "header section")
        if line in (b"\r\n", b"\n"):
            return fields
        if line[0] in b" \t" and name is not None:
            fields[name] += b" " + line.strip()
            continue
        name, colon, value = line.partition(b":")
        if not colon:
            raise _BadReply(f"header line without a colon: {line.rstrip().decode('latin-1')[:80]!r}")
        name, value = name.strip().lower(), value.strip()
        fields[name] = fields[name] + b", " + value if name in fields else value
    raise _BadReply(f"more than {_MAX_FIELDS} header fields")


def _read_body(reader, http11: bool, status: int, fields: dict[bytes, bytes]) -> tuple[bytes, bool]:
    """The reply's body, and whether its connection can carry the next
    request: RFC 9112 §6.3 gives the body's length, §9.3 persistence."""
    options = {option.strip() for option in fields.get(b"connection", b"").lower().split(b",")}
    keep = b"close" not in options and (http11 or b"keep-alive" in options)
    if status in (204, 304):
        return b"", keep
    codings = fields.get(b"transfer-encoding")
    if codings is not None:
        if codings.rpartition(b",")[2].strip().lower() == b"chunked":
            return _read_chunked(reader), keep
    elif (length := fields.get(b"content-length")) is not None:
        size, *others = {value.strip() for value in length.split(b",")}
        if others or not size.isdigit():
            raise _BadReply(f"invalid Content-Length {length.decode('latin-1')[:80]!r}")
        # int() refuses a string of 4,301 digits; more digits than the bound has is more bytes.
        size = size.lstrip(b"0") or b"0"
        if len(size) > len(str(_MAX_REPLY_BODY)):
            raise _BadReply(f"reply body larger than {_MAX_REPLY_BODY} bytes")
        return _read_exactly(reader, int(size), _MAX_REPLY_BODY), keep
    body = reader.read(_MAX_REPLY_BODY + 1)  # the body ends where the connection does
    if len(body) > _MAX_REPLY_BODY:
        raise _BadReply(f"reply body larger than {_MAX_REPLY_BODY} bytes")
    return body, False


def _read_chunked(reader) -> bytes:
    """A chunked body (RFC 9112 §7.1); chunk extensions and trailer fields
    are read and dropped."""
    chunks = []
    room = _MAX_REPLY_BODY
    while True:
        size = _line(reader, "chunked body").partition(b";")[0].strip()
        if not size or size.strip(_HEX_DIGITS):
            raise _BadReply(f"invalid chunk size {size.decode('latin-1')[:80]!r}")
        size = int(size, 16)
        if not size:
            _read_fields(reader)
            return b"".join(chunks)
        chunks.append(_read_exactly(reader, size, room))
        room -= size
        if _line(reader, "chunked body") not in (b"\r\n", b"\n"):
            raise _BadReply("chunk data longer than its size")


def _read_exactly(reader, size: int, room: int) -> bytes:
    """``size`` bytes of a body that may hold ``room`` more bytes."""
    if size > room:
        raise _BadReply(f"reply body larger than {_MAX_REPLY_BODY} bytes")
    data = reader.read(size)
    if len(data) < size:
        raise _BadReply(f"body cut off after {len(data)} of {size} bytes")
    return data


def generate_batch(examples: Sequence, cfg: InferenceConfig) -> list[GenerationRecord]:
    """Send one request per test example; results come back in input order
    regardless of completion order or concurrency level.

    ``max_concurrent_requests`` worker threads take the examples in order
    from one shared iterator. A worker that raises, an unreachable
    endpoint, or an interrupt of the calling thread sets ``abort``: no
    worker starts another example, and once the examples in flight are
    done the error is raised."""
    for example in examples:
        if example.mode != "test":
            raise UsageError(
                f"generate_batch takes test prompts only; segment {example.segment_id} is {example.mode}"
            )
    # The route, and so the proxy variables, are read once, at batch start.
    connect, head, tail = _route(cfg, os.environ.get(TOKEN_ENV_VAR))
    quickack = getattr(socket, "TCP_QUICKACK", None)
    snapshot = cfg.snapshot()
    abort = threading.Event()
    lock = threading.Lock()  # guards the shared iterator
    pending = enumerate(examples)
    results: list[GenerationRecord | None] = [None] * len(examples)  # None: not started
    unreachable: list[str] = []  # the segment ids whose last attempt found no endpoint
    raised: list[BaseException] = []

    def exchange(link: _Link, data: bytes) -> tuple[bool, int, bytes]:
        """Send ``data`` on ``link``, opening it first if it is closed, and
        read the final reply's status line. A failure before the status
        line is _Unreachable, but for a timeout waiting for it."""
        try:
            if link.reader is None:
                link.open()
            link.sock.sendall(b"".join((head, b"%d" % len(data), tail, data)))
        except (OSError, _BadReply) as exc:
            raise _Unreachable(exc) from exc
        link.counts["sent"] += 1
        try:
            if quickack is not None:
                # ACK the reply's first segment at once, so that a server with
                # Nagle on does not hold the rest until the delayed ACK.
                link.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
            return _read_status(link.reader)
        except TimeoutError:
            raise
        except (OSError, _BadReply) as exc:
            raise _Unreachable(exc) from exc

    def send(link: _Link, data: bytes) -> tuple[int, bytes | None]:
        """One attempt: the reply's status and body, with a None body when
        the status is retryable. Raises _Unreachable, TimeoutError, or
        another OSError or _BadReply from reading the rest of the reply.
        Any failure closes the link, so the next request opens a new
        connection and never reads what is left of this reply."""
        reused = link.reader is not None
        try:
            try:
                http11, status, _ = exchange(link, data)
            except _Unreachable:
                if not reused:
                    raise
                # The peer closed the idle connection: send once more on a new one.
                link.counts["reopened"] += 1
                link.close()
                http11, status, _ = exchange(link, data)
            fields = _read_fields(link.reader)
            body, keep = _read_body(link.reader, http11, status, fields)
        except BaseException:
            link.close()
            raise
        if not keep:
            link.close()
        return status, None if status in _RETRYABLE_STATUS else body

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

    def generate(link: _Link, example) -> GenerationRecord:
        started = time.monotonic()
        data = _REQUEST_ENCODER.encode(cfg.payload(example.rendered_text)).encode("utf-8")
        attempts = 0
        while True:
            attempts += 1
            failure = status = None
            try:
                status, body = send(link, data)
            except (_Unreachable, _BadReply, OSError) as exc:
                failure = exc
            else:
                if body is not None:
                    text, error = _read_response(status, body)
                    return make_record(example, text, attempts, error, started)
            if attempts <= cfg.max_retries:
                time.sleep(math.ldexp(cfg.retry_backoff, attempts - 1))
                continue
            if isinstance(failure, _Unreachable):
                unreachable.append(example.segment_id)
                abort.set()
                log.error("segment=%s endpoint_unreachable attempts=%d", example.segment_id, attempts)
            return make_record(example, "", attempts, _exhausted_error(failure, status, attempts), started)

    def work(link: _Link) -> None:
        try:
            while not abort.is_set():
                with lock:
                    index, example = next(pending, (None, None))
                if index is None:
                    return
                results[index] = generate(link, example)
        except BaseException as exc:  # raised again by the calling thread
            raised.append(exc)
            abort.set()
        finally:
            link.close()

    links = [_Link(connect) for _ in range(min(cfg.max_concurrent_requests, len(examples)))]
    workers = []
    try:
        for link in links:
            worker = threading.Thread(target=work, args=(link,), name="glossmt-runner")
            worker.start()
            workers.append(worker)
        for worker in workers:
            worker.join()
    except BaseException:
        # An interrupt: the workers finish the examples in flight and stop.
        abort.set()
        for worker in workers:
            worker.join()
        raise
    finally:
        counts = sum((link.counts for link in links), Counter())
        log.info(
            "batch_connections opened=%d reopened=%d requests_sent=%d",
            counts["opened"], counts["reopened"], counts["sent"],
        )
    if raised:
        raise raised[0]

    records = [record for record in results if record is not None]
    if unreachable:
        raise EndpointError(
            f"endpoint {cfg.endpoint_url} unreachable; "
            f"{len(records) - len(unreachable)} of {len(examples)} prompts completed",
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
    return _jsonl.read_records(
        path, lambda record: GenerationRecord(**_jsonl.from_record(record, _RECORD_KEYS)), "segment_id"
    )


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
