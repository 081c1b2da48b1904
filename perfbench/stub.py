"""Fake completion endpoint, run as its own process by the benchmark.

    python stub.py --data FILE --port N [--latency-ms 10]

FILE is JSON: ``references`` maps "<target name>\t<source segment>" to the
reference translation, and ``fail_first`` lists the keys whose first request
gets HTTP 503, which the runner retries. Replies are a deterministic
perturbation of the reference, followed by the chatml end-of-sequence marker
and trailing chatter, so BLEU, chrF and term accuracy land in a realistic
range and the truncation path runs. Each request sleeps for the fixed
service latency.

Control routes: ``GET /health`` (readiness), ``GET /stats`` (counters since
the last reset) and ``POST /reset``. Counters: completion requests, the
connections that carried them, peak in-flight completion requests, and
per-request service time. Prints ``READY <port>`` once it listens.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EOS = "<|im_end|>"
_PROMPT_TAIL = re.compile(
    r"\n[^\n:]+: (?P<source>[^\n]*)\n(?P<target_name>[^\n:]+):<\|im_end\|>\n<\|im_start\|>assistant\n\Z"
)
_SUBSTITUTES = ["la", "el", "y", "de", "con", "pero", "para", "sin"]
_CHATTER = [
    "\n<|im_start|>user\nThanks, translate another one.",
    "\nI hope this translation helps! Let me know if you need anything else.",
    "\n\nNote: the glossary terms were applied where possible.",
]


def perturb(reference: str, prompt: str) -> str:
    """Deterministic imperfect translation of ``reference`` plus chatter."""
    rng = random.Random(int.from_bytes(hashlib.sha256(prompt.encode("utf-8")).digest()[:8], "big"))
    words = []
    for word in reference.split():
        roll = rng.random()
        if roll < 0.06:
            continue
        if roll < 0.14:
            words.append(rng.choice(_SUBSTITUTES))
            continue
        words.append(word)
        if roll > 0.97:
            words.append(rng.choice(_SUBSTITUTES))
    text = " ".join(words)
    if rng.random() < 0.9:
        return text + EOS + rng.choice(_CHATTER)
    return text + "  \n"


class _Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = 0
        self.connections = 0
        self.inflight = 0
        self.max_inflight = 0
        self.service_s: list[float] = []
        self.failed_once: set[str] = set()
        self.generation = getattr(self, "generation", 0) + 1


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 so a client that reuses connections can: the connection count
    # then shows whether it does.
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def _send(self, status: int, body: dict):
        data = json.dumps(body, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    def do_GET(self):
        stats: _Stats = self.server.stats
        if self.path == "/health":
            self._send(200, {"ok": True})
        elif self.path == "/stats":
            with stats.lock:
                body = {
                    "requests": stats.requests,
                    "connections": stats.connections,
                    "max_inflight": stats.max_inflight,
                    "service_ms_p50": 1000 * statistics.median(stats.service_s) if stats.service_s else 0.0,
                }
            self._send(200, body)
        else:
            self._send(404, {"error": "no such route"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        stats: _Stats = self.server.stats
        if self.path == "/reset":
            with stats.lock:
                stats.reset()
            self._send(200, {"ok": True})
            return
        if self.path != "/completions":
            self._send(404, {"error": "no such route"})
            return
        started = time.perf_counter()
        with stats.lock:
            stats.requests += 1
            if getattr(self, "_counted_in", None) != stats.generation:
                self._counted_in = stats.generation
                stats.connections += 1
            stats.inflight += 1
            stats.max_inflight = max(stats.max_inflight, stats.inflight)
        try:
            self._complete(json.loads(body), stats)
        finally:
            with stats.lock:
                stats.inflight -= 1
                stats.service_s.append(time.perf_counter() - started)

    def _complete(self, payload: dict, stats: _Stats):
        prompt = payload.get("prompt", "")
        server = self.server
        if server.latency_s:
            time.sleep(server.latency_s)
        match = _PROMPT_TAIL.search(prompt)
        key = match and f"{match['target_name']}\t{match['source']}"
        if key in server.fail_first:
            with stats.lock:
                first = key not in stats.failed_once
                stats.failed_once.add(key)
            if first:
                self._send(503, {"error": "overloaded, retry"})
                return
        reference = server.references.get(key) if key else None
        if reference is None:
            self._send(400, {"error": "unknown source segment"})
            return
        self._send(200, {"choices": [{"text": perturb(reference, prompt)}]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="JSON with references and fail_first")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--latency-ms", type=float, default=0.0)
    args = parser.parse_args(argv)
    with open(args.data, encoding="utf-8") as handle:
        data = json.load(handle)
    server = ThreadingHTTPServer(("127.0.0.1", args.port), _Handler)
    server.daemon_threads = True
    server.stats = _Stats()
    server.references = data["references"]
    server.fail_first = frozenset(data["fail_first"])
    server.latency_s = args.latency_ms / 1000
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
