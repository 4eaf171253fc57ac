"""Loopback annotation endpoint for the ``remote_annotate`` workload.

Usage: python3 perfbench/stub.py

Serves the provider contract documented in the README on 127.0.0.1: a POST
of ``{"template_id", "context", "label_set"}`` is answered with
``{"label": ...}`` chosen by ``MockProvider``'s rules, after a fixed
service time of SERVICE_S and with at most one request per CPU in service
at once. ``GET /stats`` returns the request and error counts.

Prints ``PORT <n>`` once it listens and exits when its stdin closes.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from polarnet.errors import AnnotationError
from polarnet.providers import AnnotationRequest, MockProvider

# A synthetic assumption: the per-call time of about 3.5 ms that a
# prototype of this workload measured, used here as the service time.
SERVICE_S = 0.0035


def make_handler(service_s: float, slots: threading.BoundedSemaphore):
    counts = {"requests": 0, "errors": 0}
    lock = threading.Lock()
    mock = MockProvider()

    class Handler(BaseHTTPRequestHandler):
        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            with slots:
                started = time.perf_counter()
                with lock:
                    counts["requests"] += 1
                try:
                    raw = self.rfile.read(int(self.headers["Content-Length"]))
                    req = json.loads(raw)
                    label = mock.annotate(AnnotationRequest(
                        req["template_id"], req["context"], tuple(req["label_set"])
                    ))
                except (KeyError, TypeError, ValueError, AnnotationError) as exc:
                    with lock:
                        counts["errors"] += 1
                    self._reply(400, {"error": str(exc)})
                    return
                time.sleep(max(0.0, started + service_s - time.perf_counter()))
                self._reply(200, {"label": label})

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, {"error": "not found"})
                return
            with lock:
                snapshot = dict(counts)
            self._reply(200, snapshot)

        def log_message(self, format, *args):  # keep stderr quiet
            pass

    return Handler


def main() -> None:
    slots = threading.BoundedSemaphore(os.cpu_count() or 1)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(SERVICE_S, slots))
    server.daemon_threads = True

    def stop_on_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
