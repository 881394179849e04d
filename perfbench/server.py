"""Loopback stand-in for a chat-completion endpoint.

It answers ``POST`` requests in the shape ``HttpBackend`` sends with
``MockBackend``'s reply, after a fixed service delay of ``SERVICE_DELAY_S``,
and counts them; ``GET /stats`` returns ``{"served", "max_active"}``, the
latter being the most requests it has had in progress at once. It runs as
its own process so that it does not share the client's interpreter lock.

    python3 perfbench/server.py

prints the port it bound on 127.0.0.1 as its first line, then serves until
it is terminated.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entailqa.errors import BackendError  # noqa: E402
from entailqa.llm import TEMPLATES, BackendRequest, MockBackend  # noqa: E402

SERVICE_DELAY_S = 0.010  # fixed per-request service time


def template_openings() -> list[tuple[str, str]]:
    """(fixed opening text, tag) per template, longest first.

    ``HttpBackend`` sends no tag, so the tag is recovered from the prompt's
    first line up to its first slot. A feedback prompt is the feedback
    template followed by the tree-structure template, so it opens with the
    feedback text.
    """
    openings = [
        (template.split("\n", 1)[0].split("{", 1)[0], tag)
        for tag, template in TEMPLATES.items()
    ]
    return sorted(openings, key=lambda pair: -len(pair[0]))


class _Counts:
    def __init__(self):
        self.lock = threading.Lock()
        self.served = 0
        self.active = 0
        self.max_active = 0


def make_server() -> ThreadingHTTPServer:
    backend = MockBackend()
    openings = template_openings()
    counts = _Counts()

    class Handler(BaseHTTPRequestHandler):
        def _reply(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 (http.server naming)
            with counts.lock:
                stats = {"served": counts.served, "max_active": counts.max_active}
            self._reply(200, stats)

        def do_POST(self):  # noqa: N802
            length = int(self.headers.get("Content-Length", 0))
            prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
            tag = next((t for opening, t in openings if prompt.startswith(opening)), "")
            with counts.lock:
                counts.active += 1
                counts.max_active = max(counts.max_active, counts.active)
            try:
                time.sleep(SERVICE_DELAY_S)
                text = backend.complete(BackendRequest(prompt=prompt, tag=tag))
            except BackendError as exc:  # an unanswerable prompt; the client fails it
                self._reply(400, {"error": str(exc)})
                return
            else:
                with counts.lock:
                    counts.served += 1
            finally:
                with counts.lock:
                    counts.active -= 1
            self._reply(200, {"choices": [{"message": {"content": text}}]})

        def log_message(self, format, *args):  # noqa: A002 (quiet per-request log)
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> None:
    server = make_server()
    sys.stdout.write(f"{server.server_address[1]}\n")
    sys.stdout.flush()
    server.serve_forever()


if __name__ == "__main__":
    main()
