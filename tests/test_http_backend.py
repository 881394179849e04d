"""HTTP backend wire-format tests against a local chat-completion stub."""

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from entailqa import llm
from entailqa.errors import BackendError
from entailqa.llm import BackendRequest, HttpBackend


class _Stub:
    def __init__(self, script):
        self.script = list(script)  # (status, content[, headers]) tuples
        self.seen = []

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                stub.seen.append(
                    {
                        "body": json.loads(self.rfile.read(length)),
                        "auth": self.headers.get("Authorization"),
                    }
                )
                status, content, *headers = stub.script.pop(0)
                if status != 200:
                    self.send_response(status)
                    for name, value in (headers[0] if headers else {}).items():
                        self.send_header(name, value)
                    self.end_headers()
                    return
                data = json.dumps(
                    {"choices": [{"message": {"content": content}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat"
        threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_factory():
    stubs = []

    def make(script):
        stub = _Stub(script)
        stubs.append(stub)
        return stub

    yield make
    for stub in stubs:
        stub.close()


def test_request_body_and_auth(stub_factory):
    stub = stub_factory([(200, "fact1 -> answer")])
    backend = HttpBackend(endpoint=stub.url, api_key="sk-test", model="m-1")
    out = backend.complete(BackendRequest(prompt="hello", tag="tree_structure"))
    assert out == "fact1 -> answer"
    body = stub.seen[0]["body"]
    assert body == {
        "model": "m-1",
        "messages": [{"role": "user", "content": "hello"}],
        "temperature": 0.0,
        "max_tokens": 512,
    }
    assert stub.seen[0]["auth"] == "Bearer sk-test"


def test_exchange_log_carries_tag(stub_factory):
    stub = stub_factory([(200, "brown")])
    backend = HttpBackend(endpoint=stub.url, api_key="k")
    backend.complete(BackendRequest(prompt="p", tag="vqa"))
    assert backend.exchange_log == [{"tag": "vqa", "prompt": "p", "response": "brown"}]


def test_retry_on_server_error(stub_factory):
    stub = stub_factory([(500, ""), (200, "ok")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", retry_wait=0.0)
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "ok"
    assert len(stub.seen) == 2


def test_retry_on_rate_limit(stub_factory):
    stub = stub_factory([(429, ""), (200, "ok")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", retry_wait=0.0)
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "ok"
    assert len(stub.seen) == 2


@pytest.fixture
def sleeps(monkeypatch):
    waits = []
    monkeypatch.setattr(llm.time, "sleep", waits.append)
    return waits


@pytest.mark.parametrize("status", [429, 503])
def test_retry_after_zero_means_no_wait(stub_factory, sleeps, status):
    stub = stub_factory([(status, "", {"Retry-After": "0"}), (200, "ok")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", retry_wait=5.0)
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "ok"
    assert sleeps == []


def test_retry_after_replaces_backoff(stub_factory, sleeps):
    stub = stub_factory([(429, "", {"Retry-After": "3"}), (500, ""), (200, "ok")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", retry_wait=0.5)
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "ok"
    assert sleeps == [3.0, 1.0]  # the header, then the linear backoff of attempt 2


def test_huge_retry_after_is_capped_at_timeout(stub_factory, sleeps):
    stub = stub_factory([(503, "", {"Retry-After": "86400"}), (200, "ok")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", timeout=7.0, retry_wait=0.5)
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "ok"
    assert sleeps == [7.0]


@pytest.mark.parametrize(
    "value", ["Wed, 21 Oct 2015 07:28:00 GMT", "soon", "-1", "1.5", ""]
)
def test_unusable_retry_after_falls_back_to_backoff(stub_factory, sleeps, value):
    stub = stub_factory([(429, "", {"Retry-After": value}), (200, "ok")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", retry_wait=0.5)
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "ok"
    assert sleeps == [0.5]


def test_retry_after_on_other_server_errors_is_ignored(stub_factory, sleeps):
    stub = stub_factory([(500, "", {"Retry-After": "3"}), (200, "ok")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", retry_wait=0.5)
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "ok"
    assert sleeps == [0.5]


def test_client_error_is_immediate(stub_factory):
    stub = stub_factory([(403, "")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", retry_wait=0.0)
    with pytest.raises(BackendError):
        backend.complete(BackendRequest(prompt="p", tag="vqa"))
    assert len(stub.seen) == 1


def test_exhausted_retries(stub_factory):
    stub = stub_factory([(500, ""), (500, ""), (500, "")])
    backend = HttpBackend(endpoint=stub.url, api_key="k", max_retries=2, retry_wait=0.0)
    with pytest.raises(BackendError):
        backend.complete(BackendRequest(prompt="p", tag="vqa"))
    assert len(stub.seen) == 3


def test_env_endpoint_required(monkeypatch):
    """No endpoint, or one that is not an http(s) URL, is a backend error."""
    for endpoint in (None, "nope", "ftp://x"):
        if endpoint is None:
            monkeypatch.delenv("ENTAIL_LLM_ENDPOINT", raising=False)
        else:
            monkeypatch.setenv("ENTAIL_LLM_ENDPOINT", endpoint)
        with pytest.raises(BackendError):
            HttpBackend()


def test_env_vars_used(monkeypatch, stub_factory):
    stub = stub_factory([(200, "via-env")])
    monkeypatch.setenv("ENTAIL_LLM_ENDPOINT", stub.url)
    monkeypatch.setenv("ENTAIL_LLM_KEY", "env-key")
    backend = HttpBackend()
    assert backend.complete(BackendRequest(prompt="p", tag="vqa")) == "via-env"
    assert stub.seen[0]["auth"] == "Bearer env-key"


class _RawStub:
    """A loopback server that reads each request whole, answers it with the
    same raw bytes (nothing at all for ``b""``) and closes the connection."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.requests = 0
        self.stop = threading.Event()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)  # so that the loop sees ``stop``
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}/v1/chat"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                head, body = data.split(b"\r\n\r\n", 1)
                length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
                while len(body) < length:
                    body += conn.recv(65536)
                self.requests += 1
                conn.sendall(self.reply)

    def close(self):
        self.stop.set()
        self.thread.join(timeout=5)
        self.sock.close()


def _response(body: bytes, length: int = -1) -> bytes:
    length = len(body) if length < 0 else length
    head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    return head.encode() + body


@pytest.mark.parametrize(
    "reply",
    [
        b"",  # closed before any reply: RemoteDisconnected
        b"garbage\r\n\r\n",  # BadStatusLine
        _response(b'{"choices": [', length=100),  # truncated body
        _response(b"\xff\xfe{}"),  # not UTF-8
        _response(b"null"),
        _response(b"[1]"),
        _response(b'{"choices": "x"}'),
        _response(b'{"choices": [{"message": {"content": 5}}]}'),  # content not a string
    ],
    ids=["disconnect", "status-line", "truncated", "not-utf8", "null", "list", "choices-str", "content-int"],
)
def test_malformed_traffic_is_retried_then_backend_error(reply):
    stub = _RawStub(reply)
    try:
        backend = HttpBackend(endpoint=stub.url, api_key="k", max_retries=1, retry_wait=0.0)
        with pytest.raises(BackendError, match="backend failed after retries"):
            backend.complete(BackendRequest(prompt="p", tag="vqa"))
    finally:
        stub.close()
    assert not stub.thread.is_alive()
    assert stub.requests == 2
    assert backend.exchange_log == []
