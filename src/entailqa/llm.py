"""Uniform backend interface for every generative call, plus prompt templates.

Every call builds a prompt from a named template, sends it as one
``BackendRequest`` to the backend through ``_call``, and runs the response
through exactly one parser with a one-retry policy. Two backends ship:

* ``MockBackend`` — deterministic, offline; its behaviors are part of the test
  contract (see the class docstring).
* ``HttpBackend`` — chat-completion-style JSON over HTTP, endpoint and key
  from ``ENTAIL_LLM_ENDPOINT`` / ``ENTAIL_LLM_KEY``. It imports the HTTP
  client (``urllib.request``, which pulls in ``ssl``, ``email`` and the
  OpenSSL libraries) when it is built, so a mock run never loads it.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Optional, Protocol

from .dataset import RunConfig
from .errors import BackendError, EmptyDecomposition, ParseError, TreeError, UnknownFactId
from .facts import IMAGE, TABLE, TEXT, Evidence, FactBase, lookup_text, tokenize
from .tree import EntailmentTree, parse_node_id, parse_tree

FEEDBACK_WORD_BUDGET = 200

# --- prompt templates ---------------------------------------------------------

_ANSWER_EACH = (  # the reply and block of the three answer templates
    "Reply with a numbered list only, one answer per question, in the order of the questions.\n\n"
    "questions:\n{questions_block}"
)

TEMPLATES: dict[str, str] = {
    "decompose_question": (
        "You are given a multi-hop question and a list of evidence items.\n"
        "Decompose the question into one sub-question per evidence item that helps answer it.\n"
        "Reply with a numbered list only; end every line with the evidence id in square brackets.\n\n"
        "question: {question}\n"
        "evidence:\n{evidence_block}"
    ),
    "decompose_atomic": (
        "Split each sub-question about an image into atomic questions, each answerable\n"
        "from its image alone. Each item is a JSON array: the sub-question, then the image caption.\n"
        "Reply with a numbered list only, one JSON array of atomic questions per item, in order.\n\n"
        "sub-questions:\n{sub-questions_block}"
    ),
    "vqa": (
        "Answer each question about an image in as few words as possible.\n"
        "Each question is a JSON array: the question, then the image caption.\n" + _ANSWER_EACH
    ),
    "table_qa": (
        "Answer each question using only the table rows given with it.\n"
        "Each question is a JSON array: the question, then one sentence per table row.\n"
        + _ANSWER_EACH
    ),
    "text_qa": (
        "Answer each question using only the passage given with it, in a few words.\n"
        "Each question is a JSON array: the question, then the passage.\n" + _ANSWER_EACH
    ),
    "refine_fact": (
        "Rewrite each question and its answer as one short declarative sentence.\n"
        "Each pair is a JSON array: the question, then its answer.\n"
        "Reply with a numbered list only, one sentence per pair, in the order of the pairs.\n\n"
        "pairs:\n{pairs_block}"
    ),
    "tree_structure": (
        "Build an entailment tree that explains the hypothesis from the numbered facts.\n"
        "Use the fact ids as leaves, int1, int2, ... for intermediate conclusions, and\n"
        'the literal answer placeholder as the root. Write steps as "fact1 & fact2 -> int1"\n'
        'separated by "; ", ending with one step that concludes answer.\n\n'
        "question id: {question_id}\n"
        "hypothesis: {hypothesis}\n"
        "facts:\n{facts_block}"
    ),
    "feedback": (
        "Given the following potentially relevant facts and the potentially correct "
        "answer, please generate entailment tree in {n} words. "
        "Facts:{f}  Answer:{a}  Question:{q}\n\n"
    ),
    "intermediate_infer": (
        "State the conclusion of each numbered step as one short sentence. A step's premises\n"
        "are a JSON array: a string is a premise text, a number N the conclusion of step N.\n"
        "Reply with a numbered list only, one conclusion per step, in the order of the steps.\n\n"
        "steps:\n{steps_block}"
    ),
}


def render(name: str, **slots: str | list[str]) -> str:
    """Fill the named template, each slot on one line.

    Every whitespace run in a slot, newlines included, becomes one space. A
    slot whose name ends in ``_block`` takes a list and puts each item, so
    one-lined, on a line of its own. An unbound slot, a ``str`` given to a
    block slot or an empty result is a ValueError.
    """
    lined = {}
    for key, value in slots.items():
        if not key.endswith("_block"):
            lined[key] = _one_line(value)
        elif isinstance(value, str):
            raise ValueError(f"slot {key} of template {name} takes a list, not a str")
        else:
            lined[key] = "\n".join(_one_line(item) for item in value)
    try:
        text = TEMPLATES[name].format(**lined)
    except (KeyError, IndexError) as exc:
        raise ValueError(f"unbound slot in template {name}: {exc}") from exc
    if not text.strip():
        raise ValueError(f"template {name} rendered empty")
    return text


def _one_line(text: str) -> str:
    return " ".join(text.split())


@dataclass(frozen=True)
class BackendRequest:
    prompt: str
    tag: str = ""


@dataclass(frozen=True)
class SubQuestion:
    question: str
    evidence_id: str


class Backend(Protocol):
    def complete(self, request: BackendRequest) -> str: ...


# --- deterministic mock backend --------------------------------------------------

_STOPWORDS = {
    "a", "an", "the", "of", "is", "are", "was", "were", "to", "in", "on",
    "and", "or", "for", "what", "which", "who", "whose", "where", "when",
    "how", "does", "did", "do", "say", "about", "it", "its",
}
_COLORS = {
    "black", "white", "brown", "red", "blue", "green", "gray", "grey",
    "yellow", "orange", "purple", "pink", "silver", "gold", "crimson",
}
_NUMBERED_LINE = re.compile(r"^\s*\d+[.)]\s*(?P<body>.+?)\s*$")
_TAGGED_ITEM = re.compile(r"^(?P<q>.+?)\s*\[(?P<eid>[^\]]+)\]$")
_FEEDBACK_IDS = re.compile(r"Facts:(?P<ids>.*?)  Answer:")
_ROW_PREFIX = re.compile(r"^row \S+'s ")
_ROW_TEXT = r'"(?:[^"\\]|\\.)*"|.*?'  # a JSON string, else the shortest text
_ROW_CELL = re.compile(rf"(?P<col>{_ROW_TEXT}) is (?P<cell>{_ROW_TEXT})(?:, |\Z)")
_WH_OF = re.compile(
    r"(?:what|which|who|whose|where|when|how)\s+(.+?)\s+(?:is|are|was|were)\s+(.+)$",
    re.IGNORECASE,
)
_WH_IS = re.compile(r"(?:what|who|where|when)\s+(?:is|are|was|were)\s+(.+)$", re.IGNORECASE)


def _content_words(text: str) -> list[str]:
    return [w for w in tokenize(text) if w not in _STOPWORDS]


def _field_line(prompt: str, label: str) -> str:
    for line in prompt.splitlines():
        if line.startswith(label + ":"):
            return line[len(label) + 1:].strip()
    raise BackendError(f"mock could not find '{label}:' in prompt")


def _block(prompt: str, label: str) -> list[str]:
    """The non-empty lines after the line ``label:``, which ends the prompt."""
    lines = prompt.splitlines()
    if label + ":" not in lines:
        raise BackendError(f"mock could not find block '{label}:' in prompt")
    return [line for line in lines[lines.index(label + ":") + 1:] if line.strip()]


def _row_cells(row: str) -> list[tuple[str, str]]:
    """The (column, cell) pairs of a ``linearize_table`` sentence."""
    body = _ROW_PREFIX.sub("", row, count=1).removesuffix(".")
    return [(_unquoted(m["col"]), _unquoted(m["cell"])) for m in _ROW_CELL.finditer(body)]


def _unquoted(text: str) -> str:
    return json.loads(text) if text.startswith('"') else text


def _restate(question: str, answer: str) -> str:
    """The mock's declarative restatement of one (question, answer) pair."""
    question = question.rstrip("?").strip()
    m = _WH_OF.match(question)
    if m:
        return f"the {m.group(1)} of {m.group(2)} is {answer}."
    m = _WH_IS.match(question)
    if m:
        return f"{m.group(1)} is {answer}."
    return f'the answer to "{question}" is {answer}.'


def _answer_image(question: str, caption: str) -> str:
    q_words, c_words = set(tokenize(question)), tokenize(caption)
    if not q_words & set(c_words):
        return "unknown"
    picks = [w for w in c_words if {"color", "colour"} & q_words and w in _COLORS]
    picks += [w for w in c_words if {"many", "number"} & q_words and w.isdigit()]
    picks += [w for w in c_words if w not in q_words and w not in _STOPWORDS]
    return picks[0] if picks else "unknown"


def _answer_table(question: str, rows: list[str]) -> str:
    q_words = set(tokenize(question))
    best = max(rows, key=lambda r: len(q_words & set(tokenize(r))))  # the first of a tie
    for col, value in _row_cells(best):
        named = set(tokenize(col))
        if named and named <= q_words and not set(tokenize(value)) <= q_words:
            return _one_line(value)  # a quoted cell may hold a line break
    return "unknown"


def _answer_text(question: str, passage: str) -> str:
    sentences = [s.strip() for s in passage.split(". ") if s.strip()]
    q_words = set(tokenize(question))
    best = max(sentences, key=lambda s: len(q_words & set(tokenize(s))))
    answer = [w for w in _content_words(best) if w not in q_words][:4]
    return " ".join(answer) if answer else "unknown"


def _json_rows(prompt: str, label: str, fits) -> list[list]:
    """The JSON array on each ``N. <array>`` line of block ``label``; an array
    that is empty or that ``fits(row, earlier rows)`` rejects is an error."""
    rows: list[list] = []
    for line in _block(prompt, label):
        try:
            row = json.loads(line.partition(". ")[2])
        except ValueError:
            row = None
        if not (isinstance(row, list) and row and fits(row, len(rows))):
            raise BackendError(f"mock could not read the {label} line {line!r}")
        rows.append(row)
    return rows


def _is_pair(row: list, earlier: int) -> bool:
    return len(row) == 2 and _is_table_row(row, earlier)


def _is_table_row(row: list, earlier: int) -> bool:
    return len(row) >= 2 and all(isinstance(text, str) for text in row)


def _is_step(row: list, earlier: int) -> bool:
    return all(isinstance(p, str) or (type(p) is int and 0 < p <= earlier) for p in row)


def _numbered(items) -> str:
    return "\n".join(f"{i}. {item}" for i, item in enumerate(items, start=1))


def _fact_ids(prompt: str) -> list[str]:
    return [line.split(": ", 1)[0] for line in _block(prompt, "facts")]


class MockBackend:
    """Deterministic offline stand-in for every generative call.

    Behaviors, all pure functions of the prompt:

    * decompose_question — one sub-question per listed evidence item:
      ``what does <id> say about <first content words of the question>?``
    * decompose_atomic — splits each row's sub-question on `` and ``, one
      JSON array of the parts a row.
    * vqa, table_qa, text_qa — one answer a ``["<question>", <context>...]``
      row, the context a caption, row sentences or a passage:
    * vqa — no shared word between question and caption gives "unknown";
      a "color" cue picks the first color word in the caption; a "many" or
      "number" cue picks the first all-digit caption word; otherwise (or when
      the cued word is absent) the first caption content word absent from
      the question.
    * table_qa — picks the row sentence with the largest word overlap, then
      answers with the cell of a column named in the question whose value is
      not already part of the question; no such column gives "unknown". A
      name or cell in double quotes is read as a JSON string.
    * text_qa — best-overlap passage sentence, answer = its first content
      words (up to four) that are absent from the question, else "unknown".
    * refine_fact — restates each numbered ``["<question>", "<answer>"]``
      pair declaratively, one numbered line per pair, e.g.
      ("what color is the horse", "brown") -> "the color of the horse is brown."
    * tree_structure — a scripted tree per question id when configured, else
      a right-leaning chain over all facts.
    * feedback — a chain over exactly the fact ids named on the feedback
      line (``Facts:fact2; fact5``), in the order of the facts block.
    * intermediate_infer — joins each step's premises with "; therefore ",
      a number N standing for step N's conclusion.

    A row that is not a JSON array of its tag's items is a ``BackendError``.
    """

    def __init__(self, scripted_trees: Optional[dict[str, str]] = None):
        self.scripted_trees = dict(scripted_trees or {})

    def complete(self, request: BackendRequest) -> str:
        handler = getattr(self, f"_do_{request.tag}", None)
        if handler is None:
            raise BackendError(f"mock has no handler for tag {request.tag!r}")
        return handler(request.prompt)

    # -- handlers, one per template tag ---------------------------------------

    def _do_decompose_question(self, prompt: str) -> str:
        question = _field_line(prompt, "question")
        keywords = " ".join(_content_words(question)[:4]) or "it"
        eids = [line.split(" ", 1)[0] for line in _block(prompt, "evidence")]
        return _numbered(f"what does {eid} say about {keywords}? [{eid}]" for eid in eids)

    def _do_decompose_atomic(self, prompt: str) -> str:
        splits = (re.split(r"\band\b", sub.rstrip("?"))
                  for sub, _ in _json_rows(prompt, "sub-questions", _is_pair))
        return _numbered(json.dumps([f"{p.strip()}?" for p in ps if p.strip()]) for ps in splits)

    def _do_vqa(self, prompt: str) -> str:
        return _numbered(_answer_image(*row) for row in _json_rows(prompt, "questions", _is_pair))

    def _do_table_qa(self, prompt: str) -> str:
        rows = _json_rows(prompt, "questions", _is_table_row)
        return _numbered(_answer_table(question, table) for question, *table in rows)

    def _do_text_qa(self, prompt: str) -> str:
        return _numbered(_answer_text(*row) for row in _json_rows(prompt, "questions", _is_pair))

    def _do_refine_fact(self, prompt: str) -> str:
        return _numbered(_restate(*pair) for pair in _json_rows(prompt, "pairs", _is_pair))

    def _do_tree_structure(self, prompt: str) -> str:
        try:
            question_id = _field_line(prompt, "question id")
        except BackendError:
            question_id = ""
        if question_id in self.scripted_trees:
            return self.scripted_trees[question_id]
        return self._chain(_fact_ids(prompt))

    def _do_feedback(self, prompt: str) -> str:
        ids = _fact_ids(prompt)
        line = _FEEDBACK_IDS.search(prompt)
        if line is None:
            raise BackendError("mock could not find 'Facts:' in prompt")
        fed_back = set(line.group("ids").split("; "))
        return self._chain([fid for fid in ids if fid in fed_back])

    @staticmethod
    def _chain(ids: list[str]) -> str:
        if not ids:
            raise BackendError("mock cannot build a tree from zero facts")
        if len(ids) == 1:
            return f"{ids[0]} -> answer"
        steps = []
        prev = ids[0]
        for i, fid in enumerate(ids[1:], start=1):
            conclusion = "answer" if i == len(ids) - 1 else f"int{i}"
            steps.append(f"{prev} & {fid} -> {conclusion}")
            prev = f"int{i}"
        return "; ".join(steps)

    def _do_intermediate_infer(self, prompt: str) -> str:
        conclusions: list[str] = []
        for premises in _json_rows(prompt, "steps", _is_step):
            conclusions.append("; therefore ".join(
                p if isinstance(p, str) else conclusions[p - 1] for p in premises
            ))
        return _numbered(conclusions)


# --- HTTP backend ------------------------------------------------------------------

_MAX_REPLY_BYTES = 1 << 20  # a 512-token reply is a few KB


class HttpBackend:
    """Chat-completion-style HTTP backend.

    POSTs ``{"model", "messages", "temperature": 0.0, "max_tokens": 512}``
    with a bearer key and reads the string ``choices[0].message.content``.
    Retries server errors, 429 (rate limited), transport faults and malformed
    replies (a body longer than ``_MAX_REPLY_BYTES``, 1 MiB, is one) up to
    ``max_retries`` times, waiting ``retry_wait`` times the attempt number,
    or what a 429/503 response's delta-seconds ``Retry-After`` asks for,
    capped at ``timeout``, then raises ``BackendError``. Every
    request/response pair is appended to ``exchange_log`` tagged with the
    template name. Construction raises ``BackendError``, before any request,
    for an endpoint that is not an http(s) URL with a host and a valid port
    or that holds a user name or password, and for a key that is not
    printable ASCII; no message shows the endpoint or the key.
    """

    def __init__(
        self,
        endpoint: Optional[str] = None,
        api_key: Optional[str] = None,
        model: str = RunConfig.http_model,
        timeout: float = RunConfig.http_timeout,
        max_retries: int = RunConfig.http_max_retries,
        retry_wait: float = 1.0,
    ):
        self.endpoint = endpoint or os.environ.get("ENTAIL_LLM_ENDPOINT", "")
        self.api_key = api_key or os.environ.get("ENTAIL_LLM_KEY", "")
        if not self.endpoint:
            raise BackendError("no endpoint: set ENTAIL_LLM_ENDPOINT or pass one")
        # no message shows the endpoint (or urlsplit's error, which may quote
        # it): its userinfo would hold a password
        try:
            parts = urllib.parse.urlsplit(self.endpoint)
            host, _ = parts.hostname, parts.port  # ``port`` raises on a bad port
        except ValueError:  # unbalanced IPv6 brackets, a bad port
            parts = host = None
        if parts is None or parts.scheme not in ("http", "https") or not host:
            raise BackendError(
                "ENTAIL_LLM_ENDPOINT (or endpoint) is not an http(s) URL with a host "
                "and a port in 0-65535"
            )
        if "@" in parts.netloc:  # urllib would take "user:pw@host" for the host
            raise BackendError(
                "ENTAIL_LLM_ENDPOINT (or endpoint) holds a user name or password; "
                "pass the key as ENTAIL_LLM_KEY (or api_key)"
            )
        if not (self.api_key.isascii() and self.api_key.isprintable()):
            # no header can carry it; the message must not echo the key
            raise BackendError("ENTAIL_LLM_KEY (or api_key) is not printable ASCII")
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_wait = retry_wait
        self.exchange_log: list[dict] = []
        self._log_lock = threading.Lock()
        self._client, self._error, self._request = _http_modules()

    def complete(self, request: BackendRequest) -> str:
        body = json.dumps(
            {
                "model": self.model,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": 0.0,
                "max_tokens": 512,
            }
        ).encode("utf-8")
        req = self._request.Request(
            self.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self.api_key}",
            },
            method="POST",
        )
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            wait = self.retry_wait * (attempt + 1)
            deadline = time.monotonic() + self.timeout
            try:
                with self._request.urlopen(req, timeout=self.timeout) as resp:
                    raw = self._body(resp, deadline)
                payload = json.loads(raw.decode("utf-8"))
                text = payload["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}, not a string")
                with self._log_lock:
                    self.exchange_log.append(
                        {"tag": request.tag, "prompt": request.prompt, "response": text}
                    )
                return text
            except self._error.HTTPError as exc:
                exc.close()  # the error holds the response's socket
                if exc.code < 500 and exc.code != 429:
                    raise BackendError(f"HTTP {exc.code} from backend") from exc
                last_error = exc
                after = _retry_after(exc) if exc.code in (429, 503) else None
                if after is not None:
                    wait = min(after, self.timeout)
            except (OSError, self._client.HTTPException, ValueError, LookupError,
                    TypeError, RecursionError) as exc:  # transport, encoding or reply shape
                last_error = exc
            if attempt < self.max_retries and wait:
                time.sleep(wait)
        raise BackendError(f"backend failed after retries: {last_error}") from last_error

    def _body(self, resp, deadline: float) -> bytes:
        """The body, read in chunks, each with the time left to ``deadline``."""
        sock, raw = resp.fp.raw._sock, bytearray()  # no public handle on the socket
        while resp.length != 0:  # None: no Content-Length, read to the end
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"reply not read within {self.timeout} s")
            sock.settimeout(left)
            chunk = resp.read1(_MAX_REPLY_BYTES + 1 - len(raw))
            if not chunk:
                break
            raw += chunk
            if len(raw) > _MAX_REPLY_BYTES:
                raise ValueError(f"reply longer than {_MAX_REPLY_BYTES} bytes")
        if resp.length:  # the body ended before its Content-Length
            raise self._client.IncompleteRead(bytes(raw), resp.length)
        return bytes(raw)


def _http_modules():
    """``http.client``, ``urllib.error`` and ``urllib.request``, imported by
    the ``HttpBackend`` being built rather than with this module: they pull in
    ``ssl``, ``email`` and the OpenSSL libraries, which only this backend uses."""
    import http.client
    import urllib.error
    import urllib.request

    return http.client, urllib.error, urllib.request


def _retry_after(exc: urllib.error.HTTPError) -> Optional[float]:
    """Seconds a delta-seconds ``Retry-After`` header asks for; ``None`` for an
    HTTP-date, an unparseable value or no header."""
    value = (exc.headers.get("Retry-After") or "").strip() if exc.headers else ""
    return float(value) if value.isascii() and value.isdigit() else None


# --- shared call/parse plumbing ----------------------------------------------------

# What a parser raises for a response worth asking for once more; an
# EmptyDecomposition is a well-formed answer and is not retried.
_RETRIED = (ParseError, TreeError, UnknownFactId)


def _call(backend: Backend, tag: str, prompt: str, parser):
    """Send, parse; one retry on a parse failure, then the parser's error."""
    request = BackendRequest(prompt=prompt, tag=tag)
    try:
        return parser(backend.complete(request))
    except _RETRIED:
        return parser(backend.complete(request))


def _parse_numbered(response: str) -> list[str]:
    items = [m.group("body") for m in map(_NUMBERED_LINE.match, response.splitlines()) if m]
    if not items:
        raise ParseError(f"no numbered list in response: {response!r}")
    return items


def _parse_short(response: str) -> str:
    text = response.strip()
    if not text:
        raise ParseError("empty response")
    return text


# --- gateway operations -------------------------------------------------------------


def decompose_question(
    backend: Backend, question: str, evidence_list: list[Evidence]
) -> tuple[SubQuestion, ...]:
    """One sub-question per evidence item, parsed from a numbered list."""
    if not evidence_list:
        raise ValueError("evidence_list is empty")
    known_ids = {ev.id for ev in evidence_list}
    block = [f"{ev.id} ({ev.modality}): {ev.retrieval_text()}" for ev in evidence_list]

    def parser(response: str) -> tuple[SubQuestion, ...]:
        pairs = []
        for item in _parse_numbered(response):
            m = _TAGGED_ITEM.match(item)
            if m is None:
                raise ParseError(f"line lacks an [evidence id] tag: {item!r}")
            if m.group("eid") in known_ids:
                pairs.append(SubQuestion(m.group("q"), m.group("eid")))
        if not pairs:
            raise EmptyDecomposition("no sub-question referenced known evidence")
        return tuple(pairs)

    prompt = render("decompose_question", question=question, evidence_block=block)
    return _call(backend, "decompose_question", prompt, parser)


def decompose_atomic(backend: Backend, subs: list[tuple[str, Evidence]]) -> list[list[str]]:
    """Each (sub-question, image) pair's atomic questions, in order, from one
    call; a reply line not a JSON array of questions is a ParseError."""
    if not subs or not all(ev.modality == IMAGE and sub.strip() for sub, ev in subs):
        raise ValueError("decompose_atomic needs image sub-questions")
    rows = [(sub, *ev.answer_texts()) for sub, ev in subs]
    return _ask_each(backend, "decompose_atomic", "sub-questions", rows, "lines", _atomic)


def _atomic(line: str) -> list[str]:
    try:
        questions = json.loads(line)
    except (ValueError, RecursionError):
        questions = None
    if isinstance(questions, list) and questions and all(
        isinstance(q, str) and q.strip() for q in questions
    ):
        return questions
    raise ParseError(f"not a JSON array of atomic questions: {line!r}")


_ANSWER_TAGS = {IMAGE: "vqa", TABLE: "table_qa", TEXT: "text_qa"}


def answer_questions(backend: Backend, questions: list[tuple[str, Evidence]]) -> list[str]:
    """One answer per (question, evidence) pair, in order, from one call per
    modality present; a pair's row is its question, then ``answer_texts()``."""
    rows = [(question, *ev.answer_texts()) for question, ev in questions]
    if not rows or not all(text.strip() for row in rows for text in row):
        raise ValueError("answer_questions needs questions and evidence texts")
    answers: dict[int, str] = {}
    for modality, tag in _ANSWER_TAGS.items():
        asked = [i for i, (_, ev) in enumerate(questions) if ev.modality == modality]
        if asked:
            found = _ask_each(backend, tag, "questions", [rows[i] for i in asked], "answers")
            answers.update(zip(asked, found))
    return [answers[i] for i in range(len(rows))]


def refine_to_facts(backend: Backend, pairs: list[tuple[str, str]]) -> list[str]:
    """One declarative fact per (question, answer) pair, in order, from one
    call. Each pair goes as a line ``N. ["<question>", "<answer>"]``. A reply
    that does not number one fact per pair is a ``ParseError``."""
    if not pairs or not all(question.strip() and answer.strip() for question, answer in pairs):
        raise ValueError("refine_to_facts needs pairs, each with a question and an answer")
    return _ask_each(backend, "refine_fact", "pairs", pairs, "facts")


def generate_tree_structure(
    backend: Backend,
    question: str,
    fact_base: FactBase,
    feedback: Optional[tuple[list[str], str]] = None,
) -> EntailmentTree:
    """Structure-only tree whose leaves are all in the fact base.

    ``feedback`` is (retrieved fact ids, predicted answer); it prefixes the
    prompt with the feedback template, which names the facts by id
    (``Facts:fact2; fact5``) for the facts block below it to resolve, and
    tags the request ``feedback``. An id outside the fact base raises
    ``UnknownFactId``, a malformed one ``TreeSyntaxError``, before any call.
    """
    if not len(fact_base):
        raise ValueError("fact base is empty")
    facts_block = [f"{fact.id.render()}: {fact.text}" for fact in fact_base.facts]
    prompt = render(
        "tree_structure",
        question_id=fact_base.question_id,
        hypothesis=question,
        facts_block=facts_block,
    )
    tag = "tree_structure"
    if feedback is not None:
        fact_ids, answer = feedback
        named = [parse_node_id(fid) for fid in fact_ids]
        for node in named:
            lookup_text(fact_base, node)
        prompt = render(
            "feedback",
            n=str(FEEDBACK_WORD_BUDGET),
            f="; ".join(map(str, named)),
            a=answer,
            q=question,
        ) + prompt
        tag = "feedback"

    def parser(response: str) -> EntailmentTree:
        tree = parse_tree(_parse_short(response), hypothesis=question)
        for leaf in tree.leaves:
            lookup_text(fact_base, leaf)
        return tree

    return _call(backend, tag, prompt, parser)


def infer_conclusions(backend: Backend, steps: list[tuple[str | int, ...]]) -> list[str]:
    """One conclusion per step, in order, from one call. A premise is a text
    or the number N of an earlier step, for its conclusion; each step goes as
    a line ``N. [<premise>, ...]``. A reply with another count is a ParseError."""
    if not steps or not all(
        step and all(isinstance(p, str) or 0 < p < i for p in step)
        for i, step in enumerate(steps, start=1)
    ):
        raise ValueError("every step needs premises: texts or earlier steps")
    return _ask_each(backend, "intermediate_infer", "steps", steps, "conclusions")


def _ask_each(backend: Backend, tag: str, label: str, rows: list, answers: str, read=str) -> list:
    """One numbered answer per row, in order, each through ``read``, from one
    ``tag`` call. Row N goes in block ``label`` as the line ``N. <JSON array>``,
    its texts one-lined; another count of answers is a ParseError."""
    lines = ([_one_line(x) if isinstance(x, str) else x for x in row] for row in rows)
    block = [f"{i}. {json.dumps(line, ensure_ascii=False)}" for i, line in enumerate(lines, 1)]
    prompt = render(tag, **{f"{label}_block": block})

    def parser(response: str) -> list:
        found = _parse_numbered(response)
        if len(found) != len(rows):
            raise ParseError(f"{len(found)} {answers} for {len(rows)} {label}: {response!r}")
        return [read(answer) for answer in found]

    return _call(backend, tag, prompt, parser)
