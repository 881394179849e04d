"""Uniform backend interface for every generative call, plus prompt templates.

All operations build a prompt from a named template, send a single
``BackendRequest`` to the backend through ``_call``, and run the response
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
from .facts import IMAGE, Evidence, FactBase, lookup_text, tokenize
from .tree import EntailmentTree, parse_node_id, parse_tree

FEEDBACK_WORD_BUDGET = 200

# --- prompt templates ---------------------------------------------------------

TEMPLATES: dict[str, str] = {
    "decompose_question": (
        "You are given a multi-hop question and a list of evidence items.\n"
        "Decompose the question into one sub-question per evidence item that helps answer it.\n"
        "Reply with a numbered list only; end every line with the evidence id in square brackets.\n\n"
        "question: {question}\n"
        "evidence:\n{evidence_block}"
    ),
    "decompose_atomic": (
        "Split the sub-question about an image into atomic questions, each answerable\n"
        "from the image alone. Reply with a numbered list only.\n\n"
        "sub-question: {sub_question}\n"
        "image {evidence_id}: {caption}"
    ),
    "vqa": (
        "Answer the question about the image in as few words as possible.\n\n"
        "question: {question}\n"
        "image caption: {caption}"
    ),
    "table_qa": (
        "Answer the question using only the table rows below. Reply with the answer only.\n\n"
        "question: {question}\n"
        "rows:\n{rows_block}"
    ),
    "text_qa": (
        "Answer the question using only the passage. Reply with a short answer.\n\n"
        "question: {question}\n"
        "passage: {passage}"
    ),
    "refine_fact": (
        "Rewrite the question and its answer as one short declarative sentence.\n\n"
        "question: {question}\n"
        "answer: {answer}"
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
        "State the single conclusion that follows from the premises, as one short sentence.\n\n"
        "premises:\n{premises_block}"
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


def _fact_ids(prompt: str) -> list[str]:
    return [line.split(": ", 1)[0] for line in _block(prompt, "facts")]


class MockBackend:
    """Deterministic offline stand-in for every generative call.

    Behaviors, all pure functions of the prompt:

    * decompose_question — one sub-question per listed evidence item:
      ``what does <id> say about <first content words of the question>?``
    * decompose_atomic — splits the sub-question on `` and ``.
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
    * refine_fact — restates wh-questions declaratively, e.g.
      ("what color is the horse", "brown") -> "the color of the horse is brown."
    * tree_structure — a scripted tree per question id when configured, else
      a right-leaning chain over all facts.
    * feedback — a chain over exactly the fact ids named on the feedback
      line (``Facts:fact2; fact5``), in the order of the facts block.
    * intermediate_infer — joins the premises with "; therefore ".
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
        asks = (f"what does {eid} say about {keywords}? [{eid}]" for eid in eids)
        return "\n".join(f"{i}. {ask}" for i, ask in enumerate(asks, start=1))

    def _do_decompose_atomic(self, prompt: str) -> str:
        sub_question = _field_line(prompt, "sub-question").rstrip("?")
        parts = [p.strip() for p in re.split(r"\band\b", sub_question) if p.strip()]
        return "\n".join(f"{i + 1}. {p}?" for i, p in enumerate(parts))

    def _do_vqa(self, prompt: str) -> str:
        question = _field_line(prompt, "question")
        caption = _field_line(prompt, "image caption")
        q_words, c_words = tokenize(question), tokenize(caption)
        if not set(q_words) & set(c_words):
            return "unknown"
        if "color" in q_words or "colour" in q_words:
            for w in c_words:
                if w in _COLORS:
                    return w
        if "many" in q_words or "number" in q_words:
            for w in c_words:
                if w.isdigit():
                    return w
        q_set = set(q_words)
        for w in c_words:
            if w not in q_set and w not in _STOPWORDS:
                return w
        return "unknown"

    def _do_table_qa(self, prompt: str) -> str:
        question = _field_line(prompt, "question")
        rows = _block(prompt, "rows")
        q_words = set(tokenize(question))
        best = max(rows, key=lambda r: (len(q_words & set(tokenize(r))), -rows.index(r)))
        mentioned = [
            (col, value)
            for col, value in _row_cells(best)
            if set(tokenize(col)) and set(tokenize(col)) <= q_words
        ]
        for col, value in mentioned:
            if not set(tokenize(value)) <= q_words:
                return value
        return "unknown"

    def _do_text_qa(self, prompt: str) -> str:
        question = _field_line(prompt, "question")
        passage = _field_line(prompt, "passage")
        sentences = [s.strip() for s in passage.split(". ") if s.strip()]
        q_words = set(tokenize(question))
        best = max(
            sentences,
            key=lambda s: (len(q_words & set(tokenize(s))), -sentences.index(s)),
        )
        answer = [w for w in _content_words(best) if w not in q_words][:4]
        return " ".join(answer) if answer else "unknown"

    def _do_refine_fact(self, prompt: str) -> str:
        question = _field_line(prompt, "question").rstrip("?").strip()
        answer = _field_line(prompt, "answer")
        m = re.match(
            r"(?:what|which|who|whose|where|when|how)\s+(.+?)\s+"
            r"(?:is|are|was|were)\s+(.+)$",
            question,
            re.IGNORECASE,
        )
        if m:
            return f"the {m.group(1)} of {m.group(2)} is {answer}."
        m = re.match(
            r"(?:what|who|where|when)\s+(?:is|are|was|were)\s+(.+)$",
            question,
            re.IGNORECASE,
        )
        if m:
            return f"{m.group(1)} is {answer}."
        return f'the answer to "{question}" is {answer}.'

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
        matches = map(_NUMBERED_LINE.match, _block(prompt, "premises"))
        premises = [m.group("body") for m in matches if m]
        if not premises:
            raise BackendError("mock found no premises to join")
        return "; therefore ".join(premises)


# --- HTTP backend ------------------------------------------------------------------


class HttpBackend:
    """Chat-completion-style HTTP backend.

    POSTs ``{"model", "messages", "temperature": 0.0, "max_tokens": 512}``
    with a bearer key and reads the string ``choices[0].message.content``.
    Retries server errors, 429 (rate limited), transport faults and malformed
    replies up to ``max_retries`` times, waiting ``retry_wait`` times the
    attempt number, or what a 429/503 response's delta-seconds
    ``Retry-After`` asks for, capped at ``timeout``, then raises
    ``BackendError``. Every
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
            try:
                with self._request.urlopen(req, timeout=self.timeout) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
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
                    TypeError) as exc:  # transport, encoding or reply shape
                last_error = exc
            if attempt < self.max_retries and wait:
                time.sleep(wait)
        raise BackendError(f"backend failed after retries: {last_error}") from last_error


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
    items = []
    for line in response.splitlines():
        if not line.strip():
            continue
        m = _NUMBERED_LINE.match(line)
        if m:
            items.append(m.group("body"))
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


def decompose_atomic(
    backend: Backend, sub_question: str, evidence: Evidence
) -> list[str]:
    """Second-level split of an image sub-question into atomic questions."""
    if evidence.modality != IMAGE:
        raise ValueError("decompose_atomic expects image evidence")
    if not sub_question.strip():
        raise ValueError("empty sub-question")
    prompt = render(
        "decompose_atomic",
        sub_question=sub_question,
        evidence_id=evidence.id,
        caption=evidence.caption or "",
    )
    return _call(backend, "decompose_atomic", prompt, _parse_numbered)


def vqa_answer(backend: Backend, atomic_question: str, evidence: Evidence) -> str:
    if evidence.modality != IMAGE:
        raise ValueError("vqa_answer expects image evidence")
    prompt = render("vqa", question=atomic_question, caption=evidence.caption or "")
    return _call(backend, "vqa", prompt, _parse_short)


def table_qa(backend: Backend, sub_question: str, linearized_rows: list[str]) -> str:
    if not linearized_rows:
        raise ValueError("no linearized rows")
    prompt = render("table_qa", question=sub_question, rows_block=linearized_rows)
    return _call(backend, "table_qa", prompt, _parse_short)


def text_qa(backend: Backend, sub_question: str, passage: str) -> str:
    """Text-modality path: answer the sub-question over the snippet."""
    if not passage.strip():
        raise ValueError("empty passage")
    prompt = render("text_qa", question=sub_question, passage=passage)
    return _call(backend, "text_qa", prompt, _parse_short)


def refine_to_fact(backend: Backend, question: str, answer: str) -> str:
    if not question.strip() or not answer.strip():
        raise ValueError("refine_to_fact needs a question and an answer")
    prompt = render("refine_fact", question=question, answer=answer)
    return _call(backend, "refine_fact", prompt, _parse_short)


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


def infer_intermediate(backend: Backend, premise_texts: list[str]) -> str:
    """Single-sentence conclusion inferred from already-filled child texts."""
    if not premise_texts:
        raise ValueError("no premises to infer from")
    block = [f"{i}. {text}" for i, text in enumerate(premise_texts, start=1)]
    prompt = render("intermediate_infer", premises_block=block)
    return _call(backend, "intermediate_infer", prompt, _parse_short)
