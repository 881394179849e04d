"""Uniform backend interface for every generative call, plus prompt templates.

All operations build a prompt from a named template, send a single
``BackendRequest`` to the backend through ``_call``, and run the response
through exactly one parser with a one-retry policy. Two backends ship:

* ``MockBackend`` — deterministic, offline; its behaviors are part of the test
  contract (see the class docstring).
* ``HttpBackend`` — chat-completion-style JSON over HTTP, endpoint and key
  from ``ENTAIL_LLM_ENDPOINT`` / ``ENTAIL_LLM_KEY``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Optional, Protocol

from .errors import BackendError, EmptyDecomposition, ParseError, TreeError, UnknownFactId
from .facts import IMAGE, Evidence, FactBase, lookup_text, tokenize
from .tree import EntailmentTree, parse_tree

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


def render(name: str, **slots: str) -> str:
    """Fill the named template; an unbound slot or an empty result is a ValueError."""
    template = TEMPLATES[name]
    try:
        text = template.format(**slots)
    except (KeyError, IndexError) as exc:
        raise ValueError(f"unbound slot in template {name}: {exc}") from exc
    if not text.strip():
        raise ValueError(f"template {name} rendered empty")
    return text


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
_FEEDBACK_LINE = re.compile(
    r"Facts:(?P<facts>.*?)  Answer:(?P<answer>.*?)  Question:(?P<question>.*?)$",
    re.MULTILINE | re.DOTALL,
)
FEEDBACK_FACT_SEP = " | "


def _one_line(text: str) -> str:
    return " ".join(text.split())


def _content_words(text: str) -> list[str]:
    return [w for w in tokenize(text) if w not in _STOPWORDS]


def _field_line(prompt: str, label: str) -> str:
    for line in prompt.splitlines():
        if line.startswith(label + ":"):
            return line[len(label) + 1:].strip()
    raise BackendError(f"mock could not find '{label}:' in prompt")


class MockBackend:
    """Deterministic offline stand-in for every generative call.

    Behaviors, all pure functions of the prompt:

    * decompose_question — one sub-question per listed evidence item:
      ``what does <id> say about <first content words of the question>?``
    * decompose_atomic — splits the sub-question on `` and ``.
    * vqa — no shared word between question and caption gives "unknown";
      a "color" cue picks the first color word in the caption; otherwise the
      first caption content word absent from the question.
    * table_qa — picks the row sentence with the largest word overlap, then
      answers with the cell of a column named in the question whose value is
      not already part of the question; no such column gives "unknown".
    * text_qa — best-overlap passage sentence, answer = its first content
      words (up to four) that are absent from the question, else "unknown".
    * refine_fact — restates wh-questions declaratively, e.g.
      ("what color is the horse", "brown") -> "the color of the horse is brown."
    * tree_structure — a scripted tree per question id when configured, else
      a right-leaning chain over all facts; with a feedback block, a chain
      whose leaf set is exactly the fed-back facts.
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
        lines = []
        in_block = False
        for line in prompt.splitlines():
            if line.startswith("evidence:"):
                in_block = True
                continue
            if in_block and line.strip():
                eid = line.split(" ", 1)[0]
                lines.append(
                    f"{len(lines) + 1}. what does {eid} say about {keywords}? [{eid}]"
                )
        return "\n".join(lines)

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
        rows = []
        in_block = False
        for line in prompt.splitlines():
            if line.startswith("rows:"):
                in_block = True
                continue
            if in_block and line.strip():
                rows.append(line.strip())
        q_words = set(tokenize(question))
        best = max(rows, key=lambda r: (len(q_words & set(tokenize(r))), -rows.index(r)))
        body = re.sub(r"^row \S+'s\s+", "", best).rstrip(".")
        cells = []
        for part in body.split(", "):
            col, sep, value = part.partition(" is ")
            if sep:
                cells.append((col.strip(), value.strip()))
        mentioned = [
            (col, value)
            for col, value in cells
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
        fact_ids = [
            m.group(1)
            for m in re.finditer(r"^(fact[0-9]+):", prompt, re.MULTILINE)
        ]
        feedback = _FEEDBACK_LINE.search(prompt)
        if feedback:
            wanted = [
                t.strip()
                for t in feedback.group("facts").split(FEEDBACK_FACT_SEP)
                if t.strip()
            ]
            fact_texts = dict(
                re.findall(r"^(fact[0-9]+): (.*)$", prompt, re.MULTILINE)
            )
            matched = []
            for text in wanted:
                for fid, ftext in fact_texts.items():
                    if ftext == text and fid not in matched:
                        matched.append(fid)
                        break
            ids = sorted(matched, key=lambda f: int(f[4:])) or fact_ids
            return self._chain(ids)
        try:
            question_id = _field_line(prompt, "question id")
        except BackendError:
            question_id = ""
        if question_id in self.scripted_trees:
            return self.scripted_trees[question_id]
        return self._chain(fact_ids)

    _do_feedback = _do_tree_structure

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
        premises = []
        for line in prompt.splitlines():
            m = _NUMBERED_LINE.match(line)
            if m:
                premises.append(m.group("body"))
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
    template name.
    """

    def __init__(
        self,
        endpoint: Optional[str] = None,
        api_key: Optional[str] = None,
        model: str = "gpt-3.5-turbo",
        timeout: float = 60.0,
        max_retries: int = 2,
        retry_wait: float = 1.0,
    ):
        self.endpoint = endpoint or os.environ.get("ENTAIL_LLM_ENDPOINT", "")
        self.api_key = api_key or os.environ.get("ENTAIL_LLM_KEY", "")
        if not self.endpoint:
            raise BackendError("no endpoint: set ENTAIL_LLM_ENDPOINT or pass one")
        if urllib.parse.urlsplit(self.endpoint).scheme not in ("http", "https"):
            raise BackendError(f"endpoint {self.endpoint!r} is not an http(s) URL")
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_wait = retry_wait
        self.exchange_log: list[dict] = []
        self._log_lock = threading.Lock()

    def complete(self, request: BackendRequest) -> str:
        body = json.dumps(
            {
                "model": self.model,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": 0.0,
                "max_tokens": 512,
            }
        ).encode("utf-8")
        req = urllib.request.Request(
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
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
                text = payload["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}, not a string")
                with self._log_lock:
                    self.exchange_log.append(
                        {"tag": request.tag, "prompt": request.prompt, "response": text}
                    )
                return text
            except urllib.error.HTTPError as exc:
                exc.close()  # the error holds the response's socket
                if exc.code < 500 and exc.code != 429:
                    raise BackendError(f"HTTP {exc.code} from backend") from exc
                last_error = exc
                after = _retry_after(exc) if exc.code in (429, 503) else None
                if after is not None:
                    wait = min(after, self.timeout)
            except (OSError, http.client.HTTPException, ValueError, LookupError,
                    TypeError) as exc:  # transport, encoding or reply shape
                last_error = exc
            if attempt < self.max_retries and wait:
                time.sleep(wait)
        raise BackendError(f"backend failed after retries: {last_error}") from last_error


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
    block = "\n".join(
        f"{ev.id} ({ev.modality}): {_one_line(ev.retrieval_text())}"
        for ev in evidence_list
    )

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
    prompt = render(
        "table_qa", question=sub_question, rows_block="\n".join(linearized_rows)
    )
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

    ``feedback`` is (retrieved fact texts, predicted answer); it prefixes the
    prompt with the feedback template and tags the request ``feedback``.
    """
    if not len(fact_base):
        raise ValueError("fact base is empty")
    facts_block = "\n".join(
        f"{fact.id.render()}: {_one_line(fact.text)}" for fact in fact_base.facts
    )
    prompt = render(
        "tree_structure",
        question_id=fact_base.question_id,
        hypothesis=question,
        facts_block=facts_block,
    )
    tag = "tree_structure"
    if feedback is not None:
        facts, answer = feedback
        prompt = render(
            "feedback",
            n=str(FEEDBACK_WORD_BUDGET),
            f=FEEDBACK_FACT_SEP.join(facts),
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
    block = "\n".join(f"{i + 1}. {t}" for i, t in enumerate(premise_texts))
    prompt = render("intermediate_infer", premises_block=block)
    return _call(backend, "intermediate_infer", prompt, _parse_short)
