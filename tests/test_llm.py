import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entailqa import llm
from entailqa.errors import BackendError, EmptyDecomposition, ParseError, TreeSyntaxError, UnknownFactId
from entailqa.facts import Evidence, FactBase, Table, add_fact, linearize_table
from entailqa.llm import (
    BackendRequest,
    MockBackend,
    decompose_atomic,
    decompose_question,
    generate_tree_structure,
    infer_intermediate,
    refine_to_fact,
    render,
    table_qa,
    text_qa,
    vqa_answer,
)
from entailqa.tree import LEAF, serialize_tree


def _structure(tree):
    return serialize_tree(tree, include_texts=False)


class CannedBackend:
    """Replays fixed responses; counts calls."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.calls = 0
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        self.calls += 1
        return self.responses[min(self.calls - 1, len(self.responses) - 1)]


_FACT_TEXT = st.sampled_from(
    ["a.", "the harbor | is deep.", "b; c.", "the\nmill  is old.", "fact1", "Facts:x  Answer:y"]
) | st.text(min_size=1).filter(str.strip)


# One-line strings, weighted towards the row sentence's separators.
_CELL = (
    st.lists(st.sampled_from(["is", " is ", ", ", ",", '"', "\\", ".", " ", "ü", "x"]), max_size=6).map("".join)
    | st.text()
).map(lambda text: " ".join(text.split()))


@st.composite
def _texts_and_fed_back(draw):
    """Fact texts, and the ids of a non-empty subset of them in any order."""
    texts = draw(st.lists(_FACT_TEXT, min_size=1, max_size=6))
    order = draw(st.permutations([f"fact{k}" for k in range(1, len(texts) + 1)]))
    return texts, order[: draw(st.integers(1, len(order)))]


@pytest.fixture
def image_evidence():
    return Evidence(id="img1", modality="image", content="", caption="a racing brown horse")


class TestTemplates:
    def test_render_fills_slots(self):
        text = render("vqa", question="q?", caption="cap")
        assert "q?" in text and "cap" in text

    def test_unbound_slot_errors(self):
        with pytest.raises(ValueError):
            render("vqa", question="q?")

    def test_feedback_template_slots(self):
        text = render("feedback", n="200", f="fact1; fact2", a="yes", q="why?")
        assert "200 words" in text
        assert "Facts:fact1; fact2  Answer:yes  Question:why?" in text

    def test_block_items_go_one_to_a_line(self):
        text = render("table_qa", question="who\nwon?", rows_block=["row\none.", "  row  two. "])
        assert text.endswith("question: who won?\nrows:\nrow one.\nrow two.")

    def test_block_slot_given_a_str_errors(self):
        with pytest.raises(ValueError, match="rows_block"):
            render("table_qa", question="q?", rows_block="row one.")


class TestDecomposeQuestion:
    def test_one_subquestion_per_evidence(self, mock_backend):
        evidence = [
            Evidence(id="e1", modality="text", content="the falcon is fast."),
            Evidence(id="e2", modality="text", content="the harbor is deep."),
        ]
        result = decompose_question(mock_backend, "how fast is the falcon?", evidence)
        assert [sq.evidence_id for sq in result] == ["e1", "e2"]
        assert all("?" in sq.question for sq in result)

    def test_question_reaches_the_prompt_as_one_line(self, mock_backend):
        evidence = [Evidence(id="e1", modality="text", content="the falcon is red.")]
        result = decompose_question(mock_backend, "what is the color\nof the falcon?", evidence)
        assert result[0].question == "what does e1 say about color falcon?"

    def test_single_evidence(self, mock_backend):
        evidence = [Evidence(id="e1", modality="text", content="the falcon is fast.")]
        result = decompose_question(mock_backend, "how fast?", evidence)
        assert len(result) == 1
        assert result[0].evidence_id == "e1"

    def test_prose_twice_is_parse_error(self):
        backend = CannedBackend("no list here", "still prose")
        evidence = [Evidence(id="e1", modality="text", content="x y z")]
        with pytest.raises(ParseError):
            decompose_question(backend, "q?", evidence)
        assert backend.calls == 2  # exactly one retry

    def test_retry_recovers(self):
        backend = CannedBackend("garbage", "1. what about it? [e1]")
        evidence = [Evidence(id="e1", modality="text", content="x y z")]
        result = decompose_question(backend, "q?", evidence)
        assert result[0].evidence_id == "e1"

    def test_unknown_ids_dropped_then_empty(self):
        backend = CannedBackend("1. q? [nope]", "1. q? [nope]")
        evidence = [Evidence(id="e1", modality="text", content="x y z")]
        with pytest.raises(EmptyDecomposition):
            decompose_question(backend, "q?", evidence)

    def test_empty_evidence_precondition(self, mock_backend):
        with pytest.raises(ValueError):
            decompose_question(mock_backend, "q?", [])


class TestDecomposeAtomic:
    def test_splits_on_conjunction(self, mock_backend, image_evidence):
        out = decompose_atomic(
            mock_backend, "what color is the horse and what is it doing?", image_evidence
        )
        assert out == ["what color is the horse?", "what is it doing?"]

    def test_atomic_already(self, mock_backend, image_evidence):
        out = decompose_atomic(mock_backend, "what color is the horse?", image_evidence)
        assert out == ["what color is the horse?"]

    def test_empty_subquestion(self, mock_backend, image_evidence):
        with pytest.raises(ValueError):
            decompose_atomic(mock_backend, "  ", image_evidence)

    def test_non_image_rejected(self, mock_backend):
        text_ev = Evidence(id="e1", modality="text", content="x")
        with pytest.raises(ValueError):
            decompose_atomic(mock_backend, "q?", text_ev)


class TestVqa:
    def test_color_keyword(self, mock_backend, image_evidence):
        answer = vqa_answer(mock_backend, "what color is the horse", image_evidence)
        assert answer == "brown"

    def test_no_overlap_fallback(self, mock_backend, image_evidence):
        answer = vqa_answer(mock_backend, "when did gold rust", image_evidence)
        assert answer == "unknown"

    @pytest.mark.parametrize(
        "caption, expected",
        [
            ("two horses graze in a field with 3 foals", "3"),
            ("brown horses graze in the field", "brown"),
        ],
    )
    def test_count_keyword(self, mock_backend, caption, expected):
        ev = Evidence(id="i", modality="image", content="", caption=caption)
        answer = vqa_answer(mock_backend, "how many horses graze in the field", ev)
        assert answer == expected

    def test_head_noun_fallback(self, mock_backend):
        ev = Evidence(id="i", modality="image", content="", caption="a falcon over the reef")
        answer = vqa_answer(mock_backend, "what flies over the reef", ev)
        assert answer == "falcon"

    def test_caption_reaches_the_prompt_as_one_line(self, mock_backend):
        ev = Evidence(id="i", modality="image", content="", caption="a falcon\nover the reef")
        answer = vqa_answer(mock_backend, "what flies over the reef", ev)
        assert answer == "falcon"

    def test_non_image_precondition(self, mock_backend):
        with pytest.raises(ValueError):
            vqa_answer(mock_backend, "q", Evidence(id="e", modality="text", content="x"))


class TestTableQa:
    def test_winner_lookup(self, mock_backend):
        table = Table(
            header=("Season", "Winner"),
            rows=(("2010", "Super Saver"), ("2011", "Animal Kingdom")),
        )
        rows = linearize_table(table)
        answer = table_qa(mock_backend, "who was the Winner in the 2010 Season?", rows)
        assert answer == "Super Saver"

    def test_cell_reaches_the_prompt_as_one_line(self, mock_backend):
        table = Table(header=("season", "winner"), rows=(("2010", "Super\nSaver"),))
        rows = linearize_table(table)
        answer = table_qa(mock_backend, "what is the winner of season 2010?", rows)
        assert answer == "Super Saver"

    def test_cell_with_a_comma_stays_whole(self, mock_backend):
        table = Table(header=("season", "winner"), rows=(("2009", "Rome"), ("2010", "Paris, France")))
        rows = linearize_table(table)
        answer = table_qa(mock_backend, "what is the winner of season 2010?", rows)
        assert answer == "Paris, France"

    def test_cell_holding_both_separators_stays_whole(self, mock_backend):
        table = Table(header=("season", "winner"), rows=(("2009", "Rome"), ("2010", "Paris, which is big")))
        rows = linearize_table(table)
        answer = table_qa(mock_backend, "what is the winner of season 2010?", rows)
        assert answer == "Paris, which is big"

    @given(st.lists(st.tuples(_CELL, _CELL), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_row_sentence_reads_back_cell_for_cell(self, pairs):
        """For any one-line names and cells, the mock reads the row sentence
        of the table_qa prompt back into exactly those (column, cell) pairs."""
        table = Table(header=tuple(col for col, _ in pairs), rows=(tuple(cell for _, cell in pairs),))
        prompt = render("table_qa", question="q?", rows_block=linearize_table(table))
        assert llm._row_cells(llm._block(prompt, "rows")[0]) == pairs

    def test_no_column_match(self, mock_backend):
        rows = ["row one's Season is 2010, Winner is Super Saver."]
        answer = table_qa(mock_backend, "what is the weather like?", rows)
        assert answer == "unknown"

    def test_empty_rows_precondition(self, mock_backend):
        with pytest.raises(ValueError):
            table_qa(mock_backend, "q?", [])


class TestTextQa:
    def test_extracts_novel_content_words(self, mock_backend):
        answer = text_qa(
            mock_backend,
            "what does e1 say about color falcon?",
            "the color of the falcon is crimson.",
        )
        assert answer == "crimson"

    def test_best_sentence_selected(self, mock_backend):
        passage = "the mill is old. the falcon is swift."
        answer = text_qa(mock_backend, "how swift is the falcon?", passage)
        assert answer == "unknown" or "swift" not in answer  # novel words only

    def test_passage_reaches_the_prompt_as_one_line(self, mock_backend):
        """A newline in the passage neither hides the text after it nor
        leaves the mock an empty passage line."""
        passage = "\nthe color of the falcon\nis crimson."
        answer = text_qa(mock_backend, "what does e1 say about color falcon?", passage)
        assert answer == "crimson"
        # "swift" is in the question, and the mock answers with novel words only
        answer = text_qa(mock_backend, "how swift is the falcon?", "\nthe falcon is swift.")
        assert answer == "unknown"

    def test_empty_passage(self, mock_backend):
        with pytest.raises(ValueError):
            text_qa(mock_backend, "q?", "  ")


class TestRefineToFact:
    def test_wh_attribute_restatement(self, mock_backend):
        out = refine_to_fact(mock_backend, "what color is the horse", "brown")
        assert out == "the color of the horse is brown."

    def test_wh_copula_restatement(self, mock_backend):
        out = refine_to_fact(mock_backend, "what is the capital of France?", "Paris")
        assert out == "the capital of France is Paris."

    def test_fallback_restatement(self, mock_backend):
        out = refine_to_fact(mock_backend, "does the horse race", "yes")
        assert out == 'the answer to "does the horse race" is yes.'

    def test_unknown_answer_still_returned(self, mock_backend):
        out = refine_to_fact(mock_backend, "what color is the horse", "unknown")
        assert "unknown" in out

    def test_empty_answer_precondition(self, mock_backend):
        with pytest.raises(ValueError):
            refine_to_fact(mock_backend, "q?", "")


class TestTreeStructure:
    def test_scripted_by_question_id(self, small_base):
        backend = MockBackend(scripted_trees={"q1": "fact2 & fact3 -> answer"})
        out = generate_tree_structure(backend, "q?", small_base)
        assert _structure(out) == "fact2 & fact3 -> answer"

    def test_default_joins_all_facts(self, mock_backend):
        base = FactBase("q")
        base = add_fact(base, "a.", "text", "e1")
        base = add_fact(base, "b.", "text", "e2")
        out = generate_tree_structure(mock_backend, "q?", base)
        assert _structure(out) == "fact1 & fact2 -> answer"

    def test_default_chain_three_facts(self, mock_backend, small_base):
        out = generate_tree_structure(mock_backend, "q?", small_base)
        assert _structure(out) == "fact1 & fact2 -> int1; fact3 & int1 -> answer"

    def test_feedback_controls_leaf_set(self, mock_backend, small_base):
        feedback = (["fact3", "fact2"], "deep")
        out = generate_tree_structure(mock_backend, "q?", small_base, feedback=feedback)
        assert _structure(out) == "fact2 & fact3 -> answer"

    def test_feedback_fact_reaches_the_prompt_as_one_line(self):
        """A fed-back fact is named by its id; its text, one-lined, is in the
        facts block of the same prompt."""
        base = FactBase("q1")
        for text in ("the falcon is fast.", "the  harbor\nis deep.", "the mill is old."):
            base = add_fact(base, text, "text", "e1")
        backend = RecordingBackend()
        out = generate_tree_structure(backend, "q?", base, feedback=(["fact2 ", "\nfact3"], "deep"))
        assert _structure(out) == "fact2 & fact3 -> answer"
        [(_, prompt)] = backend.prompts
        assert "Facts:fact2; fact3  Answer:deep  Question:q?\n" in prompt
        assert prompt.endswith("facts:\nfact1: the falcon is fast.\n"
                               "fact2: the harbor is deep.\nfact3: the mill is old.")

    @pytest.mark.parametrize(
        "texts, fed_back, expected",
        [
            # a fact text holding a separator is still one fact
            (("the falcon is fast.", "the harbor | is deep.", "the mill is old."),
             ["fact2", "fact3"], "fact2 & fact3 -> answer"),
            # two equal texts are two facts, each named by its own id
            (("a.", "a.", "b."), ["fact1", "fact3"], "fact1 & fact3 -> answer"),
            (("a.", "a.", "b."), ["fact1", "fact2"], "fact1 & fact2 -> answer"),
        ],
    )
    def test_feedback_facts_match_whole_elements(self, mock_backend, texts, fed_back, expected):
        """Each fed-back id is one whole fact, whatever its text holds."""
        base = FactBase("q1")
        for text in texts:
            base = add_fact(base, text, "text", "e1")
        out = generate_tree_structure(mock_backend, "q?", base, feedback=(fed_back, "deep"))
        assert _structure(out) == expected

    @given(_texts_and_fed_back())
    @settings(max_examples=60, deadline=None)
    def test_feedback_ids_are_the_leaves(self, case):
        """Whatever the fact texts hold (separators, newlines, repeats), the
        mock's tree from fed-back ids has exactly those ids as leaves, in the
        order of the facts block."""
        texts, fed_back = case
        base = FactBase("q1")
        for text in texts:
            base = add_fact(base, text, "text", "e1")
        out = generate_tree_structure(MockBackend(), "q?", base, feedback=(fed_back, "a"))
        leaves = [str(p) for step in out.steps for p in step.premises if p.kind == LEAF]
        assert leaves == sorted(fed_back, key=lambda fid: int(fid[4:]))

    def test_feedback_overrides_script(self, small_base):
        backend = MockBackend(scripted_trees={"q1": "fact1 -> answer"})
        feedback = (["fact3"], "old")
        out = generate_tree_structure(backend, "q?", small_base, feedback=feedback)
        assert _structure(out) == "fact3 -> answer"

    def test_empty_base_precondition(self, mock_backend):
        with pytest.raises(ValueError):
            generate_tree_structure(mock_backend, "q?", FactBase("q"))

    def test_unparseable_tree_is_asked_for_once_more(self, small_base):
        backend = CannedBackend("not a tree", "fact1 -> answer")
        out = generate_tree_structure(backend, "why?", small_base)
        assert _structure(out) == "fact1 -> answer"
        assert out.hypothesis == "why?"
        assert backend.calls == 2
        assert [r.tag for r in backend.requests] == ["tree_structure"] * 2

    def test_unknown_leaf_twice_raises(self, small_base):
        backend = CannedBackend("fact9 -> answer", "fact9 -> answer")
        with pytest.raises(UnknownFactId):
            generate_tree_structure(backend, "why?", small_base)
        assert backend.calls == 2

    def test_feedback_request_tag(self, small_base):
        backend = CannedBackend("fact2 -> answer")
        feedback = (["fact2"], "deep")
        generate_tree_structure(backend, "why?", small_base, feedback=feedback)
        assert [r.tag for r in backend.requests] == ["feedback"]
        assert "Facts:fact2  Answer:deep" in backend.requests[0].prompt

    @pytest.mark.parametrize(
        "fact_id, error",
        [("fact9", UnknownFactId), ("int1", UnknownFactId),
         ("the harbor is deep.", TreeSyntaxError), ("fact2; fact3", TreeSyntaxError)],
    )
    def test_bad_feedback_id_fails_before_any_call(self, small_base, fact_id, error):
        backend = CannedBackend("fact2 -> answer")
        with pytest.raises(error):
            generate_tree_structure(backend, "why?", small_base, feedback=(["fact2", fact_id], "deep"))
        assert backend.calls == 0


class TestInferIntermediate:
    def test_joiner(self, mock_backend):
        assert infer_intermediate(mock_backend, ["A.", "B."]) == "A.; therefore B."

    def test_single_premise_unchanged(self, mock_backend):
        assert infer_intermediate(mock_backend, ["A."]) == "A."

    def test_premise_reaches_the_prompt_as_one_line(self, mock_backend):
        premises = ["the falcon is red.\n2. the sky is green.", "the harbor is deep."]
        assert infer_intermediate(mock_backend, premises) == (
            "the falcon is red. 2. the sky is green.; therefore the harbor is deep."
        )

    def test_empty_precondition(self, mock_backend):
        with pytest.raises(ValueError):
            infer_intermediate(mock_backend, [])


class TestMockDeterminism:
    def test_repeated_calls_byte_identical(self, small_base):
        first = MockBackend()
        second = MockBackend()
        for backend in (first, second):
            backend.out = generate_tree_structure(backend, "why?", small_base)
        assert first.out.structurally_equal(second.out)

    def test_unknown_tag_rejected(self, mock_backend):
        with pytest.raises(BackendError):
            mock_backend.complete(BackendRequest(prompt="p", tag="mystery"))

    @pytest.mark.parametrize(
        "tag", ["decompose_question", "table_qa", "tree_structure", "feedback", "intermediate_infer"]
    )
    def test_prompt_without_its_block_label_is_backend_error(self, mock_backend, tag):
        with pytest.raises(BackendError, match="block"):
            mock_backend.complete(BackendRequest(prompt="question: q?\nquestion id: q1", tag=tag))


class RecordingBackend:
    """Answers through the mock; keeps every (tag, prompt) it is sent."""

    def __init__(self):
        self.mock = MockBackend()
        self.prompts = []

    def complete(self, request):
        self.prompts.append((request.tag, request.prompt))
        return self.mock.complete(request)


_TREE_PROMPT = (
    "Build an entailment tree that explains the hypothesis from the numbered facts.\n"
    "Use the fact ids as leaves, int1, int2, ... for intermediate conclusions, and\n"
    'the literal answer placeholder as the root. Write steps as "fact1 & fact2 -> int1"\n'
    'separated by "; ", ending with one step that concludes answer.\n\n'
    "question id: q1\n"
    "hypothesis: what color is the falcon?\n"
    "facts:\n"
    "fact1: the falcon is crimson.\n"
    "fact2: the harbor is deep."
)


def test_every_prompt_byte_for_byte():
    """Each of the nine operations sends exactly these bytes for these inputs."""
    backend = RecordingBackend()
    text = Evidence(id="e1", modality="text", content="the falcon is crimson.")
    image = Evidence(id="i1", modality="image", content="", caption="a crimson falcon")
    table = Evidence(
        id="t1",
        modality="table",
        content=Table(header=("Season", "Winner"), rows=(("2010", "Super Saver"),)),
    )
    base = add_fact(FactBase("q1"), "the falcon is crimson.", "text", "e1")
    base = add_fact(base, "the harbor is deep.", "text", "e2")
    question = "what color is the falcon?"
    decompose_question(backend, question, [text, image, table])
    decompose_atomic(backend, "what color is the falcon and where is it?", image)
    vqa_answer(backend, question, image)
    table_qa(backend, "who was the Winner in 2010?", linearize_table(table.content))
    text_qa(backend, question, "the falcon is crimson.")
    refine_to_fact(backend, question, "crimson")
    generate_tree_structure(backend, question, base)
    feedback = (["fact1", "fact2"], "crimson")
    generate_tree_structure(backend, question, base, feedback=feedback)
    infer_intermediate(backend, ["the falcon is crimson.", "the harbor is deep."])
    assert backend.prompts == [
        (
            "decompose_question",
            "You are given a multi-hop question and a list of evidence items.\n"
            "Decompose the question into one sub-question per evidence item that helps answer it.\n"
            "Reply with a numbered list only; end every line with the evidence id in square brackets.\n\n"
            "question: what color is the falcon?\n"
            "evidence:\n"
            "e1 (text): the falcon is crimson.\n"
            "i1 (image): a crimson falcon\n"
            "t1 (table): row one's Season is 2010, Winner is Super Saver.",
        ),
        (
            "decompose_atomic",
            "Split the sub-question about an image into atomic questions, each answerable\n"
            "from the image alone. Reply with a numbered list only.\n\n"
            "sub-question: what color is the falcon and where is it?\n"
            "image i1: a crimson falcon",
        ),
        (
            "vqa",
            "Answer the question about the image in as few words as possible.\n\n"
            "question: what color is the falcon?\n"
            "image caption: a crimson falcon",
        ),
        (
            "table_qa",
            "Answer the question using only the table rows below. Reply with the answer only.\n\n"
            "question: who was the Winner in 2010?\n"
            "rows:\n"
            "row one's Season is 2010, Winner is Super Saver.",
        ),
        (
            "text_qa",
            "Answer the question using only the passage. Reply with a short answer.\n\n"
            "question: what color is the falcon?\n"
            "passage: the falcon is crimson.",
        ),
        (
            "refine_fact",
            "Rewrite the question and its answer as one short declarative sentence.\n\n"
            "question: what color is the falcon?\n"
            "answer: crimson",
        ),
        ("tree_structure", _TREE_PROMPT),
        (
            "feedback",
            "Given the following potentially relevant facts and the potentially correct "
            "answer, please generate entailment tree in 200 words. "
            "Facts:fact1; fact2  Answer:crimson  "
            "Question:what color is the falcon?\n\n" + _TREE_PROMPT,
        ),
        (
            "intermediate_infer",
            "State the single conclusion that follows from the premises, as one short sentence.\n\n"
            "premises:\n"
            "1. the falcon is crimson.\n"
            "2. the harbor is deep.",
        ),
    ]
