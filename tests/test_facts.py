import json

import pytest

from entailqa.errors import EmptyTable, EmptyText, UnknownFactId
from entailqa.facts import (
    Evidence,
    FactBase,
    Table,
    add_fact,
    linearize_table,
    lookup_text,
    overlap_tokens,
    retrieve_evidence,
)
from entailqa.tree import intermediate_id, leaf_id


class TestLinearize:
    def test_season_winner_row(self):
        table = Table(header=("Season", "Winner"), rows=(("2010", "Super Saver"),))
        assert linearize_table(table) == [
            "row one's Season is 2010, Winner is Super Saver."
        ]

    def test_smallest_table(self):
        assert linearize_table(Table(header=("A",), rows=(("x",),))) == [
            "row one's A is x."
        ]

    def test_cell_that_could_read_as_two_is_quoted(self):
        table = Table(header=("Winner", "Note"), rows=(("Paris, France", 'the "big" one'),))
        assert linearize_table(table) == [
            'row one\'s Winner is "Paris, France", Note is "the \\"big\\" one".'
        ]

    @pytest.mark.parametrize(
        "text",
        ["", "is", "is big", "this is", "a is b", "Zürich, CH", " ", "a,\nb", "\u2028is\u2028", " x", "a  b"],
    )
    def test_names_and_cells_that_could_be_misread_are_json_strings(self, text):
        quoted = json.dumps(text, ensure_ascii=False)
        table = Table(header=(text,), rows=((text,),))
        assert linearize_table(table) == [f"row one's {quoted} is {quoted}."]

    @pytest.mark.parametrize("text", ["Super Saver", "3.5", "a,b", "island", "his"])
    def test_other_names_and_cells_are_written_as_they_are(self, text):
        table = Table(header=(text,), rows=((text,),))
        assert linearize_table(table) == [f"row one's {text} is {text}."]

    def test_numeric_ordinals_past_twenty(self):
        rows = tuple((str(i),) for i in range(25))
        sentences = linearize_table(Table(header=("A",), rows=rows))
        assert len(sentences) == 25
        assert sentences[19].startswith("row twenty's")
        assert sentences[24].startswith("row 25's")

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            linearize_table(Table(header=("A",), rows=()))

    def test_every_cell_appears_verbatim(self):
        table = Table(
            header=("Name", "Year"),
            rows=(("alpha", "1999"), ("beta", "2004")),
        )
        for row, sentence in zip(table.rows, linearize_table(table)):
            for cell in row:
                assert cell in sentence

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            Table(header=("A", "B"), rows=(("x",),))


class TestRetrieve:
    def _candidates(self):
        return [
            Evidence(id="e1", modality="text", content="quartz pylons hum at dawn."),
            Evidence(id="e2", modality="text", content="the falcon hunts the meadow."),
            Evidence(id="e3", modality="image", content="", caption="a falcon in flight"),
        ]

    def test_disjoint_question_keeps_input_order(self):
        out = retrieve_evidence("zzz yyy", self._candidates(), 2)
        assert [ev.id for ev in out] == ["e1", "e2"]

    def test_substring_outranks_single_token(self):
        out = retrieve_evidence("the falcon hunts the meadow", self._candidates(), 1)
        assert out[0].id == "e2"

    def test_top_n_larger_than_pool(self):
        out = retrieve_evidence("falcon", self._candidates(), 10)
        assert len(out) == 3

    def test_image_uses_caption(self):
        out = retrieve_evidence("falcon flight", self._candidates(), 1)
        assert out[0].id == "e3"

    def test_table_content_linearized(self):
        table_ev = Evidence(
            id="t1",
            modality="table",
            content=Table(header=("Winner",), rows=(("Super Saver",),)),
        )
        out = retrieve_evidence("who was the super saver winner", [table_ev], 1)
        assert out[0].id == "t1"

    def test_top_n_must_be_positive(self):
        with pytest.raises(ValueError):
            retrieve_evidence("q", self._candidates(), 0)

    def test_short_tokens_dropped(self):
        assert overlap_tokens("a b cd the") == ["cd", "the"]

    def test_deterministic_given_tie_break(self):
        candidates = self._candidates()
        first = retrieve_evidence("falcon", candidates, 3)
        second = retrieve_evidence("falcon", candidates, 3)
        assert [e.id for e in first] == [e.id for e in second]


class TestFactBase:
    def test_first_add(self):
        base = add_fact(FactBase("q"), "one fact.", "text", "e1")
        assert [f.id for f in base.facts] == [leaf_id(1)]

    def test_ids_contiguous(self):
        base = FactBase("q")
        base = add_fact(base, "a.", "text", "e1")
        base = add_fact(base, "b.", "image", "e2", origin=("q?", "b"))
        assert [f.id.render() for f in base.facts] == ["fact1", "fact2"]

    def test_duplicate_text_distinct_ids(self):
        base = FactBase("q")
        base = add_fact(base, "same.", "text", "e1")
        base = add_fact(base, "same.", "text", "e2")
        ids = [f.id for f in base.facts]
        assert len(set(ids)) == 2

    def test_add_is_functional(self):
        base = FactBase("q")
        bigger = add_fact(base, "a.", "text", "e1")
        assert len(base) == 0 and len(bigger) == 1

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            add_fact(FactBase("q"), "   ", "text", "e1")

    def test_lookup(self, small_base):
        assert lookup_text(small_base, leaf_id(1)) == "the falcon is fast."

    def test_lookup_intermediate_rejected(self, small_base):
        with pytest.raises(UnknownFactId):
            lookup_text(small_base, intermediate_id(1))

    def test_lookup_out_of_range(self, small_base):
        with pytest.raises(UnknownFactId):
            lookup_text(small_base, leaf_id(9))

    def test_json_form(self, small_base):
        data = small_base.to_json_dict()
        assert data["question_id"] == "q1"
        assert data["facts"][0] == {
            "id": "fact1",
            "text": "the falcon is fast.",
            "modality": "text",
            "source_evidence_id": "e1",
            "origin": None,
        }
