import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entailqa.errors import StructureError, TreeError, TreeSyntaxError
from entailqa.synth import random_tree
from entailqa.tree import (
    ANSWER,
    EntailmentStep,
    EntailmentTree,
    NodeId,
    TreeScore,
    intermediate_id,
    leaf_id,
    leaf_preorder,
    parse_tree,
    score_tree,
    serialize_tree,
    split_subtrees,
)


class TestParse:
    def test_minimal_two_premise_tree(self):
        tree = parse_tree("fact1 & fact2 -> answer")
        assert set(tree.leaves) == {leaf_id(1), leaf_id(2)}
        assert [s.conclusion for s in tree.steps] == [ANSWER]
        assert len(tree.steps) == 1

    def test_two_step_tree_with_text(self):
        tree = parse_tree("fact1 & fact2 -> int1: X; int1 & fact3 -> answer")
        assert set(tree.leaves) == {leaf_id(1), leaf_id(2), leaf_id(3)}
        assert tree.node_text(intermediate_id(1)) == "X"
        assert len(tree.steps) == 2
        # steps arrive in a valid topological order
        assert tree.steps[0].conclusion == intermediate_id(1)

    def test_leaf_as_conclusion_rejected(self):
        with pytest.raises(StructureError):
            parse_tree("fact1 -> fact2")

    def test_single_premise_step_allowed(self):
        tree = parse_tree("fact1 -> answer")
        assert set(tree.leaves) == {leaf_id(1)}

    def test_whitespace_tolerated(self):
        tree = parse_tree("  fact1   &  fact2  ->  int1 :  padded text ; int1 -> answer")
        assert tree.node_text(intermediate_id(1)) == "padded text"

    def test_trailing_semicolon_tolerated(self):
        tree = parse_tree("fact1 -> answer;")
        assert len(tree.steps) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "fact1 fact2 -> answer&",
            "fact1 &",
            "-> answer",
            "fact1 -> ",
            "fact0 -> answer",
            "int0 -> answer",
            "fact1 ->> answer",
            "fact1 -> int1: ; int1 -> answer",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(TreeSyntaxError):
            parse_tree(text)

    @pytest.mark.parametrize(
        "text",
        [
            "int1 -> answer",  # dangling premise
            "fact1 -> int1",  # no root
            "fact1 -> answer; fact2 -> answer",  # two roots
            "fact1 -> int1; fact2 -> int1; int1 & int1 -> answer",  # dup conclusion
            "fact1 & fact1 -> answer",  # dup premise
            "fact1 -> answer; fact1 -> int1",  # unused intermediate + leaf reuse
            "fact1 -> int1; fact1 & int1 -> answer",  # fact shared by two steps
            "fact1 & answer -> int1; int1 -> answer",  # root as premise
            "fact1 -> int1; int2 & fact2 -> answer; int1 -> int2",  # out of order
        ],
    )
    def test_structure_errors(self, text):
        with pytest.raises(StructureError):
            parse_tree(text)

    def test_node_limit(self):
        steps = [f"fact{i} -> int{i}" for i in range(1, 40)]
        steps.append(" & ".join(f"int{i}" for i in range(1, 40)) + " -> answer")
        with pytest.raises(StructureError):
            parse_tree("; ".join(steps))

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_fuzz_never_panics(self, text):
        try:
            parse_tree(text)
        except TreeError:
            pass


class TestSerialize:
    def test_single_step_identity(self):
        assert serialize_tree(parse_tree("fact1 & fact2 -> answer")) == (
            "fact1 & fact2 -> answer"
        )

    def test_text_suppression(self):
        tree = parse_tree("fact1 & fact2 -> int1: X; int1 & fact3 -> answer")
        assert serialize_tree(tree, include_texts=False) == (
            "fact1 & fact2 -> int1; fact3 & int1 -> answer"
        )

    def test_roundtrip_random_trees(self):
        rng = random.Random(99)
        for _ in range(300):
            tree = random_tree(rng)
            again = parse_tree(serialize_tree(tree))
            assert again.structurally_equal(tree)

    def test_roundtrip_preserves_semicolon_texts(self):
        tree = EntailmentTree(
            hypothesis="",
            leaves={leaf_id(1): None, leaf_id(2): None},
            steps=(
                EntailmentStep(
                    (leaf_id(1), leaf_id(2)),
                    intermediate_id(1),
                    "a.; therefore b.",
                ),
                EntailmentStep((intermediate_id(1),), ANSWER, "c."),
            ),
        )
        again = parse_tree(serialize_tree(tree))
        assert again.structurally_equal(tree)

    def test_text_that_mimics_a_step_is_rejected(self):
        with pytest.raises(StructureError):
            EntailmentStep((leaf_id(1),), ANSWER, "x; fact2 -> int9 y")


class TestSplit:
    def test_single_subtree(self):
        tree = parse_tree("fact1 & fact2 -> answer")
        assert split_subtrees(tree) == [(ANSWER, [leaf_id(1), leaf_id(2)])]

    def test_children_before_parents(self):
        tree = parse_tree("fact1 & fact2 -> int1: X; int1 & fact3 -> answer")
        assert split_subtrees(tree) == [
            (intermediate_id(1), [leaf_id(1), leaf_id(2)]),
            (ANSWER, [intermediate_id(1), leaf_id(3)]),
        ]

    def test_split_covers_exactly_the_step_set(self):
        rng = random.Random(5)
        for _ in range(100):
            tree = random_tree(rng)
            entries = {
                (conclusion, frozenset(premises))
                for conclusion, premises in split_subtrees(tree)
            }
            steps = {
                (s.conclusion, frozenset(s.premises)) for s in tree.steps
            }
            assert entries == steps

    def test_depth_order_on_deeper_tree(self):
        tree = parse_tree(
            "fact1 -> int1; fact2 & int1 -> int2; fact3 -> int3; int2 & int3 -> answer"
        )
        conclusions = [c for c, _ in split_subtrees(tree)]
        depths = tree.depths()
        assert all(
            depths[a] >= depths[b]
            for a, b in zip(conclusions, conclusions[1:])
        )


class TestScore:
    def test_identical_trees(self):
        tree = parse_tree("fact1 & fact2 -> int1: X; int1 & fact3 -> answer")
        assert score_tree(tree, tree) == TreeScore(1, 1, 1, 1)

    def test_leaf_set_mismatch(self):
        pred = parse_tree("fact1 & fact2 -> answer")
        gold = parse_tree("fact1 & fact3 -> answer")
        score = score_tree(pred, gold)
        assert score.leaves_correct == 0
        assert score.all_correct == 0

    def test_intermediate_text_mismatch(self):
        pred = parse_tree("fact1 & fact2 -> int1: one thing; int1 & fact3 -> answer")
        gold = parse_tree("fact1 & fact2 -> int1: another; int1 & fact3 -> answer")
        assert score_tree(pred, gold) == TreeScore(1, 1, 0, 0)

    def test_intermediate_relabeling_is_structural(self):
        pred = parse_tree("fact3 & fact4 -> int7: X; fact1 & int7 -> answer")
        gold = parse_tree("fact3 & fact4 -> int1: X; fact1 & int1 -> answer")
        assert score_tree(pred, gold) == TreeScore(1, 1, 1, 1)

    def test_text_normalization_applies(self):
        pred = parse_tree("fact1 -> int1: The Brown Horse.; int1 -> answer")
        gold = parse_tree("fact1 -> int1: brown horse; int1 -> answer")
        assert score_tree(pred, gold).intermediates_correct == 1

    def test_structure_mismatch(self):
        pred = parse_tree("fact1 & fact2 & fact3 -> answer")
        gold = parse_tree("fact1 & fact2 -> int1; int1 & fact3 -> answer")
        score = score_tree(pred, gold)
        assert score.steps_correct == 0
        assert score.all_correct == 0

    def test_equal_sibling_texts_with_swapped_descendants(self):
        # siblings share a conclusion text but carry different subtrees; the
        # matcher must find the alignment where all descendant texts agree
        pred = parse_tree(
            "fact1 -> int1: P; int1 -> int3: X; fact2 -> int2: Q; "
            "int2 -> int4: X; int3 & int4 -> answer"
        )
        gold = parse_tree(
            "fact1 -> int1: P; int1 -> int4: X; fact2 -> int2: Q; "
            "int2 -> int3: X; int3 & int4 -> answer"
        )
        assert score_tree(pred, gold) == TreeScore(1, 1, 1, 1)
        crossed = parse_tree(
            "fact1 -> int1: P; int1 -> int3: X; fact2 -> int2: WRONG; "
            "int2 -> int4: X; int3 & int4 -> answer"
        )
        assert score_tree(crossed, gold) == TreeScore(1, 1, 0, 0)

    def test_leaf_text_alignment_maps_ids(self):
        pred = EntailmentTree(
            hypothesis="",
            leaves={leaf_id(5): "a.", leaf_id(6): "b."},
            steps=(EntailmentStep((leaf_id(5), leaf_id(6)), ANSWER),),
        )
        gold = EntailmentTree(
            hypothesis="",
            leaves={leaf_id(1): "a.", leaf_id(2): "b."},
            steps=(EntailmentStep((leaf_id(1), leaf_id(2)), ANSWER),),
        )
        assert score_tree(pred, gold).leaves_correct == 1

    def test_self_score_on_random_trees(self):
        rng = random.Random(17)
        for _ in range(100):
            tree = random_tree(rng, texts="full")
            assert score_tree(tree, tree).all_correct == 1


class TestPreorder:
    def test_leaf_preorder_two_step(self):
        tree = parse_tree("fact1 & fact2 -> int1; int1 & fact3 -> answer")
        assert leaf_preorder(tree) == [leaf_id(1), leaf_id(2), leaf_id(3)]

    def test_leaf_preorder_respects_premise_order(self):
        tree = parse_tree("fact2 & fact1 -> answer")
        assert leaf_preorder(tree) == [leaf_id(2), leaf_id(1)]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_and_self_score(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    assert parse_tree(serialize_tree(tree)).structurally_equal(tree)
    assert score_tree(tree, tree).all_correct == 1
    assert sorted(leaf_preorder(tree)) == sorted(tree.leaves) and tree.leaves


def test_node_id_rendering():
    assert leaf_id(3).render() == "fact3"
    assert intermediate_id(2).render() == "int2"
    assert ANSWER.render() == "answer"
    assert NodeId("leaf", 1) == leaf_id(1)
    with pytest.raises(StructureError):
        NodeId("leaf", 0)
