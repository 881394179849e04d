import random

import pytest

from entailqa.errors import MissingText, UnknownFactId
from entailqa.facts import FactBase, add_fact, lookup_text
from entailqa.refine import refine, tree_to_text
from entailqa.synth import random_sentence, random_tree
from entailqa.tree import ANSWER, EntailmentTree, intermediate_id, parse_tree, serialize_tree


def oracle_fill(tree: EntailmentTree, base: FactBase) -> dict:
    """Independent bottom-up recursion mirroring the mock joiner rule."""

    def text_of(node):
        if node.kind == "leaf":
            return lookup_text(base, node)
        premises = tree.step_for(node).premises
        return "; therefore ".join(text_of(p) for p in premises)

    texts = {leaf: text_of(leaf) for leaf in tree.leaves}
    for step in tree.steps:
        texts[step.conclusion] = text_of(step.conclusion)
    return texts


def base_for(tree: EntailmentTree, rng: random.Random) -> FactBase:
    base = FactBase("q")
    for k in range(len(tree.leaves)):
        base = add_fact(base, random_sentence(rng), "text", f"e{k + 1}")
    return base


class TestRefine:
    def test_single_subtree_branch(self, mock_backend):
        base = FactBase("q")
        base = add_fact(base, "A.", "text", "e1")
        base = add_fact(base, "B.", "text", "e2")
        structure = parse_tree("fact1 & fact2 -> answer")
        filled = refine(structure, base, mock_backend)
        assert filled.leaves == {leaf: text for leaf, text in
                                 zip(sorted(structure.leaves), ["A.", "B."])}
        assert filled.node_text(ANSWER) == "A.; therefore B."

    def test_fill_order_feeds_parents(self, mock_backend, small_base):
        structure = parse_tree("fact1 & fact2 -> int1; int1 & fact3 -> answer")
        filled = refine(structure, small_base, mock_backend)
        int1_text = "the falcon is fast.; therefore the harbor is deep."
        assert filled.node_text(intermediate_id(1)) == int1_text
        assert filled.node_text(ANSWER) == f"{int1_text}; therefore the mill is old."

    def test_unknown_leaf(self, mock_backend, small_base):
        structure = parse_tree("fact1 & fact9 -> answer")
        with pytest.raises(UnknownFactId):
            refine(structure, small_base, mock_backend)

    def test_input_not_mutated(self, mock_backend, small_base):
        structure = parse_tree("fact1 & fact2 -> answer")
        refine(structure, small_base, mock_backend)
        assert structure.leaves[sorted(structure.leaves)[0]] is None
        assert structure.node_text(ANSWER) is None

    def test_matches_recursive_oracle_on_random_trees(self, mock_backend):
        rng = random.Random(8)
        for _ in range(100):
            tree = random_tree(rng, texts="none")
            base = base_for(tree, rng)
            filled = refine(tree, base, mock_backend)
            expected = oracle_fill(tree, base)
            for leaf in filled.leaves:
                assert filled.leaves[leaf] == expected[leaf]
            for step in filled.steps:
                assert step.conclusion_text == expected[step.conclusion]

    def test_output_is_valid_and_serializable(self, mock_backend):
        rng = random.Random(21)
        tree = random_tree(rng, texts="none")
        base = base_for(tree, rng)
        filled = refine(tree, base, mock_backend)
        assert parse_tree(serialize_tree(filled)) is not None


class TestTreeToText:
    def test_one_step_rendering(self, mock_backend):
        base = FactBase("q")
        base = add_fact(base, "A.", "text", "e1")
        base = add_fact(base, "B.", "text", "e2")
        filled = refine(parse_tree("fact1 & fact2 -> answer"), base, mock_backend)
        assert tree_to_text(filled) == (
            "because A. and B., we conclude A.; therefore B.."
        )

    def test_steps_render_children_first(self, mock_backend, small_base):
        filled = refine(
            parse_tree("fact1 & fact2 -> int1; int1 & fact3 -> answer"),
            small_base,
            mock_backend,
        )
        text = tree_to_text(filled)
        assert text.index("the falcon is fast. and the harbor is deep.") < text.index(
            "the mill is old."
        )

    def test_missing_text_raises(self):
        structure = parse_tree("fact1 -> answer")
        with pytest.raises(MissingText):
            tree_to_text(structure)

    def test_injective_on_generated_corpus(self, mock_backend):
        rng = random.Random(13)
        seen = {}
        for i in range(200):
            tree = random_tree(rng, texts="none")
            base = base_for(tree, rng)
            rendering = tree_to_text(refine(tree, base, mock_backend))
            key = (serialize_tree(tree, include_texts=False), tuple(base.texts()))
            if rendering in seen:
                assert seen[rendering] == key
            seen[rendering] = key
