import pytest
from hypothesis import given
from hypothesis import strategies as st

from entailqa.metrics import (
    em,
    normalize_answer,
    retrieval_f1,
    word_f1,
)


class TestNormalize:
    def test_articles_punctuation_case(self):
        assert normalize_answer("The Churchill Downs.") == "churchill downs"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_whitespace_collapse(self):
        assert normalize_answer("A  brown   Horse") == "brown horse"

    def test_idempotent(self):
        text = "The  Quick, Brown Fox!"
        assert normalize_answer(normalize_answer(text)) == normalize_answer(text)


class TestEm:
    def test_normalization_identity(self):
        assert em("Churchill Downs", "churchill downs") == 1

    def test_subset_is_not_match(self):
        assert em("brown horse", "racing brown horse") == 0

    def test_any_gold_rule(self):
        assert em("pearl", ["onyx", "pearl"]) == 1

    def test_empty_pair(self):
        assert em("", "") == 1

    def test_articles_only_matches_empty(self):
        assert em("a an the", "") == 1


class TestWordF1:
    def test_two_thirds_precision_full_recall(self):
        assert word_f1("racing brown horse", "brown horse") == pytest.approx(0.8)

    def test_identical(self):
        assert word_f1("brown horse", "brown horse") == 1.0

    def test_disjoint(self):
        assert word_f1("silver", "golden") == 0.0

    def test_multiset_counting(self):
        # common multiset {x: 2}: P = 2/3, R = 1
        assert word_f1("x y x", "x x") == pytest.approx(0.8)

    def test_max_over_golds(self):
        assert word_f1("cold deep harbor", ["deep harbor", "warm reef"]) == (
            pytest.approx(0.8)
        )

    def test_empty_pred(self):
        assert word_f1("", "x") == 0.0

    def test_both_empty(self):
        assert word_f1("", "") == 1.0

    def test_half_overlap(self):
        assert word_f1("one two three four", "three four five six") == (
            pytest.approx(0.5)
        )


class TestRetrieval:
    def test_half(self):
        score = retrieval_f1({1, 2}, {2, 3})
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_exact(self):
        score = retrieval_f1({1, 2}, {1, 2})
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty_pred(self):
        assert retrieval_f1(set(), {1}).f1 == 0.0

    def test_empty_gold(self):
        assert retrieval_f1({1}, set()).f1 == 0.0

    def test_full_recall_half_precision(self):
        score = retrieval_f1({1, 2, 3, 4}, {2, 4})
        assert score.precision == 0.5
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(2 / 3)

    def test_string_ids(self):
        score = retrieval_f1({"e1"}, {"e1", "e2"})
        assert score.f1 == pytest.approx(2 / 3)


@given(st.text(max_size=40), st.text(max_size=40))
def test_em_implies_f1(pred, gold):
    if em(pred, gold):
        assert word_f1(pred, gold) == 1.0
    assert 0.0 <= word_f1(pred, gold) <= 1.0


@given(st.text(max_size=30), st.lists(st.text(max_size=30), min_size=1, max_size=4))
def test_gold_permutation_invariance(pred, golds):
    assert em(pred, golds) == em(pred, list(reversed(golds)))
    assert word_f1(pred, golds) == word_f1(pred, list(reversed(golds)))
