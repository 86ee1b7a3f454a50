"""Tests for lexicon loading, compound scoring, negation, and analysis."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadscope.errors import FormatError
from threadscope.sentiment import (
    DEFAULT_NEGATORS,
    EntitySentimentReport,
    analyze_entity_sentences,
    compound_of,
    label_for,
    load_lexicon,
    score_sentence,
    sum_valence,
)

LEXICON = {"good": 1.9, "bad": -1.9, "great": 3.0}


# ---------------------------------------------------------------- lexicon


def test_shipped_lexicon_loads():
    lexicon = load_lexicon()
    assert len(lexicon) >= 700
    assert all(key == key.lower() for key in lexicon)
    assert all(math.isfinite(v) for v in lexicon.values())
    assert lexicon["good"] > 0
    assert lexicon["bad"] < 0


def test_load_lexicon_custom_file(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# comment\n\nGood\t1.5\nawful\t-2\n")
    lexicon = load_lexicon(path)
    assert lexicon == {"good": 1.5, "awful": -2.0}


def test_load_lexicon_reads_a_file_with_a_bom_as_without(tmp_path):
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text("good\t1.5\nawful\t-2\n", encoding="utf-8")
    bom.write_text("good\t1.5\nawful\t-2\n", encoding="utf-8-sig")
    assert load_lexicon(bom) == load_lexicon(plain) == {"good": 1.5, "awful": -2.0}


@pytest.mark.parametrize(
    "content,line_no",
    [
        ("good\t1.5\nbad\n", 2),
        ("good\tnope\n", 1),
        ("good\t1.5\textra\n", 1),
        ("good\tinf\n", 1),
    ],
)
def test_load_lexicon_bad_lines(tmp_path, content, line_no):
    path = tmp_path / "lex.tsv"
    path.write_text(content)
    with pytest.raises(FormatError) as excinfo:
        load_lexicon(path)
    assert excinfo.value.line_no == line_no


# ---------------------------------------------------------------- compound


def test_compound_pinned_value():
    assert compound_of(1.9) == pytest.approx(0.440, abs=1e-3)
    assert compound_of(0.0) == 0.0
    assert compound_of(-1.9) == -compound_of(1.9)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_compound_is_bounded(s):
    assert -1.0 < compound_of(s) < 1.0


@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=0.01, max_value=100, allow_nan=False),
)
def test_compound_is_strictly_increasing(s, delta):
    assert compound_of(s) < compound_of(s + delta)


def test_label_thresholds_exact():
    assert label_for(0.05) == "pos"
    assert label_for(0.0499999) == "neu"
    assert label_for(0.0) == "neu"
    assert label_for(-0.0499999) == "neu"
    assert label_for(-0.05) == "neg"
    assert label_for(-0.2) == "neg"
    assert label_for(0.9) == "pos"


# ---------------------------------------------------------------- negation


def test_negation_flips_within_three_tokens():
    assert sum_valence(["not", "good"], LEXICON) == -1.9
    assert sum_valence(["not", "so", "very", "good"], LEXICON) == -1.9
    # four tokens back is outside the window
    assert sum_valence(["not", "a", "b", "c", "good"], LEXICON) == 1.9


def test_negation_contraction_suffix():
    assert sum_valence(["isn't", "good"], LEXICON) == -1.9
    assert sum_valence(["n't", "good"], LEXICON) == -1.9


def test_negation_flips_once_per_hit():
    assert sum_valence(["not", "not", "good"], LEXICON) == -1.9


def test_negators_are_the_documented_set():
    assert DEFAULT_NEGATORS == frozenset({"not", "no", "never", "n't"})


@given(st.lists(st.sampled_from(["good", "bad", "great", "walk", "the"]), max_size=10))
def test_sum_is_order_invariant_without_negators(tokens):
    assert sum_valence(tokens, LEXICON) == pytest.approx(
        sum_valence(list(reversed(tokens)), LEXICON)
    )


@given(
    st.lists(
        st.sampled_from(["good", "bad", "great", "not", "never", "so", "walk"]),
        max_size=12,
    )
)
def test_score_sentence_compound_bounded(tokens):
    score = score_sentence(tokens, LEXICON)
    assert -1.0 < score.compound < 1.0
    assert score.label == label_for(score.compound)


def test_score_sentence_pinned():
    score = score_sentence(["good"], LEXICON)
    assert score.compound == pytest.approx(0.440, abs=1e-3)
    assert score.label == "pos"


# ---------------------------------------------------------------- analysis


class FakeDoc:
    def __init__(self, title, comment_bodies):
        self.title = title
        self.comment_bodies = comment_bodies


def test_analyze_entity_sentences():
    docs = [
        FakeDoc("Masks are good.", ["Masks are bad.", "Too short"]),
        FakeDoc("Masks are good.", ["A mask, so great."]),
    ]
    report = analyze_entity_sentences(docs, "mask", LEXICON)
    assert report.entity == "mask"
    # the duplicate title sentence is scored once
    assert (report.n_pos, report.n_neg, report.n_neu) == (2, 1, 0)
    expected = (compound_of(1.9) + compound_of(-1.9) + compound_of(3.0)) / 3
    assert report.mean_compound == pytest.approx(expected)


def test_analyze_min_tokens_drops_fragments():
    docs = [FakeDoc("mask good", [])]
    report = analyze_entity_sentences(docs, "mask", LEXICON, min_tokens=3)
    assert report == EntitySentimentReport("mask", 0, 0, 0, 0.0)
    report = analyze_entity_sentences(docs, "mask", LEXICON, min_tokens=2)
    assert report.n_pos == 1


def test_analyze_entity_prefix_matching():
    docs = [FakeDoc("Sanitizers are good here.", [])]
    assert analyze_entity_sentences(docs, "sanitizer", LEXICON).n_pos == 1
    assert analyze_entity_sentences(docs, "wipes", LEXICON).n_pos == 0


def test_analyze_no_matches_is_all_zero():
    report = analyze_entity_sentences([FakeDoc("Nothing here.", [])], "mask", LEXICON)
    assert report == EntitySentimentReport("mask", 0, 0, 0, 0.0)
