from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadscope import textprep
from threadscope.textprep import (
    ADJ,
    ADV,
    NOUN,
    NUM,
    PUNCT,
    VERB,
    PipelineConfig,
    Token,
    lemmatize,
    pos_tag,
    preprocess_text,
    split_sentences,
    strip_urls,
    tokenize,
    remove_stopwords,
)


def test_strip_urls_removes_scheme_urls():
    assert strip_urls("Visit https://example.com/page now") == "Visit now"
    assert strip_urls("ftp://host/file done") == "done"


def test_strip_urls_removes_bare_www():
    assert strip_urls("see www.example.org. for info") == "see for info"


def test_strip_urls_collapses_whitespace():
    assert strip_urls("a  https://x.io  b") == "a b"
    assert strip_urls("no urls  here") == "no urls here"


def test_split_sentences_on_terminators():
    assert split_sentences("Cases rose fast! Why? Nobody masked") == [
        "Cases rose fast!",
        "Why?",
        "Nobody masked",
    ]


def test_split_sentences_respects_abbreviations():
    assert split_sentences("Dr. Smith stayed home. He wore a mask.") == [
        "Dr. Smith stayed home.",
        "He wore a mask.",
    ]


def test_split_sentences_empty_and_blank():
    assert split_sentences("") == []
    assert split_sentences("   ") == []


def test_tokenize_detaches_edge_punctuation():
    assert tokenize("Wear masks, please!") == ["Wear", "masks", ",", "please", "!"]
    assert tokenize("(covid-19).") == ["(", "covid-19", ")", "."]


def test_tokenize_keeps_underscore_words_whole():
    assert tokenize("the testing_site opened.") == [
        "the",
        "testing_site",
        "opened",
        ".",
    ]


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=60))
def test_tokenize_idempotent_under_rejoin(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


def test_data_lines_counts_physical_lines(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_bytes(b"# header\n\n  # indented comment\r\nfirst\t1\r\n   \nlast")
    assert list(textprep.data_lines(path)) == [(4, "first\t1"), (6, "last")]


def test_remove_stopwords_default_list():
    assert remove_stopwords(["the", "mask", "is", "a", "barrier"]) == [
        "mask",
        "barrier",
    ]


def test_remove_stopwords_custom_list():
    assert remove_stopwords(["keep", "drop"], frozenset({"drop"})) == ["keep"]


def test_pos_tag_heuristics():
    tags = {t.surface: t.pos for t in pos_tag(["testing", "opened", "quickly", "dangerous", "7", "!", "mask"])}
    assert tags["testing"] == VERB
    assert tags["opened"] == VERB
    assert tags["quickly"] == ADV
    assert tags["dangerous"] == ADJ
    assert tags["7"] == NUM
    assert tags["!"] == PUNCT
    assert tags["mask"] == NOUN


def test_pos_tag_third_person_verbs_via_stem_list():
    tags = {t.surface: t.pos for t in pos_tag(["opens", "masks"])}
    assert tags["opens"] == VERB
    assert tags["masks"] == NOUN


def test_lemmatize_verb_suffixes():
    assert lemmatize(Token("testing", pos=VERB)) == "test"
    assert lemmatize(Token("opened", pos=VERB)) == "open"
    assert lemmatize(Token("stopped", pos=VERB)) == "stop"
    assert lemmatize(Token("goes", pos=VERB)) == "go"


def test_lemmatize_noun_suffixes():
    assert lemmatize(Token("sites", pos=NOUN)) == "site"
    assert lemmatize(Token("studies", pos=NOUN)) == "study"
    assert lemmatize(Token("churches", pos=NOUN)) == "church"
    assert lemmatize(Token("pass", pos=NOUN)) == "pass"
    assert lemmatize(Token("virus", pos=NOUN)) == "virus"


def test_lemmatize_exceptions_win():
    assert lemmatize(Token("viruses", pos=NOUN)) == "virus"
    assert lemmatize(Token("is", pos=VERB)) == "be"
    assert lemmatize(Token("went", pos=VERB)) == "go"
    assert lemmatize(Token("children", pos=NOUN)) == "child"


def test_lemmatize_identity_fallback_is_lowercase():
    assert lemmatize(Token("Mask", pos=NOUN)) == "mask"
    assert lemmatize(Token("from", pos=ADJ)) == "from"


def test_pipeline_rejects_unknown_stage():
    with pytest.raises(ValueError):
        PipelineConfig(stages=("tokenize", "no_such_stage"))


def test_pipeline_rejects_token_stage_before_tokenize():
    with pytest.raises(ValueError):
        PipelineConfig(stages=("remove_stopwords", "tokenize"))


def test_pipeline_rejects_text_stage_after_tokenize():
    with pytest.raises(ValueError):
        PipelineConfig(stages=("tokenize", "split_sentences"))


def test_pipeline_lemmatize_requires_pos_tag():
    with pytest.raises(ValueError):
        PipelineConfig(stages=("tokenize", "lemmatize"))


def test_preprocess_text_composed_default_stages():
    text = "Visit https://x.io! COVID-19 testing sites opened."
    assert preprocess_text(text) == "visit covid test site open"


def test_preprocess_text_idempotent():
    text = "Visit https://x.io! COVID-19 testing sites opened."
    once = preprocess_text(text)
    assert preprocess_text(once) == once


def test_preprocess_text_empty():
    assert preprocess_text("") == ""


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
def test_preprocess_output_is_clean(text):
    out = preprocess_text(text)
    assert out == out.lower()
    assert "  " not in out
    assert all(
        any(ch.isalnum() or ch == "_" for ch in token) for token in out.split()
    )


def test_preprocess_document_sets_cleaned_text():
    class Doc:
        raw_text = "Masks are required. See https://x.io"
        cleaned_text = ""

    doc = Doc()
    textprep.preprocess_document(doc)
    assert doc.cleaned_text == "mask require see"
