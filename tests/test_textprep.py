from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadscope import textprep
from threadscope.textprep import (
    ADJ,
    ADV,
    NOUN,
    NUM,
    PUNCT,
    VERB,
    CompiledPipeline,
    Token,
    lemmatize,
    pos_tag,
    preprocess_text,
    split_sentences,
    strip_urls,
    tokenize,
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


# ---------------------------------------------------------------- regex
# The per-character loops that the two regexes replaced, kept verbatim as
# references: the regexes must split every string the same way.


def ref_split_sentences(text: str) -> list[str]:
    abbreviations = textprep.load_abbreviations()
    sentences: list[str] = []
    start = 0
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        if i + 1 < len(text) and not text[i + 1].isspace():
            continue
        if ch == ".":
            j = i
            while j > start and not text[j - 1].isspace():
                j -= 1
            if text[j : i + 1].lower() in abbreviations:
                continue
        piece = text[start : i + 1].strip()
        if piece:
            sentences.append(piece)
        start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def ref_tokenize(sentence: str) -> list[str]:
    tokens: list[str] = []
    for chunk in sentence.split():
        left = 0
        right = len(chunk)
        while left < right and not (chunk[left].isalnum() or chunk[left] == "_"):
            left += 1
        while right > left and not (chunk[right - 1].isalnum() or chunk[right - 1] == "_"):
            right -= 1
        tokens.extend(chunk[:left])
        if left < right:
            tokens.append(chunk[left:right])
        tokens.extend(chunk[right:])
    return tokens


# terminators, whitespace that str.split() and \s agree on (\x1c, \x85,
# \xa0), a digit and a numeral that are alnum but not ASCII, and the
# shipped abbreviations in both cases
REGEX_PIECES = list(".!?.. \t\n\x1c\x85\xa0²Ⅻé_-'\"(),a1") + sorted(
    {form for abbreviation in textprep.load_abbreviations()
     for form in (abbreviation, abbreviation.upper(), abbreviation.title())}
)
regex_texts = st.lists(st.sampled_from(REGEX_PIECES), max_size=30).map("".join)


@settings(max_examples=500)
@given(regex_texts | st.text(max_size=30))
def test_split_sentences_matches_the_character_loop(text):
    assert split_sentences(text) == ref_split_sentences(text)


@settings(max_examples=500)
@given(regex_texts | st.text(max_size=30))
def test_tokenize_matches_the_character_loop(text):
    assert tokenize(text) == ref_tokenize(text)


def test_data_lines_counts_physical_lines(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_bytes(b"# header\n\n  # indented comment\r\nfirst\t1\r\n   \nlast")
    assert list(textprep.data_lines(path)) == [(4, "first\t1"), (6, "last")]


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
        CompiledPipeline(stages=("tokenize", "no_such_stage"))


def test_pipeline_rejects_token_stage_before_tokenize():
    with pytest.raises(ValueError):
        CompiledPipeline(stages=("remove_stopwords", "tokenize"))


def test_pipeline_rejects_text_stage_after_tokenize():
    with pytest.raises(ValueError):
        CompiledPipeline(stages=("tokenize", "split_sentences"))


@pytest.mark.parametrize(
    "stages",
    [
        ("split_sentences", "strip_urls", "tokenize"),
        ("split_sentences", "split_sentences"),
        ("tokenize", "lowercase", "tokenize"),
    ],
)
def test_pipeline_rejects_orders_the_stages_cannot_run(stages):
    with pytest.raises(ValueError):
        CompiledPipeline(stages=stages)


def test_pipeline_lemmatize_requires_pos_tag():
    with pytest.raises(ValueError):
        CompiledPipeline(stages=("tokenize", "lemmatize"))


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


# ---------------------------------------------------------------- reference
# A verbatim copy of the per-stage pipeline that the compiled one replaced:
# every stage rebuilds a Token per token, pos_tag runs per sentence and
# lemmatize scans every suffix rule.  The compiled path must give the same
# string for every valid stage order and stoplist.


@dataclass
class RefToken:
    surface: str
    pos: str = textprep.OTHER
    lemma: str = ""

    def __post_init__(self) -> None:
        if not self.lemma and self.surface:
            self.lemma = self.surface.lower()

    @property
    def lower(self) -> str:
        return self.surface.lower()


@dataclass(frozen=True)
class RefLemmaRules:
    exceptions: dict[str, dict[str, str]]
    rules: tuple[tuple[str, str, str, int], ...]


def ref_load_lemma_rules() -> RefLemmaRules:
    rules: list[tuple[str, str, str, int]] = []
    for _, line in textprep.data_lines(None, "lemma_rules.txt"):
        parts = line.split("\t")
        pos, suffix = parts[0], parts[1]
        replacement = parts[2] if len(parts) > 2 else ""
        min_stem = int(parts[3]) if len(parts) > 3 else 0
        rules.append((pos, suffix, replacement, min_stem))
    exceptions: dict[str, dict[str, str]] = {"": {}}
    for _, line in textprep.data_lines(None, "lemma_exceptions.txt"):
        parts = line.split("\t")
        form, lemma = parts[0].lower(), parts[1]
        pos = parts[2] if len(parts) > 2 else ""
        exceptions.setdefault(pos, {})[form] = lemma
    return RefLemmaRules(exceptions=exceptions, rules=tuple(rules))


def ref_pos_tag(tokens, closed_class, verb_stems) -> list[RefToken]:
    return [
        RefToken(surface=t, pos=textprep._pos_for(t.lower(), closed_class, verb_stems))
        for t in tokens
    ]


def ref_lemmatize(token: RefToken, rules: RefLemmaRules) -> str:
    lower = token.surface.lower()
    for key in (token.pos, ""):
        hit = rules.exceptions.get(key, {}).get(lower)
        if hit is not None:
            return hit
    for pos, suffix, replacement, min_stem in rules.rules:
        if pos != token.pos:
            continue
        if not lower.endswith(suffix):
            continue
        if len(lower) - len(suffix) < min_stem:
            continue
        return lower[: len(lower) - len(suffix)] + replacement
    return lower


def ref_map_tokens(sentences, fn):
    out = []
    for sent in sentences:
        mapped = []
        for tok in sent:
            surface = fn(tok.surface)
            if surface:
                mapped.append(RefToken(surface=surface, pos=tok.pos))
        out.append(mapped)
    return out


def ref_preprocess_text(text, stages, stoplist, rules: RefLemmaRules) -> str:
    res = SimpleNamespace(
        stoplist=textprep.load_stopwords(None) if stoplist is None else stoplist,
        closed_class=textprep.load_closed_class(),
        verb_stems=textprep.load_verb_stems(),
    )
    state_text = text
    state_sentences = None
    state_tokens = None
    for stage in stages:
        if stage == textprep.STRIP_URLS:
            assert state_text is not None
            state_text = strip_urls(state_text)
        elif stage == textprep.SPLIT_SENTENCES:
            assert state_text is not None
            state_sentences = split_sentences(state_text)
            state_text = None
        elif stage == textprep.TOKENIZE:
            if state_sentences is None:
                assert state_text is not None
                state_sentences = [state_text] if state_text.strip() else []
            state_tokens = [
                [RefToken(surface=t) for t in tokenize(sent)]
                for sent in state_sentences
            ]
            state_sentences = None
        elif stage == textprep.LOWERCASE:
            if state_tokens is not None:
                state_tokens = ref_map_tokens(state_tokens, str.lower)
            elif state_sentences is not None:
                state_sentences = [s.lower() for s in state_sentences]
            else:
                assert state_text is not None
                state_text = state_text.lower()
        elif stage == textprep.REMOVE_NON_ASCII:
            if state_tokens is not None:
                state_tokens = ref_map_tokens(state_tokens, textprep._strip_non_ascii)
            elif state_sentences is not None:
                state_sentences = [textprep._strip_non_ascii(s) for s in state_sentences]
            else:
                assert state_text is not None
                state_text = textprep._strip_non_ascii(state_text)
        elif stage == textprep.REMOVE_STOPWORDS:
            assert state_tokens is not None
            state_tokens = [
                [t for t in sent if t.lower not in res.stoplist]
                for sent in state_tokens
            ]
        elif stage == textprep.REMOVE_DIGITS:
            assert state_tokens is not None
            state_tokens = ref_map_tokens(state_tokens, textprep._strip_digits)
        elif stage == textprep.REMOVE_PUNCT:
            assert state_tokens is not None
            state_tokens = ref_map_tokens(state_tokens, textprep._strip_punct)
        elif stage == textprep.POS_TAG:
            assert state_tokens is not None
            state_tokens = [
                ref_pos_tag([t.surface for t in sent], res.closed_class, res.verb_stems)
                for sent in state_tokens
            ]
        elif stage == textprep.LEMMATIZE:
            assert state_tokens is not None
            state_tokens = [
                [RefToken(surface=ref_lemmatize(t, rules), pos=t.pos) for t in sent]
                for sent in state_tokens
            ]

    if state_tokens is not None:
        return " ".join(t.surface for sent in state_tokens for t in sent)
    if state_sentences is not None:
        return " ".join(" ".join(s.split()) for s in state_sentences)
    assert state_text is not None
    return " ".join(state_text.split())


# ---------------------------------------------------------------- equivalence

WORDS = [
    "Testing", "opened", "studies", "goes", "is", "children", "viruses", "the",
    "The", "MASK", "masks", "mask", "sanitizers", "quickly", "dangerous",
    "COVID-19", "covid19", "N95", "123", "4.5%", "1/2", "-7", "2020-03-01",
    "https://x.io/a?b=1", "www.example.org.", "http://t.co", "Dr.", "U.S.",
    "e.g.", "Café", "naïve", "Δelta", "日本", "ﬁne", "İstanbul", "ß",
    "!", "?", "...", "(mask)", "'quoted'", '"hi"', "—", "--", "under_score",
    "_", "ing", "s", "es", "ies", "gone", "Went", "opens", "x", "",
]
SEPARATORS = [" ", "  ", "\n", ". ", "! ", "? ", ".", " \t "]

TEXT_STAGES = [textprep.STRIP_URLS, textprep.LOWERCASE, textprep.REMOVE_NON_ASCII]
SENTENCE_STAGES = [textprep.LOWERCASE, textprep.REMOVE_NON_ASCII]
TOKEN_STAGES = [
    textprep.REMOVE_STOPWORDS,
    textprep.REMOVE_DIGITS,
    textprep.POS_TAG,
    textprep.LEMMATIZE,
    textprep.REMOVE_NON_ASCII,
    textprep.LOWERCASE,
    textprep.REMOVE_PUNCT,
]


@st.composite
def stage_orders(draw) -> tuple[str, ...]:
    """Any order CompiledPipeline accepts: text stages, an optional split,
    sentence stages, an optional tokenize, then token stages with every
    lemmatize after some pos_tag."""
    stages = draw(st.lists(st.sampled_from(TEXT_STAGES), max_size=3))
    if draw(st.booleans()):
        stages.append(textprep.SPLIT_SENTENCES)
        stages += draw(st.lists(st.sampled_from(SENTENCE_STAGES), max_size=2))
    if draw(st.booleans()):
        stages.append(textprep.TOKENIZE)
        tagged = False
        for stage in draw(st.lists(st.sampled_from(TOKEN_STAGES), max_size=9)):
            if stage == textprep.LEMMATIZE and not tagged:
                continue
            tagged = tagged or stage == textprep.POS_TAG
            stages.append(stage)
    return tuple(stages)


texts = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(WORDS), st.text(max_size=6)),
        st.sampled_from(SEPARATORS),
    ),
    max_size=24,
).map(lambda parts: "".join(word + sep for word, sep in parts))

stoplists = st.one_of(
    st.none(),
    st.frozensets(st.sampled_from([w.lower() for w in WORDS]), max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(text=texts, stages=stage_orders(), stoplist=stoplists)
def test_compiled_pipeline_matches_reference(text, stages, stoplist):
    ref_rules = ref_load_lemma_rules()
    expected = ref_preprocess_text(text, stages, stoplist, ref_rules)
    if stoplist is None:
        assert preprocess_text(text, CompiledPipeline(stages)) == expected
    # one memo over many texts gives each text's own result
    pipeline = CompiledPipeline(stages, stoplist)
    assert pipeline.clean(text) == expected
    assert pipeline.clean(text + " " + text) == ref_preprocess_text(
        text + " " + text, stages, stoplist, ref_rules
    )
    assert pipeline.clean(text) == expected


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=80))
def test_lemma_rules_indexed_by_pos_match_the_linear_scan(text):
    ref_rules = ref_load_lemma_rules()
    for word in text.split() + WORDS:
        for pos in sorted(textprep.POS_TAGS):
            assert lemmatize(Token(word, pos)) == ref_lemmatize(
                RefToken(word, pos), ref_rules
            )
