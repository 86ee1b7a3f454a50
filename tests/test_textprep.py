from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from types import SimpleNamespace
from unittest import mock

import _sre
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threadscope import textprep
from threadscope.errors import FormatError
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


# ---------------------------------------------------------------- URL gate
# A URL pattern runs only on a text that holds its required literal.  These
# patterns cover alternation, optional and {0,} groups, escapes,
# lookarounds, verbose mode and IGNORECASE with cased literals, among them
# the Kelvin sign and the long s, which IGNORECASE matches to ASCII letters,
# and a circled letter, which has a case but is not alphabetic.
GATED_PATTERNS = [
    *(pattern for pattern, _ in textprep.load_url_patterns()),
    re.compile(r"https?://\S+"),
    re.compile(r"(?:ftp|https?)://\w+"),
    re.compile(r"ftp://x|www\.y"),
    re.compile(r"a(b:)?//c"),
    re.compile(r"x(:/){0,}/y"),
    re.compile(r"x(?::/)*?y"),
    re.compile(r"\.\.\.+"),
    re.compile(r"(?<=:)//[a-z]"),
    re.compile(r"(?<![a-z])www\.(?=[a-z])"),
    re.compile(r"WWW\.\S*", re.IGNORECASE),
    re.compile(r"S://K", re.IGNORECASE),
    re.compile("\u017f://\u212a", re.IGNORECASE),
    re.compile("\u24d0://", re.IGNORECASE),
    re.compile(r"(?i:k)://", re.ASCII),
    re.compile(r": / / \#", re.VERBOSE),
    re.compile(r"\b"),
    re.compile(r"(?:)"),
]
URL_PIECES = list("://. \tKkSs\u212a\u017f\u24d0\u24b6xyzabcWw#_-") + [
    "://", "www.", "WWW.", "http", "HTTPS", "ftp", "...", "s://k", "S://\u212a",
    "\u24b6://",
]
url_texts = st.lists(st.sampled_from(URL_PIECES), max_size=24).map("".join)


@pytest.mark.parametrize(
    "source, flags, literal",
    [
        (r"\b[a-zA-Z][a-zA-Z0-9+.-]*://\S+", re.IGNORECASE, "://"),
        (r"(?<!\S)www\.\S+", re.IGNORECASE, "."),
        (r"(?<!\S)www\.\S+", 0, "."),
        (r"http://|ftp://", 0, ""),
        (r"(://)?x", 0, ""),
        (r"a?://b*::", 0, "://"),
        (r"12\.34 5 6", re.VERBOSE, "12.3456"),
        (r"", 0, ""),
    ],
)
def test_required_literal_is_the_longest_caseless_run(source, flags, literal):
    assert textprep.required_literal(re.compile(source, flags)) == literal


@settings(max_examples=500)
@given(url_texts | st.text(max_size=30))
@example("see https://x.io and www.y.org. now")
@example("s://\u212a \u017f://k S://K")
@example("\u24b6://")
def test_a_pattern_gated_by_its_literal_removes_what_it_always_would(text):
    for pattern in GATED_PATTERNS:
        literal = textprep.required_literal(pattern)
        gated = pattern.sub("", text) if literal in text else text
        assert gated == pattern.sub("", text), pattern
    ungated = text
    for pattern, _ in textprep.load_url_patterns():
        ungated = pattern.sub("", ungated)
    assert strip_urls(text) == " ".join(ungated.split())


def test_single_pass_strippers_agree_with_the_character_tests_everywhere():
    every = "".join(map(chr, range(0x110000)))
    # \w on str is isalnum() plus "_"
    assert set(re.findall(r"\w", every)) == {
        ch for ch in every if ch.isalnum() or ch == "_"
    }
    # no character is both a letter and a digit
    assert not any(ch.isalpha() and ch.isdigit() for ch in every)
    # encode-ignore keeps exactly the code points below 128
    assert every.encode("ascii", "ignore").decode("ascii") == every[:128]
    # a character without a case by str's own mappings is one the regex
    # engine matches only as itself, also under IGNORECASE
    assert not any(
        _sre.unicode_iscased(ord(ch)) for ch in every if ch.lower() == ch == ch.upper()
    )
    assert textprep._strip_punct(every) == ref_strip_punct(every)
    assert textprep._strip_digits(every) == ref_strip_digits(every)
    assert textprep._strip_non_ascii(every) == ref_strip_non_ascii(every)


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


def test_load_stopwords_reads_a_file_with_a_bom_as_without(tmp_path):
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text("the\nand\n", encoding="utf-8")
    bom.write_text("the\nand\n", encoding="utf-8-sig")
    assert textprep.load_stopwords(bom) == textprep.load_stopwords(plain)
    assert textprep.load_stopwords(bom) == {"the", "and"}


def test_table_with_no_rows_writes_only_the_header_line():
    assert textprep.table(("label", "count"), []) == "label\tcount\n"
    assert textprep.table(("label", "count"), iter(())) == "label\tcount\n"


def test_table_writes_cells_as_str_does():
    rows = ((date(2020, 3, 1), 7, -2), ("micro", "0.5000", 0))
    assert textprep.table(("a", "b", "c"), rows) == (
        "a\tb\tc\n2020-03-01\t7\t-2\nmicro\t0.5000\t0\n"
    )


def test_table_ends_every_line_in_a_newline():
    text = textprep.table(("term", "weight"), ((f"w{i}", i) for i in range(3)))
    lines = text.splitlines(keepends=True)
    assert len(lines) == 4
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)


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


def test_closed_class_refuses_a_tag_outside_pos_tags(monkeypatch):
    lines = list(textprep.data_lines(None, "pos_closed_class.txt"))
    line_no, line = lines[0]
    lines[0] = (line_no, line.replace("\tDET", "\tDETERMINER"))
    monkeypatch.setattr(textprep, "data_lines", lambda path, shipped: iter(lines))
    textprep.load_closed_class.cache_clear()
    try:
        with pytest.raises(FormatError, match=f"^line {line_no}: .*'DETERMINER'"):
            textprep.load_closed_class()
    finally:
        textprep.load_closed_class.cache_clear()


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


# The character-loop forms of the POS heuristics and the three strippers,
# copied verbatim before the production ones were rewritten as single
# passes, so the reference checks the rewrite and not itself.
_REF_NUM_EXTRA = frozenset(".,-%/")


def ref_pos_for(
    lower: str, closed_class: dict[str, str], verb_stems: frozenset[str]
) -> str:
    tag = closed_class.get(lower)
    if tag is not None:
        return tag
    if any(ch.isdigit() for ch in lower) and all(
        ch.isdigit() or ch in _REF_NUM_EXTRA for ch in lower
    ):
        return NUM
    if not any(ch.isalnum() for ch in lower):
        return PUNCT
    if lower.endswith("ing") and len(lower) > 4:
        return VERB
    if lower.endswith("ed") and len(lower) > 3:
        return VERB
    if lower.endswith("ly") and len(lower) > 3:
        return ADV
    if len(lower) > 4 and lower[-3:] in ("ous", "ful", "ive"):
        return ADJ
    if lower.endswith("s"):
        stems = [lower[:-1]]
        if lower.endswith("es"):
            stems.append(lower[:-2])
        if lower.endswith("ies"):
            stems.append(lower[:-3] + "y")
        if any(stem in verb_stems for stem in stems):
            return VERB
    return NOUN


def _ref_is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def ref_strip_non_ascii(s: str) -> str:
    return "".join(ch for ch in s if ord(ch) < 128)


def ref_strip_digits(s: str) -> str:
    return "".join(ch for ch in s if not ch.isdigit())


def ref_strip_punct(s: str) -> str:
    return "".join(ch for ch in s if _ref_is_word_char(ch))


def ref_pos_tag(tokens, closed_class, verb_stems) -> list[RefToken]:
    return [
        RefToken(surface=t, pos=ref_pos_for(t.lower(), closed_class, verb_stems))
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
                state_tokens = ref_map_tokens(state_tokens, ref_strip_non_ascii)
            elif state_sentences is not None:
                state_sentences = [ref_strip_non_ascii(s) for s in state_sentences]
            else:
                assert state_text is not None
                state_text = ref_strip_non_ascii(state_text)
        elif stage == textprep.REMOVE_STOPWORDS:
            assert state_tokens is not None
            state_tokens = [
                [t for t in sent if t.lower not in res.stoplist]
                for sent in state_tokens
            ]
        elif stage == textprep.REMOVE_DIGITS:
            assert state_tokens is not None
            state_tokens = ref_map_tokens(state_tokens, ref_strip_digits)
        elif stage == textprep.REMOVE_PUNCT:
            assert state_tokens is not None
            state_tokens = ref_map_tokens(state_tokens, ref_strip_punct)
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
        return " ".join(" ".join(state_sentences).split())
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


@pytest.fixture(scope="module")
def stoplist_file(tmp_path_factory):
    return tmp_path_factory.mktemp("stoplist") / "stoplist.txt"


@settings(max_examples=400, deadline=None)
@given(text=texts, stages=stage_orders(), stoplist=stoplists)
# a sentence stage that empties the last sentence leaves no trailing space
@example(text="a. 日本", stages=("split_sentences", "remove_non_ascii"), stoplist=None)
def test_compiled_pipeline_matches_reference(stoplist_file, text, stages, stoplist):
    if stoplist is not None:
        stoplist_file.write_text("".join(f"{word}\n" for word in sorted(stoplist)), "utf-8")
        # a stoplist file holds one word a line, and so no empty word
        stoplist -= {""}
    ref_rules = ref_load_lemma_rules()
    expected = ref_preprocess_text(text, stages, stoplist, ref_rules)
    if stoplist is None:
        assert preprocess_text(text, CompiledPipeline(stages)) == expected
    # one memo over many texts gives each text's own result
    pipeline = CompiledPipeline(stages, None if stoplist is None else stoplist_file)
    assert pipeline.clean(text) == expected
    assert pipeline.clean(text + " " + text) == ref_preprocess_text(
        text + " " + text, stages, stoplist, ref_rules
    )
    assert pipeline.clean(text) == expected


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_pos_heuristics_match_the_character_loop(text):
    closed_class, verb_stems = textprep.load_closed_class(), textprep.load_verb_stems()
    for word in text.split() + tokenize(text) + WORDS:
        lower = word.lower()
        assert textprep._pos_for(lower, closed_class, verb_stems) == ref_pos_for(
            lower, closed_class, verb_stems
        )


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=80))
def test_lemma_rules_indexed_by_pos_match_the_linear_scan(text):
    ref_rules = ref_load_lemma_rules()
    for word in text.split() + WORDS:
        for pos in sorted(textprep.POS_TAGS):
            assert lemmatize(Token(word, pos)) == ref_lemmatize(
                RefToken(word, pos), ref_rules
            )


rule_files = st.lists(
    st.tuples(
        st.sampled_from([NOUN, VERB]),
        st.text("abs", max_size=3),
        st.text("xy", max_size=2),
        st.integers(0, 3),
    ),
    max_size=12,
)


@settings(max_examples=300)
@given(rules=rule_files, words=st.lists(st.text("abs", max_size=6), max_size=8))
def test_suffix_index_matches_the_linear_scan_on_any_rule_file(rules, words):
    """Empty suffixes, repeated suffixes, suffixes longer than the word and
    rules that do not fire for a short stem, which the shipped file lacks
    in some combinations."""
    lines = [(i + 1, "\t".join(map(str, rule))) for i, rule in enumerate(rules)]
    shipped = textprep.data_lines

    def data_lines(path, name=""):
        return iter(lines) if name == "lemma_rules.txt" else shipped(path, name)

    with mock.patch.object(textprep, "data_lines", data_lines):
        index = textprep.load_lemma_rules.__wrapped__()
        ref_rules = ref_load_lemma_rules()
    with mock.patch.object(textprep, "load_lemma_rules", lambda: index):
        for word in words + ["", "s", "as", "bas"]:
            for pos in (NOUN, VERB, ADJ):
                assert lemmatize(Token(word, pos)) == ref_lemmatize(
                    RefToken(word, pos), ref_rules
                )
