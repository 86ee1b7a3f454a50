"""Tests for the BILOU codec and annotated dataset construction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadscope import nerdata, textprep
from threadscope.errors import FormatError, InvalidBilouError
from threadscope.nerdata import (
    AnnotatedSentence,
    KeywordSpec,
    Span,
    bilou_to_spans,
    build_ner_dataset,
    count_labels,
    label_counts_table,
    load_keyword_spec,
    parse_tag,
    read_annotations,
    sentence_matches,
    spans_to_bilou,
    validate_bilou,
    write_annotations,
)


def join_multiword_keywords(sentence, keywords, mode="prefix"):
    return nerdata._keyword_joiner(keywords, mode)(sentence)


# ---------------------------------------------------------------- basics


def test_span_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Span(-1, 2, "PPE")
    with pytest.raises(ValueError):
        Span(2, 2, "PPE")
    with pytest.raises(ValueError):
        Span(3, 1, "PPE")


def test_annotated_sentence_length_check():
    with pytest.raises(ValueError):
        AnnotatedSentence(tokens=["a", "b"], tags=["O"])


def test_parse_tag():
    assert parse_tag("O") == ("O", "")
    assert parse_tag("U-PPE") == ("U", "PPE")
    assert parse_tag("B-SYM") == ("B", "SYM")
    for bad in ("X-PPE", "B", "B-", "-PPE", "u-PPE"):
        with pytest.raises(ValueError):
            parse_tag(bad)


# ---------------------------------------------------------------- encoding


def test_spans_to_bilou_examples():
    tokens = ["wear", "a", "face", "mask", "now"]
    assert spans_to_bilou(tokens, [Span(3, 4, "PPE")]) == [
        "O",
        "O",
        "O",
        "U-PPE",
        "O",
    ]
    assert spans_to_bilou(tokens, [Span(2, 4, "PPE")]) == [
        "O",
        "O",
        "B-PPE",
        "L-PPE",
        "O",
    ]
    assert spans_to_bilou(tokens, [Span(1, 4, "PPE"), Span(4, 5, "DIT")]) == [
        "O",
        "B-PPE",
        "I-PPE",
        "L-PPE",
        "U-DIT",
    ]


def test_spans_to_bilou_rejects_out_of_bounds():
    with pytest.raises(ValueError, match=r"^span \[1, 3\) exceeds sentence length 2$"):
        spans_to_bilou(["a", "b"], [Span(1, 3, "PPE")])


def test_spans_to_bilou_rejects_overlap():
    with pytest.raises(ValueError, match=r"^span \[1, 3\) overlaps a previous span$"):
        spans_to_bilou(["a", "b", "c"], [Span(0, 2, "PPE"), Span(1, 3, "DIT")])


# ---------------------------------------------------------------- decoding


def test_validate_bilou_reports_first_bad_position():
    with pytest.raises(InvalidBilouError) as excinfo:
        validate_bilou(["O", "I-PPE", "O"])
    assert excinfo.value.position == 1
    with pytest.raises(InvalidBilouError) as excinfo:
        validate_bilou(["B-PPE", "L-DIT"])
    assert excinfo.value.position == 1
    with pytest.raises(InvalidBilouError) as excinfo:
        validate_bilou(["B-PPE", "I-PPE"])
    assert excinfo.value.position == 1


def test_strict_decode_round_trips():
    tags = ["O", "B-PPE", "I-PPE", "L-PPE", "U-DIT", "O"]
    assert bilou_to_spans(tags) == [Span(1, 4, "PPE"), Span(4, 5, "DIT")]


def test_strict_decode_raises_on_invalid():
    with pytest.raises(InvalidBilouError):
        bilou_to_spans(["I-PPE"])


@st.composite
def sentence_with_spans(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    spans = []
    i = 0
    while i < n:
        i += draw(st.integers(min_value=0, max_value=2))
        if i >= n:
            break
        length = draw(st.integers(min_value=1, max_value=min(3, n - i)))
        if draw(st.booleans()):
            spans.append(Span(i, i + length, draw(st.sampled_from(["PPE", "SYM", "DIT"]))))
        i += length
    return n, spans


@given(sentence_with_spans())
def test_codec_round_trip(case):
    n, spans = case
    tokens = ["w"] * n
    tags = spans_to_bilou(tokens, spans)
    validate_bilou(tags)
    assert bilou_to_spans(tags) == sorted(spans, key=lambda s: s.start)


# ---------------------------------------------------------------- keywords


def test_keyword_spec_validation():
    with pytest.raises(ValueError):
        KeywordSpec(by_category={"PPE": ("mask",)}, cap=0)
    with pytest.raises(ValueError):
        KeywordSpec(by_category={"PPE": ("mask",)}, match_mode="regex")
    with pytest.raises(ValueError):
        KeywordSpec(by_category={"PPE": ("Mask",)})


def test_load_keyword_spec(tmp_path):
    path = tmp_path / "kw.tsv"
    path.write_text("# comment\n\nPPE\tface mask\nPPE\tglove\nSYM\tFever\n")
    spec = load_keyword_spec(path, cap=5)
    assert spec.by_category == {"PPE": ("face mask", "glove"), "SYM": ("fever",)}
    assert spec.cap == 5
    assert spec.all_keywords() == ["face mask", "glove", "fever"]


def test_load_keyword_spec_reads_a_file_with_a_bom_as_without(tmp_path):
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text("PPE\tmask\nSYM\tfever\n", encoding="utf-8")
    bom.write_text("PPE\tmask\nSYM\tfever\n", encoding="utf-8-sig")
    assert load_keyword_spec(bom) == load_keyword_spec(plain)
    assert load_keyword_spec(bom).by_category == {"PPE": ("mask",), "SYM": ("fever",)}


def test_load_keyword_spec_bad_line(tmp_path):
    path = tmp_path / "kw.tsv"
    path.write_text("PPE\tmask\njust one column\n")
    with pytest.raises(FormatError) as excinfo:
        load_keyword_spec(path)
    assert excinfo.value.line_no == 2


def test_shipped_keyword_file_loads():
    from threadscope import nerdata
    from pathlib import Path

    path = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
    spec = load_keyword_spec(path)
    assert set(spec.by_category) == {"DIST", "DIT", "PPE", "SYM", "TEST"}
    assert all(kw == kw.lower() for kw in spec.all_keywords())


def test_sentence_matches_prefix_vs_substring():
    assert sentence_matches("masks are required", "mask")
    assert not sentence_matches("unmask the truth", "mask")
    assert sentence_matches("unmask the truth", "mask", mode="substring")
    assert sentence_matches("get a rapid test kit", "rapid test")
    assert not sentence_matches("rapid response test", "rapid test")


def test_join_multiword_keywords():
    out = join_multiword_keywords("wear a Face Mask now", ["face mask"])
    assert out == "wear a Face_Mask now"
    # prefix matching joins inflected forms too
    assert join_multiword_keywords("face masks help", ["face mask"]) == (
        "face_masks help"
    )
    # longer keywords win
    out = join_multiword_keywords(
        "drive thru testing site", ["drive thru", "drive thru testing"]
    )
    assert out == "drive_thru_testing site"
    # single-word keywords never join anything
    assert join_multiword_keywords("a b c", ["b"]) == "a b c"


# ---------------------------------------------------------------- extraction


CORPUS = [
    "masks are cheap",
    "wear a face mask in stores",
    "fever and cough all week",
    "masks again",
    "nothing relevant here",
    "fever came back",
]


def spec_of(**by_category):
    return KeywordSpec(
        by_category={c: tuple(v) for c, v in by_category.items()}, cap=250
    )


def test_build_ner_dataset_extracts_and_tags_all_o():
    train, evalset = build_ner_dataset(
        CORPUS, spec_of(PPE=["face mask"], SYM=["fever"]), split_ratio=0.65, seed=0
    )
    sentences = train + evalset
    assert len(sentences) == 3
    for sent in sentences:
        assert sent.tags == ["O"] * len(sent.tokens)
    joined = [" ".join(s.tokens) for s in sentences]
    assert any("face_mask" in text for text in joined)


def test_build_ner_dataset_cap_limits_per_keyword():
    train, evalset = build_ner_dataset(
        CORPUS, KeywordSpec(by_category={"SYM": ("fever",)}, cap=1), seed=0
    )
    assert len(train) + len(evalset) == 1


def test_build_ner_dataset_dedups_across_keywords():
    train, evalset = build_ner_dataset(
        ["fever and cough"], spec_of(SYM=["fever", "cough"]), seed=0
    )
    assert len(train) + len(evalset) == 1


def test_build_ner_dataset_split_and_determinism():
    corpus = [f"mask number {i}" for i in range(10)]
    train, evalset = build_ner_dataset(corpus, spec_of(PPE=["mask"]), 0.65, seed=3)
    assert len(train) == 7 and len(evalset) == 3
    again = build_ner_dataset(corpus, spec_of(PPE=["mask"]), 0.65, seed=3)
    assert (train, evalset) == again


def test_build_ner_dataset_rejects_bad_ratio_and_empty_result():
    with pytest.raises(ValueError):
        build_ner_dataset(CORPUS, spec_of(PPE=["mask"]), split_ratio=1.0)
    with pytest.raises(ValueError, match="^no sentence matched any keyword$"):
        build_ner_dataset(["nothing"], spec_of(PPE=["mask"]))


def test_keyword_spec_rejects_keyword_without_words():
    with pytest.raises(ValueError):
        KeywordSpec(by_category={"PPE": ("mask", " ")})


# Reference extraction and joining as they ran before the first-word index:
# every keyword re-lowers and re-splits every sentence, and every position
# re-splits every multi-word keyword.


def reference_word_matches(token, kw_word, mode):
    return token.startswith(kw_word) if mode == "prefix" else kw_word in token


def reference_matches(sentence, keyword, mode):
    words, kw_words = sentence.lower().split(), keyword.split()
    return any(
        all(
            reference_word_matches(words[i + j], kw_words[j], mode)
            for j in range(len(kw_words))
        )
        for i in range(len(words) - len(kw_words) + 1)
    )


def reference_join(sentence, keywords, mode):
    multi = sorted(
        (kw for kw in keywords if " " in kw), key=lambda kw: (-len(kw.split()), kw)
    )
    if not multi:
        return sentence
    chunks = sentence.split()
    lowered = [c.lower() for c in chunks]
    out = []
    i = 0
    while i < len(chunks):
        joined = None
        for kw in multi:
            kw_words = kw.split()
            m = len(kw_words)
            if i + m <= len(chunks) and all(
                reference_word_matches(lowered[i + j], kw_words[j], mode)
                for j in range(m)
            ):
                joined = "_".join(chunks[i : i + m])
                i += m
                break
        if joined is None:
            out.append(chunks[i])
            i += 1
        else:
            out.append(joined)
    return " ".join(out)


def reference_build(sentences, spec, split_ratio, seed):
    extracted, seen = [], set()
    for keyword in spec.all_keywords():
        hits = 0
        for sentence in sentences:
            if hits >= spec.cap:
                break
            if not reference_matches(sentence, keyword, spec.match_mode):
                continue
            hits += 1
            if sentence not in seen:
                seen.add(sentence)
                extracted.append(sentence)
    if not extracted:
        raise ValueError("no sentence matched any keyword")
    skeletons = []
    for sentence in extracted:
        tokens = textprep.tokenize(
            reference_join(sentence, spec.all_keywords(), spec.match_mode)
        )
        skeletons.append(AnnotatedSentence(tokens=tokens, tags=["O"] * len(tokens)))
    random.Random(seed).shuffle(skeletons)
    n_train = int(split_ratio * len(skeletons) + 0.5)
    return skeletons[:n_train], skeletons[n_train:]


# Words that share prefixes and substrings, so prefix and substring modes
# disagree, plus case and spacing variants of the same text.
WORDS = [
    "mask", "Masks", "unmask", "face", "facemask", "Face", "social",
    "distancing", "soc", "hand", "sanitizer", "test", "testing", "a", "the",
]
KEYWORDS = [
    "mask", "face mask", "face", "social distancing", "soc", "ask",
    "hand sanitizer", "test", "face mask test", "a face", "face ",
]
sentence_text = st.lists(st.sampled_from(WORDS), max_size=7).flatmap(
    lambda words: st.sampled_from([" ".join(words), "  ".join(words) + " "])
)


@st.composite
def corpora(draw):
    pool = draw(st.lists(sentence_text, min_size=1, max_size=6))
    # drawing from a small pool repeats sentences
    return draw(st.lists(st.sampled_from(pool), max_size=14))


@given(
    corpora(),
    st.dictionaries(
        st.sampled_from(["PPE", "DIST", "TEST"]),
        st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=4),
        min_size=1,
    ),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["prefix", "substring"]),
    st.integers(min_value=0, max_value=3),
)
def test_build_ner_dataset_matches_reference_scan(sentences, by_category, cap, mode, seed):
    spec = KeywordSpec(
        by_category={c: tuple(kws) for c, kws in by_category.items()},
        cap=cap,
        match_mode=mode,
    )
    try:
        expected = reference_build(sentences, spec, 0.65, seed)
    except ValueError:
        with pytest.raises(ValueError, match="^no sentence matched any keyword$"):
            build_ner_dataset(sentences, spec, 0.65, seed)
        return
    assert build_ner_dataset(sentences, spec, 0.65, seed) == expected


def test_build_ner_dataset_counts_repeated_sentences_toward_cap():
    corpus = ["mask on", "mask on", "mask off", "face mask"]
    train, evalset = build_ner_dataset(
        corpus, KeywordSpec(by_category={"PPE": ("mask",)}, cap=2), seed=0
    )
    # both copies of "mask on" use up the cap; "mask off" is never reached
    assert [s.tokens for s in train + evalset] == [["mask", "on"]]
    # a sentence matching twice counts once
    train, evalset = build_ner_dataset(
        ["mask mask", "masks here"],
        KeywordSpec(by_category={"PPE": ("mask",)}, cap=2),
        seed=0,
    )
    assert len(train + evalset) == 2


@given(sentence_text, st.sampled_from(KEYWORDS), st.sampled_from(["prefix", "substring"]))
def test_sentence_matches_matches_reference(sentence, keyword, mode):
    assert sentence_matches(sentence, keyword, mode) == reference_matches(
        sentence, keyword, mode
    )


@given(
    sentence_text,
    st.lists(st.sampled_from(KEYWORDS), max_size=6),
    st.sampled_from(["prefix", "substring"]),
)
def test_join_multiword_keywords_matches_reference(sentence, keywords, mode):
    assert join_multiword_keywords(sentence, keywords, mode) == reference_join(
        sentence, keywords, mode
    )


# ---------------------------------------------------------------- files


def test_annotations_round_trip(tmp_path):
    sentences = [
        AnnotatedSentence(
            tokens=["wear", "face_masks", "!"], tags=["O", "U-PPE", "O"]
        ),
        AnnotatedSentence(
            tokens=["social", "distancing", "works"],
            tags=["B-DIST", "L-DIST", "O"],
        ),
    ]
    path = tmp_path / "ann.tsv"
    write_annotations(sentences, path)
    assert read_annotations(path) == sentences
    text = path.read_text()
    assert "wear\tO\n" in text
    assert text.endswith("\n\n")


def test_read_annotations_rejects_bad_tag(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("wear\tO\nmask\tX-PPE\n\n")
    with pytest.raises(FormatError) as excinfo:
        read_annotations(path)
    assert excinfo.value.line_no == 2


def test_read_annotations_rejects_invalid_bilou_with_file_line(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("wear\tO\nmask\tI-PPE\n\nok\tO\n")
    with pytest.raises(FormatError) as excinfo:
        read_annotations(path)
    assert excinfo.value.line_no == 2
    assert str(excinfo.value) == "line 2: I-PPE without an open entity"


def test_read_annotations_ignores_extra_columns(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("mask\tU-PPE\textra\tstuff\n\n")
    (sentence,) = read_annotations(path)
    assert sentence.tokens == ["mask"]
    assert sentence.tags == ["U-PPE"]


def test_read_annotations_reads_a_file_with_a_bom_as_without(tmp_path):
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text("mask\tU-PPE\nworks\tO\n\n", encoding="utf-8")
    bom.write_text("mask\tU-PPE\nworks\tO\n\n", encoding="utf-8-sig")
    assert read_annotations(bom) == read_annotations(plain)
    assert read_annotations(bom)[0].tokens == ["mask", "works"]


def test_count_labels_and_table():
    sentences = [
        AnnotatedSentence(
            tokens=["a", "b", "c", "d"], tags=["B-PPE", "L-PPE", "O", "U-SYM"]
        ),
        AnnotatedSentence(tokens=["e"], tags=["U-PPE"]),
    ]
    counts = count_labels(sentences)
    assert counts == {"PPE": 3, "SYM": 1, "O": 1}
    assert list(counts)[-1] == "O"
    table = label_counts_table(counts)
    assert table.splitlines()[0] == "label\tcount"
    assert "PPE\t3" in table
