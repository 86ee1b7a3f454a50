"""Annotated NER dataset construction and the BILOU tag codec.

Tags are plain strings: "O" or "<prefix>-<category>" with prefix in BILU.
Spans use half-open token index ranges [start, end).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    EmptyResultError,
    FormatError,
    InvalidBilouError,
    OverlappingSpansError,
    SpanOutOfBoundsError,
)
from . import textprep
from .records import FrozenRecord, Record

DEFAULT_CATEGORIES = ("DIST", "DIT", "PPE", "SYM", "TEST")

O_TAG = "O"
PREFIXES = ("B", "I", "L", "U")

PREFIX_MATCH = "prefix"
SUBSTRING_MATCH = "substring"


class Span(FrozenRecord):
    __slots__ = _fields = ("start", "end", "category")

    def __init__(self, start: int, end: int, category: str) -> None:
        if start < 0 or start >= end:
            raise ValueError(f"bad span bounds [{start}, {end})")
        self._freeze(start, end, category)


class AnnotatedSentence(Record):
    __slots__ = _fields = ("tokens", "tags")

    def __init__(self, tokens: list[str], tags: list[str]) -> None:
        if len(tokens) != len(tags):
            raise ValueError("tokens and tags must have equal length")
        self.tokens = tokens
        self.tags = tags


class KeywordSpec(FrozenRecord):
    """Per-category extraction keywords with a per-keyword sentence cap.

    ``match_mode`` is "prefix" (keyword word matches any token starting
    with it, so "mask" hits "masks" but not "unmask") or "substring".
    """

    __slots__ = _fields = ("by_category", "cap", "match_mode")

    def __init__(
        self,
        by_category: dict[str, tuple[str, ...]],
        cap: int = 250,
        match_mode: str = PREFIX_MATCH,
    ) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        if match_mode not in (PREFIX_MATCH, SUBSTRING_MATCH):
            raise ValueError(f"unknown match_mode {match_mode!r}")
        for category, keywords in by_category.items():
            for kw in keywords:
                if kw != kw.lower():
                    raise ValueError(f"keyword {kw!r} must be lowercase")
                if not kw.split():
                    raise ValueError("keywords must contain a word")
        self._freeze(by_category, cap, match_mode)

    def all_keywords(self) -> list[str]:
        out: list[str] = []
        for keywords in self.by_category.values():
            out.extend(keywords)
        return out


def load_keyword_spec(
    path: str | Path, cap: int = 250, match_mode: str = PREFIX_MATCH
) -> KeywordSpec:
    """Read CATEGORY<TAB>keyword lines ('#' comments allowed)."""
    by_category: dict[str, list[str]] = {}
    for line_no, line in textprep.data_lines(path):
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0].strip() or not parts[1].strip():
            raise FormatError(line_no, "expected CATEGORY<TAB>keyword")
        by_category.setdefault(parts[0].strip(), []).append(parts[1].strip().lower())
    return KeywordSpec(
        by_category={c: tuple(kws) for c, kws in by_category.items()},
        cap=cap,
        match_mode=match_mode,
    )


def _word_matches(token: str, kw_word: str, mode: str) -> bool:
    if mode == PREFIX_MATCH:
        return token.startswith(kw_word)
    return kw_word in token


def _find_keyword(words: list[str], kw_words: list[str], mode: str) -> int:
    """Index of the first occurrence of the keyword's word sequence in the
    lowercased whitespace tokens, or -1.  A keyword of no words matches at
    0."""
    if not kw_words:
        return 0
    first, m = kw_words[0], len(kw_words)
    positions = range(len(words) - m + 1)
    if mode == PREFIX_MATCH:
        starts = (i for i in positions if words[i].startswith(first))
    else:
        starts = (i for i in positions if first in words[i])
    for i in starts:
        if all(_word_matches(words[i + j], kw_words[j], mode) for j in range(1, m)):
            return i
    return -1


def sentence_matches(sentence: str, keyword: str, mode: str = PREFIX_MATCH) -> bool:
    kw_words = keyword.split()
    lowered = sentence.lower()
    # a matching token holds the first word, so the sentence does too
    if kw_words and kw_words[0] not in lowered:
        return False
    return _find_keyword(lowered.split(), kw_words, mode) >= 0


def _keyword_joiner(keywords: Sequence[str], mode: str) -> Callable[[str], str]:
    """A rewrite that joins the whitespace tokens of each occurrence of a
    multi-word keyword with underscores, longer keywords first; the
    keywords are sorted and split once."""
    ordered = sorted(
        (kw for kw in keywords if " " in kw), key=lambda kw: (-len(kw.split()), kw)
    )
    # An entry of one word ("mask ") could only rejoin a single chunk.
    multi = [
        (kw_words[0], len(kw_words), kw_words)
        for kw_words in map(str.split, ordered)
        if len(kw_words) > 1
    ]
    firsts = tuple(first for first, _, _ in multi)
    prefix = mode == PREFIX_MATCH

    def join(sentence: str) -> str:
        if not ordered:
            return sentence
        chunks = sentence.split()
        lowered = [c.lower() for c in chunks]
        n = len(chunks)
        out: list[str] = []
        i = 0
        while i < n:
            word = lowered[i]
            joined = None
            # in prefix mode one startswith call rules out most words
            if not prefix or word.startswith(firsts):
                for first, m, kw_words in multi:
                    if (
                        (word.startswith(first) if prefix else first in word)
                        and i + m <= n
                        and all(
                            _word_matches(lowered[i + j], kw_words[j], mode)
                            for j in range(1, m)
                        )
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

    return join


def _first_word_index(
    sentences: Sequence[str], first_words: set[str], mode: str
) -> dict[str, list[int]]:
    """Map each keyword first word to the ascending positions of the
    sentences holding a token that matches it.  The matching tokens are
    found among the sorted distinct types: by bisection in prefix mode,
    by a scan in substring mode.  Each pass lowercases and splits one
    sentence at a time: keeping every sentence's words costs more memory
    than the second split costs time."""
    types = sorted(
        {word for sentence in sentences for word in sentence.lower().split()}
    )
    matches: dict[str, list[str]] = {}
    for first in first_words:
        if mode == PREFIX_MATCH:
            j = bisect_left(types, first)
            while j < len(types) and types[j].startswith(first):
                matches.setdefault(types[j], []).append(first)
                j += 1
        else:
            for word in types:
                if first in word:
                    matches.setdefault(word, []).append(first)
    del types  # only the matching types are needed from here on
    index: dict[str, list[int]] = {first: [] for first in first_words}
    for pos, sentence in enumerate(sentences):
        for word in sentence.lower().split():
            for first in matches.get(word, ()):
                positions = index[first]
                if not positions or positions[-1] != pos:
                    positions.append(pos)
    return index


def build_ner_dataset(
    sentences: Sequence[str],
    spec: KeywordSpec,
    split_ratio: float = 0.65,
    seed: int = 0,
) -> tuple[list[AnnotatedSentence], list[AnnotatedSentence]]:
    """Extract up to ``spec.cap`` sentences per keyword (keyword order, then
    corpus order), dedup, underscore-join multi-word keyword hits, tokenize
    with all-O tags, and split train/eval by a seeded shuffle.

    Only the sentences the first-word index lists for a keyword are checked
    for its full word sequence; a repeated sentence keeps its own
    positions, so every copy counts toward ``cap``."""
    if not 0 < split_ratio < 1:
        raise ValueError("split_ratio must be in (0, 1)")
    keywords = spec.all_keywords()
    index = _first_word_index(
        sentences, {kw.split()[0] for kw in keywords}, spec.match_mode
    )

    def hits(keyword: str) -> Iterator[str]:
        kw_words = keyword.split()
        for pos in index[kw_words[0]]:
            sentence = sentences[pos]
            if _find_keyword(sentence.lower().split(), kw_words, spec.match_mode) >= 0:
                yield sentence

    extracted = dict.fromkeys(
        sentence for keyword in keywords for sentence in islice(hits(keyword), spec.cap)
    )
    if not extracted:
        raise EmptyResultError("no sentence matched any keyword")

    join = _keyword_joiner(keywords, spec.match_mode)
    skeletons: list[AnnotatedSentence] = []
    for sentence in extracted:
        tokens = textprep.tokenize(join(sentence))
        skeletons.append(AnnotatedSentence(tokens=tokens, tags=[O_TAG] * len(tokens)))

    random.Random(seed).shuffle(skeletons)
    n_train = int(split_ratio * len(skeletons) + 0.5)
    return skeletons[:n_train], skeletons[n_train:]


def parse_tag(tag: str) -> tuple[str, str]:
    """Split a tag into (prefix, category); O maps to ("O", "")."""
    if tag == O_TAG:
        return O_TAG, ""
    prefix, sep, category = tag.partition("-")
    if not sep or prefix not in PREFIXES or not category:
        raise ValueError(f"malformed tag {tag!r}")
    return prefix, category


def validate_bilou(tags: Sequence[str]) -> None:
    """Raise InvalidBilou at the first position violating the scheme."""
    open_cat: str | None = None
    for i, tag in enumerate(tags):
        try:
            prefix, category = parse_tag(tag)
        except ValueError as exc:
            raise InvalidBilouError(i, str(exc)) from exc
        if open_cat is None:
            if prefix in ("I", "L"):
                raise InvalidBilouError(i, f"{tag} without an open entity")
            if prefix == "B":
                open_cat = category
        else:
            if prefix not in ("I", "L") or category != open_cat:
                raise InvalidBilouError(
                    i, f"{tag} inside an open {open_cat} entity"
                )
            if prefix == "L":
                open_cat = None
    if open_cat is not None:
        raise InvalidBilouError(len(tags) - 1, "entity left open at sentence end")


def spans_to_bilou(tokens: Sequence[str], spans: Iterable[Span]) -> list[str]:
    """Encode non-overlapping spans over the tokens as BILOU tags."""
    n = len(tokens)
    ordered = sorted(spans, key=lambda s: s.start)
    tags = [O_TAG] * n
    prev_end = 0
    for span in ordered:
        if span.end > n:
            raise SpanOutOfBoundsError(
                f"span [{span.start}, {span.end}) exceeds sentence length {n}"
            )
        if span.start < prev_end:
            raise OverlappingSpansError(
                f"span [{span.start}, {span.end}) overlaps a previous span"
            )
        prev_end = span.end
        if span.end - span.start == 1:
            tags[span.start] = f"U-{span.category}"
        else:
            tags[span.start] = f"B-{span.category}"
            for i in range(span.start + 1, span.end - 1):
                tags[i] = f"I-{span.category}"
            tags[span.end - 1] = f"L-{span.category}"
    return tags


def _valid_bilou_spans(tags: Sequence[str]) -> list[Span]:
    """The spans of tags already known to be valid BILOU, unchecked: each
    tag is ``O`` or a one-letter prefix, a dash and its category."""
    spans: list[Span] = []
    start = -1
    for i, tag in enumerate(tags):
        prefix = tag[0]
        if prefix == "U":
            spans.append(Span(i, i + 1, tag[2:]))
        elif prefix == "B":
            start = i
        elif prefix == "L":
            spans.append(Span(start, i + 1, tag[2:]))
    return spans


def bilou_to_spans(tags: Sequence[str]) -> list[Span]:
    """Decode BILOU tags to spans, raising on an invalid sequence."""
    validate_bilou(tags)
    return _valid_bilou_spans(tags)


def write_annotations(
    sentences: Iterable[AnnotatedSentence], path: str | Path
) -> None:
    """Write token<TAB>tag lines with a blank line after each sentence."""
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            for token, tag in zip(sentence.tokens, sentence.tags):
                handle.write(f"{token}\t{tag}\n")
            handle.write("\n")


def read_annotations(path: str | Path) -> list[AnnotatedSentence]:
    """Parse an annotation file; tag columns beyond the second are ignored.
    Each sentence's tag sequence must pass strict BILOU validation."""
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    start_line = 1

    def flush(line_no: int) -> None:
        nonlocal tokens, tags, start_line
        if tokens:
            try:
                validate_bilou(tags)
            except InvalidBilouError as exc:
                raise InvalidBilouError(start_line + exc.position, str(exc)) from exc
            sentences.append(AnnotatedSentence(tokens=tokens, tags=tags))
        tokens, tags = [], []
        start_line = line_no + 1

    with open(path, encoding="utf-8-sig") as handle:  # may start with a BOM
        line_no = 0
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush(line_no)
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0]:
                raise FormatError(line_no, "expected token<TAB>tag")
            try:
                parse_tag(parts[1])
            except ValueError as exc:
                raise FormatError(line_no, str(exc)) from exc
            tokens.append(parts[0])
            tags.append(parts[1])
    flush(line_no)
    return sentences


def count_labels(sentences: Iterable[AnnotatedSentence]) -> dict[str, int]:
    """Token counts per category (B/I/L/U collapsed) plus O."""
    # O is the one tag whose category is empty
    counts = Counter(
        parse_tag(tag)[1] for sentence in sentences for tag in sentence.tags
    )
    o_count = counts.pop("", 0)
    out = {category: counts[category] for category in sorted(counts)}
    out[O_TAG] = o_count
    return out


def label_counts_table(counts: dict[str, int]) -> str:
    return textprep.table(("label", "count"), counts.items())
