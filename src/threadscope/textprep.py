"""Rule-based text cleaning: URL stripping, sentence splitting, tokenization,
stopword/digit/punctuation removal, coarse POS tagging, and suffix
lemmatization.

Every linguistic resource (stopwords, abbreviations, closed-class lexicon,
verb stems, suffix rules, URL patterns) lives in a plain data file under
``threadscope/data``, so behaviour changes are data edits, not code edits.
All functions are pure and deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

# Coarse POS tags.
NOUN = "NOUN"
VERB = "VERB"
ADJ = "ADJ"
ADV = "ADV"
DET = "DET"
PRON = "PRON"
ADP = "ADP"
CONJ = "CONJ"
NUM = "NUM"
PUNCT = "PUNCT"
OTHER = "OTHER"

POS_TAGS = frozenset(
    {NOUN, VERB, ADJ, ADV, DET, PRON, ADP, CONJ, NUM, PUNCT, OTHER}
)

_NUM_EXTRA = frozenset(".,-%/")


@dataclass
class Token:
    """A single token: surface form, coarse POS tag, and lemma."""

    surface: str
    pos: str = OTHER
    lemma: str = ""

    def __post_init__(self) -> None:
        if not self.lemma and self.surface:
            self.lemma = self.surface.lower()

    @property
    def lower(self) -> str:
        return self.surface.lower()


@dataclass(frozen=True)
class LemmaRules:
    """Exception table plus ordered (pos, suffix, replacement, min_stem)
    suffix rules; the first matching rule wins."""

    # exceptions[pos][form] with "" as the any-POS key
    exceptions: dict[str, dict[str, str]]
    rules: tuple[tuple[str, str, str, int], ...]


def data_lines(
    path: str | Path | None, shipped: str = ""
) -> Iterator[tuple[int, str]]:
    """Yield (line_no, line) for every line of a data file that is neither
    blank nor a '#' comment; line_no counts every physical line from 1.
    Without a path, the shipped data file named `shipped` is read."""
    if path is None:
        text = (resources.files("threadscope.data") / shipped).read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield line_no, line


@lru_cache(maxsize=None)
def _default_stopwords() -> frozenset[str]:
    return load_stopwords(None)


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    return frozenset(
        line.strip().lower() for _, line in data_lines(path, "stopwords.txt")
    )


@lru_cache(maxsize=None)
def _default_abbreviations() -> frozenset[str]:
    return load_abbreviations(None)


def load_abbreviations(path: str | Path | None = None) -> frozenset[str]:
    return frozenset(
        line.strip().lower() for _, line in data_lines(path, "abbreviations.txt")
    )


@lru_cache(maxsize=None)
def _default_closed_class() -> dict[str, str]:
    return load_closed_class(None)


def load_closed_class(path: str | Path | None = None) -> dict[str, str]:
    table: dict[str, str] = {}
    for _, line in data_lines(path, "pos_closed_class.txt"):
        word, tag = line.split("\t")
        table[word.strip().lower()] = tag.strip()
    return table


@lru_cache(maxsize=None)
def _default_verb_stems() -> frozenset[str]:
    return load_verb_stems(None)


def load_verb_stems(path: str | Path | None = None) -> frozenset[str]:
    return frozenset(
        line.strip().lower() for _, line in data_lines(path, "verb_stems.txt")
    )


@lru_cache(maxsize=None)
def _default_lemma_rules() -> LemmaRules:
    return load_lemma_rules(None, None)


def load_lemma_rules(
    rules_path: str | Path | None = None,
    exceptions_path: str | Path | None = None,
) -> LemmaRules:
    rules: list[tuple[str, str, str, int]] = []
    for _, line in data_lines(rules_path, "lemma_rules.txt"):
        parts = line.split("\t")
        # replacement may be the empty string
        pos, suffix = parts[0], parts[1]
        replacement = parts[2] if len(parts) > 2 else ""
        min_stem = int(parts[3]) if len(parts) > 3 else 0
        rules.append((pos, suffix, replacement, min_stem))
    exceptions: dict[str, dict[str, str]] = {"": {}}
    for _, line in data_lines(exceptions_path, "lemma_exceptions.txt"):
        parts = line.split("\t")
        form, lemma = parts[0].lower(), parts[1]
        pos = parts[2] if len(parts) > 2 else ""
        exceptions.setdefault(pos, {})[form] = lemma
    return LemmaRules(exceptions=exceptions, rules=tuple(rules))


@lru_cache(maxsize=None)
def _default_url_patterns() -> tuple[re.Pattern[str], ...]:
    return load_url_patterns(None)


def load_url_patterns(path: str | Path | None = None) -> tuple[re.Pattern[str], ...]:
    return tuple(
        re.compile(line, re.IGNORECASE)
        for _, line in data_lines(path, "url_patterns.txt")
    )


def strip_urls(
    text: str, patterns: Sequence[re.Pattern[str]] | None = None
) -> str:
    """Remove URL-shaped substrings and collapse runs of whitespace."""
    if patterns is None:
        patterns = _default_url_patterns()
    for pattern in patterns:
        text = pattern.sub("", text)
    return " ".join(text.split())


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace, except after a known
    abbreviation; a trailing fragment without a terminator is a sentence."""
    if abbreviations is None:
        abbreviations = _default_abbreviations()
    sentences: list[str] = []
    start = 0
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        if i + 1 < len(text) and not text[i + 1].isspace():
            continue
        if ch == ".":
            # word ending at this period, e.g. "dr." or "u.s."
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


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(sentence: str) -> list[str]:
    """Split on whitespace, then detach leading/trailing punctuation as
    their own tokens; internal apostrophes, hyphens, and underscores stay."""
    tokens: list[str] = []
    for chunk in sentence.split():
        left = 0
        right = len(chunk)
        while left < right and not _is_word_char(chunk[left]):
            left += 1
        while right > left and not _is_word_char(chunk[right - 1]):
            right -= 1
        tokens.extend(chunk[:left])
        if left < right:
            tokens.append(chunk[left:right])
        tokens.extend(chunk[right:])
    return tokens


def remove_stopwords(tokens: Iterable[str], stoplist: frozenset[str] | None = None) -> list[str]:
    if stoplist is None:
        stoplist = _default_stopwords()
    return [t for t in tokens if t.lower() not in stoplist]


def _pos_for(
    lower: str, closed_class: dict[str, str], verb_stems: frozenset[str]
) -> str:
    tag = closed_class.get(lower)
    if tag is not None:
        return tag
    if any(ch.isdigit() for ch in lower) and all(
        ch.isdigit() or ch in _NUM_EXTRA for ch in lower
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


def pos_tag(
    tokens: Sequence[str],
    closed_class: dict[str, str] | None = None,
    verb_stems: frozenset[str] | None = None,
) -> list[Token]:
    """Assign coarse POS tags by lexicon lookup plus suffix heuristics."""
    if closed_class is None:
        closed_class = _default_closed_class()
    if verb_stems is None:
        verb_stems = _default_verb_stems()
    return [
        Token(surface=t, pos=_pos_for(t.lower(), closed_class, verb_stems))
        for t in tokens
    ]


def lemmatize(token: Token, rules: LemmaRules | None = None) -> str:
    """Map a POS-tagged token to its lemma: exceptions first, then the first
    matching suffix rule, else the lowercase surface unchanged."""
    if rules is None:
        rules = _default_lemma_rules()
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


STRIP_URLS = "strip_urls"
LOWERCASE = "lowercase"
SPLIT_SENTENCES = "split_sentences"
TOKENIZE = "tokenize"
REMOVE_STOPWORDS = "remove_stopwords"
REMOVE_DIGITS = "remove_digits"
POS_TAG = "pos_tag"
LEMMATIZE = "lemmatize"
REMOVE_NON_ASCII = "remove_non_ascii"
REMOVE_PUNCT = "remove_punct"

ALL_STAGES = frozenset(
    {
        STRIP_URLS,
        LOWERCASE,
        SPLIT_SENTENCES,
        TOKENIZE,
        REMOVE_STOPWORDS,
        REMOVE_DIGITS,
        POS_TAG,
        LEMMATIZE,
        REMOVE_NON_ASCII,
        REMOVE_PUNCT,
    }
)

# Stages that only make sense on raw text / only on tokens.
_TEXT_ONLY = frozenset({STRIP_URLS, SPLIT_SENTENCES})
_TOKEN_ONLY = frozenset(
    {REMOVE_STOPWORDS, REMOVE_DIGITS, POS_TAG, LEMMATIZE, REMOVE_PUNCT}
)

DEFAULT_STAGES: tuple[str, ...] = (
    STRIP_URLS,
    SPLIT_SENTENCES,
    TOKENIZE,
    REMOVE_STOPWORDS,
    REMOVE_DIGITS,
    POS_TAG,
    LEMMATIZE,
    REMOVE_NON_ASCII,
    LOWERCASE,
    REMOVE_PUNCT,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Ordered cleaning stages; text-level stages must precede tokenize and
    pos_tag must precede lemmatize."""

    stages: tuple[str, ...] = DEFAULT_STAGES

    def __post_init__(self) -> None:
        seen_tokenize = False
        seen_pos = False
        for stage in self.stages:
            if stage not in ALL_STAGES:
                raise ValueError(f"unknown stage: {stage!r}")
            if stage == TOKENIZE:
                seen_tokenize = True
            elif stage in _TEXT_ONLY and seen_tokenize:
                raise ValueError(f"stage {stage!r} must precede tokenize")
            elif stage in _TOKEN_ONLY and not seen_tokenize:
                raise ValueError(f"stage {stage!r} requires tokenize first")
            if stage == POS_TAG:
                seen_pos = True
            elif stage == LEMMATIZE and not seen_pos:
                raise ValueError("lemmatize requires pos_tag first")


@dataclass
class _Resources:
    stoplist: frozenset[str]
    rules: LemmaRules
    abbreviations: frozenset[str]
    closed_class: dict[str, str]
    verb_stems: frozenset[str]
    url_patterns: tuple[re.Pattern[str], ...]


def _default_resources(
    stoplist: frozenset[str] | None, rules: LemmaRules | None
) -> _Resources:
    return _Resources(
        stoplist=_default_stopwords() if stoplist is None else stoplist,
        rules=_default_lemma_rules() if rules is None else rules,
        abbreviations=_default_abbreviations(),
        closed_class=_default_closed_class(),
        verb_stems=_default_verb_stems(),
        url_patterns=_default_url_patterns(),
    )


def _strip_non_ascii(s: str) -> str:
    return "".join(ch for ch in s if ord(ch) < 128)


def _strip_digits(s: str) -> str:
    return "".join(ch for ch in s if not ch.isdigit())


def _strip_punct(s: str) -> str:
    return "".join(ch for ch in s if _is_word_char(ch))


def _map_tokens(sentences: list[list[Token]], fn) -> list[list[Token]]:
    out: list[list[Token]] = []
    for sent in sentences:
        mapped = []
        for tok in sent:
            surface = fn(tok.surface)
            if surface:
                mapped.append(Token(surface=surface, pos=tok.pos))
        out.append(mapped)
    return out


def preprocess_text(
    text: str,
    config: PipelineConfig | None = None,
    stoplist: frozenset[str] | None = None,
    rules: LemmaRules | None = None,
) -> str:
    """Run the configured stages over raw text and return the cleaned,
    single-spaced string."""
    if config is None:
        config = PipelineConfig()
    res = _default_resources(stoplist, rules)

    state_text: str | None = text
    state_sentences: list[str] | None = None
    state_tokens: list[list[Token]] | None = None

    for stage in config.stages:
        if stage == STRIP_URLS:
            assert state_text is not None
            state_text = strip_urls(state_text, res.url_patterns)
        elif stage == SPLIT_SENTENCES:
            assert state_text is not None
            state_sentences = split_sentences(state_text, res.abbreviations)
            state_text = None
        elif stage == TOKENIZE:
            if state_sentences is None:
                assert state_text is not None
                state_sentences = [state_text] if state_text.strip() else []
            state_tokens = [
                [Token(surface=t) for t in tokenize(sent)]
                for sent in state_sentences
            ]
            state_sentences = None
        elif stage == LOWERCASE:
            if state_tokens is not None:
                state_tokens = _map_tokens(state_tokens, str.lower)
            elif state_sentences is not None:
                state_sentences = [s.lower() for s in state_sentences]
            else:
                assert state_text is not None
                state_text = state_text.lower()
        elif stage == REMOVE_NON_ASCII:
            if state_tokens is not None:
                state_tokens = _map_tokens(state_tokens, _strip_non_ascii)
            elif state_sentences is not None:
                state_sentences = [_strip_non_ascii(s) for s in state_sentences]
            else:
                assert state_text is not None
                state_text = _strip_non_ascii(state_text)
        elif stage == REMOVE_STOPWORDS:
            assert state_tokens is not None
            state_tokens = [
                [t for t in sent if t.lower not in res.stoplist]
                for sent in state_tokens
            ]
        elif stage == REMOVE_DIGITS:
            assert state_tokens is not None
            state_tokens = _map_tokens(state_tokens, _strip_digits)
        elif stage == REMOVE_PUNCT:
            assert state_tokens is not None
            state_tokens = _map_tokens(state_tokens, _strip_punct)
        elif stage == POS_TAG:
            assert state_tokens is not None
            state_tokens = [
                pos_tag([t.surface for t in sent], res.closed_class, res.verb_stems)
                for sent in state_tokens
            ]
        elif stage == LEMMATIZE:
            assert state_tokens is not None
            state_tokens = [
                [Token(surface=lemmatize(t, res.rules), pos=t.pos) for t in sent]
                for sent in state_tokens
            ]

    if state_tokens is not None:
        return " ".join(t.surface for sent in state_tokens for t in sent)
    if state_sentences is not None:
        return " ".join(" ".join(s.split()) for s in state_sentences)
    assert state_text is not None
    return " ".join(state_text.split())


def preprocess_document(
    document,
    config: PipelineConfig | None = None,
    stoplist: frozenset[str] | None = None,
    rules: LemmaRules | None = None,
) -> str:
    """Clean ``document.raw_text``, store the result on
    ``document.cleaned_text``, and return it."""
    cleaned = preprocess_text(document.raw_text, config, stoplist, rules)
    document.cleaned_text = cleaned
    return cleaned
