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
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator, Sequence

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
    """A single token: surface form and coarse POS tag."""

    surface: str
    pos: str = OTHER


@dataclass(frozen=True)
class LemmaRules:
    """Exception table plus suffix rules grouped by POS: each POS maps to
    its (suffix, replacement, min_stem) rules in file order, and the first
    matching rule wins."""

    # exceptions[pos][form] with "" as the any-POS key
    exceptions: dict[str, dict[str, str]]
    rules: dict[str, tuple[tuple[str, str, int], ...]]


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


def check_field(name: str, value: str) -> None:
    """Refuse a value that is written as one column of a tab-separated
    file: ValueError if it holds a tab or a line break."""
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{name} must not hold a tab or line break")


@lru_cache(maxsize=None)
def _default_stopwords() -> frozenset[str]:
    return load_stopwords(None)


def load_stopwords(path: str | Path | None) -> frozenset[str]:
    return frozenset(
        line.strip().lower() for _, line in data_lines(path, "stopwords.txt")
    )


@lru_cache(maxsize=None)
def load_abbreviations() -> frozenset[str]:
    return frozenset(
        line.strip().lower() for _, line in data_lines(None, "abbreviations.txt")
    )


@lru_cache(maxsize=None)
def load_closed_class() -> dict[str, str]:
    table: dict[str, str] = {}
    for _, line in data_lines(None, "pos_closed_class.txt"):
        word, tag = line.split("\t")
        table[word.strip().lower()] = tag.strip()
    return table


@lru_cache(maxsize=None)
def load_verb_stems() -> frozenset[str]:
    return frozenset(
        line.strip().lower() for _, line in data_lines(None, "verb_stems.txt")
    )


@lru_cache(maxsize=None)
def load_lemma_rules() -> LemmaRules:
    by_pos: dict[str, list[tuple[str, str, int]]] = {}
    for _, line in data_lines(None, "lemma_rules.txt"):
        parts = line.split("\t")
        # replacement may be the empty string
        pos, suffix = parts[0], parts[1]
        replacement = parts[2] if len(parts) > 2 else ""
        min_stem = int(parts[3]) if len(parts) > 3 else 0
        by_pos.setdefault(pos, []).append((suffix, replacement, min_stem))
    exceptions: dict[str, dict[str, str]] = {"": {}}
    for _, line in data_lines(None, "lemma_exceptions.txt"):
        parts = line.split("\t")
        form, lemma = parts[0].lower(), parts[1]
        pos = parts[2] if len(parts) > 2 else ""
        exceptions.setdefault(pos, {})[form] = lemma
    rules = {pos: tuple(group) for pos, group in by_pos.items()}
    return LemmaRules(exceptions=exceptions, rules=rules)


@lru_cache(maxsize=None)
def load_url_patterns() -> tuple[re.Pattern[str], ...]:
    return tuple(
        re.compile(line, re.IGNORECASE)
        for _, line in data_lines(None, "url_patterns.txt")
    )


def strip_urls(text: str) -> str:
    """Remove URL-shaped substrings and collapse runs of whitespace."""
    for pattern in load_url_patterns():
        text = pattern.sub("", text)
    return " ".join(text.split())


# A terminator that ends a sentence: one followed by whitespace or the end.
_TERMINATOR = re.compile(r"[.!?](?=\s|\Z)")


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace, except after a known
    abbreviation; a trailing fragment without a terminator is a sentence."""
    abbreviations = load_abbreviations()
    sentences: list[str] = []
    start = 0
    for match in _TERMINATOR.finditer(text):
        i = match.start()
        if text[i] == ".":
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


def url_free_sentences(text: str) -> list[str]:
    """The sentences of ``text`` once URLs are stripped: the one sentence
    stream that ingest, stats, ner-tag and sentiment read."""
    return split_sentences(strip_urls(text))


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


# A token is a whitespace-free run that starts and ends with a word
# character, or one character that is neither.  For str patterns \w is
# str.isalnum() plus "_" and \s is str.isspace(), the tests of the
# character loop this replaced.
_TOKEN = re.compile(r"\w(?:\S*\w)?|[^\s\w]")


def tokenize(sentence: str) -> list[str]:
    """Split on whitespace, then detach leading/trailing punctuation as
    their own tokens; internal apostrophes, hyphens, and underscores stay."""
    return _TOKEN.findall(sentence)


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


def pos_tag(tokens: Sequence[str]) -> list[Token]:
    """Assign coarse POS tags by lexicon lookup plus suffix heuristics."""
    closed_class, verb_stems = load_closed_class(), load_verb_stems()
    return [
        Token(surface=t, pos=_pos_for(t.lower(), closed_class, verb_stems))
        for t in tokens
    ]


def lemmatize(token: Token) -> str:
    """Map a POS-tagged token to its lemma: exceptions first, then the first
    matching suffix rule, else the lowercase surface unchanged."""
    rules = load_lemma_rules()
    lower = token.surface.lower()
    for key in (token.pos, ""):
        hit = rules.exceptions.get(key, {}).get(lower)
        if hit is not None:
            return hit
    for suffix, replacement, min_stem in rules.rules.get(token.pos, ()):
        if lower.endswith(suffix) and len(lower) - len(suffix) >= min_stem:
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


def _check_stages(stages: tuple[str, ...]) -> None:
    """Text-level stages must precede tokenize and may not follow
    split_sentences, tokenize appears at most once, and pos_tag must
    precede lemmatize; ValueError otherwise."""
    seen_tokenize = False
    seen_split = False
    seen_pos = False
    for stage in stages:
        if stage not in ALL_STAGES:
            raise ValueError(f"unknown stage: {stage!r}")
        if stage == TOKENIZE:
            if seen_tokenize:
                raise ValueError("tokenize may appear only once")
            seen_tokenize = True
        elif stage in _TEXT_ONLY and seen_tokenize:
            raise ValueError(f"stage {stage!r} must precede tokenize")
        elif stage in _TEXT_ONLY and seen_split:
            raise ValueError(f"stage {stage!r} must precede split_sentences")
        elif stage in _TOKEN_ONLY and not seen_tokenize:
            raise ValueError(f"stage {stage!r} requires tokenize first")
        if stage == SPLIT_SENTENCES:
            seen_split = True
        elif stage == POS_TAG:
            seen_pos = True
        elif stage == LEMMATIZE and not seen_pos:
            raise ValueError("lemmatize requires pos_tag first")


def _strip_non_ascii(s: str) -> str:
    return "".join(ch for ch in s if ord(ch) < 128)


def _strip_digits(s: str) -> str:
    return "".join(ch for ch in s if not ch.isdigit())


def _strip_punct(s: str) -> str:
    return "".join(ch for ch in s if _is_word_char(ch))


# Stages that rewrite a string; a token they empty is dropped.
_STRIPPERS = {
    LOWERCASE: str.lower,
    REMOVE_NON_ASCII: _strip_non_ascii,
    REMOVE_DIGITS: _strip_digits,
    REMOVE_PUNCT: _strip_punct,
}


class CompiledPipeline:
    """Ordered cleaning stages, checked and compiled once against their
    word lists.

    The stages before tokenize run once per document, on the text or, after
    split_sentences, on each sentence.  Every stage after tokenize depends
    only on the token's surface (POS included), so they fold into one
    function of the surface, run once per distinct surface and remembered
    for the life of this object."""

    def __init__(
        self,
        stages: tuple[str, ...] = DEFAULT_STAGES,
        stoplist: frozenset[str] | None = None,
    ) -> None:
        _check_stages(stages)
        cut = stages.index(TOKENIZE) if TOKENIZE in stages else len(stages)
        self._text_stages = stages[:cut]
        self._tokenizes = cut < len(stages)
        self._surface_stages = stages[cut + 1 :]
        self._stoplist = _default_stopwords() if stoplist is None else stoplist
        self._closed_class = load_closed_class()
        self._verb_stems = load_verb_stems()
        self._memo: dict[str, str | None] = {}

    def _pieces(self, text: str) -> list[str]:
        """The text stages: one piece, or one per sentence once split."""
        pieces = [text]
        for stage in self._text_stages:
            if stage == STRIP_URLS:
                pieces = [strip_urls(pieces[0])]
            elif stage == SPLIT_SENTENCES:
                pieces = split_sentences(pieces[0])
            else:
                pieces = [_STRIPPERS[stage](piece) for piece in pieces]
        return pieces

    def _surface(self, surface: str) -> str | None:
        """A token's final form, or None once a stage drops it.  A lemma
        may be empty and is kept, as an empty token."""
        pos = OTHER
        for stage in self._surface_stages:
            if stage == REMOVE_STOPWORDS:
                if surface.lower() in self._stoplist:
                    return None
            elif stage == POS_TAG:
                pos = _pos_for(surface.lower(), self._closed_class, self._verb_stems)
            elif stage == LEMMATIZE:
                surface = lemmatize(Token(surface, pos))
            else:
                surface = _STRIPPERS[stage](surface)
                if not surface:
                    return None
        return surface

    def clean(self, text: str) -> str:
        """The cleaned text, tokens joined by single spaces."""
        pieces = self._pieces(text)
        if not self._tokenizes:
            return " ".join(" ".join(piece.split()) for piece in pieces)
        memo = self._memo
        out: list[str] = []
        for piece in pieces:
            for token in tokenize(piece):
                try:
                    cleaned = memo[token]
                except KeyError:
                    cleaned = memo[token] = self._surface(token)
                if cleaned is not None:
                    out.append(cleaned)
        return " ".join(out)


def preprocess_text(text: str, pipeline: CompiledPipeline | None = None) -> str:
    """Run the pipeline's stages (the default ones without a pipeline)
    over raw text and return the cleaned, single-spaced string.  Pass one
    CompiledPipeline to clean many texts with one memo of token surfaces."""
    return (pipeline or CompiledPipeline()).clean(text)


def preprocess_document(document, pipeline: CompiledPipeline | None = None) -> str:
    """Clean ``document.raw_text``, store the result on
    ``document.cleaned_text``, and return it."""
    cleaned = preprocess_text(document.raw_text, pipeline)
    document.cleaned_text = cleaned
    return cleaned
