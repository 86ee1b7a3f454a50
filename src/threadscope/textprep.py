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
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError
from .records import Record

try:  # the regex parser's module, renamed in Python 3.11
    from re import _constants as _re_constants, _parser as _re_parser
except ImportError:  # pragma: no cover
    import sre_constants as _re_constants
    import sre_parse as _re_parser

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


class Token(Record):
    """A single token: surface form and coarse POS tag."""

    __slots__ = _fields = ("surface", "pos")

    def __init__(self, surface: str, pos: str = OTHER) -> None:
        self.surface = surface
        self.pos = pos


class LemmaRules(NamedTuple):
    """Exception table plus one suffix index per POS: each suffix maps to
    its rules in file order, and the suffix lengths that occur are kept by
    the suffix's last character.  Of the rules that fire, the earliest in
    the file wins."""

    # exceptions[pos][form] with "" as the any-POS key
    exceptions: dict[str, dict[str, str]]
    # suffixes[pos][suffix]: (file position, replacement, min_stem) rules
    suffixes: dict[str, dict[str, tuple[tuple[int, str, int], ...]]]
    # lengths[pos][last character]: suffix lengths, shortest first; the
    # empty suffix ends every word, so its 0 is in each entry and alone
    # makes up the "" entry, which serves every other last character
    lengths: dict[str, dict[str, tuple[int, ...]]]


def data_lines(
    path: str | Path | None, shipped: str = ""
) -> Iterator[tuple[int, str]]:
    """Yield (line_no, line) for every line of a data file that is neither
    blank nor a '#' comment; line_no counts every physical line from 1.
    Without a path, the shipped data file named `shipped` is read."""
    if path is None:
        text = (resources.files("threadscope.data") / shipped).read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8-sig")  # a user file may start with a BOM
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield line_no, line


def check_field(name: str, value: str) -> None:
    """Refuse a value that is written as one column of a tab-separated
    file: ValueError if it holds a tab or a line break."""
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{name} must not hold a tab or line break")


def table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A tab-separated table: the header line, then one line per row
    with each cell as ``str`` writes it; every line ends in a newline.
    Callers format floats and check free-text cells themselves."""
    return "".join(
        ["\t".join(header) + "\n", *("\t".join(map(str, row)) + "\n" for row in rows)]
    )


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
    for line_no, line in data_lines(None, "pos_closed_class.txt"):
        word, tag = line.split("\t")
        tag = tag.strip()
        if tag not in POS_TAGS:
            raise FormatError(line_no, f"pos_closed_class.txt: unknown POS tag {tag!r}")
        table[word.strip().lower()] = tag
    return table


@lru_cache(maxsize=None)
def load_verb_stems() -> frozenset[str]:
    return frozenset(
        line.strip().lower() for _, line in data_lines(None, "verb_stems.txt")
    )


@lru_cache(maxsize=None)
def load_lemma_rules() -> LemmaRules:
    by_pos: dict[str, dict[str, list[tuple[int, str, int]]]] = {}
    for position, (_, line) in enumerate(data_lines(None, "lemma_rules.txt")):
        parts = line.split("\t")
        # replacement may be the empty string
        pos, suffix = parts[0], parts[1]
        replacement = parts[2] if len(parts) > 2 else ""
        min_stem = int(parts[3]) if len(parts) > 3 else 0
        by_suffix = by_pos.setdefault(pos, {})
        by_suffix.setdefault(suffix, []).append((position, replacement, min_stem))
    exceptions: dict[str, dict[str, str]] = {"": {}}
    for _, line in data_lines(None, "lemma_exceptions.txt"):
        parts = line.split("\t")
        form, lemma = parts[0].lower(), parts[1]
        pos = parts[2] if len(parts) > 2 else ""
        exceptions.setdefault(pos, {})[form] = lemma
    return LemmaRules(
        exceptions=exceptions,
        suffixes={
            pos: {suffix: tuple(rules) for suffix, rules in by_suffix.items()}
            for pos, by_suffix in by_pos.items()
        },
        lengths={pos: _suffix_lengths(by_suffix) for pos, by_suffix in by_pos.items()},
    )


def _suffix_lengths(suffixes: dict[str, object]) -> dict[str, tuple[int, ...]]:
    everywhere = {0} if "" in suffixes else set()
    ends: dict[str, set[int]] = {"": everywhere}
    for suffix in suffixes:
        if suffix:
            ends.setdefault(suffix[-1], set(everywhere)).add(len(suffix))
    return {last: tuple(sorted(lengths)) for last, lengths in ends.items()}


def required_literal(pattern: re.Pattern[str]) -> str:
    """The longest run of characters that every match of ``pattern`` holds
    in a row, or "" when there is none.  Only consecutive literal items of
    the pattern's top-level sequence count, and only characters without a
    case, which every flag matches as themselves."""
    best = run = ""
    for op, arg in _re_parser.parse(pattern.pattern, pattern.flags):
        ch = chr(arg) if op is _re_constants.LITERAL else ""
        if ch and ch.lower() == ch == ch.upper():
            run += ch
            best = max(best, run, key=len)
        else:
            run = ""
    return best


@lru_cache(maxsize=None)
def load_url_patterns() -> tuple[tuple[re.Pattern[str], str], ...]:
    """Each shipped URL pattern with its ``required_literal``."""
    patterns = (
        re.compile(line, re.IGNORECASE)
        for _, line in data_lines(None, "url_patterns.txt")
    )
    return tuple((pattern, required_literal(pattern)) for pattern in patterns)


def strip_urls(text: str) -> str:
    """Remove URL-shaped substrings and collapse runs of whitespace.  A
    pattern runs only on a text that holds its required literal: without
    it the pattern cannot match."""
    for pattern, literal in load_url_patterns():
        if literal in text:
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


def document_sentences(document) -> Iterator[str]:
    """The ``url_free_sentences`` of a document's title, then of each of
    its comment bodies: the sentences ner-tag and sentiment read."""
    for part in (document.title, *document.comment_bodies):
        yield from url_free_sentences(part)


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
    # no character is both alphabetic and a digit, so a word of letters is
    # neither a number nor punctuation
    if not lower.isalpha():
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
    """Map a POS-tagged token to its lemma: exceptions first, then the
    earliest suffix rule in the file that fires, else the lowercase surface
    unchanged.  Only the rules of the word's own suffixes are looked at."""
    rules = load_lemma_rules()
    lower = token.surface.lower()
    for key in (token.pos, ""):
        hit = rules.exceptions.get(key, {}).get(lower)
        if hit is not None:
            return hit
    ends = rules.lengths.get(token.pos)
    if ends is None:
        return lower
    by_suffix = rules.suffixes[token.pos]
    n = len(lower)
    best = None  # (file position, stem length, replacement)
    for length in ends.get(lower[-1:], ends[""]):
        if length > n:
            break
        for position, replacement, min_stem in by_suffix.get(lower[n - length :], ()):
            if n - length >= min_stem:
                if best is None or position < best[0]:
                    best = (position, n - length, replacement)
                break
    if best is None:
        return lower
    return lower[: best[1]] + best[2]


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
# the default pipeline runs every stage
ALL_STAGES = frozenset(DEFAULT_STAGES)


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
    return s.encode("ascii", "ignore").decode("ascii")


def _strip_digits(s: str) -> str:
    # the only ASCII digits are 0-9; a Unicode digit has no regex class
    if s.isascii():
        return s.encode("ascii").translate(None, b"0123456789").decode("ascii")
    return "".join(ch for ch in s if not ch.isdigit())


# For str patterns \W is every character but str.isalnum() and "_".
_NON_WORD = re.compile(r"\W")


def _strip_punct(s: str) -> str:
    return _NON_WORD.sub("", s)


# Stages that rewrite a string; a token they empty is dropped.
_STRIPPERS = {
    LOWERCASE: str.lower,
    REMOVE_NON_ASCII: _strip_non_ascii,
    REMOVE_DIGITS: _strip_digits,
    REMOVE_PUNCT: _strip_punct,
}


class CompiledPipeline:
    """Ordered cleaning stages, checked and compiled once against their
    word lists: the shipped ones, and the stoplist file if one is named,
    which is read only once the stages pass their check.

    The stages before tokenize run once per document, on the text or, after
    split_sentences, on each sentence.  Every stage after tokenize depends
    only on the token's surface (POS included), so they fold into one
    function of the surface, run once per distinct surface and remembered
    for the life of this object."""

    def __init__(
        self,
        stages: tuple[str, ...] = DEFAULT_STAGES,
        stoplist: str | Path | None = None,
    ) -> None:
        _check_stages(stages)
        cut = stages.index(TOKENIZE) if TOKENIZE in stages else len(stages)
        self._text_stages = stages[:cut]
        self._tokenizes = cut < len(stages)
        self._surface_stages = stages[cut + 1 :]
        self._stoplist = load_stopwords(stoplist) if stoplist else _default_stopwords()
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
            return " ".join(" ".join(pieces).split())
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
