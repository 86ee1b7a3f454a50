"""Lexicon sentiment: per-sentence valence sums with a negation window,
a bounded compound score, three-way labels, and the entity-sentence
analysis protocol.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import FormatError
from .nerdata import PREFIX_MATCH, sentence_matches
from . import textprep

# compound = s / sqrt(s^2 + C)
NORMALIZATION_C = 15.0
POS_THRESHOLD = 0.05
NEG_THRESHOLD = -0.05

DEFAULT_NEGATORS = frozenset({"not", "no", "never", "n't"})
NEGATION_WINDOW = 3

POS = "pos"
NEG = "neg"
NEU = "neu"


def load_lexicon(path: str | Path | None = None) -> dict[str, float]:
    """Read token<TAB>valence lines ('#' comments allowed); valences must
    be finite and tokens are lowercased."""
    lexicon: dict[str, float] = {}
    for line_no, line in textprep.data_lines(path, "sentiment_lexicon.txt"):
        parts = line.strip().split("\t")
        if len(parts) != 2:
            raise FormatError(line_no, "expected token<TAB>valence")
        try:
            valence = float(parts[1])
        except ValueError as exc:
            raise FormatError(line_no, f"bad valence {parts[1]!r}") from exc
        if not math.isfinite(valence):
            raise FormatError(line_no, "valence must be finite")
        lexicon[parts[0].lower()] = valence
    return lexicon


class SentimentScore(NamedTuple):
    compound: float
    label: str


def label_for(compound: float) -> str:
    if compound >= POS_THRESHOLD:
        return POS
    if compound <= NEG_THRESHOLD:
        return NEG
    return NEU


def compound_of(s: float) -> float:
    return s / math.sqrt(s * s + NORMALIZATION_C)


def _is_negator(token: str) -> bool:
    return token in DEFAULT_NEGATORS or token.endswith("n't")


def sum_valence(tokens: Sequence[str], lexicon: dict[str, float]) -> float:
    """Sum token valences, sign-flipping any hit with a negator in the
    three preceding tokens."""
    total = 0.0
    for i, token in enumerate(tokens):
        valence = lexicon.get(token)
        if valence is None:
            continue
        window = tokens[max(0, i - NEGATION_WINDOW) : i]
        if any(_is_negator(w) for w in window):
            valence = -valence
        total += valence
    return total


def score_sentence(tokens: Sequence[str], lexicon: dict[str, float]) -> SentimentScore:
    """Tokens must already be lowercase."""
    s = sum_valence(tokens, lexicon)
    compound = compound_of(s)
    return SentimentScore(compound=compound, label=label_for(compound))


class EntitySentimentReport(NamedTuple):
    entity: str
    n_pos: int
    n_neg: int
    n_neu: int
    mean_compound: float


def analyze_entity_sentences(
    documents: Iterable,
    entity: str,
    lexicon: dict[str, float],
    min_tokens: int = 3,
) -> EntitySentimentReport:
    """Score every deduplicated sentence mentioning the entity (token-prefix
    match) across document titles and comment bodies; sentences shorter than
    min_tokens count as incomplete and are dropped."""
    unique = dict.fromkeys(
        sentence for doc in documents for sentence in textprep.document_sentences(doc)
    )
    needle = entity.lower()
    sentences = [s for s in unique if sentence_matches(s, needle, PREFIX_MATCH)]

    counts = {POS: 0, NEG: 0, NEU: 0}
    total_compound = 0.0
    retained = 0
    for sentence in sentences:
        tokens = [t.lower() for t in textprep.tokenize(sentence)]
        if len(tokens) < min_tokens:
            continue
        score = score_sentence(tokens, lexicon)
        counts[score.label] += 1
        total_compound += score.compound
        retained += 1
    mean = total_compound / retained if retained else 0.0
    return EntitySentimentReport(
        entity=entity,
        n_pos=counts[POS],
        n_neg=counts[NEG],
        n_neu=counts[NEU],
        mean_compound=mean,
    )
