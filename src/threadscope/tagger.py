"""Averaged perceptron BILOU sequence tagger with greedy constrained
decoding, span-level evaluation, and per-document entity detection.

Training knobs mirror the usual neural recipe: iterations are epochs, the
batch size compounds geometrically between a min and max each epoch, and
dropout (applied to update features, never at prediction) decays linearly
across epochs.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyTrainingSetError, ModelFormatError
from .nerdata import (
    AnnotatedSentence, O_TAG, PREFIXES, Span, _valid_bilou_spans, bilou_to_spans, parse_tag,
)
from . import textprep
from .records import FrozenRecord, Record

# the feature set a model's weights are keyed by: a model file names it,
# and loading refuses a file that names another
TEMPLATES_VERSION = "v1"
MODEL_VERSION = 1

START_WORD = "<s>"
END_WORD = "</s>"


class TrainConfig(FrozenRecord):
    __slots__ = _fields = (
        "iterations", "batch_min", "batch_max", "batch_growth",
        "dropout_start", "dropout_end", "seed",
    )

    def __init__(
        self,
        iterations: int = 30,
        batch_min: int = 4,
        batch_max: int = 32,
        batch_growth: float = 1.001,
        dropout_start: float = 0.5,
        dropout_end: float = 0.5,
        seed: int = 0,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be positive")
        if batch_min < 1 or batch_max < batch_min:
            raise ValueError("need 1 <= batch_min <= batch_max")
        if not batch_growth > 1:  # NaN too
            raise ValueError("batch_growth must exceed 1")
        for rate in (dropout_start, dropout_end):
            if not 0 <= rate < 1:
                raise ValueError("dropout rates must lie in [0, 1)")
        self._freeze(
            iterations, batch_min, batch_max, batch_growth, dropout_start, dropout_end, seed
        )

    def dropout_at(self, iteration: int) -> float:
        if self.iterations == 1:
            return self.dropout_start
        span = self.dropout_start - self.dropout_end
        return self.dropout_start - span * iteration / (self.iterations - 1)

    def batch_sizes(self, n: int) -> list[int]:
        """Batch sizes covering n sentences, compounding from batch_min;
        once a size reaches batch_max, every later one is batch_max, so
        the growth is no longer raised to a power."""
        sizes: list[int] = []
        size = j = 0
        while n > 0:
            if size < self.batch_max:
                size = int(min(self.batch_min * self.batch_growth**j, self.batch_max))
                j += 1
            sizes.append(max(1, min(size, n)))
            n -= sizes[-1]
        return sizes


class TaggerModel(Record):
    """Labels in decode order and the averaged weights, feature -> label
    -> weight; that dict is the on-disk form.  Decoding reads a compiled
    copy of it, built on first use, so change ``weights`` only before the
    model first tags.  The copy, ``_rows``, is not a field: equality and
    ``repr`` leave it out."""

    _fields = ("labels", "weights")
    __slots__ = (*_fields, "_rows")

    def __init__(
        self,
        labels: list[str],
        weights: dict[str, dict[str, float]] | None = None,
    ) -> None:
        self.labels = labels
        self.weights = {} if weights is None else weights
        self._rows: _Rows | None = None


def word_shape(word: str) -> str:
    return "".join(
        "X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit() else ch
        for ch in word
    )


def _allowed_labels(labels: Sequence[str], prev_tag: str, is_last: bool) -> list[str]:
    prev_prefix, prev_cat = parse_tag(prev_tag)
    if prev_prefix in ("B", "I"):
        # inside an entity: only continue or close it
        if is_last:
            return [f"L-{prev_cat}"]
        return [f"I-{prev_cat}", f"L-{prev_cat}"]
    if is_last:
        return [l for l in labels if l == O_TAG or l.startswith("U-")]
    return [
        l for l in labels if l == O_TAG or l.startswith(("B-", "U-"))
    ]


class _Word:
    """The feature strings of one distinct word: its own ``w=`` and
    ``shape=`` features and affixes, and the ``prev=``/``next=`` features
    it gives the positions beside it.  The features of a position are
    ``features(word before, word after, previous tag)``.  Shapes and
    affixes recur across words; given ``shared``, a word takes the copy
    of each that ``shared`` already holds."""

    __slots__ = ("own", "prev", "next", "affixes")

    def __init__(self, word: str, shared: dict[str, str] | None = None) -> None:
        lower = word.lower()
        shape = f"shape={word_shape(word)}"
        self.prev = f"prev={lower}"
        self.next = f"next={lower}"
        affixes: list[str] = []
        for k in (1, 2, 3):
            if len(lower) >= k:
                affixes += (f"pre{k}={lower[:k]}", f"suf{k}={lower[-k:]}")
        if shared is not None:
            shape = shared.setdefault(shape, shape)
            affixes = [shared.setdefault(affix, affix) for affix in affixes]
        self.own = ("bias", f"w={lower}", shape)
        self.affixes = tuple(affixes)

    def features(self, before: _Word, after: _Word, prev_tag: str) -> list[str]:
        return [*self.own, before.prev, after.next, f"ptag={prev_tag}", *self.affixes]


def _word_rows(rows: dict[str, list[float]], word: _Word) -> tuple:
    """A word's weight rows: (its ``bias``, ``w=`` and ``shape=`` rows,
    its ``prev=`` row, its ``next=`` row, its affix rows), in feature
    order.  A missing own or affix row is left out; a missing ``prev=`` or
    ``next=`` row is None.  Tuples, as the memo keeps one per word."""
    get = rows.get
    return (
        tuple([row for feature in word.own if (row := get(feature)) is not None]),
        get(word.prev),
        get(word.next),
        tuple([row for feature in word.affixes if (row := get(feature)) is not None]),
    )


class _Rows:
    """Weights as one list of floats per feature, aligned to the columns
    in ``column``, plus the allowed (label, column) pairs per (prev_tag,
    is_last), built once each.  The columns are the labels, then the I-/L-
    continuation of each B- label that the labels lack, which decoding may
    pick all the same; a weight for any other label can never be scored
    and is dropped.  ``fixed_rows`` and ``fixed_tags`` memoize, so they
    serve only weights that no longer change; training looks a word's rows
    up again whenever a row has been added since it last did."""

    def __init__(self, labels: Sequence[str], weights: dict[str, dict[str, float]]) -> None:
        self.labels = labels
        columns = dict.fromkeys(labels)
        for label in labels:
            if label.startswith("B-"):
                columns.update(dict.fromkeys((f"I-{label[2:]}", f"L-{label[2:]}")))
        self.column = {label: j for j, label in enumerate(columns)}
        self.ptag = {label: f"ptag={label}" for label in (O_TAG, *columns)}
        self.zeros = [0.0] * len(columns)
        self.rows: dict[str, list[float]] = {}
        for feature, row in weights.items():
            aligned = list(self.zeros)
            for label, value in row.items():
                j = self.column.get(label)
                if j is not None:
                    aligned[j] = value
            self.rows[feature] = aligned
        self._candidates: dict[tuple[str, bool], list[tuple[str, int]]] = {}
        # word -> its _word_rows, its index and its prev=/next= rows' indices
        self._memo: dict[str, tuple] = {}
        # id of a prev=/next= row (or of None) -> its small index
        self._row_index: dict[int, int] = {}
        # position key -> the tag chosen there
        self._tags: dict[int, str] = {}
        # where a key's word, left row and right row indices start: below
        # them, the previous tag's column and is_last
        column_bits = len(self.column).bit_length() + 1
        row_bits = (len(self.rows) + 1).bit_length()
        self._shifts = (column_bits + 2 * row_bits, column_bits + row_bits, column_bits)

    def candidates(self, prev_tag: str, is_last: bool) -> list[tuple[str, int]]:
        key = (prev_tag, is_last)
        found = self._candidates.get(key)
        if found is None:
            found = [
                (label, self.column[label])
                for label in _allowed_labels(self.labels, prev_tag, is_last)
            ]
            self._candidates[key] = found
        return found

    def fixed_rows(self, tokens: Sequence[str]) -> list[tuple]:
        """``_word_rows`` of the sentence edges and each token, looked up
        once per distinct word and followed by the word's index and the
        indices of its ``prev=`` and ``next=`` rows (None has one too)."""
        memo = self._memo
        index = self._row_index
        found = []
        for word in (START_WORD, *tokens, END_WORD):
            looked = memo.get(word)
            if looked is None:
                rows = _word_rows(self.rows, _Word(word))
                looked = memo[word] = (
                    *rows,
                    len(memo),
                    index.setdefault(id(rows[1]), len(index)),
                    index.setdefault(id(rows[2]), len(index)),
                )
            found.append(looked)
        return found

    def fixed_tags(self, tokens: Sequence[str]) -> list[str]:
        """``_decode`` of ``fixed_rows(tokens)``, scoring each distinct
        position once.  A position's tag depends only on its word, the
        left word's ``prev=`` row, the right word's ``next=`` row, the
        previous tag and whether it is last.  The key packs their indices
        into one int.  Each field below the word's is as wide as the most
        rows or columns the weights hold, and the word's index, which
        grows, is on top, so two positions share a key only when they
        share all five."""
        sentence_rows = self.fixed_rows(tokens)
        memo = self._tags
        column = self.column
        word_shift, left_shift, right_shift = self._shifts
        tags: list[str] = []
        prev = O_TAG
        last = len(sentence_rows) - 2
        for i in range(1, last + 1):
            before, here, after = sentence_rows[i - 1 : i + 2]
            is_last = i == last
            key = (
                here[4] << word_shift | before[5] << left_shift
                | after[6] << right_shift | column[prev] << 1 | is_last
            )
            tag = memo.get(key)
            if tag is None:
                tag = memo[key] = _choose(self, here, before[1], after[2], prev, is_last)
            tags.append(tag)
            prev = tag
        return tags


def _compiled(model: TaggerModel) -> _Rows:
    """The model's weights as label-aligned rows, built on first use."""
    if model._rows is None:
        model._rows = _Rows(model.labels, model.weights)
    return model._rows


def _choose(
    compiled: _Rows, rows: tuple, left: list | None, right: list | None,
    prev: str, is_last: bool,
) -> str:
    """The tag of one position given its word's ``_word_rows``, the left
    word's ``prev=`` row and the right word's ``next=`` row.

    Each candidate's score adds its weights in feature order, starting at
    0.0, and the first candidate in label order wins a tie."""
    found = list(rows[0])
    for row in (left, right, compiled.rows.get(compiled.ptag[prev])):
        if row is not None:
            found.append(row)
    found += rows[3]
    candidates = compiled.candidates(prev, is_last)
    best, best_score = candidates[0][0], None
    for label, j in candidates:
        score = 0.0
        for row in found:
            score += row[j]
        if best_score is None or score > best_score:
            best, best_score = label, score
    return best


def _decode(compiled: _Rows, sentence_rows: Sequence[tuple]) -> list[str]:
    """Greedy constrained decode of a sentence given as ``_word_rows`` of
    its start edge, each word and its end edge."""
    tags: list[str] = []
    prev = O_TAG
    last = len(sentence_rows) - 2
    for i in range(1, last + 1):
        prev = _choose(
            compiled, sentence_rows[i], sentence_rows[i - 1][1],
            sentence_rows[i + 1][2], prev, i == last,
        )
        tags.append(prev)
    return tags


def _sentence_words(sentences: Iterable[Sequence[str]]) -> list[list[_Word]]:
    """Each sentence as the entries of its start edge, tokens and end
    edge, one entry per distinct word."""
    entries: dict[str, _Word] = {}
    shared: dict[str, str] = {}
    found = []
    for tokens in sentences:
        words = []
        for word in (START_WORD, *tokens, END_WORD):
            entry = entries.get(word)
            if entry is None:
                entry = entries[word] = _Word(word, shared)
            words.append(entry)
        found.append(words)
    return found


def train_tagger(
    train: Sequence[AnnotatedSentence], config: TrainConfig
) -> TaggerModel:
    """Averaged perceptron training over seeded shuffles and compounding
    batches; updates are collected per batch and applied at batch end.

    Each sentence is kept as its words' feature entries, one per distinct
    word, and a decode is reused while no weight has changed since it ran:
    a decode reads nothing but the words and the weight rows."""
    if not train:
        raise EmptyTrainingSetError("no training sentences")
    categories = sorted(
        {
            parse_tag(tag)[1]
            for sentence in train
            for tag in sentence.tags
            if tag != O_TAG
        }
    )
    labels = [O_TAG] + [f"{p}-{c}" for c in categories for p in PREFIXES]

    compiled = _Rows(labels, {})
    weights = compiled.rows
    column = compiled.column
    sentences = _sentence_words(sentence.tokens for sentence in train)
    # the tags of each sentence's last decode, and the weights version it read
    decoded: list[tuple[int, list[str]] | None] = [None] * len(train)
    version = 0
    # each word's _word_rows and the number of weight rows when it was
    # read: rows are only ever added, never replaced or removed, so the
    # tuple holds until that number changes
    word_rows: dict[_Word, tuple[int, tuple]] = {}
    # sparse: only the (feature, label) pairs ever updated
    totals: dict[str, dict[str, float]] = {}
    stamps: dict[str, dict[str, int]] = {}
    rng = random.Random(config.seed)
    order = list(range(len(train)))
    step = 0

    def apply(feature: str, label: str, delta: float) -> None:
        nonlocal version
        version += 1
        row = weights.get(feature)
        if row is None:
            row = weights[feature] = list(compiled.zeros)
        j = column[label]
        trow = totals.setdefault(feature, {})
        srow = stamps.setdefault(feature, {})
        trow[label] = trow.get(label, 0.0) + row[j] * (step - srow.get(label, 0))
        srow[label] = step
        row[j] += delta

    for iteration in range(config.iterations):
        rng.shuffle(order)
        dropout = config.dropout_at(iteration)
        cursor = 0
        for size in config.batch_sizes(len(order)):
            batch = order[cursor : cursor + size]
            cursor += size
            updates: list[tuple[list[str], str, str]] = []
            for index in batch:
                words = sentences[index]
                last = decoded[index]
                if last is not None and last[0] == version:
                    predicted = last[1]
                else:
                    n_rows = len(weights)
                    sentence_rows = []
                    for word in words:
                        read = word_rows.get(word)
                        if read is None or read[0] != n_rows:
                            read = word_rows[word] = (n_rows, _word_rows(weights, word))
                        sentence_rows.append(read[1])
                    predicted = _decode(compiled, sentence_rows)
                    decoded[index] = (version, predicted)
                prev = O_TAG
                for i, (gold, pred) in enumerate(zip(train[index].tags, predicted), 1):
                    if gold != pred:
                        features = words[i].features(words[i - 1], words[i + 1], prev)
                        updates.append((features, gold, pred))
                    prev = pred
            step += 1
            for features, gold, pred in updates:
                for feature in features:
                    if dropout > 0 and rng.random() < dropout:
                        continue
                    apply(feature, gold, +1.0)
                    apply(feature, pred, -1.0)

    averaged: dict[str, dict[str, float]] = {}
    if step > 0:
        for feature, trow in totals.items():
            row = weights[feature]
            for label, total in trow.items():
                total += row[column[label]] * (
                    step + 1 - stamps[feature][label]
                )
                mean = total / step
                if mean != 0.0:
                    averaged.setdefault(feature, {})[label] = mean
    return TaggerModel(labels=labels, weights=averaged)


def tag_tokens(model: TaggerModel, tokens: Sequence[str]) -> list[str]:
    """Greedy left-to-right decode; output is always strictly BILOU-valid."""
    return _compiled(model).fixed_tags(tokens)


class Scores(NamedTuple):
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def scores_from_counts(tp: int, fp: int, fn: int) -> Scores:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return Scores(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


class EvalReport(NamedTuple):
    per_category: dict[str, Scores]
    micro: Scores


def compare_spans(
    gold: Sequence[Sequence[Span]], predicted: Sequence[Sequence[Span]]
) -> EvalReport:
    """Span-level exact-match counts per category plus micro totals."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for gold_spans, pred_spans in zip(gold, predicted):
        gold_set = set(gold_spans)
        pred_set = set(pred_spans)
        tp.update(span.category for span in gold_set & pred_set)
        fp.update(span.category for span in pred_set - gold_set)
        fn.update(span.category for span in gold_set - pred_set)
    per_category = {
        category: scores_from_counts(tp[category], fp[category], fn[category])
        for category in sorted({*tp, *fp, *fn})
    }
    micro = scores_from_counts(
        sum(s.tp for s in per_category.values()),
        sum(s.fp for s in per_category.values()),
        sum(s.fn for s in per_category.values()),
    )
    return EvalReport(per_category=per_category, micro=micro)


def evaluate_tagger(
    model: TaggerModel, eval_set: Sequence[AnnotatedSentence]
) -> EvalReport:
    gold = [bilou_to_spans(sentence.tags) for sentence in eval_set]
    # the decoder only emits valid BILOU, so its spans are read unchecked
    predicted = [
        _valid_bilou_spans(tag_tokens(model, sentence.tokens))
        for sentence in eval_set
    ]
    return compare_spans(gold, predicted)


def save_model(model: TaggerModel, path: str | Path) -> None:
    payload = {**model._asdict(), "version": MODEL_VERSION, "templates": TEMPLATES_VERSION}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def _finite_weight(value) -> float:
    # a bool is an int; math.isfinite of a huge int raises OverflowError
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"weight {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"weight {value!r} is not finite")
    return float(value)


def _model_from_json(payload) -> TaggerModel:
    if not isinstance(payload, dict):
        raise ValueError("model is not an object")
    version = payload.get("version")
    if isinstance(version, bool) or version != MODEL_VERSION:
        raise ValueError(f"version must be {MODEL_VERSION}")
    if payload.get("templates") != TEMPLATES_VERSION:
        raise ValueError(f"templates must be {TEMPLATES_VERSION!r}")
    labels = payload.get("labels")
    if not isinstance(labels, list) or O_TAG not in labels:
        raise ValueError(f"labels must be a list of tags holding {O_TAG!r}")
    for label in labels:
        if not isinstance(label, str):
            raise ValueError("labels must be a list of tags")
        # a label's category is a column of the mentions table
        textprep.check_field("label", label)
        parse_tag(label)
    weights = payload.get("weights")
    if not isinstance(weights, dict) or not all(
        isinstance(row, dict) for row in weights.values()
    ):
        raise ValueError("weights must map each feature to an object")
    return TaggerModel(
        labels=labels,
        weights={
            feature: {label: _finite_weight(v) for label, v in row.items()}
            for feature, row in weights.items()
        },
    )


def load_model(path: str | Path) -> TaggerModel:
    """Read a model written by ``save_model``; a file that is not one
    raises ModelFormatError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return _model_from_json(json.load(handle))
        except (ValueError, OverflowError, RecursionError) as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc


def normalize_entity(tokens: Sequence[str]) -> str:
    """Merge surface variants: underscores to spaces, lowercase, per-token
    lemmatization, single-space join."""
    words = " ".join(tokens).replace("_", " ").split()
    tagged = textprep.pos_tag(words)
    return " ".join(textprep.lemmatize(token) for token in tagged)


def detect_document_entities(model: TaggerModel, document) -> list[tuple[str, str]]:
    """Normalized (category, name) mentions from one Document's title and
    comment bodies, in reading order."""
    mentions: list[tuple[str, str]] = []
    for sentence in textprep.document_sentences(document):
        tokens = textprep.tokenize(sentence)
        if not tokens:
            continue
        tags = tag_tokens(model, tokens)
        for span in _valid_bilou_spans(tags):
            name = normalize_entity(tokens[span.start : span.end])
            if name:
                mentions.append((span.category, name))
    return mentions
