"""Tests for perceptron training, constrained decoding, and entity counting."""

from __future__ import annotations

import json
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadscope import tagger
from threadscope.errors import EmptyTrainingSetError, ModelFormatError
from threadscope import nerdata
from threadscope.nerdata import AnnotatedSentence, Span, parse_tag, validate_bilou
from threadscope.report import EntityCount, counts_from_mentions
from threadscope.tagger import (
    Scores,
    TaggerModel,
    TrainConfig,
    compare_spans,
    detect_document_entities,
    evaluate_tagger,
    load_model,
    normalize_entity,
    save_model,
    scores_from_counts,
    tag_tokens,
    train_tagger,
    word_shape,
)

PPE_LABELS = ["O", "B-PPE", "I-PPE", "L-PPE", "U-PPE"]


def sent(tokens, tags):
    return AnnotatedSentence(tokens=list(tokens), tags=list(tags))


TRAIN_SET = [
    sent(["wear", "a", "mask"], ["O", "O", "U-PPE"]),
    sent(["mask", "rules"], ["U-PPE", "O"]),
    sent(["i", "have", "fever"], ["O", "O", "U-SYM"]),
    sent(["fever", "again"], ["U-SYM", "O"]),
    sent(["social", "distancing", "works"], ["B-DIST", "L-DIST", "O"]),
    sent(["try", "social", "distancing"], ["O", "B-DIST", "L-DIST"]),
    sent(["no", "entities", "here"], ["O", "O", "O"]),
    sent(["masks", "and", "fever"], ["U-PPE", "O", "U-SYM"]),
]


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_min=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_min=8, batch_max=4)
    for growth in (1.0, float("nan")):
        with pytest.raises(ValueError, match="batch_growth must exceed 1"):
            TrainConfig(batch_growth=growth)
    with pytest.raises(ValueError):
        TrainConfig(dropout_start=1.0)
    with pytest.raises(ValueError):
        TrainConfig(dropout_end=-0.1)


def test_dropout_decays_linearly():
    config = TrainConfig(iterations=5, dropout_start=0.5, dropout_end=0.1)
    assert config.dropout_at(0) == pytest.approx(0.5)
    assert config.dropout_at(2) == pytest.approx(0.3)
    assert config.dropout_at(4) == pytest.approx(0.1)
    assert TrainConfig(iterations=1, dropout_start=0.5).dropout_at(0) == 0.5


def test_batch_sizes_compound_and_cover():
    assert TrainConfig(batch_min=4, batch_max=32, batch_growth=1.001).batch_sizes(
        10
    ) == [4, 4, 2]
    assert TrainConfig(batch_min=1, batch_max=8, batch_growth=2.0).batch_sizes(
        20
    ) == [1, 2, 4, 8, 5]
    assert TrainConfig().batch_sizes(0) == []


def test_batch_sizes_stop_growing_once_capped():
    # 1e308 squared is no float: the growth is raised no further once capped
    assert TrainConfig(batch_min=1, batch_growth=1e308).batch_sizes(100) == [1, 32, 32, 32, 3]


def _compounded_batch_sizes(config: TrainConfig, n: int) -> list[int]:
    """batch_sizes as it was before it stopped at the cap: the growth
    raised to every batch's index."""
    sizes: list[int] = []
    j = 0
    while n > 0:
        size = int(min(config.batch_min * config.batch_growth**j, config.batch_max))
        size = max(1, min(size, n))
        sizes.append(size)
        n -= size
        j += 1
    return sizes


@given(
    batch_min=st.integers(min_value=1, max_value=64),
    extra=st.integers(min_value=0, max_value=200),
    growth=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    n=st.integers(min_value=0, max_value=3000),
)
def test_batch_sizes_equal_the_compounded_formula(batch_min, extra, growth, n):
    config = TrainConfig(batch_min=batch_min, batch_max=batch_min + extra, batch_growth=growth)
    try:
        want = _compounded_batch_sizes(config, n)
    except OverflowError:
        return  # the old formula fails here; the new one is pinned above
    assert config.batch_sizes(n) == want


@given(st.integers(min_value=1, max_value=400))
def test_batch_sizes_partition_the_epoch(n):
    config = TrainConfig(batch_min=4, batch_max=32, batch_growth=1.3)
    sizes = config.batch_sizes(n)
    assert sum(sizes) == n
    assert all(1 <= size <= config.batch_max for size in sizes)


# ---------------------------------------------------------------- features


def test_word_shape():
    assert word_shape("Covid-19") == "Xxxxx-dd"
    assert word_shape("NYC") == "XXX"
    assert word_shape("mask") == "xxxx"
    assert word_shape("n95") == "xdd"


def extract_features(tokens, position, prev_tag):
    """Reference feature template of one position, given the previous tag;
    the oracle trainer and decoders below build features with it."""
    word = tokens[position]
    lower = word.lower()
    prev_word = tokens[position - 1].lower() if position > 0 else tagger.START_WORD
    next_word = (
        tokens[position + 1].lower() if position + 1 < len(tokens) else tagger.END_WORD
    )
    features = [
        "bias",
        f"w={lower}",
        f"shape={word_shape(word)}",
        f"prev={prev_word}",
        f"next={next_word}",
        f"ptag={prev_tag}",
    ]
    for k in (1, 2, 3):
        if len(lower) >= k:
            features.append(f"pre{k}={lower[:k]}")
            features.append(f"suf{k}={lower[-k:]}")
    return features


def tagger_features(tokens, position, prev_tag):
    """The features the tagger itself builds for one position."""
    (words,) = tagger._sentence_words([tokens])
    return words[position + 1].features(words[position], words[position + 2], prev_tag)


def test_extract_features_example():
    assert tagger_features(["Wear", "masks"], 1, "O") == [
        "bias",
        "w=masks",
        "shape=xxxxx",
        "prev=wear",
        "next=</s>",
        "ptag=O",
        "pre1=m",
        "suf1=s",
        "pre2=ma",
        "suf2=ks",
        "pre3=mas",
        "suf3=sks",
    ]


def test_extract_features_sentence_edges():
    features = tagger_features(["mask"], 0, "O")
    assert "prev=<s>" in features
    assert "next=</s>" in features


# ---------------------------------------------------------------- decoding


def test_untrained_model_tags_all_o():
    model = TaggerModel(labels=PPE_LABELS, weights={})
    assert tag_tokens(model, ["wear", "a", "mask"]) == ["O", "O", "O"]


def test_decode_tie_prefers_earlier_candidate():
    model = TaggerModel(
        labels=PPE_LABELS, weights={"w=mask": {"B-PPE": 1.0, "U-PPE": 1.0}}
    )
    # B-PPE and U-PPE tie; B comes first in label order, and once the
    # entity is open the final position must close it
    assert tag_tokens(model, ["mask", "on"]) == ["B-PPE", "L-PPE"]


def test_decode_forces_entity_to_close_at_end():
    model = TaggerModel(labels=PPE_LABELS, weights={"w=a": {"B-PPE": 5.0}})
    assert tag_tokens(model, ["a", "b"]) == ["B-PPE", "L-PPE"]


def test_decode_never_opens_multi_token_entity_at_last_position():
    model = TaggerModel(labels=PPE_LABELS, weights={"w=z": {"B-PPE": 5.0}})
    assert tag_tokens(model, ["z"]) == ["O"]


def test_decode_adds_weights_in_feature_order():
    # (0.1 + 0.2) + 0.3 is 0.6000000000000001, above O's 0.6; summed in
    # another order U-PPE would tie O and lose to it
    model = TaggerModel(
        labels=PPE_LABELS,
        weights={
            "bias": {"O": 0.6, "U-PPE": 0.1},
            "w=mask": {"U-PPE": 0.2},
            "shape=xxxx": {"U-PPE": 0.3},
        },
    )
    assert tag_tokens(model, ["mask"]) == ["U-PPE"]


def test_decode_continues_entities_whose_labels_are_missing():
    # labels name only B-PPE; the I-/L- continuations still read their weights
    weights = {"w=mask": {"B-PPE": 1.0}, "w=on": {"L-PPE": 1.0, "I-PPE": 2.0}}
    model = TaggerModel(labels=["O", "B-PPE"], weights=weights)
    assert tag_tokens(model, ["mask", "on", "now"]) == ["B-PPE", "I-PPE", "L-PPE"]


@given(
    st.lists(st.sampled_from(["mask", "fever", "wear", "a", "the"]), min_size=1, max_size=8),
    st.dictionaries(
        st.sampled_from(["w=mask", "w=fever", "bias", "ptag=O", "suf1=k"]),
        st.dictionaries(
            st.sampled_from(PPE_LABELS[1:] + ["U-SYM", "B-SYM", "I-SYM", "L-SYM"]),
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            max_size=4,
        ),
        max_size=5,
    ),
)
def test_decode_output_is_always_valid_bilou(tokens, weights):
    labels = PPE_LABELS + ["B-SYM", "I-SYM", "L-SYM", "U-SYM"]
    model = TaggerModel(labels=labels, weights=weights)
    validate_bilou(tag_tokens(model, tokens))


# ---------------------------------------------------------------- scoring


def test_scores_from_counts_pinned():
    scores = scores_from_counts(9, 1, 3)
    assert scores.precision == pytest.approx(0.900)
    assert scores.recall == pytest.approx(0.750)
    assert scores.f1 == pytest.approx(0.8182, abs=5e-5)


def test_scores_from_counts_zero_safe():
    assert scores_from_counts(0, 0, 0) == Scores(0, 0, 0, 0.0, 0.0, 0.0)


def brute_force_report(gold, predicted):
    tp, fp, fn = Counter(), Counter(), Counter()
    for gold_spans, pred_spans in zip(gold, predicted):
        gold_set, pred_set = set(gold_spans), set(pred_spans)
        for span in gold_set & pred_set:
            tp[span.category] += 1
        for span in pred_set - gold_set:
            fp[span.category] += 1
        for span in gold_set - pred_set:
            fn[span.category] += 1
    categories = sorted(set(tp) | set(fp) | set(fn))
    return {c: (tp[c], fp[c], fn[c]) for c in categories}


@st.composite
def span_set(draw):
    spans = []
    i = 0
    while i < 10:
        i += draw(st.integers(min_value=0, max_value=3))
        if i >= 10:
            break
        length = draw(st.integers(min_value=1, max_value=min(2, 10 - i)))
        spans.append(Span(i, i + length, draw(st.sampled_from(["PPE", "SYM"]))))
        i += length
    return spans


@settings(max_examples=60)
@given(st.lists(st.tuples(span_set(), span_set()), max_size=6))
def test_compare_spans_matches_brute_force(pairs):
    gold = [g for g, _ in pairs]
    predicted = [p for _, p in pairs]
    report = compare_spans(gold, predicted)
    expected = brute_force_report(gold, predicted)
    assert {c: (s.tp, s.fp, s.fn) for c, s in report.per_category.items()} == expected
    assert report.micro.tp == sum(v[0] for v in expected.values())
    assert report.micro.fp == sum(v[1] for v in expected.values())
    assert report.micro.fn == sum(v[2] for v in expected.values())


def test_evaluate_tagger_end_to_end():
    model = TaggerModel(
        labels=PPE_LABELS + ["B-SYM", "I-SYM", "L-SYM", "U-SYM"],
        weights={"w=mask": {"U-PPE": 5.0}},
    )
    eval_set = [
        sent(["mask", "please"], ["U-PPE", "O"]),
        sent(["this", "mask"], ["O", "U-SYM"]),
    ]
    report = evaluate_tagger(model, eval_set)
    assert report.per_category["PPE"].tp == 1
    assert report.per_category["PPE"].fp == 1
    assert report.per_category["SYM"].fn == 1
    assert report.micro.precision == pytest.approx(0.5)
    assert report.micro.recall == pytest.approx(0.5)
    assert report.micro.f1 == pytest.approx(0.5)


# ---------------------------------------------------------------- training


def test_train_tagger_rejects_empty_set():
    with pytest.raises(EmptyTrainingSetError):
        train_tagger([], TrainConfig())


def test_trained_label_order():
    config = TrainConfig(iterations=1, batch_min=2, batch_max=4, batch_growth=1.5)
    model = train_tagger(TRAIN_SET, config)
    assert model.labels == ["O"] + [
        f"{p}-{c}" for c in ("DIST", "PPE", "SYM") for p in ("B", "I", "L", "U")
    ]


def test_training_is_deterministic():
    config = TrainConfig(
        iterations=4, batch_min=2, batch_max=8, batch_growth=1.5, seed=9
    )
    first = train_tagger(TRAIN_SET, config)
    second = train_tagger(TRAIN_SET, config)
    assert first.weights == second.weights
    assert first.labels == second.labels


def test_training_learns_cue_tokens():
    config = TrainConfig(
        iterations=10,
        batch_min=2,
        batch_max=8,
        batch_growth=1.5,
        dropout_start=0.0,
        dropout_end=0.0,
        seed=1,
    )
    model = train_tagger(TRAIN_SET, config)
    assert tag_tokens(model, ["please", "wear", "a", "mask"])[-1] == "U-PPE"
    assert tag_tokens(model, ["fever", "today"])[0] == "U-SYM"
    tags = tag_tokens(model, ["social", "distancing", "now"])
    assert tags[:2] == ["B-DIST", "L-DIST"]


# Dense reference trainer: same shuffles and batching, but it averages by
# snapshotting the full weight table after every batch instead of using
# per-entry timestamps. Decoding is re-derived from the constraint rules.


def oracle_allowed(labels, prev_tag, is_last):
    prefix, category = parse_tag(prev_tag)
    if prefix in ("B", "I"):
        return [f"L-{category}"] if is_last else [f"I-{category}", f"L-{category}"]
    starters = [
        label
        for label in labels
        if label == "O" or label.startswith("U-") or label.startswith("B-")
    ]
    if is_last:
        return [label for label in starters if not label.startswith("B-")]
    return starters


def oracle_decode(weights, labels, tokens):
    tags, feature_lists = [], []
    prev = "O"
    for i, _ in enumerate(tokens):
        features = extract_features(tokens, i, prev)
        best, best_score = None, None
        for label in oracle_allowed(labels, prev, i == len(tokens) - 1):
            score = sum(weights.get(f, {}).get(label, 0.0) for f in features)
            if best is None or score > best_score:
                best, best_score = label, score
        tags.append(best)
        feature_lists.append(features)
        prev = best
    return tags, feature_lists


def oracle_batch_sizes(config, n):
    sizes = []
    j = 0
    while n > 0:
        size = int(min(config.batch_min * config.batch_growth**j, config.batch_max))
        sizes.append(max(1, min(size, n)))
        n -= sizes[-1]
        j += 1
    return sizes


def dense_average_train(train, config):
    categories = sorted(
        {parse_tag(t)[1] for s in train for t in s.tags if t != "O"}
    )
    labels = ["O"] + [f"{p}-{c}" for c in categories for p in ("B", "I", "L", "U")]
    weights: dict[str, dict[str, float]] = {}
    snapshot_sum: dict[str, dict[str, float]] = {}
    rng = random.Random(config.seed)
    order = list(range(len(train)))
    steps = 0
    for _ in range(config.iterations):
        rng.shuffle(order)
        cursor = 0
        for size in oracle_batch_sizes(config, len(order)):
            batch = order[cursor : cursor + size]
            cursor += size
            updates = []
            for index in batch:
                sentence = train[index]
                predicted, feature_lists = oracle_decode(
                    weights, labels, sentence.tokens
                )
                for features, gold, pred in zip(
                    feature_lists, sentence.tags, predicted
                ):
                    if gold != pred:
                        updates.append((features, gold, pred))
            for features, gold, pred in updates:
                for feature in features:
                    row = weights.setdefault(feature, {})
                    row[gold] = row.get(gold, 0.0) + 1.0
                    row[pred] = row.get(pred, 0.0) - 1.0
            steps += 1
            for feature, row in weights.items():
                acc = snapshot_sum.setdefault(feature, {})
                for label, value in row.items():
                    acc[label] = acc.get(label, 0.0) + value
    averaged: dict[str, dict[str, float]] = {}
    for feature, row in snapshot_sum.items():
        for label, total in row.items():
            mean = total / steps
            if mean != 0.0:
                averaged.setdefault(feature, {})[label] = mean
    return averaged


def test_averaging_matches_dense_snapshot_oracle():
    config = TrainConfig(
        iterations=3,
        batch_min=2,
        batch_max=4,
        batch_growth=1.5,
        dropout_start=0.0,
        dropout_end=0.0,
        seed=7,
    )
    model = train_tagger(TRAIN_SET, config)
    expected = dense_average_train(TRAIN_SET, config)
    assert set(model.weights) == set(expected)
    for feature, row in expected.items():
        assert set(model.weights[feature]) == set(row)
        for label, value in row.items():
            assert model.weights[feature][label] == pytest.approx(value, abs=1e-12)


def test_dropout_changes_updates_but_stays_deterministic():
    base = dict(iterations=4, batch_min=2, batch_max=8, batch_growth=1.5, seed=5)
    with_dropout = TrainConfig(dropout_start=0.5, dropout_end=0.1, **base)
    without = TrainConfig(dropout_start=0.0, dropout_end=0.0, **base)
    first = train_tagger(TRAIN_SET, with_dropout)
    second = train_tagger(TRAIN_SET, with_dropout)
    assert first.weights == second.weights
    assert first.weights != train_tagger(TRAIN_SET, without).weights


# Reference decoder and trainer as they ran on dict-of-dict weights, one
# weights lookup per feature and candidate label.  The label-aligned rows
# must give the same tags, the same floats and the same model file.


def reference_score(weights, features, label):
    total = 0.0
    for feature in features:
        row = weights.get(feature)
        if row is not None:
            total += row.get(label, 0.0)
    return total


def reference_decode(weights, labels, tokens):
    tags, feature_lists = [], []
    prev = "O"
    n = len(tokens)
    for i in range(n):
        features = extract_features(tokens, i, prev)
        candidates = oracle_allowed(labels, prev, i == n - 1)
        best = candidates[0]
        best_score = reference_score(weights, features, best)
        for label in candidates[1:]:
            score = reference_score(weights, features, label)
            if score > best_score:
                best, best_score = label, score
        tags.append(best)
        feature_lists.append(features)
        prev = best
    return tags, feature_lists


def reference_train(train, config):
    categories = sorted({parse_tag(t)[1] for s in train for t in s.tags if t != "O"})
    labels = ["O"] + [f"{p}-{c}" for c in categories for p in ("B", "I", "L", "U")]
    weights, totals, stamps = {}, {}, {}
    rng = random.Random(config.seed)
    order = list(range(len(train)))
    step = 0

    def apply(feature, label, delta):
        row = weights.setdefault(feature, {})
        trow = totals.setdefault(feature, {})
        srow = stamps.setdefault(feature, {})
        trow[label] = trow.get(label, 0.0) + row.get(label, 0.0) * (
            step - srow.get(label, 0)
        )
        srow[label] = step
        row[label] = row.get(label, 0.0) + delta

    for iteration in range(config.iterations):
        rng.shuffle(order)
        dropout = config.dropout_at(iteration)
        cursor = 0
        for size in oracle_batch_sizes(config, len(order)):
            batch = order[cursor : cursor + size]
            cursor += size
            updates = []
            for index in batch:
                sentence = train[index]
                predicted, feature_lists = reference_decode(
                    weights, labels, sentence.tokens
                )
                for features, gold, pred in zip(feature_lists, sentence.tags, predicted):
                    if gold != pred:
                        updates.append((features, gold, pred))
            step += 1
            for features, gold, pred in updates:
                for feature in features:
                    if dropout > 0 and rng.random() < dropout:
                        continue
                    apply(feature, gold, +1.0)
                    apply(feature, pred, -1.0)

    averaged = {}
    for feature, row in weights.items():
        for label, value in row.items():
            total = totals[feature].get(label, 0.0) + value * (
                step + 1 - stamps[feature].get(label, 0)
            )
            mean = total / step
            if mean != 0.0:
                averaged.setdefault(feature, {})[label] = mean
    return TaggerModel(labels=labels, weights=averaged)


DECODE_WORDS = ["mask", "masks", "fever", "wear", "a", "the", "Social", "distancing"]
DECODE_FEATURES = [
    "bias", "w=mask", "w=fever", "w=the", "ptag=O", "ptag=B-PPE", "ptag=I-PPE",
    "ptag=U-SYM", "suf1=k", "pre1=m", "shape=xxxx", "next=</s>", "prev=<s>",
]
# B-PPE without I-PPE/L-PPE in some label lists, plus labels no list holds
WEIGHT_LABELS = [
    "O", "B-PPE", "I-PPE", "L-PPE", "U-PPE", "B-SYM", "I-SYM", "L-SYM", "U-SYM",
    "U-DIT", "B-DIT", "junk",
]
# few distinct values, so candidates often tie
weight_values = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 0.1, 0.2, 0.30000000000000004])


@given(
    st.lists(st.sampled_from(DECODE_WORDS), min_size=1, max_size=8),
    st.lists(st.sampled_from(WEIGHT_LABELS[1:9]), unique=True),
    st.dictionaries(
        st.sampled_from(DECODE_FEATURES),
        st.dictionaries(
            st.sampled_from(WEIGHT_LABELS),
            weight_values | st.floats(min_value=-3, max_value=3, allow_nan=False),
            max_size=6,
        ),
        max_size=8,
    ),
)
def test_tag_tokens_matches_dict_reference(tokens, entity_labels, weights):
    labels = ["O"] + entity_labels
    model = TaggerModel(labels=labels, weights=weights)
    expected, _ = reference_decode(weights, labels, tokens)
    assert tag_tokens(model, tokens) == expected
    # the compiled rows are reused on the next call
    assert tag_tokens(model, tokens) == expected


# Case variants share their prev=/next= rows but not their own, and rows
# for the neighbour features are often missing.
MEMO_WORDS = ["mask", "Mask", "MASK", "masks", "fever", "a", "the", "on"]
MEMO_FEATURES = DECODE_FEATURES + [
    "prev=mask", "next=mask", "prev=a", "next=a", "next=fever", "prev=the",
    "w=a", "w=on", "shape=Xxxx", "shape=XXXX", "ptag=L-PPE", "ptag=U-PPE", "ptag=B-SYM",
]


@settings(max_examples=300)
@given(
    st.lists(st.lists(st.sampled_from(MEMO_WORDS), min_size=1, max_size=8), min_size=1, max_size=6),
    st.lists(st.sampled_from(WEIGHT_LABELS[1:9]), unique=True),
    st.dictionaries(
        st.sampled_from(MEMO_FEATURES),
        st.dictionaries(st.sampled_from(WEIGHT_LABELS), weight_values, max_size=6),
        max_size=12,
    ),
)
def test_position_memo_matches_a_memo_free_decode(sentences, entity_labels, weights):
    model = TaggerModel(labels=["O"] + entity_labels, weights=weights)
    compiled = tagger._compiled(model)
    # every sentence twice, so the memo fills and is then read
    for tokens in sentences + sentences:
        assert tag_tokens(model, tokens) == tagger._decode(compiled, compiled.fixed_rows(tokens))
    assert len(compiled._tags) <= sum(len(tokens) for tokens in sentences)


def test_position_memo_scores_each_distinct_position_once(monkeypatch):
    scored = []
    real_choose = tagger._choose

    def counting_choose(compiled, rows, left, right, prev, is_last):
        scored.append(prev)
        return real_choose(compiled, rows, left, right, prev, is_last)

    monkeypatch.setattr(tagger, "_choose", counting_choose)
    model = TaggerModel(labels=PPE_LABELS, weights={"w=mask": {"U-PPE": 1.0}})
    tokens = ["mask", "a", "a", "a", "mask"]
    # the model has no prev=/next= rows, so the last two "a" positions share
    # a key: the same word, missing neighbour rows and previous tag O
    assert tag_tokens(model, tokens) == ["U-PPE", "O", "O", "O", "U-PPE"]
    assert len(scored) == 4
    assert tag_tokens(model, tokens) == ["U-PPE", "O", "O", "O", "U-PPE"]
    assert len(scored) == 4


def test_position_keys_keep_their_fields_apart():
    # U-PPE is column 4 of 7; after it, "a" with no right row must not share
    # a key with "a" after O whose right word's next= row has index 1
    weights = {"w=mask": {"U-PPE": 5.0}, "ptag=U-PPE": {"U-PPE": 2.0}, "next=x": {"O": 1.0}}
    model = TaggerModel(labels=PPE_LABELS, weights=weights)
    compiled = tagger._compiled(model)
    for tokens in (["mask", "a", "c"], ["b", "a", "x"]):
        expected = tagger._decode(compiled, compiled.fixed_rows(tokens))
        assert tag_tokens(model, tokens) == expected
    assert tag_tokens(model, ["b", "a", "x"])[1] == "O"


def test_training_leaves_the_fixed_weight_memos_empty(monkeypatch):
    built = []
    real_init = tagger._Rows.__init__

    def recording_init(self, *args):
        real_init(self, *args)
        built.append(self)

    monkeypatch.setattr(tagger._Rows, "__init__", recording_init)
    model = train_tagger(TRAIN_SET, TrainConfig(iterations=3, batch_min=2, batch_max=4, seed=1))
    # training's weights change, so it must never read a memo
    assert len(built) == 1
    assert built[0]._memo == {} and built[0]._row_index == {} and built[0]._tags == {}
    assert model._rows is None


@pytest.mark.parametrize("dropout", [(0.0, 0.0), (0.5, 0.1)], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("source", ["toy", "fixture"])
def test_trained_model_file_matches_reference(tmp_path, fixtures, dropout, source):
    from threadscope.nerdata import read_annotations

    train = (
        TRAIN_SET if source == "toy" else read_annotations(fixtures / "annotated_train.tsv")
    )
    config = TrainConfig(
        iterations=4,
        batch_min=2,
        batch_max=8,
        batch_growth=1.5,
        dropout_start=dropout[0],
        dropout_end=dropout[1],
        seed=11,
    )
    save_model(train_tagger(train, config), tmp_path / "model.json")
    save_model(reference_train(train, config), tmp_path / "reference.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


# Words for the per-word feature entries: 1- and 2-character words, digits,
# non-ASCII, mixed case, case variants of one word, and the edge markers.
ENTRY_WORDS = [
    "a", "I", "7", "é", "ab", "Ab", "n9", "42", "mask", "Mask", "MASK", "masks",
    "Covid-19", "N95", "naïve", "Ärzte", "東京", "ß", "<s>", "</s>", "-", "x.y",
]
entry_words = st.sampled_from(ENTRY_WORDS) | st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=4
)
CATEGORIES = ["PPE", "SYM", "TEST"]


@st.composite
def bilou_sentences(draw):
    """A sentence of entry words with valid BILOU tags."""
    tokens, tags = [], []
    while not tokens or (len(tokens) < 8 and draw(st.booleans())):
        kind = draw(st.sampled_from(["O", "O", "U", "span"]))
        category = draw(st.sampled_from(CATEGORIES))
        if kind == "O":
            tags.append("O")
        elif kind == "U":
            tags.append(f"U-{category}")
        else:
            inside = draw(st.integers(0, 2))
            tags += [f"B-{category}", *[f"I-{category}"] * inside, f"L-{category}"]
        tokens += [draw(entry_words) for _ in range(len(tags) - len(tokens))]
    return sent(tokens, tags)


def saved_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return path.read_bytes()


@settings(max_examples=150)
@given(
    st.lists(bilou_sentences(), min_size=1, max_size=10),
    st.integers(1, 12),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([1.001, 1.5, 2.0, 3.0]),
    st.sampled_from([(0.0, 0.0), (0.5, 0.5), (0.6, 0.1), (0.3, 0.0)]),
    st.integers(0, 3),
)
def test_train_tagger_matches_reference_trainer(
    train, iterations, batch_min, batch_span, batch_growth, dropout, seed
):
    config = TrainConfig(
        iterations=iterations,
        batch_min=batch_min,
        batch_max=batch_min + batch_span,
        batch_growth=batch_growth,
        dropout_start=dropout[0],
        dropout_end=dropout[1],
        seed=seed,
    )
    model = train_tagger(train, config)
    reference = reference_train(train, config)
    assert saved_bytes(model) == saved_bytes(reference)
    # fixed-weight tagging, its per-word memo filled across sentences
    for sentence in train:
        expected, _ = reference_decode(reference.weights, reference.labels, sentence.tokens)
        assert tag_tokens(model, sentence.tokens) == expected


def test_training_reuses_decodes_once_the_weights_stand_still(monkeypatch):
    calls = []
    real_decode = tagger._decode

    def counting_decode(compiled, sentence_rows):
        calls.append(len(sentence_rows))
        return real_decode(compiled, sentence_rows)

    monkeypatch.setattr(tagger, "_decode", counting_decode)
    config = TrainConfig(
        iterations=10, batch_min=2, batch_max=8, batch_growth=1.5,
        dropout_start=0.0, dropout_end=0.0, seed=1,
    )
    model = train_tagger(TRAIN_SET, config)
    assert len(calls) < config.iterations * len(TRAIN_SET)
    assert saved_bytes(model) == saved_bytes(reference_train(TRAIN_SET, config))


@given(
    st.lists(entry_words, min_size=1, max_size=6),
    st.sampled_from(["O", "B-PPE", "I-SYM", "L-TEST", "U-PPE"]),
)
def test_word_entries_agree_with_the_feature_template(tokens, prev_tag):
    (words,) = tagger._sentence_words([tokens])
    assert len(words) == len(tokens) + 2
    for i in range(len(tokens)):
        expected = extract_features(tokens, i, prev_tag)
        assert words[i + 1].features(words[i], words[i + 2], prev_tag) == expected
        # the unshared entries that fixed-weight tagging builds
        before = tagger._Word(tokens[i - 1] if i else tagger.START_WORD)
        after = tagger._Word(tokens[i + 1] if i + 1 < len(tokens) else tagger.END_WORD)
        assert tagger._Word(tokens[i]).features(before, after, prev_tag) == expected


# ---------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    config = TrainConfig(iterations=3, batch_min=2, batch_max=4, batch_growth=1.5)
    model = train_tagger(TRAIN_SET, config)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.labels == model.labels
    assert loaded.templates == model.templates
    assert loaded.weights == model.weights


GOOD_MODEL = '{"version": 1, "labels": ["O", "U-PPE"], "templates": "v1", "weights": {"bias": {"O": 1.5, "U-PPE": -2}}}'
BAD_MODELS = {
    "not-json": "{",
    "not-an-object": "[]",
    "empty": "{}",
    "no-version": '{"labels": ["O"], "templates": 5, "weights": {}}',
    "version=2": GOOD_MODEL.replace('"version": 1', '"version": 2'),
    "version=true": GOOD_MODEL.replace('"version": 1', '"version": true'),
    "templates=5": GOOD_MODEL.replace('"v1"', "5"),
    "labels-not-a-list": GOOD_MODEL.replace('["O", "U-PPE"]', '"O"'),
    "label-not-a-string": GOOD_MODEL.replace('["O", "U-PPE"]', '["O", 7]'),
    "malformed-label": GOOD_MODEL.replace('["O", "U-PPE"]', '["O", "X-PPE"]'),
    "labels-without-O": GOOD_MODEL.replace('["O", "U-PPE"]', '["U-PPE"]'),
    "weights-not-an-object": GOOD_MODEL.replace('{"bias": {"O": 1.5, "U-PPE": -2}}', "[]"),
    "row-not-an-object": GOOD_MODEL.replace('{"O": 1.5, "U-PPE": -2}', "1.5"),
    "weight-string": GOOD_MODEL.replace("1.5", '"1.5"'),
    "weight-bool": GOOD_MODEL.replace("1.5", "true"),
    "weight-nan": GOOD_MODEL.replace("1.5", "NaN"),
    "weight-huge-int": GOOD_MODEL.replace("1.5", "9" * 400),
}


def test_load_model_reads_a_valid_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(GOOD_MODEL)
    model = load_model(path)
    assert model.labels == ["O", "U-PPE"]
    assert model.weights == {"bias": {"O": 1.5, "U-PPE": -2.0}}
    assert tag_tokens(model, ["mask"]) == ["O"]


@pytest.mark.parametrize("text", BAD_MODELS.values(), ids=list(BAD_MODELS))
def test_load_model_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError, match="model.json: "):
        load_model(path)


# ---------------------------------------------------------------- counting


def test_normalize_entity_merges_variants():
    assert normalize_entity(["face_masks"]) == "face mask"
    assert normalize_entity(["Masks"]) == "mask"
    assert normalize_entity(["N95"]) == "n95"
    assert normalize_entity(["hand", "sanitizers"]) == "hand sanitizer"


class FakeDoc:
    def __init__(self, subreddit, title, comment_bodies):
        self.subreddit = subreddit
        self.title = title
        self.comment_bodies = comment_bodies


MASK_MODEL = TaggerModel(
    labels=PPE_LABELS,
    weights={
        "w=mask": {"U-PPE": 5.0},
        "w=masks": {"U-PPE": 5.0},
        "w=gloves": {"U-PPE": 5.0},
    },
)


def test_detect_document_entities_reading_order():
    doc = FakeDoc("covid", "Masks required", ["Wear a mask.", "Gloves too."])
    mentions = detect_document_entities(MASK_MODEL, doc)
    assert mentions == [("PPE", "mask"), ("PPE", "mask"), ("PPE", "glove")]


def test_counts_from_detected_mentions_orders_and_shares():
    docs = [
        FakeDoc("covid", "mask mask", []),
        FakeDoc("covid", "gloves", ["mask"]),
        FakeDoc("askreddit", "mask", []),
    ]
    counts = counts_from_mentions(
        [
            (doc.subreddit, category, name)
            for doc in docs
            for category, name in detect_document_entities(MASK_MODEL, doc)
        ]
    )
    assert list(counts) == ["askreddit", "covid"]
    assert counts["covid"] == [
        EntityCount(category="PPE", name="mask", count=3),
        EntityCount(category="PPE", name="glove", count=1),
    ]
    assert counts["askreddit"] == [
        EntityCount(category="PPE", name="mask", count=1)
    ]


# ------------------------------------------------------------ decoded spans
# Decoder output is read into spans without validating it again, so the
# decoder must only ever emit valid BILOU, whatever the model.

# Entity labels a model file may list: B- labels whose I-/L- labels are
# missing, a category holding a dash, and unit-only categories.
FILE_LABELS = [
    "B-PPE", "I-PPE", "L-PPE", "U-PPE", "B-SYM", "U-SYM", "B-COVID-19", "U-COVID-19", "U-DIT",
]
# Weight labels: every file label's continuations, plus labels the
# tagger can never pick.
FILE_WEIGHT_LABELS = FILE_LABELS + [
    "O", "I-SYM", "L-SYM", "I-COVID-19", "L-COVID-19", "B-DIT", "L-DIT", "I-NONE", "junk",
]


@st.composite
def loaded_models(draw):
    """A model read back by ``load_model`` from a file with any of those
    labels and weights."""
    words = draw(st.lists(entry_words, max_size=6))
    features = DECODE_FEATURES + [f"w={w.lower()}" for w in words] + [
        f"ptag={label}" for label in FILE_LABELS + ["I-SYM", "I-COVID-19"]
    ]
    payload = {
        "version": 1,
        "templates": "v1",
        "labels": ["O"] + draw(st.lists(st.sampled_from(FILE_LABELS), unique=True)),
        "weights": draw(st.dictionaries(
            st.sampled_from(features),
            st.dictionaries(st.sampled_from(FILE_WEIGHT_LABELS), weight_values, max_size=8),
            max_size=12,
        )),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return load_model(path)


@st.composite
def trained_models(draw):
    config = TrainConfig(
        iterations=draw(st.integers(1, 4)), batch_min=1, batch_max=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 3)),
    )
    return train_tagger(draw(st.lists(bilou_sentences(), min_size=1, max_size=6)), config)


@settings(max_examples=150)
@given(
    model=loaded_models() | trained_models(),
    sentences=st.lists(st.lists(entry_words | st.sampled_from(DECODE_WORDS), min_size=1, max_size=8),
                       min_size=1, max_size=4),
)
def test_decoder_output_is_valid_bilou_for_trained_and_loaded_models(model, sentences):
    for tokens in sentences:
        tags = tag_tokens(model, tokens)
        assert len(tags) == len(tokens)
        validate_bilou(tags)
        assert nerdata._valid_bilou_spans(tags) == nerdata.bilou_to_spans(tags)


@given(bilou_sentences())
def test_unchecked_spans_round_trip_valid_tags(sentence):
    spans = nerdata._valid_bilou_spans(sentence.tags)
    assert nerdata.spans_to_bilou(sentence.tokens, spans) == sentence.tags
