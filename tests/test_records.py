"""The records of the modules `threadscope.cli` imports keep the semantics
they had as dataclasses: field names, order and defaults, keyword and
positional construction, field-wise equality, hashing where they were
hashable, AttributeError on assignment where they were frozen, and their
validation errors."""

from __future__ import annotations

from datetime import date
from typing import NamedTuple

import pytest

from threadscope import cli, corpus, manifest, nerdata, report, sentiment, tagger, textprep

# hashable: frozen and hashable by field; frozen: frozen, but a field is a
# dict, so hashing raises TypeError; mutable: assignable and unhashable
HASHABLE, FROZEN, MUTABLE = "hashable", "frozen", "mutable"


def _handler(merged: dict) -> str:
    return ""


class Case(NamedTuple):
    cls: type
    # every field in order, with a value differing from its default
    values: dict
    # the fields with defaults, and those defaults
    defaults: dict
    kind: str


STATS = corpus.SubredditStats("nyc", 1, 2, 3, 4)
SCORES = tagger.Scores(tp=1, fp=2, fn=3, precision=0.5, recall=0.25, f1=0.33)
PARAM_DEFAULTS = {
    "kind": "str", "default": None, "required": False, "choices": (),
    "help": "", "is_input": False, "recorded": True,
}
TRAIN_DEFAULTS = {
    "iterations": 30, "batch_min": 4, "batch_max": 32, "batch_growth": 1.001,
    "dropout_start": 0.5, "dropout_end": 0.5, "seed": 0,
}

CASES = [
    Case(cli.Param, {
        "flag": "k", "kind": "int", "default": 3, "required": True, "choices": ("a",),
        "help": "h", "is_input": True, "recorded": False,
    }, PARAM_DEFAULTS, HASHABLE),
    Case(cli.Command, {
        "name": "stats", "help": "h", "params": (cli.Param("docs"),), "handler": _handler,
        "out_flag": "model", "file_output": True,
    }, {"out_flag": "out", "file_output": False}, HASHABLE),
    Case(manifest.ManifestInput, {"param": "docs", "path": "d.jsonl", "sha256": "ab"}, {}, HASHABLE),
    Case(manifest.RunManifest, {
        "command": "stats", "params": {"docs": "d"},
        "inputs": (manifest.ManifestInput("docs", "d", "ab"),), "seeds": {"seed": 1},
        "artifact_version": 1,
    }, {"inputs": (), "seeds": {}, "artifact_version": manifest.ARTIFACT_VERSION}, FROZEN),
    Case(corpus.Document, {
        "post_id": "p1", "subreddit": "nyc", "created_utc": 5, "title": "t",
        "comment_bodies": ["b"], "cleaned_text": "c",
    }, {"comment_bodies": [], "cleaned_text": ""}, MUTABLE),
    Case(corpus.FilterSpec, {
        "keywords": ("covid",), "date_from": date(2020, 3, 1), "date_to": date(2020, 3, 2),
        "subreddits": ("nyc",),
    }, {"subreddits": ()}, HASHABLE),
    Case(corpus.SubredditStats, {
        "subreddit": "nyc", "posts": 1, "comments": 2, "sentences": 3, "wordcount": 4,
    }, {}, HASHABLE),
    Case(corpus.CorpusStats, {"rows": (STATS,), "total": STATS}, {}, HASHABLE),
    Case(textprep.Token, {"surface": "Masks", "pos": textprep.NOUN}, {"pos": textprep.OTHER}, MUTABLE),
    Case(textprep.LemmaRules, {
        "exceptions": {"": {}}, "suffixes": {"NOUN": {}}, "lengths": {"NOUN": {"": (0,)}},
    }, {}, FROZEN),
    Case(nerdata.Span, {"start": 1, "end": 3, "category": "PPE"}, {}, HASHABLE),
    Case(nerdata.AnnotatedSentence, {"tokens": ["a", "b"], "tags": ["O", "U-PPE"]}, {}, MUTABLE),
    Case(nerdata.KeywordSpec, {
        "by_category": {"PPE": ("mask",)}, "cap": 2, "match_mode": nerdata.SUBSTRING_MATCH,
    }, {"cap": 250, "match_mode": nerdata.PREFIX_MATCH}, FROZEN),
    Case(report.WeekBucket, {"week_start": date(2020, 3, 1), "count": 2}, {}, HASHABLE),
    Case(report.EntityCount, {"category": "PPE", "name": "mask", "count": 2}, {}, HASHABLE),
    Case(report.EntityReport, {
        "subreddit": "nyc", "totals": {"PPE": 2}, "rows": (report.EntityCount("PPE", "mask", 2),),
    }, {}, FROZEN),
    Case(report.MonthlySeries, {"entity": "mask", "months": ("2020-03",), "counts": (2,)}, {}, HASHABLE),
    Case(sentiment.SentimentScore, {"compound": 0.5, "label": "pos"}, {}, HASHABLE),
    Case(sentiment.EntitySentimentReport, {
        "entity": "mask", "n_pos": 1, "n_neg": 2, "n_neu": 3, "mean_compound": 0.1,
    }, {}, HASHABLE),
    Case(tagger.TrainConfig, {
        "iterations": 2, "batch_min": 1, "batch_max": 8, "batch_growth": 1.5,
        "dropout_start": 0.2, "dropout_end": 0.1, "seed": 7,
    }, TRAIN_DEFAULTS, HASHABLE),
    Case(tagger.TaggerModel, {
        "labels": ["O", "U-PPE"], "weights": {"bias": {"O": 1.0}},
    }, {"weights": {}}, MUTABLE),
    Case(tagger.Scores, {
        "tp": 1, "fp": 2, "fn": 3, "precision": 0.5, "recall": 0.25, "f1": 0.33,
    }, {}, HASHABLE),
    Case(tagger.EvalReport, {"per_category": {"PPE": SCORES}, "micro": SCORES}, {}, FROZEN),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
def test_record_keeps_its_dataclass_semantics(case):
    cls, values, defaults, kind = case
    assert cls._fields == tuple(values)
    record = cls(**values)
    assert {name: getattr(record, name) for name in values} == values
    assert record._asdict() == values
    assert cls(*values.values()) == record
    assert repr(record).startswith(f"{cls.__name__}({next(iter(values))}=")

    required = {name: value for name, value in values.items() if name not in defaults}
    bare = cls(**required)
    assert {name: getattr(bare, name) for name in defaults} == defaults
    for name, default in defaults.items():
        if isinstance(default, (list, dict)):
            # a fresh container per record, as a default_factory gave
            assert getattr(cls(**required), name) is not getattr(bare, name)

    assert cls(**values) == record
    if defaults:
        assert bare != record
    for name, value in values.items():
        try:
            other = (not value) if isinstance(value, bool) else value + value
            changed = cls(**{**values, name: other})
        except (TypeError, ValueError):  # no `+`, or a value the record refuses
            continue
        assert changed != record, name
    first = next(iter(values))
    if kind == HASHABLE:
        assert hash(cls(**values)) == hash(record)
        assert len({record, cls(**values)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
    if kind == MUTABLE:
        setattr(record, first, values[first])
    else:
        with pytest.raises(AttributeError):
            setattr(record, first, values[first])
        with pytest.raises(AttributeError):
            delattr(record, first)
    assert {name: getattr(record, name) for name in values} == values


def test_filter_spec_derived_values_are_frozen_and_not_fields():
    spec = corpus.FilterSpec(("Covid",), date(1970, 1, 1), date(1970, 1, 2), ("NYC",))
    assert spec.lowered_keywords == ("covid",)
    assert spec._window == (0, 2 * 86_400 - 1, frozenset({"nyc"}))
    with pytest.raises(AttributeError):
        spec.lowered_keywords = ("x",)
    assert "lowered_keywords" not in repr(spec)


def test_tagger_model_compiled_rows_stay_out_of_equality_and_repr():
    weights = {"bias": {"O": 1.0}}
    model = tagger.TaggerModel(["O"], weights=weights)
    assert tagger.tag_tokens(model, ["mask"]) == ["O"]
    assert model._rows is not None
    assert model == tagger.TaggerModel(["O"], weights=weights)
    assert "_rows" not in repr(model)


D1, D2 = date(2020, 3, 1), date(2020, 3, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: nerdata.Span(-1, 2, "X"), "bad span bounds [-1, 2)"),
        (lambda: nerdata.Span(2, 2, "X"), "bad span bounds [2, 2)"),
        (lambda: nerdata.AnnotatedSentence(["a"], []), "tokens and tags must have equal length"),
        (lambda: nerdata.KeywordSpec({}, cap=0), "cap must be >= 1"),
        (lambda: nerdata.KeywordSpec({}, match_mode="exact"), "unknown match_mode 'exact'"),
        (lambda: nerdata.KeywordSpec({"PPE": ("Mask",)}), "keyword 'Mask' must be lowercase"),
        (lambda: nerdata.KeywordSpec({"PPE": (" ",)}), "keywords must contain a word"),
        (lambda: tagger.TrainConfig(iterations=0), "iterations must be positive"),
        (lambda: tagger.TrainConfig(batch_min=0), "need 1 <= batch_min <= batch_max"),
        (lambda: tagger.TrainConfig(batch_max=3), "need 1 <= batch_min <= batch_max"),
        (lambda: tagger.TrainConfig(batch_growth=1), "batch_growth must exceed 1"),
        (lambda: tagger.TrainConfig(dropout_start=1), "dropout rates must lie in [0, 1)"),
        (lambda: tagger.TrainConfig(dropout_end=-0.1), "dropout rates must lie in [0, 1)"),
        (lambda: corpus.FilterSpec((), D1, D2), "keywords must be nonempty"),
        (lambda: corpus.FilterSpec(("covid",), D2, D1), "date_from must not exceed date_to"),
    ],
)
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
