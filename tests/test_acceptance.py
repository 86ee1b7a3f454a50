"""Acceptance suite: ten end-of-project checks, each printing one PASS or
FAIL line with its headline measurement.

Each criterion is a single test; the printed line goes to the real stdout
so it shows up even under pytest capture.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from threadscope import nerdata
from threadscope.cli import run as cli_run
from threadscope.nerdata import (
    AnnotatedSentence,
    DEFAULT_CATEGORIES,
    Span,
    bilou_to_spans,
    spans_to_bilou,
)
from threadscope.report import week_start_of
from threadscope.sentiment import compound_of, label_for, score_sentence, sum_valence
from threadscope.tagger import (
    TrainConfig,
    compare_spans,
    evaluate_tagger,
    scores_from_counts,
    train_tagger,
)
from threadscope.topics import (
    LdaConfig,
    TopicModel,
    assign_topics,
    build_vocabulary,
    fit_lda,
    infer_doc_topics,
    monthly_side_topics,
    topic_word_distribution,
)

KEYWORD_FILE = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"

_CAPTURE: pytest.CaptureFixture | None = None


@pytest.fixture(autouse=True)
def _announcer(capsys):
    # stashed so criterion() can drop capture while printing its verdict
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _announce(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        _announce(f"[FAIL] criterion {number:2d}: {label}")
        raise
    _announce(f"[PASS] criterion {number:2d}: {label}")


def random_spans(rng: random.Random, n: int, keep=0.7) -> list[Span]:
    spans: list[Span] = []
    i = 0
    while i < n:
        i += rng.randint(0, 2)
        if i >= n:
            break
        length = rng.randint(1, min(3, n - i))
        if rng.random() < keep:
            spans.append(Span(i, i + length, rng.choice(DEFAULT_CATEGORIES)))
        i += length
    return spans


# ------------------------------------------------------------ criterion 1


def test_criterion_01_bilou_round_trip():
    with criterion(1, "BILOU round trip identity on 10,000 random sentences in < 5 s"):
        rng = random.Random(1)
        start = time.perf_counter()
        for _ in range(10_000):
            n = rng.randint(1, 20)
            spans = random_spans(rng, n)
            tags = spans_to_bilou(["w"] * n, spans)
            assert bilou_to_spans(tags) == sorted(spans, key=lambda s: s.start)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"round trips took {elapsed:.2f}s"


# ------------------------------------------------------------ criterion 2


def test_criterion_02_metric_oracle():
    with criterion(2, "span metrics match the brute-force oracle on 1,000 pairs"):
        rng = random.Random(2)
        golds, preds = [], []
        for _ in range(1_000):
            n = rng.randint(1, 15)
            golds.append(random_spans(rng, n, keep=0.6))
            preds.append(random_spans(rng, n, keep=0.6))
        report = compare_spans(golds, preds)

        tp, fp, fn = Counter(), Counter(), Counter()
        for gold, pred in zip(golds, preds):
            gold_set, pred_set = set(gold), set(pred)
            for span in gold_set & pred_set:
                tp[span.category] += 1
            for span in pred_set - gold_set:
                fp[span.category] += 1
            for span in gold_set - pred_set:
                fn[span.category] += 1
        categories = sorted(set(tp) | set(fp) | set(fn))
        assert sorted(report.per_category) == categories
        for cat in categories:
            scores = report.per_category[cat]
            assert (scores.tp, scores.fp, scores.fn) == (tp[cat], fp[cat], fn[cat])
            precision = tp[cat] / (tp[cat] + fp[cat]) if tp[cat] + fp[cat] else 0.0
            recall = tp[cat] / (tp[cat] + fn[cat]) if tp[cat] + fn[cat] else 0.0
            assert scores.precision == precision
            assert scores.recall == recall
        assert report.micro.tp == sum(tp.values())
        assert report.micro.fp == sum(fp.values())
        assert report.micro.fn == sum(fn.values())

        worked = scores_from_counts(9, 1, 3)
        assert worked.precision == pytest.approx(0.900, abs=5e-4)
        assert worked.recall == pytest.approx(0.750, abs=5e-4)
        assert worked.f1 == pytest.approx(0.8182, abs=5e-5)


# ------------------------------------------------------------ criterion 3


CUES = {"lockdown": "DIST", "bleach": "DIT", "mask": "PPE", "fever": "SYM", "swab": "TEST"}
FILLER = [
    "the", "a", "we", "you", "went", "store", "today", "people", "city", "said",
    "home", "work", "news", "really", "about", "think", "still", "open", "close",
    "day", "week", "street", "good", "bad", "need", "help", "read", "found",
    "question", "answer",
]


def planted_cue_corpus(n=500, seed=11):
    rng = random.Random(seed)
    cues = list(CUES)
    sentences = []
    for _ in range(n):
        length = rng.randint(5, 12)
        tokens = [rng.choice(FILLER) for _ in range(length)]
        tags = ["O"] * length
        for _ in range(rng.randint(0, 3)):
            pos = rng.randrange(length)
            cue = rng.choice(cues)
            tokens[pos] = cue
            tags[pos] = f"U-{CUES[cue]}"
        sentences.append(AnnotatedSentence(tokens=tokens, tags=tags))
    return sentences


def test_criterion_03_tagger_learns_planted_cues():
    label = "cue-marked corpus trains to span F1 >= 0.99, bitwise reproducible, < 60 s"
    with criterion(3, label):
        sentences = planted_cue_corpus()
        train, held_out = sentences[:350], sentences[350:]
        config = TrainConfig()
        assert (config.iterations, config.batch_min, config.batch_max) == (30, 4, 32)
        assert config.dropout_start == config.dropout_end == 0.5

        start = time.perf_counter()
        model = train_tagger(train, config)
        report = evaluate_tagger(model, held_out)
        elapsed = time.perf_counter() - start
        assert report.micro.f1 >= 0.99, f"micro F1 {report.micro.f1:.4f}"
        assert elapsed < 60.0, f"training took {elapsed:.1f}s"

        again = train_tagger(train, config)
        assert again.labels == model.labels
        assert again.weights == model.weights


# ------------------------------------------------------------ criterion 4


def test_criterion_04_vocabulary_boundaries():
    with criterion(4, "df thresholds include/exclude exactly at min_df=3, max_df=0.90"):
        n_docs = 10
        docs = [[] for _ in range(n_docs)]
        for df in range(1, n_docs + 1):
            for i in range(df):
                docs[i].append(f"term{df}")
        vocab, _ = build_vocabulary(
            [" ".join(d) for d in docs], max_df=0.90, min_df=3
        )
        for df in range(1, n_docs + 1):
            expected = df >= 3 and df / n_docs <= 0.90
            assert (f"term{df}" in vocab.terms) == expected, f"df={df}"
        # df=9 of 10 sits exactly on max_df and stays in
        assert "term9" in vocab.terms
        assert "term10" not in vocab.terms
        assert "term2" not in vocab.terms
        assert "term3" in vocab.terms


# ------------------------------------------------------------ criterion 5


class CleanDoc:
    def __init__(self, post_id, cleaned_text, created_utc=0):
        self.post_id = post_id
        self.cleaned_text = cleaned_text
        self.created_utc = created_utc


def test_criterion_05_lda_recovers_planted_topics():
    label = "planted 2-topic corpus: purity >= 0.95, stable perplexity, reproducible, < 30 s"
    with criterion(5, label):
        rng = random.Random(5)
        vocab_a = [f"alpha{i}" for i in range(50)]
        vocab_b = [f"beta{i}" for i in range(50)]
        texts, truth = [], []
        for i in range(200):
            source = vocab_a if i % 2 == 0 else vocab_b
            truth.append(i % 2)
            texts.append(" ".join(rng.choice(source) for _ in range(25)))

        start = time.perf_counter()
        _, matrix = build_vocabulary(texts, max_df=0.90, min_df=3)
        config = LdaConfig(k=2, tau0=15.0, seed=42)
        model = fit_lda(matrix, config)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"fit took {elapsed:.1f}s"

        docs = [CleanDoc(f"p{i}", texts[i]) for i in range(200)]
        assignments, _ = assign_topics(model, docs, matrix)
        clusters: dict[int, Counter] = {}
        for assignment, klass in zip(assignments, truth):
            clusters.setdefault(assignment.topic, Counter())[klass] += 1
        purity = sum(c.most_common(1)[0][1] for c in clusters.values()) / len(docs)
        assert purity >= 0.95, f"purity {purity:.3f}"

        perplexities = model.epoch_perplexities
        assert len(perplexities) == config.epochs
        for earlier, later in zip(perplexities, perplexities[1:]):
            assert later <= earlier * 1.01, f"perplexity rose {earlier} -> {later}"

        rows = topic_word_distribution(model.lam).sum(axis=1)
        assert np.all(np.abs(rows - 1.0) <= 1e-9)

        again = fit_lda(matrix, config)
        assert again.lam.tobytes() == model.lam.tobytes()


# ------------------------------------------------------------ criterion 6


def test_criterion_06_empty_document_inference():
    with criterion(6, "empty document sits at the prior: probability exactly 1/k"):
        for k in (2, 3, 5, 8):
            model = TopicModel(lam=np.ones((k, 6)), config=LdaConfig(k=k))
            inferred = infer_doc_topics(model, ())
            assert inferred.probability == 1.0 / k
            assert np.all(inferred.gamma == inferred.gamma[0])


# ------------------------------------------------------------ criterion 7


def test_criterion_07_monthly_side_topics():
    label = "each month's k=2 fit surfaces >= 8 of 15 injected words in one topic"
    with criterion(7, label):
        base_words = [f"covid{i}" for i in range(20)]
        rng = random.Random(7)
        documents = []
        injected_sets: dict[str, set[str]] = {}
        for month_number in range(3, 9):
            month = f"2020-{month_number:02d}"
            injected = [f"side{month}w{i}" for i in range(15)]
            injected_sets[month] = set(injected)
            created = int(
                datetime(2020, month_number, 10, tzinfo=timezone.utc).timestamp()
            )
            for d in range(6):
                documents.append(
                    CleanDoc(f"{month}c{d}", " ".join(rng.sample(base_words, 10)), created)
                )
            for d in range(6):
                documents.append(
                    CleanDoc(f"{month}s{d}", " ".join(rng.sample(injected, 10)), created)
                )

        config = LdaConfig(k=2, batch_size=16, epochs=10, seed=42, top_n=15)
        results = monthly_side_topics(documents, config, min_docs=5)
        assert [r.month for r in results] == sorted(injected_sets)
        for result in results:
            assert not result.skipped, f"{result.month}: {result.reason}"
            best = max(
                sum(1 for word, _ in topic if word in injected_sets[result.month])
                for topic in result.topics
            )
            assert best >= 8, f"{result.month}: only {best} injected words surfaced"


# ------------------------------------------------------------ criterion 8


def test_criterion_08_sentiment_contract():
    label = "compound bounded and monotone; good@+1.9 -> 0.440; labels split at 0.05"
    with criterion(8, label):
        rng = random.Random(8)
        word_pool = [f"w{i}" for i in range(60)]
        observed: list[tuple[float, float]] = []
        for _ in range(1_000):
            lexicon = {
                word: rng.uniform(-4, 4)
                for word in rng.sample(word_pool, rng.randint(3, 20))
            }
            tokens = [rng.choice(word_pool) for _ in range(rng.randint(1, 15))]
            if rng.random() < 0.3:
                tokens.insert(rng.randrange(len(tokens) + 1), "not")
            s = sum_valence(tokens, lexicon)
            compound = score_sentence(tokens, lexicon).compound
            assert -1.0 < compound < 1.0
            assert compound == compound_of(s)
            observed.append((s, compound))
        observed.sort(key=lambda pair: pair[0])
        for (s1, c1), (s2, c2) in zip(observed, observed[1:]):
            if s1 < s2:
                assert c1 < c2
            else:
                assert c1 == c2

        independent = 1.9 / math.sqrt(1.9**2 + 15.0)
        assert abs(independent - 0.440) < 1e-3
        assert score_sentence(["good"], {"good": 1.9}).compound == pytest.approx(
            0.440, abs=1e-3
        )

        assert label_for(0.05) == "pos"
        assert label_for(math.nextafter(0.05, 0.0)) == "neu"
        assert label_for(0.0) == "neu"
        assert label_for(math.nextafter(-0.05, 0.0)) == "neu"
        assert label_for(-0.05) == "neg"


# ------------------------------------------------------------ criterion 9


def test_criterion_09_week_bucketing():
    with criterion(9, "every study date maps to the preceding (or same) Sunday"):
        day = date(2020, 3, 1)
        while day <= date(2020, 8, 31):
            start = week_start_of(day)
            assert start.weekday() == 6
            assert start <= day
            assert (day - start).days <= 6
            day += timedelta(days=1)
        assert week_start_of(date(2020, 3, 21)) == date(2020, 3, 15)


# ------------------------------------------------------------ criterion 10


PIPELINE_KEYWORDS = "covid,corona,virus,pandemic,lockdown,mask,quarantine,testing"


def run_pipeline(fixtures: Path) -> None:
    """Execute every stage with cwd-relative outputs under ./run."""

    def step(argv):
        code = cli_run(argv)
        assert code == 0, f"{argv[0]} exited {code}"

    step(
        [
            "ingest",
            "--dump", str(fixtures / "sample_dump.jsonl"),
            "--schema", "native",
            "--keywords", PIPELINE_KEYWORDS,
            "--from", "2020-03-01",
            "--to", "2020-08-31",
            "--out", "run/corpus",
        ]
    )
    step(["preprocess", "--in", "run/corpus/documents.jsonl", "--out", "run/clean.jsonl"])
    step(
        [
            "ner-build",
            "--sentences", "run/corpus/sentences.txt",
            "--keywords", str(KEYWORD_FILE),
            "--out", "run/ner",
        ]
    )
    step(
        [
            "ner-train",
            "--train", str(fixtures / "annotated_train.tsv"),
            "--iters", "12",
            "--model", "run/model.json",
        ]
    )
    step(
        [
            "ner-tag",
            "--model", "run/model.json",
            "--docs", "run/corpus/documents.jsonl",
            "--out", "run/mentions.tsv",
        ]
    )
    step(
        [
            "topics",
            "--docs", "run/clean.jsonl",
            "--k", "2",
            "--min-df", "1",
            "--epochs", "4",
            "--corpus-id", "fixture",
            "--out", "run/topics",
        ]
    )
    step(
        [
            "topics-monthly",
            "--docs", "run/clean.jsonl",
            "--min-df", "1",
            "--epochs", "2",
            "--corpus-id", "fixture",
            "--out", "run/side",
        ]
    )
    step(
        [
            "sentiment",
            "--docs", "run/corpus/documents.jsonl",
            "--entity", "mask",
            "--out", "run/sentiment.tsv",
        ]
    )
    step(
        [
            "report",
            "--docs", "run/corpus/documents.jsonl",
            "--mentions", "run/mentions.tsv",
            "--corpus-id", "fixture",
            "--out", "run/report",
        ]
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch, fixtures):
    label = "two full pipeline runs and a manifest replay are byte-identical, < 2 min"
    with criterion(10, label):
        start = time.perf_counter()
        roots = []
        for name in ("a", "b"):
            base = tmp_path / name
            base.mkdir()
            monkeypatch.chdir(base)
            run_pipeline(fixtures)
            roots.append(base)

        tree_a = tree_bytes(roots[0] / "run")
        tree_b = tree_bytes(roots[1] / "run")
        assert set(tree_a) == set(tree_b)
        mismatched = [name for name in tree_a if tree_a[name] != tree_b[name]]
        assert not mismatched, f"outputs differ: {mismatched[:5]}"
        assert len(tree_a) >= 20

        # replaying the recorded topics manifest reproduces the artifacts
        monkeypatch.chdir(roots[0])
        code = cli_run(
            ["replay", "--manifest", "run/topics/manifest.json", "--out", "replayed"]
        )
        assert code == 0
        replayed = tree_bytes(roots[0] / "replayed")
        original = tree_bytes(roots[0] / "run" / "topics")
        assert replayed == original

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"pipeline pair took {elapsed:.1f}s"


# criterion 10's chain, run from the output directory given as the cwd
ENVELOPE_CHAIN = """
import sys
from pathlib import Path
from test_acceptance import run_pipeline
run_pipeline(Path(sys.argv[1]))
"""


def test_the_fixture_chain_is_byte_identical_across_process_environments(tmp_path, fixtures):
    # criterion 10 runs its chains in one interpreter; the same bytes must
    # come from processes of another string hash seed, a UTC+14 time zone,
    # the C locale and no UTF-8 mode
    src = str(Path(nerdata.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    envs = {
        "a": {"PYTHONHASHSEED": "0"},
        "b": {"PYTHONHASHSEED": "12345", "TZ": "Pacific/Kiritimati", "LC_ALL": "C", "PYTHONUTF8": "0"},
    }
    trees = []
    for name, extra in envs.items():
        base = tmp_path / name
        base.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", ENVELOPE_CHAIN, str(fixtures)], cwd=base,
            env={**os.environ, "PYTHONPATH": path, **extra},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        trees.append(tree_bytes(base / "run"))
    tree_a, tree_b = trees
    assert set(tree_a) == set(tree_b)
    assert [name for name in tree_a if tree_a[name] != tree_b[name]] == []
    assert sum(name.endswith("manifest.json") for name in tree_a) >= 5
    assert len(tree_a) >= 20
