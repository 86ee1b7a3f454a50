"""The benchmark's workloads: generator presets and the CLI stage chain
each one runs.  Why each workload exists is its `why` in BENCHMARK.json;
which layer it loads is the table in LAYERS.md."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .gen import KEYWORDS_TSV, Preset

CORPUS_ID = "bench"


@dataclass(frozen=True)
class Workload:
    name: str
    presets: dict  # "full" / "tiny" -> Preset


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="topics-k10",
            presets={
                "full": Preset(
                    schema="native", posts=300, comments=(3, 7), sentences=(1, 3), words=(8, 14),
                    vocab=3000, zipf=1.0, match_rate=0.8, window_months=6,
                    topics=10, topic_share=0.6, month_words=2,
                ),
                "tiny": Preset(
                    schema="native", posts=50, comments=(2, 3), sentences=(1, 2), words=(6, 10),
                    vocab=600, zipf=1.0, match_rate=0.9, window_months=2,
                    topics=10, topic_share=0.7, month_words=2,
                ),
            },
        ),
        Workload(
            name="entities",
            presets={
                "full": Preset(
                    schema="native", posts=150, comments=(4, 10), sentences=(2, 4), words=(6, 12),
                    vocab=3000, zipf=1.0, match_rate=0.9, window_months=6,
                    mention_rate=0.25, polarity_rate=0.05, annotated=(500, 250),
                ),
                "tiny": Preset(
                    schema="native", posts=40, comments=(2, 4), sentences=(2, 3), words=(6, 10),
                    vocab=400, zipf=1.0, match_rate=0.9, window_months=2,
                    mention_rate=0.3, polarity_rate=0.1, annotated=(300, 100),
                ),
            },
        ),
        Workload(
            name="sparse-window",
            presets={
                "full": Preset(
                    schema="pushshift", posts=25000, comments=(3, 9), sentences=(1, 2), words=(6, 12),
                    vocab=30000, zipf=0.8, match_rate=0.03, window_months=18, margin_months=3,
                    malformed_rate=0.01,
                ),
                "tiny": Preset(
                    schema="pushshift", posts=600, comments=(2, 4), sentences=(1, 2), words=(6, 10),
                    vocab=3000, zipf=0.8, match_rate=0.1, window_months=18, margin_months=3,
                    malformed_rate=0.01,
                ),
            },
        ),
    )
}


@dataclass(frozen=True)
class Stage:
    """One CLI call: the stage name, its argv, and the path it writes."""

    name: str
    argv: list
    output: str


def chain(workload: Workload, inputs: Path, out: Path, truth: dict) -> list[Stage]:
    """The stage calls of one pass, in order."""
    dump = str(inputs / "dump.jsonl")
    corpus = out / "corpus"
    docs = str(corpus / "documents.jsonl")
    pre = str(out / "pre" / "documents.jsonl")
    window = ["--from", truth["from"], "--to", truth["to"]]
    ingest = ["ingest", "--dump", dump, "--schema", truth["schema"],
              "--keywords", ",".join(truth["keywords"]), *window, "--out", str(corpus)]
    cid = ["--corpus-id", CORPUS_ID]

    if workload.name == "topics-k10":
        return [
            Stage("ingest", ingest, str(corpus)),
            Stage("preprocess", ["preprocess", "--in", docs, "--out", pre], str(out / "pre")),
            Stage("topics", ["topics", "--docs", pre, "--k", "10", "--epochs", "1",
                             *cid, "--out", str(out / "topics")], str(out / "topics")),
            Stage("topics-monthly", ["topics-monthly", "--docs", pre, "--epochs", "1",
                                     *cid, "--out", str(out / "monthly")], str(out / "monthly")),
            Stage("report", ["report", "--docs", pre, *cid, "--out", str(out / "report")], str(out / "report")),
        ]
    if workload.name == "entities":
        model = str(out / "model" / "tagger.json")
        mentions = str(out / "mentions" / "mentions.tsv")
        stages = [
            Stage("ingest", ingest, str(corpus)),
            Stage("ner-build", ["ner-build", "--sentences", str(corpus / "sentences.txt"),
                                "--keywords", str(KEYWORDS_TSV), "--out", str(out / "nerdata")], str(out / "nerdata")),
            Stage("ner-train", ["ner-train", "--train", str(inputs / "train.tsv"), "--iters", "8",
                                "--model", model], str(out / "model")),
            Stage("ner-eval", ["ner-eval", "--model", model, "--eval", str(inputs / "eval.tsv"),
                               "--out", str(out / "eval")], str(out / "eval")),
            Stage("ner-tag", ["ner-tag", "--model", model, "--docs", docs, "--out", mentions], str(out / "mentions")),
        ]
        for entity in sorted(truth["polarity"]):
            target = out / "sentiment" / entity
            stages.append(Stage("sentiment", ["sentiment", "--docs", docs, "--entity", entity,
                                              "--out", str(target / "sentiment.tsv")], str(target)))
        stages.append(Stage("report", ["report", "--docs", docs, "--mentions", mentions, *cid,
                                       "--out", str(out / "report")], str(out / "report")))
        return stages
    if workload.name == "sparse-window":
        return [
            Stage("ingest", ingest + ["--skip-bad-records"], str(corpus)),
            Stage("stats", ["stats", "--docs", docs, "--out", str(out / "stats")], str(out / "stats")),
            Stage("preprocess", ["preprocess", "--in", docs, "--out", pre], str(out / "pre")),
            Stage("report", ["report", "--docs", pre, *window, *cid, "--out", str(out / "report")], str(out / "report")),
        ]
    raise ValueError(f"unknown workload {workload.name!r}")
