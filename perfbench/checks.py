"""Output checks, one per stage call, against the generator's sidecar.

Each check takes the stage's output path, the sidecar, and ``info``: the
call's argv and the dump lines its log reported skipping.  It returns a
list of problems; an empty list passes.  None pins exact bytes, since a
later change may alter them on purpose (a new artifact version, say).
Floors sit well below what the seed program reaches, so they catch broken
output, not noise.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from datetime import datetime, timezone
from pathlib import Path

from .workloads import CORPUS_ID

PURITY_FLOOR = 0.5  # topic assignment purity against the planted topics
NER_F1_FLOOR = 0.8  # ner-eval micro F1
NER_RECALL_FLOOR = 0.8  # ner-tag recall of planted (post, category) mentions
MIN_DOCS = 5  # topics-monthly default --min-docs


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:] if line]


def _docs(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _flag(argv: list, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _month(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m")


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_ingest(out: Path, truth: dict, info: dict) -> list[str]:
    problems: list[str] = []
    ids = [doc["post_id"] for doc in _docs(out / "documents.jsonl")]
    _expect(problems, len(ids) == len(truth["kept_ids"]),
            f"kept {len(ids)} documents, expected {len(truth['kept_ids'])}")
    _expect(problems, sorted(ids) == truth["kept_ids"], "kept thread ids differ from the sidecar")
    _expect(problems, info.get("skipped", 0) == truth["skipped"],
            f"skipped {info.get('skipped', 0)} lines, planted {truth['skipped']} malformed")
    return problems


def check_stats(out: Path, truth: dict, info: dict) -> list[str]:
    total = [row for row in _rows(out / "stats.tsv") if row[0] == "Total"]
    if not total or int(total[0][1]) != len(truth["kept_ids"]):
        return [f"stats total posts {total and total[0][1]}, expected {len(truth['kept_ids'])}"]
    return []


def check_preprocess(out: Path, truth: dict, info: dict) -> list[str]:
    docs = _docs(out / "documents.jsonl")
    problems: list[str] = []
    _expect(problems, len(docs) == len(truth["kept_ids"]),
            f"preprocessed {len(docs)} documents, expected {len(truth['kept_ids'])}")
    _expect(problems, all(doc["cleaned_text"] for doc in docs), "a document has no cleaned text")
    return problems


def check_topics(out: Path, truth: dict, info: dict) -> list[str]:
    base = out / CORPUS_ID / "topics"
    problems: list[str] = []
    clusters: dict[str, Counter] = defaultdict(Counter)
    rows = _rows(base / "assignments.tsv")
    for post_id, topic, _ in rows:
        clusters[topic][truth["doc_topic"][post_id]] += 1
    purity = sum(c.most_common(1)[0][1] for c in clusters.values()) / max(1, len(rows))
    _expect(problems, len(rows) == len(truth["kept_ids"]), f"{len(rows)} assignments")
    _expect(problems, purity >= PURITY_FLOOR, f"topic purity {purity:.3f} < {PURITY_FLOOR}")
    model = json.loads((base / "model.json").read_text(encoding="utf-8"))
    perplexities = model["epoch_perplexities"]
    _expect(problems, bool(perplexities) and all(math.isfinite(p) for p in perplexities),
            f"epoch perplexities not finite: {perplexities}")
    return problems


def check_topics_monthly(out: Path, truth: dict, info: dict) -> list[str]:
    problems: list[str] = []
    terms: dict[str, set] = defaultdict(set)
    for month, _, _, term, _ in _rows(out / CORPUS_ID / "monthly" / "side_topics.tsv"):
        terms[month].add(term)
    per_month = Counter(_month(doc["created_utc"]) for doc in _docs(Path(_flag(info["argv"], "--docs"))))
    expected = {m for m, n in per_month.items() if n >= MIN_DOCS}
    _expect(problems, set(terms) == expected,
            f"fitted months {sorted(terms)}, expected {sorted(expected)}")
    for month in sorted(terms):
        missing = [w for w in truth["month_words"].get(month, []) if w not in terms[month]]
        _expect(problems, not missing, f"{month}: injected words {missing} not surfaced")
    return problems


def check_ner_build(out: Path, truth: dict, info: dict) -> list[str]:
    sizes = [(out / name).stat().st_size for name in ("train.tsv", "eval.tsv")]
    return [] if all(sizes) else ["ner-build wrote an empty annotation file"]


def check_ner_train(out: Path, truth: dict, info: dict) -> list[str]:
    labels = json.loads((out / "tagger.json").read_text(encoding="utf-8"))["labels"]
    categories = {label.split("-", 1)[1] for label in labels if label != "O"}
    wanted = {"DIST", "DIT", "PPE", "SYM", "TEST"}
    return [] if categories == wanted else [f"model categories {sorted(categories)}"]


def check_ner_eval(out: Path, truth: dict, info: dict) -> list[str]:
    micro = [row for row in _rows(out / "eval.tsv") if row[0] == "micro"]
    f1 = float(micro[0][3]) if micro else 0.0
    return [] if f1 >= NER_F1_FLOOR else [f"ner-eval micro F1 {f1:.3f} < {NER_F1_FLOOR}"]


def check_ner_tag(out: Path, truth: dict, info: dict) -> list[str]:
    found: Counter = Counter()
    for post_id, _, _, category, _ in _rows(out / "mentions.tsv"):
        found[(post_id, category)] += 1
    planted = Counter({(post_id, category): n for post_id, cats in truth["mentions"].items()
                       for category, n in cats.items()})
    hit = sum(min(n, found[key]) for key, n in planted.items())
    recall = hit / max(1, sum(planted.values()))
    return [] if recall >= NER_RECALL_FLOOR else [f"ner-tag recall {recall:.3f} < {NER_RECALL_FLOOR}"]


def check_sentiment(out: Path, truth: dict, info: dict) -> list[str]:
    row = _rows(out / "sentiment.tsv")[0]
    entity, mean = row[0], float(row[4])
    sign = truth["polarity"][entity]
    ok = mean * sign > 0
    return [] if ok else [f"{entity}: mean_compound {mean} lacks planted sign {sign:+d}"]


def check_report(out: Path, truth: dict, info: dict) -> list[str]:
    base = out / CORPUS_ID
    problems: list[str] = []
    weekly = sum(int(row[1]) for row in _rows(base / "weekly" / "weekly_posts.tsv"))
    _expect(problems, weekly == len(truth["kept_ids"]),
            f"weekly total {weekly}, expected {len(truth['kept_ids'])}")
    mentions_file = _flag(info["argv"], "--mentions")
    if mentions_file:
        mentions = len(_rows(Path(mentions_file)))
        totals = sum(int(row[2]) for row in _rows(base / "entities" / "entity_totals.tsv"))
        _expect(problems, totals == mentions, f"entity totals {totals}, mention rows {mentions}")
    return problems


CHECKS = {
    "ingest": check_ingest,
    "stats": check_stats,
    "preprocess": check_preprocess,
    "topics": check_topics,
    "topics-monthly": check_topics_monthly,
    "ner-build": check_ner_build,
    "ner-train": check_ner_train,
    "ner-eval": check_ner_eval,
    "ner-tag": check_ner_tag,
    "sentiment": check_sentiment,
    "report": check_report,
}
