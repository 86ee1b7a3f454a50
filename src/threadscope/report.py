"""Aggregate views as tab-separated text: weekly post counts, entity
count/share tables, month-to-month entity trends, and topic artifact
exports (keywords, word-cloud data, assignments, frequencies).

Every table is deterministic: given identical inputs and seeds the
emitted bytes are identical.  Writing them is the CLI's job.
"""

from __future__ import annotations

from collections import Counter
from datetime import date
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .corpus import utc_date, utc_day_bounds, utc_month, utc_month_range
from .errors import FormatError
from .nerdata import DEFAULT_CATEGORIES
from .textprep import table

if TYPE_CHECKING:  # topics imports numpy, which only the topic commands need
    from .topics import TopicAssignment, TopicModel, Vocabulary


def week_start_of(day: date) -> date:
    """The Sunday on or before the given date.  The first days of year 1
    have none that ``date`` can hold: ValueError."""
    ordinal = day.toordinal() - (day.weekday() + 1) % 7
    if ordinal < 1:
        raise ValueError(f"{day} has no Sunday on or before it in year 1 or later")
    return date.fromordinal(ordinal)


def percent_round_half_up(count: int, total: int) -> int:
    """round(100*count/total) with exact integer half-up arithmetic."""
    if total == 0:
        return 0
    return (200 * count + total) // (2 * total)


class WeekBucket(NamedTuple):
    week_start: date
    count: int


def in_window(documents: Sequence, date_from: date | None, date_to: date | None) -> list:
    """The documents whose UTC date lies within the inclusive bounds; a
    missing bound leaves that side open."""
    first, last = utc_day_bounds(date_from or date.min, date_to or date.max)
    return [doc for doc in documents if first <= doc.created_utc <= last]


def weekly_post_counts(
    documents: Sequence,
    date_from: date | None = None,
    date_to: date | None = None,
) -> list[WeekBucket]:
    """Bucket posts by the Sunday on or before their UTC date, zero-filled
    across the report range.  Posts dated outside a given bound are not
    counted; a missing bound is the first or last counted post's date."""
    days = [
        utc_date(doc.created_utc) for doc in in_window(documents, date_from, date_to)
    ]
    if date_from is None:
        if not days:
            return []
        date_from = min(days)
    if date_to is None:
        date_to = max(days) if days else date_from
    # stepped by ordinal, as the week after year 9999's last Sunday is no date
    counts = {
        date.fromordinal(ordinal): 0
        for ordinal in range(
            week_start_of(date_from).toordinal(), week_start_of(date_to).toordinal() + 1, 7
        )
    }
    for day in days:
        counts[week_start_of(day)] += 1
    return [WeekBucket(week_start=w, count=c) for w, c in sorted(counts.items())]


def weekly_table(buckets: Sequence[WeekBucket]) -> str:
    return table(("week_start", "posts"), buckets)


class EntityCount(NamedTuple):
    category: str
    name: str
    count: int


# Table-style truncation: top 3 rows for DIST, top 8 for everything else.
TRUNCATE_DIST = 3
TRUNCATE_OTHER = 8


class EntityReport(NamedTuple):
    """Per-subreddit category totals plus ranked (category, name, count)
    rows, optionally truncated."""

    subreddit: str
    totals: dict[str, int]
    rows: tuple[EntityCount, ...]


def entity_report(
    counts: Mapping[str, Sequence[EntityCount]], truncate: bool = False
) -> list[EntityReport]:
    reports: list[EntityReport] = []
    for subreddit in sorted(counts):
        rows = list(counts[subreddit])
        totals = {category: 0 for category in DEFAULT_CATEGORIES}
        for row in rows:
            totals[row.category] = totals.get(row.category, 0) + row.count
        if truncate:
            kept: list[EntityCount] = []
            per_category: dict[str, int] = {}
            for row in rows:
                limit = TRUNCATE_DIST if row.category == "DIST" else TRUNCATE_OTHER
                seen = per_category.get(row.category, 0)
                if seen < limit:
                    kept.append(row)
                    per_category[row.category] = seen + 1
            rows = kept
        reports.append(
            EntityReport(subreddit=subreddit, totals=totals, rows=tuple(rows))
        )
    return reports


def entity_table(reports: Sequence[EntityReport]) -> str:
    return table(
        ("subreddit", "category", "name", "count", "share_pct"),
        (
            (
                report.subreddit,
                *row,
                percent_round_half_up(row.count, report.totals[row.category]),
            )
            for report in reports
            for row in report.rows
        ),
    )


def entity_totals_table(reports: Sequence[EntityReport]) -> str:
    return table(
        ("subreddit", "category", "total"),
        (
            (report.subreddit, category, total)
            for report in reports
            for category, total in report.totals.items()
        ),
    )


class Mention(NamedTuple):
    """One row of the mentions table ``ner-tag`` writes and ``report
    --mentions`` reads; the field names are the table's header."""

    post_id: str
    subreddit: str
    created_utc: int
    category: str
    name: str


def read_mentions(path: str) -> list[Mention]:
    """The rows of a mentions file; a first line other than the header, a
    row of another width or a created_utc that is not an integer raises
    FormatError."""
    mentions: list[Mention] = []
    with open(path, encoding="utf-8-sig") as handle:  # may start with a BOM
        if tuple(handle.readline().rstrip("\n").split("\t")) != Mention._fields:
            raise FormatError(1, "expected the header " + "<TAB>".join(Mention._fields))
        for line_no, raw in enumerate(handle, start=2):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != len(Mention._fields):
                raise FormatError(
                    line_no,
                    f"expected {len(Mention._fields)} tab-separated columns, got {len(parts)}",
                )
            try:
                created = int(parts[2])
            except ValueError as exc:
                raise FormatError(line_no, f"bad created_utc {parts[2]!r}") from exc
            mentions.append(Mention(parts[0], parts[1], created, parts[3], parts[4]))
    return mentions


def top_entity_per_category(mentions: Sequence[Mention]) -> list[str]:
    """The most mentioned name of each category, categories in order; a
    tie goes to the first name in sort order."""
    counts = Counter((mention.category, mention.name) for mention in mentions)
    picks: dict[str, str] = {}
    for (category, name), _ in sorted(
        counts.items(), key=lambda kv: (kv[0][0], -kv[1], kv[0][1])
    ):
        picks.setdefault(category, name)
    return list(picks.values())


def counts_from_mentions(mentions: Sequence[Mention]) -> dict[str, list[EntityCount]]:
    """Count mentions by subreddit, category and name: per subreddit,
    categories sorted, rows by count descending then name."""
    out: dict[str, list[EntityCount]] = {}
    for (subreddit, category, name), count in sorted(
        Counter((m.subreddit, m.category, m.name) for m in mentions).items(),
        key=lambda kv: (kv[0][:2], -kv[1], kv[0][2]),
    ):
        out.setdefault(subreddit, []).append(EntityCount(category, name, count))
    return out


class MonthlySeries(NamedTuple):
    entity: str
    months: tuple[str, ...]
    counts: tuple[int, ...]


def monthly_entity_trends(
    documents: Sequence,
    entities: Sequence[str],
    mentions: Sequence[Mention],
) -> list[MonthlySeries]:
    """Mention counts per UTC calendar month of their post for each
    selected normalized entity name, zero-filled over the documents' month
    span; a mention of a post not among the documents is not counted."""
    if not documents:
        return [MonthlySeries(entity=e, months=(), counts=()) for e in entities]
    doc_months = {doc.post_id: utc_month(doc.created_utc) for doc in documents}
    created = [doc.created_utc for doc in documents]
    months = tuple(utc_month_range(min(created), max(created)))
    counts = Counter(
        (mention.name, doc_months[mention.post_id])
        for mention in mentions
        if mention.post_id in doc_months
    )
    return [
        MonthlySeries(entity, months, tuple(counts[entity, month] for month in months))
        for entity in entities
    ]


def trends_table(series: Sequence[MonthlySeries]) -> str:
    return table(
        ("entity", "month", "count"),
        (
            (one.entity, month, count)
            for one in series
            for month, count in zip(one.months, one.counts)
        ),
    )


def frequency_table(frequencies: Sequence[int]) -> str:
    """Documents per topic and their rounded share of all documents."""
    total = sum(frequencies)
    return table(
        ("topic", "count", "percentage"),
        (
            (topic, count, percent_round_half_up(count, total))
            for topic, count in enumerate(frequencies)
        ),
    )


def export_topic_artifacts(
    model: TopicModel,
    vocab: Vocabulary,
    assignments: Sequence[TopicAssignment],
    frequencies: Sequence[int],
) -> dict[str, str]:
    """The text of a topics export by file name: keywords, per-topic
    word-cloud data, the extended assignment table, and topic frequencies."""
    from .topics import top_words

    lists = top_words(model, vocab)
    files = {
        "keywords.txt": table(
            ("vocabulary_size", str(vocab.size)),
            (
                (f"topic{topic}", rank, term, f"{weight:.6f}")
                for topic, pairs in enumerate(lists)
                for rank, (term, weight) in enumerate(pairs, start=1)
            ),
        )
    }
    for topic, pairs in enumerate(lists):
        files[f"wordcloud_topic{topic}.tsv"] = table(
            ("term", "weight"), ((term, f"{weight:.6f}") for term, weight in pairs)
        )
    files["assignments.tsv"] = table(
        ("post_id", "topic", "probability"),
        ((a.post_id, a.topic, f"{a.probability:.6f}") for a in assignments),
    )
    files["topic_frequencies.tsv"] = frequency_table(frequencies)
    return files
