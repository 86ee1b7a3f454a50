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

from .corpus import _month_of, _utc_date, utc_day_bounds
from .nerdata import DEFAULT_CATEGORIES
from .textprep import table

if TYPE_CHECKING:  # topics imports numpy, which only the topic commands need
    from .topics import TopicAssignment, TopicModel


def week_start_of(day: date) -> date:
    """The Sunday on or before the given date.  The first days of year 1
    have none that ``date`` can hold: ValueError."""
    ordinal = day.toordinal() - (day.weekday() + 1) % 7
    if ordinal < 1:
        raise ValueError(f"{day} has no Sunday on or before it in year 1 or later")
    return date.fromordinal(ordinal)


def _month_range(first: str, last: str) -> list[str]:
    year, month = map(int, first.split("-"))
    end_year, end_month = map(int, last.split("-"))
    months: list[str] = []
    while (year, month) <= (end_year, end_month):
        months.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            month = 1
            year += 1
    return months


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
        _utc_date(doc.created_utc) for doc in in_window(documents, date_from, date_to)
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


def counts_from_mentions(
    mentions: Sequence[tuple[str, str, str]],
) -> dict[str, list[EntityCount]]:
    """Count (subreddit, category, name) mention rows: per subreddit,
    categories sorted, rows by count descending then name."""
    out: dict[str, list[EntityCount]] = {}
    for (subreddit, category, name), count in sorted(
        Counter(mentions).items(), key=lambda kv: (kv[0][:2], -kv[1], kv[0][2])
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
    doc_mentions: Mapping[str, Sequence[tuple[str, str]]],
) -> list[MonthlySeries]:
    """Mention counts per UTC calendar month for each selected normalized
    entity name, zero-filled over the documents' month span."""
    if not documents:
        return [MonthlySeries(entity=e, months=(), counts=()) for e in entities]
    doc_months = {doc.post_id: _month_of(doc.created_utc) for doc in documents}
    months = tuple(_month_range(min(doc_months.values()), max(doc_months.values())))
    counts = Counter(
        (name, doc_months[post_id])
        for post_id, mentions in doc_mentions.items()
        if post_id in doc_months
        for _, name in mentions
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
    assignments: Sequence[TopicAssignment],
    frequencies: Sequence[int],
) -> dict[str, str]:
    """The text of a topics export by file name: keywords, per-topic
    word-cloud data, the extended assignment table, and topic frequencies."""
    from .topics import top_words

    lists = top_words(model)
    assert model.vocab is not None
    files = {
        "keywords.txt": table(
            ("vocabulary_size", str(model.vocab.size)),
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
