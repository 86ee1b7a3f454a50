"""Tests for weekly/monthly aggregation, percentage tables, and exports."""

from __future__ import annotations

import math
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadscope.topics import LdaConfig, TopicAssignment, TopicModel, Vocabulary
from threadscope.report import (
    EntityCount,
    EntityReport,
    Mention,
    MonthlySeries,
    WeekBucket,
    counts_from_mentions,
    entity_report,
    entity_table,
    entity_totals_table,
    export_topic_artifacts,
    frequency_table,
    monthly_entity_trends,
    percent_round_half_up,
    trends_table,
    week_start_of,
    weekly_post_counts,
    weekly_table,
)


def ts(day: str, hour: int = 12) -> int:
    d = date.fromisoformat(day)
    return int(datetime(d.year, d.month, d.day, hour, tzinfo=timezone.utc).timestamp())


class FakeDoc:
    def __init__(self, post_id, created_utc, subreddit="covid"):
        self.post_id = post_id
        self.created_utc = created_utc
        self.subreddit = subreddit


# ---------------------------------------------------------------- weeks


def test_week_start_pinned():
    assert week_start_of(date(2020, 3, 21)) == date(2020, 3, 15)
    # a Sunday maps to itself
    assert week_start_of(date(2020, 3, 15)) == date(2020, 3, 15)
    assert week_start_of(date(2020, 3, 16)) == date(2020, 3, 15)


@given(st.dates(min_value=date(2019, 1, 1), max_value=date(2022, 12, 31)))
def test_week_start_is_sunday_within_six_days(day):
    start = week_start_of(day)
    assert start.weekday() == 6
    assert start <= day
    assert (day - start).days <= 6


def test_weekly_counts_zero_fill():
    docs = [
        FakeDoc("p1", ts("2020-03-02")),
        FakeDoc("p2", ts("2020-03-21")),
        FakeDoc("p3", ts("2020-03-21")),
    ]
    buckets = weekly_post_counts(docs)
    assert [b.week_start for b in buckets] == [
        date(2020, 3, 1),
        date(2020, 3, 8),
        date(2020, 3, 15),
    ]
    assert [b.count for b in buckets] == [1, 0, 2]


def test_weekly_counts_explicit_range_extends_and_filters():
    docs = [FakeDoc("p1", ts("2020-03-21"))]
    buckets = weekly_post_counts(
        docs, date_from=date(2020, 3, 8), date_to=date(2020, 3, 28)
    )
    assert [b.week_start for b in buckets] == [
        date(2020, 3, 8),
        date(2020, 3, 15),
        date(2020, 3, 22),
    ]
    assert [b.count for b in buckets] == [0, 1, 0]


def test_weekly_counts_empty():
    assert weekly_post_counts([]) == []
    buckets = weekly_post_counts([], date_from=date(2020, 3, 1))
    assert [b.count for b in buckets] == [0]


@given(
    st.lists(
        st.dates(min_value=date(2020, 1, 1), max_value=date(2020, 12, 31)),
        min_size=1,
        max_size=40,
    )
)
def test_weekly_counts_contiguous_and_complete(days):
    docs = [FakeDoc(f"p{i}", ts(d.isoformat())) for i, d in enumerate(days)]
    buckets = weekly_post_counts(docs)
    starts = [b.week_start for b in buckets]
    for prev, cur in zip(starts, starts[1:]):
        assert (cur - prev).days == 7
    assert sum(b.count for b in buckets) == len(days)


def test_weekly_counts_at_the_ends_of_the_calendar():
    # year 9999 ends on a Friday: its last week starts on the 26th
    last = [FakeDoc("p1", 253_402_300_799)]
    assert weekly_post_counts(last) == [WeekBucket(date(9999, 12, 26), 1)]
    # 0001-01-01 is a Monday, and the Sunday before it is no date
    first = [FakeDoc("p1", -62_135_596_800)]
    with pytest.raises(ValueError, match="0001-01-01 has no Sunday"):
        weekly_post_counts(first)
    assert weekly_post_counts(first, date_from=date(1, 1, 7)) == [WeekBucket(date(1, 1, 7), 0)]


def test_weekly_table():
    docs = [FakeDoc("p1", ts("2020-03-02"))]
    table = weekly_table(weekly_post_counts(docs))
    assert table == "week_start\tposts\n2020-03-01\t1\n"


# ---------------------------------------------------------------- rounding


def test_percent_pinned_values():
    assert percent_round_half_up(1, 8) == 13
    assert percent_round_half_up(1, 3) == 33
    assert percent_round_half_up(5, 9) == 56
    assert percent_round_half_up(0, 10) == 0
    assert percent_round_half_up(5, 5) == 100
    assert percent_round_half_up(3, 0) == 0
    # exact halves round up
    assert percent_round_half_up(1, 200) == 1
    assert percent_round_half_up(3, 200) == 2


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=10_000))
def test_percent_matches_exact_half_up_oracle(count, total):
    expected = math.floor(Fraction(100 * count, total) + Fraction(1, 2))
    assert percent_round_half_up(count, total) == expected


# ---------------------------------------------------------------- entities


def ec(category, name, count):
    return EntityCount(category=category, name=name, count=count)


def test_entity_report_totals_and_truncation():
    rows = [ec("DIST", f"d{i}", 10 - i) for i in range(5)]
    rows += [ec("PPE", f"p{i}", 20 - i) for i in range(10)]
    counts = {"covid": rows}
    (full,) = entity_report(counts)
    assert full.totals["DIST"] == sum(10 - i for i in range(5))
    assert full.totals["PPE"] == sum(20 - i for i in range(10))
    # zero-count categories still appear in the totals
    assert full.totals["SYM"] == 0
    assert len(full.rows) == 15

    (truncated,) = entity_report(counts, truncate=True)
    dist_rows = [r for r in truncated.rows if r.category == "DIST"]
    ppe_rows = [r for r in truncated.rows if r.category == "PPE"]
    assert [r.name for r in dist_rows] == ["d0", "d1", "d2"]
    assert len(ppe_rows) == 8
    # totals still reflect the untruncated counts
    assert truncated.totals == full.totals


def test_entity_table_share_uses_category_total():
    counts = {"covid": [ec("PPE", "mask", 5), ec("PPE", "glove", 4)]}
    table = entity_table(entity_report(counts))
    lines = table.splitlines()
    assert lines[0] == "subreddit\tcategory\tname\tcount\tshare_pct"
    assert lines[1] == "covid\tPPE\tmask\t5\t56"
    assert lines[2] == "covid\tPPE\tglove\t4\t44"


def test_entity_totals_table():
    counts = {"covid": [ec("PPE", "mask", 5)]}
    table = entity_totals_table(entity_report(counts))
    assert table == (
        "subreddit\tcategory\ttotal\n"
        "covid\tDIST\t0\ncovid\tDIT\t0\ncovid\tPPE\t5\ncovid\tSYM\t0\ncovid\tTEST\t0\n"
    )


def test_counts_from_mentions_ordering_and_share():
    mentions = [
        Mention("p1", "covid", 0, "PPE", "mask"),
        Mention("p1", "covid", 0, "PPE", "glove"),
        Mention("p2", "covid", 0, "PPE", "mask"),
        Mention("p2", "covid", 0, "DIST", "lockdown"),
        Mention("p3", "askreddit", 0, "PPE", "mask"),
    ]
    counts = counts_from_mentions(mentions)
    assert list(counts) == ["askreddit", "covid"]
    assert counts["covid"] == [
        EntityCount(category="DIST", name="lockdown", count=1),
        EntityCount(category="PPE", name="mask", count=2),
        EntityCount(category="PPE", name="glove", count=1),
    ]


def test_counts_from_mentions_name_tiebreak():
    mentions = [
        Mention("p1", "covid", 0, "PPE", "visor"),
        Mention("p1", "covid", 0, "PPE", "apron"),
    ]
    counts = counts_from_mentions(mentions)
    assert [r.name for r in counts["covid"]] == ["apron", "visor"]


# ---------------------------------------------------------------- trends


def test_monthly_trends_zero_fill_span():
    docs = [
        FakeDoc("p1", ts("2020-03-05")),
        FakeDoc("p2", ts("2020-06-20")),
    ]
    mentions = [
        Mention("p1", "covid", 0, "PPE", "mask"),
        Mention("p1", "covid", 0, "PPE", "mask"),
        Mention("p1", "covid", 0, "SYM", "fever"),
        Mention("p2", "covid", 0, "PPE", "mask"),
        Mention("ghost", "covid", 0, "PPE", "mask"),
    ]
    series = monthly_entity_trends(docs, ["mask", "fever"], mentions)
    mask, fever = series
    assert mask.months == ("2020-03", "2020-04", "2020-05", "2020-06")
    assert mask.counts == (2, 0, 0, 1)
    assert fever.counts == (1, 0, 0, 0)


def test_monthly_trends_empty_documents():
    series = monthly_entity_trends([], ["mask"], [])
    assert series == [MonthlySeries(entity="mask", months=(), counts=())]


def test_trends_table():
    series = [MonthlySeries(entity="mask", months=("2020-03",), counts=(2,))]
    assert trends_table(series) == "entity\tmonth\tcount\nmask\t2020-03\t2\n"


# ---------------------------------------------------------------- topics


def test_topic_frequency_rows_and_table():
    assert frequency_table([3, 1, 4]) == (
        "topic\tcount\tpercentage\n0\t3\t38\n1\t1\t13\n2\t4\t50\n"
    )


def test_export_topic_artifacts():
    vocab = Vocabulary(terms=("mask", "test", "fever"), df=(3, 3, 3), n_docs=4)
    lam = np.array([[4.0, 2.0, 1.0], [1.0, 1.0, 5.0]])
    model = TopicModel(lam=lam, config=LdaConfig(k=2, top_n=2))
    assignments = [
        TopicAssignment(post_id="p1", topic=0, probability=0.875),
        TopicAssignment(post_id="p2", topic=1, probability=0.6),
    ]
    files = export_topic_artifacts(model, vocab, assignments, [1, 1])
    assert sorted(files) == [
        "assignments.tsv",
        "keywords.txt",
        "topic_frequencies.tsv",
        "wordcloud_topic0.tsv",
        "wordcloud_topic1.tsv",
    ]
    keywords = files["keywords.txt"].splitlines()
    assert keywords[0] == "vocabulary_size\t3"
    assert keywords[1] == f"topic0\t1\tmask\t{4/7:.6f}"
    assert len(keywords) == 1 + 2 * 2
    cloud = files["wordcloud_topic1.tsv"].splitlines()
    assert cloud[0] == "term\tweight"
    assert cloud[1] == f"fever\t{5/7:.6f}"
    assignments_lines = files["assignments.tsv"].splitlines()
    assert assignments_lines[1] == "p1\t0\t0.875000"
    freq = files["topic_frequencies.tsv"].splitlines()
    assert freq[1] == "0\t1\t50"
