"""Tests for dump parsing, filtering, thread assembly, and stats."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import sys
import tempfile
from contextlib import contextmanager
from datetime import date, datetime, timezone
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threadscope import corpus
from threadscope.corpus import (
    MAX_UTC,
    MIN_UTC,
    CorpusStats,
    Document,
    DumpScan,
    FilterSpec,
    RedditRecord,
    assemble_documents,
    corpus_stats,
    dedup_sentences,
    filter_records,
    parse_dump,
    read_documents,
    stats_table,
    write_documents,
)
from threadscope import textprep
from threadscope.errors import DumpParseError, UnknownSchemaError


def utc(day: str, hour: int = 12) -> int:
    d = date.fromisoformat(day)
    return int(datetime(d.year, d.month, d.day, hour, tzinfo=timezone.utc).timestamp())


def post(rid, sub="covid", created=None, title="covid thread", **kw):
    return RedditRecord(
        kind="post",
        id=rid,
        subreddit=sub,
        created_utc=created if created is not None else utc("2020-03-15"),
        title=title,
        **kw,
    )


def comment(rid, parent, sub="covid", created=None, body="stay safe", **kw):
    return RedditRecord(
        kind="comment",
        id=rid,
        subreddit=sub,
        created_utc=created if created is not None else utc("2020-03-15"),
        body=body,
        parent_post_id=parent,
        **kw,
    )


SPEC = FilterSpec(
    keywords=("covid", "mask"),
    date_from=date(2020, 3, 1),
    date_to=date(2020, 8, 31),
)


@contextmanager
def scan_of(records):
    """A DumpScan over a native dump that holds the records, one a line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.jsonl"
        path.write_text(
            "".join(json.dumps(record._asdict()) + "\n" for record in records),
            encoding="utf-8",
        )
        yield DumpScan(path, "native")


def kept_by(records, spec):
    """What the filter keeps from a dump of the records."""
    with scan_of(records) as scan:
        return filter_records(scan, spec)


def ingested(records, spec):
    """The filter's matches in a dump of the records, and the documents
    assembled over the threads ``reread`` decodes again, which must be the
    ones the reference assembles over the whole dump."""
    with scan_of(records) as scan:
        matched = filter_records(scan, spec)
        subset = scan.reread(_threads_named(matched))
        documents = assemble_documents(subset, matched, spec=spec)
        assert ref_assemble_documents(list(scan), matched, spec) == documents
    return matched, documents


# ---------------------------------------------------------------- parsing


def test_parse_native_fixture(fixtures):
    records = parse_dump(fixtures / "sample_dump.jsonl", schema="native")
    posts = [r for r in records if r.kind == "post"]
    comments = [r for r in records if r.kind == "comment"]
    assert len(posts) == 12
    # the duplicate c20 line is still parsed; dedup happens downstream
    assert len(comments) == 25
    by_id = {r.id: r for r in records}
    assert by_id["p01"].subreddit == "coronavirus"
    assert by_id["c01"].parent_post_id == "p01"


def test_parse_native_strips_fullname_prefix(tmp_path):
    dump = tmp_path / "d.jsonl"
    dump.write_text(
        json.dumps(
            {
                "kind": "comment",
                "id": "c1",
                "subreddit": "covid",
                "created_utc": utc("2020-03-15"),
                "body": "hi",
                "parent_post_id": "t3_p1",
            }
        )
        + "\n"
    )
    (record,) = parse_dump(dump, schema="native")
    assert record.parent_post_id == "p1"


def test_parse_pushshift_schema(tmp_path):
    dump = tmp_path / "d.jsonl"
    lines = [
        {
            "id": "p1",
            "subreddit": "covid",
            "created_utc": utc("2020-03-15"),
            "title": "mask update",
            "selftext": "wear one",
            "num_comments": 1,
        },
        {
            "id": "c1",
            "subreddit": "covid",
            "created_utc": str(utc("2020-03-15")),
            "body": "will do",
            "link_id": "t3_p1",
        },
    ]
    dump.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    records = parse_dump(dump, schema="pushshift")
    assert records[0].kind == "post"
    assert records[0].body == "wear one"
    assert records[1].kind == "comment"
    assert records[1].parent_post_id == "p1"
    assert records[1].created_utc == utc("2020-03-15")


def test_parse_reports_line_number(tmp_path):
    dump = tmp_path / "d.jsonl"
    good = json.dumps(
        {
            "kind": "post",
            "id": "p1",
            "subreddit": "covid",
            "created_utc": 1,
            "title": "t",
        }
    )
    dump.write_text(good + "\n" + "{not json\n" + good + "\n")
    with pytest.raises(DumpParseError) as excinfo:
        parse_dump(dump, schema="native")
    assert excinfo.value.line_no == 2


def test_parse_missing_field_raises(tmp_path):
    dump = tmp_path / "d.jsonl"
    dump.write_text(json.dumps({"kind": "post", "id": "p1"}) + "\n")
    with pytest.raises(DumpParseError) as excinfo:
        parse_dump(dump, schema="native")
    assert excinfo.value.line_no == 1
    assert excinfo.value.reason == "missing field 'subreddit'"


def test_parse_skip_mode_names_the_missing_field(tmp_path, caplog):
    dump = tmp_path / "d.jsonl"
    dump.write_text(json.dumps({"kind": "post", "id": "p1", "subreddit": "s"}) + "\n")
    with caplog.at_level("WARNING"):
        assert parse_dump(dump, schema="native", on_error="skip") == []
    assert caplog.messages == ["skipping line 1: missing field 'created_utc'"]


def test_parse_skip_mode_keeps_going(tmp_path):
    dump = tmp_path / "d.jsonl"
    good = json.dumps(
        {
            "kind": "post",
            "id": "p1",
            "subreddit": "covid",
            "created_utc": 1,
            "title": "t",
        }
    )
    bad = json.dumps({"kind": "banana", "id": "x"})
    dump.write_text("\n".join([good, bad, "[]", good]) + "\n")
    records = parse_dump(dump, schema="native", on_error="skip")
    assert [r.id for r in records] == ["p1", "p1"]


def test_parse_rejects_unknown_schema(tmp_path):
    with pytest.raises(UnknownSchemaError):
        parse_dump(tmp_path / "d.jsonl", schema="csv")


def test_parse_rejects_bad_on_error(tmp_path):
    with pytest.raises(ValueError):
        parse_dump(tmp_path / "d.jsonl", schema="native", on_error="ignore")


def test_comment_without_parent_rejected(tmp_path):
    dump = tmp_path / "d.jsonl"
    dump.write_text(
        json.dumps(
            {
                "kind": "comment",
                "id": "c1",
                "subreddit": "covid",
                "created_utc": 1,
                "body": "hi",
            }
        )
        + "\n"
    )
    with pytest.raises(DumpParseError):
        parse_dump(dump, schema="native")


# Dump lines whose numbers overflow an int or a date, or whose nesting
# overflows the JSON decoder's recursion limit; each is one bad record.
OVERFLOW_LINES = {
    "nesting=100000": "[" * 100_000,
    "created_utc=Infinity": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": Infinity, "title": "covid"}',
    "created_utc=1e20": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": 1e20, "title": "covid"}',
    "num_comments=1e400": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": 1580000000, "title": "covid", "num_comments": 1e400}',
    "created_utc=-Infinity": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": -Infinity, "title": "covid"}',
    "created_utc=NaN": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": NaN, "title": "covid"}',
    'created_utc="inf"': '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": "inf", "title": "covid"}',
    "created_utc=10**30": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": 1000000000000000000000000000000, "title": "covid"}',
}
GOOD_LINE = '{"kind": "post", "id": "ok", "subreddit": "s", "created_utc": 1580000000, "title": "covid"}'


@pytest.mark.parametrize("line", OVERFLOW_LINES.values(), ids=list(OVERFLOW_LINES))
def test_parse_treats_overflowing_numbers_as_bad_records(tmp_path, line):
    dump = tmp_path / "d.jsonl"
    dump.write_text(f"{GOOD_LINE}\n{line}\n")
    with pytest.raises(DumpParseError) as excinfo:
        parse_dump(dump, schema="native")
    assert excinfo.value.line_no == 2
    assert [r.id for r in parse_dump(dump, schema="native", on_error="skip")] == ["ok"]


def test_created_utc_bounds_are_the_datetime_range(tmp_path):
    for inside in (MIN_UTC, MAX_UTC):
        datetime.fromtimestamp(inside, tz=timezone.utc)
    for outside in (MIN_UTC - 1, MAX_UTC + 1):
        with pytest.raises(ValueError):
            datetime.fromtimestamp(outside, tz=timezone.utc)
    dump = tmp_path / "d.jsonl"
    lines = [
        json.dumps({"kind": "post", "id": str(v), "subreddit": "s", "created_utc": v, "title": "t"})
        for v in (MIN_UTC, MAX_UTC, MIN_UTC - 1, MAX_UTC + 1, float(MAX_UTC) + 0.5)
    ]
    dump.write_text("\n".join(lines) + "\n")
    records = parse_dump(dump, schema="native", on_error="skip")
    assert [r.created_utc for r in records] == [MIN_UTC, MAX_UTC, MAX_UTC]


@given(st.integers(min_value=MIN_UTC, max_value=MAX_UTC))
@example(MIN_UTC)
@example(MAX_UTC)
@example(-1)
@example(0)
def test_utc_date_and_month_follow_the_datetime_calendar(seconds):
    day = datetime.fromtimestamp(seconds, tz=timezone.utc).date()
    assert corpus.utc_date(seconds) == day
    assert corpus.utc_month(seconds) == f"{day.year:04d}-{day.month:02d}"


# a span of up to ten years keeps each drawn range short; the examples
# take the whole calendar
@given(
    st.integers(min_value=MIN_UTC, max_value=MAX_UTC),
    st.integers(min_value=0, max_value=10 * 366 * 86_400),
)
@example(MIN_UTC, MAX_UTC - MIN_UTC)
@example(MAX_UTC, 0)
@example(-1, 1)
def test_utc_month_range_steps_one_month_from_first_to_last(first, span):
    last = min(first + span, MAX_UTC)
    months = corpus.utc_month_range(first, last)
    assert months[0] == corpus.utc_month(first)
    assert months[-1] == corpus.utc_month(last)
    for earlier, later in zip(months, months[1:]):
        year, month = map(int, earlier.split("-"))
        assert later == (f"{year:04d}-{month + 1:02d}" if month < 12 else f"{year + 1:04d}-01")
    if (first, last) == (MIN_UTC, MAX_UTC):
        assert (months[0], months[-1], len(months)) == ("0001-01", "9999-12", 9999 * 12)


def test_parse_blank_and_padded_lines(tmp_path):
    dump = tmp_path / "d.jsonl"
    lines = ["", "   ", "\t", "\u3000", f"  {GOOD_LINE}", f"{GOOD_LINE}\t ", GOOD_LINE]
    dump.write_text("\n".join(lines), encoding="utf-8")
    assert [r.id for r in parse_dump(dump, schema="native")] == ["ok", "ok", "ok"]


@pytest.mark.parametrize(
    "line, reason",
    [
        (f"{GOOD_LINE} x", "Extra data"),
        ("\ufeff" + GOOD_LINE, "Unexpected UTF-8 BOM"),
        (GOOD_LINE[:-1], "Expecting ',' delimiter"),
    ],
)
def test_parse_reports_json_errors_as_json_loads_does(tmp_path, line, reason):
    dump = tmp_path / "d.jsonl"
    # line 2, as a byte-order mark that starts the file is no text
    dump.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DumpParseError) as excinfo:
        parse_dump(dump, schema="native")
    assert excinfo.value.line_no == 2
    with pytest.raises(ValueError) as expected:
        json.loads(line + "\n")
    assert excinfo.value.reason == str(expected.value)
    assert excinfo.value.reason.startswith(reason)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
JSON_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["", " ", "\t", "\ufeff", "\n"]),
        JSON_VALUES.map(json.dumps),
        st.sampled_from(["", "\n", " ", " \n", "\n\n", "x", "\n]", "\ufeff"]),
    ).map("".join),
    # fragments of JSON: truncated, unbalanced, or not JSON at all
    st.text(alphabet='{}[]",:0123456789.eE+-truefalsnNIiy \n\t\\', max_size=20),
)


def _decode_outcome(decode, line):
    try:
        value = decode(line)
    except Exception as exc:  # the type and the text are what is compared
        return type(exc), str(exc)
    return type(value), repr(value)


@settings(max_examples=500)
@given(JSON_LINES)
@example("[" * 100_000 + "]" * 100_000 + "\n")
@example("NaN\n")
@example("-0.0\n")
@example("")
def test_decode_line_gives_the_value_or_error_of_json_loads(line):
    assert _decode_outcome(corpus._decode_line, line) == _decode_outcome(
        json.loads, line
    )


# ---------------------------------------------------------------- filtering


def test_filterspec_validation():
    with pytest.raises(ValueError):
        FilterSpec(keywords=(), date_from=date(2020, 3, 1), date_to=date(2020, 3, 2))
    with pytest.raises(ValueError):
        FilterSpec(
            keywords=("covid",), date_from=date(2020, 3, 2), date_to=date(2020, 3, 1)
        )


def test_filter_matches_title_or_body_case_insensitive():
    records = [
        post("p1", title="COVID spike"),
        post("p2", title="weather"),
        comment("c1", "p2", body="get a Mask"),
        comment("c2", "p2", body="nothing relevant"),
    ]
    kept = kept_by(records, SPEC)
    assert [r.id for r in kept] == ["p1", "c1"]


def test_filter_date_range_inclusive():
    records = [
        post("p1", created=utc("2020-02-29")),
        post("p2", created=utc("2020-03-01", hour=0)),
        post("p3", created=utc("2020-08-31", hour=23)),
        post("p4", created=utc("2020-09-01", hour=0)),
    ]
    kept = kept_by(records, SPEC)
    assert [r.id for r in kept] == ["p2", "p3"]


def test_filter_subreddit_restriction():
    spec = FilterSpec(
        keywords=("covid",),
        date_from=date(2020, 3, 1),
        date_to=date(2020, 8, 31),
        subreddits=("NYC",),
    )
    records = [post("p1", sub="nyc"), post("p2", sub="coronavirus")]
    kept = kept_by(records, spec)
    assert [r.id for r in kept] == ["p1"]


def test_filter_drops_duplicate_ids():
    records = [post("p1"), post("p1", title="covid again"), post("p1")]
    kept = kept_by(records, SPEC)
    assert len(kept) == 1
    assert kept[0].title == "covid thread"


# The integer bounds of SPEC: 2020-03-01 00:00:00 to 2020-08-31 23:59:59 UTC.
FIRST_SECOND = utc("2020-03-01", hour=0)
LAST_SECOND = utc("2020-08-31", hour=23) + 59 * 60 + 59


def test_filter_bounds_are_whole_utc_days():
    records = [
        post("before", created=FIRST_SECOND - 1),
        post("first", created=FIRST_SECOND),
        post("last", created=LAST_SECOND),
        post("after", created=LAST_SECOND + 1),
    ]
    assert utc("2020-09-01", hour=0) == LAST_SECOND + 1
    assert [r.id for r in kept_by(records, SPEC)] == ["first", "last"]
    assert [SPEC.admits(r) for r in records] == [False, True, True, False]


def test_assemble_applies_the_same_bounds_to_parent_posts():
    records = [
        post("before", created=FIRST_SECOND - 1, title="old"),
        post("first", created=FIRST_SECOND, title="old"),
        post("last", created=LAST_SECOND, title="old"),
        post("after", created=LAST_SECOND + 1, title="old"),
        *(comment(f"c-{p}", p, body="covid") for p in ("before", "first", "last", "after")),
    ]
    matched, docs = ingested(records, SPEC)
    assert len(matched) == 4
    assert [d.post_id for d in docs] == ["first", "last"]


def test_widest_spec_keeps_the_whole_datetime_range():
    spec = FilterSpec(
        keywords=("covid",), date_from=date(1, 1, 1), date_to=date(9999, 12, 31)
    )
    records = [post("min", created=MIN_UTC), post("max", created=MAX_UTC)]
    matched, docs = ingested(records, spec)
    assert [r.id for r in matched] == ["min", "max"]
    assert len(docs) == 2


def test_filter_case_folds_keywords_and_subreddits():
    spec = FilterSpec(
        keywords=("CoViD",),
        date_from=date(2020, 3, 1),
        date_to=date(2020, 8, 31),
        subreddits=("NyC", "coronavirus"),
    )
    records = [
        post("p1", sub="NYC", title="covid"),
        post("p2", sub="Coronavirus", title="COVID"),
        post("p3", sub="nyc2", title="covid"),
        post("p4", sub="nyc", title="cov id"),
    ]
    assert [r.id for r in kept_by(records, spec)] == ["p1", "p2"]


# ---------------------------------------------------------------- assembly


def test_assemble_includes_thread_for_comment_match():
    records = [
        post("p1", title="no keywords here"),
        comment("c1", "p1", body="covid positive", created=utc("2020-03-15", 2)),
        comment("c2", "p1", body="unrelated", created=utc("2020-03-15", 1)),
    ]
    _, (doc,) = ingested(records, SPEC)
    assert doc.post_id == "p1"
    # full thread, sorted by (created_utc, id), not just the matching comment
    assert doc.comment_bodies == ["unrelated", "covid positive"]


def test_assemble_drops_orphan_comments(caplog):
    records = [comment("c1", "p9", body="covid")]
    with caplog.at_level("WARNING"):
        _, docs = ingested(records, SPEC)
    assert docs == []
    assert "orphan" in caplog.text


def test_assemble_removes_placeholder_bodies():
    records = [
        post("p1"),
        comment("c1", "p1", body="[removed]"),
        comment("c2", "p1", body="[deleted]"),
        comment("c3", "p1", body="real text"),
    ]
    _, (doc,) = ingested(records, SPEC)
    assert doc.comment_bodies == ["real text"]


def test_assemble_spec_rejects_out_of_range_parent():
    records = [
        post("p1", created=utc("2020-02-01"), title="old thread"),
        comment("c1", "p1", body="covid", created=utc("2020-03-15")),
    ]
    matched, docs = ingested(records, SPEC)
    assert [r.id for r in matched] == ["c1"]
    # every document must satisfy the date constraint, so the in-range
    # comment does not drag in its old parent
    assert docs == []


def test_assemble_first_comment_with_an_id_wins_across_threads():
    records = [
        post("p1", title="weather"),
        post("p2", created=utc("2020-01-15"), title="old thread"),
        comment("c1", "p2", body="first c1, no keyword"),
        comment("c1", "p1", body="covid under another thread"),
        comment("c2", "p1", body="stay safe"),
    ]
    matched, (doc,) = ingested(records, SPEC)
    # the first c1 was not kept, so the later one is
    assert [r.body for r in matched] == ["covid under another thread"]
    # p1 is included for that comment, but c1's first record is in p2
    assert doc.post_id == "p1"
    assert doc.comment_bodies == ["stay safe"]


def test_assemble_first_post_with_an_id_wins():
    records = [post("p1", title="weather"), post("p1", title="covid news")]
    matched, (doc,) = ingested(records, SPEC)
    assert [r.title for r in matched] == ["covid news"]
    assert doc.title == "weather"


def test_assemble_sorts_documents_and_dedups_comment_lines():
    records = [
        post("p2", created=utc("2020-03-20")),
        post("p1", created=utc("2020-03-10")),
        comment("c1", "p2", body="covid a"),
        comment("c1", "p2", body="covid duplicate id"),
    ]
    _, docs = ingested(records, SPEC)
    assert [d.post_id for d in docs] == ["p1", "p2"]
    assert docs[1].comment_bodies == ["covid a"]


def test_document_raw_text_joins_title_and_comments():
    doc = Document(
        post_id="p1",
        subreddit="covid",
        created_utc=0,
        title="Masks",
        comment_bodies=["Wear one.", "Agreed."],
    )
    assert doc.raw_text == "Masks\nWear one.\nAgreed."


def test_dedup_sentences_keeps_first_occurrence():
    assert dedup_sentences(["a", "b", "a", "c", "b"]) == ["a", "b", "c"]


# ---------------------------------------------------------------- stats


def test_corpus_stats_pinned_example():
    doc = Document(
        post_id="p1",
        subreddit="covid",
        created_utc=0,
        title="PSA",
        comment_bodies=["Stay home. Wear a mask."],
    )
    stats = corpus_stats([doc])
    (row,) = stats.rows
    assert row.posts == 1
    assert row.comments == 1
    assert row.sentences == 2
    assert row.wordcount == 5


def test_corpus_stats_fixture_golden(fixtures):
    scan = DumpScan(fixtures / "sample_dump.jsonl", "native")
    spec = FilterSpec(
        keywords=(
            "covid",
            "corona",
            "virus",
            "pandemic",
            "lockdown",
            "mask",
            "quarantine",
            "testing",
        ),
        date_from=date(2020, 3, 1),
        date_to=date(2020, 8, 31),
    )
    matched = filter_records(scan, spec)
    docs = assemble_documents(scan.reread(_threads_named(matched)), matched, spec=spec)
    stats = corpus_stats(docs)
    by_name = {row.subreddit: row for row in stats.rows}
    assert set(by_name) == {"coronavirus", "nyc"}
    assert by_name["coronavirus"] == type(by_name["coronavirus"])(
        "coronavirus", 6, 12, 27, 223
    )
    assert by_name["nyc"] == type(by_name["nyc"])("nyc", 4, 8, 17, 144)
    assert stats.total.posts == 10
    assert stats.total.comments == 20
    assert stats.total.sentences == 44
    assert stats.total.wordcount == 367


def reference_corpus_stats(documents) -> dict[str, list[int]]:
    """The counts as corpus_stats computed them before it read sentence
    lists: words over each whole URL-stripped body."""
    acc: dict[str, list[int]] = {}
    for doc in documents:
        row = acc.setdefault(doc.subreddit, [0, 0, 0, 0])
        row[0] += 1
        row[1] += len(doc.comment_bodies)
        for body in doc.comment_bodies:
            stripped = textprep.strip_urls(body)
            row[2] += len(textprep.split_sentences(stripped))
            row[3] += len(stripped.split())
    return acc


BODY_PARTS = ["Stay home.", "Dr. Who", "U.S.", "e.g. this", "wow!!", "why?", "...",
              "https://x.io/a.b", "www.example.org.", "a.b", "\u2003", "\x0b", "\n", " "]


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.lists(
                st.lists(st.one_of(st.sampled_from(BODY_PARTS), st.text(max_size=5)), max_size=8)
                .map(" ".join),
                max_size=4,
            ),
        ),
        max_size=5,
    )
)
def test_corpus_stats_from_sentence_lists_match_the_reference(threads):
    docs = [
        Document(post_id=f"p{i}", subreddit=sub, created_utc=0, title="t", comment_bodies=bodies)
        for i, (sub, bodies) in enumerate(threads)
    ]
    body_sentences = [
        [textprep.url_free_sentences(body) for body in doc.comment_bodies] for doc in docs
    ]
    expected = reference_corpus_stats(docs)
    for stats in (corpus_stats(docs), corpus_stats(docs, body_sentences)):
        assert {row.subreddit: [row.posts, row.comments, row.sentences, row.wordcount]
                for row in stats.rows} == expected


def test_stats_table_layout():
    doc = Document(
        post_id="p1", subreddit="covid", created_utc=0, title="t", comment_bodies=["Hi."]
    )
    table = stats_table(corpus_stats([doc]))
    lines = table.splitlines()
    assert lines[0] == "Subreddit\t#Posts\t#Comments\t#Sentences\tWordcount"
    assert lines[1] == "covid\t1\t1\t1\t1"
    assert lines[2] == "Total\t1\t1\t1\t1"
    assert table.endswith("\n")


# ---------------------------------------------------------------- round trip


def test_write_read_documents_round_trip(tmp_path):
    docs = [
        Document(
            post_id="p1",
            subreddit="covid",
            created_utc=3,
            title="Masks",
            comment_bodies=["Wear one.", "[ok]"],
            cleaned_text="mask wear",
        ),
        Document(post_id="p2", subreddit="nyc", created_utc=5, title="Empty"),
    ]
    path = tmp_path / "docs.jsonl"
    write_documents(docs, path)
    loaded = read_documents(path)
    assert loaded == docs


def test_read_documents_reports_line_number(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"post_id": "p1"}\n')
    with pytest.raises(DumpParseError) as excinfo:
        read_documents(path)
    assert excinfo.value.line_no == 1
    assert excinfo.value.reason == "missing field 'subreddit'"


DOCUMENT = {
    "post_id": "p1",
    "subreddit": "covid",
    "created_utc": 1583366400,
    "title": "t",
    "comment_bodies": ["a", "b"],
    "cleaned_text": "a b",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("post_id", 7),
        ("subreddit", None),
        ("created_utc", "1583366400"),
        ("created_utc", 1583366400.0),
        ("created_utc", True),
        ("created_utc", 10**20),
        ("title", ["t"]),
        ("comment_bodies", "a b"),
        ("comment_bodies", ["a", 2]),
        ("cleaned_text", 0),
    ],
)
def test_read_documents_rejects_mistyped_fields(tmp_path, field, value):
    path = tmp_path / "docs.jsonl"
    good = json.dumps(DOCUMENT)
    path.write_text(good + "\n" + json.dumps({**DOCUMENT, field: value}) + "\n")
    with pytest.raises(DumpParseError) as excinfo:
        read_documents(path)
    assert excinfo.value.line_no == 2
    assert field in excinfo.value.reason


def test_read_documents_rejects_non_object_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(DumpParseError) as excinfo:
        read_documents(path)
    assert excinfo.value.line_no == 1


# ---------------------------------------------------------------- properties

record_strategy = st.builds(
    post,
    rid=st.text(st.characters(codec="ascii", categories=("L", "N")), min_size=1, max_size=4),
    created=st.integers(min_value=utc("2020-01-01"), max_value=utc("2020-12-31")),
    title=st.sampled_from(["covid news", "mask talk", "weather", "sports"]),
)


@given(st.lists(record_strategy, max_size=30))
def test_filter_output_ids_unique_and_subset(records):
    kept = kept_by(records, SPEC)
    ids = [r.id for r in kept]
    assert len(ids) == len(set(ids))
    assert set(ids) <= {r.id for r in records}
    for r in kept:
        assert "covid" in r.title or "mask" in r.title


@given(st.lists(record_strategy, max_size=30))
def test_assemble_output_is_sorted(records):
    _, docs = ingested(records, SPEC)
    keys = [(d.created_utc, d.post_id) for d in docs]
    assert keys == sorted(keys)


# ------------------------------------------------- reference ingest path
# parse_dump, filter_records and assemble_documents as they were when a
# record was a frozen dataclass and the filter was re-derived per record,
# with their helpers, kept verbatim apart from names, the logger, the
# encoding (utf-8-sig, as a dump may start with a byte-order mark) and the
# wording of a missing field ("missing field 'x'", once the bare KeyError
# text "'x'").  The current functions must give the same records,
# documents and warnings.

reference_logger = logging.getLogger("tests.reference_ingest")


@dataclasses.dataclass(frozen=True)
class ReferenceRecord:
    kind: str
    id: str
    subreddit: str
    created_utc: int
    title: str = ""
    body: str = ""
    parent_post_id: str = ""
    num_comments: int = 0


def _ref_strip_fullname(value: str) -> str:
    return value[3:] if value.startswith("t3_") else value


def _ref_check_utc_range(value: int) -> int:
    if not MIN_UTC <= value <= MAX_UTC:
        raise ValueError("created_utc is outside years 1 to 9999")
    return value


def _ref_coerce_utc(value) -> int:
    if isinstance(value, bool):
        raise ValueError("created_utc must be numeric")
    if isinstance(value, str) and value.strip():
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("created_utc must be finite")
    if isinstance(value, (int, float)):
        return _ref_check_utc_range(int(value))
    raise ValueError("created_utc must be numeric")


def _ref_record_from_native(obj: dict) -> ReferenceRecord:
    kind = obj["kind"]
    if kind not in ("post", "comment"):
        raise ValueError(f"unknown kind {kind!r}")
    record = ReferenceRecord(
        kind=kind,
        id=str(obj["id"]),
        subreddit=str(obj["subreddit"]),
        created_utc=_ref_coerce_utc(obj["created_utc"]),
        title=str(obj.get("title", "")),
        body=str(obj.get("body", "")),
        parent_post_id=_ref_strip_fullname(str(obj.get("parent_post_id", ""))),
        num_comments=int(obj.get("num_comments", 0)),
    )
    if kind == "comment" and not record.parent_post_id:
        raise ValueError("comment without parent_post_id")
    return record


def _ref_record_from_pushshift(obj: dict) -> ReferenceRecord:
    if "title" in obj:
        return ReferenceRecord(
            kind="post",
            id=str(obj["id"]),
            subreddit=str(obj["subreddit"]),
            created_utc=_ref_coerce_utc(obj["created_utc"]),
            title=str(obj["title"]),
            body=str(obj.get("selftext", "")),
            num_comments=int(obj.get("num_comments", 0)),
        )
    if "link_id" in obj:
        parent = _ref_strip_fullname(str(obj["link_id"]))
        if not parent:
            raise ValueError("comment without link_id")
        return ReferenceRecord(
            kind="comment",
            id=str(obj["id"]),
            subreddit=str(obj["subreddit"]),
            created_utc=_ref_coerce_utc(obj["created_utc"]),
            body=str(obj.get("body", "")),
            parent_post_id=parent,
        )
    raise ValueError("record is neither a post (title) nor a comment (link_id)")


_REF_PARSERS = {"native": _ref_record_from_native, "pushshift": _ref_record_from_pushshift}


def ref_parse_dump(path, schema, on_error="raise"):
    parser = _REF_PARSERS[schema]
    records = []
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("record is not an object")
                records.append(parser(obj))
            except (
                ValueError, KeyError, TypeError, OverflowError, RecursionError
            ) as exc:
                reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
                error = DumpParseError(line_no, reason)
                if on_error == "raise":
                    raise error from exc
                reference_logger.warning("skipping line %d: %s", line_no, reason)
    return records


def _ref_utc_date(created_utc: int) -> date:
    return datetime.fromtimestamp(created_utc, tz=timezone.utc).date()


def _ref_in_spec(record, spec: FilterSpec) -> bool:
    if spec.subreddits:
        wanted = {s.lower() for s in spec.subreddits}
        if record.subreddit.lower() not in wanted:
            return False
    return spec.date_from <= _ref_utc_date(record.created_utc) <= spec.date_to


def _ref_matches_keywords(record, keywords) -> bool:
    title = record.title.lower()
    body = record.body.lower()
    return any(kw.lower() in title or kw.lower() in body for kw in keywords)


def ref_filter_records(records, spec):
    seen = set()
    kept = []
    for record in records:
        if record.id in seen:
            continue
        if not _ref_in_spec(record, spec):
            continue
        if not _ref_matches_keywords(record, spec.keywords):
            continue
        seen.add(record.id)
        kept.append(record)
    return kept


def ref_assemble_documents(all_records, matched_records, spec=None):
    posts = {}
    comments = {}
    comments_by_parent = {}
    for record in all_records:
        if record.kind == "post":
            posts.setdefault(record.id, record)
        else:
            if record.id in comments:
                continue
            comments[record.id] = record
            comments_by_parent.setdefault(record.parent_post_id, []).append(record)

    included = set()
    for record in matched_records:
        parent = record.id if record.kind == "post" else record.parent_post_id
        if parent not in posts:
            reference_logger.warning(
                "orphan comment %s: parent post %s not in dump", record.id, parent
            )
            continue
        if spec is not None and not _ref_in_spec(posts[parent], spec):
            reference_logger.warning(
                "skipping post %s: outside the filter's date/subreddit range", parent
            )
            continue
        included.add(parent)

    documents = []
    for post_id in included:
        post = posts[post_id]
        thread = sorted(
            comments_by_parent.get(post_id, ()),
            key=lambda c: (c.created_utc, c.id),
        )
        bodies = [c.body for c in thread if c.body not in ("[removed]", "[deleted]")]
        documents.append(
            Document(
                post_id=post.id,
                subreddit=post.subreddit,
                created_utc=post.created_utc,
                title=post.title,
                comment_bodies=bodies,
            )
        )
    documents.sort(key=lambda d: (d.created_utc, d.post_id))
    return documents


@contextmanager
def warnings_of(logger_name: str):
    """Collect the formatted warnings one logger emits."""
    lines: list[str] = []

    class Collect(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            lines.append(record.getMessage())

    handler = Collect(logging.WARNING)
    log = logging.getLogger(logger_name)
    log.addHandler(handler)
    try:
        yield lines
    finally:
        log.removeHandler(handler)


def _ingest(parse, filter_, assemble, logger_name, path, schema, spec, on_error):
    """Run one ingest path; return what it produced and what it logged."""
    with warnings_of(logger_name) as warnings:
        try:
            records = parse(path, schema, on_error=on_error)
        except DumpParseError as exc:
            return {"error": str(exc)}, warnings
        matched = filter_(records, spec)
        outcome = {
            "records": [tuple(getattr(r, f) for f in RedditRecord._fields) for r in records],
            "matched": [(r.kind, r.id, r.body, r.title) for r in matched],
            "documents": assemble(records, matched, spec=spec),
        }
    return outcome, warnings


# The window of every generated spec: 2020-03-01 to 2020-03-31, whole UTC days.
WINDOW_FIRST = utc("2020-03-01", hour=0)
WINDOW_LAST = utc("2020-03-31", hour=23) + 59 * 60 + 59
EQUIVALENCE_SPECS = [
    FilterSpec(("Covid", "MASK"), date(2020, 3, 1), date(2020, 3, 31)),
    FilterSpec(("covid",), date(2020, 3, 1), date(2020, 3, 31), subreddits=("COVID", "nyc")),
    FilterSpec(("mAsK",), date(2020, 3, 1), date(2020, 3, 31), subreddits=("Other",)),
]
POST_IDS = ("p1", "p2", "p3")
COMMENT_IDS = ("c1", "c2", "c3")
BAD_LINES = (
    "{oops",
    "[]",
    '"text"',
    "",
    "  \t",
    '{"id": "x"}',
    '{"kind": "banana", "id": "x", "subreddit": "s", "created_utc": 1}',
    '{"id": "x", "subreddit": "covid", "created_utc": "soon", "title": "covid"}',
    "\ufeff{}",
)

created_values = st.sampled_from(
    [WINDOW_FIRST - 1, WINDOW_FIRST, WINDOW_FIRST + 7200, WINDOW_LAST - 60, WINDOW_LAST, WINDOW_LAST + 1]
).flatmap(lambda ts: st.sampled_from([ts, str(ts), float(ts)]))
subreddit_names = st.sampled_from(["covid", "Covid", "NYC", "other"])
texts = st.sampled_from(
    ["weather", "Covid update", "wear a MASK", "CoViD and masks", "", "[removed]", "[deleted]"]
)


@st.composite
def post_lines(draw, schema: str) -> str:
    fields = {
        "id": draw(st.sampled_from(POST_IDS)),
        "subreddit": draw(subreddit_names),
        "created_utc": draw(created_values),
        "title": draw(texts),
        "num_comments": draw(st.integers(0, 3)),
    }
    if schema == "native":
        fields.update(kind="post", body=draw(texts))
    else:
        fields.update(selftext=draw(texts))
    return json.dumps(fields)


@st.composite
def comment_lines(draw, schema: str) -> str:
    parent = draw(st.sampled_from(POST_IDS + ("gone",)))
    parent = draw(st.sampled_from([parent, f"t3_{parent}"]))
    fields = {
        "id": draw(st.sampled_from(COMMENT_IDS)),
        "subreddit": draw(subreddit_names),
        "created_utc": draw(created_values),
        "body": draw(texts),
    }
    if schema == "native":
        fields.update(kind="comment", parent_post_id=parent)
    else:
        fields.update(link_id=parent)
    return json.dumps(fields)


def dump_lines(schema: str):
    line = st.one_of(post_lines(schema), comment_lines(schema), st.sampled_from(BAD_LINES))
    padded = line.flatmap(lambda text: st.sampled_from([text, f" {text}", f"{text} "]))
    return st.lists(st.one_of(line, padded), max_size=25)


def _native(kind, rid, sub, created, text, parent=""):
    fields = {"kind": kind, "id": rid, "subreddit": sub, "created_utc": created}
    if kind == "post":
        fields["title"] = text
    else:
        fields.update(body=text, parent_post_id=parent)
    return json.dumps(fields)


# ------------------------------------------------------- two-pass ingest


def _threads_named(matched) -> set[str]:
    return {r.thread for r in matched}


def _two_pass_ingest(path, schema, spec, on_error):
    """Scan the dump into the filter, re-read the named threads and
    assemble; return what it produced and what it logged."""
    with warnings_of("threadscope.corpus") as warnings:
        scan = DumpScan(path, schema, on_error=on_error)
        try:
            matched = filter_records(scan, spec)
        except DumpParseError as exc:
            return {"error": str(exc)}, warnings
        subset = scan.reread(_threads_named(matched))
        outcome = {
            "records": len(scan),
            "matched": [(r.kind, r.id, r.body, r.title) for r in matched],
            "documents": assemble_documents(subset, matched, spec=spec),
        }
    return outcome, warnings


@settings(max_examples=300)
@given(
    schema_and_lines=st.sampled_from(["native", "pushshift"]).flatmap(
        lambda schema: st.tuples(st.just(schema), dump_lines(schema))
    ),
    spec=st.sampled_from(EQUIVALENCE_SPECS),
    on_error=st.sampled_from(["raise", "skip"]),
)
@example(
    # p1: its first line does not match, a later copy does, and a comment
    #     of p1 comes before the post
    # c1: first seen in p3, which no match names; its later copy in p1
    #     must stay out of p1's thread
    # p2: named by a matching comment but outside the subreddit set
    schema_and_lines=(
        "native",
        [
            _native("comment", "c2", "covid", WINDOW_FIRST, "weather", "p1"),
            _native("post", "p1", "covid", WINDOW_FIRST, "weather"),
            "",
            _native("comment", "c1", "covid", WINDOW_LAST, "no keyword", "p3"),
            _native("post", "p1", "covid", WINDOW_FIRST, "Covid news"),
            "{oops",
            _native("post", "p2", "other", WINDOW_LAST, "weather"),
            _native("comment", "c3", "NYC", WINDOW_LAST, "covid below p2", "t3_p2"),
            _native("comment", "c1", "covid", WINDOW_LAST, "COVID in p1", "p1"),
            _native("post", "p3", "covid", WINDOW_LAST, "weather"),
        ],
    ),
    spec=EQUIVALENCE_SPECS[1],
    on_error="skip",
)
@example(
    # p1: the first record wins over a later, matching one with another title
    # p2: outside the subreddit set, with a matching comment
    # c1: first seen in p3, which is not included; its later copy matches in p1
    # c2: an orphan comment that matches
    schema_and_lines=(
        "native",
        [
            _native("post", "p1", "covid", WINDOW_FIRST, "weather"),
            _native("post", "p1", "covid", WINDOW_FIRST, "Covid news"),
            _native("post", "p2", "other", WINDOW_LAST, "weather"),
            _native("comment", "c3", "Covid", WINDOW_LAST, "covid below p2", "p2"),
            _native("post", "p3", "covid", WINDOW_LAST + 1, "weather"),
            _native("comment", "c1", "covid", WINDOW_LAST, "no keyword", "p3"),
            _native("comment", "c1", "covid", WINDOW_LAST, "COVID in p1", "t3_p1"),
            _native("comment", "c2", "NYC", WINDOW_LAST, "covid", "gone"),
            "{oops",
        ],
    ),
    spec=EQUIVALENCE_SPECS[1],
    on_error="skip",
)
def test_two_pass_ingest_matches_the_reference_path(schema_and_lines, spec, on_error):
    schema, lines = schema_and_lines
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = _two_pass_ingest(path, schema, spec, on_error)
        want, want_warnings = _ingest(
            ref_parse_dump, ref_filter_records, ref_assemble_documents,
            "tests.reference_ingest", path, schema, spec, on_error,
        )
    if "records" in want:
        want["records"] = len(want["records"])
    assert got == (want, want_warnings)


# Three threads, of which only p2's comment c4 matches: p1 and p3 are
# never decoded again.  Line numbers count from 1; line 4 is blank and
# line 8 is malformed.
PARTLY_MATCHING_DUMP = [
    _native("post", "p1", "covid", WINDOW_FIRST, "weather"),
    _native("comment", "c1", "covid", WINDOW_FIRST, "sunny", "p1"),
    _native("post", "p2", "covid", WINDOW_FIRST, "news"),
    "",
    _native("comment", "c2", "covid", WINDOW_FIRST, "rain", "p2"),
    _native("comment", "c3", "covid", WINDOW_FIRST, "fog", "t3_p1"),
    _native("post", "p3", "covid", WINDOW_FIRST, "sports"),
    "{oops",
    _native("comment", "c4", "covid", WINDOW_FIRST, "covid again", "p2"),
    _native("comment", "c2", "covid", WINDOW_FIRST, "repeat", "p2"),
    _native("comment", "c5", "covid", WINDOW_FIRST, "snow", "p3"),
]
P2_LINES = [3, 5, 9]  # p2's post and its first-occurrence comments


def test_ingest_decodes_every_line_once_and_only_named_threads_again(
    tmp_path, monkeypatch
):
    from threadscope.cli import run

    path = tmp_path / "dump.jsonl"
    path.write_text("\n".join(PARTLY_MATCHING_DUMP) + "\n", encoding="utf-8")
    decoded = []
    real_decode = corpus._decode_line

    def counting_decode(line):
        decoded.append(line)
        return real_decode(line)

    monkeypatch.setattr(corpus, "_decode_line", counting_decode)
    code = run([
        "ingest", "--dump", str(path), "--schema", "native", "--keywords", "covid",
        "--from", "2020-03-01", "--to", "2020-03-31", "--skip-bad-records",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    non_blank = [line + "\n" for line in PARTLY_MATCHING_DUMP if line.strip()]
    named = [PARTLY_MATCHING_DUMP[n - 1] + "\n" for n in P2_LINES]
    assert decoded == non_blank + named
    (doc,) = read_documents(tmp_path / "out" / "documents.jsonl")
    assert (doc.post_id, doc.comment_bodies) == ("p2", ["rain", "covid again"])


def _scan_then_rewrite(path, lines, rewrite):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scan = DumpScan(path, "native", on_error="skip")
    matched = filter_records(scan, SPEC_MARCH)
    assert len(scan) == 9
    rewrite(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return scan, _threads_named(matched)


SPEC_MARCH = FilterSpec(("covid",), date(2020, 3, 1), date(2020, 3, 31))


def _replace(line_no, text):
    def rewrite(lines):
        lines[line_no - 1] = text
    return rewrite


@pytest.mark.parametrize(
    "rewrite, line_no",
    [
        # another comment id where c2 was
        (_replace(5, _native("comment", "c9", "covid", WINDOW_FIRST, "rain", "p2")), 5),
        # c4 moved to another thread
        (_replace(9, _native("comment", "c4", "covid", WINDOW_FIRST, "covid", "p1")), 9),
        # p2's post turned into a comment
        (_replace(3, _native("comment", "p2", "covid", WINDOW_FIRST, "news", "p1")), 3),
        # a line made malformed, and one made blank
        (_replace(5, "{oops"), 5),
        (_replace(9, ""), 9),
        # a line inserted before p2 shifts it down
        (lambda lines: lines.insert(0, _native("post", "p0", "covid", WINDOW_FIRST, "x")), 3),
        # the file cut short before c4
        (lambda lines: lines.__delitem__(slice(6, None)), 9),
    ],
    ids=["other-id", "other-thread", "other-kind", "malformed", "blank", "inserted", "truncated"],
)
def test_reread_raises_when_the_dump_changed_between_passes(tmp_path, rewrite, line_no):
    scan, threads = _scan_then_rewrite(
        tmp_path / "dump.jsonl", list(PARTLY_MATCHING_DUMP), rewrite
    )
    assert threads == {"p2"}
    with pytest.raises(DumpParseError, match="the dump changed while it was read") as info:
        scan.reread(threads)
    assert info.value.line_no == line_no


def test_reread_names_a_field_the_changed_dump_lacks(tmp_path):
    line = json.loads(PARTLY_MATCHING_DUMP[4])
    del line["subreddit"]
    scan, threads = _scan_then_rewrite(
        tmp_path / "dump.jsonl", list(PARTLY_MATCHING_DUMP), _replace(5, json.dumps(line))
    )
    with pytest.raises(DumpParseError) as info:
        scan.reread(threads)
    assert info.value.reason == (
        "the dump changed while it was read: no comment c2 here: missing field 'subreddit'"
    )


def test_reread_returns_the_first_occurrences_of_the_named_threads(tmp_path):
    scan, threads = _scan_then_rewrite(
        tmp_path / "dump.jsonl", list(PARTLY_MATCHING_DUMP), lambda lines: None
    )
    subset = scan.reread(threads | {"p3", "gone"})
    assert [(r.kind, r.id) for r in subset] == [
        ("post", "p2"), ("comment", "c2"), ("post", "p3"), ("comment", "c4"), ("comment", "c5"),
    ]


def _scanned(path, lines):
    """A DumpScan and the parent's scan of the dump, each read once."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scans = DumpScan(path, "native"), ParentScan(path, "native")
    for scan in scans:
        list(scan)
    return scans


def test_reread_leaves_out_a_comment_first_seen_in_an_unnamed_thread(tmp_path):
    # c1 occurs first under p3, which is not named, then under p1, which is
    scan, parent = _scanned(tmp_path / "dump.jsonl", [
        _native("post", "p1", "covid", WINDOW_FIRST, "covid"),
        _native("comment", "c1", "covid", WINDOW_FIRST, "sunny", "p3"),
        _native("comment", "c2", "covid", WINDOW_FIRST, "rain", "p1"),
        _native("comment", "c1", "covid", WINDOW_FIRST, "covid", "t3_p1"),
        _native("post", "p3", "covid", WINDOW_FIRST, "sports"),
    ])
    subset = scan.reread({"p1"})
    assert [(r.kind, r.id, r.body) for r in subset] == [("post", "p1", ""), ("comment", "c2", "rain")]
    assert subset == parent.reread({"p1"})


def test_reread_of_a_named_comment_id_that_repeats_keeps_its_first_occurrence(tmp_path):
    # c1 repeats in another named thread, c3 in a thread not named and c2
    # in its own thread; each is kept where it occurs first
    scan, parent = _scanned(tmp_path / "dump.jsonl", [
        _native("post", "p1", "covid", WINDOW_FIRST, "covid"),
        _native("comment", "c1", "covid", WINDOW_FIRST, "first c1", "p1"),
        _native("comment", "c2", "covid", WINDOW_FIRST, "first c2", "p2"),
        _native("post", "p2", "covid", WINDOW_FIRST, "covid"),
        _native("comment", "c1", "covid", WINDOW_FIRST, "second c1", "p2"),
        _native("comment", "c3", "covid", WINDOW_FIRST, "first c3", "p1"),
        _native("comment", "c3", "covid", WINDOW_FIRST, "second c3", "p4"),
        _native("comment", "c2", "covid", WINDOW_FIRST, "second c2", "p2"),
        _native("comment", "c4", "covid", WINDOW_FIRST, "only c4", "p4"),
    ])
    subset = scan.reread(["p2", "p1", "p2"])
    assert [(r.kind, r.id, r.thread, r.body) for r in subset] == [
        ("post", "p1", "p1", ""),
        ("comment", "c1", "p1", "first c1"),
        ("comment", "c2", "p2", "first c2"),
        ("post", "p2", "p2", ""),
        ("comment", "c3", "p1", "first c3"),
    ]
    assert subset == parent.reread(["p2", "p1", "p2"])
    assert scan.reread({"p4"}) == parent.reread({"p4"}) == [
        ("comment", "c4", "covid", WINDOW_FIRST, "", "only c4", "p4", 0)
    ]


def test_scan_length_counts_the_records_of_the_last_pass(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_text("\n".join(PARTLY_MATCHING_DUMP) + "\n", encoding="utf-8")
    scan = DumpScan(path, "native", on_error="skip")
    assert len(scan) == 0
    assert len(list(scan)) == len(scan) == 9
    assert len(list(scan)) == len(scan) == 9
    assert parse_dump(path, "native", on_error="skip") == list(scan)


def test_reread_names_invalid_utf8_in_the_changed_dump(tmp_path):
    path = tmp_path / "dump.jsonl"
    scan, threads = _scan_then_rewrite(path, list(PARTLY_MATCHING_DUMP), lambda lines: None)
    path.write_bytes(path.read_bytes().replace(b"rain", b"r\xffin"))
    with pytest.raises(DumpParseError) as info:
        scan.reread(threads)
    assert (info.value.line_no, info.value.reason) == (
        5, "the dump changed while it was read: no comment c2 here: invalid UTF-8"
    )


# ------------------------------------------- the scan before the filter ran in it
# DumpScan.__iter__, DumpScan.reread and filter_records as they were when
# the scan yielded every record into the filter's own loop, with the
# parsers and the decoder they called, kept verbatim apart from names, the
# logger and the encoding (utf-8-sig, as a dump may start with a
# byte-order mark).  The scan with the filter inside must keep the same records
# in the same order, count the same records, log the same warnings, raise
# the same first error and reread the same subset.

parent_logger = logging.getLogger("tests.parent_scan")


def _parent_coerce_utc(value) -> int:
    if type(value) is int and MIN_UTC <= value <= MAX_UTC:
        return value
    if isinstance(value, bool):
        raise ValueError("created_utc must be numeric")
    if isinstance(value, str) and value.strip():
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("created_utc must be finite")
    if isinstance(value, (int, float)):
        if not MIN_UTC <= int(value) <= MAX_UTC:
            raise ValueError("created_utc is outside years 1 to 9999")
        return int(value)
    raise ValueError("created_utc must be numeric")


_parent_new_record = tuple.__new__


def _parent_check_post(record: RedditRecord) -> RedditRecord:
    textprep.check_field("id", record.id)
    textprep.check_field("subreddit", record.subreddit)
    return record


def _parent_record_from_native(obj: dict) -> RedditRecord:
    kind = obj["kind"]
    if kind not in ("post", "comment"):
        raise ValueError(f"unknown kind {kind!r}")
    kind = "post" if kind == "post" else "comment"
    record = _parent_new_record(RedditRecord, (
        kind,
        str(obj["id"]),
        sys.intern(str(obj["subreddit"])),
        _parent_coerce_utc(obj["created_utc"]),
        str(obj.get("title", "")),
        str(obj.get("body", "")),
        str(obj.get("parent_post_id", "")).removeprefix("t3_"),
        int(obj.get("num_comments", 0)),
    ))
    if kind == "post":
        _parent_check_post(record)
    elif not record.parent_post_id:
        raise ValueError("comment without parent_post_id")
    return record


def _parent_record_from_pushshift(obj: dict) -> RedditRecord:
    if "title" in obj:
        return _parent_check_post(_parent_new_record(RedditRecord, (
            "post",
            str(obj["id"]),
            sys.intern(str(obj["subreddit"])),
            _parent_coerce_utc(obj["created_utc"]),
            str(obj["title"]),
            str(obj.get("selftext", "")),
            "",
            int(obj.get("num_comments", 0)),
        )))
    if "link_id" in obj:
        parent = str(obj["link_id"]).removeprefix("t3_")
        if not parent:
            raise ValueError("comment without link_id")
        return _parent_new_record(RedditRecord, (
            "comment",
            str(obj["id"]),
            sys.intern(str(obj["subreddit"])),
            _parent_coerce_utc(obj["created_utc"]),
            "",
            str(obj.get("body", "")),
            parent,
            0,
        ))
    raise ValueError("record is neither a post (title) nor a comment (link_id)")


_parent_scan_once = json.JSONDecoder().scan_once


def _parent_decode_line(line: str):
    try:
        value, end = _parent_scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    if end == len(line) or (end == len(line) - 1 and line[end] == "\n"):
        return value
    return json.loads(line)


_PARENT_PARSERS = {"native": _parent_record_from_native, "pushshift": _parent_record_from_pushshift}
_PARENT_RECORD_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


def _parent_reason(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing field {exc.args[0]!r}"
    return str(exc)


def _parent_thread_of(record: RedditRecord) -> str:
    return record.id if record.kind == "post" else record.parent_post_id


class ParentScan:
    def __init__(self, path, schema, on_error="raise"):
        self.path = path
        self._parser = _PARENT_PARSERS[schema]
        self._skip = on_error == "skip"
        self._records = 0
        self._post_lines = {}
        self._comment_lines = {}

    def __len__(self):
        return self._records

    def __iter__(self):
        parser = self._parser
        decode = _parent_decode_line
        post_lines = {}
        comment_lines = {}
        comment_ids = set()
        self._post_lines, self._comment_lines = post_lines, comment_lines
        records = 0
        with open(self.path, encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, start=1):
                if line.isspace():
                    continue
                try:
                    obj = decode(line)
                    if not isinstance(obj, dict):
                        raise ValueError("record is not an object")
                    record = parser(obj)
                except _PARENT_RECORD_ERRORS as exc:
                    if not self._skip:
                        raise DumpParseError(line_no, _parent_reason(exc)) from exc
                    parent_logger.warning("skipping line %d: %s", line_no, _parent_reason(exc))
                    continue
                records += 1
                rid = record.id
                if record.kind == "post":
                    if rid not in post_lines:
                        post_lines[rid] = line_no
                elif rid not in comment_ids:
                    comment_ids.add(rid)
                    lines = comment_lines.get(record.parent_post_id)
                    if lines is None:
                        comment_lines[record.parent_post_id] = [line_no, rid]
                    else:
                        lines += (line_no, rid)
                yield record
        self._records = records

    def reread(self, thread_ids):
        expected = {}
        for thread in thread_ids:
            line_no = self._post_lines.get(thread)
            if line_no is not None:
                expected[line_no] = ("post", thread, thread)
            lines = self._comment_lines.get(thread, ())
            for i in range(0, len(lines), 2):
                expected[lines[i]] = ("comment", lines[i + 1], thread)
        parser = self._parser
        decode = _parent_decode_line
        subset = []
        read = 0
        with open(self.path, encoding="utf-8-sig") as handle:
            for line_no in sorted(expected):
                line = next(islice(handle, line_no - read - 1, None), None)
                read = line_no
                kind, rid, thread = expected[line_no]
                changed = f"the dump changed while it was read: no {kind} {rid} here"
                if line is None:
                    raise DumpParseError(line_no, changed)
                try:
                    obj = decode(line)
                    if not isinstance(obj, dict):
                        raise ValueError("record is not an object")
                    record = parser(obj)
                except _PARENT_RECORD_ERRORS as exc:
                    raise DumpParseError(line_no, f"{changed}: {_parent_reason(exc)}") from exc
                if (record.kind, record.id, _parent_thread_of(record)) != expected[line_no]:
                    raise DumpParseError(line_no, changed)
                subset.append(record)
        return subset


def parent_filter_records(records, spec):
    admits = spec.admits
    keywords = spec.lowered_keywords
    seen = set()
    kept = []
    for record in records:
        if record.id in seen or not admits(record):
            continue
        title = record.title.lower()
        body = record.body.lower()
        for keyword in keywords:
            if keyword in title or keyword in body:
                seen.add(record.id)
                kept.append(record)
                break
    return kept


def _scan_filter_reread(scan_class, filter_, logger_name, path, schema, spec, on_error):
    """Scan the dump through the filter, then reread every thread the
    dump can name; return what came out and what was logged."""
    with warnings_of(logger_name) as warnings:
        scan = scan_class(path, schema, on_error=on_error)
        try:
            kept = filter_(scan, spec)
        except DumpParseError as exc:
            return {"error": (exc.line_no, exc.reason)}, warnings
        outcome = {"kept": kept, "records": len(scan)}
        try:
            outcome["subset"] = scan.reread(_threads_named(kept) | {*POST_IDS, "gone", *ODD_IDS})
        except DumpParseError as exc:
            outcome["subset"] = (exc.line_no, exc.reason)
    return outcome, warnings


class Raw(str):
    """A JSON text spliced into a line in place of a field's value."""


def _line_of(fields: dict) -> str:
    raws = {}
    for name, value in fields.items():
        if isinstance(value, Raw):
            raws[f'"@raw:{name}@"'] = value
            fields[name] = f"@raw:{name}@"
    text = json.dumps(fields)
    for marker, raw in raws.items():
        text = text.replace(marker, raw)
    return text


ODD_IDS = ("p\t1", "1" * 4000)
ODD_VALUES = [
    True, False, None, 0, -1, 1583366400.5, "", " ", "soon", "t3_", "p\t1", "Covid",
    ["list"], {"o": 1}, float("inf"), float("nan"), 1e20, MAX_UTC + 1, MIN_UTC - 1,
    str(WINDOW_FIRST), f" {WINDOW_LAST}.0 ", Raw("1e20"), Raw("-Infinity"),
    Raw("1" * 5000), Raw("1" * 4000), Raw("-0.0"),
]
SCAN_SPECS = EQUIVALENCE_SPECS + [
    FilterSpec(("PANDEMIC", "Virus"), date(2020, 3, 1), date(2020, 3, 31), subreddits=("nyc", "Covid")),
    # an empty keyword, as a --config list can give, is in every text
    FilterSpec(("",), date(2020, 3, 1), date(2020, 3, 31)),
    FilterSpec(("covid", ""), date(2020, 3, 1), date(2020, 3, 31), subreddits=("nyc",)),
]
scan_texts = st.sampled_from(
    ["weather", "Covid update", "wear a MASK", "pandemic VIRUS", "nyc", "", "[removed]"]
)


@st.composite
def scan_lines(draw, schema: str) -> str:
    """A post or comment line, maybe with a field or two odd or missing."""
    is_post = draw(st.booleans())
    fields = {
        "id": draw(st.sampled_from(POST_IDS if is_post else COMMENT_IDS + ("p1",))),
        "subreddit": draw(subreddit_names),
        "created_utc": draw(created_values),
    }
    parent = draw(st.sampled_from(POST_IDS + ("gone", "t3_p1", "t3_")))
    if schema == "native":
        fields["kind"] = "post" if is_post else "comment"
        fields["title" if is_post else "body"] = draw(scan_texts)
        if is_post:
            fields["body"] = draw(scan_texts)
        else:
            fields["parent_post_id"] = parent
            # a native comment can carry a title, and be kept through it
            if draw(st.booleans()):
                fields["title"] = draw(scan_texts)
    elif is_post:
        fields.update(title=draw(scan_texts), selftext=draw(scan_texts))
    else:
        fields.update(body=draw(scan_texts), link_id=parent)
    if is_post:
        fields["num_comments"] = draw(st.integers(0, 3))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2]))):
        name = draw(st.sampled_from(sorted(fields) + ["num_comments"]))
        if draw(st.booleans()):
            fields.pop(name, None)
        else:
            fields[name] = draw(st.sampled_from(ODD_VALUES))
    return _line_of(fields)


SCAN_NOISE = ("", "   ", "\t", "{oops", "[]", '"text"', "1", "null", "\ufeff{}")


def scan_dumps(schema: str):
    line = st.one_of(scan_lines(schema), st.sampled_from(SCAN_NOISE))
    padded = line.flatmap(
        lambda text: st.sampled_from([text, f" {text}", f"{text} ", f"{text} x", f"{text}]"])
    )
    return st.lists(st.one_of(line, line, padded), max_size=25)


@settings(max_examples=300)
@given(
    schema_and_lines=st.sampled_from(["native", "pushshift"]).flatmap(
        lambda schema: st.tuples(st.just(schema), scan_dumps(schema))
    ),
    spec=st.sampled_from(SCAN_SPECS),
    on_error=st.sampled_from(["raise", "skip"]),
)
@example(
    # p1 first fails the filter, then is kept; c1 is kept under p3 and
    # its later copy under p1 is dropped; p2's id, first dropped, is
    # kept on a comment line; then every odd value of created_utc, an id
    # too long to decode, a list num_comments, a tab in a post id and in
    # a subreddit, and two bad fields of which the first read is named
    schema_and_lines=(
        "pushshift",
        [
            _line_of({"id": "p1", "subreddit": "covid", "created_utc": WINDOW_FIRST - 1, "title": "Covid"}),
            _line_of({"id": "p1", "subreddit": "NYC", "created_utc": WINDOW_FIRST, "title": "a COVID mask"}),
            _line_of({"id": "c1", "subreddit": "covid", "created_utc": WINDOW_LAST, "link_id": "t3_p3", "body": "covid"}),
            _line_of({"id": "c1", "subreddit": "covid", "created_utc": WINDOW_LAST, "link_id": "p1", "body": "covid"}),
            _line_of({"id": "p2", "subreddit": "other", "created_utc": WINDOW_LAST, "title": "covid"}),
            _line_of({"id": "p2", "subreddit": "Covid", "created_utc": WINDOW_LAST, "link_id": "p3", "body": "CoViD"}),
            *(
                _line_of({"id": "p3", "subreddit": "covid", "created_utc": created, "title": "covid"})
                for created in (True, 1583366400.5, str(WINDOW_FIRST), Raw("Infinity"), Raw("1e20"))
            ),
            _line_of({"id": Raw("1" * 5000), "subreddit": "covid", "created_utc": WINDOW_LAST, "title": "covid"}),
            _line_of({"id": "p3", "subreddit": "covid", "created_utc": WINDOW_LAST, "title": "covid", "num_comments": [1]}),
            _line_of({"id": "p\t1", "subreddit": "covid", "created_utc": WINDOW_LAST, "title": "covid"}),
            _line_of({"id": "p1", "subreddit": "co\tvid", "created_utc": WINDOW_LAST, "title": "covid"}),
            _line_of({"id": "p1", "created_utc": "soon", "title": "covid"}),
            _line_of({"id": "c\t2", "subreddit": "covid", "created_utc": WINDOW_LAST, "link_id": "p1", "body": "covid"}),
            "",
            " \t ",
            '{"title": "covid"} trailing',
            "[1, 2]",
        ],
    ),
    spec=EQUIVALENCE_SPECS[1],
    on_error="skip",
)
@example(
    # the empty keyword keeps a comment, whose title is empty, and a post
    # with an empty title
    schema_and_lines=(
        "pushshift",
        [
            _line_of({"id": "c1", "subreddit": "other", "created_utc": WINDOW_FIRST, "link_id": "p1", "body": "weather"}),
            _line_of({"id": "p1", "subreddit": "other", "created_utc": WINDOW_LAST, "title": "", "selftext": ""}),
        ],
    ),
    spec=SCAN_SPECS[-2],
    on_error="raise",
)
@example(
    # a native comment kept through its title alone, and one whose title
    # and body both miss
    schema_and_lines=(
        "native",
        [
            _line_of({"kind": "comment", "id": "c1", "subreddit": "nyc", "created_utc": WINDOW_FIRST,
                      "title": "Covid update", "body": "weather", "parent_post_id": "p1"}),
            _line_of({"kind": "comment", "id": "c2", "subreddit": "nyc", "created_utc": WINDOW_FIRST,
                      "title": "wear a MASK", "body": "weather", "parent_post_id": "p1"}),
        ],
    ),
    spec=EQUIVALENCE_SPECS[1],
    on_error="raise",
)
def test_scan_with_the_filter_inside_matches_the_parent_scan(schema_and_lines, spec, on_error):
    schema, lines = schema_and_lines
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = _scan_filter_reread(
            DumpScan, filter_records, "threadscope.corpus", path, schema, spec, on_error
        )
        want = _scan_filter_reread(
            ParentScan, parent_filter_records, "tests.parent_scan", path, schema, spec, on_error
        )
    assert got == want
