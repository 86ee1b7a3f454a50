"""Tests for dump parsing, filtering, thread assembly, and stats."""

from __future__ import annotations

import json
from datetime import date, datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadscope.corpus import (
    MAX_UTC,
    MIN_UTC,
    CorpusStats,
    Document,
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
    kept = filter_records(records, SPEC)
    assert [r.id for r in kept] == ["p1", "c1"]


def test_filter_date_range_inclusive():
    records = [
        post("p1", created=utc("2020-02-29")),
        post("p2", created=utc("2020-03-01", hour=0)),
        post("p3", created=utc("2020-08-31", hour=23)),
        post("p4", created=utc("2020-09-01", hour=0)),
    ]
    kept = filter_records(records, SPEC)
    assert [r.id for r in kept] == ["p2", "p3"]


def test_filter_subreddit_restriction():
    spec = FilterSpec(
        keywords=("covid",),
        date_from=date(2020, 3, 1),
        date_to=date(2020, 8, 31),
        subreddits=("NYC",),
    )
    records = [post("p1", sub="nyc"), post("p2", sub="coronavirus")]
    kept = filter_records(records, spec)
    assert [r.id for r in kept] == ["p1"]


def test_filter_drops_duplicate_ids():
    records = [post("p1"), post("p1", title="covid again"), post("p1")]
    kept = filter_records(records, SPEC)
    assert len(kept) == 1
    assert kept[0].title == "covid thread"


# ---------------------------------------------------------------- assembly


def test_assemble_includes_thread_for_comment_match():
    records = [
        post("p1", title="no keywords here"),
        comment("c1", "p1", body="covid positive", created=utc("2020-03-15", 2)),
        comment("c2", "p1", body="unrelated", created=utc("2020-03-15", 1)),
    ]
    matched = filter_records(records, SPEC)
    (doc,) = assemble_documents(records, matched)
    assert doc.post_id == "p1"
    # full thread, sorted by (created_utc, id), not just the matching comment
    assert doc.comment_bodies == ["unrelated", "covid positive"]


def test_assemble_drops_orphan_comments(caplog):
    records = [comment("c1", "p9", body="covid")]
    matched = filter_records(records, SPEC)
    with caplog.at_level("WARNING"):
        docs = assemble_documents(records, matched)
    assert docs == []
    assert "orphan" in caplog.text


def test_assemble_removes_placeholder_bodies():
    records = [
        post("p1"),
        comment("c1", "p1", body="[removed]"),
        comment("c2", "p1", body="[deleted]"),
        comment("c3", "p1", body="real text"),
    ]
    matched = filter_records(records, SPEC)
    (doc,) = assemble_documents(records, matched)
    assert doc.comment_bodies == ["real text"]


def test_assemble_spec_rejects_out_of_range_parent():
    records = [
        post("p1", created=utc("2020-02-01"), title="old thread"),
        comment("c1", "p1", body="covid", created=utc("2020-03-15")),
    ]
    matched = filter_records(records, SPEC)
    assert [r.id for r in matched] == ["c1"]
    # without the spec the in-range comment drags in its old parent
    assert len(assemble_documents(records, matched)) == 1
    # with the spec every document must satisfy the date constraint
    assert assemble_documents(records, matched, spec=SPEC) == []


def test_assemble_sorts_documents_and_dedups_comment_lines():
    records = [
        post("p2", created=utc("2020-03-20")),
        post("p1", created=utc("2020-03-10")),
        comment("c1", "p2", body="covid a"),
        comment("c1", "p2", body="covid duplicate id"),
    ]
    matched = filter_records(records, SPEC)
    docs = assemble_documents(records, matched)
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
    records = parse_dump(fixtures / "sample_dump.jsonl", schema="native")
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
    matched = filter_records(records, spec)
    docs = assemble_documents(records, matched, spec=spec)
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
    kept = filter_records(records, SPEC)
    ids = [r.id for r in kept]
    assert len(ids) == len(set(ids))
    assert set(ids) <= {r.id for r in records}
    for r in kept:
        assert "covid" in r.title or "mask" in r.title


@given(st.lists(record_strategy, max_size=30))
def test_assemble_output_is_sorted(records):
    matched = filter_records(records, SPEC)
    docs = assemble_documents(records, matched, spec=SPEC)
    keys = [(d.created_utc, d.post_id) for d in docs]
    assert keys == sorted(keys)
