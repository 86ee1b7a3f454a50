"""Dump parsing, keyword/date filtering, thread assembly into Documents,
and dataset statistics.

A Document is one post plus every comment of its thread; inclusion is
decided by whether the post or any of its comments matched the filter.
"""

from __future__ import annotations

import json
import math
import re
import sys
from datetime import date
from itertools import compress, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError
from .records import FrozenRecord, Record
from . import textprep


def _warn(message: str, *args: object) -> None:
    """Log a warning on this module's logger; logging is imported at the
    first warning, as most runs never give one."""
    import logging

    logging.getLogger(__name__).warning(message, *args)

POST = "post"
COMMENT = "comment"

# Bodies Reddit substitutes for moderated/deleted comments.
PLACEHOLDER_BODIES = frozenset({"[removed]", "[deleted]"})

SCHEMAS = ("native", "pushshift")


class RedditRecord(NamedTuple):
    """One dump line: a post or a comment."""

    kind: str
    id: str
    subreddit: str
    created_utc: int
    title: str = ""
    body: str = ""
    parent_post_id: str = ""
    num_comments: int = 0

    @property
    def thread(self) -> str:
        """The id of the post whose thread holds this record."""
        return self.id if self.kind == POST else self.parent_post_id


class Document(Record):
    """A post and the bodies of its surviving comments."""

    __slots__ = _fields = (
        "post_id", "subreddit", "created_utc", "title", "comment_bodies", "cleaned_text"
    )

    def __init__(
        self,
        post_id: str,
        subreddit: str,
        created_utc: int,
        title: str,
        comment_bodies: list[str] | None = None,
        cleaned_text: str = "",
    ) -> None:
        self.post_id = post_id
        self.subreddit = subreddit
        self.created_utc = created_utc
        self.title = title
        self.comment_bodies = [] if comment_bodies is None else comment_bodies
        self.cleaned_text = cleaned_text

    @property
    def raw_text(self) -> str:
        """The title and comment bodies, one per line."""
        return "\n".join([self.title, *self.comment_bodies])


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_DAY_S = 86_400


def utc_day_bounds(date_from: date, date_to: date) -> tuple[int, int]:
    """The first and last UTC second of the inclusive days from
    ``date_from`` to ``date_to``."""
    if date_from > date_to:
        raise ValueError("date_from must not exceed date_to")
    first = (date_from.toordinal() - _EPOCH_ORDINAL) * _DAY_S
    return first, (date_to.toordinal() - _EPOCH_ORDINAL + 1) * _DAY_S - 1


def utc_date(seconds: int) -> date:
    """The UTC calendar date of a Unix timestamp in ``MIN_UTC..MAX_UTC``."""
    return date.fromordinal(_EPOCH_ORDINAL + seconds // _DAY_S)


def _month_name(index: int) -> str:
    # ``YYYY-MM`` of the month ``year * 12 + month - 1``, the year
    # zero-padded so that string order is time order
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def _month_index(seconds: int) -> int:
    day = utc_date(seconds)
    return day.year * 12 + day.month - 1


def utc_month(seconds: int) -> str:
    """The UTC calendar month of a Unix timestamp as ``YYYY-MM``."""
    return _month_name(_month_index(seconds))


def utc_month_range(first: int, last: int) -> list[str]:
    """Every UTC calendar month, as ``utc_month`` names it, from that of
    timestamp ``first`` to that of ``last``, in order."""
    return [_month_name(index) for index in range(_month_index(first), _month_index(last) + 1)]


class FilterSpec(FrozenRecord):
    """Keyword, date-range, and subreddit constraints; dates are inclusive
    UTC calendar dates; an empty subreddit list means no restriction.
    Keywords and subreddits match case-insensitively."""

    _fields = ("keywords", "date_from", "date_to", "subreddits")
    # ``_window``: the first and last UTC second of the range and the
    # lowercased subreddit set, worked out once per spec
    __slots__ = (*_fields, "lowered_keywords", "_window")

    def __init__(
        self,
        keywords: tuple[str, ...],
        date_from: date,
        date_to: date,
        subreddits: tuple[str, ...] = (),
    ) -> None:
        if not keywords:
            raise ValueError("keywords must be nonempty")
        first, last = utc_day_bounds(date_from, date_to)
        lowered = tuple(keyword.lower() for keyword in keywords)
        window = (first, last, frozenset(name.lower() for name in subreddits))
        self._freeze(keywords, date_from, date_to, subreddits, lowered, window)

    def admits(self, record: RedditRecord) -> bool:
        """Whether the record's created_utc lies from date_from 00:00:00
        to date_to 23:59:59 UTC and its subreddit is in the set."""
        first, last, wanted = self._window
        return first <= record.created_utc <= last and (
            not wanted or record.subreddit.lower() in wanted
        )


class SubredditStats(NamedTuple):
    subreddit: str
    posts: int
    comments: int
    sentences: int
    wordcount: int


class CorpusStats(NamedTuple):
    rows: tuple[SubredditStats, ...]
    total: SubredditStats


# The created_utc range whose UTC dates a ``date`` can hold:
# 0001-01-01T00:00:00Z to 9999-12-31T23:59:59Z.
MIN_UTC = -62_135_596_800
MAX_UTC = 253_402_300_799


def _check_utc_range(value: int) -> int:
    if not MIN_UTC <= value <= MAX_UTC:
        raise ValueError("created_utc is outside years 1 to 9999")
    return value


def _coerce_utc(value) -> int:
    if isinstance(value, bool):
        raise ValueError("created_utc must be numeric")
    if isinstance(value, str) and value.strip():
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("created_utc must be finite")
    if isinstance(value, (int, float)):
        return _check_utc_range(int(value))
    raise ValueError("created_utc must be numeric")


# ``tuple.__new__`` skips the named tuple's Python-level ``__new__``, so
# every field is passed.
_new_record = tuple.__new__

# the C scanner behind raw_decode, called without raw_decode's Python frame
_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str):
    """Decode one dump line as ``json.loads`` does.  The usual line, one
    JSON value and then its newline, goes straight to the scanner,
    skipping json.loads' type, BOM and whitespace checks; every other
    line, bad ones included, goes through ``json.loads``, so the value or
    the error is the one it gives."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(line)
    if end == len(line) or (end == len(line) - 1 and line[end] == "\n"):
        return value
    return json.loads(line)


# what a byte that is not UTF-8 becomes, read with errors="surrogateescape"
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]").search

# What a dump line can raise when it is not a record of its schema.
_RECORD_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


def _reason(exc: Exception) -> str:
    """Why a line is not a record; a KeyError's own text is only the
    quoted name of the field that is missing."""
    if isinstance(exc, KeyError):
        return f"missing field {exc.args[0]!r}"
    return str(exc)


class DumpScan:
    """One pass over a newline-delimited dump: iterating yields its
    records in file order and keeps none of them, only a line index.

    ``on_error`` is "raise" (fail fast) or "skip" (log and continue).
    A UTF-8 byte-order mark at the start of the dump is read as no text.
    The index holds the line of each post id's first occurrence and one
    flat list of every comment's thread, line and id, in file order.
    ``reread`` uses it to decode one thread subset again, so memory
    grows with the index and that subset, not with the dump.
    ``len`` is the number of records the last pass read.
    ``filter_records`` runs its filter inside the pass.
    """

    def __init__(self, path: str | Path, schema: str, on_error: str = "raise") -> None:
        if schema not in SCHEMAS:
            raise ValueError(f"unknown dump schema {schema!r}")
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        self.path = path
        self._native = schema == "native"
        self._skip = on_error == "skip"
        self._records = 0
        self._post_lines: dict[str, int] = {}
        # [thread, line, comment id, thread, line, comment id, ...]
        self._comments: list = []

    def __len__(self) -> int:
        return self._records

    def __iter__(self) -> Iterator[RedditRecord]:
        return self._pass(None)

    def _pass(self, spec: FilterSpec | None) -> Iterator[RedditRecord]:
        """Read the whole dump, renewing the index and count, and yield
        the records ``spec`` keeps, or every record without a spec."""
        self._post_lines, self._comments = index = {}, []
        with open(self.path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            self._records = yield from self._records_of(enumerate(handle, 1), spec, self._skip, *index)

    def _records_of(self, numbered, spec, skip, post_lines, comments):
        """The one loop that makes records of (line number, line) pairs for
        the scan and ``reread``: it checks each line, adds it to the index
        and builds a record only for a line ``spec`` keeps; returns the
        number of records read."""
        native = self._native
        decode, intern, check = _decode_line, sys.intern, textprep.check_field
        # the index keeps one string per thread id, the first seen; a map
        # of this pass, as sys.intern's table would keep its growth for
        # the rest of the process
        thread_of = {}.setdefault
        if spec is not None:
            first, last, wanted = spec._window
            keywords = spec.lowered_keywords
            kept_ids: set[str] = set()
        records = 0
        for line_no, line in numbered:
            # a blank line: one read from a file is never empty
            if line.isspace():
                continue
            try:
                if not line.isascii() and _ESCAPED_BYTE(line):
                    raise ValueError("invalid UTF-8")
                obj = decode(line)
                if type(obj) is not dict:
                    raise ValueError("record is not an object")
                # Fields are read in this order, so the first bad field
                # names the error.  Kinds are the module constants, and a
                # record's subreddit name, one of few per dump, is interned.
                if native:
                    kind = obj["kind"]
                    if kind not in (POST, COMMENT):
                        raise ValueError(f"unknown kind {kind!r}")
                    kind = POST if kind == POST else COMMENT
                elif "title" in obj:
                    kind = POST
                elif "link_id" in obj:
                    kind = COMMENT
                    parent = str(obj["link_id"]).removeprefix("t3_")
                    if not parent:
                        raise ValueError("comment without link_id")
                else:
                    raise ValueError("record is neither a post (title) nor a comment (link_id)")
                rid = str(obj["id"])
                sub = str(obj["subreddit"])
                created = obj["created_utc"]
                if type(created) is not int or not MIN_UTC <= created <= MAX_UTC:
                    created = _coerce_utc(created)
                if native:
                    title = str(obj.get("title", ""))
                    body = str(obj.get("body", ""))
                    parent = str(obj.get("parent_post_id", "")).removeprefix("t3_")
                    num = int(obj.get("num_comments", 0))
                    if kind == COMMENT and not parent:
                        raise ValueError("comment without parent_post_id")
                elif kind == POST:
                    title = str(obj["title"])
                    body = str(obj.get("selftext", ""))
                    parent = ""
                    num = int(obj.get("num_comments", 0))
                else:
                    title = ""
                    body = str(obj.get("body", ""))
                    num = 0
                if kind == POST:
                    # a post's id and subreddit become columns of the
                    # tables written from documents; comments' never do
                    check("id", rid)
                    check("subreddit", sub)
            except _RECORD_ERRORS as exc:
                if not skip:
                    raise FormatError(line_no, _reason(exc)) from exc
                _warn("skipping line %d: %s", line_no, _reason(exc))
                continue
            records += 1
            if kind == POST:
                if rid not in post_lines:
                    post_lines[rid] = line_no
            else:
                comments += (thread_of(parent, parent), line_no, rid)
            if spec is not None:
                # filter_records' rule, on the fields before a record exists
                if not first <= created <= last or rid in kept_ids or (wanted and sub.lower() not in wanted):
                    continue
                # an empty title, as every pushshift comment has, holds
                # only the empty keyword, and so does every body
                lowered_body, lowered_title = body.lower(), title and title.lower()
                for keyword in keywords:
                    if keyword in lowered_body or lowered_title and keyword in lowered_title:
                        break
                else:
                    continue
                kept_ids.add(rid)
            yield _new_record(RedditRecord, (kind, rid, intern(sub), created, title, body, parent, num))
        return records

    def reread(self, thread_ids: Iterable[str]) -> list[RedditRecord]:
        """Decode again, in file order, the first-occurrence post line and
        comment lines of each named thread, reading the file no further
        than the last of them.  A line that no longer holds the record
        the scan saw there raises FormatError: the dump changed."""
        named = set(thread_ids)
        post_lines = self._post_lines
        expected: dict[int, tuple[str, str, str]] = {
            post_lines[thread]: (POST, thread, thread) for thread in named if thread in post_lines
        }
        for thread, line_no, rid in self._first_comments(named):
            expected[line_no] = (COMMENT, rid, thread)
        order = sorted(expected)
        # up to the end of the file or a blank line, so that each line
        # read gives a record or an error
        numbered: list[tuple[int, str]] = []
        with open(self.path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            for line_no in order:
                read = numbered[-1][0] if numbered else 0
                line = next(islice(handle, line_no - read - 1, None), None)
                if line is None or line.isspace():
                    break
                numbered.append((line_no, line))
        subset: list[RedditRecord] = []
        error = None
        try:
            for (line_no, _), record in zip(numbered, self._records_of(numbered, None, False, {}, [])):
                if (record.kind, record.id, record.thread) != expected[line_no]:
                    break
                subset.append(record)
        except FormatError as exc:
            error = exc
        if len(subset) < len(order):
            line_no = order[len(subset)]
            kind, rid, _ = expected[line_no]
            reason = f"the dump changed while it was read: no {kind} {rid} here"
            raise FormatError(line_no, f"{reason}: {error.reason}" if error else reason) from error
        return subset

    def _first_comments(self, named: set[str]) -> list[list]:
        """The [thread, line, id] entries of the comments whose id occurs
        first in one of the ``named`` threads, in file order."""
        comments = self._comments
        starts = range(0, len(comments), 3)

        def column(offset: int) -> Iterator:
            return islice(comments, offset, None, 3)

        in_named = bytes(map(named.__contains__, column(0)))
        named_ids = set(compress(column(2), in_named))
        # an id's first entry may lie in a thread that is not named
        first: dict[str, int] = {}
        for i in compress(starts, bytes(map(named_ids.__contains__, column(2)))):
            first.setdefault(comments[i + 2], i)
        return [comments[i:i + 3] for i in first.values() if comments[i] in named]


def parse_dump(
    path: str | Path, schema: str, on_error: str = "raise"
) -> list[RedditRecord]:
    """Parse a newline-delimited dump file into records, in file order;
    ``on_error`` is "raise" (fail fast) or "skip" (log and continue).
    ``ingest`` keeps no such list: it filters inside a ``DumpScan``."""
    return list(DumpScan(path, schema, on_error))


def filter_records(scan: DumpScan, spec: FilterSpec) -> list[RedditRecord]:
    """Read the whole dump and keep the records inside the date range and
    subreddit set whose title or body contains a keyword.  Only kept ids
    are remembered: a record whose id an earlier kept record has is
    dropped, but a record whose id only appeared on records that were not
    kept can be kept.  The filter runs inside the scan's pass, so a line
    that is not kept never becomes a record, and ``len(scan)`` is then
    the number of records read."""
    return list(scan._pass(spec))


def assemble_documents(
    thread_records: Sequence[RedditRecord],
    matched_records: Sequence[RedditRecord],
    spec: FilterSpec,
) -> list[Document]:
    """Build one Document per post that matched or has a matching comment,
    pulling in the post's comment thread from ``thread_records``.

    ``thread_records`` is what ``DumpScan.reread`` returns for the threads
    ``matched_records`` name: in file order, each of their post and
    comment ids once, at its first occurrence in the dump, which the scan's
    line index alone decides.  Orphan comment matches (parent post missing
    from the dump) are logged and dropped, and so are parent posts outside
    ``spec``'s date or subreddit constraints, so every returned Document
    satisfies the filter.
    """
    posts = {record.id: record for record in thread_records if record.kind == POST}

    threads: dict[str, list[RedditRecord]] = {}
    for record in matched_records:
        parent = record.thread
        if parent not in posts:
            _warn("orphan comment %s: parent post %s not in dump", record.id, parent)
            continue
        if not spec.admits(posts[parent]):
            _warn("skipping post %s: outside the filter's date/subreddit range", parent)
            continue
        threads.setdefault(parent, [])

    for record in thread_records:
        if record.kind == COMMENT and record.thread in threads:
            threads[record.thread].append(record)

    documents: list[Document] = []
    for post_id, thread in threads.items():
        post = posts[post_id]
        thread.sort(key=lambda c: (c.created_utc, c.id))
        bodies = [c.body for c in thread if c.body not in PLACEHOLDER_BODIES]
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


def dedup_sentences(sentences: Iterable[str]) -> list[str]:
    """Drop exact-string repeats, keeping first occurrences in order."""
    return list(dict.fromkeys(sentences))


def corpus_stats(
    documents: Sequence[Document],
    body_sentences: Iterable[Sequence[Sequence[str]]] | None = None,
) -> CorpusStats:
    """Per-subreddit post/comment/sentence/word counts; sentences and words
    are measured over URL-stripped comment bodies.  ``body_sentences``
    holds each document's ``textprep.url_free_sentences`` per comment body,
    for a caller that has split them already."""
    if body_sentences is None:
        body_sentences = (
            [textprep.url_free_sentences(body) for body in doc.comment_bodies]
            for doc in documents
        )
    acc: dict[str, list[int]] = {}
    for doc, bodies in zip(documents, body_sentences, strict=True):
        row = acc.setdefault(doc.subreddit, [0, 0, 0, 0])
        row[0] += 1
        row[1] += len(doc.comment_bodies)
        for sentences in bodies:
            row[2] += len(sentences)
            # no word spans a sentence boundary, which is always whitespace
            row[3] += sum(len(sentence.split()) for sentence in sentences)
    rows = tuple(
        SubredditStats(name, *acc[name]) for name in sorted(acc)
    )
    total = SubredditStats(
        "Total",
        sum(r.posts for r in rows),
        sum(r.comments for r in rows),
        sum(r.sentences for r in rows),
        sum(r.wordcount for r in rows),
    )
    return CorpusStats(rows=rows, total=total)


STATS_HEADER = ("Subreddit", "#Posts", "#Comments", "#Sentences", "Wordcount")


def stats_table(stats: CorpusStats) -> str:
    """Render stats as a tab-separated table with a trailing total row."""
    return textprep.table(STATS_HEADER, (*stats.rows, stats.total))


def write_documents(documents: Iterable[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in documents:
            handle.write(json.dumps(doc._asdict(), sort_keys=True, ensure_ascii=False) + "\n")


def _typed(obj: dict, name: str, kind: type, what: str):
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}")
    return value


def _document_from_json(obj) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("document is not an object")
    post_id = _typed(obj, "post_id", str, "a string")
    subreddit = _typed(obj, "subreddit", str, "a string")
    # both are columns of the TSV files written from documents
    textprep.check_field("post_id", post_id)
    textprep.check_field("subreddit", subreddit)
    created_utc = _check_utc_range(_typed(obj, "created_utc", int, "an integer"))
    title = _typed(obj, "title", str, "a string")
    bodies = _typed(obj, "comment_bodies", list, "a list of strings")
    if not all(isinstance(body, str) for body in bodies):
        raise ValueError("comment_bodies must be a list of strings")
    cleaned = obj.get("cleaned_text", "")
    if not isinstance(cleaned, str):
        raise ValueError("cleaned_text must be a string")
    return Document(
        post_id, subreddit, created_utc, title, bodies, cleaned_text=cleaned
    )


def read_documents(path: str | Path) -> list[Document]:
    """Read a documents file; a line that is not a document object with
    correctly typed fields raises FormatError with its line number."""
    documents: list[Document] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                documents.append(_document_from_json(json.loads(line)))
            except (ValueError, KeyError, RecursionError) as exc:
                raise FormatError(line_no, _reason(exc)) from exc
    return documents
