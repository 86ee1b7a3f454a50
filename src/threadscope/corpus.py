"""Dump parsing, keyword/date filtering, thread assembly into Documents,
and dataset statistics.

A Document is one post plus every comment of its thread; inclusion is
decided by whether the post or any of its comments matched the filter.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import DumpParseError, UnknownSchemaError
from . import textprep

logger = logging.getLogger(__name__)

POST = "post"
COMMENT = "comment"

# Bodies Reddit substitutes for moderated/deleted comments.
PLACEHOLDER_BODIES = frozenset({"[removed]", "[deleted]"})

SCHEMAS = ("native", "pushshift")


@dataclass(frozen=True)
class RedditRecord:
    """One dump line: a post or a comment."""

    kind: str
    id: str
    subreddit: str
    created_utc: int
    title: str = ""
    body: str = ""
    parent_post_id: str = ""
    num_comments: int = 0


@dataclass
class Document:
    """A post and the bodies of its surviving comments."""

    post_id: str
    subreddit: str
    created_utc: int
    title: str
    comment_bodies: list[str] = field(default_factory=list)
    raw_text: str = ""
    cleaned_text: str = ""

    def __post_init__(self) -> None:
        if not self.raw_text:
            self.raw_text = "\n".join([self.title, *self.comment_bodies])


@dataclass(frozen=True)
class FilterSpec:
    """Keyword, date-range, and subreddit constraints; dates are inclusive
    UTC calendar dates; an empty subreddit list means no restriction."""

    keywords: tuple[str, ...]
    date_from: date
    date_to: date
    subreddits: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError("keywords must be nonempty")
        if self.date_from > self.date_to:
            raise ValueError("date_from must not exceed date_to")


@dataclass(frozen=True)
class SubredditStats:
    subreddit: str
    posts: int
    comments: int
    sentences: int
    wordcount: int


@dataclass(frozen=True)
class CorpusStats:
    rows: tuple[SubredditStats, ...]
    total: SubredditStats


def _strip_fullname(value: str) -> str:
    return value[3:] if value.startswith("t3_") else value


# The created_utc range datetime.fromtimestamp(..., tz=timezone.utc)
# accepts: 0001-01-01T00:00:00Z to 9999-12-31T23:59:59Z.
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


def _record_from_native(obj: dict) -> RedditRecord:
    kind = obj["kind"]
    if kind not in (POST, COMMENT):
        raise ValueError(f"unknown kind {kind!r}")
    record = RedditRecord(
        kind=kind,
        id=str(obj["id"]),
        subreddit=str(obj["subreddit"]),
        created_utc=_coerce_utc(obj["created_utc"]),
        title=str(obj.get("title", "")),
        body=str(obj.get("body", "")),
        parent_post_id=_strip_fullname(str(obj.get("parent_post_id", ""))),
        num_comments=int(obj.get("num_comments", 0)),
    )
    if kind == COMMENT and not record.parent_post_id:
        raise ValueError("comment without parent_post_id")
    return record


def _record_from_pushshift(obj: dict) -> RedditRecord:
    if "title" in obj:
        return RedditRecord(
            kind=POST,
            id=str(obj["id"]),
            subreddit=str(obj["subreddit"]),
            created_utc=_coerce_utc(obj["created_utc"]),
            title=str(obj["title"]),
            body=str(obj.get("selftext", "")),
            num_comments=int(obj.get("num_comments", 0)),
        )
    if "link_id" in obj:
        parent = _strip_fullname(str(obj["link_id"]))
        if not parent:
            raise ValueError("comment without link_id")
        return RedditRecord(
            kind=COMMENT,
            id=str(obj["id"]),
            subreddit=str(obj["subreddit"]),
            created_utc=_coerce_utc(obj["created_utc"]),
            body=str(obj.get("body", "")),
            parent_post_id=parent,
        )
    raise ValueError("record is neither a post (title) nor a comment (link_id)")


_PARSERS: dict[str, Callable[[dict], RedditRecord]] = {
    "native": _record_from_native,
    "pushshift": _record_from_pushshift,
}


def parse_dump(
    path: str | Path, schema: str, on_error: str = "raise"
) -> list[RedditRecord]:
    """Parse a newline-delimited dump file into records, in file order.

    ``on_error`` is "raise" (fail fast) or "skip" (log and continue).
    """
    if schema not in _PARSERS:
        raise UnknownSchemaError(f"unknown dump schema {schema!r}")
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    parser = _PARSERS[schema]
    records: list[RedditRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("record is not an object")
                records.append(parser(obj))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                error = DumpParseError(line_no, str(exc))
                if on_error == "raise":
                    raise error from exc
                logger.warning("skipping line %d: %s", line_no, exc)
    return records


def _utc_date(created_utc: int) -> date:
    return datetime.fromtimestamp(created_utc, tz=timezone.utc).date()


def _in_spec(record: RedditRecord, spec: FilterSpec) -> bool:
    if spec.subreddits:
        wanted = {s.lower() for s in spec.subreddits}
        if record.subreddit.lower() not in wanted:
            return False
    return spec.date_from <= _utc_date(record.created_utc) <= spec.date_to


def _matches_keywords(record: RedditRecord, keywords: Sequence[str]) -> bool:
    title = record.title.lower()
    body = record.body.lower()
    return any(kw.lower() in title or kw.lower() in body for kw in keywords)


def filter_records(
    records: Iterable[RedditRecord], spec: FilterSpec
) -> list[RedditRecord]:
    """Keep keyword-matching records inside the date range and subreddit
    set, dropping duplicate ids (first occurrence wins)."""
    seen: set[str] = set()
    kept: list[RedditRecord] = []
    for record in records:
        if record.id in seen:
            continue
        if not _in_spec(record, spec):
            continue
        if not _matches_keywords(record, spec.keywords):
            continue
        seen.add(record.id)
        kept.append(record)
    return kept


def assemble_documents(
    all_records: Iterable[RedditRecord],
    matched_records: Iterable[RedditRecord],
    spec: FilterSpec | None = None,
) -> list[Document]:
    """Build one Document per post that matched or has a matching comment,
    pulling in the post's full comment thread from ``all_records``.

    Orphan comment matches (parent post missing from the dump) are logged
    and dropped. When ``spec`` is given, parent posts outside its date or
    subreddit constraints are likewise skipped, so every returned Document
    satisfies the filter.
    """
    posts: dict[str, RedditRecord] = {}
    comments: dict[str, RedditRecord] = {}
    comments_by_parent: dict[str, list[RedditRecord]] = {}
    for record in all_records:
        if record.kind == POST:
            posts.setdefault(record.id, record)
        else:
            if record.id in comments:
                continue
            comments[record.id] = record
            comments_by_parent.setdefault(record.parent_post_id, []).append(record)

    included: set[str] = set()
    for record in matched_records:
        parent = record.id if record.kind == POST else record.parent_post_id
        if parent not in posts:
            logger.warning(
                "orphan comment %s: parent post %s not in dump", record.id, parent
            )
            continue
        if spec is not None and not _in_spec(posts[parent], spec):
            logger.warning(
                "skipping post %s: outside the filter's date/subreddit range", parent
            )
            continue
        included.add(parent)

    documents: list[Document] = []
    for post_id in included:
        post = posts[post_id]
        thread = sorted(
            comments_by_parent.get(post_id, ()),
            key=lambda c: (c.created_utc, c.id),
        )
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
    seen: set[str] = set()
    out: list[str] = []
    for sentence in sentences:
        if sentence in seen:
            continue
        seen.add(sentence)
        out.append(sentence)
    return out


def corpus_stats(
    documents: Sequence[Document],
    sentence_splitter: Callable[[str], list[str]] | None = None,
) -> CorpusStats:
    """Per-subreddit post/comment/sentence/word counts; sentences and words
    are measured over URL-stripped comment bodies."""
    if sentence_splitter is None:
        sentence_splitter = textprep.split_sentences
    acc: dict[str, list[int]] = {}
    for doc in documents:
        row = acc.setdefault(doc.subreddit, [0, 0, 0, 0])
        row[0] += 1
        row[1] += len(doc.comment_bodies)
        for body in doc.comment_bodies:
            stripped = textprep.strip_urls(body)
            row[2] += len(sentence_splitter(stripped))
            row[3] += len(stripped.split())
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
    lines = ["\t".join(STATS_HEADER)]
    for row in (*stats.rows, stats.total):
        lines.append(
            "\t".join(
                [row.subreddit]
                + [str(v) for v in (row.posts, row.comments, row.sentences, row.wordcount)]
            )
        )
    return "\n".join(lines) + "\n"


def write_documents(documents: Iterable[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in documents:
            handle.write(
                json.dumps(
                    {
                        "post_id": doc.post_id,
                        "subreddit": doc.subreddit,
                        "created_utc": doc.created_utc,
                        "title": doc.title,
                        "comment_bodies": doc.comment_bodies,
                        "cleaned_text": doc.cleaned_text,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
                + "\n"
            )


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
    correctly typed fields raises DumpParseError with its line number."""
    documents: list[Document] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                documents.append(_document_from_json(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise DumpParseError(line_no, str(exc)) from exc
    return documents
