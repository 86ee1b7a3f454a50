"""Seeded input generator: dumps in both schemas, BILOU annotation files
and a ground-truth sidecar the output checks compare against.

Everything is drawn from one `random.Random` seeded from the workload name
and the benchmark seed, so a (preset, seed) pair always yields the same
bytes.  Words are pseudo-words built from consonant-vowel syllables; they
end in a vowel, so no lemma rule or POS suffix heuristic rewrites them, and
any that collide with a shipped data file (lexicon, stopwords, keywords,
closed class) are dropped.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "src" / "threadscope" / "data"
KEYWORDS_TSV = DATA_DIR / "ner_keywords.tsv"

SUBREDDITS = ("Coronavirus", "CoronavirusUS", "COVID19")
FILTER_KEYWORDS = ("covid", "pandemic")
WINDOW_START = date(2020, 1, 1)
DAY = 86400

# Mention templates; "{}" is the keyword's words.  None of these words is
# in the lexicon, so only the polarity templates move sentiment.
MENTION_TEMPLATES = (
    "we got the {} from the store",
    "my neighbor talked about {} again",
    "they said {} is everywhere now",
    "{} came up at work today",
    "there was a long line for {} downtown",
)
# The three entities `sentiment` is run on, with their planted polarity.
# "bleach" gets negated negative words, so its sign tests negation.
POLARITY = {
    "mask": (1, ("the {} is great", "i love the new {}", "this {} is excellent")),
    "lockdown": (-1, ("the {} is terrible", "i hate this {}", "this {} is awful")),
    "bleach": (1, ("the {} is not bad", "this {} is not terrible", "the {} was never awful")),
}
PLACEHOLDERS = ("[removed]", "[deleted]")
URL_RATE = 0.05  # share of matching comments that carry a URL


@dataclass(frozen=True)
class Preset:
    """Generator parameters for one workload size."""

    schema: str  # "native" or "pushshift"
    posts: int
    comments: tuple[int, int]  # comments per post, inclusive range
    sentences: tuple[int, int]  # sentences per comment
    words: tuple[int, int]  # filler words per sentence
    vocab: int  # filler vocabulary size
    zipf: float  # filler rank exponent; lower gives a longer tail of rare types
    match_rate: float  # share of threads carrying a filter keyword (exact)
    window_months: int  # months covered by --from/--to
    margin_months: int = 0  # dump months before and after the window
    malformed_rate: float = 0.0  # malformed lines per valid line
    topics: int = 0  # planted topic word clusters
    topic_share: float = 0.0  # share of words drawn from the thread's cluster
    month_words: int = 0  # words injected into each calendar month
    mention_rate: float = 0.0  # share of sentences with a planted entity mention
    polarity_rate: float = 0.0  # share of sentences with a polarity template
    annotated: tuple[int, int] = (0, 0)  # BILOU train/eval sentences


def seed_int(name: str, seed: int) -> int:
    return int(hashlib.sha256(f"{name}:{seed}".encode()).hexdigest()[:16], 16)


def _data_words(name: str) -> set[str]:
    words: set[str] = set()
    for line in (DATA_DIR / name).read_text("utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            words.add(line.split("\t")[0].strip().lower())
    return words


def load_keywords() -> dict[str, list[str]]:
    """The shipped NER keyword spec, category -> keywords."""
    out: dict[str, list[str]] = {}
    for line in KEYWORDS_TSV.read_text("utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            category, keyword = line.split("\t")
            out.setdefault(category, []).append(keyword.strip())
    return out


def _pseudo_words(rng: random.Random, n: int, banned: set[str], prefixes: tuple[str, ...]) -> list[str]:
    consonants = "bdfghjklmnprtvz"
    vowels = "aeiou"
    out: list[str] = []
    seen = set(banned)
    while len(out) < n:
        word = "".join(
            rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 4))
        )
        if word in seen or word.startswith(prefixes):
            continue
        seen.add(word)
        out.append(word)
    return out


def _add_months(day: date, months: int) -> date:
    index = day.year * 12 + day.month - 1 + months
    return date(index // 12, index % 12 + 1, 1)


def _utc(day: date) -> int:
    return int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())


def _month_of(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m")


class _Text:
    """Sentence factory over the preset's vocabularies."""

    def __init__(self, rng: random.Random, preset: Preset):
        self.rng = rng
        self.preset = preset
        keywords = load_keywords()
        self.keywords = [(c, kw) for c, kws in keywords.items() for kw in kws]
        kw_words = {w for _, kw in self.keywords for w in kw.split()}
        banned = set()
        for name in ("sentiment_lexicon.txt", "stopwords.txt", "pos_closed_class.txt",
                     "lemma_exceptions.txt", "verb_stems.txt"):
            banned |= _data_words(name)
        banned |= kw_words
        for template in MENTION_TEMPLATES:
            banned |= set(template.split())
        months = preset.window_months + 2 * preset.margin_months
        n_topic = preset.topics * 25
        n_month = months * preset.month_words
        words = _pseudo_words(
            rng, preset.vocab + n_topic + n_month, banned, tuple(sorted(kw_words))
        )
        self.filler = words[: preset.vocab]
        self.cum = list(accumulate(1.0 / r**preset.zipf for r in range(1, preset.vocab + 1)))
        rest = words[preset.vocab :]
        self.clusters = [rest[i * 25 : (i + 1) * 25] for i in range(preset.topics)]
        rest = rest[n_topic:]
        self.month_pool = [
            rest[i * preset.month_words : (i + 1) * preset.month_words] for i in range(months)
        ]
        # Threads without a filter keyword never reach a document, so their
        # text comes from a fixed pool: parsing costs the same, generating
        # costs far less.
        self.pool = [_sentence(self.filler_words(rng.randint(*preset.words))) for _ in range(3000)]

    def filler_words(self, n: int) -> list[str]:
        return self.rng.choices(self.filler, cum_weights=self.cum, k=n)

    def words(self, topic: int | None) -> list[str]:
        rng, p = self.rng, self.preset
        n = rng.randint(*p.words)
        if topic is None or not p.topic_share:
            return self.filler_words(n)
        cluster = self.clusters[topic]
        return [
            rng.choice(cluster) if rng.random() < p.topic_share else w
            for w in self.filler_words(n)
        ]

    def mention(self) -> tuple[str, str, list[str]]:
        """A mention sentence: (category, keyword, words)."""
        category, keyword = self.rng.choice(self.keywords)
        template = self.rng.choice(MENTION_TEMPLATES)
        return category, keyword, self.wrap(template.format(keyword).split())

    def wrap(self, core: list[str]) -> list[str]:
        return self.filler_words(self.rng.randint(0, 3)) + core + self.filler_words(self.rng.randint(0, 3))


def _sentence(words: list[str]) -> str:
    return " ".join(words) + "."


def _thread_body(text: _Text, topic: int | None, mentions: dict[str, int], matched: bool) -> str:
    """One comment body; planted mentions are added to ``mentions``."""
    rng, p = text.rng, text.preset
    if not matched:
        return " ".join(rng.choices(text.pool, k=rng.randint(*p.sentences)))
    sentences = []
    for _ in range(rng.randint(*p.sentences)):
        roll = rng.random()
        if roll < p.polarity_rate:
            entity = rng.choice(sorted(POLARITY))
            template = rng.choice(POLARITY[entity][1])
            words = text.wrap(template.format(entity).split())
            category = next(c for c, kw in text.keywords if kw == entity)
            mentions[category] = mentions.get(category, 0) + 1
        elif roll < p.polarity_rate + p.mention_rate:
            category, _, words = text.mention()
            mentions[category] = mentions.get(category, 0) + 1
        else:
            words = text.words(topic)
        sentences.append(_sentence(words))
    if rng.random() < URL_RATE:
        sentences.append(f"see https://example.org/{rng.choice(text.filler)} for more.")
    return " ".join(sentences)


def _malformed(rng: random.Random, schema: str, i: int) -> str:
    kind = i % 4
    ident = f"bad{i:05d}"
    if kind == 0:  # truncated JSON
        line = json.dumps({"id": ident, "subreddit": SUBREDDITS[0], "created_utc": 1580000000, "body": "cut off"})
        return line[: rng.randint(5, len(line) - 5)]
    if kind == 1:  # valid JSON that is not an object
        return rng.choice(("[1, 2, 3]", '"just a string"', "42", "null"))
    if kind == 2:  # a required field is missing
        record = {"id": ident, "created_utc": 1580000000, "title": "no subreddit"}
        if schema == "native":
            record["kind"] = "post"
        return json.dumps(record)
    # comment without a link to its post
    if schema == "native":
        return json.dumps({"kind": "comment", "id": ident, "subreddit": SUBREDDITS[0],
                           "created_utc": 1580000000, "body": "orphan", "parent_post_id": ""})
    return json.dumps({"id": ident, "subreddit": SUBREDDITS[0], "created_utc": 1580000000, "body": "orphan"})


def _record(schema: str, kind: str, ident: str, subreddit: str, ts: int, text: str,
            parent: str = "", num_comments: int = 0) -> dict:
    if schema == "native":
        rec = {"kind": kind, "id": ident, "subreddit": subreddit, "created_utc": ts}
        if kind == "post":
            rec.update(title=text, body="", num_comments=num_comments)
        else:
            rec.update(body=text, parent_post_id=parent)
        return rec
    rec = {"id": ident, "subreddit": subreddit, "created_utc": ts, "score": (ts % 97) - 10,
           "author": f"user{ts % 5003}"}
    if kind == "post":
        rec.update(title=text, selftext="", num_comments=num_comments)
    else:
        rec.update(body=text, link_id=f"t3_{parent}", parent_id=f"t3_{parent}")
    return rec


def _annotations(text: _Text, n: int) -> str:
    """BILOU token<TAB>tag lines from the mention grammar, one blank line
    after each sentence; about half the sentences carry a mention."""
    lines = []
    for _ in range(n):
        if text.rng.random() < 0.5:
            category, keyword, words = text.mention()
            kw = keyword.split()
            start = next(i for i in range(len(words)) if words[i : i + len(kw)] == kw)
            tags = ["O"] * len(words)
            if len(kw) == 1:
                tags[start] = f"U-{category}"
            else:
                tags[start] = f"B-{category}"
                for j in range(start + 1, start + len(kw) - 1):
                    tags[j] = f"I-{category}"
                tags[start + len(kw) - 1] = f"L-{category}"
        else:
            words = text.words(None)
            tags = ["O"] * len(words)
        for word, tag in zip(words + ["."], tags + ["O"]):
            lines.append(f"{word}\t{tag}\n")
        lines.append("\n")
    return "".join(lines)


def generate(name: str, preset: Preset, seed: int, out: Path) -> dict:
    """Write dump.jsonl, truth.json and (when annotated) train.tsv and
    eval.tsv into ``out``; return the truth record."""
    rng = random.Random(seed_int(name, seed))
    text = _Text(rng, preset)
    win_from = WINDOW_START
    win_end = _add_months(win_from, preset.window_months)  # exclusive
    dump_from = _add_months(win_from, -preset.margin_months)
    in_lo, in_hi = _utc(win_from), _utc(win_end)
    starts = [_utc(_add_months(dump_from, i)) for i in range(len(text.month_pool) + 1)]
    months = [_month_of(start) for start in starts[:-1]]
    month_words = dict(zip(months, text.month_pool))

    lines: list[tuple[int, str]] = []
    kept: list[str] = []
    doc_topic: dict[str, int] = {}
    mentions: dict[str, dict[str, int]] = {}
    comment_no = 0
    month_slots: dict[int, int] = {}
    # an exact count, so every seed gives the same amount of work
    matching = set(rng.sample(range(preset.posts), round(preset.match_rate * preset.posts)))
    for i in range(preset.posts):
        pid = f"p{i:06d}"
        sub = SUBREDDITS[i % len(SUBREDDITS)]
        month = i % len(months)  # posts spread evenly over the months
        ts = rng.randint(starts[month], starts[month + 1] - 4 * DAY)
        topic = rng.randrange(preset.topics) if preset.topics else None
        matched = i in matching
        where = rng.randint(-1, 3) if matched else None  # -1: title, else a comment index
        title_words = text.words(topic)[:8]
        if where == -1:
            title_words.insert(rng.randint(0, len(title_words)), rng.choice(FILTER_KEYWORDS))
        n_comments = rng.randint(*preset.comments)
        if where is not None and where >= n_comments:
            where = -1
            title_words.append(rng.choice(FILTER_KEYWORDS))
        thread_mentions: dict[str, int] = {}
        # Month words alternate over the month's matching threads, so each
        # sits in about half of them: far from the max_df ceiling and above
        # min_df in any month topics-monthly fits.
        targets = {}
        if matched:
            slot = month_slots.get(month, 0)
            month_slots[month] = slot + 1
            targets = {w: rng.randrange(n_comments) for k, w in enumerate(text.month_pool[month]) if (slot + k) % 2 == 0}
        comment_lines = []
        kw_in_window = where == -1
        for j in range(n_comments):
            cts = ts + rng.randint(60, 3 * DAY)
            if rng.random() < 0.02:
                body = rng.choice(PLACEHOLDERS)
            else:
                body = _thread_body(text, topic, thread_mentions, matched)
                if j == where:
                    body = f"{body} the {rng.choice(FILTER_KEYWORDS)} news again."
                    kw_in_window = in_lo <= cts < in_hi
                for word, target in targets.items():
                    if target == j:
                        body = f"{body} {word} {word} {word} {word} {word}."
            comment_lines.append((cts, _record(preset.schema, "comment", f"c{comment_no:07d}", sub, cts, body, parent=pid)))
            comment_no += 1
        title = _sentence(title_words)
        lines.append((ts, json.dumps(_record(preset.schema, "post", pid, sub, ts, title, num_comments=n_comments))))
        lines.extend((c, json.dumps(rec)) for c, rec in comment_lines)
        if in_lo <= ts < in_hi and kw_in_window:
            kept.append(pid)
            if topic is not None:
                doc_topic[pid] = topic
            if thread_mentions:
                mentions[pid] = thread_mentions
    lines.sort(key=lambda pair: pair[0])
    body = [line for _, line in lines]
    n_bad = round(preset.malformed_rate * len(body))
    for k in range(n_bad):
        body.insert(rng.randrange(len(body) + 1), _malformed(rng, preset.schema, k))

    out.mkdir(parents=True, exist_ok=True)
    (out / "dump.jsonl").write_text("\n".join(body) + "\n", encoding="utf-8")
    for split, n in zip(("train", "eval"), preset.annotated):
        if n:
            (out / f"{split}.tsv").write_text(_annotations(text, n), encoding="utf-8")
    truth = {
        "schema": preset.schema,
        "keywords": list(FILTER_KEYWORDS),
        "from": win_from.isoformat(),
        "to": date.fromordinal(win_end.toordinal() - 1).isoformat(),
        "kept_ids": sorted(kept),
        "skipped": n_bad,
        "doc_topic": doc_topic,
        "mentions": mentions,
        "polarity": {entity: sign for entity, (sign, _) in POLARITY.items()},
        "month_words": {m: w for m, w in month_words.items() if w},
    }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return truth
