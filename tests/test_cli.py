"""In-process CLI tests: exit codes, artifacts, manifests, config merging."""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threadscope import cli, manifest
from threadscope.cli import run
from threadscope.corpus import MAX_UTC, MIN_UTC
from threadscope.manifest import read_manifest, sha256_file

KEYWORDS = "covid,corona,virus,pandemic,lockdown,mask,quarantine,testing"

GOLDEN_STATS = (
    "Subreddit\t#Posts\t#Comments\t#Sentences\tWordcount\n"
    "coronavirus\t6\t12\t27\t223\n"
    "nyc\t4\t8\t17\t144\n"
    "Total\t10\t20\t44\t367\n"
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, fixtures):
    out = tmp_path_factory.mktemp("corpus")
    code = run(
        [
            "ingest",
            "--dump",
            str(fixtures / "sample_dump.jsonl"),
            "--schema",
            "native",
            "--keywords",
            KEYWORDS,
            "--from",
            "2020-03-01",
            "--to",
            "2020-08-31",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def clean_docs(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("clean") / "clean.jsonl"
    code = run(
        ["preprocess", "--in", str(corpus_dir / "documents.jsonl"), "--out", str(out)]
    )
    assert code == 0
    return out


# ---------------------------------------------------------------- exit codes


def test_no_command_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert run(["stats"]) == 1
    assert "--docs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["stats", "--docs", "x.jsonl", "--bogus"], "--bogus"),
        # a flag `topics` took once; the run stops before touching --out
        (["topics", "--docs", "x.jsonl", "--k", "2", "--threads", "0", "--out", "t"], "--threads"),
    ],
    ids=["stats-bogus", "topics-threads"],
)
def test_unknown_flag(capsys, argv, flag):
    assert run(argv) == 1
    assert flag in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert run(["stats", "--docs", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_k_is_data_error(clean_docs, tmp_path, capsys):
    code = run(
        [
            "topics",
            "--docs",
            str(clean_docs),
            "--k",
            "1",
            "--min-df",
            "1",
            "--out",
            str(tmp_path / "t"),
        ]
    )
    assert code == 2
    assert "k must be at least 2" in capsys.readouterr().err


# ---------------------------------------------------------------- ingest


def test_ingest_outputs_and_manifest(corpus_dir, fixtures):
    for name in ("manifest.json", "documents.jsonl", "sentences.txt", "stats.tsv"):
        assert (corpus_dir / name).exists()
    assert (corpus_dir / "stats.tsv").read_text() == GOLDEN_STATS

    manifest = read_manifest(corpus_dir / "manifest.json")
    assert manifest.command == "ingest"
    assert "out" not in manifest.params
    assert "threads" not in manifest.params
    assert manifest.params["keywords"] == KEYWORDS.split(",")
    assert manifest.params["from"] == "2020-03-01"
    assert manifest.params["skip-bad-records"] is False
    (dump_input,) = manifest.inputs
    assert dump_input.param == "dump"
    assert dump_input.sha256 == sha256_file(fixtures / "sample_dump.jsonl")


def test_ingest_skip_bad_records(tmp_path, fixtures):
    dump = tmp_path / "dump.jsonl"
    good = (fixtures / "sample_dump.jsonl").read_text().splitlines()[0]
    dump.write_text(good + "\n{broken\n")
    base = [
        "ingest",
        "--dump",
        str(dump),
        "--schema",
        "native",
        "--keywords",
        KEYWORDS,
        "--from",
        "2020-03-01",
        "--to",
        "2020-08-31",
    ]
    assert run(base + ["--out", str(tmp_path / "strict")]) == 2
    assert run(base + ["--skip-bad-records", "--out", str(tmp_path / "lax")]) == 0


# Dump lines whose numbers overflow an int or a date, or whose nesting
# overflows the JSON decoder's recursion limit.
OVERFLOW_LINES = {
    "nesting=100000": "[" * 100_000,
    "created_utc=Infinity": '{"kind": "post", "id": "bad", "subreddit": "coronavirus", "created_utc": Infinity, "title": "covid"}',
    "created_utc=1e20": '{"kind": "post", "id": "bad", "subreddit": "coronavirus", "created_utc": 1e20, "title": "covid"}',
    "num_comments=1e400": '{"kind": "post", "id": "bad", "subreddit": "coronavirus", "created_utc": 1583366400, "title": "covid", "num_comments": 1e400}',
}


@pytest.mark.parametrize("skip", [False, True], ids=["strict", "skip-bad-records"])
@pytest.mark.parametrize("line", OVERFLOW_LINES.values(), ids=list(OVERFLOW_LINES))
def test_ingest_overflowing_numbers_are_bad_records(tmp_path, fixtures, capsys, line, skip):
    dump = tmp_path / "dump.jsonl"
    good = (fixtures / "sample_dump.jsonl").read_text().splitlines()[0]
    dump.write_text(f"{good}\n{line}\n")
    argv = [
        "ingest", "--dump", str(dump), "--schema", "native", "--keywords", KEYWORDS,
        "--from", "2020-03-01", "--to", "2020-08-31", "--out", str(tmp_path / "out"),
    ]
    if skip:
        assert run(argv + ["--skip-bad-records"]) == 0
        documents = (tmp_path / "out" / "documents.jsonl").read_text().splitlines()
        assert [json.loads(doc)["post_id"] for doc in documents] == ["p01"]
    else:
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("threadscope ingest: error: line 2: ")


# A byte that is never UTF-8 and an encoded surrogate, inside a string.
@pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["0xff", "surrogate"])
@pytest.mark.parametrize("skip", [False, True], ids=["strict", "skip-bad-records"])
def test_ingest_invalid_utf8_line_is_a_bad_record(tmp_path, fixtures, capsys, caplog, bad, skip):
    dump = tmp_path / "dump.jsonl"
    good = (fixtures / "sample_dump.jsonl").read_text().splitlines()[0]
    accented = good.replace('"p01"', '"p02"').replace("testing sites", "testing cafés")
    bad_line = good.replace('"p01"', '"bad"').encode().replace(b"sites", bad)
    dump.write_bytes(b"\n".join([good.encode(), bad_line, accented.encode("utf-8"), b""]))
    argv = [
        "ingest", "--dump", str(dump), "--schema", "native", "--keywords", KEYWORDS,
        "--from", "2020-03-01", "--to", "2020-08-31", "--out", str(tmp_path / "out"),
    ]
    if skip:
        assert run(argv + ["--skip-bad-records"]) == 0
        assert caplog.messages == ["skipping line 2: invalid UTF-8"]
        documents = (tmp_path / "out" / "documents.jsonl").read_text(encoding="utf-8")
        assert [json.loads(doc)["post_id"] for doc in documents.splitlines()] == ["p01", "p02"]
        assert "testing cafés" in documents
    else:
        assert run(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "threadscope ingest: error: line 2: invalid UTF-8"
        assert not (tmp_path / "out").exists()


def test_ingest_dump_changed_between_passes_exits_2_with_one_error_line(
    tmp_path, fixtures, capsys, monkeypatch
):
    from threadscope import corpus

    dump = tmp_path / "dump.jsonl"
    lines = (fixtures / "sample_dump.jsonl").read_text().splitlines()
    dump.write_text("\n".join(lines) + "\n")
    real_filter = corpus.filter_records

    def filter_then_rewrite(records, spec):
        matched = real_filter(records, spec)
        # the first line, a kept post, now holds another id
        dump.write_text("\n".join([lines[0].replace('"p01"', '"p99"'), *lines[1:]]) + "\n")
        return matched

    monkeypatch.setattr(corpus, "filter_records", filter_then_rewrite)
    argv = [
        "ingest", "--dump", str(dump), "--schema", "native", "--keywords", KEYWORDS,
        "--from", "2020-03-01", "--to", "2020-08-31", "--out", str(tmp_path / "out"),
    ]
    assert run(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("threadscope ingest: error: line 1: the dump changed while it was read")
    assert not (tmp_path / "out").exists()


# sha256 of the corpus files `ingest` writes, recorded before records
# became tuples and the filter was compiled once per spec.  The pushshift
# fixture has a repeated post id, a repeated comment id first seen in a
# thread that is not kept, an orphan, a matching comment under a post
# outside the window, malformed lines, and posts on both window edges.
GOLDEN_INGEST = {
    "native": (
        ["--dump", "sample_dump.jsonl", "--schema", "native", "--keywords", KEYWORDS,
         "--from", "2020-03-01", "--to", "2020-08-31"],
        {
            "documents.jsonl": "770c9e06f5851a39f1543cf84d1d5041182776db5df419202d25fc7da2c4578c",
            "sentences.txt": "2ccbb9deaa370b38f10504d7e89f08683a8a515fd58abf93d290c66c2be0e5cb",
            "stats.tsv": "5c2f591d296bd15484d8cc98654007f56a9e9eeeee5417a3bc3ee62829e02eb9",
        },
    ),
    "pushshift": (
        ["--dump", "pushshift_dump.jsonl", "--schema", "pushshift",
         "--keywords", "Covid,MASK,quarantine", "--subreddits", "coronavirus,NYC",
         "--from", "2020-03-01", "--to", "2020-03-31", "--skip-bad-records"],
        {
            "documents.jsonl": "f6dc15ba5f2de21b37011f34a053a4a76a4d2de70f99390cdb2c345436df337b",
            "sentences.txt": "748b17f53c79b6a4821b5a5d29aa542be4feee59cee2c8ed1d5c7d92bd02d68e",
            "stats.tsv": "5edaaa8994c8a2f20886aa98a2f1835eac34b8edcbb4882bcb09bb55c6eb9828",
        },
    ),
}


def _golden_ingest(schema: str, fixtures, out) -> dict[str, str]:
    """Run a golden ingest into ``out``; return its pinned digests."""
    argv, digests = GOLDEN_INGEST[schema]
    argv = [str(fixtures / arg) if arg.endswith(".jsonl") else arg for arg in argv]
    assert run(["ingest", *argv, "--out", str(out)]) == 0
    return digests


@pytest.mark.parametrize("schema", list(GOLDEN_INGEST))
def test_ingest_golden_bytes(tmp_path, fixtures, schema):
    for name, digest in _golden_ingest(schema, fixtures, tmp_path).items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the documents file `preprocess` writes from each golden ingest,
# recorded before the stages were compiled into per-document text stages
# and one memoized per-surface function.  "custom" reorders the stages
# (lowercase and non-ASCII stripping on text and on sentences, punctuation
# before POS, stopwords last) and brings its own stoplist.
CUSTOM_STAGES = (
    "lowercase,strip_urls,split_sentences,remove_non_ascii,tokenize,"
    "remove_punct,pos_tag,remove_digits,lemmatize,remove_stopwords"
)
GOLDEN_PREPROCESS = {
    ("native", "default"):
        "f2cad7c642938b7cb932232db23b4091019bedbb802b1dfd614ea8e828fc0919",
    ("native", "custom"):
        "21b61332d871f0376cd75f27ee724cae1a4d1be4b912112acf390bd89489a81f",
    ("pushshift", "default"):
        "70542b0fb3d4216966e68925126d42e325efd8661a7f13f6bea01323d99bd594",
    ("pushshift", "custom"):
        "9e63487164173887c55259a297bb41e3a0e45c0bee61f1eeb1f008e2cf0dac00",
}


@pytest.mark.parametrize("schema,stages", list(GOLDEN_PREPROCESS))
def test_preprocess_golden_bytes(tmp_path, fixtures, schema, stages):
    _golden_ingest(schema, fixtures, tmp_path)
    argv = ["preprocess", "--in", str(tmp_path / "documents.jsonl")]
    if stages == "custom":
        stoplist = tmp_path / "stoplist.txt"
        stoplist.write_text("# custom\ncovid\nmask\nthe\n", encoding="utf-8")
        argv += ["--stages", CUSTOM_STAGES, "--stoplist", str(stoplist)]
    out = tmp_path / "clean.jsonl"
    assert run([*argv, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_PREPROCESS[schema, stages]


# sha256 of the files `topics` (k=3, minibatches of 4) and `topics-monthly`
# write from each golden ingest after default preprocessing, recorded
# before the topic model was imported only by the two topic commands and
# digamma built its shift terms in one array.  model.json holds lambda in
# full precision, so these pin the fit bit for bit.
GOLDEN_TOPICS = {
    "native": {
        "model.json": "8392be18f49c697584d91b6d23edbf9ddb04552e6aea720ccaa6acc15f2c879f",
        "keywords.txt": "47720d11e96edf5d1fdd1f999caf78958d0f6b979373bbf946625234f0b95c41",
        "assignments.tsv": "eb8e57a35d6ddb66a093ee013d5b3afb6b3b84b64272ef25eba83cdf3a4a44dc",
        "topic_frequencies.tsv": "1f009e952a30d106ee464189b97a8a38e3c0e05f38ff08df7774c396ec81feb2",
        "wordcloud_topic0.tsv": "838bc884bf4a54e053eb13cd338c684cb0be106be5ab4b0750aae0ddd16f84a2",
        "wordcloud_topic1.tsv": "ede7919fd6694df81201e66bc147bea7248aeef2ce8a82c892a00241e75f41b6",
        "wordcloud_topic2.tsv": "74192ae2dd06c4249ae3724d3fe2b4b15851d8cbda60e0eb136844e2b7914d89",
        "side_topics.tsv": "b9b4a2c3451eb3f72e6c824a63c03de64576c90eb1598fa95487a13aae39371a",
        "skipped.tsv": "d947a90abc6d1eb6b97268917a3921a3d2ad876ede3f52ba58ac1802dff2cc62",
    },
    "pushshift": {
        "model.json": "eb0fa8533db8321c9682f68010a1d61a3bc6b2643c2d0f369038ca3a73c9fbb3",
        "keywords.txt": "cf6a4ac66838e9f0a8adfe4e2fca8340064e5537fe12dbf6edf3b0a2640238b3",
        "assignments.tsv": "1562ff1268e93a4c4bc3b34685a23c0beeb87ce6b38740575b32d9e9d2dec520",
        "topic_frequencies.tsv": "61e10726fd793d7c478890cb1abebb3da9a5d4dc3bc9c13b50b8cb1f0a3fa711",
        "wordcloud_topic0.tsv": "6ef46c4e1ef516b080ee08dca57baade99d638523d2a6ed27144a796a3149835",
        "wordcloud_topic1.tsv": "b7924de4f022d4e6403ea83026ae7b6a83d88f3bca41be1d95526a9da6ff9d37",
        "wordcloud_topic2.tsv": "fd3af673fa9f7dae1652d9b00dd47dea45f95a31463a26b097b87091966c2382",
        "side_topics.tsv": "802c4cadf193c8d137d377ed295d50925ec5c128d56853df5f4a6f3b7dfc453d",
        "skipped.tsv": "451e9d0d3d236c33a0afb520af745afa996e437d34c4fefe35a74166cd4475e8",
    },
}


@pytest.mark.parametrize("schema", list(GOLDEN_TOPICS))
def test_topics_golden_bytes(tmp_path, fixtures, schema):
    _golden_ingest(schema, fixtures, tmp_path)
    clean = tmp_path / "clean.jsonl"
    assert run(["preprocess", "--in", str(tmp_path / "documents.jsonl"), "--out", str(clean)]) == 0
    common = ["--docs", str(clean), "--min-df", "1", "--epochs", "3", "--top", "5",
              "--corpus-id", "fix"]
    # one --out holds one run, so each command writes its own
    topics, monthly = tmp_path / "topics", tmp_path / "monthly"
    assert run(["topics", *common, "--k", "3", "--batch-size", "4", "--out", str(topics)]) == 0
    assert run(["topics-monthly", *common, "--min-docs", "2", "--out", str(monthly)]) == 0
    written = {
        path.name: path
        for path in [*(topics / "fix" / "topics").iterdir(), *(monthly / "fix" / "monthly").iterdir()]
    }
    assert set(written) == set(GOLDEN_TOPICS[schema])
    for name, digest in GOLDEN_TOPICS[schema].items():
        assert hashlib.sha256(written[name].read_bytes()).hexdigest() == digest, name


# sha256 of the files `topics --k 10` (minibatches of 4) and `topics-monthly`
# write from the native golden ingest at the default 10 epochs, recorded
# before the E-step's row sums were taken a column at a time, assignment
# reused the fit's final perplexity pass and stopped documents were
# compacted in bulk.  k=10 sums each token's row with numpy's 8
# accumulators, which k=3 and the monthly k=2 never reach.
GOLDEN_TOPICS_K10 = {
    "model.json": "dac065bc0278d24354465d5f6387e2e23477e5109b7d8cf6214a737ab49c2834",
    "keywords.txt": "7f8254825bb57b82e8aefe4238d779d16589ee07cc0670d2a97287a79c75a8d9",
    "assignments.tsv": "9d7132f08e52f89c11fd7541215be1c1355170c1791d49cc8ae50d6c245e6821",
    "topic_frequencies.tsv": "e990485d0c0ff68b4a68ad25c0458a31d88ac9e2f44fb2a4d3152a31ffc35252",
    "wordcloud_topic0.tsv": "20de241db03c9f942174d0eec136eef9df6b34be21f6420f9d1102ebdc7c2601",
    "wordcloud_topic1.tsv": "d6fb9b4b777b5e92c0152161d4b1829a61c85497fd16558df8c99c56bd47e7c7",
    "wordcloud_topic2.tsv": "41e382beed8830611a708e0633b1384b216ec3bcf1a08614adac30e346a76aa8",
    "wordcloud_topic3.tsv": "532fde51d2fe565842497797bd769ceabe01b3a69f0d8609b60df9ad6cc254be",
    "wordcloud_topic4.tsv": "65d0154190f9ed0b4d1357c8255f8b1f0e848d6b3d9c8e9384dd7c51cd8a0d1c",
    "wordcloud_topic5.tsv": "287ef3ea044c2daf7b732e5d6cd0c6b5dc3552c4a5ad478ad23ef00e8648718e",
    "wordcloud_topic6.tsv": "e8c13abe50542ea3296d008d0239a108bbb2a42a1be25d7bc28e63f373a6662a",
    "wordcloud_topic7.tsv": "c0dc95ef4f0a793a326821abc19375db31013a88df35b7a7ffe4df55c47f8a40",
    "wordcloud_topic8.tsv": "6ebbcfd9eff7dcb655958ae85c6aacee143aba63b8d2f311ea9103a48d1baff0",
    "wordcloud_topic9.tsv": "c5f74c8e09f6db3de729180b775c0ba48da302aeca6149e34d5b06bead40871a",
    "side_topics.tsv": "2d451db7e3f505164baec0be84bdf02b8274193595f6c1893497582e3d915eb5",
    "skipped.tsv": "d947a90abc6d1eb6b97268917a3921a3d2ad876ede3f52ba58ac1802dff2cc62",
}


def test_topics_k10_and_monthly_golden_bytes(tmp_path, fixtures):
    _golden_ingest("native", fixtures, tmp_path)
    clean = tmp_path / "clean.jsonl"
    assert run(["preprocess", "--in", str(tmp_path / "documents.jsonl"), "--out", str(clean)]) == 0
    common = ["--docs", str(clean), "--min-df", "1", "--corpus-id", "fix"]
    topics, monthly = tmp_path / "topics", tmp_path / "monthly"
    assert run(["topics", *common, "--k", "10", "--batch-size", "4", "--top", "5",
                "--out", str(topics)]) == 0
    assert run(["topics-monthly", *common, "--min-docs", "2", "--out", str(monthly)]) == 0
    written = {
        path.name: path
        for path in [*(topics / "fix" / "topics").iterdir(), *(monthly / "fix" / "monthly").iterdir()]
    }
    assert set(written) == set(GOLDEN_TOPICS_K10)
    for name, digest in GOLDEN_TOPICS_K10.items():
        assert hashlib.sha256(written[name].read_bytes()).hexdigest() == digest, name


def test_ingest_pushshift_fixture_keeps_the_first_records(tmp_path, fixtures):
    _golden_ingest("pushshift", fixtures, tmp_path)
    docs = [json.loads(line) for line in (tmp_path / "documents.jsonl").read_text().splitlines()]
    assert [(d["post_id"], d["title"]) for d in docs] == [
        ("a1", "Covid testing lines downtown"),
        ("b1", "Subway ridership falls"),
        ("c1", "Last day of March: QUARANTINE diary"),
    ]
    # dup1's first record sits under z9, a thread that is not kept
    assert all("dup1" not in body for d in docs for body in d["comment_bodies"])
    assert docs[1]["comment_bodies"] == ["Everyone wears a mask on the L train now. Stay safe."]


# Arbitrary JSON-ish dump lines: random values, record objects with
# mistyped fields, and truncated copies of good lines.
DUMP_FIELDS = (
    "kind", "id", "subreddit", "created_utc", "title", "body", "selftext",
    "parent_post_id", "link_id", "num_comments",
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.characters(codec="utf-8"), max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=5), children, max_size=3),
    max_leaves=8,
)
plausible_values = st.one_of(
    json_values,
    st.sampled_from(["post", "comment", "p01", "t3_p01", "", "covid mask", "1584230400"]),
    st.integers(1583366400, 1598918399),
)
record_objects = st.dictionaries(st.sampled_from(DUMP_FIELDS), plausible_values, max_size=10)


@st.composite
def fuzz_lines(draw, good_lines: list[str]) -> str:
    kind = draw(st.sampled_from(["value", "record", "truncated", "text"]))
    if kind == "value":
        return json.dumps(draw(json_values))
    if kind == "record":
        return json.dumps(draw(record_objects))
    if kind == "truncated":
        line = draw(st.sampled_from(good_lines))
        return line[: draw(st.integers(0, len(line) - 1))]
    return draw(st.text(st.characters(codec="utf-8"), max_size=20))


SAMPLE_LINES = (Path(__file__).parent / "fixtures" / "sample_dump.jsonl").read_text().splitlines()


@settings(max_examples=100)
@given(
    lines=st.lists(fuzz_lines(SAMPLE_LINES), max_size=6),
    schema=st.sampled_from(["native", "pushshift"]),
    skip=st.booleans(),
)
def test_ingest_fuzzed_dump_exits_0_or_2_with_one_error_line(lines, schema, skip):
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.jsonl"
        dump.write_text("\n".join(SAMPLE_LINES[:2] + lines) + "\n", encoding="utf-8")
        argv = [
            "ingest", "--dump", str(dump), "--schema", schema, "--keywords", KEYWORDS,
            "--from", "2020-03-01", "--to", "2020-08-31", "--out", str(Path(tmp) / "out"),
        ]
        err = io.StringIO()
        with redirect_stderr(err):
            code = run(argv + (["--skip-bad-records"] if skip else []))
    assert code in (0, 2)
    if code == 2:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("threadscope ingest: error: ")


# ---------------------------------------------------------------- stats


def test_stats_prints_golden_table(corpus_dir, capsys):
    assert run(["stats", "--docs", str(corpus_dir / "documents.jsonl")]) == 0
    assert capsys.readouterr().out == GOLDEN_STATS


def test_stats_out_writes_artifacts(corpus_dir, tmp_path, capsys):
    out = tmp_path / "stats"
    code = run(
        ["stats", "--docs", str(corpus_dir / "documents.jsonl"), "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    assert (out / "stats.tsv").read_text() == GOLDEN_STATS
    assert read_manifest(out / "manifest.json").command == "stats"


# ---------------------------------------------------------------- config


def test_config_supplies_required_params(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"docs": str(corpus_dir / "documents.jsonl")}))
    assert run(["stats", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == GOLDEN_STATS


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"docs": "x.jsonl", "bogus": 1}))
    assert run(["stats", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_a_too_deeply_nested_config_or_manifest_is_one_error_line(tmp_path, capsys):
    # nesting past the JSON decoder's recursion limit: a config file is a
    # usage error, a manifest a data error
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    assert run(["stats", "--config", str(nested)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert f"config file {nested}: not valid JSON (" in line
    argv = ["replay", "--manifest", str(nested), "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert f"{nested}: not valid JSON (" in line
    assert not (tmp_path / "out").exists()


def test_flag_beats_config_beats_default(corpus_dir, tmp_path, fixtures):
    from threadscope import nerdata
    from pathlib import Path

    keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
    sentences = corpus_dir / "sentences.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 7}))
    base = ["ner-build", "--sentences", str(sentences), "--keywords", str(keywords)]

    assert run(base + ["--out", str(tmp_path / "d")]) == 0
    assert read_manifest(tmp_path / "d" / "manifest.json").params["cap"] == 250

    assert run(base + ["--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert read_manifest(tmp_path / "c" / "manifest.json").params["cap"] == 7

    code = run(
        base + ["--config", str(cfg), "--cap", "9", "--out", str(tmp_path / "f")]
    )
    assert code == 0
    assert read_manifest(tmp_path / "f" / "manifest.json").params["cap"] == 9


@pytest.mark.parametrize(
    "argv,config",
    [(["sentiment", "--entity", "mask"], {"min-tokens": 2.9}), (["report"], {"truncate": "false"}),
     (["report"], {"mentions": ["a", "b"]}), (["report"], {"entities": [1]})],
    ids=["int-from-float", "flag-from-string", "list-for-str", "list-of-non-strings"],
)
def test_config_value_a_flag_would_reject_exits_1(corpus_dir, tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    docs = str(corpus_dir / "documents.jsonl")
    assert run([*argv, "--docs", docs, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"threadscope {argv[0]}: error: config value for '{next(iter(config))}'")
    assert not (tmp_path / "o").exists()


def test_config_null_means_the_default(corpus_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"min-tokens": None, "lexicon": None}))
    argv = ["sentiment", "--docs", str(corpus_dir / "documents.jsonl"), "--entity", "mask"]
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "s.tsv")]) == 0
    params = read_manifest(tmp_path / "s.tsv.manifest.json").params
    assert params["min-tokens"] == 3 and params["lexicon"] is None


def test_every_param_kind_parses_through_one_table():
    for command in cli.COMMANDS.values():
        for param in command.params:
            if param.kind == "flag":
                assert param.default is False, (command.name, param.flag)
            else:
                assert param.kind in cli._PARSE, (command.name, param.flag)
        (out,) = [param for param in command.params if param.flag == command.out_flag]
        assert not out.recorded, command.name


# the first param of each kind, with the command that takes it
PARAM_OF_KIND = {}
for _command in cli.COMMANDS.values():
    for _param in _command.params:
        PARAM_OF_KIND.setdefault(_param.kind, (_command, _param))
PARSER = cli._build_parser()


def _merged_or_exit(command, param, argv, config):
    with redirect_stderr(io.StringIO()):
        try:
            args = vars(PARSER.parse_args([command.name, *argv]))
            return cli._merge((param,), args, config)[param.dest]
        except SystemExit as exc:
            return f"exit {exc.code}"
        except cli._UsageError:
            return "exit 1"


flag_texts = st.lists(st.sampled_from(list(" ,-:.e+_0123456789aTx") + [
    "native", "prefix", "2020-03-01", "nan", "True"]), max_size=6).map("".join)


@settings(max_examples=300)
@given(
    kind=st.sampled_from(sorted(set(PARAM_OF_KIND) - {"flag"})),
    value=flag_texts | st.integers(-999, 999) | st.floats(allow_nan=False) | st.booleans(),
)
def test_config_value_and_flag_text_give_the_same_merged_value(kind, value):
    command, param = PARAM_OF_KIND[kind]
    text = str(value)
    from_flag = _merged_or_exit(command, param, [f"--{param.flag}={text}"], {})
    from_config = _merged_or_exit(command, param, [], {param.flag: value})
    if from_flag != from_flag:  # a float flag parsed to nan
        assert from_config != from_config
    else:
        assert from_config == from_flag


def test_flag_kind_takes_only_a_json_boolean():
    command, param = PARAM_OF_KIND["flag"]
    flag = f"--{param.flag}"
    assert _merged_or_exit(command, param, [flag], {}) is True
    assert _merged_or_exit(command, param, [], {param.flag: True}) is True
    assert _merged_or_exit(command, param, [], {param.flag: False}) is False
    assert _merged_or_exit(command, param, [], {param.flag: None}) is False
    assert _merged_or_exit(command, param, [f"{flag}=true"], {}) == "exit 1"
    for value in ("true", 1, [True]):
        assert _merged_or_exit(command, param, [], {param.flag: value}) == "exit 1"


# ---------------------------------------------------------------- pipeline


def test_preprocess_writes_sidecar_manifest(clean_docs):
    sidecar = clean_docs.parent / (clean_docs.name + ".manifest.json")
    manifest = read_manifest(sidecar)
    assert manifest.command == "preprocess"
    assert manifest.inputs[0].param == "in"


def test_topics_force_contract(clean_docs, tmp_path, capsys):
    base = [
        "topics",
        "--docs",
        str(clean_docs),
        "--k",
        "2",
        "--min-df",
        "1",
        "--epochs",
        "2",
        "--corpus-id",
        "fix",
        "--out",
        str(tmp_path),
    ]
    assert run(base) == 0
    assert (tmp_path / "fix" / "topics" / "keywords.txt").exists()
    assert run(base) == 2
    assert "--force" in capsys.readouterr().err
    assert run(base + ["--force"]) == 0
    manifest = read_manifest(tmp_path / "manifest.json")
    assert manifest.params["k"] == 2
    assert "force" not in manifest.params
    assert manifest.seeds == {"seed": 42}


def test_topic_manifests_record_the_defaults_of_every_flag_but_the_output(clean_docs, tmp_path):
    # the flags both topic commands share, at their defaults; --out and
    # --force are not recorded
    shared = {"docs": str(clean_docs), "max-df": 0.9, "min-df": 3, "batch-size": 128,
              "epochs": 10, "seed": 42, "top": 15, "corpus-id": "clean"}
    topics, monthly = tmp_path / "topics", tmp_path / "monthly"
    assert run(["topics", "--docs", str(clean_docs), "--k", "2", "--out", str(topics)]) == 0
    assert read_manifest(topics / "manifest.json").params == {
        **shared, "k": 2, "offset": 15.0, "kappa": 0.7, "alpha": None, "eta": None
    }
    assert run(["topics-monthly", "--docs", str(clean_docs), "--out", str(monthly)]) == 0
    assert read_manifest(monthly / "manifest.json").params == {**shared, "min-docs": 5}


@pytest.mark.parametrize(
    "flag, prior",
    [("--eta", "1e-200"), ("--eta", "1e-300"), ("--eta", "2.2250738585072014e-308"),
     ("--eta", "1e308"), ("--alpha", "1e308"), ("--alpha", "1e306"), ("--alpha", "1e307")],
    ids=["1e-200", "1e-300", "2.2250738585072014e-308", "eta-1e308", "alpha-1e308",
         "alpha-1e306", "alpha-1e307"],
)
def test_a_perplexity_overflow_names_the_priors_and_writes_nothing(
    clean_docs, tmp_path, capsys, flag, prior
):
    # the smallest priors LdaConfig accepts put the bound's exponent past
    # what a float holds; the largest overflow the fit's sums, where numpy
    # would print warnings before the error
    out = tmp_path / "t"
    argv = ["topics", "--docs", str(clean_docs), "--min-df", "1", "--epochs", "3",
            "--k", "3", "--batch-size", "4", flag, prior, "--out", str(out)]
    assert run(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "perplexity" in line and "overflows" in line
    assert "--eta" in line and "--alpha" in line
    assert list(tmp_path.iterdir()) == []


def test_a_perplexity_overflow_from_k_names_k(clean_docs, tmp_path, capsys):
    # no prior is given: --k sets both to 1/k, and a large k puts the
    # training perplexity past what a float holds
    out = tmp_path / "t"
    argv = ["topics", "--docs", str(clean_docs), "--min-df", "1", "--epochs", "1",
            "--k", "500", "--out", str(out)]
    assert run(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "perplexity" in line and "overflows" in line
    assert "--eta" in line and "--alpha" in line and "--k" in line
    assert list(tmp_path.iterdir()) == []


def test_topics_force_with_smaller_k_drops_stale_wordclouds(clean_docs, tmp_path):
    base = ["topics", "--docs", str(clean_docs), "--min-df", "1", "--epochs", "1"]
    base += ["--corpus-id", "fix", "--out", str(tmp_path)]
    topics_dir = tmp_path / "fix" / "topics"
    assert run(base + ["--k", "4"]) == 0
    assert len(list(topics_dir.glob("wordcloud_topic*.tsv"))) == 4
    assert run(base + ["--k", "2", "--force"]) == 0
    clouds = sorted(path.name for path in topics_dir.glob("wordcloud_topic*.tsv"))
    assert clouds == ["wordcloud_topic0.tsv", "wordcloud_topic1.tsv"]


def test_topics_notes_e_steps_stopped_at_the_cap(clean_docs, tmp_path, capsys):
    argv = ["topics", "--docs", str(clean_docs), "--min-df", "1", "--k", "3"]
    argv += ["--batch-size", "4", "--epochs", "3", "--out", str(tmp_path / "t")]
    assert run(argv) == 0
    model = json.loads((tmp_path / "t" / "clean" / "topics" / "model.json").read_text())
    assert model["epoch_cap_hits"] == [5, 0, 1]
    assert capsys.readouterr().err.splitlines() == [
        "threadscope topics: note: E-steps stopped at max_e_iters=100 in epochs: 5, 0, 1"
    ]

    # a fit whose E-steps all converge prints nothing
    docs = tmp_path / "converging.jsonl"
    docs.write_text("".join(
        json.dumps({"post_id": f"p{i}", "subreddit": "s", "created_utc": 1583366400,
                    "title": "t", "comment_bodies": [], "cleaned_text": text}) + "\n"
        for i, text in enumerate(["mask glove", "fever cough"] * 3)
    ))
    argv = ["topics", "--docs", str(docs), "--min-df", "1", "--max-df", "1.0", "--k", "2"]
    assert run(argv + ["--epochs", "2", "--out", str(tmp_path / "c")]) == 0
    model = json.loads((tmp_path / "c" / "converging" / "topics" / "model.json").read_text())
    assert model["epoch_cap_hits"] == [0, 0]
    assert capsys.readouterr().err == ""


def test_ner_train_rejects_bad_dropout(fixtures, tmp_path, capsys):
    code = run(
        [
            "ner-train",
            "--train",
            str(fixtures / "annotated_train.tsv"),
            "--dropout",
            "huge",
            "--model",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    assert "--dropout" in capsys.readouterr().err


def test_ner_train_and_eval(fixtures, tmp_path, capsys):
    model = tmp_path / "model.json"
    code = run(
        [
            "ner-train",
            "--train",
            str(fixtures / "annotated_train.tsv"),
            "--iters",
            "3",
            "--dropout",
            "0.5:0.1",
            "--model",
            str(model),
        ]
    )
    assert code == 0
    assert model.exists()
    sidecar = read_manifest(tmp_path / "model.json.manifest.json")
    assert sidecar.params["dropout"] == "0.5:0.1"
    assert sidecar.seeds == {"seed": 0}

    code = run(["ner-eval", "--model", str(model), "--eval", str(fixtures / "annotated_eval.tsv")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "category\tprecision\trecall\tf1"
    assert out.splitlines()[-1].startswith("micro\t")


# sha256 of the files `ner-train`, `ner-eval` and `ner-tag` write from the
# annotation fixtures and the native golden ingest, recorded before the
# tagger built its features once per distinct word and reused decodes.
GOLDEN_NER = {
    "no-dropout": {
        "model.json": "6e6d8cafa499d1a5910412d3b967eb2e9224ee3eeaafb80ae9927a856a036eac",
        "eval.tsv": "2cab1f872f2bf3ac4977710678781ed42e9d4f50d59dd802d19b105083916c0b",
        "mentions.tsv": "b4b76e336b34b83faac900fb8ad1a1d606bed0e8bb0f0c97f06ede9a30b52967",
    },
    "dropout": {
        "model.json": "15703d0abda4f925ec218e8a054eefc1b0aabe0155cfd9491415ffcef83e10c8",
        "eval.tsv": "59b64c5a3e2c36ef5551cee8555a482a8d8fa55db01e9f7f61d4be89ff098723",
        "mentions.tsv": "aff1db12d1fe632c2c1affd2b520e85402245964bff0ffe495a3e732c54ed847",
    },
}


@pytest.mark.parametrize("dropout", list(GOLDEN_NER))
def test_ner_golden_bytes(tmp_path, fixtures, dropout):
    _golden_ingest("native", fixtures, tmp_path / "corpus")
    model = tmp_path / "model.json"
    assert run(
        ["ner-train", "--train", str(fixtures / "annotated_train.tsv"), "--iters", "6",
         "--batch-min", "2", "--batch-max", "8", "--batch-growth", "1.5", "--seed", "3",
         "--dropout", "0.5:0.1" if dropout == "dropout" else "0", "--model", str(model)]
    ) == 0
    assert run(
        ["ner-eval", "--model", str(model), "--eval", str(fixtures / "annotated_eval.tsv"),
         "--out", str(tmp_path / "eval")]
    ) == 0
    mentions = tmp_path / "mentions.tsv"
    assert run(
        ["ner-tag", "--model", str(model), "--docs", str(tmp_path / "corpus" / "documents.jsonl"),
         "--out", str(mentions)]
    ) == 0
    written = {"model.json": model, "eval.tsv": tmp_path / "eval" / "eval.tsv", "mentions.tsv": mentions}
    for name, digest in GOLDEN_NER[dropout].items():
        assert hashlib.sha256(written[name].read_bytes()).hexdigest() == digest, name


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, fixtures):
    model = tmp_path_factory.mktemp("model") / "model.json"
    assert run(
        ["ner-train", "--train", str(fixtures / "annotated_train.tsv"), "--iters", "3",
         "--model", str(model)]
    ) == 0
    return json.loads(model.read_text())


MODEL_FIELDS = ("version", "labels", "templates", "weights")
odd_labels = st.sampled_from(["U-NEW", "B-NEW", "I-PPE", "L-SYM", "O", "B-", "X-PPE", "junk", ""])
huge_numbers = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 10**300, -(10**300), 10**400])


@st.composite
def mutated_models(draw, payload: dict) -> str:
    """A valid model payload with one to three mutations, as JSON text."""
    payload = json.loads(json.dumps(payload))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "label", "unknown", "huge", "empty"]))
        weights = payload.get("weights")
        rows = sorted(weights) if isinstance(weights, dict) else []
        if kind == "drop":
            payload.pop(draw(st.sampled_from(MODEL_FIELDS)), None)
        elif kind == "retype":
            payload[draw(st.sampled_from(MODEL_FIELDS))] = draw(json_values)
        elif kind == "label" and isinstance(payload.get("labels"), list):
            payload["labels"].insert(draw(st.integers(0, len(payload["labels"]))), draw(odd_labels))
        elif rows and all(isinstance(row, dict) for row in weights.values()):
            feature = draw(st.sampled_from(rows) | st.sampled_from(["bias", "w=mask", "new"]))
            row = weights.setdefault(feature, {})
            if kind == "unknown":
                row[draw(odd_labels)] = draw(st.floats(-5, 5))
            elif kind == "huge":
                for label in draw(st.lists(odd_labels | st.sampled_from(sorted(row) or ["O"]), min_size=1, max_size=3)):
                    row[label] = draw(huge_numbers)
            else:
                weights[feature] = {}
    return json.dumps(payload)


def _run_quietly(argv):
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue().splitlines()


@settings(max_examples=60)
@given(data=st.data())
def test_fuzzed_model_file_exits_0_or_2_with_one_error_line(trained_model, corpus_dir, fixtures, data):
    text = data.draw(mutated_models(trained_model))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(text, encoding="utf-8")
        runs = {
            "ner-eval": ["--eval", str(fixtures / "annotated_eval.tsv"), "--out", str(Path(tmp) / "eval")],
            "ner-tag": ["--docs", str(corpus_dir / "documents.jsonl"), "--out", str(Path(tmp) / "m.tsv")],
        }
        for command, argv in runs.items():
            code, err = _run_quietly([command, "--model", str(model), *argv])
            assert code in (0, 2)
            if code == 2:
                (line,) = err
                assert line.startswith(f"threadscope {command}: error: ")
            else:
                assert err == []


DOC_FIELDS = ("post_id", "subreddit", "created_utc", "title", "comment_bodies", "cleaned_text")
odd_text = st.lists(
    st.sampled_from(list("aZ9é_- .!?\t\n\x1c\x85\xa0²Ⅻ'\"") + ["Dr.", "mask", "masks"]), max_size=12
).map("".join)
# a tab or line break in either id would split a row of the TSV outputs
tsv_breaking_ids = st.sampled_from(["p\t1", "p\n1", "p\r1", "\t", "coronavirus\r\n"])
odd_values = {
    "created_utc": st.sampled_from(
        [MIN_UTC, MAX_UTC, MIN_UTC - 1, MAX_UTC + 1, 0, -1, 2**63, 1583366400]
    ),
    "comment_bodies": st.lists(odd_text, max_size=3),
}


@st.composite
def mutated_documents(draw, good_lines: list[str]) -> str:
    """A documents-file line: a good one with one to three fields
    dropped, retyped or given odd values, or with an id that would break
    a TSV row, or not a document at all."""
    kind = draw(st.sampled_from(["document", "document", "id", "value", "truncated", "text"]))
    if kind == "id":
        doc = json.loads(draw(st.sampled_from(good_lines)))
        doc[draw(st.sampled_from(["post_id", "subreddit"]))] = draw(tsv_breaking_ids)
        return json.dumps(doc)
    if kind == "value":
        return json.dumps(draw(json_values))
    if kind == "truncated":
        line = draw(st.sampled_from(good_lines))
        return line[: draw(st.integers(0, len(line) - 1))]
    if kind == "text":
        return draw(st.text(st.characters(codec="utf-8"), max_size=20))
    doc = json.loads(draw(st.sampled_from(good_lines)))
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(DOC_FIELDS))
        action = draw(st.sampled_from(["drop", "retype", "odd", "odd"]))
        if action == "drop":
            doc.pop(field, None)
        elif action == "retype":
            doc[field] = draw(json_values)
        else:
            doc[field] = draw(odd_values.get(field, odd_text))
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


@settings(max_examples=60)
@given(data=st.data())
def test_fuzzed_documents_file_exits_0_or_2_with_one_error_line(trained_model, corpus_dir, data):
    good = (corpus_dir / "documents.jsonl").read_text(encoding="utf-8").splitlines()
    lines = data.draw(st.lists(st.sampled_from(good) | mutated_documents(good), min_size=1, max_size=5))
    with tempfile.TemporaryDirectory() as tmp:
        docs, model = Path(tmp) / "documents.jsonl", Path(tmp) / "model.json"
        docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model.write_text(json.dumps(trained_model), encoding="utf-8")
        runs = {
            "stats": ["--docs", str(docs)],
            "preprocess": ["--in", str(docs)],
            "ner-tag": ["--model", str(model), "--docs", str(docs)],
            "sentiment": ["--docs", str(docs), "--entity", "mask"],
            "topics": ["--docs", str(docs), "--k", "2", "--min-df", "1", "--epochs", "1"],
            "report": ["--docs", str(docs)],
        }
        for command, argv in runs.items():
            code, err = _run_quietly([command, *argv, "--out", str(Path(tmp) / command)])
            assert code in (0, 2), command
            if code == 2:
                (line,) = err
                assert line.startswith(f"threadscope {command}: error: ")
            else:
                assert all(line.startswith(f"threadscope {command}: note: ") for line in err)
        mentions = Path(tmp) / "ner-tag"
        if mentions.exists():
            rows = mentions.read_text(encoding="utf-8").split("\n")[:-1]
            assert all(len(row.split("\t")) == 5 for row in rows)


@pytest.mark.parametrize(
    "text",
    ["{}", '{"labels": ["O"], "templates": 5, "weights": {}}',
     '{"version": 1, "labels": ["O"], "templates": 5, "weights": {}}'],
    ids=["empty", "mistyped", "mistyped-with-version"],
)
def test_ner_eval_rejects_malformed_model(fixtures, tmp_path, capsys, text):
    model = tmp_path / "m.json"
    model.write_text(text)
    argv = ["ner-eval", "--model", str(model), "--eval", str(fixtures / "annotated_eval.tsv")]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("threadscope ner-eval: error: ")


def test_ner_train_reports_an_invalid_bilou_sequence_by_file_line(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tO\nb\tI-PPE\n\n")
    model = tmp_path / "m.json"
    assert run(["ner-train", "--train", str(bad), "--model", str(model)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "threadscope ner-train: error: line 2: I-PPE without an open entity"
    ]
    assert not model.exists()


def test_ner_train_warns_without_entity_tags(fixtures, tmp_path, capsys):
    plain = tmp_path / "plain.tsv"
    plain.write_text("wear\tO\na\tO\nmask\tO\n\nstay\tO\nhome\tO\n\n")
    model = tmp_path / "model.json"
    assert run(["ner-train", "--train", str(plain), "--iters", "2", "--model", str(model)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("threadscope ner-train: warning: ")
    assert json.loads(model.read_text())["labels"] == ["O"]

    tagged = tmp_path / "tagged.json"
    code = run(
        [
            "ner-train", "--train", str(fixtures / "annotated_train.tsv"),
            "--iters", "2", "--model", str(tagged),
        ]
    )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_report_rejects_mistyped_documents_field(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        json.dumps(
            {
                "post_id": "p1",
                "subreddit": "covid",
                "created_utc": "1583366400",
                "title": "t",
                "comment_bodies": [],
            }
        )
        + "\n"
    )
    assert run(["report", "--docs", str(docs), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["threadscope report: error: line 1: created_utc must be an integer"]


def test_report_rejects_deeply_nested_documents_line(corpus_dir, tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    good = (corpus_dir / "documents.jsonl").read_text().splitlines()[0]
    docs.write_text(good + "\n" + "[" * 100_000 + "\n")
    assert run(["report", "--docs", str(docs), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("threadscope report: error: line 2: ")


def test_report_window_counts_only_the_posts_inside_it(corpus_dir, tmp_path):
    docs = corpus_dir / "documents.jsonl"
    days = [
        datetime.fromtimestamp(json.loads(line)["created_utc"], timezone.utc).date()
        for line in docs.read_text().splitlines()
    ]
    first, last = date(2020, 4, 1), date(2020, 5, 31)
    inside = sum(first <= day <= last for day in days)
    assert 0 < inside < len(days)
    argv = ["report", "--docs", str(docs), "--from", first.isoformat()]
    argv += ["--to", last.isoformat(), "--corpus-id", "w", "--out", str(tmp_path)]
    assert run(argv) == 0
    rows = (tmp_path / "w" / "weekly" / "weekly_posts.tsv").read_text().splitlines()
    weeks = [row.split("\t") for row in rows[1:]]
    assert weeks[0][0] == "2020-03-29"  # the Sunday on or before --from
    assert weeks[-1][0] == "2020-05-31"
    assert sum(int(count) for _, count in weeks) == inside


def test_report_from_after_to_exits_2_with_one_error_line(corpus_dir, tmp_path, capsys):
    out = tmp_path / "r"
    argv = ["report", "--docs", str(corpus_dir / "documents.jsonl")]
    argv += ["--from", "2020-06-01", "--to", "2020-05-31", "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["threadscope report: error: date_from must not exceed date_to"]
    assert not out.exists()


def test_report_window_bounds_every_table(fixtures, tmp_path):
    corpus = tmp_path / "corpus"
    assert run(["ingest", "--dump", str(fixtures / "sample_dump.jsonl"), "--schema",
                "native", "--keywords", "covid,mask", "--from", "2020-01-01",
                "--to", "2020-12-31", "--out", str(corpus)]) == 0
    docs = [json.loads(line) for line in (corpus / "documents.jsonl").read_text().splitlines()]
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text("post_id\tsubreddit\tcreated_utc\tcategory\tname\n" + "".join(
        f"{doc['post_id']}\t{doc['subreddit']}\t{doc['created_utc']}\tPPE\tmask\n"
        for doc in docs
    ))
    out = tmp_path / "r"
    argv = ["report", "--docs", str(corpus / "documents.jsonl"), "--mentions", str(mentions)]
    argv += ["--from", "2020-04-01", "--to", "2020-05-31", "--corpus-id", "w"]
    assert run(argv + ["--out", str(out)]) == 0

    def rows(name):
        return [line.split("\t") for line in (out / "w" / name).read_text().splitlines()[1:]]

    assert len(docs) == 10
    assert sum(int(row[1]) for row in rows("weekly/weekly_posts.tsv")) == 2
    assert sum(int(row[3]) for row in rows("entities/entity_counts.tsv")) == 2
    assert sum(int(row[2]) for row in rows("entities/entity_totals.tsv")) == 2
    trends = rows("monthly/entity_trends.tsv")
    assert [row[1] for row in trends] == ["2020-04", "2020-05"]
    assert sum(int(row[2]) for row in trends) == 2


def test_report_names_months_before_year_1000_in_time_order(tmp_path):
    # 0999-12-05 and 1000-02-05 at 00:00 UTC: the year is zero-padded, so
    # the trend spans the months between them in the order they fall
    seconds = {"p1": -30_612_556_800, "p2": -30_607_200_000}
    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(
        json.dumps({"post_id": post_id, "subreddit": "covid", "created_utc": created,
                    "title": "mask", "comment_bodies": []}) + "\n"
        for post_id, created in seconds.items()
    ))
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text("post_id\tsubreddit\tcreated_utc\tcategory\tname\n" + "".join(
        f"{post_id}\tcovid\t{created}\tPPE\tmask\n" for post_id, created in seconds.items()
    ))
    out = tmp_path / "r"
    argv = ["report", "--docs", str(docs), "--mentions", str(mentions), "--corpus-id", "w"]
    assert run(argv + ["--out", str(out)]) == 0
    assert (out / "w" / "monthly" / "entity_trends.tsv").read_text() == (
        "entity\tmonth\tcount\nmask\t0999-12\t1\nmask\t1000-01\t0\nmask\t1000-02\t1\n"
    )


@pytest.mark.parametrize(
    "flag,field",
    [
        ("--alpha=nan", "alpha"),
        ("--alpha=inf", "alpha"),
        ("--alpha=-0.5", "alpha"),
        ("--eta=nan", "eta"),
        ("--eta=-inf", "eta"),
        ("--offset=nan", "tau0"),
        ("--offset=inf", "tau0"),
    ],
)
def test_topics_rejects_non_finite_priors_with_one_error_line(
    clean_docs, tmp_path, capsys, flag, field
):
    out = tmp_path / "t"
    argv = ["topics", "--docs", str(clean_docs), "--k", "2", "--min-df", "1"]
    argv += ["--epochs", "1", flag, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"threadscope topics: error: {field} must be finite and positive"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("ner-build", ["--cap", "100000000000000000000000"], "cap must be at most 9223372036854775807"),
        ("topics", ["--seed", "-1"], "seed must be non-negative"),
        # the first step rho = offset^-kappa would exceed 1 and weigh the
        # old lambda negatively
        ("topics", ["--offset", "0.5"], "tau0 must be at least 1"),
    ],
    ids=["ner-build-huge-cap", "topics-negative-seed", "topics-offset-below-1"],
)
def test_an_out_of_range_count_names_its_flag(
    clean_docs, corpus_dir, tmp_path, capsys, command, flags, message
):
    from threadscope import nerdata

    out = tmp_path / "out"
    if command == "ner-build":
        keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
        argv = [command, "--sentences", str(corpus_dir / "sentences.txt")]
        argv += ["--keywords", str(keywords)]
    else:
        argv = [command, "--docs", str(clean_docs), "--k", "2", "--min-df", "1"]
    argv += [*flags, "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"threadscope {command}: error: {message}"]
    assert not out.exists()


TEN_TO_400 = "1" + "0" * 400

NUMERIC_OVERFLOWS = {
    "ner-train-huge-batch-min": ("ner-train", ["--batch-min", TEN_TO_400, "--batch-max", TEN_TO_400 + "0"]),
    "topics-tiny-offset": ("topics", ["--offset", "1e-320", "--kappa", "1"]),
    "topics-tiny-eta": ("topics", ["--eta", "1e-300"]),
    "topics-huge-alpha": ("topics", ["--alpha", "1e300"]),
    "topics-tiny-alpha": ("topics", ["--alpha", "1e-310"]),
}


@pytest.mark.parametrize("command,flags", NUMERIC_OVERFLOWS.values(), ids=list(NUMERIC_OVERFLOWS))
def test_numeric_overflow_exits_2_with_one_error_line(
    clean_docs, fixtures, tmp_path, capsys, command, flags
):
    out = tmp_path / "out"
    if command == "ner-train":
        argv = [command, "--train", str(fixtures / "annotated_train.tsv"), "--iters", "1"]
        argv += [*flags, "--model", str(out)]
    else:
        argv = [command, "--docs", str(clean_docs), "--k", "2", "--min-df", "1"]
        argv += ["--epochs", "1", *flags, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith(f"threadscope {command}: error: ")
    assert not out.exists()


def test_failed_allocation_exits_2_with_one_error_line(clean_docs, tmp_path, capsys, monkeypatch):
    from threadscope import topics

    def refuse(*args, **kwargs):
        # what numpy raises for `--k 1000000000`, without asking for the memory
        raise MemoryError("Unable to allocate 1.34 TiB for an array")

    monkeypatch.setattr(topics, "fit_lda", refuse)
    out = tmp_path / "t"
    argv = ["topics", "--docs", str(clean_docs), "--k", "2", "--min-df", "1", "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["threadscope topics: error: Unable to allocate 1.34 TiB for an array"]
    assert not out.exists()


# ---------------------------------------------------------------- writer


def test_report_with_malformed_mentions_writes_nothing(corpus_dir, tmp_path, capsys):
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text(
        "post_id\tsubreddit\tcreated_utc\tcategory\tname\n"
        "p01\tcoronavirus\tyesterday\tPPE\tmask\n"
    )
    out = tmp_path / "r"
    argv = ["report", "--docs", str(corpus_dir / "documents.jsonl")]
    assert run(argv + ["--mentions", str(mentions), "--out", str(out)]) == 2
    assert "line 2: bad created_utc" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("row", [
    "p01\tcoronavirus\t1583020800\tPPE",
    "p01\tcoronavirus\t1583020800\tPPE\tmask\textra",
])
def test_report_rejects_mentions_rows_not_of_5_columns(
    corpus_dir, tmp_path, capsys, row
):
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text(
        "post_id\tsubreddit\tcreated_utc\tcategory\tname\n"
        "p01\tcoronavirus\t1583020800\tPPE\tmask\n" + row + "\n"
    )
    out = tmp_path / "r"
    argv = ["report", "--docs", str(corpus_dir / "documents.jsonl")]
    assert run(argv + ["--mentions", str(mentions), "--out", str(out)]) == 2
    columns = len(row.split("\t"))
    assert capsys.readouterr().err.splitlines() == [
        f"threadscope report: error: line 3: expected 5 tab-separated columns, "
        f"got {columns}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "p01\tcoronavirus\t1583366400\tPPE\tmask\n",
    "post_id\tsubreddit\tcreated_utc\tname\tcategory\n"
    "p01\tcoronavirus\t1583366400\tmask\tPPE\n",
    "",
], ids=["no-header", "reordered-header", "empty"])
def test_report_refuses_mentions_without_the_header_line(corpus_dir, tmp_path, capsys, text):
    # line 1 is the header; a file without one would lose its first mention
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text(text)
    out = tmp_path / "r"
    argv = ["report", "--docs", str(corpus_dir / "documents.jsonl")]
    assert run(argv + ["--mentions", str(mentions), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "threadscope report: error: line 1: expected the header "
        "post_id<TAB>subreddit<TAB>created_utc<TAB>category<TAB>name"
    ]
    assert not out.exists()


def _outputs_of_plain_and_bom_input(tmp_path, text: str, argv) -> dict[str, dict]:
    """The output trees, manifests aside, of one command run on the text
    written without and with a UTF-8 byte-order mark; argv(path, out)."""
    trees = {}
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        path, out = tmp_path / f"{name}.txt", tmp_path / f"{name}-out"
        path.write_text(text, encoding=encoding)
        assert run(argv(str(path), str(out))) == 0, name
        trees[name] = {k: v for k, v in _tree_bytes(out).items() if k != "manifest.json"}
    return trees


def test_report_reads_mentions_with_a_bom_as_without(corpus_dir, tmp_path):
    text = _mentions_file(tmp_path).read_text()
    docs = str(corpus_dir / "documents.jsonl")
    trees = _outputs_of_plain_and_bom_input(
        tmp_path, text,
        lambda path, out: ["report", "--docs", docs, "--mentions", path, "--out", out],
    )
    assert b"\tmask\t1\t" in trees["plain"]["documents/entities/entity_counts.tsv"]
    assert trees["bom"] == trees["plain"]


def test_ner_build_reads_sentences_with_a_bom_as_without(tmp_path):
    from threadscope import nerdata

    keywords = str(Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv")
    # the first sentence is a keyword hit, so a BOM joined to it would lose it
    text = "masks are required in stores\nI woke up with a fever\n"
    trees = _outputs_of_plain_and_bom_input(
        tmp_path, text,
        lambda path, out: ["ner-build", "--sentences", path, "--keywords", keywords,
                           "--out", out],
    )
    annotated = trees["plain"]["train.tsv"] + trees["plain"]["eval.tsv"]
    assert b"masks\tO\n" in annotated and b"fever\tO\n" in annotated
    assert trees["bom"] == trees["plain"]


@pytest.mark.parametrize("skip", [False, True], ids=["strict", "skip-bad-records"])
def test_ingest_reads_a_dump_with_a_bom_as_without(fixtures, tmp_path, skip):
    text = (fixtures / "sample_dump.jsonl").read_text(encoding="utf-8")
    flags = ["--skip-bad-records"] if skip else []
    trees = _outputs_of_plain_and_bom_input(
        tmp_path, text,
        lambda path, out: ["ingest", "--dump", path, "--schema", "native", "--keywords",
                           KEYWORDS, "--from", "2020-03-01", "--to", "2020-08-31",
                           *flags, "--out", out],
    )
    # line 1 is post p01, whose comments a lost first line would orphan
    assert b'"post_id": "p01"' in trees["plain"]["documents.jsonl"]
    assert set(trees["plain"]) == {"documents.jsonl", "sentences.txt", "stats.tsv"}
    assert trees["bom"] == trees["plain"]


# ------------------------------------------------------- table columns


DUMP_FIXTURES = {"native": "sample_dump.jsonl", "pushshift": "pushshift_dump.jsonl"}


@pytest.mark.parametrize("skip", [False, True], ids=["strict", "skip-bad-records"])
@pytest.mark.parametrize("schema,field,value", [
    ("native", "subreddit", "corona\tvirus"),
    ("native", "id", "p\n99"),
    ("pushshift", "subreddit", "corona\rvirus"),
    ("pushshift", "id", "a\t99"),
])
def test_ingest_post_id_or_subreddit_with_a_tab_or_line_break_is_a_bad_record(
    tmp_path, fixtures, capsys, schema, field, value, skip
):
    good = (fixtures / DUMP_FIXTURES[schema]).read_text().splitlines()[0]
    bad = {**json.loads(good), field: value}
    if field == "subreddit":
        bad["id"] += "x"  # a post of its own, not a repeat of the good one
    dump = tmp_path / "dump.jsonl"
    dump.write_text(f"{good}\n{json.dumps(bad)}\n")
    out = tmp_path / "out"
    argv = [
        "ingest", "--dump", str(dump), "--schema", schema, "--keywords", KEYWORDS,
        "--from", "2020-03-01", "--to", "2020-08-31", "--out", str(out),
    ]
    if skip:
        assert run(argv + ["--skip-bad-records"]) == 0
        documents = (out / "documents.jsonl").read_text().splitlines()
        assert [json.loads(doc)["post_id"] for doc in documents] == [json.loads(good)["id"]]
        assert run(["stats", "--docs", str(out / "documents.jsonl")]) == 0
    else:
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"threadscope ingest: error: line 2: {field} must not hold a tab or line break"
        ]
        assert not out.exists()


def _mentions_file(tmp_path) -> Path:
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text(
        "post_id\tsubreddit\tcreated_utc\tcategory\tname\n"
        "p01\tcoronavirus\t1583366400\tPPE\tmask\n"
    )
    return mentions


@pytest.mark.parametrize("flag", ["entity", "entities"])
def test_entity_flags_with_a_tab_or_line_break_write_nothing(corpus_dir, tmp_path, capsys, flag):
    docs = str(corpus_dir / "documents.jsonl")
    out = tmp_path / "out"
    if flag == "entity":
        argv = ["sentiment", "--docs", docs, "--entity", "mask\tx", "--out", str(out)]
    else:
        argv = ["report", "--docs", docs, "--mentions", str(_mentions_file(tmp_path)),
                "--entities", "mask\tx", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"threadscope {argv[0]}: error: --{flag} must not hold a tab or line break"
    ]
    assert not out.exists()


@pytest.mark.parametrize("entity", ["", " "], ids=["empty", "blank"])
def test_sentiment_entity_of_no_word_writes_nothing(corpus_dir, tmp_path, capsys, entity):
    # an entity of no words would match every sentence
    out = tmp_path / "out.tsv"
    argv = ["sentiment", "--docs", str(corpus_dir / "documents.jsonl"), "--entity", entity,
            "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "threadscope sentiment: error: --entity must contain a word"
    ]
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,flag,message",
    [
        ("preprocess", "--stages", "--stages must name a stage"),
        ("report", "--entities", "--entities must name an entity"),
    ],
    ids=["stages", "entities"],
)
def test_an_empty_list_flag_is_refused_and_writes_nothing(
    corpus_dir, tmp_path, capsys, command, flag, message
):
    # an omitted flag means the default; an empty list names nothing, so it
    # may not run the default and record [] in the manifest
    docs = str(corpus_dir / "documents.jsonl")
    out = tmp_path / "out"
    if command == "preprocess":
        argv = [command, "--in", docs]
    else:
        argv = [command, "--docs", docs, "--mentions", str(_mentions_file(tmp_path))]
    assert run(argv + [flag, ",", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"threadscope {command}: error: {message}"]
    assert not out.exists()


INPUT_PARAMS = [
    (command, param)
    for command in cli.COMMANDS.values()
    for param in command.params
    if param.is_input
]
# a value each required flag accepts; a path need not exist
REQUIRED_VALUE = {"int": "2", "float": "0.5", "date": "2020-03-01", "csv": "mask"}


def _argv_with_empty(command, tmp_path, empty):
    """command's argv with the flag named empty set to "", the output under
    tmp_path and every other required flag given a value"""
    argv = [command.name, f"--{empty}", ""]
    for param in command.params:
        if param.flag == empty:
            continue
        if param.flag == command.out_flag:
            argv += [f"--{param.flag}", str(tmp_path / "out")]
        elif param.required:
            value = param.choices[0] if param.choices else REQUIRED_VALUE.get(param.kind)
            argv += [f"--{param.flag}", value or str(tmp_path / param.flag)]
    return argv


def _assert_refused_with_nothing_written(command, flag, tmp_path, capsys):
    assert run(_argv_with_empty(command, tmp_path, flag)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"threadscope {command.name}: error: --{flag} must name a file"
    ]
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,param",
    INPUT_PARAMS,
    ids=[f"{command.name}-{param.flag}" for command, param in INPUT_PARAMS],
)
def test_an_empty_input_path_is_refused_and_writes_nothing(tmp_path, capsys, command, param):
    # "" names no file: opened late, it fails after a stage's work, or as
    # the directory "." when it is joined to a path first
    _assert_refused_with_nothing_written(command, param.flag, tmp_path, capsys)


@pytest.mark.parametrize("command", cli.COMMANDS.values(), ids=list(cli.COMMANDS))
def test_an_empty_config_path_is_refused_and_writes_nothing(tmp_path, capsys, command):
    # every command takes --config; read as no config file, "" let the run
    # go on without the defaults it was meant to name
    _assert_refused_with_nothing_written(command, "config", tmp_path, capsys)


def test_model_label_with_a_tab_is_refused_before_tagging(trained_model, corpus_dir, tmp_path, capsys):
    # the label keeps its weights, so a model that loaded would tag with it
    text = json.dumps(trained_model).replace('"U-PPE"', '"U-PP\\tE"')
    assert "U-PP\\tE" in text
    model = tmp_path / "model.json"
    model.write_text(text)
    out = tmp_path / "mentions.tsv"
    argv = ["ner-tag", "--model", str(model), "--docs", str(corpus_dir / "documents.jsonl")]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"threadscope ner-tag: error: {model}: label must not hold a tab or line break"
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["model.json"]


@pytest.mark.parametrize("command", ["topics", "topics-monthly", "report"])
@pytest.mark.parametrize("escape", ["parent", "absolute"])
def test_corpus_id_must_stay_inside_out(clean_docs, tmp_path, capsys, command, escape):
    work = tmp_path / "work"
    work.mkdir()
    corpus_id = "../../escaped" if escape == "parent" else str(tmp_path / "escaped")
    argv = [command, "--docs", str(clean_docs), "--corpus-id", corpus_id,
            "--out", str(work / "runs" / "rep")]
    if command == "topics":
        argv += ["--k", "2"]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"threadscope {command}: error: --corpus-id {corpus_id} must be a relative "
        "path without '..'"
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["work"]
    assert not any(work.iterdir())


def test_every_table_of_the_chain_keeps_its_header_width(fixtures, tmp_path):
    """Each line of every table the commands write splits into as many
    fields as its header, so no value split a row."""
    from threadscope import nerdata

    keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
    docs, clean = tmp_path / "corpus" / "documents.jsonl", tmp_path / "clean.jsonl"
    model, mentions = tmp_path / "model.json", tmp_path / "mentions.tsv"
    commands = [
        ["ingest", "--dump", fixtures / "sample_dump.jsonl", "--schema", "native",
         "--keywords", KEYWORDS, "--from", "2020-03-01", "--to", "2020-08-31",
         "--out", tmp_path / "corpus"],
        ["preprocess", "--in", docs, "--out", clean],
        ["ner-build", "--sentences", tmp_path / "corpus" / "sentences.txt",
         "--keywords", keywords, "--out", tmp_path / "nerdata"],
        ["ner-train", "--train", fixtures / "annotated_train.tsv", "--iters", "3", "--model", model],
        ["ner-eval", "--model", model, "--eval", fixtures / "annotated_eval.tsv",
         "--out", tmp_path / "eval"],
        ["ner-tag", "--model", model, "--docs", docs, "--out", mentions],
        ["topics", "--docs", clean, "--k", "3", "--min-df", "1", "--epochs", "1",
         "--out", tmp_path / "topics"],
        ["topics-monthly", "--docs", clean, "--min-df", "1", "--min-docs", "2",
         "--epochs", "1", "--out", tmp_path / "monthly"],
        ["sentiment", "--docs", docs, "--entity", "mask", "--out", tmp_path / "sentiment.tsv"],
        ["stats", "--docs", docs, "--out", tmp_path / "stats"],
        ["report", "--docs", docs, "--mentions", mentions, "--out", tmp_path / "report"],
    ]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in commands:
            assert run([str(arg) for arg in argv]) == 0, argv[0]
    tables = sorted([*tmp_path.rglob("*.tsv"), *tmp_path.rglob("keywords.txt")])
    assert len(tables) >= 20
    for table in tables:
        lines = table.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == "", table
        if table.name == "keywords.txt":
            # a vocabulary_size line, then the rows
            assert lines.pop(0).startswith("vocabulary_size\t"), table
        if table.parent.name == "nerdata" and table.name in ("train.tsv", "eval.tsv"):
            # token<TAB>tag lines, a blank line after each sentence
            lines = [line for line in lines if line]
        width = len(lines[0].split("\t"))
        assert width > 1, table
        for line_no, line in enumerate(lines, start=1):
            assert len(line.split("\t")) == width, (table, line_no, line)


def test_failed_rewrite_leaves_no_stale_manifest(corpus_dir, tmp_path, capsys, monkeypatch):
    docs = str(corpus_dir / "documents.jsonl")
    out = tmp_path / "stats"
    assert run(["stats", "--docs", docs, "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def fail(mani, path):
        raise OSError("disk full")

    with monkeypatch.context() as patched:
        patched.setattr(manifest, "write_manifest", fail)  # the rewrite fails
        assert run(["stats", "--docs", docs, "--out", str(out)]) == 2
    # the old tree stands whole beside its own manifest; nothing half-written is left
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert [path.name for path in tmp_path.iterdir()] == ["stats"]

    report = tmp_path / "mask.tsv"
    sidecar = tmp_path / "mask.tsv.manifest.json"
    argv = ["sentiment", "--docs", docs, "--entity", "mask", "--out", str(report)]
    assert run(argv) == 0
    assert sidecar.exists()
    written = report.read_bytes()

    def fail_replace(source, target):
        raise OSError("disk full")

    with monkeypatch.context() as patched:
        patched.setattr(cli.os, "replace", fail_replace)  # the file rewrite fails
        assert run(argv) == 2
    # the old file stands, but without a manifest that would claim this run
    assert not sidecar.exists()
    assert report.read_bytes() == written
    assert sorted(path.name for path in tmp_path.iterdir()) == ["mask.tsv", "stats"]


def test_report_without_mentions_replaces_the_tree_with_mentions(corpus_dir, tmp_path):
    docs = corpus_dir / "documents.jsonl"
    mentions = tmp_path / "mentions.tsv"
    mentions.write_text(
        "post_id\tsubreddit\tcreated_utc\tcategory\tname\n"
        + "".join(
            f"{doc['post_id']}\t{doc['subreddit']}\t{doc['created_utc']}\tPPE\tmask\n"
            for doc in map(json.loads, docs.read_text().splitlines())
        )
    )
    out = tmp_path / "r"
    argv = ["report", "--docs", str(docs), "--corpus-id", "c", "--out", str(out)]
    assert run(argv + ["--mentions", str(mentions)]) == 0
    assert (out / "c" / "entities" / "entity_counts.tsv").exists()
    assert run(argv) == 0
    assert sorted(str(path.relative_to(out)) for path in out.rglob("*")) == [
        "c", "c/weekly", "c/weekly/weekly_posts.tsv", "manifest.json",
    ]
    assert read_manifest(out / "manifest.json").params["mentions"] is None


def test_topics_and_topics_monthly_into_one_out_replace_each_other(clean_docs, tmp_path):
    common = ["--docs", str(clean_docs), "--min-df", "1", "--epochs", "1", "--corpus-id", "c"]
    out = tmp_path / "out"
    assert run(["topics", *common, "--k", "2", "--out", str(out)]) == 0
    assert run(["topics-monthly", *common, "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["c", "manifest.json"]
    assert [path.name for path in (out / "c").iterdir()] == ["monthly"]


def _one_error_line(capsys, command, flag="--out"):
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"threadscope {command}: error: {flag} ")
    return line


def test_out_that_is_not_a_previous_run_is_refused(
    corpus_dir, trained_model, fixtures, tmp_path, capsys, monkeypatch
):
    docs = str(corpus_dir / "documents.jsonl")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(trained_model))
    stats = ["stats", "--docs", docs, "--out"]
    mine = tmp_path / "mine"
    mine.mkdir()
    (mine / "notes.txt").write_text("keep me")
    assert run([*stats, str(mine)]) == 2
    assert "non-empty directory without manifest.json" in _one_error_line(capsys, "stats")
    assert [path.name for path in mine.iterdir()] == ["notes.txt"]
    assert run([*stats, str(mine / "notes.txt")]) == 2
    assert "is not a directory" in _one_error_line(capsys, "stats")
    assert (mine / "notes.txt").read_text() == "keep me"

    # a file output never replaces a file that no run wrote
    argvs = {
        "preprocess": ["preprocess", "--in", docs, "--out"],
        "ner-train": ["ner-train", "--train", str(fixtures / "annotated_train.tsv"),
                      "--iters", "1", "--model"],
        "ner-tag": ["ner-tag", "--model", str(model), "--docs", docs, "--out"],
        "sentiment": ["sentiment", "--docs", docs, "--entity", "mask", "--out"],
    }
    for command, argv in argvs.items():
        assert run([*argv, str(mine / "notes.txt")]) == 2
        assert "notes.txt is a file without notes.txt.manifest.json" in _one_error_line(
            capsys, command, argv[-1]
        )
        assert sorted(path.name for path in mine.iterdir()) == ["notes.txt"]
        assert (mine / "notes.txt").read_text() == "keep me"

    # the working directory, and any directory above it, is never replaced,
    # even when it holds an earlier run
    assert run([*stats, str(tmp_path / "run")]) == 0
    monkeypatch.chdir(tmp_path / "run")
    for out in (".", "..", str(tmp_path)):
        assert run([*stats, out]) == 2
        assert "holds the working directory" in _one_error_line(capsys, "stats")
    assert (tmp_path / "run" / "manifest.json").exists()


def test_ner_train_refuses_its_model_location_before_training(
    fixtures, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("trained before the output location was checked")

    monkeypatch.setattr(cli.tagger, "train_tagger", never)
    user = tmp_path / "user.json"
    user.write_text("keep me")
    argv = ["ner-train", "--train", str(fixtures / "annotated_train.tsv"), "--model"]
    assert run([*argv, str(user)]) == 2
    line = _one_error_line(capsys, "ner-train", "--model")
    assert line.endswith(f"--model {user} is a file without user.json.manifest.json")
    assert user.read_text() == "keep me"
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "."]) == 2
    assert _one_error_line(capsys, "ner-train", "--model").endswith(
        "--model . holds the working directory"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["user.json"]


def test_directory_output_refuses_a_file_before_the_handler_runs(
    corpus_dir, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("ran before the output location was checked")

    monkeypatch.setattr(cli.report, "weekly_post_counts", never)
    notes = tmp_path / "notes.txt"
    notes.write_text("keep me")
    docs = str(corpus_dir / "documents.jsonl")
    assert run(["report", "--docs", docs, "--out", str(notes)]) == 2
    assert _one_error_line(capsys, "report").endswith(f"--out {notes} is not a directory")
    assert notes.read_text() == "keep me"


def test_file_output_refuses_a_directory_before_the_handler_runs(
    fixtures, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("trained before the output location was checked")

    monkeypatch.setattr(cli.tagger, "train_tagger", never)
    empty, earlier = tmp_path / "empty", tmp_path / "earlier"
    empty.mkdir()
    earlier.mkdir()
    (earlier / "manifest.json").write_text("{}")
    argv = ["ner-train", "--train", str(fixtures / "annotated_train.tsv"), "--iters", "1"]
    for model in (empty, earlier):
        assert run([*argv, "--model", str(model)]) == 2
        assert _one_error_line(capsys, "ner-train", "--model").endswith(
            f"--model {model} is a directory"
        )
    assert list(empty.iterdir()) == []
    assert [path.name for path in earlier.iterdir()] == ["manifest.json"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["earlier", "empty"]


def test_out_that_holds_an_input_is_refused(corpus_dir, tmp_path, capsys):
    docs = tmp_path / "in" / "documents.jsonl"
    docs.parent.mkdir()
    shutil.copy(corpus_dir / "documents.jsonl", docs)
    assert run(["report", "--docs", str(docs), "--out", str(docs.parent)]) == 2
    assert "holds input" in _one_error_line(capsys, "report")
    assert run(["preprocess", "--in", str(docs), "--out", str(docs)]) == 2
    assert "holds input" in _one_error_line(capsys, "preprocess")
    assert docs.read_bytes() == (corpus_dir / "documents.jsonl").read_bytes()
    assert [path.name for path in docs.parent.iterdir()] == ["documents.jsonl"]


def test_stats_without_out_writes_nothing(corpus_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["stats", "--docs", str(corpus_dir / "documents.jsonl")]) == 0
    assert capsys.readouterr().out == GOLDEN_STATS
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def digest_calls(monkeypatch):
    """Record each input digest, and each documents or model read, in order."""
    calls: list[str] = []
    real_digest = manifest.sha256_file

    def digest(path):
        calls.append("digest")
        return real_digest(path)

    monkeypatch.setattr(manifest, "sha256_file", digest)
    return calls


def test_runs_without_out_digest_nothing(corpus_dir, fixtures, tmp_path, digest_calls, capsys):
    model = tmp_path / "model.json"
    train = ["ner-train", "--train", str(fixtures / "annotated_train.tsv"), "--iters", "1"]
    assert run(train + ["--model", str(model)]) == 0
    digest_calls.clear()

    assert run(["stats", "--docs", str(corpus_dir / "documents.jsonl")]) == 0
    assert run(["ner-eval", "--model", str(model), "--eval", str(fixtures / "annotated_eval.tsv")]) == 0
    assert digest_calls == []

    # a missing input is still a data error
    assert run(["stats", "--docs", str(tmp_path / "nope.jsonl")]) == 2
    assert run(["ner-eval", "--model", str(tmp_path / "nope.json"), "--eval", str(fixtures / "annotated_eval.tsv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("No such file" in line for line in err)
    assert digest_calls == []


def test_runs_with_out_digest_inputs_after_reading_them(corpus_dir, tmp_path, digest_calls, monkeypatch):
    # the handler's flag checks come before any digest; no output may hold
    # an input, and nothing is written before the manifest is built
    from threadscope import corpus

    real_read, real_write = corpus.read_documents, manifest.write_manifest

    def read(path):
        digest_calls.append("read")
        return real_read(path)

    def write(*args):
        digest_calls.append("manifest")
        return real_write(*args)

    monkeypatch.setattr(corpus, "read_documents", read)
    monkeypatch.setattr(manifest, "write_manifest", write)
    out = tmp_path / "stats"
    assert run(["stats", "--docs", str(corpus_dir / "documents.jsonl"), "--out", str(out)]) == 0
    assert digest_calls == ["read", "digest", "manifest"]
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["preprocess", "--in", "{missing}", "--stages", ","], "--stages must name a stage"),
        (["preprocess", "--in", "{missing}", "--stages", "bogus"], "unknown stage: 'bogus'"),
        (["topics", "--docs", "{missing}", "--k", "3", "--offset", "0.5"], "tau0 must be at least 1"),
        (
            ["topics-monthly", "--docs", "{missing}", "--epochs", "0"],
            "batch_size, epochs, and max_e_iters must be positive",
        ),
        (["sentiment", "--docs", "{missing}", "--entity="], "--entity must contain a word"),
        (["report", "--docs", "{missing}", "--entities", ","], "--entities must name an entity"),
        (
            [
                "ingest", "--dump", "{missing}", "--schema", "native", "--keywords", ",",
                "--from", "2020-01-01", "--to", "2020-12-31",
            ],
            "keywords must be nonempty",
        ),
        (
            ["preprocess", "--in", "{missing}", "--stoplist", "{missing}", "--stages", "bogus"],
            "unknown stage: 'bogus'",
        ),
        (
            ["ner-build", "--sentences", "{missing}", "--keywords", "{missing}", "--cap", "0"],
            "cap must be >= 1",
        ),
        (
            ["ner-build", "--sentences", "{missing}", "--keywords", "{missing}", "--split", "1.5"],
            "split_ratio must be in (0, 1)",
        ),
        (
            ["report", "--docs", "{missing}", "--from", "2020-02-01", "--to", "2020-01-01"],
            "date_from must not exceed date_to",
        ),
    ],
    ids=[
        "stages-empty", "stages-unknown", "offset", "epochs", "entity", "entities", "keywords",
        "stoplist", "cap", "split", "window",
    ],
)
def test_a_bad_flag_is_reported_before_a_missing_input(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.jsonl")
    argv = [arg.replace("{missing}", missing) for arg in argv]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    command = argv[0]
    assert capsys.readouterr().err.splitlines() == [f"threadscope {command}: error: {message}"]
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- replay


def test_replay_reruns_byte_identical(corpus_dir, tmp_path, fixtures):
    from threadscope import nerdata
    from pathlib import Path

    keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
    first = tmp_path / "first"
    code = run(
        [
            "ner-build",
            "--sentences",
            str(corpus_dir / "sentences.txt"),
            "--keywords",
            str(keywords),
            "--out",
            str(first),
        ]
    )
    assert code == 0
    second = tmp_path / "second"
    assert run(["replay", "--manifest", str(first / "manifest.json"), "--out", str(second)]) == 0
    for name in ("manifest.json", "train.tsv", "eval.tsv", "train_labels.tsv", "eval_labels.tsv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_replay_rejects_changed_input(tmp_path, fixtures, capsys):
    sentences = tmp_path / "sentences.txt"
    shutil.copy(fixtures / "annotated_train.tsv", tmp_path / "unused")
    sentences.write_text("wear a mask\nmasks help\nfever and cough\n")
    from threadscope import nerdata
    from pathlib import Path

    keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
    out = tmp_path / "out"
    code = run(
        [
            "ner-build",
            "--sentences",
            str(sentences),
            "--keywords",
            str(keywords),
            "--cap",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    sentences.write_text("tampered\n")
    code = run(["replay", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "digest changed" in capsys.readouterr().err


def test_replay_refuses_other_artifact_version(corpus_dir, tmp_path, capsys):
    from threadscope import nerdata
    from pathlib import Path

    keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
    out = tmp_path / "out"
    code = run(
        [
            "ner-build",
            "--sentences",
            str(corpus_dir / "sentences.txt"),
            "--keywords",
            str(keywords),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    path = out / "manifest.json"
    payload = json.loads(path.read_text())
    payload["artifact_version"] -= 1
    path.write_text(json.dumps(payload))
    code = run(["replay", "--manifest", str(path), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("threadscope replay: error: ")
    assert "artifact_version" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "body",
    ["5", '{"artifact_version": 2, "command": "stats", "params": [1], "inputs": [], "seeds": {}}',
     '{"artifact_version": 2, "command": "stats", "params": {}, "inputs": "ab", "seeds": {}}',
     '{"artifact_version": 2, "command": "stats", "params": {}, "inputs": [{"param": 1}], "seeds": {}}',
     '{"artifact_version": "2", "command": "stats", "params": {}, "inputs": [], "seeds": {}}'],
    ids=["not-an-object", "params-list", "inputs-string", "input-mistyped", "version-string"],
)
def test_replay_rejects_mistyped_manifest_with_one_error_line(tmp_path, capsys, body):
    path = tmp_path / "manifest.json"
    path.write_text(body)
    assert run(["replay", "--manifest", str(path), "--out", str(tmp_path / "r")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"threadscope replay: error: {path}: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "params, reason",
    [({"bogus": 1}, "unknown config keys: bogus"),
     ({"cap": "many"}, "config value for 'cap': invalid literal for int()")],
    ids=["unknown-key", "unparsable-value"],
)
def test_replay_rejects_recorded_params_a_run_would_refuse(corpus_dir, tmp_path, capsys, params, reason):
    # the params are the manifest's, so it is a data error, not a usage error
    from threadscope import nerdata

    keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
    out = tmp_path / "out"
    assert run(["ner-build", "--sentences", str(corpus_dir / "sentences.txt"),
                "--keywords", str(keywords), "--out", str(out)]) == 0
    path = out / "manifest.json"
    payload = json.loads(path.read_text())
    payload["params"].update(params)
    path.write_text(json.dumps(payload))
    assert run(["replay", "--manifest", str(path), "--out", str(tmp_path / "r")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"threadscope replay: error: {path}: {reason}")
    assert not (tmp_path / "r").exists()


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _decorated(*words: str) -> st.SearchStrategy[str]:
    """A word with a comma, surrounding whitespace or a leading `-`."""
    return st.tuples(
        st.sampled_from(["", " ", "-", "-,"]),
        st.sampled_from(words),
        st.sampled_from(["", " ", ",home", ", stay "]),
    ).map("".join)


replayed_configs = st.fixed_dictionaries({
    "ingest": st.fixed_dictionaries({
        "keywords": st.lists(_decorated("covid", "mask"), min_size=1, max_size=3) | _decorated("covid"),
        "subreddits": st.none() | st.lists(_decorated("coronavirus", "nyc"), max_size=2),
        "skip-bad-records": st.none() | st.booleans(),
    }),
    "sentiment": st.fixed_dictionaries({
        "entity": _decorated("mask", "covid"),
        "min-tokens": st.none() | st.integers(1, 5) | st.sampled_from(["2", " 4 "]),
        "lexicon": st.none(),
    }),
})


@settings(max_examples=25)
@given(configs=replayed_configs)
@example(configs={
    "ingest": {"keywords": ["covid", "stay,home"], "subreddits": [" coronavirus"], "skip-bad-records": None},
    "sentiment": {"entity": "-mask", "min-tokens": None, "lexicon": None},
})
def test_replay_reproduces_config_driven_runs(fixtures, configs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        window = ["--schema", "native", "--from", "2020-03-01", "--to", "2020-08-31"]
        argvs = {
            "ingest": ["--dump", str(fixtures / "sample_dump.jsonl"), *window],
            "sentiment": ["--docs", str(tmp / "ingest" / "run" / "documents.jsonl")],
        }
        for command, argv in argvs.items():
            cfg = tmp / f"{command}.json"
            cfg.write_text(json.dumps(configs[command]))
            out = tmp / command / "run"
            code, _ = _run_quietly([command, *argv, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            record = out / "manifest.json" if out.is_dir() else out.with_name("run.manifest.json")
            replayed = tmp / f"{command}-replayed"
            code, _ = _run_quietly(["replay", "--manifest", str(record), "--out", str(replayed / "run")])
            assert code == 0
            assert _tree_bytes(replayed) == _tree_bytes(tmp / command)


def test_topics_refuses_an_earlier_run_before_building_a_vocabulary(clean_docs, tmp_path, capsys, monkeypatch):
    from threadscope import topics

    out = tmp_path / "out"
    argv = ["topics", "--docs", str(clean_docs), "--k", "2", "--min-df", "1", "--epochs", "1", "--out", str(out)]
    assert run([*argv, "--corpus-id", "a"]) == 0
    capsys.readouterr()
    before = _tree_bytes(out)

    def unreachable(*args, **kwargs):
        raise AssertionError("vocabulary built for a refused run")

    with monkeypatch.context() as patch:
        patch.setattr(topics, "build_vocabulary", unreachable)
        assert run([*argv, "--corpus-id", "b"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("threadscope topics: error: --out ") and "--force" in line
    assert _tree_bytes(out) == before

    assert run([*argv, "--corpus-id", "b", "--force"]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["b", "manifest.json"]


# ---------------------------------------------------------------- start-up

# Run in a fresh interpreter: argv[1] is the fixtures directory, argv[2] an
# empty directory.  Every command but the two topic ones runs without
# numpy and without dataclasses; the topic model brings them in.
NUMPY_FREE_CHAIN = r"""
import sys
from pathlib import Path

from threadscope import nerdata
from threadscope.cli import run

assert "numpy" not in sys.modules, "import threadscope.cli loaded numpy"
assert "dataclasses" not in sys.modules, "import threadscope.cli loaded dataclasses"
assert "logging" not in sys.modules, "import threadscope.cli loaded logging"
fixtures, tmp = Path(sys.argv[1]), Path(sys.argv[2])
keywords = Path(nerdata.__file__).parent / "data" / "ner_keywords.tsv"
docs, clean = tmp / "corpus" / "documents.jsonl", tmp / "clean.jsonl"
model, mentions = tmp / "model.json", tmp / "mentions.tsv"
commands = [
    ["ingest", "--dump", fixtures / "sample_dump.jsonl", "--schema", "native",
     "--keywords", "covid,mask,quarantine", "--from", "2020-03-01", "--to", "2020-08-31",
     "--out", tmp / "corpus"],
    ["stats", "--docs", docs],
    ["preprocess", "--in", docs, "--out", clean],
    ["ner-build", "--sentences", tmp / "corpus" / "sentences.txt", "--keywords", keywords,
     "--out", tmp / "nerdata"],
    ["ner-train", "--train", fixtures / "annotated_train.tsv", "--iters", "2", "--model", model],
    ["ner-eval", "--model", model, "--eval", fixtures / "annotated_eval.tsv"],
    ["ner-tag", "--model", model, "--docs", docs, "--out", mentions],
    ["sentiment", "--docs", docs, "--entity", "mask", "--out", tmp / "sentiment.tsv"],
    ["report", "--docs", docs, "--mentions", mentions, "--out", tmp / "report"],
]
for argv in commands:
    assert run([str(arg) for arg in argv]) == 0, argv[0]
    assert "numpy" not in sys.modules, f"{argv[0]} loaded numpy"
    assert "dataclasses" not in sys.modules, f"{argv[0]} loaded dataclasses"
topics = ["topics", "--docs", clean, "--k", "2", "--min-df", "1", "--epochs", "1",
          "--out", tmp / "topics"]
assert run([str(arg) for arg in topics]) == 0, "topics"
assert "numpy" in sys.modules
"""


def test_only_the_topic_commands_load_numpy(fixtures, tmp_path):
    import threadscope

    src = str(Path(threadscope.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHAIN, str(fixtures), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
