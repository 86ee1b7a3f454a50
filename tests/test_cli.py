"""In-process CLI tests: exit codes, artifacts, manifests, config merging."""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadscope import manifest
from threadscope.cli import run
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


def test_unknown_flag(capsys):
    assert run(["stats", "--docs", "x.jsonl", "--bogus"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert run(["stats", "--docs", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_threads_rejected(tmp_path, capsys):
    code = run(
        [
            "topics",
            "--docs",
            "x.jsonl",
            "--k",
            "2",
            "--threads",
            "0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "--threads" in capsys.readouterr().err


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


def test_topics_force_with_smaller_k_drops_stale_wordclouds(clean_docs, tmp_path):
    base = ["topics", "--docs", str(clean_docs), "--min-df", "1", "--epochs", "1"]
    base += ["--corpus-id", "fix", "--out", str(tmp_path)]
    topics_dir = tmp_path / "fix" / "topics"
    assert run(base + ["--k", "4"]) == 0
    assert len(list(topics_dir.glob("wordcloud_topic*.tsv"))) == 4
    assert run(base + ["--k", "2", "--force"]) == 0
    clouds = sorted(path.name for path in topics_dir.glob("wordcloud_topic*.tsv"))
    assert clouds == ["wordcloud_topic0.tsv", "wordcloud_topic1.tsv"]


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


def test_failed_rewrite_leaves_no_stale_manifest(corpus_dir, tmp_path, capsys):
    docs = str(corpus_dir / "documents.jsonl")
    out = tmp_path / "stats"
    assert run(["stats", "--docs", docs, "--out", str(out)]) == 0
    (out / "stats.tsv").unlink()
    (out / "stats.tsv").mkdir()  # the rewrite of stats.tsv fails
    assert run(["stats", "--docs", docs, "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()

    report = tmp_path / "mask.tsv"
    sidecar = tmp_path / "mask.tsv.manifest.json"
    argv = ["sentiment", "--docs", docs, "--entity", "mask", "--out", str(report)]
    assert run(argv) == 0
    assert sidecar.exists()
    report.unlink()
    report.mkdir()
    assert run(argv) == 2
    assert not sidecar.exists()


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


def test_runs_with_out_digest_inputs_before_reading_them(corpus_dir, tmp_path, digest_calls, monkeypatch):
    from threadscope import corpus

    real_read = corpus.read_documents

    def read(path):
        digest_calls.append("read")
        return real_read(path)

    monkeypatch.setattr(corpus, "read_documents", read)
    out = tmp_path / "stats"
    assert run(["stats", "--docs", str(corpus_dir / "documents.jsonl"), "--out", str(out)]) == 0
    assert digest_calls == ["digest", "read"]
    assert (out / "manifest.json").exists()


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
