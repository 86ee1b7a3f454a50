"""The benchmark's tracer takes the filter's input count from
``len(scan)`` after ``corpus.filter_records`` returns, so an ingest must
leave that length at the number of records read for the traced
``kept_ratio`` to mean kept records over records read.  Its
``textprep.lemmatize`` count means distinct surfaces only while the
compiled pipeline calls the module's ``lemmatize`` once per surface."""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

from threadscope import textprep
from threadscope.cli import run
from threadscope.corpus import DumpScan, FilterSpec, filter_records, read_documents

sys.path.append(str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import Tracer  # noqa: E402


def test_traced_filter_counts_the_records_read_and_kept(tmp_path, fixtures):
    dump = tmp_path / "dump.jsonl"
    lines = (fixtures / "sample_dump.jsonl").read_text(encoding="utf-8").splitlines()
    dump.write_text("\n".join([*lines, "", "{broken"]) + "\n", encoding="utf-8")
    scan = DumpScan(dump, "native", on_error="skip")
    spec = FilterSpec(("testing", "mask"), date(2020, 3, 1), date(2020, 5, 31))
    matched = filter_records(scan, spec)
    records = len(scan)
    assert records == len(list(scan))
    assert 0 < len(matched) < records < len(lines) + 2

    tracer = Tracer()
    tracer.install()
    try:
        code = run([
            "ingest", "--dump", str(dump), "--schema", "native", "--keywords", "testing,mask",
            "--from", "2020-03-01", "--to", "2020-05-31", "--skip-bad-records",
            "--out", str(tmp_path / "out"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    stats = tracer.summary()["functions"]["corpus.filter_records"]
    assert stats["calls"] == 1
    assert (stats["in"], stats["kept"]) == (records, len(matched))
    assert stats["kept_ratio"] == len(matched) / records


def test_traced_preprocess_lemmatizes_each_distinct_surface_once(tmp_path, fixtures):
    corpus_dir = tmp_path / "corpus"
    assert run([
        "ingest", "--dump", str(fixtures / "sample_dump.jsonl"), "--schema", "native",
        "--keywords", "testing,mask,vaccine", "--from", "2020-01-01", "--to", "2020-12-31",
        "--out", str(corpus_dir),
    ]) == 0
    docs = corpus_dir / "documents.jsonl"
    documents = read_documents(docs)
    stoplist = textprep.load_stopwords(None)
    # the surfaces the default stages carry to lemmatize: every distinct
    # token that is no stopword and keeps a character once digits go
    surfaces = {
        token
        for doc in documents
        for sentence in textprep.split_sentences(textprep.strip_urls(doc.raw_text))
        for token in textprep.tokenize(sentence)
        if token.lower() not in stoplist and textprep._strip_digits(token)
    }
    assert surfaces

    tracer = Tracer()
    tracer.install()
    try:
        code = run(["preprocess", "--in", str(docs), "--out", str(tmp_path / "clean.jsonl")])
    finally:
        tracer.uninstall()
    assert code == 0
    functions = tracer.summary()["functions"]
    assert functions["textprep.lemmatize"]["calls"] == len(surfaces)
    assert functions["textprep.strip_urls"]["calls"] == len(documents)
