"""The benchmark's tracer takes the filter's input count from
``len(scan)`` after ``corpus.filter_records`` returns, so an ingest must
leave that length at the number of records read for the traced
``kept_ratio`` to mean kept records over records read."""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

from threadscope.cli import run
from threadscope.corpus import DumpScan, FilterSpec, filter_records

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
