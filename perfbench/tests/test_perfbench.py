"""Self-tests of the benchmark: generator determinism, that broken
outputs fail their checks, and that every workload runs end to end on the
tiny preset."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, gen  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.workloads import WORKLOADS, chain  # noqa: E402
from threadscope import cli  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    preset = WORKLOADS[name].presets["tiny"]
    gen.generate(name, preset, 7, tmp_path / "a")
    gen.generate(name, preset, 7, tmp_path / "b")
    gen.generate(name, preset, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert (tmp_path / "a" / "dump.jsonl").read_bytes() != (tmp_path / "c" / "dump.jsonl").read_bytes()


def _run_chain(tmp_path, name, until):
    workload = WORKLOADS[name]
    truth = gen.generate(name, workload.presets["tiny"], 3, tmp_path / "in")
    stages = chain(workload, tmp_path / "in", tmp_path / "out", truth)
    for stage in stages:
        assert cli.run(stage.argv) == 0, stage.name
        if stage.name == until:
            return stage, truth
    raise AssertionError(f"{name} has no {until} stage")


def test_truncated_documents_fail_the_ingest_check(tmp_path, capsys):
    stage, truth = _run_chain(tmp_path, "sparse-window", "ingest")
    out = Path(stage.output)
    info = {"argv": stage.argv, "skipped": truth["skipped"]}
    assert checks.check_ingest(out, truth, info) == []
    docs = out / "documents.jsonl"
    lines = docs.read_text(encoding="utf-8").splitlines(keepends=True)
    docs.write_text("".join(lines[:-1]), encoding="utf-8")
    assert checks.check_ingest(out, truth, info)


def test_dropped_mention_row_fails_the_report_check(tmp_path, capsys):
    stage, truth = _run_chain(tmp_path, "entities", "report")
    out = Path(stage.output)
    info = {"argv": stage.argv}
    assert checks.check_report(out, truth, info) == []
    mentions = Path(checks._flag(stage.argv, "--mentions"))
    lines = mentions.read_text(encoding="utf-8").splitlines(keepends=True)
    mentions.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    assert checks.check_report(out, truth, info)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("name,trace", [(n, t) for n in sorted(WORKLOADS) for t in ("0", "1")])
def test_tiny_preset_runs_end_to_end(name, trace):
    proc = _bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace, "--preset", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_a_misnamed_per_layer_metric_is_an_error():
    trace = {"functions": {"topics.digamma": {"calls": 0, "s": 0.0},
                           "corpus.parse_dump": {"calls": 1, "s": 0.1, "records": 5}}}
    assert bench._traced_stat(trace, "topics.digamma", "calls") == 0
    assert bench._traced_stat(trace, "topics.digamma", "anything") == 0  # never called
    assert bench._traced_stat(trace, "corpus.parse_dump", "records") == 5
    with pytest.raises(bench.BenchError):
        bench._traced_stat(trace, "topics.digama", "calls")
    with pytest.raises(bench.BenchError):
        bench._traced_stat(trace, "corpus.parse_dump", "recrods")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "entities", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
