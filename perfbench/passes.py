"""The measurements that run in a worker interpreter after set-up has been
timed (see worker.py): the stage chain, the known-defect probe and input
generation."""

import gc
import hashlib
import json
import logging
import resource
import sys
import time
import traceback
from pathlib import Path

from perfbench.speed import ScaledClock


class SkipCounter(logging.StreamHandler):
    """Counts the dump lines the corpus layer reports skipping, and prints
    every warning to stderr as Python's last-resort handler would."""

    def __init__(self) -> None:
        super().__init__(sys.stderr)
        self.setLevel(logging.WARNING)
        self.skipped = 0

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("skipping line"):
            self.skipped += 1
        super().emit(record)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under path."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def chain(spec: dict) -> dict:
    """Run the stage calls in order, timing each one as measured and
    scaled (speed.ScaledClock), then check every stage's output."""
    from threadscope import cli

    from perfbench.checks import CHECKS
    from perfbench.tracer import Tracer

    counter = SkipCounter()
    logging.getLogger("threadscope").addHandler(counter)
    truth = json.loads(Path(spec["truth"]).read_text(encoding="utf-8"))
    tracer = Tracer() if spec["traced"] else None
    gc.collect()
    if tracer is not None:
        tracer.install()
    records = []
    clock = ScaledClock()
    clock.start()
    raw, scaled = clock.read()
    for stage in spec["stages"]:
        before = counter.skipped
        error = None
        cpu_start = time.process_time()
        try:
            code = cli.run(stage["argv"])
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            code = None
            error = traceback.format_exc(limit=-4)
        cpu = time.process_time() - cpu_start
        raw_end, scaled_end = clock.read()
        records.append({
            "stage": stage["name"], "raw_s": raw_end - raw, "s": scaled_end - scaled,
            "cpu_s": cpu, "rss_mb": _rss_mb(), "code": code, "error": error,
            "skipped": counter.skipped - before,
        })
        raw, scaled = raw_end, scaled_end
    clock.stop()
    peak_rss_mb = _rss_mb()
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        spans = summary.pop("spans")
        summary["functions"].setdefault("corpus.parse_dump", {})["skipped"] = sum(r["skipped"] for r in records)
        Path(spec["trace_out"]).write_text(json.dumps({"spans": spans}), encoding="utf-8")

    for stage, record in zip(spec["stages"], records):
        output = Path(stage["output"])
        record["digest"] = tree_digest(output)
        problems = []
        if record["code"] != 0:
            problems.append(record["error"] or f"exit code {record['code']}")
        else:
            info = {"argv": stage["argv"], "skipped": record["skipped"]}
            try:
                problems = CHECKS[stage["name"]](output, truth, info)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {exc!r}"]
        record["problems"] = problems
    return {"pipeline_s": sum(r["s"] for r in records), "pipeline_raw_s": sum(r["raw_s"] for r in records),
            "peak_rss_mb": peak_rss_mb, "stages": records, "trace": summary}


PROBES = {
    "created_utc=Infinity": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": Infinity, "title": "covid"}',
    "created_utc=1e20": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": 1e20, "title": "covid"}',
    "num_comments=1e400": '{"kind": "post", "id": "bad", "subreddit": "s", "created_utc": 1580000000, "title": "covid", "num_comments": 1e400}',
}


def probe(spec: dict) -> dict:
    """Run ingest --skip-bad-records on one good line plus one known-bad
    line per case; a case that escapes cli.run as an exception is a
    traceback a user would see."""
    from threadscope import cli

    work = Path(spec["out"])
    work.mkdir(parents=True, exist_ok=True)
    good = '{"kind": "post", "id": "ok", "subreddit": "s", "created_utc": 1580000000, "title": "covid news"}'
    outcomes = {}
    for i, (case, line) in enumerate(PROBES.items()):
        dump = work / f"probe{i}.jsonl"
        dump.write_text(f"{good}\n{line}\n", encoding="utf-8")
        argv = ["ingest", "--dump", str(dump), "--schema", "native", "--keywords", "covid",
                "--from", "2020-01-01", "--to", "2020-12-31", "--skip-bad-records",
                "--out", str(work / f"out{i}")]
        try:
            outcomes[case] = f"exit {cli.run(argv)}"
        except Exception as exc:  # the defect under probe
            outcomes[case] = f"traceback {type(exc).__name__}"
    tracebacks = sum(1 for outcome in outcomes.values() if outcome.startswith("traceback"))
    return {"bad_input_tracebacks": tracebacks, "outcomes": outcomes}


def main(mode: str, spec_path: str, setup_times: dict | None) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup_times
    elif mode == "chain":
        result = {**setup_times, **chain(spec)}
    elif mode == "probe":
        result = probe(spec)
    elif mode == "generate":
        from perfbench.workloads import WORKLOADS
        from perfbench.gen import generate

        workload = WORKLOADS[spec["workload"]]
        generate(workload.name, workload.presets[spec["preset"]], spec["seed"], Path(spec["out"]))
        result = {}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
