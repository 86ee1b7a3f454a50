"""threadscope pipeline benchmark.

    python3 perfbench/run.py --workload topics-k10 --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed (cached under .perfbench_work/
and verified by digest; generation is outside every metric), runs the
known-defect probe, then repeats full passes over the workload's CLI stage
chain for --seconds, each pass in a fresh interpreter.  With --trace 0
every pass is untraced and the end-to-end metrics are reported; with
--trace 1 untraced and traced passes alternate and the per-layer metrics
are reported.  Times in the JSON are scaled to a host of fixed speed
(speed.py); the report prints the measured pipeline and set-up times
beside them.  Every stage call's output is checked; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exits 2 without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.tracer import MODULES  # noqa: E402
from perfbench.workloads import WORKLOADS, chain  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 15  # fresh interpreters timed per run for setup_s
KEEP_INPUTS = 3  # cached input sets kept per workload
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Stage times the report prints per workload, beside the end-to-end metrics.
STAGE_METRICS = {
    "ingest_s": "ingest", "preprocess_s": "preprocess", "ner_build_s": "ner-build",
    "ner_train_s": "ner-train", "ner_tag_s": "ner-tag", "sentiment_s": "sentiment",
    "topics_s": "topics", "topics_monthly_s": "topics-monthly",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------------ inputs


def _source_key() -> str:
    digest = hashlib.sha256()
    for name in ("gen.py", "workloads.py"):
        digest.update((ROOT / "perfbench" / name).read_bytes())
    return digest.hexdigest()[:12]


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.name != "digests.json"}


def ensure_inputs(run, workload, preset: str, seed: int) -> tuple[Path, dict]:
    """Generated inputs for (workload, preset, seed), reused when their
    recorded digests still match."""
    cache = WORK / "inputs"
    target = cache / f"{workload.name}-{preset}-{seed}-{_source_key()}"
    record = target / "digests.json"
    if not (record.exists() and json.loads(record.read_text()) == _digests(target)):
        shutil.rmtree(target, ignore_errors=True)
        run({"mode": "generate", "workload": workload.name, "preset": preset, "seed": seed, "out": str(target)})
        record.write_text(json.dumps(_digests(target), indent=1))
    os.utime(target)
    older = sorted(cache.glob(f"{workload.name}-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in older[KEEP_INPUTS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target, json.loads((target / "truth.json").read_text())


# ----------------------------------------------------------------- workers


class Runner:
    """Starts worker interpreters one at a time and waits for each."""

    def __init__(self, run_dir: Path, started: float):
        self.run_dir = run_dir
        self.started = started
        self.count = 0
        self.log = run_dir / "worker.log"
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            PYTHONHASHSEED="0",
            # one thread: the pipeline is single-threaded by design
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        )

    def __call__(self, spec: dict) -> dict:
        self.count += 1
        spec = dict(spec, result=str(self.run_dir / f"result{self.count}.json"))
        spec_path = self.run_dir / f"spec{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before a worker could start")
        with open(self.log, "a", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "perfbench.worker", spec["mode"], str(spec_path)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=log, timeout=remaining,
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"worker {spec['mode']} timed out") from exc
        result = Path(spec["result"])
        if proc.returncode != 0 or not result.exists():
            tail = self.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"worker {spec['mode']} exited {proc.returncode}:\n{tail}")
        return json.loads(result.read_text())


# ------------------------------------------------------------- measuring


def measure(args, run, workload, inputs: Path, truth: dict) -> dict:
    """The probe, then passes until --seconds is used up (two at least
    when tracing, one of each kind), then set-up samples to make up
    SETUP_SAMPLES."""
    probe = run({"mode": "probe", "out": str(run.run_dir / "probe")})
    out = run.run_dir / "out"
    stages = [vars(stage) for stage in chain(workload, inputs, out, truth)]
    passes: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        trace_out = WORK / "traces" / f"{workload.name}-seed{args.seed}-pass{len(passes)}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        result = run({"mode": "chain", "traced": traced, "stages": stages,
                      "truth": str(inputs / "truth.json"), "trace_out": str(trace_out)})
        result["traced"] = traced
        passes.append(result)
        elapsed = time.perf_counter() - loop_start
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    shutil.rmtree(out, ignore_errors=True)
    setup = [{k: p[k] for k in ("setup_s", "setup_raw_s")} for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run({"mode": "setup"}))
    return {"probe": probe, "passes": passes, "setup": setup}


def judge(passes: list) -> tuple[int, int, list]:
    """Attempted and failed stage calls; a call fails on a non-zero exit,
    an exception, a failed output check, or output bytes that differ from
    the first pass's."""
    attempted = failed = 0
    problems = []
    first = passes[0]["stages"]
    for index, result in enumerate(passes):
        for position, record in enumerate(result["stages"]):
            attempted += 1
            issues = list(record["problems"])
            if record["digest"] != first[position]["digest"]:
                issues.append("output bytes differ from the first pass")
            if issues:
                failed += 1
                problems.append(f"pass {index} {record['stage']}: {'; '.join(issues)}")
    return attempted, failed, problems


def stage_times(result: dict) -> dict:
    """Seconds per stage name within one pass (repeated stages summed)."""
    times: dict[str, float] = {}
    for record in result["stages"]:
        times[record["stage"]] = times.get(record["stage"], 0.0) + record["s"]
    return times


def end_to_end(measured: dict) -> dict:
    untraced = [p for p in measured["passes"] if not p["traced"]]
    stages = [stage_times(p) for p in untraced]
    values = {
        "setup_s": median([s["setup_s"] for s in measured["setup"]]),
        "pipeline_s": median([p["pipeline_s"] for p in untraced]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
    }
    for metric, stage in STAGE_METRICS.items():
        if stage in stages[0]:
            values[metric] = median([s[stage] for s in stages])
    values["pipeline_raw_s"] = median([p["pipeline_raw_s"] for p in untraced])
    values["setup_raw_s"] = median([s["setup_raw_s"] for s in measured["setup"]])
    return values


def _traced_stat(trace: dict, function: str, key: str) -> float:
    """One stat of a traced function; 0 when the function was wrapped but
    never called.  A function or stat that the tracer never recorded is a
    misnamed metric, not a zero."""
    if function not in trace["functions"]:
        raise BenchError(f"per-layer metric names an untraced function {function!r}")
    stats = trace["functions"][function]
    if key not in stats and stats["calls"]:
        raise BenchError(f"the tracer records no {key!r} for {function!r}")
    return stats.get(key, 0)


def per_layer(measured: dict, names: list) -> dict:
    """Each named per-layer metric: the median over traced passes of a
    traced function's stat (`<module>.<function>.<stat>`) or of a layer's
    self time and share (`<layer>.self_s`, `<layer>.self_share`), or a
    process figure of the untraced passes (`<stage>.cpu_s`,
    `<stage>.rss_mb`, `pipeline.cpu_s`)."""
    untraced = [p for p in measured["passes"] if not p["traced"]]
    traced = [p["trace"] for p in measured["passes"] if p["traced"]]
    stages = {r["stage"] for r in untraced[0]["stages"]}
    values = {}
    for name in names:
        head, _, key = name.rpartition(".")
        if name == "trace.overhead_ratio":
            value = median([p["pipeline_s"] for p in measured["passes"] if p["traced"]]) / median(
                [p["pipeline_s"] for p in untraced]) - 1
        elif name == "corpus.bad_input_tracebacks":
            value = measured["probe"]["bad_input_tracebacks"]
        elif name == "pipeline.cpu_s":
            value = median([sum(r["cpu_s"] for r in p["stages"]) for p in untraced])
        elif head in stages and key == "cpu_s":
            value = median([sum(r["cpu_s"] for r in p["stages"] if r["stage"] == head) for p in untraced])
        elif head in stages and key == "rss_mb":
            value = median([max(r["rss_mb"] for r in p["stages"] if r["stage"] == head) for p in untraced])
        elif head in MODULES and key == "self_s":
            value = median([t["layers"][head] for t in traced])
        elif head in MODULES and key == "self_share":
            value = median([t["layers"][head] / sum(t["layers"].values()) for t in traced])
        else:
            value = median([_traced_stat(t, head, key) for t in traced])
        values[name] = value
    return values


# --------------------------------------------------------------- reporting


def print_end_to_end(workload, values: dict, measured: dict, failed_frac: float) -> None:
    n = sum(1 for p in measured["passes"] if not p["traced"])
    print(f"# {workload.name}: end-to-end, tracing off (median of {n} passes; "
          f"setup_s median of {len(measured['setup'])} fresh interpreters)")
    for name, value in values.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        note = "  (as measured; the other times are scaled)" if name.endswith("_raw_s") else ""
        print(f"  {name:<18} {value:12.4f} {unit}{note}")
    print(f"  {'failed_frac':<18} {failed_frac:12.4f} ratio")


def print_trace(workload, measured: dict) -> None:
    traced = [p for p in measured["passes"] if p["traced"]]
    last = traced[-1]["trace"]
    total = sum(last["layers"].values())
    print(f"# {workload.name}: traced pass ({len(traced)} traced; the table is the last one)")
    print(f"  {'layer':<10} {'self_s':>10} {'share':>7}")
    for layer, self_s in sorted(last["layers"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {self_s:10.4f} {self_s / total:7.1%}")
    print(f"  {'function':<40} {'calls':>9} {'s':>9} {'self_s':>9}  percentiles and counts")
    for name, f in sorted(last["functions"].items()):
        if not f.get("calls"):
            continue
        extra = {k: v for k, v in f.items() if k not in ("layer", "calls", "s", "self_s", "n", "p50_ms", "tail", "tail_ms")}
        pct = ""
        if f.get("n"):
            pct = f"p50 {f['p50_ms']:.3f} ms"
            if "tail" in f:
                pct += f", {f['tail']} {f['tail_ms']:.3f} ms"
            pct += f" (n={f['n']})"
        print(f"  {name:<40} {f['calls']:9d} {f['s']:9.4f} {f['self_s']:9.4f}  {pct} {extra or ''}".rstrip())


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills the running worker and
    # the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "threadscope" / "cli.py").is_file():
        print(f"perfbench: no threadscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = Runner(run_dir, time.perf_counter())
        inputs, truth = ensure_inputs(run, workload, args.preset, args.seed)
        measured = measure(args, run, workload, inputs, truth)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
        values = (per_layer(measured, [m["name"] for m in declared]) if args.trace
                  else end_to_end(measured))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems = judge(measured["passes"])
    failed_frac = failed / attempted
    for problem in problems:
        print(f"FAILED {problem}")
    probe = measured["probe"]
    print(f"# known-defect probe: corpus.bad_input_tracebacks={probe['bad_input_tracebacks']} {probe['outcomes']}")
    digests = [hashlib.sha256("".join(r["digest"] for r in p["stages"]).encode()).hexdigest()[:16]
               for p in measured["passes"]]
    print(f"# output tree digest per pass: {' '.join(digests)}")
    if args.trace:
        print_trace(workload, measured)
    else:
        print_end_to_end(workload, values, measured, failed_frac)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
