"""Out-of-program tracing: wrap threadscope's public functions from the
benchmark's side, so the program itself carries no tracing code.

Functions at document granularity or coarser get one span per call (name,
start, end, parent span).  Functions called per token, per sentence or per
array keep only a call count and summed time, plus per-call durations
where a percentile is reported; that bounds memory and overhead.  Each
wrapped function is patched wherever it is looked up: in its defining
module and in every threadscope module that imported it by name.  A copy
imported by name is traced under the importing module's name (for example
`sentiment.sentence_matches`, `report.top_words`); its self time still
counts toward the layer that defines it.

Self time is a call's duration minus the time of the wrapped calls made
inside it.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from dataclasses import dataclass, field

MODULES = ("cli", "corpus", "manifest", "textprep", "nerdata", "tagger", "topics", "sentiment", "report")

# One span per call.
SPANS = {
    "cli": ("run",),
    "manifest": ("build_manifest", "write_manifest", "sha256_file"),
    "corpus": ("parse_dump", "filter_records", "assemble_documents", "dedup_sentences",
               "corpus_stats", "stats_table", "write_documents", "read_documents"),
    "textprep": ("preprocess_document",),
    "nerdata": ("load_keyword_spec", "build_ner_dataset", "write_annotations",
                "read_annotations", "count_labels", "label_counts_table"),
    "tagger": ("train_tagger", "evaluate_tagger", "save_model", "load_model",
               "detect_document_entities"),
    "topics": ("build_vocabulary", "fit_lda", "perplexity", "assign_topics",
               "monthly_side_topics", "save_topic_model", "top_words"),
    "sentiment": ("load_lexicon", "analyze_entity_sentences"),
    "report": ("weekly_post_counts", "weekly_table", "counts_from_mentions", "entity_report",
               "entity_table", "entity_totals_table", "monthly_entity_trends", "trends_table",
               "export_topic_artifacts"),
}
# Count and summed time only; True keeps per-call durations for percentiles.
COUNTS = {
    "textprep": {"strip_urls": False, "split_sentences": False, "tokenize": False,
                 "pos_tag": False, "lemmatize": False},
    "nerdata": {"sentence_matches": False},
    "tagger": {"tag_tokens": True, "normalize_entity": False},
    "topics": {"digamma": False, "infer_doc_topics": True},
    "sentiment": {"score_sentence": False},
}


@dataclass
class Stat:
    layer: str  # module that defines the function
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    samples: list | None = None
    extra: dict = field(default_factory=dict)

    def bump(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """Patches the wrapped functions on `install` and restores them on
    `uninstall`; spans and stats stay in memory until `summary`."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index)
        self.stats: dict[str, Stat] = {}
        self._stack: list = []  # frames: [enclosing span index, child time]
        self._patches: list = []
        self._lemmas: set = set()
        self._vocab_inputs: list = []

    # ------------------------------------------------------------ wrapping

    def _stat(self, name: str, layer: str, samples: bool = False) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(layer=layer, samples=[] if samples else None)
        return stat

    def _span_wrapper(self, name: str, layer: str, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        per_stage = name == "cli.run"  # one span name per CLI stage
        fixed = None if per_stage else self._stat(name, layer)

        def wrapper(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if per_stage else name
            stat = fixed or self._stat(span_name, layer)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (span_name, start, end, parent)
                stat.calls += 1
                stat.s += duration
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(stat, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, layer: str, fn, samples: bool, after):
        stack, clock = self._stack, time.perf_counter
        stat = self._stat(name, layer, samples)
        durations = stat.samples

        def wrapper(*args, **kwargs):
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.s += duration
                stat.self_s += duration - frame[1]
                if durations is not None:
                    durations.append(duration)
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(stat, args, result)
            return result

        return wrapper

    # Extra counts, taken after the call returns.  Heavy ones only keep a
    # reference and are computed in `summary`.
    def _after(self, name: str):
        if name == "manifest.sha256_file":
            return lambda stat, args, result: stat.bump("bytes", os.path.getsize(args[0]))
        if name == "corpus.parse_dump":
            return lambda stat, args, result: stat.bump("records", len(result))
        if name == "corpus.filter_records":
            def filter_records(stat, args, result):
                stat.bump("in", len(args[0]))
                stat.bump("kept", len(result))
            return filter_records
        if name == "nerdata.build_ner_dataset":
            return lambda stat, args, result: stat.bump("extracted", len(result[0]) + len(result[1]))
        if name == "tagger.tag_tokens":
            return lambda stat, args, result: stat.bump("tokens", len(args[1]))
        if name == "textprep.lemmatize":
            lemmas = self._lemmas
            return lambda stat, args, result: lemmas.add((args[0].surface, args[0].pos))
        if name == "topics.build_vocabulary":
            inputs = self._vocab_inputs
            return lambda stat, args, result: inputs.append((args[0], result[0].size))
        if name == "topics.monthly_side_topics":
            def monthly(stat, args, result):
                fitted = sum(1 for month in result if not month.skipped)
                stat.bump("months_fitted", fitted)
                stat.bump("months_skipped", len(result) - fitted)
            return monthly
        return None

    def install(self) -> None:
        modules = {name: importlib.import_module(f"threadscope.{name}") for name in MODULES}
        plan = [(m, f, None) for m, fs in SPANS.items() for f in fs]
        plan += [(m, f, keep) for m, fs in COUNTS.items() for f, keep in fs.items()]
        for module, func, keep in plan:
            original = getattr(modules[module], func)
            for where, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    name = f"{where}.{attr}"
                    after = self._after(f"{module}.{func}")
                    if keep is None:
                        wrapper = self._span_wrapper(name, module, original, after)
                    else:
                        wrapper = self._count_wrapper(name, module, original, keep, after)
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Per-function stats, per-layer self time and the span list."""
        lemmatize = self.stats.get("textprep.lemmatize")
        if lemmatize is not None and lemmatize.calls:
            lemmatize.extra["distinct_ratio"] = len(self._lemmas) / lemmatize.calls
        filtered = self.stats.get("corpus.filter_records")
        if filtered is not None and filtered.extra.get("in"):
            filtered.extra["kept_ratio"] = filtered.extra["kept"] / filtered.extra["in"]
        if self._vocab_inputs:
            stat = self.stats["topics.build_vocabulary"]
            for docs, kept in self._vocab_inputs:
                distinct = len({term for doc in docs for term in doc.split()})
                stat.bump("terms", kept)
                stat.bump("df_pruned", distinct - kept)
        durations: dict[str, list] = {}
        for span in self.spans:
            durations.setdefault(span[0], []).append(span[2] - span[1])
        layers: dict[str, float] = {}
        functions = {}
        for name, stat in sorted(self.stats.items()):
            layers[stat.layer] = layers.get(stat.layer, 0.0) + stat.self_s
            samples = stat.samples if stat.samples is not None else durations.get(name, [])
            functions[name] = {"layer": stat.layer, "calls": stat.calls, "s": stat.s,
                               "self_s": stat.self_s, **percentiles(samples), **stat.extra}
        return {"functions": functions, "layers": layers, "spans": self.spans}


def percentiles(samples: list) -> dict:
    """p50 plus the highest of p99.9/p99/p95/p90/p75 with at least ten
    samples above it; times in ms, with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n}
    if not n:
        return out
    out["p50_ms"] = ordered[(n - 1) // 2] * 1000
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - pct / 100) >= 10:
            index = math.ceil(n * pct / 100) - 1  # nearest rank
            out["tail"] = f"p{pct:g}"
            out["tail_ms"] = ordered[index] * 1000
            break
    return out
