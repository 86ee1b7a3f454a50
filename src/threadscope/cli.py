"""Command line front end: one binary, one subcommand per pipeline stage.

Subcommands: ingest, stats, preprocess, ner-build, ner-train, ner-eval,
ner-tag, topics, topics-monthly, sentiment, report, and replay.  Exit
codes: 0 success, 1 usage error, 2 data error.

Handlers compute their artifacts and return them without touching the
disk; `run` passes them to `_write_outputs`, the one place that decides
where artifacts go and in what order.  It writes the artifacts, then the
run's manifest (subcommand, effective parameters, input digests, seeds),
under a temporary sibling name and renames them into place, so one
output location holds one run and a tree is finished exactly when it
has a manifest.  A run that fails before writing leaves its output
location as it was.  Output locations are not recorded: they
must not change the emitted bytes.

Values merge as flags > config file > built-in defaults; the manifest
holds the merged result.  `replay` checks that a manifest's recorded
inputs are unchanged, then merges its recorded params as the config
file, with the new output location as the only flag, and runs the
recorded command on them as any other run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from datetime import date
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from . import corpus, manifest, nerdata, report, sentiment, tagger, textprep
from .errors import ManifestError, OutputLocationError, ThreadscopeError

PROG = "threadscope"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _get_values(self, action: argparse.Action, arg_strings: list[str]) -> object:
        # argparse before Python 3.12 drops the value of `--entity=--` and
        # hands the command an empty list; parse it as the text it is
        if arg_strings == ["--"] and action.option_strings and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


class Param(NamedTuple):
    """One flag: how to parse it, whether it names an input file to
    digest, and whether it belongs in the manifest."""

    flag: str
    kind: str = "str"  # str | int | float | date | csv | flag
    default: object = None
    required: bool = False
    choices: tuple[str, ...] = ()
    help: str = ""
    is_input: bool = False
    recorded: bool = True

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


def _csv(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


# How each Param kind parses its flag's text; config and manifest values
# go through the same parser.  A `flag` takes no text.
_PARSE: dict[str, Callable[[str], object]] = {
    "str": str,
    "int": int,
    "float": float,
    "date": date.fromisoformat,
    "csv": _csv,
}


def _add_to_parser(parser: argparse.ArgumentParser, param: Param) -> None:
    name = f"--{param.flag}"
    if param.kind == "flag":
        parser.add_argument(name, action="store_true", default=None, help=param.help)
    else:
        parser.add_argument(
            name,
            type=_PARSE[param.kind],
            choices=param.choices or None,
            default=None,
            help=param.help,
        )


def _coerce(param: Param, value: object) -> object:
    """Bring a config or manifest value to what a flag would give: a
    `flag` takes a JSON boolean, a `csv` also a list of strings kept item
    by item, `null` is unset, any other list or object is refused, and
    any other value is parsed as its text by the flag's parser."""
    if value is None:
        return None
    if param.kind == "flag":
        if isinstance(value, bool):
            return value
        raise _UsageError(f"config value for {param.flag!r}: expected true or false")
    if param.kind == "csv" and isinstance(value, list):
        if all(isinstance(item, str) for item in value):
            return value
        raise _UsageError(f"config value for {param.flag!r}: expected a list of strings")
    if isinstance(value, (list, dict)):
        raise _UsageError(f"config value for {param.flag!r}: expected a single value")
    try:
        parsed = _PARSE[param.kind](str(value))
        if param.choices and parsed not in param.choices:
            raise ValueError(f"must be one of {', '.join(param.choices)}")
    except ValueError as exc:
        raise _UsageError(f"config value for {param.flag!r}: {exc}") from exc
    return parsed


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"config file {path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise _UsageError(f"config file {path}: expected a JSON object")
    return payload


def _merge(params: tuple[Param, ...], cli: Mapping, config: Mapping) -> dict:
    known = {param.flag for param in params}
    unknown = set(config) - known
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged: dict = {}
    for param in params:
        value = cli.get(param.dest)
        if value is None:
            value = _coerce(param, config.get(param.flag))
        if value is None:
            value = param.default
        if param.required and value is None:
            raise _UsageError(f"the following argument is required: --{param.flag}")
        merged[param.dest] = value
    return merged


# An artifact is its text, or a function that writes it to the given path.
Artifact = str | Callable[[Path], None]
# A directory output maps names under the directory to artifacts; a file
# output is one artifact.
Outputs = Mapping[str, Artifact] | Artifact


class Command(NamedTuple):
    name: str
    help: str
    params: tuple[Param, ...]
    handler: Callable[[dict], Outputs]
    out_flag: str = "out"
    # the handler returns one artifact, written to a file, not a directory
    file_output: bool = False


def _record_manifest(command: Command, merged: Mapping) -> manifest.RunManifest:
    params: dict = {}
    inputs: dict = {}
    seeds: dict = {}
    for param in command.params:
        if not param.recorded:
            continue
        value = merged[param.dest]
        params[param.flag] = value.isoformat() if isinstance(value, date) else value
        if param.is_input and value is not None:
            inputs[param.flag] = value
        if param.flag == "seed" and value is not None:
            seeds["seed"] = value
    return manifest.build_manifest(command.name, params, inputs, seeds)


def _check_out(command: Command, out: Path, inputs: Sequence[str]) -> None:
    """Refuse, before the command runs, an output location whose
    replacement could lose files that no earlier run wrote: one that is or
    holds an input file or the working directory, a non-empty directory
    without a manifest, and an existing file without its
    `<file>.manifest.json`, or any file for a directory output.  A
    directory at a file output is refused too, as the rename that puts
    the file in place would fail only after the command has run."""
    flag = f"--{command.out_flag}"
    where = out.resolve()
    held = {Path(path).resolve(): f"input {path}" for path in inputs}
    held[Path.cwd()] = "the working directory"
    for path, what in held.items():
        if path == where or where in path.parents:
            raise OutputLocationError(f"{flag} {out} holds {what}")
    if out.is_dir():
        if command.file_output:
            raise OutputLocationError(f"{flag} {out} is a directory")
        if any(out.iterdir()) and not (out / manifest.MANIFEST_NAME).exists():
            raise OutputLocationError(
                f"{flag} {out} is a non-empty directory without {manifest.MANIFEST_NAME}"
            )
    elif out.exists():
        if not command.file_output:
            raise OutputLocationError(f"{flag} {out} is not a directory")
        record = out.with_name(out.name + ".manifest.json")
        if not record.exists():
            raise OutputLocationError(f"{flag} {out} is a file without {record.name}")


def _write_artifact(path: Path, artifact: Artifact) -> None:
    if callable(artifact):
        artifact(path)
    else:
        path.write_text(artifact, encoding="utf-8")


def _write_outputs(out: Path, outputs: Outputs, mani: manifest.RunManifest) -> None:
    """Replace ``out`` whole with a run's artifacts and its manifest:
    `manifest.json` inside a directory output, `<name>.manifest.json`
    beside a file output.  Each is written under a temporary sibling name
    first, the manifest last, and then renamed into place, so nothing of
    an earlier run survives beside it and a write that fails leaves no
    manifest that does not describe what is there."""
    out = out.resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    if not isinstance(outputs, Mapping):
        record = out.with_name(out.name + ".manifest.json")
        record.unlink(missing_ok=True)
        try:
            _write_artifact(staging, outputs)
            os.replace(staging, out)
        finally:
            staging.unlink(missing_ok=True)
        manifest.write_manifest(mani, record)
        return
    staging.mkdir()
    try:
        for name, artifact in outputs.items():
            path = staging / name
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_artifact(path, artifact)
        manifest.write_manifest(mani, staging / manifest.MANIFEST_NAME)
        if out.exists():
            old = staging.with_name(staging.name + ".old")
            os.rename(out, old)
            try:
                os.rename(staging, out)
            except OSError:
                os.rename(old, out)
                raise
            shutil.rmtree(old)
        else:
            os.rename(staging, out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _resolve_corpus_id(merged: dict) -> None:
    """Default the corpus id to the documents file's stem, and refuse one
    that would place artifacts outside the output directory."""
    corpus_id = merged["corpus_id"] or Path(merged["docs"]).stem
    if Path(corpus_id).is_absolute() or ".." in Path(corpus_id).parts:
        raise OutputLocationError(
            f"--corpus-id {corpus_id} must be a relative path without '..'"
        )
    merged["corpus_id"] = corpus_id


# ---------------------------------------------------------------- handlers


def _cmd_ingest(p: dict) -> Outputs:
    on_error = "skip" if p["skip_bad_records"] else "raise"
    scan = corpus.DumpScan(p["dump"], p["schema"], on_error=on_error)
    spec = corpus.FilterSpec(
        keywords=tuple(p["keywords"]),
        date_from=p["from"],
        date_to=p["to"],
        subreddits=tuple(p["subreddits"] or ()),
    )
    # Two passes: the filter runs inside the scan, which builds a record
    # only for a kept line and keeps a line index; then the threads the
    # matches name are read again.
    matched = corpus.filter_records(scan, spec)
    threads = {record.thread for record in matched}
    documents = corpus.assemble_documents(scan.reread(threads), matched, spec=spec)
    body_sentences = [
        [textprep.url_free_sentences(body) for body in doc.comment_bodies]
        for doc in documents
    ]
    sentences = corpus.dedup_sentences(
        sentence for bodies in body_sentences for body in bodies for sentence in body
    )
    stats = corpus.corpus_stats(documents, body_sentences)
    return {
        "documents.jsonl": lambda path: corpus.write_documents(documents, path),
        "sentences.txt": "\n".join(sentences) + "\n" if sentences else "",
        "stats.tsv": corpus.stats_table(stats),
    }


def _cmd_stats(p: dict) -> Outputs:
    documents = corpus.read_documents(p["docs"])
    table = corpus.stats_table(corpus.corpus_stats(documents))
    print(table, end="")
    return {"stats.tsv": table}


def _cmd_preprocess(p: dict) -> Outputs:
    # an empty list would run the default stages too, yet record [] in the
    # manifest
    if p["stages"] == []:
        raise ValueError("--stages must name a stage")
    stoplist = textprep.load_stopwords(p["stoplist"]) if p["stoplist"] else None
    # one memo of token surfaces for this run, freed when the handler returns
    pipeline = textprep.CompiledPipeline(
        tuple(p["stages"] or textprep.DEFAULT_STAGES), stoplist
    )
    documents = corpus.read_documents(p["in"])
    for doc in documents:
        textprep.preprocess_document(doc, pipeline)
    return lambda path: corpus.write_documents(documents, path)


def _cmd_ner_build(p: dict) -> Outputs:
    text = Path(p["sentences"]).read_text(encoding="utf-8-sig")  # may start with a BOM
    sentences = [line for line in text.splitlines() if line.strip()]
    spec = nerdata.load_keyword_spec(p["keywords"], cap=p["cap"], match_mode=p["match"])
    train, eval_set = nerdata.build_ner_dataset(
        sentences, spec, split_ratio=p["split"], seed=p["seed"]
    )
    return {
        "train.tsv": lambda path: nerdata.write_annotations(train, path),
        "eval.tsv": lambda path: nerdata.write_annotations(eval_set, path),
        "train_labels.tsv": nerdata.label_counts_table(nerdata.count_labels(train)),
        "eval_labels.tsv": nerdata.label_counts_table(nerdata.count_labels(eval_set)),
    }


def _parse_dropout(raw: str) -> tuple[float, float]:
    start, _, end = raw.partition(":")
    try:
        first = float(start)
        second = float(end) if end else first
    except ValueError as exc:
        raise _UsageError(f"--dropout expects s or s:e, got {raw!r}") from exc
    return first, second


def _cmd_ner_train(p: dict) -> Outputs:
    dropout_start, dropout_end = _parse_dropout(p["dropout"])
    config = tagger.TrainConfig(
        iterations=p["iters"],
        batch_min=p["batch_min"],
        batch_max=p["batch_max"],
        batch_growth=p["batch_growth"],
        dropout_start=dropout_start,
        dropout_end=dropout_end,
        seed=p["seed"],
    )
    train = nerdata.read_annotations(p["train"])
    model = tagger.train_tagger(train, config)
    if model.labels == [nerdata.O_TAG]:
        print(
            f"{PROG} ner-train: warning: {p['train']} has no entity tags; "
            "the model will tag every token O",
            file=sys.stderr,
        )
    return lambda path: tagger.save_model(model, path)


def _eval_table(result: tagger.EvalReport) -> str:
    rows = [*sorted(result.per_category.items()), ("micro", result.micro)]
    return textprep.table(
        ("category", "precision", "recall", "f1"),
        (
            (name, f"{scores.precision:.4f}", f"{scores.recall:.4f}", f"{scores.f1:.4f}")
            for name, scores in rows
        ),
    )


def _cmd_ner_eval(p: dict) -> Outputs:
    model = tagger.load_model(p["model"])
    eval_set = nerdata.read_annotations(p["eval"])
    table = _eval_table(tagger.evaluate_tagger(model, eval_set))
    print(table, end="")
    return {"eval.tsv": table}


def _cmd_ner_tag(p: dict) -> Outputs:
    model = tagger.load_model(p["model"])
    documents = corpus.read_documents(p["docs"])
    return textprep.table(
        report.Mention._fields,
        (
            (doc.post_id, doc.subreddit, doc.created_utc, category, name)
            for doc in documents
            for category, name in tagger.detect_document_entities(model, doc)
        ),
    )


def _lda_config(p: dict, **knobs: object):
    """The fit flags both topic commands take, with a command's own knobs,
    as a topics.LdaConfig."""
    from . import topics  # numpy loads only for the two topic commands

    return topics.LdaConfig(
        batch_size=p["batch_size"], epochs=p["epochs"], seed=p["seed"], top_n=p["top"], **knobs
    )


def _cmd_topics(p: dict) -> Outputs:
    from . import topics

    if not p["force"] and (Path(p["out"]) / manifest.MANIFEST_NAME).exists():
        raise OutputLocationError(
            f"--out {p['out']} holds an earlier run; pass --force to replace it"
        )
    config = _lda_config(
        p, k=p["k"], alpha=p["alpha"], eta=p["eta"], tau0=p["offset"], kappa=p["kappa"]
    )
    documents = corpus.read_documents(p["docs"])
    vocab, matrix = topics.build_vocabulary(
        [doc.cleaned_text for doc in documents], max_df=p["max_df"], min_df=p["min_df"]
    )
    try:
        model = topics.fit_lda(matrix, config)
    except OverflowError as exc:
        # the priors set the range of the bound the perplexity is taken from,
        # and --k sets their default
        raise OverflowError(
            f"{exc}; the priors --eta and --alpha set its range, and --k their default 1/k"
        ) from exc
    if any(model.epoch_cap_hits):
        print(
            f"{PROG} topics: note: E-steps stopped at max_e_iters="
            f"{config.max_e_iters} in epochs: "
            + ", ".join(str(hits) for hits in model.epoch_cap_hits),
            file=sys.stderr,
        )
    assignments, frequencies = topics.assign_topics(model, documents, matrix)
    files = report.export_topic_artifacts(model, vocab, assignments, frequencies)
    base = f"{p['corpus_id']}/topics"
    outputs: dict[str, Artifact] = {f"{base}/{name}": text for name, text in files.items()}
    outputs[f"{base}/model.json"] = lambda path: topics.save_topic_model(model, vocab, path)
    return outputs


def _cmd_topics_monthly(p: dict) -> Outputs:
    from . import topics

    config = _lda_config(p, k=2)
    documents = corpus.read_documents(p["docs"])
    results = topics.monthly_side_topics(
        documents,
        config,
        max_df=p["max_df"],
        min_df=p["min_df"],
        min_docs=p["min_docs"],
    )
    side_topics = textprep.table(
        ("month", "topic", "rank", "term", "weight"),
        (
            (month.month, topic_id, rank, term, f"{weight:.6f}")
            for month in results
            if not month.skipped
            for topic_id, pairs in enumerate(month.topics)
            for rank, (term, weight) in enumerate(pairs, start=1)
        ),
    )
    skipped = textprep.table(
        ("month", "reason"), ((month.month, month.reason) for month in results if month.skipped)
    )
    base = f"{p['corpus_id']}/monthly"
    return {f"{base}/side_topics.tsv": side_topics, f"{base}/skipped.tsv": skipped}


def _cmd_sentiment(p: dict) -> Outputs:
    # the entity is a column of the report, and one of no words would
    # match every sentence
    textprep.check_field("--entity", p["entity"])
    if not p["entity"].split():
        raise ValueError("--entity must contain a word")
    documents = corpus.read_documents(p["docs"])
    lexicon = sentiment.load_lexicon(p["lexicon"])
    result = sentiment.analyze_entity_sentences(
        documents, p["entity"], lexicon, min_tokens=p["min_tokens"]
    )
    table = textprep.table(
        ("entity", "n_pos", "n_neg", "n_neu", "mean_compound"),
        [(*result[:-1], f"{result.mean_compound:.6f}")],
    )
    print(table, end="")
    return table


def _cmd_report(p: dict) -> Outputs:
    # an empty list would trend the top entity per category too, yet record
    # [] in the manifest
    if p["entities"] == []:
        raise ValueError("--entities must name an entity")
    # each entity is a column of the trends table
    for name in p["entities"] or ():
        textprep.check_field("--entities", name)
    documents = corpus.read_documents(p["docs"])
    base = p["corpus_id"]
    buckets = report.weekly_post_counts(documents, p["from"], p["to"])
    outputs = {f"{base}/weekly/weekly_posts.tsv": report.weekly_table(buckets)}

    if p["mentions"]:
        # every entity table counts the posts the weekly table counts
        documents = report.in_window(documents, p["from"], p["to"])
        kept = {doc.post_id for doc in documents}
        mentions = [m for m in report.read_mentions(p["mentions"]) if m.post_id in kept]
        counts = report.counts_from_mentions(mentions)
        tables = report.entity_report(counts, truncate=p["truncate"])
        outputs[f"{base}/entities/entity_counts.tsv"] = report.entity_table(tables)
        outputs[f"{base}/entities/entity_totals.tsv"] = report.entity_totals_table(tables)
        entities = p["entities"] or report.top_entity_per_category(mentions)
        series = report.monthly_entity_trends(documents, entities, mentions)
        outputs[f"{base}/monthly/entity_trends.tsv"] = report.trends_table(series)
    return outputs


def _cmd_replay(p: dict) -> tuple[Command, dict]:
    """Check a recorded manifest and return its command with the values
    to run it on: the recorded params merged as a config file, with the
    new output location as the only flag."""
    recorded = manifest.read_manifest(p["manifest"])
    if recorded.artifact_version != manifest.ARTIFACT_VERSION:
        raise ManifestError(
            f"manifest has artifact_version {recorded.artifact_version!r}; "
            f"this threadscope writes {manifest.ARTIFACT_VERSION}"
        )
    problems = manifest.verify_inputs(recorded)
    if problems:
        raise ManifestError("; ".join(problems))
    if recorded.command not in COMMANDS or recorded.command == "replay":
        raise ManifestError(f"manifest names unknown command {recorded.command!r}")
    command = COMMANDS[recorded.command]
    try:
        merged = _merge(command.params, {command.out_flag: p["out"]}, recorded.params)
    except _UsageError as exc:
        # the recorded params are the manifest's, not the user's
        raise ManifestError(f"{p['manifest']}: {exc}") from exc
    return command, merged


# ------------------------------------------------------------- commands

# the flags of both topic commands; `_lda_config` reads the fit flags
_TOPIC_PARAMS = (
    Param("docs", required=True, is_input=True, help="preprocessed documents file"),
    Param("max-df", kind="float", default=0.90, help="document-frequency ceiling"),
    Param("min-df", kind="int", default=3, help="document-frequency floor"),
    Param("batch-size", kind="int", default=128, help="minibatch size"),
    Param("epochs", kind="int", default=10, help="passes over the documents of a fit"),
    Param("seed", kind="int", default=42, help="initialization/shuffle seed"),
    Param("top", kind="int", default=15, help="keywords per topic"),
    Param("corpus-id", help="artifact directory name; default: docs stem"),
    Param("out", required=True, recorded=False, help="output directory"),
)

COMMANDS: dict[str, Command] = {
    command.name: command
    for command in (
        Command(
            name="ingest",
            help="parse a dump, filter threads, and write the document corpus",
            params=(
                Param("dump", required=True, is_input=True, help="newline-delimited dump file"),
                Param("schema", choices=corpus.SCHEMAS, required=True, help="dump record layout"),
                Param("keywords", kind="csv", required=True, help="comma-separated filter keywords"),
                Param("from", kind="date", required=True, help="start date, YYYY-MM-DD"),
                Param("to", kind="date", required=True, help="end date, YYYY-MM-DD"),
                Param("subreddits", kind="csv", help="restrict to these subreddits"),
                Param("skip-bad-records", kind="flag", default=False, help="log and skip malformed dump lines"),
                Param("out", required=True, recorded=False, help="output directory"),
            ),
            handler=_cmd_ingest,
        ),
        Command(
            name="stats",
            help="print the per-subreddit corpus table",
            params=(
                Param("docs", required=True, is_input=True, help="documents file"),
                Param("out", recorded=False, help="also write stats.tsv here"),
            ),
            handler=_cmd_stats,
        ),
        Command(
            name="preprocess",
            help="run the cleaning pipeline over a documents file",
            params=(
                Param("in", required=True, is_input=True, help="documents file"),
                Param("stoplist", is_input=True, help="custom stopword file"),
                Param("stages", kind="csv", help="pipeline stages, in order"),
                Param("out", required=True, recorded=False, help="output documents file"),
            ),
            handler=_cmd_preprocess,
            file_output=True,
        ),
        Command(
            name="ner-build",
            help="extract keyword sentences into train/eval annotation files",
            params=(
                Param("sentences", required=True, is_input=True, help="one sentence per line"),
                Param("keywords", required=True, is_input=True, help="CATEGORY<TAB>keyword file"),
                Param("cap", kind="int", default=250, help="max sentences per keyword"),
                Param("split", kind="float", default=0.65, help="train fraction"),
                Param("seed", kind="int", default=0, help="shuffle seed"),
                Param("match", choices=(nerdata.PREFIX_MATCH, nerdata.SUBSTRING_MATCH), default=nerdata.PREFIX_MATCH, help="keyword match mode"),
                Param("out", required=True, recorded=False, help="output directory"),
            ),
            handler=_cmd_ner_build,
        ),
        Command(
            name="ner-train",
            help="train the averaged-perceptron tagger",
            params=(
                Param("train", required=True, is_input=True, help="annotation file"),
                Param("iters", kind="int", default=30, help="training epochs"),
                Param("batch-min", kind="int", default=4, help="first batch size"),
                Param("batch-max", kind="int", default=32, help="batch size ceiling"),
                Param("batch-growth", kind="float", default=1.001, help="per-batch compounding factor"),
                Param("dropout", default="0.5", help="feature dropout, s or s:e"),
                Param("seed", kind="int", default=0, help="shuffle/dropout seed"),
                Param("model", required=True, recorded=False, help="output model file"),
            ),
            handler=_cmd_ner_train,
            out_flag="model",
            file_output=True,
        ),
        Command(
            name="ner-eval",
            help="score a tagger on an annotation file",
            params=(
                Param("model", required=True, is_input=True, help="model file"),
                Param("eval", required=True, is_input=True, help="annotation file"),
                Param("out", recorded=False, help="also write eval.tsv here"),
            ),
            handler=_cmd_ner_eval,
        ),
        Command(
            name="ner-tag",
            help="detect entity mentions in a documents file",
            params=(
                Param("model", required=True, is_input=True, help="model file"),
                Param("docs", required=True, is_input=True, help="documents file"),
                Param("out", required=True, recorded=False, help="output mentions file"),
            ),
            handler=_cmd_ner_tag,
            file_output=True,
        ),
        Command(
            name="topics",
            help="fit the online topic model and export its artifacts",
            params=(
                *_TOPIC_PARAMS,
                Param("k", kind="int", required=True, help="number of topics"),
                Param("offset", kind="float", default=15.0, help="learning-rate offset"),
                Param("kappa", kind="float", default=0.7, help="learning-rate decay"),
                Param("alpha", kind="float", help="doc-topic prior; default 1/k"),
                Param("eta", kind="float", help="topic-word prior; default 1/k"),
                Param("force", kind="flag", default=False, recorded=False, help="replace an existing export"),
            ),
            handler=_cmd_topics,
        ),
        Command(
            name="topics-monthly",
            help="fit a k=2 side model per calendar month",
            params=(
                *_TOPIC_PARAMS,
                Param("min-docs", kind="int", default=5, help="skip months with fewer documents"),
            ),
            handler=_cmd_topics_monthly,
        ),
        Command(
            name="sentiment",
            help="score the sentences mentioning one entity",
            params=(
                Param("docs", required=True, is_input=True, help="documents file"),
                Param("entity", required=True, help="entity to search for"),
                Param("lexicon", is_input=True, help="token<TAB>valence file; default shipped"),
                Param("min-tokens", kind="int", default=3, help="drop shorter sentences"),
                Param("out", required=True, recorded=False, help="output report file"),
            ),
            handler=_cmd_sentiment,
            file_output=True,
        ),
        Command(
            name="report",
            help="write weekly, entity, and trend tables",
            params=(
                Param("docs", required=True, is_input=True, help="documents file"),
                Param("mentions", is_input=True, help="mentions file from ner-tag"),
                Param("entities", kind="csv", help="entities to trend; default: top per category"),
                Param("truncate", kind="flag", default=False, help="keep top 3 DIST / top 8 other rows"),
                Param("from", kind="date", help="report range start"),
                Param("to", kind="date", help="report range end"),
                Param("corpus-id", help="artifact directory name; default: docs stem"),
                Param("out", required=True, recorded=False, help="output directory"),
            ),
            handler=_cmd_report,
        ),
        Command(
            name="replay",
            help="re-run a recorded manifest into a fresh output location",
            params=(
                Param("manifest", required=True, is_input=True, recorded=False, help="manifest file"),
                Param("out", required=True, recorded=False, help="new output location"),
            ),
            handler=_cmd_replay,
        ),
    )
}


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="Reddit thread analysis toolkit")
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command in COMMANDS.values():
        sub = subparsers.add_parser(command.name, help=command.help)
        for param in command.params:
            _add_to_parser(sub, param)
        sub.add_argument("--config", default=None, help="JSON file of flag defaults")
    return parser


def _execute(command: Command, merged: dict) -> None:
    """Run a command on its merged values and write what it returns."""
    if "corpus_id" in merged:
        _resolve_corpus_id(merged)
    out = merged[command.out_flag]
    if out is not None:
        inputs = [merged[p.dest] for p in command.params if p.is_input]
        _check_out(command, Path(out), [path for path in inputs if path is not None])
    # the handler checks its flags before it reads an input, and the inputs
    # are digested only after it returns; no output is or holds an input
    outputs = command.handler(merged)
    # a run that writes nothing needs no manifest
    if out is not None:
        _write_outputs(Path(out), outputs, _record_manifest(command, merged))


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    command = COMMANDS[args.command]
    try:
        config = _load_config(vars(args).get("config"))
        merged = _merge(command.params, vars(args), config)
        if command.name == "replay":
            # errors of the replayed run carry its own command's name
            command, merged = command.handler(merged)
        _execute(command, merged)
        return 0
    except _UsageError as exc:
        print(f"{PROG} {command.name}: error: {exc}", file=sys.stderr)
        return 1
    # a numeric flag too large for a float, or an allocation it asks for,
    # is bad input as well
    except (ThreadscopeError, OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"{PROG} {command.name}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
