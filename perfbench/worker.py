"""One measurement in a fresh interpreter, run as
`python3 -m perfbench.worker MODE SPEC.json` by run.py.

Modes:
  setup     time the import and data-file loads only
  chain     set up, then run the stage chain, untraced or traced, and check
            every stage's output
  probe     feed ingest the dump values known to crash it and count the
            tracebacks
  generate  write a workload's inputs (here, so the parent process stays
            small: a child inherits its parent's peak RSS through fork)

Set-up is timed before anything else is imported: this module and speed.py
import only `sys` and `time`, and the rest of the measurement (passes.py) is loaded
after it.  So `setup_s` starts from an interpreter that holds only what
`python -m` loads, as a user's CLI call does.

Times are reported as measured and scaled to a host of fixed speed
(speed.py).
"""

import sys
import time

from perfbench.speed import LOAD_REFERENCE_S, load_reference_s, scale


def setup() -> float:
    """Import the CLI and load every shipped data file once, as the first
    call of a CLI process does; returns the seconds taken."""
    start = time.perf_counter()
    from threadscope import cli, nerdata, sentiment, textprep  # noqa: F401

    # The default cleaning pipeline loads stopwords, lemma rules,
    # abbreviations, closed class, verb stems and url patterns.
    textprep.preprocess_text("Warm up the data files. See https://example.org now.")
    sentiment.load_lexicon()
    from importlib import resources

    nerdata.load_keyword_spec(resources.files("threadscope.data") / "ner_keywords.tsv")
    return time.perf_counter() - start


def timed_setup() -> dict:
    before = load_reference_s()
    raw = setup()
    after = load_reference_s()
    return {"setup_raw_s": raw, "setup_s": scale(raw, before, after, LOAD_REFERENCE_S)}


if __name__ == "__main__":
    mode, spec_path = sys.argv[1:]
    setup_times = timed_setup() if mode in ("setup", "chain") else None
    from perfbench import passes

    passes.main(mode, spec_path, setup_times)
