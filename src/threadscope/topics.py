"""Vocabulary building with document-frequency thresholds and online
variational Bayes LDA, plus per-document topic assignment, top-word export,
and per-month side topics.  A fitted model holds no terms: the vocabulary
it was fit on is passed beside it.

The E-step/M-step split follows the standard online VB recipe: per
minibatch t the topic-word parameters blend as
lambda <- (1-rho_t) lambda + rho_t lambda_hat with rho_t = (tau0+t)^-kappa.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import utc_month
from .errors import EmptyVocabularyError

_lgamma = np.vectorize(math.lgamma, otypes=[float])

# digamma shifts arguments below this up by exactly this much before the
# asymptotic series; a shift of 6 misses scipy by 5.5e-12 relative near 1.4625
_PSI_SHIFT = 10
_PSI_STEPS = np.arange(_PSI_SHIFT - 1, -1, -1, dtype=float)  # j = 9..0


def digamma(x: np.ndarray) -> np.ndarray:
    """Digamma of a float array of positive arguments, as ``_elog`` passes
    them: arguments below 10 are shifted up by exactly 10 through
    psi(x) = psi(x+10) - sum 1/(x+j), j = 0..9, then the Bernoulli
    asymptotic series is applied."""
    if (x <= 0).any():
        raise ValueError("digamma requires positive arguments")
    small = x < _PSI_SHIFT
    # every 1/(x+j) in one array, then summed over its first axis, smallest
    # terms first: near the root at 1.4616 the sum cancels against
    # log(x+10), and this order keeps it within rel 1e-12 of scipy.  numpy
    # reduces a leading axis one row after another, in order, like a loop
    # over the rows, when each row holds more than one value; a test pins
    # it bit for bit against the loop.
    terms = np.add.outer(_PSI_STEPS, x)
    np.divide(1.0, terms, out=terms)
    acc = np.where(small, -terms.sum(axis=0), 0.0)
    arr = np.where(small, x + _PSI_SHIFT, x)
    inv = 1.0 / arr
    y = inv * inv
    # the Bernoulli series by Horner's rule, in place, innermost term first
    tail = y / 12.0
    for coefficient in (691.0 / 32760.0, 1.0 / 132.0, 1.0 / 240.0, 1.0 / 252.0,
                        1.0 / 120.0, 1.0 / 12.0):
        np.subtract(coefficient, tail, out=tail)
        tail *= y
    # acc + log(x) - 0.5/x - tail, evaluated left to right
    acc += np.log(arr)
    inv *= 0.5
    acc -= inv
    acc -= tail
    return acc


@dataclass(frozen=True)
class Vocabulary:
    """Retained terms and their document frequencies, both in index order:
    a term's index is the order of its first occurrence in the corpus."""

    terms: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int

    @property
    def size(self) -> int:
        return len(self.terms)


# the corpus record type is a NamedTuple rather than a dataclass, whose
# methods are generated when the module loads: two such dataclasses raised
# the peak RSS of every CLI run by about 0.6 MB
class DocTermMatrix(NamedTuple):
    """Document-term counts over an n_terms space in CSR form: document d
    holds term ids ids[ptr[d]:ptr[d+1]], ascending, with counts
    cts[ptr[d]:ptr[d+1]]."""

    ids: np.ndarray  # int64
    cts: np.ndarray  # float64
    ptr: np.ndarray  # int64, n_docs + 1 offsets
    n_terms: int

    @property
    def n_docs(self) -> int:
        return self.ptr.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.ptr)


def build_vocabulary(
    cleaned_documents: Sequence[str], max_df: float = 0.90, min_df: int = 3
) -> tuple[Vocabulary, DocTermMatrix]:
    """Whitespace-tokenize cleaned documents and retain terms with
    df >= min_df and df/n_docs <= max_df; both exclusions are strict."""
    n_docs = len(cleaned_documents)
    # one streaming pass: each document's distinct tokens in first-occurrence
    # order, so df's keys are in the corpus' first-occurrence order and no
    # document's token list outlives its own split
    df = Counter(
        chain.from_iterable(dict.fromkeys(doc.split()) for doc in cleaned_documents)
    )
    terms = tuple(term for term, n in df.items() if n >= min_df and n / n_docs <= max_df)
    if not terms:
        raise EmptyVocabularyError(
            f"no term satisfies min_df={min_df}, max_df={max_df} "
            f"over {n_docs} documents"
        )
    vocab = Vocabulary(terms=terms, df=tuple(map(df.__getitem__, terms)), n_docs=n_docs)
    index = {term: i for i, term in enumerate(terms)}
    # each document's retained terms, ascending, in CSR form; typed arrays
    # hold 8 bytes an entry, where a list holds an int object
    ids, cts, ptr = array("q"), array("d"), array("q", [0])
    for doc in cleaned_documents:
        counts = Counter(map(index.get, doc.split()))
        counts.pop(None, None)
        known = sorted(counts)
        ids.extend(known)
        cts.extend(map(counts.__getitem__, known))
        ptr.append(len(ids))
    return vocab, DocTermMatrix(
        ids=np.array(ids), cts=np.array(cts), ptr=np.array(ptr), n_terms=len(terms)
    )


@dataclass(frozen=True)
class LdaConfig:
    """Online VB knobs; alpha/eta default to the symmetric 1/k prior.  A
    prior below the smallest normal float is refused: digamma's 1/x
    overflows there, and the fit's bound would be nan.  So is a tau0 below
    1: the first step rho = tau0^-kappa would exceed 1 and weigh the old
    lambda negatively."""

    k: int
    alpha: float | None = None
    eta: float | None = None
    tau0: float = 15.0
    kappa: float = 0.7
    batch_size: int = 128
    epochs: int = 10
    mean_change_tol: float = 1e-3
    max_e_iters: int = 100
    seed: int = 42
    top_n: int = 15

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        for name in ("alpha", "eta"):
            value = getattr(self, name)
            if value is None:
                continue
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive")
            if value < sys.float_info.min:
                raise ValueError(f"{name} must be at least {sys.float_info.min!r}")
        if not 0 < self.tau0 < math.inf:
            raise ValueError("tau0 must be finite and positive")
        if self.tau0 < 1:
            raise ValueError("tau0 must be at least 1")
        if not 0.5 < self.kappa <= 1:
            raise ValueError("kappa must lie in (0.5, 1]")
        if self.batch_size < 1 or self.epochs < 1 or self.max_e_iters < 1:
            raise ValueError("batch_size, epochs, and max_e_iters must be positive")
        if not 0 < self.mean_change_tol < math.inf:
            raise ValueError("mean_change_tol must be finite and positive")
        if self.top_n < 1:
            raise ValueError("top_n must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def alpha_value(self) -> float:
        return self.alpha if self.alpha is not None else 1.0 / self.k

    @property
    def eta_value(self) -> float:
        return self.eta if self.eta is not None else 1.0 / self.k


@dataclass
class TopicModel:
    lam: np.ndarray
    config: LdaConfig
    epoch_perplexities: list[float] = field(default_factory=list)
    # per epoch: training E-steps stopped by max_e_iters rather than tol
    epoch_cap_hits: list[int] = field(default_factory=list)
    # one gamma row per document of the fitted matrix, from the final
    # perplexity pass, at the final lambda: the bits infer_doc_topics gives
    # the row; an empty document keeps the prior.  None when the fit
    # recorded no perplexity
    doc_gammas: np.ndarray | None = None


@dataclass
class DocTopics:
    gamma: np.ndarray
    assigned: int
    probability: float


def learning_rate(tau0: float, kappa: float, t: int) -> float:
    return (tau0 + t) ** (-kappa)


def _elog(values: np.ndarray) -> np.ndarray:
    """E[log x] under the Dirichlet of each row, psi(x) - psi(row sum),
    from one digamma call over the rows and their sums."""
    psi = digamma(np.concatenate((values, values.sum(axis=1, keepdims=True)), axis=1))
    return psi[:, :-1] - psi[:, -1:]


# numpy sums a contiguous run of up to this many values with 8 accumulators,
# and a longer one in halves
_PAIRWISE_BLOCK = 128


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1), bit for bit, for a C-contiguous 2-D float array with
    no negative zero, taken a column at a time.  numpy sums each row on its
    own: fewer than 8 values in order; up to _PAIRWISE_BLOCK values with
    accumulators r0..r7, where rj adds columns j, j+8, j+16, ... in order,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the tail columns
    are added.  One strided pass a column costs far less than numpy's loop
    call a row when the rows are short and many."""
    n, k = a.shape
    if k > _PAIRWISE_BLOCK:
        return a.sum(axis=1)
    if k < 8:
        out = a[:, 0].copy()
        for j in range(1, k):
            out += a[:, j]
        return out
    blocks = k - k % 8
    # partial sums go to out, y and z; w is needed only when an
    # accumulator spans more than one column
    out, y, z = np.empty(n), np.empty(n), np.empty(n)
    w = np.empty(n) if blocks > 8 else None

    def accumulator(j, buf):
        if blocks == 8:
            return a[:, j]
        np.add(a[:, j], a[:, j + 8], out=buf)
        for column in range(j + 16, blocks, 8):
            buf += a[:, column]
        return buf

    np.add(accumulator(0, out), accumulator(1, y), out=out)
    np.add(accumulator(2, y), accumulator(3, z), out=y)
    out += y
    np.add(accumulator(4, y), accumulator(5, z), out=y)
    np.add(accumulator(6, z), accumulator(7, w), out=z)
    y += z
    out += y
    for column in range(blocks, k):
        out += a[:, column]
    return out


def _theta_and_ratios(
    gamma: np.ndarray, beta: np.ndarray, cts: np.ndarray, owner: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """exp_elog_theta of each gamma row, and per token its count over its
    normalizer: the sum over topics of its owner document's exp_elog_theta
    times its exp_elog_beta, floored away from zero; scratch holds the
    products."""
    theta = np.exp(_elog(gamma))
    # owner indices are always in range; "clip" lets take write to out
    # without an intermediate copy
    weighted = np.take(theta, owner, axis=0, out=scratch[: owner.size], mode="clip")
    weighted *= beta
    phinorm = _row_sums(weighted)
    phinorm += 1e-100
    return theta, cts / phinorm


def _map(
    gamma: np.ndarray, beta: np.ndarray, cts: np.ndarray, owner: np.ndarray,
    starts: np.ndarray, alpha: float, scratch: np.ndarray,
) -> np.ndarray:
    """One fixed-point step of every gamma row: alpha + exp_elog_theta x the
    sum over its document's tokens of exp_elog_beta x count/normalizer."""
    theta, ratios = _theta_and_ratios(gamma, beta, cts, owner, scratch)
    terms = np.multiply(beta, ratios[:, np.newaxis], out=scratch[: cts.size])
    return alpha + theta * np.add.reduceat(terms, starts, axis=0)


# documents per summed chunk: the sstats bincounts and the bound's float
# sums pair values across a chunk's documents, so the chunk fixes the bits
_ESTEP_CHUNK = 32
# documents per batched E-step call, of each fit a lockstep call serves;
# bounds the per-token working arrays.  Every per-document result depends
# on its own row alone, so a group cut
# into chunks gives each chunk the bits a call on that chunk would; a
# group must hold a whole number of chunks, or chunk bounds would move
_ESTEP_GROUP = 4 * _ESTEP_CHUNK
# an E-step's working set is compacted once its stopped documents hold this
# share of its tokens: iterating a few dead rows costs less than copying
# every working array at each stop
_COMPACT_SHARE = 0.25


def _estep(
    beta: np.ndarray,
    cts: np.ndarray,
    lengths: np.ndarray,
    alpha: float,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The driver of _map: iterate it for every document of a batch at
    once, carrying only gamma, given each token's exp_elog_beta row,
    (tokens, k), which the loop overwrites as its scratch; each token's
    count; and each document's token count, none zero, tokens in document
    order.  Returns each document's gamma, (docs, k), and whether max_iters
    rather than tol stopped it, (docs,).  Each document stops on its own
    rule, mean |delta gamma| < tol or max_iters, and its gamma of that
    iteration is stored then.  A stopped document stays in the working
    set, masked so it is never stored again, until stopped documents hold
    _COMPACT_SHARE of its tokens; then the set is compacted.  No other row
    reads a stopped row's values, so when it is compacted changes no bit,
    only how many copies are traded for arithmetic."""
    n_docs, k = lengths.size, beta.shape[1]
    starts = np.cumsum(lengths) - lengths
    # deterministic start: prior plus an even share of each doc's mass
    mass = np.add.reduceat(cts, starts)
    gamma = np.repeat(alpha + mass / k, k).reshape(n_docs, k)
    # reused by every iteration, so the loop allocates nothing tokens x k
    scratch = np.empty_like(beta)
    owner = np.repeat(np.arange(n_docs), lengths)  # each token's gamma row

    out_gamma = np.empty_like(gamma)
    capped = np.zeros(n_docs, dtype=bool)
    rows = np.arange(n_docs)  # the working set's batch rows
    running = np.ones(n_docs, dtype=bool)  # working rows not yet stopped
    stopped_tokens = 0  # tokens of the working rows that have stopped
    for it in range(1, max_iters + 1):
        last = gamma
        gamma = _map(gamma, beta, cts, owner, starts, alpha, scratch)
        # the mean, as ndarray.mean computes it, without its Python wrapper
        stop = np.abs(gamma - last).sum(axis=1) / k < tol
        stop &= running
        if it == max_iters:
            capped[rows[running & ~stop]] = True
            stop = running.copy()
        if not stop.any():
            continue
        out_gamma[rows[stop]] = gamma[stop]
        running &= ~stop
        if not running.any():
            break
        stopped_tokens += int(lengths[stop].sum())
        if stopped_tokens < _COMPACT_SHARE * cts.size:
            continue
        keep_tokens = np.repeat(running, lengths)
        rows, gamma, lengths, cts = rows[running], gamma[running], lengths[running], cts[keep_tokens]
        # compact beta into the scratch rows and reuse the old beta as
        # scratch: both still hold at least the running tokens
        np.compress(keep_tokens, beta, axis=0, out=scratch[: cts.size])
        beta, scratch = scratch[: cts.size], beta
        running = np.ones(rows.size, dtype=bool)
        stopped_tokens = 0
        owner = np.repeat(np.arange(rows.size), lengths)
        starts = np.cumsum(lengths) - lengths
    return out_gamma, capped


def _rows(matrix: DocTermMatrix, positions: np.ndarray) -> DocTermMatrix:
    """The sub-matrix of matrix's rows at positions, in that order."""
    starts = matrix.ptr[positions]
    lengths = matrix.ptr[positions + 1] - starts
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    take = np.repeat(starts - ptr[:-1], lengths) + np.arange(ptr[-1])
    return DocTermMatrix(
        ids=matrix.ids[take], cts=matrix.cts[take], ptr=ptr, n_terms=matrix.n_terms
    )


def _lockstep_chunks(parts: Sequence[tuple], config: LdaConfig):
    """Every E-step of the package: run it over the non-empty documents
    at each part's ``positions``, in order, for one or more fits of
    config.k topics at once, each part a (matrix, positions,
    exp_elog_beta) of its own.  Call g takes the g-th _ESTEP_GROUP of
    every part that has one, each token with its beta row from its own
    part's table.  Yields (part index, positions, sub-matrix, gammas,
    capped) for each _ESTEP_CHUNK of each part's group, part by part,
    call by call; every document's gamma and cap flag are the ones a call
    of its part alone gives."""
    kept = []
    for matrix, positions, _ in parts:
        ptr = matrix.ptr
        kept.append(positions[ptr[positions + 1] > ptr[positions]])
    for first in range(0, max(p.size for p in kept), _ESTEP_GROUP):
        chunks = []  # (part index, positions, sub-matrix) of each chunk of this call
        for index, ((matrix, _, _), positions) in enumerate(zip(parts, kept)):
            group = positions[first : first + _ESTEP_GROUP]
            for lo in range(0, group.size, _ESTEP_CHUNK):
                chunk_positions = group[lo : lo + _ESTEP_CHUNK]
                chunks.append((index, chunk_positions, _rows(matrix, chunk_positions)))
        gammas, capped = _estep(
            np.concatenate([parts[index][2].T[chunk.ids] for index, _, chunk in chunks]),
            np.concatenate([chunk.cts for _, _, chunk in chunks]),
            np.concatenate([chunk.lengths for _, _, chunk in chunks]),
            config.alpha_value,
            config.mean_change_tol,
            config.max_e_iters,
        )
        docs = np.cumsum([0, *(positions.size for _, positions, _ in chunks)])
        for (index, positions, chunk), lo, hi in zip(chunks, docs, docs[1:]):
            yield index, positions, chunk, gammas[lo:hi], capped[lo:hi]


def _add_sstats(
    sstats: np.ndarray, chunk: DocTermMatrix, gamma: np.ndarray, exp_elog_beta: np.ndarray
) -> None:
    """Add a chunk's exp_elog_theta x count/normalizer to the sufficient
    statistics, one bincount per topic; exp_elog_beta is applied later.
    Both factors come from the chunk's gammas through _theta_and_ratios,
    as _map's do: a document's values depend on its own row alone, so
    they are the bits of its last E-step iteration."""
    beta = exp_elog_beta.T[chunk.ids]
    owner = np.repeat(np.arange(chunk.n_docs), chunk.lengths)
    theta, ratios = _theta_and_ratios(gamma, beta, chunk.cts, owner, np.empty_like(beta))
    weights = theta[owner] * ratios[:, np.newaxis]
    for topic in range(sstats.shape[0]):
        sstats[topic] += np.bincount(
            chunk.ids, weights=weights[:, topic], minlength=sstats.shape[1]
        )


def fit_lda(matrix: DocTermMatrix, config: LdaConfig) -> TopicModel:
    """Online variational Bayes with a seeded gamma-distributed lambda
    initialization and per-epoch document shuffling; records the number of
    training E-steps stopped by max_e_iters and the training perplexity
    from the variational bound (a full E-step pass over the corpus) per
    epoch, whose last pass leaves its gammas in ``doc_gammas``.  Every
    float overflow of the fit raises OverflowError with one message: numpy's
    in a sum, where numpy would only warn and go on with infinities, and
    ``math``'s in the bound's log-gamma terms or the perplexity's exp."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            (model,) = _fit_lockstep([matrix], config, record_perplexity=True)
    except (FloatingPointError, OverflowError) as exc:
        message = f"the fit or its training perplexity overflows a float ({exc})"
        raise OverflowError(message) from None
    return model


def _fit_lockstep(
    matrices: Sequence[DocTermMatrix], config: LdaConfig, record_perplexity: bool
) -> list[TopicModel]:
    """``fit_lda`` on each matrix, the fits stepped together: minibatch
    round r of an epoch runs one E-step call over the r-th minibatch of
    every fit that has one.  Each fit keeps its own rng, lambda, learning
    rate counter, 32-document sstats chunks and cap-hit count, so it ends
    with the bits it would end with alone.  Without ``record_perplexity``
    no perplexity pass runs and no gammas are kept."""
    for matrix in matrices:
        if matrix.n_docs == 0:
            raise ValueError("cannot fit topics on an empty corpus")
        if matrix.n_terms == 0:
            raise EmptyVocabularyError("matrix has no terms")
    k = config.k
    eta = config.eta_value
    rngs = [np.random.default_rng(config.seed) for _ in matrices]
    models = [
        TopicModel(lam=rng.gamma(100.0, 1.0 / 100.0, (k, matrix.n_terms)), config=config)
        for rng, matrix in zip(rngs, matrices)
    ]
    for epoch in range(config.epochs):
        batches = []
        for rng, matrix in zip(rngs, matrices):
            order = rng.permutation(matrix.n_docs)
            size = min(config.batch_size, matrix.n_docs)
            batches.append([order[start : start + size] for start in range(0, order.size, size)])
        cap_hits = [0] * len(matrices)
        for r in range(max(map(len, batches), default=0)):
            fits = [i for i, fit_batches in enumerate(batches) if r < len(fit_batches)]
            tables = [np.exp(_elog(models[i].lam)) for i in fits]
            sstats = [np.zeros_like(table) for table in tables]
            parts = [(matrices[i], batches[i][r], table) for i, table in zip(fits, tables)]
            for part, _, chunk, gammas, capped in _lockstep_chunks(parts, config):
                _add_sstats(sstats[part], chunk, gammas, tables[part])
                cap_hits[fits[part]] += int(capped.sum())
            for i, table, stats in zip(fits, tables, sstats):
                stats *= table
                batch = batches[i][r]
                lam_hat = eta + (matrices[i].n_docs / len(batch)) * stats
                # the fit's minibatches before this one, every epoch alike
                t = epoch * len(batches[i]) + r
                rho = learning_rate(config.tau0, config.kappa, t)
                models[i].lam = (1 - rho) * models[i].lam + rho * lam_hat
        for model, matrix, hits in zip(models, matrices, cap_hits):
            if record_perplexity:
                value, model.doc_gammas = perplexity(model.lam, matrix, config)
                model.epoch_perplexities.append(value)
            model.epoch_cap_hits.append(hits)
    return models


def _doc_topics(gamma: np.ndarray, empty: bool, k: int) -> DocTopics:
    """A document's argmax topic and its share of gamma; an empty document
    sits at the prior's fixed point, so its probability is exactly 1/k."""
    if empty:
        return DocTopics(gamma=gamma, assigned=0, probability=1.0 / k)
    assigned = int(np.argmax(gamma))
    return DocTopics(
        gamma=gamma, assigned=assigned, probability=float(gamma[assigned] / gamma.sum())
    )


def infer_doc_topics(model: TopicModel, row: Sequence[tuple[int, int]]) -> DocTopics:
    """E-step for one document, given as (term id, count) pairs, with
    lambda frozen; an empty document sits at the prior's fixed point, so
    its probability is exactly 1/k."""
    pairs = np.array(row, dtype=np.int64).reshape(-1, 2)
    matrix = DocTermMatrix(
        ids=pairs[:, 0],
        cts=pairs[:, 1].astype(float),
        ptr=np.array([0, len(pairs)]),
        n_terms=model.lam.shape[1],
    )
    config = model.config
    gamma = np.full(config.k, config.alpha_value)
    # one chunk, or none for an empty document
    parts = [(matrix, np.arange(1), np.exp(_elog(model.lam)))]
    for _, _, _, gammas, _ in _lockstep_chunks(parts, config):
        gamma = gammas[0]
    return _doc_topics(gamma, not len(pairs), config.k)


def _dirichlet_ll(values: np.ndarray, prior: float) -> float:
    """Sum over the rows of E[log p(x|prior)] - E[log q(x|values)], one
    Dirichlet per row."""
    totals = values.sum(axis=1)
    spread = ((prior - values) * _elog(values)).sum()
    n_rows, n = values.shape
    of_values, of_totals = _lgamma(values).sum(), _lgamma(totals).sum()
    log_norm = math.lgamma(n * prior) - n * math.lgamma(prior)
    return float(spread + of_values - of_totals) + n_rows * log_norm


def _word_ll(elog_beta: np.ndarray, chunk: DocTermMatrix, gamma: np.ndarray) -> float:
    """Sum over a chunk's tokens of count x log sum over topics of
    exp(E[log theta] + E[log beta]), the log-sum-exp taken in place."""
    elog_theta = _elog(gamma)
    joint = elog_beta.T[chunk.ids]
    joint += np.repeat(elog_theta, chunk.lengths, axis=0)
    peak = joint.max(axis=1)
    joint -= peak[:, np.newaxis]
    np.exp(joint, out=joint)
    word_ll = np.log(_row_sums(joint))
    word_ll += peak
    return float(chunk.cts @ word_ll)


def perplexity(
    lam: np.ndarray, matrix: DocTermMatrix, config: LdaConfig
) -> tuple[float, np.ndarray]:
    """exp(-bound / token count), lower is better, where the bound is the
    evidence lower bound on the corpus under lambda, with per-document
    gammas re-inferred at the frozen lambda; returned with those gammas,
    one row per matrix row, an empty document's at the prior.  An empty
    matrix gives nan."""
    gammas = np.full((matrix.n_docs, config.k), config.alpha_value)
    total = int(matrix.cts.sum())
    if total == 0:
        return float("nan"), gammas
    # a topic row at a time: lgamma boxes every element as a Python float
    score = sum(_dirichlet_ll(row[np.newaxis], config.eta_value) for row in lam)
    elog_beta = _elog(lam)
    parts = [(matrix, np.arange(matrix.n_docs), np.exp(elog_beta))]
    for _, positions, chunk, chunk_gammas, _ in _lockstep_chunks(parts, config):
        score += _word_ll(elog_beta, chunk, chunk_gammas)
        score += _dirichlet_ll(chunk_gammas, config.alpha_value)
        gammas[positions] = chunk_gammas
    return math.exp(-score / total), gammas


def topic_word_distribution(lam: np.ndarray) -> np.ndarray:
    return lam / lam.sum(axis=1, keepdims=True)


def top_words(model: TopicModel, vocab: Vocabulary) -> list[list[tuple[str, float]]]:
    """Per topic: the config's top_n heaviest terms of the vocabulary the
    model was fit on, descending weight with lower-index tiebreak."""
    n = model.config.top_n
    terms = vocab.terms
    dist = topic_word_distribution(model.lam)
    out: list[list[tuple[str, float]]] = []
    for topic in range(model.config.k):
        row = dist[topic]
        order = np.lexsort((np.arange(row.size), -row))[:n]
        out.append([(terms[i], float(row[i])) for i in order])
    return out


@dataclass(frozen=True)
class TopicAssignment:
    post_id: str
    topic: int
    probability: float


def assign_topics(
    model: TopicModel, documents: Sequence, fitted: DocTermMatrix
) -> tuple[list[TopicAssignment], list[int]]:
    """Assign each document its argmax topic and probability from the
    fit's ``doc_gammas``; ``fitted`` is the matrix the model was fit on,
    whose rows are the documents in order.  Also return the per-topic
    assignment frequencies (zero-filled over all k topics)."""
    if model.doc_gammas is None:
        raise ValueError("the fit kept no document gammas to assign from")
    k = model.config.k
    assignments: list[TopicAssignment] = []
    frequencies = [0] * k
    for doc, length, gamma in zip(documents, fitted.lengths, model.doc_gammas, strict=True):
        inferred = _doc_topics(gamma, not length, k)
        assignments.append(
            TopicAssignment(
                post_id=doc.post_id,
                topic=inferred.assigned,
                probability=inferred.probability,
            )
        )
        frequencies[inferred.assigned] += 1
    return assignments, frequencies


@dataclass(frozen=True)
class MonthlyTopics:
    """One month's top word lists, or the reason it was skipped."""

    month: str
    reason: str = ""
    topics: tuple[tuple[tuple[str, float], ...], ...] = ()

    @property
    def skipped(self) -> bool:
        return bool(self.reason)


def monthly_side_topics(
    documents: Sequence,
    config: LdaConfig,
    max_df: float = 0.90,
    min_df: int = 3,
    min_docs: int = 5,
) -> list[MonthlyTopics]:
    """Partition documents by UTC calendar month and fit a fresh model of
    ``config`` per month with at least min_docs documents, all months in
    lockstep, emitting every topic's top word list; thin or
    vocabulary-free months are reported as skipped."""
    by_month: dict[str, list] = {}
    for doc in documents:
        by_month.setdefault(utc_month(doc.created_utc), []).append(doc)
    results: list[MonthlyTopics] = []
    fitted: list[tuple[int, Vocabulary, DocTermMatrix]] = []  # result slot, fit inputs
    for month in sorted(by_month):
        docs = by_month[month]
        if len(docs) < min_docs:
            results.append(
                MonthlyTopics(month, f"{len(docs)} documents < min_docs {min_docs}")
            )
            continue
        try:
            vocab, matrix = build_vocabulary(
                [doc.cleaned_text for doc in docs], max_df=max_df, min_df=min_df
            )
        except EmptyVocabularyError as exc:
            results.append(MonthlyTopics(month, str(exc)))
            continue
        fitted.append((len(results), vocab, matrix))
        results.append(MonthlyTopics(month))
    # no side model's perplexity is written anywhere
    models = _fit_lockstep(
        [matrix for _, _, matrix in fitted], config, record_perplexity=False
    )
    for (slot, vocab, _), model in zip(fitted, models):
        lists = top_words(model, vocab)
        results[slot] = MonthlyTopics(
            results[slot].month, topics=tuple(tuple(pairs) for pairs in lists)
        )
    return results


def save_topic_model(model: TopicModel, vocab: Vocabulary, path: str | Path) -> None:
    payload = {
        "version": 1,
        "config": asdict(model.config),
        "vocab": vocab.terms,
        "df": vocab.df,
        "n_docs": vocab.n_docs,
        "lambda": model.lam.tolist(),
        "epoch_perplexities": [float(p) for p in model.epoch_perplexities],
        "epoch_cap_hits": list(model.epoch_cap_hits),
    }
    # json.dumps, unlike json.dump, runs the C encoder; the bytes are the same
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
