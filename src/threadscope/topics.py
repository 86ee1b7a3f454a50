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
from .errors import EmptyCorpusError, EmptyVocabularyError

_lgamma = np.vectorize(math.lgamma, otypes=[float])

# digamma shifts arguments below this up by exactly this much before the
# asymptotic series; a shift of 6 misses scipy by 5.5e-12 relative near 1.4625
_PSI_SHIFT = 10
_PSI_STEPS = np.arange(_PSI_SHIFT - 1, -1, -1, dtype=float)  # j = 9..0


def digamma(x):
    """Digamma for positive arguments, scalar or array: arguments below 10
    are shifted up by exactly 10 through psi(x) = psi(x+10) - sum 1/(x+j),
    j = 0..9, then the Bernoulli asymptotic series is applied."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if (arr <= 0).any():
        raise ValueError("digamma requires positive arguments")
    small = arr < _PSI_SHIFT
    # every 1/(x+j) in one array, then summed over its first axis, smallest
    # terms first: near the root at 1.4616 the sum cancels against
    # log(x+10), and this order keeps it within rel 1e-12 of scipy.  numpy
    # reduces a leading axis one row after another, in order, like a loop
    # over the rows, but a single argument makes the ten terms one
    # contiguous run, which it sums with 8 accumulators; accumulate adds in
    # order at any shape, yet is slower on wide arrays.  A test pins both
    # bit for bit against the loop.
    terms = np.add.outer(_PSI_STEPS, arr)
    np.divide(1.0, terms, out=terms)
    shift = terms.sum(axis=0) if arr.size > 1 else np.add.accumulate(terms)[-1]
    acc = np.where(small, -shift, 0.0)
    arr = np.where(small, arr + _PSI_SHIFT, arr)
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
    return float(acc[0]) if scalar else acc


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


# the corpus and E-step record types are NamedTuples rather than
# dataclasses: two more dataclasses, whose methods are generated when the
# module loads, raised the peak RSS of every CLI run by about 0.6 MB
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

    def total_count(self) -> int:
        return int(self.cts.sum())


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
    overflows there, and the fit's bound would be nan."""

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
        if not 0.5 < self.kappa <= 1:
            raise ValueError("kappa must lie in (0.5, 1]")
        if self.batch_size < 1 or self.epochs < 1 or self.max_e_iters < 1:
            raise ValueError("batch_size, epochs, and max_e_iters must be positive")
        if not 0 < self.mean_change_tol < math.inf:
            raise ValueError("mean_change_tol must be finite and positive")
        if self.top_n < 1:
            raise ValueError("top_n must be positive")

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


def _exp_elog_beta(lam: np.ndarray) -> np.ndarray:
    return np.exp(digamma(lam) - digamma(lam.sum(axis=1))[:, np.newaxis])


def _exp_elog_theta(gamma: np.ndarray) -> np.ndarray:
    """exp(E[log theta]) per row, from one digamma call over the rows and
    their sums."""
    psi = digamma(np.concatenate((gamma, gamma.sum(axis=1, keepdims=True)), axis=1))
    return np.exp(psi[:, :-1] - psi[:, -1:])


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


def _phinorm(
    theta: np.ndarray, beta: np.ndarray, owner: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Per token: sum over topics of its owner document's exp_elog_theta
    times its exp_elog_beta, floored away from zero; scratch holds the
    products."""
    # owner indices are always in range; "clip" lets take write to out
    # without an intermediate copy
    weighted = np.take(theta, owner, axis=0, out=scratch[: owner.size], mode="clip")
    weighted *= beta
    phinorm = _row_sums(weighted)
    phinorm += 1e-100
    return phinorm


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


class _EStep(NamedTuple):
    """Per-document results of one batched E-step, each document's taken
    at its own last iteration."""

    gamma: np.ndarray  # (docs, k)
    exp_elog_theta: np.ndarray  # (docs, k)
    phinorm: np.ndarray  # (tokens,)
    capped: np.ndarray  # (docs,) stopped by max_iters rather than tol


def _estep(
    batch: DocTermMatrix,
    exp_elog_beta: np.ndarray,
    alpha: float,
    tol: float,
    max_iters: int,
) -> _EStep:
    """Iterate gamma for every document of a batch of non-empty rows at
    once.  Each document stops on its own rule, mean |delta gamma| < tol or
    max_iters, and its gamma, exp_elog_theta and phinorm of that iteration
    are stored then.  A stopped document stays in the working set, masked
    so it is never stored again, until stopped documents hold
    _COMPACT_SHARE of its tokens; then the set is compacted.  No other
    row reads a stopped row's values, so when it is compacted changes no
    bit, only how many copies are traded for arithmetic."""
    k = exp_elog_beta.shape[0]
    n_docs = batch.n_docs
    lengths = batch.lengths
    # deterministic start: prior plus an even share of each doc's mass
    mass = np.add.reduceat(batch.cts, batch.ptr[:-1])
    gamma = np.repeat(alpha + mass / k, k).reshape(n_docs, k)
    theta = _exp_elog_theta(gamma)
    beta = exp_elog_beta.T[batch.ids]  # (tokens, k)
    # reused by every iteration, so the loop allocates nothing tokens x k
    scratch = np.empty_like(beta)
    cts = batch.cts
    owner = np.repeat(np.arange(n_docs), lengths)  # each token's gamma row
    starts = batch.ptr[:-1]
    phinorm = _phinorm(theta, beta, owner, scratch)

    out_gamma = np.empty_like(gamma)
    out_theta = np.empty_like(theta)
    out_phinorm = np.empty_like(phinorm)
    capped = np.zeros(n_docs, dtype=bool)
    rows = np.arange(n_docs)  # the working set's batch rows
    tokens = np.arange(cts.size)  # their tokens' positions in the batch
    running = np.ones(n_docs, dtype=bool)  # working rows not yet stopped
    stopped_tokens = 0  # tokens of the working rows that have stopped
    for it in range(1, max_iters + 1):
        last = gamma
        ratio = np.multiply(
            beta, (cts / phinorm)[:, np.newaxis], out=scratch[: cts.size]
        )
        gamma = alpha + theta * np.add.reduceat(ratio, starts, axis=0)
        theta = _exp_elog_theta(gamma)
        phinorm = _phinorm(theta, beta, owner, scratch)
        # the mean, as ndarray.mean computes it, without its Python wrapper
        stop = np.abs(gamma - last).sum(axis=1) / k < tol
        if it == max_iters:
            capped[rows[running & ~stop]] = True
            stop = running.copy()
        else:
            stop &= running
        if not stop.any():
            continue
        out_gamma[rows[stop]] = gamma[stop]
        out_theta[rows[stop]] = theta[stop]
        stop_tokens = np.repeat(stop, lengths)
        out_phinorm[tokens[stop_tokens]] = phinorm[stop_tokens]
        running &= ~stop
        if not running.any():
            break
        stopped_tokens += int(lengths[stop].sum())
        if stopped_tokens < _COMPACT_SHARE * cts.size:
            continue
        keep_tokens = np.repeat(running, lengths)
        rows, gamma, theta, lengths = (
            rows[running], gamma[running], theta[running], lengths[running]
        )
        tokens = tokens[keep_tokens]
        # compact beta into the scratch rows and reuse the old beta as
        # scratch: both still hold at least the running tokens
        np.compress(keep_tokens, beta, axis=0, out=scratch[: tokens.size])
        beta, scratch = scratch[: tokens.size], beta
        cts, phinorm = cts[keep_tokens], phinorm[keep_tokens]
        running = np.ones(rows.size, dtype=bool)
        stopped_tokens = 0
        owner = np.repeat(np.arange(rows.size), lengths)
        starts = np.cumsum(lengths) - lengths
    return _EStep(
        gamma=out_gamma, exp_elog_theta=out_theta, phinorm=out_phinorm, capped=capped
    )


def _estep_chunks(
    matrix: DocTermMatrix,
    positions: np.ndarray,
    exp_elog_beta: np.ndarray,
    config: LdaConfig,
):
    """Run the E-step over the non-empty documents at ``positions``, in
    order, one call per _ESTEP_GROUP of them; yields (positions, the
    sub-matrix, result) for each _ESTEP_CHUNK of a group in turn."""
    for _, chunk_positions, chunk, step in _lockstep_chunks(
        [(matrix, positions, exp_elog_beta)], config
    ):
        yield chunk_positions, chunk, step


def _lockstep_chunks(parts: Sequence[tuple], config: LdaConfig):
    """``_estep_chunks`` for several fits of config.k topics at once, each
    part a (matrix, positions, exp_elog_beta) of its own: call g takes the
    g-th _ESTEP_GROUP of every part that has one.  The parts' tables sit
    side by side in one table, and a part's term ids are offset by its
    first column there, so each token reads its own part's exp_elog_beta.
    Yields (part index, positions, sub-matrix, result) for each
    _ESTEP_CHUNK of each part's group, part by part, call by call; every
    document's result is the one a call of its part alone gives."""
    kept = []
    for matrix, positions, _ in parts:
        ptr = matrix.ptr
        kept.append(positions[ptr[positions + 1] > ptr[positions]])
    tables = [exp_elog_beta for _, _, exp_elog_beta in parts]
    table = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)
    columns = np.cumsum([0, *(t.shape[1] for t in tables)])
    for first in range(0, max(p.size for p in kept), _ESTEP_GROUP):
        groups = []  # (part index, positions, ids, cts, ptr) of each part here
        for index, ((matrix, _, _), positions) in enumerate(zip(parts, kept)):
            group_positions = positions[first : first + _ESTEP_GROUP]
            if not group_positions.size:
                continue
            starts = matrix.ptr[group_positions]
            lengths = matrix.ptr[group_positions + 1] - starts
            group_ptr = np.concatenate(([0], np.cumsum(lengths)))
            take = np.repeat(starts - group_ptr[:-1], lengths) + np.arange(group_ptr[-1])
            groups.append(
                (index, group_positions, matrix.ids[take], matrix.cts[take], group_ptr)
            )
        # the groups one after another, their term ids into the joint table
        token_base = np.cumsum([0, *(ptr[-1] for *_, ptr in groups)])
        step = _estep(
            DocTermMatrix(
                ids=np.concatenate([ids + columns[index] for index, _, ids, _, _ in groups]),
                cts=np.concatenate([cts for _, _, _, cts, _ in groups]),
                ptr=np.concatenate(
                    [[0], *(ptr[1:] + base for (*_, ptr), base in zip(groups, token_base))]
                ),
                n_terms=table.shape[1],
            ),
            table,
            config.alpha_value,
            config.mean_change_tol,
            config.max_e_iters,
        )
        doc_base = 0
        for (index, group_positions, ids, cts, group_ptr), base in zip(groups, token_base):
            for lo in range(0, group_positions.size, _ESTEP_CHUNK):
                chunk_ptr = group_ptr[lo : lo + _ESTEP_CHUNK + 1]
                tokens = slice(chunk_ptr[0], chunk_ptr[-1])
                docs = slice(doc_base + lo, doc_base + lo + chunk_ptr.size - 1)
                chunk = DocTermMatrix(
                    ids=ids[tokens],
                    cts=cts[tokens],
                    ptr=chunk_ptr - chunk_ptr[0],
                    n_terms=parts[index][0].n_terms,
                )
                yield index, group_positions[lo : lo + _ESTEP_CHUNK], chunk, _EStep(
                    gamma=step.gamma[docs],
                    exp_elog_theta=step.exp_elog_theta[docs],
                    phinorm=step.phinorm[base + chunk_ptr[0] : base + chunk_ptr[-1]],
                    capped=step.capped[docs],
                )
            doc_base += group_positions.size


def _add_sstats(sstats: np.ndarray, chunk: DocTermMatrix, step: _EStep) -> None:
    """Add a chunk's exp_elog_theta x cts/phinorm to the sufficient
    statistics, one bincount per topic; exp_elog_beta is applied later."""
    weights = np.repeat(step.exp_elog_theta, chunk.lengths, axis=0)
    weights *= (chunk.cts / step.phinorm)[:, np.newaxis]
    for topic in range(sstats.shape[0]):
        sstats[topic] += np.bincount(
            chunk.ids, weights=weights[:, topic], minlength=sstats.shape[1]
        )


def fit_lda(matrix: DocTermMatrix, config: LdaConfig) -> TopicModel:
    """Online variational Bayes with a seeded gamma-distributed lambda
    initialization and per-epoch document shuffling; records the number of
    training E-steps stopped by max_e_iters and the training perplexity
    from the variational bound (a full E-step pass over the corpus) per
    epoch, whose last pass leaves its gammas in ``doc_gammas``.  A prior
    so large that a sum of the fit overflows a float raises OverflowError,
    where numpy would only warn and go on with infinities."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            (model,) = _fit_lockstep([matrix], config, record_perplexity=True)
    except FloatingPointError as exc:
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
            raise EmptyCorpusError("cannot fit topics on an empty corpus")
        if matrix.n_terms == 0:
            raise EmptyVocabularyError("matrix has no terms")
    k = config.k
    eta = config.eta_value
    rngs = [np.random.default_rng(config.seed) for _ in matrices]
    models = [
        TopicModel(lam=rng.gamma(100.0, 1.0 / 100.0, (k, matrix.n_terms)), config=config)
        for rng, matrix in zip(rngs, matrices)
    ]
    if record_perplexity:
        for model, matrix in zip(models, matrices):
            model.doc_gammas = np.full((matrix.n_docs, k), config.alpha_value)
    for epoch in range(config.epochs):
        batches = []
        for rng, matrix in zip(rngs, matrices):
            order = rng.permutation(matrix.n_docs)
            size = min(config.batch_size, matrix.n_docs)
            batches.append([order[start : start + size] for start in range(0, order.size, size)])
        cap_hits = [0] * len(matrices)
        for r in range(max(map(len, batches), default=0)):
            fits = [i for i, fit_batches in enumerate(batches) if r < len(fit_batches)]
            tables = [_exp_elog_beta(models[i].lam) for i in fits]
            sstats = [np.zeros_like(table) for table in tables]
            parts = [(matrices[i], batches[i][r], table) for i, table in zip(fits, tables)]
            for part, _, chunk, step in _lockstep_chunks(parts, config):
                _add_sstats(sstats[part], chunk, step)
                cap_hits[fits[part]] += int(step.capped.sum())
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
                model.epoch_perplexities.append(
                    perplexity(model.lam, matrix, config, model.doc_gammas)
                )
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
    for _, _, step in _estep_chunks(matrix, np.arange(1), _exp_elog_beta(model.lam), config):
        gamma = step.gamma[0]
    return _doc_topics(gamma, not len(pairs), config.k)


def _dirichlet_ll(values: np.ndarray, prior: float) -> float:
    """Sum over the rows of E[log p(x|prior)] - E[log q(x|values)], one
    Dirichlet per row.  ``math.lgamma``, alone or through ``_lgamma``,
    raises OverflowError past a float's range; it is raised here as the
    FloatingPointError that numpy's own overflow raises under ``fit_lda``."""
    totals = values.sum(axis=1)
    spread = ((prior - values) * (digamma(values) - digamma(totals)[:, np.newaxis])).sum()
    n_rows, n = values.shape
    try:
        of_values, of_totals = _lgamma(values).sum(), _lgamma(totals).sum()
        log_norm = math.lgamma(n * prior) - n * math.lgamma(prior)
    except OverflowError:
        raise FloatingPointError("overflow encountered in lgamma") from None
    return float(spread + of_values - of_totals) + n_rows * log_norm


def _word_ll(elog_beta: np.ndarray, chunk: DocTermMatrix, gamma: np.ndarray) -> float:
    """Sum over a chunk's tokens of count x log sum over topics of
    exp(E[log theta] + E[log beta]), the log-sum-exp taken in place."""
    elog_theta = digamma(gamma) - digamma(gamma.sum(axis=1))[:, np.newaxis]
    joint = elog_beta.T[chunk.ids]
    joint += np.repeat(elog_theta, chunk.lengths, axis=0)
    peak = joint.max(axis=1)
    joint -= peak[:, np.newaxis]
    np.exp(joint, out=joint)
    word_ll = np.log(_row_sums(joint))
    word_ll += peak
    return float(chunk.cts @ word_ll)


def perplexity(
    lam: np.ndarray,
    matrix: DocTermMatrix,
    config: LdaConfig,
    gammas: np.ndarray | None = None,
) -> float:
    """exp(-bound / token count), lower is better, where the bound is the
    evidence lower bound on the corpus under lambda, with per-document
    gammas re-inferred at the frozen lambda; ``gammas``, when given, is
    filled with each non-empty document's gamma at its matrix row."""
    total = matrix.total_count()
    if total == 0:
        return float("nan")
    # a topic row at a time: lgamma boxes every element as a Python float
    score = sum(_dirichlet_ll(row[np.newaxis], config.eta_value) for row in lam)
    elog_beta = digamma(lam) - digamma(lam.sum(axis=1))[:, np.newaxis]
    exp_elog_beta = np.exp(elog_beta)
    every = np.arange(matrix.n_docs)
    for positions, chunk, step in _estep_chunks(matrix, every, exp_elog_beta, config):
        score += _word_ll(elog_beta, chunk, step.gamma)
        score += _dirichlet_ll(step.gamma, config.alpha_value)
        if gammas is not None:
            gammas[positions] = step.gamma
    exponent = -score / total
    try:
        return math.exp(exponent)
    except OverflowError:
        raise OverflowError(
            f"the training perplexity exp({exponent:.6g}) overflows a float"
        ) from None


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
