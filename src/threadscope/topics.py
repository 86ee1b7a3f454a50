"""Vocabulary building with document-frequency thresholds and online
variational Bayes LDA, plus per-document topic assignment, top-word export,
and per-month k=2 side topics.

The E-step/M-step split follows the standard online VB recipe: per
minibatch t the topic-word parameters blend as
lambda <- (1-rho_t) lambda + rho_t lambda_hat with rho_t = (tau0+t)^-kappa.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import _month_of
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
    # every 1/(x+j) in one array, then summed one row at a time, smallest
    # terms first: near the root at 1.4616 the sum cancels against
    # log(x+10), and this order keeps it within rel 1e-12 of scipy.  A
    # reduce over the rows may pair the terms differently.
    terms = np.add.outer(_PSI_STEPS, arr)
    np.divide(1.0, terms, out=terms)
    shift = terms[0]
    for row in terms[1:]:
        shift += row
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
    """Retained terms with dense first-occurrence indices."""

    terms: dict[str, int]
    df: dict[str, int]
    n_docs: int

    @property
    def size(self) -> int:
        return len(self.terms)

    def ordered_terms(self) -> list[str]:
        out = [""] * len(self.terms)
        for term, index in self.terms.items():
            out[index] = term
        return out


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


def _count_matrix(
    terms: dict[str, int], token_lists: Iterable[Sequence[str]]
) -> DocTermMatrix:
    """Count each document's tokens that ``terms`` indexes into one CSR
    matrix, term ids ascending; other tokens are skipped."""
    # typed arrays hold 8 bytes an entry, where a list holds an int object
    ids, cts, ptr = array("q"), array("d"), array("q", [0])
    for tokens in token_lists:
        counts = Counter(map(terms.get, tokens))
        counts.pop(None, None)
        known = sorted(counts)
        ids.extend(known)
        cts.extend(map(counts.__getitem__, known))
        ptr.append(len(ids))
    return DocTermMatrix(
        ids=np.array(ids), cts=np.array(cts), ptr=np.array(ptr), n_terms=len(terms)
    )


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
    kept = (term for term, n in df.items() if n >= min_df and n / n_docs <= max_df)
    terms = {term: index for index, term in enumerate(kept)}
    if not terms:
        raise EmptyVocabularyError(
            f"no term satisfies min_df={min_df}, max_df={max_df} "
            f"over {n_docs} documents"
        )
    vocab = Vocabulary(terms=terms, df={t: df[t] for t in terms}, n_docs=n_docs)
    return vocab, _count_matrix(terms, (doc.split() for doc in cleaned_documents))


@dataclass(frozen=True)
class LdaConfig:
    """Online VB knobs; alpha/eta default to the symmetric 1/k prior."""

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
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive")
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
    vocab: Vocabulary | None = None
    epoch_perplexities: list[float] = field(default_factory=list)
    # per epoch: training E-steps stopped by max_e_iters rather than tol
    epoch_cap_hits: list[int] = field(default_factory=list)


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
    return weighted.sum(axis=1) + 1e-100


# documents per summed chunk: the sstats bincounts and the bound's float
# sums pair values across a chunk's documents, so the chunk fixes the bits
_ESTEP_CHUNK = 32
# documents per batched E-step call; bounds the per-token working arrays.
# Every per-document result depends on its own row alone, so a group cut
# into chunks gives each chunk the bits a call on that chunk would; a
# group must hold a whole number of chunks, or chunk bounds would move
_ESTEP_GROUP = 4 * _ESTEP_CHUNK


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
    max_iters, and leaves the working set with the gamma, exp_elog_theta
    and phinorm of its own last iteration."""
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
    live = np.arange(n_docs)  # batch rows still iterating
    tokens = np.arange(cts.size)  # their tokens' positions in the batch
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
            capped[live[~stop]] = True
            stop[:] = True
        if not stop.any():
            continue
        out_gamma[live[stop]] = gamma[stop]
        out_theta[live[stop]] = theta[stop]
        stop_tokens = np.repeat(stop, lengths)
        out_phinorm[tokens[stop_tokens]] = phinorm[stop_tokens]
        keep, keep_tokens = ~stop, ~stop_tokens
        live, gamma, theta, lengths = live[keep], gamma[keep], theta[keep], lengths[keep]
        tokens = tokens[keep_tokens]
        # compact beta into the scratch rows and reuse the old beta as
        # scratch: both still hold at least the live tokens
        np.compress(keep_tokens, beta, axis=0, out=scratch[: tokens.size])
        beta, scratch = scratch[: tokens.size], beta
        cts, phinorm = cts[keep_tokens], phinorm[keep_tokens]
        if not live.size:
            break
        owner = np.repeat(np.arange(live.size), lengths)
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
    ptr = matrix.ptr
    positions = positions[ptr[positions + 1] > ptr[positions]]
    for first in range(0, positions.size, _ESTEP_GROUP):
        group_positions = positions[first : first + _ESTEP_GROUP]
        starts = ptr[group_positions]
        lengths = ptr[group_positions + 1] - starts
        group_ptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.repeat(starts - group_ptr[:-1], lengths) + np.arange(group_ptr[-1])
        ids, cts = matrix.ids[take], matrix.cts[take]
        step = _estep(
            DocTermMatrix(ids=ids, cts=cts, ptr=group_ptr, n_terms=matrix.n_terms),
            exp_elog_beta,
            config.alpha_value,
            config.mean_change_tol,
            config.max_e_iters,
        )
        for lo in range(0, group_positions.size, _ESTEP_CHUNK):
            docs = slice(lo, lo + _ESTEP_CHUNK)
            chunk_ptr = group_ptr[lo : lo + _ESTEP_CHUNK + 1]
            tokens = slice(chunk_ptr[0], chunk_ptr[-1])
            chunk = DocTermMatrix(
                ids=ids[tokens],
                cts=cts[tokens],
                ptr=chunk_ptr - chunk_ptr[0],
                n_terms=matrix.n_terms,
            )
            yield group_positions[docs], chunk, _EStep(
                gamma=step.gamma[docs],
                exp_elog_theta=step.exp_elog_theta[docs],
                phinorm=step.phinorm[tokens],
                capped=step.capped[docs],
            )


def _add_sstats(sstats: np.ndarray, chunk: DocTermMatrix, step: _EStep) -> None:
    """Add a chunk's exp_elog_theta x cts/phinorm to the sufficient
    statistics, one bincount per topic; exp_elog_beta is applied later."""
    weights = np.repeat(step.exp_elog_theta, chunk.lengths, axis=0)
    weights *= (chunk.cts / step.phinorm)[:, np.newaxis]
    for topic in range(sstats.shape[0]):
        sstats[topic] += np.bincount(
            chunk.ids, weights=weights[:, topic], minlength=sstats.shape[1]
        )


def fit_lda(
    matrix: DocTermMatrix, config: LdaConfig, *, record_perplexity: bool = True
) -> TopicModel:
    """Online variational Bayes with a seeded gamma-distributed lambda
    initialization and per-epoch document shuffling; records the number of
    training E-steps stopped by max_e_iters per epoch and, unless
    ``record_perplexity`` is off, per-epoch training perplexity from the
    variational bound (a full E-step pass over the corpus each)."""
    if matrix.n_docs == 0:
        raise EmptyCorpusError("cannot fit topics on an empty corpus")
    if matrix.n_terms == 0:
        raise EmptyVocabularyError("matrix has no terms")
    k = config.k
    n_docs = matrix.n_docs
    eta = config.eta_value
    batch_size = min(config.batch_size, n_docs)

    rng = np.random.default_rng(config.seed)
    lam = rng.gamma(100.0, 1.0 / 100.0, (k, matrix.n_terms))
    model = TopicModel(lam=lam, config=config)
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(n_docs)
        cap_hits = 0
        for start in range(0, n_docs, batch_size):
            batch = order[start : start + batch_size]
            exp_elog_beta = _exp_elog_beta(lam)
            sstats = np.zeros_like(lam)
            for _, chunk, step in _estep_chunks(matrix, batch, exp_elog_beta, config):
                _add_sstats(sstats, chunk, step)
                cap_hits += int(step.capped.sum())
            sstats *= exp_elog_beta
            lam_hat = eta + (n_docs / len(batch)) * sstats
            rho = learning_rate(config.tau0, config.kappa, t)
            lam = (1 - rho) * lam + rho * lam_hat
            t += 1
        model.lam = lam
        if record_perplexity:
            model.epoch_perplexities.append(perplexity(lam, matrix, config))
        model.epoch_cap_hits.append(cap_hits)
    return model


def _infer(model: TopicModel, matrix: DocTermMatrix) -> list[DocTopics]:
    """E-step with lambda frozen over each document of the matrix; an empty
    document sits at the prior's fixed point, so its probability is
    exactly 1/k."""
    k = model.config.k
    gammas = np.full((matrix.n_docs, k), model.config.alpha_value)
    filled = np.zeros(matrix.n_docs, dtype=bool)
    exp_elog_beta = _exp_elog_beta(model.lam)
    every = np.arange(matrix.n_docs)
    for positions, _, step in _estep_chunks(matrix, every, exp_elog_beta, model.config):
        gammas[positions] = step.gamma
        filled[positions] = True
    inferred = []
    for has_terms, gamma in zip(filled, gammas):
        if not has_terms:
            inferred.append(DocTopics(gamma=gamma, assigned=0, probability=1.0 / k))
            continue
        assigned = int(np.argmax(gamma))
        inferred.append(
            DocTopics(
                gamma=gamma,
                assigned=assigned,
                probability=float(gamma[assigned] / gamma.sum()),
            )
        )
    return inferred


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
    return _infer(model, matrix)[0]


def _dirichlet_ll(values: np.ndarray, prior: float) -> float:
    """Sum over the rows of E[log p(x|prior)] - E[log q(x|values)], one
    Dirichlet per row."""
    totals = values.sum(axis=1)
    score = float(
        ((prior - values) * (digamma(values) - digamma(totals)[:, np.newaxis])).sum()
        + _lgamma(values).sum()
        - _lgamma(totals).sum()
    )
    n_rows, n = values.shape
    return score + n_rows * (math.lgamma(n * prior) - n * math.lgamma(prior))


def _word_ll(elog_beta: np.ndarray, chunk: DocTermMatrix, gamma: np.ndarray) -> float:
    """Sum over a chunk's tokens of count x log sum over topics of
    exp(E[log theta] + E[log beta]), the log-sum-exp taken in place."""
    elog_theta = digamma(gamma) - digamma(gamma.sum(axis=1))[:, np.newaxis]
    joint = elog_beta.T[chunk.ids]
    joint += np.repeat(elog_theta, chunk.lengths, axis=0)
    peak = joint.max(axis=1)
    joint -= peak[:, np.newaxis]
    np.exp(joint, out=joint)
    word_ll = np.log(joint.sum(axis=1))
    word_ll += peak
    return float(chunk.cts @ word_ll)


def variational_bound(
    lam: np.ndarray, matrix: DocTermMatrix, config: LdaConfig
) -> float:
    """Evidence lower bound on the corpus under lambda, with per-document
    gammas re-inferred at the frozen lambda."""
    # a topic row at a time: lgamma boxes every element as a Python float
    score = sum(_dirichlet_ll(row[np.newaxis], config.eta_value) for row in lam)
    elog_beta = digamma(lam) - digamma(lam.sum(axis=1))[:, np.newaxis]
    exp_elog_beta = np.exp(elog_beta)
    every = np.arange(matrix.n_docs)
    for _, chunk, step in _estep_chunks(matrix, every, exp_elog_beta, config):
        score += _word_ll(elog_beta, chunk, step.gamma)
        score += _dirichlet_ll(step.gamma, config.alpha_value)
    return score


def perplexity(lam: np.ndarray, matrix: DocTermMatrix, config: LdaConfig) -> float:
    """exp(-bound / token count); lower is better."""
    total = matrix.total_count()
    if total == 0:
        return float("nan")
    return math.exp(-variational_bound(lam, matrix, config) / total)


def topic_word_distribution(lam: np.ndarray) -> np.ndarray:
    return lam / lam.sum(axis=1, keepdims=True)


def top_words(model: TopicModel) -> list[list[tuple[str, float]]]:
    """Per topic: the config's top_n heaviest terms, descending weight with
    lower-index tiebreak."""
    if model.vocab is None:
        raise ValueError("model has no vocabulary attached")
    n = model.config.top_n
    terms = model.vocab.ordered_terms()
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
    model: TopicModel, documents: Sequence
) -> tuple[list[TopicAssignment], list[int]]:
    """Assign each document its argmax topic and probability; also return
    the per-topic assignment frequencies (zero-filled over all k topics)."""
    if model.vocab is None:
        raise ValueError("model has no vocabulary attached")
    matrix = _count_matrix(
        model.vocab.terms, (doc.cleaned_text.split() for doc in documents)
    )
    assignments: list[TopicAssignment] = []
    frequencies = [0] * model.config.k
    for doc, inferred in zip(documents, _infer(model, matrix)):
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
    """Partition documents by UTC calendar month and fit a fresh k=2 model
    per month with at least min_docs documents, emitting both topics' top
    word lists; thin or vocabulary-free months are reported as skipped."""
    by_month: dict[str, list] = {}
    for doc in documents:
        by_month.setdefault(_month_of(doc.created_utc), []).append(doc)
    results: list[MonthlyTopics] = []
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
        month_config = replace(config, k=2, alpha=None, eta=None)
        # no side model's perplexity is written anywhere
        model = fit_lda(matrix, month_config, record_perplexity=False)
        model.vocab = vocab
        lists = top_words(model)
        results.append(
            MonthlyTopics(month, topics=tuple(tuple(pairs) for pairs in lists))
        )
    return results


def save_topic_model(model: TopicModel, path: str | Path) -> None:
    if model.vocab is None:
        raise ValueError("model has no vocabulary attached")
    config = model.config
    payload = {
        "version": 1,
        "config": {
            "k": config.k,
            "alpha": config.alpha,
            "eta": config.eta,
            "tau0": config.tau0,
            "kappa": config.kappa,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "mean_change_tol": config.mean_change_tol,
            "max_e_iters": config.max_e_iters,
            "seed": config.seed,
            "top_n": config.top_n,
        },
        "vocab": model.vocab.ordered_terms(),
        "df": [model.vocab.df[t] for t in model.vocab.ordered_terms()],
        "n_docs": model.vocab.n_docs,
        "lambda": model.lam.tolist(),
        "epoch_perplexities": [float(p) for p in model.epoch_perplexities],
        "epoch_cap_hits": list(model.epoch_cap_hits),
    }
    # json.dumps, unlike json.dump, runs the C encoder; the bytes are the same
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
