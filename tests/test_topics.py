"""Tests for vocabulary thresholds, online VB fitting, and topic outputs."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings
from itertools import islice

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from threadscope.corpus import Document, utc_month, write_documents
from threadscope.errors import EmptyVocabularyError
from threadscope import cli, topics
from threadscope.topics import (
    DocTermMatrix,
    LdaConfig,
    TopicModel,
    Vocabulary,
    assign_topics,
    build_vocabulary,
    digamma,
    fit_lda,
    infer_doc_topics,
    learning_rate,
    monthly_side_topics,
    perplexity,
    save_topic_model,
    top_words,
    topic_word_distribution,
)

# digamma's positive zero sits near 1.4616; relative error is meaningless
# in a small window around it, so the check switches to absolute there
ROOT_LO, ROOT_HI = 1.46, 1.4625


def assert_digamma_close(x):
    # in a row of k + 1 = 3 values, as ``_elog`` passes them
    ours = digamma(np.full((1, 3), x))
    ref = np.full((1, 3), scipy.special.digamma(x))
    if ROOT_LO < x < ROOT_HI:
        assert ours == pytest.approx(ref, abs=1e-12)
    else:
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_digamma_spot_values():
    # 1.4625166875 and 1.4625439 sit just above the absolute-tolerance
    # window, where the cancellation against log(x) is worst; an upward
    # recurrence one step at a time misses scipy at the first by 1.08e-12
    for x in (1e-8, 1e-3, 0.1, 0.5, 1.0, 1.4616, 1.4625166875, 1.4625439,
              2.5, 9.99, 10.0, 100.0, 1e6):
        assert_digamma_close(x)


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_digamma_matches_scipy(x):
    assert_digamma_close(x)


def test_digamma_vectorized():
    xs = np.array([[0.5, 1.0, 2.5, 42.0]])
    assert digamma(xs) == pytest.approx(scipy.special.digamma(xs), rel=1e-12)


def _reference_digamma(x):
    """digamma as it was written before its shift terms were built in one
    array: the same arithmetic, one array operation per shift step."""
    small = x < 10
    shift = np.zeros_like(x)
    for j in range(9, -1, -1):
        shift += 1.0 / (x + j)
    acc = np.where(small, -shift, 0.0)
    arr = np.where(small, x + 10, x)
    inv = 1.0 / arr
    y = inv * inv
    tail = y * (
        1.0 / 12.0
        - y
        * (
            1.0 / 120.0
            - y
            * (
                1.0 / 252.0
                - y
                * (
                    1.0 / 240.0
                    - y * (1.0 / 132.0 - y * (691.0 / 32760.0 - y / 12.0))
                )
            )
        )
    )
    return acc + np.log(arr) - 0.5 * inv - tail


# as ``_elog`` passes them: a row per document or topic, k + 1 >= 3 values
_DIGAMMA_SHAPES = st.tuples(st.integers(1, 40), st.integers(3, 12))


@given(st.data())
def test_digamma_is_bit_identical_to_the_reference(data):
    shape = data.draw(_DIGAMMA_SHAPES)
    size = math.prod(shape)
    values = data.draw(
        st.lists(st.floats(min_value=1e-300, max_value=1e6), min_size=size, max_size=size)
    )
    x = np.array(values).reshape(shape)
    ours, ref = digamma(x), _reference_digamma(x)
    assert ours.shape == ref.shape == shape
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


def test_digamma_shift_sum_is_the_row_by_row_loop():
    # digamma sums its shift terms with one reduce over their first axis;
    # near digamma's root the order of that sum matters, and this pins it
    # to adding the rows one after another, j = 9 down to 0.  Every size
    # from 3 to 300, sizes around numpy's 8192-element buffer up to
    # 20,000, and 2-D shapes as the E-step passes them
    rng = np.random.default_rng(11)
    sizes = [*range(3, 301), 1000, 4095, 4096, 4097, 8191, 8192, 8193, 16384, 20000]
    for shape in [(1, n) for n in sizes] + [(40, 3), (128, 10), (1, 139)]:
        x = rng.uniform(1e-6, 12.0, shape)
        terms = np.add.outer(topics._PSI_STEPS, x)
        np.divide(1.0, terms, out=terms)
        shift = terms[0].copy()
        for row in terms[1:]:
            shift += row
        assert np.array_equal(terms.sum(axis=0).view(np.int64), shift.view(np.int64)), shape
        assert np.array_equal(digamma(x).view(np.int64), _reference_digamma(x).view(np.int64))


def test_row_sums_are_numpy_sums_bit_for_bit():
    # the E-step's per-token sums follow numpy's own order; if a numpy
    # release changes it, this fails before any golden digest does
    rng = np.random.default_rng(5)
    for n_rows in (1, 2, 7, 33, 500):
        for k in range(1, 140):
            a = np.exp(rng.uniform(math.log(1e-9), math.log(1e9), (n_rows, k)))
            a[n_rows // 2] = 0.0
            before = a.copy()
            ours = topics._row_sums(a)
            assert np.array_equal(ours.view(np.int64), a.sum(axis=1).view(np.int64)), (n_rows, k)
            assert np.array_equal(a, before)


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(np.array([[0.0, 1.0, 2.0]]))
    with pytest.raises(ValueError):
        digamma(np.array([[1.0, -2.0, 3.0]]))


def test_learning_rate_pinned():
    assert learning_rate(15.0, 0.7, 0) == pytest.approx(0.15022289205617703)
    assert learning_rate(15.0, 0.7, 1) == (16.0) ** (-0.7)
    # rho decays monotonically
    rates = [learning_rate(15.0, 0.7, t) for t in range(50)]
    assert rates == sorted(rates, reverse=True)


# ---------------------------------------------------------------- vocabulary


def csr(rows, n_terms):
    """A DocTermMatrix holding the given (term id, count) rows."""
    return DocTermMatrix(
        ids=np.array([term for row in rows for term, _ in row], dtype=np.int64),
        cts=np.array([count for row in rows for _, count in row], dtype=float),
        ptr=np.cumsum([0, *map(len, rows)]),
        n_terms=n_terms,
    )


def rows_of(matrix):
    """The matrix's documents as tuples of (term id, count) pairs."""
    bounds = zip(matrix.ptr[:-1].tolist(), matrix.ptr[1:].tolist())
    ids, cts = matrix.ids.tolist(), matrix.cts.astype(int).tolist()
    return tuple(tuple(zip(ids[a:b], cts[a:b])) for a, b in bounds)


def docs_with_df(df_map: dict[str, int], n_docs: int) -> list[str]:
    """Build n_docs cleaned docs where each term appears in exactly df docs."""
    docs = [[] for _ in range(n_docs)]
    for term, df in df_map.items():
        for i in range(df):
            docs[i].append(term)
    return [" ".join(d) for d in docs]


def test_vocabulary_df_boundaries_exact():
    # 10 docs, min_df=3, max_df=0.90: df=2 out, df=3 in, df=9 in, df=10 out
    docs = docs_with_df({"rare": 2, "low": 3, "edge": 9, "everywhere": 10}, 10)
    vocab, matrix = build_vocabulary(docs, max_df=0.90, min_df=3)
    assert vocab.terms == ("low", "edge")
    assert vocab.df == (3, 9)
    assert vocab.n_docs == 10
    assert matrix.n_terms == 2


def test_vocabulary_first_occurrence_indexing():
    docs = ["b a c", "a b c", "c b a"]
    vocab, _ = build_vocabulary(docs, max_df=1.0, min_df=1)
    assert vocab.terms == ("b", "a", "c")
    assert vocab.size == 3


def test_vocabulary_empty_raises():
    with pytest.raises(EmptyVocabularyError):
        build_vocabulary(["one off terms", "another set"], min_df=3)


def test_doc_term_matrix_rows():
    docs = ["a a b", "b", ""]
    vocab, matrix = build_vocabulary(docs, max_df=1.0, min_df=1)
    assert rows_of(matrix) == (
        ((0, 2), (1, 1)),
        ((1, 1),),
        (),
    )
    assert matrix.ids.dtype == np.int64 and matrix.cts.dtype == np.float64
    assert matrix.n_docs == 3
    assert matrix.lengths.tolist() == [2, 1, 0]
    assert matrix.cts.sum() == 4


# ---------------------------------------------------------------- config


def test_lda_config_validation():
    with pytest.raises(ValueError):
        LdaConfig(k=1)
    with pytest.raises(ValueError):
        LdaConfig(k=2, tau0=0.0)
    # an offset below 1 makes the first step rho = tau0^-kappa exceed 1
    for tau0 in (0.5, 0.999):
        with pytest.raises(ValueError, match="^tau0 must be at least 1$"):
            LdaConfig(k=2, tau0=tau0)
    LdaConfig(k=2, tau0=1.0)
    with pytest.raises(ValueError):
        LdaConfig(k=2, kappa=0.5)
    with pytest.raises(ValueError):
        LdaConfig(k=2, kappa=1.1)
    LdaConfig(k=2, kappa=1.0)
    with pytest.raises(ValueError):
        LdaConfig(k=2, batch_size=0)
    with pytest.raises(ValueError):
        LdaConfig(k=2, epochs=0)
    with pytest.raises(ValueError):
        LdaConfig(k=2, top_n=0)
    for field in ("alpha", "eta", "tau0", "mean_change_tol"):
        for value in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match=f"^{field} must be finite and positive$"):
                LdaConfig(k=2, **{field: value})
    # a subnormal prior: digamma's 1/x overflows below the smallest normal float
    for field in ("alpha", "eta"):
        for value in (sys.float_info.min / 2, 5e-324):
            with pytest.raises(ValueError, match=f"^{field} must be at least 2.2250738585072014e-308$"):
                LdaConfig(k=2, **{field: value})
        LdaConfig(k=2, **{field: sys.float_info.min})


def test_fit_at_the_smallest_normal_alpha_is_finite_without_warnings():
    config = LdaConfig(k=2, alpha=sys.float_info.min, batch_size=8, epochs=1, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_lda(two_cluster_matrix(), config)
    assert all(map(math.isfinite, model.epoch_perplexities))


def test_lda_config_symmetric_defaults():
    config = LdaConfig(k=4)
    assert config.alpha_value == 0.25
    assert config.eta_value == 0.25
    assert LdaConfig(k=4, alpha=0.1, eta=0.3).alpha_value == 0.1
    assert LdaConfig(k=4, alpha=0.1, eta=0.3).eta_value == 0.3


# ---------------------------------------------------------------- inference


def naive_estep(cts, beta_cols, alpha, k, tol, max_iters):
    """Straight-line reimplementation of the per-doc gamma iteration using
    scipy's digamma."""

    def exp_elog(g):
        return np.exp(scipy.special.digamma(g) - scipy.special.digamma(g.sum()))

    gamma = np.full(k, alpha + cts.sum() / k)
    theta = exp_elog(gamma)
    phinorm = theta @ beta_cols + 1e-100
    for _ in range(max_iters):
        last = gamma
        gamma = alpha + theta * ((cts / phinorm) @ beta_cols.T)
        theta = exp_elog(gamma)
        phinorm = theta @ beta_cols + 1e-100
        if np.abs(gamma - last).mean() < tol:
            break
    return gamma


def test_inference_matches_naive_reimplementation():
    rng = np.random.default_rng(123)
    k, v = 3, 12
    lam = rng.gamma(100.0, 0.01, (k, v))
    config = LdaConfig(k=k, seed=0)
    model = TopicModel(lam=lam, config=config)
    row = ((0, 2), (3, 1), (7, 4), (11, 1))
    inferred = infer_doc_topics(model, row)

    ids = np.array([i for i, _ in row])
    cts = np.array([c for _, c in row], dtype=float)
    elog = scipy.special.digamma(lam) - scipy.special.digamma(lam.sum(axis=1))[:, None]
    beta_cols = np.exp(elog)[:, ids]
    expected = naive_estep(
        cts, beta_cols, config.alpha_value, k, config.mean_change_tol, config.max_e_iters
    )
    assert inferred.gamma == pytest.approx(expected, rel=1e-9)
    assert inferred.assigned == int(np.argmax(expected))
    assert inferred.probability == pytest.approx(
        expected.max() / expected.sum(), rel=1e-9
    )


def test_empty_document_probability_is_exactly_one_over_k():
    for k in (2, 3, 7):
        model = TopicModel(
            lam=np.ones((k, 4)), config=LdaConfig(k=k)
        )
        inferred = infer_doc_topics(model, ())
        assert inferred.probability == 1.0 / k
        assert inferred.assigned == 0
        assert np.all(inferred.gamma == model.config.alpha_value)


def naive_iterations(cts, beta_cols, alpha, k, tol, max_iters):
    """Iterations the reference runs before it stops, and whether it was
    stopped by max_iters: one more allowed iteration changes its gamma
    exactly when it has not converged."""
    for n in range(1, max_iters + 1):
        if np.array_equal(
            naive_estep(cts, beta_cols, alpha, k, tol, n),
            naive_estep(cts, beta_cols, alpha, k, tol, n + 1),
        ):
            return n, False
    return max_iters, True


def exp_elog_beta_scipy(lam):
    elog = scipy.special.digamma(lam) - scipy.special.digamma(lam.sum(axis=1))[:, None]
    return np.exp(elog)


def mixed_rows(n_docs=45, n_terms=30, seed=5):
    """Rows of very different lengths with empty rows in between."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_docs):
        if i % 7 == 3:
            rows.append(())
            continue
        size = int(rng.integers(1, n_terms))
        ids = np.sort(rng.choice(n_terms, size=size, replace=False))
        rows.append(tuple((int(t), int(rng.integers(1, 9))) for t in ids))
    return rows


@pytest.mark.parametrize("max_iters", [100, 6])
def test_batched_estep_matches_naive_per_document(max_iters):
    rng = np.random.default_rng(9)
    k, v = 4, 30
    lam = rng.gamma(2.0, 1.0, (k, v))
    config = LdaConfig(k=k, max_e_iters=max_iters)
    alpha, tol = config.alpha_value, config.mean_change_tol
    rows = mixed_rows(n_terms=v)
    beta = exp_elog_beta_scipy(lam)
    seen, iterations, capped = [], set(), []
    matrix = csr(rows, v)
    parts = [(matrix, np.arange(len(rows)), beta)]
    for _, docs, batch, gammas, caps in topics._lockstep_chunks(parts, config):
        naive_sstats = np.zeros_like(beta)
        for j, doc in enumerate(docs):
            ids = np.array([i for i, _ in rows[doc]])
            cts = np.array([c for _, c in rows[doc]], dtype=float)
            expected = naive_estep(cts, beta[:, ids], alpha, k, tol, max_iters)
            theta = np.exp(
                scipy.special.digamma(expected)
                - scipy.special.digamma(expected.sum())
            )
            phinorm = theta @ beta[:, ids] + 1e-100
            naive_sstats[:, ids] += np.outer(theta, cts / phinorm)
            tokens = slice(batch.ptr[j], batch.ptr[j + 1])
            assert gammas[j] == pytest.approx(expected, rel=1e-9)
            assert np.array_equal(batch.ids[tokens], ids)
            n, hit = naive_iterations(cts, beta[:, ids], alpha, k, tol, max_iters)
            assert bool(caps[j]) == hit
            iterations.add(n)
            capped.append(hit)
        # the sufficient statistics, taken from the chunk's gammas alone
        sstats = np.zeros_like(beta)
        topics._add_sstats(sstats, batch, gammas, beta)
        assert sstats == pytest.approx(naive_sstats, rel=1e-9)
        seen.extend(int(d) for d in docs)
    # every non-empty row once, in order, across more than one chunk
    assert seen == [i for i, row in enumerate(rows) if row]
    assert len(seen) > 32
    assert len(iterations) > 1
    if max_iters == 6:
        assert any(capped) and not all(capped)


@pytest.mark.parametrize("compact_share", [0.0, math.inf])
@pytest.mark.parametrize("max_iters", [100, 6])
def test_e_step_driver_matches_the_map_iterated_on_each_document_alone(
    monkeypatch, max_iters, compact_share
):
    # the driver masks and compacts a batch; iterating the same map on one
    # document at a time, with the same start and stop rule, gives its bits
    monkeypatch.setattr(topics, "_COMPACT_SHARE", compact_share)
    rng = np.random.default_rng(9)
    k, v = 4, 30
    beta = exp_elog_beta_scipy(rng.gamma(2.0, 1.0, (k, v)))
    alpha, tol = 1.0 / k, 1e-3
    matrix = csr([row for row in mixed_rows(n_terms=v) if row], v)
    gammas, capped = topics._estep(
        beta.T[matrix.ids], matrix.cts, matrix.lengths, alpha, tol, max_iters
    )
    iterations = []
    for d in range(matrix.n_docs):
        tokens = slice(matrix.ptr[d], matrix.ptr[d + 1])
        doc_beta, cts = beta.T[matrix.ids[tokens]], matrix.cts[tokens]
        owner, starts = np.zeros(cts.size, dtype=np.int64), np.zeros(1, dtype=np.int64)
        gamma = np.repeat(alpha + np.add.reduceat(cts, starts) / k, k).reshape(1, k)
        scratch = np.empty_like(doc_beta)
        for it in range(1, max_iters + 1):
            last = gamma
            gamma = topics._map(gamma, doc_beta, cts, owner, starts, alpha, scratch)
            if (np.abs(gamma - last).sum(axis=1) / k < tol)[0]:
                hit = False
                break
        else:
            hit = True
        assert np.array_equal(gammas[d], gamma[0])
        assert bool(capped[d]) == hit
        iterations.append(it)
    # documents stop at different iterations, so the driver masks and
    # compacts; at 6 some stop by tol and some at the cap
    assert len(set(iterations)) > 1
    if max_iters == 6:
        assert any(capped) and not all(capped)


def naive_fit(matrix, config):
    """Per-document online VB reference for fit_lda: returns lambda and the
    per-epoch count of E-steps stopped by max_e_iters."""
    k, alpha, eta = config.k, config.alpha_value, config.eta_value
    tol, max_iters = config.mean_change_tol, config.max_e_iters
    n_docs = matrix.n_docs
    rows = rows_of(matrix)
    batch_size = min(config.batch_size, n_docs)
    rng = np.random.default_rng(config.seed)
    lam = rng.gamma(100.0, 1.0 / 100.0, (k, matrix.n_terms))
    cap_hits = []
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(n_docs)
        hits = 0
        for start in range(0, n_docs, batch_size):
            batch = order[start : start + batch_size]
            beta = exp_elog_beta_scipy(lam)
            sstats = np.zeros_like(lam)
            for index in batch:
                row = rows[index]
                if not row:
                    continue
                ids = np.array([i for i, _ in row])
                cts = np.array([c for _, c in row], dtype=float)
                gamma = naive_estep(cts, beta[:, ids], alpha, k, tol, max_iters)
                _, hit = naive_iterations(cts, beta[:, ids], alpha, k, tol, max_iters)
                hits += hit
                theta = np.exp(
                    scipy.special.digamma(gamma) - scipy.special.digamma(gamma.sum())
                )
                phinorm = theta @ beta[:, ids] + 1e-100
                sstats[:, ids] += np.outer(theta, cts / phinorm)
            sstats *= beta
            rho = learning_rate(config.tau0, config.kappa, t)
            lam = (1 - rho) * lam + rho * (eta + (n_docs / len(batch)) * sstats)
            t += 1
        cap_hits.append(hits)
    return lam, cap_hits


# ---------------------------------------------------------------- row path
# A copy of the path the corpus took before it was held as one CSR matrix:
# documents as tuples of (term id, count) pairs, put into CSR form one
# E-step chunk at a time.  Gathering the chunks from the matrix by index
# must give the same bits.


def reference_from_rows(rows, n_terms):
    ptr = np.cumsum([0, *map(len, rows)])
    n = int(ptr[-1])
    ids = np.fromiter((term for row in rows for term, _ in row), np.int64, n)
    cts = np.fromiter((count for row in rows for _, count in row), float, n)
    return DocTermMatrix(ids=ids, cts=cts, ptr=ptr, n_terms=n_terms)


def reference_chunks(rows, exp_elog_beta, config):
    filled = ((position, row) for position, row in enumerate(rows) if row)
    while chunk := list(islice(filled, topics._ESTEP_CHUNK)):
        positions, chunk_rows = zip(*chunk)
        batch = reference_from_rows(chunk_rows, exp_elog_beta.shape[1])
        yield list(positions), batch, *topics._estep(
            exp_elog_beta.T[batch.ids],
            batch.cts,
            batch.lengths,
            config.alpha_value,
            config.mean_change_tol,
            config.max_e_iters,
        )


def reference_counts(terms, text):
    counts: dict[int, int] = {}
    for term in text.split():
        index = terms.get(term)
        if index is not None:
            counts[index] = counts.get(index, 0) + 1
    return tuple(sorted(counts.items()))


def reference_perplexity(lam, rows, config):
    total = sum(count for row in rows for _, count in row)
    if total == 0:
        return float("nan")
    score = sum(topics._dirichlet_ll(row[np.newaxis], config.eta_value) for row in lam)
    elog_beta = digamma(lam) - digamma(lam.sum(axis=1))[:, np.newaxis]
    for _, chunk, gammas, _ in reference_chunks(rows, np.exp(elog_beta), config):
        score += topics._word_ll(elog_beta, chunk, gammas)
        score += topics._dirichlet_ll(gammas, config.alpha_value)
    return math.exp(-score / total)


def reference_fit(rows, n_terms, config):
    """fit_lda over rows: lambda, per-epoch perplexities and cap hits."""
    n_docs = len(rows)
    batch_size = min(config.batch_size, n_docs)
    rng = np.random.default_rng(config.seed)
    lam = rng.gamma(100.0, 1.0 / 100.0, (config.k, n_terms))
    perplexities, cap_hits = [], []
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(n_docs)
        hits = 0
        for start in range(0, n_docs, batch_size):
            batch = order[start : start + batch_size]
            exp_elog_beta = np.exp(topics._elog(lam))
            sstats = np.zeros_like(lam)
            batch_rows = [rows[index] for index in batch]
            for _, chunk, gammas, capped in reference_chunks(batch_rows, exp_elog_beta, config):
                topics._add_sstats(sstats, chunk, gammas, exp_elog_beta)
                hits += int(capped.sum())
            sstats *= exp_elog_beta
            lam_hat = config.eta_value + (n_docs / len(batch)) * sstats
            rho = learning_rate(config.tau0, config.kappa, t)
            lam = (1 - rho) * lam + rho * lam_hat
            t += 1
        perplexities.append(reference_perplexity(lam, rows, config))
        cap_hits.append(hits)
    return lam, perplexities, cap_hits


def reference_gammas(model, rows):
    gammas = np.full((len(rows), model.config.k), model.config.alpha_value)
    exp_elog_beta = np.exp(topics._elog(model.lam))
    for positions, _, chunk_gammas, _ in reference_chunks(rows, exp_elog_beta, model.config):
        gammas[positions] = chunk_gammas
    return gammas


@st.composite
def corpora(draw):
    """(rows, n_terms): up to 90 documents, empty ones interleaved."""
    n_terms = draw(st.integers(1, 12))
    row = st.dictionaries(
        st.integers(0, n_terms - 1), st.integers(1, 9), max_size=n_terms
    ).map(lambda counts: tuple(sorted(counts.items())))
    return draw(st.lists(st.one_of(st.just(()), row), min_size=1, max_size=90)), n_terms


def check_bit_identical_to_the_row_path(
    corpus, k, batch_size, epochs, max_e_iters, seed, compact_share=None
):
    """fit_lda and infer_doc_topics on each row against the row path; a
    given ``compact_share`` replaces _COMPACT_SHARE for them but not for
    the reference."""
    rows, n_terms = corpus
    config = LdaConfig(
        k=k, batch_size=batch_size, epochs=epochs, max_e_iters=max_e_iters, seed=seed
    )
    lam, perplexities, cap_hits = reference_fit(rows, n_terms, config)
    with pytest.MonkeyPatch.context() as patched:
        if compact_share is not None:
            patched.setattr(topics, "_COMPACT_SHARE", compact_share)
        model = fit_lda(csr(rows, n_terms), config)
        gammas = [infer_doc_topics(model, row).gamma for row in rows]
    assert np.array_equal(model.lam, lam)
    assert model.epoch_cap_hits == cap_hits
    assert np.array_equal(model.epoch_perplexities, perplexities, equal_nan=True)
    expected = reference_gammas(model, rows)
    assert np.array_equal(gammas, expected)
    # the final perplexity pass is the E-step infer_doc_topics runs on a row
    assert np.array_equal(model.doc_gammas, expected)


@settings(max_examples=40, deadline=None)
@given(
    corpus=corpora(),
    k=st.integers(2, 4),
    batch_size=st.integers(1, 90),
    epochs=st.integers(1, 2),
    max_e_iters=st.sampled_from([3, 100]),
    seed=st.integers(0, 2**16),
)
def test_csr_chunks_are_bit_identical_to_the_row_path(
    corpus, k, batch_size, epochs, max_e_iters, seed
):
    check_bit_identical_to_the_row_path(corpus, k, batch_size, epochs, max_e_iters, seed)


@settings(max_examples=40, deadline=None)
@given(
    corpus=corpora(),
    k=st.integers(2, 4),
    # multiples of neither the chunk nor the group below
    batch_size=st.sampled_from([b for b in range(1, 91) if b % 2 and b % 3]),
    epochs=st.integers(1, 2),
    max_e_iters=st.sampled_from([3, 100]),
    seed=st.integers(0, 2**16),
)
def test_e_step_groups_cut_into_chunks_are_bit_identical_to_the_row_path(
    corpus, k, batch_size, epochs, max_e_iters, seed
):
    # the hypothesis corpora never fill a second group of the real size; a
    # group of 3 chunks of 2 puts many group bounds inside every corpus,
    # while reference_chunks calls _estep once per chunk of 2
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(topics, "_ESTEP_CHUNK", 2)
        patched.setattr(topics, "_ESTEP_GROUP", 6)
        check_bit_identical_to_the_row_path(
            corpus, k, batch_size, epochs, max_e_iters, seed
        )


@pytest.mark.parametrize(
    # 0: compact at every stop, as one copy per stop did; inf: never before
    # the last document stops
    "compact_share", [0.0, math.inf]
)
@settings(max_examples=25, deadline=None)
@given(
    corpus=corpora(),
    k=st.integers(2, 4),
    batch_size=st.integers(1, 90),
    epochs=st.integers(1, 2),
    max_e_iters=st.sampled_from([3, 100]),
    seed=st.integers(0, 2**16),
)
def test_when_stopped_documents_are_compacted_changes_no_bit(
    compact_share, corpus, k, batch_size, epochs, max_e_iters, seed
):
    check_bit_identical_to_the_row_path(
        corpus, k, batch_size, epochs, max_e_iters, seed, compact_share
    )


def test_e_step_group_holds_whole_chunks():
    assert topics._ESTEP_GROUP % topics._ESTEP_CHUNK == 0


def test_fit_and_perplexity_call_the_e_step_once_per_group(monkeypatch):
    rows = [((i % 5, 1 + i % 3), (5 + i % 4, 2)) for i in range(300)]
    rows[7] = rows[150] = ()
    calls = []
    real_estep = topics._estep

    def counting_estep(beta, cts, lengths, *args):
        calls.append(lengths.size)
        return real_estep(beta, cts, lengths, *args)

    monkeypatch.setattr(topics, "_estep", counting_estep)
    config = LdaConfig(k=3, batch_size=128, epochs=1, seed=3)
    (model,) = topics._fit_lockstep([csr(rows, 9)], config, record_perplexity=False)
    # three training batches of 128, 128 and 44 documents, empty ones skipped
    assert sum(calls) == 298 and len(calls) == 3
    calls.clear()
    perplexity(model.lam, csr(rows, 9), config)
    assert calls == [128, 128, 42]


def test_lockstep_parts_across_groups_give_each_part_its_own_bits(monkeypatch):
    # training batches fit in one group and perplexity has one part; groups
    # of 3 chunks of 2 put three parts of different widths, with empty rows
    # and shuffled positions, through four lockstep calls
    monkeypatch.setattr(topics, "_ESTEP_CHUNK", 2)
    monkeypatch.setattr(topics, "_ESTEP_GROUP", 6)
    config = LdaConfig(k=3, max_e_iters=5)
    rng = np.random.default_rng(11)
    parts = []
    for n_docs, n_terms in ((23, 30), (9, 7), (16, 12)):
        matrix = csr(mixed_rows(n_docs, n_terms, seed=n_terms), n_terms)
        table = exp_elog_beta_scipy(rng.gamma(2.0, 1.0, (config.k, n_terms)))
        parts.append((matrix, rng.permutation(n_docs), table))
    assert (parts[0][0].lengths > 0).sum() > 3 * 6
    together = list(topics._lockstep_chunks(parts, config))
    for index, part in enumerate(parts):
        mine = [chunk[1:] for chunk in together if chunk[0] == index]
        alone = [chunk[1:] for chunk in topics._lockstep_chunks([part], config)]
        assert len(mine) == len(alone)
        for (positions, chunk, gammas, capped), expected in zip(mine, alone):
            positions_alone, chunk_alone, gammas_alone, capped_alone = expected
            assert np.array_equal(positions, positions_alone)
            assert np.array_equal(chunk.ids, chunk_alone.ids)
            assert np.array_equal(chunk.cts, chunk_alone.cts)
            assert np.array_equal(chunk.ptr, chunk_alone.ptr)
            assert np.array_equal(gammas, gammas_alone)
            assert np.array_equal(capped, capped_alone)
    assert any(capped.any() for *_, capped in together)


@given(
    st.lists(
        st.lists(st.sampled_from("abcdefgh"), max_size=12).map(" ".join),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 3),
)
def test_build_vocabulary_counts_match_the_row_path(docs, min_df):
    try:
        vocab, matrix = build_vocabulary(docs, max_df=1.0, min_df=min_df)
    except EmptyVocabularyError:
        return
    index = {term: i for i, term in enumerate(vocab.terms)}
    expected = reference_from_rows(
        [reference_counts(index, doc) for doc in docs], vocab.size
    )
    for ours, ref in zip(matrix, expected):
        assert np.array_equal(ours, ref)
        assert np.asarray(ours).dtype == np.asarray(ref).dtype


def reference_build_vocabulary(cleaned_documents, max_df, min_df):
    """build_vocabulary as it was with two passes over kept token lists: df
    from each document's token set, then the retained terms indexed in
    order of first occurrence."""
    n_docs = len(cleaned_documents)
    doc_tokens = [doc.split() for doc in cleaned_documents]
    df = {}
    for tokens in doc_tokens:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    retained = {term for term, n in df.items() if n >= min_df and n / n_docs <= max_df}
    terms = {}
    for tokens in doc_tokens:
        for term in tokens:
            if term in retained and term not in terms:
                terms[term] = len(terms)
    if not terms:
        raise EmptyVocabularyError("empty")
    vocab = Vocabulary(terms=tuple(terms), df=tuple(df[t] for t in terms), n_docs=n_docs)
    rows = [reference_counts(terms, doc) for doc in cleaned_documents]
    return vocab, reference_from_rows(rows, len(terms))


@settings(max_examples=200)
@given(
    # few terms over up to 12 tokens a document: repeats within a document
    # are common, and so are empty documents
    st.lists(
        st.lists(st.sampled_from("abcdefghij"), max_size=12).map(" ".join),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([0.2, 0.5, 0.75, 0.9, 1.0]),
    st.integers(1, 3),
)
def test_build_vocabulary_matches_the_two_pass_reference(docs, max_df, min_df):
    try:
        expected_vocab, expected = reference_build_vocabulary(docs, max_df, min_df)
    except EmptyVocabularyError:
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary(docs, max_df=max_df, min_df=min_df)
        return
    vocab, matrix = build_vocabulary(docs, max_df=max_df, min_df=min_df)
    assert vocab == expected_vocab
    for ours, ref in zip(matrix, expected):
        assert np.array_equal(ours, ref)
        assert np.asarray(ours).dtype == np.asarray(ref).dtype


# ---------------------------------------------------------------- fitting


def two_cluster_matrix(n_docs=40, seed=0):
    rng = np.random.default_rng(seed)
    vocab_a = list(range(0, 8))
    vocab_b = list(range(8, 16))
    rows = []
    for i in range(n_docs):
        ids = vocab_a if i % 2 == 0 else vocab_b
        chosen = rng.choice(ids, size=12)
        counts: dict[int, int] = {}
        for term in chosen:
            counts[int(term)] = counts.get(int(term), 0) + 1
        rows.append(tuple(sorted(counts.items())))
    return csr(rows, 16)


def test_fit_lda_matches_per_document_reference():
    # minibatches of 40 cross the 32-document E-step chunk; empty rows ride along
    rows = list(rows_of(two_cluster_matrix(n_docs=70)))
    for i in (5, 33, 34, 61):
        rows.insert(i, ())
    matrix = csr(rows, 16)
    config = LdaConfig(k=2, batch_size=40, epochs=2, max_e_iters=20, seed=3)
    model = fit_lda(matrix, config)
    lam, cap_hits = naive_fit(matrix, config)
    assert model.lam == pytest.approx(lam, rel=1e-9)
    assert model.epoch_cap_hits == cap_hits


def test_fit_lda_counts_capped_esteps_per_epoch():
    matrix = two_cluster_matrix()
    model = fit_lda(matrix, LdaConfig(k=2, batch_size=8, epochs=3, seed=42))
    assert model.epoch_cap_hits == naive_fit(matrix, model.config)[1]
    # E-steps under the random initial lambda run long; once the planted
    # clusters are found every document converges
    assert model.epoch_cap_hits[0] > 0
    assert model.epoch_cap_hits[-1] == 0
    # one iteration from the flat start never meets the tolerance here
    tight = fit_lda(
        matrix, LdaConfig(k=2, batch_size=8, epochs=3, max_e_iters=1, seed=42)
    )
    assert tight.epoch_cap_hits == [matrix.n_docs] * 3


def test_fit_lda_is_deterministic():
    matrix = two_cluster_matrix()
    config = LdaConfig(k=2, batch_size=8, epochs=3, seed=42)
    first = fit_lda(matrix, config)
    second = fit_lda(matrix, config)
    assert first.lam.tobytes() == second.lam.tobytes()
    assert first.epoch_perplexities == second.epoch_perplexities


def test_fit_lda_records_per_epoch_perplexity():
    matrix = two_cluster_matrix()
    model = fit_lda(matrix, LdaConfig(k=2, batch_size=8, epochs=4, seed=42))
    assert len(model.epoch_perplexities) == 4
    assert all(p > 0 and math.isfinite(p) for p in model.epoch_perplexities)
    # training should improve the bound overall on this easy corpus
    assert model.epoch_perplexities[-1] < model.epoch_perplexities[0]


def test_fit_lda_without_perplexity_fits_the_same_model(monkeypatch):
    matrix = two_cluster_matrix()
    config = LdaConfig(k=2, batch_size=8, epochs=3, seed=42)
    recorded = fit_lda(matrix, config)
    calls = []
    monkeypatch.setattr(topics, "perplexity", lambda *args: calls.append(args))
    (skipped,) = topics._fit_lockstep([matrix], config, record_perplexity=False)
    assert calls == []
    assert skipped.epoch_perplexities == []
    assert skipped.lam.tobytes() == recorded.lam.tobytes()
    assert skipped.epoch_cap_hits == recorded.epoch_cap_hits


def test_fit_lda_separates_planted_clusters():
    matrix = two_cluster_matrix()
    model = fit_lda(matrix, LdaConfig(k=2, batch_size=8, epochs=6, seed=42))
    dist = topic_word_distribution(model.lam)
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-9)
    # each topic concentrates on one half of the vocabulary
    mass_a = dist[:, :8].sum(axis=1)
    assert {mass_a.argmax(), mass_a.argmin()} == {0, 1}
    assert mass_a.max() > 0.9
    assert mass_a.min() < 0.1


def test_fit_lda_rejects_degenerate_input():
    with pytest.raises(ValueError, match="^cannot fit topics on an empty corpus$"):
        fit_lda(csr((), 4), LdaConfig(k=2))
    with pytest.raises(EmptyVocabularyError):
        fit_lda(csr(((),), 0), LdaConfig(k=2))


def test_perplexity_nan_on_empty_matrix():
    matrix = csr(((), ()), 3)
    value, gammas = perplexity(np.ones((2, 3)), matrix, LdaConfig(k=2))
    assert math.isnan(value)
    assert np.array_equal(gammas, np.full((2, 2), 0.5))


# ---------------------------------------------------------------- outputs


def test_top_words_order_and_ties():
    vocab = Vocabulary(terms=("mask", "test", "fever", "zoom"), df=(3, 3, 3, 3), n_docs=4)
    lam = np.array(
        [
            [4.0, 3.0, 2.0, 1.0],
            [1.0, 1.0, 4.0, 4.0],
        ]
    )
    model = TopicModel(lam=lam, config=LdaConfig(k=2, top_n=2))
    lists = top_words(model, vocab)
    assert lists[0] == [("mask", 0.4), ("test", 0.3)]
    # tie between fever and zoom resolves to the lower index
    assert lists[1] == [("fever", 0.4), ("zoom", 0.4)]
    model.config = dataclasses.replace(model.config, top_n=4)
    assert [len(l) for l in top_words(model, vocab)] == [4, 4]


class FakeDoc:
    def __init__(self, post_id, cleaned_text, created_utc=0):
        self.post_id = post_id
        self.cleaned_text = cleaned_text
        self.created_utc = created_utc


def cluster_texts():
    """two_cluster_matrix's documents as texts of terms t0 to t15."""
    return [
        " ".join(f"t{term}" for term, count in row for _ in range(count))
        for row in rows_of(two_cluster_matrix())
    ]


def test_assign_topics_frequencies_cover_all_topics():
    texts = [*cluster_texts(), "t0 t1 t2 t3", "t8 t9 t10", ""]
    docs = [FakeDoc(f"d{i}", text) for i, text in enumerate(texts)]
    _, matrix = build_vocabulary(texts)
    model = fit_lda(matrix, LdaConfig(k=2, batch_size=8, epochs=6, seed=42))
    assignments, frequencies = assign_topics(model, docs, matrix)
    assert [a.post_id for a in assignments] == [doc.post_id for doc in docs]
    assert frequencies == [sum(a.topic == topic for a in assignments) for topic in (0, 1)]
    assert sum(frequencies) == len(docs)
    a, b, c = assignments[-3:]
    assert a.topic != b.topic
    assert c.probability == 0.5


def test_assign_topics_skips_unknown_terms():
    # "unknown" is under min_df, "mask", "words" and "only" occur once
    texts = [*cluster_texts(), "t9 unknown t0 t9 mask", "t9 t0 t9", "unknown words only", ""]
    docs = [FakeDoc(f"d{i}", text) for i, text in enumerate(texts)]
    vocab, matrix = build_vocabulary(texts)
    model = fit_lda(matrix, LdaConfig(k=2, batch_size=8, epochs=2, seed=42))
    a, b, c, d = assign_topics(model, docs, matrix)[0][-4:]
    t0, t9 = vocab.terms.index("t0"), vocab.terms.index("t9")
    expected = infer_doc_topics(model, sorted(((t0, 1), (t9, 2))))
    assert (a.topic, a.probability) == (b.topic, b.probability)
    assert (a.topic, a.probability) == (expected.assigned, expected.probability)
    # a document with no known term sits at the prior, as an empty one does
    assert (c.topic, c.probability) == (d.topic, d.probability) == (0, 0.5)


def test_assign_topics_refuses_a_fit_without_document_gammas():
    texts = cluster_texts()
    docs = [FakeDoc(f"d{i}", text) for i, text in enumerate(texts)]
    _, matrix = build_vocabulary(texts)
    config = LdaConfig(k=2, batch_size=8, epochs=1, seed=42)
    (model,) = topics._fit_lockstep([matrix], config, record_perplexity=False)
    assert model.doc_gammas is None
    with pytest.raises(ValueError, match="no document gammas"):
        assign_topics(model, docs, matrix)


def test_topics_assigns_from_the_fit_and_counts_once(tmp_path, monkeypatch):
    # two planted clusters, with documents that are empty or hold only
    # terms under min_df in between
    texts = [("t0 t1 t2 t3 t1" if i % 2 else "t8 t9 t10 t9 t11") for i in range(24)]
    texts[3], texts[10], texts[17] = "", "once only", ""
    docs = [
        Document(post_id=f"d{i}", subreddit="s", created_utc=1584230400, title="x",
                 cleaned_text=text)
        for i, text in enumerate(texts)
    ]
    write_documents(docs, tmp_path / "docs.jsonl")
    counts, fits, assigned = [], [], []
    real_vocabulary, real_fit = topics.build_vocabulary, topics.fit_lda
    real_assign = topics.assign_topics

    def counting_vocabulary(*args, **kwargs):
        counts.append(args)
        return real_vocabulary(*args, **kwargs)

    def recording_fit(matrix, config, **kwargs):
        fits.append((matrix, real_fit(matrix, config, **kwargs)))
        return fits[-1][1]

    def recording_assign(model, documents, fitted):
        assigned.append((fitted, real_assign(model, documents, fitted)))
        return assigned[-1][1]

    monkeypatch.setattr(topics, "build_vocabulary", counting_vocabulary)
    monkeypatch.setattr(topics, "fit_lda", recording_fit)
    monkeypatch.setattr(topics, "assign_topics", recording_assign)
    out = tmp_path / "out"
    assert cli.run(["topics", "--docs", str(tmp_path / "docs.jsonl"), "--k", "2",
                    "--min-df", "2", "--epochs", "2", "--batch-size", "5",
                    "--corpus-id", "c", "--out", str(out)]) == 0
    assert len(counts) == 1
    ((matrix, model),) = fits
    ((fitted, (assignments, _)),) = assigned
    assert fitted is matrix
    assert (matrix.lengths == 0).sum() == 3
    # each assignment is what a fresh inference of its row gives
    for assignment, row in zip(assignments, rows_of(matrix), strict=True):
        expected = infer_doc_topics(model, row)
        assert (assignment.topic, assignment.probability) == (
            expected.assigned, expected.probability
        )
    rows = (out / "c" / "topics" / "assignments.tsv").read_text().splitlines()[1:]
    assert [rows[i].split("\t")[2] for i in (3, 10, 17)] == ["0.500000"] * 3


# ---------------------------------------------------------------- monthly


def month_docs(month_offset, texts):
    # 2020-03-15 onward, one month apart
    base = 1584230400 + month_offset * 32 * 86400
    return [
        FakeDoc(f"m{month_offset}d{i}", text, created_utc=base)
        for i, text in enumerate(texts)
    ]


def test_monthly_side_topics_fits_and_skips():
    march = month_docs(
        0,
        [
            "mask test",
            "mask test fever",
            "mask fever zoom",
            "mask test zoom",
            "mask fever",
            "test zoom",
        ],
    )
    april_thin = month_docs(1, ["mask test", "mask test"])
    may_sparse = [
        FakeDoc(f"mayd{i}", f"unique{i}", created_utc=1590000000) for i in range(5)
    ]
    config = LdaConfig(k=2, batch_size=8, epochs=2, seed=42, top_n=3)
    results = monthly_side_topics(
        march + april_thin + may_sparse, config, min_df=2, min_docs=5
    )
    assert [r.month for r in results] == ["2020-03", "2020-04", "2020-05"]
    fitted, thin, sparse = results
    assert not fitted.skipped
    assert len(fitted.topics) == 2
    assert all(len(topic) == 3 for topic in fitted.topics)
    assert thin.skipped and "min_docs" in thin.reason
    assert sparse.skipped and "min_df" in sparse.reason


def test_monthly_side_topics_names_months_before_year_1000_in_time_order():
    # 0999-12-05 and 1000-01-05 at 00:00 UTC: the year is zero-padded, so
    # the months' names sort as the months fall
    docs = [
        FakeDoc("dec", "mask", created_utc=-30_612_556_800),
        FakeDoc("jan", "mask", created_utc=-30_609_878_400),
    ]
    config = LdaConfig(k=2, batch_size=8, epochs=2, seed=42, top_n=3)
    results = monthly_side_topics(docs, config, min_docs=5)
    assert [(r.month, r.skipped) for r in results] == [("0999-12", True), ("1000-01", True)]


def test_lockstep_month_fits_equal_solo_fits(monkeypatch):
    words = "mask test fever zoom vaccine lockdown".split()
    rng = np.random.default_rng(3)

    def texts(n):
        return [" ".join(rng.choice(words, size=rng.integers(2, 7))) for _ in range(n)]

    # 2020-03 fits in one minibatch, 2020-04 is too thin, 2020-05 takes
    # three minibatches of 8 and holds a document whose one term falls
    # under min_df, and 2020-06 takes two
    may = texts(19)
    may[4] = "once"
    docs = (month_docs(0, texts(6)) + month_docs(1, texts(3))
            + month_docs(2, may) + month_docs(3, texts(11)))
    config = LdaConfig(k=2, batch_size=8, epochs=3, max_e_iters=4, seed=5, top_n=4)
    fits, estep_docs = [], []
    real_fit, real_estep = topics._fit_lockstep, topics._estep

    def spy_fit(matrices, *args, **kwargs):
        models = real_fit(matrices, *args, **kwargs)
        fits.append((matrices, models))
        return models

    def spy_estep(beta, cts, lengths, *args):
        estep_docs.append(lengths.size)
        return real_estep(beta, cts, lengths, *args)

    monkeypatch.setattr(topics, "_fit_lockstep", spy_fit)
    monkeypatch.setattr(topics, "_estep", spy_estep)
    results = monthly_side_topics(docs, config, min_df=2, min_docs=5)
    ((matrices, models),) = fits
    assert [r.month for r in results if r.skipped] == ["2020-04"]
    assert [m.n_docs for m in matrices] == [6, 19, 11]
    assert (matrices[1].lengths == 0).sum() == 1
    # one E-step call per round, three rounds an epoch: every month's
    # first minibatch, then May's and June's second, then May's third;
    # the empty document never enters one
    assert len(estep_docs) == 3 * 3
    assert sum(estep_docs) == 3 * (6 + 18 + 11)
    monkeypatch.setattr(topics, "_estep", real_estep)
    fitted = [r for r in results if not r.skipped]
    for matrix, model, result in zip(matrices, models, fitted, strict=True):
        alone = fit_lda(matrix, config)
        assert np.array_equal(model.lam, alone.lam)
        assert model.epoch_cap_hits == alone.epoch_cap_hits
        month = [doc for doc in docs if utc_month(doc.created_utc) == result.month]
        vocab, _ = build_vocabulary([doc.cleaned_text for doc in month], min_df=2)
        assert result.topics == tuple(map(tuple, top_words(alone, vocab)))
    assert any(hits for model in models for hits in model.epoch_cap_hits)


def test_monthly_side_topics_computes_no_perplexity(monkeypatch):
    march = month_docs(0, ["mask test", "mask test fever", "mask fever zoom",
                           "mask test zoom", "mask fever", "test zoom"])
    config = LdaConfig(k=2, batch_size=8, epochs=2, seed=42, top_n=3)
    calls = []
    monkeypatch.setattr(topics, "perplexity", lambda *args: calls.append(args))
    (fitted,) = monthly_side_topics(march, config, min_df=2)
    assert not fitted.skipped
    assert calls == []


# ---------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    matrix = two_cluster_matrix()
    model = fit_lda(matrix, LdaConfig(k=2, batch_size=8, epochs=2, seed=42))
    terms = [f"t{i}" for i in range(16)]
    vocab = Vocabulary(terms=tuple(terms), df=(5,) * 16, n_docs=40)
    path = tmp_path / "model.json"
    save_topic_model(model, vocab, path)
    payload = json.loads(path.read_text())
    assert np.array_equal(np.array(payload["lambda"]), model.lam)
    assert payload["config"] == dataclasses.asdict(model.config)
    assert payload["vocab"] == terms
    assert payload["df"] == [5] * 16
    assert payload["n_docs"] == 40
    assert payload["epoch_perplexities"] == model.epoch_perplexities
    assert len(payload["epoch_perplexities"]) == 2
    assert payload["epoch_cap_hits"] == model.epoch_cap_hits

