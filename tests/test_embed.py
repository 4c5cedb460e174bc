import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import embed_reference
from almt.embed import EmbeddingStore, RatioScorer
from almt.errors import DegenerateNeighborhoodError, ParseError
from ratio_reference import cosine, dist_to_labeled, knn, nearest_similarity, ratio_score


def store(vectors, tag="s"):
    return EmbeddingStore(list(range(len(vectors))), np.array(vectors, dtype=float), tag)


def test_cosine_identical():
    assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_cosine_scale_invariant():
    assert cosine([1.0, 2.0], [3.0, 6.0]) == pytest.approx(1.0)


def test_cosine_zero_vector_raises():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_knn_single_point():
    pool = store([[1, 0], [0, 1]])
    assert knn(0, pool, k=5) == [(1, pytest.approx(0.0))]


def test_knn_full_pool_when_k_large():
    pool = store([[1, 0], [0.6, 0.8], [0, 1], [1, 0.1]])
    result = knn(0, pool, k=10)
    assert [sid for sid, _ in result] == [3, 1, 2]


def test_knn_hand_computed_order():
    # cosines to query (1,0): id1=0.6, id2=0.0, id3=0.994.., id4=0.8
    pool = store([[1, 0], [0.6, 0.8], [0, 1], [0.995, 0.1], [0.8, 0.6]])
    result = knn(0, pool, k=3)
    assert [sid for sid, _ in result] == [3, 4, 1]
    cosines = [c for _, c in result]
    assert cosines == sorted(cosines, reverse=True)


def test_knn_excludes_query_only_in_own_pool():
    pool = store([[1, 0], [1, 0], [0, 1]])
    ids = [sid for sid, _ in knn(0, pool, k=3)]
    assert 0 not in ids and 1 in ids  # exact duplicate vector stays


def test_ratio_uniform_cosines_is_one():
    a = store([[2, 0], [1, 0]], "a")
    b = store([[3, 0], [5, 0]], "b")
    assert ratio_score(0, 0, a, b, k=1) == pytest.approx(1.0, abs=1e-9)


def test_ratio_hand_computed():
    # pool_a: a=(1,0), d=(0.8,0.6); pool_b: b=(0.6,0.8), c=(0,1)
    a = store([[1, 0], [0.8, 0.6]], "a")
    b = store([[0.6, 0.8], [0, 1]], "b")
    # NN_1(a) in b: cos(a,b)=0.6; NN_1(b) in a: cos(b,d)=0.96
    # ratio = 0.6 / ((0.6 + 0.96)/2) = 0.76923...
    assert ratio_score(0, 0, a, b, k=1) == pytest.approx(0.6 / 0.78)


def test_ratio_scale_invariant():
    a = store([[1, 0], [0.8, 0.6]], "a")
    b = store([[0.6, 0.8], [0, 1]], "b")
    a2 = store([[7, 0], [5.6, 4.2]], "a")
    b2 = store([[1.2, 1.6], [0, 0.25]], "b")
    assert ratio_score(0, 0, a, b, k=1) == pytest.approx(ratio_score(0, 0, a2, b2, k=1))


def test_ratio_symmetric():
    a = store([[1, 0], [0.8, 0.6]], "a")
    b = store([[0.6, 0.8], [0, 1]], "b")
    assert ratio_score(0, 1, a, b, k=1) == pytest.approx(ratio_score(1, 0, b, a, k=1))


def _all_ratios(a, b, k):
    return {(i, j): ratio_score(i, j, a, b, k) for i in range(len(a)) for j in range(len(b))}


def test_dist_to_labeled_singleton():
    a = store([[1, 0]], "a")
    b = store([[0.6, 0.8]], "b")
    assert dist_to_labeled(0, a, b, k=1) == pytest.approx(ratio_score(0, 0, a, b, k=1))


def test_dist_to_labeled_literal_and_nn_modes():
    a = store([[1, 0], [0.9, 0.3]], "a")
    b = store([[0.6, 0.8], [0, 1], [0.9, 0.1]], "b")
    ratios = [_all_ratios(a, b, 2)[(0, j)] for j in range(3)]
    assert dist_to_labeled(0, a, b, k=2, mode="literal") == pytest.approx(min(ratios))
    assert dist_to_labeled(0, a, b, k=2, mode="nn") == pytest.approx(max(ratios))


def test_nearest_similarity_duplicate_vector():
    a = store([[2, 0]], "a")
    pool = store([[1, 0], [1, 0]], "b")  # uniform neighborhoods, duplicate of query direction
    assert nearest_similarity(0, a, pool, k=1) == pytest.approx(1.0)


def test_nearest_similarity_is_max_of_ratios():
    a = store([[1, 0], [0.5, 0.5]], "a")
    pool = store([[0.6, 0.8], [0, 1], [1, 0.2]], "b")
    expected = max(_all_ratios(a, pool, 1)[(0, j)] for j in range(3))
    assert nearest_similarity(0, a, pool, k=1) == pytest.approx(expected)


def _reference_rows(a, b, k):
    """A id -> (min, max) or None when skipped, and A id -> (best B id, ratio) or None.

    Built pair by pair from the scalar reference, with the scorer's rules:
    degenerate B members leave the pool, a degenerate A row or a
    non-positive denominator against any usable B member skips the row, and
    the argmax takes every pair that has a ratio, ties to the lowest B id.
    """
    pool = [y for y in b.ids if y not in b.degenerate_ids]
    rows, best = {}, {}
    for x in a.ids:
        if x in a.degenerate_ids:
            rows[x] = best[x] = None
            continue
        ratios, complete = {}, bool(pool)
        for y in pool:
            try:
                ratios[y] = ratio_score(x, y, a, b, k)
            except DegenerateNeighborhoodError:
                complete = False
        rows[x] = (min(ratios.values()), max(ratios.values())) if complete else None
        top = max(ratios, key=lambda y: (ratios[y], -y)) if ratios else None
        best[x] = (top, ratios[top]) if ratios else None
    return rows, best


def _edge_case_stores():
    """Stores that hold every case the kernel must get right.

    Most vectors sit in a cone around e1. A row 9 and B row 7 point the other
    way, so their neighbourhood means are negative and the pair's
    denominator is not positive: A row 9 is skipped although it is not
    degenerate. A row 10 and B row 8 are zero vectors. B row 9 is B row 2
    doubled, so the two tie for every A row; B ids are not ascending and the
    later column has the lower id (5 < 31). A row 11 is nearest that pair.
    """
    rng = np.random.default_rng(23)
    e1 = np.eye(5)[0]
    mat_a = np.vstack([e1 + 0.1 * rng.normal(size=(9, 5)), -e1 + 0.1 * rng.normal(size=5),
                       np.zeros(5), np.zeros(5)])
    mat_b = np.vstack([e1 + 0.1 * rng.normal(size=(7, 5)), -e1 + 0.1 * rng.normal(size=5),
                       np.zeros(5), np.zeros(5)])
    mat_b[9] = 2.0 * mat_b[2]
    mat_a[11] = mat_b[2] + 0.01 * rng.normal(size=5)
    a = EmbeddingStore([70, 11, 42, 3, 98, 25, 61, 14, 87, 36, 50, 9], mat_a, "a")
    b = EmbeddingStore([50, 12, 31, 44, 8, 27, 39, 16, 61, 5], mat_b, "b")
    return a, b


def _assert_matches_reference(scorer, k):
    a, b = scorer.a, scorer.b
    rows, best = _reference_rows(a, b, k)
    mins, skipped = scorer.min_over_b()
    maxs, skipped_max = scorer.max_over_b()
    assert skipped == skipped_max == [x for x in a.ids if rows[x] is None], k
    for x, row in rows.items():
        if row is not None:
            assert mins[x] == pytest.approx(row[0]) and maxs[x] == pytest.approx(row[1])
        if best[x] is None:
            with pytest.raises(DegenerateNeighborhoodError):
                scorer.argmax_over_b(x)
        else:
            b_id, value = scorer.argmax_over_b(x)
            assert b_id == best[x][0] and value == pytest.approx(best[x][1]), (k, x)
    return skipped, best


def test_ratio_scorer_matches_scalar_reference():
    # The transposed view of a B x A scorer shares its means and makes its own pass 2.
    a, b = _edge_case_stores()
    for k in (3, 20):  # 20: truncated
        for scorer in (RatioScorer(a, b, k=k), RatioScorer(b, a, k=k).T):
            skipped, best = _assert_matches_reference(scorer, k)
            assert 36 in skipped and 36 not in a.degenerate_ids, k
            assert scorer.skip_counts() == {"zero-norm": 1, "non-positive-margin": len(skipped) - 1}
            assert best[9][0] == 5, k


def test_finite_blocks_and_fallback_blocks_both_match_scalar_reference():
    # Without degenerate B columns, a block whose ratios are all finite takes
    # one min, max and argmax; A row 9 (id 36, non-positive margin) and the
    # zero A row put their blocks on the NaN-aware fallback. Two-row blocks
    # mix a finite row with each of them.
    a, full_b = _edge_case_stores()
    b = full_b.subset([y for y in full_b.ids if y not in full_b.degenerate_ids])
    for block in (1, 2, len(a) + 1):
        skipped, _ = _assert_matches_reference(RatioScorer(a, b, k=3, block=block), 3)
        assert skipped == [36, 50], block


def _lattice_store(rng, n, ids, tag):
    """Vectors with 1 or 4 entries of +-1, scaled by powers of two, plus zero rows.

    Unit components are 0, +-1/2 or +-1, so every cosine is exact and no
    result depends on the order in which a BLAS product sums.
    """
    mat = np.zeros((n, 8))
    for row in mat[:-2]:
        nonzero = rng.choice(8, size=rng.choice([1, 4]), replace=False)
        row[nonzero] = rng.choice([-1.0, 1.0], size=nonzero.size) * 2.0 ** rng.integers(-3, 4)
    return EmbeddingStore(ids, mat, tag)


def _scorer_outputs(scorer):
    argmax = {}
    for x in scorer.a.ids:
        try:
            argmax[x] = scorer.argmax_over_b(x)
        except DegenerateNeighborhoodError:
            argmax[x] = None
    return (scorer.min_over_b(), scorer.max_over_b(), argmax,
            scorer.mean_a.tolist(), scorer.mean_b.tolist())


def _lattice_stores(seed=11):
    rng = np.random.default_rng(seed)
    a = _lattice_store(rng, 40, [int(i) for i in rng.permutation(1000)[:40]], "a")
    b = _lattice_store(rng, 30, [int(i) for i in rng.permutation(1000)[:30]], "b")
    return a, b


def test_ratio_scorer_block_size_is_bit_identical():
    # BLAS sums a product in an order that depends on its shape (a one-row
    # block is a matrix-vector product), so the stores have exact cosines:
    # equality then checks the kernel's block boundaries, masks, running
    # top-k merge and tie-breaks. Without degenerate B columns, one-row
    # blocks of usable rows take the finite-block path while the whole-A
    # block takes the NaN-aware fallback, so both must agree bit for bit. The
    # transposed view of a B x A scorer, its means taken in the other
    # orientation, must agree too.
    a, full_b = _lattice_stores()
    for b in (full_b, full_b.subset([y for y in full_b.ids if y not in full_b.degenerate_ids])):
        outputs = [_scorer_outputs(scorer) for block in (1, 7, 512, len(a) + 1)
                   for scorer in (RatioScorer(a, b, k=3, block=block),
                                  RatioScorer(b, a, k=3, block=block).T)]
        (mins, skipped), _, argmax, _, _ = outputs[0]
        assert mins and skipped and None in argmax.values(), len(b)
        for other in outputs[1:]:
            assert repr(other) == repr(outputs[0]), len(b)


def _reference_means(query, pool, k, cos=None):
    """Each query point's mean cosine to its k nearest usable pool points.

    The top k of a partition of query x pool cosines, sorted ascending and
    averaged; NaN for a degenerate query point or an empty pool. By default
    the cosines are computed in the orientation the scorer does not use for
    B (B x A), which exact cosines make safe to compare.
    """
    keep = [i for i, sid in enumerate(pool.ids) if sid not in pool.degenerate_ids]
    cos = (query.unit @ pool.unit.T if cos is None else cos)[:, keep]
    n = len(keep)
    means = []
    for sid, row in zip(query.ids, cos):
        if sid in query.degenerate_ids or not n:
            means.append(float("nan"))
            continue
        kk = min(k, n)
        means.append(float(np.sort(np.partition(row, n - kk)[n - kk:]).mean()))
    return means


def test_one_sweep_means_match_partitioned_reference():
    rng = np.random.default_rng(4)
    a, b = _lattice_stores()
    small = _lattice_store(rng, 5, [3, 1, 4, 15, 9], "small")  # 3 usable points
    zero = EmbeddingStore([8, 2], np.zeros((2, 8)), "zero")
    for left, right in ((a, b), (b, a), (a, small), (small, b), (zero, b), (a, zero)):
        for k in (1, 3, 4, 40):  # 4 and 40: fewer usable points than k
            for block in (1, 7, len(left) + 1):
                scorer = RatioScorer(left, right, k=k, block=block)
                assert repr(scorer.mean_a.tolist()) == repr(_reference_means(left, right, k)), \
                    (left.tag, right.tag, k, block)
                assert repr(scorer.mean_b.tolist()) == repr(_reference_means(right, left, k)), \
                    (left.tag, right.tag, k, block)


def test_means_average_the_top_k_in_ascending_order():
    # Random cosines, taken from the scorer's own product blocks so that both
    # sides see the same floats: equality pins the summation order of the
    # mean, for A's rows and B's columns alike. With k = 50 over 3,000
    # columns, np.partition leaves some of A's tails unsorted.
    rng = np.random.default_rng(9)
    a = store(rng.normal(size=(60, 6)), "a")
    narrow, wide = store(rng.normal(size=(45, 6)), "b"), store(rng.normal(size=(3000, 6)), "wide")
    cases = [(narrow, k, block) for k in (3, 5, 9) for block in (1, 7, None)] + [(wide, 50, None)]
    for b, k, block in cases:
        scorer = RatioScorer(a, b, k=k, block=block)
        cos = np.vstack([sims for _, sims in scorer._products(a.unit, b.unit)])
        assert repr(scorer.mean_a.tolist()) == repr(_reference_means(a, b, k, cos)), (k, block)
        assert repr(scorer.mean_b.tolist()) == repr(_reference_means(b, a, k, cos.T)), (k, block)


def test_build_and_reductions_run_two_product_sweeps(monkeypatch):
    rows_per_sweep = []
    products = RatioScorer._products

    def spy(self, left, right):
        rows_per_sweep.append(0)
        for start, block in products(self, left, right):
            rows_per_sweep[-1] += len(block)
            yield start, block

    monkeypatch.setattr(RatioScorer, "_products", spy)
    a, b = _lattice_stores()
    for block in (1, 7, None, len(a) + 1):
        rows_per_sweep.clear()
        scorer = RatioScorer(a, b, k=3, block=block)
        _scorer_outputs(scorer)
        assert rows_per_sweep == [len(a), len(a)], block
        # the transposed view reuses pass 1 and adds only its own pass 2, over B's rows
        _scorer_outputs(scorer.T)
        assert rows_per_sweep == [len(a), len(a), len(b)], block
        assert scorer.T.T is scorer


def test_ratio_scorer_memory_is_bounded():
    rng = np.random.default_rng(5)
    a = store(rng.normal(size=(2000, 8)), "a")
    b = store(rng.normal(size=(1500, 8)), "b")
    tracemalloc.start()
    try:
        RatioScorer(a, b, k=4).min_over_b()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 1500 * 8 / 4


def test_infinite_ratio_is_kept_by_max_and_skipped_by_argmax():
    # Real cosines cannot give a denominator this small, so the means are set
    # directly: the ratio to b id 0 overflows, and the all-finite fast path
    # must hand the block to the fallback, whose argmax skips it.
    scorer = RatioScorer(store([[1.0, 0.0]], "a"), store([[1.0, 0.0], [0.6, 0.8]], "b"), k=1)
    scorer.mean_a, scorer.mean_b = np.array([1e-320]), np.array([1e-320, 0.5])
    assert scorer.max_over_b() == ({0: np.inf}, [])
    assert scorer.argmax_over_b(0) == (1, 0.6 / ((1e-320 + 0.5) / 2.0))


def test_degenerate_rows_skipped():
    a = store([[1, 0], [0, 0]], "a")
    b = store([[0.5, 0.5], [1, 0]], "b")
    scores, skipped = RatioScorer(a, b, k=1).min_over_b()
    assert skipped == [1] and 0 in scores


def test_pool_without_usable_members_skips_every_row():
    scorer = RatioScorer(store([[1, 0], [0, 1]], "a"), store([[0, 0]], "b"), k=1)
    assert scorer.min_over_b() == scorer.max_over_b() == ({}, [0, 1])
    with pytest.raises(DegenerateNeighborhoodError):
        scorer.argmax_over_b(0)
    assert scorer.skip_counts() == {"zero-norm": 2, "non-positive-margin": 0}


def test_store_load(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("dim=2\n4\t1.25 -0.5\n\n1\t0.0 3.0\n", encoding="utf-8")
    loaded = EmbeddingStore.load(path, "t")
    assert loaded.ids == [4, 1] and loaded.dim == 2
    assert np.array_equal(loaded.matrix, [[1.25, -0.5], [0.0, 3.0]])
    assert loaded.degenerate_ids == set()


def test_store_bad_header(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("hello\n")
    with pytest.raises(ParseError):
        EmbeddingStore.load(p)


@pytest.mark.parametrize("text, where", [
    # a header whose D is not a positive integer
    *(pytest.param(f"{header}\n0\t1.0 2.0\n", ":1: expected 'dim=D' header", id=header or "empty")
      for header in ["", "hello", "dim=", "dim=0", "dim=-2", "dim=eight", "dim=2.0", "dim 2", "dims=2"]),
    # a vector line whose id or components do not parse
    *(pytest.param(f"dim=2\n{line}\n", ":2: malformed embedding line", id=line)
      for line in ["abc\t1.0 2.0", "0\t1.0 x", "0 1.0 2.0"]),
])
def test_store_malformed_header_or_line_is_a_parse_error_naming_the_line(text, where, tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(p) + where)}"):
        EmbeddingStore.load(p)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# Components as encoders and scripts write them, plus tokens float() reads and
# numpy's C reader does not: digit-group underscores and non-ASCII digits.
_component = st.one_of(_finite.map(repr), _finite.map(lambda x: f"{x:.8f}"), _finite.map(lambda x: f"{x:g}"),
                       st.integers(0, 10**7).map(lambda v: f"{v:_}"), st.just("1_0"),
                       st.integers(0, 999).map(lambda v: f"{v}.5".translate(_ARABIC_INDIC)))
_space = st.sampled_from([" ", "  ", "   ", "\xa0", "\x0b", "\u2003"])
_blank = st.sampled_from(["", " ", "  \t ", "\xa0"])
# Lines the reference rejects at any D from 1 to 5: no tab, two tabs, an id that
# is not an integer, a short or long row, a "#" token, a hexadecimal token.
_malformed = st.sampled_from(["1.0 2.0", "0\t1.0\t2.0", "x\t1.0 2.0", "7\t", "7\t1 2 3 4 5 6 7",
                              "7\t# 1.0", "7\t0x10 1.0"])


@st.composite
def _embedding_file(draw):
    """The text of an embedding file: its header, vector lines of distinct ids
    with varied spacing, blank lines, LF or CRLF endings and, sometimes, malformed lines."""
    dim = draw(st.integers(1, 5))
    lines = []
    for sid in draw(st.lists(st.integers(-10**6, 10**6), max_size=8, unique=True)):
        tokens = [draw(_component) for _ in range(dim)]
        field = "".join(token + draw(_space) for token in tokens[:-1]) + tokens[-1]
        lines.append(draw(st.sampled_from(["", " "])) + f"{sid}\t" + draw(st.sampled_from(["", " "]))
                     + field + draw(st.sampled_from(["", "  "])))
    for extra in draw(st.lists(st.one_of(_blank, _malformed), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return draw(st.sampled_from(["\n", "\r\n"])).join([f"dim={dim}", *lines, ""])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_embedding_file())
def test_store_load_matches_the_float_reference_bit_for_bit(text, tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_bytes(text.encode("utf-8"))
    try:
        ids, matrix = embed_reference.load(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            EmbeddingStore.load(path)
        assert str(got.value) == str(exc)
        return
    loaded = EmbeddingStore.load(path)
    assert loaded.ids == ids and loaded.matrix.shape == matrix.shape
    assert np.array_equal(loaded.matrix.view(np.uint64), matrix.view(np.uint64))


@pytest.mark.parametrize("lines", [
    "1.0 2.0", "0\t1.0\t2.0", "x\t1.0 2.0", "7\t1.0", "7\t1.0 2.0 3.0", "7\t# 2.0", "7\t0x10 2.0",
    # a short or long row before a line with no tab: the earlier line is named
    "0\t1.0 2.0\n7\t1.0\n1.0 2.0", "7\t1.0 2.0 3.0\n1.0 2.0",
], ids=["no-tab", "two-tabs", "non-integer-id", "short-row", "long-row", "hash-token", "hex-token",
        "short-row-first", "long-first-row-first"])
def test_store_malformed_line_raises_the_reference_message(lines, tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(f"dim=2\n\n{lines}\n3\t1.0 2.0\n")
    with pytest.raises(ParseError) as expected:
        embed_reference.load(p)
    with pytest.raises(ParseError, match=f"^{re.escape(str(expected.value))}$"):
        EmbeddingStore.load(p)


@pytest.mark.parametrize("body, where", [
    ("0\t1.0 2.0\n1\tnan 2.0\n", ":3: NaN or Inf component"),
    ("0\t1.0 2.0\n\n1\t1.0 1e400\n", ":4: NaN or Inf component"),
    ("1\t1.0 2.0\n0\t1.0 2.0\n\n1\t3.0 4.0\n0\t3.0 4.0\n", ":5: duplicate id 1"),
    ("0\t1.0 2.0\n0\t1.0 2.0\n1\t-inf 2.0\n", ":3: duplicate id 0"),
    ("0\t1.0 2.0\n1\t-inf 2.0\n0\t1.0 2.0\n", ":3: NaN or Inf component"),
], ids=["nan", "overflow-to-inf", "duplicate-id", "duplicate-before-inf", "inf-before-duplicate"])
def test_store_load_names_the_first_non_finite_or_repeated_line(body, where, tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("dim=2\n" + body)
    with pytest.raises(ParseError, match=f"^{re.escape(str(p) + where)}$"):
        EmbeddingStore.load(p)


@pytest.mark.filterwarnings("error")
def test_store_load_with_no_components_at_all_raises_without_a_numpy_warning(tmp_path):
    p = tmp_path / "blank.tsv"
    p.write_text("dim=2\n0\t \n1\t\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:2: expected 2 components, got 0$"):
        EmbeddingStore.load(p)


def test_store_load_header_only_is_empty(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("dim=3\n\n  \n")
    loaded = EmbeddingStore.load(p)
    assert loaded.ids == [] and loaded.matrix.shape == (0, 3) and loaded.dim == 3


def test_store_rejects_nan():
    with pytest.raises(ValueError):
        store([[float("nan"), 1.0]])


@pytest.mark.filterwarnings("error")
def test_store_normalises_rows_whose_plain_norm_overflows_or_underflows():
    s = EmbeddingStore([1, 2, 3, 4, 5, 6], [[1e200, -1e200], [1.0, -1.0], [1e-200, -1e-200], [0.0, 0.0],
                                            [1.7e308, -1.7e308], [5e-324, -5e-324]])
    half = np.sqrt(0.5)
    for sid in (1, 2, 3, 5, 6):
        assert s.unit[s.row[sid]] == pytest.approx([half, -half], rel=1e-15)
    assert s.degenerate_ids == {4} and not s.unit[s.row[4]].any()


def test_store_keeps_the_unit_bits_of_rows_with_a_finite_non_zero_norm():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-150, 150, size=(50, 1))
    norms = np.linalg.norm(matrix, axis=1)
    unit = EmbeddingStore(range(50), matrix).unit
    assert np.array_equal(unit.view(np.uint64), (matrix / norms[:, None]).view(np.uint64))
