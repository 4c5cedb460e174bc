import tracemalloc

import numpy as np
import pytest

from almt.embed import EmbeddingStore, RatioScorer
from almt.errors import DegenerateNeighborhoodError, DegenerateVectorError, ParseError
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
    with pytest.raises(DegenerateVectorError):
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


def _reference_rows(a, b, k, mode):
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
                ratios[y] = ratio_score(x, y, a, b, k, mode)
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


def test_ratio_scorer_matches_scalar_reference():
    a, b = _edge_case_stores()
    for mode, k in (("cross", 3), ("same", 3), ("cross", 20), ("same", 20)):  # 20: truncated
        rows, best = _reference_rows(a, b, k, mode)
        scorer = RatioScorer(a, b, k=k, neighbor_mode=mode)
        mins, skipped = scorer.min_over_b()
        maxs, skipped_max = scorer.max_over_b()
        assert skipped == skipped_max == [x for x in a.ids if rows[x] is None], mode
        assert 36 in skipped and 36 not in a.degenerate_ids, (mode, k)
        for x, row in rows.items():
            if row is not None:
                assert mins[x] == pytest.approx(row[0]) and maxs[x] == pytest.approx(row[1])
            if best[x] is None:
                with pytest.raises(DegenerateNeighborhoodError):
                    scorer.argmax_over_b(x)
            else:
                b_id, value = scorer.argmax_over_b(x)
                assert b_id == best[x][0] and value == pytest.approx(best[x][1]), (mode, k, x)
        assert best[9][0] == 5, (mode, k)


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


def test_ratio_scorer_block_size_is_bit_identical():
    # BLAS sums a product in an order that depends on its shape (a one-row
    # block is a matrix-vector product), so the stores have exact cosines:
    # equality then checks the kernel's block boundaries, masks,
    # self-exclusion offsets and tie-breaks.
    rng = np.random.default_rng(11)
    a = _lattice_store(rng, 40, [int(i) for i in rng.permutation(1000)[:40]], "a")
    b = _lattice_store(rng, 30, [int(i) for i in rng.permutation(1000)[:30]], "b")
    for mode in ("cross", "same"):
        outputs = [_scorer_outputs(RatioScorer(a, b, k=3, neighbor_mode=mode, block=block))
                   for block in (1, 7, 512, len(a) + 1)]
        (mins, skipped), _, argmax, _, _ = outputs[0]
        assert mins and skipped and None in argmax.values(), mode
        for other in outputs[1:]:
            assert repr(other) == repr(outputs[0]), mode


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


def test_store_roundtrip(tmp_path):
    s = store([[1.25, -0.5], [0.0, 3.0]], "t")
    path = tmp_path / "emb.tsv"
    s.save(path)
    loaded = EmbeddingStore.load(path, "t")
    assert loaded.ids == s.ids
    assert np.array_equal(loaded.matrix, s.matrix)


def test_store_bad_header(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("hello\n")
    with pytest.raises(ParseError):
        EmbeddingStore.load(p)


def test_store_rejects_nan():
    with pytest.raises(ValueError):
        store([[float("nan"), 1.0]])
