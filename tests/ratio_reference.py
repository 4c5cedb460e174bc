"""Scalar ratio-score reference for the blocked `RatioScorer` kernel.

One pair at a time, straight from the definition: the cosine of a pair over
the mean of both points' k-nearest-neighbour cosines. Slow, and used only by
tests, which compare the kernel against it.
"""

import numpy as np

from almt.embed import EmbeddingStore


class NoRatioError(Exception):
    """A pair, or a whole row, has no ratio: an empty neighbour pool, a
    non-positive denominator or no pair with a ratio."""


def cosine(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _topk_mean(cosines: np.ndarray, k: int) -> float:
    """Mean of the k largest entries (truncated when fewer are available)."""
    if cosines.size == 0:
        raise NoRatioError("empty neighbor pool")
    k = min(k, cosines.size)
    top = np.partition(cosines, cosines.size - k)[cosines.size - k:]
    return float(top.mean())


def _unit(store: EmbeddingStore, sid):
    if not store.usable[store.row[sid]]:
        raise ValueError(f"zero-norm vector for id {sid} in store {store.tag!r}")
    return store.unit[store.row[sid]]


def _pool_cosines(query_unit, pool: EmbeddingStore, exclude_id=None):
    cos = pool.unit @ query_unit
    keep = pool.usable.copy()
    if exclude_id is not None and exclude_id in pool.row:
        keep[pool.row[exclude_id]] = False
    return cos, keep


def knn(query, pool: EmbeddingStore, k: int, query_store: EmbeddingStore = None):
    """Top-k pool entries by cosine to the query, ties by ascending id.

    The query is excluded from its own neighbor list when it lives in `pool`
    (the default when query_store is omitted).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    store = query_store or pool
    if query not in store.row:
        raise KeyError(f"query id {query} not in store {store.tag!r}")
    q = _unit(store, query)
    exclude = query if store is pool else None
    cos, keep = _pool_cosines(q, pool, exclude_id=exclude)
    cand = [(float(np.clip(cos[i], -1.0, 1.0)), pool.ids[i]) for i in np.nonzero(keep)[0]]
    cand.sort(key=lambda t: (-t[0], t[1]))
    return [(sid, c) for c, sid in cand[:k]]


def _neighborhood_mean(query, query_store, pool, k):
    cos, keep = _pool_cosines(_unit(query_store, query), pool)
    return _topk_mean(cos[keep], k)


def ratio_score(x, x_prime, pool_x: EmbeddingStore, pool_x_prime: EmbeddingStore, k: int) -> float:
    """cos(x, x') normalized by the mean of both points' k-NN cosines.

    x's neighbors come from pool_x_prime and x_prime's neighbors from pool_x.
    """
    c = cosine(pool_x.unit[pool_x.row[x]], pool_x_prime.unit[pool_x_prime.row[x_prime]])
    m_x = _neighborhood_mean(x, pool_x, pool_x_prime, k)
    m_xp = _neighborhood_mean(x_prime, pool_x_prime, pool_x, k)
    denom = (m_x + m_xp) / 2.0
    if denom <= 0.0:
        raise NoRatioError(f"non-positive denominator {denom} for pair ({x}, {x_prime})")
    return c / denom


def ratios(x, pool_x: EmbeddingStore, pool: EmbeddingStore, k: int) -> dict:
    """pool id -> ratio_score(x, id) for each pair that has a ratio: both
    points are usable and the pair's denominator is positive."""
    out = {}
    if not pool_x.usable[pool_x.row[x]]:
        return out
    for z, usable in zip(pool.ids, pool.usable):
        if usable:
            try:
                out[z] = ratio_score(x, z, pool_x, pool, k)
            except NoRatioError:  # a non-positive denominator
                pass
    return out


def dist_to_labeled(x, pool_x: EmbeddingStore, labeled: EmbeddingStore, k: int,
                    mode: str = "literal") -> float:
    """Distance of x from a labeled pool, over the pairs that have a ratio.

    "literal" takes the minimum ratio over the labeled pool; "nn" takes the
    maximum (similarity to the nearest labeled neighbor). No pair with a
    ratio raises NoRatioError.
    """
    if len(labeled) == 0:
        raise ValueError("labeled pool is empty")
    scores = ratios(x, pool_x, labeled, k).values()
    if not scores:
        raise NoRatioError(f"no ratio for id {x}")
    return min(scores) if mode == "literal" else max(scores)


def nearest_similarity(x, pool_x: EmbeddingStore, pool: EmbeddingStore, k: int) -> float:
    """Corpus-level similarity: max ratio of x against every pool member."""
    if len(pool) == 0:
        raise ValueError("pool is empty")
    return dist_to_labeled(x, pool_x, pool, k, mode="nn")
