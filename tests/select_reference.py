"""Tuple-key references for the phrase rankings of `almt.select`.

Each ranks phrases as tuples of strings, read from Counter indexes, as the
strategies did before they ranked integer n-gram ids: NGF by (-count,
length, phrase) and random-phrase by a seeded shuffle of the (length,
phrase)-sorted pool. Used only by tests, which require the same rankings
from both.
"""

import random


def ngf_order(index_U, index_L, candidates=None):
    """The U phrases absent from L (restricted to ``candidates``), most frequent first."""
    pool = (p for p in (index_U if candidates is None else candidates) if p not in index_L)
    return sorted(pool, key=lambda p: (-index_U[p], len(p), p))


def random_phrase_order(index_U, index_L, seed):
    """The U phrases absent from L in the order random-phrase draws them."""
    pool = sorted((p for p in index_U if p not in index_L), key=lambda p: (len(p), p))
    random.Random(seed).shuffle(pool)
    return pool
