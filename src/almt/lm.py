"""Interpolated add-k n-gram language model over a tokenized corpus.

Conditional distributions range over the training vocabulary plus UNK and the
end-of-sentence marker, each counted once when the corpus holds it literally,
and sum to 1 by construction. Used only to rank augmentation candidates, so
the smoothing scheme favors simplicity.

The model works on integer codes, one per token string of the training corpus
plus BOS, EOS and UNK. An n-gram packs into one int64 whose base-V digits
(V codes) are its tokens' codes, oldest first, so its last m digits are its
m-gram suffix. A model is fitted once, when it is built: it counts each
order's n-grams and histories with ``np.unique``, and scoring looks them up
with ``np.searchsorted``.
"""

import math
from itertools import chain, repeat

import numpy as np

from .corpus import Corpus

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
ADD_K = 0.1  # the pseudo-count added to every event
MARKERS = {BOS: 0, EOS: 1, UNK: 2}  # token string -> code, before the corpus's own
_END = np.iinfo(np.int64).max  # every table's last key, above any n-gram's: no lookup runs off the end


def _table(keys):
    """(sorted distinct keys then _END, the count of each then 0)."""
    known, counts = np.unique(keys, return_counts=True)
    return np.append(known, _END), np.append(counts, 0)


def _count(table, keys):
    """The count ``table`` holds for each of ``keys``, 0 for a key it lacks. The
    keys are looked up in ascending order, so the binary searches read ``table``
    in one sweep, and their counts are put back in the keys' order."""
    known, counts = table
    order = np.argsort(keys, kind="stable")
    ascending = keys[order]
    at = np.searchsorted(known, ascending)
    found = np.empty(len(keys), counts.dtype)
    found[order] = np.where(known[at] == ascending, counts[at], 0)
    return found


class NGramLM:
    def __init__(self, corpus: Corpus, order: int = 3):
        """The model fitted to ``corpus``."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = order
        sentences = list(corpus.values())
        types = dict.fromkeys(chain.from_iterable(sentences))  # in first-occurrence order
        self.vocab = frozenset(types)
        self.codes = dict(MARKERS)
        for token in types:
            self.codes.setdefault(token, len(self.codes))
        if len(self.codes) ** self.order >= 2 ** 63:
            raise ValueError(f"{len(self.codes)} token codes overflow an order-{self.order} "
                             f"n-gram key of 63 bits")
        # A literal BOS is the boundary marker in a history, but as a word it is
        # UNK unless the corpus holds it (the training stream is read raw).
        self._word_bos = MARKERS[BOS] if BOS in self.vocab else MARKERS[UNK]
        grams, _ = self._grams(sentences)
        v = len(self.codes)
        # per order m: the table of its m-grams and the table of their histories
        self.tables = [(_table(grams % v ** m), _table(grams // v % v ** (m - 1)))
                       for m in range(1, self.order + 1)]

    def _grams(self, sentences):
        """The packed order-gram ending at each term of ``sentences``, each padded
        with order - 1 BOS and an EOS, in order; and each sentence's term count."""
        sizes = np.fromiter(map(len, sentences), np.int64, len(sentences)) + 1  # tokens and EOS
        n_terms, pad, v = int(sizes.sum()), self.order - 1, len(self.codes)
        words = np.full(n_terms, MARKERS[EOS], np.int64)
        is_token = np.ones(n_terms, bool)
        is_token[np.cumsum(sizes) - 1] = False
        words[is_token] = np.fromiter(
            map(self.codes.get, chain.from_iterable(sentences), repeat(MARKERS[UNK])),
            np.int64, n_terms - len(sizes))
        stream = np.full(n_terms + pad * len(sizes), MARKERS[BOS], np.int64)
        at = np.arange(n_terms) + pad * np.repeat(np.arange(1, len(sizes) + 1), sizes)
        stream[at] = words
        grams = np.zeros(n_terms, np.int64)
        for back in range(pad, 0, -1):
            grams = grams * v + stream[at - back]
        return grams * v + np.where(words == MARKERS[BOS], self._word_bos, words), sizes

    def _probs(self, grams):
        """P(w | h) of each packed order-gram (history and word): the mean over
        orders 1..order of (count + ADD_K) / (total + ADD_K * |events|), added in
        order from 0.0."""
        # events: every code a word can take, BOS's only when the corpus holds "<s>"
        v = len(self.codes)
        events = ADD_K * (v - (self._word_bos != MARKERS[BOS]))
        total = np.zeros(len(grams))
        for m, (ngrams, histories) in enumerate(self.tables, 1):
            total += (_count(ngrams, grams % v ** m) + ADD_K) / \
                (_count(histories, grams // v % v ** (m - 1)) + events)
        return total / self.order

    def logprob(self, sentences):
        """Log-probability of each of ``sentences`` with boundary markers, as a
        float64 array. The term log P(w | h) of each distinct n-gram is computed
        once, with math.log; a sentence's terms add left to right."""
        grams, sizes = self._grams(sentences)
        distinct, inverse = np.unique(grams, return_inverse=True)
        terms = np.array([math.log(p) for p in self._probs(distinct).tolist()])
        # one column per sentence, its terms from the top and 0.0 below them
        columns = np.zeros((sizes.max(initial=1), len(sizes)))
        columns.T[np.arange(columns.shape[0]) < sizes[:, None]] = terms[inverse]
        return np.add.accumulate(columns)[-1]


def train_lm(U: Corpus, order: int = 3) -> NGramLM:
    if len(U) == 0:
        raise ValueError("training corpus is empty")
    return NGramLM(U, order)
