"""Interpolated add-k n-gram language model over a tokenized corpus.

Conditional distributions range over the training vocabulary plus UNK and the
end-of-sentence marker, and sum to 1 by construction. Used only to rank
augmentation candidates, so the smoothing scheme favors simplicity.
"""

import math
from collections import defaultdict

from .corpus import Corpus

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
ADD_K = 0.1  # the pseudo-count added to every event


class NGramLM:
    def __init__(self, order: int = 3):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = order
        self.vocab = set()
        # counts[m][history][word] with |history| = m-1
        self.counts = [None] + [defaultdict(lambda: defaultdict(int)) for _ in range(order)]
        self.totals = [None] + [defaultdict(int) for _ in range(order)]
        self.log_terms = {}  # raw n-gram (history + word) -> log P(word | history)

    def train(self, corpus: Corpus):
        self.log_terms.clear()
        for sent in corpus:
            self.vocab.update(sent.tokens)
        for sent in corpus:
            tokens = (BOS,) * (self.order - 1) + sent.tokens + (EOS,)
            for pos in range(self.order - 1, len(tokens)):
                w = tokens[pos]
                for m in range(1, self.order + 1):
                    h = tokens[pos - m + 1:pos]
                    self.counts[m][h][w] += 1
                    self.totals[m][h] += 1
        return self

    def _map(self, token: str) -> str:
        return token if token in self.vocab or token == EOS else UNK

    def prob(self, word: str, history) -> float:
        """P(word | history) interpolating orders 1..order with equal weight."""
        word = self._map(word)
        history = tuple(BOS if t == BOS else self._map(t) for t in history)[-(self.order - 1):] \
            if self.order > 1 else ()
        v = len(self.vocab) + 2  # events: the vocabulary, UNK and EOS
        total = 0.0
        for m in range(1, self.order + 1):
            h = history[len(history) - (m - 1):] if m > 1 else ()
            num = self.counts[m].get(h, {}).get(word, 0) + ADD_K
            den = self.totals[m].get(h, 0) + ADD_K * v
            total += num / den
        return total / self.order

    def logprob(self, tokens) -> float:
        """Log-probability of a sentence with boundary markers, summed left to
        right from log P(w | h) terms memoised by their raw n-gram."""
        padded = (BOS,) * (self.order - 1) + tuple(tokens) + (EOS,)
        lp = 0.0
        for pos in range(self.order - 1, len(padded)):
            ngram = padded[pos - self.order + 1:pos + 1]
            term = self.log_terms.get(ngram)
            if term is None:
                term = self.log_terms[ngram] = math.log(self.prob(ngram[-1], ngram[:-1]))
            lp += term
        return lp


def train_lm(U: Corpus, order: int = 3) -> NGramLM:
    if len(U) == 0:
        raise ValueError("training corpus is empty")
    return NGramLM(order).train(U)
