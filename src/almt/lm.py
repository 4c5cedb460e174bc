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

    def train(self, corpus: Corpus):
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

    def _event_vocab_size(self) -> int:
        return len(self.vocab) + 2  # UNK and EOS

    def _map(self, token: str) -> str:
        if token in self.vocab or token in (EOS,):
            return token
        return UNK

    def prob(self, word: str, history) -> float:
        """P(word | history) interpolating orders 1..order with equal weight."""
        word = self._map(word)
        history = tuple(BOS if t == BOS else self._map(t) for t in history)[-(self.order - 1):] \
            if self.order > 1 else ()
        v = self._event_vocab_size()
        total = 0.0
        for m in range(1, self.order + 1):
            h = history[len(history) - (m - 1):] if m > 1 else ()
            num = self.counts[m][h][word] + ADD_K
            den = self.totals[m][h] + ADD_K * v
            total += num / den
        return total / self.order

    def logprob(self, tokens) -> float:
        """Log-probability of a sentence with boundary markers."""
        padded = (BOS,) * (self.order - 1) + tuple(tokens) + (EOS,)
        lp = 0.0
        for pos in range(self.order - 1, len(padded)):
            lp += math.log(self.prob(padded[pos], padded[max(0, pos - self.order + 1):pos]))
        return lp


def train_lm(U: Corpus, order: int = 3) -> NGramLM:
    if len(U) == 0:
        raise ValueError("training corpus is empty")
    return NGramLM(order).train(U)
