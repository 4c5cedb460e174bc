"""Dict reference for `almt.lm.NGramLM`.

The model as it was before it coded its corpus: counts in nested dicts keyed
by token tuples, ``prob`` interpolating their add-k estimates, and a
``logprob`` of one sentence that sums memoised log P(w | h) terms left to
right. Slow, and used only by tests: they require float.hex-equal
log-probabilities from both, and check on ``prob`` that each conditional
distribution sums to 1.
"""

import math
from collections import defaultdict

from almt.lm import ADD_K, BOS, EOS, UNK


class NGramLM:
    def __init__(self, corpus, order: int = 3):
        """The model fitted to ``corpus``."""
        self.order = order
        self.vocab = set()
        # counts[m][history][word] with |history| = m-1
        self.counts = [None] + [defaultdict(lambda: defaultdict(int)) for _ in range(order)]
        self.totals = [None] + [defaultdict(int) for _ in range(order)]
        self.log_terms = {}  # raw n-gram (history + word) -> log P(word | history)
        for sent in corpus.values():
            self.vocab.update(sent)
        for sent in corpus.values():
            tokens = (BOS,) * (self.order - 1) + sent + (EOS,)
            for pos in range(self.order - 1, len(tokens)):
                w = tokens[pos]
                for m in range(1, self.order + 1):
                    h = tokens[pos - m + 1:pos]
                    self.counts[m][h][w] += 1
                    self.totals[m][h] += 1

    def _map(self, token: str) -> str:
        return token if token in self.vocab or token == EOS else UNK

    def prob(self, word: str, history) -> float:
        """P(word | history) interpolating orders 1..order with equal weight."""
        word = self._map(word)
        history = tuple(BOS if t == BOS else self._map(t) for t in history)[-(self.order - 1):] \
            if self.order > 1 else ()
        v = len(self.vocab | {UNK, EOS})  # events: the vocabulary, UNK and EOS, each once
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
