"""Unmemoised reference for `almt.lm.NGramLM.logprob`.

Each term log P(w | h) is computed afresh with `NGramLM.prob` and added left
to right, as the model did before it memoised the terms. Slow, and used only
by tests, which require float.hex-equal log-probabilities from both.
"""

import math

from almt.lm import BOS, EOS


def logprob(lm, tokens) -> float:
    """Log-probability of a sentence with boundary markers."""
    padded = (BOS,) * (lm.order - 1) + tuple(tokens) + (EOS,)
    lp = 0.0
    for pos in range(lm.order - 1, len(padded)):
        lp += math.log(lm.prob(padded[pos], padded[max(0, pos - lm.order + 1):pos]))
    return lp
