"""Loop references for IBM Model 1 in `almt.align`: EM and Viterbi linking.

`train_ibm1` works one target position at a time, over dicts keyed by
(source, target) string pairs: the E-step sums each target's probabilities
over its source tokens (NULL first), then adds every posterior to the pair's
count and the source's total. Every sum runs left to right from 0.0, in pair,
then target position, then source position order, which is the order the
array version adds in, so both give the same float for every table entry.

`align_pair` looks up every (source, target) probability in the table's
nested dicts, one target token at a time, as `almt.align` did before it
fetched each source row once per pair. Slow, and used only by tests.
"""

import math
from collections import defaultdict

from almt.align import NULL_TOKEN, TranslationTable


def _sequential_sum(values):
    """Left-to-right float sum (``sum()`` compensates from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def train_ibm1(parallel, iterations: int, reverse: bool = False) -> TranslationTable:
    """EM with uniform initialization; records corpus log-likelihood per iteration."""
    if len(parallel) == 0:
        raise ValueError("parallel corpus is empty")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    bitext = []
    tgt_vocab = set()
    for src, tgt in parallel:
        s, t = (tgt.tokens, src.tokens) if reverse else (src.tokens, tgt.tokens)
        bitext.append(((NULL_TOKEN,) + s, t))
        tgt_vocab.update(t)
    uniform = 1.0 / len(tgt_vocab)

    t_prob = defaultdict(lambda: uniform)  # (src, tgt) -> p
    log_likelihoods = []
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src_tokens, tgt_tokens in bitext:
            for tgt_tok in tgt_tokens:
                denom = _sequential_sum(t_prob[(s, tgt_tok)] for s in src_tokens)
                for s in src_tokens:
                    delta = t_prob[(s, tgt_tok)] / denom
                    counts[(s, tgt_tok)] += delta
                    totals[s] += delta
        t_prob = defaultdict(float, {pair: c / totals[pair[0]] for pair, c in counts.items()})
        ll = 0.0
        for src_tokens, tgt_tokens in bitext:
            for tgt_tok in tgt_tokens:
                inner = _sequential_sum(t_prob[(s, tgt_tok)] for s in src_tokens) / len(src_tokens)
                ll += math.log(inner) if inner > 0 else float("-inf")
        log_likelihoods.append(ll)

    probs = defaultdict(dict)
    for (s, tgt_tok), p in t_prob.items():
        probs[s][tgt_tok] = p
    return TranslationTable(dict(probs), log_likelihoods)


def align_pair(src_tokens, tgt_tokens, table: TranslationTable) -> set[tuple[int, int]]:
    """Each target index to its argmax source index: ties to the lowest index,
    NULL only on a strict win, OOV targets unlinked."""
    links = set()
    for j, tgt_tok in enumerate(tgt_tokens):
        best_i, best_p = None, 0.0
        for i, src_tok in enumerate(src_tokens):
            p = table.probs.get(src_tok, {}).get(tgt_tok, 0.0)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is None:
            continue
        if table.probs.get(NULL_TOKEN, {}).get(tgt_tok, 0.0) > best_p:
            continue
        links.add((best_i, j))
    return links
