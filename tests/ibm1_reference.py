"""Loop references for IBM Model 1 in `almt.align`: EM, its log-likelihood,
Viterbi linking and the phrase-consistency span rule.

`train_ibm1` works one target position at a time, over dicts keyed by
(source, target) string pairs: the E-step sums each target's probabilities
over its source tokens (NULL first), then adds every posterior to the pair's
count and the source's total. Every sum runs left to right from 0.0, in pair,
then target position, then source position order, which is the order the
array version adds in, so both give the same float for every table entry.

`log_likelihood` scores a table on a bitext, the quantity each EM update never
lowers.

`align_pair` looks up every (source, target) probability in the table's
nested dicts, one target token at a time, as `almt.align` did before it
fetched each source row once per pair, and returns the links as a set of
(source index, target index) tuples. `target_span` reads such a set, as
`almt.align` did before it stored one source index per target token;
`link_set` turns that per-target list into the set. Slow, and used only by
tests.
"""

import math
from collections import defaultdict

from almt.align import NULL_TOKEN


def _sequential_sum(values):
    """Left-to-right float sum (``sum()`` compensates from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _bitext(parallel, reverse):
    """Each pair as (source tokens with NULL first, target tokens)."""
    for src, tgt in parallel.values():
        s, t = (tgt, src) if reverse else (src, tgt)
        yield (NULL_TOKEN,) + s, t


def train_ibm1(parallel, iterations: int, reverse: bool = False) -> dict:
    """EM with uniform initialization: source -> {target: p}."""
    if len(parallel) == 0:
        raise ValueError("parallel corpus is empty")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    bitext = list(_bitext(parallel, reverse))
    uniform = 1.0 / len(set().union(*(t for _, t in bitext)))

    t_prob = defaultdict(lambda: uniform)  # (src, tgt) -> p
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
        t_prob = {pair: c / totals[pair[0]] for pair, c in counts.items()}

    probs = defaultdict(dict)
    for (s, tgt_tok), p in t_prob.items():
        probs[s][tgt_tok] = p
    return dict(probs)


def log_likelihood(parallel, table: dict, reverse: bool = False) -> float:
    """The bitext's log-likelihood under ``table``: over every target position,
    the log of the mean, over NULL and the source tokens, of t(target | source)."""
    ll = 0.0
    for src_tokens, tgt_tokens in _bitext(parallel, reverse):
        for tgt_tok in tgt_tokens:
            inner = _sequential_sum(table.get(s, {}).get(tgt_tok, 0.0) for s in src_tokens) / len(src_tokens)
            ll += math.log(inner) if inner > 0 else float("-inf")
    return ll


def align_pair(src_tokens, tgt_tokens, table: dict) -> set[tuple[int, int]]:
    """Each target index to its argmax source index: ties to the lowest index,
    NULL only on a strict win, OOV targets unlinked."""
    links = set()
    for j, tgt_tok in enumerate(tgt_tokens):
        best_i, best_p = None, 0.0
        for i, src_tok in enumerate(src_tokens):
            p = table.get(src_tok, {}).get(tgt_tok, 0.0)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is None:
            continue
        if table.get(NULL_TOKEN, {}).get(tgt_tok, 0.0) > best_p:
            continue
        links.add((best_i, j))
    return links


def link_set(links) -> set[tuple[int, int]]:
    """The (source index, target index) set of ``links``, one source index per
    target index, -1 when unlinked (`almt.align.align_pair`'s format)."""
    return {(i, j) for j, i in enumerate(links) if i >= 0}


def target_span(links, start: int, end: int):
    """The phrase-consistency span of source window [start, end) over a set of
    (i, j) links: (j_min, j_max), the hull of the targets the window links to,
    "no-aligned-span" when no index in the window is linked, or "span-overlap"
    when a source index outside the window links into the hull."""
    js = [j for i, j in links if start <= i < end]
    if not js:
        return "no-aligned-span"
    j_min, j_max = min(js), max(js)
    if any(j_min <= j <= j_max for i, j in links if not start <= i < end):
        return "span-overlap"
    return j_min, j_max
