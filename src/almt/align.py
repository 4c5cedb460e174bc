"""Word alignment: IBM Model 1 EM training and Viterbi-style linking.

The table direction is t(target | source) with a NULL source token; pass
reverse=True to train the other direction.
"""

import numpy as np

from .corpus import ParallelCorpus

NULL_TOKEN = "<NULL>"

# EM block: at most this many terms (one per target position and source
# position), cut at sentence-pair boundaries, so the temporaries of coding and
# of each sweep stay O(block), about 1 MB, while the resident int32 codes take
# 12 bytes per term.
BLOCK_TERMS = 1 << 14


class TranslationTable:
    """t(target | source) with per-source rows summing to 1."""

    def __init__(self, probs, log_likelihoods=None):
        self.probs = probs  # src -> {tgt: p}
        self.log_likelihoods = log_likelihoods or []


def _code_bitext(parallel: ParallelCorpus, reverse: bool):
    """Integer-code the bitext's EM terms, one per (target position, source
    position with NULL first), in pair, then target, then source order.

    Returns (codes, blocks, pair_keys, src_vocab, tgt_vocab). ``codes`` holds
    three int32 term arrays: the (source, target) pair id, the source id
    (NULL = 0) and the group id (one group per target position). ``blocks``
    are (lo, hi) term ranges of whole sentence pairs, each of at most
    BLOCK_TERMS terms unless one pair alone has more. ``pair_keys`` lists each
    (source id, target id) by first occurrence; the vocabularies map token to id.
    """
    src_vocab, tgt_vocab, pair_ids = {NULL_TOKEN: 0}, {}, {}
    # Token ids of all sentences, concatenated; each source sentence opens with NULL.
    src_seq, tgt_seq, src_lens, tgt_lens = [], [], [], []
    for s_pair, t_pair in parallel:
        s, t = (t_pair.tokens, s_pair.tokens) if reverse else (s_pair.tokens, t_pair.tokens)
        src_seq.append(0)
        src_seq.extend([src_vocab.setdefault(tok, len(src_vocab)) for tok in s])
        tgt_seq.extend([tgt_vocab.setdefault(tok, len(tgt_vocab)) for tok in t])
        src_lens.append(len(s) + 1)
        tgt_lens.append(len(t))
    src_seq, tgt_seq = np.array(src_seq, np.int32), np.array(tgt_seq, np.int32)
    src_lens, tgt_lens = np.array(src_lens), np.array(tgt_lens)

    # Per group: its term count, and the offset from a term's index to its
    # source token's index in src_seq. Per pair: its first term and group.
    group_len = np.repeat(src_lens, tgt_lens)
    offset = np.repeat(np.cumsum(src_lens) - src_lens, tgt_lens) - (np.cumsum(group_len) - group_len)
    pair_start = np.concatenate(([0], np.cumsum(src_lens * tgt_lens)))
    group_start = np.concatenate(([0], np.cumsum(tgt_lens)))

    pair, src, group = (np.empty(pair_start[-1], np.int32) for _ in range(3))
    blocks, a = [], 0  # a: the block's first sentence pair, b: one past its last
    while a < len(src_lens):
        b = max(int(np.searchsorted(pair_start, pair_start[a] + BLOCK_TERMS, "right")) - 1, a + 1)
        lo, hi = int(pair_start[a]), int(pair_start[b])
        g = np.repeat(np.arange(group_start[a], group_start[b], dtype=np.int32),
                      group_len[group_start[a]:group_start[b]])
        group[lo:hi] = g
        src[lo:hi] = src_seq[np.arange(lo, hi) + offset[g]]
        # Pair ids by first occurrence: the block's distinct keys in the order
        # they first appear, each looked up in (or added to) pair_ids.
        keys = src[lo:hi].astype(np.int64) * len(tgt_vocab) + tgt_seq[g]
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        ids = np.empty(len(distinct), np.int32)
        ids[order] = [pair_ids.setdefault(k, len(pair_ids)) for k in distinct[order].tolist()]
        pair[lo:hi] = ids[inverse]
        blocks.append((lo, hi))
        a = b
    pair_keys = [divmod(k, len(tgt_vocab)) for k in pair_ids]
    return (pair, src, group), blocks, pair_keys, src_vocab, tgt_vocab


def _sweep(p, codes, blocks, counts=None, totals=None) -> float:
    """Corpus log-likelihood under ``p``; with ``counts`` and ``totals``, also
    adds each term's E-step posterior to its pair's count and source's total.

    ``np.bincount`` and ``np.add.at`` add in input order, which is the loop
    order, so every denominator, count and total is the same float a
    term-by-term loop would reach.
    """
    pair, src, group = codes
    ll = 0.0
    for lo, hi in blocks:
        g = group[lo:hi] - group[lo]
        tp = p[pair[lo:hi]]
        denom = np.bincount(g, weights=tp)
        with np.errstate(divide="ignore"):
            ll += float(np.log(denom / np.bincount(g)).sum())
        if counts is not None:
            delta = tp / denom[g]
            np.add.at(counts, pair[lo:hi], delta)
            np.add.at(totals, src[lo:hi], delta)
    return ll


def train_ibm1(parallel: ParallelCorpus, iterations: int, reverse: bool = False) -> TranslationTable:
    """EM with uniform initialization; records corpus log-likelihood per iteration."""
    if len(parallel) == 0:
        raise ValueError("parallel corpus is empty")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    codes, blocks, pair_keys, src_vocab, tgt_vocab = _code_bitext(parallel, reverse)
    pair_src = np.array([s for s, _ in pair_keys], dtype=np.intp)
    p = np.full(len(pair_keys), 1.0 / len(tgt_vocab))
    log_likelihoods = []
    for it in range(iterations):
        counts, totals = np.zeros(len(pair_keys)), np.zeros(len(src_vocab))
        ll = _sweep(p, codes, blocks, counts, totals)
        if it:  # the sweep's denominators give p's log-likelihood; skip the uniform start's
            log_likelihoods.append(ll)
        p = counts / totals[pair_src]
    log_likelihoods.append(_sweep(p, codes, blocks))

    src_words, tgt_words = list(src_vocab), list(tgt_vocab)
    probs = {}
    for (s, t), value in zip(pair_keys, p.tolist()):
        probs.setdefault(src_words[s], {})[tgt_words[t]] = value
    return TranslationTable(probs, log_likelihoods)


def align_pair(src_tokens, tgt_tokens, table: TranslationTable) -> set[tuple[int, int]]:
    """Viterbi-style links: each target index to its argmax source index.

    Ties between real source tokens break to the lowest index; NULL wins only
    when strictly better than every real source, and OOV targets (all-zero
    probabilities) stay unlinked.
    """
    rows = [table.probs.get(s, {}) for s in src_tokens]
    null_row = table.probs.get(NULL_TOKEN, {})
    links = set()
    for j, tgt_tok in enumerate(tgt_tokens):
        best_i, best_p = None, 0.0
        for i, row in enumerate(rows):
            p = row.get(tgt_tok, 0.0)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is None or null_row.get(tgt_tok, 0.0) > best_p:
            continue
        links.add((best_i, j))
    return links


def aligned_target_span(links, start: int, end: int):
    """Minimal contiguous [j_min, j_max] covering all targets linked to
    source indices in [start, end); None when no link touches the span."""
    js = [j for i, j in links if start <= i < end]
    if not js:
        return None
    return min(js), max(js)


def span_has_outside_links(links, start: int, end: int, j_min: int, j_max: int) -> bool:
    """True when a source index outside [start, end) links into [j_min, j_max]."""
    return any(j_min <= j <= j_max for i, j in links if not (start <= i < end))
