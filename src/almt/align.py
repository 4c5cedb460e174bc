"""Word alignment: IBM Model 1 EM training and Viterbi-style linking.

The table direction is t(target | source) with a NULL source token; pass
reverse=True to train the other direction.
"""

import numpy as np

from .corpus import ParallelCorpus
from .ngrams import Vocabulary

NULL_TOKEN = "<NULL>"

# EM block: at most this many terms (one per target position and source
# position), cut at sentence-pair boundaries, so the temporaries of coding and
# of each sweep stay O(block), about 1 MB, while the resident int32 codes take
# 12 bytes per term.
BLOCK_TERMS = 1 << 14


def _code_bitext(parallel: ParallelCorpus, reverse: bool):
    """Integer-code the bitext's EM terms, one per (target position, source
    position with NULL first), in pair, then target, then source order.

    Returns (codes, blocks, pair_keys, src_vocab, tgt_vocab). ``codes`` holds
    three int32 term arrays: the (source, target) pair id, the source id (NULL
    coded as NULL_TOKEN) and the group id (one group per target position).
    ``blocks`` are (lo, hi) term ranges of whole sentence pairs, each of at most
    BLOCK_TERMS terms unless one pair alone has more. ``pair_keys`` holds each
    pair id's source id * len(tgt_vocab) + target id.
    """
    sides = list(zip(*parallel.values()))
    src_sents, tgt_sents = reversed(sides) if reverse else sides
    src_vocab, tgt_vocab = Vocabulary([*src_sents, (NULL_TOKEN,)]), Vocabulary(tgt_sents)
    src_seq, src_ends = src_vocab.code(src_sents)
    tgt_seq, tgt_ends = tgt_vocab.code(tgt_sents)
    src_lens, tgt_lens = np.diff(src_ends, prepend=0), np.diff(tgt_ends, prepend=0)
    # Each source sentence opens with NULL; the codes are int32 from here on.
    src_seq = np.insert(src_seq, src_ends - src_lens, src_vocab.ids[NULL_TOKEN]).astype(np.int32)
    tgt_seq, src_lens = tgt_seq.astype(np.int32), src_lens + 1
    del sides, src_sents, tgt_sents, src_ends, tgt_ends  # only int32 codes and lengths sit beside the term arrays

    # Per group: its term count, and the offset from a term's index to its
    # source token's index in src_seq. Per pair: its first term and group.
    group_len = np.repeat(src_lens, tgt_lens)
    offset = np.repeat(np.cumsum(src_lens) - src_lens, tgt_lens) - (np.cumsum(group_len) - group_len)
    pair_start = np.concatenate(([0], np.cumsum(src_lens * tgt_lens)))
    group_start = np.concatenate(([0], np.cumsum(tgt_lens)))

    pair, src, group = (np.empty(pair_start[-1], np.int32) for _ in range(3))
    blocks, pair_ids, a = [], {}, 0  # a: the block's first sentence pair, b: one past its last
    while a < len(src_lens):
        b = max(int(np.searchsorted(pair_start, pair_start[a] + BLOCK_TERMS, "right")) - 1, a + 1)
        lo, hi = int(pair_start[a]), int(pair_start[b])
        g = np.repeat(np.arange(group_start[a], group_start[b], dtype=np.int32),
                      group_len[group_start[a]:group_start[b]])
        group[lo:hi] = g
        src[lo:hi] = src_seq[np.arange(lo, hi) + offset[g]]
        # Pair ids span blocks: a pair keeps the id the first block holding it gave.
        keys = src[lo:hi].astype(np.int64) * len(tgt_vocab) + tgt_seq[g]
        distinct, inverse = np.unique(keys, return_inverse=True)
        ids = np.array([pair_ids.setdefault(k, len(pair_ids)) for k in distinct.tolist()], np.int32)
        pair[lo:hi] = ids[inverse]
        blocks.append((lo, hi))
        a = b
    return (pair, src, group), blocks, np.array(list(pair_ids), np.int64), src_vocab, tgt_vocab


def _sweep(p, codes, blocks, counts, totals):
    """The E-step under ``p``: adds each term's posterior to its pair's count
    and its source's total.

    ``np.bincount`` and ``np.add.at`` add in input order, which is the loop
    order, so every denominator, count and total is the same float a
    term-by-term loop would reach.
    """
    pair, src, group = codes
    for lo, hi in blocks:
        g = group[lo:hi] - group[lo]
        tp = p[pair[lo:hi]]
        delta = tp / np.bincount(g, weights=tp)[g]
        np.add.at(counts, pair[lo:hi], delta)
        np.add.at(totals, src[lo:hi], delta)


def train_ibm1(parallel: ParallelCorpus, iterations: int = 5, reverse: bool = False) -> dict:
    """EM from a uniform start: t(target | source) as source -> {target: p},
    each source's row summing to 1."""
    if len(parallel) == 0:
        raise ValueError("parallel corpus is empty")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    codes, blocks, pair_keys, src_vocab, tgt_vocab = _code_bitext(parallel, reverse)
    pair_src, pair_tgt = np.divmod(pair_keys, len(tgt_vocab))
    p = np.full(len(pair_keys), 1.0 / len(tgt_vocab))
    for _ in range(iterations):
        counts, totals = np.zeros(len(pair_keys)), np.zeros(len(src_vocab))
        _sweep(p, codes, blocks, counts, totals)
        p = counts / totals[pair_src]

    probs = {}
    for s, t, value in zip(pair_src.tolist(), pair_tgt.tolist(), p.tolist()):
        probs.setdefault(src_vocab.tokens[s], {})[tgt_vocab.tokens[t]] = value
    return probs


def align_pair(src_tokens, tgt_tokens, table: dict) -> list[int]:
    """Viterbi-style links: each target index's argmax source index, -1 when unlinked.

    Ties between real source tokens break to the lowest index; NULL wins only
    when strictly better than every real source; OOV targets (all-zero
    probabilities) stay unlinked, and sources the table lacks never win.
    """
    rows = [(i, row) for i, s in enumerate(src_tokens) if (row := table.get(s))]
    null_row = table.get(NULL_TOKEN, {})
    links = []
    for tgt_tok in tgt_tokens:
        best_i, best_p = -1, 0.0
        for i, row in rows:
            p = row.get(tgt_tok, 0.0)
            if p > best_p:
                best_i, best_p = i, p
        links.append(-1 if null_row.get(tgt_tok, 0.0) > best_p else best_i)
    return links


class Alignments(dict):
    """Pair id -> that pair of ``parallel``'s ``align_pair`` links under ``table``,
    aligned on the first lookup and kept."""

    def __init__(self, parallel: ParallelCorpus, table: dict):
        self.parallel, self.table = parallel, table

    def __missing__(self, pair_id):
        self[pair_id] = links = align_pair(*self.parallel[pair_id], self.table)
        return links


def target_span(links, start: int, end: int):
    """The target span of source window [start, end) under the phrase-consistency
    rule (Och & Ney 2004; Koehn et al. 2003), read in one pass over ``links``, one
    source index per target index (-1 unlinked): (j_min, j_max), the hull of the
    targets the window links to, or "no-aligned-span" when no index in the window
    is linked, "span-overlap" when a source index outside it links into the hull."""
    j_min = j_max = j_out = -1  # the window's first and last targets; the last one linked outside it
    for j, i in enumerate(links):
        if start <= i < end:
            if j_out > j_min >= 0:
                return "span-overlap"
            j_min, j_max = j if j_min < 0 else j_min, j
        elif i >= 0:
            j_out = j
    return "no-aligned-span" if j_min < 0 else (j_min, j_max)
