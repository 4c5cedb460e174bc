"""Tuple references for `almt.ngrams`: the n-gram count loop and the
all-substring semi-maximal set, plus `decode`, the tuple view of an index.

`extract_ngrams` counts every window as a tuple of strings in a Counter, as
the index did before it coded n-grams as integers; its keys come in the
order a scan first meets them, which tests compare as a dict and never by
order. `semi_maximal_set` marks, for every stored phrase p', each of its
strict substrings p excluded when 2*occ(p') > occ(p), as the set was
computed before only one-token-longer superstrings were tested. Slow, and
used only by tests, which require the same counts and sets from both.
"""

from collections import Counter


def decode(index, ids=None):
    """phrase -> count of the n-grams of the `OccurrenceIndex` ``index`` with
    the given ids, every one by default, in id order."""
    phrases, counts = index.phrases(), index.counts.tolist()
    return {phrases[i]: counts[i] for i in (range(len(index)) if ids is None else ids.tolist())}


def extract_ngrams(corpus, max_n):
    index = Counter()
    for sent in corpus.values():
        for n in range(1, max_n + 1):
            index.update(zip(*(sent[i:] for i in range(n))))
    return index


def semi_maximal_set(index):
    excluded = set()
    for p_prime, c_prime in index.items():
        length = len(p_prime)
        if length < 2:
            continue
        threshold = 2 * c_prime
        seen = set()
        for n in range(1, length):
            for start in range(length - n + 1):
                p = p_prime[start:start + n]
                if p in seen or p in excluded:
                    continue
                seen.add(p)
                if threshold > index[p]:
                    excluded.add(p)
    return {p for p in index if p not in excluded}
