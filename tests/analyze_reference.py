"""Tuple reference for `almt.analyze.ngram_coverage`.

It collects each length's test and covering n-grams as tuples of strings in
sets and Counters, as coverage did before it ran on two `OccurrenceIndex`es.
Slow, and used only by tests, which require `repr`-equal percentages from
both.
"""

from collections import Counter


def _ngrams(sentences, n):
    return (tuple(tokens[s:s + n]) for tokens in sentences for s in range(len(tokens) - n + 1))


def ngram_coverage(covering, test, max_n, token_level=False):
    """n -> percentage of test n-grams (types, or occurrences when
    ``token_level``) present in the covering text."""
    covering = [tuple(t) for t in covering]
    test = [tuple(t) for t in test]
    per_n = {}
    for n in range(1, max_n + 1):
        cover_types = set(_ngrams(covering, n))
        if token_level:
            counts = Counter(_ngrams(test, n))
            total = sum(counts.values())
            hit = sum(c for g, c in counts.items() if g in cover_types)
        else:
            test_types = set(_ngrams(test, n))
            total = len(test_types)
            hit = len(test_types & cover_types)
        per_n[n] = 100.0 * hit / total if total else 0.0
    return per_n
