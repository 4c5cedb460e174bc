"""Phrase extraction/indexing, the semi-order relation, and semi-maximal sets.

Occurrence counting includes overlapping matches ("a a a" contains "a a"
twice). All count comparisons are exact integer arithmetic.
"""

from collections import Counter, defaultdict
from functools import cached_property
from pathlib import Path

from .corpus import Corpus, Phrase


class OccurrenceIndex:
    """Counts of every n-gram (1 <= n <= max_n) in a corpus."""

    def __init__(self, max_n: int):
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        self.max_n = max_n
        self.counts: Counter[Phrase] = Counter()

    def occ(self, p: Phrase) -> int:
        return self.counts.get(tuple(p), 0)

    def __contains__(self, p):
        return tuple(p) in self.counts

    def __len__(self):
        return len(self.counts)

    def phrases(self):
        return self.counts.keys()

    @cached_property
    def tsv(self) -> bytes:
        """The index as "phrase TAB count" lines, count descending then
        lexicographic, serialised once however many times it is written."""
        rows = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return "".join(f"{' '.join(p)}\t{c}\n" for p, c in rows).encode("utf-8")

    def export_tsv(self, path):
        Path(path).write_bytes(self.tsv)


def extract_ngrams(corpus: Corpus, max_n: int) -> OccurrenceIndex:
    index = OccurrenceIndex(max_n)
    for sent in corpus:
        for n in range(1, max_n + 1):
            index.counts.update(zip(*(sent.tokens[i:] for i in range(n))))
    return index


def is_strict_substring(p: Phrase, p_prime: Phrase) -> bool:
    """True iff p is a contiguous substring of p_prime and p != p_prime."""
    p, p_prime = tuple(p), tuple(p_prime)
    if len(p) >= len(p_prime):
        return False
    n = len(p)
    return any(p_prime[i:i + n] == p for i in range(len(p_prime) - n + 1))


def semi_order(p: Phrase, p_prime: Phrase, index: OccurrenceIndex) -> bool:
    """p precedes p_prime iff p is a strict substring and p_prime occurs more
    than half as often as p (2*occ(p') > occ(p), exact integers)."""
    if not is_strict_substring(p, p_prime):
        return False
    return 2 * index.occ(p_prime) > index.occ(p)


def semi_maximal_set(index: OccurrenceIndex) -> set[Phrase]:
    """Phrases with no semi-order superstring in the index.

    Instead of testing all phrase pairs, walk every stored phrase p' and mark
    each of its strict substrings p excluded when 2*occ(p') > occ(p). Every
    substring of a stored phrase is itself stored, so this covers all pairs.
    """
    excluded = set()
    for p_prime, c_prime in index.counts.items():
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
                if threshold > index.counts[p]:
                    excluded.add(p)
    return {p for p in index.counts if p not in excluded}


def semi_order_witness(p: Phrase, index: OccurrenceIndex):
    """A superstring excluding p from the semi-maximal set, or None."""
    p = tuple(p)
    by_len = defaultdict(list)
    for q in index.counts:
        by_len[len(q)].append(q)
    for n in range(len(p) + 1, index.max_n + 1):
        for q in sorted(by_len.get(n, ())):
            if semi_order(p, q, index):
                return q
    return None
