"""Phrase extraction/indexing and semi-maximal sets.

Occurrence counting includes overlapping matches ("a a a" contains "a a"
twice). All count comparisons are exact integer arithmetic.
"""

from collections import Counter
from functools import cached_property

from .corpus import Corpus, Phrase, write_text


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
        write_text(path, self.tsv)


def extract_ngrams(corpus: Corpus, max_n: int) -> OccurrenceIndex:
    index = OccurrenceIndex(max_n)
    for sent in corpus:
        for n in range(1, max_n + 1):
            index.counts.update(zip(*(sent.tokens[i:] for i in range(n))))
    return index


def semi_maximal_set(index: OccurrenceIndex) -> set[Phrase]:
    """Phrases p with no strict superstring p' in the index that occurs more
    than half as often (2*occ(p') > occ(p), exact integers).

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

