"""Phrase extraction/indexing and semi-maximal sets.

Occurrence counting includes overlapping matches ("a a a" contains "a a"
twice). All count comparisons are exact integer arithmetic.
"""

from collections import Counter
from functools import cached_property

from .corpus import Corpus, Phrase, write_text


class OccurrenceIndex(Counter):
    """Counts of every n-gram in a corpus; an absent phrase reads 0 and is not
    inserted."""

    @cached_property
    def tsv(self) -> bytes:
        """The index as "phrase TAB count" lines, count descending then
        lexicographic, serialised once however many times it is written."""
        rows = sorted(self.items(), key=lambda kv: (-kv[1], kv[0]))
        return "".join(f"{' '.join(p)}\t{c}\n" for p, c in rows).encode("utf-8")

    def export_tsv(self, path):
        write_text(path, self.tsv)


def extract_ngrams(corpus: Corpus, max_n: int) -> OccurrenceIndex:
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    index = OccurrenceIndex()
    for sent in corpus:
        for n in range(1, max_n + 1):
            index.update(zip(*(sent.tokens[i:] for i in range(n))))
    return index


def semi_maximal_set(index: OccurrenceIndex) -> set[Phrase]:
    """Phrases p with no strict superstring p' in the index that occurs more
    than half as often (2*occ(p') > occ(p), exact integers).

    Each stored p' tests only its prefix p'[:-1] and suffix p'[1:], which
    decides every pair. If p lies strictly inside p' with 2*occ(p') > occ(p),
    p is the prefix or suffix of the q inside p' one token longer than p; q is
    stored, as every substring of a stored phrase is, and occ(q) >= occ(p')
    since each occurrence of p' holds one of q, so 2*occ(q) > occ(p).
    """
    excluded = set()
    for p_prime, c_prime in index.items():
        if len(p_prime) > 1:
            for p in (p_prime[:-1], p_prime[1:]):
                if 2 * c_prime > index[p]:
                    excluded.add(p)
    return index.keys() - excluded
