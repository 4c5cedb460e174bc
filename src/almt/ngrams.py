"""Phrase extraction/indexing and semi-maximal sets, on integer codes.

A ``Vocabulary`` numbers tokens in sorted order, so comparing ids compares
tokens. An ``OccurrenceIndex`` codes each n-gram from its prefix: a unigram's
code is its token id, a longer n-gram's is (rank of its prefix among the
index's n-grams one token shorter) * V + its last token id, V the vocabulary
size. The codes of one length sort like the phrases they code, and each stays
below (number of shorter n-grams) * V whatever the length and V, so no key
wraps around in int64.

Occurrence counting includes overlapping matches ("a a a" contains "a a"
twice). All count comparisons are exact integer arithmetic.
"""

import bisect
from itertools import chain, repeat

import numpy as np

from .corpus import Corpus, Phrase, write_text


class Vocabulary:
    """Ids for the tokens of some sentences, in sorted token order."""

    def __init__(self, sentences):
        self.tokens = sorted(set(chain.from_iterable(sentences)))
        self.ids = {token: i for i, token in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def code(self, sentences):
        """(token ids, sentence end offsets) of the list ``sentences`` laid end to end,
        -1 for a token outside the vocabulary."""
        ends = np.cumsum(np.fromiter(map(len, sentences), np.int64, len(sentences)))
        count = int(ends[-1]) if len(ends) else 0
        return np.fromiter(map(self.ids.get, chain.from_iterable(sentences), repeat(-1)), np.int64,
                           count), ends


def _room(ends):
    """Tokens left in the sentence from each position on, for sentence end offsets ``ends``."""
    return np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(ends[-1] if len(ends) else 0)


class OccurrenceIndex:
    """Counts of every n-gram of length 1 to ``max_n`` in some sentences.

    Level n holds the sorted codes of the n-grams of length n and their
    counts. An n-gram's id is its rank in its level plus the number of shorter
    n-grams, so ids run in (length, phrase) order; ``phrase`` and ``phrases``
    decode them. ``vocab`` is the sentences' own.
    """

    def __init__(self, sentences, max_n: int):
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        self.vocab = Vocabulary(sentences)
        self.max_n, self.V = max_n, max(len(self.vocab), 1)
        tok, ends = self.vocab.code(sentences)
        room = _room(ends)
        at, rank = np.arange(len(tok)), np.zeros(len(tok), np.int64)
        levels, prefixes = [], 1  # the empty phrase is the one prefix of a unigram
        for n in range(1, max_n + 1):
            if prefixes * self.V >= 2 ** 63:
                raise OverflowError(f"{prefixes} {n - 1}-grams and {self.V} tokens overflow int64 codes")
            at = at[room[at] >= n]  # where an n-gram starts; rank holds its prefix's rank there
            codes, rank[at], counts = np.unique(rank[at] * self.V + tok[at + n - 1],
                                                return_inverse=True, return_counts=True)
            levels.append((codes, counts))
            prefixes = len(codes)
        self.codes, self.counts = (np.concatenate(arrays) for arrays in zip(*levels))
        self.offsets = [0, *np.cumsum([len(codes) for codes, _ in levels]).tolist()]

    def __len__(self):
        return len(self.codes)

    def level(self, n) -> slice:
        """The ids of the n-grams of length ``n``."""
        return slice(self.offsets[n - 1], self.offsets[n])

    def step(self, n, prefix, token):
        """Level-n ranks of the n-grams (prefix, token), -1 where not stored:
        ``prefix`` holds level n-1 ranks and ``token`` this vocabulary's ids,
        either -1 for none."""
        codes = self.codes[self.level(n)]
        want = prefix * self.V + token
        pos = np.searchsorted(codes, want)
        hit = (prefix >= 0) & (token >= 0) & (pos < len(codes))
        hit[hit] = codes[pos[hit]] == want[hit]
        return np.where(hit, pos, -1)

    def ids_of(self, other: "OccurrenceIndex"):
        """The id here of each n-gram of ``other``, by its id there; -1 where not stored."""
        token, _ = self.vocab.code([other.vocab.tokens])
        out, rank = np.full(len(other), -1, np.int64), np.zeros(1, np.int64)
        for n in range(1, min(self.max_n, other.max_n) + 1):
            prefix, last = np.divmod(other.codes[other.level(n)], other.V)
            rank = self.step(n, rank[prefix], token[last])
            out[other.level(n)] = np.where(rank >= 0, rank + self.offsets[n - 1], -1)
        return out

    def phrase(self, i) -> Phrase:
        """The n-gram with id ``i``."""
        n = bisect.bisect_right(self.offsets, i)
        rank, tokens = i - self.offsets[n - 1], []
        for level in range(n, 0, -1):
            rank, token = divmod(int(self.codes[self.offsets[level - 1] + rank]), self.V)
            tokens.append(self.vocab.tokens[token])
        return tuple(reversed(tokens))

    def phrases(self) -> list[Phrase]:
        """Every n-gram, by id, each length decoded from the one before."""
        phrases, shorter = [], [()]
        for n in range(1, self.max_n + 1):
            prefix, last = np.divmod(self.codes[self.level(n)], self.V)
            shorter = [shorter[p] + (self.vocab.tokens[t],) for p, t in zip(prefix.tolist(), last.tolist())]
            phrases += shorter
        return phrases

    def export_tsv(self, path):
        """Write the index as "phrase TAB count" lines, count descending then lexicographic."""
        rows = sorted(zip(self.phrases(), self.counts.tolist()), key=lambda kv: (-kv[1], kv[0]))
        write_text(path, (f"{' '.join(p)}\t{c}\n" for p, c in rows))


def extract_ngrams(corpus: Corpus, max_n: int) -> OccurrenceIndex:
    """The n-grams of ``corpus`` up to length ``max_n``, coded by the corpus's own vocabulary."""
    return OccurrenceIndex(list(corpus.values()), max_n)


def occurrences(phrases, sentences):
    """Arrays (phrase, sentence, start), one entry per occurrence of the distinct
    tuples ``phrases`` in the list ``sentences``, by index in each list and in the
    sentence, ordered by phrase length, then sentence, then start. The phrases
    are indexed in their own vocabulary and the sentences coded in it, where a
    token outside it is -1 and matches nothing. A phrase that is empty or has a
    token no sentence has occurs nowhere; a repeated phrase raises ValueError."""
    if len(set(phrases)) != len(phrases):
        raise ValueError("repeated phrases (each is looked up once)")
    wanted = OccurrenceIndex(phrases, max(map(len, phrases), default=0) or 1)
    id_of = {p: i for i, p in enumerate(wanted.phrases())}
    which = np.full(len(wanted), -1)  # id in ``wanted`` -> index in ``phrases``, of whole phrases
    known = [i for i, p in enumerate(phrases) if p]
    which[[id_of[phrases[i]] for i in known]] = known
    tok, ends = wanted.vocab.code(sentences)
    room = _room(ends)
    at, rank, hits = np.arange(len(tok)), np.zeros(len(tok), np.int64), []
    for n in range(1, wanted.max_n + 1):  # each window extends its one-token-shorter prefix
        fits = room[at] >= n
        at, rank = at[fits], wanted.step(n, rank[fits], tok[at[fits] + n - 1])
        at, rank = at[rank >= 0], rank[rank >= 0]
        k = which[rank + wanted.offsets[n - 1]]
        hits.append((k[k >= 0], at[k >= 0]))
    k, at = (np.concatenate(arrays) for arrays in zip(*hits))
    sentence = np.searchsorted(ends, at, side="right")
    return k, sentence, at - (ends - np.diff(ends, prepend=0))[sentence]


def semi_maximal_set(index: OccurrenceIndex):
    """Ids, ascending, of the phrases p with no strict superstring p' in the
    index that occurs more than half as often (2*occ(p') > occ(p), exact integers).

    Each stored p' tests only its prefix p'[:-1] and suffix p'[1:], which
    decides every pair. If p lies strictly inside p' with 2*occ(p') > occ(p),
    p is the prefix or suffix of the q inside p' one token longer than p; q is
    stored, as every substring of a stored phrase is, and occ(q) >= occ(p')
    since each occurrence of p' holds one of q, so 2*occ(q) > occ(p).
    Level by level, the suffix's rank follows from the prefix's suffix.
    """
    excluded = np.zeros(len(index), bool)
    suffix = np.zeros(index.offsets[1], np.int64)  # a unigram's suffix is the empty phrase
    for n in range(2, index.max_n + 1):
        level, shorter = index.level(n), index.counts[index.level(n - 1)]
        prefix, last = np.divmod(index.codes[level], index.V)
        suffix = index.step(n - 1, suffix[prefix], last)
        twice = 2 * index.counts[level]
        for rank in (prefix, suffix):
            excluded[index.offsets[n - 2] + rank[twice > shorter[rank]]] = True
    return np.flatnonzero(~excluded)
