import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngrams_reference
import select_reference
from almt.corpus import Corpus
from almt.ngrams import Vocabulary, extract_ngrams, occurrences, semi_maximal_set
from almt import select
from almt.select import select_ngf
from ngrams_reference import decode


def corpus_of(*lines):
    return Corpus((i, tuple(l.split())) for i, l in enumerate(lines))


def brute_force_semi_maximal(index):
    """O(|P|^2) oracle: test the semi-order inequality on every phrase pair."""
    def contains(small, big):
        n = len(small)
        return len(big) > n and any(big[i:i + n] == small for i in range(len(big) - n + 1))

    phrases = list(index)
    keep = set()
    for p in phrases:
        dominated = any(contains(p, q) and 2 * index[q] > index[p] for q in phrases)
        if not dominated:
            keep.add(p)
    return keep


def semi_maximal_phrases(index):
    return set(decode(index, semi_maximal_set(index)))


def by_id(phrases):
    """``phrases`` in id order: by length, then lexicographic."""
    return sorted(phrases, key=lambda p: (len(p), p))


def random_corpus(rng, max_sentences=50, vocab=10):
    words = [f"w{i}" for i in range(rng.randint(2, vocab))]
    lines = []
    for i in range(rng.randint(1, max_sentences)):
        lines.append((i, tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))))
    return Corpus(lines)


def test_extract_two_tokens():
    index = extract_ngrams(corpus_of("a b"), 2)
    assert decode(index) == {("a",): 1, ("b",): 1, ("a", "b"): 1}


def test_extract_overlapping_counts():
    counts = decode(extract_ngrams(corpus_of("a a a"), 2))
    assert counts[("a",)] == 3
    assert counts[("a", "a")] == 2


def test_extract_empty_corpus():
    assert len(extract_ngrams(Corpus([]), 3)) == 0


def test_extract_rejects_bad_maxn():
    with pytest.raises(ValueError):
        extract_ngrams(corpus_of("a b"), 0)


def test_occ_absent_is_zero():
    index = extract_ngrams(corpus_of("a b"), 2)
    assert decode(index)[("a", "b")] == 1
    assert index.ids_of(extract_ngrams(corpus_of("z a"), 1)).tolist() == [0, -1]  # "z" has no id
    assert len(index) == 3


def test_vocabulary_codes_a_token_outside_it_as_minus_1():
    tok, ends = Vocabulary([("b", "a")]).code([("a", "z"), (), ("b",)])
    assert tok.tolist() == [0, -1, 1] and ends.tolist() == [2, 2, 3]


def test_counts_match_brute_force_slicing():
    rng = random.Random(11)
    corpora = [corpus_of("a a a a", "a b a b a", "b"), Corpus()]
    corpora += [random_corpus(rng, vocab=rng.choice([2, 3, 10])) for _ in range(30)]
    for corpus in corpora:
        for max_n in (1, 2, 4, 9):
            expected = {}
            for sent in corpus.values():
                for n in range(1, max_n + 1):
                    for start in range(len(sent) - n + 1):
                        p = sent[start:start + n]
                        expected[p] = expected.get(p, 0) + 1
            index = extract_ngrams(corpus, max_n)
            assert decode(index) == expected
            assert list(decode(index)) == by_id(expected)


def test_length_n_count_identity():
    corpus = corpus_of("a b c", "a", "b c d e")
    index = extract_ngrams(corpus, 4)
    for n in range(1, 5):
        total = sum(c for p, c in decode(index).items() if len(p) == n)
        expected = sum(max(0, len(s) - n + 1) for s in corpus.values())
        assert total == expected


def test_semi_order_inequality():
    # occ("a b") = 4 and occ("a b c") = 3: 2*3 > 4, so "a b" is not semi-maximal
    index = extract_ngrams(corpus_of(*(["a b c"] * 3 + ["a b"])), 3)
    counts = decode(index)
    assert (counts[("a", "b")], counts[("a", "b", "c")]) == (4, 3)
    assert ("a", "b") not in semi_maximal_phrases(index)


def test_semi_order_boundary_strict():
    # occ("a b") = 4 and occ("a b c") = 2: 2*2 > 4 fails, so "a b" stays
    index = extract_ngrams(corpus_of(*(["a b c"] * 2 + ["a b"] * 2)), 3)
    counts = decode(index)
    assert (counts[("a", "b")], counts[("a", "b", "c")]) == (4, 2)
    assert ("a", "b") in semi_maximal_phrases(index)


def test_semi_order_requires_strict_substring():
    # "a b" occurs once, and 2*1 > 1: were it its own superstring it would be excluded
    index = extract_ngrams(corpus_of("a b"), 2)
    assert semi_maximal_phrases(index) == {("a", "b")}


def test_semi_order_always_cooccurring_superstring():
    # "eines der" always next to "eines der besten" style co-occurrence
    corpus = corpus_of(*(["eines der besten"] * 4))
    index = extract_ngrams(corpus, 3)
    assert ("eines", "der") not in semi_maximal_phrases(index)


def test_semi_maximal_hand_example():
    index = extract_ngrams(corpus_of("a a a"), 2)
    assert decode(index) == {("a",): 3, ("a", "a"): 2}
    assert semi_maximal_phrases(index) == {("a", "a")}


def test_semi_maximal_all_unigrams_when_no_superstrings():
    index = extract_ngrams(corpus_of("a", "b", "c"), 1)
    assert semi_maximal_phrases(index) == {("a",), ("b",), ("c",)}


def test_semi_maximal_subset_of_index():
    index = extract_ngrams(corpus_of("a b c a b", "c c a"), 3)
    ids = semi_maximal_set(index)
    assert ids.dtype.kind == "i" and (np.diff(ids) > 0).all()  # ascending ids, each once
    assert 0 <= ids.min() and ids.max() < len(index)


def test_semi_maximal_matches_brute_force_random():
    rng = random.Random(31)
    for _ in range(25):
        index = extract_ngrams(random_corpus(rng), 4)
        assert semi_maximal_phrases(index) == brute_force_semi_maximal(decode(index))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=8), min_size=1, max_size=8),
       max_n=st.integers(1, 5))
def test_semi_maximal_matches_the_all_substring_reference(lines, max_n):
    index = extract_ngrams(Corpus((i, tuple(l)) for i, l in enumerate(lines)), max_n)
    assert semi_maximal_phrases(index) == ngrams_reference.semi_maximal_set(decode(index))


@given(st.lists(st.lists(st.sampled_from("ab"), min_size=1, max_size=6), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_occ_superstring_never_exceeds_substring(lines):
    corpus = Corpus((i, tuple(l)) for i, l in enumerate(lines))
    index = decode(extract_ngrams(corpus, 3))
    def strict_substring(p, q):
        return len(p) < len(q) and any(q[i:i + len(p)] == p for i in range(len(q) - len(p) + 1))

    for p in index:
        for q in index:
            if strict_substring(p, q):
                assert index[p] >= index[q]


def test_occurrences_by_length_then_sentence_then_start():
    sentences = [("a", "a", "a"), (), ("b", "a", "a")]
    phrases = [("a", "a"), ("z",), ("b",), (), ("a",), ("a", "a", "b")]
    found = [tuple(map(int, hit)) for hit in zip(*occurrences(phrases, sentences))]
    assert found == [(4, 0, 0), (4, 0, 1), (4, 0, 2), (2, 2, 0), (4, 2, 1), (4, 2, 2),
                     (0, 0, 0), (0, 0, 1), (0, 2, 1)]
    assert [len(a) for a in occurrences([("z",)], sentences)] == [0, 0, 0]


def test_export_tsv_deterministic_order(tmp_path):
    index = extract_ngrams(corpus_of("b a", "a b", "a"), 2)
    out = tmp_path / "index.tsv"
    index.export_tsv(out)
    lines = out.read_text().splitlines()
    counts = [int(l.split("\t")[1]) for l in lines]
    assert counts == sorted(counts, reverse=True)
    assert lines[0].startswith("a\t")  # lexicographic tie-break among count-3... highest count first


def test_export_tsv_bytes(tmp_path):
    extract_ngrams(corpus_of("b a", "a b", "a"), 2).export_tsv(tmp_path / "index.tsv")
    assert (tmp_path / "index.tsv").read_bytes() == b"a\t3\nb\t2\na b\t1\nb a\t1\n"


# A corpus of up to 8 sentences over four tokens, so that repeats such as "a a a" are common.
corpora = st.lists(st.lists(st.sampled_from(["a", "b", "c", "u"]), min_size=1, max_size=8), max_size=8).map(
    lambda lines: Corpus((i, tuple(l)) for i, l in enumerate(lines)))


@settings(max_examples=200, deadline=None)
@given(U=corpora, max_n=st.integers(1, 6))
def test_coded_index_matches_the_tuple_counter(U, max_n):
    expected = ngrams_reference.extract_ngrams(U, max_n)
    index = extract_ngrams(U, max_n)
    assert decode(index) == expected
    assert list(decode(index)) == by_id(expected)
    assert index.phrases() == [index.phrase(i) for i in range(len(index))]
    assert len(index) == len(expected)
    assert semi_maximal_phrases(index) == ngrams_reference.semi_maximal_set(expected)
    rows = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
    with tempfile.TemporaryDirectory() as tmp:
        index.export_tsv(Path(tmp) / "index.tsv")
        written = (Path(tmp) / "index.tsv").read_bytes()
    assert written == "".join(f"{' '.join(p)}\t{c}\n" for p, c in rows).encode()


@pytest.mark.parametrize("distinct, length, max_n", [(2 ** 16 + 100, 4, 5), (240, 60, 8)])
def test_codes_do_not_wrap_where_packed_keys_would(distinct, length, max_n):
    """A key packing max_n token ids in base V needs V**max_n < 2**63; both
    corpora break that bound (65636**5 and 240**8 exceed it). Some sentences
    copy a stretch of an earlier one, so some counts exceed 1."""
    assert distinct ** max_n >= 2 ** 63
    rng = random.Random(distinct)
    tokens = [f"t{i}" for i in range(distinct)]
    lines, pos = [], 0
    while pos < len(tokens):
        line = tokens[pos:pos + length]
        pos += length
        if rng.random() < 0.3:  # copy a stretch of an earlier sentence
            src = rng.choice(lines) if lines else line
            cut = rng.randrange(len(src))
            line = line[:length // 2] + src[cut:cut + length // 2]
        lines.append(line)
    corpus = Corpus((i, tuple(l)) for i, l in enumerate(lines))
    L = Corpus([(0, tuple(tokens[:length]))])
    index, expected = extract_ngrams(corpus, max_n), ngrams_reference.extract_ngrams(corpus, max_n)
    assert decode(index) == expected
    assert int(index.counts.min()) >= 1 and max(expected.values()) > 1
    ranked = [p.tokens for p in select.cut([select_ngf(index, extract_ngrams(L, max_n))], 10 ** 9).phrases]
    assert ranked == select_reference.ngf_order(expected, ngrams_reference.extract_ngrams(L, max_n))
