import random

import pytest
from hypothesis import given, settings, strategies as st

import ngrams_reference
from almt.corpus import Corpus, Sentence
from almt.ngrams import extract_ngrams, semi_maximal_set, OccurrenceIndex


def corpus_of(*lines):
    return Corpus([Sentence(i, tuple(l.split())) for i, l in enumerate(lines)])


def brute_force_semi_maximal(index):
    """O(|P|^2) oracle: test the semi-order inequality on every phrase pair."""
    def contains(small, big):
        n = len(small)
        return len(big) > n and any(big[i:i + n] == small for i in range(len(big) - n + 1))

    phrases = list(index.phrases())
    keep = set()
    for p in phrases:
        dominated = any(contains(p, q) and 2 * index.occ(q) > index.occ(p) for q in phrases)
        if not dominated:
            keep.add(p)
    return keep


def random_corpus(rng, max_sentences=50, vocab=10):
    words = [f"w{i}" for i in range(rng.randint(2, vocab))]
    lines = []
    for i in range(rng.randint(1, max_sentences)):
        lines.append(Sentence(i, tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))))
    return Corpus(lines)


def test_extract_two_tokens():
    index = extract_ngrams(corpus_of("a b"), 2)
    assert index.counts == {("a",): 1, ("b",): 1, ("a", "b"): 1}


def test_extract_overlapping_counts():
    index = extract_ngrams(corpus_of("a a a"), 2)
    assert index.occ(("a",)) == 3
    assert index.occ(("a", "a")) == 2


def test_extract_empty_corpus():
    assert len(extract_ngrams(Corpus([]), 3)) == 0


def test_extract_rejects_bad_maxn():
    with pytest.raises(ValueError):
        OccurrenceIndex(0)


def test_occ_absent_is_zero():
    index = extract_ngrams(corpus_of("a b"), 2)
    assert index.occ(("z",)) == 0
    assert index.occ(("a", "b")) == 1


def test_counts_match_brute_force_slicing():
    rng = random.Random(11)
    corpora = [corpus_of("a a a a", "a b a b a", "b"), Corpus([])]
    corpora += [random_corpus(rng, vocab=rng.choice([2, 3, 10])) for _ in range(30)]
    for corpus in corpora:
        for max_n in (1, 2, 4, 9):
            expected = {}
            for sent in corpus:
                for n in range(1, max_n + 1):
                    for start in range(len(sent.tokens) - n + 1):
                        p = sent.tokens[start:start + n]
                        expected[p] = expected.get(p, 0) + 1
            index = extract_ngrams(corpus, max_n)
            assert dict(index.counts) == expected
            assert list(index.counts) == list(expected)  # same first-seen key order


def test_length_n_count_identity():
    corpus = corpus_of("a b c", "a", "b c d e")
    index = extract_ngrams(corpus, 4)
    for n in range(1, 5):
        total = sum(c for p, c in index.counts.items() if len(p) == n)
        expected = sum(max(0, len(s.tokens) - n + 1) for s in corpus)
        assert total == expected


def test_semi_order_inequality():
    # occ("a b") = 4 and occ("a b c") = 3: 2*3 > 4, so "a b" is not semi-maximal
    index = extract_ngrams(corpus_of(*(["a b c"] * 3 + ["a b"])), 3)
    assert (index.occ(("a", "b")), index.occ(("a", "b", "c"))) == (4, 3)
    assert ("a", "b") not in semi_maximal_set(index)


def test_semi_order_boundary_strict():
    # occ("a b") = 4 and occ("a b c") = 2: 2*2 > 4 fails, so "a b" stays
    index = extract_ngrams(corpus_of(*(["a b c"] * 2 + ["a b"] * 2)), 3)
    assert (index.occ(("a", "b")), index.occ(("a", "b", "c"))) == (4, 2)
    assert ("a", "b") in semi_maximal_set(index)


def test_semi_order_requires_strict_substring():
    # "a b" occurs once, and 2*1 > 1: were it its own superstring it would be excluded
    index = extract_ngrams(corpus_of("a b"), 2)
    assert semi_maximal_set(index) == {("a", "b")}


def test_semi_order_always_cooccurring_superstring():
    # "eines der" always next to "eines der besten" style co-occurrence
    corpus = corpus_of(*(["eines der besten"] * 4))
    index = extract_ngrams(corpus, 3)
    assert ("eines", "der") not in semi_maximal_set(index)


def test_semi_maximal_hand_example():
    index = extract_ngrams(corpus_of("a a a"), 2)
    assert index.occ(("a",)) == 3 and index.occ(("a", "a")) == 2
    assert semi_maximal_set(index) == {("a", "a")}


def test_semi_maximal_all_unigrams_when_no_superstrings():
    index = extract_ngrams(corpus_of("a", "b", "c"), 1)
    assert semi_maximal_set(index) == {("a",), ("b",), ("c",)}


def test_semi_maximal_subset_of_index():
    index = extract_ngrams(corpus_of("a b c a b", "c c a"), 3)
    assert semi_maximal_set(index) <= set(index.phrases())


def test_semi_maximal_matches_brute_force_random():
    rng = random.Random(31)
    for _ in range(25):
        index = extract_ngrams(random_corpus(rng), 4)
        assert semi_maximal_set(index) == brute_force_semi_maximal(index)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=8), min_size=1, max_size=8),
       max_n=st.integers(1, 5))
def test_semi_maximal_matches_the_all_substring_reference(lines, max_n):
    index = extract_ngrams(Corpus([Sentence(i, tuple(l)) for i, l in enumerate(lines)]), max_n)
    assert semi_maximal_set(index) == ngrams_reference.semi_maximal_set(index)


@given(st.lists(st.lists(st.sampled_from("ab"), min_size=1, max_size=6), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_occ_superstring_never_exceeds_substring(lines):
    corpus = Corpus([Sentence(i, tuple(l)) for i, l in enumerate(lines)])
    index = extract_ngrams(corpus, 3)
    def strict_substring(p, q):
        return len(p) < len(q) and any(q[i:i + len(p)] == p for i in range(len(q) - len(p) + 1))

    for p in index.phrases():
        for q in index.phrases():
            if strict_substring(p, q):
                assert index.occ(p) >= index.occ(q)


def test_export_tsv_deterministic_order(tmp_path):
    index = extract_ngrams(corpus_of("b a", "a b", "a"), 2)
    out = tmp_path / "index.tsv"
    index.export_tsv(out)
    lines = out.read_text().splitlines()
    counts = [int(l.split("\t")[1]) for l in lines]
    assert counts == sorted(counts, reverse=True)
    assert lines[0].startswith("a\t")  # lexicographic tie-break among count-3... highest count first


def test_tsv_is_serialised_once_and_written_verbatim(tmp_path):
    index = extract_ngrams(corpus_of("b a", "a b", "a"), 2)
    assert index.tsv is index.tsv
    assert index.tsv == b"a\t3\nb\t2\na b\t1\nb a\t1\n"
    index.export_tsv(tmp_path / "index.tsv")
    assert (tmp_path / "index.tsv").read_bytes() == index.tsv
