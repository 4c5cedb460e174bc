import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lm_reference

from almt.align import TranslationTable, NULL_TOKEN
from almt.corpus import Corpus, ParallelCorpus, Sentence
from almt.embed import EmbeddingStore, RatioScorer
from almt.lm import NGramLM, train_lm, EOS, UNK
from almt.augment import (PhraseIndex, augment_corpus, best_contextualize, best_switch,
                          contextualize, phrases_in_sentence, switch)


def corpus_of(*lines):
    return Corpus([Sentence(i, tuple(l.split())) for i, l in enumerate(lines)])


def identity_table(tokens):
    return TranslationTable({w: {f"T_{w}": 1.0} for w in tokens} | {NULL_TOKEN: {}})


# --- language model ---

def test_lm_prefers_observed_bigram():
    lm = train_lm(corpus_of("a b", "a b"), order=2)
    assert lm.prob("b", ("a",)) > lm.prob("a", ("a",))


def test_lm_unseen_token_finite():
    lm = train_lm(corpus_of("a b"), order=2)
    assert lm.logprob(("zzz", "qqq")) > float("-inf")


def test_lm_distribution_sums_to_one():
    lm = train_lm(corpus_of("a b c", "b c a", "c"), order=3)
    vocab = sorted(lm.vocab) + [UNK, EOS]
    for history in [(), ("a",), ("a", "b"), ("zzz",)]:
        total = sum(lm.prob(w, history) for w in vocab)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_lm_empty_sentence_boundary_only():
    lm = train_lm(corpus_of("a"), order=2)
    import math
    from almt.lm import BOS
    assert lm.logprob(()) == pytest.approx(math.log(lm.prob(EOS, (BOS,))), abs=1e-9)


def test_lm_frequency_ordering():
    # "a b c" seen 10x; its reversal never seen
    lm = train_lm(corpus_of(*(["a b c"] * 10 + ["c a b"])), order=3)
    assert lm.logprob(("a", "b", "c")) > lm.logprob(("c", "b", "a"))


def test_lm_order_sensitive():
    lm = train_lm(corpus_of(*(["x y"] * 5)), order=2)
    assert lm.logprob(("x", "y")) != lm.logprob(("y", "x"))


def test_lm_rejects_bad_order():
    with pytest.raises(ValueError):
        NGramLM(order=0)


def test_lm_scoring_does_not_write_to_the_model():
    lm = train_lm(corpus_of("a b c"), order=3)

    def snapshot():
        return ([{h: dict(row) for h, row in c.items()} for c in lm.counts[1:]],
                [dict(t) for t in lm.totals[1:]])

    before = snapshot()
    lm.logprob(("q", "r", "s", "t", "u"))
    lm.prob("q", ("r", "s"))
    assert snapshot() == before


# --- memoised logprob against the unmemoised reference (tests/lm_reference.py) ---

_sentences = st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), max_size=6)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 4), first=_sentences, second=_sentences,
       queries=st.lists(st.lists(st.sampled_from(list("abcd") + ["oov", "<s>", EOS]), max_size=6),
                        max_size=6))
def test_logprob_matches_the_unmemoised_reference(order, first, second, queries):
    lm = NGramLM(order).train(corpus_of(*map(" ".join, first)))
    for tokens in queries + queries:  # the second round reads the memo
        assert lm.logprob(tokens).hex() == lm_reference.logprob(lm, tokens).hex()
    lm.train(corpus_of(*map(" ".join, second)))  # new counts and vocabulary: no stale term
    for tokens in queries:
        assert lm.logprob(tokens).hex() == lm_reference.logprob(lm, tokens).hex()


# --- switch / contextualize ---

def test_switch_basic():
    assert switch(("the", "cat", "sat"), ("dog",), 1) == ("the", "dog", "sat")


def test_switch_full_replacement():
    assert switch(("a", "b"), ("X", "Y"), 0) == ("X", "Y")


def test_switch_two_token_window():
    assert switch(("a", "b", "c", "d"), ("X", "Y"), 1) == ("a", "X", "Y", "d")


def test_switch_out_of_bounds():
    with pytest.raises(ValueError):
        switch(("a", "b"), ("X", "Y", "Z"), 1)


def test_switch_length_identity_random():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 10)
        x = tuple(f"w{rng.randint(0, 5)}" for _ in range(n))
        plen = rng.randint(1, n)
        i = rng.randint(0, n - plen)
        p = tuple(f"p{j}" for j in range(plen))
        out = switch(x, p, i)
        assert len(out) == len(x)
        assert out[i:i + plen] == p


def test_contextualize_basic():
    assert contextualize(("hello", "world"), ("foo",)) == ("hello", "world", "foo")


def test_contextualize_length():
    assert len(contextualize(("a", "b"), ("c", "d"))) == 4


def test_contextualize_empty_phrase_rejected():
    with pytest.raises(ValueError):
        contextualize(("a",), ())


def test_phrases_in_sentence():
    pairs = [(("cat", "sat"), ("T_cat", "T_sat")), (("dog",), ("T_dog",))]
    found = phrases_in_sentence(("the", "cat", "sat"), PhraseIndex(pairs))
    assert found == [(("cat", "sat"), ("T_cat", "T_sat"))]


def test_phrases_in_sentence_keeps_annotation_order_and_duplicates():
    pairs = [(["sat"], ["T_sat"]), (["the", "cat"], ["T_the", "T_cat"]), (["dog"], ["T_dog"]),
             (["sat"], ["T_sat2"]), (["cat"], ["T_cat"]), (["sat"], ["T_sat"])]
    found = phrases_in_sentence(["the", "cat", "sat", "cat"], PhraseIndex(pairs))
    assert found == [(("sat",), ("T_sat",)), (("the", "cat"), ("T_the", "T_cat")),
                     (("sat",), ("T_sat2",)), (("cat",), ("T_cat",)), (("sat",), ("T_sat",))]


# --- augment_corpus ---

def _augment(u_ids, u_vectors):
    U = corpus_of("x cat sat y", "x cat ran y")
    L = ParallelCorpus([(Sentence(i, tuple(s.split())), Sentence(i, tuple(f"T_{w}" for w in s.split())))
                        for i, s in enumerate(["a b c d", "e f g h"])])
    store_U = EmbeddingStore(u_ids, np.array(u_vectors, dtype=float), "U")
    store_L = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [0.6, 0.8]]), "L")
    return augment_corpus(U, [(("cat",), ("T_cat",))], RatioScorer(store_U, store_L, 1), L,
                          train_lm(U, order=2), identity_table("abcdefgh"))


def test_augment_counts_zero_norm_sentence_as_retrieval_degenerate():
    pairs, report = _augment([0, 1], [[0.0, 0.0], [1.0, 0.1]])
    assert report["retrieval-degenerate"] == 1
    assert [p.origin_id for p in pairs] == [0] and "cat" in pairs[0].source


def test_augment_propagates_other_retrieval_errors():
    with pytest.raises(KeyError):
        _augment([0, 7], [[1.0, 0.0], [1.0, 0.1]])  # sentence 1 has no embedding


# --- best_switch / best_contextualize ---

def test_best_switch_single_candidate():
    x_star = ("a", "b", "c")
    table = identity_table("abc")
    lm = train_lm(corpus_of("a b c"), order=2)
    # phrase of length 2: only position 0 is allowed (i < |x*| - |p|)
    best, reasons = best_switch([(("P", "Q"), ("T_P", "T_Q"))], x_star,
                                ("T_a", "T_b", "T_c"), lm, table)
    assert best is not None
    assert best.source == ("P", "Q", "c")
    assert best.target == ("T_P", "T_Q", "T_c")
    assert best.position == 0


def test_best_switch_lm_prefers_position():
    # LM trained so that "P b c" is much more likely than "a P c"
    lm = train_lm(corpus_of(*(["P b c"] * 20 + ["a b c"])), order=3)
    table = identity_table("abc")
    best, _ = best_switch([(("P",), ("T_P",))], ("a", "b", "c"),
                          ("T_a", "T_b", "T_c"), lm, table)
    assert best.position == 0
    assert best.source == ("P", "b", "c")


def test_best_switch_all_spans_unresolvable():
    table = TranslationTable({NULL_TOKEN: {"y": 1.0}})  # nothing aligns
    lm = train_lm(corpus_of("a b"), order=2)
    best, reasons = best_switch([(("P",), ("T_P",))], ("a", "b"), ("y", "y"), lm, table)
    assert best is None
    assert reasons["no-aligned-span"] > 0


def test_best_switch_argmax_invariant_to_lm_constant():
    # adding a constant to every logprob cannot change the argmax; proxy check:
    # two LMs with proportional counts give the same winner
    lm1 = train_lm(corpus_of(*(["P b c"] * 10 + ["a b c"] * 2)), order=2)
    lm2 = train_lm(corpus_of(*(["P b c"] * 20 + ["a b c"] * 4)), order=2)
    table = identity_table("abc")
    b1, _ = best_switch([(("P",), ("T_P",))], ("a", "b", "c"), ("T_a", "T_b", "T_c"), lm1, table)
    b2, _ = best_switch([(("P",), ("T_P",))], ("a", "b", "c"), ("T_a", "T_b", "T_c"), lm2, table)
    assert b1.position == b2.position


def test_best_contextualize_single_pair():
    lm = train_lm(corpus_of("a b"), order=2)
    pair = best_contextualize([(("P",), ("T_P",))], ("a", "b"), ("T_a", "T_b"), lm)
    assert pair.source == ("a", "b", "P")
    assert pair.target == ("T_a", "T_b", "T_P")


def test_best_contextualize_lm_prefers_pair():
    lm = train_lm(corpus_of(*(["a b P"] * 20 + ["a b Q"])), order=3)
    pair = best_contextualize([(("Q",), ("T_Q",)), (("P",), ("T_P",))],
                              ("a", "b"), ("T_a", "T_b"), lm)
    assert pair.phrase_src == ("P",)
    assert pair.phrase_tgt == ("T_P",)  # source and target recipes coupled


def test_best_contextualize_requires_phrases():
    lm = train_lm(corpus_of("a"), order=1)
    with pytest.raises(ValueError):
        best_contextualize([], ("a",), ("T_a",), lm)


def test_synthetic_pair_replay_from_recipe():
    lm = train_lm(corpus_of("a b c"), order=2)
    table = identity_table("abc")
    best, _ = best_switch([(("P",), ("T_P",))], ("a", "b", "c"), ("T_a", "T_b", "T_c"), lm, table)
    replay = switch(("a", "b", "c"), best.phrase_src, best.position)
    assert replay == best.source
    j_min, j_max = best.target_span
    y = ("T_a", "T_b", "T_c")
    assert y[:j_min] + best.phrase_tgt + y[j_max + 1:] == best.target
