import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import augment_reference
import ibm1_reference
import lm_reference

from almt.align import Alignments, NULL_TOKEN, align_pair
from almt.corpus import Corpus, ParallelCorpus
from almt.embed import EmbeddingStore, RatioScorer
from almt.lm import NGramLM, train_lm, EOS, UNK
from almt.ngrams import occurrences
from almt.augment import (augment_corpus, best_contextualize, best_switch, contextualize,
                          phrases_in_sentence, switch)


def corpus_of(*lines):
    return Corpus((i, tuple(l.split())) for i, l in enumerate(lines))


def identity_table(tokens):
    return {w: {f"T_{w}": 1.0} for w in tokens} | {NULL_TOKEN: {}}


# --- language model ---

def _score(lm, tokens):
    [lp] = lm.logprob([tokens])
    return lp


def test_lm_prefers_observed_bigram():
    lm = train_lm(corpus_of("a b", "a b"), order=2)
    assert _score(lm, ("a", "b")) > _score(lm, ("a", "a"))


def test_lm_unseen_token_finite():
    lm = train_lm(corpus_of("a b"), order=2)
    assert _score(lm, ("zzz", "qqq")) > float("-inf")


@pytest.mark.parametrize("lines", [("a b c", "b c a", "c"), ("a <s> b",), ("a </s> b",), ("a <unk> b",)],
                         ids=["plain", "bos", "eos", "unk"])
def test_lm_distribution_sums_to_one(lines):
    """A corpus token spelled as a marker is one event, not two: "<s>" is a word
    of its own, "</s>" is EOS and "<unk>" is UNK. Checked on the dict reference,
    whose log-probabilities the coded model matches bit for bit."""
    corpus = corpus_of(*lines)
    for order in (1, 2, 3):
        lm = lm_reference.NGramLM(corpus, order)
        events = sorted(lm.vocab | {UNK, EOS})
        for history in [(), ("a",), ("a", "b"), ("zzz",), ("<s>", "a"), tuple(lines[0].split()[1:2])]:
            total = sum(lm.prob(w, history) for w in events)
            assert total == pytest.approx(1.0, abs=1e-9), (order, history)


def test_lm_empty_sentence_boundary_only():
    lm = train_lm(corpus_of("a"), order=2)
    import math
    from almt.lm import BOS
    reference = lm_reference.NGramLM(corpus_of("a"), order=2)
    assert _score(lm, ()) == pytest.approx(math.log(reference.prob(EOS, (BOS,))), abs=1e-9)


def test_lm_frequency_ordering():
    # "a b c" seen 10x; its reversal never seen
    lm = train_lm(corpus_of(*(["a b c"] * 10 + ["c a b"])), order=3)
    assert _score(lm, ("a", "b", "c")) > _score(lm, ("c", "b", "a"))


def test_lm_order_sensitive():
    lm = train_lm(corpus_of(*(["x y"] * 5)), order=2)
    assert _score(lm, ("x", "y")) != _score(lm, ("y", "x"))


def test_lm_rejects_bad_order():
    with pytest.raises(ValueError):
        NGramLM(corpus_of("a"), order=0)


def test_lm_rejects_an_empty_corpus():
    with pytest.raises(ValueError, match="training corpus is empty"):
        train_lm(Corpus(), order=2)


def test_lm_logprob_of_no_sentence_is_an_empty_array():
    scores = train_lm(corpus_of("a b"), order=3).logprob([])
    assert scores.dtype == np.float64 and scores.shape == (0,)


def test_lm_rejects_a_vocabulary_whose_keys_overflow_63_bits():
    """7,003 codes (7,000 tokens and the three markers) to the fifth power pass 2**63."""
    words = [f"w{i}" for i in range(7000)]
    assert len(train_lm(corpus_of(" ".join(words)), order=4).codes) == 7003
    with pytest.raises(ValueError, match="overflow an order-5 n-gram key"):
        train_lm(corpus_of(" ".join(words)), order=5)


def test_lm_scoring_does_not_write_to_the_model():
    lm = train_lm(corpus_of("a b c"), order=3)

    def snapshot():
        return (dict(lm.codes), lm.vocab,
                [[[keys.tolist(), counts.tolist()] for keys, counts in order] for order in lm.tables])

    before = snapshot()
    lm.logprob([("q", "r", "s", "t", "u"), ("a", "b")])
    assert snapshot() == before


# --- coded model against the dict reference (tests/lm_reference.py) ---

# Corpus and query tokens include the literal markers: a corpus "<s>" is the
# boundary marker to its counts, a query "<s>" is one in a history but UNK as a
# word unless the corpus holds it, and "</s>" is always EOS.
_MARKED = list("abcd") + ["<s>", EOS, UNK]
_sentences = st.lists(st.lists(st.sampled_from(_MARKED), min_size=1, max_size=6), max_size=6)
_queries = st.lists(st.lists(st.sampled_from(_MARKED + ["oov"]), max_size=6), max_size=8)


@settings(max_examples=300, deadline=None)
@given(order=st.integers(1, 4), sentences=_sentences, queries=_queries)
def test_logprob_matches_the_dict_reference(order, sentences, queries):
    """One batch of sentences, the empty one and ones shorter than the order
    included, gives float.hex-equal log-probabilities."""
    corpus = corpus_of(*map(" ".join, sentences))
    lm, reference = NGramLM(corpus, order), lm_reference.NGramLM(corpus, order)
    scores = lm.logprob(queries)
    assert scores.dtype == np.float64 and scores.shape == (len(queries),)
    assert [s.hex() for s in scores.tolist()] == [reference.logprob(q).hex() for q in queries]


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
    found = phrases_in_sentence([("the", "cat", "sat")], pairs)
    assert found == [[(("cat", "sat"), ("T_cat", "T_sat"))]]


def test_phrases_in_sentence_keeps_annotation_order_and_rejects_repeated_sources():
    pairs = [(["sat"], ["T_sat"]), (["the", "cat"], ["T_the", "T_cat"]), (["dog"], ["T_dog"]),
             (["cat", "sat"], ["T_cat", "T_sat"]), (["cat"], ["T_cat"])]
    found = phrases_in_sentence([["the", "cat", "sat", "cat"]], pairs)
    assert found == [[(("sat",), ("T_sat",)), (("the", "cat"), ("T_the", "T_cat")),
                      (("cat", "sat"), ("T_cat", "T_sat")), (("cat",), ("T_cat",))]]
    with pytest.raises(ValueError, match="repeated"):
        phrases_in_sentence([["the", "cat"]], [*pairs, (["sat"], ["T_sat2"])])


@settings(max_examples=200, deadline=None)
@given(sentences=st.lists(st.lists(st.sampled_from("aab"), max_size=8), max_size=6),
       max_n=st.integers(1, 6), rng=st.randoms(use_true_random=False))
def test_phrases_in_sentence_matches_the_window_reference(sentences, max_n, rng):
    """Sources are distinct windows of the sentences (repeats such as "a a a"
    included) or hold a token no sentence has."""
    sources = []
    for _ in range(rng.randint(0, 10)):
        n = rng.randint(1, max_n)
        tokens = rng.choice(sentences) if sentences and rng.random() < 0.7 else []
        if len(tokens) >= n:
            start = rng.randrange(len(tokens) - n + 1)
            sources.append(tuple(tokens[start:start + n]))
        else:
            sources.append(tuple(rng.choice("abz") for _ in range(n)))
    pairs = [(p_x, tuple(f"T{i}" for i in range(len(p_x) + rng.randint(0, 1))))
             for p_x in dict.fromkeys(sources)]
    rng.shuffle(pairs)
    index = augment_reference.PhraseIndex(pairs)
    assert phrases_in_sentence(sentences, pairs) == [
        augment_reference.phrases_in_sentence(tokens, index) for tokens in sentences]


def _peak(f, *args):
    """tracemalloc's peak over one call of ``f``."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [2000, 8000])
def test_phrases_in_sentence_peaks_with_its_scan(n):
    """The per-sentence lists are built after the scan, so the lookup's peak is
    the scan's own: nothing per sentence is held while the scan runs."""
    rng = random.Random(3)
    words = [f"w{i}" for i in range(300)]
    sentences = [tuple(rng.choices(words, k=rng.randint(3, 15))) for _ in range(n)]
    sources = set()
    while len(sources) < 60:
        tokens, k = rng.choice(sentences), rng.randint(1, 3)
        start = rng.randrange(len(tokens) - k + 1)
        sources.add(tokens[start:start + k])
    pairs = [(p_x, tuple(f"T_{t}" for t in p_x)) for p_x in sorted(sources)]
    rise = _peak(phrases_in_sentence, sentences, pairs) - _peak(occurrences, sorted(sources), sentences)
    assert rise < 50 * n


# --- augment_corpus ---

def _augment(u_ids, u_vectors):
    U = corpus_of("x cat sat y", "x cat ran y")
    L = ParallelCorpus((i, (tuple(s.split()), tuple(f"T_{w}" for w in s.split())))
                       for i, s in enumerate(["a b c d", "e f g h"]))
    store_U = EmbeddingStore(u_ids, np.array(u_vectors, dtype=float), "U")
    store_L = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [0.6, 0.8]]), "L")
    return augment_corpus(U, [(("cat",), ("T_cat",))], RatioScorer(store_U, store_L, 1),
                          Alignments(L, identity_table("abcdefgh")), train_lm(U, order=2), "switch")


def test_augment_counts_zero_norm_sentence_as_retrieval_degenerate():
    pairs, report = _augment([0, 1], [[0.0, 0.0], [1.0, 0.1]])
    assert report["retrieval-degenerate"] == 1
    assert [p.origin_id for p in pairs] == [0] and "cat" in pairs[0].source


def test_augment_counts_a_sentence_without_a_switch_once_under_its_dominant_reason():
    """No L word aligns, so "cat" lacks a target span at each of its three positions
    and the four-token phrase has no position: each U sentence is one drop, under
    no-aligned-span."""
    U = corpus_of("x cat sat y", "x cat sat y")
    L = ParallelCorpus((i, (tuple(s.split()), ("y",) * 4)) for i, s in enumerate(["a b c d", "e f g h"]))
    store_U = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [1.0, 0.1]]), "U")
    store_L = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [0.6, 0.8]]), "L")
    annotated = [(("cat",), ("T_cat",)), (("x", "cat", "sat", "y"), ("T_x", "T_cat", "T_sat", "T_y"))]
    pairs, report = augment_corpus(U, annotated, RatioScorer(store_U, store_L, 1),
                                   Alignments(L, {NULL_TOKEN: {"y": 1.0}}),
                                   train_lm(U, order=2), "switch")
    assert pairs == []
    assert report == {"no-annotated-phrase": 0, "retrieval-degenerate": 0,
                      "no-aligned-span": 2, "span-overlap": 0, "no-position": 0}


def test_augment_propagates_other_retrieval_errors():
    with pytest.raises(KeyError):
        _augment([0, 7], [[1.0, 0.0], [1.0, 0.1]])  # sentence 1 has no embedding


def test_augment_aligns_each_retrieved_pair_once(monkeypatch):
    import almt.align
    calls = []

    def counting(src, tgt, table):
        calls.append((tuple(src), tuple(tgt)))
        return align_pair(src, tgt, table)

    monkeypatch.setattr(almt.align, "align_pair", counting)
    U = corpus_of("x cat sat y", "x cat ran y", "cat x y z")
    L = ParallelCorpus((i, (tuple(s.split()), tuple(f"T_{w}" for w in s.split())))
                       for i, s in enumerate(["a b c d", "e f g h"]))
    store_U = EmbeddingStore([0, 1, 2], np.array([[1.0, 0.0], [1.0, 0.1], [1.0, 0.05]]), "U")
    store_L = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]), "L")
    pairs, _ = augment_corpus(U, [(("cat",), ("T_cat",))], RatioScorer(store_U, store_L, 1),
                              Alignments(L, identity_table("abcdefgh")), train_lm(U, order=2), "switch")
    assert [p.origin_id for p in pairs] == [0, 0, 0]
    assert calls == [(("a", "b", "c", "d"), ("T_a", "T_b", "T_c", "T_d"))]


def test_augment_rejects_an_unknown_recipe_before_any_work():
    with pytest.raises(ValueError, match="unknown recipe 'bogus'"):
        augment_corpus(corpus_of("a b"), [], None, None, None, "bogus")


def _retrieving(n_sentences, x_star):
    """(U, phrase pairs, scorer, alignments, lm): ``n_sentences`` U sentences
    "x cat y" that each retrieve L pair 0, ``x_star`` word for word, so that
    each holds len(x_star) - 1 candidates of the annotated "cat"."""
    U = corpus_of(*["x cat y"] * n_sentences)
    words = x_star.split()
    L = ParallelCorpus([(0, (tuple(words), tuple(f"T_{w}" for w in words))), (1, (("e",), ("T_e",)))])
    store_U = EmbeddingStore(list(range(n_sentences)), np.tile([1.0, 0.0], (n_sentences, 1)), "U")
    store_L = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]), "L")
    alignments = Alignments(L, identity_table(set(words)))
    alignments[0]  # aligned here, not in a traced call
    return U, [(("cat",), ("T_cat",))], RatioScorer(store_U, store_L, 1), alignments, train_lm(U)


@pytest.mark.parametrize("recipe", ["switch", "contextualize"])
def test_augment_scores_each_block_in_one_logprob_call(monkeypatch, recipe):
    """Six sentences of three switch candidates each, in blocks closed at seven
    candidates: two logprob calls of nine candidates. Contextualize has one
    candidate a sentence: one call of six."""
    import almt.augment
    batches = []
    logprob = NGramLM.logprob
    monkeypatch.setattr(NGramLM, "logprob", lambda lm, sentences: batches.append(len(sentences))
                        or logprob(lm, sentences))
    monkeypatch.setattr(almt.augment, "BLOCK_CANDIDATES", 7)
    pairs, _ = augment_corpus(*_retrieving(6, "a b c d"), recipe)
    assert len(pairs) == 6
    assert batches == ([9, 9] if recipe == "switch" else [6])


def test_a_run_scores_augmentation_candidates_in_blocks(monkeypatch, tmp_path):
    """On the stock toy each best_switch call scores its block in one logprob
    call; every block but the last reaches the cap, and no block holds a pair
    past the one that reached it."""
    import almt.augment
    from almt import toy
    from almt.pipeline import RunConfig, run_pipeline
    monkeypatch.setattr(almt.augment, "BLOCK_CANDIDATES", 64)
    calls, blocks = [], []
    logprob, search = NGramLM.logprob, almt.augment.best_switch
    monkeypatch.setattr(NGramLM, "logprob", lambda lm, sentences: calls.append(len(sentences))
                        or logprob(lm, sentences))

    def counting(block, lm, alignments):
        blocks.append([sum(max(0, len(alignments.parallel[pair_id][0]) - len(p)) for p, _ in annotated)
                       for annotated, pair_id in block])
        return search(block, lm, alignments)

    monkeypatch.setattr(almt.augment, "best_switch", counting)
    config = toy.generate(tmp_path / "toy")
    config.update(augment_recipe="switch", budgets=[400], output_dir=str(tmp_path / "runs"))
    [report] = run_pipeline(RunConfig(**config))
    assert report.counts["synthetic_pairs"] > 0 and len(blocks) > 2
    assert len(calls) == len(blocks) and sum(calls) > 10 * len(calls)
    for block in blocks[:-1]:
        assert sum(block) >= 64 > sum(block[:-1])


def test_augment_peak_memory_does_not_grow_with_candidates(monkeypatch):
    """224 more U sentences, each with 38 switch candidates, raise the traced
    peak of augment_corpus by under 4 KB a sentence, what its synthetic pair and
    bookkeeping take. With the blocks uncapped, all 9,728 candidates scored at
    once, the same sentences raise it by more."""
    import tracemalloc
    import almt.augment
    x_star = " ".join(f"w{i}" for i in range(39))

    def peak(n_sentences):
        args = _retrieving(n_sentences, x_star)
        tracemalloc.start()
        try:
            pairs, _ = augment_corpus(*args, "switch")
            assert len(pairs) == n_sentences
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # first calls allocate caches of their own
    bound = (256 - 32) * 4096
    monkeypatch.setattr(almt.augment, "BLOCK_CANDIDATES", 128)
    assert peak(256) - peak(32) < bound
    monkeypatch.setattr(almt.augment, "BLOCK_CANDIDATES", 10 ** 9)
    assert peak(256) - peak(32) > bound

# --- best_switch / best_contextualize ---

def _one_pair(x_star, y_star, table=None):
    """Alignments over L = {0: (x_star, y_star)} under ``table``."""
    return Alignments(ParallelCorpus([(0, (x_star, y_star))]), table)


def _best_switch(annotated, x_star, y_star, lm, table):
    [result] = best_switch([(annotated, 0)], lm, _one_pair(x_star, y_star, table))
    return result


def _best_contextualize(annotated, x_star, y_star, lm):
    """The winner of one entry; contextualize reads no links, so no table is given."""
    [(pair, reasons)] = best_contextualize([(annotated, 0)], lm, _one_pair(x_star, y_star))
    assert reasons == {}
    return pair


def test_best_switch_single_candidate():
    x_star = ("a", "b", "c")
    table = identity_table("abc")
    lm = train_lm(corpus_of("a b c"), order=2)
    # phrase of length 2: only position 0 is allowed (i < |x*| - |p|)
    best, reasons = _best_switch([(("P", "Q"), ("T_P", "T_Q"))], x_star,
                                 ("T_a", "T_b", "T_c"), lm, table)
    assert best is not None
    assert best.source == ("P", "Q", "c")
    assert best.target == ("T_P", "T_Q", "T_c")
    assert best.position == 0


def test_best_switch_lm_prefers_position():
    # LM trained so that "P b c" is much more likely than "a P c"
    lm = train_lm(corpus_of(*(["P b c"] * 20 + ["a b c"])), order=3)
    table = identity_table("abc")
    best, _ = _best_switch([(("P",), ("T_P",))], ("a", "b", "c"),
                           ("T_a", "T_b", "T_c"), lm, table)
    assert best.position == 0
    assert best.source == ("P", "b", "c")


def test_best_switch_all_spans_unresolvable():
    table = {NULL_TOKEN: {"y": 1.0}}  # nothing aligns
    lm = train_lm(corpus_of("a b"), order=2)
    best, reasons = _best_switch([(("P",), ("T_P",))], ("a", "b"), ("y", "y"), lm, table)
    assert best is None
    assert reasons["no-aligned-span"] > 0


def test_best_switch_argmax_invariant_to_lm_constant():
    # adding a constant to every logprob cannot change the argmax; proxy check:
    # two LMs with proportional counts give the same winner
    lm1 = train_lm(corpus_of(*(["P b c"] * 10 + ["a b c"] * 2)), order=2)
    lm2 = train_lm(corpus_of(*(["P b c"] * 20 + ["a b c"] * 4)), order=2)
    table = identity_table("abc")
    b1, _ = _best_switch([(("P",), ("T_P",))], ("a", "b", "c"), ("T_a", "T_b", "T_c"), lm1, table)
    b2, _ = _best_switch([(("P",), ("T_P",))], ("a", "b", "c"), ("T_a", "T_b", "T_c"), lm2, table)
    assert b1.position == b2.position


def test_best_switch_breaks_a_tie_to_the_first_candidate():
    """Switching "a" into "a a a b" at any position, or the same phrase annotated
    twice, gives the same sentence: the first phrase at the first position wins."""
    lm = train_lm(corpus_of("a b"), order=2)
    annotated = [(("a",), ("T_a",)), (("a",), ("T_a2",))]
    alignments = _one_pair(("a", "a", "a", "b"), ("T_a",) * 3 + ("T_b",))
    alignments[0] = [0, 1, 2, 3]
    [(best, _)] = best_switch([(annotated, 0)], lm, alignments)
    assert (best.position, best.phrase_tgt, best.target) == (0, ("T_a",), ("T_a",) * 3 + ("T_b",))


def test_best_contextualize_breaks_a_tie_to_the_first_phrase():
    lm = train_lm(corpus_of("a b"), order=2)
    pair = _best_contextualize([(("P",), ("T_1",)), (("P",), ("T_2",))], ("a",), ("T_a",), lm)
    assert pair.phrase_tgt == ("T_1",)


def test_best_contextualize_single_pair():
    lm = train_lm(corpus_of("a b"), order=2)
    pair = _best_contextualize([(("P",), ("T_P",))], ("a", "b"), ("T_a", "T_b"), lm)
    assert pair.source == ("a", "b", "P")
    assert pair.target == ("T_a", "T_b", "T_P")


def test_best_contextualize_lm_prefers_pair():
    lm = train_lm(corpus_of(*(["a b P"] * 20 + ["a b Q"])), order=3)
    pair = _best_contextualize([(("Q",), ("T_Q",)), (("P",), ("T_P",))],
                               ("a", "b"), ("T_a", "T_b"), lm)
    assert pair.phrase_src == ("P",)
    assert pair.phrase_tgt == ("T_P",)  # source and target recipes coupled


def test_best_contextualize_requires_phrases():
    lm = train_lm(corpus_of("a"), order=1)
    with pytest.raises(ValueError):
        best_contextualize([([(("P",), ("T_P",))], 0), ([], 0)], lm, _one_pair(("a",), ("T_a",)))


def test_synthetic_pair_replay_from_recipe():
    lm = train_lm(corpus_of("a b c"), order=2)
    table = identity_table("abc")
    best, _ = _best_switch([(("P",), ("T_P",))], ("a", "b", "c"), ("T_a", "T_b", "T_c"), lm, table)
    replay = switch(("a", "b", "c"), best.phrase_src, best.position)
    assert replay == best.source
    j_min, j_max = best.target_span
    y = ("T_a", "T_b", "T_c")
    assert y[:j_min] + best.phrase_tgt + y[j_max + 1:] == best.target


# --- a block against the per-candidate references (tests/augment_reference.py) ---

_words = st.sampled_from("abc")
_phrase = st.lists(_words, min_size=1, max_size=3).map(tuple)


@st.composite
def _retrieved(draw):
    """One retrieved pair: its annotated phrases (repeats included, so some
    candidates tie), x_star, y_star and random links between them: one x_star
    index or -1 (unlinked) per y_star token."""
    x_star = tuple(draw(st.lists(_words, min_size=1, max_size=6)))
    y_star = tuple(f"T_{w}" for w in draw(st.lists(_words, min_size=1, max_size=6)))
    annotated = draw(st.lists(st.tuples(_phrase, _phrase.map(lambda p: tuple(f"T_{w}" for w in p))),
                              min_size=1, max_size=4))
    links = draw(st.lists(st.integers(-1, len(x_star) - 1), min_size=len(y_star), max_size=len(y_star)))
    return annotated, x_star, y_star, links


def _entries(block):
    """The (annotated pairs, L pair id) entries of ``block``, pair i of L being
    its i-th drawn pair, and Alignments over that L holding the drawn links."""
    alignments = Alignments(ParallelCorpus((i, (x, y)) for i, (_, x, y, _) in enumerate(block)), None)
    alignments.update({i: links for i, (*_, links) in enumerate(block)})
    return [(annotated, i) for i, (annotated, *_) in enumerate(block)], alignments


def _same(pair, expected):
    """Equal SyntheticPairs, their scores float.hex-equal; or both None."""
    if expected is None:
        return pair is None
    return pair == expected and pair.lm_score.hex() == expected.lm_score.hex()


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 3), sentences=st.lists(st.lists(_words, min_size=1, max_size=5), max_size=5),
       block=st.lists(_retrieved(), max_size=5))
def test_best_switch_matches_the_per_candidate_reference(order, sentences, block):
    corpus = corpus_of(*map(" ".join, sentences))
    lm, reference = NGramLM(corpus, order), lm_reference.NGramLM(corpus, order)
    entries, alignments = _entries(block)
    results = best_switch(entries, lm, alignments)
    assert len(results) == len(block)
    for origin, ((best, reasons), (annotated, x, y, links)) in enumerate(zip(results, block)):
        expected, expected_reasons = augment_reference.best_switch(
            annotated, x, y, ibm1_reference.link_set(links), reference, origin_id=origin)
        assert _same(best, expected) and reasons == expected_reasons


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 3), sentences=st.lists(st.lists(_words, min_size=1, max_size=5), max_size=5),
       block=st.lists(_retrieved(), max_size=5))
def test_best_contextualize_matches_the_per_candidate_reference(order, sentences, block):
    corpus = corpus_of(*map(" ".join, sentences))
    lm, reference = NGramLM(corpus, order), lm_reference.NGramLM(corpus, order)
    entries, alignments = _entries(block)
    results = best_contextualize(entries, lm, alignments)
    assert len(results) == len(block)
    for origin, ((pair, reasons), (annotated, x, y, _)) in enumerate(zip(results, block)):
        assert _same(pair, augment_reference.best_contextualize(annotated, x, y, reference, origin))
        assert reasons == {}
