import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import analyze_reference
from almt.analyze import (in_domain_vocab, in_domain_word_stats, length_ratio,
                          ngram_coverage, pearson, sentence_bleu)
from almt.corpus import Corpus


def corpus_of(*lines):
    return Corpus((i, tuple(l.split())) for i, l in enumerate(lines))


def oracle_coverage(covering, test, n):
    """Independent type-level coverage: plain set arithmetic."""
    def types(sents):
        out = set()
        for toks in sents:
            out.update(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))
        return out
    t = types(test)
    return 100.0 * len(t & types(covering)) / len(t) if t else 0.0


def oracle_bleu(hyp, ref, max_n=4):
    """Independent smoothed BLEU (multiplicative form, no log space)."""
    if not hyp:
        return 0.0
    prod = 1.0
    for n in range(1, max_n + 1):
        hc = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
        rc = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        match = sum(min(c, rc[g]) for g, c in hc.items())
        total = sum(hc.values())
        if n >= 2:
            match, total = match + 1, total + 1
        if match == 0:
            return 0.0
        prod *= match / total
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return 100.0 * bp * prod ** (1.0 / max_n)


# --- coverage ---

def test_coverage_full():
    coverage = ngram_coverage([("a", "b", "c")], [("a", "b", "c")], 3)
    assert coverage == {1: 100.0, 2: 100.0, 3: 100.0}


def test_coverage_zero():
    coverage = ngram_coverage([("x",)], [("a", "b")], 2)
    assert coverage == {1: 0.0, 2: 0.0}


def test_coverage_partial_types():
    # test types at n=1: a, b, c; covering has a, b -> 2/3
    coverage = ngram_coverage([("a", "b")], [("a", "b", "c"), ("a",)], 1)
    assert coverage[1] == pytest.approx(200.0 / 3)


def test_coverage_type_vs_token_level():
    covering = [("a",)]
    test = [("a", "a", "a", "b")]
    assert ngram_coverage(covering, test, 1)[1] == 50.0
    assert ngram_coverage(covering, test, 1, token_level=True)[1] == 75.0


def test_coverage_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(30):
        vocab = [f"w{i}" for i in range(rng.randint(2, 8))]
        mk = lambda: [tuple(rng.choice(vocab) for _ in range(rng.randint(1, 9)))
                      for _ in range(rng.randint(1, 12))]
        covering, test = mk(), mk()
        coverage = ngram_coverage(covering, test, 4)
        for n in range(1, 5):
            assert coverage[n] == pytest.approx(oracle_coverage(covering, test, n))


def test_coverage_empty_test_rejected():
    with pytest.raises(ValueError):
        ngram_coverage([("a",)], [], 2)


def test_coverage_rejects_max_n_0():
    with pytest.raises(ValueError, match="max_n must be >= 1, got 0"):
        ngram_coverage([("a",)], [("a",)], 0)


# Sentences over shared tokens and one of each side's own, empty ones included,
# so that test n-grams absent from the covering side are common.
def sentences(own):
    return st.lists(st.lists(st.sampled_from(["a", "b", "c", own]), max_size=7), max_size=6)


@settings(max_examples=300, deadline=None)
@given(covering=sentences("x"), test=sentences("t").filter(bool), max_n=st.integers(1, 6),
       token_level=st.booleans())
def test_coverage_matches_the_tuple_reference(covering, test, max_n, token_level):
    got = ngram_coverage(covering, test, max_n, token_level=token_level)
    assert repr(got) == repr(analyze_reference.ngram_coverage(covering, test, max_n, token_level))


# --- pearson ---

def test_pearson_perfect_linear():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, [-3 * x for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    # r for (1,2,3) vs (1,2,4): sxy=3, sxx=2, syy=14/3
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(3 / math.sqrt(2 * 14 / 3), abs=1e-12)


def test_pearson_zero_variance_rejected():
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("xs, ys, unscaled", [
    ([1e200, 2e200, 4e200], [1, 2, 3], ([1, 2, 4], [1, 2, 3])),  # unscaled squares past the float range
    ([1e308, 1e308, -1e308], [1, 2, 3], ([1, 1, -1], [1, 2, 3])),  # an unscaled sum past it
    ([1e-160, 2e-160, 4e-160], [1e-160, 3e-160, 2e-160], ([1, 2, 4], [1, 3, 2])),  # sxx * syy below it
    ([1e-200, 2e-200, 4e-200], [1e-200, 3e-200, 2e-200], ([1, 2, 4], [1, 3, 2])),  # squares below it
])
def test_pearson_scales_each_column_so_no_sum_leaves_the_float_range(xs, ys, unscaled):
    assert pearson(xs, ys) == pytest.approx(pearson(*unscaled), abs=1e-15)


@pytest.mark.parametrize("xs, ys", [([1, float("nan"), 3], [1, 2, 3]), ([1, 2, 3], [float("inf"), 2, 3])])
def test_pearson_outside_the_float_range_is_a_value_error_not_a_clamped_number(xs, ys):
    with pytest.raises(ValueError, match="float range"):
        pearson(xs, ys)


def test_pearson_length_mismatch():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


# --- bleu ---

def test_bleu_identical_is_100():
    assert sentence_bleu(("a", "b", "c", "d", "e"), ("a", "b", "c", "d", "e")) == 100.0


def test_bleu_zero_overlap():
    assert sentence_bleu(("x", "y"), ("a", "b")) == 0.0


def test_bleu_empty_hypothesis():
    assert sentence_bleu((), ("a", "b")) == 0.0


def test_bleu_rejects_an_empty_reference():
    with pytest.raises(ValueError, match="reference is empty"):
        sentence_bleu(("a",), ())


def test_bleu_brevity_penalty():
    long_ref = tuple("abcdefgh")
    shorter = sentence_bleu(long_ref[:4], long_ref)
    full = sentence_bleu(long_ref, long_ref)
    assert shorter < full


def test_bleu_matches_oracle_fixture():
    cases = [
        (("the", "cat", "sat"), ("the", "cat", "sat")),
        (("the", "cat"), ("the", "cat", "sat", "down")),
        (("a", "b", "c", "d"), ("a", "b", "x", "d")),
        (("a", "a", "a"), ("a",)),
        (("x", "a", "b", "c"), ("a", "b", "c", "d")),
        (("a",), ("a", "b", "c", "d", "e")),
        (("p", "q", "r", "s", "t"), ("p", "q", "r", "s", "t", "u", "v")),
        (("m", "n"), ("n", "m")),
        (("w",) * 6, ("w",) * 3),
        (("u", "v", "w", "u", "v"), ("u", "v", "w")),
    ]
    for hyp, ref in cases:
        assert sentence_bleu(hyp, ref) == pytest.approx(oracle_bleu(hyp, ref), abs=1e-6)


# --- in-domain word stats ---

def test_in_domain_vocab():
    assert in_domain_vocab([("a", "b"), ("c",)], [("b",)]) == {"a", "c"}


def test_in_domain_word_stats_values():
    # in-domain vocab = {d1, d2}; selected has types {d1, g1, g2}, 5 tokens,
    # 2 of which are in-domain
    stats = in_domain_word_stats(
        selected=[("d1", "g1"), ("d1", "g2", "g1")],
        ood=[("g1", "g2", "g3")],
        test=[("d1", "d2", "g1")])
    assert stats == {"IDWT": 1, "WT": 3, "IDWC": 2, "WC": 5}


# --- length ratio ---

def test_length_ratio():
    refs = corpus_of("a b c d", "e f")
    assert length_ratio(corpus_of("x y z", "w"), refs) == pytest.approx(4 / 6)


def test_length_ratio_missing_id():
    with pytest.raises(ValueError):
        length_ratio(corpus_of("x"), corpus_of("a", "b"))
