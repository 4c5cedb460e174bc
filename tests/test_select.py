import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngrams_reference
import select_reference
from ngrams_reference import decode
from almt.corpus import Corpus
from almt.embed import EmbeddingStore, RatioScorer
from almt.ngrams import extract_ngrams, semi_maximal_set
from almt.select import (cut, encode_pick, rank, rank_lines, select_csse, select_hybrid, select_ngf,
                         select_ngf_smp, select_random_phrases, select_random_sentences,
                         select_rttl, shuffled, split_budget, load_rttl_scores)


def corpus_of(*lines):
    return Corpus((i, tuple(l.split())) for i, l in enumerate(lines))


def brute_force_ngf(index_U, index_L, budget, candidates=None):
    pool = [p for p in (candidates or index_U) if p not in index_L]
    pool.sort(key=lambda p: (-index_U[p], len(p), p))
    chosen, spent = [], 0
    for p in pool:
        if spent >= budget:
            break
        chosen.append(p)
        spent += len(p)
    return chosen


# --- the two ordering rules ---

# Ties, signed zeros, infinities and NaN drawn often; ids distinct and unsorted.
_rank_score = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                        st.floats())


@settings(max_examples=300, deadline=None)
@given(draws=st.lists(st.tuples(st.integers(-50, 50), _rank_score), unique_by=lambda d: d[0],
                      max_size=20),
       descending=st.booleans())
def test_rank_is_the_sort_by_score_then_id_of_the_scored_ids(draws, descending):
    kept = [(i, s) for i, s in draws if not math.isnan(s)]
    expected = [i for i, _ in sorted(kept, key=lambda d: (-d[1] if descending else d[1], d[0]))]
    got = rank([i for i, _ in draws], [s for _, s in draws], descending)
    assert got == expected and all(type(i) is int for i in got)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(), unique=True, max_size=20), seed=st.integers(0, 2 ** 64))
def test_shuffled_is_the_seeded_shuffle_of_the_ids(ids, seed):
    expected = list(ids)
    random.Random(seed).shuffle(expected)
    assert shuffled(ids, seed) == shuffled(dict.fromkeys(ids), seed) == expected


def test_random_sentences_overshoot_single_item():
    U = corpus_of("a b c", "d e f", "g h i")
    result = cut([select_random_sentences(U, seed=0)], 1)
    assert len(result.sentences) == 1
    assert result.budget.spent_sentences == 3


def test_random_sentences_seed_determinism():
    U = corpus_of(*(f"w{i} x y" for i in range(20)))
    a = cut([select_random_sentences(U, seed=42)], 15)
    b = cut([select_random_sentences(U, seed=42)], 15)
    assert [s.id for s in a.sentences] == [s.id for s in b.sentences]


def test_random_sentences_exhaustion():
    U = corpus_of("a b", "c d")
    result = cut([select_random_sentences(U, seed=1)], 100)
    assert len(result.sentences) == 2
    assert result.exhausted


def _planted_stores():
    # U ids 0,1: vectors chosen so id0 is far from L, id1 is close
    store_U = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [0.05, 1.0]]), "U")
    store_L = EmbeddingStore([0, 1], np.array([[0.0, 1.0], [0.1, 1.0]]), "L")
    return store_U, store_L


def test_csse_takes_largest_score_first():
    from ratio_reference import dist_to_labeled
    U = corpus_of("a", "b")
    store_U, store_L = _planted_stores()
    phis = {sid: dist_to_labeled(sid, store_U, store_L, k=1) for sid in (0, 1)}
    expected_first = max(phis, key=lambda sid: (phis[sid], -sid))
    result = cut([select_csse(U, RatioScorer(store_U, store_L, 1))], 1)
    assert [s.id for s in result.sentences] == [expected_first]
    assert result.sentences[0].score == pytest.approx(phis[expected_first])


def test_csse_tie_breaks_ascending_id():
    U = corpus_of("a", "b", "c")
    vecs = np.array([[1.0, 0.0]] * 3)
    store_U = EmbeddingStore([0, 1, 2], vecs, "U")
    store_L = EmbeddingStore([0, 1], np.array([[0.5, 0.5], [0.4, 0.6]]), "L")
    result = cut([select_csse(U, RatioScorer(store_U, store_L, 1))], 10)
    assert [s.id for s in result.sentences] == [0, 1, 2]


def test_csse_scale_invariant_order():
    rng = np.random.default_rng(8)
    U = corpus_of(*(f"t{i}" for i in range(12)))
    mu, ml = rng.normal(size=(12, 4)), rng.normal(size=(6, 4))
    r1 = cut([select_csse(U, RatioScorer(EmbeddingStore(range(12), mu, "U"),
                                         EmbeddingStore(range(6), ml, "L"), 2))], 6)
    r2 = cut([select_csse(U, RatioScorer(EmbeddingStore(range(12), mu * 17.5, "U"),
                                         EmbeddingStore(range(6), ml * 0.03, "L"), 2))], 6)
    assert [s.id for s in r1.sentences] == [s.id for s in r2.sentences]


def test_csse_names_skips_by_cause():
    # U row 1 has zero norm. U row 2 points away from L: its mean cosine to
    # L is about -1 and L row 0's mean is 0, so their denominator is negative.
    U = corpus_of("a", "b", "c")
    store_U = EmbeddingStore([0, 1, 2], np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]), "U")
    store_L = EmbeddingStore([0, 1], np.array([[1.0, 0.0], [0.9, 0.1]]), "L")
    result = cut([select_csse(U, RatioScorer(store_U, store_L, 2))], 10)
    assert [s.id for s in result.sentences] == [0]
    assert result.skipped == {"zero-norm": 1, "non-positive-margin": 1}


def test_rttl_lowest_likelihood_first():
    U = corpus_of("a", "b")
    result = cut([select_rttl(U, {0: -1.0, 1: -5.0})], 1)
    assert [s.id for s in result.sentences] == [1]


def test_rttl_uniform_scores_ascending_id():
    U = corpus_of("a", "b", "c")
    result = cut([select_rttl(U, {0: -2.0, 1: -2.0, 2: -2.0})], 10)
    assert [s.id for s in result.sentences] == [0, 1, 2]


def test_rttl_score_file_roundtrip(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t-1.5\n1\t-0.25\n")
    scores = load_rttl_scores(path)
    U = corpus_of("a", "b")
    r1 = cut([select_rttl(U, scores)], 5)
    r2 = cut([select_rttl(U, load_rttl_scores(path))], 5)
    assert [s.id for s in r1.sentences] == [s.id for s in r2.sentences] == [0, 1]


def test_random_phrases_excludes_labeled():
    index_U = extract_ngrams(corpus_of("a b", "c"), 2)
    index_L = extract_ngrams(corpus_of("a b c"), 2)
    result = cut([select_random_phrases(index_U, index_L, seed=0)], 10)
    assert result.phrases == []
    assert result.skipped.get("empty_candidate_pool") == 1


def test_random_phrases_single_candidate():
    index_U = extract_ngrams(corpus_of("x a"), 1)
    index_L = extract_ngrams(corpus_of("a"), 1)
    result = cut([select_random_phrases(index_U, index_L, seed=3)], 1)
    assert [p.tokens for p in result.phrases] == [("x",)]


def test_ngf_frequency_order():
    index_U = extract_ngrams(corpus_of("x x x x x", "y y y"), 1)
    index_L = extract_ngrams(corpus_of("z"), 1)
    result = cut([select_ngf(index_U, index_L)], 2)
    assert [p.tokens for p in result.phrases] == [("x",), ("y",)]


def test_ngf_excludes_labeled_regardless_of_count():
    index_U = extract_ngrams(corpus_of("x x x x x", "y"), 1)
    index_L = extract_ngrams(corpus_of("x"), 1)
    result = cut([select_ngf(index_U, index_L)], 5)
    assert [p.tokens for p in result.phrases] == [("y",)]


def test_ngf_matches_brute_force_toy():
    U = corpus_of("a b a", "b c", "a b", "c d e", "a", "b a c")
    L = corpus_of("d e", "e f")
    index_U, index_L = extract_ngrams(U, 3), extract_ngrams(L, 3)
    for budget in (3, 7, 15):
        got = [p.tokens for p in cut([select_ngf(index_U, index_L)], budget).phrases]
        assert got == brute_force_ngf(decode(index_U), decode(index_L), budget)


def test_ngf_smp_pool_is_semi_maximal():
    index_U = extract_ngrams(corpus_of("a a a"), 2)
    index_L = extract_ngrams(corpus_of("z"), 2)
    result = cut([select_ngf_smp(index_U, index_L)], 10)
    picks = [p.tokens for p in result.phrases]
    assert ("a", "a") in picks and ("a",) not in picks
    smp = decode(index_U, semi_maximal_set(index_U))
    assert all(p in smp for p in picks)


def test_ngf_smp_matches_brute_force_random():
    rng = random.Random(9)
    for _ in range(10):
        words = [f"w{i}" for i in range(rng.randint(2, 6))]
        U = Corpus((i, tuple(rng.choice(words) for _ in range(rng.randint(1, 7))))
                   for i in range(rng.randint(3, 25)))
        L = Corpus((i, tuple(rng.choice(words) for _ in range(rng.randint(1, 5))))
                   for i in range(rng.randint(1, 10)))
        index_U, index_L = extract_ngrams(U, 4), extract_ngrams(L, 4)
        budget = rng.randint(5, 50)
        got = [p.tokens for p in cut([select_ngf_smp(index_U, index_L)], budget).phrases]
        assert got == brute_force_ngf(decode(index_U), decode(index_L), budget,
                                      candidates=set(decode(index_U, semi_maximal_set(index_U))))


def test_split_budget():
    assert split_budget(10000) == (5000, 5000)
    assert split_budget(5) == (3, 2)


def test_hybrid_composition():
    U = corpus_of(*(f"s{i} t u" for i in range(10)))
    index_U = extract_ngrams(corpus_of("p p p", "q q"), 2)
    index_L = extract_ngrams(corpus_of("z"), 2)
    standalone = cut([select_random_sentences(U, seed=2)], 5)
    hybrid = select_hybrid(10, select_random_sentences(U, seed=2), select_ngf(index_U, index_L))
    assert [s.id for s in hybrid.sentences] == [s.id for s in standalone.sentences]
    assert hybrid.budget.sentence_share == 5 and hybrid.budget.phrase_share == 5
    assert hybrid.phrases  # phrase pool populated too


def test_monotone_budget_prefix_property():
    index_U = extract_ngrams(corpus_of("a b a b a", "c c", "d"), 2)
    index_L = extract_ngrams(corpus_of("z"), 2)
    small = [p.tokens for p in cut([select_ngf(index_U, index_L)], 4).phrases]
    large = [p.tokens for p in cut([select_ngf(index_U, index_L)], 12).phrases]
    assert large[:len(small)] == small


def test_ngf_scores_non_increasing():
    index_U = extract_ngrams(corpus_of("a a a b b c d d d d"), 2)
    index_L = extract_ngrams(corpus_of("z"), 2)
    result = cut([select_ngf(index_U, index_L)], 20)
    scores = [p.score for p in result.phrases]
    assert scores == sorted(scores, reverse=True)


def test_selection_jsonl_output():
    U = corpus_of("a b", "c d")
    result = cut([select_random_sentences(U, seed=0)], 3)
    text = rank_lines(map(encode_pick, result.sentences + result.phrases))
    recs = [json.loads(l) for l in text.splitlines()]
    assert all(r["kind"] == "sentence" for r in recs)
    assert [r["rank"] for r in recs] == list(range(len(recs)))


# --- ranking once and cutting per budget ---

def _strategy_runs():
    """Every registered strategy alone, and every hybrid pairing of them."""
    from almt.pipeline import STRATEGIES
    kinds = {kind: [n for n, s in STRATEGIES.items() if s.kind == kind]
             for kind in ("sentence", "phrase")}
    return [(name,) for name in STRATEGIES] + \
        [(s, p) for s in kinds["sentence"] for p in kinds["phrase"]]


def _rankings(context, names):
    from almt.pipeline import STRATEGIES
    return [STRATEGIES[n].rank(context) for n in names]


@pytest.fixture(scope="module")
def toy_run_config(tmp_path_factory):
    from almt import toy
    from almt.pipeline import RunConfig
    out = tmp_path_factory.mktemp("toy")
    return RunConfig(**toy.generate(out, seed=7, n_unlabeled=60, n_labeled=80, n_test=5))


@pytest.mark.parametrize("every_phrase_in_L", [False, True])
def test_cut_equals_direct_selection(toy_run_config, every_phrase_in_L):
    """Cutting rankings that other budgets, larger and smaller, already cut gives
    what cutting fresh rankings gives, and builds each pick once."""
    from collections import Counter
    from almt.pipeline import RunContext
    context = RunContext(toy_run_config)
    if every_phrase_in_L:
        context.index_L = context.index_U  # every candidate phrase is then known
    total = sum(map(len, context.U.values()))
    rng = random.Random(3)
    budgets = [1, 2, 3, total - 1, total, total + 5] + rng.sample(range(4, total - 1), 8)
    rng.shuffle(budgets)
    mismatches = []
    for names in _strategy_runs():
        rankings, builds = _rankings(context, names), Counter()
        for k, ranking in enumerate(rankings):
            def counted(i, _k=k, _build=ranking.build):
                builds[_k, i] += 1
                return _build(i)
            ranking.build = counted
        for b in budgets:
            again, direct = cut(rankings, b), cut(_rankings(context, names), b)
            for part in ("sentences", "phrases", "budget", "exhausted", "skipped"):
                if getattr(again, part) != getattr(direct, part):
                    mismatches.append((names, b, part))
        assert set(builds.values()) <= {1}, names
        assert sum(map(len, (r.picks for r in rankings))) == len(builds), names
        phrase = [r for r in rankings if r.kind == "phrase"]
        if every_phrase_in_L and phrase:
            assert phrase[0].skipped == {"empty_candidate_pool": 1} and not phrase[0].picks
    assert mismatches == []


def test_empty_phrase_pool_is_exhausted_at_any_budget():
    index = extract_ngrams(corpus_of("a b", "c"), 2)
    for budget in (0, 1, 5):
        result = cut([select_ngf(index, index)], budget)
        assert result.exhausted and result.skipped == {"empty_candidate_pool": 1}
    U = corpus_of("s t u", "v w")
    hybrid = select_hybrid(1, select_random_sentences(U, seed=0), select_ngf(index, index))
    assert hybrid.budget.phrase_share == 0 and hybrid.exhausted


def corpora(own):
    """Up to 8 sentences over shared tokens and one of their own."""
    lines = st.lists(st.lists(st.sampled_from(["a", "b", "c", own]), min_size=1, max_size=8), max_size=8)
    return lines.map(lambda lines: Corpus((i, tuple(l)) for i, l in enumerate(lines)))


@settings(max_examples=200, deadline=None)
@given(U=corpora("u"), L=corpora("l"), max_n=st.integers(1, 6), seed=st.integers(0, 3))
def test_coded_rankings_match_the_tuple_references(U, L, max_n, seed):
    ref_U, ref_L = ngrams_reference.extract_ngrams(U, max_n), ngrams_reference.extract_ngrams(L, max_n)
    smp = ngrams_reference.semi_maximal_set(ref_U)
    index_U, index_L = extract_ngrams(U, max_n), extract_ngrams(L, max_n)

    def ranked(ranking):
        return [p.tokens for p in cut([ranking], 10 ** 9).phrases]
    assert ranked(select_ngf(index_U, index_L)) == select_reference.ngf_order(ref_U, ref_L)
    assert ranked(select_ngf_smp(index_U, index_L)) == \
        select_reference.ngf_order(ref_U, ref_L, candidates=smp)
    assert ranked(select_random_phrases(index_U, index_L, seed)) == \
        select_reference.random_phrase_order(ref_U, ref_L, seed)
    assert [p.score for p in cut([select_ngf(index_U, index_L)], 10 ** 9).phrases] == \
        [float(ref_U[p]) for p in select_reference.ngf_order(ref_U, ref_L)]
