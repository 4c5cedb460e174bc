import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import ibm1_reference
from almt import align, toy
from almt.align import (NULL_TOKEN, align_pair, aligned_target_span, span_has_outside_links,
                        train_ibm1, TranslationTable)
from almt.corpus import ParallelCorpus, Sentence, load_parallel


def parallel_of(*pairs):
    return ParallelCorpus([(Sentence(i, tuple(s.split())), Sentence(i, tuple(t.split())))
                           for i, (s, t) in enumerate(pairs)])


def test_single_pair_converges():
    corpus = parallel_of(*([("hund", "dog")] * 3))
    table = train_ibm1(corpus, iterations=5)
    assert table.probs["hund"]["dog"] == pytest.approx(1.0, abs=1e-6)


def test_disambiguation_two_pairs():
    # ("a b" <-> "x y", "a" <-> "x"): EM should prefer t(x|a) over t(y|a)
    corpus = parallel_of(("a b", "x y"), ("a", "x"))
    table = train_ibm1(corpus, iterations=10)
    assert table.probs["a"]["x"] > table.probs["a"]["y"]
    assert table.probs["b"]["y"] > table.probs["b"]["x"]


def test_loglik_non_decreasing():
    rng = random.Random(17)
    words_s = [f"s{i}" for i in range(6)]
    words_t = [f"t{i}" for i in range(6)]
    pairs = []
    for i in range(20):
        n = rng.randint(1, 5)
        pairs.append((" ".join(rng.choice(words_s) for _ in range(n)),
                      " ".join(rng.choice(words_t) for _ in range(n))))
    table = train_ibm1(parallel_of(*pairs), iterations=10)
    lls = table.log_likelihoods
    assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:]))


def test_row_normalization():
    corpus = parallel_of(("a b", "x y"), ("b c", "y z"), ("a", "x"))
    table = train_ibm1(corpus, iterations=3)
    for src, row in table.probs.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in row.values())


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_ibm1(ParallelCorpus([]), 5)


def test_align_identical_token():
    corpus = parallel_of(*([("hund", "dog")] * 3))
    table = train_ibm1(corpus, iterations=5)
    assert align_pair(("hund",), ("dog",), table) == {(0, 0)}


def test_align_oov_target_unlinked():
    corpus = parallel_of(("hund", "dog"))
    table = train_ibm1(corpus, iterations=3)
    assert align_pair(("hund",), ("unseen",), table) == set()


def test_align_hand_built_table():
    table = TranslationTable({
        "a": {"x": 0.9, "y": 0.1},
        "b": {"x": 0.2, "y": 0.8},
        NULL_TOKEN: {"x": 0.05, "y": 0.05},
    })
    assert align_pair(("a", "b"), ("x", "y"), table) == {(0, 0), (1, 1)}


def test_align_tie_breaks_lowest_source_index():
    table = TranslationTable({"a": {"x": 0.5}, "b": {"x": 0.5}})
    assert align_pair(("a", "b"), ("x",), table) == {(0, 0)}


def test_align_null_needs_strict_win():
    table = TranslationTable({"a": {"x": 0.5}, NULL_TOKEN: {"x": 0.5}})
    assert align_pair(("a",), ("x",), table) == {(0, 0)}
    table = TranslationTable({"a": {"x": 0.4}, NULL_TOKEN: {"x": 0.5}})
    assert align_pair(("a",), ("x",), table) == set()


def test_aligned_target_span_direct():
    assert aligned_target_span({(1, 2), (2, 3)}, 1, 3) == (2, 3)


def test_aligned_target_span_convex_hull():
    assert aligned_target_span({(1, 4), (2, 1)}, 1, 3) == (1, 4)


def test_aligned_target_span_none():
    assert aligned_target_span({(0, 0)}, 1, 3) is None


def test_span_outside_links_detection():
    links = {(1, 2), (2, 3), (5, 3)}
    assert span_has_outside_links(links, 1, 3, 2, 3)
    assert not span_has_outside_links({(1, 2), (2, 3)}, 1, 3, 2, 3)


def test_reverse_direction():
    corpus = parallel_of(*([("hund", "dog")] * 3))
    table = train_ibm1(corpus, iterations=5, reverse=True)
    assert table.probs["dog"]["hund"] == pytest.approx(1.0, abs=1e-6)


def test_zero_iterations_rejected():
    with pytest.raises(ValueError, match="iterations"):
        train_ibm1(parallel_of(("a", "x")), 0)


# --- the array EM against the loop reference (tests/ibm1_reference.py) ---

@pytest.fixture(scope="module")
def stock_L(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    toy.generate(out, seed=7)
    return load_parallel(out / "L.tsv", "L")


def assert_matches_reference(corpus, iterations=5, reverse=False):
    """Every entry float.hex-equal, the same keys, log-likelihoods within 1e-12 relative."""
    got = train_ibm1(corpus, iterations, reverse)
    want = ibm1_reference.train_ibm1(corpus, iterations, reverse)
    assert got.probs.keys() == want.probs.keys()
    for src, row in want.probs.items():
        assert got.probs[src].keys() == row.keys()
        assert {t: p.hex() for t, p in got.probs[src].items()} == {t: p.hex() for t, p in row.items()}
    assert len(got.log_likelihoods) == len(want.log_likelihoods) == iterations
    for g, w in zip(got.log_likelihoods, want.log_likelihoods):
        assert g == pytest.approx(w, rel=1e-12, abs=0)
    return got


BLOCKS = [1, 7, 1 << 40]  # one sentence pair per block, one or a few, then the whole corpus


@pytest.fixture(params=BLOCKS, ids=["block-1", "block-7", "whole"])
def block(request, monkeypatch):
    monkeypatch.setattr(align, "BLOCK_TERMS", request.param)
    return request.param


@pytest.mark.parametrize("reverse", [False, True])
def test_ibm1_matches_reference_on_stock_toy(stock_L, block, reverse):
    assert_matches_reference(stock_L, reverse=reverse)


def test_ibm1_matches_reference_on_always_cooccurring_tokens(block):
    # d02 d03 d04 always appear together, so their rows tie exactly and
    # align_pair links T_d04 to the lowest index.
    corpus = parallel_of(("d02 d03 d04 g01", "T_d02 T_d03 T_d04 T_g01"),
                         ("g02 d02 d03 d04", "T_g02 T_d02 T_d03 T_d04"),
                         ("g01 g02", "T_g01 T_g02"))
    table = assert_matches_reference(corpus, iterations=10)
    assert table.probs["d02"]["T_d04"] == table.probs["d03"]["T_d04"] == table.probs["d04"]["T_d04"]
    assert align_pair(("d02", "d03", "d04"), ("T_d04",), table) == {(0, 0)}


def test_ibm1_matches_reference_with_repeated_tokens(block):
    corpus = parallel_of(("a a b", "x x y"), ("b a b b", "y x y"), ("a", "x"), ("a b a", "x"))
    assert_matches_reference(corpus)
    assert_matches_reference(corpus, reverse=True)


def test_ibm1_matches_reference_on_one_pair(block):
    assert_matches_reference(parallel_of(("hund katze", "dog cat dog")), iterations=3)


def test_ibm1_float_temporaries_do_not_grow_with_terms(monkeypatch):
    # More copies of one bitext add terms but no vocabulary or (source, target)
    # pairs. Each added term may cost its 12 bytes of int32 codes plus a share
    # of the per-token and per-target-position arrays; float temporaries that
    # grew with the terms would add at least 16 more bytes per term.
    monkeypatch.setattr(align, "BLOCK_TERMS", 1024)
    rng = random.Random(3)
    base = []
    for _ in range(50):
        src = [f"s{rng.randrange(30)}" for _ in range(rng.randint(4, 9))]
        base.append((" ".join(src), " ".join("T" + w for w in src)))
    peaks, terms = [], []
    for copies in (10, 40):
        corpus = parallel_of(*(base * copies))
        terms.append(sum((len(s) + 1) * len(t) for s, t in corpus))
        tracemalloc.start()
        try:
            train_ibm1(corpus, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (terms[1] - terms[0]) < 20


# --- row-hoisted align_pair against the per-token loop (tests/ibm1_reference.py) ---

_SRC, _TGT = ["a", "b", "c"], ["x", "y", "z"]
# Few distinct values, 0.0 among them, so ties between sources and with NULL are common.
_rows = st.dictionaries(st.sampled_from(_TGT), st.sampled_from([0.0, 0.25, 0.5, 1.0]))


@settings(max_examples=300, deadline=None)
@given(rows=st.dictionaries(st.sampled_from(_SRC + [NULL_TOKEN]), _rows),
       src=st.lists(st.sampled_from(_SRC + ["oov"]), max_size=5),
       tgt=st.lists(st.sampled_from(_TGT + ["oov"]), max_size=5))
def test_align_pair_matches_the_per_token_reference(rows, src, tgt):
    table = TranslationTable(rows)
    assert align_pair(src, tgt, table) == ibm1_reference.align_pair(src, tgt, table)


def test_align_pair_matches_the_per_token_reference_on_stock_toy(stock_L):
    table = train_ibm1(stock_L, 5)
    for s, t in stock_L:
        assert align_pair(s.tokens, t.tokens, table) == ibm1_reference.align_pair(s.tokens, t.tokens, table)
