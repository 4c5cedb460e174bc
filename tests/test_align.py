import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import ibm1_reference
from almt import align, toy
from almt.align import NULL_TOKEN, align_pair, target_span, train_ibm1
from almt.corpus import ParallelCorpus, load_parallel


def parallel_of(*pairs):
    return ParallelCorpus((i, (tuple(s.split()), tuple(t.split()))) for i, (s, t) in enumerate(pairs))


def test_single_pair_converges():
    corpus = parallel_of(*([("hund", "dog")] * 3))
    table = train_ibm1(corpus, iterations=5)
    assert table["hund"]["dog"] == pytest.approx(1.0, abs=1e-6)


def test_disambiguation_two_pairs():
    # ("a b" <-> "x y", "a" <-> "x"): EM should prefer t(x|a) over t(y|a)
    corpus = parallel_of(("a b", "x y"), ("a", "x"))
    table = train_ibm1(corpus, iterations=10)
    assert table["a"]["x"] > table["a"]["y"]
    assert table["b"]["y"] > table["b"]["x"]


def test_loglik_non_decreasing():
    rng = random.Random(17)
    words_s = [f"s{i}" for i in range(6)]
    words_t = [f"t{i}" for i in range(6)]
    pairs = []
    for i in range(20):
        n = rng.randint(1, 5)
        pairs.append((" ".join(rng.choice(words_s) for _ in range(n)),
                      " ".join(rng.choice(words_t) for _ in range(n))))
    corpus = parallel_of(*pairs)
    lls = [ibm1_reference.log_likelihood(corpus, train_ibm1(corpus, k)) for k in range(1, 11)]
    assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:]))


def test_row_normalization():
    corpus = parallel_of(("a b", "x y"), ("b c", "y z"), ("a", "x"))
    table = train_ibm1(corpus, iterations=3)
    for src, row in table.items():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in row.values())


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_ibm1(ParallelCorpus(), 5)


def test_align_identical_token():
    corpus = parallel_of(*([("hund", "dog")] * 3))
    table = train_ibm1(corpus, iterations=5)
    assert align_pair(("hund",), ("dog",), table) == [0]


def test_align_oov_target_unlinked():
    corpus = parallel_of(("hund", "dog"))
    table = train_ibm1(corpus, iterations=3)
    assert align_pair(("hund",), ("unseen",), table) == [-1]


def test_align_hand_built_table():
    table = {
        "a": {"x": 0.9, "y": 0.1},
        "b": {"x": 0.2, "y": 0.8},
        NULL_TOKEN: {"x": 0.05, "y": 0.05},
    }
    assert align_pair(("a", "b"), ("x", "y"), table) == [0, 1]


def test_align_tie_breaks_lowest_source_index():
    table = {"a": {"x": 0.5}, "b": {"x": 0.5}}
    assert align_pair(("a", "b"), ("x",), table) == [0]


def test_align_null_needs_strict_win():
    table = {"a": {"x": 0.5}, NULL_TOKEN: {"x": 0.5}}
    assert align_pair(("a",), ("x",), table) == [0]
    table = {"a": {"x": 0.4}, NULL_TOKEN: {"x": 0.5}}
    assert align_pair(("a",), ("x",), table) == [-1]


# Links are one source index per target index, -1 for an unlinked target.

def test_aligned_target_span_direct():
    assert target_span([-1, -1, 1, 2], 1, 3) == (2, 3)


def test_aligned_target_span_convex_hull():
    assert target_span([-1, 2, -1, -1, 1], 1, 3) == (1, 4)


def test_aligned_target_span_none():
    assert target_span([0], 1, 3) == "no-aligned-span"


def test_span_outside_links_detection():
    assert target_span([-1, -1, 1, 5, 2], 1, 3) == "span-overlap"
    assert target_span([-1, -1, 1, -1, 2], 1, 3) == (2, 4)


@pytest.mark.parametrize("outside_j, expected", [
    (1, (2, 4)),                # just before j_min
    (2, (4, 4)),                # on j_min: the outside link takes that target
    (3, "span-overlap"),        # inside the hull, on no window link
    (4, (2, 2)),                # on j_max: the outside link takes that target
    (5, (2, 4)),                # just after j_max
])
def test_target_span_outside_link_at_the_hull_edges(outside_j, expected):
    for outside_i in (0, 3):  # before and after the window [1, 3)
        links = [-1, -1, 1, -1, 2, -1]  # the window links targets 2 and 4
        links[outside_j] = outside_i
        assert target_span(links, 1, 3) == expected


def _two_helper_span(links, start, end):
    """The rule as two helpers composed it: the hull of the window's targets
    (None without one), then a test for outside links into that hull."""
    def aligned_target_span(links, start, end):
        js = [j for i, j in links if start <= i < end]
        return (min(js), max(js)) if js else None

    def span_has_outside_links(links, start, end, j_min, j_max):
        return any(j_min <= j <= j_max for i, j in links if not (start <= i < end))

    span = aligned_target_span(links, start, end)
    if span is None:
        return "no-aligned-span"
    if span_has_outside_links(links, start, end, *span):
        return "span-overlap"
    return span


@settings(max_examples=300, deadline=None)
@given(links=st.lists(st.integers(-1, 7), max_size=8),
       window=st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_target_span_matches_the_two_helper_rule(links, window):
    start, end = min(window), max(window)
    assert target_span(links, start, end) == _two_helper_span(ibm1_reference.link_set(links), start, end)


def test_reverse_direction():
    corpus = parallel_of(*([("hund", "dog")] * 3))
    table = train_ibm1(corpus, iterations=5, reverse=True)
    assert table["dog"]["hund"] == pytest.approx(1.0, abs=1e-6)


def test_each_iteration_is_one_sweep(monkeypatch):
    """EM sweeps the bitext once per update, and no sweep follows the last."""
    corpus = parallel_of(("a b", "x y"), ("a", "x"))
    sweep, calls = align._sweep, []

    def counting(*args):
        calls.append(args)
        sweep(*args)
    monkeypatch.setattr(align, "_sweep", counting)
    for iterations in (1, 5):
        calls.clear()
        train_ibm1(corpus, iterations)
        assert len(calls) == iterations


def test_zero_iterations_rejected():
    with pytest.raises(ValueError, match="iterations"):
        train_ibm1(parallel_of(("a", "x")), 0)


# --- the array EM against the loop reference (tests/ibm1_reference.py) ---

@pytest.fixture(scope="module")
def stock_toy(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    toy.generate(out, seed=7)
    return out


@pytest.fixture(scope="module")
def stock_L(stock_toy):
    return load_parallel(stock_toy / "L.tsv", "L")


def assert_matches_reference(corpus, iterations=5, reverse=False):
    """Every entry float.hex-equal, the same keys."""
    got = train_ibm1(corpus, iterations, reverse)
    want = ibm1_reference.train_ibm1(corpus, iterations, reverse)
    assert got.keys() == want.keys()
    for src, row in want.items():
        assert got[src].keys() == row.keys()
        assert {t: p.hex() for t, p in got[src].items()} == {t: p.hex() for t, p in row.items()}
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
    assert table["d02"]["T_d04"] == table["d03"]["T_d04"] == table["d04"]["T_d04"]
    assert align_pair(("d02", "d03", "d04"), ("T_d04",), table) == [0]


def test_ibm1_matches_reference_with_repeated_tokens(block):
    corpus = parallel_of(("a a b", "x x y"), ("b a b b", "y x y"), ("a", "x"), ("a b a", "x"))
    assert_matches_reference(corpus)
    assert_matches_reference(corpus, reverse=True)


def test_ibm1_matches_reference_on_one_pair(block):
    assert_matches_reference(parallel_of(("hund katze", "dog cat dog")), iterations=3)


# "a" and "b" occur on both sides, each coded by its side's vocabulary; "s" and
# "t" on one side only. A source token spelled NULL_TOKEN is NULL, as in the reference.
_bitexts = st.lists(st.tuples(st.lists(st.sampled_from(["a", "b", "c", "s", NULL_TOKEN]),
                                       min_size=1, max_size=5),
                              st.lists(st.sampled_from(["a", "b", "x", "t"]), min_size=1, max_size=5)),
                    min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(pairs=_bitexts, iterations=st.integers(1, 4))
def test_ibm1_matches_reference_on_random_bitexts(pairs, iterations):
    """1-token sentences and repeated tokens are common at these sizes."""
    corpus = parallel_of(*((" ".join(s), " ".join(t)) for s, t in pairs))
    for blocks in BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(align, "BLOCK_TERMS", blocks)
            for reverse in (False, True):
                assert_matches_reference(corpus, iterations, reverse)


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
        terms.append(sum((len(s) + 1) * len(t) for s, t in corpus.values()))
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


def assert_links_match(src, tgt, table):
    """One source index or -1 per target token, and as a set of (i, j) links
    the reference's."""
    links = align_pair(src, tgt, table)
    assert len(links) == len(tgt)
    assert ibm1_reference.link_set(links) == ibm1_reference.align_pair(src, tgt, table)


@settings(max_examples=300, deadline=None)
@given(rows=st.dictionaries(st.sampled_from(_SRC + [NULL_TOKEN]), _rows),
       src=st.lists(st.sampled_from(_SRC + ["oov"]), max_size=5),
       tgt=st.lists(st.sampled_from(_TGT + ["oov"]), max_size=5))
def test_align_pair_matches_the_per_token_reference(rows, src, tgt):
    assert_links_match(src, tgt, rows)


def test_align_pair_matches_the_per_token_reference_on_stock_toy(stock_L):
    table = train_ibm1(stock_L, 5)
    for s, t in stock_L.values():
        assert_links_match(s, t, table)


def test_alignments_align_each_pair_once_on_first_lookup(monkeypatch):
    corpus = parallel_of(("a b", "x y"), ("b", "y"))
    table = train_ibm1(corpus, 5)
    calls = []

    def counting(src, tgt, table):
        calls.append(src)
        return align_pair(src, tgt, table)
    monkeypatch.setattr(align, "align_pair", counting)
    alignments = align.Alignments(corpus, table)
    assert alignments.parallel is corpus and not alignments
    assert alignments[1] == alignments[1] == align_pair(("b",), ("y",), table)
    assert calls == [("b",)] and list(alignments) == [1]


def test_alignments_hold_under_40_bytes_per_target_token(stock_toy, stock_L):
    """Links are one int per target token: filled for every pair of the stock
    toy's reference and L, as the oracle and augmentation fill them, an
    ``Alignments`` holds about 25 bytes per target token; sets of (i, j)
    tuples held over 100."""
    table = train_ibm1(stock_L, 5)
    for corpus in (load_parallel(stock_toy / "reference.tsv", "reference"), stock_L):
        alignments = align.Alignments(corpus, table)
        tracemalloc.start()
        try:
            for pair_id in corpus:
                alignments[pair_id]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / sum(len(tgt) for _, tgt in corpus.values()) < 40, corpus.name
