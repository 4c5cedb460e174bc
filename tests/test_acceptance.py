"""Acceptance suite. Each test prints one pass/fail verdict line.

Criterion 1 reproduces a published correlation row from its own published
inputs; the published value is not recoverable from those inputs (see the
xfail reason), so the test asserts the published numbers faithfully and is
expected to fail.
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from almt import analyze, toy
from almt.align import train_ibm1
from almt.augment import contextualize, switch
from almt.cli import main as cli_main
from almt.corpus import Corpus, ParallelCorpus, Sentence
from almt.embed import EmbeddingStore, RatioScorer
from almt.mix import retrieve_similar
from almt.ngrams import OccurrenceIndex, extract_ngrams, semi_maximal_set
from almt.pipeline import RunConfig, run_pipeline
from almt.select import (select_csse, select_ngf, select_ngf_smp,
                         select_random_phrases, select_random_sentences,
                         select_rttl)
from ratio_reference import ratio_score


def verdict(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def corpus_of(*lines):
    return Corpus([Sentence(i, tuple(l.split())) for i, l in enumerate(lines)])


def parallel_of(*pairs):
    return ParallelCorpus([(Sentence(i, tuple(s.split())), Sentence(i, tuple(t.split())))
                           for i, (s, t) in enumerate(pairs)])


def random_corpus(rng, max_sentences=50, max_vocab=10):
    vocab = [f"w{i}" for i in range(rng.randint(2, max_vocab))]
    return Corpus([Sentence(i, tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8))))
                   for i in range(rng.randint(1, max_sentences))])


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy-acceptance")
    toy.generate(out, seed=7)  # defaults: 200 U sentences, 500 L pairs
    return out


# Published n-gram overlap table (coverage per n, then average BLEU) used by
# criterion 1; nine system rows.
PUBLISHED_TABLE = [
    (79.33, 32.65, 7.30, 1.10, 34.51),
    (82.81, 38.45, 11.62, 3.73, 39.27),
    (80.70, 35.76, 9.85, 3.04, 35.78),
    (82.74, 38.83, 12.01, 4.05, 39.27),
    (82.36, 35.84, 7.98, 1.15, 38.23),
    (84.45, 41.82, 14.94, 6.17, 39.96),
    (85.80, 43.13, 16.15, 7.11, 40.21),
    (84.48, 41.89, 14.98, 6.48, 40.55),
    (98.58, 87.30, 67.61, 52.11, 57.59),
]
PUBLISHED_PEARSON = (0.90, 0.83, 0.80, 0.78)


@pytest.mark.xfail(
    strict=True,
    reason="The published correlation row (0.90/0.83/0.80/0.78) is not "
    "reproducible from the published table itself: Pearson r over the nine "
    "rows is ~0.99/0.99/0.98/0.98, and no row subset, rank correlation, or "
    "uncentered/log variant recovers the published values within ±0.005. "
    "The implementation is a standard sample Pearson coefficient, verified "
    "against hand-computed values elsewhere in the suite.")
def test_criterion_01_published_correlation_row(tmp_path, capsys):
    t0 = time.perf_counter()
    table_tsv = tmp_path / "table.tsv"
    with open(table_tsv, "w") as fh:
        for row in PUBLISHED_TABLE:
            fh.write("\t".join(str(v) for v in row) + "\n")
    assert cli_main(["analyze", "correlation", "--input", str(table_tsv)]) == 0
    out = capsys.readouterr().out.strip()
    got = tuple(float(v) for v in out.split("\t"))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        ok = elapsed < 1.0 and all(
            abs(g - e) <= 0.005 for g, e in zip(got, PUBLISHED_PEARSON))
        verdict(1, "published correlation row reproduction", ok,
                f"got {tuple(round(g, 4) for g in got)}, "
                f"published {PUBLISHED_PEARSON}, {elapsed:.3f}s")


def brute_force_semi_maximal(index):
    """Independent O(|P|^2) oracle over the full phrase set."""
    def contains(big, small):
        return len(small) < len(big) and any(
            big[i:i + len(small)] == small for i in range(len(big) - len(small) + 1))
    phrases = index.phrases()
    out = set()
    for p in phrases:
        if not any(contains(q, p) and 2 * index.occ(q) > index.occ(p) for q in phrases):
            out.add(p)
    return out


def test_criterion_02_semi_maximal_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        index = extract_ngrams(random_corpus(rng), 4)
        assert semi_maximal_set(index) == brute_force_semi_maximal(index)
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict(2, "semi-maximal set equals brute-force oracle",
            checked == 100 and elapsed < 30.0,
            f"{checked} corpora, {elapsed:.2f}s")


def brute_force_greedy(index_U, index_L, budget, candidates=None):
    pool = [p for p in (candidates if candidates is not None else index_U.phrases())
            if p not in index_L]
    pool.sort(key=lambda p: (-index_U.occ(p), len(p), p))
    chosen, spent = [], 0
    for p in pool:
        if spent >= budget:
            break
        chosen.append(p)
        spent += len(p)
    return chosen


def test_criterion_03_ngf_oracle_equivalence():
    rng = random.Random(77)
    cases = 0
    for _ in range(100):
        index_U = extract_ngrams(random_corpus(rng), 4)
        index_L = extract_ngrams(random_corpus(rng, max_sentences=15), 4)
        budget = rng.randint(5, 50)
        got_ngf = [p.tokens for p in select_ngf(index_U, index_L, budget).phrases]
        assert got_ngf == brute_force_greedy(index_U, index_L, budget)
        got_smp = [p.tokens for p in select_ngf_smp(index_U, index_L, budget).phrases]
        assert got_smp == brute_force_greedy(index_U, index_L, budget,
                                             candidates=semi_maximal_set(index_U))
        cases += 1
    verdict(3, "NGF and NGF-SMP equal brute-force greedy", cases == 100,
            f"{cases} random (corpus, budget) cases")


def test_criterion_04_budget_ledger_invariant():
    rng = random.Random(4)
    U = Corpus([Sentence(i, tuple(f"t{i}_{j}" for j in range(rng.randint(1, 6))))
                for i in range(30)])
    mat_U = np.random.default_rng(4).normal(size=(30, 5))
    mat_L = np.random.default_rng(5).normal(size=(10, 5))
    store_U = EmbeddingStore(range(30), mat_U, "U")
    store_L = EmbeddingStore(range(10), mat_L, "L")
    rttl = {i: -rng.uniform(0, 9) for i in range(30)}
    index_U = extract_ngrams(random_corpus(rng, 30, 8), 4)
    index_L = extract_ngrams(random_corpus(rng, 10, 8), 4)

    strategies = {
        "random-sent": lambda b: select_random_sentences(U, b, seed=1),
        "csse": lambda b: select_csse(U, RatioScorer(store_U, store_L, 2), b),
        "rttl": lambda b: select_rttl(U, rttl, b),
        "random-phrase": lambda b: select_random_phrases(index_U, index_L, b, seed=1),
        "ngf": lambda b: select_ngf(index_U, index_L, b),
        "ngf-smp": lambda b: select_ngf_smp(index_U, index_L, b),
    }
    budgets = [rng.randint(1, 80) for _ in range(1000)]
    checks = 0
    from almt.select import split_budget
    for name, fn in strategies.items():
        # precompute the full greedy order once; a budget-b selection is a
        # prefix of it, so the remove-last invariant can be checked cheaply
        full = fn(10 ** 9)
        items = full.sentences or full.phrases
        costs = [it.cost for it in items]
        prefix = [0]
        for c in costs:
            prefix.append(prefix[-1] + c)
        for b in budgets:
            result = fn(b)
            picked = result.sentences or result.phrases
            n = len(picked)
            assert [it.cost for it in picked] == costs[:n], name
            if n:
                # spend before the final item must be strictly under budget
                assert prefix[n - 1] < b, (name, b)
            checks += 1
    for b in budgets:
        bs, bp = split_budget(b)
        assert bs == math.ceil(b / 2) and bp == b // 2 and bs + bp == b
    verdict(4, "budget overshoot bound and hybrid split", True,
            f"{checks} strategy/budget checks, 1000 split checks")


def test_criterion_05_ratio_score_algebra():
    # all pairwise cosines equal (collinear vectors with positive scales)
    base = np.array([0.6, -0.2, 0.8])
    mat_a = np.stack([base * s for s in (1.0, 2.5, 0.3, 7.0)])
    mat_b = np.stack([base * s for s in (0.9, 4.0, 1.1)])
    store_a = EmbeddingStore(range(4), mat_a, "A")
    store_b = EmbeddingStore(range(3), mat_b, "B")
    for x in range(4):
        for y in range(3):
            r = ratio_score(x, y, store_a, store_b, k=2)
            assert abs(r - 1.0) <= 1e-9

    # uniform scaling leaves selection order bit-identical
    rng = np.random.default_rng(55)
    U = corpus_of(*(f"u{i} v{i}" for i in range(25)))
    mat_U = rng.normal(size=(25, 6))
    mat_L = rng.normal(size=(12, 6))
    L = parallel_of(*((f"l{i}", f"T_l{i}") for i in range(12)))
    lam = float(rng.uniform(0.01, 250.0))
    base_csse = select_csse(U, RatioScorer(EmbeddingStore(range(25), mat_U, "U"),
                                           EmbeddingStore(range(12), mat_L, "L"), 3), 30)
    scaled_csse = select_csse(U, RatioScorer(EmbeddingStore(range(25), mat_U * lam, "U"),
                                             EmbeddingStore(range(12), mat_L * lam, "L"), 3), 30)
    assert [s.id for s in base_csse.sentences] == [s.id for s in scaled_csse.sentences]
    base_ret, _ = retrieve_similar(L, RatioScorer(EmbeddingStore(range(12), mat_L, "L"),
                                                  EmbeddingStore(range(25), mat_U, "U"), 3), M=12)
    scaled_ret, _ = retrieve_similar(L, RatioScorer(EmbeddingStore(range(12), mat_L * lam, "L"),
                                                    EmbeddingStore(range(25), mat_U * lam, "U"), 3),
                                     M=12)
    assert [r[0] for r in base_ret] == [r[0] for r in scaled_ret]
    verdict(5, "equal-cosine ratio is 1.0; scaling leaves orders intact", True,
            f"lambda={lam:.3f}")


def test_criterion_06_ibm1_convergence():
    rng = random.Random(6)
    for trial in range(5):
        vocab_s = [f"s{i}" for i in range(rng.randint(3, 7))]
        vocab_t = [f"t{i}" for i in range(rng.randint(3, 7))]
        pairs = []
        for i in range(rng.randint(5, 25)):
            n = rng.randint(1, 6)
            pairs.append((" ".join(rng.choice(vocab_s) for _ in range(n)),
                          " ".join(rng.choice(vocab_t) for _ in range(n))))
        table = train_ibm1(parallel_of(*pairs), iterations=10)
        lls = table.log_likelihoods
        assert len(lls) == 10
        assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:])), trial
    table = train_ibm1(parallel_of(("hund", "dog")), iterations=5)
    p = table.probs["hund"]["dog"]
    verdict(6, "EM log-likelihood non-decreasing; 1-pair corpus converges",
            p >= 1 - 1e-6, f"t(dog|hund)={p:.8f}")


def test_criterion_07_switch_contextualize_identities():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(1, 12)
        x = tuple(f"x{rng.randint(0, 9)}" for _ in range(n))
        plen = rng.randint(1, n)
        i = rng.randint(0, n - plen)
        p = tuple(f"p{rng.randint(0, 9)}" for _ in range(plen))
        sw = switch(x, p, i)
        assert len(sw) == len(x)
        assert sw[i:i + plen] == p
        assert sw[:i] == x[:i] and sw[i + plen:] == x[i + plen:]
        q = tuple(f"q{rng.randint(0, 9)}" for _ in range(rng.randint(1, 5)))
        ctx = contextualize(x, q)
        assert len(ctx) == len(x) + len(q)
        assert ctx[:len(x)] == x and ctx[len(x):] == q
    verdict(7, "switch/contextualize length and content identities", True,
            "1000 random cases")


def independent_bleu(hyp, ref, max_n=4):
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


def test_criterion_08_sentence_bleu():
    for length in (1, 3, 5, 9):
        sent = tuple(f"t{i}" for i in range(length))
        assert analyze.sentence_bleu(sent, sent) == 100.0
    fixture = [
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
    for hyp, ref in fixture:
        got, want = analyze.sentence_bleu(hyp, ref), independent_bleu(hyp, ref)
        assert abs(got - want) <= 1e-6, (hyp, ref, got, want)
    verdict(8, "exact-match BLEU is 100.0; 10-case fixture matches oracle", True)


def test_criterion_09_coverage_monotonicity():
    rng = random.Random(9)
    for _ in range(100):
        covering = [s.tokens for s in random_corpus(rng, 20, 8)]
        test = [s.tokens for s in random_corpus(rng, 20, 8)]
        extra = [s.tokens for s in random_corpus(rng, 10, 8)]
        before = analyze.ngram_coverage(covering, test, 4).per_n
        after = analyze.ngram_coverage(covering + extra, test, 4).per_n
        for n in range(1, 5):
            assert after[n] >= before[n], n
    verdict(9, "coverage never decreases when covering text grows", True,
            "100 random pairs")


def test_criterion_10_end_to_end_determinism(toy_dir, tmp_path):
    def run(tag, **kwargs):
        config = RunConfig.load(toy_dir / "config.json")
        config.output_dir = str(tmp_path / tag)
        config.budgets = [80, 200]
        t0 = time.perf_counter()
        reports = run_pipeline(config, **kwargs)
        return reports, time.perf_counter() - t0

    (r1,), t1 = run("run1", budget=200)
    (r2,), t2 = run("run2", budget=200)
    sweep, t3 = run("sweep")
    (r80,), _ = run("run80", budget=80)
    assert r1.digests and r1.digests == r2.digests
    assert [r.budget for r in sweep] == [80, 200]
    assert sweep[0].digests == r80.digests and sweep[1].digests == r1.digests
    verdict(10, "toy pipeline deterministic across runs, and a budget sweep "
            "matches single-budget runs", max(t1, t2, t3) < 10.0,
            f"runs {t1:.2f}/{t2:.2f}s, sweep {t3:.2f}s, "
            f"{len(r1.digests)} artifacts digest-identical")


def test_criterion_11_ngf_smp_beats_random_phrase_coverage(toy_dir):
    U = Corpus([Sentence(i, tuple(l.split()))
                for i, l in enumerate((toy_dir / "U.txt").read_text().splitlines())])
    L_src = Corpus([Sentence(i, tuple(l.split("\t")[0].split()))
                    for i, l in enumerate((toy_dir / "L.tsv").read_text().splitlines())])
    test_src = [l.split("\t")[0].split()
                for l in (toy_dir / "test.tsv").read_text().splitlines()]
    index_U, index_L = extract_ngrams(U, 4), extract_ngrams(L_src, 4)
    budget = 100
    smp = [p.tokens for p in select_ngf_smp(index_U, index_L, budget).phrases]
    rand = [p.tokens for p in
            select_random_phrases(index_U, index_L, budget, seed=0).phrases]
    # the published metric covers the test set with OoD data PLUS the selection
    ood = [s.tokens for s in L_src]
    cov_smp = analyze.ngram_coverage(ood + smp, test_src, 1).per_n[1]
    cov_rand = analyze.ngram_coverage(ood + rand, test_src, 1).per_n[1]
    verdict(11, "NGF-SMP coverage beats random phrase selection",
            cov_smp > cov_rand, f"{cov_smp:.2f} vs {cov_rand:.2f} unigram coverage")
