"""Diagnostics: n-gram coverage, Pearson correlation, smoothed sentence BLEU,
in-domain word statistics, length ratio."""

import math
from collections import Counter

import numpy as np

from .corpus import Corpus
from .ngrams import OccurrenceIndex


def ngram_coverage(covering, test, max_n: int, token_level: bool = False) -> dict:
    """{n: percentage of test n-grams present in the covering text}.

    covering/test are iterables of token sequences. Default counts n-gram
    types; token_level weights each by its test occurrences.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    covering = [tuple(t) for t in covering]
    test = [tuple(t) for t in test]
    if not test:
        raise ValueError("test corpus is empty")
    test = OccurrenceIndex(test, max_n)
    covered = OccurrenceIndex(covering, max_n).ids_of(test) >= 0
    per_n = {}
    for n in range(1, max_n + 1):
        level = test.level(n)
        weights = test.counts[level] if token_level else np.ones_like(test.counts[level])
        total, hit = int(weights.sum()), int(weights[covered[level]].sum())
        per_n[n] = 100.0 * hit / total if total else 0.0
    return per_n


def pearson(xs, ys) -> float:
    """Standard sample Pearson correlation coefficient. A value that is not finite
    raises ValueError, as does a constant column."""
    xs, ys = list(map(float, xs)), list(map(float, ys))
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("a value is NaN or outside the float range: correlation undefined")
    dx, dy = _deviations(xs), _deviations(ys)
    sxx, syy = sum(d * d for d in dx), sum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance: correlation undefined")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _deviations(col):
    """Deviations from the mean of ``col`` scaled by a power of two that brings its
    largest magnitude into [0.5, 1), which leaves r as it is; so, for finite input,
    no sum of ``pearson`` overflows, and a column that varies keeps squares above 0."""
    top = math.frexp(max(map(abs, col)))[1]
    col = [math.ldexp(v, -top) for v in col]
    mean = sum(col) / len(col)
    return [v - mean for v in col]


def _modified_precision(hyp, ref, n):
    hyp_counts = Counter(tuple(hyp[s:s + n]) for s in range(len(hyp) - n + 1))
    ref_counts = Counter(tuple(ref[s:s + n]) for s in range(len(ref) - n + 1))
    match = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    total = sum(hyp_counts.values())
    return match, total


def sentence_bleu(hypothesis, reference, max_n: int = 4) -> float:
    """Smoothed sentence BLEU in [0, 100].

    Unigram precision is unsmoothed; for n >= 2 one is added to both the
    match and total counts (add-one smoothing), so identical sentences score
    exactly 100 and zero unigram overlap scores 0.
    """
    hyp, ref = tuple(hypothesis), tuple(reference)
    if not ref:
        raise ValueError("reference is empty")
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        match, total = _modified_precision(hyp, ref, n)
        if n >= 2:
            match, total = match + 1, total + 1
        if match == 0:
            return 0.0
        log_sum += math.log(match / total)
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return 100.0 * bp * math.exp(log_sum / max_n)


def in_domain_vocab(test, ood) -> set:
    """Test-set word types absent from the out-of-domain text."""
    return set().union(*test) - set().union(*ood)


def in_domain_word_stats(selected, ood, test) -> dict:
    """Word type/count statistics of selected text restricted to in-domain words:
    {"IDWT", "WT", "IDWC", "WC"}, the in-domain and all word types, then the
    in-domain and all word tokens.

    All arguments are iterables of token sequences.
    """
    id_vocab = in_domain_vocab(test, ood)
    wt_set, wc, idwc = set(), 0, 0
    for tokens in selected:
        for tok in tokens:
            wt_set.add(tok)
            wc += 1
            if tok in id_vocab:
                idwc += 1
    idwt = len(wt_set & id_vocab)
    return {"IDWT": idwt, "WT": len(wt_set), "IDWC": idwc, "WC": wc}


def length_ratio(hypotheses: Corpus, references: Corpus) -> float:
    """Total hypothesis tokens over total reference tokens, id-aligned."""
    hyp_total = ref_total = 0
    for sid, ref in references.items():
        if sid not in hypotheses:
            raise ValueError(f"hypotheses missing id {sid}")
        hyp_total += len(hypotheses[sid])
        ref_total += len(ref)
    if ref_total == 0:
        raise ValueError("reference corpus is empty")
    return hyp_total / ref_total
