"""Word alignment: IBM Model 1 EM training plus Pharaoh-format ingestion.

The table direction is t(target | source) with a NULL source token; pass
reverse=True to train the other direction.
"""

from collections import defaultdict

from .corpus import ParallelCorpus
from .errors import ParseError

import math

NULL_TOKEN = "<NULL>"


class TranslationTable:
    """t(target | source) with per-source rows summing to 1."""

    def __init__(self, probs, log_likelihoods=None):
        self.probs = probs  # src -> {tgt: p}
        self.log_likelihoods = log_likelihoods or []

    def prob(self, target: str, source: str) -> float:
        return self.probs.get(source, {}).get(target, 0.0)

    def export_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for src in sorted(self.probs):
                for tgt in sorted(self.probs[src]):
                    fh.write(f"{src}\t{tgt}\t{self.probs[src][tgt]!r}\n")


def train_ibm1(parallel: ParallelCorpus, iterations: int, reverse: bool = False) -> TranslationTable:
    """EM with uniform initialization; records corpus log-likelihood per iteration."""
    if len(parallel) == 0:
        raise ValueError("parallel corpus is empty")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    bitext = []
    tgt_vocab = set()
    for src, tgt in parallel:
        s, t = (tgt.tokens, src.tokens) if reverse else (src.tokens, tgt.tokens)
        bitext.append(((NULL_TOKEN,) + s, t))
        tgt_vocab.update(t)
    uniform = 1.0 / len(tgt_vocab)

    t_prob = defaultdict(lambda: uniform)  # (src, tgt) -> p
    log_likelihoods = []
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src_tokens, tgt_tokens in bitext:
            for tgt_tok in tgt_tokens:
                denom = sum(t_prob[(s, tgt_tok)] for s in src_tokens)
                for s in src_tokens:
                    delta = t_prob[(s, tgt_tok)] / denom
                    counts[(s, tgt_tok)] += delta
                    totals[s] += delta
        t_prob = defaultdict(float, {pair: c / totals[pair[0]] for pair, c in counts.items()})
        ll = 0.0
        for src_tokens, tgt_tokens in bitext:
            for tgt_tok in tgt_tokens:
                inner = sum(t_prob[(s, tgt_tok)] for s in src_tokens) / len(src_tokens)
                ll += math.log(inner) if inner > 0 else float("-inf")
        log_likelihoods.append(ll)

    probs = defaultdict(dict)
    for (s, tgt_tok), p in t_prob.items():
        probs[s][tgt_tok] = p
    return TranslationTable(dict(probs), log_likelihoods)


def align_pair(src_tokens, tgt_tokens, table: TranslationTable) -> set[tuple[int, int]]:
    """Viterbi-style links: each target index to its argmax source index.

    Ties between real source tokens break to the lowest index; NULL wins only
    when strictly better than every real source, and OOV targets (all-zero
    probabilities) stay unlinked.
    """
    links = set()
    for j, tgt_tok in enumerate(tgt_tokens):
        best_i, best_p = None, 0.0
        for i, src_tok in enumerate(src_tokens):
            p = table.prob(tgt_tok, src_tok)
            if p > best_p:
                best_i, best_p = i, p
        if best_i is None:
            continue
        if table.prob(tgt_tok, NULL_TOKEN) > best_p:
            continue
        links.add((best_i, j))
    return links


def parse_pharaoh(line: str, src_len: int, tgt_len: int) -> set[tuple[int, int]]:
    """Parse space-separated "i-j" pairs, validating index bounds."""
    links = set()
    for offset, chunk in enumerate(line.split()):
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ParseError(f"malformed alignment token {chunk!r} at position {offset}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed alignment token {chunk!r} at position {offset}")
        if not (0 <= i < src_len and 0 <= j < tgt_len):
            raise ParseError(f"alignment {chunk!r} out of bounds for {src_len}x{tgt_len}")
        links.add((i, j))
    return links


def aligned_target_span(links, start: int, end: int):
    """Minimal contiguous [j_min, j_max] covering all targets linked to
    source indices in [start, end); None when no link touches the span."""
    js = [j for i, j in links if start <= i < end]
    if not js:
        return None
    return min(js), max(js)


def span_has_outside_links(links, start: int, end: int, j_min: int, j_max: int) -> bool:
    """True when a source index outside [start, end) links into [j_min, j_max]."""
    return any(j_min <= j <= j_max for i, j in links if not (start <= i < end))
