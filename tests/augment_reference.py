"""References for `almt.augment`.

`PhraseIndex` keys the annotated (p_x, p_y) pairs by source tuple, and
`phrases_in_sentence` looks every window of one sentence up in it, as
augmentation did before it found the phrases of all U sentences in one scan
of integer codes. `best_switch` and `best_contextualize` score one retrieved
pair's candidates one `logprob` call each, keeping a strictly higher score, as
augmentation did before it scored a block of pairs in one batch; they take a
model whose `logprob` scores one sentence, such as `lm_reference.NGramLM`,
and links as a set of (i, j) tuples, whose spans `ibm1_reference.target_span`
finds. Slow, and used only by tests, which require the same pairs per
sentence, the same winners, float.hex-equal scores and the same reason counts.
"""

from almt.augment import SyntheticPair, contextualize, switch
from ibm1_reference import target_span


class PhraseIndex:
    """Annotated (p_x, p_y) pairs keyed by source tuple, for window lookups."""

    def __init__(self, phrase_pairs):
        self.pairs = [(tuple(p_x), tuple(p_y)) for p_x, p_y in phrase_pairs]
        self.positions = {}
        for i, (p_x, _) in enumerate(self.pairs):
            self.positions.setdefault(p_x, []).append(i)
        self.lengths = sorted({len(p_x) for p_x in self.positions})


def phrases_in_sentence(tokens, index: PhraseIndex):
    """Annotated (p_x, p_y) pairs whose source side occurs in tokens.

    Pairs come back in their annotation order, duplicates included.
    """
    tokens = tuple(tokens)
    hits = set()
    for n in index.lengths:
        for s in range(len(tokens) - n + 1):
            hits.update(index.positions.get(tokens[s:s + n], ()))
    return [index.pairs[i] for i in sorted(hits)]


def best_switch(annotated, x_star, y_star, links, lm, origin_id: int = -1):
    """LM-argmax over all (annotated phrase, position) switch candidates of one
    retrieved pair. Returns (SyntheticPair or None, reason counts)."""
    x_star, y_star = tuple(x_star), tuple(y_star)
    reasons = {"no-aligned-span": 0, "span-overlap": 0, "no-position": 0}
    best = None
    for p_x, p_y in annotated:
        n = len(p_x)
        positions = range(0, len(x_star) - n)  # final window excluded per the position bound
        if len(x_star) - n <= 0:
            reasons["no-position"] += 1
            continue
        for i in positions:
            span = target_span(links, i, i + n)
            if isinstance(span, str):
                reasons[span] += 1
                continue
            j_min, j_max = span
            x_hat = switch(x_star, p_x, i)
            score = lm.logprob(x_hat)
            if best is None or score > best.lm_score:
                y_hat = y_star[:j_min] + p_y + y_star[j_max + 1:]
                best = SyntheticPair(x_hat, y_hat, "switch", origin_id, p_x, p_y,
                                     i, (j_min, j_max), score)
    return best, reasons


def best_contextualize(annotated, x_star, y_star, lm, origin_id: int = -1):
    """LM-argmax over annotated phrases appended to one retrieved pair."""
    if not annotated:
        raise ValueError("no annotated phrase pairs to contextualize")
    x_star, y_star = tuple(x_star), tuple(y_star)
    best = None
    for p_x, p_y in annotated:
        x_hat = contextualize(x_star, p_x)
        score = lm.logprob(x_hat)
        if best is None or score > best.lm_score:
            best = SyntheticPair(x_hat, contextualize(y_star, p_y), "contextualize",
                                 origin_id, p_x, p_y, None, None, score)
    return best
