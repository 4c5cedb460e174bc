"""Tuple reference for `almt.augment.phrases_in_sentence`.

`PhraseIndex` keys the annotated (p_x, p_y) pairs by source tuple, and
`phrases_in_sentence` looks every window of one sentence up in it, as
augmentation did before it found the phrases of all U sentences in one scan
of integer codes. Slow, and used only by tests, which require the same pairs
per sentence from both.
"""


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
