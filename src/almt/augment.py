"""Synthetic parallel pairs from annotated phrases.

Two recipes: switch an annotated phrase into a retrieved out-of-domain pair
(target side substituted via word alignment), or append the phrase to the
retrieved pair. An in-domain n-gram LM ranks the candidates.
"""

import json
from dataclasses import dataclass

from .align import Alignments, target_span
from .corpus import Phrase
from .lm import NGramLM
from .ngrams import occurrences

BLOCK_CANDIDATES = 1024  # candidates a block of retrieved pairs reaches before it is scored


@dataclass
class SyntheticPair:
    source: tuple[str, ...]
    target: tuple[str, ...]
    recipe: str  # "switch" | "contextualize"
    origin_id: int  # retrieved L' pair id
    phrase_src: Phrase
    phrase_tgt: Phrase
    position: int | None  # source switch position; None for contextualize
    target_span: tuple[int, int] | None
    lm_score: float

    def to_json(self):
        return json.dumps({
            "source": list(self.source), "target": list(self.target),
            "recipe": self.recipe, "origin_id": self.origin_id,
            "phrase_src": list(self.phrase_src), "phrase_tgt": list(self.phrase_tgt),
            "position": self.position,
            "target_span": list(self.target_span) if self.target_span else None,
            "lm_score": self.lm_score,
        })


def switch(x_star, p, i: int):
    """Replace the length-|p| window of x_star at position i with p."""
    x_star, p = tuple(x_star), tuple(p)
    if i < 0 or i + len(p) > len(x_star):
        raise ValueError(f"switch window [{i}, {i + len(p)}) out of bounds for length {len(x_star)}")
    return x_star[:i] + p + x_star[i + len(p):]


def contextualize(x_star, p):
    """Append the phrase to the retrieved sentence."""
    p = tuple(p)
    if not p:
        raise ValueError("phrase is empty")
    return tuple(x_star) + p


def phrases_in_sentence(sentences, phrase_pairs):
    """For each of the token sequences ``sentences``, the annotated (p_x, p_y)
    pairs whose source side occurs in it, in annotation order, duplicates included.

    One scan finds every source side's occurrences (``ngrams.occurrences``).
    """
    pairs = [(tuple(p_x), tuple(p_y)) for p_x, p_y in phrase_pairs]
    found = [set() for _ in sentences]  # per sentence: indices in ``pairs``
    if pairs:
        by_source = {}
        for i, (p_x, _) in enumerate(pairs):
            by_source.setdefault(p_x, []).append(i)
        sources = list(by_source)
        phrase, sentence, _ = occurrences(sources, sentences)
        for k, s in zip(phrase.tolist(), sentence.tolist()):
            found[s].update(by_source[sources[k]])
    return [[pairs[i] for i in sorted(hits)] for hits in found]


def best_switch(retrieved, lm: NGramLM):
    """LM-argmax over all (annotated phrase, position) switch candidates of each
    retrieved pair, all scored by one ``lm.logprob`` call.

    ``retrieved`` holds (annotated pairs, x_star, y_star, links, origin_id) per
    pair, ``links`` its alignment and the phrases tuples. Candidates without a
    target span (``align.target_span``) are skipped and counted by its reason. A
    pair's winner is its first highest-scoring candidate in (phrase, position)
    order. Returns (SyntheticPair or None, reason counts) per pair.
    """
    found = []  # per pair: its reason counts, its (p_x, p_y, i, span) and x_hat per candidate
    for annotated, x_star, _, links, _ in retrieved:
        reasons = {"no-aligned-span": 0, "span-overlap": 0, "no-position": 0}
        spans, x_hats = [], []
        for p_x, p_y in annotated:
            n = len(p_x)
            if len(x_star) - n <= 0:
                reasons["no-position"] += 1
                continue
            for i in range(len(x_star) - n):  # final window excluded per the position bound
                span = target_span(links, i, i + n)
                if isinstance(span, str):
                    reasons[span] += 1
                    continue
                spans.append((p_x, p_y, i, span))
                x_hats.append(switch(x_star, p_x, i))
        found.append((reasons, spans, x_hats))
    scores = lm.logprob([x_hat for _, _, x_hats in found for x_hat in x_hats])
    results, start = [], 0
    for (_, _, y_star, _, origin_id), (reasons, spans, x_hats) in zip(retrieved, found):
        best = None
        if spans:  # argmax: the first maximum, as a scan keeping only higher scores finds
            k = int(scores[start:start + len(spans)].argmax())
            p_x, p_y, i, (j_min, j_max) = spans[k]
            y_star = tuple(y_star)
            best = SyntheticPair(x_hats[k], y_star[:j_min] + p_y + y_star[j_max + 1:], "switch",
                                 origin_id, p_x, p_y, i, (j_min, j_max), float(scores[start + k]))
            start += len(spans)
        results.append((best, reasons))
    return results


def best_contextualize(retrieved, lm: NGramLM):
    """LM-argmax over the annotated phrases appended to each retrieved pair, all
    scored by one ``lm.logprob`` call. ``retrieved`` holds (annotated pairs,
    x_star, y_star, origin_id) per pair. A pair's winner is its first
    highest-scoring phrase. Returns one SyntheticPair per pair."""
    if not all(annotated for annotated, *_ in retrieved):
        raise ValueError("no annotated phrase pairs to contextualize")
    x_hats = [contextualize(x_star, p_x) for annotated, x_star, _, _ in retrieved
              for p_x, _ in annotated]
    scores = lm.logprob(x_hats)
    pairs, start = [], 0
    for annotated, _, y_star, origin_id in retrieved:
        k = int(scores[start:start + len(annotated)].argmax())  # the first maximum
        p_x, p_y = annotated[k]
        pairs.append(SyntheticPair(x_hats[start + k], contextualize(y_star, p_y), "contextualize",
                                   origin_id, p_x, p_y, None, None, float(scores[start + k])))
        start += len(annotated)
    return pairs


def _blocks(weighted):
    """Lists of the consecutive items of ``weighted``, (weight, item) pairs, each
    list closed once its weights reach BLOCK_CANDIDATES."""
    block, weight = [], 0
    for w, item in weighted:
        block.append(item)
        weight += w
        if weight >= BLOCK_CANDIDATES:
            yield block
            block, weight = [], 0
    if block:
        yield block


def augment_corpus(U, phrase_pairs, scorer, alignments: Alignments, lm: NGramLM, recipe: str):
    """Produce one synthetic pair per U sentence containing an annotated phrase.

    ``alignments`` holds L, the out-of-domain pairs, and their links; ``scorer``
    is a U × L RatioScorer over L's ids. One ``alignments`` passed to every call,
    as the pipeline does, aligns each pair once however many U sentences and
    budgets retrieve it. The retrieved pairs go to ``best_switch`` or
    ``best_contextualize`` in blocks of about BLOCK_CANDIDATES candidates, so
    memory does not grow with their number. A U sentence with no finite ratio
    to any L pair retrieves nothing (``scorer.argmax_over_b`` gives None) and
    counts as "retrieval-degenerate". Returns (pairs, report), report counting
    drops per reason.
    """
    if recipe not in ("switch", "contextualize"):
        raise ValueError(f"unknown recipe {recipe!r}")
    report = {"no-annotated-phrase": 0, "retrieval-degenerate": 0,
              "no-aligned-span": 0, "span-overlap": 0, "no-position": 0}

    def retrieved():
        """(candidate count, block entry) of each U sentence that holds an
        annotated phrase and retrieves a pair."""
        for sid, annotated in zip(U, phrases_in_sentence(list(U.values()), phrase_pairs)):
            if not annotated:
                report["no-annotated-phrase"] += 1
                continue
            pair_id = scorer.argmax_over_b(sid)  # the most ratio-similar L' pair
            if pair_id is None:
                report["retrieval-degenerate"] += 1
                continue
            x_star, y_star = alignments.parallel[pair_id]
            if recipe == "switch":
                yield (sum(max(0, len(x_star) - len(p_x)) for p_x, _ in annotated),
                       (annotated, x_star, y_star, alignments[pair_id], pair_id))
            else:
                yield len(annotated), (annotated, x_star, y_star, pair_id)

    pairs = []
    for block in _blocks(retrieved()):
        if recipe == "contextualize":
            pairs += best_contextualize(block, lm)
            continue
        for best, reasons in best_switch(block, lm):
            if best is None:
                report[max(reasons, key=reasons.get)] += 1  # the dominant reason
            else:
                pairs.append(best)
    return pairs, report


def encode_synthetic(pair):
    """(synthetic.tsv line, synthetic.recipes.jsonl line) of a SyntheticPair."""
    return f"{' '.join(pair.source)}\t{' '.join(pair.target)}\n", pair.to_json() + "\n"
