"""Synthetic parallel pairs from annotated phrases.

Two recipes: switch an annotated phrase into a retrieved out-of-domain pair
(target side substituted via word alignment), or append the phrase to the
retrieved pair. Each U sentence with an annotated phrase is one (annotated
pairs, L pair id) entry; a recipe lists its entries' candidates, and one
search scores a block of them with an in-domain n-gram LM and keeps each
entry's best.
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
    origin_id: int  # the retrieved L pair's id
    phrase_src: Phrase
    phrase_tgt: Phrase
    position: int | None  # source switch position; None for contextualize
    target_span: tuple[int, int] | None
    lm_score: float


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
    pairs whose source side occurs in it, in annotation order.

    One scan finds every source side's occurrences (``ngrams.occurrences``),
    which takes distinct sources: a repeated one raises ValueError.
    """
    pairs = [(tuple(p_x), tuple(p_y)) for p_x, p_y in phrase_pairs]
    phrase, sentence, _ = occurrences([p_x for p_x, _ in pairs], sentences)
    found = [[] for _ in sentences]
    for s, k in sorted(set(zip(sentence.tolist(), phrase.tolist()))):
        found[s].append(pairs[k])
    return found


def best_switch(block, lm: NGramLM, alignments: Alignments):
    """LM-argmax over all (annotated phrase, position) switch candidates of each
    entry of ``block``, an (annotated pairs, L pair id) list whose pairs and links
    ``alignments`` holds. Candidates without a target span (``align.target_span``)
    are skipped and counted by its reason. An entry's winner is its first
    highest-scoring candidate in (phrase, position) order. Returns (SyntheticPair
    or None, reason counts) per entry.
    """
    candidates, reasons = [], []
    for annotated, pair_id in block:
        x_star, links = alignments.parallel[pair_id][0], alignments[pair_id]
        found, counts = [], {"no-aligned-span": 0, "span-overlap": 0, "no-position": 0}
        for p_x, p_y in annotated:
            n = len(p_x)
            if len(x_star) - n <= 0:
                counts["no-position"] += 1
                continue
            for i in range(len(x_star) - n):  # final window excluded per the position bound
                span = target_span(links, i, i + n)
                if isinstance(span, str):
                    counts[span] += 1
                    continue
                found.append((p_x, p_y, i, span, switch(x_star, p_x, i)))
        candidates.append(found)
        reasons.append(counts)
    return _winners(block, candidates, reasons, lm, alignments, "switch")


def best_contextualize(block, lm: NGramLM, alignments: Alignments):
    """LM-argmax over the annotated phrases appended to the L pair of each
    (annotated pairs, L pair id) entry of ``block``. An entry's winner is its
    first highest-scoring phrase. Returns (SyntheticPair, {}) per entry."""
    if not all(annotated for annotated, _ in block):
        raise ValueError("no annotated phrase pairs to contextualize")
    candidates = [[(p_x, p_y, None, None, contextualize(alignments.parallel[pair_id][0], p_x))
                   for p_x, p_y in annotated] for annotated, pair_id in block]
    return _winners(block, candidates, [{} for _ in block], lm, alignments, "contextualize")


def _winners(block, candidates, reasons, lm, alignments, recipe):
    """Score every (p_x, p_y, position, span, x_hat) candidate of ``block`` in one
    ``lm.logprob`` call and build each entry's winner, its first maximum, with
    the target of the recipe: y_star with ``span`` replaced by p_y, or with p_y
    appended when there is no span. (winner or None, reason counts) per entry."""
    scores = lm.logprob([c[-1] for found in candidates for c in found])
    results, start = [], 0
    for (_, pair_id), found, counts in zip(block, candidates, reasons):
        best = None
        if found:  # argmax: the first maximum, as a scan keeping only higher scores finds
            k = int(scores[start:start + len(found)].argmax())
            p_x, p_y, i, span, x_hat = found[k]
            y = alignments.parallel[pair_id][1]
            y_hat = contextualize(y, p_y) if span is None else y[:span[0]] + p_y + y[span[1] + 1:]
            best = SyntheticPair(x_hat, y_hat, recipe, pair_id, p_x, p_y, i, span,
                                 float(scores[start + k]))
            start += len(found)
        results.append((best, counts))
    return results


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
    budgets retrieve it. Each U sentence's (annotated pairs, L pair id) entry
    goes to ``best_switch`` or ``best_contextualize`` in blocks of about
    BLOCK_CANDIDATES candidates, so memory does not grow with their number. A U
    sentence with no finite ratio to any L pair retrieves nothing
    (``scorer.argmax_over_b`` gives None) and counts as "retrieval-degenerate".
    Returns (pairs, report), report counting drops per reason.
    """
    if recipe not in ("switch", "contextualize"):
        raise ValueError(f"unknown recipe {recipe!r}")
    search = best_switch if recipe == "switch" else best_contextualize
    report = {"no-annotated-phrase": 0, "retrieval-degenerate": 0,
              "no-aligned-span": 0, "span-overlap": 0, "no-position": 0}

    def entries():
        """(candidate count, (annotated pairs, L pair id)) of each U sentence that
        holds an annotated phrase and retrieves a pair."""
        for sid, annotated in zip(U, phrases_in_sentence(list(U.values()), phrase_pairs)):
            if not annotated:
                report["no-annotated-phrase"] += 1
                continue
            pair_id = scorer.argmax_over_b(sid)  # the most ratio-similar L pair
            if pair_id is None:
                report["retrieval-degenerate"] += 1
                continue
            x_star = alignments.parallel[pair_id][0]
            yield (sum(max(0, len(x_star) - len(p_x)) for p_x, _ in annotated)
                   if recipe == "switch" else len(annotated)), (annotated, pair_id)

    pairs = []
    for block in _blocks(entries()):
        for best, reasons in search(block, lm, alignments):
            if best is None:
                report[max(reasons, key=reasons.get)] += 1  # the dominant reason
            else:
                pairs.append(best)
    return pairs, report


def encode_synthetic(pair):
    """(synthetic.tsv line, synthetic.recipes.jsonl line) of a SyntheticPair: the
    recipe line's keys are its fields in declaration order, tuples as lists."""
    return f"{' '.join(pair.source)}\t{' '.join(pair.target)}\n", json.dumps(vars(pair)) + "\n"
