"""Synthetic parallel pairs from annotated phrases.

Two recipes: switch an annotated phrase into a retrieved out-of-domain pair
(target side substituted via word alignment), or append the phrase to the
retrieved pair. An in-domain n-gram LM ranks the candidates.
"""

import json
from dataclasses import dataclass

from .align import Alignments, target_span
from .corpus import Phrase, write_text
from .errors import DegenerateNeighborhoodError
from .lm import NGramLM
from .ngrams import occurrences


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


def best_switch(annotated, x_star, y_star, links, lm: NGramLM, origin_id: int = -1):
    """LM-argmax over all (annotated phrase, position) switch candidates.

    ``links`` is the retrieved pair's alignment. Candidates without a target
    span (``align.target_span``) are skipped and counted by its reason.
    Returns (SyntheticPair or None, reason counts).
    """
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


def best_contextualize(annotated, x_star, y_star, lm: NGramLM, origin_id: int = -1):
    """LM-argmax over annotated phrases appended to the retrieved pair."""
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


def augment_corpus(U, phrase_pairs, scorer, alignments: Alignments, lm: NGramLM, recipe: str):
    """Produce one synthetic pair per U sentence containing an annotated phrase.

    ``alignments`` holds L, the out-of-domain pairs, and their links; ``scorer``
    is a U × L RatioScorer over L's ids. One ``alignments`` passed to every call,
    as the pipeline does, aligns each pair once however many U sentences and
    budgets retrieve it. Returns (pairs, report), report counting drops per reason.
    """
    report = {"no-annotated-phrase": 0, "retrieval-degenerate": 0,
              "no-aligned-span": 0, "span-overlap": 0, "no-position": 0}
    pairs = []
    for sent, annotated in zip(U, phrases_in_sentence([s.tokens for s in U], phrase_pairs)):
        if not annotated:
            report["no-annotated-phrase"] += 1
            continue
        try:  # the most ratio-similar L' pair, ties by ascending id
            pair_id, _ = scorer.argmax_over_b(sent.id)
        except DegenerateNeighborhoodError:
            report["retrieval-degenerate"] += 1
            continue
        x_star, y_star = (side.tokens for side in alignments.parallel.get(pair_id))
        if recipe == "switch":
            best, reasons = best_switch(annotated, x_star, y_star, alignments[pair_id], lm,
                                        origin_id=pair_id)
            if best is None:
                dominant = max(reasons, key=reasons.get)
                report[dominant] += 1
                continue
            pairs.append(best)
        elif recipe == "contextualize":
            pairs.append(best_contextualize(annotated, x_star, y_star, lm, origin_id=pair_id))
        else:
            raise ValueError(f"unknown recipe {recipe!r}")
    return pairs, report


def write_synthetic(pairs, tsv_path, recipe_path):
    write_text(tsv_path, "".join(f"{' '.join(p.source)}\t{' '.join(p.target)}\n" for p in pairs))
    write_text(recipe_path, "".join(p.to_json() + "\n" for p in pairs))
