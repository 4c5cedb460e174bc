"""Budgeted selection strategies: sentence, phrase, and hybrid.

All strategies follow the same greedy loop: keep taking the next candidate
while spend is strictly below the pool budget, so the final item may
overshoot. Tie-breaks are fixed (ascending sentence id; shorter phrase then
lexicographic) for reproducibility.
"""

import json
import random
from dataclasses import dataclass, field, asdict

from .corpus import Corpus, Phrase, cost
from .embed import EmbeddingStore, RatioScorer
from .errors import ConfigError, ParseError
from .ngrams import OccurrenceIndex, semi_maximal_set


@dataclass
class SelectedSentence:
    id: int
    score: float
    cost: int


@dataclass
class SelectedPhrase:
    tokens: Phrase
    score: float
    cost: int


@dataclass
class BudgetLedger:
    total: int
    sentence_share: int
    phrase_share: int
    spent_sentences: int = 0
    spent_phrases: int = 0


@dataclass
class SelectionResult:
    strategy: str
    seed: int | None
    budget: BudgetLedger
    sentences: list[SelectedSentence] = field(default_factory=list)
    phrases: list[SelectedPhrase] = field(default_factory=list)
    exhausted: bool = False
    skipped: dict = field(default_factory=dict)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            rank = 0
            for s in self.sentences:
                fh.write(json.dumps({"kind": "sentence", "id": s.id, "score": s.score,
                                     "cost": s.cost, "rank": rank}) + "\n")
                rank += 1
            for p in self.phrases:
                fh.write(json.dumps({"kind": "phrase", "tokens": list(p.tokens), "score": p.score,
                                     "cost": p.cost, "rank": rank}) + "\n")
                rank += 1

    def summary(self):
        d = asdict(self)
        d["sentences"] = len(self.sentences)
        d["phrases"] = len(self.phrases)
        return d


def _greedy_sentences(ordered, budget, result: SelectionResult):
    """ordered: iterable of (id, score, cost) in selection order."""
    spent = 0
    took_all = True
    for sid, score, c in ordered:
        if spent >= budget:
            took_all = False
            break
        result.sentences.append(SelectedSentence(sid, score, c))
        spent += c
    result.budget.spent_sentences += spent
    result.exhausted = result.exhausted or (took_all and spent < budget)


def _greedy_phrases(ordered, budget, result: SelectionResult):
    spent = 0
    took_all = True
    for tokens, score, c in ordered:
        if spent >= budget:
            took_all = False
            break
        result.phrases.append(SelectedPhrase(tokens, score, c))
        spent += c
    result.budget.spent_phrases += spent
    result.exhausted = result.exhausted or (took_all and spent < budget)


def select_random_sentences(U: Corpus, budget: int, seed: int) -> SelectionResult:
    """Uniform draws without replacement until the budget is spent."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = random.Random(seed)
    order = list(U.ids())
    rng.shuffle(order)
    result = SelectionResult("random-sent", seed, BudgetLedger(budget, budget, 0))
    _greedy_sentences(((sid, 0.0, len(U.get(sid).tokens)) for sid in order), budget, result)
    return result


def csse_scores(store_U: EmbeddingStore, store_L: EmbeddingStore, k: int,
                dist_mode="literal", neighbor_mode="cross"):
    """Distance-from-labeled score for every U sentence, computed once.

    Returns (scores, skipped ids). "literal" is the min ratio over the labeled
    subset; "nn" is the max ratio (similarity to the nearest labeled point).
    """
    scorer = RatioScorer(store_U, store_L, k, neighbor_mode=neighbor_mode)
    return scorer.min_over_b() if dist_mode == "literal" else scorer.max_over_b()


def select_csse(U: Corpus, store_U: EmbeddingStore, store_L: EmbeddingStore, budget: int,
                k: int = 4, dist_mode: str = "literal",
                neighbor_mode: str = "cross") -> SelectionResult:
    """Embedding-distance sentence selection.

    In literal mode we take sentences with the largest distance first; in the
    nn variant we take the smallest nearest-neighbor similarity first. Ties
    break by ascending id. Scores are not refreshed between picks.
    """
    scores, skipped = csse_scores(store_U, store_L, k, dist_mode, neighbor_mode)
    missing = [sid for sid in U.ids() if sid not in scores and sid not in skipped]
    if missing:
        raise ConfigError(f"embeddings missing for {len(missing)} U sentences, e.g. {missing[:5]}")
    reverse = dist_mode == "literal"  # literal: largest distance first; nn: least similar first
    order = sorted((sid for sid in U.ids() if sid in scores),
                   key=lambda sid: (-scores[sid] if reverse else scores[sid], sid))
    result = SelectionResult(f"csse-{dist_mode}", None, BudgetLedger(budget, budget, 0))
    result.skipped["degenerate_embeddings"] = len(skipped)
    _greedy_sentences(((sid, scores[sid], len(U.get(sid).tokens)) for sid in order), budget, result)
    return result


def select_rttl(U: Corpus, scores: dict, budget: int, score_kind: str = "loglik") -> SelectionResult:
    """Round-trip uncertainty selection from an external score file.

    Lowest score first (lowest round-trip likelihood or sentence BLEU = most
    uncertain), ties by ascending id.
    """
    missing = [sid for sid in U.ids() if sid not in scores]
    if missing:
        raise ConfigError(f"RTTL scores missing for ids {missing[:10]}"
                          f"{'...' if len(missing) > 10 else ''}")
    order = sorted(U.ids(), key=lambda sid: (scores[sid], sid))
    result = SelectionResult(f"rttl-{score_kind}", None, BudgetLedger(budget, budget, 0))
    _greedy_sentences(((sid, float(scores[sid]), len(U.get(sid).tokens)) for sid in order), budget, result)
    return result


def load_rttl_scores(path) -> dict:
    """TSV "sentence-id TAB score"."""
    scores = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                sid, val = line.rstrip("\n").split("\t")
                scores[int(sid)] = float(val)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: expected 'id TAB score', got {line.rstrip()!r}")
    return scores


def _phrase_sort_key(p: Phrase):
    return (len(p), p)


def select_random_phrases(index_U: OccurrenceIndex, index_L: OccurrenceIndex,
                          budget: int, seed: int) -> SelectionResult:
    """Uniform phrase draws from the U index, excluding phrases seen in L."""
    rng = random.Random(seed)
    pool = sorted((p for p in index_U.phrases() if p not in index_L), key=_phrase_sort_key)
    rng.shuffle(pool)
    result = SelectionResult("random-phrase", seed, BudgetLedger(budget, 0, budget))
    if not pool:
        result.skipped["empty_candidate_pool"] = 1
        result.exhausted = True
        return result
    _greedy_phrases(((p, 0.0, len(p)) for p in pool), budget, result)
    return result


def _ngf_order(candidates, index_U):
    return sorted(candidates, key=lambda p: (-index_U.occ(p), len(p), p))


def select_ngf(index_U: OccurrenceIndex, index_L: OccurrenceIndex, budget: int,
               candidates=None, strategy="ngf") -> SelectionResult:
    """Most-frequent-first phrase selection over U phrases absent from L."""
    if candidates is None:
        candidates = index_U.phrases()
    pool = _ngf_order((p for p in candidates if p not in index_L), index_U)
    result = SelectionResult(strategy, None, BudgetLedger(budget, 0, budget))
    if not pool:
        result.skipped["empty_candidate_pool"] = 1
        result.exhausted = True
        return result
    _greedy_phrases(((p, float(index_U.occ(p)), len(p)) for p in pool), budget, result)
    return result


def select_ngf_smp(index_U: OccurrenceIndex, index_L: OccurrenceIndex, budget: int) -> SelectionResult:
    """NGF restricted to the semi-maximal phrases of the U index."""
    return select_ngf(index_U, index_L, budget,
                      candidates=semi_maximal_set(index_U), strategy="ngf-smp")


def split_budget(total: int) -> tuple[int, int]:
    """Even split; the odd word goes to the sentence pool."""
    sentence = (total + 1) // 2
    return sentence, total - sentence


def select_hybrid(total_budget: int, sentence_select, phrase_select) -> SelectionResult:
    """Run a sentence strategy at ceil(B/2) and a phrase strategy at floor(B/2).

    sentence_select/phrase_select are callables taking the pool budget and
    returning a SelectionResult.
    """
    b_s, b_p = split_budget(total_budget)
    sent = sentence_select(b_s)
    phr = phrase_select(b_p)
    result = SelectionResult(f"hybrid({sent.strategy},{phr.strategy})",
                             sent.seed if sent.seed is not None else phr.seed,
                             BudgetLedger(total_budget, b_s, b_p,
                                          sent.budget.spent_sentences, phr.budget.spent_phrases))
    result.sentences = sent.sentences
    result.phrases = phr.phrases
    result.exhausted = sent.exhausted or phr.exhausted
    for r in (sent, phr):
        for key, n in r.skipped.items():
            result.skipped[key] = result.skipped.get(key, 0) + n
    return result
