"""Budgeted selection strategies: sentence, phrase, and hybrid.

Every strategy ranks its candidates once, with no budget (a ``Ranking``), and
``cut`` is the one greedy loop that spends a budget on rankings: keep taking
the next pick while spend is strictly below the pool budget, so the final item
may overshoot. Every pool order, the mix stage's too, comes from one of two
rules: ``rank`` orders ids by a score array, ties by ascending id (for phrase
ids: shorter phrase, then lexicographic), and leaves out an id whose score is
NaN; ``shuffled`` is the seeded uniform order.
"""

import json
import math
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Phrase, read_records, record_id, record_tokens
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
    budget: BudgetLedger
    sentences: list[SelectedSentence] = field(default_factory=list)
    phrases: list[SelectedPhrase] = field(default_factory=list)
    exhausted: bool = False
    skipped: dict = field(default_factory=dict)


def encode_pick(pick) -> str:
    """A pick's selection.jsonl record without its rank, the one field that
    depends on the cut (a hybrid cut shifts its phrases' ranks), and without the
    closing brace: ``rank_lines`` closes it."""
    unit = {"kind": "sentence", "id": pick.id} if isinstance(pick, SelectedSentence) else \
        {"kind": "phrase", "tokens": list(pick.tokens)}
    return json.dumps({**unit, "score": pick.score, "cost": pick.cost})[:-1]


def rank_lines(heads):
    """selection.jsonl's lines, lazily: each of ``heads``, ``encode_pick``'s records
    in rank order, closed by its rank."""
    return (f'{head}, "rank": {rank}}}\n' for rank, head in enumerate(heads))


def load_selection(path):
    """A selection.jsonl file as a SelectionResult of its sentence ids and phrases.
    A malformed record or a repeated sentence or phrase raises ParseError naming
    the line (a repeat's second one)."""
    def parse(line):  # (its name, such as "sentence 3", and its pick)
        rec = json.loads(line)
        if rec["kind"] == "sentence":
            pick = SelectedSentence(record_id(rec), None, None)
            return f"sentence {pick.id}", pick
        pick = SelectedPhrase(record_tokens(rec), None, None)
        return f"phrase {pick.tokens!r}", pick
    result = SelectionResult(None)
    for _, (_, pick) in read_records(path, parse, key=lambda rec: rec[0], what="selection"):
        (result.sentences if isinstance(pick, SelectedSentence) else result.phrases).append(pick)
    return result


@dataclass
class Ranking:
    """A strategy's candidates in rank order, for every budget of a run to cut.
    ``build`` makes the pick of an id of ``ids``; ``picks`` holds the picks built
    so far, a prefix of the ranking, so each pick is built once however many
    budgets cut it."""
    strategy: str
    seed: int | None
    kind: str  # "sentence" or "phrase": the budget pool the picks spend
    ids: Sequence
    build: Callable
    skipped: dict = field(default_factory=dict)
    picks: list = field(default_factory=list)


def rank(ids, scores, descending=False) -> list:
    """``ids`` ordered by ``scores``, one float per id, ascending or descending,
    ties by ascending id; an id whose score is NaN is left out."""
    ids, scores = np.asarray(ids), np.asarray(scores, dtype=np.float64)
    kept = ~np.isnan(scores)
    ids, scores = ids[kept], scores[kept]
    return ids[np.lexsort((ids, -scores if descending else scores))].tolist()


def shuffled(ids, seed) -> list:
    """``ids`` in the seeded uniform order, so each prefix is a draw without replacement."""
    order = list(ids)
    random.Random(seed).shuffle(order)
    return order


def cut(rankings, budget) -> SelectionResult:
    """What ``rankings``, one strategy's ranking or a hybrid's sentence and phrase
    rankings, select at ``budget``: picks in rank order while spend is strictly
    below the budget. A hybrid cuts its rankings at ceil(B/2) and floor(B/2)
    through ``select_hybrid``. A cut is exhausted when it took every pick with
    spend still below its budget, or when its ranking is empty."""
    if len(rankings) == 2:
        return select_hybrid(budget, *rankings)
    (ranking,) = rankings
    picks, n, spent = ranking.picks, 0, 0
    while n < len(ranking.ids) and spent < budget:
        if n == len(picks):
            picks.append(ranking.build(ranking.ids[n]))
        spent += picks[n].cost
        n += 1
    exhausted = n == len(ranking.ids) and (spent < budget or n == 0)
    if ranking.kind == "sentence":
        ledger, sentences, phrases = BudgetLedger(budget, budget, 0, spent, 0), picks[:n], []
    else:
        ledger, sentences, phrases = BudgetLedger(budget, 0, budget, 0, spent), [], picks[:n]
    return SelectionResult(ledger, sentences, phrases, exhausted, dict(ranking.skipped))


def _sentences(strategy, seed, U, order, score, skipped=None) -> Ranking:
    return Ranking(strategy, seed, "sentence", order,
                   lambda sid: SelectedSentence(sid, score(sid), len(U[sid])), skipped or {})


def _phrases(strategy, seed, index, pool, score) -> Ranking:
    """The ranking of ``pool``, ids of ``index`` in rank order; only the picks a cut
    keeps are decoded, and ``score`` maps an id to its pick's score."""
    def pick(i):
        p = index.phrase(i)
        return SelectedPhrase(p, score(i), len(p))
    return Ranking(strategy, seed, "phrase", pool, pick,
                   {} if len(pool) else {"empty_candidate_pool": 1})


def select_random_sentences(U: Corpus, seed: int) -> Ranking:
    """Every U sentence in a seeded uniform order, so each cut is a draw without
    replacement."""
    return _sentences("random-sent", seed, U, shuffled(U, seed), lambda sid: 0.0)


def csse_scores(scorer, dist_mode="literal"):
    """Distance-from-labeled score of each A row of a U × L′ RatioScorer.

    Returns (scores, skipped rows by cause), scores NaN for a skipped row.
    "literal" is the min ratio over the labeled subset; "nn" is the max ratio
    (similarity to the nearest labeled point).
    """
    scores = scorer.min_over_b() if dist_mode == "literal" else scorer.max_over_b()
    return scores, scorer.skip_counts()


def select_csse(U: Corpus, scorer, dist_mode: str = "literal") -> Ranking:
    """Embedding-distance sentence selection over ``scorer``'s A ids, U's ids.

    In literal mode we take sentences with the largest distance first; in the
    nn variant we take the smallest nearest-neighbor similarity first. Ties
    break by ascending id. Scores are not refreshed between picks.
    """
    scores, skipped = csse_scores(scorer, dist_mode)
    order = rank(scorer.a.ids, scores, descending=dist_mode == "literal")
    return _sentences(f"csse-{dist_mode}", None, U, order,
                      lambda sid: float(scores[scorer.a.row[sid]]), skipped)


def select_rttl(U: Corpus, scores: dict) -> Ranking:
    """Round-trip uncertainty selection from an external score file.

    Lowest score first (lowest round-trip likelihood or sentence BLEU = most
    uncertain), ties by ascending id. ``scores`` has a score for every U id.
    """
    order = rank(list(U), [scores[sid] for sid in U])
    return _sentences("rttl", None, U, order, lambda sid: float(scores[sid]))


def _score_line(line):
    """(id, score) of a "sentence-id TAB score" line."""
    try:
        sid, val = line.rstrip("\n").split("\t")
        sid, val = int(sid), float(val)
    except ValueError:
        raise ValueError(f"expected 'id TAB score', got {line.rstrip()!r}") from None
    if math.isnan(val):
        raise ValueError("NaN score")
    return sid, val


def load_rttl_scores(path) -> dict:
    """TSV "sentence-id TAB score". A malformed line, a NaN score or a repeated id
    raises ParseError naming ``path`` and the line (a repeated id's second one)."""
    return dict(row for _, row in read_records(path, _score_line, key=lambda row: f"id {row[0]}"))


def _unseen(index_U: OccurrenceIndex, index_L: OccurrenceIndex, candidates=None):
    """Ids of the U phrases absent from L, ascending, so in (length, phrase) order;
    ``candidates``, ascending ids of index_U, narrows them."""
    absent = index_L.ids_of(index_U) < 0
    return np.flatnonzero(absent) if candidates is None else candidates[absent[candidates]]


def select_random_phrases(index_U: OccurrenceIndex, index_L: OccurrenceIndex, seed: int) -> Ranking:
    """Uniform phrase draws from the U index, excluding phrases seen in L."""
    return _phrases("random-phrase", seed, index_U, shuffled(_unseen(index_U, index_L).tolist(), seed),
                    lambda i: 0.0)


def select_ngf(index_U: OccurrenceIndex, index_L: OccurrenceIndex, candidates=None,
               strategy="ngf") -> Ranking:
    """Most-frequent-first phrase selection over U phrases absent from L, ties
    in (length, phrase) order, which is id order."""
    ids, counts = _unseen(index_U, index_L, candidates), index_U.counts
    pool = rank(ids, counts[ids], descending=True)
    return _phrases(strategy, None, index_U, pool, lambda i: float(counts[i]))


def select_ngf_smp(index_U: OccurrenceIndex, index_L: OccurrenceIndex) -> Ranking:
    """NGF restricted to the semi-maximal phrases of the U index."""
    return select_ngf(index_U, index_L, candidates=semi_maximal_set(index_U), strategy="ngf-smp")


def split_budget(total: int) -> tuple[int, int]:
    """Even split; the odd word goes to the sentence pool."""
    sentence = (total + 1) // 2
    return sentence, total - sentence


def select_hybrid(total_budget: int, sentences: Ranking, phrases: Ranking) -> SelectionResult:
    """Cut the ``sentences`` ranking at ceil(B/2) and the ``phrases`` ranking at floor(B/2)."""
    b_s, b_p = split_budget(total_budget)
    sent, phr = cut([sentences], b_s), cut([phrases], b_p)
    return SelectionResult(BudgetLedger(total_budget, b_s, b_p,
                                        sent.budget.spent_sentences, phr.budget.spent_phrases),
                           sent.sentences, phr.phrases, sent.exhausted or phr.exhausted,
                           {key: sent.skipped.get(key, 0) + phr.skipped.get(key, 0)
                            for key in sent.skipped | phr.skipped})
