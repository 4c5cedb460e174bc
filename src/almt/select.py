"""Budgeted selection strategies: sentence, phrase, and hybrid.

All strategies follow the same greedy loop: keep taking the next candidate
while spend is strictly below the pool budget, so the final item may
overshoot. Tie-breaks are fixed (ascending sentence id; shorter phrase then
lexicographic) for reproducibility.
"""

import json
import math
import random
from dataclasses import dataclass, field, asdict

import numpy as np

from .corpus import Corpus, Phrase, read_records, record_id, record_tokens, write_text
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
        write_text(path, rank_lines(map(encode_pick, self.sentences + self.phrases)))

    def cut(self, budget):
        """What this result's strategy selects at a budget no larger than its own.

        Greedy selection takes a prefix of a fixed ranking, so cutting the
        kept picks again gives exactly what a direct run at ``budget`` picks,
        pool by pool. A pool whose spend stayed below its share was ranked
        whole, so running out of its picks at the smaller share exhausts it.
        """
        ledger = self.budget
        if budget > ledger.total:
            raise ValueError(f"cannot cut a selection made at {ledger.total} words to {budget}")
        if budget == ledger.total:
            return self
        if ledger.sentence_share and ledger.phrase_share:
            b_s, b_p = split_budget(budget)
        else:
            b_s, b_p = (budget, 0) if ledger.sentence_share else (0, budget)
        sentences, spent_s, out_s = _greedy(self.sentences, b_s,
                                            ledger.spent_sentences < ledger.sentence_share)
        phrases, spent_p, out_p = _greedy(self.phrases, b_p, ledger.spent_phrases < ledger.phrase_share)
        return SelectionResult(self.strategy, self.seed,
                               BudgetLedger(budget, b_s, b_p, spent_s, spent_p),
                               sentences, phrases, out_s or out_p, dict(self.skipped))

    def summary(self):
        d = asdict(self)
        d["sentences"] = len(self.sentences)
        d["phrases"] = len(self.phrases)
        return d


def encode_pick(pick) -> str:
    """A pick's selection.jsonl record without its rank, the one field that
    depends on the cut (a hybrid cut shifts its phrases' ranks), and without the
    closing brace: ``rank_lines`` closes it."""
    unit = {"kind": "sentence", "id": pick.id} if isinstance(pick, SelectedSentence) else \
        {"kind": "phrase", "tokens": list(pick.tokens)}
    return json.dumps({**unit, "score": pick.score, "cost": pick.cost})[:-1]


def rank_lines(heads) -> str:
    """selection.jsonl's text: each of ``heads``, ``encode_pick``'s records in rank
    order, closed by its rank."""
    return "".join(f'{head}, "rank": {rank}}}\n' for rank, head in enumerate(heads))


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
    result = SelectionResult(None, None, None)
    for _, (_, pick) in read_records(path, parse, key=lambda rec: rec[0], what="selection"):
        (result.sentences if isinstance(pick, SelectedSentence) else result.phrases).append(pick)
    return result


def _greedy(ranked, budget, whole=True):
    """Take picks in ranked order while spend is strictly below the budget.

    Returns (picks, spent, exhausted). The pool is exhausted when every pick
    was taken and spend stayed below the budget or there was nothing to take;
    ``whole`` says whether ``ranked`` is the strategy's entire ranking.
    """
    picks, spent = [], 0
    for pick in ranked:
        if spent >= budget:
            return picks, spent, False
        picks.append(pick)
        spent += pick.cost
    return picks, spent, whole and (spent < budget or not picks)


def _sentences(strategy, seed, U, order, score, budget, skipped=None) -> SelectionResult:
    picks, spent, exhausted = _greedy(
        (SelectedSentence(sid, score(sid), len(U[sid])) for sid in order), budget)
    return SelectionResult(strategy, seed, BudgetLedger(budget, budget, 0, spent), picks, [],
                           exhausted, skipped or {})


def _phrases(strategy, seed, index, pool, score, budget) -> SelectionResult:
    """Greedy selection over ``pool``, ids of ``index`` in ranked order; only the picks
    kept are decoded, and ``score`` maps an id to its pick's score."""
    def pick(i):
        p = index.phrase(i)
        return SelectedPhrase(p, score(i), len(p))
    picks, spent, exhausted = _greedy(map(pick, pool), budget)
    return SelectionResult(strategy, seed, BudgetLedger(budget, 0, budget, 0, spent), [], picks,
                           exhausted, {} if len(pool) else {"empty_candidate_pool": 1})


def select_random_sentences(U: Corpus, budget: int, seed: int) -> SelectionResult:
    """Uniform draws without replacement until the budget is spent."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = random.Random(seed)
    order = list(U)
    rng.shuffle(order)
    return _sentences("random-sent", seed, U, order, lambda sid: 0.0, budget)


def csse_scores(scorer, dist_mode="literal"):
    """Distance-from-labeled score for every U sentence, from a U × L′ RatioScorer.

    Returns (scores, skipped rows by cause). "literal" is the min ratio over
    the labeled subset; "nn" is the max ratio (similarity to the nearest
    labeled point).
    """
    scores, _ = scorer.min_over_b() if dist_mode == "literal" else scorer.max_over_b()
    return scores, scorer.skip_counts()


def select_csse(U: Corpus, scorer, budget: int, dist_mode: str = "literal") -> SelectionResult:
    """Embedding-distance sentence selection.

    In literal mode we take sentences with the largest distance first; in the
    nn variant we take the smallest nearest-neighbor similarity first. Ties
    break by ascending id. Scores are not refreshed between picks.
    """
    scores, skipped = csse_scores(scorer, dist_mode)
    reverse = dist_mode == "literal"  # literal: largest distance first; nn: least similar first
    order = sorted((sid for sid in U if sid in scores),
                   key=lambda sid: (-scores[sid] if reverse else scores[sid], sid))
    return _sentences(f"csse-{dist_mode}", None, U, order, scores.__getitem__, budget, skipped)


def select_rttl(U: Corpus, scores: dict, budget: int) -> SelectionResult:
    """Round-trip uncertainty selection from an external score file.

    Lowest score first (lowest round-trip likelihood or sentence BLEU = most
    uncertain), ties by ascending id. ``scores`` has a score for every U id.
    """
    order = sorted(U, key=lambda sid: (scores[sid], sid))
    return _sentences("rttl", None, U, order, lambda sid: float(scores[sid]), budget)


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


def select_random_phrases(index_U: OccurrenceIndex, index_L: OccurrenceIndex,
                          budget: int, seed: int) -> SelectionResult:
    """Uniform phrase draws from the U index, excluding phrases seen in L."""
    rng = random.Random(seed)
    pool = _unseen(index_U, index_L).tolist()
    rng.shuffle(pool)
    return _phrases("random-phrase", seed, index_U, pool, lambda i: 0.0, budget)


def select_ngf(index_U: OccurrenceIndex, index_L: OccurrenceIndex, budget: int,
               candidates=None, strategy="ngf") -> SelectionResult:
    """Most-frequent-first phrase selection over U phrases absent from L, ties
    in (length, phrase) order, which is id order."""
    ids, counts = _unseen(index_U, index_L, candidates), index_U.counts
    pool = ids[np.argsort(-counts[ids], kind="stable")]
    return _phrases(strategy, None, index_U, pool, lambda i: float(counts[i]), budget)


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
    sent, phr = sentence_select(b_s), phrase_select(b_p)
    return SelectionResult(f"hybrid({sent.strategy},{phr.strategy})",
                           sent.seed if sent.seed is not None else phr.seed,
                           BudgetLedger(total_budget, b_s, b_p,
                                        sent.budget.spent_sentences, phr.budget.spent_phrases),
                           sent.sentences, phr.phrases, sent.exhausted or phr.exhausted,
                           {key: sent.skipped.get(key, 0) + phr.skipped.get(key, 0)
                            for key in sent.skipped | phr.skipped})
