"""Assemble the mixed fine-tuning manifest: annotated sentences, annotated
phrases, sampled or retrieved out-of-domain pairs, and optional synthetic
pairs. The out-of-domain pool is an order of L's pair ids, made once per run
by selection's two rules, ``select.shuffled`` (sample) or ``select.rank``
(retrieve); each budget takes a prefix, and only ``assemble`` reads the pairs'
tokens."""

import json

import numpy as np

from .corpus import ParallelCorpus, read_records, record_id
from .errors import ConfigError
from .select import rank


# Every entry origin, each counted by assemble even when absent.
ORIGINS = ("annotated-sentence", "annotated-phrase", "retrieved", "sampled",
           "synthetic-switch", "synthetic-context")


def encode_entry(source, target, origin, provenance) -> tuple[str, str]:
    """A manifest entry's (manifest.jsonl line, manifest.tsv "source TAB target"
    line); ``origin`` is one of ORIGINS."""
    return (json.dumps({"source": list(source), "target": list(target),
                        "origin": origin, "provenance": provenance}) + "\n",
            f"{' '.join(source)}\t{' '.join(target)}\n")


def retrieve_similar(scorer):
    """Every usable out-of-domain pair id, ranked by corpus-level ratio similarity to U.

    ``scorer`` is an L × U RatioScorer over the pairs' ids. Ranking is by max
    ratio against any U sentence, descending, ties by ascending id. Returns (the
    ranked ids, the count of pairs skipped as degenerate: those with no ratio).
    """
    scores = scorer.max_over_b()
    return rank(scorer.a.ids, scores, descending=True), int(np.count_nonzero(np.isnan(scores)))


def encode_id(sid) -> str:
    """The freeze-file line of a pair id."""
    return json.dumps({"id": sid}) + "\n"


def load_freeze(path, parallel: ParallelCorpus):
    """The pair ids of a freeze file, in its order. A malformed record or a repeated
    id raises ParseError naming ``path`` and the line (a repeated id's second one)."""
    ids = []
    for _, sid in read_records(path, lambda line: record_id(json.loads(line)),
                               key=lambda sid: f"id {sid}", what="freeze"):
        if sid not in parallel:
            raise ConfigError(f"{path}: freeze id {sid} is not a pair of corpus {parallel.name!r}")
        ids.append(sid)
    return ids


def assemble(L: ParallelCorpus, l_s, l_p, l_r, synthetic, retrieved: bool, lines):
    """The manifest's entries, each a (manifest.jsonl line, manifest.tsv line), and
    its count of entries per origin. The pools go in fixed order: L_s, L_p, L_r,
    synthetic.

    l_s is a list of (tokens, target, id), its sources resolved upstream; l_p is
    an OracleResponse list; l_r is a list of pair ids of ``L``, whose tokens its
    entries read; synthetic is a SyntheticPair list. ``lines(section, records,
    encode)`` gives the lines of each of the first three, a budget's prefix of
    the run-wide list ``section`` names, so ``RunContext.lines`` encodes each of
    their entries once per run; the synthetic pairs are each budget's own. Every
    origin is counted, so empty inputs give no entries and zero counts.
    """
    r_origin = "retrieved" if retrieved else "sampled"
    entries = (lines("annotated sentence entries", l_s,
                     lambda row: encode_entry(row[0], row[1], "annotated-sentence", row[2]))
               + lines("annotated phrase entries", l_p, lambda resp: encode_entry(
                   resp.source, resp.target, "annotated-phrase", list(resp.provenance)))
               + lines("mix entries", l_r, lambda sid: encode_entry(*L[sid], r_origin, sid)))
    counts = dict.fromkeys(ORIGINS, 0)
    counts.update({"annotated-sentence": len(l_s), "annotated-phrase": len(l_p), r_origin: len(l_r)})
    for pair in synthetic:
        origin = f"synthetic-{'switch' if pair.recipe == 'switch' else 'context'}"
        entries.append(encode_entry(pair.source, pair.target, origin, pair.origin_id))
        counts[origin] += 1
    return entries, counts
