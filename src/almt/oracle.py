"""Simulated translator: resolves selected sentences and phrases to targets
using a held-out reference parallel corpus.

Sentence translations are verbatim reference lookups. Phrase translations are
extracted from aligned reference occurrences and decided by majority vote.
"""

import json
from dataclasses import dataclass

from .align import Alignments, target_span
from .corpus import ParallelCorpus
from .errors import AlmtError
from .ngrams import occurrences


@dataclass
class OracleResponse:
    source: object  # sentence id or phrase tuple
    target: tuple[str, ...]
    provenance: tuple[int, ...]  # reference pair ids used
    votes: int = 1


def translate_sentences(selected_ids, reference: ParallelCorpus) -> list[OracleResponse]:
    ids = list(selected_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate sentence ids in selection (upstream invariant violated)")
    missing = sorted(sid for sid in ids if sid not in reference)
    if missing:
        raise AlmtError(f"reference corpus is missing {len(missing)} selected ids: "
                        f"{missing[:10]}{'...' if len(missing) > 10 else ''}")
    return [OracleResponse(sid, reference[sid][1], (sid,)) for sid in ids]


def translate_phrases(phrases, alignments: Alignments):
    """Alignment-based phrase translation with majority vote over occurrences.

    ``alignments`` holds the reference and aligns once each pair holding an
    occurrence.

    Returns (responses, drops) where drops maps phrase -> reason
    ("not-in-reference" or "no-aligned-span").
    """
    phrases = [tuple(p) for p in phrases]
    if len(set(phrases)) != len(phrases):
        raise ValueError("duplicate phrases in selection (upstream invariant violated)")
    ids = list(alignments.parallel)
    phrase, sentence, start = occurrences(phrases, [src for src, _ in alignments.parallel.values()])
    found = {}  # phrase index -> [(reference pair id, start)], in sentence order then by start
    for k, s, i in zip(phrase.tolist(), sentence.tolist(), start.tolist()):
        found.setdefault(k, []).append((ids[s], i))

    responses, drops = [], {}
    for k, p in enumerate(phrases):
        if k not in found:
            drops[p] = "not-in-reference"
            continue
        votes = {}
        for sid, start in found[k]:
            span = target_span(alignments[sid], start, start + len(p))
            if isinstance(span, str):
                continue
            target = alignments.parallel[sid][1][span[0]:span[1] + 1]
            count, prov = votes.get(target, (0, []))
            prov.append(sid)
            votes[target] = (count + 1, prov)
        if not votes:
            drops[p] = "no-aligned-span"
            continue
        target, (count, prov) = min(votes.items(), key=lambda kv: (-kv[1][0], len(kv[0]), kv[0]))
        responses.append(OracleResponse(p, target, tuple(sorted(set(prov))), votes=count))
    return responses, drops


def encode_response(response, reference: ParallelCorpus = None) -> tuple[str, str]:
    """A response's (TSV "source TAB target" line, JSONL provenance line). A
    sentence response carries an id as its source unit, which ``reference``
    resolves to text for the TSV."""
    source = response.source
    text = source if isinstance(source, tuple) else reference[source][0]
    return (f"{' '.join(text)}\t{' '.join(response.target)}\n",
            json.dumps({"source": list(source) if isinstance(source, tuple) else source,
                        "target": list(response.target),
                        "provenance": list(response.provenance),
                        "votes": response.votes}) + "\n")
