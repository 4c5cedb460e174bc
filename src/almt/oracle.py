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
    """Phrase translation by majority vote: each occurrence with an aligned target
    span votes for it; ties go to the shorter target, then the first in token order.

    ``alignments`` holds the reference and aligns once each pair holding an
    occurrence. A repeated phrase raises ValueError (``ngrams.occurrences``).

    Returns (responses, drops) where drops maps phrase -> reason
    ("not-in-reference" or "no-aligned-span").
    """
    phrases = [tuple(p) for p in phrases]
    ids = list(alignments.parallel)
    phrase, sentence, start = (a.tolist() for a in occurrences(
        phrases, [src for src, _ in alignments.parallel.values()]))
    votes = [{} for _ in phrases]  # phrase index -> target -> ids of the pairs voting for it
    for k, sid, i in zip(phrase, (ids[s] for s in sentence), start):
        span = target_span(alignments[sid], i, i + len(phrases[k]))
        if not isinstance(span, str):
            votes[k].setdefault(alignments.parallel[sid][1][span[0]:span[1] + 1], []).append(sid)
    occurred, responses, drops = set(phrase), [], {}
    for k, p in enumerate(phrases):
        if not votes[k]:
            drops[p] = "no-aligned-span" if k in occurred else "not-in-reference"
            continue
        target, prov = min(votes[k].items(), key=lambda kv: (-len(kv[1]), len(kv[0]), kv[0]))
        responses.append(OracleResponse(p, target, tuple(sorted(set(prov))), votes=len(prov)))
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
