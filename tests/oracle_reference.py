"""Window-scan reference for `almt.oracle.translate_phrases`.

One pass over the reference's source windows, each a tuple of strings
looked up in the set of wanted phrases, finds every occurrence in sentence
order and then by start, as the oracle did before it matched integer n-gram
codes. The vote is the oracle's. Links come from the loop references in
`tests/ibm1_reference.py`, as sets of (i, j) tuples, so no `almt.align` code
checks itself. Used only by tests, which require the same (responses, drops)
from both.
"""

from almt.oracle import OracleResponse
from ibm1_reference import align_pair, target_span


def translate_phrases(phrases, reference, table):
    phrases = [tuple(p) for p in phrases]
    wanted = set(phrases)
    if len(wanted) != len(phrases):
        raise ValueError("duplicate phrases in selection (upstream invariant violated)")
    lengths = sorted({len(p) for p in wanted})
    occurrences = {}  # phrase -> [(sid, start)]
    for sid, (src, _) in reference.items():
        for n in lengths:
            for start, window in enumerate(zip(*(src[i:] for i in range(n)))):
                if window in wanted:
                    occurrences.setdefault(window, []).append((sid, start))

    links, responses, drops = {}, [], {}
    for p in phrases:
        if p not in occurrences:
            drops[p] = "not-in-reference"
            continue
        votes = {}
        for sid, start in occurrences[p]:
            src, tgt = reference[sid]
            if sid not in links:
                links[sid] = align_pair(src, tgt, table)
            span = target_span(links[sid], start, start + len(p))
            if isinstance(span, str):
                continue
            target = tgt[span[0]:span[1] + 1]
            count, prov = votes.get(target, (0, []))
            prov.append(sid)
            votes[target] = (count + 1, prov)
        if not votes:
            drops[p] = "no-aligned-span"
            continue
        target, (count, prov) = min(votes.items(), key=lambda kv: (-kv[1][0], len(kv[0]), kv[0]))
        responses.append(OracleResponse(p, target, tuple(sorted(set(prov))), votes=count))
    return responses, drops
