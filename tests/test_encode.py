"""Each per-record encoder gives exactly the line that its artifact's writer
built with one json.dumps per record (kept here as the reference), whatever the
tokens and scores hold."""

import json

from hypothesis import given, settings, strategies as st

from almt.corpus import ParallelCorpus
from almt.mix import ORIGINS, encode_entry, encode_id
from almt.oracle import OracleResponse, encode_response
from almt.select import SelectedPhrase, SelectedSentence, encode_pick, rank_lines

# A token is a non-empty run without whitespace: quotes, backslashes, control
# characters and non-ASCII text (which json.dumps escapes) are drawn often.
_tokens = st.lists(st.text(st.one_of(st.sampled_from('"\\\'é中😀\x00\x7f'), st.characters()),
                           min_size=1, max_size=5).filter(lambda t: t.split() == [t]),
                   min_size=1, max_size=4).map(tuple)
_ids = st.integers(0, 10**9)
_picks = st.one_of(st.builds(SelectedSentence, _ids, st.floats(), st.integers(1, 60)),
                   st.builds(SelectedPhrase, _tokens, st.floats(), st.integers(1, 6)))


def _old_selection(picks):
    records = [{"kind": "sentence", "id": p.id, "score": p.score, "cost": p.cost}
               if isinstance(p, SelectedSentence) else
               {"kind": "phrase", "tokens": list(p.tokens), "score": p.score, "cost": p.cost}
               for p in picks]
    return "".join(json.dumps({**rec, "rank": rank}) + "\n" for rank, rec in enumerate(records))


@settings(max_examples=150, deadline=None)
@given(picks=st.lists(_picks, max_size=6))
def test_encode_pick_with_its_rank_is_the_json_dumps_line(picks):
    """NaN and ±inf scores included: json.dumps writes NaN, Infinity and -Infinity."""
    assert rank_lines(map(encode_pick, picks)) == _old_selection(picks)


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(_tokens, _tokens), min_size=1, max_size=4),
       phrase=_tokens, target=_tokens, provenance=st.lists(_ids, max_size=3), votes=st.integers(1, 9))
def test_encode_response_is_the_tsv_and_json_dumps_lines(pairs, phrase, target, provenance, votes):
    reference = ParallelCorpus(enumerate(pairs))
    responses = [OracleResponse(i, tgt, (i,)) for i, (_, tgt) in enumerate(pairs)] + \
        [OracleResponse(phrase, target, tuple(provenance), votes)]
    for r in responses:
        text = r.source if isinstance(r.source, tuple) else reference[r.source][0]
        assert encode_response(r, reference) == (
            f"{' '.join(text)}\t{' '.join(r.target)}\n",
            json.dumps({"source": list(r.source) if isinstance(r.source, tuple) else r.source,
                        "target": list(r.target), "provenance": list(r.provenance),
                        "votes": r.votes}) + "\n")


@settings(max_examples=150, deadline=None)
@given(source=_tokens, target=_tokens, origin=st.sampled_from(ORIGINS),
       provenance=st.one_of(_ids, st.lists(_ids, max_size=3)))
def test_encode_entry_and_id_are_the_json_dumps_and_tsv_lines(source, target, origin, provenance):
    assert encode_entry(source, target, origin, provenance) == (
        json.dumps({"source": list(source), "target": list(target), "origin": origin,
                    "provenance": provenance}) + "\n",
        f"{' '.join(source)}\t{' '.join(target)}\n")
    if isinstance(provenance, int):
        assert encode_id(provenance) == json.dumps({"id": provenance}) + "\n"
