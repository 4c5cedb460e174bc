import json

import pytest
from hypothesis import given, settings, strategies as st

import ngrams_reference
import oracle_reference
from almt.align import Alignments, NULL_TOKEN, train_ibm1
from almt.corpus import ParallelCorpus, write_columns
from almt.errors import AlmtError
from almt.oracle import encode_response, translate_phrases, translate_sentences


def parallel_of(*pairs):
    return ParallelCorpus((i, (tuple(s.split()), tuple(t.split()))) for i, (s, t) in enumerate(pairs))


def identity_table(tokens):
    """Clean 1-1 table: src w -> tgt T_w with probability 1."""
    return {w: {f"T_{w}": 1.0} for w in tokens} | {NULL_TOKEN: {}}


def test_translate_sentences_lookup():
    ref = parallel_of(("a b", "x y"), ("c", "z"))
    out = translate_sentences([1, 0], ref)
    assert [r.target for r in out] == [("z",), ("x", "y")]
    assert [r.provenance for r in out] == [(1,), (0,)]


def test_translate_sentences_empty():
    assert translate_sentences([], parallel_of(("a", "x"))) == []


def test_translate_sentences_missing_id():
    with pytest.raises(AlmtError, match=r"^reference corpus is missing 1 selected ids: \[5\]$"):
        translate_sentences([5], parallel_of(("a", "x")))


def test_translate_sentences_duplicates_rejected():
    with pytest.raises(ValueError):
        translate_sentences([0, 0], parallel_of(("a", "x")))


def test_translate_phrase_clean_alignment():
    ref = parallel_of(("a b c", "T_a T_b T_c"))
    table = identity_table("abc")
    responses, drops = translate_phrases([("b",)], Alignments(ref, table))
    assert not drops
    assert responses[0].target == ("T_b",)
    assert responses[0].provenance == (0,)


def test_translate_phrase_majority_vote():
    # "a" aligns to T_a in three pairs and to V_a in one
    ref = parallel_of(("a", "T_a"), ("a", "T_a"), ("a", "T_a"), ("a", "V_a"))
    table = {"a": {"T_a": 0.6, "V_a": 0.4}, NULL_TOKEN: {}}
    responses, drops = translate_phrases([("a",)], Alignments(ref, table))
    assert responses[0].target == ("T_a",)
    assert responses[0].votes == 3
    assert set(responses[0].provenance) == {0, 1, 2}


def test_translate_phrase_not_in_reference():
    ref = parallel_of(("a b", "x y"))
    responses, drops = translate_phrases([("zzz",)], Alignments(ref, identity_table("ab")))
    assert responses == []
    assert drops[("zzz",)] == "not-in-reference"


def test_translate_phrases_rejects_a_repeated_phrase():
    ref = parallel_of(("a b", "x y"))
    with pytest.raises(ValueError, match="repeated"):
        translate_phrases([("a",), ("b",), ["a"]], Alignments(ref, identity_table("ab")))


def test_translate_phrase_no_aligned_span():
    ref = parallel_of(("a", "x"))
    table = {NULL_TOKEN: {"x": 1.0}, "a": {"x": 0.0}}
    responses, drops = translate_phrases([("a",)], Alignments(ref, table))
    assert drops[("a",)] == "no-aligned-span"


def test_translate_phrases_multiword_span():
    ref = parallel_of(("p q r", "T_p T_q T_r"))
    table = identity_table("pqr")
    responses, _ = translate_phrases([("p", "q")], Alignments(ref, table))
    assert responses[0].target == ("T_p", "T_q")


def test_provenance_contains_source_unit():
    ref = parallel_of(("m n", "T_m T_n"), ("n o", "T_n T_o"))
    responses, _ = translate_phrases([("n",)], Alignments(ref, identity_table("mno")))
    for r in responses:
        for sid in r.provenance:
            src, _ = ref[sid]
            assert "n" in src


def test_oracle_deterministic():
    ref = parallel_of(("a b", "T_a T_b"), ("b c", "T_b T_c"))
    table = train_ibm1(ref, 5)
    r1, _ = translate_phrases([("b",), ("a", "b")], Alignments(ref, table))
    r2, _ = translate_phrases([("b",), ("a", "b")], Alignments(ref, table))
    assert [(r.source, r.target) for r in r1] == [(r.source, r.target) for r in r2]


def brute_force_translate(phrases, ref, table):
    """The oracle over a list of every source window's occurrences, all lengths,
    with the loop references' set links and span rule."""
    from almt.oracle import OracleResponse
    from ibm1_reference import align_pair, target_span
    windows = {}
    for sid, (src, _) in ref.items():
        for n in range(1, len(src) + 1):
            for start in range(len(src) - n + 1):
                windows.setdefault(src[start:start + n], []).append((sid, start))
    responses, drops = [], {}
    for p in phrases:
        votes = {}
        for sid, start in windows.get(p, []):
            src, tgt = ref[sid]
            links = align_pair(src, tgt, table)
            span = target_span(links, start, start + len(p))
            if isinstance(span, str):
                continue
            target = tgt[span[0]:span[1] + 1]
            votes.setdefault(target, []).append(sid)
        if p not in windows:
            drops[p] = "not-in-reference"
        elif not votes:
            drops[p] = "no-aligned-span"
        else:
            target, prov = min(votes.items(), key=lambda kv: (-len(kv[1]), len(kv[0]), kv[0]))
            responses.append(OracleResponse(p, target, tuple(sorted(set(prov))), votes=len(prov)))
    return responses, drops


def test_translate_phrases_matches_brute_force_reference(monkeypatch):
    import random
    from almt import align
    rng = random.Random(3)
    aligned = []
    align_pair = align.align_pair

    def counting(src, tgt, table):
        aligned.append(src)
        return align_pair(src, tgt, table)
    monkeypatch.setattr(align, "align_pair", counting)
    for _ in range(40):
        words = "abcd"[:rng.randint(1, 4)]
        pairs = []
        for _ in range(rng.randint(1, 8)):
            src = [rng.choice(words) for _ in range(rng.randint(1, 7))]
            tgt = [f"T_{w}" for w in src if rng.random() < 0.9] or ["T_x"]
            pairs.append((" ".join(src), " ".join(tgt)))
        ref = parallel_of(*pairs)
        table = train_ibm1(ref, 3)
        candidates = set()
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.7:  # a window of the reference, else most likely absent
                src = rng.choice(pairs)[0].split()
                start = rng.randrange(len(src))
                candidates.add(tuple(src[start:start + rng.randint(1, 4)]))
            else:
                candidates.add(tuple(rng.choice(words + "z") for _ in range(rng.randint(1, 5))))
        phrases = sorted(candidates)
        rng.shuffle(phrases)
        del aligned[:]
        responses, drops = translate_phrases(phrases, Alignments(ref, table))
        touched = len(aligned)
        assert (responses, drops) == brute_force_translate(phrases, ref, table)
        assert list(drops) == [p for p in phrases if p in drops]  # drops in phrase order
        # each reference pair holding a selected phrase is aligned once
        assert touched == sum(1 for src, _ in ref.values() if any(
            src[i:i + len(p)] == p for p in phrases for i in range(len(src))))


def test_write_responses(tmp_path):
    """A sentence response's TSV line resolves its id through the reference; a
    phrase response's is its own text. Each response gives one line per file."""
    ref = parallel_of(("a b", "T_a T_b"))
    phrases, _ = translate_phrases([("a",)], Alignments(ref, identity_table("ab")))
    paths = [tmp_path / "r.tsv", tmp_path / "r.jsonl"]
    write_columns(paths, [encode_response(r, ref) for r in translate_sentences([0], ref) + phrases])
    assert paths[0].read_text() == "a b\tT_a T_b\na\tT_a\n"
    assert [json.loads(line) for line in paths[1].read_text().splitlines()] == [
        {"source": 0, "target": ["T_a", "T_b"], "provenance": [0], "votes": 1},
        {"source": ["a"], "target": ["T_a"], "provenance": [0], "votes": 1}]


def sentences(own):
    return st.lists(st.lists(st.sampled_from(["a", "b", "c", own]), min_size=1, max_size=7),
                    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(U=sentences("u"), ref=sentences("r"), max_n=st.integers(1, 6),
       rng=st.randoms(use_true_random=False))
def test_coded_scan_matches_the_window_scan_reference(U, ref, max_n, rng):
    """Phrases are the n-grams of a U that shares some tokens with the reference,
    plus one with a token neither side has; targets lose a token now and then,
    so both drop reasons occur."""
    reference = parallel_of(*((" ".join(src), " ".join([f"T_{w}" for w in src if rng.random() < 0.8]
                                                        or ["T_x"])) for src in ref))
    table = train_ibm1(reference, 2)
    U = {i: tuple(s) for i, s in enumerate(U)}
    phrases = [*ngrams_reference.extract_ngrams(U, max_n), ("a", "z")]
    rng.shuffle(phrases)
    expected = oracle_reference.translate_phrases(phrases, reference, table)
    assert translate_phrases(phrases, Alignments(reference, table)) == expected
