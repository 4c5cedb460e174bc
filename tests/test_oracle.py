import pytest

from almt.align import TranslationTable, NULL_TOKEN, train_ibm1
from almt.corpus import ParallelCorpus, Sentence
from almt.errors import OracleGapError
from almt.ngrams import extract_ngrams
from almt.oracle import translate_phrases, translate_sentences, write_responses


def parallel_of(*pairs):
    return ParallelCorpus([(Sentence(i, tuple(s.split())), Sentence(i, tuple(t.split())))
                           for i, (s, t) in enumerate(pairs)])


def identity_table(tokens):
    """Clean 1-1 table: src w -> tgt T_w with probability 1."""
    probs = {w: {f"T_{w}": 1.0} for w in tokens}
    probs[NULL_TOKEN] = {}
    return TranslationTable(probs)


def test_translate_sentences_lookup():
    ref = parallel_of(("a b", "x y"), ("c", "z"))
    out = translate_sentences([1, 0], ref)
    assert [r.target for r in out] == [("z",), ("x", "y")]
    assert [r.provenance for r in out] == [(1,), (0,)]


def test_translate_sentences_empty():
    assert translate_sentences([], parallel_of(("a", "x"))) == []


def test_translate_sentences_missing_id():
    with pytest.raises(OracleGapError):
        translate_sentences([5], parallel_of(("a", "x")))


def test_translate_sentences_duplicates_rejected():
    with pytest.raises(ValueError):
        translate_sentences([0, 0], parallel_of(("a", "x")))


def test_translate_phrase_clean_alignment():
    ref = parallel_of(("a b c", "T_a T_b T_c"))
    table = identity_table("abc")
    responses, drops = translate_phrases([("b",)], ref, table)
    assert not drops
    assert responses[0].target == ("T_b",)
    assert responses[0].provenance == (0,)


def test_translate_phrase_majority_vote():
    # "a" aligns to T_a in three pairs and to V_a in one
    ref = parallel_of(("a", "T_a"), ("a", "T_a"), ("a", "T_a"), ("a", "V_a"))
    table = TranslationTable({"a": {"T_a": 0.6, "V_a": 0.4}, NULL_TOKEN: {}})
    responses, drops = translate_phrases([("a",)], ref, table)
    assert responses[0].target == ("T_a",)
    assert responses[0].votes == 3
    assert set(responses[0].provenance) == {0, 1, 2}


def test_translate_phrase_not_in_reference():
    ref = parallel_of(("a b", "x y"))
    responses, drops = translate_phrases([("zzz",)], ref, identity_table("ab"))
    assert responses == []
    assert drops[("zzz",)] == "not-in-reference"


def test_translate_phrase_no_aligned_span():
    ref = parallel_of(("a", "x"))
    table = TranslationTable({NULL_TOKEN: {"x": 1.0}, "a": {"x": 0.0}})
    responses, drops = translate_phrases([("a",)], ref, table)
    assert drops[("a",)] == "no-aligned-span"


def test_translate_phrases_multiword_span():
    ref = parallel_of(("p q r", "T_p T_q T_r"))
    table = identity_table("pqr")
    responses, _ = translate_phrases([("p", "q")], ref, table)
    assert responses[0].target == ("T_p", "T_q")


def test_provenance_contains_source_unit():
    ref = parallel_of(("m n", "T_m T_n"), ("n o", "T_n T_o"))
    responses, _ = translate_phrases([("n",)], ref, identity_table("mno"))
    for r in responses:
        for sid in r.provenance:
            src, _ = ref.get(sid)
            assert "n" in src.tokens


def test_oracle_deterministic():
    ref = parallel_of(("a b", "T_a T_b"), ("b c", "T_b T_c"))
    table = train_ibm1(ref, 5)
    r1, _ = translate_phrases([("b",), ("a", "b")], ref, table)
    r2, _ = translate_phrases([("b",), ("a", "b")], ref, table)
    assert [(r.source, r.target) for r in r1] == [(r.source, r.target) for r in r2]


def test_shared_index_and_links_match_per_call_and_align_each_pair_once(monkeypatch):
    from almt import oracle
    ref = parallel_of(("a b c", "T_a T_b T_c"), ("b c", "T_b T_c"), ("d", "T_d"), ("c a", "T_c T_a"))
    table = train_ibm1(ref, 5)
    aligned = []

    def counting(src, tgt, table):
        aligned.append(src)
        return align_pair(src, tgt, table)
    align_pair = oracle.align_pair
    monkeypatch.setattr(oracle, "align_pair", counting)
    index, links = extract_ngrams(ref.source_corpus(), 4), {}
    batches = ([("b",)], [("b", "c"), ("a",), ("zzz",)], [("c",)])
    shared = [translate_phrases(phrases, ref, table, index, links) for phrases in batches]
    assert sorted(links) == [0, 1, 3]  # pair 2 ("d") holds no selected phrase
    assert len(aligned) == len(links)  # each touched pair aligned once across the calls
    assert shared == [translate_phrases(phrases, ref, table) for phrases in batches]


def test_shared_index_must_cover_the_longest_phrase():
    ref = parallel_of(("a b c", "T_a T_b T_c"))
    with pytest.raises(ValueError, match="max_n"):
        translate_phrases([("a", "b", "c")], ref, identity_table("abc"),
                          extract_ngrams(ref.source_corpus(), 2), {})


def test_write_responses(tmp_path):
    ref = parallel_of(("a b", "x y"))
    sents = translate_sentences([0], ref)
    write_responses(sents, tmp_path / "s.tsv", tmp_path / "s.jsonl", ref)
    assert (tmp_path / "s.tsv").read_text() == "a b\tx y\n"
    phr, _ = translate_phrases([("a",)], ref, identity_table("ab"))
