import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from almt.corpus import ParallelCorpus, write_columns
from almt.embed import EmbeddingStore, RatioScorer
from almt.errors import ConfigError, ParseError
from almt.mix import ORIGINS, assemble, encode_entry, encode_id, load_freeze, retrieve_similar
from almt.oracle import OracleResponse
from almt.pipeline import RunConfig, RunContext
from almt.select import shuffled


def parallel_of(*pairs):
    return ParallelCorpus((i, (tuple(s.split()), tuple(t.split()))) for i, (s, t) in enumerate(pairs))


FOUR = parallel_of(("a a", "x x"), ("b b", "y y"), ("c c", "z z"), ("d d", "w w"))


def _scorer():
    # L pair 2 duplicates a U vector exactly; pair 1 is close, 0/3 are far
    mat_U = np.array([[0.0, 1.0], [0.1, 1.0]])
    mat_L = np.array([[1.0, 0.0], [0.3, 1.0], [0.0, 1.0], [1.0, -0.2]])
    return RatioScorer(EmbeddingStore([0, 1, 2, 3], mat_L, "L"), EmbeddingStore([0, 1], mat_U, "U"), 1)


def test_retrieve_similar_ranking():
    got, skipped = retrieve_similar(_scorer())
    assert not skipped
    # exact duplicate of a U vector must rank first, then the near one
    assert got[0] == 2 and got[1] == 1
    assert set(got[2:]) == {0, 3}


def test_retrieve_similar_prefix_stability():
    # Callers cut one ranking at each budget's m, so the cuts nest only if every
    # call ranks alike, ties (pairs 1 and 3 here) by ascending id.
    mat_L = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 1.0], [0.0, 1.0]])
    mat_U = np.array([[0.0, 1.0], [0.1, 1.0]])
    orders = [retrieve_similar(RatioScorer(
        EmbeddingStore([0, 1, 2, 3], mat_L, "L"), EmbeddingStore([0, 1], mat_U, "U"), 1))[0]
        for _ in range(2)]
    assert orders[0] == orders[1] == [1, 3, 2, 0]


def test_retrieve_similar_skips_degenerate():
    mat_L = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    store_L = EmbeddingStore([0, 1, 2, 3], mat_L, "L")
    store_U = EmbeddingStore([0], np.array([[0.0, 1.0]]), "U")
    ids, skipped = retrieve_similar(RatioScorer(store_L, store_U, 1))
    assert skipped == 1
    assert ids == [2, 3, 0]


# Zero rows and rows pointing away from the rest, whose neighbourhood means can
# be negative: some pairs, and some whole rows, have no ratio.
_row = st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.2), (0.3, -1.0)])


@settings(max_examples=150, deadline=None)
@given(l_rows=st.lists(_row, min_size=1, max_size=8), u_rows=st.lists(_row, min_size=1, max_size=5),
       k=st.integers(1, 3))
def test_retrieve_similar_skips_exactly_the_rows_without_a_max_ratio(l_rows, u_rows, k):
    scorer = RatioScorer(EmbeddingStore(range(len(l_rows)), l_rows, "L"),
                         EmbeddingStore(range(len(u_rows)), u_rows, "U"), k)
    ids, skipped = retrieve_similar(scorer)
    no_ratio = np.isnan(scorer.max_over_b())
    assert skipped == np.count_nonzero(no_ratio)
    assert sorted(ids) == np.flatnonzero(~no_ratio).tolist()


def test_freeze_roundtrip(tmp_path):
    ids = shuffled(FOUR, seed=1)[:3]
    (tmp_path / "freeze.jsonl").write_text("".join(map(encode_id, ids)))
    assert load_freeze(tmp_path / "freeze.jsonl", FOUR) == ids


def _resp(src, tgt, prov):
    return OracleResponse(tuple(src.split()), tuple(tgt.split()), tuple(prov), 1)


def _lines():
    """A fresh run's ``lines``, the encoder the pipeline hands ``assemble``."""
    return RunContext(RunConfig(None, None, None, [])).lines


def test_assemble_order_and_counts():
    l_s = [(("a", "a"), ("x", "x"), 0)]
    l_p = [_resp("p", "T_p", [3])]
    entries, counts = assemble(parallel_of(*[("r", "T_r")] * 8), l_s, l_p, [7], [], True, _lines())
    assert [json.loads(jsonl)["origin"] for jsonl, _ in entries] == [
        "annotated-sentence", "annotated-phrase", "retrieved"]
    assert counts["annotated-sentence"] == 1
    assert counts["sampled"] == 0  # absent origins still reported


def test_assemble_sampled_flag():
    entries, _ = assemble(FOUR, [], [], [0], [], False, _lines())
    assert json.loads(next(entries)[0])["origin"] == "sampled"


def test_assemble_keeps_same_source_different_target():
    l_s = [(("a",), ("x",), 0), (("a",), ("y",), 1)]
    entries, _ = assemble(FOUR, l_s, [], [], [], True, _lines())
    assert len(list(entries)) == 2


def test_assemble_empty_inputs_give_zero_counts():
    entries, counts = assemble(FOUR, [], [], [], [], True, _lines())
    assert list(entries) == []
    assert counts == dict.fromkeys(ORIGINS, 0)


def test_manifest_files(tmp_path):
    entries, _ = assemble(FOUR, [(("a", "b"), ("x", "y"), 0)], [], [1], [], True, _lines())
    entries = list(entries)
    write_columns([tmp_path / "mix.jsonl", tmp_path / "mix.tsv"], entries)
    assert entries == [encode_entry(("a", "b"), ("x", "y"), "annotated-sentence", 0),
                       encode_entry(("b", "b"), ("y", "y"), "retrieved", 1)]
    assert (tmp_path / "mix.tsv").read_text() == "a b\tx y\nb b\ty y\n"
    recs = [json.loads(l) for l in (tmp_path / "mix.jsonl").read_text().splitlines()]
    assert recs[0]["origin"] == "annotated-sentence"
    assert recs[1]["provenance"] == 1


def test_load_freeze_repeated_id_is_a_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "freeze.jsonl"
    path.write_text('{"id": 3}\n{"id": 3}\n')
    with pytest.raises(ParseError) as info:
        load_freeze(path, FOUR)
    assert str(info.value) == f"{path}:2: duplicate id 3"


def test_load_freeze_unknown_id_is_config_error(tmp_path):
    path = tmp_path / "freeze.jsonl"
    path.write_text('{"id": 1}\n{"id": 999999}\n')
    with pytest.raises(ConfigError, match="999999") as info:
        load_freeze(path, FOUR)
    assert str(path) in str(info.value)
