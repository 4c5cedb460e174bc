import pytest
from hypothesis import given, strategies as st

from almt import toy
from almt.corpus import BlankLineError, load_corpus, load_parallel, tokenize
from almt.errors import ParseError


def test_tokenize_simple():
    assert tokenize("Jedoch ist Vorsicht") == ("Jedoch", "ist", "Vorsicht")


def test_tokenize_collapses_runs():
    assert tokenize("a  b") == ("a", "b")
    assert tokenize("  a\t b \n") == ("a", "b")


def test_tokenize_pretokenized_punctuation():
    assert tokenize("Gastrointestinaltrakt :") == ("Gastrointestinaltrakt", ":")


def test_tokenize_blank_line_rejected():
    with pytest.raises(BlankLineError):
        tokenize("   ")


tokens_st = st.lists(st.text(alphabet="abcXYZ0", min_size=1, max_size=5), min_size=1, max_size=8)


@given(tokens_st)
def test_tokenize_join_roundtrip(tokens):
    joined = " ".join(tokens)
    assert tokenize(joined) == tokenize(" ".join(tokenize(joined)))


def test_load_corpus_basic(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("one two\nthree\nfour five six\n")
    c = load_corpus(p)
    assert len(c) == 3
    assert c.ids() == [0, 1, 2]
    assert c.get(2).tokens == ("four", "five", "six")


def test_load_corpus_empty_file(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("")
    assert len(load_corpus(p)) == 0


def test_load_corpus_blank_line_preserves_ids(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("one two\n\nfour five\n")
    c = load_corpus(p)
    assert len(c) == 2
    assert c.ids() == [0, 2]


def test_load_corpus_deterministic(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("a b\nc d e\n")
    c1, c2 = load_corpus(p), load_corpus(p)
    assert [s.tokens for s in c1] == [s.tokens for s in c2]


def test_load_parallel(tmp_path):
    p = tmp_path / "p.tsv"
    p.write_text("der hund\tthe dog\nkatze\tcat\n")
    pc = load_parallel(p)
    assert len(pc) == 2
    src, tgt = pc.get(1)
    assert src.tokens == ("katze",) and tgt.tokens == ("cat",)


def test_load_parallel_malformed_row(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tb\nc only\n")
    with pytest.raises(ParseError, match="2"):
        load_parallel(p)


def test_non_utf8_line_is_named_past_the_first_read_chunk(tmp_path):
    path = tmp_path / "u.txt"
    path.write_bytes(b"a b c\n" * 5000 + b"ok \xc3\nd\n")  # 0xc3 starts a sequence "\n" cannot end
    with pytest.raises(ParseError, match=r"u\.txt:5001: not UTF-8"):
        load_corpus(path)
    path.write_bytes(b"a\tT_a\n" * 5000 + b"\xff\tx\n")
    with pytest.raises(ParseError, match=r"u\.txt:5001: not UTF-8"):
        load_parallel(path)


def test_corpora_share_one_str_per_token_type(tmp_path):
    toy.generate(tmp_path, seed=7)
    U = load_corpus(tmp_path / "U.txt")
    L, reference = load_parallel(tmp_path / "L.tsv"), load_parallel(tmp_path / "reference.tsv")
    tokens = [t for s in U for t in s.tokens]
    tokens += [t for corpus in (L, reference) for pair in corpus for s in pair for t in s.tokens]
    first = {}
    for t in tokens:
        assert first.setdefault(t, t) is t
    # the check covers tokens that split() would return as fresh objects
    assert any(len(t) > 1 for t in first)
