import hashlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from almt import corpus, toy
from almt.cli import _read_table
from almt.corpus import CHUNK_CHARS, ParallelCorpus, load_corpus, load_parallel, tokenize, write_columns, write_text
from almt.embed import EmbeddingStore
from almt.errors import ParseError
from almt.mix import load_freeze
from almt.select import load_rttl_scores, load_selection


def test_tokenize_simple():
    assert tokenize("Jedoch ist Vorsicht") == ("Jedoch", "ist", "Vorsicht")


def test_tokenize_collapses_runs():
    assert tokenize("a  b") == ("a", "b")
    assert tokenize("  a\t b \n") == ("a", "b")


def test_tokenize_pretokenized_punctuation():
    assert tokenize("Gastrointestinaltrakt :") == ("Gastrointestinaltrakt", ":")


def test_tokenize_blank_line_is_empty():
    assert tokenize("   ") == tokenize("\t\n") == ()


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
    assert list(c) == [0, 1, 2]
    assert c[2] == ("four", "five", "six")


def test_load_corpus_empty_file(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("")
    assert len(load_corpus(p)) == 0


def test_load_corpus_blank_line_preserves_ids(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("one two\n\nfour five\n")
    c = load_corpus(p)
    assert len(c) == 2
    assert list(c) == [0, 2]


def test_load_corpus_deterministic(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("a b\nc d e\n")
    c1, c2 = load_corpus(p), load_corpus(p)
    assert list(c1.items()) == list(c2.items())


def test_load_parallel(tmp_path):
    p = tmp_path / "p.tsv"
    p.write_text("der hund\tthe dog\nkatze\tcat\n")
    pc = load_parallel(p)
    assert len(pc) == 2
    assert pc[1] == (("katze",), ("cat",))


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
    tokens = [t for s in U.values() for t in s]
    tokens += [t for corpus in (L, reference) for pair in corpus.values() for s in pair for t in s]
    first = {}
    for t in tokens:
        assert first.setdefault(t, t) is t
    # the check covers tokens that split() would return as fresh objects
    assert any(len(t) > 1 for t in first)


def test_load_rejects_a_repeated_id():
    with pytest.raises(ValueError, match="duplicate pair id 0 in corpus 'p'"):
        ParallelCorpus([(0, (("a",), ("x",))), (0, (("b",), ("y",)))], "p")


def _retained(load, path):
    """The bytes that a second ``load(path)`` allocates and keeps; the first,
    alive meanwhile, holds the interned tokens, so the second allocates none."""
    warm = load(path)
    tracemalloc.start()
    try:
        corpus = load(path)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(corpus) == len(warm)
    return size


# Bytes an entry may keep beyond its tuples: its id, an int of 28 bytes, and its
# share of the dict's table. Measured: 79 at 3,000 entries on CPython 3.11, so an
# object per sentence, about 88 bytes more, breaks the bound.
ENTRY_ALLOWANCE = 100


def test_a_corpus_keeps_its_token_tuples_and_no_object_per_sentence(tmp_path):
    rng = random.Random(5)
    words = [f"w{i}" for i in range(200)]
    sentences = [[rng.choice(words) for _ in range(rng.randint(3, 12))] for _ in range(3000)]
    (tmp_path / "U.txt").write_text("".join(" ".join(s) + "\n" for s in sentences))
    (tmp_path / "L.tsv").write_text("".join(f"{' '.join(s)}\t{' '.join('T_' + w for w in s)}\n"
                                            for s in sentences))
    sentence_tuples = sum(sys.getsizeof(tuple(s)) for s in sentences)
    pair_tuples = 2 * sentence_tuples + len(sentences) * sys.getsizeof(((), ()))
    assert _retained(load_corpus, tmp_path / "U.txt") < sentence_tuples + ENTRY_ALLOWANCE * len(sentences)
    assert _retained(load_parallel, tmp_path / "L.tsv") < pair_tuples + ENTRY_ALLOWANCE * len(sentences)


# --- the artifact writer ---

def _lines(n):
    """n two-column records of a few dozen characters each, made as they are read."""
    return ((f"{i}\tw{i % 97} w{i % 13}\n", f'{{"id": {i}, "origin": "r\u00e9"}}\n') for i in range(n))


@pytest.mark.parametrize("records", [
    pytest.param([], id="no-records"),
    pytest.param([("a b\n", "x\n")], id="one-record"),
    pytest.param([("é中😀 \x00\n", "ß\t\u2028\n"), ("naïve\n", "\n")], id="non-ascii"),
    pytest.param(list(_lines(20_000)), id="many-chunks"),
    pytest.param([("x" * (3 * CHUNK_CHARS) + "\n", "y\n")], id="a-line-past-a-chunk"),
])
def test_each_column_digest_is_the_sha256_of_its_file(records, tmp_path):
    paths = [tmp_path / "a.tsv", tmp_path / "b.jsonl"]
    digests = write_columns(paths, iter(records))
    for i, (path, digest) in enumerate(zip(paths, digests)):
        assert path.read_text(encoding="utf-8") == "".join(record[i] for record in records)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tsv", "b.jsonl"]


@pytest.mark.parametrize("text", ["", "é中😀\n", ["a\n", "", "b c\n"]], ids=["empty", "str", "lines"])
def test_write_text_is_the_one_column_form(text, tmp_path):
    path = tmp_path / "out.txt"
    digest = write_text(path, text)
    assert path.read_text(encoding="utf-8") == "".join(text)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_python_without_a_builtin_sha256_hashes_through_hashlib(tmp_path):
    """Some builds leave out _sha2 and _sha256 and hash through OpenSSL alone:
    the writer then takes hashlib's sha256, with the same digest."""
    import os
    import subprocess
    from pathlib import Path
    pytest.importorskip("_hashlib", reason="this Python has no OpenSSL to fall back to")
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "from almt.corpus import write_text; "
            "print(write_text(sys.argv[1], 'naïve\\n'), '_hashlib' in sys.modules)")
    src = str(Path(corpus.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out.txt")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              [src, os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == hashlib.sha256("naïve\n".encode()).hexdigest() + " True\n"


def _peak_writing(n, tmp_path):
    """The tracemalloc peak of writing ``_lines(n)`` to two files."""
    paths = [tmp_path / f"{n}.tsv", tmp_path / f"{n}.jsonl"]
    records = _lines(n)
    tracemalloc.start()
    try:
        write_columns(paths, records)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_writer_holds_one_chunk_whatever_the_record_count(tmp_path):
    """100,000 records, about 5 MB of text, peak within one chunk of 10,000:
    nothing but the chunk in hand grows with the records."""
    small, large = _peak_writing(10_000, tmp_path), _peak_writing(100_000, tmp_path)
    assert large - small < CHUNK_CHARS, (small, large)


def test_a_fault_in_the_second_column_keeps_both_old_files_and_names_its_target(tmp_path, monkeypatch):
    paths = [tmp_path / "manifest.jsonl", tmp_path / "manifest.tsv"]
    for path in paths:
        path.write_text(f"old {path.name}\n")
    write_chunk = corpus._write_chunk
    calls = []

    def full(file, digest, lines):  # the second file's first chunk finds the disk full
        calls.append(file.name)
        if "manifest.tsv" in file.name:
            raise OSError(28, "No space left on device", file.name)
        return write_chunk(file, digest, lines)
    monkeypatch.setattr(corpus, "_write_chunk", full)
    with pytest.raises(OSError) as info:
        write_columns(paths, _lines(20_000))
    assert "manifest.jsonl" in calls[0] and "manifest.tsv" in calls[1]  # the first column's chunk is written
    assert info.value.filename == str(paths[1]) and info.value.errno == 28
    assert str(info.value) == f"[Errno 28] No space left on device: '{paths[1]}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl", "manifest.tsv"]
    assert [p.read_text() for p in paths] == ["old manifest.jsonl\n", "old manifest.tsv\n"]


def _read_selection(path):
    result = load_selection(path)
    return [s.id for s in result.sentences], [p.tokens for p in result.phrases]


_FREEZE_POOL = ParallelCorpus((i, ((f"s{i}",), (f"t{i}",))) for i in range(3))

# Every input reader, as a function of the file's path.
_READERS = {
    "corpus": lambda path: list(load_corpus(path)),
    "parallel": lambda path: list(load_parallel(path)),
    "rttl": load_rttl_scores,
    "freeze": lambda path: load_freeze(path, _FREEZE_POOL),
    "selection": _read_selection,
    "table": _read_table,
    "embeddings": lambda path: EmbeddingStore.load(path).ids,
}


@pytest.mark.parametrize("reader, content, expected", [
    # A blank line is skipped.
    pytest.param("corpus", b"a b\n\n \t\nc\n", [0, 3], id="corpus-blank"),
    pytest.param("parallel", b"a\tA\n\n  \nb\tB\n", [0, 3], id="parallel-blank"),
    pytest.param("rttl", b"0\t1.5\n\n1\t-2\n", {0: 1.5, 1: -2.0}, id="rttl-blank"),
    pytest.param("freeze", b'{"id": 2}\n\n{"id": 0}\n', [2, 0], id="freeze-blank"),
    pytest.param("selection", b'{"kind": "sentence", "id": 4}\n\n{"kind": "phrase", "tokens": ["a", "b"]}\n',
                 ([4], [("a", "b")]), id="selection-blank"),
    pytest.param("table", b"1\t2\n\n3\t4\n", [[1.0, 2.0], [3.0, 4.0]], id="table-blank"),
    pytest.param("embeddings", b"dim=2\n\n0\t1 0\n \n1\t0 1\n", [0, 1], id="embeddings-blank"),
    # Of two faults of different kinds, the earlier line is named.
    pytest.param("corpus", b"a\n\xffb\n\xc3(\n", "2: not UTF-8 (invalid start byte)", id="corpus-first-fault"),
    pytest.param("parallel", b"a\tA\nb\t \nc\n", "2: empty source or target column", id="parallel-first-fault"),
    pytest.param("rttl", b"0\tnan\n1 x\n", "1: NaN score", id="rttl-first-fault"),
    pytest.param("rttl", b"0\tx\n\xff\t1\n", "1: expected 'id TAB score', got '0\\tx'",
                 id="rttl-fault-before-undecodable"),
    pytest.param("freeze", b'{"id": 1}\n{"id": 1.5}\nnot json\n', "2: malformed freeze record (TypeError(",
                 id="freeze-first-fault"),
    pytest.param("selection", b'{"kind": "phrase", "tokens": ["a b"]}\n{"kind": "sentence"}\n',
                 "1: malformed selection record (TypeError(", id="selection-first-fault"),
    pytest.param("table", b"1\t2\n1\tinf\n1\tx\n", "2: non-finite cell in '1\\tinf'", id="table-first-fault"),
    pytest.param("embeddings", b"dim=2\n0\t1 2\n1\tnan 2\n2\t3\n", "3: NaN or Inf component",
                 id="embeddings-first-fault"),
    pytest.param("embeddings", b"dim=2\n0\t1\n\xff\n", "2: expected 2 components, got 1",
                 id="embeddings-fault-before-undecodable"),
    # A repeated key names its second line, before any later fault.
    pytest.param("rttl", b"3\t1\n4\t2\n3\t5\n1\tnan\n", "3: duplicate id 3", id="rttl-repeat"),
    pytest.param("freeze", b'{"id": 1}\n{"id": 1}\n{"id": "x"}\n', "2: duplicate id 1", id="freeze-repeat"),
    pytest.param("selection", b'{"kind": "phrase", "tokens": ["a"]}\n{"kind": "sentence", "id": 1}\n'
                 b'{"kind": "phrase", "tokens": ["a"]}\n', "3: duplicate phrase ('a',)", id="selection-repeat"),
    pytest.param("embeddings", b"dim=2\n0\t1 2\n1\t1 2\n0\t3 4\n2\tx y\n", "4: duplicate id 0",
                 id="embeddings-repeat"),
])
def test_every_reader_skips_blank_lines_and_names_the_first_faulty_line(reader, content, expected, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(content)
    if not isinstance(expected, str):
        assert _READERS[reader](path) == expected
        return
    with pytest.raises(ParseError) as info:
        _READERS[reader](path)
    assert str(info.value).startswith(f"{path}:{expected}")
