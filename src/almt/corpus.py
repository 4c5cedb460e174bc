"""Corpus data model, tokenization and IO.

All budgets are charged in whitespace tokens; punctuation counts (corpora are
assumed pre-tokenized upstream). Token identity is case-sensitive.
"""

import contextlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError

# A phrase is just a contiguous token sequence, kept as a hashable tuple.
Phrase = tuple[str, ...]


class BlankLineError(ValueError):
    """Raised by tokenize() for lines that are empty after trimming."""


@dataclass(frozen=True)
class Sentence:
    id: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError(f"sentence {self.id} has no tokens")

    def __len__(self):
        return len(self.tokens)


def tokenize(raw_line: str) -> tuple[str, ...]:
    """Split a line into maximal non-whitespace runs, each interned, so that
    every corpus holds one str per token type."""
    tokens = raw_line.split()
    if not tokens:
        raise BlankLineError("line is empty after trimming")
    return tuple(map(sys.intern, tokens))


class Corpus:
    """Ordered, id-addressable collection of monolingual sentences.

    Immutable after construction; ids are unique and iteration order is the
    insertion order.
    """

    def __init__(self, sentences, name=""):
        self.name = name
        self.sentences = list(sentences)
        self._by_id = {}
        for s in self.sentences:
            if s.id in self._by_id:
                raise ValueError(f"duplicate sentence id {s.id} in corpus {name!r}")
            self._by_id[s.id] = s

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self):
        return len(self.sentences)

    def __contains__(self, sid):
        return sid in self._by_id

    def get(self, sid) -> Sentence:
        return self._by_id[sid]

    def ids(self):
        return [s.id for s in self.sentences]


class ParallelCorpus:
    """Ordered collection of id-aligned (source, target) sentence pairs."""

    def __init__(self, pairs, name=""):
        self.name = name
        self.pairs = list(pairs)
        self._by_id = {}
        for src, tgt in self.pairs:
            if src.id != tgt.id:
                raise ValueError(f"pair ids differ: {src.id} vs {tgt.id}")
            if src.id in self._by_id:
                raise ValueError(f"duplicate pair id {src.id} in corpus {name!r}")
            self._by_id[src.id] = (src, tgt)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, sid):
        return sid in self._by_id

    def get(self, sid):
        return self._by_id[sid]

    def ids(self):
        return [src.id for src, _ in self.pairs]

    def source_corpus(self, name=None) -> Corpus:
        return Corpus([src for src, _ in self.pairs], name or f"{self.name}-src")


def read_lines(path):
    """Yield the lines of a UTF-8 text file; bytes that are not UTF-8 raise
    ParseError naming the first line that holds them."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:  # decoded in read-ahead chunks: find the line again
            with open(path, "rb") as raw:
                lineno = next(n for n, line in enumerate(raw, 1)
                              if line.decode("utf-8", "replace").encode() != line)
            raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None


def record_id(record) -> int:
    """``record["id"]`` of a parsed JSON record; a value that is not a JSON
    integer (true and false too) raises TypeError."""
    sid = record["id"]
    if type(sid) is not int:
        raise TypeError(f"id {json.dumps(sid)} is not an integer")
    return sid


def record_tokens(record) -> tuple:
    """``record["tokens"]`` of a parsed JSON record as a tuple; a value that is
    not a non-empty JSON list of strings raises TypeError."""
    tokens = record["tokens"]
    if type(tokens) is not list or not tokens or not all(type(t) is str for t in tokens):
        raise TypeError(f"tokens {json.dumps(tokens)} is not a non-empty list of strings")
    return tuple(tokens)


def write_text(path, text):
    """Write ``text``, a str or its UTF-8 bytes, to ``path``: into a temporary
    file of this process beside it, then os.replace onto it, so that ``path``
    holds either its old bytes or all of the new ones, even when the writer is
    killed midway. An OSError about the temporary file is raised naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # no tmp to remove if its directory cannot hold one
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and str(exc.filename) == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def load_corpus(path, name="") -> Corpus:
    """Load a one-sentence-per-line UTF-8 file; ids are 0-based line indices.

    Blank lines are skipped but their line numbers stay reserved, so ids always
    match the original file.
    """
    path = Path(path)
    sentences = []
    for lineno, line in enumerate(read_lines(path)):
        try:
            tokens = tokenize(line)
        except BlankLineError:
            continue
        sentences.append(Sentence(lineno, tokens))
    return Corpus(sentences, name or path.stem)


def load_parallel(path, name="") -> ParallelCorpus:
    """Load a two-column TSV (source TAB target), one pair per line."""
    path = Path(path)
    pairs = []
    for lineno, line in enumerate(read_lines(path)):
        if not line.strip():
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 2:
            raise ParseError(f"{path}:{lineno + 1}: expected 2 TSV columns, got {len(cols)}")
        try:
            src = tokenize(cols[0])
            tgt = tokenize(cols[1])
        except BlankLineError:
            raise ParseError(f"{path}:{lineno + 1}: empty source or target column")
        pairs.append((Sentence(lineno, src), Sentence(lineno, tgt)))
    return ParallelCorpus(pairs, name or path.stem)
