"""Corpus data model, tokenization and IO.

A corpus is a dict from sentence id to data: a monolingual ``Corpus`` maps each
id to its token tuple, a ``ParallelCorpus`` maps each pair id to its (source
tokens, target tokens). Ids are the 0-based line indices of the file read.

All budgets are charged in whitespace tokens; punctuation counts (corpora are
assumed pre-tokenized upstream). Token identity is case-sensitive.
"""

import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

from .errors import ParseError

# A phrase is just a contiguous token sequence, kept as a hashable tuple.
Phrase = tuple[str, ...]


def tokenize(raw_line: str) -> tuple[str, ...]:
    """Split a line into maximal non-whitespace runs, each interned, so that
    every corpus holds one str per token type; a blank line gives ()."""
    return tuple(map(sys.intern, raw_line.split()))


class Corpus(dict):
    """Sentence id -> token tuple, in insertion order, with a ``name`` for messages.

    Built from (id, tokens) items, of which no two share an id; nothing writes
    to a corpus after that. Every token tuple is non-empty: the loaders skip
    blank lines (``read_records``) and split on whitespace only (``tokenize``).
    """

    kind = "sentence"

    def __init__(self, items=(), name=""):
        super().__init__()
        self.name = name
        for sid, value in items:
            if sid in self:
                raise ValueError(f"duplicate {self.kind} id {sid} in corpus {name!r}")
            self[sid] = value


class ParallelCorpus(Corpus):
    """Pair id -> (source tokens, target tokens); ``load_parallel`` rejects a pair
    with an empty side."""

    kind = "pair"


def read_lines(path):
    """Yield the lines of a UTF-8 text file; the first line that holds bytes that
    are not UTF-8 raises ParseError naming it, after the lines before it."""
    done = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for done, line in enumerate(fh, 1):
                yield line
    except UnicodeDecodeError as exc:  # decoded in read-ahead chunks: read on from line done + 1
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in itertools.islice(enumerate(fh, 1), done, None):
                if any("\udc80" <= c <= "\udcff" for c in line):  # a byte the decoder escaped
                    raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
                yield line


def read_records(path, parse, key=None, what=None, start=1):
    """(line number, parse(line)) of each non-blank line of ``path`` from line
    ``start`` on. The first faulty line in file order raises ParseError
    "<path>:<line>: <fault>": a ValueError, KeyError or TypeError from ``parse``
    gives its message, or "malformed <what> record (<its repr>)" with ``what``;
    a record whose name ``key(record)``, such as "id 3", an earlier line's
    record has gives "duplicate <name>"."""
    seen = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        if lineno < start or line.isspace():
            continue
        try:
            record = parse(line)
        except (ValueError, KeyError, TypeError) as exc:
            fault = f"malformed {what} record ({exc!r})" if what else exc
            raise ParseError(f"{path}:{lineno}: {fault}") from None
        if key is not None:
            name = key(record)
            if name in seen:
                raise ParseError(f"{path}:{lineno}: duplicate {name}")
            seen.add(name)
        yield lineno, record


def record_id(record) -> int:
    """``record["id"]`` of a parsed JSON record; a value that is not a JSON
    integer (true and false too) raises TypeError."""
    sid = record["id"]
    if type(sid) is not int:
        raise TypeError(f"id {json.dumps(sid)} is not an integer")
    return sid


def record_tokens(record) -> tuple:
    """``record["tokens"]`` of a parsed JSON record as a tuple; a value that is not
    a non-empty JSON list of non-empty strings without whitespace raises TypeError."""
    tokens = record["tokens"]
    if type(tokens) is not list or not tokens or \
            not all(type(t) is str and t.split() == [t] for t in tokens):
        raise TypeError(f"tokens {json.dumps(tokens)} is not a non-empty list of tokens")
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


def write_columns(paths, records):
    """Write to each of ``paths`` its column of ``records``, tuples of one line per path."""
    for i, path in enumerate(paths):
        write_text(path, "".join(record[i] for record in records))


def load_corpus(path, name="") -> Corpus:
    """Load a one-sentence-per-line UTF-8 file; ids are 0-based line indices.

    Blank lines are skipped but their line numbers stay reserved, so ids always
    match the original file.
    """
    path = Path(path)
    return Corpus(((lineno - 1, tokens) for lineno, tokens in read_records(path, tokenize)),
                  name or path.stem)


def _pair_tokens(line):
    """(source tokens, target tokens) of a "source TAB target" line."""
    cols = line.rstrip("\n").split("\t")
    if len(cols) != 2:
        raise ValueError(f"expected 2 TSV columns, got {len(cols)}")
    src, tgt = tokenize(cols[0]), tokenize(cols[1])
    if not (src and tgt):
        raise ValueError("empty source or target column")
    return src, tgt


def load_parallel(path, name="") -> ParallelCorpus:
    """Load a two-column TSV (source TAB target), one pair per line; ids as in load_corpus."""
    path = Path(path)
    return ParallelCorpus(((lineno - 1, pair) for lineno, pair in read_records(path, _pair_tokens)),
                          name or path.stem)
