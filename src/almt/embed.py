"""Embedding ingestion and batch ratio-based similarity scores.

Vectors are ingested from files, never computed here. The ratio score divides
the cosine of a pair by the average cosine of each side's k nearest
neighbors, drawn from the opposing corpus (margin-scoring convention).
"""

import warnings
from functools import cached_property

import numpy as np

from .corpus import read_lines
from .errors import DegenerateNeighborhoodError, ParseError


class EmbeddingStore:
    """Immutable map from sentence id to a fixed-dimension real vector."""

    def __init__(self, ids, matrix, tag=""):
        self.tag = tag
        self.ids = list(ids)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.ids):
            raise ValueError("matrix shape does not match id count")
        if not np.isfinite(self.matrix).all():
            raise ValueError(f"store {tag!r} contains NaN/Inf components")
        self.dim = self.matrix.shape[1]
        self.row = {}
        for i, sid in enumerate(self.ids):
            if sid in self.row:
                raise ValueError(f"duplicate id {sid} in store {tag!r}")
            self.row[sid] = i
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.matrix, axis=1)
        self.degenerate_ids = {self.ids[i] for i in np.nonzero(norms == 0.0)[0]}
        self.unit = self.matrix / np.where(norms == 0.0, 1.0, norms)[:, None]
        # A plain norm overflows past about 1e154 and reads 0 below about
        # 1e-154: such rows are normalised after scaling by their max-abs.
        for i in np.nonzero(np.isinf(norms) | (norms == 0.0))[0]:
            scale = np.abs(self.matrix[i]).max(initial=0.0)
            if scale:
                scaled = self.matrix[i] / scale
                self.unit[i] = scaled / np.linalg.norm(scaled)
                self.degenerate_ids.discard(self.ids[i])

    def __len__(self):
        return len(self.ids)

    def __contains__(self, sid):
        return sid in self.row

    def subset(self, ids, tag=None):
        rows = [self.row[sid] for sid in ids]
        return EmbeddingStore(list(ids), self.matrix[rows], tag or self.tag)

    @classmethod
    def load(cls, path, tag=""):
        """Parse the "dim=D" header then "id TAB v1 v2 ... vD" lines. A malformed
        line, a NaN or Inf component or a repeated id raises ParseError naming
        ``path`` and the first such line (a repeated id's second occurrence).
        numpy's C reader parses the components as the lines stream past; where
        it fails or sees another shape, the file is read again by _parse_lines."""
        ids, linenos = [], []
        lines = read_lines(path)
        dim = parse_dim(path, next(lines, ""))

        def fields():
            for lineno, sid, field in _vector_lines(path, lines):
                ids.append(sid)
                linenos.append(lineno)
                yield field
        try:
            with warnings.catch_warnings():  # "input contained no data" when no line has a component
                warnings.simplefilter("ignore", UserWarning)
                matrix = np.loadtxt(fields(), dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, ParseError):  # _parse_lines names the first bad line, in file order
            matrix = None
        if matrix is None or matrix.shape != (len(ids), dim):
            ids, linenos, matrix = _parse_lines(path, dim)
        first = {}  # id -> its first row
        faults = [(i, f"duplicate id {sid}") for i, sid in enumerate(ids) if first.setdefault(sid, i) != i][:1]
        faults += [(i, "NaN or Inf component") for i in np.flatnonzero(~np.isfinite(matrix).all(axis=1))[:1]]
        if faults:
            i, fault = min(faults)
            raise ParseError(f"{path}:{linenos[i]}: {fault}")
        return cls(ids, matrix, tag)


def _vector_lines(path, lines):
    """(line number, id, components text) of each non-blank line of ``lines``,
    an embedding file's lines after its header; a line without exactly one tab
    or with an id that is not an integer raises ParseError."""
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            sid, field = line.rstrip("\n").split("\t")
            sid = int(sid)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed embedding line") from None
        yield lineno, sid, field


def _parse_lines(path, dim):
    """(ids, line numbers, matrix) of an embedding file, each line's components
    read with float(). It raises the first bad line's ParseError, and it reads
    what float() reads and numpy's C reader does not, such as "1_0" or
    non-ASCII digits. Both round correctly, so both give the same bits."""
    ids, linenos, vecs = [], [], []
    lines = read_lines(path)
    next(lines)  # the header, already parsed
    for lineno, sid, field in _vector_lines(path, lines):
        try:
            vec = [float(v) for v in field.split()]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed embedding line") from None
        if len(vec) != dim:
            raise ParseError(f"{path}:{lineno}: expected {dim} components, got {len(vec)}")
        ids.append(sid)
        linenos.append(lineno)
        vecs.append(vec)
    return ids, linenos, np.array(vecs, dtype=np.float64).reshape(len(vecs), dim)


def parse_dim(path, header):
    """D of an embedding file's first line ``header``, "dim=D" with D a positive integer."""
    key, _, dim = header.strip().partition("=")
    if key != "dim" or not (dim.isascii() and dim.isdigit() and int(dim) > 0):
        raise ParseError(f"{path}:1: expected 'dim=D' header with D a positive integer, "
                         f"got {header.strip()!r}")
    return int(dim)


# Default product block: rows * columns stays within this many float64 cells
# (512 KB), so scorer memory does not grow with |A| and grows with |B| only
# through O(|B|) per-point vectors.
BLOCK_CELLS = 1 << 16


def _usable(store: EmbeddingStore):
    keep = np.ones(len(store), dtype=bool)
    keep[[store.row[sid] for sid in store.degenerate_ids]] = False
    return keep


class RatioScorer:
    """All-pairs ratio scores between two stores, reduced per A row.

    Construction (pass 1) makes one sweep over row blocks of A x B cosines
    and takes every point's mean cosine to its k nearest neighbours in the
    other store: A's from each block's rows, B's from a running top-k per
    column. A mean averages the k largest cosines to the other store's
    non-degenerate points (fewer when fewer exist), sorted ascending, with
    one reduction over a contiguous last axis for rows and columns alike. It
    is NaN for a degenerate point and for a point with no neighbours. The
    first reduction call (pass 2, cached) sweeps the blocks again as ratios
    and keeps per-row min, max, usability and argmax; ``T``, the B x A scorer,
    shares pass 1 and makes its own pass 2. No |A| x |B| array is ever held. Every per-row result depends only on that row's products, so
    the block size reaches results only through the rounding of the BLAS
    products, whose summation order can depend on their shape.
    """

    def __init__(self, store_a: EmbeddingStore, store_b: EmbeddingStore, k: int, block: int = None):
        """block: rows per product block; by default a block holds BLOCK_CELLS cells."""
        self.a, self.b, self.k, self.block = store_a, store_b, k, block
        self.valid_a, self.valid_b = _usable(store_a), _usable(store_b)
        all_a, all_b, n = self.valid_a.all(), self.valid_b.all(), np.count_nonzero(self.valid_b)
        kk = min(k, n)
        self.mean_a = np.full(len(store_a), np.nan)
        top = np.empty((0, len(store_b)))  # per column, its largest cosines ascending
        for start, sims in self._products(store_a.unit, store_b.unit):
            rows = slice(start, start + len(sims))
            if n:
                tail = np.partition(sims if all_b else sims[:, self.valid_b], n - kk, axis=1)[:, n - kk:]
                self.mean_a[rows] = np.sort(tail, axis=1).mean(axis=1)
            cand = sims if all_a else sims[self.valid_a[rows]]
            if len(top) < k:
                top = np.sort(np.vstack([top, cand]), axis=0)[-k:].copy()  # frees the sorted block
            elif len(cand):
                beat = np.nonzero(cand.max(axis=0) > top[0])[0]
                top[:, beat] = np.sort(np.vstack([top[:, beat], cand[:, beat]]), axis=0)[-k:]
        self.mean_b = (np.ascontiguousarray(top.T).mean(axis=1) if len(top)
                       else np.full(len(store_b), np.nan))
        self.mean_a[~self.valid_a] = self.mean_b[~self.valid_b] = np.nan

    @cached_property
    def T(self):
        """The B x A scorer: it shares this one's pass 1 (stores, usability and
        means, swapped) and makes its own pass 2 over B x A cosines."""
        t = object.__new__(RatioScorer)
        t.a, t.b, t.k, t.block = self.b, self.a, self.k, self.block
        t.valid_a, t.valid_b, t.mean_a, t.mean_b = self.valid_b, self.valid_a, self.mean_b, self.mean_a
        t.__dict__["T"] = self
        return t

    def _products(self, left, right):
        """(start, left[start:stop] @ right.T) for each row block of left."""
        rows = self.block or max(1, BLOCK_CELLS // max(1, right.shape[0]))
        for start in range(0, left.shape[0], rows):
            yield start, left[start:start + rows] @ right.T

    @cached_property
    def _rows(self):
        """Pass 2: per-A-row (usable, min, max, argmax column, argmax value).

        A row is usable when it is not degenerate, B has a usable column, and
        no usable column has a non-positive denominator. min and max run over
        usable columns; argmax runs over every finite ratio, ties to the
        lowest B id, and is -1 when the row has none.
        """
        n_a = len(self.a)
        usable = np.zeros(n_a, dtype=bool)
        mins, maxs, best_val = np.full(n_a, np.nan), np.full(n_a, np.nan), np.full(n_a, np.nan)
        best = np.full(n_a, -1)
        if not self.valid_b.any():
            return usable, mins, maxs, best, best_val
        # Columns in ascending id order, so the first maximum is the tie-break
        # winner. A NaN mean makes every ratio of a degenerate point NaN.
        by_id = np.argsort(np.asarray(self.b.ids), kind="stable")
        mean_b = self.mean_b[by_id]
        unusable_cols = np.count_nonzero(~self.valid_b)
        # Addition and halving round monotonically, so a row's denominators
        # are all positive when the one with B's lowest mean is.
        positive = (self.mean_a + self.mean_b[self.valid_b].min()) / 2.0 > 0.0
        for start, ratios in self._products(self.a.unit, self.b.unit[by_id]):
            rows = slice(start, start + len(ratios))
            denom = self.mean_a[rows, None] + mean_b
            denom /= 2.0
            with np.errstate(all="ignore"):  # a zero, NaN or subnormal denominator
                ratios /= denom
            fast = not unusable_cols and positive[rows].all()  # then no ratio is NaN
            if not fast:
                ratios[~(denom > 0.0)] = np.nan
            mins[rows], maxs[rows] = np.fmin.reduce(ratios, axis=1), np.fmax.reduce(ratios, axis=1)
            if fast and np.isfinite(maxs[rows]).all():
                usable[rows] = True
                pick = ratios.argmax(axis=1)
                best[rows] = by_id[pick]
            else:  # the argmax skips infinite ratios
                usable[rows] = np.count_nonzero(np.isnan(ratios), axis=1) == unusable_cols
                finite = np.isfinite(ratios)
                pick = np.argmax(np.where(finite, ratios, -np.inf), axis=1)
                best[rows] = np.where(finite.any(axis=1), by_id[pick], -1)
            best_val[rows] = ratios[np.arange(len(ratios)), pick]
        return usable, mins, maxs, best, best_val

    def _reduce_rows(self, values):
        """id in A -> values[row] for usable rows, plus the skipped ids."""
        out, skipped = {}, []
        for sid, ok, v in zip(self.a.ids, self._rows[0].tolist(), values.tolist()):
            if ok:
                out[sid] = v
            else:
                skipped.append(sid)
        return out, skipped

    def min_over_b(self):
        """id in A -> min ratio over B (literal distance-to-labeled)."""
        return self._reduce_rows(self._rows[1])

    def max_over_b(self):
        """id in A -> max ratio over any B member (nearest similarity)."""
        return self._reduce_rows(self._rows[2])

    def skip_counts(self):
        """Skipped A rows by cause: "zero-norm" when the row's vector, or every
        B vector, has zero norm, else "non-positive-margin" (some usable
        column's denominator is not positive)."""
        zero = len(self.a) if not self.valid_b.any() else int(np.count_nonzero(~self.valid_a))
        return {"zero-norm": zero, "non-positive-margin": int(np.count_nonzero(~self._rows[0])) - zero}

    def argmax_over_b(self, a_id):
        """Best B id for one A id, ties by ascending B id."""
        _, _, _, best, best_val = self._rows
        i = self.a.row[a_id]
        if best[i] < 0:
            raise DegenerateNeighborhoodError(f"no usable retrieval target for id {a_id}")
        return self.b.ids[best[i]], float(best_val[i])
