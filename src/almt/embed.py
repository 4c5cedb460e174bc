"""Embedding ingestion and batch ratio-based similarity scores.

Vectors are ingested from files, never computed here. The ratio score divides
the cosine of a pair by the average cosine of each side's k nearest
neighbors, drawn from the opposing corpus (margin-scoring convention).
"""

import math
import warnings
from functools import cached_property

import numpy as np

from .corpus import read_lines, read_records
from .errors import ParseError


class EmbeddingStore:
    """Immutable map from sentence id to a unit vector of fixed dimension.

    Only the unit rows are kept: the constructor copies its input once and
    normalises that copy in place. A zero row stays zero, and ``usable``, one
    flag per row, is False for it alone."""

    def __init__(self, ids, matrix, tag=""):
        self._own(ids, np.array(matrix, dtype=np.float64), tag)

    def _own(self, ids, unit, tag):
        """Set every field from ``unit``, a float64 array it owns and normalises
        in place, and return the store."""
        self.tag = tag
        self._index(ids)
        self.unit = unit
        if self.unit.ndim != 2 or self.unit.shape[0] != len(self.ids):
            raise ValueError("matrix shape does not match id count")
        if not np.isfinite(self.unit).all():
            raise ValueError(f"store {tag!r} contains NaN/Inf components")
        self.dim = self.unit.shape[1]
        # Norms by row blocks, so no temporary grows with the store.
        norms = np.empty(len(self.ids))
        step = _block_rows(self.dim)
        with np.errstate(over="ignore"):
            for start in range(0, len(norms), step):
                norms[start:start + step] = np.linalg.norm(self.unit[start:start + step], axis=1)
        # A plain norm overflows past about 1e154 and reads 0 below about
        # 1e-154: such rows are scaled by their max-abs before normalising.
        for i in np.nonzero(np.isinf(norms) | (norms == 0.0))[0]:
            scale = np.abs(self.unit[i]).max(initial=0.0)
            if scale:
                self.unit[i] /= scale
                norms[i] = np.linalg.norm(self.unit[i])
        self.usable = norms > 0.0
        self.unit /= np.where(self.usable, norms, 1.0)[:, None]
        return self

    def _index(self, ids):
        """Set ``ids`` and ``row``, id -> row; a repeated id raises ValueError."""
        self.ids = list(ids)
        self.row = {}
        for i, sid in enumerate(self.ids):
            if sid in self.row:
                raise ValueError(f"duplicate id {sid} in store {self.tag!r}")
            self.row[sid] = i

    def __len__(self):
        return len(self.ids)

    def subset(self, ids, tag=None):
        """The store of ``ids``, its rows taken from this store's unit rows as
        they are (normalising a unit row again can move it by one ulp)."""
        sub = object.__new__(EmbeddingStore)
        sub.tag, sub.dim = tag or self.tag, self.dim
        sub._index(ids)
        rows = [self.row[sid] for sid in sub.ids]
        sub.unit, sub.usable = self.unit[rows], self.usable[rows]
        return sub

    @classmethod
    def load(cls, path, tag=""):
        """Parse the "dim=D" header then "id TAB v1 v2 ... vD" lines. A malformed
        line, a NaN or Inf component or a repeated id raises ParseError naming
        ``path`` and the first such line (a repeated id's second occurrence).
        numpy's C reader parses the components as the lines stream past; on any
        doubt (it fails, or gives another shape, a NaN or Inf or a repeated id)
        the file is read again by _parse_lines."""
        dim = parse_dim(path, next(read_lines(path), ""))
        ids = []

        def fields():
            for _, (sid, field) in read_records(path, _vector_line, start=2):
                ids.append(sid)
                yield field
        try:
            with warnings.catch_warnings():  # "input contained no data" when no line has a component
                warnings.simplefilter("ignore", UserWarning)
                matrix = np.loadtxt(fields(), dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, ParseError):
            matrix = None
        if (matrix is None or matrix.shape != (len(ids), dim) or not np.isfinite(matrix).all()
                or len(set(ids)) < len(ids)):
            ids, matrix = _parse_lines(path, dim)
        return object.__new__(cls)._own(ids, matrix, tag)  # the parsed matrix is not copied


def _vector_line(line, parse_field=str):
    """(id, parse_field(components text)) of an "id TAB v1 v2 ... vD" line; a line
    without exactly one tab, or whose id or components do not parse, raises ValueError."""
    try:
        sid, field = line.rstrip("\n").split("\t")
        return int(sid), parse_field(field)
    except ValueError:
        raise ValueError("malformed embedding line") from None


def _parse_lines(path, dim):
    """(ids, matrix) of an embedding file, each line's components read with
    float(); the first faulty line raises its ParseError. It reads what float()
    reads and numpy's C reader does not, such as "1_0" or non-ASCII digits.
    Both round correctly, so both give the same bits."""
    def parse(line):
        sid, vec = _vector_line(line, lambda field: [float(v) for v in field.split()])
        if len(vec) != dim:
            raise ValueError(f"expected {dim} components, got {len(vec)}")
        if not all(map(math.isfinite, vec)):
            raise ValueError("NaN or Inf component")
        return sid, vec
    rows = [row for _, row in read_records(path, parse, key=lambda row: f"id {row[0]}", start=2)]
    matrix = np.array([vec for _, vec in rows], dtype=np.float64).reshape(len(rows), dim)
    return [sid for sid, _ in rows], matrix


def parse_dim(path, header):
    """D of an embedding file's first line ``header``, "dim=D" with D a positive integer."""
    key, _, dim = header.strip().partition("=")
    if key != "dim" or not (dim.isascii() and dim.isdigit() and int(dim) > 0):
        raise ParseError(f"{path}:1: expected 'dim=D' header with D a positive integer, "
                         f"got {header.strip()!r}")
    return int(dim)


# Product block: rows * columns stays within this many float64 cells
# (1 MB), so scorer memory does not grow with |A| and grows with |B| only
# through O(|B|) per-point vectors.
BLOCK_CELLS = 1 << 17


def _block_rows(cols):
    """Rows of a product block over ``cols`` columns: at least one."""
    return max(1, BLOCK_CELLS // max(1, cols))


class RatioScorer:
    """All-pairs ratio scores between two stores, reduced per A row.

    Construction (pass 1) makes one sweep over row blocks of A x B cosines
    and takes every point's mean cosine to its k nearest neighbours in the
    other store: B's from a running top-k per column, then A's from each
    block's rows, partitioned in place once the columns have read them. A
    mean averages the k largest cosines to the other store's non-degenerate
    points (fewer when fewer exist), sorted ascending, with one reduction
    over a contiguous last axis for rows and columns alike. It is NaN for a
    degenerate point and for a point with no neighbours. The first reduction
    call (pass 2, cached) sweeps the blocks again as ratios, their
    denominators written into one reused block, and keeps per-row min, max
    and argmax; ``T``, the B x A scorer, shares pass 1 and makes its own
    pass 2. No |A| x |B| array is ever held.
    Every per-row result depends only on that row's products, so the block
    size reaches results only through the rounding of the BLAS products, whose
    summation order can depend on their shape.
    """

    def __init__(self, store_a: EmbeddingStore, store_b: EmbeddingStore, k: int):
        self.a, self.b = store_a, store_b
        use_a, use_b = store_a.usable, store_b.usable
        all_a, all_b, n = use_a.all(), use_b.all(), np.count_nonzero(use_b)
        kk = min(k, n)
        self.mean_a = np.full(len(store_a), np.nan)
        top = np.empty((0, len(store_b)))  # per column, its largest cosines ascending
        for start, sims in self._products(store_a.unit, store_b.unit):
            rows = slice(start, start + len(sims))
            cand = sims if all_a else sims[use_a[rows]]
            if len(top) < k:
                top = np.sort(np.vstack([top, cand]), axis=0)[-k:].copy()  # frees the sorted block
            elif len(cand):
                beat = np.nonzero(cand.max(axis=0) > top[0])[0]
                top[:, beat] = np.sort(np.vstack([top[:, beat], cand[:, beat]]), axis=0)[-k:]
            if n:  # the columns have read the block, so its rows are partitioned in place
                tail = sims if all_b else sims[:, use_b]
                tail.partition(n - kk, axis=1)
                self.mean_a[rows] = np.sort(tail[:, n - kk:], axis=1).mean(axis=1)
        self.mean_b = (np.ascontiguousarray(top.T).mean(axis=1) if len(top)
                       else np.full(len(store_b), np.nan))
        self.mean_a[~use_a] = self.mean_b[~use_b] = np.nan

    @cached_property
    def T(self):
        """The B x A scorer: it shares this one's pass 1 (stores and means,
        swapped) and makes its own pass 2 over B x A cosines."""
        t = object.__new__(RatioScorer)
        t.a, t.b, t.mean_a, t.mean_b = self.b, self.a, self.mean_b, self.mean_a
        return t

    def _products(self, left, right):
        """(start, left[start:stop] @ right.T) for each row block of left,
        a block holding at most BLOCK_CELLS cells (at least one row). Each block
        overwrites the last in one buffer: a fresh one can fault in new pages."""
        rows = _block_rows(right.shape[0])
        buf = np.empty((min(rows, left.shape[0]), right.shape[0]))
        for start in range(0, left.shape[0], rows):
            block = left[start:start + rows]
            yield start, np.matmul(block, right.T, out=buf[:len(block)])

    @cached_property
    def _rows(self):
        """Pass 2: per-A-row (min, max, argmax column).

        A pair has a ratio when both points are usable and its denominator is
        positive. min and max run over a row's ratios and are NaN when it has
        none, which skips the row; argmax runs over its finite ratios, ties to
        the lowest B id, and is -1 when the row has none.
        """
        mins, maxs = np.full((2, len(self.a)), np.nan)
        best = np.full(len(self.a), -1)
        if not self.b.usable.any():
            return mins, maxs, best
        # Columns in ascending id order, so the first maximum is the tie-break
        # winner. A degenerate point's NaN mean makes its denominators NaN.
        by_id = np.argsort(np.asarray(self.b.ids), kind="stable")
        mean_b = self.mean_b[by_id]
        # Addition and halving round monotonically, so a row's denominators
        # are all positive when the one with B's lowest mean (NaN if any is) is.
        positive = (self.mean_a + mean_b.min()) / 2.0 > 0.0
        # One denominator block, reused; x * 0.5 and x / 2.0 round alike.
        denoms = np.empty((min(_block_rows(len(mean_b)), len(self.a)), len(mean_b)))
        for start, ratios in self._products(self.a.unit, self.b.unit[by_id]):
            rows = slice(start, start + len(ratios))
            denom = np.add(self.mean_a[rows, None], mean_b, out=denoms[:len(ratios)])
            denom *= 0.5
            with np.errstate(all="ignore"):  # a zero, NaN or subnormal denominator
                ratios /= denom
            fast = positive[rows].all()  # then every pair has a ratio
            if not fast:
                ratios[~(denom > 0.0)] = np.nan
            mins[rows], maxs[rows] = np.fmin.reduce(ratios, axis=1), np.fmax.reduce(ratios, axis=1)
            if fast and np.isfinite(maxs[rows]).all():
                best[rows] = by_id[ratios.argmax(axis=1)]
            else:  # the argmax skips infinite ratios
                finite = np.isfinite(ratios)
                pick = np.argmax(np.where(finite, ratios, -np.inf), axis=1)
                best[rows] = np.where(finite.any(axis=1), by_id[pick], -1)
        return mins, maxs, best

    def min_over_b(self):
        """Each A row's min ratio over B (literal distance-to-labeled), NaN for a
        row with no ratio; the array is shared, not to be written."""
        return self._rows[0]

    def max_over_b(self):
        """Each A row's max ratio over any B member (nearest similarity), NaN for
        a row with no ratio; the array is shared, not to be written."""
        return self._rows[1]

    def skip_counts(self):
        """Skipped A rows by cause: "zero-norm" when the row's vector, or every
        B vector, has zero norm, else "non-positive-margin" (no B point gives
        the row a positive denominator)."""
        zero = len(self.a) if not self.b.usable.any() else int(np.count_nonzero(~self.a.usable))
        skipped = int(np.count_nonzero(np.isnan(self._rows[1])))
        return {"zero-norm": zero, "non-positive-margin": skipped - zero}

    def argmax_over_b(self, a_id):
        """The B id of ``a_id``'s highest finite ratio, ties by ascending B id,
        or None when the row has no finite ratio. An id outside A raises KeyError."""
        best = self._rows[2][self.a.row[a_id]]
        return None if best < 0 else self.b.ids[best]
