"""Embedding ingestion and batch ratio-based similarity scores.

Vectors are ingested from files, never computed here. The ratio score divides
the cosine of a pair by the average cosine of each side's k nearest
neighbors; by default neighborhoods are drawn from the opposing corpus
(margin-scoring convention), switchable to same-pool.
"""

from functools import cached_property

import numpy as np

from .corpus import read_lines
from .errors import DegenerateNeighborhoodError, DegenerateVectorError, ParseError


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
        norms = np.linalg.norm(self.matrix, axis=1)
        self.degenerate_ids = {self.ids[i] for i in np.nonzero(norms == 0.0)[0]}
        safe = np.where(norms == 0.0, 1.0, norms)
        self.unit = self.matrix / safe[:, None]

    def __len__(self):
        return len(self.ids)

    def __contains__(self, sid):
        return sid in self.row

    def vector(self, sid):
        return self.matrix[self.row[sid]]

    def unit_vector(self, sid):
        if sid in self.degenerate_ids:
            raise DegenerateVectorError(f"zero-norm vector for id {sid} in store {self.tag!r}")
        return self.unit[self.row[sid]]

    def subset(self, ids, tag=None):
        rows = [self.row[sid] for sid in ids]
        return EmbeddingStore(list(ids), self.matrix[rows], tag or self.tag)

    @classmethod
    def load(cls, path, tag=""):
        """Parse the "dim=D" header then "id TAB v1 v2 ... vD" lines."""
        ids, vecs = [], []
        lines = read_lines(path)
        header = next(lines, "").strip()
        if not header.startswith("dim="):
            raise ParseError(f"{path}:1: expected 'dim=D' header, got {header!r}")
        dim = int(header[4:])
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            try:
                sid_str, vec_str = line.rstrip("\n").split("\t")
                vec = np.array([float(v) for v in vec_str.split()])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: malformed embedding line")
            if vec.shape[0] != dim:
                raise ParseError(f"{path}:{lineno}: expected {dim} components, got {vec.shape[0]}")
            ids.append(int(sid_str))
            vecs.append(vec)
        matrix = np.array(vecs) if vecs else np.zeros((0, dim))
        return cls(ids, matrix, tag)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"dim={self.dim}\n")
            for sid in self.ids:
                fh.write(f"{sid}\t{' '.join(repr(float(v)) for v in self.vector(sid))}\n")


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

    Construction (pass 1) computes every point's mean cosine to its k nearest
    neighbours. The first reduction call (pass 2, cached) streams row blocks
    of the A x B ratio matrix and keeps per-row min, max, usability and
    argmax. Cosines are computed one block of rows at a time, so no |A| x |B|
    array is ever held. Every per-row result depends only on that row's
    products, so the block size reaches results only through the rounding of
    the BLAS products, whose summation order can depend on their shape.
    """

    def __init__(self, store_a: EmbeddingStore, store_b: EmbeddingStore, k: int,
                 neighbor_mode: str = "cross", block: int = None):
        """block: rows per product block; by default a block holds BLOCK_CELLS cells."""
        self.a, self.b, self.k, self.block = store_a, store_b, k, block
        self.valid_a, self.valid_b = _usable(store_a), _usable(store_b)
        if neighbor_mode == "cross":
            self.mean_a = self._neighbor_means(store_a.unit, store_b.unit, self.valid_b, False)
            self.mean_b = self._neighbor_means(store_b.unit, store_a.unit, self.valid_a, False)
        elif neighbor_mode == "same":
            self.mean_a = self._neighbor_means(store_a.unit, store_a.unit, self.valid_a, True)
            self.mean_b = self._neighbor_means(store_b.unit, store_b.unit, self.valid_b, True)
        else:
            raise ValueError(f"unknown neighbor_mode {neighbor_mode!r}")

    def _products(self, left, right):
        """(start, left[start:stop] @ right.T) for each row block of left."""
        rows = self.block or max(1, BLOCK_CELLS // max(1, right.shape[0]))
        for start in range(0, left.shape[0], rows):
            yield start, left[start:start + rows] @ right.T

    def _neighbor_means(self, left, right, keep, exclude_self):
        """Mean of each left row's k largest cosines to the kept right rows.

        With exclude_self (left is right) a row is never its own neighbour.
        A row with fewer than k candidates averages those it has; a row with
        none gets NaN.
        """
        means = np.full(left.shape[0], np.nan)
        for start, sims in self._products(left, right):
            mask = np.broadcast_to(keep, sims.shape)
            if exclude_self:
                mask = mask.copy()
                mask[np.arange(len(sims)), np.arange(start, start + len(sims))] = False
            counts = mask.sum(axis=1)
            for n in np.unique(counts[counts > 0]):
                rows = np.nonzero(counts == n)[0]
                lanes = sims[rows][mask[rows]].reshape(rows.size, n)
                kk = min(self.k, n)
                means[start + rows] = np.partition(lanes, n - kk, axis=1)[:, n - kk:].mean(axis=1)
        return means

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
        mean_a = np.where(self.valid_a, self.mean_a, np.nan)[:, None]
        mean_b = np.where(self.valid_b, self.mean_b, np.nan)[by_id]
        unusable_cols = np.count_nonzero(~self.valid_b)
        for start, cos in self._products(self.a.unit, self.b.unit[by_id]):
            rows = slice(start, start + len(cos))
            denom = (mean_a[rows] + mean_b) / 2.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0.0, cos / denom, np.nan)
            usable[rows] = np.count_nonzero(np.isnan(ratios), axis=1) == unusable_cols
            mins[rows], maxs[rows] = np.fmin.reduce(ratios, axis=1), np.fmax.reduce(ratios, axis=1)
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

    def argmax_over_b(self, a_id):
        """Best B id for one A id, ties by ascending B id."""
        _, _, _, best, best_val = self._rows
        i = self.a.row[a_id]
        if best[i] < 0:
            raise DegenerateNeighborhoodError(f"no usable retrieval target for id {a_id}")
        return self.b.ids[best[i]], float(best_val[i])
