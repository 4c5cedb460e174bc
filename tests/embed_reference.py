"""Line-by-line embedding-file reference for `EmbeddingStore.load`.

Each line's components go through Python's float() one at a time, as the
loader did before it read them with numpy's C reader. Slow, and used only by
tests, which compare the loader's ids, matrix bits and error messages with it.
"""

import numpy as np

from almt.corpus import read_lines
from almt.embed import parse_dim
from almt.errors import ParseError


def load(path):
    """(ids, matrix) of an embedding file, or the ParseError of its first malformed line.
    Unlike the loader, it does not reject NaN/Inf components or repeated ids."""
    ids, vecs = [], []
    lines = read_lines(path)
    dim = parse_dim(path, next(lines, ""))
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            sid_str, vec_str = line.rstrip("\n").split("\t")
            sid, vec = int(sid_str), np.array([float(v) for v in vec_str.split()])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed embedding line")
        if vec.shape[0] != dim:
            raise ParseError(f"{path}:{lineno}: expected {dim} components, got {vec.shape[0]}")
        ids.append(sid)
        vecs.append(vec)
    matrix = np.array(vecs) if vecs else np.zeros((0, dim))
    return ids, matrix
