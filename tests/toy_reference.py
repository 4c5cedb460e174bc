"""Per-sentence embedding writer for `almt.toy`.

Each sentence's vector is one ``np.mean`` over its token vectors, and each
component one f-string, as the toy generator wrote them before it built the
means and the text with array operations. Slow, and used only by tests, which
compare the generator's bytes with it.
"""

from functools import reduce

import numpy as np

from almt.corpus import write_text


def mean_vector(tokens, vecs):
    return np.mean([vecs[t] for t in tokens], axis=0)


def token_order_vector(tokens, vecs):
    """The mean with the rows added one at a time in token order. It equals
    ``mean_vector`` at dim >= 2; at dim 1 numpy sums 8 or more rows pairwise."""
    return reduce(np.add, (vecs[t] for t in tokens)) / len(tokens)


def write_embeddings(path, sentences, vecs, dim, vector=mean_vector):
    """One vector per sentence, its id the sentence's index."""
    rows = (" ".join(f"{v:.8f}" for v in vector(t, vecs)) for t in sentences)
    write_text(path, f"dim={dim}\n" + "".join(f"{i}\t{row}\n" for i, row in enumerate(rows)))
