"""Deterministic toy fixture: a small in-domain corpus with frequent domain
phrases, an out-of-domain parallel corpus that never mentions them, synthetic
embeddings, and a simulated-oracle reference.

Everything is generated from one seed so pipeline runs are byte-reproducible.
The "translation" of a token w is simply T_w, which lets IBM Model 1 recover
a near-perfect table on a corpus this small.
"""

import json
import random
from pathlib import Path

import numpy as np

from .corpus import write_text

GENERAL_VOCAB = [f"g{i:02d}" for i in range(40)]
DOMAIN_VOCAB = [f"d{i:02d}" for i in range(15)]
DOMAIN_PHRASES = [
    ("d00", "d01"), ("d02", "d03", "d04"), ("d05",), ("d06", "d07"),
    ("d08", "d09", "d10"), ("d11", "d12"), ("d13",), ("d14", "d00"),
]


def translate_token(tok: str) -> str:
    return "T_" + tok


def _general_sentence(rng, lo=4, hi=9):
    return [rng.choice(GENERAL_VOCAB) for _ in range(rng.randint(lo, hi))]


def _domain_sentence(rng):
    tokens = _general_sentence(rng, 3, 6)
    for _ in range(rng.randint(1, 2)):
        phrase = rng.choice(DOMAIN_PHRASES)
        pos = rng.randint(0, len(tokens))
        tokens[pos:pos] = list(phrase)
    return tokens


def _token_vectors(dim, seed):
    rng = np.random.default_rng(seed)
    vecs = {}
    for tok in GENERAL_VOCAB + DOMAIN_VOCAB:
        vecs[tok] = rng.normal(size=dim)
    # push domain tokens into their own half-space so U clusters away from L
    shift = rng.normal(size=dim) * 3.0
    for tok in DOMAIN_VOCAB:
        vecs[tok] = vecs[tok] + shift
    return vecs


def _translated(src):
    return src, [translate_token(t) for t in src]


def _tsv(pairs):
    return "".join(f"{' '.join(src)}\t{' '.join(tgt)}\n" for src, tgt in pairs)


def _sentence_means(sentences, vecs):
    """(sentences × dim) array of each sentence's mean token vector. Every
    sentence has a token.

    The rows are added in token order, first token first, which is the order
    ``np.mean(rows, axis=0)`` adds them in at dim >= 2, so each mean has the
    bits of one ``np.mean`` per sentence. At dim 1 numpy sums a sentence of 8
    or more tokens pairwise instead; these means keep token order there too.
    """
    row_of = {tok: i for i, tok in enumerate(vecs)}
    table = np.array(list(vecs.values()))
    lengths = np.array([len(tokens) for tokens in sentences], dtype=np.intp)
    ids = np.zeros((len(sentences), lengths.max(initial=1)), dtype=np.intp)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = [row_of[t] for tokens in sentences for t in tokens]
    sums = table[ids[:, 0]]
    for pos in range(1, ids.shape[1]):
        live = lengths > pos
        sums[live] += table[ids[live, pos]]
    return sums / lengths[:, None]


def _write_embeddings(path, sentences, vecs, dim):
    """One vector per sentence, its id the sentence's index: the mean of its
    token vectors, each component printed as ``%.8f``."""
    row = "%d\t" + " ".join(["%.8f"] * dim) + "\n"
    means = _sentence_means(sentences, vecs).tolist()
    write_text(path, f"dim={dim}\n" + "".join(row % (i, *vec) for i, vec in enumerate(means)))


def generate(out_dir, seed: int = 7, n_unlabeled: int = 200, n_labeled: int = 500,
             n_test: int = 30, dim: int = 8) -> dict:
    """Write the fixture files and a ready-to-run pipeline config.

    Returns the config dict (also saved as config.json).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    vecs = _token_vectors(dim, seed)

    u_sentences = [_domain_sentence(rng) for _ in range(n_unlabeled)]
    l_pairs = [_translated(_general_sentence(rng)) for _ in range(n_labeled)]
    test_pairs = [_translated(_domain_sentence(rng)) for _ in range(n_test)]

    write_text(out / "U.txt", "".join(" ".join(tokens) + "\n" for tokens in u_sentences))
    write_text(out / "L.tsv", _tsv(l_pairs))
    # oracle reference: the "professional translator" answer for every U sentence
    write_text(out / "reference.tsv", _tsv(map(_translated, u_sentences)))
    write_text(out / "test.tsv", _tsv(test_pairs))
    _write_embeddings(out / "emb_U.tsv", u_sentences, vecs, dim)
    _write_embeddings(out / "emb_L.tsv", [src for src, _ in l_pairs], vecs, dim)
    write_text(out / "rttl_scores.tsv", "".join(f"{i}\t{-rng.uniform(0.5, 12.0):.6f}\n"
                                                for i in range(n_unlabeled)))

    config = {
        "unlabeled": str(out / "U.txt"),
        "labeled": str(out / "L.tsv"),
        "oracle_reference": str(out / "reference.tsv"),
        "embeddings_unlabeled": str(out / "emb_U.tsv"),
        "embeddings_labeled": str(out / "emb_L.tsv"),
        "test": str(out / "test.tsv"),
        "rttl_scores": str(out / "rttl_scores.tsv"),
        "strategy": "hybrid",
        "sentence_strategy": "csse",
        "phrase_strategy": "ngf-smp",
        "budgets": [200],
        "seed": seed,
        "k": 4,
        "max_n": 4,
        "labeled_subset_size": 100,
        "mix_policy": "retrieve",
        "augment_recipe": "switch",
        "output_dir": str(out / "runs"),
    }
    write_text(out / "config.json", json.dumps(config, indent=2, sort_keys=True) + "\n")
    return config
