import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import toy_reference
from almt import toy

VOCAB = toy.GENERAL_VOCAB + toy.DOMAIN_VOCAB

# sha256 of every file toy.generate writes but config.json, whose paths name
# the directory. The dim-64 fixture is (seed 1, 300 U x 200 L).
FIXTURE_DIGESTS = {
    ("stock", 1): {
        "L.tsv": "bef52f50a60b16a073d97c6c8895e8c81a88cca4fe8b651bf62f2fcd1712c34d",
        "U.txt": "982f1a63abf8ebe3420ce1d62d676c771eccce81f65c6b18cc5f5b5f1be7912b",
        "emb_L.tsv": "19dc8b1c6f96f1f6b875d63de796a4578fd06b9b20d5344f9b72e7b854e5f7ec",
        "emb_U.tsv": "178a450914226f57c19d6b6a5447e70d10cedcac4d11d13190573ed7b0a01f02",
        "reference.tsv": "3727f87a3e9ea6261bdbd98b9bfb60726b255ea405316dd5de6b753919101e3b",
        "rttl_scores.tsv": "7f182c7be96069bf6c0ecd4326aed1e68a2afe0968bf418e772dc0a56ae8a4c3",
        "test.tsv": "1b18d521775c67476e5a78be3888765c8791a0978a708376f26aa581de22e1c9",
    },
    ("stock", 2): {
        "L.tsv": "9cb4a3afce58492454b05cfb985028522f2fd122bf19beca40905fbce1d18743",
        "U.txt": "a0631e8a1fd7387e2af99c95e4e48c54dbf6b6b124dbe513c39476ece39bf506",
        "emb_L.tsv": "8495c1a13bfc19397cb4937bd9f45f2e5e72f55a80264825508d2edfe25cab0d",
        "emb_U.tsv": "9b696b9b069996228816742e6ce3e1dc33877b8024d2fcadaf78ee073781dbcf",
        "reference.tsv": "dc4338c1eaeb151960e0498dbb8191beae5d9b3df0d7f265dfc63bc92120dfb6",
        "rttl_scores.tsv": "3754b7d25588f19473ede5c74b0fc25719571314830859e71639b7752c961ffd",
        "test.tsv": "6b6450be9526e18416965e09adf334665a7bb05c5339f37d9d56bbfa7226dd5e",
    },
    ("stock", 7): {
        "L.tsv": "5d36a9206d048f68f426340c5884eae57184521ad18c8ca25b6357bc47b76b9d",
        "U.txt": "7a5a2450dd9e26e130a0d1b308a1c9cb421ae5c1aa9f6166f7f6a868c33d31f0",
        "emb_L.tsv": "392e1d91e66be6abe2f94d66a61e6a123b6e7b769ed9c8aa12281d72f02e23d7",
        "emb_U.tsv": "5a21ee99c86cfe857cd8efe1b936f3b689e0793935899b5a90e4b5a7276fd66f",
        "reference.tsv": "bc3eb6a2b479d1dbdb83f5a1703df44377f941f5589d4080ce12a9e92d8472c7",
        "rttl_scores.tsv": "8ca1636fefe38cf39f2644fbd05114abde19c426457c8353afdab1855552554e",
        "test.tsv": "42143d1558dc1faac1bb597181881792b9c1162b8c343d70b674d9a5e67d19cf",
    },
    ("dim-64", 1): {
        "L.tsv": "0a724a14055569ef4babafbd62589fdfff706802e3a3a9a480c399136324d4b9",
        "U.txt": "fb265e4646e0332870fbc30c3edc40a3d8845e9811c1c3107d40029dd6297e8e",
        "emb_L.tsv": "5f9584b8ac5f57c7197a576deb11fdd81a21db19077e7258163a8e653178248b",
        "emb_U.tsv": "45f7875091489da2927771dbab8d0dafdceb23a1c38fd21e4e1dcfcd35341810",
        "reference.tsv": "b952073c7e6bd81936212a4510af01cd72f7a616b058c170ce860d6ebbb13974",
        "rttl_scores.tsv": "f02f14ebb1c9a2e4789aef270bd8eef5c81fc9990bd49634b516675c3ff3c11f",
        "test.tsv": "04c415246d49c172b84980e0326934e48412f6a2837c9348840e113b155007ff",
    },
}
FIXTURE_SIZES = {"stock": {}, "dim-64": {"n_unlabeled": 300, "n_labeled": 200, "dim": 64}}


@pytest.mark.parametrize("fixture, seed", sorted(FIXTURE_DIGESTS))
def test_toy_fixture_bytes_are_pinned(fixture, seed, tmp_path):
    """Every test fixture and bench set-up reads these files, so the
    generator writes the same bytes on any machine."""
    toy.generate(tmp_path, seed=seed, **FIXTURE_SIZES[fixture])
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "config.json"}
    assert written == FIXTURE_DIGESTS[fixture, seed]


def _sentences(max_len):
    return st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=max_len), max_size=12)


def _check(tmp_path, sentences, dim, seed, vector=toy_reference.mean_vector):
    """The writer's means have the reference's bits, and its file the reference's bytes."""
    vecs = toy._token_vectors(dim, seed)
    means = toy._sentence_means(sentences, vecs)
    expected = np.array([vector(tokens, vecs) for tokens in sentences]).reshape(len(sentences), dim)
    assert means.shape == expected.shape and means.tobytes() == expected.tobytes()
    toy._write_embeddings(tmp_path / "new.tsv", sentences, vecs, dim)
    toy_reference.write_embeddings(tmp_path / "ref.tsv", sentences, vecs, dim, vector)
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sentences=_sentences(40), dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_write_embeddings_matches_per_sentence_mean(sentences, dim, seed, tmp_path):
    _check(tmp_path, sentences, dim, seed)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sentences=_sentences(40), seed=st.integers(0, 2**32 - 1))
def test_write_embeddings_dim_1_adds_in_token_order(sentences, seed, tmp_path):
    """At dim 1 numpy's mean sums 8 or more rows pairwise; the writer keeps
    token order, so it matches the per-sentence mean up to 7 tokens."""
    _check(tmp_path, sentences, 1, seed, toy_reference.token_order_vector)
    _check(tmp_path, [tokens for tokens in sentences if len(tokens) <= 7], 1, seed)


@pytest.mark.parametrize("dim", [1, 8])
def test_write_embeddings_of_no_sentences_is_the_header(dim, tmp_path):
    _check(tmp_path, [], dim, 0)
    assert (tmp_path / "new.tsv").read_bytes() == f"dim={dim}\n".encode()
