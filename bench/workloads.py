"""The benchmark's workloads: fixture sizes, pipeline configs, and the spans
each one is predicted to fire.

Every fixture comes from ``almt.toy.generate`` with the workload seed; the
config overrides below are applied to the config it returns. Sizes are
smaller than the first measurements in the ROADMAP so that one benchmark run
holds several pipeline repeats, which keeps the medians steady (see
README.md).
"""

# Spans recorded by spans.py. A workload's ``fires`` set must each fire at
# least once in a traced repeat; every other span must fire exactly zero times.
HYBRID_SPANS = frozenset({
    "corpus.load_corpus", "corpus.load_parallel",
    "embed.load", "embed.scorer_build", "embed.min_over_b", "embed.max_over_b",
    "embed.argmax_over_b",
    "ngrams.extract_ngrams", "ngrams.semi_maximal_set",
    "select.select_hybrid", "select.select_csse", "select.csse_scores",
    "select.select_ngf_smp", "select.select_ngf",
    "align.train_ibm1", "align.align_pair",
    "oracle.translate_phrases",
    "lm.train_lm", "lm.logprob",
    "augment.augment_corpus", "augment.phrases_in_sentence", "augment.best_switch",
    "mix.retrieve_similar", "mix.assemble",
})

WORKLOADS = {
    # The paper's full recipe: CSSE + NGF-SMP hybrid, retrieval mixing and
    # switch augmentation, one budget. Every layer runs; per-sentence
    # retrieval in augment dominates.
    "hybrid-switch": {
        "generate": {"n_unlabeled": 1000, "n_labeled": 1200, "dim": 64},
        "config": {"strategy": "hybrid", "sentence_strategy": "csse",
                   "phrase_strategy": "ngf-smp", "mix_policy": "retrieve",
                   "augment_recipe": "switch", "labeled_subset_size": 1200,
                   "budgets": [1000]},
        "fires": HYBRID_SPANS,
    },
    # A five-budget NGF-SMP sweep with no embeddings: per-budget rework
    # (n-gram indexes, IBM-1) dominates and embed never runs.
    "phrase-sweep": {
        "generate": {"n_unlabeled": 1500, "n_labeled": 700},
        "config": {"strategy": "ngf-smp", "mix_policy": "sample",
                   "augment_recipe": None, "embeddings_unlabeled": None,
                   "embeddings_labeled": None,
                   "budgets": [250, 500, 1000, 2000, 4000]},
        "fires": frozenset({
            "corpus.load_corpus", "corpus.load_parallel",
            "ngrams.extract_ngrams", "ngrams.semi_maximal_set",
            "select.select_ngf_smp", "select.select_ngf",
            "align.train_ibm1", "align.align_pair",
            "oracle.translate_phrases", "mix.assemble",
        }),
    },
    # CSSE alone at a large dense scorer, selection only: the scorer build
    # and its row reduction set both time and peak memory.
    "csse-scale": {
        "generate": {"n_unlabeled": 5000, "n_labeled": 3000, "dim": 64},
        "config": {"strategy": "csse", "simulate_only": True,
                   "labeled_subset_size": 3000, "budgets": [5000, 20000]},
        "fires": frozenset({
            "corpus.load_corpus", "corpus.load_parallel",
            "embed.load", "embed.scorer_build", "embed.min_over_b",
            "select.select_csse", "select.csse_scores",
        }),
    },
    # The stock toy fixture and config, for the harness's smoke test only.
    "smoke": {
        "generate": {},
        "config": {},
        "fires": HYBRID_SPANS,
    },
}
