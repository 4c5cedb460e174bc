"""Span tracing from outside the program, and the per-layer metrics built on it.

``install`` wraps each traced function at every binding a caller can look it
up through: the defining module and every ``almt`` module that imported the
name (``from .align import align_pair`` makes ``almt.oracle.align_pair`` a
second binding). Methods are wrapped on their class. Each span records name,
start, end and the index of the span open when it started; the pipeline runs
on one thread (``workers=1``), so spans nest strictly and a span's self time
is its duration minus the durations of its direct children.
"""

import functools
import importlib
import pkgutil
import resource
import time

# span name -> (module, function) wrapped at every binding of the function.
FUNCTIONS = {
    "corpus.load_corpus": ("almt.corpus", "load_corpus"),
    "corpus.load_parallel": ("almt.corpus", "load_parallel"),
    "ngrams.extract_ngrams": ("almt.ngrams", "extract_ngrams"),
    "ngrams.semi_maximal_set": ("almt.ngrams", "semi_maximal_set"),
    "select.select_random_sentences": ("almt.select", "select_random_sentences"),
    "select.csse_scores": ("almt.select", "csse_scores"),
    "select.select_csse": ("almt.select", "select_csse"),
    "select.select_rttl": ("almt.select", "select_rttl"),
    "select.select_random_phrases": ("almt.select", "select_random_phrases"),
    "select.select_ngf": ("almt.select", "select_ngf"),
    "select.select_ngf_smp": ("almt.select", "select_ngf_smp"),
    "select.select_hybrid": ("almt.select", "select_hybrid"),
    "align.train_ibm1": ("almt.align", "train_ibm1"),
    "align.align_pair": ("almt.align", "align_pair"),
    "oracle.translate_phrases": ("almt.oracle", "translate_phrases"),
    "lm.train_lm": ("almt.lm", "train_lm"),
    "augment.augment_corpus": ("almt.augment", "augment_corpus"),
    "augment.phrases_in_sentence": ("almt.augment", "phrases_in_sentence"),
    "augment.best_switch": ("almt.augment", "best_switch"),
    "mix.retrieve_similar": ("almt.mix", "retrieve_similar"),
    "mix.assemble": ("almt.mix", "assemble"),
}

# span name -> (module, class, method) wrapped on the class.
METHODS = {
    "embed.load": ("almt.embed", "EmbeddingStore", "load"),
    "embed.scorer_build": ("almt.embed", "RatioScorer", "__init__"),
    "embed.min_over_b": ("almt.embed", "RatioScorer", "min_over_b"),
    "embed.max_over_b": ("almt.embed", "RatioScorer", "max_over_b"),
    "embed.argmax_over_b": ("almt.embed", "RatioScorer", "argmax_over_b"),
    "lm.logprob": ("almt.lm", "NGramLM", "logprob"),
}

SPAN_NAMES = frozenset(FUNCTIONS) | frozenset(METHODS)

STAGES = ("load", "extract", "select", "align", "oracle", "mix", "augment", "assemble")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.scorer_cells = 0
        self.scorer_rss_rise_mb = 0.0

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
        return traced

    def wrap_scorer_build(self, init):
        traced = self.wrap("embed.scorer_build", init)

        @functools.wraps(init)
        def build(scorer, store_a, store_b, *args, **kwargs):
            self.scorer_cells += len(store_a) * len(store_b)
            before = _maxrss_mb()
            traced(scorer, store_a, store_b, *args, **kwargs)
            self.scorer_rss_rise_mb += _maxrss_mb() - before
        return build

    def install(self):
        """Wrap every traced function at each of its bindings, and every traced method."""
        import almt
        modules = [importlib.import_module(f"almt.{m.name}")
                   for m in pkgutil.iter_modules(almt.__path__)]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif attr == "__init__":
                setattr(cls, attr, self.wrap_scorer_build(raw))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    def summary(self):
        """span name -> {"calls", "total_s", "self_s"} for every traced name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), covered in zip(self.spans, child_s):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return out


def self_check(summary, fires):
    """Names of spans that broke the prediction: one in ``fires`` that never
    fired, or one outside it that fired."""
    return sorted(name for name, agg in summary.items()
                  if (agg["calls"] > 0) != (name in fires))


def layer_metrics(summary, extra, reports, run_s, n_unlabeled):
    """Per-layer metrics of one traced repeat, summed over budgets.

    ``extra`` carries the scorer counters; ``reports`` are the budgets'
    report.json dicts.
    """
    def total(*names):
        return sum(summary[n]["total_s"] for n in names)

    def self_s(*names):
        return sum(summary[n]["self_s"] for n in names)

    def calls(*names):
        return sum(summary[n]["calls"] for n in names)

    def count(key):
        return sum(r["counts"].get(key, 0) for r in reports)

    stages = {s: sum(r["stages"].get(s, 0.0) for r in reports) for s in STAGES}
    selected = count("selected_phrases")
    augmented_budgets = sum(1 for r in reports if "augment" in r["stages"])
    u_base = n_unlabeled * augmented_budgets
    m = {f"pipeline.{s}_s": v for s, v in stages.items()}
    m.update({
        "pipeline.untimed_s": run_s - sum(stages.values()),
        "corpus.load_s": total("corpus.load_corpus", "corpus.load_parallel"),
        "corpus.load_calls": calls("corpus.load_corpus", "corpus.load_parallel"),
        "embed.load_s": total("embed.load"),
        "embed.scorer_build_s": total("embed.scorer_build"),
        "embed.scorer_builds": calls("embed.scorer_build"),
        "embed.scorer_cells": extra["scorer_cells"],
        "embed.scorer_rss_rise_mb": extra["scorer_rss_rise_mb"],
        "embed.reduce_s": total("embed.min_over_b", "embed.max_over_b"),
        "embed.argmax_s": total("embed.argmax_over_b"),
        "embed.argmax_calls": calls("embed.argmax_over_b"),
        "ngrams.extract_s": total("ngrams.extract_ngrams"),
        "ngrams.extract_calls": calls("ngrams.extract_ngrams"),
        "ngrams.semi_maximal_s": total("ngrams.semi_maximal_set"),
        "select.self_s": self_s(*(n for n in SPAN_NAMES if n.startswith("select."))),
        "align.ibm1_s": total("align.train_ibm1"),
        "align.ibm1_calls": calls("align.train_ibm1"),
        "align.align_pair_s": total("align.align_pair"),
        "align.align_pair_calls": calls("align.align_pair"),
        "oracle.phrases_self_s": self_s("oracle.translate_phrases"),
        "oracle.phrase_accept_ratio": count("translated_phrases") / selected if selected else 0.0,
        "lm.train_s": total("lm.train_lm"),
        "lm.logprob_s": total("lm.logprob"),
        "lm.logprob_calls": calls("lm.logprob"),
        "augment.self_s": self_s("augment.augment_corpus"),
        "augment.phrase_lookup_s": total("augment.phrases_in_sentence"),
        "augment.switch_search_s": self_s("augment.best_switch"),
        "augment.yield_ratio": count("synthetic_pairs") / u_base if u_base else 0.0,
        "mix.retrieve_self_s": self_s("mix.retrieve_similar"),
        "mix.assemble_s": total("mix.assemble"),
    })
    bases = {
        "oracle.phrase_accept_ratio": f"{count('translated_phrases')} translated of {selected} selected phrases",
        "augment.yield_ratio": f"{count('synthetic_pairs')} synthetic pairs over {u_base} U sentences "
                               f"({augmented_budgets} augmented budget(s))",
    }
    return m, bases
