"""End-to-end driver: extract -> select -> oracle -> mix -> augment -> assemble.

Stages communicate through files inside one run directory per budget, so every
intermediate is inspectable. Fine-tuning itself is out of scope: the pipeline
emits manifests for downstream toolkits.
"""

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import align, augment, mix, oracle, select
from .corpus import Corpus, ParallelCorpus, load_corpus, load_parallel
from .embed import EmbeddingStore
from .errors import ConfigError
from .lm import train_lm
from .ngrams import extract_ngrams

SENTENCE_STRATEGIES = ("random-sent", "csse", "rttl")
PHRASE_STRATEGIES = ("random-phrase", "ngf", "ngf-smp")


@dataclass
class RunConfig:
    unlabeled: str
    labeled: str
    strategy: str
    budgets: list
    oracle_reference: str = None
    embeddings_unlabeled: str = None
    embeddings_labeled: str = None
    test: str = None
    rttl_scores: str = None
    sentence_strategy: str = "csse"
    phrase_strategy: str = "ngf-smp"
    seed: int = 0
    k: int = 4
    max_n: int = 4
    dist_mode: str = "literal"
    rttl_score_kind: str = "loglik"
    labeled_subset_size: int = 10000
    mix_policy: str = "retrieve"  # retrieve | sample
    mix_size: int = None  # default: |L_p|
    freeze_file: str = None
    augment_recipe: str = None  # switch | contextualize | None
    ibm1_iterations: int = 5
    lm_order: int = 3
    output_dir: str = "runs"
    workers: int = 1  # ignored: the scorer is single-threaded; kept so saved configs load
    simulate_only: bool = False

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def validate_config(config: RunConfig) -> list[str]:
    """Returns a list of failure messages; empty means valid."""
    failures = []
    if config.max_n < 1:
        failures.append(f"max_n must be >= 1, got {config.max_n}")
    if config.k < 1:
        failures.append(f"k must be >= 1, got {config.k}")
    if not config.budgets or any(b < 1 for b in config.budgets):
        failures.append(f"budgets must be a non-empty list of positive ints, got {config.budgets}")
    needs_sentences = config.strategy in SENTENCE_STRATEGIES or config.strategy == "hybrid"
    if config.strategy not in SENTENCE_STRATEGIES + PHRASE_STRATEGIES + ("hybrid",):
        failures.append(f"unknown strategy {config.strategy!r}")
    if config.strategy == "hybrid":
        if config.sentence_strategy not in SENTENCE_STRATEGIES:
            failures.append(f"unknown sentence_strategy {config.sentence_strategy!r}")
        if config.phrase_strategy not in PHRASE_STRATEGIES:
            failures.append(f"unknown phrase_strategy {config.phrase_strategy!r}")
    for label, path in [("unlabeled", config.unlabeled), ("labeled", config.labeled)]:
        if not path or not Path(path).exists():
            failures.append(f"{label} corpus path missing or unreadable: {path}")
    effective_sentence = config.sentence_strategy if config.strategy == "hybrid" else config.strategy
    needs_embeddings = (needs_sentences and effective_sentence == "csse") or \
        (not config.simulate_only and (config.mix_policy == "retrieve" or config.augment_recipe))
    if needs_embeddings:
        for label, path in [("embeddings_unlabeled", config.embeddings_unlabeled),
                            ("embeddings_labeled", config.embeddings_labeled)]:
            if not path or not Path(path).exists():
                failures.append(f"{label} path missing or unreadable: {path}")
    if needs_sentences and effective_sentence == "rttl":
        if not config.rttl_scores or not Path(config.rttl_scores).exists():
            failures.append(f"rttl_scores file required for RTTL: {config.rttl_scores}")
    if not config.simulate_only:
        if not config.oracle_reference or not Path(config.oracle_reference).exists():
            failures.append(f"oracle_reference required unless simulate_only: {config.oracle_reference}")
    if config.mix_policy not in ("retrieve", "sample"):
        failures.append(f"unknown mix_policy {config.mix_policy!r}")
    if config.augment_recipe not in (None, "switch", "contextualize"):
        failures.append(f"unknown augment_recipe {config.augment_recipe!r}")
    if config.embeddings_unlabeled and config.embeddings_labeled \
            and Path(config.embeddings_unlabeled).exists() and Path(config.embeddings_labeled).exists():
        try:
            dim_u = _peek_dim(config.embeddings_unlabeled)
            dim_l = _peek_dim(config.embeddings_labeled)
            if dim_u != dim_l:
                failures.append(f"embedding dimension mismatch: {dim_u} vs {dim_l}")
        except Exception as exc:
            failures.append(f"embedding header unreadable: {exc}")
    return failures


def _peek_dim(path):
    with open(path, encoding="utf-8") as fh:
        return int(fh.readline().strip()[4:])


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunReport:
    config: dict
    budget: int
    stages: dict = field(default_factory=dict)  # stage -> seconds
    counts: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)
    dropped: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


class _Stage:
    def __init__(self, report, name):
        self.report, self.name = report, name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, exc_type, exc, tb):
        self.report.stages[self.name] = round(time.perf_counter() - self.t0, 6)
        return False


def run_pipeline(config: RunConfig, budget: int = None) -> list[RunReport]:
    """Run every configured budget (or just the override) in its own directory."""
    failures = validate_config(config)
    if failures:
        raise ConfigError("; ".join(failures))
    budgets = [budget] if budget is not None else list(config.budgets)
    reports = []
    for b in budgets:
        run_dir = Path(config.output_dir) / f"budget-{b}"
        run_dir.mkdir(parents=True, exist_ok=True)
        lock = run_dir / "lock"
        if lock.exists():
            raise ConfigError(f"run directory {run_dir} is locked by another process")
        lock.write_text(str(time.time()))
        try:
            reports.append(_run_one(config, b, run_dir))
        except Exception as exc:
            (run_dir / "failed").write_text(f"{type(exc).__name__}: {exc}\n")
            raise
        finally:
            lock.unlink(missing_ok=True)
    return reports


def _select_sentences(config, strategy, U, store_U, store_Lsub, b):
    if strategy == "random-sent":
        return select.select_random_sentences(U, b, config.seed)
    if strategy == "csse":
        return select.select_csse(U, store_U, store_Lsub, b, config.k, config.dist_mode)
    if strategy == "rttl":
        scores = select.load_rttl_scores(config.rttl_scores)
        return select.select_rttl(U, scores, b, config.rttl_score_kind)
    raise ConfigError(f"unknown sentence strategy {strategy!r}")


def _select_phrases(config, strategy, index_U, index_L, b):
    if strategy == "random-phrase":
        return select.select_random_phrases(index_U, index_L, b, config.seed)
    if strategy == "ngf":
        return select.select_ngf(index_U, index_L, b)
    if strategy == "ngf-smp":
        return select.select_ngf_smp(index_U, index_L, b)
    raise ConfigError(f"unknown phrase strategy {strategy!r}")


def _run_one(config: RunConfig, b: int, run_dir: Path) -> RunReport:
    report = RunReport(asdict(config), b)
    outputs = {}

    def emit(name, path):
        outputs[name] = path

    with _Stage(report, "load"):
        U = load_corpus(config.unlabeled, "U")
        L = load_parallel(config.labeled, "L")
        store_U = EmbeddingStore.load(config.embeddings_unlabeled, "U") \
            if config.embeddings_unlabeled else None
        store_L = EmbeddingStore.load(config.embeddings_labeled, "L") \
            if config.embeddings_labeled else None
        # L' subset used for CSSE scoring, seeded for reproducibility
        rng = random.Random(config.seed)
        l_ids = L.ids()
        if len(l_ids) > config.labeled_subset_size:
            l_ids = sorted(rng.sample(l_ids, config.labeled_subset_size))
        store_Lsub = store_L.subset([i for i in l_ids if i in store_L], "L-sub") \
            if store_L else None

    with _Stage(report, "extract"):
        needs_phrases = config.strategy in PHRASE_STRATEGIES or config.strategy == "hybrid"
        index_U = index_L = None
        if needs_phrases:
            index_U = extract_ngrams(U, config.max_n)
            index_L = extract_ngrams(L.source_corpus(), config.max_n)
            index_U.export_tsv(run_dir / "index_U.tsv")
            emit("index_U", run_dir / "index_U.tsv")

    with _Stage(report, "select"):
        if config.strategy == "hybrid":
            result = select.select_hybrid(
                b,
                lambda bs: _select_sentences(config, config.sentence_strategy, U, store_U, store_Lsub, bs),
                lambda bp: _select_phrases(config, config.phrase_strategy, index_U, index_L, bp))
        elif config.strategy in SENTENCE_STRATEGIES:
            result = _select_sentences(config, config.strategy, U, store_U, store_Lsub, b)
        else:
            result = _select_phrases(config, config.strategy, index_U, index_L, b)
        result.write_jsonl(run_dir / "selection.jsonl")
        emit("selection", run_dir / "selection.jsonl")
        report.counts["selected_sentences"] = len(result.sentences)
        report.counts["selected_phrases"] = len(result.phrases)
        report.ledger = asdict(result.budget)
        report.ledger["exhausted"] = result.exhausted
        report.dropped.update({f"select:{k}": v for k, v in result.skipped.items()})

    if config.simulate_only:
        _finish(report, run_dir, outputs)
        return report

    with _Stage(report, "align"):
        table = align.train_ibm1(L, config.ibm1_iterations)

    with _Stage(report, "oracle"):
        reference = load_parallel(config.oracle_reference, "ref")
        l_s_resp = oracle.translate_sentences([s.id for s in result.sentences], reference)
        l_p_resp, phrase_drops = oracle.translate_phrases(
            [p.tokens for p in result.phrases], reference, table)
        oracle.write_responses(l_s_resp, run_dir / "sentences.tsv",
                               run_dir / "sentences.provenance.jsonl", reference)
        oracle.write_responses(l_p_resp, run_dir / "phrases.tsv",
                               run_dir / "phrases.provenance.jsonl")
        emit("sentences", run_dir / "sentences.tsv")
        emit("sentences_provenance", run_dir / "sentences.provenance.jsonl")
        emit("phrases", run_dir / "phrases.tsv")
        emit("phrases_provenance", run_dir / "phrases.provenance.jsonl")
        report.counts["translated_sentences"] = len(l_s_resp)
        report.counts["translated_phrases"] = len(l_p_resp)
        if phrase_drops:
            report.dropped["oracle:phrases"] = {" ".join(p): r for p, r in phrase_drops.items()}

    with _Stage(report, "mix"):
        m = config.mix_size if config.mix_size is not None else len(l_p_resp)
        if config.freeze_file and Path(config.freeze_file).exists():
            l_r = mix.load_freeze(config.freeze_file, L)
        elif config.mix_policy == "sample":
            l_r = mix.sample_random(L, min(m, len(L)), config.seed)
        else:
            l_r, skipped = mix.retrieve_similar(L, store_L, store_U, config.k,
                                                min(m, len(L)))
            if skipped:
                report.dropped["mix:degenerate"] = len(skipped)
        mix.write_freeze(l_r, run_dir / "retrieved.freeze.jsonl")
        emit("freeze", run_dir / "retrieved.freeze.jsonl")
        report.counts["mixed_pairs"] = len(l_r)

    synthetic = []
    if config.augment_recipe:
        with _Stage(report, "augment"):
            lm = train_lm(U, config.lm_order)
            phrase_pairs = [(r.source, r.target) for r in l_p_resp]
            synthetic, aug_report = augment.augment_corpus(
                U, phrase_pairs, store_U, L, store_L, lm, table,
                config.k, config.augment_recipe)
            augment.write_synthetic(synthetic, run_dir / "synthetic.tsv",
                                    run_dir / "synthetic.recipes.jsonl")
            emit("synthetic", run_dir / "synthetic.tsv")
            emit("synthetic_recipes", run_dir / "synthetic.recipes.jsonl")
            report.counts["synthetic_pairs"] = len(synthetic)
            report.dropped.update({f"augment:{k}": v for k, v in aug_report.items() if v})

    with _Stage(report, "assemble"):
        l_s_rows = [(reference.get(r.source)[0].tokens, r.target, r.source) for r in l_s_resp]
        manifest = mix.assemble(l_s_rows, l_p_resp, l_r, synthetic,
                                retrieved=config.mix_policy == "retrieve")
        manifest.write_jsonl(run_dir / "manifest.jsonl")
        manifest.write_tsv(run_dir / "manifest.tsv")
        emit("manifest_jsonl", run_dir / "manifest.jsonl")
        emit("manifest_tsv", run_dir / "manifest.tsv")
        report.counts["manifest_entries"] = len(manifest.entries)
        report.counts.update({f"manifest:{k}": v for k, v in manifest.counts.items()})

    _finish(report, run_dir, outputs)
    return report


def _finish(report, run_dir, outputs):
    for name, path in sorted(outputs.items()):
        report.digests[name] = _sha256(path)
    report.save(run_dir / "report.json")
