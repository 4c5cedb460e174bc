"""End-to-end driver: extract -> select -> oracle -> mix -> augment -> assemble.

Stages communicate through files inside one run directory per budget, so every
intermediate is inspectable. Fine-tuning itself is out of scope: the pipeline
emits manifests for downstream toolkits.
"""

import functools
import hashlib
import json
import os
import random
import time
import traceback
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from functools import cached_property
from pathlib import Path

from . import align, augment, mix, oracle, select
from .corpus import load_corpus, load_parallel, read_lines, write_text
from .embed import EmbeddingStore, RatioScorer, parse_dim
from .errors import ConfigError, ParseError
from .lm import train_lm
from .ngrams import extract_ngrams


# kind: the budget pool spent, "sentence" or "phrase"; needs: the config paths
# read beyond the unlabeled corpus; rank: (RunContext, budget) -> SelectionResult.
Strategy = namedtuple("Strategy", "kind needs rank")
_EMBEDDINGS = ("embeddings_unlabeled", "embeddings_labeled")

# Every selection strategy, by name. Rank calls look select.* up at call
# time, so a rebinding of the module's functions is seen.
STRATEGIES = {
    "random-sent": Strategy("sentence", (), lambda ctx, b: select.select_random_sentences(
        ctx.U, b, ctx.config.seed)),
    "csse": Strategy("sentence", ("labeled",) + _EMBEDDINGS, lambda ctx, b: select.select_csse(
        ctx.U, ctx.csse_scorer, b, ctx.config.dist_mode)),
    "rttl": Strategy("sentence", ("rttl_scores",), lambda ctx, b: select.select_rttl(
        ctx.U, select.load_rttl_scores(ctx.config.rttl_scores), b)),
    "random-phrase": Strategy("phrase", ("labeled",), lambda ctx, b: select.select_random_phrases(
        ctx.index_U, ctx.index_L, b, ctx.config.seed)),
    "ngf": Strategy("phrase", ("labeled",), lambda ctx, b: select.select_ngf(
        ctx.index_U, ctx.index_L, b)),
    "ngf-smp": Strategy("phrase", ("labeled",), lambda ctx, b: select.select_ngf_smp(
        ctx.index_U, ctx.index_L, b)),
}


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
    labeled_subset_size: int = 10000
    mix_policy: str = "retrieve"  # retrieve | sample
    mix_size: int = None  # default: |L_p|
    freeze_file: str = None
    augment_recipe: str = None  # switch | contextualize | None
    ibm1_iterations: int = 5
    lm_order: int = 3
    output_dir: str = "runs"
    simulate_only: bool = False

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def save(self, path):
        _write_json(asdict(self), path)


def _write_json(obj, path):
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _pools(config) -> list[tuple]:
    """(config key, kind) of each strategy a config runs; kind None accepts either."""
    if config.strategy == "hybrid":
        return [("sentence_strategy", "sentence"), ("phrase_strategy", "phrase")]
    return [("strategy", None)]


# key -> (whether a value is valid, what a valid value is), for the keys whose
# valid values do not depend on the rest of the config.
_VALUES = {
    "budgets": (lambda v: bool(v) and all(b >= 1 for b in v), "a non-empty list of positive ints"),
    **{key: (lambda v: v >= 1, ">= 1") for key in ("max_n", "k", "ibm1_iterations", "lm_order")},
    "dist_mode": (lambda v: v in ("literal", "nn"), "'literal' or 'nn'"),
    "mix_policy": (lambda v: v in ("retrieve", "sample"), "'retrieve' or 'sample'"),
    "augment_recipe": (lambda v: v in (None, "switch", "contextualize"),
                       "null, 'switch' or 'contextualize'"),
}


def check_values(config, keys) -> list[str]:
    """Failure messages for the listed keys whose value in ``config``, a RunConfig
    or parsed flags of the same names, is not valid."""
    return [f"{key} must be {_VALUES[key][1]}, got {getattr(config, key)!r}"
            for key in keys if not _VALUES[key][0](getattr(config, key))]


def validate_config(config: RunConfig) -> list[str]:
    """Returns a list of failure messages; empty means valid."""
    failures = check_values(config, _VALUES)
    needs = {"unlabeled", "labeled"}
    for key, kind in _pools(config):
        strategy = STRATEGIES.get(getattr(config, key))
        if strategy is None or kind not in (None, strategy.kind):
            failures.append(f"unknown {key} {getattr(config, key)!r}")
        else:
            needs.update(strategy.needs)
    if not config.simulate_only:
        needs.add("oracle_reference")
        if config.mix_policy == "retrieve" or config.augment_recipe:
            needs.update(_EMBEDDINGS)
    for key in sorted(needs):
        path = getattr(config, key)
        if not path or not Path(path).exists():
            failures.append(f"{key} path missing or unreadable: {path}")
    paths = [getattr(config, key) for key in _EMBEDDINGS]
    if all(path and Path(path).exists() for path in paths):
        try:
            dim_u, dim_l = map(_peek_dim, paths)
            if dim_u != dim_l:
                failures.append(f"embedding dimension mismatch: {dim_u} vs {dim_l}")
        except (OSError, ParseError) as exc:
            failures.append(f"embedding header unreadable: {exc}")
    return failures


def _peek_dim(path):
    return parse_dim(path, next(read_lines(path), ""))


@dataclass
class RunReport:
    config: dict
    budget: int
    stages: dict = field(default_factory=dict)  # stage -> seconds
    counts: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)
    dropped: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    running = None  # the stage in progress, named in ``failed`` if it raises; not saved

    def save(self, path):
        _write_json(asdict(self), path)


@contextmanager
def _stage(report, name):
    report.running, t0 = name, time.perf_counter()
    yield
    report.stages[name] = round(time.perf_counter() - t0, 6)
    report.running = None


def run_pipeline(config: RunConfig, budget: int = None) -> list[RunReport]:
    """Run every configured budget (or just the override) in its own directory,
    sharing one RunContext, so budget-independent work runs once."""
    failures = validate_config(config)
    if failures:
        raise ConfigError("; ".join(failures))
    budgets = [budget] if budget is not None else list(config.budgets)
    context = RunContext(config, max(budgets))
    reports = []
    for b in budgets:
        run_dir = Path(config.output_dir) / f"budget-{b}"
        run_dir.mkdir(parents=True, exist_ok=True)
        report = RunReport(asdict(config), b)
        lock = _lock(run_dir)
        try:
            reports.append(_run_budget(context, report, run_dir))
        except BaseException:  # Ctrl-C too: the budget's files need not match its report.json
            write_text(run_dir / "failed", f"stage: {report.running}\n{traceback.format_exc()}")
            raise
        else:
            (run_dir / "failed").unlink(missing_ok=True)  # left by an earlier run that failed
        finally:
            lock.unlink(missing_ok=True)
    return reports


def _lock(run_dir):
    """Create ``run_dir/lock`` holding this process's pid, or refuse if it exists.
    Holding it, delete the temporary files of writers killed midway."""
    lock = run_dir / "lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        owner = lock.read_text().strip()
        stale = "" if _alive(owner) else f", which is not running; remove {lock} to run again"
        raise ConfigError(f"run directory {run_dir} is locked by process {owner!r}{stale}") from None
    with os.fdopen(fd, "w") as fh:
        fh.write(str(os.getpid()))
    for tmp in run_dir.glob(".*.tmp"):  # the lock was free, so their writers are dead
        tmp.unlink(missing_ok=True)
    return lock


def _alive(owner):
    """Whether a lock's content is the pid of a live process."""
    if not owner.isdigit() or int(owner) == 0:
        return False
    try:
        os.kill(int(owner), 0)  # signal 0 sends nothing: it only checks the pid
    except OSError as exc:
        return isinstance(exc, PermissionError)  # alive, but another user's
    return True


class RunContext:
    """The budget-independent inputs of one run, each built once, on first use.
    ``selection`` ranks once, at the run's largest budget; every budget cuts it,
    and ``translations`` holds the oracle's answer for each of its phrases.
    ``almt select``, ``oracle`` and ``mix`` build one from their flags, so a
    stage run alone takes the pipeline's code path."""

    def __init__(self, config: RunConfig, top_budget: int = None):
        self.config, self.top_budget = config, top_budget

    strategies = cached_property(lambda self: [STRATEGIES[getattr(self.config, key)]
                                               for key, _ in _pools(self.config)])
    U = cached_property(lambda self: load_corpus(self.config.unlabeled, "U"))
    L = cached_property(lambda self: load_parallel(self.config.labeled, "L"))
    store_U = cached_property(lambda self: _store(self.config.embeddings_unlabeled, "U"))
    store_L = cached_property(lambda self: _store(self.config.embeddings_labeled, "L"))
    index_U = cached_property(lambda self: extract_ngrams(self.U, self.config.max_n))
    index_L = cached_property(lambda self: extract_ngrams(self.L.source_corpus(), self.config.max_n))
    table = cached_property(lambda self: align.train_ibm1(self.L, self.config.ibm1_iterations))
    reference = cached_property(lambda self: load_parallel(self.config.oracle_reference, "ref"))
    lm = cached_property(lambda self: train_lm(self.U, self.config.lm_order))
    # The U × L ratio scorer: augment retrieves from L with it, mix ranks L by
    # its transpose, and CSSE reads it when L′ = L.
    scorer = cached_property(lambda self: RatioScorer(self.store_U, self.store_L, self.config.k))

    @cached_property
    def csse_scorer(self):
        """CSSE's U × L′ scorer, L′ a seeded sample of L ids: ``scorer`` when L′ is
        all of ``store_L`` in its order, else one of its own."""
        l_ids = self.L.ids()
        if len(l_ids) > self.config.labeled_subset_size:
            l_ids = sorted(random.Random(self.config.seed).sample(l_ids, self.config.labeled_subset_size))
        l_ids = [i for i in l_ids if i in self.store_L]
        if l_ids == self.store_L.ids:
            return self.scorer
        return RatioScorer(self.store_U, self.store_L.subset(l_ids, "L-sub"), self.config.k)

    @cached_property
    def selection(self):
        ranks = [functools.partial(strategy.rank, self) for strategy in self.strategies]
        if len(ranks) == 2:
            return select.select_hybrid(self.top_budget, *ranks)
        return ranks[0](self.top_budget)

    @cached_property
    def translations(self):
        """(responses, drops) by phrase for every phrase of ``selection``. A phrase's
        translation does not depend on the others selected, so one call serves every cut."""
        responses, drops = oracle.translate_phrases(
            [p.tokens for p in self.selection.phrases], self.reference, self.table)
        return {r.source: r for r in responses}, drops


def _store(path, tag):
    return EmbeddingStore.load(path, tag) if path else None


def _run_budget(context: RunContext, report: RunReport, run_dir: Path) -> RunReport:
    config = context.config
    outputs = {}

    def out(name, filename):
        """Path of an artifact of this budget, whose digest the report carries."""
        outputs[name] = run_dir / filename
        return outputs[name]

    # A context property is built the first time a stage touches it, so build
    # time lands in the first budget's report under that stage.
    with _stage(report, "load"):
        context.U, context.L, context.store_U, context.store_L

    with _stage(report, "extract"):
        if any(strategy.kind == "phrase" for strategy in context.strategies):
            context.index_L
            context.index_U.export_tsv(out("index_U", "index_U.tsv"))

    with _stage(report, "select"):
        result = context.selection.cut(report.budget)
        result.write_jsonl(out("selection", "selection.jsonl"))
        report.counts["selected_sentences"] = len(result.sentences)
        report.counts["selected_phrases"] = len(result.phrases)
        report.ledger = asdict(result.budget)
        report.ledger["exhausted"] = result.exhausted
        report.dropped.update({f"select:{k}": v for k, v in result.skipped.items()})

    if config.simulate_only:
        _finish(report, run_dir, outputs)
        return report

    with _stage(report, "align"):
        table = context.table

    with _stage(report, "oracle"):
        l_s_resp, l_p_resp, phrase_drops = respond(context, result, out)
        report.counts["translated_sentences"] = len(l_s_resp)
        report.counts["translated_phrases"] = len(l_p_resp)
        if phrase_drops:
            report.dropped["oracle:phrases"] = {" ".join(p): r for p, r in phrase_drops.items()}

    with _stage(report, "mix"):
        m = config.mix_size if config.mix_size is not None else len(l_p_resp)
        l_r, skipped = mix_pairs(context, min(m, len(context.L)))
        if skipped:
            report.dropped["mix:degenerate"] = len(skipped)
        mix.write_freeze(l_r, out("freeze", "retrieved.freeze.jsonl"))
        report.counts["mixed_pairs"] = len(l_r)

    synthetic = []
    if config.augment_recipe:
        with _stage(report, "augment"):
            phrase_pairs = [(r.source, r.target) for r in l_p_resp]
            synthetic, aug_report = augment.augment_corpus(
                context.U, phrase_pairs, context.scorer, context.L, context.lm, table,
                config.augment_recipe)
            augment.write_synthetic(synthetic, out("synthetic", "synthetic.tsv"),
                                    out("synthetic_recipes", "synthetic.recipes.jsonl"))
            report.counts["synthetic_pairs"] = len(synthetic)
            report.dropped.update({f"augment:{k}": v for k, v in aug_report.items() if v})

    with _stage(report, "assemble"):
        l_s_rows = [(context.reference.get(r.source)[0].tokens, r.target, r.source)
                    for r in l_s_resp]
        manifest = mix.assemble(l_s_rows, l_p_resp, l_r, synthetic,
                                retrieved=config.mix_policy == "retrieve")
        manifest.write_jsonl(out("manifest_jsonl", "manifest.jsonl"))
        manifest.write_tsv(out("manifest_tsv", "manifest.tsv"))
        report.counts["manifest_entries"] = len(manifest.entries)
        report.counts.update({f"manifest:{k}": v for k, v in manifest.counts.items()})

    _finish(report, run_dir, outputs)
    return report


def respond(context: RunContext, cut, out):
    """The oracle stage: translate the sentences and phrases of ``cut``, a cut of
    ``context.selection``, and write them to the files ``out(name, filename)``
    names. Returns (sentence responses, phrase responses, drops by phrase)."""
    l_s = oracle.translate_sentences([s.id for s in cut.sentences], context.reference)
    responses, drops = context.translations
    l_p = [responses[p.tokens] for p in cut.phrases if p.tokens in responses]
    oracle.write_responses(l_s, out("sentences", "sentences.tsv"),
                           out("sentences_provenance", "sentences.provenance.jsonl"),
                           context.reference)
    oracle.write_responses(l_p, out("phrases", "phrases.tsv"),
                           out("phrases_provenance", "phrases.provenance.jsonl"))
    return l_s, l_p, {p.tokens: drops[p.tokens] for p in cut.phrases if p.tokens in drops}


def mix_pairs(context: RunContext, m: int):
    """The mix stage: the freeze file's out-of-domain pairs if it exists, else m
    sampled or retrieved ones. Returns (rows, ids that retrieval skipped)."""
    config, L = context.config, context.L
    if config.freeze_file and Path(config.freeze_file).exists():
        return mix.load_freeze(config.freeze_file, L), []
    if config.mix_policy == "sample":
        return mix.sample_random(L, m, config.seed), []
    return mix.retrieve_similar(L, context.scorer.T, m)


def _finish(report, run_dir, outputs):
    for name, path in sorted(outputs.items()):
        report.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()  # written whole, read whole
    report.save(run_dir / "report.json")
