"""End-to-end run: load -> extract -> select -> oracle -> mix -> augment -> assemble.
IBM-1 is trained on first use, by the oracle's phrase translation or by augment.

Stages hand their data over in memory, through one RunContext that every budget
of a run shares. The files written to each budget's run directory are outputs,
which no stage reads back: every intermediate is there to inspect. Fine-tuning
itself is out of scope: the pipeline emits manifests for downstream toolkits.
"""

import hashlib
import json
import os
import random
import time
import traceback
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

from . import align, augment, mix, oracle, select
from .corpus import load_corpus, load_parallel, write_text
from .embed import EmbeddingStore, RatioScorer
from .errors import AlmtError, ConfigError, describe
from .lm import train_lm
from .ngrams import extract_ngrams


# kind: the budget pool spent, "sentence" or "phrase"; needs: the config paths
# read beyond the unlabeled corpus; rank: RunContext -> select.Ranking.
Strategy = namedtuple("Strategy", "kind needs rank")
_EMBEDDINGS = ("embeddings_unlabeled", "embeddings_labeled")

# Every selection strategy, by name. Rank calls look select.* up at call
# time, so a rebinding of the module's functions is seen.
STRATEGIES = {
    "random-sent": Strategy("sentence", (), lambda ctx: select.select_random_sentences(
        ctx.U, ctx.config.seed)),
    "csse": Strategy("sentence", ("labeled",) + _EMBEDDINGS, lambda ctx: select.select_csse(
        ctx.U, ctx.csse_scorer, ctx.config.dist_mode)),
    "rttl": Strategy("sentence", ("rttl_scores",), lambda ctx: select.select_rttl(
        ctx.U, ctx.rttl_scores)),
    "random-phrase": Strategy("phrase", ("labeled",), lambda ctx: select.select_random_phrases(
        ctx.index_U, ctx.index_L, ctx.config.seed)),
    "ngf": Strategy("phrase", ("labeled",), lambda ctx: select.select_ngf(ctx.index_U, ctx.index_L)),
    "ngf-smp": Strategy("phrase", ("labeled",), lambda ctx: select.select_ngf_smp(
        ctx.index_U, ctx.index_L)),
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
    freeze_file: str = None
    augment_recipe: str = None  # switch | contextualize | None
    output_dir: str = "runs"
    simulate_only: bool = False

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigError(f"{path}: not a JSON config ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ConfigError(f"{path}: missing required config keys: {missing}")
        return cls(**raw)


def _pools(config) -> list[tuple]:
    """(config key, kind) of each strategy a config runs; kind None accepts either."""
    if config.strategy == "hybrid":
        return [("sentence_strategy", "sentence"), ("phrase_strategy", "phrase")]
    return [("strategy", None)]


def _positive_int(v):
    """Whether ``v`` is an int >= 1; a bool is not an int here."""
    return type(v) is int and v >= 1


# config path key -> the RunContext member that reads its file; ``test`` is not read yet
READERS = {"unlabeled": "U", "labeled": "L", "oracle_reference": "reference",
           "embeddings_unlabeled": "stores", "embeddings_labeled": "stores",
           "rttl_scores": "rttl_scores", "freeze_file": "frozen"}

# key -> (whether a value is valid, what a valid value is), for the keys whose
# valid values do not depend on the rest of the config.
_VALUES = {
    "budgets": (lambda v: type(v) is list and bool(v) and all(map(_positive_int, v)),
                "a non-empty list of positive ints"),
    **{key: (_positive_int, "an int >= 1")
       for key in ("max_n", "k", "labeled_subset_size")},
    "seed": (lambda v: type(v) is int, "an int"),
    **{key: (lambda v: v is None or type(v) is str, "a path string or null")
       for key in (*READERS, "test")},
    "output_dir": (lambda v: type(v) is str, "a path string"),
    "simulate_only": (lambda v: type(v) is bool, "true or false"),
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


def _strategy(config, key, kind):
    """The strategy that config ``key`` names, or None if it names none of ``kind``."""
    name = getattr(config, key)
    strategy = STRATEGIES.get(name) if type(name) is str else None
    return strategy if strategy and kind in (None, strategy.kind) else None


def _misnamed(config, key, kind) -> str:
    """The failure message of config ``key``, which names no strategy of ``kind``."""
    name = getattr(config, key)
    other = _strategy(config, key, None)
    if other is None:
        return f"unknown {key} {name!r}"
    valid = ", ".join(n for n, strategy in STRATEGIES.items() if strategy.kind == kind)
    return f"{key} {name!r} is a {other.kind} strategy; {kind} strategies: {valid}"


def inputs(config) -> list[str]:
    """The config path keys whose files a run of ``config`` reads, in load order."""
    keys = {"unlabeled", "labeled"}
    for key, kind in _pools(config):
        keys.update(getattr(_strategy(config, key, kind), "needs", ()))
    if not config.simulate_only:
        keys.add("oracle_reference")
        if config.freeze_file is not None:
            keys.add("freeze_file")  # its pairs replace the mix stage's own
        if config.augment_recipe or config.freeze_file is None and config.mix_policy == "retrieve":
            keys.update(_EMBEDDINGS)
    return [key for key in READERS if key in keys]


def _unreadable(config) -> list[str]:
    """The keys of ``inputs`` whose path is not a regular file."""
    return [key for key in inputs(config)
            if not (type(getattr(config, key)) is str and Path(getattr(config, key)).is_file())]


def validate_config(config: RunConfig) -> list[str]:
    """Returns a list of failure messages; empty means valid. Checks that the path
    of each key of ``inputs`` is a regular file, and reads no file: ``RunContext.load``
    reads them."""
    failures = check_values(config, _VALUES)
    failures += [_misnamed(config, key, kind) for key, kind in _pools(config)
                 if _strategy(config, key, kind) is None]
    for key in _unreadable(config):
        path = getattr(config, key)
        if path is None or type(path) is str:  # any other value failed above as not a path
            failures.append(f"{key} path missing or unreadable: {path}")
    return failures


# Every artifact a budget can write: its name, the report's digest key, -> its
# file in the budget's run directory.
ARTIFACTS = {"selection": "selection.jsonl", "sentences": "sentences.tsv",
             "sentences_provenance": "sentences.provenance.jsonl", "phrases": "phrases.tsv",
             "phrases_provenance": "phrases.provenance.jsonl", "freeze": "retrieved.freeze.jsonl",
             "synthetic": "synthetic.tsv", "synthetic_recipes": "synthetic.recipes.jsonl",
             "manifest_jsonl": "manifest.jsonl", "manifest_tsv": "manifest.tsv"}


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


@contextmanager
def _stage(report, name):
    report.running, t0 = name, time.perf_counter()
    yield
    report.stages[name] = round(time.perf_counter() - t0, 6)
    report.running = None


def run_pipeline(config: RunConfig, budget: int = None) -> list[RunReport]:
    """Run each budget of ``config`` in its own directory, sharing one RunContext, so
    budget-independent work runs once. ``budget`` replaces the config's list in a
    copy, which is validated, runs and is each report's config. A budget that completes
    writes its report.json and removes what an earlier run left in its directory and
    this one did not write: a ``failed`` marker, and every artifact its report lacks."""
    if budget is not None:
        config = replace(config, budgets=[budget])
    failures = validate_config(config)
    if failures:
        raise ConfigError("; ".join(failures))
    context = RunContext(config)
    reports = []
    for b in config.budgets:
        run_dir = Path(config.output_dir) / f"budget-{b}"
        run_dir.mkdir(parents=True, exist_ok=True)
        report = RunReport(asdict(config), b)
        lock = _lock(run_dir)
        try:
            reports.append(_run_budget(context, report, run_dir))
            write_text(run_dir / "report.json", json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
        except BaseException:  # Ctrl-C too: the budget's files need not match its report.json
            write_text(run_dir / "failed", f"stage: {report.running}\n{traceback.format_exc()}")
            raise
        else:
            for name in ["failed", *(f for a, f in ARTIFACTS.items() if a not in report.digests)]:
                (run_dir / name).unlink(missing_ok=True)
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
    ``load`` reads every input file of the run, each through its ``READERS``
    member. ``rankings`` ranks once per strategy, with no budget, and every
    budget is one ``select.cut`` of them; ``selection``, the cut at the largest
    of the config's budgets, holds every phrase of any cut, and ``translations`` the
    oracle's answer for each. ``pool`` orders L's pair ids once for the mix
    stage; every budget takes a prefix. ``lines`` encodes each artifact record
    once, manifest entries included (``mix.assemble`` reads it). ``almt
    select``, ``oracle`` and ``mix`` build one from their flags, so a stage run
    alone takes the pipeline's code path; ``almt oracle`` assigns ``selection``,
    and ``almt mix`` reads none."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._lines = {}  # section -> the lines of its records that a budget has written

    def lines(self, section, records, encode):
        """The lines ``encode`` gives for ``records``, a budget's prefix of the
        run-wide list of records that ``section`` names. A record is encoded by
        the first budget that writes it; later budgets reuse its line."""
        lines = self._lines.setdefault(section, [])
        lines += map(encode, records[len(lines):])
        return lines[:len(records)]

    def load(self, failures: list = None):
        """Read the file of each key of ``inputs``. A failure raises, or, given
        ``failures``, is appended to it and the rest are read, but for those of the
        keys whose path ``validate_config`` rejects; returns ``failures``."""
        rejected = [] if failures is None else _unreadable(self.config)
        skip = {READERS[key] for key in rejected}
        for name in dict.fromkeys(READERS[key] for key in inputs(self.config)):
            if name in skip:
                continue
            try:
                getattr(self, name)
            except (AlmtError, OSError) as exc:
                if failures is None:
                    raise
                if not (isinstance(exc, OSError)  # a member reads U or L, whose path may be rejected
                        and exc.filename in [getattr(self.config, key) for key in rejected]):
                    failures.append(describe(exc))
        return failures

    strategies = cached_property(lambda self: [_strategy(self.config, *p) for p in _pools(self.config)])
    U = cached_property(lambda self: load_corpus(self.config.unlabeled, "U"))
    L = cached_property(lambda self: load_parallel(self.config.labeled, "L"))
    index_U = cached_property(lambda self: extract_ngrams(self.U, self.config.max_n))
    index_L = cached_property(lambda self: extract_ngrams(
        {sid: src for sid, (src, _) in self.L.items()}, self.config.max_n))
    alignments = cached_property(lambda self: align.Alignments(self.L, self.table))
    frozen = cached_property(lambda self: mix.load_freeze(self.config.freeze_file, self.L))
    lm = cached_property(lambda self: train_lm(self.U))
    # The U × L ratio scorer: augment retrieves from L with it, mix ranks L by
    # its transpose, and CSSE reads it when L′ = L.
    scorer = cached_property(lambda self: RatioScorer(*self.stores, self.config.k))

    def _corpus(self, key):
        """The corpus that config ``key``, "unlabeled" or "labeled", names, or None
        if the run reads none: ``almt oracle`` and ``mix`` read no U, and no other
        non-string path passes validation."""
        return getattr(self, READERS[key]) if type(getattr(self.config, key)) is str else None

    def _cover(self, path, what, ids, key):
        """The coverage rule of an id-keyed input: the file at ``path`` gives ``what``
        for ``ids``, which hold every id of the corpus config ``key`` names and no
        other, if the run reads that corpus."""
        corpus = self._corpus(key)
        if corpus is None:
            return
        missing = [i for i in corpus if i not in ids]
        if missing:
            raise ConfigError(f"{path}: {what} missing for ids of {corpus.name}, "
                              f"first {missing[:5]} of {len(missing)}")
        extra = [i for i in ids if i not in corpus]
        if extra:
            raise ConfigError(f"{path}: {what} for {len(extra)} ids not in {corpus.name}, "
                              f"first {extra[:5]}")

    @cached_property
    def stores(self):
        """(U store, L store), each None when the config names no file: the one
        reader of the embedding files, and the one check that their dimensions agree
        and that each store covers its corpus (``_cover``), U or L."""
        paths = [getattr(self.config, key) for key in _EMBEDDINGS]
        store_U, store_L = (EmbeddingStore.load(p, tag) if p else None for p, tag in zip(paths, "UL"))
        if store_U is not None and store_L is not None and store_U.dim != store_L.dim:
            raise ConfigError(f"embedding dimension mismatch: {store_U.dim} vs {store_L.dim}")
        for key, path, store in zip(("unlabeled", "labeled"), paths, (store_U, store_L)):
            if store is not None:
                self._cover(path, "vectors", store.row, key)
        return store_U, store_L

    @cached_property
    def rttl_scores(self):
        """U id -> RTTL score, for every U id and no other (``_cover``)."""
        scores = select.load_rttl_scores(self.config.rttl_scores)
        self._cover(self.config.rttl_scores, "RTTL scores", scores, "unlabeled")
        return scores

    @cached_property
    def reference(self):
        """The oracle's reference pairs. If the run reads U, a pair whose id is a U
        id has that U sentence as its source; ids of only one file are allowed."""
        path, U = self.config.oracle_reference, self._corpus("unlabeled")
        reference = load_parallel(path, "ref")
        wrong = [i for i, (src, _) in reference.items() if U is not None and i in U and src != U[i]]
        if wrong:
            raise ConfigError(f"{path}: the source of pair {wrong[0]} is not U sentence "
                              f"{wrong[0]} ({len(wrong)} such pairs)")
        return reference

    @cached_property
    def table(self):
        """IBM-1 trained on L, for the oracle's phrases and augment; an empty L fails."""
        if not self.L:
            raise AlmtError(f"{self.config.labeled}: no labeled pairs to train IBM-1 on")
        return align.train_ibm1(self.L)

    @cached_property
    def csse_scorer(self):
        """CSSE's U × L′ scorer, L′ a seeded sample of L ids: ``scorer`` when L′ is
        all of the L store in its order, else one of its own."""
        store_U, store_L = self.stores
        l_ids = list(self.L)
        if len(l_ids) > self.config.labeled_subset_size:
            l_ids = sorted(random.Random(self.config.seed).sample(l_ids, self.config.labeled_subset_size))
        if l_ids == store_L.ids:
            return self.scorer
        return RatioScorer(store_U, store_L.subset(l_ids, "L-sub"), self.config.k)

    @cached_property
    def pool(self):
        """(L's pair ids in the order the mix stage takes them, the count of pairs
        that retrieval skipped as degenerate): ordered once, and each budget takes a prefix."""
        if self.config.mix_policy == "sample":
            return select.shuffled(self.L, self.config.seed), 0
        return mix.retrieve_similar(self.scorer.T)

    rankings = cached_property(lambda self: [strategy.rank(self) for strategy in self.strategies])
    selection = cached_property(lambda self: select.cut(self.rankings, max(self.config.budgets)))

    @cached_property
    def translations(self):
        """(responses, drops) by phrase for every phrase of ``selection``. A phrase's
        translation does not depend on the others selected, so one call serves every cut."""
        phrases = [p.tokens for p in self.selection.phrases]
        if not phrases:
            return {}, {}
        responses, drops = oracle.translate_phrases(phrases, align.Alignments(self.reference, self.table))
        return {r.source: r for r in responses}, drops


def _run_budget(context: RunContext, report: RunReport, run_dir: Path) -> RunReport:
    config = context.config

    def save(name, text):
        """Write artifact ``name`` of this budget; the report carries the sha256 of
        the bytes written, so no artifact is read back to hash it."""
        data = text.encode("utf-8")
        write_text(run_dir / ARTIFACTS[name], data)
        report.digests[name] = hashlib.sha256(data).hexdigest()

    def save_columns(names, records):
        """Save to each artifact of ``names`` its column of ``records``, tuples of
        one line per artifact."""
        for i, name in enumerate(names):
            save(name, "".join(record[i] for record in records))

    # A context property is built the first time a stage touches it, so build
    # time lands in the first budget's report under that stage.
    with _stage(report, "load"):
        context.load()

    with _stage(report, "extract"):
        if any(strategy.kind == "phrase" for strategy in context.strategies):
            context.index_U, context.index_L

    with _stage(report, "select"):
        result = select.cut(context.rankings, report.budget)
        save("selection", select.rank_lines(
            context.lines("selected sentences", result.sentences, select.encode_pick)
            + context.lines("selected phrases", result.phrases, select.encode_pick)))
        report.counts["selected_sentences"] = len(result.sentences)
        report.counts["selected_phrases"] = len(result.phrases)
        report.ledger = asdict(result.budget)
        report.ledger["exhausted"] = result.exhausted
        report.dropped.update({f"select:{k}": v for k, v in result.skipped.items()})

    if config.simulate_only:
        return report

    with _stage(report, "oracle"):
        l_s_resp, l_p_resp, phrase_drops = respond(context, result, save_columns)
        report.counts["translated_sentences"] = len(l_s_resp)
        report.counts["translated_phrases"] = len(l_p_resp)
        if phrase_drops:
            report.dropped["oracle:phrases"] = {" ".join(p): r for p, r in phrase_drops.items()}

    with _stage(report, "mix"):
        l_r, skipped = mix_pairs(context, len(l_p_resp))
        if skipped:
            report.dropped["mix:degenerate"] = skipped
        save("freeze", "".join(context.lines("mix ids", l_r, mix.encode_id)))
        report.counts["mixed_pairs"] = len(l_r)

    synthetic = []
    if config.augment_recipe:
        with _stage(report, "augment"):
            phrase_pairs = [(r.source, r.target) for r in l_p_resp]
            if phrase_pairs:
                synthetic, aug_report = augment.augment_corpus(
                    context.U, phrase_pairs, context.scorer, context.alignments, context.lm,
                    config.augment_recipe)
            else:  # no U sentence holds an annotated phrase: train no LM and no IBM-1
                aug_report = {"no-annotated-phrase": len(context.U)}
            save_columns(["synthetic", "synthetic_recipes"],
                         [augment.encode_synthetic(pair) for pair in synthetic])
            report.counts["synthetic_pairs"] = len(synthetic)
            report.dropped.update({f"augment:{k}": v for k, v in aug_report.items() if v})

    with _stage(report, "assemble"):
        l_s_rows = [(context.reference[r.source][0], r.target, r.source) for r in l_s_resp]
        entries, counts = mix.assemble(context.L, l_s_rows, l_p_resp, l_r, synthetic,
                                       config.mix_policy == "retrieve", context.lines)
        save_columns(["manifest_jsonl", "manifest_tsv"], entries)
        report.counts["manifest_entries"] = len(entries)
        report.counts.update({f"manifest:{k}": v for k, v in counts.items()})
    return report


def respond(context: RunContext, cut, save_columns):
    """The oracle stage: translate the sentences and phrases of ``cut``, a cut of
    ``context.selection`` (a phrase outside it raises KeyError), and write them
    with ``save_columns(names, records)``, each name a key of ``ARTIFACTS`` and
    each record a tuple of one line per artifact. Returns (sentence responses,
    phrase responses, drops by phrase)."""
    l_s = oracle.translate_sentences([s.id for s in cut.sentences], context.reference)
    responses, drops = context.translations
    l_p = [responses[p.tokens] for p in cut.phrases if p.tokens not in drops]
    save_columns(["sentences", "sentences_provenance"],
                 context.lines("sentence responses", l_s,
                               lambda r: oracle.encode_response(r, context.reference)))
    save_columns(["phrases", "phrases_provenance"],
                 context.lines("phrase responses", l_p, oracle.encode_response))
    return l_s, l_p, {p.tokens: drops[p.tokens] for p in cut.phrases if p.tokens in drops}


def mix_pairs(context: RunContext, m: int):
    """The mix stage: the freeze file's out-of-domain pair ids, all of them, if the
    config names one, else the first m of ``context.pool``, fewer if fewer are
    usable. Returns (pair ids, the count of pairs that retrieval skipped as degenerate)."""
    if context.config.freeze_file is not None:
        return context.frozen, 0
    ids, skipped = context.pool
    return ids[:m], skipped

