import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from almt import toy
from almt.augment import switch
from almt.cli import main
from almt.pipeline import STRATEGIES, RunConfig, run_pipeline, validate_config


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    toy.generate(out, seed=7, n_unlabeled=120, n_labeled=200, n_test=20)
    return out


def toy_config(toy_dir, **overrides):
    config = RunConfig.load(toy_dir / "config.json")
    for key, val in overrides.items():
        setattr(config, key, val)
    return config


# --- validation ---

def test_validate_toy_config_clean(toy_dir):
    assert validate_config(toy_config(toy_dir)) == []


def test_validate_bad_budgets(toy_dir):
    assert validate_config(toy_config(toy_dir, budgets=[]))
    assert validate_config(toy_config(toy_dir, budgets=[0]))


@pytest.mark.parametrize("key, value", [("max_n", 0), ("k", 0), ("dist_mode", "Literal"),
                                        ("mix_policy", "all"), ("augment_recipe", "swap")])
def test_validate_out_of_range_value(toy_dir, key, value):
    [failure] = validate_config(toy_config(toy_dir, **{key: value}))
    assert failure.startswith(f"{key} must be ") and failure.endswith(f"got {value!r}")


def test_validate_missing_rttl_file(toy_dir):
    config = toy_config(toy_dir, sentence_strategy="rttl",
                        rttl_scores=str(toy_dir / "nope.tsv"))
    assert any("rttl" in f for f in validate_config(config))


def test_validate_missing_corpus(toy_dir):
    config = toy_config(toy_dir, unlabeled=str(toy_dir / "missing.txt"))
    assert any("unlabeled" in f for f in validate_config(config))


def test_validate_unknown_strategy(toy_dir):
    assert any("strategy" in f for f in validate_config(toy_config(toy_dir, strategy="bogus")))


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"unlabeled": "u", "labeled": "l", "strategy": "csse", "budgets": [5], "bogus_key": 1}')
    from almt.errors import ConfigError
    with pytest.raises(ConfigError, match="bogus_key"):
        RunConfig.load(path)


def test_config_roundtrip(toy_dir, tmp_path):
    config = toy_config(toy_dir)
    (tmp_path / "c.json").write_text(json.dumps(asdict(config)))
    assert RunConfig.load(tmp_path / "c.json") == config


# --- pipeline runs ---

def test_pipeline_simulate_only(toy_dir, tmp_path):
    config = toy_config(toy_dir, simulate_only=True, output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(config, budget=60)
    assert len(reports) == 1
    report = reports[0]
    assert report.ledger["total"] == 60
    assert report.ledger["sentence_share"] == 30 and report.ledger["phrase_share"] == 30
    run_dir = tmp_path / "runs" / "budget-60"
    assert (run_dir / "selection.jsonl").exists()
    assert (run_dir / "report.json").exists()
    assert not (run_dir / "manifest.jsonl").exists()


def test_pipeline_full_run_artifacts(toy_dir, tmp_path):
    config = toy_config(toy_dir, output_dir=str(tmp_path / "runs"))
    report = run_pipeline(config, budget=100)[0]
    run_dir = tmp_path / "runs" / "budget-100"
    for name in ("selection.jsonl", "sentences.tsv", "phrases.tsv",
                 "retrieved.freeze.jsonl", "synthetic.tsv", "manifest.jsonl",
                 "manifest.tsv", "report.json"):
        assert (run_dir / name).exists(), name
    assert report.counts["manifest_entries"] > 0
    saved = json.loads((run_dir / "report.json").read_text())
    assert saved["digests"] == report.digests
    # the override is the budget list of the config that ran, which the report holds
    assert saved["budget"] == 100 and saved["config"]["budgets"] == [100]
    # budget is respected up to one overshooting item on each side
    assert report.ledger["spent_sentences"] < report.ledger["sentence_share"] + 50
    assert not (run_dir / "failed").exists()
    assert not (run_dir / "lock").exists()


# report.json digest name -> the artifact it hashes
ARTIFACTS = {
    "selection": "selection.jsonl", "sentences": "sentences.tsv",
    "sentences_provenance": "sentences.provenance.jsonl", "phrases": "phrases.tsv",
    "phrases_provenance": "phrases.provenance.jsonl", "freeze": "retrieved.freeze.jsonl",
    "synthetic": "synthetic.tsv", "synthetic_recipes": "synthetic.recipes.jsonl",
    "manifest_jsonl": "manifest.jsonl", "manifest_tsv": "manifest.tsv",
}


@pytest.mark.parametrize("recipe", ["switch", "contextualize", None])
def test_every_report_digest_is_the_sha256_of_its_artifact_on_disk(toy_dir, tmp_path, recipe):
    """The stages record digests of the bytes they write; each budget's report
    names every artifact in its directory, and each digest matches the file."""
    reports = run_pipeline(toy_config(toy_dir, budgets=[80, 160], augment_recipe=recipe,
                                      output_dir=str(tmp_path / "runs")))
    for report in reports:
        run_dir = tmp_path / "runs" / f"budget-{report.budget}"
        expected = {name: filename for name, filename in ARTIFACTS.items()
                    if recipe or not name.startswith("synthetic")}
        assert set(report.digests) == set(expected)
        assert sorted(p.name for p in run_dir.iterdir()) == sorted([*expected.values(), "report.json"])
        for name, filename in expected.items():
            assert report.digests[name] == hashlib.sha256((run_dir / filename).read_bytes()).hexdigest()
        assert json.loads((run_dir / "report.json").read_text())["digests"] == report.digests


def test_pipeline_deterministic_digests(toy_dir, tmp_path):
    r1 = run_pipeline(toy_config(toy_dir, output_dir=str(tmp_path / "a")), budget=80)[0]
    r2 = run_pipeline(toy_config(toy_dir, output_dir=str(tmp_path / "b")), budget=80)[0]
    assert r1.digests == r2.digests


PHRASE_PATH_DIGESTS = {
    1: {
        "selection": "f0772e755ba92a72f344760368bab10c2a193e3e55d23c9586c76b04b61ffa34",
        "phrases": "8cf5479a877cf57400fb83a27b245c9c305493a835b1134690e93eb4d54161ca",
        "manifest_jsonl": "777417ea7f2fa96b7b594521204ab1b15a62ae16c211639ccd4387fdd1ba8c8e",
    },
    2: {
        "selection": "b8d116791753341fa08f851d11ae0aa5d0c9f0ff763ecd2b30bf98f886cb1c11",
        "phrases": "bf6490440e047d9f482df4c25cc13706ea93b363dedc08228f0960a7e97c6ac9",
        "manifest_jsonl": "8629baa39baeb5094651b119b9085d01394fddfaaedc97a7e648117254500131",
    },
    7: {
        "selection": "ac30da86b2d0a662f7edb914bb6d5570a51688d4962a87c0175117275f0ab759",
        "phrases": "9257efab9ac29bfdb1bfe8d0dbb3950b7c6e04d2d7673369ca3cf02ae204652d",
        "manifest_jsonl": "8dd6d8efc221b908becb6bfafa57f86243d157726c562fbbfc52e9cd15530f1b",
    },
}


@pytest.mark.parametrize("seed", sorted(PHRASE_PATH_DIGESTS))
def test_phrase_path_digests_are_pinned(seed, tmp_path):
    """The stock toy's phrase path (ngf-smp selection, sampled mix, no
    augmentation) at budget 200 writes these exact bytes. It runs the n-gram
    index, the semi-maximal set, IBM-1 and the alignment, but no BLAS product,
    so the digests do not depend on the machine.

    ROADMAP item 1 (an oracle table trained on the reference) will move
    ``phrases`` and ``manifest_jsonl`` on purpose; the change that does so
    updates these pins and says so.
    """
    config = dict(toy.generate(tmp_path / "toy", seed=seed), strategy="ngf-smp", mix_policy="sample",
                  augment_recipe=None, budgets=[200], output_dir=str(tmp_path / "runs"))
    [report] = run_pipeline(RunConfig(**config))
    assert {name: report.digests[name] for name in PHRASE_PATH_DIGESTS[seed]} == PHRASE_PATH_DIGESTS[seed]


def test_pipeline_aligns_each_retrieved_pair_once_per_run(tmp_path, monkeypatch):
    """The budgets share one alignment per retrieved L pair: 34 pairs on the
    stock toy at seed 1, where aligning them anew for each budget made 79 calls.
    The oracle's reference pairs are aligned once each too."""
    import almt.align
    align_pair, missing = almt.align.align_pair, almt.align.Alignments.__missing__
    aligned, calls = [], []  # align_pair's pairs; (corpus name, pair id) per first lookup

    def counting(src, tgt, table):
        aligned.append((src, tgt))
        return align_pair(src, tgt, table)

    def recording(self, pair_id):
        calls.append((self.parallel.name, pair_id))
        return missing(self, pair_id)

    monkeypatch.setattr(almt.align, "align_pair", counting)
    monkeypatch.setattr(almt.align.Alignments, "__missing__", recording)
    config = dict(toy.generate(tmp_path / "toy", seed=1), budgets=[100, 200, 400],
                  output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(RunConfig(**config))
    assert [r.counts["synthetic_pairs"] > 0 for r in reports] == [True, True, True]
    assert len(aligned) == len(calls) == len(set(calls))
    assert len([c for c in calls if c[0] == "L"]) == 34


def test_augmenting_run_without_annotated_phrases_trains_no_lm_or_ibm1(tmp_path, monkeypatch):
    """A sentence-only strategy annotates no phrase, so augmentation has nothing
    to switch in: it writes empty synthetic files and drops every U sentence."""
    from almt import align, pipeline
    calls = []
    monkeypatch.setattr(align, "train_ibm1", lambda *args, **kwargs: calls.append("ibm1"))
    monkeypatch.setattr(pipeline, "train_lm", lambda *args, **kwargs: calls.append("lm"))
    config = dict(toy.generate(tmp_path / "toy", seed=7), strategy="csse", augment_recipe="switch",
                  budgets=[100, 200], output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(RunConfig(**config))
    assert calls == []
    n_U = len((tmp_path / "toy" / "U.txt").read_text().splitlines())
    for report in reports:
        assert report.counts["selected_phrases"] == report.counts["synthetic_pairs"] == 0
        assert {k: v for k, v in report.dropped.items() if k.startswith("augment:")} == {
            "augment:no-annotated-phrase": n_U}
        assert (tmp_path / "runs" / f"budget-{report.budget}" / "synthetic.tsv").read_text() == ""


def test_pipeline_lock_blocks_concurrent_run(toy_dir, tmp_path):
    config = toy_config(toy_dir, simulate_only=True, output_dir=str(tmp_path / "runs"))
    run_dir = tmp_path / "runs" / "budget-50"
    run_dir.mkdir(parents=True)
    (run_dir / "lock").write_text("123")
    from almt.errors import ConfigError
    with pytest.raises(ConfigError, match="locked"):
        run_pipeline(config, budget=50)


def test_pipeline_failed_marker(toy_dir, tmp_path):
    # corrupt the reference after validation passes: blank source column
    bad_ref = tmp_path / "ref.tsv"
    bad_ref.write_text("only-one-column\n")
    config = toy_config(toy_dir, oracle_reference=str(bad_ref),
                        output_dir=str(tmp_path / "runs"))
    with pytest.raises(Exception):
        run_pipeline(config, budget=40)
    assert (tmp_path / "runs" / "budget-40" / "failed").exists()


# --- CLI ---

# sha256 of the stock toy's U index at the pipeline's default max_n, by toy seed: the
# bytes each budget directory held as index_U.tsv before the pipeline stopped writing it
INDEX_U_DIGESTS = {
    1: "7a15662a00da4d8eff68b1fa2d19926368dad8423458a9669988cf49606d8f43",
    2: "108bdd890ee993ea9b49bc3550824ee29cd1fb998d153cc7769e2a6275e14ce4",
    7: "50a88ed3063b0c511bf116c67ba84113b65bbeb9f66e2561bcb03120532556b4",
}


@pytest.mark.parametrize("seed", sorted(INDEX_U_DIGESTS))
def test_cli_extract(seed, tmp_path, capsys):
    toy.generate(tmp_path / "toy", seed=seed)
    out = tmp_path / "index.tsv"
    assert main(["extract", "--input", str(tmp_path / "toy" / "U.txt"),
                 "--max-n", "4", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INDEX_U_DIGESTS[seed]
    lines = out.read_bytes().count(b"\n")
    assert capsys.readouterr().out == f"{lines} phrases (max_n=4) -> {out}\n"


def test_cli_select_ngf(toy_dir, tmp_path, capsys):
    out = tmp_path / "sel.jsonl"
    assert main(["select", "--strategy", "ngf", "--unlabeled", str(toy_dir / "U.txt"),
                 "--labeled", str(toy_dir / "L.tsv"), "--budget-words", "20",
                 "--output", str(out)]) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert recs and all(r["kind"] == "phrase" for r in recs)


SELECT_SUMMARIES = [  # almt select's stdout on the seed-1 toy, --seed 3 --budget-words 150
    '{"strategy": "random-sent", "seed": 3, "budget": {"total": 150, "sentence_share": 150, "phrase_share": 0, "spent_sentences": 156, "spent_phrases": 0}, "sentences": 20, "phrases": 0, "exhausted": false, "skipped": {}}',
    '{"strategy": "csse-literal", "seed": null, "budget": {"total": 150, "sentence_share": 150, "phrase_share": 0, "spent_sentences": 156, "spent_phrases": 0}, "sentences": 22, "phrases": 0, "exhausted": false, "skipped": {"zero-norm": 0, "non-positive-margin": 0}}',
    '{"strategy": "rttl", "seed": null, "budget": {"total": 150, "sentence_share": 150, "phrase_share": 0, "spent_sentences": 150, "spent_phrases": 0}, "sentences": 21, "phrases": 0, "exhausted": false, "skipped": {}}',
    '{"strategy": "random-phrase", "seed": 3, "budget": {"total": 150, "sentence_share": 0, "phrase_share": 150, "spent_sentences": 0, "spent_phrases": 151}, "sentences": 0, "phrases": 47, "exhausted": false, "skipped": {}}',
    '{"strategy": "ngf", "seed": null, "budget": {"total": 150, "sentence_share": 0, "phrase_share": 150, "spent_sentences": 0, "spent_phrases": 150}, "sentences": 0, "phrases": 71, "exhausted": false, "skipped": {}}',
    '{"strategy": "ngf-smp", "seed": null, "budget": {"total": 150, "sentence_share": 0, "phrase_share": 150, "spent_sentences": 0, "spent_phrases": 151}, "sentences": 0, "phrases": 67, "exhausted": false, "skipped": {}}',
]


def test_cli_select_prints_each_strategys_summary_line(tmp_path, capsys):
    toy.generate(tmp_path, seed=1)
    inputs = [arg for flag, name in (("--unlabeled", "U.txt"), ("--labeled", "L.tsv"),
                                     ("--embeddings-unlabeled", "emb_U.tsv"),
                                     ("--embeddings-labeled", "emb_L.tsv"),
                                     ("--rttl-scores", "rttl_scores.tsv"))
              for arg in (flag, str(tmp_path / name))]
    for strategy in STRATEGIES:
        assert main(["select", "--strategy", strategy, *inputs, "--seed", "3", "--budget-words", "150",
                     "--output", str(tmp_path / f"{strategy}.jsonl")]) == 0
    assert capsys.readouterr().out.splitlines() == SELECT_SUMMARIES


def test_cli_select_rttl_malformed_score_line_exits_3(toy_dir, tmp_path, capsys):
    scores = tmp_path / "rttl.tsv"
    scores.write_text("0\t-1.5\n1 -2.0\n")
    assert main(["select", "--strategy", "rttl", "--unlabeled", str(toy_dir / "U.txt"),
                 "--rttl-scores", str(scores), "--budget-words", "20",
                 "--output", str(tmp_path / "sel.jsonl")]) == 3
    assert f"{scores}:2:" in capsys.readouterr().err


def test_cli_analyze_correlation(tmp_path, capsys):
    data = tmp_path / "cols.tsv"
    # two coverage columns + score column; col1 = score (r=1), col2 = -score (r=-1)
    data.write_text("1.0\t9.0\t1.0\n2.0\t8.0\t2.0\n3.0\t7.0\t3.0\n")
    assert main(["analyze", "correlation", "--input", str(data)]) == 0
    r1, r2 = capsys.readouterr().out.strip().split("\t")
    assert float(r1) == pytest.approx(1.0, abs=1e-9)
    assert float(r2) == pytest.approx(-1.0, abs=1e-9)


def test_cli_analyze_coverage(toy_dir, tmp_path, capsys):
    assert main(["analyze", "coverage", "--covering", str(toy_dir / "U.txt"),
                 "--test", str(toy_dir / "U.txt"), "--max-n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["1"] == 100.0 and report["2"] == 100.0


@pytest.mark.parametrize("text, r", [
    ("1e200\t1\n2e200\t2\n4e200\t3\n", "0.981981"),  # squares past the float range unscaled
    ("1e-200\t1e-200\n2e-200\t3e-200\n4e-200\t2e-200\n", "0.327327"),  # squares below it
], ids=["huge", "tiny"])
def test_cli_analyze_correlation_of_extreme_magnitudes_reads_as_the_unscaled_table(text, r, tmp_path, capsys):
    data = tmp_path / "cols.tsv"
    data.write_text(text)
    assert main(["analyze", "correlation", "--input", str(data)]) == 0
    assert capsys.readouterr().out == r + "\n"


def _lines(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_cli_analyze_bleu(tmp_path, capsys):
    refs = _lines(tmp_path, "refs.txt", "a b c d", "x y z", "q r")
    hyps = _lines(tmp_path, "hyps.txt", "a b c d", "x y w")  # no hypothesis for id 2
    assert main(["analyze", "bleu", "--hypotheses", refs, "--references", refs]) == 0
    assert capsys.readouterr().out == "0\t100.0000\n1\t100.0000\n2\t100.0000\n"
    assert main(["analyze", "bleu", "--hypotheses", hyps, "--references", refs]) == 0
    assert capsys.readouterr().out == "0\t100.0000\n1\t68.6589\n2\t0.0000\n"


def test_cli_analyze_wordstats(tmp_path, capsys):
    # in-domain types {d1, d2}; the selection has types {d1, g1, g2} in 5 tokens, 2 of them d1
    assert main(["analyze", "wordstats", "--selected", _lines(tmp_path, "sel.txt", "d1 g1 g2", "d1 g2"),
                 "--ood", _lines(tmp_path, "ood.txt", "g1 g2"),
                 "--test", _lines(tmp_path, "test.txt", "d1 g1", "d2")]) == 0
    assert capsys.readouterr().out == \
        '{"IDWT": 1, "WT": 3, "IDWC": 2, "WC": 5, "IDWT/WT": 33.33, "IDWC/WC": 40.0}\n'


def test_cli_analyze_length_ratio(tmp_path, capsys):
    refs = _lines(tmp_path, "refs.txt", "a b c d", "x y z", "q r")
    hyps = _lines(tmp_path, "hyps.txt", "a b", "x y w z", "q")
    assert main(["analyze", "length-ratio", "--hypotheses", refs, "--references", refs]) == 0
    assert main(["analyze", "length-ratio", "--hypotheses", hyps, "--references", refs]) == 0
    assert capsys.readouterr().out == "1.000000\n0.777778\n"


def test_cli_validate_exit_codes(toy_dir, tmp_path, capsys):
    assert main(["validate", "--config", str(toy_dir / "config.json")]) == 0
    broken = json.loads((toy_dir / "config.json").read_text())
    broken["budgets"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken))
    assert main(["validate", "--config", str(bad)]) == 2


def test_cli_pipeline_simulate(toy_dir, tmp_path, capsys):
    config = json.loads((toy_dir / "config.json").read_text())
    config["output_dir"] = str(tmp_path / "runs")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(path), "--budget", "40",
                 "--simulate-only"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["budget"] == 40


def test_cli_make_toy(tmp_path, capsys):
    assert main(["make-toy", "--output-dir", str(tmp_path / "fixture"), "--seed", "3"]) == 0
    assert (tmp_path / "fixture" / "U.txt").exists()
    assert json.loads(capsys.readouterr().out)["seed"] == 3


# --- one build per run, run-directory robustness, config errors ---

def test_config_with_removed_workers_key_rejected(toy_dir, tmp_path):
    raw = json.loads((toy_dir / "config.json").read_text())
    raw["workers"] = 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    from almt.errors import ConfigError
    with pytest.raises(ConfigError, match="workers"):
        RunConfig.load(path)


def test_pipeline_builds_budget_independent_work_once(toy_dir, tmp_path, monkeypatch):
    from almt import align, select
    from almt.embed import RatioScorer
    calls = {"train_ibm1": 0, "select_csse": 0, "select_ngf_smp": 0, "RatioScorer": 0}

    def counting(owner, name, key=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(align, "train_ibm1")
    counting(select, "select_csse")
    counting(select, "select_ngf_smp")
    counting(RatioScorer, "__init__", "RatioScorer")
    config = toy_config(toy_dir, budgets=[40, 120, 80], output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(config)
    assert [r.budget for r in reports] == [40, 120, 80]
    # L′ is 100 of L's 200 ids, so CSSE has its own U × L′ scorer; mix and
    # augment share the U × L one, not one per budget
    assert calls == {"train_ibm1": 1, "select_csse": 1, "select_ngf_smp": 1, "RatioScorer": 2}
    # build time (IBM-1 and the oracle's translations) is charged to the first budget's report only
    assert reports[1].stages["oracle"] < reports[0].stages["oracle"]


@pytest.mark.parametrize("strategy", ["csse", "random-sent", "rttl"])
def test_sentence_runs_without_augmentation_train_no_ibm1(strategy, toy_dir, tmp_path, monkeypatch):
    from almt import align
    monkeypatch.setattr(align, "train_ibm1", lambda *args: pytest.fail("trained IBM-1"))
    scores = tmp_path / "rttl.tsv"
    scores.write_text("".join(f"{i}\t{-i / 7}\n" for i in range(120)))
    for mix_policy in ("retrieve", "sample"):
        config = toy_config(toy_dir, strategy=strategy, augment_recipe=None, mix_policy=mix_policy,
                            rttl_scores=str(scores), output_dir=str(tmp_path / mix_policy))
        [report] = run_pipeline(config, budget=40)
        assert report.counts["translated_sentences"] > 0 and "align" not in report.stages


def test_csse_only_run_builds_no_vocabulary(toy_dir, tmp_path, monkeypatch):
    from almt import ngrams
    monkeypatch.setattr(ngrams, "Vocabulary", lambda *args: pytest.fail("built a vocabulary"))
    for simulate_only in (True, False):
        config = toy_config(toy_dir, strategy="csse", simulate_only=simulate_only,
                            output_dir=str(tmp_path / f"runs-{simulate_only}"))
        [report] = run_pipeline(config, budget=40)
        assert report.counts["selected_sentences"] > 0


def test_pipeline_builds_one_scorer_when_l_prime_is_all_of_l(toy_dir, tmp_path, monkeypatch):
    from almt import mix
    from almt.embed import RatioScorer
    built, ranked_by = [], []
    init, retrieve = RatioScorer.__init__, mix.retrieve_similar

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spying(scorer):
        ranked_by.append(scorer)
        return retrieve(scorer)
    monkeypatch.setattr(RatioScorer, "__init__", counting)
    monkeypatch.setattr(mix, "retrieve_similar", spying)
    config = toy_config(toy_dir, budgets=[40, 120], labeled_subset_size=200,
                        output_dir=str(tmp_path / "runs"))
    run_pipeline(config)
    # CSSE, mix and augment all read one U × L scorer; mix ranks L once, by its transposed view
    assert len(built) == 1 and ranked_by == [built[0].T]


def test_pipeline_lock_holds_owner_pid_and_reports_live_owner(toy_dir, tmp_path):
    import os
    config = toy_config(toy_dir, simulate_only=True, output_dir=str(tmp_path / "runs"))
    run_dir = tmp_path / "runs" / "budget-50"
    run_dir.mkdir(parents=True)
    (run_dir / "lock").write_text(str(os.getpid()))
    from almt.errors import ConfigError
    with pytest.raises(ConfigError, match="locked") as info:
        run_pipeline(config, budget=50)
    assert str(os.getpid()) in str(info.value) and "not running" not in str(info.value)
    assert (run_dir / "lock").read_text() == str(os.getpid())


@pytest.mark.parametrize("content", ["dead", "", "0", "not-a-pid"],
                         ids=["dead-pid", "empty", "zero", "not-a-pid"])
def test_pipeline_stale_lock_names_dead_owner(content, toy_dir, tmp_path):
    """A lock that holds no live pid: a dead process's, or none at all, as a writer
    killed between creating the lock and writing its pid leaves it."""
    import subprocess
    import sys
    if content == "dead":
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        content = str(dead.pid)
    config = toy_config(toy_dir, simulate_only=True, output_dir=str(tmp_path / "runs"))
    run_dir = tmp_path / "runs" / "budget-50"
    run_dir.mkdir(parents=True)
    (run_dir / "lock").write_text(content)
    from almt.errors import ConfigError
    with pytest.raises(ConfigError, match="locked") as info:
        run_pipeline(config, budget=50)
    assert "not running" in str(info.value) and repr(content) in str(info.value)
    assert (run_dir / "lock").read_text() == content
    assert [p.name for p in run_dir.iterdir()] == ["lock"]


def test_pipeline_failed_names_stage_and_traceback(toy_dir, tmp_path):
    bad_ref = tmp_path / "ref.tsv"
    bad_ref.write_text("only-one-column\n")
    config = toy_config(toy_dir, oracle_reference=str(bad_ref),
                        output_dir=str(tmp_path / "runs"))
    with pytest.raises(Exception):
        run_pipeline(config, budget=40)
    run_dir = tmp_path / "runs" / "budget-40"
    failed = (run_dir / "failed").read_text()
    assert failed.startswith("stage: load\n")
    assert "Traceback (most recent call last)" in failed and "ParseError" in failed
    assert not (run_dir / "lock").exists()


def test_cli_pipeline_lets_a_program_bug_end_in_its_traceback(toy_dir, tmp_path, monkeypatch, capsys):
    # Exit 3 is for faults in the input; a bug in a stage is not one, so
    # ``almt pipeline`` does not catch it, and the budget still records it.
    from almt import pipeline

    def broken(*args, **kwargs):
        raise RuntimeError("bug in a stage")
    monkeypatch.setattr(pipeline, "extract_ngrams", broken)
    config = _config_file(toy_dir, tmp_path, output_dir=str(tmp_path / "runs"))
    with pytest.raises(RuntimeError, match="bug in a stage"):
        main(["pipeline", "--config", str(config), "--budget", "40"])
    assert "stage failure" not in capsys.readouterr().err
    failed = (tmp_path / "runs" / "budget-40" / "failed").read_text()
    assert failed.startswith("stage: extract\n")
    assert "Traceback (most recent call last)" in failed and "RuntimeError: bug in a stage" in failed


def test_pipeline_unknown_freeze_id_is_config_error(toy_dir, tmp_path, capsys):
    freeze = tmp_path / "freeze.jsonl"
    freeze.write_text('{"id": 999999}\n')
    raw = json.loads((toy_dir / "config.json").read_text())
    raw.update(freeze_file=str(freeze), output_dir=str(tmp_path / "runs"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(path), "--budget", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL:") and "999999" in err and str(freeze) in err
    assert (tmp_path / "runs" / "budget-40" / "failed").read_text().startswith("stage: load\n")


def _config_file(toy_dir, tmp_path, **overrides):
    """The toy config with ``overrides``, written to a file of its own."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**json.loads((toy_dir / "config.json").read_text()), **overrides}))
    return path


def _three_dim_store(tmp_path):
    """An L embedding file of dimension 3; the toy's are of dimension 8."""
    path = tmp_path / "emb_3.tsv"
    path.write_text("dim=3\n" + "".join(f"{i}\t1.0 0.5 0.25\n" for i in range(200)))
    return path


def test_validate_reads_no_file(toy_dir, monkeypatch):
    import builtins
    config = toy_config(toy_dir)
    monkeypatch.setattr(builtins, "open", lambda *a, **kw: pytest.fail(f"opened {a[0]}"))
    assert validate_config(config) == []


def test_cli_validate_reports_each_load_failure(toy_dir, tmp_path, capsys):
    corpus = tmp_path / "U.txt"
    corpus.write_bytes(b"ok\n\xff\n")
    bad = tmp_path / "emb_bad.tsv"
    bad.write_text("dim=eight\n")
    config = _config_file(toy_dir, tmp_path, unlabeled=str(corpus), embeddings_labeled=str(bad))
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL: {corpus}:2: not UTF-8 (invalid start byte)",
        f"FAIL: {bad}:1: expected 'dim=D' header with D a positive integer, got 'dim=eight'"]


def test_cli_validate_lists_a_directory_path_and_a_later_load_failure(toy_dir, tmp_path, capsys):
    refdir = tmp_path / "refdir"
    refdir.mkdir()
    bad = tmp_path / "emb_bad.tsv"
    bad.write_text("dim=8\n0\n")  # one column: no tab after the id
    config = _config_file(toy_dir, tmp_path, oracle_reference=str(refdir), embeddings_labeled=str(bad))
    assert main(["validate", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"FAIL: oracle_reference path missing or unreadable: {refdir}",
                                f"FAIL: {bad}:2: malformed embedding line"]
    assert err == ""


def test_cli_validate_names_a_repeated_embedding_id(toy_dir, tmp_path, capsys):
    lines = (toy_dir / "emb_L.tsv").read_text().splitlines(keepends=True)
    lines[3] = "0\t" + lines[3].split("\t")[1]  # line 4; line 2 holds id 0
    bad = tmp_path / "emb_L.tsv"
    bad.write_text("".join(lines))
    assert main(["validate", "--config", str(_config_file(toy_dir, tmp_path,
                                                          embeddings_labeled=str(bad)))]) == 2
    assert capsys.readouterr().out == f"FAIL: {bad}:4: duplicate id 0\n"


def test_cli_validate_does_not_swallow_bugs_in_the_load_stage(toy_dir, tmp_path, monkeypatch):
    from almt.embed import EmbeddingStore

    def broken(path, tag=""):
        raise RuntimeError("bug")
    monkeypatch.setattr(EmbeddingStore, "load", broken)
    with pytest.raises(RuntimeError, match="bug"):
        main(["validate", "--config", str(toy_dir / "config.json")])


@pytest.mark.parametrize("command", ["select-csse", "mix-retrieve", "pipeline", "validate"])
def test_cli_dim_mismatch_exits_2(command, toy_dir, tmp_path, capsys):
    emb_3 = str(_three_dim_store(tmp_path))
    u, l, emb_u = (str(toy_dir / name) for name in ("U.txt", "L.tsv", "emb_U.tsv"))
    config = _config_file(toy_dir, tmp_path, embeddings_labeled=emb_3, output_dir=str(tmp_path / "runs"))
    argv = {
        "select-csse": ["select", "--strategy", "csse", "--unlabeled", u, "--labeled", l,
                        "--embeddings-unlabeled", emb_u, "--embeddings-labeled", emb_3,
                        "--budget-words", "20", "--output", str(tmp_path / "sel.jsonl")],
        "mix-retrieve": ["mix", "--labeled", l, "--size", "5", "--embeddings-unlabeled", emb_u,
                         "--embeddings-labeled", emb_3, "--output", str(tmp_path / "f.jsonl")],
        "pipeline": ["pipeline", "--config", str(config)],
        "validate": ["validate", "--config", str(config)],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    message, rest = (out, err) if command == "validate" else (err, out)  # validate lists failures on stdout
    assert message == "FAIL: embedding dimension mismatch: 8 vs 3\n" and rest == ""
    if command == "pipeline":
        assert (tmp_path / "runs" / "budget-200" / "failed").read_text().startswith("stage: load\n")


@pytest.mark.parametrize("side, missing", [("U", [1]), ("L", [0, 5])])
@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_cli_embedding_file_without_a_corpus_id_exits_2(command, side, missing, toy_dir, tmp_path, capsys):
    lines = (toy_dir / f"emb_{side}.tsv").read_text().splitlines(keepends=True)
    gap = tmp_path / f"emb_{side}.tsv"
    gap.write_text("".join(line for line in lines if line.split("\t")[0] not in map(str, missing)))
    key = {"U": "embeddings_unlabeled", "L": "embeddings_labeled"}[side]
    config = _config_file(toy_dir, tmp_path, **{key: str(gap)}, output_dir=str(tmp_path / "runs"))
    assert main([command, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    message, rest = (out, err) if command == "validate" else (err, out)  # validate lists failures on stdout
    assert message == f"FAIL: {gap}: vectors missing for ids of {side}, first {missing} of {len(missing)}\n"
    assert rest == "" and "Traceback" not in out + err
    if command == "pipeline":
        assert (tmp_path / "runs" / "budget-200" / "failed").read_text().startswith("stage: load\n")


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_missing_freeze_file_exits_2(command, toy_dir, tmp_path, capsys):
    missing = tmp_path / "missing.freeze.jsonl"
    config = _config_file(toy_dir, tmp_path, freeze_file=str(missing),
                          output_dir=str(tmp_path / "runs"))
    assert main([command, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert f"freeze_file path missing or unreadable: {missing}" in out + err
    assert not (tmp_path / "runs").exists()


_NOT_JSON = object()  # the config file holds text that is not JSON


@pytest.mark.parametrize("overrides, named", [
    pytest.param(_NOT_JSON, "not a JSON config", id="malformed-json"),
    pytest.param([1, 2], "expected a JSON object, got list", id="not-an-object"),
    pytest.param({"strategy": None}, "missing required config keys: ['strategy']", id="no-strategy"),
    pytest.param({"mix_size": -1}, "unknown config keys: ['mix_size']", id="removed-mix-size"),
    pytest.param({"ibm1_iterations": 5}, "unknown config keys: ['ibm1_iterations']",
                 id="removed-ibm1-iterations"),
    pytest.param({"lm_order": 3}, "unknown config keys: ['lm_order']", id="removed-lm-order"),
    pytest.param({"k": "4"}, "k must be an int >= 1, got '4'", id="k-str"),
    pytest.param({"k": 4.5}, "k must be an int >= 1, got 4.5", id="k-float"),
    pytest.param({"k": True}, "k must be an int >= 1, got True", id="k-bool"),
    pytest.param({"budgets": 200}, "budgets must be a non-empty list of positive ints, got 200",
                 id="budgets-int"),
    pytest.param({"budgets": [True]}, "budgets must be a non-empty list of positive ints, got [True]",
                 id="budgets-bool"),
    pytest.param({"unlabeled": 5}, "unlabeled must be a path string or null, got 5", id="unlabeled-int"),
    pytest.param({"seed": 1.5}, "seed must be an int, got 1.5", id="seed-float"),
    pytest.param({"seed": "x"}, "seed must be an int, got 'x'", id="seed-str"),
    pytest.param({"simulate_only": 1}, "simulate_only must be true or false, got 1",
                 id="simulate-only-int"),
    pytest.param({"strategy": ["csse"]}, "unknown strategy ['csse']", id="strategy-list"),
    pytest.param({"labeled_subset_size": 0}, "labeled_subset_size must be an int >= 1, got 0",
                 id="subset-0"),
])
@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_bad_config_file_exits_2_naming_the_key(command, overrides, named, toy_dir, tmp_path, capsys):
    path = tmp_path / "c.json"
    raw = {**json.loads((toy_dir / "config.json").read_text()), "output_dir": str(tmp_path / "runs")}
    if overrides is _NOT_JSON:
        path.write_text(json.dumps(raw)[:-1])
    elif isinstance(overrides, dict):
        raw.update(overrides)
        path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    else:
        path.write_text(json.dumps(overrides))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "FAIL: " in out + err and named in out + err and "Traceback" not in out + err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, name, named", [
    ("sentence_strategy", "ngf",
     "sentence_strategy 'ngf' is a phrase strategy; sentence strategies: random-sent, csse, rttl"),
    ("phrase_strategy", "csse",
     "phrase_strategy 'csse' is a sentence strategy; phrase strategies: random-phrase, ngf, ngf-smp"),
    ("sentence_strategy", "bogus", "unknown sentence_strategy 'bogus'"),
    ("phrase_strategy", "bogus", "unknown phrase_strategy 'bogus'"),
])
def test_a_hybrid_slot_naming_a_strategy_of_the_other_kind_exits_2_naming_the_mismatch(
        key, name, named, toy_dir, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**json.loads((toy_dir / "config.json").read_text()),
                                "strategy": "hybrid", key: name}))
    assert main(["validate", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == f"FAIL: {named}\n" and err == ""


@pytest.mark.parametrize("command", ["select", "pipeline"])
def test_cli_output_below_a_regular_file_exits_2_naming_it(command, toy_dir, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "select":
        named = blocker / "sel.jsonl"
        argv = ["select", "--strategy", "random-sent", "--unlabeled", str(toy_dir / "U.txt"),
                "--budget-words", "20", "--output", str(named)]
    else:
        named = blocker / "runs" / "budget-200"
        argv = ["pipeline", "--simulate-only", "--config",
                str(_config_file(toy_dir, tmp_path, output_dir=str(blocker / "runs")))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"FAIL: {named}: Not a directory\n"


def test_cli_select_ngf_without_labeled_exits_2(toy_dir, tmp_path, capsys):
    assert main(["select", "--strategy", "ngf", "--unlabeled", str(toy_dir / "U.txt"),
                 "--budget-words", "20", "--output", str(tmp_path / "sel.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL:") and "--labeled" in err


def test_cli_select_csse_without_embeddings_exits_2(toy_dir, tmp_path, capsys):
    assert main(["select", "--strategy", "csse", "--unlabeled", str(toy_dir / "U.txt"),
                 "--labeled", str(toy_dir / "L.tsv"), "--budget-words", "20",
                 "--output", str(tmp_path / "sel.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL:") and "--embeddings-unlabeled" in err \
        and "--embeddings-labeled" in err


def test_cli_select_csse(toy_dir, tmp_path, capsys):
    out = tmp_path / "sel.jsonl"
    assert main(["select", "--strategy", "csse", "--unlabeled", str(toy_dir / "U.txt"),
                 "--labeled", str(toy_dir / "L.tsv"),
                 "--embeddings-unlabeled", str(toy_dir / "emb_U.tsv"),
                 "--embeddings-labeled", str(toy_dir / "emb_L.tsv"),
                 "--budget-words", "30", "--output", str(out)]) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert recs and all(r["kind"] == "sentence" for r in recs)


# --- phrase work once per run, tiny budgets, unreadable inputs ---

def test_pipeline_translates_phrases_once_and_each_budget_matches_a_direct_call(
        toy_dir, tmp_path, monkeypatch):
    from almt import align, oracle
    from almt.corpus import load_parallel
    calls = []
    translate = oracle.translate_phrases

    def spy(phrases, *args):
        calls.append(len(phrases))
        return translate(phrases, *args)
    monkeypatch.setattr(oracle, "translate_phrases", spy)
    # the oracle drops 8 of the phrases selected at 40 and 120, and 1 of those at 3
    config = toy_config(toy_dir, budgets=[3, 120, 40], output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(config)
    assert len(calls) == 1  # the phrases of the ranking made at budget 120
    monkeypatch.undo()
    reference = load_parallel(config.oracle_reference, "ref")
    table = align.train_ibm1(load_parallel(config.labeled, "L"))
    for report in reports:
        run_dir = tmp_path / "runs" / f"budget-{report.budget}"
        phrases = [tuple(rec["tokens"]) for rec in map(json.loads, (run_dir / "selection.jsonl")
                   .read_text().splitlines()) if rec["kind"] == "phrase"]
        assert phrases and len(phrases) <= calls[0]
        responses, drops = oracle.translate_phrases(phrases, align.Alignments(reference, table))
        written = [json.loads(l) for l in (run_dir / "phrases.provenance.jsonl").read_text().splitlines()]
        assert written == [{"source": list(r.source), "target": list(r.target),
                            "provenance": list(r.provenance), "votes": r.votes} for r in responses]
        assert report.dropped.get("oracle:phrases", {}) == {" ".join(p): r for p, r in drops.items()}


def test_pipeline_writes_no_index_U(toy_dir, tmp_path):
    """The U index does not depend on the budget; `almt extract` writes it on demand."""
    config = toy_config(toy_dir, budgets=[40, 120, 80], output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(config)
    assert [r.counts["selected_phrases"] > 0 for r in reports] == [True, True, True]
    assert not list((tmp_path / "runs").glob("*/index_U.tsv"))
    assert not any("index_U" in r.digests for r in reports)


def test_pipeline_success_removes_failed_marker_of_an_earlier_run(toy_dir, tmp_path):
    reference = tmp_path / "ref.tsv"
    reference.write_text("only-one-column\n")
    config = toy_config(toy_dir, oracle_reference=str(reference),
                        output_dir=str(tmp_path / "runs"))
    with pytest.raises(Exception):
        run_pipeline(config, budget=40)
    failed = tmp_path / "runs" / "budget-40" / "failed"
    assert failed.exists()
    reference.write_bytes((toy_dir / "reference.tsv").read_bytes())
    run_pipeline(config, budget=40)
    assert not failed.exists()
    assert (tmp_path / "runs" / "budget-40" / "report.json").exists()


def test_pipeline_rerun_failing_while_writing_manifest_keeps_the_first_run_bytes(
        toy_dir, tmp_path, monkeypatch):
    import hashlib
    config = toy_config(toy_dir, output_dir=str(tmp_path / "runs"))
    [report] = run_pipeline(config, budget=40)
    run_dir = tmp_path / "runs" / "budget-40"
    manifest = run_dir / "manifest.jsonl"
    first = manifest.read_bytes()
    assert first and hashlib.sha256(first).hexdigest() == report.digests["manifest_jsonl"]

    write_bytes = Path.write_bytes

    def torn(path, data):  # half of the manifest reaches the disk, then the write fails
        if "manifest.jsonl" in path.name:
            write_bytes(path, data[:len(data) // 2])
            raise OSError(28, "No space left on device")
        return write_bytes(path, data)
    monkeypatch.setattr(Path, "write_bytes", torn)
    with pytest.raises(OSError, match="No space left"):
        run_pipeline(config, budget=40)
    monkeypatch.undo()
    assert manifest.read_bytes() == first
    assert not [p.name for p in run_dir.iterdir() if p.name.endswith(".tmp")]
    assert (run_dir / "failed").read_text().startswith("stage: assemble\n")


_FULL_RUN_FILES = {"selection.jsonl", "sentences.tsv", "sentences.provenance.jsonl", "phrases.tsv",
                   "phrases.provenance.jsonl", "retrieved.freeze.jsonl", "synthetic.tsv",
                   "synthetic.recipes.jsonl", "manifest.jsonl", "manifest.tsv", "report.json"}


@pytest.mark.parametrize("rerun, kept", [
    ({"strategy": "ngf", "simulate_only": True}, {"selection.jsonl", "report.json"}),
    ({"augment_recipe": None}, _FULL_RUN_FILES - {"synthetic.tsv", "synthetic.recipes.jsonl"}),
], ids=["ngf-simulate-only", "no-augmentation"])
def test_a_rerun_into_a_used_budget_directory_leaves_only_the_files_its_report_lists(
        rerun, kept, stock_toy, tmp_path):
    """A budget that completes removes the artifacts an earlier run left in its
    directory and it did not write, so a downstream reader finds no stale manifest."""
    output_dir = str(tmp_path / "runs")
    [first] = run_pipeline(toy_config(stock_toy, output_dir=output_dir))
    run_dir = tmp_path / "runs" / f"budget-{first.budget}"
    assert {p.name for p in run_dir.iterdir()} == _FULL_RUN_FILES
    [report] = run_pipeline(toy_config(stock_toy, output_dir=output_dir, **rerun))
    files = [p for p in run_dir.iterdir() if p.name != "report.json"]
    assert {p.name for p in files} | {"report.json"} == kept
    assert sorted(hashlib.sha256(p.read_bytes()).hexdigest() for p in files) == \
        sorted(report.digests.values())


@pytest.mark.parametrize("budget", [0, -5, True])
@pytest.mark.parametrize("strategy", ["hybrid", "ngf", "csse"])
def test_run_pipeline_refuses_a_budget_override_that_is_not_a_positive_int(
        strategy, budget, toy_dir, tmp_path):
    from almt.errors import ConfigError
    config = toy_config(toy_dir, strategy=strategy, output_dir=str(tmp_path / "runs"))
    with pytest.raises(ConfigError) as info:
        run_pipeline(config, budget=budget)
    assert f"budgets must be a non-empty list of positive ints, got [{budget!r}]" in str(info.value)
    assert not (tmp_path / "runs").exists()


def test_pipeline_interrupted_while_writing_manifest_leaves_failed(toy_dir, tmp_path, monkeypatch):
    config = toy_config(toy_dir, output_dir=str(tmp_path / "runs"))
    write_bytes = Path.write_bytes

    def interrupted(path, data):  # Ctrl-C arrives during the manifest write
        if "manifest.jsonl" in path.name:
            raise KeyboardInterrupt
        return write_bytes(path, data)
    monkeypatch.setattr(Path, "write_bytes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(config, budget=40)
    run_dir = tmp_path / "runs" / "budget-40"
    assert (run_dir / "failed").read_text().startswith("stage: assemble\n")
    assert not (run_dir / "lock").exists()


def test_pipeline_deletes_temporary_files_of_a_killed_writer(toy_dir, tmp_path):
    run_dir = tmp_path / "runs" / "budget-40"
    run_dir.mkdir(parents=True)
    stale = run_dir / ".manifest.jsonl.99999.tmp"
    stale.write_text('{"half": ')
    run_pipeline(toy_config(toy_dir, output_dir=str(tmp_path / "runs")), budget=40)
    assert not stale.exists() and (run_dir / "manifest.jsonl").exists()


def test_pipeline_tiny_budgets_write_empty_manifest(toy_dir, tmp_path):
    # At budgets 1-3 NGF selects only domain words, which the table trained on
    # the out-of-domain L cannot align: the oracle drops every phrase, so the
    # mix size is 0 and every manifest input is empty.
    import hashlib
    from almt import mix
    raw = json.loads((toy_dir / "config.json").read_text())
    raw.update(strategy="ngf", budgets=[1, 2, 3], output_dir=str(tmp_path / "runs"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(path)]) == 0
    for budget in (1, 2, 3):
        run_dir = tmp_path / "runs" / f"budget-{budget}"
        report = json.loads((run_dir / "report.json").read_text())
        assert report["counts"]["selected_phrases"] >= 1
        assert report["counts"]["translated_phrases"] == 0
        assert report["counts"]["manifest_entries"] == 0
        assert all(report["counts"][f"manifest:{origin}"] == 0 for origin in mix.ORIGINS)
        assert (run_dir / "manifest.jsonl").read_text() == ""
        assert report["digests"]["manifest_jsonl"] == hashlib.sha256(b"").hexdigest()
        assert not (run_dir / "failed").exists()


def test_cli_missing_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nonexistent.txt"
    assert main(["select", "--strategy", "ngf", "--unlabeled", str(missing),
                 "--labeled", str(missing), "--budget-words", "5",
                 "--output", str(tmp_path / "sel.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"FAIL: {missing}: ") and "Traceback" not in err


@pytest.mark.parametrize("loader", ["corpus", "parallel", "embeddings", "rttl"])
def test_cli_non_utf8_input_is_a_parse_error_naming_the_line(loader, toy_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes({"corpus": b"a b\nc d\n\xff e\n",
                     "parallel": b"a b\tT_a T_b\n\xff\tx\n",
                     "embeddings": b"dim=2\n0\t1.0 2.0\n1\t\xff\n",
                     "rttl": b"0\t-1.5\n\xfe\t-2.0\n"}[loader])
    argv = {
        "corpus": ["extract", "--input", str(bad), "--output", str(tmp_path / "index.tsv")],
        "parallel": ["oracle", "--selection", str(tmp_path / "sel.jsonl"), "--reference", str(bad),
                     "--labeled", str(toy_dir / "L.tsv"), "--output-prefix", str(tmp_path / "o")],
        "embeddings": ["mix", "--labeled", str(toy_dir / "L.tsv"), "--policy", "retrieve",
                       "--size", "5", "--embeddings-labeled", str(bad),
                       "--embeddings-unlabeled", str(toy_dir / "emb_U.tsv"),
                       "--output", str(tmp_path / "freeze.jsonl")],
        "rttl": ["select", "--strategy", "rttl", "--unlabeled", str(toy_dir / "U.txt"),
                 "--rttl-scores", str(bad), "--budget-words", "5",
                 "--output", str(tmp_path / "sel.jsonl")],
    }[loader]
    line = {"corpus": 3, "parallel": 2, "embeddings": 3, "rttl": 2}[loader]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{bad}:{line}: not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("record", ["not json", '{"id": 3}', '{"kind": "phrase"}', "[1]",
                                    '{"kind": "sentence", "id": true}', '{"kind": "sentence", "id": 2.0}',
                                    '{"kind": "sentence", "id": "2"}',
                                    *(f'{{"kind": "phrase", "tokens": {tokens}}}'
                                      for tokens in ('"ab"', "[1, 2]", '["d00", 5]', "[]", '["d00 d01"]',
                                                     '[""]'))])
def test_cli_oracle_malformed_selection_is_a_parse_error_naming_the_line(record, toy_dir, tmp_path,
                                                                         capsys):
    selection = tmp_path / "sel.jsonl"
    selection.write_text('{"kind": "sentence", "id": 0}\n' + record + "\n")
    assert main(["oracle", "--selection", str(selection), "--reference",
                 str(toy_dir / "reference.tsv"), "--labeled", str(toy_dir / "L.tsv"),
                 "--output-prefix", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"{selection}:2: malformed selection record" in err and "Traceback" not in err


@pytest.mark.parametrize("text, where, problem", [
    # a malformed row between two good ones, named by its line
    *(pytest.param(f"0.1\t0.2\t0.3\n\n{row}\n0.3\t0.1\t0.2\n", ":3", problem, id=f"{row}-{problem}")
      for row, problem in [("1\tx\t0.5", "non-numeric cell"), ("1\t0.5", "expected 3 columns, got 2"),
                           ("1\tnan\t0.5", "non-finite cell"), ("1\t0.5\t-inf", "non-finite cell")]),
    # a table no correlation can be computed from, named by its file
    pytest.param("", "", "no rows", id="empty-file"),
    pytest.param("1\t2\n", "", "need at least 2 points", id="one-row"),
    pytest.param("1\t2\n1\t3\n", "", "zero variance", id="constant-column"),
    pytest.param("0.1\n0.2\n0.3\n", "", "expected coverage columns and a score column, got 1 column",
                 id="one-column"),
])
def test_cli_analyze_correlation_malformed_row_is_a_parse_error(text, where, problem, tmp_path, capsys):
    data = tmp_path / "cols.tsv"
    data.write_text(text)
    assert main(["analyze", "correlation", "--input", str(data)]) == 3
    err = capsys.readouterr().err
    assert f"{data}{where}: {problem}" in err and "Traceback" not in err


def test_pipeline_freeze_line_without_id_is_a_parse_error(toy_dir, tmp_path, capsys):
    freeze = tmp_path / "freeze.jsonl"
    freeze.write_text('{"id": 1}\n{"pair": 2}\n')
    raw = json.loads((toy_dir / "config.json").read_text())
    raw.update(freeze_file=str(freeze), output_dir=str(tmp_path / "runs"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(path), "--budget", "40"]) == 3
    err = capsys.readouterr().err
    assert f"{freeze}:2: malformed freeze record" in err and "Traceback" not in err
    assert (tmp_path / "runs" / "budget-40" / "failed").read_text().startswith("stage: load\n")


@pytest.mark.parametrize("record", ['{"id": [1]}', '{"id": true}', '{"id": 2.0}', '{"id": "2"}', '{"id": null}'])
def test_validate_names_a_freeze_id_that_is_not_an_integer(record, toy_dir, tmp_path, capsys):
    freeze = tmp_path / "freeze.jsonl"
    freeze.write_text('{"id": 0}\n' + record + "\n")
    assert main(["validate", "--config", str(_config_file(toy_dir, tmp_path, freeze_file=str(freeze)))]) == 2
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL: {freeze}:2: malformed freeze record") and "Traceback" not in out + err


def _manifest_tsv_lines(run_dir, origin):
    """The manifest.tsv lines of a budget's manifest entries of ``origin``."""
    return [tsv for tsv, entry in zip((run_dir / "manifest.tsv").read_text().splitlines(True),
                                      (run_dir / "manifest.jsonl").read_text().splitlines())
            if json.loads(entry)["origin"] == origin]


def test_cli_oracle_and_mix_write_the_pipeline_files(tmp_path, capsys):
    toy_dir = tmp_path / "toy"
    config = RunConfig(**toy.generate(toy_dir, seed=7))  # the stock toy
    config.output_dir = str(tmp_path / "runs")
    [report] = run_pipeline(config)
    run_dir = tmp_path / "runs" / f"budget-{report.budget}"
    assert report.counts["translated_sentences"] and report.counts["translated_phrases"]

    prefix = tmp_path / "cli"
    assert main(["oracle", "--selection", str(run_dir / "selection.jsonl"),
                 "--reference", config.oracle_reference, "--labeled", config.labeled,
                 "--output-prefix", str(prefix)]) == 0
    for name in ("sentences.tsv", "sentences.provenance.jsonl", "phrases.tsv",
                 "phrases.provenance.jsonl"):
        assert Path(f"{prefix}.{name}").read_bytes() == (run_dir / name).read_bytes(), name

    freeze = tmp_path / "cli.freeze.jsonl"
    assert main(["mix", "--labeled", config.labeled, "--policy", "retrieve",
                 "--size", str(report.counts["mixed_pairs"]), "--seed", str(config.seed),
                 "--k", str(config.k), "--embeddings-labeled", config.embeddings_labeled,
                 "--embeddings-unlabeled", config.embeddings_unlabeled,
                 "--output", str(freeze)]) == 0
    assert freeze.read_bytes() == (run_dir / "retrieved.freeze.jsonl").read_bytes()
    retrieved = _manifest_tsv_lines(run_dir, "retrieved")
    assert len(retrieved) == report.counts["mixed_pairs"] > 0
    assert Path(f"{freeze}.tsv").read_text() == "".join(retrieved)

    selection = tmp_path / "cli.selection.jsonl"
    assert main(["select", "--strategy", "ngf-smp", "--unlabeled", config.unlabeled,
                 "--labeled", config.labeled, "--budget-words", "200", "--output", str(selection)]) == 0
    config.strategy, config.simulate_only = "ngf-smp", True
    config.output_dir = str(tmp_path / "ngf-smp")
    run_pipeline(config, budget=200)
    assert selection.read_bytes() == (tmp_path / "ngf-smp" / "budget-200" / "selection.jsonl").read_bytes()


@pytest.mark.parametrize("seed", [None, 3])
def test_cli_mix_sample_writes_the_pipeline_files(toy_dir, tmp_path, capsys, seed):
    """almt mix --policy sample writes the freeze file of a sample-policy budget of
    the same size and seed, and its .tsv is that budget's sampled manifest lines;
    without --seed, it takes RunConfig's default seed."""
    config = toy_config(toy_dir, strategy="ngf-smp", mix_policy="sample", augment_recipe=None,
                        seed=RunConfig.seed if seed is None else seed, budgets=[120],
                        output_dir=str(tmp_path / "runs"))
    [report] = run_pipeline(config)
    run_dir = tmp_path / "runs" / "budget-120"
    freeze = tmp_path / "sample.jsonl"
    assert main(["mix", "--labeled", config.labeled, "--policy", "sample",
                 "--size", str(report.counts["mixed_pairs"]), "--output", str(freeze)]
                + ([] if seed is None else ["--seed", str(seed)])) == 0
    assert capsys.readouterr().out == f"{report.counts['mixed_pairs']} pairs -> {freeze}\n"
    assert freeze.read_bytes() == (run_dir / "retrieved.freeze.jsonl").read_bytes()
    sampled = _manifest_tsv_lines(run_dir, "sampled")
    assert len(sampled) == report.counts["mixed_pairs"] > 0
    assert Path(f"{freeze}.tsv").read_text() == "".join(sampled)


@pytest.mark.parametrize("overrides", [{}, {"mix_policy": "sample"}, {"freeze_file": "freeze.jsonl"}])
def test_the_mix_pool_is_an_id_order_and_each_entry_is_its_l_pair(toy_dir, tmp_path, overrides):
    """Each budget's freeze file is a prefix of the run's pool: L's ids ranked by
    their max ratio to U (retrieve) or in the seeded shuffle (sample), or the
    freeze file's ids, all of them at every budget. Every retrieved or sampled
    manifest entry is the L pair its provenance names."""
    from almt.corpus import load_parallel
    from almt.embed import EmbeddingStore, RatioScorer
    from almt.select import rank, shuffled
    if "freeze_file" in overrides:
        frozen = [17, 3, 150, 42]
        (tmp_path / "freeze.jsonl").write_text("".join(f'{{"id": {i}}}\n' for i in frozen))
        overrides = dict(overrides, freeze_file=str(tmp_path / "freeze.jsonl"))
    config = toy_config(toy_dir, budgets=[40, 120], output_dir=str(tmp_path / "runs"), **overrides)
    L = load_parallel(config.labeled)
    if config.freeze_file:
        pool = frozen
    elif config.mix_policy == "sample":
        pool = shuffled(L, config.seed)
    else:
        scorer = RatioScorer(EmbeddingStore.load(config.embeddings_unlabeled),
                             EmbeddingStore.load(config.embeddings_labeled), config.k).T
        pool = rank(scorer.a.ids, scorer.max_over_b(), descending=True)
    origin = "retrieved" if config.mix_policy == "retrieve" else "sampled"
    for report in run_pipeline(config):
        run_dir = tmp_path / "runs" / f"budget-{report.budget}"
        ids = [json.loads(line)["id"]
               for line in (run_dir / "retrieved.freeze.jsonl").read_text().splitlines()]
        m = len(pool) if config.freeze_file else report.counts["translated_phrases"]
        assert ids and ids == pool[:m]
        mixed = [e for e in map(json.loads, (run_dir / "manifest.jsonl").read_text().splitlines())
                 if e["origin"] == origin]
        assert [e["provenance"] for e in mixed] == ids
        assert all((tuple(e["source"]), tuple(e["target"])) == L[e["provenance"]] for e in mixed)


@pytest.mark.parametrize("argv, named", [
    (["mix", "--policy", "sample", "--size", "100000"], "--size"),
    (["mix", "--policy", "retrieve", "--size", "5"], "--embeddings-unlabeled, --embeddings-labeled"),
    (["select", "--k", "0"], "--k"),
    (["select", "--max-n", "0"], "--max-n"),
    (["select", "--budget-words", "0"], "--budget-words"),
    (["analyze", "coverage", "--test", "test.txt"], "requires --covering"),
    (["analyze", "bleu"], "requires --hypotheses, --references"),
    (["pipeline", "--budget", "-5"], "--budget"),
], ids=["mix-size", "mix-retrieve-embeddings", "select-k", "select-max-n",
        "select-budget-words", "analyze-coverage", "analyze-bleu", "pipeline-budget"])
def test_cli_stage_command_with_a_bad_flag_exits_2(argv, named, toy_dir, tmp_path, capsys):
    valid = {  # every other flag the command needs; a later flag overrides an earlier one
        "mix": ["--labeled", str(toy_dir / "L.tsv"), "--output", str(tmp_path / "freeze.jsonl")],
        "select": ["--strategy", "ngf", "--unlabeled", str(toy_dir / "U.txt"),
                   "--labeled", str(toy_dir / "L.tsv"), "--budget-words", "20",
                   "--output", str(tmp_path / "sel.out.jsonl")],
        "analyze": [],
        "pipeline": ["--config", str(toy_dir / "config.json")],
    }[argv[0]]
    assert main(argv[:1] + valid + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FAIL:") and named in err and "Traceback" not in err


@pytest.mark.parametrize("fault, named", [("nan-row", ":4: NaN or Inf component"),
                                          ("repeated-id", ":4: duplicate id 0")])
def test_cli_select_csse_on_a_nan_row_or_repeated_id_exits_3_naming_the_line(fault, named, toy_dir,
                                                                               tmp_path, capsys):
    lines = (toy_dir / "emb_L.tsv").read_text().splitlines(keepends=True)
    sid, vec = lines[3].split("\t")  # line 4; line 2 holds id 0
    lines[3] = f"{sid}\tnan {vec.split(' ', 1)[1]}" if fault == "nan-row" else f"0\t{vec}"
    bad = tmp_path / "emb_L.tsv"
    bad.write_text("".join(lines))
    assert main(["select", "--strategy", "csse", "--unlabeled", str(toy_dir / "U.txt"),
                 "--labeled", str(toy_dir / "L.tsv"), "--embeddings-unlabeled", str(toy_dir / "emb_U.tsv"),
                 "--embeddings-labeled", str(bad), "--budget-words", "20",
                 "--output", str(tmp_path / "sel.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage failure:") and f"{bad}{named}" in err and "Traceback" not in err


@pytest.mark.parametrize("command, code, named", [
    ("extract", 2, "--max-n"),
    ("coverage", 2, "--max-n"),
    ("length-ratio", 3, "{hyp} against {u}: hypotheses missing id 5"),
    ("length-ratio-empty", 3, "{empty} against {empty}: reference corpus is empty"),
    ("select-csse", 3, "{bad}:1: expected 'dim=D' header"),
    ("mix-retrieve", 3, "{bad}:1: expected 'dim=D' header"),
    ("validate", 2, "{bad}:1: expected 'dim=D' header"),
])
def test_cli_bad_value_or_embedding_header_exits_without_traceback(command, code, named, toy_dir,
                                                                    tmp_path, capsys):
    bad, hyp, empty = tmp_path / "emb_bad.tsv", tmp_path / "hyp.txt", tmp_path / "empty.txt"
    bad.write_text("dim=eight\n0\t1.0\n")
    empty.write_text("")
    hyp.write_text("".join((toy_dir / "U.txt").read_text().splitlines(keepends=True)[:5]))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**json.loads((toy_dir / "config.json").read_text()),
                                  "embeddings_labeled": str(bad)}))
    u, l, emb_u = (str(toy_dir / name) for name in ("U.txt", "L.tsv", "emb_U.tsv"))
    argv = {
        "extract": ["extract", "--input", u, "--max-n", "0", "--output", str(tmp_path / "i.tsv")],
        "coverage": ["analyze", "coverage", "--covering", u, "--test", u, "--max-n", "0"],
        "length-ratio": ["analyze", "length-ratio", "--hypotheses", str(hyp), "--references", u],
        "length-ratio-empty": ["analyze", "length-ratio", "--hypotheses", str(empty),
                               "--references", str(empty)],
        "select-csse": ["select", "--strategy", "csse", "--unlabeled", u, "--labeled", l,
                        "--embeddings-unlabeled", emb_u, "--embeddings-labeled", str(bad),
                        "--budget-words", "20", "--output", str(tmp_path / "sel.jsonl")],
        "mix-retrieve": ["mix", "--labeled", l, "--size", "5", "--embeddings-unlabeled", emb_u,
                         "--embeddings-labeled", str(bad), "--output", str(tmp_path / "f.jsonl")],
        "validate": ["validate", "--config", str(config)],
    }[command]
    assert main(argv) == code
    out, err = capsys.readouterr()
    message = out if command == "validate" else err
    assert message.startswith("FAIL:" if code == 2 else "stage failure:"), message
    assert named.format(bad=bad, hyp=hyp, u=u, empty=empty) in message and "Traceback" not in out + err


# --- dist_mode "nn" ---

@pytest.fixture(scope="module")
def stock_toy_nn(tmp_path_factory):
    """The stock toy (seed 7) with CSSE's nearest-neighbour mode, and its scalar
    reference order: ascending max ratio to L′, ties by id, over the U ids with
    a ratio to some point of L′."""
    from ratio_reference import NoRatioError, dist_to_labeled
    from almt.pipeline import RunContext
    out = tmp_path_factory.mktemp("stock")
    config = RunConfig(**toy.generate(out, seed=7))
    config.dist_mode, config.output_dir = "nn", str(out / "runs")
    context = RunContext(config)
    store_U, store_L_sub = context.stores[0], context.csse_scorer.b
    scores = {}
    for sid in context.U:
        try:
            scores[sid] = dist_to_labeled(sid, store_U, store_L_sub, config.k, mode="nn")
        except NoRatioError:
            pass
    return config, context, sorted(scores, key=lambda sid: (scores[sid], sid)), scores


def test_select_csse_nn_order_matches_the_scalar_reference(stock_toy_nn):
    from almt.select import cut, select_csse
    config, context, order, scores = stock_toy_nn
    ranking = select_csse(context.U, context.csse_scorer, dist_mode="nn")
    result = cut([ranking], 10 ** 6)
    assert ranking.strategy == "csse-nn" and result.exhausted
    assert [s.id for s in result.sentences] == order
    assert [s.score for s in result.sentences] == pytest.approx([scores[sid] for sid in order])
    assert sum(result.skipped.values()) == len(context.U) - len(order)


def test_pipeline_runs_csse_nn(stock_toy_nn):
    config, _, order, _ = stock_toy_nn
    [report] = run_pipeline(config)
    assert report.counts["selected_sentences"] > 0 and report.counts["manifest_entries"] > 0
    run_dir = Path(config.output_dir) / f"budget-{report.budget}"
    selected = [json.loads(line) for line in (run_dir / "selection.jsonl").read_text().splitlines()]
    assert [r["id"] for r in selected if r["kind"] == "sentence"] == \
        order[:report.counts["selected_sentences"]]


# --- the files a run reads: one rule for validate and the load stage ---

@pytest.fixture(scope="module")
def stock_toy(tmp_path_factory):
    out = tmp_path_factory.mktemp("stock-toy")
    toy.generate(out, seed=7)
    return out


@pytest.mark.parametrize("strategy", [*STRATEGIES, "hybrid"])
@pytest.mark.parametrize("mix_policy", ["retrieve", "sample"])
@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("augment_recipe", [None, "switch", "contextualize"])
@pytest.mark.parametrize("simulate_only", [False, True])
def test_validate_checks_the_paths_whose_files_the_load_stage_reads(
        strategy, mix_policy, freeze, augment_recipe, simulate_only, monkeypatch):
    from almt import mix, pipeline, select
    from almt.embed import EmbeddingStore
    from almt.pipeline import READERS, RunContext
    keys = [*READERS, "test"]
    config = RunConfig(strategy=strategy, mix_policy=mix_policy, augment_recipe=augment_recipe,
                       simulate_only=simulate_only, budgets=[10],
                       **{key: f"/nonexistent/{key}" for key in keys})
    if not freeze:
        config.freeze_file = None
    checked = {f.split(" path missing")[0] for f in validate_config(config)}
    read = []

    def reader(path, *args):
        read.append(Path(path).name)
        return type("Store", (dict,), {"dim": 1, "row": {}})()  # an empty corpus or store
    for owner, name in [(pipeline, "load_corpus"), (pipeline, "load_parallel"),
                        (EmbeddingStore, "load"), (select, "load_rttl_scores"), (mix, "load_freeze")]:
        monkeypatch.setattr(owner, name, reader)
    RunContext(config).load()
    assert sorted(read) == sorted(checked)
    assert {"unlabeled", "labeled"} <= checked and "test" not in checked
    assert ("oracle_reference" in checked) is not simulate_only
    assert ("freeze_file" in checked) is (freeze and not simulate_only)
    assert ("rttl_scores" in checked) is (strategy == "rttl")
    embeddings = strategy in ("csse", "hybrid") or not simulate_only and (
        augment_recipe is not None or mix_policy == "retrieve" and not freeze)
    assert ("embeddings_labeled" in checked) is embeddings


def test_contextualize_appends_an_annotated_phrase_pair_to_its_retrieved_pair(stock_toy, tmp_path):
    config = toy_config(stock_toy, augment_recipe="contextualize", output_dir=str(tmp_path / "runs"))
    [report] = run_pipeline(config)
    run_dir = tmp_path / "runs" / f"budget-{report.budget}"
    L = {i: [line.split("\t")[0].split(), line.split("\t")[1].split()]
         for i, line in enumerate((stock_toy / "L.tsv").read_text().splitlines())}
    annotated = {tuple(line.split("\t")[0].split()): line.split("\t")[1].split()
                 for line in (run_dir / "phrases.tsv").read_text().splitlines()}
    entries = [json.loads(line) for line in (run_dir / "manifest.jsonl").read_text().splitlines()]
    synthetic = [e for e in entries if e["origin"].startswith("synthetic")]
    recipes = [json.loads(line) for line in (run_dir / "synthetic.recipes.jsonl").read_text().splitlines()]
    assert synthetic and len(synthetic) == len(recipes) == report.counts["manifest:synthetic-context"]
    for entry, recipe in zip(synthetic, recipes):
        assert entry["origin"] == "synthetic-context" and entry["provenance"] == recipe["origin_id"]
        assert annotated[tuple(recipe["phrase_src"])] == recipe["phrase_tgt"]
        src, tgt = L[entry["provenance"]]
        assert entry["source"] == src + recipe["phrase_src"]
        assert entry["target"] == tgt + recipe["phrase_tgt"]


def test_switch_replaces_a_window_of_its_retrieved_pair_with_an_annotated_phrase_pair(stock_toy, tmp_path):
    config = toy_config(stock_toy, augment_recipe="switch", output_dir=str(tmp_path / "runs"))
    [report] = run_pipeline(config)
    run_dir = tmp_path / "runs" / f"budget-{report.budget}"
    L = {i: tuple(tuple(side.split()) for side in line.split("\t"))
         for i, line in enumerate((stock_toy / "L.tsv").read_text().splitlines())}
    annotated = {tuple(tuple(side.split()) for side in line.split("\t"))
                 for line in (run_dir / "phrases.tsv").read_text().splitlines()}
    entries = [json.loads(line) for line in (run_dir / "manifest.jsonl").read_text().splitlines()]
    synthetic = [e for e in entries if e["origin"].startswith("synthetic")]
    recipes = [json.loads(line) for line in (run_dir / "synthetic.recipes.jsonl").read_text().splitlines()]
    assert synthetic and len(synthetic) == len(recipes) == report.counts["manifest:synthetic-switch"]
    for entry, recipe in zip(synthetic, recipes):
        assert entry["origin"] == "synthetic-switch" and entry["provenance"] == recipe["origin_id"]
        phrase_src, phrase_tgt = tuple(recipe["phrase_src"]), tuple(recipe["phrase_tgt"])
        assert (phrase_src, phrase_tgt) in annotated
        x, y = L[entry["provenance"]]
        assert 0 <= recipe["position"] < len(x) - len(phrase_src)
        assert tuple(entry["source"]) == switch(x, phrase_src, recipe["position"])
        j_min, j_max = recipe["target_span"]
        assert tuple(entry["target"]) == y[:j_min] + phrase_tgt + y[j_max + 1:]


def test_an_empty_labeled_file_fails_the_phrase_oracle_naming_it(toy_dir, tmp_path, capsys):
    """IBM-1, trained on L, aligns the oracle's phrases: with no labeled pair, a
    phrase selection fails in ``almt oracle`` and ``almt pipeline``, naming the file.
    CSSE alone and ``almt mix`` train no IBM-1, and run."""
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    no_vectors = tmp_path / "emb_empty.tsv"
    no_vectors.write_text("dim=8\n")
    selection = tmp_path / "sel.jsonl"
    selection.write_text('{"kind": "sentence", "id": 1}\n{"kind": "phrase", "tokens": ["d00"]}\n')
    assert main(["oracle", "--selection", str(selection), "--reference", str(toy_dir / "reference.tsv"),
                 "--labeled", str(empty), "--output-prefix", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"stage failure: {empty}: no labeled pairs" in err and "Traceback" not in err
    for strategy, code in [("ngf-smp", 3), ("hybrid", 3), ("csse", 0)]:
        config = _config_file(toy_dir, tmp_path, strategy=strategy, labeled=str(empty),
                              embeddings_labeled=str(no_vectors), output_dir=str(tmp_path / strategy))
        assert main(["pipeline", "--config", str(config), "--budget", "40"]) == code
        err = capsys.readouterr().err
        assert (f"stage failure: {empty}: no labeled pairs" in err) is (code == 3) and "Traceback" not in err
    assert main(["mix", "--labeled", str(empty), "--policy", "sample", "--size", "0",
                 "--output", str(tmp_path / "freeze.jsonl")]) == 0


def test_freeze_file_run_reads_no_embeddings(stock_toy, tmp_path, capsys):
    freeze = tmp_path / "frozen.jsonl"
    freeze.write_text("".join(json.dumps({"id": sid}) + "\n" for sid in (7, 3, 11)))
    config = _config_file(stock_toy, tmp_path, strategy="ngf-smp", augment_recipe=None,
                          freeze_file=str(freeze), embeddings_unlabeled=None,
                          embeddings_labeled=None, output_dir=str(tmp_path / "runs"))
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out == "config valid\n"
    assert main(["pipeline", "--config", str(config)]) == 0
    pairs = {i: tuple(line.split("\t")) for i, line in
             enumerate((stock_toy / "L.tsv").read_text().splitlines())}
    retrieved = [json.loads(line) for line in
                 (tmp_path / "runs" / "budget-200" / "manifest.jsonl").read_text().splitlines()]
    retrieved = [(e["provenance"], " ".join(e["source"]), " ".join(e["target"]))
                 for e in retrieved if e["origin"] == "retrieved"]
    assert retrieved == [(sid, *pairs[sid]) for sid in (7, 3, 11)]


_BAD_INPUTS = {  # key -> (file content, config overrides, exit code of almt pipeline)
    "oracle_reference": ("only-one-column\n", {}, 3),
    "rttl_scores": ("x\ty\n", {"strategy": "rttl"}, 3),
    "freeze-without-id": ('{"id": 1}\n{"pair": 2}\n', {}, 3),
    "freeze-unknown-id": ('{"id": 999999}\n', {}, 2),
    "freeze-bool-and-float-ids": ('{"id": true}\n{"id": 2.0}\n', {}, 3),
}


@pytest.mark.parametrize("bad", list(_BAD_INPUTS))
def test_each_input_is_read_at_load_and_its_failure_reported_once(bad, toy_dir, tmp_path, capsys):
    content, overrides, code = _BAD_INPUTS[bad]
    path = tmp_path / "bad.txt"
    path.write_text(content)
    key = "freeze_file" if bad.startswith("freeze") else bad
    config = _config_file(toy_dir, tmp_path, **overrides, **{key: str(path)},
                          output_dir=str(tmp_path / "runs"))
    assert main(["validate", "--config", str(config)]) == 2
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith(f"FAIL: {path}")
    assert main(["pipeline", "--config", str(config), "--budget", "40"]) == code
    assert (tmp_path / "runs" / "budget-40" / "failed").read_text().startswith("stage: load\n")


@pytest.mark.parametrize("directory", [False, True])
def test_validate_reports_a_malformed_l_once_although_frozen_reads_it(directory, toy_dir, tmp_path, capsys):
    labeled = tmp_path / "L.tsv"
    if directory:
        labeled.mkdir()
    else:
        labeled.write_text("one column\n")
    freeze = tmp_path / "frozen.jsonl"
    freeze.write_text('{"id": 0}\n')
    config = _config_file(toy_dir, tmp_path, labeled=str(labeled), freeze_file=str(freeze))
    assert main(["validate", "--config", str(config)]) == 2
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith(f"FAIL: labeled path missing or unreadable: {labeled}" if directory
                           else f"FAIL: {labeled}:1: ")


def test_a_run_does_not_read_files_it_does_not_need(stock_toy, tmp_path, capsys):
    bad = tmp_path / "emb_bad.tsv"
    bad.write_text("dim=eight\n0\t1.0\n")
    digests = []
    for name, embeddings in [("bad", (str(stock_toy / "emb_U.tsv"), str(bad))), ("none", (None, None))]:
        (tmp_path / name).mkdir()
        config = _config_file(stock_toy, tmp_path / name, strategy="ngf-smp", mix_policy="sample",
                              augment_recipe=None, embeddings_unlabeled=embeddings[0],
                              embeddings_labeled=embeddings[1], output_dir=str(tmp_path / name / "runs"))
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["pipeline", "--config", str(config)]) == 0
        report = tmp_path / name / "runs" / "budget-200" / "report.json"
        digests.append(json.loads(report.read_text())["digests"])
    assert digests[0] == digests[1]
    reference = tmp_path / "ref.tsv"
    reference.write_text("only-one-column\n")
    config = _config_file(stock_toy, tmp_path, simulate_only=True, oracle_reference=str(reference))
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "config valid"


def test_budget_independent_reads_happen_once(stock_toy, tmp_path, monkeypatch):
    from almt import mix, select
    calls = {"load_freeze": 0, "load_rttl_scores": 0}
    for owner, name in [(mix, "load_freeze"), (select, "load_rttl_scores")]:
        def counting(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    freeze = tmp_path / "frozen.jsonl"
    freeze.write_text('{"id": 4}\n{"id": 2}\n')
    config = toy_config(stock_toy, budgets=[40, 80, 120], sentence_strategy="rttl",
                        freeze_file=str(freeze), output_dir=str(tmp_path / "runs"))
    assert len(run_pipeline(config)) == 3
    assert calls == {"load_freeze": 1, "load_rttl_scores": 1}


def _zero_l_vector(out):
    """The stock toy at 30 L pairs, whose L id 0 has a zero vector, and its config."""
    config = toy.generate(out, seed=7, n_labeled=30)
    emb = Path(config["embeddings_labeled"])
    header, *rows = emb.read_text().splitlines()
    dim = int(header.split("=")[1])
    rows = [f"0\t{' '.join(['0.0'] * dim)}" if row.split("\t")[0] == "0" else row for row in rows]
    emb.write_text("\n".join([header, *rows]) + "\n")
    config.update(labeled_subset_size=30, budgets=[400], output_dir=str(Path(out) / "runs"))
    return config


def test_pipeline_mixes_the_usable_pool_when_a_labeled_vector_is_zero(tmp_path, capsys):
    config = _zero_l_vector(tmp_path)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "runs" / "budget-400" / "report.json").read_text())
    assert report["counts"]["translated_phrases"] >= 30
    assert report["counts"]["mixed_pairs"] == 29
    assert report["dropped"]["mix:degenerate"] == 1
    freeze = (tmp_path / "runs" / "budget-400" / "retrieved.freeze.jsonl").read_text()
    assert '{"id": 0}' not in freeze.splitlines()


def test_cli_mix_size_beyond_the_usable_pool_exits_2(tmp_path, capsys):
    config = _zero_l_vector(tmp_path)
    args = ["mix", "--labeled", config["labeled"], "--embeddings-labeled", config["embeddings_labeled"],
            "--embeddings-unlabeled", config["embeddings_unlabeled"], "--output", str(tmp_path / "f.jsonl")]
    assert main([*args, "--size", "30"]) == 2
    err = capsys.readouterr().err
    assert "--size 30 exceeds the usable pool of 29 pairs (1 skipped as degenerate)" in err
    assert "Traceback" not in err
    assert main([*args, "--size", "29"]) == 0


@pytest.mark.parametrize("edit, fault", [
    pytest.param(lambda rows: [f"{r.split()[0]}\tnan" if r.split()[0] in ("5", "6") else r
                               for r in rows], "6: NaN score", id="nan"),  # id 5 is on line 6
    pytest.param(lambda rows: [*rows, "", "5\t-3.0"], "202: duplicate id 5", id="repeated-id"),
])
def test_cli_select_rttl_nan_or_repeated_id_exits_3_naming_the_line(edit, fault, stock_toy,
                                                                   tmp_path, capsys):
    scores = tmp_path / "rttl.tsv"
    rows = (stock_toy / "rttl_scores.tsv").read_text().splitlines()
    assert len(rows) == 200
    scores.write_text("\n".join(edit(rows)) + "\n")
    assert main(["select", "--strategy", "rttl", "--unlabeled", str(stock_toy / "U.txt"),
                 "--rttl-scores", str(scores), "--budget-words", "60",
                 "--output", str(tmp_path / "sel.jsonl")]) == 3
    err = capsys.readouterr().err
    assert f"{scores}:{fault}" in err and "Traceback" not in err


def test_cli_analyze_coverage_on_an_empty_test_file_exits_3(stock_toy, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["analyze", "coverage", "--covering", str(stock_toy / "U.txt"),
                 "--test", str(empty)]) == 3
    err = capsys.readouterr().err
    assert f"{empty}: test corpus is empty" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flags", [
    (["extract", "--input", "u", "--output", "o"], {"max_n": "max_n"}),
    (["select", "--strategy", "csse", "--unlabeled", "u", "--budget-words", "1", "--output", "o"],
     {"seed": "seed", "k": "k", "max_n": "max_n", "dist_mode": "dist_mode"}),
    (["mix", "--labeled", "l", "--size", "1", "--output", "o"],
     {"seed": "seed", "k": "k", "policy": "mix_policy"}),
    (["analyze", "coverage"], {"max_n": "max_n"}),
], ids=["extract", "select", "mix", "analyze"])
def test_stage_command_defaults_are_the_run_config_defaults(argv, flags, monkeypatch):
    """Each flag (parsed name -> RunConfig field) follows a changed field default."""
    from almt.cli import build_parser
    changed = {"max_n": 6, "seed": 3, "k": 2, "dist_mode": "nn", "mix_policy": "sample"}
    for key in flags.values():
        monkeypatch.setattr(RunConfig, key, changed[key])
    args = build_parser().parse_args(argv)
    assert {dest: getattr(args, dest) for dest in flags} == {
        dest: changed[key] for dest, key in flags.items()}


def test_cli_oracle_iterations_flag_is_gone(toy_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--selection", str(tmp_path / "sel.jsonl"), "--reference",
              str(toy_dir / "reference.tsv"), "--labeled", str(toy_dir / "L.tsv"),
              "--output-prefix", str(tmp_path / "o"), "--iterations", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --iterations 5" in capsys.readouterr().err


def test_pipeline_samples_l_once_and_each_budget_takes_the_seeded_draw(toy_dir, tmp_path,
                                                                       monkeypatch):
    import random
    from almt import select
    from almt.corpus import load_parallel
    calls = []
    shuffled = select.shuffled

    def spy(*args):
        calls.append(args)
        return shuffled(*args)
    monkeypatch.setattr(select, "shuffled", spy)
    config = toy_config(toy_dir, strategy="ngf-smp", mix_policy="sample", augment_recipe=None,
                        budgets=[40, 120, 80], output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(config)
    assert len(calls) == 1
    drawn = list(load_parallel(config.labeled))
    random.Random(config.seed).shuffle(drawn)
    for report in reports:
        freeze = tmp_path / "runs" / f"budget-{report.budget}" / "retrieved.freeze.jsonl"
        ids = [json.loads(line)["id"] for line in freeze.read_text().splitlines()]
        assert ids and ids == drawn[:report.counts["translated_phrases"]]


# --- inputs that disagree with their corpus, and repeated records ---

@pytest.fixture(scope="module")
def toy_seed_1(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy-seed-1")
    toy.generate(out, seed=1)
    return out


def _fails_at_load(command, config, named, tmp_path, capsys):
    """``command`` on ``config`` exits 2 naming ``named``, and a pipeline run marks its
    load stage failed."""
    assert main([command, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert named in out + err and "Traceback" not in out + err
    if command == "pipeline":
        assert (tmp_path / "runs" / "budget-200" / "failed").read_text().startswith("stage: load\n")


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_cli_embedding_file_with_ids_outside_its_corpus_exits_2(command, toy_seed_1, tmp_path,
                                                                capsys):
    """Vectors for ids that no L pair has would enter the k-NN means that mix
    ranks by, and would fail augment's lookup of the pair."""
    vectors = [row.split("\t")[1] for row in (toy_seed_1 / "emb_U.tsv").read_text().splitlines()[1:51]]
    extra = tmp_path / "emb_L.tsv"
    extra.write_text((toy_seed_1 / "emb_L.tsv").read_text()
                     + "".join(f"{10000 + i}\t{vec}\n" for i, vec in enumerate(vectors)))
    config = _config_file(toy_seed_1, tmp_path, embeddings_labeled=str(extra),
                          output_dir=str(tmp_path / "runs"))
    _fails_at_load(command, config, f"{extra}: vectors for 50 ids not in L, "
                   "first [10000, 10001, 10002, 10003, 10004]\n", tmp_path, capsys)


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_cli_rttl_file_without_the_last_u_ids_exits_2(command, toy_seed_1, tmp_path, capsys):
    rows = (toy_seed_1 / "rttl_scores.tsv").read_text().splitlines(keepends=True)
    gap = tmp_path / "rttl.tsv"
    gap.write_text("".join(rows[:-3]))
    config = _config_file(toy_seed_1, tmp_path, strategy="rttl", rttl_scores=str(gap),
                          output_dir=str(tmp_path / "runs"))
    _fails_at_load(command, config, f"{gap}: RTTL scores missing for ids of U, "
                   "first [197, 198, 199] of 3\n", tmp_path, capsys)


@pytest.mark.parametrize("scores, fault", [
    ("0\t-1.0\n", "RTTL scores missing for ids of U, first [1] of 1"),
    ("0\t-1.0\n1\t-2.0\n7\t-3.0\n", "RTTL scores for 1 ids not in U, first [7]"),
], ids=["missing", "extra"])
def test_rttl_scores_for_other_ids_than_u_rejected_at_load(scores, fault, tmp_path):
    from almt.errors import ConfigError
    from almt.pipeline import RunContext
    unlabeled, path = tmp_path / "U.txt", tmp_path / "rttl.tsv"
    unlabeled.write_text("a\nb\n")
    path.write_text(scores)
    context = RunContext(RunConfig(str(unlabeled), None, "rttl", [5], rttl_scores=str(path)))
    with pytest.raises(ConfigError) as info:
        context.rttl_scores  # the member that the load stage reads the file through
    assert str(info.value) == f"{path}: {fault}"


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_cli_reference_whose_source_is_not_the_u_sentence_exits_2(command, toy_seed_1, tmp_path,
                                                                  capsys):
    """A blank line prepended to U moves every U sentence to the next id; the
    embeddings follow it and the reference does not."""
    lines = (toy_seed_1 / "U.txt").read_text().splitlines(keepends=True)
    unlabeled = tmp_path / "U.txt"
    unlabeled.write_text("\n" + "".join(lines))
    header, *rows = (toy_seed_1 / "emb_U.tsv").read_text().splitlines(keepends=True)
    shifted = tmp_path / "emb_U.tsv"
    shifted.write_text(header + "".join(f"{int(sid) + 1}\t{vec}"
                                        for sid, vec in (row.split("\t") for row in rows)))
    config = _config_file(toy_seed_1, tmp_path, strategy="csse", unlabeled=str(unlabeled),
                          embeddings_unlabeled=str(shifted), output_dir=str(tmp_path / "runs"))
    first = next(i for i in range(1, len(lines)) if lines[i] != lines[i - 1])
    _fails_at_load(command, config, f"{toy_seed_1 / 'reference.tsv'}: the source of pair {first} "
                   f"is not U sentence {first}", tmp_path, capsys)


def test_reference_and_u_ids_of_only_one_file_are_allowed(toy_seed_1, tmp_path, capsys):
    lines = (toy_seed_1 / "U.txt").read_text().splitlines(keepends=True)
    unlabeled = tmp_path / "U.txt"
    unlabeled.write_text("".join(lines[:5]) + "\n" + "".join(lines[6:]))  # no U id 5
    reference = tmp_path / "reference.tsv"
    reference.write_text("".join((toy_seed_1 / "reference.tsv").read_text().splitlines(keepends=True)[:-1]))
    embeddings = tmp_path / "emb_U.tsv"
    embeddings.write_text("".join(row for row in (toy_seed_1 / "emb_U.tsv").read_text()
                                  .splitlines(keepends=True) if not row.startswith("5\t")))
    config = _config_file(toy_seed_1, tmp_path, unlabeled=str(unlabeled), oracle_reference=str(reference),
                          embeddings_unlabeled=str(embeddings))
    assert main(["validate", "--config", str(config)]) == 0
    assert capsys.readouterr().out == "config valid\n"


def test_validate_freeze_file_with_a_repeated_id_exits_2_naming_the_line(toy_dir, tmp_path, capsys):
    freeze = tmp_path / "freeze.jsonl"
    freeze.write_text('{"id": 3}\n{"id": 3}\n')
    config = _config_file(toy_dir, tmp_path, freeze_file=str(freeze))
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().out == f"FAIL: {freeze}:2: duplicate id 3\n"


@pytest.mark.parametrize("strategy, named", [("ngf-smp", "duplicate phrase ("),
                                             ("random-sent", "duplicate sentence ")])
def test_cli_oracle_selection_with_a_repeated_line_exits_3_naming_it(strategy, named, toy_dir,
                                                                     tmp_path, capsys):
    selection = tmp_path / "sel.jsonl"
    assert main(["select", "--strategy", strategy, "--unlabeled", str(toy_dir / "U.txt"),
                 "--labeled", str(toy_dir / "L.tsv"), "--budget-words", "20",
                 "--output", str(selection)]) == 0
    lines = selection.read_text().splitlines(keepends=True)
    selection.write_text("".join(lines[:1] + lines))
    capsys.readouterr()
    assert main(["oracle", "--selection", str(selection), "--reference",
                 str(toy_dir / "reference.tsv"), "--labeled", str(toy_dir / "L.tsv"),
                 "--output-prefix", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"{selection}:2: {named}" in err and "Traceback" not in err


def test_cli_oracle_against_a_reference_that_lacks_selected_ids_exits_3(toy_dir, tmp_path, capsys):
    """The message lists the missing ids sorted, the first 10 of them, then "..."."""
    missing = list(range(11, -1, -1))
    selection = tmp_path / "sel.jsonl"
    selection.write_text("".join(json.dumps({"kind": "sentence", "id": sid}) + "\n" for sid in missing))
    lines = (toy_dir / "reference.tsv").read_text().splitlines(keepends=True)
    reference = tmp_path / "reference.tsv"
    reference.write_text("".join("\n" if i in missing else line for i, line in enumerate(lines)))
    assert main(["oracle", "--selection", str(selection), "--reference", str(reference),
                 "--labeled", str(toy_dir / "L.tsv"), "--output-prefix", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        "stage failure: reference corpus is missing 12 selected ids: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]...\n"


# --- a sweep writes what single-budget runs write, encoding each record once ---

def test_a_sweep_fails_at_the_first_budget_that_selects_a_sentence_the_reference_lacks(
        toy_dir, tmp_path):
    from almt import select
    from almt.errors import AlmtError
    from almt.pipeline import RunContext
    config = toy_config(toy_dir, budgets=[40, 120, 200], output_dir=str(tmp_path / "runs"))
    rankings = RunContext(config).rankings
    first = {s.id for s in select.cut(rankings, 40).sentences}
    gap = next(s.id for s in select.cut(rankings, 120).sentences if s.id not in first)
    lines = (toy_dir / "reference.tsv").read_text().splitlines(keepends=True)
    lines[gap] = "\n"  # ids are line numbers, so every other pair keeps its id
    config.oracle_reference = str(tmp_path / "reference.tsv")
    Path(config.oracle_reference).write_text("".join(lines))
    with pytest.raises(AlmtError) as exc:
        run_pipeline(config)
    assert str(exc.value) == f"reference corpus is missing 1 selected ids: [{gap}]"
    runs = tmp_path / "runs"
    assert json.loads((runs / "budget-40" / "report.json").read_text())["counts"]["manifest_entries"]
    assert not (runs / "budget-40" / "failed").exists()
    assert (runs / "budget-120" / "failed").read_text().startswith("stage: oracle\n")
    assert not (runs / "budget-120" / "report.json").exists()
    assert not (runs / "budget-200").exists()


def test_respond_raises_on_a_phrase_outside_the_largest_cut(toy_dir):
    """The oracle translates the phrases of the run's largest cut, once; a phrase
    beyond that cut has no answer, and it raises rather than vanish from the manifest."""
    from almt import select
    from almt.pipeline import RunContext, respond
    context = RunContext(toy_config(toy_dir, strategy="ngf-smp", budgets=[40]))
    beyond = select.cut(context.rankings, 120)
    assert len(beyond.phrases) > len(context.selection.phrases)
    with pytest.raises(KeyError):
        respond(context, beyond, lambda names, records: None)


def _budget_output(run_dir):
    """A budget directory's files but its report, and the report's fields that
    depend on the run's data, not on its timing or output directory."""
    report = json.loads((run_dir / "report.json").read_text())
    files = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "report.json"}
    return files, {key: report[key] for key in ("counts", "ledger", "dropped", "digests")}


@pytest.mark.parametrize("overrides", [
    {},
    {"augment_recipe": "contextualize"},
    {"strategy": "ngf-smp", "mix_policy": "sample"},
    {"freeze_file": "freeze.jsonl"},
    {"strategy": "csse", "simulate_only": True},
], ids=["hybrid-switch", "hybrid-contextualize", "ngf-smp-sample", "freeze-file", "csse-simulate"])
def test_a_sweep_in_any_budget_order_writes_what_single_budget_runs_write(overrides, toy_dir, tmp_path):
    """Each budget writes prefixes of lines encoded once per run, extended by the
    first budget that needs more: a sweep that starts at its largest budget, then
    goes down and up again, writes every budget's bytes as a run of that budget alone."""
    if "freeze_file" in overrides:
        freeze = tmp_path / overrides["freeze_file"]
        freeze.write_text("".join(f'{{"id": {i}}}\n' for i in (17, 3, 150, 42)))
        overrides = dict(overrides, freeze_file=str(freeze))
    budgets = [200, 40, 120]
    run_pipeline(toy_config(toy_dir, budgets=budgets, output_dir=str(tmp_path / "sweep"), **overrides))
    selections = set()
    for b in budgets:
        run_pipeline(toy_config(toy_dir, budgets=[b], output_dir=str(tmp_path / f"alone-{b}"), **overrides))
        files, report = _budget_output(tmp_path / "sweep" / f"budget-{b}")
        assert (files, report) == _budget_output(tmp_path / f"alone-{b}" / f"budget-{b}")
        selections.add(files["selection.jsonl"])
    assert len(selections) == len(budgets)


def test_a_sweep_encodes_each_record_once(toy_dir, tmp_path, monkeypatch):
    """A [40, 120, 80] sweep encodes the records of budget 120, which hold those of
    40 and 80, once each: as many encoder calls as a run of 120 alone, but for the
    synthetic pairs, which each budget encodes for its own manifest."""
    from collections import Counter
    from almt import mix, oracle, select
    calls = Counter()
    for module, name in [(select, "encode_pick"), (oracle, "encode_response"),
                         (mix, "encode_id"), (mix, "encode_entry")]:
        def counted(*args, _encode=getattr(module, name), _name=name):
            calls[_name] += 1
            return _encode(*args)
        monkeypatch.setattr(module, name, counted)

    def encoded(budgets):
        calls.clear()
        reports = run_pipeline(toy_config(toy_dir, budgets=budgets,
                                          output_dir=str(tmp_path / "-".join(map(str, budgets)))))
        return dict(calls), {r.budget: r.counts["synthetic_pairs"] for r in reports}

    (sweep, synthetic), (alone, _) = encoded([40, 120, 80]), encoded([120])
    assert synthetic[40] and synthetic[80] and all(alone.values())
    assert sweep == dict(alone, encode_entry=alone["encode_entry"] + synthetic[40] + synthetic[80])
