import json
from pathlib import Path

import pytest

from almt import toy
from almt.cli import main
from almt.pipeline import RunConfig, run_pipeline, validate_config


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


@pytest.mark.parametrize("key, value", [("max_n", 0), ("k", 0), ("ibm1_iterations", 0), ("lm_order", 0),
                                        ("dist_mode", "Literal"), ("mix_policy", "all"),
                                        ("augment_recipe", "swap")])
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


def test_validate_dim_mismatch(toy_dir, tmp_path):
    bad = tmp_path / "emb_bad.tsv"
    bad.write_text("dim=3\n0\t1.0 0.0 0.0\n")
    config = toy_config(toy_dir, embeddings_labeled=str(bad))
    assert any("dimension mismatch" in f for f in validate_config(config))


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"unlabeled": "u", "labeled": "l", "strategy": "csse", "budgets": [5], "bogus_key": 1}')
    from almt.errors import ConfigError
    with pytest.raises(ConfigError, match="bogus_key"):
        RunConfig.load(path)


def test_config_roundtrip(toy_dir, tmp_path):
    config = toy_config(toy_dir)
    config.save(tmp_path / "c.json")
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
    # budget is respected up to one overshooting item on each side
    assert report.ledger["spent_sentences"] < report.ledger["sentence_share"] + 50
    assert not (run_dir / "failed").exists()
    assert not (run_dir / "lock").exists()


def test_pipeline_deterministic_digests(toy_dir, tmp_path):
    r1 = run_pipeline(toy_config(toy_dir, output_dir=str(tmp_path / "a")), budget=80)[0]
    r2 = run_pipeline(toy_config(toy_dir, output_dir=str(tmp_path / "b")), budget=80)[0]
    assert r1.digests == r2.digests


PHRASE_PATH_DIGESTS = {
    1: {
        "index_U": "7a15662a00da4d8eff68b1fa2d19926368dad8423458a9669988cf49606d8f43",
        "selection": "f0772e755ba92a72f344760368bab10c2a193e3e55d23c9586c76b04b61ffa34",
        "phrases": "8cf5479a877cf57400fb83a27b245c9c305493a835b1134690e93eb4d54161ca",
        "manifest_jsonl": "777417ea7f2fa96b7b594521204ab1b15a62ae16c211639ccd4387fdd1ba8c8e",
    },
    2: {
        "index_U": "108bdd890ee993ea9b49bc3550824ee29cd1fb998d153cc7769e2a6275e14ce4",
        "selection": "b8d116791753341fa08f851d11ae0aa5d0c9f0ff763ecd2b30bf98f886cb1c11",
        "phrases": "bf6490440e047d9f482df4c25cc13706ea93b363dedc08228f0960a7e97c6ac9",
        "manifest_jsonl": "8629baa39baeb5094651b119b9085d01394fddfaaedc97a7e648117254500131",
    },
    7: {
        "index_U": "50a88ed3063b0c511bf116c67ba84113b65bbeb9f66e2561bcb03120532556b4",
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

def test_cli_extract(toy_dir, tmp_path, capsys):
    out = tmp_path / "index.tsv"
    assert main(["extract", "--input", str(toy_dir / "U.txt"),
                 "--max-n", "2", "--output", str(out)]) == 0
    assert out.exists() and "phrases" in capsys.readouterr().out


def test_cli_select_ngf(toy_dir, tmp_path, capsys):
    out = tmp_path / "sel.jsonl"
    assert main(["select", "--strategy", "ngf", "--unlabeled", str(toy_dir / "U.txt"),
                 "--labeled", str(toy_dir / "L.tsv"), "--budget-words", "20",
                 "--output", str(out)]) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert recs and all(r["kind"] == "phrase" for r in recs)


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
    calls = {"train_ibm1": 0, "select_hybrid": 0, "RatioScorer": 0}

    def counting(owner, name, key=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(align, "train_ibm1")
    counting(select, "select_hybrid")
    counting(RatioScorer, "__init__", "RatioScorer")
    config = toy_config(toy_dir, budgets=[40, 120, 80], output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(config)
    assert [r.budget for r in reports] == [40, 120, 80]
    # L′ is 100 of L's 200 ids, so CSSE has its own U × L′ scorer; mix and
    # augment share the U × L one, not one per budget
    assert calls == {"train_ibm1": 1, "select_hybrid": 1, "RatioScorer": 2}
    # build time is charged to the first budget's report only
    assert reports[1].stages["align"] < reports[0].stages["align"]


def test_pipeline_builds_one_scorer_when_l_prime_is_all_of_l(toy_dir, tmp_path, monkeypatch):
    from almt import mix
    from almt.embed import RatioScorer
    built, ranked_by = [], []
    init, retrieve = RatioScorer.__init__, mix.retrieve_similar

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spying(parallel, scorer, m):
        ranked_by.append(scorer)
        return retrieve(parallel, scorer, m)
    monkeypatch.setattr(RatioScorer, "__init__", counting)
    monkeypatch.setattr(mix, "retrieve_similar", spying)
    config = toy_config(toy_dir, budgets=[40, 120], labeled_subset_size=200,
                        output_dir=str(tmp_path / "runs"))
    run_pipeline(config)
    # CSSE, mix and augment all read one U × L scorer; mix reads its transposed view
    assert len(built) == 1 and ranked_by == [built[0].T] * 2


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


def test_pipeline_stale_lock_names_dead_owner(toy_dir, tmp_path):
    import subprocess
    import sys
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    config = toy_config(toy_dir, simulate_only=True, output_dir=str(tmp_path / "runs"))
    run_dir = tmp_path / "runs" / "budget-50"
    run_dir.mkdir(parents=True)
    (run_dir / "lock").write_text(str(dead.pid))
    from almt.errors import ConfigError
    with pytest.raises(ConfigError, match="locked") as info:
        run_pipeline(config, budget=50)
    assert "not running" in str(info.value) and str(dead.pid) in str(info.value)


def test_pipeline_failed_names_stage_and_traceback(toy_dir, tmp_path):
    bad_ref = tmp_path / "ref.tsv"
    bad_ref.write_text("only-one-column\n")
    config = toy_config(toy_dir, oracle_reference=str(bad_ref),
                        output_dir=str(tmp_path / "runs"))
    with pytest.raises(Exception):
        run_pipeline(config, budget=40)
    run_dir = tmp_path / "runs" / "budget-40"
    failed = (run_dir / "failed").read_text()
    assert failed.startswith("stage: oracle\n")
    assert "Traceback (most recent call last)" in failed and "ParseError" in failed
    assert not (run_dir / "lock").exists()


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
    assert (tmp_path / "runs" / "budget-40" / "failed").read_text().startswith("stage: mix\n")


def test_validate_unreadable_embedding_header(toy_dir, tmp_path):
    bad = tmp_path / "emb_bad.tsv"
    bad.write_text("dim=eight\n0\t1.0\n")
    config = toy_config(toy_dir, embeddings_labeled=str(bad))
    assert any("embedding header unreadable" in f for f in validate_config(config))


def test_validate_does_not_swallow_bugs_in_header_check(toy_dir, monkeypatch):
    from almt import pipeline

    def broken(path):
        raise RuntimeError("bug")
    monkeypatch.setattr(pipeline, "_peek_dim", broken)
    with pytest.raises(RuntimeError, match="bug"):
        validate_config(toy_config(toy_dir))


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

    def spy(phrases, reference, table):
        calls.append(len(phrases))
        return translate(phrases, reference, table)
    monkeypatch.setattr(oracle, "translate_phrases", spy)
    # the oracle drops 8 of the phrases selected at 40 and 120, and 1 of those at 3
    config = toy_config(toy_dir, budgets=[3, 120, 40], output_dir=str(tmp_path / "runs"))
    reports = run_pipeline(config)
    assert len(calls) == 1  # the phrases of the ranking made at budget 120
    monkeypatch.undo()
    reference = load_parallel(config.oracle_reference, "ref")
    table = align.train_ibm1(load_parallel(config.labeled, "L"), config.ibm1_iterations)
    for report in reports:
        run_dir = tmp_path / "runs" / f"budget-{report.budget}"
        phrases = [tuple(rec["tokens"]) for rec in map(json.loads, (run_dir / "selection.jsonl")
                   .read_text().splitlines()) if rec["kind"] == "phrase"]
        assert phrases and len(phrases) <= calls[0]
        responses, drops = oracle.translate_phrases(phrases, reference, table)
        written = [json.loads(l) for l in (run_dir / "phrases.provenance.jsonl").read_text().splitlines()]
        assert written == [{"source": list(r.source), "target": list(r.target),
                            "provenance": list(r.provenance), "votes": r.votes} for r in responses]
        assert report.dropped.get("oracle:phrases", {}) == {" ".join(p): r for p, r in drops.items()}


def test_pipeline_serialises_index_U_once_and_writes_it_per_budget(toy_dir, tmp_path, monkeypatch):
    from almt.ngrams import OccurrenceIndex
    serialised = []
    serialise = OccurrenceIndex.tsv.func

    def counting(index):
        serialised.append(index)
        return serialise(index)
    monkeypatch.setattr(OccurrenceIndex.tsv, "func", counting)
    config = toy_config(toy_dir, budgets=[40, 120, 80], simulate_only=True,
                        output_dir=str(tmp_path / "runs"))
    run_pipeline(config)
    assert len(serialised) == 1
    written = {(tmp_path / "runs" / f"budget-{b}" / "index_U.tsv").read_bytes() for b in (40, 120, 80)}
    assert written == {serialised[0].tsv}


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


@pytest.mark.parametrize("record", ["not json", '{"id": 3}', '{"kind": "phrase"}', "[1]"])
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
      for row, problem in [("1\tx\t0.5", "non-numeric cell"), ("1\t0.5", "expected 3 columns, got 2")]),
    # a table no correlation can be computed from, named by its file
    pytest.param("", "", "no rows", id="empty-file"),
    pytest.param("1\t2\n", "", "need at least 2 points", id="one-row"),
    pytest.param("1\t2\n1\t3\n", "", "zero variance", id="constant-column"),
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
    assert (tmp_path / "runs" / "budget-40" / "failed").read_text().startswith("stage: mix\n")


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
                 "--iterations", str(config.ibm1_iterations), "--output-prefix", str(prefix)]) == 0
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


@pytest.mark.parametrize("argv, named", [
    (["mix", "--policy", "sample", "--size", "100000"], "--size"),
    (["mix", "--policy", "retrieve", "--size", "5"], "--embeddings-unlabeled, --embeddings-labeled"),
    (["oracle", "--iterations", "0"], "--iterations"),
    (["select", "--k", "0"], "--k"),
    (["select", "--max-n", "0"], "--max-n"),
    (["select", "--budget-words", "0"], "--budget-words"),
    (["analyze", "coverage", "--test", "test.txt"], "requires --covering"),
    (["analyze", "bleu"], "requires --hypotheses, --references"),
], ids=["mix-size", "mix-retrieve-embeddings", "oracle-iterations", "select-k", "select-max-n",
        "select-budget-words", "analyze-coverage", "analyze-bleu"])
def test_cli_stage_command_with_a_bad_flag_exits_2(argv, named, toy_dir, tmp_path, capsys):
    selection = tmp_path / "sel.jsonl"
    selection.write_text('{"kind": "sentence", "id": 0}\n')
    valid = {  # every other flag the command needs; a later flag overrides an earlier one
        "mix": ["--labeled", str(toy_dir / "L.tsv"), "--output", str(tmp_path / "freeze.jsonl")],
        "oracle": ["--selection", str(selection), "--reference", str(toy_dir / "reference.tsv"),
                   "--labeled", str(toy_dir / "L.tsv"), "--output-prefix", str(tmp_path / "o")],
        "select": ["--strategy", "ngf", "--unlabeled", str(toy_dir / "U.txt"),
                   "--labeled", str(toy_dir / "L.tsv"), "--budget-words", "20",
                   "--output", str(tmp_path / "sel.out.jsonl")],
        "analyze": [],
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
    ("select-csse", 3, "{bad}:1: expected 'dim=D' header"),
    ("mix-retrieve", 3, "{bad}:1: expected 'dim=D' header"),
    ("validate", 2, "{bad}:1: expected 'dim=D' header"),
])
def test_cli_bad_value_or_embedding_header_exits_without_traceback(command, code, named, toy_dir,
                                                                    tmp_path, capsys):
    bad, hyp = tmp_path / "emb_bad.tsv", tmp_path / "hyp.txt"
    bad.write_text("dim=eight\n0\t1.0\n")
    hyp.write_text("".join((toy_dir / "U.txt").read_text().splitlines(keepends=True)[:5]))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**json.loads((toy_dir / "config.json").read_text()),
                                  "embeddings_labeled": str(bad)}))
    u, l, emb_u = (str(toy_dir / name) for name in ("U.txt", "L.tsv", "emb_U.tsv"))
    argv = {
        "extract": ["extract", "--input", u, "--max-n", "0", "--output", str(tmp_path / "i.tsv")],
        "coverage": ["analyze", "coverage", "--covering", u, "--test", u, "--max-n", "0"],
        "length-ratio": ["analyze", "length-ratio", "--hypotheses", str(hyp), "--references", u],
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
    assert named.format(bad=bad, hyp=hyp, u=u) in message and "Traceback" not in out + err
