"""almt benchmark: end-to-end pipeline metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload hybrid-switch --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. The benchmark sets up the workload's fixture five times, each
in a fresh interpreter (setup_s), then runs run_pipeline in a fresh process
per repeat, one at a time, until --seconds have passed (at least two repeats).
Every repeat's outputs are checked; a repeat that fails a check counts as
failed. The last line of stdout is the JSON result; the lines before it are a
readable summary, and .bench_work/<workload>-s<seed>-t<trace>/record.json
keeps the full record. See README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics, self_check
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPEATS = 5
MIN_REPEATS = 2
DEADLINE_S = 170.0  # the whole invocation must end within 180 s

END_TO_END = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "exact_pair_share": "ratio"}


def unit_of(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fixture_digests(fixture_dir):
    """sha256 of every generated file except the config, whose paths name the directory."""
    return {p.name: sha256(p) for p in sorted(Path(fixture_dir).iterdir())
            if p.is_file() and p.name not in ("config.json", "bench_config.json")}


def environment(seed):
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": src.hexdigest(), "seed": seed}


def read_pairs(path):
    """Line index -> (source tokens, target tokens), as almt.corpus numbers them."""
    pairs = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            if line.strip():
                src, tgt = line.rstrip("\n").split("\t")
                pairs[lineno] = (src.split(), tgt.split())
    return pairs


def check_repeat(out_dir, config, truth):
    """Check one repeat's outputs. Returns (problems, reports, wrong, entries)."""
    problems, reports = [], []
    wrong = entries = 0
    for b in config["budgets"]:
        run_dir = Path(out_dir) / f"budget-{b}"
        report_path = run_dir / "report.json"
        if (run_dir / "failed").exists() or not report_path.exists():
            problems.append(f"budget {b}: no report")
            continue
        report = json.loads(report_path.read_text(encoding="utf-8"))
        reports.append(report)
        ledger = report["ledger"]
        if ledger["spent_sentences"] + ledger["spent_phrases"] < ledger["total"] \
                and not ledger["exhausted"]:
            problems.append(f"budget {b}: spend below budget and not exhausted")
        if config.get("simulate_only"):
            continue
        counts = report["counts"]
        by_origin = {k[len("manifest:"):]: v for k, v in counts.items() if k.startswith("manifest:")}
        if sum(by_origin.values()) != counts["manifest_entries"]:
            problems.append(f"budget {b}: per-origin counts do not sum to manifest_entries")
        if not (run_dir / "manifest.jsonl").exists():
            problems.append(f"budget {b}: no manifest.jsonl")
            continue
        seen, mismatched = {}, {}
        with open(run_dir / "manifest.jsonl", encoding="utf-8") as fh:
            for line in fh:
                e = json.loads(line)
                seen[e["origin"]] = seen.get(e["origin"], 0) + 1
                source = {"annotated-sentence": "reference", "retrieved": "labeled",
                          "sampled": "labeled"}.get(e["origin"])
                if source and truth[source].get(e["provenance"]) != (e["source"], e["target"]):
                    mismatched.setdefault(e["origin"], []).append(e["provenance"])
                entries += 1
                wrong += e["target"] != [truth["translate"](t) for t in e["source"]]
        for origin, ids in mismatched.items():
            problems.append(f"budget {b}: {len(ids)} {origin} entries differ from their input pair "
                            f"(first id {ids[0]})")
        if {k: v for k, v in by_origin.items() if v} != seen:
            problems.append(f"budget {b}: manifest.jsonl origins {seen} != report counts {by_origin}")
    return problems, reports, wrong, entries


def median(values):
    return statistics.median(values) if values else 0.0


def supported_percentile(n):
    """Highest whole percentile above the median with at least ten samples beyond it."""
    q = int(100 * (1 - 10 / n)) if n else 0
    return q if q > 50 else None


def timing_line(name, values):
    line = f"{name}: median {median(values):.4f} s over n={len(values)}"
    if values:
        line += f" (min {min(values):.4f}, max {max(values):.4f})"
    q = supported_percentile(len(values))
    if q:
        line += f"; p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} s"
    else:
        line += "; no percentile above the median has ten samples beyond it at this n"
    return line


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "almt" / "pipeline.py").is_file():
        fail(f"no almt sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    from almt.toy import translate_token

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed)}
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(record["env"], sort_keys=True))

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    # Set-up: fresh interpreter -> import + toy.generate + validate_config.
    setup_s, digests = [], []
    for i in range(SETUP_REPEATS):
        fixture = work / f"fixture-{i}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CHILD), "setup", "--root", str(ROOT),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--dir", str(fixture)],
                              capture_output=True, text=True, timeout=remaining())
        setup_s.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            sys.exit(1)
        digests.append(fixture_digests(fixture))
    setup_problems = [] if all(d == digests[0] for d in digests) else \
        ["toy.generate wrote different fixtures for one seed"]
    for i in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"fixture-{i}")
    fixture = work / "fixture-0"
    record["fixture_sha256"] = digests[0]
    print("fixture_sha256: " + json.dumps(digests[0], sort_keys=True))
    print(timing_line("setup_s", setup_s))

    config = json.loads((fixture / "bench_config.json").read_text(encoding="utf-8"))
    with open(config["unlabeled"], encoding="utf-8") as fh:
        n_unlabeled = sum(1 for line in fh if line.strip())
    truth = {"reference": read_pairs(config["oracle_reference"]),
             "labeled": read_pairs(config["labeled"]), "translate": translate_token}

    # Closed loop, one client: each repeat starts after the previous one ended.
    repeats = []
    measure_start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - measure_start < args.seconds:
        i = len(repeats)
        traced = bool(args.trace and i % 2)
        out_dir, result_path = work / f"run-{i}", work / f"repeat-{i}.json"
        rep = {"index": i, "traced": traced, "problems": list(setup_problems)}
        repeats.append(rep)
        cmd = [sys.executable, str(CHILD), "run", "--root", str(ROOT),
               "--config", str(fixture / "bench_config.json"), "--output-dir", str(out_dir),
               "--result", str(result_path)] + (["--trace"] if traced else [])
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(remaining(), 1))
        except subprocess.TimeoutExpired:
            rep["problems"].append("timed out")
            break
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            rep["problems"].append(f"pipeline exited with code {proc.returncode}: {last}")
        else:
            child = json.loads(result_path.read_text(encoding="utf-8"))
            rep.update(run_s=child["run_s"], peak_rss_mb=child["peak_rss_mb"])
            problems, reports, rep["wrong"], rep["entries"] = check_repeat(out_dir, config, truth)
            rep["problems"] += problems
            rep["digests"] = {r["budget"]: r["digests"] for r in reports}
            if traced:
                missed = self_check(child["spans"], workload["fires"])
                if missed:
                    rep["problems"].append(f"span self-check failed for {missed}")
                rep["layers"], rep["bases"] = layer_metrics(
                    child["spans"], child, reports, child["run_s"], n_unlabeled)
                rep["spans"] = child["spans"]
        shutil.rmtree(out_dir, ignore_errors=True)
        if remaining() < 5:
            break

    reference_digests = next((r["digests"] for r in repeats if "digests" in r), None)
    for rep in repeats:
        if "digests" in rep and rep["digests"] != reference_digests:
            rep["problems"].append("artifact digests differ from the first repeat")
    ok = [r for r in repeats if not r["problems"]]
    for rep in repeats:
        status = "ok" if not rep["problems"] else "FAILED: " + "; ".join(rep["problems"])
        timing = f"run_s={rep['run_s']:.4f} peak_rss_mb={rep['peak_rss_mb']:.1f} " if "run_s" in rep else ""
        print(f"repeat {rep['index']}{' (traced)' if rep['traced'] else ''}: {timing}{status}")

    untraced = [r for r in ok if not r["traced"]]
    traced_ok = [r for r in ok if r["traced"]]
    run_s = [r["run_s"] for r in untraced]
    print(timing_line("run_s", run_s))
    first = ok[0] if ok else {"wrong": 0, "entries": 0}
    wrong, entries = first["wrong"], first["entries"]
    if not entries:
        print("wrong_pair_share: not defined (no manifest entries checked; base 0)")
    else:
        print(f"wrong_pair_share: {wrong / entries:.6f} ratio ({wrong} wrong of {entries} "
              f"manifest entries, summed over {len(config['budgets'])} budget(s); "
              f"ground truth: almt.toy.translate_token)")

    if args.trace:
        metrics = {}
        for name in (traced_ok[0]["layers"] if traced_ok else {}):
            metrics[name] = median([r["layers"][name] for r in traced_ok])
        traced_run_s = median([r["run_s"] for r in traced_ok])
        metrics["trace.run_s"] = traced_run_s
        metrics["trace.overhead_s"] = traced_run_s - median(run_s)
        for name, base in (traced_ok[0]["bases"] if traced_ok else {}).items():
            print(f"{name}: base {base}")
        print(f"trace.overhead_s: traced median {traced_run_s:.4f} s - untraced median "
              f"{median(run_s):.4f} s over {len(traced_ok)} traced / {len(untraced)} untraced repeats")
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "run_s": median(run_s),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": median(setup_s),
            # 1 - wrong_pair_share: a share that the oracle fix cannot drive to 0.
            "exact_pair_share": 1 - wrong / entries if entries else 1.0,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")

    record.update(setup_s=setup_s, repeats=repeats, metrics=metrics)
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str),
                                      encoding="utf-8")
    shutil.rmtree(fixture, ignore_errors=True)
    print(json.dumps({
        "correct": len(ok) == len(repeats),
        "attempted": len(repeats),
        "failed": len(repeats) - len(ok),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
