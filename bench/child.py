"""One fresh interpreter of the benchmark: set up a fixture, or run the pipeline once.

    child.py setup --root R --workload W --seed N --dir D
        import almt.pipeline, toy.generate the workload's fixture into D with
        seed N, apply the workload's config overrides, validate, and write
        D/bench_config.json. run.py times this whole process as setup_s.

    child.py run --root R --config C --output-dir O --result J [--trace]
        run_pipeline on config C with output_dir O, timed; write run_s, the
        process's peak RSS and, when traced, the span summary to J and the raw
        spans to J's directory.
"""

import argparse
import json
import sys
from pathlib import Path


def _use_checkout(root):
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import almt
    if Path(almt.__file__).resolve().parent != (src / "almt").resolve():
        raise SystemExit(f"almt imported from {almt.__file__}, not from {src}")


def setup(args):
    from almt.pipeline import RunConfig, validate_config
    from almt import toy
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    config = toy.generate(args.dir, seed=args.seed, **workload["generate"])
    config.update(workload["config"])
    failures = validate_config(RunConfig(**config))
    if failures:
        raise SystemExit("invalid workload config: " + "; ".join(failures))
    with open(Path(args.dir) / "bench_config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def run(args):
    import resource
    import time
    from almt.pipeline import RunConfig, run_pipeline
    config = RunConfig.load(args.config)
    config.output_dir = args.output_dir
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    run_pipeline(config)
    run_s = time.perf_counter() - t0
    result = {"run_s": run_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["spans"] = tracer.summary()
        result["scorer_cells"] = tracer.scorer_cells
        result["scorer_rss_rise_mb"] = tracer.scorer_rss_rise_mb
        with open(Path(args.result).with_suffix(".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("run")
    p.add_argument("--root", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    _use_checkout(args.root)
    if args.cmd == "setup":
        setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
