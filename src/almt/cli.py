"""Command-line interface.

Exit codes: 0 success, 2 validation failure or unreadable path, 3 stage failure
(a fault in the input a stage reads). A program bug is not caught: it ends in
its traceback, with Python's exit code 1.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import analyze, mix, select, toy
from .corpus import load_corpus, read_records, write_columns, write_text
from .errors import AlmtError, ConfigError, ParseError, describe
from .ngrams import extract_ngrams
from .pipeline import (_EMBEDDINGS, ARTIFACTS, STRATEGIES, RunConfig, RunContext, check_values,
                       mix_pairs, respond, run_pipeline, validate_config)


def _cmd_extract(args):
    _check(args, {"max_n": "--max-n"})
    corpus = load_corpus(args.input)
    index = extract_ngrams(corpus, args.max_n)
    index.export_tsv(args.output)
    print(f"{len(index)} phrases (max_n={args.max_n}) -> {args.output}")
    return 0


def _require(args, keys, what):
    """Refuse a command whose flags for ``keys`` are not all given."""
    missing = [f"--{key.replace('_', '-')}" for key in keys if not getattr(args, key)]
    if missing:
        raise ConfigError(f"{what} requires {', '.join(missing)}")


def _check(values, flags):
    """Refuse ``values``, a stage command's RunConfig or its parsed flags, when the
    value of a key of ``flags`` is not valid. ``flags`` maps each key to the flag
    that sets it, which a failure names."""
    failures = [f"{flag}: {f}" for key, flag in flags.items() for f in check_values(values, [key])]
    if failures:
        raise ConfigError("; ".join(failures))


def _cmd_select(args):
    _require(args, STRATEGIES[args.strategy].needs, f"strategy {args.strategy}")
    config = RunConfig(args.unlabeled, args.labeled, args.strategy, [args.budget_words],
                       embeddings_unlabeled=args.embeddings_unlabeled,
                       embeddings_labeled=args.embeddings_labeled, rttl_scores=args.rttl_scores,
                       seed=args.seed, k=args.k, max_n=args.max_n, dist_mode=args.dist_mode)
    _check(config, {"budgets": "--budget-words", "k": "--k", "max_n": "--max-n"})
    context = RunContext(config)
    (ranking,), result = context.rankings, context.selection
    write_text(args.output, select.rank_lines(map(select.encode_pick, result.sentences + result.phrases)))
    print(json.dumps({"strategy": ranking.strategy, "seed": ranking.seed, **asdict(result),
                      "sentences": len(result.sentences), "phrases": len(result.phrases)}))
    return 0


def _cmd_oracle(args):
    context = RunContext(RunConfig(None, args.labeled, None, [], oracle_reference=args.reference))
    context.reference  # read first: a malformed reference is reported before the selection
    context.selection = select.load_selection(args.selection)
    l_s, l_p, drops = respond(context, context.selection, lambda names, records: write_columns(
        [f"{args.output_prefix}.{ARTIFACTS[name]}" for name in names], records))
    print(json.dumps({"sentences": len(l_s), "phrases": len(l_p),
                      "dropped": {" ".join(p): r for p, r in drops.items()}}))
    return 0


def _cmd_mix(args):
    _require(args, _EMBEDDINGS if args.policy == "retrieve" else (), f"policy {args.policy}")
    config = RunConfig(None, args.labeled, None, [], embeddings_unlabeled=args.embeddings_unlabeled,
                       embeddings_labeled=args.embeddings_labeled, seed=args.seed, k=args.k,
                       mix_policy=args.policy)
    _check(config, {"k": "--k"})
    context = RunContext(config)
    if not 0 <= args.size <= len(context.L):
        raise ConfigError(f"--size {args.size} is not between 0 and the {len(context.L)} pairs "
                          f"of {args.labeled}")
    ids, skipped = mix_pairs(context, args.size)
    if len(ids) < args.size:
        raise ConfigError(f"--size {args.size} exceeds the usable pool of {len(ids)} pairs "
                          f"({skipped} skipped as degenerate)")
    if skipped:
        print(f"skipped {skipped} degenerate pairs", file=sys.stderr)
    write_columns([args.output, args.output + ".tsv"],
                  ((mix.encode_id(sid), mix.encode_entry(*context.L[sid], None, sid)[1]) for sid in ids))
    print(f"{len(ids)} pairs -> {args.output}")
    return 0


def _read_table(path):
    """The rows of a TSV of numbers, each as wide as the first."""
    rows = []

    def parse(line):
        try:
            row = [float(v) for v in line.rstrip("\n").split("\t")]
        except ValueError:
            raise ValueError(f"non-numeric cell in {line.rstrip()!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"non-finite cell in {line.rstrip()!r}")
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"expected {len(rows[0])} columns, got {len(row)}")
        return row
    for _, row in read_records(path, parse):
        rows.append(row)
    return rows


# analyze mode -> the files it reads: correlation's table, every other mode's corpora
_ANALYZE_NEEDS = {"correlation": ("input",), "coverage": ("covering", "test"),
                  "bleu": ("hypotheses", "references"), "wordstats": ("selected", "ood", "test"),
                  "length-ratio": ("hypotheses", "references")}


def _cmd_analyze(args):
    _require(args, _ANALYZE_NEEDS[args.mode], f"analyze {args.mode}")
    if args.mode == "correlation":
        rows = _read_table(args.input)
        if not rows:
            raise ParseError(f"{args.input}: no rows")
        if len(rows[0]) < 2:
            raise ParseError(f"{args.input}: expected coverage columns and a score column, got 1 column")
        *coverage_cols, score_col = zip(*rows)
        try:
            rs = [analyze.pearson(col, score_col) for col in coverage_cols]
        except ValueError as exc:  # fewer than 2 rows, a constant column or sums past the float range
            raise ParseError(f"{args.input}: {exc}") from None
        print("\t".join(f"{r:.6f}" for r in rs))
        return 0
    corpora = [load_corpus(getattr(args, key)) for key in _ANALYZE_NEEDS[args.mode]]
    tokens = [list(corpus.values()) for corpus in corpora]
    if args.mode == "coverage":
        _check(args, {"max_n": "--max-n"})
        try:
            per_n = analyze.ngram_coverage(*tokens, args.max_n, token_level=args.token_level)
        except ValueError as exc:  # an empty test corpus
            raise ParseError(f"{args.test}: {exc}") from None
        print(json.dumps({str(n): round(v, 4) for n, v in per_n.items()}))
    elif args.mode == "bleu":
        hyp, ref = corpora
        for sid, tokens in ref.items():
            score = analyze.sentence_bleu(hyp[sid], tokens) if sid in hyp else 0.0
            print(f"{sid}\t{score:.4f}")
    elif args.mode == "wordstats":
        stats = analyze.in_domain_word_stats(*tokens)
        for part, whole in (("IDWT", "WT"), ("IDWC", "WC")):
            stats[f"{part}/{whole}"] = round(100.0 * stats[part] / stats[whole], 2) if stats[whole] else 0.0
        print(json.dumps(stats))
    elif args.mode == "length-ratio":
        try:
            ratio = analyze.length_ratio(*corpora)
        except ValueError as exc:  # a reference id with no hypothesis, or no reference tokens
            raise ParseError(f"{args.hypotheses} against {args.references}: {exc}") from None
        print(f"{ratio:.6f}")
    return 0


def _cmd_validate(args):
    """Check the config's values and paths, then run the load stage on the files
    whose paths pass, listing every failure."""
    config = RunConfig.load(args.config)
    failures = RunContext(config).load(validate_config(config))
    for f in dict.fromkeys(failures):  # once each: frozen reads L again
        print(f"FAIL: {f}")
    if failures:
        return 2
    print("config valid")
    return 0


def _cmd_pipeline(args):
    config = RunConfig.load(args.config)
    if args.budget is not None:
        _check(argparse.Namespace(budgets=[args.budget]), {"budgets": "--budget"})
    if args.simulate_only:
        config.simulate_only = True
    for report in run_pipeline(config, budget=args.budget):  # refuses an invalid config
        print(json.dumps({"budget": report.budget, "counts": report.counts,
                          "ledger": report.ledger}))
    return 0


def _cmd_make_toy(args):
    config = toy.generate(args.output_dir, seed=args.seed)
    print(json.dumps(config, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="almt",
                                     description="Budgeted active-learning data selection for MT domain adaptation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="build and export an n-gram index")
    p.add_argument("--input", required=True)
    p.add_argument("--max-n", type=int, default=RunConfig.max_n)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("select", help="run one selection strategy")
    p.add_argument("--strategy", required=True,
                   choices=list(STRATEGIES))
    p.add_argument("--unlabeled", required=True)
    p.add_argument("--labeled")
    p.add_argument("--budget-words", type=int, required=True)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--k", type=int, default=RunConfig.k)
    p.add_argument("--max-n", type=int, default=RunConfig.max_n)
    p.add_argument("--rttl-scores")
    p.add_argument("--dist-mode", choices=["literal", "nn"], default=RunConfig.dist_mode)
    p.add_argument("--embeddings-unlabeled")
    p.add_argument("--embeddings-labeled")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("oracle", help="simulate translation of a selection")
    p.add_argument("--selection", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--labeled", required=True)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mix", help="sample or retrieve out-of-domain pairs")
    p.add_argument("--labeled", required=True)
    p.add_argument("--policy", choices=["sample", "retrieve"], default=RunConfig.mix_policy)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--k", type=int, default=RunConfig.k)
    p.add_argument("--embeddings-labeled")
    p.add_argument("--embeddings-unlabeled")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("analyze", help="diagnostic metrics")
    p.add_argument("mode", choices=list(_ANALYZE_NEEDS),
                   help="correlation reads --input, a TSV of coverage columns + a score column")
    for key in dict.fromkeys(key for keys in _ANALYZE_NEEDS.values() for key in keys):
        p.add_argument(f"--{key}")
    p.add_argument("--max-n", type=int, default=RunConfig.max_n)
    p.add_argument("--token-level", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int, help="run this one budget in place of the config's budget list")
    p.add_argument("--simulate-only", action="store_true")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("validate", help="validate a config file without running")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("make-toy", help="generate the bundled toy fixture")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_make_toy)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input or output path that cannot be opened
        print(f"FAIL: {describe(exc)}", file=sys.stderr)
        return 2
    except AlmtError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
